"""The 0–1–many (k-bounded) relaxation of stable orientations (Section 1.4).

Section 1.4 of the paper relaxes stable orientations the same way
Section 7.3 relaxes stable assignments: customers (edges) only distinguish
servers of load 0, load 1, and load "at least 2".  The paper states two
results about this relaxation:

* it still requires Ω(Δ) rounds (it is at least as hard as maximal
  matching -- the bipartite case is Theorem 7.4), and
* it can be solved in O(Δ³) rounds, much faster than the O(Δ⁵)/O(Δ⁴)
  known for the general problem (the O(Δ³) follows from Theorem 7.5 with
  C = 2: O(C·S²) = O(Δ²) phases-times-token-dropping plus the constant
  factors; the paper quotes O(Δ³) for the orientation special case).

Because the stable orientation problem is exactly the stable assignment
problem with degree-2 customers (Section 1.3), the reproduction implements
the relaxed orientation by translating the graph to edge-customers and
running the k-bounded assignment algorithm, then translating the result
back to an :class:`~repro.core.orientation.problem.Orientation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Optional, Union

from repro.core.assignment.bounded import run_bounded_stable_assignment
from repro.core.assignment.algorithm import StableAssignmentResult
from repro.core.orientation.problem import (
    Orientation,
    OrientationProblem,
    as_compact_graph,
    orientation_from_dense,
)
from repro.dispatch import resolve_backend
from repro.graphs.bipartite import CustomerServerGraph
from repro.graphs.compact import CompactGraph

NodeId = Hashable


@dataclass
class BoundedOrientationResult:
    """Outcome of the k-bounded stable orientation algorithm.

    ``assignment_result`` carries the underlying k-bounded assignment run
    (per-phase statistics included); it is ``None`` only for edgeless
    problems, where there is nothing to orient.
    """

    orientation: Orientation
    k: int
    phases: int
    game_rounds: int
    assignment_result: Optional[StableAssignmentResult]

    @property
    def stable(self) -> bool:
        """k-bounded stability of the produced (complete) orientation."""
        return self.orientation.is_complete() and not bounded_unhappy_edges(
            self.orientation, self.k
        )


def effective(load: int, k: int) -> int:
    """Effective load under the k-bounded relaxation."""
    return min(load, k)


def bounded_unhappy_edges(orientation: Orientation, k: int = 2) -> List[tuple]:
    """Oriented edges that are unhappy under the k-bounded relaxation.

    An edge pointing at head ``v`` with tail ``u`` is k-bounded-unhappy iff
    ``load(u) <= min(k, load(v)) - 2`` -- for ``k = 2``: the head has load
    at least 2 while the tail still has load 0.
    """
    unhappy = []
    for tail, head in orientation.oriented_edges():
        threshold = min(k, orientation.load(head)) - 2
        if orientation.load(tail) <= threshold:
            unhappy.append((tail, head))
    return unhappy


def run_bounded_stable_orientation(
    problem: Union[OrientationProblem, CompactGraph],
    *,
    k: int = 2,
    tie_break: str = "min",
    seed: int = 0,
    check_invariants: bool = True,
    backend: Optional[str] = None,
) -> BoundedOrientationResult:
    """Solve the 0–1–many (k-bounded) stable orientation problem.

    Parameters
    ----------
    problem:
        The undirected graph whose edges must be oriented — either the
        reference :class:`OrientationProblem` or a pre-interned
        :class:`~repro.graphs.compact.CompactGraph`.
    k:
        Relaxation threshold (≥ 2); ``k = 2`` is the 0–1–many version of
        Section 1.4.
    tie_break, seed, check_invariants:
        Passed through to the underlying k-bounded assignment algorithm.
    backend:
        ``"compact"`` / ``"dict"`` / ``"auto"`` (default; see
        :mod:`repro.dispatch`).  The compact fast path runs the
        edge-customer specialisation of the assignment phases on flat int
        arrays and produces identical results, including the embedded
        :class:`StableAssignmentResult`.
    """
    if k < 2:
        raise ValueError(f"the k-bounded relaxation requires k >= 2, got {k}")
    if resolve_backend(backend) == "compact":
        return _run_bounded_compact(
            problem,
            k=k,
            tie_break=tie_break,
            seed=seed,
            check_invariants=check_invariants,
        )
    if isinstance(problem, CompactGraph):
        problem = problem.to_orientation_problem()
    graph = CustomerServerGraph.from_orientation_graph(problem.edges)
    orientation = Orientation(problem)

    if not problem.edges:
        # Nothing to orient; trivially stable.
        return BoundedOrientationResult(
            orientation=orientation,
            k=k,
            phases=0,
            game_rounds=0,
            assignment_result=None,
        )

    result = run_bounded_stable_assignment(
        graph, k=k, tie_break=tie_break, seed=seed, check_invariants=check_invariants
    )
    for customer, server in result.assignment.choices().items():
        # Customers are labelled ("edge", u, v) by from_orientation_graph.
        _, u, v = customer
        orientation.orient(u, v, head=server)

    return BoundedOrientationResult(
        orientation=orientation,
        k=k,
        phases=result.phases,
        game_rounds=result.game_rounds,
        assignment_result=result,
    )


def _run_bounded_compact(
    problem: Union[OrientationProblem, CompactGraph],
    *,
    k: int,
    tie_break: str,
    seed: int,
    check_invariants: bool,
) -> BoundedOrientationResult:
    """Fast path: intern once, run the phase kernel, wrap the results.

    The embedded :class:`StableAssignmentResult` is rebuilt through the
    trusted reference constructors in one pass, so callers see exactly the
    objects the dict path produces.
    """
    from repro.core.assignment.problem import Assignment
    from repro.core.orientation._kernels import bounded_orientation_kernel

    compact = as_compact_graph(problem)

    if not compact.num_edges:
        # Nothing to orient; trivially stable.
        return BoundedOrientationResult(
            orientation=Orientation(compact.to_orientation_problem()),
            k=k,
            phases=0,
            game_rounds=0,
            assignment_result=None,
        )

    choice, loads, phases, game_rounds, per_phase = bounded_orientation_kernel(
        compact,
        k=k,
        tie_break=tie_break,
        seed=seed,
        check_invariants=check_invariants,
    )

    ids = compact.node_ids
    orientation = orientation_from_dense(compact, choice, loads)

    # Rebuild the reference assignment view through trusted constructors:
    # the kernel guarantees every edge customer has exactly its two
    # distinct endpoints as servers, so no per-edge validation is needed.
    customer_adjacency = {}
    server_members: dict = {}
    choices = {}
    for e in range(compact.num_edges):
        u, v = compact.edge_u[e], compact.edge_v[e]
        if u > v:
            u, v = v, u
        label = ("edge", ids[u], ids[v])
        customer_adjacency[label] = frozenset((ids[u], ids[v]))
        server_members.setdefault(u, []).append(label)
        server_members.setdefault(v, []).append(label)
        choices[label] = ids[choice[e]]
    server_dense = sorted(server_members)
    graph = CustomerServerGraph.from_validated_adjacency(
        customer_adjacency,
        {ids[i]: frozenset(server_members[i]) for i in server_dense},
    )
    assignment = Assignment.__new__(Assignment)
    assignment.graph = graph
    assignment._choice = choices
    assignment._load = {ids[i]: loads[i] for i in server_dense}

    result = StableAssignmentResult(
        assignment=assignment,
        phases=phases,
        game_rounds=game_rounds,
        k=k,
        per_phase=per_phase,
    )
    return BoundedOrientationResult(
        orientation=orientation,
        k=k,
        phases=phases,
        game_rounds=game_rounds,
        assignment_result=result,
    )


def theoretical_bounded_orientation_round_bound(
    problem: OrientationProblem, constant: int = 16
) -> int:
    """A concrete O(Δ³) round budget for the relaxed orientation problem.

    With C = 2 (edges have two endpoints) and S = Δ the Theorem 7.5 budget
    O(C·S²) specialises to O(Δ²) token-dropping rounds per O(Δ) phases,
    i.e. O(Δ³) overall, matching the figure quoted in Section 1.4.
    """
    delta = problem.max_degree() + 1
    return constant * delta**3 + constant
