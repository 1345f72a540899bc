"""A repair-from-arbitrary-orientation distributed baseline.

The prior algorithm of Czygrinow et al. (DISC 2012) finds a stable
orientation in O(Δ⁵) rounds.  Its source is not available, but the paper's
own characterisation of *why* it is slower is the design of this baseline
(Section 1.2, "New ideas"): the prior work "starts with an arbitrary
orientation.  This potentially creates a large amount of unhappiness and
resolving it takes a lot of time", whereas the new algorithm orients edges
carefully so that there is never more than one unit of excess load.

``synchronous_repair_orientation`` therefore starts from a complete
arbitrary orientation and repairs it with synchronous rounds of conflict-
free flips: in every round the unhappy edges are matched greedily so that
no node is an endpoint of two simultaneous flips (this is exactly what a
constant number of LOCAL rounds per iteration can coordinate), and all
selected edges flip at once.  Each flip strictly decreases Σ load², so the
process terminates; the benchmark suite (experiment E4) compares its round
counts against the phase-based algorithm on the same instances.

This is *not* a re-implementation of the CHSW12 algorithm (see DESIGN.md,
"Substitutions"); it is the natural repair-style baseline that shares its
weakness.  Its round count can grow with the length of improvement chains
(and hence with n on pathological instances), which is the behaviour the
token-dropping approach eliminates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Set, Tuple, Union

from repro.core.orientation.problem import (
    Orientation,
    OrientationProblem,
    arbitrary_complete_orientation,
    compact_kernel_input,
    orientation_from_dense,
)
from repro.dispatch import resolve_backend
from repro.graphs.compact import CompactGraph

NodeId = Hashable

#: LOCAL communication rounds charged per repair iteration (collect loads,
#: nominate flips, resolve conflicts).
ROUNDS_PER_REPAIR_ITERATION = 3


@dataclass
class RepairRunStats:
    """Statistics of one run of the repair baseline."""

    iterations: int = 0
    communication_rounds: int = 0
    total_flips: int = 0
    flips_per_iteration: List[int] = field(default_factory=list)
    initial_unhappy: int = 0


def synchronous_repair_orientation(
    problem: Union[OrientationProblem, CompactGraph],
    *,
    initial: Optional[Orientation] = None,
    seed: int = 0,
    max_iterations: Optional[int] = None,
    backend: Optional[str] = None,
) -> Tuple[Orientation, RepairRunStats]:
    """Repair an arbitrary complete orientation into a stable one.

    Parameters
    ----------
    problem:
        The undirected graph to orient — either the reference
        :class:`OrientationProblem` or a pre-interned
        :class:`~repro.graphs.compact.CompactGraph`.
    initial:
        Starting complete orientation; defaults to a seeded random one
        (matching the "arbitrary orientation" of the prior work).
    seed:
        Seed for the default initial orientation and for shuffling the
        greedy matching order (the matching order is the only source of
        nondeterminism).
    max_iterations:
        Safety valve; defaults to ``Σ deg(v)² + 1`` which bounds the total
        number of flips and hence iterations.
    backend:
        ``"compact"`` / ``"dict"`` / ``"auto"`` (default; see
        :mod:`repro.dispatch`).  Both backends produce identical
        orientations and statistics; the compact fast path replays the
        seeded shuffle on flat int arrays.

    Returns
    -------
    (orientation, stats)
    """
    if resolve_backend(backend) == "compact":
        return _synchronous_repair_compact(
            problem, initial=initial, seed=seed, max_iterations=max_iterations
        )
    if isinstance(problem, CompactGraph):
        problem = problem.to_orientation_problem()
    rng = random.Random(seed)
    orientation = (
        initial.copy()
        if initial is not None
        else arbitrary_complete_orientation(problem, rng=rng, towards="random")
    )
    if not orientation.is_complete():
        raise ValueError("the repair baseline needs a complete initial orientation")

    if max_iterations is None:
        max_iterations = sum(problem.degree(n) ** 2 for n in problem.nodes) + 1

    stats = RepairRunStats(initial_unhappy=len(orientation.unhappy_edges()))

    while True:
        unhappy = orientation.unhappy_edges()
        if not unhappy:
            break
        if stats.iterations >= max_iterations:
            raise RuntimeError(
                f"repair baseline exceeded {max_iterations} iterations; "
                "the potential argument guarantees this cannot happen"
            )

        # Greedy conflict-free selection: no node participates in two flips.
        rng.shuffle(unhappy)
        used_nodes: Set[NodeId] = set()
        selected: List[Tuple[NodeId, NodeId]] = []
        for tail, head in unhappy:
            if tail in used_nodes or head in used_nodes:
                continue
            selected.append((tail, head))
            used_nodes.add(tail)
            used_nodes.add(head)

        for tail, head in selected:
            orientation.flip(tail, head)

        stats.iterations += 1
        stats.communication_rounds += ROUNDS_PER_REPAIR_ITERATION
        stats.total_flips += len(selected)
        stats.flips_per_iteration.append(len(selected))

    return orientation, stats


def _synchronous_repair_compact(
    problem: Union[OrientationProblem, CompactGraph],
    *,
    initial: Optional[Orientation],
    seed: int,
    max_iterations: Optional[int],
) -> Tuple[Orientation, RepairRunStats]:
    """Fast path: intern once, run the int-array kernel, wrap the result."""
    from repro.core.orientation._kernels import repair_kernel

    compact, initial_heads, max_iterations = compact_kernel_input(
        problem, initial, max_iterations, "the repair baseline"
    )
    heads, loads, stats = repair_kernel(
        compact,
        seed=seed,
        max_iterations=max_iterations,
        initial_heads=initial_heads,
    )

    orientation = orientation_from_dense(compact, heads, loads)
    return orientation, stats
