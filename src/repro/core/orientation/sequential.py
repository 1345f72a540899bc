"""The centralized sequential flip algorithm for stable orientations.

Section 1.1: "start with an arbitrary orientation and then repeatedly pick
an arbitrary unhappy edge and flip it.  Flipping one edge may create new
unhappy edges.  However, ... the algorithm will terminate in polynomial
time in the number of nodes: the sum of squared indegrees is strictly
decreasing."

This module implements exactly that, with a choice of which unhappy edge
to flip next.  It is used as

* a correctness oracle (stability of the final orientation),
* the baseline that exhibits the long *flip chains* the introduction warns
  about (experiment E9), and
* a sanity check that the potential Σ load² is strictly decreasing, which
  the tests assert on every run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Tuple, Union

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

#: Supported policies for choosing the next unhappy edge to flip.
FLIP_POLICIES = ("first", "random", "max_badness")


@dataclass
class SequentialRunStats:
    """Statistics of one run of the sequential flip algorithm.

    Attributes
    ----------
    flips:
        Total number of edge flips performed.
    initial_potential / final_potential:
        Σ load² before and after; the algorithm guarantees strict decrease
        with every flip, so ``final <= initial - flips``.
    potential_trace:
        The potential after every flip (including the initial value first);
        recorded only when ``record_trace=True``.
    """

    flips: int = 0
    initial_potential: int = 0
    final_potential: int = 0
    potential_trace: List[int] = field(default_factory=list)


def sequential_flip_algorithm(
    problem: Union[OrientationProblem, CompactGraph],
    *,
    initial: Optional[Orientation] = None,
    policy: str = "first",
    seed: int = 0,
    record_trace: bool = False,
    max_flips: Optional[int] = None,
    backend: Optional[str] = None,
) -> Tuple[Orientation, SequentialRunStats]:
    """Run the centralized flip algorithm until the orientation is stable.

    Parameters
    ----------
    problem:
        The undirected graph to orient — either the reference
        :class:`OrientationProblem` or a pre-interned
        :class:`~repro.graphs.compact.CompactGraph`.
    initial:
        Starting complete orientation; defaults to "every edge points at
        its larger endpoint".
    policy:
        Which unhappy edge to flip next: ``"first"`` (deterministic),
        ``"random"``, or ``"max_badness"`` (steepest descent).
    seed:
        Seed for the ``"random"`` policy.
    record_trace:
        When True, store the potential Σ load² after every flip.
    max_flips:
        Safety valve; defaults to ``Σ deg(v)²`` which upper-bounds the
        number of flips (each flip decreases the potential by ≥ 2 and the
        potential is at most ``Σ deg(v)² ``).
    backend:
        ``"compact"`` / ``"dict"`` / ``"auto"`` (default; see
        :mod:`repro.dispatch`).  Both backends produce identical results;
        the compact fast path runs the flip loop on flat int arrays.

    Returns
    -------
    (orientation, stats)
        The final (stable) orientation and run statistics.
    """
    if policy not in FLIP_POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {FLIP_POLICIES}")
    if resolve_backend(backend) == "compact":
        return _sequential_flip_compact(
            problem,
            initial=initial,
            policy=policy,
            seed=seed,
            record_trace=record_trace,
            max_flips=max_flips,
        )
    if isinstance(problem, CompactGraph):
        problem = problem.to_orientation_problem()
    rng = random.Random(seed)
    orientation = (
        initial.copy()
        if initial is not None
        else arbitrary_complete_orientation(problem)
    )
    if not orientation.is_complete():
        raise ValueError(
            "the sequential flip algorithm needs a complete initial orientation"
        )

    if max_flips is None:
        max_flips = sum(problem.degree(n) ** 2 for n in problem.nodes) + 1

    stats = SequentialRunStats(
        initial_potential=orientation.sum_squared_loads(),
        final_potential=orientation.sum_squared_loads(),
    )
    if record_trace:
        stats.potential_trace.append(stats.initial_potential)

    while True:
        unhappy = orientation.unhappy_edges()
        if not unhappy:
            break
        if stats.flips >= max_flips:
            raise RuntimeError(
                f"sequential flip algorithm exceeded {max_flips} flips; "
                "the potential argument guarantees this cannot happen"
            )
        if policy == "first":
            tail, head = sorted(unhappy, key=repr)[0]
        elif policy == "random":
            tail, head = unhappy[rng.randrange(len(unhappy))]
        else:  # max_badness
            tail, head = max(
                unhappy,
                key=lambda edge: (
                    orientation.load(edge[1]) - orientation.load(edge[0]),
                    repr(edge),
                ),
            )
        before = orientation.sum_squared_loads()
        orientation.flip(tail, head)
        after = orientation.sum_squared_loads()
        if after >= before:  # pragma: no cover - guards the potential argument
            raise RuntimeError(
                "flipping an unhappy edge did not decrease the potential; "
                "this contradicts the paper's argument and indicates a bug"
            )
        stats.flips += 1
        stats.final_potential = after
        if record_trace:
            stats.potential_trace.append(after)

    return orientation, stats


def _sequential_flip_compact(
    problem: Union[OrientationProblem, CompactGraph],
    *,
    initial: Optional[Orientation],
    policy: str,
    seed: int,
    record_trace: bool,
    max_flips: Optional[int],
) -> Tuple[Orientation, SequentialRunStats]:
    """Fast path: intern once, run the int-array kernel, wrap the result."""
    from repro.core.orientation._kernels import sequential_flip_kernel

    compact, initial_heads, max_flips = compact_kernel_input(
        problem, initial, max_flips, "the sequential flip algorithm"
    )
    heads, loads, flips, initial_potential, final_potential, trace = (
        sequential_flip_kernel(
            compact,
            policy=policy,
            seed=seed,
            record_trace=record_trace,
            max_flips=max_flips,
            initial_heads=initial_heads,
        )
    )

    orientation = orientation_from_dense(compact, heads, loads)

    stats = SequentialRunStats(
        flips=flips,
        initial_potential=initial_potential,
        final_potential=final_potential if flips else initial_potential,
        potential_trace=trace,
    )
    return orientation, stats


def flip_chain_length(
    problem: Union[OrientationProblem, CompactGraph],
    *,
    policy: str = "first",
    seed: int = 0,
    backend: Optional[str] = None,
) -> int:
    """Convenience wrapper returning only the number of flips performed."""
    _, stats = sequential_flip_algorithm(
        problem, policy=policy, seed=seed, backend=backend
    )
    return stats.flips
