"""Int-array fast-path kernels for the stable orientation pipeline.

This module holds the compact counterparts of the orientation algorithms:

* :func:`sequential_flip_kernel` — the centralized flip baseline
  (:mod:`repro.core.orientation.sequential`);
* :func:`stable_orientation_kernel` — the phase-based Theorem 5.1
  algorithm (:mod:`repro.core.orientation.phases`), run as whole-array
  NumPy steps over zero-copy views of the CSR buffers: each phase's
  token dropping game is built directly as arrays and played by the
  NumPy proposal-game kernel of
  :mod:`repro.core.token_dropping._kernels`;
* :func:`repair_kernel` — the synchronous repair baseline
  (:mod:`repro.core.orientation.repair`);
* :func:`bounded_orientation_kernel` — the k-bounded relaxation
  (:mod:`repro.core.orientation.bounded`), running the edge-customer
  specialisation of the Section 7 assignment phases and their rank-2
  hypergraph proposal games entirely on flat arrays.

Each kernel runs the same algorithm on a
:class:`~repro.graphs.compact.CompactGraph`, touching only flat integer
arrays in the hot loop, and reproduces the reference implementation's
results *exactly* — same final orientation, same per-phase statistics,
same round counts — which the cross-validation suite asserts on hundreds
of seeded instances.  The phase kernel is the only one on NumPy (imported
on first use, so the other kernels never load it); the flip, repair and
bounded kernels are Python loops over lists.

How reference tie-breaking is replayed in int-land
--------------------------------------------------
The reference path orders unhappy edges by ``repr((tail, head))``.  Each
edge has exactly two possible oriented tuples, so the kernel computes the
``repr`` of all ``2m`` of them **once** at setup, sorts them, and stores
the two integer ranks per edge.  From then on "smallest repr first"
becomes "smallest int rank first" and the per-flip work involves no
hashing, boxing, or string formatting at all.  Unhappiness is tracked
incrementally: a flip changes the loads of exactly two nodes, so only the
edges incident to those nodes can change state (O(Δ) bookkeeping per flip
versus the reference path's full O(m log m) rescan).
"""

from __future__ import annotations

import random
from operator import itemgetter
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.graphs.compact import CompactGraph
from repro.local_model.errors import AlgorithmError

if TYPE_CHECKING:
    import numpy as np


def directed_ranks(graph: CompactGraph) -> Tuple[List[int], List[int]]:
    """Per-edge integer ranks of ``repr((tail, head))`` for both directions.

    ``rank_to_v[e]`` ranks the orientation pointing at ``edge_v[e]`` and
    ``rank_to_u[e]`` the reverse; comparing ranks is equivalent to
    comparing the reference path's ``repr`` strings.  Memoized on the
    (immutable) graph, so repeated kernel runs on the same instance pay
    the ``repr`` sort exactly once.
    """
    cached = graph.derived.get("directed_ranks")
    if cached is not None:
        return cached
    ids = graph.node_ids
    m = graph.num_edges
    reprs: List[str] = []
    for e in range(m):
        u = ids[graph.edge_u[e]]
        v = ids[graph.edge_v[e]]
        reprs.append(repr((u, v)))  # head = edge_v  (slot 2e)
        reprs.append(repr((v, u)))  # head = edge_u  (slot 2e + 1)
    order = sorted(range(2 * m), key=reprs.__getitem__)
    rank = [0] * (2 * m)
    for r, slot in enumerate(order):
        rank[slot] = r
    ranks = (rank[0::2], rank[1::2])
    graph.derived["directed_ranks"] = ranks
    return ranks


def sequential_flip_kernel(
    graph: CompactGraph,
    *,
    policy: str = "first",
    seed: int = 0,
    record_trace: bool = False,
    max_flips: Optional[int] = None,
    initial_heads: Optional[Sequence[int]] = None,
) -> Tuple[List[int], List[int], int, int, int, List[int]]:
    """Run the sequential flip algorithm on int arrays until stable.

    Parameters mirror
    :func:`~repro.core.orientation.sequential.sequential_flip_algorithm`;
    ``initial_heads`` is the dense head id per edge index (default: every
    edge points at ``edge_v``, i.e. the reference ``towards="max"``
    orientation).

    Returns
    -------
    (heads, loads, flips, initial_potential, final_potential, trace)
        Dense head id per edge, load per dense node, and the run
        statistics (``trace`` includes the initial potential first and is
        empty unless ``record_trace``).
    """
    rng = random.Random(seed)
    n = graph.num_nodes
    m = graph.num_edges
    eu = list(graph.edge_u)
    ev = list(graph.edge_v)
    indptr = list(graph.indptr)
    slot_edge = list(graph.slot_edge)
    rank_to_v, rank_to_u = directed_ranks(graph)

    if initial_heads is None:
        heads = list(ev)
        tails = list(eu)
    else:
        heads = list(initial_heads)
        tails = [eu[e] if heads[e] == ev[e] else ev[e] for e in range(m)]

    load = [0] * n
    for h in heads:
        load[h] += 1

    if max_flips is None:
        max_flips = sum((indptr[i + 1] - indptr[i]) ** 2 for i in range(n)) + 1

    potential = sum(l * l for l in load)
    initial_potential = potential
    trace: List[int] = [potential] if record_trace else []

    unhappy = {}
    for e in range(m):
        h = heads[e]
        if load[h] - load[tails[e]] > 1:
            unhappy[e] = rank_to_v[e] if h == ev[e] else rank_to_u[e]

    flips = 0
    while unhappy:
        if flips >= max_flips:
            raise RuntimeError(
                f"sequential flip algorithm exceeded {max_flips} flips; "
                "the potential argument guarantees this cannot happen"
            )
        if policy == "first":
            e = min(unhappy.items(), key=itemgetter(1))[0]
        elif policy == "random":
            items = sorted(unhappy.items(), key=itemgetter(1))
            e = items[rng.randrange(len(items))][0]
        else:  # max_badness
            e = max(
                unhappy.items(),
                key=lambda kv: (load[heads[kv[0]]] - load[tails[kv[0]]], kv[1]),
            )[0]

        h = heads[e]
        t = tails[e]
        delta = 2 * (load[t] - load[h]) + 2
        if delta >= 0:  # pragma: no cover - guards the potential argument
            raise RuntimeError(
                "flipping an unhappy edge did not decrease the potential; "
                "this contradicts the paper's argument and indicates a bug"
            )
        heads[e] = t
        tails[e] = h
        load[h] -= 1
        load[t] += 1
        potential += delta
        flips += 1
        if record_trace:
            trace.append(potential)

        for x in (h, t):
            for s in range(indptr[x], indptr[x + 1]):
                f = slot_edge[s]
                fh = heads[f]
                if load[fh] - load[tails[f]] > 1:
                    unhappy[f] = rank_to_v[f] if fh == ev[f] else rank_to_u[f]
                else:
                    unhappy.pop(f, None)

    return heads, load, flips, initial_potential, potential, trace


# ----------------------------------------------------------------------
# The phase-based stable orientation algorithm (Theorem 5.1)
# ----------------------------------------------------------------------
def _solve_phase_game(
    ids: Sequence,
    load: np.ndarray,
    tails: np.ndarray,
    heads: np.ndarray,
    game_edges: np.ndarray,
    accepting: np.ndarray,
    height: int,
    tie_break: str,
    seed: int,
    check_invariants: bool,
) -> Tuple[np.ndarray, int]:
    """Build and solve one phase's token dropping game.

    ``game_edges`` are the phase's badness-1 edges in ascending order
    with their ``tails`` (children) and ``heads`` (parents); ``accepting``
    flags the nodes that accepted a proposal this phase (the token
    holders).  The game is restricted to the nodes incident to a game
    edge, renumbered in ascending dense order.  Returns
    ``(consumed_edges, communication_rounds)``: the graph edges consumed
    by a token pass — exactly the edges step 4 must flip.
    """
    import numpy as np

    # Its functions are looked up through the module at call time, so
    # wrappers installed on the module (a tracer's, say) take effect.
    from repro.core.token_dropping import _kernels as td
    from repro.core.token_dropping.traversal import InvalidSolutionError

    incident = np.zeros(len(load), dtype=bool)
    incident[tails] = True
    incident[heads] = True
    participants = np.flatnonzero(incident)
    local = np.cumsum(incident) - 1
    child, parent = local[tails], local[heads]
    game, order = td.game_from_arrays(
        len(participants),
        accepting[participants],
        load[participants],
        child,
        parent,
    )
    degree = np.diff(game.par_ptr) + np.diff(game.chi_ptr)
    game_degree = int(degree.max(initial=0))
    # The reference budget: three LOCAL rounds per game round of the
    # Theorem 4.1 bound computed from this instance's height/degree.
    max_rounds = 3 * (8 * (height + 1) * (game_degree + 1) ** 2 + 8)
    rngs = None
    if tie_break == "random":
        rngs = td._node_rngs(
            tie_break, seed, tuple(ids[g] for g in participants.tolist())
        )
    _, final_token, _, _, consumed, engine = td.proposal_game_kernel(
        game, max_rounds, tie_break=tie_break, rngs=rngs, count_messages=False
    )

    if check_invariants:
        # Maximality (output rule 3) is the part of the solution
        # validation that guards Lemma 5.4; rules 1 and 2 hold by
        # construction of the game kernel.
        child = child[order]
        parent = game.par_node
        stuck = np.flatnonzero(
            ~consumed & (final_token[parent] >= 0) & (final_token[child] < 0)
        )
        if stuck.size:
            first = stuck[np.lexsort((child[stuck], parent[stuck]))[0]]
            raise InvalidSolutionError(
                f"not maximal: token at {ids[participants[parent[first]]]!r} "
                f"can still move to {ids[participants[child[first]]]!r}"
            )

    return game_edges[order[consumed]], engine.rounds


def stable_orientation_kernel(
    graph: CompactGraph,
    *,
    tie_break: str = "min",
    seed: int = 0,
    check_invariants: bool = True,
    max_phases: Optional[int] = None,
) -> Tuple[List[int], List[int], int, int, int, List]:
    """Run the phase-based stable orientation algorithm on NumPy arrays.

    The compact counterpart of
    :func:`~repro.core.orientation.phases.run_stable_orientation`.  Each
    phase is a few whole-array steps over zero-copy views of the CSR
    buffers: the propose/accept exchange takes each target's first
    proposal in ascending edge order, the per-phase token dropping game
    is built *directly* as a dense game
    (:func:`repro.core.token_dropping._kernels.game_from_arrays` — no dict
    :class:`~repro.core.token_dropping.game.TokenDroppingInstance` or
    ``to_network`` round-trip) and played by
    :func:`~repro.core.token_dropping._kernels.proposal_game_kernel`, and
    flips, accepts and the badness refresh are scatters.  Because dense
    node ids are ``repr``-sorted and edge indices follow the reference's
    canonical-key ``repr`` order, the reference tie-breaks ("propose to
    the canonical endpoint on a load tie", "accept the smallest-``repr``
    edge", the game's ``min``/``max``/``random`` policies) are all
    replayed exactly: orientations, per-phase statistics, and round
    counts match the dict path bit for bit.

    Returns
    -------
    (heads, loads, phases, game_rounds, communication_rounds, per_phase)
        Dense head id per edge and load per dense node (lists), and the
        run counters with the per-phase :class:`~repro.core.orientation.
        phases.PhaseStats` rows.
    """
    import numpy as np

    from repro.core.orientation.phases import (
        PHASE_OVERHEAD_ROUNDS,
        PhaseStats,
    )
    from repro.core.token_dropping.proposal import TIE_BREAK_POLICIES

    n = graph.num_nodes
    m = graph.num_edges
    ids = graph.node_ids
    # Zero-copy views of the CSR buffers.
    eu = np.frombuffer(graph.edge_u, dtype=np.int64)
    ev = np.frombuffer(graph.edge_v, dtype=np.int64)
    indptr = np.frombuffer(graph.indptr, dtype=np.int64)
    slot_edge = np.frombuffer(graph.slot_edge, dtype=np.int64)

    degree = np.diff(indptr)
    if max_phases is None:
        # Lemma 5.5: the explicit O(Δ) phase budget of the reference path.
        max_phases = 4 * (int(degree.max(initial=0)) + 1) + 4
    if m and tie_break not in TIE_BREAK_POLICIES:
        # The reference raises when the first phase builds its factory; an
        # edgeless problem never runs a phase and never validates.
        raise ValueError(
            f"unknown tie-break policy {tie_break!r}; "
            f"expected one of {TIE_BREAK_POLICIES}"
        )

    heads = np.full(m, -1, dtype=np.int64)
    load = np.zeros(n, dtype=np.int64)
    # The tail of edge e with head h is ends[e] - h.
    ends = eu + ev
    # load[head] - load[tail] of every oriented edge (0 while unoriented),
    # refreshed each phase only around the nodes whose load changed: an
    # edge's badness can change only when one of its endpoint loads does.
    badness = np.zeros(m, dtype=np.int64)
    # The unoriented edge ids, ascending (the reference scan order).
    pending = np.arange(m, dtype=np.int64)
    accepting = np.zeros(n, dtype=bool)
    per_phase: List = []
    phases = 0
    game_rounds = 0
    communication_rounds = 0
    oriented_count = 0

    while oriented_count < m:
        phases += 1
        if phases > max_phases:
            raise AlgorithmError(
                f"stable orientation exceeded the phase budget of {max_phases}; "
                "this contradicts Lemma 5.5 and indicates a bug"
            )

        with obs.span("orientation.phase", phase=phases) as psp:
            # Steps 1 + 2: every unoriented edge proposes to its lower-load
            # endpoint (canonical endpoint on ties) and every proposed-to
            # node accepts its smallest-repr edge — ``pending`` is
            # ascending, so that is the target's first proposal.
            pu, pv = eu[pending], ev[pending]
            targets = np.where(load[pv] < load[pu], pv, pu)
            first = np.full(n, m, dtype=np.int64)
            np.minimum.at(first, targets, pending)
            accepted_nodes = np.flatnonzero(first < m)
            accepted_edges = first[accepted_nodes]
            proposals = len(pending)
            accepted = len(accepted_nodes)

            # Step 3 input: the oriented edges of badness exactly 1 become
            # the phase's token dropping game edges (tail = child, head =
            # parent, Lemma 5.2), with tokens on the accepting nodes.  The
            # game is restricted to nodes incident to a game edge: every
            # other node (tokenless, or a token holder with no game
            # neighbours) halts at round 0 with no LEAVE fan-out in the
            # reference execution, so dropping it changes neither the
            # surviving run nor its rounds.
            game_edges = np.flatnonzero(badness == 1)
            game_heads = heads[game_edges]
            height = int(load.max())
            accepting[accepted_nodes] = True
            flipped, td_comm_rounds = _solve_phase_game(
                ids,
                load,
                ends[game_edges] - game_heads,
                game_heads,
                game_edges,
                accepting,
                height,
                tie_break,
                seed,
                check_invariants,
            )
            accepting[accepted_nodes] = False

            # Step 4: flip every edge consumed by a pass (every edge is
            # consumed at most once, so the flips commute).
            old_heads = heads[flipped]
            new_heads = ends[flipped] - old_heads
            heads[flipped] = new_heads
            load -= np.bincount(old_heads, minlength=n)
            load += np.bincount(new_heads, minlength=n)

            # Step 5: orient the accepted (previously unoriented) edges.
            heads[accepted_edges] = accepted_nodes
            load[accepted_nodes] += 1
            oriented_count += accepted
            pending = pending[heads[pending] < 0]

            # End-of-phase badness refresh over the incident slots of the
            # touched nodes (every node whose load changed; they include
            # every newly oriented edge's head), which is exhaustive.
            changed = np.zeros(n, dtype=bool)
            changed[old_heads] = True
            changed[new_heads] = True
            changed[accepted_nodes] = True
            touched = np.flatnonzero(changed)
            counts = degree[touched]
            refreshed_slots = int(counts.sum())
            if obs.enabled():
                obs.add("orientation.frontier.game_edges", len(game_edges))
                obs.add("orientation.frontier.touched_nodes", len(touched))
                obs.add("orientation.frontier.refreshed_slots", refreshed_slots)
            starts = indptr[touched] - (np.cumsum(counts) - counts)
            slots = np.arange(refreshed_slots) + np.repeat(starts, counts)
            refreshed = slot_edge[slots]
            refreshed = refreshed[heads[refreshed] >= 0]
            head = heads[refreshed]
            badness[refreshed] = load[head] - load[ends[refreshed] - head]

            max_badness = max(int(badness.max()), 0)
            if check_invariants and max_badness > 1:
                raise AlgorithmError(
                    f"phase {phases} ended with max badness {max_badness} > 1; "
                    "this contradicts Lemma 5.4 and indicates a bug"
                )

            td_game_rounds = -(-td_comm_rounds // 3)  # ceil, as in reconstruct_solution
            game_rounds += td_game_rounds + PHASE_OVERHEAD_ROUNDS
            communication_rounds += td_comm_rounds + PHASE_OVERHEAD_ROUNDS
            phase_stats = PhaseStats(
                phase=phases,
                proposals=proposals,
                accepted=accepted,
                tokens=accepted,
                token_dropping_game_rounds=td_game_rounds,
                token_dropping_communication_rounds=td_comm_rounds,
                token_dropping_height=height,
                edges_flipped=len(flipped),
                edges_oriented_total=oriented_count,
                max_badness_after=max_badness,
            )
            per_phase.append(phase_stats)
            psp.set(
                proposals=phase_stats.proposals,
                accepted=phase_stats.accepted,
                tokens=phase_stats.tokens,
                game_rounds=phase_stats.token_dropping_game_rounds,
                communication_rounds=(
                    phase_stats.token_dropping_communication_rounds
                ),
                height=phase_stats.token_dropping_height,
                edges_flipped=phase_stats.edges_flipped,
                oriented_total=phase_stats.edges_oriented_total,
                max_badness=phase_stats.max_badness_after,
            )

    if check_invariants:
        tails = ends - heads
        unhappy = np.flatnonzero(load[heads] - load[tails] > 1).tolist()
        if unhappy:
            violations = []
            for e in unhappy:
                h, t = ids[heads[e]], ids[tails[e]]
                violations.append(
                    f"edge {t!r} -> {h!r} is unhappy: load({h!r})="
                    f"{load[heads[e]]} > load({t!r})+1={load[tails[e]] + 1}"
                )
            raise AlgorithmError(
                "final orientation is not stable: " + "; ".join(violations)
            )

    return (
        heads.tolist(),
        load.tolist(),
        phases,
        game_rounds,
        communication_rounds,
        per_phase,
    )


# ----------------------------------------------------------------------
# The synchronous repair baseline
# ----------------------------------------------------------------------
def repair_kernel(
    graph: CompactGraph,
    *,
    seed: int = 0,
    max_iterations: Optional[int] = None,
    initial_heads: Optional[Sequence[int]] = None,
) -> Tuple[List[int], List[int], "object"]:
    """Run the synchronous repair baseline on int arrays.

    The compact counterpart of :func:`~repro.core.orientation.repair.
    synchronous_repair_orientation`.  The reference's only randomness is
    one ``random.Random(seed)`` consumed first by the coin-per-edge
    initial orientation (edges in canonical-key ``repr`` order, which is
    edge-index order) and then by ``rng.shuffle`` over the repr-sorted
    unhappy list each iteration.  ``shuffle``'s stream consumption depends
    only on the list length, so shuffling the rank-sorted edge-index list
    yields the exact reference permutation — the per-iteration flip sets,
    statistics, and final orientation all match bit for bit.

    ``initial_heads`` is the dense head id per edge index (default: the
    seeded random complete orientation of the reference path).
    """
    from repro.core.orientation._unhappy import (
        UnhappyEdgeTracker,
        run_repair_loop,
    )
    from repro.core.orientation.repair import (
        ROUNDS_PER_REPAIR_ITERATION,
        RepairRunStats,
    )

    rng = random.Random(seed)
    n = graph.num_nodes
    m = graph.num_edges
    eu = list(graph.edge_u)
    ev = list(graph.edge_v)
    indptr = list(graph.indptr)
    slot_edge = list(graph.slot_edge)
    rank_to_v, rank_to_u = directed_ranks(graph)

    if initial_heads is None:
        heads = [ev[e] if rng.random() < 0.5 else eu[e] for e in range(m)]
    else:
        heads = list(initial_heads)
    tails = [eu[e] if heads[e] == ev[e] else ev[e] for e in range(m)]

    load = [0] * n
    for h in heads:
        load[h] += 1

    if max_iterations is None:
        max_iterations = (
            sum((indptr[i + 1] - indptr[i]) ** 2 for i in range(n)) + 1
        )

    # Unhappy edges tracked incrementally (a flip changes two loads, so
    # only edges incident to those nodes change state), keyed to the rank
    # of their current (tail, head) repr — the reference's sort order.
    tracker = UnhappyEdgeTracker(heads, tails, load, ev, rank_to_v, rank_to_u)
    tracker.refresh(range(m))

    stats = RepairRunStats(initial_unhappy=len(tracker))

    def refresh_incident(x: int) -> None:
        tracker.refresh_slots(slot_edge, indptr[x], indptr[x + 1])

    with obs.span(
        "orientation.repair", nodes=n, edges=m, initial_unhappy=len(tracker)
    ) as sp:
        run_repair_loop(
            tracker,
            num_nodes=n,
            refresh_incident=refresh_incident,
            rng=rng,
            stats=stats,
            max_iterations=max_iterations,
            rounds_per_iteration=ROUNDS_PER_REPAIR_ITERATION,
        )
        sp.set(
            iterations=stats.iterations,
            flips=stats.total_flips,
            communication_rounds=stats.communication_rounds,
        )

    return heads, load, stats


# ----------------------------------------------------------------------
# The k-bounded stable orientation algorithm (Sections 1.4 / 7.3)
# ----------------------------------------------------------------------
def _edge_customer_ranks(graph: CompactGraph):
    """Repr-rank tables of the edge-customer view, memoized on the graph.

    Edge customers are labelled ``("edge", u, v)`` with endpoints in
    repr-sorted order; dense interning is repr-sorted, so the label's
    endpoint order is (min, max) of the dense endpoints.  Returns
    ``(lo, hi, labels, cust_order, pair_rank)`` where ``cust_order`` is
    the ascending customer-``repr`` scan order and ``pair_rank`` ranks the
    ``repr`` of every ``(endpoint, label)`` tuple — the candidate
    universe of the hypergraph game's ``choose``.
    """
    cached = graph.derived.get("edge_customer_ranks")
    if cached is not None:
        return cached
    ids = graph.node_ids
    m = graph.num_edges
    lo = [0] * m
    hi = [0] * m
    labels = []
    for e in range(m):
        u, v = graph.edge_u[e], graph.edge_v[e]
        if u > v:
            u, v = v, u
        lo[e] = u
        hi[e] = v
        labels.append(("edge", ids[u], ids[v]))

    label_reprs = [repr(label) for label in labels]
    cust_order = sorted(range(m), key=label_reprs.__getitem__)

    pair_reprs: List[str] = []
    for e in range(m):
        pair_reprs.append(repr((ids[lo[e]], labels[e])))
        pair_reprs.append(repr((ids[hi[e]], labels[e])))
    order = sorted(range(2 * m), key=pair_reprs.__getitem__)
    pair_rank = [0] * (2 * m)
    for r, slot in enumerate(order):
        pair_rank[slot] = r

    cached = (lo, hi, labels, cust_order, pair_rank)
    graph.derived["edge_customer_ranks"] = cached
    return cached


def bounded_orientation_kernel(
    graph: CompactGraph,
    *,
    k: int = 2,
    tie_break: str = "min",
    seed: int = 0,
    check_invariants: bool = True,
) -> Tuple[List[int], List[int], int, int, List]:
    """Run the k-bounded stable orientation algorithm on int arrays.

    The compact counterpart of :func:`~repro.core.orientation.bounded.
    run_bounded_stable_orientation`, which the reference path solves by
    translating every edge ``{u, v}`` into a degree-2 customer
    ``("edge", u, v)`` and running the Section 7 assignment phases with
    effective loads ``min(load, k)``.  This kernel runs that edge-customer
    specialisation directly: the per-phase propose/accept exchange scans
    edges in customer-``repr`` order, and the embedded rank-2 hypergraph
    proposal games (Theorem 7.1) run on flat arrays with the reference's
    ``repr`` tie-breaks replayed through two precomputed rank tables —
    customer-label ranks for the accept step and ``(vertex, customer)``
    pair ranks for the game's ``choose``.  Assignments, per-phase
    statistics, and game-round counts match the dict path bit for bit.

    Returns
    -------
    (choice, loads, phases, game_rounds, per_phase)
        Dense assigned-server (head) per edge, load per dense node, and
        the run counters with the per-phase :class:`~repro.core.
        assignment.algorithm.AssignmentPhaseStats` rows.
    """
    from repro.core.assignment._kernels import hypergraph_phase_game_kernel
    from repro.core.assignment.algorithm import (
        PHASE_OVERHEAD_ROUNDS,
        AssignmentPhaseStats,
    )

    n = graph.num_nodes
    m = graph.num_edges
    ids = graph.node_ids
    indptr = list(graph.indptr)
    slot_edge = list(graph.slot_edge)

    lo, hi, labels, cust_order, pair_rank = _edge_customer_ranks(graph)

    load = [0] * n
    choice = [-1] * m
    assigned = 0
    phases = 0
    game_rounds = 0
    per_phase: List = []
    # Unassigned customers in customer-repr order; filtering preserves the
    # relative order, so later phases scan only what is left.
    pending = cust_order

    # Lemma 7.2: the explicit O(C·S) phase budget (C = 2 for edges).
    max_customer_degree = 2 if m else 0
    max_phases = 4 * (max_customer_degree + 1) * (graph.max_degree() + 1) + 4

    # Frontier state, mirroring ``stable_orientation_kernel``: effective
    # levels min(load, k) maintained incrementally (they change only when
    # a load crosses k), a level histogram for O(1) phase height, the
    # badness-1 candidate set ``cand`` feeding each phase's game, badness
    # > 1 overflow in ``over`` (empty in any valid run), and reusable
    # scratch cleared frontier-sized — no per-phase O(n)/O(m) allocation
    # or scan.
    level = [0] * n
    hist = [0] * (k + 1)
    hist[0] = n
    cur_max = 0
    cand: Set[int] = set()
    over: Dict[int, int] = {}
    live = bytearray(m)
    incidence = [0] * n
    occupied = bytearray(n)
    touched = bytearray(n)

    while assigned < m:
        phases += 1
        if phases > max_phases:
            raise AlgorithmError(
                f"stable assignment exceeded the phase budget of {max_phases}; "
                "this contradicts Lemma 7.2 and indicates a bug"
            )

        # Step 1: every unassigned customer proposes to its least
        # effectively loaded endpoint (smaller repr on ties).  Step 2:
        # every proposed-to server accepts its smallest-repr customer,
        # which is the first one to reach it in customer-repr order.
        accepted: Dict[int, int] = {}
        if phases > 1:
            pending = [e for e in pending if choice[e] < 0]
        unassigned = len(pending)
        for e in pending:
            a, b = lo[e], hi[e]
            target = a if level[a] <= level[b] else b
            if target not in accepted:
                accepted[target] = e

        # Step 3: the per-phase hypergraph token dropping instance —
        # levels are effective loads, hyperedges the assigned customers of
        # badness exactly 1 (head = assigned server), tokens on accepting
        # servers.  ``cand`` holds exactly the badness-1 customers,
        # maintained at the end of the previous phase from the customers
        # whose endpoint levels or assignment changed — not by rescanning
        # all m edges.
        game_edge_list = sorted(cand)
        game_hyperedges = len(game_edge_list)
        game_vertex_set: List[int] = []
        for e in game_edge_list:
            live[e] = 1
            if not incidence[lo[e]]:
                game_vertex_set.append(lo[e])
            if not incidence[hi[e]]:
                game_vertex_set.append(hi[e])
            incidence[lo[e]] += 1
            incidence[hi[e]] += 1

        for server in accepted:
            occupied[server] = 1

        # Phase height from the level histogram (O(1), not max(level)).
        height = cur_max
        max_vertex_degree = 0
        for v in game_vertex_set:
            if incidence[v] > max_vertex_degree:
                max_vertex_degree = incidence[v]
        max_game_rounds = 8 * (height + 1) * (max_vertex_degree + 1) ** 2 + 8

        # The Theorem 7.1 proposal strategy on the rank-2 game, run by the
        # shared assignment-phase engine.  Only endpoints of live
        # hyperedges can ever have options, so the per-round scan skips
        # every other vertex (the reference scans them too, but they make
        # no choices and consume no randomness).
        game_vertex_set.sort()
        rounds, passes = hypergraph_phase_game_kernel(
            indptr=indptr,
            slot_edge=slot_edge,
            choice=choice,
            live=live,
            occupied=occupied,
            game_vertices=game_vertex_set,
            lo=lo,
            hi=hi,
            pair_rank=pair_rank,
            tie_break=tie_break,
            rng=random.Random(seed),
            max_game_rounds=max_game_rounds,
        )

        if check_invariants:
            # Maximality of the game outcome (the only validation rule not
            # guaranteed by construction): no occupied head may still have
            # a live hyperedge towards an unoccupied child.  The phase's
            # game edges are exactly ``game_edge_list``; consumed ones had
            # their ``live`` bit cleared by the engine.
            for e in game_edge_list:
                if not live[e]:
                    continue
                h = choice[e]
                if h < 0 or not occupied[h]:
                    continue
                other = lo[e] if h == hi[e] else hi[e]
                if not occupied[other]:
                    raise AlgorithmError(
                        "invalid hypergraph token dropping solution: "
                        f"not maximal at customer {labels[e]!r}"
                    )

        touched_nodes: List[int] = []

        def relevel(x: int) -> None:
            nonlocal cur_max
            lx = load[x]
            lv = lx if lx < k else k
            old = level[x]
            if lv == old:
                return
            hist[old] -= 1
            hist[lv] += 1
            level[x] = lv
            if lv > cur_max:
                cur_max = lv
            if not touched[x]:
                touched[x] = 1
                touched_nodes.append(x)

        # Step 4: move assignments along the passes (each consumed
        # hyperedge moved its customer one step to the pass target).
        for e, child in passes:
            h = choice[e]
            load[h] -= 1
            relevel(h)
            load[child] += 1
            relevel(child)
            choice[e] = child
        reassignments = len(passes)

        # Step 5: assign the accepted customers to their accepting servers.
        for server, e in accepted.items():
            choice[e] = server
            load[server] += 1
            relevel(server)
        assigned += len(accepted)
        while cur_max and not hist[cur_max]:
            cur_max -= 1

        # Reset the phase scratch frontier-sized: the only ``occupied``
        # bits ever set belong to accepting servers and pass targets.
        for e in game_edge_list:
            live[e] = 0
        for v in game_vertex_set:
            incidence[v] = 0
        for server in accepted:
            occupied[server] = 0
        for _e, child in passes:
            occupied[child] = 0

        if obs.enabled():
            obs.add("orientation.frontier.game_edges", game_hyperedges)
            obs.add("orientation.frontier.touched_nodes", len(touched_nodes))
            obs.add(
                "orientation.frontier.refreshed_slots",
                sum(indptr[x + 1] - indptr[x] for x in touched_nodes),
            )

        # End-of-phase badness maintenance: a customer's badness can only
        # change when an endpoint's effective level changed or its
        # assignment moved, so refreshing the touched nodes' incident
        # customers plus the passed and newly accepted ones is exhaustive.
        def refresh(e: int) -> None:
            h = choice[e]
            if h < 0:
                return
            other = lo[e] if h == hi[e] else hi[e]
            badness = level[h] - level[other]
            if badness == 1:
                cand.add(e)
                if over:
                    over.pop(e, None)
            else:
                cand.discard(e)
                if badness > 1:
                    over[e] = badness
                elif over:
                    over.pop(e, None)

        for x in touched_nodes:
            touched[x] = 0
            for s in range(indptr[x], indptr[x + 1]):
                refresh(slot_edge[s])
        for e, _child in passes:
            refresh(e)
        for e in accepted.values():
            refresh(e)

        max_badness = max(over.values()) if over else (1 if cand else 0)
        if check_invariants and max_badness > 1:
            raise AlgorithmError(
                f"phase {phases} ended with max badness {max_badness} > 1; "
                "this contradicts the Section 7.2 invariant and indicates a bug"
            )

        td_rounds = rounds
        game_rounds += td_rounds + PHASE_OVERHEAD_ROUNDS
        per_phase.append(
            AssignmentPhaseStats(
                phase=phases,
                proposals=unassigned,
                accepted=len(accepted),
                tokens=len(accepted),
                game_hyperedges=game_hyperedges,
                token_dropping_game_rounds=td_rounds,
                token_dropping_height=height,
                reassignments=reassignments,
                customers_assigned_total=assigned,
                max_badness_after=max_badness,
            )
        )

    if check_invariants:
        violations = []
        level = [x if x < k else k for x in load]
        for e in range(m):
            h = choice[e]
            other = lo[e] if h == hi[e] else hi[e]
            if level[h] - level[other] > 1:
                violations.append(
                    f"customer {labels[e]!r} on server {ids[h]!r} (load "
                    f"{load[h]}) has a strictly better server available"
                )
        if violations:
            raise AlgorithmError(
                "final assignment is not stable: " + "; ".join(violations)
            )

    return choice, load, phases, game_rounds, per_phase
