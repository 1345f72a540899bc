"""Array fast-path kernels for the token dropping game.

These are the compact counterparts of the three token dropping solvers:

* :func:`greedy_kernel` — the centralized sequential baseline
  (:func:`~repro.core.token_dropping.greedy.greedy_token_dropping`);
* :func:`proposal_kernel` — the distributed proposal algorithm
  (Theorem 4.1, :mod:`repro.core.token_dropping.proposal`);
* :func:`three_level_kernel` — the O(Δ) height-3 algorithm
  (Theorem 4.7, :mod:`repro.core.token_dropping.three_level`).

Each kernel re-represents its input once — dense node ids in
``repr``-sorted order, parent/child adjacency as flat CSR arrays sharing
one edge-id space (:class:`_DenseGame`) — and then simulates the *same
execution* the reference path performs on integer arrays instead of
per-message dict envelopes.

One builder makes that dense game: :func:`game_from_arrays`, a few
whole-array NumPy steps that number game edges in ascending ``(child,
parent)`` order.  ``_DenseGame.from_instance``,
``_DenseGame.from_compact_network``, the orientation phase driver and
:func:`game_from_edge_stream` (streamed 10^6-node games) all call it.

The proposal algorithm runs on NumPy: :func:`proposal_game_kernel`
plays every round as masked gathers and scatters over the still-live
game edges, and serves both :func:`proposal_kernel` (per-node histories,
message counts, halt rounds) and the compact orientation phase driver
(quiet mode).  Only its ``random`` tie-break calls back into Python, for
the per-node :class:`random.Random` draws.  :func:`three_level_kernel`
and :func:`greedy_kernel` keep plain Python loops over
:meth:`_DenseGame.as_lists` copies.  NumPy is imported on first use, so
importing this module does not load it.

Exactness contract
------------------
The kernels reproduce the reference executions bit-for-bit: the same
final token configuration, the same set of used edges, the same pass
histories, the same round counts, and (for the distributed kernels) the
same :class:`~repro.local_model.metrics.ExecutionMetrics` including
message counts and per-node halt rounds.  This works because

* interning is ``repr``-sorted, so the reference tie-break rule
  ("smallest ``repr`` first", see ``_choose`` in the proposal module)
  becomes "smallest dense id first" — candidate lists built by ascending
  scans are already in reference order;
* the ``random`` tie-break seeds one :class:`random.Random` per node from
  ``f"{seed}:{node_id!r}"`` exactly like the reference node classes, and
  each node's generator is consumed in the same per-node event order;
* message counting replays the scheduler's delivery rule (messages to
  nodes that halted in or before the sending round are dropped), and the
  termination checks run against the same pre-``LEAVE`` neighbour counts
  the reference nodes observe.

The cross-validation suite asserts all of this on hundreds of seeded
instances (``tests/integration/test_compact_cross_validation.py``).

The distributed kernels run behind the existing
:class:`~repro.local_model.runner.Runner` API: the algorithm factories
register them via ``AlgorithmFactory(..., compact_kernel=...)`` and
:mod:`repro.dispatch` decides per execution which path runs.
"""

from __future__ import annotations

import random
from array import array
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.core.token_dropping.game import (
    LOCAL_HAS_TOKEN,
    LOCAL_LEVEL,
    LOCAL_PARENTS,
    TokenDroppingInstance,
)
from repro.core.token_dropping.traversal import TokenDroppingSolution, Traversal
from repro.graphs.compact import intern_nodes
from repro.local_model.compact import CompactEngine, CompactNetwork
from repro.local_model.metrics import ExecutionMetrics

if TYPE_CHECKING:
    import numpy as np


class _DenseGame:
    """Directed layered adjacency in flat parallel arrays.

    Parent and child CSR structures share one edge-id space: directed
    edge ``e`` appears once in some node's parent list and once in the
    parent's child list, so a single ``consumed`` flag per edge serves
    both endpoints.  Game edges are numbered in ascending ``(child,
    parent)`` order, so ``par_edge`` is the identity and every adjacency
    list is ascending per node (dense ids are interned in ``repr`` order),
    which is exactly the reference tie-break order.

    ``has_token`` is a ``bytearray``; the other arrays are NumPy arrays,
    or lists in an :meth:`as_lists` copy.
    """

    __slots__ = (
        "num_nodes",
        "num_edges",
        "has_token",
        "level",
        "par_ptr",
        "par_node",
        "par_edge",
        "chi_ptr",
        "chi_node",
        "chi_edge",
    )

    def __init__(
        self,
        num_nodes: int,
        num_edges: int,
        has_token: bytearray,
        level,
        par_ptr,
        par_node,
        par_edge,
        chi_ptr,
        chi_node,
        chi_edge,
    ) -> None:
        self.num_nodes = num_nodes
        self.num_edges = num_edges
        self.has_token = has_token
        self.level = level
        self.par_ptr = par_ptr
        self.par_node = par_node
        self.par_edge = par_edge
        self.chi_ptr = chi_ptr
        self.chi_node = chi_node
        self.chi_edge = chi_edge

    @classmethod
    def of(cls, net: CompactNetwork, *, lists: bool = False) -> "_DenseGame":
        """The dense game of ``net``, memoized on the compact network.

        ``lists=True`` gives (and memoizes) its :meth:`as_lists` copy, for
        the kernels that loop in Python.  The dense adjacency, initial
        token flags, and levels are all derived from immutable inputs;
        kernels copy the mutable pieces (token flags) before simulating,
        so the memo stays pristine.
        """
        key = "token_game_lists" if lists else "token_game"
        cached = net.derived.get(key)
        if cached is None:
            if lists:
                cached = cls.of(net).as_lists()
            else:
                cached = cls.from_compact_network(net)
            net.derived[key] = cached
        return cached

    @classmethod
    def from_compact_network(cls, net: CompactNetwork) -> "_DenseGame":
        """Read the token-dropping local inputs of every node (one pass)."""
        index_of = net.index_of
        inputs = [local or {} for local in net.local_inputs]
        edges = [
            (i, index_of[x])
            for i, local in enumerate(inputs)
            for x in local.get(LOCAL_PARENTS, ())
        ]
        game, _ = game_from_arrays(
            net.num_nodes,
            [bool(local.get(LOCAL_HAS_TOKEN)) for local in inputs],
            [int(local.get(LOCAL_LEVEL) or 0) for local in inputs],
            [c for c, _ in edges],
            [p for _, p in edges],
        )
        return game

    @classmethod
    def from_instance(
        cls, instance: TokenDroppingInstance
    ) -> Tuple["_DenseGame", Tuple, Dict]:
        """Intern a :class:`TokenDroppingInstance` directly (one pass)."""
        graph = instance.graph
        node_ids, index_of = intern_nodes(graph.levels)
        edges = [
            (i, index_of[x])
            for i, node in enumerate(node_ids)
            for x in graph.parents(node)
        ]
        game, _ = game_from_arrays(
            len(node_ids),
            [node in instance.tokens for node in node_ids],
            [graph.levels[node] for node in node_ids],
            [c for c, _ in edges],
            [p for _, p in edges],
        )
        return game, node_ids, index_of

    def as_lists(self) -> "_DenseGame":
        """This game with list arrays, for the kernels that loop in Python."""

        def to_list(values):
            return values if isinstance(values, list) else values.tolist()

        return _DenseGame(
            self.num_nodes,
            self.num_edges,
            self.has_token,
            to_list(self.level),
            to_list(self.par_ptr),
            to_list(self.par_node),
            to_list(self.par_edge),
            to_list(self.chi_ptr),
            to_list(self.chi_node),
            to_list(self.chi_edge),
        )


def game_from_arrays(
    num_nodes: int,
    has_token,
    levels,
    child,
    parent,
) -> Tuple[_DenseGame, np.ndarray]:
    """Build a dense game from per-node inputs and parallel edge arrays.

    The instance-from-arrays entry point used by the compact orientation
    phase driver: callers that already hold dense node ids never pay for a
    dict :class:`TokenDroppingInstance`/``to_network`` round-trip.  The
    CSR is built with whole-array NumPy steps: two ``argsort`` calls on
    combined integer keys and two ``bincount`` calls.

    Parameters
    ----------
    num_nodes:
        Number of dense nodes; all arrays are indexed ``0 .. num_nodes-1``.
    has_token / levels:
        Per-node token flag and level (the caller's loads).
    child / parent:
        Parallel int sequences, one entry per distinct directed game edge.
        Order is irrelevant: game edges are numbered in ascending
        ``(child, parent)`` order, the per-node order the reference
        tie-breaks require (dense interning is ``repr``-sorted, so
        ascending dense order is reference order).

    Returns
    -------
    (game, payloads)
        The dense game plus ``payloads[game_edge]``, the input position of
        each game edge.
    """
    import numpy as np

    child = np.asarray(child, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    # Distinct edges make the combined keys distinct, so the (faster)
    # unstable sort is deterministic.
    order = np.argsort(child * num_nodes + parent)
    par_child = child[order]
    par_node = parent[order]
    par_ptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(par_child, minlength=num_nodes), out=par_ptr[1:])
    chi_ptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(par_node, minlength=num_nodes), out=chi_ptr[1:])
    chi_edge = np.argsort(par_node * num_nodes + par_child)
    game = _DenseGame(
        num_nodes,
        len(order),
        bytearray(np.asarray(has_token, dtype=bool).tobytes()),
        np.asarray(levels, dtype=np.int64),
        par_ptr,
        par_node,
        np.arange(len(order), dtype=np.int64),
        chi_ptr,
        par_child[chi_edge],
        chi_edge,
    )
    return game, order


def game_from_edge_stream(
    num_nodes: int, edges: Iterable[Tuple[int, int]]
) -> Tuple[_DenseGame, np.ndarray]:
    """Build a tokenless level-0 game from a streamed ``(child, parent)`` iterable.

    The million-node entry point: the stream is consumed once into two
    flat ``array('q')`` buffers (8 bytes per entry, no per-edge tuples),
    which :func:`game_from_arrays` then reads without copying.  Callers
    that must draw tokens *after* consuming a shared-RNG edge stream (see
    ``random_token_dropping(compact=True)``) fill ``game.has_token`` and
    ``game.level`` in place.

    Returns ``(game, payloads)`` where ``payloads[game_edge]`` is the
    stream position of that edge.  Duplicate edges are not detected (the
    generating streams are duplicate-free by construction).
    """
    child_of = array("q")
    parent_of = array("q")
    for c, p in edges:
        child_of.append(c)
        parent_of.append(p)
    return game_from_arrays(
        num_nodes,
        bytearray(num_nodes),
        array("q", bytes(8 * num_nodes)),
        child_of,
        parent_of,
    )


def _node_rngs(
    tie_break: str, seed: int, node_ids: Tuple
) -> Optional[List[random.Random]]:
    """Per-node generators matching the reference node constructors."""
    if tie_break != "random":
        return None
    return [random.Random(f"{seed}:{node_id!r}") for node_id in node_ids]


def _pick(candidates: List, tie_break: str, rng: Optional[random.Random]):
    """Reference ``_choose`` over an already-ascending candidate list."""
    if tie_break == "min":
        return candidates[0]
    if tie_break == "max":
        return candidates[-1]
    return candidates[rng.randrange(len(candidates))]


def _leave_messages(i, game, alive, dying_now, consumed, n_par, n_chi) -> int:
    """LEAVE fan-out of one dying node in the three-level kernel.

    Counts deliveries to surviving neighbours (receivers halting in the
    same round drop the message, per the scheduler rule) and removes the
    dying node from each survivor's parent/child count.
    """
    par_ptr, par_node, par_edge = game.par_ptr, game.par_node, game.par_edge
    chi_ptr, chi_node, chi_edge = game.chi_ptr, game.chi_node, game.chi_edge
    messages = 0
    for s in range(par_ptr[i], par_ptr[i + 1]):
        if consumed[par_edge[s]]:
            continue
        p = par_node[s]
        if alive[p] and not dying_now[p]:
            messages += 1
            n_chi[p] -= 1
    for s in range(chi_ptr[i], chi_ptr[i + 1]):
        if consumed[chi_edge[s]]:
            continue
        c = chi_node[s]
        if alive[c] and not dying_now[c]:
            messages += 1
            n_par[c] -= 1
    return messages


def _halt_outputs(ids, initially, has_token, token, received, passed) -> List[dict]:
    """Per-node halt outputs in original-id space (both round kernels)."""
    return [
        {
            "initially_occupied": bool(initially[i]),
            "finally_occupied": bool(has_token[i]),
            "final_token": ids[token[i]] if has_token[i] else None,
            "received": tuple((ids[t], ids[s]) for t, s in received[i]),
            "passed": tuple((ids[t], ids[c]) for t, c in passed[i]),
        }
        for i in range(len(ids))
    ]


# ----------------------------------------------------------------------
# The distributed proposal algorithm (Theorem 4.1)
# ----------------------------------------------------------------------
def _group_choice(keys: np.ndarray, tie_break: str, rngs) -> np.ndarray:
    """Index of the chosen entry in each run of equal, sorted ``keys``.

    The whole-array form of :func:`_pick`: each run is one node's
    candidate list in reference order, and ``min``/``max`` take its first
    or last entry.  ``random`` draws ``rngs[key].randrange(len(run))``
    once per run, in Python, exactly as the reference node does.
    """
    import numpy as np

    size = len(keys)
    first = np.empty(size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    if tie_break == "min":
        return starts
    ends = np.append(starts[1:], size)
    if tie_break == "max":
        return ends - 1
    draws = [
        rngs[key].randrange(length)
        for key, length in zip(keys[starts].tolist(), (ends - starts).tolist())
    ]
    return starts + np.asarray(draws, dtype=np.int64)


def proposal_game_kernel(
    game: _DenseGame,
    max_rounds: int,
    *,
    tie_break: str = "min",
    rngs: Optional[List[random.Random]] = None,
    count_messages: bool = True,
) -> Tuple[
    np.ndarray, np.ndarray, Optional[List], Optional[List], np.ndarray, CompactEngine
]:
    """Run the proposal algorithm's execution loop on a dense game.

    The shared core behind :func:`proposal_kernel` (which wraps a
    :class:`CompactNetwork`) and the compact orientation phase driver
    (which builds per-phase games via :func:`game_from_arrays`).  Returns
    the dense end state ``(has_token, token, received, passed, consumed,
    engine)`` as NumPy arrays plus histories: ``consumed[game_edge]``
    marks exactly the edges used by passes, ``received[i]`` /
    ``passed[i]`` list node ``i``'s ``(token, neighbour)`` events in round
    order, and ``engine`` carries the reference-equal
    round/message/halt bookkeeping.

    Each round is a handful of whole-array steps over the *live* edges
    only — unconsumed, with both endpoints still running — kept in
    ascending edge id, i.e. grouped by child with parents ascending:

    * request: every tokenless child picks a valid parent (one holding a
      token) from its run of live edges;
    * grant: the requests, sorted by (parent, child), form each parent's
      ascending requester list, and each requested parent grants one;
    * announce: a node halts once it holds a token and has no live child
      edge, or holds none and has no live parent edge; its edges leave
      the live set and its neighbours' counters drop by one.

    A round costs O(live edges + running nodes), so a tall game does not
    pay for its already-settled layers.

    ``count_messages=False`` is the phase driver's quiet mode: it skips
    the LEAVE/announce delivery accounting (``engine.messages`` is then
    meaningless) and the histories (``received`` and ``passed`` are
    ``None``).  Rounds, halts, passes, and consumed edges are unchanged.
    """
    import numpy as np

    n = game.num_nodes
    engine = CompactEngine(n, max_rounds)
    par_ptr = np.asarray(game.par_ptr, dtype=np.int64)
    chi_ptr = np.asarray(game.chi_ptr, dtype=np.int64)
    # Live parent / child edges per node: the reference's termination
    # counters, decremented as edges are consumed or endpoints halt.
    n_par = np.diff(par_ptr)
    n_chi = np.diff(chi_ptr)
    live = np.arange(game.num_edges, dtype=np.int64)
    live_c = np.repeat(np.arange(n, dtype=np.int64), n_par)
    live_p = np.array(game.par_node, dtype=np.int64)

    has_token = np.frombuffer(game.has_token, dtype=np.uint8) != 0
    token = np.where(has_token, np.arange(n, dtype=np.int64), -1)
    consumed = np.zeros(game.num_edges, dtype=bool)
    halt_round = np.full(n, -1, dtype=np.int64)
    dying_now = np.zeros(n, dtype=bool)
    active = np.arange(n, dtype=np.int64)
    grants: List[Tuple] = []

    def announce(round_number: int) -> None:
        nonlocal active, live, live_c, live_p
        # Termination checks run against pre-LEAVE state: a death in this
        # round only becomes visible to neighbours at the next round.
        holds = has_token[active]
        die = np.where(holds, n_chi[active] == 0, n_par[active] == 0)
        dying = active[die]
        if dying.size:
            dying_now[dying] = True
            child_dies, parent_dies = dying_now[live_c], dying_now[live_p]
            gone = child_dies | parent_dies
            if count_messages:
                # One LEAVE per live edge with exactly one dying endpoint
                # (a receiver halting in the same round drops it).
                engine.messages += int(np.count_nonzero(child_dies ^ parent_dies))
            np.subtract.at(n_chi, live_p[gone], 1)
            np.subtract.at(n_par, live_c[gone], 1)
            keep = ~gone
            live, live_c, live_p = live[keep], live_c[keep], live_p[keep]
            dying_now[dying] = False
            halt_round[dying] = round_number
            active = active[~die]
        if count_messages:
            # A surviving holder announces over each live child edge.
            engine.messages += int(np.count_nonzero(has_token[live_p]))

    def play_round() -> None:
        nonlocal live, live_c, live_p
        valid = np.flatnonzero(has_token[live_p] & ~has_token[live_c])
        if not valid.size:
            return
        requests = valid[_group_choice(live_c[valid], tie_break, rngs)]
        # Each child requests once, so sorting by (parent, child) lists
        # every parent's requesters in ascending (reference) order.
        req_parent = live_p[requests]
        by_parent = np.argsort(req_parent * n + live_c[requests])
        chosen = requests[
            by_parent[_group_choice(req_parent[by_parent], tie_break, rngs)]
        ]
        if count_messages:
            engine.messages += len(requests) + len(chosen)
        child, parent = live_c[chosen], live_p[chosen]
        passed_token = token[parent]
        has_token[parent] = False
        token[parent] = -1
        has_token[child] = True
        token[child] = passed_token
        n_chi[parent] -= 1
        n_par[child] -= 1
        consumed[live[chosen]] = True
        if count_messages:
            grants.append((child, parent, passed_token))
        keep = np.ones(len(live), dtype=bool)
        keep[chosen] = False
        live, live_c, live_p = live[keep], live_c[keep], live_p[keep]

    announce(0)
    while active.size:
        engine.n_alive = active.size
        engine.step()
        engine.step()
        play_round()
        announce(engine.step())

    engine.n_alive = 0
    engine.alive = bytearray(n)
    engine.halt_rounds = halt_round.tolist()
    received = passed = None
    if count_messages:
        received = [[] for _ in range(n)]
        passed = [[] for _ in range(n)]
        for child, parent, passed_token in grants:
            for c, p, t in zip(
                child.tolist(), parent.tolist(), passed_token.tolist()
            ):
                received[c].append((t, p))
                passed[p].append((t, c))
    return has_token, token, received, passed, consumed, engine


def proposal_kernel(
    net: CompactNetwork,
    max_rounds: int,
    *,
    tie_break: str = "min",
    seed: int = 0,
) -> Tuple[List[dict], ExecutionMetrics]:
    """Simulate the proposal algorithm's execution on flat int arrays.

    Returns per-dense-node outputs (the dicts the reference nodes pass to
    ``ctx.halt``) and reference-equal execution metrics.
    """
    game = _DenseGame.of(net)
    ids = net.node_ids
    initially = bytes(game.has_token)
    has_token, token, received, passed, _, engine = proposal_game_kernel(
        game,
        max_rounds,
        tie_break=tie_break,
        rngs=_node_rngs(tie_break, seed, ids),
    )
    outputs = _halt_outputs(
        ids, initially, has_token.tolist(), token.tolist(), received, passed
    )
    return outputs, engine.metrics(ids)


# ----------------------------------------------------------------------
# The three-level algorithm (Theorem 4.7)
# ----------------------------------------------------------------------
def three_level_kernel(
    net: CompactNetwork,
    max_rounds: int,
    *,
    tie_break: str = "min",
    seed: int = 0,
) -> Tuple[List[dict], ExecutionMetrics]:
    """Simulate the height-3 algorithm's execution on flat int arrays."""
    game = _DenseGame.of(net, lists=True)
    n = game.num_nodes
    engine = CompactEngine(n, max_rounds)
    alive = engine.alive
    level = game.level
    par_ptr, par_node, par_edge = game.par_ptr, game.par_node, game.par_edge
    chi_ptr, chi_node, chi_edge = game.chi_ptr, game.chi_node, game.chi_edge

    has_token = bytearray(game.has_token)
    initially = bytes(has_token)
    token = [i if has_token[i] else -1 for i in range(n)]
    n_par = [par_ptr[i + 1] - par_ptr[i] for i in range(n)]
    n_chi = [chi_ptr[i + 1] - chi_ptr[i] for i in range(n)]
    consumed = bytearray(game.num_edges)
    received: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    passed: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    rngs = _node_rngs(tie_break, seed, net.node_ids)

    active = list(range(n))
    dying_now = bytearray(n)
    # In-flight GRANTs to level-1 nodes and ACCEPTs to level-1 proposers,
    # both applied at the next announce round (reference inbox timing).
    pending_grants: List[Tuple[int, int, int]] = []
    pending_accepts: List[Tuple[int, int]] = []

    def announce(round_number: int) -> None:
        nonlocal active
        for c, p, tok in pending_grants:
            has_token[c] = 1
            token[c] = tok
            received[c].append((tok, p))
            n_par[c] -= 1
        pending_grants.clear()
        for p, c in pending_accepts:
            # The accepted proposer still holds the proposed token.
            passed[p].append((token[p], c))
            n_chi[p] -= 1
            has_token[p] = 0
            token[p] = -1
        pending_accepts.clear()
        dying = []
        for i in active:
            lvl = level[i]
            if lvl == 2:
                die = (not has_token[i]) or n_chi[i] == 0
            elif lvl == 0:
                die = bool(has_token[i]) or n_par[i] == 0
            else:
                die = (n_chi[i] == 0) if has_token[i] else (n_par[i] == 0)
            if die:
                dying.append(i)
                dying_now[i] = 1
        messages = 0
        for i in dying:
            messages += _leave_messages(
                i, game, alive, dying_now, consumed, n_par, n_chi
            )
        # Counter-based delivery counts, as in proposal_kernel's announce:
        # after this round's LEAVE decrements, n_chi/n_par hold exactly the
        # unconsumed edges to neighbours that have not left, and same-round
        # deaths drop the message per the scheduler rule.
        for i in active:
            if dying_now[i]:
                continue
            lvl = level[i]
            if lvl == 2 and has_token[i]:
                messages += n_chi[i]
            elif lvl == 0 and not has_token[i]:
                messages += n_par[i]
        engine.messages += messages
        for i in dying:
            engine.halt(i, round_number)
            dying_now[i] = 0
        if dying:
            active = [i for i in active if alive[i]]

    def act_round() -> Tuple[
        Dict[int, List[Tuple[int, int]]], Dict[int, List[Tuple[int, int, int]]]
    ]:
        requests: Dict[int, List[Tuple[int, int]]] = {}
        proposals: Dict[int, List[Tuple[int, int, int]]] = {}
        messages = 0
        first = tie_break == "min"
        for i in active:
            if level[i] != 1:
                continue
            if not has_token[i]:
                candidates = []
                for s in range(par_ptr[i], par_ptr[i + 1]):
                    e = par_edge[s]
                    if consumed[e]:
                        continue
                    p = par_node[s]
                    if alive[p] and has_token[p]:
                        candidates.append((p, e))
                        if first:
                            break
                if not candidates:
                    continue
                p, e = _pick(candidates, tie_break, rngs[i] if rngs else None)
                messages += 1
                requests.setdefault(p, []).append((i, e))
            else:
                candidates = []
                for s in range(chi_ptr[i], chi_ptr[i + 1]):
                    e = chi_edge[s]
                    if consumed[e]:
                        continue
                    c = chi_node[s]
                    # Level-0 survivors are exactly the unoccupied nodes
                    # that announced UNOCCUPIED this game round.
                    if alive[c] and not has_token[c]:
                        candidates.append((c, e))
                        if first:
                            break
                if not candidates:
                    continue
                c, e = _pick(candidates, tie_break, rngs[i] if rngs else None)
                messages += 1
                proposals.setdefault(c, []).append((i, e, token[i]))
        engine.messages += messages
        return requests, proposals

    def resolve_round(
        requests: Dict[int, List[Tuple[int, int]]],
        proposals: Dict[int, List[Tuple[int, int, int]]],
    ) -> None:
        messages = 0
        for p, requesters in requests.items():
            # Level-2 granters announced this game round, so they are
            # alive and hold their token.
            c, e = _pick(requesters, tie_break, rngs[p] if rngs else None)
            messages += 1
            tok = token[p]
            passed[p].append((tok, c))
            consumed[e] = 1
            n_chi[p] -= 1
            has_token[p] = 0
            token[p] = -1
            pending_grants.append((c, p, tok))
        for c, offers in proposals.items():
            # Level-0 acceptors announced UNOCCUPIED, so they are alive
            # and unoccupied; the edge is consumed on both sides now (the
            # proposer learns via the pending ACCEPT next round).
            p, e, tok = _pick(offers, tie_break, rngs[c] if rngs else None)
            messages += 1
            has_token[c] = 1
            token[c] = tok
            received[c].append((tok, p))
            consumed[e] = 1
            n_par[c] -= 1
            pending_accepts.append((p, c))
        engine.messages += messages

    announce(0)
    while engine.n_alive:
        engine.step()
        requests, proposals = act_round()
        engine.step()
        resolve_round(requests, proposals)
        announce(engine.step())

    ids = net.node_ids
    outputs = _halt_outputs(ids, initially, has_token, token, received, passed)
    return outputs, engine.metrics(ids)


# ----------------------------------------------------------------------
# The centralized greedy baseline (Section 4)
# ----------------------------------------------------------------------
def greedy_kernel(
    instance: TokenDroppingInstance,
    *,
    order: str = "first",
    seed: int = 0,
) -> TokenDroppingSolution:
    """Run the centralized greedy baseline on flat int arrays.

    Replays :func:`~repro.core.token_dropping.greedy.greedy_token_dropping`
    move for move: the reference scans every token's children each
    iteration and sorts candidates by ``repr``; the kernel keeps an
    incremental movable-children count per node, so each move costs
    O(tokens + Δ) integer work instead of O(tokens · Δ) hashing plus an
    O(tokens log tokens) string sort.
    """
    game, node_ids, index_of = _DenseGame.from_instance(instance)
    game = game.as_lists()
    level = game.level
    par_ptr, par_node, par_edge = game.par_ptr, game.par_node, game.par_edge
    chi_ptr, chi_node, chi_edge = game.chi_ptr, game.chi_node, game.chi_edge

    rng = random.Random(seed)
    occupied = bytearray(game.has_token)
    consumed = bytearray(game.num_edges)
    # The reference iterates candidates in token-insertion order (the
    # iteration order of ``instance.tokens``), which the seeded ``random``
    # policy indexes into — so that order is part of the replayed state.
    tokens_in_order = [index_of[t] for t in instance.tokens]
    tokens_ascending = sorted(tokens_in_order)
    position = [-1] * game.num_nodes
    paths: Dict[int, List[int]] = {}
    for t in tokens_in_order:
        position[t] = t
        paths[t] = [t]
    history: List[List[Tuple[int, int]]] = [[] for _ in range(game.num_nodes)]

    # movable[v] = number of children reachable from v over an unconsumed
    # edge and currently unoccupied; a token is movable iff its node has
    # a positive count.  Maintained incrementally per move.
    movable = [0] * game.num_nodes
    for v in range(game.num_nodes):
        count = 0
        for s in range(chi_ptr[v], chi_ptr[v + 1]):
            if not occupied[chi_node[s]]:
                count += 1
        movable[v] = count

    while True:
        chosen = -1
        if order == "first":
            for t in tokens_ascending:
                if movable[position[t]]:
                    chosen = t
                    break
        elif order == "random":
            candidates = [t for t in tokens_in_order if movable[position[t]]]
            if candidates:
                chosen = candidates[rng.randrange(len(candidates))]
        elif order == "highest_level":
            best_key = None
            for t in tokens_in_order:
                if movable[position[t]]:
                    key = (level[position[t]], t)
                    if best_key is None or key > best_key:
                        best_key = key
                        chosen = t
        else:  # lowest_level
            best_key = None
            for t in tokens_in_order:
                if movable[position[t]]:
                    key = (level[position[t]], t)
                    if best_key is None or key < best_key:
                        best_key = key
                        chosen = t
        if chosen < 0:
            break

        node = position[chosen]
        if order != "random":
            # First unconsumed slot to an unoccupied child == the
            # reference's smallest-repr child.
            child = edge = -1
            for s in range(chi_ptr[node], chi_ptr[node + 1]):
                if not consumed[chi_edge[s]] and not occupied[chi_node[s]]:
                    child, edge = chi_node[s], chi_edge[s]
                    break
        else:
            steps = [
                (chi_node[s], chi_edge[s])
                for s in range(chi_ptr[node], chi_ptr[node + 1])
                if not consumed[chi_edge[s]] and not occupied[chi_node[s]]
            ]
            child, edge = steps[rng.randrange(len(steps))]

        consumed[edge] = 1
        movable[node] -= 1  # the chosen child was unoccupied
        occupied[node] = 0
        for s in range(par_ptr[node], par_ptr[node + 1]):
            if not consumed[par_edge[s]]:
                movable[par_node[s]] += 1
        occupied[child] = 1
        for s in range(par_ptr[child], par_ptr[child + 1]):
            if not consumed[par_edge[s]]:
                movable[par_node[s]] -= 1
        position[chosen] = child
        paths[chosen].append(child)
        history[node].append((chosen, child))

    traversals = {
        node_ids[t]: Traversal(node_ids[t], [node_ids[v] for v in path])
        for t, path in paths.items()
    }
    pass_history = {
        node_ids[v]: tuple((node_ids[t], node_ids[c]) for t, c in events)
        for v, events in enumerate(history)
        if events
    }
    return TokenDroppingSolution(
        traversals=traversals,
        pass_history=pass_history,
        game_rounds=None,
        communication_rounds=None,
    )
