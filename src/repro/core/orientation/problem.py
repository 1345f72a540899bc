"""Stable orientations: problem statement, orientations, and stability checks.

Section 1.1 of the paper: every edge of an undirected graph is oriented,
and an oriented edge ``e = (u, v)`` (pointing at ``v``) is *happy* iff

    ``indegree(v) <= indegree(u) + 1``,

i.e. flipping the edge would not strictly lower the load of its head.  An
orientation is *stable* when every edge is happy.  The *badness* of an
oriented edge (Section 5) is ``indegree(v) - indegree(u)``; an edge is
happy exactly when its badness is at most 1.

The phase-based algorithm of Section 5 works with *partial* orientations
(it starts with no edge oriented and orients more edges every phase), so
:class:`Orientation` supports unoriented edges; only oriented edges
contribute to loads and can be (un)happy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, List, Mapping, Optional, Tuple

NodeId = Hashable
#: Canonical undirected edge representation: a sorted-by-repr 2-tuple.
EdgeKey = Tuple[NodeId, NodeId]


class OrientationError(ValueError):
    """Raised for malformed orientation problems or invalid operations."""


def edge_key(u: NodeId, v: NodeId) -> EdgeKey:
    """Canonical key of the undirected edge {u, v}.

    Naturally comparable endpoints are ordered directly.  Mixed-type ids
    (where ``<=`` raises TypeError) fall back to a ``(type name, repr)``
    tie-break: unlike a bare ``repr`` comparison, two distinct nodes of
    different types with identical reprs still get a total order, so
    ``edge_key(u, v) == edge_key(v, u)`` holds for every edge.  Distinct
    nodes that are also type- and ``repr``-identical order by
    ``(hash, id)`` as a last resort (consistent within a process, which
    is all a canonical key needs).
    """
    if u == v:
        raise OrientationError(f"self-loop on {u!r} is not allowed")
    try:
        return (u, v) if u <= v else (v, u)
    except TypeError:
        ku = (type(u).__name__, repr(u))
        kv = (type(v).__name__, repr(v))
        if ku == kv:
            return (u, v) if (hash(u), id(u)) <= (hash(v), id(v)) else (v, u)
        return (u, v) if ku < kv else (v, u)


@dataclass(frozen=True)
class OrientationProblem:
    """An instance of the stable orientation problem: an undirected simple graph.

    Parameters
    ----------
    edges:
        Iterable of 2-tuples; duplicates and self-loops are rejected.
    nodes:
        Optional extra isolated nodes (nodes mentioned in ``edges`` are
        added automatically).
    """

    adjacency: Mapping[NodeId, FrozenSet[NodeId]]
    edge_keys: FrozenSet[EdgeKey]

    def __init__(
        self, edges: Iterable[Tuple[NodeId, NodeId]], nodes: Iterable[NodeId] = ()
    ) -> None:
        adjacency: Dict[NodeId, set] = {node: set() for node in nodes}
        keys = set()
        for u, v in edges:
            key = edge_key(u, v)
            if key in keys:
                raise OrientationError(f"duplicate edge {key!r}")
            keys.add(key)
            adjacency.setdefault(u, set()).add(v)
            adjacency.setdefault(v, set()).add(u)
        object.__setattr__(
            self, "adjacency", {n: frozenset(a) for n, a in adjacency.items()}
        )
        object.__setattr__(self, "edge_keys", frozenset(keys))

    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Tuple[NodeId, ...]:
        """All nodes in deterministic order."""
        return tuple(sorted(self.adjacency, key=repr))

    @property
    def edges(self) -> Tuple[EdgeKey, ...]:
        """All undirected edges (canonical keys) in deterministic order."""
        return tuple(sorted(self.edge_keys, key=repr))

    def degree(self, node: NodeId) -> int:
        """Degree of one node."""
        return len(self.adjacency[node])

    def max_degree(self) -> int:
        """Δ, the maximum degree (0 for an edgeless graph)."""
        if not self.adjacency:
            return 0
        return max(len(a) for a in self.adjacency.values())

    def num_edges(self) -> int:
        return len(self.edge_keys)

    def neighbors(self, node: NodeId) -> FrozenSet[NodeId]:
        return self.adjacency[node]

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        return v in self.adjacency.get(u, frozenset())

    @classmethod
    def from_networkx(cls, graph) -> "OrientationProblem":
        """Build a problem from a ``networkx.Graph``."""
        return cls(edges=graph.edges(), nodes=graph.nodes())


class Orientation:
    """A (possibly partial) orientation of an :class:`OrientationProblem`.

    The orientation maps each oriented edge to its *head* (the node the
    edge points at, i.e. the server the edge-customer uses).  Loads
    (indegrees) are maintained incrementally so that the phase algorithm's
    inner loops stay linear.
    """

    def __init__(
        self,
        problem: OrientationProblem,
        heads: Optional[Mapping[EdgeKey, NodeId]] = None,
    ) -> None:
        self.problem = problem
        self._heads: Dict[EdgeKey, NodeId] = {}
        self._load: Dict[NodeId, int] = {node: 0 for node in problem.nodes}
        for key, head in (heads or {}).items():
            self.orient(key[0], key[1], head)

    # -- copying --------------------------------------------------------
    def copy(self) -> "Orientation":
        """An independent copy of this orientation."""
        clone = Orientation(self.problem)
        clone._heads = dict(self._heads)
        clone._load = dict(self._load)
        return clone

    # -- mutation -------------------------------------------------------
    def orient(self, u: NodeId, v: NodeId, head: NodeId) -> None:
        """Orient edge {u, v} towards ``head`` (must be one of its endpoints)."""
        key = edge_key(u, v)
        if key not in self.problem.edge_keys:
            raise OrientationError(f"{key!r} is not an edge of the problem")
        if head not in key:
            raise OrientationError(f"head {head!r} is not an endpoint of {key!r}")
        previous = self._heads.get(key)
        if previous is not None:
            self._load[previous] -= 1
        self._heads[key] = head
        self._load[head] += 1

    def flip(self, u: NodeId, v: NodeId) -> None:
        """Reverse the orientation of an already-oriented edge {u, v}."""
        key = edge_key(u, v)
        head = self._heads.get(key)
        if head is None:
            raise OrientationError(f"edge {key!r} is not oriented; cannot flip")
        tail = key[0] if head == key[1] else key[1]
        self.orient(u, v, tail)

    # -- queries --------------------------------------------------------
    def head_of(self, u: NodeId, v: NodeId) -> Optional[NodeId]:
        """Head of edge {u, v}, or None if it is unoriented."""
        return self._heads.get(edge_key(u, v))

    def tail_of(self, u: NodeId, v: NodeId) -> Optional[NodeId]:
        """Tail of edge {u, v}, or None if it is unoriented."""
        key = edge_key(u, v)
        head = self._heads.get(key)
        if head is None:
            return None
        return key[0] if head == key[1] else key[1]

    def is_oriented(self, u: NodeId, v: NodeId) -> bool:
        return edge_key(u, v) in self._heads

    def oriented_edges(self) -> Tuple[Tuple[NodeId, NodeId], ...]:
        """All oriented edges as (tail, head) pairs in deterministic order."""
        out = []
        for key, head in self._heads.items():
            tail = key[0] if head == key[1] else key[1]
            out.append((tail, head))
        return tuple(sorted(out, key=repr))

    def unoriented_edges(self) -> Tuple[EdgeKey, ...]:
        """Edges not yet oriented, in deterministic order."""
        return tuple(
            sorted(
                (k for k in self.problem.edge_keys if k not in self._heads), key=repr
            )
        )

    def num_oriented(self) -> int:
        return len(self._heads)

    def is_complete(self) -> bool:
        """True when every edge of the problem is oriented."""
        return len(self._heads) == len(self.problem.edge_keys)

    def load(self, node: NodeId) -> int:
        """Indegree (load) of a node under the current partial orientation."""
        return self._load[node]

    def loads(self) -> Dict[NodeId, int]:
        """A copy of all loads."""
        return dict(self._load)

    def max_load(self) -> int:
        """The maximum load over all nodes (0 if there are no nodes)."""
        if not self._load:
            return 0
        return max(self._load.values())

    # -- happiness / stability ------------------------------------------
    def badness(self, u: NodeId, v: NodeId) -> int:
        """Badness of an oriented edge: load(head) - load(tail).

        Raises if the edge is unoriented.
        """
        head = self.head_of(u, v)
        if head is None:
            raise OrientationError(f"edge {edge_key(u, v)!r} is not oriented")
        tail = self.tail_of(u, v)
        return self._load[head] - self._load[tail]

    def is_happy(self, u: NodeId, v: NodeId) -> bool:
        """An oriented edge is happy iff its badness is at most 1."""
        return self.badness(u, v) <= 1

    def unhappy_edges(self) -> List[Tuple[NodeId, NodeId]]:
        """All unhappy oriented edges as (tail, head) pairs."""
        out = []
        for tail, head in self.oriented_edges():
            if self._load[head] - self._load[tail] > 1:
                out.append((tail, head))
        return out

    def max_badness(self) -> int:
        """The maximum badness over oriented edges (0 if none are oriented)."""
        worst = 0
        for tail, head in self.oriented_edges():
            worst = max(worst, self._load[head] - self._load[tail])
        return worst

    def is_stable(self) -> bool:
        """True when the orientation is complete and every edge is happy."""
        return self.is_complete() and not self.unhappy_edges()

    # -- potentials -----------------------------------------------------
    def sum_squared_loads(self) -> int:
        """Σ load(v)² -- the potential that the sequential flip algorithm decreases."""
        return sum(load * load for load in self._load.values())

    def semi_matching_cost(self) -> int:
        """Σ f(load(v)) with f(x) = 1 + 2 + ... + x (the semi-matching objective)."""
        return sum(load * (load + 1) // 2 for load in self._load.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Orientation(oriented={self.num_oriented()}"
            f"/{len(self.problem.edge_keys)}, "
            f"max_load={self.max_load()}, unhappy={len(self.unhappy_edges())})"
        )


def orientation_from_dense(compact, heads, loads) -> Orientation:
    """Trusted construction of an :class:`Orientation` from dense kernel output.

    ``heads[e]`` / ``loads[i]`` are dense head ids per edge and loads per
    node of the :class:`~repro.graphs.compact.CompactGraph` ``compact``,
    as produced by the compact kernels; the result orients
    ``compact.to_orientation_problem()``.  Bypasses the per-edge
    validation of :meth:`Orientation.orient` (the kernels only emit
    endpoints of existing edges), so wrapping a kernel result costs one
    dict build instead of ``m`` validated orient calls.
    """
    node_ids = compact.node_ids
    orientation = Orientation.__new__(Orientation)
    orientation.problem = compact.to_orientation_problem()
    orientation._heads = {
        key: node_ids[heads[e]] for e, key in enumerate(compact.edge_keys())
    }
    orientation._load = {node_ids[i]: loads[i] for i in range(len(node_ids))}
    return orientation


def dense_from_orientation(compact, orientation) -> Tuple[List[int], List[int]]:
    """Dense ``(heads, loads)`` of a complete ``orientation`` over ``compact``.

    The inverse of :func:`orientation_from_dense`: ``heads[e]`` is the
    dense head of edge ``e`` of the
    :class:`~repro.graphs.compact.CompactGraph` and ``loads[i]`` the
    indegree of dense node ``i``.
    """
    index_of = compact.index_of
    heads = [index_of[orientation.head_of(u, v)] for u, v in compact.edge_keys()]
    loads = [0] * compact.num_nodes
    for h in heads:
        loads[h] += 1
    return heads, loads


def as_compact_graph(problem):
    """``problem`` as a :class:`~repro.graphs.compact.CompactGraph`.

    A pre-interned graph passes through; an :class:`OrientationProblem`
    is interned once (and stays cached as the graph's reference problem).
    """
    from repro.graphs.compact import CompactGraph

    if isinstance(problem, CompactGraph):
        return problem
    return CompactGraph.from_orientation_problem(problem)


def compact_kernel_input(
    problem, initial: Optional[Orientation], limit: Optional[int], name: str
):
    """The ``(compact, initial_heads, limit)`` a flip kernel starts from.

    Without ``initial`` the kernel runs on ``problem`` interned and sizes
    its own safety valve.  With one, it runs on ``initial.problem`` from
    the dense heads of ``initial``, and a missing ``limit`` is sized
    ``Σ deg(v)² + 1`` over ``problem``, as the reference path does even
    when ``initial`` brings its own graph.
    """
    from repro.graphs.compact import CompactGraph

    if initial is None:
        return as_compact_graph(problem), None, limit
    if not initial.is_complete():
        raise ValueError(f"{name} needs a complete initial orientation")
    compact = as_compact_graph(initial.problem)
    if limit is None:
        if isinstance(problem, CompactGraph):
            degrees = [problem.degree(i) for i in range(problem.num_nodes)]
        else:
            degrees = [problem.degree(x) for x in problem.nodes]
        limit = sum(d * d for d in degrees) + 1
    heads, _ = dense_from_orientation(compact, initial)
    return compact, heads, limit


def arbitrary_complete_orientation(
    problem: OrientationProblem, rng=None, towards: str = "max"
) -> Orientation:
    """A complete orientation used as the starting point of repair baselines.

    ``towards="max"`` points every edge at its larger endpoint (by repr),
    ``"min"`` at the smaller one, and ``"random"`` flips a seeded coin per
    edge (pass an explicit ``random.Random``).
    """
    orientation = Orientation(problem)
    for key in problem.edges:
        u, v = key
        if towards == "max":
            head = v
        elif towards == "min":
            head = u
        elif towards == "random":
            if rng is None:
                raise OrientationError("towards='random' requires an rng")
            head = v if rng.random() < 0.5 else u
        else:
            raise OrientationError(f"unknown orientation policy {towards!r}")
        orientation.orient(u, v, head)
    return orientation


def check_stable(orientation: Orientation) -> List[str]:
    """Return human-readable stability violations (empty list = stable)."""
    violations: List[str] = []
    unoriented = orientation.unoriented_edges()
    if unoriented:
        violations.append(f"{len(unoriented)} edge(s) are unoriented")
    for tail, head in orientation.unhappy_edges():
        violations.append(
            f"edge {tail!r} -> {head!r} is unhappy: load({head!r})="
            f"{orientation.load(head)} > load({tail!r})+1={orientation.load(tail) + 1}"
        )
    return violations
