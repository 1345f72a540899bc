"""Local views and indistinguishability checks.

The Ω(Δ) lower bound of Theorem 6.3 is an indistinguishability argument:
a t-round LOCAL algorithm's output at a node is a function of the node's
*t-radius view* (the subgraph induced by nodes within distance t, rooted
at the node).  If two nodes in two different graphs have isomorphic
views, any t-round algorithm must behave identically at both.

This module computes t-radius views and checks rooted isomorphism, which
is what experiment E5 uses to certify that the node of high indegree in
the Δ-regular graph and the chosen tree node really are indistinguishable
for the radii the proof relies on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, Tuple

if TYPE_CHECKING:
    import networkx as nx

NodeId = Hashable


def radius_t_view(graph: nx.Graph, node: NodeId, t: int) -> nx.Graph:
    """The subgraph induced by all nodes within distance ``t`` of ``node``.

    Every node of the returned graph carries a ``dist`` attribute (its
    distance from the root), and the root carries ``is_root=True``.  In the
    LOCAL model this is exactly the information a t-round deterministic
    algorithm can gather (identifiers aside; the lower-bound argument
    quantifies over worst-case identifier assignments).
    """
    import networkx as nx

    if t < 0:
        raise ValueError(f"radius must be non-negative, got {t}")
    distances = nx.single_source_shortest_path_length(graph, node, cutoff=t)
    view = graph.subgraph(distances).copy()
    nx.set_node_attributes(view, distances, "dist")
    view.nodes[node]["is_root"] = True
    return view


def views_isomorphic(
    graph_a: nx.Graph, node_a: NodeId, graph_b: nx.Graph, node_b: NodeId, t: int
) -> bool:
    """True iff the t-radius views of the two nodes are isomorphic as rooted graphs.

    The isomorphism must map the root to the root and preserve distances
    from the root (which rooted isomorphisms do automatically; matching on
    the precomputed ``dist`` attribute simply prunes the search).
    """
    import networkx as nx

    view_a = radius_t_view(graph_a, node_a, t)
    view_b = radius_t_view(graph_b, node_b, t)
    if view_a.number_of_nodes() != view_b.number_of_nodes():
        return False
    if view_a.number_of_edges() != view_b.number_of_edges():
        return False

    def node_match(attrs_a: Dict, attrs_b: Dict) -> bool:
        return attrs_a.get("dist") == attrs_b.get("dist") and attrs_a.get(
            "is_root", False
        ) == attrs_b.get("is_root", False)

    matcher = nx.algorithms.isomorphism.GraphMatcher(
        view_a, view_b, node_match=node_match
    )
    return matcher.is_isomorphic()


def view_signature(graph: nx.Graph, node: NodeId, t: int) -> Tuple:
    """A cheap isomorphism-invariant fingerprint of a t-radius view.

    Not a complete invariant, but sufficient to distinguish views that
    differ in per-distance node/edge counts or degree multisets -- used to
    fail fast in sweeps before running the exact matcher.
    """
    view = radius_t_view(graph, node, t)
    per_distance: Dict[int, int] = {}
    for _, attrs in view.nodes(data=True):
        per_distance[attrs["dist"]] = per_distance.get(attrs["dist"], 0) + 1
    degree_multiset = tuple(sorted(d for _, d in view.degree()))
    return (
        tuple(sorted(per_distance.items())),
        view.number_of_edges(),
        degree_multiset,
    )
