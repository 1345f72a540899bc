"""Instance families used by the paper's lower-bound arguments.

Theorem 4.6 (and Theorem 7.4) reduce *from* bipartite maximal matching:
an adversarially hard matching instance becomes a hard height-2 token
dropping (resp. 2-bounded assignment) instance.  The reduction direction
means we cannot "demonstrate" the lower bound by running an algorithm --
what we *can* do, and what experiments E2/E5 report, is

* build the reduction instances and verify the reduction's correctness
  claim (the token dropping output is a maximal matching);
* build the Theorem 6.3 instance pair (high-girth Δ-regular graph vs.
  perfect Δ-ary tree) and verify the premises of Lemmas 6.1 and 6.2 on the
  stable orientations our algorithms produce;
* verify the indistinguishability premise itself: the t-radius views of
  the designated nodes in the two graphs are isomorphic for
  ``t ≤ (girth − 1) / 2 − 1``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Set, Tuple

from repro.core.orientation.problem import Orientation
from repro.core.token_dropping.game import TokenDroppingInstance
from repro.core.token_dropping.traversal import TokenDroppingSolution
from repro.graphs.bipartite import CustomerServerGraph
from repro.graphs.generators import high_girth_regular_graph, perfect_dary_tree
from repro.graphs.layered import LayeredGraph
from repro.graphs.validation import tree_heights

if TYPE_CHECKING:
    import networkx as nx

NodeId = Hashable


# ----------------------------------------------------------------------
# Theorem 4.6: height-2 token dropping from bipartite maximal matching
# ----------------------------------------------------------------------
def height2_matching_instance(graph: CustomerServerGraph) -> TokenDroppingInstance:
    """The Theorem 4.6 reduction: a bipartite graph as a height-2 game.

    Every customer-side node becomes a level-1 node holding a token and
    every server-side node a level-0 node; the token traversals of any
    valid solution then correspond exactly to a maximal matching of the
    bipartite graph.
    """
    levels: Dict[NodeId, int] = {}
    edges: List[Tuple[NodeId, NodeId]] = []
    for customer in graph.customers:
        levels[("U", customer)] = 1
    for server in graph.servers:
        levels[("V", server)] = 0
    for customer, server in graph.edges():
        edges.append((("V", server), ("U", customer)))
    layered = LayeredGraph(levels=levels, edges=edges)
    tokens = frozenset(("U", customer) for customer in graph.customers)
    return TokenDroppingInstance(layered, tokens=tokens)


def matching_from_height2_solution(
    graph: CustomerServerGraph, solution: TokenDroppingSolution
) -> Set[Tuple[NodeId, NodeId]]:
    """Extract the maximal matching encoded by a height-2 game solution.

    A token that moved from level 1 to level 0 matches its customer with
    the server it landed on; stationary tokens leave their customer
    unmatched.  The output-rule guarantees (unique destinations, edge
    disjointness, maximality) translate directly into the matching being a
    maximal matching -- :func:`repro.core.assignment.verify_maximal_matching`
    checks this independently in the tests and benchmarks.
    """
    del graph  # only needed by callers validating the result
    matching: Set[Tuple[NodeId, NodeId]] = set()
    for token, traversal in solution.traversals.items():
        if traversal.length == 0:
            continue
        (_, customer) = traversal.source
        (_, server) = traversal.destination
        matching.add((customer, server))
    return matching


# ----------------------------------------------------------------------
# Theorem 6.3: the Δ-regular graph vs. perfect Δ-ary tree pair
# ----------------------------------------------------------------------
def theorem63_instance_pair(
    delta: int,
    *,
    n_regular: Optional[int] = None,
    girth: Optional[int] = None,
    tree_depth: Optional[int] = None,
    seed: int = 0,
) -> Tuple[nx.Graph, nx.Graph, NodeId]:
    """Build the two graphs used in the proof of Theorem 6.3.

    Returns ``(regular_graph, tree, tree_root)`` where ``regular_graph``
    is Δ-regular with girth at least ``girth`` and ``tree`` is a perfect
    Δ-ary tree of depth ``tree_depth``.

    The proof requires girth ≥ Δ + 1 and depth Δ + 1; for the Δ used in
    experiments those graphs are enormous (Moore bound), so the defaults
    scale the construction down (girth ``min(Δ + 1, 5)`` -- triangle- and,
    where cheap, quadrilateral-free -- and depth ``min(Δ + 1, 4)``) while
    keeping every *checked* premise intact: the graph is verified to be
    Δ-regular with the stated girth and the tree to be a perfect Δ-ary
    tree.  Lemmas 6.1 and 6.2, which are what the experiments measure,
    hold for any such pair; only the radius over which the two views stay
    indistinguishable shrinks with the girth.
    """
    if delta < 3:
        raise ValueError(f"Theorem 6.3 needs Δ >= 3, got {delta}")
    if girth is None:
        girth = min(delta + 1, 5) if delta <= 3 else 4
    if tree_depth is None:
        tree_depth = min(delta + 1, 4)
    if n_regular is None:
        # Large enough for the swap heuristic to reach the girth target.
        n_regular = max(4 * delta * girth, 40)
        if (n_regular * delta) % 2 == 1:
            n_regular += 1
    regular = high_girth_regular_graph(delta, n_regular, girth=girth, seed=seed)
    tree, root = perfect_dary_tree(delta, tree_depth)
    return regular, tree, root


def lemma61_violations(
    tree: nx.Graph, orientation: Orientation
) -> List[Tuple[NodeId, int, int]]:
    """Check Lemma 6.1 on a stable orientation of a tree.

    Lemma 6.1: in any stable orientation of a perfect d-ary tree,
    ``indegree(v) ≤ h(v) + 1`` where ``h(v)`` is the distance to the
    closest leaf.  Returns the violating ``(node, load, height)`` triples
    (empty = lemma holds, as it must for correct algorithms).
    """
    heights = tree_heights(tree)
    violations = []
    for node in tree.nodes():
        load = orientation.load(node)
        if load > heights[node] + 1:
            violations.append((node, load, heights[node]))
    return violations


def lemma62_witness(orientation: Orientation, degree: int) -> Optional[NodeId]:
    """Check Lemma 6.2 on an orientation of a d-regular graph.

    Lemma 6.2: any orientation of a d-regular graph has a node with
    indegree at least ⌈d/2⌉.  Returns such a witness node (or None, which
    would contradict the lemma and therefore indicates a bug upstream).
    """
    threshold = math.ceil(degree / 2)
    for node in orientation.problem.nodes:
        if orientation.load(node) >= threshold:
            return node
    return None
