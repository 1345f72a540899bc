"""``CompactGraph.from_edge_stream``: bit-for-bit parity with ``from_edges``.

The streaming constructor exists so million-edge instances never pay for
a per-edge dict, tuple list, or networkx graph — but it must stay
*indistinguishable* from :meth:`CompactGraph.from_edges` on any input the
dict path accepts (and reject exactly what it rejects).  These tests pin
that contract on seeded instances up to n=10^4 plus the edge cases the
bucket-sort could plausibly get wrong: duplicate edges, isolated nodes,
empty streams, and mixed-type ids whose ordering exercises the repr-key
assembly.
"""

from __future__ import annotations

import pytest

from repro.core.orientation.problem import OrientationError
from repro.graphs.compact import CompactGraph
from repro.graphs.generators import bounded_degree_gnp, random_layered_graph


def assert_same_compact_graph(a: CompactGraph, b: CompactGraph) -> None:
    """Every array and mapping equal — not just isomorphic."""
    assert a.node_ids == b.node_ids
    assert a.index_of == b.index_of
    assert a.indptr == b.indptr
    assert a.indices == b.indices
    assert a.slot_edge == b.slot_edge
    assert a.edge_u == b.edge_u
    assert a.edge_v == b.edge_v


class TestCompactGraphStream:
    @pytest.mark.parametrize("seed", range(5))
    def test_equals_from_edges_on_gnp(self, seed):
        graph = bounded_degree_gnp(60, 0.15, 7, seed=seed)
        edges = list(graph.edges())
        nodes = list(graph.nodes())
        assert_same_compact_graph(
            CompactGraph.from_edge_stream(iter(edges), nodes=nodes),
            CompactGraph.from_edges(edges, nodes=nodes),
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_equals_from_edges_on_layered_dag(self, seed):
        graph = random_layered_graph(
            num_levels=12, width=25, edge_probability=0.1, seed=seed
        )
        assert_same_compact_graph(
            CompactGraph.from_edge_stream(iter(graph.edges), nodes=graph.nodes),
            CompactGraph.from_edges(graph.edges, nodes=graph.nodes),
        )

    def test_equals_from_edges_at_ten_thousand_nodes(self):
        # The acceptance-bar instance: the E1 head-to-head family at
        # n=10^4, streamed vs dict-built.
        graph = random_layered_graph(
            num_levels=50, width=200, edge_probability=0.02, seed=2
        )
        assert len(graph.nodes) == 10_000
        assert_same_compact_graph(
            CompactGraph.from_edge_stream(iter(graph.edges), nodes=graph.nodes),
            CompactGraph.from_edges(graph.edges, nodes=graph.nodes),
        )

    def test_edge_order_independence(self):
        # The reference sorts edges by canonical-key repr, so the stream
        # order must not leak into the result.
        edges = [(3, 1), (1, 2), (10, 2), (7, 3)]
        assert_same_compact_graph(
            CompactGraph.from_edge_stream(reversed(edges)),
            CompactGraph.from_edges(edges),
        )

    def test_mixed_type_ids(self):
        edges = [(1, "a"), ("a", (2, 3)), ((2, 3), 1), ("b", 1)]
        nodes = ["iso", 99]
        assert_same_compact_graph(
            CompactGraph.from_edge_stream(iter(edges), nodes=nodes),
            CompactGraph.from_edges(edges, nodes=nodes),
        )

    def test_isolated_nodes_survive(self):
        compact = CompactGraph.from_edge_stream([(1, 2)], nodes=["iso", 5, 1])
        assert compact.node_ids == CompactGraph.from_edges(
            [(1, 2)], nodes=["iso", 5, 1]
        ).node_ids
        iso = compact.index_of["iso"]
        assert compact.degree(iso) == 0
        assert compact.num_edges == 1

    def test_empty_stream(self):
        empty = CompactGraph.from_edge_stream(iter(()))
        assert empty.num_nodes == 0
        assert empty.num_edges == 0
        only_nodes = CompactGraph.from_edge_stream(iter(()), nodes=[2, 1])
        assert_same_compact_graph(
            only_nodes, CompactGraph.from_edges([], nodes=[2, 1])
        )

    def test_duplicate_edges_rejected_with_reference_message(self):
        with pytest.raises(OrientationError) as stream_err:
            CompactGraph.from_edge_stream([(1, 2), (3, 2), (2, 1)])
        with pytest.raises(OrientationError) as dict_err:
            CompactGraph.from_edges([(1, 2), (3, 2), (2, 1)])
        assert str(stream_err.value) == str(dict_err.value)

    def test_self_loops_rejected(self):
        with pytest.raises(OrientationError):
            CompactGraph.from_edge_stream([(1, 2), (3, 3)])

    def test_round_trip_through_reference_problem(self):
        graph = bounded_degree_gnp(40, 0.2, 6, seed=9)
        compact = CompactGraph.from_edge_stream(
            iter(graph.edges()), nodes=graph.nodes()
        )
        problem = compact.to_orientation_problem()
        assert problem.edges == compact.edge_keys()
        assert tuple(problem.nodes) == compact.node_ids
