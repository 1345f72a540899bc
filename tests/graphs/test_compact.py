"""Unit tests for the compact CSR graph cores and their round-trips."""

from __future__ import annotations

import pytest

from repro.core.orientation._kernels import stable_orientation_kernel
from repro.core.orientation.problem import OrientationError, OrientationProblem
from repro.graphs.bipartite import BipartiteGraphError, CustomerServerGraph
from repro.graphs.compact import (
    ArraySnapshot,
    CompactBipartite,
    CompactGraph,
    SnapshotError,
    intern_nodes,
    write_array_snapshot,
)
from repro.graphs.generators import (
    bounded_degree_gnp,
    random_bipartite_customer_server,
)


class TestInterning:
    def test_repr_sorted_and_invertible(self):
        ids, index_of = intern_nodes(["b", "a", "c", "a"])
        assert ids == ("a", "b", "c")
        assert [ids[index_of[x]] for x in ("a", "b", "c")] == ["a", "b", "c"]

    def test_matches_reference_node_order(self):
        problem = OrientationProblem(edges=[(10, 2), (2, 3)], nodes=[7])
        compact = CompactGraph.from_orientation_problem(problem)
        assert compact.node_ids == problem.nodes  # both repr-sorted


class TestCompactGraph:
    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_is_lossless(self, seed):
        graph = bounded_degree_gnp(30, 0.2, 6, seed=seed)
        problem = OrientationProblem.from_networkx(graph)
        compact = CompactGraph.from_orientation_problem(problem)
        compact._problem = None  # force a rebuild instead of the cache
        assert compact.to_orientation_problem() == problem

    def test_round_trip_keeps_isolated_nodes(self):
        problem = OrientationProblem(edges=[(1, 2)], nodes=["iso", 5])
        compact = CompactGraph.from_orientation_problem(problem)
        compact._problem = None
        rebuilt = compact.to_orientation_problem()
        assert rebuilt == problem
        assert "iso" in rebuilt.adjacency

    def test_csr_structure_matches_reference(self):
        problem = OrientationProblem.from_networkx(
            bounded_degree_gnp(20, 0.3, 5, seed=1)
        )
        compact = CompactGraph.from_orientation_problem(problem)
        assert compact.num_nodes == len(problem.nodes)
        assert compact.num_edges == problem.num_edges()
        assert compact.max_degree() == problem.max_degree()
        for i, node in enumerate(compact.node_ids):
            neighbours = {compact.node_ids[j] for j in compact.neighbors(i)}
            assert neighbours == set(problem.neighbors(node))
            assert compact.degree(i) == problem.degree(node)

    def test_edge_order_matches_reference(self):
        problem = OrientationProblem.from_networkx(
            bounded_degree_gnp(15, 0.3, 5, seed=2)
        )
        compact = CompactGraph.from_orientation_problem(problem)
        assert compact.edge_keys() == problem.edges

    def test_edge_index_lookup(self):
        problem = OrientationProblem(edges=[(1, 2), (2, 3), (3, 1)])
        compact = CompactGraph.from_orientation_problem(problem)
        for e, (u, v) in enumerate(compact.edge_keys()):
            assert compact.edge_index(u, v) == e
            assert compact.edge_index(v, u) == e  # order-insensitive

    def test_neighbors_are_a_memoryview(self):
        compact = CompactGraph.from_edges([(1, 2), (2, 3)])
        view = compact.neighbors(compact.index_of[2])
        assert isinstance(view, memoryview)
        assert sorted(view) == sorted(
            (compact.index_of[1], compact.index_of[3])
        )

    def test_from_edges_validation(self):
        with pytest.raises(OrientationError):
            CompactGraph.from_edges([(1, 1)])
        with pytest.raises(OrientationError):
            CompactGraph.from_edges([(1, 2), (2, 1)])

    def test_mixed_type_node_ids(self):
        problem = OrientationProblem(edges=[(1, "a"), ("a", (2, 3))])
        compact = CompactGraph.from_orientation_problem(problem)
        compact._problem = None
        assert compact.to_orientation_problem() == problem


CSR_FIELDS = ("indptr", "indices", "slot_edge", "edge_u", "edge_v")


def _buffer_graph(kind: str) -> CompactGraph:
    if kind == "gnp":
        problem = OrientationProblem.from_networkx(
            bounded_degree_gnp(30, 0.2, 6, seed=4)
        )
    elif kind == "mixed":
        problem = OrientationProblem(
            edges=[(1, "a"), ("a", (2, 3)), ((2, 3), 1.5), (1.5, "b")],
            nodes=["iso"],
        )
    else:  # edgeless
        problem = OrientationProblem(edges=[], nodes=["a", "b", 3])
    return CompactGraph.from_orientation_problem(problem)


def _views(graph: CompactGraph):
    return {name: memoryview(buf) for name, buf in graph.snapshot_sections().items()}


class TestFromBuffers:
    """``from_buffers`` rebuilds a graph over CSR buffers it does not own."""

    @pytest.mark.parametrize("kind", ["gnp", "mixed", "edgeless"])
    def test_round_trip_preserves_every_buffer(self, kind):
        graph = _buffer_graph(kind)
        rebuilt = CompactGraph.from_buffers(graph.node_ids, _views(graph))
        assert rebuilt.node_ids == graph.node_ids
        assert rebuilt.index_of == graph.index_of
        assert rebuilt.num_nodes == graph.num_nodes
        assert rebuilt.num_edges == graph.num_edges
        for name in CSR_FIELDS:
            assert list(getattr(rebuilt, name)) == list(getattr(graph, name)), name
        assert rebuilt.edge_keys() == graph.edge_keys()
        assert rebuilt.to_orientation_problem() == graph.to_orientation_problem()

    @pytest.mark.parametrize("tie_break", ["min", "max", "random"])
    def test_rebuilt_graph_solves_identically(self, tie_break):
        graph = _buffer_graph("gnp")
        rebuilt = CompactGraph.from_buffers(graph.node_ids, _views(graph))
        got = stable_orientation_kernel(rebuilt, tie_break=tie_break, seed=9)
        assert got == stable_orientation_kernel(graph, tie_break=tie_break, seed=9)

    def test_round_trip_through_a_snapshot_file(self, tmp_path):
        graph = _buffer_graph("gnp")
        path = tmp_path / "graph.snap"
        write_array_snapshot(path, graph.snapshot_sections(), meta={"n": 30})
        with ArraySnapshot(path) as snap:
            assert snap.section_names() == CSR_FIELDS
            sections = {name: snap.section(name) for name in CSR_FIELDS}
            rebuilt = CompactGraph.from_buffers(graph.node_ids, sections)
            # Zero copy: the graph reads the mapping's views directly.
            assert all(
                getattr(rebuilt, name) is sections[name] for name in CSR_FIELDS
            )
            expected = stable_orientation_kernel(graph, seed=1)
            assert stable_orientation_kernel(rebuilt, seed=1) == expected

    @pytest.mark.parametrize("missing", CSR_FIELDS)
    def test_missing_section_raises(self, missing):
        graph = _buffer_graph("gnp")
        sections = _views(graph)
        del sections[missing]
        with pytest.raises(SnapshotError, match="missing CSR sections"):
            CompactGraph.from_buffers(graph.node_ids, sections)

    def test_indptr_must_match_the_node_count(self):
        graph = _buffer_graph("gnp")
        with pytest.raises(SnapshotError, match="indptr"):
            CompactGraph.from_buffers(graph.node_ids[:-1], _views(graph))

    @pytest.mark.parametrize("short", ["indices", "slot_edge", "edge_u", "edge_v"])
    def test_inconsistent_edge_sections_raise(self, short):
        graph = _buffer_graph("gnp")
        sections = _views(graph)
        sections[short] = sections[short][:-1]
        with pytest.raises(SnapshotError, match="inconsistent"):
            CompactGraph.from_buffers(graph.node_ids, sections)

    def test_rebuilt_graph_starts_with_empty_memos(self):
        graph = _buffer_graph("mixed")
        graph.edge_keys()
        graph.edge_index(1, "a")
        rebuilt = CompactGraph.from_buffers(graph.node_ids, _views(graph))
        assert rebuilt.derived == {}
        assert rebuilt._edge_index is None
        for e, (u, v) in enumerate(graph.edge_keys()):
            assert rebuilt.edge_index(v, u) == e


class TestCompactBipartite:
    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_is_lossless(self, seed):
        graph = random_bipartite_customer_server(25, 8, 3, seed=seed, server_skew=1.0)
        compact = CompactBipartite.from_customer_server_graph(graph)
        compact._graph = None  # force a rebuild instead of the cache
        assert compact.to_customer_server_graph() == graph

    def test_generator_emits_identical_compact_instance(self):
        reference = random_bipartite_customer_server(25, 8, 3, seed=4, server_skew=1.0)
        compact = random_bipartite_customer_server(
            25, 8, 3, seed=4, server_skew=1.0, compact=True
        )
        assert isinstance(compact, CompactBipartite)
        assert compact.to_customer_server_graph() == reference

    def test_csr_structure_matches_reference(self):
        graph = random_bipartite_customer_server(20, 6, 2, seed=3)
        compact = CompactBipartite.from_customer_server_graph(graph)
        assert compact.customer_ids == graph.customers
        assert compact.server_ids == graph.servers
        assert compact.num_edges == graph.num_edges()
        for ci, customer in enumerate(compact.customer_ids):
            servers = {compact.server_ids[si] for si in compact.servers_of(ci)}
            assert servers == set(graph.servers_of(customer))
        for si, server in enumerate(compact.server_ids):
            customers = {compact.customer_ids[ci] for ci in compact.customers_of(si)}
            assert customers == set(graph.customers_of(server))

    def test_rows_are_sorted_by_dense_id(self):
        compact = random_bipartite_customer_server(30, 10, 4, seed=7, compact=True)
        for ci in range(compact.num_customers):
            row = list(compact.servers_of(ci))
            assert row == sorted(row)

    @pytest.mark.parametrize(
        "customers, servers, edges",
        [
            (["x"], ["x"], [("x", "x")]),
            (["c"], ["s"], [("c", "s"), ("c", "s")]),
            (["c"], ["s"], [("c", "unknown")]),
            (["c", "lonely"], ["s"], [("c", "s")]),
            (["c"], ["s"], [("missing", "s")]),
            (["c"], ["s"], [("c", "s", "extra")]),
        ],
        ids=[
            "overlap",
            "duplicate",
            "unknown-server",
            "isolated-customer",
            "unknown-customer",
            "malformed-edge",
        ],
    )
    def test_from_edges_validation(self, customers, servers, edges):
        # The compact and reference constructors reject the same inputs.
        with pytest.raises(BipartiteGraphError):
            CompactBipartite.from_edges(customers, servers, edges)
        with pytest.raises(BipartiteGraphError):
            CustomerServerGraph(customers, servers, edges)

    @pytest.mark.parametrize(
        "customers, servers, edges",
        [
            (["c1", "c2"], ["s1", "s2"], [("c1", "s1"), ("c2", "s1"), ("c2", "s2")]),
            (["c1"], ["s1"], [("c1", "s1")]),
            (
                [1, "c", (2, 3)],
                ["s1", 9],
                [(1, "s1"), ("c", 9), ((2, 3), "s1"), ((2, 3), 9)],
            ),
            ([], [], []),
            (["c"], ["s", "spare"], [("c", "s")]),
        ],
        ids=[
            "two-by-two",
            "single-edge",
            "mixed-type-ids",
            "empty-sides",
            "isolated-server",
        ],
    )
    def test_validation_matches_reference_constructor(self, customers, servers, edges):
        # The compact and reference constructors accept the same inputs.
        compact = CompactBipartite.from_edges(customers, servers, edges)
        reference = CustomerServerGraph(customers, servers, edges)
        assert compact.to_customer_server_graph() == reference
        assert compact.customer_ids == reference.customers
        assert compact.server_ids == reference.servers
        for si, server in enumerate(compact.server_ids):
            assert compact.server_degree(si) == len(reference.customers_of(server))
