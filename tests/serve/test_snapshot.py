"""Snapshot/restore of the serving state: bit-for-bit and mmap-backed.

The acceptance contract: snapshot → restore → serve round-trips the
orientation, the loads, and the unhappy set bit-for-bit, *and* the
restored engine replays any future delta stream identically (the seed
stream position is part of the state).
"""

from __future__ import annotations

import pytest

from repro.core.orientation import DynamicOrientation
from repro.graphs.compact import (
    ArraySnapshot,
    CompactGraph,
    SnapshotError,
    write_array_snapshot,
)
from repro.serve.snapshot import STATE_KIND, load_state, save_state
from repro.workloads import churn_smoke, churn_smoke_trace
from repro.workloads.scenarios import scale_layered_orientation

pytestmark = pytest.mark.integration


def _solved_engine(updates: int = 0):
    instance = churn_smoke(compact=True)
    engine = DynamicOrientation(instance, seed=5)
    trace = list(churn_smoke_trace(instance))
    if updates:
        engine.apply_batch(trace[:updates])
    return engine, trace


def _full_state(dynamic):
    graph, heads, load = dynamic.solved_arrays()
    return (
        tuple(graph.node_ids),
        list(graph.indptr),
        list(graph.indices),
        list(graph.slot_edge),
        list(graph.edge_u),
        list(graph.edge_v),
        list(heads),
        list(load),
        sorted(map(repr, dynamic.unhappy_edges())),
        dynamic.seed,
        dynamic.updates_applied,
    )


class TestRoundTrip:
    @pytest.mark.parametrize("updates", [0, 60])
    def test_bit_for_bit(self, tmp_path, updates):
        engine, _ = _solved_engine(updates)
        path = tmp_path / "state.rprosnp"
        meta = save_state(engine, path)
        assert meta["kind"] == STATE_KIND
        assert meta["updates_applied"] == updates
        restored = load_state(path)
        assert _full_state(restored) == _full_state(engine)

    def test_restored_engine_replays_the_same_future(self, tmp_path):
        engine, trace = _solved_engine(60)
        path = tmp_path / "state.rprosnp"
        save_state(engine, path)
        restored = load_state(path)
        for delta in trace[60:120]:
            assert restored.apply(delta) == engine.apply(delta)
        assert restored.loads() == engine.loads()
        assert not restored.unhappy_edges()

    def test_restored_engine_accepts_batches(self, tmp_path):
        engine, trace = _solved_engine(30)
        path = tmp_path / "state.rprosnp"
        save_state(engine, path)
        restored = load_state(path)
        assert restored.apply_batch(trace[30:60]) == engine.apply_batch(
            trace[30:60]
        )

    def test_dense_int_ids_use_the_range_encoding(self, tmp_path):
        # Interning is repr-sorted, so ids 0..9 land in numeric order and
        # the compact range shortcut applies.
        graph = CompactGraph.from_edges(
            [(i, (i + 1) % 10) for i in range(10)], nodes=range(10)
        )
        engine = DynamicOrientation(graph, seed=2)
        path = tmp_path / "dense.rprosnp"
        meta = save_state(engine, path)
        assert meta["node_ids"] == {"encoding": "range", "n": graph.num_nodes}
        restored = load_state(path)
        assert _full_state(restored) == _full_state(engine)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: scale_layered_orientation(
                num_levels=6, width=40, edge_probability=0.05, seed=2
            ),
            # Ids equal to 0..n-1 that are not ints must keep their type.
            lambda: CompactGraph.from_edges([(False, True)]),
            lambda: CompactGraph.from_edges([(0.0, 1.0), (1.0, 2.0)]),
        ],
        ids=["scale-family", "bools", "floats"],
    )
    def test_non_range_ids_round_trip_via_repr_encoding(self, tmp_path, build):
        graph = build()
        engine = DynamicOrientation(graph, seed=2)
        path = tmp_path / "ids.rprosnp"
        meta = save_state(engine, path)
        assert meta["node_ids"]["encoding"] == "repr"
        restored = load_state(path)
        assert _full_state(restored) == _full_state(engine)
        restored_ids = restored.solved_arrays()[0].node_ids
        assert list(map(type, restored_ids)) == list(map(type, graph.node_ids))
        u, v = graph.edge_keys()[0]
        head = engine.head_of(u, v)
        assert repr(restored.head_of(u, v)) == repr(head)

    def test_validate_false_skips_the_stability_check(self, tmp_path):
        engine, _ = _solved_engine(10)
        path = tmp_path / "state.rprosnp"
        save_state(engine, path)
        restored = load_state(path, validate=False)
        assert restored.loads() == engine.loads()


class TestFileFormat:
    def test_snapshot_is_mmap_backed(self, tmp_path):
        engine, _ = _solved_engine(0)
        path = tmp_path / "state.rprosnp"
        save_state(engine, path)
        restored = load_state(path)
        graph = restored.solved_arrays()[0]
        # The CSR buffers are views into the mapping, not copies.
        assert isinstance(graph.indptr, memoryview)
        assert restored._snapshot is not None

    def test_wrong_kind_rejected(self, tmp_path):
        from array import array

        path = tmp_path / "other.rprosnp"
        write_array_snapshot(
            path, {"xs": array("q", [1, 2, 3])}, meta={"kind": "other/thing"}
        )
        with pytest.raises(SnapshotError):
            load_state(path)

    def test_truncated_file_rejected(self, tmp_path):
        engine, _ = _solved_engine(0)
        path = tmp_path / "state.rprosnp"
        save_state(engine, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 16])
        with pytest.raises(SnapshotError):
            load_state(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.rprosnp"
        path.write_bytes(b"NOTASNAP" + b"\x00" * 64)
        with pytest.raises(SnapshotError):
            ArraySnapshot(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.rprosnp"
        path.write_bytes(b"")
        with pytest.raises(SnapshotError):
            ArraySnapshot(path)

    def test_array_snapshot_context_manager(self, tmp_path):
        engine, _ = _solved_engine(0)
        path = tmp_path / "state.rprosnp"
        save_state(engine, path)
        with ArraySnapshot(path) as snap:
            assert snap.meta["kind"] == STATE_KIND
            assert "heads" in snap.section_names()
            assert len(snap.section("load")) == engine.num_nodes
