"""End-to-end serving tests: queries, coalescing, snapshots, shutdown.

Runs a real :class:`ServerThread` + :class:`ServeClient` pair over
loopback TCP for every test, so the asyncio plumbing, the frame codec,
and the coalescing updater are all exercised exactly as deployed.  The
coalescing-semantics cases assert the served state bit-for-bit against a
local :class:`DynamicOrientation` applying the identical uncoalesced
trace — the server must add *no* semantics of its own.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.orientation import (
    DynamicOrientation,
    EdgeDelete,
    EdgeInsert,
    NodeJoin,
    NodeLeave,
)
from repro.serve import ServeClient, ServeConfig, ServeError, ServerThread, connect
from repro.workloads import churn_smoke, churn_smoke_trace

pytestmark = pytest.mark.integration


def _instance():
    return churn_smoke(compact=True)


def _engine(instance=None, seed=5):
    return DynamicOrientation(instance or _instance(), seed=seed)


@pytest.fixture()
def served():
    """A (server thread, client, engine) triple over a fresh solved engine."""
    engine = _engine()
    with ServerThread(engine, ServeConfig()) as thread:
        with connect(thread.address) as client:
            yield thread, client, engine


class TestQueries:
    def test_ping_and_stats(self, served):
        _, client, engine = served
        assert client.ping()
        stats = client.stats()
        assert stats["num_nodes"] == engine.num_nodes
        assert stats["num_edges"] == engine.num_edges
        assert stats["updates_applied"] == 0
        assert stats["backend"] == "compact"
        assert stats["coalescing_ratio"] is None

    def test_point_queries_match_the_engine(self, served):
        _, client, engine = served
        graph = engine.solved_arrays()[0]
        for e in range(0, graph.num_edges, graph.num_edges // 7):
            u = graph.node_ids[graph.edge_u[e]]
            v = graph.node_ids[graph.edge_v[e]]
            assert client.assignment_of(u, v) == engine.head_of(u, v)
            assert client.load_of(u) == engine.load_of(u)

    def test_unknown_node_is_an_error_not_a_crash(self, served):
        _, client, _ = served
        with pytest.raises(ServeError):
            client.load_of(("no-such-node", 1))
        with pytest.raises(ServeError):
            client.assignment_of(("a", 1), ("b", 2))
        assert client.ping()  # connection survives the error

    def test_unknown_op_is_an_error(self, served):
        _, client, _ = served
        response = client.request({"op": "frobnicate"})
        assert response["ok"] is False and "unknown op" in response["error"]

    def test_tuple_node_ids_round_trip_the_wire(self, served):
        _, client, engine = served
        node = engine.solved_arrays()[0].node_ids[0]
        assert isinstance(node, tuple)
        assert client.load_of(node) == engine.load_of(node)


class TestUpdates:
    def test_updates_match_local_apply_batch_bit_for_bit(self, served):
        _, client, engine = served
        reference = _engine()
        trace = list(churn_smoke_trace(_instance()))[:45]
        for lo in range(0, 45, 9):
            chunk = trace[lo : lo + 9]
            receipt = client.update(chunk)
            reference.apply_batch(chunk)
            assert receipt["applied"] == len(chunk)
        assert engine.loads() == reference.loads()
        assert engine.updates_applied == reference.updates_applied == 45
        assert not engine.unhappy_edges()

    def test_delete_then_insert_same_edge_in_one_request(self, served):
        _, client, engine = served
        reference = _engine()
        graph = _instance()
        u = graph.node_ids[graph.edge_u[0]]
        v = graph.node_ids[graph.edge_v[0]]
        batch = [EdgeDelete(u, v), EdgeInsert(u, v)]
        receipt = client.update(batch)
        assert receipt["applied"] == 2
        reference.apply_batch(batch)
        assert engine.loads() == reference.loads()
        assert client.assignment_of(u, v) == reference.head_of(u, v)

    def test_empty_batch_is_a_served_noop(self, served):
        _, client, engine = served
        before = engine.loads()
        receipt = client.update([])
        assert receipt["applied"] == 0
        assert receipt["updates_applied"] == 0
        assert engine.loads() == before
        assert client.stats()["updates_applied"] == 0

    def test_node_leave_racing_queued_queries(self, served):
        _, client, engine = served
        node = ("racer", 1)
        client.update([NodeJoin(node, ((0, 0), (0, 1)))])
        assert client.load_of(node) >= 0

        errors = []
        loads = []

        def hammer():
            with connect(served[0].address) as c2:
                for _ in range(50):
                    try:
                        loads.append(c2.load_of(node))
                    except ServeError as exc:
                        errors.append(str(exc))

        racer = threading.Thread(target=hammer)
        racer.start()
        client.update([NodeLeave(node)])
        racer.join(timeout=30)
        assert not racer.is_alive()
        # Every racing query either saw the live node or got a clean error;
        # afterwards the node is gone and the state is stable.
        assert all(value >= 0 for value in loads)
        with pytest.raises(ServeError):
            client.load_of(node)
        assert not engine.unhappy_edges()

    def test_invalid_delta_fails_the_request_cleanly(self, served):
        _, client, engine = served
        with pytest.raises(ServeError):
            client.update([EdgeDelete(("ghost", 1), ("ghost", 2))])
        assert client.ping()
        assert not engine.unhappy_edges()

    def test_failed_batch_restabilizes_its_applied_prefix(self, served):
        _, client, engine = served
        node = ("prefix", 1)
        with pytest.raises(ServeError):
            client.update(
                [
                    NodeJoin(node, ((0, 0),)),
                    EdgeDelete(("ghost", 1), ("ghost", 2)),
                ]
            )
        # The join landed before the failure and was re-stabilized.
        assert client.load_of(node) >= 0
        assert not engine.unhappy_edges()


class TestHostileInput:
    """Bad requests get ``ok: false``; the connection and updater survive."""

    @pytest.mark.parametrize(
        "request_",
        [
            {"op": "load-of", "node": {"a": 1}},
            {"op": "assignment-of", "u": {"a": 1}, "v": [0, 0]},
            {
                "op": "update",
                "deltas": [{"kind": "node-leave", "node": [0, {"a": 1}]}],
            },
            {"op": "assignment-of", "u": [0, 0], "v": {"a": 1}},
            {
                "op": "update",
                "deltas": [{"kind": "edge-insert", "u": {"a": 1}, "v": [0, 0]}],
            },
            {
                "op": "update",
                "deltas": [{"kind": "edge-delete", "u": [0, 0], "v": {"a": 1}}],
            },
            {
                "op": "update",
                "deltas": [{"kind": "node-join", "node": {"a": 1}, "attach": []}],
            },
            {
                "op": "update",
                "deltas": [
                    {"kind": "node-join", "node": ["x", 1], "attach": [{"a": 1}]}
                ],
            },
        ],
        ids=[
            "load-of",
            "assignment-of",
            "update",
            "assignment-of-v",
            "edge-insert",
            "edge-delete",
            "node-join",
            "node-join-attach",
        ],
    )
    def test_unhashable_node_id_is_an_error_not_a_disconnect(
        self, served, request_
    ):
        _, client, _ = served
        response = client.request(request_)
        assert response["ok"] is False
        assert client.ping()  # same connection, still usable

    @pytest.mark.parametrize(
        "deltas",
        [
            {"kind": "node-leave", "node": [0, 0]},
            [[0, 1]],
            [{"kind": "edge-teleport", "u": [0, 0], "v": [0, 1]}],
            [{"kind": "edge-insert", "u": [0, 0]}],
            [{"kind": "node-join", "node": ["x", 1], "attach": "0"}],
        ],
        ids=[
            "deltas-not-a-list",
            "delta-not-an-object",
            "unknown-kind",
            "missing-field",
            "attach-not-a-list",
        ],
    )
    def test_malformed_update_leaves_the_updater_running(self, served, deltas):
        _, client, engine = served
        response = client.request({"op": "update", "deltas": deltas})
        assert response["ok"] is False
        assert "error" in response
        receipt = client.update([NodeJoin(("after", 1), ((0, 0),))])
        assert receipt["applied"] == 1
        assert client.load_of(("after", 1)) >= 0
        assert not engine.unhappy_edges()

    def test_self_loop_update_does_not_kill_the_updater(self):
        engine = _engine()
        thread = ServerThread(engine, ServeConfig()).start()
        with connect(thread.address) as client:
            response = client.request(
                {
                    "op": "update",
                    "deltas": [{"kind": "edge-insert", "u": [0, 0], "v": [0, 0]}],
                }
            )
            assert response["ok"] is False
            assert "self-loop" in response["error"]
            receipt = client.update([NodeJoin(("after", 1), ((0, 0),))])
            assert receipt["applied"] == 1
            assert client.load_of(("after", 1)) >= 0
        thread.stop()  # must not re-raise an updater failure
        assert not thread._thread.is_alive()
        assert not engine.unhappy_edges()

    def test_unexpected_engine_error_fails_only_its_batch(self, monkeypatch):
        engine = _engine()
        real_apply_batch = engine.apply_batch
        calls = []

        def flaky_apply_batch(deltas):
            calls.append(len(deltas))
            if len(calls) == 1:
                raise RuntimeError("engine blew up")
            return real_apply_batch(deltas)

        monkeypatch.setattr(engine, "apply_batch", flaky_apply_batch)
        thread = ServerThread(engine, ServeConfig()).start()
        with connect(thread.address) as client:
            with pytest.raises(ServeError, match="engine blew up"):
                client.update([NodeJoin(("first", 1), ())])
            receipt = client.update([NodeJoin(("second", 1), ((0, 0),))])
            assert receipt["applied"] == 1
            assert client.load_of(("second", 1)) >= 0
        thread.stop()
        assert not thread._thread.is_alive()
        assert calls == [1, 1]


class TestCoalescing:
    def test_concurrent_updates_coalesce(self):
        engine = _engine()
        trace = list(churn_smoke_trace(_instance()))[:64]
        config = ServeConfig(max_batch=256, coalesce_ms=20.0)
        with ServerThread(engine, config) as thread:
            receipts = []
            lock = threading.Lock()

            def submit(chunk):
                with connect(thread.address) as client:
                    receipt = client.update(chunk)
                    with lock:
                        receipts.append(receipt)

            threads = [
                threading.Thread(target=submit, args=(trace[lo : lo + 8],))
                for lo in range(0, 64, 8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            with connect(thread.address) as client:
                stats = client.stats()
        assert stats["updates_applied"] == 64
        assert stats["counters"]["update_requests"] == 8
        # The gathering window must have merged at least one pair of
        # requests into a shared re-stabilization.
        assert stats["counters"]["batches"] < 8
        assert stats["coalescing_ratio"] > 8.0
        assert any(r["batch_requests"] > 1 for r in receipts)
        assert not engine.unhappy_edges()

    def test_max_batch_caps_one_drain(self):
        engine = _engine()
        config = ServeConfig(max_batch=4, coalesce_ms=0.0)
        trace = list(churn_smoke_trace(_instance()))[:12]
        with ServerThread(engine, config) as thread:
            with connect(thread.address) as client:
                receipt = client.update(trace)
        # A single oversized request is still applied whole, in one batch.
        assert receipt["applied"] == 12
        assert receipt["batch_requests"] == 1
        assert engine.updates_applied == 12


class TestSnapshotOp:
    def test_snapshot_then_restore_serves_identically(self, served, tmp_path):
        from repro.serve import load_state

        _, client, engine = served
        trace = list(churn_smoke_trace(_instance()))[:30]
        client.update(trace)
        path = tmp_path / "served.rprosnp"
        receipt = client.snapshot(path)
        assert receipt["bytes"] > 0
        restored = load_state(path)
        with ServerThread(restored, ServeConfig()) as thread2:
            with connect(thread2.address) as client2:
                assert client2.stats()["updates_applied"] == 30
                graph = engine.solved_arrays()[0]
                u = graph.node_ids[graph.edge_u[0]]
                v = graph.node_ids[graph.edge_v[0]]
                assert client2.assignment_of(u, v) == client.assignment_of(u, v)
                assert client2.load_of(u) == client.load_of(u)

    def test_snapshot_to_bad_path_is_an_error(self, served, tmp_path):
        _, client, _ = served
        with pytest.raises(ServeError):
            client.snapshot(tmp_path / "missing-dir" / "x.rprosnp")
        assert client.ping()


class TestLifecycle:
    def test_shutdown_op_stops_the_server(self):
        engine = _engine()
        thread = ServerThread(engine, ServeConfig()).start()
        with connect(thread.address) as client:
            response = client.shutdown()
            assert response["stopping"]
        thread.stop()
        assert not thread._thread.is_alive()
        with pytest.raises(OSError):
            ServeClient(thread.address[0], thread.address[1], timeout=2).ping()

    def test_several_clients_share_one_server(self, served):
        thread, client, engine = served
        others = [connect(thread.address) for _ in range(4)]
        try:
            assert all(c.ping() for c in others)
            assert {c.stats()["num_nodes"] for c in others} == {engine.num_nodes}
        finally:
            for c in others:
                c.close()
        assert client.ping()
