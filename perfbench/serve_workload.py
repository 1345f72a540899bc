"""The served workloads: ``serve-read`` and ``serve-mixed``.

The server is the deployment path, ``python -m repro serve --family
scale-layered --params <json> --seed <seed>``, in its own process with
the default ``ServeConfig``.  The load generator is this process: one
connection for ``serve-read``, two threads with one connection each for
``serve-mixed``.  Both loops are closed: a connection sends its next
request when the previous answer arrives.  The server runs on the
benchmark's one CPU (see ``run.py``), beside the load generator.

* ``serve-read``: half ``load-of`` on uniform nodes, half
  ``assignment-of`` on uniform edges.  Bursts of 1200 16-delta ``update``
  requests to idle servers give the workload its update figures: one to
  each cold-start probe, and one to the serving server after its read
  window and snapshots.
* ``serve-mixed``: a writer sends 16-delta ``update`` requests taken in
  order from a seeded ``churn_trace(mix="mixed")`` while a reader sends
  the read mix over the nodes and edges the trace never removes.

Every run then snapshots the live server (``snapshot`` op, timed),
stops it, and restarts ``repro serve --from-snapshot`` (timed to its
``listening on`` line, twice).  Set-up time is server launch to ``listening
on``, the median of three cold starts.

Every timed stage runs between two host-speed probes and the measured
window runs in one-second slices with probes between them; timings are
reported at the reference speed (:mod:`hostspeed`), each p99 as the
median of the slices' p99s, and the raw figures are printed beside them.

Output checks, outside the timed windows: every read answer of
``serve-read`` equals a local ``repro.solve(algorithm="repair")`` with
the server's seed, and so does its snapshot, bit for bit; every update
is acknowledged in full; the server's ``stats`` counters equal the
client's counts; the final snapshot of ``serve-mixed`` equals, bit for
bit, a local engine that applied the same 16-delta chunks with
``apply_batch``; the restarted servers answer like the local engine.
"""

from __future__ import annotations

import gc
import json
import random
import subprocess
import sys
import threading
import time

from common import (
    CHUNK,
    OUT,
    ROOT,
    arrays_equal,
    child_env,
    cpu_seconds,
    instance_params,
    median,
    percentile,
    slice_p99,
    trace_length,
    vm_hwm_mb,
)
from hostspeed import HostSpeed, Timings

#: Seconds of each slice of the measured window; a host-speed probe runs
#: between slices.
SLICE_S = 1.0
#: Cold starts per run (the serving one included) and restarts from snapshot.
SETUP_REPEATS = 3
RESTORE_REPEATS = 2
SNAPSHOT_REPEATS = 2
#: Local reference builds and solves per run; build_s and solve_s are
#: their medians.
LOCAL_REPEATS = 3
#: Update requests in each of ``serve-read``'s idle-server bursts; every
#: cold-started server receives the same ones.
PROBE_UPDATES = 1200
#: ``serve-mixed`` trace length as a share of the node count (10^5 deltas
#: at 10^5 nodes, about the server's updates in an 8 s window); the window
#: ends early if the writer exhausts it.
MIXED_TRACE_SHARE = 1.0
#: Distinct read requests drawn per run; the read loops cycle through them.
READ_POOL = 1 << 16
#: Reads checked against the local engine on each restarted server.
RESTART_CHECKS = 200
START_TIMEOUT = 60.0
CLIENT_TIMEOUT = 30.0


class ServerProcess:
    """One ``repro serve`` process, from launch to a confirmed exit."""

    def __init__(self, serve_args, dump=None, wrong_loads=0) -> None:
        if dump is None:
            argv = [sys.executable, "-m", "repro"] + list(serve_args)
        else:
            argv = [
                sys.executable, str(ROOT / "perfbench" / "serve_launcher.py"),
                "--dump", str(dump), "--wrong-loads", str(wrong_loads), "--",
            ] + list(serve_args)
        self.argv = argv
        self.proc = None
        self.address = None
        self._listening = threading.Event()
        self._drain = None

    def start(self) -> tuple:
        """Launch and wait for ``listening on``; returns when each happened."""
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT
        )
        self._drain = threading.Thread(target=self._read_stdout, daemon=True)
        self._drain.start()
        if not self._listening.wait(START_TIMEOUT) or self.address is None:
            raise RuntimeError(f"server did not start listening: {self.argv}")
        return start, time.perf_counter()

    def _read_stdout(self) -> None:
        for line in self.proc.stdout:
            if line.startswith("listening on") and not self._listening.is_set():
                host, port = line.split()[-1].rsplit(":", 1)
                self.address = (host, int(port))
                self._listening.set()
        self._listening.set()

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        """Shut the server down cleanly, or kill it; always waits for exit."""
        if self.proc is None:
            return
        try:
            if self.proc.poll() is None and self.address is not None:
                from repro.serve import ServeClient

                with ServeClient(*self.address, timeout=CLIENT_TIMEOUT) as client:
                    client.shutdown()
                self.proc.wait(timeout=60)
        except (OSError, RuntimeError, subprocess.TimeoutExpired, ValueError):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            if self._drain is not None:
                self._drain.join(timeout=30)
            self.proc.stdout.close()


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
class Loop:
    """Round trips of one closed-loop connection, run in slices.

    Each :meth:`run` is one slice; :meth:`scale` then scales all round
    trips to the reference speed.  ``keep`` reduces each response to the
    value the checks need (``None`` for an ``ok: false`` answer), so the
    loop retains no response objects for the generator's own collector
    to walk while it times requests.
    """

    def __init__(self, keep) -> None:
        self.keep = keep
        #: Round trips in seconds, raw and at reference speed.
        self.latencies: list = []
        self.scaled: list = []
        #: ``(first, end)`` sample indices of each slice, and its interval.
        self.slices: list = []
        self.spans: list = []
        self.values: list = []
        self.errors: list = []
        #: Seconds spent sending, raw and at reference speed.
        self.busy = 0.0
        self.busy_scaled = 0.0
        #: The payloads ran out (or the connection failed).
        self.exhausted = False

    def run(self, client, payloads, keep_going) -> None:
        """Send from the iterator ``payloads`` while ``keep_going()`` holds.

        A payload is drawn only when it will be sent, so the next slice
        continues where this one stopped.
        """
        request, keep = client.request, self.keep
        lat, out = self.latencies, self.values
        clock = time.perf_counter
        first, began = len(lat), clock()
        try:
            while keep_going():
                payload = next(payloads, None)
                if payload is None:
                    self.exhausted = True
                    break
                t = clock()
                response = request(payload)
                lat.append(clock() - t)
                out.append(keep(response))
        except (OSError, ValueError) as exc:  # timeouts, resets, bad frames
            self.errors.append(repr(exc))
            self.exhausted = True
        ended = clock()
        self.busy += ended - began
        if len(lat) > first:
            self.slices.append((first, len(lat)))
            self.spans.append((began, ended))

    def record(self) -> list:
        """Each slice's interval, raw p50 and p99 and size, for the record."""
        return [
            (began, ended, median(self.latencies[a:b]),
             percentile(self.latencies[a:b], 99), b - a)
            for (began, ended), (a, b) in zip(self.spans, self.slices)
        ]

    def scale(self, factor: float) -> None:
        """Scale every round trip by a host-speed factor."""
        self.scaled = [x * factor for x in self.latencies]
        self.busy_scaled = self.busy * factor

    @classmethod
    def merged(cls, loops) -> "Loop":
        """One loop holding the samples and slices of ``loops`` in order."""
        whole = cls(None)
        for loop in loops:
            offset = len(whole.latencies)
            whole.latencies.extend(loop.latencies)
            whole.scaled.extend(loop.scaled)
            whole.values.extend(loop.values)
            whole.slices.extend((a + offset, b + offset) for a, b in loop.slices)
            whole.spans.extend(loop.spans)
            whole.busy += loop.busy
            whole.busy_scaled += loop.busy_scaled
        return whole

    def summary(self, scale: float) -> dict:
        """p50 of all scaled round trips and the median of slice p99s."""
        return {
            "p50": median(self.scaled) * scale,
            "p99": slice_p99(self.scaled, self.slices) * scale,
            "samples": len(self.scaled),
        }


def _read_value(response):
    """A read's answer, or ``None`` when the server said ``ok: false``."""
    if not response.get("ok"):
        return None
    return response["load"] if "load" in response else response.get("head")


def _applied(response):
    """Deltas an update applied, or ``None`` when it was refused."""
    return response.get("applied") if response.get("ok") else None


def _settle() -> None:
    """Collect, then freeze, the load generator's heap before a timed phase.

    The generator's own collector then skips the instance and payloads it
    holds, so its pauses stay out of the round trips; the server's
    collector is untouched.
    """
    gc.collect()
    gc.freeze()


def _cycle(pool):
    while True:
        yield from pool


def _read_payloads(graph, rng, nodes, edges, count):
    ids = graph.node_ids
    eu, ev = graph.edge_u, graph.edge_v
    pool = []
    for i in range(count):
        if i % 2 == 0:
            node = ids[nodes[rng.randrange(len(nodes))]]
            pool.append({"op": "load-of", "node": node})
        else:
            e = edges[rng.randrange(len(edges))]
            pool.append({"op": "assignment-of", "u": ids[eu[e]], "v": ids[ev[e]]})
    return pool


def _expected(engine_or_solved, payload):
    """The answer a correct server gives to one read payload."""
    if payload["op"] == "load-of":
        return engine_or_solved.load_of(payload["node"])
    return engine_or_solved.head_of(payload["u"], payload["v"])


class _SolvedView:
    """``load_of``/``head_of`` over a local ``Solved`` (the read-check oracle)."""

    def __init__(self, solved) -> None:
        self.solved = solved
        self.index_of = solved.instance.graph.index_of

    def load_of(self, node):
        return self.solved.load[self.index_of[node]]

    def head_of(self, u, v):
        return self.solved.head_of(u, v)


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
class _Inputs:
    """Everything drawn from the workload seed, made before any timing."""

    def __init__(self, repro, workload, seed, size, tally, timings) -> None:
        from repro.core.orientation.incremental import EdgeDelete, NodeLeave
        from repro.serve import delta_to_wire
        from repro.workloads.churn import churn_trace

        self.repro = repro
        self.params = instance_params(size, seed)
        self.build(tally, timings)
        graph = self.instance.graph
        if workload == "serve-mixed":
            wanted = int(MIXED_TRACE_SHARE * graph.num_nodes)
            length = trace_length(graph.num_nodes, wanted, MIXED_TRACE_SHARE)
        else:
            length = trace_length(graph.num_nodes, PROBE_UPDATES * CHUNK, 0.25)
        trace = churn_trace(graph, num_updates=length, seed=seed, mix="mixed")
        self.chunks = [trace[i : i + CHUNK] for i in range(0, len(trace), CHUNK)]
        self.updates = [
            {"op": "update", "deltas": [delta_to_wire(d) for d in chunk]}
            for chunk in self.chunks
        ]
        # Nodes and edges the trace never removes: reads of them always
        # have a defined answer, before and after the churn.
        index_of = graph.index_of
        left = {
            index_of[d.node]
            for d in trace
            if isinstance(d, NodeLeave) and d.node in index_of
        }
        eu, ev = graph.edge_u, graph.edge_v
        keys = {(eu[e], ev[e]): e for e in range(graph.num_edges)}
        deleted = set()
        for d in trace:
            if isinstance(d, EdgeDelete) and d.u in index_of and d.v in index_of:
                u, v = index_of[d.u], index_of[d.v]
                e = keys.get((u, v), keys.get((v, u)))
                if e is not None:
                    deleted.add(e)
        self.kept_nodes = [i for i in range(graph.num_nodes) if i not in left]
        self.kept_edges = [
            e for e in range(graph.num_edges)
            if e not in deleted and eu[e] not in left and ev[e] not in left
        ]
        rng = random.Random(f"{seed}:reads")
        if workload == "serve-mixed":
            nodes, edges = self.kept_nodes, self.kept_edges
        else:
            nodes, edges = range(graph.num_nodes), range(graph.num_edges)
        self.reads = _read_payloads(graph, rng, nodes, edges, READ_POOL)
        self.restart_reads = _read_payloads(
            graph, rng, self.kept_nodes, self.kept_edges, RESTART_CHECKS
        )

    def build(self, tally, timings) -> None:
        """(Re)build the local instance, timing it as one build_s sample."""
        self.instance = None
        t = timings.speed.probe()
        self.instance = self.repro.Instance.build("scale-layered", **self.params)
        timings.add("build_s", t, time.perf_counter())
        timings.speed.probe()
        tally.ok()


def _timed_start(server, timings, name) -> None:
    """Start ``server`` between two probes; record its set-up as ``name``."""
    timings.speed.probe()
    launched, ready = server.start()
    timings.speed.probe()
    if name is not None:
        timings.add(name, launched, ready)


def _serve_args(inputs, seed):
    return [
        "serve", "--family", "scale-layered",
        "--params", json.dumps(inputs.params), "--seed", str(seed),
    ]


def _window(server, inputs, workload, seconds, tally, speed):
    """The measured window against a started server; returns its loops.

    The window runs in slices of :data:`SLICE_S` with a host-speed probe
    between slices, while no request is in flight; one factor, from the
    window's probes and those near it, scales all its round trips.  A
    round trip follows the probes only loosely, slice by slice, so the
    factor is the window's.
    """
    from repro.serve import ServeClient

    _settle()
    reader, writer = Loop(_read_value), Loop(_applied)
    loops = [reader] if workload == "serve-read" else [reader, writer]
    clients = [ServeClient(*server.address, timeout=CLIENT_TIMEOUT) for _ in loops]
    payloads = [_cycle(inputs.reads), iter(inputs.updates)]
    slices = max(1, round(seconds / SLICE_S))
    began = time.perf_counter()
    try:
        cpu = 0.0
        for _ in range(slices):
            speed.probe()
            deadline = time.perf_counter() + seconds / slices
            cpu0 = cpu_seconds(server.pid)
            _run_slice(loops, clients, payloads, deadline, seconds)
            cpu += cpu_seconds(server.pid) - cpu0
            if any(loop.exhausted for loop in loops):
                break  # trace exhausted or a connection failed
        ended = speed.probe()
    finally:
        for client in clients:
            client.close()
    factor = speed.factor(began, ended)
    for loop in loops:
        loop.scale(factor)
    for loop in (reader, writer):
        for error in loop.errors:
            tally.fail(f"{workload}: connection error {error}")
    return reader, writer, cpu, (began, ended)


def _run_slice(loops, clients, payloads, deadline, seconds) -> None:
    """One slice of the window: each loop on its own thread until ``deadline``.

    A loop whose payloads run out ends the slice for the others too.
    """
    done = threading.Event()

    def going():
        return not done.is_set() and time.perf_counter() < deadline

    def run(loop, client, source):
        try:
            loop.run(client, source, going)
        finally:
            if loop.exhausted:
                done.set()

    threads = [
        threading.Thread(target=run, args=args)
        for args in zip(loops, clients, payloads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + 4 * CLIENT_TIMEOUT)
        if thread.is_alive():
            raise RuntimeError("load generator did not finish")


def _update_burst(server, inputs, tally, speed) -> Loop:
    """``serve-read``'s updates to an idle server; checks them and its counters."""
    from repro.serve import ServeClient

    burst = Loop(_applied)
    _settle()
    with ServeClient(*server.address, timeout=CLIENT_TIMEOUT) as client:
        began = speed.probe()
        burst.run(client, iter(inputs.updates), lambda: True)
        ended = time.perf_counter()
        speed.probe()
    burst.scale(speed.factor(began, ended))
    for error in burst.errors:
        tally.fail(f"serve-read: connection error {error}")
    _check_updates(burst, inputs, "serve-read", tally)
    return burst


def _check_updates(loop: Loop, inputs, workload, tally) -> int:
    """Count update acknowledgements; returns how many chunks were applied."""
    applied = 0
    for done, chunk in zip(loop.values, inputs.chunks):
        if done == len(chunk):
            applied += 1
            tally.ok()
        else:
            tally.fail(f"{workload}: update applied {done} of {len(chunk)} deltas")
    return applied


def _counts(reads, writes: Loop, inputs) -> dict:
    """The counters a server must report after ``reads`` and ``writes``."""
    updates = writes.values
    return {
        "queries": len(reads),
        "update_requests": len(updates),
        "deltas_applied": sum(a for a in updates if a is not None),
        "errors": sum(1 for v in list(reads) + updates if v is None),
    }


def _check_stats(server, expected, workload, tally) -> None:
    """The server's counters must equal the client's counts."""
    from repro.serve import ServeClient

    with ServeClient(*server.address, timeout=CLIENT_TIMEOUT) as client:
        counters = client.stats()["counters"]
    expected = dict(expected, queries=expected["queries"] + 1)  # this stats call
    for key, value in expected.items():
        tally.check(
            counters.get(key) == value,
            f"{workload}: server counter {key}={counters.get(key)} but "
            f"the client counted {value}",
        )


def _snapshots(server, path, repeats, tally, timings) -> None:
    """Time ``repeats`` snapshot ops on the live server as snapshot_save_s."""
    from repro.serve import ServeClient

    with ServeClient(*server.address, timeout=CLIENT_TIMEOUT) as client:
        for _ in range(repeats):
            t = timings.speed.probe()
            response = client.request({"op": "snapshot", "path": str(path)})
            timings.add("snapshot_save_s", t, time.perf_counter())
            timings.speed.probe()
            tally.check(bool(response.get("ok")), f"snapshot failed: {response}")


def _restart(path, reference, inputs, tally, timings) -> None:
    """Restart from the snapshot (timed as restore_s), check its answers, stop."""
    from repro.serve import ServeClient

    server = ServerProcess(["serve", "--from-snapshot", str(path)])
    try:
        _timed_start(server, timings, "restore_s")
        tally.ok()
        with ServeClient(*server.address, timeout=CLIENT_TIMEOUT) as client:
            stats = client.stats()
            tally.check(
                (stats["num_nodes"], stats["num_edges"])
                == (reference.num_nodes, reference.num_edges),
                "restarted server holds a different graph size",
            )
            wrong = 0
            for payload in inputs.restart_reads:
                response = client.request(payload)
                got = _read_value(response)
                wrong += _wire(got) != _wire(_expected(reference, payload))
            tally.ok(len(inputs.restart_reads) - wrong)
            if wrong:
                tally.fail(f"restarted server: {wrong} wrong answers", wrong)
    finally:
        server.stop()


def _wire(value):
    """Node ids compare in wire form (tuples travel as JSON arrays)."""
    if isinstance(value, tuple):
        return [_wire(v) for v in value]
    return value


def run(workload, seed, seconds, traced, size, tally, wrong_loads=0) -> dict:
    """Run a served workload; returns end-to-end figures and, traced, layers."""
    import repro
    from repro.serve import load_state

    from tracing import layer_metrics, load_dump

    speed = HostSpeed()
    timings = Timings(speed)
    inputs = _Inputs(repro, workload, seed, size, tally, timings)
    OUT.mkdir(parents=True, exist_ok=True)
    snap = OUT / f"{workload}-{seed}.snap"
    dump = OUT / f"trace-{workload}-{seed}.json"
    serve_args = _serve_args(inputs, seed)
    result: dict = {}

    bursts = []
    baseline = None
    if traced:
        # An untraced window first, for the tracing overhead.
        plain = ServerProcess(serve_args)
        try:
            plain.start()
            baseline, base_writer, _, _ = _window(
                plain, inputs, workload, seconds, tally, speed
            )
        finally:
            plain.stop()
        for value in baseline.values + base_writer.values:
            tally.check(value is not None, f"{workload}: a request failed")
    else:
        # Cold starts interleaved with local builds, so both sample the run.
        for _ in range(SETUP_REPEATS - 1):
            probe_server = ServerProcess(serve_args)
            try:
                _timed_start(probe_server, timings, "setup_s")
                tally.ok()
                if workload == "serve-read":
                    bursts.append(_update_burst(probe_server, inputs, tally, speed))
                    _check_stats(
                        probe_server, _counts([], bursts[-1], inputs), workload, tally
                    )
            finally:
                probe_server.stop()
            inputs.build(tally, timings)

    server = ServerProcess(
        serve_args, dump=dump if traced else None,
        wrong_loads=wrong_loads,
    )
    try:
        _timed_start(server, timings, None if traced else "setup_s")
        tally.ok()
        reader, writer, server_cpu, window = _window(
            server, inputs, workload, seconds, tally, speed
        )
        result["peak_rss_mb"] = vm_hwm_mb(server.pid)
        repeats = 1 if traced else SNAPSHOT_REPEATS
        _snapshots(server, snap, repeats, tally, timings)
        if workload == "serve-read":
            # Snapshot the state the reads saw, then burst the updates.
            bursts.append(_update_burst(server, inputs, tally, speed))
            writes = bursts[-1]
        else:
            bursts.append(writer)
            writes = writer
        _check_stats(server, _counts(reader.values, writes, inputs), workload, tally)
    finally:
        server.stop()

    # -- output checks (untimed) ----------------------------------------
    if workload == "serve-mixed":
        applied = _check_updates(writer, inputs, workload, tally)

    def local_solve():
        t = speed.probe()
        solved = repro.solve(inputs.instance, algorithm="repair", seed=seed)
        timings.add("solve_s", t, time.perf_counter())
        speed.probe()
        tally.ok()
        return solved

    solved = local_solve()
    _check_reads(reader, inputs, workload, _SolvedView(solved), tally)
    engine = solved.dynamic()
    if workload == "serve-mixed":
        for chunk in inputs.chunks[:applied]:
            engine.apply_batch(chunk)
    served = load_state(snap, validate=False)
    tally.check(
        arrays_equal(served.solved_arrays(), engine.solved_arrays()),
        f"{workload}: served state differs from the local replay",
    )
    tally.check(
        served.updates_applied == engine.updates_applied,
        f"{workload}: served update counter differs from the local replay",
    )
    del served, solved
    if not traced:
        # Restarts interleaved with the remaining local solves.
        for _ in range(RESTORE_REPEATS):
            _restart(snap, engine, inputs, tally, timings)
            if len(timings.samples["solve_s"]) < LOCAL_REPEATS:
                local_solve()
    snap.unlink()

    # -- figures ----------------------------------------------------------
    updates = Loop.merged(bursts)
    reads, writes = reader.summary(1e6), updates.summary(1e3)
    deltas = sum(a for a in updates.values if a is not None)
    result.update(
        query_p50_us=reads["p50"],
        query_p99_us=reads["p99"],
        query_rps=len(reader.latencies) / reader.busy_scaled,
        update_rate=deltas / updates.busy_scaled,
        update_p50_ms=writes["p50"],
        update_p99_ms=writes["p99"],
        query_samples=reads["samples"],
        update_samples=writes["samples"],
        window_s=window[1] - window[0],
        deltas_applied=deltas,
        **{
            "raw.query_p50_us": median(reader.latencies) * 1e6,
            "raw.query_rps": len(reader.latencies) / reader.busy,
            "raw.update_rate": deltas / updates.busy,
            "raw.update_p50_ms": median(updates.latencies) * 1e3,
        },
    )
    scaled, raw = timings.medians()
    result.update(scaled)
    result.update({f"raw.{k}": v for k, v in raw.items()})
    result["record"] = dict(
        timings.record(), reads=reader.record(), updates=updates.record()
    )

    if traced:
        spans, gc_events = load_dump(dump)
        layers = layer_metrics(spans, gc_events, window=window)
        requests = len(reader.latencies) + (
            len(writer.latencies) if workload == "serve-mixed" else 0
        )
        client_total = sum(reader.latencies) + (
            sum(writer.latencies) if workload == "serve-mixed" else 0.0
        )
        server_side = (
            layers["protocol.decode_s"] + layers["protocol.encode_s"]
            + layers["incremental.query_s"] + layers["incremental.apply_batch_s"]
        )
        layers["serve.requests"] = requests
        layers["serve.loop_self_us"] = (client_total - server_side) / requests * 1e6
        layers["serve.cpu_us_per_request"] = server_cpu / requests * 1e6
        base_mean = sum(baseline.latencies) / len(baseline.latencies)
        traced_mean = sum(reader.latencies) / len(reader.latencies)
        layers["trace.overhead_pct"] = (traced_mean - base_mean) / base_mean * 100.0
        layers["trace.solve_untraced_s"] = 0.0
        result["layers"] = layers
    return result


def _check_reads(reader: Loop, inputs, workload, oracle, tally) -> None:
    """Count read answers: ``serve-read`` answers must equal the local solve."""
    pool = inputs.reads
    size = len(pool)
    wrong = failed = 0
    for i, got in enumerate(reader.values):
        if got is None:
            failed += 1
            continue
        payload = pool[i % size]
        if workload == "serve-read":
            wrong += _wire(got) != _wire(_expected(oracle, payload))
        elif payload["op"] == "assignment-of":
            wrong += _wire(got) not in (_wire(payload["u"]), _wire(payload["v"]))
        else:
            wrong += not isinstance(got, int) or got < 0
    tally.ok(len(reader.values) - wrong - failed)
    if failed:
        tally.fail(f"{workload}: {failed} reads answered ok=false", failed)
    if wrong:
        tally.fail(f"{workload}: {wrong} wrong read answers", wrong)
