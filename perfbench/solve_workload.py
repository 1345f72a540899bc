"""The ``solve-100k`` workload: the paper's algorithm at 10^5 nodes, in-process.

One iteration is the pipeline a user runs to get a served state from
nothing: stream -> CSR (``repro.Instance.build``) ->
``repro.solve(algorithm="phases")`` -> ``Solved.dynamic()`` ->
``save_state`` -> ``load_state``.  Iterations repeat for the run's
seconds (at least three), each on its own instance drawn from the
workload seed, and each stage reports its median.  Each
iteration also times two fresh interpreters' set-up and restores the
snapshot twice, and its restored
engine answers point queries and absorbs 16-delta churn batches
in-process, which gives the workload query and update figures with no
server in the way; spreading these over the iterations averages them
over the whole run.  Every timed stage and loop runs between two
host-speed probes and is reported at the reference speed
(:mod:`hostspeed`); the raw figures are printed beside them.

Output checks run outside the timed stages: the solve is stable, its
phase count is within Lemma 5.5's 4(D+1)+4, the restored arrays equal
the saved ones bit for bit, every in-process answer equals the solve,
and the restored engine ends bit-for-bit equal to the original engine
after both apply the same batches.
"""

from __future__ import annotations

import gc
import json
import random
import subprocess
import sys
import time

from common import (
    CHUNK,
    OUT,
    arrays_equal,
    child_env,
    instance_params,
    median,
    percentile,
    slice_p99,
    trace_length,
    vm_hwm_mb,
)
from hostspeed import HostSpeed, Timings
from tracing import Tracer, active, layer_metrics

#: Pipeline iterations per run at least, however short ``--seconds`` is;
#: the first allocates the heap cold and a median needs the others.
MIN_ITERATIONS = 3
#: Fresh-interpreter set-ups and snapshot restores per iteration; both are
#: short, so more samples steady their medians at little cost.
SETUPS = 2
RESTORES = 2
#: In-process point queries are timed in batches of this many calls
#: (~130 us a batch).  One call (~2 us) is not far above the clock's own
#: cost, and in batches of 4 the p99 sat at the edge of the share of
#: samples that a timer interrupt or a collector pass had hit, so it
#: moved by a quarter between runs; at 64 a batch absorbs such a pass.
QUERY_BATCH = 64
QUERY_BATCHES = 3000
#: Query samples per slice of the p99 (each iteration's queries make three).
QUERY_SLICE = 1000
#: 16-delta batches per iteration.  The update p99 is of all the run's
#: batches: the p99 of one iteration's 1500, and the median of three such,
#: moved by a quarter between runs.
UPDATE_BATCHES = 3000

_SETUP_CODE = (
    "import json, sys, repro, repro.api, repro.serve\n"
    "params = json.loads(sys.argv[1])\n"
    "print('ready', flush=True)\n"
)


def _setup_once(params) -> float:
    """Process start to instance parameters ready, in a fresh interpreter."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", _SETUP_CODE, json.dumps(params)],
        stdout=subprocess.PIPE, text=True, env=child_env(),
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        if line.strip() != "ready":
            raise RuntimeError("set-up probe did not become ready")
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    return elapsed


def _pipeline(
    repro, snapshot, params, seed, path, tally, tracer, timings, restores
):
    """One timed pipeline iteration and its checks; returns its objects."""
    gc.collect()
    with active(tracer):
        solved, engine, restored = _stages(
            repro, snapshot, params, seed, path, timings, restores
        )
    tally.ok(4 + restores)

    graph = solved.instance.graph
    tally.check(solved.is_stable(), "solve-100k: phases result is not stable")
    bound = 4 * (graph.max_degree() + 1) + 4
    tally.check(
        solved.result.phases <= bound,
        f"solve-100k: {solved.result.phases} phases exceed 4(D+1)+4 = {bound}",
    )
    tally.check(
        arrays_equal(engine.solved_arrays(), restored.solved_arrays()),
        "solve-100k: restored arrays differ from the saved ones",
    )
    return solved, engine, restored


def _stages(repro, snapshot, params, seed, path, timings, restores):
    """The timed stages, each between two host-speed probes."""
    probe, add = timings.speed.probe, timings.add
    t = probe()
    instance = repro.Instance.build("scale-layered", **params)
    add("build_s", t, time.perf_counter())
    t = probe()
    solved = repro.solve(instance, algorithm="phases", seed=seed)
    add("solve_s", t, time.perf_counter())
    t = probe()
    engine = solved.dynamic()
    add("dynamic_s", t, time.perf_counter())
    t = probe()
    snapshot.save_state(engine, path)
    add("snapshot_save_s", t, time.perf_counter())
    for _ in range(restores):
        restored = None  # drop the previous engine and its mapping first
        t = probe()
        restored = snapshot.load_state(path)
        add("restore_s", t, time.perf_counter())
    probe()
    return solved, engine, restored


class _Traffic:
    """In-process point queries and churn batches, one slice per iteration.

    Every iteration's restored engine answers query batches and absorbs
    16-delta chunks drawn for its instance, so the samples spread over
    the whole run instead of one burst at its end.
    """

    def __init__(self) -> None:
        self.batches = self.chunks = None
        #: Raw samples in seconds, and the same samples at reference speed.
        self.query_samples: list = []
        self.update_samples: list = []
        self.query_scaled: list = []
        self.update_scaled: list = []
        #: ``(first, end)`` sample indices of each slice of the samples.
        self.query_slices: list = []
        #: Per iteration: query interval and raw p50, update interval and
        #: raw p50 and p99, for the run's record.
        self.spans: list = []
        self.deltas = 0

    def draw(self, solved, seed) -> None:
        """Draw the query batches and churn chunks for ``solved``'s instance."""
        from repro.workloads.churn import churn_trace

        graph = solved.instance.graph
        ids = graph.node_ids
        eu, ev = graph.edge_u, graph.edge_v
        rng = random.Random(f"{seed}:queries")
        n, m = graph.num_nodes, graph.num_edges
        self.batches = []
        for _ in range(QUERY_BATCHES):
            batch = []
            for j in range(QUERY_BATCH):
                if j % 2 == 0:
                    batch.append((ids[rng.randrange(n)],))
                else:
                    e = rng.randrange(m)
                    batch.append((ids[eu[e]], ids[ev[e]]))
            self.batches.append(batch)
        length = trace_length(n, UPDATE_BATCHES * CHUNK, 0.5)
        trace = churn_trace(graph, num_updates=length, seed=seed, mix="mixed")
        self.chunks = [trace[i : i + CHUNK] for i in range(0, len(trace), CHUNK)]

    def run_slice(self, solved, restored, tally, tracer, speed) -> None:
        """Time the queries and updates on ``restored``; check the answers.

        Each of the two timed loops runs between host-speed probes, and
        its samples are scaled by the host's speed around that interval.
        """
        answers = []
        query_samples, update_samples = [], []
        clock = time.perf_counter
        gc.collect()
        with active(tracer):
            load_of, head_of = restored.load_of, restored.head_of
            began = speed.probe()
            for batch in self.batches:
                t = clock()
                out = [
                    load_of(q[0]) if len(q) == 1 else head_of(q[0], q[1])
                    for q in batch
                ]
                query_samples.append((clock() - t) / QUERY_BATCH)
                answers.append(out)
            queried = clock()
            updating = speed.probe()
            for chunk in self.chunks:
                t = clock()
                restored.apply_batch(chunk)
                update_samples.append(clock() - t)
                self.deltas += len(chunk)
            updated = clock()
            speed.probe()
        self.spans.append(
            (began, queried, median(query_samples), updating, updated,
             median(update_samples), percentile(update_samples, 99))
        )
        first = len(self.query_samples)
        for raw, scaled, samples, factor in (
            (self.query_samples, self.query_scaled, query_samples,
             speed.factor(began, queried)),
            (self.update_samples, self.update_scaled, update_samples,
             speed.factor(updating, updated)),
        ):
            raw.extend(samples)
            scaled.extend(x * factor for x in samples)
        end = len(self.query_samples)
        self.query_slices.extend(
            (a, min(a + QUERY_SLICE, end)) for a in range(first, end, QUERY_SLICE)
        )
        tally.ok(QUERY_BATCHES * QUERY_BATCH + len(self.chunks))

        graph = solved.instance.graph
        ids, index_of = graph.node_ids, graph.index_of
        wrong = 0
        for batch, out in zip(self.batches, answers):
            for q, got in zip(batch, out):
                if len(q) == 1:
                    expected = solved.load[index_of[q[0]]]
                else:
                    expected = ids[solved.heads[graph.edge_index(q[0], q[1])]]
                wrong += got != expected
        if wrong:
            tally.fail(f"solve-100k: {wrong} in-process answers differ from the solve")

    def check_replay(self, engine, restored, tally) -> None:
        """The original engine, given the same chunks, equals the restored one."""
        for chunk in self.chunks:
            engine.apply_batch(chunk)
        tally.check(
            arrays_equal(engine.solved_arrays(), restored.solved_arrays()),
            "solve-100k: restored engine diverged from the original after churn",
        )

    def figures(self) -> dict:
        """Query and update figures at reference speed, then raw."""
        result = {}
        for prefix, query_samples, update_samples in (
            ("", self.query_scaled, self.update_scaled),
            ("raw.", self.query_samples, self.update_samples),
        ):
            result.update({
                prefix + "query_p50_us": median(query_samples) * 1e6,
                prefix + "query_p99_us":
                    slice_p99(query_samples, self.query_slices) * 1e6,
                prefix + "query_rps": len(query_samples) / sum(query_samples),
                prefix + "update_rate": self.deltas / sum(update_samples),
                prefix + "update_p50_ms": median(update_samples) * 1e3,
                prefix + "update_p99_ms": percentile(update_samples, 99) * 1e3,
            })
        result["query_samples"] = len(self.query_samples)
        result["update_samples"] = len(self.update_samples)
        return result


def run(seed: int, seconds: float, traced: bool, size: str, tally) -> dict:
    """Run the workload; returns end-to-end figures and, when traced, layers."""
    import repro
    import repro.serve.snapshot as snapshot

    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"solve-{seed}.snap"
    result: dict = {}

    # Each iteration draws its own instance from the workload seed: phase
    # counts differ between instances (7 to 9 over seeds 201-210), so one
    # instance per run would make solve_s differ by seed rather than by
    # code.  The traced run keeps one instance, so that its untraced and
    # traced iterations compare the same work.
    instances = random.Random(f"{seed}:instances")
    instance_seed = instances.randrange(1 << 31)
    speed = HostSpeed()
    timings = Timings(speed)
    traffic = _Traffic()
    start = time.perf_counter()
    tracer = Tracer() if traced else None
    iteration = 0
    while True:
        iteration += 1
        if iteration > 1 and not traced:
            instance_seed = instances.randrange(1 << 31)
        params = instance_params(size, instance_seed)
        if not traced:
            for _ in range(SETUPS):
                began = speed.probe()
                timings.add("setup_s", began, began + _setup_once(params))
                tally.ok()
            speed.probe()
        # Traced: a warm-up, an untraced baseline, then the traced iteration.
        iteration_tracer = tracer if iteration == 3 else None
        solved, engine, restored = _pipeline(
            repro, snapshot, params, instance_seed, path, tally, iteration_tracer,
            timings, 1 if traced else RESTORES,
        )
        traffic.draw(solved, instance_seed)
        traffic.run_slice(solved, restored, tally, iteration_tracer, speed)
        if traced:
            done = iteration == 3
        else:
            done = (
                iteration >= MIN_ITERATIONS
                and time.perf_counter() - start >= seconds
            )
        if done:
            break
        del solved, engine, restored
    result["peak_rss_mb"] = vm_hwm_mb()
    traffic.check_replay(engine, restored, tally)
    del restored  # it maps the snapshot file
    path.unlink()
    scaled, raw = timings.medians()
    result.update(scaled)
    result.update({f"raw.{k}": v for k, v in raw.items()})
    result["record"] = dict(timings.record(), traffic=traffic.spans)
    result["iterations"] = iteration
    result.update(traffic.figures())

    if traced:
        tracer.dump(OUT / f"trace-solve-{seed}.json")
        layers = layer_metrics(tracer.spans, tracer.gc_events)
        stages = ("build_s", "solve_s", "dynamic_s", "snapshot_save_s", "restore_s")
        untraced = sum(timings.raw(k)[1] for k in stages)
        traced_total = sum(timings.raw(k)[2] for k in stages)
        layers["trace.overhead_pct"] = (traced_total - untraced) / untraced * 100.0
        layers["trace.solve_untraced_s"] = timings.raw("solve_s")[1]
        # The solve's layers partition the traced repro.solve call.
        result["solve_layers_sum_s"] = sum(
            layers[k]
            for k in (
                "token_dropping.game_build_s", "token_dropping.game_play_s",
                "orientation.driver_self_s", "api.solve_overhead_s",
            )
        )
        layers["serve.requests"] = 0
        layers["serve.loop_self_us"] = 0.0
        layers["serve.cpu_us_per_request"] = 0.0
        result["layers"] = layers
    return result
