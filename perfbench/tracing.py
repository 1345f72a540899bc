"""Benchmark-side tracing: spans around the program's layer entry points.

Nothing here changes the program's files.  :func:`install` replaces a
fixed list of public entry points, one or two per layer, with wrappers
that record a span (name, start, end, parent span, request id, counts)
in a :class:`Tracer`'s memory, and :func:`uninstall` puts the originals
back.  A ``gc.callbacks`` hook records every collection.  The spans are
written out once, when the traced run ends, and :func:`layer_metrics`
turns them into the per-layer metrics the benchmark reports.

A layer's self time is the duration of its spans minus the part covered
by their child spans.  Request ids tie the spans of one served request
together: decoding a request frame starts a new id on that connection.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import gc
import json
import time

#: Span fields, in the order each record stores them.
FIELDS = ("id", "name", "start", "end", "parent", "request", "info")


class Tracer:
    """In-memory spans and garbage-collector pauses of one process."""

    def __init__(self) -> None:
        self.spans: list = []
        self.gc_events: list = []
        self._next_id = 0
        self._next_request = 0
        self._parent = contextvars.ContextVar("perfbench_parent", default=None)
        self._request = contextvars.ContextVar("perfbench_request", default=None)
        self._gc_start = None
        self._patches: list = []

    # -- spans ----------------------------------------------------------
    def begin(self, new_request: bool = False):
        if new_request:
            self._next_request += 1
            self._request.set(self._next_request)
        self._next_id += 1
        sid = self._next_id
        token = self._parent.set(sid)
        return sid, token, time.perf_counter()

    def end(self, name: str, opened, info=None) -> None:
        sid, token, start = opened
        stop = time.perf_counter()
        parent = token.old_value
        if parent is contextvars.Token.MISSING:
            parent = None
        self._parent.reset(token)
        self.spans.append(
            (sid, name, start, stop, parent, self._request.get(), info)
        )

    # -- garbage collector ----------------------------------------------
    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_events.append(
                (self._gc_start, time.perf_counter(), info["generation"])
            )
            self._gc_start = None

    # -- output ---------------------------------------------------------
    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"fields": FIELDS, "spans": self.spans, "gc": self.gc_events}, fh
            )


def load_dump(path):
    """Spans and gc events of a :meth:`Tracer.dump` file."""
    with open(path) as fh:
        data = json.load(fh)
    return [tuple(s) for s in data["spans"]], [tuple(g) for g in data["gc"]]


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _wrap_function(tracer, func, name, counts=None, new_request=False):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        opened = tracer.begin(new_request)
        info = None
        try:
            result = func(*args, **kwargs)
            if counts is not None:
                info = counts(args, result)
            return result
        finally:
            tracer.end(name, opened, info)

    return wrapper


def _wrap_async(tracer, func, name):
    @functools.wraps(func)
    async def wrapper(*args, **kwargs):
        opened = tracer.begin()
        try:
            return await func(*args, **kwargs)
        finally:
            tracer.end(name, opened)

    return wrapper


def _patch(tracer, owners, attr, wrapper_of):
    """Replace ``attr`` on every owner (which share one original) by a wrapper."""
    first = owners[0]
    raw = first.__dict__[attr] if isinstance(first, type) else getattr(first, attr)
    if isinstance(raw, classmethod):
        new = classmethod(wrapper_of(raw.__func__))
    else:
        new = wrapper_of(raw)
    for owner in owners:
        tracer._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)


def _game_build_counts(args, result):
    return {"edges": result[0].num_edges}


def _game_play_counts(args, result):
    return {"rounds": result[5].rounds}


def _kernel_counts(args, result):
    if len(result) == 6:  # the phase kernel
        return {"phases": result[2], "communication_rounds": result[4]}
    stats = result[2]  # the repair kernel
    return {"phases": 0, "communication_rounds": stats.communication_rounds}


def _batch_counts(args, result):
    return {
        "deltas": result.num_deltas,
        "frontier_nodes": result.frontier_nodes,
        "repair_iterations": result.repair.iterations,
        "repair_flips": result.repair.total_flips,
    }


def _save_counts(args, result):
    import os

    return {"bytes": os.path.getsize(args[1])}


def install(tracer: Tracer) -> None:
    """Wrap each layer's entry points and hook the garbage collector."""
    import repro
    import repro.api as api
    import repro.serve as serve_pkg
    from repro.core.orientation import _kernels as orientation_kernels
    from repro.core.orientation import _unhappy, incremental
    from repro.core.token_dropping import _kernels as td_kernels
    from repro.graphs.compact import CompactGraph
    from repro.serve import protocol, server, snapshot

    def plain(name, counts=None, new_request=False):
        return lambda f: _wrap_function(tracer, f, name, counts, new_request)

    Dynamic = incremental.DynamicOrientation
    _patch(tracer, [CompactGraph], "from_edge_stream", plain("graphs.csr_build"))
    _patch(tracer, [CompactGraph], "from_buffers", plain("graphs.from_buffers"))
    _patch(
        tracer, [td_kernels], "game_from_arrays",
        plain("token_dropping.game_build", _game_build_counts),
    )
    _patch(
        tracer, [td_kernels], "proposal_game_kernel",
        plain("token_dropping.game_play", _game_play_counts),
    )
    for kernel in ("stable_orientation_kernel", "repair_kernel"):
        _patch(
            tracer, [orientation_kernels], kernel,
            plain("orientation.kernel", _kernel_counts),
        )
    # The repair loop is imported by name into the incremental engine.
    _patch(tracer, [_unhappy], "run_repair_loop", plain("orientation.repair_loop"))
    _patch(
        tracer, [incremental], "run_repair_loop", plain("orientation.repair_loop")
    )
    repro.solve  # resolve the lazy facade export so it can be patched
    _patch(tracer, [api, repro], "solve", plain("api.solve"))
    _patch(tracer, [Dynamic], "from_solved_arrays", plain("incremental.engine_init"))
    _patch(
        tracer, [Dynamic], "apply_batch",
        plain("incremental.apply_batch", _batch_counts),
    )
    _patch(tracer, [Dynamic], "head_of", plain("incremental.query"))
    _patch(tracer, [Dynamic], "load_of", plain("incremental.query"))
    _patch(
        tracer, [snapshot, serve_pkg], "save_state",
        plain("snapshot.save", _save_counts),
    )
    _patch(tracer, [snapshot, serve_pkg], "load_state", plain("snapshot.load"))
    # read_frame looks decode_payload up in its module; the server holds
    # its own reference to encode_frame.
    _patch(
        tracer, [protocol], "decode_payload",
        plain("protocol.decode", new_request=True),
    )
    _patch(tracer, [server], "encode_frame", plain("protocol.encode"))
    _patch(
        tracer, [server.OrientationServer], "_dispatch",
        lambda f: _wrap_async(tracer, f, "serve.dispatch"),
    )
    gc.callbacks.append(tracer._on_gc)


@contextlib.contextmanager
def active(tracer):
    """Install ``tracer`` for the block; a ``None`` tracer traces nothing."""
    if tracer is None:
        yield
        return
    install(tracer)
    try:
        yield
    finally:
        uninstall(tracer)


def uninstall(tracer: Tracer) -> None:
    """Put back every original the wrappers replaced."""
    for owner, attr, original in reversed(tracer._patches):
        setattr(owner, attr, original)
    tracer._patches.clear()
    if tracer._on_gc in gc.callbacks:
        gc.callbacks.remove(tracer._on_gc)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
#: Layers whose self time is reported, by span-name prefix.
LAYERS = (
    "graphs", "token_dropping", "orientation", "incremental", "api",
    "snapshot", "protocol", "serve",
)

#: Spans on the request path; a served run counts them only inside the
#: measured window.
REQUEST_PATH = (
    "incremental.apply_batch", "incremental.query", "protocol.decode",
    "protocol.encode", "serve.dispatch",
)


def layer_metrics(spans, gc_events, window=None) -> dict:
    """Per-layer metrics of one traced run.

    ``window`` = ``(start, end)`` restricts request-path spans and gc
    pauses to the measured window of a served run; set-up spans (build,
    solve, engine construction, restore) always count.
    """
    child_time: dict = {}
    name_of = {}
    for sid, name, start, end, parent, request, info in spans:
        name_of[sid] = name
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)

    def inside(start, end):
        return window is None or (start >= window[0] and end <= window[1])

    total: dict = {}
    self_total: dict = {}
    count: dict = {}
    infos: dict = {}
    batch_times = []
    for sid, name, start, end, parent, request, info in spans:
        on_path = (
            name in REQUEST_PATH or name_of.get(parent) == "incremental.apply_batch"
        )
        if on_path and not inside(start, end):
            continue
        duration = end - start
        own = duration - child_time.get(sid, 0.0)
        total[name] = total.get(name, 0.0) + duration
        self_total[name] = self_total.get(name, 0.0) + own
        count[name] = count.get(name, 0) + 1
        if info:
            acc = infos.setdefault(name, {})
            for key, value in info.items():
                acc[key] = acc.get(key, 0) + value
        if name == "incremental.apply_batch":
            batch_times.append(duration)

    def info_sum(name, key):
        return infos.get(name, {}).get(key, 0)

    batches = count.get("incremental.apply_batch", 0)
    pauses = [(s, e, g) for s, e, g in gc_events if inside(s, e)]
    metrics = {
        "graphs.csr_build_s": total.get("graphs.csr_build", 0.0),
        "graphs.from_buffers_s": total.get("graphs.from_buffers", 0.0),
        "token_dropping.game_build_s": total.get("token_dropping.game_build", 0.0),
        "token_dropping.game_play_s": total.get("token_dropping.game_play", 0.0),
        "token_dropping.games": count.get("token_dropping.game_play", 0),
        "token_dropping.game_edges": info_sum("token_dropping.game_build", "edges"),
        "token_dropping.game_rounds": info_sum("token_dropping.game_play", "rounds"),
        "orientation.kernel_s": total.get("orientation.kernel", 0.0),
        "orientation.driver_self_s": self_total.get("orientation.kernel", 0.0),
        "orientation.phases": info_sum("orientation.kernel", "phases"),
        "orientation.communication_rounds": info_sum(
            "orientation.kernel", "communication_rounds"
        ),
        "api.solve_overhead_s": self_total.get("api.solve", 0.0),
        "incremental.engine_init_s": total.get("incremental.engine_init", 0.0),
        "incremental.apply_batch_s": total.get("incremental.apply_batch", 0.0),
        "incremental.apply_batch_p50_ms": (
            sorted(batch_times)[len(batch_times) // 2] * 1e3 if batch_times else 0.0
        ),
        "incremental.batches": batches,
        "incremental.frontier_nodes": (
            info_sum("incremental.apply_batch", "frontier_nodes") / batches
            if batches else 0.0
        ),
        "incremental.repair_iterations": (
            info_sum("incremental.apply_batch", "repair_iterations") / batches
            if batches else 0.0
        ),
        "incremental.repair_flips": (
            info_sum("incremental.apply_batch", "repair_flips") / batches
            if batches else 0.0
        ),
        "incremental.query_s": total.get("incremental.query", 0.0),
        "snapshot.bytes": _last_info(spans, "snapshot.save", "bytes"),
        "protocol.decode_s": total.get("protocol.decode", 0.0),
        "protocol.encode_s": total.get("protocol.encode", 0.0),
        "serve.deltas_per_batch": (
            info_sum("incremental.apply_batch", "deltas") / batches
            if batches else 0.0
        ),
        "gc.pause_s": sum(e - s for s, e, g in pauses),
        "gc.gen2_collections": sum(1 for s, e, g in pauses if g == 2),
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        prefix = layer + "."
        metrics[f"{layer}.self_s"] = sum(
            v for k, v in self_total.items() if k.startswith(prefix)
        )
    return metrics


def _last_info(spans, name, key):
    for sid, span_name, start, end, parent, request, info in reversed(spans):
        if span_name == name and info:
            return info.get(key, 0)
    return 0
