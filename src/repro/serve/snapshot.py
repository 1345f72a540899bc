"""Snapshot/restore of the full serving state — one mmap-able file.

:func:`save_state` materializes a :class:`~repro.core.orientation.
incremental.DynamicOrientation` into its canonical flat arrays (the five
CSR buffers of the live graph plus ``heads`` and ``load``) and writes
them through :func:`~repro.graphs.compact.write_array_snapshot`; the
header's meta block carries the node-id table and the engine's seed
stream position (``seed``, ``updates_applied``), so a restored engine
answers every query *and* replays every future delta bit-for-bit like
the engine it was saved from.

:func:`load_state` memory-maps the file and rebuilds the graph over
zero-copy views of the mapping (the adjacency buffers — the bulk of the
payload — are never copied; the per-edge ``heads`` and per-node ``load``
arrays are copied into the engine's mutable working lists), then enters
through the trusted constructor
:meth:`~repro.core.orientation.incremental.DynamicOrientation.
from_solved_arrays` — no dict round-trip anywhere on the path.

Node ids are encoded in the header as ``repr`` text parsed back with
:func:`ast.literal_eval` (lossless for the library's int/str/tuple ids;
verified at save time), with a compact ``range`` shortcut for dense
integer ids.
"""

from __future__ import annotations

import ast
import os
from array import array
from typing import Tuple

from repro import obs
from repro.core.orientation.incremental import DynamicOrientation
from repro.graphs.compact import (
    _CSR_FIELDS,
    ArraySnapshot,
    CompactGraph,
    SnapshotError,
    write_array_snapshot,
)

__all__ = ["STATE_KIND", "load_state", "save_state"]

#: The ``meta["kind"]`` tag distinguishing serving-state snapshots from
#: other array-snapshot files.
STATE_KIND = "repro.serve/dynamic-orientation"


def _encode_node_ids(node_ids) -> dict:
    n = len(node_ids)
    if all(node_ids[i] == i for i in range(n)):
        return {"encoding": "range", "n": n}
    text = repr(tuple(node_ids))
    try:
        parsed = ast.literal_eval(text)
    except (ValueError, SyntaxError) as exc:
        raise SnapshotError(
            f"node ids are not literal-evaluable from repr: {exc}"
        ) from exc
    if parsed != tuple(node_ids):
        raise SnapshotError("node ids do not round-trip through repr")
    return {"encoding": "repr", "text": text}


def _decode_node_ids(spec) -> Tuple:
    if not isinstance(spec, dict):
        raise SnapshotError(f"malformed node-id spec {spec!r}")
    encoding = spec.get("encoding")
    if encoding == "range":
        return tuple(range(spec["n"]))
    if encoding == "repr":
        return tuple(ast.literal_eval(spec["text"]))
    raise SnapshotError(f"unknown node-id encoding {encoding!r}")


def save_state(dynamic: DynamicOrientation, path) -> dict:
    """Write the engine's full serving state to ``path``; returns the meta."""
    with obs.span("serve.snapshot.save") as sp:
        graph, heads, load = dynamic.solved_arrays()
        sections = dict(graph.snapshot_sections())
        sections["heads"] = array("q", heads)
        sections["load"] = array("q", load)
        meta = {
            "kind": STATE_KIND,
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "seed": dynamic.seed,
            "updates_applied": dynamic.updates_applied,
            "node_ids": _encode_node_ids(graph.node_ids),
        }
        write_array_snapshot(path, sections, meta=meta)
        sp.set(
            num_nodes=graph.num_nodes,
            num_edges=graph.num_edges,
            bytes=os.path.getsize(path),
        )
    return meta


def load_state(path, *, validate: bool = True) -> DynamicOrientation:
    """Rebuild a serving engine from a :func:`save_state` file.

    The returned engine keeps the underlying :class:`ArraySnapshot` mapping
    open for its lifetime (the graph's CSR buffers are views into it).
    ``validate=False`` skips the O(m) stability re-check for trusted files.
    """
    with obs.span("serve.snapshot.load", validate=validate) as sp:
        snapshot = ArraySnapshot(path)
        try:
            meta = snapshot.meta
            if meta.get("kind") != STATE_KIND:
                raise SnapshotError(
                    f"{path}: not a serving-state snapshot "
                    f"(kind={meta.get('kind')!r})"
                )
            node_ids = _decode_node_ids(meta["node_ids"])
            graph = CompactGraph.from_buffers(
                node_ids,
                {field: snapshot.section(field) for field in _CSR_FIELDS},
            )
            dynamic = DynamicOrientation.from_solved_arrays(
                graph,
                snapshot.section("heads"),
                snapshot.section("load"),
                seed=meta["seed"],
                updates_applied=meta["updates_applied"],
                validate=validate,
            )
        except Exception:
            snapshot.close()
            raise
        # The graph's CSR views point into the mapping; tie the snapshot's
        # lifetime to the engine that owns them.
        dynamic._snapshot = snapshot
        sp.set(num_nodes=graph.num_nodes, num_edges=graph.num_edges)
    return dynamic
