"""Fork-safety of :class:`~repro.obs.sinks.JsonlSink`.

A sink crosses a fork as an inherited file *object*.  The pid guard in
:meth:`JsonlSink.emit` must notice the new pid and append through the
child's own handle, so parent and child lines never tear and every
event carries the pid of the process that emitted it.
"""

from __future__ import annotations

import os
import sys

import pytest

from repro import obs
from repro.obs.sinks import JsonlSink, load_jsonl

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork") or sys.platform.startswith("win"),
    reason="fork-based tests need a POSIX fork",
)


def test_jsonl_sink_survives_fork(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    sink = JsonlSink(path)
    with obs.use(sink):
        with obs.span("parent.before"):
            pass
        with obs.span("parent.outer"):
            # Fork while the sink holds an open handle and a span is
            # open: the child emits through the inherited sink as is.
            inherited = sink._file
            child = os.fork()
            if child == 0:
                code = 1
                try:
                    with obs.span("child.work"):
                        obs.add("child.events")
                    # The guard rebound the sink to a handle of its own.
                    if sink._file is not inherited and sink._pid == os.getpid():
                        code = 0
                finally:
                    os._exit(code)
            _, status = os.waitpid(child, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        with obs.span("parent.after"):
            pass
    sink.close()

    events = load_jsonl(path)  # raises if any line is torn JSON
    spans = {e["name"]: e for e in events if e["type"] == "span"}
    assert set(spans) == {
        "parent.before",
        "parent.outer",
        "child.work",
        "parent.after",
    }
    parent_pid = os.getpid()
    child_events = [e for e in events if e["name"].startswith("child.")]
    assert len(child_events) == 2
    for event in events:
        expected = child if event["name"].startswith("child.") else parent_pid
        assert event["pid"] == expected, event


def test_concurrent_children_never_tear_lines(tmp_path):
    """Children and parent append at once; every line parses and is theirs."""
    path = str(tmp_path / "trace.jsonl")
    sink = JsonlSink(path)
    per_process = 200
    with obs.use(sink):
        obs.add("parent.opened")  # the children inherit an open handle
        children = []
        for k in range(3):
            child = os.fork()
            if child == 0:
                code = 1
                try:
                    for _ in range(per_process):
                        obs.add(f"child{k}.tick")
                    code = 0
                finally:
                    os._exit(code)
            children.append(child)
        for _ in range(per_process):
            obs.add("parent.tick")
        for child in children:
            _, status = os.waitpid(child, 0)
            assert os.waitstatus_to_exitcode(status) == 0
    sink.close()

    events = load_jsonl(path)  # raises if any line is torn JSON
    assert len(events) == 1 + 4 * per_process
    by_pid = {}
    for event in events:
        by_pid.setdefault(event["pid"], set()).add(event["name"])
    assert by_pid[os.getpid()] == {"parent.opened", "parent.tick"}
    for k, child in enumerate(children):
        assert by_pid[child] == {f"child{k}.tick"}


def test_child_opens_its_own_handle_before_the_parent_does(tmp_path):
    """A sink forked before its first emit: both sides open lazily."""
    path = str(tmp_path / "trace.jsonl")
    sink = JsonlSink(path)
    with obs.use(sink):
        assert sink._file is None
        child = os.fork()
        if child == 0:
            code = 1
            try:
                obs.add("child.first")
                if sink._pid == os.getpid():
                    code = 0
            finally:
                os._exit(code)
        _, status = os.waitpid(child, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert sink._file is None  # the child's open stayed in the child
        obs.add("parent.first")
        assert sink._pid == os.getpid()
    sink.close()

    events = load_jsonl(path)
    assert [(e["name"], e["pid"]) for e in events] == [
        ("child.first", child),
        ("parent.first", os.getpid()),
    ]
