"""Event sinks for :mod:`repro.obs`.

A sink receives flat JSON-serialisable event dicts (see the event model
in :mod:`repro.obs`).  Three implementations cover the needs of the
repo:

* no sink at all (``repro.obs`` holds ``None``) — the disabled state;
* :class:`MemorySink` — an in-process list with small query helpers,
  used by tests and the benchmark phase-breakdown helpers;
* :class:`JsonlSink` — one JSON object per line appended to a file, the
  offline-analysis format consumed by ``scripts/report_trace.py``.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List, Optional


class Sink:
    """Interface: ``emit`` one event dict; ``close`` releases resources."""

    def emit(self, event: Dict[str, Any]) -> None:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; safe to call more than once."""


class MemorySink(Sink):
    """Collects events into :attr:`events`, with query helpers for tests."""

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []

    def emit(self, event: Dict[str, Any]) -> None:
        self.events.append(event)

    # -- query helpers -------------------------------------------------
    def spans(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        """Span events, optionally restricted to one span name."""
        return [
            e
            for e in self.events
            if e["type"] == "span" and (name is None or e["name"] == name)
        ]

    def counter_total(self, name: str) -> float:
        """Sum of all ``counter`` increments recorded under ``name``."""
        return sum(
            e["value"]
            for e in self.events
            if e["type"] == "counter" and e["name"] == name
        )

    def samples(self, name: str) -> List[float]:
        """Raw histogram samples recorded under ``name``, in order."""
        return [
            e["value"]
            for e in self.events
            if e["type"] == "hist" and e["name"] == name
        ]

    def gauge_value(self, name: str) -> Any:
        """Last ``gauge`` value recorded under ``name`` (None if never set)."""
        value = None
        for e in self.events:
            if e["type"] == "gauge" and e["name"] == name:
                value = e["value"]
        return value

    def clear(self) -> None:
        self.events.clear()


class JsonlSink(Sink):
    """Appends one JSON object per event to ``path``.

    The file is opened lazily on first emit and re-opened after a fork:
    each emit checks ``os.getpid()`` so a handle inherited by an engine
    worker process is never shared (two processes appending through one
    inherited file object would interleave partial lines).  In practice
    workers capture events in memory instead of writing here, but the
    guard makes the sink safe regardless of how it crosses a fork.

    Events are written with ``sort_keys`` and flushed per line so a
    trace is readable (and diffable) even from a crashed run.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._file = None
        self._pid: Optional[int] = None

    def emit(self, event: Dict[str, Any]) -> None:
        pid = os.getpid()
        if self._file is None or self._pid != pid:
            if self._file is not None:
                try:
                    self._file.close()
                except OSError:  # pragma: no cover - inherited stale handle
                    pass
            self._file = open(self.path, "a", encoding="utf-8")
            self._pid = pid
        json.dump(event, self._file, sort_keys=True, default=str)
        self._file.write("\n")
        self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
            self._pid = None


def load_jsonl(path: str) -> List[Dict[str, Any]]:
    """Read a JSONL trace back into a list of event dicts.

    Skips blank lines; a truncated final line (crashed writer) raises
    ``json.JSONDecodeError`` so corruption is loud, not silent.
    """
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def replay(events: Iterable[Dict[str, Any]], sink: Sink) -> None:
    """Feed previously captured events into another sink."""
    for event in events:
        sink.emit(event)
