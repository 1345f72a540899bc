"""Host-speed calibration: timings reported at a fixed reference speed.

The benchmark runs on shared hosts whose speed drifts: a fixed pure-Python
loop, timed in 10-second windows over five minutes, spread by 14% between
its quartiles, far more than any single code change should be allowed
to hide behind.  The drift is common to the kinds of work the program
does: in the same windows, the ratio of an allocation-heavy loop's time
to an arithmetic loop's time spread by only 2.4%.

So the benchmark times a fixed probe (interpreted arithmetic plus list,
dict and ``array`` allocation, the program's own mix of work) before and
after every timed stage, and reports each timing multiplied by
``REFERENCE_S / probe``, with ``probe`` the median of the probes taken
within :data:`SPAN_S` of the stage: the seconds the stage would have
taken on a host where one probe takes :data:`REFERENCE_S`.  The probe
is benchmark code, identical on every commit, so a program change that
costs time still shows in full; only the host's own speed is taken out.
The raw timings are kept beside the scaled ones for the human-readable
report.
"""

from __future__ import annotations

import statistics
import time
from array import array

#: Seconds one :func:`_probe` takes on the reference host (2 vCPUs of a
#: shared Intel Xeon, Python 3.11).  Only a scale: a scaled timing reads
#: as seconds on that host at its median speed.
REFERENCE_S = 0.011
#: Probes per calibration point.
PROBES = 5
#: Seconds around a timed interval whose probes give its factor.
SPAN_S = 10.0


def _probe() -> int:
    """Fixed work: an arithmetic loop, then list, dict and array building."""
    total = 0
    for i in range(80_000):
        total += i * i % 7
    values = array("q", range(40_000))
    table = {i: i + 1 for i in range(20_000)}
    pairs = [(i, table[i]) for i in range(0, 20_000, 2)]
    return total + len(values) + len(pairs)


class HostSpeed:
    """Probe readings of one run, and the factors that scale its timings."""

    def __init__(self) -> None:
        #: ``(time the probe ended, its seconds)`` for every probe.
        self.readings: list = []

    def probe(self) -> float:
        """Take one calibration point; returns the time it ended."""
        clock = time.perf_counter
        for _ in range(PROBES):
            start = clock()
            _probe()
            end = clock()
            self.readings.append((end, end - start))
        return end

    def factor(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the median probe within :data:`SPAN_S` of
        ``[start, end]``.

        Probes a few seconds away follow the host's drift as well as the
        adjacent ones and, being more, add less noise of their own: over
        ten runs of each workload this factor left the stage medians
        steadier than the two adjacent points alone or the whole run.
        """
        near = [s for t, s in self.readings if start - SPAN_S <= t <= end + SPAN_S]
        if not near:
            raise RuntimeError("no host-speed probe near the timed work")
        return REFERENCE_S / statistics.median(near)


class Timings:
    """Named timing samples, each with the interval it ran in."""

    def __init__(self, speed: HostSpeed) -> None:
        self.speed = speed
        self.samples: dict = {}

    def add(self, name: str, start: float, end: float) -> float:
        """Record ``end - start`` as a sample of ``name``; returns it."""
        self.samples.setdefault(name, []).append((start, end))
        return end - start

    def raw(self, name: str) -> list:
        return [end - start for start, end in self.samples[name]]

    def scaled(self, name: str) -> list:
        factor = self.speed.factor
        return [(end - start) * factor(start, end) for start, end in self.samples[name]]

    def record(self) -> dict:
        """Every probe reading and timing interval, for the run's record."""
        return {"readings": self.speed.readings, "samples": self.samples}

    def medians(self) -> tuple:
        """``(scaled, raw)`` medians of every name."""
        scaled = {k: statistics.median(self.scaled(k)) for k in self.samples}
        raw = {k: statistics.median(self.raw(k)) for k in self.samples}
        return scaled, raw
