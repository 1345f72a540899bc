"""Shared plumbing of the benchmark: paths, sizes, tallies and statistics.

The benchmark runs from the root of a source checkout and imports the
program from ``<root>/src``; nothing outside the checkout is read or
written.  Run outputs (snapshot files, span dumps) go under
``<root>/.perfbench``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: Instance parameters by size.  ``100k`` is the scale tier the
#: benchmark is defined on (``SCALE_TIER_PARAMS["100k"]``: 10^5 nodes,
#: ~1.96x10^5 edges); ``tiny`` (~10^3 nodes) exists for the self-test.
SIZES = {
    "100k": dict(num_levels=50, width=2_000, edge_probability=0.001),
    "tiny": dict(num_levels=10, width=100, edge_probability=0.02),
}

#: Deltas per ``update`` request (and per in-process ``apply_batch``).
CHUNK = 16


def trace_length(num_nodes: int, wanted: int, share: float) -> int:
    """Deltas to draw: ``wanted``, capped at ``share`` of the node count.

    The cap keeps a mixed trace (a quarter of it departures) from draining
    a small instance, so reads of never-removed nodes stay possible.
    """
    return max(CHUNK, min(wanted, int(share * num_nodes)) // CHUNK * CHUNK)


def require_program() -> None:
    """Exit non-zero, printing no result, when the program is not present."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def pin_to_one_cpu() -> int:
    """Keep this process, and every process it starts, on one CPU.

    On a shared virtual machine a request that crosses CPUs waits for the
    other virtual CPU to be woken, which the host delays by a varying
    amount; on one CPU a round trip is two context switches.  The host-
    speed probes then also run on the CPU that does the measured work.
    Returns the CPU, the last one this process may use.
    """
    cpu = sorted(os.sched_getaffinity(0))[-1]
    os.sched_setaffinity(0, {cpu})
    return cpu


def instance_params(size: str, seed: int) -> dict:
    """The ``scale-layered`` family parameters for one workload seed."""
    return dict(SIZES[size], seed=seed)


def child_env() -> dict:
    """Environment for child Python processes: the checkout's sources first."""
    env = dict(os.environ)
    parts = [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def check(self, condition: bool, reason: str) -> bool:
        """Count one output check; a false condition is one failure."""
        if condition:
            self.ok()
        else:
            self.fail(reason)
        return condition

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons.extend(other.reasons[: max(0, 20 - len(self.reasons))])


def median(values) -> float:
    return statistics.median(values)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0..100) of ``values``."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * len(ordered))) - 1))
    return ordered[rank]


def slice_p99(samples, slices, min_samples: int = 1000) -> float:
    """Median over a run's slices of each slice's p99.

    ``slices`` are ``(first, end)`` index ranges of ``samples`` in time
    order.  Adjacent slices merge until each group holds ``min_samples``
    (ten samples beyond its p99), and a short remainder joins the last
    group.  A burst of host contention then moves one group's p99, not
    the run's.
    """
    groups, first = [], None
    for start, end in slices:
        first = start if first is None else first
        if end - first >= min_samples:
            groups.append((first, end))
            first = None
    if first is not None:
        if groups:
            groups[-1] = (groups[-1][0], slices[-1][1])
        else:
            groups.append((first, slices[-1][1]))
    if not groups:
        return percentile(samples, 99)
    return median(percentile(samples[a:b], 99) for a, b in groups)


def vm_hwm_mb(pid="self") -> float:
    """``VmHWM`` (peak resident set) of a process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid) -> float:
    """User plus system CPU time a process has used, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # Fields after the command name start at field 3 (state); utime and
    # stime are fields 14 and 15.
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def provenance() -> dict:
    """Where a run came from: source revision, interpreter and hardware."""
    info = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_sha": None,
        "git_dirty": None,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    # Stop git at the checkout: a checkout that is not a repository
    # reports no revision rather than one of an enclosing directory.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, env=env,
        )
        if sha.returncode == 0:
            info["git_sha"] = sha.stdout.strip()
            dirty = subprocess.run(
                ["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                capture_output=True, text=True, timeout=10, env=env,
            )
            info["git_dirty"] = bool(dirty.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        pass
    return info


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, default=str)


def arrays_equal(a, b) -> bool:
    """Bit-for-bit equality of two ``(graph, heads, load)`` exports."""
    ga, ha, la = a
    gb, hb, lb = b
    if tuple(ga.node_ids) != tuple(gb.node_ids) or list(ha) != list(hb):
        return False
    if list(la) != list(lb):
        return False
    sa, sb = ga.snapshot_sections(), gb.snapshot_sections()
    return all(bytes(sa[f]) == bytes(sb[f]) for f in sa)
