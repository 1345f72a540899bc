"""Self-test of the benchmark at a tiny size (~10^3 nodes), in well under a minute.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It runs every workload untraced and traced and asserts that

* every end-to-end and per-layer metric of ``BENCHMARK.json`` is emitted
  with its unit, and every output check passes;
* the phase and round counts of the traced solve repeat exactly at a
  fixed seed;
* a deliberately wrong served answer is counted as a failure;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench``, the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

from common import OUT, ROOT, require_program
from run import WORKLOADS, metrics_of, run_workload

SEED = 3
SECONDS = 1.0


def _definitions():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def check_metrics_emitted(bench) -> None:
    for traced, key in ((False, "end_to_end"), (True, "per_layer")):
        for workload in WORKLOADS:
            tally, figures = run_workload(workload, SEED, SECONDS, traced, "tiny")
            assert tally.failed == 0, (workload, traced, tally.reasons)
            metrics = metrics_of(figures, bench[key], traced)
            for definition in bench[key]:
                name = definition["name"]
                assert name in metrics, (workload, traced, name)
                assert metrics[name]["unit"] == definition["unit"], name
                assert isinstance(metrics[name]["value"], (int, float)), name
            if not traced:
                for name in ("setup_s", "solve_s", "query_p50_us", "update_rate"):
                    assert metrics[name]["value"] > 0, (workload, name)


def check_counts_repeat() -> None:
    counts = []
    for _ in range(2):
        tally, figures = run_workload("solve-100k", SEED, SECONDS, True, "tiny")
        assert tally.failed == 0, tally.reasons
        layers = figures["layers"]
        counts.append(
            tuple(
                layers[k]
                for k in (
                    "orientation.phases",
                    "orientation.communication_rounds",
                    "token_dropping.game_edges",
                    "token_dropping.game_rounds",
                )
            )
        )
    assert counts[0] == counts[1], counts
    assert counts[0][0] > 0, counts


def check_wrong_answer_counted() -> None:
    wrong = 3
    tally, figures = run_workload(
        "serve-read", SEED, SECONDS, True, "tiny", wrong_loads=wrong
    )
    assert tally.failed == wrong, (tally.failed, tally.reasons)
    assert figures["error_rate"] > 0


def check_fails_without_program() -> None:
    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", bare / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "solve-100k",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, proc.stdout
    assert '"metrics"' not in proc.stdout, proc.stdout


def main() -> int:
    require_program()
    bench = _definitions()
    checks = (
        check_metrics_emitted,
        check_counts_repeat,
        check_wrong_answer_counted,
        check_fails_without_program,
    )
    for check in checks:
        start = time.perf_counter()
        if check is check_metrics_emitted:
            check(bench)
        else:
            check()
        print(f"ok  {check.__name__} ({time.perf_counter() - start:.1f}s)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
