"""Unit tests for ``scripts/check_bench_regression.py``.

The gate logic is exercised with injected fake gates and a monkeypatched
``timed_median``, so no real benchmark instance is built: the tests cover
the passing path, a >3x regression, the silent-fallback ratio failure,
the min-budget floor for millisecond-scale scenarios, agreement failures,
budget-only suites, and missing/malformed BENCH files.  One registry test
asserts every gate points at a scenario that is actually committed.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "scripts" / "check_bench_regression.py"

spec = importlib.util.spec_from_file_location("check_bench_regression", SCRIPT)
cbr = importlib.util.module_from_spec(spec)
# The dataclass decorator resolves string annotations through
# sys.modules[cls.__module__], so the module must be registered first.
sys.modules["check_bench_regression"] = cbr
spec.loader.exec_module(cbr)


def _write_bench(tmp_path: Path, suite: str, scenario: str, median: float) -> None:
    (tmp_path / f"BENCH_{suite}.json").write_text(
        json.dumps({"scenarios": {scenario: {"median_seconds": median}}})
    )


def _fake_gate(
    *, with_reference: bool = True, agreement_error=None, min_ratio=None
) -> "cbr.SuiteGate":
    return cbr.SuiteGate(
        scenario="scenario",
        prepare=lambda: {},
        run=lambda ctx: None,
        reference=(lambda ctx: None) if with_reference else None,
        check_agreement=(
            (lambda ctx: agreement_error) if with_reference else None
        ),
        min_ratio=min_ratio,
    )


def _patch(monkeypatch, gate, timings) -> None:
    """Install one fake suite and a deterministic timer.

    ``timings`` are consumed in call order: the gated path is timed
    first, the reference (when present) second.
    """
    monkeypatch.setattr(cbr, "GATES", {"fake": lambda: gate})
    feed = iter(timings)
    monkeypatch.setattr(cbr, "timed_median", lambda fn, rounds: next(feed))


def test_passing_gate(monkeypatch, tmp_path):
    _write_bench(tmp_path, "fake", "scenario", 0.1)
    _patch(monkeypatch, _fake_gate(), [0.12, 1.0])
    assert cbr.main(["--bench-dir", str(tmp_path)]) == 0


def test_provenance_and_extra_keys_are_ignored(monkeypatch, tmp_path):
    # Regenerated BENCH files carry a top-level "provenance" stamp and
    # per-scenario phase_median_* rows; the gate must only ever read
    # scenarios[...]["median_seconds"].
    (tmp_path / "BENCH_fake.json").write_text(
        json.dumps(
            {
                "provenance": {
                    "git_sha": "deadbeef",
                    "python_version": "3.99.0",
                    "platform": "ci-runner",
                    "timestamp": "2026-08-08T00:00:00+00:00",
                },
                "scenarios": {
                    "scenario": {
                        "median_seconds": 0.1,
                        "phase_median_orientation.phase": 0.004,
                        "rounds": 8,
                    }
                },
            }
        )
    )
    _patch(monkeypatch, _fake_gate(), [0.12, 1.0])
    assert cbr.main(["--bench-dir", str(tmp_path)]) == 0


def test_regression_beyond_budget_fails(monkeypatch, tmp_path, capsys):
    _write_bench(tmp_path, "fake", "scenario", 0.1)
    _patch(monkeypatch, _fake_gate(), [0.5, 5.0])
    assert cbr.main(["--bench-dir", str(tmp_path)]) == 1
    assert "regressed more than 3.0x" in capsys.readouterr().err


def test_silent_fallback_ratio_fails(monkeypatch, tmp_path, capsys):
    # Within budget, but the dict reference is barely slower: the ratio
    # floor catches a compact path that silently fell back.
    _write_bench(tmp_path, "fake", "scenario", 0.1)
    _patch(monkeypatch, _fake_gate(), [0.1, 0.15])
    assert cbr.main(["--bench-dir", str(tmp_path)]) == 1
    assert "silent fall-back" in capsys.readouterr().err


def test_per_gate_min_ratio_overrides_cli_default(monkeypatch, tmp_path, capsys):
    # A 5x ratio passes the 3x CLI default but fails a gate that demands
    # 10x (the churn gate's incremental-vs-scratch contract).
    _write_bench(tmp_path, "fake", "scenario", 0.1)
    _patch(monkeypatch, _fake_gate(min_ratio=10.0), [0.1, 0.5])
    assert cbr.main(["--bench-dir", str(tmp_path)]) == 1
    assert "floor 10.0x" in capsys.readouterr().err

    _patch(monkeypatch, _fake_gate(min_ratio=10.0), [0.1, 1.5])
    assert cbr.main(["--bench-dir", str(tmp_path)]) == 0


def test_min_budget_floor_shields_millisecond_scenarios(monkeypatch, tmp_path):
    # 10x over a 1 ms committed median is still far below the 50 ms
    # absolute floor, so a slow runner cannot flake the gate.
    _write_bench(tmp_path, "fake", "scenario", 0.001)
    _patch(monkeypatch, _fake_gate(), [0.01, 0.2])
    assert cbr.main(["--bench-dir", str(tmp_path)]) == 0


def test_agreement_failure_fails_before_timing(monkeypatch, tmp_path, capsys):
    _write_bench(tmp_path, "fake", "scenario", 0.1)
    gate = _fake_gate(agreement_error="backends disagree")
    monkeypatch.setattr(cbr, "GATES", {"fake": lambda: gate})

    def no_timing(fn, rounds):  # pragma: no cover - would mean a bug
        raise AssertionError("timing must not run after an agreement failure")

    monkeypatch.setattr(cbr, "timed_median", no_timing)
    assert cbr.main(["--bench-dir", str(tmp_path)]) == 1
    assert "backends disagree" in capsys.readouterr().err


def test_budget_only_suite_skips_ratio(monkeypatch, tmp_path):
    _write_bench(tmp_path, "fake", "scenario", 0.1)
    # Only one timing is consumed: a second call would raise StopIteration.
    _patch(monkeypatch, _fake_gate(with_reference=False), [0.12])
    assert cbr.main(["--bench-dir", str(tmp_path)]) == 0


def test_missing_bench_file(monkeypatch, tmp_path, capsys):
    _patch(monkeypatch, _fake_gate(), [])
    assert cbr.main(["--bench-dir", str(tmp_path)]) == 2
    assert "no committed median" in capsys.readouterr().err


def test_malformed_bench_file(monkeypatch, tmp_path, capsys):
    (tmp_path / "BENCH_fake.json").write_text("{not json")
    _patch(monkeypatch, _fake_gate(), [])
    assert cbr.main(["--bench-dir", str(tmp_path)]) == 2
    assert "no committed median" in capsys.readouterr().err


def test_scenario_missing_from_bench_file(monkeypatch, tmp_path):
    _write_bench(tmp_path, "fake", "another_scenario", 0.1)
    _patch(monkeypatch, _fake_gate(), [])
    assert cbr.main(["--bench-dir", str(tmp_path)]) == 2


def test_suite_filter_limits_gating(monkeypatch, tmp_path):
    gate = _fake_gate(with_reference=False)
    other_calls = []

    def other_factory():
        other_calls.append(1)  # pragma: no cover - would mean a bug
        raise AssertionError("unselected suite must not be built")

    monkeypatch.setattr(
        cbr, "GATES", {"fake": lambda: gate, "other": other_factory}
    )
    _write_bench(tmp_path, "fake", "scenario", 0.1)
    feed = iter([0.1])
    monkeypatch.setattr(cbr, "timed_median", lambda fn, rounds: next(feed))
    assert cbr.main(["--suite", "fake", "--bench-dir", str(tmp_path)]) == 0
    assert not other_calls


def test_timing_rounds_scale_for_fast_scenarios():
    assert cbr.timing_rounds(1.0, 5) == 5
    assert cbr.timing_rounds(0.002, 5) == 25  # capped
    assert cbr.timing_rounds(0.02, 5) == 5
    assert cbr.timing_rounds(0.004, 5) == 13


@pytest.mark.parametrize("suite", sorted(cbr.GATES))
def test_gate_scenarios_are_committed(suite):
    """Every registered gate re-times a scenario that is committed."""
    gate = cbr.GATES[suite]()
    payload = json.loads((REPO_ROOT / f"BENCH_{suite}.json").read_text())
    assert gate.scenario in payload["scenarios"], (suite, gate.scenario)


def test_serve_gate_contract():
    # The serve gate's whole point is the coalesced-vs-naive floor: it
    # must carry the 10x override and time a naive reference path.
    gate = cbr.GATES["serve"]()
    assert gate.scenario == "test_serve_coalesced_replay"
    assert gate.min_ratio == 10.0
    assert gate.reference_label == "naive"
    assert gate.reference is not None
    assert gate.check_agreement is not None


def test_serve_gate_agreement_on_the_real_server():
    """The serve gate's agreement check holds on the deployed plumbing."""
    gate = cbr.GATES["serve"]()
    ctx = gate.prepare()
    try:
        assert gate.check_agreement(ctx) is None
        # The persistent warmed sessions stay usable for the timed paths.
        gate.run(ctx)
    finally:
        for client in (ctx["fast"], ctx["naive"]):
            client.close()
        for thread in ctx["threads"]:
            thread.stop()


def _write_bench_with_peak(tmp_path, suite, scenario, median, peak_mb):
    (tmp_path / f"BENCH_{suite}.json").write_text(
        json.dumps(
            {
                "scenarios": {
                    scenario: {
                        "median_seconds": median,
                        "extra_info": {"peak_mb": peak_mb},
                    }
                }
            }
        )
    )


def _memory_gate():
    return cbr.SuiteGate(
        scenario="scenario",
        prepare=lambda: {},
        run=lambda ctx: None,
        gate_peak_mb=True,
    )


def test_peak_mb_within_budget_passes(monkeypatch, tmp_path, capsys):
    _write_bench_with_peak(tmp_path, "fake", "scenario", 0.1, 100.0)
    _patch(monkeypatch, _memory_gate(), [0.12])
    monkeypatch.setattr(cbr, "measured_peak_mb", lambda fn: 150.0)
    assert cbr.main(["--bench-dir", str(tmp_path)]) == 0
    assert "peak 150.0MB" in capsys.readouterr().out


def test_peak_mb_regression_fails(monkeypatch, tmp_path, capsys):
    _write_bench_with_peak(tmp_path, "fake", "scenario", 0.1, 100.0)
    _patch(monkeypatch, _memory_gate(), [0.12])
    monkeypatch.setattr(cbr, "measured_peak_mb", lambda fn: 400.0)
    assert cbr.main(["--bench-dir", str(tmp_path)]) == 1
    assert "memory regression" in capsys.readouterr().err


def test_peak_mb_floor_shields_small_scenarios(monkeypatch, tmp_path):
    # 10x over a 3 MB committed peak is still below the 64 MB absolute
    # floor: tiny scenarios cannot flake on allocator noise.
    _write_bench_with_peak(tmp_path, "fake", "scenario", 0.1, 3.0)
    _patch(monkeypatch, _memory_gate(), [0.12])
    monkeypatch.setattr(cbr, "measured_peak_mb", lambda fn: 30.0)
    assert cbr.main(["--bench-dir", str(tmp_path)]) == 0


def test_peak_mb_skipped_without_committed_column(monkeypatch, tmp_path):
    # gate_peak_mb on a row with no peak_mb column: the memory check is
    # skipped (old BENCH files), not treated as a failure.
    _write_bench(tmp_path, "fake", "scenario", 0.1)
    _patch(monkeypatch, _memory_gate(), [0.12])

    def no_peak(fn):  # pragma: no cover - would mean a bug
        raise AssertionError("peak must not be measured without a budget")

    monkeypatch.setattr(cbr, "measured_peak_mb", no_peak)
    assert cbr.main(["--bench-dir", str(tmp_path)]) == 0
