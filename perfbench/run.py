"""The repository benchmark: one command, three workloads, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload solve-100k --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/spec.json`` for why each was chosen, its
loop, sizes and the layer-to-metric map):

* ``solve-100k``: the in-process pipeline at 10^5 nodes
  (:mod:`solve_workload`);
* ``serve-mixed`` and ``serve-read``: a ``repro serve`` process under a
  closed-loop load generator (:mod:`serve_workload`).  ``BENCHMARK.json``
  lists ``solve-100k`` and ``serve-mixed``; ``serve-read`` runs on request
  and in the self-test.

The benchmark and every process it starts run on one CPU, and timings
are reported at a reference host speed (:mod:`hostspeed`).

``--trace 0`` measures with no wrappers installed and reports the
end-to-end metrics listed in ``BENCHMARK.json``.  ``--trace 1`` installs
the layer wrappers of :mod:`tracing` (in this process, or in the server
through ``serve_launcher.py``), writes the spans to
``.perfbench/trace-<workload>-<seed>.json`` and reports the per-layer
metrics.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from common import (
    OUT,
    ROOT,
    Tally,
    pin_to_one_cpu,
    provenance,
    require_program,
    write_json,
)

WORKLOADS = ("solve-100k", "serve-read", "serve-mixed")


def _definitions():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    with open(ROOT / "perfbench" / "spec.json") as fh:
        spec = json.load(fh)
    return bench, spec


def run_workload(workload, seed, seconds, traced, size="100k", wrong_loads=0):
    """Run one workload; returns ``(tally, figures)``."""
    tally = Tally()
    try:
        if workload == "solve-100k":
            import solve_workload

            figures = solve_workload.run(seed, seconds, traced, size, tally)
        else:
            import serve_workload

            figures = serve_workload.run(
                workload, seed, seconds, traced, size, tally, wrong_loads
            )
    except Exception as exc:  # the run boundary: report, never hang
        traceback.print_exc()
        tally.fail(f"{workload}: run aborted: {exc!r}")
        figures = {}
    attempted = max(tally.attempted, 1)
    figures["error_rate"] = tally.failed / attempted
    figures["success_rate"] = 1.0 - figures["error_rate"]
    return tally, figures


def metrics_of(figures, definitions, traced):
    """The reported metrics, by name with unit, of one workload's figures."""
    source = figures.get("layers", {}) if traced else figures
    return {
        d["name"]: {"value": source[d["name"]], "unit": d["unit"]}
        for d in definitions
        if d["name"] in source
    }


def report(workload, figures, metrics, tally, spec, traced) -> None:
    info = spec["workloads"][workload]
    print(f"== {workload} ({'traced' if traced else 'untraced'}): {info['why']}")
    width = max(len(name) for name in metrics) if metrics else 0
    for name, metric in metrics.items():
        print(f"  {name:<{width}}  {metric['value']:.6g} {metric['unit']}")
    if not traced:
        print(f"  {'error_rate':<{width}}  {figures['error_rate']:.6g} ratio")
    extras = {
        k: v for k, v in figures.items()
        if k not in metrics and k not in ("layers", "record", "error_rate")
    }
    if extras:
        print("  also: " + ", ".join(f"{k}={v:.6g}" for k, v in extras.items()))
    print(f"  attempted={tally.attempted} failed={tally.failed}")
    for reason in tally.reasons:
        print(f"  FAILED: {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the repository benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("100k", "tiny"), default="100k",
        help="instance size; 'tiny' (~10^3 nodes) is for the self-test",
    )
    args = parser.parse_args(argv)
    require_program()
    bench, spec = _definitions()
    traced = bool(args.trace)
    definitions = bench["per_layer"] if traced else bench["end_to_end"]

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    origin = provenance()
    origin["cpu"] = pin_to_one_cpu()
    print("provenance: " + json.dumps(origin, sort_keys=True))
    total = Tally()
    combined = {}
    records = {}
    for workload in workloads:
        tally, figures = run_workload(
            workload, args.seed, args.seconds, traced, args.size
        )
        metrics = metrics_of(figures, definitions, traced)
        report(workload, figures, metrics, tally, spec, traced)
        total.merge(tally)
        records[workload] = {"figures": figures, "reasons": tally.reasons}
        if args.workload == "all":
            metrics = {f"{workload}.{k}": v for k, v in metrics.items()}
        combined.update(metrics)

    write_json(
        OUT / f"run-{args.workload}-{args.seed}-trace{args.trace}.json",
        {"provenance": origin, "args": vars(args), "workloads": records},
    )
    correct = total.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(total.attempted, 1),
                "failed": total.failed,
                "metrics": combined,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
