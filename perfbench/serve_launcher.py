"""Traced server launcher: ``repro serve`` with the benchmark's layer wrappers.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/serve_launcher.py --dump OUT.json [--wrong-loads N] \
        -- serve --family scale-layered --params '{...}'

Installs :func:`tracing.install` in this process, then hands the remaining
arguments to ``repro.cli.main`` -- the same entry point as
``python -m repro`` -- and writes the in-memory spans to ``--dump`` once
the server has shut down.  ``--wrong-loads N`` makes the first ``N``
``load-of`` answers wrong by one; the benchmark's self-test uses it to
prove that a wrong served answer is counted as a failure.
"""

from __future__ import annotations

import argparse
import sys

from tracing import Tracer, install


def _corrupt_loads(count: int) -> None:
    from repro.core.orientation.incremental import DynamicOrientation

    original = DynamicOrientation.load_of
    remaining = [count]

    def load_of(self, node):
        load = original(self, node)
        if remaining[0] > 0:
            remaining[0] -= 1
            return load + 1
        return load

    DynamicOrientation.load_of = load_of


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", required=True, help="where to write the spans")
    parser.add_argument("--wrong-loads", type=int, default=0)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]

    from repro.cli import main as repro_main

    tracer = Tracer()
    install(tracer)
    if args.wrong_loads:
        _corrupt_loads(args.wrong_loads)
    try:
        return repro_main(serve_args)
    finally:
        tracer.dump(args.dump)


if __name__ == "__main__":
    sys.exit(main())
