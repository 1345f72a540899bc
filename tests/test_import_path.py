"""What the set-up import path and the repair solve load.

``import repro, repro.api, repro.serve`` is the library's set-up,
``repro.cli`` is what ``python -m repro serve`` imports, and the repair
solve is what that server runs on start.  None of them needs NumPy (only
the Theorem 5.1 phase solve and the power-law fits do) or networkx (only
the dict-graph generators, validators and lower-bound constructions do),
so both stay unloaded until a caller reaches one of those layers.  The
checks run in a fresh interpreter, since this test process has long
imported both.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_PROBE = """
import json, sys
def loaded():
    return sorted(m for m in ("numpy", "networkx") if m in sys.modules)
import repro, repro.api, repro.serve
found = {"import": loaded()}
import repro.cli
found["cli"] = loaded()
instance = repro.Instance.build(
    "scale-layered", num_levels=4, width=25, edge_probability=0.05, seed=3
)
solved = repro.solve(instance, algorithm="repair", seed=3)
assert solved.is_stable()
found["repair"] = loaded()
print(json.dumps(found))
"""


def _loaded_modules() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_setup_cli_and_repair_solve_load_neither_numpy_nor_networkx():
    loaded = _loaded_modules()
    assert loaded["import"] == [], loaded
    assert loaded["cli"] == [], loaded
    assert loaded["repair"] == [], loaded
