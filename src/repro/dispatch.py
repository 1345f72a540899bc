"""Backend dispatch: compact fast-path kernels vs. dict reference paths.

Several public entry points (``sequential_flip_algorithm``,
``best_response_dynamics``, ``greedy_assignment``, the token dropping
solvers, and the full stable-orientation pipeline —
``run_stable_orientation``, ``synchronous_repair_orientation``,
``run_bounded_stable_orientation``) have two implementations:

* the **dict reference path** — the original implementation over
  dict-of-Hashable structures, kept as the readable correctness oracle;
* the **compact fast path** — an int-array kernel over the CSR
  representations of :mod:`repro.graphs.compact` that reproduces the
  reference results exactly (asserted by the cross-validation suite).

The dispatch rule
-----------------
1. An explicit ``backend=`` keyword on the call wins.
2. Otherwise the ``REPRO_BACKEND`` environment variable applies.
3. Otherwise (``auto``) each entry point's preferred backend is used —
   compact for iterative algorithms, dict for single-pass greedy on
   not-yet-interned inputs (see :func:`resolve_backend`).

``backend="compact"`` (or ``REPRO_BACKEND=compact``) forces the fast
path; ``backend="dict"`` forces the reference path — the debugging
escape hatch.  Unknown names raise :class:`BackendError`.
"""

from __future__ import annotations

import os
from typing import Optional

#: Recognised backend names, in documentation order.
BACKENDS = ("auto", "compact", "dict")

#: Environment variable consulted when no per-call backend is given.
BACKEND_ENV_VAR = "REPRO_BACKEND"


class BackendError(ValueError):
    """Raised for unrecognised backend names."""


def resolve_backend(
    backend: Optional[str] = None,
    *,
    auto: str = "compact",
) -> str:
    """Resolve a per-call backend choice to a concrete backend name.

    Parameters
    ----------
    backend:
        Per-call override (``"auto"``, ``"compact"``, ``"dict"`` or None
        to defer to the environment).
    auto:
        What ``auto`` resolves to.  Iterative entry points amortize the
        one-time interning cost and default to ``"compact"``; single-pass
        ones (e.g. greedy assignment) pass ``"dict"`` unless the input is
        already compact, because re-representing would cost more than the
        pass saves.
    """
    if backend is not None:
        choice = backend
        source = "the backend= argument"
    else:
        choice = os.environ.get(BACKEND_ENV_VAR, "auto")
        source = f"the {BACKEND_ENV_VAR} environment variable"
    if not isinstance(choice, str):
        # A non-string (e.g. backend=1) must raise the documented error,
        # not an AttributeError from .lower() below.
        raise BackendError(
            f"backend name must be a string, got {choice!r} "
            f"({type(choice).__name__}) from {source}"
        )
    choice = choice.lower().strip()
    if choice not in BACKENDS:
        raise BackendError(
            f"unknown backend {choice!r} from {source}; "
            f"expected one of {BACKENDS}"
        )
    if choice == "auto":
        return auto
    return choice
