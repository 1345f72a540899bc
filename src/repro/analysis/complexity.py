"""Growth-exponent fitting for round-complexity experiments.

The paper's results are asymptotic bounds (O(L·Δ²), O(Δ⁴), O(Δ), ...).
The benchmark harness measures round counts across parameter sweeps and
uses this module to

* fit a power law ``rounds ≈ a · x^b`` on a log--log scale and report the
  exponent ``b`` (experiments compare it against the theorem's exponent),
* check that the measured values never exceed an explicit-constant version
  of the bound (``max_bound_ratio``), and
* compare two algorithms' scaling (who wins, and how the gap evolves).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of ``y ≈ coefficient · x^exponent``."""

    exponent: float
    coefficient: float
    r_squared: float

    def predict(self, x: float) -> float:
        """Predicted y value at ``x``."""
        return self.coefficient * x**self.exponent

    def __str__(self) -> str:
        return (
            f"y ≈ {self.coefficient:.3g} · x^{self.exponent:.2f} "
            f"(R²={self.r_squared:.3f})"
        )


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> PowerLawFit:
    """Fit ``y = c · x^b`` by linear regression on logarithms.

    Requires at least two distinct positive x values and positive y values
    (zero y values are clamped to 1, which is the right floor for round
    counts: an algorithm cannot take fewer than one round once it does
    anything at all).
    """
    import numpy as np

    if len(xs) != len(ys):
        raise ValueError("xs and ys must have the same length")
    if len(xs) < 2:
        raise ValueError("need at least two points to fit a power law")
    xs_arr = np.asarray(xs, dtype=float)
    ys_arr = np.asarray(ys, dtype=float)
    # Round counts of 0 (an algorithm that never had to act) are clamped to
    # 1 so the logarithm exists; positive fractional values are left alone.
    ys_arr = np.where(ys_arr <= 0, 1.0, ys_arr)
    if np.any(xs_arr <= 0):
        raise ValueError("x values must be positive")
    if len(set(xs_arr.tolist())) < 2:
        raise ValueError("need at least two distinct x values")

    log_x = np.log(xs_arr)
    log_y = np.log(ys_arr)
    slope, intercept = np.polyfit(log_x, log_y, deg=1)
    predictions = slope * log_x + intercept
    residual = float(np.sum((log_y - predictions) ** 2))
    total = float(np.sum((log_y - np.mean(log_y)) ** 2))
    r_squared = 1.0 if total == 0 else max(0.0, 1.0 - residual / total)
    return PowerLawFit(
        exponent=float(slope),
        coefficient=float(math.exp(intercept)),
        r_squared=r_squared,
    )


def max_bound_ratio(
    xs: Sequence[float], ys: Sequence[float], bound: Callable[[float], float]
) -> float:
    """The worst observed ``y / bound(x)`` ratio.

    A value ≤ 1 certifies that every measurement respects the explicit
    bound; experiments report this next to the fitted exponent.
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have the same length")
    worst = 0.0
    for x, y in zip(xs, ys):
        b = bound(x)
        if b <= 0:
            raise ValueError(f"bound({x}) = {b} must be positive")
        worst = max(worst, y / b)
    return worst


def crossover_point(
    xs: Sequence[float], ys_a: Sequence[float], ys_b: Sequence[float]
) -> Tuple[int, float] | None:
    """First index (and x value) at which series A becomes at least series B.

    Used to report "where the curves cross" in comparison experiments;
    returns ``None`` when A stays below B over the whole sweep.
    """
    if not (len(xs) == len(ys_a) == len(ys_b)):
        raise ValueError("all series must have the same length")
    for index, (x, a, b) in enumerate(zip(xs, ys_a, ys_b)):
        if a >= b:
            return index, float(x)
    return None


def speedup_series(
    ys_baseline: Sequence[float], ys_new: Sequence[float]
) -> list[float]:
    """Element-wise baseline / new ratios (values > 1 mean the new method wins)."""
    if len(ys_baseline) != len(ys_new):
        raise ValueError("series must have the same length")
    out = []
    for base, new in zip(ys_baseline, ys_new):
        out.append(float("inf") if new == 0 else base / new)
    return out
