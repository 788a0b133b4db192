"""Correlation and proportion-test statistics for comparing indicator outputs."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from typing import NamedTuple

__all__ = [
    "CorrelationResult",
    "ZTestResult",
    "pearson_r",
    "spearman_rho",
    "ztest_proportions",
    "normal_cdf",
]

_SQRT2 = math.sqrt(2.0)


class CorrelationResult(NamedTuple):
    coefficient: float
    n: int


class ZTestResult(NamedTuple):
    z: float
    p_two_sided: float
    pooled_proportion: float

    @property
    def p_one_sided(self) -> float:
        """p for the directional alternative matching the observed sign of z."""
        return self.p_two_sided / 2.0


def _unit_scaled(values: Sequence[float]) -> list[float]:
    """``values`` times the power of two that puts the largest magnitude in [0.5, 1)."""
    exponent = math.frexp(max(map(abs, values)))[1]
    return [math.ldexp(v, -exponent) for v in values]


def _check_finite(**vectors: Sequence[float]) -> None:
    """Raise ``ValueError`` naming the vector and the position of the first NaN or infinity."""
    for name, values in vectors.items():
        if not all(map(math.isfinite, values)):
            position = next(i for i, v in enumerate(values) if not math.isfinite(v))
            raise ValueError(f"{name}[{position}] is {values[position]!r}, not a finite number")


def pearson_r(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Product-moment correlation of two equal-length vectors.

    Raises ``ValueError`` on a length mismatch, on fewer than 2
    observations, on a NaN or infinity (naming the vector and position of
    the first), or when either vector is constant (zero variance): its
    smallest value equals its largest. Each vector, then its deviations
    from the mean, is scaled by the one power of two that puts its largest
    magnitude in [0.5, 1). That is exact but for subnormal results, so no
    sum over- or underflows, and a coefficient that never did is unchanged.
    """
    n = len(x)
    if n != len(y):
        raise ValueError(f"length mismatch: {n} vs {len(y)}")
    if n < 2:
        raise ValueError("need at least 2 observations")
    _check_finite(x=x, y=y)
    if min(x) == max(x) or min(y) == max(y):
        raise ValueError("zero variance")
    x, y = _unit_scaled(x), _unit_scaled(y)
    mean_x = math.fsum(x) / n
    mean_y = math.fsum(y) / n
    dx = _unit_scaled([v - mean_x for v in x])
    dy = _unit_scaled([v - mean_y for v in y])
    sxx = math.fsum(a * a for a in dx)
    syy = math.fsum(b * b for b in dy)
    sxy = math.fsum(a * b for a, b in zip(dx, dy))
    return CorrelationResult(sxy / math.sqrt(sxx * syy), n)


def _average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks; tied values share the mean of the positions their block spans in sorted order."""
    ordered = sorted(values)
    return [(bisect_left(ordered, v) + bisect_right(ordered, v) + 1) / 2 for v in values]


def spearman_rho(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Rank correlation: :func:`pearson_r` of the average-rank vectors, and its errors; NaN or infinity fails first."""
    _check_finite(x=x, y=y)
    return pearson_r(_average_ranks(x), _average_ranks(y))


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / _SQRT2)


def ztest_proportions(k1: int, n1: int, k2: int, n2: int) -> ZTestResult:
    """Two-sample z-test for independent proportions (pooled variance).

    Args:
        k1, n1: Successes and trials of the first sample.
        k2, n2: Successes and trials of the second sample.

    Returns:
        :class:`ZTestResult` with the statistic, its two-sided p-value
        from the standard normal, and the pooled proportion. Swapping the
        samples negates ``z`` exactly.
    """
    if n1 <= 0 or n2 <= 0:
        raise ValueError("trial counts must be positive")
    if not 0 <= k1 <= n1 or not 0 <= k2 <= n2:
        raise ValueError("successes must lie in [0, trials]")
    pooled = (k1 + k2) / (n1 + n2)
    if pooled == 0.0 or pooled == 1.0:
        raise ValueError("degenerate proportions: pooled variance is zero")
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))
    z = (k1 / n1 - k2 / n2) / se
    p = 2.0 * normal_cdf(-abs(z))
    return ZTestResult(z, p, pooled)
