"""Correlation, significance and regression-error statistics.

Significance tests use the exact Student t distribution. The two-tailed
p-value is evaluated through the regularized incomplete beta function,
computed by a modified-Lentz continued fraction (accurate to ~1e-14, well
inside the 1e-10 budget), so the package has no runtime dependency on a
stats library.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence

_CF_EPS = 3e-14
_CF_FPMIN = 1e-300
_CF_MAX_ITER = 300


class Strength(str, enum.Enum):
    ZERO = "Zero"
    WEAK = "Weak"
    MODERATE = "Moderate"
    STRONG = "Strong"
    PERFECT = "Perfect"


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_FPMIN:
        d = _CF_FPMIN
    d = 1.0 / d
    h = d
    for it in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * it
        aa = it * (b - it) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_FPMIN:
            d = _CF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _CF_FPMIN:
            c = _CF_FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + it) * (qab + it) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_FPMIN:
            d = _CF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _CF_FPMIN:
            c = _CF_FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("shape parameters must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x out of range: {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # the continued fraction converges fast only on one side of the mean
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def student_t_two_tailed_p(t_stat: float, dof: int) -> float:
    """P(|T| >= |t|) for T ~ Student t with ``dof`` degrees of freedom."""
    if dof < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if math.isnan(t_stat):
        raise ValueError("t statistic is NaN")
    if math.isinf(t_stat):
        return 0.0
    x = dof / (dof + t_stat * t_stat)
    return regularized_incomplete_beta(dof / 2.0, 0.5, x)


def _float_list(values: Sequence[float], name: str) -> list[float]:
    if getattr(values, "ndim", 1) != 1:
        raise ValueError(f"{name} must be one-dimensional")
    try:
        return [float(v) for v in values]
    except TypeError:  # not a sequence, or a sequence of sequences
        raise ValueError(f"{name} must be one-dimensional") from None


def _scale_to_unit(values: list[float]) -> list[float]:
    """``values`` times 2^-e, where 2^(e-1) <= max|v| < 2^e.

    Scaling by a power of two is exact unless a value becomes subnormal, so
    for normal-range input it changes no rounding of the sums computed from
    the scaled values.
    """
    e = math.frexp(max(map(abs, values)))[1]
    return [math.ldexp(v, -e) for v in values]


def pearson(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Product-moment correlation with a two-tailed significance p-value.

    Requires n >= 3 and non-constant series. The p-value comes from
    t = r sqrt((n-2) / (1-r^2)) against the t distribution with n-2 dof.
    The means and the sums of squares and products are correctly rounded
    (``math.fsum``), in Python floats: the ``correlate`` stage loads no numpy.
    Each series is first scaled by a power of two into [-1, 1], so squares
    and products neither underflow nor overflow at extreme magnitudes.
    """
    xs, ys = _float_list(x, "x"), _float_list(y, "y")
    if len(xs) != len(ys):
        raise ValueError("series lengths differ")
    n = len(xs)
    if n < 3:
        raise ValueError("pearson requires at least 3 samples")
    # a rounded mean can differ from every value of a constant series
    if min(xs) == max(xs) or min(ys) == max(ys):
        raise ValueError("pearson is undefined for a constant series")
    xs, ys = _scale_to_unit(xs), _scale_to_unit(ys)
    mx, my = math.fsum(xs) / n, math.fsum(ys) / n
    dx = [v - mx for v in xs]
    dy = [v - my for v in ys]
    # a scaled non-constant series has a value of magnitude >= 1/2 and another
    # at least 2^-54 from it, so some |deviation| >= 2^-55: neither sum is 0
    ssx = math.fsum(d * d for d in dx)
    ssy = math.fsum(d * d for d in dy)
    r = math.fsum(a * b for a, b in zip(dx, dy)) / math.sqrt(ssx * ssy)
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        return r, 0.0
    t_stat = r * math.sqrt((n - 2) / (1.0 - r * r))
    return r, student_t_two_tailed_p(t_stat, n - 2)


def classify_strength(r: float) -> Strength:
    """Five-way |r| banding with midpoint boundaries 0.05/0.35/0.65/0.95."""
    a = abs(r)
    if a > 1.0:
        raise ValueError(f"|r| must be <= 1, got {r}")
    if a < 0.05:
        return Strength.ZERO
    if a < 0.35:
        return Strength.WEAK
    if a < 0.65:
        return Strength.MODERATE
    if a < 0.95:
        return Strength.STRONG
    return Strength.PERFECT


def rse(predicted: Sequence[float], actual: Sequence[float]) -> float:
    """Relative squared error: squared residuals over squared deviation from mean.

    Both sums and the mean are correctly rounded (``math.fsum``), in Python
    floats, so ``evaluate --predictor linear`` loads no numpy. Predicting
    ``actual`` gives 0, and predicting its mean as computed here,
    ``fsum(actual) / n``, gives exactly 1.
    """
    ps, ys = _float_list(predicted, "predicted"), _float_list(actual, "actual")
    if len(ps) != len(ys):
        raise ValueError("series lengths differ")
    n = len(ys)
    if n < 2:
        raise ValueError("rse requires at least 2 samples")
    mean = math.fsum(ys) / n
    denom = math.fsum((y - mean) * (y - mean) for y in ys)
    if denom == 0.0:
        raise ValueError("rse is undefined for constant actuals")
    return math.fsum((p - y) * (p - y) for p, y in zip(ps, ys)) / denom


def r_squared(predicted: Sequence[float], actual: Sequence[float]) -> float:
    """Coefficient of determination, 1 - RSE."""
    return 1.0 - rse(predicted, actual)
