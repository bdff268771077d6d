"""Small-sample interval statistics without scipy.

The adaptive sweep controller (:mod:`repro.adaptive`) stops a grid cell
once two confidence intervals are narrow enough:

* the **Wilson score interval** on the cell's decode probability --
  well-behaved at the boundary cases (0 or n successes out of n) where
  the naive Wald interval collapses to zero width, which is exactly the
  regime settled grid cells live in;
* the **Student-t interval** on the mean inefficiency ratio of the
  decoded runs.

Both need distribution quantiles the standard library does not provide,
so they are implemented here from scratch: the inverse normal CDF via
Acklam's rational approximation (relative error < 1.15e-9), and the
Student-t quantile by bisecting the t CDF, which is computed through the
regularized incomplete beta function (Lentz's continued fraction, the
Numerical Recipes formulation).  Accuracy is far beyond what a stopping
rule needs and is pinned against table values in the test suite.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Tuple

__all__ = [
    "normal_quantile",
    "regularized_incomplete_beta",
    "student_t_cdf",
    "t_quantile",
    "wilson_interval",
    "mean_interval_halfwidth",
]


# Acklam's inverse-normal-CDF coefficients.
_A = (
    -3.969683028665376e01,
    2.209460984245205e02,
    -2.759285104469687e02,
    1.383577518672690e02,
    -3.066479806614716e01,
    2.506628277459239e00,
)
_B = (
    -5.447609879822406e01,
    1.615858368580409e02,
    -1.556989798598866e02,
    6.680131188771972e01,
    -1.328068155288572e01,
)
_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e00,
    -2.549732539343734e00,
    4.374664141464968e00,
    2.938163982698783e00,
)
_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e00,
    3.754408661907416e00,
)
_P_LOW = 0.02425


def normal_quantile(p: float) -> float:
    """Inverse standard-normal CDF (Acklam's approximation).

    ``p`` must be in the open interval (0, 1).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"normal_quantile needs 0 < p < 1, got {p}")
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        return (
            ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
        ) / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
    if p > 1.0 - _P_LOW:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -(
            ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
        ) / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
    q = p - 0.5
    r = q * q
    return (
        (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5])
        * q
        / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0)
    )


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"incomplete beta needs a, b > 0, got a={a}, b={b}")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    # Use the continued fraction directly where it converges fast,
    # and the symmetry relation on the other side.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def student_t_cdf(t: float, df: float) -> float:
    """CDF of Student's t distribution with ``df`` degrees of freedom."""
    if df <= 0.0:
        raise ValueError(f"student_t_cdf needs df > 0, got {df}")
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    tail = 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, x)
    return 1.0 - tail if t > 0.0 else tail


@lru_cache(maxsize=4096)
def t_quantile(p: float, df: float) -> float:
    """Inverse CDF of Student's t distribution (bisection on the CDF).

    ``p`` must be in (0, 1); ``df`` may be any positive real.  For the
    degrees of freedom a stopping rule sees (df >= 1) the bisection
    converges to ~1e-12 absolute in the ~100 iterations used here.
    Memoized: a stopping rule asks for the same few (confidence, run
    count) pairs for every cell of every round.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"t_quantile needs 0 < p < 1, got {p}")
    if df <= 0.0:
        raise ValueError(f"t_quantile needs df > 0, got {df}")
    if p == 0.5:
        return 0.0
    # Bracket the root around the normal quantile, expanding for the
    # heavy tails of small df.
    guess = normal_quantile(p)
    width = max(1.0, abs(guess)) * 2.0
    lo, hi = guess - width, guess + width
    while student_t_cdf(lo, df) > p:
        lo -= width
        width *= 2.0
    while student_t_cdf(hi, df) < p:
        hi += width
        width *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if student_t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def wilson_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Returns ``(low, high)``; with zero trials the interval is the whole
    [0, 1] (nothing is known yet).
    """
    if trials < 0 or successes < 0 or successes > trials:
        raise ValueError(
            f"wilson_interval needs 0 <= successes <= trials, "
            f"got successes={successes}, trials={trials}"
        )
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if trials == 0:
        return (0.0, 1.0)
    z = normal_quantile(0.5 + confidence / 2.0)
    n = float(trials)
    phat = successes / n
    z2 = z * z
    denominator = 1.0 + z2 / n
    center = (phat + z2 / (2.0 * n)) / denominator
    half = (
        z * math.sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n)) / denominator
    )
    return (max(0.0, center - half), min(1.0, center + half))


def mean_interval_halfwidth(
    count: int, variance: float, confidence: float = 0.95
) -> float:
    """Half-width of the Student-t confidence interval on a sample mean.

    ``variance`` is the sample variance (ddof=1).  Returns ``inf`` when
    fewer than two observations exist (no variance estimate yet) and 0.0
    for a degenerate zero-variance sample.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if count < 2 or not math.isfinite(variance):
        return float("inf")
    if variance <= 0.0:
        return 0.0
    t = t_quantile(0.5 + confidence / 2.0, df=count - 1)
    return t * math.sqrt(variance / count)
