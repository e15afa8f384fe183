"""Numerical primitives backing the hypothesis tests: error function,
normal CDF/quantile, the logistic function, regularized incomplete beta,
and the Student-t / F distribution functions derived from it.

Everything here is self-contained (stdlib math + numpy); accuracy notes
are given per function because the test p-values depend on them.
"""

from __future__ import annotations

import math

import numpy as np

_BETACF_MAX_ITER = 300
_BETACF_EPS = 3.0e-16
_BETACF_FPMIN = 1.0e-300


def erfc(x):
    """Complementary error function, vectorized.

    Chebyshev fit (Numerical Recipes erfcc); fractional error < 1.2e-7
    everywhere, which is ample for the normal-approximation p-values and
    the Lilliefors statistic that use it.
    """
    x = np.asarray(x, dtype=float)
    z = np.abs(x)
    t = 1.0 / (1.0 + 0.5 * z)
    poly = -1.26551223 + t * (1.00002368 + t * (0.37409196 + t * (0.09678418
        + t * (-0.18628806 + t * (0.27886807 + t * (-1.13520398 + t * (1.48851587
        + t * (-0.82215223 + t * 0.17087277))))))))
    ans = t * np.exp(-z * z + poly)
    out = np.where(x >= 0.0, ans, 2.0 - ans)
    return float(out) if out.ndim == 0 else out


def norm_cdf(x):
    """Standard normal CDF."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * erfc(-x / math.sqrt(2.0))
    return float(out) if np.ndim(out) == 0 else out


def norm_sf(x):
    """Standard normal survival function, accurate in the upper tail."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * erfc(x / math.sqrt(2.0))
    return float(out) if np.ndim(out) == 0 else out


SIGMOID_CLIP = 500.0


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function, with z clipped to [-500, 500] so exp cannot overflow."""
    return 1.0 / (1.0 + np.exp(-np.clip(z, -SIGMOID_CLIP, SIGMOID_CLIP)))


# Acklam's rational approximation to the normal quantile; relative error
# below 1.15e-9 over the full open interval.
_PPF_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
          1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_PPF_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
          6.680131188771972e+01, -1.328068155288572e+01)
_PPF_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
          -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_PPF_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
          3.754408661907416e+00)


def _norm_ppf_scalar(p: float) -> float:
    if not 0.0 < p < 1.0:
        if p == 0.0:
            return -math.inf
        if p == 1.0:
            return math.inf
        raise ValueError(f"quantile argument must be in [0, 1], got {p}")
    a, b, c, d = _PPF_A, _PPF_B, _PPF_C, _PPF_D
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if p > 1.0 - p_low:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
                ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)


def norm_ppf(p):
    """Standard normal quantile function (inverse CDF)."""
    if np.ndim(p) == 0:
        return _norm_ppf_scalar(float(p))
    return np.array([_norm_ppf_scalar(float(v)) for v in np.asarray(p).ravel()]).reshape(np.shape(p))


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETACF_FPMIN:
        d = _BETACF_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETACF_FPMIN:
            d = _BETACF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETACF_FPMIN:
            c = _BETACF_FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETACF_FPMIN:
            d = _BETACF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETACF_FPMIN:
            c = _BETACF_FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETACF_EPS:
            return h
    raise RuntimeError(f"incomplete beta continued fraction failed to converge (a={a}, b={b}, x={x})")


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    Relative accuracy ~1e-13; used for the t and F distribution functions.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError("betainc requires a > 0 and b > 0")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_bt = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
             + a * math.log(x) + b * math.log1p(-x))
    bt = math.exp(ln_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x) / b


def t_sf_two_sided(t: float, df: float) -> float:
    """Two-sided tail probability P(|T_df| >= |t|) for Student's t.

    Uses the identity 2*P(T >= |t|) = I_{df/(df+t^2)}(df/2, 1/2), which is
    stable for large |t|.
    """
    if df <= 0.0:
        raise ValueError("degrees of freedom must be positive")
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    return betainc(df / 2.0, 0.5, x)


def f_cdf(f: float, d1: float, d2: float) -> float:
    """F distribution CDF P(F_{d1,d2} <= f)."""
    if d1 <= 0.0 or d2 <= 0.0:
        raise ValueError("degrees of freedom must be positive")
    if f <= 0.0:
        return 0.0
    x = d1 * f / (d1 * f + d2)
    return betainc(d1 / 2.0, d2 / 2.0, x)


def f_sf(f: float, d1: float, d2: float) -> float:
    """F distribution survival function P(F_{d1,d2} >= f), tail-stable."""
    if d1 <= 0.0 or d2 <= 0.0:
        raise ValueError("degrees of freedom must be positive")
    if f <= 0.0:
        return 1.0
    x = d2 / (d2 + d1 * f)
    return betainc(d2 / 2.0, d1 / 2.0, x)
