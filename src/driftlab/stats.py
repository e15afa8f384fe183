"""Two-sample hypothesis tests and normality tests used by the drift
detectors, implemented from first principles on top of
:mod:`driftlab.special`.

Conventions, fixed here and relied on by the tests:

* each test returns a statistic and a p-value and takes no significance
  level: whether to reject is the caller's choice (the drift detectors
  apply alpha in :mod:`driftlab.drift`);
* every p-value is two-sided except the Levene statistic's upper F tail
  (the statistic is one-sided by construction);
* two-sided tail doubling is ``min(1, 2 * min(lower, upper))``;
* Wilcoxon uses the exact rank-sum distribution (mid-rank ties handled by a
  subset-sum count over doubled ranks) while both samples have at most 20
  points, and the tie-corrected, continuity-corrected normal approximation
  beyond that;
* the Lilliefors p-value comes from a seeded Monte-Carlo null table per
  sample size (200k replicates by default, memoized), the same construction
  behind the published Lilliefors tables;
* Shapiro-Wilk follows Royston (1995), algorithm AS R94.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .special import f_cdf, f_sf, norm_cdf, norm_ppf, norm_sf, t_sf_two_sided

log = logging.getLogger(__name__)

SHAPIRO_WILK = "shapiro_wilk"
KS_NORMALITY = "ks_normality"
WELCH_T = "welch_t"
WILCOXON = "wilcoxon"
F_VARIANCE = "f_variance"
LEVENE = "levene"

_LILLIEFORS_SEED = 1967
_LILLIEFORS_REPLICATES = 200_000
# Normal draws per chunk of a null table. The erfc polynomial in norm_cdf
# holds several float64 temporaries of the chunk's size (2 MB each here), so
# this bounds the memory of a cold build: the (156, 200k) table raises the
# process peak RSS from 31 to 58 MB, against 344 MB at 4M draws per chunk.
_LILLIEFORS_CHUNK_DRAWS = 2 ** 18
_WILCOXON_EXACT_MAX_N = 20


class DegenerateSampleError(ValueError):
    """Raised when a sample has no usable variation for the requested test."""


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    test_name: str


@dataclass(frozen=True)
class CorrelationResult:
    r: float
    p: float


def _result(name: str, statistic: float, p_value: float) -> TestResult:
    p = float(min(1.0, max(0.0, p_value)))
    return TestResult(statistic=float(statistic), p_value=p, test_name=name)


def _as_sample(values, name: str, min_n: int) -> np.ndarray:
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size < min_n:
        raise ValueError(f"{name} requires at least {min_n} observations, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} requires finite observations")
    return arr


# ---------------------------------------------------------------------------
# Shapiro-Wilk (Royston 1995, AS R94)
# ---------------------------------------------------------------------------

_SW_C1 = (0.0, 0.221157, -0.147981, -2.071190, 4.434685, -2.706056)
_SW_C2 = (0.0, 0.042981, -0.293762, -1.752461, 5.682633, -3.582633)
_SW_C3 = (0.5440, -0.39978, 0.025054, -6.714e-4)
_SW_C4 = (1.3822, -0.77857, 0.062767, -0.0020322)
_SW_C5 = (-1.5861, -0.31082, -0.083751, 0.0038915)
_SW_C6 = (-0.4803, -0.082676, 0.0030302)
_SW_G = (-2.273, 0.459)


def _poly(coeffs, x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def shapiro_wilk(sample) -> TestResult:
    """Shapiro-Wilk normality test for 3 <= n <= 5000.

    W statistic and p-value per Royston's AS R94 approximation: Blom scores
    m_i = ppf((i - 3/8)/(n + 1/4)), polynomial-corrected end weights, then a
    normalizing transform of ln(1 - W) whose parameters depend on n.
    """
    x = _as_sample(sample, "shapiro_wilk", 3)
    n = x.size
    if n > 5000:
        raise ValueError(f"shapiro_wilk supports at most 5000 observations, got {n}")
    xs = np.sort(x)
    sse = float(np.sum((xs - xs.mean()) ** 2))
    # the constant-sample rule of ks_normality: the mean of a constant sample
    # can round away from its value and leave sse just above 0
    if xs[0] == xs[-1] or sse <= 0.0:
        raise DegenerateSampleError("degenerate sample: zero variance")

    n_half = n // 2
    if n == 3:
        weights = np.array([math.sqrt(0.5)])
    else:
        m_lower = norm_ppf((np.arange(1, n_half + 1) - 0.375) / (n + 0.25))
        summ2 = 2.0 * float(np.sum(m_lower ** 2))
        ssumm2 = math.sqrt(summ2)
        rsn = 1.0 / math.sqrt(n)
        a1 = _poly(_SW_C1, rsn) - m_lower[0] / ssumm2
        if n > 5:
            a2 = _poly(_SW_C2, rsn) - m_lower[1] / ssumm2
            fac = math.sqrt((summ2 - 2.0 * m_lower[0] ** 2 - 2.0 * m_lower[1] ** 2)
                            / (1.0 - 2.0 * a1 ** 2 - 2.0 * a2 ** 2))
            weights = -m_lower / fac
            weights[0] = a1
            weights[1] = a2
        else:
            fac = math.sqrt((summ2 - 2.0 * m_lower[0] ** 2) / (1.0 - 2.0 * a1 ** 2))
            weights = -m_lower / fac
            weights[0] = a1

    # W from the symmetric spacings x_(n+1-i) - x_(i), largest spacing first.
    spacings = xs[::-1][:n_half] - xs[:n_half]
    w = float(np.dot(weights[:n_half], spacings)) ** 2 / sse
    w = min(w, 1.0)

    if n == 3:
        p = (6.0 / math.pi) * (math.asin(math.sqrt(w)) - math.asin(math.sqrt(0.75)))
        p = min(1.0, max(0.0, p))
        return _result(SHAPIRO_WILK, w, p)

    y = math.log(max(1.0 - w, 1e-300))
    if n <= 11:
        gamma = _poly(_SW_G, float(n))
        if y >= gamma:
            return _result(SHAPIRO_WILK, w, 0.0)
        y = -math.log(gamma - y)
        mu = _poly(_SW_C3, float(n))
        sigma = math.exp(_poly(_SW_C4, float(n)))
    else:
        ln_n = math.log(n)
        mu = _poly(_SW_C5, ln_n)
        sigma = math.exp(_poly(_SW_C6, ln_n))
    p = norm_sf((y - mu) / sigma)
    return _result(SHAPIRO_WILK, w, p)


# ---------------------------------------------------------------------------
# Lilliefors-corrected Kolmogorov-Smirnov normality test
# ---------------------------------------------------------------------------

def _lilliefors_statistics(sorted_rows: np.ndarray) -> np.ndarray:
    """Lilliefors D of each row of a (samples, n) array sorted along rows:
    the largest distance between the empirical CDF and the normal CDF with
    the row's own mean and sd."""
    n = sorted_rows.shape[1]
    mean = sorted_rows.mean(axis=1, keepdims=True)
    sd = sorted_rows.std(axis=1, ddof=1, keepdims=True)
    z = norm_cdf((sorted_rows - mean) / sd)
    i = np.arange(1, n + 1)
    return np.maximum((i / n - z).max(axis=1), (z - (i - 1) / n).max(axis=1))


@lru_cache(maxsize=32)
def _lilliefors_null_table(n: int, replicates: int) -> np.ndarray:
    """Sorted null distribution of the Lilliefors D statistic for size n.
    The generator fills draws in the same order whatever the chunk size, so
    the table does not depend on _LILLIEFORS_CHUNK_DRAWS."""
    rng = np.random.default_rng(_LILLIEFORS_SEED)
    out = np.empty(replicates)
    chunk = max(1, min(replicates, _LILLIEFORS_CHUNK_DRAWS // n))
    done = 0
    while done < replicates:
        m = min(chunk, replicates - done)
        draws = rng.standard_normal((m, n))
        draws.sort(axis=1)
        out[done:done + m] = _lilliefors_statistics(draws)
        done += m
    out.sort()
    return out


def ks_normality(sample, mc_replicates: int = _LILLIEFORS_REPLICATES) -> TestResult:
    """One-sample KS test against a normal with sample mean/sd (Lilliefors).

    Because the reference parameters are estimated from the data, the plain
    KS null distribution does not apply; the p-value is read off a seeded
    Monte-Carlo null table for this sample size, p = (#{D* >= D} + 1)/(R + 1).
    Deterministic for fixed mc_replicates.
    """
    x = _as_sample(sample, "ks_normality", 4)
    xs = np.sort(x)
    if xs[0] == xs[-1]:
        raise DegenerateSampleError("degenerate sample: zero variance")
    d = float(_lilliefors_statistics(xs[None, :])[0])
    table = _lilliefors_null_table(xs.size, mc_replicates)
    count_ge = table.size - np.searchsorted(table, d, side="left")
    p = (count_ge + 1.0) / (table.size + 1.0)
    return _result(KS_NORMALITY, d, p)


# ---------------------------------------------------------------------------
# Welch t-test
# ---------------------------------------------------------------------------

def welch_t(a, b) -> TestResult:
    """Two-sided Welch t-test on means (unequal variances, Welch-Satterthwaite df).

    Degenerate inputs follow fixed conventions: two equal constant samples
    give statistic 0 / p 1, two unequal constant samples give p -> 0.
    """
    xa = _as_sample(a, "welch_t", 2)
    xb = _as_sample(b, "welch_t", 2)
    na, nb = xa.size, xb.size
    va = float(xa.var(ddof=1))
    vb = float(xb.var(ddof=1))
    diff = float(xa.mean() - xb.mean())
    if va == 0.0 and vb == 0.0:
        if diff == 0.0:
            return _result(WELCH_T, 0.0, 1.0)
        log.warning("welch_t: both samples constant with unequal means; using p -> 0 convention")
        return _result(WELCH_T, math.copysign(math.inf, diff), 0.0)
    se = math.sqrt(va / na + vb / nb)
    df = (va / na + vb / nb) ** 2 / (
        (va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    t = diff / se
    return _result(WELCH_T, t, t_sf_two_sided(t, df))


# ---------------------------------------------------------------------------
# Wilcoxon rank-sum (Mann-Whitney)
# ---------------------------------------------------------------------------

def _midranks(pooled: np.ndarray) -> np.ndarray:
    order = np.argsort(pooled, kind="mergesort")
    ranks = np.empty(pooled.size, dtype=float)
    i = 0
    sorted_vals = pooled[order]
    while i < pooled.size:
        j = i
        while j + 1 < pooled.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _exact_ranksum_tails(doubled: np.ndarray, na: int, w_doubled: int) -> tuple[float, float]:
    """P(W <= w) and P(W >= w) under the exact permutation null.

    Counts size-na subsets of the doubled mid-ranks by subset sum; counts stay
    below 2^53 for the n <= 40 sizes this path serves, so float64 is exact.
    """
    total_sum = int(doubled.sum())
    counts = np.zeros((na + 1, total_sum + 1))
    counts[0, 0] = 1.0
    for w in doubled:
        w = int(w)
        for k in range(na, 0, -1):
            counts[k, w:] += counts[k - 1, :counts.shape[1] - w]
    dist = counts[na]
    total = dist.sum()
    cum = np.cumsum(dist)
    p_le = cum[w_doubled] / total
    p_ge = (total - (cum[w_doubled - 1] if w_doubled > 0 else 0.0)) / total
    return float(p_le), float(p_ge)


def wilcoxon_rank_sum(a, b) -> TestResult:
    """Two-sided Wilcoxon rank-sum test with mid-rank tie handling.

    Exact null distribution while both samples have <= 20 points; tie- and
    continuity-corrected normal approximation otherwise.
    Two-sided p = min(1, 2 * min(lower tail, upper tail)).
    """
    xa = _as_sample(a, "wilcoxon_rank_sum", 1)
    xb = _as_sample(b, "wilcoxon_rank_sum", 1)
    na, nb = xa.size, xb.size
    n = na + nb
    pooled = np.concatenate([xa, xb])
    if np.all(pooled == pooled[0]):
        log.warning("wilcoxon_rank_sum: all values tied across both samples")
        w_tied = na * (n + 1) / 2.0
        return _result(WILCOXON, w_tied, 1.0)
    ranks = _midranks(pooled)
    w = float(ranks[:na].sum())

    if max(na, nb) <= _WILCOXON_EXACT_MAX_N:
        doubled = np.rint(2.0 * ranks).astype(np.int64)
        w_doubled = int(round(2.0 * w))
        p_le, p_ge = _exact_ranksum_tails(doubled, na, w_doubled)
        p = min(1.0, 2.0 * min(p_le, p_ge))
        return _result(WILCOXON, w, p)

    mu = na * (n + 1) / 2.0
    _, tie_counts = np.unique(pooled, return_counts=True)
    tie_term = float(np.sum(tie_counts.astype(float) ** 3 - tie_counts)) / (n * (n - 1))
    sigma2 = na * nb / 12.0 * ((n + 1) - tie_term)
    if sigma2 <= 0.0:
        log.warning("wilcoxon_rank_sum: zero variance after tie correction")
        return _result(WILCOXON, w, 1.0)
    z = max(abs(w - mu) - 0.5, 0.0) / math.sqrt(sigma2)
    p = min(1.0, 2.0 * norm_sf(z))
    return _result(WILCOXON, w, p)


# ---------------------------------------------------------------------------
# Variance tests
# ---------------------------------------------------------------------------

def f_variance(a, b) -> TestResult:
    """Two-sided F test on the ratio of sample variances."""
    xa = _as_sample(a, "f_variance", 2)
    xb = _as_sample(b, "f_variance", 2)
    va = float(xa.var(ddof=1))
    vb = float(xb.var(ddof=1))
    if va <= 0.0 or vb <= 0.0:
        raise DegenerateSampleError("degenerate sample: zero variance")
    f = va / vb
    d1, d2 = xa.size - 1, xb.size - 1
    p = min(1.0, 2.0 * min(f_cdf(f, d1, d2), f_sf(f, d1, d2)))
    return _result(F_VARIANCE, f, p)


def levene(a, b) -> TestResult:
    """Mean-centred Levene test for equal variances on two groups.

    The statistic is the one-way ANOVA F on |x - mean| scores, upper
    F(1, N-2) tail.
    """
    xa = _as_sample(a, "levene", 3)
    xb = _as_sample(b, "levene", 3)
    za = np.abs(xa - np.mean(xa))
    zb = np.abs(xb - np.mean(xb))
    na, nb = za.size, zb.size
    n = na + nb
    zbar = (za.sum() + zb.sum()) / n
    between = na * (za.mean() - zbar) ** 2 + nb * (zb.mean() - zbar) ** 2
    within = float(np.sum((za - za.mean()) ** 2) + np.sum((zb - zb.mean()) ** 2))
    if within == 0.0:
        if between == 0.0:
            log.warning("levene: all absolute deviations equal; returning p = 1")
            return _result(LEVENE, 0.0, 1.0)
        log.warning("levene: zero within-group deviation spread with nonzero gap; p -> 0")
        return _result(LEVENE, math.inf, 0.0)
    stat = (n - 2) * between / within
    return _result(LEVENE, stat, f_sf(stat, 1, n - 2))


# ---------------------------------------------------------------------------
# Pearson correlation
# ---------------------------------------------------------------------------

def pearson_correlation(x, y) -> CorrelationResult:
    """Pearson r with a two-sided p-value from the t transform."""
    xv = _as_sample(x, "pearson_correlation", 3)
    yv = _as_sample(y, "pearson_correlation", 3)
    if xv.size != yv.size:
        raise ValueError("pearson_correlation requires equal-length vectors")
    xc = xv - xv.mean()
    yc = yv - yv.mean()
    sx = float(np.sqrt(np.sum(xc ** 2)))
    sy = float(np.sqrt(np.sum(yc ** 2)))
    if sx == 0.0 or sy == 0.0:
        raise DegenerateSampleError("undefined correlation: constant vector")
    r = float(np.dot(xc, yc) / (sx * sy))
    r = max(-1.0, min(1.0, r))
    n = xv.size
    if abs(r) == 1.0:
        return CorrelationResult(r=r, p=0.0)
    df = n - 2
    t = r * math.sqrt(df / (1.0 - r * r))
    return CorrelationResult(r=r, p=t_sf_two_sided(t, df))
