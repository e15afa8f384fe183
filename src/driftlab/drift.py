"""Drift detection over weekly delay-proportion distributions.

Two consecutive training windows are compared through their weekly delay
proportions: each vector's normality is assessed with Shapiro-Wilk AND the
Lilliefors KS test (normal iff both p-values are at least alpha, the KS test
run only when Shapiro-Wilk passes, and the parametric branch requires both
vectors normal); means are then compared
with Welch's t or Wilcoxon, variances with the F test or Levene. A detector
flags drift when its own test's p-value is below alpha, or either test's
for the combined detector. The tests in :mod:`driftlab.stats` only compute
statistics and p-values; this module is the one place alpha is applied.

A decision depends only on the labels of the two windows, so a
DetectionMemo shares the work of one sweep over one stream: each window's
proportions (summed from its batches' week_counts) and normality verdict,
each window pair's mean and variance test (computed only when a detector
asks for it), and each decision are computed once, whatever the
classifier, replicate or detector asking. A failure is memoised too and
re-raised for every caller, so the fail-safe retrain and a propagating
error reach each of them as if it had computed the result itself.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import stats
from .stats import DegenerateSampleError, TestResult
from .windowing import BatchSequence

log = logging.getLogger(__name__)

DETECTOR_MEAN = "mean"
DETECTOR_VARIANCE = "variance"
DETECTOR_MEAN_VARIANCE = "mean_variance"
DETECTORS = (DETECTOR_MEAN, DETECTOR_VARIANCE, DETECTOR_MEAN_VARIANCE)

STRATEGY_BASELINE = "baseline"
STRATEGY_PASSIVE = "passive"
STRATEGY_ACTIVE = "active"
STRATEGIES = (STRATEGY_BASELINE, STRATEGY_PASSIVE, STRATEGY_ACTIVE)

DEFAULT_ALPHA = 0.05
DEFAULT_MIN_WEEK_FLIGHTS = 5


class InsufficientWeeklySupportError(ValueError):
    """Too few weeks in the window reach the minimum flight count."""


@dataclass(frozen=True, eq=False)
class WeeklyProportions:
    """Each kept (year, week) cell of a window, chronological, with its
    flight count and delay proportion. It compares and hashes by identity."""
    years: np.ndarray
    weeks: np.ndarray
    flights: np.ndarray
    proportions: np.ndarray

    def __len__(self) -> int:
        return len(self.proportions)


@dataclass(frozen=True)
class DriftDecision:
    detector: str
    normal_a: bool
    normal_b: bool
    mean_test: TestResult | None
    variance_test: TestResult | None
    drift: bool


def once(cache: dict, key, compute):
    """compute() at most once per key; an exception it raised is re-raised."""
    if key not in cache:
        try:
            cache[key] = compute()
        except Exception as exc:
            cache[key] = exc
    if isinstance(cache[key], Exception):
        raise cache[key]
    return cache[key]


class DetectionMemo:
    """The detection work of one sweep over one stream, each piece computed
    once (see the module docstring). Windows are keyed by their batches, and
    tests by the WeeklyProportions they read, all of which the memo keeps
    alive; give it only windows of one stream, and let it live no longer
    than the sweep that made it."""

    def __init__(self):
        self._results: dict = {}

    def once(self, key, compute):
        return once(self._results, key, compute)

    def weekly(self, seq: BatchSequence, min_week_flights: int) -> WeeklyProportions:
        return self.once(("weekly", seq.batches, min_week_flights),
                         lambda: weekly_delay_proportions(seq, min_week_flights))


def weekly_delay_proportions(
        seq: BatchSequence, min_week_flights: int = DEFAULT_MIN_WEEK_FLIGHTS) -> WeeklyProportions:
    """Delay proportion per (year, week) cell across the whole window,
    chronological; weeks with fewer than min_week_flights rows are dropped
    to keep the proportions stable. The window's counts are the sum of its
    batches' week_counts."""
    cells, flights, delayed = (np.concatenate(parts) for parts in
                               zip(*(batch.week_counts for batch in seq.batches)))
    cells, inverse = np.unique(cells, axis=0, return_inverse=True)
    n = np.bincount(inverse, weights=flights).astype(np.int64)
    d = np.bincount(inverse, weights=delayed).astype(np.int64)
    keep = n >= min_week_flights
    if not keep.any():
        raise InsufficientWeeklySupportError(
            f"insufficient weekly support: no week with >= {min_week_flights} flights "
            f"in window ending {seq.end_year}")
    return WeeklyProportions(years=cells[keep, 0], weeks=cells[keep, 1], flights=n[keep],
                             proportions=d[keep] / n[keep])


def _is_normal(vector: np.ndarray, alpha: float) -> bool:
    """Both p-values at least alpha. A Shapiro-Wilk rejection decides the
    verdict, so the KS test (and the Lilliefors null table of its sample
    size) runs only when Shapiro-Wilk passes; both tests refuse a constant
    sample, so the skipped KS call could not have raised either."""
    if stats.shapiro_wilk(vector).p_value < alpha:
        return False
    return stats.ks_normality(vector).p_value >= alpha


def detect(detector: str, current: WeeklyProportions, previous: WeeklyProportions,
           alpha: float = DEFAULT_ALPHA, memo: DetectionMemo | None = None) -> DriftDecision:
    """Compare two weekly-proportion vectors and decide drift. A memo shares
    each vector's normality verdict and each pair's mean and variance test
    with the other calls given it.

    Raises InsufficientWeeklySupportError or DegenerateSampleError when the
    vectors cannot support the tests; callers treat those as drift.
    """
    if detector not in DETECTORS:
        raise ValueError(f"unknown detector {detector!r}")
    cur = current.proportions
    prev = previous.proportions
    if cur.size < 4 or prev.size < 4:
        raise InsufficientWeeklySupportError(
            "drift detection requires at least 4 weekly proportions per window")
    memo = memo if memo is not None else DetectionMemo()
    normal_a = memo.once(("normal", current, alpha), lambda: _is_normal(cur, alpha))
    normal_b = memo.once(("normal", previous, alpha), lambda: _is_normal(prev, alpha))
    parametric = normal_a and normal_b

    mean_test = None
    variance_test = None
    if detector in (DETECTOR_MEAN, DETECTOR_MEAN_VARIANCE):
        mean_test = memo.once(("mean", current, previous, parametric), lambda: (
            stats.welch_t(cur, prev) if parametric else stats.wilcoxon_rank_sum(cur, prev)))
    if detector in (DETECTOR_VARIANCE, DETECTOR_MEAN_VARIANCE):
        variance_test = memo.once(("variance", current, previous, parametric), lambda: (
            stats.f_variance(cur, prev) if parametric else stats.levene(cur, prev)))

    drift = any(test.p_value < alpha for test in (mean_test, variance_test) if test is not None)
    return DriftDecision(detector=detector, normal_a=normal_a, normal_b=normal_b,
                         mean_test=mean_test, variance_test=variance_test, drift=drift)


def decide_drift(dd: str, dh: str, d_i: BatchSequence, d_j: BatchSequence | None,
                 alpha: float = DEFAULT_ALPHA,
                 min_week_flights: int = DEFAULT_MIN_WEEK_FLIGHTS,
                 memo: DetectionMemo | None = None,
                 ) -> tuple[bool, DriftDecision | None]:
    """Decide whether to (re)train at this step, with the DriftDecision when
    one was computed.

    baseline trains only at the first evaluable step (the one without a
    lagged window), passive always trains, active trains when the detector
    flags drift between the current and lagged windows. A detection that
    fails for lack of weekly support or of sample variation counts as drift
    (fail-safe retrain); any other error propagates. A memo shares the
    windows' proportions, normality verdicts and tests with the other
    decisions given it.
    """
    if dh not in STRATEGIES:
        raise ValueError(f"unknown strategy {dh!r}")
    if dh == STRATEGY_PASSIVE:
        return True, None
    if dh == STRATEGY_BASELINE:
        return d_j is None, None
    if d_j is None:
        return True, None
    memo = memo if memo is not None else DetectionMemo()
    try:
        decision = detect(dd, memo.weekly(d_i, min_week_flights),
                          memo.weekly(d_j, min_week_flights), alpha=alpha, memo=memo)
    except (DegenerateSampleError, InsufficientWeeklySupportError) as exc:
        log.warning("active detection failed (%s); treating as drift", exc)
        return True, None
    return decision.drift, decision
