"""Drift detection over weekly delay-proportion distributions.

Two consecutive training windows are compared through their weekly delay
proportions: each vector's normality is assessed with Shapiro-Wilk AND the
Lilliefors KS test (normal iff neither rejects, and the parametric branch
requires both vectors normal); means are then compared with Welch's t or
Wilcoxon, variances with the F test or Levene. A detector flags drift on
its own test, or on either for the combined detector.
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

DEFAULT_MIN_WEEK_FLIGHTS = 5


class InsufficientWeeklySupportError(ValueError):
    """Too few weeks in the window reach the minimum flight count."""


@dataclass(frozen=True)
class WeekEntry:
    year: int
    week_of_year: int
    n_flights: int
    delay_proportion: float


@dataclass(frozen=True)
class WeeklyProportions:
    entries: tuple[WeekEntry, ...]

    @property
    def proportions(self) -> np.ndarray:
        return np.array([e.delay_proportion for e in self.entries])

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class DriftDecision:
    detector: str
    normal_a: bool
    normal_b: bool
    mean_test: TestResult | None
    variance_test: TestResult | None
    drift: bool


def weekly_delay_proportions(seq: BatchSequence,
                             min_week_flights: int = DEFAULT_MIN_WEEK_FLIGHTS) -> WeeklyProportions:
    """Delay proportion per (year, week) cell across the whole window,
    chronological; weeks with fewer than min_week_flights rows are dropped
    to keep the proportions stable."""
    counts: dict[tuple[int, int], list[int]] = {}
    for row in seq.rows:
        key = (row.year, row.week_of_year)
        cell = counts.setdefault(key, [0, 0])
        cell[0] += 1
        cell[1] += int(row.delayed)
    entries = [WeekEntry(year=year, week_of_year=week, n_flights=n, delay_proportion=d / n)
               for (year, week), (n, d) in sorted(counts.items())
               if n >= min_week_flights]
    if not entries:
        raise InsufficientWeeklySupportError(
            f"insufficient weekly support: no week with >= {min_week_flights} flights "
            f"in window ending {seq.end_year}")
    return WeeklyProportions(entries=tuple(entries))


def _is_normal(vector: np.ndarray, alpha: float) -> bool:
    sw = stats.shapiro_wilk(vector, alpha=alpha)
    ks = stats.ks_normality(vector, alpha=alpha)
    return not sw.reject and not ks.reject


def detect(detector: str, current: WeeklyProportions, previous: WeeklyProportions,
           alpha: float = 0.05) -> DriftDecision:
    """Compare two weekly-proportion vectors and decide drift.

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

    normal_a = _is_normal(cur, alpha)
    normal_b = _is_normal(prev, alpha)
    parametric = normal_a and normal_b

    mean_test = None
    variance_test = None
    if detector in (DETECTOR_MEAN, DETECTOR_MEAN_VARIANCE):
        mean_test = (stats.welch_t(cur, prev, alpha=alpha) if parametric
                     else stats.wilcoxon_rank_sum(cur, prev, alpha=alpha))
    if detector in (DETECTOR_VARIANCE, DETECTOR_MEAN_VARIANCE):
        variance_test = (stats.f_variance(cur, prev, alpha=alpha) if parametric
                         else stats.levene(cur, prev, alpha=alpha))

    if detector == DETECTOR_MEAN:
        drift = mean_test.reject
    elif detector == DETECTOR_VARIANCE:
        drift = variance_test.reject
    else:
        drift = mean_test.reject or variance_test.reject
    return DriftDecision(detector=detector, normal_a=normal_a, normal_b=normal_b,
                         mean_test=mean_test, variance_test=variance_test, drift=drift)


def decide_drift(dd: str, dh: str, d_i: BatchSequence, d_j: BatchSequence | None,
                 alpha: float = 0.05,
                 min_week_flights: int = DEFAULT_MIN_WEEK_FLIGHTS,
                 ) -> tuple[bool, DriftDecision | None]:
    """Decide whether to (re)train at this step, with the DriftDecision when
    one was computed.

    baseline trains only at the first evaluable step (the one without a
    lagged window), passive always trains, active trains when the detector
    flags drift between the current and lagged windows. A detection that
    fails for lack of weekly support or of sample variation counts as drift
    (fail-safe retrain); any other error propagates.
    """
    if dh not in STRATEGIES:
        raise ValueError(f"unknown strategy {dh!r}")
    if dh == STRATEGY_PASSIVE:
        return True, None
    if dh == STRATEGY_BASELINE:
        return d_j is None, None
    if d_j is None:
        return True, None
    try:
        decision = detect(dd,
                          weekly_delay_proportions(d_i, min_week_flights),
                          weekly_delay_proportions(d_j, min_week_flights),
                          alpha=alpha)
    except (DegenerateSampleError, InsufficientWeeklySupportError) as exc:
        log.warning("active detection failed (%s); treating as drift", exc)
        return True, None
    return decision.drift, decision
