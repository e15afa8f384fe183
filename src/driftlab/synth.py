"""Seeded synthetic flight-like streams with ground-truth drift events.

Labels come from a logistic model over k uniform numeric features plus one
categorical feature. Two drift kinds are supported:

* ``prior_shift`` rescales the intercept (probe-calibrated) so the marginal
  delay rate moves by ``magnitude`` - a pure p(Y) change, the quantity the
  detectors watch;
* ``boundary_flip`` negates the largest-magnitude coefficient and re-centers
  the intercept to preserve the mean logit - the decision boundary moves
  substantially while the marginal rate moves only by the (second-order)
  Jensen residual, so the drift is largely invisible to p(Y)-only detectors.
  ``magnitude`` is ignored for flips.

Streams are deterministic given the spec seed and are emitted in the same
row format the ingest module produces (unnormalized features).
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .ingest import FlightFeatureRow
from .special import SIGMOID_CLIP, sigmoid

log = logging.getLogger(__name__)

PRIOR_SHIFT = "prior_shift"
BOUNDARY_FLIP = "boundary_flip"
DRIFT_KINDS = (PRIOR_SHIFT, BOUNDARY_FLIP)

SYNTH_ORIGIN = "SYN0"
_CALIBRATION_PROBE = 100_000
# Bound E on |computed - exact| probe rate float(sigmoid(c + z).mean()). The
# largest error measured against a long-double evaluation was 2.0e-16 (40
# random probes of 100k draws, 5 intercepts each), so 1e-12 leaves a margin
# of several thousand.
_PROBE_RATE_ERROR = 1e-12
# |rate''| <= rate', so after a Newton step below 1e-6 the root is within
# about step**2 / 2, far inside the certified bracket's half-width 4E/rate'
_NEWTON_STEPS = 8
_NEWTON_TOL = 1e-6


@dataclass(frozen=True)
class DriftEvent:
    """at_year is 1-based within the stream when part of a spec; ground-truth
    events returned by generate_stream carry absolute years instead."""
    at_year: int
    kind: str
    magnitude: float = 0.0

    def __post_init__(self):
        if self.kind not in DRIFT_KINDS:
            raise ValueError(f"unknown drift kind {self.kind!r}")


@dataclass(frozen=True)
class SyntheticSpec:
    years: int
    weeks_per_year: int = 52
    flights_per_week: int = 200
    base_delay_rate: float = 0.2
    numeric_weights: tuple[float, ...] = (2.5, -2.0, 1.5)
    categorical_levels: tuple[str, ...] = ("S0", "S1", "S2", "S3")
    categorical_effects: tuple[float, ...] = (0.3, 0.1, -0.1, -0.3)
    drift_events: tuple[DriftEvent, ...] = ()
    seasonal_amplitude: float = 0.0
    seed: int = 0
    start_year: int = 2001

    def __post_init__(self):
        if self.years < 1 or self.weeks_per_year < 1 or self.flights_per_week < 1:
            raise ValueError("years, weeks_per_year and flights_per_week must be >= 1")
        if not 0.0 < self.base_delay_rate < 1.0:
            raise ValueError("base_delay_rate must lie in (0, 1)")
        if len(self.categorical_levels) != len(self.categorical_effects):
            raise ValueError("categorical levels/effects length mismatch")
        # in the order generate_stream applies the events: by year, then as listed
        rate = self.base_delay_rate
        for ev in sorted(self.drift_events, key=lambda ev: ev.at_year):
            if not 1 <= ev.at_year <= self.years:
                raise ValueError(f"drift year {ev.at_year} outside stream of {self.years} years")
            if ev.kind == PRIOR_SHIFT:
                rate += ev.magnitude
                if not 0.0 < rate < 1.0:
                    raise ValueError(
                        f"prior_shift at year {ev.at_year} pushes the delay rate to {rate:.3f}")

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(f"x{i}" for i in range(len(self.numeric_weights)))


class _Probe:
    """sigmoid(c + z) over one calibration probe z, written into a buffer
    allocated once: the float operations of special.sigmoid, in its order,
    so every value is the same to the bit. (-c) - z is exactly -(c + z) and
    the clip is symmetric, so the buffer holds -clip(c + z) before exp. The
    clip is skipped when abs(c) + max|z| < SIGMOID_CLIP - 1, which proves
    that it cannot bind: |c + z| is then below the clip bound, also after
    rounding."""

    def __init__(self, probe_logits: np.ndarray):
        self.logits = probe_logits
        self.max_abs = float(np.abs(probe_logits).max())
        self.p = np.empty_like(probe_logits)
        self.slope_terms = np.empty_like(probe_logits)

    def sigmoid(self, c: float) -> np.ndarray:
        p = self.p
        np.subtract(-c, self.logits, out=p)
        if not abs(c) + self.max_abs < SIGMOID_CLIP - 1.0:
            np.clip(p, -SIGMOID_CLIP, SIGMOID_CLIP, out=p)
        np.exp(p, out=p)
        np.add(1.0, p, out=p)
        return np.divide(1.0, p, out=p)

    def rate(self, c: float) -> float:
        return float(self.sigmoid(c).mean())

    def rate_and_slope(self, c: float) -> tuple[float, float]:
        """The rate and its derivative in c, mean(p(1-p))."""
        p = self.sigmoid(c)
        q = self.slope_terms
        np.subtract(1.0, p, out=q)
        np.multiply(p, q, out=q)
        return float(p.mean()), float(q.mean())


def _certified_bracket(target: float, probe: _Probe) -> tuple[float, float]:
    """(below, above): the probe rate is certainly < target at every c <= below
    and >= target at every c >= above; -inf/inf where nothing is certified.

    Newton's method on rate(c) - target, with rate' = mean(p(1-p)), gives an
    approximate root c*. The exact probe rate is non-decreasing in c (the
    clip keeps sigmoid monotone) and a computed rate lies within E of it, so
    a computed rate below target - 2E at c* - delta certifies every c below,
    and one of at least target + 2E at c* + delta every c above. Each side is
    checked by an evaluation, so Newton's accuracy (or failure) only decides
    how many evaluations are saved.
    """
    uncertified = (-math.inf, math.inf)
    if not 0.0 < target < 1.0:
        return uncertified
    c = min(max(math.log(target / (1.0 - target)) - float(probe.logits.mean()), -30.0), 30.0)
    for _ in range(_NEWTON_STEPS):
        rate, slope = probe.rate_and_slope(c)
        if not slope > 0.0:
            return uncertified
        step = (rate - target) / slope
        c = min(max(c - step, -30.0), 30.0)
        if abs(step) < _NEWTON_TOL:
            break
    delta = 4.0 * _PROBE_RATE_ERROR / slope
    below, above = c - delta, c + delta
    if not probe.rate(below) < target - 2.0 * _PROBE_RATE_ERROR:
        below = -math.inf
    if not probe.rate(above) >= target + 2.0 * _PROBE_RATE_ERROR:
        above = math.inf
    return below, above


def _calibrate_intercept(target: float, probe_logits: np.ndarray) -> float:
    """Intercept c with mean(sigmoid(c + probe_logits)) == target, by bisection.

    The result is that of the plain 80-step bisection over [-30, 30], to the
    bit. Only evaluations whose outcome is already certain are skipped: a mid
    outside the certified bracket takes its side unevaluated, and the loop
    stops once a step leaves (lo, hi) unchanged, since the state decides the
    next step and every later step would repeat it.
    """
    probe = _Probe(probe_logits)
    below, above = _certified_bracket(target, probe)
    lo, hi = -30.0, 30.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid <= below or (mid < above and probe.rate(mid) < target):
            if mid == lo:
                break
            lo = mid
        elif mid == hi:
            break
        else:
            hi = mid
    return 0.5 * (lo + hi)


def generate_stream(spec: SyntheticSpec) -> tuple[list[FlightFeatureRow], list[DriftEvent]]:
    """Generate the stream and the ground-truth events (absolute years)."""
    k = len(spec.numeric_weights)
    seeds = np.random.SeedSequence(spec.seed).spawn(2)
    calib_rng = np.random.default_rng(seeds[0])
    data_rng = np.random.default_rng(seeds[1])

    probe_x = calib_rng.uniform(size=(_CALIBRATION_PROBE, k))
    probe_cat = calib_rng.integers(0, len(spec.categorical_levels), size=_CALIBRATION_PROBE)
    effects = np.asarray(spec.categorical_effects)

    weights = np.asarray(spec.numeric_weights, dtype=float).copy()
    target_rate = spec.base_delay_rate
    intercept = _calibrate_intercept(target_rate, probe_x @ weights + effects[probe_cat])

    events_by_year: dict[int, list[DriftEvent]] = {}
    for ev in spec.drift_events:
        events_by_year.setdefault(ev.at_year, []).append(ev)

    realized: list[DriftEvent] = []
    rows: list[FlightFeatureRow] = []
    per_year = spec.weeks_per_year * spec.flights_per_week
    for offset in range(1, spec.years + 1):
        for ev in events_by_year.get(offset, ()):
            if ev.kind == PRIOR_SHIFT:
                target_rate += ev.magnitude
                intercept = _calibrate_intercept(
                    target_rate, probe_x @ weights + effects[probe_cat])
            else:
                flip = int(np.argmax(np.abs(weights)))
                # preserve the mean logit: E[x] = 1/2, so the intercept moves
                # by the flipped coefficient's original value
                intercept += weights[flip]
                weights[flip] = -weights[flip]
                log.info("boundary_flip at offset %d: negated coefficient %d", offset, flip)
            realized.append(DriftEvent(at_year=spec.start_year + offset - 1,
                                       kind=ev.kind, magnitude=ev.magnitude))
        year = spec.start_year + offset - 1
        x = data_rng.uniform(size=(per_year, k))
        cat = data_rng.integers(0, len(spec.categorical_levels), size=per_year)
        week = np.repeat(np.arange(1, spec.weeks_per_year + 1), spec.flights_per_week)
        seasonal = spec.seasonal_amplitude * np.sin(
            2.0 * math.pi * (week - 1) / spec.weeks_per_year)
        logit = intercept + x @ weights + effects[cat] + seasonal
        delayed = (data_rng.uniform(size=per_year) < sigmoid(logit)).astype(int)
        levels = spec.categorical_levels
        # positional, in FlightFeatureRow field order
        rows += [FlightFeatureRow(SYNTH_ORIGIN, levels[c], w, year, features, d)
                 for c, w, features, d in zip(cat.tolist(), week.tolist(), x, delayed.tolist())]
    return rows, realized


# ---------------------------------------------------------------------------
# Spec file IO (JSON)
# ---------------------------------------------------------------------------

def spec_to_dict(spec: SyntheticSpec) -> dict:
    doc = asdict(spec)
    doc["drift_events"] = [asdict(ev) for ev in spec.drift_events]
    return doc


def spec_from_dict(doc: dict) -> SyntheticSpec:
    events = tuple(DriftEvent(**ev) for ev in doc.get("drift_events", ()))
    kwargs = {k: v for k, v in doc.items() if k != "drift_events"}
    for key in ("numeric_weights", "categorical_levels", "categorical_effects"):
        if key in kwargs:
            kwargs[key] = tuple(kwargs[key])
    return SyntheticSpec(drift_events=events, **kwargs)


def load_spec(path: str | Path) -> SyntheticSpec:
    return spec_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def save_spec(spec: SyntheticSpec, path: str | Path) -> None:
    Path(path).write_text(json.dumps(spec_to_dict(spec), indent=2), encoding="utf-8")
