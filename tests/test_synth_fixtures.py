"""Seeded synthetic streams must keep their intercepts and rows.

``tests/golden/synth_fixtures.json`` holds ``float.hex`` of
``synth._calibrate_intercept`` on fixed probes and targets, and, for each
spec below, the sha256 of the generated rows (year, week, state, delayed
and the feature bytes). They were recorded with the plain 80-step bisection
(numpy 2.4.6). Re-record with ``PYTHONPATH=src python
tests/test_synth_fixtures.py`` only when a change of the streams is intended.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from driftlab import synth
from driftlab.synth import BOUNDARY_FLIP, PRIOR_SHIFT, DriftEvent, SyntheticSpec

FIXTURES = Path(__file__).parent / "golden" / "synth_fixtures.json"

TARGETS = (0.001, 0.01, 0.2, 0.5, 0.9, 0.999)
# weights large enough that a share of the logits reaches sigmoid's +-500 clip
CLIPPED_WEIGHTS = (650.0, -600.0, -40.0)


def _probe(n, weights, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(size=(n, len(weights))) @ np.asarray(weights) + rng.normal(0.0, 0.2, n)


PROBES = {
    "one_feature": lambda: _probe(100_000, (1.8,), 1),
    "three_features": lambda: _probe(100_000, (2.5, -2.0, 1.5), 2),
    "five_features": lambda: _probe(100_000, (1.0, -2.0, 0.5, 3.0, -1.5), 3),
    "clipped": lambda: _probe(100_000, CLIPPED_WEIGHTS, 4),
    "small": lambda: _probe(7, (2.0, -1.0), 5),
    # every logit clipped: the mean is 0.5 whatever the intercept
    "saturated": lambda: np.repeat([-1000.0, 1000.0], 50),
}


def _events(*events):
    return tuple(DriftEvent(at_year=y, kind=k, magnitude=m) for y, k, m in events)


SPECS = {
    "default": SyntheticSpec(years=2),
    "base_rate_0.01": SyntheticSpec(years=2, flights_per_week=50, base_delay_rate=0.01, seed=1),
    "base_rate_0.98": SyntheticSpec(years=2, flights_per_week=50, base_delay_rate=0.98, seed=2),
    "negative_shift": SyntheticSpec(
        years=3, flights_per_week=50, base_delay_rate=0.4, seed=3,
        drift_events=_events((2, PRIOR_SHIFT, -0.25))),
    "flip_then_shift": SyntheticSpec(
        years=4, flights_per_week=30, seed=4,
        drift_events=_events((2, BOUNDARY_FLIP, 0.0), (3, PRIOR_SHIFT, 0.2))),
    "shift_then_flip": SyntheticSpec(
        years=4, flights_per_week=30, seed=5,
        drift_events=_events((2, PRIOR_SHIFT, 0.2), (3, BOUNDARY_FLIP, 0.0))),
    "two_events_one_year": SyntheticSpec(
        years=3, flights_per_week=30, seed=6,
        drift_events=_events((2, PRIOR_SHIFT, 0.15), (2, BOUNDARY_FLIP, 0.0))),
    "one_weight": SyntheticSpec(years=2, flights_per_week=40, numeric_weights=(1.8,), seed=7),
    "five_weights": SyntheticSpec(
        years=3, flights_per_week=40, numeric_weights=(1.0, -2.0, 0.5, 3.0, -1.5), seed=8,
        drift_events=_events((3, PRIOR_SHIFT, 0.1))),
    "clipped_logits": SyntheticSpec(
        years=3, flights_per_week=40, base_delay_rate=0.45, numeric_weights=CLIPPED_WEIGHTS,
        seed=9, drift_events=_events((2, PRIOR_SHIFT, 0.03))),
    # the second detect_airports stream of the benchmark at seed 1
    # (perfbench/workloads.stream_specs), copied here
    "detect_airports": SyntheticSpec(
        years=5, weeks_per_year=52, flights_per_week=5, base_delay_rate=0.165,
        seasonal_amplitude=0.3, seed=1731038949, start_year=2001,
        drift_events=_events((3, PRIOR_SHIFT, 0.075), (5, BOUNDARY_FLIP, 0.0))),
}


def rows_digest(rows) -> str:
    h = hashlib.sha256()
    for r in rows:
        h.update(f"{r.year},{r.week_of_year},{r.destination_state},{r.delayed};".encode())
        h.update(np.ascontiguousarray(r.numeric_features, dtype=np.float64).tobytes())
    return h.hexdigest()


def intercepts(probe) -> list[str]:
    return [float.hex(synth._calibrate_intercept(t, probe)) for t in TARGETS]


def record() -> None:
    out = {"intercepts": {name: intercepts(make()) for name, make in PROBES.items()},
           "rows_sha256": {name: rows_digest(synth.generate_stream(spec)[0])
                           for name, spec in SPECS.items()}}
    FIXTURES.write_text(json.dumps(out, indent=1) + "\n")


@pytest.fixture(scope="module")
def expected():
    return json.loads(FIXTURES.read_text())


@pytest.mark.parametrize("name", PROBES)
def test_calibrated_intercepts(expected, name):
    assert intercepts(PROBES[name]()) == expected["intercepts"][name]


@pytest.mark.parametrize("name", SPECS)
def test_stream_rows(expected, name):
    assert rows_digest(synth.generate_stream(SPECS[name])[0]) == expected["rows_sha256"][name]


def test_fixtures_reach_the_clip_and_the_interval_bounds(expected):
    """The fixtures are worth their bytes: some calibrated intercepts hit the
    bisection's [-30, 30] bounds, and the clipped probe and stream have
    logits beyond sigmoid's +-500 clip at an interior intercept."""
    values = [float.fromhex(v) for vs in expected["intercepts"].values() for v in vs]
    assert min(values) <= -29.0 and max(values) >= 29.0
    probe = PROBES["clipped"]()
    c = synth._calibrate_intercept(0.5, probe)
    assert -30.0 < c < 30.0 and np.sum(np.abs(c + probe) > 500.0) > 1000
    spec = SPECS["clipped_logits"]
    rows, _ = synth.generate_stream(spec)
    x = np.array([r.numeric_features for r in rows])
    assert np.ptp(x @ np.asarray(spec.numeric_weights)) > 1061.0


if __name__ == "__main__":
    record()
