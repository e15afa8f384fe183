"""Seeded detection decisions must keep their proportions, tests and flags.

``tests/golden/detection_fixtures.json`` holds, for a seeded three-origin
world, every window's weekly delay proportions (the sha256 of their bytes
and their count, or the error that refused the window) and every active
decision between consecutive windows: the drift flag, both normality
verdicts and each test's name, statistic and p-value (as ``repr``), or the
fail-safe marker when the detection failed. The world has a prior shift, a
seasonal origin, an origin with an empty year and thin weeks, and volumes
from 9 to 400 flights per week, so both the parametric (Welch/F) and the
Wilcoxon/Levene branches run. It was recorded with numpy 2.4.6 (Python
3.11). Re-record with ``PYTHONPATH=src python tests/test_detection_fixtures.py``
only when a change of the detection results is intended.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

from conftest import stream_of
from driftlab import drift, stats, synth
from driftlab.drift import DETECTORS, DetectionMemo, decide_drift, weekly_delay_proportions
from driftlab.synth import DriftEvent, SyntheticSpec
from driftlab.windowing import batch_sequence

FIXTURES = Path(__file__).parent / "golden" / "detection_fixtures.json"

YEARS = (2001, 2006)
BSS = (1, 2, 3)
MIN_WEEK_FLIGHTS = (1, drift.DEFAULT_MIN_WEEK_FLIGHTS)
ORIGINS = {
    # a prior shift in 2004 at high volume: near-normal proportions
    "AAA": SyntheticSpec(years=6, weeks_per_year=8, flights_per_week=400, base_delay_rate=0.2,
                         seed=41, drift_events=(DriftEvent(at_year=4, kind="prior_shift",
                                                           magnitude=0.2),)),
    "BBB": SyntheticSpec(years=6, weeks_per_year=8, flights_per_week=60, base_delay_rate=0.3,
                         seasonal_amplitude=1.0, seed=42),
    # empty in 2003, with two thin weeks in 2005
    "CCC": SyntheticSpec(years=6, weeks_per_year=8, flights_per_week=9, base_delay_rate=0.25,
                         seed=43),
}
SCALES = (None,) + tuple(ORIGINS)


def world():
    rows = []
    for origin, spec in ORIGINS.items():
        kept = {}
        for row in synth.generate_stream(spec)[0]:
            cell = (row.year, row.week_of_year)
            if origin == "CCC" and (row.year == 2003 or (
                    cell in {(2005, 2), (2005, 5)} and kept.get(cell, 0) >= 3)):
                continue
            kept[cell] = kept.get(cell, 0) + 1
            rows.append(dataclasses.replace(row, origin_airport=origin))
    return rows


def _fields(test):
    return None if test is None else [test.test_name, repr(test.statistic), repr(test.p_value)]


def weekly_record(seq, min_week_flights):
    try:
        weekly = weekly_delay_proportions(seq, min_week_flights)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return [hashlib.sha256(weekly.proportions.tobytes()).hexdigest(), len(weekly)]


def detection_records() -> dict:
    rows = world()
    weekly: dict = {}
    decisions: dict = {}
    for scale in SCALES:
        scoped = [r for r in rows if scale is None or r.origin_airport == scale]
        stream = stream_of(scoped, YEARS)
        memo = DetectionMemo()
        name = scale or "SB"
        for b in BSS:
            for end in range(YEARS[0] + b - 1, YEARS[1] + 1):
                seq = batch_sequence(stream, end, b)
                for mwf in MIN_WEEK_FLIGHTS:
                    weekly[f"{name}|b{b}|{end}|mwf{mwf}"] = weekly_record(seq, mwf)
            for t in range(YEARS[0] + b, YEARS[1] + 1):
                d_i, d_j = batch_sequence(stream, t, b), batch_sequence(stream, t - 1, b)
                for dd in DETECTORS:
                    flag, decision = decide_drift(dd, "active", d_i, d_j, memo=memo)
                    decisions[f"{name}|b{b}|{t}|{dd}"] = "failsafe" if decision is None else [
                        flag, decision.normal_a, decision.normal_b,
                        _fields(decision.mean_test), _fields(decision.variance_test)]
    return {"weekly": weekly, "decisions": decisions}


def test_detection_matches_fixtures():
    assert detection_records() == json.loads(FIXTURES.read_text())


def test_fixtures_reach_every_branch():
    """The recorded world takes both test branches, flags drift and leaves it
    unflagged, fails safe, and refuses some windows."""
    recorded = json.loads(FIXTURES.read_text())
    decisions = list(recorded["decisions"].values())
    names = {test[0] for d in decisions if d != "failsafe" for test in d[3:] if test}
    assert names == {"welch_t", "f_variance", "wilcoxon", "levene"}
    assert "failsafe" in decisions
    assert {d[0] for d in decisions if d != "failsafe"} == {True, False}
    refused = [w for w in recorded["weekly"].values() if isinstance(w, str)]
    assert refused and all(w.startswith("InsufficientWeeklySupportError") for w in refused)
    # thin weeks are dropped at the default minimum and kept at 1
    assert recorded["weekly"]["CCC|b1|2005|mwf1"][1] == 8
    assert recorded["weekly"]["CCC|b1|2005|mwf5"][1] == 6


def _outcome(verdict, vector, alpha):
    try:
        return verdict(vector, alpha)
    except Exception as exc:
        return type(exc), str(exc)


def _both_tests(vector, alpha):
    """The verdict as computed before KS was skipped: both tests always run."""
    sw = stats.shapiro_wilk(vector)
    ks = stats.ks_normality(vector)
    return sw.p_value >= alpha and ks.p_value >= alpha


def test_normality_verdict_is_that_of_both_tests():
    """_is_normal runs the KS test only when Shapiro-Wilk passes; on every
    window vector of the recorded world it gives the verdict (or the error)
    of running both tests."""
    rows = world()
    alpha = drift.DEFAULT_ALPHA
    outcomes = set()
    for scale in SCALES:
        stream = stream_of([r for r in rows if scale is None or r.origin_airport == scale],
                                   YEARS)
        for b in BSS:
            for end in range(YEARS[0] + b - 1, YEARS[1] + 1):
                for mwf in MIN_WEEK_FLIGHTS:
                    try:
                        vector = weekly_delay_proportions(batch_sequence(stream, end, b),
                                                          mwf).proportions
                    except drift.InsufficientWeeklySupportError:
                        continue
                    if vector.size < 4:
                        continue
                    both = _outcome(_both_tests, vector, alpha)
                    assert _outcome(drift._is_normal, vector, alpha) == both
                    outcomes.add(both)
    assert {True, False} <= outcomes


def record() -> None:
    FIXTURES.write_text(json.dumps(detection_records(), indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
