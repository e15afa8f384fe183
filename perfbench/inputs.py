"""Seeded inputs for the benchmark, with the ground truth the checks need.

Everything here is built from the workload seed alone, with numpy and the
standard library, so the program under test receives only the generated
files. Two kinds of input exist:

* a raw flight CSV in the format ``driftlab preprocess`` reads, together
  with the exact counts and feature rows preprocessing must produce;
* a paper-shaped results table with known drift flags, for the analyses.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timedelta

import numpy as np

TOP_AIRPORTS = ("SBBR", "SBSV", "SBCT", "SBGL", "SBPA",
                "SBKP", "SBGR", "SBSP", "SBCF", "SBRJ")
STATES = {"SBBR": "DF", "SBSV": "BA", "SBCT": "PR", "SBGL": "RJ", "SBPA": "RS",
          "SBKP": "SP", "SBGR": "SP", "SBSP": "SP", "SBCF": "MG", "SBRJ": "RJ"}
OTHER_AIRPORTS = ("SBFZ", "SBRF", "SBEG", "SBBE", "SBFL")
WX_COLUMNS = ("wx_pressure", "wx_temp", "wx_wind")
HEADER = ("flight_id", "origin", "destination", "scheduled_departure",
          "actual_departure", "kind") + WX_COLUMNS

DELAY_THRESHOLD_MIN = 15
MAX_DELAY_MIN = 24 * 60


@dataclass
class RawCsvTruth:
    """What preprocessing the generated CSV must report and produce."""
    lines: int = 0
    malformed: int = 0
    excluded: Counter = field(default_factory=Counter)
    # expected feature rows, in file order: (origin, state, iso week,
    # iso year, delayed, numeric features)
    rows: list = field(default_factory=list)

    @property
    def records(self) -> int:
        return self.lines - self.malformed

    @property
    def kept(self) -> int:
        return len(self.rows)


def _exclusion(origin: str, destination: str, kind: str,
               delay_min: float | None) -> str | None:
    """The documented filter order of ``driftlab preprocess`` at SB scale."""
    if kind != "domestic":
        return "not_domestic"
    if origin not in TOP_AIRPORTS:
        return "origin_not_top_airport"
    if delay_min is None:
        return "missing_actual_departure"
    if delay_min > MAX_DELAY_MIN:
        return "delay_above_max"
    if destination not in STATES:
        return "unknown_destination_state"
    return None


def write_raw_flights(path, seed: int, lines: int,
                      first_year: int, years: int) -> RawCsvTruth:
    """A raw flight CSV of `lines` data lines spread over `years` years.

    It mixes top and other origins, domestic and international flights,
    missing and excessive departure delays, unknown destinations, blank
    weather cells and about 1 % malformed lines of five kinds.
    """
    rng = np.random.default_rng(seed)
    truth = RawCsvTruth(lines=lines)
    start = datetime(first_year, 1, 1)
    span_minutes = int((datetime(first_year + years, 1, 1) - start).total_seconds() // 60)
    destinations = TOP_AIRPORTS + ("SBXX",)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(HEADER)
        for i in range(lines):
            origin = (TOP_AIRPORTS[rng.integers(len(TOP_AIRPORTS))] if rng.random() < 0.4
                      else OTHER_AIRPORTS[rng.integers(len(OTHER_AIRPORTS))])
            destination = destinations[rng.integers(len(destinations))]
            kind = "domestic" if rng.random() < 0.85 else "international"
            scheduled = start + timedelta(minutes=int(rng.integers(span_minutes)))
            roll = rng.random()
            if roll < 0.04:
                delay_min = None
            elif roll < 0.06:
                delay_min = float(rng.integers(MAX_DELAY_MIN + 1, MAX_DELAY_MIN + 600))
            else:
                delay_min = float(rng.integers(-10, 60))
            wx = [None if rng.random() < 0.03 else round(float(v), 2)
                  for v in (rng.normal(1013, 8), rng.normal(24, 5), rng.gamma(2.0, 4.0))]
            fields = [f"F{i:07d}", origin, destination, scheduled.isoformat(),
                      "" if delay_min is None
                      else (scheduled + timedelta(minutes=delay_min)).isoformat(),
                      kind] + ["" if v is None else repr(v) for v in wx]

            defect = rng.integers(5) if rng.random() < 0.01 else None
            if defect is not None:
                truth.malformed += 1
                if defect == 0:
                    fields = fields[:-1]
                elif defect == 1:
                    fields[5] = "charter"
                elif defect == 2:
                    fields[3] = "not-a-date"
                elif defect == 3:
                    fields[6] = "n/a"
                else:
                    fields[1] = ""
                writer.writerow(fields)
                continue
            writer.writerow(fields)

            reason = _exclusion(origin, destination, kind, delay_min)
            if reason is not None:
                truth.excluded[reason] += 1
                continue
            iso = scheduled.isocalendar()
            features = [float(scheduled.hour), float(scheduled.weekday()),
                        float(scheduled.month)] + [math.nan if v is None else v for v in wx]
            truth.rows.append((origin, STATES[destination], int(iso[1]), int(iso[0]),
                               int(delay_min >= DELAY_THRESHOLD_MIN),
                               np.array(features, dtype=float)))
    return truth


def rows_match(expected: list, loaded: list) -> bool:
    """Loaded feature rows equal the expected tuples field by field (NaN
    features compare equal to NaN)."""
    if len(expected) != len(loaded):
        return False
    for (origin, state, week, year, delayed, features), row in zip(expected, loaded):
        if (row.origin_airport, row.destination_state, row.week_of_year, row.year,
                row.delayed) != (origin, state, week, year, delayed):
            return False
        if not np.array_equal(np.asarray(row.numeric_features, dtype=float), features,
                              equal_nan=True):
            return False
    return True


# ---------------------------------------------------------------------------
# Paper-shaped results table
# ---------------------------------------------------------------------------

PAPER_SCALES = ("SB",) + TOP_AIRPORTS
PAPER_YEARS = tuple(range(2003, 2018))
DETECTORS = ("mean", "variance", "mean_variance")


def paper_results(seed: int, replicates: int = 5) -> tuple[list[dict], dict]:
    """Rows of a full-grid results table (11 scales x 165 cells x 15 years)
    and the drift count per (airport, detector, bss) that
    ``driftlab analyze drifts`` must report for it."""
    rng = np.random.default_rng(seed)
    flags = {}
    for airport in PAPER_SCALES:
        for detector in DETECTORS:
            for b in (1, 2, 3):
                rate = float(rng.uniform(0.1, 0.6))
                flags[(airport, detector, b)] = {t: bool(rng.random() < rate)
                                                 for t in PAPER_YEARS}
    truth = {key: sum(per_t.values()) for key, per_t in flags.items()}
    rows = []
    for airport in PAPER_SCALES:
        for kind in ("NB", "MLP", "RF"):
            reps = 1 if kind == "NB" else replicates
            for b in (1, 2, 3):
                for strategy in ("baseline", "passive", "active"):
                    detectors = DETECTORS if strategy == "active" else ("na",)
                    for detector in detectors:
                        for rep in range(reps):
                            for t in PAPER_YEARS:
                                rows.append(_paper_row(rng, airport, kind, b, strategy,
                                                       detector, rep, t, flags))
    return rows, truth


def _paper_row(rng, airport, kind, b, strategy, detector, rep, t, flags) -> dict:
    tp, fp, fn, tn = (int(v) for v in rng.integers(5, 400, size=4))
    if strategy == "active":
        drift = flags[(airport, detector, b)][t]
        trained = drift or t == PAPER_YEARS[0]
    else:
        drift = None
        trained = strategy == "passive" or t == PAPER_YEARS[0]
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return {"airport": airport, "classifier": kind, "bss": b, "detector": detector,
            "strategy": strategy, "replicate": rep, "t": t, "trained": trained,
            "drift": drift, "tp": tp, "fp": fp, "fn": fn, "tn": tn,
            "accuracy": (tp + tn) / (tp + fp + fn + tn), "precision": precision,
            "recall": recall, "f1": 2 * precision * recall / (precision + recall),
            "error": None}
