"""Load raw flight+weather CSV records and turn them into model-ready
feature rows: domestic top-airport filtering, 15-minute delay labeling,
ISO week numbering, and deferred min-max normalization.

Input CSV columns: flight_id, origin, destination, scheduled_departure
(ISO-8601), actual_departure (ISO-8601 or empty), kind
(domestic|international), plus any number of numeric columns prefixed
``wx_``. The airport -> state mapping ships as a bundled CSV.
"""

from __future__ import annotations

import csv
import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime
from importlib import resources
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

TOP_AIRPORTS = ("SBBR", "SBSV", "SBCT", "SBGL", "SBPA",
                "SBKP", "SBGR", "SBSP", "SBCF", "SBRJ")

FIXED_COLUMNS = ("flight_id", "origin", "destination",
                 "scheduled_departure", "actual_departure", "kind")
WEATHER_PREFIX = "wx_"
FLIGHT_KINDS = ("domestic", "international")

# Schedule-derived numeric features, prepended before the wx_ columns.
SCHEDULE_FEATURES = ("sched_hour", "sched_weekday", "sched_month")

DELAY_THRESHOLD_MINUTES = 15  # a flight departing this late or later is delayed
MAX_DELAY_HOURS = 24  # longer delays are treated as bad records and excluded


@dataclass
class RawFlightRecord:
    flight_id: str
    origin_airport: str
    destination_airport: str
    scheduled_departure: datetime
    actual_departure: datetime | None
    flight_kind: str
    weather_features: dict[str, float]


@dataclass
class FlightFeatureRow:
    """One preprocessed flight event; numeric_features stay unnormalized
    until a Normalizer fitted on a training window is applied."""
    origin_airport: str
    destination_state: str
    week_of_year: int
    year: int
    numeric_features: np.ndarray
    delayed: int


@dataclass
class LoadResult:
    records: list[RawFlightRecord]
    malformed: list[tuple[int, str]] = field(default_factory=list)

    @property
    def malformed_count(self) -> int:
        return len(self.malformed)


@dataclass
class PreprocessResult:
    rows: list[FlightFeatureRow]
    feature_names: tuple[str, ...]
    excluded: Counter


def load_airport_states(path: str | Path | None = None) -> dict[str, str]:
    """Airport code -> state mapping; the bundled table covers the ten
    highest-traffic airports."""
    if path is None:
        source = resources.files("driftlab").joinpath("data/airport_states.csv")
        text = source.read_text(encoding="utf-8")
        lines = text.splitlines()
    else:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    reader = csv.DictReader(lines)
    return {row["code"]: row["state"] for row in reader}


def _parse_timestamp(raw: str) -> datetime:
    return datetime.fromisoformat(raw.strip())


def load_flights(path: str | Path) -> LoadResult:
    """Parse the raw CSV; every well-formed line yields one record, malformed
    lines are counted with a reason instead of being silently dropped.

    Fatal errors: missing file, or a header column that is neither one of
    the fixed names nor ``wx_``-prefixed.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"flight CSV not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"flight CSV {path} has no header row")
        header = [h.strip() for h in header]
        for col in header:
            if col not in FIXED_COLUMNS and not col.startswith(WEATHER_PREFIX):
                raise ValueError(f"unknown column in header: {col!r}")
        missing = [c for c in FIXED_COLUMNS if c not in header]
        if missing:
            raise ValueError(f"header is missing expected columns: {missing}")
        idx = {name: header.index(name) for name in header}
        wx_columns = sorted(c for c in header if c.startswith(WEATHER_PREFIX))

        records: list[RawFlightRecord] = []
        malformed: list[tuple[int, str]] = []
        for lineno, fields_ in enumerate(reader, start=2):
            if not fields_ or all(not f.strip() for f in fields_):
                continue
            if len(fields_) != len(header):
                malformed.append((lineno, f"expected {len(header)} fields, got {len(fields_)}"))
                continue
            origin = fields_[idx["origin"]].strip()
            destination = fields_[idx["destination"]].strip()
            if not origin or not destination:
                malformed.append((lineno, "empty origin or destination"))
                continue
            kind = fields_[idx["kind"]].strip().lower()
            if kind not in FLIGHT_KINDS:
                malformed.append((lineno, f"unknown flight kind {kind!r}"))
                continue
            sched_raw = fields_[idx["scheduled_departure"]].strip()
            if not sched_raw:
                malformed.append((lineno, "missing scheduled_departure"))
                continue
            try:
                scheduled = _parse_timestamp(sched_raw)
            except ValueError:
                malformed.append((lineno, f"bad scheduled_departure {sched_raw!r}"))
                continue
            actual_raw = fields_[idx["actual_departure"]].strip()
            if actual_raw:
                try:
                    actual = _parse_timestamp(actual_raw)
                except ValueError:
                    malformed.append((lineno, f"bad actual_departure {actual_raw!r}"))
                    continue
            else:
                actual = None
            weather: dict[str, float] = {}
            bad_wx = None
            for col in wx_columns:
                raw = fields_[idx[col]].strip()
                if not raw:
                    weather[col] = math.nan
                    continue
                try:
                    weather[col] = float(raw)
                except ValueError:
                    bad_wx = f"bad numeric value {raw!r} in {col}"
                    break
            if bad_wx:
                malformed.append((lineno, bad_wx))
                continue
            records.append(RawFlightRecord(
                flight_id=fields_[idx["flight_id"]].strip(),
                origin_airport=origin,
                destination_airport=destination,
                scheduled_departure=scheduled,
                actual_departure=actual,
                flight_kind=kind,
                weather_features=weather,
            ))
    if malformed:
        log.warning("load_flights: %d malformed lines in %s (first: line %d, %s)",
                    len(malformed), path, malformed[0][0], malformed[0][1])
    return LoadResult(records=records, malformed=malformed)


def _filter_record(record: RawFlightRecord, delay_min: float | None,
                   airport_filter: str | None, states: dict[str, str]) -> str | None:
    """Reason to exclude the record, whose departure delay is delay_min
    (None without an actual departure), or None if it is kept.
    Label-independent filtering only; idempotent on survivors."""
    if record.flight_kind != "domestic":
        return "not_domestic"
    if record.origin_airport not in TOP_AIRPORTS:
        return "origin_not_top_airport"
    if airport_filter is not None and record.origin_airport != airport_filter:
        return "airport_filter"
    if delay_min is None:
        return "missing_actual_departure"
    if delay_min > MAX_DELAY_HOURS * 60:
        return "delay_above_max"
    if record.destination_airport not in states:
        return "unknown_destination_state"
    return None


def preprocess(records, airport_filter: str | None = None,
               airport_states: dict[str, str] | None = None) -> PreprocessResult:
    """Filter raw records and build feature rows.

    Keeps domestic flights from the top airports (only airport_filter's,
    when given) with a usable departure delay (present and <=
    MAX_DELAY_HOURS); labels delayed when the delay reaches
    DELAY_THRESHOLD_MINUTES. Year and week come from the ISO calendar so a
    (year, week) cell never straddles a year boundary.
    """
    if airport_filter is not None and airport_filter not in TOP_AIRPORTS:
        raise ValueError(f"airport_filter {airport_filter!r} is not one of TOP_AIRPORTS")
    states = airport_states if airport_states is not None else load_airport_states()
    wx_names: list[str] = []
    for rec in records:
        for name in rec.weather_features:
            if name not in wx_names:
                wx_names.append(name)
    wx_names.sort()
    feature_names = SCHEDULE_FEATURES + tuple(wx_names)

    rows: list[FlightFeatureRow] = []
    excluded: Counter = Counter()
    for rec in records:
        delay_min = (None if rec.actual_departure is None else
                     (rec.actual_departure - rec.scheduled_departure).total_seconds() / 60.0)
        reason = _filter_record(rec, delay_min, airport_filter, states)
        if reason is not None:
            excluded[reason] += 1
            continue
        sched = rec.scheduled_departure
        iso = sched.isocalendar()
        features = np.array(
            [float(sched.hour), float(sched.weekday()), float(sched.month)]
            + [rec.weather_features.get(name, math.nan) for name in wx_names])
        rows.append(FlightFeatureRow(
            origin_airport=rec.origin_airport,
            destination_state=states[rec.destination_airport],
            week_of_year=int(iso[1]),
            year=int(iso[0]),
            numeric_features=features,
            delayed=int(delay_min >= DELAY_THRESHOLD_MINUTES),
        ))
    if excluded:
        log.info("preprocess: excluded %d records (%s)", sum(excluded.values()), dict(excluded))
    return PreprocessResult(rows=rows, feature_names=feature_names, excluded=excluded)


# ---------------------------------------------------------------------------
# Min-max normalization, fitted per training window
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Normalizer:
    mins: np.ndarray
    maxs: np.ndarray
    means: np.ndarray  # imputation values for missing observations

    @property
    def n_features(self) -> int:
        return self.mins.size


def fit_normalizer(features: np.ndarray) -> Normalizer:
    """Fit per-feature min/max (and imputation means) on a training window's
    (rows, features) matrix only."""
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[0] == 0:
        raise ValueError(f"fit_normalizer requires a non-empty (rows, features) matrix, "
                         f"got shape {features.shape}")
    with np.errstate(invalid="ignore"):
        means = np.nanmean(features, axis=0)
        mins = np.nanmin(features, axis=0)
        maxs = np.nanmax(features, axis=0)
    all_nan = ~np.isfinite(means)
    if np.any(all_nan):
        log.warning("fit_normalizer: %d feature(s) have no observed values; mapping to 0",
                    int(all_nan.sum()))
        means = np.where(all_nan, 0.0, means)
        mins = np.where(all_nan, 0.0, mins)
        maxs = np.where(all_nan, 0.0, maxs)
    constant = maxs == mins
    if np.any(constant):
        log.warning("fit_normalizer: %d constant feature(s) will map to 0",
                    int(constant.sum()))
    return Normalizer(mins=mins, maxs=maxs, means=means)


def apply_normalizer(normalizer: Normalizer, features: np.ndarray) -> np.ndarray:
    """Map each feature x -> (x - min)/(max - min) over a (rows, features)
    matrix, imputing missing values with the training mean first and
    clamping results into [0, 1]; constant features map to 0."""
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[1] != normalizer.n_features:
        raise ValueError(f"feature matrix has shape {features.shape}, normalizer expects "
                         f"(rows, {normalizer.n_features})")
    span = normalizer.maxs - normalizer.mins
    safe_span = np.where(span == 0.0, 1.0, span)
    x = np.where(np.isnan(features), normalizer.means, features)
    scaled = np.clip((x - normalizer.mins) / safe_span, 0.0, 1.0)
    return np.where(span == 0.0, 0.0, scaled)


# ---------------------------------------------------------------------------
# Row table persistence (shared with the synthetic generator and the CLI)
# ---------------------------------------------------------------------------

def save_rows(rows, feature_names, path: str | Path) -> None:
    rows = list(rows)
    n_feat = len(feature_names)
    features = (np.vstack([r.numeric_features for r in rows])
                if rows else np.zeros((0, n_feat)))
    np.savez_compressed(
        Path(path),
        origin=np.array([r.origin_airport for r in rows], dtype=np.str_),
        dest_state=np.array([r.destination_state for r in rows], dtype=np.str_),
        week=np.array([r.week_of_year for r in rows], dtype=np.int64),
        year=np.array([r.year for r in rows], dtype=np.int64),
        delayed=np.array([r.delayed for r in rows], dtype=np.int64),
        features=features,
        feature_names=np.array(list(feature_names), dtype=np.str_),
    )


def load_rows(path: str | Path) -> tuple[list[FlightFeatureRow], tuple[str, ...]]:
    with np.load(Path(path), allow_pickle=False) as data:
        # a member lookup decompresses the whole member, so read each once
        feature_names = tuple(data["feature_names"].tolist())
        columns = [data[name].tolist() for name in ("origin", "dest_state", "week", "year")]
        features, delayed = np.asarray(data["features"], dtype=float), data["delayed"].tolist()
    # zipped in FlightFeatureRow field order
    rows = [FlightFeatureRow(*fields) for fields in zip(*columns, features, delayed)]
    return rows, feature_names
