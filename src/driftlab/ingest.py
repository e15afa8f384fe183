"""Load raw flight+weather CSV records and turn them into model-ready
feature rows in one streaming pass: domestic top-airport filtering,
15-minute delay labeling, ISO week numbering, and deferred min-max
normalization.

Input CSV columns: flight_id, origin, destination, scheduled_departure
(ISO-8601), actual_departure (ISO-8601 or empty), kind
(domestic|international), plus any number of numeric columns prefixed
``wx_``. The airport -> state mapping ships as a bundled CSV.
"""

from __future__ import annotations

import csv
import logging
import math
import os
import zipfile
import zlib
from collections import Counter
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime
from importlib import resources
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

log = logging.getLogger(__name__)

TOP_AIRPORTS = ("SBBR", "SBSV", "SBCT", "SBGL", "SBPA",
                "SBKP", "SBGR", "SBSP", "SBCF", "SBRJ")
SB_KEY = "SB"  # the system scale: every top airport's flights together

FIXED_COLUMNS = ("flight_id", "origin", "destination",
                 "scheduled_departure", "actual_departure", "kind")
WEATHER_PREFIX = "wx_"
FLIGHT_KINDS = ("domestic", "international")

# Schedule-derived numeric features, prepended before the wx_ columns.
SCHEDULE_FEATURES = ("sched_hour", "sched_weekday", "sched_month")

DELAY_THRESHOLD_MINUTES = 15  # a flight departing this late or later is delayed
MAX_DELAY_HOURS = 24  # longer delays are treated as bad records and excluded


class RawFlightRecord(NamedTuple):
    """One well-formed raw line, as LoadResult.records yields it."""
    origin_airport: str
    destination_airport: str
    flight_kind: str
    scheduled_departure: datetime
    delay_min: float | None  # None without an actual departure
    weather: list[float]  # in LoadResult.wx_columns order; NaN for a blank cell


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
    """A raw CSV's header schema and its lazy, one-pass record stream:
    iterating records reads the data lines and appends each malformed one
    to malformed, which is complete once the stream is exhausted."""
    wx_columns: tuple[str, ...]
    records: Iterable[RawFlightRecord]
    malformed: list[tuple[int, str]] = field(default_factory=list)

    @property
    def malformed_count(self) -> int:
        return len(self.malformed)


@dataclass
class PreprocessResult:
    rows: list[FlightFeatureRow]
    feature_names: tuple[str, ...]
    excluded: Counter

    @property
    def record_count(self) -> int:
        """Well-formed records read: each one is kept or excluded."""
        return len(self.rows) + sum(self.excluded.values())


def load_airport_states(path: str | Path | None = None) -> dict[str, str]:
    """Airport code -> state mapping from a CSV with code and state columns
    (a UTF-8 byte order mark is skipped); the bundled table, read when path
    is None, covers the ten highest-traffic airports. A missing column, or a
    row with an empty code or state, raises ValueError naming the file."""
    source = (resources.files("driftlab").joinpath("data/airport_states.csv")
              if path is None else Path(path))
    states = {}
    with source.open(encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        for column in ("code", "state"):
            if column not in (reader.fieldnames or ()):
                raise ValueError(f"airport state table {source} has no {column!r} column")
        for row in reader:
            if not row["code"] or not row["state"]:
                raise ValueError(f"airport state table {source}, line {reader.line_num}: "
                                 f"empty code or state")
            states[row["code"]] = row["state"]
    return states


def load_flights(path: str | Path) -> LoadResult:
    """Check the raw CSV's header now and return its schema with a lazy
    stream of the well-formed records; malformed lines are counted with a
    reason as the stream reaches them, instead of being silently dropped.

    Fatal errors: missing file, no header, or a header column that is
    duplicated, missing, or neither one of the fixed names nor
    ``wx_``-prefixed. A UTF-8 byte order mark is skipped.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"flight CSV not found: {path}")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            header = [h.strip() for h in next(csv.reader(fh))]
        except StopIteration:
            raise ValueError(f"flight CSV {path} has no header row")
    for col in header:
        if col not in FIXED_COLUMNS and not col.startswith(WEATHER_PREFIX):
            raise ValueError(f"unknown column in header: {col!r}")
    duplicated = sorted(col for col, n in Counter(header).items() if n > 1)
    if duplicated:
        raise ValueError(f"duplicate columns in header: {duplicated}")
    missing = [c for c in FIXED_COLUMNS if c not in header]
    if missing:
        raise ValueError(f"header is missing expected columns: {missing}")
    wx_columns = tuple(sorted(c for c in header if c.startswith(WEATHER_PREFIX)))
    malformed: list[tuple[int, str]] = []
    return LoadResult(wx_columns, _read_records(path, header, wx_columns, malformed), malformed)


def _read_records(path: Path, header: list[str], wx_columns: tuple[str, ...],
                  malformed: list[tuple[int, str]]) -> Iterator[RawFlightRecord]:
    """Validate each data record in one pass; yield it if it is well formed,
    else append (its first line's number, reason) to malformed. A record the
    csv module cannot read raises ValueError naming the file and line."""
    width = len(header)
    i_origin, i_dest, i_sched, i_actual, i_kind = (header.index(c) for c in (
        "origin", "destination", "scheduled_departure", "actual_departure", "kind"))
    wx_index = [header.index(c) for c in wx_columns]
    nan, parse_time = math.nan, datetime.fromisoformat
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        next(reader)  # the header, checked by load_flights
        while True:
            lineno = reader.line_num + 1
            try:
                fields = next(reader)
            except StopIteration:
                break
            except csv.Error as exc:
                raise ValueError(f"flight CSV {path}, line {lineno}: {exc}") from None
            # a blank line (no field but whitespace) fails one of the first
            # two checks; it is skipped, not counted
            if len(fields) != width:
                if "".join(fields).strip():
                    malformed.append((lineno, f"expected {width} fields, got {len(fields)}"))
                continue
            origin, destination = fields[i_origin].strip(), fields[i_dest].strip()
            if not origin or not destination:
                if "".join(fields).strip():
                    malformed.append((lineno, "empty origin or destination"))
                continue
            kind = fields[i_kind].strip().lower()
            if kind not in FLIGHT_KINDS:
                malformed.append((lineno, f"unknown flight kind {kind!r}"))
                continue
            sched_raw = fields[i_sched].strip()
            if not sched_raw:
                malformed.append((lineno, "missing scheduled_departure"))
                continue
            try:
                scheduled = parse_time(sched_raw)
            except ValueError:
                malformed.append((lineno, f"bad scheduled_departure {sched_raw!r}"))
                continue
            actual_raw = fields[i_actual].strip()
            try:
                actual = parse_time(actual_raw) if actual_raw else None
            except ValueError:
                malformed.append((lineno, f"bad actual_departure {actual_raw!r}"))
                continue
            try:
                weather = [float(raw) if (raw := fields[i].strip()) else nan for i in wx_index]
            except ValueError:
                malformed.append((lineno, _bad_weather(fields, wx_columns, wx_index)))
                continue
            try:
                delay_min = (None if actual is None else
                             (actual - scheduled).total_seconds() / 60.0)
            except TypeError:
                malformed.append((lineno, "only one of scheduled_departure and "
                                          "actual_departure has a UTC offset"))
                continue
            yield RawFlightRecord(origin, destination, kind, scheduled, delay_min, weather)
    if malformed:
        log.warning("load_flights: %d malformed lines in %s (first: line %d, %s)",
                    len(malformed), path, malformed[0][0], malformed[0][1])


def _bad_weather(fields: list[str], wx_columns, wx_index) -> str:
    """The reason naming a line's first unparsable weather value."""
    for col, i in zip(wx_columns, wx_index):
        raw = fields[i].strip()
        try:
            float(raw or "nan")
        except ValueError:
            return f"bad numeric value {raw!r} in {col}"


def _filter_record(kind: str, origin: str, destination: str, delay_min: float | None,
                   airport_filter: str | None, states: dict[str, str]) -> str | None:
    """Reason to exclude a record from these fields (delay_min is None
    without an actual departure), or None if it is kept.
    Label-independent filtering only; idempotent on survivors."""
    if kind != "domestic":
        return "not_domestic"
    if origin not in TOP_AIRPORTS:
        return "origin_not_top_airport"
    if airport_filter is not None and origin != airport_filter:
        return "airport_filter"
    if delay_min is None:
        return "missing_actual_departure"
    if delay_min > MAX_DELAY_HOURS * 60:
        return "delay_above_max"
    if destination not in states:
        return "unknown_destination_state"
    return None


def preprocess(loaded: LoadResult, airport_filter: str | None = None,
               airport_states: dict[str, str] | None = None) -> PreprocessResult:
    """Filter loaded's records in one pass and featurize the kept ones;
    only the kept rows and the exclusion counts are held.

    Keeps domestic flights from the top airports (only airport_filter's,
    when given) with a usable departure delay (present and <=
    MAX_DELAY_HOURS); labels delayed when the delay reaches
    DELAY_THRESHOLD_MINUTES. Year and week come from the ISO calendar so a
    (year, week) cell never straddles a year boundary. The wx_ features are
    the header's, so a file without a well-formed record still names them.
    """
    if airport_filter is not None and airport_filter not in TOP_AIRPORTS:
        raise ValueError(f"airport_filter {airport_filter!r} is not one of TOP_AIRPORTS")
    states = airport_states if airport_states is not None else load_airport_states()
    rows: list[FlightFeatureRow] = []
    excluded: Counter = Counter()
    for origin, destination, kind, sched, delay_min, weather in loaded.records:
        reason = _filter_record(kind, origin, destination, delay_min, airport_filter, states)
        if reason is not None:
            excluded[reason] += 1
            continue
        year, week, _ = sched.isocalendar()
        features = [float(sched.hour), float(sched.weekday()), float(sched.month), *weather]
        # in FlightFeatureRow field order
        rows.append(FlightFeatureRow(origin, states[destination], week, year, np.array(features),
                                     int(delay_min >= DELAY_THRESHOLD_MINUTES)))
    if excluded:
        log.info("preprocess: excluded %d records (%s)", sum(excluded.values()), dict(excluded))
    return PreprocessResult(rows=rows, feature_names=SCHEDULE_FEATURES + loaded.wx_columns,
                            excluded=excluded)


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

def feature_matrix(rows) -> np.ndarray:
    """The rows' numeric features as one (rows, features) array, built in
    one pass over the rows; ragged feature vectors raise ValueError. Needs
    at least one row."""
    return np.array(list(map(attrgetter("numeric_features"), rows)))


# The categorical model inputs, as FlightFeatureRow attributes.
CAT_COLUMNS = ("origin_airport", "destination_state", "week_of_year")


@contextmanager
def write_atomic(path: str | Path, text: bool = False):
    """Stream writes to path's name plus .tmp (UTF-8 text if text, else binary),
    which replaces path when the block ends and is removed on any exception:
    path holds all of its old content or all of the new."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") if text else open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_rows(rows, feature_names, path: str | Path) -> None:
    """Write the rows to exactly path (no suffix added), through write_atomic."""
    rows = list(rows)
    features = feature_matrix(rows) if rows else np.zeros((0, len(feature_names)))
    with write_atomic(path) as fh:
        np.savez_compressed(
            fh,
            origin=np.array([r.origin_airport for r in rows], dtype=np.str_),
            dest_state=np.array([r.destination_state for r in rows], dtype=np.str_),
            week=np.array([r.week_of_year for r in rows], dtype=np.int64),
            year=np.array([r.year for r in rows], dtype=np.int64),
            delayed=np.array([r.delayed for r in rows], dtype=np.int64),
            features=features,
            feature_names=np.array(list(feature_names), dtype=np.str_),
        )


def load_rows(path: str | Path) -> tuple[list[FlightFeatureRow], tuple[str, ...]]:
    """The rows and feature names save_rows wrote to path. A file that is no
    such archive (not an .npz, truncated, a member missing or an object
    array, columns of unequal length) raises ValueError naming the file."""
    path = Path(path)
    try:
        data = np.load(path, allow_pickle=False)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError("not an .npz archive")
        with data:
            # a member lookup decompresses the whole member, so read each once
            feature_names = tuple(data["feature_names"].tolist())
            columns = [data[name].tolist() for name in ("origin", "dest_state", "week", "year")]
            features = np.asarray(data["features"], dtype=float)
            delayed = data["delayed"].tolist()
        if len({len(features), len(delayed), *map(len, columns)}) != 1:
            raise ValueError("its columns differ in length")
    except (ValueError, EOFError, KeyError, zipfile.BadZipFile, zlib.error) as exc:
        raise ValueError(f"{path} is not a driftlab rows file: {exc}") from None
    # zipped in FlightFeatureRow field order
    rows = [FlightFeatureRow(*fields) for fields in zip(*columns, features, delayed)]
    return rows, feature_names
