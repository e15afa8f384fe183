"""Cross-product experiment execution over (airport, classifier, BSS,
detector, strategy, replicate), with a durable append-only results table
(resume skips completed work), plus the top-k, drift-count, and correlation
analyses over the finished table.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import logging
import math
import os
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import learn, stats
from .drift import (DEFAULT_ALPHA, DEFAULT_MIN_WEEK_FLIGHTS, DETECTORS, STRATEGIES,
                    STRATEGY_ACTIVE, DetectionMemo, once)
from .ingest import TOP_AIRPORTS, FlightFeatureRow
from .learn import KIND_NB, ModelSpec, canonical_kind
from .strategy import ModelStore, StreamRun, recorded_step_years, run_stream
from .windowing import RowTable, partition_by_year, split_by_origin

log = logging.getLogger(__name__)

RESULTS_VERSION = "driftlab-results-1"


def _parse_flag(raw: str) -> bool:
    if raw not in ("true", "false"):
        raise ValueError(f"bad flag {raw!r}: expected true, false or empty")
    return raw == "true"


def _format_flag(value) -> str:
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"bad flag {value!r}: expected a bool or None")
    return "true" if value else "false"


def _format_int(value) -> str:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"bad integer {value!r}: expected an int or None")
    return str(int(value))


def _format_float(value) -> str:
    if not isinstance(value, (float, np.floating)):
        raise ValueError(f"bad float {value!r}: expected a float or None")
    return repr(float(value))


_TEXT = (str, str)
_INT = (int, _format_int)
_FLOAT = (float, _format_float)
_FLAG = (_parse_flag, _format_flag)

# Each column's (parse, format) pair for a non-empty cell; None is the empty cell.
_CODECS = {
    "airport": _TEXT, "classifier": _TEXT, "bss": _INT, "detector": _TEXT,
    "strategy": _TEXT, "replicate": _INT, "t": _INT, "trained": _FLAG, "drift": _FLAG,
    "tp": _INT, "fp": _INT, "fn": _INT, "tn": _INT,
    "accuracy": _FLOAT, "precision": _FLOAT, "recall": _FLOAT, "f1": _FLOAT,
    "error": _TEXT,
}
RESULT_COLUMNS = tuple(_CODECS)
METRIC_COLUMNS = tuple(col for col, codec in _CODECS.items() if codec is _FLOAT)

SB_KEY = "SB"


@dataclass(frozen=True)
class ExperimentGrid:
    """Full cross-product by default (the system scale plus each of the ten
    airports); filter any field for a restricted sweep."""
    airports: tuple = (None,) + TOP_AIRPORTS
    classifiers: tuple = ("NB", "NN", "RF")
    years: tuple[int, int] = (2003, 2017)
    bss: tuple[int, ...] = (1, 2, 3)
    detectors: tuple[str, ...] = DETECTORS
    strategies: tuple[str, ...] = STRATEGIES
    replicates: int = 5

    def __post_init__(self):
        object.__setattr__(self, "classifiers",
                           tuple(canonical_kind(c) for c in self.classifiers))
        for dd in self.detectors:
            if dd not in DETECTORS:
                raise ValueError(f"unknown detector {dd!r}")
        for dh in self.strategies:
            if dh not in STRATEGIES:
                raise ValueError(f"unknown strategy {dh!r}")
        if not learn._is_count(self.replicates):
            raise ValueError(f"replicates must be an int >= 1, got {self.replicates!r}")
        if not self.bss or not all(map(learn._is_count, self.bss)):
            raise ValueError(f"bss must be a non-empty tuple of ints >= 1, got {self.bss!r}")
        years = self.years
        if (not isinstance(years, tuple) or len(years) != 2
                or any(isinstance(y, bool) or not isinstance(y, int) for y in years)
                or years[0] > years[1]):
            raise ValueError(f"years must be a (first, last) tuple of ints with "
                             f"first <= last, got {years!r}")


@dataclass(frozen=True)
class Cell:
    airport: str | None
    classifier: str
    b: int
    strategy: str
    detector: str | None
    replicate: int

    @property
    def airport_key(self) -> str:
        return self.airport or SB_KEY

    @property
    def detector_key(self) -> str:
        return self.detector or "na"

    @property
    def key(self) -> tuple:
        """The cell's result-key columns: row_key without t."""
        return (self.airport_key, self.classifier, self.b, self.detector_key, self.strategy,
                self.replicate)


def grid_cells(grid: ExperimentGrid) -> list[Cell]:
    """Deterministic cell enumeration; baseline and passive run once (their
    detector column records 'na'), active runs once per detector; the
    deterministic NB collapses to a single replicate."""
    cells = []
    for airport, kind, b in itertools.product(grid.airports, grid.classifiers, grid.bss):
        reps = 1 if kind == KIND_NB else grid.replicates
        for dh in grid.strategies:
            detectors = grid.detectors if dh == STRATEGY_ACTIVE else (None,)
            for dd, rep in itertools.product(detectors, range(reps)):
                cells.append(Cell(airport=airport, classifier=kind, b=b,
                                  strategy=dh, detector=dd, replicate=rep))
    return cells


# ---------------------------------------------------------------------------
# Result rows and table IO
# ---------------------------------------------------------------------------

def _format_row(row: dict) -> list[str]:
    """The row's cells in RESULT_COLUMNS order; a missing key is None."""
    cells = []
    try:
        for col, (_, fmt) in _CODECS.items():
            value = row.get(col)
            cells.append("" if value is None else fmt(value))
    except ValueError as exc:
        raise ValueError(f"results column {col}: {exc}") from None
    return cells


def row_key(row: dict) -> tuple:
    return (row["airport"], row["classifier"], row["bss"], row["detector"],
            row["strategy"], row["replicate"], row["t"])


def load_results(path: str | Path) -> list[dict]:
    path = Path(path)
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != RESULT_COLUMNS:
            raise ValueError(f"unexpected results header in {path}")
        parsers = [parse for parse, _ in _CODECS.values()]
        for fields_ in reader:
            if len(fields_) != len(RESULT_COLUMNS):
                raise ValueError(f"{path} line {reader.line_num}: {len(fields_)} fields, "
                                 f"expected {len(RESULT_COLUMNS)}")
            row = {}
            try:
                for col, parse, raw in zip(RESULT_COLUMNS, parsers, fields_):
                    row[col] = parse(raw) if raw else None
            except ValueError as exc:
                raise ValueError(f"{path} line {reader.line_num} column {col}: {exc}") from None
            rows.append(row)
    return rows


def export_results(rows: list[dict], path: str | Path) -> Path:
    """Write the table as csv with the canonical column order; loading the
    file reproduces the rows exactly. Rows stream to a temporary file next
    to the target, which replaces the target only once every row is
    written: a refused row leaves no file, and an existing one untouched."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(RESULT_COLUMNS)
            for row in rows:
                writer.writerow(_format_row(row))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def _step_to_row(cell: Cell, step) -> dict:
    m = step.metrics
    return {
        **dict(zip(RESULT_COLUMNS, cell.key)),
        "t": step.t,
        "trained": step.trained,
        "drift": step.drift.drift if step.drift is not None else None,
        "tp": step.confusion.tp, "fp": step.confusion.fp,
        "fn": step.confusion.fn, "tn": step.confusion.tn,
        "accuracy": m.accuracy, "precision": m.precision,
        "recall": m.recall, "f1": m.f1,
        "error": None,
    }


def _error_row(cell: Cell, message: str) -> dict:
    return {**dict.fromkeys(RESULT_COLUMNS), **dict(zip(RESULT_COLUMNS, cell.key)),
            "t": -1, "error": message}


# ---------------------------------------------------------------------------
# The sweep
# ---------------------------------------------------------------------------

def drift_analysis(rows: list[FlightFeatureRow], grid: ExperimentGrid,
                   out_path: str | Path,
                   hyperparameters: dict[str, dict] | None = None,
                   base_seed: int = 1000,
                   alpha: float = DEFAULT_ALPHA,
                   min_week_flights: int = DEFAULT_MIN_WEEK_FLIGHTS,
                   cv_folds: int = 10,
                   model_store_dir: str | Path | None = None) -> list[dict]:
    """Run every grid cell, appending one line per (cell, step) to the
    durable table at out_path, in canonical cell order. The cells of one
    (airport, classifier, b, replicate) share one run_stream pass.
    Completed work is skipped on restart (append-only with keyed dedupe at
    (cell, t, replicate) granularity); a cell is complete once it has a
    row for each step it records (strategy.recorded_step_years). So a cell
    that records no step writes nothing and is never run, not even to write
    an error row when its unit fails (say, a grid search over a scale with
    no flights); a warning names it instead. Because per-cell seeds are
    deterministic, a recomputed partial cell reproduces its already-written
    rows and only missing ones are appended. A restart drops a torn last
    line and raises ValueError when the table's manifest is missing or
    records another config. A cell that fails with a ValueError (every data
    refusal raises one) writes an error-marker row (t=-1) and does not abort
    the sweep; a restart treats that cell as complete, so deleting its error
    row is how to retry it. Any other exception (out of memory, a full disk,
    a bug) propagates once the rows already written are flushed, and a
    restart reruns the unit it stopped.

    The rows are read once, into one windowing.RowTable, and every scale's
    batches are index arrays into it: SB's are one partition_by_year of the
    table, and each airport's split SB's by origin code. Each scale's stream
    also gets one drift.DetectionMemo, passed to every run_stream call on
    it: each (b, detector, t) decision, and the weekly proportions,
    normality verdicts and tests behind it, are computed once for all the
    classifiers and replicates of the scale.

    hyperparameters maps kind (or an alias such as NN) -> hyperparameter
    dict; a kind that is unknown or given twice, a dict that ModelSpec
    refuses, or an RF predictors_per_split above the rows' feature count
    raises ValueError before anything is written. The manifest
    records the dicts under their canonical kinds. Kinds left out are tuned
    once per scale by k-fold grid search on its first non-empty batch (a
    failed search fails each unit of the kind), frozen for every later
    retrain.
    """
    out_path = Path(out_path)
    given, hyperparameters = hyperparameters or {}, {}
    for kind, hp in given.items():
        kind = ModelSpec(kind=kind, hyperparameters=hp).kind
        if kind in hyperparameters:
            raise ValueError(f"hyperparameters name {kind} twice: {sorted(given)}")
        hyperparameters[kind] = hp
    table = RowTable.from_rows(rows)
    forest = hyperparameters.get(learn.KIND_RF)
    if forest is not None and len(table):
        features = learn.feature_count(table)
        if forest["predictors_per_split"] > features:
            raise ValueError(f"RF hyperparameter predictors_per_split "
                             f"{forest['predictors_per_split']} exceeds the feature count "
                             f"{features} of the rows")
    manifest_path = Path(str(out_path) + ".manifest.json")
    manifest = {
        "version": RESULTS_VERSION,
        "grid": {**dataclasses.asdict(grid), "airports": [a or SB_KEY for a in grid.airports]},
        "base_seed": base_seed, "alpha": alpha, "min_week_flights": min_week_flights,
        "cv_folds": cv_folds, "hyperparameters": hyperparameters,
        "columns": list(RESULT_COLUMNS),
    }
    manifest_text = json.dumps(manifest, indent=2)
    existing_keys: set[tuple] = set()
    if out_path.exists():
        _check_resume_manifest(manifest_path, json.loads(manifest_text))
        _drop_torn_tail(out_path)
        existing_keys = {row_key(r) for r in load_results(out_path)}
        log.info("resume: %d rows already in %s", len(existing_keys), out_path)
        fh = open(out_path, "a", newline="", encoding="utf-8")
        writer = csv.writer(fh)
    else:
        manifest_path.write_text(manifest_text, encoding="utf-8")
        fh = open(out_path, "w", newline="", encoding="utf-8")
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        fh.flush()

    store = ModelStore(model_store_dir) if model_store_dir else None
    first_year, last_year = grid.years
    batch_span = (first_year - (max(grid.bss) - 1), last_year + 1)

    streams: dict[str | None, list] = {None: partition_by_year(table, batch_span)}
    streams.update(split_by_origin(streams[None], [a for a in grid.airports if a is not None]))
    memos = {airport: DetectionMemo() for airport in streams}
    specs: dict = {}  # (airport, kind) -> searched hyperparameters, or the search error
    try:
        for (airport, kind, b), group in itertools.groupby(
                grid_cells(grid), key=lambda c: (c.airport, c.classifier, c.b)):
            stream = streams[airport]
            pending = [cell for cell in group
                       if not _cell_done(cell, stream, grid.years, existing_keys)]
            new_rows: dict[Cell, list[dict]] = {}
            for rep in sorted({cell.replicate for cell in pending}):
                cells = [cell for cell in pending if cell.replicate == rep]
                try:
                    hp = _cell_hyperparameters(cells[0], stream, hyperparameters, specs,
                                               cv_folds, base_seed)
                    spec = ModelSpec(kind=kind, hyperparameters=hp, seed=base_seed + rep)
                    runs = run_stream(stream, b, [(cell.strategy, cell.detector or DETECTORS[0])
                                                  for cell in cells], spec,
                                      year_range=grid.years, alpha=alpha,
                                      min_week_flights=min_week_flights, replicate=rep,
                                      store=store, store_airport=airport,
                                      memo=memos[airport])
                except ValueError as exc:  # a data refusal must not abort the sweep
                    log.exception("cells %s failed", cells)
                    runs = [StreamRun(error=exc) for _ in cells]
                for cell, run in zip(cells, runs):
                    new_rows[cell] = ([_error_row(cell, f"{type(run.error).__name__}: {run.error}")]
                                      if run.error is not None
                                      else [_step_to_row(cell, step) for step in run.steps])
            for row in (row for cell in pending for row in new_rows[cell]):
                key = row_key(row)
                if key in existing_keys:
                    continue
                writer.writerow(_format_row(row))
                existing_keys.add(key)
            fh.flush()
    finally:
        fh.close()
    return load_results(out_path)


def _cell_done(cell: Cell, stream, year_range: tuple[int, int],
               existing_keys: set[tuple]) -> bool:
    """A cell is done once the table holds its error row (t=-1) or a row for
    every step it records; one that records no step is done at once."""
    steps = recorded_step_years(stream, cell.b, cell.strategy, year_range)
    if not steps:
        log.warning("%s records no step: not run", cell)
    return cell.key + (-1,) in existing_keys or all(
        cell.key + (t,) in existing_keys for t in steps)


def _check_resume_manifest(path: Path, manifest: dict) -> None:
    """Refuse to append to a table written under another config."""
    if not path.exists():
        raise ValueError(f"cannot resume: {path} is missing, so the table's config is unknown")
    stored = json.loads(path.read_text(encoding="utf-8"))
    differ = [key for key in manifest if stored.get(key) != manifest[key]]
    if differ:
        raise ValueError(f"cannot resume: the config differs from {path} in {', '.join(differ)}")


def _drop_torn_tail(path: Path) -> None:
    """Cut an unterminated last line (a crash mid-write) before appending."""
    data = path.read_bytes()
    if not data or data.endswith(b"\n"):
        return
    keep = data.rfind(b"\n") + 1
    log.warning("resume: dropping the unterminated last line of %s (%d bytes)",
                path, len(data) - keep)
    with open(path, "r+b") as fh:
        fh.truncate(keep)


def _cell_hyperparameters(cell: Cell, stream, hyperparameters, specs_cache,
                          cv_folds: int, base_seed: int) -> dict:
    if cell.classifier in hyperparameters:
        return hyperparameters[cell.classifier]

    def search() -> dict:
        first_nonempty = next((b for b in stream if not b.is_empty), None)
        if first_nonempty is None:
            raise ValueError("no non-empty batch available for hyperparameter search")
        grid = learn.default_grid(cell.classifier, learn.feature_count(first_nonempty.table))
        return learn.grid_search_cv(cell.classifier, grid, first_nonempty,
                                    k=min(cv_folds, max(2, len(first_nonempty))),
                                    seed=base_seed).hyperparameters
    return once(specs_cache, (cell.airport, cell.classifier), search)


# ---------------------------------------------------------------------------
# Analyses
# ---------------------------------------------------------------------------

@dataclass
class DriftCountReport:
    counts: list[dict]          # airport, detector, bss, drifts
    ab_summary: list[dict]      # detector, bss, mean, sd over airports

    def groups(self) -> dict[tuple, int]:
        return {(r["airport"], r["detector"], r["bss"]): r["drifts"] for r in self.counts}


def count_drifts(results: list[dict]) -> DriftCountReport:
    """Detected drifts per (airport, detector, bss) among active cells; the
    drift flag is model-independent, so replicates/classifiers are collapsed
    by unique step year.

    At bss = b >= 2, consecutive windows share b-1 years, so one shift is
    flagged at each of the b steps whose windows straddle it and counts up
    to b times. The shared years also lower the false-flag rate: on
    stationary synthetic streams (mean detector, 20 seeds) it was 0.046,
    0.008 and 0.000 at b = 1, 2 and 3."""
    flags: dict[tuple, dict[int, bool]] = {}
    for row in results:
        if row["strategy"] != STRATEGY_ACTIVE or row["error"] or row["drift"] is None:
            continue
        group = (row["airport"], row["detector"], row["bss"])
        per_t = flags.setdefault(group, {})
        if row["t"] in per_t and per_t[row["t"]] != row["drift"]:
            log.warning("inconsistent drift flag for %s t=%d", group, row["t"])
        per_t[row["t"]] = row["drift"]
    counts = [{"airport": g[0], "detector": g[1], "bss": g[2],
               "drifts": sum(1 for v in per_t.values() if v)}
              for g, per_t in sorted(flags.items())]
    ab = [r for r in counts if r["airport"] != SB_KEY]
    ab_summary = []
    for detector in sorted({r["detector"] for r in ab}):
        for bss in sorted({r["bss"] for r in ab if r["detector"] == detector}):
            vals = [r["drifts"] for r in ab if r["detector"] == detector and r["bss"] == bss]
            ab_summary.append({
                "detector": detector, "bss": bss,
                "mean": statistics.mean(vals),
                "sd": statistics.stdev(vals) if len(vals) > 1 else 0.0,
            })
    return DriftCountReport(counts=counts, ab_summary=ab_summary)


@dataclass
class TopKReport:
    rank_metric: str
    combos: list[tuple[tuple, float]]  # ((strategy, detector, classifier, bss), score) ranked
    strategy_freq: dict[int, dict[str, float]] = field(default_factory=dict)
    bss_freq: dict[int, dict[int, float]] = field(default_factory=dict)
    classifier_freq: dict[int, dict[str, float]] = field(default_factory=dict)


def topk_frequency(results: list[dict], k_range, rank_metric: str = "f1") -> TopKReport:
    """Rank combinations (strategy, detector, classifier, bss) by the median
    rank_metric over all years/replicates/airports, then report how often
    each strategy (and bss / classifier) appears among the top k.

    Undefined metric values rank below any defined value; score ties break
    lexicographically on the combination key.
    """
    if rank_metric not in METRIC_COLUMNS:
        raise ValueError(f"rank_metric must be one of {METRIC_COLUMNS}")
    k_range = list(k_range)
    if not k_range:
        raise ValueError("top-k needs at least one k; the k range is empty")
    if any(k < 1 for k in k_range):
        raise ValueError(f"top-k needs every k >= 1, got {k_range}")
    if not results:
        raise ValueError("no results to rank")
    values: dict[tuple, list[float]] = {}
    for row in results:
        if row["error"]:
            continue
        combo = (row["strategy"], row["detector"], row["classifier"], row["bss"])
        v = row[rank_metric]
        values.setdefault(combo, []).append(-math.inf if v is None else v)
    scored = [(combo, float(np.median(vals))) for combo, vals in values.items()]
    scored.sort(key=lambda cs: (-cs[1], tuple(str(x) for x in cs[0])))

    report = TopKReport(rank_metric=rank_metric, combos=scored)
    n = len(scored)
    for k in k_range:
        if k > n:
            log.warning("top-k capped: k=%d exceeds %d combinations", k, n)
            k = n
        top = [combo for combo, _ in scored[:k]]
        report.strategy_freq[k] = _freq([c[0] for c in top])
        report.bss_freq[k] = _freq([c[3] for c in top])
        report.classifier_freq[k] = _freq([c[2] for c in top])
    return report


def _freq(items) -> dict:
    out: dict = {}
    for item in items:
        out[item] = out.get(item, 0) + 1
    return {key: count / len(items) for key, count in sorted(out.items(), key=lambda kv: str(kv[0]))}


@dataclass
class CorrelationReport:
    columns: list[str]
    r: np.ndarray
    p: np.ndarray
    groups: list[tuple]
    notes: list[str] = field(default_factory=list)


def correlate_drifts_performance(results: list[dict]) -> CorrelationReport:
    """Pearson correlation matrix between per-group drift counts (one column
    per detector) and per-group median metrics, over groups (airport, bss)
    of active cells; baseline/passive have no drifts and are not considered.
    Constant columns are excluded with a note."""
    active = [r for r in results if r["strategy"] == STRATEGY_ACTIVE and not r["error"]]
    groups: dict[tuple, list[dict]] = {}  # each group's rows, in table order
    for r in active:
        groups.setdefault((r["airport"], r["bss"]), []).append(r)
    group_keys = sorted(groups)
    if len(group_keys) < 3:
        raise ValueError(f"correlation needs >= 3 (airport, bss) groups, got {len(group_keys)}")
    drift_counts = count_drifts(active).groups()
    detectors = sorted({r["detector"] for r in active})
    columns = [f"drifts_{d}" for d in detectors] + list(METRIC_COLUMNS)
    matrix = np.full((len(group_keys), len(columns)), np.nan)
    for gi, (airport, bss) in enumerate(group_keys):
        for di, d in enumerate(detectors):
            matrix[gi, di] = drift_counts.get((airport, d, bss), np.nan)
        for mi, metric in enumerate(METRIC_COLUMNS):
            defined = [r[metric] for r in groups[airport, bss] if r[metric] is not None]
            if defined:
                matrix[gi, len(detectors) + mi] = float(np.median(defined))

    notes = []
    keep = []
    for ci, name in enumerate(columns):
        col = matrix[:, ci]
        finite = col[np.isfinite(col)]
        if finite.size < 3 or np.all(finite == finite[0]):
            notes.append(f"column {name} excluded (constant or insufficient data)")
        else:
            keep.append(ci)
    kept_names = [columns[ci] for ci in keep]
    m = len(keep)
    r = np.eye(m)
    p = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            xi = matrix[:, keep[i]]
            xj = matrix[:, keep[j]]
            ok = np.isfinite(xi) & np.isfinite(xj)
            try:
                res = stats.pearson_correlation(xi[ok], xj[ok])
                r[i, j] = r[j, i] = res.r
                p[i, j] = p[j, i] = res.p
            except (ValueError, stats.DegenerateSampleError) as exc:
                r[i, j] = r[j, i] = np.nan
                p[i, j] = p[j, i] = np.nan
                notes.append(f"pair ({kept_names[i]}, {kept_names[j]}): {exc}")
    return CorrelationReport(columns=kept_names, r=r, p=p, groups=group_keys, notes=notes)
