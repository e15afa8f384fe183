"""Baseline, passive and active retraining over a batch stream. One pass
over the years runs every (strategy, detector) cell: each cell decides
retraining, the window's model is fit once for the cells that train, each
distinct model predicts the next batch once, and each cell records its
confusion counts and metrics.

Detection is shared through a drift.DetectionMemo: each distinct (strategy,
detector, window pair) decision is made once per memo, and the windows'
proportions, normality verdicts and tests behind it once across detectors.
A sweep passes one memo per stream, so the classifiers and replicates of a
scale share every decision; a run_stream call without one makes its own.

Training-count bookkeeping is exact by construction: the first evaluable
step always trains (there is no stored model to reuse, so no detection is
run), after which baseline never trains again, passive trains every step,
and active trains exactly when its detector flags drift.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

from . import learn
from .drift import (DEFAULT_MIN_WEEK_FLIGHTS, DetectionMemo, DriftDecision, STRATEGIES,
                    decide_drift, once)
from .learn import ConfusionCounts, Metrics, ModelSpec, TrainedModel
from .windowing import Batch, WindowUnderflowError, batch_sequence, step_years

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class StepResult:
    t: int
    trained: bool
    drift: DriftDecision | None
    confusion: ConfusionCounts
    metrics: Metrics
    replicate: int


@dataclass
class StreamRun:
    """One cell's run; error is the exception that ended it early, if any."""
    steps: list[StepResult] = field(default_factory=list)
    skipped_years: list[int] = field(default_factory=list)
    trainings_done: int = 0
    current_model: TrainedModel | None = None
    error: Exception | None = None


def _score(model: TrainedModel, batch: Batch) -> tuple[ConfusionCounts, Metrics]:
    preds = learn.predict(model, batch.rows)
    confusion = learn.confusion_from_predictions([row.delayed for row in batch.rows], preds)
    return confusion, learn.compute_metrics(confusion)


def run_stream(stream: list[Batch], b: int, cells: list[tuple[str, str]], spec: ModelSpec,
               year_range: tuple[int, int] | None = None,
               alpha: float = 0.05,
               min_week_flights: int = DEFAULT_MIN_WEEK_FLIGHTS,
               replicate: int = 0,
               store: "ModelStore | None" = None,
               store_airport: str | None = None,
               memo: DetectionMemo | None = None) -> list[StreamRun]:
    """Run each (strategy, detector) cell over every evaluable step of the
    stream (windowing.step_years); one StreamRun per cell, in order. An
    error ends only its cell. A cell skips t (with a log line) on an empty
    test batch or an all-empty training window where it would train
    (windowing.recorded_step_years). Decisions come from memo, which must
    belong to this stream; without one, the call makes its own.
    """
    if any(dh not in STRATEGIES for dh, _ in cells):
        raise ValueError(f"unknown strategy in {cells!r}")
    years = [batch.year for batch in stream]
    if len(years) < b + 1:
        raise WindowUnderflowError(f"stream of {len(years)} batches has no evaluable step for b={b}")
    memo = memo if memo is not None else DetectionMemo()
    runs = [StreamRun() for _ in cells]
    for t in step_years(years, b, year_range):
        d_i = batch_sequence(stream, t, b)
        try:
            d_j = batch_sequence(stream, t - 1, b)
        except WindowUnderflowError:
            d_j = None
        test_batch = batch_sequence(stream, t + 1, 1).batches[0]
        live = [(cell, run) for cell, run in zip(cells, runs) if run.error is None]
        if test_batch.is_empty:
            log.warning("step t=%d skipped: test batch %d is empty", t, t + 1)
            for _, run in live:
                run.skipped_years.append(t)
            continue
        shared: dict = {}  # the window's model, and each model's scores by id
        for (dh, dd), run in live:
            try:
                if run.current_model is None:
                    # nothing to reuse: forced training, no detection to run
                    train_flag, decision = True, None
                else:
                    train_flag, decision = memo.once(
                        ("decision", dd, dh, memo.window(d_i), memo.window(d_j), alpha,
                         min_week_flights),
                        lambda: decide_drift(dd, dh, d_i, d_j, alpha=alpha,
                                             min_week_flights=min_week_flights, memo=memo))
                if train_flag and d_i.row_count == 0:
                    log.warning("step t=%d skipped: refusing to train on an all-empty window", t)
                    run.skipped_years.append(t)
                    continue
                if train_flag:
                    run.current_model = once(shared, "model", lambda: learn.train(
                        spec, d_i.rows, training_window=(t, b)))
                    run.trainings_done += 1
                    if store is not None:
                        store.save(run.current_model, airport=store_airport, kind=spec.kind,
                                   dd=dd, dh=dh, b=b, replicate=replicate, t=t)
                model = run.current_model
                confusion, metrics = once(shared, id(model), lambda: _score(model, test_batch))
                run.steps.append(StepResult(t=t, trained=train_flag, drift=decision,
                                            confusion=confusion, metrics=metrics,
                                            replicate=replicate))
            except Exception as exc:  # ends this cell only
                log.exception("%s/%s failed at t=%d", dh, dd, t)
                run.error = exc
    return runs


class ModelStore:
    """Directory of serialized models keyed by
    (airport|SB, kind, dd, dh, b, replicate); each key directory keeps one
    file per training step plus a manifest recording the latest model."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def _key_name(airport: str | None, kind: str, dd: str, dh: str,
                  b: int, replicate: int) -> str:
        return f"{airport or 'SB'}__{kind}__{dd}__{dh}__b{b}__r{replicate}"

    def save(self, model: TrainedModel, airport: str | None, kind: str, dd: str,
             dh: str, b: int, replicate: int, t: int) -> Path:
        key_dir = self.root / self._key_name(airport, kind, dd, dh, b, replicate)
        key_dir.mkdir(parents=True, exist_ok=True)
        filename = f"model_t{t}.json"
        learn.save_model(model, key_dir / filename)
        manifest_path = key_dir / "manifest.json"
        if manifest_path.exists():
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        else:
            manifest = {"key": {"airport": airport or "SB", "kind": kind, "dd": dd,
                                "dh": dh, "b": b, "replicate": replicate},
                        "history": []}
        if filename not in manifest["history"]:
            manifest["history"].append(filename)
        manifest["latest"] = filename
        manifest_path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
        return key_dir / filename

    def load_latest(self, airport: str | None, kind: str, dd: str, dh: str,
                    b: int, replicate: int) -> TrainedModel:
        key_dir = self.root / self._key_name(airport, kind, dd, dh, b, replicate)
        manifest_path = key_dir / "manifest.json"
        if not manifest_path.exists():
            raise FileNotFoundError(f"no stored model under {key_dir}")
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        return learn.load_model(key_dir / manifest["latest"])
