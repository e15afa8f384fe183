"""Baseline, passive and active retraining over a batch stream. One pass
over the years runs every (strategy, detector) cell: each cell decides
retraining, the window's model is fit once for the cells that train, each
distinct model predicts the next batch once, and each cell records its
confusion counts and metrics.

recorded_step_years alone says which steps a cell records: run_stream
runs those, and the sweep's resume checks a cell against the same list.

Detection is shared through a drift.DetectionMemo: each distinct (strategy,
detector, window pair) decision is made once per memo, and the windows'
proportions, normality verdicts and tests behind it once across detectors.
A sweep passes one memo per stream, so the classifiers and replicates of a
scale share every decision; a run_stream call without one makes its own.

Training-count bookkeeping is exact by construction: the first recorded
step always trains (there is no stored model to reuse, so no detection is
run), after which baseline never trains again, passive trains every step,
and active trains exactly when its detector flags drift.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

from . import learn
from .drift import (DEFAULT_ALPHA, DEFAULT_MIN_WEEK_FLIGHTS, DetectionMemo, DriftDecision,
                    STRATEGIES, STRATEGY_BASELINE, decide_drift, once)
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


@dataclass
class StreamRun:
    """One cell's run; error is the ValueError that ended it early, if any."""
    steps: list[StepResult] = field(default_factory=list)
    trainings_done: int = 0
    current_model: TrainedModel | None = None
    error: ValueError | None = None


def _score(model: TrainedModel, batch: Batch) -> tuple[ConfusionCounts, Metrics]:
    preds = learn.predict(model, (batch,))
    confusion = learn.confusion_from_predictions(batch.labels, preds)
    return confusion, learn.compute_metrics(confusion)


def recorded_step_years(stream: list[Batch], b: int, strategy: str,
                        year_range: tuple[int, int] | None = None) -> list[int]:
    """The steps of windowing.step_years at which a cell of this strategy
    records a row. It skips t when batch t+1 is empty, and when the b-window
    ending at t is all empty while it would train there: before its first
    model always, and afterwards unless it is baseline, which keeps its
    first model (passive retrains at every step, and active's detection
    fails on an empty window, which retrains)."""
    years = [batch.year for batch in stream]
    recorded: list[int] = []
    for t in step_years(years, b, year_range):
        pos = years.index(t)
        if stream[pos + 1].is_empty:
            continue
        window_empty = all(batch.is_empty for batch in stream[pos - b + 1:pos + 1])
        if window_empty and not (strategy == STRATEGY_BASELINE and recorded):
            continue
        recorded.append(t)
    return recorded


def run_stream(stream: list[Batch], b: int, cells: list[tuple[str, str]], spec: ModelSpec,
               year_range: tuple[int, int] | None = None,
               alpha: float = DEFAULT_ALPHA,
               min_week_flights: int = DEFAULT_MIN_WEEK_FLIGHTS,
               replicate: int = 0,
               store: "ModelStore | None" = None,
               store_airport: str | None = None,
               memo: DetectionMemo | None = None) -> list[StreamRun]:
    """Run each (strategy, detector) cell over the steps its strategy
    records (recorded_step_years); one StreamRun per cell, in order. Each
    step of windowing.step_years a strategy skips gets one log line. A
    ValueError, which every data refusal raises, ends only its cell; any
    other exception propagates. Decisions come from memo, which must belong
    to this stream; without one, the call makes its own. replicate keys the
    models saved to store.
    """
    if any(dh not in STRATEGIES for dh, _ in cells):
        raise ValueError(f"unknown strategy in {cells!r}")
    years = [batch.year for batch in stream]
    if len(years) < b + 1:
        raise WindowUnderflowError(f"stream of {len(years)} batches has no evaluable step for b={b}")
    recorded = {dh: recorded_step_years(stream, b, dh, year_range) for dh, _ in cells}
    for dh, steps in recorded.items():
        for t in (t for t in step_years(years, b, year_range) if t not in steps):
            log.warning("%s skips t=%d: test batch %d, or the window it would train on, "
                        "is empty", dh, t, t + 1)
    memo = memo if memo is not None else DetectionMemo()
    runs = [StreamRun() for _ in cells]
    for t in sorted(set().union(*recorded.values())):
        d_i = batch_sequence(stream, t, b)
        try:
            d_j = batch_sequence(stream, t - 1, b)
        except WindowUnderflowError:
            d_j = None
        test_batch = batch_sequence(stream, t + 1, 1).batches[0]
        shared: dict = {}  # the window's model, its stored object, and each model's scores
        for (dh, dd), run in zip(cells, runs):
            if run.error is not None or t not in recorded[dh]:
                continue
            try:
                if run.current_model is None:
                    # nothing to reuse: forced training, no detection to run
                    train_flag, decision = True, None
                else:
                    train_flag, decision = memo.once(
                        ("decision", dd, dh, d_i.batches, d_j and d_j.batches, alpha,
                         min_week_flights),
                        lambda: decide_drift(dd, dh, d_i, d_j, alpha=alpha,
                                             min_week_flights=min_week_flights, memo=memo))
                if train_flag:
                    run.current_model = once(shared, "model",
                                             lambda: learn.train(spec, d_i.batches))
                    run.trainings_done += 1
                    if store is not None:
                        name = once(shared, "object", lambda: store.put(run.current_model))
                        store.record(name, airport=store_airport, kind=spec.kind,
                                     dd=dd, dh=dh, b=b, replicate=replicate, t=t)
                model = run.current_model
                confusion, metrics = once(shared, model, lambda: _score(model, test_batch))
                run.steps.append(StepResult(t=t, trained=train_flag, drift=decision,
                                            confusion=confusion, metrics=metrics))
            except ValueError as exc:  # a data refusal ends this cell only
                log.exception("%s/%s failed at t=%d", dh, dd, t)
                run.error = exc
    return runs


class ModelStore:
    """Directory of serialized models keyed by
    (airport|SB, kind, dd, dh, b, replicate). Each distinct model is written
    once, as objects/<sha256 of its bytes>.npz; each key directory keeps a
    manifest whose history lists the (t, object) of every training step and
    whose latest names the last object. Both are written through
    learn.write_atomic, so an existing file is always whole."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.objects = self.root / "objects"
        self.objects.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def _key_name(airport: str | None, kind: str, dd: str, dh: str,
                  b: int, replicate: int) -> str:
        return f"{airport or 'SB'}__{kind}__{dd}__{dh}__b{b}__r{replicate}"

    def put(self, model: TrainedModel) -> str:
        """Write the model as an object unless that object exists; its name."""
        data = learn.model_bytes(model)
        path = self.objects / f"{hashlib.sha256(data).hexdigest()}.npz"
        if not path.exists():
            learn.write_atomic(path, data)
        return path.name

    def record(self, name: str, airport: str | None, kind: str, dd: str, dh: str,
               b: int, replicate: int, t: int) -> None:
        """Enter object name as the key's model trained at step t."""
        key_dir = self.root / self._key_name(airport, kind, dd, dh, b, replicate)
        key_dir.mkdir(exist_ok=True)
        manifest_path = key_dir / "manifest.json"
        if manifest_path.exists():
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        else:
            manifest = {"key": {"airport": airport or "SB", "kind": kind, "dd": dd,
                                "dh": dh, "b": b, "replicate": replicate},
                        "history": []}
        entry = {"t": t, "model": name}
        if entry not in manifest["history"]:
            manifest["history"].append(entry)
        manifest["latest"] = name
        learn.write_atomic(manifest_path, json.dumps(manifest, indent=2).encode())

    def load_latest(self, airport: str | None, kind: str, dd: str, dh: str,
                    b: int, replicate: int) -> TrainedModel:
        key_dir = self.root / self._key_name(airport, kind, dd, dh, b, replicate)
        manifest_path = key_dir / "manifest.json"
        if not manifest_path.exists():
            raise FileNotFoundError(f"no stored model under {key_dir}")
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        return learn.load_model(self.objects / manifest["latest"])
