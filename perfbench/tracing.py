"""In-memory spans and counts around driftlab's public functions.

The benchmark wraps each traced function at the name its callers look it
up (a module attribute, or the name another module imported), records one
span per call (name, start, end, parent) and the counts the per-layer
metrics need. Nothing is written until the run ends. Self time is a span's
duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import json
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, ks_sizes_built: set[int]):
        self.spans: list[list] = []       # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self.cell_seconds: list[float] = []
        # sample sizes whose Lilliefors table this process has built
        self.ks_sizes_built = ks_sizes_built
        self.ks_sizes: set[int] = set()
        self._stack: list[int] = []
        self.model_keys: dict[int, tuple] = {}

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def fresh_sweep(self):
        """Object identities are only stable within one sweep."""
        self.distinct.clear()
        self.model_keys.clear()

    def seen(self, kind: str, key) -> None:
        if key not in self.distinct[kind]:
            self.distinct[kind].add(key)
            self.counts["distinct." + kind] += 1

    # -- aggregation -----------------------------------------------------

    def _child_seconds(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        return child

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, self._child_seconds()):
            out[name] += (end - start) - inner
        return dict(out)

    def totals(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return dict(out)

    def self_time_residual(self) -> float:
        """Largest gap, as a share, between a root span and the summed self
        times of the spans under it; 0 up to rounding when spans nest."""
        root_of: list[int] = []
        summed: dict[int, float] = defaultdict(float)
        for i, ((_, start, end, parent), inner) in enumerate(
                zip(self.spans, self._child_seconds())):
            root = i if parent is None else root_of[parent]
            root_of.append(root)
            summed[root] += (end - start) - inner
        roots = ((i, end - start) for i, (_, start, end, parent) in enumerate(self.spans)
                 if parent is None)
        return max((abs(summed[i] - d) / d for i, d in roots if d > 0), default=0.0)


def _wrap(module, attr: str, make, undo: list):
    original = getattr(module, attr)
    undo.append((module, attr, original))
    setattr(module, attr, functools.wraps(original)(make(original)))


def _rows_key(rows) -> tuple:
    return tuple(map(id, rows))


def _windows_key(seq) -> tuple:
    return tuple(map(id, seq.batches))


def install(tracer: Tracer, dl):
    """Wrap the public functions of the imported driftlab package; return a
    function that puts the originals back."""
    undo: list = []
    learn, ingest, stats, drift = dl.learn, dl.ingest, dl.stats, dl.drift
    strategy, runner, synth, cli = dl.strategy, dl.runner, dl.synth, dl.cli

    def timed(name, on_result=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    result = fn(*args, **kwargs)
                tracer.counts[name + ".calls"] += 1
                if on_result is not None:
                    on_result(result, *args, **kwargs)
                return result
            return wrapper
        return make

    def counted(name):
        def make(fn):
            def wrapper(*args, **kwargs):
                tracer.counts[name + ".calls"] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    # synth, ingest
    _wrap(synth, "generate_stream", timed("synth.generate_stream"), undo)
    for attr in ("load_flights", "preprocess", "save_rows", "load_rows"):
        _wrap(ingest, attr, timed("ingest." + attr), undo)

    def normalized(result, *args, **kwargs):
        tracer.counts["ingest.normalized_rows"] += len(result)
    # learn imports both normalizer functions by name
    _wrap(learn, "fit_normalizer", timed("ingest.fit_normalizer"), undo)
    _wrap(learn, "apply_normalizer", timed("ingest.apply_normalizer", normalized), undo)

    # learn
    def make_train(fn):
        def wrapper(spec, rows, *args, **kwargs):
            rows = list(rows)
            key = (spec.kind, json.dumps(spec.hyperparameters, sort_keys=True),
                   spec.seed, _rows_key(rows))
            with tracer.span("learn.train." + spec.kind):
                model = fn(spec, rows, *args, **kwargs)
            tracer.counts["learn.trainings"] += 1
            tracer.seen("trainings", key)
            tracer.model_keys[id(model)] = (weakref.ref(model), key)
            return model
        return wrapper

    def make_predict(fn):
        def wrapper(model, rows, *args, **kwargs):
            rows = list(rows)
            ref, train_key = tracer.model_keys.get(id(model), (None, None))
            if ref is None or ref() is not model:
                train_key = ("untracked", id(model))
            with tracer.span("learn.predict." + model.spec.kind):
                result = fn(model, rows, *args, **kwargs)
            tracer.counts["learn.predictions"] += 1
            tracer.seen("predictions", (train_key, _rows_key(rows)))
            return result
        return wrapper

    _wrap(learn, "train", make_train, undo)
    _wrap(learn, "predict", make_predict, undo)
    _wrap(learn, "grid_search_cv", timed("learn.grid_search_cv"), undo)

    # windowing, as imported by runner and strategy
    _wrap(runner, "partition_by_year", timed("windowing.partition_by_year"), undo)
    _wrap(strategy, "batch_sequence", counted("windowing.batch_sequence"), undo)

    # drift
    def make_weekly(fn):
        def wrapper(seq, *args, **kwargs):
            with tracer.span("drift.weekly_delay_proportions"):
                result = fn(seq, *args, **kwargs)
            tracer.counts["drift.weekly_proportions_calls"] += 1
            tracer.seen("weekly_windows", (_windows_key(seq), args, tuple(kwargs.items())))
            return result
        return wrapper
    _wrap(drift, "weekly_delay_proportions", make_weekly, undo)

    def make_decide(fn):
        def wrapper(dd, dh, d_i, d_j, *args, **kwargs):
            with tracer.span("drift.decide_drift"):
                train, decision = fn(dd, dh, d_i, d_j, *args, **kwargs)
            if dh == "active" and d_j is not None:
                tracer.counts["drift.detections"] += 1
                tracer.seen("detections", (dd, _windows_key(d_i), _windows_key(d_j),
                                           args, tuple(sorted(kwargs.items()))))
                if decision is None:
                    tracer.counts["drift.failsafe_retrains"] += 1
                elif not (decision.normal_a and decision.normal_b):
                    tracer.counts["drift.nonparametric"] += 1
            return train, decision
        return wrapper
    _wrap(strategy, "decide_drift", make_decide, undo)

    # stats, as drift calls them
    def make_ks(fn):
        def wrapper(sample, *args, **kwargs):
            n = len(sample)
            cold = n not in tracer.ks_sizes_built
            tracer.ks_sizes_built.add(n)
            tracer.ks_sizes.add(n)
            with tracer.span("stats.ks_normality." + ("cold" if cold else "warm")):
                return fn(sample, *args, **kwargs)
        return wrapper
    _wrap(stats, "ks_normality", make_ks, undo)
    _wrap(stats, "shapiro_wilk", timed("stats.shapiro_wilk"), undo)
    for attr in ("welch_t", "wilcoxon_rank_sum"):
        _wrap(stats, attr, timed("stats.mean_tests"), undo)
    for attr in ("f_variance", "levene"):
        _wrap(stats, attr, timed("stats.variance_tests"), undo)

    # special, as bound inside stats
    for attr in ("norm_cdf", "norm_ppf", "norm_sf", "f_cdf", "f_sf", "t_sf_two_sided"):
        _wrap(stats, attr, timed("special." + attr), undo)

    # strategy, as runner calls it
    def make_run_stream(fn):
        def wrapper(*args, **kwargs):
            with tracer.span("strategy.run_stream") as record:
                result = fn(*args, **kwargs)
            tracer.cell_seconds.append(record[2] - record[1])
            tracer.counts["strategy.cells"] += 1
            return result
        return wrapper
    _wrap(runner, "run_stream", make_run_stream, undo)

    # runner and its analyses
    _wrap(runner, "drift_analysis", timed("runner.drift_analysis"), undo)
    _wrap(runner, "load_results", timed("runner.load_results"), undo)
    _wrap(runner, "count_drifts", timed("runner.count_drifts"), undo)
    _wrap(runner, "topk_frequency", timed("runner.topk_frequency"), undo)
    _wrap(runner, "correlate_drifts_performance", timed("runner.correlate"), undo)

    # cli
    _wrap(cli, "main", timed("cli.main"), undo)

    def uninstall():
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)
    return uninstall
