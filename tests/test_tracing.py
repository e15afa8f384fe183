"""The benchmark's tracer wraps driftlab functions by the names their callers
look up; a refactor that drops or renames one must fail here, not in a
traced benchmark run."""

import importlib.util
from pathlib import Path

import driftlab
import driftlab.cli
from driftlab import synth
from driftlab.runner import ExperimentGrid

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracing = load_tracing()
    traced = {"runner.run_stream": (driftlab.runner, "run_stream"),
              "strategy.decide_drift": (driftlab.strategy, "decide_drift"),
              "drift.weekly_delay_proportions": (driftlab.drift, "weekly_delay_proportions"),
              "learn.train": (driftlab.learn, "train")}
    originals = {name: getattr(module, attr) for name, (module, attr) in traced.items()}
    uninstall = tracing.install(tracing.Tracer(set()), driftlab)
    try:
        for name, (module, attr) in traced.items():
            assert getattr(module, attr) is not originals[name], name
    finally:
        uninstall()
    for name, (module, attr) in traced.items():
        assert getattr(module, attr) is originals[name], name


def test_traced_sweep_detects_once(tmp_path):
    tracing = load_tracing()
    spec = synth.SyntheticSpec(years=5, weeks_per_year=26, flights_per_week=40,
                               base_delay_rate=0.2, seed=0)
    rows, _ = synth.generate_stream(spec)
    grid = ExperimentGrid(airports=(None,), classifiers=("NB", "RF"), years=(2002, 2004),
                          bss=(1, 2), replicates=2)
    hp = {"NB": {"smoothing": 0.5}, "RF": {"trees_count": 2, "predictors_per_split": 2}}
    tracer = tracing.Tracer(set())
    uninstall = tracing.install(tracer, driftlab)
    try:
        driftlab.runner.drift_analysis(rows, grid, tmp_path / "res.csv", hyperparameters=hp)
    finally:
        uninstall()
    counts = tracer.counts
    assert counts["drift.detections"] > 0
    assert counts["drift.detections"] == counts["distinct.detections"]
    assert counts["drift.weekly_proportions_calls"] == counts["distinct.weekly_windows"]
    # every layer the sweep reaches shows up, so no per-layer metric reads 0
    # because a wrapped name is no longer called
    totals = tracer.totals()
    reached = ["windowing.partition_by_year", "drift.weekly_delay_proportions",
               "drift.decide_drift", "stats.shapiro_wilk", "stats.ks_normality.cold",
               "stats.mean_tests", "stats.variance_tests", "learn.train.NB", "learn.train.RF",
               "learn.predict.NB", "learn.predict.RF", "ingest.fit_normalizer",
               "ingest.apply_normalizer", "strategy.run_stream"]
    assert {name: totals.get(name, 0.0) > 0 for name in reached} == dict.fromkeys(reached, True)
    assert counts["windowing.batch_sequence.calls"] > 0
