"""A miniature experiment sweep with resume, plus the three analyses."""

import tempfile
from pathlib import Path

from driftlab import synth
from driftlab.runner import (ExperimentGrid, count_drifts, correlate_drifts_performance,
                             drift_analysis, export_results, topk_frequency)

spec = synth.SyntheticSpec(
    years=7, weeks_per_year=26, flights_per_week=60, base_delay_rate=0.2,
    drift_events=(synth.DriftEvent(at_year=4, kind="prior_shift", magnitude=0.2),),
    seed=17)
rows, _ = synth.generate_stream(spec)

grid = ExperimentGrid(airports=("SB",), classifiers=("NB", "RF"), years=(2002, 2006),
                      bss=(1, 2), replicates=3)
hyper = {"NB": {"smoothing": 0.5},
         "RF": {"trees_count": 10, "predictors_per_split": 2}}

# The sweep's files live in a work directory that is removed at the end.
with tempfile.TemporaryDirectory(prefix="driftlab_demo_") as tmp:
    workdir = Path(tmp)
    results_path = workdir / "results.csv"
    results = drift_analysis(rows, grid, results_path, hyperparameters=hyper, base_seed=100)
    print(f"sweep wrote {len(results)} rows to {results_path}")

    # Rerunning skips completed cells: the table is append-only with keyed dedupe.
    again = drift_analysis(rows, grid, results_path, hyperparameters=hyper, base_seed=100)
    print(f"resume pass: still {len(again)} rows (no duplicates)")

    export_results(results, workdir / "export.csv")
    print("exported copy:", workdir / "export.csv")

# Detected drifts per (airport, detector, bss); the union detector dominates.
report = count_drifts(results)
for row in report.counts:
    print(f"  drifts {row['detector']:13s} b={row['bss']}: {row['drifts']}")

# Top-k combinations ranked by median f1.
topk = topk_frequency(results, k_range=(5, 10), rank_metric="f1")
print("\nbest combination:", topk.combos[0])
print("strategy frequency in top 5:", topk.strategy_freq[5])

# Correlation needs >= 3 (airport, bss) groups; this sweep has 2, so the
# analysis refuses cleanly.
try:
    correlate_drifts_performance(results)
except ValueError as exc:
    print("\ncorrelate on this small sweep:", exc)
