"""The benchmark's workloads: their inputs, sizes and grids.

Every workload is one user session of driftlab, driven stage by stage:
``driftlab preprocess`` of a raw CSV, building the sweep's input rows
(set-up), a fresh sweep, a resume after the table's tail is lost, and the
three ``driftlab analyze`` subcommands. The workloads differ in where the
size goes, so that each stresses other layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import inputs

# Fixed classifier settings; NB is tuned by grid search where it is not
# listed. Small forests and short MLP training keep one sweep a few seconds.
RF_FIXED = {"trees_count": 3, "predictors_per_split": 2, "max_depth": 6}
MLP_FIXED = {"hidden_neurons": 8, "learning_rate": 0.1, "epochs": 4}
NB_FIXED = {"smoothing": 0.5}
CV_FOLDS = 3

# Synthetic streams: 5 yearly batches give two steps per cell at b = 3, and
# 5 flights per week is the least that keeps every week in the detectors'
# weekly proportions (min_week_flights).
STREAM_YEARS = 5
WEEKS_PER_YEAR = 52
FLIGHTS_PER_WEEK = 5

DETECTORS = ("mean", "variance", "mean_variance")
BSS = (1, 2, 3)
RESUME_DROP_SHARE = 0.1   # share of result lines lost before a resume


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    raw_lines: int                   # lines of the raw flight CSV
    raw_years: int
    streams: int = 0                 # synthetic streams; 0 = sweep the preprocessed table
    classifiers: tuple = ("NB",)
    strategies: tuple = ("active",)
    replicates: int = 1
    hyperparameters: dict = field(default_factory=dict)
    paper_table: bool = False        # analyze the paper-shaped table, not the sweep's
    k_range: str = "1,3,5"
    # per round: sweeps, resumes after each sweep, and preprocess plus
    # analyze pairs; the short stages repeat to gather samples
    sweep_repeats: int = 1
    resume_repeats: int = 1
    short_repeats: int = 6


WORKLOADS = {w.name: w for w in (
    Workload(
        name="grid_sweep",
        why="RF/MLP fits, NB grid search and normalization over a full strategy grid; "
            "most trainings repeat an earlier one",
        raw_lines=2000, raw_years=3,
        streams=1, classifiers=("NB", "NN", "RF"), strategies=("baseline", "passive", "active"),
        replicates=2, hyperparameters={"MLP": MLP_FIXED, "RF": RF_FIXED},
        resume_repeats=2,
    ),
    Workload(
        name="detect_airports",
        why="p(Y) drift detection and NB prediction on 11 scales of small weekly batches; "
            "cold Lilliefors tables at n=52/104/156 in the first round",
        raw_lines=2000, raw_years=3,
        streams=10, classifiers=("NB",), strategies=("active",),
        hyperparameters={"NB": NB_FIXED}, resume_repeats=3,
    ),
    Workload(
        name="ingest_io",
        why="raw CSV preprocessing, the row-table load every driftlab run pays and "
            "analyses of a 27k-row paper-shaped results table; nothing heavy is modelled",
        raw_lines=6000, raw_years=5,
        classifiers=("NB",), strategies=("baseline", "passive"),
        hyperparameters={"NB": NB_FIXED}, paper_table=True, k_range="5..45",
        sweep_repeats=2, short_repeats=1,
    ),
)}


def stream_specs(dl, workload: Workload, seed: int) -> list[tuple[str | None, object]]:
    """(origin label, SyntheticSpec) per synthetic stream.

    The streams' structure is fixed, so every seed asks for the same kind
    of work: the seed draws only the flights. With several streams, each
    differs in shift year, shift magnitude, base rate and seasonality, so
    that both the normal and the non-normal test branches run.
    """
    if workload.streams == 1:
        shapes = [(None, 4, 0.3, 3, 0.15, 0.3)]
    else:
        shapes = [(inputs.TOP_AIRPORTS[i], 2 + i % 4, 0.06 + 0.015 * i, 2 + (i + 2) % 4,
                   0.15 + 0.015 * (i % 5), (0.0, 0.3, 0.8)[i % 3])
                  for i in range(workload.streams)]
    seeds = np.random.SeedSequence(seed).generate_state(len(shapes))
    specs = []
    for (label, shift_year, magnitude, flip_year, rate, seasonality), stream_seed in zip(
            shapes, seeds):
        events = (dl.synth.DriftEvent(at_year=shift_year, kind="prior_shift",
                                      magnitude=magnitude),
                  dl.synth.DriftEvent(at_year=flip_year, kind="boundary_flip"))
        specs.append((label, dl.synth.SyntheticSpec(
            years=STREAM_YEARS, weeks_per_year=WEEKS_PER_YEAR,
            flights_per_week=FLIGHTS_PER_WEEK, base_delay_rate=rate,
            seasonal_amplitude=seasonality, drift_events=events, seed=int(stream_seed),
            start_year=2001)))
    return specs


def build_stream_rows(dl, specs) -> list:
    """The sweep's input rows: each stream generated by driftlab and
    relabelled with its airport code."""
    rows = []
    for label, spec in specs:
        stream, _ = dl.synth.generate_stream(spec)
        if label is not None:
            for row in stream:
                row.origin_airport = label
        rows.extend(stream)
    return rows


def sweep_grid(dl, workload: Workload, row_years: list[int]):
    """The experiment grid: every scale present, steps over the years
    whose b-window and test batch both exist."""
    first, last = min(row_years), max(row_years)
    top = max(BSS)
    airports = (None,) + inputs.TOP_AIRPORTS if workload.streams > 1 else (None,)
    return dl.runner.ExperimentGrid(
        airports=airports, classifiers=workload.classifiers,
        years=(first + top - 1, last - 1), bss=BSS,
        detectors=DETECTORS, strategies=workload.strategies,
        replicates=workload.replicates)


def expected_result_keys(workload: Workload, grid) -> list[tuple]:
    """The analytic cross-product of cells and steps, as result-row keys
    (airport, classifier, bss, detector, strategy, replicate, t), computed
    from the workload's definition rather than from driftlab."""
    lo, hi = grid.years
    first_batch = lo - (max(grid.bss) - 1)
    keys = []
    for airport in grid.airports:
        for kind in grid.classifiers:
            reps = 1 if kind == "NB" else grid.replicates
            for b in grid.bss:
                steps = [t for t in range(first_batch + b - 1, hi + 1) if lo <= t <= hi]
                for strategy in grid.strategies:
                    detectors = grid.detectors if strategy == "active" else ("na",)
                    for detector in detectors:
                        for rep in range(reps):
                            keys.extend((airport or "SB", kind, str(b), detector, strategy,
                                         str(rep), str(t)) for t in steps)
    return keys
