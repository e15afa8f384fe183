#!/usr/bin/env python3
"""driftlab benchmark: one closed-loop caller, one process per run.

    python3 perfbench/run.py --workload grid_sweep --seed 1 --seconds 45 --trace 0

Run from the root of a driftlab checkout; driftlab is imported from its
``src`` directory. Inputs are generated from ``--seed``. Set-up (importing
driftlab and building the sweep's input rows) is timed three times at the
start of the run and three times at its end. Between them, until
``--seconds`` have passed, the run repeats a round of stages:

    sweep       runner.drift_analysis to a complete fresh results table
    resume      drift_analysis again after the table's tail lines are lost
    preprocess  ``driftlab preprocess`` of the raw CSV (through cli.main)
    analyze     ``driftlab analyze topk|drifts|correlate`` (through cli.main)

Round 0 fills driftlab's per-process caches, as every ``driftlab`` command
does; it is reported on its own and the medians are over the rounds after
it. Every output is checked; a failed check or an error-marker row counts
as failed. With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` rounds alternate
between traced and untraced, and the per-layer metrics come from the traced
rounds. A report with the machine, the sizes, every sample and every failed
check is printed before that line. The exit code is 0 only when a result
was printed.
"""

from __future__ import annotations

import os

# One BLAS thread per process: the run is a single closed-loop caller and
# uses at most one core for numpy work, which keeps timings steady.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import tracing  # noqa: E402
from workloads import (CV_FOLDS, RESUME_DROP_SHARE, WORKLOADS, build_stream_rows,  # noqa: E402
                       expected_result_keys, stream_specs, sweep_grid)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_REPEATS = 3           # set-ups timed at the start of a run, and again at its end
PAPER_SCALE_ROWS = 176_000   # one paper-scale airport row table


def fresh_driftlab():
    """Import driftlab anew, as a new ``driftlab`` process would."""
    for name in [m for m in sys.modules if m == "driftlab" or m.startswith("driftlab.")]:
        del sys.modules[name]
    dl = importlib.import_module("driftlab")
    importlib.import_module("driftlab.cli")
    if Path(dl.__file__).resolve().parent != (SRC / "driftlab").resolve():
        raise RuntimeError(f"driftlab imported from {dl.__file__}, not from {SRC}")
    return dl


def median(values) -> float:
    return float(statistics.median(values))


class Checks:
    """Output checks: each is one attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(what)


class Session:
    def __init__(self, workload, seed: int, work: Path, seconds: int, traced: bool):
        self.w = workload
        self.seed = seed
        self.work = work
        self.seconds = seconds
        self.traced = traced
        self.checks = Checks()
        self.samples: dict[str, list[float]] = {s: [] for s in (
            "setup_s", "preprocess_s", "sweep_s", "resume_s", "analyze_s")}
        self.traced_samples: dict[str, list[float]] = {}
        self.layer_rounds: list[dict] = []
        self.setup_tracers: list[tracing.Tracer] = []
        self.ks_sizes_built: set[int] = set()
        self.digests: set[str] = set()
        self.error_rows = 0
        self.result_rows = 0
        self.nonbool_flags: list[int] = []
        self.sizes: dict = {}
        self.extra: dict = {}
        self.raw = work / "flights.csv"
        self.table = work / "rows.npz"
        self.results = work / "results.csv"
        self.analyzed = work / "paper_results.csv" if workload.paper_table else self.results

    # -- driving one stage -------------------------------------------------

    def stage(self, name: str, tracer, fn):
        """Run fn(dl); return (result, seconds)."""
        uninstall = None
        if tracer is not None:
            uninstall = tracing.install(tracer, self.dl)
            tracer.fresh_sweep()
        gc.collect()
        span = tracer.span("stage." + name) if tracer is not None else contextlib.nullcontext()
        try:
            with span:
                start = time.perf_counter()
                result = fn(self.dl)
                elapsed = time.perf_counter() - start
        finally:
            if uninstall is not None:
                uninstall()
        return result, elapsed

    def cli(self, dl, argv) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = dl.cli.main(argv)
        return rc, out.getvalue()

    # -- preparation -------------------------------------------------------

    def prepare(self):
        w = self.w
        self.truth = inputs.write_raw_flights(self.raw, seed=self.seed, lines=w.raw_lines,
                                              first_year=2001, years=w.raw_years)
        self.sizes.update(raw_lines=w.raw_lines, raw_records=self.truth.records,
                          raw_malformed=self.truth.malformed, preprocessed_rows=self.truth.kept)
        dl = fresh_driftlab()
        self.check_preprocess(*self.cli(dl, ["preprocess", str(self.raw), "-o", str(self.table)]))
        if w.paper_table:
            rows, self.paper_truth = inputs.paper_results(self.seed)
            dl.runner.export_results(rows, self.analyzed)
            self.sizes["analyzed_results_rows"] = len(rows)
        if w.streams:
            # set-up builds the sweep's rows from streams; check the table
            # preprocess wrote once here
            loaded, _ = dl.ingest.load_rows(self.table)
            self.checks.check(inputs.rows_match(self.truth.rows, loaded),
                              "load_rows does not round-trip the preprocessed rows")

    def check_preprocess(self, rc: int, out: str):
        t = self.truth
        lines = out.splitlines()
        excluded = ", ".join(f"{k}={v}" for k, v in sorted(t.excluded.items()))
        ok = (rc == 0 and bool(lines)
              and lines[0] == f"{t.records} records loaded, {t.malformed} malformed lines"
              and any(line.startswith(f"{t.kept} rows kept -> ") for line in lines)
              and (not excluded or f"excluded: {excluded}" in lines))
        self.checks.check(ok, f"preprocess output differs from the generator's counts: {out[:300]!r}")

    # -- set-up --------------------------------------------------------------

    def setup_once(self):
        tracer = tracing.Tracer(self.ks_sizes_built) if self.traced else None
        gc.collect()
        start = time.perf_counter()
        dl = fresh_driftlab()
        uninstall = tracing.install(tracer, dl) if tracer is not None else None
        if self.w.streams:
            rows = build_stream_rows(dl, stream_specs(dl, self.w, self.seed))
        else:
            rows, _ = dl.ingest.load_rows(self.table)
        elapsed = time.perf_counter() - start
        if uninstall is not None:
            uninstall()
        self.dl = dl
        if not self.w.streams:
            self.checks.check(inputs.rows_match(self.truth.rows, rows),
                              "load_rows does not round-trip the preprocessed rows")
        self.samples["setup_s"].append(elapsed)
        if tracer is not None:
            self.setup_tracers.append(tracer)
        return rows

    # -- one round -----------------------------------------------------------

    def round(self, tracer) -> dict[str, list[float]]:
        """One session: each sweep with its resumes, and the short stages
        dealt into the gaps before each resume and after the last one, so
        that their samples spread over the round. The sweep workloads
        analyze the table their sweep wrote."""
        w = self.w
        times = {name: [] for name in self.samples if name != "setup_s"}
        counts = {"rows_written": 0, "bytes_written": 0, "cells_rerun_on_resume": 0}
        gaps = w.sweep_repeats * w.resume_repeats + 1
        shares = iter([w.short_repeats // gaps + (i < w.short_repeats % gaps)
                       for i in range(gaps)])
        for _ in range(w.sweep_repeats):
            full = self.sweep(tracer, times, counts)
            for _ in range(w.resume_repeats):
                self.short_stages(tracer, times, next(shares))
                self.resume(tracer, times, counts, full)
        self.short_stages(tracer, times, next(shares))
        if tracer is not None:
            self.layer_rounds.append(self.layer_metrics(tracer, counts))
        return times

    def short_stages(self, tracer, times, repeats: int):
        def preprocess(dl):
            return self.cli(dl, ["preprocess", str(self.raw), "-o", str(self.table)])

        def analyze(dl):
            return [self.cli(dl, ["analyze", what, "--results", str(self.analyzed),
                                  "--k", self.w.k_range])
                    for what in ANALYSES]

        for _ in range(repeats):
            out, elapsed = self.stage("preprocess", tracer, preprocess)
            times["preprocess_s"].append(elapsed)
            self.check_preprocess(*out)

            outs, elapsed = self.stage("analyze", tracer, analyze)
            times["analyze_s"].append(elapsed)
            for what, (rc, out) in zip(ANALYSES, outs):
                self.checks.check(rc == 0 and out.strip() != "",
                                  f"analyze {what} failed: rc={rc}")
            if self.w.paper_table:
                self.checks.check(parse_drift_counts(outs[1][1]) == self.paper_truth,
                                  "analyze drifts differs from the table's known drift flags")

    def run_sweep(self, dl):
        """``driftlab run`` of the workload's grid into the results table."""
        grid = sweep_grid(dl, self.w, self.row_years)
        dl.runner.drift_analysis(self.rows, grid, self.results,
                                 hyperparameters=self.w.hyperparameters,
                                 base_seed=1000 + self.seed, cv_folds=CV_FOLDS)
        return grid

    def sweep(self, tracer, times, counts) -> bytes:
        for path in (self.results, Path(str(self.results) + ".manifest.json")):
            path.unlink(missing_ok=True)
        grid, elapsed = self.stage("sweep", tracer, self.run_sweep)
        times["sweep_s"].append(elapsed)
        full = self.results.read_bytes()
        counts["rows_written"] += full.count(b"\n") - 1
        counts["bytes_written"] += len(full)
        self.check_table(full, expected_result_keys(self.w, grid))
        self.digests.add(hashlib.sha256(full).hexdigest())
        return full

    def resume(self, tracer, times, counts, full: bytes):
        kept = b"".join(full.splitlines(keepends=True)[:-self.resume_drop(full)])
        self.results.write_bytes(kept)
        cells_before = tracer.counts["strategy.cells"] if tracer else 0
        _, elapsed = self.stage("resume", tracer, self.run_sweep)
        times["resume_s"].append(elapsed)
        resumed = self.results.read_bytes()
        self.checks.check(resumed == full, "the resumed table differs from the uninterrupted one")
        counts["rows_written"] += resumed.count(b"\n") - kept.count(b"\n")
        counts["bytes_written"] += len(resumed) - len(kept)
        if tracer:
            counts["cells_rerun_on_resume"] += tracer.counts["strategy.cells"] - cells_before

    def resume_drop(self, table: bytes) -> int:
        """Result lines lost before a resume: RESUME_DROP_SHARE of them, at least one."""
        return max(1, round((table.count(b"\n") - 1) * RESUME_DROP_SHARE))

    def check_table(self, data: bytes, expected_keys: list[tuple]):
        """Row count equals the analytic cross-product, keys are unique,
        and no row is an error marker. Flag cells that are not true, false
        or empty are counted, not failed: a known defect."""
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
        header, body = rows[0], rows[1:]
        col = {name: i for i, name in enumerate(header)}
        key_cols = [col[c] for c in ("airport", "classifier", "bss", "detector",
                                     "strategy", "replicate", "t")]
        keys = [tuple(r[i] for i in key_cols) for r in body]
        self.checks.check(len(body) == len(expected_keys),
                          f"{len(body)} result rows, expected {len(expected_keys)}")
        self.checks.check(len(set(keys)) == len(keys) and set(keys) == set(expected_keys),
                          "result keys are not unique or differ from the grid")
        errors = sum(1 for r in body if r[col["error"]])
        self.result_rows += len(body)
        self.error_rows += errors
        self.nonbool_flags.append(sum(1 for r in body for c in ("trained", "drift")
                                      if r[col[c]] not in ("true", "false", "")))
        self.sizes.update(result_rows=len(body), cells=len({k[:6] for k in keys}))

    # -- per-layer metrics ---------------------------------------------------

    def layer_metrics(self, tracer: tracing.Tracer, counts: dict) -> dict:
        tot = defaultdict(float, tracer.totals())
        own = defaultdict(float, tracer.self_times())
        c = tracer.counts
        m = {
            "ingest.load_flights_s": tot["ingest.load_flights"],
            "ingest.preprocess_s": tot["ingest.preprocess"],
            "ingest.save_rows_s": tot["ingest.save_rows"],
            "ingest.fit_normalizer_s": tot["ingest.fit_normalizer"],
            "ingest.apply_normalizer_s": tot["ingest.apply_normalizer"],
            "ingest.normalized_rows": c["ingest.normalized_rows"],
            "windowing.partition_by_year_s": tot["windowing.partition_by_year"],
            "windowing.batch_sequence_calls": c["windowing.batch_sequence.calls"],
            "drift.weekly_proportions_s": tot["drift.weekly_delay_proportions"],
            "drift.weekly_proportions_calls": c["drift.weekly_proportions_calls"],
            "drift.distinct_weekly_windows": c["distinct.weekly_windows"],
            "drift.decide_s": tot["drift.decide_drift"],
            "drift.detections": c["drift.detections"],
            "drift.distinct_detections": c["distinct.detections"],
            "drift.failsafe_retrains": c["drift.failsafe_retrains"],
            "drift.nonparametric_share": (
                c["drift.nonparametric"] / (c["drift.detections"] - c["drift.failsafe_retrains"])
                if c["drift.detections"] > c["drift.failsafe_retrains"] else 0.0),
            "stats.ks_normality_cold_s": tot["stats.ks_normality.cold"],
            "stats.ks_normality_warm_s": tot["stats.ks_normality.warm"],
            "stats.lilliefors_sizes": len(tracer.ks_sizes),
            "stats.shapiro_wilk_s": tot["stats.shapiro_wilk"],
            "stats.mean_tests_s": tot["stats.mean_tests"],
            "stats.variance_tests_s": tot["stats.variance_tests"],
            "special.norm_ppf_calls": c["special.norm_ppf.calls"],
            "special.norm_cdf_s": tot["special.norm_cdf"],
            "learn.trainings": c["learn.trainings"],
            "learn.distinct_trainings": c["distinct.trainings"],
            "learn.grid_search_s": tot["learn.grid_search_cv"],
            "learn.predictions": c["learn.predictions"],
            "learn.distinct_predictions": c["distinct.predictions"],
            "strategy.cell_p50_s": median(tracer.cell_seconds) if tracer.cell_seconds else 0.0,
            "strategy.cell_tail_s": tail(tracer.cell_seconds),
            "runner.self_s": own["runner.drift_analysis"],
            "runner.rows_written": counts["rows_written"],
            "runner.bytes_written": counts["bytes_written"],
            "runner.load_results_s": tot["runner.load_results"],
            "runner.cells_rerun_on_resume": counts["cells_rerun_on_resume"],
            "runner.count_drifts_s": tot["runner.count_drifts"],
            "runner.topk_s": tot["runner.topk_frequency"],
            "runner.correlate_s": tot["runner.correlate"],
            "runner.nonbool_flag_values": self.nonbool_flags[-1],
            "cli.self_s": own["cli.main"],
        }
        for kind in ("NB", "MLP", "RF"):
            m[f"learn.train_s.{kind}"] = tot[f"learn.train.{kind}"]
            m[f"learn.predict_s.{kind}"] = tot[f"learn.predict.{kind}"]
        residual = tracer.self_time_residual()
        self.checks.check(residual < 1e-9,
                          f"per-layer self times miss their stage span by {residual:.3g}")
        self.extra.setdefault("self_time_by_layer", []).append(layer_self_times(own))
        return m

    # -- the run -------------------------------------------------------------

    def run(self) -> tuple[dict, dict]:
        began = time.perf_counter()
        self.prepare()
        for _ in range(SETUP_REPEATS):
            self.rows = self.setup_once()
        self.row_years = sorted({r.year for r in self.rows})
        self.sizes.update(sweep_input_rows=len(self.rows), streams=self.w.streams)
        # leave room for the set-ups that close the run
        deadline = began + self.seconds - SETUP_REPEATS * max(self.samples["setup_s"])

        # Round 0 is the only one with cold per-process caches: it is
        # reported on its own and medians are over the warm rounds after it.
        # In a traced run the even rounds are traced, so round 0 shows the
        # cold costs.
        min_rounds = 3
        longest = 0.0
        round_totals = {False: [], True: []}
        n = 0
        while n < min_rounds or time.perf_counter() + longest <= deadline:
            traced_round = self.traced and n % 2 == 0
            tracer = tracing.Tracer(self.ks_sizes_built) if traced_round else None
            start = time.perf_counter()
            times = self.round(tracer)
            if n == 0:
                self.first_round = times
            else:
                longest = max(longest, time.perf_counter() - start)
                round_totals[traced_round].append(sum(sum(v) for v in times.values()))
                target = self.traced_samples if traced_round else self.samples
                for key, values in times.items():
                    target.setdefault(key, []).extend(values)
            n += 1

        self.checks.check(len(self.digests) == 1,
                          f"results digest differs between rounds: {sorted(self.digests)}")
        self.checks.check(len(set(self.nonbool_flags)) == 1,
                          "flag-value counts differ between rounds")
        self.checks.attempted += self.result_rows
        self.checks.failed += self.error_rows
        if self.error_rows:
            self.checks.failures.append(f"{self.error_rows} error-marker result rows")

        if self.traced:
            metrics = self.per_layer(round_totals)
            units = dict(PER_LAYER)
            metrics = {name: {"value": value, "unit": units[name]}
                       for name, value in metrics.items()}
        # set-up samples at both ends of the run, so that they do not all
        # fall into one phase of the host
        for _ in range(SETUP_REPEATS):
            self.setup_once()
        if not self.traced:
            values = {name: median(self.samples[name]) for name in self.samples}
            values["peak_rss_mb"] = peak_rss_mb()
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END}
        result = {"correct": self.checks.failed == 0, "attempted": self.checks.attempted,
                  "failed": self.checks.failed, "metrics": metrics}
        report = self.report(time.perf_counter() - began)
        return result, report

    def per_layer(self, round_totals) -> dict:
        rounds = self.layer_rounds
        count_keys = [name for name, unit in PER_LAYER if unit == "count"
                      and name in rounds[0]]
        self.checks.check(all({k: r[k] for k in count_keys} == {k: rounds[0][k] for k in count_keys}
                              for r in rounds),
                          "per-layer work counts differ between traced rounds")
        out = {name: median([r[name] for r in rounds[1:]]) for name in rounds[0]}
        for name in count_keys:
            out[name] = rounds[0][name]
        # the Lilliefors tables are built in round 0 only
        out["stats.ks_normality_cold_s"] = rounds[0]["stats.ks_normality_cold_s"]
        out["synth.generate_stream_s"] = median(
            [t.totals().get("synth.generate_stream", 0.0) for t in self.setup_tracers])
        out.update(self.load_rows_growth())
        out["runner.torn_resume_bad_rows"] = self.torn_resume()
        out["trace.overhead_share"] = (median(round_totals[True])
                                       / median(round_totals[False]) - 1.0)
        missing = {name for name, _ in PER_LAYER} ^ set(out)
        if missing:
            raise RuntimeError(f"per-layer metrics out of step with PER_LAYER: {missing}")
        return out

    def load_rows_growth(self) -> dict:
        """Load time of the preprocessed table over that of its first half:
        about 2 when loading is linear, about 4 when it is quadratic."""
        dl = self.dl
        rows, names = dl.ingest.load_rows(self.table)
        half = self.work / "half_rows.npz"
        dl.ingest.save_rows(rows[:len(rows) // 2], names, half)
        times = {}
        for label, path in (("full", self.table), ("half", half), ("full", self.table),
                            ("half", half)):
            gc.collect()
            start = time.perf_counter()
            dl.ingest.load_rows(path)
            times.setdefault(label, []).append(time.perf_counter() - start)
        full, part = min(times["full"]), min(times["half"])
        growth = full / part
        self.extra["load_rows"] = {"rows": len(rows), "full_s": full, "half_s": part,
                                   "growth": growth,
                                   "paper_scale_estimate_s": full * (PAPER_SCALE_ROWS / len(rows))
                                   ** math.log2(max(growth, 1.0))}
        return {"ingest.load_rows_s": full, "ingest.load_rows_growth": growth}

    def torn_resume(self) -> int:
        """Resume after the table is cut inside a line; count the rows that
        then differ from the uninterrupted table."""
        full = self.results.read_bytes()
        lines = full.splitlines(keepends=True)
        keep = len(lines) - self.resume_drop(full) - 1
        self.results.write_bytes(b"".join(lines[:keep])
                                 + lines[keep][:len(lines[keep]) * 2 // 3])
        try:
            self.run_sweep(self.dl)
        except ValueError as exc:  # the torn row can break the final reload
            self.extra["torn_resume_error"] = f"{type(exc).__name__}: {exc}"
        after = Counter(self.results.read_bytes().splitlines())
        before = Counter(full.splitlines())
        self.results.write_bytes(full)
        return sum(((after - before) + (before - after)).values())

    def report(self, wall: float) -> dict:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        skipped = [
            {"scale": "paper-scale row table through load_rows", "rows": PAPER_SCALE_ROWS,
             "reason": "load_rows time grows faster than linearly; at paper scale it "
                       "exceeds the run budget",
             "estimate_s": self.extra.get("load_rows", {}).get("paper_scale_estimate_s")},
            {"scale": "paper-scale sweep (11 scales x 165 cells x 15 years)", "rows": 27225,
             "reason": "hours of training on the paper's row counts; analyses of a table "
                       "of this shape run in ingest_io instead"},
        ]
        return {
            "workload": self.w.name, "why": self.w.why, "seed": self.seed,
            "seconds": self.seconds, "trace": self.traced, "wall_s": wall,
            "machine": {
                "nproc": os.cpu_count(),
                "usable_cpus": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "numpy": np.__version__,
                "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
                "blas_threads": {v: os.environ.get(v) for v in
                                 ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            },
            "sizes": self.sizes,
            "first_round_samples": self.first_round,
            "samples": self.samples,
            "traced_samples": self.traced_samples,
            "results_digest": sorted(self.digests),
            "nonbool_flag_values": self.nonbool_flags,
            "failures": self.checks.failures,
            "skipped": skipped,
            **self.extra,
        }


ANALYSES = ("topk", "drifts", "correlate")


def tail(values: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it; the
    maximum when there are ten samples or fewer."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[len(ordered) - 11] if len(ordered) > 10 else ordered[-1]


def layer_self_times(own: dict[str, float]) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, seconds in own.items():
        layer = name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + seconds
    return out


def parse_drift_counts(out: str) -> dict:
    counts = {}
    for line in out.splitlines()[1:]:
        if line.startswith("#") or line.startswith("AB\t"):
            continue
        airport, detector, bss, drifts = line.split("\t")
        counts[(airport, detector, int(bss))] = int(drifts)
    return counts


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


END_TO_END = (("setup_s", "s"), ("sweep_s", "s"), ("resume_s", "s"),
              ("preprocess_s", "s"), ("analyze_s", "s"), ("peak_rss_mb", "MB"))

# (name, unit); perfbench/README.md says which end-to-end metric each should move
PER_LAYER = (
    ("synth.generate_stream_s", "s"),
    ("ingest.load_flights_s", "s"),
    ("ingest.preprocess_s", "s"),
    ("ingest.save_rows_s", "s"),
    ("ingest.load_rows_s", "s"),
    ("ingest.load_rows_growth", "ratio"),
    ("ingest.fit_normalizer_s", "s"),
    ("ingest.apply_normalizer_s", "s"),
    ("ingest.normalized_rows", "count"),
    ("windowing.partition_by_year_s", "s"),
    ("windowing.batch_sequence_calls", "count"),
    ("drift.weekly_proportions_s", "s"),
    ("drift.weekly_proportions_calls", "count"),
    ("drift.distinct_weekly_windows", "count"),
    ("drift.decide_s", "s"),
    ("drift.detections", "count"),
    ("drift.distinct_detections", "count"),
    ("drift.failsafe_retrains", "count"),
    ("drift.nonparametric_share", "ratio"),
    ("stats.ks_normality_cold_s", "s"),
    ("stats.ks_normality_warm_s", "s"),
    ("stats.lilliefors_sizes", "count"),
    ("stats.shapiro_wilk_s", "s"),
    ("stats.mean_tests_s", "s"),
    ("stats.variance_tests_s", "s"),
    ("special.norm_ppf_calls", "count"),
    ("special.norm_cdf_s", "s"),
    ("learn.train_s.NB", "s"),
    ("learn.train_s.MLP", "s"),
    ("learn.train_s.RF", "s"),
    ("learn.trainings", "count"),
    ("learn.distinct_trainings", "count"),
    ("learn.grid_search_s", "s"),
    ("learn.predict_s.NB", "s"),
    ("learn.predict_s.MLP", "s"),
    ("learn.predict_s.RF", "s"),
    ("learn.predictions", "count"),
    ("learn.distinct_predictions", "count"),
    ("strategy.cell_p50_s", "s"),
    ("strategy.cell_tail_s", "s"),
    ("runner.self_s", "s"),
    ("runner.rows_written", "count"),
    ("runner.bytes_written", "count"),
    ("runner.load_results_s", "s"),
    ("runner.cells_rerun_on_resume", "count"),
    ("runner.count_drifts_s", "s"),
    ("runner.topk_s", "s"),
    ("runner.correlate_s", "s"),
    ("runner.nonbool_flag_values", "count"),
    ("runner.torn_resume_bad_rows", "count"),
    ("cli.self_s", "s"),
    ("trace.overhead_share", "ratio"),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "driftlab" / "__init__.py").is_file():
        print(f"error: no driftlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        session = Session(WORKLOADS[args.workload], args.seed, work, args.seconds,
                          bool(args.trace))
        result, report = session.run()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    print(json.dumps(report, indent=1, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
