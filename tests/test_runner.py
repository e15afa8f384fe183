import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import stream_of
from driftlab import learn, runner, synth
from driftlab.runner import (ExperimentGrid, correlate_drifts_performance,
                             count_drifts, drift_analysis, export_results, grid_cells,
                             load_results, row_key, topk_frequency)
from driftlab.strategy import ModelStore, StreamRun, recorded_step_years
from driftlab.windowing import RowTable

FAST_HP = {
    "NB": {"smoothing": 0.5},
    "RF": {"trees_count": 3, "predictors_per_split": 2},
    "MLP": {"hidden_neurons": 4, "learning_rate": 0.5, "epochs": 6, "batch_size": 64},
}


def synth_rows(years=6, seed=0, events=(), flights=40, weeks=26):
    spec = synth.SyntheticSpec(years=years, weeks_per_year=weeks, flights_per_week=flights,
                               base_delay_rate=0.2, drift_events=tuple(events), seed=seed)
    rows, _ = synth.generate_stream(spec)
    return rows


def fail_tree_fits(monkeypatch):
    """Make every RF cell fail inside its fit, as a tree that cannot be grown."""
    def fit(self, numeric, codes, y):
        raise ValueError("tree cannot be grown")
    monkeypatch.setattr(learn.DecisionTree, "fit", fit)


def tiny_grid(**overrides):
    defaults = dict(airports=(None,), classifiers=("NB",), years=(2002, 2005),
                    bss=(1,), detectors=("mean",), strategies=("active",), replicates=5)
    defaults.update(overrides)
    return ExperimentGrid(**defaults)


class TestGridCells:
    def test_restricted_cell_rows(self, tmp_path):
        rows = synth_rows(years=4)
        grid = tiny_grid(years=(2001, 2004))
        results = drift_analysis(rows, grid, tmp_path / "res.csv", hyperparameters=FAST_HP)
        assert len(results) == 3  # 4-year stream, b=1, active NB: t = 2001..2003
        assert all(r["strategy"] == "active" and r["detector"] == "mean" for r in results)

    def test_full_grid_cell_count(self):
        grid = ExperimentGrid(airports=(None,), classifiers=("NB", "NN", "RF"))
        cells = grid_cells(grid)
        # per classifier and b: baseline + passive + 3 active detectors;
        # NB collapses to one replicate
        expected = 3 * (5 * 1) + 2 * 3 * (5 * 5)
        assert len(cells) == expected == 165

    def test_nn_alias_canonicalized(self):
        grid = ExperimentGrid(classifiers=("NN",))
        assert grid.classifiers == ("MLP",)

    def test_cells_are_deterministic(self):
        grid = ExperimentGrid(airports=(None, "SBGR"))
        assert grid_cells(grid) == grid_cells(grid)

    @pytest.mark.parametrize("bss", [(), (0,), (-1,), (1, 0), (True,), (2.0,)])
    def test_bad_window_sizes_refused(self, bss):
        with pytest.raises(ValueError, match="bss must be a non-empty tuple of ints >= 1"):
            ExperimentGrid(bss=bss)

    @pytest.mark.parametrize("field, value", [
        ("years", (2003,)), ("years", (2003, 2002)), ("years", ("2003", "2004")),
        ("years", (2003, 2004, 2005)), ("years", (True, 2004)), ("years", (2003.0, 2004)),
        ("years", [2003, 2004]), ("replicates", 0), ("replicates", 2.5),
        ("replicates", True), ("replicates", "5"),
    ])
    def test_bad_years_and_replicates_refused(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            ExperimentGrid(**{field: value})

    def test_single_year_range_accepted(self):
        assert ExperimentGrid(years=(2003, 2003), replicates=1).years == (2003, 2003)


class TestDriftAnalysis:
    def test_full_sweep_row_count_matches_analytic(self, tmp_path):
        rows = synth_rows(years=6)
        grid = ExperimentGrid(airports=(None,), classifiers=("NB", "NN", "RF"),
                              years=(2002, 2005), bss=(1, 2, 3))
        results = drift_analysis(rows, grid, tmp_path / "res.csv",
                                 hyperparameters=FAST_HP, base_seed=7)
        # the partition is padded so every t in [2002, 2005] has a full
        # b-window for every b (same test years across BSS, as in the
        # sweep protocol): 4 steps for every cell
        expected = 4 * len(grid_cells(grid))
        assert len(results) == expected == 660
        assert not any(r["error"] for r in results)
        keys = {row_key(r) for r in results}
        assert len(keys) == len(results)

    def test_resume_appends_nothing_when_complete(self, tmp_path):
        rows = synth_rows(years=5)
        grid = tiny_grid(years=(2001, 2004), classifiers=("NB", "RF"))
        out = tmp_path / "res.csv"
        first = drift_analysis(rows, grid, out, hyperparameters=FAST_HP)
        content = out.read_text()
        second = drift_analysis(rows, grid, out, hyperparameters=FAST_HP)
        assert out.read_text() == content
        assert len(second) == len(first)

    def test_resume_after_interruption_no_duplicates(self, tmp_path):
        rows = synth_rows(years=5)
        grid = tiny_grid(years=(2001, 2004), classifiers=("NB", "RF"),
                         strategies=("baseline", "passive", "active"))
        out = tmp_path / "res.csv"
        full = drift_analysis(rows, grid, out, hyperparameters=FAST_HP)
        lines = out.read_text().splitlines(keepends=True)
        cut = len(lines) - 7  # drop a partial tail mid-cell
        (tmp_path / "res.csv").write_text("".join(lines[:cut]))
        resumed = drift_analysis(rows, grid, out, hyperparameters=FAST_HP)
        assert len(resumed) == len(full)
        keys = [row_key(r) for r in resumed]
        assert len(keys) == len(set(keys))
        assert sorted(map(str, keys)) == sorted(str(row_key(r)) for r in full)
        # deterministic seeds: recomputed rows identical to the originals
        by_key_full = {row_key(r): r for r in full}
        for row in resumed:
            assert row == by_key_full[row_key(row)]

    def test_failing_cell_records_error_marker(self, tmp_path, monkeypatch):
        fail_tree_fits(monkeypatch)
        rows = synth_rows(years=5)
        grid = tiny_grid(years=(2001, 2004), classifiers=("NB", "RF"))
        results = drift_analysis(rows, grid, tmp_path / "res.csv", hyperparameters=FAST_HP)
        errors = [r for r in results if r["error"]]
        assert errors and all(r["classifier"] == "RF" for r in errors)
        assert any(not r["error"] and r["classifier"] == "NB" for r in results)

    def test_resume_does_not_rerun_failed_cells(self, tmp_path, monkeypatch):
        fail_tree_fits(monkeypatch)
        rows = synth_rows(years=5)
        grid = tiny_grid(years=(2001, 2004), classifiers=("NB", "RF"))
        out = tmp_path / "res.csv"
        drift_analysis(rows, grid, out, hyperparameters=FAST_HP)
        full = out.read_bytes()
        calls = []
        run_stream = runner.run_stream

        def counting(*args, **kwargs):
            calls.append(kwargs["replicate"])
            return run_stream(*args, **kwargs)
        monkeypatch.setattr(runner, "run_stream", counting)
        drift_analysis(rows, grid, out, hyperparameters=FAST_HP)
        assert calls == []
        assert out.read_bytes() == full
        # deleting an error row retries its cell, which fails again the same way
        lines = full.splitlines(keepends=True)
        error_line = next(line for line in lines if b",RF," in line and b",-1," in line)
        out.write_bytes(b"".join(line for line in lines if line != error_line))
        drift_analysis(rows, grid, out, hyperparameters=FAST_HP)
        assert len(calls) == 1
        assert sorted(out.read_bytes().splitlines()) == sorted(full.splitlines())

    def test_resume_does_not_rerun_cells_with_skipped_steps(self, tmp_path, monkeypatch):
        # no 2004 rows: every cell skips t=2003 (empty test batch); passive
        # and active skip t=2004 too (they would train on an empty window)
        rows = [r for r in synth_rows(years=5) if r.year != 2004]
        grid = tiny_grid(years=(2002, 2004), detectors=("mean", "variance"),
                         strategies=("baseline", "passive", "active"))
        out = tmp_path / "res.csv"
        results = drift_analysis(rows, grid, out, hyperparameters=FAST_HP)
        assert not any(r["error"] for r in results)
        steps: dict[tuple, list] = {}
        for r in results:
            steps.setdefault((r["strategy"], r["detector"]), []).append(r["t"])
        assert steps == {("baseline", "na"): [2002, 2004], ("passive", "na"): [2002],
                         ("active", "mean"): [2002], ("active", "variance"): [2002]}
        full = out.read_bytes()
        calls = []
        run_stream = runner.run_stream

        def counting(*args, **kwargs):
            calls.append(kwargs["replicate"])
            return run_stream(*args, **kwargs)
        monkeypatch.setattr(runner, "run_stream", counting)
        drift_analysis(rows, grid, out, hyperparameters=FAST_HP)
        assert calls == []
        assert out.read_bytes() == full

    def test_cells_without_a_recorded_step_are_never_run(self, tmp_path, monkeypatch,
                                                          caplog):
        # no rows in 2003-2005: no cell records a step over 2003-2004
        rows = [r for r in synth_rows(years=6) if not 2003 <= r.year <= 2005]
        grid = tiny_grid(years=(2003, 2004), detectors=("mean", "variance"),
                         strategies=("baseline", "passive", "active"))
        calls = []
        run_stream = runner.run_stream

        def counting(*args, **kwargs):
            calls.append(kwargs["replicate"])
            return run_stream(*args, **kwargs)
        monkeypatch.setattr(runner, "run_stream", counting)
        out = tmp_path / "res.csv"
        with caplog.at_level("WARNING"):
            assert drift_analysis(rows, grid, out, hyperparameters=FAST_HP) == []
        assert calls == []
        assert "records no step" in caplog.text
        full = out.read_bytes()
        assert drift_analysis(rows, grid, out, hyperparameters=FAST_HP) == []
        assert calls == []
        assert out.read_bytes() == full

    def test_failing_search_runs_once_per_scale_and_classifier(self, tmp_path, monkeypatch):
        searches = []

        def grid_search_cv(kind, grid, batch, k, seed):
            searches.append(kind)
            raise ValueError("search failed")
        monkeypatch.setattr(learn, "grid_search_cv", grid_search_cv)
        rows = synth_rows(years=5)
        grid = tiny_grid(years=(2002, 2004), classifiers=("RF",), bss=(1, 2), replicates=2)
        results = drift_analysis(rows, grid, tmp_path / "res.csv", hyperparameters={})
        assert searches == ["RF"]
        assert [(r["bss"], r["replicate"], r["t"], r["error"]) for r in results] == [
            (b, rep, -1, "ValueError: search failed") for b in (1, 2) for rep in (0, 1)]

    def test_alias_keyed_hyperparameters_are_used(self, tmp_path, monkeypatch):
        searches, specs = [], []
        monkeypatch.setattr(learn, "grid_search_cv",
                            lambda kind, *args, **kwargs: searches.append(kind))
        run_stream = runner.run_stream

        def spying(stream, b, cells, spec, **kwargs):
            specs.append(spec)
            return run_stream(stream, b, cells, spec, **kwargs)
        monkeypatch.setattr(runner, "run_stream", spying)
        rows = synth_rows(years=4)
        out = tmp_path / "res.csv"
        grid = tiny_grid(years=(2001, 2003), classifiers=("NN",), replicates=1)
        results = drift_analysis(rows, grid, out, hyperparameters={"NN": FAST_HP["MLP"]})
        assert searches == []
        assert results and not any(r["error"] for r in results)
        assert [(s.kind, s.hyperparameters) for s in specs] == [("MLP", FAST_HP["MLP"])]
        manifest = json.loads((tmp_path / "res.csv.manifest.json").read_text())
        assert manifest["hyperparameters"] == {"MLP": FAST_HP["MLP"]}

    @pytest.mark.parametrize("hyperparameters, message", [
        ({"SVM": {"C": 1.0}}, "unknown classifier kind"),
        ({"NN": FAST_HP["MLP"], "MLP": FAST_HP["MLP"]}, "name MLP twice"),
        ({"RF": {**FAST_HP["RF"], "bootstrap": False}}, "does not read.*bootstrap"),
        # 3 numeric features and 3 categorical columns
        ({"RF": {"trees_count": 2, "predictors_per_split": 50}},
         "predictors_per_split 50 exceeds the feature count 6"),
    ])
    def test_bad_hyperparameters_refused_before_writing(self, tmp_path, hyperparameters,
                                                        message):
        out = tmp_path / "res.csv"
        with pytest.raises(ValueError, match=message):
            drift_analysis(synth_rows(years=4), tiny_grid(years=(2001, 2003)), out,
                           hyperparameters=hyperparameters)
        assert not out.exists()

    def test_detection_is_shared_across_classifiers_and_replicates(self, tmp_path,
                                                                   monkeypatch):
        from driftlab import drift, stats, strategy
        calls: dict[str, list] = {name: [] for name in (
            "decide_drift", "shapiro_wilk", "ks_normality", "mean", "variance")}
        shapiro_wilk = stats.shapiro_wilk

        def spy(module, attr, log):
            real = getattr(module, attr)

            def wrapper(*args, **kwargs):
                log.append(args)
                return real(*args, **kwargs)
            monkeypatch.setattr(module, attr, wrapper)
        spy(strategy, "decide_drift", calls["decide_drift"])
        for attr in ("shapiro_wilk", "ks_normality"):
            spy(drift.stats, attr, calls[attr])
        for attr in ("welch_t", "wilcoxon_rank_sum"):
            spy(stats, attr, calls["mean"])
        for attr in ("f_variance", "levene"):
            spy(stats, attr, calls["variance"])

        rows = synth_rows(years=6)
        grid = tiny_grid(classifiers=("NB", "RF"), bss=(1, 2), replicates=2,
                         detectors=("mean", "variance", "mean_variance"),
                         strategies=("baseline", "passive", "active"))
        results = drift_analysis(rows, grid, tmp_path / "res.csv", hyperparameters=FAST_HP)
        assert not any(r["error"] for r in results)
        assert {(r["classifier"], r["replicate"]) for r in results} == {
            ("NB", 0), ("RF", 0), ("RF", 1)}

        decisions = [(dd, dh, len(d_i.batches), d_i.end_year, d_j and d_j.end_year)
                     for dd, dh, d_i, d_j in calls["decide_drift"]]
        assert len(decisions) == len(set(decisions))
        detections = {(b, t) for dd, dh, b, t, lagged in decisions
                      if dh == "active" and lagged is not None}
        # steps 2003-2005 of each b compare windows ending t and t-1
        assert detections == {(b, t) for b in (1, 2) for t in (2003, 2004, 2005)}
        assert sorted(dd for dd, dh, b, t, lagged in decisions
                      if dh == "active" and lagged is not None) == sorted(
            ["mean", "variance", "mean_variance"] * len(detections))
        windows = {(b, t - lag) for b, t in detections for lag in (0, 1)}
        assert len(calls["shapiro_wilk"]) == len(windows)
        # KS runs once per window that Shapiro-Wilk passes, and on no other
        sw_passed = sorted(vector.tobytes() for (vector,) in calls["shapiro_wilk"]
                           if shapiro_wilk(vector).p_value >= drift.DEFAULT_ALPHA)
        assert 0 < len(sw_passed) < len(windows)
        assert sorted(vector.tobytes() for (vector,) in calls["ks_normality"]) == sw_passed
        assert len(calls["mean"]) == len(detections)
        assert len(calls["variance"]) == len(detections)

    @pytest.mark.parametrize("seed", (1, 2, 3, 4))
    def test_five_flight_weeks_build_no_lilliefors_table(self, tmp_path, monkeypatch, seed):
        """With 5 flights a week every proportion is a multiple of 0.2, and
        Shapiro-Wilk rejects each window, so no KS null table is built."""
        from driftlab import stats
        sw_calls = []
        monkeypatch.setattr(stats, "_lilliefors_null_table",
                            lambda *args: pytest.fail(f"null table built: {args}"))
        shapiro_wilk = stats.shapiro_wilk
        monkeypatch.setattr(stats, "shapiro_wilk",
                            lambda x: sw_calls.append(x) or shapiro_wilk(x))
        events = (synth.DriftEvent(at_year=4, kind="prior_shift", magnitude=0.3),
                  synth.DriftEvent(at_year=3, kind="boundary_flip"))
        rows, _ = synth.generate_stream(synth.SyntheticSpec(
            years=5, weeks_per_year=52, flights_per_week=5, base_delay_rate=0.15,
            seasonal_amplitude=0.3, drift_events=events, seed=seed))
        grid = tiny_grid(years=(2003, 2004), bss=(1, 2, 3), replicates=1,
                         detectors=("mean", "variance", "mean_variance"))
        results = drift_analysis(rows, grid, tmp_path / "res.csv", hyperparameters=FAST_HP)
        assert results and not any(r["error"] for r in results)
        assert sw_calls

    def test_manifest_written(self, tmp_path):
        rows = synth_rows(years=4)
        out = tmp_path / "res.csv"
        drift_analysis(rows, tiny_grid(years=(2001, 2003)), out, hyperparameters=FAST_HP)
        manifest = json.loads((tmp_path / "res.csv.manifest.json").read_text())
        assert manifest["version"] == runner.RESULTS_VERSION
        assert manifest["grid"]["airports"] == ["SB"]
        assert manifest["columns"][0] == "airport"
        assert manifest["hyperparameters"] == FAST_HP
        assert manifest["cv_folds"] == 10

    def test_resume_drops_torn_last_line(self, tmp_path, caplog):
        rows = synth_rows(years=5)
        grid = tiny_grid(years=(2001, 2004), strategies=("baseline", "passive", "active"))
        out = tmp_path / "res.csv"
        drift_analysis(rows, grid, out, hyperparameters=FAST_HP)
        full = out.read_bytes()
        lines = full.splitlines(keepends=True)
        out.write_bytes(b"".join(lines[:-3]) + lines[-3][:len(lines[-3]) // 2])
        with caplog.at_level("WARNING"):
            drift_analysis(rows, grid, out, hyperparameters=FAST_HP)
        assert "unterminated last line" in caplog.text
        assert out.read_bytes() == full

    def test_crash_mid_store_manifest_write_resumes_to_the_same_table(self, tmp_path,
                                                                      monkeypatch):
        """A process killed while it writes a model store manifest leaves the
        previous manifest whole, so the resume rebuilds the uninterrupted
        table and store instead of recording the cell as failed."""
        rows = synth_rows(years=5)
        grid = tiny_grid(years=(2001, 2004), strategies=("passive",), replicates=1)
        drift_analysis(rows, grid, tmp_path / "full.csv", hyperparameters=FAST_HP,
                       model_store_dir=tmp_path / "full_models")
        write_bytes = Path.write_bytes
        manifest_writes = []

        def killed_in_third_manifest_write(self, data):
            if self.name.startswith("manifest.json"):
                manifest_writes.append(self)
                if len(manifest_writes) == 3:
                    write_bytes(self, data[:len(data) // 2])
                    raise KeyboardInterrupt("killed mid-write")
            return write_bytes(self, data)

        out, store = tmp_path / "res.csv", tmp_path / "models"
        monkeypatch.setattr(Path, "write_bytes", killed_in_third_manifest_write)
        with pytest.raises(KeyboardInterrupt):
            drift_analysis(rows, grid, out, hyperparameters=FAST_HP, model_store_dir=store)
        monkeypatch.undo()
        manifest = json.loads((store / "SB__NB__mean__passive__b1__r0" / "manifest.json")
                              .read_text())
        assert [entry["t"] for entry in manifest["history"]] == [2001, 2002]
        assert (manifest["key"]["b"], manifest["latest"]) == (1, manifest["history"][-1]["model"])
        assert ModelStore(store).load_latest(None, "NB", "mean", "passive", 1, 0).spec.kind == "NB"

        drift_analysis(rows, grid, out, hyperparameters=FAST_HP, model_store_dir=store)
        assert out.read_bytes() == (tmp_path / "full.csv").read_bytes()

        def files(root):
            return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

        assert files(store) == files(tmp_path / "full_models")

    def test_load_rejects_wrong_field_count(self, tmp_path):
        out = tmp_path / "res.csv"
        export_results([fake_row(), fake_row(t=2004)], out)
        lines = out.read_text().splitlines(keepends=True)
        lines[2] = lines[2].rsplit(",", 3)[0] + "\r\n"
        out.write_text("".join(lines))
        with pytest.raises(ValueError, match="line 3: 15 fields, expected 18"):
            load_results(out)

    def test_resume_refused_without_manifest(self, tmp_path):
        rows = synth_rows(years=4)
        out = tmp_path / "res.csv"
        grid = tiny_grid(years=(2001, 2003))
        drift_analysis(rows, grid, out, hyperparameters=FAST_HP)
        content = out.read_bytes()
        (tmp_path / "res.csv.manifest.json").unlink()
        with pytest.raises(ValueError, match="missing"):
            drift_analysis(rows, grid, out, hyperparameters=FAST_HP)
        assert out.read_bytes() == content

    @pytest.mark.parametrize("change", [
        {"base_seed": 2}, {"alpha": 0.01}, {"min_week_flights": 3}, {"cv_folds": 5},
        {"hyperparameters": {**FAST_HP, "NB": {"smoothing": 1.0}}},
        {"grid": tiny_grid(years=(2001, 2003), replicates=2)},
    ])
    def test_resume_refused_on_config_change(self, tmp_path, change):
        rows = synth_rows(years=4)
        out = tmp_path / "res.csv"
        config = dict(grid=tiny_grid(years=(2001, 2003)), hyperparameters=FAST_HP)
        drift_analysis(rows, out_path=out, **config)
        content = out.read_bytes()
        manifest = (tmp_path / "res.csv.manifest.json").read_bytes()
        config.update(change)
        with pytest.raises(ValueError, match=f"differs .* in {next(iter(change))}"):
            drift_analysis(rows, out_path=out, **config)
        assert out.read_bytes() == content
        assert (tmp_path / "res.csv.manifest.json").read_bytes() == manifest

    def test_train_failure_ends_only_the_cells_that_train(self, tmp_path, monkeypatch):
        # the shift makes mean and mean_variance retrain in 2003, not variance
        events = [synth.DriftEvent(at_year=3, kind="prior_shift", magnitude=0.15)]
        rows = synth_rows(years=6, events=events)
        grid = tiny_grid(years=(2002, 2005), strategies=("baseline", "passive", "active"),
                         detectors=("mean", "variance", "mean_variance"))
        clean = drift_analysis(rows, grid, tmp_path / "clean.csv", hyperparameters=FAST_HP)
        from driftlab import learn
        real_train = learn.train

        def train(spec, batches):
            if batches[-1].year == 2003:
                raise ValueError("no fit for 2003")
            return real_train(spec, batches)
        monkeypatch.setattr(learn, "train", train)
        results = drift_analysis(rows, grid, tmp_path / "res.csv", hyperparameters=FAST_HP)

        def by_cell(table):
            cells = {}
            for r in table:
                cells.setdefault((r["strategy"], r["detector"]), []).append(r)
            return cells
        before, after = by_cell(clean), by_cell(results)
        assert list(after) == list(before)
        trains_2003 = {cell for cell, cell_rows in before.items()
                       if any(r["t"] == 2003 and r["trained"] for r in cell_rows)}
        assert ("passive", "na") in trains_2003 and ("baseline", "na") not in trains_2003
        assert any(cell[0] == "active" for cell in trains_2003)
        assert any(cell[0] == "active" and cell not in trains_2003 for cell in before)
        for cell, cell_rows in after.items():
            if cell in trains_2003:
                assert len(cell_rows) == 1
                assert cell_rows[0]["t"] == -1
                assert cell_rows[0]["error"] == "ValueError: no fit for 2003"
            else:
                assert cell_rows == before[cell]

    def test_unexpected_error_propagates_and_resume_completes_the_table(self, tmp_path,
                                                                         monkeypatch):
        """Only a ValueError becomes an error row. Running out of memory in
        one training stops the sweep with the rows already written flushed,
        and a resume without the fault writes the uninterrupted table."""
        rows = synth_rows(years=5)
        grid = tiny_grid(years=(2001, 2004), bss=(1, 2), strategies=("baseline", "passive"))
        drift_analysis(rows, grid, tmp_path / "full.csv", hyperparameters=FAST_HP)
        real_train = learn.train

        def train(spec, batches):
            if (batches[0].year, batches[-1].year) == (2002, 2003):  # the b=2 window ending in 2003
                raise MemoryError("injected")
            return real_train(spec, batches)
        monkeypatch.setattr(learn, "train", train)
        out = tmp_path / "res.csv"
        with pytest.raises(MemoryError, match="injected"):
            drift_analysis(rows, grid, out, hyperparameters=FAST_HP)
        written = load_results(out)
        assert written and {r["bss"] for r in written} == {1}
        assert not any(r["error"] for r in written)
        monkeypatch.undo()
        drift_analysis(rows, grid, out, hyperparameters=FAST_HP)
        assert out.read_bytes() == (tmp_path / "full.csv").read_bytes()

    def test_detection_bug_is_an_error_not_a_retrain(self, tmp_path, monkeypatch):
        from driftlab import drift, stats

        def broken(*args, **kwargs):
            raise ValueError("bug inside detection")
        monkeypatch.setattr(drift, "_is_normal", lambda vector, alpha: True)
        monkeypatch.setattr(stats, "welch_t", broken)
        rows = synth_rows(years=5)
        grid = tiny_grid(years=(2001, 2004), strategies=("passive", "active"))
        results = drift_analysis(rows, grid, tmp_path / "res.csv", hyperparameters=FAST_HP)
        active = [r for r in results if r["strategy"] == "active"]
        assert len(active) == 1
        assert active[0]["error"] == "ValueError: bug inside detection"
        assert [r["t"] for r in results if r["strategy"] == "passive"] == [
            2001, 2002, 2003, 2004]

    def test_airport_scale_filters_rows(self, tmp_path):
        rows = synth_rows(years=4)
        grid = tiny_grid(airports=("SBGR",), years=(2001, 2003), strategies=("passive",))
        # no SBGR rows in a synthetic stream: no cell records a step
        assert drift_analysis(rows, grid, tmp_path / "none.csv", hyperparameters=FAST_HP) == []
        # a second stream relabelled SBGR, without 2003: passive skips 2002
        # (empty test batch) and 2003 (empty window)
        sbgr = [r for r in synth_rows(years=4, seed=1) if r.year != 2003]
        for row in sbgr:
            row.origin_airport = "SBGR"
        results = drift_analysis(rows + sbgr, grid, tmp_path / "res.csv",
                                 hyperparameters=FAST_HP)
        assert results
        assert all(r["airport"] == "SBGR" and not r["error"] for r in results)
        stream = stream_of(sbgr, (2001, 2004))
        assert [r["t"] for r in results] == recorded_step_years(stream, 1, "passive",
                                                                (2001, 2003))
        for r in results:
            test_batch = stream[r["t"] - 2001 + 1]
            assert r["tp"] + r["fp"] + r["fn"] + r["tn"] == len(test_batch)

    def test_grid_search_used_when_hyperparameters_absent(self, tmp_path):
        rows = synth_rows(years=4, flights=20, weeks=10)
        grid = tiny_grid(years=(2001, 2003), classifiers=("NB",), strategies=("passive",))
        results = drift_analysis(rows, grid, tmp_path / "res.csv",
                                 hyperparameters=None, cv_folds=3)
        assert results and not any(r["error"] for r in results)

    def test_one_row_table_per_call(self, tmp_path, monkeypatch):
        """SB and two airports, NB and RF with given hyperparameters and an
        MLP tuned by grid search at each scale: each drift_analysis call,
        fresh or resumed, reads its rows into one table, and every window
        that trains or predicts, grid search folds included, indexes it."""
        built, read = [], []
        from_rows = RowTable.from_rows
        monkeypatch.setattr(RowTable, "from_rows",
                            classmethod(lambda cls, rows: built.append(from_rows(rows))
                                        or built[-1]))
        for name in ("train", "predict"):
            real = getattr(learn, name)

            def reading(first, batches, real=real):
                read.extend(b.table for b in batches)
                return real(first, batches)
            monkeypatch.setattr(learn, name, reading)
        rows = []
        for seed, airport in enumerate(("SBGR", "SBSP")):
            stream = synth_rows(years=4, seed=seed, flights=6, weeks=12)
            for row in stream:
                row.origin_airport = airport
            rows += stream
        grid = tiny_grid(airports=(None, "SBGR", "SBSP"), classifiers=("NB", "RF", "MLP"),
                         years=(2002, 2003), bss=(1, 2), replicates=2,
                         strategies=("baseline", "passive", "active"))
        out = tmp_path / "res.csv"
        for call in range(2):  # a fresh sweep, then a resume that reruns its last cells
            results = drift_analysis(rows, grid, out, cv_folds=2,
                                     hyperparameters={"NB": FAST_HP["NB"], "RF": FAST_HP["RF"]})
            assert results and not any(r["error"] for r in results)
            assert {r["airport"] for r in results} == {"SB", "SBGR", "SBSP"}
            assert len(built) == call + 1
            assert read and all(table is built[-1] for table in read)
            read.clear()
            lines = out.read_bytes().splitlines(keepends=True)
            out.write_bytes(b"".join(lines[:-5]))


class TestExport:
    def _rows(self, tmp_path):
        rows = synth_rows(years=5)
        grid = tiny_grid(years=(2001, 2004), strategies=("baseline", "passive", "active"))
        return drift_analysis(rows, grid, tmp_path / "res.csv", hyperparameters=FAST_HP)

    def test_round_trip_exact(self, tmp_path):
        results = self._rows(tmp_path)
        out = tmp_path / "export.csv"
        export_results(results, out)
        assert load_results(out) == results
        export_results(load_results(out), tmp_path / "export2.csv")
        assert (tmp_path / "export2.csv").read_text() == out.read_text()

    def test_empty_results_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        export_results([], out)
        lines = out.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].split(",") == list(runner.RESULT_COLUMNS)

    def test_three_rows_three_lines(self, tmp_path):
        results = self._rows(tmp_path)[:3]
        out = tmp_path / "three.csv"
        export_results(results, out)
        assert len(out.read_text().splitlines()) == 4

    def test_every_cell_kind_round_trips(self, tmp_path):
        out = tmp_path / "edge.csv"
        export_results(edge_rows(), out)
        assert canonical(load_results(out)) == canonical(edge_rows())

    def test_every_cell_kind_round_trips_through_the_sweep(self, tmp_path, monkeypatch):
        edge = edge_rows()
        monkeypatch.setattr(runner, "run_stream", lambda stream, b, cells, *args, **kwargs: [
            StreamRun(steps=list(range(len(edge)))) for _ in cells])
        monkeypatch.setattr(runner, "_step_to_row", lambda cell, i: edge[i])
        results = drift_analysis(synth_rows(years=5), tiny_grid(), tmp_path / "res.csv",
                                 hyperparameters=FAST_HP)
        assert canonical(results) == canonical(edge)

    @pytest.mark.parametrize("column,value", [("drift", 1), ("trained", "yes")])
    def test_non_bool_flag_refused_at_write(self, tmp_path, column, value):
        with pytest.raises(ValueError, match=f"column {column}: bad flag"):
            export_results([{**fake_row(), column: value}], tmp_path / "res.csv")

    @pytest.mark.parametrize("column,value,message", [
        ("tp", True, "bad integer"), ("bss", 1.0, "bad integer"), ("t", "2003", "bad integer"),
        ("accuracy", 1, "bad float"), ("f1", True, "bad float"), ("recall", "0.5", "bad float"),
    ])
    def test_non_numeric_type_refused_at_write(self, tmp_path, column, value, message):
        with pytest.raises(ValueError, match=f"column {column}: {message}"):
            export_results([{**fake_row(), column: value}], tmp_path / "res.csv")

    def test_numpy_scalars_written_as_python_numbers(self, tmp_path):
        out = tmp_path / "res.csv"
        row = {**fake_row(), "accuracy": np.float64(0.5), "precision": np.float32(0.25),
               "tp": np.int64(7), "bss": np.int32(2)}
        export_results([row], out)
        loaded = load_results(out)[0]
        assert [(repr(loaded[c]), type(loaded[c])) for c in ("accuracy", "precision", "tp", "bss")] \
            == [("0.5", float), ("0.25", float), ("7", int), ("2", int)]

    def test_refused_row_leaves_no_file(self, tmp_path):
        out = tmp_path / "res.csv"
        with pytest.raises(ValueError, match="column drift: bad flag"):
            export_results([fake_row(), fake_row(t=2004), {**fake_row(t=2005), "drift": 1}], out)
        assert list(tmp_path.iterdir()) == []

    def test_refused_row_leaves_an_existing_file_untouched(self, tmp_path):
        out = tmp_path / "res.csv"
        export_results([fake_row(), fake_row(t=2004)], out)
        before = out.read_bytes()
        with pytest.raises(ValueError, match="column tp: bad integer"):
            export_results([fake_row(t=2006), {**fake_row(t=2007), "tp": True}], out)
        assert out.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["res.csv"]


def fake_row(airport="SB", classifier="NB", bss=1, detector="mean", strategy="active",
             replicate=0, t=2003, drift=False, f1=0.5, accuracy=0.8, precision=0.6,
             recall=0.5, error=None):
    return {"airport": airport, "classifier": classifier, "bss": bss, "detector": detector,
            "strategy": strategy, "replicate": replicate, "t": t, "trained": True,
            "drift": drift, "tp": 1, "fp": 1, "fn": 1, "tn": 1, "accuracy": accuracy,
            "precision": precision, "recall": recall, "f1": f1, "error": error}


def edge_rows():
    """Rows with every kind of cell the table stores: empty cells, both flags
    as bool and numpy.bool_, floats whose repr is long, tiny or signed, and
    error text that csv must quote."""
    flags = (True, False, np.True_, np.False_, None)
    floats = (0.1 + 0.2, 5e-324, -0.0, 1 / 3, None)
    errors = (None, 'ValueError: bad "window", see\nthe next line')
    return [{**fake_row(t=t, drift=flag, accuracy=value, precision=value, recall=value,
                        f1=value, error=error),
             "trained": flag, "tp": None if error else t}
            for t, (flag, value, error) in enumerate(itertools.product(flags, floats, errors))]


def canonical(rows):
    """The repr of each value, numpy.bool_ as bool, so that -0.0 differs from
    0.0 and True from 1."""
    return [{col: repr(bool(v) if isinstance(v, np.bool_) else v) for col, v in row.items()}
            for row in rows]


class TestCountDrifts:
    def test_counts_unique_steps_across_replicates(self):
        rows = []
        for rep in range(5):
            for t, flag in ((2004, True), (2005, False), (2006, True)):
                rows.append(fake_row(replicate=rep, t=t, drift=flag, classifier="RF"))
        report = count_drifts(rows)
        assert report.counts == [{"airport": "SB", "detector": "mean", "bss": 1, "drifts": 2}]

    def test_union_dominance_on_synthetic_sweep(self, tmp_path):
        rows = synth_rows(years=6, events=[synth.DriftEvent(at_year=3, kind="prior_shift",
                                                            magnitude=0.2)])
        grid = tiny_grid(years=(2001, 2005), detectors=("mean", "variance", "mean_variance"))
        results = drift_analysis(rows, grid, tmp_path / "res.csv", hyperparameters=FAST_HP)
        groups = count_drifts(results).groups()
        union = groups[("SB", "mean_variance", 1)]
        assert union >= max(groups[("SB", "mean", 1)], groups[("SB", "variance", 1)])

    def test_levene_flags_round_trip_as_bools(self, tmp_path, monkeypatch):
        # non-normal windows send the variance detector through Levene, whose
        # p-value comes from f_sf; its reject flag must reach the table as a
        # Python bool so that write -> load -> count_drifts keeps its meaning
        from driftlab import drift
        monkeypatch.setattr(drift, "_is_normal", lambda vector, alpha: False)
        rows = synth_rows(years=8, flights=60, weeks=52)
        grid = tiny_grid(years=(2001, 2007), detectors=("variance", "mean_variance"))
        out = tmp_path / "res.csv"
        drift_analysis(rows, grid, out, hyperparameters=FAST_HP)
        text = out.read_text()
        assert "False" not in text and "True" not in text
        results = load_results(out)
        flags = [r["drift"] for r in results]
        assert all(f is None or type(f) is bool for f in flags)
        assert all(type(r["trained"]) is bool for r in results)
        groups = count_drifts(results).groups()
        for detector in ("variance", "mean_variance"):
            expected = sum(1 for r in results
                           if r["detector"] == detector and r["drift"] is True)
            assert groups[("SB", detector, 1)] == expected

    def test_unknown_flag_value_rejected(self, tmp_path):
        out = tmp_path / "res.csv"
        export_results([fake_row()], out)
        out.write_text(out.read_text().replace(",true,false,", ",true,False,"))
        with pytest.raises(ValueError, match=r"res\.csv line 2 column drift: bad flag"):
            load_results(out)

    def test_two_injected_shifts_counted(self, tmp_path):
        events = [synth.DriftEvent(at_year=3, kind="prior_shift", magnitude=0.25),
                  synth.DriftEvent(at_year=6, kind="prior_shift", magnitude=-0.2)]
        rows = synth_rows(years=8, events=events, flights=150, weeks=52)
        grid = tiny_grid(years=(2001, 2007))
        results = drift_analysis(rows, grid, tmp_path / "res.csv", hyperparameters=FAST_HP)
        count = count_drifts(results).groups()[("SB", "mean", 1)]
        assert 2 <= count <= 4  # both shifts plus at most a small false-alarm budget

    def test_ab_summary(self):
        rows = []
        for airport, drifts in (("SBGR", (True, True)), ("SBRJ", (True, False))):
            for t, flag in zip((2004, 2005), drifts):
                rows.append(fake_row(airport=airport, t=t, drift=flag))
        report = count_drifts(rows)
        summary = report.ab_summary[0]
        assert summary["mean"] == pytest.approx(1.5)
        assert summary["sd"] == pytest.approx(np.std([2, 1], ddof=1))


class TestTopK:
    def _results(self):
        rows = []
        combos = [("baseline", "na", "NB", 1), ("passive", "na", "NB", 1),
                  ("active", "mean", "NB", 1), ("active", "variance", "NB", 1)]
        scores = {combos[0]: 0.2, combos[1]: 0.8, combos[2]: 0.6, combos[3]: 0.4}
        for combo in combos:
            for t in (2004, 2005, 2006):
                rows.append(fake_row(strategy=combo[0], detector=combo[1],
                                     classifier=combo[2], bss=combo[3],
                                     f1=scores[combo], t=t))
        return rows

    def test_ranking_by_median(self):
        report = topk_frequency(self._results(), [2])
        assert report.combos[0][0] == ("passive", "na", "NB", 1)
        assert report.strategy_freq[2] == {"active": 0.5, "passive": 0.5}

    def test_k_equal_total_gives_base_rates(self):
        report = topk_frequency(self._results(), [4])
        assert report.strategy_freq[4] == {"active": 0.5, "baseline": 0.25, "passive": 0.25}
        assert report.classifier_freq[4] == {"NB": 1.0}
        assert report.bss_freq[4] == {1: 1.0}

    def test_identical_metrics_tie_break_documented(self):
        rows = self._results()
        for r in rows:
            r["f1"] = 0.5
        r1 = topk_frequency(rows, [4])
        r2 = topk_frequency(rows, [4])
        assert r1.combos == r2.combos  # deterministic lexicographic tie-break
        assert r1.strategy_freq[4] == {"active": 0.5, "baseline": 0.25, "passive": 0.25}

    def test_undefined_metric_ranks_last(self):
        rows = self._results()
        for r in rows:
            if r["strategy"] == "passive":
                r["f1"] = None
        report = topk_frequency(rows, [4])
        assert report.combos[-1][0] == ("passive", "na", "NB", 1)
        assert report.combos[-1][1] == -np.inf

    def test_k_capped_with_warning(self, caplog):
        with caplog.at_level("WARNING"):
            report = topk_frequency(self._results(), [99])
        assert "capped" in caplog.text
        assert 4 in report.strategy_freq

    def test_bad_metric(self):
        with pytest.raises(ValueError):
            topk_frequency(self._results(), [2], rank_metric="auc")

    def test_empty_results(self):
        with pytest.raises(ValueError):
            topk_frequency([], [2])

    @pytest.mark.parametrize("k_range", [[0], [-2], [3, 0]])
    def test_k_below_one_rejected(self, k_range):
        with pytest.raises(ValueError, match="k >= 1"):
            topk_frequency(self._results(), k_range)

    def test_empty_k_range_rejected(self):
        with pytest.raises(ValueError, match="k range is empty"):
            topk_frequency(self._results(), range(5, 3))


class TestCorrelate:
    def _monotone_results(self):
        """Drift counts and f1 rise together across airports: r > 0."""
        rows = []
        for i, airport in enumerate(["SBAA", "SBBB", "SBCC", "SBDD", "SBEE"]):
            n_drifts = i + 1
            f1 = 0.3 + 0.1 * i
            for t in range(2004, 2010):
                rows.append(fake_row(airport=airport, t=t, drift=t - 2004 < n_drifts,
                                     f1=f1, accuracy=0.9 - 0.05 * i, recall=f1,
                                     precision=0.5))
        return rows

    def test_monotone_relation_sign(self):
        report = correlate_drifts_performance(self._monotone_results())
        i = report.columns.index("drifts_mean")
        j = report.columns.index("f1")
        assert report.r[i, j] > 0.9
        k = report.columns.index("accuracy")
        assert report.r[i, k] < -0.9

    def test_diagonal_is_one(self):
        report = correlate_drifts_performance(self._monotone_results())
        assert np.allclose(np.diag(report.r), 1.0)

    def test_constant_column_excluded_with_note(self):
        report = correlate_drifts_performance(self._monotone_results())
        assert "precision" not in report.columns
        assert any("precision" in note for note in report.notes)

    def test_requires_three_groups(self):
        rows = [fake_row(airport="SBAA"), fake_row(airport="SBBB")]
        with pytest.raises(ValueError, match="3"):
            correlate_drifts_performance(rows)

    def test_baseline_passive_ignored(self):
        rows = self._monotone_results()
        rows.append(fake_row(airport="SBAA", strategy="passive", detector="na",
                             drift=None, f1=0.99))
        with_extra = correlate_drifts_performance(rows)
        without = correlate_drifts_performance(self._monotone_results())
        assert np.allclose(with_extra.r, without.r, equal_nan=True)
