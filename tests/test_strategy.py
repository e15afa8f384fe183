import json
import re

import numpy as np
import pytest

from conftest import stream_of, varied_weekly_rows
from driftlab.learn import ModelSpec
from driftlab import learn
from driftlab.strategy import ModelStore, recorded_step_years, run_stream
from driftlab import synth

NB = ModelSpec(kind="NB", hyperparameters={"smoothing": 0.5}, seed=0)


def stationary_stream(first=2003, last=2006, **kwargs):
    rows = []
    for year in range(first, last + 1):
        rows += varied_weekly_rows(year, **kwargs)
    return stream_of(rows, (first, last))


def alternating_stream(first=2003, last=2008):
    """Delay level flips hard between consecutive years so every transition
    drifts."""
    rows = []
    for i, year in enumerate(range(first, last + 1)):
        rows += varied_weekly_rows(year, base=10 if i % 2 == 0 else 55)
    return stream_of(rows, (first, last))


class TestBookkeeping:
    def test_baseline_trains_once(self):
        run = run_stream(stationary_stream(), 1, [("baseline", "mean")], NB)[0]
        assert run.trainings_done == 1
        assert len(run.steps) == 3
        assert [s.trained for s in run.steps] == [True, False, False]

    def test_passive_trains_every_step(self):
        run = run_stream(stationary_stream(), 1, [("passive", "mean")], NB)[0]
        assert run.trainings_done == 3
        assert all(s.trained for s in run.steps)

    def test_active_without_drift_matches_baseline_count(self):
        run = run_stream(stationary_stream(), 1, [("active", "mean")], NB)[0]
        drifts = sum(1 for s in run.steps if s.drift is not None and s.drift.drift)
        assert run.trainings_done == 1 + drifts
        baseline = run_stream(stationary_stream(), 1, [("baseline", "mean")], NB)[0]
        if drifts == 0:
            assert run.trainings_done == baseline.trainings_done

    def test_active_bookkeeping_identity_on_drifting_stream(self):
        run = run_stream(alternating_stream(), 1, [("active", "mean")], NB)[0]
        drifts = sum(1 for s in run.steps if s.drift is not None and s.drift.drift)
        assert drifts >= 1
        assert run.trainings_done == 1 + drifts

    def test_replicate_arithmetic(self):
        # 4 batches, b=1 -> 3 steps; RF x 5 replicates -> 15 trainings, NB -> 3
        stream = stationary_stream(2003, 2006, per_week=30)
        rf_trainings = 0
        for rep in range(5):
            spec = ModelSpec(kind="RF", seed=100 + rep,
                             hyperparameters={"trees_count": 3, "predictors_per_split": 2})
            rf_trainings += run_stream(stream, 1, [("passive", "mean")], spec,
                                       replicate=rep)[0].trainings_done
        assert rf_trainings == 15
        assert run_stream(stream, 1, [("passive", "mean")], NB)[0].trainings_done == 3

    def test_first_step_drift_is_absent(self):
        run = run_stream(stationary_stream(), 1, [("active", "mean")], NB)[0]
        assert run.steps[0].drift is None
        assert run.steps[0].trained


def skipped_years(caplog, strategy):
    """The steps run_stream logged as skipped for strategy."""
    found = (re.match(r"(\w+) skips t=(\d+):", r.getMessage()) for r in caplog.records)
    return [int(m[2]) for m in found if m and m[1] == strategy]


class TestWindows:
    def test_b2_first_step_needs_full_window(self):
        run = run_stream(stationary_stream(2003, 2007), 2, [("passive", "mean")], NB)[0]
        assert [s.t for s in run.steps] == [2004, 2005, 2006]

    def test_year_range_restricts_steps(self):
        run = run_stream(stationary_stream(2003, 2008), 1, [("passive", "mean")], NB,
                         year_range=(2005, 2006))[0]
        assert [s.t for s in run.steps] == [2005, 2006]

    def test_too_short_stream(self):
        from driftlab.windowing import WindowUnderflowError
        with pytest.raises(WindowUnderflowError):
            run_stream(stationary_stream(2003, 2004), 2, [("passive", "mean")], NB)

    def test_empty_test_batch_skipped(self, caplog):
        rows = varied_weekly_rows(2003) + varied_weekly_rows(2004) + varied_weekly_rows(2006)
        stream = stream_of(rows, (2003, 2006))
        with caplog.at_level("WARNING"):
            run = run_stream(stream, 1, [("passive", "mean")], NB)[0]
            # t=2004 skipped (test batch 2005 empty); t=2005 skipped too
            # because passive would have to train on the empty 2005 window
            assert skipped_years(caplog, "passive") == [2004, 2005]
            assert [s.t for s in run.steps] == [2003]
            # baseline can still evaluate t=2005: it reuses its stored model
            baseline = run_stream(stream, 1, [("baseline", "mean")], NB)[0]
            assert [s.t for s in baseline.steps] == [2003, 2005]
            assert skipped_years(caplog, "baseline") == [2004]

    def test_one_skip_warning_per_step_and_strategy(self, caplog):
        rows = varied_weekly_rows(2003) + varied_weekly_rows(2004) + varied_weekly_rows(2006)
        stream = stream_of(rows, (2003, 2006))
        cells = [("active", "mean"), ("active", "variance"), ("baseline", "mean")]
        with caplog.at_level("WARNING"):
            runs = run_stream(stream, 1, cells, NB)
        assert skipped_years(caplog, "active") == [2004, 2005]
        assert skipped_years(caplog, "baseline") == [2004]
        assert [[s.t for s in run.steps] for run in runs] == [[2003], [2003], [2003, 2005]]

    def test_empty_training_window_skipped(self, caplog):
        rows = varied_weekly_rows(2004) + varied_weekly_rows(2005)
        stream = stream_of(rows, (2003, 2005))
        with caplog.at_level("WARNING"):
            run = run_stream(stream, 1, [("passive", "mean")], NB)[0]
        # t=2003 cannot train (empty window), t=2004 proceeds
        assert skipped_years(caplog, "passive") == [2003]
        assert [s.t for s in run.steps] == [2004]

    @pytest.mark.parametrize("b", [1, 2])
    def test_recorded_steps_follow_the_shared_rule(self, b):
        rows = []
        for year in (2004, 2005, 2007, 2009, 2010):
            rows += varied_weekly_rows(year)
        stream = stream_of(rows, (2003, 2010))
        cells = [("baseline", "mean"), ("passive", "mean"), ("active", "mean_variance")]
        for (dh, _), run in zip(cells, run_stream(stream, b, cells, NB)):
            assert run.error is None
            assert [s.t for s in run.steps] == recorded_step_years(stream, b, dh)


class TestModelReuse:
    def test_active_without_drift_reuses_same_object(self, monkeypatch):
        stream = stationary_stream(2003, 2007)
        used = []
        real_predict = learn.predict

        def predict(model, batches):
            used.append(model)
            return real_predict(model, batches)
        monkeypatch.setattr(learn, "predict", predict)
        run = run_stream(stream, 1, [("active", "mean")], NB)[0]
        assert [s.t for s in run.steps] == [2003, 2004, 2005, 2006]
        assert len(used) == len(run.steps)
        for step, model, prev_model in zip(run.steps[1:], used[1:], used[:-1]):
            if not step.trained:
                assert model is prev_model
        assert used[-1] is run.current_model

    def test_cells_share_trainings_and_predictions(self, monkeypatch):
        stream = alternating_stream()
        cells = [("baseline", "mean"), ("passive", "mean"), ("active", "mean"),
                 ("active", "variance"), ("active", "mean_variance")]
        alone = [run_stream(stream, 1, [cell], NB)[0] for cell in cells]
        trained, predicted = [], []
        real_train, real_predict = learn.train, learn.predict

        def train(spec, batches):
            trained.append(batches[-1].year)
            return real_train(spec, batches)

        def predict(model, batches):
            predicted.append((id(model), tuple(map(id, batches))))
            return real_predict(model, batches)
        monkeypatch.setattr(learn, "train", train)
        monkeypatch.setattr(learn, "predict", predict)
        runs = run_stream(stream, 1, cells, NB)
        # every model any cell trains is one of passive's, trained once
        assert trained == list(range(2003, 2008))
        assert len(predicted) == len(set(predicted))
        assert len(predicted) < sum(len(run.steps) for run in runs)
        for run, single in zip(runs, alone):
            assert run.error is None
            assert run.trainings_done == single.trainings_done
            assert run.steps == single.steps

    def test_error_ends_only_the_cells_it_hits(self, monkeypatch):
        stream = alternating_stream()
        real_train = learn.train

        def train(spec, batches):
            if batches[-1].year == 2005:
                raise ValueError("no fit for 2005")
            return real_train(spec, batches)
        monkeypatch.setattr(learn, "train", train)
        baseline, passive = run_stream(stream, 1, [("baseline", "mean"), ("passive", "mean")], NB)
        assert baseline.error is None
        assert [s.t for s in baseline.steps] == [2003, 2004, 2005, 2006, 2007]
        assert str(passive.error) == "no fit for 2005"
        assert [s.t for s in passive.steps] == [2003, 2004]

    def test_passive_equals_active_when_every_step_drifts(self):
        stream = alternating_stream()
        passive = run_stream(stream, 1, [("passive", "mean")], NB)[0]
        active = run_stream(stream, 1, [("active", "mean")], NB)[0]
        assert all(s.drift.drift for s in active.steps[1:])
        for p_step, a_step in zip(passive.steps, active.steps):
            assert p_step.confusion == a_step.confusion
            assert p_step.metrics == a_step.metrics


class TestStepResults:
    def test_metrics_recomputable_from_confusion(self):
        from driftlab.learn import compute_metrics
        run = run_stream(stationary_stream(), 1, [("passive", "mean")], NB)[0]
        for step in run.steps:
            assert step.metrics == compute_metrics(step.confusion)

    def test_confusion_covers_test_batch(self):
        stream = stationary_stream()
        run = run_stream(stream, 1, [("passive", "mean")], NB)[0]
        for step in run.steps:
            test_batch = next(b for b in stream if b.year == step.t + 1)
            assert step.confusion.total == len(test_batch)


class TestModelStore:
    def test_save_and_load_latest(self, tmp_path):
        stream = stationary_stream()
        store = ModelStore(tmp_path / "models")
        run = run_stream(stream, 1, [("passive", "mean")], NB, store=store,
                         store_airport=None, replicate=0)[0]
        assert run.trainings_done == 3
        loaded = store.load_latest(None, "NB", "mean", "passive", 1, 0)
        manifest = json.loads((tmp_path / "models" / "SB__NB__mean__passive__b1__r0"
                               / "manifest.json").read_text())
        assert (manifest["history"][-1]["t"], manifest["key"]["b"]) == (2005, 1)  # last trained
        from driftlab.learn import predict
        batches = stream[-1:]
        assert np.array_equal(predict(loaded, batches),
                              predict(run.current_model, batches))

    def test_manifest_tracks_history(self, tmp_path):
        stream = stationary_stream()
        store = ModelStore(tmp_path / "models")
        run_stream(stream, 1, [("passive", "mean")], NB, store=store, store_airport="SBGR")
        key_dir = tmp_path / "models" / "SBGR__NB__mean__passive__b1__r0"
        manifest = json.loads((key_dir / "manifest.json").read_text())
        assert [entry["t"] for entry in manifest["history"]] == [2003, 2004, 2005]
        assert manifest["latest"] == manifest["history"][-1]["model"]
        objects = tmp_path / "models" / "objects"
        assert all((objects / entry["model"]).exists() for entry in manifest["history"])
        assert manifest["key"]["airport"] == "SBGR"

    def test_missing_key_errors(self, tmp_path):
        store = ModelStore(tmp_path / "models")
        with pytest.raises(FileNotFoundError):
            store.load_latest(None, "NB", "mean", "active", 1, 0)


class TestOnSyntheticDrift:
    def test_active_retrains_at_injected_shift(self):
        spec = synth.SyntheticSpec(years=6, flights_per_week=120, base_delay_rate=0.2,
                                   drift_events=(synth.DriftEvent(at_year=4, kind="prior_shift",
                                                                  magnitude=0.25),),
                                   seed=13)
        rows, _ = synth.generate_stream(spec)
        stream = stream_of(rows, (2001, 2006))
        run = run_stream(stream, 1, [("active", "mean")], NB)[0]
        by_t = {s.t: s for s in run.steps}
        assert by_t[2004].drift.drift  # window 2004 vs 2003 straddles the shift
        assert by_t[2004].trained
        assert run.trainings_done == 1 + sum(
            1 for s in run.steps if s.drift is not None and s.drift.drift)
