import json

import pytest

from driftlab import ingest, learn, runner, synth
from driftlab.cli import main
from driftlab.strategy import ModelStore


@pytest.fixture
def synth_spec_file(tmp_path):
    spec = synth.SyntheticSpec(years=5, weeks_per_year=26, flights_per_week=40,
                               base_delay_rate=0.2,
                               drift_events=(synth.DriftEvent(at_year=3, kind="prior_shift",
                                                              magnitude=0.2),),
                               seed=4)
    path = tmp_path / "spec.json"
    synth.save_spec(spec, path)
    return path


def run_pipeline(tmp_path, synth_spec_file, exit_code=0, **config_keys):
    rows_path = tmp_path / "rows.npz"
    assert main(["synth", "--spec", str(synth_spec_file), "-o", str(rows_path)]) == 0
    config = {
        "rows": str(rows_path),
        "out": str(tmp_path / "results.csv"),
        "grid": {"airports": ["SB"], "classifiers": ["NB"], "years": [2002, 2004],
                 "bss": [1], "detectors": ["mean", "variance", "mean_variance"],
                 "strategies": ["baseline", "passive", "active"], "replicates": 5},
        "hyperparameters": {"NB": {"smoothing": 0.5}},
        "base_seed": 11,
        **config_keys,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg_path)]) == exit_code
    return tmp_path / "results.csv"


class TestSynthCommand:
    def test_writes_rows_and_events(self, tmp_path, synth_spec_file, capsys):
        out = tmp_path / "rows.npz"
        assert main(["synth", "--spec", str(synth_spec_file), "-o", str(out)]) == 0
        rows, names = ingest.load_rows(out)
        assert len(rows) == 5 * 26 * 40
        assert names == ("x0", "x1", "x2")
        events = json.loads((tmp_path / "rows.npz.events.json").read_text())
        assert events == [{"at_year": 2003, "kind": "prior_shift", "magnitude": 0.2}]
        assert "ground-truth events" in capsys.readouterr().out

    def test_missing_spec_fails(self, tmp_path, capsys):
        assert main(["synth", "--spec", str(tmp_path / "nope.json"),
                     "-o", str(tmp_path / "rows.npz")]) == 1
        assert "error:" in capsys.readouterr().err


class TestPreprocessCommand:
    def test_preprocess_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "raw.csv"
        csv_path.write_text(
            "flight_id,origin,destination,scheduled_departure,actual_departure,kind,wx_temp\n"
            "F1,SBGR,SBBR,2003-03-10T08:00,2003-03-10T08:40,domestic,21.0\n"
            "F2,SBGR,SBBR,2003-03-11T09:00,2003-03-11T09:05,domestic,19.5\n"
            "F3,SBGR,SBBR,,2003-03-12T10:00,domestic,20.0\n")
        out = tmp_path / "rows.npz"
        assert main(["preprocess", str(csv_path), "--airport", "SB", "-o", str(out)]) == 0
        rows, names = ingest.load_rows(out)
        assert len(rows) == 2
        assert [r.delayed for r in rows] == [1, 0]
        assert "1 malformed" in capsys.readouterr().out

    def test_airport_filter(self, tmp_path):
        csv_path = tmp_path / "raw.csv"
        csv_path.write_text(
            "flight_id,origin,destination,scheduled_departure,actual_departure,kind\n"
            "F1,SBGR,SBBR,2003-03-10T08:00,2003-03-10T08:40,domestic\n"
            "F2,SBBR,SBGR,2003-03-10T08:00,2003-03-10T08:20,domestic\n")
        out = tmp_path / "rows.npz"
        assert main(["preprocess", str(csv_path), "--airport", "SBBR", "-o", str(out)]) == 0
        rows, _ = ingest.load_rows(out)
        assert len(rows) == 1 and rows[0].origin_airport == "SBBR"

    def test_airport_outside_top_airports_exits_1(self, tmp_path, capsys):
        csv_path = tmp_path / "raw.csv"
        csv_path.write_text(
            "flight_id,origin,destination,scheduled_departure,actual_departure,kind\n"
            "F1,SBGR,SBBR,2003-03-10T08:00,2003-03-10T08:40,domestic\n")
        out = tmp_path / "rows.npz"
        assert main(["preprocess", str(csv_path), "--airport", "KJFK", "-o", str(out)]) == 1
        assert "TOP_AIRPORTS" in capsys.readouterr().err
        assert not out.exists()

    def test_utc_offset_on_one_departure_only_is_a_malformed_line(self, tmp_path, capsys):
        csv_path = tmp_path / "raw.csv"
        csv_path.write_text(
            "flight_id,origin,destination,scheduled_departure,actual_departure,kind\n"
            "F1,SBGR,SBBR,2003-03-10T08:00,2003-03-10T08:40+00:00,domestic\n"
            "F2,SBGR,SBBR,2003-03-10T08:00-03:00,2003-03-10T11:20+00:00,domestic\n")
        out = tmp_path / "rows.npz"
        assert main(["preprocess", str(csv_path), "-o", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["1 records loaded, 1 malformed lines",
                             "  line 2: only one of scheduled_departure and actual_departure "
                             "has a UTC offset"]
        rows, _ = ingest.load_rows(out)
        assert [r.delayed for r in rows] == [1]

    def test_duplicate_header_column_exits_1(self, tmp_path, capsys):
        csv_path = tmp_path / "raw.csv"
        csv_path.write_text(
            "flight_id,origin,destination,scheduled_departure,actual_departure,kind,"
            "wx_temp,wx_temp\n"
            "F1,SBGR,SBBR,2003-03-10T08:00,2003-03-10T08:40,domestic,21.0,22.0\n")
        out = tmp_path / "rows.npz"
        assert main(["preprocess", str(csv_path), "-o", str(out)]) == 1
        assert "duplicate columns in header: ['wx_temp']" in capsys.readouterr().err
        assert not out.exists()

    def test_utf8_byte_order_marks_are_skipped(self, tmp_path, capsys):
        csv_path = tmp_path / "raw.csv"
        csv_path.write_text(
            "flight_id,origin,destination,scheduled_departure,actual_departure,kind\n"
            "F1,SBGR,SBFZ,2003-03-10T08:00,2003-03-10T08:40,domestic\n", encoding="utf-8-sig")
        states = tmp_path / "states.csv"
        states.write_text("code,state\nSBFZ,CE\n", encoding="utf-8-sig")
        out = tmp_path / "rows.npz"
        assert main(["preprocess", str(csv_path), "--states", str(states), "-o", str(out)]) == 0
        assert capsys.readouterr().out.startswith("1 records loaded, 0 malformed lines")
        rows, _ = ingest.load_rows(out)
        assert [r.destination_state for r in rows] == ["CE"]

    def test_over_long_field_exits_1(self, tmp_path, capsys):
        csv_path = tmp_path / "raw.csv"
        long_field = "x" * 200_000  # over the csv module's 131072-character limit
        csv_path.write_text(
            "flight_id,origin,destination,scheduled_departure,actual_departure,kind\n"
            "F1,SBGR,SBBR,2003-03-10T08:00,2003-03-10T08:40,domestic\n"
            f'F2,SBGR,SBBR,"{long_field}",2003-03-10T08:40,domestic\n')
        out = tmp_path / "rows.npz"
        assert main(["preprocess", str(csv_path), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{csv_path}, line 3: field larger than field limit" in err
        assert not out.exists()

    def test_missing_file_nonzero_exit(self, tmp_path, capsys):
        assert main(["preprocess", str(tmp_path / "nope.csv"), "-o",
                     str(tmp_path / "o.npz")]) == 1
        assert "error:" in capsys.readouterr().err


class TestRunAndAnalyze:
    def test_run_then_analyses(self, tmp_path, synth_spec_file, capsys):
        results_path = run_pipeline(tmp_path, synth_spec_file)
        out = capsys.readouterr().out
        assert "result rows" in out

        assert main(["analyze", "drifts", "--results", str(results_path)]) == 0
        drifts_out = capsys.readouterr().out
        assert "airport\tdetector\tbss\tdrifts" in drifts_out
        assert "SB\tmean" in drifts_out

        assert main(["analyze", "topk", "--results", str(results_path),
                     "--k", "2..4", "--metric", "f1"]) == 0
        topk_out = capsys.readouterr().out
        assert "k\tcategory\tvalue\tfrequency" in topk_out
        assert "\tstrategy\t" in topk_out

        rc = main(["analyze", "correlate", "--results", str(results_path)])
        err = capsys.readouterr()
        # a single (airport, bss) group cannot be correlated: clean error
        assert rc == 1
        assert "3" in err.err

    def test_run_with_model_store(self, tmp_path, synth_spec_file):
        store = tmp_path / "models"
        run_pipeline(tmp_path, synth_spec_file, model_store=str(store))
        objects = {path.name: path.read_bytes() for path in (store / "objects").iterdir()}
        assert len(set(objects.values())) == len(objects)  # objects differ pairwise
        used, entries = set(), 0
        for manifest_path in sorted(store.glob("*/manifest.json")):
            manifest = json.loads(manifest_path.read_text())
            names = [entry["model"] for entry in manifest["history"]]
            assert set(names) <= set(objects)  # every entry names an existing object
            used.update(names)
            entries += len(names)
            key = manifest["key"]
            latest = ModelStore(store).load_latest(key["airport"], key["kind"], key["dd"],
                                                   key["dh"], key["b"], key["replicate"])
            assert latest.spec.kind == key["kind"]
            assert manifest["latest"] == names[-1]
            assert [entry["t"] for entry in manifest["history"]] == sorted(
                {entry["t"] for entry in manifest["history"]})
            assert manifest_path.parent.name.endswith(f"__b{key['b']}__r{key['replicate']}")
        assert used == set(objects)  # no object is left unreferenced
        assert len(objects) < entries  # cells that train the same model share its object

    def test_run_exits_3_and_names_the_cells_of_error_rows(self, tmp_path, synth_spec_file,
                                                            capsys, monkeypatch):
        def fit(self, numeric, codes, y):
            raise ValueError("tree cannot be grown")
        monkeypatch.setattr(learn.DecisionTree, "fit", fit)
        grid = {"airports": ["SB"], "classifiers": ["NB", "RF"], "years": [2002, 2003],
                "bss": [1], "detectors": ["mean"], "strategies": ["passive"], "replicates": 2}
        hp = {"NB": {"smoothing": 0.5}, "RF": {"trees_count": 2, "predictors_per_split": 2}}
        results_path = run_pipeline(tmp_path, synth_spec_file, exit_code=3, grid=grid,
                                    hyperparameters=hp)
        captured = capsys.readouterr()
        assert "4 result rows" in captured.out and "(2 error markers)" in captured.out
        assert captured.err.splitlines() == [
            f"error row: SB RF b=1 passive/na replicate {rep}: ValueError: tree cannot be grown"
            for rep in (0, 1)]
        # a resume finds the error rows in the table and exits 3 again
        assert main(["run", "--config", str(tmp_path / "cfg.json")]) == 3
        assert len(runner.load_results(results_path)) == 4

    def test_k_list_syntax(self, tmp_path, synth_spec_file, capsys):
        results_path = run_pipeline(tmp_path, synth_spec_file)
        capsys.readouterr()
        assert main(["analyze", "topk", "--results", str(results_path),
                     "--k", "2,3", "--metric", "accuracy"]) == 0
        out = capsys.readouterr().out
        assert "\n2\tstrategy\t" in out and "\n3\tstrategy\t" in out

    def test_k_below_one_fails(self, tmp_path, synth_spec_file, capsys):
        results_path = run_pipeline(tmp_path, synth_spec_file)
        capsys.readouterr()
        assert main(["analyze", "topk", "--results", str(results_path), "--k", "-2"]) == 1
        captured = capsys.readouterr()
        assert "k >= 1" in captured.err
        assert "\tstrategy\t" not in captured.out

    def test_empty_k_range_fails(self, tmp_path, synth_spec_file, capsys):
        results_path = run_pipeline(tmp_path, synth_spec_file)
        capsys.readouterr()
        assert main(["analyze", "topk", "--results", str(results_path), "--k", "5..3"]) == 1
        captured = capsys.readouterr()
        assert "k range is empty" in captured.err
        assert captured.out == ""

    def test_run_missing_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"rows": "x.npz"}))
        assert main(["run", "--config", str(cfg)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_run_refuses_resume_under_another_config(self, tmp_path, synth_spec_file, capsys):
        results_path = run_pipeline(tmp_path, synth_spec_file)
        content = results_path.read_bytes()
        cfg_path = tmp_path / "cfg.json"
        config = json.loads(cfg_path.read_text())
        config["base_seed"] = 12
        cfg_path.write_text(json.dumps(config))
        capsys.readouterr()
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert "cannot resume" in capsys.readouterr().err
        assert results_path.read_bytes() == content

    def test_run_refuses_unknown_config_keys(self, tmp_path, synth_spec_file, capsys):
        rows_path = tmp_path / "rows.npz"
        assert main(["synth", "--spec", str(synth_spec_file), "-o", str(rows_path)]) == 0
        out = tmp_path / "results.csv"
        cfg_path = tmp_path / "cfg.json"
        for config, named in [
            ({"grid": {"classifiers": ["NB"], "replicate": 2}}, "unknown grid keys: replicate"),
            ({"grid": {"classifiers": ["NB"]}, "alhpa": 0.1, "seed": 3},
             "unknown config keys: alhpa, seed"),
        ]:
            cfg_path.write_text(json.dumps({"rows": str(rows_path), "out": str(out), **config}))
            capsys.readouterr()
            assert main(["run", "--config", str(cfg_path)]) == 1
            assert named in capsys.readouterr().err
            assert not out.exists()

    def test_run_refuses_bad_hyperparameter_values(self, tmp_path, synth_spec_file, capsys):
        rows_path = tmp_path / "rows.npz"
        assert main(["synth", "--spec", str(synth_spec_file), "-o", str(rows_path)]) == 0
        out = tmp_path / "results.csv"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "rows": str(rows_path), "out": str(out), "grid": {"classifiers": ["RF"]},
            "hyperparameters": {"RF": {"trees_count": 0, "predictors_per_split": 2}}}))
        capsys.readouterr()
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert "trees_count must be an int >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_run_refuses_oversized_predictors_per_split(self, tmp_path, synth_spec_file,
                                                         capsys):
        rows_path = tmp_path / "rows.npz"
        assert main(["synth", "--spec", str(synth_spec_file), "-o", str(rows_path)]) == 0
        out = tmp_path / "results.csv"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "rows": str(rows_path), "out": str(out),
            "grid": {"classifiers": ["RF"], "years": [2002, 2004], "bss": [1],
                     "strategies": ["passive"], "replicates": 1},
            "hyperparameters": {"RF": {"trees_count": 2, "predictors_per_split": 50}}}))
        capsys.readouterr()
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert "predictors_per_split 50 exceeds the feature count 6" in capsys.readouterr().err
        assert not out.exists()

    def test_run_refuses_bad_window_sizes(self, tmp_path, synth_spec_file, capsys):
        rows_path = tmp_path / "rows.npz"
        assert main(["synth", "--spec", str(synth_spec_file), "-o", str(rows_path)]) == 0
        out = tmp_path / "results.csv"
        cfg_path = tmp_path / "cfg.json"
        for bss in ([0], [-1], []):
            cfg_path.write_text(json.dumps({
                "rows": str(rows_path), "out": str(out),
                "grid": {"classifiers": ["NB"], "years": [2002, 2004], "bss": bss},
                "hyperparameters": {"NB": {"smoothing": 0.5}}}))
            capsys.readouterr()
            assert main(["run", "--config", str(cfg_path)]) == 1
            assert "bss must be a non-empty tuple of ints >= 1" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("years", [2003]), ("years", [2004, 2002]), ("years", ["2003", "2004"]),
        ("replicates", 2.5), ("replicates", True), ("replicates", "2"),
        ("years", 2003), ("bss", 3), ("airports", "SBGR"), ("classifiers", "NB"),
    ])
    def test_run_refuses_bad_grid_values(self, tmp_path, synth_spec_file, capsys, key, value):
        rows_path = tmp_path / "rows.npz"
        assert main(["synth", "--spec", str(synth_spec_file), "-o", str(rows_path)]) == 0
        out = tmp_path / "results.csv"
        cfg_path = tmp_path / "cfg.json"
        grid = {"classifiers": ["NB"], "years": [2002, 2004], "bss": [1], key: value}
        cfg_path.write_text(json.dumps({
            "rows": str(rows_path), "out": str(out), "grid": grid,
            "hyperparameters": {"NB": {"smoothing": 0.5}}}))
        capsys.readouterr()
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert f"{key} must be" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "results.csv.manifest.json").exists()

    def test_run_leaves_defaults_to_the_library(self, tmp_path, synth_spec_file):
        rows_path = tmp_path / "rows.npz"
        assert main(["synth", "--spec", str(synth_spec_file), "-o", str(rows_path)]) == 0
        out = tmp_path / "results.csv"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "rows": str(rows_path), "out": str(out),
            "grid": {"classifiers": ["NB"], "years": [2002, 2004], "bss": [1],
                     "strategies": ["passive"]},
            "hyperparameters": {"NB": {"smoothing": 0.5}}}))
        assert main(["run", "--config", str(cfg_path)]) == 0
        manifest = json.loads((tmp_path / "results.csv.manifest.json").read_text())
        defaults = runner.ExperimentGrid()
        assert manifest["grid"]["airports"] == ["SB"]
        assert manifest["grid"]["replicates"] == defaults.replicates
        assert manifest["grid"]["detectors"] == list(defaults.detectors)
        assert (manifest["base_seed"], manifest["alpha"], manifest["min_week_flights"],
                manifest["cv_folds"]) == (1000, 0.05, 5, 10)
