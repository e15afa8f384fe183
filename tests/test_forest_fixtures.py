"""Seeded random forests must keep their predictions and model files.

``tests/golden/forest_fixtures.json`` holds, for each forest below, its
predictions on the training rows plus rows with unseen levels, and the
sha256 of the bytes that ``save_model`` writes. ``tests/golden/rf_model.npz``
is one of those models as a file. The predictions date from the trees that
preceded the flat node arrays; the sha256s and the file are of model format
version 3, an ``np.savez_compressed`` archive of each tree's fitted arrays.
Those bytes are pinned at numpy 2.4.6 (its zip and npy writers and its
zlib). Re-record with ``PYTHONPATH=src python tests/test_forest_fixtures.py``
only when a change of the model format is intended, and check that no
``predictions`` string moves.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from driftlab import synth
from driftlab.learn import ModelSpec, load_model, model_bytes, predict, save_model, train

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = GOLDEN / "forest_fixtures.json"
MODEL_FILE = GOLDEN / "rf_model.npz"

# the benchmark's grid_sweep forest, a forest grown to purity, and one that
# draws every feature at each node (so categorical splits compete everywhere)
RF_FIXED = {"trees_count": 3, "predictors_per_split": 2, "max_depth": 6}
FORESTS = {
    "fixed_seed0": (RF_FIXED, 0),
    "fixed_seed1": (RF_FIXED, 1),
    "fixed_seed2": (RF_FIXED, 2),
    "unbounded": ({"trees_count": 3, "predictors_per_split": 3}, 5),
    "all_features": ({"trees_count": 2, "predictors_per_split": 6}, 7),
}
MODEL_FILE_FOREST = "fixed_seed0"


def training_rows():
    """Two synthetic years with four origins; the numeric features are
    rounded so that thresholds fall between tied values."""
    spec = synth.SyntheticSpec(years=2, weeks_per_year=20, flights_per_week=25,
                               base_delay_rate=0.3, seed=17)
    rows, _ = synth.generate_stream(spec)
    return [dataclasses.replace(r, origin_airport=("SBGR", "SBSP", "SBRJ", "SBKP")[i % 7 % 4],
                                numeric_features=np.round(r.numeric_features, 1))
            for i, r in enumerate(rows)]


def probe_rows(rows):
    """The training rows, then rows whose destination state, week or origin
    was never seen in training."""
    head = rows[:60]
    return (rows
            + [dataclasses.replace(r, destination_state="ZZ") for r in head]
            + [dataclasses.replace(r, week_of_year=60) for r in head]
            + [dataclasses.replace(r, origin_airport="XXXX") for r in head]
            + [dataclasses.replace(r, destination_state="ZZ", week_of_year=60,
                                   origin_airport="XXXX") for r in head])


def record() -> None:
    rows = training_rows()
    probes = probe_rows(rows)
    out = {}
    for name, (hp, seed) in FORESTS.items():
        model = train(ModelSpec(kind="RF", hyperparameters=hp, seed=seed), rows)
        out[name] = {"predictions": "".join(map(str, predict(model, probes))),
                     "model_sha256": hashlib.sha256(model_bytes(model)).hexdigest()}
        if name == MODEL_FILE_FOREST:
            save_model(model, MODEL_FILE)
    FIXTURES.write_text(json.dumps(out, indent=1) + "\n")


@pytest.fixture(scope="module")
def rows():
    return training_rows()


@pytest.mark.parametrize("name", FORESTS)
def test_forest_predictions_and_model_json(rows, name):
    expected = json.loads(FIXTURES.read_text())[name]
    hp, seed = FORESTS[name]
    model = train(ModelSpec(kind="RF", hyperparameters=hp, seed=seed), rows)
    assert "".join(map(str, predict(model, probe_rows(rows)))) == expected["predictions"]
    assert hashlib.sha256(model_bytes(model)).hexdigest() == expected["model_sha256"]


def test_recorded_model_file_predicts_and_round_trips(rows):
    expected = json.loads(FIXTURES.read_text())[MODEL_FILE_FOREST]
    model = load_model(MODEL_FILE)
    assert "".join(map(str, predict(model, probe_rows(rows)))) == expected["predictions"]
    assert model_bytes(model) == MODEL_FILE.read_bytes()


@pytest.mark.parametrize("name", FORESTS)
def test_loaded_trees_equal_the_fitted_arrays(rows, tmp_path, name):
    hp, seed = FORESTS[name]
    model = train(ModelSpec(kind="RF", hyperparameters=hp, seed=seed), rows)
    save_model(model, tmp_path / "rf.npz")
    loaded = load_model(tmp_path / "rf.npz")
    assert len(loaded.classifier.trees) == len(model.classifier.trees)
    for fitted, tree in zip(model.classifier.trees, loaded.classifier.trees):
        for name in ("feature", "threshold", "children", "value", "majority_left", "route",
                     "routes", "seen"):
            assert np.array_equal(getattr(tree, name), getattr(fitted, name)), name


def test_fixtures_reach_unseen_levels_and_both_split_kinds(rows):
    """The fixtures are worth their bytes: unseen levels change some
    predictions, and the forests hold numeric and categorical splits."""
    expected = json.loads(FIXTURES.read_text())["all_features"]["predictions"]
    n = len(rows)
    seen, unseen_state = expected[:60], expected[n:n + 60]
    assert seen != unseen_state
    kinds = set()
    for tree in load_model(MODEL_FILE).classifier.trees:
        # every node but the categorical ones points at the last, all-False block
        categorical = tree.route < tree.routes.size - tree.width
        for value, threshold, cat in zip(tree.value, tree.threshold, categorical):
            if value < 0:  # an inner node: a threshold or a block of routes
                kinds.add("num" if threshold > -np.inf else "cat")
                assert (threshold == -np.inf) == cat
    assert kinds == {"num", "cat"}


if __name__ == "__main__":
    record()
