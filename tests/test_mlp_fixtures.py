"""Seeded MLPs must keep their weights, predictions and model files.

``tests/golden/mlp_fixtures.json`` holds, for each fit below, the sha256 of
its W1, b1, W2 and b2 bytes, its predictions on the training rows plus rows
with unseen levels, and the sha256 of the bytes that ``save_model`` writes.
The weights and predictions were recorded while ``MLP.fit`` still computed
the cross-entropy of every minibatch and a per-epoch loss history, the
model sha256s for model format version 3, an ``np.savez_compressed``
archive whose bytes are pinned at numpy 2.4.6. Re-record with
``PYTHONPATH=src python tests/test_mlp_fixtures.py`` only when a change of
the trained weights or of the model format is intended.
"""

import dataclasses
import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import as_batches
from driftlab import synth
from driftlab.learn import ModelSpec, load_model, model_bytes, predict, save_model, train

FIXTURES = Path(__file__).parent / "golden" / "mlp_fixtures.json"

N_ROWS = 1000
# the benchmark's grid_sweep MLP, a default_grid point, a batch size that
# does not divide N_ROWS, one full batch, a single hidden neuron, and a
# window whose flights are all on time
FITS = {
    "grid_sweep": ({"hidden_neurons": 8, "learning_rate": 0.1, "epochs": 4}, 0),
    "default_grid": ({"hidden_neurons": 16, "learning_rate": 0.1, "epochs": 50}, 1),
    "batch_7": ({"hidden_neurons": 8, "learning_rate": 0.1, "epochs": 10, "batch_size": 7}, 2),
    "full_batch": ({"hidden_neurons": 4, "learning_rate": 1.0, "epochs": 300,
                    "batch_size": N_ROWS}, 3),
    "one_hidden": ({"hidden_neurons": 1, "learning_rate": 0.5, "epochs": 20}, 4),
    "single_class": ({"hidden_neurons": 4, "learning_rate": 0.1, "epochs": 5}, 5),
}


@functools.cache
def training_rows():
    """One synthetic year of N_ROWS flights from four origins."""
    spec = synth.SyntheticSpec(years=1, weeks_per_year=40, flights_per_week=25,
                               base_delay_rate=0.3, seed=23)
    rows, _ = synth.generate_stream(spec)
    assert len(rows) == N_ROWS
    return [dataclasses.replace(r, origin_airport=("SBGR", "SBSP", "SBRJ", "SBKP")[i % 7 % 4])
            for i, r in enumerate(rows)]


def window(name):
    rows = training_rows()
    if name == "single_class":
        return [r for r in rows if r.delayed == 0][:300]
    return rows


def probe_rows():
    """The training rows, then rows whose destination state, week or origin
    was never seen in training."""
    rows = training_rows()
    head = rows[:60]
    return (rows
            + [dataclasses.replace(r, destination_state="ZZ") for r in head]
            + [dataclasses.replace(r, week_of_year=60) for r in head]
            + [dataclasses.replace(r, origin_airport="XXXX") for r in head]
            + [dataclasses.replace(r, destination_state="ZZ", week_of_year=60,
                                   origin_airport="XXXX") for r in head])


@functools.cache
def trained(name):
    hp, seed = FITS[name]
    return train(ModelSpec(kind="MLP", hyperparameters=hp, seed=seed),
                 as_batches(window(name)))


def params_sha256(clf) -> str:
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes()
                                   for a in (clf.W1, clf.b1, clf.W2, clf.b2))).hexdigest()


def predictions(model) -> str:
    return "".join(map(str, predict(model, as_batches(probe_rows()))))


def record() -> None:
    out = {}
    for name in FITS:
        model = trained(name)
        out[name] = {"params_sha256": params_sha256(model.classifier),
                     "predictions": predictions(model),
                     "model_sha256": hashlib.sha256(model_bytes(model)).hexdigest()}
    FIXTURES.write_text(json.dumps(out, indent=1) + "\n")


@pytest.mark.parametrize("name", FITS)
def test_mlp_weights_predictions_and_model_json(name):
    expected = json.loads(FIXTURES.read_text())[name]
    model = trained(name)
    assert params_sha256(model.classifier) == expected["params_sha256"]
    assert predictions(model) == expected["predictions"]
    assert hashlib.sha256(model_bytes(model)).hexdigest() == expected["model_sha256"]


@pytest.mark.parametrize("name", ["grid_sweep", "batch_7"])
def test_saved_model_file_reloads_byte_for_byte(tmp_path, name):
    expected = json.loads(FIXTURES.read_text())[name]
    path = tmp_path / "mlp.npz"
    save_model(trained(name), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == expected["model_sha256"]
    model = load_model(path)
    assert params_sha256(model.classifier) == expected["params_sha256"]
    assert predictions(model) == expected["predictions"]
    assert model_bytes(model) == path.read_bytes()


def test_fixtures_reach_unseen_levels_and_both_labels():
    """The fixtures are worth their bytes: the fits predict both labels,
    unseen levels change some predictions, and the single-class window
    really holds one label."""
    fixtures = json.loads(FIXTURES.read_text())
    n = N_ROWS
    assert all(set(fixtures[name]["predictions"][:n]) == {"0", "1"}
               for name in ("default_grid", "batch_7", "full_batch", "one_hidden"))
    assert any(fixtures[name]["predictions"][:60] != fixtures[name]["predictions"][n + 180:]
               for name in FITS)
    assert {r.delayed for r in window("single_class")} == {0}


if __name__ == "__main__":
    record()
