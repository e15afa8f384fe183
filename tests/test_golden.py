"""Golden results: a fixed config and seed must write the same bytes.

The expected tables under ``tests/golden/`` were recorded with numpy 2.4.6
(Python 3.11). The sweep's floats come from numpy arithmetic, so another
numpy version may change their last digits; re-record the files there by
copying what ``drift_analysis`` writes for each config. The criterion 9
table is checked inside ``test_acceptance.test_criterion_9_grid_integrity``.

``b3_rf_mlp_models.sha256`` is the ``tree_digest`` of the model store that
``b3_sweep`` writes: manifests and model format 3 objects, whose
``np.savez_compressed`` bytes are pinned at numpy 2.4.6. Re-record it by
writing that digest, only when a change of the model format or of the store
layout is intended.
``b3_store_predictions.json`` holds each stored model's predictions on the
stream's last two years, and must not move with such a change. Re-record it
with ``PYTHONPATH=src python tests/test_golden.py`` only when a change of the
trained models is intended.
"""

import hashlib
import json
from pathlib import Path

from conftest import as_batches
from driftlab import learn, synth
from driftlab.learn import load_model, predict
from driftlab.runner import ExperimentGrid, drift_analysis

GOLDEN = Path(__file__).parent / "golden"

B3_HP = {"RF": {"trees_count": 3, "predictors_per_split": 2},
         "MLP": {"hidden_neurons": 4, "learning_rate": 0.5, "epochs": 6, "batch_size": 64}}


def tree_digest(root: Path) -> str:
    """sha256 over every file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def b3_rows():
    """Seven years (2001-2007) with one prior shift."""
    spec = synth.SyntheticSpec(years=7, weeks_per_year=26, flights_per_week=30,
                               base_delay_rate=0.2, seed=21,
                               drift_events=(synth.DriftEvent(at_year=5, kind="prior_shift",
                                                              magnitude=0.15),))
    rows, _ = synth.generate_stream(spec)
    return rows


def b3_sweep(out: Path, store: Path) -> None:
    """b=3 RF/MLP, every strategy and detector, 2 replicates, one prior shift:
    the detectors retrain in different years (variance skips 2006)."""
    rows = b3_rows()
    grid = ExperimentGrid(airports=(None,), classifiers=("RF", "MLP"), years=(2003, 2006),
                          bss=(3,), replicates=2)
    drift_analysis(rows, grid, out, hyperparameters=B3_HP, base_seed=3,
                   model_store_dir=store)


def test_b3_rf_mlp_results_bytes(tmp_path):
    out = tmp_path / "results.csv"
    b3_sweep(out, tmp_path / "models")
    assert out.read_bytes() == (GOLDEN / "b3_rf_mlp_results.csv").read_bytes()
    assert tree_digest(tmp_path / "models") == (
        (GOLDEN / "b3_rf_mlp_models.sha256").read_text().strip())
    # the 52 (key, t) entries share 16 distinct models, each written once
    assert len(list((tmp_path / "models" / "objects").iterdir())) == 16

    # a resume after losing the tail rewrites it byte for byte
    lines = out.read_bytes().splitlines(keepends=True)
    out.write_bytes(b"".join(lines[:-13]))
    b3_sweep(out, tmp_path / "models")
    assert out.read_bytes() == (GOLDEN / "b3_rf_mlp_results.csv").read_bytes()


def test_b3_sweep_serializes_each_model_once(tmp_path, monkeypatch):
    serialized = []
    real = learn.model_bytes

    def model_bytes(model):
        serialized.append(model)
        return real(model)
    monkeypatch.setattr(learn, "model_bytes", model_bytes)
    b3_sweep(tmp_path / "results.csv", tmp_path / "models")
    # the 16 models of the store, each shared by every cell that trained it
    assert len(serialized) == 16


STORE_PREDICTIONS = GOLDEN / "b3_store_predictions.json"


def stored_models(store: Path):
    """(key directory name, t, model file) of every model in the store's
    manifests."""
    for manifest_path in sorted(store.glob("*/manifest.json")):
        manifest = json.loads(manifest_path.read_text())
        for entry in manifest["history"]:
            yield manifest_path.parent.name, entry["t"], store / "objects" / entry["model"]


def store_predictions(store: Path) -> dict:
    """Each stored model's predictions on the stream's last two years, by key
    directory name and t."""
    batches = as_batches([r for r in b3_rows() if r.year >= 2006])
    out: dict = {}
    for key, t, path in stored_models(store):
        out.setdefault(key, {})[str(t)] = "".join(map(str, predict(load_model(path), batches)))
    return out


def test_b3_store_models_predict_as_recorded(tmp_path):
    b3_sweep(tmp_path / "results.csv", tmp_path / "models")
    assert store_predictions(tmp_path / "models") == json.loads(STORE_PREDICTIONS.read_text())


def record_store_predictions(scratch: Path) -> None:
    b3_sweep(scratch / "results.csv", scratch / "models")
    STORE_PREDICTIONS.write_text(json.dumps(store_predictions(scratch / "models"), indent=1,
                                            sort_keys=True) + "\n")


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as scratch:
        record_store_predictions(Path(scratch))
