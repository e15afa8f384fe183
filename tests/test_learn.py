import itertools
import json
import math
import pickle
import re
import time

import numpy as np
import pytest

from conftest import as_batches, make_row
from driftlab import ingest
from driftlab.ingest import apply_normalizer, fit_normalizer
from driftlab.learn import (MLP, ConfusionCounts, DecisionTree, ModelSpec,
                            canonical_kind, compute_metrics, confusion_from_predictions,
                            default_grid, grid_search_cv, load_model, model_bytes, one_hot,
                            predict, save_model, train, _arrays, _vocabs)
from driftlab.windowing import Batch


def labels(rows):
    return np.array([r.delayed for r in rows])


class TestKinds:
    def test_nn_alias(self):
        assert canonical_kind("NN") == "MLP"
        assert canonical_kind("nb") == "NB"
        with pytest.raises(ValueError):
            canonical_kind("SVM")

    def test_missing_hyperparameters(self):
        with pytest.raises(ValueError, match="smoothing"):
            ModelSpec(kind="NB", hyperparameters={})

    @pytest.mark.parametrize("kind, hp, unread", [
        ("NB", {"smoothing": 0.5, "alpha": 1.0}, "alpha"),
        ("RF", {"trees_count": 3, "predictors_per_split": 2, "bootstrap": False}, "bootstrap"),
        ("RF", {"trees_count": 3, "predictors_per_split": 2, "min_samples_split": 4},
         "min_samples_split"),
        ("RF", {"trees_count": 3, "predictors_per_split": 2, "max_depht": 6}, "max_depht"),
        ("NN", {"hidden_neurons": 4, "learning_rate": 0.1, "epochs": 2, "batch": 8}, "batch"),
    ])
    def test_unread_hyperparameters_refused(self, kind, hp, unread):
        with pytest.raises(ValueError, match=f"does not read.*{unread}"):
            ModelSpec(kind=kind, hyperparameters=hp)

    @pytest.mark.parametrize("kind, key, value", [
        ("RF", "trees_count", 0),
        ("RF", "trees_count", 2.7),
        ("RF", "trees_count", True),
        ("RF", "predictors_per_split", 0),
        ("RF", "max_depth", 0),
        ("RF", "max_depth", 6.0),
        ("MLP", "hidden_neurons", 0),
        ("MLP", "epochs", 0),
        ("MLP", "batch_size", 0),
        ("MLP", "learning_rate", 0.0),
        ("MLP", "learning_rate", float("nan")),
        ("MLP", "learning_rate", "0.1"),
        ("NB", "smoothing", 0),
        ("NB", "smoothing", -1.0),
        ("NB", "smoothing", float("inf")),
    ])
    def test_bad_hyperparameter_values_refused(self, kind, key, value):
        valid = {"NB": {"smoothing": 0.5},
                 "RF": {"trees_count": 3, "predictors_per_split": 2},
                 "MLP": {"hidden_neurons": 4, "learning_rate": 0.1, "epochs": 2}}[kind]
        with pytest.raises(ValueError, match=f"hyperparameter {key} must be"):
            ModelSpec(kind=kind, hyperparameters={**valid, key: value})

    def test_every_read_hyperparameter_accepted(self):
        ModelSpec(kind="RF", hyperparameters={"trees_count": 3, "predictors_per_split": 2,
                                              "max_depth": 6})
        ModelSpec(kind="RF", hyperparameters={"trees_count": 1, "predictors_per_split": 1,
                                              "max_depth": None})
        ModelSpec(kind="MLP", hyperparameters={"hidden_neurons": 1, "learning_rate": 1,
                                               "epochs": 1, "batch_size": 1})
        ModelSpec(kind="MLP", hyperparameters={"hidden_neurons": 4, "learning_rate": 0.5,
                                               "epochs": 6, "batch_size": 64})
        for kind in ("NB", "RF", "MLP"):
            for hp in default_grid(kind, 6):
                ModelSpec(kind=kind, hyperparameters=hp)


def reference_extract(rows):
    """The window's columns written row by row, the definition that
    learn._arrays must match."""
    numeric = np.vstack([r.numeric_features for r in rows])
    cats = [[r.origin_airport for r in rows],
            [r.destination_state for r in rows],
            [r.week_of_year for r in rows]]
    y = np.array([r.delayed for r in rows], dtype=int)
    return numeric, cats, y


def reference_vocabs(cats):
    """Each column's levels sorted by str, to codes 0, 1, ...: the
    vocabularies train builds."""
    return tuple({v: code for code, v in enumerate(sorted(set(col), key=str))} for col in cats)


def reference_encode(cats, vocabs):
    """Level codes written row by row: a level missing from its vocabulary
    gets the vocabulary's size."""
    return np.array([[vocab.get(v, len(vocab)) for vocab, v in zip(vocabs, values)]
                     for values in zip(*cats)], dtype=int)


def assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_vocabs(got, want):
    """Equal vocabularies whose keys have the same Python types, in code
    order: the model file stores each vocabulary's dtype."""
    assert got == want
    assert [[type(k) for k in vocab] for vocab in got] == \
           [[type(k) for k in vocab] for vocab in want]


ORIGINS = ("SBGR", "SBSP", "SBKP", "SBRJ", "SBBR", "SBCT")
STATES = ("SP", "RJ", "MG", "DF", "BA", "PR", "RS")


def seeded_rows(seed, n=300, n_features=4, delayed=int, year=2003, origins=ORIGINS[:4],
                states=STATES[:5], weeks=(1, 54), week=int):
    """Rows with NaN features, week levels of the given type and the given
    delayed type."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, n_features))
    features[rng.random((n, n_features)) < 0.1] = np.nan
    origin_of = rng.choice(list(origins), size=n)
    state_of = rng.choice(list(states), size=n)
    week_of = rng.integers(*weeks, size=n)
    labels_ = rng.integers(0, 2, size=n)
    return [make_row(year=year, week=week(week_of[i]), delayed=delayed(labels_[i]),
                     origin=str(origin_of[i]), state=str(state_of[i]),
                     features=features[i]) for i in range(n)]


def seeded_window(seed, n_batches, delayed=int, week=int):
    """n_batches consecutive yearly batches of unequal sizes whose origin,
    state and week level sets differ."""
    return [Batch(2003 + i, tuple(seeded_rows(seed + i, n=120 + 40 * i, delayed=delayed,
                                              year=2003 + i, origins=ORIGINS[i:i + 4],
                                              states=STATES[2 * i:2 * i + 3],
                                              weeks=(1 + 10 * i, 30 + 10 * i), week=week)))
            for i in range(n_batches)]


class TestConversion:
    """A window's vocabularies and arrays, built from its batches' cached
    columns, equal a plain per-row reference in key types, dtype, shape and
    bytes."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("delayed", [int, bool, np.int64, np.int8],
                             ids=["int", "bool", "np.int64", "np.int8"])
    def test_extract_and_encode_match_reference(self, seed, delayed):
        """Windows of 1, 2 and 3 batches."""
        batches = seeded_window(seed, seed + 1, delayed=delayed)
        if len(batches) > 1:
            level_sets = [set(b.columns.levels[1]) for b in batches]
            assert level_sets[0] != level_sets[1]
        rows = [r for b in batches for r in b.rows]
        ref_numeric, ref_cats, ref_y = reference_extract(rows)
        vocabs = _vocabs(batches)
        assert_same_vocabs(vocabs, reference_vocabs(ref_cats))
        numeric, codes, y = _arrays(batches, vocabs)
        assert np.isnan(numeric).any()
        assert_same_array(numeric, ref_numeric)
        assert_same_array(codes, reference_encode(ref_cats, vocabs))
        assert_same_array(y, ref_y)

    @pytest.mark.parametrize("week", [int, np.int64, "mixed"])
    def test_vocabulary_keys_keep_their_types(self, week):
        """A level keeps the type of the first row that has it, as set()
        over the window's rows keeps it."""
        if week == "mixed":  # every third row's week is an int, the others np.int64
            types = itertools.cycle((int, np.int64, np.int64))

            def week(w):
                return next(types)(w)
        batches = seeded_window(7, 3, week=week)
        rows = [r for b in batches for r in b.rows]
        assert_same_vocabs(_vocabs(batches), reference_vocabs(reference_extract(rows)[1]))

    def test_feature_dtype_kept(self):
        batches = seeded_window(3, 2)
        for b in batches:
            for r in b.rows:
                r.numeric_features = r.numeric_features.astype(np.float32)
        rows = [r for b in batches for r in b.rows]
        numeric, _, _ = _arrays(batches, _vocabs(batches))
        assert numeric.dtype == np.float32 and np.isnan(numeric).any()
        assert_same_array(numeric, reference_extract(rows)[0])

    def test_unknown_levels_get_vocabulary_size(self):
        vocabs = _vocabs(seeded_window(5, 2))
        batches = seeded_window(11, 3)
        batches[-1] = Batch(batches[-1].year, batches[-1].rows + (
            make_row(year=2005, origin="SBPA", state="RR", week=60, features=(0.0,) * 4),
            make_row(year=2005, origin="SBGR", state="AP", week=1, features=(0.0,) * 4)))
        rows = [r for b in batches for r in b.rows]
        _, codes, _ = _arrays(batches, vocabs)
        assert_same_array(codes, reference_encode(reference_extract(rows)[1], vocabs))
        assert codes[-2].tolist() == [len(v) for v in vocabs]
        assert codes[-1].tolist() == [vocabs[0]["SBGR"], len(vocabs[1]), vocabs[2][1]]

    def test_ragged_features_refused(self):
        rows = [make_row(features=(0.1, 0.2)), make_row(features=(0.1, 0.2, 0.3))]
        with pytest.raises(ValueError):
            _arrays(as_batches(rows), ())

    def test_each_batch_reads_its_rows_once(self, monkeypatch):
        batches = seeded_window(2, 3)
        reads = []
        real = ingest.row_columns

        def counting(rows):
            reads.append(rows)
            return real(rows)
        monkeypatch.setattr(ingest, "row_columns", counting)
        spec = ModelSpec(kind="NB", hyperparameters={"smoothing": 0.5})
        model = train(spec, batches)
        for _ in range(2):
            predict(model, batches[1:])
            train(spec, batches[:2])
        assert [len(r) for r in reads] == [len(b) for b in batches]


class TestNaiveBayes:
    def test_separable_toy_accuracy(self, toy_separable_rows):
        spec = ModelSpec(kind="NB", hyperparameters={"smoothing": 0.5}, seed=0)
        model = train(spec, as_batches(toy_separable_rows))
        preds = predict(model, as_batches(toy_separable_rows))
        assert np.mean(preds == labels(toy_separable_rows)) >= 0.95

    def test_posterior_matches_brute_force(self, toy_separable_rows):
        """Independent oracle: literal Gaussian/categorical posterior products
        computed from scratch on the normalized arrays."""
        spec = ModelSpec(kind="NB", hyperparameters={"smoothing": 0.7}, seed=0)
        model = train(spec, as_batches(toy_separable_rows))
        clf = model.classifier

        raw, codes, y = _arrays(as_batches(toy_separable_rows), model.vocabs)
        numeric = apply_normalizer(model.normalizer, raw)

        for i in range(6):
            brute = []
            for ci, cls in enumerate(clf.classes):
                n_c = np.sum(y == cls)
                log_post = math.log(n_c / y.size)
                for j in range(numeric.shape[1]):
                    sub = numeric[y == cls, j]
                    mu, var = sub.mean(), max(sub.var(), 1e-9)
                    log_post += (-0.5 * math.log(2 * math.pi * var)
                                 - (numeric[i, j] - mu) ** 2 / (2 * var))
                for j, vocab in enumerate(model.vocabs):
                    v = len(vocab)
                    count = np.sum(codes[y == cls, j] == codes[i, j])
                    log_post += math.log((count + 0.7) / (n_c + 0.7 * (v + 1)))
                brute.append(log_post)
            jll = clf.joint_log_likelihood(numeric[i:i + 1], codes[i:i + 1])[0]
            assert np.allclose(jll, brute, atol=1e-9)

    def test_rescaling_invariance_of_argmax(self, toy_separable_rows):
        spec = ModelSpec(kind="NB", hyperparameters={"smoothing": 0.5}, seed=0)
        model = train(spec, as_batches(toy_separable_rows))
        raw, codes, _ = _arrays(as_batches(toy_separable_rows), model.vocabs)
        numeric = apply_normalizer(model.normalizer, raw)
        jll = model.classifier.joint_log_likelihood(numeric, codes)
        # rescaling every likelihood by a positive constant shifts all
        # log-joints equally and cannot change the argmax
        assert np.array_equal(np.argmax(jll, axis=1), np.argmax(jll + math.log(7.3), axis=1))

    def test_unseen_category_uses_unknown_bucket(self, toy_separable_rows):
        spec = ModelSpec(kind="NB", hyperparameters={"smoothing": 0.5}, seed=0)
        model = train(spec, as_batches(toy_separable_rows))
        unseen = [make_row(delayed=1, state="NEVER_SEEN", features=(0.9, 0.5))]
        assert predict(model, as_batches(unseen)).shape == (1,)

    def test_single_class_constant_predictor(self, caplog):
        rows = [make_row(delayed=1, week=w, features=(w / 10, 0.5)) for w in range(1, 9)]
        with caplog.at_level("WARNING"):
            model = train(ModelSpec(kind="NB", hyperparameters={"smoothing": 0.5}),
                          as_batches(rows))
        assert "single-class training window" in caplog.text
        preds = predict(model, as_batches(rows))
        assert np.all(preds == 1)


class TestRandomForest:
    def test_degenerate_ensemble_equals_single_tree(self, toy_separable_rows):
        spec = ModelSpec(kind="RF", seed=4,
                         hyperparameters={"trees_count": 1, "predictors_per_split": 5})
        model = train(spec, as_batches(toy_separable_rows))
        window = as_batches(toy_separable_rows)
        raw, codes, y = _arrays(window, _vocabs(window))
        numeric = apply_normalizer(fit_normalizer(raw), raw)
        rng = np.random.default_rng([4, 0])
        idx = rng.integers(0, y.size, size=y.size)  # tree 0's bootstrap draw
        tree = DecisionTree(5, rng).fit(numeric[idx], codes[idx], y[idx])
        assert np.array_equal(predict(model, as_batches(toy_separable_rows)),
                              tree.predict(np.hstack([numeric, codes])))

    def test_training_determinism(self, toy_separable_rows):
        spec = ModelSpec(kind="RF", seed=11,
                         hyperparameters={"trees_count": 10, "predictors_per_split": 2})
        window = as_batches(toy_separable_rows)
        p1 = predict(train(spec, window), window)
        p2 = predict(train(spec, window), window)
        assert np.array_equal(p1, p2)

    def test_tree_order_invariance(self, toy_separable_rows):
        spec = ModelSpec(kind="RF", seed=2,
                         hyperparameters={"trees_count": 9, "predictors_per_split": 2})
        model = train(spec, as_batches(toy_separable_rows))
        before = predict(model, as_batches(toy_separable_rows))
        model.classifier.trees = model.classifier.trees[::-1]
        assert np.array_equal(before, predict(model, as_batches(toy_separable_rows)))

    def test_separable_accuracy(self, toy_separable_rows):
        spec = ModelSpec(kind="RF", seed=0,
                         hyperparameters={"trees_count": 15, "predictors_per_split": 2})
        model = train(spec, as_batches(toy_separable_rows))
        preds = predict(model, as_batches(toy_separable_rows))
        assert np.mean(preds == labels(toy_separable_rows)) >= 0.95

    def test_unseen_level_routes_to_majority_child(self):
        # only the destination state varies, so the root splits on it
        rows = ([make_row(delayed=1, state="AA") for _ in range(8)]
                + [make_row(delayed=0, state="BB") for _ in range(4)])
        spec = ModelSpec(kind="RF", seed=0,
                         hyperparameters={"trees_count": 1, "predictors_per_split": 5})
        model = train(spec, as_batches(rows))
        tree = model.classifier.trees[0]
        # the root's block of routes/seen flags; only categorical nodes own one
        block = slice(tree.route[0], tree.route[0] + tree.width)
        goes_left, seen = tree.routes[block], tree.seen[block]
        levels = {"left": np.flatnonzero(seen & goes_left).tolist(),
                  "right": np.flatnonzero(seen & ~goes_left).tolist()}
        # feature 3 follows the two numeric columns and the origin: the state
        assert (tree.route[0] < tree.routes.size - tree.width, tree.feature[0]) == (True, 3)
        majority, minority = ("left", "right") if tree.majority_left[0] else ("right", "left")
        state_of = {code: state for state, code in model.vocabs[1].items()}
        majority_state = state_of[levels[majority][0]]
        minority_state = state_of[levels[minority][0]]
        preds = predict(model, as_batches([make_row(state=s)
                                           for s in (majority_state, minority_state, "ZZZ")]))
        assert preds[0] != preds[1]
        assert preds[2] == preds[0]

    def test_mtry_exceeding_features_rejected(self, toy_separable_rows):
        spec = ModelSpec(kind="RF", seed=0,
                         hyperparameters={"trees_count": 2, "predictors_per_split": 50})
        with pytest.raises(ValueError, match="exceeds feature count"):
            train(spec, as_batches(toy_separable_rows))


class TestMLP:
    def test_separable_accuracy_and_determinism(self, toy_separable_rows):
        spec = ModelSpec(kind="MLP", seed=3,
                         hyperparameters={"hidden_neurons": 8, "learning_rate": 0.5,
                                          "epochs": 60})
        model = train(spec, as_batches(toy_separable_rows))
        preds = predict(model, as_batches(toy_separable_rows))
        assert np.mean(preds == labels(toy_separable_rows)) >= 0.95
        again = predict(train(spec, as_batches(toy_separable_rows)),
                        as_batches(toy_separable_rows))
        assert np.array_equal(preds, again)

    def test_loss_non_increasing_with_small_lr(self, toy_separable_rows):
        """The same seed draws the same permutations, so a fit of e epochs is
        the first e epochs of a longer fit: its loss is that fit's loss after
        epoch e."""
        n = len(toy_separable_rows)
        history = []
        for epochs in range(1, 21):
            spec = ModelSpec(kind="MLP", seed=5,
                             hyperparameters={"hidden_neurons": 4, "learning_rate": 0.05,
                                              "epochs": epochs, "batch_size": n})
            model = train(spec, as_batches(toy_separable_rows))
            raw, codes, y = _arrays(as_batches(toy_separable_rows), model.vocabs)
            X = np.hstack([apply_normalizer(model.normalizer, raw),
                           one_hot(codes, model.vocab_sizes)])
            history.append(model.classifier.loss(X, y.astype(float)))
        assert len(history) == 20
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(size=(5, 4))
        y = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        clf = MLP(hidden_neurons=3, learning_rate=0.1, epochs=1, seed=9)
        clf._init_params(4, np.random.default_rng(9))
        grads = clf.gradients(X, y)
        h = 1e-6
        worst = 0.0
        for name in ("W1", "b1", "W2", "b2"):
            param = getattr(clf, name)
            grad = grads[name].reshape(param.shape)
            it = np.nditer(param, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = param[idx]
                param[idx] = orig + h
                lp = clf.loss(X, y)
                param[idx] = orig - h
                lm = clf.loss(X, y)
                param[idx] = orig
                numeric = (lp - lm) / (2 * h)
                worst = max(worst, abs(numeric - grad[idx])
                            / max(1e-8, abs(numeric), abs(grad[idx])))
        assert worst < 1e-4

    def test_one_hot_unseen_is_zero_vector(self):
        codes = np.array([[0, 2], [1, 3]])  # second column code 3 == vocab size
        enc = one_hot(codes, [2, 3])
        assert enc.shape == (2, 5)
        assert enc[1, 2:].tolist() == [0.0, 0.0, 0.0]


class TestPredictContract:
    def test_empty_rows_empty_output(self, toy_separable_rows):
        model = train(ModelSpec(kind="NB", hyperparameters={"smoothing": 1.0}),
                      as_batches(toy_separable_rows))
        assert predict(model, []).size == 0
        assert predict(model, [Batch(2004, ())]).size == 0

    def test_train_requires_rows(self):
        with pytest.raises(ValueError):
            train(ModelSpec(kind="NB", hyperparameters={"smoothing": 1.0}), [])
        with pytest.raises(ValueError):
            train(ModelSpec(kind="NB", hyperparameters={"smoothing": 1.0}), [Batch(2003, ())])

    @pytest.mark.parametrize("kind,hp", [
        ("NB", {"smoothing": 0.5}),
        ("RF", {"trees_count": 3, "predictors_per_split": 2}),
        ("MLP", {"hidden_neurons": 4, "learning_rate": 0.3, "epochs": 3}),
    ])
    def test_classifier_predicts_empty_on_zero_rows(self, toy_separable_rows, kind, hp):
        window = as_batches(toy_separable_rows)
        model = train(ModelSpec(kind=kind, hyperparameters=hp, seed=1), window)
        raw, codes, _ = _arrays(window, model.vocabs)
        numeric = apply_normalizer(model.normalizer, raw)[:0]
        codes = codes[:0]
        if kind == "MLP":
            out = model.classifier.predict(np.hstack([numeric, one_hot(codes, model.vocab_sizes)]))
        else:
            out = model.classifier.predict(numeric, codes)
        assert out.shape == (0,)


class TestGridSearch:
    def test_grid_of_one(self, toy_separable_rows):
        best = grid_search_cv("NB", [{"smoothing": 0.25}], Batch(2003, tuple(toy_separable_rows)),
                              k=4)
        assert best.hyperparameters == {"smoothing": 0.25}

    def test_capacity_needed_wins(self):
        # XOR labeling cannot be represented by a single hidden unit
        rng = np.random.default_rng(10)
        rows = []
        for i in range(240):
            a, b = rng.uniform(size=2)
            y = int((a > 0.5) != (b > 0.5))
            rows.append(make_row(delayed=y, week=1 + i % 52, features=(a, b)))
        grid = [{"hidden_neurons": 1, "learning_rate": 3.0, "epochs": 120},
                {"hidden_neurons": 8, "learning_rate": 3.0, "epochs": 120}]
        best = grid_search_cv("MLP", grid, Batch(2003, tuple(rows)), k=3, seed=1)
        assert best.hyperparameters["hidden_neurons"] == 8

    def test_tie_breaks_toward_smaller_model(self, toy_separable_rows):
        # both settings classify the easy set perfectly -> smaller smoothing wins
        grid = [{"smoothing": 1.0}, {"smoothing": 0.1}]
        best = grid_search_cv("NB", grid, Batch(2003, tuple(toy_separable_rows)), k=4)
        assert best.hyperparameters == {"smoothing": 0.1}

    def test_fold_sizes(self):
        folds = np.array_split(np.arange(1000), 10)
        assert all(len(f) == 100 for f in folds)
        folds = np.array_split(np.arange(1003), 10)
        assert sorted({len(f) for f in folds}) == [100, 101]

    def test_empty_grid(self, toy_separable_rows):
        with pytest.raises(ValueError):
            grid_search_cv("NB", [], Batch(2003, tuple(toy_separable_rows)), k=3)

    def test_default_grids(self):
        assert default_grid("NB", 5) == [{"smoothing": s} for s in (0.1, 0.5, 1.0)]
        rf = default_grid("RF", 9)
        assert all(g["trees_count"] == 100 for g in rf)
        assert [g["predictors_per_split"] for g in rf] == [3, 5]  # sqrt(9)=3, 9/3=3 dedup, 9/2->5
        assert len(default_grid("NN", 5)) == 8


class TestMetrics:
    def test_direct_formula_case(self):
        m = compute_metrics(ConfusionCounts(tp=3, fp=1, fn=2, tn=4))
        assert m.accuracy == pytest.approx(0.7)
        assert m.precision == pytest.approx(0.75)
        assert m.recall == pytest.approx(0.6)
        assert m.f1 == pytest.approx(2.0 / 3.0)

    def test_perfect_prediction(self):
        m = compute_metrics(ConfusionCounts(tp=5, fp=0, fn=0, tn=15))
        assert (m.accuracy, m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0, 1.0)

    def test_all_negative_predictor_on_20pct_positive(self):
        m = compute_metrics(ConfusionCounts(tp=0, fp=0, fn=4, tn=16))
        assert m.accuracy == pytest.approx(0.8)
        assert m.precision is None
        assert m.recall == 0.0
        assert m.f1 is None

    def test_all_zero_counts_error(self):
        with pytest.raises(ValueError):
            compute_metrics(ConfusionCounts(tp=0, fp=0, fn=0, tn=0))

    def test_f1_is_harmonic_mean_when_defined(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            c = ConfusionCounts(*(int(v) for v in rng.integers(0, 8, size=4)))
            if c.total == 0:
                continue
            m = compute_metrics(c)
            if m.precision is not None and m.recall is not None and m.precision + m.recall > 0:
                assert m.f1 == pytest.approx(
                    2 * m.precision * m.recall / (m.precision + m.recall))

    def test_majority_class_accuracy_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            pos = int(rng.integers(0, 30))
            neg = int(rng.integers(1, 30))
            majority_is_positive = pos > neg
            if majority_is_positive:
                c = ConfusionCounts(tp=pos, fp=neg, fn=0, tn=0)
            else:
                c = ConfusionCounts(tp=0, fp=0, fn=pos, tn=neg)
            assert compute_metrics(c).accuracy == pytest.approx(max(pos, neg) / (pos + neg))

    def test_confusion_from_predictions(self):
        c = confusion_from_predictions([1, 1, 0, 0, 1], [1, 0, 0, 1, 1])
        assert (c.tp, c.fp, c.fn, c.tn) == (2, 1, 1, 1)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(tp=-1, fp=0, fn=0, tn=0)


class TestSerialization:
    @pytest.mark.parametrize("kind,hp,single_class", [
        pytest.param("NB", {"smoothing": 0.5}, False, id="NB-hp0"),
        pytest.param("RF", {"trees_count": 7, "predictors_per_split": 2}, False, id="RF-hp1"),
        pytest.param("MLP", {"hidden_neurons": 6, "learning_rate": 0.3, "epochs": 15}, False,
                     id="MLP-hp2"),
        pytest.param("RF", {"trees_count": 3, "predictors_per_split": 2, "max_depth": 1}, False,
                     id="RF-max_depth_1"),
        # every tree is one leaf, and no tree has a categorical block
        pytest.param("RF", {"trees_count": 3, "predictors_per_split": 2}, True,
                     id="RF-single_class"),
    ])
    def test_round_trip_predictions(self, tmp_path, toy_separable_rows, kind, hp, single_class):
        spec = ModelSpec(kind=kind, hyperparameters=hp, seed=6)
        window = [r for r in toy_separable_rows if r.delayed == 0] if single_class \
            else toy_separable_rows
        model = train(spec, as_batches(window))
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.spec == model.spec
        # the int week codes come back as ints, the state codes as strings
        assert loaded.vocabs == model.vocabs
        assert np.array_equal(predict(model, as_batches(toy_separable_rows)),
                              predict(loaded, as_batches(toy_separable_rows)))
        with np.load(path, allow_pickle=False) as archive:
            header = json.loads(archive["header"].item())
        assert (header["format"], header["version"]) == ("driftlab-model", 3)
        sizes = [tree.value.size for tree in getattr(loaded.classifier, "trees", [])]
        if single_class:
            assert sizes == [1, 1, 1]
        elif "max_depth" in hp:
            assert max(sizes) == 3

    @pytest.mark.parametrize("kind,hp", [
        ("NB", {"smoothing": 0.5}),
        ("RF", {"trees_count": 3, "predictors_per_split": 2}),
        ("MLP", {"hidden_neurons": 4, "learning_rate": 0.3, "epochs": 5}),
    ])
    def test_two_saves_give_identical_bytes(self, tmp_path, toy_separable_rows, monkeypatch,
                                            kind, hp):
        """The model store names an object by the sha256 of its bytes, so a
        model gives the same bytes whenever it is saved."""
        model = train(ModelSpec(kind=kind, hyperparameters=hp, seed=6),
                      as_batches(toy_separable_rows))
        save_model(model, tmp_path / "first.npz")
        a_year_later = time.time() + 366 * 86400
        monkeypatch.setattr(time, "time", lambda: a_year_later)
        save_model(model, tmp_path / "second.npz")
        first = (tmp_path / "first.npz").read_bytes()
        assert (tmp_path / "second.npz").read_bytes() == first
        assert model_bytes(load_model(tmp_path / "first.npz")) == first

    def test_refuses_format_version_1(self, tmp_path):
        path = tmp_path / "v1.json"
        path.write_text(json.dumps({"format": "driftlab-model", "version": 1}))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_model(path)

    def test_refuses_format_2_json_and_an_npz_without_header(self, tmp_path):
        v2 = tmp_path / "v2.json"
        v2.write_text(json.dumps({"format": "driftlab-model", "version": 2, "payload": {}}))
        headerless = tmp_path / "headerless.npz"
        np.savez(headerless, W1=np.zeros((2, 2)))
        old_header = tmp_path / "old_header.npz"
        np.savez(old_header, header=np.array(json.dumps({"format": "driftlab-model",
                                                         "version": 2})))
        empty = tmp_path / "empty.npz"
        empty.write_bytes(b"")
        for path in (v2, headerless, old_header, empty):
            with pytest.raises(ValueError, match=re.escape(str(path))):
                load_model(path)

    def test_loading_never_unpickles(self, tmp_path, toy_separable_rows, monkeypatch):
        def no_unpickling(*args, **kwargs):
            raise AssertionError("unpickled")
        monkeypatch.setattr(pickle, "load", no_unpickling)
        monkeypatch.setattr(pickle, "loads", no_unpickling)
        model = train(ModelSpec(kind="NB", hyperparameters={"smoothing": 0.5}),
                      as_batches(toy_separable_rows))
        pickled = tmp_path / "model.pkl"
        pickled.write_bytes(pickle.dumps(model))
        with pytest.raises(ValueError, match=re.escape(str(pickled))):
            load_model(pickled)
        # a format 3 header over an object array
        save_model(model, tmp_path / "model.npz")
        with np.load(tmp_path / "model.npz", allow_pickle=False) as archive:
            members = {name: archive[name] for name in archive.files}
        members["vocab.0"] = np.array(list(model.vocabs[0]), dtype=object)
        objects = tmp_path / "objects.npz"
        np.savez(objects, **members)
        with pytest.raises(ValueError, match=re.escape(str(objects)) + ".*vocab.0"):
            load_model(objects)

    def test_missing_member_names_the_file(self, tmp_path, toy_separable_rows):
        """A format 3 header whose member is missing: tree 2's routes under
        a header of three trees."""
        model = train(ModelSpec(kind="RF", hyperparameters={"trees_count": 3,
                                                            "predictors_per_split": 2}),
                      as_batches(toy_separable_rows))
        save_model(model, tmp_path / "model.npz")
        with np.load(tmp_path / "model.npz", allow_pickle=False) as archive:
            members = {name: archive[name] for name in archive.files if name != "tree.2.routes"}
        missing = tmp_path / "missing.npz"
        np.savez(missing, **members)
        with pytest.raises(ValueError, match=re.escape(str(missing)) + ".*tree.2.routes"):
            load_model(missing)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError):
            load_model(path)
