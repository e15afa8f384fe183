"""Classifiers for the delay prediction task, trained per window: Gaussian /
categorical Naive Bayes, a random forest of CART trees, and a single-hidden-
layer MLP, plus confusion metrics and k-fold grid search.

All three are seeded and deterministic given (spec, batches): train and
predict take a window as a sequence of yearly windowing.Batch of one
windowing.RowTable. Categorical features (origin airport, destination
state, week number) are handled natively: NB keeps a smoothed unknown
bucket, forest splits route unseen levels to the majority child, the MLP
one-hot encodes with unseen levels as the zero vector.
"""

from __future__ import annotations

import io
import json
import logging
import math
import os
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .ingest import CAT_COLUMNS, Normalizer, apply_normalizer, fit_normalizer
from .special import sigmoid
from .windowing import Batch, RowTable

log = logging.getLogger(__name__)

KIND_NB = "NB"
KIND_RF = "RF"
KIND_MLP = "MLP"
MODEL_KINDS = (KIND_NB, KIND_RF, KIND_MLP)
# Alias used in experiment grids/configs for the multilayer perceptron.
KIND_ALIASES = {"NN": KIND_MLP}

_VAR_FLOOR = 1e-9
_PROB_EPS = 1e-12

MODEL_FORMAT = "driftlab-model"
MODEL_FORMAT_VERSION = 3


def canonical_kind(kind: str) -> str:
    kind = kind.upper()
    kind = KIND_ALIASES.get(kind, kind)
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown classifier kind {kind!r}")
    return kind


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _is_positive(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value) and value > 0)


_COUNT = ("an int >= 1", _is_count)
_DEPTH = ("an int >= 1 or None", lambda value: value is None or _is_count(value))
_POSITIVE = ("a finite number > 0", _is_positive)

# kind -> (required, optional) hyperparameters, each with the (rule, check) of
# its value: exactly the keyword arguments of the kind's classifier (see
# _classifier), whose defaults fill in an optional one.
_HYPERPARAMETERS = {
    KIND_NB: ({"smoothing": _POSITIVE}, {}),
    KIND_RF: ({"trees_count": _COUNT, "predictors_per_split": _COUNT}, {"max_depth": _DEPTH}),
    KIND_MLP: ({"hidden_neurons": _COUNT, "learning_rate": _POSITIVE, "epochs": _COUNT},
               {"batch_size": _COUNT}),
}


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    hyperparameters: dict
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "kind", canonical_kind(self.kind))
        required, optional = _HYPERPARAMETERS[self.kind]
        missing = [k for k in required if k not in self.hyperparameters]
        if missing:
            raise ValueError(f"{self.kind} spec is missing hyperparameters: {missing}")
        rules = {**required, **optional}
        unknown = sorted(set(self.hyperparameters) - set(rules))
        if unknown:
            raise ValueError(f"{self.kind} spec has hyperparameters it does not read: {unknown}")
        for key, value in self.hyperparameters.items():
            rule, valid = rules[key]
            if not valid(value):
                raise ValueError(f"{self.kind} hyperparameter {key} must be {rule}, got {value!r}")


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class Metrics:
    """accuracy, precision, recall, f1 in [0, 1]; a None field marks an
    undefined metric (zero denominator), never silently 0."""
    accuracy: float
    precision: float | None
    recall: float | None
    f1: float | None


def confusion_from_predictions(y_true, y_pred) -> ConfusionCounts:
    yt = np.asarray(y_true, dtype=int)
    yp = np.asarray(y_pred, dtype=int)
    if yt.shape != yp.shape:
        raise ValueError("prediction/label length mismatch")
    return ConfusionCounts(
        tp=int(np.sum((yt == 1) & (yp == 1))),
        fp=int(np.sum((yt == 0) & (yp == 1))),
        fn=int(np.sum((yt == 1) & (yp == 0))),
        tn=int(np.sum((yt == 0) & (yp == 0))),
    )


def compute_metrics(c: ConfusionCounts) -> Metrics:
    """accuracy (TP+TN)/(P+N), precision TP/(TP+FP), recall TP/(TP+FN),
    f1 = 2PR/(P+R); precision/recall are undefined on empty denominators and
    f1 is undefined whenever either of them is. When both are defined and
    zero, f1 is reported as 0.0 (the 2TP/(2TP+FP+FN) limit)."""
    if c.total == 0:
        raise ValueError("cannot compute metrics on all-zero confusion counts")
    accuracy = (c.tp + c.tn) / c.total
    precision = c.tp / (c.tp + c.fp) if (c.tp + c.fp) > 0 else None
    recall = c.tp / (c.tp + c.fn) if (c.tp + c.fn) > 0 else None
    if precision is None or recall is None:
        f1 = None
    elif precision + recall == 0.0:
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return Metrics(accuracy=accuracy, precision=precision, recall=recall, f1=f1)


# ---------------------------------------------------------------------------
# A window's arrays, gathered from its batches' row table
# ---------------------------------------------------------------------------

def _window_arrays(batches, vocabs: tuple[dict, ...] | None = None
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[dict, ...]]:
    """The raw numeric matrix, level codes and int labels of the batches'
    rows, in order, and the vocabularies that coded them: by default
    (train), each column's table levels that the window has, in the table's
    order (sorted by str). A level missing from a vocabulary gets its size.
    The batches must come from one table."""
    table = batches[0].table
    if any(b.table is not table for b in batches):
        raise ValueError("a window's batches come from different row tables")
    index = np.concatenate([b.index for b in batches])
    if vocabs is None:
        vocabs = tuple({levels[code]: i for i, code in enumerate(np.unique(col[index]))}
                       for levels, col in zip(table.levels, table.codes))
    codes = np.empty((index.size, len(vocabs)), dtype=int)
    for j, (levels, col, vocab) in enumerate(zip(table.levels, table.codes, vocabs)):
        lookup = np.fromiter(map(vocab.get, levels, repeat(len(vocab))), dtype=int,
                             count=len(levels))
        codes[:, j] = lookup[col[index]]
    return table.features[index], codes, table.delayed[index], vocabs


# ---------------------------------------------------------------------------
# Naive Bayes: Gaussian numerics + smoothed categorical tables
# ---------------------------------------------------------------------------

class NaiveBayes:
    def __init__(self, smoothing: float):
        self.smoothing = float(smoothing)
        self.classes: np.ndarray | None = None
        self.log_priors: np.ndarray | None = None
        self.means: np.ndarray | None = None
        self.variances: np.ndarray | None = None
        self.cat_log_probs: list[np.ndarray] = []

    def fit(self, numeric: np.ndarray, codes: np.ndarray, y: np.ndarray,
            vocab_sizes: list[int]) -> "NaiveBayes":
        self.classes, counts = np.unique(y, return_counts=True)
        self.log_priors = np.log(counts / y.size)
        n_classes = self.classes.size
        k = numeric.shape[1]
        self.means = np.zeros((n_classes, k))
        self.variances = np.ones((n_classes, k))
        self.cat_log_probs = []
        for ci, cls in enumerate(self.classes):
            sub = numeric[y == cls]
            if k:
                self.means[ci] = sub.mean(axis=0)
                self.variances[ci] = np.maximum(sub.var(axis=0), _VAR_FLOOR)
        for j, v_size in enumerate(vocab_sizes):
            # one extra bucket for levels unseen at fit time
            table = np.zeros((n_classes, v_size + 1))
            for ci, cls in enumerate(self.classes):
                col = codes[y == cls, j]
                table[ci] = np.bincount(col, minlength=v_size + 1)
            smoothed = table + self.smoothing
            self.cat_log_probs.append(np.log(smoothed / smoothed.sum(axis=1, keepdims=True)))
        return self

    def joint_log_likelihood(self, numeric: np.ndarray, codes: np.ndarray) -> np.ndarray:
        n = numeric.shape[0]
        jll = np.tile(self.log_priors, (n, 1))
        if numeric.shape[1]:
            for ci in range(self.classes.size):
                var = self.variances[ci]
                ll = -0.5 * (np.log(2.0 * math.pi * var)
                             + (numeric - self.means[ci]) ** 2 / var)
                jll[:, ci] += ll.sum(axis=1)
        for j, table in enumerate(self.cat_log_probs):
            col = np.minimum(codes[:, j], table.shape[1] - 1)
            jll += table[:, col].T
        return jll

    def predict(self, numeric: np.ndarray, codes: np.ndarray) -> np.ndarray:
        jll = self.joint_log_likelihood(numeric, codes)
        return self.classes[np.argmax(jll, axis=1)]


# ---------------------------------------------------------------------------
# CART decision tree + random forest
# ---------------------------------------------------------------------------

def _gini_split_cost(n_left, pos_left, n_right, pos_right):
    """Total weighted Gini impurity of candidate children pairs (vectorized);
    every candidate has rows on both sides."""
    pl = pos_left / n_left
    pr = pos_right / n_right
    gini_l = 2.0 * pl * (1.0 - pl)
    gini_r = 2.0 * pr * (1.0 - pr)
    return n_left * gini_l + n_right * gini_r


class DecisionTree:
    """Binary CART with Gini splits; numeric thresholds plus exact binary
    categorical subset splits via the positive-rate ordering trick.

    The tree is flat node arrays in depth-first order, node 0 the root, as
    in scikit-learn's ``Tree``. ``feature`` indexes the numeric columns and
    then the categorical ones, ``children`` holds the left and right child
    indices (-1 at a leaf) and ``value`` a leaf's label (-1 at an inner
    node). A numeric node sends a value left when it is <= ``threshold``
    (-inf off numeric nodes). ``routes`` holds one block of ``width`` flags
    per categorical node, starting at ``route[node]``: flag c sends level
    code c left. Codes absent from the node in training, and the block's
    last entry, which takes every code past it (levels unseen in training),
    go to the side ``majority_left`` names, the child that got most of the
    node's training rows; ``seen`` marks the codes that were present. Every
    other node points at a final all-False block.
    """

    def __init__(self, predictors_per_split: int, rng: np.random.Generator | None,
                 max_depth: int | None = None):
        """rng makes fit's draws; a tree loaded from a file has none."""
        self.mtry = predictors_per_split
        self.rng = rng
        self.max_depth = max_depth

    def fit(self, numeric: np.ndarray, codes: np.ndarray, y: np.ndarray) -> "DecisionTree":
        n_features = numeric.shape[1] + codes.shape[1]
        if self.mtry > n_features:
            raise ValueError(f"predictors_per_split {self.mtry} exceeds feature count {n_features}")
        self._set_nodes(_Grower(self, numeric, codes, y).nodes)
        return self

    def _set_nodes(self, nodes: list) -> None:
        """Node rows [feature, threshold, majority_left, left, right, value,
        left_levels, right_levels] (levels None off categorical nodes) to
        the node arrays."""
        (feature, threshold, majority_left, left, right, value,
         left_levels, right_levels) = zip(*nodes)
        self.feature = np.array(feature, dtype=np.intp)
        self.threshold = np.array(threshold, dtype=float)
        self.majority_left = np.array(majority_left, dtype=bool)
        self.children = np.array([left, right], dtype=np.intp).T.copy()
        self.value = np.array(value, dtype=int)
        cat = [i for i, levels in enumerate(left_levels) if levels is not None]
        self.width = 2 + max((max(max(left_levels[i]), max(right_levels[i])) for i in cat),
                             default=-1)
        self.route = np.full(len(nodes), len(cat) * self.width, dtype=np.intp)
        routes = np.zeros((len(cat) + 1, self.width), dtype=bool)
        seen = np.zeros_like(routes)
        for r, i in enumerate(cat):
            self.route[i] = r * self.width
            routes[r] = majority_left[i]
            routes[r, left_levels[i]] = True
            routes[r, right_levels[i]] = False
            seen[r, left_levels[i]] = True
            seen[r, right_levels[i]] = True
        self.routes = routes.ravel()
        self.seen = seen.ravel()

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Labels of the rows of X (numeric columns, then level codes): all
        rows go down the tree together, one level per step."""
        out = np.empty(X.shape[0], dtype=int)
        rows = np.arange(X.shape[0])
        node = np.zeros(X.shape[0], dtype=np.intp)
        children = self.children.ravel()  # node's left child at 2 * node, right at 2 * node + 1
        # a NaN numeric value casts to no code; it indexes the all-False block
        with np.errstate(invalid="ignore"):
            while rows.size:
                label = self.value[node]
                at_leaf = label >= 0
                if at_leaf.any():
                    leaf = at_leaf.nonzero()[0]
                    out[rows[leaf]] = label[leaf]
                    inner = (~at_leaf).nonzero()[0]
                    rows, node = rows[inner], node[inner]
                x = X[rows, self.feature[node]]
                code = np.clip(x.astype(np.intp), 0, self.width - 1)
                go_left = (x <= self.threshold[node]) | self.routes[self.route[node] + code]
                node = children[2 * node + ~go_left]
        return out


def _leaf_node(value: int) -> list:
    return [-1, -math.inf, False, -1, -1, value, None, None]


class _Grower:
    """Grows one tree depth first, left child first, with one predictor
    draw per splittable node.

    Each numeric column is sorted once (stably) for the whole sample; a node
    gets, per numeric column, its rows in that order, plus its rows in sample
    order as the last line of the same matrix. A stable sort of a node's rows
    is the subsequence of the sample's stable sort, so every candidate list,
    cumsum and argmin tie is what sorting the node itself would give.
    """

    def __init__(self, tree: DecisionTree, numeric: np.ndarray, codes: np.ndarray,
                 y: np.ndarray):
        self.rng = tree.rng
        self.mtry = tree.mtry
        self.max_depth = tree.max_depth
        self.n_numeric = numeric.shape[1]
        self.n_features = self.n_numeric + codes.shape[1]
        # feature f's values: numeric columns, then level codes
        self.columns = [column.copy() for column in numeric.T] + [col.copy() for col in codes.T]
        self.y = y
        self.in_left = np.zeros(y.size, dtype=bool)
        order = np.empty((self.n_numeric + 1, y.size), dtype=np.intp)
        for f in range(self.n_numeric):
            order[f] = np.argsort(self.columns[f], kind="mergesort")
        order[-1] = np.arange(y.size)
        self.nodes: list = []
        self.grow(order, int(y.sum()), depth=0)

    def grow(self, order: np.ndarray, pos: int, depth: int) -> int:
        """Grow the node whose rows `order` holds (pos of them positive) and
        its subtree; returns the node's index."""
        node = len(self.nodes)
        n = order.shape[1]
        split = None
        if 0 < pos < n and (self.max_depth is None or depth < self.max_depth):
            split = self.best_split(order, pos)
        if split is None:
            self.nodes.append(_leaf_node(int(2 * pos >= n)))
            return node
        f, threshold, left_rows, left_pos, left_levels, right_levels = split
        n_left = left_rows.size
        row = [f, threshold, n_left * 2 >= n, -1, -1, -1, left_levels, right_levels]
        self.nodes.append(row)
        self.in_left[left_rows] = True
        goes_left = self.in_left[order]
        self.in_left[left_rows] = False
        row[3] = self.grow(order[goes_left].reshape(-1, n_left), left_pos, depth + 1)
        row[4] = self.grow(order[~goes_left].reshape(-1, n - n_left), pos - left_pos, depth + 1)
        return node

    def best_split(self, order: np.ndarray, pos: int):
        """(feature, threshold, left rows, left positives, left levels,
        right levels) of the cheapest split over one draw of features, or
        None when no split lowers the node's Gini cost."""
        features = self.rng.choice(self.n_features, size=self.mtry, replace=False).tolist()
        cands = [(f, *(self.numeric_candidates(order[f], f) if f < self.n_numeric
                       else self.categorical_candidates(order[-1], f)))
                 for f in features]
        cands = [c for c in cands if c[1] is not None]
        if not cands:
            return None
        # every candidate costed in one call; counts are exact in float64, so
        # the costs equal those of integer inputs
        n = order.shape[1]
        n_left = np.concatenate([c[1] for c in cands], dtype=float)
        pos_left = np.concatenate([c[2] for c in cands], dtype=float)
        cost = _gini_split_cost(n_left, pos_left, n - n_left, pos - pos_left)
        starts = [0]
        for c in cands:
            starts.append(starts[-1] + c[1].size)
        best = np.minimum.reduceat(cost, starts[:-1])
        # the first feature drawn among those reaching the lowest cost wins
        w = int(best.argmin())
        p1 = pos / n
        if best[w] >= n * 2.0 * p1 * (1.0 - p1):
            return None
        f, _, _, finish = cands[w]
        return (f, *finish(int(cost[starts[w]:starts[w + 1]].argmin())))

    def numeric_candidates(self, rows: np.ndarray, f: int):
        """(left sizes, left positives, finish) of the thresholds between
        distinct values of column f; rows: the node's rows in f's order."""
        v = self.columns[f][rows]
        distinct = (v[1:] > v[:-1]).nonzero()[0]  # split after position i
        if distinct.size == 0:
            return None, None, None
        cum_pos = self.y[rows].cumsum()

        def finish(i):
            thr = 0.5 * (v[distinct[i]] + v[distinct[i] + 1])
            # the rows with v <= thr: a prefix, also where thr rounds to v's next value
            p = int(v.searchsorted(thr, side="right"))
            return float(thr), rows[:p], int(cum_pos[p - 1]), None, None

        return distinct + 1, cum_pos[distinct], finish

    def categorical_candidates(self, rows: np.ndarray, f: int):
        """(left sizes, left positives, finish) of the level subsets that
        take the levels present at the node in order of positive rate;
        rows: the node's rows in sample order."""
        col = self.columns[f][rows]
        counts = np.bincount(col)
        levels = counts.nonzero()[0]
        if levels.size < 2:
            return None, None, None
        n_per = counts[levels]
        pos_per = np.bincount(col, weights=self.y[rows])[levels]
        by_rate = (pos_per / n_per).argsort(kind="mergesort")
        cum_n = n_per[by_rate].cumsum()[:-1]
        cum_pos = pos_per[by_rate].cumsum()[:-1]

        def finish(i):
            left_levels = levels[by_rate[:i + 1]]
            goes_left = np.zeros(counts.size, dtype=bool)
            goes_left[left_levels] = True
            return (-math.inf, rows[goes_left[col]], int(cum_pos[i]),
                    left_levels, levels[by_rate[i + 1:]])

        return cum_n, cum_pos, finish


class RandomForest:
    """Trees grown on bootstrap draws: tree t draws its sample and then one
    predictor subset per splittable node from default_rng([seed, t])."""

    def __init__(self, trees_count: int, predictors_per_split: int, seed: int,
                 max_depth: int | None = None):
        self.trees_count = trees_count
        self.mtry = predictors_per_split
        self.seed = seed
        self.max_depth = max_depth
        self.trees: list[DecisionTree] = []

    def fit(self, numeric: np.ndarray, codes: np.ndarray, y: np.ndarray) -> "RandomForest":
        self.trees = []
        n = y.size
        for t in range(self.trees_count):
            rng = np.random.default_rng([self.seed, t])
            idx = rng.integers(0, n, size=n)
            tree = DecisionTree(self.mtry, rng, self.max_depth)
            tree.fit(numeric[idx], codes[idx], y[idx])
            self.trees.append(tree)
        return self

    def predict(self, numeric: np.ndarray, codes: np.ndarray) -> np.ndarray:
        X = np.hstack([numeric, codes])
        votes = np.zeros(numeric.shape[0])
        for tree in self.trees:
            votes += tree.predict(X)
        return (2 * votes >= len(self.trees)).astype(int)


# ---------------------------------------------------------------------------
# Multilayer perceptron (one logistic hidden layer, BCE, mini-batch GD)
# ---------------------------------------------------------------------------

class MLP:
    def __init__(self, hidden_neurons: int, learning_rate: float, epochs: int,
                 seed: int, batch_size: int = 32):
        self.hidden = hidden_neurons
        self.lr = float(learning_rate)
        self.epochs = epochs
        self.seed = seed
        self.batch_size = batch_size
        self.W1 = self.b1 = self.W2 = self.b2 = None

    def _init_params(self, n_inputs: int, rng: np.random.Generator):
        self.W1 = rng.normal(0.0, 1.0 / math.sqrt(max(n_inputs, 1)), size=(n_inputs, self.hidden))
        self.b1 = np.zeros(self.hidden)
        self.W2 = rng.normal(0.0, 1.0 / math.sqrt(self.hidden), size=(self.hidden, 1))
        self.b2 = np.zeros(1)

    def _forward(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        h = sigmoid(X @ self.W1 + self.b1)
        p = sigmoid(h @ self.W2 + self.b2).ravel()
        return h, p

    def loss(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean binary cross-entropy: the objective that `gradients`
        differentiates, evaluated by the finite-difference checks."""
        _, p = self._forward(X)
        p = np.clip(p, _PROB_EPS, 1.0 - _PROB_EPS)
        return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))

    def gradients(self, X: np.ndarray, y: np.ndarray) -> dict:
        """Analytic gradients of `loss` w.r.t. all four parameter arrays."""
        n = X.shape[0]
        h, p = self._forward(X)
        delta_out = ((p - y) / n)[:, None]          # d loss / d z2
        grad_W2 = h.T @ delta_out
        grad_b2 = delta_out.sum(axis=0)
        delta_h = (delta_out @ self.W2.T) * h * (1.0 - h)
        grad_W1 = X.T @ delta_h
        grad_b1 = delta_h.sum(axis=0)
        return {"W1": grad_W1, "b1": grad_b1, "W2": grad_W2, "b2": grad_b2}

    def fit(self, X: np.ndarray, y: np.ndarray) -> "MLP":
        rng = np.random.default_rng(self.seed)
        self._init_params(X.shape[1], rng)
        y = y.astype(float)
        n = X.shape[0]
        for _ in range(self.epochs):
            order = rng.permutation(n)
            for start in range(0, n, self.batch_size):
                batch = order[start:start + self.batch_size]
                grads = self.gradients(X[batch], y[batch])
                self.W1 -= self.lr * grads["W1"]
                self.b1 -= self.lr * grads["b1"]
                self.W2 -= self.lr * grads["W2"]
                self.b2 -= self.lr * grads["b2"]
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        _, p = self._forward(X)
        return (p >= 0.5).astype(int)


def one_hot(codes: np.ndarray, vocab_sizes: list[int]) -> np.ndarray:
    """Concatenated one-hot blocks per categorical column; an unseen level
    (code == vocab size) encodes as the zero vector of its block."""
    n = codes.shape[0]
    blocks = []
    for j, v in enumerate(vocab_sizes):
        block = np.zeros((n, v))
        col = codes[:, j]
        seen = col < v
        block[np.nonzero(seen)[0], col[seen]] = 1.0
        blocks.append(block)
    return np.hstack(blocks) if blocks else np.zeros((n, 0))


# ---------------------------------------------------------------------------
# TrainedModel facade
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class TrainedModel:
    """A fitted classifier with what predict needs to encode rows for it.
    It compares and hashes by identity, so it can key a memo."""
    spec: ModelSpec
    classifier: object
    normalizer: Normalizer
    vocabs: tuple[dict, ...]

    @property
    def vocab_sizes(self) -> list[int]:
        return [len(v) for v in self.vocabs]


def feature_count(table: RowTable) -> int:
    """Predictor count as seen by the forest: the table's numeric features
    plus one per categorical column."""
    if not len(table):
        raise ValueError("feature_count requires at least one row")
    return table.features.shape[1] + len(CAT_COLUMNS)


def _classifier(spec: ModelSpec):
    """The spec's unfitted classifier: its hyperparameters are the
    constructor's keyword arguments, and the forest and MLP take its seed."""
    if spec.kind == KIND_NB:
        return NaiveBayes(**spec.hyperparameters)
    cls = RandomForest if spec.kind == KIND_RF else MLP
    return cls(seed=spec.seed, **spec.hyperparameters)


def train(spec: ModelSpec, batches) -> TrainedModel:
    """Fit the spec'd classifier on the rows of the batches (a sequence of
    windowing.Batch): refit the min-max normalizer on this window, encode
    categories from this window's vocabularies, then fit. Single-class
    windows are allowed but flagged (NB/RF degenerate to a constant
    predictor)."""
    batches = [b for b in batches if not b.is_empty]
    if not batches:
        raise ValueError("train requires a non-empty training window")
    raw, codes, y, vocabs = _window_arrays(batches)
    normalizer = fit_normalizer(raw)
    numeric = apply_normalizer(normalizer, raw)
    vocab_sizes = [len(v) for v in vocabs]

    if np.unique(y).size < 2:
        log.warning("train: single-class training window (all delayed=%d); "
                    "model degenerates to a constant predictor", int(y[0]))

    clf = _classifier(spec)
    if spec.kind == KIND_NB:
        clf.fit(numeric, codes, y, vocab_sizes)
    elif spec.kind == KIND_RF:
        clf.fit(numeric, codes, y)
    else:
        clf.fit(np.hstack([numeric, one_hot(codes, vocab_sizes)]), y)
    return TrainedModel(spec=spec, classifier=clf, normalizer=normalizer, vocabs=vocabs)


def predict(model: TrainedModel, batches) -> np.ndarray:
    """One {0,1} label per row of the batches (a sequence of
    windowing.Batch), in order; deterministic; no rows give empty output."""
    batches = [b for b in batches if not b.is_empty]
    if not batches:
        return np.zeros(0, dtype=int)
    raw, codes, _, _ = _window_arrays(batches, model.vocabs)
    numeric = apply_normalizer(model.normalizer, raw)
    if model.spec.kind == KIND_MLP:
        X = np.hstack([numeric, one_hot(codes, model.vocab_sizes)])
        return model.classifier.predict(X)
    return model.classifier.predict(numeric, codes)


# ---------------------------------------------------------------------------
# Grid search with k-fold cross-validation
# ---------------------------------------------------------------------------

def default_grid(kind: str, n_features: int) -> list[dict]:
    kind = canonical_kind(kind)
    if kind == KIND_NB:
        return [{"smoothing": s} for s in (0.1, 0.5, 1.0)]
    if kind == KIND_RF:
        p = max(1, n_features)
        mtries = []
        for m in (math.ceil(math.sqrt(p)), math.ceil(p / 3), math.ceil(p / 2)):
            m = min(max(1, m), p)
            if m not in mtries:
                mtries.append(m)
        return [{"trees_count": 100, "predictors_per_split": m} for m in mtries]
    return [{"hidden_neurons": h, "learning_rate": lr, "epochs": 50}
            for h in (4, 8, 16, 32) for lr in (0.01, 0.1)]


def _size_key(kind: str, hp: dict) -> tuple:
    if kind == KIND_NB:
        return (hp["smoothing"],)
    if kind == KIND_RF:
        return (hp["predictors_per_split"], hp["trees_count"])
    return (hp["hidden_neurons"], hp["learning_rate"], hp["epochs"])


def grid_search_cv(kind: str, grid: list[dict], batch: Batch, k: int,
                   seed: int = 0) -> ModelSpec:
    """Pick the grid point with the best mean k-fold CV accuracy over the
    batch's rows; ties break toward the smaller model (fewer neurons / fewer
    predictors / smaller smoothing). Each fold's training and validation
    rows are one batch each, index subsets of the batch's table made once
    for the whole search; the normalizer is refit inside every fold."""
    kind = canonical_kind(kind)
    if not grid:
        raise ValueError("hyperparameter grid is empty")
    if k < 2:
        raise ValueError("cross-validation needs k >= 2 folds")
    if len(batch) < k:
        raise ValueError(f"{len(batch)} rows cannot fill {k} folds")
    rng = np.random.default_rng(seed)
    folds = np.array_split(batch.index[rng.permutation(len(batch))], k)
    splits = [(Batch(batch.year, batch.table,
                     np.concatenate([folds[g] for g in range(k) if g != f])),
               Batch(batch.year, batch.table, folds[f]))
              for f in range(k)]

    best_hp = None
    best_acc = -1.0
    for hp in sorted(grid, key=lambda h: _size_key(kind, h)):
        accs = []
        for fit, val in splits:
            model = train(ModelSpec(kind=kind, hyperparameters=hp, seed=seed), (fit,))
            preds = predict(model, (val,))
            accs.append(float(np.mean(preds == val.labels)))
        mean_acc = float(np.mean(accs))
        if mean_acc > best_acc:
            best_acc = mean_acc
            best_hp = hp
    log.info("grid_search_cv(%s): best %s with CV accuracy %.4f", kind, best_hp, best_acc)
    return ModelSpec(kind=kind, hyperparameters=best_hp, seed=seed)


# ---------------------------------------------------------------------------
# Serialization (versioned npz of the fitted arrays)
# ---------------------------------------------------------------------------

_TREE_ARRAYS = ("feature", "threshold", "majority_left", "children", "value", "route",
                "routes", "seen")
_FITTED_ARRAYS = {KIND_NB: ("classes", "log_priors", "means", "variances"),
                  KIND_MLP: ("W1", "b1", "W2", "b2")}


def model_bytes(model: TrainedModel) -> bytes:
    """The model file: an np.savez_compressed archive. Its header member is
    a JSON string of the format, version, spec and each tree's width; the
    others are the normalizer's arrays, each vocabulary in code order, and
    the classifier's fitted arrays under their attribute names (per tree
    "tree.<i>.<name>", per NB table "cat_log_probs.<j>"). The archive's
    entries carry a fixed date, so one model always gives the same bytes."""
    spec, clf = model.spec, model.classifier
    header = {"format": MODEL_FORMAT, "version": MODEL_FORMAT_VERSION,
              "spec": {"kind": spec.kind, "hyperparameters": spec.hyperparameters,
                       "seed": spec.seed}}
    arrays = {f"normalizer.{name}": getattr(model.normalizer, name)
              for name in ("mins", "maxs", "means")}
    for j, vocab in enumerate(model.vocabs):
        arrays[f"vocab.{j}"] = np.array(sorted(vocab, key=vocab.get))
    if spec.kind == KIND_RF:
        header["widths"] = [int(tree.width) for tree in clf.trees]
        for i, tree in enumerate(clf.trees):
            arrays.update({f"tree.{i}.{name}": getattr(tree, name) for name in _TREE_ARRAYS})
    else:
        arrays.update({name: getattr(clf, name) for name in _FITTED_ARRAYS[spec.kind]})
    if spec.kind == KIND_NB:
        arrays.update({f"cat_log_probs.{j}": t for j, t in enumerate(clf.cat_log_probs)})
    buffer = io.BytesIO()
    np.savez_compressed(buffer, allow_pickle=False, header=np.array(json.dumps(header)),
                        **arrays)
    return buffer.getvalue()


def _model_from_archive(header: dict, member) -> TrainedModel:
    """The model that model_bytes wrote as this header and these members;
    member(name) returns one member's array."""
    spec = ModelSpec(**header["spec"])
    clf = _classifier(spec)
    if spec.kind == KIND_RF:
        for i, width in enumerate(header["widths"]):
            tree = DecisionTree(clf.mtry, None, clf.max_depth)
            tree.width = width
            for name in _TREE_ARRAYS:
                setattr(tree, name, member(f"tree.{i}.{name}"))
            clf.trees.append(tree)
    else:
        for name in _FITTED_ARRAYS[spec.kind]:
            setattr(clf, name, member(name))
    vocabs = tuple({value: code for code, value in enumerate(member(f"vocab.{j}").tolist())}
                   for j in range(len(CAT_COLUMNS)))
    if spec.kind == KIND_NB:
        clf.cat_log_probs = [member(f"cat_log_probs.{j}") for j in range(len(vocabs))]
    normalizer = Normalizer(**{name: member(f"normalizer.{name}")
                               for name in ("mins", "maxs", "means")})
    return TrainedModel(spec=spec, classifier=clf, normalizer=normalizer, vocabs=vocabs)


def write_atomic(path: Path, data: bytes) -> None:
    """Write data to a temporary file next to path, then rename it over
    path: path holds its old content or all of data, never part of it."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_model(model: TrainedModel, path: str | Path) -> None:
    write_atomic(Path(path), model_bytes(model))


def load_model(path: str | Path) -> TrainedModel:
    """The model save_model wrote to path. Loading never unpickles. A file
    of another format or version (formats 1 and 2 were JSON), or one whose
    member is missing or an object array, raises ValueError naming the file."""
    path = Path(path)
    try:
        archive = np.load(path, allow_pickle=False)
    except (ValueError, EOFError):  # neither .npy nor .npz, or empty
        archive = None
    if isinstance(archive, np.lib.npyio.NpzFile):
        with archive:
            def member(name: str) -> np.ndarray:
                if name not in archive.files:
                    raise ValueError(f"{path} lacks the {MODEL_FORMAT} member {name}")
                try:
                    return archive[name]
                except ValueError as exc:  # an object array, which would unpickle
                    raise ValueError(f"{path} member {name}: {exc}") from None

            header = json.loads(member("header").item()) if "header" in archive.files else {}
            if (header.get("format"), header.get("version")) == (MODEL_FORMAT,
                                                                 MODEL_FORMAT_VERSION):
                return _model_from_archive(header, member)
    raise ValueError(f"{path} is not a {MODEL_FORMAT} file of format version "
                     f"{MODEL_FORMAT_VERSION}")
