"""The three embedded classifiers, grid search, and the confusion metrics."""

from driftlab import synth
from driftlab.learn import (ConfusionCounts, ModelSpec, compute_metrics,
                            confusion_from_predictions, default_grid, feature_count,
                            grid_search_cv, predict, train)
from driftlab.windowing import RowTable, partition_by_year

spec = synth.SyntheticSpec(years=2, flights_per_week=150, base_delay_rate=0.25, seed=5)
rows, _ = synth.generate_stream(spec)
# train and predict read yearly batches: index arrays into one row table
train_batch, test_batch = partition_by_year(RowTable.from_rows(rows), (2001, 2002))
truth = test_batch.labels

# Train each classifier kind with explicit hyperparameters; the MLP is the
# paper-style single-hidden-layer network ("NN" is accepted as an alias).
for kind, hp in (("NB", {"smoothing": 0.5}),
                 ("RF", {"trees_count": 30, "predictors_per_split": 2}),
                 ("MLP", {"hidden_neurons": 8, "learning_rate": 0.5, "epochs": 30})):
    model = train(ModelSpec(kind=kind, hyperparameters=hp, seed=1), [train_batch])
    preds = predict(model, [test_batch])
    metrics = compute_metrics(confusion_from_predictions(truth, preds))
    print(f"{kind:3s}: accuracy {metrics.accuracy:.3f}  precision {metrics.precision:.3f}  "
          f"recall {metrics.recall:.3f}  f1 {metrics.f1:.3f}")

# Hyperparameter selection: k-fold CV over the default grid, ties toward
# the smaller model.
best = grid_search_cv("NB", default_grid("NB", feature_count(train_batch.table)),
                      train_batch, k=5)
print("\ngrid-search pick for NB:", best.hyperparameters)

# Metrics handle empty denominators explicitly: an all-negative predictor on
# 20%-positive data is 80% accurate but has UNDEFINED precision, never 0.
majority = compute_metrics(ConfusionCounts(tp=0, fp=0, fn=20, tn=80))
print(f"\nall-negative predictor: accuracy {majority.accuracy}, "
      f"precision {majority.precision}, recall {majority.recall}, f1 {majority.f1}")
