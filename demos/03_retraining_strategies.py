"""Baseline / passive / active retraining over a drifting stream."""

import numpy as np

from driftlab import synth
from driftlab.learn import ModelSpec
from driftlab.strategy import run_stream
from driftlab.windowing import RowTable, partition_by_year

spec = synth.SyntheticSpec(
    years=8, flights_per_week=150, base_delay_rate=0.2,
    drift_events=(synth.DriftEvent(at_year=5, kind="prior_shift", magnitude=0.25),),
    seed=3)
rows, _ = synth.generate_stream(spec)
stream = partition_by_year(RowTable.from_rows(rows), (2001, 2008))

nb = ModelSpec(kind="NB", hyperparameters={"smoothing": 0.5}, seed=0)

# One pass over the years runs all three strategies: each window's model is
# fit once and shared by every strategy that retrains on it.
strategies = ("baseline", "passive", "active")
runs = dict(zip(strategies, run_stream(stream, b=1, cells=[(dh, "mean") for dh in strategies],
                                       spec=nb)))
for dh, run in runs.items():
    drifts = sum(1 for s in run.steps if s.drift is not None and s.drift.drift)
    f1 = [round(s.metrics.f1, 3) if s.metrics.f1 is not None else None
          for s in run.steps]
    print(f"{dh:8s}: {run.trainings_done} trainings over {len(run.steps)} steps, "
          f"{drifts} drifts detected")
    print(f"          f1 per test year: {f1}")

# Bookkeeping identities (exact): baseline 1, passive = steps,
# active = 1 + detected drifts.
active = runs["active"]
drifts = sum(1 for s in active.steps if s.drift is not None and s.drift.drift)
assert active.trainings_done == 1 + drifts
print("\nactive trainings == 1 + detected drifts:", active.trainings_done,
      "==", 1 + drifts)

# Median f1 after the shift: retraining adapts, the frozen baseline decays.
def post_shift_median(dh):
    vals = [s.metrics.f1 for s in runs[dh].steps if s.t >= 2005 and s.metrics.f1 is not None]
    return round(float(np.median(vals)), 3)

print("\npost-shift median f1:", {dh: post_shift_median(dh) for dh in strategies})
