"""Weekly delay proportions and the three statistical drift detectors."""

from driftlab import drift, synth
from driftlab.windowing import RowTable, batch_sequence, partition_by_year

spec = synth.SyntheticSpec(
    years=6, flights_per_week=200, base_delay_rate=0.2,
    drift_events=(synth.DriftEvent(at_year=4, kind="prior_shift", magnitude=0.2),),
    seed=11)
rows, _ = synth.generate_stream(spec)
stream = partition_by_year(RowTable.from_rows(rows), (2001, 2006))

# Weekly delay-proportion vector of one training window (b = 1).
weekly_2003 = drift.weekly_delay_proportions(batch_sequence(stream, 2003, 1))
print(f"window 2003: {len(weekly_2003)} weekly proportions, "
      f"first 5: {weekly_2003.proportions[:5]}")

# Compare consecutive windows at every transition with each detector.
print("\nt    mean   variance  mean_variance  (drift flags)")
for t in range(2002, 2007):
    cur = drift.weekly_delay_proportions(batch_sequence(stream, t, 1))
    prev = drift.weekly_delay_proportions(batch_sequence(stream, t - 1, 1))
    flags = [drift.detect(dd, cur, prev).drift
             for dd in ("mean", "variance", "mean_variance")]
    marker = "   <- injected shift enters the window" if t == 2004 else ""
    print(f"{t}  {str(flags[0]):5}  {str(flags[1]):8}  {str(flags[2]):13}{marker}")

# The decision records which tests ran (normality gates the dispatch).
cur = drift.weekly_delay_proportions(batch_sequence(stream, 2004, 1))
prev = drift.weekly_delay_proportions(batch_sequence(stream, 2003, 1))
decision = drift.detect("mean_variance", cur, prev)
print(f"\nnormal windows: {decision.normal_a}/{decision.normal_b}; "
      f"mean test: {decision.mean_test.test_name} p={decision.mean_test.p_value:.2e}; "
      f"variance test: {decision.variance_test.test_name} p={decision.variance_test.p_value:.3f}")
