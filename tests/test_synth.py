import collections

import numpy as np
import pytest

from driftlab import special, synth
from driftlab.synth import DriftEvent, SyntheticSpec, generate_stream


def yearly_rates(rows):
    per_year = collections.defaultdict(list)
    for r in rows:
        per_year[r.year].append(r.delayed)
    return {year: float(np.mean(v)) for year, v in sorted(per_year.items())}


class TestStationary:
    def test_realized_rate_concentrates_on_base(self):
        for seed in range(100):
            spec = SyntheticSpec(years=2, weeks_per_year=52, flights_per_week=100,
                                 base_delay_rate=0.2, seed=seed)
            rows, events = generate_stream(spec)
            assert events == []
            for rate in yearly_rates(rows).values():
                assert rate == pytest.approx(0.2, abs=0.02)

    def test_determinism(self):
        spec = SyntheticSpec(years=3, flights_per_week=50, seed=77)
        rows_a, _ = generate_stream(spec)
        rows_b, _ = generate_stream(spec)
        assert len(rows_a) == len(rows_b)
        for a, b in zip(rows_a, rows_b):
            assert (a.year, a.week_of_year, a.delayed, a.destination_state) == \
                   (b.year, b.week_of_year, b.delayed, b.destination_state)
            assert np.array_equal(a.numeric_features, b.numeric_features)

    def test_row_shape(self):
        spec = SyntheticSpec(years=2, weeks_per_year=10, flights_per_week=7, seed=0)
        rows, _ = generate_stream(spec)
        assert len(rows) == 2 * 10 * 7
        assert {r.year for r in rows} == {2001, 2002}
        assert all(1 <= r.week_of_year <= 10 for r in rows)
        assert all(r.origin_airport == "SYN0" for r in rows)
        assert spec.feature_names == ("x0", "x1", "x2")


class TestPriorShift:
    def test_rate_moves_by_magnitude(self):
        spec = SyntheticSpec(years=8, flights_per_week=200, base_delay_rate=0.2,
                             drift_events=(DriftEvent(at_year=7, kind="prior_shift",
                                                      magnitude=0.25),),
                             seed=3)
        rows, events = generate_stream(spec)
        rates = yearly_rates(rows)
        for year in range(2001, 2007):
            assert rates[year] == pytest.approx(0.20, abs=0.02)
        for year in (2007, 2008):
            assert rates[year] == pytest.approx(0.45, abs=0.02)
        assert events == [DriftEvent(at_year=2007, kind="prior_shift", magnitude=0.25)]

    def test_conditional_direction_preserved(self):
        # the shift rescales only the intercept, so the sign of the
        # feature-to-delay relationship is unchanged
        spec = SyntheticSpec(years=4, flights_per_week=300, base_delay_rate=0.2,
                             drift_events=(DriftEvent(at_year=3, kind="prior_shift",
                                                      magnitude=0.3),),
                             seed=5)
        rows, _ = generate_stream(spec)
        for years in ((2001, 2002), (2003, 2004)):
            subset = [r for r in rows if r.year in years]
            x0 = np.array([r.numeric_features[0] for r in subset])
            y = np.array([r.delayed for r in subset])
            high = y[x0 > 0.5].mean()
            low = y[x0 <= 0.5].mean()
            assert high > low  # weight on x0 is positive throughout

    def test_infeasible_rate_rejected(self):
        with pytest.raises(ValueError, match="pushes the delay rate"):
            SyntheticSpec(years=5, drift_events=(
                DriftEvent(at_year=2, kind="prior_shift", magnitude=0.9),))

    def test_rate_checked_in_year_order_not_listing_order(self):
        # listed later but applied first: year 2 would need a rate of 1.1
        with pytest.raises(ValueError, match="prior_shift at year 2 pushes the delay rate"):
            SyntheticSpec(years=6, base_delay_rate=0.5, drift_events=(
                DriftEvent(at_year=5, kind="prior_shift", magnitude=-0.3),
                DriftEvent(at_year=2, kind="prior_shift", magnitude=0.6)))
        # in listing order the rate would reach 1.1; in year order it stays inside (0, 1)
        spec = SyntheticSpec(years=3, flights_per_week=200, base_delay_rate=0.5, seed=4,
                             drift_events=(
                                 DriftEvent(at_year=3, kind="prior_shift", magnitude=0.6),
                                 DriftEvent(at_year=2, kind="prior_shift", magnitude=-0.3)))
        rates = yearly_rates(generate_stream(spec)[0])
        for year, rate in zip((2001, 2002, 2003), (0.5, 0.2, 0.8)):
            assert rates[year] == pytest.approx(rate, abs=0.02)

    def test_event_year_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            SyntheticSpec(years=3, drift_events=(
                DriftEvent(at_year=9, kind="prior_shift", magnitude=0.1),))


class TestBoundaryFlip:
    def test_marginal_nearly_preserved_but_labels_move(self):
        """The flip changes the Bayes labeling on >= 10% of a probe set while
        the realized marginal rate moves < 0.03."""
        spec = SyntheticSpec(years=8, flights_per_week=200, base_delay_rate=0.2,
                             drift_events=(DriftEvent(at_year=5, kind="boundary_flip"),),
                             seed=21)
        rows, events = generate_stream(spec)
        rates = yearly_rates(rows)
        pre = np.mean([rates[y] for y in range(2001, 2005)])
        post = np.mean([rates[y] for y in range(2005, 2009)])
        assert abs(post - pre) < 0.03
        assert events[0].kind == "boundary_flip" and events[0].at_year == 2005

        # probe disagreement under the flipped model, replicated from the
        # documented construction: negate the largest weight, recenter the
        # intercept by its original value
        rng = np.random.default_rng(1234)
        x = rng.uniform(size=(20000, len(spec.numeric_weights)))
        cat = rng.integers(0, len(spec.categorical_levels), size=20000)
        w = np.asarray(spec.numeric_weights)
        eff = np.asarray(spec.categorical_effects)
        flip = int(np.argmax(np.abs(w)))
        w_new = w.copy()
        w_new[flip] = -w_new[flip]
        logit_old = x @ w + eff[cat]
        logit_new = w[flip] + x @ w_new + eff[cat]
        disagree = np.mean((logit_old > 0) != (logit_new > 0))
        assert disagree >= 0.10

    def test_flip_changes_feature_relationship_sign(self):
        spec = SyntheticSpec(years=6, flights_per_week=300, base_delay_rate=0.25,
                             drift_events=(DriftEvent(at_year=4, kind="boundary_flip"),),
                             seed=8)
        rows, _ = generate_stream(spec)
        # largest weight is on x0 (positive); after the flip it is negative
        def x0_gap(years):
            subset = [r for r in rows if r.year in years]
            x0 = np.array([r.numeric_features[0] for r in subset])
            y = np.array([r.delayed for r in subset])
            return y[x0 > 0.5].mean() - y[x0 <= 0.5].mean()
        assert x0_gap((2001, 2002, 2003)) > 0.05
        assert x0_gap((2004, 2005, 2006)) < -0.05


class TestSeasonality:
    def test_seasonal_term_moves_weekly_rates(self):
        flat = SyntheticSpec(years=1, flights_per_week=400, seed=2)
        seasonal = SyntheticSpec(years=1, flights_per_week=400, seed=2,
                                 seasonal_amplitude=1.0)
        def weekly_spread(spec):
            rows, _ = generate_stream(spec)
            per_week = collections.defaultdict(list)
            for r in rows:
                per_week[r.week_of_year].append(r.delayed)
            rates = np.array([np.mean(v) for _, v in sorted(per_week.items())])
            return rates.max() - rates.min()
        assert weekly_spread(seasonal) > weekly_spread(flat) + 0.05


def plain_bisection(target, probe_logits):
    """The definition _calibrate_intercept must reproduce to the bit."""
    lo, hi = -30.0, 30.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if float(synth.sigmoid(mid + probe_logits).mean()) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestCalibration:
    def test_same_float_as_plain_bisection(self):
        rng = np.random.default_rng(2718)
        for _ in range(60):
            k = int(rng.integers(1, 6))
            weights = rng.normal(0.0, rng.choice([0.5, 3.0, 40.0, 400.0]), size=k)
            n = int(rng.choice([5, 300, 5000]))
            probe = rng.uniform(size=(n, k)) @ weights + rng.choice([-0.3, 0.1, 0.3], n)
            target = float(rng.choice([rng.uniform(0.001, 0.999), 1e-6, 0.5, 1 - 1e-6]))
            assert synth._calibrate_intercept(target, probe) == plain_bisection(target, probe)

    def test_skips_evaluations_whose_outcome_is_certain(self, monkeypatch):
        rng = np.random.default_rng(0)
        probe = rng.uniform(size=(100_000, 3)) @ np.array([2.5, -2.0, 1.5])
        calls = []
        evaluate = synth._Probe.sigmoid
        monkeypatch.setattr(synth._Probe, "sigmoid",
                            lambda self, c: calls.append(c) or evaluate(self, c))
        c = synth._calibrate_intercept(0.2, probe)
        monkeypatch.undo()
        assert c == plain_bisection(0.2, probe)
        # every probe pass goes through the evaluator; the plain bisection makes 80
        assert 0 < len(calls) <= 35

    # The clip is skipped while abs(c) + max|z| < 499. Bisection mids reach
    # |c| = 30 and approach 0, so probes with max|z| near 469 and near 499
    # switch between the skipped and the applied clip within one calibration.
    @pytest.mark.parametrize("edge", (469.0, 499.0))
    @pytest.mark.parametrize("offset", (-1e-9, -1e-3, 1e-3, 1e-9))
    def test_same_float_as_plain_bisection_at_the_clip_skip_bound(self, edge, offset):
        rng = np.random.default_rng(31)
        for sign in (1.0, -1.0):
            probe = rng.uniform(-edge, edge, size=2000)
            probe[7] = sign * (edge + offset)
            assert float(np.abs(probe).max()) == edge + offset
            for target in (0.001, 0.2, 0.5, 0.97):
                assert synth._calibrate_intercept(target, probe) == plain_bisection(
                    target, probe)

    @pytest.mark.parametrize("max_abs", (0.5, 468.999, 469.001, 498.999, 499.001, 530.0))
    def test_probe_sigmoid_is_special_sigmoid_to_the_bit(self, max_abs):
        rng = np.random.default_rng(17)
        z = rng.uniform(-max_abs, max_abs, size=501)
        z[:2] = (max_abs, -max_abs)
        probe = synth._Probe(z)
        for c in (0.0, 1e-300, -0.75, 1.5, -1.5, 10.0, -10.0, -29.99, 30.0, -30.0, 31.0):
            p = special.sigmoid(c + z)
            assert np.array_equal(probe.sigmoid(c), p)
            assert probe.rate_and_slope(c) == (float(p.mean()), float((p * (1.0 - p)).mean()))


class TestSpecIO:
    def test_round_trip(self, tmp_path):
        spec = SyntheticSpec(years=5, flights_per_week=80, base_delay_rate=0.3,
                             drift_events=(DriftEvent(at_year=3, kind="prior_shift",
                                                      magnitude=-0.1),
                                           DriftEvent(at_year=4, kind="boundary_flip")),
                             seasonal_amplitude=0.5, seed=12)
        path = tmp_path / "spec.json"
        synth.save_spec(spec, path)
        assert synth.load_spec(path) == spec

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            DriftEvent(at_year=1, kind="gradual")
