import numpy as np
import pytest

from conftest import make_row, stream_of, varied_weekly_rows, weekly_rows
from driftlab import drift, stats
from driftlab.drift import (DETECTORS, DetectionMemo, InsufficientWeeklySupportError,
                            WeeklyProportions, decide_drift, detect, weekly_delay_proportions)
from driftlab.stats import DegenerateSampleError
from driftlab.windowing import Batch, BatchSequence, RowTable, batch_sequence


def proportions(values, year=2003):
    n = len(values)
    return WeeklyProportions(years=np.full(n, year), weeks=np.arange(1, n + 1),
                             flights=np.full(n, 100), proportions=np.array(values, dtype=float))


def noisy(mean, n=52, seed=0, scale=0.03):
    rng = np.random.default_rng(seed)
    return np.clip(rng.normal(mean, scale, size=n), 0.0, 1.0)


class TestWeeklyProportions:
    def test_uniform_construction(self):
        rows = weekly_rows(2003, weeks=52, per_week=100, delayed_per_week=20)
        stream = stream_of(rows, (2003, 2003))
        weekly = weekly_delay_proportions(batch_sequence(stream, 2003, 1))
        assert len(weekly) == 52
        assert np.allclose(weekly.proportions, 0.2)

    def test_week_without_flights_has_no_entry(self):
        rows = [r for r in weekly_rows(2003, weeks=10, per_week=20, delayed_per_week=5)
                if r.week_of_year != 4]
        stream = stream_of(rows, (2003, 2003))
        weekly = weekly_delay_proportions(batch_sequence(stream, 2003, 1))
        assert len(weekly) == 9
        assert all(week != 4 for week in weekly.weeks)

    def test_two_year_window_has_104_entries(self):
        rows = weekly_rows(2003) + weekly_rows(2004)
        stream = stream_of(rows, (2003, 2004))
        weekly = weekly_delay_proportions(batch_sequence(stream, 2004, 2))
        assert len(weekly) == 104
        years = weekly.years.tolist()
        assert years == sorted(years)

    def test_thin_weeks_dropped(self):
        rows = weekly_rows(2003, weeks=8, per_week=3, delayed_per_week=1)
        rows += weekly_rows(2004, weeks=8, per_week=10, delayed_per_week=2)
        stream = stream_of(rows, (2003, 2004))
        weekly = weekly_delay_proportions(batch_sequence(stream, 2004, 2),
                                          min_week_flights=5)
        assert all(year == 2004 for year in weekly.years)

    def test_counts_match_a_loop_over_rows(self):
        """The reference: per-row (year, week) counts, summed over the window
        and divided in chronological order."""
        rng = np.random.default_rng(7)
        rows, spans = [], []
        for year in (2003, 2004, 2005):
            weeks = rng.integers(1, 54, size=int(rng.integers(0, 400)))
            # some rows of 2004 carry 2003, as a batch built by hand may
            spans.append((year, len(rows), len(rows) + weeks.size))
            rows += [make_row(year=year - (year == 2004 and i % 7 == 0), week=int(w),
                              delayed=int(rng.uniform() < 0.3)) for i, w in enumerate(weeks)]
        table = RowTable.from_rows(rows)
        batches = [Batch(year, table, np.arange(start, stop)) for year, start, stop in spans]
        for mwf in (1, 5):
            counts: dict = {}
            for row in rows:
                n, d = counts.get((row.year, row.week_of_year), (0, 0))
                counts[(row.year, row.week_of_year)] = (n + 1, d + row.delayed)
            kept = [(cell, n, d / n) for cell, (n, d) in sorted(counts.items()) if n >= mwf]
            weekly = weekly_delay_proportions(BatchSequence(batches=tuple(batches)), mwf)
            assert list(zip(weekly.years.tolist(), weekly.weeks.tolist())) == [
                cell for cell, _, _ in kept]
            assert weekly.flights.tolist() == [n for _, n, _ in kept]
            assert weekly.proportions.tolist() == [p for _, _, p in kept]

    def test_all_weeks_thin_errors(self):
        rows = weekly_rows(2003, weeks=6, per_week=2, delayed_per_week=1)
        stream = stream_of(rows, (2003, 2003))
        with pytest.raises(InsufficientWeeklySupportError):
            weekly_delay_proportions(batch_sequence(stream, 2003, 1))


class TestDetect:
    def test_identical_vectors_no_drift(self):
        vec = proportions(noisy(0.2, seed=1))
        for dd in DETECTORS:
            assert not detect(dd, vec, vec).drift

    def test_mean_shift_detected(self):
        prev = proportions(noisy(0.20, seed=2))
        cur = proportions(noisy(0.45, seed=3))
        decision = detect("mean", cur, prev)
        assert decision.drift
        assert decision.mean_test is not None and decision.variance_test is None

    def test_union_is_exact_or(self):
        rng_seeds = range(20)
        for seed in rng_seeds:
            prev = proportions(noisy(0.2, seed=seed))
            cur = proportions(noisy(0.2 + 0.02 * (seed % 3), seed=seed + 100,
                                    scale=0.03 * (1 + seed % 2)))
            dm = detect("mean", cur, prev)
            dv = detect("variance", cur, prev)
            du = detect("mean_variance", cur, prev)
            assert du.drift == (dm.drift or dv.drift)
            assert du.mean_test == dm.mean_test
            assert du.variance_test == dv.variance_test

    def test_swap_symmetry_of_drift_flag(self):
        for seed in range(10):
            a = proportions(noisy(0.2, seed=seed))
            b = proportions(noisy(0.26, seed=seed + 50, scale=0.05))
            for dd in DETECTORS:
                assert detect(dd, a, b).drift == detect(dd, b, a).drift

    def test_short_vectors_rejected(self):
        short = proportions([0.2, 0.3, 0.25])
        ok = proportions(noisy(0.2, seed=4))
        with pytest.raises(InsufficientWeeklySupportError):
            detect("mean", short, ok)

    def test_constant_vector_propagates_degenerate_error(self):
        const = proportions([0.2] * 52)
        ok = proportions(noisy(0.2, seed=5))
        with pytest.raises(DegenerateSampleError):
            detect("mean", const, ok)

    @pytest.mark.parametrize("value", [0.1, 0.2, 0.3])
    @pytest.mark.parametrize("n", [52, 104, 156])
    def test_constant_vector_error_is_the_ks_refusal(self, value, n):
        """Shapiro-Wilk refuses a constant vector before the KS test runs,
        with the class and message the KS refusal had."""
        with pytest.raises(DegenerateSampleError) as ks_refusal:
            stats.ks_normality(np.full(n, value))
        const = proportions([value] * n)
        for dd in DETECTORS:
            with pytest.raises(DegenerateSampleError) as refusal:
                detect(dd, const, proportions(noisy(0.2, n=n, seed=5)))
            assert str(refusal.value) == str(ks_refusal.value)

    def test_unknown_detector(self):
        vec = proportions(noisy(0.2, seed=6))
        with pytest.raises(ValueError):
            detect("median", vec, vec)

    def test_normality_dispatch_recorded(self):
        normal_vec = proportions(noisy(0.5, seed=7, scale=0.05))
        skewed = proportions(np.concatenate([np.full(45, 0.02), np.linspace(0.3, 0.9, 7)]))
        decision = detect("mean_variance", normal_vec, skewed)
        assert decision.normal_b is False
        assert decision.mean_test.test_name == "wilcoxon"
        assert decision.variance_test.test_name == "levene"
        both_normal = detect("mean_variance", normal_vec,
                             proportions(noisy(0.5, seed=8, scale=0.05)))
        if both_normal.normal_a and both_normal.normal_b:
            assert both_normal.mean_test.test_name == "welch_t"
            assert both_normal.variance_test.test_name == "f_variance"


class TestActDrift:
    def _windows(self, rates=(20, 20, 20)):
        rows = []
        for i, delayed in enumerate(rates):
            rows += weekly_rows(2003 + i, weeks=52, per_week=100,
                                delayed_per_week=delayed)
        stream = stream_of(rows, (2003, 2003 + len(rates) - 1))
        return stream

    def test_passive_always_trains(self):
        stream = self._windows()
        d_i = batch_sequence(stream, 2004, 1)
        d_j = batch_sequence(stream, 2003, 1)
        assert decide_drift("mean", "passive", d_i, d_j)[0] is True
        assert decide_drift("mean", "passive", d_i, None)[0] is True

    def test_baseline_trains_only_without_lagged_window(self):
        stream = self._windows()
        d_i = batch_sequence(stream, 2004, 1)
        d_j = batch_sequence(stream, 2003, 1)
        assert decide_drift("mean", "baseline", d_i, None)[0] is True
        assert decide_drift("mean", "baseline", d_i, d_j)[0] is False

    def test_active_identical_distributions_no_retrain(self):
        rows = varied_weekly_rows(2003) + varied_weekly_rows(2004)
        stream = stream_of(rows, (2003, 2004))
        d_i = batch_sequence(stream, 2004, 1)
        d_j = batch_sequence(stream, 2003, 1)
        assert decide_drift("mean", "active", d_i, d_j)[0] is False
        assert decide_drift("mean_variance", "active", d_i, d_j)[0] is False

    def test_active_first_step_forced(self):
        stream = self._windows()
        assert decide_drift("mean", "active", batch_sequence(stream, 2003, 1), None)[0] is True

    def test_active_errored_detection_defaults_to_drift(self, caplog):
        # constant proportions make the tests degenerate -> fail-safe retrain
        stream = self._windows((20, 20))
        d_i = batch_sequence(stream, 2004, 1)
        d_j = batch_sequence(stream, 2003, 1)
        with caplog.at_level("WARNING"):
            train, decision = decide_drift("mean", "active", d_i, d_j)
        assert train is True and decision is None
        assert "treating as drift" in caplog.text

    def test_short_windows_default_to_drift(self):
        # three usable weeks a year: too few proportions -> fail-safe retrain
        rows = []
        for year in (2003, 2004):
            rows += weekly_rows(year, weeks=3, per_week=100, delayed_per_week=20)
        stream = stream_of(rows, (2003, 2004))
        d_i = batch_sequence(stream, 2004, 1)
        d_j = batch_sequence(stream, 2003, 1)
        assert decide_drift("mean", "active", d_i, d_j) == (True, None)

    def test_other_detection_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("bug inside detection")
        monkeypatch.setattr(drift.stats, "welch_t", broken)
        monkeypatch.setattr(drift.stats, "wilcoxon_rank_sum", broken)
        rows = varied_weekly_rows(2003) + varied_weekly_rows(2004)
        stream = stream_of(rows, (2003, 2004))
        with pytest.raises(ValueError, match="bug inside detection"):
            decide_drift("mean", "active", batch_sequence(stream, 2004, 1),
                         batch_sequence(stream, 2003, 1))

    def test_detection_is_label_only(self):
        # same labels, different features -> identical decision
        rows_a = (varied_weekly_rows(2003, base=14)
                  + varied_weekly_rows(2004, base=30))
        stream_a = stream_of(rows_a, (2003, 2004))
        rows_b = []
        for r in rows_a:
            rows_b.append(make_row(year=r.year, week=r.week_of_year, delayed=r.delayed,
                                   features=tuple(np.sqrt(r.numeric_features))))
        stream_b = stream_of(rows_b, (2003, 2004))
        for dd in DETECTORS:
            da = detect(dd, weekly_delay_proportions(batch_sequence(stream_a, 2004, 1)),
                        weekly_delay_proportions(batch_sequence(stream_a, 2003, 1)))
            db = detect(dd, weekly_delay_proportions(batch_sequence(stream_b, 2004, 1)),
                        weekly_delay_proportions(batch_sequence(stream_b, 2003, 1)))
            assert da.drift == db.drift


class TestDetectionMemo:
    def _stream(self):
        rows = []
        for i, year in enumerate(range(2003, 2007)):
            rows += varied_weekly_rows(year, base=14 + 3 * i)
        return stream_of(rows, (2003, 2006))

    def test_batch_counts_give_the_same_proportions(self):
        stream = self._stream()
        windows = [batch_sequence(stream, batch.year, b)
                   for b in (1, 2, 3) for batch in stream[b - 1:]]
        counts = [batch.week_counts for batch in stream]
        fresh = [weekly_delay_proportions(seq) for seq in windows]
        memo = DetectionMemo()
        shared = [memo.weekly(seq, 5) for seq in windows]
        for a, b in zip(shared, fresh):
            for field in ("years", "weeks", "flights", "proportions"):
                assert np.array_equal(getattr(a, field), getattr(b, field))
        # each batch counted its weeks once, whatever window read them
        assert all(batch.week_counts is c for batch, c in zip(stream, counts))
        again = batch_sequence(stream, 2006, 3)
        assert memo.weekly(again, 5) is memo.weekly(windows[-1], 5)

    def test_decisions_match_unshared_ones(self):
        stream = self._stream()
        memo = DetectionMemo()
        for b in (1, 2):
            for t in range(2003 + b, 2007):
                d_i, d_j = batch_sequence(stream, t, b), batch_sequence(stream, t - 1, b)
                for dd in DETECTORS:
                    assert decide_drift(dd, "active", d_i, d_j, memo=memo) == decide_drift(
                        dd, "active", d_i, d_j)

    def test_an_error_is_kept_by_its_memo_only(self, monkeypatch):
        calls = []

        def broken(*args, **kwargs):
            calls.append(args)
            raise ValueError("bug inside detection")
        monkeypatch.setattr(drift.stats, "welch_t", broken)
        monkeypatch.setattr(drift.stats, "wilcoxon_rank_sum", broken)
        stream = self._stream()
        d_i, d_j = batch_sequence(stream, 2005, 1), batch_sequence(stream, 2004, 1)
        memo = DetectionMemo()
        for dd in ("mean", "mean_variance"):
            with pytest.raises(ValueError, match="bug inside detection"):
                decide_drift(dd, "active", d_i, d_j, memo=memo)
        assert len(calls) == 1
        monkeypatch.undo()
        train, decision = decide_drift("mean", "active", d_i, d_j, memo=DetectionMemo())
        assert decision is not None and train == decision.drift
