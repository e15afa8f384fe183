"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria with Monte-Carlo oracles (Lilliefors KS, Levene) compare p-values in
regimes where a 1e5-replicate oracle actually resolves the stated 1e-3
tolerance (its own standard error is sqrt(p(1-p)/R), i.e. ~1.6e-3 at p=0.5),
which means strong-effect and identical-sample pairs; moderate-p agreement is
covered at MC-noise-consistent tolerances in test_stats.py.
"""

import time
from contextlib import contextmanager
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import stream_of
from driftlab import drift, stats, synth
from driftlab.learn import MLP, ConfusionCounts, ModelSpec, compute_metrics
from driftlab.runner import ExperimentGrid, drift_analysis, grid_cells, row_key
from driftlab.strategy import run_stream
from driftlab.windowing import batch_sequence

NB = ModelSpec(kind="NB", hyperparameters={"smoothing": 0.5}, seed=0)


@contextmanager
def criterion(number: int, name: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL "
              f"({time.monotonic() - start:.1f}s)")
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS "
          f"({time.monotonic() - start:.1f}s)")


def random_stream(rng):
    """A randomized small synthetic stream with 0-2 prior shifts."""
    years = int(rng.integers(5, 8))
    events = []
    rate = 0.25
    for at_year in sorted(rng.choice(np.arange(2, years + 1),
                                     size=int(rng.integers(0, 3)), replace=False)):
        magnitude = float(rng.uniform(0.12, 0.22)) * (1 if rng.random() < 0.7 else -1)
        if 0.03 < rate + magnitude < 0.9:
            events.append(synth.DriftEvent(at_year=int(at_year), kind="prior_shift",
                                           magnitude=magnitude))
            rate += magnitude
    spec = synth.SyntheticSpec(years=years, weeks_per_year=26,
                               flights_per_week=int(rng.integers(30, 60)),
                               base_delay_rate=0.25, drift_events=tuple(events),
                               seed=int(rng.integers(0, 2 ** 31)))
    rows, _ = synth.generate_stream(spec)
    return stream_of(rows, (2001, 2000 + years))


def test_criterion_1_strategy_bookkeeping():
    """baseline trains once, passive once per step, active 1 + detected
    drifts; exact over >= 20 randomized streams, under a minute."""
    start = time.monotonic()
    with criterion(1, "strategy bookkeeping"):
        rng = np.random.default_rng(101)
        detectors = ("mean", "variance", "mean_variance")
        for i in range(20):
            stream = random_stream(rng)
            b = 1 + i % 2
            dd = detectors[i % 3]
            baseline = run_stream(stream, b, [("baseline", dd)], NB)[0]
            assert baseline.trainings_done == 1
            passive = run_stream(stream, b, [("passive", dd)], NB)[0]
            assert passive.trainings_done == len(passive.steps)
            active = run_stream(stream, b, [("active", dd)], NB)[0]
            drifts = sum(1 for s in active.steps
                         if s.drift is not None and s.drift.drift)
            assert active.trainings_done == 1 + drifts
            assert len(baseline.steps) == len(passive.steps) == len(active.steps)
        assert time.monotonic() - start < 60.0


def test_criterion_2_union_dominance():
    """mean_variance flag == mean flag OR variance flag at every step, and
    cumulative counts dominate; the published SB pattern is consistent."""
    with criterion(2, "union dominance"):
        rng = np.random.default_rng(202)
        totals = {"mean": 0, "variance": 0, "mean_variance": 0}
        checked = 0
        for _ in range(8):
            stream = random_stream(rng)
            weekly = [drift.weekly_delay_proportions(batch_sequence(stream, b.year, 1))
                      for b in stream]
            for i in range(1, len(weekly)):
                decisions = {dd: drift.detect(dd, weekly[i], weekly[i - 1])
                             for dd in totals}
                assert decisions["mean_variance"].drift == (
                    decisions["mean"].drift or decisions["variance"].drift)
                for dd in totals:
                    totals[dd] += decisions[dd].drift
                checked += 1
        assert checked >= 30
        assert totals["mean_variance"] >= max(totals["mean"], totals["variance"])
        # reported single-scale pattern: union >= max of its parts
        for union, mean, variance in ((10, 9, 2), (11, 11, 5), (8, 8, 4)):
            assert union >= max(mean, variance)


def test_criterion_3_statistical_oracle_equivalence():
    """p-values match independent oracles: analytic CDF recomputation for
    Welch/F/Pearson (1e-6), exhaustive enumeration for small-n Wilcoxon
    (1e-6), 1e5-replicate Monte-Carlo for Lilliefors-KS and Levene (1e-3)."""
    start = time.monotonic()
    with criterion(3, "statistical test oracle equivalence"):
        rng = np.random.default_rng(303)

        for i in range(20):
            a = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2.0),
                           size=int(rng.integers(5, 30)))
            b = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2.0),
                           size=int(rng.integers(5, 30)))
            assert stats.welch_t(a, b).p_value == pytest.approx(
                oracles.welch_p(a, b), abs=1e-6)
            assert stats.f_variance(a, b).p_value == pytest.approx(
                oracles.f_variance_p(a, b), abs=1e-6)

        for i in range(20):
            n = int(rng.integers(10, 40))
            x = rng.normal(size=n)
            y = rng.uniform(-1, 1) * x + rng.normal(size=n)
            r_ref, p_ref = oracles.pearson_r_p(x, y)
            res = stats.pearson_correlation(x, y)
            assert res.r == pytest.approx(r_ref, abs=1e-9)
            assert res.p == pytest.approx(p_ref, abs=1e-6)

        for i in range(20):
            a = rng.integers(0, 5, size=int(rng.integers(4, 8))).astype(float)
            b = rng.integers(0, 5, size=int(rng.integers(4, 8))).astype(float)
            assert stats.wilcoxon_rank_sum(a, b).p_value == pytest.approx(
                oracles.wilcoxon_exact_p(a, b), abs=1e-6)

        # Lilliefors-KS vs 1e5-replicate MC oracle, in oracle-resolvable
        # regimes: strongly non-normal (p ~ 0) and near-perfect normal
        # scores (p ~ 1)
        for i in range(10):
            x = rng.exponential(rng.uniform(0.5, 2.0), size=40) ** 1.5
            p_impl = stats.ks_normality(x).p_value
            p_oracle = oracles.lilliefors_mc_p(x, replicates=100_000, seed=9000 + i)
            assert p_impl == pytest.approx(p_oracle, abs=1e-3)
        from scipy.stats import norm as scipy_norm
        blom = scipy_norm.ppf((np.arange(1, 37) - 0.375) / (36 + 0.25))
        for i in range(10):
            x = np.sort(blom + rng.normal(scale=1e-3, size=36))
            p_impl = stats.ks_normality(x).p_value
            p_oracle = oracles.lilliefors_mc_p(x, replicates=100_000, seed=9100 + i)
            assert p_impl == pytest.approx(p_oracle, abs=1e-3)

        # Levene vs 1e5-permutation oracle: strong separation (p ~ 0 on both
        # routes) and identical samples (p = 1 on both)
        for i in range(15):
            a = rng.normal(scale=1.0, size=30)
            b = rng.normal(scale=rng.uniform(8.0, 15.0), size=30)
            if i % 2:
                a, b = b, a
            p_impl = stats.levene(a, b).p_value
            p_oracle = oracles.levene_permutation_p(a, b, permutations=100_000,
                                                    seed=9200 + i)
            assert p_impl == pytest.approx(p_oracle, abs=1e-3)
        for i in range(5):
            a = rng.normal(size=25)
            p_impl = stats.levene(a, a.copy()).p_value
            p_oracle = oracles.levene_permutation_p(a, a.copy(), permutations=100_000,
                                                    seed=9300 + i)
            assert p_impl == pytest.approx(p_oracle, abs=1e-3)
        assert time.monotonic() - start < 300.0


def test_criterion_4_null_calibration():
    """On stationary streams (100 seeded runs) each detector's
    per-transition false-detection rate at alpha=0.05 is <= 0.10."""
    with criterion(4, "null calibration"):
        false_flags = {"mean": 0, "variance": 0, "mean_variance": 0}
        transitions = 0
        for seed in range(100):
            spec = synth.SyntheticSpec(years=16, flights_per_week=200,
                                       base_delay_rate=0.2, seed=seed)
            rows, _ = synth.generate_stream(spec)
            stream = stream_of(rows, (2001, 2016))
            weekly = [drift.weekly_delay_proportions(batch_sequence(stream, b.year, 1))
                      for b in stream]
            for i in range(2, len(weekly)):
                for dd in false_flags:
                    false_flags[dd] += drift.detect(dd, weekly[i], weekly[i - 1]).drift
                transitions += 1
        assert transitions == 1400
        for dd, count in false_flags.items():
            assert count / transitions <= 0.10, (dd, count / transitions)


def test_criterion_5_injected_drift_sensitivity():
    """A 0.20 -> 0.45 prior shift at a known boundary (52 weekly
    proportions per batch, 200 flights/week) is flagged by detector=mean at
    that transition in >= 95 of 100 seeded runs."""
    with criterion(5, "injected drift sensitivity"):
        hits = 0
        for seed in range(100):
            spec = synth.SyntheticSpec(
                years=2, weeks_per_year=52, flights_per_week=200, base_delay_rate=0.2,
                drift_events=(synth.DriftEvent(at_year=2, kind="prior_shift",
                                               magnitude=0.25),),
                seed=seed)
            rows, _ = synth.generate_stream(spec)
            stream = stream_of(rows, (2001, 2002))
            current = drift.weekly_delay_proportions(batch_sequence(stream, 2002, 1))
            previous = drift.weekly_delay_proportions(batch_sequence(stream, 2001, 1))
            hits += drift.detect("mean", current, previous).drift
        assert hits >= 95, hits


def test_criterion_6_retraining_beats_baseline():
    """On a stream whose concept flips (boundary_flip, plus the prior
    movement that accompanies it), the median f1 over 5 replicates of
    passive and of active(mean_variance) exceeds baseline by >= 0.05."""
    start = time.monotonic()
    with criterion(6, "retraining direction"):
        spec = synth.SyntheticSpec(
            years=10, weeks_per_year=52, flights_per_week=100, base_delay_rate=0.2,
            drift_events=(synth.DriftEvent(at_year=4, kind="boundary_flip"),
                          synth.DriftEvent(at_year=4, kind="prior_shift",
                                           magnitude=0.10)),
            seed=42)
        rows, _ = synth.generate_stream(spec)
        stream = stream_of(rows, (2001, 2010))

        def median_f1(dh):
            values = []
            for rep in range(5):
                mspec = ModelSpec(kind="MLP", seed=1000 + rep,
                                  hyperparameters={"hidden_neurons": 8,
                                                   "learning_rate": 0.5,
                                                   "epochs": 30, "batch_size": 64})
                run = run_stream(stream, 1, [(dh, "mean_variance")], mspec, replicate=rep)[0]
                values += [s.metrics.f1 for s in run.steps if s.metrics.f1 is not None]
            return float(np.median(values))

        baseline = median_f1("baseline")
        passive = median_f1("passive")
        active = median_f1("active")
        assert passive - baseline >= 0.05, (passive, baseline)
        assert active - baseline >= 0.05, (active, baseline)
        assert time.monotonic() - start < 600.0


def test_criterion_7_metrics_arithmetic():
    """compute_metrics reproduces the four formulas on every confusion table
    with TP,FP,FN,TN <= 5, including undefined handling; the all-negative
    predictor on 20%-positive data scores accuracy 0.8 with undefined
    precision."""
    with criterion(7, "metrics arithmetic"):
        for tp, fp, fn, tn in product(range(6), repeat=4):
            c = ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)
            if c.total == 0:
                with pytest.raises(ValueError):
                    compute_metrics(c)
                continue
            m = compute_metrics(c)
            assert m.accuracy == (tp + tn) / (tp + fp + fn + tn)
            if tp + fp == 0:
                assert m.precision is None
            else:
                assert m.precision == tp / (tp + fp)
            if tp + fn == 0:
                assert m.recall is None
            else:
                assert m.recall == tp / (tp + fn)
            if m.precision is None or m.recall is None:
                assert m.f1 is None
            elif m.precision + m.recall == 0:
                assert m.f1 == 0.0
            else:
                assert m.f1 == 2 * m.precision * m.recall / (m.precision + m.recall)
        majority = compute_metrics(ConfusionCounts(tp=0, fp=0, fn=1, tn=4))
        assert majority.accuracy == 0.8
        assert majority.precision is None
        assert majority.recall == 0.0
        assert majority.f1 is None


def test_criterion_8_mlp_gradient_check():
    """Analytic gradient vs central finite differences within 1e-4 relative
    error on a 5-row toy batch."""
    with criterion(8, "MLP gradient check"):
        rng = np.random.default_rng(808)
        X = rng.uniform(size=(5, 6))
        y = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        clf = MLP(hidden_neurons=4, learning_rate=0.1, epochs=1, seed=3)
        clf._init_params(6, np.random.default_rng(3))
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
        assert worst < 1e-4, worst


def test_criterion_9_grid_integrity(tmp_path):
    """A full sweep's row count equals the analytic cross-product with the
    NB replicate collapse; resume after interruption produces zero
    duplicates and never changes previously written rows. The table's
    bytes match the golden copy (recorded with numpy 2.4.6; see
    test_golden.py), before and after the resume."""
    golden = (Path(__file__).parent / "golden" / "criterion_9_results.csv").read_bytes()
    with criterion(9, "grid integrity and resume"):
        spec = synth.SyntheticSpec(years=6, weeks_per_year=26, flights_per_week=40,
                                   base_delay_rate=0.22, seed=90)
        rows, _ = synth.generate_stream(spec)
        grid = ExperimentGrid(airports=(None,), classifiers=("NB", "NN", "RF"),
                              years=(2002, 2005), bss=(1, 2, 3), replicates=5)
        hyper = {"NB": {"smoothing": 0.5},
                 "RF": {"trees_count": 3, "predictors_per_split": 2},
                 "MLP": {"hidden_neurons": 4, "learning_rate": 0.5,
                         "epochs": 6, "batch_size": 64}}
        out = tmp_path / "results.csv"
        results = drift_analysis(rows, grid, out, hyperparameters=hyper, base_seed=5)
        assert out.read_bytes() == golden

        cells = grid_cells(grid)
        # analytic: NB collapses to 1 replicate -> 165 cells; each cell
        # evaluates every t in the 4-year range (padded partition)
        n_nb = sum(1 for c in cells if c.classifier == "NB")
        assert len(cells) == 165 and n_nb == 15
        expected_rows = 4 * len(cells)
        assert len(results) == expected_rows
        assert not any(r["error"] for r in results)
        keys = [row_key(r) for r in results]
        assert len(keys) == len(set(keys))

        # interruption: drop a partial tail, rerun, compare
        lines = out.read_bytes().splitlines(keepends=True)
        out.write_bytes(b"".join(lines[:-9]))
        resumed = drift_analysis(rows, grid, out, hyperparameters=hyper, base_seed=5)
        assert len(resumed) == expected_rows
        assert len({row_key(r) for r in resumed}) == expected_rows
        by_key = {row_key(r): r for r in results}
        for row in resumed:
            assert row == by_key[row_key(row)]
        assert out.read_bytes() == golden
