import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy import stats as ss

import oracles
from driftlab import stats
from driftlab.drift import WeeklyProportions, detect
from driftlab.stats import (DegenerateSampleError, f_variance, ks_normality, levene,
                            pearson_correlation, shapiro_wilk, welch_t,
                            wilcoxon_rank_sum)

ALPHA = 0.05  # the level the drift detectors apply by default


class TestShapiroWilk:
    def test_uniform_ramp_100_matches_reference_oracle(self):
        # A perfect uniform ramp is detectably platykurtic at n=100: the
        # reference oracle puts p well under alpha.
        x = np.arange(1.0, 101.0)
        res = shapiro_wilk(x)
        ref = ss.shapiro(x)
        assert res.p_value == pytest.approx(ref.pvalue, abs=1e-3)
        assert res.statistic == pytest.approx(ref.statistic, abs=1e-6)
        assert res.p_value < ALPHA

    def test_exp_shaped_sample_rejects(self):
        y = np.exp(np.arange(1.0, 51.0)) / np.exp(50.0)
        assert shapiro_wilk(y).p_value < ALPHA

    def test_constant_sample_errors(self):
        with pytest.raises(DegenerateSampleError):
            shapiro_wilk(np.full(20, 3.25))

    # the float mean of these rounds away from the value, which left the sum
    # of squares just above 0 and gave a tiny p-value instead of refusing
    @pytest.mark.parametrize("value", [0.1, 0.2, 0.3])
    @pytest.mark.parametrize("n", [52, 104, 156])
    def test_constant_weekly_proportions_refused_as_by_ks(self, value, n):
        with pytest.raises(DegenerateSampleError, match="zero variance"):
            shapiro_wilk(np.full(n, value))
        with pytest.raises(DegenerateSampleError, match="zero variance"):
            ks_normality(np.full(n, value))

    def test_size_limits(self):
        with pytest.raises(ValueError):
            shapiro_wilk([1.0, 2.0])
        with pytest.raises(ValueError):
            shapiro_wilk(np.random.default_rng(0).normal(size=5001))

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 11, 12, 25, 52, 200, 1000])
    def test_matches_scipy_across_sizes(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n) + rng.uniform(size=n)
        res = shapiro_wilk(x)
        ref = ss.shapiro(x)
        assert res.statistic == pytest.approx(ref.statistic, abs=1e-6)
        assert res.p_value == pytest.approx(ref.pvalue, abs=1e-3)

    # W and p of seeded samples, recorded with numpy 2.4.6
    @pytest.mark.parametrize("n, shape, w, p", [
        (4, "normal", 0.9661453758940579, 0.8174878315164783),
        (4, "skewed", 0.90843363341059, 0.47414248847826357),
        (5, "normal", 0.9825728953492612, 0.9478992015098385),
        (5, "skewed", 0.9372669462169292, 0.6466858245418966),
        (6, "normal", 0.814685396440749, 0.07933918074898519),
        (6, "skewed", 0.774658327896302, 0.03435253937948017),
        (52, "normal", 0.972578895772031, 0.2710018808084343),
        (52, "skewed", 0.5395051983070679, 1.570380602371988e-11),
        (104, "normal", 0.9930134032170482, 0.8749827029303208),
        (104, "skewed", 0.7718907861653996, 2.0669407262374137e-11),
    ])
    def test_recorded_values_bit_identical(self, n, shape, w, p):
        rng = np.random.default_rng(n)
        normal, skewed = rng.normal(size=n), rng.exponential(size=n)
        res = shapiro_wilk(normal if shape == "normal" else skewed)
        assert (res.statistic, res.p_value) == (w, p)


class TestKsNormality:
    def test_equally_spaced_30_matches_mc_oracle(self):
        # near-uniform sample: D is small, p sits near 1 where the Monte
        # Carlo oracle resolves far better than the 1e-3 tolerance
        z = np.linspace(-1.0, 1.0, 30)
        res = ks_normality(z, mc_replicates=2_000_000)
        oracle = oracles.lilliefors_mc_p(z, replicates=200_000)
        assert res.p_value == pytest.approx(oracle, abs=1e-3)
        assert res.p_value >= ALPHA

    def test_moderate_p_agreement_within_mc_noise(self):
        # moderate p-values: both sides are MC estimates, so the tolerance
        # reflects their combined standard error (~2e-3 here), not 1e-3
        rng = np.random.default_rng(11)
        x = rng.normal(size=40)
        res = ks_normality(x, mc_replicates=400_000)
        oracle = oracles.lilliefors_mc_p(x, replicates=200_000)
        assert res.p_value == pytest.approx(oracle, abs=0.012)

    def test_skewed_sample_rejects(self):
        rng = np.random.default_rng(3)
        x = rng.exponential(size=40)
        assert ks_normality(x).p_value < ALPHA

    def test_constant_sample_errors(self):
        with pytest.raises(DegenerateSampleError):
            ks_normality(np.zeros(10))

    def test_statistic_matches_independent_formula(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=37)
        # library normal CDF is a 1.2e-7-accuracy Chebyshev fit; the D gap
        # is bounded by that, far below anything the MC p-value resolves
        assert ks_normality(x).statistic == pytest.approx(
            oracles.lilliefors_statistic(x), abs=1e-6)

    def test_deterministic(self):
        x = np.random.default_rng(5).normal(size=30)
        assert ks_normality(x).p_value == ks_normality(x).p_value

    def test_recorded_statistics_and_p_values_bit_for_bit(self):
        # recorded before the sample statistic and the null table shared one
        # D function; any change to either moves these in the last bits
        rng = np.random.default_rng(8)
        samples = [rng.normal(0.3, 1.2, 25), rng.uniform(size=52), rng.gamma(3.0, size=104)]
        recorded = [(0.08565752645486996, 0.9103044847757612),
                    (0.06378376276394926, 0.8638068096595171),
                    (0.12681685480291804, 0.0002999850007499625)]
        for x, expected in zip(samples, recorded):
            res = ks_normality(x, mc_replicates=20_000)
            assert (res.statistic, res.p_value) == expected


class TestLillieforsNullTable:
    # sha256 of the sorted table bytes, recorded with numpy 2.4.6 when every
    # table of up to 4M draws was built in one chunk; (156, 20 000) and
    # (52, 200 000) pin that the chunk size does not change the draws
    @pytest.mark.parametrize("n, replicates, digest", [
        (4, 1_000, "c1dacf361162ab4e5c313b1773e182939c9688acd2fabf0c4c7ec7cac4a08094"),
        (52, 20_000, "7fff75c24734561b8b1c7b820c447fc9ee6822722bf7eecf5d722b72a3dd0a45"),
        (156, 20_000, "1363cc18b51168f87187ce3a10d153e3746edeb3594f446ce3d1ab891799e39d"),
        (52, 200_000, "ba02c0c4299c23ad7440e99660d920e766034320a863d37b5dc7a8187128ca0c"),
    ])
    def test_recorded_tables_bit_identical(self, n, replicates, digest):
        table = stats._lilliefors_null_table.__wrapped__(n, replicates)
        assert hashlib.sha256(table.tobytes()).hexdigest() == digest

    def test_cold_build_memory_bounded(self):
        # 4M-draw chunks peaked at ~218 MB under tracemalloc, 2^18-draw ones at ~19 MB
        tracemalloc.start()
        try:
            stats._lilliefors_null_table.__wrapped__(156, 20_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20


class TestWelchT:
    def test_identical_samples(self):
        a = np.array([1.0, 2.0, 3.0, 4.5])
        res = welch_t(a, a.copy())
        assert res.statistic == 0.0
        assert res.p_value == 1.0
        assert res.p_value >= ALPHA

    def test_maximal_separation(self):
        assert welch_t(np.arange(1.0, 11.0), np.arange(101.0, 111.0)).p_value < ALPHA

    def test_matches_analytic_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            a = rng.normal(size=20)
            b = rng.normal(loc=rng.uniform(-1, 1), scale=rng.uniform(0.5, 2), size=20)
            assert welch_t(a, b).p_value == pytest.approx(oracles.welch_p(a, b), abs=1e-6)

    def test_constant_sample_conventions(self):
        res = welch_t([2.0, 2.0, 2.0], [2.0, 2.0])
        assert (res.statistic, res.p_value, res.p_value < ALPHA) == (0.0, 1.0, False)
        res = welch_t([2.0, 2.0], [3.0, 3.0])
        assert res.p_value == 0.0 and res.p_value < ALPHA

    def test_exchange_symmetry(self):
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=15), rng.normal(0.3, 1.4, size=22)
        assert welch_t(a, b).p_value == pytest.approx(welch_t(b, a).p_value, abs=1e-14)


class TestWilcoxon:
    def test_identical_samples(self):
        a = np.array([1.0, 2.0, 3.0, 4.0, 7.0])
        res = wilcoxon_rank_sum(a, a.copy())
        assert res.p_value >= 0.99
        assert res.p_value >= ALPHA

    def test_fully_separated(self):
        a = np.arange(1.0, 16.0)
        b = np.arange(100.0, 115.0)
        assert wilcoxon_rank_sum(a, b).p_value < ALPHA

    def test_tied_small_samples_match_enumeration(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = rng.integers(0, 5, size=6).astype(float)
            b = rng.integers(0, 5, size=7).astype(float)
            p = wilcoxon_rank_sum(a, b).p_value
            assert p == pytest.approx(oracles.wilcoxon_exact_p(a, b), abs=1e-6)

    def test_all_tied_flagged(self):
        res = wilcoxon_rank_sum([3.0, 3.0, 3.0], [3.0, 3.0])
        assert res.p_value == 1.0 and res.p_value >= ALPHA

    def test_approx_path_matches_scipy(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=30)
        b = rng.normal(0.5, size=40)
        ref = ss.mannwhitneyu(a, b, method="asymptotic", use_continuity=True)
        assert wilcoxon_rank_sum(a, b).p_value == pytest.approx(ref.pvalue, abs=1e-6)

    def test_exchange_symmetry(self):
        rng = np.random.default_rng(12)
        a, b = rng.normal(size=8), rng.normal(size=9)
        assert wilcoxon_rank_sum(a, b).p_value == pytest.approx(
            wilcoxon_rank_sum(b, a).p_value, abs=1e-12)


class TestFVariance:
    def test_identical_samples(self):
        a = np.array([1.0, 2.0, 4.0, 8.0])
        res = f_variance(a, a.copy())
        assert res.statistic == 1.0
        assert res.p_value >= ALPHA

    def test_extreme_ratio(self):
        rng = np.random.default_rng(13)
        a = rng.normal(scale=10.0, size=30)
        b = rng.normal(scale=1.0, size=30)
        assert f_variance(a, b).p_value < ALPHA

    def test_matches_analytic_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            a = rng.normal(scale=rng.uniform(0.5, 2.0), size=15)
            b = rng.normal(scale=rng.uniform(0.5, 2.0), size=18)
            assert f_variance(a, b).p_value == pytest.approx(
                oracles.f_variance_p(a, b), abs=1e-6)

    def test_zero_variance_errors(self):
        with pytest.raises(DegenerateSampleError):
            f_variance([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_location_shift_invariance_exact(self):
        # sixteenths plus an integer shift stay exactly representable, so
        # the statistic is bitwise shift-invariant
        a = np.array([1, 5, 9, 2, 14, 7, 3, 11]) / 16.0
        b = np.array([2, 4, 6, 1, 15, 8, 12, 5]) / 16.0
        r0 = f_variance(a, b)
        r1 = f_variance(a + 4.0, b + 4.0)
        assert r0.statistic == r1.statistic
        assert r0.p_value == r1.p_value

    def test_exchange_symmetry(self):
        rng = np.random.default_rng(15)
        a, b = rng.normal(size=10), rng.normal(scale=2.0, size=12)
        assert f_variance(a, b).p_value == pytest.approx(f_variance(b, a).p_value, abs=1e-12)


class TestLevene:
    def test_identical_samples(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        assert levene(a, a.copy()).p_value >= ALPHA

    def test_spread_difference(self):
        rng = np.random.default_rng(16)
        a = rng.uniform(-1.0, 1.0, size=25)
        b = rng.uniform(-50.0, 50.0, size=25)
        assert levene(a, b).p_value < ALPHA

    def test_strong_separation_matches_permutation_oracle(self):
        # the stated 1e-3 tolerance is resolvable by a 1e5-permutation
        # oracle only where p is extreme; strong separation puts both ~0
        rng = np.random.default_rng(17)
        a = rng.normal(scale=1.0, size=30)
        b = rng.normal(scale=12.0, size=30)
        p = levene(a, b).p_value
        oracle = oracles.levene_permutation_p(a, b, permutations=100_000)
        assert p == pytest.approx(oracle, abs=1e-3)

    def test_moderate_p_agreement_with_permutation(self):
        # at moderate p the F approximation and the permutation law differ
        # by a small model bias on top of MC noise; ~2e-2 is the honest gap
        rng = np.random.default_rng(18)
        a = rng.normal(scale=1.0, size=40)
        b = rng.normal(scale=1.25, size=40)
        p = levene(a, b).p_value
        oracle = oracles.levene_permutation_p(a, b, permutations=100_000)
        assert p == pytest.approx(oracle, abs=0.02)

    def test_matches_scipy(self):
        rng = np.random.default_rng(19)
        a, b = rng.normal(size=20), rng.normal(scale=1.5, size=25)
        ref = ss.levene(a, b, center="mean")
        res = levene(a, b)
        assert res.statistic == pytest.approx(ref.statistic, abs=1e-10)
        assert res.p_value == pytest.approx(ref.pvalue, abs=1e-10)

    def test_degenerate_all_deviations_zero(self):
        res = levene([1.0, 1.0, 1.0], [5.0, 5.0, 5.0])
        assert res.p_value == 1.0 and res.p_value >= ALPHA

    def test_exchange_symmetry(self):
        rng = np.random.default_rng(20)
        a, b = rng.normal(size=15), rng.normal(scale=3.0, size=14)
        assert levene(a, b).p_value == pytest.approx(levene(b, a).p_value, abs=1e-12)


class TestPearson:
    def test_perfect_linearity(self):
        x = np.arange(10.0)
        res = pearson_correlation(x, 2.0 * x + 1.0)
        assert res.r == 1.0 and res.p == 0.0
        assert pearson_correlation(x, -x).r == -1.0

    def test_matches_direct_formula_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            x = rng.normal(size=30)
            y = 0.4 * x + rng.normal(size=30)
            r_ref, p_ref = oracles.pearson_r_p(x, y)
            res = pearson_correlation(x, y)
            assert res.r == pytest.approx(r_ref, abs=1e-9)
            assert res.p == pytest.approx(p_ref, abs=1e-6)

    def test_constant_vector_errors(self):
        with pytest.raises(DegenerateSampleError, match="undefined correlation"):
            pearson_correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_scale_invariance_under_positive_affine(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=25)
        y = rng.normal(size=25)
        base = pearson_correlation(x, y)
        scaled = pearson_correlation(3.5 * x + 2.0, 0.25 * y - 7.0)
        assert scaled.r == pytest.approx(base.r, abs=1e-12)
        assert scaled.p == pytest.approx(base.p, abs=1e-12)


class TestNullCalibration:
    """Rejection rate at alpha=0.05 over 1000 seeded null draws stays in
    [0.03, 0.07] for the large-sample two-sample tests."""

    @pytest.mark.parametrize("test_fn", [welch_t, f_variance, wilcoxon_rank_sum])
    def test_rejection_rate_under_null(self, test_fn):
        rng = np.random.default_rng(23)
        rejections = 0
        for _ in range(1000):
            a = rng.normal(size=50)
            b = rng.normal(size=50)
            rejections += test_fn(a, b).p_value < ALPHA
        assert 0.03 <= rejections / 1000 <= 0.07


def test_results_carry_python_scalars():
    # f_sf hands back numpy scalars; neither the TestResult nor the drift
    # flag made from its p-value may leak them
    a = np.array([0.1, 0.4, 0.2, 0.9, 0.3, 0.5])
    b = np.array([0.2, 0.2, 0.3, 0.25, 0.3, 0.2])
    for result in (levene(a, b), f_variance(a, b), welch_t(a, b)):
        assert type(result.p_value) is float

    def weekly(values):
        n = len(values)
        return WeeklyProportions(years=np.full(n, 2003), weeks=np.arange(1, n + 1),
                                 flights=np.full(n, 100), proportions=np.array(values, dtype=float))
    assert type(detect("mean_variance", weekly(a), weekly(b)).drift) is bool
