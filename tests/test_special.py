import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special as sps
from scipy import stats as ss

from driftlab import special


def test_erfc_accuracy():
    x = np.linspace(-6.0, 6.0, 2001)
    assert_allclose(special.erfc(x), sps.erfc(x), rtol=2e-7, atol=1e-12)


def test_norm_cdf_sf_complementary():
    x = np.linspace(-8, 8, 101)
    assert_allclose(special.norm_cdf(x) + special.norm_sf(x), 1.0, atol=1e-12)
    assert_allclose(special.norm_cdf(x), ss.norm.cdf(x), atol=2e-8)


def test_norm_ppf_accuracy_and_roundtrip():
    p = np.concatenate([np.array([1e-12, 1e-6, 0.02, 0.5]),
                        np.linspace(0.01, 0.99, 99), np.array([1 - 1e-9])])
    assert_allclose(special.norm_ppf(p), ss.norm.ppf(p), rtol=2e-9, atol=2e-9)
    assert special.norm_ppf(0.0) == -np.inf
    assert special.norm_ppf(1.0) == np.inf
    with pytest.raises(ValueError):
        special.norm_ppf(-0.1)


def test_betainc_against_scipy():
    rng = np.random.default_rng(1)
    for _ in range(200):
        a = float(rng.uniform(0.2, 50.0))
        b = float(rng.uniform(0.2, 50.0))
        x = float(rng.uniform(0.0, 1.0))
        assert special.betainc(a, b, x) == pytest.approx(sps.betainc(a, b, x), abs=1e-12)
    assert special.betainc(2.0, 3.0, 0.0) == 0.0
    assert special.betainc(2.0, 3.0, 1.0) == 1.0


def test_t_distribution_against_scipy():
    rng = np.random.default_rng(2)
    for _ in range(100):
        t = float(rng.normal(scale=3.0))
        df = float(rng.uniform(1.0, 200.0))
        assert special.t_sf_two_sided(t, df) == pytest.approx(2 * ss.t.sf(abs(t), df), abs=1e-12)
    assert special.t_sf_two_sided(0.0, 10) == 1.0


def test_f_distribution_against_scipy():
    rng = np.random.default_rng(3)
    for _ in range(100):
        f = float(rng.uniform(0.01, 20.0))
        d1 = float(rng.integers(1, 100))
        d2 = float(rng.integers(1, 100))
        assert special.f_cdf(f, d1, d2) == pytest.approx(ss.f.cdf(f, d1, d2), abs=1e-12)
        assert special.f_sf(f, d1, d2) == pytest.approx(ss.f.sf(f, d1, d2), abs=1e-12)
    assert special.f_cdf(0.0, 3, 4) == 0.0
    assert special.f_sf(0.0, 3, 4) == 1.0
