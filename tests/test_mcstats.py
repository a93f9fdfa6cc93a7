import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from levelcurves.mcstats import kolmogorov_sf, ks_normal, ks_two_sample

# scipy 1.17 reads the Pelz-Good asymptotic series where n > 140 and
# n d^2 < 2.2; kolmogorov_sf is exact there.  The largest relative gap,
# measured over n in [141, 600] on a grid of n d^2 (largest near n = 141,
# n d^2 = 2.2), is 2.4e-5; the gap shrinks as n grows.
PELZ_GOOD_REL = 3e-5


def _sample(seed, n, scale, shift):
    return np.random.default_rng(seed).standard_normal(n) * scale + shift


def _assert_one_sample_matches_scipy(x, p_rel):
    got = ks_normal(x)
    ref = stats.kstest(x, "norm")
    assert got.statistic == pytest.approx(ref.statistic, rel=1e-13)
    assert got.pvalue == pytest.approx(ref.pvalue, rel=p_rel, abs=1e-300)


@given(n=st.integers(2, 140), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([0.6, 1.0, 1.0, 1.4, 2.5]),
       shift=st.sampled_from([0.0, 0.0, 0.25, -0.6, 1.5]))
def test_one_sample_matches_scipy_up_to_n140(n, seed, scale, shift):
    _assert_one_sample_matches_scipy(_sample(seed, n, scale, shift), 1e-10)


@given(n=st.integers(141, 600), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([0.8, 1.0, 1.0, 1.15]),
       shift=st.sampled_from([0.0, 0.0, 0.1, -0.3]))
def test_one_sample_matches_scipy_above_n140(n, seed, scale, shift):
    _assert_one_sample_matches_scipy(_sample(seed, n, scale, shift),
                                     PELZ_GOOD_REL)


@pytest.mark.parametrize("n", [750, 1000, 3000])
def test_kolmogorov_law_at_large_n(n):
    # n!/n^n underflows a double from n = 744 on; the law must not.
    for nd2 in (0.3, 0.8, 1.5, 2.1, 2.5, 6.0, 30.0):
        d = math.sqrt(nd2 / n)
        assert kolmogorov_sf(n, d) == pytest.approx(
            float(stats.kstwo.sf(d, n)), rel=PELZ_GOOD_REL)


@given(n=st.integers(1, 140), frac=st.floats(0.0, 1.0))
def test_kolmogorov_law_matches_scipy_on_every_branch(n, frac):
    d = 0.5 / n + frac * (1.0 - 0.5 / n)
    ref = float(stats.kstwo.sf(d, n))
    assert kolmogorov_sf(n, d) == pytest.approx(ref, rel=1e-10, abs=1e-290)


@given(d=st.floats(0.5, 0.999))
def test_kolmogorov_law_at_n1_is_exact(d):
    # One draw: D = max(F(x), 1 - F(x)) is uniform on [1/2, 1].
    assert kolmogorov_sf(1, d) == pytest.approx(2.0 * (1.0 - d), rel=1e-12)


def test_kolmogorov_law_ends():
    assert kolmogorov_sf(7, 0.5 / 7) == 1.0
    assert kolmogorov_sf(7, 1.0) == 0.0
    assert kolmogorov_sf(7, 0.95) == pytest.approx(2 * 0.05**7, rel=1e-12)
    x = ks_normal([0.3])
    assert x.statistic == pytest.approx(0.5 * math.erfc(-0.3 / math.sqrt(2)))
    assert x.pvalue == pytest.approx(2.0 * (1.0 - x.statistic), rel=1e-12)


def _assert_two_sample_matches_scipy(a, b):
    got = ks_two_sample(a, b)
    with warnings.catch_warnings():
        # scipy falls back to its asymptotic law (with a warning) when its
        # own equal-size count strays above 1; the p-value is then 1.
        warnings.simplefilter("ignore", RuntimeWarning)
        ref = stats.ks_2samp(a, b)
    assert got.statistic == ref.statistic
    assert got.pvalue == pytest.approx(ref.pvalue, rel=1e-10)


@given(n1=st.integers(1, 70), n2=st.integers(1, 160),
       seed=st.integers(0, 2**32 - 1), equal=st.booleans(),
       decimals=st.sampled_from([None, 1, 0]),
       scale=st.sampled_from([1.0, 1.0, 1.6]))
def test_two_sample_matches_scipy(n1, n2, seed, equal, decimals, scale):
    if equal:
        n2 = n1
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n1)
    b = rng.standard_normal(n2) * scale
    if decimals is not None:   # ties within and across the samples
        a, b = np.round(a, decimals), np.round(b, decimals)
    _assert_two_sample_matches_scipy(a, b)


@pytest.mark.parametrize("n1, n2", [(40, 600), (600, 40), (500, 4000),
                                    (300, 300)])
def test_two_sample_matches_scipy_at_study_sizes(n1, n2):
    rng = np.random.default_rng(n1 * 7919 + n2)
    for shift in (0.0, 0.15):
        _assert_two_sample_matches_scipy(rng.standard_normal(n1) + shift,
                                         rng.standard_normal(n2))


def _gap(labels, n1, n2):
    """KS gap in units of 1/(n1 n2) of one ordering of the pooled sample."""
    c1 = np.cumsum(labels)
    c2 = np.arange(1, n1 + n2 + 1) - c1
    return int(np.abs(c1 * n2 - c2 * n1).max())


@pytest.mark.parametrize("n1, n2", [(1, 1), (1, 4), (2, 3), (3, 3), (2, 7),
                                    (3, 5), (4, 4), (4, 5), (5, 3), (5, 5)])
def test_two_sample_law_matches_enumeration(n1, n2):
    """P(D >= d) counted over all C(n1 + n2, n1) orderings."""
    n = n1 + n2
    orderings = []
    for first in itertools.combinations(range(n), n1):
        labels = np.zeros(n, dtype=int)
        labels[list(first)] = 1
        orderings.append(labels)
    gaps = np.array([_gap(labels, n1, n2) for labels in orderings])
    pooled = np.arange(n, dtype=float)
    for labels, gap in zip(orderings, gaps):
        got = ks_two_sample(pooled[labels == 1], pooled[labels == 0])
        assert got.statistic == gap / (n1 * n2)
        assert got.pvalue == pytest.approx((gaps >= gap).mean(), rel=1e-13)


def test_ks_rejects_empty_or_nonfinite_samples():
    with pytest.raises(ValueError):
        ks_normal([])
    with pytest.raises(ValueError):
        ks_normal([0.1, math.nan])
    with pytest.raises(ValueError):
        ks_two_sample([], [1.0])
    with pytest.raises(ValueError):
        ks_two_sample([1.0, math.inf], [1.0])
