import math
import threading

import numpy as np
import pytest
from scipy import stats

from conftest import spec_from_fractions
from levelcurves import limits
from levelcurves.limits import (
    BerryProfile,
    DistributionReport,
    RosenblattSampler,
    berry_profile,
    composite_reference_samples,
    fit_variance_scaling,
    limit_law_report,
    sample_rosenblatt,
    v_star,
)
from levelcurves.chaos import second_chaos_weight
from levelcurves.spectrum import classify_regime


def _moment_se(x, power):
    m = x**power
    return m.std(ddof=1) / math.sqrt(x.size)


# ----------------------------------------------------------------------
# Rosenblatt sampler
# ----------------------------------------------------------------------

def test_sampler_validation():
    with pytest.raises(ValueError):
        RosenblattSampler(beta=0.5)
    with pytest.raises(ValueError):
        RosenblattSampler(beta=0.0)
    with pytest.raises(ValueError):
        RosenblattSampler(beta=0.2, burn_factor=1)


def test_rosenblatt_moments():
    sampler = RosenblattSampler(beta=0.3, n_inner=2**13)
    x = sample_rosenblatt(sampler, 10_000, 17)
    assert abs(x.mean()) < 4 * x.std(ddof=1) / 100.0
    var = x.var(ddof=1)
    se_var = _moment_se(x - x.mean(), 2)
    assert abs(var - 1.0) < 4 * se_var


def test_rosenblatt_skewness_positive_and_sampler_consistent():
    base = RosenblattSampler(beta=0.3, n_inner=2**12)
    fine = RosenblattSampler(beta=0.3, n_inner=2**13)
    xa = sample_rosenblatt(base, 8000, 23)
    xb = sample_rosenblatt(fine, 8000, 29)

    def skew_and_se(x):
        z = (x - x.mean()) / x.std(ddof=1)
        return z.mean() * 0 + (z**3).mean(), (z**3).std(ddof=1) / math.sqrt(x.size)

    sa, se_a = skew_and_se(xa)
    sb, se_b = skew_and_se(xb)
    assert sa > 4 * se_a  # clearly right-skewed
    assert abs(sa - sb) < 4 * math.hypot(se_a, se_b)


def test_rosenblatt_shape_stable_under_inner_refinement():
    # doubling n_inner moves the two-sample KS statistic by < 0.02
    a = sample_rosenblatt(RosenblattSampler(beta=0.2, n_inner=2**12), 10_000, 5)
    b = sample_rosenblatt(RosenblattSampler(beta=0.2, n_inner=2**13), 10_000, 6)
    ks = stats.ks_2samp(a, b)
    assert ks.statistic < 0.02


def test_rosenblatt_determinism():
    sampler = RosenblattSampler(beta=0.25, n_inner=2**10)
    x1 = sample_rosenblatt(sampler, 101, 9)
    x2 = sample_rosenblatt(sampler, 101, 9)
    assert np.array_equal(x1, x2)


# ----------------------------------------------------------------------
# Composite references
# ----------------------------------------------------------------------

def _oracle_sample_rosenblatt(sampler, count, seed, batch=None):
    """The single-threaded sampler that drew each batch's normals into a
    fresh array (default batch: 64 MB of normals), as an oracle."""
    root, m_len, sd = limits._rosenblatt_plan(sampler)
    rng = np.random.default_rng(seed)
    n = sampler.n_inner
    n_fft = (count + 1) // 2
    batch = batch or max(1, min(n_fft, 64_000_000 // (32 * m_len)))
    out = np.empty(2 * n_fft)
    done = 0
    while done < n_fft:
        b = min(batch, n_fft - done)
        g = rng.standard_normal((b, 2, m_len))
        w = np.fft.fft(root * (g[:, 0, :] + 1j * g[:, 1, :]), axis=1)
        xi_re = w.real[:, :n]
        xi_im = w.imag[:, :n]
        out[2 * done:2 * (done + b):2] = \
            ((xi_re * xi_re).sum(axis=1) - n) / sd
        out[2 * done + 1:2 * (done + b) + 1:2] = \
            ((xi_im * xi_im).sum(axis=1) - n) / sd
        done += b
    return out[:count]


def _batch(sampler):
    return limits._FFT_BUFFER_BYTES // (16 * sampler.burn_factor
                                        * sampler.n_inner)


def test_rosenblatt_matches_single_threaded_oracle():
    sampler = RosenblattSampler(beta=0.2, n_inner=2**10)
    b = _batch(sampler)   # FFTs per batch; each FFT gives two draws
    counts = (1, 2, 3, 2 * b - 2, 2 * b - 1, 2 * b, 2 * b + 1, 2 * b + 2,
              2 * b + 3, 10 * b + 3)
    for seed in (5, 6):
        for count in counts:
            x = sample_rosenblatt(sampler, count, seed)
            assert x.shape == (count,)
            for oracle_batch in (None, 4, 8, 30):
                assert np.array_equal(x, _oracle_sample_rosenblatt(
                    sampler, count, seed, oracle_batch)), (seed, count)


@pytest.mark.parametrize("fail_at", [1, 3])
def test_rosenblatt_generator_error_reaches_caller(monkeypatch, fail_at):
    # the normals are drawn on a second thread; its error must surface in
    # the caller, and the thread must be gone afterwards
    real_rng = np.random.default_rng

    class FailingGenerator:
        def __init__(self, seed):
            self.rng = real_rng(seed)
            self.calls = 0

        def standard_normal(self, *args, **kwargs):
            self.calls += 1
            if self.calls == fail_at:
                raise RuntimeError("generator failed")
            return self.rng.standard_normal(*args, **kwargs)

    sampler = RosenblattSampler(beta=0.2, n_inner=2**10)
    baseline = threading.active_count()
    monkeypatch.setattr(limits.np.random, "default_rng", FailingGenerator)
    with pytest.raises(RuntimeError, match="generator failed"):
        sample_rosenblatt(sampler, 8 * _batch(sampler), 1)
    assert threading.active_count() == baseline
    monkeypatch.undo()
    sample_rosenblatt(sampler, 8 * _batch(sampler), 1)
    assert threading.active_count() == baseline


def test_reference_mixture_variance_matches_v_star():
    spec = spec_from_fractions({0: (0.26, 1.0, 2.2), 1: (0.65, 0.2, None),
                                5: (0.09, 0.9, None)})
    u = 0.0
    # v* formula value
    rep = classify_regime(spec)
    expected = sum(
        (2 * ell + 1) * spec.entry(ell).c0 ** 2
        * second_chaos_weight(spec, ell, u) ** 2
        for ell in rep.i_star
    )
    assert v_star(spec, u) == pytest.approx(expected, rel=1e-13)
    # the mixture built from it has unit variance
    samples = composite_reference_samples(spec, u, 20_000, 7, n_inner=2**11)
    assert samples.var(ddof=1) == pytest.approx(1.0, abs=0.1)
    assert abs(samples.mean()) < 4 * samples.std() / math.sqrt(20_000)


def test_reference_mixture_requires_long_memory():
    short = spec_from_fractions({0: (0.5, 1.0, 2.0), 2: (0.5, 0.9, None)})
    with pytest.raises(ValueError):
        composite_reference_samples(short, 0.0, 10, 1)


# ----------------------------------------------------------------------
# Variance-scaling fits
# ----------------------------------------------------------------------

def test_fit_first_chaos_long_memory_exponent():
    spec = spec_from_fractions({0: (0.6, 0.4, None), 2: (0.4, 0.9, None)})
    fit = fit_variance_scaling(spec, 1.0, [250, 500, 1000, 2000],
                               replicates=600, seed=100, functional="chaos1",
                               dt=0.5)
    assert fit.functional == "chaos1"
    assert abs(fit.fitted_exponent - 1.6) < 0.1  # 2 - beta_0


def test_fit_second_chaos_short_memory_is_linear():
    spec = spec_from_fractions({0: (0.4, 1.0, 2.0), 2: (0.35, 1.0, 2.5),
                                3: (0.25, 1.0, 3.0)})
    fit = fit_variance_scaling(spec, 0.5, [250, 500, 1000, 2000],
                               replicates=600, seed=200, functional="chaos2",
                               dt=0.5)
    assert 0.85 <= fit.fitted_exponent <= 1.15


def test_fit_validation_and_degenerate_variance():
    spec = spec_from_fractions({0: (0.6, 0.4, None), 2: (0.4, 0.9, None)})
    with pytest.raises(ValueError, match="ladder"):
        fit_variance_scaling(spec, 0.5, [100, 200, 300], 50, 1)
    with pytest.raises(ValueError, match="increasing"):
        fit_variance_scaling(spec, 0.5, [100, 100, 200, 300], 50, 1)
    # u = 0 makes every first-chaos sample exactly zero
    with pytest.raises(ValueError, match="distinct"):
        fit_variance_scaling(spec, 0.0, [50, 100, 200, 400], replicates=20,
                             seed=3, functional="chaos1")


# ----------------------------------------------------------------------
# Limit-law reports (structural; full-power runs live in the acceptance
# suite)
# ----------------------------------------------------------------------

def test_limit_law_refuses_boundary_regime():
    boundary = spec_from_fractions({0: (0.5, 0.5, None), 1: (0.5, 0.3, None)})
    with pytest.raises(ValueError, match="boundary"):
        limit_law_report(boundary, 0.5, 50.0, 20, 1, mesh_level=2)


def test_limit_law_rejects_too_few_replicates():
    spec = spec_from_fractions({0: (0.4, 1.0, 2.0), 2: (0.6, 1.0, 2.5)})
    for replicates in (0, 1):
        with pytest.raises(ValueError, match="two replicates"):
            limit_law_report(spec, 0.5, 50.0, replicates, 1, mesh_level=2)


def test_limit_law_rejects_zero_spread(monkeypatch):
    spec = spec_from_fractions({0: (0.4, 1.0, 2.0), 2: (0.6, 1.0, 2.5)})
    monkeypatch.setattr(limits.mcstats, "replicate_map",
                        lambda fn, seed, count, workers=1: [3.0] * count)
    with pytest.raises(ValueError, match="zero spread"):
        limit_law_report(spec, 0.5, 50.0, 8, 1, mesh_level=2)


def test_limit_law_rejects_empty_reference():
    spec = spec_from_fractions({0: (0.26, 1.0, 2.2), 1: (0.74, 0.2, None)})
    with pytest.raises(ValueError, match="reference_size"):
        limit_law_report(spec, 0.0, 50.0, 8, 1, mesh_level=2,
                         reference_size=0)


def test_limit_law_short_memory_smoke():
    spec = spec_from_fractions({0: (0.4, 1.0, 2.0), 2: (0.35, 1.0, 2.5),
                                3: (0.25, 1.0, 3.0)})
    rep = limit_law_report(spec, 0.5, 150.0, 60, 11, mesh_level=2, dt=1.0)
    assert rep.regime == "short-memory"
    assert rep.reference is None
    assert rep.standardized.shape == (60,)
    assert rep.standardized.var(ddof=1) == pytest.approx(1.0, rel=1e-12)
    assert abs(rep.standardized.mean()) < 1e-12
    assert 0.0 <= rep.ks_pvalue <= 1.0
    rep2 = limit_law_report(spec, 0.5, 150.0, 60, 11, mesh_level=2, dt=1.0)
    assert np.array_equal(rep.standardized, rep2.standardized)


def test_limit_law_long_memory_smoke():
    spec = spec_from_fractions({0: (0.26, 1.0, 2.2), 1: (0.65, 0.2, None),
                                5: (0.09, 0.9, None)})
    rep = limit_law_report(spec, 0.0, 150.0, 50, 13, mesh_level=2, dt=1.0,
                           reference_size=500, n_inner=2**11)
    assert rep.regime == "long-memory"
    assert rep.reference.shape == (500,)
    assert rep.gaussian_ks_pvalue is not None


# ----------------------------------------------------------------------
# Berry profiles
# ----------------------------------------------------------------------

def test_berry_profile_structure_and_minimum():
    spec = spec_from_fractions({0: (0.35, 1.0, 2.2), 1: (0.5, 0.2, None),
                                4: (0.15, 0.9, None)})
    rep = classify_regime(spec)
    u_star = rep.berry_levels[1]
    grid = sorted(set(np.round(np.arange(0, 1.21, 0.1), 10)) | {u_star})
    prof = berry_profile(spec, grid, horizon=200.0, replicates=500, seed=77,
                         dt=0.5)
    assert isinstance(prof, BerryProfile)
    assert prof.predicted_cancellation == pytest.approx(u_star)
    assert len(prof.variances) == len(grid)
    assert abs(prof.min_level - u_star) <= 0.1 + 1e-9
    # predicted overlay vanishes at the cancellation level
    k = prof.levels.index(u_star)
    assert prof.predicted_constants[k] == pytest.approx(0.0, abs=1e-18)


def test_berry_profile_deterministic():
    spec = spec_from_fractions({0: (0.35, 1.0, 2.2), 1: (0.5, 0.2, None)})
    p1 = berry_profile(spec, [0.0, 0.5, 1.0], 50.0, 100, seed=5, dt=0.5)
    p2 = berry_profile(spec, [0.0, 0.5, 1.0], 50.0, 100, seed=5, dt=0.5)
    assert p1.variances == p2.variances


def test_berry_profile_rejects_an_empty_level_list_before_sampling(
        monkeypatch):
    spec = spec_from_fractions({0: (0.35, 1.0, 2.2), 1: (0.5, 0.2, None)})

    def no_sampling(*args, **kwargs):
        raise AssertionError("replicates were sampled")

    monkeypatch.setattr(limits.mcstats, "replicate_map", no_sampling)
    with pytest.raises(ValueError, match="at least one level"):
        berry_profile(spec, [], 50.0, 40, seed=5, dt=0.5)
