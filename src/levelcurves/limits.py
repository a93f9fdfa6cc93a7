"""Limiting laws and Monte Carlo ensemble studies.

Rosenblatt sampling.  A standard Rosenblatt variable of parameter
beta in (0, 1/2) is realized as the normalized time average of the
rank-two Hermite functional of a unit-variance long-memory Gaussian path:

    X ~ lim  (sum_k H_2(xi(t_k)) dt) / sd,    Cov(xi(t), xi(s)) = (1 + |t-s|)^-beta,

where sd is the exact standard deviation of the discrete sum,
sd^2 = 2 dt^2 sum_(j,k) rho(t_j - t_k)^2, which converges to the familiar
T^(1-beta) * 2 / sqrt((1-beta)(1-2 beta)) scale.  Normalizing by the exact
finite-grid value keeps the sampler's unit-variance contract at every
admissible beta; asymptotically it coincides with the closed-form
constant.  Paths come from the same circulant-embedding machinery used
for field synthesis (the ring is oversampled by ``burn_factor`` for
numerical headroom), and every FFT draw yields two independent paths.

Composite references.  The long-memory limit of the standardized
boundary-length functional is the mixture

    sum over slowest multipoles of  C_ell(0) w_ell(u) / sqrt(v*)
        * V_(2 ell + 1)(1, ..., 1; beta*),

with v* = sum (2 ell + 1) C_ell(0)^2 w_ell(u)^2, which makes the mixture
exactly unit variance; V_N is a sum of N i.i.d. standard Rosenblatt
variables.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import mcstats
from .chaos import (
    first_chaos_projection,
    sample_power_spectrum,
    second_chaos_sample_spectrum,
    second_chaos_weight,
)
from .geometry import boundary_functional
from .spectrum import BOUNDARY, LONG_MEMORY, SHORT_MEMORY, classify_regime
from .synthesis import HarmonicBasis, TimeGrid, build_icosphere, \
    measure_replicate

__all__ = [
    "RosenblattSampler",
    "sample_rosenblatt",
    "v_star",
    "composite_reference_samples",
    "ScalingFit",
    "fit_variance_scaling",
    "DistributionReport",
    "limit_law_report",
    "BerryProfile",
    "berry_profile",
]


# ----------------------------------------------------------------------
# Rosenblatt sampling
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RosenblattSampler:
    """Configuration of the time-average Rosenblatt sampler."""

    beta: float
    n_inner: int = 2**16
    burn_factor: int = 4

    def __post_init__(self):
        if not 0.0 < self.beta < 0.5:
            raise ValueError(
                f"Rosenblatt parameter must lie in (0, 1/2), got {self.beta}"
            )
        if self.n_inner < 16:
            raise ValueError("n_inner too small")
        if self.burn_factor < 2:
            raise ValueError("burn_factor must be >= 2 for a valid embedding")


def _rosenblatt_plan(sampler):
    """Embedding eigenvalues and the exact normalizer for one sampler."""
    n = sampler.n_inner
    m_len = sampler.burn_factor * n
    k = np.arange(m_len)
    ring_lag = np.minimum(k, m_len - k)
    rho_ring = (1.0 + ring_lag.astype(float)) ** (-sampler.beta)
    lam = np.fft.fft(rho_ring).real
    lam = np.clip(lam, 0.0, None)
    root = np.sqrt(lam / m_len)
    # exact variance of sum_k H_2(xi_k): 2 sum_h (n - |h|) rho(h)^2
    h = np.arange(1, n)
    rho = (1.0 + h.astype(float)) ** (-sampler.beta)
    var_sum = 2.0 * (n + 2.0 * ((n - h) * rho**2).sum())
    return root, m_len, math.sqrt(var_sum)


_FFT_BUFFER_BYTES = 1 << 23    # complex FFT input of one batch of draws


def sample_rosenblatt(sampler, count, seed):
    """``count`` independent standard (zero-mean, unit-variance)
    Rosenblatt draws.

    FFTs run in place on batches while a second thread draws the next
    batch's normals; each draw consumes a fixed contiguous run of the
    generator stream, so results do not depend on the batch size.  All
    buffers are allocated once per call: first-touch page faults of fresh
    arrays would serialize the two threads.
    """
    count = int(count)
    if count <= 0:
        return np.empty(0)
    root, m_len, sd = _rosenblatt_plan(sampler)
    rng = np.random.default_rng(seed)
    n = sampler.n_inner
    n_fft = (count + 1) // 2
    batch = max(1, min(n_fft, _FFT_BUFFER_BYTES // (16 * m_len)))
    normals = np.empty((2, batch, 2, m_len))
    z = np.empty((batch, m_len), dtype=complex)
    sq = np.empty((batch, n))
    out = np.empty(2 * n_fft)
    with ThreadPoolExecutor(max_workers=1) as pool:
        def draw(start):
            g = normals[start // batch % 2, :min(batch, n_fft - start)]
            return pool.submit(rng.standard_normal, g.shape, out=g)

        pending = draw(0)
        for start in range(0, n_fft, batch):
            g = pending.result()
            if start + batch < n_fft:
                pending = draw(start + batch)
            b = g.shape[0]
            np.multiply(root, g[:, 0], out=z.real[:b])
            np.multiply(root, g[:, 1], out=z.imag[:b])
            np.fft.fft(z[:b], axis=1, out=z[:b])
            for part, offset in ((z.real, 0), (z.imag, 1)):
                np.multiply(part[:b, :n], part[:b, :n], out=sq[:b])
                out[2 * start + offset:2 * (start + b):2] = \
                    (sq[:b].sum(axis=1) - n) / sd
    return out[:count]


# ----------------------------------------------------------------------
# Composite reference for the long-memory limit
# ----------------------------------------------------------------------

def v_star(spectrum, u):
    """Normalizer of the long-memory limit mixture,
    sum over slowest multipoles of (2 ell + 1) C_ell(0)^2 w_ell(u)^2."""
    report = classify_regime(spectrum)
    total = 0.0
    for ell in report.i_star:
        e = spectrum.entry(ell)
        w = second_chaos_weight(spectrum, ell, u)
        total += (2 * ell + 1) * e.c0**2 * w * w
    return total


def composite_reference_samples(spectrum, u, count, seed, n_inner=2**16):
    """Draws from the limit mixture of the standardized functional under
    long memory: unit variance by construction of v*."""
    report = classify_regime(spectrum)
    if report.regime != LONG_MEMORY:
        raise ValueError("the composite Rosenblatt reference applies to the "
                         "long-memory regime only")
    norm = math.sqrt(v_star(spectrum, u))
    sampler = RosenblattSampler(beta=report.beta_star, n_inner=n_inner)
    rng_seeds = mcstats.replicate_seeds(seed, len(report.i_star))
    out = np.zeros(count)
    for ell, s in zip(report.i_star, rng_seeds):
        e = spectrum.entry(ell)
        w = second_chaos_weight(spectrum, ell, u)
        draws = sample_rosenblatt(sampler, count * (2 * ell + 1), s)
        block = draws.reshape(2 * ell + 1, count).sum(axis=0)
        out += (e.c0 * w / norm) * block
    return out


# ----------------------------------------------------------------------
# Replicate measures (top level so they pickle for workers)
# ----------------------------------------------------------------------

def _centered_length(basis, u, ensemble):
    return boundary_functional(ensemble, basis, u).centered


def _functional_measure(spectrum, u, functional, mesh_level):
    """The per-ensemble measure of a named functional."""
    if functional == "chaos2":
        return partial(second_chaos_sample_spectrum, u=u)
    if functional == "chaos1":
        return partial(first_chaos_projection, u=u)
    if functional == "length":
        basis = HarmonicBasis(build_icosphere(mesh_level), spectrum.ells)
        return partial(_centered_length, basis, u)
    raise ValueError(f"unknown functional {functional!r}")


# ----------------------------------------------------------------------
# Variance-scaling fits
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingFit:
    """Weighted log-log fit of ensemble variances against the horizon."""

    horizons: tuple
    variances: tuple
    variance_ses: tuple
    fitted_exponent: float
    exponent_se: float
    functional: str


def fit_variance_scaling(spectrum, u, horizons, replicates, seed,
                         functional="chaos2", mesh_level=3, dt=0.25,
                         workers=1):
    """Ensemble variances of the chosen functional on a horizon ladder and
    the fitted power-law exponent.

    ``functional`` picks the replicate kernel: "chaos2" (sample-spectrum
    second chaos, no mesh), "chaos1" (first chaos, no mesh), or "length"
    (full synthesis -> isoline -> time-average pipeline).
    """
    horizons = sorted(float(t) for t in horizons)
    if len(horizons) < 4:
        raise ValueError("scaling fits need a ladder of at least 4 horizons")
    if any(b >= a for a, b in zip(horizons[1:], horizons[:-1])):
        raise ValueError("horizon ladder must be strictly increasing")
    master = np.random.SeedSequence(int(seed))
    ladder_seeds = master.spawn(len(horizons))
    measure = _functional_measure(spectrum, u, functional, mesh_level)
    variances, ses = [], []
    for t_idx, horizon in enumerate(horizons):
        grid = TimeGrid.for_horizon(horizon, dt)
        kernel = partial(measure_replicate, spectrum, grid, measure)
        vals = np.array(mcstats.replicate_map(kernel, ladder_seeds[t_idx],
                                              replicates, workers=workers))
        var, se = mcstats.variance_with_bootstrap_se(vals, seed=t_idx)
        variances.append(var)
        ses.append(se)
    fit = mcstats.fit_loglog(horizons, variances, ses)
    return ScalingFit(
        horizons=tuple(horizons),
        variances=tuple(variances),
        variance_ses=tuple(ses),
        fitted_exponent=fit.slope,
        exponent_se=fit.slope_se,
        functional=functional,
    )


# ----------------------------------------------------------------------
# Limit-law tests
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DistributionReport:
    """Kolmogorov-Smirnov comparison of the standardized functional
    against its regime's limit law.

    Samples are standardized by the ensemble's own mean and standard
    deviation (the empirical mean removes the small mesh-induced centering
    offset; in the continuum the functional is exactly centered).  Under
    long memory the report also carries the Gaussian power check: the same
    samples tested against N(0, 1), which should fail.

    The p-values are the exact finite-sample KS laws of ``mcstats``: the
    Durbin-matrix law of the one-sample statistic (Marsaglia, Tsang & Wang
    2003) with the Birnbaum-Tingey sum in its tail, and Hodges' (1958)
    lattice-path count for the two-sample statistic.  They are nominal
    p-values: their null distributions assume a fixed law, not one
    standardized by the sample's own mean and SD, so they are conservative
    (Lilliefors 1967) -- too large under the null, and a check that
    requires p < alpha rejects less often than alpha suggests.
    """

    regime: str
    level: float
    horizon: float
    standardized: np.ndarray
    reference: np.ndarray | None
    ks_statistic: float
    ks_pvalue: float
    passed: bool
    alpha: float
    gaussian_ks_statistic: float | None = None
    gaussian_ks_pvalue: float | None = None
    gaussian_rejected: bool | None = None


def limit_law_report(spectrum, u, horizon, replicates, seed,
                     mesh_level=3, dt=1.0, alpha=0.01, reference_size=4000,
                     n_inner=2**16, workers=1):
    """Monte Carlo test of the limiting law of the standardized functional.

    Short memory: one-sample KS against N(0, 1).  Long memory: two-sample
    KS against the composite-Rosenblatt reference, plus the Gaussian power
    check.  The boundary regime has no stated limit and is refused.

    The sample is standardized by its own mean and SD before the KS tests
    run, and the reported p-values are the nominal ones
    (``mcstats.ks_normal`` and ``mcstats.ks_two_sample``), so they are
    conservative; see ``DistributionReport``.  Fewer than two replicates,
    or a sample of zero spread, cannot be standardized and raise
    ``ValueError``.
    """
    if replicates < 2:
        raise ValueError("a limit-law test needs at least two replicates")
    report = classify_regime(spectrum)
    if report.regime == BOUNDARY:
        raise ValueError(
            "spectrum sits on the regime boundary (neither 2 beta* < "
            "min(beta0, 1) nor beta0 = 1 with all 2 beta > 1); no limit "
            "law is available"
        )
    if report.regime == LONG_MEMORY and reference_size < 1:
        raise ValueError("the Rosenblatt reference needs reference_size >= 1")
    grid = TimeGrid.for_horizon(horizon, dt)
    kernel = partial(measure_replicate, spectrum, grid,
                     _functional_measure(spectrum, u, "length", mesh_level))
    master = np.random.SeedSequence(int(seed))
    pipe_seed, ref_seed = master.spawn(2)
    vals = np.array(mcstats.replicate_map(kernel, pipe_seed, replicates,
                                          workers=workers))
    sd = vals.std(ddof=1)
    if not sd > 0.0:
        raise ValueError("the functional has zero spread over the replicates; "
                         "it cannot be standardized")
    standardized = (vals - vals.mean()) / sd

    if report.regime == SHORT_MEMORY:
        ks = mcstats.ks_normal(standardized)
        return DistributionReport(
            regime=report.regime, level=float(u), horizon=grid.horizon,
            standardized=standardized, reference=None,
            ks_statistic=ks.statistic, ks_pvalue=ks.pvalue,
            passed=bool(ks.pvalue > alpha), alpha=alpha,
        )

    reference = composite_reference_samples(spectrum, u, reference_size,
                                            ref_seed, n_inner=n_inner)
    ks = mcstats.ks_two_sample(standardized, reference)
    gauss = mcstats.ks_normal(standardized)
    return DistributionReport(
        regime=report.regime, level=float(u), horizon=grid.horizon,
        standardized=standardized, reference=reference,
        ks_statistic=ks.statistic, ks_pvalue=ks.pvalue,
        passed=bool(ks.pvalue > alpha), alpha=alpha,
        gaussian_ks_statistic=gauss.statistic,
        gaussian_ks_pvalue=gauss.pvalue,
        gaussian_rejected=bool(gauss.pvalue < alpha),
    )


# ----------------------------------------------------------------------
# Berry variance profile
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BerryProfile:
    """Second-chaos variance across a grid of levels, with the predicted
    long-memory constants as overlay and the located minimum."""

    levels: tuple
    variances: tuple
    variance_ses: tuple
    predicted_constants: tuple
    min_level: float
    predicted_cancellation: float | None


def _centered_spectrum_integrals(ensemble):
    return [sample_power_spectrum(ensemble, e.ell).centered_integral
            for e in ensemble.spectrum.entries]


def berry_profile(spectrum, u_grid, horizon, replicates, seed, dt=0.25,
                  workers=1):
    """Variance of the second chaos across levels.

    The centered sample-spectrum integrals are level-independent, so one
    ensemble serves the whole grid; only the level weights and the
    Gaussian density factor vary with u.
    """
    from .chaos import asymptotic_variance_constants
    from .special import gaussian_density
    from .spectrum import sigma1_sq

    u_grid = [float(u) for u in u_grid]
    if not u_grid:
        raise ValueError("u_grid must hold at least one level")
    grid = TimeGrid.for_horizon(horizon, dt)
    kernel = partial(measure_replicate, spectrum, grid,
                     _centered_spectrum_integrals)
    rows = np.array(mcstats.replicate_map(kernel, seed, replicates,
                                          workers=workers))
    s1 = math.sqrt(sigma1_sq(spectrum))
    variances, ses, preds = [], [], []
    for u in u_grid:
        weights = np.array(
            [(2 * e.ell + 1) * second_chaos_weight(spectrum, e.ell, u)
             for e in spectrum.entries]
        )
        samples = 0.5 * s1 * math.sqrt(math.pi / 2.0) * gaussian_density(u) \
            * (rows @ weights)
        var, se = mcstats.variance_with_bootstrap_se(samples, seed=17)
        variances.append(var)
        ses.append(se)
        consts = asymptotic_variance_constants(spectrum, u)
        preds.append(consts.long_constant)
    report = classify_regime(spectrum)
    cancel = report.berry_levels[1] if report.berry_levels else None
    min_level = u_grid[int(np.argmin(variances))]
    return BerryProfile(
        levels=tuple(u_grid),
        variances=tuple(variances),
        variance_ses=tuple(ses),
        predicted_constants=tuple(preds),
        min_level=min_level,
        predicted_cancellation=cancel,
    )
