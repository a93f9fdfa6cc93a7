import math

import numpy as np
import pytest
from hypothesis import settings

from levelcurves.chaos import chaos_projections_quadrature, \
    second_chaos_weight
from levelcurves.geometry import boundary_functional, kac_rice_mean
from levelcurves.special import gaussian_density
from levelcurves.spectrum import MultipoleEntry, make_spectrum, sigma1_sq
from levelcurves.synthesis import HarmonicBasis, TimeGrid, \
    build_icosphere, sample_time_processes, sphere_cubature

# Property tests draw the same examples on every run and have no per-example
# deadline, so a slow core cannot fail them.  No example database is kept.
settings.register_profile("tier1", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("tier1")


def spec_from_fractions(fracs, require_monopole=True):
    """Build a spectrum from {ell: (variance_fraction, beta, alpha)}; the
    fractions are the (2 ell + 1) C_ell(0) / 4 pi shares of sigma0^2 = 1."""
    entries = [
        MultipoleEntry(ell, 4 * math.pi * f / (2 * ell + 1), beta, alpha)
        for ell, (f, beta, alpha) in fracs.items()
    ]
    return make_spectrum(entries, normalize=True,
                         require_monopole=require_monopole)


def second_chaos_hermite_form(ensemble, u):
    """Second chaos grouped as the Hermite functional of the normalized
    multipole fields, an oracle for ``second_chaos_sample_spectrum``:
    (sigma1/2) sqrt(pi/2) phi(u) sum_ell (C_ell(0)(2 ell + 1)/(4 pi))
    w_ell(u) int_0^T int_S2 H_2(Zhat_ell) dx dt, where the sphere integral
    is exact in the coefficients: int H_2(Zhat_ell) dx = (4 pi/(2 ell + 1))
    sum_m H_2(a_(ell m)/sqrt(C_ell(0)))."""
    spec = ensemble.spectrum
    s1 = math.sqrt(sigma1_sq(spec))
    dt = ensemble.grid.dt
    total = 0.0
    for e in spec.entries:
        rows = ensemble.rows_for(e.ell)
        ahat_sq = ensemble.coeffs[rows] ** 2 / e.c0
        sphere_integral = (4.0 * math.pi / (2 * e.ell + 1)) \
            * (ahat_sq - 1.0).sum(axis=0)
        time_integral = float(np.trapezoid(sphere_integral, dx=dt))
        total += (e.c0 * (2 * e.ell + 1) / (4.0 * math.pi)) \
            * second_chaos_weight(spec, e.ell, u) * time_integral
    return 0.5 * s1 * math.sqrt(math.pi / 2.0) * gaussian_density(u) * total


def kac_rice_mean_check(spec, basis, levels, seed, reps, bound=0.02,
                        max_se=0.005):
    """Mean extracted length on ``basis.mesh`` against ``kac_rice_mean``.

    Each replicate samples a two-step grid (horizon 1) and takes the
    centered boundary functional (mean of the two slice lengths minus
    Kac-Rice) on ``basis.mesh`` minus its chaos projections of orders 1-6,
    computed exactly on ``sphere_cubature(6 * ell_max)``.  Each
    projection is a weighted node sum of Hermite products of independent
    unit-variance Gaussians, so its mean is exactly zero: with the
    coefficient held at 1 (not fitted) the control variates add no bias,
    and they remove most of the replicate-to-replicate variance
    (Glasserman 2003, ch. 4).

    Passes when, at every level, the standard error is at most ``max_se``
    of Kac-Rice (so ``bound`` is at least bound / max_se SE wide) and the
    mean deviation is within ``bound`` of it.  Returns (ok, details).
    """
    grid = TimeGrid(1.0, 2)
    controls = HarmonicBasis(sphere_cubature(6 * max(spec.ells)), spec.ells)
    dev = np.empty((reps, len(levels)))
    for i, s in enumerate(np.random.SeedSequence(seed).spawn(reps)):
        ens = sample_time_processes(spec, grid, s)
        for j, u in enumerate(levels):
            proj = chaos_projections_quadrature(ens, controls, u, range(1, 7))
            dev[i, j] = boundary_functional(ens, basis, u).centered \
                - sum(proj.values())
    ok = True
    details = []
    for j, u in enumerate(levels):
        predicted = kac_rice_mean(spec, u)
        rel = dev[:, j].mean() / predicted
        se = dev[:, j].std(ddof=1) / math.sqrt(reps) / predicted
        ok = ok and se <= max_se and abs(rel) < bound
        details.append(f"u={u}: rel err {rel:+.4f}, SE {se:.4f} "
                       f"(<={max_se}), z {rel / se:+.2f}")
    return ok, details


@pytest.fixture(scope="session")
def mesh3():
    return build_icosphere(3)


@pytest.fixture(scope="session")
def mesh4():
    return build_icosphere(4)


@pytest.fixture(scope="session")
def mesh5():
    return build_icosphere(5)


@pytest.fixture(scope="session")
def mesh6():
    return build_icosphere(6)
