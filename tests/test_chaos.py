import functools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import second_chaos_hermite_form, spec_from_fractions
from levelcurves.chaos import (
    asymptotic_variance_constants,
    chaos_projections_quadrature,
    chaos_table,
    first_chaos_projection,
    higher_chaos_tail_estimate,
    level_hermite_coeff,
    norm_expansion_poly,
    norm_hermite_coeff,
    sample_power_spectrum,
    second_chaos_sample_spectrum,
    second_chaos_variance_exact,
    second_chaos_weight,
)
from levelcurves.geometry import boundary_functional
from levelcurves.special import gaussian_density
from levelcurves.spectrum import (
    MultipoleEntry,
    classify_regime,
    make_spectrum,
    multipole_cov,
    sigma1_sq,
)
from levelcurves.synthesis import HarmonicBasis, SphereCubature, TimeGrid, \
    build_icosphere, sample_time_processes, sphere_cubature

LONG_SPEC = None
SHORT_SPEC = None


def setup_module():
    global LONG_SPEC, SHORT_SPEC
    LONG_SPEC = spec_from_fractions({0: (0.3, 0.9, None), 1: (0.45, 0.3, None),
                                     3: (0.25, 0.8, None)})
    SHORT_SPEC = spec_from_fractions({0: (0.4, 1.0, 2.0), 2: (0.35, 1.0, 2.5),
                                      3: (0.25, 1.0, 3.0)})


# ----------------------------------------------------------------------
# Expansion coefficients
# ----------------------------------------------------------------------

def test_norm_expansion_poly_values():
    assert norm_expansion_poly(0, 123.4) == 1.0
    assert norm_expansion_poly(1, 0.25) == pytest.approx(0.5, abs=1e-15)
    # high-precision oracle: exact rational evaluation
    exact = norm_expansion_poly(2, Fraction(1, 4))
    assert exact == Fraction(-1, 8)
    assert norm_expansion_poly(2, 0.25) == pytest.approx(float(exact), rel=1e-14)
    for order in range(8):
        exact = float(norm_expansion_poly(order, Fraction(1, 4)))
        assert norm_expansion_poly(order, 0.25) == pytest.approx(exact, rel=1e-12)


def test_norm_hermite_coeff_exact_values():
    assert norm_hermite_coeff(0, 0) == math.sqrt(math.pi / 2)
    assert norm_hermite_coeff(2, 0) == 0.5 * math.sqrt(math.pi / 2)
    assert norm_hermite_coeff(1, 2) == 0.0
    assert norm_hermite_coeff(3, 3) == 0.0
    for n in range(0, 7, 2):
        for m in range(0, 7, 2):
            assert norm_hermite_coeff(n, m) == norm_hermite_coeff(m, n)


def test_norm_hermite_coeff_monte_carlo_oracle():
    rng = np.random.default_rng(515)
    g = rng.standard_normal((10**6, 2))
    norms = np.hypot(g[:, 0], g[:, 1])
    se = norms.std(ddof=1) / 1000.0
    assert abs(norms.mean() - math.sqrt(math.pi / 2)) < 4 * se


def test_chaos_table_weights():
    u = 0.8
    s1 = 1.7
    table = chaos_table(u, 4, sigma1=s1)
    phi = gaussian_density(u)
    expected_200 = s1 * math.sqrt(math.pi / 2) * phi * (u * u - 1) / 2.0
    assert table.weight(2, 0, 0) == pytest.approx(expected_200, rel=1e-14)
    expected_222 = s1 * 0.5 * math.sqrt(math.pi / 2) * phi / 2.0
    assert table.weight(2, 2, 2) == pytest.approx(expected_222, rel=1e-14)
    # odd alpha arguments vanish
    for q in range(5):
        for m in range(q + 1):
            for k in range(m + 1):
                if k % 2 or (m - k) % 2:
                    assert table.weight(q, m, k) == 0.0
    assert level_hermite_coeff(2, u) == pytest.approx(phi * (u * u - 1),
                                                      rel=1e-14)
    with pytest.raises(ValueError):
        chaos_table(0.0, 13)


def test_chaos_table_alpha_is_cached_read_only_and_exact():
    for q_max in range(13):
        fresh = np.zeros((q_max + 1, q_max + 1))
        for n in range(q_max + 1):
            for m in range(q_max + 1):
                fresh[n, m] = norm_hermite_coeff(n, m)
        alpha = chaos_table(0.3, q_max).alpha
        assert np.array_equal(alpha, fresh)
        assert chaos_table(-1.1, q_max, sigma1=2.0).alpha is alpha
        with pytest.raises(ValueError, match="read-only"):
            alpha[0, 0] = 1.0


# ----------------------------------------------------------------------
# Sample power spectrum
# ----------------------------------------------------------------------

def test_sample_power_spectrum_mean_and_monopole():
    grid = TimeGrid(0.5, 41)
    reps = 400
    means = []
    for s in np.random.SeedSequence(31).spawn(reps):
        ens = sample_time_processes(LONG_SPEC, grid, s)
        means.append(sample_power_spectrum(ens, 1).values.mean())
    means = np.asarray(means)
    se = means.std(ddof=1) / math.sqrt(reps)
    assert abs(means.mean() - LONG_SPEC.entry(1).c0) < 4 * se

    ens = sample_time_processes(LONG_SPEC, grid, 77)
    path = sample_power_spectrum(ens, 0)
    assert np.allclose(path.values, ens.path(0, 0) ** 2)
    assert np.all(path.values >= 0)
    with pytest.raises(ValueError):
        sample_power_spectrum(ens, 2)


def test_sample_power_spectrum_equals_multipole_energy(mesh5):
    # (2l+1) Chat_l(t) = integral of Z_l^2 over the sphere
    basis = HarmonicBasis(mesh5, LONG_SPEC.ells)
    grid = TimeGrid(0.5, 3)
    ens = sample_time_processes(LONG_SPEC, grid, 99)
    for ell in (1, 3):
        path = sample_power_spectrum(ens, ell)
        cols, rows = basis.columns_for(ell), ens.rows_for(ell)
        for k in range(grid.n_steps):
            z_ell = basis.y[:, cols] @ ens.coeffs[rows, k]
            quad = float(mesh5.vertex_weights @ z_ell**2)
            assert quad == pytest.approx((2 * ell + 1) * path.values[k],
                                         rel=1e-3)


# ----------------------------------------------------------------------
# Closed-form projections
# ----------------------------------------------------------------------

def test_first_chaos_zero_at_zero_level_and_linearity():
    grid = TimeGrid(0.25, 81)
    ens = sample_time_processes(LONG_SPEC, grid, 5)
    assert first_chaos_projection(ens, 0.0) == 0.0
    doubled = replace(ens, coeffs=2.0 * ens.coeffs)
    assert first_chaos_projection(doubled, 0.7) == pytest.approx(
        2.0 * first_chaos_projection(ens, 0.7), rel=1e-14)
    mono = make_spectrum([MultipoleEntry(2, 1.0, 0.5)], require_monopole=False)
    ens2 = sample_time_processes(mono, grid, 5)
    with pytest.raises(ValueError):
        first_chaos_projection(ens2, 0.5)


def test_first_chaos_variance_matches_closed_form():
    # exact finite-horizon variance: (sigma1 sqrt(2) pi u phi(u))^2 *
    # double time integral of C_0, via quadrature
    from scipy import integrate

    spec = spec_from_fractions({0: (0.5, 0.4, None), 2: (0.5, 0.8, None)})
    grid = TimeGrid(0.25, 401)
    T = grid.horizon
    u = 1.0
    reps = 1500
    vals = np.array([
        first_chaos_projection(sample_time_processes(spec, grid, s), u)
        for s in np.random.SeedSequence(2027).spawn(reps)
    ])
    e0 = spec.entry(0)
    inner = 2 * integrate.quad(
        lambda tau: (T - tau) * e0.c0 * (1 + tau) ** (-e0.beta), 0, T,
        limit=400)[0]
    k = math.sqrt(spec.sigma1_sq) * math.sqrt(2.0) * math.pi * u \
        * gaussian_density(u)
    expected = k * k * inner
    assert vals.var(ddof=1) == pytest.approx(expected, rel=0.15)
    assert abs(vals.mean()) < 4 * vals.std(ddof=1) / math.sqrt(reps)


def test_second_chaos_spectral_equals_hermite_form():
    grid = TimeGrid(0.25, 201)
    for seed in (1, 2, 3):
        ens = sample_time_processes(LONG_SPEC, grid, seed)
        for u in (0.0, 0.5, 1.3):
            a = second_chaos_sample_spectrum(ens, u)
            b = second_chaos_hermite_form(ens, u)
            assert a == pytest.approx(b, rel=1e-10)


def test_second_chaos_monochromatic_reduction():
    # single multipole: the projection collapses to
    # sqrt(lambda/2) (1/2) sqrt(pi/2) u^2 phi(u) int int H_2(Z_ell)
    ell = 2
    mono = make_spectrum([MultipoleEntry(ell, 1.0, 0.3)], require_monopole=False)
    grid = TimeGrid(0.25, 201)
    ens = sample_time_processes(mono, grid, 9)
    u = 0.85
    rows = ens.rows_for(ell)
    e = mono.entry(ell)
    ahat_sq = ens.coeffs[rows] ** 2 / e.c0
    sphere_h2 = (4 * math.pi / (2 * ell + 1)) * (ahat_sq - 1.0).sum(axis=0)
    time_int = np.trapezoid(sphere_h2, dx=grid.dt)
    lam = ell * (ell + 1)
    expected = math.sqrt(lam / 2.0) * 0.5 * math.sqrt(math.pi / 2) \
        * u * u * gaussian_density(u) * (2 * ell + 1) * e.c0 / (4 * math.pi) \
        * time_int
    assert second_chaos_sample_spectrum(ens, u) == pytest.approx(expected,
                                                                 rel=1e-10)


def test_second_chaos_weight_structure():
    # weight is affine in u^2 with unit slope, and vanishes exactly at the
    # cancellation level
    spec = spec_from_fractions({0: (0.35, 1.0, 2.2), 1: (0.5, 0.2, None),
                                4: (0.15, 0.9, None)})
    for ell in (0, 1, 4):
        w0 = second_chaos_weight(spec, ell, 0.0)
        for u in (0.3, 0.9, 1.7):
            assert second_chaos_weight(spec, ell, u) - u * u == pytest.approx(
                w0, rel=1e-12)
    rep = classify_regime(spec)
    u_star = rep.berry_levels[1]
    assert second_chaos_weight(spec, rep.ell_star, u_star) == pytest.approx(
        0.0, abs=1e-14)


def test_perfect_correlation_with_sample_spectrum_monochromatic():
    mono = make_spectrum([MultipoleEntry(2, 1.0, 0.25)], require_monopole=False)
    grid = TimeGrid(0.25, 401)
    u = 0.6
    xs, ys = [], []
    for s in np.random.SeedSequence(41).spawn(60):
        ens = sample_time_processes(mono, grid, s)
        xs.append(second_chaos_sample_spectrum(ens, u))
        ys.append(sample_power_spectrum(ens, 2).centered_integral)
    corr = np.corrcoef(xs, ys)[0, 1]
    assert abs(abs(corr) - 1.0) < 1e-10


# ----------------------------------------------------------------------
# Quadrature projections
# ----------------------------------------------------------------------

def test_quadrature_q1_matches_closed_form(mesh5):
    basis = HarmonicBasis(mesh5, LONG_SPEC.ells)
    grid = TimeGrid(0.5, 11)
    ens = sample_time_processes(LONG_SPEC, grid, 21)
    for u in (0.4, 1.1):
        quad = chaos_projections_quadrature(ens, basis, u, [1])[1]
        closed = first_chaos_projection(ens, u)
        assert quad == pytest.approx(closed, abs=1e-8 * max(1, abs(closed)))


def test_quadrature_q2_matches_spectral(mesh5):
    basis = HarmonicBasis(mesh5, LONG_SPEC.ells)
    grid = TimeGrid(0.5, 11)
    u = 0.5
    quads, specs = [], []
    for s in np.random.SeedSequence(22).spawn(10):
        ens = sample_time_processes(LONG_SPEC, grid, s)
        quads.append(chaos_projections_quadrature(ens, basis, u, [2])[2])
        specs.append(second_chaos_sample_spectrum(ens, u))
    quads = np.asarray(quads)
    specs = np.asarray(specs)
    rms = math.sqrt(np.mean((quads - specs) ** 2) / np.mean(specs**2))
    assert rms < 0.01


def test_higher_projections_are_centered(mesh3):
    basis = HarmonicBasis(mesh3, LONG_SPEC.ells)
    grid = TimeGrid(0.5, 11)
    reps = 300
    vals = {3: [], 4: []}
    for s in np.random.SeedSequence(23).spawn(reps):
        ens = sample_time_processes(LONG_SPEC, grid, s)
        proj = chaos_projections_quadrature(ens, basis, 0.5, [3, 4])
        vals[3].append(proj[3])
        vals[4].append(proj[4])
    for q in (3, 4):
        arr = np.asarray(vals[q])
        se = arr.std(ddof=1) / math.sqrt(reps)
        assert abs(arr.mean()) < 4 * se


def test_chaos_orthogonality_and_expansion_consistency(mesh3):
    basis = HarmonicBasis(mesh3, LONG_SPEC.ells)
    grid = TimeGrid(0.5, 101)
    u = 0.5
    reps = 500
    projs = np.empty((reps, 4))
    totals = np.empty(reps)
    for i, s in enumerate(np.random.SeedSequence(24).spawn(reps)):
        ens = sample_time_processes(LONG_SPEC, grid, s)
        proj = chaos_projections_quadrature(ens, basis, u, [1, 2, 3, 4])
        projs[i] = [proj[q] for q in (1, 2, 3, 4)]
        totals[i] = boundary_functional(ens, basis, u).centered
    # pairwise orthogonality: empirical correlations within 4 SE of zero
    for a in range(4):
        for b in range(a + 1, 4):
            r = np.corrcoef(projs[:, a], projs[:, b])[0, 1]
            assert abs(r) < 4 / math.sqrt(reps)
    # variance decomposition: Var(total) - sum_q Var(proj_q) - Var(resid)
    # collects only cross terms, centered at zero under orthogonality;
    # bootstrap its standard error
    resid = totals - projs.sum(axis=1)

    def identity_residual(idx):
        t = totals[idx]
        p = projs[idx]
        r = resid[idx]
        return t.var(ddof=1) - p.var(axis=0, ddof=1).sum() - r.var(ddof=1)

    observed = identity_residual(np.arange(reps))
    rng = np.random.default_rng(7)
    boots = np.array([
        identity_residual(rng.integers(0, reps, size=reps))
        for _ in range(300)
    ])
    assert abs(observed) < 4 * boots.std(ddof=1)


# ----------------------------------------------------------------------
# Moment-matrix kernel against the triple-product kernel it replaced
# ----------------------------------------------------------------------

def _oracle_hermite_rows(q_max, x):
    """H_0..H_q_max of x by the recurrence H_(q+1) = x H_q - q H_(q-1)."""
    h = np.empty((q_max + 1,) + x.shape)
    h[0] = 1.0
    if q_max >= 1:
        h[1] = x
    for q in range(1, q_max):
        h[q + 1] = x * h[q] - q * h[q - 1]
    return h


def _oracle_projections(ensemble, basis, u, orders):
    """The triple-product kernel: (V, S) field and normalized gradients
    over all slices at once, every Hermite row up to q_max, and one
    weighted vertex sum w @ (H_(q-m)(Z) H_k(g1) H_(m-k)(g2)) per term."""
    orders = sorted(set(orders))
    q_max = orders[-1]
    s1 = math.sqrt(sigma1_sq(ensemble.spectrum))
    table = chaos_table(u, q_max, sigma1=s1)
    a = ensemble.coeffs
    d1, d2 = basis.dy
    hz = _oracle_hermite_rows(q_max, basis.y @ a)
    h1 = _oracle_hermite_rows(q_max, (d1 @ a) / s1)
    h2 = _oracle_hermite_rows(q_max, (d2 @ a) / s1)
    w_quad = basis.mesh.vertex_weights
    out = {}
    for q in orders:
        acc = np.zeros(a.shape[1])
        for m, k, wgt in table.terms(q):
            acc += wgt * (w_quad @ (hz[q - m] * h1[k] * h2[m - k]))
        out[q] = float(np.trapezoid(acc, dx=ensemble.grid.dt))
    return out


@functools.cache
def _basis(level, spectrum_name):
    spec = LONG_SPEC if spectrum_name == "long" else SHORT_SPEC
    return HarmonicBasis(build_icosphere(level), spec.ells)


@st.composite
def quadrature_cases(draw):
    """(ensemble, basis, u, orders) over meshes 0-4, 2-7 time steps,
    order sets within 1..6, u in [-2.5, 2.5] and the long and short
    test spectra."""
    name = draw(st.sampled_from(["long", "short"]))
    spec = LONG_SPEC if name == "long" else SHORT_SPEC
    basis = _basis(draw(st.integers(0, 4)), name)
    grid = TimeGrid(draw(st.sampled_from([0.25, 0.5, 1.0])),
                    draw(st.integers(2, 7)))
    ens = sample_time_processes(spec, grid, draw(st.integers(0, 2**32 - 1)))
    orders = draw(st.sets(st.integers(1, 6), min_size=1))
    return ens, basis, draw(st.floats(-2.5, 2.5)), orders


@given(quadrature_cases())
def test_moment_matrix_kernel_matches_triple_product_kernel(case):
    ens, basis, u, orders = case
    got = chaos_projections_quadrature(ens, basis, u, orders)
    expected = _oracle_projections(ens, basis, u, orders)
    assert got.keys() == expected.keys()
    for q, old in expected.items():
        assert abs(got[q] - old) <= 1e-12 * max(1.0, abs(old))


@given(quadrature_cases())
def test_quadrature_is_symmetric_under_field_and_level_sign_flip(case):
    # H_(q-m)(-Z) beta_(q-m)(-u) = H_(q-m)(Z) beta_(q-m)(u), and the
    # gradient orders k, m - k are even
    ens, basis, u, orders = case
    flipped = replace(ens, coeffs=-ens.coeffs)
    got = chaos_projections_quadrature(ens, basis, u, orders)
    mirror = chaos_projections_quadrature(flipped, basis, -u, orders)
    for q in orders:
        assert abs(mirror[q] - got[q]) <= 1e-12 * max(1.0, abs(got[q]))


# ----------------------------------------------------------------------
# Exact sphere cubature
# ----------------------------------------------------------------------

@st.composite
def cubature_cases(draw):
    """(ensemble, ell_max, u, q_max) over random spectra with a monopole
    and one to four degrees in 1..4, 2-7 time steps and q_max <= 6."""
    ells = draw(st.sets(st.integers(1, 4), min_size=1))
    fracs = {}
    for ell in (0, *sorted(ells)):
        beta = draw(st.one_of(st.just(1.0), st.floats(0.1, 0.95)))
        fracs[ell] = (draw(st.floats(0.05, 1.0)), beta,
                      2.5 if beta == 1.0 else None)
    spec = spec_from_fractions(fracs)
    grid = TimeGrid(draw(st.sampled_from([0.25, 0.5, 1.0])),
                    draw(st.integers(2, 7)))
    ens = sample_time_processes(spec, grid, draw(st.integers(0, 2**32 - 1)))
    return ens, max(ells), draw(st.floats(-2.5, 2.5)), draw(st.integers(1, 6))


def _on(rule, ens, u, orders):
    basis = HarmonicBasis(rule, ens.spectrum.ells)
    return chaos_projections_quadrature(ens, basis, u, orders)


def _close(a, b):
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


@given(cubature_cases())
def test_cubature_of_degree_q_ell_max_is_exact_for_order_q(case):
    ens, ell_max, u, q_max = case
    for q in range(1, q_max + 1):
        exact = _on(sphere_cubature(q * ell_max), ens, u, [q])[q]
        finer = _on(sphere_cubature(q * ell_max + 6), ens, u, [q])[q]
        assert _close(exact, finer), (q, exact, finer)


@given(cubature_cases())
def test_cubature_orders_one_and_two_equal_the_closed_forms(case):
    ens, ell_max, u, _ = case
    proj = _on(sphere_cubature(2 * ell_max), ens, u, [1, 2])
    assert _close(proj[1], first_chaos_projection(ens, u))
    assert _close(proj[2], second_chaos_sample_spectrum(ens, u))


def _rotation(axis, angle):
    """Rodrigues rotation matrix about ``axis`` by ``angle``."""
    k = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    cross = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + math.sin(angle) * cross \
        + (1 - math.cos(angle)) * cross @ cross


_ROTATION = _rotation((1.0, 2.0, 3.0), 0.7)


def _rotated(rule, rot):
    """The nodes of ``rule`` rotated by ``rot``, with the same weights."""
    sin_t = np.sin(rule.theta)
    xyz = np.stack([sin_t * np.cos(rule.phi), sin_t * np.sin(rule.phi),
                    np.cos(rule.theta)], axis=1) @ rot.T
    theta = np.arccos(np.clip(xyz[:, 2], -1.0, 1.0))
    assert np.sin(theta).min() > 1e-3     # no rotated node near a pole
    return SphereCubature(theta, np.arctan2(xyz[:, 1], xyz[:, 0]),
                          rule.vertex_weights)


@given(cubature_cases())
def test_cubature_projections_are_rotation_invariant(case):
    # Each order integrates a polynomial in Z and |grad Z|^2, so an exact
    # rule gives the same value at any orientation.  The icosphere is
    # exact only to degree 5 and fails this: at ell_max = 2 the same
    # rotation moves its mesh-3 projections of orders 3-6 by 6e-5 to 8e-4
    # relative.
    ens, ell_max, u, q_max = case
    orders = range(1, q_max + 1)
    rule = sphere_cubature(q_max * ell_max)
    got = _on(rule, ens, u, orders)
    turned = _on(_rotated(rule, _ROTATION), ens, u, orders)
    for q in orders:
        assert _close(turned[q], got[q]), (q, got[q], turned[q])


# ----------------------------------------------------------------------
# Variance formulas
# ----------------------------------------------------------------------

def test_exact_variance_matches_prop_constants_at_large_horizon():
    spec = spec_from_fractions({0: (0.35, 1.0, 2.2), 1: (0.5, 0.2, None),
                                4: (0.15, 0.9, None)})
    u = 0.4
    consts = asymptotic_variance_constants(spec, u)
    assert consts.long_constant is not None
    grid = TimeGrid.for_horizon(1e4, 1.0)
    ratio = second_chaos_variance_exact(spec, u, grid) \
        / (grid.horizon ** 1.6 * consts.long_constant)
    assert ratio == pytest.approx(1.0, abs=0.05)


def _brute_second_chaos_variance(spectrum, u, grid):
    """Oracle: the trapezoid weights omega against the full n x n matrix of
    C_ell(t_j - t_k)^2, omega @ C^2 @ omega, in place of the lag sum."""
    omega = np.full(grid.n_steps, grid.dt)
    omega[[0, -1]] = grid.dt / 2.0
    t = grid.times
    total = 0.0
    for e in spectrum.entries:
        csq = multipole_cov(spectrum, e.ell, t[:, None] - t[None, :]) ** 2
        total += (2 * e.ell + 1) * second_chaos_weight(spectrum, e.ell, u) \
            ** 2 * (omega @ csq @ omega)
    return sigma1_sq(spectrum) * math.pi / 4.0 * gaussian_density(u) ** 2 \
        * total


@given(n=st.integers(2, 400), dt=st.floats(0.05, 2.0),
       alpha=st.floats(2.0, 6.0),
       beta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       u=st.floats(-2.0, 2.0))
@example(n=2, dt=0.5, alpha=2.0, beta=0.3, u=0.5)  # lag weights (1/2, 1/4)
def test_second_chaos_variance_exact_matches_brute_double_sum(
        n, dt, alpha, beta, u):
    # a short-memory monopole (beta = 1, exponent alpha) and a quadrupole
    # of memory exponent beta
    spec = make_spectrum([MultipoleEntry(0, 1.0, 1.0, alpha),
                          MultipoleEntry(2, 0.5, beta)])
    grid = TimeGrid(dt, n)
    assert second_chaos_variance_exact(spec, u, grid) == pytest.approx(
        _brute_second_chaos_variance(spec, u, grid), rel=1e-12, abs=0.0)


def test_second_chaos_variance_exact_on_the_audit_grid():
    # the spectrum, level and grid (T = 25, dt = 0.25) of the audit-mesh5
    # benchmark workload
    spec = make_spectrum([MultipoleEntry(0, 1.0, 1.0, 2.2),
                          MultipoleEntry(1, 2.0, 0.2)])
    grid = TimeGrid.for_horizon(25.0, 0.25)
    assert second_chaos_variance_exact(spec, 0.5, grid) == pytest.approx(
        168.8803, rel=1e-6)


def test_asymptotic_constants_cancellation_structure():
    spec = spec_from_fractions({0: (0.35, 1.0, 2.2), 1: (0.5, 0.2, None),
                                4: (0.15, 0.9, None)})
    rep = classify_regime(spec)
    u_star = rep.berry_levels[1]
    assert asymptotic_variance_constants(spec, u_star).long_constant \
        == pytest.approx(0.0, abs=1e-20)
    # two slowest multipoles: no level cancels both weights
    twin = spec_from_fractions({0: (0.35, 1.0, 2.2), 1: (0.3, 0.2, None),
                                2: (0.35, 0.2, None)})
    for u in np.linspace(0, 2, 21):
        assert asymptotic_variance_constants(twin, u).long_constant > 0.0


def test_asymptotic_constants_regimes():
    short = spec_from_fractions({0: (0.5, 1.0, 2.0), 2: (0.5, 0.8, None)})
    consts = asymptotic_variance_constants(short, 0.5)
    assert consts.short_constant is not None and consts.long_constant is None
    boundary = spec_from_fractions({0: (0.5, 0.5, None), 1: (0.5, 0.3, None)})
    consts_b = asymptotic_variance_constants(boundary, 0.5)
    assert consts_b.long_constant is None and consts_b.short_constant is None


def test_second_chaos_variance_monte_carlo_small_scale():
    # compressed version of the acceptance run: 600 replicates, T = 120
    spec = spec_from_fractions({0: (0.12, 0.9, None), 2: (0.40, 0.2, None),
                                4: (0.48, 0.7, None)})
    grid = TimeGrid(0.25, 481)
    u = 0.5
    reps = 600
    vals = np.array([
        second_chaos_sample_spectrum(sample_time_processes(spec, grid, s), u)
        for s in np.random.SeedSequence(2025).spawn(reps)
    ])
    expected = second_chaos_variance_exact(spec, u, grid)
    assert vals.var(ddof=1) == pytest.approx(expected, rel=0.2)


# ----------------------------------------------------------------------
# Higher-order tail
# ----------------------------------------------------------------------

@pytest.mark.slow
def test_higher_chaos_tail_estimate_long_memory(mesh3):
    spec = spec_from_fractions({0: (0.26, 1.0, 2.2), 1: (0.65, 0.2, None),
                                5: (0.09, 0.9, None)})
    est = higher_chaos_tail_estimate(
        spec, HarmonicBasis(mesh3, spec.ells), 0.5,
        [250.0, 500.0, 1000.0, 2000.0], replicates=200, seed=314, dt=1.0)
    # growth exponent strictly below the leading 2 - 2 beta* = 1.6
    assert est.fitted_exponent < 1.5
    # tail share of the total variance decreasing in T
    assert est.tail_shares[-1] < est.tail_shares[0]


@pytest.mark.slow
def test_higher_chaos_tail_short_memory_is_linear(mesh3):
    spec = spec_from_fractions({0: (0.4, 1.0, 2.0), 2: (0.35, 1.0, 2.5),
                                3: (0.25, 1.0, 3.0)})
    est = higher_chaos_tail_estimate(
        spec, HarmonicBasis(mesh3, spec.ells), 0.5,
        [250.0, 500.0, 1000.0, 2000.0], replicates=150, seed=217, dt=1.0)
    # Var(tail)/T bounded: fitted growth exponent close to linear
    assert est.fitted_exponent < 1.3
