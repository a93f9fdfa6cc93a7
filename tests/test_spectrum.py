import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from conftest import spec_from_fractions
from levelcurves.chaos import (
    asymptotic_variance_constants,
    second_chaos_variance_exact,
    second_chaos_weight,
)
from levelcurves.cli import RunConfig, parse_config, render_config
from levelcurves.special import gaussian_density, legendre_table
from levelcurves.spectrum import (
    BOUNDARY,
    LONG_MEMORY,
    SHORT_MEMORY,
    MultipoleEntry,
    PowerSpectrum,
    classify_regime,
    grad_cov_matrix,
    integrated_sq_cov,
    make_spectrum,
    multipole_cov,
    sigma1_sq,
    space_time_cov,
)
from levelcurves.synthesis import TimeGrid

RNG = np.random.default_rng(5150)


# ----------------------------------------------------------------------
# Model construction and the memory kernel
# ----------------------------------------------------------------------

def _kernel(beta, alpha, tau):
    """The memory kernel C(tau) / C(0) of a one-multipole spectrum."""
    spec = make_spectrum([MultipoleEntry(0, 1.0, beta, alpha)])
    return multipole_cov(spec, 0, tau) / spec.entry(0).c0


def test_memory_kernel_values():
    assert _kernel(0.5, None, 3.0) == pytest.approx(0.5, abs=1e-15)
    assert _kernel(1.0, 2.0, 0.0) == 1.0
    # beta = 1 decays with alpha: C(3) / C(0) = 4^(-2) at alpha = 2
    assert _kernel(1.0, 2.0, 3.0) == pytest.approx(4 ** -2, rel=1e-12)
    assert _kernel(0.2, None, 99.0) == pytest.approx(100 ** -0.2, rel=1e-12)


def test_memory_kernel_domain_errors():
    with pytest.raises(ValueError, match="beta"):
        make_spectrum([MultipoleEntry(0, 1.0, 0.0)])
    with pytest.raises(ValueError, match="beta"):
        make_spectrum([MultipoleEntry(0, 1.0, 1.2, 2.0)])
    with pytest.raises(ValueError, match="alpha"):
        make_spectrum([MultipoleEntry(0, 1.0, 1.0, 1.5)])


def test_spectrum_validation():
    with pytest.raises(ValueError, match="ell = 0"):
        make_spectrum([MultipoleEntry(2, 1.0, 0.5)])
    with pytest.raises(ValueError, match="duplicate"):
        make_spectrum([MultipoleEntry(0, 1.0, 0.5), MultipoleEntry(0, 0.5, 0.4)])
    with pytest.raises(ValueError, match="alpha"):
        make_spectrum([MultipoleEntry(0, 1.0, 1.0, 1.5)])
    with pytest.raises(ValueError, match="beta"):
        make_spectrum([MultipoleEntry(0, 1.0, 1.5)])
    with pytest.raises(ValueError, match="normalized"):
        make_spectrum([MultipoleEntry(0, 1.0, 0.5)], normalize=False)
    # the variance sum overflows to inf; a raise, not an assert, so the
    # check also holds under python -O
    with pytest.raises(ValueError, match="unit variance"):
        make_spectrum([MultipoleEntry(0, 1.7e308, 0.5),
                       MultipoleEntry(50, 1.7e308, 0.5)])
    # the variance sum underflows to 0 (every c0 subnormal): a ValueError,
    # not a division by zero
    with pytest.raises(ValueError, match="positive and finite"):
        make_spectrum([MultipoleEntry(0, 5e-324, 0.5)])
    # monochromatic escape hatch
    spec = make_spectrum([MultipoleEntry(2, 1.0, 0.5)], require_monopole=False)
    assert spec.sigma0_sq == pytest.approx(1.0, abs=1e-12)


def test_spectrum_normalization_invariant():
    spec = spec_from_fractions({0: (0.3, 1.0, 2.0), 1: (0.2, 0.5, None),
                                3: (0.5, 0.9, None)})
    assert spec.sigma0_sq == pytest.approx(1.0, abs=1e-12)


def test_multipole_cov():
    spec = make_spectrum(
        [MultipoleEntry(0, 1.0, 1.0, 2.0), MultipoleEntry(2, 0.3 * 4 * np.pi / 5, 0.4)],
        normalize=False if False else True,
    )
    e2 = spec.entry(2)
    assert multipole_cov(spec, 2, 0.0) == pytest.approx(e2.c0, rel=1e-14)
    assert multipole_cov(spec, 2, 7.0) / e2.c0 == pytest.approx(8 ** -0.4, rel=1e-12)
    assert multipole_cov(spec, 5, 1.0) == 0.0  # multipole not present


def test_space_time_cov_normalization_and_monopole():
    spec = spec_from_fractions({0: (0.5, 1.0, 2.0), 2: (0.5, 0.4, None)})
    assert space_time_cov(spec, 1.0, 0.0) == pytest.approx(1.0, abs=1e-12)
    mono = make_spectrum([MultipoleEntry(0, 4 * math.pi, 1.0, 3.0)])
    tau = 2.5
    assert space_time_cov(mono, -0.23, tau) == pytest.approx(
        multipole_cov(mono, 0, tau) / (4 * math.pi), rel=1e-12)
    with pytest.raises(ValueError):
        space_time_cov(spec, 1.2, 0.0)


def test_space_time_cov_against_term_by_term_sum():
    spec = spec_from_fractions({0: (0.2, 1.0, 2.0), 1: (0.3, 0.7, None),
                                4: (0.5, 0.3, None)})
    eta, tau = 0.3, 2.0
    # independent oracle: explicit per-term accumulation
    expected = 0.0
    for e in spec.entries:
        expo = e.alpha if e.beta == 1.0 else e.beta
        c_tau = e.c0 * (1 + abs(tau)) ** (-expo)
        expected += (2 * e.ell + 1) / (4 * math.pi) * c_tau \
            * legendre_table(e.ell, eta)[0][e.ell]
    assert space_time_cov(spec, eta, tau) == pytest.approx(expected, rel=1e-13)


def test_sigma1_monochromatic_and_monopole():
    mono2 = make_spectrum([MultipoleEntry(2, 1.0, 0.5)], require_monopole=False)
    assert sigma1_sq(mono2) == pytest.approx(3.0, rel=1e-13)
    mono0 = make_spectrum([MultipoleEntry(0, 1.0, 1.0, 2.0)])
    assert sigma1_sq(mono0) == 0.0


def test_sigma1_matches_finite_difference_monte_carlo():
    # MC oracle: variance of a central finite difference of synthesized
    # field values at two nearby points
    from levelcurves.special import harmonic_columns
    from levelcurves.synthesis import TimeGrid, sample_time_processes

    spec = spec_from_fractions({0: (0.4, 1.0, 2.0), 2: (0.35, 0.6, None),
                                3: (0.25, 0.9, None)})
    th, ph, d = 1.1, 0.7, 1e-3
    _, y = harmonic_columns(spec.ells, [th - d, th + d], [ph, ph])
    grid = TimeGrid(1.0, 2)
    reps = 8000
    diffs = np.empty(reps)
    for i, seed in enumerate(np.random.SeedSequence(99).spawn(reps)):
        a = sample_time_processes(spec, grid, seed).coeffs[:, 0]
        vals = y @ a
        diffs[i] = (vals[1] - vals[0]) / (2 * d)
    assert diffs.var(ddof=1) == pytest.approx(sigma1_sq(spec), rel=0.03)


# ----------------------------------------------------------------------
# Gradient covariance blocks
# ----------------------------------------------------------------------

def test_grad_cov_matrix_coincident_point():
    spec = spec_from_fractions({0: (0.4, 1.0, 2.0), 2: (0.6, 0.4, None)})
    x = (1.2, 0.4)
    m = grad_cov_matrix(spec, x, x, 0.0)
    expected = np.diag([1.0, sigma1_sq(spec), sigma1_sq(spec)])
    assert np.allclose(m, expected, atol=1e-12)


def test_grad_cov_matrix_same_longitude_zero_entry():
    spec = spec_from_fractions({0: (0.4, 1.0, 2.0), 2: (0.6, 0.4, None)})
    m = grad_cov_matrix(spec, (0.8, 1.1), (1.4, 1.1), 0.7)
    assert m[0, 2] == 0.0  # sin(phi_x - phi_y) factor vanishes


def test_grad_cov_matrix_pole_rejected():
    spec = spec_from_fractions({0: (0.4, 1.0, 2.0), 2: (0.6, 0.4, None)})
    with pytest.raises(ValueError, match="pole"):
        grad_cov_matrix(spec, (0.0, 0.0), (1.0, 1.0), 0.0)


def _fd_block(spec, x, y, tau, h=1e-4):
    """Finite-difference oracle for the 3x3 covariance block, built from
    space_time_cov alone."""
    def gamma(thx, phx, thy, phy):
        eta = (math.cos(thx) * math.cos(thy)
               + math.sin(thx) * math.sin(thy) * math.cos(phx - phy))
        return space_time_cov(spec, min(1.0, max(-1.0, eta)), tau)

    thx, phx = x
    thy, phy = y
    m = np.empty((3, 3))

    def d_x(i, thx_, phx_, thy_, phy_):
        if i == 0:
            return gamma(thx_, phx_, thy_, phy_)
        if i == 1:
            return (gamma(thx_ + h, phx_, thy_, phy_)
                    - gamma(thx_ - h, phx_, thy_, phy_)) / (2 * h)
        return (gamma(thx_, phx_ + h, thy_, phy_)
                - gamma(thx_, phx_ - h, thy_, phy_)) / (2 * h * math.sin(thx_))

    for j in range(3):
        if j == 0:
            col = lambda i: d_x(i, thx, phx, thy, phy)  # noqa: E731
            m[:, 0] = [col(i) for i in range(3)]
        elif j == 1:
            m[:, 1] = [
                (d_x(i, thx, phx, thy + h, phy)
                 - d_x(i, thx, phx, thy - h, phy)) / (2 * h)
                for i in range(3)
            ]
        else:
            m[:, 2] = [
                (d_x(i, thx, phx, thy, phy + h)
                 - d_x(i, thx, phx, thy, phy - h)) / (2 * h * math.sin(thy))
                for i in range(3)
            ]
    return m


def test_grad_cov_matrix_matches_finite_differences():
    spec = spec_from_fractions({0: (0.3, 1.0, 2.0), 1: (0.3, 0.5, None),
                                3: (0.4, 0.8, None)})
    for _ in range(8):
        x = (RNG.uniform(0.4, 2.7), RNG.uniform(0, 2 * math.pi))
        y = (RNG.uniform(0.4, 2.7), RNG.uniform(0, 2 * math.pi))
        tau = RNG.uniform(0, 3)
        m = grad_cov_matrix(spec, x, y, tau)
        fd = _fd_block(spec, x, y, tau)
        assert np.max(np.abs(m - fd)) < 1e-5


def test_grad_cov_matrix_block_transpose_identity():
    spec = spec_from_fractions({0: (0.3, 1.0, 2.0), 2: (0.7, 0.5, None)})
    for _ in range(100):
        x = (RNG.uniform(0.3, 2.8), RNG.uniform(0, 2 * math.pi))
        y = (RNG.uniform(0.3, 2.8), RNG.uniform(0, 2 * math.pi))
        tau = RNG.uniform(-3, 3)
        m_xy = grad_cov_matrix(spec, x, y, tau)
        m_yx = grad_cov_matrix(spec, y, x, -tau)
        assert np.allclose(m_xy, m_yx.T, atol=1e-12)


def test_space_time_cov_positive_semidefinite_gram():
    spec = spec_from_fractions({0: (0.4, 1.0, 2.0), 1: (0.3, 0.4, None),
                                2: (0.3, 0.8, None)})
    for _ in range(50):
        pts = RNG.normal(size=(8, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        ts = RNG.uniform(0, 10, size=8)
        gram = np.empty((8, 8))
        for i in range(8):
            for j in range(8):
                eta = min(1.0, max(-1.0, float(pts[i] @ pts[j])))
                gram[i, j] = space_time_cov(spec, eta, ts[i] - ts[j])
        assert np.linalg.eigvalsh(gram).min() > -1e-8


# ----------------------------------------------------------------------
# Regime classification
# ----------------------------------------------------------------------

def test_classify_long_memory_example():
    spec = spec_from_fractions({0: (0.4, 1.0, 2.0), 1: (0.3, 0.2, None),
                                2: (0.3, 0.6, None)})
    rep = classify_regime(spec)
    assert rep.regime == LONG_MEMORY
    assert rep.ell_star == 1
    assert rep.i_star == (1,)
    assert rep.beta_star == 0.2
    assert rep.beta_star_star == 0.6
    assert rep.expected_var_exponent == pytest.approx(1.6)


def test_classify_short_memory_example():
    spec = spec_from_fractions({0: (0.4, 1.0, 2.0), 1: (0.3, 0.8, None),
                                2: (0.3, 0.8, None)})
    rep = classify_regime(spec)
    assert rep.regime == SHORT_MEMORY
    assert rep.expected_var_exponent == 1.0
    assert rep.beta_star_star is None  # i_star exhausts the ell >= 1 set


def test_classify_boundary_not_silently_classified():
    # 2 beta* = 0.6 >= beta_0 = 0.5: neither theorem hypothesis holds
    spec = spec_from_fractions({0: (0.4, 0.5, None), 1: (0.6, 0.3, None)})
    rep = classify_regime(spec)
    assert rep.regime == BOUNDARY
    assert rep.expected_var_exponent is None


def test_classify_berry_levels():
    # monochromatic wave: sigma1^2 = lambda/2 exactly, u* = 0
    mono = make_spectrum([MultipoleEntry(3, 1.0, 0.3)], require_monopole=False)
    rep = classify_regime(mono)
    assert rep.berry_levels == (0.0, 0.0)
    # lambda/(2 sigma1^2) > 1: no admissible cancellation level
    spec = spec_from_fractions({0: (0.5, 1.0, 2.0), 2: (0.5, 0.4, None)})
    assert classify_regime(spec).berry_levels is None


def test_classify_permutation_invariance():
    entries = [MultipoleEntry(0, 1.0, 1.0, 2.0), MultipoleEntry(1, 0.4, 0.3),
               MultipoleEntry(4, 0.2, 0.9)]
    rep1 = classify_regime(make_spectrum(entries))
    rep2 = classify_regime(make_spectrum(entries[::-1]))
    assert rep1 == rep2


def test_classify_requires_high_multipole():
    mono0 = make_spectrum([MultipoleEntry(0, 1.0, 1.0, 2.0)])
    with pytest.raises(ValueError):
        classify_regime(mono0)


# ----------------------------------------------------------------------
# Squared-covariance time sums
# ----------------------------------------------------------------------

def _dipole(beta):
    """A spectrum of one ell = 1 multipole of memory exponent beta: its
    sigma1^2 is 1, so its second-chaos weight at u = 1 is 1."""
    return make_spectrum([MultipoleEntry(1, 1.0, beta)],
                         require_monopole=False)


def _level_factor(spec):
    """sigma1^2 (pi / 4) phi(1)^2 (2 ell + 1) w_1(1)^2: the factor of a
    dipole's second-chaos variance at u = 1 in front of its time sum."""
    return sigma1_sq(spec) * math.pi / 4.0 * gaussian_density(1.0) ** 2 \
        * 3 * second_chaos_weight(spec, 1, 1.0) ** 2


def _csq_ratio(beta, horizon, dt):
    """The dipole's exact grid variance over its long-memory asymptote
    T^(2 - 2 beta) x ``asymptotic_variance_constants``."""
    spec = _dipole(beta)
    grid = TimeGrid.for_horizon(horizon, dt)
    const = asymptotic_variance_constants(spec, 1.0).long_constant
    return second_chaos_variance_exact(spec, 1.0, grid) \
        / (grid.horizon ** (2.0 - 2.0 * beta) * const)


def test_csq_integral_asymptotic_constant():
    # beta = 0.25: constant 1/((1 - b)(1 - 2b)) = 8/3.  Derived by direct
    # integration of 2 int_0^T (T - tau) C(tau)^2 dtau; the doubled value
    # sometimes quoted for this limit fails the large-horizon checks below
    # by exactly a factor 2.
    spec = _dipole(0.25)
    const = asymptotic_variance_constants(spec, 1.0)
    assert const.regime == LONG_MEMORY
    assert const.long_constant / (_level_factor(spec) * spec.entry(1).c0**2) \
        == pytest.approx(8.0 / 3.0, rel=1e-12)


def test_csq_integral_near_constant_kernel():
    # C is nearly the constant c0, and the trapezoid weights sum to T
    spec = _dipole(1e-6)
    grid = TimeGrid.for_horizon(10.0, 0.25)
    assert second_chaos_variance_exact(spec, 1.0, grid) \
        / _level_factor(spec) == pytest.approx(spec.entry(1).c0**2 * 100.0,
                                               rel=1e-3)


@pytest.mark.parametrize("beta", [0.1, 0.2, 0.3])
def test_csq_quadrature_matches_asymptotics_at_large_horizon(beta):
    assert _csq_ratio(beta, 1e4, 1.0) == pytest.approx(1.0, abs=0.05)


def test_csq_quadrature_beta_near_half_converges_slowly():
    # the finite-horizon correction decays like T^(2 beta - 1); at
    # beta = 0.4 that is T^(-0.2), so the 5% band is reached only around
    # T ~ 1e8.  Check monotone approach and the asymptote itself there.
    # dt = 10 keeps the T = 1e8 grid at 1e7 steps; dt = 1 would take
    # 1e8 steps and about 0.8 GB for the same check.
    ratios = [_csq_ratio(0.4, T, 10.0) for T in (1e4, 1e6, 1e8)]
    assert ratios[0] < ratios[1] < ratios[2]
    assert ratios[2] == pytest.approx(1.0, abs=0.05)


def test_integrated_sq_cov_closed_form():
    spec = spec_from_fractions({0: (0.5, 1.0, 2.0), 2: (0.5, 0.8, None)})
    e0 = spec.entry(0)
    # exact: 2 C0(0)^2 / (2 alpha - 1)
    assert integrated_sq_cov(spec, 0) == pytest.approx(
        2 * e0.c0**2 / 3.0, rel=1e-9)
    e2 = spec.entry(2)
    assert integrated_sq_cov(spec, 2) == pytest.approx(
        2 * e2.c0**2 / 0.6, rel=1e-9)
    with pytest.raises(ValueError):
        integrated_sq_cov(make_spectrum([MultipoleEntry(0, 1.0, 0.4)]), 0)


def _quad_integrated_sq_cov(spectrum, ell):
    """Oracle: int_R C^2 as the package computed it before the closed
    form, by quadrature on [0, 100] plus the exact power-law tail."""
    e = spectrum.entry(int(ell))
    expo = e.alpha if e.beta == 1.0 else e.beta
    cut = 100.0
    body, _ = integrate.quad(lambda tau: (e.c0 * (1.0 + tau) ** (-expo)) ** 2,
                             0.0, cut, limit=200, epsrel=1e-9, epsabs=0.0)
    tail = e.c0**2 * (1.0 + cut) ** (1.0 - 2.0 * expo) / (2.0 * expo - 1.0)
    return 2.0 * (body + tail)


def _one_multipole(c0, p):
    """C(tau) = c0 (1 + tau)^(-p/2), built without make_spectrum so that
    p/2 may leave the admissible (beta, alpha) ranges."""
    if p < 2.0:
        return PowerSpectrum((MultipoleEntry(0, c0, p / 2.0),))
    return PowerSpectrum((MultipoleEntry(0, c0, 1.0, p / 2.0),))


@given(p=st.one_of(st.floats(1.0, 6.0, exclude_min=True),
                   st.floats(2.0 - 1e-9, 2.0 + 1e-9)),
       c0=st.floats(0.1, 10.0))
def test_integrated_sq_cov_matches_quadrature(p, c0):
    spec = _one_multipole(c0, p)
    assert integrated_sq_cov(spec, 0) == pytest.approx(
        _quad_integrated_sq_cov(spec, 0), rel=1e-12, abs=0.0)


# ----------------------------------------------------------------------
# Text ingestion (the [multipole] blocks of a study config)
# ----------------------------------------------------------------------

def _parse_spectrum(blocks, top="study = mean-length\nlevel = 0\n"):
    """The spectrum of a config made of ``blocks`` followed by ``top``."""
    return parse_config(blocks + "\n" + top).spectrum


def test_spectrum_text_round_trip():
    spec = spec_from_fractions({0: (0.4, 1.0, 2.0), 2: (0.6, 0.4, None)})
    text = render_config(RunConfig(study="mean-length", spectrum=spec,
                                   level=0.0))
    assert "normalize = false" in text.splitlines()
    assert parse_config(text).spectrum == spec


def test_spectrum_text_minimal():
    text = """
    [multipole]
    ell = 0
    c0 = 1.0
    beta = 1.0
    alpha = 2.0
    [multipole]
    ell = 2
    c0 = 0.5
    beta = 0.7
    """
    spec = _parse_spectrum(text)
    assert spec.ells == (0, 2)
    assert spec.sigma0_sq == pytest.approx(1.0, abs=1e-12)


def test_spectrum_text_errors_name_line_and_key():
    with pytest.raises(ValueError, match="beta"):
        _parse_spectrum("[multipole]\nell = 0\nc0 = 1\nbeta = 1.5\nalpha = 2")
    with pytest.raises(ValueError, match="line 2"):
        _parse_spectrum("[multipole]\nwhat = 3\n")
    with pytest.raises(ValueError, match="missing"):
        _parse_spectrum("[multipole]\nell = 0\n")
    with pytest.raises(ValueError, match="numeric"):
        _parse_spectrum("[multipole]\nell = 0\nc0 = abc\nbeta = 1\nalpha = 2")


@st.composite
def _config_layouts(draw):
    """One config as (canonical, spread) texts.  The canonical text has
    its top-level keys first and then the blocks.  The spread text has the
    same lines with the top-level keys before, between and after the
    blocks, comments, blank lines and any casing of [multipole]."""
    blocks = []
    for ell in [0] + sorted(draw(st.sets(st.integers(1, 6), min_size=1,
                                         max_size=3))):
        beta = draw(st.sampled_from([0.2, 0.45, 0.9, 1.0]))
        keys = [f"ell = {ell}", f"c0 = {draw(st.floats(0.1, 5.0))!r}",
                f"beta = {beta}"] + (["alpha = 2.5"] if beta == 1.0 else [])
        blocks.append(draw(st.permutations(keys)))
    top = draw(st.permutations([
        "study = mean-length", f"seed = {draw(st.integers(0, 99))}",
        "replicates = 10", "mesh_level = 2", "u_grid = 0.0, 0.5",
        f"level = {draw(st.floats(-2.0, 2.0))!r}"]))
    canonical = top + [ln for b in blocks for ln in ["[multipole]"] + b]
    cuts = sorted(draw(st.lists(st.integers(0, len(top)),
                                min_size=len(blocks), max_size=len(blocks))))
    spread = top[:cuts[0]]
    for i, b in enumerate(blocks):
        header = "".join(draw(st.sampled_from([c.lower(), c.upper()]))
                         for c in "[multipole]")
        spread += [header] + b + top[cuts[i]:(cuts + [len(top)])[i + 1]]
    noisy = []
    for ln in spread:
        noisy += draw(st.lists(st.sampled_from(["", "   ", "# a comment"]),
                               max_size=2))
        noisy.append(draw(st.sampled_from(["", "  "])) + ln
                     + draw(st.sampled_from(["", "  # trailing note"])))
    return "\n".join(canonical) + "\n", "\n".join(noisy) + "\n"


@given(_config_layouts())
def test_config_layout_does_not_change_the_parse(layouts):
    canonical, spread = layouts
    assert parse_config(spread) == parse_config(canonical)
