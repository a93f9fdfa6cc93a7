import math

import numpy as np
import pytest
from scipy import integrate

from levelcurves.special import (
    gaussian_density,
    harmonic_columns,
    hermite_rows,
    legendre_table,
)

RNG = np.random.default_rng(2024)


def _legendre(l, eta):
    """(P_l, P'_l, P''_l) at a scalar eta."""
    return tuple(float(t[l]) for t in legendre_table(l, eta))


def _harmonic(l, m, th, ph):
    """Y_(l, m) at one point."""
    _, y = harmonic_columns([l], [th], [ph])
    return float(y[0, m + l])


# ----------------------------------------------------------------------
# Legendre polynomials
# ----------------------------------------------------------------------

def test_legendre_endpoint_and_linear():
    assert _legendre(3, 1.0)[0] == pytest.approx(1.0, abs=1e-14)
    assert _legendre(1, 0.5)[0] == pytest.approx(0.5, abs=1e-15)


def test_legendre_unit_bound_and_endpoint_all_degrees():
    eta = np.linspace(-1, 1, 201)
    p, _, _ = legendre_table(64, eta)
    assert np.all(np.abs(p) <= 1.0 + 1e-12)
    assert np.allclose(p[:, -1], 1.0, atol=1e-12)


def test_legendre_recurrence_residual():
    eta = RNG.uniform(-1, 1, size=50)
    p, _, _ = legendre_table(65, eta)
    for l in range(1, 64):
        resid = (l + 1) * p[l + 1] - (2 * l + 1) * eta * p[l] + l * p[l - 1]
        assert np.max(np.abs(resid)) < 1e-12


def test_legendre_norm_integral_via_gauss_quadrature():
    # independent oracle: numpy Gauss-Legendre nodes
    nodes, weights = np.polynomial.legendre.leggauss(64)
    p, _, _ = legendre_table(4, nodes)
    val = (weights * p[4] ** 2).sum()
    assert val == pytest.approx(2.0 / 9.0, rel=1e-12)


def test_legendre_orthogonality():
    nodes, weights = np.polynomial.legendre.leggauss(64)
    p, _, _ = legendre_table(20, nodes)
    gram = (p * weights) @ p.T
    expected = np.diag([2.0 / (2 * l + 1) for l in range(21)])
    assert np.max(np.abs(gram - expected)) < 1e-8


def test_legendre_derivatives_match_finite_differences():
    # five-point central stencils, h sized so truncation stays below 1e-6
    h = 1e-3
    for l in (2, 5, 9, 12):
        for eta in (-0.8, -0.3, 0.2, 0.7):
            vals = [_legendre(l, eta + k * h)[0] for k in (-2, -1, 0, 1, 2)]
            fd1 = (vals[0] - 8 * vals[1] + 8 * vals[3] - vals[4]) / (12 * h)
            fd2 = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3]
                   - vals[4]) / (12 * h * h)
            _, d1, d2 = _legendre(l, eta)
            assert d1 == pytest.approx(fd1, abs=1e-6)
            assert d2 == pytest.approx(fd2, abs=1e-6)


def test_legendre_derivatives_match_polynomial_oracle():
    # independent oracle: numpy polynomial differentiation
    eta = np.linspace(-1, 1, 41)
    p, dp, d2p = legendre_table(20, eta)
    for l in (0, 1, 2, 7, 15, 20):
        base = np.polynomial.legendre.Legendre.basis(l)
        assert np.allclose(dp[l], base.deriv(1)(eta), atol=1e-9)
        assert np.allclose(d2p[l], base.deriv(2)(eta), atol=1e-8)


def test_legendre_derivatives_finite_at_endpoints():
    for l in (1, 4, 11):
        for eta in (-1.0, 1.0):
            _, d1, d2 = _legendre(l, eta)
            assert np.isfinite(d1)
            assert np.isfinite(d2)
    # exact endpoint value P'_l(1) = l (l + 1) / 2
    assert _legendre(6, 1.0)[1] == pytest.approx(21.0, rel=1e-12)


def test_legendre_domain_errors():
    with pytest.raises(ValueError):
        legendre_table(3, 1.5)
    with pytest.raises(ValueError):
        legendre_table(-1, 0.0)


# ----------------------------------------------------------------------
# Real spherical harmonics
# ----------------------------------------------------------------------

def test_harmonic_constant_mode():
    assert _harmonic(0, 0, 0.7, 4.1) == pytest.approx(
        1.0 / math.sqrt(4 * math.pi), abs=1e-15)


def test_harmonic_sum_of_squares_addition_theorem_at_point():
    th, ph = 1.1, 2.4
    total = sum(_harmonic(2, m, th, ph) ** 2 for m in range(-2, 3))
    assert total == pytest.approx(5.0 / (4 * math.pi), rel=1e-12)


def test_addition_theorem_random_pairs():
    for _ in range(100):
        th1, th2 = RNG.uniform(0.05, math.pi - 0.05, 2)
        ph1, ph2 = RNG.uniform(0, 2 * math.pi, 2)
        x = np.array([math.sin(th1) * math.cos(ph1),
                      math.sin(th1) * math.sin(ph1), math.cos(th1)])
        y = np.array([math.sin(th2) * math.cos(ph2),
                      math.sin(th2) * math.sin(ph2), math.cos(th2)])
        l = int(RNG.integers(0, 21))
        _, yx = harmonic_columns([l], [th1], [ph1])
        _, yy = harmonic_columns([l], [th2], [ph2])
        lhs = float(yx[0] @ yy[0])
        rhs = (2 * l + 1) / (4 * math.pi) * _legendre(l, float(x @ y))[0]
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_harmonic_mesh_orthonormality(mesh5):
    # quadrature oracle on the mesh: <Y_31, Y_32> = 0, <Y_31, Y_31> = 1.
    # One-third-area vertex weights at level 5 resolve degree-6 products
    # to ~1e-5 (measured); tolerance frozen at 2e-5.
    _, y = harmonic_columns([3], mesh5.theta, mesh5.phi)
    w = mesh5.vertex_weights
    y31 = y[:, 3 + 1]
    y32 = y[:, 3 + 2]
    assert abs((w * y31 * y32).sum()) < 2e-5
    assert (w * y31 * y31).sum() == pytest.approx(1.0, abs=2e-5)


def test_harmonic_poles_and_domain():
    # at the north pole sin theta = 0 exactly: the columns with m != 0
    # vanish and Y_(l, 0) = sqrt((2l + 1) / 4 pi)
    _, y = harmonic_columns([3], [0.0], [1.0])
    assert np.all(y[0, [0, 1, 2, 4, 5, 6]] == 0.0)
    assert y[0, 3] == pytest.approx(math.sqrt(7 / (4 * math.pi)), rel=1e-14)
    with pytest.raises(ValueError):
        harmonic_columns([-1], [1.0], [1.0])


def test_harmonic_gradient_matches_finite_differences():
    h = 1e-5
    for l, m in ((1, 0), (3, 2), (5, -4), (8, 7)):
        th, ph = 1.0, 2.2
        _, _, d1, d2 = harmonic_columns([l], [th], [ph], derivatives=True)
        col = m + l
        fd_th = (_harmonic(l, m, th + h, ph)
                 - _harmonic(l, m, th - h, ph)) / (2 * h)
        fd_ph = (_harmonic(l, m, th, ph + h)
                 - _harmonic(l, m, th, ph - h)) / (2 * h)
        assert d1[0, col] == pytest.approx(fd_th, abs=1e-7)
        assert d2[0, col] == pytest.approx(fd_ph / math.sin(th), abs=1e-7)


# ----------------------------------------------------------------------
# Hermite polynomials and the Gaussian density
# ----------------------------------------------------------------------

def test_hermite_first_polynomials():
    u = np.linspace(-3, 3, 13)
    h = hermite_rows(3, u)
    assert np.allclose(h[0], 1.0)
    assert np.allclose(h[1], u)
    assert np.allclose(h[2], u * u - 1)
    assert np.allclose(h[3], u**3 - 3 * u)
    assert hermite_rows(2, 1.5)[2] == pytest.approx(1.25, abs=1e-14)
    assert hermite_rows(3, 2.0)[3] == pytest.approx(2.0, abs=1e-14)
    assert hermite_rows(0, 7.3)[0] == 1.0


def test_hermite_recurrence_relative_residual():
    u = RNG.uniform(-6, 6, size=40)
    h = hermite_rows(31, u)
    for q in range(1, 30):
        resid = h[q + 1] - (u * h[q] - q * h[q - 1])
        scale = np.maximum(np.abs(h[q + 1]), 1.0)
        assert np.max(np.abs(resid) / scale) < 1e-12


def test_hermite_orthogonality_under_gaussian_weight():
    # probabilists' Gauss-Hermite quadrature (exact for these degrees)
    nodes, weights = np.polynomial.hermite_e.hermegauss(64)
    weights = weights / weights.sum()  # normalize to the Gaussian measure
    h = hermite_rows(10, nodes)
    gram = (h * weights) @ h.T
    for q in range(11):
        for p in range(11):
            expected = math.factorial(q) if q == p else 0.0
            assert gram[q, p] == pytest.approx(
                expected, abs=1e-8 * max(1.0, math.factorial(q)))


def test_gaussian_density_values():
    assert gaussian_density(0.0) == pytest.approx(0.3989422804, abs=1e-10)
    assert gaussian_density(1.7) == gaussian_density(-1.7)
    val, _ = integrate.quad(gaussian_density, -8, 8, epsabs=1e-13)
    assert val == pytest.approx(1.0, abs=1e-10)
