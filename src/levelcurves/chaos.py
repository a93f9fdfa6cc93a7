"""Hermite/Wiener-chaos machinery for the boundary-length functional.

The centered, time-integrated level-curve length expands into orthogonal
chaos components

    C_T(u)[q] = sigma1 * sum over 0 <= k <= m <= q of
        alpha_(k, m-k) beta_(q-m)(u) / (k! (m-k)! (q-m)!)
        * int_0^T int_S2 H_(q-m)(Z) H_k(g1) H_(m-k)(g2) dx dt,

where g1, g2 are the frame gradients normalized by sigma1, beta_q(u) =
phi(u) H_q(u) are the Hermite coefficients of the level indicator, and the
alpha table carries the Hermite expansion of the Euclidean norm in the
plane (alpha vanishes unless both indices are even).

Two independent routes to the q = 2 component are provided: the
closed-form in terms of the sample power spectrum (no mesh), and the full
sphere-time quadrature of the triple-Hermite integrand (mesh or exact
cubature); their agreement is the strongest correctness lever in the
package.

Variance formulas.  The exact second-chaos variance follows from the
sample-spectrum form and Cov(a^2(t), a^2(s)) = 2 C(t-s)^2.  Every
replicate integrates in time by the trapezoid rule on its ``TimeGrid`` of
n steps dt apart, so the exact variance is a lag sum on that grid:

    Var(C_T(u)[2]) = (sigma1^2 pi / 4) phi(u)^2 * sum_ell (2 ell + 1)
        * w_ell(u)^2 * dt^2 sum_(|h| < n) A(h) C_ell(|h| dt)^2,

with w_ell(u) = (u^2 - 1) + lambda_ell / (2 sigma1^2) and A(h) the
autocorrelation of the trapezoid weights (1/2, 1, ..., 1, 1/2).  The lag
sum is the grid form of int_[0,T]^2 C_ell(t-s)^2 dt ds, whose large-T
limits give the asymptotic constants.  (The multiplicity enters linearly:
each multipole contributes 2 ell + 1 independent coefficient paths of
weight C_ell(0), and the spherical Legendre-square integral cancels one
2 ell + 1 factor.)  Monte Carlo ensembles reproduce this variance; see
the regression tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

from . import mcstats
from .geometry import boundary_functional
from .special import gaussian_density, hermite_rows
from .spectrum import (
    LONG_MEMORY,
    SHORT_MEMORY,
    classify_regime,
    integrated_sq_cov,
    multipole_cov,
    sigma1_sq,
)
from .synthesis import TimeGrid, measure_replicate

__all__ = [
    "norm_expansion_poly",
    "norm_hermite_coeff",
    "level_hermite_coeff",
    "ChaosTable",
    "chaos_table",
    "SamplePowerSpectrumPath",
    "sample_power_spectrum",
    "first_chaos_projection",
    "second_chaos_sample_spectrum",
    "chaos_projections_quadrature",
    "second_chaos_weight",
    "second_chaos_variance_exact",
    "VarianceConstants",
    "asymptotic_variance_constants",
    "TailEstimate",
    "higher_chaos_tail_estimate",
]


# ----------------------------------------------------------------------
# Expansion coefficients
# ----------------------------------------------------------------------

def norm_expansion_poly(order, x):
    """Polynomial p_N(x) = sum_j (-1)^j (-1)^N binom(N, j)
    (2j+1)!/(j!)^2 x^j entering the norm expansion coefficients.  The
    coefficients are integers, so p_N is exact for a Fraction x."""
    order = int(order)
    if order < 0:
        raise ValueError("order must be >= 0")
    return sum((-1) ** (j + order) * math.comb(order, j) * (2 * j + 1)
               * math.comb(2 * j, j) * x**j for j in range(order + 1))


def norm_hermite_coeff(n, m):
    """Hermite coefficient alpha_(n, m) of the planar norm ||.||; zero
    unless both indices are even, and for n = 2a, m = 2b

        alpha = sqrt(pi/2) (2a)!(2b)!/(a! b!) 2^-(a+b) p_(a+b)(1/4).

    The rational factor is accumulated exactly, so small coefficients such
    as alpha_(0,0) = sqrt(pi/2) and alpha_(2,0) = sqrt(pi/2)/2 are exact to
    the last bit.
    """
    n = int(n)
    m = int(m)
    if n < 0 or m < 0:
        raise ValueError("indices must be >= 0")
    if n % 2 or m % 2:
        return 0.0
    a, b = n // 2, m // 2
    ratio = Fraction(math.factorial(2 * a) * math.factorial(2 * b),
                     math.factorial(a) * math.factorial(b) * 2 ** (a + b))
    exact = ratio * norm_expansion_poly(a + b, Fraction(1, 4))
    return math.sqrt(math.pi / 2.0) * float(exact)


def level_hermite_coeff(order, u):
    """Hermite coefficient beta_q(u) = phi(u) H_q(u) of the level
    indicator at threshold u."""
    h = hermite_rows(int(order), float(u))
    return gaussian_density(u) * float(h[int(order)])


@dataclass(frozen=True)
class ChaosTable:
    """Assembled expansion weights for chaos orders up to q_max.

    ``weights[q, m, k]`` is sigma1 * alpha_(k, m-k) beta_(q-m)(u) /
    (k! (m-k)! (q-m)!), valid for k <= m <= q, zero elsewhere (including
    every term where k or m - k is odd, by the alpha parity).
    """

    level: float
    q_max: int
    sigma1: float
    alpha: np.ndarray
    beta: np.ndarray
    weights: np.ndarray

    def weight(self, q, m, k):
        return float(self.weights[q, m, k])

    def terms(self, q):
        """Nonzero (m, k, weight) triples of order q."""
        out = []
        for m in range(q + 1):
            for k in range(m + 1):
                w = self.weights[q, m, k]
                if w != 0.0:
                    out.append((m, k, float(w)))
        return out


@lru_cache(maxsize=None)
def _alpha_table(q_max):
    """Read-only alpha_(n, m) for n, m <= q_max, built once per q_max."""
    alpha = np.zeros((q_max + 1, q_max + 1))
    for n in range(0, q_max + 1, 2):
        for m in range(0, q_max + 1, 2):
            alpha[n, m] = norm_hermite_coeff(n, m)
    alpha.flags.writeable = False
    return alpha


def chaos_table(u, q_max, sigma1=1.0):
    """Populate the alpha/beta tables and the per-(q, m, k) weights."""
    q_max = int(q_max)
    if not 0 <= q_max <= 12:
        raise ValueError("q_max must lie in [0, 12] (factorial growth)")
    alpha = _alpha_table(q_max)
    beta = np.array([level_hermite_coeff(l, u) for l in range(q_max + 1)])
    weights = np.zeros((q_max + 1,) * 3)
    for q in range(q_max + 1):
        for m in range(q + 1):
            for k in range(m + 1):
                a = alpha[k, m - k]
                if a == 0.0:
                    continue
                denom = (math.factorial(k) * math.factorial(m - k)
                         * math.factorial(q - m))
                weights[q, m, k] = sigma1 * a * beta[q - m] / denom
    return ChaosTable(level=float(u), q_max=q_max, sigma1=float(sigma1),
                      alpha=alpha, beta=beta, weights=weights)


# ----------------------------------------------------------------------
# Sample power spectrum
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SamplePowerSpectrumPath:
    """Per-step sample spectrum of one multipole,
    Chat_ell(t_k) = (1/(2 ell + 1)) sum_m a_(ell m)(t_k)^2, and the
    trapezoidal integral of Chat_ell - C_ell(0)."""

    ell: int
    values: np.ndarray
    centered_integral: float


def sample_power_spectrum(ensemble, ell):
    ell = int(ell)
    entry = ensemble.spectrum.entry(ell)
    if entry is None:
        raise ValueError(f"ell={ell} not present in the spectrum")
    rows = ensemble.rows_for(ell)
    values = (ensemble.coeffs[rows] ** 2).mean(axis=0)
    centered = float(np.trapezoid(values - entry.c0, dx=ensemble.grid.dt))
    values.flags.writeable = False
    return SamplePowerSpectrumPath(ell=ell, values=values,
                                   centered_integral=centered)


# ----------------------------------------------------------------------
# Closed-form chaos projections (coefficient paths only, no mesh)
# ----------------------------------------------------------------------

def second_chaos_weight(spectrum, ell, u):
    """Level weight w_ell(u) = (u^2 - 1) + lambda_ell / (2 sigma1^2) of a
    multipole in the second chaos; affine in u^2 with unit slope."""
    lam = ell * (ell + 1)
    return (u * u - 1.0) + lam / (2.0 * sigma1_sq(spectrum))


def first_chaos_projection(ensemble, u):
    """First chaos sigma1 sqrt(2) pi u phi(u) int_0^T a_00(t) dt; vanishes
    identically at u = 0."""
    spec = ensemble.spectrum
    if spec.entry(0) is None:
        raise ValueError("first chaos needs the ell = 0 multipole")
    a00 = ensemble.path(0, 0)
    integral = float(np.trapezoid(a00, dx=ensemble.grid.dt))
    s1 = math.sqrt(sigma1_sq(spec))
    return s1 * math.sqrt(2.0) * math.pi * u * gaussian_density(u) * integral


def second_chaos_sample_spectrum(ensemble, u):
    """Second chaos via the sample power spectrum:
    (sigma1/2) sqrt(pi/2) phi(u) sum_ell (2 ell + 1) w_ell(u)
    int (Chat_ell - C_ell(0)) dt."""
    spec = ensemble.spectrum
    s1 = math.sqrt(sigma1_sq(spec))
    total = 0.0
    for e in spec.entries:
        d_ell = sample_power_spectrum(ensemble, e.ell).centered_integral
        total += (2 * e.ell + 1) * second_chaos_weight(spec, e.ell, u) * d_ell
    return 0.5 * s1 * math.sqrt(math.pi / 2.0) * gaussian_density(u) * total


# ----------------------------------------------------------------------
# Quadrature projections (mesh or cubature route)
# ----------------------------------------------------------------------

_BLOCK_VALUES = 40_000  # (slice, vertex) values per block of the quadrature


def _recurrence_rows(h, x, tmp, coeffs):
    """Fill h[:, 1:] from h[:, 0] in place by h_(i+1) = (x - b_i) h_i
    - c_i h_(i-1), with (b_i, c_i) from ``coeffs``; tmp is scratch."""
    for i, (b, c) in enumerate(coeffs):
        np.multiply(np.subtract(x, b, out=tmp) if b else x, h[:, i],
                    out=h[:, i + 1])
        if i:
            h[:, i + 1] -= np.multiply(h[:, i - 1], c, out=tmp)


def chaos_projections_quadrature(ensemble, basis, u, orders):
    """Sphere-time quadrature of the triple-Hermite integrands for several
    chaos orders in one sweep over time slices, on the mesh or cubature of
    ``basis`` (a ``HarmonicBasis``).  The order-q integrand is a spherical
    polynomial of degree <= q * ell_max, so ``sphere_cubature`` of that
    degree gives the exact projection; a mesh gives an approximation.

    Gradients are normalized by sigma1 before entering the Hermite
    products.  Returns {q: value}.  The slices go in blocks of about
    ``_BLOCK_VALUES`` values through buffers allocated once per call.  A
    block takes H_0..H_q_max(Z) and the even rows w H_k(g1) and H_j(g2)
    (alpha vanishes at odd orders; H_(n+2) = (g^2 - 2n - 1) H_n
    - n (n - 1) H_(n-2)), forms P_kj = w H_k(g1) H_j(g2) once per distinct
    gradient pair, and gets the moments M[s, a, (k, j)] = sum_v H_a(Z) P_kj
    from one batched matmul.  A slice's order-q value is a weighted sum of
    its moments.
    """
    orders = sorted(set(int(q) for q in orders))
    if not orders or orders[0] < 1:
        raise ValueError("chaos orders must be >= 1")
    q_max = orders[-1]
    s1 = math.sqrt(sigma1_sq(ensemble.spectrum))
    table = chaos_table(u, q_max, sigma1=s1)
    terms = [(i, q - m, (k, m - k), wgt)
             for i, q in enumerate(orders) for m, k, wgt in table.terms(q)]
    pairs = sorted({pair for _i, _a, pair, _w in terms})
    coef = np.zeros((len(orders), q_max + 1, len(pairs)))
    for i, a, pair, wgt in terms:
        coef[i, a, pairs.index(pair)] = wgt
    k_half = max((max(pair) for pair in pairs), default=0) // 2
    z_rec = [(0, q) for q in range(q_max)]
    g_rec = [(4 * i + 1, 2 * i * (2 * i - 1)) for i in range(k_half)]

    n = ensemble.grid.n_steps
    n_vertices = basis.mesh.n_vertices
    step = min(n, max(1, round(_BLOCK_VALUES / n_vertices)))
    # one allocation, so that glibc serves repeated calls from the same
    # heap pages instead of mapping and faulting in fresh ones
    rows = np.cumsum([3, q_max + 1, 2 * (k_half + 1), len(pairs)])
    buf = np.split(np.empty(rows[-1] * step * n_vertices),
                   rows[:-1] * step * n_vertices)
    z, g, tmp = buf[0].reshape(3, step, n_vertices)
    hz = buf[1].reshape(step, q_max + 1, n_vertices)
    h1, h2 = buf[2].reshape(2, step, k_half + 1, n_vertices)
    prods = buf[3].reshape(step, len(pairs), n_vertices)
    hz[:, 0] = h2[:, 0] = 1.0
    h1[:, 0] = basis.mesh.vertex_weights
    moments = np.empty((n, q_max + 1, len(pairs)))
    for start in range(0, n, step):
        a = ensemble.coeffs[:, start:start + step].T
        s = a.shape[0]
        np.matmul(a, basis.y.T, out=z[:s])
        _recurrence_rows(hz[:s], z[:s], tmp[:s], z_rec)
        for h, d in zip((h1, h2), basis.dy):
            np.square(np.matmul(a / s1, d.T, out=g[:s]), out=g[:s])
            _recurrence_rows(h[:s], g[:s], tmp[:s], g_rec)
        for p, (k, j) in enumerate(pairs):
            np.multiply(h1[:s, k // 2], h2[:s, j // 2], out=prods[:s, p])
        np.matmul(hz[:s], prods[:s].transpose(0, 2, 1),
                  out=moments[start:start + s])
    per_step = np.tensordot(coef, moments, axes=((1, 2), (1, 2)))
    values = np.trapezoid(per_step, dx=ensemble.grid.dt, axis=1)
    return {q: float(v) for q, v in zip(orders, values)}


# ----------------------------------------------------------------------
# Variance formulas
# ----------------------------------------------------------------------

def _trapezoid_lag_weights(n_steps):
    """Autocorrelation A(h) = sum_k w_k w_(k+h), h = 0..n-1, of the unit
    trapezoid weights w = (1/2, 1, ..., 1, 1/2) on n >= 2 steps:
    A(0) = n - 3/2, A(h) = n - 1 - h for 0 < h < n - 1, A(n-1) = 1/4."""
    a = (n_steps - 1.0) - np.arange(n_steps, dtype=float)
    a[0] -= 0.5
    a[-1] = 0.25
    return a


def second_chaos_variance_exact(spectrum, u, grid):
    """Exact second-chaos variance on the ``TimeGrid`` the replicates are
    sampled on: per multipole the time factor is the lag sum
    dt^2 sum_(|h| < n) A(h) C_ell(|h| dt)^2, O(n) with no eigenvalues."""
    s1sq = sigma1_sq(spectrum)
    phi2 = gaussian_density(u) ** 2
    lags = _trapezoid_lag_weights(grid.n_steps)
    tau = grid.times
    total = 0.0
    for e in spectrum.entries:
        w = second_chaos_weight(spectrum, e.ell, u)
        csq = multipole_cov(spectrum, e.ell, tau) ** 2
        # A and C^2 are even in h: each lag h > 0 stands for +-h
        lag_sum = 2.0 * (lags @ csq) - lags[0] * csq[0]
        total += (2 * e.ell + 1) * w * w * grid.dt ** 2 * lag_sum
    return s1sq * math.pi / 4.0 * phi2 * total


@dataclass(frozen=True)
class VarianceConstants:
    """Leading asymptotic variance constants of the second chaos.

    long_constant: lim Var(C_T(u)[2]) / T^(2 - 2 beta*) under long memory;
    short_constant: lim Var(C_T(u)[2]) / T under short memory.  Whichever
    does not apply to the spectrum's regime is None; in the boundary
    regime both are None.
    """

    regime: str
    long_constant: float | None
    short_constant: float | None


def asymptotic_variance_constants(spectrum, u):
    report = classify_regime(spectrum)
    s1sq = sigma1_sq(spectrum)
    phi2 = gaussian_density(u) ** 2
    pref = s1sq * math.pi / 4.0 * phi2
    long_c = None
    short_c = None
    if report.regime == LONG_MEMORY:
        total = 0.0
        for ell in report.i_star:
            e = spectrum.entry(ell)
            w = second_chaos_weight(spectrum, ell, u)
            total += (2 * ell + 1) * w * w * e.c0**2 \
                / ((1.0 - 2.0 * e.beta) * (1.0 - e.beta))
        long_c = pref * total
    elif report.regime == SHORT_MEMORY:
        total = 0.0
        for e in spectrum.entries:
            w = second_chaos_weight(spectrum, e.ell, u)
            total += (2 * e.ell + 1) * w * w * integrated_sq_cov(spectrum, e.ell)
        short_c = pref * total
    return VarianceConstants(regime=report.regime, long_constant=long_c,
                             short_constant=short_c)


# ----------------------------------------------------------------------
# Higher-order tail
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TailEstimate:
    """Empirical proxy for the q >= 3 chaos tail across a horizon ladder.

    ``tail_variances`` are Var(C_T(u) - C_T(u)[1] - C_T(u)[2]) per
    horizon; ``tail_shares`` divide by Var(C_T(u)).  The fitted growth
    exponent comes from a weighted log-log fit.
    """

    horizons: tuple
    tail_variances: tuple
    tail_ses: tuple
    tail_shares: tuple
    fitted_exponent: float
    exponent_se: float


def _length_and_tail(basis, u, ensemble):
    c_t = boundary_functional(ensemble, basis, u).centered
    p1 = first_chaos_projection(ensemble, u)
    p2 = second_chaos_sample_spectrum(ensemble, u)
    return c_t, c_t - p1 - p2


def higher_chaos_tail_estimate(spectrum, basis, u, horizons, replicates, seed,
                               dt=1.0, workers=1):
    """Monte Carlo tail study on the mesh of ``basis``: full pipeline minus
    the two leading closed-form projections, over a ladder of horizons."""
    horizons = sorted(float(t) for t in horizons)
    master = np.random.SeedSequence(int(seed))
    ladder_seeds = master.spawn(len(horizons))
    tail_vars, tail_ses, shares = [], [], []
    for t_idx, horizon in enumerate(horizons):
        grid = TimeGrid.for_horizon(horizon, dt)
        one = partial(measure_replicate, spectrum, grid,
                      partial(_length_and_tail, basis, u))
        rows = mcstats.replicate_map(one, ladder_seeds[t_idx], replicates,
                                     workers=workers)
        totals = np.array([r[0] for r in rows])
        tails = np.array([r[1] for r in rows])
        var, se = mcstats.variance_with_bootstrap_se(tails, seed=t_idx)
        tail_vars.append(var)
        tail_ses.append(se)
        shares.append(var / totals.var(ddof=1))
    fit = mcstats.fit_loglog(horizons, tail_vars, tail_ses)
    return TailEstimate(
        horizons=tuple(horizons),
        tail_variances=tuple(tail_vars),
        tail_ses=tuple(tail_ses),
        tail_shares=tuple(shares),
        fitted_exponent=fit.slope,
        exponent_se=fit.slope_se,
    )
