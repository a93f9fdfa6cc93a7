"""Classical special functions shared by every other module.

Tables of Legendre polynomials with first and second derivatives, columns
of orthonormal real spherical harmonics (with colatitude / longitude
derivatives), tables of probabilists' Hermite polynomials, and the
standard Gaussian density.

Everything is evaluated through upward three-term recurrences, which are
stable for the degree range this package targets (ell up to a few hundred).
Accuracy degrades past ell ~ 500; no asymptotic regime is implemented.
Normalization of the associated Legendre functions is baked into the
recurrence coefficients so no factorial is ever formed explicitly.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "legendre_table",
    "harmonic_columns",
    "hermite_rows",
    "gaussian_density",
]


# ----------------------------------------------------------------------
# Legendre polynomials
# ----------------------------------------------------------------------

def legendre_table(ell_max, eta):
    """P_ell(eta), P'_ell(eta), P''_ell(eta) for all ell <= ell_max.

    ``eta`` may be a scalar or an array; returned arrays have shape
    ``(ell_max + 1,) + eta.shape``.  The derivative recurrences
    ``P'_(l+1) = P'_(l-1) + (2l+1) P_l`` (and its derivative) stay finite
    at eta = +-1, unlike the textbook formula with a 1 - eta^2 divisor.
    """
    if ell_max < 0:
        raise ValueError("ell_max must be >= 0")
    eta = np.asarray(eta, dtype=float)
    if np.any(np.abs(eta) > 1.0 + 1e-12):
        raise ValueError("eta must lie in [-1, 1]")
    eta = np.clip(eta, -1.0, 1.0)
    shape = (ell_max + 1,) + eta.shape
    p = np.zeros(shape)
    dp = np.zeros(shape)
    d2p = np.zeros(shape)
    p[0] = 1.0
    if ell_max >= 1:
        p[1] = eta
        dp[1] = 1.0
    for l in range(1, ell_max):
        p[l + 1] = ((2 * l + 1) * eta * p[l] - l * p[l - 1]) / (l + 1)
        dp[l + 1] = dp[l - 1] + (2 * l + 1) * p[l]
        d2p[l + 1] = d2p[l - 1] + (2 * l + 1) * dp[l]
    return p, dp, d2p


# ----------------------------------------------------------------------
# Real spherical harmonics
# ----------------------------------------------------------------------
#
# Y_(l,0)  = Ptilde_(l,0)(cos theta)
# Y_(l,m)  = sqrt(2) Ptilde_(l,m)(cos theta) cos(m phi),   m > 0
# Y_(l,-m) = sqrt(2) Ptilde_(l,m)(cos theta) sin(m phi),   m > 0
#
# with Ptilde the associated Legendre function normalized so that the Y's
# are orthonormal on the sphere (the 1/sqrt(4 pi) is folded in).

def _normalized_alf_blocks(ell_max, x, s, want_theta_deriv):
    """Ptilde_(l,m) for all 0 <= m <= l <= ell_max at points (x = cos theta,
    s = sin theta), plus d/d_theta when requested.

    Returns dict {(l, m): array}, and a second dict for the derivatives
    (empty when not requested).  The theta derivative uses
    d/d_theta Ptilde_(l,m) = (l x Ptilde_(l,m)
                              - sqrt((l^2-m^2)(2l+1)/(2l-1)) Ptilde_(l-1,m)) / s,
    valid away from the poles (meshes in this package exclude them).
    """
    vals = {}
    derivs = {}
    inv4pi = 1.0 / math.sqrt(4.0 * math.pi)
    pmm = np.full_like(x, inv4pi)
    for m in range(ell_max + 1):
        if m > 0:
            pmm = pmm * math.sqrt((2 * m + 1) / (2.0 * m)) * s
        prev2 = None
        prev1 = pmm
        vals[(m, m)] = pmm
        for l in range(m + 1, ell_max + 1):
            if l == m + 1:
                cur = math.sqrt(2 * m + 3.0) * x * prev1
            else:
                a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
                b = math.sqrt(
                    (2.0 * l + 1.0)
                    * ((l - 1.0) ** 2 - m * m)
                    / ((2.0 * l - 3.0) * (l * l - m * m))
                )
                cur = a * x * prev1 - b * prev2
            vals[(l, m)] = cur
            prev2, prev1 = prev1, cur
    if want_theta_deriv:
        for (l, m), plm in vals.items():
            if l == 0:
                derivs[(l, m)] = np.zeros_like(plm)
                continue
            term = l * x * plm
            if l - 1 >= m:
                fac = math.sqrt((l * l - m * m) * (2.0 * l + 1.0) / (2.0 * l - 1.0))
                term = term - fac * vals[(l - 1, m)]
            derivs[(l, m)] = term / s
    return vals, derivs


def harmonic_columns(ells, theta, phi, derivatives=False):
    """Real-harmonic basis columns at points (theta, phi).

    ``ells`` lists the degrees to include; columns are ordered by ascending
    degree, m = -ell..ell within each degree.  Returns ``(labels, y)`` or
    ``(labels, y, dy_theta, dy_phi)`` where ``dy_phi`` is the orthonormal-
    frame derivative (1/sin theta) dY/d_phi.  Arrays have shape
    ``(npoints, ncols)``.
    """
    ells = sorted(set(int(l) for l in ells))
    if any(l < 0 for l in ells):
        raise ValueError("degrees must be >= 0")
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    x = np.cos(theta)
    s = np.sin(theta)
    ell_max = max(ells) if ells else 0
    vals, dth = _normalized_alf_blocks(ell_max, x, s, derivatives)

    labels = [(l, m) for l in ells for m in range(-l, l + 1)]
    npts = theta.shape[0]
    y = np.empty((npts, len(labels)))
    dy1 = np.empty_like(y) if derivatives else None
    dy2 = np.empty_like(y) if derivatives else None
    sqrt2 = math.sqrt(2.0)
    inv_s = None
    if derivatives:
        inv_s = 1.0 / s
    for j, (l, m) in enumerate(labels):
        am = abs(m)
        plm = vals[(l, am)]
        if m == 0:
            y[:, j] = plm
            if derivatives:
                dy1[:, j] = dth[(l, am)]
                dy2[:, j] = 0.0
        elif m > 0:
            cos_m = np.cos(m * phi)
            y[:, j] = sqrt2 * plm * cos_m
            if derivatives:
                dy1[:, j] = sqrt2 * dth[(l, am)] * cos_m
                dy2[:, j] = -sqrt2 * m * plm * np.sin(m * phi) * inv_s
        else:
            sin_m = np.sin(am * phi)
            y[:, j] = sqrt2 * plm * sin_m
            if derivatives:
                dy1[:, j] = sqrt2 * dth[(l, am)] * sin_m
                dy2[:, j] = sqrt2 * am * plm * np.cos(am * phi) * inv_s
    if derivatives:
        return labels, y, dy1, dy2
    return labels, y


# ----------------------------------------------------------------------
# Hermite polynomials (probabilists') and the Gaussian density
# ----------------------------------------------------------------------

def hermite_rows(q_max, u):
    """H_0..H_q_max stacked along the first axis, recurrence
    H_(q+1)(u) = u H_q(u) - q H_(q-1)(u)."""
    if q_max < 0:
        raise ValueError("order must be >= 0")
    u = np.asarray(u, dtype=float)
    h = np.empty((q_max + 1,) + u.shape)
    h[0] = 1.0
    if q_max >= 1:
        h[1] = u
    for q in range(1, q_max):
        h[q + 1] = u * h[q] - q * h[q - 1]
    return h


def gaussian_density(u):
    """Standard Gaussian probability density phi(u)."""
    u = np.asarray(u, dtype=float)
    out = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    return float(out) if np.ndim(out) == 0 else out
