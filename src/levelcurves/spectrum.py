"""Angular power spectra with per-multipole temporal memory.

The statistical model is a finite set of multipoles.  Each multipole ell
carries a variance C_ell(0) and a memory exponent beta in (0, 1]:

    C_ell(tau) = C_ell(0) * (1 + |tau|)^(-beta)          for beta < 1
    C_ell(tau) = C_ell(0) * (1 + |tau|)^(-alpha)         for beta = 1,

with alpha >= 2.  beta < 1 makes the kernel non-integrable over the real
line (long memory); beta = 1 makes it integrable (short memory).  The
canonical model keeps the multiplier exactly constant (no slowly varying
factor), so every closed-form constant below is exact for the spectra the
workbench instantiates.

Spectra are always normalized so the field variance
sigma0^2 = sum (2 ell + 1)/(4 pi) C_ell(0) equals one; every covariance
formula in the package assumes this.

This module also houses the closed-form covariance quantities derived from
the model: the space-time covariance series, the gradient variance
sigma1^2, the full 3x3 covariance blocks of (Z, d_theta Z, (1/sin) d_phi Z)
between two space-time points, the long/short-memory regime report, and
int_R C_ell^2, the short-memory variance constant.  The finite-horizon
second-chaos variance is a lag sum of C_ell^2 on the sampled time grid
(``chaos.second_chaos_variance_exact``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import legendre_table

__all__ = [
    "MultipoleEntry",
    "PowerSpectrum",
    "make_spectrum",
    "RegimeReport",
    "LONG_MEMORY",
    "SHORT_MEMORY",
    "BOUNDARY",
    "multipole_cov",
    "space_time_cov",
    "sigma1_sq",
    "grad_cov_matrix",
    "classify_regime",
    "integrated_sq_cov",
]

LONG_MEMORY = "long-memory"
SHORT_MEMORY = "short-memory"
BOUNDARY = "boundary"

_NORM_TOL = 1e-12


# ----------------------------------------------------------------------
# Model types
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MultipoleEntry:
    """One multipole of the spectrum.  ``alpha`` is used only when beta = 1."""

    ell: int
    c0: float
    beta: float
    alpha: float | None = None


@dataclass(frozen=True)
class PowerSpectrum:
    """Validated, variance-normalized angular power spectrum."""

    entries: tuple[MultipoleEntry, ...]

    @property
    def ell_max(self):
        return self.entries[-1].ell

    @property
    def ells(self):
        return tuple(e.ell for e in self.entries)

    def entry(self, ell):
        for e in self.entries:
            if e.ell == ell:
                return e
        return None

    @property
    def sigma0_sq(self):
        return sum((2 * e.ell + 1) / (4 * math.pi) * e.c0 for e in self.entries)

    @property
    def sigma1_sq(self):
        return sigma1_sq(self)


def make_spectrum(entries, normalize=True, require_monopole=True):
    """Validate entries, optionally rescale to unit field variance.

    ``require_monopole=False`` admits spectra without an ell = 0 component
    (used for monochromatic single-multipole studies); regime
    classification then treats the monopole exponent as absent.
    """
    seen = set()
    cleaned = []
    for e in entries:
        ell = int(e.ell)
        if ell < 0:
            raise ValueError(f"multipole ell={ell} must be >= 0")
        if ell in seen:
            raise ValueError(f"duplicate multipole ell={ell}")
        seen.add(ell)
        c0 = float(e.c0)
        if not np.isfinite(c0) or c0 < 0:
            raise ValueError(f"c0 for ell={ell} must be finite and >= 0")
        beta = float(e.beta)
        if not 0.0 < beta <= 1.0:
            raise ValueError(f"beta for ell={ell} must lie in (0, 1], got {beta}")
        alpha = e.alpha
        if beta == 1.0:
            if alpha is None or float(alpha) < 2.0:
                raise ValueError(
                    f"beta = 1 for ell={ell} requires alpha >= 2, got {alpha}"
                )
            alpha = float(alpha)
        else:
            alpha = None
        cleaned.append(MultipoleEntry(ell, c0, beta, alpha))
    cleaned.sort(key=lambda e: e.ell)
    if not cleaned or all(e.c0 == 0 for e in cleaned):
        raise ValueError("spectrum needs at least one multipole with c0 > 0")
    if require_monopole:
        mono = [e for e in cleaned if e.ell == 0]
        if not mono or mono[0].c0 <= 0:
            raise ValueError(
                "spectrum must carry power at ell = 0 "
                "(pass require_monopole=False for monochromatic studies)"
            )
    total = sum((2 * e.ell + 1) / (4 * math.pi) * e.c0 for e in cleaned)
    if not 0.0 < total < math.inf:
        raise ValueError(
            f"variance sum {total!r} is not positive and finite, so the "
            "spectrum cannot be rescaled to unit variance")
    if normalize:
        cleaned = [
            MultipoleEntry(e.ell, e.c0 / total, e.beta, e.alpha) for e in cleaned
        ]
    elif abs(total - 1.0) > _NORM_TOL:
        raise ValueError(
            f"spectrum is not variance-normalized (sigma0^2 = {total!r}); "
            "pass normalize=True to rescale"
        )
    spec = PowerSpectrum(tuple(cleaned))
    if not abs(spec.sigma0_sq - 1.0) <= 1e-9:
        raise ValueError(
            f"spectrum did not normalize to unit variance (sigma0^2 = "
            f"{spec.sigma0_sq!r}); c0 values out of floating-point range"
        )
    return spec


@dataclass(frozen=True)
class RegimeReport:
    """Memory-regime classification of a spectrum.

    ``berry_levels`` holds the pair of levels +-u* where the second-chaos
    weight of the slowest multipole vanishes; it is present only when the
    slowest exponent is attained at a single multipole and
    lambda_(ell*) / (2 sigma1^2) <= 1.
    """

    regime: str
    ell_star: int
    i_star: tuple[int, ...]
    beta_star: float
    beta_star_star: float | None
    berry_levels: tuple[float, float] | None
    sigma1_sq: float
    expected_var_exponent: float | None


# ----------------------------------------------------------------------
# Covariance closed forms
# ----------------------------------------------------------------------

def _exponent(entry):
    return entry.alpha if entry.beta == 1.0 else entry.beta


def multipole_cov(spectrum, ell, tau):
    """C_ell(tau); zero for multipoles not present in the spectrum."""
    e = spectrum.entry(int(ell))
    if e is None:
        tau = np.asarray(tau, dtype=float)
        out = np.zeros_like(tau)
        return float(out) if np.ndim(out) == 0 else out
    out = np.abs(np.asarray(tau, dtype=float)) + 1.0
    out **= -_exponent(e)     # in place: one array of tau's length
    out *= e.c0
    return float(out) if np.ndim(out) == 0 else out


def space_time_cov(spectrum, eta, tau):
    """Covariance Gamma(eta, tau) = sum (2l+1)/(4 pi) C_l(tau) P_l(eta)."""
    eta_arr = np.asarray(eta, dtype=float)
    if np.any(np.abs(eta_arr) > 1.0 + 1e-12):
        raise ValueError("eta must lie in [-1, 1]")
    p, _, _ = legendre_table(spectrum.ell_max, eta_arr)
    out = np.zeros(np.shape(eta_arr))
    for e in spectrum.entries:
        ct = e.c0 * (1.0 + np.abs(tau)) ** (-_exponent(e))
        out = out + (2 * e.ell + 1) / (4 * math.pi) * ct * p[e.ell]
    return float(out) if np.ndim(out) == 0 else out


def sigma1_sq(spectrum):
    """Variance of each orthonormal-frame gradient component,
    sum (2l+1)/(4 pi) C_l(0) l(l+1)/2."""
    return sum(
        (2 * e.ell + 1) / (4 * math.pi) * e.c0 * e.ell * (e.ell + 1) / 2.0
        for e in spectrum.entries
    )


def _to_angles(point):
    """Accept (theta, phi) or a unit 3-vector; return (theta, phi)."""
    p = np.asarray(point, dtype=float)
    if p.shape == (2,):
        return float(p[0]), float(p[1])
    if p.shape == (3,):
        n = np.linalg.norm(p)
        if not math.isclose(n, 1.0, rel_tol=1e-9):
            raise ValueError("3-vector points must have unit norm")
        theta = math.acos(min(1.0, max(-1.0, p[2] / n)))
        phi = math.atan2(p[1], p[0])
        return theta, phi
    raise ValueError("point must be (theta, phi) or a unit 3-vector")


def grad_cov_matrix(spectrum, x, y, tau):
    """3x3 covariance block of (Z, d1 Z, d2 Z) at x against the same vector
    at y, with time lag tau.  d1 = d/d_theta, d2 = (1/sin theta) d/d_phi.

    Entries are chain-rule derivatives of the covariance series applied to
    eta = <x, y>; the frame degenerates at the poles, which are rejected.
    """
    thx, phx = _to_angles(x)
    thy, phy = _to_angles(y)
    for th in (thx, thy):
        if min(abs(th), abs(math.pi - th)) < 1e-9:
            raise ValueError("gradient frame is undefined at the poles")

    stx, ctx = math.sin(thx), math.cos(thx)
    sty, cty = math.sin(thy), math.cos(thy)
    cdp = math.cos(phx - phy)
    sdp = math.sin(phx - phy)
    eta = min(1.0, max(-1.0, ctx * cty + stx * sty * cdp))

    p, dp, d2p = legendre_table(spectrum.ell_max, eta)
    s0 = s1 = s2 = 0.0
    for e in spectrum.entries:
        f = (2 * e.ell + 1) / (4 * math.pi) * e.c0 \
            * (1.0 + abs(tau)) ** (-_exponent(e))
        s0 += f * p[e.ell]
        s1 += f * dp[e.ell]
        s2 += f * d2p[e.ell]

    # first derivatives of eta in the orthonormal frame
    e_thx = -stx * cty + ctx * sty * cdp
    e_thy = -ctx * sty + stx * cty * cdp
    e_phx = -sty * sdp            # (1/sin thx) d eta / d phx
    e_phy = stx * sdp             # (1/sin thy) d eta / d phy
    # mixed second derivatives, same normalization
    e_thx_thy = stx * sty + ctx * cty * cdp
    e_thx_phy = ctx * sdp
    e_phx_thy = -cty * sdp
    e_phx_phy = cdp

    m = np.empty((3, 3))
    m[0, 0] = s0
    m[0, 1] = s1 * e_thy
    m[0, 2] = s1 * e_phy
    m[1, 0] = s1 * e_thx
    m[2, 0] = s1 * e_phx
    m[1, 1] = s2 * e_thx * e_thy + s1 * e_thx_thy
    m[1, 2] = s2 * e_thx * e_phy + s1 * e_thx_phy
    m[2, 1] = s2 * e_phx * e_thy + s1 * e_phx_thy
    m[2, 2] = s2 * e_phx * e_phy + s1 * e_phx_phy
    return m


# ----------------------------------------------------------------------
# Regime classification
# ----------------------------------------------------------------------

def classify_regime(spectrum):
    """Long/short-memory classification with the slowest-multipole data.

    Long memory requires 2 beta* < min(beta_0, 1); short memory requires
    beta_0 = 1 and 2 beta_l > 1 for every l >= 1.  Anything else is
    reported as the boundary regime, never silently folded into one of the
    two theorems' hypotheses.
    """
    high = [e for e in spectrum.entries if e.ell >= 1 and e.c0 > 0]
    if not high:
        raise ValueError("regime classification needs a multipole with ell >= 1")
    beta_star = min(e.beta for e in high)
    i_star = tuple(e.ell for e in high if e.beta == beta_star)
    rest = [e.beta for e in high if e.ell not in i_star]
    beta_star_star = min(rest) if rest else None

    mono = spectrum.entry(0)
    beta0 = mono.beta if (mono is not None and mono.c0 > 0) else None

    beta0_cap = min(beta0, 1.0) if beta0 is not None else 1.0
    if 2 * beta_star < beta0_cap:
        regime = LONG_MEMORY
        exponent = 2.0 - 2.0 * beta_star
    elif (beta0 is None or beta0 == 1.0) and all(2 * e.beta > 1 for e in high):
        regime = SHORT_MEMORY
        exponent = 1.0
    else:
        regime = BOUNDARY
        exponent = None

    s1 = sigma1_sq(spectrum)
    ell_star = i_star[0]
    berry = None
    if len(i_star) == 1:
        lam = ell_star * (ell_star + 1)
        ratio = lam / (2.0 * s1)
        if ratio <= 1.0:
            u = math.sqrt(1.0 - ratio)
            berry = (-u, u)
    return RegimeReport(
        regime=regime,
        ell_star=ell_star,
        i_star=i_star,
        beta_star=beta_star,
        beta_star_star=beta_star_star,
        berry_levels=berry,
        sigma1_sq=s1,
        expected_var_exponent=exponent,
    )


# ----------------------------------------------------------------------
# Short-memory constant
# ----------------------------------------------------------------------

def integrated_sq_cov(spectrum, ell):
    """int over R of C_ell(tau)^2 dtau = 2 c0^2 / (p - 1), p = 2 x the
    exponent.  Requires an integrable square (2 beta > 1, always true at
    beta = 1 since alpha >= 2)."""
    e = spectrum.entry(int(ell))
    if e is None:
        raise ValueError(f"ell={ell} not present in the spectrum")
    expo = _exponent(e)
    if 2.0 * expo <= 1.0:
        raise ValueError(
            f"C_ell^2 is not integrable for ell={ell} (2 beta = {2 * e.beta})"
        )
    return 2.0 * e.c0**2 / (2.0 * expo - 1.0)

