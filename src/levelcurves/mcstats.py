"""Small Monte Carlo statistics helpers shared by the study modules.

Replicate fan-out with derived per-replicate seeds (deterministic,
order-fixed reduction, optional process workers), bootstrap standard
errors for variances, weighted log-log power-law fits, and the one- and
two-sample Kolmogorov-Smirnov tests with their exact finite-sample laws
(the Durbin matrix of Marsaglia, Tsang & Wang 2003 and Hodges' 1958
lattice-path count).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

__all__ = [
    "replicate_seeds",
    "replicate_map",
    "variance_with_bootstrap_se",
    "LogLogFit",
    "fit_loglog",
    "KSTest",
    "ks_normal",
    "ks_two_sample",
    "kolmogorov_sf",
]


def replicate_seeds(master_seed, count):
    """``count`` independent child SeedSequences of a master seed."""
    ss = master_seed if isinstance(master_seed, np.random.SeedSequence) \
        else np.random.SeedSequence(int(master_seed))
    return ss.spawn(count)


def _run_chunk(fn, seeds):
    return [fn(s) for s in seeds]


def replicate_map(fn, master_seed, count, workers=1):
    """Evaluate ``fn(seed_sequence)`` for ``count`` derived seeds.

    Results come back in replicate order regardless of completion order,
    so parallel and serial runs are bit-identical provided ``fn`` itself is
    deterministic in its seed.  ``fn`` must be picklable when workers > 1.
    """
    seeds = replicate_seeds(master_seed, count)
    if workers <= 1:
        return [fn(s) for s in seeds]
    chunk = max(1, math.ceil(count / (workers * 4)))
    chunks = [seeds[i:i + chunk] for i in range(0, count, chunk)]
    out = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run_chunk, fn, c) for c in chunks]
        for fut in futures:  # submission order == replicate order
            out.extend(fut.result())
    return out


def variance_with_bootstrap_se(samples, n_boot=200, seed=0):
    """Unbiased sample variance and its bootstrap standard error."""
    x = np.asarray(samples, dtype=float)
    if x.size < 2 or np.ptp(x) == 0.0:
        raise ValueError("variance estimate needs at least two distinct samples")
    var = float(x.var(ddof=1))
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, x.size, size=(n_boot, x.size))
    boots = x[idx].var(axis=1, ddof=1)
    return var, float(boots.std(ddof=1))


@dataclass(frozen=True)
class LogLogFit:
    slope: float
    slope_se: float
    intercept: float


def fit_loglog(x, y, y_se):
    """Weighted least squares of log y on log x; ``y_se`` are standard
    errors of y, propagated to log scale as se/y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    y_se = np.asarray(y_se, dtype=float)
    if x.size < 2:
        raise ValueError("need at least two points to fit a slope")
    lx = np.log(x)
    ly = np.log(y)
    w = (y / y_se) ** 2
    xb = (w * lx).sum() / w.sum()
    yb = (w * ly).sum() / w.sum()
    sxx = (w * (lx - xb) ** 2).sum()
    slope = (w * (lx - xb) * (ly - yb)).sum() / sxx
    intercept = yb - slope * xb
    return LogLogFit(slope=float(slope), slope_se=float(1.0 / math.sqrt(sxx)),
                     intercept=float(intercept))


# ----------------------------------------------------------------------
# Kolmogorov-Smirnov tests
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class KSTest:
    """Two-sided Kolmogorov-Smirnov statistic and its p-value."""

    statistic: float
    pvalue: float


def ks_normal(sample):
    """One-sample two-sided KS test of ``sample`` against N(0, 1).

    The p-value is the exact finite-n law P(D_n >= D) of
    ``kolmogorov_sf``.
    """
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    if n == 0 or not np.isfinite(x).all():
        raise ValueError("KS test needs a non-empty, finite sample")
    cdf = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x])
    d_plus = (np.arange(1.0, n + 1) / n - cdf).max()
    d_minus = (cdf - np.arange(0.0, n) / n).max()
    d = float(max(d_plus, d_minus))
    return KSTest(d, kolmogorov_sf(n, d))


def ks_two_sample(a, b):
    """Two-sample two-sided KS test.

    D is the largest gap between the two empirical CDFs, an exact multiple
    h / lcm(n1, n2).  The p-value is the exact conditional law
    P(D >= h / lcm) under exchangeability, from Hodges' (1958) lattice-path
    recurrence in the form that carries 1 - p (Viehmann 2021,
    arXiv:2102.08037).  Ties are allowed.
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    n1, n2 = a.size, b.size
    if min(n1, n2) == 0 or not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("KS test needs two non-empty, finite samples")
    both = np.concatenate([a, b])
    g = math.gcd(n1, n2)
    gap = (np.searchsorted(a, both, side="right") * (n2 // g)
           - np.searchsorted(b, both, side="right") * (n1 // g))
    h = int(np.abs(gap).max())
    lcm = n1 // g * n2
    return KSTest(h / lcm, _outside_band_prob(n1, n2, g, h) if h else 1.0)


def kolmogorov_sf(n, d):
    """P(D_n >= d) for the two-sided one-sample KS statistic of n draws.

    Branches follow Simard & L'Ecuyer (2011): the Ruben-Gambino closed
    forms at both ends (n d <= 1 and n d >= n - 1); the Birnbaum-Tingey
    one-sided sum, doubled, in the upper tail (d >= 1/2, where it is exact,
    and beyond n d^2 = 4 for n <= 140 or n d^2 = 2.2 for larger n, where
    the overlap it ignores is negligible); and 1 - the Durbin-matrix CDF
    everywhere else.
    """
    if d >= 1.0:
        return 0.0
    t = n * d
    if t <= 0.5:
        return 1.0
    if t <= 1.0:
        cdf = math.exp(math.lgamma(n + 1) - n * math.log(n)
                       + n * math.log(2.0 * t - 1.0))
        return 1.0 - cdf
    if t >= n - 1:
        return 2.0 * (1.0 - d) ** n
    nd2 = t * d
    if n > 140 and nd2 >= 370.0:
        return 0.0
    if d >= 0.5 or (nd2 > 4.0 if n <= 140 else nd2 >= 2.2):
        return min(1.0, 2.0 * _smirnov_sf(n, d))
    return min(1.0, max(0.0, 1.0 - _durbin_cdf(n, d)))


def _smirnov_sf(n, d):
    """P(D_n^+ >= d), Birnbaum & Tingey (1951): a sum of positive terms."""
    nd = n * d
    j = np.arange(math.floor(n - nd) + 1)
    low = n - j - nd
    keep = low > 0.0
    j, low = j[keep], low[keep]
    log_binom = np.array([math.lgamma(n + 1) - math.lgamma(k + 1)
                          - math.lgamma(n - k + 1) for k in j.tolist()])
    terms = np.exp(log_binom + (n - j) * np.log(low / n)
                   + (j - 1) * np.log(d + j / n))
    return d * float(terms.sum())


def _durbin_cdf(n, d):
    """P(D_n < d) by the Durbin matrix, Marsaglia, Tsang & Wang (2003).

    With n d = k - h (k integer, 0 <= h < 1) the CDF is n!/n^n times the
    central entry of H^n for a (2k - 1)-square matrix H.  Powers are kept
    at unit scale by exact powers of two, whose exponent is carried apart.
    """
    k = math.ceil(n * d)
    h = k - n * d
    m = 2 * k - 1
    inv_fact = np.array([1 / math.factorial(i) for i in range(m + 1)])
    lag = np.arange(m)[:, None] - np.arange(m)[None, :] + 1
    H = np.where(lag >= 0, inv_fact[np.maximum(lag, 0)], 0.0)
    v = (1.0 - h ** np.arange(1, m + 1)) * inv_fact[1:]
    v[-1] = (1.0 + max(2.0 * h - 1.0, 0.0) ** m - 2.0 * h ** m) * inv_fact[m]
    H[:, 0] = v
    H[-1, :] = v[::-1]

    def rescaled(a):
        e = math.frexp(float(a.max()))[1]
        return np.ldexp(a, -e), e

    power, power_exp, H_exp, nn = np.eye(m), 0, 0, n
    while True:            # H^n by squaring; true value = stored * 2^exp
        if nn & 1:
            power, e = rescaled(power @ H)
            power_exp += H_exp + e
        nn >>= 1
        if not nn:
            break
        H, e = rescaled(H @ H)
        H_exp = 2 * H_exp + e
    p, exp2 = math.frexp(float(power[k - 1, k - 1]))
    exp2 += power_exp
    for i in range(1, n + 1):   # times n!/n^n
        p = i * p / n
        if p < 2.0 ** -128:
            p, e = math.frexp(p)
            exp2 += e
    return math.ldexp(p, exp2)


def _outside_band_prob(n1, n2, g, h):
    """Share of the monotone lattice paths from (0, 0) to (n1, n2) that
    leave the band |x n2 - y n1| < h g, i.e. P(D >= h / lcm).

    Column by column over the larger sample, a sliding window of the
    smaller one carries A(i, j) = 1 - P(path to (i, j) stays inside), with
    A(i, j) = (i A(i - 1, j) + j A(i, j - 1)) / (i + j) inside the band and
    1 outside it.
    """
    m, n = max(n1, n2), min(n1, n2)
    mg, ng = m // g, n // g
    lo, hi = 0, min(-(-h // mg), n + 1)    # window [lo, hi) of column i
    col = [1.0] * min(2 * hi + 2, n + 1)    # col[j - lo] = A(i, j)
    col[:hi] = [0.0] * hi
    for i in range(1, m + 1):
        last_lo, last_width = lo, hi - lo
        lo = min(max((ng * i - h) // mg + 1, 0), n)
        hi = min(-(-(ng * i + h) // mg), n + 1)
        if hi <= lo:
            return 1.0
        val = 0.0 if lo == 0 else 1.0
        for j in range(lo, hi):
            val = (col[j - last_lo] * i + val * j) / (i + j)
            col[j - lo] = val
        if last_width > hi - lo:   # slots past the window read as outside
            col[hi - lo:last_width] = [1.0] * (last_width - hi + lo)
    return col[hi - lo - 1]
