"""Field synthesis: coefficient paths, sphere meshes, harmonic assembly.

Realizations are generated in two stages.  First, every harmonic
coefficient a_(ell m)(t) is sampled as a stationary Gaussian path on a
uniform time grid whose autocovariance equals the spectrum's C_ell at the
grid lags; sampling uses circulant embedding of the Toeplitz covariance,
which is exact in distribution whenever the embedding is nonnegative
definite (the power-law kernels used here embed cleanly, and a doubling
fallback covers the rest).  Second, field values and orthonormal-frame
gradients on a triangulated sphere are assembled as matrix products of
precomputed real-spherical-harmonic basis columns with the coefficient
array, one time slice (or block of slices) at a time.

Meshes are subdivided icosahedra projected to the unit sphere, rotated by
a fixed rotation so no vertex sits near a pole, with per-vertex quadrature
weights from one-third spherical-triangle-area accumulation (weights sum
to the sphere area 4 pi).  Integrals of spherical polynomials, such as
the chaos projections, use an exact product cubature instead.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .special import harmonic_columns, legendre_table
from .spectrum import multipole_cov

__all__ = [
    "TimeGrid",
    "SphereMesh",
    "build_icosphere",
    "SphereCubature",
    "sphere_cubature",
    "HarmonicBasis",
    "CoefficientEnsemble",
    "sample_time_processes",
    "measure_replicate",
    "FieldSlice",
    "synthesize_slice",
    "synthesize_values",
]


# ----------------------------------------------------------------------
# Time grid
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k dt, k = 0..n_steps-1; horizon T = dt (n_steps-1)."""

    dt: float
    n_steps: int

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.n_steps < 2:
            raise ValueError("need at least two time steps")

    @property
    def horizon(self):
        return self.dt * (self.n_steps - 1)

    @property
    def times(self):
        return np.arange(self.n_steps) * self.dt

    @staticmethod
    def for_horizon(horizon, dt):
        """Grid covering [0, horizon] with step dt (horizon rounded to grid)."""
        if not 0.0 < horizon < math.inf:
            raise ValueError(
                f"horizon must be positive and finite, got {horizon!r}")
        n = int(round(horizon / dt)) + 1
        return TimeGrid(dt=dt, n_steps=max(n, 2))


# ----------------------------------------------------------------------
# Icosphere mesh
# ----------------------------------------------------------------------

_ICO_R = (1.0 + math.sqrt(5.0)) / 2.0
_ICO_VERTS = np.array(
    [
        [-1.0, _ICO_R, 0.0], [1.0, _ICO_R, 0.0], [-1.0, -_ICO_R, 0.0],
        [1.0, -_ICO_R, 0.0], [0.0, -1.0, _ICO_R], [0.0, 1.0, _ICO_R],
        [0.0, -1.0, -_ICO_R], [0.0, 1.0, -_ICO_R], [_ICO_R, 0.0, -1.0],
        [_ICO_R, 0.0, 1.0], [-_ICO_R, 0.0, -1.0], [-_ICO_R, 0.0, 1.0],
    ]
)
_ICO_FACES = np.array(
    [
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ],
    dtype=np.int64,
)

# fixed rotation applied to every mesh so no vertex lands near a pole;
# chosen once, far from any icosphere symmetry axis
_POLE_DODGE = None


def _pole_dodge_rotation():
    global _POLE_DODGE
    if _POLE_DODGE is None:
        a, b = 0.37, 0.21
        ry = np.array(
            [[math.cos(a), 0, math.sin(a)], [0, 1, 0], [-math.sin(a), 0, math.cos(a)]]
        )
        rz = np.array(
            [[math.cos(b), -math.sin(b), 0], [math.sin(b), math.cos(b), 0], [0, 0, 1]]
        )
        _POLE_DODGE = rz @ ry
    return _POLE_DODGE


@dataclass(frozen=True)
class SphereMesh:
    """Triangulated unit sphere with quadrature weights.

    vertices: (V, 3) unit vectors; triangles: (F, 3) CCW-outward index
    triples; vertex_weights: (V,) spherical one-third-area weights summing
    to 4 pi.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    vertex_weights: np.ndarray
    subdivision_level: int

    @property
    def theta(self):
        return np.arccos(np.clip(self.vertices[:, 2], -1.0, 1.0))

    @property
    def phi(self):
        return np.arctan2(self.vertices[:, 1], self.vertices[:, 0])

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_triangles(self):
        return self.triangles.shape[0]

    @cached_property
    def corners(self):
        """Read-only C-contiguous (3, F) ``triangles.T``: row i holds the
        i-th corner of every triangle, built on first use."""
        corners = np.ascontiguousarray(self.triangles.T)
        corners.flags.writeable = False
        return corners


def _spherical_triangle_areas(verts, tris):
    """Solid angles of oriented spherical triangles (van Oosterom-Strackee)."""
    a = verts[tris[:, 0]]
    b = verts[tris[:, 1]]
    c = verts[tris[:, 2]]
    triple = np.einsum("ij,ij->i", a, np.cross(b, c))
    denom = 1.0 + np.einsum("ij,ij->i", a, b) + np.einsum("ij,ij->i", b, c) \
        + np.einsum("ij,ij->i", c, a)
    return 2.0 * np.arctan2(np.abs(triple), denom)


def build_icosphere(subdivision_level):
    """Icosahedron subdivided ``subdivision_level`` times and projected to
    the unit sphere; V = 10 * 4^level + 2, F = 20 * 4^level."""
    level = int(subdivision_level)
    if not 0 <= level <= 8:
        raise ValueError("subdivision level must lie in [0, 8]")
    verts = _ICO_VERTS / np.linalg.norm(_ICO_VERTS, axis=1, keepdims=True)
    faces = _ICO_FACES.copy()
    for _ in range(level):
        # edges (i, j), (j, k), (k, i) of each face (i, j, k), in face
        # order; each distinct edge gets a new midpoint vertex, numbered in
        # order of first appearance
        edges = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        lo, hi = edges.min(axis=1), edges.max(axis=1)
        _, first, inverse = np.unique(lo * len(verts) + hi,
                                      return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        p = verts[lo[first[order]]] + verts[hi[first[order]]]
        p /= np.sqrt(np.vecdot(p, p))[:, None]
        a, b, c = (len(verts) + rank[inverse]).reshape(-1, 3).T
        i, j, k = faces.T
        faces = np.stack([i, a, c, a, j, b, c, b, k, a, b, c],
                         axis=1).reshape(-1, 3)
        verts = np.concatenate([verts, p])
    verts = verts @ _pole_dodge_rotation().T

    # enforce outward (CCW) orientation
    a, b, c = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
    flip = np.einsum("ij,ij->i", np.cross(b - a, c - a), a + b + c) < 0
    faces[flip] = faces[flip][:, [0, 2, 1]]

    areas = _spherical_triangle_areas(verts, faces)
    weights = np.zeros(len(verts))
    np.add.at(weights, faces.ravel(), np.repeat(areas / 3.0, 3))

    pole_dist = np.minimum(np.arccos(np.clip(verts[:, 2], -1, 1)),
                           math.pi - np.arccos(np.clip(verts[:, 2], -1, 1)))
    if pole_dist.min() < 1e-6:
        raise RuntimeError("mesh vertex fell within 1e-6 rad of a pole")

    verts.flags.writeable = False
    faces.flags.writeable = False
    weights.flags.writeable = False
    return SphereMesh(verts, faces, weights, level)


# ----------------------------------------------------------------------
# Exact sphere cubature
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SphereCubature:
    """Nodes (theta, phi) with weights summing to 4 pi; stands in for a
    mesh wherever only vertex positions and weights are read."""

    theta: np.ndarray
    phi: np.ndarray
    vertex_weights: np.ndarray

    @property
    def n_vertices(self):
        return self.theta.shape[0]


def sphere_cubature(degree):
    """Product rule exact for spherical polynomials of degree <= ``degree``:
    floor(degree/2) + 1 Gauss-Legendre nodes in cos theta times degree + 1
    equispaced phi (Atkinson & Han 2012, LNM 2044, ch. 5).  No node sits
    on a pole."""
    try:
        degree = operator.index(degree)
    except TypeError:
        raise ValueError(f"degree must be an integer, got {degree!r}") from None
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    # Gauss-Legendre roots are the eigenvalues of the Jacobi matrix (Golub &
    # Welsch 1969), polished by one Newton step; numpy.linalg is loaded with
    # numpy, numpy.polynomial is not
    n = degree // 2 + 1
    k = np.arange(1.0, n)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    p, dp, _ = legendre_table(n, x)
    x = x - p[n] / dp[n]
    dp = legendre_table(n, x)[1][n]
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    n_phi = degree + 1
    theta = np.repeat(np.arccos(x), n_phi)
    phi = np.tile(2.0 * math.pi * np.arange(n_phi) / n_phi, x.size)
    weights = np.repeat(w * (2.0 * math.pi / n_phi), n_phi)
    for arr in (theta, phi, weights):
        arr.flags.writeable = False
    return SphereCubature(theta, phi, weights)


# ----------------------------------------------------------------------
# Harmonic basis on a mesh or cubature
# ----------------------------------------------------------------------

class HarmonicBasis:
    """Precomputed harmonic columns Y (and lazily their frame derivatives)
    at the vertices of a mesh or the nodes of a cubature, for the degrees
    present in a spectrum.  Only ``theta``, ``phi``, ``vertex_weights``
    and ``n_vertices`` of ``mesh`` are read here and by the quadrature."""

    def __init__(self, mesh, ells):
        self.mesh = mesh
        self.ells = tuple(sorted(set(int(l) for l in ells)))
        labels, y = harmonic_columns(self.ells, mesh.theta, mesh.phi)
        self.labels = labels
        self.y = y
        self._dy = None

    @property
    def dy(self):
        """(dY/d_theta, (1/sin theta) dY/d_phi) column matrices."""
        if self._dy is None:
            _, _, d1, d2 = harmonic_columns(
                self.ells, self.mesh.theta, self.mesh.phi, derivatives=True
            )
            self._dy = (d1, d2)
        return self._dy

    def columns_for(self, ell):
        idx = [j for j, (l, _) in enumerate(self.labels) if l == ell]
        if not idx:
            raise ValueError(f"degree {ell} not in basis")
        return np.asarray(idx)


# ----------------------------------------------------------------------
# Coefficient ensembles via circulant embedding
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientEnsemble:
    """Sampled coefficient paths for one field realization.

    ``coeffs`` has shape (n_harmonics, n_steps), rows ordered like
    ``labels`` (degrees ascending, m = -ell..ell).  Immutable; safe to
    share across workers.
    """

    spectrum: object
    grid: TimeGrid
    coeffs: np.ndarray
    labels: tuple
    clipped_eigenvalues: int = 0
    embedding_doublings: int = 0

    def rows_for(self, ell):
        idx = [j for j, (l, _) in enumerate(self.labels) if l == ell]
        if not idx:
            raise ValueError(f"degree {ell} not in ensemble")
        return np.asarray(idx)

    def path(self, ell, m):
        for j, lab in enumerate(self.labels):
            if lab == (ell, m):
                return self.coeffs[j]
        raise ValueError(f"no coefficient path for (ell, m) = ({ell}, {m})")


def _embedding_eigenvalues(r):
    """FFT eigenvalues of the minimal circulant embedding of a Toeplitz
    covariance row r[0..n-1] (ring length 2(n-1), or 2 for n = 2)."""
    n = r.shape[0]
    if n == 2:
        ring = np.array([r[0], r[1]])
    else:
        ring = np.concatenate([r, r[-2:0:-1]])
    return np.fft.fft(ring).real, ring.shape[0]


def _plan_embedding(spectrum, grid, ell):
    """Eigenvalue vector for one multipole's path sampler, doubling the
    embedding length (up to 4 times) if material negative eigenvalues
    appear.  Returns (sqrt(lam / M), M, n_clipped, doublings)."""
    doublings = 0
    n = grid.n_steps
    while True:
        lags = np.arange(n) * grid.dt
        r = multipole_cov(spectrum, ell, lags)
        lam, m_len = _embedding_eigenvalues(r)
        lo = lam.min()
        if lo >= -1e-8 * lam.max():
            n_clipped = int(np.count_nonzero(lam < 0))
            lam = np.clip(lam, 0.0, None)
            return np.sqrt(lam / m_len), m_len, n_clipped, doublings
        if doublings >= 4:
            raise RuntimeError(
                f"circulant embedding failed for ell={ell}: min eigenvalue "
                f"{lo:.3e} after {doublings} doublings (n={n})"
            )
        n = 2 * (n - 1) + 1
        doublings += 1


@lru_cache(maxsize=16)
def _cached_plan(spectrum, grid, ell):
    """``_plan_embedding`` memoized on the values of its arguments (a plan
    is a pure function of them), with a read-only root."""
    plan = _plan_embedding(spectrum, grid, ell)
    plan[0].flags.writeable = False
    return plan


def sample_time_processes(spectrum, grid, seed):
    """Draw one realization of every coefficient path a_(ell m)(t).

    Paths for distinct (ell, m) are independent; each has autocovariance
    C_ell at the grid lags, exactly in distribution (nonnegative
    embedding), with eigenvalues within -1e-8 of zero clipped and counted.
    The same (spectrum, grid, seed) always yields bit-identical output;
    ``seed`` is an int or a ``SeedSequence`` and seeds one PCG64 stream.
    """
    ss = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(int(seed))
    rng = np.random.Generator(np.random.PCG64(ss))

    labels = tuple((e.ell, m) for e in spectrum.entries
                   for m in range(-e.ell, e.ell + 1))
    n = grid.n_steps
    coeffs = np.empty((len(labels), n))
    clipped = 0
    doublings = 0
    row = 0
    z = None
    for e in spectrum.entries:
        root_lam, m_len, n_clip, n_dbl = _cached_plan(spectrum, grid, e.ell)
        clipped += n_clip
        doublings = max(doublings, n_dbl)
        if z is None or z.size != m_len:
            # one (real, imaginary) pair of normals and its transform at a
            # time, in buffers reused across pairs and multipoles
            g = np.empty((2, m_len))
            z = np.empty(m_len, dtype=complex)
        stop = row + 2 * e.ell + 1
        # rows alternate the real and imaginary paths of the ell + 1 pairs
        for r in range(row, stop, 2):
            rng.standard_normal(out=g)
            np.multiply(root_lam, g[0], out=z.real)
            np.multiply(root_lam, g[1], out=z.imag)
            np.fft.fft(z, out=z)
            coeffs[r] = z.real[:n]
            if r + 1 < stop:
                coeffs[r + 1] = z.imag[:n]
        row = stop
    coeffs.flags.writeable = False
    return CoefficientEnsemble(
        spectrum=spectrum,
        grid=grid,
        coeffs=coeffs,
        labels=labels,
        clipped_eigenvalues=clipped,
        embedding_doublings=doublings,
    )


def measure_replicate(spectrum, grid, measure, seed):
    """``measure`` of one realization drawn from ``seed``: the replicate
    kernel every study fans out through ``mcstats.replicate_map``, as
    ``partial(measure_replicate, spectrum, grid, measure)``."""
    return measure(sample_time_processes(spectrum, grid, seed))


# ----------------------------------------------------------------------
# Slice synthesis
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FieldSlice:
    """Field values (and orthonormal-frame gradients) on mesh vertices at
    one time step."""

    values: np.ndarray
    grad_theta: np.ndarray | None
    grad_phi: np.ndarray | None
    time_index: int


def synthesize_slice(ensemble, basis, k, with_gradient=True):
    """Z(., t_k) on the basis' mesh, with gradients unless disabled."""
    if not 0 <= k < ensemble.grid.n_steps:
        raise IndexError(f"time index {k} outside grid")
    a = ensemble.coeffs[:, k]
    values = basis.y @ a
    if not with_gradient:
        return FieldSlice(values, None, None, k)
    d1, d2 = basis.dy
    return FieldSlice(values, d1 @ a, d2 @ a, k)


def synthesize_values(ensemble, basis, time_slice=slice(None)):
    """Values for a block of time steps as a (V, S) matrix (no gradients);
    the workhorse for study loops that only need lengths."""
    return basis.y @ ensemble.coeffs[:, time_slice]

