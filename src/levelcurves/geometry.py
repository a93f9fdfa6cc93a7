"""Level-curve extraction and the time-averaged boundary-length functional.

Isolines of a field slice are extracted by marching triangles with a case
table, as in marching cubes (Lorensen & Cline 1987).  Each (triangle,
slice) pair gets a 3-bit code from the signs of its vertex values minus u;
codes 0 and 7 do not cross, and for the other six a static table names the
odd vertex, the one alone on its side of u.  Only the crossing pairs get
geometry: the two edges leaving the odd vertex get a crossing point by
linear interpolation along the chord, and the pair forms one segment.
Segment lengths are geodesic (great-circle) arcs between the radial
projections of the crossing points; chordal lengths would carry an O(h^2)
systematic bias that geodesic lengths avoid.

A vertex value exactly equal to u is perturbed upward by 1e-12 (the field
is unit variance), deterministically, and counted; this keeps extraction
total and reproducible, and matches the fact that a level is almost surely
regular for the fields simulated here.

The time-averaged functional accumulates trapezoidal time integrals of the
per-slice lengths, centered by the Kac-Rice mean length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectrum import sigma1_sq
from .synthesis import HarmonicBasis, synthesize_values

__all__ = [
    "LevelCurveSet",
    "BoundaryFunctionalSample",
    "extract_level_curves",
    "isoline_lengths",
    "kac_rice_mean",
    "epsilon_length",
    "boundary_functional",
    "write_lengths_csv",
]

_EXACT_HIT_NUDGE = 1e-12  # symbolic perturbation for values exactly at u


# ----------------------------------------------------------------------
# Marching triangles
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LevelCurveSet:
    """Extracted u-level curve of one slice.

    segments: (K, 2, 3) unit-sphere endpoint pairs; segment_edges:
    (K, 2, 2) vertex-index pairs of the mesh edges carrying each endpoint;
    edge_params: (K, 2) interpolation parameters along those edges.
    """

    segments: np.ndarray
    segment_edges: np.ndarray
    edge_params: np.ndarray
    total_length: float
    level: float
    time_index: int
    perturbed_vertices: int

    @property
    def n_segments(self):
        return self.segments.shape[0]


# odd vertex of each code sum_i 2^i [Z(v_i) > u]; codes 0 and 7 never cross
_ODD = np.array([0, 0, 1, 2, 2, 1, 0, 0])
_NEXT = (_ODD + 1) % 3
_AFTER = (_ODD + 2) % 3


def _nudged(values, u):
    """(V, S) float block with the values exactly at u nudged upwards, and
    the number of nudged values."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    exact = vals == u
    n_pert = int(np.count_nonzero(exact))
    if n_pert:
        vals = vals.copy()
        vals[exact] += _EXACT_HIT_NUDGE
    return vals, n_pert


def _march(vals, mesh, u):
    """Marching-triangles kernel for a (V, S) block of slices with no value
    exactly at u.

    Returns (slice, (odd, a, b) vertex indices, (t_a, t_b), (p_a, p_b),
    arcs) per crossing, triangle-major: the segment runs from p_a at
    parameter t_a on edge odd->a to p_b on edge odd->b.
    """
    n_slices = vals.shape[1]
    above = (vals > u).view(np.uint8)     # (V, S)
    tri = mesh.triangles
    code = above[tri[:, 0]]               # (F, S)
    code |= (above << 1)[tri[:, 1]]
    code |= (above << 2)[tri[:, 2]]
    code = code.ravel()
    k = np.flatnonzero((code != 0) & (code != 7))
    f, s = np.divmod(k, n_slices)
    c = code[k]
    corner = tri.ravel()
    v_idx = (corner[3 * f + _ODD[c]], corner[3 * f + _NEXT[c]],
             corner[3 * f + _AFTER[c]])
    flat = vals.ravel()
    d_o, d_a, d_b = (flat[v * n_slices + s] - u for v in v_idx)
    v_o, v_a, v_b = (mesh.vertices.take(v, axis=0) for v in v_idx)
    t_a = d_o / (d_o - d_a)
    t_b = d_o / (d_o - d_b)
    p_a = v_o + t_a[:, None] * (v_a - v_o)
    p_b = v_o + t_b[:, None] * (v_b - v_o)
    p_a /= np.linalg.norm(p_a, axis=1, keepdims=True)
    p_b /= np.linalg.norm(p_b, axis=1, keepdims=True)
    cross = np.cross(p_a, p_b)
    arcs = np.arctan2(np.linalg.norm(cross, axis=1),
                      np.einsum("ij,ij->i", p_a, p_b))
    return s, v_idx, (t_a, t_b), (p_a, p_b), arcs


def isoline_lengths(values, mesh, u):
    """Total u-level curve length for each slice of a (V, S) value block.

    Returns (lengths (S,), perturbed_vertex_count).
    """
    vals, n_pert = _nudged(values, u)
    s, _v, _t, _p, arcs = _march(vals, mesh, u)
    return np.bincount(s, weights=arcs, minlength=vals.shape[1]), n_pert


def extract_level_curves(field_slice, mesh, u):
    """Marching-triangles isoline of one slice as a LevelCurveSet."""
    values = getattr(field_slice, "values", field_slice)
    k = getattr(field_slice, "time_index", 0)
    u = float(u)
    vals, n_pert = _nudged(values, u)
    _s, (v_o, v_a, v_b), t, p, arcs = _march(vals, mesh, u)
    edges = np.stack([v_o, v_a, v_o, v_b], axis=1).reshape(-1, 2, 2)
    return LevelCurveSet(
        segments=np.stack(p, axis=1),
        segment_edges=edges,
        edge_params=np.stack(t, axis=1),
        total_length=float(arcs.sum()),
        level=u,
        time_index=int(k),
        perturbed_vertices=n_pert,
    )


# ----------------------------------------------------------------------
# Kac-Rice mean and the epsilon-approximated length
# ----------------------------------------------------------------------

def kac_rice_mean(spectrum, u):
    """Expected u-level curve length sigma1 * 2 pi * exp(-u^2 / 2)."""
    return math.sqrt(sigma1_sq(spectrum)) * 2.0 * math.pi * math.exp(-0.5 * u * u)


def epsilon_length(field_slice, mesh, u, epsilon):
    """Band-quadrature length estimate
    (1 / 2 eps) sum_i w_i 1[|Z_i - u| <= eps] ||grad Z_i||."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if field_slice.grad_theta is None:
        raise ValueError("epsilon_length needs a slice with gradients")
    grad_norm = np.hypot(field_slice.grad_theta, field_slice.grad_phi)
    in_band = np.abs(field_slice.values - u) <= epsilon
    return float(
        (mesh.vertex_weights * in_band * grad_norm).sum() / (2.0 * epsilon)
    )


# ----------------------------------------------------------------------
# Time-averaged boundary-length functional
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryFunctionalSample:
    """One realization of the centered, time-integrated length functional."""

    level: float
    horizon: float
    raw_integral: float
    centered: float
    per_step_lengths: np.ndarray
    perturbed_vertices: int


def boundary_functional(ensemble, mesh, u, block_steps=None):
    """Time integral of the u-level length over the ensemble's grid,
    centered by horizon * kac_rice_mean(u).  Slices are processed in
    blocks sized to keep the marching workspace modest."""
    basis = mesh if isinstance(mesh, HarmonicBasis) \
        else HarmonicBasis(mesh, ensemble.spectrum.ells)
    grid = ensemble.grid
    n = grid.n_steps
    if block_steps is None:
        block_steps = max(1, int(3_000_000 / max(basis.mesh.n_triangles, 1)))
    lengths = np.empty(n)
    n_pert = 0
    for start in range(0, n, block_steps):
        stop = min(start + block_steps, n)
        vals = synthesize_values(ensemble, basis, slice(start, stop))
        ls, pert = isoline_lengths(vals, basis.mesh, float(u))
        lengths[start:stop] = ls
        n_pert += pert
    raw = float(np.trapezoid(lengths, dx=grid.dt))
    centered = raw - grid.horizon * kac_rice_mean(ensemble.spectrum, u)
    lengths.flags.writeable = False
    return BoundaryFunctionalSample(
        level=float(u),
        horizon=grid.horizon,
        raw_integral=raw,
        centered=centered,
        per_step_lengths=lengths,
        perturbed_vertices=n_pert,
    )


def write_lengths_csv(path, samples, replicate_ids=None):
    """Per-replicate length paths as CSV rows (replicate, k, t, length)."""
    if replicate_ids is None:
        replicate_ids = range(len(samples))
    with open(path, "w") as fh:
        fh.write("replicate,k,t,length\n")
        for rid, sample in zip(replicate_ids, samples):
            dt = sample.horizon / (len(sample.per_step_lengths) - 1)
            for k, val in enumerate(sample.per_step_lengths):
                fh.write(
                    f"{rid},{k},{format(k * dt, '.17g')},{format(val, '.17g')}\n"
                )
