"""Level-curve extraction and the time-averaged boundary-length functional.

Isolines of a field slice are extracted by marching triangles with a case
table, as in marching cubes (Lorensen & Cline 1987).  Each (triangle,
slice) pair gets a 3-bit code from the signs of its vertex values minus u;
codes 0 and 7 do not cross, and for the other six a static table names the
odd vertex, the one alone on its side of u.  A block marched at one
level has a plain uint8 code per pair.  A block with one level per slice
(several levels of one field are its slice repeated per level) packs the
codes of up to 21 slices into one integer word per triangle, slice j's
code at bits 3j..3j+2, so one set of corner gathers classifies them all.
Only the crossing pairs get geometry: the two edges leaving the odd
vertex get a crossing point by linear interpolation along the chord, and
the pair forms one segment.  Segment lengths are geodesic (great-circle)
arcs between the radial projections of the crossing points; chordal
lengths would carry an O(h^2) systematic bias that geodesic lengths
avoid.

The slices are marched in cache-sized blocks (Lam, Rothberg & Wolf 1991),
their crossings get geometry a few thousand at a time, and the geometry
runs on one contiguous array per coordinate.  A slice's length sums its
own crossings in triangle order, and the component arithmetic repeats the
operations of the row-wise numpy calls in their order, so none of this
changes a bit of any length.

A vertex value exactly equal to its slice's level u is perturbed upward
by 1e-12 (the field is unit variance), deterministically, and counted;
this keeps extraction total and reproducible, and matches the fact that a
level is almost surely regular for the fields simulated here.

The time-averaged functional accumulates trapezoidal time integrals of the
per-slice lengths, centered by the Kac-Rice mean length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectrum import sigma1_sq
from .synthesis import synthesize_values

__all__ = [
    "LevelCurveSet",
    "BoundaryFunctionalSample",
    "extract_level_curves",
    "isoline_lengths",
    "kac_rice_mean",
    "epsilon_length",
    "boundary_functional",
]

_EXACT_HIT_NUDGE = 1e-12  # symbolic perturbation for values exactly at u
_BLOCK_VALUES = 131_072   # (vertex, slice) values per marching block
_CHUNK = 4096             # crossings per geometry pass
_SYNTH_PAIRS = 3_000_000  # (triangle, slice) pairs per synthesized block
_WORD_LEVELS = 21         # slices per code word: 3 bits each in a uint64


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


def _columns(values, mesh):
    """``values`` as a float (V, S) array, one row per vertex of ``mesh``;
    a (V,) slice is one column."""
    vals = np.atleast_1d(np.asarray(values, dtype=float))
    if vals.shape[0] != mesh.n_vertices:
        raise ValueError(f"values have {vals.shape[0]} rows but the mesh "
                         f"has {mesh.n_vertices} vertices")
    return vals.reshape(vals.shape[0], -1)


def _nudged(vals, cols, u):
    """(values, cols, count): the slices ``cols`` of a C-contiguous (V, N)
    array, with the values exactly at u nudged upwards in a copy if there
    are any, and the number of nudged values."""
    exact = vals[:, cols] == u
    n_pert = int(np.count_nonzero(exact))
    if n_pert:
        vals = vals[:, cols].copy()
        vals[exact] += _EXACT_HIT_NUDGE
        cols = slice(0, vals.shape[1])
    return vals, cols, n_pert


def _codes(word, mesh):
    """Per triangle, the or of its corners' vertex code words ``word``
    (V, ...), corner i's shifted up by i."""
    # contiguous corner columns: a strided triangles[:, i] index column
    # makes the row gather two to three times slower
    c0, c1, c2 = mesh.corners
    code = word.take(c0, axis=0)
    code |= (word << 1).take(c1, axis=0)
    code |= (word << 2).take(c2, axis=0)
    return code


def _crossings(code):
    """Flat indices of the crossing 3-bit codes among ``code``, and the
    codes."""
    code = code.ravel()
    k = np.flatnonzero((code != 0) & (code != 7))
    return k, code[k]


def _geometry(vals, cols, mesh, u, k, case):
    """(odd, a, b) vertex indices, (t_a, t_b), (p_a, p_b) and arc of the
    crossings ``k`` of the slices ``cols`` of a C-contiguous (V, N) array,
    with codes ``case``: the segment runs from p_a at parameter t_a on edge
    odd->a to p_b on edge odd->b, and p_a and p_b are (x, y, z) triples of
    (K,) arrays."""
    f3, s = np.divmod(k, cols.stop - cols.start)
    f3 *= 3
    corner = mesh.triangles.ravel()
    v_idx = tuple(corner.take(f3 + table.take(case))
                  for table in (_ODD, _NEXT, _AFTER))
    flat = vals.ravel()
    at = s + cols.start
    d_o, d_a, d_b = (flat.take(v * vals.shape[1] + at) - u for v in v_idx)
    t_a = d_o / (d_o - d_a)
    t_b = d_o / (d_o - d_b)
    # coordinate j of vertex v sits at 3 v + j of the contiguous (V, 3)
    # array; take() on the shifted views reads it without a column copy
    xyz = mesh.vertices.ravel()
    o3, a3, b3 = (3 * v for v in v_idx)
    p_a, p_b = [], []
    for j in range(3):
        col = xyz[j:]
        o = col.take(o3)
        p_a.append(o + t_a * (col.take(a3) - o))
        p_b.append(o + t_b * (col.take(b3) - o))
    # the component forms of np.linalg.norm(axis=1), of the normalizing
    # division and of np.cross, bit for bit
    for p in (p_a, p_b):
        norm = np.sqrt((p[0] * p[0] + p[1] * p[1]) + p[2] * p[2])
        for x in p:
            x /= norm
    (ax, ay, az), (bx, by, bz) = p_a, p_b
    cx = ay * bz - az * by
    cy = az * bx - ax * bz
    cz = ax * by - ay * bx
    sin = np.sqrt((cx * cx + cy * cy) + cz * cz)
    # np.einsum("ij,ij->i") sums the dot product as (x + z) + y
    cos = (ax * bx + az * bz) + ay * by
    return v_idx, (t_a, t_b), (p_a, p_b), np.arctan2(sin, cos)


def _lengths(vals, cols, mesh, u, k, case):
    """Per slice of ``cols``, the summed arcs of the crossings ``k`` (flat
    (triangle, slice within ``cols``) indices, triangle-major) with codes
    ``case``, which get geometry ``_CHUNK`` at a time."""
    arcs = np.empty(k.size)
    for c in range(0, k.size, _CHUNK):
        part = slice(c, c + _CHUNK)
        *_, arcs[part] = _geometry(vals, cols, mesh, u, k[part], case[part])
    width = cols.stop - cols.start
    return np.bincount(k % width, weights=arcs, minlength=width)


def isoline_lengths(values, mesh, u):
    """Total level-curve length of each slice of a (V, S) value block, at
    one level u for every slice or at one level per slice (u of shape
    (S,)); several levels of one field are its slice repeated per level.

    At one level the slices are marched in blocks of about
    ``_BLOCK_VALUES`` values, each (triangle, slice) pair with a uint8
    code.  Per-slice levels share code words (``_per_slice_lengths``).
    Each slice's length sums its own crossings in triangle order, so
    neither changes a bit: each equals a call with that slice and its
    level alone.  Returns (lengths (S,), perturbed_vertex_count).
    """
    vals = _columns(values, mesh)
    n_slices = vals.shape[1]
    levels = np.asarray(u, dtype=float)
    if levels.shape not in ((), (n_slices,)) or not levels.size \
            or not np.isfinite(levels).all():
        raise ValueError(f"u must be a finite level or one finite level "
                         f"per slice ({n_slices}), got {u!r}")
    if levels.ndim:
        return _per_slice_lengths(vals, mesh, levels)
    vals = np.ascontiguousarray(vals)
    step = max(1, _BLOCK_VALUES // vals.shape[0])
    lengths = np.empty(n_slices)
    n_pert = 0
    for start in range(0, n_slices, step):
        cols = slice(start, min(start + step, n_slices))
        block, block_cols, pert = _nudged(vals, cols, u)
        word = (block[:, block_cols] > u).view(np.uint8)     # (V, S)
        k, case = _crossings(_codes(word, mesh))
        lengths[cols] = _lengths(block, block_cols, mesh, u, k, case)
        n_pert += pert
    return lengths, n_pert


def _per_slice_lengths(vals, mesh, levels):
    """``isoline_lengths`` of the slices of a (V, S) array, slice s at
    ``levels[s]``.  Each run of up to ``_WORD_LEVELS`` slices shares one
    code word per vertex and per triangle, slice j's bits at 3j..3j+2 of
    the least unsigned type that holds the run, so one set of corner
    gathers classifies the run; a run of one slice is the uint8 code.  A
    slice with a value exactly at its level is nudged in its own copy."""
    lengths = np.empty(levels.size)
    n_pert = 0
    one = slice(0, 1)
    for start in range(0, levels.size, _WORD_LEVELS):
        run = range(start, min(start + _WORD_LEVELS, levels.size))
        word = np.zeros(vals.shape[0], np.min_scalar_type(8 ** len(run) - 1))
        cols = []
        for j, s in enumerate(run):
            col, _, pert = _nudged(np.ascontiguousarray(vals[:, s:s + 1]),
                                   one, levels[s])
            word |= np.left_shift(col[:, 0] > levels[s], 3 * j,
                                  dtype=word.dtype)
            cols.append(col)
            n_pert += pert
        code = _codes(word, mesh)                       # (F,)
        for j, s in enumerate(run):
            own = code if len(run) == 1 else (code >> 3 * j) & 7
            lengths[s] = _lengths(cols[j], one, mesh, levels[s],
                                  *_crossings(own))[0]
    return lengths, n_pert


def extract_level_curves(field_slice, mesh, u):
    """Marching-triangles isoline of one slice as a LevelCurveSet."""
    values = getattr(field_slice, "values", field_slice)
    k = getattr(field_slice, "time_index", 0)
    u = float(u)
    vals = np.ascontiguousarray(_columns(values, mesh))
    vals, cols, n_pert = _nudged(vals, slice(0, vals.shape[1]), u)
    word = (vals[:, cols] > u).view(np.uint8)
    (v_o, v_a, v_b), t, (p_a, p_b), arcs = _geometry(
        vals, cols, mesh, u, *_crossings(_codes(word, mesh)))
    edges = np.stack([v_o, v_a, v_o, v_b], axis=1).reshape(-1, 2, 2)
    return LevelCurveSet(
        segments=np.stack([np.stack(p_a, axis=1), np.stack(p_b, axis=1)],
                          axis=1),
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


def boundary_functional(ensemble, basis, u):
    """Time integral of the u-level length on the mesh of ``basis`` (a
    ``HarmonicBasis``) over the ensemble's grid, centered by horizon *
    kac_rice_mean(u).

    The values are synthesized in blocks of about ``_SYNTH_PAIRS``
    (triangle, slice) pairs, and ``isoline_lengths`` marches each of
    them in cache-sized blocks.  The synthesis blocks keep their size
    because the last bits of a BLAS product depend on the shape of the
    block: other blocks would change the lengths.
    """
    grid = ensemble.grid
    n = grid.n_steps
    step = max(1, _SYNTH_PAIRS // max(basis.mesh.n_triangles, 1))
    lengths = np.empty(n)
    n_pert = 0
    for start in range(0, n, step):
        stop = min(start + step, n)
        vals = synthesize_values(ensemble, basis, slice(start, stop))
        lengths[start:stop], pert = isoline_lengths(vals, basis.mesh,
                                                    float(u))
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
