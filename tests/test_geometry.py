import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from conftest import kac_rice_mean_check, spec_from_fractions
from levelcurves import geometry
from levelcurves.geometry import (
    _EXACT_HIT_NUDGE,
    boundary_functional,
    epsilon_length,
    extract_level_curves,
    isoline_lengths,
    kac_rice_mean,
)
from levelcurves.spectrum import MultipoleEntry, make_spectrum
from levelcurves.synthesis import (
    HarmonicBasis,
    SphereMesh,
    TimeGrid,
    build_icosphere,
    sample_time_processes,
    synthesize_slice,
    synthesize_values,
)

SPEC = None


def setup_module():
    global SPEC
    SPEC = spec_from_fractions({0: (0.4, 1.0, 2.0), 2: (0.35, 0.5, None),
                                4: (0.25, 0.8, None)})


# ----------------------------------------------------------------------
# Marching triangles
# ----------------------------------------------------------------------

def test_constant_slice_has_no_curves(mesh3):
    vals = np.full(mesh3.n_vertices, 0.7)
    lengths, n_pert = isoline_lengths(vals, mesh3, 0.0)
    assert lengths[0] == 0.0
    assert n_pert == 0


def test_latitude_circles_have_known_length(mesh6):
    # Z = third coordinate: the u-level set is the circle of latitude with
    # radius sqrt(1 - u^2)
    vals = mesh6.vertices[:, 2]
    for u in (0.0, 0.3, -0.55):
        lengths, _ = isoline_lengths(vals, mesh6, u)
        expected = 2 * math.pi * math.sqrt(1 - u * u)
        assert abs(lengths[0] - expected) / expected < 0.005


def test_extract_level_curves_segments(mesh4):
    vals = mesh4.vertices[:, 2]
    curves = extract_level_curves(vals, mesh4, 0.2)
    assert curves.n_segments > 0
    assert curves.total_length == pytest.approx(
        float(isoline_lengths(vals, mesh4, 0.2)[0][0]), abs=1e-12)
    # endpoints are unit vectors on mesh edges whose values straddle u
    pts = curves.segments.reshape(-1, 3)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    edges = curves.segment_edges.reshape(-1, 2)
    d = vals[edges] - 0.2
    assert np.all(d[:, 0] * d[:, 1] < 0)
    # total length equals the sum of geodesic segment lengths
    a = curves.segments[:, 0]
    b = curves.segments[:, 1]
    arcs = np.arctan2(np.linalg.norm(np.cross(a, b), axis=1),
                      np.einsum("ij,ij->i", a, b))
    assert curves.total_length == pytest.approx(arcs.sum(), abs=1e-12)
    # at most one segment per triangle: crossing count matches unique tris
    assert curves.n_segments <= mesh4.n_triangles


def test_exact_vertex_hits_are_perturbed_not_fatal(mesh3):
    vals = mesh3.vertices[:, 2].copy()
    vals[:40] = 0.25
    lengths, n_pert = isoline_lengths(vals, mesh3, 0.25)
    assert n_pert == 40
    assert np.isfinite(lengths[0])
    curves = extract_level_curves(vals, mesh3, 0.25)
    assert curves.perturbed_vertices == 40


def test_rotation_invariance(mesh4):
    # same per-vertex values attached to a rigidly rotated mesh: the
    # extraction must produce identical lengths to machine precision
    rng = np.random.default_rng(8)
    vals = rng.standard_normal(mesh4.n_vertices)
    a, b = 0.83, -0.41
    ry = np.array([[math.cos(a), 0, math.sin(a)], [0, 1, 0],
                   [-math.sin(a), 0, math.cos(a)]])
    rz = np.array([[math.cos(b), -math.sin(b), 0],
                   [math.sin(b), math.cos(b), 0], [0, 0, 1]])
    rot = rz @ ry
    rotated = SphereMesh(
        vertices=mesh4.vertices @ rot.T,
        triangles=mesh4.triangles,
        vertex_weights=mesh4.vertex_weights,
        subdivision_level=mesh4.subdivision_level,
    )
    l0, _ = isoline_lengths(vals, mesh4, 0.4)
    l1, _ = isoline_lengths(vals, rotated, 0.4)
    assert abs(l0[0] - l1[0]) < 1e-9


def test_chordal_geodesic_gap_bound(mesh4):
    rng = np.random.default_rng(9)
    vals = rng.standard_normal(mesh4.n_vertices)
    curves = extract_level_curves(vals, mesh4, 0.0)
    a = curves.segments[:1000, 0]
    b = curves.segments[:1000, 1]
    arcs = np.arctan2(np.linalg.norm(np.cross(a, b), axis=1),
                      np.einsum("ij,ij->i", a, b))
    chords = np.linalg.norm(a - b, axis=1)
    edges = mesh4.vertices[mesh4.triangles[:, 0]] \
        - mesh4.vertices[mesh4.triangles[:, 1]]
    h_max = np.linalg.norm(edges, axis=1).max()
    nz = arcs > 1e-12
    rel = (arcs[nz] - chords[nz]) / arcs[nz]
    assert np.all(rel >= -1e-15)
    assert np.all(rel < h_max**2 / 24 + 1e-12)


# ----------------------------------------------------------------------
# Code-table kernel against the float-gather kernel it replaced
# ----------------------------------------------------------------------

def _oracle_crossings(values, mesh, u):
    """The float-gather marching kernel: gathers the (F, 3, S) values
    minus u and finds each crossing's odd vertex by two argmax passes.

    Returns (slice, odd, triangle, t_a, t_b, p_a, p_b, arcs, n_perturbed,
    n_slices) per crossing, triangle-major.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    exact = vals == u
    n_pert = int(np.count_nonzero(exact))
    if n_pert:
        vals = vals.copy()
        vals[exact] += _EXACT_HIT_NUDGE
    d = vals[mesh.triangles] - u          # (F, 3, S)
    pos = d > 0
    npos = pos.sum(axis=1)                # (F, S)
    f_idx, s_idx = np.nonzero((npos == 1) | (npos == 2))
    odd = np.where(npos == 1, pos.argmax(axis=1),
                   (~pos).argmax(axis=1))[f_idx, s_idx]
    tri = mesh.triangles[f_idx]
    k_ar = np.arange(f_idx.size)
    ia = (odd + 1) % 3
    ib = (odd + 2) % 3
    d_sel = d[f_idx, :, s_idx]            # (K, 3)
    d_o = d_sel[k_ar, odd]
    d_a = d_sel[k_ar, ia]
    d_b = d_sel[k_ar, ib]
    v_o = mesh.vertices[tri[k_ar, odd]]
    v_a = mesh.vertices[tri[k_ar, ia]]
    v_b = mesh.vertices[tri[k_ar, ib]]
    t_a = d_o / (d_o - d_a)
    t_b = d_o / (d_o - d_b)
    p_a = v_o + t_a[:, None] * (v_a - v_o)
    p_b = v_o + t_b[:, None] * (v_b - v_o)
    p_a /= np.linalg.norm(p_a, axis=1, keepdims=True)
    p_b /= np.linalg.norm(p_b, axis=1, keepdims=True)
    arcs = np.arctan2(np.linalg.norm(np.cross(p_a, p_b), axis=1),
                      np.einsum("ij,ij->i", p_a, p_b))
    return (s_idx, odd, f_idx, t_a, t_b, p_a, p_b, arcs, n_pert,
            vals.shape[1])


def _oracle_lengths(values, mesh, u):
    s_idx, *_mid, arcs, n_pert, n_slices = _oracle_crossings(values, mesh, u)
    return np.bincount(s_idx, weights=arcs, minlength=n_slices), n_pert


def _oracle_curves(values, mesh, u):
    """(segments, segment_edges, edge_params, total_length, n_perturbed)
    of one slice, as the float-gather path built them."""
    (_s, odd, f_idx, t_a, t_b, p_a, p_b, arcs, n_pert,
     _n) = _oracle_crossings(values, mesh, float(u))
    tri = mesh.triangles[f_idx]
    k_ar = np.arange(f_idx.size)
    v_o = tri[k_ar, odd]
    edges = np.stack([np.stack([v_o, tri[k_ar, (odd + 1) % 3]], axis=1),
                      np.stack([v_o, tri[k_ar, (odd + 2) % 3]], axis=1)],
                     axis=1)
    return (np.stack([p_a, p_b], axis=1), edges, np.stack([t_a, t_b], axis=1),
            float(arcs.sum()), n_pert)


@functools.cache
def _mesh(level):
    return build_icosphere(level)


@st.composite
def value_blocks(draw, exact_hits=True):
    """(values, mesh, u): a (V, S) block, or a (V,) slice when S = 1, of
    white noise or of a smooth degree-<=4 field, over meshes 0-4.  With
    ``exact_hits``, values and u may be rounded to a grid so that many
    values sit exactly on u."""
    mesh = _mesh(draw(st.integers(0, 4)))
    n_slices = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        x, y, z = mesh.vertices.T
        monomials = np.stack([np.ones_like(x), x, y, z, x * y, y * z, z * x,
                              x * x - y * y, x * y * z, z ** 4])
        vals = monomials.T @ rng.standard_normal((10, n_slices))
    else:
        vals = rng.standard_normal((mesh.n_vertices, n_slices))
    u = draw(st.floats(-2.5, 2.5))
    grid = draw(st.sampled_from([0.5, 0.1, None] if exact_hits else [None]))
    if grid is not None:
        vals = np.round(vals / grid) * grid
        u = round(u / grid) * grid
    if n_slices == 1 and draw(st.booleans()):
        vals = vals[:, 0]
    return vals, mesh, u


@given(value_blocks())
def test_code_table_kernel_matches_float_gather_kernel(block):
    vals, mesh, u = block
    lengths, n_pert = isoline_lengths(vals, mesh, u)
    expected, expected_pert = _oracle_lengths(vals, mesh, u)
    assert np.array_equal(lengths, expected)
    assert n_pert == expected_pert


@pytest.mark.parametrize("level, n_slices, grid, u", [
    *((6, 1, None, u) for u in (0.0, 0.5, 1.0, 1.5)),
    # 300 slices of mesh 3 span two marching blocks; on the 0.5 grid both
    # blocks hold values exactly at u
    (3, 300, None, 0.3),
    (3, 300, 0.5, 0.5),
])
def test_code_table_kernel_matches_oracle_on_wide_and_fine_blocks(
        request, level, n_slices, grid, u):
    mesh = request.getfixturevalue(f"mesh{level}")
    vals = np.random.default_rng(31).standard_normal((mesh.n_vertices,
                                                      n_slices))
    if grid is not None:
        vals = np.round(vals / grid) * grid
    lengths, n_pert = isoline_lengths(vals, mesh, u)
    expected, expected_pert = _oracle_lengths(vals, mesh, u)
    assert np.array_equal(lengths, expected)
    assert n_pert == expected_pert
    assert (n_pert > 0) == (grid is not None)


def test_mesh_corners_are_contiguous_read_only_triangle_columns():
    mesh = build_icosphere(2)
    corners = mesh.corners
    assert np.array_equal(corners, mesh.triangles.T)
    assert corners.flags.c_contiguous
    assert not corners.flags.writeable
    assert mesh.corners is corners


@pytest.mark.parametrize("level", [2, 4])
def test_values_of_another_mesh_are_rejected(mesh3, level):
    vals = _mesh(level).vertices[:, 2]
    match = (f"values have {vals.shape[0]} rows but the mesh has "
             f"{mesh3.n_vertices} vertices")
    with pytest.raises(ValueError, match=match):
        isoline_lengths(vals, mesh3, 0.0)
    with pytest.raises(ValueError, match=match):
        isoline_lengths(np.stack([vals, vals], axis=1), mesh3, 0.0)
    with pytest.raises(ValueError, match=match):
        extract_level_curves(vals, mesh3, 0.0)


@given(value_blocks(exact_hits=False))
def test_length_is_symmetric_under_field_and_level_sign_flip(block):
    vals, mesh, u = block
    assume(not np.any(vals == u))
    lengths, _ = isoline_lengths(vals, mesh, u)
    flipped, _ = isoline_lengths(-vals, mesh, -u)
    assert np.allclose(lengths, flipped, rtol=0, atol=1e-12)


@given(value_blocks())
def test_extract_level_curves_matches_float_gather_path(block):
    vals, mesh, u = block
    column = vals if vals.ndim == 1 else vals[:, 0]
    curves = extract_level_curves(column, mesh, u)
    segments, edges, params, total, n_pert = _oracle_curves(column, mesh, u)
    assert np.array_equal(curves.segments, segments)
    assert np.array_equal(curves.segment_edges, edges)
    assert curves.segment_edges.dtype == edges.dtype
    assert np.array_equal(curves.edge_params, params)
    assert curves.total_length == total
    assert curves.perturbed_vertices == n_pert


@given(value_blocks(exact_hits=False), st.floats(0.05, 0.5),
       st.integers(0, 2**32 - 1))
def test_isolated_exact_hits_give_the_same_length_nudged_down(block, share,
                                                              seed):
    # hits must be isolated (no two on one mesh edge): two adjacent hits
    # nudged together can move the total by a whole edge length
    vals, mesh, u = block
    vals = vals.reshape(mesh.n_vertices, -1)
    assume(not np.any(vals == u))
    hits = np.random.default_rng(seed).random(vals.shape) < share
    edges = mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    e_idx, s_idx = np.nonzero(hits[edges[:, 0]] & hits[edges[:, 1]])
    hits[edges[e_idx, 0], s_idx] = False
    hits[edges[e_idx, 1], s_idx] = False
    assume(hits.any())
    up, n_up = isoline_lengths(np.where(hits, u, vals), mesh, u)
    down, n_down = isoline_lengths(
        np.where(hits, u - _EXACT_HIT_NUDGE, vals), mesh, u)
    assert (n_up, n_down) == (np.count_nonzero(hits), 0)
    assert np.all(np.abs(up - down) <= 1e-9 * np.maximum(1.0, down))


# ----------------------------------------------------------------------
# Kac-Rice mean
# ----------------------------------------------------------------------

def test_kac_rice_formula_values():
    mono1 = make_spectrum([MultipoleEntry(1, 1.0, 0.5)], require_monopole=False)
    assert kac_rice_mean(mono1, 0.0) == pytest.approx(2 * math.pi, rel=1e-13)
    mono2 = make_spectrum([MultipoleEntry(2, 1.0, 0.5)], require_monopole=False)
    assert kac_rice_mean(mono2, 0.0) == pytest.approx(2 * math.pi * math.sqrt(3),
                                                      rel=1e-13)
    us = np.linspace(0, 6, 13)
    means = [kac_rice_mean(SPEC, u) for u in us]
    assert all(a > b for a, b in zip(means, means[1:]))
    assert means[-1] < 1e-3 * means[0]


def test_mean_extracted_length_matches_kac_rice(mesh5):
    # same estimator and SE gate as AC1; 800 replicates keep one SE
    # under 0.5% of Kac-Rice at u = 1
    basis = HarmonicBasis(mesh5, SPEC.ells)
    ok, details = kac_rice_mean_check(SPEC, basis, (1.0,), seed=606,
                                      reps=800)
    assert ok, "; ".join(details)


def test_level_symmetry_in_law(mesh4):
    basis = HarmonicBasis(mesh4, SPEC.ells)
    grid = TimeGrid(1.0, 2)
    reps = 400
    u = 0.6
    diff = np.empty(reps)
    for i, s in enumerate(np.random.SeedSequence(707).spawn(reps)):
        ens = sample_time_processes(SPEC, grid, s)
        vals = basis.y @ ens.coeffs[:, 0]
        lp = isoline_lengths(vals, mesh4, u)[0][0]
        lm = isoline_lengths(vals, mesh4, -u)[0][0]
        diff[i] = lp - lm
    se = diff.std(ddof=1) / math.sqrt(reps)
    assert abs(diff.mean()) < 4 * se


def test_mesh_refinement_changes_mean_by_less_than_one_percent(mesh5, mesh6):
    # common random numbers across the two resolutions
    spec = spec_from_fractions({0: (0.3, 1.0, 2.0), 4: (0.4, 0.6, None),
                                8: (0.3, 0.9, None)})
    b5 = HarmonicBasis(mesh5, spec.ells)
    b6 = HarmonicBasis(mesh6, spec.ells)
    grid = TimeGrid(1.0, 2)
    reps = 120
    u = 0.5
    l5 = np.empty(reps)
    l6 = np.empty(reps)
    for i, s in enumerate(np.random.SeedSequence(808).spawn(reps)):
        ens = sample_time_processes(spec, grid, s)
        a = ens.coeffs[:, 0]
        l5[i] = isoline_lengths(b5.y @ a, mesh5, u)[0][0]
        l6[i] = isoline_lengths(b6.y @ a, mesh6, u)[0][0]
    assert abs(l5.mean() - l6.mean()) / l6.mean() < 0.01


# ----------------------------------------------------------------------
# Band-quadrature length
# ----------------------------------------------------------------------

def test_epsilon_length_far_level_is_zero(mesh3):
    grid = TimeGrid(1.0, 2)
    ens = sample_time_processes(SPEC, grid, 3)
    sl = synthesize_slice(ens, HarmonicBasis(mesh3, SPEC.ells), 0)
    cap = np.abs(sl.values).max() + 1.0
    assert epsilon_length(sl, mesh3, cap + 5.0, 0.5) == 0.0
    with pytest.raises(ValueError):
        epsilon_length(sl, mesh3, 0.0, -0.1)


def test_epsilon_length_mean_matches_kac_rice(mesh4):
    basis = HarmonicBasis(mesh4, SPEC.ells)
    grid = TimeGrid(1.0, 2)
    reps = 400
    vals = np.empty(reps)
    for i, s in enumerate(np.random.SeedSequence(909).spawn(reps)):
        ens = sample_time_processes(SPEC, grid, s)
        sl = synthesize_slice(ens, basis, 0)
        vals[i] = epsilon_length(sl, mesh4, 0.0, 0.1)
    predicted = kac_rice_mean(SPEC, 0.0)
    assert abs(vals.mean() - predicted) / predicted < 0.03


def test_epsilon_refinement_converges_to_extracted_length(mesh5):
    # the band must span several mesh spacings or vertex-quadrature noise
    # dominates; at level 5 the eps ladder sits safely in the bias regime
    basis = HarmonicBasis(mesh5, SPEC.ells)
    grid = TimeGrid(1.0, 2)
    reps = 120
    u = 0.0
    errs = {eps: [] for eps in (0.4, 0.2, 0.1)}
    for s in np.random.SeedSequence(1010).spawn(reps):
        ens = sample_time_processes(SPEC, grid, s)
        sl = synthesize_slice(ens, basis, 0)
        exact, _ = isoline_lengths(sl.values, mesh5, u)
        for eps in errs:
            errs[eps].append(epsilon_length(sl, mesh5, u, eps) - exact[0])
    rms = {eps: float(np.sqrt(np.mean(np.square(v))))
           for eps, v in errs.items()}
    assert rms[0.4] > rms[0.2] > rms[0.1]


# ----------------------------------------------------------------------
# Boundary functional
# ----------------------------------------------------------------------

def test_boundary_functional_centering_identity(mesh3):
    grid = TimeGrid(0.5, 21)
    ens = sample_time_processes(SPEC, grid, 4)
    sample = boundary_functional(ens, HarmonicBasis(mesh3, SPEC.ells), 0.5)
    expected = sample.raw_integral - grid.horizon * kac_rice_mean(SPEC, 0.5)
    assert sample.centered == pytest.approx(expected, abs=1e-12)
    assert np.all(sample.per_step_lengths >= 0)
    assert np.all(np.isfinite(sample.per_step_lengths))
    assert sample.per_step_lengths.shape == (21,)


def test_boundary_functional_mean_is_centered(mesh3):
    basis = HarmonicBasis(mesh3, SPEC.ells)
    grid = TimeGrid(0.5, 21)
    reps = 500
    vals = np.empty(reps)
    for i, s in enumerate(np.random.SeedSequence(111).spawn(reps)):
        ens = sample_time_processes(SPEC, grid, s)
        vals[i] = boundary_functional(ens, basis, 0.5).centered
    se = vals.std(ddof=1) / math.sqrt(reps)
    # the empirical mean picks up the small level-3 mesh length bias; stay
    # within 4 SE after removing the deterministic bias measured at high
    # replication in the Kac-Rice acceptance test (level-6 mesh)
    bias_allowance = 0.01 * grid.horizon * kac_rice_mean(SPEC, 0.5)
    assert abs(vals.mean()) < 4 * se + bias_allowance


@functools.cache
def _basis(level):
    return HarmonicBasis(_mesh(level), SPEC.ells)


@given(st.integers(0, 4), st.integers(2, 40), st.sampled_from([1, 2, 3]),
       st.floats(-2.5, 2.5), st.booleans(), st.integers(0, 2**32 - 1))
def test_marching_blocks_change_no_bit(level, n_steps, per_block, u, hit,
                                       seed):
    assume(per_block == 1 or n_steps % per_block)  # a ragged last block
    basis = _basis(level)
    ens = sample_time_processes(SPEC, TimeGrid(0.5, n_steps), seed)
    vals = synthesize_values(ens, basis)
    if hit:  # a value exactly on the level, nudged inside one block
        u = float(vals.flat[seed % vals.size])
    # up to 40 slices of a mesh-4 field fit in one block of the kernel
    whole, n_pert = isoline_lengths(vals, basis.mesh, u)
    values_per_block = per_block * basis.mesh.n_vertices
    with mock.patch.object(geometry, "_BLOCK_VALUES", values_per_block):
        sample = boundary_functional(ens, basis, u)
    assert np.array_equal(sample.per_step_lengths, whole)
    assert sample.perturbed_vertices == n_pert

