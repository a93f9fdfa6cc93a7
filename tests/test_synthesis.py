import math

import numpy as np
import pytest
from scipy import sparse, stats

from conftest import spec_from_fractions
from levelcurves.spectrum import MultipoleEntry, PowerSpectrum, make_spectrum, \
    multipole_cov, space_time_cov
from levelcurves.synthesis import (
    _ICO_FACES,
    _ICO_VERTS,
    HarmonicBasis,
    TimeGrid,
    _cached_plan,
    _plan_embedding,
    _pole_dodge_rotation,
    _spherical_triangle_areas,
    build_icosphere,
    sample_time_processes,
    sphere_cubature,
    synthesize_slice,
    synthesize_values,
)

SPEC = None


def setup_module():
    global SPEC
    SPEC = spec_from_fractions({0: (0.4, 1.0, 2.0), 1: (0.35, 0.4, None),
                                2: (0.25, 0.8, None)})


# ----------------------------------------------------------------------
# Time grid and mesh
# ----------------------------------------------------------------------

def test_time_grid_validation():
    grid = TimeGrid(0.25, 81)
    assert grid.horizon == pytest.approx(20.0)
    assert grid.times[1] == 0.25
    with pytest.raises(ValueError):
        TimeGrid(0.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(0.5, 1)
    assert TimeGrid.for_horizon(10.0, 0.5).n_steps == 21


@pytest.mark.parametrize("horizon", [-5.0, 0.0, math.inf, math.nan])
def test_time_grid_for_horizon_rejects_a_bad_horizon(horizon):
    # -5 used to give a 2-step grid and inf an OverflowError
    with pytest.raises(ValueError, match="horizon must be positive"):
        TimeGrid.for_horizon(horizon, 1.0)


def test_icosphere_counts():
    m0 = build_icosphere(0)
    assert m0.n_vertices == 12 and m0.n_triangles == 20
    m3 = build_icosphere(3)
    assert m3.n_vertices == 642 and m3.n_triangles == 1280
    with pytest.raises(ValueError):
        build_icosphere(9)


def _oracle_icosphere(level):
    """(vertices, triangles, weights) from the per-face midpoint loop that
    the vectorised subdivision replaced."""
    verts = list(_ICO_VERTS / np.linalg.norm(_ICO_VERTS, axis=1,
                                             keepdims=True))
    faces = _ICO_FACES.copy()
    for _ in range(level):
        midpoint = {}

        def mid(i, j):
            key = (i, j) if i < j else (j, i)
            if key not in midpoint:
                p = verts[i] + verts[j]
                verts.append(p / np.linalg.norm(p))
                midpoint[key] = len(verts) - 1
            return midpoint[key]

        new_faces = np.empty((4 * faces.shape[0], 3), dtype=np.int64)
        for t, (i, j, k) in enumerate(faces):
            a, b, c = mid(i, j), mid(j, k), mid(k, i)
            new_faces[4 * t:4 * t + 4] = [(i, a, c), (a, j, b), (c, b, k),
                                          (a, b, c)]
        faces = new_faces
    verts = np.array(verts) @ _pole_dodge_rotation().T
    a, b, c = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
    flip = np.einsum("ij,ij->i", np.cross(b - a, c - a), a + b + c) < 0
    faces[flip] = faces[flip][:, [0, 2, 1]]
    weights = np.zeros(len(verts))
    np.add.at(weights, faces.ravel(),
              np.repeat(_spherical_triangle_areas(verts, faces) / 3.0, 3))
    return verts, faces, weights


@pytest.mark.parametrize("level", range(7))
def test_icosphere_matches_midpoint_loop(level):
    mesh = build_icosphere(level)
    verts, faces, weights = _oracle_icosphere(level)
    assert np.array_equal(mesh.vertices, verts)
    assert np.array_equal(mesh.triangles, faces)
    assert mesh.triangles.dtype == faces.dtype
    assert np.array_equal(mesh.vertex_weights, weights)


def test_icosphere_geometry_invariants(mesh4):
    norms = np.linalg.norm(mesh4.vertices, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    assert mesh4.vertex_weights.sum() == pytest.approx(4 * math.pi, abs=1e-9)
    # consistent outward orientation
    a = mesh4.vertices[mesh4.triangles[:, 0]]
    b = mesh4.vertices[mesh4.triangles[:, 1]]
    c = mesh4.vertices[mesh4.triangles[:, 2]]
    outward = np.einsum("ij,ij->i", np.cross(b - a, c - a), a + b + c)
    assert np.all(outward > 0)
    # no vertex near a pole
    pol = np.arccos(np.clip(np.abs(mesh4.vertices[:, 2]), -1, 1))
    assert pol.min() > 1e-6


@pytest.mark.parametrize("degree", [0, 1, 2, 5, 8, 13, 30])
def test_sphere_cubature_nodes_and_weights(degree):
    rule = sphere_cubature(degree)
    assert rule.n_vertices == (degree // 2 + 1) * (degree + 1)
    assert rule.vertex_weights.sum() == pytest.approx(4 * math.pi,
                                                      rel=1e-14)
    assert np.all(rule.vertex_weights > 0)
    assert np.all((rule.theta > 0) & (rule.theta < math.pi))
    for arr in (rule.theta, rule.phi, rule.vertex_weights):
        assert not arr.flags.writeable
    # harmonics of degree l, l' with l + l' <= degree are orthonormal
    # under the rule, so products of degree <= degree integrate exactly
    basis = HarmonicBasis(rule, range(degree // 2 + 1))
    gram = basis.y.T @ (rule.vertex_weights[:, None] * basis.y)
    assert np.abs(gram - np.eye(gram.shape[0])).max() < 1e-13
    # the latitude rings are numpy's Gauss-Legendre rule
    x, w = np.polynomial.legendre.leggauss(degree // 2 + 1)
    ring = np.argsort(rule.theta[::degree + 1])[::-1]
    assert np.abs(np.cos(rule.theta[::degree + 1][ring]) - x).max() < 1e-14
    ring_weights = rule.vertex_weights[::degree + 1][ring] * (degree + 1)
    assert np.abs(ring_weights / (2 * math.pi * w) - 1).max() < 1e-12


@pytest.mark.parametrize("degree", [-1, 2.5, 4.0, "4", None])
def test_sphere_cubature_rejects_a_bad_degree(degree):
    with pytest.raises(ValueError, match="degree"):
        sphere_cubature(degree)


# ----------------------------------------------------------------------
# Coefficient sampling
# ----------------------------------------------------------------------

def test_same_seed_bit_identical():
    grid = TimeGrid(0.5, 64)
    e1 = sample_time_processes(SPEC, grid, 42)
    e2 = sample_time_processes(SPEC, grid, 42)
    assert np.array_equal(e1.coeffs, e2.coeffs)
    e3 = sample_time_processes(SPEC, grid, 43)
    assert not np.array_equal(e1.coeffs, e3.coeffs)


def test_single_multipole_path_variance():
    spec = make_spectrum([MultipoleEntry(0, 4 * math.pi, 1.0, 3.0)])
    grid = TimeGrid(1.0, 4000)
    ens = sample_time_processes(spec, grid, 7)
    assert ens.coeffs.shape == (1, 4000)
    # short-memory path: the time average of a^2 concentrates
    assert ens.coeffs[0].var() == pytest.approx(spec.entry(0).c0, rel=0.1)


def test_lag_autocovariance_matches_model():
    spec = spec_from_fractions({0: (0.5, 1.0, 2.0), 1: (0.5, 0.4, None)})
    grid = TimeGrid(0.5, 41)
    h = 10  # lag 5 dt
    reps = 500
    prods = []
    for seed in np.random.SeedSequence(321).spawn(reps):
        ens = sample_time_processes(spec, grid, seed)
        rows = ens.coeffs[ens.rows_for(1)]
        prods.append((rows[:, :-h] * rows[:, h:]).mean())
    prods = np.asarray(prods)
    se = prods.std(ddof=1) / math.sqrt(reps)
    expected = multipole_cov(spec, 1, h * grid.dt)
    assert abs(prods.mean() - expected) < 4 * se


def test_cross_stream_independence():
    spec = spec_from_fractions({0: (0.5, 1.0, 2.0), 1: (0.5, 0.4, None)})
    grid = TimeGrid(0.5, 21)
    reps = 400
    cross = []
    for seed in np.random.SeedSequence(11).spawn(reps):
        ens = sample_time_processes(spec, grid, seed)
        a = ens.path(1, -1)
        b = ens.path(1, 0)
        c = ens.path(0, 0)
        cross.append([(a * b).mean(), (a * c).mean(), (b * c).mean()])
    cross = np.asarray(cross)
    for j in range(3):
        se = cross[:, j].std(ddof=1) / math.sqrt(reps)
        assert abs(cross[:, j].mean()) < 4 * se


def test_embedding_doubling_and_failure_paths(monkeypatch):
    # exercised with synthetic kernels: an undamped cosine keeps strongly
    # negative embedding eigenvalues at every ring length (fails after the
    # doubling budget); a wide Gaussian bell becomes admissible at the
    # fourth doubling with a tiny clipped eigenvalue.
    import levelcurves.synthesis as syn

    class DuckSpectrum:
        entries = (MultipoleEntry(0, 1.0, 0.5),)

        def entry(self, ell):
            return self.entries[0] if ell == 0 else None

    monkeypatch.setattr(
        syn, "multipole_cov",
        lambda spectrum, ell, tau: np.cos(1.37 * np.asarray(tau, dtype=float)))
    with pytest.raises(RuntimeError, match="embedding"):
        _plan_embedding(DuckSpectrum(), TimeGrid(1.0, 12), 0)

    monkeypatch.setattr(
        syn, "multipole_cov",
        lambda spectrum, ell, tau: np.exp(
            -(np.asarray(tau, dtype=float) / 40.0) ** 2))
    root, m_len, n_clip, n_dbl = _plan_embedding(DuckSpectrum(),
                                                 TimeGrid(1.0, 12), 0)
    assert n_dbl == 4
    assert n_clip >= 1
    assert m_len == 2 * (177 - 1)


def _oracle_sample_time_processes(spectrum, grid, seed):
    """(coeffs, labels, clipped, doublings) from the sampler that planned
    every multipole on every draw and stacked per-multipole blocks."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    labels, rows = [], []
    clipped = doublings = 0
    n = grid.n_steps
    for e in spectrum.entries:
        root_lam, m_len, n_clip, n_dbl = _plan_embedding(spectrum, grid, e.ell)
        clipped += n_clip
        doublings = max(doublings, n_dbl)
        count = 2 * e.ell + 1
        n_pairs = (count + 1) // 2
        g = rng.standard_normal((n_pairs, 2, m_len))
        w = np.fft.fft(root_lam * (g[:, 0, :] + 1j * g[:, 1, :]), axis=1)
        block = np.empty((2 * n_pairs, n))
        block[0::2] = w.real[:, :n]
        block[1::2] = w.imag[:, :n]
        rows.append(block[:count])
        labels.extend((e.ell, m) for m in range(-e.ell, e.ell + 1))
    return np.vstack(rows), tuple(labels), clipped, doublings


@pytest.mark.parametrize("horizon, dt", [(2000, 0.25), (25, 0.25), (7, 1.0)])
def test_sampler_matches_uncached_sampler(horizon, dt):
    grid = TimeGrid.for_horizon(horizon, dt)
    for seed in (0, 1, 2, 1009):
        ens = sample_time_processes(SPEC, grid, seed)
        coeffs, labels, clipped, doublings = \
            _oracle_sample_time_processes(SPEC, grid, seed)
        assert np.array_equal(ens.coeffs, coeffs)
        assert ens.labels == labels
        assert (ens.clipped_eigenvalues, ens.embedding_doublings) == \
            (clipped, doublings)


@pytest.fixture
def fresh_plans():
    _cached_plan.cache_clear()
    yield
    _cached_plan.cache_clear()


def test_guard_counters_reach_every_ensemble(monkeypatch, fresh_plans):
    # the wide Gaussian bell of the doubling test forces 4 doublings and a
    # clip on each multipole; every ensemble drawn from the cached plans
    # must report them, not only the first after a miss
    import levelcurves.synthesis as syn

    monkeypatch.setattr(
        syn, "multipole_cov",
        lambda spectrum, ell, tau: np.exp(
            -(np.asarray(tau, dtype=float) / 40.0) ** 2))
    spec = spec_from_fractions({0: (0.5, 1.0, 2.0), 1: (0.5, 0.4, None)})
    grid = TimeGrid(1.0, 12)
    _, _, n_clip, _ = _plan_embedding(spec, grid, 0)
    assert n_clip >= 1
    for seed in range(4):
        ens = sample_time_processes(spec, grid, seed)
        assert ens.embedding_doublings == 4
        assert ens.clipped_eigenvalues == 2 * n_clip
    assert _cached_plan.cache_info().misses == 2


def test_plans_are_shared_only_by_equal_spectra(fresh_plans):
    fours = 4 * math.pi
    base = (MultipoleEntry(0, fours / 2, 1.0, 2.5),
            MultipoleEntry(1, fours / 6, 0.3))
    up = math.nextafter

    def variant(ell, **change):
        return make_spectrum([
            MultipoleEntry(e.ell, change.get("c0", e.c0),
                           change.get("beta", e.beta),
                           change.get("alpha", e.alpha))
            if e.ell == ell else e for e in base], normalize=False)

    spectra = [make_spectrum(base, normalize=False),
               variant(1, c0=up(fours / 6, 9.0)),
               variant(1, beta=up(0.3, 1.0)),
               variant(0, alpha=up(2.5, 3.0))]
    grid = TimeGrid(0.5, 101)
    plans = [[_cached_plan(s, grid, ell) for ell in (0, 1)] for s in spectra]
    assert _cached_plan.cache_info().misses == 8
    assert len({id(plan) for row in plans for plan in row}) == 8
    for s, row in zip(spectra, plans):
        for ell, plan in zip((0, 1), row):
            assert np.array_equal(plan[0], _plan_embedding(s, grid, ell)[0])
            assert not plan[0].flags.writeable
    # an equal spectrum built anew reuses the plans
    again = PowerSpectrum(tuple(spectra[0].entries))
    assert _cached_plan(again, grid, 1) is plans[0][1]
    assert _cached_plan(spectra[0], TimeGrid(0.5, 102), 1) is not plans[0][1]


# ----------------------------------------------------------------------
# Slice synthesis
# ----------------------------------------------------------------------

def _lag0_values(spec, basis, reps, seed, column=None):
    grid = TimeGrid(1.0, 2)
    out = []
    for s in np.random.SeedSequence(seed).spawn(reps):
        a = sample_time_processes(spec, grid, s).coeffs[:, 0]
        y = basis.y if column is None else column
        out.append(y @ a)
    return np.asarray(out)


def test_field_variance_matches_normalization(mesh3):
    basis = HarmonicBasis(mesh3, SPEC.ells)
    reps = 6000
    vals = _lag0_values(SPEC, basis, reps, 4242)
    per_rep = (vals**2).mean(axis=1)
    se = per_rep.std(ddof=1) / math.sqrt(reps)
    assert abs(per_rep.mean() - 1.0) <= max(0.03, 4 * se)
    assert abs(per_rep.mean() - 1.0) <= 0.03


def test_gradient_variance_matches_sigma1(mesh3):
    basis = HarmonicBasis(mesh3, SPEC.ells)
    grid = TimeGrid(1.0, 2)
    reps = 6000
    d1, d2 = basis.dy
    acc = np.empty((reps, 2))
    for i, s in enumerate(np.random.SeedSequence(777).spawn(reps)):
        a = sample_time_processes(SPEC, grid, s).coeffs[:, 0]
        acc[i, 0] = np.mean((d1 @ a) ** 2)
        acc[i, 1] = np.mean((d2 @ a) ** 2)
    s1sq = SPEC.sigma1_sq
    for j in range(2):
        se = acc[:, j].std(ddof=1) / math.sqrt(reps)
        assert abs(acc[:, j].mean() - s1sq) <= max(0.03 * s1sq, 4 * se)
        assert abs(acc[:, j].mean() - s1sq) <= 0.03 * s1sq


def test_point_covariance_matches_model(mesh3):
    basis = HarmonicBasis(mesh3, SPEC.ells)
    reps = 3000
    vals = _lag0_values(SPEC, basis, reps, 90210)
    pairs = np.random.default_rng(3).integers(0, mesh3.n_vertices, size=(20, 2))
    for i, j in pairs:
        prods = vals[:, i] * vals[:, j]
        se = prods.std(ddof=1) / math.sqrt(reps)
        eta = float(np.clip(mesh3.vertices[i] @ mesh3.vertices[j], -1, 1))
        assert abs(prods.mean() - space_time_cov(SPEC, eta, 0.0)) < 4 * se


def test_synthesize_slice_shapes_and_index(mesh3):
    grid = TimeGrid(0.5, 6)
    ens = sample_time_processes(SPEC, grid, 5)
    basis = HarmonicBasis(mesh3, SPEC.ells)
    sl = synthesize_slice(ens, basis, 3)
    assert sl.values.shape == (mesh3.n_vertices,)
    assert sl.grad_theta.shape == (mesh3.n_vertices,)
    assert sl.time_index == 3
    with pytest.raises(IndexError):
        synthesize_slice(ens, basis, 6)
    flat = synthesize_slice(ens, basis, 2, with_gradient=False)
    assert flat.grad_theta is None
    block = synthesize_values(ens, basis)
    assert np.allclose(block[:, 3], sl.values)


def test_multipole_slice_parseval(mesh5):
    spec = spec_from_fractions({0: (0.2, 1.0, 2.0), 4: (0.4, 0.6, None),
                                8: (0.4, 0.9, None)})
    basis = HarmonicBasis(mesh5, spec.ells)
    grid = TimeGrid(0.5, 3)
    ens = sample_time_processes(spec, grid, 31)
    for ell in (4, 8):
        cols, rows = basis.columns_for(ell), ens.rows_for(ell)
        for k in range(grid.n_steps):
            z_ell = basis.y[:, cols] @ ens.coeffs[rows, k]
            quad = float(mesh5.vertex_weights @ z_ell**2)
            chat = (ens.coeffs[rows, k] ** 2).mean()
            assert quad == pytest.approx((2 * ell + 1) * chat, rel=1e-3)


def test_multipole_slice_normalized_variance(mesh3):
    spec = spec_from_fractions({0: (0.3, 1.0, 2.0), 2: (0.7, 0.5, None)})
    basis = HarmonicBasis(mesh3, spec.ells)
    grid = TimeGrid(1.0, 2)
    reps = 6000
    cols = basis.columns_for(2)
    # unit-variance Z_2 / sqrt((2 ell + 1) C_2(0) / 4 pi)
    scale = 1.0 / math.sqrt(5 * spec.entry(2).c0 / (4 * math.pi))
    acc = np.empty(reps)
    for i, s in enumerate(np.random.SeedSequence(1234).spawn(reps)):
        ens = sample_time_processes(spec, grid, s)
        z_2 = (basis.y[:, cols] @ ens.coeffs[ens.rows_for(2), 0]) * scale
        acc[i] = np.mean(z_2**2)
    se = acc.std(ddof=1) / math.sqrt(reps)
    assert abs(acc.mean() - 1.0) <= max(0.03, 4 * se)
    assert abs(acc.mean() - 1.0) <= 0.03


def _cotan_laplacian(mesh):
    """Sparse cotangent Laplacian with lumped (one-third-area) mass."""
    v = mesh.vertices
    tris = mesh.triangles
    rows, cols, vals = [], [], []
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        pa, pb, pc = v[tris[:, a]], v[tris[:, b]], v[tris[:, c]]
        # cotangent of the angle at vertex a, opposite edge (b, c)
        u1 = pb - pa
        u2 = pc - pa
        cos_a = np.einsum("ij,ij->i", u1, u2)
        sin_a = np.linalg.norm(np.cross(u1, u2), axis=1)
        cot = cos_a / sin_a
        rows += [tris[:, b], tris[:, c]]
        cols += [tris[:, c], tris[:, b]]
        vals += [0.5 * cot, 0.5 * cot]
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    w = sparse.coo_matrix((vals, (rows, cols)),
                          shape=(mesh.n_vertices,) * 2).tocsr()
    diag = np.asarray(w.sum(axis=1)).ravel()
    lap = w - sparse.diags(diag)
    inv_mass = sparse.diags(1.0 / mesh.vertex_weights)
    return inv_mass @ lap


def test_multipole_slice_solves_helmholtz(mesh6):
    # oracle: discrete cotangent Laplace-Beltrami operator
    spec = spec_from_fractions({0: (0.2, 1.0, 2.0), 2: (0.4, 0.5, None),
                                4: (0.4, 0.8, None)})
    basis = HarmonicBasis(mesh6, spec.ells)
    lap = _cotan_laplacian(mesh6)
    grid = TimeGrid(1.0, 2)
    ens = sample_time_processes(spec, grid, 8)
    for ell in (2, 4):
        z_ell = basis.y[:, basis.columns_for(ell)] \
            @ ens.coeffs[ens.rows_for(ell), 0]
        lam = ell * (ell + 1)
        resid = lap @ z_ell + lam * z_ell
        assert np.linalg.norm(resid) < 0.05 * lam * np.linalg.norm(z_ell)


# ----------------------------------------------------------------------
# Distributional invariants
# ----------------------------------------------------------------------

def test_field_gaussianity(mesh3):
    basis = HarmonicBasis(mesh3, SPEC.ells)
    reps = 600
    vals = _lag0_values(SPEC, basis, reps, 2718)  # 600 x 642 >= 1e5 samples
    assert vals.size >= 100_000
    m3 = (vals**3).mean(axis=1)
    m4 = (vals**4 - 3.0).mean(axis=1)
    for stat in (m3, m4):
        se = stat.std(ddof=1) / math.sqrt(reps)
        assert abs(stat.mean()) < 4 * se


def test_field_isotropy_binned_covariogram(mesh3):
    basis = HarmonicBasis(mesh3, SPEC.ells)
    reps = 2000
    vals = _lag0_values(SPEC, basis, reps, 62)
    rng = np.random.default_rng(4)
    pairs = rng.integers(0, mesh3.n_vertices, size=(60, 2))
    etas = np.clip(np.einsum(
        "ij,ij->i", mesh3.vertices[pairs[:, 0]], mesh3.vertices[pairs[:, 1]]),
        -1, 1)
    bins = np.linspace(-1, 1, 9)
    which = np.digitize(etas, bins) - 1
    for b in range(8):
        sel = which == b
        if not np.any(sel):
            continue
        prods = (vals[:, pairs[sel, 0]] * vals[:, pairs[sel, 1]]).mean(axis=1)
        expected = np.mean([space_time_cov(SPEC, float(e), 0.0)
                            for e in etas[sel]])
        se = prods.std(ddof=1) / math.sqrt(reps)
        assert abs(prods.mean() - expected) < 4 * se


def test_time_stationarity_no_variance_trend(mesh3):
    basis = HarmonicBasis(mesh3, SPEC.ells)
    grid = TimeGrid(0.5, 30)
    reps = 200
    per_step = np.empty((reps, grid.n_steps))
    for i, s in enumerate(np.random.SeedSequence(13).spawn(reps)):
        ens = sample_time_processes(SPEC, grid, s)
        block = synthesize_values(ens, basis)
        per_step[i] = (block**2).mean(axis=0)
    k = np.arange(grid.n_steps)
    slopes = [stats.linregress(k, row).slope for row in per_step]
    t_stat = np.mean(slopes) / (np.std(slopes, ddof=1) / math.sqrt(reps))
    assert abs(t_stat) < 4

