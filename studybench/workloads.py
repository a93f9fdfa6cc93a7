"""Study workloads of the benchmark: configs, key estimates and oracles.

Each workload is one CLI study at a fixed size.  Its config is a pure
function of the benchmark seed, which only sets the study's ``seed`` key,
so every seed runs the same amount of work on different random fields.

Every workload stresses a different layer, so that each planned
optimisation has one workload that exercises it and one that bypasses it:

- ``berry-paths``: path sampling and the embedding plan (no mesh);
- ``scaling-length``: marching over many slices of a small mesh;
- ``limit-long``: the Rosenblatt reference sampler;
- ``mean-mesh6``: marching one slice of a fine mesh, plus fine-mesh set-up;
- ``audit-mesh5``: quadrature chaos projections and the gradient basis.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

SHORT = ((0, 1.0, 1.0, 2.5), (2, 0.8, 0.8, 2.5))
LONG = ((0, 1.0, 1.0, 2.2), (1, 2.0, 0.2, None))


@dataclass(frozen=True)
class Workload:
    name: str
    study: str
    replicates: int
    keys: tuple          # extra ``key = value`` config lines
    spectrum: tuple      # (ell, c0, beta, alpha or None) per multipole
    mesh_level: int | None
    dominant: str        # the function predicted to have most self time
    allowed_failures: tuple = ()   # checks that fail for statistical reasons
    why: str = ""

    @property
    def study_replicates(self):
        """Replicates one study runs, over every rung of a horizon ladder."""
        ladder = dict(self.keys).get("t_ladder")
        return self.replicates * (len(ladder.split(",")) if ladder else 1)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "berry-paths", "berry-profile", 600,
            (("dt", "0.25"), ("horizon", "2000"),
             ("u_grid", "0.0, 0.2, 0.4, 0.6, 0.8, 1.0")),
            LONG, None, "synthesis.sample_time_processes",
            why="path sampling and embedding planning dominate; bypasses "
                "geometry and limits"),
        Workload(
            "scaling-length", "variance-scaling", 10,
            (("dt", "1.0"), ("functional", "length"),
             ("t_ladder", "125, 250, 500, 1000"), ("level", "0.5")),
            SHORT, 3, "geometry.isoline_lengths",
            allowed_failures=("exponent_within_0.1",),
            why="marching on many slices per call over a small mesh; "
                "bypasses Rosenblatt and quadrature"),
        Workload(
            "limit-long", "limit-law", 40,
            (("dt", "1.0"), ("horizon", "200"), ("level", "0.5"),
             ("reference_size", "600"), ("rosenblatt_n_inner", "16384")),
            LONG, 3, "limits.sample_rosenblatt",
            allowed_failures=("gaussian_power_check",),
            why="the Rosenblatt reference sampler dominates; shares a small "
                "length pipeline with scaling-length"),
        Workload(
            "mean-mesh6", "mean-length", 150,
            (("u_grid", "0.0, 0.5, 1.0, 1.5"),),
            SHORT, 6, "geometry.isoline_lengths",
            why="one slice per marching call on a fine mesh, plus fine-mesh "
                "set-up"),
        Workload(
            "audit-mesh5", "chaos-audit", 20,
            (("dt", "0.25"), ("horizon", "25"), ("q_max", "4"),
             ("level", "0.5")),
            LONG, 5, "special.hermite_rows",
            why="quadrature chaos projections and the gradient basis"),
    )
}


def study_seed(seed):
    """The study seed a benchmark seed selects."""
    return 1000 + int(seed)


def config_text(workload, seed):
    """The study config of ``workload`` for benchmark seed ``seed``."""
    w = WORKLOADS[workload]
    lines = [f"study = {w.study}", f"seed = {study_seed(seed)}",
             f"replicates = {w.replicates}", "workers = 1"]
    if w.mesh_level is not None:
        lines.append(f"mesh_level = {w.mesh_level}")
    lines += [f"{k} = {v}" for k, v in w.keys]
    for ell, c0, beta, alpha in w.spectrum:
        lines += ["", "[multipole]", f"ell = {ell}", f"c0 = {c0}",
                  f"beta = {beta}"]
        if alpha is not None:
            lines.append(f"alpha = {alpha}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Reading the study's tables
# ----------------------------------------------------------------------

def read_table(text):
    """Rows of a study CSV (comment lines skipped) as dicts of strings."""
    body = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(body))))


def key_estimates(workload, tables):
    """The workload's key estimates, name -> float, read from its tables."""
    out = {}
    if workload == "berry-paths":
        for row in read_table(tables["berry_profile.csv"]):
            out[f"variance_u={float(row['u']):g}"] = float(row["variance"])
    elif workload == "scaling-length":
        for row in read_table(tables["scaling.csv"]):
            out[f"variance_T={float(row['horizon']):g}"] = \
                float(row["variance"])
        fit = read_table(tables["scaling_fit.csv"])[0]
        out["fitted_exponent"] = float(fit["fitted_exponent"])
    elif workload == "limit-long":
        summary = read_table(tables["limit_summary.csv"])[0]
        out["ks_statistic"] = float(summary["ks_statistic"])
        out["gaussian_pvalue"] = float(summary["gaussian_pvalue"])
        xs = [float(r["standardized"]) for r in
              read_table(tables["limit_cdf.csv"])]
        out["standardized_min"] = xs[0]
        out["standardized_max"] = xs[-1]
    elif workload == "mean-mesh6":
        for row in read_table(tables["mean_length.csv"]):
            out[f"mean_u={float(row['u']):g}"] = float(row["empirical_mean"])
    elif workload == "audit-mesh5":
        for row in read_table(tables["per_q_variance.csv"]):
            out[f"variance_q={row['q']}"] = float(row["variance"])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


# ----------------------------------------------------------------------
# Exact oracles, computed here independently of the program
# ----------------------------------------------------------------------

def normalized_spectrum(workload):
    """(ell, c0) with c0 rescaled so the field has unit variance."""
    spec = WORKLOADS[workload].spectrum
    total = sum((2 * ell + 1) / (4 * math.pi) * c0 for ell, c0, _, _ in spec)
    return [(ell, c0 / total) for ell, c0, _, _ in spec]


def kac_rice_length(workload, u):
    """Expected u-level length on the unit sphere, 2 pi sigma1 e^(-u^2/2),
    with sigma1^2 = sum (2l+1)/(4 pi) C_l l(l+1)/2."""
    s1_sq = sum((2 * ell + 1) / (4 * math.pi) * c0 * ell * (ell + 1) / 2
                for ell, c0 in normalized_spectrum(workload))
    return 2 * math.pi * math.sqrt(s1_sq) * math.exp(-0.5 * u * u)


def oracle_problems(workload, tables):
    """Exact-oracle mismatches of a study's tables, as messages."""
    problems = []
    if workload == "mean-mesh6":
        for row in read_table(tables["mean_length.csv"]):
            u = float(row["u"])
            exact = kac_rice_length(workload, u)
            if not math.isclose(float(row["kac_rice"]), exact, rel_tol=1e-9):
                problems.append(f"kac_rice at u={u}: table {row['kac_rice']} "
                                f"vs exact {exact!r}")
            z = (float(row["empirical_mean"]) - exact) / float(row["se"])
            if abs(z) > 4.0:
                problems.append(f"Kac-Rice |z| = {abs(z):.2f} > 4 at u={u}")
    elif workload == "audit-mesh5":
        per_rep = {}
        for row in read_table(tables["projections.csv"]):
            if row["q"] == "2":
                per_rep.setdefault(row["replicate"], {})[row["method"]] = \
                    float(row["value"])
        quad = [v["quadrature"] for v in per_rep.values()]
        spec = [v["spectral"] for v in per_rep.values()]
        rms = math.sqrt(sum((a - b) ** 2 for a, b in zip(quad, spec))
                        / sum(b * b for b in spec))
        if rms > 0.01:
            problems.append(f"second-chaos duality rms {rms:.4g} > 1%")
    return problems
