"""Command-line workbench front end.

Studies are described by a line-oriented ``key = value`` config with one
``[multipole]`` block per spectrum entry, dispatched to the library
modules, and written out as CSV tables plus a replayable manifest.  Every
study is a pure function of (config, seed): reruns are byte-identical,
including with multiple workers, because replicate reduction is fixed in
replicate order.

One ordered table, ``_KEYS``, gives each top-level key its parser, range
check and place in the canonical text; ``_REQUIRES`` names the keys each
study needs.  Parsing scans the text, then validates once, after the
subcommand's study and the ``--seed``, ``--workers``, ``--mesh-level``
and ``--replicates`` flags have replaced the file's keys.

Subcommands: mean-length, variance-scaling, berry-profile, limit-law,
chaos-audit, replay.  Exit status: 0 when every invoked check passes
(for replay: every recorded table is byte-identical), 2 when a check
fails (for replay: a table differs, is missing or was not recorded),
3 when replay finds the manifest superseded by a newer numerics version
of its study, 1 on error.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
import time
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, mcstats
from .chaos import (
    chaos_projections_quadrature,
    first_chaos_projection,
    second_chaos_sample_spectrum,
)
from .geometry import isoline_lengths, kac_rice_mean
from .limits import berry_profile, fit_variance_scaling, limit_law_report
from .spectrum import MultipoleEntry, classify_regime, make_spectrum
from .synthesis import HarmonicBasis, TimeGrid, build_icosphere, \
    measure_replicate, sphere_cubature

__all__ = ["RunConfig", "StudyResult", "ReplayReport", "parse_config",
           "render_config", "run_study", "main"]

# ----------------------------------------------------------------------
# Config
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Validated study description; every numeric field is checked against
    the library preconditions before any compute starts."""

    study: str
    spectrum: object
    seed: int = 1
    replicates: int = 200
    dt: float = 0.25
    mesh_level: int = 4
    workers: int = 1
    horizon: float | None = None
    t_ladder: tuple | None = None
    level: float | None = None
    u_grid: tuple | None = None
    functional: str = "chaos2"
    q_max: int = 4
    ks_alpha: float = 0.01
    reference_size: int = 4000
    rosenblatt_n_inner: int = 2**14
    dump_lengths: bool = False


def _bool(text):
    return {"true": True, "yes": True, "1": True,
            "false": False, "no": False, "0": False}[text.lower()]


def _numbers(text):
    return tuple(float(v) for v in text.split(",") if v.strip())


def _positive(x):
    return 0 < x < math.inf


# study -> the keys it requires; "a|b" asks for a or b
_REQUIRES = {
    "mean-length": ("level|u_grid",),
    "variance-scaling": ("t_ladder",),
    "berry-profile": ("horizon", "u_grid"),
    "limit-law": ("horizon", "level"),
    "chaos-audit": ("horizon", "level"),
}

# top-level key -> (parser, what its type error expects, range check or
# None, what its range error says the value must do), in canonical render
# order.  A key that is no RunConfig field is a make_spectrum option.
_KEYS = {
    "study": (str, "str", _REQUIRES.__contains__,
              f"name one of {tuple(_REQUIRES)}"),
    "seed": (int, "int", lambda n: n >= 0, "be >= 0"),
    "replicates": (int, "int", lambda n: n >= 2, "be >= 2"),
    "dt": (float, "float", _positive, "be positive and finite"),
    "mesh_level": (int, "int", lambda n: 0 <= n <= 8, "lie in [0, 8]"),
    "workers": (int, "int", lambda n: n >= 1, "be >= 1"),
    "horizon": (float, "float", _positive, "be positive and finite"),
    "level": (float, "float", math.isfinite, "be finite"),
    "functional": (str, "str", ("chaos2", "chaos1", "length").__contains__,
                   "be chaos2, chaos1 or length"),
    # chaos-audit checks the duality on order 2, so it projects at least 2
    "q_max": (int, "int", lambda n: 2 <= n <= 12, "lie in [2, 12]"),
    "ks_alpha": (float, "float", lambda a: 0 < a < 1, "lie in (0, 1)"),
    "reference_size": (int, "int", lambda n: n >= 1, "be >= 1"),
    "rosenblatt_n_inner": (int, "int", lambda n: n >= 16, "be >= 16"),
    "dump_lengths": (_bool, "true/false", None, None),
    "t_ladder": (_numbers, "a comma list of numbers",
                 lambda ts: len(ts) >= 4 and all(map(_positive, ts)),
                 "hold at least 4 horizons, each positive and finite"),
    "u_grid": (_numbers, "a comma list of numbers",
               lambda us: len(us) >= 1 and all(map(math.isfinite, us)),
               "hold at least one level, each finite"),
    "normalize": (_bool, "true/false", None, None),
}
_MULTIPOLE_KEYS = {"ell": int, "c0": float, "beta": float, "alpha": float}


def _multipole_entry(start, block):
    missing = {"ell", "c0", "beta"} - set(block)
    if missing:
        raise ValueError(
            f"[multipole] block at line {start} is missing {sorted(missing)}")
    return MultipoleEntry(**block)


def _scan(text):
    """Scan a config into its top-level keys, each parsed to its type, and
    its spectrum; errors name key and line."""
    keys = {}
    entries = []
    block = None            # (first line, keys) of the open [multipole]
    first_block = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower() == "[multipole]":
            if block is not None:
                entries.append(_multipole_entry(*block))
            block = (lineno, {})
            first_block = first_block or lineno
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip().lower(), value.strip()
        if block is not None and key in _MULTIPOLE_KEYS:
            typ = _MULTIPOLE_KEYS[key]
            try:
                block[1][key] = typ(value)
            except ValueError:
                what = "an integer" if typ is int else "numeric"
                raise ValueError(f"line {lineno}: value for {key!r} is not "
                                 f"{what}: {value!r}") from None
            continue
        if key not in _KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        parse, expects = _KEYS[key][:2]
        try:
            keys[key] = parse(value)
        except (KeyError, ValueError):
            raise ValueError(f"line {lineno}: key {key!r} expects {expects}, "
                             f"got {value!r}") from None
        if block is not None:       # a top-level key ends the block
            entries.append(_multipole_entry(*block))
            block = None
    if block is not None:
        entries.append(_multipole_entry(*block))

    if not entries:
        raise ValueError("config has no [multipole] blocks")
    options = {key: keys.pop(key)
               for key in keys.keys() - {f.name for f in fields(RunConfig)}}
    try:
        spectrum = make_spectrum(entries, **options)
    except ValueError as exc:
        raise ValueError(
            f"spectrum (starting line {first_block}): {exc}"
        ) from None
    if not spectrum.sigma1_sq > 0:
        raise ValueError(
            "key 'ell': the spectrum needs a multipole with ell >= 1 and "
            "c0 > 0; with sigma1^2 = 0 the field has no level curves")
    return keys, spectrum


def _build(keys, spectrum):
    """Check the keys against their table entries and their study's needs,
    then build the RunConfig."""
    study = keys.get("study")
    if study is None:
        raise ValueError("config is missing the 'study' key")
    for key, (_, _, check, must) in _KEYS.items():
        if key in keys and check is not None and not check(keys[key]):
            raise ValueError(f"key {key!r} must {must}")
    for need in _REQUIRES[study]:
        alternatives = need.split("|")
        if not any(key in keys for key in alternatives):
            raise ValueError(f"study {study!r} requires key "
                             + " or ".join(map(repr, alternatives)))
    return RunConfig(spectrum=spectrum, **keys)


def parse_config(text, **overrides):
    """Parse and validate a study config; errors name key and line.

    Top-level ``key = value`` lines may come before, between or after the
    ``[multipole]`` blocks.  A block holds the keys ell, c0, beta and (when
    beta = 1) alpha, one spectrum entry; any other key ends it.  ``#``
    starts a comment.  ``overrides`` (key -> value) replace the file's keys
    before the one validation pass.
    """
    keys, spectrum = _scan(text)
    return _build(keys | overrides, spectrum)


def _fmt(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    if isinstance(x, tuple):
        return ", ".join(map(_fmt, x))
    return str(x)


def render_config(cfg):
    """Canonical text form, keys in table order; parse(render(cfg)) == cfg.
    Rendered spectra are normalized, so ``normalize``, the one key that is
    no RunConfig field, renders false."""
    lines = [f"{key} = {_fmt(val)}" for key in _KEYS
             if (val := getattr(cfg, key, False)) is not None]
    for entry in cfg.spectrum.entries:
        lines.append("[multipole]")
        lines += [f"{key} = {_fmt(val)}" for key in _MULTIPOLE_KEYS
                  if (val := getattr(entry, key)) is not None]
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Study results
# ----------------------------------------------------------------------

@dataclass
class StudyResult:
    """Tables (name -> CSV text), summary checks (name -> bool), and the
    replay manifest."""

    study: str
    config: RunConfig
    tables: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    manifest: str = ""
    wall_time_s: float = 0.0

    @property
    def passed(self):
        return all(self.checks.values())


def _csv(header_cols, rows, config_hash, notes=()):
    out = [f"# levelcurves {__version__} config sha256:{config_hash}"]
    out += [f"# {note}" for note in notes]
    out.append(",".join(header_cols))
    for row in rows:
        out.append(",".join(_fmt(v) for v in row))
    return "\n".join(out) + "\n"


def _config_hash(cfg):
    return hashlib.sha256(render_config(cfg).encode()).hexdigest()


# ---- study implementations -------------------------------------------

def _level_lengths(basis, levels, ensemble):
    vals = basis.y @ ensemble.coeffs[:, 0]
    return [isoline_lengths(vals, basis.mesh, u)[0][0] for u in levels]


def _study_mean_length(cfg, config_hash):
    levels = cfg.u_grid if cfg.u_grid is not None else (cfg.level,)
    basis = HarmonicBasis(build_icosphere(cfg.mesh_level),
                          cfg.spectrum.ells)
    kernel = partial(measure_replicate, cfg.spectrum,
                     TimeGrid(dt=1.0, n_steps=2),
                     partial(_level_lengths, basis, levels))
    rows = np.array(mcstats.replicate_map(kernel, cfg.seed, cfg.replicates,
                                          workers=cfg.workers))
    tables = {}
    out_rows = []
    checks = {}
    for j, u in enumerate(levels):
        samples = rows[:, j]
        mean = samples.mean()
        se = samples.std(ddof=1) / math.sqrt(len(samples))
        predicted = kac_rice_mean(cfg.spectrum, u)
        z = (mean - predicted) / se
        out_rows.append((u, len(samples), mean, se, predicted, z))
        checks[f"kac_rice_z_u={_fmt(float(u))}"] = bool(abs(z) <= 4.0)
    tables["mean_length.csv"] = _csv(
        ("u", "replicates", "empirical_mean", "se", "kac_rice", "z_score"),
        out_rows, config_hash)
    if cfg.dump_lengths:
        dump = [(r, u, rows[r, j])
                for r in range(rows.shape[0]) for j, u in enumerate(levels)]
        tables["lengths.csv"] = _csv(("replicate", "u", "length"),
                                     dump, config_hash)
    return tables, checks


def _expected_exponent(cfg):
    report = classify_regime(cfg.spectrum)
    if cfg.functional == "chaos1":
        e0 = cfg.spectrum.entry(0)
        if e0 is None:
            return None
        return 2.0 - e0.beta if e0.beta < 1.0 else 1.0
    return report.expected_var_exponent


def _study_variance_scaling(cfg, config_hash):
    fit = fit_variance_scaling(
        cfg.spectrum, cfg.level if cfg.level is not None else 0.0,
        cfg.t_ladder, cfg.replicates, cfg.seed, functional=cfg.functional,
        mesh_level=cfg.mesh_level, dt=cfg.dt, workers=cfg.workers)
    rows = [
        (t, v, s, math.log10(t), math.log10(v))
        for t, v, s in zip(fit.horizons, fit.variances, fit.variance_ses)
    ]
    tables = {
        "scaling.csv": _csv(
            ("horizon", "variance", "se", "log10_horizon", "log10_variance"),
            rows, config_hash)
    }
    checks = {}
    expected = _expected_exponent(cfg)
    if expected is not None:
        checks["exponent_within_0.1"] = bool(
            abs(fit.fitted_exponent - expected) <= 0.1)
    summary_rows = [(fit.fitted_exponent, fit.exponent_se,
                     expected if expected is not None else float("nan"))]
    tables["scaling_fit.csv"] = _csv(
        ("fitted_exponent", "exponent_se", "expected_exponent"),
        summary_rows, config_hash)
    return tables, checks


def _study_berry_profile(cfg, config_hash):
    prof = berry_profile(cfg.spectrum, cfg.u_grid, cfg.horizon,
                         cfg.replicates, cfg.seed, dt=cfg.dt,
                         workers=cfg.workers)
    rows = [
        (u, v, s, p if p is not None else float("nan"))
        for u, v, s, p in zip(prof.levels, prof.variances,
                              prof.variance_ses, prof.predicted_constants)
    ]
    tables = {
        "berry_profile.csv": _csv(
            ("u", "variance", "se", "long_constant"), rows, config_hash)
    }
    checks = {}
    if prof.predicted_cancellation is not None:
        step = max(
            abs(b - a) for a, b in zip(prof.levels[:-1], prof.levels[1:])
        ) if len(prof.levels) > 1 else 0.0
        checks["min_within_one_step_of_cancellation"] = bool(
            abs(prof.min_level - prof.predicted_cancellation) <= step + 1e-12)
    marker = prof.predicted_cancellation
    marker = _fmt(marker) if marker is not None else "none"
    tables["fig_berry.csv"] = _csv(
        ("u", "variance", "long_constant"), [(u, v, p) for u, v, _, p in rows],
        config_hash, notes=(f"predicted_cancellation = {marker}",))
    return tables, checks


def _study_limit_law(cfg, config_hash):
    report = limit_law_report(
        cfg.spectrum, cfg.level, cfg.horizon, cfg.replicates, cfg.seed,
        mesh_level=cfg.mesh_level, dt=cfg.dt, alpha=cfg.ks_alpha,
        reference_size=cfg.reference_size, n_inner=cfg.rosenblatt_n_inner,
        workers=cfg.workers)
    xs = np.sort(report.standardized)
    ecdf = (np.arange(xs.size) + 1) / xs.size
    if report.reference is None:
        rows = [(x, e) for x, e in zip(xs, ecdf)]
        cols = ("standardized", "ecdf")
    else:
        ref = np.sort(report.reference)
        ref_at = np.searchsorted(ref, xs, side="right") / ref.size
        rows = [(x, e, r) for x, e, r in zip(xs, ecdf, ref_at)]
        cols = ("standardized", "ecdf", "reference_cdf")
    tables = {"limit_cdf.csv": _csv(cols, rows, config_hash)}
    summary = [(report.regime, report.ks_statistic, report.ks_pvalue,
                report.passed,
                report.gaussian_ks_pvalue
                if report.gaussian_ks_pvalue is not None else float("nan"))]
    tables["limit_summary.csv"] = _csv(
        ("regime", "ks_statistic", "ks_pvalue", "passed", "gaussian_pvalue"),
        summary, config_hash)
    checks = {"ks_limit_law": bool(report.passed)}
    if report.gaussian_rejected is not None:
        checks["gaussian_power_check"] = bool(report.gaussian_rejected)
    return tables, checks


def _audit_projections(basis, u, orders, ensemble):
    quad = chaos_projections_quadrature(ensemble, basis, u, orders)
    out = [("quadrature", q, quad[q]) for q in orders]
    out.append(("spectral", 1, first_chaos_projection(ensemble, u)))
    out.append(("spectral", 2, second_chaos_sample_spectrum(ensemble, u)))
    return out


def _study_chaos_audit(cfg, config_hash):
    # the order-q integrand has degree <= q * ell_max, so this cubature
    # projects exactly; mesh_level does not enter this study
    orders = list(range(1, cfg.q_max + 1))
    basis = HarmonicBasis(sphere_cubature(cfg.q_max * max(cfg.spectrum.ells)),
                          cfg.spectrum.ells)
    grid = TimeGrid.for_horizon(cfg.horizon, cfg.dt)
    kernel = partial(measure_replicate, cfg.spectrum, grid,
                     partial(_audit_projections, basis, cfg.level, orders))
    rows = mcstats.replicate_map(kernel, cfg.seed, cfg.replicates,
                                 workers=cfg.workers)
    flat = [(rep, method, q, val)
            for rep, items in enumerate(rows)
            for method, q, val in items]
    tables = {
        "projections.csv": _csv(("replicate", "method", "q", "value"),
                                flat, config_hash)
    }
    # one column per _audit_projections item: quadrature q = 1..q_max,
    # then spectral q = 1 and q = 2
    cols = np.array([[val for _, _, val in items] for items in rows]).T.copy()
    var_rows = [(q, cols[q - 1].var(ddof=1)) for q in orders]
    tables["per_q_variance.csv"] = _csv(("q", "variance"), var_rows,
                                        config_hash)
    quad2, spec2 = cols[1], cols[-1]
    dual_rms = math.sqrt(np.mean((quad2 - spec2) ** 2)) \
        / math.sqrt(np.mean(spec2**2))
    tables["duality.csv"] = _csv(("second_chaos_rms_discrepancy",),
                                 [(dual_rms,)], config_hash)
    checks = {"second_chaos_duality_1pct": bool(dual_rms <= 0.01)}
    return tables, checks


# study name -> function of (config, config hash) giving (tables, checks)
STUDIES = {
    "mean-length": _study_mean_length,
    "variance-scaling": _study_variance_scaling,
    "berry-profile": _study_berry_profile,
    "limit-law": _study_limit_law,
    "chaos-audit": _study_chaos_audit,
}

# study name -> numerics version, raised when the study's tables change on
# purpose; replay reports a manifest of an older version as superseded.
# 2 for chaos-audit: projections on the exact cubature, not the mesh.
# 2 for mean-length: lengths.csv names each row's level.
# 2 for variance-scaling: fig_scaling.csv, which restated scaling.csv and
# scaling_fit.csv, is no longer written.
NUMERICS = {study: 1 for study in STUDIES} | {"chaos-audit": 2,
                                              "mean-length": 2,
                                              "variance-scaling": 2}


def run_study(cfg, out_dir=None):
    """Execute a study; optionally write tables + manifest to ``out_dir``."""
    config_hash = _config_hash(replace(cfg, workers=1))
    t0 = time.perf_counter()
    tables, checks = STUDIES[cfg.study](cfg, config_hash)
    wall = time.perf_counter() - t0

    result = StudyResult(study=cfg.study, config=cfg, tables=tables,
                         checks=checks, wall_time_s=wall)
    result.manifest = _render_manifest(result, config_hash)
    if out_dir is not None:
        _write_result(result, Path(out_dir))
    return result


# ---- manifest / replay ------------------------------------------------

def _render_manifest(result, config_hash):
    lines = [
        "levelcurves-manifest v1",
        f"package_version: {__version__}",
        f"study: {result.study}",
        f"numerics: {NUMERICS[result.study]}",
        f"seed: {result.config.seed}",
        f"config_sha256: {config_hash}",
        f"wall_time_s: {result.wall_time_s:.3f}",
    ]
    for name in sorted(result.tables):
        digest = hashlib.sha256(result.tables[name].encode()).hexdigest()
        lines.append(f"table: {name} sha256:{digest}")
    for name in sorted(result.checks):
        lines.append(
            f"check: {name} {'pass' if result.checks[name] else 'FAIL'}")
    lines.append("config:")
    # worker count normalized: results are worker-independent by design
    canonical = replace(result.config, workers=1)
    lines += ["|" + ln for ln in render_config(canonical).splitlines()]
    return "\n".join(lines) + "\n"


def _write_result(result, out_dir):
    tables_dir = out_dir / "tables"
    tables_dir.mkdir(parents=True, exist_ok=True)
    for name, text in result.tables.items():
        (tables_dir / name).write_text(text)
    (out_dir / "manifest.txt").write_text(result.manifest)


@dataclass(frozen=True)
class ReplayReport:
    """A replayed study, the numerics version its manifest recorded, and
    one status per table name: identical, differs, retired (recorded but
    no longer produced) or new (produced but not recorded)."""

    result: StudyResult
    recorded_numerics: int
    tables: dict

    @property
    def superseded(self):
        return self.recorded_numerics < NUMERICS[self.result.study]

    @property
    def mismatches(self):
        return [name for name, status in self.tables.items()
                if status != "identical"]


def replay(manifest_path, out_dir):
    """Re-run the manifest's config and compare every table, recorded or
    produced, with the recorded digests.  A manifest without a
    ``numerics:`` line has numerics 1."""
    text = Path(manifest_path).read_text()
    lines = text.splitlines()
    if not lines or lines[0] != "levelcurves-manifest v1":
        raise ValueError(f"{manifest_path} is not a levelcurves manifest")
    recorded = {}
    numerics = 1
    config_lines = []
    in_config = False
    for lineno, ln in enumerate(lines[1:], start=2):
        if in_config:
            if ln.startswith("|"):
                config_lines.append(ln[1:])
            continue
        if ln == "config:":
            in_config = True
        elif ln.startswith("table: "):
            name, sep, digest = ln[len("table: "):].rpartition(" sha256:")
            if not sep:
                raise ValueError(f"manifest line {lineno}: table line "
                                 f"without ' sha256:': {ln!r}")
            recorded[name] = digest
        elif ln.startswith("numerics: "):
            value = ln[len("numerics: "):]
            if not value.isdecimal() or int(value) < 1:
                raise ValueError(f"manifest line {lineno}: numerics must be "
                                 f"an integer >= 1: {ln!r}")
            numerics = int(value)
    if not config_lines:
        raise ValueError("manifest carries no config block")
    if not recorded:
        raise ValueError("manifest records no table, so replay could "
                         "verify nothing")
    cfg = parse_config("\n".join(config_lines))
    if numerics > NUMERICS[cfg.study]:
        raise ValueError(f"manifest numerics {numerics} is newer than "
                         f"{NUMERICS[cfg.study]}, this build's {cfg.study}")
    result = run_study(cfg, out_dir=out_dir)
    tables = {}
    for name in sorted(recorded.keys() | result.tables.keys()):
        if name not in result.tables:
            tables[name] = "retired"
        elif name not in recorded:
            tables[name] = "new"
        else:
            digest = hashlib.sha256(result.tables[name].encode()).hexdigest()
            tables[name] = "identical" if digest == recorded[name] \
                else "differs"
    return ReplayReport(result, numerics, tables)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--config", required=True, help="path to the study config")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--workers", type=int, help="worker processes")
    p.add_argument("--mesh-level", type=int, help="override mesh level")
    p.add_argument("--replicates", type=int, help="override replicate count")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="levelcurves",
        description="Level-curve statistics workbench for sphere-cross-time "
                    "Gaussian fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for study in STUDIES:
        p = sub.add_parser(study, help=f"run the {study} study")
        _add_common(p)
    p = sub.add_parser("replay", help="re-run a manifest and verify tables")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "replay":
            report = replay(args.manifest, args.out)
            if report.superseded:
                print(f"replay: superseded (numerics "
                      f"{report.recorded_numerics} \u2192 "
                      f"{NUMERICS[report.result.study]})")
                for name, status in report.tables.items():
                    print(f"replay {name}: {status}")
                return 3
            for name, status in report.tables.items():
                verdict = "ok" if status == "identical" else f"FAIL ({status})"
                print(f"replay {name}: {verdict}")
            if report.mismatches:
                print(f"replay: {len(report.mismatches)} table(s) differ")
                return 2
            print("replay: byte-identical")
            return 0

        # a flag named after a config key overrides it
        overrides = {key: val for key, val in vars(args).items()
                     if key in _KEYS and val is not None}
        cfg = parse_config(Path(args.config).read_text(),
                           study=args.command, **overrides)
        result = run_study(cfg, out_dir=args.out)
        for name, ok in sorted(result.checks.items()):
            print(f"check {name}: {'pass' if ok else 'FAIL'}")
        print(f"wrote {len(result.tables)} table(s) to {args.out}")
        return 0 if result.passed else 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
