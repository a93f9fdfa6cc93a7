import hashlib
import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import levelcurves
from levelcurves.cli import (
    NUMERICS,
    RunConfig,
    StudyResult,
    build_parser,
    main,
    parse_config,
    render_config,
    replay,
    run_study,
)

SPEC_BLOCK = """
[multipole]
ell = 0
c0 = 1.0
beta = 1.0
alpha = 2.0

[multipole]
ell = 2
c0 = 0.8
beta = 0.4
"""

MEAN_CFG = """
study = mean-length
seed = 7
replicates = 60
mesh_level = 3
level = 0.5
""" + SPEC_BLOCK

LONG_SPEC_BLOCK = """
[multipole]
ell = 0
c0 = 1.0
beta = 1.0
alpha = 2.2
[multipole]
ell = 1
c0 = 1.5
beta = 0.2
"""

BERRY_CFG = """
study = berry-profile
seed = 11
replicates = 120
dt = 0.5
horizon = 60
u_grid = 0.0, 0.4, 0.8
[multipole]
ell = 0
c0 = 1.0
beta = 1.0
alpha = 2.2
[multipole]
ell = 1
c0 = 1.5
beta = 0.2
"""


# ----------------------------------------------------------------------
# Config parsing
# ----------------------------------------------------------------------

def test_parse_and_round_trip():
    cfg = parse_config(MEAN_CFG)
    assert cfg.study == "mean-length"
    assert cfg.seed == 7
    assert cfg.spectrum.ells == (0, 2)
    assert parse_config(render_config(cfg)) == cfg


_BOOL_SPELLINGS = {True: ("true", "yes", "1", "True", "YES"),
                   False: ("false", "no", "0", "FALSE", "No")}
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _spelled(flag):
    return st.sampled_from(_BOOL_SPELLINGS[flag])


def _number_list(numbers, min_size):
    return st.lists(numbers, min_size=min_size, max_size=6).map(
        lambda xs: ", ".join(map(repr, xs)))


# a valid value, as config text, for every top-level key but normalize
_KEY_TEXT = st.fixed_dictionaries({
    "study": st.sampled_from(sorted(NUMERICS)),
    "seed": st.integers(0, 2**64),
    "replicates": st.integers(2, 10**6),
    "dt": _POSITIVE.map(repr),
    "mesh_level": st.integers(0, 8),
    "workers": st.integers(1, 64),
    "horizon": _POSITIVE.map(repr),
    "level": _FINITE.map(repr),
    "functional": st.sampled_from(("chaos2", "chaos1", "length")),
    "q_max": st.integers(2, 12),
    "ks_alpha": st.floats(0.0, 1.0, exclude_min=True,
                          exclude_max=True).map(repr),
    "reference_size": st.integers(1, 10**6),
    "rosenblatt_n_inner": st.integers(16, 2**20),
    "dump_lengths": st.booleans().flatmap(_spelled),
    "t_ladder": _number_list(_POSITIVE, 4),
    "u_grid": _number_list(_FINITE, 1),
})
CANONICAL_ORDER = ["study", "seed", "replicates", "dt", "mesh_level",
                   "workers", "horizon", "level", "functional", "q_max",
                   "ks_alpha", "reference_size", "rosenblatt_n_inner",
                   "dump_lengths", "t_ladder", "u_grid", "normalize"]
# SPEC_BLOCK rescaled to unit variance, for configs with normalize = false
_NORMALIZED_BLOCK = "[multipole]" + render_config(
    parse_config("study = mean-length\nlevel = 0\n" + SPEC_BLOCK)
).split("[multipole]", 1)[1]


@given(keys=_KEY_TEXT, normalize=st.booleans(), data=st.data())
def test_every_key_round_trips_through_the_canonical_render(keys, normalize,
                                                            data):
    keys["normalize"] = data.draw(_spelled(normalize))
    lines = [f"{key} = {val}" for key, val in
             data.draw(st.permutations(sorted(keys.items())))]
    cfg = parse_config("\n".join(lines) + "\n"
                       + (SPEC_BLOCK if normalize else _NORMALIZED_BLOCK))
    assert cfg.dump_lengths is (keys["dump_lengths"]
                                in _BOOL_SPELLINGS[True])
    canonical = render_config(cfg)
    assert [ln.split(" = ")[0] for ln in canonical.splitlines()[:17]] \
        == CANONICAL_ORDER
    assert parse_config(canonical) == cfg
    assert render_config(parse_config(canonical)) == canonical


def _studybench_workloads():
    name = "studybench_workloads"
    if name not in sys.modules:
        path = Path(__file__).parents[1] / "studybench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


# sha256 of the canonical render of each benchmark workload config at seed
# 0, recorded before the key table drove the render: every config hash
# stamped on a table or manifest depends on these bytes.
RENDER_SHA256 = {
    "audit-mesh5":
        "fa1723b4e9456983c817eee3196a76172cea23728d4c7496346abc0a7cd7307c",
    "berry-paths":
        "265143031a440e1ce43294692a7359f4e47c11bd067282c8de4eb0a8376fb6b5",
    "limit-long":
        "806eb6c9eac5a1103c1f0712e1fb6a1423ed299906a0edd28669edf526d97e83",
    "mean-mesh6":
        "3777d5df1218b2ddb7876b580a2b659043f419a31b0ce7bd8f9af058160714da",
    "scaling-length":
        "a121683b7a9012c64b3d695c81a2e7d9759794f4ecedd04e37a58901c60f404b",
    "mean-mesh6+dump_lengths":
        "30301b9c1b30c5c056cd5c7a3f3a92b9f4bb9ad5d135d98c7869ca8c67857dbc",
}


@pytest.mark.parametrize("case", sorted(RENDER_SHA256))
def test_canonical_render_of_the_benchmark_configs_is_pinned(case):
    name, _, dump = case.partition("+")
    text = _studybench_workloads().config_text(name, 0)
    if dump:
        text += f"{dump} = true\n"
    render = render_config(parse_config(text))
    assert hashlib.sha256(render.encode()).hexdigest() == RENDER_SHA256[case]


def test_parse_errors_name_key_and_line():
    with pytest.raises(ValueError, match=r"beta.*\(0, 1\]"):
        parse_config("study = mean-length\nlevel = 0\n[multipole]\n"
                     "ell = 0\nc0 = 1\nbeta = 1.5\nalpha = 2\n")
    with pytest.raises(ValueError, match="line 2.*'frobnicate'"):
        parse_config("study = mean-length\nfrobnicate = 3\n")
    with pytest.raises(ValueError, match="'replicates' expects int"):
        parse_config("study = mean-length\nreplicates = soon\n" + SPEC_BLOCK)
    with pytest.raises(ValueError, match="missing the 'study'"):
        parse_config(SPEC_BLOCK)
    with pytest.raises(ValueError, match="no \\[multipole\\]"):
        parse_config("study = mean-length\nlevel = 0.5\n")
    with pytest.raises(ValueError, match="requires key 'horizon'"):
        parse_config("study = limit-law\nlevel = 0.0\n" + SPEC_BLOCK)
    with pytest.raises(ValueError, match="t_ladder"):
        parse_config("study = variance-scaling\nlevel = 0.0\n" + SPEC_BLOCK)


def test_multipole_errors_name_their_config_lines():
    # the blocks used to be parsed as a separate text, so these errors
    # counted lines from the first [multipole], not from the config
    head = ("study = mean-length\nseed = 7\nreplicates = 60\n"
            "level = 0.5\n"                                    # lines 1-4
            "[multipole]\nell = 0\nc0 = 1.0\nbeta = 1.0\nalpha = 2.0\n")
    with pytest.raises(ValueError,
                       match=r"line 12: value for 'c0' is not numeric"):
        parse_config(head + "[multipole]\nell = 2\nc0 = abc\nbeta = 0.4\n")
    with pytest.raises(ValueError,
                       match=r"block at line 11 is missing \['beta'\]"):
        parse_config(head + "\n[multipole]\nell = 2\nc0 = 0.8\n")


@pytest.mark.parametrize("study, keys", [("mean-length", ""),
                                         ("berry-profile", "horizon = 10\n")],
                         ids=["mean-length", "berry-profile"])
def test_empty_u_grid_is_rejected_before_sampling(study, keys, tmp_path,
                                                  capsys):
    # mean-length used to write a header-only table and exit 0;
    # berry-profile died in np.argmin after sampling every replicate
    text = (f"study = {study}\n{keys}replicates = 4\nmesh_level = 1\n"
            "u_grid =\n" + SPEC_BLOCK)
    with pytest.raises(ValueError, match="key 'u_grid'"):
        parse_config(text)
    cfg_path = tmp_path / "empty.cfg"
    cfg_path.write_text(text)
    out = tmp_path / "out"
    assert main([study, "--config", str(cfg_path), "--out", str(out)]) == 1
    assert "key 'u_grid'" in capsys.readouterr().err
    assert not out.exists()


def test_validation_bounds():
    with pytest.raises(ValueError, match="mesh_level"):
        parse_config("study = mean-length\nlevel = 0\nmesh_level = 9\n"
                     + SPEC_BLOCK)
    with pytest.raises(ValueError, match="ks_alpha"):
        parse_config("study = mean-length\nlevel = 0\nks_alpha = 2\n"
                     + SPEC_BLOCK)
    # a negative seed used to fail in numpy's SeedSequence, naming no key
    with pytest.raises(ValueError, match="key 'seed' must be >= 0"):
        parse_config("study = mean-length\nlevel = 0\nseed = -1\n"
                     + SPEC_BLOCK)


@pytest.mark.parametrize("line, message", [
    # chaos-audit's duality check reads the order-2 projection: q_max = 1
    # used to sample every replicate, then fail with "error: 2"
    ("q_max = 1", r"key 'q_max' must lie in \[2, 12\]"),
    ("t_ladder = 25, 50, 100", "key 't_ladder' must hold at least 4"),
])
def test_keys_of_one_study_are_checked_for_every_study(line, message):
    with pytest.raises(ValueError, match=message):
        parse_config("study = chaos-audit\nlevel = 0.0\nhorizon = 50\n"
                     + line + "\n" + LONG_SPEC_BLOCK)


@pytest.mark.parametrize("key, bad, good", [
    ("reference_size", 0, 1),
    ("reference_size", -5, 1),
    ("rosenblatt_n_inner", 15, 16),
    ("rosenblatt_n_inner", 0, 16),
])
def test_limit_law_sizes_are_validated_at_parse_time(key, bad, good):
    head = "study = limit-law\nlevel = 0.0\nhorizon = 50\n"
    with pytest.raises(ValueError, match=f"key '{key}' must be >= {good}"):
        parse_config(head + f"{key} = {bad}\n" + LONG_SPEC_BLOCK)
    cfg = parse_config(head + f"{key} = {good}\n" + LONG_SPEC_BLOCK)
    assert getattr(cfg, key) == good


SCALING_HEAD = "study = variance-scaling\nlevel = 0.0\nfunctional = length\n"


@pytest.mark.parametrize("rung", ["0", "-25", "nan", "inf"])
def test_t_ladder_rungs_must_be_positive_and_finite(rung):
    # a rung of 0 used to run the whole ladder, then die in log10
    with pytest.raises(ValueError, match="key 't_ladder'"):
        parse_config(SCALING_HEAD + f"t_ladder = 25, 50, {rung}, 100\n"
                     + SPEC_BLOCK)
    parse_config(SCALING_HEAD + "t_ladder = 25, 50, 75, 100\n" + SPEC_BLOCK)


@pytest.mark.parametrize("level", ["nan", "inf", "-inf"])
def test_level_must_be_finite(level):
    # level = nan used to run and write NaN tables
    with pytest.raises(ValueError, match="key 'level' must be finite"):
        parse_config(f"study = mean-length\nlevel = {level}\n" + SPEC_BLOCK)


@pytest.mark.parametrize("bad", ["inf", "nan"])
def test_u_grid_levels_must_be_finite(bad):
    # an infinite level used to write a NaN z row
    with pytest.raises(ValueError, match="key 'u_grid'"):
        parse_config(f"study = mean-length\nu_grid = 0.0, {bad}\n"
                     + SPEC_BLOCK)


@pytest.mark.parametrize("dt", ["nan", "inf", "0", "-1"])
def test_dt_must_be_positive_and_finite(dt):
    # dt = nan used to die inside TimeGrid.for_horizon
    with pytest.raises(ValueError,
                       match="key 'dt' must be positive and finite"):
        parse_config("study = limit-law\nlevel = 0.0\nhorizon = 50\n"
                     f"dt = {dt}\n" + LONG_SPEC_BLOCK)


@pytest.mark.parametrize("horizon", ["nan", "inf", "0"])
def test_horizon_must_be_positive_and_finite(horizon):
    with pytest.raises(ValueError,
                       match="key 'horizon' must be positive and finite"):
        parse_config(f"study = limit-law\nlevel = 0.0\nhorizon = {horizon}\n"
                     + LONG_SPEC_BLOCK)


def test_monopole_only_spectrum_is_rejected_before_sampling(tmp_path, capsys):
    # sigma1^2 = 0: the second-chaos weight used to divide by zero after
    # every replicate had been sampled
    text = ("study = berry-profile\nreplicates = 4\nhorizon = 10\n"
            "u_grid = 0.0, 0.5\n[multipole]\nell = 0\nc0 = 1.0\n"
            "beta = 0.5\n")
    with pytest.raises(ValueError, match="key 'ell'.*ell >= 1"):
        parse_config(text)
    cfg_path = tmp_path / "mono.cfg"
    cfg_path.write_text(text)
    out = tmp_path / "out"
    assert main(["berry-profile", "--config", str(cfg_path),
                 "--out", str(out)]) == 1
    assert "key 'ell'" in capsys.readouterr().err
    assert not out.exists()


# ----------------------------------------------------------------------
# Studies through run_study
# ----------------------------------------------------------------------

def test_mean_length_study_and_manifest(tmp_path):
    cfg = parse_config(MEAN_CFG)
    res = run_study(cfg, out_dir=tmp_path)
    assert res.passed
    table = (tmp_path / "tables" / "mean_length.csv").read_text()
    lines = table.splitlines()
    assert lines[0].startswith("# levelcurves")
    assert "config sha256:" in lines[0]
    assert lines[1] == "u,replicates,empirical_mean,se,kac_rice,z_score"
    manifest = (tmp_path / "manifest.txt").read_text()
    assert manifest.splitlines()[0] == "levelcurves-manifest v1"
    assert "table: mean_length.csv sha256:" in manifest
    digest = hashlib.sha256(table.encode()).hexdigest()
    assert digest in manifest


def test_study_reruns_are_byte_identical(tmp_path):
    cfg = parse_config(BERRY_CFG)
    r1 = run_study(cfg)
    r2 = run_study(cfg)
    assert r1.tables == r2.tables


TINY_LADDER = ("study = variance-scaling\nseed = 3\nreplicates = 6\n"
               "mesh_level = 1\ndt = 1.0\nlevel = 0.5\n"
               "t_ladder = 4, 8, 16, 32\nfunctional = ")


WORKER_CFGS = {
    "berry-profile": BERRY_CFG,
    "mean-length": "study = mean-length\nseed = 3\nreplicates = 6\n"
                   "mesh_level = 2\nu_grid = 0.0, 0.5\n" + SPEC_BLOCK,
    **{f"variance-scaling {f}": TINY_LADDER + f + "\n" + LONG_SPEC_BLOCK
       for f in ("chaos1", "chaos2", "length")},
    "limit-law": "study = limit-law\nseed = 3\nreplicates = 6\n"
                 "mesh_level = 1\ndt = 1.0\nhorizon = 20\nlevel = 0.5\n"
                 "reference_size = 20\nrosenblatt_n_inner = 64\n"
                 + LONG_SPEC_BLOCK,
    "chaos-audit": "study = chaos-audit\nseed = 3\nreplicates = 4\n"
                   "mesh_level = 1\ndt = 0.5\nhorizon = 5\nlevel = 0.5\n"
                   "q_max = 3\n" + LONG_SPEC_BLOCK,
}


def test_mean_length_dump_names_each_rows_level():
    cfg = parse_config(WORKER_CFGS["mean-length"].replace(
        "replicates = 6", "replicates = 3") + "dump_lengths = true\n")
    res = run_study(cfg)
    lines = res.tables["lengths.csv"].splitlines()
    assert lines[1] == "replicate,u,length"
    rows = [ln.split(",") for ln in lines[2:]]
    assert [(r, u) for r, u, _ in rows] \
        == [(str(r), u) for r in range(3) for u in ("0", "0.5")]
    means = [ln.split(",") for ln in
             res.tables["mean_length.csv"].splitlines()[2:]]
    for u, _, mean, *_ in means:
        lengths = [float(x) for _, v, x in rows if v == u]
        assert np.mean(lengths) == pytest.approx(float(mean), rel=1e-13)


def test_workers_do_not_change_bytes():
    # workers > 1 pickles each study's replicate kernel into the pool
    for name, text in WORKER_CFGS.items():
        cfg = parse_config(text)
        serial = run_study(cfg)
        parallel = run_study(replace(cfg, workers=2))
        assert serial.tables == parallel.tables, name


def test_replay_round_trip(tmp_path):
    cfg = parse_config(BERRY_CFG)
    run_study(cfg, out_dir=tmp_path / "orig")
    report = replay(tmp_path / "orig" / "manifest.txt", tmp_path / "redo")
    assert report.mismatches == [] and not report.superseded
    orig = (tmp_path / "orig" / "tables" / "berry_profile.csv").read_bytes()
    redo = (tmp_path / "redo" / "tables" / "berry_profile.csv").read_bytes()
    assert orig == redo


def test_replay_detects_tampering(tmp_path):
    cfg = parse_config(MEAN_CFG)
    run_study(cfg, out_dir=tmp_path)
    manifest_path = tmp_path / "manifest.txt"
    text = manifest_path.read_text().replace(
        "mean_length.csv sha256:", "mean_length.csv sha256:0")
    manifest_path.write_text(text)
    report = replay(manifest_path, tmp_path / "redo")
    assert report.mismatches == ["mean_length.csv"]
    with pytest.raises(ValueError):
        replay(tmp_path / "tables" / "mean_length.csv", tmp_path / "x")


def test_berry_study_writes_its_figure_table(tmp_path):
    run_study(parse_config(BERRY_CFG), out_dir=tmp_path)
    tables = tmp_path / "tables"
    assert sorted(p.name for p in tables.glob("fig_*.csv")) == ["fig_berry.csv"]
    text = (tables / "fig_berry.csv").read_text()
    assert "# predicted_cancellation" in text
    assert text.splitlines()[2] == "u,variance,long_constant"


def test_scaling_study_emits_fit(tmp_path):
    cfg_text = """
study = variance-scaling
seed = 3
replicates = 600
dt = 0.5
functional = chaos1
level = 1.0
t_ladder = 250, 500, 1000, 2000
[multipole]
ell = 0
c0 = 1.0
beta = 0.4
[multipole]
ell = 2
c0 = 0.4
beta = 0.9
"""
    cfg = parse_config(cfg_text)
    res = run_study(cfg, out_dir=tmp_path)
    # fig_scaling.csv, which restated these two tables, is retired
    assert sorted(res.tables) == ["scaling.csv", "scaling_fit.csv"]
    fit = res.tables["scaling_fit.csv"].splitlines()
    assert fit[1] == "fitted_exponent,exponent_se,expected_exponent"
    assert res.checks.get("exponent_within_0.1") is True


# ----------------------------------------------------------------------
# Entry point + exit codes
# ----------------------------------------------------------------------

def test_main_success_and_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(MEAN_CFG)
    code = main(["mean-length", "--config", str(cfg_path), "--out",
                 str(tmp_path / "out"), "--replicates", "40"])
    out = capsys.readouterr().out
    assert code == 0
    assert "check kac_rice_z_u=0.5: pass" in out

    # invalid config -> exit 1
    bad = tmp_path / "bad.txt"
    bad.write_text("study = mean-length\nlevel = 0.5\n")
    assert main(["mean-length", "--config", str(bad),
                 "--out", str(tmp_path / "o2")]) == 1

    # a level-0 icosahedron cannot resolve the level curves: the Kac-Rice
    # z-check fails decisively -> exit 2
    coarse = tmp_path / "coarse.txt"
    coarse.write_text(MEAN_CFG.replace("mesh_level = 3", "mesh_level = 0")
                      .replace("replicates = 60", "replicates = 1200"))
    assert main(["mean-length", "--config", str(coarse),
                 "--out", str(tmp_path / "o3")]) == 2


def test_main_replay(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(MEAN_CFG)
    assert main(["mean-length", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 0
    assert main(["replay", "--manifest", str(tmp_path / "out" / "manifest.txt"),
                 "--out", str(tmp_path / "redo")]) == 0
    out = capsys.readouterr().out
    assert "replay: byte-identical" in out


def test_main_applies_study_and_overrides_before_validating(tmp_path,
                                                           capsys):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(MEAN_CFG)
    assert main(["mean-length", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out"), "--seed", "9",
                 "--mesh-level", "2", "--replicates", "5",
                 "--workers", "1"]) in (0, 2)
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    for line in ("|seed = 9", "|mesh_level = 2", "|replicates = 5"):
        assert line in manifest.splitlines()
    # a mean-length config lacks what berry-profile needs
    assert main(["berry-profile", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o2")]) == 1
    assert "requires key 'horizon'" in capsys.readouterr().err
    assert main(["mean-length", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o3"), "--replicates", "1"]) == 1
    assert "key 'replicates' must be >= 2" in capsys.readouterr().err
    assert not (tmp_path / "o2").exists() and not (tmp_path / "o3").exists()


def test_main_validates_a_config_only_under_the_subcommands_study(tmp_path):
    # the file's own study used to be validated first, so a berry-profile
    # config without a horizon could not run the mean-length study
    text = BERRY_CFG.replace("horizon = 60\n", "")
    with pytest.raises(ValueError, match="requires key 'horizon'"):
        parse_config(text)
    assert parse_config(text, study="mean-length").study == "mean-length"
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(text)
    assert main(["mean-length", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out"), "--mesh-level", "3"]) == 0
    manifest = (tmp_path / "out" / "manifest.txt").read_text().splitlines()
    assert "|study = mean-length" in manifest
    assert "|u_grid = 0, 0.40000000000000002, 0.80000000000000004" in manifest


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


# ----------------------------------------------------------------------
# Public surface and cold start
# ----------------------------------------------------------------------

def test_every_exported_name_is_defined_in_its_module():
    # a stale __all__ entry would otherwise drop out of the benchmark's
    # tracer silently
    for info in pkgutil.iter_modules(levelcurves.__path__):
        mod = importlib.import_module(f"levelcurves.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.{name}"
            obj = getattr(mod, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert obj.__module__ == mod.__name__, f"{mod.__name__}.{name}"
            else:   # the regime labels of spectrum
                assert isinstance(obj, str), f"{mod.__name__}.{name}"


_SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def _run_fresh(code, cwd):
    src = str(Path(levelcurves.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


def test_import_and_mean_length_study_load_no_scipy(tmp_path):
    assert _run_fresh(f"import sys, levelcurves.cli; print({_SCIPY_MODULES})",
                      tmp_path) == "[]"
    (tmp_path / "mean.cfg").write_text(MEAN_CFG.replace(
        "replicates = 60", "replicates = 4"))
    code = ("import sys\n"
            "from levelcurves.cli import main\n"
            "assert main(['mean-length', '--config', 'mean.cfg', "
            "'--out', 'out']) in (0, 2)\n"
            f"print({_SCIPY_MODULES})")
    assert _run_fresh(code, tmp_path) == "[]"
    assert (tmp_path / "out" / "manifest.txt").exists()


def test_limit_law_study_loads_no_scipy(tmp_path):
    """A long-memory limit-law study runs both KS tests without scipy."""
    (tmp_path / "limit.cfg").write_text(
        "study = limit-law\nseed = 5\nreplicates = 6\nmesh_level = 2\n"
        "dt = 1.0\nhorizon = 50\nlevel = 0.0\nreference_size = 50\n"
        "rosenblatt_n_inner = 256\n" + LONG_SPEC_BLOCK)
    code = ("import sys\n"
            "from levelcurves.cli import main\n"
            "assert main(['limit-law', '--config', 'limit.cfg', "
            "'--out', 'out']) in (0, 2)\n"
            f"print({_SCIPY_MODULES})")
    assert _run_fresh(code, tmp_path) == "[]"
    summary = (tmp_path / "out" / "tables" / "limit_summary.csv").read_text()
    assert "long-memory" in summary


def test_chaos_audit_study_loads_no_numpy_polynomial(tmp_path):
    """The cubature's Gauss-Legendre nodes come from numpy.linalg, so a
    chaos-audit study pays no lazy numpy.polynomial import."""
    (tmp_path / "audit.cfg").write_text(WORKER_CFGS["chaos-audit"])
    code = ("import sys\n"
            "from levelcurves.cli import main\n"
            "assert main(['chaos-audit', '--config', 'audit.cfg', "
            "'--out', 'out']) in (0, 2)\n"
            "print(sorted(m for m in sys.modules "
            "if m.startswith('numpy.polynomial')))")
    assert _run_fresh(code, tmp_path) == "[]"


# ----------------------------------------------------------------------
# Replay verdicts and numerics versions
# ----------------------------------------------------------------------

# Manifests of small configs of every study, written before the manifest
# carried a numerics line (every study at numerics 1; chaos-audit then
# projected on the mesh, and mean-length's lengths.csv had no level column).
NUMERICS1 = Path(__file__).parent / "data" / "numerics1"


@pytest.mark.parametrize("study", ["berry-profile", "limit-law"])
def test_numerics1_manifests_of_unchanged_studies_replay_identical(
        tmp_path, capsys, study):
    assert NUMERICS[study] == 1
    manifest = NUMERICS1 / f"{study}.txt"
    assert main(["replay", "--manifest", str(manifest),
                 "--out", str(tmp_path / "redo")]) == 0
    out = capsys.readouterr().out
    assert "replay: byte-identical" in out
    assert "numerics: 1" in (tmp_path / "redo" / "manifest.txt").read_text()


def test_numerics1_chaos_audit_manifest_is_superseded(tmp_path, capsys):
    manifest = NUMERICS1 / "chaos-audit.txt"
    report = replay(manifest, tmp_path / "redo")
    assert report.recorded_numerics == 1 and report.superseded
    assert set(report.tables) == {"duality.csv", "per_q_variance.csv",
                                  "projections.csv"}
    assert main(["replay", "--manifest", str(manifest),
                 "--out", str(tmp_path / "redo2")]) == 3
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "replay: superseded (numerics 1 → 2)"
    for name, status in report.tables.items():
        assert f"replay {name}: {status}" in out
    assert "replay: byte-identical" not in out
    # a manifest of the current numerics replays exactly
    redo = tmp_path / "redo" / "manifest.txt"
    assert "numerics: 2" in redo.read_text()
    assert main(["replay", "--manifest", str(redo),
                 "--out", str(tmp_path / "redo3")]) == 0


def test_numerics1_variance_scaling_manifest_is_superseded(tmp_path,
                                                            capsys):
    # numerics 2 retired fig_scaling.csv; the other two tables are unchanged
    manifest = NUMERICS1 / "variance-scaling.txt"
    report = replay(manifest, tmp_path / "redo")
    assert report.recorded_numerics == 1 and report.superseded
    assert report.tables == {"fig_scaling.csv": "retired",
                             "scaling.csv": "identical",
                             "scaling_fit.csv": "identical"}
    assert main(["replay", "--manifest", str(manifest),
                 "--out", str(tmp_path / "redo2")]) == 3
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "replay: superseded (numerics 1 → 2)"
    assert not (tmp_path / "redo2" / "tables" / "fig_scaling.csv").exists()


def test_numerics1_mean_length_manifest_is_superseded(tmp_path, capsys):
    # numerics 2 changed only lengths.csv, which this manifest did not ask for
    manifest = NUMERICS1 / "mean-length.txt"
    report = replay(manifest, tmp_path / "redo")
    assert report.recorded_numerics == 1 and report.superseded
    assert report.tables == {"mean_length.csv": "identical"}
    assert main(["replay", "--manifest", str(manifest),
                 "--out", str(tmp_path / "redo2")]) == 3
    out = capsys.readouterr().out.splitlines()
    assert out == ["replay: superseded (numerics 1 → 2)",
                   "replay mean_length.csv: identical"]


def _manifest(tmp_path, cfg_text):
    run_study(parse_config(cfg_text), out_dir=tmp_path / "orig")
    return tmp_path / "orig" / "manifest.txt"


def _edit(path, keep=lambda ln: True, extra=()):
    lines = [ln for ln in path.read_text().splitlines() if keep(ln)]
    config = lines.index("config:")
    path.write_text("\n".join(lines[:config] + list(extra)
                              + lines[config:]) + "\n")


def test_replay_of_a_manifest_without_tables_is_an_error(tmp_path, capsys):
    path = _manifest(tmp_path, WORKER_CFGS["chaos-audit"])
    _edit(path, keep=lambda ln: not ln.startswith("table: "))
    with pytest.raises(ValueError, match="records no table"):
        replay(path, tmp_path / "redo")
    assert main(["replay", "--manifest", str(path),
                 "--out", str(tmp_path / "redo")]) == 1
    assert "byte-identical" not in capsys.readouterr().out


def test_replay_names_unrecorded_and_missing_tables(tmp_path, capsys):
    path = _manifest(tmp_path, WORKER_CFGS["chaos-audit"])
    _edit(path, keep=lambda ln: not ln.startswith("table: duality.csv"),
          extra=["table: gone.csv sha256:" + "0" * 64])
    report = replay(path, tmp_path / "redo")
    assert not report.superseded
    assert report.tables == {"duality.csv": "new", "gone.csv": "retired",
                             "per_q_variance.csv": "identical",
                             "projections.csv": "identical"}
    assert main(["replay", "--manifest", str(path),
                 "--out", str(tmp_path / "redo2")]) == 2
    out = capsys.readouterr().out.splitlines()
    assert "replay duality.csv: FAIL (new)" in out
    assert "replay gone.csv: FAIL (retired)" in out
    assert "replay projections.csv: ok" in out
    assert "replay: 2 table(s) differ" in out


def test_replay_of_a_tampered_table_at_current_numerics_exits_2(tmp_path,
                                                                capsys):
    path = _manifest(tmp_path, WORKER_CFGS["chaos-audit"])
    text = path.read_text()
    assert "numerics: 2" in text
    path.write_text(text.replace("projections.csv sha256:",
                                 "projections.csv sha256:0"))
    assert main(["replay", "--manifest", str(path),
                 "--out", str(tmp_path / "redo")]) == 2
    assert "replay projections.csv: FAIL (differs)" \
        in capsys.readouterr().out


def test_replay_rejects_a_newer_numerics_version(tmp_path):
    path = _manifest(tmp_path, MEAN_CFG.replace("replicates = 60",
                                                "replicates = 4"))
    now = NUMERICS["mean-length"]
    path.write_text(path.read_text().replace(f"numerics: {now}",
                                             f"numerics: {now + 1}"))
    with pytest.raises(ValueError, match=f"numerics {now + 1} is newer"):
        replay(path, tmp_path / "redo")


def test_replay_rejects_a_numerics_below_one(tmp_path, capsys):
    path = _manifest(tmp_path, WORKER_CFGS["chaos-audit"])
    path.write_text(path.read_text().replace("numerics: 2", "numerics: 0"))
    with pytest.raises(ValueError, match="manifest line 4: numerics must be"):
        replay(path, tmp_path / "redo")
    assert main(["replay", "--manifest", str(path),
                 "--out", str(tmp_path / "redo")]) == 1
    assert "manifest line 4" in capsys.readouterr().err


def test_replay_rejects_a_table_line_without_digest(tmp_path, capsys):
    path = _manifest(tmp_path, WORKER_CFGS["chaos-audit"])
    _edit(path, extra=["table: projections.csv"])
    lineno = path.read_text().splitlines().index("table: projections.csv") + 1
    with pytest.raises(ValueError, match=f"manifest line {lineno}: table "
                                         "line without ' sha256:'"):
        replay(path, tmp_path / "redo")
    assert main(["replay", "--manifest", str(path),
                 "--out", str(tmp_path / "redo")]) == 1
    assert f"manifest line {lineno}" in capsys.readouterr().err
