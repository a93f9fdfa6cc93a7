"""Tests of the study benchmark itself (not of levelcurves).

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q studybench/tests
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

cli = pytest.importorskip("levelcurves.cli")

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY_SPECTRUM = """
[multipole]
ell = 0
c0 = 1.0
beta = 1.0
alpha = 2.2

[multipole]
ell = 1
c0 = 2.0
beta = 0.2
"""

TINY_STUDIES = {
    "berry": "study = berry-profile\nseed = 5\nreplicates = 6\ndt = 0.5\n"
             "horizon = 20\nu_grid = 0.0, 0.5, 1.0\n",
    "mean": "study = mean-length\nseed = 5\nreplicates = 4\nmesh_level = 2\n"
            "u_grid = 0.0, 0.5\n",
    "scaling": "study = variance-scaling\nseed = 5\nreplicates = 3\n"
               "mesh_level = 1\ndt = 1.0\nfunctional = length\n"
               "t_ladder = 4, 8, 16, 32\nlevel = 0.5\n",
}


def _run(text, out_dir=None):
    return cli.run_study(cli.parse_config(text + TINY_SPECTRUM),
                         out_dir=out_dir)


@pytest.mark.parametrize("study", sorted(TINY_STUDIES))
def test_tracer_is_transparent(study):
    plain = _run(TINY_STUDIES[study])
    t = tracer.Tracer(run_id=7).install()
    try:
        traced = _run(TINY_STUDIES[study])
    finally:
        t.uninstall()
    assert traced.tables == plain.tables
    assert traced.checks == plain.checks
    spans = t.spans()
    assert spans and all(s[4] == 7 for s in spans)
    assert all(s[1] <= s[2] for s in spans)
    assert all(-1 <= s[3] < i for i, s in enumerate(spans))


def test_tracer_reaches_every_binding_and_restores_them():
    from levelcurves import chaos, geometry, limits, synthesis

    before = (cli.isoline_lengths, limits.boundary_functional,
              chaos.sample_power_spectrum, synthesis.harmonic_columns)
    t = tracer.Tracer().install()
    try:
        assert cli.isoline_lengths is not before[0]
        assert cli.isoline_lengths is geometry.isoline_lengths
        assert limits.boundary_functional is geometry.boundary_functional
        _run(TINY_STUDIES["berry"])     # chaos import is function-local
        _run(TINY_STUDIES["mean"])      # cli binds isoline_lengths
    finally:
        t.uninstall()
    names = {s[0] for s in t.spans()}
    assert {"chaos.sample_power_spectrum", "geometry.isoline_lengths",
            "special.harmonic_columns", "mcstats.replicate_map",
            "cli.run_study"} <= names
    assert (cli.isoline_lengths, limits.boundary_functional,
            chaos.sample_power_spectrum, synthesis.harmonic_columns) == before
    assert t.counts["geometry.triangle_slices"] == 2 * 4 * 320
    assert 0 < t.counts["geometry.crossings"] \
        < t.counts["geometry.triangle_slices"]


def test_summarize_self_time_and_nesting():
    spans = [("a.f", 0.0, 10.0, -1, 0), ("b.g", 1.0, 4.0, 0, 0),
             ("a.f", 5.0, 7.0, 0, 0), ("b.g", 5.5, 6.0, 2, 0)]
    s = tracer.summarize(spans)
    assert s["a.f"] == {"calls": 2, "s": 10.0, "self_s": 5.0 + 1.5}
    assert s["b.g"] == {"calls": 2, "s": 3.5, "self_s": 3.5}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_config_is_a_pure_function_of_the_seed(name):
    a = workloads.config_text(name, 3)
    assert a == workloads.config_text(name, 3)
    b = workloads.config_text(name, 4)
    diff = [(x, y) for x, y in zip(a.splitlines(), b.splitlines()) if x != y]
    assert diff == [(f"seed = {workloads.study_seed(3)}",
                     f"seed = {workloads.study_seed(4)}")]
    cfg = cli.parse_config(a)
    assert cfg.seed == workloads.study_seed(3)
    assert cfg.workers == 1
    assert cfg.study == workloads.WORKLOADS[name].study


def test_per_layer_metrics_name_real_functions_or_counts():
    import importlib
    import inspect

    derived = {"geometry.crossing_ratio", "trace.study_s", "trace.overhead_s",
               "trace.coverage", "trace.spans"}
    for m in SPEC["per_layer"]:
        name = m["name"]
        if name in derived or name in tracer.COUNTS:
            continue
        layer, fn, field = name.split(".")
        assert layer in tracer.LAYERS and field in ("calls", "s", "self_s")
        mod = importlib.import_module(f"levelcurves.{layer}")
        assert fn in mod.__all__ and inspect.isfunction(getattr(mod, fn))
    for w in workloads.WORKLOADS.values():
        layer, fn = w.dominant.split(".")
        assert fn in importlib.import_module(f"levelcurves.{layer}").__all__


def _fake_records(trace):
    spans = [("cli.main", 0.0, 2.0, -1, 1),
             ("cli.run_study", 0.1, 1.9, 0, 1),
             ("geometry.isoline_lengths", 0.2, 1.8, 1, 1)]
    counts = dict.fromkeys(tracer.COUNTS, 1)
    records = []
    for i in range(4):
        rec = {"trace": bool(trace and i % 2), "problems": [],
               "study_s": 2.0 + i / 10, "setup_s": 0.5, "peak_rss_mb": 100.0,
               "checks": {"exponent_within_0.1": False}}
        if rec["trace"]:
            rec.update(spans=spans, counts=counts, traced_study_s=2.0)
        records.append(rec)
    return records


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_unit_and_count(trace):
    lines, result = run.report("scaling-length", _fake_records(trace), SPEC,
                               trace)
    group = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in group}
    for m in group:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(ln.startswith(f"metric {m['name']} = ")
                   and f" {m['unit']} (n = " in ln for ln in lines), m
    assert any(ln.startswith("metric failed_fraction = 0 ratio (n = ")
               for ln in lines)
    assert any("exponent_within_0.1=FAIL (statistical, recorded)" in ln
               for ln in lines)


def test_digests_must_agree_across_runs_of_one_source_and_config(
        tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)

    def records(digest):
        return [{"problems": [], "digests": {"t.csv": digest}}]

    first = records("a")
    run.check_digests(first, "config one")
    assert first[0]["problems"] == []
    later = records("b")
    run.check_digests(later, "config one")
    assert later[0]["problems"]
    other = records("b")
    run.check_digests(other, "config two")
    assert other[0]["problems"] == []
    mixed = records("c") + records("d")
    run.check_digests(mixed, "config three")
    assert not mixed[0]["problems"] and mixed[1]["problems"]


def test_corrupted_table_counts_as_failed_run(tmp_path):
    text = workloads.config_text("mean-mesh6", 0).replace(
        "mesh_level = 6", "mesh_level = 2").replace(
        "replicates = 150", "replicates = 20")
    cfg_path = tmp_path / "study.cfg"
    cfg_path.write_text(text)
    out = tmp_path / "out"
    code = cli.main(["mean-length", "--config", str(cfg_path),
                     "--out", str(out)])
    no_reference = {"rel_tol": 1e-6, "estimates": {}}
    ok = run.evaluate("mean-mesh6", 0, out, code, no_reference)
    assert ok["problems"] == []
    assert set(ok["estimates"]) == {"mean_u=0", "mean_u=0.5", "mean_u=1",
                                    "mean_u=1.5"}

    wrong = {"rel_tol": 1e-6, "estimates": {"mean-mesh6": {"0": dict(
        ok["estimates"], **{"mean_u=0": ok["estimates"]["mean_u=0"] * 1.01})}}}
    assert run.evaluate("mean-mesh6", 0, out, code, wrong)["problems"]

    table = out / "tables" / "mean_length.csv"
    table.write_text(table.read_text().replace("0.5,", "0.25,", 1))
    bad = run.evaluate("mean-mesh6", 0, out, code, no_reference)
    assert any("mean_length.csv" in p for p in bad["problems"])
    records = [{"trace": False, "problems": [], "study_s": 1.0,
                "setup_s": 0.1, "peak_rss_mb": 1.0},
               {"trace": False, "problems": bad["problems"],
                "setup_s": 0.1}]
    assert run.end_to_end("mean-mesh6", records)["failed_fraction"] \
        == (0.5, 2)
    _, result = run.report("mean-mesh6", records, SPEC, 0)
    assert result["failed"] == 1 and not result["correct"]
