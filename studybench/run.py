"""Study benchmark for levelcurves.

Usage (from the repository root):

    python3 studybench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client: one study at a time, each in a fresh Python
process running the public CLI study path with ``workers = 1``, until
``--seconds`` are used up (at least ``MIN_STUDIES`` studies).  The study
config is a pure function of the workload and ``--seed``.  Every study's
outputs are checked; a study that raises, exits 1 or mismatches counts as
failed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones: it alternates untraced and traced studies, so the
tracing overhead is the traced study time minus the untraced one.  The last
line of stdout is one JSON object with keys correct, attempted, failed and
metrics; the lines before it give every metric with its unit and sample
count, the study outputs and the run record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".studybench"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_STUDIES = 3
STUDY_TIMEOUT_S = 150
BLAS_THREADS = 1
# spans whose self time is orchestration, not layer work
ORCHESTRATION = ("mcstats.replicate_map", "cli.run_study")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "levelcurves").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# ----------------------------------------------------------------------
# One study
# ----------------------------------------------------------------------

def manifest_entries(text):
    """(table digests, check outcomes) recorded in a study manifest."""
    digests, checks = {}, {}
    for line in text.splitlines():
        if line.startswith("table: "):
            name, digest = line[len("table: "):].rsplit(" sha256:", 1)
            digests[name] = digest
        elif line.startswith("check: "):
            name, outcome = line[len("check: "):].rsplit(" ", 1)
            checks[name] = outcome == "pass"
    return digests, checks


def evaluate(workload, seed, out_dir, exit_code, reference):
    """Check one study's outputs.

    Returns a dict with ``problems`` (empty for a correct study), table
    ``digests``, study ``checks`` and key ``estimates``.  Tables are read
    back from ``out_dir`` and must match the digests in its manifest.
    """
    w = workloads.WORKLOADS[workload]
    out = {"problems": [], "digests": {}, "checks": {}, "estimates": {}}
    problems = out["problems"]
    try:
        manifest = (Path(out_dir) / "manifest.txt").read_text()
    except OSError as exc:
        problems.append(f"no manifest: {exc}")
        return out
    digests, checks = manifest_entries(manifest)
    out["checks"] = checks
    if exit_code not in (0, 2):
        problems.append(f"study exited {exit_code}")
    if (exit_code == 2) != (not all(checks.values())):
        problems.append(f"exit code {exit_code} disagrees with the checks")
    for name, ok in checks.items():
        if not ok and name not in w.allowed_failures:
            problems.append(f"check {name} failed")
    tables = {}
    for name, digest in digests.items():
        try:
            text = (Path(out_dir) / "tables" / name).read_text()
        except OSError as exc:
            problems.append(f"table {name} unreadable: {exc}")
            continue
        if hashlib.sha256(text.encode()).hexdigest() != digest:
            problems.append(f"table {name} differs from its manifest digest")
        tables[name] = text
    out["digests"] = digests
    if problems:
        return out
    try:
        estimates = workloads.key_estimates(workload, tables)
    except (KeyError, IndexError, ValueError) as exc:
        problems.append(f"tables lack a key estimate: {exc!r}")
        return out
    out["estimates"] = estimates
    expected = reference.get("estimates", {}).get(workload, {}) \
        .get(str(seed))
    if expected is not None:
        tol = reference["rel_tol"]
        for name, value in expected.items():
            got = estimates.get(name)
            if got is None or not math.isclose(got, value, rel_tol=tol):
                problems.append(f"estimate {name} = {got!r}, reference "
                                f"{value!r} (rel tol {tol})")
    problems += workloads.oracle_problems(workload, tables)
    return out


def run_one(workload, seed, trace, run_id, scratch, reference):
    """Run one study in a fresh process and check it; returns a record."""
    cfg_path = scratch / f"study-{run_id}.cfg"
    cfg_path.write_text(workloads.config_text(workload, seed))
    out_dir = scratch / f"out-{run_id}"
    result_path = scratch / f"result-{run_id}.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(cfg_path),
           str(out_dir), str(result_path), str(int(trace)), str(run_id)]
    rec = {"trace": trace, "problems": []}
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True,
                              text=True, timeout=STUDY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        rec["problems"].append(f"study exceeded {STUDY_TIMEOUT_S} s")
        return rec
    try:
        result = json.loads(result_path.read_text())
    except (OSError, ValueError) as exc:
        tail = proc.stderr.strip().splitlines()[-3:]
        rec["problems"].append(f"no study result ({exc}): {' | '.join(tail)}")
        return rec
    rec.update(result)
    if result.get("error"):
        rec["problems"].append(result["error"].strip().splitlines()[-1])
    outputs = evaluate(workload, seed, out_dir, result["exit_code"],
                       reference)
    rec["problems"] += outputs.pop("problems")
    rec.update(outputs)
    shutil.rmtree(out_dir, ignore_errors=True)
    return rec


# ----------------------------------------------------------------------
# Digests must agree across every run of one commit
# ----------------------------------------------------------------------

def check_digests(records, config):
    """Flag studies whose table digests differ from the first study of
    this run, or from an earlier run of the same source and config."""
    store_path = WORK / "digests.json"
    try:
        store = json.loads(store_path.read_text())
    except (OSError, ValueError):
        store = {}
    key = f"{src_digest()}:{hashlib.sha256(config.encode()).hexdigest()}"
    good = [r for r in records if not r["problems"]]
    first = store.get(key) or (good[0]["digests"] if good else None)
    for rec in good:
        if rec["digests"] != first:
            rec["problems"].append("table digests differ from an earlier "
                                   "study of the same source and config")
    if first is not None and key not in store:
        store[key] = first
        tmp = store_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
        os.replace(tmp, store_path)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def tail_percentile(values):
    """(label, value) of the highest percentile with at least ten samples
    beyond it, or None when the sample count supports none."""
    n = len(values)
    if n < 20:
        return None
    p = math.floor(100 * (1 - 10 / n))
    return f"p{p}", statistics.quantiles(values, n=100)[p - 1]


def end_to_end(workload, records):
    """End-to-end metrics of untraced studies: name -> (value, count)."""
    ok = [r for r in records if not r["problems"]]
    study = [r["study_s"] for r in ok]
    out = {}
    if study:
        med = statistics.median(study)
        out["study_s"] = (med, len(study))
        out["replicates_per_s"] = (
            workloads.WORKLOADS[workload].study_replicates / med, len(study))
        out["peak_rss_mb"] = (statistics.median(r["peak_rss_mb"]
                                                for r in ok), len(ok))
    setup = [r["setup_s"] for r in records if "setup_s" in r]
    if setup:
        out["setup_s"] = (statistics.median(setup), len(setup))
    failed = sum(1 for r in records if r["problems"])
    out["failed_fraction"] = (failed / len(records), len(records))
    return out


def layer_values(rec):
    """Per-layer metric values of one traced study."""
    summary = tracer.summarize(rec["spans"])
    values = {}
    for name, rec_s in summary.items():
        for field, v in rec_s.items():
            values[f"{name}.{field}"] = v
    counts = rec["counts"]
    values.update(counts)
    slices = counts["geometry.triangle_slices"]
    values["geometry.crossing_ratio"] = \
        counts["geometry.crossings"] / slices if slices else 0.0
    covered = sum(s["self_s"] for name, s in summary.items()
                  if name not in ORCHESTRATION)
    values["trace.coverage"] = covered / rec["traced_study_s"]
    values["trace.study_s"] = rec["study_s"]
    values["trace.spans"] = len(rec["spans"])
    return values, summary


def per_layer(records, names):
    """Median over traced studies of each named per-layer metric."""
    traced = [r for r in records if r["trace"] and not r["problems"]]
    plain = [r["study_s"] for r in records
             if not r["trace"] and not r["problems"]]
    rows = [layer_values(r) for r in traced]
    out = {}
    for name in names:
        vals = [v.get(name, 0) for v, _ in rows]
        if name == "trace.overhead_s":
            vals = [statistics.median(r["study_s"] for r in traced)
                    - statistics.median(plain)] if traced and plain else []
        if vals:
            out[name] = (statistics.median(vals), len(vals))
    return out, [s for _, s in rows]


def dominant_line(workload, summaries):
    """The function with the most self time in the first traced study."""
    if not summaries:
        return "dominant: no traced study"
    summary = summaries[0]
    total = sum(s["self_s"] for s in summary.values())
    name, top = max(summary.items(), key=lambda kv: kv[1]["self_s"])
    layers = {}
    for fn, s in summary.items():
        layers[fn.split(".")[0]] = layers.get(fn.split(".")[0], 0.0) \
            + s["self_s"]
    shares = ", ".join(f"{k} {v / total:.1%}" for k, v in
                       sorted(layers.items(), key=lambda kv: -kv[1]))
    want = workloads.WORKLOADS[workload].dominant
    verdict = "as predicted" if name == want else f"predicted {want}"
    return (f"dominant: {name} {top['self_s'] / total:.1%} of self time "
            f"({verdict}); layers: {shares}")


# ----------------------------------------------------------------------
# Run record
# ----------------------------------------------------------------------

def run_record(workload, seed, load_start):
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(len(p.read_text().splitlines())
                    for p in (SRC / "levelcurves").glob("*.py"))
    return {
        "workload": workload,
        "seed": seed,
        "study_seed": workloads.study_seed(seed),
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "commit": commit or "unknown (not a git checkout)",
        "src_sha256": src_digest(),
        "src_lines": src_lines,
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "levelcurves" / "cli.py").is_file():
        print(f"error: no levelcurves sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    load_start = os.getloadavg()

    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        # set-up is timed with the bytecode cache filled, as users run it
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        str(SRC / "levelcurves"), str(HERE)],
                       check=True, timeout=STUDY_TIMEOUT_S)
        records, cycles = [], []
        t0 = time.perf_counter()
        # start a study only while it is expected to end within the budget
        while (len(records) < MIN_STUDIES or time.perf_counter() - t0
               + statistics.median(cycles) <= args.seconds):
            trace = bool(args.trace and len(records) % 2 == 1)
            t1 = time.perf_counter()
            records.append(run_one(args.workload, args.seed, trace,
                                   len(records), scratch, reference))
            cycles.append(time.perf_counter() - t1)
        check_digests(records, workloads.config_text(args.workload,
                                                     args.seed))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines, result = report(args.workload, records, spec, args.trace)
    print("\n".join(lines))
    print("record: " + json.dumps(run_record(args.workload, args.seed,
                                             load_start)))
    print(json.dumps(result))
    return 0


def report(workload, records, spec, trace):
    """(human-readable lines, result object) of one benchmark run.

    Every metric of the run's group in ``spec`` is printed with its unit and
    sample count; end-to-end metrics come from the untraced studies only.
    """
    w = workloads.WORKLOADS[workload]
    lines = [f"workload {workload}: {w.why}"]
    for i, rec in enumerate(records):
        status = "ok" if not rec["problems"] else \
            "FAILED: " + "; ".join(rec["problems"])
        kind = "traced" if rec["trace"] else "untraced"
        lines.append(f"study {i} ({kind}): "
                     f"{rec.get('study_s', float('nan')):.3f} s {status}")
    checks = next((r["checks"] for r in records if r.get("checks")), {})
    if checks:
        lines.append("study checks: " + ", ".join(
            f"{k}={'pass' if v else 'FAIL'}"
            + (" (statistical, recorded)"
               if k in w.allowed_failures and not v else "")
            for k, v in sorted(checks.items())))

    plain = [r for r in records if not r["trace"]]
    e2e = end_to_end(workload, plain)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units["failed_fraction"] = "ratio"
    study = [r["study_s"] for r in plain if not r["problems"]]
    tail = tail_percentile(study)
    lines.append(
        f"study_s tail: {tail[0]} = {tail[1]:.4f} s" if tail else
        f"study_s tail: max = {max(study, default=float('nan')):.4f} s "
        f"(n = {len(study)} supports no percentile with ten samples "
        "beyond it)")
    lines += [f"metric {name} = {value:.6g} {units[name]} (n = {n})"
              for name, (value, n) in e2e.items()]
    metrics = e2e
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics, summaries = per_layer(records, list(units))
        lines += [f"metric {name} = {value:.6g} {units[name]} (n = {n})"
                  for name, (value, n) in metrics.items()]
        lines.append(dominant_line(workload, summaries))
    group = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in group if m["name"] not in metrics]
    if missing:
        lines.append(f"metrics not measured: {missing}")
    failed = sum(1 for r in records if r["problems"])
    return lines, {
        "correct": failed == 0 and not missing,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                "unit": m["unit"]}
                    for m in group if m["name"] in metrics},
    }


if __name__ == "__main__":
    sys.exit(main())
