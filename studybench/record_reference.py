"""Record the reference key estimates the benchmark checks studies against.

Usage (from the repository root):

    python3 studybench/record_reference.py --seeds 0-31 [--workload NAME ...]

Runs each workload's study once per benchmark seed, untraced, and writes
its key estimates to studybench/reference.json, keeping the entries of
workloads and seeds not re-recorded.  A study that fails a check other
than its workload's statistical ones is reported and not recorded.
Re-record only when a change is meant to alter study outputs by more than
the tolerance, and say so where the change is described.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads

REFERENCE = run.HERE / "reference.json"
REL_TOL = 1e-6


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", required=True, type=parse_seeds)
    p.add_argument("--workload", action="append",
                   choices=sorted(workloads.WORKLOADS))
    args = p.parse_args(argv)
    try:
        reference = json.loads(REFERENCE.read_text())
    except (OSError, ValueError):
        reference = {"estimates": {}}
    reference["rel_tol"] = REL_TOL
    run.WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="record-", dir=run.WORK))
    bad = 0
    try:
        for name in args.workload or workloads.WORKLOADS:
            table = reference["estimates"].setdefault(name, {})
            for seed in args.seeds:
                rec = run.run_one(name, seed, False, seed, scratch,
                                  {"estimates": {}})
                if rec["problems"]:
                    bad += 1
                    print(f"{name} seed {seed}: FAILED "
                          + "; ".join(rec["problems"]), flush=True)
                    continue
                table[str(seed)] = rec["estimates"]
                print(f"{name} seed {seed}: {rec['study_s']:.2f} s "
                      f"checks {rec['checks']}", flush=True)
                REFERENCE.write_text(json.dumps(reference, indent=1,
                                                sort_keys=True) + "\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
