"""One study run in a fresh process.

Usage: python3 child.py CONFIG OUT_DIR RESULT_JSON TRACE RUN_ID

Times the set-up a fresh study process pays (importing levelcurves,
parsing the config, and, when the config names a mesh level, building the
icosphere and harmonic basis of that mesh), then runs the study through
``levelcurves.cli.main``, with the tracer installed when TRACE is 1.  Writes timings, exit code, peak RSS and
any spans to RESULT_JSON.  The CLI's own output goes to stdout.
"""

import json
import resource
import sys
import time
import traceback


def main(argv):
    config_path, out_dir, result_path, trace, run_id = argv
    t0 = time.perf_counter()
    from levelcurves import cli
    from levelcurves.synthesis import HarmonicBasis, build_icosphere

    with open(config_path) as fh:
        text = fh.read()
    cfg = cli.parse_config(text)
    if "mesh_level" in text:
        HarmonicBasis(build_icosphere(cfg.mesh_level), cfg.spectrum.ells)
    setup_s = time.perf_counter() - t0

    tracer = None
    if trace == "1":
        from tracer import Tracer
        tracer = Tracer(run_id=int(run_id)).install()
    result = {"setup_s": setup_s, "error": None}
    t1 = time.perf_counter()
    c1 = tracer.now() if tracer else 0.0
    try:
        result["exit_code"] = cli.main([cfg.study, "--config", config_path,
                                        "--out", out_dir])
    except Exception:  # noqa: BLE001 - reported to the parent
        result["exit_code"] = 1
        result["error"] = traceback.format_exc()
    result["study_s"] = time.perf_counter() - t1
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["traced_study_s"] = tracer.now() - c1
        result["spans"] = tracer.spans()
        result["counts"] = tracer.counts
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
