"""One workload process: set up, run one round, check, report one JSON line.

Started by run.py with the checkout's `src` first on sys.path, BLAS pinned
to one thread and, with --cpu, the process pinned to one CPU.
BENCH_SPAWN_T is the launcher's monotonic clock when it started this
process, so setup_s counts interpreter start and imports.

Roles:
  measure  one measured round; with --check its outputs are checked
           afterwards (untimed)
  setup    set up and exit (one more set-up sample)
With --trace, set-up and the measured round run with spans on. Two rounds
with the wrappers removed come first: a warm-up, then the untraced
reference for the tracing overhead.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time
from pathlib import Path

SPAWN_T = float(os.environ.get("BENCH_SPAWN_T", time.monotonic()))

WORKLOADS = {
    "equivalence-sweep": "wl_sweep",
    "set-oracle": "wl_oracle",
    "grid-fields": "wl_grid",
    "point-extension": "wl_points",
}


def import_package(root: Path):
    """Import sobtrace from root/src and refuse any other copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import sobtrace

    if Path(sobtrace.__file__).resolve().parent != src / "sobtrace":
        raise SystemExit(f"sobtrace imported from {sobtrace.__file__}, not from {src}")
    for mod in ("util", "cubes", "sets", "grid", "whitney", "oscillation",
                "measures", "norms", "canonical", "verify"):
        importlib.import_module("sobtrace." + mod)


def timed_round(wl, inputs):
    w0, c0 = time.perf_counter(), time.process_time()
    rnd = wl.run_round(inputs)
    return rnd, time.perf_counter() - w0, time.process_time() - c0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--role", choices=("measure", "setup"), default="measure")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--spans", default="")
    ap.add_argument("--cpu", type=int, default=-1)
    args = ap.parse_args()
    if args.cpu >= 0:
        os.sched_setaffinity(0, {args.cpu})

    import_package(Path.cwd())
    import numpy
    import scipy
    import tracing

    wl = importlib.import_module(WORKLOADS[args.workload])
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    inputs = wl.setup(args.seed)
    report = {"setup_s": time.monotonic() - SPAWN_T, "rounds": [], "versions": {
        "python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}}
    if tracer:
        report["setup_layers"] = tracing.layer_metrics(tracer.spans)
    if args.role == "setup":
        print(json.dumps(report))
        return

    def record(rnd, wall, cpu, kind):
        report["rounds"].append({
            "kind": kind, "wall": wall, "cpu": cpu, "digest": rnd.digest(),
            "ops": len(rnd.ops), "raised": sorted(k for k, v in rnd.ops.items() if v["error"])})

    if tracer:
        tracer.uninstall()
        record(*timed_round(wl, inputs), "warm-up")
        record(*timed_round(wl, inputs), "untraced")
        tracer.install()
        lo = len(tracer.spans)
    rnd, wall, cpu = timed_round(wl, inputs)
    record(rnd, wall, cpu, "measured")
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
        report["layers"] = tracing.layer_metrics(tracer.spans, lo)
        report["repeated_share"] = tracing.inclusive_share(
            tracer.spans, set(wl.REPEATED), lo, len(tracer.spans), wall)
        if args.spans:
            tracer.dump(args.spans)
    if args.check:
        verdict = wl.check(inputs, rnd, wl.collect(inputs, rnd))
        report["failed"] = verdict.failed
        report["whole"] = verdict.whole
    print(json.dumps(report))


if __name__ == "__main__":
    main()
