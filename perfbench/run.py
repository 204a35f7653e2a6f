"""Benchmark of the sobtrace trace-norm pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: equivalence-sweep, set-oracle, grid-fields, point-extension (see
perfbench/README.md). A run starts single-threaded worker processes that
import sobtrace from ./src, set up their inputs from the seed and run one
round of the workload's operations each:

  measure  in batches of one process per CPU (two CPUs at most), each
           pinned to its CPU and started together; batches continue while
           the next one should end within S seconds, and there are at
           least two processes. The first process checks its outputs.
           Each runs with its own PYTHONHASHSEED, and every round's digest
           of its output bits is compared with another process's round.
  setup    (untraced runs only) set-up-only processes, added so that
           setup_s is a median of at least seven set-up times.

run_s and cpu_s are medians over the measured rounds. The CPUs of a shared
host change speed for seconds to minutes at a time, independently of each
other; rounds on two CPUs at once sample both.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. Spans of traced runs are written to
.bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("equivalence-sweep", "set-oracle", "grid-fields", "point-extension")
END_TO_END = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
TIME_LIMIT_S = 170.0
SETUP_SAMPLES = 7


class RunError(Exception):
    pass


def start(root: Path, argv: list, hashseed: int):
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = str(hashseed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["BENCH_SPAWN_T"] = repr(time.monotonic())
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")] + argv,
                            cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    return proc, argv


def finish(started, deadline: float) -> dict:
    proc, argv = started
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError(f"worker {argv} ran past the time limit")
    if proc.returncode != 0:
        raise RunError(f"worker {argv} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RunError(f"worker {argv} printed no report")
    return json.loads(lines[-1])


def run_batch(root: Path, argvs: list, cpus: list, first_seed: int, deadline: float) -> list:
    """Run one worker per CPU side by side, each pinned; wait for all."""
    started = [start(root, argv + ["--cpu", str(cpu)], first_seed + k)
               for k, (argv, cpu) in enumerate(zip(argvs, cpus))]
    reports = []
    try:
        for item in started:
            reports.append(finish(item, deadline))
    finally:
        for proc, _ in started:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return reports


def account(procs: list) -> tuple:
    """Attempted and failed operations over the measured rounds.

    A round attempts its operations plus one digest comparison with another
    process's round (the first process is compared with the second, every
    other with the first); an operation fails if it raised or if the first
    process's checks failed it (the digests show the rounds computed the
    same bits)."""
    check_failed = set(procs[0]["failed"])
    attempted = failed = 0
    for k, proc in enumerate(procs):
        rnd = measured(proc)
        attempted += rnd["ops"] + 1
        failed += len(check_failed | set(rnd["raised"]))
        failed += rnd["digest"] != measured(procs[1 if k == 0 else 0])["digest"]
    return attempted, failed


def measured(proc: dict) -> dict:
    return next(r for r in proc["rounds"] if r["kind"] == "measured")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "sobtrace" / "__init__.py").is_file():
        print(f"no sobtrace sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    out_dir = root / ".bench_out"
    if args.trace:
        out_dir.mkdir(exist_ok=True)
    cpus = sorted(os.sched_getaffinity(0))[:2]
    procs = []
    t0 = time.monotonic()
    try:
        while True:
            argvs = []
            for k in range(len(procs), len(procs) + len(cpus)):
                argv = base + (["--check"] if k == 0 else [])
                if args.trace:
                    argv += ["--trace", "1", "--spans",
                             str(out_dir / f"spans-{args.workload}-{k}.jsonl")]
                argvs.append(argv)
            procs += run_batch(root, argvs, cpus, 1 + len(procs), deadline)
            spent = time.monotonic() - t0
            batches = len(procs) // len(cpus)
            if len(procs) >= 2 and spent * (1 + 1 / batches) > args.seconds:
                break
        setups = []
        while not args.trace and len(procs) + len(setups) < SETUP_SAMPLES:
            setups += run_batch(root, [base + ["--role", "setup"]] * len(cpus), cpus,
                                100 + len(setups), deadline)
    except RunError as exc:
        print(str(exc), file=sys.stderr)
        return 1

    a = procs[0]
    attempted, failed = account(procs)
    rounds = [measured(p) for p in procs]
    print(f"workload {args.workload} seed {args.seed}: nproc {len(os.sched_getaffinity(0))}, "
          f"{len(procs)} rounds on CPUs {cpus}, BLAS threads 1, "
          + ", ".join(f"{k} {v}" for k, v in a["versions"].items()))
    for op_id, reasons in sorted(a["failed"].items()):
        print(f"failed operation {op_id}: {'; '.join(reasons)}")
    for reason in a["whole"]:
        print(f"failed property: {reason}")
    digests = {r["digest"] for r in rounds}
    print(f"digest {sorted(digests)[0][:16]} ({len(digests)} distinct over {len(rounds)} processes)")

    if args.trace:
        import tracing

        metrics = {}
        for name, unit in tracing.METRICS.items():
            key = "setup_layers" if name == "canonical.generate.self_s" else "layers"
            value = statistics.median(p[key][name] for p in procs)
            metrics[name] = {"value": value, "unit": unit}
            tag = " (computed)" if name in tracing.COMPUTED else ""
            print(f"  {name:42s} {value:14.6g} {unit}{tag}")
        untraced = statistics.median(
            r["wall"] for p in procs for r in p["rounds"] if r["kind"] == "untraced")
        traced = statistics.median(r["wall"] for r in rounds)
        print(f"tracing overhead: {traced - untraced:+.3f} s per round "
              f"({(traced / untraced - 1) * 100:+.1f}% of {untraced:.3f} s untraced)")
        share = statistics.median(p["repeated_share"] for p in procs)
        print(f"function-independent repeated work: {share:.1%} of a traced round")
    else:
        values = {
            "setup_s": statistics.median(p["setup_s"] for p in procs + setups),
            "run_s": statistics.median(r["wall"] for r in rounds),
            "cpu_s": statistics.median(r["cpu"] for r in rounds),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in procs),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    result = {"correct": not a["whole"], "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
