"""Self-test of the benchmark's checks and traces, at a tiny size.

    python3 perfbench/selftest.py        # from the root of a checkout

For every workload: one round at the "tiny" size must pass its checks
(point-extension's fixed batches on the three solid sets excepted, which
fail through the nearest-sample tie fault); then each check must fail when
one value is deliberately corrupted, and the digest must change when a
round output is. One traced round must leave at zero every layer metric
the workload is not meant to touch.
"""

from __future__ import annotations

import copy
import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from worker import WORKLOADS, import_package  # noqa: E402

# layer-metric prefixes that must read zero on each workload
ZERO = {
    "equivalence-sweep": ("whitney.extend_points", "whitney.pou_at", "oscillation.grid_packing",
                          "oscillation.modulus"),
    "set-oracle": ("whitney.", "oscillation.grid_packing", "oscillation.modulus", "verify."),
    "grid-fields": ("sets.", "whitney.", "oscillation.packing", "oscillation.solve_packing",
                    "oscillation.sharp_field", "measures.", "verify."),
    "point-extension": ("sets.quasidistance", "sets.clearance", "sets.probes_per_query",
                        "sets.porosity", "sets.ball_condition", "oscillation.", "measures.",
                        "norms.", "verify."),
}
EXPECTED_FAILED = {
    "point-extension": {"fixed|solid-disk", "fixed|solid-square", "fixed|axis-line"},
}


def reasons(verdict) -> set:
    return {f"{k}: {r}" for k, rs in verdict.failed.items() for r in rs} | set(verdict.whole)


def main() -> int:
    import_package(Path.cwd())
    import tracing

    problems = []
    for name, module in WORKLOADS.items():
        wl = importlib.import_module(module)
        inputs = wl.setup(0, "tiny")
        rnd = wl.run_round(inputs)
        evidence = wl.collect(inputs, rnd)
        base = wl.check(inputs, rnd, evidence)
        want = EXPECTED_FAILED.get(name, set())
        ok = set(base.failed) == want and not base.whole
        print(f"{name}: {len(rnd.ops)} operations, failed {sorted(base.failed) or 'none'}"
              f" -> {'ok' if ok else 'UNEXPECTED'}")
        if not ok:
            problems.append(f"{name}: clean round gives {sorted(reasons(base))}")
        for keyword, mutate in wl.corruptions():
            bad_rnd, bad_ev = copy.deepcopy(rnd), copy.deepcopy(evidence)
            mutate(bad_rnd, bad_ev, inputs)
            new = sorted(reasons(wl.check(inputs, bad_rnd, bad_ev)) - reasons(base))
            hit = [r for r in new if keyword in r]
            moved = bad_rnd.digest() != rnd.digest()
            print(f"  corrupt -> {'caught' if hit else 'MISSED'}: {hit[0] if hit else keyword}"
                  f" [digest {'changed' if moved else 'same: evidence only'}]")
            if not hit:
                problems.append(f"{name}: corruption for '{keyword}' not caught ({new})")
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = wl.run_round(inputs)
        finally:
            tracer.uninstall()
        if traced.digest() != rnd.digest():
            problems.append(f"{name}: traced round changed the outputs")
        layers = tracing.layer_metrics(tracer.spans)
        nonzero = [k for k, v in layers.items() if v and k.startswith(ZERO[name])]
        busy = sum(1 for v in layers.values() if v)
        print(f"  traced: {len(tracer.spans)} spans, {busy} nonzero layer metrics, "
              f"should-be-zero nonzero: {nonzero or 'none'}")
        if nonzero:
            problems.append(f"{name}: layers {nonzero} should read zero")
    for p in problems:
        print("PROBLEM:", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
