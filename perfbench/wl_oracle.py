"""set-oracle: porosity and quasidistance estimators plus raw oracle queries.

Part one computes the T24, T72 and T715 intrinsic estimates on two thin
sets over smooth test functions; every porosity test is repeated for every
function. Part two is a seeded batch of quasidistance queries between
samples of the solid disk, each with a clearance query on the box the
pair spans. No Whitney code runs.
"""

from __future__ import annotations

import numpy as np
from sobtrace import canonical, grid, measures, norms, sets

import reference as ref
from harness import Round, Verdict, finite_positive, fresh_measure, fresh_set, h_label

P = 3.0
ESTIMATOR_SETS = ("segment-1d-in-2d", "example-726")
THEOREMS = ("T24", "T72", "T715")
SMOOTH = (0, 5)
DISK = "solid-disk"
ALPHA = 1 / 15
SCAN_RATIO = 1.35  # C11's coarse ladder for solid sets

SIZES = {
    "full": {"h": 1 / 64, "disk_h": 1 / 128, "queries": 200},
    "tiny": {"h": 1 / 32, "disk_h": 1 / 32, "queries": 20},
}

REPEATED = ("sets.porosity",)


def setup(seed: int, size: str = "full") -> dict:
    cfg = SIZES[size]
    rng = np.random.default_rng(seed)
    scale = {i: float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)) for i in SMOOTH}
    data = {}
    for name in ESTIMATOR_SETS:
        S, mu = canonical.generate_canonical(canonical.CanonicalSpec(name, cfg["h"]))
        fam = canonical.test_function_family("restrictions-of-smooth", S)
        data[name] = {"S": S, "mu": mu,
                      "smooth": [(f"smooth-{i}", scale[i] * fam[i].values, fam[i].source,
                                  abs(scale[i])) for i in SMOOTH]}
    D, _ = canonical.generate_canonical(canonical.CanonicalSpec(DISK, cfg["disk_h"]))
    pairs = rng.integers(0, len(D.points), size=(cfg["queries"], 2))
    pad = rng.uniform(0.0, 0.1, size=cfg["queries"])
    return {"size": cfg, "data": data, "disk": D, "pairs": pairs, "pad": pad}


def _estimate(S, mu, vals, cfg) -> dict:
    return {"intrinsic": norms.trace_estimate(S, vals, cfg, mu=mu).value}


def _query(D, x, y, pad) -> dict:
    rho, cube = D.quasidistance(x, y, alpha=ALPHA, return_witness=True, ratio=SCAN_RATIO)
    lo, hi = np.minimum(x, y) - pad, np.maximum(x, y) + pad
    clearance, point = D.max_clearance_in(lo, hi)
    center = np.full(D.dim, np.nan) if cube is None else np.array(cube.center)
    radius = np.nan if cube is None else cube.radius
    return {"rho": rho, "center": center, "radius": radius,
            "clearance": clearance, "point": point}


def run_round(inputs: dict) -> Round:
    rnd = Round()
    for name in ESTIMATOR_SETS:
        d = inputs["data"][name]
        S, mu = fresh_set(sets, d["S"]), fresh_measure(measures, d["mu"])
        for th in THEOREMS:
            cfg = norms.TraceEstimateConfig(theorem=th, p=P, eps=None if th == "T24" else 0.25)
            for fname, vals, _, _ in d["smooth"]:
                rnd.run(f"{th}|{name}|{fname}", _estimate, S, mu, vals, cfg)
    D = fresh_set(sets, inputs["disk"])
    for k, (i, j) in enumerate(inputs["pairs"]):
        rnd.run(f"quasidistance|{k}", _query, D, D.points[i], D.points[j], inputs["pad"][k])
    return rnd


def collect(inputs: dict, rnd: Round) -> dict:
    """Norm of each test function's smooth source on the set's grid, the
    known side the intrinsic estimates are compared with."""
    known = {}
    for name in ESTIMATOR_SETS:
        d = inputs["data"][name]
        S = d["S"]
        for fname, _, source, factor in d["smooth"]:
            F = grid.GridField.from_function(S.bbox, S.h, source)
            known[(name, fname)] = factor * norms.grid_sobolev_norms(F, P).total
    return {"known": known}


def check(inputs: dict, rnd: Round, evidence: dict) -> Verdict:
    v = Verdict(rnd.ops)
    D = inputs["disk"]
    ratios = {}
    for op_id, rec in rnd.ops.items():
        if rec["error"] is not None:
            continue
        out = rec["out"]
        kind, rest = op_id.split("|", 1)
        if kind != "quasidistance":
            _, name, fname = op_id.split("|")
            v.op(op_id, finite_positive(out["intrinsic"]), "estimate not finite and positive")
            ratios.setdefault((kind, name), []).append(
                out["intrinsic"] / evidence["known"][(name, fname)])
            continue
        i, j = inputs["pairs"][int(rest)]
        x, y = D.points[i], D.points[j]
        sep = float(np.max(np.abs(x - y)))
        v.op(op_id, out["rho"] >= sep, f"rho {out['rho']} < |x-y| {sep}")  # C11
        if np.isfinite(out["rho"]):
            c, r = out["center"], out["radius"]
            holds = max(np.max(np.abs(x - c)), np.max(np.abs(y - c))) <= r * (1 + 1e-12)
            v.op(op_id, holds, "witness cube does not hold x and y")
            gap = ref.min_distance(D.points, c)[0] - D.sample_radius
            v.op(op_id, gap > ALPHA * r, f"witness core meets a sample (gap {gap:.3g})")
        pad = inputs["pad"][int(rest)]
        lo, hi = np.minimum(x, y) - pad, np.maximum(x, y) + pad
        pt = out["point"]
        v.op(op_id, bool(np.all(pt >= lo - 1e-12) and np.all(pt <= hi + 1e-12)),
             "clearance point outside its box")
        dist = np.maximum(0.0, ref.min_distance(D.points, np.stack([pt, lo, hi])) - D.sample_radius)
        v.op(op_id, abs(out["clearance"] - dist[0]) <= 1e-12,
             f"clearance {out['clearance']!r} != distance at its point {dist[0]!r}")
        v.op(op_id, out["clearance"] >= max(dist[1], dist[2]) - 1e-12,
             "clearance below the distance at a box corner")
    for (th, name), rs in sorted(ratios.items()):
        if len(rs) > 1:
            v.prop(ref.spread(rs) <= 100.0,
                   f"{th} {name} {h_label(inputs['size']['h'])}: spread {ref.spread(rs):.3g} > 100")
    return v


def corruptions() -> list:
    """(keyword, mutate) pairs for the self-test, as in wl_sweep."""

    def first(rnd, kind):
        return next(k for k in rnd.ops if k.startswith(kind + "|"))

    def rho_low(rnd, ev, inputs):
        rnd.ops[first(rnd, "quasidistance")]["out"]["rho"] = 0.0

    def witness_away(rnd, ev, inputs):
        out = rnd.ops[first(rnd, "quasidistance")]["out"]
        out["center"] = out["center"] + 3 * out["radius"]

    def witness_on_set(rnd, ev, inputs):
        op_id = first(rnd, "quasidistance")
        i, j = inputs["pairs"][int(op_id.split("|")[1])]
        x, y = inputs["disk"].points[i], inputs["disk"].points[j]
        out = rnd.ops[op_id]["out"]
        out["center"] = x  # a sample: the cube still holds x and y
        out["radius"] = max(out["radius"], float(np.max(np.abs(x - y))))

    def clearance_off(rnd, ev, inputs):
        rnd.ops[first(rnd, "quasidistance")]["out"]["clearance"] += 1e-9

    def clearance_point_out(rnd, ev, inputs):
        out = rnd.ops[first(rnd, "quasidistance")]["out"]
        out["point"] = out["point"] + 10.0

    def estimate_spread(rnd, ev, inputs):
        rnd.ops[first(rnd, "T72")]["out"]["intrinsic"] *= 1e3

    def not_finite(rnd, ev, inputs):
        rnd.ops[first(rnd, "T24")]["out"]["intrinsic"] = float("inf")

    return [
        ("< |x-y|", rho_low),
        ("does not hold x and y", witness_away),
        ("core meets a sample", witness_on_set),
        ("!= distance at its point", clearance_off),
        ("outside its box", clearance_point_out),
        ("spread", estimate_spread),
        ("not finite and positive", not_finite),
    ]
