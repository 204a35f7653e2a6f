"""equivalence-sweep: intrinsic trace estimates against their comparison
norms on thin sets under grid refinement.

One operation is one row: the intrinsic estimate plus its comparison norm,
for one test function at one resolution. The Whitney decomposition is built
once per set and level inside the round and shared by the rows of that
level, so the grid route (decomposition, pou_matrix, extend_grid,
projection) is paid once per level, as in a sweep.
"""

from __future__ import annotations

import numpy as np
from sobtrace import canonical, measures, norms, sets, verify, whitney

import reference as ref
from harness import Round, Verdict, finite_positive, fresh_measure, fresh_set, h_label

P = 3.0
SEGMENT, CANTOR = "segment-1d-in-2d", "cantor-1d"
# smooth-family members used on every level; their product with a seeded
# nonzero factor is the test function (both sides scale by |factor|)
SMOOTH = (0, 5)
LACUNARY = 2  # the hoelder member that sits on the smoothness line

SIZES = {
    "full": {
        "grid": {SEGMENT: (1 / 128, 1 / 256), CANTOR: (1 / 512, 1 / 1024)},
        "t12": (1 / 64, 1 / 128),
        "betas": (0.55, 0.85),
        "besov": (1 / 64, 1 / 128, 1 / 256),
    },
    "tiny": {
        # cantor's ratios beat log-periodically against dyadic h; these two
        # levels are in phase, as in C07 (and cheap on a 1-d set)
        "grid": {SEGMENT: (1 / 32, 1 / 64), CANTOR: (1 / 512, 1 / 1024)},
        "t12": (1 / 32, 1 / 64),
        "betas": (0.55, 0.85),
        "besov": (1 / 32, 1 / 64, 1 / 128),
    },
}

# function-independent work repeated for every test function (README)
REPEATED = ("sets.ball_condition",)


def setup(seed: int, size: str = "full") -> dict:
    cfg = SIZES[size]
    rng = np.random.default_rng(seed)
    scale = {i: float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)) for i in SMOOTH}
    beta_scale = {b: float(rng.uniform(0.5, 2.0)) for b in cfg["betas"]}
    levels = {(name, h) for name, hs in cfg["grid"].items() for h in hs}
    levels |= {(SEGMENT, h) for h in cfg["t12"] + cfg["besov"]}
    data = {}
    for name, h in sorted(levels):
        S, mu = canonical.generate_canonical(canonical.CanonicalSpec(name, h))
        smooth = canonical.test_function_family("restrictions-of-smooth", S)
        fns = [(f"smooth-{i}", scale[i] * smooth[i].values) for i in SMOOTH]
        rough = {}
        if name == SEGMENT and h in cfg["besov"]:
            for b in cfg["betas"]:
                fam = canonical.test_function_family(f"hoelder({b})", S)
                rough[b] = beta_scale[b] * fam[LACUNARY].values
        data[(name, h)] = {"S": S, "mu": mu, "smooth": fns, "rough": rough}
    return {"size": cfg, "data": data}


def _row(S, mu, W, vals, cfg, homogeneous: bool) -> dict:
    intrinsic = norms.trace_estimate(S, vals, cfg, mu=mu, W=W).value
    F = verify.extension_field(W, vals, cfg)
    sob = norms.grid_sobolev_norms(F, cfg.p)
    return {"intrinsic": intrinsic, "comparison": sob.seminorm if homogeneous else sob.total}


def _besov_row(S, mu, vals, cfg) -> dict:
    intrinsic = norms.trace_estimate(S, vals, cfg, mu=mu).value
    comp = measures.dset_besov_norm(mu, vals, s=1 - 1 / cfg.p, p=cfg.p, d=1.0)
    return {"intrinsic": intrinsic, "comparison": comp}


def run_round(inputs: dict) -> Round:
    cfg, data = inputs["size"], inputs["data"]
    rnd = Round()
    for name, hs in cfg["grid"].items():
        for h in hs:
            d = data[(name, h)]
            S, mu = fresh_set(sets, d["S"]), fresh_measure(measures, d["mu"])
            W = whitney.whitney_decomposition(S)
            for th in ("T11", "T14i"):
                tcfg = norms.TraceEstimateConfig(theorem=th, p=P)
                for fname, vals in d["smooth"]:
                    rnd.run(f"{th}|{name}|{h_label(h)}|{fname}", _row, S, mu, W, vals, tcfg, True)
    for h in cfg["t12"]:
        d = data[(SEGMENT, h)]
        S, mu = fresh_set(sets, d["S"]), fresh_measure(measures, d["mu"])
        W = whitney.whitney_decomposition(S)
        tcfg = norms.TraceEstimateConfig(theorem="T12", p=P, eps=0.25)
        for fname, vals in d["smooth"]:
            rnd.run(f"T12|{SEGMENT}|{h_label(h)}|{fname}", _row, S, mu, W, vals, tcfg, False)
    for h in cfg["besov"]:
        d = data[(SEGMENT, h)]
        S, mu = fresh_set(sets, d["S"]), fresh_measure(measures, d["mu"])
        tcfg = norms.TraceEstimateConfig(theorem="T723", p=P, eps=0.25)
        for beta, vals in d["rough"].items():
            rnd.run(f"T723|{SEGMENT}|{h_label(h)}|hoelder{beta}", _besov_row, S, mu, vals, tcfg)
    return rnd


def _parse(op_id: str):
    th, name, hl, fname = op_id.split("|")
    return th, name, 1.0 / float(hl.split("/")[1]), fname


def collect(inputs: dict, rnd: Round) -> dict:
    """Program outputs the checks need beyond the rows: the mixed-size
    packing behind every T11 row, with the problem it was solved on."""
    evidence = {}
    captured = []
    original = norms.solve_packing

    def capture(problem, mode="greedy"):
        result = original(problem, mode=mode)
        captured.append((problem, result))
        return result

    norms.solve_packing = capture
    try:
        for op_id in rnd.ops:
            th, name, h, fname = _parse(op_id)
            if th != "T11":
                continue
            d = inputs["data"][(name, h)]
            vals = dict(d["smooth"])[fname]
            captured.clear()
            value, info = norms.lambda_packing(d["S"], vals, P, 11.0, details=True)
            problem, result = captured[0]
            evidence[op_id] = {
                "value": value,
                "power_sum": result.value,
                "scores": problem.scores[result.chosen],
                "centers": problem.centers[result.chosen],
                "radii": problem.radii[result.chosen],
                "n_candidates": info["candidates"],
            }
    finally:
        norms.solve_packing = original
    return evidence


def check(inputs: dict, rnd: Round, evidence: dict) -> Verdict:
    v = Verdict(rnd.ops)
    rows = {}
    for op_id, rec in rnd.ops.items():
        if rec["error"] is not None:
            continue
        out = rec["out"]
        v.op(op_id, finite_positive(out["intrinsic"], out["comparison"]),
             "a side is not finite and positive")
        th, name, h, fname = _parse(op_id)
        rows.setdefault((th, name), {}).setdefault(fname, {})[h] = (
            out["intrinsic"], out["comparison"])
        if th == "T11":
            ev = evidence[op_id]
            v.op(op_id, ref.pairwise_disjoint(ev["centers"], ev["radii"]),
                 "lambda_packing admitted overlapping cubes")
            v.op(op_id, ref.rel_err(np.sum(ev["scores"]), ev["power_sum"]) <= 1e-12,
                 "admitted scores do not sum to the packing value")
            v.op(op_id, ev["value"] == out["intrinsic"],
                 "T11 estimate differs from its lambda_packing value")
        if th == "T723":
            d = inputs["data"][(name, h)]
            want = ref.dset_besov_norm(d["mu"].points, d["mu"].weights,
                                       d["rough"][float(fname[len("hoelder"):])],
                                       s=1 - 1 / P, p=P, d=1.0)
            v.op(op_id, ref.rel_err(out["comparison"], want) <= 1e-9,
                 f"dset_besov_norm {out['comparison']!r} != reference {want!r}")
    for (th, name), by_fn in sorted(rows.items()):
        levels = sorted({h for per in by_fn.values() for h in per}, reverse=True)
        limit = 50.0 if th == "T723" else 100.0
        for h in levels:
            ratios = [per[h][0] / per[h][1] for per in by_fn.values() if h in per]
            if len(ratios) > 1:
                v.prop(ref.spread(ratios) <= limit,
                       f"{th} {name} {h_label(h)}: ratio spread {ref.spread(ratios):.3g} > {limit}")
        for fname, per in sorted(by_fn.items()):
            hs = [h for h in levels if h in per]
            if th in ("T11", "T14i"):  # C07/C08 refinement stability
                r = [per[h][0] / per[h][1] for h in hs]
                for a, b in zip(r, r[1:]):
                    v.prop(abs(b / a - 1) <= 0.30,
                           f"{th} {name} {fname}: refinement delta {abs(b / a - 1):.3f} > 0.30")
            if th == "T723" and len(hs) >= 2:  # C09 divergence flags
                beta = float(fname[len("hoelder"):])
                flags = [ref.loglog_slope(hs, [per[h][k] for h in hs]) > 0.13 for k in (0, 1)]
                v.prop(flags[0] == flags[1], f"T723 {fname}: divergence flags disagree {flags}")
                v.prop(flags[0] == (beta < 1 - 1 / P),
                       f"T723 {fname}: lacunary member diverges={flags[0]}, want {beta < 1 - 1 / P}")
    return v


def corruptions() -> list:
    """(keyword, mutate) pairs for the self-test: mutate(round, evidence,
    inputs) corrupts one value, and a failure whose reason contains the
    keyword must appear."""

    def first(rnd, th):
        return next(k for k in rnd.ops if k.startswith(th + "|"))

    def scale_intrinsic(rnd, ev, inputs):
        rnd.ops[first(rnd, "T11")]["out"]["intrinsic"] *= 1e3

    def refine_jump(rnd, ev, inputs):
        last = [k for k in rnd.ops if k.startswith("T14i|")][-1]
        rnd.ops[last]["out"]["comparison"] *= 2.0

    def overlap(rnd, ev, inputs):
        e = ev[first(rnd, "T11")]
        e["centers"] = e["centers"].copy()
        e["centers"][-1] = e["centers"][0]

    def packing_sum(rnd, ev, inputs):
        ev[first(rnd, "T11")]["power_sum"] *= 1 + 1e-9

    def lambda_value(rnd, ev, inputs):
        ev[first(rnd, "T11")]["value"] *= 1 + 1e-15

    def besov_value(rnd, ev, inputs):
        rnd.ops[first(rnd, "T723")]["out"]["comparison"] *= 1 + 1e-6

    def divergence(rnd, ev, inputs):
        for k in [k for k in rnd.ops if k.startswith("T723|") and k.endswith("0.85")]:
            h = _parse(k)[2]
            rnd.ops[k]["out"]["intrinsic"] *= (1 / h) ** 0.5

    def not_finite(rnd, ev, inputs):
        rnd.ops[first(rnd, "T12")]["out"]["comparison"] = float("nan")

    return [
        ("ratio spread", scale_intrinsic),
        ("refinement delta", refine_jump),
        ("overlapping cubes", overlap),
        ("sum to the packing value", packing_sum),
        ("differs from its lambda_packing value", lambda_value),
        ("dset_besov_norm", besov_value),
        ("divergence flags disagree", divergence),
        ("not finite and positive", not_finite),
    ]
