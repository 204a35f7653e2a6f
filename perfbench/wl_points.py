"""point-extension: the Whitney extension evaluated at arbitrary points, on
all seven catalog sets, in the style of C03.

One operation is one (set, coefficient vector) batch. Per set there are
two seeded N(0,1) coefficient vectors and their seeded linear combination,
each evaluated with extend_points at every sample, at seeded on-set points
near samples, at seeded off-set probes and at a seeded subset of off-set
grid nodes. A fourth batch per set is fixed (it does not depend on the
seed): the linear field's samples evaluated at every on-set grid node and
compared with extend_grid there. On solid sets those nodes are cell
corners, equidistant to several samples, and the two routes pick different
samples, so that batch fails on the three solid sets on every run.
"""

from __future__ import annotations

import numpy as np
from sobtrace import canonical, grid, sets, whitney

import reference as ref
from harness import Round, Verdict, fresh_set

SIZES = {
    "full": {"h": 1 / 64, "probes": 40, "nodes": 60, "near": 20},
    "tiny": {"h": 1 / 32, "probes": 8, "nodes": 8, "near": 4},
}
TOL = 1e-12

REPEATED = ("whitney.pou_at", "sets.nearest")


def _span(S) -> float:
    return float(np.max(S.points.max(0) - S.points.min(0))) or 1.0


def setup(seed: int, size: str = "full") -> dict:
    cfg = SIZES[size]
    rng = np.random.default_rng(seed)
    data = {}
    for name in canonical.CANONICAL_NAMES:
        S, _ = canonical.generate_canonical(canonical.CanonicalSpec(name, cfg["h"]))
        m, h = len(S.points), S.h
        nodes = grid.GridField(S.bbox, h, np.zeros(grid.GridField.shape_for(S.bbox, h))).nodes()
        on_set = S.on_set(nodes)
        cand = rng.uniform(S.bbox[:, 0], S.bbox[:, 1], size=(8 * cfg["probes"], S.dim))
        probes = cand[S.dist(cand) > 0][: cfg["probes"]]
        off_nodes = np.sort(rng.choice(np.nonzero(~on_set)[0], size=cfg["nodes"], replace=False))
        near = S.points[rng.integers(0, m, size=cfg["near"])]
        near = near + rng.uniform(-h / 4, h / 4, size=near.shape)
        f1, f2 = rng.standard_normal(m), rng.standard_normal(m)
        a, b = rng.uniform(-2, 2, size=2)
        coeffs = {"f1": f1, "f2": f2, "combo": a * f1 + b * f2}
        linear = S.points @ np.array([1.0, 2.0][: S.dim])
        data[name] = {
            "S": S, "coeffs": coeffs, "ab": (a, b), "linear": linear,
            "points": np.concatenate([S.points, near, probes, nodes[off_nodes]]),
            "parts": np.cumsum([m, len(near), len(probes), len(off_nodes)]),
            "off_nodes": off_nodes, "on_nodes": np.nonzero(on_set)[0], "nodes": nodes,
        }
    return {"data": data}


def _batch(W, f, points, node_idx) -> dict:
    span = _span(W.S)
    ext = whitney.extend_points(W, f, points, span, 0.0)
    G = whitney.extend_grid(W, f, span, 0.0)
    return {"ext": ext, "grid": G.values.ravel()[node_idx]}


def run_round(inputs: dict) -> Round:
    rnd = Round()
    for name, d in inputs["data"].items():
        W = whitney.whitney_decomposition(fresh_set(sets, d["S"]))
        for key, f in d["coeffs"].items():
            rnd.run(f"coef|{name}|{key}", _batch, W, f, d["points"], d["off_nodes"])
        rnd.run(f"fixed|{name}", _batch, W, d["linear"], d["nodes"][d["on_nodes"]], d["on_nodes"])
    return rnd


def collect(inputs: dict, rnd: Round) -> dict:
    """Per set: the cubes and anchors the dense route needs, and pou_at at
    the off-set probes."""
    evidence = {}
    for name, d in inputs["data"].items():
        W = whitney.whitney_decomposition(d["S"])
        lo, hi = d["parts"][1], d["parts"][2]
        evidence[name] = {
            "centers": W.centers, "radii": W.radii, "anchor_idx": W.anchor_idx,
            "pou": [W.pou_at(x) for x in d["points"][lo:hi]],
        }
    return evidence


def check(inputs: dict, rnd: Round, evidence: dict) -> Verdict:
    v = Verdict(rnd.ops)
    for op_id, rec in rnd.ops.items():
        if rec["error"] is not None:
            continue
        out = rec["out"]
        kind, name = op_id.split("|")[:2]
        d, ev = inputs["data"][name], evidence[name]
        S = d["S"]
        # extend_points and extend_grid share one definition of the extension
        v.op(op_id, np.all(np.abs(out["ext"][-len(out["grid"]):] - out["grid"]) <= TOL),
             "extend_points != extend_grid at the same grid nodes")
        if kind == "fixed":
            nearest = ref.lex_nearest(S.points, d["nodes"][d["on_nodes"]])
            v.op(op_id, np.array_equal(out["ext"], d["linear"][nearest]),
                 "on-set value is not the nearest sample's (lexicographic ties)")
            continue
        f = d["coeffs"][op_id.split("|")[2]]
        m, n_near, n_probe = d["parts"][:3]
        ext = out["ext"]
        v.op(op_id, np.array_equal(ext[:m], f), "extension differs from f at a sample")
        near = ref.lex_nearest(S.points, d["points"][m:n_near])
        v.op(op_id, np.array_equal(ext[m:n_near], f[near]),
             "on-set value is not the nearest sample's (lexicographic ties)")
        # dense route: every cube's bump at every probe, normalised
        probes = d["points"][n_near:n_probe]
        B = ref.dense_bumps(whitney.collar_profile, ev["centers"], ev["radii"], probes)
        total = B.sum(axis=1)
        diam_ok = 2 * ev["radii"] <= 2 * _span(S) * (1 + 1e-12)
        coeff = np.where(diam_ok, f[ev["anchor_idx"]], 0.0)
        want = np.where(total > 0, (B @ coeff) / np.where(total > 0, total, 1.0), np.nan)
        good = total > 0
        v.op(op_id, np.all(np.abs(ext[n_near:n_probe][good] - want[good])
                           <= TOL * np.maximum(1.0, np.abs(want[good]))),
             "extension at a probe differs from the dense bump route")
        for k, (cand, phi) in enumerate(ev["pou"]):
            if not good[k]:
                continue
            dense = B[k] / total[k]
            v.op(op_id, abs(phi.sum() - 1.0) <= TOL and abs(dense[cand].sum() - 1.0) <= TOL
                 and np.all(np.abs(dense[cand] - phi) <= TOL),
                 "pou_at differs from the dense partition of unity")
        if op_id.endswith("|combo"):  # C03 linearity
            a, b = d["ab"]
            e1 = rnd.out(f"coef|{name}|f1")["ext"]
            e2 = rnd.out(f"coef|{name}|f2")["ext"]
            if e1 is None or e2 is None:
                continue
            rhs = a * e1 + b * e2
            scale = np.maximum(np.abs(ext), np.abs(rhs))
            rel = np.where(scale < 1e-14, 0.0, np.abs(ext - rhs) / np.maximum(scale, 1e-30))
            v.op(op_id, rel.max() <= TOL, f"linearity error {rel.max():.2e} > 1e-12")
    return v


def corruptions() -> list:
    """(keyword, mutate) pairs for the self-test, as in wl_sweep."""

    def out(rnd, op_id):
        return rnd.ops[op_id]["out"]

    def thin(inputs):
        return next(n for n, d in inputs["data"].items() if d["S"].kind == "thin" and d["S"].dim == 2)

    def sample(rnd, ev, inputs):
        out(rnd, f"coef|{thin(inputs)}|f1")["ext"][0] += 1e-9

    def nearest(rnd, ev, inputs):
        name = thin(inputs)
        m = inputs["data"][name]["parts"][0]
        out(rnd, f"coef|{name}|f2")["ext"][m] += 1.0

    def probe(rnd, ev, inputs):
        name = thin(inputs)
        k = inputs["data"][name]["parts"][1]
        out(rnd, f"coef|{name}|f1")["ext"][k] += 1e-9

    def pou(rnd, ev, inputs):
        cand, phi = ev[thin(inputs)]["pou"][0]
        ev[thin(inputs)]["pou"][0] = (cand, phi * (1 + 1e-9))

    def linearity(rnd, ev, inputs):
        name = thin(inputs)
        k = inputs["data"][name]["parts"][1]
        out(rnd, f"coef|{name}|combo")["ext"][k] *= 1 + 1e-9

    def agreement(rnd, ev, inputs):
        out(rnd, f"coef|{thin(inputs)}|f1")["grid"][0] += 1e-9

    return [
        ("differs from f at a sample", sample),
        ("nearest sample", nearest),
        ("dense bump route", probe),
        ("dense partition of unity", pou),
        ("linearity error", linearity),
        ("extend_points != extend_grid", agreement),
    ]
