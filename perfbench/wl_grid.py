"""grid-fields: the gradient criterion and the T26 comparison norm on full
grid fields over the unit square.

One operation is one field: the C06 packing sup-quotient (t from 4h to 1/2)
with the gradient seminorm, and grid_besov_norm with s = 1 - 1/p,
p = q = 3. It is all raster oscillation and shift-modulus work: no set
oracle, no Whitney code.
"""

from __future__ import annotations

import numpy as np
from sobtrace import grid, norms, oscillation, util

import reference as ref
from harness import Round, Verdict

P = 3.0
S_BESOV = 1 - 1 / P
BOX = np.array([[0.0, 1.0], [0.0, 1.0]])
# the linear field has closed forms; the cosine varies along both axes
FIELDS = {
    "linear": lambda pts: np.asarray(pts, float) @ np.array([1.0, 2.0]),
    "cos": lambda pts: np.cos(pts[:, 0] + 2 * pts[:, 1]),
}

SIZES = {"full": {"h": 1 / 256}, "tiny": {"h": 1 / 32}}

REPEATED = ()


def setup(seed: int, size: str = "full") -> dict:
    h = SIZES[size]["h"]
    rng = np.random.default_rng(seed)
    fields = {}
    for name, fn in FIELDS.items():
        a = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0))
        b = float(rng.uniform(-1.0, 1.0))
        F = grid.GridField.from_function(BOX, h, fn)
        fields[name] = {"F": grid.GridField(BOX, h, a * F.values + b), "a": a, "b": b}
    return {"h": h, "fields": fields}


def _field(F) -> dict:
    ts = util.dyadic_ladder(4 * F.h, 0.5)
    sem = norms.grid_sobolev_norms(F, P).seminorm
    packs = [oscillation.grid_packing_functional(F, float(t), P, details=True) for t in ts]
    besov, info = norms.grid_besov_norm(F, S_BESOV, P, P, details=True)
    per_tau = np.array([row for d in packs for row in d["per_tau"]], float)
    return {
        "seminorm": sem,
        "quotient": max(d["value"] / t for d, t in zip(packs, ts)) / sem,
        "packing": np.array([d["value"] for d in packs]),
        "per_tau": per_tau,
        "besov": besov,
        "besov_lp": info["lp"],
        "ts": info["ts"],
        "gs": info["gs"],
    }


def run_round(inputs: dict) -> Round:
    rnd = Round()
    for name, d in inputs["fields"].items():
        rnd.run(f"field|{name}", _field, d["F"])
    return rnd


def collect(inputs: dict, rnd: Round) -> dict:
    return {}


def check(inputs: dict, rnd: Round, evidence: dict) -> Verdict:
    v = Verdict(rnd.ops)
    quotients = []
    for op_id, rec in rnd.ops.items():
        if rec["error"] is not None:
            continue
        out = rec["out"]
        name = op_id.split("|")[1]
        d = inputs["fields"][name]
        F = d["F"]
        h, n = F.h, F.values.shape[0]
        quotients.append(out["quotient"])
        tail = ref.besov_tail(out["ts"], out["gs"], S_BESOV, P)
        v.op(op_id, ref.rel_err(out["besov"], out["besov_lp"] + tail) <= 1e-12,
             "grid_besov_norm != L_p part + scale integral of its moduli")
        if name != "linear":
            continue
        a = abs(d["a"])
        # grad (a x + 2 a y + b) has max-norm 2|a| at every node
        want = 2 * a * (n * n * h * h) ** (1 / P)
        v.op(op_id, ref.rel_err(out["seminorm"], want) <= 1e-9,
             f"linear seminorm {out['seminorm']!r} != closed form {want!r}")
        # every admitted cube of diameter tau oscillates by 3|a| tau
        for tau, total, count in out["per_tau"]:
            if count > 0:
                want = count * (3 * a * tau) ** P * tau ** 2
                v.op(op_id, ref.rel_err(total, want) <= 1e-9,
                     f"packing total at tau={tau:g} is not count * (3 tau)^p tau^2")
        # sup over shifts |s| <= k h, k = ceil(t/h) - 1: the diagonal shift
        # (k, k) is always walked; no shift moves the field by more than 3k h
        for t, g in zip(out["ts"], out["gs"]):
            k = int(np.ceil(t / h)) - 1
            lower = 3 * a * k * h * ((n - k) ** 2 * h * h) ** (1 / P)
            upper = 3 * a * k * h * (n * n * h * h) ** (1 / P)
            v.op(op_id, lower * (1 - 1e-9) <= g <= upper * (1 + 1e-9),
                 f"modulus at t={t:g} outside its linear-field bracket")
    if len(quotients) > 1:  # C06
        v.prop(ref.spread(quotients) <= 50.0,
               f"C06 quotient spread {ref.spread(quotients):.3g} > 50")
    return v


def corruptions() -> list:
    """(keyword, mutate) pairs for the self-test, as in wl_sweep."""

    def out(rnd, name):
        return rnd.ops[f"field|{name}"]["out"]

    def seminorm(rnd, ev, inputs):
        out(rnd, "linear")["seminorm"] *= 1 + 1e-6

    def packing_total(rnd, ev, inputs):
        pt = out(rnd, "linear")["per_tau"].copy()
        pt[np.argmax(pt[:, 2] > 0), 1] *= 1.01
        out(rnd, "linear")["per_tau"] = pt

    def modulus(rnd, ev, inputs):
        out(rnd, "linear")["gs"] = out(rnd, "linear")["gs"] * 10

    def besov(rnd, ev, inputs):
        out(rnd, "cos")["besov"] += 1e-3

    def quotient(rnd, ev, inputs):
        out(rnd, "cos")["quotient"] *= 100

    return [
        ("closed form", seminorm),
        ("count * (3 tau)^p", packing_total),
        ("linear-field bracket", modulus),
        ("scale integral", besov),
        ("C06 quotient spread", quotient),
    ]
