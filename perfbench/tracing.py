"""Spans around calls into sobtrace, taken from outside the package.

`Tracer.install` wraps each public function listed in SPECS in every
sobtrace module namespace that binds it (a function imported by name into
another module is wrapped there too), and each listed method on its class.
A span is (name, start_ns, end_ns, parent index, attributes); spans stay in
memory and are written out when the run ends. `layer_metrics` derives the
per-layer table from a list of spans; self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import weakref

import numpy as np


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _n_points(x) -> int:
    return len(np.atleast_2d(np.asarray(x, float)))


def _modulus_shifts(args, kwargs) -> dict:
    """Shifts modulus_of_smoothness walks, computed from its arguments by
    the rule it documents (per-axis thinning, mirror shifts skipped)."""
    F, t = _arg(args, kwargs, 0, "F"), _arg(args, kwargs, 1, "t")
    budget = kwargs.get("max_shifts_per_axis", args[3] if len(args) > 3 else 33)
    k = int(np.ceil(t / F.h)) - 1
    if k < 1:
        return {"shifts": 0}
    stride = max(1, int(np.ceil((2 * k + 1) / budget)))
    vals = sorted(set(range(-k, k + 1, stride)) | {-k, 0, k})
    pos, n = sum(v > 0 for v in vals), len(vals)
    # tuples whose first nonzero entry is positive: i leading zeros, then +
    return {"shifts": sum(pos * n ** (F.dim - 1 - i) for i in range(F.dim))}


# pou_matrix hands out its cached matrix again; a matrix not seen before
# was built by the call
_seen_matrices = weakref.WeakValueDictionary()


def _pou_post(args, kwargs, result, pre) -> dict:
    matrix = result[0]
    if _seen_matrices.get(id(matrix)) is matrix:
        return {"build": 0, "nnz": 0}
    _seen_matrices[id(matrix)] = matrix
    return {"build": 1, "nnz": int(matrix.nnz)}


def _quasi_post(args, kwargs, result, pre) -> dict:
    if isinstance(result, dict):
        return {k: result[k] for k in ("candidate_pairs", "evaluated_pairs", "admitted_pairs")}
    return {}


def _ap_mu_pre(args, kwargs) -> dict:
    return {"zero_mass": -_arg(args, kwargs, 1, "mu").zero_mass_events}


def _ap_mu_post(args, kwargs, result, pre) -> dict:
    # the counter accumulates on the measure, so read it as a delta
    return {"zero_mass": pre["zero_mass"] + _arg(args, kwargs, 1, "mu").zero_mass_events}


def _pairs(args, kwargs) -> dict:
    return {"pairs": len(_arg(args, kwargs, 0, "mu").points) ** 2}


# (span name, target, pre(args, kwargs) -> attrs, post(args, kwargs, result, pre) -> attrs)
SPECS = [
    ("canonical.generate", "canonical:generate_canonical", None, None),
    ("canonical.generate", "canonical:test_function_family", None, None),
    ("sets.quasidistance", "sets:ClosedSet.quasidistance", None, None),
    ("sets.clearance", "sets:ClosedSet.max_clearance_in", None, None),
    ("sets.porosity", "sets:ClosedSet.is_porous", None,
     lambda a, k, r, pre: {"pass": int(bool(r))}),
    ("sets.ball_condition", "sets:ClosedSet.ball_condition_estimate", None, None),
    ("sets.nearest", "sets:ClosedSet.nearest_point", lambda a, k: {"points": 1}, None),
    ("sets.nearest", "sets:ClosedSet.nearest_distance",
     lambda a, k: {"points": _n_points(_arg(a, k, 1, "x"))}, None),
    ("whitney.decomposition", "whitney:whitney_decomposition", None,
     lambda a, k, r, pre: {"cubes": len(r), "dropped": int(r.n_dropped)}),
    ("whitney.pou_matrix", "whitney:WhitneyDecomposition.pou_matrix", None, _pou_post),
    ("whitney.extend_grid", "whitney:extend_grid", None, None),
    ("whitney.projection", "whitney:projection_data", None, None),
    ("whitney.projection", "whitney:compose_with_projection", None, None),
    ("whitney.extend_points", "whitney:extend_points",
     lambda a, k: {"points": _n_points(_arg(a, k, 2, "points"))}, None),
    ("whitney.pou_at", "whitney:WhitneyDecomposition.pou_at", None, None),
    ("oscillation.packing", "oscillation:packing_functional_details", None, None),
    ("oscillation.solve_packing", "oscillation:solve_packing",
     lambda a, k: {"candidates": len(_arg(a, k, 0, "problem").scores)},
     lambda a, k, r, pre: {"admitted": len(r.chosen)}),
    ("oscillation.sharp_field", "oscillation:sharp_maximal_field", None, None),
    ("oscillation.grid_packing", "oscillation:grid_packing_functional", None, None),
    ("oscillation.modulus", "oscillation:modulus_of_smoothness", _modulus_shifts, None),
    ("measures.pair_energy", "measures:distance_pair_energy", _pairs, None),
    ("measures.pair_energy", "measures:dset_besov_norm", _pairs, None),
    ("measures.pair_energy", "measures:local_pair_energy", None, None),
    ("measures.quasi_energy", "measures:quasidistance_pair_energy", None, _quasi_post),
    ("measures.ap_mu", "measures:A_p_mu", _ap_mu_pre, _ap_mu_post),
    ("measures.ap_mu", "measures:mu_oscillation", None, None),
    ("measures.ap_mu", "measures:tilde_osc", None, None),
    ("norms.trace_estimate", "norms:trace_estimate", None, None),
    ("norms.lambda_packing", "norms:lambda_packing", None, None),
    ("norms.sobolev", "norms:grid_sobolev_norms", None, None),
    ("norms.besov", "norms:grid_besov_norm", None, None),
    ("verify.extension_field", "verify:extension_field", None, None),
]

# nearest-sample queries made by the clearance and ball-condition scans
# belong to those scans, not to the nearest-sample layer
_NEAREST_OWNERS = {"sets.clearance", "sets.ball_condition"}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, name, fn, pre, post):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "sets.nearest" and stack and spans[stack[-1]][0] in _NEAREST_OWNERS:
                return fn(*args, **kwargs)
            attrs = pre(args, kwargs) if pre else {}
            span = [name, 0, 0, stack[-1] if stack else -1, attrs]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if post:
                attrs.update(post(args, kwargs, result, attrs))
            return result

        return wrapper

    def install(self):
        """Wrap every target in SPECS."""
        for name, target, pre, post in SPECS:
            mod_name, path = target.split(":")
            module = importlib.import_module("sobtrace." + mod_name)
            if "." in path:
                cls_name, meth = path.split(".")
                owner = getattr(module, cls_name)
                orig = owner.__dict__[meth]
                setattr(owner, meth, self._wrap(name, orig, pre, post))
                self._patches.append((owner, meth, orig))
                continue
            orig = getattr(module, path)
            wrapper = self._wrap(name, orig, pre, post)
            for mod in [m for k, m in sys.modules.items() if k.startswith("sobtrace")]:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "attrs": attrs}) + "\n")


# per-layer metric -> unit; COMPUTED counts come from argument sizes
METRICS = {
    "canonical.generate.self_s": "s",
    "sets.quasidistance.calls": "count",
    "sets.quasidistance.self_s": "s",
    "sets.quasidistance.p50_ms": "ms",
    "sets.quasidistance.p90_ms": "ms",
    "sets.clearance.calls": "count",
    "sets.clearance.self_s": "s",
    "sets.probes_per_query": "probes/query",
    "sets.porosity.calls": "count",
    "sets.porosity.self_s": "s",
    "sets.porosity.pass_ratio": "ratio",
    "sets.ball_condition.self_s": "s",
    "sets.nearest.query_points": "count",
    "sets.nearest.self_s": "s",
    "whitney.decomposition.self_s": "s",
    "whitney.cubes": "count",
    "whitney.dropped_cells": "count",
    "whitney.pou_matrix.calls": "count",
    "whitney.pou_matrix.builds": "count",
    "whitney.pou_matrix.nnz": "count",
    "whitney.pou_matrix.self_s": "s",
    "whitney.extend_grid.self_s": "s",
    "whitney.projection.self_s": "s",
    "whitney.extend_points.points": "count",
    "whitney.extend_points.self_s": "s",
    "whitney.pou_at.calls": "count",
    "whitney.pou_at.self_s": "s",
    "oscillation.packing.calls": "count",
    "oscillation.packing.self_s": "s",
    "oscillation.solve_packing.candidates": "count",
    "oscillation.solve_packing.admit_ratio": "ratio",
    "oscillation.solve_packing.self_s": "s",
    "oscillation.sharp_field.self_s": "s",
    "oscillation.grid_packing.calls": "count",
    "oscillation.grid_packing.self_s": "s",
    "oscillation.modulus.calls": "count",
    "oscillation.modulus.shifts": "count",
    "oscillation.modulus.self_s": "s",
    "measures.pair_energy.pairs": "count",
    "measures.pair_energy.self_s": "s",
    "measures.quasi_energy.candidate_pairs": "count",
    "measures.quasi_energy.evaluated_pairs": "count",
    "measures.quasi_energy.admitted_pairs": "count",
    "measures.quasi_energy.self_s": "s",
    "measures.ap_mu.self_s": "s",
    "measures.zero_mass_events": "count",
    "norms.trace_estimate.calls": "count",
    "norms.trace_estimate.self_s": "s",
    "norms.trace_estimate.p50_ms": "ms",
    "norms.lambda_packing.candidates": "count",
    "norms.lambda_packing.self_s": "s",
    "norms.sobolev.self_s": "s",
    "norms.besov.self_s": "s",
    "verify.extension_field.self_s": "s",
}
COMPUTED = {
    "sets.nearest.query_points", "whitney.extend_points.points",
    "oscillation.solve_packing.candidates", "oscillation.modulus.shifts",
    "measures.pair_energy.pairs", "norms.lambda_packing.candidates",
}
# per-layer counts that are attributes summed over the named spans
_SUMS = {
    "sets.nearest.query_points": ("sets.nearest", "points"),
    "whitney.cubes": ("whitney.decomposition", "cubes"),
    "whitney.dropped_cells": ("whitney.decomposition", "dropped"),
    "whitney.pou_matrix.builds": ("whitney.pou_matrix", "build"),
    "whitney.pou_matrix.nnz": ("whitney.pou_matrix", "nnz"),
    "whitney.extend_points.points": ("whitney.extend_points", "points"),
    "oscillation.solve_packing.candidates": ("oscillation.solve_packing", "candidates"),
    "oscillation.modulus.shifts": ("oscillation.modulus", "shifts"),
    "measures.pair_energy.pairs": ("measures.pair_energy", "pairs"),
    "measures.quasi_energy.candidate_pairs": ("measures.quasi_energy", "candidate_pairs"),
    "measures.quasi_energy.evaluated_pairs": ("measures.quasi_energy", "evaluated_pairs"),
    "measures.quasi_energy.admitted_pairs": ("measures.quasi_energy", "admitted_pairs"),
    "measures.zero_mass_events": ("measures.ap_mu", "zero_mass"),
}


def _quantile_ms(durations_ns, q) -> float:
    return float(np.quantile(durations_ns, q)) / 1e6 if durations_ns else 0.0


def layer_metrics(spans: list, lo: int = 0, hi: int | None = None) -> dict:
    """Per-layer metrics of spans[lo:hi] (a whole round or the set-up)."""
    hi = len(spans) if hi is None else hi
    child = {}
    for i in range(lo, hi):
        parent = spans[i][3]
        if parent >= lo:
            child[parent] = child.get(parent, 0) + spans[i][2] - spans[i][1]
    self_ns, calls, incl, attr = {}, {}, {}, {}
    probes = 0
    for i in range(lo, hi):
        name, start, end, parent, attrs = spans[i]
        self_ns[name] = self_ns.get(name, 0) + end - start - child.get(i, 0)
        pname = spans[parent][0] if parent >= lo else None
        if pname == "sets.quasidistance" and name == "sets.clearance":
            probes += 1
        if pname != name:  # recursion and same-layer nesting count once
            calls[name] = calls.get(name, 0) + 1
            incl.setdefault(name, []).append(end - start)
            for k, v in attrs.items():
                attr[(name, k)] = attr.get((name, k), 0) + v
    out = {}
    for metric in METRICS:
        layer, _, stat = metric.rpartition(".")
        if metric in _SUMS:
            out[metric] = attr.get(_SUMS[metric], 0)
        elif stat == "self_s":
            out[metric] = self_ns.get(layer, 0) / 1e9
        elif stat == "calls":
            out[metric] = calls.get(layer, 0)
        elif stat in ("p50_ms", "p90_ms"):
            out[metric] = _quantile_ms(incl.get(layer, []), 0.5 if stat == "p50_ms" else 0.9)
    q = calls.get("sets.quasidistance", 0)
    out["sets.probes_per_query"] = probes / q if q else 0.0
    p = calls.get("sets.porosity", 0)
    out["sets.porosity.pass_ratio"] = attr.get(("sets.porosity", "pass"), 0) / p if p else 0.0
    c = attr.get(("oscillation.solve_packing", "candidates"), 0)
    out["oscillation.solve_packing.admit_ratio"] = (
        attr.get(("oscillation.solve_packing", "admitted"), 0) / c if c else 0.0)
    out["norms.lambda_packing.candidates"] = sum(
        spans[i][4]["candidates"] for i in range(lo, hi)
        if spans[i][0] == "oscillation.solve_packing" and spans[i][3] >= lo
        and spans[spans[i][3]][0] == "norms.lambda_packing")
    return out


def inclusive_share(spans: list, names, lo: int, hi: int, wall_s: float) -> float:
    """Share of a round's wall time spent inside spans of the named layers,
    each interval counted once (spans nested in another named span are
    skipped)."""
    total = 0
    for i in range(lo, hi):
        if spans[i][0] not in names:
            continue
        parent = spans[i][3]
        while parent >= lo and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < lo:
            total += spans[i][2] - spans[i][1]
    return total / 1e9 / wall_s
