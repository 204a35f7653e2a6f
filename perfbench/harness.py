"""Operation bookkeeping shared by the four workloads.

A round runs every operation of a workload once. Each operation returns a
dict of named numeric outputs; one that raises is recorded with its error
and counts as failed. The digest of a round covers the exact bits of every
output, so rounds in separate processes can be compared.
"""

from __future__ import annotations

import hashlib

import numpy as np


class Round:
    """Ordered record of one pass over a workload's operations."""

    def __init__(self):
        self.ops: dict = {}

    def run(self, op_id: str, fn, *args, **kwargs):
        if op_id in self.ops:
            raise ValueError(f"duplicate operation id {op_id}")
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # an operation that raises is a failed operation
            self.ops[op_id] = {"out": None, "error": f"{type(exc).__name__}: {exc}"}
            return None
        self.ops[op_id] = {"out": out, "error": None}
        return out

    def out(self, op_id: str):
        return self.ops[op_id]["out"]

    def digest(self) -> str:
        h = hashlib.sha256()
        for op_id, rec in self.ops.items():
            h.update(op_id.encode())
            if rec["error"] is not None:
                h.update(b"error:" + rec["error"].encode())
                continue
            for key in sorted(rec["out"]):
                h.update(key.encode())
                h.update(np.ascontiguousarray(rec["out"][key], dtype="<f8").tobytes())
        return h.hexdigest()


class Verdict:
    """Check results: failed operations by id, and failures of properties
    that span several operations (these make the run incorrect)."""

    def __init__(self, ops: dict):
        self.failed = {op_id: [rec["error"]] for op_id, rec in ops.items() if rec["error"]}
        self.whole: list = []

    def op(self, op_id: str, ok, reason: str):
        if not ok:
            self.failed.setdefault(op_id, []).append(reason)

    def prop(self, ok, reason: str):
        if not ok:
            self.whole.append(reason)


def finite_positive(*values) -> bool:
    arr = np.asarray(values, float)
    return bool(np.all(np.isfinite(arr)) and np.all(arr > 0))


def fresh_set(sets, S):
    """A new ClosedSet over the same samples, so that every round builds the
    set's lazy index structures itself."""
    return sets.ClosedSet(dim=S.dim, h=S.h, points=S.points, bbox=S.bbox,
                          kind=S.kind, occupancy=S.occupancy, name=S.name)


def fresh_measure(measures, mu):
    return measures.DiscreteMeasure(mu.points, mu.weights, name=mu.name)


def h_label(h: float) -> str:
    return f"1/{round(1 / h)}"
