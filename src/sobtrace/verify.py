"""Equivalence experiments: intrinsic trace estimates vs comparison norms.

Each experiment sweeps a function family over one catalog set at several
resolutions, records (intrinsic, comparison) value pairs, and summarizes
ratio spread plus refinement stability.  Reports serialize without the
runtime field so identical inputs give identical bytes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .canonical import CanonicalSpec, generate_canonical, test_function_family
from .cubes import GROWTH, covering_multiplicity
from .grid import GridField
from .measures import dset_besov_norm
from .norms import (
    THEOREMS,
    TraceEstimateConfig,
    _RANGES,
    _check_range,
    grid_besov_norm,
    grid_sobolev_norms,
    theorem_spec,
    trace_estimate,
)
from .sets import ClosedSet
from .util import ConfigError, NumericalFailure, json_text, lex_order
from .whitney import WhitneyDecomposition, extend_grid, whitney_decomposition

NEAR_ZERO = 1e-10
_DIVERGENCE_SLOPE = 0.13

_DIM2_SETS = {"segment-1d-in-2d", "example-726", "solid-disk", "solid-square"}


def default_h_levels(set_name: str) -> list[float]:
    if set_name in _DIM2_SETS:
        return [1 / 64, 1 / 128, 1 / 256]
    return [1 / 256, 1 / 1024]


@dataclass
class EquivalenceReport:
    theorem: str
    set_name: str
    family: str
    comparison: str
    h_levels: list
    entries: list
    ratio_stats: dict
    refinement_deltas: dict
    skipped_near_zero: int
    runtime: float
    report_version: ClassVar[int] = 1

    def divergence_flags(self) -> dict:
        """Per function and per side: does the value grow like a power of 1/h?

        The flag is the log-log slope against 1/h exceeding _DIVERGENCE_SLOPE;
        needs at least two resolutions.
        """
        out = {}
        for name in sorted({e["name"] for e in self.entries}):
            rows = [e for e in self.entries if e["name"] == name]
            flags = {}
            for side in ("intrinsic", "comparison"):
                vals = np.array([r[side] for r in rows])
                hs = np.array([r["h"] for r in rows])
                if len(vals) >= 2 and np.all(vals > NEAR_ZERO):
                    slope = np.polyfit(np.log(1 / hs), np.log(vals), 1)[0]
                    flags[side] = bool(slope > _DIVERGENCE_SLOPE)
                else:
                    flags[side] = False
            out[name] = flags
        return out

    def to_json(self) -> dict:
        return {
            "report_version": self.report_version,
            "theorem": self.theorem,
            "set": self.set_name,
            "family": self.family,
            "comparison": self.comparison,
            "h_levels": list(self.h_levels),
            "entries": self.entries,
            "ratio_stats": self.ratio_stats,
            "refinement_deltas": self.refinement_deltas,
            "skipped_near_zero": self.skipped_near_zero,
        }

    def dumps(self) -> str:
        return json_text(self.to_json(), "the equivalence report")

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.dumps())


def _summarize(entries, h_levels):
    stats = {}
    for h in h_levels:
        ratios = [e["intrinsic"] / e["comparison"] for e in entries if e["h"] == h]
        if ratios:
            lo, hi = min(ratios), max(ratios)
            stats[repr(h)] = {
                "min": lo,
                "max": hi,
                "spread": hi / lo,
                "count": len(ratios),
            }
        else:
            stats[repr(h)] = {"min": None, "max": None, "spread": None, "count": 0}
    deltas = {}
    for name in sorted({e["name"] for e in entries}):
        rows = {e["h"]: e["intrinsic"] / e["comparison"]
                for e in entries if e["name"] == name}
        seq = [rows[h] for h in h_levels if h in rows]
        deltas[name] = [abs(b / a - 1.0) for a, b in zip(seq, seq[1:])]
    return stats, deltas


def _make_config(theorem, p, eps, s, q, pair_budget, seed, **kw):
    """The theorem's config. The defaults eps = 1/4, s = 1 - 1/p, q = p and the
    run-wide pair budget and seed reach only a theorem that reads them."""
    params = theorem_spec(theorem).params
    if "eps" in params and eps is None:
        eps = 0.25
    if "s" in params:
        # p <= 0 is left to TraceEstimateConfig to reject
        s = 1 - 1 / p if s is None and p > 0 else s
        q = p if q is None else q
    for name, value in (("pair_budget", pair_budget), ("seed", seed)):
        if name in params:
            kw[name] = value
    return TraceEstimateConfig(theorem=theorem, p=p, eps=eps, s=s, q=q, **kw)


def extension_field(W: WhitneyDecomposition, f_vals, cfg: TraceEstimateConfig) -> GridField:
    """Extend with the parameters the comparison norm calls for: large-delta
    constant far field for homogeneous seminorms, tight delta and zero
    background for inhomogeneous norms."""
    S = W.S
    if THEOREMS[cfg.theorem].comparison == "seminorm":
        delta = S.span
        x0 = int(lex_order(S.points)[0])
        cbar = float(np.asarray(f_vals, float)[x0])
    else:
        base = cfg.eps if cfg.eps is not None else S.span
        delta = max(0.001 * base, 2 * S.h)
        cbar = 0.0
    return extend_grid(W, f_vals, delta, cbar)


def _comparison_value(W, S, mu, f, cfg, comparison, d_exponent, s):
    if comparison == "besov-dset":
        s = s if s is not None else 1 - 1 / cfg.p
        return dset_besov_norm(mu, f.values, s=s, p=cfg.p, d=d_exponent)
    return _comparison_norm(extension_field(W, f.values, cfg), cfg)


def _comparison_norm(F: GridField, cfg: TraceEstimateConfig) -> float:
    """The grid norm the theorem's estimate is compared against."""
    comparison = THEOREMS[cfg.theorem].comparison
    if comparison == "besov":
        return grid_besov_norm(F, cfg.s, cfg.p, cfg.q)
    return getattr(grid_sobolev_norms(F, cfg.p), comparison)  # seminorm | total


def verify_equivalence(
    theorem: str,
    set_name: str,
    family: str,
    h_levels=None,
    *,
    p: float = 3.0,
    q: float | None = None,
    s: float | None = None,
    eps: float | None = None,
    alpha: float | None = None,
    theta: float | None = None,
    comparison: str = "extension",
    d_exponent: float = 1.0,
    pair_budget: int = 4000,
    seed: int = 0,
) -> EquivalenceReport:
    """Sweep the family over h-levels; pair intrinsic estimates with the
    comparison norm (Whitney extension by default, direct d-set Besov when
    comparison="besov-dset").  Functions where both sides are near zero are
    skipped and counted.  pair_budget and seed are run-wide: they are checked
    whatever the theorem, and reach only a theorem that reads them."""
    if comparison not in ("extension", "besov-dset"):
        raise ConfigError(f"unknown comparison mode {comparison!r}")
    for name, value in (("pair_budget", pair_budget), ("seed", seed)):
        _check_range("verify", name, value, _RANGES[name])
    # the d-set Besov norm's s reaches the config only for a theorem that reads s
    s_dset_only = comparison == "besov-dset" and "s" not in theorem_spec(theorem).params
    t0 = time.perf_counter()
    h_levels = sorted(h_levels or default_h_levels(set_name), reverse=True)
    entries = []
    skipped = 0
    for h in h_levels:
        S, mu = generate_canonical(CanonicalSpec(set_name, h))
        cfg = _make_config(
            theorem, p=p, q=q, s=None if s_dset_only else s, eps=eps, alpha=alpha,
            theta=theta, pair_budget=pair_budget, seed=seed,
        )
        W = None
        if comparison == "extension" or THEOREMS[theorem].needs_W:
            W = whitney_decomposition(S)
        for f in test_function_family(family, S):
            intrinsic = trace_estimate(S, f.values, cfg, mu=mu, W=W).value
            comp = _comparison_value(W, S, mu, f, cfg, comparison, d_exponent, s)
            small_i, small_c = intrinsic < NEAR_ZERO, comp < NEAR_ZERO
            if small_i and small_c:
                skipped += 1
                continue
            if small_i or small_c:
                raise NumericalFailure(
                    f"one-sided vanishing for {f.name}: "
                    f"intrinsic={intrinsic:g} comparison={comp:g}"
                )
            entry = {"h": h, "name": f.name, "intrinsic": intrinsic,
                     "comparison": comp}
            if comparison == "extension" and f.source is not None:
                known = GridField.from_function(S.bbox, S.h, f.source)
                entry["known"] = _comparison_norm(known, cfg)
            entries.append(entry)
    stats, deltas = _summarize(entries, h_levels)
    return EquivalenceReport(
        theorem=theorem,
        set_name=set_name,
        family=family,
        comparison=comparison,
        h_levels=h_levels,
        entries=entries,
        ratio_stats=stats,
        refinement_deltas=deltas,
        skipped_near_zero=skipped,
        runtime=time.perf_counter() - t0,
    )


# -- decomposition contract report -------------------------------------

_CONTRACT_PROBES = 2000


def whitney_contract_report(
    S: ClosedSet, W: WhitneyDecomposition | None = None, seed: int = 0
) -> dict:
    """Distance contract, grown-cover multiplicity, and collar coverage.

    The contract slacks are how far the cube-to-set distances fall below
    the diameters and rise above four diameters; coverage is checked at
    _CONTRACT_PROBES random points farther than 2h from the set."""
    if W is None:
        W = whitney_decomposition(S)
    dists = S.dist_cube(W.centers, W.radii)
    lower_slack = float(np.max(W.diams - dists))
    upper_slack = float(np.max(dists - 4 * W.diams))
    slack = 2 * S.h
    grown_mult = covering_multiplicity(W.centers, GROWTH * W.radii)
    rng = np.random.default_rng(seed)
    box = S.bbox
    probes = rng.uniform(box[:, 0], box[:, 1], size=(4 * _CONTRACT_PROBES, S.dim))
    dist = S.dist(probes)
    probes = probes[dist > slack][:_CONTRACT_PROBES]
    misses = int(np.sum(W.locate(probes) < 0))
    report = {
        "n_cubes": len(W),
        "n_dropped": W.n_dropped,
        "lower_slack": lower_slack,
        "upper_slack": upper_slack,
        "contract_pass": bool(lower_slack <= slack + 1e-12 and upper_slack <= slack + 1e-12),
        "grown_multiplicity": grown_mult,
        "multiplicity_pass": bool(grown_mult <= 4 ** S.dim),
        "coverage_checked": int(len(probes)),
        "coverage_misses": misses,
        "coverage_pass": bool(misses == 0),
    }
    report["pass"] = bool(
        report["contract_pass"]
        and report["multiplicity_pass"]
        and report["coverage_pass"]
    )
    return report
