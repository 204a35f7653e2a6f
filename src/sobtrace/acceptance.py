"""Runnable acceptance suite behind the demo subcommand.

Thirteen criteria, one per structural claim the package rests on:
decomposition contract, packing coloring, extension algebra, partition of
unity, greedy packing against the optimum, gradient criterion on grids, two
sufficiency/necessity equivalences, the Besov identification on a 1-d
set, the comb measure law, quasidistance bounds, the pair-energy
sandwich, and end-to-end determinism of the report pipeline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .canonical import (
    CANONICAL_NAMES,
    CanonicalSpec,
    _bump_field,
    _smooth_fields,
    comb_mass_law,
    generate_canonical,
)
from .canonical import test_function_family as function_family
from .cubes import (
    GROWTH,
    conflict_masks,
    covering_multiplicity,
    packing_color_bound,
    partition_into_packings,
)
from .grid import GridField
from .measures import A_p_mu, ap_mu_options, local_pair_energy, measure_diagnostics
from .norms import TraceEstimateConfig, grid_sobolev_norms, trace_estimate
from .oscillation import PackingProblem, grid_packing_profile, packing_profile, solve_packing
from .util import chebyshev, dyadic_ladder, json_text
from .verify import verify_equivalence, whitney_contract_report
from .whitney import collar_profile, extend_points, whitney_decomposition


@dataclass(frozen=True)
class CriterionResult:
    label: str
    passed: bool
    detail: str
    seconds: float


# -- helpers -----------------------------------------------------------


def _raw_bumps(W, X) -> np.ndarray:
    """Dense (points x cubes) matrix of raw bump values, the independent
    route around WhitneyDecomposition.bumps."""
    out = np.ones((len(X), len(W)))
    for a in range(W.S.dim):
        u = (X[:, a, None] - W.centers[None, :, a]) / W.radii[None, :]
        out *= collar_profile(u)
    return out


def _off_set_points(S, n, rng, margin: float):
    pts = rng.uniform(S.bbox[:, 0], S.bbox[:, 1], size=(8 * n, S.dim))
    return pts[S.dist(pts) > margin][:n]


def _brute_force_packing(centers, radii, scores) -> float:
    """The packing optimum: the best total over every subfamily in which no
    two interiors meet (cubes.interiors_meet, read through conflict_masks)."""
    conflicts = conflict_masks(centers, radii)
    m = len(scores)
    best = 0.0
    for mask in range(1 << m):
        idx = [i for i in range(m) if mask >> i & 1]
        if not any(conflicts[i] & mask for i in idx):
            best = max(best, float(scores[idx].sum()))
    return best


def _class_overlap(conflicts, labels):
    """The first pair i < j of cubes with one label whose interiors meet
    (conflict masks as cubes.conflict_masks builds them), or None."""
    labels = np.asarray(labels).tolist()
    classes: dict = {}  # label -> bit mask of its cubes
    for j, c in enumerate(labels):
        classes[c] = classes.get(c, 0) | 1 << j
    for i, c in enumerate(labels):
        hit = conflicts[i] & classes[c]
        if hit:
            return i, (hit & -hit).bit_length() - 1
    return None


# -- criteria ----------------------------------------------------------


def _criterion_1(seed, out):
    t0 = time.perf_counter()
    mults = []
    for name in CANONICAL_NAMES:
        S, _ = generate_canonical(CanonicalSpec(name, 1 / 128))
        rep = whitney_contract_report(S, seed=seed)
        if not rep["pass"]:
            return False, f"{name}: {rep}"
        mults.append(rep["grown_multiplicity"])
    dt = time.perf_counter() - t0
    if dt >= 30:
        return False, f"runtime {dt:.1f}s exceeds the 30s budget"
    return True, f"7 sets, grown multiplicity <= {max(mults)}, {dt:.1f}s"


def _criterion_2(seed, out):
    rng = np.random.default_rng(seed)
    max_colors = 0
    for trial in range(100):
        dim = 1 + trial % 2
        m = int(rng.integers(10, 201))
        centers = rng.uniform(0, 1, (m, dim))
        radii = rng.uniform(0.005, 0.08, m)
        mult = covering_multiplicity(centers, radii)
        while mult > 6:
            radii = radii * 0.6
            mult = covering_multiplicity(centers, radii)
        colors = partition_into_packings(centers, radii)
        bound = packing_color_bound(mult, dim)
        n_colors = len(np.unique(colors))
        if n_colors > bound:
            return False, f"trial {trial}: {n_colors} colors > bound {bound}"
        pair = _class_overlap(conflict_masks(centers, radii), colors)
        if pair is not None:
            i, j = pair
            return False, f"trial {trial}: cubes {i},{j} share color {colors[i]} but overlap"
        max_colors = max(max_colors, n_colors)
    return True, f"100 families, colors <= bound throughout (max used {max_colors})"


def _criterion_3(seed, out):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name in CANONICAL_NAMES:
        S, _ = generate_canonical(CanonicalSpec(name, 1 / 64))
        W = whitney_decomposition(S)
        pts = S.points
        span = S.span
        probes = _off_set_points(S, 40, rng, 0.0)
        m = len(pts)
        for _ in range(20):
            f = rng.standard_normal(m)
            g = rng.standard_normal(m)
            a, b = rng.uniform(-2, 2, size=2)
            if not np.array_equal(extend_points(W, f, pts, span, 0.0), f):
                return False, f"{name}: extension differs from f at a sample point"
            lhs = extend_points(W, a * f + b * g, probes, span, 0.0)
            rhs = a * extend_points(W, f, probes, span, 0.0) + b * extend_points(
                W, g, probes, span, 0.0
            )
            scale = np.maximum(np.abs(lhs), np.abs(rhs))
            rel = np.abs(lhs - rhs) / np.maximum(scale, 1e-30)
            rel[scale < 1e-14] = 0.0
            worst = max(worst, float(rel.max(initial=0.0)))
            if worst > 1e-12:
                return False, f"{name}: linearity relative error {worst:.2e}"
    return True, f"exact at samples on all 7 sets, linearity error <= {worst:.1e}"


_C4_SETS = ("segment-1d-in-2d", "cantor-1d", "example-726", "solid-square")


def _criterion_4(seed, out):
    rng = np.random.default_rng(seed)
    worst_sum = 0.0
    worst_grad = 0.0
    for name in _C4_SETS:
        S, _ = generate_canonical(CanonicalSpec(name, 1 / 128))
        W = whitney_decomposition(S)
        pts = _off_set_points(S, 2500, rng, 2 * S.h)
        B = _raw_bumps(W, pts)
        total = B.sum(axis=1)
        if np.any(total <= 0):
            return False, f"{name}: {int(np.sum(total <= 0))} points carry no bump"
        worst_sum = max(worst_sum, float(np.abs(B.sum(axis=1) / total - 1).max()))
        for a in range(S.dim):
            u = np.abs(pts[:, a, None] - W.centers[None, :, a]) / W.radii[None, :]
            if np.any((B > 0) & (u >= GROWTH * (1 + 1e-12))):
                return False, f"{name}: a bump is positive outside its grown cube"
        # spot-check the production bump rows against the dense route
        spot = rng.choice(len(pts), size=50, replace=False)
        rows, _ = W.bumps(pts[spot])
        for k, lo, hi in zip(spot, rows.indptr[:-1], rows.indptr[1:]):
            cand, phi = rows.indices[lo:hi], rows.data[lo:hi] / rows.data[lo:hi].sum()
            dense = B[k] / total[k]
            if np.abs(dense[cand] - phi).max(initial=0.0) > 1e-12:
                return False, f"{name}: a W.bumps row disagrees with the dense bump route"
            if abs(dense.sum() - phi.sum()) > 1e-12:
                return False, f"{name}: a W.bumps row misses a positive bump"
        eta = S.h * 1e-3
        grads = np.zeros_like(B)
        for a in range(S.dim):
            e = np.zeros(S.dim)
            e[a] = eta
            Bp = _raw_bumps(W, pts + e)
            Bm = _raw_bumps(W, pts - e)
            Pp = Bp / np.maximum(Bp.sum(axis=1, keepdims=True), 1e-300)
            Pm = Bm / np.maximum(Bm.sum(axis=1, keepdims=True), 1e-300)
            grads += ((Pp - Pm) / (2 * eta)) ** 2
        bound = np.sqrt(grads) * (2 * W.radii)[None, :]
        peak = float(np.max(np.where(B > 0, bound, 0.0)))
        if peak > 40 * S.dim:
            return False, f"{name}: |grad phi| * diam reaches {peak:.1f} > {40 * S.dim}"
        worst_grad = max(worst_grad, peak / (40 * S.dim))
    if worst_sum > 1e-12:
        return False, f"partition sums off by {worst_sum:.2e}"
    return True, (
        f"10^4 points on 4 sets: sums exact, supports exact, "
        f"|grad|*diam <= {worst_grad:.0%} of the bound"
    )


def _criterion_5(seed, out):
    rng = np.random.default_rng(seed)
    min_ratio = 1.0
    for trial in range(50):
        m = int(rng.integers(3, 13))
        dim = 1 + trial % 2
        centers = rng.uniform(0, 1, (m, dim))
        radii = rng.uniform(0.05, 0.3, m)
        scores = rng.uniform(0, 1, m) ** 2
        optimum = _brute_force_packing(centers, radii, scores)
        greedy = solve_packing(PackingProblem(centers, radii, scores)).value
        # greedy sums its picks in admission order, the enumeration in index order
        if greedy > optimum * (1 + 1e-12):
            return False, f"trial {trial}: greedy {greedy} > enumerated optimum {optimum}"
        if optimum > 0:
            ratio = greedy / optimum
            if ratio < 0.5 - 1e-12:
                return False, f"trial {trial}: greedy/optimum = {ratio:.3f} < 0.5"
            min_ratio = min(min_ratio, ratio)
    chain = (np.array([[0.0], [1.0], [2.0]]), np.full(3, 0.6), np.array([2.0, 3.0, 2.0]))
    g = solve_packing(PackingProblem(*chain)).value
    e = _brute_force_packing(*chain)
    if not (g == 3.0 and e == 4.0):
        return False, f"chain gap case: greedy {g}, optimum {e} (want 3 and 4)"
    return True, f"50 instances greedy <= optimum, greedy/optimum >= {min_ratio:.3f}, chain gap 3/4"


def _c6_fields():
    fields = list(_smooth_fields())
    fields.append(_bump_field((0.5, 0.5), 0.3))
    fields.append(lambda pts: np.asarray(pts, float) @ np.array([1.0, 2.0]))
    return fields


def _c6_quotient(F, p):
    ts = dyadic_ladder(4 * F.h, 0.5)
    return np.max(grid_packing_profile(F, ts, p) / ts) / grid_sobolev_norms(F, p).seminorm


def _criterion_6(seed, out):
    t0 = time.perf_counter()
    box = np.array([[0.0, 1.0], [0.0, 1.0]])
    p = 3.0
    coarse, fine = [], []
    for fn in _c6_fields():
        coarse.append(_c6_quotient(GridField.from_function(box, 1 / 128, fn), p))
        fine.append(_c6_quotient(GridField.from_function(box, 1 / 256, fn), p))
    coarse, fine = np.array(coarse), np.array(fine)
    spread = float(coarse.max() / coarse.min())
    if spread > 50:
        return False, f"family spread {spread:.1f} > 50"
    drift = float(np.abs(fine / coarse - 1).max())
    if drift > 0.25:
        return False, f"refinement changes a quotient by {drift:.0%} > 25%"
    dt = time.perf_counter() - t0
    if dt >= 300:
        return False, f"runtime {dt:.0f}s exceeds the 5 min budget"
    return True, f"10 fields: spread {spread:.2f}, refinement drift <= {drift:.1%}, {dt:.0f}s"


# cantor-1d pairs 3-adic geometry with dyadic h-ladders; ratios beat with
# a log-periodic phase, so its stability window is the adjacent pair where
# the phases align
_C78_LEVELS = {
    "segment-1d-in-2d": (1 / 128, 1 / 256),
    "cantor-1d": (1 / 512, 1 / 1024),
}


def _two_sided_check(theorem, seed, out, tag):
    worst_spread = 0.0
    worst_delta = 0.0
    worst_c = 0.0
    for set_name, levels in _C78_LEVELS.items():
        rep = verify_equivalence(
            theorem, set_name, "restrictions-of-smooth", levels, p=3.0, seed=seed
        )
        if out is not None:
            rep.save(Path(out) / f"{tag}_{set_name}.json")
        spreads = [st["spread"] for st in rep.ratio_stats.values() if st["spread"]]
        worst_spread = max(worst_spread, max(spreads))
        if worst_spread > 100:
            return False, f"{set_name}: ratio spread {worst_spread:.1f} > 100"
        deltas = [d for ds in rep.refinement_deltas.values() for d in ds]
        worst_delta = max(worst_delta, max(deltas))
        if worst_delta > 0.30:
            return False, f"{set_name}: refinement delta {worst_delta:.2f} > 0.30"
        cs = [e["intrinsic"] / e["known"] for e in rep.entries if e.get("known")]
        if not cs or not np.all(np.isfinite(cs)):
            return False, f"{set_name}: missing known-source norms"
        worst_c = max(worst_c, max(cs))
        if worst_c > 1000:
            return False, f"{set_name}: necessity constant {worst_c:.1f} > 1000"
    return True, (
        f"spread <= {worst_spread:.1f}, deltas <= {worst_delta:.2f}, "
        f"necessity C <= {worst_c:.2f}"
    )


def _criterion_7(seed, out):
    return _two_sided_check("T11", seed, out, "c7_t11")


def _criterion_8(seed, out):
    return _two_sided_check("T14i", seed, out, "c8_t14i")


def _criterion_9(seed, out):
    # single-cusp members are Besov-finite at every beta > 1/3, so the
    # divergence dichotomy rides on the lacunary member (index 2)
    levels = (1 / 64, 1 / 128, 1 / 256)
    worst_spread = 0.0
    for beta in (0.55, 0.7, 0.85):
        rep = verify_equivalence(
            "T723", "segment-1d-in-2d", f"hoelder({beta})", levels,
            p=3.0, comparison="besov-dset", seed=seed,
        )
        if out is not None:
            rep.save(Path(out) / f"c9_hoelder{beta}.json")
        spreads = [st["spread"] for st in rep.ratio_stats.values() if st["spread"]]
        worst_spread = max(worst_spread, max(spreads))
        if worst_spread > 50:
            return False, f"beta={beta}: ratio spread {worst_spread:.1f} > 50"
        flags = rep.divergence_flags()
        for name, f in flags.items():
            if f["intrinsic"] != f["comparison"]:
                return False, f"{name}: sides disagree on divergence ({f})"
        rough = flags[f"hoelder{beta}-2"]
        want = beta < 1 - 1 / 3.0
        if rough["intrinsic"] is not want:
            return (
                False,
                f"beta={beta}: lacunary member diverges={rough['intrinsic']}, want {want}",
            )
    return True, f"3 exponents: flags agree on both sides, spread <= {worst_spread:.1f}"


def _criterion_10(seed, out):
    S, mu = generate_canonical(CanonicalSpec("example-726", 1 / 256))
    rng = np.random.default_rng(seed)
    xs = mu.points[rng.choice(len(mu.points), size=200)]
    rs = np.exp(rng.uniform(np.log(4 * S.h), np.log(0.5), size=200))
    ratio = mu.ball_mass(xs, rs) / comb_mass_law(xs, rs)
    if np.any((ratio < 1 / 8) | (ratio > 8)):
        k = int(np.argmax(np.abs(np.log(ratio))))
        return False, f"mass/law = {ratio[k]:.3f} at x={xs[k]}, r={rs[k]:.4f}"
    diag = measure_diagnostics(mu, seed=seed)
    if diag.doubling_constant > 64:
        return False, f"doubling constant {diag.doubling_constant:.1f} > 64"
    if diag.exponent_drift < 0.6:
        return False, f"exponent drift {diag.exponent_drift:.2f} < 0.6 (reads as a d-set)"
    return True, (
        f"200 pairs within [{ratio.min():.2f}, {ratio.max():.2f}] of the law, "
        f"doubling {diag.doubling_constant:.1f}, drift {diag.exponent_drift:.2f}"
    )


_BALL_CONDITION_SETS = ("segment-1d-in-2d", "cantor-1d", "example-726")
# interior pairs on solid sets walk the whole scan ladder; a coarser ratio
# keeps the lower-bound check exact while shrinking the walk
_COARSE_SCAN = ("solid-disk", "solid-square", "axis-line")


def _criterion_11(seed, out):
    rng = np.random.default_rng(seed)
    n_pairs = 10_000
    checked_upper = 0
    for name in CANONICAL_NAMES:
        S, _ = generate_canonical(CanonicalSpec(name, 1 / 128))
        bc = name in _BALL_CONDITION_SETS
        if bc:
            est = S.ball_condition_estimate(seed=seed)
            if not est.satisfied:
                return False, f"{name}: ball condition estimate failed"
            alpha = 1 / (2 * est.beta_hat)
        else:
            alpha = 1 / 15
        ratio = 1.35 if name in _COARSE_SCAN else 1.05
        idx = rng.integers(0, len(S.points), size=(n_pairs, 2))
        X, Y = S.points[idx[:, 0]], S.points[idx[:, 1]]
        rhos, _, _ = S.quasidistances(X, Y, alpha=alpha, ratio=ratio)
        for sep, rho in zip(chebyshev(X, Y).tolist(), rhos.tolist()):
            if rho < sep - 1e-12:
                return False, f"{name}: rho {rho:.4f} < separation {sep:.4f}"
            if bc and 0 < sep <= 0.25:
                checked_upper += 1
                if not rho <= 4 * sep + 4 * S.h + 1e-12:
                    return (
                        False,
                        f"{name}: rho {rho:.4f} > 4*{sep:.4f} + 4h (alpha {alpha:.3f})",
                    )
    return True, (
        f"lower bound exact on 7x{n_pairs} pairs, "
        f"upper bound held on {checked_upper} ball-condition pairs"
    )


_C12_TS = (1 / 32, 1 / 16, 1 / 8)


def _c12_constant(name, h, p=3.0):
    S, mu = generate_canonical(CanonicalSpec(name, h))
    fields = function_family("restrictions-of-smooth", S)[:3]
    # one profile per function serves every sandwich side: A(t/4) and A(4t)
    scales = [t / 4 for t in _C12_TS] + [4 * t for t in _C12_TS]
    C = 0.0
    for f in fields:
        opts = ap_mu_options(S, mu, f.values, p, q=p)
        A = packing_profile(S, f.values, scales, p, **opts).tolist()
        for t, left, right in zip(_C12_TS, A[:3], A[3:]):
            I = t ** p * local_pair_energy(mu, f.values, t, p, kernel="square")
            left, right = left ** p, right ** p
            if left > 0:
                C = max(C, np.inf if I <= 0 else left / I)
            if I > 0:
                C = max(C, np.inf if right <= 0 else I / right)
    return C


def _criterion_12(seed, out):
    details = []
    for name in ("example-726", "segment-1d-in-2d"):
        c_coarse = _c12_constant(name, 1 / 128)
        c_fine = _c12_constant(name, 1 / 256)
        if not (np.isfinite(c_coarse) and np.isfinite(c_fine)):
            return False, f"{name}: a sandwich side vanished"
        if max(c_coarse, c_fine) > 1e4:
            return False, f"{name}: sandwich constant {max(c_coarse, c_fine):.3g} > 1e4"
        drift = abs(c_fine / c_coarse - 1)
        if drift > 0.30:
            return False, f"{name}: constant moves {drift:.0%} under refinement"
        details.append(f"{name} C={c_fine:.3g} ({drift:.1%} drift)")
    return True, "; ".join(details)


def quick_reports(out_dir, seed: int = 0) -> list[Path]:
    """Small deterministic report pipeline exercised twice by the
    determinism criterion; also what demo --profile quick writes."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def dump(name, payload):
        path = out / name
        path.write_text(json_text(payload, name) + "\n")
        written.append(path)

    S, mu = generate_canonical(CanonicalSpec("segment-1d-in-2d", 1 / 64))
    dump("whitney_contract.json", whitney_contract_report(S, seed=seed))
    fam = function_family("restrictions-of-smooth", S)
    nr = trace_estimate(S, fam[0].values, TraceEstimateConfig(theorem="T11", p=3.0))
    dump("tracenorm_t11.json", {"theorem": "T11", **nr.to_json()})
    rep = verify_equivalence(
        "T11", "segment-1d-in-2d", "linear", (1 / 64, 1 / 128), p=3.0, seed=seed
    )
    rep.save(out / "verify_t11.json")
    written.append(out / "verify_t11.json")
    rep = verify_equivalence(
        "T723", "segment-1d-in-2d", "hoelder(0.7)", (1 / 64, 1 / 128),
        p=3.0, comparison="besov-dset", seed=seed,
    )
    rep.save(out / "verify_t723_besov.json")
    written.append(out / "verify_t723_besov.json")
    Sc, muc = generate_canonical(CanonicalSpec("example-726", 1 / 64))
    famc = function_family("restrictions-of-smooth", Sc)
    dump(
        "functional_ap_mu.json",
        A_p_mu(Sc, muc, famc[0].values, 1 / 8, 3.0, q=3.0),
    )
    return written


def _criterion_13(seed, out):
    base = Path(out) if out is not None else Path("demo_out")
    d1 = base / "determinism" / "run1"
    d2 = base / "determinism" / "run2"
    quick_reports(d1, seed=seed)
    quick_reports(d2, seed=seed)
    names1 = sorted(p.name for p in d1.iterdir())
    names2 = sorted(p.name for p in d2.iterdir())
    if names1 != names2:
        return False, f"file sets differ: {names1} vs {names2}"
    for name in names1:
        if (d1 / name).read_bytes() != (d2 / name).read_bytes():
            return False, f"{name} differs between runs"
    return True, f"{len(names1)} report files byte-identical across two runs"


_CRITERIA = (
    ("C01 whitney-contract", _criterion_1),
    ("C02 packing-colors", _criterion_2),
    ("C03 extension-algebra", _criterion_3),
    ("C04 partition-of-unity", _criterion_4),
    ("C05 packing-oracle", _criterion_5),
    ("C06 gradient-criterion", _criterion_6),
    ("C07 mixed-packing-equivalence", _criterion_7),
    ("C08 sharp-maximal-equivalence", _criterion_8),
    ("C09 besov-identification", _criterion_9),
    ("C10 comb-measure-law", _criterion_10),
    ("C11 quasidistance-bounds", _criterion_11),
    ("C12 pair-energy-sandwich", _criterion_12),
    ("C13 determinism", _criterion_13),
)


def run(number: int, seed: int = 0, out_dir=None) -> CriterionResult:
    """Run one criterion (1-based) and wrap its verdict with timing."""
    label, fn = _CRITERIA[number - 1]
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    passed, detail = fn(seed, out_dir)
    return CriterionResult(label, passed, detail, time.perf_counter() - t0)


def run_all(out_dir=None, seed: int = 0) -> list[CriterionResult]:
    return [run(k, seed=seed, out_dir=out_dir) for k in range(1, len(_CRITERIA) + 1)]
