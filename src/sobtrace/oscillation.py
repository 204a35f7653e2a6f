"""Oscillation-based functionals: packings of cubes scored by local variation.

The central object is the packing functional

    value(t)^p = sup over packings of equal cubes (diam <= t, centers on the
                 set) of  sum |Q| * osc(f over Q)^p,

computed over candidate cubes at trial diameters t, t/2, t/4, t/8 with a
greedy disjoint selection, which admits a cube when its interior meets no
admitted one (cubes.interiors_meet; criterion C05 bounds it against the
optimum that enumeration finds under the same rule). The selection tests
its candidates in blocks through broadcast interiors_meet calls, which
form every pair's test as the one-row call does, so its picks are those
of the one-at-a-time walk.
A packing fills one table, {tau: (power sum, count)} over the distinct trial
diameters of its scales, and _breakdown reads each scale from it: sets
through packing_profile, grid fields (a raster walk, every node a candidate
center) through grid_packing_functional and grid_packing_profile.
Variants restrict centers to boundary samples, require the cubes to be
porous, or replace the score of cube_oscillations by a callable
score_fn(centers, radius) -> scores, called once per trial diameter with all
its candidate cubes (the measure-based local deviations of measures.py).

One routine, _grown, grows the window extrema of both raster functionals:
the grid packing's through its trial diameters in ascending order, the
sharp maximal field's through the dyadic radii, at each only on the nodes
whose window can hold a sample (the samples' node box dilated by the
radius). Everywhere else that radius adds 0; max and min do not round, so
every node keeps the value of the direct filter.

The grid modulus of smoothness, omega_p(f, t), is the sup over lattice
shifts shorter than t of the L_p difference norm. The Besov ladder reads it
through modulus_profile, which differences each shift of the ladder at most
once, and only the shifts that could hold the sup: a shift s moves the field
by at most sum_a |s_a| L_a (L_a the largest one-node step along axis a), so
its norm is bounded by that times (pairs(s) cell)^(1/p), and shifts are
differenced in decreasing bound order until the bound, widened by a slack
that covers every rounding of the norm, falls below the running maximum.
The moduli keep their bits; a field with a non-finite node, or p outside
the range where the slack is derived, is walked in full.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .cubes import interiors_meet
from .grid import GridField
from .sets import ClosedSet
from .util import ConfigError, chebyshev, lex_order

__all__ = [
    "cube_oscillations",
    "PackingProblem",
    "PackingResult",
    "solve_packing",
    "packing_functional_details",
    "packing_profile",
    "grid_packing_functional",
    "grid_packing_profile",
    "sharp_maximal",
    "sharp_maximal_field",
    "modulus_profile",
    "modulus_of_smoothness",
]


def cube_oscillations(tree, values, centers, reach) -> np.ndarray:
    """max - min of values over the points of tree within uniform distance
    reach of each of the centers, from one ball query; an empty cube reads 0."""
    groups = tree.query_ball_point(centers, reach, p=np.inf)
    sizes = np.fromiter(map(len, groups), int, len(groups))
    vals = values[np.fromiter(itertools.chain.from_iterable(groups), int, int(sizes.sum()))]
    starts = (np.cumsum(sizes) - sizes)[sizes > 0]
    osc = np.zeros(len(groups))
    osc[sizes > 0] = np.maximum.reduceat(vals, starts) - np.minimum.reduceat(vals, starts)
    return osc


# -- packing solver ----------------------------------------------------


@dataclass
class PackingProblem:
    centers: np.ndarray  # (m, n)
    radii: np.ndarray  # (m,)
    scores: np.ndarray  # (m,)


@dataclass(frozen=True)
class PackingResult:
    value: float
    chosen: np.ndarray


def _greedy_order(problem: PackingProblem) -> np.ndarray:
    keys = tuple(problem.centers.T[::-1]) + (problem.radii, -problem.scores)
    return np.lexsort(keys)


def solve_packing(problem: PackingProblem, mode: str = "greedy") -> PackingResult:
    """A subfamily of positive-score cubes with pairwise disjoint interiors,
    picked greedily: in decreasing score order (ties by lexicographic
    center), each cube whose interior meets no admitted one is admitted.
    "greedy" is the only mode."""
    if mode != "greedy":
        raise ConfigError(f"unknown packing mode {mode!r}")
    positive = np.nonzero(problem.scores > 0)[0]
    if len(positive) == 0:
        return PackingResult(0.0, np.zeros(0, int))
    sub = PackingProblem(
        problem.centers[positive], problem.radii[positive], problem.scores[positive]
    )
    chosen = positive[_solve_greedy(sub)]
    return PackingResult(float(problem.scores[chosen].sum()), np.sort(chosen))


_GREEDY_BLOCK = 32  # candidates per step of the greedy set packing


def _solve_greedy(problem: PackingProblem) -> np.ndarray:
    """The picks of the greedy packing, in admission order.

    The greedy order is taken in blocks of _GREEDY_BLOCK candidates. One
    broadcast interiors_meet call drops the block's candidates that meet
    an admitted cube (admissions only add conflicts, so this changes no
    pick), and the survivors are admitted in order against the block's own
    broadcast interiors_meet matrix. Broadcasting forms each pair's
    chebyshev gap and radius + radii - 1e-12 as the one-row call does, so
    every pick, and its order, is that of the one-candidate-at-a-time walk.
    """
    order = _greedy_order(problem)
    centers, radii = problem.centers[order], problem.radii[order]
    C = np.empty_like(centers)
    R = np.empty_like(radii)
    chosen: list = []
    for start in range(0, len(order), _GREEDY_BLOCK):
        k = len(chosen)
        c, r = centers[start:start + _GREEDY_BLOCK], radii[start:start + _GREEDY_BLOCK]
        free = np.nonzero(~interiors_meet(c[:, None], r[:, None], C[:k], R[:k]).any(axis=1))[0]
        c, r = c[free], r[free]
        meet = interiors_meet(c[:, None], r[:, None], c, r)
        live = np.ones(len(free), bool)
        for a in range(len(free)):
            if live[a]:
                live[a + 1:] &= ~meet[a, a + 1:]
                C[len(chosen)], R[len(chosen)] = c[a], r[a]
                chosen.append(start + int(free[a]))
    return order[np.array(chosen, int)]


# -- packing functionals over sampled sets -----------------------------


def _thin_candidates(points: np.ndarray, tau: float) -> np.ndarray:
    """Deduplicate candidate centers on a tau/8 lattice (lex-smallest per
    cell) so the candidate count stays bounded at coarse scales."""
    cell = tau / 8.0
    keys = np.floor(points / cell + 1e-12).astype(np.int64)
    order = lex_order(points)
    # the first of each cell in lexicographic order (np.unique's sort is stable)
    _, first = np.unique(keys[order], axis=0, return_index=True)
    return np.sort(order[first])


def _default_taus(t: float) -> list:
    return [t, t / 2, t / 4, t / 8]


def _trial_diameters(ts, p: float) -> list:
    """The distinct trial diameters t, t/2, t/4, t/8 of the scales ts, in the
    order the scales first reach them; p and every t must be finite and > 0."""
    if not 0 < p < np.inf:
        raise ConfigError(f"packing functional needs finite p > 0, got {p}")
    for t in ts:
        if not 0 < t < np.inf:
            raise ConfigError(f"packing functional needs finite t > 0, got {t}")
    return list(dict.fromkeys(tau for t in ts for tau in _default_taus(t)))


def _breakdown(table: dict, t: float, p: float) -> dict:
    """Scale t of a packing table: the best power sum over t, t/2, t/4, t/8
    (the first tau reaching it), its p-th root, and the rows (tau, *table[tau])."""
    per_tau = [(tau, *table[tau]) for tau in _default_taus(t)]
    best, best_tau = 0.0, None
    for tau, total, _ in per_tau:
        if total > best:
            best, best_tau = total, tau
    return {"value": best ** (1.0 / p), "power_sum": best, "best_tau": best_tau,
            "per_tau": per_tau}


def _packing_table(S: ClosedSet, f_vals, ts, p: float, *, centers: str = "set",
                   alpha: float | None = None, strong: bool = False,
                   score_fn=None) -> dict:
    """{tau: (power sum, cubes chosen)} for each tau of _trial_diameters(ts, p),
    packed once; the options are those of packing_functional_details."""
    taus = _trial_diameters(ts, p)
    if centers not in ("set", "boundary"):
        raise ConfigError(f"unknown packing centers {centers!r}")
    f_vals = S.sample_values(f_vals, "packing functional")
    # the boundary samples are the samples outside the interior mask, in order
    center_set = S if centers == "set" else S.boundary()
    score_vals = f_vals if centers == "set" else f_vals[~S.interior_mask()]
    if score_fn is None:
        def score_fn(cand, radius):
            osc = cube_oscillations(center_set.tree, score_vals, cand, radius + 1e-12)
            return [(2 * radius) ** S.dim * o ** p for o in osc.tolist()]
    table = {}
    for tau in taus:
        cand_idx = _thin_candidates(center_set.points, tau)
        cand = center_set.points[cand_idx]
        radius = tau / 2.0
        if alpha is not None:
            cand = cand[S.porous(cand, radius, alpha, strong=strong)]
        if len(cand) == 0:
            table[tau] = (0.0, 0)
            continue
        scores = np.array(score_fn(cand, radius), float)
        result = solve_packing(PackingProblem(cand, np.full(len(cand), radius), scores))
        table[tau] = (result.value, len(result.chosen))
    return table


def packing_functional_details(S: ClosedSet, f_vals, t: float, p: float, **options) -> dict:
    """Packing functional with per-trial-diameter breakdown, at the trial
    diameters t, t/2, t/4, t/8.

    Options: cubes are centered on the set's samples (centers "set", the
    default) or on its boundary samples ("boundary"); with alpha they must
    be alpha-porous (strongly so with strong=True); the packing is
    greedy. score_fn(centers, radius) -> scores,
    called once per trial diameter with all its (m, n) candidate centers,
    can replace the default score |Q| * osc^p, osc taken over the center
    set's samples in Q (the boundary samples for boundary-centered packings,
    so that boundary variants score osc over Q cap dS).
    """
    return _breakdown(_packing_table(S, f_vals, [t], p, **options), t, p)


def packing_profile(S: ClosedSet, f_vals, ts, p: float, **options) -> np.ndarray:
    """The packing functional at every scale of ts, with the options of
    packing_functional_details. A trial diameter that several scales share
    (on a dyadic ladder t/2 of one scale is the next scale down) is packed
    once."""
    table = _packing_table(S, f_vals, ts, p, **options)
    return np.array([_breakdown(table, t, p)["value"] for t in ts])


# -- packing functional for grid fields --------------------------------


_WALK_CHUNK = 512  # nodes per step of the greedy grid walk


def _grid_packing_table(F: GridField, ts, p: float) -> dict:
    """{tau: (power sum, nodes admitted)} for each tau of _trial_diameters(ts,
    p), packed once; every node is a candidate center.

    Trial diameter k h reads the extrema of f over the window of half-width
    k // 2 around each node, the nodes of its cube (for odd k its corners
    sit at half cells), grown (_grown) through the diameters in ascending
    k. The greedy packing walks the nodes of positive score in decreasing
    score order (ties by flat index). An admitted node i blocks the patch
    [i-k+1, i+k), the nodes whose cubes' interiors meet its own: the rule of
    cubes.interiors_meet on nodes, where a center gap below the diameter k h
    is one of at most k-1 nodes on every axis.
    The `blocked` raster is padded by k-1 nodes on every side, so that patch
    is the (2k-1)^d window that starts at padded index i on every axis, and
    one strided view of the padded buffer holds every such window, indexed
    by the window's flat origin. The walk takes the order in chunks; each
    chunk is mapped to window origins and drops, in one vectorised lookup,
    the nodes it finds already blocked (blocking is monotone, so that
    changes no admission). A surviving node then costs one check, the
    padded raster at its origin plus the center offset, and, if admitted,
    one store of its window, with no per-axis index arithmetic. The
    survivors' scores are read once per chunk, as Python floats, and summed
    in admission order.
    """
    shape, taus = F.values.shape, _trial_diameters(ts, p)
    hi, lo, m = F.values, F.values, 0  # the extrema over the windows of half-width m
    table = {}
    for tau in sorted(taus, key=lambda tau: round(tau / F.h)):
        k = int(round(tau / F.h))
        if k < 1 or 2 * k >= min(shape):
            table[tau] = (0.0, 0)
            continue
        while m < k // 2:
            step = min(max(m, 1), k // 2 - m)
            hi, _ = _grown(hi, [0] * F.dim, m, step, shape, np.maximum, -np.inf)
            lo, _ = _grown(lo, [0] * F.dim, m, step, shape, np.minimum, np.inf)
            m += step
        score = (hi - lo) ** p * tau ** F.dim
        margin = (k + 1) // 2  # cube must fit inside the box
        valid = np.zeros(shape, bool)
        valid[tuple(slice(margin, s - margin) for s in shape)] = True
        score = np.where(valid, score, 0.0)
        flat = score.ravel()
        cand = np.nonzero(flat > 0)[0]
        # cand ascends, so a stable sort breaks score ties by flat index
        order = cand[np.argsort(-flat[cand], kind="stable")]
        padded = np.zeros(tuple(s + 2 * (k - 1) for s in shape), bool)
        pflat = padded.reshape(-1)
        # bool items are one byte, so byte strides are index strides
        span = (2 * k - 2) * sum(padded.strides)  # window's last node - origin
        patches = np.lib.stride_tricks.as_strided(
            pflat,
            shape=(padded.size - span,) + (2 * k - 1,) * F.dim,
            strides=(1,) + padded.strides,
        )
        centers = pflat[span // 2:]  # centers[o]: the middle node of the window at o
        total, count = 0.0, 0
        for start in range(0, len(order), _WALK_CHUNK):
            chunk = order[start:start + _WALK_CHUNK]
            origins = np.ravel_multi_index(np.unravel_index(chunk, shape), padded.shape)
            keep = ~centers[origins]
            for pos, node_score in zip(origins[keep].tolist(), flat[chunk[keep]].tolist()):
                if centers[pos]:
                    continue
                total += node_score
                count += 1
                patches[pos] = True
        table[tau] = (total, count)
    return {tau: table[tau] for tau in taus}


def grid_packing_functional(F: GridField, t: float, p: float, details: bool = False):
    """Packing functional of a grid field at t, every node a candidate center;
    with details, the breakdown of packing_functional_details."""
    out = _breakdown(_grid_packing_table(F, [t], p), t, p)
    return out if details else out["value"]


def grid_packing_profile(F: GridField, ts, p: float) -> np.ndarray:
    """grid_packing_functional at every scale of ts, each trial diameter packed once."""
    table = _grid_packing_table(F, ts, p)
    return np.array([_breakdown(table, t, p)["value"] for t in ts])


# -- sharp maximal functions -------------------------------------------


def sharp_maximal(
    S: ClosedSet,
    f_vals,
    x,
    variant: str = "range_ratio",
) -> float:
    """Pointwise sharp maximal function.

    range_ratio: sup over r of osc(f over Q(x, r) cap S) / r, evaluated
        exactly at the radii where new samples enter the cube.
    l1_density_ratio: sup over dyadic r of the L_1 deviation mass of f over
        Q(x, r) cap S (cell-weighted) divided by r^(n+1).
    """
    x = np.asarray(x, float)
    if x.shape != (S.dim,):
        raise ConfigError(f"sharp maximal point needs shape ({S.dim},), got {x.shape}")
    if not np.isfinite(x).all():
        raise ConfigError(f"sharp maximal point x must be finite, got {x.tolist()}")
    f_vals = S.sample_values(f_vals, "sharp maximal function")
    if variant == "range_ratio":
        d = chebyshev(S.points, x)
        order = np.argsort(d, kind="stable")
        d_sorted = d[order]
        v = f_vals[order]
        run_max = np.maximum.accumulate(v)
        run_min = np.minimum.accumulate(v)
        # at tied radii the whole tie block enters at once
        uniq, last = np.unique(d_sorted[::-1], return_index=True)
        last = len(d_sorted) - 1 - last
        osc = run_max[last] - run_min[last]
        keep = uniq > 0
        if not keep.any():
            return 0.0
        return float(np.max(osc[keep] / uniq[keep]))
    if variant == "l1_density_ratio":
        best = 0.0
        r = S.h
        extent = float(np.max(S.bbox[:, 1] - S.bbox[:, 0]))
        while r <= extent:
            idx = S.tree.query_ball_point(x, r + 1e-12, p=np.inf)
            if idx:
                vals = f_vals[np.array(idx, int)]
                mass = np.sum(np.abs(vals - vals.mean())) * S.h ** S.dim
                best = max(best, mass / r ** (S.dim + 1))
            r *= 2
        return best
    raise ConfigError(f"unknown sharp maximal variant {variant!r}")


def _grown(a: np.ndarray, start: list, m: int, k: int, shape: tuple, pick, fill: float) -> tuple:
    """(b, b_start): pick (np.maximum or np.minimum) over the windows [x - m
    - k, x + m + k] on every axis, from a, pick over the windows [x - m,
    x + m]; k <= m, or k = 1 at m = 0.

    a is the crop of a full-grid array that starts at node start and reads
    fill (the neutral value of pick) everywhere outside it; b is the crop
    grown by k nodes on every side, cut to the grid, which holds every node
    whose wider window meets the crop.  Axis by axis, the wider window is
    the union of the narrower ones at x - k and at x + k (and x at m = 0):
    b[x] = pick(a[x - k], a[x + k]), then pick(b[x], a[x]) at m = 0.  A
    shift that leaves the crop but stays in the grid reads fill; a shift
    that would leave the grid stops at the edge node: what the wider window
    holds inside the grid on that side lies in the edge node's window,
    which lies inside the wider window.  Each axis's result is picked
    straight from a's rows, fill and edge rows (_shifted_rows), over the
    runs of x whose shifts each read one of the three, with no padded copy.
    max and min do not round, so the result equals the direct filter of
    the full array, edge node repeated (ndimage's mode "nearest"); a window
    that holds a NaN reads NaN."""
    start = list(start)
    for axis in range(a.ndim):
        v = np.moveaxis(a, axis, 0)
        n, s, c = shape[axis], start[axis], len(v)
        lo, hi = max(0, s - k), min(n, s + c + k)  # the grown crop [lo, hi)
        b = np.empty((hi - lo,) + v.shape[1:])
        # the x where a shifted read changes kind: leaves the grid or the crop
        cuts = sorted({lo, hi, k, s + k, s + c + k, n - k, s - k, s + c - k, s, s + c})
        for x0, x1 in zip(cuts, cuts[1:]):
            if not lo <= x0 < x1 <= hi:
                continue
            read = functools.partial(_shifted_rows, v, s, n, fill, x0, x1)
            out = b[x0 - lo:x1 - lo]
            pick(read(-k), read(k), out=out)
            if m == 0:
                pick(out, read(0), out=out)
        a = np.moveaxis(b, 0, axis)
        start[axis] = lo
    return a, start


def _shifted_rows(v: np.ndarray, s: int, n: int, fill: float, x0: int, x1: int, d: int):
    """What nodes x0 .. x1 - 1 of an axis of n nodes read at shift d,
    clamped to the grid, from v, the crop of that axis that starts at node
    s: a slice of v, one row of v (an edge row, broadcast), or fill outside
    the crop.  The nodes must all read one of the three."""
    y0 = min(max(x0 + d, 0), n - 1) - s
    if not 0 <= y0 < len(v):
        return fill
    if 0 <= x0 + d <= n - 1:
        return v[y0:y0 + x1 - x0]
    return v[y0:y0 + 1]


def sharp_maximal_field(S: ClosedSet, f_vals) -> GridField:
    """range_ratio sharp maximal function on the set's grid, S.bbox at step S.h.

    Samples are rasterized to their nearest node (max and min layers), and
    each dyadic radius r = k h contributes the oscillation over the window
    of k nodes around each node, divided by r; nodes whose window holds no
    sample contribute 0.  The radius grid resolves the supremum up to a
    factor two, which the empirical-constant comparisons absorb.

    Only the nodes a sample can reach are filtered.  Outside the samples'
    node box B the max layer is -inf and the min layer +inf, so a node
    outside B dilated by k nodes has no sample in its window and that
    radius adds 0 there.  Radius k h keeps its window extrema on (B + k)
    cut to the grid alone: the layers are rasterized on B, and every
    window, the first (k = 1) included, is grown from the one before
    (_grown), with the same values as a direct filter of every window;
    the field is written only in that crop.
    """
    box, h = S.bbox, S.h
    f_vals = S.sample_values(f_vals, "sharp maximal field")
    shape = GridField.shape_for(box, h)
    idx = np.round((S.points - box[:, 0]) / h).astype(int)
    idx = np.clip(idx, 0, np.array(shape) - 1)
    # the crop B: the samples' node box
    start = idx.min(axis=0)
    hi = np.full(tuple(idx.max(axis=0) + 1 - start), -np.inf)
    lo = np.full(hi.shape, np.inf)
    cells = tuple((idx - start).T)
    np.maximum.at(hi, cells, f_vals)
    np.minimum.at(lo, cells, f_vals)
    start = start.tolist()
    out = np.zeros(shape)
    r, k = h, 1
    extent = float(np.max(box[:, 1] - box[:, 0]))
    while r <= extent:
        hi, _ = _grown(hi, start, k // 2, k - k // 2, shape, np.maximum, -np.inf)
        lo, start = _grown(lo, start, k // 2, k - k // 2, shape, np.minimum, np.inf)
        osc = hi - lo
        osc[~np.isfinite(hi) | ~np.isfinite(lo)] = 0.0
        osc /= r
        view = out[tuple(slice(s, s + m) for s, m in zip(start, hi.shape))]
        np.maximum(view, osc, out=view)
        r, k = 2 * r, 2 * k
    return GridField(box, h, out)


# -- modulus of smoothness ---------------------------------------------


_MAX_SHIFTS_PER_AXIS = 33
# error allowances of the shift certificate (see modulus_profile): the unit
# roundoff of one float operation, a relative allowance for one float power
# (2^13 units in the last place; libm's pow and numpy's power loops stay
# within a few), and the floor above which no certified quantity underflows
_UNIT = 2.0 ** -53
_POW_EPS = 2.0 ** -40
_TINY = 2.0 ** -1000


def _shift_norm(vals: np.ndarray, shift: tuple, p: float, cell: float,
                buf: np.ndarray) -> float:
    """L_p norm (cell-weighted) of vals shifted by `shift` nodes minus vals,
    over the nodes where both are defined, computed in a C-contiguous
    prefix of buf so that np.sum reduces it as it would a fresh array. A
    shift as long as its axis leaves no node pair and has norm 0."""
    shape = vals.shape
    shift = [max(-n, min(n, s)) for s, n in zip(shift, shape)]
    a = vals[tuple(slice(max(0, s), min(n, n + s)) for s, n in zip(shift, shape))]
    b = vals[tuple(slice(max(0, -s), min(n, n - s)) for s, n in zip(shift, shape))]
    diff = buf[:a.size].reshape(a.shape)
    np.subtract(a, b, out=diff)
    np.abs(diff, out=diff)
    if np.isinf(p):
        return float(diff.max()) if diff.size else 0.0
    # **= keeps numpy's scalar-exponent fast paths (p = 2 squares), so the
    # bits are those of diff ** p
    diff **= p
    return float((np.sum(diff) * cell) ** (1.0 / p))


def _certificate(vals: np.ndarray, p: float, buf: np.ndarray):
    """(steps, slack) of the shift certificate: the largest one-node
    difference along each axis (the sup norm of its unit shift, 0 on an
    axis of one node), and the factor that covers the rounding of
    _shift_norm; None where the certificate does not hold (a non-finite
    step, p above 2^16, or a slack above 1 + 2^-19)."""
    units = np.eye(vals.ndim, dtype=int).tolist()
    steps = np.array([_shift_norm(vals, unit, np.inf, 1.0, buf) for unit in units])
    x = (3 * vals.size * _UNIT + 4 * _POW_EPS) / p + (2 * vals.ndim + 8) * _POW_EPS
    if not np.all(np.isfinite(steps)) or 2.0 ** 16 < p < np.inf or x > 2.0 ** -20:
        return None
    return steps, 1 + 2 * x


def _shift_bounds(shifts: np.ndarray, shape: tuple, p: float, cell: float,
                  certificate) -> np.ndarray:
    """B(s) * slack for each shift (rows of shifts), where B(s) = (sum_a
    |s_a| L_a) (pairs(s) cell)^(1/p) bounds its L_p difference norm, formed
    as ((sum_a |s_a| L_a)^p pairs(s) cell)^(1/p). B = 0 for a shift without
    node pairs; inf where an intermediate leaves [_TINY, inf), and for
    every shift when there is no certificate."""
    if certificate is None:
        return np.full(len(shifts), np.inf)
    steps, slack = certificate
    reach = np.abs(shifts)
    pairs = np.prod(np.maximum(np.array(shape) - reach, 0), axis=1)
    step_sum = (reach * steps).sum(axis=1)
    if np.isinf(p):
        bound = step_sum
    else:
        with np.errstate(over="ignore", under="ignore"):
            power = step_sum ** p
            energy = power * pairs * cell
            bound = energy ** (1.0 / p)
        certified = (step_sum == 0) | (
            (power >= _TINY) & (energy >= _TINY) & (energy < np.inf) & (bound >= _TINY)
        )
        bound = np.where(certified, bound, np.inf)
    with np.errstate(over="ignore"):
        return np.where(pairs > 0, bound * slack, 0.0)


def modulus_profile(F: GridField, ts, p: float) -> np.ndarray:
    """modulus_of_smoothness at every scale of ts. A shift that several
    scales walk (on a dyadic ladder many shifts of one scale recur at the
    next) is differenced once, and a shift that cannot be the maximum is
    not differenced at all.

    The certificate. In a box grid the path from a node x to x + s through
    single-node steps stays on the grid, so every node pair of a shift s
    differs by at most K(s) = sum_a |s_a| L_a, where L_a is the largest
    one-node difference along axis a, and ||Delta_s f||_p <= B(s) = K(s)
    (pairs(s) cell)^(1/p), pairs(s) = prod_a max(0, n_a - |s_a|) (p = inf:
    B = K). Each scale sets its running maximum from the shifts already
    differenced, then differences the others in decreasing order of B and
    stops at the first with B * slack below the maximum. A maximum of
    floats is exact and does not depend on the order it is taken in (a NaN
    norm never wins it), so the moduli keep their bits.

    The slack covers the rounding of both sides. With u = 2^-53, eps =
    2^-40 for a float power, n nodes and dimension d: the steps and K lose
    at most a factor (1 - u)^-(2d+1) (sums and integer multiples of
    non-negative floats round relatively, also below the normal range);
    each |a - b| a factor (1 + u); its p-th power (1 + eps); a sum of at
    most n terms (1 + 2nu) whatever its order; the cell product (1 + u).
    Requiring K^p, (K^p pairs) cell and B to be at least 2^-1000 (else B =
    inf) makes every underflow of a term, of the product or of the root at
    most 2^-73 of the bound. Through the 1/p-th root the relative errors of
    the sum and the powers grow by 1/p, while the p-fold K and |a - b|
    factors shrink back to their own size, so

        ||Delta_s f||_p (computed) <= B (computed) * exp(x),
        x = (3nu + 4 eps)/p + (2d + 8) eps,

    and slack = 1 + 2x covers exp(x) and the rounding of B * slack. Where
    the argument cannot be made every shift is differenced, as without the
    certificate: a non-finite step (a NaN or infinite node), p above 2^16,
    or x above 2^-20 (p below about 2^-15 on a 257^2 grid); a single shift
    whose bound overflows or underflows is always differenced.
    """
    if not p > 0:
        raise ConfigError(f"modulus of smoothness needs p > 0, got {p}")
    for t in ts:
        if not 0 < t < np.inf:
            raise ConfigError(f"modulus of smoothness needs finite t > 0, got {t}")
    h, vals = F.h, F.values
    cell = h ** F.dim
    buf = np.empty(vals.size)
    certificate = _certificate(vals, p, buf)
    shift_norms: dict = {}
    out = np.zeros(len(ts))
    for j, t in enumerate(ts):
        k_max = int(np.ceil(t / h)) - 1
        if k_max < 1:
            continue
        stride = max(1, int(np.ceil((2 * k_max + 1) / _MAX_SHIFTS_PER_AXIS)))
        axis_vals = sorted(set(range(-k_max, k_max + 1, stride)) | {-k_max, 0, k_max})
        best = 0.0
        fresh = []
        for shift in itertools.product(axis_vals, repeat=F.dim):
            # skip the zero shift and mirror shifts (first nonzero entry < 0)
            if next((s for s in shift if s), 0) <= 0:
                continue
            norm = shift_norms.get(shift)
            if norm is None:
                fresh.append(shift)
            else:
                best = max(best, norm)
        bounds = _shift_bounds(np.array(fresh, int).reshape(-1, F.dim), vals.shape,
                               p, cell, certificate)
        for i in np.argsort(-bounds, kind="stable").tolist():
            if bounds[i] < best:
                break
            shift = fresh[i]
            norm = shift_norms[shift] = _shift_norm(vals, shift, p, cell, buf)
            best = max(best, norm)
        out[j] = best
    return out


def modulus_of_smoothness(F: GridField, t: float, p: float) -> float:
    """sup over lattice shifts shorter than t of the L_p difference norm
    (p = inf: the sup norm).

    Shifts are thinned to _MAX_SHIFTS_PER_AXIS per axis at coarse t (extreme
    shifts kept); opposite shifts cover the same pairs, so only half are
    walked, and of those only the ones whose bound (see modulus_profile)
    could reach the maximum are differenced.
    """
    return float(modulus_profile(F, [t], p)[0])
