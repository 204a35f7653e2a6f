"""Whitney decomposition of a cube complement, partition of unity, extension.

The complement of a closed set inside a padded box is tiled by dyadic cubes
emitted under the rule: emit Q iff dist(Q, S) >= diam Q while the parent cell
violates that test.  Every emitted cube then satisfies

    diam Q <= dist(Q, S) <= 4 diam Q,

the lower bound by the emission test and the upper bound because the parent
(diameter 2 diam Q, distance < 2 diam Q) is only one subdivision away.  The
recursion stops at cell side h; the dropped sub-h cells near the set form a
collar of width at most 2h that stays unresolved.

On top of the decomposition the module provides a smooth partition of unity
subordinate to the 9/8-dilated cubes, a projection sending outside points to
anchor samples on the set, and the linear extension operator

    Ext f = f on the set,  sum_Q c_Q phi_Q off it,

with c_Q = f(anchor of Q) for cubes of diameter <= 2 delta and a constant
fill value on larger cubes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .cubes import GROWTH, Cube
from .grid import GridField
from .sets import ClosedSet
from .util import ConfigError, chebyshev, lex_order

__all__ = [
    "WhitneyDecomposition",
    "whitney_decomposition",
    "collar_profile",
    "extension_coefficients",
    "extend_points",
    "extend_grid",
    "projection_data",
    "compose_with_projection",
]

_FACE_TOL = 1e-12


def collar_profile(u):
    """C^1 tent: 1 on [-1, 1], 0 outside (-9/8, 9/8), cubic ramp between."""
    t = np.clip((np.abs(u) - 1.0) * 8.0, 0.0, 1.0)
    return 1.0 - t * t * (3.0 - 2.0 * t)


def _bump_window_1d(center, radius, lo, h, n_nodes):
    """Node index range and profile values where the grown cube meets a grid."""
    half = GROWTH * radius
    i0 = max(0, int(np.ceil((center - half - lo) / h - 1e-9)))
    i1 = min(n_nodes - 1, int(np.floor((center + half - lo) / h + 1e-9)))
    if i1 < i0:
        return i0, i1, np.zeros(0)
    xs = lo + np.arange(i0, i1 + 1) * h
    return i0, i1, collar_profile((xs - center) / radius)


@dataclass(eq=False)
class WhitneyDecomposition:
    S: ClosedSet
    root_lo: np.ndarray
    root_side: float
    floor_side: float
    centers: np.ndarray  # (m, n)
    radii: np.ndarray  # (m,)
    levels: np.ndarray  # (m,)
    cells: np.ndarray  # (m, n) dyadic cell index at each cube's level
    anchor_idx: np.ndarray  # (m,)
    n_dropped: int
    _level_maps: dict = field(default_factory=dict, repr=False)
    _caches: dict = field(default_factory=dict, repr=False)

    # -- bookkeeping ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.radii)

    @property
    def diams(self) -> np.ndarray:
        return 2.0 * self.radii

    @property
    def anchors(self) -> np.ndarray:
        return self.S.points[self.anchor_idx]

    def cube(self, i: int) -> Cube:
        return Cube(tuple(self.centers[i]), float(self.radii[i]))

    def cubes(self) -> list:
        return [self.cube(i) for i in range(len(self))]

    def filter(self, eps: float) -> np.ndarray:
        """Indices of cubes with diameter at most eps."""
        return np.nonzero(self.diams <= eps * (1 + 1e-12))[0]

    def contract_check(self) -> dict:
        """Distance-vs-diameter contract diagnostics over all cubes."""
        dists = np.maximum(
            0.0,
            self.S.nearest_distance(self.centers)
            - self.radii
            - self.S.sample_radius,
        )
        d = self.diams
        return {
            "n_cubes": len(self),
            "min_dist_over_diam": float(np.min(dists / d)),
            "max_dist_over_diam": float(np.max(dists / d)),
            "lower_slack": float(np.max(d - dists)),
            "upper_slack": float(np.max(dists - 4 * d)),
        }

    # -- point location -------------------------------------------------

    def _level_map(self, level: int) -> dict:
        if level not in self._level_maps:
            sel = np.nonzero(self.levels == level)[0]
            self._level_maps[level] = {
                tuple(int(c) for c in self.cells[k]): int(k) for k in sel
            }
        return self._level_maps[level]

    def locate(self, x) -> int:
        """Index of the cube containing x; face ties resolve to the cube with
        the lexicographically smallest center; -1 when x is unresolved
        (inside the collar or on the set)."""
        x = np.asarray(x, float)
        hits = []
        for level in np.unique(self.levels):
            side = self.root_side / 2 ** int(level)
            frac = (x - self.root_lo) / side
            axes = []
            for a in range(self.S.dim):
                base = int(np.floor(frac[a]))
                cand = {base}
                if abs(frac[a] - round(frac[a])) < _FACE_TOL * max(1.0, abs(frac[a])):
                    cand.update({int(round(frac[a])) - 1, int(round(frac[a]))})
                axes.append(sorted(cand))
            lmap = self._level_map(int(level))
            for combo in itertools.product(*axes):
                k = lmap.get(combo)
                if k is not None and np.all(
                    np.abs(x - self.centers[k])
                    <= self.radii[k] + _FACE_TOL * self.root_side
                ):
                    hits.append(k)
        if not hits:
            return -1
        hits = np.array(sorted(set(hits)), int)
        return int(hits[lex_order(self.centers[hits])[0]])

    # -- partition of unity ---------------------------------------------

    def support_candidates(self, x) -> np.ndarray:
        """Cube indices whose grown support can contain x (superset, exact
        membership decided by the profile value)."""
        x = np.asarray(x, float)
        out = []
        for level in np.unique(self.levels):
            side = self.root_side / 2 ** int(level)
            base = np.floor((x - self.root_lo) / side).astype(int)
            lmap = self._level_map(int(level))
            for offset in itertools.product((-1, 0, 1), repeat=self.S.dim):
                k = lmap.get(tuple(base + np.array(offset)))
                if k is not None:
                    out.append(k)
        return np.array(sorted(set(out)), int)

    def pou_at(self, x) -> tuple:
        """(cube indices, phi values) of the normalized partition of unity at
        a single point; empty when no support reaches x."""
        x = np.asarray(x, float)
        cand = self.support_candidates(x)
        if len(cand) == 0:
            return cand, np.zeros(0)
        u = (x[None, :] - self.centers[cand]) / self.radii[cand, None]
        b = np.prod(collar_profile(u), axis=1)
        keep = b > 0
        cand, b = cand[keep], b[keep]
        total = b.sum()
        if total <= 0:
            return cand, b
        return cand, b / total

    # -- grid caches ----------------------------------------------------

    def _grid_key(self, box, h) -> tuple:
        box = np.asarray(box, float)
        return (box.tobytes(), float(h))

    def pou_matrix(self, box, h) -> tuple:
        """Sparse (nodes x cubes) matrix of raw bump values on a grid, plus
        the per-node total; cached per grid."""
        key = ("pou",) + self._grid_key(box, h)
        if key in self._caches:
            return self._caches[key]
        box = np.asarray(box, float)
        shape = GridField.shape_for(box, h)
        n_nodes = int(np.prod(shape))
        rows, cols, vals = [], [], []
        for k in range(len(self)):
            per_axis = [
                _bump_window_1d(self.centers[k, a], self.radii[k], box[a, 0], h, shape[a])
                for a in range(self.S.dim)
            ]
            if any(w[1] < w[0] for w in per_axis):
                continue
            local = per_axis[0][2]
            for a in range(1, self.S.dim):
                local = np.multiply.outer(local, per_axis[a][2])
            idx = np.meshgrid(
                *[np.arange(w[0], w[1] + 1) for w in per_axis], indexing="ij"
            )
            flat = np.ravel_multi_index([i.ravel() for i in idx], shape)
            mask = local.ravel() > 0
            rows.append(flat[mask])
            cols.append(np.full(int(mask.sum()), k))
            vals.append(local.ravel()[mask])
        if rows:
            matrix = sparse.csr_matrix(
                (
                    np.concatenate(vals),
                    (np.concatenate(rows), np.concatenate(cols)),
                ),
                shape=(n_nodes, len(self)),
            )
        else:
            matrix = sparse.csr_matrix((n_nodes, len(self)))
        den = np.asarray(matrix.sum(axis=1)).ravel()
        self._caches[key] = (matrix, den)
        return matrix, den

    def grid_set_info(self, box, h) -> dict:
        """Distances and nearest-sample indices of grid nodes; cached."""
        key = ("setinfo",) + self._grid_key(box, h)
        if key in self._caches:
            return self._caches[key]
        box = np.asarray(box, float)
        shape = GridField.shape_for(box, h)
        nodes = GridField(box, h, np.zeros(shape)).nodes()
        nn_dist, nn_idx = self.S.tree.query(nodes, p=np.inf)
        dist = np.maximum(0.0, nn_dist - self.S.sample_radius)
        tol = self.S.h / 2.0 if self.S.kind == "thin" else self.S.sample_radius
        on_set = nn_dist <= tol + 1e-12
        # on-set nodes take their nearest sample's value, so ties there go to
        # the lexicographically smallest sample, as in extend_points; the
        # second-nearest distance tells which of them have a tie to break
        on_idx = np.nonzero(on_set)[0]
        second = self.S.tree.query(nodes[on_idx], k=2, p=np.inf)[0][:, 1]
        near = nn_dist[on_idx]
        tied = on_idx[second <= near + 1e-12 * (1.0 + near)]
        info = {
            "shape": shape,
            "dist": dist,
            "nearest": _lex_tie_break(self.S, nodes, nn_dist, nn_idx, tied),
            "on_set": on_set,
        }
        self._caches[key] = info
        return info

    def projection_map(self, box, h) -> np.ndarray:
        """Per-node index of the containing cube, painted so shared faces go
        to the lexicographically smallest center; -1 where unresolved."""
        key = ("tmap",) + self._grid_key(box, h)
        if key in self._caches:
            return self._caches[key]
        box = np.asarray(box, float)
        shape = GridField.shape_for(box, h)
        cube_of = np.full(shape, -1, int)
        order = lex_order(self.centers)[::-1]  # lex-smallest painted last
        for k in order:
            slices = []
            empty = False
            for a in range(self.S.dim):
                i0 = int(np.ceil((self.centers[k, a] - self.radii[k] - box[a, 0]) / h - 1e-9))
                i1 = int(np.floor((self.centers[k, a] + self.radii[k] - box[a, 0]) / h + 1e-9))
                i0, i1 = max(0, i0), min(shape[a] - 1, i1)
                if i1 < i0:
                    empty = True
                    break
                slices.append(slice(i0, i1 + 1))
            if not empty:
                cube_of[tuple(slices)] = k
        self._caches[key] = cube_of
        return cube_of


def _lex_tie_break(S: ClosedSet, x, nn_dist, nn_idx, rows) -> np.ndarray:
    """Copy of nn_idx, the nearest-sample indices of the points x, in which
    each of the given rows that has several equally near samples takes the
    lexicographically smallest of them, the one ClosedSet.nearest_point picks."""
    out = nn_idx.astype(int)
    reach = nn_dist[rows] + 1e-12 * (1.0 + nn_dist[rows])
    groups = S.tree.query_ball_point(x[rows], reach, p=np.inf)
    sizes = np.fromiter(map(len, groups), int, len(groups))
    cand = np.fromiter(itertools.chain.from_iterable(groups), int, int(sizes.sum()))
    owner = np.repeat(np.arange(len(groups)), sizes)
    keep = chebyshev(S.points[cand], x[rows][owner]) <= reach[owner]
    cand, owner = cand[keep], owner[keep]
    # per owner, lexicographic on the sample, then the smaller index
    order = np.lexsort((cand,) + tuple(S.points[cand].T[::-1]) + (owner,))
    first = order[np.diff(owner[order], prepend=-1) != 0]
    out[rows[owner[first]]] = cand[first]
    return out


def whitney_decomposition(S: ClosedSet, box=None, floor_side: float | None = None) -> WhitneyDecomposition:
    """Emit the dyadic Whitney family for the complement of S inside a box.

    The root is the smallest cube anchored at the box corner whose side is h
    times a power of two and covers the box, so the recursion floor lands
    exactly on side h.  Solid sets prune cells fully inside the occupancy.
    """
    box = np.asarray(S.bbox if box is None else box, float)
    extent = float(np.max(box[:, 1] - box[:, 0]))
    floor_side = S.h if floor_side is None else float(floor_side)
    depth = max(0, int(np.ceil(np.log2(extent / floor_side) - 1e-9)))
    root_side = floor_side * 2 ** depth
    root_lo = box[:, 0].copy()

    sat = None
    if S.kind == "solid":
        sat = S.occupancy.astype(np.int64)
        for a in range(S.dim):
            sat = np.cumsum(sat, axis=a)
        sat = np.pad(sat, [(1, 0)] * S.dim)

    def fully_inside(centers, radius):
        # conservative: every h-cell meeting the cube must be occupied
        if sat is None:
            return np.zeros(len(centers), bool)
        lo_cell = np.floor((centers - radius - box[:, 0]) / S.h + 1e-9).astype(int)
        hi_cell = np.floor((centers + radius - box[:, 0]) / S.h + 1e-9).astype(int) - 1
        shape = np.array(S.occupancy.shape)
        ok = np.all(lo_cell >= 0, axis=1) & np.all(hi_cell < shape, axis=1)
        ok &= np.all(hi_cell >= lo_cell, axis=1)
        out = np.zeros(len(centers), bool)
        if not ok.any():
            return out
        lo_c = lo_cell[ok]
        hi_c = hi_cell[ok]
        count = np.zeros(len(lo_c), np.int64)
        for bits in itertools.product((0, 1), repeat=S.dim):
            corner = np.where(np.array(bits, bool), hi_c + 1, lo_c)
            sign = (-1) ** (S.dim - sum(bits))
            count += sign * sat[tuple(corner.T)]
        total = np.prod(hi_c - lo_c + 1, axis=1)
        out[np.nonzero(ok)[0]] = count == total
        return out

    kept_cells, kept_levels = [], []
    n_dropped = 0
    pending = np.zeros((1, S.dim), int)
    level = 0
    while len(pending):
        side = root_side / 2 ** level
        centers = root_lo + (pending + 0.5) * side
        nn = S.nearest_distance(centers)
        dist = np.maximum(0.0, nn - side / 2 - S.sample_radius)
        emit = dist >= side * (1 - 1e-12)
        inside = fully_inside(centers[~emit], side / 2) if (~emit).any() else None
        if emit.any():
            kept_cells.append(pending[emit])
            kept_levels.append(np.full(int(emit.sum()), level))
        rest = pending[~emit]
        if inside is not None:
            rest = rest[~inside]
        if side / 2 >= floor_side * (1 - 1e-9) and len(rest):
            offsets = np.array(list(itertools.product((0, 1), repeat=S.dim)))
            pending = (rest[:, None, :] * 2 + offsets[None, :, :]).reshape(-1, S.dim)
            level += 1
        else:
            n_dropped += len(rest)
            pending = np.zeros((0, S.dim), int)

    if not kept_cells:
        raise ConfigError("empty Whitney family: set touches the whole box?")
    cells = np.concatenate(kept_cells)
    levels = np.concatenate(kept_levels)
    sides = root_side / 2.0 ** levels
    centers = root_lo + (cells + 0.5) * sides[:, None]
    radii = sides / 2.0

    # anchors: nearest sample to each cube center, lexicographic tie-break
    nn_dist, nn_idx = S.tree.query(centers, p=np.inf)
    anchor_idx = _lex_tie_break(S, centers, nn_dist, nn_idx, np.arange(len(centers)))

    return WhitneyDecomposition(
        S=S,
        root_lo=root_lo,
        root_side=root_side,
        floor_side=floor_side,
        centers=centers,
        radii=radii,
        levels=levels,
        cells=cells,
        anchor_idx=anchor_idx,
        n_dropped=n_dropped,
    )


# -- extension operator ------------------------------------------------


def extension_coefficients(W: WhitneyDecomposition, f_vals, delta: float, cbar: float) -> np.ndarray:
    """Per-cube coefficients: anchor value on cubes of diameter <= 2 delta,
    the fill constant on larger cubes."""
    f_vals = np.asarray(f_vals, float)
    small = W.diams <= 2 * delta * (1 + 1e-12)
    return np.where(small, f_vals[W.anchor_idx], cbar)


def extend_points(W: WhitneyDecomposition, f_vals, points, delta: float, cbar: float) -> np.ndarray:
    """Evaluate the extension at arbitrary points.

    On-set points reproduce the nearest sample value (exact at samples);
    elsewhere the normalized bump average of the cube coefficients applies.
    Collar points no bump reaches fall back to the nearest sample value.
    """
    points = np.atleast_2d(np.asarray(points, float))
    f_vals = np.asarray(f_vals, float)
    coeff = extension_coefficients(W, f_vals, delta, cbar)
    out = np.zeros(len(points))
    for i, x in enumerate(points):
        if W.S.on_set(x):
            _, idx = W.S.nearest_point(x)
            out[i] = f_vals[idx]
            continue
        cand, phi = W.pou_at(x)
        if len(cand) and phi.sum() > 0:
            out[i] = float(np.dot(phi, coeff[cand]))
        else:
            _, idx = W.S.nearest_point(x)
            out[i] = f_vals[idx]
    return out


def extend_grid(
    W: WhitneyDecomposition,
    f_vals,
    delta: float,
    cbar: float,
    box=None,
    h: float | None = None,
) -> GridField:
    """Extension sampled on a grid; the bump matrix is cached per grid, so
    repeated calls with new data are sparse matrix-vector products."""
    box = np.asarray(W.S.bbox if box is None else box, float)
    h = W.S.h if h is None else float(h)
    f_vals = np.asarray(f_vals, float)
    matrix, den = W.pou_matrix(box, h)
    info = W.grid_set_info(box, h)
    coeff = extension_coefficients(W, f_vals, delta, cbar)
    num = matrix @ coeff
    vals = np.zeros(len(den))
    good = den > 0
    vals[good] = num[good] / den[good]
    nearest_vals = f_vals[info["nearest"]]
    vals[~good] = nearest_vals[~good]
    vals[info["on_set"]] = nearest_vals[info["on_set"]]
    return GridField(box, h, vals.reshape(info["shape"]))


def projection_data(W: WhitneyDecomposition, box=None, h: float | None = None) -> tuple:
    """(nodes, target sample index, dist, on_set) of the grid projection.

    On-set nodes keep their own location (target = nearest sample); outside
    nodes map to the anchor of the containing cube; unresolved collar nodes
    fall back to the nearest sample.
    """
    box = np.asarray(W.S.bbox if box is None else box, float)
    h = W.S.h if h is None else float(h)
    info = W.grid_set_info(box, h)
    cube_of = W.projection_map(box, h).ravel()
    target = np.where(cube_of >= 0, W.anchor_idx[np.maximum(cube_of, 0)], info["nearest"])
    target = np.where(info["on_set"], info["nearest"], target)
    nodes = GridField(box, h, np.zeros(info["shape"])).nodes()
    return nodes, target.astype(int), info["dist"], info["on_set"]


def compose_with_projection(W: WhitneyDecomposition, f_vals, box=None, h: float | None = None) -> tuple:
    """(GridField of f(T(x)), dist field) on the grid."""
    box = np.asarray(W.S.bbox if box is None else box, float)
    h = W.S.h if h is None else float(h)
    f_vals = np.asarray(f_vals, float)
    _, target, dist, _ = projection_data(W, box, h)
    info = W.grid_set_info(box, h)
    shape = info["shape"]
    return (
        GridField(box, h, f_vals[target].reshape(shape)),
        dist.reshape(shape),
    )
