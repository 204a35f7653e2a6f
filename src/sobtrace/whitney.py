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

Grid nodes and arbitrary points share one evaluation path.  The sparse
matrix of raw bump values at the points (WhitneyDecomposition.bumps) gives
the normalized average sum_Q b_Q c_Q / sum_Q b_Q wherever a bump reaches.
Points on the set (within h/2 of a sample) and collar points no bump
reaches take the value of their nearest sample instead.  Among equally
near samples the lexicographically smallest wins (ClosedSet.nearest_point),
the rule that also picks each cube's anchor.  On a solid set the nearest
sample, ties included, is read off the same cell lattice as the distance
to the set, so the on-set flags and the nearest samples come from one
oracle; both give the KD-tree's answers exactly.

There is one grid per set: its lattice S.bbox at step S.h, on which the
decomposition, the extension, the projection and the sharp maximal field
are all sampled.  The grid products (the bump matrix at the nodes, the
nodes' on-set flags and nearest samples, the eps-neighbourhood masks, and
the node-to-cube map) are each built once, on first use, and kept on the
decomposition.  Each product that reads distances to the set makes one
query, bounded by what its reader uses, and sends it only to the nodes a
raster prefilter cannot rule out (WhitneyDecomposition._near_nodes): the
extension reads the on-set flags and nearest samples, so their query
stops just past the on-set reach; the composition norms read only whether
a node lies within eps of the set (grid_near_mask).

Every cube lookup reads (row, cube) pairs from one of two sources.  Points
are paired by one KD-tree match per cube level; grid nodes need no search,
since the nodes within reach of a cube are the outer product of its
per-axis node ranges.  Two readers take the pairs: the bump matrix (bumps
at points, pou_matrix at the nodes) reads the pairs within 9/8 r, and the
containing cube (locate at points, projection_map at the nodes) is the
paired cube with the lexicographically smallest center among those within
r, the one face-tie rule.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage, sparse
from scipy.spatial import cKDTree

from .cubes import GROWTH
from .grid import GridField
from .sets import ClosedSet
from .util import ConfigError, lex_order

__all__ = [
    "WhitneyDecomposition",
    "whitney_decomposition",
    "collar_profile",
    "extend_points",
    "extend_grid",
    "projection_data",
    "compose_with_projection",
]

_FACE_TOL = 1e-12
# a hair past the grown cube, in radii, so rounding drops no point the
# profile reaches
_BUMP_REACH = GROWTH * (1 + 1e-9)


def collar_profile(u):
    """C^1 tent: 1 on [-1, 1], 0 outside (-9/8, 9/8), cubic ramp between."""
    t = np.clip((np.abs(u) - 1.0) * 8.0, 0.0, 1.0)
    return 1.0 - t * t * (3.0 - 2.0 * t)


@dataclass(eq=False)
class WhitneyDecomposition:
    S: ClosedSet
    root_lo: np.ndarray
    root_side: float
    centers: np.ndarray  # (m, n)
    radii: np.ndarray  # (m,)
    levels: np.ndarray  # (m,)
    anchor_idx: np.ndarray  # (m,)
    n_dropped: int
    _pou: tuple | None = field(default=None, init=False, repr=False)
    _set_info: dict | None = field(default=None, init=False, repr=False)
    _near_masks: dict = field(default_factory=dict, init=False, repr=False)
    _cube_of: np.ndarray | None = field(default=None, init=False, repr=False)

    # -- bookkeeping ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.radii)

    @property
    def diams(self) -> np.ndarray:
        return 2.0 * self.radii

    # -- cube lookups: two pair sources, two readers ---------------------

    def _point_pairs(self, X, grow: float, pad: float):
        """Per cube level, (row, cube, coordinates) for the rows of X within
        grow * radius + pad of the cube's center in the max norm: a KD-tree
        over the level's centers, pruned to X's bbox, matched with one over X.
        A batch whose rows are not points of the set's dimension is refused."""
        if X.ndim != 2 or X.shape[1] != self.S.dim:
            raise ConfigError(f"points of shape {X.shape} are not rows of dimension {self.S.dim}")
        if not len(X):
            return
        tree = cKDTree(X)
        for level in np.unique(self.levels):
            cubes = np.nonzero(self.levels == level)[0]
            reach = grow * self.radii[cubes[0]] + pad
            c = self.centers[cubes]
            cubes = cubes[np.all((c >= tree.mins - reach) & (c <= tree.maxes + reach), axis=1)]
            pairs = cKDTree(self.centers[cubes]).sparse_distance_matrix(
                tree, reach, p=np.inf, output_type="ndarray")
            yield pairs["j"], cubes[pairs["i"]], X[pairs["j"]].T

    def _node_pairs(self, grow: float):
        """Per cube level, (flat node, cube, coordinates) for the nodes of the
        set's grid in each cube's per-axis node ranges at grow * radius; the
        coordinates are GridField.axes() values, the floats nodes() stacks."""
        box, h = self.S.bbox, self.S.h
        shape = GridField.shape_for(box, h)
        axes = self._grid().axes()
        for level in np.unique(self.levels):
            cubes = np.nonzero(self.levels == level)[0]
            c, half = self.centers[cubes], grow * self.radii[cubes, None]
            i0 = np.maximum(np.ceil((c - half - box[:, 0]) / h - 1e-9).astype(int), 0)
            i1 = np.minimum(np.floor((c + half - box[:, 0]) / h + 1e-9).astype(int),
                            np.array(shape) - 1)
            # (cubes, width_0, ..., width_n-1): the offsets in each range
            inside = np.ones(len(cubes), bool)
            for a, width in enumerate(np.max(i1 - i0 + 1, axis=0)):
                span = np.arange(width) <= (i1[:, a] - i0[:, a])[:, None]
                inside = inside[..., None] & span.reshape((len(cubes),) + (1,) * a + (-1,))
            k, *offsets = np.nonzero(inside)
            idx = [i0[k, a] + offsets[a] for a in range(self.S.dim)]
            yield (np.ravel_multi_index(idx, shape), cubes[k],
                   [axes[a][idx[a]] for a in range(self.S.dim)])

    def _bump_matrix(self, pairs, n_rows: int) -> tuple:
        """Sparse (rows x cubes) CSR matrix of raw bump values over the pairs,
        plus the row sums.  The profile, which vanishes on the grown cube's
        boundary, decides membership exactly.  Columns ascend within each row
        (canonical CSR), which fixes the order the row sums add up in."""
        rows, cols, vals = [np.zeros(0, int)], [np.zeros(0, int)], [np.zeros(0)]
        for row, col, x in pairs:
            b = collar_profile((x[0] - self.centers[col, 0]) / self.radii[col])
            for a in range(1, self.S.dim):
                b = b * collar_profile((x[a] - self.centers[col, a]) / self.radii[col])
            keep = b > 0
            rows.append(row[keep])
            cols.append(col[keep])
            vals.append(b[keep])
        matrix = sparse.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n_rows, len(self)),
        )
        return matrix, np.asarray(matrix.sum(axis=1)).ravel()

    def _first_cube(self, pairs, n_rows: int) -> np.ndarray:
        """Per row, the paired cube with the lexicographically smallest
        center, the face-tie rule; -1 for a row with no pair."""
        order = lex_order(self.centers)
        rank = np.argsort(order)
        best = np.full(n_rows, len(self))
        for row, col, _ in pairs:
            np.minimum.at(best, row, rank[col])
        return np.append(order, -1)[best]

    def locate(self, X):
        """Index of the cube containing each row of X (an int for a single
        point), within _FACE_TOL * root_side in the max norm; face ties
        resolve to the cube with the lexicographically smallest center; -1
        where unresolved (inside the collar or on the set)."""
        X = np.asarray(X, float)
        points = np.atleast_2d(X)
        found = self._first_cube(
            self._point_pairs(points, 1.0, _FACE_TOL * self.root_side), len(points))
        return int(found[0]) if X.ndim == 1 else found

    def bumps(self, X) -> tuple:
        """Sparse (points x cubes) CSR matrix of raw bump values at the rows
        of X, plus the row sums (see _bump_matrix)."""
        X = np.atleast_2d(np.asarray(X, float))
        return self._bump_matrix(self._point_pairs(X, _BUMP_REACH, 0.0), len(X))

    def pou_at(self, x) -> tuple:
        """(cube indices, phi values) of the normalized partition of unity at
        a single point; empty when no support reaches x."""
        matrix, _ = self.bumps(np.asarray(x, float)[None, :])
        return matrix.indices.astype(int), matrix.data / matrix.data.sum()

    # -- products on the set's grid ------------------------------------

    def _grid(self, values=None) -> GridField:
        """A field on the set's grid, S.bbox at step S.h, from node values
        (flat or shaped; zeros when none are given)."""
        shape = GridField.shape_for(self.S.bbox, self.S.h)
        values = np.zeros(shape) if values is None else np.reshape(values, shape)
        return GridField(self.S.bbox, self.S.h, values)

    def pou_matrix(self) -> tuple:
        """bumps() at the grid nodes, from node ranges; built once and kept."""
        if self._pou is None:
            n_nodes = int(np.prod(GridField.shape_for(self.S.bbox, self.S.h)))
            self._pou = self._bump_matrix(self._node_pairs(_BUMP_REACH), n_nodes)
        return self._pou

    def _near_nodes(self, bound: float) -> np.ndarray:
        """S.nearest_distance(nodes, bound) at the grid nodes, flat.

        Only the nodes within ceil(bound / h) + 1 nodes, per axis, of a
        sample's nearest node (a chessboard dilation of the marks) are
        queried; the others read inf, which is what the bounded query
        returns for them.  A node within bound of a sample lies within
        bound + h/2 of that sample's nearest node, that is, within
        ceil(bound / h) nodes of it per axis; the + 1 covers the rounding of
        the node coordinates and of the marks."""
        S = self.S
        marks = np.zeros(GridField.shape_for(S.bbox, S.h), bool)
        marks[tuple(np.round((S.points - S.bbox[:, 0]) / S.h).astype(int).T)] = True
        reach = int(min(np.ceil(bound / S.h) + 1, max(marks.shape)))
        ask = ndimage.maximum_filter(marks, size=2 * reach + 1, mode="constant").ravel()
        near = np.full(marks.size, np.inf)
        near[ask] = S.nearest_distance(self._grid().nodes()[ask], bound)
        return near

    def grid_set_info(self) -> dict:
        """On-set flags and nearest-sample indices of the grid nodes; built
        on first use and kept.

        The on-set test reads one distance query bounded just past the
        on-set reach, 2 * S.on_set_reach, and prefiltered (_near_nodes).
        The nearest sample is resolved only where the extension or the
        projection reads it, at on-set and unresolved nodes; it is -1
        elsewhere."""
        if self._set_info is None:
            on_set = self._near_nodes(2 * self.S.on_set_reach) <= self.S.on_set_reach
            rows = np.nonzero(on_set | (self.projection_map().ravel() < 0))[0]
            nearest = np.full(len(on_set), -1)
            nearest[rows] = self.S.nearest_point(self._grid().nodes()[rows])[1]
            self._set_info = {"nearest": nearest, "on_set": on_set}
        return self._set_info

    def grid_near_mask(self, eps: float) -> np.ndarray:
        """The grid nodes within eps of the set, S.dist(nodes) <= eps + 1e-12,
        flat; built on first use for each eps and kept.

        One prefiltered query (_near_nodes) bounded at
        2 (eps + S.sample_radius) + h: past the bound a node's distance to
        the set exceeds eps + h, and the node is not in the mask."""
        if eps not in self._near_masks:
            S = self.S
            near = self._near_nodes(2 * (eps + S.sample_radius) + S.h)
            self._near_masks[eps] = np.maximum(0.0, near - S.sample_radius) <= eps + 1e-12
        return self._near_masks[eps]

    def projection_map(self) -> np.ndarray:
        """locate() at the grid nodes, from node ranges, shaped as the grid;
        built once and kept."""
        if self._cube_of is None:
            shape = GridField.shape_for(self.S.bbox, self.S.h)
            self._cube_of = self._first_cube(
                self._node_pairs(1.0), int(np.prod(shape))).reshape(shape)
        return self._cube_of


def whitney_decomposition(S: ClosedSet) -> WhitneyDecomposition:
    """Emit the dyadic Whitney family for the complement of S inside S.bbox.

    The root is the smallest cube anchored at the box corner whose side is h
    times a power of two and covers the box, so the recursion floor lands
    exactly on side h.  Solid sets prune cells fully inside the occupancy.
    """
    box = S.bbox
    extent = float(np.max(box[:, 1] - box[:, 0]))
    depth = max(0, int(np.ceil(np.log2(extent / S.h) - 1e-9)))
    root_side = S.h * 2 ** depth
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
        emit = S.dist_cube(centers, side / 2) >= side * (1 - 1e-12)
        inside = fully_inside(centers[~emit], side / 2) if (~emit).any() else None
        if emit.any():
            kept_cells.append(pending[emit])
            kept_levels.append(np.full(int(emit.sum()), level))
        rest = pending[~emit]
        if inside is not None:
            rest = rest[~inside]
        if side / 2 >= S.h * (1 - 1e-9) and len(rest):
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
    anchor_idx = S.nearest_point(centers)[1]

    return WhitneyDecomposition(
        S=S,
        root_lo=root_lo,
        root_side=root_side,
        centers=centers,
        radii=radii,
        levels=levels,
        anchor_idx=anchor_idx,
        n_dropped=n_dropped,
    )


# -- extension operator ------------------------------------------------


def _evaluate(W: WhitneyDecomposition, f_vals, delta, cbar, bumps, on_set, nearest) -> np.ndarray:
    """The extension at the rows of a bump matrix: the normalized bump
    average num/den of the cube coefficients (anchor value on cubes of
    diameter <= 2 delta, the fill constant on larger ones) where a bump
    reaches, and the nearest sample's value on on-set rows and on rows no
    bump reaches. f_vals holds one value per sample."""
    matrix, den = bumps
    f_vals = W.S.sample_values(f_vals, "extension")
    small = W.diams <= 2 * delta * (1 + 1e-12)
    num = matrix @ np.where(small, f_vals[W.anchor_idx], cbar)
    vals = np.zeros(len(den))
    good = den > 0
    vals[good] = num[good] / den[good]
    take = on_set | ~good
    vals[take] = f_vals[nearest[take]]
    return vals


def extend_points(W: WhitneyDecomposition, f_vals, points, delta: float, cbar: float) -> np.ndarray:
    """Evaluate the extension at arbitrary points, as extend_grid does at
    grid nodes.

    On-set points reproduce the nearest sample value (exact at samples);
    elsewhere the normalized bump average of the cube coefficients applies.
    Collar points no bump reaches fall back to the nearest sample value.
    """
    points = np.atleast_2d(np.asarray(points, float))
    bumps = W.bumps(points)
    on_set = W.S.on_set(points)
    rows = np.nonzero(on_set | (bumps[1] == 0))[0]
    nearest = np.full(len(points), -1)
    nearest[rows] = W.S.nearest_point(points[rows])[1]
    return _evaluate(W, f_vals, delta, cbar, bumps, on_set, nearest)


def extend_grid(W: WhitneyDecomposition, f_vals, delta: float, cbar: float) -> GridField:
    """Extension sampled on the set's grid; the bump matrix is kept on W, so
    repeated calls with new data are sparse matrix-vector products."""
    # bumps first: the build is the memory peak, lower before the set info is held
    bumps = W.pou_matrix()
    info = W.grid_set_info()
    return W._grid(_evaluate(W, f_vals, delta, cbar, bumps, info["on_set"], info["nearest"]))


def _projection_targets(W: WhitneyDecomposition) -> np.ndarray:
    """The sample index each grid node projects to (see projection_data)."""
    info = W.grid_set_info()
    cube_of = W.projection_map().ravel()
    target = np.where(cube_of >= 0, W.anchor_idx[np.maximum(cube_of, 0)], info["nearest"])
    return np.where(info["on_set"], info["nearest"], target).astype(int)


def projection_data(W: WhitneyDecomposition) -> tuple:
    """(nodes, target sample index, dist, on_set) of the projection of the
    set's grid; dist is S.dist(nodes), exact at every node.

    On-set nodes keep their own location (target = nearest sample); outside
    nodes map to the anchor of the containing cube; unresolved collar nodes
    fall back to the nearest sample.
    """
    nodes = W._grid().nodes()
    return nodes, _projection_targets(W), W.S.dist(nodes), W.grid_set_info()["on_set"]


def compose_with_projection(W: WhitneyDecomposition, f_vals, eps: float) -> tuple:
    """(GridField of f(T(x)), mask of the nodes within eps of the set) on the
    set's grid, T the projection of projection_data.  The mask is
    dist <= eps + 1e-12 with projection_data's dist, read off one bounded
    query (grid_near_mask)."""
    FT = W._grid(np.asarray(f_vals, float)[_projection_targets(W)])
    return FT, W.grid_near_mask(eps).reshape(FT.values.shape)
