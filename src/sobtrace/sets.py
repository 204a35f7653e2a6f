"""Sampled closed sets with a uniform-norm distance oracle.

A set is carried by finitely many sample points at resolution h.  Thin sets
stand for lower-dimensional objects (each sample represents set points within
h/2); solid sets carry an occupancy mask of h-cells whose centers are the
samples.  Distances, porosity tests, the empty-core quasi-distance and the
ball-condition estimate all reduce to nearest-sample queries:  the uniform
distance from a point to the cell around a sample is
max(0, ||x - sample|| - h/2).  A Chebyshev KD-tree answers them exactly.  On
a solid set whose samples sit one per cell center, distance and nearest
sample share one cell-lattice route instead, which gives the KD-tree's
answers bit for bit: each row's bracketing sampled columns are read off its
coordinates through a per-axis table of the sampled columns below each cell
column, with no binary search (`ClosedSet._cell_bracket`).  The distance
(`nearest_distance`) is then one lookup of the cell at the nearer columns;
the nearest sample (`nearest_point`), ties included, is the first held cell
within reach in a window of four columns per axis around the bracket, for
rows within 3h/4 of their nearest sample.

The empty-cube searches (clearance, porosity, quasi-distance, empty
subcubes) scan a capped h/2 lattice of each box and are batched: callers
pass many boxes at once, and boxes with the same lattice shape share one KD
query.  A box's clearance is the distance at the lexicographically first
lattice node within 1e-15 of the box's maximum, not the maximum itself;
porosity verdicts near their threshold depend on this tie rule.  Porosity
keeps one bit per box, so it certifies first: a box corner is a lattice
node, and a corner whose distance minus 1e-15 exceeds the threshold
guarantees that the tie rule's clearance does too; only the boxes no corner
certifies are scanned.  The empty-subcube search (the ball condition)
needs only the maximum of gain = min(dist, room) per cube, room being a
node's distance to the cube's boundary.  The set distance is 1-Lipschitz in
the uniform norm, so a node at uniform offset off from the center has
gain <= min(room, d_c + off), d_c the distance at the center, padded for
rounding.  The search queries the nodes whose bound is near their cube's
largest first, then only those whose bound exceeds the best gain so far: a
node left out cannot raise the maximum, so the result is the all-node
maximum exactly.  It builds only the nodes it queries, from each lattice's
per-axis coordinates, and bounds its queries at the cube radius.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .cubes import Cube
from .util import ConfigError, chebyshev, read_json

__all__ = [
    "ClosedSet",
    "thin_set",
    "solid_set",
    "BallConditionEstimate",
]

_LATTICE_CAP = 41  # max candidate-lattice nodes per axis in empty-cube searches
_BALL_CENTERS = 48  # samples drawn (by seed) as ball-condition cube centers
_MARGIN = 1.25  # bbox margin around the samples of thin_set and solid_set
_SCAN_CHUNK = 400_000  # lattice nodes per KD query in batched empty-cube searches


def _spread(axes):
    """Each (k, num_a) per-axis array of a lattice reshaped to broadcast
    over its (k, num_0, ..., num_{dim-1}) nodes."""
    for a, ax in enumerate(axes):
        view = [len(ax)] + [1] * len(axes)
        view[1 + a] = ax.shape[1]
        yield ax.reshape(view)


def _check_cells_shape(shape, bbox, h) -> None:
    """A solid set's occupancy mask covers its bbox in h-cells."""
    with np.errstate(divide="ignore", invalid="ignore"):
        cells = (bbox[:, 1] - bbox[:, 0]) / h
    if len(shape) != len(cells) or not np.all(np.abs(cells - shape) <= 1e-6):
        raise ConfigError(f"occupancy shape {tuple(shape)} does not match the bbox at step h")


@dataclass(eq=False)
class ClosedSet:
    dim: int
    h: float
    points: np.ndarray
    bbox: np.ndarray
    kind: str  # "thin" | "solid"
    occupancy: np.ndarray | None = None  # solid only, bool over bbox h-cells
    name: str = ""
    _tree: cKDTree | None = field(default=None, init=False, repr=False)
    _boundary: "ClosedSet | None" = field(default=None, init=False, repr=False)
    _interior_mask: np.ndarray | None = field(default=None, init=False, repr=False)
    _tables: tuple | None = field(default=None, init=False, repr=False)
    _ball_conditions: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, float))
        self.bbox = np.asarray(self.bbox, float)
        if self.points.shape[0] == 0:
            raise ConfigError("a closed set needs at least one sample point")
        shapes = (self.points.ndim, self.points.shape[1], self.bbox.shape)
        if shapes != (2, self.dim, (self.dim, 2)):
            raise ConfigError("inconsistent dimensions in ClosedSet")
        if not (np.isfinite(self.points).all() and np.isfinite(self.bbox).all()):
            raise ConfigError("sample coordinates and bbox must be finite")
        if not (np.isfinite(self.h) and self.h > 0):
            raise ConfigError(f"resolution h must be finite and positive, got {self.h}")
        if self.kind not in ("thin", "solid"):
            raise ConfigError(f"unknown set kind {self.kind!r}")
        margin = np.minimum(
            self.points.min(axis=0) - self.bbox[:, 0],
            self.bbox[:, 1] - self.points.max(axis=0),
        )
        if np.any(margin < 1.0 - 1e-9):
            raise ConfigError("bbox must keep a margin >= 1 around the samples")
        if self.kind == "solid":
            # the mask covers the bbox in h-cells and holds every sample's cell
            if self.occupancy is None:
                raise ConfigError("solid sets need an occupancy mask")
            _check_cells_shape(self.occupancy.shape, self.bbox, self.h)
            if not self.occupancy[tuple(self._cell_index().T)].all():
                raise ConfigError("a sample of a solid set lies in an unoccupied cell")

    # -- basic geometry -------------------------------------------------

    @property
    def sample_radius(self) -> float:
        """Radius of the cell each sample stands for (0 for thin sets)."""
        return 0.0 if self.kind == "thin" else self.h / 2.0

    @property
    def tree(self) -> cKDTree:
        if self._tree is None:
            self._tree = cKDTree(self.points)
        return self._tree

    @property
    def extent(self) -> float:
        """Uniform-norm diameter of the sample cloud."""
        spread = self.points.max(axis=0) - self.points.min(axis=0)
        return float(spread.max())

    @property
    def span(self) -> float:
        """The set's length scale: its extent, or 1 for a one-sample set."""
        return self.extent or 1.0

    def sample_values(self, f_vals, what: str) -> np.ndarray:
        """f_vals as a float array of one value per sample; any other shape
        is a ConfigError naming what needed the values."""
        f_vals = np.asarray(f_vals, float)
        if f_vals.shape != (len(self.points),):
            raise ConfigError(
                f"{what} needs {len(self.points)} values, got shape {f_vals.shape}")
        return f_vals

    def nearest_distance(self, x, bound: float = np.inf) -> np.ndarray:
        """Uniform distance from each row of x to its nearest sample.  A row
        whose nearest sample is at distance >= bound reads inf; the others
        are exact, equal to the unbounded query.

        On a solid set whose samples sit one per cell center (`_cell_tables`)
        a row first takes, per axis, the sampled column whose coordinate is
        nearest to it (`_cell_bracket`).  No sample is closer on any axis, so
        when the cell at those columns holds a sample, that sample is a
        nearest one, and its distance max_a |x_a - v_a| is the float the
        KD-tree returns (rounding is monotone).  The other rows, and any
        batch the KD-tree must see (`_cell_bracket` returns None), go to the
        KD-tree.
        """
        x = np.atleast_2d(np.asarray(x, float))
        bracket = self._cell_bracket(x)
        if bracket is None:
            return self.tree.query(x, p=np.inf, distance_upper_bound=bound)[0]
        _, d, held = bracket
        d[d >= bound] = np.inf
        miss = np.flatnonzero(~held)
        if len(miss):
            d[miss] = self.tree.query(x[miss], p=np.inf, distance_upper_bound=bound)[0]
        return d

    def _cell_bracket(self, x):
        """(brackets, d, held) for the rows of an (n, dim) batch on the cell
        lattice, or None when the batch goes to the KD-tree: no cell tables,
        a width other than dim, or a non-finite row (the KD-tree rejects
        both).

        Per axis a, brackets[a] is the row's bracket j in the padded column
        coordinates (`_cell_tables`), coords[j] < x_a <= coords[j + 1]; d is
        the largest over the axes of the distance to the nearer of the two,
        and held says whether the cell at the nearer columns holds a sample.
        The bracket comes from the row's cell column c, the floor of
        t = (x_a - bbox_lo) / h clipped to the bbox, with no search: a sample
        coordinate v sits within h/4 of its cell's center, so its t (the same
        float expression) is below the row's when its column is below c and
        above it when its column is above c, and v compares with x_a alike
        (the expression is monotone); only column c's own coordinate is
        compared.  Columns with no sample, such as the gap between two
        blobs, count as neither.
        """
        tables = self._cell_tables()
        if tables is None or x.shape[1:] != (self.dim,) or not np.isfinite(x).all():
            return None
        coords, below_column, holds, _ = tables
        brackets = []
        d = np.zeros(len(x))
        cell = np.zeros(len(x), np.intp)
        for a, (coord, index) in enumerate(zip(coords, below_column)):
            xa = x[:, a]
            t = xa - self.bbox[a, 0]
            t /= self.h
            np.clip(t, 0, len(index) - 1, out=t)
            j = index.take(t.astype(np.intp))
            upper = coord[1:]
            j += upper.take(j) < xa  # now coord[j] < xa <= coord[j + 1]
            below = xa - coord.take(j)
            above = upper.take(j)
            above -= xa
            cell *= holds.shape[a]
            cell += j
            cell += above < below
            np.maximum(d, np.minimum(below, above, out=below), out=d)
            brackets.append(j)
        return brackets, d, holds.ravel().take(cell)

    def _cell_tables(self) -> tuple | None:
        """The cell-lattice tables of nearest_distance and nearest_point,
        built once per set; None unless this is a solid set whose samples all
        sit on their columns' coordinates, each within h/4 of its cell's
        center.

        Per axis, with v the coordinates of the sampled columns in order,
        coords = [-inf, -inf, v, inf, inf]: sampled column k sits at padded
        index k + 2, and the padding lets a window of columns j - 1 .. j + 2
        around any bracket j stay inside the table.  below_column[c] is the
        padded index of the last sampled column below cell column c (1 when
        there is none), for c = 0 .. cells, the last entry serving every
        coordinate past the bbox.  first holds, per cell at padded indices,
        the smallest index of a sample in it, and the sample count where
        there is none; holds marks the cells that hold a sample.  Both are
        read off the samples, since a loaded set may mark a cell occupied
        that has none, or hold one point twice.
        """
        if self._tables is None:
            self._tables = self._build_cell_tables() or ()
        return self._tables or None

    def _build_cell_tables(self) -> tuple | None:
        if self.kind != "solid":
            return None
        cells = self._cell_index()
        offset = (self.points - self.bbox[:, 0]) / self.h - (cells + 0.5)
        if np.any(np.abs(offset) > 0.25):
            return None
        coords, below_column, slots = [], [], []
        for a in range(self.dim):
            columns, first, slot = np.unique(cells[:, a], return_index=True, return_inverse=True)
            v = self.points[first, a]
            if np.any(self.points[:, a] != v[slot]):
                return None
            coords.append(np.concatenate([[-np.inf, -np.inf], v, [np.inf, np.inf]]))
            below = np.searchsorted(columns, np.arange(self.occupancy.shape[a] + 1))
            below_column.append(below + 1)
            slots.append(slot + 2)
        n = len(self.points)
        first = np.full([len(c) for c in coords], n)
        np.minimum.at(first, tuple(slots), np.arange(n))
        return coords, below_column, first < n, first

    def dist(self, x):
        """Uniform-norm distance from point(s) to the represented set."""
        x = np.asarray(x, float)
        single = x.ndim == 1
        d = np.maximum(0.0, self.nearest_distance(x) - self.sample_radius)
        return float(d[0]) if single else d

    def dist_cube(self, centers, radii) -> np.ndarray:
        """Uniform-norm distances from closed cubes, given by their (m, dim)
        centers and their radii, to the set."""
        return np.maximum(0.0, self.nearest_distance(centers) - radii - self.sample_radius)

    @property
    def on_set_reach(self) -> float:
        """Largest nearest-sample distance of a point on the set: h/2 for
        both kinds (a thin sample stands for set points within h/2, a solid
        one for its cell of radius h/2), plus rounding slack."""
        return self.h / 2.0 + 1e-12

    def on_set(self, x) -> np.ndarray | bool:
        """Membership proxy: within h/2 of a sample or inside an occupied cell.
        The distance query stops at 2 * on_set_reach, as grid_set_info's
        does: a row whose nearest sample lies at or past it reads inf, and
        fails the test either way."""
        x = np.asarray(x, float)
        out = self.nearest_distance(x, 2 * self.on_set_reach) <= self.on_set_reach
        return bool(out[0]) if x.ndim == 1 else out

    def nearest_point(self, x) -> tuple:
        """(sample point, index) closest to x, or (points, indices) for an
        (n, dim) array; ties pick the lexicographically smallest sample, then
        the smallest index: among the samples within reach = d + 1e-12 (1 + d)
        of the row, d its nearest-sample distance.

        On a solid set with cell tables, a row whose nearest cell
        (`_cell_bracket`) holds a sample and whose reach is at most 3h/4
        reads its answer off the cells, as nearest_distance reads d: of the
        4^dim cells at columns j - 1 .. j + 2 around its bracket j on each
        axis, the first in lexicographic column order that holds a sample
        within reach on every axis gives that cell's smallest sample index.
        This is exact.  Sampled columns sit at least h/2 apart, since each
        sample lies within h/4 of its cell's center, so every column outside
        the window lies at least h > reach from the row.  The samples of a
        cell share its column coordinates, and those rise with the column,
        so column order is the samples' lexicographic order.

        Every other row takes the KD-tree: one k=2 query finds the rows with
        a tie, and only those take a ball query for the whole tied group.
        """
        x = np.asarray(x, float)
        rows = np.atleast_2d(x)
        bracket = self._cell_bracket(rows)
        if bracket is None:
            idx = self._kd_nearest(rows)
        else:
            brackets, d, held = bracket
            reach = d + 1e-12 * (1.0 + d)
            local = held & (reach <= 0.75 * self.h)
            idx = np.empty(len(rows), np.intp)
            near = np.flatnonzero(local)
            idx[near] = self._first_in_window(
                rows[near], [j[near] for j in brackets], reach[near])
            far = np.flatnonzero(~local)
            if len(far):
                idx[far] = self._kd_nearest(rows[far])
        if x.ndim == 1:
            return self.points[idx[0]].copy(), int(idx[0])
        return self.points[idx], idx

    def _first_in_window(self, rows, brackets, reach) -> np.ndarray:
        """nearest_point's cell route: per row, the smallest sample index of
        the first held cell of the window within reach on every axis."""
        coords, _, holds, first = self._tables
        n, width = len(rows), 1
        flat = np.zeros((n, 1), np.intp)
        within = np.ones((n, 1), bool)
        for a, j in enumerate(brackets):
            # the window's cells in lexicographic column order, axis 0 first
            k = j[:, None] + np.arange(-1, 3)
            ok = np.abs(rows[:, a, None] - coords[a].take(k)) <= reach[:, None]
            width *= 4
            flat = ((flat * holds.shape[a])[:, :, None] + k[:, None, :]).reshape(n, width)
            within = (within[:, :, None] & ok[:, None, :]).reshape(n, width)
        sample = first.ravel().take(flat)
        within &= sample < len(self.points)
        return sample[np.arange(n), within.argmax(axis=1)]

    def _kd_nearest(self, rows) -> np.ndarray:
        """nearest_point's KD-tree route for an (n, dim) batch."""
        d, i = self.tree.query(rows, k=2, p=np.inf)
        idx = i[:, 0]
        reach = d[:, 0] + 1e-12 * (1.0 + d[:, 0])
        tied = np.nonzero(d[:, 1] <= reach)[0]
        groups = self.tree.query_ball_point(rows[tied], reach[tied], p=np.inf)
        sizes = np.fromiter(map(len, groups), int, len(groups))
        cand = np.fromiter(itertools.chain.from_iterable(groups), int, int(sizes.sum()))
        owner = np.repeat(np.arange(len(groups)), sizes)
        keep = chebyshev(self.points[cand], rows[tied][owner]) <= reach[tied][owner]
        cand, owner = cand[keep], owner[keep]
        # per owner, lexicographic on the sample, then the smaller index
        order = np.lexsort((cand,) + tuple(self.points[cand].T[::-1]) + (owner,))
        first = order[np.diff(owner[order], prepend=-1) != 0]
        idx[tied[owner[first]]] = cand[first]
        return idx

    # -- boundary / interior --------------------------------------------

    def boundary(self) -> "ClosedSet":
        """Boundary samples: the set itself for thin sets, the occupied cells
        with an unoccupied Moore neighbor for solid ones."""
        if self.kind == "thin":
            return self
        if self._boundary is None:
            self._split_cells()
        return self._boundary

    def interior_mask(self) -> np.ndarray:
        """Boolean mask over samples marking interior cells (empty for thin)."""
        if self.kind == "thin":
            return np.zeros(len(self.points), bool)
        if self._interior_mask is None:
            self._split_cells()
        return self._interior_mask

    def _cell_index(self) -> np.ndarray:
        """The occupancy index of the h-cell around each sample."""
        return np.round((self.points - self.bbox[:, 0] - self.h / 2) / self.h).astype(int)

    def _split_cells(self):
        occ = self.occupancy
        structure = np.ones((3,) * self.dim, bool)
        interior_cells = ndimage.binary_erosion(occ, structure=structure)
        interior = interior_cells[tuple(self._cell_index().T)]
        bpoints = self.points[~interior]
        if bpoints.shape[0] == 0:  # degenerate tiny solid, keep everything
            bpoints = self.points
            interior = np.zeros(len(self.points), bool)
        self._interior_mask = interior
        self._boundary = ClosedSet(
            dim=self.dim,
            h=self.h,
            points=bpoints,
            bbox=self.bbox,
            kind="thin",
            name=self.name + ":boundary",
        )

    # -- empty-cube searches --------------------------------------------

    def _lattices(self, lo: np.ndarray, hi: np.ndarray):
        """Capped h/2 candidate lattices of the boxes [lo[i], hi[i]].

        Yields (rows, axes): axes[a] is the (k, num_a) array of each box's
        node coordinates on axis a, and `_nodes` builds the nodes from them.
        Boxes with the same per-axis node counts come in chunks of about
        _SCAN_CHUNK nodes.  Each axis is numpy's scalar linspace,
        l + arange(num) * step with the last node at u, computed for a whole
        chunk at once.
        """
        delta = hi - lo
        per_axis = np.floor(delta / (self.h / 2)).astype(int) + 1
        counts = np.where(delta > 0, np.minimum(np.maximum(per_axis, 2), _LATTICE_CAP), 1)
        keys = np.ravel_multi_index(counts.T, (_LATTICE_CAP + 1,) * self.dim)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        changes = (np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist()
        bounds = [0, *changes, len(order)] if len(order) else []
        for begin, end in zip(bounds[:-1], bounds[1:]):
            shape = counts[order[begin]].tolist()
            per = max(1, _SCAN_CHUNK // int(np.prod(shape)))
            for first in range(begin, end, per):
                rows = order[first:min(first + per, end)]
                l, u, width = lo[rows], hi[rows], delta[rows]
                axes = []
                for a, num in enumerate(shape):
                    ax = np.arange(num) * (width[:, a, None] / max(num - 1, 1)) + l[:, a, None]
                    if num > 1:
                        ax[:, -1] = u[:, a]
                    axes.append(ax)
                yield rows, axes

    def _nodes(self, axes, mask=None) -> np.ndarray:
        """The lattice nodes of the per-axis coordinates of `_lattices`: all
        of them, (k, N, dim) in ij order, which is lexicographic, or with a
        (k, N) mask only the masked ones, (n, dim) in the same order."""
        shape = [ax.shape[1] for ax in axes]
        if mask is None:
            nodes = np.empty((len(axes[0]), *shape, self.dim))
            for a, view in enumerate(_spread(axes)):
                nodes[..., a] = view
            return nodes.reshape(len(axes[0]), -1, self.dim)
        box, flat = np.nonzero(mask)
        index = np.unravel_index(flat, shape)
        return np.stack([ax[box, i] for ax, i in zip(axes, index)], axis=-1)

    def _scans(self, lo: np.ndarray, hi: np.ndarray):
        """The lattices of _lattices with the exact distance to the set at
        every node: yields (rows, nodes, dist), dist (k, N), one KD query
        per chunk."""
        for rows, axes in self._lattices(lo, hi):
            nodes = self._nodes(axes)
            dist = self.dist(nodes.reshape(-1, self.dim)).reshape(nodes.shape[:2])
            yield rows, nodes, dist

    def clearances(self, lo, hi) -> tuple:
        """Max distance to the set over the candidate lattice of each box
        [lo[i], hi[i]] ((m, dim) arrays); returns (clearances, argmax nodes).

        The argmax is the lexicographically first node whose distance is
        within 1e-15 of the box's maximum, and its distance is returned.
        """
        lo = np.asarray(lo, float).reshape(-1, self.dim)
        hi = np.asarray(hi, float).reshape(-1, self.dim)
        clear = np.empty(len(lo))
        at = np.empty(lo.shape)
        for rows, nodes, dist in self._scans(lo, hi):
            k = np.argmax(dist >= dist.max(axis=1, keepdims=True) - 1e-15, axis=1)
            pick = np.arange(len(rows))
            clear[rows] = dist[pick, k]
            at[rows] = nodes[pick, k]
        return clear, at

    def max_clearance_in(self, lo, hi) -> tuple:
        """Max distance to the set over a candidate grid in [lo, hi];
        returns (clearance, argmax point)."""
        clear, at = self.clearances(lo, hi)
        return float(clear[0]), at[0]

    def porous(self, centers, radius: float, alpha: float, strong: bool = False) -> np.ndarray:
        """Porosity of the cubes Q(centers[i], radius): True where the cube
        contains a set-free subcube of relative size alpha.

        The subcube must sit inside the cube, so its center is searched over
        the (1-alpha)-shrunken box; strict clearance > alpha * r certifies
        the closed subcube misses the set.  With strong=True, the cube and
        every concentric dilation eta*cube, eta = 1/2, 1/4, ... down to the
        grid scale, must pass the same test (so a strongly porous cube is
        porous); each rung tests only the cubes that passed so far.  The
        radius must be finite and > 0 and the centers finite.

        Each rung first reads the distance at the 2^dim corners of every
        shrunken box, one batched query.  The corners are nodes of the box's
        lattice (its first and last node per axis are lo and hi exactly), so
        a corner with d - 1e-15 > alpha * r bounds the lattice maximum
        M >= d, and the clearance the tie rule picks is at least
        M - 1e-15 >= d - 1e-15 (rounding is monotone): the cube passes
        without a scan.  The plain d > alpha * r would not do, as the tie
        rule may pick a node up to 1e-15 below M.  Only the boxes no corner
        certifies take the full `clearances` scan, with the same strict
        test; the verdicts are those of scanning every box.
        """
        if not (0 < alpha <= 1):
            raise ConfigError(f"porosity parameter must be in (0, 1], got {alpha}")
        if not (np.isfinite(radius) and radius > 0):
            raise ConfigError(f"porosity needs a finite cube radius > 0, got {radius}")
        centers = np.asarray(centers, float).reshape(-1, self.dim)
        if not np.isfinite(centers).all():
            raise ConfigError("porosity needs finite cube centers")
        etas = [1.0]
        while strong and etas[-1] / 2 * radius >= self.h / 2 - 1e-15:
            etas.append(etas[-1] / 2)
        upper = np.array(list(itertools.product((False, True), repeat=self.dim)))
        ok = np.ones(len(centers), bool)
        for eta in etas:
            rows = np.nonzero(ok)[0]
            r = eta * radius
            slack = (1.0 - alpha) * r
            lo, hi = centers[rows] - slack, centers[rows] + slack
            corners = np.where(upper, hi[:, None], lo[:, None]).reshape(-1, self.dim)
            d = self.dist(corners).reshape(len(rows), len(upper))
            scan = ~(d - 1e-15 > alpha * r).any(axis=1)
            clear, _ = self.clearances(lo[scan], hi[scan])
            ok[rows[scan]] = clear > alpha * r
        return ok

    def is_porous(self, cube: Cube, alpha: float, strong: bool = False) -> bool:
        """True when `cube` contains a set-free subcube of relative size
        alpha (see `porous`)."""
        return bool(self.porous([cube.center], cube.radius, alpha, strong)[0])

    def quasidistances(self, X, Y, alpha: float = 1.0 / 15.0, ratio: float = 1.05) -> tuple:
        """Quasidistances of the pairs (X[i], Y[i]); returns (rho, witness
        centers, witness radii), with inf and NaN where no cube qualifies.

        rho is the smallest found diameter of a cube holding both points
        whose alpha-core avoids the set.  Feasibility is not monotone in the
        diameter, so each pair walks a geometric grid from ||x-y|| up to the
        bbox extent and stops at its first feasible level; a coarser ratio
        trades value precision for speed but never returns below ||x-y||.
        Candidate centers range over the box of points within d/2 of both
        points.  All pairs still walking take one step together.  alpha must
        lie in (0, 1], as for `porous`, and ratio must be finite and > 1, so
        that every walk ends.
        """
        if not (0 < alpha <= 1):
            raise ConfigError(f"quasidistance core parameter must be in (0, 1], got {alpha}")
        if not (1 < ratio < np.inf):
            raise ConfigError(f"quasidistance scan ratio must be finite and > 1, got {ratio}")
        X = np.asarray(X, float).reshape(-1, self.dim)
        Y = np.asarray(Y, float).reshape(-1, self.dim)
        upper, lower = np.maximum(X, Y), np.minimum(X, Y)
        d = np.maximum(chebyshev(X, Y), self.h / 4.0)
        d_top = float(np.max(self.bbox[:, 1] - self.bbox[:, 0])) * (1 + 1e-12)
        rho = np.full(len(X), np.inf)
        centers = np.full(X.shape, np.nan)
        radii = np.full(len(X), np.nan)
        walking = np.nonzero(d <= d_top)[0]
        while len(walking):
            r = d[walking] / 2.0
            clear, at = self.clearances(upper[walking] - r[:, None], lower[walking] + r[:, None])
            hit = clear > alpha * r
            done = walking[hit]
            rho[done], centers[done], radii[done] = d[done], at[hit], r[hit]
            walking = walking[~hit]
            d[walking] *= ratio
            walking = walking[d[walking] <= d_top]
        return rho, centers, radii

    def quasidistance(
        self, x, y, alpha: float = 1.0 / 15.0, return_witness: bool = False,
        ratio: float = 1.05,
    ):
        """Quasidistance of one pair (see `quasidistances`); with
        return_witness, also the witness cube, or None when rho is inf."""
        rho, centers, radii = self.quasidistances([x], [y], alpha, ratio)
        d = float(rho[0])
        if not return_witness:
            return d
        return (d, None) if d == np.inf else (d, Cube(tuple(centers[0]), radii[0]))

    def empty_subcubes(self, centers, radius: float) -> np.ndarray:
        """Radius of the biggest set-free subcube found inside each cube
        Q(centers[i], radius): the maximum of gain = min(dist, room) over the
        cube's lattice, room = radius - off being a node's distance to the
        cube's boundary and off its uniform distance to the center.

        The set distance is 1-Lipschitz in the uniform norm, so with d_c the
        distance at the center, gain <= cap = min(room, d_c + off), padded by
        a relative 1e-12 and an absolute 1e-15 for rounding.  d_c takes one
        query per cube, bounded like the nodes' below, and reads inf past the
        bound (then cap = room).  Stage 1 queries the nodes whose cap is
        within a relative 1e-9 of their cube's largest; stage 2 the remaining
        nodes whose cap exceeds their cube's best gain so far.  A node left
        out has gain <= cap <= that best, so it cannot raise the maximum,
        which is the all-node maximum exactly.  Each query is bounded at the
        radius (a farther node contributes its room), and only the queried
        nodes are built.
        """
        centers = np.asarray(centers, float).reshape(-1, self.dim)
        out = np.empty(len(centers))
        # past this nearest-sample distance, the set distance is >= radius
        bound = (radius + self.sample_radius) * (1 + 1e-12)
        d_c = np.maximum(0.0, self.nearest_distance(centers, bound) - self.sample_radius)
        for rows, axes in self._lattices(centers - radius, centers + radius):
            dev = [np.abs(ax - centers[rows, a, None]) for a, ax in enumerate(axes)]
            off = functools.reduce(np.maximum, _spread(dev)).reshape(len(rows), -1)
            room = radius - off
            cap = np.minimum(room, (d_c[rows, None] + off) * (1 + 1e-12) + 1e-15)
            gain = np.full(room.shape, -np.inf)

            def scan(ask):
                near = self.nearest_distance(self._nodes(axes, ask), bound)
                gain[ask] = np.minimum(np.maximum(0.0, near - self.sample_radius), room[ask])

            top = cap.max(axis=1, keepdims=True)
            first = cap >= top - 1e-9 * np.abs(top)
            scan(first)
            scan(~first & (cap > gain.max(axis=1, keepdims=True)))
            out[rows] = gain.max(axis=1)
        return out

    def ball_condition_estimate(self, seed: int = 0) -> "BallConditionEstimate":
        """Empirical ball-condition check: every cube centered on the set should
        contain a set-free subcube of a fixed relative size.

        beta_hat is the largest observed ratio diam(cube)/diam(empty subcube);
        the condition counts as satisfied when every probed cube at scales
        >= 8h produced a nonempty gap.  The estimate depends only on the set,
        so it is computed once per seed and cached.
        """
        if seed in self._ball_conditions:
            return self._ball_conditions[seed]
        rng = np.random.default_rng(seed)
        m = len(self.points)
        idx = np.arange(m) if m <= _BALL_CENTERS else np.sort(
            rng.choice(m, size=_BALL_CENTERS, replace=False)
        )
        radii = [r for r in (2.0 ** -np.arange(1, 12)) if 8 * self.h <= 2 * r <= 1.0]
        gaps = np.reshape([self.empty_subcubes(self.points[idx], float(r)) for r in radii],
                          (len(radii), len(idx)))
        ratios = np.divide(np.reshape(radii, (-1, 1)), gaps, out=np.zeros(gaps.shape),
                           where=gaps > 0)
        worst = float(ratios.max(initial=0.0))
        est = BallConditionEstimate(not (gaps <= 0).any() and worst > 0, worst)
        self._ball_conditions[seed] = est
        return est

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        obj = {
            "dim": self.dim,
            "h": self.h,
            "bbox": self.bbox.tolist(),
            "kind": self.kind,
            "points": self.points.tolist(),
            "name": self.name,
        }
        if self.kind == "solid":
            obj["cells"] = np.argwhere(self.occupancy).tolist()
            obj["cells_shape"] = list(self.occupancy.shape)
        return obj

    @staticmethod
    def from_json(obj: dict) -> "ClosedSet":
        occupancy = None
        if obj["kind"] == "solid":
            shape = tuple(int(n) for n in obj["cells_shape"])
            # before the mask is allocated, so a bad shape cannot ask for a huge one
            _check_cells_shape(shape, np.array(obj["bbox"], float), float(obj["h"]))
            cells = np.array(obj["cells"], int).reshape(-1, len(shape))
            if np.any(cells < 0) or np.any(cells >= shape):
                raise ConfigError(f"a cell index lies outside cells_shape {list(shape)}")
            try:
                occupancy = np.zeros(shape, bool)
            except MemoryError as exc:
                raise ConfigError(
                    f"cannot allocate an occupancy mask of cells_shape {list(shape)}: {exc}"
                ) from None
            occupancy[tuple(cells.T)] = True
        return ClosedSet(
            dim=int(obj["dim"]),
            h=float(obj["h"]),
            points=np.array(obj["points"], float),
            bbox=np.array(obj["bbox"], float),
            kind=obj["kind"],
            occupancy=occupancy,
            name=obj.get("name", ""),
        )

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)

    @staticmethod
    def load(path) -> "ClosedSet":
        obj = read_json(path, "set")
        try:
            return ClosedSet.from_json(obj)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise ConfigError(f"malformed set {path}: {exc!r}") from None


@dataclass(frozen=True)
class BallConditionEstimate:
    satisfied: bool
    beta_hat: float


def thin_set(points, h: float, name: str = "") -> ClosedSet:
    """Thin set from explicit sample points, in a bbox with margin _MARGIN."""
    points = np.atleast_2d(np.asarray(points, float))
    return ClosedSet(
        dim=points.shape[1],
        h=h,
        points=points,
        bbox=np.stack([points.min(axis=0) - _MARGIN, points.max(axis=0) + _MARGIN], axis=1),
        kind="thin",
        name=name,
    )


def solid_set(occupancy: np.ndarray, h: float, origin, name: str = "") -> ClosedSet:
    """Solid set from an occupancy mask; samples sit at occupied cell centers.

    origin is the lower corner of cell (0, ..., 0).  The mask is embedded in a
    bbox with margin at least _MARGIN, so the distance oracle stays exact.
    """
    occupancy = np.asarray(occupancy, bool)
    origin = np.asarray(origin, float)
    cells = np.argwhere(occupancy)
    if len(cells) == 0:
        raise ConfigError("solid set needs at least one occupied cell")
    centers = origin + (cells + 0.5) * h
    # pad in whole cells so the bbox stays aligned with the cell lattice
    pad = int(np.ceil(_MARGIN / h))
    lo = origin - pad * h
    hi = origin + (np.array(occupancy.shape) + pad) * h
    bbox = np.stack([lo, hi], axis=1)
    full = np.zeros(np.array(occupancy.shape) + 2 * pad, bool)
    full[tuple(slice(pad, pad + s) for s in occupancy.shape)] = occupancy
    return ClosedSet(
        dim=occupancy.ndim,
        h=h,
        points=centers,
        bbox=bbox,
        kind="solid",
        occupancy=full,
        name=name,
    )
