"""Sampled closed sets with a uniform-norm distance oracle.

A set is carried by finitely many sample points at resolution h.  Thin sets
stand for lower-dimensional objects (each sample represents set points within
h/2); solid sets carry an occupancy mask of h-cells whose centers are the
samples.  Distances, porosity tests, the empty-core quasi-distance and the
ball-condition estimate all reduce to nearest-sample queries, which a
Chebyshev KD-tree answers exactly:  the uniform distance from a point to the
cell around a sample is max(0, ||x - sample|| - h/2).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .cubes import Cube
from .util import ConfigError, chebyshev, lex_order

__all__ = [
    "ClosedSet",
    "thin_set",
    "solid_set",
    "BallConditionEstimate",
]

_LATTICE_CAP = 41  # max candidate-lattice nodes per axis in empty-cube searches


@dataclass(eq=False)
class ClosedSet:
    dim: int
    h: float
    points: np.ndarray
    bbox: np.ndarray
    kind: str  # "thin" | "solid"
    occupancy: np.ndarray | None = None  # solid only, bool over bbox h-cells
    name: str = ""
    _tree: cKDTree | None = field(default=None, repr=False)
    _boundary: "ClosedSet | None" = field(default=None, repr=False)
    _interior_mask: np.ndarray | None = field(default=None, repr=False)
    _ball_conditions: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, float))
        self.bbox = np.asarray(self.bbox, float)
        if self.points.shape[0] == 0:
            raise ConfigError("a closed set needs at least one sample point")
        if self.points.shape[1] != self.dim or self.bbox.shape != (self.dim, 2):
            raise ConfigError("inconsistent dimensions in ClosedSet")
        if not (np.isfinite(self.points).all() and np.isfinite(self.bbox).all()):
            raise ConfigError("sample coordinates and bbox must be finite")
        if self.kind not in ("thin", "solid"):
            raise ConfigError(f"unknown set kind {self.kind!r}")
        if self.kind == "solid" and self.occupancy is None:
            raise ConfigError("solid sets need an occupancy mask")
        margin = np.minimum(
            self.points.min(axis=0) - self.bbox[:, 0],
            self.bbox[:, 1] - self.points.max(axis=0),
        )
        if np.any(margin < 1.0 - 1e-9):
            raise ConfigError("bbox must keep a margin >= 1 around the samples")

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

    def nearest_distance(self, x) -> np.ndarray:
        d, _ = self.tree.query(np.atleast_2d(np.asarray(x, float)), p=np.inf)
        return d

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
        """Membership proxy: within h/2 of a sample or inside an occupied cell."""
        x = np.asarray(x, float)
        out = self.nearest_distance(x) <= self.on_set_reach
        return bool(out[0]) if x.ndim == 1 else out

    def nearest_point(self, x) -> tuple:
        """(sample point, index) closest to x, or (points, indices) for an
        (n, dim) array; ties pick the lexicographically smallest sample, then
        the smallest index.

        One k=2 query finds the rows with a tie; only those take a ball
        query for the whole tied group.
        """
        x = np.asarray(x, float)
        rows = np.atleast_2d(x)
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
        if x.ndim == 1:
            return self.points[idx[0]].copy(), int(idx[0])
        return self.points[idx], idx

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

    def _split_cells(self):
        occ = self.occupancy
        structure = np.ones((3,) * self.dim, bool)
        interior_cells = ndimage.binary_erosion(occ, structure=structure)
        cell_index = np.round(
            (self.points - self.bbox[:, 0] - self.h / 2) / self.h
        ).astype(int)
        interior = interior_cells[tuple(cell_index.T)]
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

    def _lattice(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Deterministic candidate grid in a box, h/2 spacing capped per axis."""
        axes = []
        for a in range(self.dim):
            width = max(hi[a] - lo[a], 0.0)
            count = min(_LATTICE_CAP, int(np.floor(width / (self.h / 2))) + 1)
            count = max(count, 2) if width > 0 else 1
            axes.append(np.linspace(lo[a], hi[a], count))
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def max_clearance_in(self, lo, hi) -> tuple:
        """Max distance to the set over a candidate grid in [lo, hi];
        returns (clearance, argmax point)."""
        cands = self._lattice(np.asarray(lo, float), np.asarray(hi, float))
        d = self.dist(cands)
        k = int(np.argmax(d))
        # deterministic tie-break on the lexicographically smallest candidate
        tied = np.nonzero(d >= d[k] - 1e-15)[0]
        if len(tied) > 1:
            k = int(tied[lex_order(cands[tied])[0]])
        return float(d[k]), cands[k]

    def is_porous(self, cube: Cube, alpha: float, strong: bool = False) -> bool:
        """True when `cube` contains a set-free subcube of relative size alpha.

        The subcube must sit inside `cube`, so its center is searched over the
        (1-alpha)-shrunken box; strict clearance > alpha * r certifies the
        closed subcube misses the set.  With strong=True, every concentric
        dilation eta*cube down to the grid scale must pass the same test.
        """
        if not (0 < alpha <= 1):
            raise ConfigError(f"porosity parameter must be in (0, 1], got {alpha}")
        if strong:
            eta = 1.0
            while eta * cube.radius >= self.h / 2 - 1e-15:
                if not self.is_porous(cube.dilate(eta), alpha):
                    return False
                eta *= 0.5
            return True
        slack = (1.0 - alpha) * cube.radius
        c = np.array(cube.center)
        clearance, _ = self.max_clearance_in(c - slack, c + slack)
        return clearance > alpha * cube.radius

    def quasidistance(
        self, x, y, alpha: float = 1.0 / 15.0, return_witness: bool = False,
        ratio: float = 1.05,
    ):
        """Smallest found diameter of a cube holding x and y whose alpha-core
        avoids the set; inf when no cube up to the bbox size qualifies.

        Feasibility is not monotone in the diameter, so the scan walks a
        geometric grid from ||x-y|| up to the bbox extent and stops at the
        first feasible level; a coarser ratio trades value precision for
        speed but never returns below ||x-y||.  Candidate centers range over
        the box of points within d/2 of both x and y.
        """
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        sep = float(chebyshev(x, y))
        d = max(sep, self.h / 4.0)
        d_max = float(np.max(self.bbox[:, 1] - self.bbox[:, 0]))
        while d <= d_max * (1 + 1e-12):
            r = d / 2.0
            lo = np.maximum(x, y) - r
            hi = np.minimum(x, y) + r
            clearance, center = self.max_clearance_in(lo, hi)
            if clearance > alpha * r:
                if return_witness:
                    return d, Cube(tuple(center), r)
                return d
            d *= ratio
        return (np.inf, None) if return_witness else np.inf

    def largest_empty_subcube(self, cube: Cube) -> float:
        """Radius of the biggest set-free subcube found inside `cube`."""
        c = np.array(cube.center)
        cands = self._lattice(c - cube.radius, c + cube.radius)
        room = cube.radius - chebyshev(cands, c)
        radius = np.minimum(self.dist(cands), room)
        return float(np.max(radius))

    def ball_condition_estimate(
        self, seed: int = 0, n_centers: int = 48
    ) -> "BallConditionEstimate":
        """Empirical ball-condition check: every cube centered on the set should
        contain a set-free subcube of a fixed relative size.

        beta_hat is the largest observed ratio diam(cube)/diam(empty subcube);
        the condition counts as satisfied when every probed cube at scales
        >= 8h produced a nonempty gap.  The estimate depends only on the set,
        so it is computed once per (seed, n_centers) and cached.
        """
        key = (seed, n_centers)
        if key in self._ball_conditions:
            return self._ball_conditions[key]
        rng = np.random.default_rng(seed)
        m = len(self.points)
        idx = np.arange(m) if m <= n_centers else np.sort(
            rng.choice(m, size=n_centers, replace=False)
        )
        radii = [r for r in (2.0 ** -np.arange(1, 12)) if 8 * self.h <= 2 * r <= 1.0]
        worst = 0.0
        satisfied = True
        table = []
        for i in idx:
            for r in radii:
                cube = Cube(tuple(self.points[i]), float(r))
                gap = self.largest_empty_subcube(cube)
                table.append((float(r), gap))
                if gap <= 0:
                    satisfied = False
                else:
                    worst = max(worst, r / gap)
        est = BallConditionEstimate(satisfied and worst > 0, worst, tuple(table))
        self._ball_conditions[key] = est
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
            occupancy = np.zeros(tuple(obj["cells_shape"]), bool)
            cells = np.array(obj["cells"], int)
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
        with open(path) as fh:
            return ClosedSet.from_json(json.load(fh))


@dataclass(frozen=True)
class BallConditionEstimate:
    satisfied: bool
    beta_hat: float
    table: tuple  # (cube radius, empty-subcube radius) per probe


def _default_bbox(points: np.ndarray, margin: float) -> np.ndarray:
    lo = points.min(axis=0) - margin
    hi = points.max(axis=0) + margin
    return np.stack([lo, hi], axis=1)


def thin_set(points, h: float, margin: float = 1.25, name: str = "") -> ClosedSet:
    """Thin set from explicit sample points."""
    points = np.atleast_2d(np.asarray(points, float))
    return ClosedSet(
        dim=points.shape[1],
        h=h,
        points=points,
        bbox=_default_bbox(points, margin),
        kind="thin",
        name=name,
    )


def solid_set(occupancy: np.ndarray, h: float, origin, margin: float = 1.25,
              name: str = "") -> ClosedSet:
    """Solid set from an occupancy mask; samples sit at occupied cell centers.

    origin is the lower corner of cell (0, ..., 0).  The mask is embedded in a
    bbox with the requested margin, so the distance oracle stays exact.
    """
    occupancy = np.asarray(occupancy, bool)
    origin = np.asarray(origin, float)
    cells = np.argwhere(occupancy)
    if len(cells) == 0:
        raise ConfigError("solid set needs at least one occupied cell")
    centers = origin + (cells + 0.5) * h
    # pad in whole cells so the bbox stays aligned with the cell lattice
    pad = int(np.ceil(margin / h))
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
