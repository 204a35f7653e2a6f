"""Axis-parallel closed cubes in the uniform norm, and packing combinatorics.

A cube is determined by its center and radius (half side length); its diameter
in the max norm equals the side length 2r.  A family of cubes is a pair of
arrays (centers (m, n), radii (m,)); families support exact
covering-multiplicity computation and partitioning into packings (subfamilies
with pairwise disjoint interiors).  Whether two interiors meet has one rule,
interiors_meet, read by the colouring here, the greedy packing of
oscillation.py and the enumeration of criterion C05.  A single Cube is the
witness the quasidistance scan returns and the argument of ClosedSet.is_porous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .util import ConfigError, chebyshev, lex_order

__all__ = [
    "Cube",
    "interiors_meet",
    "covering_multiplicity",
    "packing_color_bound",
    "partition_into_packings",
    "conflict_masks",
]

GROWTH = 9.0 / 8.0  # dilation factor used for Whitney support cubes
_BACKTRACK_BUDGET = 400_000  # search nodes the exact coloring may visit


@dataclass(frozen=True)
class Cube:
    """Closed axis-parallel cube Q(center, radius) in the uniform norm."""

    center: tuple
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ConfigError(f"cube radius must be positive, got {self.radius}")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "radius", float(self.radius))


def _interval_max_overlap(los: np.ndarray, his: np.ndarray) -> int:
    # closed intervals: at equal coordinates an opening event counts before
    # a closing one, so touching intervals overlap
    coords = np.concatenate([los, his])
    codes = np.concatenate([np.zeros(len(los), int), np.ones(len(his), int)])
    deltas = np.concatenate([np.ones(len(los), int), -np.ones(len(his), int)])
    order = np.lexsort((codes, coords))
    return int(np.max(np.cumsum(deltas[order])))


def _multiplicity_rec(los: np.ndarray, his: np.ndarray, best: int) -> int:
    if los.shape[1] == 1:
        return max(best, _interval_max_overlap(los[:, 0], his[:, 0]))
    # The coverage count is upper semicontinuous and piecewise constant, so its
    # maximum is attained at a point whose first coordinate is an endpoint of
    # one of the cubes; sweep those and recurse on the remaining axes.
    for x in np.unique(np.concatenate([los[:, 0], his[:, 0]])):
        active = (los[:, 0] <= x) & (x <= his[:, 0])
        if int(active.sum()) <= best:
            continue
        best = _multiplicity_rec(los[active, 1:], his[active, 1:], best)
    return best


def covering_multiplicity(centers, radii) -> int:
    """Exact maximum number of the cubes Q(centers[i], radii[i]) covering a
    single point."""
    centers, radii = np.asarray(centers, float), np.asarray(radii, float)
    if len(radii) == 0:
        return 0
    los = centers - radii[:, None]
    his = centers + radii[:, None]
    return _multiplicity_rec(los, his, 0)


def packing_color_bound(multiplicity: int, dim: int) -> int:
    """Number of packings into which a family of multiplicity M always splits."""
    if multiplicity <= 0:
        return 0
    return 2 ** (dim - 1) * (multiplicity - 1) + 1


def interiors_meet(center, radius, centers, radii) -> np.ndarray:
    """Per cube Q(centers[i], radii[i]), whether its interior meets that of
    Q(center, radius): their center gap (max norm) is below the radius sum
    by more than 1e-12, so faces that touch up to rounding do not meet."""
    return chebyshev(center, centers) < radius + radii - 1e-12


def conflict_masks(centers, radii) -> list:
    """Per cube, a bit mask of the other cubes whose interiors meet its own."""
    masks = []
    for i in range(len(centers)):
        meet = interiors_meet(centers[i], radii[i], centers, radii)
        meet[i] = False
        masks.append(sum(1 << j for j in np.nonzero(meet)[0].tolist()))
    return masks


def _first_fit(order, conflicts) -> np.ndarray:
    labels = np.full(len(conflicts), -1, int)
    class_masks: list = []
    for i in order:
        ci = conflicts[i]
        for k, cm in enumerate(class_masks):
            if not (cm & ci):
                labels[i] = k
                class_masks[k] = cm | (1 << int(i))
                break
        else:
            labels[i] = len(class_masks)
            class_masks.append(1 << int(i))
    return labels


def _dsatur(conflicts) -> np.ndarray:
    m = len(conflicts)
    neighbor_colors = [set() for _ in range(m)]
    degrees = [bin(c).count("1") for c in conflicts]
    labels = np.full(m, -1, int)
    for _ in range(m):
        # highest saturation first, degree then index as deterministic ties
        pick = min(
            (i for i in range(m) if labels[i] < 0),
            key=lambda i: (-len(neighbor_colors[i]), -degrees[i], i),
        )
        color = 0
        while color in neighbor_colors[pick]:
            color += 1
        labels[pick] = color
        ci = conflicts[pick]
        j = 0
        while ci:
            if ci & 1:
                neighbor_colors[j].add(color)
            ci >>= 1
            j += 1
    return labels


def _backtrack_coloring(conflicts, target: int):
    """Search for a coloring with at most `target` colors; None if not found."""
    m = len(conflicts)
    order = sorted(range(m), key=lambda i: (-bin(conflicts[i]).count("1"), i))
    labels = [-1] * m
    color_masks = [0] * target
    nodes = 0

    def rec(pos: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > _BACKTRACK_BUDGET:
            return False
        if pos == m:
            return True
        i = order[pos]
        used = max(labels[order[k]] for k in range(pos)) if pos else -1
        # symmetry break: allow at most one brand-new color
        for c in range(min(used + 1, target - 1) + 1):
            if not (color_masks[c] & conflicts[i]):
                labels[i] = c
                color_masks[c] |= 1 << i
                if rec(pos + 1):
                    return True
                color_masks[c] &= ~(1 << i)
                labels[i] = -1
        return False

    if rec(0):
        return np.array(labels, int)
    return None


def partition_into_packings(centers, radii) -> np.ndarray:
    """Color labels splitting the family Q(centers[i], radii[i]) into
    packings (disjoint interiors).

    Tries greedy first-fit in decreasing-diameter order, then in
    lexicographic sweep order, then DSATUR, and finally a bounded exact
    search against the multiplicity-based color bound.  Returns the best
    labeling found; every class is guaranteed internally disjoint.
    """
    centers, radii = np.asarray(centers, float), np.asarray(radii, float)
    if len(radii) == 0:
        return np.zeros(0, int)
    target = packing_color_bound(covering_multiplicity(centers, radii), centers.shape[1])
    conflicts = conflict_masks(centers, radii)

    by_diam = np.lexsort(tuple(centers.T[::-1]) + (-radii,))
    candidates = [_first_fit(by_diam, conflicts)]
    if candidates[-1].max() + 1 > target:
        candidates.append(_first_fit(lex_order(centers), conflicts))
    if min(c.max() + 1 for c in candidates) > target:
        candidates.append(_dsatur(conflicts))
    if min(c.max() + 1 for c in candidates) > target:
        exact = _backtrack_coloring(conflicts, target)
        if exact is not None:
            candidates.append(exact)
    return min(candidates, key=lambda c: c.max() + 1)
