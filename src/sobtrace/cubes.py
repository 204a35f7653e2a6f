"""Axis-parallel closed cubes in the uniform norm, and packing combinatorics.

A cube is determined by its center and radius (half side length); its diameter
in the max norm equals the side length 2r.  A family of cubes is a pair of
arrays (centers (m, n), radii (m,)).  A family's exact covering multiplicity
is counted at lower ends only: closed cubes covering a point also cover the
point whose coordinates are their largest lower ends.  A family is split
into packings (subfamilies with pairwise disjoint interiors) by one
colouring, DSATUR over the conflict masks, with no colour target of its own
(criterion C02 compares the count with the multiplicity bound).  Whether two
interiors meet has one rule, interiors_meet, read by the colouring here, the
greedy packing of oscillation.py and criteria C02 and C05.  A single Cube is
the witness the quasidistance scan returns and the argument of
ClosedSet.is_porous.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .util import ConfigError, chebyshev

__all__ = [
    "Cube",
    "interiors_meet",
    "covering_multiplicity",
    "packing_color_bound",
    "partition_into_packings",
    "conflict_masks",
]

GROWTH = 9.0 / 8.0  # dilation factor used for Whitney support cubes


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


def _multiplicity_rec(los: np.ndarray, his: np.ndarray, best: int) -> int:
    lo, hi = los[:, 0], his[:, 0]
    ends = np.unique(lo)
    counts = (np.searchsorted(np.sort(lo), ends, "right")
              - np.searchsorted(np.sort(hi), ends, "left"))
    if los.shape[1] == 1:
        return max(best, int(counts.max()))
    for k in np.argsort(-counts, kind="stable"):
        if counts[k] <= best:
            break
        cover = (lo <= ends[k]) & (ends[k] <= hi)
        best = _multiplicity_rec(los[cover, 1:], his[cover, 1:], best)
    return best


def covering_multiplicity(centers, radii) -> int:
    """Exact maximum number of the cubes Q(centers[i], radii[i]) covering a
    single point.  The cubes are closed, so those covering a point also cover
    the point of their largest lower ends.  Per axis, each distinct lower end
    gets its count by two sorted searches; the last axis returns the largest,
    another recurses on the cubes covering each end, by decreasing count while
    the count exceeds the best found."""
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
    """Per cube, a bit mask of the other cubes whose interiors meet its own
    (bit j for cube j), read off one broadcast interiors_meet matrix, whose
    row i holds what the one-row call for cube i gives."""
    centers, radii = np.asarray(centers, float), np.asarray(radii, float)
    meet = interiors_meet(centers[:, None], radii[:, None], centers, radii)
    np.fill_diagonal(meet, False)
    rows = np.packbits(meet, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def _dsatur(conflicts) -> np.ndarray:
    """DSATUR colour labels: the uncoloured cube of highest saturation (the
    number of distinct colours among its neighbours) is coloured next, with
    the smallest colour no neighbour holds; ties go to the higher degree,
    then the lower index. Picks come off a heap keyed (-saturation, -degree,
    index); a cube's saturation only grows, and each growth pushes a fresh
    entry, which ranks before the cube's older ones, so an entry popped for
    a coloured cube is skipped. The key is a total order, so every pick is
    the minimum over the uncoloured cubes."""
    m = len(conflicts)
    neighbor_colors = [set() for _ in range(m)]
    degrees = [c.bit_count() for c in conflicts]
    labels = [-1] * m
    heap = [(0, -degrees[i], i) for i in range(m)]
    heapq.heapify(heap)
    while heap:
        pick = heapq.heappop(heap)[2]
        if labels[pick] >= 0:
            continue
        color = 0
        while color in neighbor_colors[pick]:
            color += 1
        labels[pick] = color
        ci = conflicts[pick]
        while ci:
            low = ci & -ci
            j = low.bit_length() - 1
            ci ^= low
            if labels[j] < 0 and color not in neighbor_colors[j]:
                neighbor_colors[j].add(color)
                heapq.heappush(heap, (-len(neighbor_colors[j]), -degrees[j], j))
    return np.array(labels, int)


def partition_into_packings(centers, radii) -> np.ndarray:
    """Color labels splitting the family Q(centers[i], radii[i]) into
    packings (disjoint interiors).

    One strategy, DSATUR (Brelaz 1979) over the conflict masks, with no
    colour target: every class is internally disjoint by interiors_meet,
    and criterion C02 checks the count against packing_color_bound.
    """
    centers, radii = np.asarray(centers, float), np.asarray(radii, float)
    return _dsatur(conflict_masks(centers, radii))
