"""Cube families (centers, radii arrays) and packing combinatorics.

covering_multiplicity has an independent oracle here: evaluate the coverage
count on every combination of interval endpoints, lower and upper (the
maximum of an upper semicontinuous piecewise-constant function is attained at
such a corner).  The implementation reads lower ends only: closed cubes that
cover a point also cover the point whose coordinates are their largest lower
ends, so the oracle's upper ends never raise the maximum.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sobtrace.cubes import (
    Cube,
    _dsatur,
    conflict_masks,
    covering_multiplicity,
    interiors_meet,
    packing_color_bound,
    partition_into_packings,
)


def interiors_disjoint(a: Cube, b: Cube) -> bool:
    """True when the open interiors do not meet (shared faces allowed);
    the packing oracle of these tests and of test_oscillation."""
    ca, cb = np.array(a.center), np.array(b.center)
    return bool(np.any(np.minimum(ca + a.radius, cb + b.radius)
                       <= np.maximum(ca - a.radius, cb - b.radius)))


def brute_multiplicity(centers, radii):
    los = centers - radii[:, None]
    his = centers + radii[:, None]
    n = los.shape[1]
    axis_vals = [np.unique(np.concatenate([los[:, i], his[:, i]])) for i in range(n)]
    best = 0
    for combo in itertools.product(*axis_vals):
        x = np.array(combo)
        count = int(np.sum(np.all((los <= x) & (x <= his), axis=1)))
        best = max(best, count)
    return best


def random_family(rng, n, m):
    sizes = rng.choice([0.125, 0.25, 0.5], size=m)
    centers = rng.uniform(0, 2, size=(m, n))
    return centers, sizes


def family_1d(centers, radii):
    return np.array(centers, float)[:, None], np.array(radii, float)


def test_relations_hand_cases():
    a = Cube((0.0,), 0.5)
    assert interiors_disjoint(a, Cube((1.0,), 0.5))
    assert not interiors_disjoint(a, Cube((0.9,), 0.5))


def test_multiplicity_three_intervals():
    cubes = family_1d([0.0, 0.75, 1.5], [0.5, 0.5, 0.5])
    assert covering_multiplicity(*cubes) == 2
    labels = partition_into_packings(*cubes)
    assert labels.max() + 1 == 2
    # outer pair lands in one packing, middle cube alone in the other
    assert labels[0] == labels[2] != labels[1]


def test_multiplicity_nested_chain():
    cubes = family_1d([0.0] * 5, [0.5 * 2.0 ** (-k) for k in range(5)])
    assert covering_multiplicity(*cubes) == 5
    labels = partition_into_packings(*cubes)
    assert labels.max() + 1 == 5 == packing_color_bound(5, 1)


def test_multiplicity_disjoint_grid():
    centers = np.array([(float(i), float(j)) for i in range(3) for j in range(3)])
    radii = np.full(9, 0.4)
    assert covering_multiplicity(centers, radii) == 1
    assert partition_into_packings(centers, radii).max() == 0


def test_empty_family():
    centers, radii = np.zeros((0, 2)), np.zeros(0)
    assert covering_multiplicity(centers, radii) == 0
    assert len(partition_into_packings(centers, radii)) == 0


def test_touching_closed_intervals_overlap():
    # [0, 1] and [1, 2] share the point 1
    assert covering_multiplicity(*family_1d([0.5, 1.5], [0.5, 0.5])) == 2


def test_multiplicity_nested_chain_3d():
    # each cube lies in the one before, off center; a far cube adds nothing
    k = np.arange(5.0)[:, None]
    centers = np.vstack([2.0 ** -k * [0.5, 0.25, -0.5], [[9.0, 9.0, 9.0]]])
    radii = np.append(2.0 ** -k[:, 0], 1.0)
    assert covering_multiplicity(centers, radii) == 5


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 8), st.booleans(),
       st.booleans())
def test_multiplicity_matches_brute_force(seed, n, m, lattice, points):
    # centers on a 1/8 lattice make faces touch and coincide; zero radii
    # make cubes that are single points
    rng = np.random.default_rng(seed)
    centers, radii = random_family(rng, n, m)
    if lattice:
        centers = np.round(centers * 8) / 8
    if points:
        radii[rng.random(m) < 0.5] = 0.0
    assert covering_multiplicity(centers, radii) == brute_multiplicity(centers, radii)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 2), st.integers(1, 40))
def test_partition_classes_are_packings_and_meet_bound(seed, n, m):
    rng = np.random.default_rng(seed)
    centers, radii = random_family(rng, n, m)
    labels = partition_into_packings(centers, radii)
    for k in range(labels.max() + 1):
        idx = np.nonzero(labels == k)[0]
        for a, b in itertools.combinations(idx, 2):
            assert interiors_disjoint(Cube(centers[a], radii[a]), Cube(centers[b], radii[b]))
    bound = packing_color_bound(covering_multiplicity(centers, radii), n)
    assert labels.max() + 1 <= bound


def test_touching_cubes_share_a_packing():
    # touching faces are allowed inside one packing
    labels = partition_into_packings(*family_1d([0.0, 1.0], [0.5, 0.5]))
    assert labels.max() == 0


def reference_conflict_masks(centers, radii):
    """One interiors_meet row per cube, its set bits summed one by one."""
    masks = []
    for i in range(len(centers)):
        meet = interiors_meet(centers[i], radii[i], centers, radii)
        meet[i] = False
        masks.append(sum(1 << j for j in np.nonzero(meet)[0].tolist()))
    return masks


def reference_dsatur(conflicts):
    """DSATUR with each pick the min over every uncoloured cube of
    (-saturation, -degree, index)."""
    m = len(conflicts)
    neighbor_colors = [set() for _ in range(m)]
    degrees = [bin(c).count("1") for c in conflicts]
    labels = np.full(m, -1, int)
    for _ in range(m):
        pick = min((i for i in range(m) if labels[i] < 0),
                   key=lambda i: (-len(neighbor_colors[i]), -degrees[i], i))
        color = 0
        while color in neighbor_colors[pick]:
            color += 1
        labels[pick] = color
        for j in range(m):
            if conflicts[pick] >> j & 1:
                neighbor_colors[j].add(color)
    return labels


@pytest.mark.parametrize("seed", range(4))
def test_masks_and_colouring_match_the_one_row_references(seed):
    # families drawn as criterion C02 draws them, and lattices with touching
    # faces and equal degrees, where the heap's ties decide the picks
    rng = np.random.default_rng(seed)
    for trial in range(25):
        dim = 1 + trial % 2
        m = int(rng.integers(1, 201))
        if trial % 5 == 4:
            centers = rng.integers(0, 8, (m, dim)) / 4.0
            radii = rng.choice([0.125, 0.25, 0.5], size=m)
        else:
            centers = rng.uniform(0, 1, (m, dim))
            radii = rng.uniform(0.005, 0.08, m)
        masks = conflict_masks(centers, radii)
        assert masks == reference_conflict_masks(centers, radii)
        assert np.array_equal(_dsatur(masks), reference_dsatur(masks))
