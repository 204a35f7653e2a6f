"""Cube geometry and packing combinatorics.

covering_multiplicity has an independent oracle here: evaluate the coverage
count on every combination of interval endpoints (the maximum of an upper
semicontinuous piecewise-constant function is attained at such a corner).
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sobtrace.cubes import (
    Cube,
    covering_multiplicity,
    interiors_disjoint,
    packing_color_bound,
    partition_into_packings,
)


def brute_multiplicity(cubes):
    los = np.array([c.lo for c in cubes])
    his = np.array([c.hi for c in cubes])
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
    return [Cube(tuple(c), float(s)) for c, s in zip(centers, sizes)]


def test_dilate_scales_radius_only():
    q = Cube((0.0, 0.0), 1.0)
    g = q.dilate(1.5)
    assert g.center == (0.0, 0.0)
    assert g.radius == 1.5
    assert q.grown().radius == pytest.approx(9 / 8)


def test_diam_and_volume_match_uniform_norm_side():
    q = Cube((0.3,), 0.25)
    assert q.diam == 0.5
    assert q.volume == 0.5
    q2 = Cube((0.0, 0.0), 0.5)
    assert q2.volume == 1.0


def test_relations_hand_cases():
    a = Cube((0.0,), 0.5)
    assert interiors_disjoint(a, Cube((1.0,), 0.5))
    assert not interiors_disjoint(a, Cube((0.9,), 0.5))


def test_multiplicity_three_intervals():
    cubes = [Cube((0.0,), 0.5), Cube((0.75,), 0.5), Cube((1.5,), 0.5)]
    assert covering_multiplicity(cubes) == 2
    labels = partition_into_packings(cubes)
    assert labels.max() + 1 == 2
    # outer pair lands in one packing, middle cube alone in the other
    assert labels[0] == labels[2] != labels[1]


def test_multiplicity_nested_chain():
    cubes = [Cube((0.0,), 0.5 * 2.0 ** (-k)) for k in range(5)]
    assert covering_multiplicity(cubes) == 5
    labels = partition_into_packings(cubes)
    assert labels.max() + 1 == 5 == packing_color_bound(5, 1)


def test_multiplicity_disjoint_grid():
    cubes = [Cube((float(i), float(j)), 0.4) for i in range(3) for j in range(3)]
    assert covering_multiplicity(cubes) == 1
    assert partition_into_packings(cubes).max() == 0


def test_json_roundtrip_exact():
    q = Cube((1 / 3, 0.1), 2 ** -7)
    back = Cube.from_json(q.to_json())
    assert back == q


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 2), st.integers(1, 8))
def test_multiplicity_matches_brute_force(seed, n, m):
    rng = np.random.default_rng(seed)
    cubes = random_family(rng, n, m)
    assert covering_multiplicity(cubes) == brute_multiplicity(cubes)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 2), st.integers(1, 9))
def test_partition_classes_are_packings_and_meet_bound(seed, n, m):
    rng = np.random.default_rng(seed)
    cubes = random_family(rng, n, m)
    labels = partition_into_packings(cubes)
    for k in range(labels.max() + 1):
        idx = np.nonzero(labels == k)[0]
        for a, b in itertools.combinations(idx, 2):
            assert interiors_disjoint(cubes[a], cubes[b])
    bound = packing_color_bound(covering_multiplicity(cubes), n)
    assert labels.max() + 1 <= bound


def test_touching_cubes_share_a_packing():
    # touching faces are allowed inside one packing
    cubes = [Cube((0.0,), 0.5), Cube((1.0,), 0.5)]
    labels = partition_into_packings(cubes)
    assert labels.max() == 0
