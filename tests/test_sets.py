"""Closed-set model: distance oracle, boundary split, porosity, quasi-distance.

The distance oracle has a brute-force oracle (min over samples) checked on
random point clouds; porosity and quasi-distance are pinned on hand-built
configurations with known answers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sobtrace.cubes import Cube
from sobtrace.sets import ClosedSet, solid_set, thin_set
from sobtrace.util import ConfigError


def square_mask(k):
    return np.ones((k, k), bool)


def test_dist_thin_matches_brute_force():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 1, size=(40, 2))
    S = thin_set(pts, h=1 / 64)
    queries = rng.uniform(-0.5, 1.5, size=(100, 2))
    brute = np.min(
        np.max(np.abs(queries[:, None, :] - pts[None, :, :]), axis=2), axis=1
    )
    assert np.allclose(S.dist(queries), brute, atol=0)


def test_dist_solid_is_zero_inside_cells():
    S = solid_set(square_mask(8), h=1 / 8, origin=(0.0, 0.0))
    assert S.dist(np.array([0.5, 0.5])) == 0.0
    assert S.dist(np.array([1.25, 0.5])) == pytest.approx(0.25)
    assert S.on_set(np.array([0.99, 0.01]))
    assert not S.on_set(np.array([1.01, 0.5]))


def test_dist_cube_formula():
    S = thin_set(np.array([[0.0, 0.0]]), h=1 / 32)
    q = Cube((1.0, 0.0), 0.25)
    assert S.dist_cube([q.center], q.radius)[0] == pytest.approx(0.75)
    assert S.dist_cube([(0.1, 0.0)], 0.5)[0] == 0.0


def test_nearest_point_lexicographic_tie():
    S = thin_set(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]), h=1 / 16)
    p, idx = S.nearest_point(np.array([0.0, 0.0]))
    # all three are at uniform distance 1; the lexicographically smallest wins
    assert np.allclose(p, [-1.0, 0.0])
    assert idx == 1


def test_nearest_point_batched_matches_per_point_rule():
    # a shuffled 5x5 lattice of samples, three of them repeated, queried on a
    # lattice twice as fine: most queries are equidistant to several samples
    axis = np.arange(5) * 0.25
    pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    pts = pts[np.random.default_rng(4).permutation(len(pts))]
    pts = np.concatenate([pts, pts[:3]])
    S = thin_set(pts, h=1 / 16)
    q_axis = np.arange(-2, 11) * 0.125
    queries = np.stack(np.meshgrid(q_axis, q_axis, indexing="ij"), axis=-1).reshape(-1, 2)
    # per query: the tied samples, then lexicographic order, then the index
    d = np.max(np.abs(queries[:, None, :] - pts[None, :, :]), axis=2)
    d_min = d.min(axis=1, keepdims=True)
    tied = d <= d_min + 1e-12 * (1.0 + d_min)
    assert np.count_nonzero(tied.sum(axis=1) > 1) > len(queries) // 2
    rank = np.empty(len(pts), int)
    rank[np.lexsort((np.arange(len(pts)),) + tuple(pts.T[::-1]))] = np.arange(len(pts))
    want = np.argmin(np.where(tied, rank, len(pts)), axis=1)
    points, idx = S.nearest_point(queries)
    assert np.array_equal(idx, want)
    assert np.array_equal(points, pts[want])
    for x, k in zip(queries, want):
        p, i = S.nearest_point(x)
        assert i == k and np.array_equal(p, pts[k])


def test_boundary_of_solid_square():
    S = solid_set(square_mask(8), h=1 / 8, origin=(0.0, 0.0))
    b = S.boundary()
    interior = S.interior_mask()
    assert b.kind == "thin"
    assert len(b.points) == 8 * 8 - 6 * 6
    assert interior.sum() == 6 * 6
    # boundary samples hug the frame
    frame = np.min(
        np.minimum(b.points - 0.0, 1.0 - b.points), axis=1
    )
    assert np.all(frame <= 1 / 8)


def test_boundary_of_thin_set_is_itself():
    S = thin_set(np.array([[0.0], [1.0]]), h=1 / 16)
    assert S.boundary() is S
    assert not S.interior_mask().any()


def test_porosity_two_points():
    S = thin_set(np.array([[0.0], [1.0]]), h=1 / 64)
    gap_cube = Cube((0.5,), 0.5)
    assert S.is_porous(gap_cube, alpha=0.5)
    assert S.is_porous(gap_cube, alpha=0.9)
    assert S.is_porous(gap_cube, alpha=0.5, strong=True)


def test_porosity_fails_inside_solid():
    S = solid_set(square_mask(32), h=1 / 16, origin=(0.0, 0.0))
    deep = Cube((1.0, 1.0), 0.25)
    assert not S.is_porous(deep, alpha=0.25)
    near_edge = Cube((1.0, 2.0), 0.25)  # straddles the top face
    assert S.is_porous(near_edge, alpha=0.25)


def test_quasidistance_two_points():
    S = thin_set(np.array([[0.0], [1.0]]), h=1 / 64)
    d, witness = S.quasidistance([0.0], [1.0], alpha=1 / 15, return_witness=True)
    # the unit interval itself qualifies: its alpha-core clears both endpoints
    assert d == pytest.approx(1.0)
    assert witness.contains([0.0]) and witness.contains([1.0])
    # same point on the set: feasible at the first scan level
    assert S.quasidistance([0.0], [0.0]) <= S.h
    # lower bound by construction (vs the same float distance computation)
    sep = np.max(np.abs(np.array([0.2]) - np.array([0.7])))
    assert S.quasidistance([0.2], [0.7]) >= sep


def test_quasidistance_infinite_inside_solid():
    S = solid_set(square_mask(32), h=1 / 16, origin=(0.0, 0.0))
    x = np.array([1.0, 1.0])
    assert S.quasidistance(x, x, alpha=0.9) == np.inf


def test_ball_condition_segment_vs_solid():
    xs = np.linspace(0.0, 1.0, 65)
    seg = thin_set(np.stack([xs, np.zeros_like(xs)], axis=1), h=1 / 64)
    est = seg.ball_condition_estimate()
    assert est.satisfied
    assert est.beta_hat <= 4.0

    solid = solid_set(square_mask(32), h=1 / 32, origin=(0.0, 0.0))
    assert not solid.ball_condition_estimate().satisfied


def test_ball_condition_cached_per_seed(monkeypatch):
    xs = np.linspace(0.0, 1.0, 65)
    seg = thin_set(np.stack([xs, np.zeros_like(xs)], axis=1), h=1 / 64)
    first = seg.ball_condition_estimate()
    assert isinstance(first.table, tuple) and first.table
    scans = []
    real = ClosedSet.largest_empty_subcube

    def counting(self, cube):
        scans.append(cube)
        return real(self, cube)

    monkeypatch.setattr(ClosedSet, "largest_empty_subcube", counting)
    assert seg.ball_condition_estimate() is first
    assert seg.ball_condition_estimate(seed=0, n_centers=48) is first
    assert scans == []
    other = seg.ball_condition_estimate(seed=1)
    assert scans and other is not first
    assert seg.ball_condition_estimate(seed=1) is other


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_rejected(bad):
    with pytest.raises(ConfigError):
        thin_set([[0.0, 0.0], [bad, 1.0]], h=0.1)
    bbox = np.array([[-2.0, 2.0], [-2.0, bad]])
    with pytest.raises(ConfigError):
        ClosedSet(dim=2, h=0.1, points=[[0.0, 0.0]], bbox=bbox, kind="thin")


def test_json_roundtrip():
    S = solid_set(square_mask(4), h=1 / 4, origin=(0.0, 0.0), name="sq")
    back = type(S).from_json(S.to_json())
    assert back.kind == "solid"
    assert np.array_equal(back.points, S.points)
    assert np.array_equal(back.occupancy, S.occupancy)
    assert back.dist(np.array([2.0, 0.5])) == pytest.approx(S.dist(np.array([2.0, 0.5])))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 5000))
def test_dist_is_one_lipschitz(seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 1, size=(12, 2))
    S = thin_set(pts, h=1 / 32)
    a, b = rng.uniform(-0.2, 1.2, size=(2, 2))
    gap = np.max(np.abs(a - b))
    assert abs(S.dist(a) - S.dist(b)) <= gap + 1e-12
