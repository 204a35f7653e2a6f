"""Closed-set model: distance oracle, boundary split, porosity, quasi-distance.

The distance oracle has a brute-force oracle (min over samples) checked on
random point clouds; porosity and quasi-distance are pinned on hand-built
configurations with known answers.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sobtrace.canonical import CANONICAL_NAMES, CanonicalSpec, generate_canonical
from sobtrace.cubes import Cube
from sobtrace.grid import GridField
from sobtrace.sets import ClosedSet, solid_set, thin_set
from sobtrace.util import ConfigError, chebyshev, lex_order


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


@pytest.mark.parametrize("name", CANONICAL_NAMES)
def test_bounded_nearest_distance(name):
    S = _CATALOG[name]
    rng = np.random.default_rng(4)
    x = rng.uniform(S.bbox[:, 0], S.bbox[:, 1], size=(399, S.dim))
    x[:50] = S.points[rng.integers(0, len(S.points), 50)] + rng.uniform(-S.h, S.h, (50, S.dim))
    full = S.nearest_distance(x)
    # an odd count: the median is one row's distance, so that row sits at the bound
    assert np.count_nonzero(full == np.median(full)) >= 1
    for bound in (np.median(full), S.h, 2 * S.on_set_reach):
        got = S.nearest_distance(x, bound)
        below = full < bound
        assert below.any() and not below.all()
        assert np.array_equal(got[below], full[below])
        assert np.isinf(got[~below]).all()


@pytest.mark.parametrize("name", CANONICAL_NAMES)
def test_on_set_flags_are_the_unbounded_test(name):
    # on_set's query stops at 2 * on_set_reach; its flags are those of the
    # unbounded distance, on the set's grid and on probes at and around it
    S = _CATALOG[name]
    nodes = GridField(S.bbox, S.h, np.zeros(GridField.shape_for(S.bbox, S.h))).nodes()
    for x in (nodes, _oracle_probes(S)):
        flags = S.on_set(x)
        assert flags.any() and not flags.all()
        assert np.array_equal(flags, S.nearest_distance(x) <= S.on_set_reach)


def test_bounded_nearest_distance_is_strict():
    S = thin_set(np.array([[0.0, 0.0], [1.0, 0.0]]), h=1 / 16)
    x = np.array([[0.25, 0.125], [0.125, 0.25], [0.25, 0.0], [0.5, 0.0]])
    assert S.nearest_distance(x).tolist() == [0.25, 0.25, 0.25, 0.5]
    assert S.nearest_distance(x, 0.25).tolist() == [np.inf] * 4
    assert S.nearest_distance(x, 0.5).tolist() == [0.25, 0.25, 0.25, np.inf]


# -- the cell-lattice path of nearest_distance on solid sets ---------------
#
# Every answer must carry the bits of the KD-tree's, bounded or not.


def _assert_same_bits(S, x, bounds):
    for bound in bounds:
        got = S.nearest_distance(x) if bound == np.inf else S.nearest_distance(x, bound)
        want = S.tree.query(x, p=np.inf, distance_upper_bound=bound)[0]
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _oracle_probes(S, seed=6):
    """Random points in and around the bbox, h/2 scan-lattice nodes over the
    samples' hull, points midway between neighbouring cell centers and at
    cell corners, the samples themselves and, for solid sets, the centers of
    unoccupied cells."""
    rng = np.random.default_rng(seed)
    h = S.h
    lo, hi = S.bbox[:, 0], S.bbox[:, 1]
    near_lo, near_hi = S.points.min(axis=0) - 2 * h, S.points.max(axis=0) + 2 * h
    axes = [np.arange(l, u + h / 4, h / 2) for l, u in zip(near_lo, near_hi)]
    lattice = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, S.dim)
    probes = [
        rng.uniform(lo - 0.5, hi + 0.5, (3000, S.dim)),
        lattice,
        S.points,
        S.points + h / 2,
        *(S.points + h / 2 * np.eye(S.dim)[a] for a in range(S.dim)),
    ]
    if S.kind == "solid":
        empty = np.argwhere(~S.occupancy)
        empty = empty[rng.choice(len(empty), min(len(empty), 3000), replace=False)]
        probes.append(lo + (empty + 0.5) * h)
    return np.vstack(probes)


def _off_center_set():
    obj = solid_set(square_mask(6), h=1 / 8, origin=(0.0, 0.0)).to_json()
    obj["points"][7] = [obj["points"][7][0] + 1 / 32, obj["points"][7][1]]
    return ClosedSet.from_json(obj)


_BLOBS = np.zeros((12, 12), bool)
_BLOBS[1:4, 2:5] = True
_BLOBS[8:11, 7:10] = True


@pytest.mark.parametrize("h", [1 / 32, 1 / 64])
@pytest.mark.parametrize("name", CANONICAL_NAMES)
def test_nearest_distance_is_the_kd_answer_bitwise(name, h):
    S = generate_canonical(CanonicalSpec(name, h))[0]
    # the solid catalog sets take the lattice path, the thin ones cannot
    assert (S._cell_tables() is not None) == (S.kind == "solid")
    _assert_same_bits(S, _oracle_probes(S), (np.inf, h, 0.1, 2 * S.on_set_reach))


def test_off_center_sample_falls_back_to_kd_tree():
    S = _off_center_set()
    _assert_same_bits(S, _oracle_probes(S), (np.inf, S.h, 2 * S.on_set_reach))
    assert S._cell_tables() is None


def test_column_off_center_falls_back_to_kd_tree():
    # a whole column moved 0.3 h off its cells' centers keeps one coordinate
    # per column, but the cell column no longer brackets it
    obj = solid_set(square_mask(6), h=1 / 8, origin=(0.0, 0.0)).to_json()
    shift = 0.3 / 8
    obj["points"] = [[x + shift, y] if x == obj["points"][0][0] else [x, y]
                     for x, y in obj["points"]]
    S = ClosedSet.from_json(obj)
    assert S._cell_tables() is None
    _assert_same_bits(S, _oracle_probes(S), (np.inf, S.h, 2 * S.on_set_reach))


def test_occupied_cell_without_sample_is_not_a_hit():
    obj = solid_set(square_mask(6), h=1 / 8, origin=(0.0, 0.0)).to_json()
    gone = obj["points"].pop(14)  # an interior sample; its cell stays occupied
    S = ClosedSet.from_json(obj)
    assert S._cell_tables() is not None
    assert S.nearest_distance(np.array([gone]))[0] == S.h
    _assert_same_bits(S, _oracle_probes(S), (np.inf, S.h, 2 * S.on_set_reach))


@pytest.mark.parametrize("mask", [
    np.ones((1, 1), bool), np.ones(1, bool), np.ones((1, 9), bool), np.ones((9, 1), bool),
    np.ones((1, 1, 3), bool),
], ids=["one-cell", "one-cell-1d", "row-strip", "column-strip", "3d-rod"])
def test_single_column_axes(mask):
    S = solid_set(mask, h=1 / 16, origin=np.full(mask.ndim, 0.25))
    assert S._cell_tables() is not None
    _assert_same_bits(S, _oracle_probes(S), (np.inf, S.h, 0.1))


def test_column_gaps_between_blobs():
    # two blobs apart on both axes: the cell columns between them hold no
    # sample, and the rows there bracket between the blobs' facing columns;
    # rows far past the bbox take the outermost column
    S = solid_set(_BLOBS, h=1 / 16, origin=(0.0, 0.0))
    assert S._cell_tables() is not None
    far = np.array([[1e300, 0.3], [-1e300, 0.3], [0.3, 1e300], [0.3, -1e300]])
    _assert_same_bits(S, np.vstack([_oracle_probes(S), far]), (np.inf, S.h, 0.1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["solid-square", "segment-1d-in-2d"])
def test_nearest_distance_rejects_non_finite_rows(name, bad):
    S = _CATALOG[name]
    x = np.array([[0.5, 0.5], [bad, 0.5]])
    for bound in (np.inf, S.h):
        with pytest.raises(ValueError):
            S.nearest_distance(x, bound)
    with pytest.raises(ValueError):
        S.nearest_point(x)


@pytest.mark.parametrize("name", ["solid-square", "segment-1d-in-2d", "axis-line"])
def test_nearest_queries_reject_rows_of_another_width(name):
    # the cell route would answer from the first dim columns
    S = _CATALOG[name]
    x = np.hstack([S.points[:3], np.zeros((3, 1))])
    with pytest.raises(ValueError):
        S.nearest_distance(x)
    with pytest.raises(ValueError):
        S.nearest_point(x)


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


# -- the cell route of nearest_point on solid sets -------------------------
#
# Every answer must be the KD-tree route's, index for index.


def _kd_nearest_point(S, rows):
    """nearest_point's KD-tree route, for every row."""
    d, i = S.tree.query(rows, k=2, p=np.inf)
    idx = i[:, 0]
    reach = d[:, 0] + 1e-12 * (1.0 + d[:, 0])
    tied = np.nonzero(d[:, 1] <= reach)[0]
    groups = S.tree.query_ball_point(rows[tied], reach[tied], p=np.inf)
    sizes = np.fromiter(map(len, groups), int, len(groups))
    cand = np.fromiter(itertools.chain.from_iterable(groups), int, int(sizes.sum()))
    owner = np.repeat(np.arange(len(groups)), sizes)
    keep = chebyshev(S.points[cand], rows[tied][owner]) <= reach[tied][owner]
    cand, owner = cand[keep], owner[keep]
    order = np.lexsort((cand,) + tuple(S.points[cand].T[::-1]) + (owner,))
    first = order[np.diff(owner[order], prepend=-1) != 0]
    idx[tied[owner[first]]] = cand[first]
    return idx


def _nearest_point_rows(S, seed=7):
    """Grid nodes, samples, samples jittered by U(-h, h), the oracle probes
    and rows at +-1e300 on each axis."""
    rng = np.random.default_rng(seed)
    axes = [np.arange(lo, hi + S.h / 2, S.h) for lo, hi in S.bbox]
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, S.dim)
    far = np.repeat(S.points[:1], 2 * S.dim, axis=0)
    far[np.arange(2 * S.dim), np.arange(2 * S.dim) // 2] = np.tile([1e300, -1e300], S.dim)
    return np.vstack([
        nodes,
        S.points,
        S.points + rng.uniform(-S.h, S.h, S.points.shape),
        _oracle_probes(S),
        far,
    ])


def _assert_same_nearest(S, rows):
    points, idx = S.nearest_point(rows)
    want = _kd_nearest_point(S, rows)
    assert idx.dtype == want.dtype and np.array_equal(idx, want)
    assert np.array_equal(points, S.points[want])


def _assert_samples_take_cell_route(S, monkeypatch):
    """With cell tables, rows on the samples never reach the KD-tree."""
    want = _kd_nearest_point(S, S.points)
    with monkeypatch.context() as m:
        m.setattr(S, "_kd_nearest", lambda rows: pytest.fail(f"{len(rows)} rows took the KD-tree"))
        assert np.array_equal(S.nearest_point(S.points)[1], want)


def _column_jittered_set(mask, h, seed):
    """A solid set whose sampled columns sit off their cells' centers by
    different amounts under h/4, so that neighbouring columns lie between
    h/2 and 3h/2 apart."""
    S = solid_set(mask, h, origin=np.zeros(mask.ndim))
    shift = np.random.default_rng(seed).uniform(-0.24, 0.24, (max(S.occupancy.shape), S.dim))
    points = S.points + h * shift[S._cell_index(), np.arange(S.dim)]
    return ClosedSet(dim=S.dim, h=h, points=points, bbox=S.bbox, kind="solid",
                     occupancy=S.occupancy)


def _duplicated_samples_set():
    obj = solid_set(square_mask(6), h=1 / 8, origin=(0.0, 0.0)).to_json()
    obj["points"] = obj["points"][::-1] + obj["points"][5:20]
    return ClosedSet.from_json(obj)


def _mask(shape, seed):
    return np.random.default_rng(seed).random(shape) < 0.6


_EXTRA_SETS = {
    "two-blobs": lambda: solid_set(_BLOBS, h=1 / 16, origin=(0.0, 0.0)),
    "random-3d": lambda: solid_set(_mask((7, 6, 5), 8), h=1 / 8, origin=(0.0, 0.0, 0.0)),
    "random-1d": lambda: solid_set(_mask(40, 8), h=1 / 16, origin=(0.0,)),
    "jittered-columns": lambda: _column_jittered_set(_mask((16, 16), 9), 1 / 16, 9),
    "jittered-columns-3d": lambda: _column_jittered_set(_mask((6, 6, 6), 10), 1 / 8, 10),
    "duplicated-samples": _duplicated_samples_set,
    "no-cell-tables": _off_center_set,
}


def _sample_at(S, point):
    return int(np.flatnonzero((S.points == point).all(axis=1))[0])


def test_nearest_point_cell_route_reads_the_reach_and_window_edges():
    h = 1 / 16
    # the rows (R, y), R = reach(h/2) exactly and y halfway between two
    # columns, have their nearest samples at distance h/2 in the column at
    # h; the lexicographically first answer, in the column at 0, lies
    # exactly at the reach
    S = solid_set(square_mask(6), h, origin=(-2.5 * h, -2.5 * h))
    R = h / 2 + 1e-12 * (1.0 + h / 2)
    rows = np.array([[R, h / 2], [R, -h / 2]])
    assert S.nearest_distance(rows).tolist() == [h / 2, h / 2]
    assert S.nearest_point(rows)[1].tolist() == [
        _sample_at(S, [0.0, 0.0]), _sample_at(S, [0.0, -h])]
    _assert_same_nearest(S, rows)
    # columns moved off their cells' centers: on axis 0 the columns at
    # 1.3h and 2.7h, on axis 1 those at 1.74h and 2.26h; cells (1, 0) and
    # (1, 1) hold no sample.  Row a lies just past 2h on axis 0, at the
    # column 1.74h on axis 1: its nearest sample is in cell (2, 1), and the
    # answer in cell (1, 2) sits in the column above its bracket on axis 1.
    # Row b lies 0.6h below column 0 on axis 0 and just above 2.26h on
    # axis 1: the answer in cell (0, 1) sits in the column below its bracket.
    S = solid_set(square_mask(4), h, origin=(0.0, 0.0))
    mask = S.occupancy.copy()
    cells = S._cell_index() - S._cell_index().min(axis=0)
    keep = ~((cells[:, 0] == 1) & (cells[:, 1] <= 1))
    mask[tuple(S._cell_index()[~keep].T)] = False
    shift = np.array([[0.0, 0.0], [-0.2, 0.24], [0.2, -0.24], [0.0, 0.0]]) * h
    points = S.points[keep] + shift[cells[keep], [0, 1]]
    S = ClosedSet(dim=2, h=h, points=points, bbox=S.bbox, kind="solid", occupancy=mask)
    assert S._cell_tables() is not None
    v0, v1 = (np.unique(points[:, a]) for a in (0, 1))
    rows = np.array([[np.nextafter(2 * h, 1.0), v1[1]],
                     [v0[0] - 0.6 * h, np.nextafter(v1[2], 1.0)]])
    assert S.nearest_point(rows)[1].tolist() == [
        _sample_at(S, [v0[1], v1[2]]), _sample_at(S, [v0[0], v1[1]])]
    _assert_same_nearest(S, rows)


@pytest.mark.parametrize("h", [1 / 32, 1 / 64])
@pytest.mark.parametrize("name", ["solid-disk", "solid-square", "axis-line"])
def test_nearest_point_cell_route_matches_kd_route(name, h, monkeypatch):
    S = generate_canonical(CanonicalSpec(name, h))[0]
    assert S._cell_tables() is not None
    _assert_same_nearest(S, _nearest_point_rows(S))
    _assert_samples_take_cell_route(S, monkeypatch)


@pytest.mark.parametrize("name", list(_EXTRA_SETS))
def test_nearest_point_cell_route_matches_kd_route_on_built_sets(name, monkeypatch):
    S = _EXTRA_SETS[name]()
    assert (S._cell_tables() is None) == (name == "no-cell-tables")
    if name != "no-cell-tables":
        _assert_samples_take_cell_route(S, monkeypatch)
    _assert_same_nearest(S, _nearest_point_rows(S))
    # one (dim,) row gives a copied sample and an int; an empty batch works
    x = S.points[3] + S.h / 3
    p, i = S.nearest_point(x)
    assert type(i) is int and i == _kd_nearest_point(S, x[None])[0]
    assert np.array_equal(p, S.points[i])
    p[:] = np.nan
    assert np.isfinite(S.points).all()
    points, idx = S.nearest_point(np.zeros((0, S.dim)))
    assert points.shape == (0, S.dim) and idx.shape == (0,)


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
    for x in (0.0, 1.0):
        assert abs(x - witness.center[0]) <= witness.radius
    # same point on the set: feasible at the first scan level
    assert S.quasidistance([0.0], [0.0]) <= S.h
    # lower bound by construction (vs the same float distance computation)
    sep = np.max(np.abs(np.array([0.2]) - np.array([0.7])))
    assert S.quasidistance([0.2], [0.7]) >= sep


def test_quasidistance_infinite_inside_solid():
    S = solid_set(square_mask(32), h=1 / 16, origin=(0.0, 0.0))
    x = np.array([1.0, 1.0])
    assert S.quasidistance(x, x, alpha=0.9) == np.inf


@pytest.mark.parametrize("ratio", [1.0, 0.5, np.nan, np.inf])
def test_quasidistance_refuses_a_scan_ratio_that_never_ends(ratio):
    # with ratio 1 the step never grows, below 1 it shrinks: an interior
    # pair of a solid set would walk forever
    S, _ = generate_canonical(CanonicalSpec("solid-square", 1 / 32))
    x = S.points[np.argmin(chebyshev(S.points, S.points.mean(axis=0)))]
    y = x + [S.h, 0.0]
    with pytest.raises(ConfigError, match="scan ratio"):
        S.quasidistances([x], [y], ratio=ratio)
    with pytest.raises(ConfigError, match="scan ratio"):
        S.quasidistance(x, y, ratio=ratio)


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
    scans = []
    real = ClosedSet.empty_subcubes

    def counting(self, centers, radius):
        scans.append(radius)
        gaps = real(self, centers, radius)
        # each probe's gap is the all-node scan's
        assert gaps.tolist() == _unpruned_empty_subcubes(self, centers, radius).tolist()
        return gaps

    monkeypatch.setattr(ClosedSet, "empty_subcubes", counting)
    first = seg.ball_condition_estimate()
    assert scans == [2.0 ** -k for k in range(1, 5)]
    scans.clear()
    assert seg.ball_condition_estimate() is first
    assert seg.ball_condition_estimate(seed=0) is first
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


_SQUARE_JSON = solid_set(square_mask(4), h=1 / 4, origin=(0.0, 0.0)).to_json()
_CELLS, _SHAPE = _SQUARE_JSON["cells"], _SQUARE_JSON["cells_shape"]


@pytest.mark.parametrize("edit", [
    {"cells": _CELLS + [[-1, -1]]},  # a negative index would wrap to the far corner
    {"cells": _CELLS + [[_SHAPE[0], 0]]},
    {"cells_shape": [_SHAPE[0] + 1, _SHAPE[1]]},
    {"cells": _CELLS[1:]},  # the first sample's cell left empty
], ids=["negative-cell", "cell-past-shape", "shape-off-bbox", "sample-cell-empty"])
def test_from_json_checks_cells(edit):
    with pytest.raises(ConfigError):
        ClosedSet.from_json({**_SQUARE_JSON, **edit})


def test_from_json_allows_occupied_cell_without_sample():
    S = ClosedSet.from_json({**_SQUARE_JSON, "cells": _CELLS + [[0, 0]]})
    assert S.occupancy[0, 0]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 5000))
def test_dist_is_one_lipschitz(seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 1, size=(12, 2))
    S = thin_set(pts, h=1 / 32)
    a, b = rng.uniform(-0.2, 1.2, size=(2, 2))
    gap = np.max(np.abs(a - b))
    assert abs(S.dist(a) - S.dist(b)) <= gap + 1e-12


# -- batched empty-cube searches against the per-box loops ---------------
#
# The loops below are the one-box-at-a-time scans the batched methods
# replaced: a linspace/meshgrid lattice per box, one KD query per box, and
# the lexicographic 1e-15 tie rule.  The batched methods must agree with
# them bit for bit.


def _ref_lattice(S, lo, hi):
    axes = []
    for a in range(S.dim):
        width = max(hi[a] - lo[a], 0.0)
        count = min(41, int(np.floor(width / (S.h / 2))) + 1)
        count = max(count, 2) if width > 0 else 1
        axes.append(np.linspace(lo[a], hi[a], count))
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _ref_max_clearance_in(S, lo, hi):
    cands = _ref_lattice(S, np.asarray(lo, float), np.asarray(hi, float))
    d = S.dist(cands)
    k = int(np.argmax(d))
    tied = np.nonzero(d >= d[k] - 1e-15)[0]
    if len(tied) > 1:
        k = int(tied[lex_order(cands[tied])[0]])
    return float(d[k]), cands[k]


def _ref_is_porous(S, cube, alpha, strong=False):
    if strong:
        # the cube itself, then each halving down to the grid scale
        if not _ref_is_porous(S, cube, alpha):
            return False
        eta = 0.5
        while eta * cube.radius >= S.h / 2 - 1e-15:
            if not _ref_is_porous(S, Cube(cube.center, eta * cube.radius), alpha):
                return False
            eta *= 0.5
        return True
    slack = (1.0 - alpha) * cube.radius
    c = np.array(cube.center)
    clearance, _ = _ref_max_clearance_in(S, c - slack, c + slack)
    return clearance > alpha * cube.radius


def _ref_quasidistance(S, x, y, alpha, ratio):
    x, y = np.asarray(x, float), np.asarray(y, float)
    d = max(float(chebyshev(x, y)), S.h / 4.0)
    d_max = float(np.max(S.bbox[:, 1] - S.bbox[:, 0]))
    while d <= d_max * (1 + 1e-12):
        r = d / 2.0
        clearance, center = _ref_max_clearance_in(
            S, np.maximum(x, y) - r, np.minimum(x, y) + r
        )
        if clearance > alpha * r:
            return d, Cube(tuple(center), r)
        d *= ratio
    return np.inf, None


def _ref_largest_empty_subcube(S, cube):
    c = np.array(cube.center)
    cands = _ref_lattice(S, c - cube.radius, c + cube.radius)
    room = cube.radius - chebyshev(cands, c)
    return float(np.max(np.minimum(S.dist(cands), room)))


_CATALOG = {
    name: generate_canonical(CanonicalSpec(name, 1 / 32))[0] for name in CANONICAL_NAMES
}


def _unpruned_empty_subcubes(S, centers, radius):
    """The all-node scan empty_subcubes prunes: the exact distance at every
    lattice node, then the maximum of min(dist, room) per cube."""
    centers = np.asarray(centers, float).reshape(-1, S.dim)
    out = np.empty(len(centers))
    for rows, nodes, dist in S._scans(centers - radius, centers + radius):
        room = radius - chebyshev(nodes, centers[rows, None])
        out[rows] = np.minimum(dist, room).max(axis=1)
    return out


@st.composite
def _subcube_probes(draw):
    """(set, centers, radius): a random thin cloud in 1-3 D or a solid
    catalog set; cube centers on it, nudged off it by a fraction of h, and
    one beyond the search bound (its center distance reads inf); a radius
    from h/3 to 1/2."""
    if draw(st.booleans()):
        S = _CATALOG[draw(st.sampled_from(["solid-disk", "solid-square"]))]
    else:
        dim = draw(st.integers(1, 3))
        coords = st.floats(0.0, 1.0, allow_subnormal=False)
        pts = draw(st.lists(st.lists(coords, min_size=dim, max_size=dim), min_size=1, max_size=12))
        S = thin_set(np.array(pts), h=draw(st.sampled_from([1 / 8, 1 / 16, 1 / 32])))
    radius = draw(st.floats(S.h / 3, 0.5))
    index = st.integers(0, len(S.points) - 1)
    idx = draw(st.lists(index, min_size=1, max_size=6))
    nudge = st.sampled_from([0.0, 0.0, 0.3, -0.5, 1.7])
    shift = np.array(draw(st.lists(nudge, min_size=len(idx) * S.dim, max_size=len(idx) * S.dim)))
    far = S.points.min(axis=0) - (radius + S.h) * draw(st.floats(1.01, 2.0))
    centers = np.vstack([S.points[idx] + shift.reshape(-1, S.dim) * S.h, far])
    return S, centers, radius


@settings(max_examples=60, deadline=None)
@given(_subcube_probes())
def test_empty_subcubes_equal_the_all_node_scan(probe):
    S, centers, radius = probe
    assert S.nearest_distance(centers[-1:])[0] > (radius + S.sample_radius) * (1 + 1e-12)
    got = S.empty_subcubes(centers, radius)
    assert got.tolist() == _unpruned_empty_subcubes(S, centers, radius).tolist()


def test_ball_condition_queries_few_lattice_nodes(monkeypatch):
    # of the 455,040 lattice nodes of seeds 0 and 1, the Lipschitz bound asks
    # 24,960, its cube centers included; the split at room > radius/2 it
    # replaced asked 120,192, and the bound must ask at most a third of that
    S = generate_canonical(CanonicalSpec("segment-1d-in-2d", 1 / 64))[0]
    asked, nodes = [], []
    nearest, lattices = ClosedSet.nearest_distance, ClosedSet._lattices

    def counting_nearest(self, x, bound=np.inf):
        asked.append(len(np.atleast_2d(x)))
        return nearest(self, x, bound)

    def counting_lattices(self, lo, hi):
        for rows, axes in lattices(self, lo, hi):
            nodes.append(len(rows) * int(np.prod([ax.shape[1] for ax in axes])))
            yield rows, axes

    monkeypatch.setattr(ClosedSet, "nearest_distance", counting_nearest)
    monkeypatch.setattr(ClosedSet, "_lattices", counting_lattices)
    got = [S.ball_condition_estimate(seed) for seed in (0, 1)]
    assert 12 * sum(asked) <= sum(nodes)
    monkeypatch.undo()
    R = generate_canonical(CanonicalSpec("segment-1d-in-2d", 1 / 64))[0]
    R.empty_subcubes = lambda centers, radius: _unpruned_empty_subcubes(R, centers, radius)
    assert got == [R.ball_condition_estimate(seed) for seed in (0, 1)]


def _probe_centers(S, k, seed=5):
    """Sample points, a few of them nudged off the set by a fraction of h."""
    rng = np.random.default_rng(seed)
    pts = S.points[rng.choice(len(S.points), size=min(k, len(S.points)), replace=False)]
    shift = rng.choice([0.0, 0.0, 0.3, -0.5], size=pts.shape) * S.h
    return pts + shift


class TestBatchedScans:
    @pytest.mark.parametrize("name", CANONICAL_NAMES)
    def test_clearances_match_per_box_loop(self, name):
        S = _CATALOG[name]
        rng = np.random.default_rng(1)
        c = _probe_centers(S, 40)
        half = rng.choice([0.0, S.h / 8, S.h, 3.3 * S.h, 0.4], size=c.shape)
        lo, hi = c - half, c + rng.permutation(half.ravel()).reshape(c.shape)
        clear, at = S.clearances(lo, hi)
        for i in range(len(c)):
            want, want_at = _ref_max_clearance_in(S, lo[i], hi[i])
            assert clear[i] == want
            assert np.array_equal(at[i], want_at)
            assert S.max_clearance_in(lo[i], hi[i])[0] == want

    @pytest.mark.parametrize("name", CANONICAL_NAMES)
    @pytest.mark.parametrize("strong", [False, True])
    def test_porous_matches_per_cube_loop(self, name, strong):
        S = _CATALOG[name]
        c = _probe_centers(S, 24)
        for radius in (S.h / 3, 1 / 12, 0.25):
            for alpha in (1 / 15, 1 / 4, 1 / 2, 1.0):
                got = S.porous(c, radius, alpha, strong=strong)
                want = [_ref_is_porous(S, Cube(tuple(x), radius), alpha, strong) for x in c]
                assert got.tolist() == want

    @pytest.mark.parametrize("name", CANONICAL_NAMES)
    def test_quasidistances_match_per_pair_ladder(self, name):
        S = _CATALOG[name]
        rng = np.random.default_rng(2)
        idx = rng.integers(0, len(S.points), size=(12, 2))
        X, Y = S.points[idx[:, 0]], S.points[idx[:, 1]]
        for alpha, ratio in ((1 / 15, 1.35), (1 / 2, 1.05)):
            rho, centers, radii = S.quasidistances(X, Y, alpha=alpha, ratio=ratio)
            for k in range(len(X)):
                want, cube = _ref_quasidistance(S, X[k], Y[k], alpha, ratio)
                assert rho[k] == want
                if cube is None:
                    assert np.isnan(radii[k]) and np.isnan(centers[k]).all()
                else:
                    assert (tuple(centers[k]), radii[k]) == (cube.center, cube.radius)
                    got = S.quasidistance(X[k], Y[k], alpha, return_witness=True, ratio=ratio)
                    assert got == (want, cube)

    @pytest.mark.parametrize("name", CANONICAL_NAMES)
    def test_empty_subcubes_match_per_center_scan(self, name):
        S = _CATALOG[name]
        c = _probe_centers(S, 24)
        # the ball condition's radii, 1/2 down to 4h, prune most lattice nodes
        for radius in (S.h / 3, 2 * S.h, 4 * S.h, 0.25, 0.5):
            got = S.empty_subcubes(c, radius)
            want = [_ref_largest_empty_subcube(S, Cube(tuple(x), radius)) for x in c]
            assert got.tolist() == want

    @pytest.mark.parametrize("name", ["segment-1d-in-2d", "example-726", "cantor-1d"])
    def test_ball_condition_matches_unpruned_scan(self, name):
        G = generate_canonical(CanonicalSpec(name, 1 / 64))[0]
        S = generate_canonical(CanonicalSpec(name, 1 / 64))[0]
        radii = []

        def compared(centers, radius):
            # each probe's gap at the estimate's radii is the all-node scan's
            radii.append(radius)
            gaps = ClosedSet.empty_subcubes(G, centers, radius)
            assert gaps.tolist() == _unpruned_empty_subcubes(G, centers, radius).tolist()
            return gaps

        G.empty_subcubes = compared
        got = G.ball_condition_estimate()
        assert radii == [2.0 ** -k for k in range(1, 5)]
        S.empty_subcubes = lambda centers, radius: _unpruned_empty_subcubes(S, centers, radius)
        want = S.ball_condition_estimate()
        assert got.beta_hat == want.beta_hat
        assert got.satisfied == want.satisfied

    def test_tie_rule_keeps_borderline_verdict(self):
        # both lattice nodes lie within 1e-15 of the maximum: the first one's
        # distance is the clearance and does not exceed alpha * r, while the
        # plain maximum (at the second node) would make the cube porous
        S = _CATALOG["two-points"]
        r, alpha = 1 / 192, 0.5
        lo, hi = np.array([1.0 - (1 - alpha) * r]), np.array([1.0 + (1 - alpha) * r])
        clear, at = S.clearances([lo], [hi])
        want, want_at = _ref_max_clearance_in(S, lo, hi)
        assert clear[0] == want and np.array_equal(at[0], want_at)
        assert clear[0] <= alpha * r < S.dist(hi)
        assert S.porous([[1.0]], r, alpha).tolist() == [False]
        assert not _ref_is_porous(S, Cube((1.0,), r), alpha)

    def test_zero_width_axis(self):
        S = _CATALOG["segment-1d-in-2d"]
        lo = np.array([[0.3, -0.2], [0.5, 0.1], [0.25, 0.25]])
        hi = np.array([[0.3, 0.2], [0.9, 0.1], [0.25, 0.25]])
        clear, at = S.clearances(lo, hi)
        for i in range(len(lo)):
            want, want_at = _ref_max_clearance_in(S, lo[i], hi[i])
            assert clear[i] == want and np.array_equal(at[i], want_at)


def _corner_dists(S, center, r, alpha):
    """Set distances at the corners of the (1 - alpha)-shrunken box of the
    cube Q(center, r)."""
    slack = (1.0 - alpha) * r
    c = np.asarray(center, float)
    corners = [np.where(up, c + slack, c - slack) for up in itertools.product((0, 1), repeat=S.dim)]
    return S.dist(np.array(corners))


class TestPorosityCertificate:
    """`porous` passes a cube at a corner of its shrunken box whose distance
    clears alpha * r by more than the 1e-15 tie margin, and scans the rest;
    every verdict must equal the per-cube reference."""

    def test_corner_over_threshold_within_tie_margin(self):
        # a corner lies one rounding above alpha * r, but the tie rule picks
        # the lex-first corner, at exactly alpha * r: not porous
        S = _CATALOG["segment-1d-in-2d"]
        center, r, alpha = (1 / 32, 0.0), S.h / 3, 0.5
        d = _corner_dists(S, center, r, alpha)
        assert d.max() - 1e-15 <= alpha * r < d.max()
        assert S.porous([center], r, alpha).tolist() == [False]
        assert not _ref_is_porous(S, Cube(center, r), alpha)

    def test_corner_exactly_at_tie_margin(self):
        # the box [-r, 0] has two lattice nodes: the lo corner at exactly
        # alpha * r from one sample, the hi corner at d from the other,
        # with d - 1e-15 == alpha * r in float, so the tie rule picks lo
        r, alpha = 1 / 128, 0.5
        d = alpha * r + 1e-15
        assert d > alpha * r and d - 1e-15 == alpha * r
        S = thin_set([[-1.5 * r], [d]], h=1 / 32)
        center = (-r / 2,)
        assert _corner_dists(S, center, r, alpha).tolist() == [alpha * r, d]
        assert S.porous([center], r, alpha).tolist() == [False]
        assert not _ref_is_porous(S, Cube(center, r), alpha)

    def test_hole_behind_set_corners_is_found_by_the_scan(self):
        # samples sit at the four corners of the shrunken box, whose middle
        # is empty: no corner certifies, the scan finds the hole
        r, alpha = 1 / 4, 1 / 4
        slack = (1 - alpha) * r
        S = thin_set(list(itertools.product((-slack, slack), repeat=2)), h=1 / 32)
        assert _corner_dists(S, (0.0, 0.0), r, alpha).tolist() == [0.0] * 4
        scanned = []

        def clearances(lo, hi):
            scanned.append(len(lo))
            return ClosedSet.clearances(S, lo, hi)

        S.clearances = clearances
        assert S.porous([[0.0, 0.0]], r, alpha).tolist() == [True]
        assert _ref_is_porous(S, Cube((0.0, 0.0), r), alpha)
        assert scanned == [1]

    def test_strong_ladder_fails_below_a_certified_rung(self):
        # the whole cube clears the small square at a corner; the rungs
        # around radius 1/4 and below sit on or inside it
        S = solid_set(square_mask(4), h=1 / 16, origin=(0.0, 0.0))
        center, r, alpha = (1 / 8, 1 / 8), 1 / 2, 1 / 4
        assert (_corner_dists(S, center, r, alpha) - 1e-15 > alpha * r).any()
        assert S.porous([center], r, alpha).tolist() == [True]
        assert S.porous([center], r, alpha, strong=True).tolist() == [False]
        assert not _ref_is_porous(S, Cube(center, r), alpha, strong=True)

    @pytest.mark.parametrize("strong", [False, True])
    @pytest.mark.parametrize("alpha", [1 / 15, 1 / 4, 1 / 2])
    def test_solid_set_rows(self, alpha, strong):
        S = solid_set(square_mask(32), h=1 / 16, origin=(0.0, 0.0))
        deep = [(1.0, 1.0), (0.75, 1.2), (1.3, 0.6)]
        edge = [(1.0, 2.0), (0.0, 0.0), (2.1, 1.0)]
        # a cube below the grid scale has no halvings but is still tested
        for radius in (S.h / 4, S.h, 0.25):
            got = S.porous(deep + edge, radius, alpha, strong=strong).tolist()
            want = [_ref_is_porous(S, Cube(c, radius), alpha, strong) for c in deep + edge]
            assert got == want
            assert got[:3] == [False] * 3 and any(got[3:])


@pytest.mark.parametrize("name", CANONICAL_NAMES)
def test_strong_porosity_implies_porosity(name):
    # below h/2 the ladder has no halvings, but the cube itself is tested
    S = _CATALOG[name]
    c = _probe_centers(S, 24)
    for radius in (S.h / 4, S.h / 3, 1 / 12):
        for alpha in (1 / 15, 1 / 4, 1 / 2):
            plain = S.porous(c, radius, alpha)
            assert not np.any(S.porous(c, radius, alpha, strong=True) & ~plain)


@pytest.mark.parametrize(
    "radius, center, strong",
    [
        pytest.param(-0.1, (0.5, 0.2), False, id="negative-radius"),
        pytest.param(-0.1, (0.5, 0.2), True, id="negative-radius-strong"),
        pytest.param(0.0, (0.5, 0.2), False, id="zero-radius"),
        pytest.param(0.0, (0.5, 0.2), True, id="zero-radius-strong"),
        pytest.param(np.nan, (0.5, 0.2), False, id="nan-radius"),
        pytest.param(np.nan, (0.5, 0.2), True, id="nan-radius-strong"),
        pytest.param(np.inf, (0.5, 0.2), False, id="inf-radius"),
        pytest.param(0.1, (np.nan, 0.2), False, id="nan-center"),
        pytest.param(0.1, (0.5, np.inf), True, id="inf-center-strong"),
    ],
)
def test_porous_rejects_bad_cubes(radius, center, strong):
    S = _CATALOG["segment-1d-in-2d"]
    with pytest.raises(ConfigError):
        S.porous([(0.3, -0.4), center], radius, 0.5, strong=strong)
