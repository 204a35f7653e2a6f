"""Whitney decomposition, partition of unity, projection and extension.

The decomposition contract (diam <= dist <= 4 diam), interior disjointness
and coverage outside a 2h collar are asserted directly on small hand-built
sets where the structure is fully checkable.
"""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.spatial import cKDTree

from sobtrace.canonical import CANONICAL_NAMES, CanonicalSpec, generate_canonical
from sobtrace.cubes import GROWTH, covering_multiplicity
from sobtrace.grid import GridField
from sobtrace.measures import counting_measure
from sobtrace.sets import ClosedSet, solid_set, thin_set
from sobtrace.util import ConfigError, lex_order
from sobtrace.verify import whitney_contract_report
from sobtrace.whitney import (
    _FACE_TOL,
    collar_profile,
    compose_with_projection,
    extend_grid,
    extend_points,
    projection_data,
    whitney_decomposition,
)


@pytest.fixture(scope="module")
def two_points():
    S = thin_set(np.array([[0.0], [1.0]]), h=1 / 64)
    return S, whitney_decomposition(S)


@pytest.fixture(scope="module")
def segment2d():
    xs = np.linspace(0.0, 1.0, 33)
    S = thin_set(np.stack([xs, np.zeros_like(xs)], axis=1), h=1 / 32)
    return S, whitney_decomposition(S)


@pytest.fixture(scope="module")
def solid_square():
    S = solid_set(np.ones((16, 16), bool), h=1 / 16, origin=(0.0, 0.0))
    return S, whitney_decomposition(S)


@pytest.mark.parametrize("cache", [
    "_tree", "_boundary", "_interior_mask", "_tables", "_ball_conditions",
    "W._pou", "W._set_info", "W._near_masks", "W._cube_of", "mu.zero_mass_events",
])
def test_caches_are_not_constructor_arguments(cache, solid_square):
    # each is built or counted by the object itself; only public fields
    # are passed in
    S, W = solid_square
    owner, _, name = cache.rpartition(".")
    obj = {"": S, "W": W, "mu": counting_measure(S)}[owner]
    kwargs = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
              if f.init and f.name != name}
    type(obj)(**kwargs)
    with pytest.raises(TypeError):
        type(obj)(**kwargs, **{name: getattr(obj, name)})


def brute_containing(W, x):
    inside = np.all(np.abs(x - W.centers) <= W.radii[:, None] + 1e-12, axis=1)
    return np.nonzero(inside)[0]


@pytest.mark.parametrize("fix", ["two_points", "segment2d", "solid_square"])
def test_distance_contract(fix, request):
    S, W = request.getfixturevalue(fix)
    report = whitney_contract_report(S, W)
    assert report["lower_slack"] <= 1e-9
    assert report["upper_slack"] <= 1e-9
    dists = S.dist_cube(W.centers, W.radii)
    assert np.all(dists >= W.diams * (1 - 1e-12))
    assert np.max(dists / W.diams) <= 4.0 + 1e-12


@pytest.mark.parametrize("fix", ["two_points", "segment2d", "solid_square"])
def test_interiors_disjoint_and_coverage(fix, request):
    S, W = request.getfixturevalue(fix)
    lo = W.S.bbox[:, 0]
    hi = W.S.bbox[:, 1]
    axes = [np.arange(lo[a], hi[a] + S.h / 2, S.h) for a in range(S.dim)]
    grids = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=1)
    dist = S.dist(nodes)
    far = dist > 2 * S.h
    # off the nodes that sit exactly on cube faces, coverage is single
    for x in nodes[far][:: max(1, len(nodes[far]) // 400)]:
        hits = brute_containing(W, x)
        assert 1 <= len(hits) <= 2 ** S.dim


@pytest.mark.parametrize("fix", ["two_points", "segment2d"])
def test_neighbor_diameters_comparable(fix, request):
    # grown cubes that touch have diameters within a factor 4
    S, W = request.getfixturevalue(fix)
    levels = np.unique(W.levels)
    trees = {
        int(l): cKDTree(W.centers[W.levels == l]) for l in levels
    }
    radii = {int(l): W.radii[W.levels == l][0] for l in levels}
    for l1 in levels:
        for l2 in levels:
            if l2 < l1 or l2 - l1 > 6:
                continue
            r = 9 / 8 * (radii[int(l1)] + radii[int(l2)])
            pairs = trees[int(l1)].query_ball_tree(trees[int(l2)], r, p=np.inf)
            if any(len(p) for p in pairs) and l1 != l2:
                assert l2 - l1 <= 2, "touching grown cubes differ by more than 4x"


def test_grown_multiplicity_small(segment2d):
    S, W = segment2d
    assert covering_multiplicity(W.centers, GROWTH * W.radii) <= 4 ** S.dim


def test_anchor_is_nearest_sample(two_points):
    S, W = two_points
    for k in range(len(W)):
        d_anchor = np.max(np.abs(S.points[W.anchor_idx[k]] - W.centers[k]))
        assert d_anchor <= S.nearest_distance(W.centers[k])[0] + 1e-12


def test_locate_matches_brute_force(segment2d):
    S, W = segment2d
    rng = np.random.default_rng(7)
    pts = rng.uniform(S.bbox[:, 0], S.bbox[:, 1], size=(200, S.dim))
    for x in pts:
        k = W.locate(x)
        hits = brute_containing(W, x)
        if len(hits) == 0:
            assert k == -1
        else:
            assert k in hits


def per_point_locator(W):
    """The per-point locate the batched one replaced: per level, look up the
    dyadic cells around x (both neighbours where x is within _FACE_TOL of a
    face) in a cell -> cube map, keep the containing cubes, and return the
    one with the lexicographically smallest center (-1 when none)."""
    levels = []
    for level in np.unique(W.levels):
        side = W.root_side / 2 ** int(level)
        sel = np.nonzero(W.levels == level)[0]
        cells = np.rint((W.centers[sel] - W.root_lo) / side - 0.5).astype(int)
        levels.append((side, {tuple(c): int(k) for c, k in zip(cells.tolist(), sel)}))

    def locate(x):
        hits = []
        for side, cube_at in levels:
            frac = (x - W.root_lo) / side
            axes = []
            for a in range(W.S.dim):
                cand = {int(np.floor(frac[a]))}
                if abs(frac[a] - round(frac[a])) < _FACE_TOL * max(1.0, abs(frac[a])):
                    cand.update({int(round(frac[a])) - 1, int(round(frac[a]))})
                axes.append(sorted(cand))
            for combo in itertools.product(*axes):
                k = cube_at.get(combo)
                if k is not None and np.all(
                    np.abs(x - W.centers[k]) <= W.radii[k] + _FACE_TOL * W.root_side
                ):
                    hits.append(k)
        if not hits:
            return -1
        hits = np.array(sorted(set(hits)), int)
        return int(hits[lex_order(W.centers[hits])[0]])

    return locate


@pytest.mark.parametrize("name", CANONICAL_NAMES)
def test_batched_locate_matches_per_point_reference(name):
    S, _ = generate_canonical(CanonicalSpec(name, 1 / 32))
    W = whitney_decomposition(S)
    reference = per_point_locator(W)
    rng = np.random.default_rng(37)
    probes = rng.uniform(S.bbox[:, 0], S.bbox[:, 1], size=(300, S.dim))
    # cube corners sit on faces shared by up to 2^n cubes: the tie rule decides
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=S.dim)))
    corners = np.unique(
        (W.centers[:, None, :] + signs[None] * W.radii[:, None, None]).reshape(-1, S.dim), axis=0
    )
    for X in (probes, corners, W._grid().nodes()):
        want = np.array([reference(x) for x in X])
        assert np.array_equal(W.locate(X), want)
    single = W.locate(corners[0])
    assert isinstance(single, int) and single == reference(corners[0])
    assert W.locate(np.zeros((0, S.dim))).shape == (0,)


@pytest.mark.parametrize("shape", [(1, 2), (0, 2), (2,), (3, 1, 1)])
@pytest.mark.parametrize("entry", ["extend_points", "bumps", "locate"])
def test_point_batches_of_another_width_are_refused(entry, shape, two_points):
    # on the 1-D two-points set, (1, 2) points used to fail inside scipy
    S, W = two_points
    calls = {
        "extend_points": lambda X: extend_points(W, np.zeros(len(S.points)), X, 1.0, 0.0),
        "bumps": W.bumps,
        "locate": W.locate,
    }
    with pytest.raises(ConfigError, match="points of shape"):
        calls[entry](np.zeros(shape))


# the grid products read node pairs off per-axis node ranges, the point
# lookups read KD-tree pairs; both must give the same cubes at the nodes
PAIR_SOURCE_CASES = (
    [pytest.param(name, 1 / 32, id=name) for name in CANONICAL_NAMES]
    + [pytest.param(name, 1 / 64, id=f"{name}-h64") for name in CANONICAL_NAMES]
    + [pytest.param("three-points-3d", 1 / 8, id="three-points-3d")]
)


def pair_source_case(name, h):
    if name == "three-points-3d":
        S = thin_set(np.array([[0.0, 0.0, 0.0], [0.5, 0.25, 0.75], [1.0, 1.0, 1.0]]), h)
    else:
        S = generate_canonical(CanonicalSpec(name, h))[0]
    return whitney_decomposition(S)


@pytest.mark.parametrize("name, h", PAIR_SOURCE_CASES)
def test_locate_agrees_with_projection_map(name, h):
    W = pair_source_case(name, h)
    assert np.array_equal(W.locate(W._grid().nodes()), W.projection_map().ravel())


@pytest.mark.parametrize("name, h", PAIR_SOURCE_CASES)
def test_pou_matrix_equals_bumps_at_the_nodes(name, h):
    W = pair_source_case(name, h)
    matrix, den = W.pou_matrix()
    ref, ref_den = W.bumps(W._grid().nodes())
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(matrix, attr), getattr(ref, attr)), attr
    assert np.array_equal(den, ref_den)


def test_collar_profile_support_exact():
    assert collar_profile(np.array([0.0, 1.0, -1.0])).tolist() == [1.0, 1.0, 1.0]
    assert collar_profile(np.array([9 / 8, -9 / 8, 2.0])).tolist() == [0.0, 0.0, 0.0]
    mid = collar_profile(np.array([1.0625]))[0]
    assert 0 < mid < 1


def test_pou_sums_to_one_off_set(segment2d):
    S, W = segment2d
    rng = np.random.default_rng(11)
    pts = rng.uniform(S.bbox[:, 0], S.bbox[:, 1], size=(500, S.dim))
    pts = pts[S.dist(pts) > 2 * S.h]
    for x in pts:
        cand, phi = W.pou_at(x)
        assert len(cand) > 0
        assert abs(phi.sum() - 1.0) <= 1e-12
        assert np.all(phi >= 0)


def test_pou_support_inside_grown_cube(segment2d):
    S, W = segment2d
    k = int(np.argmax(W.radii))
    c, r = W.centers[k], W.radii[k]
    outside = c + (9 / 8) * r * np.array([1.0, 0.0]) + np.array([1e-9, 0.0])
    cand, phi = W.pou_at(outside)
    if k in cand:
        assert phi[list(cand).index(k)] == 0.0


def test_pou_gradient_scale(segment2d):
    S, W = segment2d
    rng = np.random.default_rng(13)
    pts = rng.uniform(S.bbox[:, 0] + 0.1, S.bbox[:, 1] - 0.1, size=(120, S.dim))
    pts = pts[S.dist(pts) > 2 * S.h][:60]
    step = S.h / 20

    def phi_value(x, k):
        cand, phi = W.pou_at(x)
        where = np.nonzero(cand == k)[0]
        return float(phi[where[0]]) if len(where) else 0.0

    worst = 0.0
    for x in pts:
        cand, _ = W.pou_at(x)
        for k in cand:
            for a in range(S.dim):
                e = np.zeros(S.dim)
                e[a] = step
                g = (phi_value(x + e, k) - phi_value(x - e, k)) / (2 * step)
                worst = max(worst, abs(g) * W.diams[k])
    assert worst <= 40 * S.dim


def _bump_window_1d(center, radius, lo, h, n_nodes):
    """Node index range and profile values where the grown cube meets a grid."""
    half = GROWTH * radius
    i0 = max(0, int(np.ceil((center - half - lo) / h - 1e-9)))
    i1 = min(n_nodes - 1, int(np.floor((center + half - lo) / h + 1e-9)))
    if i1 < i0:
        return i0, i1, np.zeros(0)
    xs = lo + np.arange(i0, i1 + 1) * h
    return i0, i1, collar_profile((xs - center) / radius)


def cube_major_pou_matrix(W, box, h):
    """Reference grid bump matrix, built cube by cube as the outer product of
    per-axis profile windows, with its row sums."""
    box = np.asarray(box, float)
    shape = GridField.shape_for(box, h)
    rows, cols, vals = [], [], []
    for k in range(len(W)):
        per_axis = [
            _bump_window_1d(W.centers[k, a], W.radii[k], box[a, 0], h, shape[a])
            for a in range(W.S.dim)
        ]
        if any(w[1] < w[0] for w in per_axis):
            continue
        local = per_axis[0][2]
        for a in range(1, W.S.dim):
            local = np.multiply.outer(local, per_axis[a][2])
        idx = np.meshgrid(*[np.arange(w[0], w[1] + 1) for w in per_axis], indexing="ij")
        flat = np.ravel_multi_index([i.ravel() for i in idx], shape)
        mask = local.ravel() > 0
        rows.append(flat[mask])
        cols.append(np.full(int(mask.sum()), k))
        vals.append(local.ravel()[mask])
    matrix = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(int(np.prod(shape)), len(W)),
    )
    return matrix, np.asarray(matrix.sum(axis=1)).ravel()


@pytest.mark.parametrize("name", CANONICAL_NAMES)
def test_pou_matrix_matches_cube_major_reference(name):
    S, _ = generate_canonical(CanonicalSpec(name, 1 / 32))
    W = whitney_decomposition(S)
    matrix, den = W.pou_matrix()
    ref, ref_den = cube_major_pou_matrix(W, S.bbox, S.h)
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(matrix, attr), getattr(ref, attr))
    assert np.array_equal(den, ref_den)


def traced_peak(fn):
    """(fn(), the most bytes traced during the call above those traced
    before it)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_pou_matrix_build_peak_is_near_what_it_keeps():
    # the node windows build no per-pair arrays and no COO copy: the build's
    # traced peak was 3.32 times the bytes it keeps when it went through
    # (node, cube) pairs, and is 2.08 times them now
    S = generate_canonical(CanonicalSpec("segment-1d-in-2d", 1 / 128))[0]
    (matrix, den), peak = traced_peak(whitney_decomposition(S).pou_matrix)
    kept = sum(a.nbytes for a in (matrix.data, matrix.indices, matrix.indptr, den))
    assert peak <= 2.6 * kept


def test_extension_reproduces_samples_exactly(segment2d):
    S, W = segment2d
    rng = np.random.default_rng(5)
    f = rng.normal(size=len(S.points))
    out = extend_points(W, f, S.points, delta=S.extent, cbar=float(f[0]))
    assert np.array_equal(out, f)


def test_extension_of_constant_is_constant(two_points):
    S, W = two_points
    f = np.full(len(S.points), 3.25)
    field = extend_grid(W, f, delta=S.extent, cbar=3.25)
    assert np.max(np.abs(field.values - 3.25)) <= 1e-12


def test_extension_linear_in_data(segment2d):
    S, W = segment2d
    rng = np.random.default_rng(17)
    f = rng.normal(size=len(S.points))
    g = rng.normal(size=len(S.points))
    a, b = 0.7, -1.3
    pts = rng.uniform(S.bbox[:, 0], S.bbox[:, 1], size=(150, S.dim))
    lhs = extend_points(W, a * f + b * g, pts, delta=0.1, cbar=0.0)
    rhs = a * extend_points(W, f, pts, delta=0.1, cbar=0.0) + b * extend_points(
        W, g, pts, delta=0.1, cbar=0.0
    )
    scale = np.max(np.abs(rhs)) + 1.0
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


@pytest.mark.parametrize("extra", [-1, 1])
@pytest.mark.parametrize("route", ["extend_grid", "extend_points"])
def test_extension_refuses_values_of_another_length(route, extra, segment2d):
    # one value per sample: a longer array is not read by its prefix, and a
    # shorter one is refused before it is indexed
    S, W = segment2d
    f = np.zeros(len(S.points) + extra)
    calls = {
        "extend_grid": lambda: extend_grid(W, f, delta=0.1, cbar=0.0),
        "extend_points": lambda: extend_points(W, f, S.points, delta=0.1, cbar=0.0),
    }
    want = rf"needs {len(S.points)} values, got shape \({len(f)},\)"
    with pytest.raises(ConfigError, match=want):
        calls[route]()


def test_grid_and_point_extension_agree():
    # grid nodes and arbitrary points share one evaluation path
    rng = np.random.default_rng(23)
    for name in CANONICAL_NAMES:
        S, _ = generate_canonical(CanonicalSpec(name, 1 / 32))
        W = whitney_decomposition(S)
        f = rng.normal(size=len(S.points))
        span = S.extent or 1.0
        field = extend_grid(W, f, delta=span, cbar=float(f[0]))
        direct = extend_points(W, f, field.nodes(), delta=span, cbar=float(f[0]))
        assert np.array_equal(direct, field.values.ravel()), name


def test_grid_and_point_extension_agree_on_solid_set(solid_square):
    # on-set grid nodes of a solid set are cell corners, equidistant to up to
    # four samples; both routes give the lexicographically smallest one
    S, W = solid_square
    rng = np.random.default_rng(29)
    f = rng.normal(size=len(S.points))
    field = extend_grid(W, f, delta=S.extent, cbar=0.0)
    nodes = field.nodes()
    on = S.on_set(nodes)
    direct = extend_points(W, f, nodes[on], delta=S.extent, cbar=0.0)
    assert np.array_equal(field.values.reshape(-1)[on], direct)
    gaps = np.max(np.abs(nodes[on][:, None, :] - S.points[None, :, :]), axis=2)
    tied = gaps <= gaps.min(axis=1, keepdims=True) + 1e-12
    assert np.count_nonzero(tied.sum(axis=1) > 1) > len(S.points) // 2
    lex_rank = np.empty(len(S.points), int)
    lex_rank[np.lexsort(S.points.T[::-1])] = np.arange(len(S.points))
    lex_nearest = np.argmin(np.where(tied, lex_rank, len(S.points)), axis=1)
    assert np.array_equal(direct, f[lex_nearest])


def test_projection_identity_on_set_and_bounded_off(segment2d):
    S, W = segment2d
    nodes, target, dist, on_set = projection_data(W)
    moved = np.max(np.abs(S.points[target] - nodes), axis=1)
    # on-set nodes stay within the sampling tolerance
    assert np.all(moved[on_set] <= S.h / 2 + 1e-12)
    off = dist > 0
    theta = np.max(moved[off] / dist[off])
    assert theta <= 12.0


def half_node_set(h=1 / 32):
    """A thin zigzag whose samples all sit half a node off the grid on both
    axes, where rounding a sample to its nearest node is a tie (numpy rounds
    half to even)."""
    k = np.arange(33)
    points = np.stack([k * h, (k % 3) * h], axis=1)
    pad = 1.25 + h / 2
    bbox = np.stack([points.min(axis=0) - pad, points.max(axis=0) + pad], axis=1)
    return ClosedSet(dim=2, h=h, points=points, bbox=bbox, kind="thin", name="half-node")


def catalog_or_half_node(name, h):
    if name == "half-node":
        return half_node_set(h)
    return generate_canonical(CanonicalSpec(name, h))[0]


# grid_set_info and grid_near_mask query distances only up to the bound
# their reader uses, and only at the nodes the raster prefilter keeps; the
# references below are the full-grid queries they replaced
SET_INFO_CASES = (
    [pytest.param(name, 1 / 32, id=name) for name in CANONICAL_NAMES]
    + [pytest.param(name, 1 / 64, id=f"{name}-h64") for name in CANONICAL_NAMES]
    + [pytest.param("half-node", 1 / 32, id="half-node")]
)


@pytest.mark.parametrize("name, h", SET_INFO_CASES)
def test_grid_set_info_matches_full_query(name, h):
    S = catalog_or_half_node(name, h)
    W = whitney_decomposition(S)
    info = W.grid_set_info()
    nodes = W._grid().nodes()
    assert sorted(info) == ["nearest", "on_set"]
    # the prefilter at every bound it serves: the on-set query's and each
    # eps-neighbourhood mask's
    bounds = [2 * S.on_set_reach] + [2 * (eps + S.sample_radius) + h
                                     for eps in (h / 4, h, 0.25, 10.0)]
    for b in bounds:
        assert np.array_equal(W._near_nodes(b), S.nearest_distance(nodes, bound=b)), b
    on_set = S.nearest_distance(nodes) <= S.on_set_reach
    rows = np.nonzero(on_set | (W.projection_map().ravel() < 0))[0]
    nearest = np.full(len(nodes), -1)
    nearest[rows] = S.nearest_point(nodes[rows])[1]
    assert np.array_equal(info["on_set"], on_set)
    assert np.array_equal(info["nearest"], nearest)


@pytest.mark.parametrize("name", [*CANONICAL_NAMES, "half-node"])
def test_eps_mask_is_the_exact_distance_test(name):
    # the composition norms read only dist <= eps + 1e-12; the mask comes
    # from bounded, prefiltered queries and must match the exact distance
    S = catalog_or_half_node(name, 1 / 32)
    W = whitney_decomposition(S)
    f = np.random.default_rng(5).normal(size=len(S.points))
    masks = {eps: compose_with_projection(W, f, eps) for eps in (S.h / 4, S.h, 0.25, 10.0)}
    nodes, target, dist, _ = projection_data(W)
    assert np.array_equal(dist, S.dist(nodes))
    for eps, (FT, near) in masks.items():
        assert np.array_equal(near.ravel(), dist <= eps + 1e-12), eps
        assert np.array_equal(FT.values.ravel(), f[target])
    assert masks[10.0][1].all() and not masks[S.h / 4][1].all()


@pytest.mark.parametrize("name", CANONICAL_NAMES)
@pytest.mark.parametrize("extend_first", [False, True])
def test_projection_dist_is_exact(name, extend_first):
    S, _ = generate_canonical(CanonicalSpec(name, 1 / 32))
    W = whitney_decomposition(S)
    f = np.random.default_rng(31).normal(size=len(S.points))
    if extend_first:
        extend_grid(W, f, delta=S.extent, cbar=0.0)
    nodes, _, dist, _ = projection_data(W)
    assert np.array_equal(dist, S.dist(nodes))
    if not extend_first:
        field = extend_grid(W, f, delta=S.extent, cbar=0.0)
        fresh = whitney_decomposition(S)
        assert np.array_equal(field.values, extend_grid(fresh, f, S.extent, 0.0).values)
