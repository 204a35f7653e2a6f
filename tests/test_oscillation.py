"""Oscillation, packing solver, packing functionals, sharp maximal."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from sobtrace.canonical import CANONICAL_NAMES, CanonicalSpec, generate_canonical
from sobtrace.canonical import test_function_family as function_family
from sobtrace.cubes import Cube, conflict_masks, partition_into_packings
from sobtrace.grid import GridField
from sobtrace.norms import grid_besov_norm
from sobtrace.measures import ap_mu_options
from sobtrace import acceptance, norms, oscillation
from sobtrace.oscillation import (
    PackingProblem,
    _greedy_order,
    _solve_greedy,
    _thin_candidates,
    cube_oscillations,
    grid_packing_functional,
    grid_packing_profile,
    modulus_of_smoothness,
    modulus_profile,
    packing_functional_details,
    packing_profile,
    sharp_maximal,
    sharp_maximal_field,
    solve_packing,
)
from sobtrace.sets import ClosedSet, solid_set, thin_set
from sobtrace.util import ConfigError, dyadic_ladder, lex_order
from test_cubes import interiors_disjoint
from test_whitney import traced_peak


def brute_force_packing(problem):
    """The packing optimum, by trying every subset; the bound on greedy."""
    m = len(problem.scores)
    cubes = [Cube(tuple(c), r) for c, r in zip(problem.centers, problem.radii)]
    best = 0.0
    for mask in range(1 << m):
        idx = [i for i in range(m) if (mask >> i) & 1]
        if all(
            interiors_disjoint(cubes[i], cubes[j])
            for a, i in enumerate(idx)
            for j in idx[a + 1 :]
        ):
            best = max(best, sum(problem.scores[i] for i in idx))
    return best


def reference_solve_greedy(problem):
    """The scalar greedy walk: one np.max per (candidate, chosen) pair."""
    chosen = []
    for i in _greedy_order(problem):
        c, r = problem.centers[i], problem.radii[i]
        if all(
            not np.max(np.abs(c - problem.centers[j])) < r + problem.radii[j] - 1e-12
            for j in chosen
        ):
            chosen.append(int(i))
    return np.array(chosen, int)


class TestPackingSolver:
    def test_chain_greedy_vs_exact(self):
        # middle cube overlaps both ends; ends are mutually disjoint
        problem = PackingProblem(
            centers=np.array([[0.0], [0.75], [1.5]]),
            radii=np.array([0.5, 0.5, 0.5]),
            scores=np.array([2.0, 3.0, 2.0]),
        )
        greedy = solve_packing(problem, mode="greedy")
        assert greedy.value == 3.0
        assert list(greedy.chosen) == [1]
        assert brute_force_packing(problem) == 4.0

    def test_touching_cubes_are_disjoint(self):
        problem = PackingProblem(
            centers=np.array([[0.0], [1.0], [2.0]]),
            radii=np.array([0.5, 0.5, 0.5]),
            scores=np.array([1.0, 1.0, 1.0]),
        )
        assert solve_packing(problem, mode="greedy").value == 3.0
        assert brute_force_packing(problem) == 3.0

    def test_zero_scores_dropped(self):
        problem = PackingProblem(
            centers=np.array([[0.0], [0.1]]),
            radii=np.array([0.5, 0.5]),
            scores=np.array([0.0, 0.0]),
        )
        res = solve_packing(problem)
        assert res.value == 0.0 and len(res.chosen) == 0

    def test_exact_mode_is_refused(self):
        # "greedy" is the only mode; another is refused before the scores
        # are read, also when none is positive
        centers, radii = np.array([[0.0], [1.0]]), np.full(2, 0.2)
        for scores in (np.ones(2), np.zeros(2)):
            with pytest.raises(ConfigError, match="unknown packing mode 'exact'"):
                solve_packing(PackingProblem(centers, radii, scores), mode="exact")

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 40),
                st.integers(1, 6),
                st.integers(0, 10),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_greedy_is_a_packing_within_the_optimum(self, raw):
        problem = PackingProblem(
            centers=np.array([[c / 4.0] for c, _, _ in raw]),
            radii=np.array([r / 8.0 for _, r, _ in raw]),
            scores=np.array([float(s) for _, _, s in raw]),
        )
        greedy = solve_packing(problem)
        assert greedy.value <= brute_force_packing(problem) + 1e-12
        cubes = [Cube(tuple(problem.centers[i]), problem.radii[i]) for i in greedy.chosen]
        for a, b in itertools.combinations(cubes, 2):
            assert interiors_disjoint(a, b)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("spacing", [0.3, 0.15, 0.7])
    def test_touching_lattice_is_one_packing(self, spacing, dim):
        # at a spacing that is not dyadic the faces of neighbours meet only
        # up to rounding; the colouring, the greedy solver and C05's
        # enumeration all read cubes.interiors_meet and see one packing
        sides = (7,) if dim == 1 else (4, 3)
        centers = spacing * np.array(list(itertools.product(*map(range, sides))), float)
        m = len(centers)
        radii = np.full(m, spacing / 2)
        assert conflict_masks(centers, radii) == [0] * m
        assert partition_into_packings(centers, radii).tolist() == [0] * m
        greedy = solve_packing(PackingProblem(centers, radii, np.ones(m)))
        assert greedy.value == m and greedy.chosen.tolist() == list(range(m))
        assert acceptance._brute_force_packing(centers, radii, np.ones(m)) == m

    @pytest.mark.parametrize("dim", [1, 2])
    def test_vectorised_greedy_matches_scalar_walk(self, dim):
        rng = np.random.default_rng(dim)
        for m in (1, 5, 60, 400):
            # radii on a coarse ladder and centers on a lattice, so touching
            # cubes and equal scores (ties in the greedy order) are common
            problem = PackingProblem(
                centers=rng.integers(0, 12, size=(m, dim)) / 8.0,
                radii=rng.choice([1 / 16, 1 / 8, 0.25], size=m),
                scores=rng.integers(1, 4, size=m).astype(float),
            )
            got = _solve_greedy(problem)
            assert got.tolist() == reference_solve_greedy(problem).tolist()


class TestBlockedGreedy:
    """_solve_greedy takes the greedy order in blocks of _GREEDY_BLOCK; the
    picks, in admission order, must be the scalar walk's."""

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (2, 1)],
                             ids=["block-1", "block", "block+1", "2block+1"])
    def test_block_edges(self, blocks, extra, dim):
        m = blocks * oscillation._GREEDY_BLOCK + extra
        rng = np.random.default_rng(m + 100 * dim)
        problem = PackingProblem(
            centers=rng.integers(0, 6, size=(m, dim)) / 8.0,
            radii=rng.choice([1 / 16, 1 / 8, 0.25], size=m),
            scores=rng.integers(1, 4, size=m).astype(float),
        )
        got = _solve_greedy(problem)
        want = reference_solve_greedy(problem)
        assert got.tolist() == want.tolist()
        # cubes are admitted in several blocks, and some are refused
        assert 1 < len(want) < m

    def test_all_conflicting(self):
        # every pair of interiors meets: only the first cube in greedy order
        m = 2 * oscillation._GREEDY_BLOCK + 1
        rng = np.random.default_rng(5)
        problem = PackingProblem(rng.uniform(0, 0.1, (m, 2)), np.ones(m),
                                 rng.integers(1, 4, size=m).astype(float))
        got = _solve_greedy(problem)
        assert got.tolist() == reference_solve_greedy(problem).tolist()
        assert got.tolist() == [_greedy_order(problem)[0]]

    def test_all_disjoint(self):
        # touching cubes on a lattice: every cube is admitted, in greedy order
        m = 2 * oscillation._GREEDY_BLOCK + 1
        centers = np.array(list(itertools.product(range(13), range(6))), float)[:m]
        problem = PackingProblem(centers, np.full(m, 0.5),
                                 np.random.default_rng(6).uniform(0.5, 1, m))
        got = _solve_greedy(problem)
        assert got.tolist() == reference_solve_greedy(problem).tolist()
        assert got.tolist() == _greedy_order(problem).tolist()

    @pytest.mark.parametrize("name", ["segment-1d-in-2d", "example-726", "solid-disk"])
    def test_mixed_radius_problem_of_lambda_packing(self, name, monkeypatch):
        # the pooled problem lambda_packing builds: candidates of every
        # dyadic diameter, scores osc^p tau^(n - p), many more than a block
        S, _ = generate_canonical(CanonicalSpec(name, 1 / 32))
        f = function_family("restrictions-of-smooth", S)[5].values
        problems = []
        monkeypatch.setattr(norms, "solve_packing",
                            lambda problem: problems.append(problem) or solve_packing(problem))
        norms.lambda_packing(S, f, 3.0, 11.0)
        (problem,) = problems
        assert len(np.unique(problem.radii)) > 1
        assert len(problem.scores) > 2 * oscillation._GREEDY_BLOCK
        got = _solve_greedy(problem)
        assert got.tolist() == reference_solve_greedy(problem).tolist()


class TestPackingFunctional:
    def test_two_point_jump(self):
        S = thin_set(np.array([[0.0], [1.0]]), h=0.25)
        f = np.array([0.0, 1.0])
        # only the full-diameter cubes capture the jump: one admitted,
        # score = diam * osc^2 = 2
        assert packing_functional_details(S, f, t=2.0, p=2)["value"] == pytest.approx(
            np.sqrt(2.0)
        )
        # below the separation every cube holds one sample
        assert packing_functional_details(S, f, t=0.5, p=2)["value"] == 0.0

    def test_details_breakdown(self):
        S = thin_set(np.array([[0.0], [1.0]]), h=0.25)
        f = np.array([0.0, 1.0])
        out = packing_functional_details(S, f, t=2.0, p=2)
        assert out["best_tau"] == 2.0
        assert out["power_sum"] == pytest.approx(2.0)
        taus = [row[0] for row in out["per_tau"]]
        assert taus == [2.0, 1.0, 0.5, 0.25]

    def test_linear_function_on_segment(self):
        pts = np.linspace(0, 1, 65)[:, None]
        S = thin_set(pts, h=1 / 64)
        f = pts[:, 0]
        out = packing_functional_details(S, f, t=0.25, p=2)
        # disjoint quarter-cubes each score tau * tau^2; four of them fit
        assert out["power_sum"] == pytest.approx(4 * 0.25 ** 3, rel=0.05)

    def test_custom_score_fn(self):
        S = thin_set(np.array([[0.0], [1.0]]), h=0.25)
        f = np.array([0.0, 1.0])

        def samples_held(centers, radius):
            # one call per trial diameter, one score per candidate cube
            return [float(np.sum(np.abs(S.points - c).max(axis=1) <= radius)) for c in centers]

        out = packing_functional_details(S, f, t=2.0, p=2, score_fn=samples_held)
        assert out["value"] == pytest.approx(np.sqrt(2.0))  # one cube, two samples

    def test_porosity_filter_prunes(self):
        occ = np.ones((16, 16), bool)
        S = solid_set(occ, h=1 / 16, origin=np.zeros(2))
        f = S.points[:, 0]
        dense = packing_functional_details(S, f, t=0.5, p=2)
        porous = packing_functional_details(S, f, t=0.5, p=2, alpha=0.45)
        # interior-centered cubes fail the clearance test once alpha is large
        assert porous["power_sum"] <= dense["power_sum"] + 1e-12

    def test_boundary_centers(self):
        occ = np.ones((16, 16), bool)
        S = solid_set(occ, h=1 / 16, origin=np.zeros(2))
        f = S.points[:, 0] ** 2
        val = packing_functional_details(S, f, t=0.25, p=2, centers="boundary")["value"]
        assert np.isfinite(val) and val >= 0

    def test_rejects_infinite_p(self):
        S = thin_set(np.array([[0.0], [1.0]]), h=0.25)
        with pytest.raises(ConfigError):
            packing_functional_details(S, [0.0, 1.0], t=1.0, p=np.inf)

    @pytest.mark.parametrize("p", [0, -1.0, np.nan, np.inf, -np.inf])
    def test_rejects_bad_p(self, p):
        S = thin_set(np.linspace(0, 1, 9)[:, None], h=1 / 8)
        f = S.points[:, 0]
        F = GridField(np.array([[0.0, 1.0]]), 1 / 8, f)
        with pytest.raises(ConfigError):
            packing_profile(S, f, [0.25, 0.5], p)
        with pytest.raises(ConfigError):
            packing_profile(S, f, [], p)
        with pytest.raises(ConfigError):
            packing_functional_details(S, f, 0.5, p)
        with pytest.raises(ConfigError):
            grid_packing_functional(F, 0.5, p)
        with pytest.raises(ConfigError):
            grid_packing_profile(F, [0.25, 0.5], p)
        with pytest.raises(ConfigError):
            grid_packing_profile(F, [], p)

    @pytest.mark.parametrize("t", [0.0, -0.25, np.inf, -np.inf, np.nan])
    def test_rejects_bad_t(self, t):
        S = thin_set(np.linspace(0, 1, 9)[:, None], h=1 / 8)
        f = S.points[:, 0]
        F = GridField(np.array([[0.0, 1.0]]), 1 / 8, f)
        with pytest.raises(ConfigError):
            packing_profile(S, f, [0.25, t, 0.5], 2.0)
        with pytest.raises(ConfigError):
            packing_functional_details(S, f, t, 2.0)
        with pytest.raises(ConfigError):
            grid_packing_functional(F, t, 2.0)
        with pytest.raises(ConfigError):
            grid_packing_profile(F, [0.25, t, 0.5], 2.0)


@pytest.mark.parametrize("name", CANONICAL_NAMES)
def test_profile_matches_per_scale_loop(name):
    """packing_profile packs each distinct trial diameter once; the per-scale
    loop packs t, t/2, t/4, t/8 again at every scale. Values must be equal."""
    S, mu = generate_canonical(CanonicalSpec(name, 1 / 32))
    f = function_family("restrictions-of-smooth", S)[5].values
    p = 3.0
    options = [
        {},
        {"centers": "boundary", "alpha": 3 / 20},
        {"centers": "boundary", "alpha": 3 / 20, "strong": True},
        ap_mu_options(S, mu, f, p, q=p),
        ap_mu_options(S, mu, f, p, q=p, alpha=1 / 8),
        ap_mu_options(S, mu, f, p, q=p, alpha=1 / 8, variant="center"),
    ]
    ladders = [dyadic_ladder(max(2 * S.h, 0.25 / 512), 0.25), np.array([0.5])]
    for opts in options:
        for ts in ladders:
            want = [packing_functional_details(S, f, t, p, **opts)["value"] for t in ts]
            assert packing_profile(S, f, ts, p, **opts).tolist() == want


def reference_oscillation(values) -> float:
    """max - min over a value set; empty sets oscillate by 0. The per-cube
    oscillation that cube_oscillations batches."""
    values = np.asarray(values, float)
    if values.size == 0:
        return 0.0
    return float(values.max() - values.min())


def reference_packing_table(S, f_vals, ts, p, *, centers="set", alpha=None, strong=False,
                            score_fn=None):
    """_packing_table as it scored one candidate at a time: the default
    score takes one oscillation per ball group, and score_fn(center, radius)
    is called once per candidate cube."""
    f_vals = np.asarray(f_vals, float)
    center_set = S if centers == "set" else S.boundary()
    if center_set is S:
        score_vals = f_vals
    else:
        _, parent = S.tree.query(center_set.points, k=1, p=np.inf)
        score_vals = f_vals[parent]
    table = {}
    for tau in (tau for t in ts for tau in (t, t / 2, t / 4, t / 8)):
        if tau in table:
            continue
        cand = center_set.points[_thin_candidates(center_set.points, tau)]
        radius = tau / 2.0
        if alpha is not None:
            cand = cand[S.porous(cand, radius, alpha, strong=strong)]
        if len(cand) == 0:
            table[tau] = (0.0, 0)
            continue
        if score_fn is None:
            groups = center_set.tree.query_ball_point(cand, radius + 1e-12, p=np.inf)
            scores = np.array(
                [tau ** S.dim * reference_oscillation(score_vals[np.array(g, int)]) ** p
                 for g in groups]
            )
        else:
            scores = np.array([score_fn(c, radius) for c in cand])
        result = solve_packing(PackingProblem(cand, np.full(len(cand), radius), scores))
        table[tau] = (result.value, len(result.chosen))
    return table


@pytest.mark.parametrize("name", CANONICAL_NAMES)
def test_cube_oscillations_match_per_group(name):
    S, _ = generate_canonical(CanonicalSpec(name, 1 / 32))
    f = function_family("restrictions-of-smooth", S)[5].values
    rng = np.random.default_rng(4)
    # sample points, points nudged off the set, and three cubes far from it
    nudged = S.points + rng.choice([-0.3, 0.0, 0.7], size=S.points.shape) * S.h
    centers = np.concatenate([S.points, nudged, np.full((3, S.dim), 9.0)])
    for reach in (S.h / 4, S.h / 2 + 1e-12, S.h, 0.1, 0.5):
        got = cube_oscillations(S.tree, f, centers, reach)
        groups = S.tree.query_ball_point(centers, reach, p=np.inf)
        assert got.tolist() == [reference_oscillation(f[np.array(g, int)]) for g in groups]
        assert got[-3:].tolist() == [0.0] * 3
    assert cube_oscillations(S.tree, f, np.zeros((0, S.dim)), 0.1).shape == (0,)


@pytest.mark.parametrize("name", CANONICAL_NAMES)
def test_packing_table_matches_per_candidate_loop(name):
    S, _ = generate_canonical(CanonicalSpec(name, 1 / 32))
    for member in (0, 5):
        f = function_family("restrictions-of-smooth", S)[member].values
        for opts in ({}, {"centers": "boundary", "alpha": 1 / 15}):
            for t in (0.5, 0.25, 4 * S.h):
                table = reference_packing_table(S, f, [t], 3.0, **opts)
                got = packing_functional_details(S, f, t, 3.0, **opts)["per_tau"]
                assert got == [(tau, *table[tau]) for tau in (t, t / 2, t / 4, t / 8)]


def reference_thin_candidates(points, tau):
    """_thin_candidates as first written: a dict keyed by tau/8 lattice
    cell, filled in lexicographic order. Kept as the oracle for np.unique."""
    cell = tau / 8.0
    keys = np.floor(points / cell + 1e-12).astype(np.int64)
    seen = {}
    for i in lex_order(points):
        k = tuple(keys[i])
        if k not in seen:
            seen[k] = i
    return np.array(sorted(seen.values()), int)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_thin_candidates_match_dict_reference(dim):
    # a cloud with many samples per cell, exact duplicates, negative
    # coordinates and points on cell faces
    rng = np.random.default_rng(dim)
    pts = rng.uniform(-1.0, 1.0, size=(600, dim))
    pts = np.concatenate([pts, pts[:50], np.round(pts[50:150] * 8) / 8])
    rng.shuffle(pts)
    for tau in (2.0, 1.0, 0.25, 1 / 16):
        got = _thin_candidates(pts, tau)
        assert np.array_equal(got, reference_thin_candidates(pts, tau))
    assert len(_thin_candidates(pts, 1.0)) < len(pts)


class TestGridPackingFunctional:
    def test_identity_field(self):
        box = np.array([[0.0, 1.0]])
        h = 1 / 64
        F = GridField.from_function(box, h, lambda x: x[..., 0])
        # four disjoint quarter-cubes, each with oscillation 1/4
        assert grid_packing_functional(F, t=0.25, p=2) == pytest.approx(0.25)

    def test_constant_field_zero(self):
        box = np.array([[0.0, 1.0], [0.0, 1.0]])
        F = GridField.from_function(box, 1 / 16, lambda x: np.ones(x.shape[:-1]))
        assert grid_packing_functional(F, t=0.5, p=2) == 0.0

    def test_details_and_agreement_with_set_version(self):
        box = np.array([[0.0, 1.0]])
        h = 1 / 64
        F = GridField.from_function(box, h, lambda x: x[..., 0])
        out = grid_packing_functional(F, t=0.25, p=2, details=True)
        assert out["best_tau"] == 0.25
        pts = np.linspace(0, 1, 65)[:, None]
        S = thin_set(pts, h=h)
        set_val = packing_functional_details(S, pts[:, 0], t=0.25, p=2)["value"]
        assert out["value"] == pytest.approx(set_val, rel=0.05)


def reference_grid_packing(F, t, p, taus=None):
    """grid_packing_functional as first written: every node in score order
    is turned into per-axis indices with np.unravel_index before its
    blocked test. Kept as the oracle for the flat-mask walk."""
    taus = [t, t / 2, t / 4, t / 8] if taus is None else list(taus)
    shape = F.values.shape
    best, best_tau, per_tau = 0.0, None, []
    for tau in taus:
        k = int(round(tau / F.h))
        if k < 1 or 2 * k >= min(shape):
            per_tau.append((tau, 0.0, 0))
            continue
        w = k + 1 if k % 2 == 0 else k
        hi = ndimage.maximum_filter(F.values, size=w, mode="nearest")
        lo = ndimage.minimum_filter(F.values, size=w, mode="nearest")
        score = (hi - lo) ** p * tau ** F.dim
        margin = (k + 1) // 2
        valid = np.zeros(shape, bool)
        valid[tuple(slice(margin, s - margin) for s in shape)] = True
        score = np.where(valid, score, 0.0)
        flat = score.ravel()
        cand = np.nonzero(flat > 0)[0]
        order = cand[np.lexsort((cand, -flat[cand]))]
        blocked = np.zeros(shape, bool)
        total, count = 0.0, 0
        for pos in order:
            idx = np.unravel_index(pos, shape)
            if blocked[idx]:
                continue
            total += flat[pos]
            count += 1
            sl = tuple(
                slice(max(0, i - k + 1), min(s, i + k)) for i, s in zip(idx, shape)
            )
            blocked[sl] = True
        per_tau.append((tau, total, count))
        if total > best:
            best, best_tau = total, tau
    return {"value": best ** (1.0 / p), "best_tau": best_tau, "per_tau": per_tau}


_UNIT_SQUARE = np.array([[0.0, 1.0], [0.0, 1.0]])
_GRID_FIELDS = {
    "linear": lambda: GridField.from_function(
        _UNIT_SQUARE, 1 / 64, lambda x: x @ np.array([1.0, 2.0])
    ),
    "cosine": lambda: GridField.from_function(
        _UNIT_SQUARE, 1 / 64, lambda x: np.cos(x[:, 0] + 2 * x[:, 1])
    ),
    "random": lambda: GridField(
        _UNIT_SQUARE, 1 / 64, np.random.default_rng(7).standard_normal((65, 65))
    ),
    "non-square": lambda: GridField(
        np.array([[0.0, 1.0], [0.0, 0.5]]),
        1 / 64,
        np.random.default_rng(8).standard_normal((65, 33)),
    ),
    "line": lambda: GridField(
        np.array([[0.0, 1.0]]), 1 / 128, np.random.default_rng(9).standard_normal(129)
    ),
    "cube": lambda: GridField(
        np.array([[0.0, 1.0], [0.0, 0.75], [0.0, 0.5]]),
        1 / 16,
        np.random.default_rng(10).standard_normal((17, 13, 9)),
    ),
}


@pytest.mark.parametrize("name", sorted(_GRID_FIELDS))
@pytest.mark.parametrize("p", [1.0, 3.0])
def test_grid_profile_matches_per_scale_calls(name, p):
    """grid_packing_profile packs each distinct trial diameter of the ladder
    once; grid_packing_functional packs t, t/2, t/4, t/8 at every scale.
    Values must be equal, on C06's dyadic ladder (whose scales share trial
    diameters) and on a ladder whose scales share none."""
    F = _GRID_FIELDS[name]()
    dyadic = dyadic_ladder(4 * F.h, 0.5)
    disjoint = np.array([0.3, 0.2, 0.07])
    assert len(oscillation._trial_diameters(dyadic, p)) < 4 * len(dyadic)
    assert len(oscillation._trial_diameters(disjoint, p)) == 4 * len(disjoint)
    for ts in (dyadic, disjoint):
        want = [grid_packing_functional(F, t, p) for t in ts]
        assert grid_packing_profile(F, ts, p).tolist() == want


def test_set_and_grid_breakdowns_have_the_same_keys():
    pts = np.linspace(0, 1, 65)[:, None]
    S = thin_set(pts, h=1 / 64)
    F = GridField(np.array([[0.0, 1.0]]), 1 / 64, pts[:, 0])
    set_out = packing_functional_details(S, pts[:, 0], t=0.25, p=2)
    grid_out = grid_packing_functional(F, t=0.25, p=2, details=True)
    assert set(set_out) == set(grid_out) == {"value", "power_sum", "best_tau", "per_tau"}
    assert grid_out["value"] == grid_out["power_sum"] ** 0.5


class TestGridPackingWalk:
    """The strided-view walk (a padded `blocked` raster, one check and one
    window store per node, the order taken in chunks) admits the same nodes
    in the same order as the per-node unravel_index walk, so every sum is
    bit-identical."""

    @staticmethod
    def assert_same(F, t, p):
        got = grid_packing_functional(F, t, p, details=True)
        want = reference_grid_packing(F, t, p)
        assert [row[0] for row in got["per_tau"]] == [t, t / 2, t / 4, t / 8]
        assert got["per_tau"] == want["per_tau"]
        assert got["value"] == want["value"]
        assert got["best_tau"] == want["best_tau"]
        return got

    @pytest.mark.parametrize("name", sorted(_GRID_FIELDS))
    @pytest.mark.parametrize("p", [1.0, 3.0])
    def test_default_taus(self, name, p):
        F = _GRID_FIELDS[name]()
        for t in (4 * F.h, 16 * F.h, 0.25):
            self.assert_same(F, t, p)

    @pytest.mark.parametrize("name", sorted(_GRID_FIELDS))
    def test_even_and_odd_k(self, name):
        F = _GRID_FIELDS[name]()
        # t = 4h, 24h, 40h, 56h: the trial diameters t/2^j reach k = 1 .. 7;
        # odd k centre cubes between nodes, k = 1 scores nothing
        ks, admitted = set(), 0
        for n in (4, 24, 40, 56):
            got = self.assert_same(F, n * F.h, 2.0)
            ks.update(round(row[0] / F.h) for row in got["per_tau"])
            admitted += sum(row[2] for row in got["per_tau"])
        assert ks >= set(range(1, 8))
        assert admitted > 0

    def test_explicit_taus_list(self):
        F = _GRID_FIELDS["cosine"]()
        # tau = 0.3, 0.15, 0.075, 0.0375 round to k = 19, 10, 5, 2
        got = self.assert_same(F, 0.3, 3.0)
        assert [round(row[0] / F.h) for row in got["per_tau"]] == [19, 10, 5, 2]
        assert all(row[2] > 0 for row in got["per_tau"])
        # at t = 5 even t/8 rounds to k = 40 and 2k >= 65 nodes: nothing fits
        got = self.assert_same(F, 5.0, 3.0)
        assert got["per_tau"] == [(tau, 0.0, 0) for tau in (5.0, 2.5, 1.25, 0.625)]
        assert got["value"] == 0.0 and got["best_tau"] is None

    @pytest.mark.parametrize("shape", [(17,), (15, 18), (15, 16, 17)])
    @pytest.mark.parametrize("k", range(2, 8))
    def test_far_corner_window(self, shape, k):
        # one spike half a window past the last valid node L = s - 1 - margin
        # on every axis: L is the only node of positive score at k, so its
        # window, the last one the strided view can be asked for, is stored
        h = 1 / 16
        margin, reach = (k + 1) // 2, k // 2  # reach: half the filter window
        values = np.zeros(shape)
        values[tuple(s - 1 - margin + reach for s in shape)] = 1.0
        F = GridField(np.array([[0.0, (s - 1) * h] for s in shape]), h, values)
        got = self.assert_same(F, k * h, 2.0)
        assert got["per_tau"][0] == (k * h, (k * h) ** len(shape), 1)

    def test_candidates_not_a_multiple_of_the_chunk(self):
        F = GridField(
            np.array([[0.0, 39 / 64], [0.0, 36 / 64]]),
            1 / 64,
            np.random.default_rng(11).standard_normal((40, 37)),
        )
        # at k = 2 every one of the 38 x 35 valid nodes of the random field
        # scores above 0: two full chunks and a part
        hi = ndimage.maximum_filter(F.values, size=3, mode="nearest")
        lo = ndimage.minimum_filter(F.values, size=3, mode="nearest")
        assert np.count_nonzero((hi - lo)[1:-1, 1:-1] > 0) == 38 * 35
        chunk = oscillation._WALK_CHUNK
        assert 38 * 35 % chunk != 0 and 38 * 35 > 2 * chunk
        got = self.assert_same(F, 2 / 64, 3.0)
        assert got["per_tau"][0][2] > 0


# no -0.0: ndimage and np.maximum each return either sign of a tied zero
_NODE_VALUES = st.one_of(
    st.floats(allow_nan=False, width=64), st.integers(-2, 2).map(float)
).map(lambda v: v + 0.0)


def _fields(draw, sides, elements):
    """A 1-3-D array of `elements`, side lengths drawn from sides[dim - 1]."""
    dim = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(sides[dim - 1], min_size=dim, max_size=dim)))
    return draw(arrays(float, shape, elements=elements))


@st.composite
def grown_case(draw):
    """A field, a half-width m (up to past the grid) and a step k <= m, or
    k = 1 at m = 0."""
    values = _fields(draw, (st.integers(1, 40), st.integers(1, 12), st.integers(1, 6)),
                     _NODE_VALUES)
    m = draw(st.integers(0, max(values.shape)))
    return values, m, draw(st.integers(1, max(m, 1)))


@settings(max_examples=300, deadline=None)
@given(grown_case())
def test_grown_window_is_the_direct_filter(case):
    # the extrema over half-width m grown by k are ndimage's mode="nearest"
    # filters over half-width m + k, bit for bit
    values, m, k = case
    for pick, direct, fill in ((np.maximum, ndimage.maximum_filter, -np.inf),
                               (np.minimum, ndimage.minimum_filter, np.inf)):
        a = direct(values, size=2 * m + 1, mode="nearest")
        got, start = oscillation._grown(a, [0] * values.ndim, m, k, values.shape, pick, fill)
        assert start == [0] * values.ndim
        assert got.tobytes() == direct(values, size=2 * (m + k) + 1, mode="nearest").tobytes()


def reference_grown(a, start, m, k, shape, pick, fill):
    """_grown through one padded copy of the crop per axis, as first
    written: ext holds the crop, fill around it, and the edge rows repeated
    past the grid, and each result row picks two (three at m = 0) of its
    rows."""
    start = list(start)
    for axis in range(a.ndim):
        v = np.moveaxis(a, axis, 0)
        n, s, c = shape[axis], start[axis], len(v)
        lo, hi = max(0, s - k), min(n, s + c + k)
        ext = np.empty((hi - lo + 2 * k,) + v.shape[1:])
        j = s - lo + k
        ext[:j] = fill
        ext[j:j + c] = v
        ext[j + c:] = fill
        first, last = k - lo, n - 1 - lo + k
        if first > 0:
            ext[:first] = ext[first]
        if last < len(ext) - 1:
            ext[last + 1:] = ext[last]
        b = pick(ext[:hi - lo], ext[2 * k:])
        if m == 0:
            pick(b, ext[k:k + hi - lo], out=b)
        a = np.moveaxis(b, 0, axis)
        start[axis] = lo
    return a, start


# tied signed zeros, NaNs and both fills, beside any float
_CROP_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, np.nan, np.inf, -np.inf]) | st.floats(width=64)


@st.composite
def cropped_grown_case(draw):
    """A crop of a 1-3-D grid, with gaps of 0 or more nodes to either grid
    edge on every axis, and a half-width m with a step k <= m (k = 1 at
    m = 0)."""
    dim = draw(st.integers(1, 3))
    side = (st.integers(1, 16), st.integers(1, 6), st.integers(1, 4))[dim - 1]
    gap = st.integers(0, (12, 4, 2)[dim - 1])
    crop, before, after = ([draw(x) for _ in range(dim)] for x in (side, gap, gap))
    shape = tuple(b + c + e for b, c, e in zip(before, crop, after))
    values = draw(arrays(float, tuple(crop), elements=_CROP_VALUES))
    m = draw(st.integers(0, max(shape)))
    return values, before, m, draw(st.integers(1, max(m, 1))), shape


@settings(max_examples=300, deadline=None)
@given(cropped_grown_case())
def test_grown_matches_the_padded_copy(case):
    # _grown writes each axis straight from the crop's rows; its bytes, the
    # sign of every zero and every NaN included, are the padded copy's
    values, start, m, k, shape = case
    for pick, fill in ((np.maximum, -np.inf), (np.minimum, np.inf)):
        got, got_start = oscillation._grown(values, start, m, k, shape, pick, fill)
        ref, ref_start = reference_grown(values, start, m, k, shape, pick, fill)
        assert got_start == ref_start
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


@st.composite
def ladder_case(draw):
    """A grid field and scales k h, k from 1 to past half the shortest axis
    (where nothing fits), with gaps of more than double between them."""
    values = _fields(draw, (st.integers(3, 64), st.integers(3, 20), st.integers(3, 8)),
                     st.floats(-1e3, 1e3) | st.integers(-2, 2).map(float))
    h = 1 / 16
    F = GridField(np.array([[0.0, (s - 1) * h] for s in values.shape]), h, values)
    ks = draw(st.lists(st.integers(1, min(values.shape)), min_size=1, max_size=5, unique=True))
    return F, [k * h for k in ks]


@settings(max_examples=100, deadline=None)
@given(ladder_case())
def test_grid_packing_ladder_matches_per_diameter_filters(case):
    # one max/min pair grown through the trial diameters in ascending k
    # gives every row of the table that filters each diameter directly
    F, ts = case
    table = oscillation._grid_packing_table(F, ts, 2.0)
    assert list(table) == oscillation._trial_diameters(ts, 2.0)
    for t in ts:
        for tau, total, count in reference_grid_packing(F, t, 2.0)["per_tau"]:
            assert table[tau] == (total, count)


class TestNanNode:
    """GridField.load refuses non-finite values; from the library a NaN node
    makes every window that holds it read NaN, so those windows admit no
    cube. ndimage's filters dropped or kept a NaN depending on where it sat
    in the window."""

    @staticmethod
    def field():
        values = np.random.default_rng(7).standard_normal((65, 65))
        values[32, 32] = np.nan
        return GridField(_UNIT_SQUARE, 1 / 64, values)

    def test_windows_holding_the_node_read_nan(self):
        values = self.field().values
        finite = np.nan_to_num(values)
        near = np.max(np.abs(np.indices(values.shape) - 32), axis=0)  # chebyshev to the node
        hi = lo = values
        for m in range(6):
            hi, _ = oscillation._grown(hi, [0, 0], m, 1, values.shape, np.maximum, -np.inf)
            lo, _ = oscillation._grown(lo, [0, 0], m, 1, values.shape, np.minimum, np.inf)
            holds = near <= m + 1
            assert np.array_equal(np.isnan(hi), holds) and np.array_equal(np.isnan(lo), holds)
            size = 2 * m + 3
            assert np.array_equal(hi[~holds], ndimage.maximum_filter(finite, size, mode="nearest")[~holds])
            assert np.array_equal(lo[~holds], ndimage.minimum_filter(finite, size, mode="nearest")[~holds])

    def test_power_sum_pin(self):
        # without the NaN node the t = 1/4 row reads (19.3955..., 8)
        rows = grid_packing_functional(self.field(), 0.25, 2.0, details=True)["per_tau"]
        assert rows[0][0] == 0.25 and rows[0][2] == 7
        assert rows[0][1] == pytest.approx(17.132042432366205, rel=1e-12)


def test_sharp_field_norm_peak_in_grid_arrays():
    # the windows grow with no padded copy and the norm raises to p in
    # place: the traced peak of the T14i term was 7.24 grid-sized float
    # arrays with those copies, and is 5.19 now
    S = generate_canonical(CanonicalSpec("segment-1d-in-2d", 1 / 128))[0]
    f = function_family("restrictions-of-smooth", S)[0].values
    _, peak = traced_peak(lambda: sharp_maximal_field(S, f).cell_lp(3.0))
    assert peak <= 6.2 * 8 * np.prod(GridField.shape_for(S.bbox, S.h))


def reference_sharp_maximal_field(S, f_vals):
    """sharp_maximal_field as first written, each sample rasterized by a
    Python loop and every window filtered directly by ndimage. Kept as the
    oracle for np.maximum.at/np.minimum.at and for the doubled windows."""
    box, h = S.bbox, S.h
    shape = GridField.shape_for(box, h)
    fmax = np.full(shape, -np.inf)
    fmin = np.full(shape, np.inf)
    idx = np.round((S.points - box[:, 0]) / h).astype(int)
    idx = np.clip(idx, 0, np.array(shape) - 1)
    for j, cell in enumerate(map(tuple, idx)):
        if f_vals[j] > fmax[cell]:
            fmax[cell] = f_vals[j]
        if f_vals[j] < fmin[cell]:
            fmin[cell] = f_vals[j]
    out = np.zeros(shape)
    r = h
    extent = float(np.max(box[:, 1] - box[:, 0]))
    while r <= extent:
        w = 2 * int(round(r / h)) + 1
        hi = ndimage.maximum_filter(fmax, size=w, mode="constant", cval=-np.inf)
        lo = ndimage.minimum_filter(fmin, size=w, mode="constant", cval=np.inf)
        out = np.maximum(out, np.where(np.isfinite(hi) & np.isfinite(lo), hi - lo, 0.0) / r)
        r *= 2
    return out


class TestSharpMaximal:
    def test_two_point_midpoint(self):
        S = thin_set(np.array([[0.0], [1.0]]), h=0.25)
        f = np.array([0.0, 1.0])
        assert sharp_maximal(S, f, [0.5]) == pytest.approx(2.0)

    def test_event_scan_hand_case(self):
        S = thin_set(np.array([[0.0], [0.25], [1.0]]), h=1 / 8)
        f = np.array([0.0, 1.0, 3.0])
        # r = 0.25 gives osc 1 -> 4; r = 1 gives osc 3 -> 3
        assert sharp_maximal(S, f, [0.0]) == pytest.approx(4.0)

    def test_constant_function_zero(self):
        S = thin_set(np.linspace(0, 1, 9)[:, None], h=1 / 8)
        assert sharp_maximal(S, np.ones(9), [0.3]) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_refused(self, bad):
        S = thin_set(np.array([[0.0, 0.0], [1.0, 0.0]]), h=0.25)
        for variant in ("range_ratio", "l1_density_ratio"):
            with pytest.raises(ConfigError, match="point x must be finite"):
                sharp_maximal(S, np.zeros(2), [0.5, bad], variant=variant)

    def test_field_matches_pointwise_on_linear(self):
        pts = np.linspace(0, 1, 33)[:, None]
        S = thin_set(pts, h=1 / 32)
        f = pts[:, 0]
        field = sharp_maximal_field(S, f)
        nodes = field.nodes()
        for target in ([0.0], [0.5], [1.0]):
            i = int(np.argmin(np.abs(nodes[:, 0] - target[0])))
            exact = sharp_maximal(S, f, target)
            # dyadic radius grid resolves the sup within a factor two
            assert 0.49 * exact <= field.values[i] <= 1.6 * exact + 1e-12

    @pytest.mark.parametrize("name", CANONICAL_NAMES)
    def test_field_matches_per_sample_loop(self, name):
        S, _ = generate_canonical(CanonicalSpec(name, 1 / 32))
        f = function_family("restrictions-of-smooth", S)[5].values
        assert np.array_equal(
            sharp_maximal_field(S, f).values, reference_sharp_maximal_field(S, f)
        )

    @pytest.mark.parametrize("points, values, h", [
        # 1-D: the largest window spans the whole axis; two samples share a node
        (np.array([[0.0], [0.3], [0.31], [0.7], [1.0]]), None, 1 / 32),
        # 1-D: two clusters, each constant, so only the windows that hold
        # both oscillate and the widest windows set the field
        (np.array([[0.0], [1 / 32], [3.0], [3 + 1 / 32]]), np.array([0.0, 0.0, 1.0, 1.0]), 1 / 32),
        # 2-D: the y axis (43 nodes) is shorter than the largest window (129)
        (np.stack([np.arange(49) / 16, np.arange(49) % 3 / 16], axis=1), None, 1 / 16),
        # 2-D: four corners, one value each, three units apart
        (np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0], [3.0, 3.0]]), np.arange(4.0), 1 / 16),
        # 3-D: scattered samples, most nodes' small windows hold none
        (np.random.default_rng(2).integers(0, 9, (30, 3)) / 8, None, 1 / 8),
    ], ids=["1d", "1d-two-clusters", "2d-short-axis", "2d-corners", "3d"])
    def test_field_matches_per_radius_loop(self, points, values, h):
        S = thin_set(points, h=h)
        f = np.random.default_rng(4).normal(size=len(points)) if values is None else values
        assert np.array_equal(
            sharp_maximal_field(S, f).values, reference_sharp_maximal_field(S, f)
        )

    @staticmethod
    def _box_set(points, bbox, h):
        return ClosedSet(dim=points.shape[1], h=h, points=points, bbox=np.array(bbox, float),
                         kind="thin")

    def test_crop_meets_one_edge_levels_before_the_other(self):
        # samples near the low end of a long x axis: the crop B + k reaches
        # its low edge by k = 32 and its high edge only at k = 128
        h = 1 / 16
        rng = np.random.default_rng(7)
        S = self._box_set(rng.uniform(0, 0.5, (40, 2)), [[-1, 6], [-1, 1.5]], h)
        f = rng.normal(size=len(S.points))
        nodes = np.round((S.points - S.bbox[:, 0]) / h).astype(int)
        shape = np.array(GridField.shape_for(S.bbox, h))
        assert nodes[:, 0].min() <= 32 and shape[0] - 1 - nodes[:, 0].max() > 64
        assert np.array_equal(sharp_maximal_field(S, f).values, reference_sharp_maximal_field(S, f))

    @pytest.mark.parametrize("point", [[0.3], [0.3, -0.2], [0.0, 0.0, 0.0]],
                             ids=["1d", "2d", "3d"])
    def test_one_sample_set(self, point):
        # one node box; every window holds one sample, so the field is 0
        S = thin_set(np.array([point]), h=1 / 16)
        got = sharp_maximal_field(S, [2.5]).values
        assert np.array_equal(got, reference_sharp_maximal_field(S, np.array([2.5])))
        assert not got.any()

    def test_crop_spans_one_axis_only(self):
        # at k = 8 the crop covers all 18 nodes of the y axis but only 33 of
        # the 65 nodes of the x axis; later levels grow it along x alone
        h = 1 / 8
        xs = np.arange(17) * h
        points = np.stack([np.concatenate([xs, xs]), np.repeat([0.0, -h], 17)], axis=1)
        S = self._box_set(points, [[-3, 5], [-1.125, 1]], h)
        assert GridField.shape_for(S.bbox, h) == (65, 18)
        f = np.random.default_rng(8).normal(size=len(points))
        assert np.array_equal(sharp_maximal_field(S, f).values, reference_sharp_maximal_field(S, f))

    def test_crop_in_3d(self):
        # a cluster off-centre in a 3-D box, with two samples on one node
        h = 1 / 8
        points = np.random.default_rng(9).integers(0, 4, (25, 3)) / 8
        S = self._box_set(points, [[-1, 3], [-1, 1.5], [-2.5, 1.375]], h)
        f = np.random.default_rng(10).normal(size=len(points))
        assert np.array_equal(sharp_maximal_field(S, f).values, reference_sharp_maximal_field(S, f))

    def test_l1_density_ratio_variant(self):
        pts = np.linspace(0, 1, 33)[:, None]
        S = thin_set(pts, h=1 / 32)
        f = pts[:, 0]
        val = sharp_maximal(S, f, [0.5], variant="l1_density_ratio")
        assert np.isfinite(val) and val > 0

    @pytest.mark.parametrize("variant", ["range_ratio", "l1_density_ratio"])
    @pytest.mark.parametrize("f", [np.zeros(3), None], ids=["three-values", "none"])
    def test_one_value_per_sample(self, f, variant):
        # 3 values on 65 samples used to raise IndexError, and None TypeError
        S = thin_set(np.linspace(0, 1, 65)[:, None], h=1 / 64)
        with pytest.raises(ConfigError, match=r"needs 65 values, got shape"):
            sharp_maximal(S, f, [0.5], variant=variant)

    def test_unknown_variant(self):
        S = thin_set(np.array([[0.0]]), h=0.25)
        with pytest.raises(ConfigError):
            sharp_maximal(S, [0.0], [0.0], variant="bogus")


class TestModulusOfSmoothness:
    def test_linear_sup_norm(self):
        box = np.array([[0.0, 1.0]])
        h = 1 / 32
        F = GridField.from_function(box, h, lambda x: x[..., 0])
        # largest admissible shift is 7 cells for t = 1/4
        assert modulus_of_smoothness(F, t=0.25, p=np.inf) == pytest.approx(7 * h)

    def test_linear_l2(self):
        box = np.array([[0.0, 1.0]])
        h = 1 / 32
        F = GridField.from_function(box, h, lambda x: x[..., 0])
        shift = 7 * h
        nodes = 33 - 7
        expected = np.sqrt(nodes * shift ** 2 * h)
        assert modulus_of_smoothness(F, t=0.25, p=2) == pytest.approx(expected)

    def test_below_cell_scale_is_zero(self):
        box = np.array([[0.0, 1.0]])
        F = GridField.from_function(box, 1 / 8, lambda x: x[..., 0])
        assert modulus_of_smoothness(F, t=1 / 8, p=2) == 0.0

    def test_constant_zero(self):
        box = np.array([[0.0, 1.0], [0.0, 1.0]])
        F = GridField.from_function(box, 1 / 8, lambda x: np.ones(x.shape[:-1]))
        assert modulus_of_smoothness(F, t=0.5, p=3) == 0.0


def reference_modulus_of_smoothness(F, t, p):
    """modulus_of_smoothness as first written: every scale walks its shifts
    again and each difference is a fresh array raised by diff ** p. Kept as
    the oracle for modulus_profile (valid while no shift outruns its axis)."""
    h = F.h
    k_max = int(np.ceil(t / h)) - 1
    if k_max < 1:
        return 0.0
    stride = max(1, int(np.ceil((2 * k_max + 1) / 33)))
    axis_vals = sorted(set(range(-k_max, k_max + 1, stride)) | {-k_max, 0, k_max})
    best = 0.0
    vals = F.values
    shape = vals.shape
    for shift in np.stack(
        np.meshgrid(*[axis_vals] * F.dim, indexing="ij"), axis=-1
    ).reshape(-1, F.dim):
        if not shift.any():
            continue
        first = shift[np.nonzero(shift)[0][0]]
        if first < 0:
            continue  # mirror shift covers the same pairs
        src = tuple(
            slice(max(0, int(s)), min(n, n + int(s))) for s, n in zip(shift, shape)
        )
        dst = tuple(
            slice(max(0, -int(s)), min(n, n - int(s))) for s, n in zip(shift, shape)
        )
        diff = np.abs(vals[src] - vals[dst])
        if np.isinf(p):
            norm = float(diff.max()) if diff.size else 0.0
        else:
            norm = float((np.sum(diff ** p) * h ** F.dim) ** (1.0 / p))
        best = max(best, norm)
    return best


# random fields with at least 19 nodes per axis, so that scales up to
# k_max = 18 (thinned to stride 2 from k_max = 17) keep every shift inside
# its axis
_MODULUS_FIELDS = {
    "line": lambda: GridField(
        np.array([[0.0, 1.0]]), 1 / 64, np.random.default_rng(21).standard_normal(65)
    ),
    "square": lambda: GridField(
        _UNIT_SQUARE, 1 / 64, np.random.default_rng(22).standard_normal((65, 65))
    ),
    "cube": lambda: GridField(
        np.array([[0.0, 1.125], [0.0, 1.1875], [0.0, 1.25]]),
        1 / 16,
        np.random.default_rng(23).standard_normal((19, 20, 21)) * 3.0,
    ),
}
_MODULUS_PS = [1, 2, 2.5, 3.0, np.inf]
_SMOOTH_FIELDS = {
    "linear": lambda x: x @ np.arange(1.0, x.shape[1] + 1),
    "cos": lambda x: np.cos(x @ np.arange(1.0, x.shape[1] + 1)),
    "quadratic": lambda x: np.sum(x ** 2, axis=1) - x[:, 0],
}


def _smooth_field(name, dim):
    """A smooth field on the unit cube: 129, 65^2 or 17^3 nodes."""
    h = {1: 1 / 128, 2: 1 / 64, 3: 1 / 16}[dim]
    box = np.array([[0.0, 1.0]] * dim)
    return GridField.from_function(box, h, _SMOOTH_FIELDS[name])


def _walked_shifts(F, ts) -> set:
    """The distinct shifts a ladder walks: per scale the thinned lattice,
    mirror shifts skipped."""
    shifts = set()
    for t in ts:
        k = int(np.ceil(t / F.h)) - 1
        stride = max(1, int(np.ceil((2 * k + 1) / 33)))
        axis = sorted(set(range(-k, k + 1, stride)) | {-k, 0, k}) if k >= 1 else []
        shifts |= {s for s in itertools.product(axis, repeat=F.dim)
                   if next((x for x in s if x), 0) > 0}
    return shifts


def _count_shift_norms(monkeypatch) -> list:
    """Record the shifts modulus_profile differences."""
    differenced = []
    shift_norm = oscillation._shift_norm

    def counting(vals, shift, *args):
        differenced.append(shift)
        return shift_norm(vals, shift, *args)

    monkeypatch.setattr(oscillation, "_shift_norm", counting)
    return differenced


class TestModulusProfile:
    """modulus_profile differences each shift once per ladder, in place; its
    moduli equal the per-scale walk's bit for bit."""

    @pytest.mark.parametrize("name", sorted(_MODULUS_FIELDS))
    @pytest.mark.parametrize("p", _MODULUS_PS)
    def test_matches_per_scale_reference(self, name, p):
        F = _MODULUS_FIELDS[name]()
        h = F.h
        # k_max < 1 (t <= h), stride 1 (k_max <= 16) and stride 2 (k_max = 17,
        # 18), out of order and with a repeated scale
        ladders = [[5 * h, h / 2, h, 1.5 * h, 2 * h, 5 * h, 3 * h]]
        if name != "cube":
            ladders += [[17 * h, 3 * h, 17 * h, h], [16.5 * h, 19 * h],
                        dyadic_ladder(2 * h, 0.5), [24 * h, 40 * h]]
        elif p == 2.5:  # the cube's shift count grows with k_max^3: one thinned scale
            ladders.append([17 * h, 3 * h])
        for ts in ladders:
            want = [reference_modulus_of_smoothness(F, t, p) for t in ts]
            assert modulus_profile(F, ts, p).tolist() == want
            assert [modulus_of_smoothness(F, t, p) for t in ts] == want

    @pytest.mark.parametrize("p", [2, 3.0])
    def test_besov_moduli_match_reference(self, p):
        box = np.array([[0.0, 1.0], [0.0, 0.75]])
        F = GridField.from_function(box, 1 / 64, lambda x: np.cos(x[:, 0] + 2 * x[:, 1]))
        value, info = grid_besov_norm(F, 0.5, p, 3, details=True)
        want = [reference_modulus_of_smoothness(F, t, p) for t in info["ts"]]
        assert info["gs"].tolist() == want
        assert value == grid_besov_norm(F, 0.5, p, 3)

    def test_shift_past_axis_has_no_pairs(self):
        # 9 nodes: shifts of 9 or more nodes pair no node with another
        F = GridField(np.array([[0.0, 1.0]]), 1 / 8, np.random.default_rng(5).standard_normal(9))
        whole = modulus_of_smoothness(F, 9 / 8, 2.0)  # k_max = 8: every shift with a pair
        for t in (1.5, 2.0, 2.5, 3.0):  # k_max 11, 15, 19, 23
            assert modulus_of_smoothness(F, t, 2.0) == whole
        # a box much wider than tall: the ladder's long shifts outrun the
        # short axis
        G = GridField(
            np.array([[0.0, 1.0], [0.0, 0.25]]),
            1 / 32,
            np.random.default_rng(6).standard_normal((33, 9)),
        )
        _, info = grid_besov_norm(G, 0.5, 2.0, 2.0, details=True)
        assert np.all(np.isfinite(info["gs"])) and info["gs"][-1] > 0

    @pytest.mark.parametrize("name", sorted(_SMOOTH_FIELDS))
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("p", _MODULUS_PS + [0.5])
    def test_certified_profile_matches_reference(self, name, dim, p, monkeypatch):
        # smooth fields, where the bound rules out most shifts
        F = _smooth_field(name, dim)
        ts = dyadic_ladder(2 * F.h, 0.5)
        differenced = _count_shift_norms(monkeypatch)
        want = [reference_modulus_of_smoothness(F, t, p) for t in ts]
        assert modulus_profile(F, ts, p).tolist() == want
        if dim > 1 or name == "linear":
            # in 1-D the bound of a curved field rules out only shifts under
            # half the largest, which the smaller scales differenced already
            assert 0 < len(differenced) < len(_walked_shifts(F, ts))

    @pytest.mark.parametrize("kind", ["nan", "inf", "huge"])
    def test_certificate_falls_back_on_non_finite(self, kind):
        F = _smooth_field("cos", 2)
        if kind == "huge":
            # (|s| L)^3 pairs cell overflows, and so does every difference
            # norm: each modulus is inf
            F.values *= 1e120
        else:
            F.values[10, 20] = float(kind)
        ts = dyadic_ladder(2 * F.h, 0.5)
        with np.errstate(over="ignore", invalid="ignore"):
            want = [reference_modulus_of_smoothness(F, t, 3.0) for t in ts]
            got = modulus_profile(F, ts, 3.0).tolist()
        assert got == want
        if kind != "nan":
            assert got == [np.inf] * len(ts)

    def test_linear_profile_differences_few_shifts(self, monkeypatch):
        # the 257^2 linear field of the grid-fields benchmark: 1,782 shifts
        # to walk
        F = GridField.from_function(_UNIT_SQUARE, 1 / 256, lambda x: x @ [1.0, 2.0])
        differenced = _count_shift_norms(monkeypatch)
        ts = dyadic_ladder(2 * F.h, 0.5)
        gs = modulus_profile(F, ts, 3.0)
        assert np.all(gs > 0)
        assert len(_walked_shifts(F, ts)) > 1700
        assert len(differenced) < 50

    @pytest.mark.parametrize("p", [0, -1.0, np.nan, -np.inf])
    def test_rejects_bad_p(self, p):
        F = _MODULUS_FIELDS["line"]()
        with pytest.raises(ConfigError):
            modulus_of_smoothness(F, 0.5, p)
        with pytest.raises(ConfigError):
            modulus_profile(F, [0.25, 0.5], p)

    @pytest.mark.parametrize("t", [0.0, -0.25, np.inf, -np.inf, np.nan])
    def test_rejects_bad_t(self, t):
        F = _MODULUS_FIELDS["line"]()
        with pytest.raises(ConfigError):
            modulus_of_smoothness(F, t, 2.0)
        with pytest.raises(ConfigError):
            modulus_profile(F, [0.25, t, 0.5], 2.0)
