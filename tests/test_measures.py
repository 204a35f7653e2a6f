"""Discrete measures, diagnostics, and the measure-weighted functionals."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sobtrace.canonical import CANONICAL_NAMES, CanonicalSpec, generate_canonical
from sobtrace.canonical import test_function_family as function_family
from sobtrace.grid import GridField
from sobtrace.measures import (
    A_p_mu,
    _pair_rows,
    DiscreteMeasure,
    ap_mu_options,
    arc_length_measure,
    averaged_modulus_w1,
    besov_trace_functional_jonsson,
    cell_area_measure,
    counting_measure,
    distance_pair_energy,
    dset_besov_norm,
    local_pair_energy,
    measure_diagnostics,
    mu_oscillation,
    quasidistance_pair_energy,
    tilde_osc,
)
from sobtrace.oscillation import (
    PackingProblem,
    _thin_candidates,
    cube_oscillations,
    modulus_of_smoothness,
    packing_functional_details,
)
from sobtrace.sets import solid_set, thin_set
from sobtrace.util import ConfigError, OutOfDomainError, chebyshev
from test_oscillation import brute_force_packing, reference_packing_table


def two_point_measure():
    return DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))


def segment_measure(m=65):
    pts = np.linspace(0, 1, m)[:, None]
    return arc_length_measure(pts, h=1 / (m - 1)), pts[:, 0]


class TestDiscreteMeasure:
    def test_cube_mass_additive_and_monotone(self):
        mu, _ = segment_measure()
        left = mu.ball_mass([0.2], 0.199999)[0]
        right = mu.ball_mass([0.7], 0.299999)[0]
        both = mu.ball_mass([0.5], 0.6)[0]
        assert left + right <= both + 1e-12
        assert mu.ball_mass([0.5], 0.1)[0] <= mu.ball_mass([0.5], 0.3)[0]

    def test_total_arc_length(self):
        mu, _ = segment_measure()
        assert mu.total == pytest.approx(1.0)

    def test_ball_mass_batch(self):
        mu = two_point_measure()
        masses = mu.ball_mass(np.array([[0.0], [0.5], [2.0]]), [0.1, 0.5, 0.1])
        assert list(masses) == [0.5, 1.0, 0.0]

    def test_lp_norm(self):
        mu = two_point_measure()
        assert mu.lp_norm([1.0, 1.0], 3) == pytest.approx(1.0)
        assert mu.lp_norm([0.0, 2.0], 2) == pytest.approx(np.sqrt(2.0))
        assert mu.lp_norm([-3.0, 1.0], np.inf) == 3.0

    def test_negative_weights_rejected(self):
        with pytest.raises(ConfigError):
            DiscreteMeasure(np.array([[0.0]]), np.array([-1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(ConfigError):
            DiscreteMeasure(np.array([[0.0], [bad]]), np.array([1.0, 1.0]))
        with pytest.raises(ConfigError):
            DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([1.0, bad]))

    def test_json_round_trip(self, tmp_path):
        mu, _ = segment_measure(9)
        path = tmp_path / "mu.json"
        mu.save(path)
        back = DiscreteMeasure.load(path)
        assert np.array_equal(back.points, mu.points)
        assert np.array_equal(back.weights, mu.weights)

    def test_cell_area_requires_solid(self):
        S = thin_set(np.array([[0.0], [1.0]]), h=0.5)
        with pytest.raises(ConfigError):
            cell_area_measure(S)


class TestDiagnostics:
    def test_solid_square_lebesgue(self):
        occ = np.ones((128, 128), bool)
        S = solid_set(occ, h=1 / 128, origin=np.zeros(2))
        mu = cell_area_measure(S)
        diag = measure_diagnostics(mu, seed=1)
        # doubling of area in the plane is 4 up to cell-boundary effects
        assert 2.5 <= diag.doubling_constant <= 5.0
        assert diag.dn_constant <= 2.5
        assert diag.dset_exponent == pytest.approx(2.0, abs=0.25)

    def test_segment_arc_length_d_fit(self):
        mu, _ = segment_measure(257)
        diag = measure_diagnostics(mu, seed=2)
        assert diag.dset_exponent == pytest.approx(1.0, abs=0.2)
        assert diag.exponent_drift <= 0.4
        assert diag.degenerate_cubes == 0

    def test_each_radius_queried_once(self, monkeypatch):
        # the doubling and growth ratios share their grown radii, and the
        # ladder holds some of them
        mu, _ = segment_measure(257)
        radii, ball_mass = [], mu.ball_mass
        monkeypatch.setattr(mu, "ball_mass", lambda x, r: radii.append(float(r)) or ball_mass(x, r))
        measure_diagnostics(mu, seed=2)
        assert 1.0 in radii and len(radii) == len(set(radii))

    def test_unit_mass_envelope(self):
        mu, _ = segment_measure()
        diag = measure_diagnostics(mu)
        assert 0 < diag.unit_mass_low <= diag.unit_mass_high <= 2.0


class TestMuOscillation:
    def test_constant_zero(self):
        mu = two_point_measure()
        assert mu_oscillation(mu, [5.0, 5.0], (0.5,), 1.0, 2) == 0.0

    def test_two_point_q1_hand_value(self):
        mu = two_point_measure()
        # (1/mass^2) * 2 * (1/4) * |1 - 0| = 1/2
        assert mu_oscillation(mu, [0.0, 1.0], (0.5,), 1.0, 1) == pytest.approx(0.5)

    def test_q_inf_is_oscillation(self):
        mu = two_point_measure()
        assert mu_oscillation(mu, [0.0, 1.0], (0.5,), 1.0, np.inf) == 1.0

    def test_empty_cube_counts_event(self):
        mu = two_point_measure()
        before = mu.zero_mass_events
        assert mu_oscillation(mu, [0.0, 1.0], (5.0,), 0.1, 2) == 0.0
        assert mu.zero_mass_events == before + 1


class TestTildeOsc:
    def test_constant_zero(self):
        mu = two_point_measure()
        assert tilde_osc(mu, [3.0, 3.0], (0.0,), 1.5, 0.1) == 0.0

    def test_single_mass_away_from_center(self):
        mu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
        # center value f(0) = 0, all mass at value 2
        assert tilde_osc(mu, [0.0, 2.0], (0.0,), 1.5, 0.1) == pytest.approx(2.0)

    def test_uniform_two_point(self):
        mu = two_point_measure()
        assert tilde_osc(mu, [0.0, 1.0], (0.0,), 1.5, 0.1) == pytest.approx(0.5)

    def test_center_off_support(self):
        mu = two_point_measure()
        with pytest.raises(OutOfDomainError):
            tilde_osc(mu, [0.0, 1.0], (0.4,), 1.0, 0.05)


def reference_restrict(mu, center, radius):
    """Sorted indices of the atoms in the closed cube Q(center, radius), one
    ball query per cube."""
    idx = mu.tree.query_ball_point(np.asarray(center, float), radius, p=np.inf)
    return np.sort(np.array(idx, int))


def reference_mu_oscillation(mu, f_vals, center, radius, q):
    """mu_oscillation of one cube, as it was before it took batches."""
    idx = reference_restrict(mu, center, radius)
    w = mu.weights[idx]
    mass = w.sum()
    if mass <= 0:
        mu.zero_mass_events += 1
        return 0.0
    v = np.asarray(f_vals, float)[idx]
    if np.isinf(q):
        live = v[w > 0]
        return float(live.max() - live.min()) if live.size else 0.0
    diff = np.abs(v[:, None] - v[None, :]) ** q
    return float((np.einsum("i,j,ij->", w, w, diff) / mass ** 2) ** (1.0 / q))


def reference_tilde_osc(mu, f_vals, center, radius, center_tol):
    """tilde_osc of one cube, as it was before it took batches."""
    center = np.asarray(center, float)
    d, j = mu.tree.query(center, k=1, p=np.inf)
    if d > center_tol:
        raise OutOfDomainError(
            f"cube center {center} is {d:.3g} from the support, tol {center_tol:.3g}"
        )
    idx = reference_restrict(mu, center, radius)
    w = mu.weights[idx]
    mass = w.sum()
    if mass <= 0:
        mu.zero_mass_events += 1
        return 0.0
    v = np.asarray(f_vals, float)[idx]
    f_center = float(np.asarray(f_vals, float)[j])
    return float(np.sum(w * np.abs(v - f_center)) / mass)


def reference_ap_mu_score(S, mu, f_vals, p, q, variant):
    """The per-cube score_fn(center, radius) of ap_mu_options."""
    def score(center, radius):
        if variant == "center":
            val = reference_tilde_osc(mu, f_vals, center, radius, S.h / 2)
        else:
            val = reference_mu_oscillation(mu, f_vals, center, radius, q)
        return (2.0 * radius) ** S.dim * val ** p
    return score


_CATALOG = {
    name: generate_canonical(CanonicalSpec(name, 1 / 32)) for name in CANONICAL_NAMES
}


def _holed(mu, seed=3):
    """mu with about a third of its atoms at weight 0, so that some cubes
    hold atoms but no mass."""
    rng = np.random.default_rng(seed)
    return DiscreteMeasure(mu.points, np.where(rng.random(len(mu.points)) < 0.35, 0.0, mu.weights))


def _zero_mass_delta(mu, fn):
    before = mu.zero_mass_events
    out = fn()
    return out, mu.zero_mass_events - before


class TestBatchedCubeScores:
    """mu_oscillation and tilde_osc over a batch of cubes, one ball query,
    against the one-cube references: the same floats and the same count of
    mass-zero cubes."""

    @pytest.mark.parametrize("name", CANONICAL_NAMES)
    @pytest.mark.parametrize("q", [1, 2, 3.0, np.inf])
    def test_mu_oscillation_matches_per_cube(self, name, q):
        S, base = _CATALOG[name]
        f = function_family("restrictions-of-smooth", S)[5].values
        # set and boundary samples, and three cubes far from the support
        centers = np.concatenate([S.points[::len(S.points) // 100 + 1], S.boundary().points,
                                  np.full((3, S.dim), 9.0)])
        for mu in (base, _holed(base)):
            for radius in (S.h / 4, S.h, 0.1, 0.3):
                want, n_want = _zero_mass_delta(
                    mu, lambda: [reference_mu_oscillation(mu, f, c, radius, q) for c in centers])
                got, n_got = _zero_mass_delta(mu, lambda: mu_oscillation(mu, f, centers, radius, q))
                assert got.tolist() == want
                assert n_got == n_want >= 3
                one = mu_oscillation(mu, f, centers[1], radius, q)
                assert type(one) is float and one == want[1]

    @pytest.mark.parametrize("name", CANONICAL_NAMES)
    def test_tilde_osc_matches_per_cube(self, name):
        S, base = _CATALOG[name]
        f = function_family("restrictions-of-smooth", S)[5].values
        centers = np.concatenate([S.points[::len(S.points) // 100 + 1], S.boundary().points])
        zero_mass = 0
        for mu in (base, _holed(base)):
            for radius in (S.h / 4, S.h, 0.1, 0.3):
                want, n_want = _zero_mass_delta(
                    mu, lambda: [reference_tilde_osc(mu, f, c, radius, S.h / 2) for c in centers])
                got, n_got = _zero_mass_delta(mu, lambda: tilde_osc(mu, f, centers, radius, S.h / 2))
                assert got.tolist() == want
                assert n_got == n_want
                zero_mass += n_got
                one = tilde_osc(mu, f, centers[1], radius, S.h / 2)
                assert type(one) is float and one == want[1]
        assert zero_mass > 0  # the holed measure has mass-zero cubes

    def test_tilde_osc_checks_every_center_first(self):
        S, base = _CATALOG["segment-1d-in-2d"]
        mu = DiscreteMeasure(base.points, np.zeros(len(base.points)))
        f = function_family("restrictions-of-smooth", S)[5].values
        centers = mu.points[:6].copy()
        centers[2] += 0.3
        centers[4] += 0.5
        with pytest.raises(OutOfDomainError) as want:
            reference_tilde_osc(mu, f, centers[2], 0.1, S.h / 2)
        with pytest.raises(OutOfDomainError) as got:
            tilde_osc(mu, f, centers, 0.1, S.h / 2)
        # the third center is named, and no cube was scored before the check
        assert str(got.value) == str(want.value)
        assert mu.zero_mass_events == 0

    @pytest.mark.parametrize("name", CANONICAL_NAMES)
    def test_ap_mu_packings_match_per_candidate_loop(self, name):
        S, mu = _CATALOG[name]
        f = function_family("restrictions-of-smooth", S)[5].values
        p = 3.0
        for kw in (dict(q=2.0), dict(q=3.0, alpha=1 / 15),
                   dict(q=2.0, alpha=0.1, variant="center"), dict(q=np.inf)):
            opts = ap_mu_options(S, mu, f, p, **kw)
            ref = dict(opts, score_fn=reference_ap_mu_score(S, mu, f, p, kw["q"],
                                                            kw.get("variant", "pair")))
            for t in (0.25, 4 * S.h):
                taus = (t, t / 2, t / 4, t / 8)
                table, n_want = _zero_mass_delta(
                    mu, lambda: reference_packing_table(S, f, [t], p, **ref))
                got, n_got = _zero_mass_delta(
                    mu, lambda: packing_functional_details(S, f, t, p, **opts)["per_tau"])
                assert got == [(tau, *table[tau]) for tau in taus]
                assert n_got == n_want


class TestAPMu:
    def test_constant_zero(self):
        S = thin_set(np.array([[0.0], [1.0]]), h=0.25)
        mu = counting_measure(S, normalized=True)
        assert A_p_mu(S, mu, [2.0, 2.0], t=2.0, p=2, q=2)["value"] == 0.0

    def test_majorized_by_plain_packing(self):
        # score-wise domination carries to the packing optimum over the
        # same candidate cubes, found by trying every subset
        pts = np.array([[0.0], [0.3], [0.7], [1.0]])
        S = thin_set(pts, h=0.1)
        mu = counting_measure(S, normalized=True)
        f = np.array([0.0, 1.0, 0.2, 0.8])

        def plain(cand, radius):
            return (2 * radius) * cube_oscillations(S.tree, f, cand, radius + 1e-12) ** 2

        weighted = ap_mu_options(S, mu, f, 2, q=2)["score_fn"]

        def exact_optimum(score_fn, t):
            best = 0.0
            for tau in (t, t / 2, t / 4, t / 8):
                cand = S.points[_thin_candidates(S.points, tau)]
                radii = np.full(len(cand), tau / 2)
                scores = np.array(score_fn(cand, tau / 2), float)
                best = max(best, brute_force_packing(PackingProblem(cand, radii, scores)))
            return best

        for t in (0.5, 1.0, 2.0):
            # plain is the default score of the production packing
            assert (packing_functional_details(S, f, t, 2, score_fn=plain)
                    == packing_functional_details(S, f, t, 2))
            assert exact_optimum(weighted, t) <= exact_optimum(plain, t) + 1e-12

    def test_q_inf_matches_plain(self):
        pts = np.array([[0.0], [0.5], [1.0]])
        S = thin_set(pts, h=0.25)
        mu = counting_measure(S)
        f = np.array([0.0, 2.0, 1.0])
        got = A_p_mu(S, mu, f, t=1.0, p=2, q=np.inf)["value"]
        want = packing_functional_details(S, f, t=1.0, p=2)["value"]
        assert got == pytest.approx(want)

    def test_mass_growth_bound(self):
        # packing sums stay controlled by the L_p(mu) norm across t
        mu, x = segment_measure(65)
        S = thin_set(mu.points, h=1 / 64)
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(3):
            f = rng.normal(size=65)
            base = mu.lp_norm(f, 2)
            for t in (0.25, 1.0, 2.0):
                val = A_p_mu(S, mu, f, t, 2, q=2)["value"]
                worst = max(worst, val / ((1 + t ** 0.5) * base))
        assert worst <= 100.0

    def test_center_variant_requires_alpha(self):
        S = thin_set(np.array([[0.0], [1.0]]), h=0.25)
        mu = counting_measure(S)
        with pytest.raises(ConfigError):
            A_p_mu(S, mu, [0.0, 1.0], t=1.0, p=2, q=2, variant="center")

    def test_center_variant_runs_on_porous_set(self):
        pts = np.linspace(0, 1, 33)[:, None]
        pts = np.hstack([pts, np.zeros_like(pts)])  # flat segment in the plane
        S = thin_set(pts, h=1 / 32)
        mu = arc_length_measure(pts, h=1 / 32)
        f = pts[:, 0] ** 2
        val = A_p_mu(S, mu, f, t=0.25, p=3, q=3, alpha=0.1, variant="center")["value"]
        assert np.isfinite(val) and val >= 0


def reference_local_pair_energy(mu, f_vals, t, p, kernel):
    """local_pair_energy as two ball queries: ball_mass first, then the
    same balls again in chunks of 512 rows."""
    f_vals = np.asarray(f_vals, float)
    pts, w = mu.points, mu.weights
    masses = mu.ball_mass(pts, t)
    total = 0.0
    for lo in range(0, len(pts), 512):
        hi = min(lo + 512, len(pts))
        groups = mu.tree.query_ball_point(pts[lo:hi], t, p=np.inf)
        for i, g in zip(range(lo, hi), groups):
            g = np.array(g, int)
            d = chebyshev(pts[g], pts[i])
            g = g[d < t]
            if len(g) == 0 or masses[i] <= 0:
                continue
            num = w[i] * w[g] * np.abs(f_vals[i] - f_vals[g]) ** p
            if kernel == "square":
                total += float(num.sum()) / masses[i] ** 2
            else:
                total += float(np.sum(num / (masses[i] * masses[g])))
    return total * t ** (mu.dim - p)


def reference_distance_pair_energy(mu, f_vals, eps, p):
    """distance_pair_energy over full rows: each atom against all atoms."""
    f_vals = np.asarray(f_vals, float)
    pts, w = mu.points, mu.weights
    n = mu.dim
    total = 0.0
    for i in range(len(pts)):
        d = chebyshev(pts, pts[i])
        order = np.argsort(d, kind="stable")
        d_sorted = d[order]
        prefix = np.cumsum(w[order])
        sel = np.nonzero((d > 0) & (d < eps))[0]
        if len(sel) == 0:
            continue
        mass = prefix[np.searchsorted(d_sorted, d[sel], side="right") - 1]
        ok = mass > 0
        sel, mass = sel[ok], mass[ok]
        num = w[i] * w[sel] * np.abs(f_vals[i] - f_vals[sel]) ** p
        total += float(np.sum(num * d[sel] ** (n - p) / mass ** 2))
    return total


def reference_dset_besov_norm(mu, f_vals, s, p, d):
    """dset_besov_norm over full rows: each atom against all atoms."""
    f_vals = np.asarray(f_vals, float)
    pts, w = mu.points, mu.weights
    total = 0.0
    for i in range(len(pts)):
        dist = chebyshev(pts, pts[i])
        sel = np.nonzero((dist > 0) & (dist < 1.0))[0]
        if len(sel) == 0:
            continue
        num = w[i] * w[sel] * np.abs(f_vals[i] - f_vals[sel]) ** p
        total += float(np.sum(num / dist[sel] ** (d + s * p)))
    return mu.lp_norm(f_vals, p) + total ** (1.0 / p)


def reference_close_pairs(mu, eps):
    """(k, 2) index pairs i < j of atoms closer than eps from one flattened
    ball query, ordered by i, then by j."""
    pts = mu.points
    own = mu.tree.query_ball_point(pts, eps, p=np.inf)
    sizes = np.fromiter(map(len, own), int, len(own))
    first = np.repeat(np.arange(len(own)), sizes)
    second = np.fromiter(itertools.chain.from_iterable(own), int, int(sizes.sum()))
    keep = first < second
    first, second = first[keep], second[keep]
    keep = chebyshev(pts[first], pts[second]) < eps
    return np.stack([first[keep], second[keep]], axis=1)


def _with_far_atom(name):
    """The catalog measure and one more atom, of weight 0 and isolated, whose
    ball holds no mass at any scale below 1; and random values on it."""
    base = _CATALOG[name][1]
    far = base.points.max(axis=0) + 1.0
    mu = DiscreteMeasure(np.vstack([base.points, far]), np.append(base.weights, 0.0))
    return mu, np.random.default_rng(8).normal(size=len(mu.points))


class TestPairEnergies:
    @pytest.mark.parametrize("kernel", ["square", "product"])
    @pytest.mark.parametrize("name", ["segment-1d-in-2d", "example-726", "solid-disk", "cantor-1d"])
    def test_local_one_ball_query_matches_two_query_loop(self, name, kernel):
        mu, f = _with_far_atom(name)
        far = mu.points[-1]
        for t in (1 / 64, 1 / 16, 1 / 4):
            assert mu.ball_mass(far, t)[0] == 0.0
            got = local_pair_energy(mu, f, t, 3.0, kernel=kernel)
            assert got == reference_local_pair_energy(mu, f, t, 3.0, kernel), t

    @pytest.mark.parametrize("name", ["segment-1d-in-2d", "example-726", "solid-disk", "cantor-1d"])
    def test_pair_sums_match_full_rows(self, name):
        mu, f = _with_far_atom(name)
        for eps in (1 / 64, 1 / 16, 1 / 4, 2.0):
            assert distance_pair_energy(mu, f, eps, 3.0) == \
                reference_distance_pair_energy(mu, f, eps, 3.0), eps
            want = reference_close_pairs(mu, eps)
            got = [(i, j) for i, js, d in _pair_rows(mu, eps) for j in js[(js > i) & (d < eps)]]
            assert got == [tuple(ij) for ij in want.tolist()], eps
        assert dset_besov_norm(mu, f, 0.6, 3.0, 1.0) == reference_dset_besov_norm(mu, f, 0.6, 3.0, 1.0)

    @pytest.mark.parametrize("eps", [0.0625, 2.0])
    def test_quasidistance_candidates_are_the_close_pairs(self, eps):
        S, mu = _CATALOG["example-726"]
        got = quasidistance_pair_energy(S, mu, mu.points[:, 0], eps, 3.0, pair_budget=100)
        assert got["candidate_pairs"] == len(reference_close_pairs(mu, eps))

    def test_empty_measure_has_no_pairs(self):
        mu = DiscreteMeasure(np.zeros((0, 2)), np.zeros(0))
        S = thin_set(np.array([[0.0, 0.0], [1.0, 0.0]]), h=1.0)
        assert list(_pair_rows(mu, 0.5)) == []
        assert local_pair_energy(mu, [], 0.5, 3.0) == distance_pair_energy(mu, [], 0.5, 3.0) == 0.0
        assert dset_besov_norm(mu, [], 0.5, 3.0, 1.0) == 0.0
        assert quasidistance_pair_energy(S, mu, [], 0.5, 3.0)["candidate_pairs"] == 0

    @pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
    def test_non_finite_scale_refused(self, t):
        _, mu = _CATALOG["segment-1d-in-2d"]
        f = mu.points[:, 0]
        for p in (1.0, 3.0):
            with pytest.raises(ConfigError, match="finite t > 0"):
                local_pair_energy(mu, f, t, p)
        with pytest.raises(ConfigError, match="finite t > 0"):
            averaged_modulus_w1(mu, f, t, 3.0)

    def test_product_kernel_skips_zero_mass_partners(self):
        # the ball around 0.2 holds no mass, and its atom sits within t of
        # the atom at 0.1, whose ball does: the product kernel's partner
        # mass is 0 where the pair's weight is 0, so the pair adds nothing
        mu = DiscreteMeasure(np.array([[0.0], [0.1], [0.2]]), np.array([1.0, 0.0, 0.0]))
        assert mu.ball_mass(mu.points, 0.15).tolist() == [1.0, 1.0, 0.0]
        for kernel in ("square", "product"):
            assert local_pair_energy(mu, [0.0, 1.0, 2.0], 0.15, p=2, kernel=kernel) == 0.0

    def test_local_two_point_hand_value(self):
        mu = two_point_measure()
        # both ordered pairs: 2 * (1/4) * 1 * t^(1-2), masses are 1
        t = 2.0
        got = local_pair_energy(mu, [0.0, 1.0], t, p=2)
        assert got == pytest.approx(2 * 0.25 / t)

    def test_local_below_separation_zero(self):
        mu = two_point_measure()
        assert local_pair_energy(mu, [0.0, 1.0], 0.5, p=2) == 0.0

    def test_product_vs_square_on_symmetric_data(self):
        # equal masses at scale t make the two kernels agree
        mu, x = segment_measure(33)
        f = np.sin(3 * x)
        sq = local_pair_energy(mu, f, 0.25, p=3, kernel="square")
        pr = local_pair_energy(mu, f, 0.25, p=3, kernel="product")
        assert sq == pytest.approx(pr, rel=0.15)

    def test_strict_threshold(self):
        mu = two_point_measure()
        # pairs at distance exactly t are excluded
        assert local_pair_energy(mu, [0.0, 1.0], 1.0, p=2) == 0.0

    def test_distance_energy_two_point(self):
        mu = two_point_measure()
        # the single unordered pair at distance 1: both orders, mass(Q) = 1
        got = distance_pair_energy(mu, [0.0, 1.0], eps=2.0, p=2)
        assert got == pytest.approx(2 * 0.25 * 1.0)

    def test_distance_energy_excludes_far_pairs(self):
        mu = two_point_measure()
        assert distance_pair_energy(mu, [0.0, 1.0], eps=1.0, p=2) == 0.0

    def test_prop_sandwich_on_segment(self):
        # packing functional at t/4 and 4t bracket the fixed-scale energy
        mu, x = segment_measure(65)
        S = thin_set(mu.points, h=1 / 64)
        f = x ** 2
        p = 3
        for t in (1 / 8, 1 / 4):
            mid = t ** p * local_pair_energy(mu, f, t, p, kernel="square")
            lo = A_p_mu(S, mu, f, t / 4, p, q=p)["value"] ** p
            hi = A_p_mu(S, mu, f, 4 * t, p, q=p)["value"] ** p
            assert lo <= 1e4 * mid
            assert mid <= 1e4 * hi

    def test_quasidistance_energy_interior_pairs_vanish(self):
        occ = np.ones((16, 16), bool)
        S = solid_set(occ, h=1 / 16, origin=np.zeros(2))
        inner = S.points[
            np.all(np.abs(S.points - 0.5) < 0.2, axis=1)
        ]
        mu = DiscreteMeasure(inner, np.full(len(inner), 1.0 / len(inner)))
        f = inner[:, 0]
        assert quasidistance_pair_energy(S, mu, f, eps=0.1, p=3)["value"] == 0.0

    def test_quasidistance_vs_distance_bounded_ratio(self):
        pts = np.linspace(0, 1, 33)[:, None]
        pts = np.hstack([pts, np.zeros_like(pts)])
        S = thin_set(pts, h=1 / 32)
        mu = arc_length_measure(pts, h=1 / 32)
        f = np.sin(2 * pts[:, 0])
        p, eps = 3, 0.25
        qd = quasidistance_pair_energy(S, mu, f, eps=eps, p=p)
        dd = distance_pair_energy(mu, f, eps=eps, p=p)
        assert qd["exact"] or qd["evaluated_pairs"] >= 1000
        ratio = qd["value"] / dd
        # the quasidistance is within [d, 4d + resolution slack]
        slack = 16.0
        assert 4.0 ** (2 - p) / slack <= ratio <= 4.0 ** (p - 2) * slack

    def test_quasidistance_budget_sampling(self):
        pts = np.linspace(0, 1, 65)[:, None]
        pts = np.hstack([pts, np.zeros_like(pts)])
        S = thin_set(pts, h=1 / 64)
        mu = arc_length_measure(pts, h=1 / 64)
        f = pts[:, 0] ** 2
        full = quasidistance_pair_energy(S, mu, f, eps=0.1, p=3, pair_budget=10 ** 6)
        est = quasidistance_pair_energy(S, mu, f, eps=0.1, p=3, pair_budget=150, seed=3)
        assert not est["exact"]
        assert est["value"] == pytest.approx(full["value"], rel=0.6)

    @pytest.mark.parametrize("eps", [0.0, 1 / 16, 0.3, 5.0])
    def test_pair_rows_match_brute_force(self, eps):
        # duplicate atoms, a lattice with many pairs at exactly eps, a random
        # cloud, the same atoms shuffled, and a single atom
        rng = np.random.default_rng(4)
        grid_pts = np.stack(np.meshgrid(*[np.arange(6) / 16] * 2, indexing="ij"), -1)
        pts = np.vstack([grid_pts.reshape(-1, 2), rng.uniform(0, 0.5, (30, 2)), [[0.0, 0.0]]])
        for cloud in (pts, pts[rng.permutation(len(pts))], pts[:1]):
            mu = DiscreteMeasure(cloud, np.full(len(cloud), 1.0 / len(cloud)))
            rows = list(_pair_rows(mu, eps))
            assert [i for i, _, _ in rows] == list(range(len(cloud)))
            for i, js, d in rows:
                want = [j for j in range(len(cloud)) if chebyshev(cloud[i], cloud[j]) <= eps]
                assert js.tolist() == want
                assert d.tolist() == [chebyshev(cloud[i], cloud[j]) for j in want]


class TestBesovScale:
    def test_zero_function(self):
        mu, _ = segment_measure(33)
        assert besov_trace_functional_jonsson(mu, np.zeros(33), 0.5, 3, 3, 1 / 8) == 0.0

    def test_constant_function(self):
        mu, _ = segment_measure(33)
        got = besov_trace_functional_jonsson(mu, np.ones(33), 0.5, 3, 3, 1 / 8)
        assert got == pytest.approx(mu.total ** (1 / 3))

    def test_s_range_guard(self):
        mu, _ = segment_measure(33)
        with pytest.raises(ConfigError):
            besov_trace_functional_jonsson(mu, np.ones(33), 1.5, 3, 3, 1 / 8)
        with pytest.raises(ConfigError):
            besov_trace_functional_jonsson(mu, np.ones(33), 0.5, np.inf, 3, 1 / 8)

    def test_dyadic_vs_direct_on_segment(self):
        mu, x = segment_measure(129)
        f = np.abs(x - 0.4) ** 0.7
        s, p = 0.6, 3.0
        dyadic = besov_trace_functional_jonsson(mu, f, s, p, p, 1 / 64)
        direct = dset_besov_norm(mu, f, s, p, d=1.0)
        assert 1 / 50 <= dyadic / direct <= 50


class TestAveragedModulus:
    def test_constant_zero(self):
        mu, _ = segment_measure(33)
        assert averaged_modulus_w1(mu, np.ones(33), 0.5, 3) == 0.0

    def test_two_point_jump_across_separation(self):
        mu = two_point_measure()
        f = [0.0, 1.0]
        assert averaged_modulus_w1(mu, f, 0.5, 2) == 0.0
        assert averaged_modulus_w1(mu, f, 2.0, 2) == pytest.approx(1.0)

    def test_comparable_to_grid_modulus(self):
        occ = np.ones((32, 32), bool)
        S = solid_set(occ, h=1 / 32, origin=np.zeros(2))
        mu = cell_area_measure(S)
        f = S.points[:, 0] ** 2 + S.points[:, 1]
        F = GridField(
            np.stack([S.points.min(0) , S.points.max(0)], axis=1),
            S.h,
            (S.points[:, 0] ** 2 + S.points[:, 1]).reshape(32, 32),
        )
        t, p = 0.25, 3.0
        w1 = averaged_modulus_w1(mu, f, t, p)
        om = modulus_of_smoothness(F, t, p)
        assert om / 60 <= w1 <= 60 * om


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-3, 3), min_size=2, max_size=12),
    st.sampled_from([1.0, 2.0, 3.5]),
)
def test_mu_oscillation_symmetric_and_zero_iff_constant(vals, q):
    m = len(vals)
    mu = DiscreteMeasure(np.arange(m)[:, None] / m, np.full(m, 1.0 / m))
    osc = mu_oscillation(mu, vals, (0.5,), 2.0, q)
    assert osc >= 0
    if len(set(vals)) == 1:
        assert osc == 0.0
    rev = mu_oscillation(mu, vals[::-1], (0.5,), 2.0, q)
    assert osc == pytest.approx(rev, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("count", ["one", "longer"])
@pytest.mark.parametrize("entry", [
    "lp_norm", "mu_oscillation", "tilde_osc", "ap_mu_options", "local_pair_energy",
    "distance_pair_energy", "quasidistance_pair_energy", "dset_besov_norm",
    "besov_trace_functional_jonsson",
])
def test_one_value_per_atom(entry, count):
    # values read against a measure hold one per atom: a 1-value array is
    # not broadcast and a longer one (a function on a finer set) is not read
    # by its prefix
    mu, x = segment_measure(17)
    S = thin_set(x[:, None], h=1 / 16)
    f = np.zeros(1 if count == "one" else 33)
    calls = {
        "lp_norm": lambda: mu.lp_norm(f, 3.0),
        "mu_oscillation": lambda: mu_oscillation(mu, f, (0.5,), 0.25, 2.0),
        "tilde_osc": lambda: tilde_osc(mu, f, (0.5,), 0.25, 1 / 32),
        "ap_mu_options": lambda: ap_mu_options(S, mu, f, 3.0, q=1.0),
        "local_pair_energy": lambda: local_pair_energy(mu, f, 0.25, 3.0),
        "distance_pair_energy": lambda: distance_pair_energy(mu, f, 0.25, 3.0),
        "quasidistance_pair_energy": lambda: quasidistance_pair_energy(S, mu, f, 0.25, 3.0),
        "dset_besov_norm": lambda: dset_besov_norm(mu, f, 0.5, 3.0, 1.0),
        "besov_trace_functional_jonsson":
            lambda: besov_trace_functional_jonsson(mu, f, 0.5, 3.0, 3.0, 0.125),
    }
    with pytest.raises(ConfigError, match=rf"needs 17 values, one per atom, got shape \({len(f)},\)"):
        calls[entry]()
