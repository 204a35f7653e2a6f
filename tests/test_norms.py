"""Grid norms, estimator configs, and the trace-norm dispatch."""

import dataclasses
import functools
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sobtrace.canonical import CANONICAL_NAMES, CanonicalSpec, generate_canonical
from sobtrace.canonical import SampledFunction
from sobtrace.canonical import test_function_family as function_family
from sobtrace.grid import GridField
from sobtrace.measures import (
    arc_length_measure,
    cell_area_measure,
    dset_besov_norm,
)
from sobtrace import norms
from sobtrace.norms import (
    THEOREM_IDS,
    THEOREMS,
    REQUIRED,
    NormReport,
    TraceEstimateConfig,
    boundary_measure,
    grid_besov_norm,
    grid_sobolev_norms,
    lambda_packing,
    trace_estimate,
)
from sobtrace.oscillation import (
    PackingProblem,
    _thin_candidates,
    packing_profile,
    sharp_maximal_field,
    solve_packing,
)
from sobtrace.sets import solid_set, thin_set
from sobtrace.util import ConfigError, dyadic_ladder
from sobtrace.whitney import extend_grid, projection_data, whitney_decomposition
from test_oscillation import reference_oscillation


def segment2d(m=33):
    pts = np.hstack([np.linspace(0, 1, m)[:, None], np.zeros((m, 1))])
    S = thin_set(pts, h=1 / (m - 1), name="segment")
    mu = arc_length_measure(pts, h=1 / (m - 1))
    return S, mu, pts[:, 0]


def square(m=16):
    occ = np.ones((m, m), bool)
    S = solid_set(occ, h=1 / m, origin=np.zeros(2), name="square")
    return S


class TestGridSobolev:
    def test_zero(self):
        F = GridField.from_function(
            np.array([[0.0, 1.0]]), 1 / 16, lambda x: np.zeros(x.shape[:-1])
        )
        assert grid_sobolev_norms(F, 2) == (0.0, 0.0, 0.0)

    def test_linear_1d_closed_form(self):
        F = GridField.from_function(np.array([[0.0, 1.0]]), 1 / 128, lambda x: x[..., 0])
        lp, semi, total = grid_sobolev_norms(F, 2)
        assert lp == pytest.approx(1 / np.sqrt(3), abs=0.02)
        assert semi == pytest.approx(1.0, abs=0.02)
        assert total == lp + semi

    def test_plane_max_norm_gradient(self):
        F = GridField.from_function(
            np.array([[0.0, 1.0], [0.0, 1.0]]), 1 / 32, lambda x: x[..., 0] + 2 * x[..., 1]
        )
        semi = grid_sobolev_norms(F, 3).seminorm
        assert semi == pytest.approx(2.0, rel=0.05)

    def test_mask_restricts_domain(self):
        F = GridField.from_function(np.array([[0.0, 1.0]]), 1 / 32, lambda x: x[..., 0])
        mask = F.nodes()[:, 0] <= 0.5
        assert grid_sobolev_norms(F, 2, mask).lp < grid_sobolev_norms(F, 2).lp


class TestGridBesov:
    def test_constant_keeps_lp_only(self):
        F = GridField.from_function(
            np.array([[0.0, 1.0]]), 1 / 32, lambda x: np.full(x.shape[:-1], 2.0)
        )
        assert grid_besov_norm(F, 0.5, 3, 3) == pytest.approx(F.cell_lp(3))

    def test_s_range(self):
        F = GridField.from_function(np.array([[0.0, 1.0]]), 1 / 32, lambda x: x[..., 0])
        with pytest.raises(ConfigError):
            grid_besov_norm(F, 1.5, 3, 3)

    def test_step_function_grows_under_refinement(self):
        # rough data above the smoothness line: the bracket inflates as the
        # grid resolves the jump, while a smooth field stays put
        def step(x):
            return (x[..., 0] > 0.5).astype(float)

        def smooth(x):
            return np.sin(2 * x[..., 0])

        box = np.array([[0.0, 1.0]])
        vals = {}
        for fn, name in ((step, "step"), (smooth, "smooth")):
            coarse = grid_besov_norm(GridField.from_function(box, 1 / 64, fn), 0.6, 2, 2)
            fine = grid_besov_norm(GridField.from_function(box, 1 / 256, fn), 0.6, 2, 2)
            vals[name] = fine / coarse
        assert vals["step"] > 1.1
        assert abs(vals["smooth"] - 1) < 0.1


# id: (config inputs it cannot do without, estimate inputs it cannot do
# without, resolved (alpha, gamma, theta), largest alpha and whether that
# endpoint is accepted, comparison norm)
THEOREM_TABLE = {
    "T11": ({}, (), (None, 11.0, None), None, "seminorm"),
    "T12": ({"eps": 0.25}, (), (None, 21.0, 2.0), None, "total"),
    "T14i": ({}, (), (None, None, None), None, "seminorm"),
    "T14ii": ({"eps": 0.25}, (), (None, None, None), None, "total"),
    "T24": ({}, (), (0.15, None, None), (0.15, True), "total"),
    "T25": ({"eps": 0.25}, (), (0.1, None, 2.0), (0.1, True), "total"),
    "T26": ({"eps": 0.25, "s": 2 / 3, "q": 3.0}, (), (None, None, None), None, "besov"),
    "T72": ({"eps": 0.25}, ("mu",), (0.125, None, None), (1 / 7, False), "total"),
    "T715": ({"eps": 0.25}, ("mu",), (1 / 15, None, None), (1 / 14, False), "total"),
    "T723": ({"eps": 0.25}, ("mu",), (None, None, None), None, "total"),
    "decomposed": ({"eps": 0.25}, (), (None, None, None), None, "total"),
}
# the parameters every theorem may be given: the defaulted config fields
PARAMETERS = [f.name for f in dataclasses.fields(TraceEstimateConfig) if f.default is None]


class TestConfig:
    @pytest.mark.parametrize("tid", THEOREM_IDS)
    def test_theorem_table(self, tid):
        inputs, estimate_inputs, resolved, alpha_max, comparison = THEOREM_TABLE[tid]
        spec = THEOREMS[tid]
        assert spec.comparison == comparison
        assert {k for k, v in spec.params.items() if v is REQUIRED} == set(inputs)
        assert (spec.needs_W, spec.needs_mu) == (
            tid in ("T12", "T14ii", "T25", "T26"),
            "mu" in estimate_inputs,
        )
        cfg = TraceEstimateConfig(theorem=tid, p=3.0, **inputs)
        assert (cfg.alpha, cfg.gamma, cfg.theta) == resolved
        assert (cfg.pair_budget, cfg.seed) == ((4000, 0) if tid == "T715" else (None, None))
        # every parameter the theorem reads is resolved; the others stay unset
        assert {k for k in PARAMETERS if getattr(cfg, k) is not None} == set(spec.params)
        for key in inputs:
            with pytest.raises(ConfigError):
                TraceEstimateConfig(
                    theorem=tid, p=3.0, **{k: v for k, v in inputs.items() if k != key}
                )
        for key in set(PARAMETERS) - set(spec.params):
            with pytest.raises(ConfigError, match=f"{tid} does not read {key}"):
                TraceEstimateConfig(theorem=tid, p=3.0, **{**inputs, key: 1})
        if alpha_max is not None:
            hi, closed = alpha_max
            for bad in (0.0, hi * (1 + 1e-9)) + (() if closed else (hi,)):
                with pytest.raises(ConfigError):
                    TraceEstimateConfig(theorem=tid, p=3.0, alpha=bad, **inputs)
            top = hi if closed else hi * (1 - 1e-9)
            assert TraceEstimateConfig(theorem=tid, p=3.0, alpha=top, **inputs).alpha == top
        S, mu, x = segment2d(9)
        if estimate_inputs:
            with pytest.raises(ConfigError):
                trace_estimate(S, x, cfg)

    @pytest.mark.parametrize("tid", THEOREM_IDS)
    def test_params_have_ranges(self, tid):
        params = list(THEOREMS[tid].params)
        assert set(params) <= set(PARAMETERS) == set(norms._RANGES)
        # a default may be a function of theta, so theta is resolved first
        if any(callable(v) for v in THEOREMS[tid].params.values()):
            assert params[0] == "theta"

    def test_unread_fields_named_together(self):
        with pytest.raises(ConfigError, match="T723 does not read s, theta, alpha, gamma"):
            TraceEstimateConfig(
                theorem="T723", p=3.0, eps=0.25, alpha=5, theta=-7, gamma=np.nan, s=9
            )

    @pytest.mark.parametrize("tid", [t for t in THEOREM_IDS if "eps" in THEOREMS[t].params])
    @pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf, 0.0, -0.25])
    def test_eps_must_be_finite_and_positive(self, tid, eps):
        inputs = THEOREM_TABLE[tid][0]
        with pytest.raises(ConfigError, match=f"{tid} needs eps in"):
            TraceEstimateConfig(theorem=tid, p=3.0, **{**inputs, "eps": eps})

    def test_unknown_theorem(self):
        with pytest.raises(ConfigError):
            TraceEstimateConfig(theorem="T99", p=3)

    def test_alpha_ranges(self):
        assert TraceEstimateConfig(theorem="T24", p=3).alpha == pytest.approx(3 / 20)
        with pytest.raises(ConfigError):
            TraceEstimateConfig(theorem="T24", p=3, alpha=0.16)
        with pytest.raises(ConfigError):
            TraceEstimateConfig(theorem="T72", p=3, eps=0.5, alpha=1 / 7)
        with pytest.raises(ConfigError):
            TraceEstimateConfig(theorem="T715", p=3, eps=0.5, alpha=0.08)

    def test_t25_alpha_depends_on_theta(self):
        cfg = TraceEstimateConfig(theorem="T25", p=3, eps=0.5, theta=2.0)
        assert cfg.alpha == pytest.approx(3 / 30)
        assert cfg.gamma is None  # dilation only enters T11/T12

    def test_t12_eta_default(self):
        cfg = TraceEstimateConfig(theorem="T12", p=3, eps=0.5, theta=3.0)
        assert cfg.gamma == pytest.approx(31.0)

    def test_required_parameters(self):
        with pytest.raises(ConfigError):
            TraceEstimateConfig(theorem="T25", p=3)  # eps missing
        with pytest.raises(ConfigError):
            TraceEstimateConfig(theorem="T26", p=3, eps=0.5)  # s, q missing
        with pytest.raises(ConfigError):
            TraceEstimateConfig(theorem="T12", p=3, eps=0.5, theta=0.5)


def _readme_parameter_bullets() -> list:
    """The bullets of the README's per-theorem parameter list."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("Each theorem's `params`", 1)[1].split("\n\n")[1]
    return block.split("\n- ")


def test_readme_lists_each_theorems_parameters():
    """Each README bullet that names a config parameter lists exactly the
    theorems whose THEOREMS params hold it, and every parameter is listed."""
    listed = set()
    for bullet in _readme_parameter_bullets():
        names = set(re.findall(r"`(\w+)`", bullet)) & set(PARAMETERS)
        ids = set(re.findall(r"\b(T\d+i*|decomposed)\b", bullet))
        for name in names:
            assert ids == {t for t in THEOREM_IDS if name in THEOREMS[t].params}, name
        listed |= names
    assert listed == set(PARAMETERS)


ALL_CONFIGS = [
    ("T11", {}),
    ("T12", {"eps": 0.25}),
    ("T14i", {}),
    ("T14ii", {"eps": 0.25}),
    ("T24", {}),
    ("T25", {"eps": 0.25}),
    ("T26", {"eps": 0.25, "s": 2 / 3, "q": 3.0}),
    ("T72", {"eps": 0.25}),
    ("T715", {"eps": 0.125}),
    ("T723", {"eps": 0.25}),
]


class TestTraceEstimate:
    def test_zero_function_vanishes_everywhere(self):
        S, mu, _ = segment2d()
        zero = np.zeros(len(S.points))
        for tid, kw in ALL_CONFIGS:
            cfg = TraceEstimateConfig(theorem=tid, p=3.0, **kw)
            rep = trace_estimate(S, zero, cfg, mu=mu)
            assert rep.value == 0.0, tid

    def test_absolute_homogeneity(self):
        S, mu, x = segment2d()
        f = np.sin(2 * x)
        c = 3.5
        for tid, kw in ALL_CONFIGS:
            cfg = TraceEstimateConfig(theorem=tid, p=3.0, **kw)
            one = trace_estimate(S, f, cfg, mu=mu).value
            scaled = trace_estimate(S, c * f, cfg, mu=mu).value
            assert scaled == pytest.approx(c * one, rel=1e-9), tid

    def test_monotone_in_eps(self):
        S, mu, x = segment2d()
        f = np.sin(2 * x)
        for tid, kw in [("T25", {}), ("T72", {}), ("T723", {})]:
            small = TraceEstimateConfig(theorem=tid, p=3.0, eps=0.125, **kw)
            large = TraceEstimateConfig(theorem=tid, p=3.0, eps=0.25, **kw)
            v_small = trace_estimate(S, f, small, mu=mu).value
            v_large = trace_estimate(S, f, large, mu=mu).value
            assert v_large >= v_small * (1 - 1e-9), tid

    def test_sharp_field_dominates_packing(self):
        S, mu, x = segment2d()
        worst = 0.0
        for f in (x, np.sin(2 * x), np.abs(x - 0.4)):
            t11 = trace_estimate(S, f, TraceEstimateConfig(theorem="T11", p=3.0)).value
            t14 = trace_estimate(S, f, TraceEstimateConfig(theorem="T14i", p=3.0)).value
            worst = max(worst, t11 / t14)
        assert worst <= 50.0

    def test_t11_linear_scale(self):
        S, _, x = segment2d()
        val = trace_estimate(S, x, TraceEstimateConfig(theorem="T11", p=3.0)).value
        # the dilation gamma = 11 inflates the unit Lipschitz seminorm
        assert 1.0 <= val <= 30.0

    def test_t723_needs_empty_interior(self):
        S = square()
        mu = cell_area_measure(S)
        cfg = TraceEstimateConfig(theorem="T723", p=3.0, eps=0.25)
        with pytest.raises(ConfigError):
            trace_estimate(S, S.points[:, 0], cfg, mu=mu)

    def test_measure_required(self):
        S, _, x = segment2d()
        with pytest.raises(ConfigError):
            trace_estimate(S, x, TraceEstimateConfig(theorem="T72", p=3.0, eps=0.25))

    def test_value_length_mismatch(self):
        S, mu, x = segment2d()
        with pytest.raises(ConfigError):
            trace_estimate(S, x[:-1], TraceEstimateConfig(theorem="T11", p=3.0))

    def test_t723_tracks_direct_besov(self):
        S, mu, x = segment2d(65)
        f = np.abs(x - 0.3) ** 0.8
        cfg = TraceEstimateConfig(theorem="T723", p=3.0, eps=0.5)
        intrinsic = trace_estimate(S, f, cfg, mu=mu).value
        direct = dset_besov_norm(mu, f, s=2 / 3, p=3.0, d=1.0)
        assert 1 / 100 <= intrinsic / direct <= 100

    def test_decomposed_on_square(self):
        S = square()
        f = S.points[:, 0] ** 2
        cfg = TraceEstimateConfig(theorem="decomposed", p=3.0, eps=0.25)
        rep = trace_estimate(S, f, cfg)
        assert set(rep.breakdown) == {"interior_sobolev", "lp_sigma", "boundary_energy"}
        assert rep.value > 0
        # the boundary term is the L_p norm of f against boundary_measure(S)
        sigma = boundary_measure(S)
        _, parent = S.tree.query(sigma.points, k=1, p=np.inf)
        assert rep.breakdown["lp_sigma"] == sigma.lp_norm(f[parent], 3.0)
        seg, _, x = segment2d()
        with pytest.raises(ConfigError):
            trace_estimate(seg, x, cfg)  # not a solid set

    def test_report_invariant(self):
        with pytest.raises(ConfigError):
            NormReport(5.0, {"a": 1.0, "b": 2.0}, 0.1)


@pytest.mark.parametrize("count", ["one", "longer"])
@pytest.mark.parametrize("entry", ["trace_estimate", "extension", "sharp_maximal_field",
                                   "lambda_packing", "packing_table", "sampled_function"])
def test_one_value_per_sample(entry, count):
    # a 1-value array is not broadcast and a longer one is not read by its
    # prefix: every entry point refuses them with one message
    S, mu, _ = segment2d()
    f = np.zeros(1 if count == "one" else len(S.points) + 3)
    calls = {
        "trace_estimate": lambda: trace_estimate(S, f, TraceEstimateConfig(theorem="T14i", p=3.0)),
        "extension": lambda: extend_grid(whitney_decomposition(S), f, delta=0.1, cbar=0.0),
        "sharp_maximal_field": lambda: sharp_maximal_field(S, f),
        "lambda_packing": lambda: lambda_packing(S, f, 3.0, 11.0),
        "packing_table": lambda: packing_profile(S, f, [0.25, 0.5], 3.0),
        "sampled_function": lambda: SampledFunction(S, f, "bad length"),
    }
    with pytest.raises(ConfigError, match=rf"needs {len(S.points)} values, got shape \({len(f)},\)"):
        calls[entry]()


def reference_lambda_packing(S, f_vals, p, gamma, max_diam=None):
    """lambda_packing's per-candidate loop, one oscillation per ball group:
    (value, candidate count, problem, result)."""
    f_vals = np.asarray(f_vals, float)
    span = S.extent or 1.0
    top = span if max_diam is None else min(max_diam, 2 * span)
    centers, radii, scores = [], [], []
    for tau in dyadic_ladder(max(2 * S.h, top / 512), top):
        cand = S.points[_thin_candidates(S.points, tau)]
        groups = S.tree.query_ball_point(cand, gamma * tau / 2 + 1e-12, p=np.inf)
        for c, g in zip(cand, groups):
            osc = reference_oscillation(f_vals[np.array(g, int)])
            if osc > 0:
                centers.append(c)
                radii.append(tau / 2)
                with np.errstate(over="ignore"):
                    scores.append(np.float64(osc) ** p * tau ** (S.dim - p))
    if not centers:
        return 0.0, 0, None, None
    problem = PackingProblem(np.array(centers), np.array(radii), np.array(scores))
    result = solve_packing(problem)
    return result.value ** (1.0 / p), len(centers), problem, result


@pytest.mark.parametrize("name", CANONICAL_NAMES)
def test_lambda_packing_matches_per_candidate_loop(name, monkeypatch):
    S, _ = generate_canonical(CanonicalSpec(name, 1 / 32))
    fam = function_family("restrictions-of-smooth", S)
    problems = []
    monkeypatch.setattr(norms, "solve_packing",
                        lambda problem: problems.append(problem) or solve_packing(problem))
    for f, gamma, max_diam in ((fam[0].values, 11.0, None), (fam[5].values, 21.0, None),
                               (fam[5].values, 11.0, 0.25), (np.ones(len(S.points)), 11.0, None)):
        problems.clear()
        value, info = lambda_packing(S, f, 3.0, gamma, max_diam=max_diam, details=True)
        want, count, problem, result = reference_lambda_packing(S, f, 3.0, gamma, max_diam)
        assert value == want and info["candidates"] == count
        if result is None:
            assert info["result"] is None and not problems
            continue
        chosen = info["result"].chosen
        assert np.array_equal(chosen, result.chosen) and info["result"].value == result.value
        assert np.array_equal(problems[0].centers[chosen], problem.centers[chosen])
        assert np.array_equal(problems[0].radii[chosen], problem.radii[chosen])
        assert np.array_equal(problems[0].scores, problem.scores)


def reference_compose_with_projection(W, f_vals, eps):
    """compose_with_projection with its eps mask read off projection_data's
    exact distance at every node."""
    _, target, dist, _ = projection_data(W)
    FT = W._grid(np.asarray(f_vals, float)[target])
    return FT, (dist <= eps + 1e-12).reshape(FT.values.shape)


@pytest.mark.parametrize("name", CANONICAL_NAMES)
def test_composition_norms_match_exact_distance_mask(name, monkeypatch):
    S, _ = generate_canonical(CanonicalSpec(name, 1 / 32))
    W = whitney_decomposition(S)
    f = function_family("restrictions-of-smooth", S)[5].values
    # T12 once: its packing, the slow part, does not read the mask
    configs = [TraceEstimateConfig(theorem="T12", p=3.0, eps=0.25)] + [
        TraceEstimateConfig(theorem=tid, p=3.0, eps=eps, **kw)
        for eps in (4 * S.h, 0.25)
        for tid, kw in (("T14ii", {}), ("T25", {}), ("T26", {"s": 2 / 3, "q": 3.0}))
    ]
    got = [trace_estimate(S, f, cfg, W=W) for cfg in configs]
    monkeypatch.setattr(norms, "compose_with_projection", reference_compose_with_projection)
    want = [trace_estimate(S, f, cfg, W=W) for cfg in configs]
    for cfg, a, b in zip(configs, got, want):
        assert (a.value, a.breakdown) == (b.value, b.breakdown), (cfg.theorem, cfg.eps)


class TestLambdaPacking:
    def test_constant_zero(self):
        S, _, _ = segment2d()
        assert lambda_packing(S, np.ones(len(S.points)), 3.0, 11.0) == 0.0

    def test_max_diam_cap(self):
        S, _, x = segment2d()
        _, info = lambda_packing(S, x, 3.0, 11.0, max_diam=0.25, details=True)
        assert info["taus"].max() <= 0.25 + 1e-12

    def test_jump_pair_value(self):
        # two points, unit jump, dilation 11: both half-width cubes see the
        # whole pair and stay disjoint, so the pool keeps both score-2 cubes
        S = thin_set(np.array([[0.0], [1.0]]), h=0.25)
        f = np.array([0.0, 1.0])
        val, info = lambda_packing(S, f, 2.0, 11.0, details=True)
        assert info["result"].value == pytest.approx(4.0, rel=1e-9)
        assert val == pytest.approx(2.0, rel=1e-9)


# -- every estimator on every catalog set: a finite value or a refusal ----

_SOLID_SETS = ("solid-disk", "solid-square", "axis-line")
# decomposed needs a solid set, T723 an empty interior; the others take any set
_SUPPORTED = [
    (tid, name) for tid in THEOREM_IDS for name in CANONICAL_NAMES
    if {"decomposed": name in _SOLID_SETS, "T723": name not in _SOLID_SETS}.get(tid, True)
]


@functools.cache
def _catalog(name):
    """(set, measure, Whitney decomposition, smooth family) at h = 1/32, built once."""
    S, mu = generate_canonical(CanonicalSpec(name, 1 / 32))
    return S, mu, whitney_decomposition(S), function_family("restrictions-of-smooth", S)


# each parameter's draw, in the order they are drawn (theta before the
# defaults that depend on it); alpha is drawn last, from the theorem's range
# at the drawn theta
_DRAWS = {
    "pair_budget": st.integers(0, 300),
    "seed": st.integers(0, 2 ** 16),
    "eps": st.floats(1 / 256, 0.5),
    "s": st.floats(0.01, 0.99),
    "q": st.floats(0.5, 8.0),
    "theta": st.floats(1.0, 8.0),
    "gamma": st.none() | st.floats(0.5, 32.0),
}


@st.composite
def estimate_parameters(draw, tid):
    """Finite TraceEstimateConfig keywords for the parameters the theorem
    reads (THEOREMS[tid].params), each from its declared range: p, q > 0,
    eps > 0, 0 < s < 1, theta >= 1, gamma > 0 (or its default), pair_budget,
    seed >= 0, and alpha in the theorem's range for the drawn theta. Three
    bounds keep the run short or the roots in range: p and q from 1/2 (a
    1/p-th root of a sum above 1 overflows as p goes to 0, which is a
    numerical failure, not a config error), eps up to 1/2 (the catalog sets
    span about 1) and the pair budget up to 300."""
    spec = THEOREMS[tid]
    kw = {"p": draw(st.floats(0.5, 8.0))}
    kw.update({
        name: draw(strategy) for name, strategy in _DRAWS.items() if name in spec.params
    })
    if "alpha" in spec.params:
        hi = norms._of_theta(spec.alpha_max, kw.get("theta"))
        kw["alpha"] = draw(st.floats(hi / 64, hi, exclude_max=not spec.alpha_closed))
    return kw


@pytest.mark.parametrize("tid, name", _SUPPORTED)
@settings(max_examples=3, deadline=None, derandomize=True)
@given(data=st.data())
def test_estimate_is_finite_or_refused(tid, name, data):
    S, mu, W, fam = _catalog(name)
    kw = data.draw(estimate_parameters(tid))
    f = fam[data.draw(st.integers(0, len(fam) - 1))].values
    try:
        cfg = TraceEstimateConfig(theorem=tid, **kw)
        # a 0 * inf or 0 / 0 raises where it happens instead of reading NaN
        with np.errstate(invalid="raise", divide="raise"):
            value = trace_estimate(S, f, cfg, mu=mu, W=W).value
    except ConfigError:
        return
    assert np.isfinite(value)
