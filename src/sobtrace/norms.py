"""Grid Sobolev/Besov norms and the intrinsic trace-norm estimators.

Each estimator computes the right-hand side of one trace characterization:
packing-sum forms (T11, T12, T24, T25, T26), sharp-maximal forms (T14i,
T14ii), measure-weighted forms (T72, T715, T723), and the interior-plus-
boundary decomposition. Results come back as NormReports whose value is
the sum of the named sub-terms.

Each estimator fixes the ingredients its theorem fixes: every packing is
greedy, T715's fixed-scale pair energy uses the product kernel, and the
decomposed form builds its boundary measure from the set (boundary_measure).
The THEOREMS table at the end is the one place that says, per theorem id,
which parameters an estimate reads, what else it needs and what it is
compared against.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

from .grid import GridField
from .measures import (
    DiscreteMeasure,
    ap_mu_options,
    distance_pair_energy,
    local_pair_energy,
    quasidistance_pair_energy,
)
from .oscillation import (
    PackingProblem,
    _thin_candidates,
    cube_oscillations,
    modulus_profile,
    packing_profile,
    sharp_maximal_field,
    solve_packing,
)
from .sets import ClosedSet
from .util import (
    ConfigError,
    besov_scale_integral,
    check_finite,
    dyadic_ladder,
)
from .whitney import WhitneyDecomposition, compose_with_projection, whitney_decomposition

__all__ = [
    "SobolevNorms",
    "grid_sobolev_norms",
    "grid_besov_norm",
    "TraceEstimateConfig",
    "NormReport",
    "lambda_packing",
    "trace_estimate",
    "THEOREMS",
    "THEOREM_IDS",
    "REQUIRED",
    "theorem_spec",
]


class SobolevNorms(NamedTuple):
    lp: float
    seminorm: float
    total: float


def grid_sobolev_norms(F: GridField, p: float, mask=None) -> SobolevNorms:
    """L_p norm, gradient seminorm (max-norm gradient, central differences),
    and their sum. An optional mask restricts the quadrature domain."""
    gmax = np.gradient(F.values, F.h, axis=0)
    np.abs(gmax, out=gmax)
    for a in range(1, F.dim):
        grad = np.gradient(F.values, F.h, axis=a)
        np.maximum(gmax, np.abs(grad, out=grad), out=gmax)
    lp = F.cell_lp(p, mask)
    semi = GridField(F.box, F.h, gmax).cell_lp(p, mask)
    return SobolevNorms(lp, semi, lp + semi)


def grid_besov_norm(
    F: GridField, s: float, p: float, q: float, details: bool = False
):
    """L_p part plus the dyadic-scale modulus integral
    (int (omega(t)/t^s)^q dt/t)^(1/q); q = inf takes the scale supremum.
    The ladder's moduli omega(t) are read from one modulus profile, which
    differences each shift the ladder walks once."""
    if not (0 < s < 1):
        raise ConfigError(f"need 0 < s < 1, got {s}")
    extent = float(np.max(F.box[:, 1] - F.box[:, 0]))
    ts = dyadic_ladder(2 * F.h, extent / 2)
    gs = modulus_profile(F, ts, p)
    lp = F.cell_lp(p)
    if np.isinf(q):
        tail = float(np.max(gs / ts ** s)) if len(ts) else 0.0
        bracket = None
    else:
        bracket = besov_scale_integral(ts, gs, s, q)
        tail = bracket.value ** (1.0 / q)
    if details:
        return lp + tail, {"lp": lp, "tail": tail, "bracket": bracket, "ts": ts, "gs": gs}
    return lp + tail


# -- configuration -----------------------------------------------------


# each parameter's range: (low end, high end, brackets); alpha's high end and
# its bracket are the theorem's alpha_max and alpha_closed
_RANGES = {
    "eps": (0, np.inf, "()"), "gamma": (0, np.inf, "()"), "q": (0, np.inf, "()"),
    "theta": (1, np.inf, "[)"), "pair_budget": (0, np.inf, "[)"), "seed": (0, np.inf, "[)"),
    "s": (0, 1, "()"), "alpha": (0, None, None),
}


def _check_range(owner: str, name: str, value, bounds: tuple) -> None:
    """Refuse value unless it lies in bounds, (low end, high end, brackets)."""
    lo, hi, ends = bounds
    above = lo <= value if ends[0] == "[" else lo < value
    below = value <= hi if ends[1] == "]" else value < hi
    if not (above and below):
        raise ConfigError(f"{owner} needs {name} in {ends[0]}{lo}, {hi}{ends[1]}, got {value}")


@dataclass
class TraceEstimateConfig:
    """Parameters of one trace-norm estimator. THEOREMS[theorem].params names
    the ones it reads and their defaults; setting any other is an error."""

    theorem: str
    p: float
    q: float | None = None
    s: float | None = None
    eps: float | None = None
    theta: float | None = None
    alpha: float | None = None
    gamma: float | None = None
    pair_budget: int | None = None
    seed: int | None = None

    def __post_init__(self):
        spec = theorem_spec(self.theorem)
        if not (0 < self.p < np.inf):
            raise ConfigError("p must be finite and positive")
        unread = [f.name for f in fields(self) if f.default is None
                  and getattr(self, f.name) is not None and f.name not in spec.params]
        if unread:
            raise ConfigError(f"{self.theorem} does not read {', '.join(unread)}")
        for name, default in spec.params.items():
            if getattr(self, name) is None:
                if default is REQUIRED:
                    raise ConfigError(f"{self.theorem} needs {name}")
                setattr(self, name, _of_theta(default, self.theta))
            bounds = _RANGES[name]
            if name == "alpha":
                bounds = (0, _of_theta(spec.alpha_max, self.theta),
                          "(]" if spec.alpha_closed else "()")
            _check_range(self.theorem, name, getattr(self, name), bounds)


@dataclass(frozen=True)
class NormReport:
    """Value plus the named additive sub-terms it is composed of."""

    value: float
    breakdown: dict
    resolution: float
    notes: tuple = field(default_factory=tuple)

    def __post_init__(self):
        total = sum(self.breakdown.values())
        if not np.isclose(self.value, total, rtol=1e-9, atol=1e-12):
            raise ConfigError("report value must equal the sum of its terms")
        if any(v < -1e-12 for v in self.breakdown.values()):
            raise ConfigError("sub-terms must be nonnegative")

    def to_json(self) -> dict:
        return {"value": self.value, "breakdown": self.breakdown,
                "resolution": self.resolution, "notes": list(self.notes)}


def _report(breakdown: dict, h: float, notes=()) -> NormReport:
    breakdown = {k: float(v) for k, v in breakdown.items()}
    value = float(sum(breakdown.values()))
    check_finite(value, "trace estimate")
    return NormReport(value, breakdown, h, tuple(notes))


def _scales(S: ClosedSet, top: float) -> np.ndarray:
    """The dyadic ladder top, top/2, ... down to 2h, at most ten steps."""
    return dyadic_ladder(max(2 * S.h, top / 512), top)


# -- packing-sum lambda functional (mixed cube sizes) ------------------


def lambda_packing(
    S: ClosedSet,
    f_vals,
    p: float,
    gamma: float,
    max_diam: float | None = None,
    details: bool = False,
):
    """Best disjoint-cube family score sum for the pair-increment form:
    each cube scores osc(f over the gamma-dilated cube cap S)^p times
    diam^(n-p), cubes of all dyadic sizes pooled into one greedy packing.
    """
    f_vals = S.sample_values(f_vals, "lambda packing")
    top = S.span if max_diam is None else min(max_diam, 2 * S.span)
    taus = _scales(S, top)
    centers, radii, scores = [], [], []
    n = S.dim
    for tau in taus:
        cand = S.points[_thin_candidates(S.points, tau)]
        osc = cube_oscillations(S.tree, f_vals, cand, gamma * tau / 2 + 1e-12)
        live = osc > 0
        centers.append(cand[live])
        radii.append(np.full(live.sum(), tau / 2))
        # numpy power overflows to inf instead of raising, so huge inputs
        # surface as NumericalFailure downstream; one scalar power per cube
        with np.errstate(over="ignore"):
            scores += [o ** p * tau ** (n - p) for o in osc[live]]
    result = None
    if scores:
        problem = PackingProblem(np.concatenate(centers), np.concatenate(radii), np.array(scores))
        result = solve_packing(problem)
    value = 0.0 if result is None else result.value ** (1.0 / p)
    if details:
        return value, {"candidates": len(scores), "result": result, "taus": taus}
    return value


# -- shared sub-terms --------------------------------------------------


def _composition_norm(W: WhitneyDecomposition, f_vals, eps: float, p: float) -> tuple:
    """L_p norm of f(T(x)) over the eps-neighborhood of the set, and the
    neighborhood's mask on the set's grid."""
    FT, near = compose_with_projection(W, f_vals, eps)
    return FT.cell_lp(p, near), near


def _packing_terms(S, f_vals, p, sup_top, integral_top, plain, porous) -> tuple:
    """"sup_quotient", the sup of A(t)/t over the scales up to sup_top, A the
    packing profile with the options plain, and "porous_integral",
    (int (A(t)/t)^p dt/t)^(1/p) over the scales up to integral_top, A the
    profile with the options porous; and a note with the integral's bracket."""
    ts = _scales(S, sup_top)
    sup_term = np.max(packing_profile(S, f_vals, ts, p, **plain) / ts)
    ts = _scales(S, integral_top)
    bracket = besov_scale_integral(ts, packing_profile(S, f_vals, ts, p, **porous), 1.0, p)
    note = f"integral bracket [{bracket.lower:.4g}, {bracket.upper:.4g}]"
    return {"sup_quotient": sup_term, "porous_integral": bracket.value ** (1.0 / p)}, note


# -- estimator dispatch ------------------------------------------------


def trace_estimate(
    S: ClosedSet,
    f_vals,
    cfg: TraceEstimateConfig,
    mu: DiscreteMeasure | None = None,
    W: WhitneyDecomposition | None = None,
) -> NormReport:
    """Evaluate the intrinsic trace-norm surrogate chosen by the config."""
    f_vals = S.sample_values(f_vals, f"{cfg.theorem} estimate")
    spec = THEOREMS[cfg.theorem]
    if spec.needs_W and W is None:
        W = whitney_decomposition(S)
    if spec.needs_mu and mu is None:
        raise ConfigError(f"{cfg.theorem} needs a measure on the set")
    return spec.estimate(S, f_vals, cfg, mu, W)


def _estimate_t11(S, f, cfg, mu, W):
    val = lambda_packing(S, f, cfg.p, cfg.gamma)
    return _report({"packing": val}, S.h, ("mixed-size greedy packing",))


def _estimate_t12(S, f, cfg, mu, W):
    comp, _ = _composition_norm(W, f, cfg.eps, cfg.p)
    # cubes centered on the set stay inside the neighborhood when their
    # radius is below eps
    val = lambda_packing(S, f, cfg.p, cfg.gamma, max_diam=2 * cfg.eps)
    return _report({"composition": comp, "packing": val}, S.h)


def _estimate_t14i(S, f, cfg, mu, W):
    return _report({"sharp_field": sharp_maximal_field(S, f).cell_lp(cfg.p)}, S.h)


def _estimate_t14ii(S, f, cfg, mu, W):
    # both terms integrate over the same eps-neighborhood of the set's grid
    comp, near = _composition_norm(W, f, cfg.eps, cfg.p)
    sharp = sharp_maximal_field(S, f).cell_lp(cfg.p, near)
    return _report({"composition": comp, "sharp_field": sharp}, S.h)


def _estimate_t24(S, f, cfg, mu, W):
    porous = {"centers": "boundary", "alpha": cfg.alpha}
    terms, note = _packing_terms(S, f, cfg.p, 2 * S.extent, S.extent, {}, porous)
    return _report(terms, S.h, (note,))


def _estimate_t25(S, f, cfg, mu, W):
    comp, _ = _composition_norm(W, f, cfg.eps, cfg.p)
    porous = {"centers": "boundary", "alpha": cfg.alpha}
    terms, note = _packing_terms(S, f, cfg.p, cfg.eps, cfg.eps, {}, porous)
    return _report({"composition": comp, **terms}, S.h, (note,))


def _estimate_t26(S, f, cfg, mu, W):
    comp, _ = _composition_norm(W, f, cfg.eps, cfg.p)
    ts = _scales(S, cfg.eps)
    gs = packing_profile(S, f, ts, cfg.p)
    bracket = besov_scale_integral(ts, gs, cfg.s, cfg.q)
    tail = bracket.value ** (1.0 / cfg.q)
    return _report({"composition": comp, "scale_integral": tail}, S.h)


def _estimate_t72(S, f, cfg, mu, W):
    terms, _ = _packing_terms(
        S, f, cfg.p, cfg.eps, cfg.eps,
        ap_mu_options(S, mu, f, cfg.p, q=cfg.p),
        ap_mu_options(S, mu, f, cfg.p, q=cfg.p, alpha=cfg.alpha),
    )
    return _report({"lp_mu": mu.lp_norm(f, cfg.p), **terms}, S.h)


def _estimate_t715(S, f, cfg, mu, W):
    base = mu.lp_norm(f, cfg.p)
    ts = _scales(S, cfg.eps)
    sup_term = max(
        local_pair_energy(mu, f, t, cfg.p, kernel="product") ** (1.0 / cfg.p)
        for t in ts
    )
    j2 = quasidistance_pair_energy(
        S, mu, f, cfg.eps, cfg.p,
        alpha=cfg.alpha, pair_budget=cfg.pair_budget, seed=cfg.seed,
    )
    notes = () if j2["exact"] else (
        f"quasidistance term sampled: {j2['evaluated_pairs']}/{j2['candidate_pairs']} pairs",
    )
    return _report(
        {
            "lp_mu": base,
            "sup_pair_energy": sup_term,
            "quasidistance_energy": j2["value"] ** (1.0 / cfg.p),
        },
        S.h,
        notes,
    )


def _estimate_t723(S, f, cfg, mu, W):
    if S.interior_mask().any():
        raise ConfigError("distance pair-energy form needs an empty interior")
    ball = S.ball_condition_estimate()
    if not ball.satisfied:
        raise ConfigError("distance pair-energy form needs the ball condition")
    base = mu.lp_norm(f, cfg.p)
    energy = distance_pair_energy(mu, f, cfg.eps, cfg.p)
    return _report(
        {"lp_mu": base, "distance_energy": energy ** (1.0 / cfg.p)}, S.h
    )


def _interior_field(S: ClosedSet, f_vals) -> tuple:
    """Raster f over the occupancy lattice; returns (field, interior mask)."""
    occ = S.occupancy
    lo = S.bbox[:, 0]
    idx = S._cell_index()
    vals = np.zeros(occ.shape)
    vals[tuple(idx.T)] = f_vals
    interior = np.zeros(occ.shape, bool)
    interior[tuple(idx[S.interior_mask()].T)] = True
    box = np.stack([lo + S.h / 2, lo + (np.array(occ.shape) - 0.5) * S.h], axis=1)
    return GridField(box, S.h, vals), interior


def boundary_measure(S: ClosedSet) -> DiscreteMeasure:
    """The decomposed form's boundary measure: h^(n-1) per boundary sample."""
    b = S.boundary()
    w = np.full(len(b.points), S.h ** max(S.dim - 1, 0))
    return DiscreteMeasure(b.points, w, name="boundary-cells")


def _estimate_decomposed(S, f, cfg, mu, W):
    if S.kind != "solid":
        raise ConfigError("decomposed estimate needs a solid set")
    field, interior = _interior_field(S, f)
    interior_norm = grid_sobolev_norms(field, cfg.p, interior).total
    sigma = boundary_measure(S)
    f_sigma = np.asarray(f, float)[~S.interior_mask()]  # sigma's points, in order
    base = sigma.lp_norm(f_sigma, cfg.p)
    energy = distance_pair_energy(sigma, f_sigma, cfg.eps, cfg.p)
    return _report(
        {
            "interior_sobolev": interior_norm,
            "lp_sigma": base,
            "boundary_energy": energy ** (1.0 / cfg.p),
        },
        S.h,
    )


# -- the theorem table -------------------------------------------------


REQUIRED = "required"


@dataclass(frozen=True)
class Theorem:
    """One trace characterisation: its estimator, the config parameters it
    reads, what else it needs, and the grid norm of the Whitney extension it
    is compared against ("seminorm", "besov" or "total").  params maps each
    parameter to its default, a function of the resolved theta, or REQUIRED;
    theta comes first.  alpha must lie in (0, alpha_max], or in
    (0, alpha_max) unless alpha_closed; alpha_max may be a function of theta."""

    estimate: Callable
    params: dict
    comparison: str = "total"
    needs_W: bool = False
    needs_mu: bool = False
    alpha_max: float | Callable | None = None
    alpha_closed: bool = False


def _of_theta(value, theta):
    return value(theta) if callable(value) else value


THEOREMS = {
    "T11": Theorem(_estimate_t11, {"gamma": 11.0}, "seminorm"),
    # theta = 2.0 is the measured bound for the anchor projection
    "T12": Theorem(
        _estimate_t12,
        {"theta": 2.0, "eps": REQUIRED, "gamma": lambda theta: 10 * theta + 1},
        needs_W=True,
    ),
    "T14i": Theorem(_estimate_t14i, {}, "seminorm"),
    "T14ii": Theorem(_estimate_t14ii, {"eps": REQUIRED}, needs_W=True),
    "T24": Theorem(_estimate_t24, {"alpha": 3 / 20}, alpha_max=3 / 20, alpha_closed=True),
    "T25": Theorem(
        _estimate_t25,
        {"theta": 2.0, "eps": REQUIRED, "alpha": lambda theta: 3 / (10 + 10 * theta)},
        needs_W=True, alpha_max=lambda theta: 3 / (10 + 10 * theta), alpha_closed=True,
    ),
    "T26": Theorem(
        _estimate_t26, {"eps": REQUIRED, "s": REQUIRED, "q": REQUIRED}, "besov", needs_W=True
    ),
    "T72": Theorem(
        _estimate_t72, {"eps": REQUIRED, "alpha": 1 / 8}, needs_mu=True, alpha_max=1 / 7
    ),
    "T715": Theorem(
        _estimate_t715,
        {"eps": REQUIRED, "alpha": 1 / 15, "pair_budget": 4000, "seed": 0},
        needs_mu=True, alpha_max=1 / 14,
    ),
    "T723": Theorem(_estimate_t723, {"eps": REQUIRED}, needs_mu=True),
    "decomposed": Theorem(_estimate_decomposed, {"eps": REQUIRED}),
}
THEOREM_IDS = tuple(THEOREMS)


def theorem_spec(theorem) -> Theorem:
    """The THEOREMS entry of a theorem id; ConfigError for an unknown id."""
    if theorem not in THEOREM_IDS:
        raise ConfigError(f"unknown theorem id {theorem!r}")
    return THEOREMS[theorem]
