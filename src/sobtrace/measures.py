"""Discrete measures on sampled sets and the measure-weighted functionals.

A measure is a finite weighted point cloud; integrals become weighted sums
and cube masses are exact uniform-norm ball queries. On top of that sit the
local L_q oscillations, the measure-scored packing functionals, the
pair-energy double sums (fixed scale, per-pair distance, quasidistance),
the dyadic Besov-trace functional, and the averaged smoothness modulus.

Every double sum over atom pairs reads its rows from one walk, _pair_rows,
which measures blocks of consecutive atoms against the atoms whose first
coordinate lies within r of the block's range. Rounding is monotone, so the
window loses no pair, and a row lists what a full row lists up to r, in the
same order: each sum adds the same terms in the same order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from .oscillation import packing_functional_details
from .sets import ClosedSet
from .util import ConfigError, OutOfDomainError, chebyshev, read_json

__all__ = [
    "DiscreteMeasure",
    "counting_measure",
    "arc_length_measure",
    "cell_area_measure",
    "MeasureDiagnostics",
    "measure_diagnostics",
    "mu_oscillation",
    "tilde_osc",
    "ap_mu_options",
    "A_p_mu",
    "local_pair_energy",
    "distance_pair_energy",
    "quasidistance_pair_energy",
    "besov_trace_functional_jonsson",
    "dset_besov_norm",
    "averaged_modulus_w1",
]


@dataclass(eq=False)
class DiscreteMeasure:
    """Finite positive measure given by sample points and weights."""

    points: np.ndarray
    weights: np.ndarray
    name: str = ""
    zero_mass_events: int = field(default=0, init=False)  # mass-zero cubes scored so far
    _tree: object = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, float))
        self.weights = np.asarray(self.weights, float)
        if self.points.ndim != 2 or self.weights.shape != self.points.shape[:1]:
            raise ConfigError("measure needs an (m, n) array of points and one weight per point")
        if not (np.isfinite(self.points).all() and np.isfinite(self.weights).all()):
            raise ConfigError("measure points and weights must be finite")
        if np.any(self.weights < 0):
            raise ConfigError("weights must be nonnegative")

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def tree(self) -> cKDTree:
        if self._tree is None:
            self._tree = cKDTree(self.points)
        return self._tree

    @property
    def total(self) -> float:
        return float(self.weights.sum())

    def ball_mass(self, x, r) -> np.ndarray:
        """Masses of closed uniform-norm balls; x may be a batch of centers."""
        x = np.atleast_2d(np.asarray(x, float))
        r = np.broadcast_to(np.asarray(r, float), (len(x),))
        out = np.empty(len(x))
        groups = self.tree.query_ball_point(x, r, p=np.inf)
        for i, g in enumerate(groups):
            out[i] = self.weights[g].sum()
        return out

    def atom_values(self, f_vals, what: str) -> np.ndarray:
        """f_vals as a float array of one value per atom; any other shape
        is a ConfigError naming what needed the values."""
        f_vals = np.asarray(f_vals, float)
        if f_vals.shape != (len(self.points),):
            raise ConfigError(
                f"{what} needs {len(self.points)} values, one per atom, got shape {f_vals.shape}")
        return f_vals

    def lp_norm(self, f_vals, p: float) -> float:
        f_vals = self.atom_values(f_vals, "L_p(mu) norm")
        if np.isinf(p):
            live = self.weights > 0
            return float(np.abs(f_vals[live]).max()) if live.any() else 0.0
        return float(np.sum(self.weights * np.abs(f_vals) ** p) ** (1.0 / p))

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "points": self.points.tolist(),
            "weights": self.weights.tolist(),
        }

    @staticmethod
    def from_json(obj: dict) -> "DiscreteMeasure":
        return DiscreteMeasure(
            np.array(obj["points"], float), np.array(obj["weights"], float),
            name=obj.get("name", ""),
        )

    def save(self, path):
        Path(path).write_text(json.dumps(self.to_json()))

    @staticmethod
    def load(path) -> "DiscreteMeasure":
        obj = read_json(path, "measure")
        try:
            return DiscreteMeasure.from_json(obj)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed measure {path}: {exc!r}") from None


def counting_measure(S: ClosedSet, normalized: bool = False, name: str = "counting") -> DiscreteMeasure:
    w = np.ones(len(S.points))
    if normalized:
        w /= len(S.points)
    return DiscreteMeasure(S.points.copy(), w, name=name)


def arc_length_measure(points, h: float, name: str = "arc-length") -> DiscreteMeasure:
    """Arc length along a uniformly sampled polyline (trapezoid weights)."""
    points = np.atleast_2d(np.asarray(points, float))
    if len(points) < 2:
        raise ConfigError("a polyline needs at least two samples")
    w = np.full(len(points), h)
    w[0] = w[-1] = h / 2
    return DiscreteMeasure(points.copy(), w, name=name)


def cell_area_measure(S: ClosedSet, name: str = "cell-area") -> DiscreteMeasure:
    if S.kind != "solid":
        raise ConfigError("cell-area measure needs a solid set")
    w = np.full(len(S.points), S.h ** S.dim)
    return DiscreteMeasure(S.points.copy(), w, name=name)


# -- diagnostics -------------------------------------------------------


@dataclass(frozen=True)
class MeasureDiagnostics:
    doubling_constant: float
    dn_constant: float
    unit_mass_low: float
    unit_mass_high: float
    dset_exponent: float
    dset_const_low: float
    dset_const_high: float
    exponent_drift: float
    degenerate_cubes: int


_DIAGNOSTIC_CENTERS = 40


def measure_diagnostics(mu: DiscreteMeasure, seed: int = 0) -> MeasureDiagnostics:
    """Empirical doubling / growth constants and a d-set power-law fit.

    Up to _DIAGNOSTIC_CENTERS centers are drawn from the support; radii form
    a dyadic ladder in [4h-ish, 1] where h is the largest nearest-atom gap
    among the centers; growth is read at the factors 2, 4 and 8.
    """
    if seed < 0:
        raise ConfigError(f"need seed >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    m = len(mu.points)
    pick = np.sort(rng.choice(m, size=min(_DIAGNOSTIC_CENTERS, m), replace=False))
    centers = mu.points[pick]
    d, _ = mu.tree.query(centers, k=2, p=np.inf)
    gap = float(np.max(d[:, 1])) if m > 1 else 0.25
    # cap below the support extent so boundary clipping does not flatten
    # the power-law fit
    extent = float(np.max(mu.points.max(0) - mu.points.min(0)))
    top = min(1.0, max(extent / 4, 8 * gap))
    r_levels = []
    r = top
    while r >= 4 * gap and len(r_levels) < 10:
        r_levels.append(r)
        r *= 0.5
    r_levels = np.asarray(sorted(r_levels or [top, top / 2]))
    doubling = 0.0
    dn = 0.0
    n = mu.dim
    radii = {1.0, *r_levels, *(k * r for r in r_levels for k in (2, 4, 8) if k * r <= 1.0)}
    mass_at = {r: mu.ball_mass(centers, r) for r in radii}  # each radius queried once
    masses = np.stack([mass_at[r] for r in r_levels])
    degenerate = int(np.sum(masses <= 0))
    for r, base in zip(r_levels, masses):
        ok = base > 0
        if not ok.any():
            continue
        if 2 * r <= 1.0:
            doubling = max(doubling, float(np.max(mass_at[2 * r][ok] / base[ok])))
        for k in (2, 4, 8):
            if k * r <= 1.0:
                dn = max(dn, float(np.max(mass_at[k * r][ok] / (k ** n * base[ok]))))
    unit = mass_at[1.0]
    # a discrete radius-r cube captures samples across width 2r + gap, so
    # the power-law fit runs against the effective radius
    log_r = np.log(r_levels + gap / 2)
    with np.errstate(divide="ignore"):
        log_m = np.where(masses > 0, np.log(np.maximum(masses, 1e-300)), np.nan)
    level_ok = ~np.all(np.isnan(log_m), axis=1)
    if level_ok.sum() >= 2:
        # an upper quantile per level keeps boundary-clipped centers from
        # flattening the global exponent
        medians = np.nanquantile(log_m[level_ok], 0.75, axis=1)
        slope, intercept = np.polyfit(log_r[level_ok], medians, 1)
        resid = (log_m - (slope * log_r[:, None] + intercept))[~np.isnan(log_m)]
        c_lo, c_hi = float(np.exp(resid.min())), float(np.exp(resid.max()))
        # a per-center exponent far from the global one signals growth that
        # follows different power laws in different regions
        drift = 0.0
        for j in range(masses.shape[1]):
            col = log_m[:, j]
            keep = ~np.isnan(col)
            if keep.sum() >= 2 and np.ptp(log_r[keep]) > 0:
                local = np.polyfit(log_r[keep], col[keep], 1)[0]
                drift = max(drift, float(abs(local - slope)))
    else:
        slope, c_lo, c_hi, drift = float("nan"), float("nan"), float("nan"), float("nan")
    return MeasureDiagnostics(
        doubling_constant=doubling,
        dn_constant=dn,
        unit_mass_low=float(unit.min()),
        unit_mass_high=float(unit.max()),
        dset_exponent=float(slope),
        dset_const_low=c_lo,
        dset_const_high=c_hi,
        exponent_drift=drift,
        degenerate_cubes=degenerate,
    )


# -- local oscillations ------------------------------------------------


def _per_cube(mu: DiscreteMeasure, centers, radius: float, score):
    """score(k, idx, w, mass) of each cube Q(centers[k], radius): the sorted
    indices of its atoms, their weights and its mass, from one ball query.
    A mass-zero cube scores 0 and is counted on the measure. One center
    gives a float, an (m, n) batch an array."""
    rows = np.atleast_2d(centers)
    out = np.zeros(len(rows))
    for k, idx in enumerate(mu.tree.query_ball_point(rows, radius, p=np.inf)):
        w = mu.weights[idx]
        mass = w.sum()
        if mass <= 0:
            mu.zero_mass_events += 1
        else:
            out[k] = score(k, idx, w, mass)
    return float(out[0]) if np.ndim(centers) == 1 else out


def mu_oscillation(mu: DiscreteMeasure, f_vals, center, radius: float, q: float):
    """L_q oscillation of f over the cube Q(center, radius) against the measure:
    ((1/mass^2) sum_{x,y in Q} w_x w_y |f(x)-f(y)|^q)^(1/q); q = inf is the
    plain oscillation. Mass-zero cubes return 0 (counted on the measure).
    center may be an (m, n) batch, giving an array."""
    f_vals = mu.atom_values(f_vals, "mu oscillation")

    def score(k, idx, w, mass):
        v = f_vals[idx]
        if np.isinf(q):
            return np.ptp(v[w > 0])
        diff = np.abs(v[:, None] - v[None, :]) ** q
        return (np.einsum("i,j,ij->", w, w, diff) / mass ** 2) ** (1.0 / q)

    return _per_cube(mu, np.asarray(center, float), radius, score)


def tilde_osc(mu: DiscreteMeasure, f_vals, center, radius: float, center_tol: float):
    """Mean absolute deviation over the cube Q(center, radius) from the
    value at its center: (1/mass) sum w |f - f(center)|, the center value
    read from the nearest support point within center_tol. center may be an
    (m, n) batch, giving an array; every center is checked against
    center_tol before any cube is scored."""
    center, f_vals = np.asarray(center, float), mu.atom_values(f_vals, "center deviation")
    d, j = mu.tree.query(np.atleast_2d(center), k=1, p=np.inf)
    if np.any(d > center_tol):
        k = np.argmax(d > center_tol)
        raise OutOfDomainError(f"cube center {np.atleast_2d(center)[k]} is {d[k]:.3g} from "
                               f"the support, tol {center_tol:.3g}")
    return _per_cube(mu, center, radius,
                     lambda k, idx, w, mass: np.sum(w * np.abs(f_vals[idx] - f_vals[j[k]])) / mass)


def ap_mu_options(
    S: ClosedSet,
    mu: DiscreteMeasure,
    f_vals,
    p: float,
    *,
    q: float,
    alpha: float | None = None,
    strong: bool = False,
    variant: str = "pair",
) -> dict:
    """The packing options (centers, alpha, strong, score_fn) of the
    measure-scored packing functional, for packing_functional_details and
    packing_profile alike; score_fn scores a batch of cubes at once.

    variant "pair" scores each cube by |Q| * mu_oscillation^p; variant
    "center" uses the center-deviation score (and forces strong porosity).
    The cubes are centered on the set when alpha is None and on its
    boundary otherwise.  The center value is read from a support point
    within h/2 of the cube center.
    """
    if variant not in ("pair", "center"):
        raise ConfigError(f"unknown A_p_mu variant {variant!r}")
    if not q > 0:
        raise ConfigError(f"A_p_mu needs q > 0, got {q}")
    if variant == "center":
        if alpha is None:
            raise ConfigError("center-deviation variant requires a porosity level")
        strong = True
    f_vals = mu.atom_values(f_vals, "A_p_mu")

    def score(centers, radius: float) -> list:
        if variant == "center":
            vals = tilde_osc(mu, f_vals, centers, radius, S.h / 2)
        else:
            vals = mu_oscillation(mu, f_vals, centers, radius, q)
        return [(2.0 * radius) ** S.dim * v ** p for v in vals.tolist()]

    centers = "set" if alpha is None else "boundary"
    return {"centers": centers, "alpha": alpha, "strong": strong, "score_fn": score}


def A_p_mu(S: ClosedSet, mu: DiscreteMeasure, f_vals, t: float, p: float, **options) -> dict:
    """Measure-scored packing functional at t, with the breakdown of
    packing_functional_details; the options (q, alpha, strong, variant)
    are those of ap_mu_options."""
    opts = ap_mu_options(S, mu, f_vals, p, **options)
    return packing_functional_details(S, f_vals, t, p, **opts)


# -- pair energies -----------------------------------------------------

def _require_finite_p(p: float) -> None:
    # with p = inf, |f(x)-f(y)|^p and the kernel powers give 0 * inf = NaN,
    # and a final 1/p power turns NaN or 0 into 1
    if not np.isfinite(p):
        raise ConfigError(f"pair energy needs a finite p, got {p}")


def _require_scale(value: float, name: str) -> None:
    # a NaN or non-positive scale admits no pair; an infinite t makes t^(n-p) 0 or inf
    if not (np.isfinite(value) and value > 0):
        raise ConfigError(f"pair energy needs a finite {name} > 0, got {value}")


_PAIR_BLOCK = 64  # atoms per dense distance block of the pair walk


def _pair_rows(mu: DiscreteMeasure, radius: float):
    """(i, js, d) for each atom i in index order: the atoms js within
    uniform distance radius of atom i, itself included, in index order, and
    their distances d."""
    pts = mu.points
    for lo in range(0, len(pts), _PAIR_BLOCK):
        block = pts[lo:lo + _PAIR_BLOCK]
        gap = np.maximum(block[:, 0].min() - pts[:, 0], pts[:, 0] - block[:, 0].max())
        near = np.nonzero(gap <= radius)[0]
        for i, d in enumerate(chebyshev(block[:, None], pts[near]), lo):
            inside = d <= radius
            yield i, near[inside], d[inside]


def local_pair_energy(
    mu: DiscreteMeasure, f_vals, t: float, p: float, kernel: str = "square"
) -> float:
    """Double sum over pairs closer than t of
    w_x w_y |f(x)-f(y)|^p * t^(n-p) / D with D = mass(Q(x,t))^2 (square) or
    mass(Q(x,t)) * mass(Q(y,t)) (product). Returns the p-th-power sum."""
    if kernel not in ("square", "product"):
        raise ConfigError(f"unknown kernel {kernel!r}")
    _require_scale(t, "t")
    _require_finite_p(p)
    f_vals = mu.atom_values(f_vals, "local pair energy")
    w = mu.weights
    # the closed balls' masses, summed as ball_mass sums them; their open parts are the pairs
    rows = list(_pair_rows(mu, t))
    masses = np.array([w[js].sum() for _, js, _ in rows])
    total = 0.0
    for i, js, d in rows:
        g = js[d < t]  # strict inequality in the pair domain
        if len(g) == 0 or masses[i] <= 0:
            continue
        num = w[i] * w[g] * np.abs(f_vals[i] - f_vals[g]) ** p
        if kernel == "square":
            total += float(num.sum()) / masses[i] ** 2
        else:
            # masses[g] is 0 only when w[g] is: that pair adds nothing, and
            # dividing would make it 0/0
            heavy = masses[g] > 0
            total += float(np.sum(num[heavy] / (masses[i] * masses[g[heavy]])))
    return total * t ** (mu.dim - p)


def distance_pair_energy(
    mu: DiscreteMeasure, f_vals, eps: float, p: float
) -> float:
    """Double sum over pairs with 0 < ||x-y|| < eps of
    w_x w_y |f(x)-f(y)|^p * ||x-y||^(n-p) / mass(Q(x, ||x-y||))^2,
    the per-pair masses read off sorted-distance prefix sums. Power form."""
    _require_finite_p(p)
    _require_scale(eps, "eps")
    f_vals = mu.atom_values(f_vals, "distance pair energy")
    w = mu.weights
    n = mu.dim
    total = 0.0
    for i, js, d in _pair_rows(mu, eps):
        # Q(x, d_ij) lies in the row: its mass is a prefix in distance order
        order = np.argsort(d, kind="stable")
        prefix = np.cumsum(w[js[order]])
        sel = (d > 0) & (d < eps)
        mass = prefix[np.searchsorted(d[order], d[sel], side="right") - 1]
        ok = mass > 0
        j, d_j, mass = js[sel][ok], d[sel][ok], mass[ok]
        num = w[i] * w[j] * np.abs(f_vals[i] - f_vals[j]) ** p
        total += float(np.sum(num * d_j ** (n - p) / mass ** 2))
    return total


def quasidistance_pair_energy(
    S: ClosedSet,
    mu: DiscreteMeasure,
    f_vals,
    eps: float,
    p: float,
    alpha: float = 1 / 15,
    pair_budget: int = 4000,
    seed: int = 0,
) -> dict:
    """Double sum over pairs with quasidistance below eps of
    w_x w_y |f(x)-f(y)|^p * rho^(n-p) / mass(Q(x, rho))^2. Power form.

    Since rho >= ||x-y||, only pairs closer than eps are candidates. The
    per-pair clearance scans are costly, so above pair_budget the sum is a
    stratified-by-distance estimate (scaled per stratum).  Returns the sum
    ("value"), whether it is exact, and the candidate, evaluated and
    admitted pair counts.
    """
    if pair_budget < 0 or seed < 0:
        raise ConfigError(f"need pair_budget >= 0 and seed >= 0, got {pair_budget} and {seed}")
    _require_finite_p(p)
    _require_scale(eps, "eps")
    f_vals = mu.atom_values(f_vals, "quasidistance pair energy")
    pts, w = mu.points, mu.weights
    n = mu.dim
    later = [js[(js > i) & (d < eps)] for i, js, d in _pair_rows(mu, eps)]
    pairs = np.stack([np.repeat(np.arange(len(later)), [len(js) for js in later]),
                      np.concatenate([np.zeros(0, int), *later])], axis=1)
    exact = len(pairs) <= pair_budget
    if exact:
        sample = pairs
        factors = np.ones(len(pairs))
    else:
        rng = np.random.default_rng(seed)
        d = chebyshev(pts[pairs[:, 0]], pts[pairs[:, 1]])
        edges = np.quantile(d, np.linspace(0, 1, 11))
        stratum = np.clip(np.searchsorted(edges, d, side="right") - 1, 0, 9)
        sample_idx = []
        factors = []
        for s in range(10):
            members = np.nonzero(stratum == s)[0]
            if len(members) == 0:
                continue
            take = max(1, int(round(pair_budget * len(members) / len(pairs))))
            take = min(take, len(members))
            picked = rng.choice(members, size=take, replace=False)
            sample_idx.append(np.sort(picked))
            factors.append(np.full(take, len(members) / take))
        sample = pairs[np.concatenate(sample_idx)]
        factors = np.concatenate(factors)
    rhos, _, _ = S.quasidistances(pts[sample[:, 0]], pts[sample[:, 1]], alpha=alpha)
    admitted = rhos < eps
    sample, factors, rhos = sample[admitted], factors[admitted], rhos[admitted]
    masses_i = mu.ball_mass(pts[sample[:, 0]], rhos).tolist()
    masses_j = mu.ball_mass(pts[sample[:, 1]], rhos).tolist()
    total = 0.0
    for (i, j), scale, rho, mass_i, mass_j in zip(
        sample, factors, rhos.tolist(), masses_i, masses_j
    ):
        kern = rho ** (n - p)
        contrib = np.abs(f_vals[i] - f_vals[j]) ** p * kern
        # both pair orders, each with its own square-kernel mass
        term = 0.0
        if mass_i > 0:
            term += w[i] * w[j] * contrib / mass_i ** 2
        if mass_j > 0:
            term += w[j] * w[i] * contrib / mass_j ** 2
        total += float(scale) * term
    return {
        "value": total,
        "exact": exact,
        "candidate_pairs": int(len(pairs)),
        "evaluated_pairs": int(len(admitted)),
        "admitted_pairs": int(admitted.sum()),
    }


# -- Besov-scale functionals -------------------------------------------


def besov_trace_functional_jonsson(
    mu: DiscreteMeasure, f_vals, s: float, p: float, q: float, level_floor: float
) -> float:
    """Dyadic-level trace functional: L_p(mu) norm plus the l_q sum over
    levels 2^-nu >= level_floor of 2^(nu(s - n/p)) times the product-kernel
    pair energy at threshold 2^-nu (to the 1/p). Finite p, q only."""
    n = mu.dim
    if not (0 < p < np.inf and 0 < q < np.inf):
        raise ConfigError("only finite p, q > 0 are implemented")
    if not (n / p < s < 1):
        raise ConfigError(f"need n/p < s < 1, got s={s}, p={p}, n={n}")
    if not level_floor > 0:
        raise ConfigError(f"need level_floor > 0, got {level_floor}")
    f_vals = mu.atom_values(f_vals, "Jonsson trace functional")
    base = mu.lp_norm(f_vals, p)
    acc = 0.0
    nu = 0
    while 2.0 ** -nu >= level_floor * (1 - 1e-12):
        t = 2.0 ** -nu
        # undo the t^(n-p) prefactor; the level weight carries the scaling
        energy = local_pair_energy(mu, f_vals, t, p, kernel="product")
        energy *= t ** (p - n)
        acc += (2 ** (nu * (s - n / p)) * energy ** (1.0 / p)) ** q
        nu += 1
    return base + acc ** (1.0 / q)


def dset_besov_norm(mu: DiscreteMeasure, f_vals, s: float, p: float, d: float) -> float:
    """Direct intrinsic Besov norm on a d-dimensional support:
    L_p(mu) norm plus the classical double sum with kernel
    |f(x)-f(y)|^p / ||x-y||^(d + s p) over pairs closer than 1, for
    0 < s < 1 and a finite d > 0."""
    _require_finite_p(p)
    if not (0 < s < 1 and np.isfinite(d) and d > 0):
        raise ConfigError(f"d-set Besov norm needs 0 < s < 1 and a finite d > 0, "
                          f"got s={s}, d={d}")
    f_vals = mu.atom_values(f_vals, "d-set Besov norm")
    w = mu.weights
    total = 0.0
    for i, js, dist in _pair_rows(mu, 1.0):
        sel = (dist > 0) & (dist < 1.0)
        j = js[sel]
        num = w[i] * w[j] * np.abs(f_vals[i] - f_vals[j]) ** p
        total += float(np.sum(num / dist[sel] ** (d + s * p)))
    return mu.lp_norm(f_vals, p) + total ** (1.0 / p)


def averaged_modulus_w1(mu: DiscreteMeasure, f_vals, t: float, p: float) -> float:
    """Averaged smoothness modulus: t times the p-th root of the
    square-kernel pair energy at scale t."""
    return t * local_pair_energy(mu, f_vals, t, p, kernel="square") ** (1.0 / p)
