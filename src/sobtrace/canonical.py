"""Catalog of benchmark sets, their natural measures, and test functions.

Every generator is deterministic at a fixed resolution so that experiment
reports can be reproduced byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .measures import (
    DiscreteMeasure,
    arc_length_measure,
    cell_area_measure,
    counting_measure,
    measure_diagnostics,
)
from .sets import ClosedSet, solid_set, thin_set
from .util import ConfigError, chebyshev, lex_order

CANONICAL_NAMES = (
    "two-points",
    "segment-1d-in-2d",
    "cantor-1d",
    "example-726",
    "solid-disk",
    "solid-square",
    "axis-line",
)

# diagnostics each generator must pass, checked by check_canonical
_DECLARED = {
    "two-points": (),
    "segment-1d-in-2d": ("dset-1", "ball-condition"),
    "cantor-1d": ("dset-cantor", "ball-condition"),
    "example-726": ("doubling", "ball-condition", "non-dset"),
    "solid-disk": ("regular",),
    "solid-square": ("regular",),
    "axis-line": ("regular",),
}

CANTOR_DIMENSION = math.log(2) / math.log(3)


@dataclass(frozen=True)
class CanonicalSpec:
    """Name plus resolution for one catalog entry."""

    name: str
    h: float = 1 / 128

    def __post_init__(self):
        if self.name not in CANONICAL_NAMES:
            raise ConfigError(f"unknown canonical set {self.name!r}")
        if not 0 < self.h <= 1 / 32:
            raise ConfigError("resolution h must lie in (0, 1/32]")


@dataclass(eq=False)
class SampledFunction:
    """Values attached to the sample points of a set.

    source, when present, is a callable on (..., n) coordinate arrays whose
    restriction to the set reproduces values; used for comparisons against
    full-grid norms.
    """

    set: ClosedSet
    values: np.ndarray
    name: str
    source: Callable | None = None

    def __post_init__(self):
        self.values = self.set.sample_values(self.values, "a sampled function")
        if not np.all(np.isfinite(self.values)):
            raise ConfigError("sampled values must be finite")


def generate_canonical(spec: CanonicalSpec) -> tuple[ClosedSet, DiscreteMeasure]:
    """Build the named set and its natural measure at resolution spec.h."""
    return _GENERATORS[spec.name](spec.h)


def _gen_two_points(h):
    S = thin_set(np.array([[0.0], [1.0]]), h=h, name="two-points")
    return S, counting_measure(S)


def _gen_segment(h):
    m = round(1 / h) + 1
    pts = np.hstack([np.linspace(0, 1, m)[:, None], np.zeros((m, 1))])
    S = thin_set(pts, h=h, name="segment-1d-in-2d")
    return S, arc_length_measure(pts, h=1 / (m - 1))


def _gen_cantor(h):
    level = 0
    while 3.0 ** (-level) > h:
        level += 1
    lefts = np.array([0.0])
    for _ in range(level):
        lefts = np.concatenate([lefts / 3, lefts / 3 + 2 / 3])
    width = 3.0 ** (-level)
    pts = np.sort(np.concatenate([lefts, lefts + width]))[:, None]
    # each construction interval carries mass 2^-level, split over its ends
    w = np.full(len(pts), 2.0 ** (-level) / 2)
    S = thin_set(pts, h=h, name="cantor-1d")
    return S, DiscreteMeasure(pts, w, name="cantor-natural")


def _gen_comb(h):
    """Vertical segments x1 = 2^-i of height 4^-i accumulating at the origin.

    Segments shorter than h degrade to single points; stems closer to the
    origin than h are lumped into it so total mass is preserved.
    """
    pts, wts = [], []
    i = 0
    while 4.0 ** (-i) >= h:
        height = 4.0 ** (-i)
        m = math.ceil(height / h) + 1
        x2 = np.linspace(0, height, m)
        seg = np.column_stack([np.full(m, 2.0 ** (-i)), x2])
        w = np.full(m, height / (m - 1))
        w[0] /= 2
        w[-1] /= 2
        pts.append(seg)
        wts.append(w)
        i += 1
    while 2.0 ** (-i) >= h:
        pts.append(np.array([[2.0 ** (-i), 0.0]]))
        wts.append(np.array([4.0 ** (-i)]))
        i += 1
    pts.append(np.array([[0.0, 0.0]]))
    wts.append(np.array([4.0 ** (-i) / 3 * 4]))  # geometric tail sum
    pts = np.vstack(pts)
    wts = np.concatenate(wts)
    S = thin_set(pts, h=h, name="example-726")
    return S, DiscreteMeasure(pts, wts, name="comb-length")


def _gen_disk(h):
    m = round(1 / h)
    c = (np.arange(m) + 0.5) * h
    cx, cy = np.meshgrid(c, c, indexing="ij")
    occ = (cx - 0.5) ** 2 + (cy - 0.5) ** 2 <= 0.45 ** 2
    S = solid_set(occ, h=h, origin=np.zeros(2), name="solid-disk")
    return S, cell_area_measure(S)


def _gen_square(h):
    m = round(1 / h)
    S = solid_set(np.ones((m, m), bool), h=h, origin=np.zeros(2), name="solid-square")
    return S, cell_area_measure(S)


def _gen_axis_line(h):
    m = round(1 / h)
    S = solid_set(np.ones(m, bool), h=h, origin=np.zeros(1), name="axis-line")
    return S, cell_area_measure(S)


_GENERATORS = {
    "two-points": _gen_two_points,
    "segment-1d-in-2d": _gen_segment,
    "cantor-1d": _gen_cantor,
    "example-726": _gen_comb,
    "solid-disk": _gen_disk,
    "solid-square": _gen_square,
    "axis-line": _gen_axis_line,
}


def comb_mass_law(x, r):
    """Piecewise growth envelope for the comb measure: r^2 near the origin,
    frozen at ||x||^2 across the stem gap, linear below segment height."""
    x = np.asarray(x, float)
    r = np.asarray(r, float)
    nx = np.max(np.abs(x), axis=-1)
    return np.where(nx <= r, r * r, np.where(nx * nx <= r, nx * nx, r))


def regularity_estimate(S: ClosedSet, mu: DiscreteMeasure, seed: int = 0) -> float:
    """Worst cube-volume to occupied-volume ratio over 60 sampled cubes
    centered in the set; near 1 on fat sets, unbounded on thin ones."""
    rng = np.random.default_rng(seed)
    m = len(S.points)
    idx = np.arange(m) if m <= 60 else np.sort(rng.choice(m, size=60, replace=False))
    extent = S.extent
    radii = [r for r in 2.0 ** -np.arange(1, 10) if 4 * S.h <= r <= extent / 2]
    worst = 0.0
    for r in radii:
        mass = mu.ball_mass(S.points[idx], r)
        ok = mass > 0
        if ok.any():
            worst = max(worst, float(np.max((2 * r) ** S.dim / mass[ok])))
    return worst


def check_canonical(S: ClosedSet, mu: DiscreteMeasure, name: str, seed: int = 0) -> dict:
    """Run the diagnostics declared for the named generator.

    Returns {"pass": bool, "checks": {tag: (ok, value)}}.
    """
    if name not in _DECLARED:
        raise ConfigError(f"unknown canonical set {name!r}")
    checks = {}
    tags = _DECLARED[name]
    diag = None
    if {"dset-1", "dset-cantor", "doubling", "non-dset"} & set(tags):
        diag = measure_diagnostics(mu, seed=seed)
    for tag in tags:
        if tag == "dset-1":
            val = diag.dset_exponent
            checks[tag] = (abs(val - 1.0) <= 0.05, val)
        elif tag == "dset-cantor":
            val = diag.dset_exponent
            checks[tag] = (abs(val - CANTOR_DIMENSION) <= 0.15, val)
        elif tag == "doubling":
            val = diag.doubling_constant
            checks[tag] = (val <= 64.0, val)
        elif tag == "non-dset":
            val = diag.exponent_drift
            checks[tag] = (val >= 0.6, val)
        elif tag == "ball-condition":
            est = S.ball_condition_estimate(seed=seed)
            checks[tag] = (est.satisfied, est.beta_hat)
        elif tag == "regular":
            val = regularity_estimate(S, mu, seed=seed)
            checks[tag] = (val <= 10.0, val)
    return {"pass": all(ok for ok, _ in checks.values()), "checks": checks}


# -- function families -------------------------------------------------


def _coords(pts):
    x = pts[..., 0]
    y = pts[..., 1] if pts.shape[-1] > 1 else np.zeros_like(x)
    return x, y


def _smooth_fields():
    def make(expr):
        def f(pts):
            x, y = _coords(np.asarray(pts, float))
            return expr(x, y)

        return f

    return [
        make(lambda x, y: np.sin(2 * x)),
        make(lambda x, y: np.cos(x + 2 * y)),
        make(lambda x, y: x ** 2 - y),
        make(lambda x, y: np.exp(-x)),
        make(lambda x, y: x * y + 0.5 * x),
        make(lambda x, y: np.sin(3 * x) * np.cos(2 * y)),
        make(lambda x, y: 1.0 / (1.0 + x ** 2 + y ** 2)),
        make(lambda x, y: 0.1 * (x + y) ** 3),
    ]


def _bump_field(center, radius):
    center = np.asarray(center, float)

    def f(pts):
        pts = np.asarray(pts, float)
        s2 = np.sum((pts - center) ** 2, axis=-1) / radius ** 2
        out = np.zeros_like(s2)
        inside = s2 < 1
        out[inside] = np.exp(1 - 1 / (1 - s2[inside]))
        return out

    return f


def _hoelder_fields(S, beta):
    order = lex_order(S.points)
    lo, hi = S.points[order[0]], S.points[order[-1]]
    extent = S.extent
    # roughness down to the sample resolution, not merely at one cusp:
    # a lacunary cosine sum is the member that actually sits on the
    # smoothness line everywhere
    levels = max(1, int(math.floor(math.log2(extent / S.h))))
    direction = np.array([0.786, 0.618][: S.dim])

    def cusp(pts):
        return chebyshev(np.asarray(pts, float), lo) ** beta

    def capped(pts):
        d = chebyshev(np.asarray(pts, float), hi)
        return np.maximum(0.0, extent / 2 - d) ** beta

    def lacunary(pts):
        t = np.asarray(pts, float) @ direction
        out = np.zeros_like(t)
        for k in range(levels + 1):
            out += 2.0 ** (-beta * k) * np.cos(2.0 ** k * 2 * np.pi * t / extent + 1.7 * k)
        return out

    return [cusp, capped, lacunary]


def _random_lipschitz_field(S, seed):
    rng = np.random.default_rng(seed)
    k = min(8, len(S.points))
    anchors = S.points[rng.choice(len(S.points), size=k, replace=False)]
    offsets = rng.uniform(0, 1, size=k)

    def f(pts):
        pts = np.asarray(pts, float)
        d = chebyshev(pts[..., None, :], anchors)
        return np.min(offsets + d, axis=-1)

    return f


def test_function_family(name: str, S: ClosedSet) -> list[SampledFunction]:
    """Deterministic families: restrictions-of-smooth, hoelder(beta), linear,
    bump, random-lipschitz(seed)."""
    base, arg = name, None
    if "(" in name:
        if not name.endswith(")"):
            raise ConfigError(f"malformed family name {name!r}")
        base, raw = name[:-1].split("(", 1)
        arg = float(raw)
    out = []
    if base == "restrictions-of-smooth":
        for i, f in enumerate(_smooth_fields()):
            out.append(
                SampledFunction(S, f(S.points), f"smooth-{i}", source=f)
            )
    elif base == "hoelder":
        if arg is None or not 0 < arg <= 1:
            raise ConfigError("hoelder needs an exponent in (0, 1]")
        for i, f in enumerate(_hoelder_fields(S, arg)):
            out.append(SampledFunction(S, f(S.points), f"hoelder{arg}-{i}", source=f))
    elif base == "linear":
        slopes = [(1.0, 2.0), (-1.0, 1.0), (0.5, 0.0)]
        for i, a in enumerate(slopes):
            vec = np.array(a[: S.dim])
            f = lambda pts, v=vec: np.asarray(pts, float) @ v
            out.append(SampledFunction(S, f(S.points), f"linear-{i}", source=f))
    elif base == "bump":
        center = S.points.mean(axis=0)
        for i, frac in enumerate((0.25, 0.4, 0.6)):
            f = _bump_field(center, frac * S.extent)
            out.append(SampledFunction(S, f(S.points), f"bump-{i}", source=f))
    elif base == "random-lipschitz":
        if arg is None:
            raise ConfigError("random-lipschitz needs a seed")
        for i in range(3):
            f = _random_lipschitz_field(S, int(arg) + i)
            out.append(SampledFunction(S, f(S.points), f"rlip{int(arg)}-{i}", source=f))
    else:
        raise ConfigError(f"unknown function family {name!r}")
    return out
