"""Shared helpers: uniform-norm geometry, dyadic ladders, scale integrals, JSON input."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "ConfigError",
    "NumericalFailure",
    "OutOfDomainError",
    "chebyshev",
    "dyadic_ladder",
    "lex_order",
    "IntegralBracket",
    "besov_scale_integral",
    "check_finite",
    "json_text",
    "read_json",
]


class ConfigError(ValueError):
    """Invalid configuration or parameters outside a documented range."""


class NumericalFailure(RuntimeError):
    """A computation produced NaN/inf where a finite value was required."""


class OutOfDomainError(ValueError):
    """A query point lies outside the domain a structure was built for."""


def read_json(path, what: str):
    """The JSON value in a file; a missing, unreadable or non-JSON file is a
    config error naming `what` the file was meant to hold."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None


def chebyshev(a, b):
    """Uniform-norm (max) distance between points; broadcasts over leading axes."""
    return np.max(np.abs(np.asarray(a, float) - np.asarray(b, float)), axis=-1)


def dyadic_ladder(lo: float, hi: float) -> np.ndarray:
    """Ascending scales hi, hi/2, hi/4, ... down to the last value >= lo."""
    if not (0 < lo <= hi < np.inf):
        raise ConfigError(f"need 0 < lo <= hi < inf, got lo={lo}, hi={hi}")
    out = []
    t = float(hi)
    # tiny slack so lo itself survives float division
    while t >= lo * (1 - 1e-12):
        out.append(t)
        t *= 0.5
    return np.array(out[::-1])


def lex_order(points: np.ndarray) -> np.ndarray:
    """Indices sorting rows lexicographically (first coordinate primary)."""
    pts = np.atleast_2d(np.asarray(points, float))
    return np.lexsort(pts.T[::-1])


@dataclass(frozen=True)
class IntegralBracket:
    """Lower/upper Riemann brackets of a scale integral over the resolved range.

    The unresolved tail below the finest scale is not included; divergence is
    judged by callers from growth of the lower bracket under grid refinement.
    """

    lower: float
    upper: float

    @property
    def value(self) -> float:
        return self.lower


def besov_scale_integral(ts: np.ndarray, gs: np.ndarray, s: float, q: float) -> IntegralBracket:
    """Brackets of integral of (G(t)/t^s)^q dt/t, i.e. G^q * t^(-sq-1) dt,
    over [ts[0], ts[-1]]; s = 1, q = p gives G^p * t^(-p-1) dt.

    ts must be ascending; G is treated as nondecreasing, so on each cell the
    left value gives the lower bracket and the right value the upper one.
    """
    ts = np.asarray(ts, float)
    gs = np.asarray(gs, float)
    if ts.size < 2:
        return IntegralBracket(0.0, 0.0)
    sq = s * q
    t0, t1 = ts[:-1], ts[1:]
    weights = (t0 ** (-sq) - t1 ** (-sq)) / sq
    lo = float(np.sum(gs[:-1] ** q * weights))
    hi = float(np.sum(gs[1:] ** q * weights))
    return IntegralBracket(lo, hi)


def check_finite(value, what: str):
    """Raise NumericalFailure when a result that must be finite is not."""
    arr = np.asarray(value, float)
    if not np.all(np.isfinite(arr)):
        raise NumericalFailure(f"non-finite value in {what}")
    return value


def _json_default(obj):
    """json.dumps default hook for numpy scalars/arrays and to_json objects."""
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if hasattr(obj, "to_json"):
        return obj.to_json()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def json_text(payload, name: str) -> str:
    """The JSON text of every report and CLI output: indented, keys sorted.
    NaN and Infinity are not JSON (RFC 8259), so a non-finite value anywhere
    is a NumericalFailure naming the output."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, default=_json_default, allow_nan=False)
    except ValueError:
        raise NumericalFailure(f"{name} would hold a non-finite value") from None
