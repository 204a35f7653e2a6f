"""Reference computations made apart from the program under test.

Nothing here calls into sobtrace except `collar_profile`, the public bump
profile the dense partition-of-unity route is built on. Distances are
brute-force numpy Chebyshev distances over every sample (no KD-tree), and
sums are vectorised, so a fault in the program's index structures or loops
does not repeat itself here.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 256


def chebyshev_to_samples(samples, x) -> np.ndarray:
    """(len(x), len(samples)) matrix of uniform-norm distances."""
    x = np.atleast_2d(np.asarray(x, float))
    return np.max(np.abs(x[:, None, :] - samples[None, :, :]), axis=-1)


def min_distance(samples, x) -> np.ndarray:
    """Uniform distance from each query point to the nearest sample."""
    x = np.atleast_2d(np.asarray(x, float))
    out = np.empty(len(x))
    for lo in range(0, len(x), _CHUNK):
        out[lo:lo + _CHUNK] = chebyshev_to_samples(samples, x[lo:lo + _CHUNK]).min(axis=1)
    return out


def lex_nearest(samples, x, tol: float = 1e-12) -> np.ndarray:
    """Index of the nearest sample to each point; ties go to the
    lexicographically smallest sample (first coordinate primary)."""
    x = np.atleast_2d(np.asarray(x, float))
    lex_rank = np.empty(len(samples), int)
    lex_rank[np.lexsort(samples.T[::-1])] = np.arange(len(samples))
    out = np.empty(len(x), int)
    for lo in range(0, len(x), _CHUNK):
        d = chebyshev_to_samples(samples, x[lo:lo + _CHUNK])
        best = d.min(axis=1, keepdims=True)
        tied = d <= best + tol * (1.0 + best)
        rank = np.where(tied, lex_rank[None, :], len(samples))
        out[lo:lo + _CHUNK] = np.argmin(rank, axis=1)
    return out


def pairwise_disjoint(centers, radii, tol: float = 1e-12) -> bool:
    """True when the closed cubes Q(center, radius) have pairwise disjoint
    interiors: on some axis the centre gap reaches the radius sum."""
    centers = np.atleast_2d(np.asarray(centers, float))
    radii = np.asarray(radii, float)
    for lo in range(0, len(centers), _CHUNK):
        c = centers[lo:lo + _CHUNK]
        gap = np.max(np.abs(c[:, None, :] - centers[None, :, :]), axis=-1)
        reach = radii[lo:lo + _CHUNK, None] + radii[None, :]
        overlap = gap < reach - tol
        overlap[np.arange(len(c)), lo + np.arange(len(c))] = False
        if overlap.any():
            return False
    return True


def dense_bumps(collar_profile, centers, radii, x) -> np.ndarray:
    """(len(x), cubes) raw bump values, the product of the collar profile
    over axes, evaluated for every cube (no support search)."""
    x = np.atleast_2d(np.asarray(x, float))
    out = np.ones((len(x), len(radii)))
    for a in range(x.shape[1]):
        out *= collar_profile((x[:, a, None] - centers[None, :, a]) / radii[None, :])
    return out


def dset_besov_norm(points, weights, f, s: float, p: float, d: float,
                    max_sep: float = 1.0) -> float:
    """L_p(mu) norm plus the double sum of w_x w_y |f(x)-f(y)|^p /
    |x-y|^(d+sp) over pairs with 0 < |x-y| < max_sep, in blocks of rows."""
    points = np.atleast_2d(np.asarray(points, float))
    weights = np.asarray(weights, float)
    f = np.asarray(f, float)
    total = 0.0
    for lo in range(0, len(points), _CHUNK):
        dist = chebyshev_to_samples(points, points[lo:lo + _CHUNK])
        keep = (dist > 0) & (dist < max_sep)
        num = (weights[lo:lo + _CHUNK, None] * weights[None, :]
               * np.abs(f[lo:lo + _CHUNK, None] - f[None, :]) ** p)
        safe = np.where(keep, dist, 1.0)
        total += float(np.sum(np.where(keep, num / safe ** (d + s * p), 0.0)))
    lp = float(np.sum(weights * np.abs(f) ** p) ** (1.0 / p))
    return lp + total ** (1.0 / p)


def besov_tail(ts, gs, s: float, q: float) -> float:
    """Lower Riemann bracket of (int (G(t)/t^s)^q dt/t)^(1/q) on the ladder."""
    ts = np.asarray(ts, float)
    gs = np.asarray(gs, float)
    sq = s * q
    weights = (ts[:-1] ** (-sq) - ts[1:] ** (-sq)) / sq
    return float(np.sum(gs[:-1] ** q * weights)) ** (1.0 / q)


def loglog_slope(hs, values) -> float:
    """Least-squares slope of log(value) against log(1/h)."""
    return float(np.polyfit(np.log(1.0 / np.asarray(hs, float)),
                            np.log(np.asarray(values, float)), 1)[0])


def rel_err(a, b) -> float:
    """Largest |a-b| / max(|a|, |b|, 1e-300) over the entries."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
    return float(np.max(np.abs(a - b) / scale, initial=0.0))


def spread(values) -> float:
    values = np.asarray(values, float)
    return float(values.max() / values.min())
