"""Regular grid fields over a box: the container for extended functions."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .util import ConfigError

__all__ = ["GridField"]


@dataclass(eq=False)
class GridField:
    """Function values on the lattice box_lo + i * h (nodes, inclusive ends)."""

    box: np.ndarray  # (n, 2)
    h: float
    values: np.ndarray

    def __post_init__(self):
        self.box = np.asarray(self.box, float)
        self.values = np.asarray(self.values, float)
        expected = self.shape_for(self.box, self.h)
        if tuple(self.values.shape) != expected:
            raise ConfigError(
                f"grid shape {self.values.shape} does not match box/h {expected}"
            )

    @staticmethod
    def shape_for(box, h) -> tuple:
        box = np.asarray(box, float)
        if box.ndim != 2 or box.shape[1] != 2 or not box.size or not np.isfinite(box).all():
            raise ConfigError(f"grid box must be a finite (n, 2) array, got {box.tolist()}")
        if not 0 < h < np.inf:
            raise ConfigError(f"grid step h must be finite and > 0, got {h}")
        ratio = (box[:, 1] - box[:, 0]) / h
        if not np.all((ratio >= 0) & (ratio < 2.0 ** 31)):
            raise ConfigError(f"box/h gives {ratio.tolist()} cells per axis, not in [0, 2^31)")
        if np.any(np.abs(ratio - np.round(ratio)) > 1e-6):
            raise ConfigError("box extents must be integer multiples of h")
        return tuple(int(c) for c in np.round(ratio).astype(int) + 1)

    @property
    def dim(self) -> int:
        return self.box.shape[0]

    def axes(self) -> list:
        return [
            self.box[a, 0] + np.arange(self.values.shape[a]) * self.h
            for a in range(self.dim)
        ]

    def nodes(self, flat=None) -> np.ndarray:
        """Node coordinates as (rows, dim): of the nodes at the flat indices
        flat, or of every node in flat order; each is read off axes()."""
        shape = self.values.shape
        idx = np.indices(shape, sparse=True) if flat is None else np.unravel_index(flat, shape)
        out = np.empty(np.broadcast_shapes(*(i.shape for i in idx)) + (self.dim,))
        for a, (x, i) in enumerate(zip(self.axes(), idx)):
            out[..., a] = x[i]
        return out.reshape(-1, self.dim)

    @classmethod
    def from_function(cls, box, h, fn) -> "GridField":
        box = np.asarray(box, float)
        shape = cls.shape_for(box, h)
        field = cls(box, h, np.zeros(shape))
        vals = np.asarray(fn(field.nodes()), float).reshape(shape)
        field.values = vals
        return field

    def cell_lp(self, p: float, mask: np.ndarray | None = None) -> float:
        """Lattice L_p norm: cell sums scaled by h^n; max norm for p = inf."""
        if mask is None:
            v = np.abs(self.values)
        else:
            v = self.values[mask]  # a boolean mask selects a copy
            np.abs(v, out=v)
        if v.size == 0:
            return 0.0
        if np.isinf(p):
            return float(v.max())
        # **= keeps numpy's scalar-exponent fast paths, so the bits are v ** p's
        v **= p
        return float((np.sum(v) * self.h ** self.dim) ** (1.0 / p))

    # -- serialization: JSON header plus binary or CSV payload ----------

    def save(self, path, fmt: str = "binary"):
        path = Path(path)
        header = {
            "box": self.box.tolist(),
            "h": self.h,
            "shape": list(self.values.shape),
            "format": fmt,
        }
        path.with_suffix(".json").write_text(json.dumps(header, sort_keys=True))
        if fmt == "binary":
            self.values.astype("<f8").tofile(path.with_suffix(".bin"))
        elif fmt == "csv":
            np.savetxt(path.with_suffix(".csv"), self.values.reshape(-1), fmt="%.17g")
        else:
            raise ConfigError(f"unknown grid format {fmt!r}")

    @staticmethod
    def load(path) -> "GridField":
        path = Path(path)
        try:
            header = json.loads(path.with_suffix(".json").read_text())
            shape, fmt = tuple(header["shape"]), header["format"]
            if fmt == "binary":
                vals = np.fromfile(path.with_suffix(".bin"), dtype="<f8").reshape(shape)
            elif fmt != "csv":
                raise ConfigError(f"unknown grid format {fmt!r}")
            else:
                vals = np.loadtxt(path.with_suffix(".csv")).reshape(shape)
            box, h = np.array(header["box"], float), float(header["h"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"cannot read grid {path}: {exc}") from None
        if not np.all(np.isfinite(vals)):
            raise ConfigError(f"grid {path} holds a non-finite value")
        return GridField(box, h, vals)
