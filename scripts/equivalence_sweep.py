"""Sweep the intrinsic-vs-extension equivalence over several estimators.

Writes one report JSON per (theorem, set) pair plus a summary CSV of ratio
spreads and refinement deltas.  The default sweep covers every estimator
that runs on thin sets at desk scale; expect a few minutes.
"""

from __future__ import annotations

import argparse
import csv
import time
from dataclasses import dataclass, field
from pathlib import Path

from sobtrace.verify import verify_equivalence


@dataclass
class SweepConfig:
    out_dir: Path = Path("sweep_out")
    family: str = "restrictions-of-smooth"
    p: float = 3.0
    seed: int = 0
    jobs: list = field(
        default_factory=lambda: [
            # (theorem, set, h-levels)
            ("T11", "segment-1d-in-2d", (1 / 128, 1 / 256)),
            ("T11", "cantor-1d", (1 / 512, 1 / 1024)),
            ("T14i", "segment-1d-in-2d", (1 / 128, 1 / 256)),
            ("T14ii", "segment-1d-in-2d", (1 / 64, 1 / 128)),
            ("T12", "segment-1d-in-2d", (1 / 64, 1 / 128)),
            ("T24", "segment-1d-in-2d", (1 / 64, 1 / 128)),
            ("T25", "segment-1d-in-2d", (1 / 64, 1 / 128)),
            ("T26", "segment-1d-in-2d", (1 / 64, 1 / 128)),
            ("T72", "segment-1d-in-2d", (1 / 64, 1 / 128)),
            ("T715", "segment-1d-in-2d", (1 / 64, 1 / 128)),
            ("T723", "segment-1d-in-2d", (1 / 64, 1 / 128)),
            ("T723", "cantor-1d", (1 / 256, 1 / 512)),
            ("decomposed", "solid-square", (1 / 32, 1 / 64)),
        ]
    )


def run(cfg: SweepConfig) -> list[dict]:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for theorem, set_name, levels in cfg.jobs:
        t0 = time.perf_counter()
        rep = verify_equivalence(theorem, set_name, cfg.family, levels, p=cfg.p, seed=cfg.seed)
        dt = time.perf_counter() - t0
        rep.save(cfg.out_dir / f"{theorem}_{set_name}.json")
        spreads = [s["spread"] for s in rep.ratio_stats.values() if s["spread"]]
        deltas = [d for ds in rep.refinement_deltas.values() for d in ds]
        row = {
            "theorem": theorem,
            "set": set_name,
            "max_spread": max(spreads) if spreads else float("nan"),
            "max_delta": max(deltas) if deltas else float("nan"),
            "skipped": rep.skipped_near_zero,
            "seconds": round(dt, 2),
        }
        rows.append(row)
        print(
            f"{theorem:<10} {set_name:<18} spread {row['max_spread']:#.3g}  "
            f"delta {row['max_delta']:#.3g}  ({dt:.1f}s)"
        )
    with open(cfg.out_dir / "summary.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return rows


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("sweep_out"))
    ap.add_argument("--family", default="restrictions-of-smooth")
    ap.add_argument("--p", type=float, default=3.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    run(SweepConfig(out_dir=args.out, family=args.family, p=args.p, seed=args.seed))
