"""Diagnostics table for the canonical set catalog.

For each set: point count, measure mass, fitted growth exponent with the
per-region drift, doubling constant, and the ball-condition estimate.
Useful for eyeballing which set is a d-set and which only carries a
doubling measure.
"""

from __future__ import annotations

import argparse

from sobtrace.canonical import (
    CANONICAL_NAMES,
    CanonicalSpec,
    check_canonical,
    generate_canonical,
)
from sobtrace.cli import _parse_level
from sobtrace.measures import measure_diagnostics


def main(h: float, seed: int) -> None:
    header = (
        f"{'set':<18} {'pts':>6} {'mass':>8} {'d-fit':>6} {'drift':>6} "
        f"{'doubling':>8} {'ball':>5} {'checks':>7}"
    )
    print(header)
    print("-" * len(header))
    for name in CANONICAL_NAMES:
        S, mu = generate_canonical(CanonicalSpec(name, h))
        diag = measure_diagnostics(mu, seed=seed)
        ball = "yes" if S.ball_condition_estimate(seed=seed).satisfied else "no"
        verdict = "ok" if check_canonical(S, mu, name, seed=seed)["pass"] else "FAIL"
        print(
            f"{name:<18} {len(S.points):>6} {mu.total:>8.4f} "
            f"{diag.dset_exponent:>6.3f} {diag.exponent_drift:>6.3f} "
            f"{diag.doubling_constant:>8.2f} {ball:>5} {verdict:>7}"
        )


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--h", type=_parse_level, default=1 / 128, help="resolution, e.g. 1/128")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    main(args.h, args.seed)
