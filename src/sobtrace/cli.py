"""Command line front end.

Subcommands: whitney (decompose + contract report), extend (sample the
extension on a grid), functional (evaluate one functional from a JSON
config), tracenorm (trace-norm estimate with breakdown), verify
(equivalence experiment), demo (acceptance suite / deterministic report
pipeline).  Exit codes: 0 ok, 2 config error (non-finite function values,
a measure whose support misses the set, a measure with one atom per sample
whose atom i is not within h/2 of sample i, and function values read
against a measure with another number of atoms included), 3 numerical
failure (a non-finite result or a float overflow).

Each value has one source, and every config key is read or refused. A
config key that the command does not read exits 2, and so does a value
given twice or a flag that does not apply: --set with --canonical and
--function with --family (argparse refuses them), --measure without --set,
--member without --family, --h with --set, and a verify flag (--theorem,
--canonical, --family, --h-levels, --pair-budget, the global --seed) beside
the config key that gives the same value.  functional and tracenorm take
the global --seed as their config's seed key, by the same rule, so a
functional or theorem that reads no seed refuses it; extend reads no seed
and refuses --seed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import inspect
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .canonical import CANONICAL_NAMES, CanonicalSpec, generate_canonical
from .canonical import test_function_family as function_family
from .grid import GridField
from .measures import (
    A_p_mu,
    DiscreteMeasure,
    averaged_modulus_w1,
    besov_trace_functional_jonsson,
    counting_measure,
    distance_pair_energy,
    dset_besov_norm,
    local_pair_energy,
    measure_diagnostics,
    quasidistance_pair_energy,
)
from .norms import TraceEstimateConfig, grid_sobolev_norms, theorem_spec, trace_estimate
from .oscillation import (
    grid_packing_functional,
    modulus_of_smoothness,
    packing_functional_details,
    sharp_maximal,
)
from .sets import ClosedSet
from .util import (
    ConfigError, NumericalFailure, OutOfDomainError, chebyshev, check_finite, json_text,
    read_json,
)
from .verify import verify_equivalence, whitney_contract_report
from .whitney import extend_grid, whitney_decomposition


def _emit(payload: dict, out: str | None, name: str) -> None:
    text = json_text(payload, name)
    if out:
        path = Path(out)
        path.mkdir(parents=True, exist_ok=True)
        (path / name).write_text(text + "\n")
    else:
        print(text)


_REQUIRED = object()
_KINDS = {"str": str, "float": float, "float | None": float, "int": int, "int | None": int}


class _Config(dict):
    """The JSON object in a --config file (empty without one). It records each
    key read from it, by get() or param(), so that refuse_unread() can refuse
    the rest."""

    def __init__(self, path):
        raw = read_json(path, "config") if path else {}
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        super().__init__(raw)
        self.read = set()
        self.flags = {}  # the keys take() set, and their flags

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def param(self, key: str, default=_REQUIRED, kind=float):
        """self[key] converted by kind, or the default when the key is absent or
        null. A JSON true or false is read only by kind bool, and only a whole
        number by kind int."""
        value = self.get(key)
        if value is None:
            if default is _REQUIRED:
                raise ConfigError(f"config needs a {key!r} key")
            return default
        try:
            if isinstance(value, bool) != (kind is bool) or (
                    kind is int and isinstance(value, float) and not value.is_integer()):
                raise ValueError(value)
            return kind(value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"config key {key!r} has a bad value {value!r}") from None

    def take(self, args, flags) -> None:
        """Set each config key from its flag, for the (flag, key) pairs whose
        flag is given; a key the config gives as well is refused."""
        for flag, key in flags:
            value = getattr(args, flag[2:].replace("-", "_"))
            if value is None:
                continue
            if dict.get(self, key) is not None:
                raise ConfigError(f"{flag} and config key {key!r} give the same value; give one")
            self[key] = value
            self.flags[key] = flag

    def refuse_unread(self, reader: str) -> None:
        unread = set(self) - self.read
        keys = sorted(unread - set(self.flags))
        named = [f"config keys {keys}"] if keys else []
        named += sorted(self.flags[key] for key in unread & set(self.flags))
        if named:
            raise ConfigError(f"{reader} does not read {' or '.join(named)}")


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def _parse_level(token: str) -> float:
    """A resolution such as 0.25 or 1/64; a zero denominator or a non-finite
    value raises ValueError."""
    num, slash, den = token.strip().partition("/")
    den = float(den) if slash else 1.0
    if den == 0:
        raise ValueError(f"zero denominator in {token!r}")
    value = float(num) / den
    if not np.isfinite(value):
        raise ValueError(f"non-finite resolution {token!r}")
    return value


def _parse_levels(text: str) -> list:
    return [_parse_level(tok) for tok in text.split(",") if tok.strip()]


def _load_set(args) -> tuple[ClosedSet, DiscreteMeasure]:
    measure = getattr(args, "measure", None)
    if args.set:
        if args.h is not None:
            raise ConfigError("--h is the resolution of --canonical; a --set file has its own h")
        S = ClosedSet.load(args.set)
        if measure:
            mu = DiscreteMeasure.load(measure)
            if mu.dim != S.dim:
                raise ConfigError(f"measure of dimension {mu.dim} on a set of dimension {S.dim}")
            if len(mu.points) == len(S.points):
                # values are matched to atoms by index, so atom i must sit at sample i
                far = np.flatnonzero(chebyshev(mu.points, S.points) > S.on_set_reach)
                if len(far):
                    i = int(far[0])
                    raise ConfigError(
                        f"measure atom {i} at {mu.points[i].tolist()} is not within h/2 of "
                        f"sample {i} at {S.points[i].tolist()}: a measure with one atom per "
                        "sample must list its atoms in the samples' order")
        else:
            mu = counting_measure(S, normalized=True)
        return S, mu
    if measure:
        raise ConfigError("--measure attaches weights to a --set file; --canonical brings its own")
    if args.canonical:
        h = 1 / 128 if args.h is None else args.h
        return generate_canonical(CanonicalSpec(args.canonical, h))
    raise ConfigError("need --set FILE or --canonical NAME")


def _load_values(args, S: ClosedSet) -> np.ndarray:
    if args.member is not None and not args.family:
        raise ConfigError("--member picks a member of a --family; give --family or drop --member")
    if args.function:
        obj = read_json(args.function, "function")
        try:
            vals = np.asarray(obj.get("values") if isinstance(obj, dict) else obj, float)
        except (TypeError, ValueError):
            vals = None
        if vals is None or vals.ndim != 1:
            raise ConfigError(
                f"function {args.function} must hold a list of numbers or {{\"values\": [...]}}"
            )
        if not np.isfinite(vals).all():
            raise ConfigError(f"function {args.function} holds a non-finite value")
    elif args.family:
        members = function_family(args.family, S)
        idx = args.member or 0
        if not (0 <= idx < len(members)):
            raise ConfigError(
                f"family {args.family!r} has {len(members)} members, got index {idx}"
            )
        vals = members[idx].values
    else:
        raise ConfigError("need --function FILE or --family NAME")
    return S.sample_values(vals, "function")


def _set_flags(sub, with_measure: bool = True) -> None:
    source = sub.add_mutually_exclusive_group()
    source.add_argument("--set", help="ClosedSet JSON file")
    source.add_argument("--canonical", choices=CANONICAL_NAMES, help="generator name")
    sub.add_argument("--h", type=_parse_level, help="resolution for --canonical (default 1/128)")
    if with_measure:
        sub.add_argument("--measure", help="DiscreteMeasure JSON file (with --set)")


def _function_flags(sub) -> None:
    values = sub.add_mutually_exclusive_group()
    values.add_argument("--function", help="JSON file with a values array")
    values.add_argument("--family", help="test family name, e.g. hoelder(0.7)")
    sub.add_argument("--member", type=int, help="family member index (default 0)")


# -- subcommands -------------------------------------------------------


def cmd_whitney(args) -> int:
    S, _ = _load_set(args)
    W = whitney_decomposition(S)
    report = whitney_contract_report(S, W, seed=args.seed or 0)
    slack = 2 * S.h + 1e-12
    dists = S.dist_cube(W.centers, W.radii)
    per_cube_ok = (W.diams - dists <= slack) & (dists - 4 * W.diams <= slack)
    payload = {
        "set": S.name,
        "report": report,
        "pass_count": int(per_cube_ok.sum()),
        "cube_count": len(W),
        "cubes": [
            {"center": c, "radius": r} for c, r in zip(W.centers.tolist(), W.radii.tolist())
        ],
    }
    _emit(payload, args.out, "whitney.json")
    return 0


def cmd_extend(args) -> int:
    if not args.p > 0:
        raise ConfigError(f"extend needs p > 0, got {args.p}")
    if args.delta is not None and not (np.isfinite(args.delta) and args.delta > 0):
        raise ConfigError(f"extend needs a finite delta > 0, got {args.delta}")
    if not np.isfinite(args.cbar):
        raise ConfigError(f"extend needs a finite cbar, got {args.cbar}")
    if args.seed is not None:
        raise ConfigError("extend reads no seed; drop --seed")
    S, _ = _load_set(args)
    vals = _load_values(args, S)
    W = whitney_decomposition(S)
    delta = args.delta if args.delta is not None else S.span
    F = extend_grid(W, vals, delta, args.cbar)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    F.save(out / "extension", fmt=args.format)
    norms = grid_sobolev_norms(F, args.p)
    _emit(
        {
            "set": S.name,
            "delta": delta,
            "cbar": args.cbar,
            "grid_shape": list(F.values.shape),
            "lp": norms.lp,
            "seminorm": norms.seminorm,
            "total": norms.total,
        },
        args.out,
        "extend.json",
    )
    return 0


def _functional_call(kind: str, cfg: _Config, S, mu, vals):
    """The call a functional config asks for, its parameters read from cfg."""
    p = cfg.param("p", 3.0)
    if not p > 0:
        raise ConfigError(f"functional needs p > 0, got {p}")

    def scale():
        t = cfg.param("t")
        if not (np.isfinite(t) and t > 0):
            raise ConfigError(f"functional needs a finite scale t > 0, got {t}")
        return t

    if kind == "packing":
        return partial(
            packing_functional_details, S, vals, scale(), p,
            centers=cfg.get("centers", "set"),
            alpha=cfg.param("alpha", None),
            strong=cfg.param("strong", False, bool),
        )
    if kind == "grid-packing":
        F = GridField.load(cfg.param("field", kind=str))
        return partial(grid_packing_functional, F, scale(), p, details=True)
    if kind == "sharp-maximal":
        x = cfg.param("x", kind=lambda v: np.asarray(v, float))
        return partial(sharp_maximal, S, vals, x, variant=cfg.get("variant", "range_ratio"))
    if kind == "ap-mu":
        return partial(
            A_p_mu, S, mu, vals, scale(), p,
            q=cfg.param("q", 1.0),
            alpha=cfg.param("alpha", None),
            strong=cfg.param("strong", False, bool),
            variant=cfg.get("variant", "pair"),
        )
    if kind == "local-pair-energy":
        return partial(local_pair_energy, mu, vals, scale(), p,
                       kernel=cfg.get("kernel", "square"))
    if kind == "distance-pair-energy":
        return partial(distance_pair_energy, mu, vals, cfg.param("eps"), p)
    if kind == "quasidistance-energy":
        return partial(
            quasidistance_pair_energy, S, mu, vals, cfg.param("eps"), p,
            alpha=cfg.param("alpha", 1 / 15),
            pair_budget=cfg.param("pair_budget", 4000, int),
            seed=cfg.param("seed", 0, int),
        )
    if kind == "besov-dset":
        return partial(dset_besov_norm, mu, vals, cfg.param("s"), p, cfg.param("d", 1.0))
    if kind == "besov-jonsson":
        return partial(
            besov_trace_functional_jonsson, mu, vals, cfg.param("s"), p,
            cfg.param("q", p), cfg.param("level_floor", 4 * S.h),
        )
    if kind == "averaged-modulus":
        return partial(averaged_modulus_w1, mu, vals, scale(), p)
    if kind == "modulus":
        F = GridField.load(cfg.param("field", kind=str))
        return partial(modulus_of_smoothness, F, scale(), p)
    if kind == "measure-diagnostics":
        return partial(measure_diagnostics, mu, seed=cfg.param("seed", 0, int))
    raise ConfigError(f"unknown functional {kind!r}")


def cmd_functional(args) -> int:
    cfg = _Config(args.config)
    kind = cfg.pop("functional", None)
    if not kind:
        raise ConfigError("config needs a 'functional' key")
    cfg.take(args, [("--seed", "seed")])
    S, mu = _load_set(args)
    needs_f = kind not in ("grid-packing", "modulus", "measure-diagnostics")
    vals = _load_values(args, S) if needs_f else None
    call = _functional_call(kind, cfg, S, mu, vals)
    cfg.refuse_unread(f"functional {kind!r}")
    result = call()
    if dataclasses.is_dataclass(result):
        result = dataclasses.asdict(result)
    elif not isinstance(result, dict):
        result = {"value": result}
    if "value" in result:
        check_finite(result["value"], f"functional {kind!r}")
    _emit(
        {"functional": kind, "set": S.name, "params": cfg, "result": result},
        args.out,
        "functional.json",
    )
    return 0


def cmd_tracenorm(args) -> int:
    config = _Config(args.config)
    config.take(args, [("--seed", "seed")])
    # the theorem's own parameters; refuse_unread refuses the others
    spec = theorem_spec(config.param("theorem", kind=str))
    cfg = TraceEstimateConfig(**{
        f.name: config.param(f.name, _REQUIRED if f.default is dataclasses.MISSING else f.default,
                             _KINDS[f.type])
        for f in dataclasses.fields(TraceEstimateConfig)
        if f.default is dataclasses.MISSING or f.name in spec.params
    })
    config.refuse_unread(f"tracenorm {cfg.theorem}")
    S, mu = _load_set(args)
    vals = _load_values(args, S)
    report = trace_estimate(S, vals, cfg, mu=mu)
    _emit({"theorem": cfg.theorem, "set": S.name, **report.to_json()}, args.out, "tracenorm.json")
    if args.out:
        with open(Path(args.out) / "tracenorm.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["term", "value"])
            for key in sorted(report.breakdown):
                writer.writerow([key, repr(report.breakdown[key])])
            writer.writerow(["total", repr(report.value)])
    return 0


# verify's flags and the config keys they set: each value has one source
_VERIFY_FLAGS = (("--theorem", "theorem"), ("--canonical", "set"), ("--family", "family"),
                 ("--h-levels", "h_levels"), ("--pair-budget", "pair_budget"), ("--seed", "seed"))


def cmd_verify(args) -> int:
    cfg = _Config(args.config)
    cfg.take(args, _VERIFY_FLAGS)
    keywords = {
        par.name: cfg.param(par.name, par.default, _KINDS[par.annotation])
        for par in inspect.signature(verify_equivalence).parameters.values()
        if par.kind is par.KEYWORD_ONLY
    }
    theorem = cfg.param("theorem", None, str)
    set_name = cfg.param("set", None, str)
    family = cfg.param("family", "restrictions-of-smooth", str)
    levels = cfg.param("h_levels", None, lambda v: [float(h) for h in v])
    cfg.refuse_unread("verify")
    if not theorem or not set_name:
        raise ConfigError("verify needs a theorem id and a canonical set name")
    text = verify_equivalence(theorem, set_name, family, levels, **keywords).dumps()
    if args.out:
        path = Path(args.out)
        path.mkdir(parents=True, exist_ok=True)
        (path / "report.json").write_text(text)
    else:
        print(text)
    return 0


def cmd_demo(args) -> int:
    from . import acceptance

    out = Path(args.out or "demo_out")
    out.mkdir(parents=True, exist_ok=True)
    seed = args.seed or 0
    if args.profile == "quick":
        acceptance.quick_reports(out, seed=seed)
        print(f"wrote quick report files to {out}")
        return 0
    results = acceptance.run_all(out_dir=out, seed=seed)
    width = max(len(r.label) for r in results)
    for r in results:
        print(f"{r.label:<{width}}  {'pass' if r.passed else 'FAIL'}  {r.detail}")
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} criteria passed")
    return 0 if n_fail == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sobtrace",
        description="trace-norm functionals and Whitney extension experiments",
    )
    parser.add_argument("--seed", type=_seed, help="random seed (default 0)")
    parser.add_argument("--out", help="output directory (default: print JSON)")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("whitney", help="decompose the complement, check the contract")
    _set_flags(s, with_measure=False)
    s.set_defaults(func=cmd_whitney)

    s = sub.add_parser("extend", help="sample the extension operator on a grid")
    _set_flags(s, with_measure=False)
    _function_flags(s)
    s.add_argument("--delta", type=float, default=None, help="smoothing scale (default: set span)")
    s.add_argument("--cbar", type=float, default=0.0, help="far-field fill constant")
    s.add_argument("--p", type=float, default=3.0)
    s.add_argument("--format", choices=("binary", "csv"), default="binary")
    s.set_defaults(func=cmd_extend)

    s = sub.add_parser("functional", help="evaluate one functional from a JSON config")
    _set_flags(s)
    _function_flags(s)
    s.add_argument("--config", required=True, help="JSON config with a 'functional' key")
    s.set_defaults(func=cmd_functional)

    s = sub.add_parser("tracenorm", help="trace-norm estimate with breakdown")
    _set_flags(s)
    _function_flags(s)
    s.add_argument("--config", required=True, help="TraceEstimateConfig as JSON")
    s.set_defaults(func=cmd_tracenorm)

    s = sub.add_parser("verify", help="equivalence experiment across h-levels")
    s.add_argument("--config", help="keyword arguments as JSON")
    s.add_argument("--theorem", help="theorem id, e.g. T11")
    s.add_argument("--canonical", choices=CANONICAL_NAMES)
    s.add_argument("--family", help="test family name")
    s.add_argument("--h-levels", type=_parse_levels, help="comma list, e.g. 1/64,1/128")
    s.add_argument("--pair-budget", type=int, help="exact-pair budget (default 4000)")
    s.set_defaults(func=cmd_verify)

    s = sub.add_parser("demo", help="run the acceptance suite")
    s.add_argument("--profile", choices=("full", "quick"), default="full")
    s.set_defaults(func=cmd_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # OutOfDomainError: the --measure support misses points of the --set
    except (ConfigError, OutOfDomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailure, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
