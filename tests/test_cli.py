"""CLI surface: subcommand wiring, exit codes, file outputs."""

import contextlib
import dataclasses
import inspect
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sobtrace.canonical import CanonicalSpec, generate_canonical
from sobtrace.cli import main
from sobtrace.grid import GridField
from sobtrace.measures import counting_measure
from sobtrace.norms import THEOREM_IDS, TraceEstimateConfig
from sobtrace.sets import solid_set, thin_set
from sobtrace.util import ConfigError
from sobtrace.verify import verify_equivalence


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_no_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_whitney_stdout(capsys):
    code, out = run_cli(capsys, "whitney", "--canonical", "two-points", "--h", "1/32")
    assert code == 0
    obj = json.loads(out)
    assert obj["report"]["pass"]
    assert obj["pass_count"] == obj["cube_count"] == len(obj["cubes"])


def test_whitney_needs_a_set(capsys):
    code, _ = run_cli(capsys, "whitney")
    assert code == 2


def test_extend_writes_grid(tmp_path, capsys):
    code, _ = run_cli(
        capsys,
        "--out", str(tmp_path),
        "extend", "--canonical", "two-points", "--h", "1/32", "--family", "linear",
    )
    assert code == 0
    F = GridField.load(tmp_path / "extension")
    meta = json.loads((tmp_path / "extend.json").read_text())
    assert list(F.values.shape) == meta["grid_shape"]
    assert meta["total"] > 0


@pytest.mark.parametrize("damage", ["short-payload", "no-payload", "no-header"])
def test_grid_load_rejects_damaged_files(tmp_path, capsys, damage):
    GridField(np.array([[0.0, 1.0], [0.0, 1.0]]), 0.25, np.zeros((5, 5))).save(tmp_path / "g")
    payload, header = tmp_path / "g.bin", tmp_path / "g.json"
    if damage == "short-payload":
        payload.write_bytes(payload.read_bytes()[:-8])
    else:
        (payload if damage == "no-payload" else header).unlink()
    with pytest.raises(ConfigError):
        GridField.load(tmp_path / "g")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"functional": "modulus", "t": 0.5, "field": str(tmp_path / "g")}))
    code = main(["functional", "--canonical", "two-points", "--config", str(cfg)])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error:")


# a 1-D box used to end in an IndexError traceback, h = 0, NaN or 1e-300 in
# a message naming a shape of -9223372036854775807, an inverted box read as
# a grid of no nodes, and an unknown format was read as CSV
@pytest.mark.parametrize("header, error", [
    ('{"box": [0, 1], "h": 0.5, "shape": [3], "format": "binary"}',
     "grid box must be a finite (n, 2) array"),
    ('{"box": [[0, 1, 2]], "h": 0.5, "shape": [3], "format": "binary"}',
     "grid box must be a finite (n, 2) array"),
    ('{"box": [[0, Infinity]], "h": 0.5, "shape": [3], "format": "binary"}',
     "grid box must be a finite (n, 2) array"),
    ('{"box": [[0, 1]], "h": 0, "shape": [3], "format": "binary"}',
     "grid step h must be finite and > 0, got 0.0"),
    ('{"box": [[0, 1]], "h": -0.5, "shape": [3], "format": "binary"}',
     "grid step h must be finite and > 0, got -0.5"),
    ('{"box": [[0, 1]], "h": NaN, "shape": [3], "format": "binary"}',
     "grid step h must be finite and > 0, got nan"),
    ('{"box": [[0, 1]], "h": Infinity, "shape": [3], "format": "binary"}',
     "grid step h must be finite and > 0, got inf"),
    ('{"box": [[0, 1]], "h": 1e-300, "shape": [3], "format": "binary"}',
     "cells per axis, not in [0, 2^31)"),
    ('{"box": [[1, 0]], "h": 0.5, "shape": [3], "format": "binary"}',
     "box/h gives [-2.0] cells per axis, not in [0, 2^31)"),
    ('{"box": [[0, 1]], "h": 0.5, "shape": [3], "format": "npy"}',
     "unknown grid format 'npy'"),
], ids=["one-dimensional-box", "three-column-box", "infinite-box", "zero-h", "negative-h",
        "nan-h", "infinite-h", "tiny-h", "inverted-box", "unknown-format"])
@pytest.mark.parametrize("functional", ["grid-packing", "modulus"])
def test_grid_header_refused(tmp_path, capsys, functional, header, error):
    (tmp_path / "g.json").write_text(header)
    np.zeros(3).astype("<f8").tofile(tmp_path / "g.bin")
    np.savetxt(tmp_path / "g.csv", np.zeros(3))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"functional": functional, "t": 0.5, "field": str(tmp_path / "g")}))
    code = main(["functional", "--canonical", "two-points", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and error in err
    assert "Traceback" not in err


def test_functional_grid_packing_power_sum(tmp_path, capsys):
    GridField(np.array([[0.0, 1.0]]), 1 / 64, np.linspace(0.0, 1.0, 65)).save(tmp_path / "g")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"functional": "grid-packing", "t": 0.25, "p": 2.0,
                               "field": str(tmp_path / "g")}))
    code, out = run_cli(capsys, "functional", "--canonical", "two-points", "--config", str(cfg))
    assert code == 0
    result = json.loads(out)["result"]
    # the breakdown of the set packing: value, power_sum, best_tau, per_tau
    assert set(result) >= {"value", "power_sum", "best_tau", "per_tau"}
    assert result["power_sum"] == pytest.approx(4 * 0.25 ** 3)
    assert result["value"] == pytest.approx(result["power_sum"] ** 0.5)


def test_functional_averaged_modulus(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"functional": "averaged-modulus", "t": 0.25, "p": 3.0}))
    code, out = run_cli(
        capsys,
        "functional", "--canonical", "segment-1d-in-2d", "--h", "1/32",
        "--family", "linear", "--config", str(cfg),
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["functional"] == "averaged-modulus"
    assert obj["result"]["value"] > 0


def test_functional_unknown_kind(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"functional": "no-such"}))
    code, _ = run_cli(
        capsys,
        "functional", "--canonical", "two-points", "--h", "1/32",
        "--family", "linear", "--config", str(cfg),
    )
    assert code == 2


def test_tracenorm_files(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theorem": "T11", "p": 3.0}))
    out_dir = tmp_path / "out"
    code, _ = run_cli(
        capsys,
        "--out", str(out_dir),
        "tracenorm", "--canonical", "two-points", "--h", "1/32",
        "--family", "linear", "--config", str(cfg),
    )
    assert code == 0
    obj = json.loads((out_dir / "tracenorm.json").read_text())
    assert obj["value"] > 0
    rows = (out_dir / "tracenorm.csv").read_text().strip().splitlines()
    assert rows[0] == "term,value"
    total = float(rows[-1].split(",", 1)[1])
    assert np.isclose(total, obj["value"], rtol=1e-12)


def test_tracenorm_bad_theorem(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theorem": "T99", "p": 3.0}))
    code, _ = run_cli(
        capsys,
        "tracenorm", "--canonical", "two-points", "--h", "1/32",
        "--family", "linear", "--config", str(cfg),
    )
    assert code == 2


def test_tracenorm_overflow_exits_3(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theorem": "T11", "p": 3.0}))
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps({"values": [1e300, -1e300]}))
    code, _ = run_cli(
        capsys,
        "tracenorm", "--canonical", "two-points", "--h", "1/32",
        "--function", str(fn), "--config", str(cfg),
    )
    assert code == 3


@pytest.mark.parametrize("t, p, values", [
    (0.5, 2000, None),  # t ** (n - p) overflows a Python float
    (2.0, 3.0, [1e300, -1e300]),  # the energy overflows to inf in numpy
], ids=["python-float-overflow", "infinite-value"])
def test_functional_overflow_exits_3(tmp_path, capsys, t, p, values):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"functional": "local-pair-energy", "t": t, "p": p}))
    source = ["--family", "linear"]
    if values is not None:
        (tmp_path / "fn.json").write_text(json.dumps(values))
        source = ["--function", str(tmp_path / "fn.json")]
    code = main(["functional", "--canonical", "two-points", *source, "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numerical failure:")


def test_extend_non_finite_norms_exit_3(tmp_path, capsys):
    # the extension of +-1e308 overflows its norms to inf and NaN, which
    # are not JSON
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps([1e308, -1e308]))
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        code = main(["--out", str(out), "extend", "--canonical", "two-points", "--h", "1/32",
                     "--function", str(fn)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numerical failure:") and "extend.json" in err
    assert not (out / "extend.json").exists()


def test_functional_non_finite_result_exits_3(tmp_path, capsys):
    # one atom leaves the d-set fit of measure-diagnostics undefined (NaN)
    S, _ = generate_canonical(CanonicalSpec("two-points", 1 / 32))
    (tmp_path / "set.json").write_text(json.dumps(S.to_json()))
    (tmp_path / "mu.json").write_text(json.dumps({"points": [S.points[0].tolist()],
                                                  "weights": [1.0]}))
    (tmp_path / "cfg.json").write_text(json.dumps({"functional": "measure-diagnostics"}))
    with np.errstate(all="ignore"):
        code = main(["functional", "--set", str(tmp_path / "set.json"),
                     "--measure", str(tmp_path / "mu.json"), "--config", str(tmp_path / "cfg.json")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("numerical failure:") and "functional.json" in captured.err
    assert "NaN" not in captured.out and "Infinity" not in captured.out


def test_tracenorm_csv_values_are_floats(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theorem": "T24", "p": 3.0}))
    out_dir = tmp_path / "out"
    code, _ = run_cli(
        capsys,
        "--out", str(out_dir),
        "tracenorm", "--canonical", "segment-1d-in-2d", "--h", "1/32",
        "--family", "linear", "--config", str(cfg),
    )
    assert code == 0
    rows = (out_dir / "tracenorm.csv").read_text().strip().splitlines()[1:]
    assert [term for term, _ in (r.split(",", 1) for r in rows)] == [
        "porous_integral", "sup_quotient", "total",
    ]
    for row in rows:
        float(row.split(",", 1)[1])


@dataclasses.dataclass(frozen=True)
class InputFiles:
    """A valid config run with input files: (flag, text) pairs, where text
    None leaves the file missing and _DIRECTORY puts a directory there."""

    config: dict
    files: tuple


_DIRECTORY = object()
_TWO_POINTS = json.dumps(
    generate_canonical(CanonicalSpec("two-points", 1 / 32))[0].to_json()
)
_WRONG_SHAPE = {
    "--function": json.dumps({"vals": [0.0, 1.0]}),
    "--set": json.dumps({"dim": 1, "h": 0.03125}),
    "--measure": json.dumps({"points": [[0.0], [1.0]]}),
}
_T11 = {"theorem": "T11", "p": 3.0}
_FILE_CASES = {}
for _flag in ("--function", "--set", "--measure"):
    # a measure file is read only beside a set file
    _before = (("--set", _TWO_POINTS),) if _flag == "--measure" else ()
    for _kind, _text in (
        ("missing", None), ("unreadable", _DIRECTORY), ("not-json", "{oops"),
        ("wrong-shape", _WRONG_SHAPE[_flag]),
    ):
        _FILE_CASES[f"{_flag[2:]}-file-{_kind}"] = (
            "tracenorm", InputFiles(_T11, _before + ((_flag, _text),))
        )
_FILE_CASES["measure-file-wrong-dimension"] = ("tracenorm", InputFiles(_T11, (
    ("--set", _TWO_POINTS),
    ("--measure", json.dumps({"points": [[0.0, 0.0]], "weights": [1.0]})),
)))
_SOLID = solid_set(np.ones((4, 4), bool), 0.25, (0.0, 0.0)).to_json()
_FILE_CASES["set-file-negative-cell"] = ("tracenorm", InputFiles(_T11, (
    ("--set", json.dumps({**_SOLID, "cells": _SOLID["cells"] + [[-1, -1]]})),
)))
_FILE_CASES["set-file-shape-off-bbox"] = ("tracenorm", InputFiles(_T11, (
    ("--set", json.dumps({**_SOLID, "cells_shape": [n + 1 for n in _SOLID["cells_shape"]]})),
)))
# json.dumps writes NaN and Infinity, and json.loads reads them back
_FILE_CASES["function-file-nan"] = (
    "tracenorm", InputFiles(_T11, (("--function", json.dumps([float("nan"), 1.0])),))
)
_FILE_CASES["function-file-infinite-value"] = ("functional", InputFiles(
    {"functional": "local-pair-energy", "t": 0.5},
    (("--function", json.dumps([float("inf"), 1.0])),),
))
# a measure shifted off its set: a cube center on the set is farther than
# h/2 from the measure's support
_SEGMENT, _ARC = generate_canonical(CanonicalSpec("segment-1d-in-2d", 1 / 32))
_FILE_CASES["measure-file-off-the-set"] = ("functional", InputFiles(
    {"functional": "ap-mu", "t": 0.25, "variant": "center", "alpha": 0.1},
    (("--set", json.dumps(_SEGMENT.to_json())),
     ("--measure", json.dumps({**_ARC.to_json(), "points": (_ARC.points + 0.05).tolist()}))),
))
_FILE_CASES["function-file-not-a-list"] = (
    "tracenorm", InputFiles(_T11, (("--function", json.dumps([[0.0], [1.0]])),))
)


@dataclasses.dataclass(frozen=True)
class GridFile:
    """A valid config whose "field" is a 33^2 grid saved in the test's
    directory in `fmt`, with `value` at one node."""

    config: dict
    value: float
    fmt: str

    def save(self, path) -> str:
        values = np.linspace(0.0, 1.0, 33 * 33).reshape(33, 33)
        values[16, 16] = self.value
        GridField(np.array([[0.0, 1.0], [0.0, 1.0]]), 1 / 32, values).save(path, self.fmt)
        return str(path)


# unchecked, a NaN node would read as modulus 0.0: max(0.0, nan) is 0.0
_GRID_CASES = {
    f"{functional}-grid-{fmt}-{name}": ("functional", GridFile(
        {"functional": functional, "t": 0.25}, value, fmt
    ))
    for functional in ("modulus", "grid-packing")
    for fmt in ("binary", "csv")
    for name, value in (("nan", float("nan")), ("inf", float("inf")))
}


@dataclasses.dataclass(frozen=True)
class Flags:
    """A run with command-line flags and no config file. argparse rejects a
    bad flag value itself (exit 2 with a usage message); the command rejects
    a bad combination (exit 2 with a config error)."""

    argv: tuple
    error: str = "config error:"


_EXTEND = ("--canonical", "two-points", "--family", "linear")
_FLAG_CASES = {
    "extend-zero-p": ("extend", Flags(_EXTEND + ("--p", "0"))),
    "extend-nan-p": ("extend", Flags(_EXTEND + ("--p", "nan"))),
    "extend-nan-cbar": ("extend", Flags(_EXTEND + ("--cbar", "nan"))),
    "extend-nan-delta": ("extend", Flags(_EXTEND + ("--delta", "nan"))),
    "extend-zero-delta": ("extend", Flags(_EXTEND + ("--delta", "0"))),
    "whitney-h-zero-denominator": (
        "whitney", Flags(("--canonical", "two-points", "--h", "1/0"), "usage:")
    ),
    "verify-h-levels-zero-denominator": ("verify", Flags(
        ("--theorem", "T11", "--canonical", "two-points", "--h-levels", "1/0"), "usage:"
    )),
    # the run-wide pair budget is checked whether or not the theorem reads it
    **{f"verify-negative-pair-budget-flag-{theorem.lower()}": ("verify", Flags(
        ("--theorem", theorem, "--canonical", "two-points", "--family", "linear",
         "--h-levels", "1/32", "--pair-budget", "-1"),
        "config error: verify needs pair_budget in [0, inf), got -1",
    )) for theorem in ("T11", "T715")},
}


@dataclasses.dataclass(frozen=True)
class BadValue:
    """A config refused for the value of one key, with an error naming it."""

    config: dict
    key: str


# a flag is read only from JSON true/false and an int key only from a whole
# number: "strong": "false" used to run a strongly porous packing, "seed": 2.7
# seed 2, "seed": true seed 1 and "pair_budget": 10.9 a budget of 10
_T715 = {"theorem": "T715", "p": 3.0, "eps": 0.25}
_QUASI = {"functional": "quasidistance-energy", "eps": 0.25}
_TYPE_CASES = {
    **{f"packing-strong-{value}": ("functional", BadValue(
        {"functional": "packing", "t": 0.25, "alpha": 0.1, "centers": "boundary", "strong": value},
        "strong",
    )) for value in ("false", "no", 1)},
    **{f"ap-mu-strong-{value}": ("functional", BadValue(
        {"functional": "ap-mu", "t": 0.25, "alpha": 0.1, "strong": value}, "strong"
    )) for value in ("false", 0)},
    **{f"{label}-{key}-{str(value).lower()}": (command, BadValue({**base, key: value}, key))
       for label, command, base in (("t715", "tracenorm", _T715),
                                    ("quasidistance-energy", "functional", _QUASI),
                                    ("verify-t715", "verify", {"theorem": "T715", "set": "two-points"}))
       for key, value in (("seed", 2.7), ("seed", True), ("pair_budget", 10.9))},
    "measure-diagnostics-seed-true": (
        "functional", BadValue({"functional": "measure-diagnostics", "seed": True}, "seed")
    ),
}


@pytest.mark.parametrize(
    "command, config",
    [
        ("tracenorm", {"theorem": "T11", "p": 3.0, "no_such_key": 1}),
        ("tracenorm", {"theorem": "T11", "p": "inf"}),
        ("tracenorm", {"theorem": "T11"}),
        ("tracenorm", {"theorem": "T12", "p": 3.0, "eps": "x"}),
        ("tracenorm", None),
        ("tracenorm", "{not json"),
        ("functional", {"functional": "averaged-modulus", "p": 3.0}),
        ("functional", {"functional": "averaged-modulus", "t": "x"}),
        ("functional", {"functional": "packing", "t": 0.25, "alpha": "x"}),
        ("functional", None),
        ("functional", {"functional": "packing", "t": 0.25, "centers": "bogus"}),
        ("functional", {"functional": "ap-mu", "t": 0.25, "variant": "zzz"}),
        ("functional", {"functional": "packing", "t": -1}),
        ("functional", {"functional": "sharp-maximal", "x": [0.5, 0.5]}),
        # a NaN coordinate used to reach the report writer (exit 3)
        ("functional", {"functional": "sharp-maximal", "x": [float("nan")]}),
        ("functional", {"functional": "modulus", "t": 0.1, "field": "no-such-grid"}),
        ("functional", {"functional": "averaged-modulus", "t": 0.25, "bogus": 1}),
        ("functional", {"functional": "averaged-modulus", "t": 0}),
        ("functional", {"functional": "measure-diagnostics", "seed": -1}),
        ("tracenorm", {"theorem": "T72", "p": 3.0, "eps": "inf"}),
        ("verify", ["T11"]),
        ("verify", {"theorem": "T11", "set": "two-points", "bogus": 1}),
        ("verify", {"theorem": "T11", "set": "two-points", "p": "x"}),
        ("verify", {"theorem": "T11", "set": "two-points", "h_levels": "x"}),
        ("verify", {"theorem": "T26", "set": "two-points", "p": 0}),
        ("verify", {"theorem": "T26", "set": "two-points", "q": 0}),
        ("verify", {"theorem": "T715", "set": "two-points", "pair_budget": -1}),
        ("functional", {"functional": "averaged-modulus", "t": 0.5, "p": "inf"}),
        ("functional", {"functional": "besov-dset", "s": 0.5, "p": "inf"}),
        ("tracenorm", {"theorem": "T26", "p": 3, "eps": 0.5, "s": 0.5, "q": "inf"}),
        # json writes inf as Infinity, and int(inf) overflows
        ("functional", {"functional": "quasidistance-energy", "eps": 0.25,
                        "pair_budget": float("inf")}),
        ("functional", {"functional": "local-pair-energy", "t": "inf"}),
        ("functional", {"functional": "averaged-modulus", "t": "inf"}),
        # pair-energy parameters outside their ranges used to read 0 or a
        # meaningless number
        ("functional", {"functional": "distance-pair-energy", "eps": -1}),
        ("functional", {"functional": "distance-pair-energy", "eps": "nan"}),
        ("functional", {"functional": "quasidistance-energy", "eps": -0.25}),
        ("functional", {"functional": "quasidistance-energy", "eps": 0.25, "alpha": -1}),
        ("functional", {"functional": "quasidistance-energy", "eps": 0.25, "alpha": "nan"}),
        ("functional", {"functional": "besov-dset", "s": -3}),
        ("functional", {"functional": "besov-dset", "s": 0.5, "d": 0}),
        ("tracenorm", {"theorem": "T11", "p": 3.0, "gamma": -1}),
        ("tracenorm", {"theorem": "T11", "p": 3.0, "gamma": 0}),
        ("tracenorm", {"theorem": "T11", "p": 3.0, "gamma": "nan"}),
        ("tracenorm", {"theorem": "T12", "p": 3.0, "eps": 0.25, "theta": "nan"}),
        ("tracenorm", {"theorem": "T12", "p": 3.0, "eps": 0.25, "theta": "inf"}),
        # retired options: every packing is greedy, T715 uses the product kernel
        ("tracenorm", {"theorem": "T11", "p": 3.0, "mode": "greedy"}),
        ("tracenorm", {"theorem": "T715", "p": 3.0, "eps": 0.25, "kernel": "product"}),
        ("verify", {"theorem": "T11", "set": "two-points", "mode": "greedy"}),
        ("verify", {"theorem": "T715", "set": "two-points", "kernel": "product"}),
        ("functional", {"functional": "packing", "t": 0.25, "mode": "greedy"}),
        ("functional", {"functional": "ap-mu", "t": 0.25, "mode": "greedy"}),
        # a parameter the theorem does not read used to be accepted and ignored
        ("tracenorm", {"theorem": "T723", "p": 3.0, "eps": 0.25, "alpha": 5, "theta": -7,
                       "gamma": float("nan"), "s": 9}),
        ("verify", {"theorem": "T14i", "set": "two-points", "alpha": 0.1, "theta": 3}),
        # a NaN or infinite eps used to read 0.0 or a number
        ("tracenorm", {"theorem": "T14ii", "p": 3.0, "eps": float("nan")}),
        ("tracenorm", {"theorem": "T14ii", "p": 3.0, "eps": float("inf")}),
        ("tracenorm", {"theorem": "T12", "p": 3.0, "eps": float("inf")}),
    ] + list(_FILE_CASES.values()) + list(_GRID_CASES.values()) + list(_FLAG_CASES.values())
    + list(_TYPE_CASES.values()),
    ids=[
        "unknown-key", "p-as-string", "no-p", "bad-eps", "no-file", "not-json",
        "no-t", "bad-t", "bad-alpha", "functional-no-file", "bad-centers",
        "bad-ap-mu-variant", "negative-t", "x-of-wrong-dimension", "non-finite-x", "missing-grid",
        "functional-unknown-key", "zero-t", "negative-seed", "infinite-eps",
        "not-an-object", "verify-unknown-key", "verify-bad-p", "verify-bad-h-levels",
        "verify-zero-p", "verify-zero-q", "verify-negative-pair-budget",
        "infinite-p-averaged-modulus", "infinite-p-besov-dset", "infinite-q-t26",
        "infinite-pair-budget", "infinite-t-local-pair-energy", "infinite-t-averaged-modulus",
        "negative-eps-distance-energy", "nan-eps-distance-energy", "negative-eps-quasi-energy",
        "negative-alpha-quasi-energy", "nan-alpha-quasi-energy", "negative-s-besov-dset",
        "zero-d-besov-dset", "negative-gamma-t11", "zero-gamma-t11", "nan-gamma-t11",
        "nan-theta-t12", "infinite-theta-t12", "tracenorm-mode-key", "tracenorm-kernel-key",
        "verify-mode-key", "verify-kernel-key", "packing-mode-key", "ap-mu-mode-key",
        "t723-unread-parameters", "verify-t14i-unread-alpha", "nan-eps-t14ii",
        "infinite-eps-t14ii", "infinite-eps-t12",
    ] + list(_FILE_CASES) + list(_GRID_CASES) + list(_FLAG_CASES) + list(_TYPE_CASES),
)
def test_malformed_config_exits_2(tmp_path, capsys, command, config):
    path = tmp_path / "cfg.json"
    # verify's configs name their set, and a flag may not give a config key's value too
    inputs = {} if command == "verify" else {"--canonical": "two-points", "--family": "linear"}
    error = "config error:"
    argv = None
    if isinstance(config, Flags):
        argv = ["--out", str(tmp_path / "out"), command, *config.argv]
        error, config = config.error, None
    if isinstance(config, BadValue):
        error, config = f"config error: config key {config.key!r}", config.config
    files = []
    if isinstance(config, InputFiles):
        for flag, text in config.files:
            # a --set file stands in for the catalog set, a --function file for the family
            inputs.pop({"--set": "--canonical", "--function": "--family"}.get(flag), None)
            files += [flag, str(tmp_path / flag[2:])]
            if text is _DIRECTORY:
                (tmp_path / flag[2:]).mkdir()
            elif text is not None:
                (tmp_path / flag[2:]).write_text(text)
        config = config.config
    if isinstance(config, GridFile):
        config = {**config.config, "field": config.save(tmp_path / "grid")}
    if config is not None:
        path.write_text(config if isinstance(config, str) else json.dumps(config))
    if argv is None:
        argv = [command, *(tok for pair in inputs.items() for tok in pair), "--config", str(path)]
    try:
        code = main(argv + files)
    except SystemExit as exc:  # argparse rejecting a flag value
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(error)
    assert "Traceback" not in err


FUNCTIONALS = (
    "packing", "grid-packing", "sharp-maximal", "ap-mu", "local-pair-energy",
    "distance-pair-energy", "quasidistance-energy", "besov-dset", "besov-jonsson",
    "averaged-modulus", "modulus", "measure-diagnostics",
)
# each command's config keys, plus junk ("bogus", and "mode", which no
# functional reads)
FUZZ_KEYS = {
    "functional": (
        "functional", "t", "p", "q", "s", "d", "eps", "alpha", "strong", "mode",
        "centers", "variant", "kernel", "x", "field", "pair_budget", "seed",
        "level_floor", "bogus",
    ),
    "tracenorm": tuple(f.name for f in dataclasses.fields(TraceEstimateConfig)) + ("bogus",),
    "verify": ("theorem", "set", "family", "h_levels", "bogus") + tuple(
        par.name for par in inspect.signature(verify_equivalence).parameters.values()
        if par.kind is par.KEYWORD_ONLY
    ),
}
FUZZ_VALUES = (None, "", "x", "set", "inf", -1, 0, 0.5, 3, 2000, [], {})


@st.composite
def fuzz_case(draw):
    command = draw(st.sampled_from(sorted(FUZZ_KEYS)))
    keys = draw(st.lists(st.sampled_from(FUZZ_KEYS[command]), max_size=4, unique=True))
    config = {key: draw(st.sampled_from(FUZZ_VALUES)) for key in keys}
    # nearly always a valid name, so the examples reach past the lookup
    key, names = ("functional", FUNCTIONALS) if command == "functional" else ("theorem", THEOREM_IDS)
    config[key] = draw(st.sampled_from(names + ("x",)))
    return command, config


@settings(max_examples=800, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fuzz_case())
def test_config_fuzz_exit_codes(case):
    command, config = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(config))
        level = ["--h-levels", "1/32"] if command == "verify" else ["--h", "1/32"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--canonical", "two-points", "--family", "linear",
                         *level, "--config", str(path)])
    assert code in (0, 2, 3), (config, err.getvalue())
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("command, config, key, whole", [
    ("functional", _QUASI, "pair_budget", 4000),
    ("functional", _QUASI, "seed", 3),
    ("tracenorm", _T715, "seed", 3),
])
def test_whole_float_reads_as_its_int(tmp_path, capsys, command, config, key, whole):
    results = []
    for value in (whole, float(whole)):
        path = tmp_path / f"{value!r}.json"
        path.write_text(json.dumps({**config, key: value}))
        code, out = run_cli(capsys, command, "--canonical", "two-points", "--family",
                            "linear", "--config", str(path))
        assert code == 0
        payload = json.loads(out)
        results.append(payload.get("result", payload.get("value")))
    assert results[0] == results[1]


def test_negative_seed_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "-1", "whitney", "--canonical", "two-points"])
    assert exc.value.code == 2


def test_verify_report_file(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, _ = run_cli(
        capsys,
        "--out", str(out_dir),
        "verify", "--theorem", "T11", "--canonical", "two-points",
        "--family", "linear", "--h-levels", "1/32,1/64",
    )
    assert code == 0
    obj = json.loads((out_dir / "report.json").read_text())
    assert obj["report_version"] == 1
    assert "runtime" not in obj
    assert obj["h_levels"] == [1 / 32, 1 / 64]


def test_verify_non_finite_report_exits_3(tmp_path, capsys):
    # the report refuses NaN; the command exits 3 instead of a traceback
    report = verify_equivalence("T11", "two-points", "linear", [1 / 32])
    report.ratio_stats = {"0.03125": {"min": float("nan")}}
    out_dir = tmp_path / "out"
    with mock.patch("sobtrace.cli.verify_equivalence", return_value=report):
        code = main(["--out", str(out_dir), "verify", "--theorem", "T11",
                     "--canonical", "two-points", "--h-levels", "1/32"])
    assert code == 3
    assert capsys.readouterr().err.startswith("numerical failure:")
    assert not (out_dir / "report.json").exists()


def test_verify_needs_theorem(capsys):
    code, _ = run_cli(capsys, "verify", "--canonical", "two-points")
    assert code == 2


def test_demo_quick_profile(tmp_path, capsys):
    code, out = run_cli(
        capsys, "--out", str(tmp_path), "demo", "--profile", "quick"
    )
    assert code == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert "whitney_contract.json" in names
    assert "verify_t11.json" in names
    assert "verify_t723_besov.json" in names


def test_demo_quick_non_finite_report_exits_3(tmp_path, capsys):
    # the quick reports are JSON text as every other output is: NaN exits 3
    nan_report = {"lower_slack": float("nan")}
    with mock.patch("sobtrace.acceptance.whitney_contract_report", return_value=nan_report):
        code = main(["--out", str(tmp_path), "demo", "--profile", "quick"])
    assert code == 3
    assert capsys.readouterr().err.startswith("numerical failure:")
    assert not (tmp_path / "whitney_contract.json").exists()


def test_verify_seed_reaches_only_the_theorems_that_read_it(capsys):
    """The global --seed is run-wide: T11 does not read it, so verify must not
    hand it to T11's config, and the report bytes do not depend on it."""
    argv = ["verify", "--theorem", "T11", "--canonical", "two-points",
            "--family", "linear", "--h-levels", "1/32"]
    reports = [run_cli(capsys, "--seed", seed, *argv) for seed in ("0", "3")]
    assert [code for code, _ in reports] == [0, 0]
    assert reports[0][1] == reports[1][1]


# -- input-file fuzz: --set, --measure and --function contents -----------

_ALLOCATION_LIMIT = 1 << 28  # bytes


def _bounded_zeros(zeros):
    """np.zeros that raises MemoryError, as a memory limit would, for any
    array above _ALLOCATION_LIMIT bytes, without allocating it."""
    def guarded(shape, dtype=float, *args, **kwargs):
        size = np.prod(np.atleast_1d(shape), dtype=float) * np.dtype(dtype).itemsize
        if size > _ALLOCATION_LIMIT:
            raise MemoryError(f"refused an array of shape {shape}")
        return zeros(shape, dtype, *args, **kwargs)
    return guarded


def _input_files(S) -> dict:
    return {
        "--set": S.to_json(),
        "--measure": counting_measure(S, normalized=True).to_json(),
        "--function": {"values": S.points[:, 0].tolist()},
    }


_T72 = {"theorem": "T72", "p": 3.0, "eps": 0.25}  # reads the set, measure and function
_FUZZ_FILES = {
    "thin": _input_files(generate_canonical(CanonicalSpec("two-points", 1 / 32))[0]),
    "solid": _input_files(solid_set(np.ones((4, 4), bool), 0.25, (0.0, 0.0))),
}
# wrong types, empty and mis-nested arrays, mixed types and huge values
FILE_FUZZ_VALUES = (
    None, True, "x", 0, -1, 0.5, 1e308, -1e308, float("inf"), float("nan"), 10 ** 30,
    [], [[]], [[[]]], {}, [1, "x"], [None], [[0.0, "x"]], [0.0, [1.0]], [[[0.0]]],
    [[[0.0, 0.0]]], [1e308, -1e308], [[1e308, 1e308]], [[-1e308, 1e308], [-1e308, 1e308]],
    [10 ** 6, 10 ** 6], [[0, 0], [10 ** 6, 10 ** 6]],
)


@st.composite
def input_file_case(draw):
    """The thin or solid input files with one or two of them damaged: a key
    dropped, its value replaced, wrapped in one more list or flattened by
    one level, or the whole file replaced."""
    files = json.loads(json.dumps(_FUZZ_FILES[draw(st.sampled_from(sorted(_FUZZ_FILES)))]))
    damaged = st.lists(st.sampled_from(sorted(files)), min_size=1, max_size=2, unique=True)
    for flag in draw(damaged):
        obj = files[flag]
        key = draw(st.sampled_from(sorted(obj) + [None]))
        value = obj if key is None else obj[key]
        how = draw(st.sampled_from(("drop", "replace", "nest", "flatten")))
        if how == "nest":
            value = [value]
        elif how == "flatten" and isinstance(value, list):
            value = [x for v in value for x in (v if isinstance(v, list) else [v])]
        elif how in ("replace", "flatten") or key is None:
            value = draw(st.sampled_from(FILE_FUZZ_VALUES))
        if key is None:
            files[flag] = value
        elif how == "drop":
            del obj[key]
        else:
            obj[key] = value
    return files


def _run_with_files(tmp, command, config, files) -> tuple:
    argv = [command]
    for flag, obj in files.items():
        path = Path(tmp) / f"{flag[2:]}.json"
        path.write_text(json.dumps(obj))
        argv += [flag, str(path)]
    if config is not None:
        (Path(tmp) / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", str(Path(tmp) / "cfg.json")]
    err = io.StringIO()
    with mock.patch.object(np, "zeros", _bounded_zeros(np.zeros)), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(input_file_case())
def test_input_file_fuzz_exit_codes(files):
    """Damaged input files exit 0, 2 or 3, never with a traceback or a huge
    allocation; T72 reads the set, the measure and the function."""
    with tempfile.TemporaryDirectory() as tmp:
        code, err = _run_with_files(tmp, "tracenorm", _T72, files)
    assert code in (0, 2, 3), (files, err)
    assert "Traceback" not in err


_ONE_CELL = solid_set(np.ones((1, 1), bool), 0.25, (0.0, 0.0)).to_json()


@pytest.mark.parametrize("command, config, files, error", [
    # refused before the occupancy mask is allocated: 10^6 x 10^6 cells is 931 GiB
    ("whitney", None, {"--set": {**_ONE_CELL, "cells_shape": [10 ** 6, 10 ** 6]}},
     "occupancy shape (1000000, 1000000) does not match the bbox"),
    # one more level of nesting used to pass the shape checks
    ("whitney", None, {"--set": {**_FUZZ_FILES["thin"]["--set"], "points": [[[0.0]], [[1.0]]]}},
     "inconsistent dimensions"),
    ("tracenorm", _T72, {**_FUZZ_FILES["thin"], "--measure": {
        "points": [[0.0], [1.0]], "weights": [[0.5], [0.5]]}}, "one weight per point"),
    # a shape that matches a huge bbox passes the shape check; the mask it
    # asks for (3.6 TiB) is refused by the allocation limit
    ("whitney", None, {"--set": {**_ONE_CELL, "bbox": [[-1e6, 1e6], [-1e6, 1e6]], "h": 1.0,
                                 "cells_shape": [2 * 10 ** 6, 2 * 10 ** 6]}},
     "cannot allocate an occupancy mask of cells_shape [2000000, 2000000]"),
], ids=["set-oversized-cells-shape", "set-nested-points", "measure-nested-weights",
        "set-huge-matching-cells-shape"])
def test_damaged_input_file_exits_2(tmp_path, command, config, files, error):
    code, err = _run_with_files(tmp_path, command, config, files)
    assert code == 2
    assert err.startswith("config error:") and error in err


@pytest.mark.parametrize("shuffled", [False, True], ids=["ordered", "shuffled"])
def test_measure_atoms_sit_at_their_samples(tmp_path, capsys, shuffled):
    # values are matched to atoms by index: the shuffled measure read x^2 at
    # the wrong atoms, and local-pair-energy exited 0 with 4.364
    S = thin_set(np.linspace(0.0, 1.0, 33)[:, None], h=1 / 32)
    order = np.random.default_rng(0).permutation(33) if shuffled else np.arange(33)
    files = {
        "set": S.to_json(),
        "mu": {"points": S.points[order].tolist(), "weights": [1 / 33] * 33},
        "f": (S.points[:, 0] ** 2).tolist(),
        "cfg": {"functional": "local-pair-energy", "t": 0.25},
    }
    for name, obj in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    code = main(["functional", "--set", str(tmp_path / "set.json"), "--measure",
                 str(tmp_path / "mu.json"), "--function", str(tmp_path / "f.json"),
                 "--config", str(tmp_path / "cfg.json")])
    out, err = capsys.readouterr()
    if shuffled:
        assert code == 2
        assert err.startswith("config error: measure atom 0 at [0.0625] is not within h/2 "
                              "of sample 0 at [0.0]")
    else:
        assert code == 0
        assert json.loads(out)["result"]["value"] == pytest.approx(0.18373297319189574, rel=1e-12)


@pytest.mark.parametrize("command, config", [
    ("tracenorm", {"theorem": "T72", "p": 3.0, "eps": 0.25}),
    ("tracenorm", {"theorem": "T723", "p": 3.0, "eps": 0.25}),
    ("functional", {"functional": "local-pair-energy", "t": 0.25}),
    ("functional", {"functional": "ap-mu", "t": 0.25}),
], ids=["T72", "T723", "local-pair-energy", "ap-mu"])
def test_measure_with_fewer_atoms_than_samples_exits_2(tmp_path, capsys, command, config):
    # a 17-atom measure on a 33-sample set: T72 and T723 ended in a
    # broadcast traceback, and the functionals read the first 17 values
    S = thin_set(np.linspace(0.0, 1.0, 33)[:, None], h=1 / 32)
    mu = {"points": np.linspace(0.0, 1.0, 17)[:, None].tolist(), "weights": [1 / 17] * 17}
    for name, obj in (("set", S.to_json()), ("mu", mu), ("cfg", config)):
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    code = main([command, "--set", str(tmp_path / "set.json"), "--measure",
                 str(tmp_path / "mu.json"), "--family", "linear",
                 "--config", str(tmp_path / "cfg.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and "needs 17 values, one per atom, got shape (33,)" in err


# -- one source per value ----------------------------------------------

_LPE = {"functional": "local-pair-energy", "t": 0.25}
_VERIFY = ("verify", "--theorem", "T11", "--canonical", "two-points", "--family", "linear",
           "--h-levels", "1/32")


def _verify_twice(flag, key, value):
    """verify's argv with flag beside a config that gives key its own value."""
    argv = ("--seed", "0") + _VERIFY if flag == "--seed" else _VERIFY
    if flag not in argv:
        argv += (flag, "4000")
    return argv, {key: value}, flag, key


# each exited 0 with one of its two values silently dropped, or with a flag
# that nothing read
@pytest.mark.parametrize("argv, config, flag, other", [
    (("functional", "--set", "{set}", "--canonical", "cantor-1d", "--family", "linear"),
     _LPE, "--canonical", "--set"),
    (("functional", "--canonical", "two-points", "--h", "1/32", "--function", "{function}",
      "--family", "linear", "--member", "1"), _LPE, "--family", "--function"),
    (("functional", "--canonical", "segment-1d-in-2d", "--h", "1/32", "--family", "linear",
      "--measure", "{one-atom}"), _LPE, "--measure", "--set"),
    (("functional", "--canonical", "two-points", "--h", "1/32", "--function", "{function}",
      "--member", "1"), _LPE, "--member", "--family"),
    (("functional", "--set", "{set}", "--h", "1/4", "--family", "linear"), _LPE, "--h", "--set"),
    _verify_twice("--theorem", "theorem", "T14i"),
    _verify_twice("--canonical", "set", "segment-1d-in-2d"),
    _verify_twice("--family", "family", "restrictions-of-smooth"),
    _verify_twice("--h-levels", "h_levels", [1 / 64]),
    _verify_twice("--pair-budget", "pair_budget", 100),
    _verify_twice("--seed", "seed", 3),
], ids=["set-and-canonical", "function-and-family", "measure-without-set",
        "member-without-family", "h-with-set", "verify-theorem-twice", "verify-set-twice",
        "verify-family-twice", "verify-h-levels-twice", "verify-pair-budget-twice",
        "verify-seed-twice"])
def test_value_given_twice_exits_2(tmp_path, capsys, argv, config, flag, other):
    """flag is refused beside other, the flag or config key that gives the same value."""
    thin = _FUZZ_FILES["thin"]
    paths = {}
    for name, obj in (("set", thin["--set"]), ("function", thin["--function"]),
                      ("one-atom", {"points": [[0.5, 0.0]], "weights": [1.0]})):
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
        paths[f"{{{name}}}"] = str(tmp_path / f"{name}.json")
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    try:
        code = main([paths.get(tok, tok) for tok in argv]
                    + ["--config", str(tmp_path / "cfg.json")])
    except SystemExit as exc:  # argparse refusing two exclusive flags
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert flag in err and other in err
    assert "Traceback" not in err
