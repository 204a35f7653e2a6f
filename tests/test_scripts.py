"""Smoke runs of the scripts under scripts/, which call the library's public
API but are not imported by it."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture
def load_script(monkeypatch):
    def load(name):
        spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        # dataclasses look their module up in sys.modules
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        return module

    return load


def test_set_zoo_prints_one_row_per_set(load_script, capsys):
    set_zoo = load_script("set_zoo")
    set_zoo.main(1 / 32, 0)
    rows = capsys.readouterr().out.strip().splitlines()[2:]
    assert [row.split()[0] for row in rows] == list(set_zoo.CANONICAL_NAMES)


def test_set_zoo_parses_fractional_resolution(load_script):
    set_zoo = load_script("set_zoo")
    assert set_zoo._parse_level("1/128") == 1 / 128
    with pytest.raises(ValueError):
        set_zoo._parse_level("1/0")


def test_equivalence_sweep_writes_report_and_summary(load_script, tmp_path):
    sweep = load_script("equivalence_sweep")
    cfg = sweep.SweepConfig(out_dir=tmp_path, jobs=[("T11", "segment-1d-in-2d", (1 / 32,))])
    rows = sweep.run(cfg)
    assert [(r["theorem"], r["set"]) for r in rows] == [("T11", "segment-1d-in-2d")]
    assert (tmp_path / "T11_segment-1d-in-2d.json").is_file()
    assert (tmp_path / "summary.csv").read_text().startswith("theorem,set,")


def test_bitcheck_leaf_diff_on_hand_made_pairs(load_script):
    leaf_diff = load_script("bitcheck").leaf_diff
    old = {"value": 1.0, "rows": [[1, 2.0], [3, 4.0]], "name": "T11", "zero": 0.0}
    assert leaf_diff(old, json.loads(json.dumps(old))) == {
        "largest_absolute": None, "largest_relative": None, "other": []}
    new = {"value": 1.5, "rows": [[1, 2.0], [3, 40.0]], "name": "T12", "zero": -0.0,
           "extra": 1}
    diff = leaf_diff(old, new)
    assert diff["largest_absolute"] == {"leaf": "$.rows[1][1]", "old": 4.0, "new": 40.0,
                                        "absolute": 36.0, "relative": 9.0}
    assert diff["largest_relative"]["leaf"] == "$.rows[1][1]"
    # -0.0 against 0.0 moves no number but is a different bit pattern
    assert diff["other"] == ["$.name", "$.zero", "$.extra"]
    # a relative change from 0 is infinite; an int turned float is a change of type
    diff = leaf_diff({"a": 0.0, "b": 10.0, "c": 1}, {"a": 1e-300, "b": 11.0, "c": 1.0})
    assert diff["largest_absolute"]["leaf"] == "$.b"
    assert diff["largest_relative"] == {"leaf": "$.a", "old": 0.0, "new": 1e-300,
                                        "absolute": 1e-300, "relative": float("inf")}
    assert diff["other"] == ["$.c"]
    # a list that grows: the new item is a leaf on one side only
    assert leaf_diff([1.0], [1.0, 2.0])["other"] == ["$[1]"]
