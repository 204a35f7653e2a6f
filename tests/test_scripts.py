"""Smoke runs of the scripts under scripts/, which call the library's public
API but are not imported by it."""

import importlib.util
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
