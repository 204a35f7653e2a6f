"""Equivalence-report plumbing: summaries, serialization, contract report."""

import json

import numpy as np
import pytest

import sobtrace.verify as verify_mod
from sobtrace.canonical import CanonicalSpec, generate_canonical
from sobtrace.canonical import test_function_family as make_family
from sobtrace.norms import NormReport, TraceEstimateConfig, boundary_measure, grid_besov_norm
from sobtrace.util import NumericalFailure
from sobtrace.verify import (
    EquivalenceReport,
    _summarize,
    default_h_levels,
    extension_field,
    verify_equivalence,
    whitney_contract_report,
)
from sobtrace.whitney import whitney_decomposition

LEVELS = (1 / 32, 1 / 64)


def validates(report) -> bool:
    """Stored summaries must reproduce exactly from the stored pairs."""
    stats, deltas = _summarize(report.entries, report.h_levels)
    return stats == report.ratio_stats and deltas == report.refinement_deltas


def ratios_at(report, h) -> dict:
    return {e["name"]: e["intrinsic"] / e["comparison"] for e in report.entries if e["h"] == h}


@pytest.fixture(scope="module")
def small_report():
    return verify_equivalence("T11", "two-points", "linear", LEVELS, p=3.0)


def test_report_validates(small_report):
    assert validates(small_report)
    assert small_report.report_version == 1
    assert small_report.h_levels == sorted(LEVELS, reverse=True)


def test_report_entries_positive(small_report):
    for e in small_report.entries:
        assert e["intrinsic"] > 0
        assert e["comparison"] > 0
        assert e["known"] > 0


def test_tampered_summary_fails_validation(small_report):
    stats = {k: dict(v) for k, v in small_report.ratio_stats.items()}
    key = next(iter(stats))
    stats[key]["max"] = stats[key]["max"] * 2
    clone = EquivalenceReport(
        theorem=small_report.theorem,
        set_name=small_report.set_name,
        family=small_report.family,
        comparison=small_report.comparison,
        h_levels=small_report.h_levels,
        entries=small_report.entries,
        ratio_stats=stats,
        refinement_deltas=small_report.refinement_deltas,
        skipped_near_zero=small_report.skipped_near_zero,
        runtime=0.0,
    )
    assert not validates(clone)


def test_ratios_match_entries(small_report):
    h = small_report.h_levels[0]
    ratios = ratios_at(small_report, h)
    stats = small_report.ratio_stats[repr(h)]
    vals = np.array(list(ratios.values()))
    assert stats["count"] == len(vals)
    assert np.isclose(stats["spread"], vals.max() / vals.min())


def test_serialization_excludes_runtime(small_report):
    obj = json.loads(small_report.dumps())
    assert "runtime" not in obj
    assert obj["report_version"] == 1
    assert obj["theorem"] == "T11"


def test_serialization_deterministic():
    a = verify_equivalence("T11", "two-points", "linear", LEVELS, p=3.0)
    b = verify_equivalence("T11", "two-points", "linear", LEVELS, p=3.0)
    assert a.dumps() == b.dumps()


def test_save_roundtrip(tmp_path, small_report):
    path = tmp_path / "report.json"
    small_report.save(path)
    obj = json.loads(path.read_text())
    assert obj["set"] == "two-points"
    assert len(obj["entries"]) == len(small_report.entries)


def test_divergence_flags_synthetic():
    entries = []
    levels = [1 / 16, 1 / 32, 1 / 64]
    for h in levels:
        # one side grows like (1/h)^0.3, the other stays flat
        entries.append(
            {"h": h, "name": "rough", "intrinsic": (1 / h) ** 0.3, "comparison": 5.0}
        )
        entries.append({"h": h, "name": "flat", "intrinsic": 2.0, "comparison": 3.0})
    stats, deltas = _summarize(entries, levels)
    rep = EquivalenceReport(
        theorem="T11",
        set_name="two-points",
        family="synthetic",
        comparison="extension",
        h_levels=levels,
        entries=entries,
        ratio_stats=stats,
        refinement_deltas=deltas,
        skipped_near_zero=0,
        runtime=0.0,
    )
    flags = rep.divergence_flags()
    assert flags["rough"] == {"intrinsic": True, "comparison": False}
    assert flags["flat"] == {"intrinsic": False, "comparison": False}


def test_one_sided_vanishing_raises(monkeypatch):
    def zero_estimate(S, f_vals, cfg, mu=None, W=None):
        return NormReport(0.0, {"term": 0.0}, S.h)

    monkeypatch.setattr(verify_mod, "trace_estimate", zero_estimate)
    with pytest.raises(NumericalFailure):
        verify_equivalence("T11", "two-points", "linear", LEVELS, p=3.0)


def test_default_h_levels():
    assert default_h_levels("segment-1d-in-2d") == [1 / 64, 1 / 128, 1 / 256]
    assert default_h_levels("cantor-1d") == [1 / 256, 1 / 1024]


def test_unknown_comparison_mode():
    from sobtrace.util import ConfigError

    with pytest.raises(ConfigError):
        verify_equivalence("T11", "two-points", "linear", LEVELS, comparison="grid")


def test_besov_dset_comparison_runs():
    rep = verify_equivalence(
        "T723", "two-points", "linear", (1 / 32,), p=3.0, comparison="besov-dset"
    )
    assert rep.comparison == "besov-dset"
    for e in rep.entries:
        assert "known" not in e


def test_t26_compares_with_besov_norm_of_extension():
    h = 1 / 32
    rep = verify_equivalence(
        "T26", "segment-1d-in-2d", "linear", (h,), p=3.0, s=2 / 3, q=3.0, eps=0.25
    )
    S, _ = generate_canonical(CanonicalSpec("segment-1d-in-2d", h))
    W = whitney_decomposition(S)
    cfg = TraceEstimateConfig(theorem="T26", p=3.0, s=2 / 3, q=3.0, eps=0.25)
    comparison = {e["name"]: e["comparison"] for e in rep.entries}
    funcs = make_family("linear", S)
    assert sorted(comparison) == sorted(f.name for f in funcs)
    for f in funcs:
        F = extension_field(W, f.values, cfg)
        assert comparison[f.name] == grid_besov_norm(F, 2 / 3, 3.0, 3.0)


def test_contract_report_keys():
    S, _ = generate_canonical(CanonicalSpec("segment-1d-in-2d", 1 / 64))
    rep = whitney_contract_report(S)
    assert rep["pass"]
    assert rep["contract_pass"] and rep["multiplicity_pass"] and rep["coverage_pass"]
    assert rep["coverage_misses"] == 0
    assert rep["grown_multiplicity"] <= 4 ** S.dim
    assert rep["lower_slack"] <= 2 * S.h + 1e-12
    assert rep["upper_slack"] <= 2 * S.h + 1e-12


def test_boundary_measure_square_perimeter():
    S, _ = generate_canonical(CanonicalSpec("solid-square", 1 / 32))
    sigma = boundary_measure(S)
    # cell-width weights along a unit square boundary add up near 4
    assert 3.0 <= sigma.total <= 5.0
