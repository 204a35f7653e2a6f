"""Acceptance gate: every criterion runs at its stated tolerance and must
pass; each test prints its verdict line."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sobtrace import acceptance
from sobtrace.cubes import conflict_masks

LABELS = [label for label, _ in acceptance._CRITERIA]


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.mark.parametrize(
    "number", range(1, len(LABELS) + 1), ids=[l.replace(" ", "-") for l in LABELS]
)
def test_criterion(number, artifact_dir):
    result = acceptance.run(number, seed=0, out_dir=artifact_dir)
    verdict = "pass" if result.passed else "FAIL"
    print(f"{result.label}: {verdict}  {result.detail}  [{result.seconds:.1f}s]")
    assert result.passed, f"{result.label}: {result.detail}"


def test_c02_class_check_passes_a_touching_lattice():
    # 16 cubes at spacing 0.3 share faces and nothing more: one packing
    ticks = 0.3 * np.arange(4)
    centers = np.array([(x, y) for x in ticks for y in ticks])
    radii = np.full(16, 0.15)
    assert acceptance._class_overlap(conflict_masks(centers, radii), np.zeros(16, int)) is None


def test_c02_class_check_names_the_overlapping_pair():
    # 0-1 and 1-2 overlap, 0-2 and every pair with cube 3 do not
    centers, radii = np.array([[0.0], [0.4], [0.7], [3.0]]), np.full(4, 0.25)
    conflicts = conflict_masks(centers, radii)
    assert acceptance._class_overlap(conflicts, np.array([0, 1, 0, 1])) is None
    assert acceptance._class_overlap(conflicts, np.array([0, 1, 1, 0])) == (1, 2)
    assert acceptance._class_overlap(conflicts, np.array([5, 5, 5, 5])) == (0, 1)


def test_c02_fails_when_a_class_is_not_a_packing(monkeypatch, tmp_path):
    monkeypatch.setattr(
        acceptance, "partition_into_packings", lambda centers, radii: np.zeros(len(radii), int)
    )
    result = acceptance.run(2, seed=0, out_dir=tmp_path)
    assert not result.passed
    assert result.detail.startswith("trial 0: cubes ")
    assert result.detail.endswith(" share color 0 but overlap")


def test_c13_determinism_across_processes(tmp_path):
    """demo --profile quick writes the same bytes from two processes that
    differ in hash seed and BLAS thread count."""
    src = str(Path(acceptance.__file__).resolve().parents[1])
    runs = []
    for seed, threads in (("1", "1"), ("2", "2")):
        out = tmp_path / f"run{seed}"
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            PYTHONHASHSEED=seed,
            OMP_NUM_THREADS=threads,
            OPENBLAS_NUM_THREADS=threads,
        )
        subprocess.run(
            [sys.executable, "-m", "sobtrace.cli", "--out", str(out), "demo", "--profile", "quick"],
            env=env, check=True, capture_output=True,
        )
        runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert runs[0] and runs[0] == runs[1]
