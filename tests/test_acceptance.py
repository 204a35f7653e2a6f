"""Acceptance gate: every criterion runs at its stated tolerance and must
pass; each test prints its verdict line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from sobtrace import acceptance

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
