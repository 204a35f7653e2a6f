"""Bit-identity of this tree against a git revision, in one command.

    python3 scripts/bitcheck.py REV

REV is checked out with `git worktree add` into a temporary directory.
In both trees (REV's and this working tree) the script runs

    sobtrace --out D demo --profile quick
    python3 perfbench/run.py --workload W --seed 11 --seconds 1

for each of the four benchmark workloads W, and reads each workload's
output digest off the `digest ...` line that run.py prints.  It prints one
JSON report: the demo files that differ (for each differing JSON file, the
leaf with the largest absolute and the one with the largest relative
change, and the leaves that changed otherwise), and the digests that
moved.  It exits 1 when anything moved, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("equivalence-sweep", "set-oracle", "grid-fields", "point-extension")
SEED = 11


def leaves(obj, path: str = "$"):
    """(path, value) for every leaf of a JSON value: $.key for object
    members, $[i] for list items."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from leaves(value, f"{path}.{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from leaves(value, f"{path}[{i}]")
    else:
        yield path, obj


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def leaf_diff(old, new) -> dict:
    """The leaves that differ between two JSON values: the numeric one with
    the largest absolute change, the one with the largest relative change
    (|new - old| / |old|, inf from 0), and the paths of the others (a leaf
    on one side only, a change of type or of a non-numeric value, or a zero
    that changed sign).  Two leaves are equal when their JSON texts are."""
    a, b = dict(leaves(old)), dict(leaves(new))
    absolute = relative = None
    other = []
    for path in [*a, *(p for p in b if p not in a)]:
        x, y = a.get(path, KeyError), b.get(path, KeyError)
        if x is not KeyError and y is not KeyError and json.dumps(x) == json.dumps(y):
            continue
        if not (_number(x) and _number(y)) or type(x) is not type(y) or x == y:
            other.append(path)
            continue
        change = abs(y - x)
        row = {"leaf": path, "old": x, "new": y, "absolute": change,
               "relative": change / abs(x) if x else math.inf}
        if absolute is None or row["absolute"] > absolute["absolute"]:
            absolute = row
        if relative is None or row["relative"] > relative["relative"]:
            relative = row
    return {"largest_absolute": absolute, "largest_relative": relative, "other": other}


def _run(argv: list, tree: Path) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tree / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, *argv], cwd=tree, env=env, text=True,
                          stdout=subprocess.PIPE)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} in {tree} exited with {done.returncode}")
    return done.stdout


def outputs(tree: Path, demo_dir: Path) -> dict:
    """The quick demo's files, written to demo_dir, and each workload's
    digest (with the count of distinct digests when its processes disagree)."""
    _run(["-m", "sobtrace.cli", "--out", str(demo_dir), "demo", "--profile", "quick"], tree)
    digests = {}
    for workload in WORKLOADS:
        out = _run(["perfbench/run.py", "--workload", workload, "--seed", str(SEED),
                    "--seconds", "1"], tree)
        line = next(ln for ln in out.splitlines() if ln.startswith("digest "))
        digest, count = line.split()[1], line.split("(")[1].split()[0]
        digests[workload] = digest if count == "1" else f"{digest} ({count} distinct)"
    return digests


def compare_demos(old_dir: Path, new_dir: Path) -> dict:
    """{file: its leaf_diff (a JSON file), "differs" (another file) or the
    side that holds it} over the files whose bytes differ or that one side
    lacks, by path under the demo directory."""
    files = sorted({str(p.relative_to(d)) for d in (old_dir, new_dir)
                    for p in d.rglob("*") if p.is_file()})
    report = {}
    for name in files:
        old, new = old_dir / name, new_dir / name
        if not (old.exists() and new.exists()):
            report[name] = "only in the revision" if old.exists() else "only in this tree"
        elif old.read_bytes() != new.read_bytes():
            report[name] = (leaf_diff(json.loads(old.read_text()), json.loads(new.read_text()))
                            if name.endswith(".json") else "differs")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("rev", help="git revision to compare this tree with, e.g. HEAD^")
    args = parser.parse_args(argv)
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", args.rev + "^{commit}"],
                         check=True, text=True, stdout=subprocess.PIPE).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="bitcheck-") as tmp:
        tmp = Path(tmp)
        rev_tree = tmp / "rev"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(rev_tree), sha], check=True)
        try:
            old = outputs(rev_tree, tmp / "demo-rev")
            new = outputs(ROOT, tmp / "demo-tree")
            demo = compare_demos(tmp / "demo-rev", tmp / "demo-tree")
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(rev_tree)], check=True)
    moved = {w: {"revision": old[w], "tree": new[w]} for w in WORKLOADS if old[w] != new[w]}
    report = {"revision": sha, "moved": bool(demo or moved), "demo_files": demo,
              "digests": new, "moved_digests": moved}
    print(json.dumps(report, indent=2, sort_keys=True))
    return 1 if report["moved"] else 0


if __name__ == "__main__":
    sys.exit(main())
