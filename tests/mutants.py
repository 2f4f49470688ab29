"""Neutralize each check of the verifiers, one at a time, and run the tests.

Each mutant is a copy of ``src/``, ``tests/`` and ``README.md`` in a
temporary directory in which the guard of one check is replaced so that the
check never fires (``if cond:`` becomes ``if False:``).  ``pytest -x tests``
then runs on the copy.  A mutant that passes every test marks a check that
no test reaches: reach it with a test, or argue it away and delete it.  Run
from anywhere, with the names of some checks to run only those:

    python tests/mutants.py [CHECK ...]

It prints one line per mutant and exits 1 if any mutant survives.  pytest
does not collect this file, since its name does not match ``test_*.py``.
The seventeen mutants take about thirteen minutes on two cores.  A check added to
``src/`` gets a line in ``MUTANTS``.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (check, module of src/dualpolar, its guard as written, the guard that never fires)
MUTANTS = [
    ("base_dimension", "apartments.py",
     "if base.bit_count() != subspace_size(space, rank):", "if False:"),
    ("base_depends_on_opposite_pair", "apartments.py", "if other != base:", "if False:"),
    ("face_intersection_defect", "apartments.py", "if q.bit_count() != face_size:", "if False:"),
    ("frame_roundtrip_mismatch", "apartments.py",
     "if reduce(and_, map(members.__getitem__, side)) != 1 << index[frame.points[i]]:",
     "if False:"),
    ("image_count_vs_apartments", "apartments.py",
     'if apartments != stats["distinct_images"]:', "if False:"),
    ("lemma1", "apartments.py", "if meet & ~masks[u]:", "if False:"),
    # the budget check of a one-candidate position placed in the frame above it
    ("search_forced_budget", "apartments.py", "if expansions == budget:", "if False:"),
    ("lemma2_opposite", "graphs.py", "if len(opposite) != 1:", "if False:"),
    ("lemma2_geodesic", "graphs.py", "if not ok:", "if False:"),
    ("point_image_defect", "morphisms.py", "if gp.bit_count() != size:", "if False:"),
    ("point_map_not_injective", "morphisms.py", "if len(set(g)) != len(g):", "if False:"),
    # the pair count passes every set of point images
    ("collinearity_count", "morphisms.py", "if count_of[key] == pairs:", "if True:"),
    # theorem3's per-image skip skips every embedding, the first of an image too
    ("theorem3_image_skip", "morphisms.py", "if image not in passed:", "if False:"),
    # the transfer's check is the decomposition it calls
    ("apartment_transfer_failure", "morphisms.py",
     "_witness_from_images(dst_space, masks)", "pass"),
    ("lift_base_rank", "morphisms.py",
     "if base.rank != dst_space.n - src_space.n:", "if False:"),
    ("lift_span_not_maximal_singular", "morphisms.py",
     "if points & ~perp or perp.bit_count() != maximal_size:", "if False:"),
    ("lift_distances", "morphisms.py", "if d != src.dist[i][j]:", "if False:"),
]


def _check_guards() -> None:
    """Exit unless every guard occurs exactly once in its module."""
    for check, module, guard, _ in MUTANTS:
        found = (ROOT / "src" / "dualpolar" / module).read_text().count(guard)
        if found != 1:
            sys.exit(f"{check}: the guard {guard!r} occurs {found} times in {module}, not once")


def survives(module: str, guard: str, neutral: str) -> bool:
    """Whether every test passes with this one guard neutralized."""
    with tempfile.TemporaryDirectory(prefix="dualpolar-mutant-") as tmp:
        tree = Path(tmp)
        shutil.copytree(ROOT / "src", tree / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        shutil.copytree(ROOT / "tests", tree / "tests",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "README.md", tree / "README.md")
        path = tree / "src" / "dualpolar" / module
        path.write_text(path.read_text().replace(guard, neutral))
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"],
            cwd=tree, env=env, capture_output=True, text=True,
        )
    if done.returncode not in (0, 1):
        sys.exit(f"pytest exited with {done.returncode}:\n{done.stdout}{done.stderr}")
    return done.returncode == 0


def main(names: list[str]) -> int:
    _check_guards()
    unknown = set(names) - {check for check, *_ in MUTANTS}
    if unknown:
        sys.exit(f"unknown checks: {', '.join(sorted(unknown))}")
    survivors = []
    for check, module, guard, neutral in MUTANTS:
        if names and check not in names:
            continue
        alive = survives(module, guard, neutral)
        print(f"{check}: {'SURVIVED' if alive else 'killed'}", flush=True)
        if alive:
            survivors.append(check)
    print(f"{len(survivors)} survivor(s){': ' + ', '.join(survivors) if survivors else ''}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
