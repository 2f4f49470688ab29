"""The report schema: the search-backed verifiers report what their search
returned, every report carries exactly the keys README.md lists, and every
violation kind is named by a test."""

import json
import re
from pathlib import Path

import pytest

from dualpolar.apartments import DEFAULT_BUDGET, search_isometric_embeddings, verify_theorem2
from dualpolar.cli import COUNT_KINDS, VERIFY_STATEMENTS, main
from dualpolar.graphs import dual_polar_graph, hypercube
from dualpolar.morphisms import (
    check_frames_preserving,
    induced_point_map,
    search_dualpolar_embeddings,
    verify_chow,
    verify_lemma5_bulk,
    verify_theorem3,
)
from dualpolar.polar import PolarSpace
from reference import collect

SP42 = PolarSpace(2, 2)
SP43 = PolarSpace(2, 3)
SEARCH_KEYS = ("mode", "budget", "seed", "workers", "expansions", "complete")
TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"
SRC = TESTS.parent / "src"


def _hypercube_search(space, m, mode="exhaustive", budget=DEFAULT_BUDGET, seed=0):
    def run(workers):
        return search_isometric_embeddings(
            hypercube(m), dual_polar_graph(space), mode, budget, seed, workers,
            visit=lambda *found: None,
        )[1]
    return run


def _dualpolar_search(src, dst, mode="exhaustive", budget=DEFAULT_BUDGET, seed=0):
    def run(workers):
        return search_dualpolar_embeddings(
            src, dst, mode, budget, seed, workers, visit=lambda emb: None
        )[1]
    return run


# (verifier at a worker count, the same search alone at that worker count)
CASES = {
    "theorem2-sp42": (lambda w: verify_theorem2(SP42, 2, workers=w), _hypercube_search(SP42, 2)),
    "theorem2-sp43-sample": (
        lambda w: verify_theorem2(SP43, 2, "sample", 3_000, 5, w),
        _hypercube_search(SP43, 2, "sample", 3_000, 5)),
    "lemma5-sp42": (lambda w: verify_lemma5_bulk(SP42, SP42, "exhaustive", workers=w),
                    _dualpolar_search(SP42, SP42)),
    "lemma5-sp43-sample": (
        lambda w: verify_lemma5_bulk(SP43, SP43, "sample", 5_000, 7, w),
        _dualpolar_search(SP43, SP43, "sample", 5_000, 7)),
    "theorem3-sp42": (lambda w: verify_theorem3(SP42, SP42, "exhaustive", workers=w),
                      _dualpolar_search(SP42, SP42)),
    "theorem3-sp43-sample": (
        lambda w: verify_theorem3(SP43, SP43, "sample", 5_000, 7, w),
        _dualpolar_search(SP43, SP43, "sample", 5_000, 7)),
    "chow-sp42": (lambda w: verify_chow(SP42, 10**5, workers=w),
                  _dualpolar_search(SP42, SP42, budget=10**5)),
    "chow-sp43": (lambda w: verify_chow(SP43, 10**5, workers=w),
                  _dualpolar_search(SP43, SP43, budget=10**5)),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_report_carries_its_search_stats(case, workers, two_cpus):
    verify, search = case
    report, stats = verify(workers), search(workers)
    assert {key: report[key] for key in SEARCH_KEYS} == {key: stats[key] for key in SEARCH_KEYS}
    assert report["counts"]["embeddings"] == stats["embeddings"]
    assert report["counts"]["distinct_images"] == stats["distinct_images"]
    assert report["violations"] == []


def _readme_keys() -> set[str]:
    match = re.search(r"`\{(statement,[^}]*)\}`", README.read_text())
    return {key.strip() for key in match.group(1).split(",")}


def test_every_report_has_the_readme_keys(tmp_path):
    keys = _readme_keys()
    assert "counts" in keys and "timestamp" in keys
    runs = [["verify", statement, "--p", "2", "--n", "2", "--m", "2", "--budget", "2000"]
            for statement in VERIFY_STATEMENTS]
    runs += [["count", what, "--p", "2", "--n", "2", "--m", "2"] for what in COUNT_KINDS]
    for argv in runs:
        out = tmp_path / argv[1]
        assert main(argv + ["--output", str(out)]) in (0, 2)
        (written,) = out.glob("*.json")
        assert set(json.loads(written.read_text())) == keys, argv
    emb = collect(search_dualpolar_embeddings, SP42, SP42)[0][0]
    assert set(check_frames_preserving(induced_point_map(emb))) == keys


def test_every_violation_kind_is_named_by_a_test():
    # a kind that no test names belongs to a check that no test is known to
    # reach; tests/mutants.py checks that each check is reached.
    # reference.py re-implements the checks, so it names them without
    # reaching them
    kinds = {
        kind for path in SRC.rglob("*.py")
        for kind in re.findall(r'"kind": "(\w+)"', path.read_text())
    }
    tests = "".join(path.read_text() for path in TESTS.glob("test_*.py"))
    assert len(kinds) >= 8
    assert {kind for kind in kinds if f'"{kind}"' not in tests} == set()
