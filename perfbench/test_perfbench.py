"""Smoke test of the benchmark on Sp(4,2): python3 -m pytest perfbench"""

import json
import re
import shutil
import subprocess
import sys

import pytest

import run
import workloads as wl

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

SMOKE = [
    wl.build(2, 2),
    wl.theorem2_sample(2, 2, 2, budget=300, floor=10),
    wl.theorem3(2, 2, 2, mode="exhaustive", budget=10**6, workers=2, expected_exit=0),
    wl.count_embeddings(2, 2),
]


def test_benchmark_json_names_what_the_runner_reports():
    assert [(w["name"], w["why"]) for w in BENCH["workloads"]] == [
        (w.name, w.why) for w in wl.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER
    names = [*wl.WORKLOADS, *run.END_TO_END, *run.PER_LAYER]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)


@pytest.mark.parametrize("workload", SMOKE, ids=lambda w: w.name)
def test_untraced_run(workload, tmp_path):
    result, samples = run.run(workload, seed=3, seconds=0.1, trace=False, workdir=tmp_path)
    assert [s.errors for s in samples] == [[]] * run.MIN_UNTRACED
    assert (result["correct"], result["attempted"], result["failed"]) == (True, run.MIN_UNTRACED, 0)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", SMOKE, ids=lambda w: w.name)
def test_traced_run_matches_untraced(workload, tmp_path):
    result, samples = run.run(workload, seed=3, seconds=0.1, trace=True, workdir=tmp_path)
    # a traced sample fails unless its wrappers were all removed and its
    # outputs equal the untraced sample's outside the volatile keys
    assert [s.traced for s in samples] == [False, True]
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER
    assert metrics["linalg.rref.calls"] > 0 and metrics["graphs.dual_polar_graph.s"] > 0
    assert metrics["export.bytes"] > 0 and metrics["trace.overhead_ratio"] > 0
    if workload.args[0] == "build":
        assert metrics["export.dump_json.s"] > 0 and metrics["apartments.search.calls"] == 0
    else:
        assert metrics["reporting.report_json.s"] > 0 and metrics["apartments.search.expansions"] > 0
    if "embeddings" in workload.args:
        assert metrics["apartments.search.image_ratio"] == 1 / 8
    if "theorem3" in workload.args:
        assert metrics["morphisms.verify_lemma5.calls"] == 720
        assert metrics["morphisms.cache_entries"] > 0
        assert metrics["apartments.search.image_ratio"] == 1 / 720


def _outputs(workload, tmp_path):
    s = run.run_sample(workload, seed=3, traced=False, sdir=tmp_path / "s", timeout=60)
    assert s.errors == []
    return {p.name: json.loads(p.read_text()) for p in (tmp_path / "s" / "out").iterdir()}


def test_build_oracle_rejects_wrong_counts(tmp_path):
    workload = wl.build(2, 2)
    files = _outputs(workload, tmp_path)
    assert workload.check(files) == (30, [])
    space, graph = files["sp_p2_n2.space.json"], files["sp_p2_n2.graph.json"]

    space["singular_subspaces_by_dim"][1].pop()
    assert any("singular layers" in e for e in workload.check(files)[1])
    space["singular_subspaces_by_dim"][1].append([[1, 0, 0, 0], [0, 1, 0, 0]])  # a hyperbolic pair
    assert any("non-isotropic" in e for e in workload.check(files)[1])

    files = _outputs(workload, tmp_path / "again")
    files["sp_p2_n2.graph.json"]["edges"].pop()
    assert any("edges" in e for e in workload.check(files)[1])


def test_report_oracles_reject_wrong_counts(tmp_path):
    workload = SMOKE[2]
    files = _outputs(workload, tmp_path)
    assert workload.check(files) == (720, [])
    (report,) = files.values()
    report["counts"]["embeddings"] = 719
    assert any("complete run found 719/1" in e for e in workload.check(files)[1])
    report["counts"]["embeddings"] = 720
    report["violations"] = [{"statement": "theorem3", "kind": "point_map_not_injective"}]
    assert any("1 violations" in e for e in workload.check(files)[1])

    workload = SMOKE[3]
    files = _outputs(workload, tmp_path / "embeddings")
    assert workload.check(files) == (720, [])
    (report,) = files.values()
    report["counts"]["distinct_images"] = 89
    assert any("counts" in e for e in workload.check(files)[1])

    workload = SMOKE[1]
    files = _outputs(workload, tmp_path / "theorem2")
    items, errors = workload.check(files)
    assert items >= 10 and errors == []
    strict = wl.theorem2_sample(2, 2, 2, budget=300, floor=items + 1)
    assert any("< floor" in e for e in strict.check(files)[1])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build-sp63", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
