import json
import os
import subprocess
import sys
import tracemalloc
from math import factorial, prod
from pathlib import Path
from time import perf_counter

import pytest

import dualpolar
from dualpolar import cli
from dualpolar.apartments import search_isometric_embeddings, search_stats
from dualpolar.cli import main
from dualpolar.export import (
    dump_json,
    graph_to_dot,
    graph_to_json,
    label_name,
    space_to_json,
)
from dualpolar.graphs import dual_polar_graph, hypercube
from dualpolar.polar import PolarSpace, enumerate_singular
from dualpolar.reporting import exit_code_for, make_report, report_json, strip_volatile

SP42 = PolarSpace(2, 2)


def test_space_json_shape():
    payload = space_to_json(SP42)
    assert payload["p"] == 2 and payload["n"] == 2
    assert len(payload["points"]) == 15
    assert [len(layer) for layer in payload["singular_subspaces_by_dim"]] == [15, 15]
    # integers only; the payload holds tuples, which json writes as arrays
    dump = dump_json(payload)
    assert "." not in dump.split("}")[0]
    assert json.loads(dump) == {
        "p": 2,
        "n": 2,
        "points": [list(pt) for pt in SP42.points],
        "singular_subspaces_by_dim": [
            [[list(row) for row in sub.rows] for sub in enumerate_singular(SP42, k)]
            for k in range(2)
        ],
    }


def test_graph_json_and_dot():
    g = dual_polar_graph(SP42)
    payload = graph_to_json(g)
    assert len(payload["vertices"]) == 15
    assert all(i < j for i, j in payload["edges"])
    assert "dist" not in payload

    dot = graph_to_dot(g)
    assert dot.startswith("graph g {")
    assert dot.count(" -- ") == len(g.edges())
    assert label_name(g.labels[0]) in dot

    hdot = graph_to_dot(hypercube(2))
    assert hdot.count("[label=") == 4


def test_report_helpers():
    report = make_report("x", {}, perf_counter(), {"frames": 3}, budget=1)
    assert report["mode"] is None and report["seed"] is None and report["workers"] == 1
    assert report["violations"] == [] and report["expansions"] == 0
    assert 0 <= report["elapsed"] < 60
    assert exit_code_for(report) == 0
    assert exit_code_for({**report, "violations": [{"kind": "boom"}]}) == 1
    assert exit_code_for({**report, "complete": False}) == 2
    stripped = strip_volatile(report)
    assert "elapsed" not in stripped and "timestamp" not in stripped
    assert report_json(report).endswith("\n")
    # a search's stats give six fields and two counts
    stats = search_stats("sample", 500, 11, 2, embeddings=40, distinct_images=5,
                         expansions=77, complete=False)
    searched = make_report("x", {}, perf_counter(), {"frames": 3}, mode="exhaustive",
                           budget=1, seed=0, search=stats)
    assert {key: searched[key] for key in stats if key in searched} == {
        "mode": "sample", "budget": 500, "seed": 11, "workers": 2,
        "expansions": 77, "complete": False,
    }
    assert searched["counts"] == {"embeddings": 40, "distinct_images": 5, "frames": 3}
    # and their completeness is ANDed with the run's own
    done = search_stats("exhaustive", 500, 0, 1)
    assert make_report("x", {}, perf_counter(), {}, search=done)["complete"]
    assert not make_report("x", {}, perf_counter(), {}, complete=False, search=done)["complete"]


def test_cli_build_writes_files(tmp_path):
    code = main(["build", "--p", "2", "--n", "2", "--output", str(tmp_path)])
    assert code == 0
    space = json.loads((tmp_path / "sp_p2_n2.space.json").read_text())
    assert len(space["points"]) == 15
    graph = json.loads((tmp_path / "sp_p2_n2.graph.json").read_text())
    assert len(graph["vertices"]) == 15


def test_cli_build_dot_sp62(tmp_path):
    code = main(["build", "--p", "2", "--n", "3", "--format", "dot", "--output", str(tmp_path)])
    assert code == 0
    dot = (tmp_path / "sp_p2_n3.graph.dot").read_text()
    assert dot.count("[label=") == 135


def test_cli_rejects_bad_parameters(tmp_path, capsys):
    assert main(["build", "--p", "7", "--output", str(tmp_path)]) == 64
    assert main(["build", "--n", "9", "--output", str(tmp_path)]) == 64
    assert main(["verify", "theorem2", "--p", "2", "--n", "2", "--m", "3",
                 "--output", str(tmp_path)]) == 64
    assert main(["verify", "nonsense", "--output", str(tmp_path)]) == 64
    assert main(["count", "embeddings", "--p", "2", "--n", "2",
                 "--output", str(tmp_path)]) == 64
    err = capsys.readouterr().err
    assert "usage error" in err


def test_cli_rejects_a_negative_seed(tmp_path, capsys):
    # the search would raise ValueError, and a crash exits 1, the
    # counterexample code
    assert main(["verify", "theorem2", "--p", "2", "--n", "2", "--m", "2", "--mode", "sample",
                 "--budget", "100", "--seed", "-1", "--output", str(tmp_path)]) == 64
    assert "--seed" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_runs_that_draw_no_numpy_generator_do_not_import_numpy(tmp_path):
    script = f"""
import os, sys
os.sched_getaffinity = lambda pid: {{0, 1}}  # let --workers 2 fork on any host
from dualpolar.cli import main
out = {str(tmp_path)!r}
runs = [
    ["count", "embeddings", "--p", "2", "--n", "2", "--m", "2"],
    ["verify", "theorem2", "--p", "2", "--n", "3", "--m", "2", "--mode", "sample",
     "--budget", "3000", "--seed", "5"],
    ["verify", "theorem3", "--p", "2", "--n", "2", "--workers", "2"],
    ["verify", "chow", "--p", "2", "--n", "2"],
]
codes = [main(args + ["--output", out]) for args in runs]
print(codes, "numpy" in sys.modules)
"""
    src = str(Path(dualpolar.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.splitlines()[-1] == "[0, 2, 0, 0] False"


def test_samplers_run_with_numpy_unavailable(tmp_path):
    script = f"""
import sys
sys.modules["numpy"] = None  # any import of numpy raises ImportError
from dualpolar.cli import main
from dualpolar.polar import PolarSpace, sample_frames
code = main(["verify", "lemma1", "--p", "2", "--n", "3", "--mode", "sample",
             "--budget", "200", "--seed", "1", "--output", {str(tmp_path)!r}])
print(code, len(sample_frames(PolarSpace(3, 2), 5, seed=5)))
"""
    src = str(Path(dualpolar.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.splitlines()[-1] == "0 5"


def test_cli_verify_theorem2_exhaustive(tmp_path):
    code = main([
        "verify", "theorem2", "--p", "2", "--n", "2", "--m", "2",
        "--mode", "exhaustive", "--output", str(tmp_path),
    ])
    assert code == 0
    report = json.loads((tmp_path / "report_theorem2_p2_n2_m2.json").read_text())
    assert report["violations"] == []
    assert report["counts"]["distinct_images"] == 90


def test_cli_verify_lemma2(tmp_path):
    # lemma2 is hypercube-only, so m may exceed the default rank
    code = main(["verify", "lemma2", "--m", "8", "--output", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report_lemma2_p2_n2_m8.json").read_text())
    assert report["violations"] == []


def test_cli_verify_lemma5(tmp_path):
    code = main([
        "verify", "lemma5", "--p", "2", "--n", "2", "--n-prime", "3",
        "--mode", "sample", "--budget", "5000", "--output", str(tmp_path),
    ])
    assert code in (0, 2)
    report = json.loads((tmp_path / "report_lemma5_p2_n2_np3.json").read_text())
    assert report["statement"] == "lemma5"
    assert report["violations"] == []
    assert report["counts"]["embeddings"] > 0


def test_cli_reports_for_different_n_prime_do_not_collide(tmp_path):
    for n_prime in ("2", "3"):
        code = main([
            "verify", "lemma5", "--p", "2", "--n", "2", "--n-prime", n_prime,
            "--mode", "sample", "--budget", "200", "--output", str(tmp_path),
        ])
        assert code in (0, 2)
    written = sorted(path.name for path in tmp_path.glob("report_lemma5_*.json"))
    assert written == ["report_lemma5_p2_n2_np2.json", "report_lemma5_p2_n2_np3.json"]
    for name, n_prime in zip(written, (2, 3)):
        report = json.loads((tmp_path / name).read_text())
        assert report["instance"]["n_prime"] == n_prime


def test_cli_verify_builds_one_space_when_the_ranks_agree(tmp_path, monkeypatch):
    # a target of the source's rank is the source, so its dual polar graph
    # is built once
    built = []

    def counting(n, p):
        built.append((n, p))
        return PolarSpace(n, p)

    monkeypatch.setattr(cli, "PolarSpace", counting)
    for argv in (["verify", "theorem3", "--p", "2", "--n", "2"],
                 ["verify", "lemma5", "--p", "2", "--n", "2", "--n-prime", "2"]):
        built.clear()
        assert main(argv + ["--output", str(tmp_path)]) == 0
        assert built == [(2, 2)], argv


def test_cli_budget_exhaustion_exit_code(tmp_path):
    code = main([
        "verify", "theorem2", "--p", "2", "--n", "2", "--m", "2",
        "--budget", "40", "--output", str(tmp_path),
    ])
    assert code == 2


def test_cli_sample_budget_under_one_placement_per_root_finds_nothing(tmp_path):
    # 3 000 expansions over the 1 120 roots of Sp(6,3) give each root 2 or 3,
    # fewer than the 8 placements of one H_3: an honest incomplete report
    code = main(["verify", "theorem2", "--p", "3", "--n", "3", "--m", "3", "--mode", "sample",
                 "--budget", "3000", "--output", str(tmp_path)])
    assert code == 2
    report = json.loads((tmp_path / "report_theorem2_p3_n3_m3.json").read_text())
    assert report["complete"] is False
    assert report["violations"] == []
    assert report["counts"]["embeddings"] == 0


def test_cli_count_frames_and_apartments(tmp_path):
    assert main(["count", "frames", "--p", "2", "--n", "2", "--output", str(tmp_path)]) == 0
    frames = json.loads((tmp_path / "count_frames_p2_n2.json").read_text())
    assert frames["counts"]["frames"] == 90
    assert main(["count", "apartments", "--p", "2", "--n", "2", "--output", str(tmp_path)]) == 0
    aparts = json.loads((tmp_path / "count_apartments_p2_n2.json").read_text())
    assert aparts["counts"]["apartments"] == 90


@pytest.mark.parametrize("what,mode", [
    ("points", "exhaustive"), ("singular", "exhaustive"), ("frames", "exhaustive"),
    ("apartments", "exhaustive"), ("embeddings", "sample"),
])
def test_cli_count_reports_the_mode_that_ran(what, mode, tmp_path):
    # every kind but embeddings is enumerated exhaustively whatever --mode asks for
    assert main(["count", what, "--p", "2", "--n", "2", "--m", "2", "--mode", "sample",
                 "--output", str(tmp_path)]) == 0
    report = json.loads((tmp_path / f"count_{what}_p2_n2.json").read_text())
    assert report["mode"] == mode


@pytest.mark.parametrize("what", ["points", "singular", "frames", "apartments"])
def test_cli_count_reports_no_seed_or_workers_it_did_not_use(what, tmp_path):
    # these kinds run in one process and draw nothing
    assert main(["count", what, "--p", "2", "--n", "2", "--workers", "2", "--seed", "9",
                 "--output", str(tmp_path)]) == 0
    report = json.loads((tmp_path / f"count_{what}_p2_n2.json").read_text())
    assert report["workers"] == 1 and report["seed"] is None


@pytest.mark.parametrize("mode,seed", [("exhaustive", None), ("sample", 9)])
def test_cli_verify_reports_a_seed_only_where_it_draws(mode, seed, tmp_path):
    main(["verify", "theorem2", "--p", "2", "--n", "2", "--m", "2", "--mode", mode,
          "--budget", "2000", "--seed", "9", "--output", str(tmp_path)])
    report = json.loads((tmp_path / "report_theorem2_p2_n2_m2.json").read_text())
    assert report["mode"] == mode and report["seed"] == seed


def test_cli_count_apartments_keeps_nothing_per_apartment(tmp_path):
    # the 30 240 apartments of Sp(6,2) are counted by round-tripping streamed
    # frames: a traced peak of about 0.2 MB, against 4 MB for a set of int
    # apartment keys and 152 MB for frozensets of subspaces from a frame list
    tracemalloc.start()
    try:
        code = main(["count", "apartments", "--p", "2", "--n", "3", "--output", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    report = json.loads((tmp_path / "count_apartments_p2_n3.json").read_text())
    assert report["counts"]["apartments"] == 30240 and report["complete"]
    assert peak < 2**20


def test_cli_count_embeddings_matches_theorem2(tmp_path):
    code = main(["count", "embeddings", "--p", "2", "--n", "2", "--m", "2",
                 "--output", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "count_embeddings_p2_n2.json").read_text())
    assert report["counts"]["distinct_images"] == 90
    assert report["counts"]["embeddings"] == 720


@pytest.mark.parametrize("p,n,images", [(2, 2, 90), (3, 2, 1_620), (5, 2, 73_125), (2, 3, 30_240)])
def test_cli_count_embeddings_with_m_n_matches_the_apartment_formula(p, n, images, tmp_path):
    # Theorem 2 with m = n: the images of H_n are the apartments,
    # |Sp(2n,p)| / (2^n n! (p-1)^n) of them, each reached once per
    # automorphism of H_n
    order = p ** (n * n) * prod(p ** (2 * i) - 1 for i in range(1, n + 1))
    per_image = 2**n * factorial(n)
    assert order // (per_image * (p - 1) ** n) == images
    assert main(["count", "embeddings", "--p", str(p), "--n", str(n), "--m", str(n),
                 "--output", str(tmp_path)]) == 0
    report = json.loads((tmp_path / f"count_embeddings_p{p}_n{n}.json").read_text())
    assert report["complete"]
    assert report["counts"]["distinct_images"] == images
    assert report["counts"]["embeddings"] == per_image * images


def test_cli_count_embeddings_reports_search_expansions(tmp_path):
    code = main(["count", "embeddings", "--p", "2", "--n", "2", "--m", "2",
                 "--output", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "count_embeddings_p2_n2.json").read_text())
    _, stats = search_isometric_embeddings(
        hypercube(2), dual_polar_graph(SP42), visit=lambda *found: None
    )
    assert report["expansions"] > 0
    assert report["expansions"] == stats["expansions"]


def test_cli_reports_are_deterministic(tmp_path):
    args = ["verify", "theorem2", "--p", "2", "--n", "2", "--m", "2",
            "--mode", "sample", "--budget", "2000", "--seed", "11"]
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    r1 = json.loads((out1 / "report_theorem2_p2_n2_m2.json").read_text())
    r2 = json.loads((out2 / "report_theorem2_p2_n2_m2.json").read_text())
    assert strip_volatile(r1) == strip_volatile(r2)
    assert dump_json(strip_volatile(r1)) == dump_json(strip_volatile(r2))


def test_cli_output_dir_from_env(tmp_path, monkeypatch):
    monkeypatch.setenv("DUALPOLAR_OUTPUT_DIR", str(tmp_path))
    assert main(["count", "points", "--p", "2", "--n", "2"]) == 0
    report = json.loads((tmp_path / "count_points_p2_n2.json").read_text())
    assert report["counts"]["points"] == 15
