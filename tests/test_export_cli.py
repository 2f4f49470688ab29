import json
import tracemalloc

from dualpolar.apartments import search_hypercube_embeddings
from dualpolar.cli import main
from dualpolar.export import (
    dump_json,
    graph_to_dot,
    graph_to_json,
    label_name,
    space_to_json,
)
from dualpolar.graphs import dual_polar_graph, hypercube
from dualpolar.polar import PolarSpace
from dualpolar.reporting import exit_code_for, make_report, report_json, strip_volatile

SP42 = PolarSpace(2, 2)


def test_space_json_shape():
    payload = space_to_json(SP42)
    assert payload["p"] == 2 and payload["n"] == 2
    assert len(payload["points"]) == 15
    assert [len(layer) for layer in payload["singular_subspaces_by_dim"]] == [15, 15]
    # integers only
    dump = dump_json(payload)
    assert "." not in dump.split("}")[0]
    assert json.loads(dump) == payload


def test_graph_json_and_dot():
    g = dual_polar_graph(SP42)
    payload = graph_to_json(g)
    assert len(payload["vertices"]) == 15
    assert all(i < j for i, j in payload["edges"])
    assert "dist" not in payload
    with_dist = graph_to_json(g, include_dist=True)
    assert len(with_dist["dist"]) == 15

    dot = graph_to_dot(g)
    assert dot.startswith("graph g {")
    assert dot.count(" -- ") == len(g.edges())
    assert label_name(g.labels[0]) in dot

    hdot = graph_to_dot(hypercube(2))
    assert hdot.count("[label=") == 4


def test_report_helpers():
    report = make_report(
        statement="x", instance={}, mode="exhaustive", budget=1, seed=0,
        workers=1, counts={}, violations=[], complete=True, expansions=0,
        elapsed=0.5,
    )
    assert exit_code_for(report) == 0
    assert exit_code_for({**report, "violations": [{"kind": "boom"}]}) == 1
    assert exit_code_for({**report, "complete": False}) == 2
    stripped = strip_volatile(report)
    assert "elapsed" not in stripped and "timestamp" not in stripped
    assert report_json(report).endswith("\n")


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


def test_cli_budget_exhaustion_exit_code(tmp_path):
    code = main([
        "verify", "theorem2", "--p", "2", "--n", "2", "--m", "2",
        "--budget", "40", "--output", str(tmp_path),
    ])
    assert code == 2


def test_cli_count_frames_and_apartments(tmp_path):
    assert main(["count", "frames", "--p", "2", "--n", "2", "--output", str(tmp_path)]) == 0
    frames = json.loads((tmp_path / "count_frames_p2_n2.json").read_text())
    assert frames["counts"]["frames"] == 90
    assert main(["count", "apartments", "--p", "2", "--n", "2", "--output", str(tmp_path)]) == 0
    aparts = json.loads((tmp_path / "count_apartments_p2_n2.json").read_text())
    assert aparts["counts"]["apartments"] == 90


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


def test_cli_count_embeddings_reports_search_expansions(tmp_path):
    code = main(["count", "embeddings", "--p", "2", "--n", "2", "--m", "2",
                 "--output", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "count_embeddings_p2_n2.json").read_text())
    _, stats = search_hypercube_embeddings(2, dual_polar_graph(SP42))
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
