"""Golden reports: fast CLI runs whose reports, less the volatile keys, and
exit codes are pinned under ``tests/golden/``.

The report schema and the exit codes are the contract, so a refactor must
reproduce these files exactly.  After a change that is meant to alter a
report, rewrite them with ``PYTHONPATH=src python tests/test_golden.py`` and
review the diff.  The same script rewrites ``build_digests.json``, the
SHA-256 digests of the files ``build`` writes in both formats.  Given run
names, ``python tests/test_golden.py NAME...`` rewrites only those golden
files and leaves every other file, the digests included, as it is.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from dualpolar.cli import main
from dualpolar.reporting import strip_volatile

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "theorem2_sp42_m2": ["verify", "theorem2", "--p", "2", "--n", "2", "--m", "2"],
    # each of the 135 roots gets fewer expansions than H_3's 8 placements:
    # the honest report of a sample that places nothing
    "theorem2_sp62_m3_sample": ["verify", "theorem2", "--p", "2", "--n", "3", "--m", "3",
                                "--mode", "sample", "--budget", "500", "--seed", "11"],
    # the benchmark's configuration, which places and validates images
    "theorem2_sp62_m3_sample_b5000": ["verify", "theorem2", "--p", "2", "--n", "3", "--m", "3",
                                      "--mode", "sample", "--budget", "5000", "--seed", "11"],
    "theorem3_sp42_sp42": ["verify", "theorem3", "--p", "2", "--n", "2"],
    "theorem3_sp42_sp62_sample": ["verify", "theorem3", "--p", "2", "--n", "2", "--n-prime", "3",
                                  "--mode", "sample", "--budget", "2000", "--seed", "7"],
    "lemma5_sp42_sp62_sample": ["verify", "lemma5", "--p", "2", "--n", "2", "--n-prime", "3",
                                "--mode", "sample", "--budget", "2000", "--seed", "7"],
    "chow_sp42": ["verify", "chow", "--p", "2", "--n", "2"],
    "lemma1_sp42": ["verify", "lemma1", "--p", "2", "--n", "2"],
    "lemma1_sp43": ["verify", "lemma1", "--p", "3", "--n", "2"],
    # uniform geodesics drawn from random.Random(seed) with the path counts
    "lemma1_sp62_sample": ["verify", "lemma1", "--p", "2", "--n", "3",
                           "--mode", "sample", "--budget", "2000", "--seed", "1"],
    "lemma2_m4": ["verify", "lemma2", "--m", "4"],
    "count_embeddings_sp42_m2": ["count", "embeddings", "--p", "2", "--n", "2", "--m", "2"],
    "count_embeddings_sp43_m2": ["count", "embeddings", "--p", "3", "--n", "2", "--m", "2",
                                 "--budget", "20000"],
    # a budget that runs out part way through the last level of every root,
    # in ascending and in shuffled order
    "count_embeddings_sp43_m2_b5000": ["count", "embeddings", "--p", "3", "--n", "2", "--m", "2",
                                       "--budget", "5000"],
    "count_embeddings_sp43_m2_sample": ["count", "embeddings", "--p", "3", "--n", "2", "--m", "2",
                                        "--mode", "sample", "--budget", "5000", "--seed", "5"],
    # the benchmark's count: 585 000 embeddings onto the 73 125 apartments
    "count_embeddings_sp45_m2": ["count", "embeddings", "--p", "5", "--n", "2", "--m", "2"],
    # H_3 into a rank-3 target, with a budget that cuts every root branch
    "count_embeddings_sp62_m3_b300000": ["count", "embeddings", "--p", "2", "--n", "3", "--m", "3",
                                         "--budget", "300000"],
    "count_frames_sp42": ["count", "frames", "--p", "2", "--n", "2"],
    # --mode does not apply to frames, which are always enumerated exhaustively
    "count_frames_sp42_sample": ["count", "frames", "--p", "2", "--n", "2", "--mode", "sample"],
    "count_apartments_sp42": ["count", "apartments", "--p", "2", "--n", "2"],
}


# (p, n) of the spaces whose ``build`` exports are pinned by digest; Sp(6,3)
# is the benchmark's build and Sp(4,5) the largest field
BUILDS = [(2, 2), (3, 2), (2, 3), (3, 3), (5, 2)]


def build_digests(p: int, n: int, out: Path) -> dict:
    """The SHA-256 digest of every file ``build`` writes for Sp(2n, p), in
    JSON and in DOT format, by file name."""
    for fmt in ("json", "dot"):
        assert main(["build", "--p", str(p), "--n", str(n), "--format", fmt,
                     "--output", str(out)]) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())}


def run(argv: list[str], out: Path, workers: int = 1) -> dict:
    """The exit code and the stripped report of one CLI run into ``out``."""
    code = main(argv + ["--workers", str(workers), "--output", str(out)])
    (written,) = out.glob("*.json")
    return {"argv": argv, "exit_code": code,
            "report": strip_volatile(json.loads(written.read_text()))}


@pytest.mark.parametrize("name,workers", [
    pytest.param(name, workers, id=name if workers == 1 else f"{name}-workers{workers}")
    for workers in (1, 2) for name in sorted(COMMANDS)
])
def test_report_matches_golden(name, workers, tmp_path, two_cpus):
    # at two workers the search-backed verifiers fork; only ``workers`` may
    # then differ
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    got = run(COMMANDS[name], tmp_path, workers)
    if workers > 1:
        got["report"].pop("workers")
        golden["report"].pop("workers")
    assert got == golden


@pytest.mark.parametrize("p,n", BUILDS, ids=[f"sp{2 * n}{p}" for p, n in BUILDS])
def test_build_exports_match_golden_digests(p, n, tmp_path):
    golden = json.loads((GOLDEN / "build_digests.json").read_text())
    got = build_digests(p, n, tmp_path)
    assert got == {name: digest for name, digest in golden.items()
                   if name.startswith(f"sp_p{p}_n{n}.")}
    assert len(got) == 3


def write_golden(names: list[str]) -> None:
    """Rewrite the golden files of the runs ``names``, or of every run and
    the build digests when ``names`` is empty."""
    unknown = sorted(set(names) - set(COMMANDS))
    if unknown:
        raise SystemExit(f"unknown golden run(s): {', '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    for name in names or COMMANDS:
        with tempfile.TemporaryDirectory() as out:
            result = run(COMMANDS[name], Path(out))
        (GOLDEN / f"{name}.json").write_text(json.dumps(result, sort_keys=True, indent=1) + "\n")
        print(f"wrote {name}: exit {result['exit_code']}", file=sys.stderr)
    if names:
        return
    digests = {}
    for p, n in BUILDS:
        with tempfile.TemporaryDirectory() as out:
            digests.update(build_digests(p, n, Path(out)))
    (GOLDEN / "build_digests.json").write_text(json.dumps(digests, sort_keys=True, indent=1) + "\n")
    print("wrote build_digests", file=sys.stderr)


def test_rewriting_named_runs_leaves_every_other_file(tmp_path, monkeypatch):
    pinned = GOLDEN / "count_frames_sp42.json"
    monkeypatch.setitem(globals(), "GOLDEN", tmp_path)
    (tmp_path / "build_digests.json").write_text("kept\n")
    write_golden(["count_frames_sp42"])
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "build_digests.json", "count_frames_sp42.json"]
    assert (tmp_path / "build_digests.json").read_text() == "kept\n"
    assert (tmp_path / "count_frames_sp42.json").read_text() == pinned.read_text()
    with pytest.raises(SystemExit, match="unknown golden run.*: nosuch"):
        write_golden(["count_frames_sp42", "nosuch"])
    assert (tmp_path / "build_digests.json").read_text() == "kept\n"


if __name__ == "__main__":
    write_golden(sys.argv[1:])
