"""Golden reports: fast CLI runs whose reports, less the volatile keys, and
exit codes are pinned under ``tests/golden/``.

The report schema and the exit codes are the contract, so a refactor must
reproduce these files exactly.  After a change that is meant to alter a
report, rewrite them with ``PYTHONPATH=src python tests/test_golden.py`` and
review the diff.
"""

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
    "theorem2_sp62_m3_sample": ["verify", "theorem2", "--p", "2", "--n", "3", "--m", "3",
                                "--mode", "sample", "--budget", "500", "--seed", "11"],
    "theorem3_sp42_sp42": ["verify", "theorem3", "--p", "2", "--n", "2"],
    "lemma5_sp42_sp62_sample": ["verify", "lemma5", "--p", "2", "--n", "2", "--n-prime", "3",
                                "--mode", "sample", "--budget", "2000", "--seed", "7"],
    "chow_sp42": ["verify", "chow", "--p", "2", "--n", "2"],
    "lemma1_sp42": ["verify", "lemma1", "--p", "2", "--n", "2"],
    "lemma2_m4": ["verify", "lemma2", "--m", "4"],
    "count_embeddings_sp42_m2": ["count", "embeddings", "--p", "2", "--n", "2", "--m", "2"],
    "count_frames_sp42": ["count", "frames", "--p", "2", "--n", "2"],
    # --mode does not apply to frames, which are always enumerated exhaustively
    "count_frames_sp42_sample": ["count", "frames", "--p", "2", "--n", "2", "--mode", "sample"],
    "count_apartments_sp42": ["count", "apartments", "--p", "2", "--n", "2"],
}


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


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        with tempfile.TemporaryDirectory() as out:
            result = run(argv, Path(out))
        (GOLDEN / f"{name}.json").write_text(json.dumps(result, sort_keys=True, indent=1) + "\n")
        print(f"wrote {name}: exit {result['exit_code']}", file=sys.stderr)
