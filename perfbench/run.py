"""Benchmark of the dualpolar CLI: one workload, many fresh-process samples.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every sample runs the workload's command in a new interpreter, as a CLI user
does, so the module-global memo dicts of ``morphisms`` start cold each time.
Samples run one after another until the next one would end after S seconds
(at least three untraced samples, or one of each kind when tracing). Each
sample's outputs are checked against the workload's oracle and against the
first sample's outputs outside the report's volatile keys; a sample that
crashes, exits with an unexpected code, reports a violation, misses an
oracle or differs, fails.

With --trace 0 the last stdout line carries the end-to-end metrics (medians
over untraced samples). With --trace 1 untraced and traced samples alternate,
and it carries the per-layer metrics of the traced samples and the tracing
overhead. Exits 2 without a result when the program's sources are missing.

Times are reported in seconds at a reference host speed. While a sample
runs, a thread of this process (not of the sample's) times a short fixed
loop every PROBE_PERIOD_S in its own thread CPU time, and every time of the
sample is scaled by PROBE_REF_S / (mean loop time). CPU time grows when the
host runs Python slower, but not when the loop waits for a CPU that the
sample's own workers hold, so the scale does not depend on how many CPUs the
program uses.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, thread_time

from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HARD_LIMIT_S = 150.0  # no sample may run past this, so a run ends within 180 s
MIN_UNTRACED = 3
PROBE_PERIOD_S = 0.1
PROBE_ITERATIONS = 10_000
PROBE_REF_S = 0.0025  # CPU time of one probe loop at the reference speed

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "verify_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}

SEARCH = "apartments.search_isometric_embeddings"
COUNTED = ("linalg.rref", "linalg.intersect", "linalg.sum_span", "linalg.contains_subspace",
           "polar.apartment_of_frame", "polar.residue_collinear", "apartments.is_apartment",
           "morphisms.verify_lemma5", "morphisms.induced_point_map")
INCLUSIVE = ("polar.enumerate_singular", "polar.enumerate_frames", "graphs.dual_polar_graph",
             "graphs.all_pairs_distances", "export.dump_json", "reporting.report_json")
SELF_ONLY = ("graphs.dual_polar_graph", "apartments.verify_theorem2", "morphisms.verify_theorem3")
PER_LAYER = {
    **{f"{fn}.{m}": u for fn in COUNTED for m, u in (("calls", "count"), ("self_s", "s"))},
    **{f"{fn}.s": "s" for fn in INCLUSIVE},
    **{f"{fn}.self_s": "s" for fn in SELF_ONLY},
    "apartments.search.calls": "count",
    "apartments.search.self_s": "s",
    "apartments.search.expansions": "count",
    "apartments.search.expansions_per_s": "1/s",
    "apartments.search.image_ratio": "ratio",
    "morphisms.cache_entries": "count",
    "export.bytes": "B",
    "trace.overhead_ratio": "ratio",
}


def probe_loop() -> float:
    """CPU seconds this thread takes for a fixed loop of dict and integer work,
    like the program's."""
    start = thread_time()
    table: dict[int, int] = {}
    acc = 0
    for i in range(PROBE_ITERATIONS):
        key = (i * 7919) % 4099
        table[key] = table.get(key, 0) + i
        acc ^= key
    return thread_time() - start


class SpeedProbe:
    """Runs ``probe_loop`` at once and then every PROBE_PERIOD_S until closed;
    ``scale`` is PROBE_REF_S over the mean loop time."""

    def __init__(self):
        self.loops: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            self.loops.append(probe_loop())
            if self._stop.wait(PROBE_PERIOD_S):
                return

    def __enter__(self) -> SpeedProbe:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def scale(self) -> float:
        return PROBE_REF_S / statistics.mean(self.loops)


@dataclass
class Sample:
    """Raw times of one sample; ``scale`` converts them to reference seconds."""

    traced: bool
    wall_s: float  # spawn to exit
    scale: float
    setup_s: float = 0.0
    verify_s: float = 0.0
    peak_rss_mb: float = 0.0
    items: int = 0
    out_bytes: int = 0
    fingerprint: str | None = None
    result: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


def _fingerprint(files: dict, volatile: list[str]) -> str:
    canon = {
        name: {k: v for k, v in payload.items() if k not in volatile}
        if isinstance(payload, dict) else payload
        for name, payload in files.items()
    }
    return hashlib.sha256(json.dumps(canon, sort_keys=True).encode()).hexdigest()


def run_sample(wl: Workload, seed: int, traced: bool, sdir: Path, timeout: float) -> Sample:
    out = sdir / "out"
    out.mkdir(parents=True)
    result_path = sdir / "result.json"
    cmd = [sys.executable, str(HERE / "sample.py"), str(result_path), "1" if traced else "0",
           json.dumps(wl.spaces), "--", *wl.args, "--seed", str(seed), "--output", str(out)]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    start = perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    # started after the spawn, so that its loops cannot hold the GIL while
    # this thread takes ``start`` and forks
    with SpeedProbe() as probe:
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)

    s = Sample(traced=traced, wall_s=end - start, scale=probe.scale,
               peak_rss_mb=usage.ru_maxrss / 1024)
    if proc.returncode != wl.expected_exit:
        s.errors.append(f"exit code {proc.returncode} != {wl.expected_exit}")
    try:
        s.result = json.loads(result_path.read_text())
    except (OSError, ValueError) as exc:
        s.errors.append(f"no sample result: {exc}")
        return s
    s.setup_s = s.result["setup_end"] - start
    s.verify_s = s.wall_s - s.setup_s
    if not Path(s.result["program"]).resolve().is_relative_to(SRC):
        s.errors.append(f"ran {s.result['program']}, not the program under {SRC}")
    if not s.result["restored"]:
        s.errors.append("tracing left a wrapper in place")
    files = {}
    try:
        for path in sorted(out.iterdir()):
            s.out_bytes += path.stat().st_size
            files[path.name] = json.loads(path.read_text())
        s.fingerprint = _fingerprint(files, s.result["volatile_keys"])
        s.items, oracle_errors = wl.check(files)
    except (KeyError, TypeError, ValueError) as exc:
        oracle_errors = [f"could not check the outputs: {exc!r}"]
    s.errors.extend(oracle_errors)
    return s


def layer_metrics(s: Sample) -> dict[str, float]:
    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for rec in s.result["spans"]:
        for key, value in rec.items():
            if key not in ("name", "parent"):
                totals[rec["name"]][key] += value
    m: dict[str, float] = {}
    for fn in COUNTED:
        m[f"{fn}.calls"] = totals[fn]["calls"]
        m[f"{fn}.self_s"] = totals[fn]["self_s"]
    for fn in INCLUSIVE:
        m[f"{fn}.s"] = totals[fn]["outer_s"]
    for fn in SELF_ONLY:
        m[f"{fn}.self_s"] = totals[fn]["self_s"]
    search = totals[SEARCH]
    # the useful share is judged on the searches a verifier asked for, not on
    # the relabelling searches nested inside is_apartment
    top = [r for r in s.result["spans"] if r["name"] == SEARCH and r["parent"] != "apartments.is_apartment"]
    found = sum(r["embeddings"] for r in top)
    m.update({
        "apartments.search.calls": search["calls"],
        "apartments.search.self_s": search["self_s"],
        "apartments.search.expansions": search["expansions"],
        "apartments.search.expansions_per_s":
            search["expansions"] / search["outer_s"] if search["outer_s"] else 0.0,
        "apartments.search.image_ratio": sum(r["distinct_images"] for r in top) / found if found else 0.0,
        "morphisms.cache_entries": s.result["morphisms_cache_entries"],
        "export.bytes": s.out_bytes,
    })
    for name, unit in PER_LAYER.items():
        if unit == "s":
            m[name] *= s.scale
        elif unit == "1/s":
            m[name] /= s.scale
    return m


def run(wl: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple[dict, list[Sample]]:
    start = perf_counter()
    deadline, hard = start + seconds, start + HARD_LIMIT_S
    kinds = (False, True) if trace else (False,)
    longest = {False: 0.0, True: 0.0}
    samples: list[Sample] = []
    reference = None
    while True:
        traced = kinds[len(samples) % len(kinds)]
        done = sum(not s.traced for s in samples)
        enough = len(samples) >= 2 if trace else done >= MIN_UNTRACED
        now = perf_counter()
        if (enough and now + longest[traced] > deadline) or now >= hard:
            break
        sdir = workdir / f"s{len(samples)}"
        s = run_sample(wl, seed, traced, sdir, hard - perf_counter())
        shutil.rmtree(sdir)
        longest[traced] = max(longest[traced], s.wall_s)
        if s.fingerprint is not None:
            reference = reference or s.fingerprint
            if s.fingerprint != reference:
                s.errors.append("outputs differ from the run's first sample outside volatile keys")
        samples.append(s)

    plain = [s for s in samples if not s.traced]
    good = [s for s in plain if not s.errors] or plain
    if not trace:
        metrics = {
            "wall_s": statistics.median(s.scale * s.wall_s for s in good),
            "setup_s": statistics.median(s.scale * s.setup_s for s in good),
            "verify_s": statistics.median(s.scale * s.verify_s for s in good),
            "items_per_s": statistics.median(
                s.items / (s.scale * s.verify_s) if s.verify_s else 0.0 for s in good),
            "peak_rss_mb": statistics.median(s.peak_rss_mb for s in good),
        }
        units = END_TO_END
    else:
        traced_samples = [s for s in samples if s.traced]
        traced_good = [s for s in traced_samples if not s.errors and s.result] or [
            s for s in traced_samples if s.result]
        per_sample = [layer_metrics(s) for s in traced_good]
        metrics = {name: statistics.median(m[name] for m in per_sample) if per_sample else 0.0
                   for name in PER_LAYER if name != "trace.overhead_ratio"}
        metrics["trace.overhead_ratio"] = (
            statistics.median(s.scale * s.wall_s for s in traced_samples)
            / statistics.median(s.scale * s.wall_s for s in good))
        units = PER_LAYER
    failed = sum(bool(s.errors) for s in samples)
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return result, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dualpolar" / "cli.py").is_file():
        print(f"perfbench: no dualpolar sources under {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        result, samples = run(wl, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    for k, s in enumerate(samples):
        print(f"sample {k} {'traced' if s.traced else 'plain '} raw wall {s.wall_s:.3f}s "
              f"setup {s.setup_s:.3f}s scale {s.scale:.3f} rss {s.peak_rss_mb:.0f}MB {s.items} {wl.item}"
              + (f" FAILED: {'; '.join(s.errors)}" if s.errors else ""), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
