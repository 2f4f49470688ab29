"""The forked search process of the embedding search: when it forks, its
cleanup on failure, and reports that do not depend on the worker count."""

import json
import os
import threading
import tracemalloc

import pytest

from dualpolar import apartments, polar
from dualpolar.apartments import (
    count_apartments,
    search_isometric_embeddings,
    verify_theorem2,
)
from dualpolar.cli import main
from dualpolar.graphs import dual_polar_graph, hypercube
from dualpolar.morphisms import verify_chow, verify_lemma5_bulk, verify_theorem3
from dualpolar.polar import PolarSpace
from dualpolar.reporting import CounterexampleError, strip_volatile
from reference import collect

SP42 = PolarSpace(2, 2)
SP62 = PolarSpace(3, 2)
G62 = dual_polar_graph(SP62)


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _assert_no_children() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _search(workers, visit):
    return search_isometric_embeddings(
        hypercube(2), G62, mode="sample", budget=5_000, seed=3, workers=workers, visit=visit
    )


def _count_forks(monkeypatch) -> list[int]:
    forks: list[int] = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


@pytest.mark.parametrize("workers", [2, 10**6])
def test_search_forks_exactly_one_child(monkeypatch, two_cpus, workers):
    ref, ref_stats = collect(_search, 1)
    forks = _count_forks(monkeypatch)
    fds = _open_fds()
    found, stats = collect(_search, workers)
    assert len(forks) == 1
    assert found == ref
    assert stats == {**ref_stats, "workers": workers}
    _assert_no_children()
    assert _open_fds() == fds


def test_search_runs_in_process_on_one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    ref, ref_stats = collect(_search, 1)
    forks = _count_forks(monkeypatch)
    found, stats = collect(_search, 2)
    assert forks == []
    assert found == ref
    assert stats == {**ref_stats, "workers": 2}


def test_search_runs_in_process_without_fork(monkeypatch, two_cpus):
    ref, ref_stats = collect(_search, 1)
    monkeypatch.delattr(os, "fork")
    found, stats = collect(_search, 2)
    assert found == ref
    assert stats == {**ref_stats, "workers": 2}


def test_search_runs_in_process_beside_another_thread(monkeypatch, two_cpus):
    forks = []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1))
    ref, ref_stats = collect(_search, 1)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        found, stats = collect(_search, 2)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []
    assert found == ref
    assert stats == {**ref_stats, "workers": 2}


def _raise_in_branch():
    raise ValueError("broken branch")


@pytest.mark.parametrize("fail,message", [
    (_raise_in_branch, "ValueError: broken branch"),
    (lambda: os._exit(3), "exited without a result"),
], ids=["raises", "dies"])
def test_worker_failure_names_its_root(monkeypatch, two_cpus, fail, message):
    real = apartments._branch_search

    def failing(dst_nbrs, dst_adj, at_dist, plan, nsrc, root_img, *rest):
        if root_img == 9:
            fail()
        return real(dst_nbrs, dst_adj, at_dist, plan, nsrc, root_img, *rest)

    ref = []
    _search(1, visit=lambda *found: ref.append(found))
    monkeypatch.setattr(apartments, "_branch_search", failing)
    fds = _open_fds()
    seen = []
    with pytest.raises(RuntimeError, match=f"root 9 .*{message}"):
        _search(2, visit=lambda *found: seen.append(found))
    # the embeddings of the roots before it came through, in order; the
    # root is the image of source vertex 0
    assert seen and seen == [found for found in ref if found[0][0] < 9]
    _assert_no_children()
    assert _open_fds() == fds


def _raise_in_stats(*args):
    raise ValueError("broken stats")


@pytest.mark.parametrize("fail,message", [
    (_raise_in_stats, "ValueError: broken stats"),
    (lambda *args: os._exit(3), "it exited without its stats"),
], ids=["raises", "dies"])
def test_worker_failure_after_its_last_root(monkeypatch, two_cpus, fail, message):
    # the child builds its stats only once its last root record is written
    ref = []
    _search(1, visit=lambda *found: ref.append(found))
    monkeypatch.setattr(apartments, "search_stats", fail)
    fds = _open_fds()
    seen = []
    with pytest.raises(RuntimeError, match=f"after its last root branch: {message}"):
        _search(2, visit=lambda *found: seen.append(found))
    assert seen == ref
    _assert_no_children()
    assert _open_fds() == fds


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_visitor_exception_kills_the_workers(error, two_cpus):
    fds = _open_fds()
    calls = 0

    def visit(assignment, new):
        nonlocal calls
        calls += 1
        if calls == 3:
            raise error("stop")

    with pytest.raises(error):
        _search(2, visit=visit)
    assert calls == 3
    _assert_no_children()
    assert _open_fds() == fds


def _comparable(report):
    out = strip_volatile(report)
    out.pop("workers")
    return out


REPORTS = {
    "theorem3-sp42-sp62": lambda w: verify_theorem3(
        SP42, SP62, mode="sample", budget=20_000, seed=4, workers=w),
    "chow-sp42": lambda w: verify_chow(SP42, budget=10**6, workers=w),
    "lemma5-sp42-sp62": lambda w: verify_lemma5_bulk(
        SP42, SP62, mode="sample", budget=20_000, seed=8, workers=w),
    "theorem2-sp62-m2": lambda w: verify_theorem2(
        SP62, 2, mode="sample", budget=5_000, seed=12, workers=w),
}


@pytest.mark.parametrize("run", REPORTS.values(), ids=REPORTS.keys())
def test_reports_do_not_depend_on_the_worker_count(run, two_cpus):
    reports = [run(w) for w in (1, 2, 3)]
    assert [r["workers"] for r in reports] == [1, 2, 3]
    assert reports[0]["counts"]["embeddings"] > 0
    assert all(_comparable(r) == _comparable(reports[0]) for r in reports)


def test_count_embeddings_does_not_depend_on_the_worker_count(tmp_path, two_cpus):
    outputs = []
    for w in (1, 2, 3):
        code = main(["count", "embeddings", "--p", "3", "--n", "2", "--m", "2",
                     "--workers", str(w), "--output", str(tmp_path / str(w))])
        report = json.loads((tmp_path / str(w) / "count_embeddings_p3_n2.json").read_text())
        outputs.append((code, _comparable(report)))
    assert outputs[0] == (0, outputs[0][1])
    assert outputs[0][1]["counts"] == {"embeddings": 12_960, "distinct_images": 1_620}
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_count_embeddings_searches_in_process(monkeypatch, tmp_path, two_cpus):
    # a count has no checks to run beside a forked search
    forks = _count_forks(monkeypatch)
    code = main(["count", "embeddings", "--p", "2", "--n", "2", "--m", "2",
                 "--workers", "2", "--output", str(tmp_path)])
    report = json.loads((tmp_path / "count_embeddings_p2_n2.json").read_text())
    assert (code, forks, report["workers"]) == (0, [], 1)


# -- the apartment count keeps nothing per apartment ----------------------------


def test_count_apartments_memory_stays_flat_on_sp82():
    # a set of int apartment keys over the 2 295 maximals of Sp(8,2), with the
    # graph it needs, grows by megabytes at this budget; the round trip keeps
    # nothing per frame
    space = PolarSpace(4, 2)
    space.collinear_masks()
    tracemalloc.start()
    try:
        count, complete = count_apartments(space, 20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count > 10_000 and not complete
    assert peak < 2**20


def test_count_apartments_raises_on_a_failed_roundtrip(monkeypatch, tmp_path):
    real = polar.apartment_of_frame

    def swapped(space, frame):
        members = list(real(space, frame))
        members[0], members[-1] = members[-1], members[0]
        return tuple(members)

    monkeypatch.setattr(polar, "apartment_of_frame", swapped)
    with pytest.raises(CounterexampleError) as info:
        count_apartments(SP42, 10**6)
    assert info.value.details["kind"] == "frame_roundtrip_mismatch"
    assert main(["count", "apartments", "--p", "2", "--n", "2", "--output", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "count_apartments_p2_n2.json").read_text())
    assert [v["kind"] for v in report["violations"]] == ["frame_roundtrip_mismatch"]
