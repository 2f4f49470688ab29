"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavyweight reports
(criteria 7, 8, 11) are cached at module scope and reused by the determinism
criterion, which repeats them with a different worker count.
"""

import time
from contextlib import contextmanager
from math import prod

import pytest

from dualpolar.apartments import (
    is_apartment,
    search_isometric_embeddings,
    verify_lemma1,
    verify_theorem2,
)
from dualpolar.graphs import dual_polar_graph, hypercube, verify_lemma2
from dualpolar.linalg import rref
from dualpolar.morphisms import (
    check_frames_preserving,
    induced_point_map,
    lift_frame_preserving_map,
    shifted_point_injection,
    verify_chow,
    verify_lemma5,
    verify_theorem3,
)
from dualpolar.polar import (
    PolarSpace,
    ResidueSpace,
    apartment_of_frame,
    check_polar_axioms,
    enumerate_frames,
    enumerate_singular,
    sample_frames,
    subspace_of_mask,
)
from dualpolar.reporting import strip_volatile
from reference import collect, intersect

SP42 = PolarSpace(2, 2)
SP62 = PolarSpace(3, 2)
SP43 = PolarSpace(2, 3)

# configs shared between the primary runs and the determinism re-runs
C7_CONFIG = dict(m=2, mode="exhaustive", budget=10**7, seed=0)
C8_CONFIG = dict(m=3, mode="sample", budget=20_000, seed=2026)
C11_CONFIG = dict(mode="sample", budget=10**7, seed=5)

RUNS = {
    "c7": lambda w: verify_theorem2(SP62, workers=w, **C7_CONFIG),
    "c8": lambda w: verify_theorem2(SP62, workers=w, **C8_CONFIG),
    "c11": lambda w: verify_theorem3(SP42, SP62, workers=w, **C11_CONFIG),
}

_reports: dict = {}


def _primary(key: str) -> dict:
    if key not in _reports:
        _reports[key] = RUNS[key](1)
    return _reports[key]


@contextmanager
def criterion(num: int, desc: str):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {num:>2}: FAIL  {desc}")
        raise
    print(f"\nACCEPTANCE {num:>2}: PASS  {desc}  [{time.perf_counter() - start:.1f}s]")


def test_criterion_01_model_sanity():
    with criterion(1, "point/maximal counts match closed forms (<5s)"):
        start = time.perf_counter()
        for n, p, npts, nmax in ((2, 2, 15, 15), (3, 2, 63, 135), (2, 3, 40, 40)):
            space = PolarSpace(n, p)
            assert len(space.points) == npts
            assert len(space.points) == (p ** (2 * n) - 1) // (p - 1)
            maximals = enumerate_singular(space, n - 1)
            assert len(maximals) == nmax
            assert len(maximals) == prod(p**i + 1 for i in range(1, n + 1))
        assert time.perf_counter() - start < 5


def test_criterion_02_distance_formula():
    with criterion(2, "graph distance equals n-1-projdim(intersection), all pairs (<30s)"):
        start = time.perf_counter()
        for space in (SP42, SP62, SP43):
            g = dual_polar_graph(space)
            for i in range(g.num_vertices):
                row = g.dist[i]
                for j in range(i + 1, g.num_vertices):
                    meet = intersect(space.field, g.labels[i], g.labels[j])
                    assert row[j] == space.n - meet.rank
        assert time.perf_counter() - start < 30


def test_criterion_03_polar_axioms():
    with criterion(3, "polar axioms hold on all models and a point residue"):
        for space in (SP42, SP43, SP62):
            report = check_polar_axioms(space)
            assert report["ok"], report
        residue = ResidueSpace(SP62, rref(SP62.field, [SP62.points[0]], 6))
        report = check_polar_axioms(residue)
        assert report["ok"], report


def test_criterion_04_lemma1():
    with criterion(4, "geodesic interiors contain endpoint intersections (<60s)"):
        start = time.perf_counter()
        exhaustive = verify_lemma1(SP42, mode="exhaustive", budget=10**6)
        assert exhaustive["complete"] and exhaustive["violations"] == []
        sampled = verify_lemma1(SP62, mode="sample", budget=10_000, seed=1)
        assert sampled["counts"]["geodesics"] >= 10_000
        assert sampled["violations"] == []
        assert time.perf_counter() - start < 60


def test_criterion_05_lemma2():
    with criterion(5, "hypercube opposites unique (m<=8), geodesics through any vertex (m<=6) (<60s)"):
        start = time.perf_counter()
        report = verify_lemma2(m_max=8)
        assert report["complete"] and report["violations"] == []
        assert time.perf_counter() - start < 60


def test_criterion_06_theorem2_full_rank_sp42():
    with criterion(6, "H_2 images in Sp(4,2) are exactly the frame apartments (<120s)"):
        start = time.perf_counter()
        report = verify_theorem2(SP42, 2, mode="exhaustive", budget=10**7, seed=0)
        assert report["complete"]
        assert report["violations"] == []
        counts = report["counts"]
        assert counts["distinct_images"] == counts["apartments"]
        assert counts["embeddings"] % 8 == 0
        assert time.perf_counter() - start < 120


def test_criterion_07_theorem2_h2_in_sp62():
    with criterion(7, "every H_2 image in Sp(6,2) is a point-star apartment"):
        report = _primary("c7")
        assert report["complete"], "exhaustive run exceeded the node budget"
        assert report["violations"] == []
        # one star apartment per point and frame of its residue Sp(4,2):
        # 63 * 720 / (2^2 * 2!), each reached by the 8 automorphisms of H_2
        assert report["counts"]["distinct_images"] == 5670
        assert report["counts"]["embeddings"] == 45360


def test_criterion_08_theorem2_h3_in_sp62():
    with criterion(8, "sampled H_3 images in Sp(6,2) are frame apartments, round-tripped (<600s)"):
        start = time.perf_counter()
        report = _primary("c8")
        assert report["violations"] == []
        assert report["counts"]["distinct_images"] >= 1000
        assert time.perf_counter() - start < 600


def test_criterion_09_negative_control():
    with criterion(9, "no H_3 embeds isometrically into the diameter-2 graph of Sp(4,2)"):
        embeddings, stats = collect(
            search_isometric_embeddings, hypercube(3), dual_polar_graph(SP42)
        )
        assert stats["complete"]
        assert stats["embeddings"] == 0 == stats["distinct_images"]
        assert embeddings == []


def _apartment(space, frame):
    return [subspace_of_mask(space, mask) for mask in apartment_of_frame(space, frame)]


def test_criterion_10_frame_roundtrips():
    with criterion(10, "frame -> apartment -> recognized witness -> same frame"):
        frames, complete = enumerate_frames(SP42)
        assert complete
        for frame in frames:
            witness = is_apartment(SP42, _apartment(SP42, frame))
            assert witness is not None
            assert set(witness.to_frame(SP42).points) == set(frame.points)
        for frame in sample_frames(SP62, 100, seed=3):
            witness = is_apartment(SP62, _apartment(SP62, frame))
            assert witness is not None
            assert set(witness.to_frame(SP62).points) == set(frame.points)


def test_criterion_11_theorem3_lemma5():
    with criterion(11, "lift fixture round-trips; all sampled cross-rank embeddings decompose"):
        base, point_map = shifted_point_injection(SP42, SP62)
        emb = lift_frame_preserving_map(SP42, SP62, base, point_map)
        assert verify_lemma5(emb) == base
        pm = induced_point_map(emb)
        assert pm.base == base and pm.assignment == point_map
        frame_report = check_frames_preserving(pm)
        assert frame_report["counts"]["frames"] == 90
        assert frame_report["violations"] == []

        report = _primary("c11")
        assert report["violations"] == []
        # the run completes: one image per base point of Sp(6,2), each
        # reached by the |Sp(4,2)| = 720 automorphisms of the source
        assert report["complete"]
        assert report["counts"]["distinct_images"] == 63
        assert report["counts"]["embeddings"] == 45360
        assert report["counts"]["apartments_checked"] > 0


def test_criterion_12_chow_instance():
    with criterion(12, "all 720 self-embeddings of Sp(4,2) come from frame-preserving point bijections"):
        report = verify_chow(SP42, budget=10**6)
        assert report["complete"]
        assert report["violations"] == []
        assert report["counts"]["embeddings"] == 720


def _comparable(report):
    # workers is part of the embedded config and necessarily differs between
    # the compared runs; everything else must match exactly
    out = strip_volatile(report)
    out.pop("workers")
    return out


@pytest.mark.parametrize("key", ["c7", "c8", "c11"])
def test_criterion_13_determinism(key):
    with criterion(13, f"report {key} identical under a different worker count"):
        again = RUNS[key](2)
        assert _comparable(again) == _comparable(_primary(key))
