import pytest

from dualpolar.linalg import rref
from dualpolar.morphisms import (
    LiftError,
    check_frames_preserving,
    induced_point_map,
    lift_frame_preserving_map,
    search_dualpolar_embeddings,
    shifted_point_injection,
    verify_chow,
    verify_lemma5,
    verify_theorem3,
)
from dualpolar.polar import PolarSpace, enumerate_frames
from dualpolar.reporting import CounterexampleError

SP42 = PolarSpace(2, 2)
SP62 = PolarSpace(3, 2)


@pytest.fixture(scope="module")
def lifted():
    base, point_map = shifted_point_injection(SP42, SP62)
    emb = lift_frame_preserving_map(SP42, SP62, base, point_map)
    return base, point_map, emb


def test_shifted_fixture_lifts(lifted):
    base, _, emb = lifted
    assert base.rows == ((1, 0, 0, 0, 0, 0),)
    assert len(set(emb.assignment)) == 15


def test_identity_lift_same_rank():
    base, point_map = shifted_point_injection(SP42, SP42)
    assert base.rank == 0
    emb = lift_frame_preserving_map(SP42, SP42, base, point_map)
    assert emb.assignment == tuple(range(15))
    pm = induced_point_map(emb)
    for pt in SP42.points:
        assert pm.assignment[pt].rows == (pt,)


def test_lemma5_extracts_the_defining_point(lifted):
    base, _, emb = lifted
    assert verify_lemma5(emb) == base


def test_lemma5_empty_base_for_equal_ranks():
    base, point_map = shifted_point_injection(SP42, SP42)
    emb = lift_frame_preserving_map(SP42, SP42, base, point_map)
    assert verify_lemma5(emb).rank == 0


def test_induced_point_map_roundtrip(lifted):
    base, point_map, emb = lifted
    pm = induced_point_map(emb)
    assert pm.base == base
    assert pm.assignment == point_map


def test_frames_preserving_on_fixture(lifted):
    _, _, emb = lifted
    pm = induced_point_map(emb)
    report = check_frames_preserving(pm)
    assert report["violations"] == []
    assert report["counts"]["frames"] == 90


def test_frames_preserving_sample_fallback_is_incomplete(lifted):
    # a budget of one node cannot enumerate the frames, so the check samples
    _, _, emb = lifted
    report = check_frames_preserving(induced_point_map(emb), budget=1)
    assert report["complete"] is False
    assert report["mode"] == "sample"
    assert report["violations"] == []
    # the sample is capped at the 90 frames Sp(4,2) has
    assert report["counts"]["frames"] == 90


def test_lift_rejects_collapsed_points(lifted):
    base, point_map, _ = lifted
    broken = dict(point_map)
    pts = SP42.points
    broken[pts[1]] = broken[pts[0]]
    with pytest.raises(LiftError):
        lift_frame_preserving_map(SP42, SP62, base, broken)


def test_lift_rejects_wrong_base_rank():
    base, point_map = shifted_point_injection(SP42, SP62)
    wrong = rref(SP62.field, base.rows + ((0, 0, 1, 0, 0, 0),), 6)
    with pytest.raises(LiftError):
        lift_frame_preserving_map(SP42, SP62, wrong, point_map)


def test_search_larger_source_is_empty():
    embs, stats = search_dualpolar_embeddings(SP62, SP42)
    assert embs == [] and stats["complete"]


def test_search_same_rank_finds_bijections():
    embs, stats = search_dualpolar_embeddings(SP42, SP42, budget=100_000)
    assert stats["complete"]
    assert stats["embeddings"] == 720
    for emb in embs[:40]:
        assert len(set(emb.assignment)) == 15
        base = verify_lemma5(emb)
        assert base.rank == 0
        induced_point_map(emb)


def test_cross_rank_sample_found_embeddings_validate():
    embs, stats = search_dualpolar_embeddings(
        SP42, SP62, mode="sample", budget=40_000, seed=6
    )
    assert embs, "sampled search found nothing"
    frames, _ = enumerate_frames(SP42)
    for emb in embs[:30]:
        base = verify_lemma5(emb)
        assert base.rank == 1
        pm = induced_point_map(emb)
        assert pm.base == base
        report = check_frames_preserving(pm, frames=frames)
        assert report["violations"] == []


def test_verify_theorem3_small_run():
    report = verify_theorem3(SP42, SP62, mode="sample", budget=20_000, seed=6)
    assert report["violations"] == []
    assert report["counts"]["embeddings"] > 0
    assert report["counts"]["apartments_checked"] > 0


def test_verify_chow_quick():
    report = verify_chow(SP42, budget=100_000)
    assert report["violations"] == []
    assert report["complete"]
    assert report["counts"]["embeddings"] == 720


def test_counterexample_payloads_are_jsonable():
    import json

    emb_list, _ = search_dualpolar_embeddings(SP42, SP42, budget=50_000)
    bad = emb_list[0]
    # a constant map has full-rank opposite-pair intersections
    constant = type(bad)(
        SP42, SP42, bad.source, bad.target, (bad.assignment[0],) * 15
    )
    with pytest.raises(CounterexampleError) as info:
        verify_lemma5(constant)
    json.dumps(info.value.as_violation())
