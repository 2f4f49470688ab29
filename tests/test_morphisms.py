import gc
import json
import random
import weakref
from functools import reduce
from operator import and_, or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualpolar import morphisms, polar
from dualpolar.apartments import _witness_from_images, search_isometric_embeddings
from dualpolar.graphs import dual_polar_graph, hypercube
from dualpolar.linalg import rref, zero_subspace
from dualpolar.morphisms import (
    GraphEmbedding,
    InducedPointMap,
    LiftError,
    _frame_index_lists,
    _frame_violations,
    _members,
    _point_images,
    check_frames_preserving,
    induced_point_map,
    lift_frame_preserving_map,
    search_dualpolar_embeddings,
    shifted_point_injection,
    verify_chow,
    verify_lemma5,
    verify_lemma5_bulk,
    verify_theorem3,
)
from dualpolar.polar import (
    Frame,
    PolarSpace,
    enumerate_frames,
    enumerate_singular,
    perp_mask,
    perp_subspace,
    point_mask,
    points_in_subspace,
    star,
    subspace_of_mask,
)
from dualpolar.reporting import CounterexampleError, subspace_json
import reference
from reference import collect, contains_subspace, intersect, residue_collinear, sum_span

SP42 = PolarSpace(2, 2)
SP62 = PolarSpace(3, 2)
SP43 = PolarSpace(2, 3)
SP45 = PolarSpace(2, 5)


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
    report = check_frames_preserving(pm, seed=4)
    assert report["violations"] == []
    assert report["counts"]["frames"] == 90
    # every frame was enumerated, so nothing was drawn
    assert report["mode"] == "exhaustive" and report["seed"] is None


def test_frames_preserving_sample_fallback_is_incomplete(lifted):
    # a budget of one node cannot enumerate the frames, so the check samples
    _, _, emb = lifted
    report = check_frames_preserving(induced_point_map(emb), budget=1, seed=4)
    assert report["complete"] is False
    assert report["mode"] == "sample" and report["seed"] == 4
    assert report["violations"] == []
    # the sample is capped at the 90 frames Sp(4,2) has
    assert report["counts"]["frames"] == 90


def test_frames_preserving_rejects_non_frames(lifted):
    _, _, emb = lifted
    frame = enumerate_frames(SP42)[0][0]
    # the same points with a wrong partner involution
    sigma = (frame.sigma[1], frame.sigma[0], frame.sigma[3], frame.sigma[2])
    with pytest.raises(ValueError, match="frames"):
        check_frames_preserving(induced_point_map(emb), frames=[Frame(frame.points, sigma)])


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
    embs, stats = collect(search_dualpolar_embeddings, SP62, SP42)
    assert stats["complete"]
    assert stats["embeddings"] == 0 == stats["distinct_images"]
    assert embs == []


def test_search_larger_source_checks_mode_and_budget():
    # a source of larger rank returns before any search, but not before its
    # arguments are checked, as for equal ranks
    for src, dst in ((SP62, SP42), (SP42, SP42)):
        with pytest.raises(ValueError, match="unknown mode"):
            verify_lemma5_bulk(src, dst, mode="bogus")
        with pytest.raises(ValueError, match="budget"):
            verify_lemma5_bulk(src, dst, budget=-1)


def test_search_same_rank_finds_bijections():
    embs, stats = collect(search_dualpolar_embeddings, SP42, SP42, budget=100_000)
    assert stats["complete"]
    assert stats["embeddings"] == 720
    for emb in embs[:40]:
        assert len(set(emb.assignment)) == 15
        base = verify_lemma5(emb)
        assert base.rank == 0
        induced_point_map(emb)


def test_cross_rank_sample_found_embeddings_validate():
    embs, stats = collect(
        search_dualpolar_embeddings, SP42, SP62, mode="sample", budget=40_000, seed=6
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


def test_verify_chow_reports_incomplete_frames(monkeypatch):
    frames, _ = enumerate_frames(SP42)

    def five_frames(space, budget, visit):
        for frame in frames[:5]:
            visit(frame)
        return [], False

    monkeypatch.setattr(polar, "enumerate_frames", five_frames)
    report = verify_chow(SP42, budget=100_000)
    assert report["counts"]["frames_checked"] == 5
    assert report["complete"] is False


@pytest.mark.parametrize(
    "run",
    [lambda: verify_theorem3(SP42, SP62, mode="sample", budget=20_000, seed=6),
     lambda: verify_chow(SP42, budget=100_000)],
    ids=["theorem3", "chow"],
)
def test_a_verifier_call_takes_each_perp_once(monkeypatch, run):
    taken = []

    def counting(space, mask):
        taken.append(mask)
        return perp_mask(space, mask)

    monkeypatch.setattr(morphisms, "perp_mask", counting)
    assert run()["violations"] == []
    assert taken and len(taken) == len(set(taken))


def test_chow_names_the_first_pair_whose_collinearity_breaks(monkeypatch):
    # swap the images of two points on every embedding; the violation must
    # name the first pair, in (i, j) order, that the swapped map breaks
    masks = SP42.collinear_masks()
    swap = (0, 7)
    assert (masks[0] >> 1 & 1) != (masks[7] >> 1 & 1)
    found = []

    def swapped(emb, members, perp_of):
        base, g, perps = _point_images(emb, members, perp_of)
        g, perps = list(g), list(perps)
        for seq in (g, perps):
            seq[swap[0]], seq[swap[1]] = seq[swap[1]], seq[swap[0]]
        perm = [gp.bit_length() - 1 for gp in g]
        found.append(next(
            [i, j] for i in range(len(perm)) for j in range(i + 1, len(perm))
            if (masks[i] >> j & 1) != (masks[perm[i]] >> perm[j] & 1)
        ))
        return base, g, perps

    monkeypatch.setattr(morphisms, "_point_images", swapped)
    report = verify_chow(SP42, budget=100_000)
    assert len(found) == 720
    assert report["violations"] == [
        {"statement": "chow", "kind": "collinearity_not_preserved", "pair": pair} for pair in found
    ]


def test_counterexample_payloads_are_jsonable():
    emb_list, _ = collect(search_dualpolar_embeddings, SP42, SP42, budget=50_000)
    bad = emb_list[0]
    # a constant map has full-rank opposite-pair intersections
    constant = type(bad)(
        SP42, SP42, bad.source, bad.target, (bad.assignment[0],) * 15
    )
    with pytest.raises(CounterexampleError) as info:
        verify_lemma5(constant)
    json.dumps(info.value.as_violation())


def test_verifiers_do_not_keep_spaces_alive():
    src, dst = PolarSpace(2, 2), PolarSpace(3, 2)
    assert verify_theorem3(src, dst, mode="sample", budget=20_000, seed=6)["violations"] == []
    assert verify_chow(src, budget=100_000)["violations"] == []
    refs = [weakref.ref(src), weakref.ref(dst)]
    del src, dst
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_verifiers_keep_no_earlier_source_graph_alive():
    # the opposite pairs are memoised for the latest source graph only
    first, second = PolarSpace(2, 2), PolarSpace(2, 2)
    for space in (first, second):
        assert verify_lemma5_bulk(space, space, budget=2_000, seed=1)["violations"] == []
    ref = weakref.ref(dual_polar_graph(first))
    del first
    gc.collect()
    assert ref() is None


@st.composite
def points_of_a_maximal(draw):
    space = draw(st.sampled_from([SP42, SP62, SP43, SP45]))
    maximals = enumerate_singular(space, space.n - 1)
    w = maximals[draw(st.integers(0, len(maximals) - 1))]
    pts = points_in_subspace(space, w)
    chosen = draw(st.lists(st.sampled_from(pts), min_size=1, max_size=space.n + 1, unique=True))
    return space, w, chosen


@settings(max_examples=200, deadline=None)
@given(points_of_a_maximal())
def test_perp_of_points_decides_their_span(data):
    # W is its own perp, so points of W span W exactly when their perps meet in W
    space, w, chosen = data
    mask = reduce(or_, (1 << space.point_index[pt] for pt in chosen))
    span = rref(space.field, chosen, space.dim)
    assert perp_mask(space, mask) == point_mask(space, perp_subspace(space, span))
    assert (perp_mask(space, mask) == point_mask(space, w)) == (span == w)


@st.composite
def residue_points(draw):
    space = draw(st.sampled_from([SP42, SP62, SP43, SP45]))
    k = draw(st.integers(-1, space.n - 2))
    if k < 0:
        base = zero_subspace(space.dim)
    else:
        layer = enumerate_singular(space, k)
        base = layer[draw(st.integers(0, len(layer) - 1))]
    above = star(space, base, k + 1)
    i, j = draw(st.lists(st.integers(0, len(above) - 1), min_size=2, max_size=2, unique=True))
    return space, base, above[i], above[j]


@settings(max_examples=200, deadline=None)
@given(residue_points())
def test_mask_residue_collinearity_agrees_with_polar(data):
    space, base, a, b = data
    collinear = not point_mask(space, b) & ~perp_mask(space, point_mask(space, a))
    assert collinear == residue_collinear(space, base, a, b)


# -- the subspace-arithmetic reference for lemma5 and the induced point map ----


def _reference_opposite_pairs(graph):
    nv = graph.num_vertices
    return [(i, j) for i in range(nv) for j in range(i + 1, nv) if graph.dist[i][j] == graph.diameter]


def reference_lemma5(emb):
    """verify_lemma5 with Zassenhaus meets and containments on RREF subspaces."""
    images = [emb.image_of(v) for v in range(emb.source.num_vertices)]
    return reference.base_from_images(
        emb.dst_space, images, _reference_opposite_pairs(emb.source),
        emb.dst_space.n - emb.src_space.n, "lemma5",
    )


def reference_point_map(emb):
    """induced_point_map with Zassenhaus meets, containments and joins."""
    field = emb.dst_space.field
    n, n_prime = emb.src_space.n, emb.dst_space.n
    i0, j0 = _reference_opposite_pairs(emb.source)[0]
    base = intersect(field, emb.image_of(i0), emb.image_of(j0))
    points_of = [points_in_subspace(emb.src_space, sub) for sub in emb.source.labels]
    stars = {pt: [] for pt in emb.src_space.points}
    for i, pts in enumerate(points_of):
        for pt in pts:
            stars[pt].append(i)
    assignment = {}
    for pt in emb.src_space.points:
        g = reduce(lambda a, b: intersect(field, a, b), (emb.image_of(i) for i in stars[pt]))
        if g.rank != n_prime - n + 1 or not contains_subspace(field, g, base):
            raise CounterexampleError(
                "theorem3",
                {"kind": "point_image_defect", "point": list(pt), "got": subspace_json(g)},
            )
        assignment[pt] = g
    if len(set(assignment.values())) != len(assignment):
        raise CounterexampleError("theorem3", {"kind": "point_map_not_injective"})
    for v in range(emb.source.num_vertices):
        span = reduce(lambda a, b: sum_span(field, a, b), (assignment[pt] for pt in points_of[v]))
        if span != emb.image_of(v):
            raise CounterexampleError(
                "theorem3",
                {"kind": "image_not_spanned_by_point_map", "vertex": v, "span": subspace_json(span)},
            )
    return InducedPointMap(emb.src_space, emb.dst_space, base, assignment)


def _outcome(fn, emb):
    try:
        out = fn(emb)
    except CounterexampleError as exc:
        return exc.as_violation()
    return (out.base, out.assignment) if isinstance(out, InducedPointMap) else out


def _perturbed(embs, count, seed):
    """Seeded copies of found embeddings: unchanged, two images swapped, or
    one image replaced by a random target vertex."""
    rng = random.Random(seed)
    for k in range(count):
        emb = embs[rng.randrange(len(embs))]
        a = list(emb.assignment)
        if k % 3 == 1:
            i, j = rng.sample(range(len(a)), 2)
            a[i], a[j] = a[j], a[i]
        elif k % 3 == 2:
            a[rng.randrange(len(a))] = rng.randrange(emb.target.num_vertices)
        yield GraphEmbedding(emb.src_space, emb.dst_space, emb.source, emb.target, tuple(a))


@pytest.mark.parametrize(
    "src,dst,mode,budget",
    [(SP42, SP62, "sample", 40_000), (SP42, SP42, "exhaustive", 100_000), (SP43, SP43, "sample", 20_000)],
    ids=["sp42-sp62", "sp42-sp42", "sp43-sp43"],
)
def test_mask_verifiers_match_the_reference(src, dst, mode, budget):
    embs, _ = collect(search_dualpolar_embeddings, src, dst, mode=mode, budget=budget, seed=6)
    assert embs
    kinds = set()
    for emb in _perturbed(embs, 300, seed=17):
        for new, ref in ((verify_lemma5, reference_lemma5), (induced_point_map, reference_point_map)):
            got = _outcome(new, emb)
            assert got == _outcome(ref, emb)
            kinds.add(got.get("kind") if isinstance(got, dict) else "ok")
    # the perturbations reach both verdicts and several violation kinds
    assert "ok" in kinds and len(kinds) >= 4


# -- the per-frame reference for the frame check ---------------------------------


def reference_frame_violations(space, g, perps, frames):
    """Frames whose images are not residue-collinear exactly off the partners,
    each pair tested on its own."""
    out = []
    for frame in frames:
        idx = [space.point_index[pt] for pt in frame.points]
        ok = all(
            (not g[idx[b]] & ~perps[idx[a]]) == (b != frame.sigma[a])
            for a in range(len(idx))
            for b in range(a + 1, len(idx))
        )
        if not ok:
            out.append({"statement": "frames_preserving", "frame": [list(pt) for pt in frame.points]})
    return out


@pytest.mark.parametrize(
    "src,dst,mode,budget",
    [(SP42, SP62, "sample", 40_000), (SP43, SP43, "sample", 20_000)],
    ids=["sp42-sp62", "chow-sp43"],
)
def test_frame_check_matches_the_per_frame_reference(src, dst, mode, budget):
    embs, _ = collect(search_dualpolar_embeddings, src, dst, mode=mode, budget=budget, seed=6)
    frames, complete = enumerate_frames(src)
    assert embs and complete
    frames_idx = _frame_index_lists(src, frames)
    members, perp_of = _members(embs[0].source), {}
    images = [_point_images(emb, members, perp_of)[1] for emb in embs]
    pool = [gp for g in images for gp in g]
    rng = random.Random(23)
    verdicts = set()
    for k in range(300):
        g = list(images[rng.randrange(len(images))])
        if k % 3 == 1:
            i, j = rng.sample(range(len(g)), 2)
            g[i], g[j] = g[j], g[i]
        elif k % 3 == 2:
            g[rng.randrange(len(g))] = pool[rng.randrange(len(pool))]
        perps = [perp_mask(dst, gp) for gp in g]
        got = _frame_violations(src, g, perps, frames_idx)
        assert got == reference_frame_violations(src, g, perps, frames)
        verdicts.add(bool(got))
    assert verdicts == {False, True}


@pytest.mark.parametrize(
    "src,dst,mode,budget",
    [(SP42, SP62, "sample", 40_000), (SP42, SP42, "exhaustive", 100_000), (SP43, SP43, "sample", 20_000)],
    ids=["sp42-sp62", "sp42-sp42", "sp43-sp43"],
)
def test_earlier_checks_catch_what_the_dropped_checks_would(src, dst, mode, budget):
    # lemma5 no longer checks that the base lies in every image, nor the
    # point map that g spans every image: on the perturbed embeddings where
    # either would fail, the base or point-image checks have raised first
    embs, _ = collect(search_dualpolar_embeddings, src, dst, mode=mode, budget=budget, seed=6)
    missing = unspanned = 0
    for emb in _perturbed(embs, 300, seed=17):
        imgs = [emb.target.masks[a] for a in emb.assignment]
        i0, j0 = _reference_opposite_pairs(emb.source)[0]
        base = imgs[i0] & imgs[j0]
        if any(base & ~img for img in imgs):
            with pytest.raises(CounterexampleError) as info:
                verify_lemma5(emb)
            assert info.value.details["kind"] in ("base_dimension", "base_depends_on_opposite_pair")
            missing += 1
        g = [reduce(and_, (img for sub, img in zip(emb.source.masks, imgs) if sub >> p & 1))
             for p in range(len(src.points))]
        spans = [
            reduce(lambda a, b: sum_span(dst.field, a, b),
                   (subspace_of_mask(dst, g[p]) for p in range(len(g)) if sub >> p & 1))
            for sub in emb.source.masks
        ]
        if any(span != emb.image_of(v) for v, span in enumerate(spans)):
            with pytest.raises(CounterexampleError) as info:
                induced_point_map(emb)
            assert info.value.details["kind"] in ("point_image_defect", "point_map_not_injective")
            unspanned += 1
    assert missing and unspanned


@pytest.mark.parametrize(
    "space,mode,budget", [(SP42, "exhaustive", 100_000), (SP43, "sample", 20_000)],
    ids=["sp42", "sp43"],
)
def test_self_embeddings_are_bijections_whose_opposite_pairs_meet_in_0(space, mode, budget):
    # verify_chow checks neither that an embedding is a bijection nor that
    # its base is empty: every self-embedding the search finds is both
    embs, stats = collect(search_dualpolar_embeddings, space, space, mode=mode, budget=budget, seed=6)
    assert embs and (mode == "sample" or (stats["complete"] and len(embs) == 720))
    for emb in embs:
        assert sorted(emb.assignment) == list(range(emb.target.num_vertices))
        imgs = [emb.target.masks[a] for a in emb.assignment]
        assert not any(imgs[i] & imgs[j] for i, j in _reference_opposite_pairs(emb.source))


def test_base_violations_of_theorem2_and_lemma5_carry_the_same_keys():
    # one routine checks both bases, so a kind of base violation has one
    # payload shape whichever statement raised it
    shapes = {"theorem2": set(), "lemma5": set()}
    graph = dual_polar_graph(SP62)
    orders, _ = collect(search_isometric_embeddings, hypercube(2), graph,
                        mode="sample", budget=3_000, seed=4)
    rng = random.Random(5)
    for _ in range(300):
        order = list(orders[rng.randrange(len(orders))])
        order[rng.randrange(len(order))] = rng.randrange(graph.num_vertices)
        try:
            _witness_from_images(SP62, [graph.masks[v] for v in order])
        except CounterexampleError as exc:
            shapes["theorem2"].add((exc.details["kind"], frozenset(exc.details)))
    embs, _ = collect(search_dualpolar_embeddings, SP42, SP62, mode="sample", budget=40_000, seed=6)
    for emb in _perturbed(embs, 300, seed=17):
        try:
            verify_lemma5(emb)
        except CounterexampleError as exc:
            shapes["lemma5"].add((exc.details["kind"], frozenset(exc.details)))
    kinds = {"base_dimension", "base_depends_on_opposite_pair"}
    theorem2 = {shape for shape in shapes["theorem2"] if shape[0] in kinds}
    assert theorem2 == shapes["lemma5"]
    assert sorted(kind for kind, _ in theorem2) == sorted(kinds)


# -- the rref reference for the spanning lift -------------------------------------


def _lift_outcome(src, dst, base, point_map):
    try:
        return lift_frame_preserving_map(src, dst, base, point_map).assignment
    except LiftError as exc:
        return str(exc), exc.details


def _reference_lift_outcome(src, dst, base, point_map):
    images = reference.lift_images(src, dst, base, point_map)
    if isinstance(images, tuple):
        sub, span = images
        return ("span of point images is not maximal singular",
                {"source": subspace_json(sub), "span": subspace_json(span)})
    graph, source = dual_polar_graph(dst), dual_polar_graph(src)
    assignment = tuple(graph.labels.index(s) for s in images)
    if len(set(assignment)) != len(assignment):
        return "lifted map is not injective", {}
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            d = graph.dist[assignment[i]][assignment[j]]
            if d != source.dist[i][j]:
                return ("lifted map does not preserve distances",
                        {"pair": [i, j], "expected": source.dist[i][j], "got": d})
    return assignment


@pytest.mark.parametrize("dst", [SP42, SP62], ids=["sp42-sp42", "sp42-sp62"])
def test_mask_lift_matches_the_reference(dst):
    base, point_map = shifted_point_injection(SP42, dst)
    targets = star(dst, base, base.rank) if base.rank else enumerate_singular(dst, 0)
    rng = random.Random(29)
    outcomes = set()
    for k in range(120):
        broken = dict(point_map)
        a, b = rng.sample(SP42.points, 2)
        if k % 4 == 1:
            broken[a], broken[b] = broken[b], broken[a]
        elif k % 4 == 2:
            broken[a] = broken[b]
        elif k % 4 == 3:
            broken[a] = targets[rng.randrange(len(targets))]
        got = _lift_outcome(SP42, dst, base, broken)
        assert got == _reference_lift_outcome(SP42, dst, base, broken)
        outcomes.add(got[0] if isinstance(got[0], str) else "ok")
    assert "ok" in outcomes and len(outcomes) >= 2
