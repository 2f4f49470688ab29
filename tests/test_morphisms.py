import gc
import json
import random
import weakref
from functools import reduce
from itertools import chain
from operator import and_, or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualpolar import morphisms, polar
from dualpolar.apartments import (
    _witness_from_images,
    frame_vertices,
    search_isometric_embeddings,
    search_stats,
)
from dualpolar.graphs import _bits, dual_polar_graph, hypercube
from dualpolar.linalg import rref, zero_subspace
from dualpolar.morphisms import (
    GraphEmbedding,
    InducedPointMap,
    LiftError,
    _collinearity_break,
    _members,
    _point_images,
    _residue_collinear,
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
    report = check_frames_preserving(pm)
    assert report["violations"] == []
    assert report["counts"]["frames"] == 90
    # the pair check decides every frame, so nothing was drawn
    assert report["mode"] == "exhaustive" and report["seed"] is None


def test_frames_preserving_is_complete_on_a_space_too_large_to_list():
    # Sp(6,3) has 23 882 040 frames: none is listed, the pair check runs on
    # its 364 points
    sp63 = PolarSpace(3, 3)
    base, point_map = shifted_point_injection(sp63, sp63)
    report = check_frames_preserving(InducedPointMap(sp63, sp63, base, point_map))
    assert report["counts"]["frames"] == 23_882_040 == polar.frame_count(sp63)
    assert report["violations"] == []
    assert report["complete"] and report["mode"] == "exhaustive"
    assert report["seed"] is None and report["budget"] is None
    assert report["expansions"] == 23_882_040
    assert report["elapsed"] < 1.0


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
    with pytest.raises(LiftError, match="wrong dimension"):
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


@pytest.mark.parametrize("dst, embeddings, images", [(SP42, 720, 1), (SP62, 45_360, 63)])
def test_search_without_a_visitor_counts_what_a_visiting_search_finds(dst, embeddings, images):
    # visit=None asks for the stats alone; it used to be called on the first
    # embedding found
    found = []
    _, visited = search_dualpolar_embeddings(SP42, dst, budget=10**7, visit=found.append)
    _, counted = search_dualpolar_embeddings(SP42, dst, budget=10**7, visit=None)
    assert counted == visited
    assert counted["complete"] and len(found) == counted["embeddings"] == embeddings
    assert counted["distinct_images"] == images


def test_cross_rank_sample_found_embeddings_validate():
    embs, stats = collect(
        search_dualpolar_embeddings, SP42, SP62, mode="sample", budget=40_000, seed=6
    )
    assert embs, "sampled search found nothing"
    for emb in embs[:30]:
        base = verify_lemma5(emb)
        assert base.rank == 1
        pm = induced_point_map(emb)
        assert pm.base == base
        report = check_frames_preserving(pm)
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
    # toggle the collinearity of two pairs of target points in the perps
    # the check reads, so that the images have two more residue-collinear
    # pairs than the source has collinear pairs; the violation must name
    # the first pair, in (i, j) order, that each embedding then breaks
    masks = SP42.collinear_masks()
    toggled = [(0, 9), (1, 2)]
    assert not any(masks[a] >> b & 1 for a, b in toggled)
    tampered = list(masks)
    for a, b in toggled:
        tampered[a] ^= 1 << b
        tampered[b] ^= 1 << a

    def tampered_perp(space, mask):
        # over the empty base each g(p) is one point, whose perp is the
        # points collinear with it and itself
        return tampered[mask.bit_length() - 1] | mask

    found = []

    def spied(statement, emb, members):
        g = _point_images(statement, emb, members)
        perm = [gp.bit_length() - 1 for gp in g]
        found.append(next(
            [i, j] for i in range(len(perm)) for j in range(i + 1, len(perm))
            if (masks[i] >> j & 1) != (tampered[perm[i]] >> perm[j] & 1)
        ))
        return g

    monkeypatch.setattr(morphisms, "perp_mask", tampered_perp)
    monkeypatch.setattr(morphisms, "_point_images", spied)
    report = verify_chow(SP42, budget=100_000)
    assert len(found) == 720 and len({tuple(pair) for pair in found}) > 1
    assert report["violations"] == [
        {"statement": "chow", "kind": "collinearity_not_preserved", "pair": pair} for pair in found
    ]


def test_theorem3_reports_a_collinearity_break_that_no_frame_it_reads_shows(monkeypatch):
    # break the collinearity of one pair of points in a source that is its
    # own object, beside an untouched target, and hand out only frames that
    # avoid both points: a frame scan over them sees nothing, but the pair
    # check decides every frame
    pair = (1, 2)
    src = PolarSpace(2, 2)
    dual_polar_graph(src)
    frames = [f for f in enumerate_frames(src)[0]
              if not {src.points[i] for i in pair} & set(f.points)]
    assert 0 < len(frames) < 90
    monkeypatch.setattr(polar, "enumerate_frames", lambda space, budget, visit=None: (frames, True))
    # the frames hold neither point, so their apartments do not read the
    # toggled bits
    tampered = list(src.collinear_masks())
    tampered[pair[0]] ^= 1 << pair[1]
    tampered[pair[1]] ^= 1 << pair[0]
    monkeypatch.setattr(src, "_collinear_masks", tampered)
    report = verify_theorem3(src, SP42, mode="exhaustive")
    assert report["complete"] and report["counts"]["embeddings"] == 720
    assert report["violations"] == [
        {"statement": "theorem3", "kind": "collinearity_not_preserved", "pair": list(pair)}
    ] * 720


def _meets(emb):
    """g(p) for every source point p: the AND of the images of the source
    maximals through p, with no check."""
    imgs = [emb.target.masks[a] for a in emb.assignment]
    return [reduce(and_, (img for sub, img in zip(emb.source.masks, imgs) if sub >> p & 1))
            for p in range(len(emb.src_space.points))]


@pytest.mark.parametrize("src,dst,budget", [(SP42, SP62, 40_000), (SP43, SP43, 20_000)],
                         ids=["sp42-sp62", "sp43-sp43"])
@pytest.mark.parametrize("seed", range(3))
def test_meets_of_any_assignment_carry_collinear_pairs_to_residue_collinear_ones(src, dst, budget, seed):
    # the premise of the pair count: g(p) is a meet of images, so collinear
    # p, q lie in a common maximal M and g(p), g(q) in the totally singular
    # image of M, whatever target vertices the maximals are sent to; the
    # assignments are found embeddings with k of their images replaced by
    # random target vertices, for every k up to all of them
    embs, _ = collect(search_dualpolar_embeddings, src, dst, mode="sample", budget=budget, seed=6)
    rng = random.Random(seed)
    collinear = src.collinear_masks()
    source, target = embs[0].source, embs[0].target
    proper = 0
    for _ in range(100):
        a = list(embs[rng.randrange(len(embs))].assignment)
        for v in rng.sample(range(len(a)), rng.randint(1, len(a))):
            a[v] = rng.randrange(target.num_vertices)
        g = _meets(GraphEmbedding(src, dst, source, target, tuple(a)))
        for p, q in ((p, q) for p in range(len(g)) for q in _bits(collinear[p]) if q > p):
            assert not g[q] & ~perp_mask(dst, g[p])
            # a pair neither of whose images holds the other tests the perp
            proper += bool(g[p] & ~g[q] and g[q] & ~g[p])
    assert proper


def test_the_pair_count_agrees_with_the_pair_scan_on_every_c11_embedding():
    # every embedding of Sp(4,2) in Sp(6,2) (criterion 11's complete run)
    # gets the same verdict from the set-keyed count as from the full scan
    members = _members(dual_polar_graph(SP42))
    collinear = SP42.collinear_masks()
    check = morphisms._collinearity_check("theorem3", SP42, SP62)
    perp_of = {}
    seen = []

    def visit(emb):
        g = _point_images("theorem3", emb, members)
        for gp in g:
            if gp not in perp_of:
                perp_of[gp] = perp_mask(SP62, gp)
        perps = [perp_of[gp] for gp in g]
        assert check(g) == _collinearity_break("theorem3", collinear, _residue_collinear(g, perps))
        seen.append(frozenset(g))

    _, stats = search_dualpolar_embeddings(SP42, SP62, "sample", 10**7, seed=5, visit=visit)
    assert stats["complete"] and len(seen) == 45_360 and len(set(seen)) == 63


@pytest.mark.parametrize(
    "run,calls",
    [(lambda: verify_theorem3(SP42, SP62, mode="sample", budget=100_000, seed=11),
      "distinct_images"),
     (lambda: verify_chow(SP43, budget=20_000), "embeddings")],
    ids=["theorem3", "chow"],
)
def test_a_verifier_call_counts_the_pairs_once_per_set_of_point_images(monkeypatch, run, calls):
    # the memo is measured by count: one pair scan per distinct frozenset(g),
    # in the order the sets are first seen, far fewer than the embeddings;
    # theorem3 takes the point images once per image, chow per embedding
    sets, scanned = [], []

    def spied(statement, emb, members):
        g = _point_images(statement, emb, members)
        sets.append(frozenset(g))
        return g

    def counting(g, perps):
        scanned.append(frozenset(g))
        return _residue_collinear(g, perps)

    monkeypatch.setattr(morphisms, "_point_images", spied)
    monkeypatch.setattr(morphisms, "_residue_collinear", counting)
    report = run()
    assert report["violations"] == [] and len(sets) == report["counts"][calls]
    assert scanned == list(dict.fromkeys(sets))
    assert 20 * len(scanned) < report["counts"]["embeddings"]


def test_every_c11_embedding_gets_the_verdict_of_its_images_first_embedding():
    # the per-image skip of verify_theorem3: on every embedding of Sp(4,2)
    # in Sp(6,2), the point images form the set of its image's first
    # embedding, and the full checks give the same verdict
    members = _members(dual_polar_graph(SP42))
    check = morphisms._collinearity_check("theorem3", SP42, SP62)
    first = {}

    def verdict(emb):
        try:
            verify_lemma5(emb)
            g = _point_images("theorem3", emb, members)
        except CounterexampleError as exc:
            return None, exc.as_violation()
        return frozenset(g), check(g)

    def visit(emb):
        got = verdict(emb)
        assert first.setdefault(frozenset(emb.assignment), got) == got

    _, stats = search_dualpolar_embeddings(SP42, SP62, "exhaustive", 10**7, visit=visit)
    assert stats["complete"] and stats["embeddings"] == 45_360 and len(first) == 63
    assert len({g for g, _ in first.values()}) == 63
    assert {broken for _, broken in first.values()} == {None}


@pytest.mark.parametrize("fail", ["point_images", "collinearity"])
def test_theorem3_checks_every_embedding_of_an_image_that_failed(monkeypatch, fail):
    # an image whose first embedding fails is never marked as passed: each
    # of its embeddings is checked and reported on its own
    violation = {"statement": "theorem3", "kind": "point_image_defect"}
    if fail == "point_images":
        def failing(statement, emb, members):
            raise CounterexampleError("theorem3", {"kind": "point_image_defect"})

        monkeypatch.setattr(morphisms, "_point_images", failing)
    else:
        violation = {"statement": "theorem3", "kind": "collinearity_not_preserved", "pair": [0, 1]}
        monkeypatch.setattr(
            morphisms, "_collinearity_check", lambda *args: lambda g: dict(violation))
    report = verify_theorem3(SP42, SP62, mode="sample", budget=20_000, seed=4)
    counts = report["counts"]
    assert counts["embeddings"] > counts["distinct_images"] > 1
    assert report["violations"] == [violation] * counts["embeddings"]


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
    return [(i, j) for i in range(nv) for j in range(i + 1, nv) if graph.distance(i, j) == graph.diameter]


def reference_lemma5(emb):
    """verify_lemma5 with Zassenhaus meets and containments on RREF subspaces."""
    images = [emb.image_of(v) for v in range(emb.source.num_vertices)]
    return reference.base_from_images(
        emb.dst_space, images, _reference_opposite_pairs(emb.source),
        emb.dst_space.n - emb.src_space.n, "lemma5",
    )


def reference_point_images(emb, base=None):
    """The g(p) of ``_point_images``, in source point order, as Zassenhaus
    meets: each checked for its rank, and to contain ``base`` when one is
    given, and g for injectivity."""
    field = emb.dst_space.field
    n, n_prime = emb.src_space.n, emb.dst_space.n
    points_of = [points_in_subspace(emb.src_space, sub) for sub in emb.source.labels]
    images = []
    for pt in emb.src_space.points:
        g = reduce(lambda a, b: intersect(field, a, b),
                   (emb.image_of(i) for i, pts in enumerate(points_of) if pt in pts))
        if g.rank != n_prime - n + 1 or (base is not None and not contains_subspace(field, g, base)):
            raise CounterexampleError(
                "theorem3",
                {"kind": "point_image_defect", "point": list(pt), "got": subspace_json(g)},
            )
        images.append(g)
    if len(set(images)) != len(images):
        raise CounterexampleError("theorem3", {"kind": "point_map_not_injective"})
    return images


def reference_point_map(emb):
    """induced_point_map with Zassenhaus meets, containments and joins, over
    the base of ``reference_lemma5``; each g(p) is still checked to contain
    it."""
    field = emb.dst_space.field
    base = reference_lemma5(emb)
    assignment = dict(zip(emb.src_space.points, reference_point_images(emb, base)))
    points_of = [points_in_subspace(emb.src_space, sub) for sub in emb.source.labels]
    for v in range(emb.source.num_vertices):
        span = reduce(lambda a, b: sum_span(field, a, b), (assignment[pt] for pt in points_of[v]))
        if span != emb.image_of(v):
            raise CounterexampleError(
                "theorem3",
                {"kind": "image_not_spanned_by_point_map", "vertex": v, "span": subspace_json(span)},
            )
    return InducedPointMap(emb.src_space, emb.dst_space, base, assignment)


def _point_images_alone(emb):
    """The g(p) of ``_point_images`` as subspaces, with no base check before."""
    g = _point_images("theorem3", emb, _members(emb.source))
    return [subspace_of_mask(emb.dst_space, gp) for gp in g]


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
    # induced_point_map checks lemma5's base first, so the point images are
    # also compared on their own, where the perturbations reach their checks
    kinds = set()
    for emb in _perturbed(embs, 300, seed=17):
        for new, ref in ((verify_lemma5, reference_lemma5), (induced_point_map, reference_point_map),
                         (_point_images_alone, reference_point_images)):
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
    # the pair check flags a perturbed point map exactly when some frame of
    # the source breaks, and names the first pair whose collinearity breaks;
    # check_frames_preserving reports that pair on every tenth map
    embs, _ = collect(search_dualpolar_embeddings, src, dst, mode=mode, budget=budget, seed=6)
    frames, complete = enumerate_frames(src)
    assert embs and complete
    collinear = src.collinear_masks()
    members = _members(embs[0].source)
    images = [(verify_lemma5(emb), _point_images("theorem3", emb, members)) for emb in embs]
    pool = [gp for _, g in images for gp in g]
    rng = random.Random(23)
    verdicts, checked = set(), set()
    for k in range(300):
        base, g = images[rng.randrange(len(images))]
        g = list(g)
        if k % 3 == 1:
            i, j = rng.sample(range(len(g)), 2)
            g[i], g[j] = g[j], g[i]
        elif k % 3 == 2:
            g[rng.randrange(len(g))] = pool[rng.randrange(len(pool))]
        perps = [perp_mask(dst, gp) for gp in g]
        got = _collinearity_break("theorem3", collinear, _residue_collinear(g, perps))
        reference_broken = bool(reference_frame_violations(src, g, perps, frames))
        assert (got is not None) == reference_broken
        broken = [[i, j] for i in range(len(g)) for j in range(i + 1, len(g))
                  if (not g[j] & ~perps[i]) != bool(collinear[i] >> j & 1)]
        assert got == (broken and {"statement": "theorem3", "kind": "collinearity_not_preserved",
                                   "pair": broken[0]} or None)
        verdicts.add(got is not None)
        if k % 10 == 0:
            pm = InducedPointMap(src, dst, base,
                                 {pt: subspace_of_mask(dst, gp) for pt, gp in zip(src.points, g)})
            report = check_frames_preserving(pm)
            assert report["violations"] == ([{**got, "statement": "frames_preserving"}] if got else [])
            assert bool(report["violations"]) == reference_broken
            assert report["complete"] and report["counts"]["frames"] == len(frames)
            checked.add(got is not None)
    assert verdicts == {False, True} == checked


@pytest.mark.parametrize(
    "src,dst,mode,budget",
    [(SP42, SP62, "sample", 40_000), (SP42, SP42, "exhaustive", 100_000), (SP43, SP43, "sample", 20_000)],
    ids=["sp42-sp62", "sp42-sp42", "sp43-sp43"],
)
def test_earlier_checks_catch_what_the_dropped_checks_would(src, dst, mode, budget):
    # lemma5 no longer checks that the base lies in every image, nor the
    # point map that g spans every image: on the perturbed embeddings where
    # either would fail, the base or point-image checks have raised first
    # (induced_point_map runs lemma5's base checks before its own)
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
            assert info.value.details["kind"] in (
                "base_dimension", "base_depends_on_opposite_pair",
                "point_image_defect", "point_map_not_injective",
            )
            unspanned += 1
    assert missing and unspanned


LEMMA5_KINDS = ("base_dimension", "base_depends_on_opposite_pair")
PAIRS = pytest.mark.parametrize(
    "src,dst,mode,budget",
    [(SP42, SP62, "sample", 40_000), (SP42, SP42, "exhaustive", 100_000), (SP43, SP43, "sample", 20_000)],
    ids=["sp42-sp62", "sp42-sp42", "sp43-sp43"],
)


def _opposition_preserving(emb, count, seed):
    """Seeded vertex maps, found by backtracking, that send each opposite
    pair of the source to two images meeting in the base of ``emb``:
    ``verify_lemma5`` accepts them all, though most are no embeddings."""
    rng = random.Random(seed)
    src, dst = emb.source, emb.target
    base = point_mask(emb.dst_space, verify_lemma5(emb))
    over_base = sum(1 << u for u, mask in enumerate(dst.masks) if not base & ~mask)
    meets = [sum(1 << u for u, other in enumerate(dst.masks) if mask & other == base)
             for mask in dst.masks]
    opposite = [_bits(classes[src.diameter] & ((1 << v) - 1)) for v, classes in enumerate(src.at_dist)]

    def extend(a):
        if len(a) == len(opposite):
            return a
        free = over_base
        for j in opposite[len(a)]:
            free &= meets[a[j]]
        for t in rng.sample(_bits(free), free.bit_count()):
            if done := extend(a + [t]):
                return done
        return None

    for _ in range(count):
        yield GraphEmbedding(emb.src_space, emb.dst_space, src, dst, tuple(extend([])))


def _theorem3_report_on(emb, monkeypatch):
    """The report of ``verify_theorem3`` when its search streams ``emb``
    alone, so that its frame apartments are pushed through it too."""

    def stream(src_space, dst_space, mode, budget, seed, workers, *, visit):
        visit(emb)
        return None, search_stats(mode, budget, seed, workers, 1, 1, 1)

    monkeypatch.setattr(morphisms, "search_dualpolar_embeddings", stream)
    return verify_theorem3(emb.src_space, emb.dst_space)


def _theorem3_on(emb, monkeypatch):
    """The violations of ``_theorem3_report_on``."""
    return _theorem3_report_on(emb, monkeypatch)["violations"]


def test_chow_names_itself_for_a_point_map_that_is_not_injective(monkeypatch):
    # a hand-built self-map of Sp(4,2)'s dual polar graph whose every g(p)
    # is one point, though g is not injective: verify_chow runs no base
    # check, so the injectivity check of _point_images rejects it, as a
    # violation of chow; under theorem3, Lemma 5 rejects it first
    source = dual_polar_graph(SP42)
    emb = GraphEmbedding(SP42, SP42, source, source, (14, 2, 2, 2, 0, 1, 1, 1, 2, 1, 2, 2, 2, 2, 1))

    def stream(src_space, dst_space, mode, budget, seed=0, workers=1, *, visit):
        visit(emb)
        return None, search_stats(mode, budget, seed, workers, 1, 1, 1)

    monkeypatch.setattr(morphisms, "search_dualpolar_embeddings", stream)
    assert verify_chow(SP42)["violations"] == [{"statement": "chow", "kind": "point_map_not_injective"}]
    assert [v["kind"] for v in _theorem3_on(emb, monkeypatch)] == ["base_depends_on_opposite_pair"]


@PAIRS
def test_lemma5_rejects_every_point_image_that_misses_the_base(src, dst, mode, budget, monkeypatch):
    # _point_images no longer checks that every g(p) contains the meet of
    # the first opposite pair: each perturbed embedding with a g(p) that
    # misses that meet is rejected by lemma5's base checks, in lemma5,
    # induced_point_map and theorem3 alike
    embs, _ = collect(search_dualpolar_embeddings, src, dst, mode=mode, budget=budget, seed=6)
    missed = 0
    for emb in _perturbed(embs, 300, seed=17):
        imgs = [emb.target.masks[a] for a in emb.assignment]
        i0, j0 = _reference_opposite_pairs(emb.source)[0]
        base = imgs[i0] & imgs[j0]
        g = [reduce(and_, (img for sub, img in zip(emb.source.masks, imgs) if sub >> p & 1))
             for p in range(len(src.points))]
        if not any(base & ~gp for gp in g):
            continue
        violation = _outcome(verify_lemma5, emb)
        assert violation["kind"] in LEMMA5_KINDS
        assert _outcome(induced_point_map, emb) == violation
        assert _theorem3_on(emb, monkeypatch) == [violation]
        missed += 1
    assert missed


@PAIRS
def test_every_pushed_frame_apartment_has_lemma5s_base(src, dst, mode, budget, monkeypatch):
    # theorem3 no longer compares the base of a pushed frame apartment with
    # lemma5's: on every perturbed embedding lemma5 accepts, the antipodal
    # members of each frame apartment are opposite, so their images meet in
    # lemma5's base, every decomposition that succeeds returns it, and
    # theorem3 reports a transfer failure exactly when the decomposition of
    # one of its first two frames raises.  Every perturbed embedding lemma5
    # accepts is an embedding, so on Sp(4,2) maps that only keep opposite
    # pairs opposite over the base are added (on Sp(4,3) backtracking
    # finds none quickly)
    embs, _ = collect(search_dualpolar_embeddings, src, dst, mode=mode, budget=budget, seed=6)
    found = {emb.assignment for emb in embs}
    extra = _opposition_preserving(embs[0], 30, seed=7) if src == SP42 else ()
    apartment = frame_vertices(src, embs[0].source)
    frames = enumerate_frames(src, budget=100)[0]
    assert frames[:2] == enumerate_frames(src, budget=src.n + 1)[0]
    full = (1 << src.n) - 1
    accepted, decomposed, undecomposed = set(), 0, 0
    for emb in chain(_perturbed(embs, 300, seed=17), extra):
        try:
            base = point_mask(dst, verify_lemma5(emb))
        except CounterexampleError:
            continue
        accepted.add(emb.assignment in found)
        failed = []
        for frame in frames:
            masks = [emb.target.masks[emb.assignment[v]] for v in apartment(frame)]
            assert all(masks[x] & masks[x ^ full] == base for x in range(len(masks)))
            try:
                witness_base, _ = _witness_from_images(dst, masks)
            except CounterexampleError:
                failed.append([list(pt) for pt in frame.points])
                undecomposed += 1
                continue
            assert witness_base == base
            decomposed += 1
        transfers = [v["frame"] for v in _theorem3_on(emb, monkeypatch)
                     if v["kind"] == "apartment_transfer_failure"]
        # transfers follow the point-image checks, and the first failed one
        # raises, so it is the only one reported
        first_two = [[list(pt) for pt in frame.points] for frame in frames[:2]]
        reached = isinstance(_outcome(_point_images_alone, emb), list)
        assert transfers == [f for f in failed if f in first_two][:reached]
    assert decomposed and accepted == ({True, False} if src == SP42 else {True})
    assert bool(undecomposed) == (src == SP42)


def _maps_passing_the_point_images(space):
    """Every vertex map of the dual polar graph of ``space`` into itself
    that ``verify_lemma5`` and ``_point_images`` accept: opposite vertices
    go to vertices meeting in 0, and g(p), the meet of the images of the
    vertices through p, is one point, distinct for distinct p.  Found by
    backtracking in vertex order, each partial g(p) kept nonzero."""
    graph = dual_polar_graph(space)
    nv, npts = graph.num_vertices, len(space.points)
    members = _members(graph)
    last = [max(v for v in range(nv) if p in members[v]) for p in range(npts)]
    opposite = [_bits(classes[graph.diameter] & ((1 << v) - 1)) for v, classes in enumerate(graph.at_dist)]
    disjoint = [sum(1 << u for u, other in enumerate(graph.masks) if not mask & other)
                for mask in graph.masks]
    maps, a, g = [], [], [(1 << npts) - 1] * npts

    def extend(used):
        if len(a) == nv:
            maps.append(tuple(a))
            return
        v = len(a)
        allowed = (1 << nv) - 1
        for j in opposite[v]:
            allowed &= disjoint[a[j]]
        for t in _bits(allowed):
            saved = [g[p] for p in members[v]]
            done, ok = used, True
            for p in members[v]:
                g[p] &= graph.masks[t]
                if not g[p] or p == last[v] and (g[p] & (g[p] - 1) or done & g[p]):
                    ok = False
                    break
                if p == last[v]:
                    done |= g[p]
            if ok:
                a.append(t)
                extend(done)
                a.pop()
            for p, gp in zip(members[v], saved):
                g[p] = gp

    extend(0)
    return graph, maps


def test_only_embeddings_pass_the_checks_before_the_transfer():
    # the transfer of verify_theorem3 runs after lemma5 and the point
    # images; on Sp(4,2) into itself every vertex map those accept is one
    # of the 720 embeddings, and every frame apartment pushed through one
    # decomposes, so no genuine input reaches apartment_transfer_failure
    graph, maps = _maps_passing_the_point_images(SP42)
    embs, stats = collect(search_dualpolar_embeddings, SP42, SP42, mode="exhaustive", budget=10**6)
    assert stats["complete"] and len(maps) == len(set(maps)) == 720
    assert set(maps) == {emb.assignment for emb in embs}
    members = _members(graph)
    apartment = frame_vertices(SP42, graph)
    pushed = [apartment(frame) for frame in enumerate_frames(SP42)[0]]
    for a in maps:
        emb = GraphEmbedding(SP42, SP42, graph, graph, a)
        assert verify_lemma5(emb).rank == 0
        _point_images("theorem3", emb, members)
        for vertices in pushed:
            base, _ = _witness_from_images(SP42, [graph.masks[a[v]] for v in vertices])
            assert base == 0


def test_theorem3_reports_a_failed_transfer_and_counts_it(monkeypatch):
    # no genuine input reaches apartment_transfer_failure (see above), so
    # the decomposition is made to raise on the first pushed frame
    graph = dual_polar_graph(SP42)
    emb = GraphEmbedding(SP42, SP42, graph, graph, tuple(range(graph.num_vertices)))
    first = enumerate_frames(SP42, budget=SP42.n + 1)[0][0]

    def fail(space, masks):
        raise CounterexampleError("theorem2", {"kind": "base_dimension"})

    monkeypatch.setattr(morphisms, "_witness_from_images", fail)
    report = _theorem3_report_on(emb, monkeypatch)
    assert report["violations"] == [
        {"statement": "theorem3", "kind": "apartment_transfer_failure",
         "frame": [list(pt) for pt in first.points]},
    ]
    assert report["counts"]["apartments_checked"] == 1


@pytest.mark.parametrize("dst", [SP42, SP62], ids=["sp42-sp42", "sp42-sp62"])
def test_lift_names_a_collapsed_pair_in_its_distance_check(dst):
    # the lift no longer checks injectivity on its own: a point map sending
    # every point to one maximal W over the base spans W from every source
    # maximal, and the distance check names the first pair, at distance 0
    base, _ = shifted_point_injection(SP42, dst)
    source = dual_polar_graph(SP42)
    maximals = star(dst, base, dst.n - 1) if base.rank else enumerate_singular(dst, dst.n - 1)
    assert maximals
    for w in maximals:
        with pytest.raises(LiftError, match="does not preserve distances") as info:
            lift_frame_preserving_map(SP42, dst, base, {pt: w for pt in SP42.points})
        assert info.value.details == {"pair": [0, 1], "expected": source.distance(0, 1), "got": 0}


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
    rows, source_rows = reference.distance_rows(graph), reference.distance_rows(source)
    assignment = tuple(graph.labels.index(s) for s in images)
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            d = rows[assignment[i]][assignment[j]]
            if d != source_rows[i][j]:
                return ("lifted map does not preserve distances",
                        {"pair": [i, j], "expected": source_rows[i][j], "got": d})
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
