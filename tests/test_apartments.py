import dataclasses
import gc
import os
import random
import tracemalloc
import weakref
from functools import reduce
from math import factorial, prod
from operator import and_, or_

import numpy as np
import pytest

from dualpolar import apartments, polar
from dualpolar.apartments import (
    ApartmentWitness,
    _decomposer,
    _distance_masks,
    _opposite_base,
    _shuffle,
    _source_plan,
    _witness_from_images,
    frame_vertices,
    is_apartment,
    search_isometric_embeddings,
    verify_lemma1,
    verify_theorem2,
)
from dualpolar.graphs import (
    UNREACHABLE,
    _bits,
    dual_polar_graph,
    graph_from_edges,
    hypercube,
    iter_geodesics,
    meet_graph,
)
from dualpolar.linalg import rref
from dualpolar.morphisms import search_dualpolar_embeddings
from dualpolar.polar import (
    Frame,
    PolarSpace,
    apartment_of_frame,
    enumerate_frames,
    frame_count,
    is_frame,
    point_mask,
    sample_frames,
    subspace_of_mask,
)
from dualpolar.reporting import CounterexampleError
from reference import (
    _reference_branch,
    collect,
    contains,
    intersect,
    is_isometric_embedding,
    reference_search,
    witness_from_images,
)

SP42 = PolarSpace(2, 2)
SP62 = PolarSpace(3, 2)
SP43 = PolarSpace(2, 3)
G42 = dual_polar_graph(SP42)
G62 = dual_polar_graph(SP62)
G43 = dual_polar_graph(SP43)
G45 = dual_polar_graph(PolarSpace(2, 5))


def frame_apartment(space, frame):
    """The members of a frame apartment as subspaces, by sign mask."""
    return [subspace_of_mask(space, mask) for mask in apartment_of_frame(space, frame)]


def witness_of(space, images, masks):
    """The witness of the labelling whose images, indexed by sign mask, are
    ``images`` with point masks ``masks``, built as ``is_apartment`` builds
    it from ``_witness_from_images``."""
    base, faces = _witness_from_images(space, masks)
    return ApartmentWitness(
        base=subspace_of_mask(space, base),
        residue_frame=tuple(subspace_of_mask(space, q) for q in faces),
        members=tuple(images),
    )


def labelled_witness(space, graph, order):
    """The witness of the hypercube labelling whose image of sign mask x is
    vertex order[x] of ``graph``."""
    return witness_of(space, [graph.labels[v] for v in order], [graph.masks[v] for v in order])


def antipodal_base(space, masks):
    """The base mask of the labelled hypercube of images with point masks
    ``masks``, by sign mask, as ``_witness_from_images`` takes it: from the
    pairs of antipodal sign masks."""
    full = len(masks) - 1
    pairs = [(x, x ^ full) for x in range(len(masks) // 2)]
    return _opposite_base(space, masks, pairs, space.n - full.bit_length(), "theorem2")


def cube_embeddings(m, graph, **kwargs):
    """(vertex of each sign mask, of every embedding of H_m into ``graph``
    the search streams; its stats): vertex v of ``hypercube(m)`` has sign
    mask v, so each assignment is that list."""
    return collect(search_isometric_embeddings, hypercube(m), graph, **kwargs)


def test_is_isometric_embedding_identity_and_constant():
    # the oracle the search is checked against
    g = hypercube(2)
    assert is_isometric_embedding(list(range(4)), g, g)
    assert not is_isometric_embedding([0, 0, 0, 0], g, g)


def test_frame_apartment_is_isometric():
    # hypercube vertex v has sign mask v, so the members by sign mask are
    # the assignment
    frames, _ = enumerate_frames(SP42)
    for frame in frames[:10]:
        assert is_isometric_embedding(frame_vertices(SP42, G42)(frame), hypercube(2), G42)


def test_search_m1_gives_ordered_edges():
    embs, stats = collect(search_isometric_embeddings, hypercube(1), G42)
    assert stats["complete"]
    assert stats["embeddings"] == len(embs) == 2 * len(G42.edges())
    assert {tuple(sorted(a)) for a in embs} == set(G42.edges())


def test_search_m2_sp42_image_count_is_frame_count():
    _, stats = collect(search_isometric_embeddings, hypercube(2), G42)
    assert stats["complete"]
    frames, _ = enumerate_frames(SP42)
    assert stats["distinct_images"] == len(frames)
    # raw count is inflated by exactly the hypercube automorphisms
    assert stats["embeddings"] == stats["distinct_images"] * 8


def test_search_sample_mode_is_seed_deterministic():
    cube = hypercube(2)
    a, sa = collect(search_isometric_embeddings, cube, G62, mode="sample", budget=2_000, seed=9)
    b, sb = collect(search_isometric_embeddings, cube, G62, mode="sample", budget=2_000, seed=9)
    assert a == b
    assert sa == sb
    c, _ = collect(search_isometric_embeddings, cube, G62, mode="sample", budget=2_000, seed=10)
    assert a != c


def test_search_rejects_bad_arguments():
    with pytest.raises(ValueError):
        collect(search_isometric_embeddings, hypercube(2), G42, mode="other")
    with pytest.raises(ValueError):
        collect(search_isometric_embeddings, hypercube(2), G42, budget=0)
    with pytest.raises(TypeError, match="visit"):
        search_isometric_embeddings(hypercube(2), G42)


def test_search_rejects_a_disconnected_source():
    two_edges = graph_from_edges(list(range(4)), [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="disconnected"):
        collect(search_isometric_embeddings, two_edges, G42)


def test_search_rejects_an_empty_source():
    # an empty source has no plan to search; it is rejected whatever the
    # target, counting or visiting
    empty = graph_from_edges([], [])
    for target in (empty, hypercube(1), G42):
        with pytest.raises(ValueError, match="empty"):
            search_isometric_embeddings(empty, target, visit=None)
        with pytest.raises(ValueError, match="empty"):
            collect(search_isometric_embeddings, empty, target, "sample", 100, 3)


def test_no_hypercube_above_rank():
    # H_3 has a larger diameter than the graph: the distance constraints
    # prune every branch
    embs, stats = collect(search_isometric_embeddings, hypercube(3), G42)
    assert stats["complete"] and stats["expansions"] > 0
    assert stats["embeddings"] == 0 == stats["distinct_images"]
    assert embs == []


def test_base_subspace_full_rank_is_empty():
    frames, _ = enumerate_frames(SP42)
    order = frame_vertices(SP42, G42)(frames[0])
    assert antipodal_base(SP42, [G42.masks[v] for v in order]) == 0


def test_base_subspace_m2_in_sp62_is_a_point():
    orders, _ = cube_embeddings(2, G62, mode="sample", budget=3_000, seed=4)
    assert orders
    for order in orders[:25]:
        base = subspace_of_mask(SP62, antipodal_base(SP62, [G62.masks[v] for v in order]))
        assert base.rank == 1
        for v in order:
            assert contains(SP62.field, G62.labels[v], base.rows[0])


def test_base_subspace_raises_on_garbage():
    # duplicate opposite images make the base the whole maximal
    with pytest.raises(CounterexampleError) as info:
        antipodal_base(SP42, [G42.masks[v] for v in (0, 1, 2, 0)])
    assert info.value.as_violation() == {
        "statement": "theorem2", "kind": "base_dimension", "expected_rank": 0,
        "got": [list(row) for row in G42.labels[0].rows],
    }


def test_recover_frame_roundtrip_on_frame_apartments():
    frames, _ = enumerate_frames(SP42)
    for frame in frames[:20]:
        witness = labelled_witness(SP42, G42, frame_vertices(SP42, G42)(frame))
        assert witness.base.rank == 0
        recovered = witness.to_frame(SP42)
        assert set(recovered.points) == set(frame.points)
        assert recovered.sigma == frame.sigma


def test_recover_frame_m1_faces_are_the_images():
    orders, _ = cube_embeddings(1, G42)
    witness = labelled_witness(SP42, G42, orders[0])
    images = [G42.labels[v] for v in orders[0]]
    assert witness.residue_frame[0] == images[0]
    assert witness.residue_frame[1] == images[1]
    assert witness.base == intersect(SP42.field, images[0], images[1])
    assert witness.base.rank == SP42.n - 1


def test_recover_frame_every_h2_embedding_sp42():
    orders, stats = cube_embeddings(2, G42)
    assert stats["complete"] and len(orders) == stats["embeddings"]
    for order in orders:
        witness = labelled_witness(SP42, G42, order)
        assert witness.base.rank == 0
        assert len(witness.residue_frame) == 4


def test_is_apartment_accepts_frame_apartments():
    frames, _ = enumerate_frames(SP42)
    members = frame_apartment(SP42, frames[3])
    witness = is_apartment(SP42, members)
    assert witness is not None
    assert witness.m == 2
    assert frozenset(witness.members) == frozenset(members)


def test_is_apartment_rejects_wrong_sizes():
    maximals = list(G42.labels)
    assert is_apartment(SP42, maximals[:3]) is None
    assert is_apartment(SP42, maximals[:1]) is None
    assert is_apartment(SP42, []) is None
    assert is_apartment(SP62, ()) is None
    with pytest.raises(ValueError):
        is_apartment(SP42, [rref(SP42.field, [(1, 0, 0, 0)], 4)])


def test_is_apartment_rejects_non_isometric_squares():
    # two disjoint edges of the graph: right size, wrong metric shape
    lbl = G42.labels
    edges = G42.edges()
    i, j = edges[0]
    far = next(
        (a, b)
        for a, b in edges
        if {a, b}.isdisjoint({i, j})
        and G42.dist[i][a] + G42.dist[i][b] + G42.dist[j][a] + G42.dist[j][b] == 8
    )
    members = [lbl[i], lbl[j], lbl[far[0]], lbl[far[1]]]
    assert is_apartment(SP42, members) is None


def searched_apartment(space, members):
    """The reference for ``is_apartment``: label the set by an exhaustive
    hypercube search on its meet graph and decompose the labelling of the
    first embedding found."""
    unique = sorted(set(members), key=lambda s: s.rows)
    size = len(unique)
    m = size.bit_length() - 1
    if size != 1 << m or not 1 <= m <= space.n:
        return None
    masks = [point_mask(space, s) for s in unique]
    orders, stats = cube_embeddings(m, meet_graph(space, unique, masks))
    assert stats["complete"]
    if not orders:
        return None
    return witness_of(space, [unique[i] for i in orders[0]], [masks[i] for i in orders[0]])


def test_is_apartment_labels_as_the_search_does():
    # frame apartments and H_2 squares, with two members swapped or one
    # replaced, and seeded random sets of 1, 2, 4 and 8 maximals
    cases = [(space, [graph.labels[v] for v in order])
             for space, graph, order in _perturbed_labellings(1500, seed=23)]
    rng = random.Random(29)
    for space, graph in ((SP42, G42), (SP43, G43), (SP62, G62)):
        for size in (1, 2, 4, 8):
            for _ in range(50):
                cases.append((space, rng.sample(graph.labels, size)))
    verdicts = set()
    for space, members in cases:
        got, want = is_apartment(space, members), searched_apartment(space, members)
        verdicts.add(got is None)
        assert (got is None) == (want is None)
        if got is not None:
            assert (got.base, got.residue_frame, got.members) == (
                want.base, want.residue_frame, want.members)
    assert verdicts == {True, False}


def test_is_apartment_star_restriction_of_sp62_frame():
    # the apartment members through one frame point form an apartment of the
    # star of that point, with the point as base
    frame = sample_frames(SP62, 1, seed=12)[0]
    members = frame_apartment(SP62, frame)
    p0 = frame.points[0]
    chosen = [s for s in members if contains(SP62.field, s, p0)]
    assert len(chosen) == 4
    witness = is_apartment(SP62, chosen)
    assert witness is not None
    assert witness.base == rref(SP62.field, [p0], 6)
    assert witness.m == 2


def test_is_apartment_accepts_single_edge():
    i, j = G42.edges()[0]
    witness = is_apartment(SP42, [G42.labels[i], G42.labels[j]])
    assert witness is not None
    assert witness.m == 1
    assert witness.base.rank == SP42.n - 1


def test_verify_lemma1_exhaustive_sp42():
    report = verify_lemma1(SP42, mode="exhaustive", budget=100_000)
    assert report["complete"]
    assert report["violations"] == []
    assert report["counts"]["geodesics"] > 0


def test_lemma1_exhaustive_walks_no_geodesic_past_the_budget(monkeypatch):
    walked = []

    def counting(graph, v, w):
        for path in iter_geodesics(graph, v, w):
            walked.append(path)
            yield path

    monkeypatch.setattr(apartments, "iter_geodesics", counting)
    report = verify_lemma1(SP62, mode="exhaustive", budget=1)
    assert report["complete"] is False
    assert report["counts"]["geodesics"] == 1
    # the tested path, and the next one, which finds the budget spent
    assert len(walked) == 2


def test_verify_lemma1_sampled_sp62():
    report = verify_lemma1(SP62, mode="sample", budget=500, seed=2)
    assert report["violations"] == []
    assert report["counts"]["geodesics"] == 500


@pytest.mark.parametrize("budget, seed, match", [(0, 0, "budget"), (-3, 0, "budget"),
                                                 (100, -1, "seed")])
def test_lemma1_sample_mode_rejects_a_run_that_would_check_nothing_or_reuse_a_seed(
        budget, seed, match):
    # budget 0 used to report a complete run of 0 geodesics, and
    # random.Random(-s) seeds the stream of random.Random(s)
    with pytest.raises(ValueError, match=match):
        verify_lemma1(SP42, mode="sample", budget=budget, seed=seed)


def test_lemma1_reports_an_interior_vertex_missing_the_meet():
    # odd vertices lose every point, so they miss any nonempty meet
    masks = tuple(0 if v % 2 else mask for v, mask in enumerate(G62.masks))
    broken = dataclasses.replace(G62, masks=masks)
    report = verify_lemma1(SP62, mode="sample", budget=200, seed=2, graph=broken)
    assert report["violations"]
    for violation in report["violations"]:
        path = [G62.labels.index(rref(SP62.field, rows, 6)) for rows in violation["path"]]
        u = G62.labels.index(rref(SP62.field, violation["interior_vertex"], 6))
        assert u % 2 == 1 and u in path[1:-1]
        assert masks[path[0]] & masks[path[-1]]


def test_verify_theorem2_sp42_m2():
    report = verify_theorem2(SP42, 2)
    assert report["violations"] == []
    assert report["complete"]
    assert report["counts"]["distinct_images"] == report["counts"]["apartments"] == 90


def _gaussian(n, k, q):
    return prod(q ** (n - i) - 1 for i in range(k)) // prod(q ** (i + 1) - 1 for i in range(k))


def _singular(n, k, q):
    """Totally isotropic k-spaces of the symplectic 2n-space over GF(q)."""
    return _gaussian(n, k, q) * prod(q**i + 1 for i in range(n - k + 1, n + 1))


def _sp_order(m, q):
    return q ** (m * m) * prod(q ** (2 * i) - 1 for i in range(1, m + 1))


@pytest.mark.parametrize(
    "n,q,m", [(2, 2, 1), (2, 2, 2), (3, 2, 1), (2, 3, 1), (2, 3, 2), (2, 5, 2), (3, 2, 3)],
    ids=["sp42-h1", "sp42-h2", "sp62-h1", "sp43-h1", "sp43-h2", "sp45-h2", "sp62-h3"],
)
def test_theorem2_counts_match_the_closed_form(n, q, m):
    # the images of H_m are the apartments of the stars of the singular
    # (n-m)-spaces, each reached once per automorphism of H_m; for m = n
    # they are the frame apartments, one per frame
    per_image = 2**m * factorial(m)
    images = _singular(n, n - m, q) * _sp_order(m, q) // (per_image * (q - 1) ** m)
    space = PolarSpace(n, q)
    report = verify_theorem2(space, m)
    assert report["complete"] and report["violations"] == []
    assert report["counts"]["distinct_images"] == images
    assert report["counts"]["embeddings"] == images * per_image
    if m == n:
        assert report["counts"]["apartments"] == frame_count(space) == images
    else:
        assert report["counts"]["apartments"] is None


def test_theorem2_reports_an_image_count_off_the_frame_count(monkeypatch):
    # verify_theorem2 compares the distinct H_n images of a complete search
    # with the closed form frame_count; one frame too many is reported once
    frames = frame_count(SP42)
    monkeypatch.setattr(polar, "frame_count", lambda space: frames + 1)
    report = verify_theorem2(SP42, 2)
    assert report["complete"] and report["counts"]["distinct_images"] == frames
    assert report["counts"]["apartments"] == frames + 1
    assert report["violations"] == [
        {"statement": "theorem2", "kind": "image_count_vs_apartments",
         "distinct_images": frames, "apartments": frames + 1},
    ]


def test_verify_theorem2_argument_check():
    with pytest.raises(ValueError):
        verify_theorem2(SP42, 3)


def test_theorem2_odd_characteristic():
    # full pipeline over GF(3): search, recognition, frame round trip
    space = PolarSpace(2, 3)
    report = verify_theorem2(space, 2)
    assert report["complete"] and report["violations"] == []
    assert report["counts"]["distinct_images"] == 1620
    assert report["counts"]["apartments"] == 1620
    assert report["counts"]["embeddings"] == 1620 * 8


def test_labelled_and_unlabelled_validation_agree():
    frames, _ = enumerate_frames(SP42)
    cases = [(SP42, G42, f) for f in frames]
    cases += [(SP62, G62, f) for f in sample_frames(SP62, 100, seed=21)]
    for space, graph, frame in cases:
        labelled = labelled_witness(space, graph, frame_vertices(space, graph)(frame))
        unlabelled = is_apartment(space, frame_apartment(space, frame))
        assert labelled.base == unlabelled.base
        assert set(labelled.residue_frame) == set(unlabelled.residue_frame)


def test_labelled_and_unlabelled_validation_agree_over_a_point_base():
    orders, _ = cube_embeddings(2, G62, mode="sample", budget=3_000, seed=4)
    for order in orders[:25]:
        labelled = labelled_witness(SP62, G62, order)
        unlabelled = is_apartment(SP62, [G62.labels[v] for v in order])
        assert labelled.base == unlabelled.base and labelled.base.rank == 1
        assert set(labelled.residue_frame) == set(unlabelled.residue_frame)


@pytest.mark.parametrize("space,graph", [(SP42, G42), (SP62, G62)])
def test_labelled_validation_rejects_swapped_images(space, graph):
    frame = sample_frames(space, 1, seed=12)[0]
    order = frame_vertices(space, graph)(frame)
    # sign masks 0 and 1 are adjacent, and no hypercube automorphism swaps
    # them while fixing the rest
    swapped = list(order)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    with pytest.raises(CounterexampleError):
        labelled_witness(space, graph, swapped)
    # the same members, unlabelled, are still an apartment
    assert is_apartment(space, [graph.labels[v] for v in order]) is not None


def packbits_distance_masks(graph, max_dist):
    """``at_dist`` as numpy's packbits builds it from the distance rows, one
    column per vertex."""
    dist = np.array([list(r) for r in graph.dist], dtype=np.int16)
    return tuple(zip(*(
        [int.from_bytes(row.tobytes(), "little")
         for row in np.packbits(dist == d, axis=1, bitorder="little")]
        for d in range(max_dist + 1)
    )))


@pytest.mark.parametrize("graph,max_dist", [
    (G62, 3),
    (G43, 2),
    # beyond the diameter: empty masks
    (hypercube(3), 5),
    # disconnected targets: UNREACHABLE entries are in no mask
    (graph_from_edges(list(range(8)), [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)]), 3),
    (graph_from_edges(list(range(5)), [(0, 1), (1, 2)]), 2),
])
def test_distance_masks_match_packbits(graph, max_dist):
    assert graph.at_dist == packbits_distance_masks(graph, graph.diameter)
    assert _distance_masks(graph, max_dist) == packbits_distance_masks(graph, max_dist)
    unreachable = [[u for u, d in enumerate(row) if d == UNREACHABLE] for row in graph.dist]
    assert unreachable == [_bits(((1 << graph.num_vertices) - 1) & ~reduce(or_, classes))
                           for classes in graph.at_dist]


def test_source_plan_shares_one_pair_per_position_and_distance():
    order, plan = _source_plan(G62)
    shared = {}
    for _, reqs in plan:
        for pair in reqs:
            assert shared.setdefault(pair, pair) is pair
    assert len(shared) <= len(order) * (G62.diameter + 1)


def random_subgraph(graph, keep, seed):
    """``graph`` with each edge kept with probability ``keep``."""
    rng = random.Random(seed)
    nv = graph.num_vertices
    return graph_from_edges(list(range(nv)), [
        (u, v) for u in range(nv) for v in graph.neighbors(u) if u < v and rng.random() < keep
    ])


def cocktail_party(pairs):
    """K_{2 pairs} less a perfect matching: every vertex is at distance 2
    from its partner only, so each has degree 2 pairs - 2."""
    nv = 2 * pairs
    return graph_from_edges(
        list(range(nv)), [(u, v) for u in range(nv) for v in range(u + 1, nv) if v != u ^ 1]
    )


TWO_SQUARES = graph_from_edges(
    list(range(8)), [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)]
)


SEARCH_CASES = {
    **{
        f"h{m}-sp62-seed{seed}": (hypercube(m), G62, "sample", 3_000, seed)
        for m in (2, 3)
        for seed in (0, 5, 11)
    },
    # H_3 has a larger diameter than the dual polar graph of Sp(4,2)
    "h3-sp42": (hypercube(3), G42, "exhaustive", 10**5, 0),
    "h3-sp42-sample": (hypercube(3), G42, "sample", 10**5, 4),
    "sp42-sp62": (G42, G62, "sample", 20_000, 6),
    # a disconnected target: unreachable pairs meet no distance constraint
    "h2-two-squares": (hypercube(2), TWO_SQUARES, "exhaustive", 1_000, 0),
    # a budget below the 40 vertices leaves some root branches no budget
    "sp43-sp43-b30": (G43, G43, "exhaustive", 30, 0),
    "sp43-sp43-b30-sample": (G43, G43, "sample", 30, 2),
    # H_1: the first placement is already the last level
    "h1-sp42": (hypercube(1), G42, "exhaustive", 10**5, 0),
    "h1-sp43-b100-sample": (hypercube(1), G43, "sample", 100, 1),
    # a one-vertex source: every leaf is a root
    "k1-sp42": (graph_from_edges([0], []), G42, "exhaustive", 100, 0),
    "k1-sp42-b7-sample": (graph_from_edges([0], []), G42, "sample", 7, 3),
    # budgets that run out part way through the last level of every root
    "h2-sp43-b1000": (hypercube(2), G43, "exhaustive", 1_000, 0),
    "h2-sp45-b1000-sample": (hypercube(2), G45, "sample", 1_000, 3),
    "h2-sp43-b2000-sample": (hypercube(2), G43, "sample", 2_000, 13),
    # irregular targets: candidate counts vary from node to node
    "h2-sp43-thinned-sample": (hypercube(2), random_subgraph(G43, 0.8, 3), "sample", 6_000, 5),
    "h3-sp62-thinned-sample": (hypercube(3), random_subgraph(G62, 0.9, 8), "sample", 8_000, 2),
    # degree 298: an octahedron (the cocktail-party graph on six vertices)
    # embeds with one candidate at every partner
    "octahedron-cp150-sample": (cocktail_party(3), cocktail_party(150), "sample", 4_000, 9),
}


def assert_streamed_keys(streamed):
    """``new`` is set exactly at the first embedding of each image, keyed
    by the target vertices of its assignment."""
    seen = set()
    for assignment, new in streamed:
        key = reduce(or_, [1 << v for v in assignment])
        assert new == (key not in seen)
        seen.add(key)


@pytest.mark.parametrize("case", SEARCH_CASES.values(), ids=SEARCH_CASES.keys())
def test_mask_pruned_search_matches_the_reference(case):
    embs, stats = collect(search_isometric_embeddings, *case)
    ref, ref_stats = reference_search(*case)
    assert embs == [assignment for assignment, _ in ref]
    assert stats == ref_stats


@pytest.mark.parametrize("case", SEARCH_CASES.values(), ids=SEARCH_CASES.keys())
def test_visitor_streams_what_the_list_holds(case):
    # the visitor gets the reference's list, in order, each assignment with
    # its first-time flag
    streamed = []
    returned, _ = search_isometric_embeddings(*case, visit=lambda *found: streamed.append(found))
    assert returned is None
    assert streamed == reference_search(*case)[0]
    assert_streamed_keys(streamed)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("case", SEARCH_CASES.values(), ids=SEARCH_CASES.keys())
def test_forked_search_streams_what_one_worker_streams(case, workers, two_cpus):
    streamed, forked = [], []
    _, stats = search_isometric_embeddings(*case, visit=lambda *found: streamed.append(found))
    _, forked_stats = search_isometric_embeddings(
        *case, workers=workers, visit=lambda *found: forked.append(found)
    )
    assert forked == streamed
    assert_streamed_keys(forked)
    assert forked_stats == {**stats, "workers": workers}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", SEARCH_CASES.values(), ids=SEARCH_CASES.keys())
def test_counting_search_returns_the_stats_of_a_visiting_one(case, workers, two_cpus, monkeypatch):
    # without a visitor the search only counts, in this process whatever
    # the worker count
    _, visited = search_isometric_embeddings(*case, workers=workers, visit=lambda *found: None)

    def no_fork():
        raise AssertionError("a counting search forked")

    monkeypatch.setattr(os, "fork", no_fork)
    returned, counted = search_isometric_embeddings(*case, workers=workers, visit=None)
    assert returned is None
    assert counted == visited == {**reference_search(*case)[1], "workers": workers}


def spy_shuffles(monkeypatch):
    """The length of every list ``_shuffle`` is given from now on."""
    real = apartments._shuffle
    lengths = []

    def spy(items, getrandbits):
        lengths.append(len(items))
        real(items, getrandbits)

    monkeypatch.setattr(apartments, "_shuffle", spy)
    return lengths


@pytest.mark.parametrize("target", [G43, G45], ids=["sp43", "sp45"])
def test_counting_sample_search_parses_no_shuffle_it_counts_whole(target, monkeypatch):
    # H_1's one placement after the root is the last level: with the budget
    # ample, every candidate is counted, so no order is ever drawn
    lengths = spy_shuffles(monkeypatch)
    _, stats = search_isometric_embeddings(hypercube(1), target, "sample", 10**6, 3, visit=None)
    assert stats["complete"]
    assert stats["embeddings"] == target.num_vertices * len(target.neighbors(0))
    assert lengths == []


SEED_TARGETS = {
    "empty": graph_from_edges([], []),
    "k1": graph_from_edges([0], []),
    "k2": hypercube(1),
    "sp62": G62,
    "edgeless-1120": graph_from_edges(list(range(1_120)), []),
}


@pytest.mark.parametrize("seed", [0, 1, 7, 11, 2**31, 2**32 - 1, 2**32, 2**40 + 5, 2**64 + 7,
                                  2**70 + 3, 2**128 - 1, 2**128, 2**160 + 9, 3**100])
@pytest.mark.parametrize("target", SEED_TARGETS.values(), ids=SEED_TARGETS.keys())
def test_root_branches_draw_from_the_64_bit_draws_of_one_random(seed, target, monkeypatch):
    # root r's stream is a fresh Random seeded with the r-th getrandbits(64)
    # of Random(seed), before the branch draws anything, for seeds of any
    # size and for every root
    real = apartments._branch_search
    seeds, roots = random.Random(seed), []

    def spy(*branch):
        root, getrandbits = branch[4], branch[6]
        want = random.Random(seeds.getrandbits(64))
        assert getrandbits.__self__.getstate() == want.getstate()
        roots.append(root)
        return real(*branch)

    monkeypatch.setattr(apartments, "_branch_search", spy)
    src = graph_from_edges([0], [])
    _, stats = search_isometric_embeddings(src, target, "sample", 10**4, seed, visit=None)
    assert roots == list(range(target.num_vertices))
    assert stats["seed"] == seed and stats["embeddings"] == target.num_vertices


SEED_SWEEP_CASES = {
    "h2-sp43": (hypercube(2), G43, 2_000),
    "h2-sp43-thinned": (hypercube(2), random_subgraph(G43, 0.8, 3), 6_000),
    # degree 298: the root's candidate lists run past 256
    "octahedron-cp150": (cocktail_party(3), cocktail_party(150), 4_000),
}


@pytest.mark.parametrize("seed", [0, 1, 5, 2**33 + 1])
@pytest.mark.parametrize("case", SEED_SWEEP_CASES.values(), ids=SEED_SWEEP_CASES.keys())
def test_sample_search_matches_the_reference_at_every_seed(case, seed):
    # the reference shuffles with random.Random.shuffle and shares no code
    # with the search: the same embeddings, in order, and the same stats
    src, dst, budget = case
    embs, stats = collect(search_isometric_embeddings, src, dst, "sample", budget, seed)
    ref, ref_stats = reference_search(src, dst, "sample", budget, seed)
    assert embs == [assignment for assignment, _ in ref]
    assert stats == ref_stats


def test_sample_search_shuffles_only_two_or_more_candidates(monkeypatch):
    # a node with at most one candidate has no order to draw
    lengths = spy_shuffles(monkeypatch)
    for case in SEARCH_CASES.values():
        if case[2] == "sample":
            search_isometric_embeddings(*case, visit=lambda *found: None)
    assert lengths and min(lengths) >= 2


def test_theorem3_search_lists_no_one_candidate_position_before_the_last_level(monkeypatch):
    # Sp(4,2) into Sp(6,2) as perfbench's theorem3 workload runs it: a
    # position before last - 1 with one candidate is placed in the frame
    # above it, so only 8 946 candidate masks are listed (91 598 with a
    # frame per position), none of them empty, and the draws, expansions
    # and stats stay what they were
    lengths = spy_shuffles(monkeypatch)
    real, listed = apartments._bits, []

    def spy(mask):
        listed.append(mask)
        return real(mask)

    monkeypatch.setattr(apartments, "_bits", spy)
    _, stats = search_isometric_embeddings(G42, G62, "sample", 100_000, 11, visit=lambda *found: None)
    assert len(listed) <= 8_946 and all(listed)
    assert len(lengths) == 4_723
    assert (stats["expansions"], stats["embeddings"], stats["distinct_images"]) == (100_000, 4_196, 63)


def test_sample_search_places_each_neighbour_first_uniformly():
    # at budget 2 per root, each root of H_1 in Sp(4,2) places the first of
    # its six shuffled neighbours; over 200 seeds, the 90 (root, neighbour)
    # counts pass a chi-squared test at 75 degrees of freedom: a uniform
    # draw exceeds 150 with probability below 1e-6 (the 0.999 quantile is
    # 118.6)
    nv, seeds = G42.num_vertices, range(200)
    counts = {}
    for seed in seeds:
        embs, _ = cube_embeddings(1, G42, mode="sample", budget=2 * nv, seed=seed)
        assert sorted(root for root, _ in embs) == list(range(nv))
        for edge in embs:
            counts[edge] = counts.get(edge, 0) + 1
    cells = [(v, w) for v in range(nv) for w in G42.neighbors(v)]
    assert len(cells) == 90 and set(counts) <= set(cells)
    expected = len(seeds) / 6
    chi2 = sum((counts.get(cell, 0) - expected) ** 2 / expected for cell in cells)
    assert chi2 < 150


def test_search_checks_seed_and_workers_before_any_early_return():
    # a larger source diameter, an empty target and a full search reject
    # them alike; the seed matters only in sample mode
    empty = graph_from_edges([], [])
    searches = [
        lambda **kw: search_dualpolar_embeddings(SP62, SP42, budget=100, visit=None, **kw),
        lambda **kw: search_dualpolar_embeddings(SP42, SP42, budget=100, visit=None, **kw),
        lambda **kw: search_isometric_embeddings(hypercube(2), empty, budget=100, visit=None, **kw),
        lambda **kw: search_isometric_embeddings(hypercube(2), G42, budget=100, visit=None, **kw),
    ]
    for search in searches:
        with pytest.raises(ValueError, match="seed"):
            search(mode="sample", seed=-1)
        for workers in (0, -2):
            with pytest.raises(ValueError, match="workers"):
                search(mode="sample", seed=1, workers=workers)
        assert search(mode="exhaustive", seed=-1)[1]["seed"] is None


def branch_sizes(src, dst):
    """The expansions of each root branch of an exhaustive search of
    ``src`` in ``dst`` run to its end, from the reference."""
    _, plan = _source_plan(src)
    nbrs = [dst.neighbors(v) for v in range(dst.num_vertices)]
    return [
        _reference_branch(nbrs, dst.dist, plan, src.num_vertices, root, 10**9, None)[1]
        for root in range(dst.num_vertices)
    ]


def first_cut(budget, sizes):
    """The first root branch that ``budget``, split over the roots as the
    search splits it, leaves incomplete, or None."""
    nv = len(sizes)
    q, t = divmod(budget, nv)
    return next((r for r in range(nv) if q + (r < t) < sizes[r]), None)


def cut_budgets(sizes):
    """Budgets that leave every branch complete, that cut root 0's branch
    half way, and that make roots 0, the middle and the last the first
    incomplete branch, one expansion short.  Branch r0 is the first cut by
    the budget nv (sizes[r0] - 1) + r0 exactly when no earlier branch is
    larger; on an irregular target the last root may be out of reach, and
    then the last root that can be cut first stands in for it."""
    nv = len(sizes)
    reachable = [r for r in range(nv) if first_cut(nv * (sizes[r] - 1) + r, sizes) == r]
    middle = min(reachable, key=lambda r: abs(r - nv // 2))
    budgets = [nv * max(sizes), nv * (sizes[0] // 2)]
    budgets += [nv * (sizes[r] - 1) + r for r in sorted({0, middle, reachable[-1]})]
    return budgets


def spy_branches(monkeypatch):
    """The (root, canonical) of every ``_branch_search`` call from now on:
    canonical when it takes no key set."""
    real = apartments._branch_search
    calls = []

    def spy(*args):
        calls.append((args[4], args[7] is None))
        return real(*args)

    monkeypatch.setattr(apartments, "_branch_search", spy)
    return calls


def relabelled_hypercube(m, seed):
    """``hypercube(m)`` with its vertices permuted."""
    perm = list(range(1 << m))
    random.Random(seed).shuffle(perm)
    cube = hypercube(m)
    graph = graph_from_edges(list(range(1 << m)), [(perm[u], perm[v]) for u, v in cube.edges()])
    assert graph.adj != cube.adj
    return graph


COUNT_TARGETS = {
    "sp42": G42,
    "sp43": G43,
    "sp43-thinned": random_subgraph(G43, 0.8, 3),
    "two-squares": TWO_SQUARES,
    # labels that put some images' distance-2 vertices below a root that is
    # smaller than its neighbours in the image: that embedding is not canonical
    "h4-relabelled": relabelled_hypercube(4, 1),
}


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("target", COUNT_TARGETS.values(), ids=COUNT_TARGETS.keys())
def test_canonical_count_matches_the_reference_wherever_the_budget_cuts(target, m, monkeypatch):
    # the branches before the first incomplete one count canonical leaves;
    # that branch is run again with the image keys, and so is every
    # branch after it
    src = hypercube(m)
    sizes = branch_sizes(src, target)
    nv = target.num_vertices
    budgets = cut_budgets(sizes)
    cuts = [first_cut(budget, sizes) for budget in budgets]
    if min(sizes) == max(sizes):
        assert cuts == [None, 0, 0, nv // 2, nv - 1]
    else:
        assert cuts[:3] == [None, 0, 0] and cuts[-1] > 0
    for budget, cut in zip(budgets, cuts):
        calls = spy_branches(monkeypatch)
        _, stats = search_isometric_embeddings(src, target, budget=budget, visit=None)
        assert stats == reference_search(src, target, "exhaustive", budget, 0)[1]
        if cut is None:
            assert calls == [(r, True) for r in range(nv)]
        else:
            assert calls == [(r, True) for r in range(cut + 1)] + [(r, False) for r in range(cut, nv)]


# the searches swept, each with the per-root shares it is run at: into
# Sp(4,2), every share of a hypercube's whole branch of 7 or 79 expansions,
# and for the 565 of Sp(4,2) itself every share through its first leaves,
# then one in 47 up to the whole branch; Sp(4,2) into Sp(6,2), Theorem 3's
# shape, every share through its first leaves at 14 and then doubling ones,
# so that cuts fall inside runs of one-candidate positions (its whole branch
# of 7 925, and so its branch sizes, take the reference some 12 s a mode)
SHARE_SWEEPS = {
    "h1": (hypercube(1), G42, range(8)),
    "h2": (hypercube(2), G42, range(80)),
    "h3": (hypercube(3), G42, range(80)),
    "sp42": (G42, G42, [*range(48), *range(48, 566, 47), 565]),
    "sp42-sp62": (G42, G62, [*range(16), 24, 48, 96, 192]),
}


@pytest.mark.parametrize("mode", ["exhaustive", "sample"])
@pytest.mark.parametrize("sweep", SHARE_SWEEPS.values(), ids=SHARE_SWEEPS.keys())
def test_search_matches_the_reference_at_every_per_root_share(sweep, mode, two_cpus, monkeypatch):
    # a budget of share s per root, and one more for the first half of the
    # roots, cuts every branch at its s-th or (s + 1)-th expansion: inside
    # a run of one-candidate positions, between two placements of position
    # last - 1, part way through a last level, and at the first incomplete
    # branch of a canonical count, which is then run again with the image
    # keys; a forked search streams what one worker streams
    src, dst, shares = sweep
    nv = dst.num_vertices
    sizes = branch_sizes(src, dst) if dst is G42 else None
    assert sizes is None or shares[-1] >= max(sizes)
    calls = spy_branches(monkeypatch)
    for share in shares:
        budget = share * nv + nv // 2
        calls.clear()
        streamed, forked = [], []
        _, visited = search_isometric_embeddings(
            src, dst, mode, budget, 5, visit=lambda *found: streamed.append(found)
        )
        _, counted = search_isometric_embeddings(src, dst, mode, budget, 5, visit=None)
        ref, ref_stats = reference_search(src, dst, mode, budget, 5)
        assert streamed == ref
        assert counted == visited == ref_stats
        if mode == "exhaustive" and src is not G42:
            # the visiting search keeps the keys, then the count is canonical
            # up to its first cut branch
            cut = first_cut(budget, sizes)
            canonical = [(r, True) for r in range(nv if cut is None else cut + 1)]
            redone = [] if cut is None else [(r, False) for r in range(cut, nv)]
            assert calls == [(r, False) for r in range(nv)] + canonical + redone
        _, forked_stats = search_isometric_embeddings(
            src, dst, mode, budget, 5, workers=2, visit=lambda *found: forked.append(found)
        )
        assert forked == streamed
        assert forked_stats == {**visited, "workers": 2}


OTHER_SOURCES = {
    "h2-relabelled-sp43": (relabelled_hypercube(2, 1), G43),
    "h3-relabelled-sp43-thinned": (relabelled_hypercube(3, 2), COUNT_TARGETS["sp43-thinned"]),
    "k1-sp42": (graph_from_edges([0], []), G42),
    "sp42-sp42": (G42, G42),
}


@pytest.mark.parametrize("budget", [10**5, 500])
@pytest.mark.parametrize("case", OTHER_SOURCES.values(), ids=OTHER_SOURCES.keys())
def test_counts_of_other_sources_keep_the_image_keys(case, budget, monkeypatch):
    calls = spy_branches(monkeypatch)
    _, stats = search_isometric_embeddings(*case, budget=budget, visit=None)
    assert stats == reference_search(*case, "exhaustive", budget, 0)[1]
    assert calls and not any(canonical for _, canonical in calls)


def test_complete_hypercube_count_keeps_nothing_per_image():
    # the 73 125 H_2 images of the prebuilt Sp(4,5) graph are counted by
    # canonical leaves: about 0.04 MB traced, against 5.2 MB for a set of
    # their int image keys
    tracemalloc.start()
    try:
        _, stats = search_isometric_embeddings(hypercube(2), G45, visit=None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats["complete"]
    assert (stats["distinct_images"], stats["embeddings"]) == (73_125, 585_000)
    assert peak < 10**6


def test_search_frees_its_visitor_when_it_returns():
    class Visitor:
        def __call__(self, assignment, new):
            pass

    visitor = Visitor()
    ref = weakref.ref(visitor)
    gc.disable()
    try:
        search_isometric_embeddings(hypercube(2), G42, visit=visitor)
        del visitor
        # no reference cycle keeps the search's state, and so the visitor
        # and its set of image keys, alive until a garbage collection
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("seed", range(20))
def test_shuffle_makes_the_draws_of_random_shuffle(seed):
    # lengths past 256 too, as at a root of the degree-298 target
    for length in [*range(41), 255, 256, 257, 298]:
        mine, ref = random.Random(seed), random.Random(seed)
        got, want = list(range(length)), list(range(length))
        _shuffle(got, mine.getrandbits)
        ref.shuffle(want)
        assert got == want
        assert mine.getstate() == ref.getstate()


# -- the rref reference for the witness ------------------------------------------


def _labellings():
    """Hypercube labellings, as (space, graph, vertex of each sign mask):
    frame apartments of Sp(4,2), Sp(4,3) and Sp(6,2), H_2 over a point of
    Sp(6,2) and edges of Sp(4,2)."""
    cases = [(SP42, G42, frame_vertices(SP42, G42)(f)) for f in enumerate_frames(SP42)[0]]
    cases += [(SP43, G43, frame_vertices(SP43, G43)(f)) for f in sample_frames(SP43, 30, seed=3)]
    cases += [(SP62, G62, frame_vertices(SP62, G62)(f)) for f in sample_frames(SP62, 30, seed=3)]
    orders = cube_embeddings(2, G62, mode="sample", budget=3_000, seed=4)[0][:30]
    cases += [(SP62, G62, order) for order in orders]
    cases += [(SP42, G42, order) for order in cube_embeddings(1, G42)[0][:30]]
    return cases


def _perturbed_labellings(count, seed, cases=None):
    """Seeded copies of the labellings (``_labellings()`` unless ``cases``
    are given): unchanged, two images swapped, or one image replaced by a
    random vertex."""
    cases = cases or _labellings()
    rng = random.Random(seed)
    for k in range(count):
        space, graph, order = cases[rng.randrange(len(cases))]
        order = list(order)
        if k % 3 == 1:
            i, j = rng.sample(range(len(order)), 2)
            order[i], order[j] = order[j], order[i]
        elif k % 3 == 2:
            order[rng.randrange(len(order))] = rng.randrange(graph.num_vertices)
        yield space, graph, order


def test_mask_witness_matches_the_reference():
    kinds = set()
    for space, graph, order in _perturbed_labellings(600, seed=19):
        try:
            witness = labelled_witness(space, graph, order)
            got = (witness.base, witness.residue_frame)
        except CounterexampleError as exc:
            got = exc.as_violation()
        try:
            want = witness_from_images(space, [graph.labels[v] for v in order])
        except CounterexampleError as exc:
            want = exc.as_violation()
        assert got == want
        kinds.add(got.get("kind") if isinstance(got, dict) else "ok")
    # the perturbations reach both verdicts and several violation kinds
    assert "ok" in kinds and len(kinds) >= 4


def test_full_rank_witness_is_a_frame_apartment():
    # verify_theorem2 neither recovers a frame from an image that passes the
    # decomposition with m = n nor round-trips it: its faces are a frame, and
    # the apartment of that frame is the image.  The base and face checks
    # are the only ones, and they imply both
    witness_kinds = {"base_dimension", "base_depends_on_opposite_pair", "face_intersection_defect"}
    passed, failed = set(), 0
    for space, graph, order in _perturbed_labellings(600, seed=23):
        if len(order) != 1 << space.n:
            continue
        masks = [graph.masks[v] for v in order]
        try:
            _, faces = _witness_from_images(space, masks)
        except CounterexampleError as exc:
            assert exc.details["kind"] in witness_kinds
            failed += 1
            continue
        frame = is_frame(space, [space.points[q.bit_length() - 1] for q in faces])
        assert frame is not None
        assert set(apartment_of_frame(space, frame)) == set(masks)
        passed.add(space)
    assert passed >= {SP42, SP62} and failed


def test_to_frame_of_an_accepted_full_rank_labelling_is_its_frame():
    # ApartmentWitness.to_frame has no failure branch: the faces of every
    # full-rank labelling the decomposition accepts form a frame, and its
    # apartment is the labelling's image
    accepted = set()
    for space, graph, order in _perturbed_labellings(600, seed=31):
        if len(order) != 1 << space.n:
            continue
        try:
            witness = labelled_witness(space, graph, order)
        except CounterexampleError:
            continue
        frame = witness.to_frame(space)
        assert isinstance(frame, Frame)
        assert set(apartment_of_frame(space, frame)) == {graph.masks[v] for v in order}
        accepted.add(space)
    assert accepted == {SP42, SP43, SP62}


def test_pair_meets_catch_every_image_missing_the_base():
    # the base is the meet of the images at sign masks 0 and 2^m - 1; when it
    # misses an image or a face, which _witness_from_images does not check,
    # or the meet of all the images differs from it, the dimension or
    # opposite-pair check has already raised
    caught = 0
    for space, graph, order in _perturbed_labellings(600, seed=19):
        masks = [graph.masks[v] for v in order]
        m = (len(masks) - 1).bit_length()
        faces = [reduce(and_, (img for x, img in enumerate(masks) if x >> (s % m) & 1 == (s >= m)))
                 for s in range(2 * m)]
        base = masks[0] & masks[-1]
        if any(base & ~q for q in masks + faces) or reduce(and_, masks) != base:
            with pytest.raises(CounterexampleError) as info:
                antipodal_base(space, masks)
            assert info.value.details["kind"] in ("base_dimension", "base_depends_on_opposite_pair")
            caught += 1
    assert caught


def test_colliding_faces_fail_the_base_or_face_checks():
    # _witness_from_images no longer checks that the faces are distinct: for
    # faces s != t, some image on s's side has its antipode on t's, so equal
    # faces lie in the base.  Labellings with an image copied onto another
    # or replaced at random: every one whose faces collide fails the base
    # or face-rank check, and the reference, which still checks collisions,
    # agrees
    rng = random.Random(37)
    cases = _labellings()
    collided = set()
    for k in range(1_500):
        space, graph, order = cases[rng.randrange(len(cases))]
        order = list(order)
        i, j = rng.sample(range(len(order)), 2)
        order[i] = order[j] if k % 2 else rng.randrange(graph.num_vertices)
        masks = [graph.masks[v] for v in order]
        m = (len(masks) - 1).bit_length()
        faces = [reduce(and_, (img for x, img in enumerate(masks) if x >> (s % m) & 1 == (s >= m)))
                 for s in range(2 * m)]
        if len(set(faces)) == 2 * m:
            continue
        with pytest.raises(CounterexampleError) as info:
            _witness_from_images(space, masks)
        violation = info.value.as_violation()
        assert violation["kind"] in ("base_dimension", "base_depends_on_opposite_pair",
                                     "face_intersection_defect")
        with pytest.raises(CounterexampleError) as info:
            witness_from_images(space, [graph.labels[v] for v in order])
        assert info.value.as_violation() == violation
        collided.add((space, m))
    assert collided >= {(SP42, 1), (SP42, 2), (SP43, 2), (SP62, 2), (SP62, 3)}


def _decomposed(decompose, space, masks):
    """(base, residue frame) as subspaces, or the violation payload."""
    try:
        base, faces = decompose(masks)
    except CounterexampleError as exc:
        return exc.as_violation()
    return subspace_of_mask(space, base), tuple(subspace_of_mask(space, q) for q in faces)


def test_one_decomposer_per_space_and_m_matches_a_fresh_one_and_the_reference():
    # verify_theorem2 decomposes every image with one _decomposer: reused
    # across labellings valid and broken, m = 1..n on each space, it gives
    # what a fresh one (_witness_from_images) and the rref reference give,
    # masks or violation payload.  At m = 1 each face is one image
    cases = _labellings()
    for space, graph in ((SP43, G43), (SP62, G62)):
        edges, _ = cube_embeddings(1, graph, mode="sample", budget=1_000, seed=5)
        cases += [(space, graph, order) for order in edges[:30]]
    decomposers = {}
    verdicts = set()
    for space, graph, order in _perturbed_labellings(900, seed=41, cases=cases):
        masks = [graph.masks[v] for v in order]
        m = (len(masks) - 1).bit_length()
        if (space, m) not in decomposers:
            decomposers[space, m] = _decomposer(space, m)
        got = _decomposed(decomposers[space, m], space, masks)
        assert _decomposed(lambda ms: _witness_from_images(space, ms), space, masks) == got
        try:
            want = witness_from_images(space, [graph.labels[v] for v in order])
        except CounterexampleError as exc:
            want = exc.as_violation()
        assert got == want
        verdicts.add((space.n, space.p, m, got["kind"] if isinstance(got, dict) else "ok"))
    assert {(n, p, m) for n, p, m, _ in verdicts} == {
        (2, 2, 1), (2, 2, 2), (2, 3, 1), (2, 3, 2), (3, 2, 1), (3, 2, 2), (3, 2, 3)}
    assert {kind for *_, kind in verdicts} == {
        "ok", "base_dimension", "base_depends_on_opposite_pair", "face_intersection_defect"}
    assert {(n, p, 1, "ok") for n, p in ((2, 2), (2, 3), (3, 2))} <= verdicts


@pytest.mark.parametrize("workers", [1, 2])
def test_verify_theorem2_builds_one_decomposer_per_call(monkeypatch, workers):
    made = []

    def spy(space, m):
        made.append((space, m))
        return decomposer(space, m)

    decomposer = apartments._decomposer
    monkeypatch.setattr(apartments, "_decomposer", spy)
    report = verify_theorem2(SP62, 3, mode="sample", budget=2_000, seed=11, workers=workers)
    assert report["counts"]["distinct_images"] > 100 and not report["violations"]
    assert made == [(SP62, 3)]
