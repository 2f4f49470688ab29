import dataclasses
import gc
import random
import weakref
from functools import reduce
from math import factorial, prod
from operator import and_, or_

import numpy as np
import pytest

from dualpolar import apartments
from dualpolar.apartments import (
    _apartment_witness,
    _opposite_base,
    _shuffle,
    _source_plan,
    _witness_from_images,
    frame_vertices,
    is_apartment,
    search_isometric_embeddings,
    search_stats,
    verify_lemma1,
    verify_theorem2,
)
from dualpolar.graphs import (
    dual_polar_graph,
    graph_from_edges,
    hypercube,
    iter_geodesics,
    meet_graph,
)
from dualpolar.linalg import rref
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
from reference import collect, contains, intersect, is_isometric_embedding, witness_from_images

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


def labelled_witness(space, graph, order):
    """The witness of the hypercube labelling whose image of sign mask x is
    vertex order[x] of ``graph``."""
    return _apartment_witness(
        space, [graph.labels[v] for v in order], [graph.masks[v] for v in order]
    )


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
    assert witness.member_set() == frozenset(members)


def test_is_apartment_rejects_wrong_sizes():
    maximals = list(G42.labels)
    assert is_apartment(SP42, maximals[:3]) is None
    assert is_apartment(SP42, maximals[:1]) is None
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
    return _apartment_witness(space, [unique[i] for i in orders[0]], [masks[i] for i in orders[0]])


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
    "n,q,m", [(2, 2, 1), (2, 2, 2), (3, 2, 1), (2, 3, 1), (2, 3, 2), (2, 5, 2)],
    ids=["sp42-h1", "sp42-h2", "sp62-h1", "sp43-h1", "sp43-h2", "sp45-h2"],
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


# -- the per-candidate reference search ----------------------------------------


def _reference_branch(dst_nbrs, dst_dist, plan, nsrc, root_img, budget, rng):
    """_branch_search with a per-candidate distance test and random.shuffle."""
    if budget < 1:
        return [], 0, False
    found = []
    imgs = [root_img]
    state = {"expansions": 1, "complete": True}

    def dfs(k):
        if k == nsrc:
            found.append(tuple(imgs))
            return
        parent, reqs = plan[k - 1]
        cands = dst_nbrs[imgs[parent]]
        if rng is not None:
            cands = list(cands)
            rng.shuffle(cands)
        for cand in cands:
            if any(dst_dist[cand][imgs[j]] != d for j, d in reqs):
                continue
            if state["expansions"] >= budget:
                state["complete"] = False
                return
            state["expansions"] += 1
            imgs.append(cand)
            dfs(k + 1)
            imgs.pop()
            if not state["complete"]:
                return

    if nsrc > 1:
        dfs(1)
    else:
        found.append(tuple(imgs))
    return found, state["expansions"], state["complete"]


def reference_search(src, dst, mode, budget, seed):
    """search_isometric_embeddings over _reference_branch."""
    order, plan = _source_plan(src)
    nsrc, nv = src.num_vertices, dst.num_vertices
    nbrs = [dst.neighbors(v) for v in range(nv)]
    shares = [budget // nv + (1 if i < budget % nv else 0) for i in range(nv)]
    if mode == "sample":
        children = np.random.SeedSequence(seed).spawn(nv)
        rngs = [random.Random(int(c.generate_state(2, np.uint64)[0])) for c in children]
    else:
        rngs = [None] * nv
    assignments, expansions, complete = [], 0, True
    for root in range(nv):
        found, exp, comp = _reference_branch(
            nbrs, dst.dist, plan, nsrc, root, shares[root], rngs[root]
        )
        expansions += exp
        complete = complete and comp
        for imgs in found:
            assignment = [0] * nsrc
            for k, v in enumerate(order):
                assignment[v] = imgs[k]
            assignments.append(tuple(assignment))
    distinct = len({tuple(sorted(a)) for a in assignments})
    stats = search_stats(mode, budget, seed, 1, len(assignments), distinct, expansions, complete)
    return assignments, stats


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
    "h2-two-squares": (
        hypercube(2),
        graph_from_edges(list(range(8)), [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)]),
        "exhaustive", 1_000, 0,
    ),
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
    assert embs == ref
    assert stats == ref_stats


@pytest.mark.parametrize("case", SEARCH_CASES.values(), ids=SEARCH_CASES.keys())
def test_visitor_streams_what_the_list_holds(case):
    # the visitor gets the reference's list, in order, each assignment with
    # its first-time flag
    streamed = []
    returned, _ = search_isometric_embeddings(*case, visit=lambda *found: streamed.append(found))
    assert returned is None
    assert [a for a, _ in streamed] == reference_search(*case)[0]
    assert_streamed_keys(streamed)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("case", SEARCH_CASES.values(), ids=SEARCH_CASES.keys())
def test_forked_search_streams_what_one_worker_streams(case, workers):
    streamed, forked = [], []
    _, stats = search_isometric_embeddings(*case, visit=lambda *found: streamed.append(found))
    _, forked_stats = search_isometric_embeddings(
        *case, workers=workers, visit=lambda *found: forked.append(found)
    )
    assert forked == streamed
    assert_streamed_keys(forked)
    assert forked_stats == {**stats, "workers": workers}


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


def test_shuffle_makes_the_draws_of_random_shuffle():
    for seed in range(20):
        for length in range(41):
            mine, ref = random.Random(seed), random.Random(seed)
            got, want = list(range(length)), list(range(length))
            _shuffle(got, mine)
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


def _perturbed_labellings(count, seed):
    """Seeded copies of the labellings: unchanged, two images swapped, or one
    image replaced by a random vertex."""
    cases = _labellings()
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
    # the apartment of that frame is the image
    witness_kinds = {
        "base_dimension", "base_depends_on_opposite_pair", "face_intersection_defect",
        "face_subspaces_collide", "residue_frame_condition", "image_not_spanned_by_faces",
    }
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
