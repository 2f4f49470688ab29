import pytest

from dualpolar.apartments import (
    Embedding,
    base_subspace,
    is_apartment,
    is_isometric_embedding,
    recover_frame,
    search_hypercube_embeddings,
    verify_lemma1,
    verify_theorem2,
)
from dualpolar.graphs import dual_polar_graph, hypercube
from dualpolar.linalg import contains, intersect, rref
from dualpolar.polar import (
    PolarSpace,
    apartment_of_frame,
    enumerate_frames,
    sample_frames,
)
from dualpolar.reporting import CounterexampleError

SP42 = PolarSpace(2, 2)
SP62 = PolarSpace(3, 2)
G42 = dual_polar_graph(SP42)
G62 = dual_polar_graph(SP62)


def frame_apartment_embedding(space, graph, frame):
    """The canonical labeling of a frame apartment as an Embedding of H_n."""
    members = apartment_of_frame(space, frame)
    cube = hypercube(space.n)
    assignment = [0] * cube.num_vertices
    for v, lab in enumerate(cube.labels):
        assignment[v] = graph.index[members[lab.mask]]
    return Embedding(cube, graph, tuple(assignment))


def test_is_isometric_embedding_identity_and_constant():
    g = hypercube(2)
    assert is_isometric_embedding(list(range(4)), g, g)
    assert not is_isometric_embedding([0, 0, 0, 0], g, g)


def test_frame_apartment_is_isometric():
    frames, _ = enumerate_frames(SP42)
    for frame in frames[:10]:
        emb = frame_apartment_embedding(SP42, G42, frame)
        assert is_isometric_embedding(emb.assignment, emb.source, emb.target)


def test_search_m1_gives_ordered_edges():
    embs, stats = search_hypercube_embeddings(1, G42)
    assert stats["complete"]
    assert stats["embeddings"] == 2 * len(G42.edges())
    assert stats["embeddings"] % 2 == 0


def test_search_m2_sp42_image_count_is_frame_count():
    embs, stats = search_hypercube_embeddings(2, G42)
    assert stats["complete"]
    frames, _ = enumerate_frames(SP42)
    assert stats["distinct_images"] == len(frames)
    # raw count is inflated by exactly the hypercube automorphisms
    assert stats["embeddings"] % (2**2 * 2) == 0
    assert stats["embeddings"] == stats["distinct_images"] * 8


def test_search_sample_mode_is_seed_deterministic():
    a, sa = search_hypercube_embeddings(2, G62, mode="sample", budget=2_000, seed=9)
    b, sb = search_hypercube_embeddings(2, G62, mode="sample", budget=2_000, seed=9)
    assert [e.assignment for e in a] == [e.assignment for e in b]
    assert sa == sb
    c, _ = search_hypercube_embeddings(2, G62, mode="sample", budget=2_000, seed=10)
    assert [e.assignment for e in a] != [e.assignment for e in c]


def test_search_rejects_bad_arguments():
    with pytest.raises(ValueError):
        search_hypercube_embeddings(2, G42, mode="other")
    with pytest.raises(ValueError):
        search_hypercube_embeddings(2, G42, budget=0)


def test_no_hypercube_above_rank():
    embs, stats = search_hypercube_embeddings(3, G42)
    assert stats["complete"]
    assert embs == []


def test_base_subspace_full_rank_is_empty():
    frames, _ = enumerate_frames(SP42)
    emb = frame_apartment_embedding(SP42, G42, frames[0])
    assert base_subspace(SP42, emb).rank == 0


def test_base_subspace_m2_in_sp62_is_a_point():
    embs, stats = search_hypercube_embeddings(2, G62, mode="sample", budget=3_000, seed=4)
    assert embs
    for emb in embs[:25]:
        base = base_subspace(SP62, emb)
        assert base.rank == 1
        for v in range(4):
            assert contains(SP62.field, emb.target.labels[emb.assignment[v]], base.rows[0])


def test_base_subspace_raises_on_garbage():
    # duplicate opposite images make the base the whole maximal
    emb = Embedding(hypercube(2), G42, (0, 1, 2, 0))
    with pytest.raises(CounterexampleError):
        base_subspace(SP42, emb)


def test_recover_frame_roundtrip_on_frame_apartments():
    frames, _ = enumerate_frames(SP42)
    for frame in frames[:20]:
        emb = frame_apartment_embedding(SP42, G42, frame)
        witness = recover_frame(SP42, emb)
        assert witness.base.rank == 0
        recovered = witness.to_frame(SP42)
        assert set(recovered.points) == set(frame.points)
        assert recovered.sigma == frame.sigma


def test_recover_frame_m1_faces_are_the_images():
    embs, _ = search_hypercube_embeddings(1, G42)
    emb = embs[0]
    witness = recover_frame(SP42, emb)
    images = [emb.target.labels[i] for i in emb.assignment]
    assert witness.residue_frame[0] == images[0]
    assert witness.residue_frame[1] == images[1]
    assert witness.base == intersect(SP42.field, images[0], images[1])
    assert witness.base.rank == SP42.n - 1


def test_recover_frame_every_h2_embedding_sp42():
    embs, stats = search_hypercube_embeddings(2, G42)
    assert stats["complete"]
    for emb in embs:
        witness = recover_frame(SP42, emb)
        assert witness.base.rank == 0
        assert len(witness.residue_frame) == 4


def test_is_apartment_accepts_frame_apartments():
    frames, _ = enumerate_frames(SP42)
    members = apartment_of_frame(SP42, frames[3])
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


def test_is_apartment_star_restriction_of_sp62_frame():
    # the apartment members through one frame point form an apartment of the
    # star of that point, with the point as base
    frame = sample_frames(SP62, 1, seed=12)[0]
    members = apartment_of_frame(SP62, frame)
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


def test_verify_lemma1_sampled_sp62():
    report = verify_lemma1(SP62, mode="sample", budget=500, seed=2)
    assert report["violations"] == []
    assert report["counts"]["geodesics"] == 500


def test_verify_theorem2_sp42_m2():
    report = verify_theorem2(SP42, 2)
    assert report["violations"] == []
    assert report["complete"]
    assert report["counts"]["distinct_images"] == report["counts"]["apartments"] == 90


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
        labelled = recover_frame(space, frame_apartment_embedding(space, graph, frame))
        unlabelled = is_apartment(space, apartment_of_frame(space, frame))
        assert labelled.base == unlabelled.base
        assert set(labelled.residue_frame) == set(unlabelled.residue_frame)


def test_labelled_and_unlabelled_validation_agree_over_a_point_base():
    embs, _ = search_hypercube_embeddings(2, G62, mode="sample", budget=3_000, seed=4)
    for emb in embs[:25]:
        labelled = recover_frame(SP62, emb)
        unlabelled = is_apartment(SP62, emb.image_labels())
        assert labelled.base == unlabelled.base and labelled.base.rank == 1
        assert set(labelled.residue_frame) == set(unlabelled.residue_frame)


@pytest.mark.parametrize("space,graph", [(SP42, G42), (SP62, G62)])
def test_labelled_validation_rejects_swapped_images(space, graph):
    frame = sample_frames(space, 1, seed=12)[0]
    emb = frame_apartment_embedding(space, graph, frame)
    # sign masks 0 and 1 are adjacent, and no hypercube automorphism swaps
    # them while fixing the rest
    swapped = list(emb.assignment)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    with pytest.raises(CounterexampleError):
        recover_frame(space, Embedding(emb.source, graph, tuple(swapped)))
    # the same members, unlabelled, are still an apartment
    assert is_apartment(space, emb.image_labels()) is not None
