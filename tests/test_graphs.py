import gc
import math
import random
import weakref
from collections import Counter
from itertools import combinations, permutations

import numpy as np
import pytest

from dualpolar import graphs
from dualpolar.graphs import (
    HypercubeVertex,
    dual_polar_graph,
    geodesic_count,
    graph_from_edges,
    hypercube,
    iter_geodesics,
    meet_graph,
    sample_geodesic,
    verify_lemma2,
)
from dualpolar.polar import PolarSpace, point_mask
import reference
from reference import intersect

SP42 = PolarSpace(2, 2)
SP62 = PolarSpace(3, 2)
SP43 = PolarSpace(2, 3)
SP45 = PolarSpace(2, 5)
SP63 = PolarSpace(3, 3)
ORACLE_SPACES = [SP42, SP62, SP43, SP45, SP63]


def test_complete_graph_distances():
    g = graph_from_edges("abcd", combinations(range(4), 2))
    assert all(g.distance(i, j) == 1 for i in range(4) for j in range(4) if i != j)
    assert g.diameter == 1


def test_path_graph_distances():
    g = graph_from_edges("abc", [(0, 1), (1, 2)])
    assert g.distance(0, 2) == 2
    assert g.diameter == 2


def test_disconnected_graph_flagged():
    g = graph_from_edges(range(2), [])
    assert not g.connected
    assert g.distance(0, 1) is None
    with pytest.raises(ValueError):
        graph_from_edges("ab", [], require_connected=True)


def test_hypercube_smallest():
    g = hypercube(1)
    assert g.num_vertices == 2
    assert g.edges() == [(0, 1)]
    with pytest.raises(ValueError):
        hypercube(0)


def test_hypercube_vertex_members():
    v = HypercubeVertex(mask=0b101, m=3)
    assert v.members() == (-1, 2, -3)


def test_hypercube_antipodal_distance():
    g = hypercube(2)
    full = HypercubeVertex(0b11, 2)
    assert g.distance(g.labels.index(HypercubeVertex(0, 2)), g.labels.index(full)) == 2


def test_hypercube_distance_is_hamming_up_to_8():
    for m in range(1, 9):
        g = hypercube(m)
        assert g.diameter == m
        for x in range(1 << m):
            for y in range(1 << m):
                assert g.distance(x, y) == (x ^ y).bit_count()


def test_hypercube_vertex_is_its_sign_mask():
    # verify_theorem2 reads an assignment of hypercube(m) as indexed by sign mask
    for m in range(1, 9):
        g = hypercube(m)
        assert [lab.mask for lab in g.labels] == list(range(1 << m))
        assert all(lab.m == m for lab in g.labels)


def test_hypercube_adjacency_is_one_member_swap():
    g = hypercube(4)
    for i, j in g.edges():
        a = set(g.labels[i].members())
        b = set(g.labels[j].members())
        assert len(a & b) == 3


@pytest.mark.parametrize(
    "space,vertices,diameter",
    [(SP42, 15, 2), (SP62, 135, 3), (SP43, 40, 2)],
)
def test_dual_polar_graph_shape(space, vertices, diameter):
    g = dual_polar_graph(space)
    assert g.num_vertices == vertices
    assert g.diameter == diameter
    assert g.connected
    # the masks taken as perps of the RREF rows are the point sets
    assert all(g.masks[v] == point_mask(space, g.labels[v]) for v in range(vertices))


@pytest.mark.parametrize("space", [SP42, SP62, SP43])
def test_dual_polar_distance_formula(space):
    # BFS distance equals n - rank of the intersection, for every pair
    g = dual_polar_graph(space)
    for i in range(g.num_vertices):
        for j in range(i, g.num_vertices):
            meet = intersect(space.field, g.labels[i], g.labels[j])
            assert g.distance(i, j) == space.n - meet.rank


@pytest.mark.parametrize("space", ORACLE_SPACES)
def test_meet_distances_equal_bfs(space):
    g = dual_polar_graph(space)
    bfs = graph_from_edges(range(g.num_vertices), g.edges())
    assert bfs.connected
    assert bfs.at_dist == g.at_dist


@pytest.mark.parametrize("space", ORACLE_SPACES)
def test_meet_distances_on_sampled_pairs(space):
    g = dual_polar_graph(space)
    rng = random.Random(2010)
    for _ in range(300):
        i, j = rng.randrange(g.num_vertices), rng.randrange(g.num_vertices)
        assert g.distance(i, j) == space.n - intersect(space.field, g.labels[i], g.labels[j]).rank


@pytest.mark.parametrize("space", ORACLE_SPACES)
def test_intersection_array(space):
    # BCN 9.4: c_i = (q^i - 1)/(q - 1), b_i = q^(i+1) (q^(n-i) - 1)/(q - 1)
    n, q = space.n, space.p
    c = [(q**i - 1) // (q - 1) for i in range(n + 1)]
    b = [q ** (i + 1) * (q ** (n - i) - 1) // (q - 1) for i in range(n + 1)]
    g = dual_polar_graph(space)
    for v in range(g.num_vertices):
        spheres = list(g.at_dist[v]) + [0]
        assert len(spheres) == n + 2 and sum(spheres) == (1 << g.num_vertices) - 1
        for d in range(n + 1):
            for u in graphs._bits(spheres[d]):
                if d > 0:
                    assert (g.adj[u] & spheres[d - 1]).bit_count() == c[d]
                assert (g.adj[u] & spheres[d + 1]).bit_count() == b[d]


def test_meet_count_that_is_no_subspace_size_is_unreachable():
    # two GF(3) point sets of a line's size sharing 2 points: a meet of 2
    # points is no subspace, so the pair is in no distance class
    g = meet_graph(SP43, "ab", [0b111100, 0b001111])
    assert g.at_dist == ((0b01,), (0b10,))
    assert [[g.distance(v, u) for u in range(2)] for v in range(2)] == [[0, None], [None, 0]]
    assert g.diameter == 0 and g.adj == (0, 0) and not g.connected


def test_graph_memo_lives_on_the_space():
    space = PolarSpace(2, 2)
    graph = dual_polar_graph(space)
    assert dual_polar_graph(space) is graph
    assert dual_polar_graph(PolarSpace(2, 2)) is not graph
    ref = weakref.ref(space)
    del space, graph
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("space", [SP42, SP62, SP43])
def test_opposite_iff_disjoint(space):
    g = dual_polar_graph(space)
    for i in range(g.num_vertices):
        for j in range(i + 1, g.num_vertices):
            disjoint = intersect(space.field, g.labels[i], g.labels[j]).rank == 0
            assert (g.distance(i, j) == space.n) == disjoint


@pytest.mark.parametrize("graph", [hypercube(3), dual_polar_graph(SP42), dual_polar_graph(SP62)])
def test_triangle_inequality(graph):
    nv = graph.num_vertices
    d = np.array([[graph.distance(i, j) for j in range(nv)] for i in range(nv)])
    best = (d[:, :, None] + d[None, :, :]).min(axis=1)
    assert (d <= best).all()


def test_geodesics_trivial_cases():
    g = hypercube(2)
    assert list(iter_geodesics(g, 1, 1)) == [[1]]
    assert geodesic_count(g, 1, 1)[0] == 1
    assert list(iter_geodesics(g, 0, 1)) == [[0, 1]]
    assert geodesic_count(g, 0, 1)[0] == 1


def test_geodesics_antipodal_hypercube_counts():
    # coordinate-permutation oracle: m! geodesics between opposite vertices
    for m in (2, 3, 4):
        g = hypercube(m)
        paths = list(iter_geodesics(g, 0, (1 << m) - 1))
        assert len(paths) == geodesic_count(g, 0, (1 << m) - 1)[0] == math.factorial(m)
    oracle = set()
    for perm in permutations(range(3)):
        path, x = [0], 0
        for b in perm:
            x |= 1 << b
            path.append(x)
        oracle.add(tuple(path))
    assert {tuple(p) for p in iter_geodesics(hypercube(3), 0, 7)} == oracle


def test_geodesics_budget_sampling():
    g = hypercube(4)
    _, counts = geodesic_count(g, 0, 15)

    def draws(seed):
        rng = random.Random(seed)
        return [sample_geodesic(g, 0, 15, counts, rng) for _ in range(5)]

    paths = draws(1)
    for path in paths:
        assert len(path) == 5
        assert path[0] == 0 and path[-1] == 15
        for a, b in zip(path, path[1:]):
            assert g.distance(a, b) == 1
    assert paths == draws(1)


def test_sampled_geodesics_draw_from_one_stream():
    # successive draws from one stream are uniform over the geodesics
    g = dual_polar_graph(SP62)
    v, w = 0, next(u for u in range(g.num_vertices) if g.distance(0, u) == 3)
    total, counts = geodesic_count(g, v, w)
    rng = random.Random(9)
    drawn = Counter(tuple(sample_geodesic(g, v, w, counts, rng)) for _ in range(50 * total))
    assert set(drawn) == {tuple(p) for p in iter_geodesics(g, v, w)}
    assert 25 <= min(drawn.values()) and max(drawn.values()) <= 80


def test_geodesic_count_matches_enumeration():
    g = dual_polar_graph(SP62)
    for v, w in [(0, 1), (0, 50), (3, 100)]:
        total, _ = geodesic_count(g, v, w)
        assert len(list(iter_geodesics(g, v, w))) == total


@pytest.mark.parametrize("space", [SP42, SP43, SP62])
def test_geodesic_counts_are_the_products_of_the_c_i(space):
    # a distance-regular graph joins two vertices at distance d by
    # c_1 ... c_d geodesics, and a dual polar graph has c_i = (q^i - 1)/(q - 1)
    # (BCN 9.4); d is read off the reference meet
    n, q = space.n, space.p
    g = dual_polar_graph(space)
    at_distance = {}
    for w in range(g.num_vertices):
        d = n - intersect(space.field, g.labels[0], g.labels[w]).rank
        want = math.prod((q**i - 1) // (q - 1) for i in range(1, d + 1))
        assert geodesic_count(g, 0, w)[0] == want
        at_distance.setdefault(d, []).append((w, want))
    assert sorted(at_distance) == list(range(n + 1))
    for pairs in at_distance.values():
        for w, want in (pairs[0], pairs[-1]):
            paths = [tuple(path) for path in iter_geodesics(g, 0, w)]
            assert len(set(paths)) == len(paths) == want


def test_geodesic_walks_draw_as_the_distance_scan_does():
    # the path counts and the sampled stream equal, draw for draw, those of
    # the reference that finds the interval by scanning every vertex's distances
    g = dual_polar_graph(SP62)
    pick = random.Random(5)
    rng, ref_rng = random.Random(1), random.Random(1)
    for _ in range(200):
        v, w = pick.randrange(g.num_vertices), pick.randrange(g.num_vertices)
        counts = reference.geodesic_counts(g, v, w)
        assert geodesic_count(g, v, w) == (counts[w], counts)
        assert sample_geodesic(g, v, w, counts, rng) == reference.sample_geodesic(
            g, v, w, counts, ref_rng)


def test_verify_lemma2_small():
    report = verify_lemma2(m_max=5)
    assert report["violations"] == []
    assert report["complete"]


def test_verify_lemma2_reports_graphs_that_are_no_hypercubes(monkeypatch):
    # verify_lemma2 checks the graphs hypercube() builds, so other graphs in
    # place of H_2 reach its two checks: the star K_{1,3} has no vertex at
    # distance 2 from its centre, and in the 4-cycle 0-1-2-3 the sign-mask
    # antipode 3 of vertex 0 is its neighbour
    real = hypercube
    for edges, first in [
        ([(0, 1), (0, 2), (0, 3)], {"m": 2, "vertex": 0, "opposite": []}),
        ([(0, 1), (1, 2), (2, 3), (3, 0)], {"m": 2, "v": 0, "u": 0, "w": 3, "path": [0, 3]}),
    ]:
        fake = graph_from_edges(range(4), edges)
        monkeypatch.setattr(graphs, "hypercube", lambda m: fake if m == 2 else real(m))
        assert verify_lemma2(m_max=2)["violations"][0] == first
