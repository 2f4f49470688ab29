"""networkx's VF2 matcher as an oracle that shares no code with the search.

The dual polar graphs are rebuilt here from the RREF rows of their vertices
alone, and their intersection arrays are checked against BCN §9.4.  The
isometric embeddings of H_m are the VF2 subgraph monomorphisms whose inverse
preserves every distance; their numbers, and the embeddings themselves, must
be those of ``search_isometric_embeddings``, counting and visiting.
"""

from itertools import product

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

from dualpolar.apartments import search_isometric_embeddings
from dualpolar.graphs import dual_polar_graph, hypercube
from dualpolar.morphisms import search_dualpolar_embeddings, verify_chow
from dualpolar.polar import PolarSpace

SP42 = PolarSpace(2, 2)
SP43 = PolarSpace(2, 3)
SP62 = PolarSpace(3, 2)
SP45 = PolarSpace(2, 5)


def nx_dual_polar_graph(space: PolarSpace) -> nx.Graph:
    """The dual polar graph on the vertices of ``dual_polar_graph(space)``:
    the points of each maximal are its normalised nonzero row combinations,
    and two maximals are adjacent when they share the (p^(n-1) - 1)/(p - 1)
    points of a common hyperplane."""
    p = space.p

    def points(rows):
        found = set()
        for coeffs in product(range(p), repeat=len(rows)):
            v = [sum(c * row[i] for c, row in zip(coeffs, rows)) % p for i in range(space.dim)]
            lead = next((x for x in v if x), 0)
            if lead:
                found.add(tuple(x * pow(lead, p - 2, p) % p for x in v))
        return found

    sets = [points(sub.rows) for sub in dual_polar_graph(space).labels]
    shared = (p ** (space.n - 1) - 1) // (p - 1)
    graph = nx.Graph()
    graph.add_nodes_from(range(len(sets)))
    graph.add_edges_from(
        (i, j) for i in range(len(sets)) for j in range(i) if len(sets[i] & sets[j]) == shared
    )
    return graph


def vf2_cube_embeddings(target: nx.Graph, m: int) -> list[tuple[int, ...]]:
    """Isometric embeddings of H_m in ``target``, as the target vertex of
    each sign mask: the VF2 monomorphisms of H_m whose inverse keeps the
    distances of the pairs at distance 2 or more (a monomorphism keeps
    edges)."""
    cube = nx.Graph((x, x ^ 1 << b) for x in range(1 << m) for b in range(m))
    target_dist = dict(nx.all_pairs_shortest_path_length(target))
    far = [(a, b, d) for a, row in nx.all_pairs_shortest_path_length(cube)
           for b, d in row.items() if d >= 2 and a < b]
    found = []
    for mapping in GraphMatcher(target, cube).subgraph_monomorphisms_iter():
        inverse = {c: t for t, c in mapping.items()}
        if all(target_dist[inverse[a]][inverse[b]] == d for a, b, d in far):
            found.append(tuple(inverse[x] for x in range(1 << m)))
    return found


@pytest.mark.parametrize(
    "space,arrays",
    [(SP42, ([6, 4], [1, 3])), (SP43, ([12, 9], [1, 4])),
     (SP62, ([14, 12, 8], [1, 3, 7])), (SP45, ([30, 25], [1, 6]))],
    ids=["sp42", "sp43", "sp62", "sp45"],
)
def test_intersection_arrays_match_bcn(space, arrays):
    # BCN §9.4, e = 1: b_i = p^(i+1) [n-i], c_i = [i], with [k] = (p^k - 1)/(p - 1)
    p, n = space.p, space.n
    gauss = [(p**k - 1) // (p - 1) for k in range(n + 1)]
    closed = ([p ** (i + 1) * gauss[n - i] for i in range(n)], [gauss[i] for i in range(1, n + 1)])
    graph = nx_dual_polar_graph(space)
    assert nx.intersection_array(graph) == arrays == closed
    package = dual_polar_graph(space)
    assert {frozenset(e) for e in graph.edges} == {
        frozenset((v, w)) for v in range(package.num_vertices) for w in package.neighbors(v)
    }


@pytest.mark.parametrize(
    "space,m,embeddings,images",
    [(SP42, 1, 90, 45), (SP42, 2, 720, 90), (SP43, 1, 480, 240), (SP43, 2, 12_960, 1_620),
     (SP62, 1, 1_890, 945), (SP62, 2, 45_360, 5_670)],
    ids=["h1-sp42", "h2-sp42", "h1-sp43", "h2-sp43", "h1-sp62", "h2-sp62"],
)
def test_search_finds_the_vf2_embeddings(space, m, embeddings, images):
    vf2 = vf2_cube_embeddings(nx_dual_polar_graph(space), m)
    assert (len(vf2), len({frozenset(e) for e in vf2})) == (embeddings, images)
    graph = dual_polar_graph(space)
    _, counted = search_isometric_embeddings(hypercube(m), graph, visit=None)
    visited = []
    _, stats = search_isometric_embeddings(
        hypercube(m), graph, visit=lambda assignment, new: visited.append((assignment, new))
    )
    assert counted == stats
    assert (stats["embeddings"], stats["distinct_images"]) == (embeddings, images)
    assert sorted(a for a, _ in visited) == sorted(vf2)
    new = [frozenset(a) for a, first in visited if first]
    assert len(new) == images and set(new) == {frozenset(e) for e in vf2}


def test_chow_counts_the_vf2_automorphisms():
    graph = nx_dual_polar_graph(SP42)
    automorphisms = {
        tuple(mapping[v] for v in range(graph.number_of_nodes()))
        for mapping in GraphMatcher(graph, graph).isomorphisms_iter()
    }
    assert len(automorphisms) == 720
    report = verify_chow(SP42)
    assert report["complete"] and report["violations"] == []
    assert (report["counts"]["embeddings"], report["counts"]["distinct_images"]) == (720, 1)
    found = []
    search_dualpolar_embeddings(SP42, SP42, visit=lambda emb: found.append(emb.assignment))
    assert len(found) == 720 and set(found) == automorphisms
