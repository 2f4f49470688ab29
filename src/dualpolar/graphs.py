"""Dense graphs with every distance class precomputed.

Two families are built here: hypercube graphs on the maximal singular sign
sets of {±1, ..., ±m}, with BFS distances, and dual polar graphs on the
maximal singular subspaces of a polar space, whose distance is n - rank of
the meet (adjacency = distance 1, i.e. intersection one step below maximal).
Every graph keeps its distances as ``at_dist[v][d]``, the bitmask of the
vertices at distance d from v for d = 0..diameter, which the searches AND
together.  ``dist[v]``, one byte per vertex for reading single distances,
is built from those classes the first time it is read; a pair in no
distance class reads ``UNREACHABLE`` (0xFF).  A BFS takes its classes from
its frontiers; a dual polar graph takes them from bit-sliced counts of the
points two maximals share (see ``meet_graph``).  A dual polar graph also
keeps the point mask of every vertex, which the verifiers take their meets,
containments and perps from.  Geodesics are walked on the classes alone:
the vertices at distance i from v on a geodesic to w, d(v, w) = d, are
``at_dist[v][i] & at_dist[w][d - i]``, so each step of a walk is one AND
of a vertex's adjacency with such a layer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import and_, or_
from typing import Iterator, Sequence

from . import polar
from .polar import PolarSpace, _bits
from .reporting import make_report

UNREACHABLE = 0xFF


@dataclass(frozen=True, eq=False)
class DenseGraph:
    """A graph on ``labels`` with bitmask adjacency and every distance.

    ``at_dist[v][d]`` is the bitmask of the vertices at distance d from v,
    for d = 0..diameter, and ``dist[v][u]`` the distance of v and u as one
    byte of the row ``dist[v]``, built from ``at_dist`` the first time
    ``dist`` is read; a pair in no class (unreachable, or a meet that is no
    subspace) is in no mask and reads ``UNREACHABLE`` (0xFF), which
    ``diameter`` does not count.
    """

    labels: tuple
    adj: tuple[int, ...]
    at_dist: tuple[tuple[int, ...], ...]
    diameter: int
    connected: bool
    # point masks of the labels (see polar.point_mask); dual polar graphs only
    masks: tuple[int, ...] = field(default=(), repr=False)

    @property
    def num_vertices(self) -> int:
        return len(self.labels)

    def neighbors(self, i: int) -> list[int]:
        return _bits(self.adj[i])

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i, row in enumerate(self.adj) for j in _bits(row >> i + 1 << i + 1)]

    @cached_property
    def dist(self) -> tuple[bytes, ...]:
        return _byte_rows(self.at_dist)


@dataclass(frozen=True)
class HypercubeVertex:
    """A maximal singular sign set of {±1, ..., ±m} as a bitmask.

    Bit i set means -(i+1) is in the set, otherwise +(i+1) is.
    """

    mask: int
    m: int

    def members(self) -> tuple[int, ...]:
        return tuple(
            -(i + 1) if (self.mask >> i) & 1 else i + 1 for i in range(self.m)
        )


# byte i of int.from_bytes(format(mask, f"0{nv}b").encode().translate(_SPREAD))
# is bit i of mask
_SPREAD = bytes.maketrans(b"01", b"\x00\x01")


def _byte_rows(at_dist: Sequence[Sequence[int]]) -> tuple[bytes, ...]:
    """The distance rows of the classes ``at_dist``: byte u of row v is the
    d whose mask ``at_dist[v][d]`` holds u, or UNREACHABLE if none does.

    Each class is spread to one byte per vertex by its binary digits and a
    translation, scaled by its distance and added up, so no Python loop runs
    per entry.
    """
    nv = len(at_dist)
    code = f"0{nv}b"
    full = (1 << nv) - 1

    def spread(mask: int) -> int:
        return int.from_bytes(format(mask, code).encode().translate(_SPREAD), "big")

    rows = []
    for classes in at_dist:
        row = sum(d * spread(mask) for d, mask in enumerate(classes) if d and mask)
        unreached = full & ~reduce(or_, classes, 0)
        if unreached:
            row += UNREACHABLE * spread(unreached)
        rows.append(row.to_bytes(nv, "little"))
    return tuple(rows)


def _bfs_classes(adj: Sequence[int], src: int) -> list[int]:
    """The BFS frontiers from ``src`` over bitmask adjacency: entry d is the
    bitmask of the vertices at distance d."""
    seen = frontier = 1 << src
    classes = []
    while frontier:
        classes.append(frontier)
        nxt = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            nxt |= adj[low.bit_length() - 1]
        frontier = nxt & ~seen
        seen |= frontier
    return classes


def _dense_graph(labels: Sequence, adj: Sequence[int], at_dist: Sequence[Sequence[int]],
                 masks: Sequence[int] = ()) -> DenseGraph:
    """The DenseGraph of the distance classes ``at_dist``: the diameter is
    the largest d with a nonempty class, and every row is cut or padded with
    empty masks to d = 0..diameter.  The graph is connected when a BFS from
    vertex 0 over ``adj`` reaches every vertex."""
    nv = len(adj)
    diameter = max((d for row in at_dist for d, mask in enumerate(row) if mask), default=0)
    at_dist = tuple((tuple(row) + (0,) * diameter)[: diameter + 1] for row in at_dist)
    return DenseGraph(
        labels=tuple(labels),
        adj=tuple(adj),
        at_dist=at_dist,
        diameter=diameter,
        connected=not nv or reduce(or_, _bfs_classes(adj, 0)) == (1 << nv) - 1,
        masks=tuple(masks),
    )


def graph_from_edges(labels: Sequence, edges, require_connected: bool = False) -> DenseGraph:
    nv = len(labels)
    adj = [0] * nv
    for i, j in edges:
        if i == j:
            raise ValueError("self loops are not allowed")
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    graph = _dense_graph(labels, adj, [_bfs_classes(adj, v) for v in range(nv)])
    if require_connected and not graph.connected:
        raise ValueError("graph is unexpectedly disconnected")
    return graph


def hypercube(m: int) -> DenseGraph:
    """The hypercube graph H_m: 2^m sign sets, adjacent when they share m-1 members."""
    if m < 1:
        raise ValueError(f"hypercube dimension must be >= 1, got {m}")
    labels = [HypercubeVertex(mask, m) for mask in range(1 << m)]
    edges = [
        (x, x | (1 << b))
        for x in range(1 << m)
        for b in range(m)
        if not (x >> b) & 1
    ]
    return graph_from_edges(labels, edges, require_connected=True)


def meet_graph(space: PolarSpace, labels: Sequence, masks: Sequence[int]) -> DenseGraph:
    """Maximal singular subspaces with their dual polar distances.

    ``masks[i]`` is the point mask of ``labels[i]``.  Two maximals are at
    distance n - r when their meet has rank r, that is (p^r - 1)/(p - 1)
    points, and adjacency is distance 1.  The meet counts of v with every
    vertex are taken at once: ``through[x]`` is the bitmask of the vertices
    through point x, and the ``through[x]`` of the points x of v are added
    up in binary, one bitmask per bit of the count (bit planes, with a
    ripple carry), so the vertices whose count is a given size are one AND
    per plane.  A count that is no subspace size is in no class.  For a
    subset of the maximals these are the ambient distances, not those of the
    induced subgraph, whose internal paths may be longer.
    """
    n, p = space.n, space.p
    through = [0] * len(space.points)
    for v, mask in enumerate(masks):
        for x in _bits(mask):
            through[x] |= 1 << v
    sizes = [(p ** (n - d) - 1) // (p - 1) for d in range(n + 1)]
    width = max([sizes[0]] + [mask.bit_count() for mask in masks]).bit_length()
    full = (1 << len(masks)) - 1
    at_dist = []
    for mask in masks:
        planes = [0] * width
        for x in _bits(mask):
            carry, b = through[x], 0
            while carry:
                planes[b], carry = planes[b] ^ carry, planes[b] & carry
                b += 1
        at_dist.append([
            reduce(and_, [plane if size >> b & 1 else ~plane for b, plane in enumerate(planes)], full)
            for size in sizes
        ])
    adj = [classes[1] for classes in at_dist]
    return _dense_graph(labels, adj, at_dist, masks)


def dual_polar_graph(space: PolarSpace) -> DenseGraph:
    """Graph on the maximal singular subspaces; adjacency = common hyperplane.

    A maximal is its own perp, so its point mask is the perp of its RREF
    rows, which are normalized points.  Built once per space and kept on it.
    """
    if space._graph_cache is None:
        maximals = polar.enumerate_singular(space, space.n - 1)
        index = space.point_index
        masks = [polar.perp_mask(space, sum(1 << index[row] for row in s.rows)) for s in maximals]
        graph = meet_graph(space, maximals, masks)
        assert graph.connected and graph.diameter == space.n
        space._graph_cache = graph
    return space._graph_cache


def _geodesic_layers(graph: DenseGraph, v: int, w: int) -> list[int]:
    """The geodesic interval of v and w by distance from v: entry i is the
    bitmask ``at_dist[v][i] & at_dist[w][d - i]`` of the vertices on a
    geodesic at distance i from v, for d = d(v, w) and i = 0..d."""
    forward, back = graph.at_dist[v], graph.at_dist[w]
    d = next((d for d, mask in enumerate(forward) if mask >> w & 1), None)
    if d is None:
        raise ValueError(f"vertices {v} and {w} are not connected")
    return [forward[i] & back[d - i] for i in range(d + 1)]


def geodesic_count(graph: DenseGraph, v: int, w: int) -> tuple[int, list[int]]:
    """Number of geodesics from v to w, plus the per-vertex path counts used
    to sample geodesics uniformly: a vertex of layer i counts the paths
    through its neighbors in layer i - 1."""
    layers = _geodesic_layers(graph, v, w)
    counts = [0] * graph.num_vertices
    counts[v] = 1
    for below, layer in zip(layers, layers[1:]):
        for u in _bits(layer):
            counts[u] = sum(counts[t] for t in _bits(graph.adj[u] & below))
    return counts[w], counts


def iter_geodesics(graph: DenseGraph, v: int, w: int) -> Iterator[list[int]]:
    """Every geodesic vertex path from v to w, one at a time, depth first
    with neighbors in index order; v == w yields [v]."""
    layers = _geodesic_layers(graph, v, w)
    path = [v]

    def walk() -> Iterator[list[int]]:
        if len(path) == len(layers):
            yield list(path)
            return
        for t in _bits(graph.adj[path[-1]] & layers[len(path)]):
            path.append(t)
            yield from walk()
            path.pop()

    return walk()


def sample_geodesic(graph: DenseGraph, v: int, w: int, counts: Sequence[int], rng) -> list[int]:
    """One uniform geodesic from v to w, drawn from the ``random.Random``
    ``rng`` by walking back from w with the path counts of
    ``geodesic_count(graph, v, w)``.  At u a step draws r =
    ``rng.randrange(counts[u])`` and takes the first predecessor t, in index
    order, whose running sum of ``counts[t]`` passes r.  ``counts[u]`` is the
    sum of its predecessors' counts, so t is drawn with probability
    ``counts[t] / counts[u]`` exactly, and the products telescope to
    ``1 / counts[w]`` for every geodesic."""
    path = [w]
    for below in _geodesic_layers(graph, v, w)[-2::-1]:
        u = path[-1]
        r = rng.randrange(counts[u])
        for t in _bits(graph.adj[u] & below):
            r -= counts[t]
            if r < 0:
                break
        path.append(t)
    return path[::-1]


def verify_lemma2(m_max: int = 8) -> dict:
    """Check the two hypercube facts behind the embedding analysis.

    For every m <= m_max each vertex of H_m has exactly one vertex at
    distance m; for every m <= min(m_max, 6) and every opposite pair
    (v, w), every vertex u lies on an explicitly constructed geodesic from
    v to w.
    """
    start = time.perf_counter()
    violations: list[dict] = []
    checks = 0
    for m in range(1, m_max + 1):
        graph = hypercube(m)
        nv = graph.num_vertices
        for v in range(nv):
            opposite = _bits(graph.at_dist[v][m])
            checks += 1
            if len(opposite) != 1:
                violations.append({"m": m, "vertex": v, "opposite": opposite})
        if m > 6:
            continue
        for v in range(nv):
            w = v ^ (nv - 1)
            for u in range(nv):
                checks += 1
                path = next(iter_geodesics(graph, v, u)) + next(iter_geodesics(graph, u, w))[1:]
                ok = (
                    len(path) == m + 1
                    and u in path
                    and all(graph.adj[a] >> b & 1 for a, b in zip(path, path[1:]))
                )
                if not ok:
                    violations.append({"m": m, "v": v, "u": u, "w": w, "path": path})
    return make_report(
        "lemma2", {"p": None, "n": None, "m": m_max}, start, {"checks": checks},
        violations=violations, expansions=checks, mode="exhaustive",
    )
