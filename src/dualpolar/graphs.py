"""Dense graphs with precomputed all-pairs distances.

Two families are built here: hypercube graphs on the maximal singular sign
sets of {±1, ..., ±m}, with BFS distances, and dual polar graphs on the
maximal singular subspaces of a polar space, whose distance is n - rank of
the meet, read off the popcount of the AND of two point masks (adjacency =
distance 1, i.e. intersection one step below maximal).  Adjacency is kept
as one int bitmask per vertex and distances as a full matrix, so searches
probe distances in O(1).  A dual polar graph also keeps the point mask of
every vertex, which the verifiers take their meets, containments and perps
from.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from . import polar
from .polar import PolarSpace
from .reporting import make_report

UNREACHABLE = -1


@dataclass(frozen=True, eq=False)
class DenseGraph:
    labels: tuple
    adj: tuple[int, ...]
    dist: tuple[tuple[int, ...], ...]
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
        return [(i, j) for i in range(len(self.labels)) for j in _bits(self.adj[i]) if i < j]


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


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

    def has(self, signed: int) -> bool:
        i = abs(signed) - 1
        return ((self.mask >> i) & 1) == (1 if signed < 0 else 0)


def all_pairs_distances(adj: Sequence[int]) -> tuple[list[list[int]], bool]:
    """BFS from every vertex over bitmask adjacency.

    Returns (matrix, connected); unreachable entries hold UNREACHABLE.
    """
    nv = len(adj)
    dist = []
    connected = True
    for src in range(nv):
        row = [UNREACHABLE] * nv
        row[src] = 0
        seen = 1 << src
        frontier = 1 << src
        d = 0
        while frontier:
            d += 1
            nxt = 0
            f = frontier
            while f:
                low = f & -f
                f ^= low
                nxt |= adj[low.bit_length() - 1]
            nxt &= ~seen
            seen |= nxt
            g = nxt
            while g:
                low = g & -g
                g ^= low
                row[low.bit_length() - 1] = d
            frontier = nxt
        if seen != (1 << nv) - 1:
            connected = False
        dist.append(row)
    return dist, connected


def graph_from_edges(labels: Sequence, edges, require_connected: bool = False) -> DenseGraph:
    nv = len(labels)
    adj = [0] * nv
    for i, j in edges:
        if i == j:
            raise ValueError("self loops are not allowed")
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    dist, connected = all_pairs_distances(adj)
    if require_connected and not connected:
        raise ValueError("graph is unexpectedly disconnected")
    diameter = max(max(row) for row in dist) if nv else 0
    return DenseGraph(
        labels=tuple(labels),
        adj=tuple(adj),
        dist=tuple(tuple(row) for row in dist),
        diameter=diameter,
        connected=connected,
    )


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

    ``masks[i]`` is the point mask of ``labels[i]``; the distance of two
    maximals is n - rank of their meet, read off the popcount of the AND of
    their masks, and adjacency is distance 1.  For a subset of the maximals
    these are the ambient distances, not those of the induced subgraph,
    whose internal paths may be longer.
    """
    n, p = space.n, space.p
    dist_of_count = [UNREACHABLE] * ((p**n - 1) // (p - 1) + 1)
    for r in range(n + 1):
        dist_of_count[(p**r - 1) // (p - 1)] = n - r
    dist = []
    adj = []
    for mi in masks:
        row = tuple([dist_of_count[(mi & mj).bit_count()] for mj in masks])
        dist.append(row)
        adj.append(sum(1 << j for j, d in enumerate(row) if d == 1))
    seen = frontier = 1
    while frontier:
        nxt = 0
        for b in _bits(frontier):
            nxt |= adj[b]
        frontier = nxt & ~seen
        seen |= nxt
    return DenseGraph(
        labels=tuple(labels),
        adj=tuple(adj),
        dist=tuple(dist),
        diameter=max(max(row) for row in dist),
        connected=seen == (1 << len(labels)) - 1,
        masks=tuple(masks),
    )


def dual_polar_graph(space: PolarSpace) -> DenseGraph:
    """Graph on the maximal singular subspaces; adjacency = common hyperplane.

    Built once per space and kept on it.
    """
    if space._graph_cache is None:
        maximals = polar.enumerate_singular(space, space.n - 1)
        graph = meet_graph(space, maximals, [polar.point_mask(space, s) for s in maximals])
        assert graph.connected and graph.diameter == space.n
        space._graph_cache = graph
    return space._graph_cache


def geodesic_count(graph: DenseGraph, v: int, w: int) -> tuple[int, list[int]]:
    """Number of geodesics from v to w, plus the per-vertex path counts used
    to sample geodesics uniformly."""
    dvw = graph.dist[v][w]
    if dvw == UNREACHABLE:
        raise ValueError(f"vertices {v} and {w} are not connected")
    counts = [0] * graph.num_vertices
    counts[v] = 1
    dv = graph.dist[v]
    dw = graph.dist[w]
    interval = [u for u in range(graph.num_vertices) if dv[u] + dw[u] == dvw]
    interval.sort(key=lambda u: dv[u])
    for u in interval:
        if u == v:
            continue
        acc = 0
        du = dv[u]
        for t in _bits(graph.adj[u]):
            if dv[t] == du - 1 and dv[t] + dw[t] == dvw:
                acc += counts[t]
        counts[u] = acc
    return counts[w], counts


def iter_geodesics(graph: DenseGraph, v: int, w: int) -> Iterator[list[int]]:
    """Every geodesic vertex path from v to w, one at a time, depth first
    with neighbors in index order; v == w yields [v]."""
    dvw = graph.dist[v][w]
    if dvw == UNREACHABLE:
        raise ValueError(f"vertices {v} and {w} are not connected")
    dv, dw = graph.dist[v], graph.dist[w]
    path = [v]

    def walk() -> Iterator[list[int]]:
        u = path[-1]
        if u == w:
            yield list(path)
            return
        for t in _bits(graph.adj[u]):
            if dv[t] == dv[u] + 1 and dv[t] + dw[t] == dvw:
                path.append(t)
                yield from walk()
                path.pop()

    return walk()


def sample_geodesic(graph: DenseGraph, v: int, w: int, counts: Sequence[int], rng) -> list[int]:
    """One uniform geodesic from v to w, drawn from ``rng`` by walking back
    from w with the path counts of ``geodesic_count(graph, v, w)``."""
    dv = graph.dist[v]
    path = [w]
    while path[-1] != v:
        u = path[-1]
        preds = [t for t in _bits(graph.adj[u]) if dv[t] == dv[u] - 1 and counts[t] > 0]
        weights = np.array([counts[t] for t in preds], dtype=float)
        path.append(preds[int(rng.choice(len(preds), p=weights / weights.sum()))])
    return path[::-1]


def verify_lemma2(m_max: int = 8, geodesic_m_max: int = 6) -> dict:
    """Check the two hypercube facts behind the embedding analysis.

    For every m <= m_max each vertex of H_m has exactly one vertex at
    distance m; for every m <= geodesic_m_max and every opposite pair
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
            opposite = [w for w in range(nv) if graph.dist[v][w] == m]
            checks += 1
            if len(opposite) != 1:
                violations.append({"m": m, "vertex": v, "opposite": opposite})
        if m > geodesic_m_max:
            continue
        for v in range(nv):
            w = v ^ (nv - 1)
            for u in range(nv):
                checks += 1
                path = next(iter_geodesics(graph, v, u)) + next(iter_geodesics(graph, u, w))[1:]
                ok = (
                    len(path) == m + 1
                    and u in path
                    and all(
                        graph.dist[a][b] == 1 for a, b in zip(path, path[1:])
                    )
                )
                if not ok:
                    violations.append({"m": m, "v": v, "u": u, "w": w, "path": path})
    return make_report(
        "lemma2", {"p": None, "n": None, "m": m_max}, start, {"checks": checks},
        violations=violations, expansions=checks, mode="exhaustive",
    )
