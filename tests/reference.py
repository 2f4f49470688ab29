"""Subspace arithmetic on RREF bases, kept as the independent reference that
the point-mask code of ``dualpolar`` is tested against.

Meets come from the Zassenhaus block construction, joins and containments
from row reduction, and frames, frame apartments and the hypercube witness
from those, as the package computed them before it moved to point masks.
Isometry of a vertex map is checked pair by pair, and ``collect`` keeps what
an embedding search streams to its visitor.  Geodesic path counts and
uniform geodesic draws scan every vertex's byte distances for the interval,
as the package did before it walked the distance classes.
``reference_search`` is the embedding search with a distance test per
candidate and, in sample mode, the stdlib's ``random.Random.shuffle`` of
the surviving candidates.
"""

import random
from bisect import bisect_right
from functools import reduce
from itertools import accumulate
from typing import Sequence

from dualpolar.apartments import _source_plan, search_stats
from dualpolar.linalg import GF, Subspace, rref, zero_subspace
from dualpolar.polar import (
    Frame,
    PolarSpace,
    enumerate_singular,
    form_value,
    is_singular,
    perp_subspace,
    points_in_subspace,
)
from dualpolar.reporting import CounterexampleError, subspace_json

# -- linear algebra -------------------------------------------------------------


def _check_ambient(a: Subspace, b: Subspace) -> None:
    if a.width != b.width:
        raise ValueError(f"ambient mismatch: {a.width} != {b.width}")


def sum_span(field: GF, a: Subspace, b: Subspace) -> Subspace:
    """RREF basis of a + b."""
    _check_ambient(a, b)
    return rref(field, a.rows + b.rows, a.width)


def intersect(field: GF, a: Subspace, b: Subspace) -> Subspace:
    """RREF basis of a ∩ b, via the Zassenhaus block construction."""
    _check_ambient(a, b)
    w = a.width
    if a.rank == 0 or b.rank == 0:
        return zero_subspace(w)
    zeros = (0,) * w
    block = [row + row for row in a.rows] + [row + zeros for row in b.rows]
    red = rref(field, block, 2 * w)
    meet = [row[w:] for row in red.rows if not any(row[:w])]
    return rref(field, meet, w)


def reduce_vector(field: GF, sub: Subspace, v: Sequence[int]) -> tuple[int, ...]:
    """Residual of v after elimination against the RREF rows of ``sub``."""
    if len(v) != sub.width:
        raise ValueError(f"vector length {len(v)} != ambient width {sub.width}")
    p = field.p
    vec = [x % p for x in v]
    for row in sub.rows:
        lead = next(j for j, x in enumerate(row) if x)
        coeff = vec[lead]
        if coeff:
            vec = [(x - coeff * y) % p for x, y in zip(vec, row)]
    return tuple(vec)


def contains(field: GF, sub: Subspace, v: Sequence[int]) -> bool:
    """True iff v lies in the row space of ``sub``."""
    return not any(reduce_vector(field, sub, v))


def contains_subspace(field: GF, outer: Subspace, inner: Subspace) -> bool:
    _check_ambient(outer, inner)
    return all(contains(field, outer, row) for row in inner.rows)


# -- graph embeddings -------------------------------------------------------------


def is_isometric_embedding(mapping: Sequence[int], src, dst) -> bool:
    """True iff ``mapping`` (the target vertex of each source vertex) is
    injective and preserves every pairwise distance."""
    arr = list(mapping)
    if len(arr) != src.num_vertices or len(set(arr)) != len(arr):
        return False
    return all(
        dst.dist[arr[i]][arr[j]] == src.dist[i][j]
        for i in range(len(arr))
        for j in range(i + 1, len(arr))
    )


def collect(search, *args, **kwargs) -> tuple[list, dict]:
    """(first argument of every visitor call, in order; stats) of an embedding
    search: the assignments of ``search_isometric_embeddings``, the
    GraphEmbeddings of ``search_dualpolar_embeddings``."""
    found: list = []
    _, stats = search(*args, visit=lambda first, *rest: found.append(first), **kwargs)
    return found, stats


# -- geodesics, by scanning the distance rows ----------------------------------------


def geodesic_counts(graph, v: int, w: int) -> list[int]:
    """For each vertex u, the number of geodesics from v to u that extend to
    geodesics from v to w (0 off the interval d(v, u) + d(u, w) = d(v, w))."""
    nv, dv, dw = graph.num_vertices, graph.dist[v], graph.dist[w]
    interval = sorted((u for u in range(nv) if dv[u] + dw[u] == dv[w]), key=dv.__getitem__)
    counts = [0] * nv
    counts[v] = 1
    for u in interval[1:]:
        counts[u] = sum(counts[t] for t in interval if dv[t] == dv[u] - 1 and graph.adj[u] >> t & 1)
    return counts


def sample_geodesic(graph, v: int, w: int, counts: Sequence[int], rng) -> list[int]:
    """One geodesic from v to w, walked back from w: at u each step draws
    r = ``rng.randrange(counts[u])`` of a ``random.Random`` and takes the
    first of the neighbors one closer to v that lie on the interval, in
    index order, whose cumulative count exceeds r."""
    dv = graph.dist[v]
    path = [w]
    while path[-1] != v:
        u = path[-1]
        preds = [t for t in range(graph.num_vertices)
                 if graph.adj[u] >> t & 1 and dv[t] == dv[u] - 1 and counts[t] > 0]
        r = rng.randrange(counts[u])
        path.append(preds[bisect_right(list(accumulate(counts[t] for t in preds)), r)])
    return path[::-1]


# -- the embedding search, candidate by candidate ----------------------------------


def _reference_branch(dst_nbrs, dst_dist, plan, nsrc, root_img, budget, rng):
    """One root branch: (image tuples in plan order, expansions, complete).
    Every neighbor of the parent is tested against every placed vertex's
    distance.  With an ``rng``, a node shuffles its two or more surviving
    candidates with ``random.Random.shuffle``, unless they are the last
    level's and the budget left places them all."""
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
        cands = [cand for cand in dst_nbrs[imgs[parent]]
                 if all(dst_dist[cand][imgs[j]] == d for j, d in reqs)]
        fits = k == nsrc - 1 and len(cands) <= budget - state["expansions"]
        if rng is not None and not fits:
            rng.shuffle(cands)
        for cand in cands:
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
    """``search_isometric_embeddings`` over ``_reference_branch``, root r's
    ``random.Random`` seeded with the r-th 64-bit draw of
    ``random.Random(seed)``: (visits, stats), the visits being the
    (assignment, new) pairs the search streams, in order."""
    order, plan = _source_plan(src)
    nsrc, nv = src.num_vertices, dst.num_vertices
    nbrs = [dst.neighbors(v) for v in range(nv)]
    shares = [budget // nv + (1 if i < budget % nv else 0) for i in range(nv)]
    if mode == "sample":
        seeds = random.Random(seed)
        rngs = [random.Random(seeds.getrandbits(64)) for _ in range(nv)]
    else:
        rngs = [None] * nv
    visits, images, expansions, complete = [], set(), 0, True
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
            image = frozenset(imgs)
            visits.append((tuple(assignment), image not in images))
            images.add(image)
    stats = search_stats(mode, budget, seed, 1, len(visits), len(images), expansions, complete)
    return visits, stats


# -- polar geometry ---------------------------------------------------------------


def collinear_masks(space: PolarSpace) -> list[int]:
    """``PolarSpace.collinear_masks`` pair by pair: bit j of entry i is set
    when points i and j are distinct and the form vanishes on (i, j)."""
    pts = space.points
    return [
        sum(1 << j for j, y in enumerate(pts) if j != i and form_value(space, x, y) == 0)
        for i, x in enumerate(pts)
    ]


def residue_collinear(space: PolarSpace, base: Subspace, a: Subspace, b: Subspace) -> bool:
    """Collinearity in the residue geometry on the subspaces one step above base.

    Both arguments must contain ``base`` and have projective dimension
    projdim(base) + 1; they are collinear exactly when their span is singular
    (of projective dimension projdim(base) + 2).
    """
    if a == b:
        raise ValueError("residue collinearity is defined for distinct elements")
    if a.rank != base.rank + 1 or b.rank != base.rank + 1:
        raise ValueError("arguments must lie one step above the base subspace")
    for side in (a, b):
        if not all(contains(space.field, side, row) for row in base.rows):
            raise ValueError("arguments must contain the base subspace")
    return is_singular(space, sum_span(space.field, a, b))


def enumerate_frames(space: PolarSpace, budget: int = 10**7) -> tuple[list[Frame], bool]:
    """All frames, by backtracking over hyperbolic pairs with increasing
    anchors inside the perp of the chosen points, one rref and one point
    sweep per node; returns (frames, complete)."""
    field = space.field
    pts = space.points
    frames: list[Frame] = []
    nodes = 0
    exhausted = False

    def descend(chosen: list[int], cands: list[int], last_anchor: int) -> None:
        nonlocal nodes, exhausted
        if exhausted:
            return
        if len(chosen) == 2 * space.n:
            points = sorted(pts[i] for i in chosen)
            sigma = [
                next(j for j, q in enumerate(points) if form_value(space, pt, q))
                for pt in points
            ]
            frames.append(Frame(tuple(points), tuple(sigma)))
            return
        for ai, a in enumerate(cands):
            if a <= last_anchor:
                continue
            for b in cands[ai + 1 :]:
                if form_value(space, pts[a], pts[b]) == 0:
                    continue
                nodes += 1
                if nodes > budget:
                    exhausted = True
                    return
                nxt = chosen + [a, b]
                if len(nxt) == 2 * space.n:
                    descend(nxt, [], a)
                else:
                    w = perp_subspace(space, rref(field, [pts[i] for i in nxt], space.dim))
                    sub_cands = sorted(space.point_index[q] for q in points_in_subspace(space, w))
                    descend(nxt, sub_cands, a)
                if exhausted:
                    return

    descend([], list(range(len(pts))), -1)
    return frames, not exhausted


def apartment_of_frame(space: PolarSpace, frame: Frame) -> tuple[Subspace, ...]:
    """The 2^n maximals spanned by one point per sigma pair, by sign mask."""
    pairs = frame.pairs()
    members = []
    for mask in range(1 << space.n):
        sel = [frame.points[pair[(mask >> k) & 1]] for k, pair in enumerate(pairs)]
        sub = rref(space.field, sel, space.dim)
        assert sub.rank == space.n and is_singular(space, sub)
        members.append(sub)
    assert len(set(members)) == 1 << space.n
    return tuple(members)


# -- the hypercube witness ----------------------------------------------------------


def base_from_images(
    space: PolarSpace, images: Sequence[Subspace], pairs: Sequence[tuple[int, int]], rank: int,
    statement: str,
) -> Subspace:
    """The base of an image given by its members, the meet of each of their
    opposite ``pairs``, with every check the decomposition and lemma5 have
    ever made."""
    field = space.field
    i0, j0 = pairs[0]
    base = intersect(field, images[i0], images[j0])
    if base.rank != rank:
        raise CounterexampleError(
            statement, {"kind": "base_dimension", "expected_rank": rank, "got": subspace_json(base)}
        )
    for i, j in pairs:
        other = intersect(field, images[i], images[j])
        if other != base:
            raise CounterexampleError(
                statement,
                {"kind": "base_depends_on_opposite_pair", "pair": [i, j], "other": subspace_json(other)},
            )
    for index, img in enumerate(images):
        if not contains_subspace(field, img, base):
            raise CounterexampleError(statement, {"kind": "image_missing_base", "member": index})
    everything = reduce(lambda a, b: intersect(field, a, b), images)
    if everything != base:
        raise CounterexampleError(
            statement, {"kind": "total_intersection_differs", "total": subspace_json(everything)}
        )
    return base


def witness_from_images(
    space: PolarSpace, images: Sequence[Subspace]
) -> tuple[Subspace, tuple[Subspace, ...]]:
    """(base, residue frame) of a labelled hypercube of maximals indexed by
    sign mask; a failed check raises CounterexampleError."""
    field = space.field
    full = len(images) - 1
    m = full.bit_length()
    pairs = [(x, x ^ full) for x in range(len(images) // 2)]
    base = base_from_images(space, images, pairs, space.n - m, "theorem2")
    qs: list[Subspace] = []
    for s in range(2 * m):
        bit = s % m
        want = 1 if s >= m else 0
        face = [img for mask, img in enumerate(images) if (mask >> bit) & 1 == want]
        q = reduce(lambda a, b: intersect(field, a, b), face)
        if q.rank != space.n - m + 1 or not contains_subspace(field, q, base):
            raise CounterexampleError(
                "theorem2",
                {"kind": "face_intersection_defect", "signed_index": s, "got": subspace_json(q)},
            )
        qs.append(q)
    if len(set(qs)) != 2 * m:
        raise CounterexampleError("theorem2", {"kind": "face_subspaces_collide"})
    for s in range(2 * m):
        for t in range(s + 1, 2 * m):
            expected = t != (s + m) % (2 * m)
            if residue_collinear(space, base, qs[s], qs[t]) != expected:
                raise CounterexampleError(
                    "theorem2",
                    {"kind": "residue_frame_condition", "pair": [s, t], "expected": expected},
                )
    for mask, img in enumerate(images):
        chosen = [qs[i + m if (mask >> i) & 1 else i] for i in range(m)]
        span = reduce(lambda a, b: sum_span(field, a, b), chosen)
        if span != img:
            raise CounterexampleError(
                "theorem2",
                {"kind": "image_not_spanned_by_faces", "mask": mask, "span": subspace_json(span)},
            )
        for s in range(2 * m):
            selected = ((mask >> (s % m)) & 1) == (1 if s >= m else 0)
            if contains_subspace(field, img, qs[s]) != selected:
                raise CounterexampleError(
                    "theorem2",
                    {"kind": "membership_equivalence", "mask": mask, "signed_index": s},
                )
    return base, tuple(qs)


# -- the spanning lift ------------------------------------------------------------


def lift_images(src_space: PolarSpace, dst_space: PolarSpace, base: Subspace, point_map: dict):
    """The span over ``base`` of the point images of every maximal of
    ``src_space``, in vertex order, or (source, span) of the first span that
    is not maximal singular."""
    field = dst_space.field
    images = []
    for sub in enumerate_singular(src_space, src_space.n - 1):
        span = reduce(
            lambda a, b: sum_span(field, a, b),
            (point_map[pt] for pt in points_in_subspace(src_space, sub)),
            base,
        )
        if span.rank != dst_space.n or not is_singular(dst_space, span):
            return sub, span
        images.append(span)
    return images
