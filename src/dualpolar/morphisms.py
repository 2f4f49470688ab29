"""Isometric embeddings between dual polar graphs of different ranks.

Every such embedding is pinned down by two data: the common base subspace of
the image (extracted from any opposite pair) and the induced point map
sending each point of the source space to the intersection of the images of
the maximal singular subspaces through it.  Conversely a point map landing
one step above a base subspace lifts to a graph embedding by spanning.

The checks run on the point masks the dual polar graphs keep for their
vertices: meet = AND, containment = subset test, and residue collinearity and
spans are read off perps (``polar.perp_mask``).  Subspaces in RREF are only
built for results and violation payloads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import or_

from . import polar
from .apartments import (
    DEFAULT_BUDGET,
    _check_search_args,
    _opposite_base,
    _witness_from_images,
    frame_vertices,
    search_isometric_embeddings,
    search_stats,
)
from .graphs import DenseGraph, _bits, dual_polar_graph
from .linalg import Subspace, rref
from .polar import Point, PolarSpace, mask_rank, perp_mask, point_mask, subspace_of_mask
from .reporting import CounterexampleError, make_report, subspace_json


class LiftError(ValueError):
    """A point map failed to lift: some span is not maximal singular or the
    spanned map is not an isometric embedding."""

    def __init__(self, message: str, details: dict):
        super().__init__(message)
        self.details = details


@dataclass(frozen=True, eq=False)
class GraphEmbedding:
    """Isometric embedding of one dual polar graph into another."""

    src_space: PolarSpace
    dst_space: PolarSpace
    source: DenseGraph
    target: DenseGraph
    assignment: tuple[int, ...]

    def image_of(self, i: int) -> Subspace:
        return self.target.labels[self.assignment[i]]


@dataclass(frozen=True, eq=False)
class InducedPointMap:
    """Point map underlying a graph embedding: each source point goes to an
    element one step above the base subspace of the image."""

    src_space: PolarSpace
    dst_space: PolarSpace
    base: Subspace
    assignment: dict

    def __call__(self, pt: Point) -> Subspace:
        return self.assignment[pt]


@lru_cache(maxsize=1)
def _opposite_pairs(graph: DenseGraph) -> tuple[tuple[int, int], ...]:
    """The pairs (i, j), i < j, of vertices at the diameter.  A verifier asks
    for one source graph's per embedding; older graphs are not kept alive."""
    return tuple(
        (i, j)
        for i in range(graph.num_vertices)
        for j in range(i + 1, graph.num_vertices)
        if graph.dist[i][j] == graph.diameter
    )


def _members(graph: DenseGraph) -> list[list[int]]:
    """Point indices of each vertex of a dual polar graph."""
    return [_bits(mask) for mask in graph.masks]


def _image_masks(emb: GraphEmbedding) -> list[int]:
    masks = emb.target.masks
    return [masks[a] for a in emb.assignment]


# -- search -------------------------------------------------------------------


def search_dualpolar_embeddings(
    src_space: PolarSpace,
    dst_space: PolarSpace,
    mode: str = "exhaustive",
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    workers: int = 1,
    *,
    visit,
) -> tuple[None, dict]:
    """Backtracking search for isometric embeddings between dual polar graphs,
    each passed to ``visit`` as a ``GraphEmbedding`` as soon as it is found;
    returns (None, stats) as ``search_isometric_embeddings`` does.

    A source of larger diameter admits none, and that case returns as soon
    as its arguments are checked.
    """
    _check_search_args(mode, budget)
    if src_space.n > dst_space.n:
        return None, search_stats(mode, budget, seed, workers)
    src, dst = dual_polar_graph(src_space), dual_polar_graph(dst_space)
    return search_isometric_embeddings(
        src, dst, mode, budget, seed, workers,
        visit=lambda assignment, new: visit(
            GraphEmbedding(src_space, dst_space, src, dst, assignment)
        ),
    )


# -- decomposition ------------------------------------------------------------


def verify_lemma5(emb: GraphEmbedding) -> Subspace:
    """The base subspace shared by the whole image of a graph embedding.

    The meet of the images of the opposite source pairs, checked by
    ``_opposite_base`` (as ``theorem2`` checks its antipodal pairs) to have
    projective dimension n' - n - 1 and to be independent of the pair;
    failures raise CounterexampleError.  Every vertex of a dual polar graph
    has an opposite vertex, so the pair check already puts the base in every
    image.
    """
    space = emb.dst_space
    base = _opposite_base(
        space, _image_masks(emb), _opposite_pairs(emb.source), space.n - emb.src_space.n, "lemma5"
    )
    return subspace_of_mask(space, base)


def _point_images(
    emb: GraphEmbedding, members: list[list[int]], perp_of: dict[int, int]
) -> tuple[int, list[int], list[int]]:
    """Masks of the base and of every g(p), in ``src_space.points`` order, and
    the perp of every g(p); the checks are those of ``induced_point_map``.
    ``members`` lists the point indices of each source vertex
    (``_members(emb.source)``) and ``perp_of`` maps masks to their perps:
    pass one of each through a verifier call, since every embedding has the
    same source and the g(p) of different embeddings repeat.

    Once each g(p) lies one step above the base B and g is injective, g spans
    the image W of every maximal M over B, so that is not checked again: each
    g(p) with p in M lies in W, and W/B has rank n, so the (p^n - 1)/(p - 1)
    points of M go to as many distinct elements one step above B in W, which
    are all of them.
    """
    space = emb.dst_space
    rank = space.n - emb.src_space.n + 1
    imgs = _image_masks(emb)
    i0, j0 = _opposite_pairs(emb.source)[0]
    base = imgs[i0] & imgs[j0]
    g = [(1 << len(space.points)) - 1] * len(emb.src_space.points)
    for pts, img in zip(members, imgs):
        for p in pts:
            g[p] &= img
    for p, gp in enumerate(g):
        if mask_rank(space, gp) != rank or base & ~gp:
            raise CounterexampleError(
                "theorem3",
                {"kind": "point_image_defect", "point": list(emb.src_space.points[p]),
                 "got": subspace_json(subspace_of_mask(space, gp))},
            )
    if len(set(g)) != len(g):
        raise CounterexampleError("theorem3", {"kind": "point_map_not_injective"})
    perps = []
    for gp in g:
        perp = perp_of.get(gp)
        if perp is None:
            perp = perp_of[gp] = perp_mask(space, gp)
        perps.append(perp)
    return base, g, perps


def induced_point_map(emb: GraphEmbedding) -> InducedPointMap:
    """Recover the point map: g(p) is the intersection of the images of all
    maximal singular subspaces containing p.

    Validates that every g(p) lies one step above the base and that g is
    injective, which makes g span the image of every maximal singular
    subspace (see ``_point_images``); failures raise CounterexampleError.
    """
    space = emb.dst_space
    base, g, _ = _point_images(emb, _members(emb.source), {})
    assignment = {pt: subspace_of_mask(space, gp) for pt, gp in zip(emb.src_space.points, g)}
    return InducedPointMap(emb.src_space, space, subspace_of_mask(space, base), assignment)


def _frame_index_lists(space: PolarSpace, frames) -> list[tuple[list[int], tuple[int, ...]]]:
    return [
        ([space.point_index[pt] for pt in f.points], f.sigma) for f in frames
    ]


def _off_pattern(rc_masks: list[int], frames_idx) -> list[list[int]]:
    """Point indices of the frames whose points are not pairwise collinear,
    in ``rc_masks``, exactly off the partner involution."""
    out = []
    for idx, sigma in frames_idx:
        ok = True
        for a in range(len(idx)):
            mask = rc_masks[idx[a]]
            for b in range(a + 1, len(idx)):
                if (mask >> idx[b] & 1) != (b != sigma[a]):
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            out.append(idx)
    return out


def _residue_collinear_masks(g: list[int], perps: list[int]) -> list[int]:
    """Bit j of entry i: are the point images ``g[i]`` and ``g[j]`` (with
    perps ``perps``) residue-collinear over their base.

    Two images over the base are residue-collinear exactly when their span is
    singular, i.e. when one lies in the perp of the other.
    """
    rc_masks = [0] * len(g)
    for i in range(len(g)):
        for j in range(i + 1, len(g)):
            if not g[j] & ~perps[i]:
                rc_masks[i] |= 1 << j
                rc_masks[j] |= 1 << i
    return rc_masks


def _frame_violations(
    space: PolarSpace, g: list[int], perps: list[int], frames_idx
) -> list[dict]:
    """Frames of ``space`` whose point images (masks ``g`` with perps
    ``perps``) break the residue-frame collinearity pattern; ``frames_idx``
    must hold frames of ``space``.

    A frame's points are collinear exactly off its partners, so when the
    images are residue-collinear exactly where the points are collinear, no
    frame breaks.
    """
    rc_masks = _residue_collinear_masks(g, perps)
    if rc_masks == space.collinear_masks():
        return []
    return [
        {"statement": "frames_preserving", "frame": [list(space.points[i]) for i in idx]}
        for idx in _off_pattern(rc_masks, frames_idx)
    ]


def check_frames_preserving(
    pm: InducedPointMap,
    frames=None,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
) -> dict:
    """Check that the point map carries frames to residue frames over its base.

    Source frames are enumerated exhaustively when the budget allows,
    otherwise 200 seeded samples are used (at most as many as the space
    has) and the report is marked incomplete; for each frame the images must be
    residue-collinear exactly off the partner involution.  Given ``frames``
    must be frames of the source space, or ValueError is raised.  The report
    carries ``seed`` only when frames were sampled.
    """
    start = time.perf_counter()
    complete = True
    if frames is None:
        frames, complete = polar.enumerate_frames(pm.src_space, budget=budget)
        if not complete:
            count = min(200, polar.frame_count(pm.src_space))
            frames = polar.sample_frames(pm.src_space, count, seed)
    elif _off_pattern(pm.src_space.collinear_masks(), _frame_index_lists(pm.src_space, frames)):
        raise ValueError("frames must be frames of the source space")
    g = [point_mask(pm.dst_space, pm.assignment[pt]) for pt in pm.src_space.points]
    perps = [perp_mask(pm.dst_space, gp) for gp in g]
    violations = _frame_violations(
        pm.src_space, g, perps, _frame_index_lists(pm.src_space, frames)
    )
    return make_report(
        "frames_preserving",
        {"p": pm.src_space.p, "n": pm.src_space.n, "m": None, "n_prime": pm.dst_space.n},
        start, {"frames": len(frames)}, violations=violations, complete=complete,
        expansions=len(frames), mode="exhaustive" if complete else "sample",
        budget=budget, seed=None if complete else seed,
    )


def lift_frame_preserving_map(
    src_space: PolarSpace,
    dst_space: PolarSpace,
    base: Subspace,
    point_map: dict,
) -> GraphEmbedding:
    """Lift a point map landing one step above ``base`` to a graph embedding.

    Each maximal singular subspace is sent to the span of the images of its
    points; a non-singular span, a dimension defect, or a failed distance
    check raises LiftError naming the offending subspace.
    """
    if base.rank != dst_space.n - src_space.n:
        raise LiftError(
            "base subspace has the wrong dimension",
            {"expected_rank": dst_space.n - src_space.n, "base": subspace_json(base)},
        )
    src = dual_polar_graph(src_space)
    dst = dual_polar_graph(dst_space)
    vertex_of = {mask: v for v, mask in enumerate(dst.masks)}
    base_mask = point_mask(dst_space, base)
    g = [point_mask(dst_space, point_map[pt]) for pt in src_space.points]
    assignment = []
    for v, members in enumerate(src.masks):
        points = reduce(or_, (g[p] for p in _bits(members)), base_mask)
        # the span S is maximal singular exactly when it is its own perp:
        # then S lies in perp(S), and perp(S) has rank n'
        perp = perp_mask(dst_space, points)
        if points & ~perp or mask_rank(dst_space, perp) != dst_space.n:
            raise LiftError(
                "span of point images is not maximal singular",
                {"source": subspace_json(src.labels[v]),
                 "span": subspace_json(subspace_of_mask(dst_space, points))},
            )
        assignment.append(vertex_of[perp])
    if len(set(assignment)) != len(assignment):
        raise LiftError("lifted map is not injective", {})
    for i in range(len(assignment)):
        for j in range(i + 1, len(assignment)):
            d = dst.dist[assignment[i]][assignment[j]]
            if d != src.dist[i][j]:
                raise LiftError(
                    "lifted map does not preserve distances",
                    {"pair": [i, j], "expected": src.dist[i][j], "got": d},
                )
    return GraphEmbedding(src_space, dst_space, src, dst, tuple(assignment))


def shifted_point_injection(
    src_space: PolarSpace, dst_space: PolarSpace
) -> tuple[Subspace, dict]:
    """Deterministic frame-preserving fixture between symplectic spaces.

    Hyperbolic pair i of the source goes to pair i + (n' - n) of the target
    and the base is spanned by the first coordinates of the skipped pairs;
    each point p maps to the span of the base and the shifted p.
    """
    if src_space.p != dst_space.p:
        raise ValueError("spaces must share the same prime")
    gap = dst_space.n - src_space.n
    if gap < 0:
        raise ValueError("target rank must be at least the source rank")
    field = dst_space.field
    units = [
        tuple(1 if t == 2 * i else 0 for t in range(dst_space.dim)) for i in range(gap)
    ]
    base = rref(field, units, dst_space.dim)
    shift = 2 * gap

    def iota(v: Point) -> tuple[int, ...]:
        return (0,) * shift + tuple(v)

    point_map = {
        pt: rref(field, base.rows + (iota(pt),), dst_space.dim)
        for pt in src_space.points
    }
    return base, point_map


# -- statement verifiers --------------------------------------------------------


def _pair_instance(src_space: PolarSpace, dst_space: PolarSpace) -> dict:
    return {"p": src_space.p, "n": src_space.n, "m": None,
            "p_prime": dst_space.p, "n_prime": dst_space.n}


def verify_lemma5_bulk(
    src_space: PolarSpace,
    dst_space: PolarSpace,
    mode: str = "sample",
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    workers: int = 1,
) -> dict:
    """Search for graph embeddings and extract the base subspace of each.

    Only the base-subspace postconditions are checked (dimension, opposite-
    pair independence, containment in every image).
    """
    start = time.perf_counter()
    violations: list[dict] = []

    def check(emb: GraphEmbedding) -> None:
        try:
            verify_lemma5(emb)
        except CounterexampleError as exc:
            violations.append(exc.as_violation())

    _, stats = search_dualpolar_embeddings(
        src_space, dst_space, mode, budget, seed, workers, visit=check
    )
    return make_report(
        "lemma5", _pair_instance(src_space, dst_space), start, {},
        violations=violations, search=stats,
    )


def verify_theorem3(
    src_space: PolarSpace,
    dst_space: PolarSpace,
    mode: str = "sample",
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    workers: int = 1,
) -> dict:
    """Search for graph embeddings and validate the induced-point-map picture.

    Every found embedding must yield a base subspace (pair-independent, in
    every image), an induced point map spanning back to the embedding, and a
    frames-to-residue-frames point map.  For the first 50 embeddings, the
    first two frame apartments are also pushed through the embedding and decomposed, in the
    sign-mask labelling they come with, as apartments over the same base.
    """
    start = time.perf_counter()
    frames_src, frames_complete = polar.enumerate_frames(src_space, budget=10**6)
    if not frames_complete:
        frames_src = polar.sample_frames(src_space, 100, seed)
    frames_idx = _frame_index_lists(src_space, frames_src)
    src = dual_polar_graph(src_space)
    apartment = frame_vertices(src_space, src)
    pushed = [(frame, apartment(frame)) for frame in frames_src[:2]]
    members = _members(src)
    violations: list[dict] = []
    perp_of: dict[int, int] = {}
    visited = checked_apartments = 0

    def check(emb: GraphEmbedding) -> None:
        nonlocal visited, checked_apartments
        first = visited < 50
        visited += 1
        try:
            verify_lemma5(emb)
            base, g, perps = _point_images(emb, members, perp_of)
            violations.extend(_frame_violations(src_space, g, perps, frames_idx))
            if first:
                for frame, vertices in pushed:
                    # the members come by sign mask, so the pushed members
                    # already carry a hypercube labelling
                    masks = [emb.target.masks[emb.assignment[v]] for v in vertices]
                    checked_apartments += 1
                    try:
                        transferred = _witness_from_images(dst_space, masks)[0] == base
                    except CounterexampleError:
                        transferred = False
                    if not transferred:
                        raise CounterexampleError(
                            "theorem3",
                            {"kind": "apartment_transfer_failure",
                             "frame": [list(pt) for pt in frame.points]},
                        )
        except CounterexampleError as exc:
            violations.append(exc.as_violation())

    _, stats = search_dualpolar_embeddings(
        src_space, dst_space, mode, budget, seed, workers, visit=check
    )
    return make_report(
        "theorem3", _pair_instance(src_space, dst_space), start,
        {"frames_checked": len(frames_src), "apartments_checked": checked_apartments},
        violations=violations, search=stats,
    )


def verify_chow(
    space: PolarSpace,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
) -> dict:
    """Exhaustively match the self-embeddings of a dual polar graph with the
    collineations of its polar space: the induced point map of every
    embedding found must preserve collinearity both ways, and a violation
    names the first pair (i, j), i < j, of point indices that it breaks.

    Nothing else can fail, so nothing else is checked.  An isometric
    embedding is injective, and its source and target are the same finite
    graph, so it is a bijection.  Opposite images in the rank-n target meet
    in 0, so the base is empty, and ``_point_images`` has required each g(p)
    to be a single point and g to be injective: g permutes the points.  Over
    an empty base, residue collinearity is collinearity, and a frame is
    defined by the collinearity of its points, so once each pair of points
    is checked no frame can break; the frames are only counted, for the
    count and completeness the report gives.
    """
    start = time.perf_counter()
    frames = 0

    def count_frame(frame: polar.Frame) -> None:
        nonlocal frames
        frames += 1

    _, frames_complete = polar.enumerate_frames(space, budget=10**6, visit=count_frame)
    masks = space.collinear_masks()
    members = _members(dual_polar_graph(space))
    violations: list[dict] = []
    perp_of: dict[int, int] = {}

    def check(emb: GraphEmbedding) -> None:
        try:
            _, g, perps = _point_images(emb, members, perp_of)
            for i, (got, want) in enumerate(zip(_residue_collinear_masks(g, perps), masks)):
                later = (got ^ want) >> (i + 1)
                if later:
                    j = i + (later & -later).bit_length()
                    raise CounterexampleError(
                        "chow", {"kind": "collinearity_not_preserved", "pair": [i, j]}
                    )
        except CounterexampleError as exc:
            violations.append(exc.as_violation())

    _, stats = search_dualpolar_embeddings(
        space, space, "exhaustive", budget, workers=workers, visit=check
    )
    return make_report(
        "chow", {"p": space.p, "n": space.n, "m": None}, start, {"frames_checked": frames},
        violations=violations, complete=frames_complete, search=stats,
    )
