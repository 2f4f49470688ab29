"""Isometric embeddings between dual polar graphs of different ranks.

Every such embedding is pinned down by two data: the common base subspace of
the image (extracted from any opposite pair) and the induced point map
sending each point of the source space to the intersection of the images of
the maximal singular subspaces through it.  Conversely a point map landing
one step above a base subspace lifts to a graph embedding by spanning.

Bulk validation memoizes meets, joins and residue collinearity globally;
the operands come from the small fixed pool of singular subspaces of the
spaces involved, so the caches stay desk-sized.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache, reduce

from . import polar
from .apartments import DEFAULT_BUDGET, _witness_from_images, search_isometric_embeddings
from .graphs import DenseGraph, dual_polar_graph
from .linalg import Subspace, contains_subspace, intersect, rref, sum_span
from .polar import Point, PolarSpace, residue_collinear
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

    def image_indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.assignment))

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


# -- memoized subspace arithmetic ---------------------------------------------

_meet_cache: dict = {}
_join_cache: dict = {}
_rc_cache: dict = {}
_contains_cache: dict = {}


def _meet(field, a: Subspace, b: Subspace) -> Subspace:
    if a.rows > b.rows:
        a, b = b, a
    key = (field.p, a, b)
    hit = _meet_cache.get(key)
    if hit is None:
        hit = _meet_cache[key] = intersect(field, a, b)
    return hit


def _join(field, a: Subspace, b: Subspace) -> Subspace:
    if a.rows > b.rows:
        a, b = b, a
    key = (field.p, a, b)
    hit = _join_cache.get(key)
    if hit is None:
        hit = _join_cache[key] = sum_span(field, a, b)
    return hit


def _rc(space: PolarSpace, base: Subspace, a: Subspace, b: Subspace) -> bool:
    if a.rows > b.rows:
        a, b = b, a
    key = (space.p, base, a, b)
    hit = _rc_cache.get(key)
    if hit is None:
        hit = _rc_cache[key] = residue_collinear(space, base, a, b)
    return hit


def _covers(field, outer: Subspace, inner: Subspace) -> bool:
    key = (field.p, outer, inner)
    hit = _contains_cache.get(key)
    if hit is None:
        hit = _contains_cache[key] = contains_subspace(field, outer, inner)
    return hit


@lru_cache(maxsize=None)
def _points_of(space: PolarSpace, sub: Subspace) -> tuple[Point, ...]:
    return tuple(polar.points_in_subspace(space, sub))


@lru_cache(maxsize=None)
def _opposite_pairs(graph: DenseGraph) -> tuple[tuple[int, int], ...]:
    return tuple(
        (i, j)
        for i in range(graph.num_vertices)
        for j in range(i + 1, graph.num_vertices)
        if graph.dist[i][j] == graph.diameter
    )


@lru_cache(maxsize=None)
def _stars_of_points(space: PolarSpace) -> dict:
    """Indices (into the dual polar graph labels) of the maximal singular
    subspaces through each point."""
    graph = dual_polar_graph(space)
    out: dict[Point, list[int]] = {pt: [] for pt in space.points}
    for i, sub in enumerate(graph.labels):
        for pt in _points_of(space, sub):
            out[pt].append(i)
    return out


# -- search -------------------------------------------------------------------


def search_dualpolar_embeddings(
    src_space: PolarSpace,
    dst_space: PolarSpace,
    mode: str = "exhaustive",
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    workers: int = 1,
) -> tuple[list[GraphEmbedding], dict]:
    """Backtracking search for isometric embeddings between dual polar graphs.

    A source of larger diameter admits none, and that case returns empty
    immediately.
    """
    src = dual_polar_graph(src_space)
    if src_space.n > dst_space.n:
        stats = {
            "mode": mode,
            "budget": budget,
            "seed": seed,
            "workers": workers,
            "expansions": 0,
            "complete": True,
            "embeddings": 0,
            "distinct_images": 0,
        }
        return [], stats
    dst = dual_polar_graph(dst_space)
    found, stats = search_isometric_embeddings(src, dst, mode, budget, seed, workers)
    wrapped = [
        GraphEmbedding(src_space, dst_space, src, dst, emb.assignment) for emb in found
    ]
    return wrapped, stats


# -- decomposition ------------------------------------------------------------


def verify_lemma5(emb: GraphEmbedding) -> Subspace:
    """The base subspace shared by the whole image of a graph embedding.

    Computed from one opposite source pair and checked to have projective
    dimension n' - n - 1, to be independent of the pair, and to lie in every
    image; failures raise CounterexampleError.
    """
    field = emb.dst_space.field
    n, n_prime = emb.src_space.n, emb.dst_space.n
    pairs = _opposite_pairs(emb.source)
    i0, j0 = pairs[0]
    base = _meet(field, emb.image_of(i0), emb.image_of(j0))
    if base.rank != n_prime - n:
        raise CounterexampleError(
            "lemma5",
            {"kind": "base_dimension", "expected_rank": n_prime - n, "got": subspace_json(base)},
        )
    for i, j in pairs[1:]:
        other = _meet(field, emb.image_of(i), emb.image_of(j))
        if other != base:
            raise CounterexampleError(
                "lemma5",
                {"kind": "base_depends_on_opposite_pair", "pair": [i, j], "other": subspace_json(other)},
            )
    for v in range(emb.source.num_vertices):
        if not _covers(field, emb.image_of(v), base):
            raise CounterexampleError(
                "lemma5", {"kind": "image_missing_base", "vertex": v}
            )
    return base


def induced_point_map(emb: GraphEmbedding) -> InducedPointMap:
    """Recover the point map: g(p) is the intersection of the images of all
    maximal singular subspaces containing p.

    Validates that every g(p) lies one step above the base, that g is
    injective, and that spanning g over any maximal singular subspace gives
    back its image; failures raise CounterexampleError.
    """
    field = emb.dst_space.field
    n, n_prime = emb.src_space.n, emb.dst_space.n
    pairs = _opposite_pairs(emb.source)
    base = _meet(field, emb.image_of(pairs[0][0]), emb.image_of(pairs[0][1]))
    stars = _stars_of_points(emb.src_space)
    assignment: dict[Point, Subspace] = {}
    for pt in emb.src_space.points:
        g = reduce(
            lambda a, b: _meet(field, a, b),
            (emb.image_of(i) for i in stars[pt]),
        )
        if g.rank != n_prime - n + 1 or not _covers(field, g, base):
            raise CounterexampleError(
                "theorem3",
                {"kind": "point_image_defect", "point": list(pt), "got": subspace_json(g)},
            )
        assignment[pt] = g
    if len(set(assignment.values())) != len(assignment):
        raise CounterexampleError("theorem3", {"kind": "point_map_not_injective"})
    for v in range(emb.source.num_vertices):
        span = reduce(
            lambda a, b: _join(field, a, b),
            (assignment[pt] for pt in _points_of(emb.src_space, emb.source.labels[v])),
        )
        if span != emb.image_of(v):
            raise CounterexampleError(
                "theorem3",
                {"kind": "image_not_spanned_by_point_map", "vertex": v, "span": subspace_json(span)},
            )
    return InducedPointMap(emb.src_space, emb.dst_space, base, assignment)


def _frame_index_lists(space: PolarSpace, frames) -> list[tuple[list[int], tuple[int, ...]]]:
    return [
        ([space.point_index[pt] for pt in f.points], f.sigma) for f in frames
    ]


def _frame_violations(pm: InducedPointMap, frames_idx) -> list[dict]:
    """Frames whose point images break the residue-frame collinearity pattern."""
    space = pm.src_space
    imgs = [pm.assignment[pt] for pt in space.points]
    rc_masks = [0] * len(imgs)
    for i in range(len(imgs)):
        for j in range(i + 1, len(imgs)):
            if _rc(pm.dst_space, pm.base, imgs[i], imgs[j]):
                rc_masks[i] |= 1 << j
                rc_masks[j] |= 1 << i
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
            out.append(
                {
                    "statement": "frames_preserving",
                    "frame": [list(space.points[i]) for i in idx],
                }
            )
    return out


def check_frames_preserving(
    pm: InducedPointMap,
    frames=None,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    sample_count: int = 200,
) -> dict:
    """Check that the point map carries frames to residue frames over its base.

    Source frames are enumerated exhaustively when the budget allows,
    otherwise seeded samples are used (at most as many as the space has) and
    the report is marked incomplete; for each frame the images must be
    residue-collinear exactly off the partner involution.
    """
    start = time.perf_counter()
    complete = True
    if frames is None:
        frames, complete = polar.enumerate_frames(pm.src_space, budget=budget)
        if not complete:
            count = min(sample_count, polar.frame_count(pm.src_space))
            frames = polar.sample_frames(pm.src_space, count, seed)
    violations = _frame_violations(pm, _frame_index_lists(pm.src_space, frames))
    return make_report(
        statement="frames_preserving",
        instance={"p": pm.src_space.p, "n": pm.src_space.n, "m": None,
                  "n_prime": pm.dst_space.n},
        mode="exhaustive" if complete else "sample",
        budget=budget,
        seed=seed,
        workers=1,
        counts={"frames": len(frames)},
        violations=violations,
        complete=complete,
        expansions=len(frames),
        elapsed=time.perf_counter() - start,
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
    field = dst_space.field
    if base.rank != dst_space.n - src_space.n:
        raise LiftError(
            "base subspace has the wrong dimension",
            {"expected_rank": dst_space.n - src_space.n, "base": subspace_json(base)},
        )
    src = dual_polar_graph(src_space)
    dst = dual_polar_graph(dst_space)
    images = []
    for v in range(src.num_vertices):
        sub = src.labels[v]
        span = reduce(
            lambda a, b: sum_span(field, a, b),
            (point_map[pt] for pt in _points_of(src_space, sub)),
            base,
        )
        if span.rank != dst_space.n or not polar.is_singular(dst_space, span):
            raise LiftError(
                "span of point images is not maximal singular",
                {"source": subspace_json(sub), "span": subspace_json(span)},
            )
        images.append(span)
    if len(set(images)) != len(images):
        raise LiftError("lifted map is not injective", {})
    assignment = tuple(dst.index[s] for s in images)
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            d = dst_space.n - intersect(field, images[i], images[j]).rank
            if d != src.dist[i][j]:
                raise LiftError(
                    "lifted map does not preserve distances",
                    {"pair": [i, j], "expected": src.dist[i][j], "got": d},
                )
    return GraphEmbedding(src_space, dst_space, src, dst, assignment)


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
    found, stats = search_dualpolar_embeddings(
        src_space, dst_space, mode, budget, seed, workers
    )
    violations: list[dict] = []
    for emb in found:
        try:
            verify_lemma5(emb)
        except CounterexampleError as exc:
            violations.append(exc.as_violation())
    counts = {
        "embeddings": stats["embeddings"],
        "distinct_images": stats["distinct_images"],
    }
    return make_report(
        statement="lemma5",
        instance={"p": src_space.p, "n": src_space.n, "m": None,
                  "p_prime": dst_space.p, "n_prime": dst_space.n},
        mode=mode,
        budget=budget,
        seed=seed,
        workers=workers,
        counts=counts,
        violations=violations,
        complete=stats["complete"],
        expansions=stats["expansions"],
        elapsed=time.perf_counter() - start,
    )


def verify_theorem3(
    src_space: PolarSpace,
    dst_space: PolarSpace,
    mode: str = "sample",
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    workers: int = 1,
    apartment_checks: int = 2,
    apartment_check_embeddings: int = 50,
) -> dict:
    """Search for graph embeddings and validate the induced-point-map picture.

    Every found embedding must yield a base subspace (pair-independent, in
    every image), an induced point map spanning back to the embedding, and a
    frames-to-residue-frames point map.  For the first
    ``apartment_check_embeddings`` embeddings, ``apartment_checks`` frame
    apartments are also pushed through the embedding and decomposed, in the
    sign-mask labelling they come with, as apartments over the same base.
    """
    start = time.perf_counter()
    found, stats = search_dualpolar_embeddings(
        src_space, dst_space, mode, budget, seed, workers
    )
    frames_src, frames_complete = polar.enumerate_frames(src_space, budget=10**6)
    if not frames_complete:
        frames_src = polar.sample_frames(src_space, 100, seed)
    frames_idx = _frame_index_lists(src_space, frames_src)
    violations: list[dict] = []
    checked_apartments = 0
    target_masks = [polar.point_mask(dst_space, s) for s in found[0].target.labels] if found else []
    for k, emb in enumerate(found):
        try:
            base = verify_lemma5(emb)
            pm = induced_point_map(emb)
            if pm.base != base:
                raise CounterexampleError(
                    "theorem3", {"kind": "base_mismatch", "lemma5": subspace_json(base)}
                )
            violations.extend(_frame_violations(pm, frames_idx))
            if k < apartment_check_embeddings:
                for frame in frames_src[:apartment_checks]:
                    # apartment_of_frame lists members by sign mask, so the
                    # pushed members already carry a hypercube labelling
                    order = [
                        emb.assignment[emb.source.index[s]]
                        for s in polar.apartment_of_frame(src_space, frame)
                    ]
                    checked_apartments += 1
                    try:
                        transferred = _witness_from_images(
                            dst_space,
                            [emb.target.labels[i] for i in order],
                            [target_masks[i] for i in order],
                        ).base == base
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
    counts = {
        "embeddings": stats["embeddings"],
        "distinct_images": stats["distinct_images"],
        "frames_checked": len(frames_src),
        "apartments_checked": checked_apartments,
    }
    return make_report(
        statement="theorem3",
        instance={"p": src_space.p, "n": src_space.n, "m": None,
                  "p_prime": dst_space.p, "n_prime": dst_space.n},
        mode=mode,
        budget=budget,
        seed=seed,
        workers=workers,
        counts=counts,
        violations=violations,
        complete=stats["complete"],
        expansions=stats["expansions"],
        elapsed=time.perf_counter() - start,
    )


def verify_chow(
    space: PolarSpace,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    workers: int = 1,
) -> dict:
    """Exhaustively match the self-embeddings of a dual polar graph with the
    collineations of its polar space.

    Every embedding found must be a bijection whose induced point map is a
    collinearity-preserving bijection of the points carrying frames to
    frames.
    """
    start = time.perf_counter()
    found, stats = search_dualpolar_embeddings(
        space, space, "exhaustive", budget, seed, workers
    )
    frames, _ = polar.enumerate_frames(space, budget=10**6)
    frames_idx = _frame_index_lists(space, frames)
    masks = space.collinear_masks()
    violations: list[dict] = []
    for emb in found:
        try:
            if len(set(emb.assignment)) != emb.source.num_vertices:
                raise CounterexampleError("chow", {"kind": "not_a_bijection"})
            pm = induced_point_map(emb)
            if pm.base.rank != 0:
                raise CounterexampleError("chow", {"kind": "nonempty_base"})
            perm = [space.point_index[pm.assignment[pt].rows[0]] for pt in space.points]
            if sorted(perm) != list(range(len(space.points))):
                raise CounterexampleError("chow", {"kind": "point_map_not_bijective"})
            for i in range(len(perm)):
                for j in range(i + 1, len(perm)):
                    if (masks[i] >> j & 1) != (masks[perm[i]] >> perm[j] & 1):
                        raise CounterexampleError(
                            "chow",
                            {"kind": "collinearity_not_preserved", "pair": [i, j]},
                        )
            violations.extend(_frame_violations(pm, frames_idx))
        except CounterexampleError as exc:
            violations.append(exc.as_violation())
    counts = {
        "embeddings": stats["embeddings"],
        "distinct_images": stats["distinct_images"],
        "frames_checked": len(frames),
    }
    return make_report(
        statement="chow",
        instance={"p": space.p, "n": space.n, "m": None},
        mode="exhaustive",
        budget=budget,
        seed=seed,
        workers=workers,
        counts=counts,
        violations=violations,
        complete=stats["complete"],
        expansions=stats["expansions"],
        elapsed=time.perf_counter() - start,
    )
