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
from .polar import (
    Point,
    PolarSpace,
    perp_mask,
    point_mask,
    subspace_of_mask,
    subspace_size,
)
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


@lru_cache(maxsize=1)
def _opposite_pairs(graph: DenseGraph) -> tuple[tuple[int, int], ...]:
    """The pairs (i, j), i < j, of vertices at the diameter, read off the
    class ``at_dist[i][diameter]`` above bit i.  A verifier asks for one
    source graph's per embedding; older graphs are not kept alive."""
    return tuple(
        (i, j)
        for i, classes in enumerate(graph.at_dist)
        for j in _bits(classes[graph.diameter] >> (i + 1) << (i + 1))
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
    each passed to ``visit`` as a ``GraphEmbedding`` as soon as it is found,
    or only counted when ``visit`` is None; returns (None, stats) as
    ``search_isometric_embeddings`` does, which also says what None skips.

    A source of larger diameter admits none, and that case returns as soon
    as its arguments are checked.
    """
    _check_search_args(mode, budget, seed, workers)
    if src_space.n > dst_space.n:
        return None, search_stats(mode, budget, seed, workers)
    src, dst = dual_polar_graph(src_space), dual_polar_graph(dst_space)
    return search_isometric_embeddings(
        src, dst, mode, budget, seed, workers,
        visit=None if visit is None else lambda assignment, new: visit(
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


def _point_images(statement: str, emb: GraphEmbedding, members: list[list[int]]) -> list[int]:
    """Masks of every g(p), in ``src_space.points`` order; the checks are
    those of ``induced_point_map``, and a failure is a violation of
    ``statement``.  ``members`` lists the point indices of each source
    vertex (``_members(emb.source)``): pass one list through a verifier
    call, since every embedding has the same source.

    Each g(p) is only checked for its rank and g for injectivity.  The base
    B lies in every g(p) once it lies in every image, since g(p) is a meet
    of images, and every caller has settled that first: ``verify_theorem3``
    and ``induced_point_map`` run ``verify_lemma5``, whose pair check puts B
    in every image (every vertex has an opposite one), and in ``verify_chow``
    B is empty.

    Once each g(p) lies one step above B and g is injective, g spans the
    image W of every maximal M over B, so that is not checked again: each
    g(p) with p in M lies in W, and W/B has rank n, so the (p^n - 1)/(p - 1)
    points of M go to as many distinct elements one step above B in W, which
    are all of them.

    Being a meet of images, g also carries collinear points to
    residue-collinear elements, whatever the assignment: collinear p, q lie
    in a common maximal M, so g(p) and g(q) lie in the totally singular
    image of M.  ``_collinearity_check`` builds on that.
    """
    space = emb.dst_space
    imgs = _image_masks(emb)
    g = [(1 << len(space.points)) - 1] * len(emb.src_space.points)
    for pts, img in zip(members, imgs):
        for p in pts:
            g[p] &= img
    size = subspace_size(space, space.n - emb.src_space.n + 1)
    for p, gp in enumerate(g):
        if gp.bit_count() != size:
            raise CounterexampleError(
                statement,
                {"kind": "point_image_defect", "point": list(emb.src_space.points[p]),
                 "got": subspace_json(subspace_of_mask(space, gp))},
            )
    if len(set(g)) != len(g):
        raise CounterexampleError(statement, {"kind": "point_map_not_injective"})
    return g


def induced_point_map(emb: GraphEmbedding) -> InducedPointMap:
    """Recover the point map: g(p) is the intersection of the images of all
    maximal singular subspaces containing p.

    The base is that of ``verify_lemma5``, which checks every opposite pair
    and so puts it in every image and every g(p).  Then every g(p) is
    checked to lie one step above it and g to be injective, which makes g
    span the image of every maximal singular subspace (see
    ``_point_images``); failures raise CounterexampleError.
    """
    base = verify_lemma5(emb)
    g = _point_images("theorem3", emb, _members(emb.source))
    space = emb.dst_space
    assignment = {pt: subspace_of_mask(space, gp) for pt, gp in zip(emb.src_space.points, g)}
    return InducedPointMap(emb.src_space, space, base, assignment)


def _residue_collinear(g: list[int], perps: list[int]) -> list[int]:
    """Each point image's mask of residue-collinear partners: bit j of entry
    i is set when g[j] lies in the perp ``perps[i]`` of g[i], i.e. when the
    span of the two images over the base is singular."""
    rc = [0] * len(g)
    for i in range(len(g)):
        for j in range(i + 1, len(g)):
            if not g[j] & ~perps[i]:
                rc[i] |= 1 << j
                rc[j] |= 1 << i
    return rc


def _collinearity_break(statement: str, collinear: list[int], rc: list[int]) -> dict | None:
    """The violation of ``statement`` naming the first pair (i, j), i < j, of
    source points, with collinearity masks ``collinear``, whose point images,
    with residue-collinearity masks ``rc`` (``_residue_collinear``), are
    residue-collinear where the points are not or the other way round; None
    when collinearity is preserved both ways.

    This decides every frame at once, for ``theorem3``, ``chow`` and
    ``check_frames_preserving`` alike.  In a polar space of rank >= 2 any two
    distinct points lie in a common frame: collinear points span a singular
    line, which lies in a maximal M, and a basis of M through both points
    pairs with one of an opposite maximal; non-collinear points form a
    hyperbolic pair, and a frame of its perp (rank n - 1 >= 1) completes it.
    In that frame the two are partners exactly when they are not collinear.
    A frame goes to a residue frame exactly when its images are
    residue-collinear exactly off its partners, so the point map carries
    every frame to a residue frame exactly when it preserves collinearity
    both ways, i.e. when ``rc`` equals ``collinear``.
    """
    for i, (got, want) in enumerate(zip(rc, collinear)):
        later = (got ^ want) >> (i + 1)
        if later:
            j = i + (later & -later).bit_length()
            return {"statement": statement, "kind": "collinearity_not_preserved", "pair": [i, j]}
    return None


def _collinearity_check(statement: str, src_space: PolarSpace, dst_space: PolarSpace):
    """A check of the point images ``g`` of a graph embedding from
    ``src_space`` to ``dst_space`` (as ``_point_images`` returns them) that
    returns what ``_collinearity_break`` would, reading the relation of
    ``_residue_collinear`` once per distinct set of images.  Make one per
    verifier call: its dicts hold the perps and the counts that call has
    taken.

    ``_point_images`` gives g as meets of images, so g carries every
    collinear pair to a residue-collinear one, and it is injective, so it
    carries distinct pairs to distinct pairs.  Collinearity is then
    preserved both ways exactly when the images have as many
    residue-collinear pairs (half the popcounts of the masks) as the source
    has collinear pairs.  That count depends only on the set of images, so
    it is taken once per set, on the first embedding with that set, and
    only on a set whose count differs from the source's is the relation read
    again, in that embedding's order, to name the first broken pair.
    """
    collinear = src_space.collinear_masks()
    pairs = sum(mask.bit_count() for mask in collinear) // 2
    perp_of: dict[int, int] = {}
    count_of: dict[frozenset[int], int] = {}

    def perps(g: list[int]) -> list[int]:
        for gp in g:
            if gp not in perp_of:
                perp_of[gp] = perp_mask(dst_space, gp)
        return [perp_of[gp] for gp in g]

    def check(g: list[int]) -> dict | None:
        key = frozenset(g)
        if key not in count_of:
            count_of[key] = sum(mask.bit_count() for mask in _residue_collinear(g, perps(g))) // 2
        if count_of[key] == pairs:
            return None
        return _collinearity_break(statement, collinear, _residue_collinear(g, perps(g)))

    return check


def check_frames_preserving(pm: InducedPointMap) -> dict:
    """Check that the point map carries every frame of its source to a
    residue frame over its base.

    The images' residue collinearity (``_residue_collinear``) against the
    source's collinearity decides every frame at once
    (``_collinearity_break``), so the report is complete and exhaustive, its
    ``frames`` count is the closed form ``polar.frame_count``, and a broken
    map gives one violation naming the first pair of source point indices
    that it breaks.  The map may be any map, so the whole relation is
    compared: the pair count of ``_collinearity_check`` holds only for
    meets of images.
    """
    start = time.perf_counter()
    src, dst = pm.src_space, pm.dst_space
    g = [point_mask(dst, pm.assignment[pt]) for pt in src.points]
    rc = _residue_collinear(g, [perp_mask(dst, gp) for gp in g])
    broken = _collinearity_break("frames_preserving", src.collinear_masks(), rc)
    frames = polar.frame_count(src)
    return make_report(
        "frames_preserving", {"p": src.p, "n": src.n, "m": None, "n_prime": dst.n},
        start, {"frames": frames}, violations=[broken] if broken else [],
        expansions=frames, mode="exhaustive",
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
    check raises LiftError naming the offending subspace or pair.  The
    distance check also decides injectivity: two source vertices sent to
    one target vertex are at target distance 0 but at source distance at
    least 1, so it names such a pair, if no earlier pair failed.
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
    maximal_size = subspace_size(dst_space, dst_space.n)
    assignment = []
    for v, members in enumerate(src.masks):
        points = reduce(or_, (g[p] for p in _bits(members)), base_mask)
        # the span S is maximal singular exactly when it is its own perp:
        # then S lies in perp(S), and perp(S) has rank n'
        perp = perp_mask(dst_space, points)
        if points & ~perp or perp.bit_count() != maximal_size:
            raise LiftError(
                "span of point images is not maximal singular",
                {"source": subspace_json(src.labels[v]),
                 "span": subspace_json(subspace_of_mask(dst_space, points))},
            )
        assignment.append(vertex_of[perp])
    for i in range(len(assignment)):
        for j in range(i + 1, len(assignment)):
            d, want = dst.distance(assignment[i], assignment[j]), src.distance(i, j)
            if d != want:
                raise LiftError(
                    "lifted map does not preserve distances",
                    {"pair": [i, j], "expected": want, "got": d},
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

    Only the base-subspace postconditions of ``verify_lemma5`` are checked:
    dimension and opposite-pair independence, which put the base in every
    image without a check of its own.
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

    Every found embedding must yield a base subspace (``verify_lemma5``:
    pair-independent, hence in every image), an induced point map spanning
    back to the embedding (``_point_images``), and a point map preserving
    collinearity both ways, which carries every frame to a residue frame
    (see ``_collinearity_break``), so ``frames_checked`` is the number of
    frames.  The residue-collinear pairs are counted once per distinct set
    of point images (``_collinearity_check``), and scanned only on a set
    whose count differs from the source's.

    The point images and the collinearity check run on the first embedding
    of each image, and on every later one only while the image has not
    passed them; Lemma 5 and the transfer below run on every embedding.
    Two embeddings e, e' onto one image differ by sigma = e^-1 o e', a
    bijection of the source graph that keeps every distance, since both
    embeddings do: an automorphism.  The star of a point p, the maximals
    through p, is the convex closure of any two of them at distance n - 1,
    which meet exactly in p (Cameron, *Dual polar spaces*; BCN 9.4), so
    sigma permutes the stars of points: sigma(star(p)) = star(pi(p)) for a
    permutation pi of the points.  Then g'(p), the meet of the images under
    e' of star(p), is g(pi(p)): the two maps have one set of point images,
    so the rank of each, injectivity and the residue-collinear pair count
    read the same for both.  An image that fails is checked in full at
    every embedding, so each failing embedding still gets its own
    violation.  The set of passed images is local to the call.

    For the first 50 embeddings,
    the first two frame apartments are also pushed through the embedding
    and decomposed, in the sign-mask labelling they come with, as
    apartments; a transfer fails exactly when the decomposition raises.
    Its base is Lemma 5's without a check: the antipodal members of a
    frame apartment are opposite source vertices, so ``verify_lemma5`` has
    already found that their images meet in the base, with the rank n' - n
    that the decomposition asks of it.  No genuine input has reached a
    failed transfer: on Sp(4,2) into itself, the vertex maps that
    ``verify_lemma5`` and ``_point_images`` accept are exactly the 720
    embeddings, found by backtracking over every vertex map, and each
    carries every frame apartment to one that decomposes
    (``test_only_embeddings_pass_the_checks_before_the_transfer``).  The
    transfer stays for the ``apartments_checked`` count of the report.
    """
    start = time.perf_counter()
    # the last pair of a frame has p >= 2 choices of partner, so the first
    # n + 1 nodes of the enumeration reach its first two frames
    first_frames, _ = polar.enumerate_frames(src_space, budget=src_space.n + 1)
    src = dual_polar_graph(src_space)
    apartment = frame_vertices(src_space, src)
    pushed = [(frame, apartment(frame)) for frame in first_frames]
    members = _members(src)
    collinearity = _collinearity_check("theorem3", src_space, dst_space)
    violations: list[dict] = []
    # the images whose first embedding passed the point-image checks
    passed: set[frozenset[int]] = set()
    visited = checked_apartments = 0

    def check(emb: GraphEmbedding) -> None:
        nonlocal visited, checked_apartments
        first = visited < 50
        visited += 1
        try:
            verify_lemma5(emb)
            image = frozenset(emb.assignment)
            if image not in passed:
                if broken := collinearity(_point_images("theorem3", emb, members)):
                    violations.append(broken)
                else:
                    passed.add(image)
            if first:
                for frame, vertices in pushed:
                    # the members come by sign mask, so the pushed members
                    # already carry a hypercube labelling
                    masks = [emb.target.masks[emb.assignment[v]] for v in vertices]
                    checked_apartments += 1
                    try:
                        _witness_from_images(dst_space, masks)
                    except CounterexampleError:
                        raise CounterexampleError(
                            "theorem3",
                            {"kind": "apartment_transfer_failure",
                             "frame": [list(pt) for pt in frame.points]},
                        ) from None
        except CounterexampleError as exc:
            violations.append(exc.as_violation())

    _, stats = search_dualpolar_embeddings(
        src_space, dst_space, mode, budget, seed, workers, visit=check
    )
    return make_report(
        "theorem3", _pair_instance(src_space, dst_space), start,
        {"frames_checked": polar.frame_count(src_space), "apartments_checked": checked_apartments},
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
    in 0, so the base is empty and lies in every g(p) without a check, and
    ``_point_images`` has required each g(p) to be a single point and g to
    be injective: g permutes the points.  Over
    an empty base, residue collinearity is collinearity, and the pair check
    decides every frame (see ``_collinearity_break``), so ``frames_checked``
    is the number of frames.  Every g has the whole point set as its set of
    images, so the collinear pairs are counted once per call
    (``_collinearity_check``), and scanned only if that count differs from
    the source's.
    """
    start = time.perf_counter()
    members = _members(dual_polar_graph(space))
    collinearity = _collinearity_check("chow", space, space)
    violations: list[dict] = []

    def check(emb: GraphEmbedding) -> None:
        try:
            broken = collinearity(_point_images("chow", emb, members))
        except CounterexampleError as exc:
            broken = exc.as_violation()
        if broken:
            violations.append(broken)

    _, stats = search_dualpolar_embeddings(
        space, space, "exhaustive", budget, workers=workers, visit=check
    )
    return make_report(
        "chow", {"p": space.p, "n": space.n, "m": None}, start,
        {"frames_checked": polar.frame_count(space)}, violations=violations, search=stats,
    )
