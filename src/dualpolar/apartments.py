"""Isometric hypercube embeddings into dual polar graphs.

The search engine backtracks over source vertices in BFS order.  The
candidates for a vertex are one AND of distance masks per placed vertex, and
each full placement is streamed to a visitor, from this process or as the
replayed visitor calls of the same search run in one forked process beside
the visitor's checks.  An image is decomposed in the hypercube
labelling the search gave it, on the point masks of its members: the common
base subspace, the 2m residue-frame subspaces obtained by intersecting the
images of opposite hypercube faces, and the reconstruction of every image as
a span.  A set of maximal singular subspaces is recognized as an apartment
exactly when such a decomposition exists.
"""

from __future__ import annotations

import marshal
import os
import random
import signal
import threading
import time
from dataclasses import dataclass
from functools import reduce
from operator import and_, itemgetter, or_
from typing import Sequence

import numpy as np

from . import polar
from .graphs import (
    DenseGraph,
    _bits,
    dual_polar_graph,
    geodesic_count,
    hypercube,
    iter_geodesics,
    meet_graph,
    sample_geodesic,
)
from .linalg import Subspace
from .polar import PolarSpace, mask_rank, perp_mask, point_mask, subspace_of_mask
from .reporting import CounterexampleError, make_report, subspace_json

DEFAULT_BUDGET = 10_000_000


def _source_plan(src: DenseGraph):
    """BFS assignment order from vertex 0, plus per-step distance constraints.

    Step k gets (parent position, [(earlier position, required distance)]).
    The parent is an already-assigned neighbor, so candidates come from one
    adjacency bitmask.
    """
    order = sorted(range(src.num_vertices), key=lambda v: (src.dist[0][v], v))
    pos_of = {v: k for k, v in enumerate(order)}
    plan = []
    for k, v in enumerate(order):
        if k == 0:
            continue
        parent = min(pos_of[u] for u in src.neighbors(v) if pos_of[u] < k)
        reqs = tuple((j, src.dist[v][order[j]]) for j in range(k) if j != parent)
        plan.append((parent, reqs))
    return order, plan


def _shuffle(items: list, rng: random.Random) -> None:
    """Shuffle ``items`` in place with the draws of ``random.Random.shuffle``:
    Fisher-Yates from the end, each index drawn by rejection sampling on
    ``getrandbits``, so a sample stream does not depend on the Python
    version's ``shuffle``."""
    getrandbits = rng.getrandbits
    for i in range(len(items) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        items[i], items[j] = items[j], items[i]


def _branch_search(dst_nbrs, dst_adj, at_dist, plan, nsrc, root_img, budget, rng, leaf):
    """Explore one root placement, calling ``leaf(imgs, key)`` at every full
    placement; returns (expansions, complete).

    ``imgs`` is the list of images in plan order, one list reused for every
    leaf (a leaf that keeps it must copy it), and ``key`` the image as an
    int, bit v set for each target vertex v in it, carried down the DFS.

    ``at_dist[v][d]`` is the bitmask of target vertices at distance d from v,
    so the candidates left by every distance constraint are one AND per
    placed vertex.  They are walked in neighbor order: exhaustive mode takes
    the set bits of that mask in ascending order, and sample mode shuffles
    the parent's full neighbor list, even when nothing is allowed, to keep
    the draws, and then filters it.  The last source vertex is placed in a
    loop in its parent's frame that calls ``leaf`` directly, with the budget
    taken for the whole loop at once.
    """
    if budget < 1:
        return 0, False
    imgs = [root_img] * nsrc
    last = nsrc - 1
    expansions = 1
    complete = True

    def dfs(k: int, key: int) -> None:
        nonlocal expansions, complete
        parent, reqs = plan[k - 1]
        allowed = dst_adj[imgs[parent]]
        for j, d in reqs:
            allowed &= at_dist[imgs[j]][d]
        if rng is not None:
            cands = list(dst_nbrs[imgs[parent]])
            _shuffle(cands, rng)
        if not allowed & (allowed - 1):
            # at most one candidate, so no order to keep
            cands = [allowed.bit_length() - 1] if allowed else []
        elif rng is None:
            cands = _bits(allowed)
        else:
            cands = [cand for cand in cands if allowed >> cand & 1]
        if k == last:
            room = budget - expansions
            if len(cands) > room:
                del cands[room:]
                complete = False
            expansions += len(cands)
            for cand in cands:
                imgs[k] = cand
                leaf(imgs, key | 1 << cand)
            return
        for cand in cands:
            if expansions >= budget:
                complete = False
                return
            expansions += 1
            imgs[k] = cand
            dfs(k + 1, key | 1 << cand)
            if not complete:
                return

    if nsrc > 1:
        dfs(1, 1 << root_img)
    else:
        leaf(imgs, 1 << root_img)
    # dfs refers to itself; unbinding it frees the branch, and the caller's
    # leaf, now instead of at the next garbage collection
    del dfs
    return expansions, complete


def _can_fork(workers: int) -> bool:
    """Whether a search at ``workers`` runs its branches in a forked child:
    only above one worker, where ``os.fork`` exists, no other thread runs (a
    forked child would inherit that thread's locks in whatever state they
    are) and this process may run on two CPUs or more, one for the search
    and one for the checks."""
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return cpus > 1


def _write_record(out, record) -> None:
    data = marshal.dumps(record)
    out.write(len(data).to_bytes(8, "little") + data)
    out.flush()


def _read_record(reader):
    """The next record ``_write_record`` wrote, or None at the end of the
    pipe.  The record is read whole and then unmarshalled, because
    ``marshal.load`` on a file makes one ``readinto`` call per value."""
    head = reader.read(8)
    if len(head) < 8:
        return None
    size = int.from_bytes(head, "little")
    data = reader.read(size)
    return marshal.loads(data) if len(data) == size else None


def _serve_search(run, fd: int) -> None:
    """Body of the forked child: ``run`` with a visitor that buffers its
    calls, one record of them per root branch to ``fd`` and then the stats,
    or the text of the exception it raised.  Leaves through ``os._exit``."""
    code = 1
    try:
        with os.fdopen(fd, "wb") as out:
            calls: list[tuple] = []

            def send() -> None:
                _write_record(out, calls)
                calls.clear()

            try:
                stats = run(lambda *call: calls.append(call), send)
            except Exception as exc:
                _write_record(out, f"{type(exc).__name__}: {exc}")
            else:
                _write_record(out, stats)
                code = 0
    finally:
        os._exit(code)


def _forked_search(run, nroots: int, visit) -> dict:
    """Run ``run(visit, branch_done)`` in one forked child and replay its
    visitor calls through ``visit`` in this process, root branch by root
    branch, while the child searches on; returns the child's stats.

    The child inherits the search's tables by fork, so nothing is sent to
    it, and the pipe's buffer holds it back when it gets ahead.  A child
    that raises or dies makes this raise RuntimeError naming the root, or
    the stats, whose record never arrived; whatever raises, the child is
    killed and reaped and the pipe closed.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        os.close(r)
        _serve_search(run, w)
    try:
        os.close(w)
        with os.fdopen(r, "rb") as reader:
            for root in range(nroots):
                record = _read_record(reader)
                if not isinstance(record, list):
                    raise RuntimeError(
                        f"search branch at root {root} failed in the forked search process: "
                        f"{record or 'it exited without a result'}"
                    )
                for call in record:
                    visit(*call)
            stats = _read_record(reader)
            if not isinstance(stats, dict):
                raise RuntimeError(
                    "the forked search process failed after its last root branch: "
                    f"{stats or 'it exited without its stats'}"
                )
            return stats
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _check_search_args(mode: str, budget: int) -> None:
    """Raise ValueError unless ``mode`` and ``budget`` are a valid search's."""
    if mode not in ("exhaustive", "sample"):
        raise ValueError(f"unknown mode {mode!r}")
    if budget <= 0:
        raise ValueError("budget must be positive")


def search_stats(
    mode: str,
    budget: int,
    seed: int,
    workers: int,
    embeddings: int = 0,
    distinct_images: int = 0,
    expansions: int = 0,
    complete: bool = True,
) -> dict:
    """The stats an embedding search returns; the defaults describe a search
    that had nothing to explore.  The seed is None outside sample mode, which
    is the only mode that draws."""
    return {
        "mode": mode,
        "budget": budget,
        "seed": seed if mode == "sample" else None,
        "workers": workers,
        "expansions": expansions,
        "complete": complete,
        "embeddings": embeddings,
        "distinct_images": distinct_images,
    }


def search_isometric_embeddings(
    src: DenseGraph,
    dst: DenseGraph,
    mode: str = "exhaustive",
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    workers: int = 1,
    *,
    visit,
) -> tuple[None, dict]:
    """Stream all (or budget-bounded) isometric embeddings of ``src`` into
    ``dst`` to ``visit``; returns (None, stats).

    The node budget is split over the root-placement branches up front and
    sample mode only permutes candidate order per branch.  ``run`` is the
    whole search: every root branch in root order, calling ``branch_done()``
    after each, with the embedding count, the set of image keys and the
    stats.  With ``workers`` above 1 it runs in one forked process beside
    the visitor (see ``_forked_search`` and ``_can_fork``), whose visitor
    calls are replayed here in their order, so the embeddings, their order
    and the stats other than ``workers`` are the same for every worker
    count.  Expansions count vertex placements.

    Each embedding is streamed as ``visit(assignment, new)`` the moment it
    is found: ``assignment`` is the tuple of target vertices of the source
    vertices and ``new`` whether this is the first embedding with that
    image.
    """
    _check_search_args(mode, budget)
    if not src.connected:
        raise ValueError("source graph is disconnected; only connected sources are supported")
    order, plan = _source_plan(src)
    nsrc = src.num_vertices
    nv = dst.num_vertices
    if nv == 0:
        return None, search_stats(mode, budget, seed, workers)
    nbrs = tuple(tuple(_bits(mask)) for mask in dst.adj)
    # bit u of at_dist[v][d] is set when dst.dist[v][u] == d, so distances
    # the target lacks (beyond its diameter, or unreachable) get empty masks
    dist = np.array(dst.dist, dtype=np.int16)
    at_dist = list(zip(*(
        [int.from_bytes(row.tobytes(), "little")
         for row in np.packbits(dist == d, axis=1, bitorder="little")]
        for d in range(max(src.diameter, dst.diameter) + 1)
    )))
    shares = [budget // nv + (1 if i < budget % nv else 0) for i in range(nv)]
    if mode == "sample":
        # one independent stream per root branch, all split from the one seed
        children = np.random.SeedSequence(seed).spawn(nv)
        rngs = [random.Random(int(c.generate_state(2, np.uint64)[0])) for c in children]
    else:
        rngs = [None] * nv

    # position in the plan of each source vertex
    plan_pos = sorted(range(nsrc), key=order.__getitem__)
    # the assignment of a leaf's images; itemgetter of two or more positions
    # returns a tuple, and a one-vertex plan is in vertex order
    assign = tuple if plan_pos == list(range(nsrc)) else itemgetter(*plan_pos)

    def run(on_found, branch_done=lambda: None) -> dict:
        keys: set[int] = set()
        found = expansions = 0
        complete = True

        def leaf(imgs: list[int], key: int) -> None:
            nonlocal found
            found += 1
            new = key not in keys
            if new:
                keys.add(key)
            on_found(assign(imgs), new)

        for root in range(nv):
            exp, comp = _branch_search(
                nbrs, dst.adj, at_dist, plan, nsrc, root, shares[root], rngs[root], leaf
            )
            expansions += exp
            complete = complete and comp
            branch_done()
        return search_stats(mode, budget, seed, workers, found, len(keys), expansions, complete)

    if _can_fork(workers):
        return None, _forked_search(run, nv, visit)
    return None, run(visit)


# -- decomposition of embedded hypercubes ------------------------------------


@dataclass(frozen=True, eq=False)
class ApartmentWitness:
    """Decomposition certifying that 2^m maximal singular subspaces form an
    apartment inside the star of ``base``.

    ``residue_frame`` holds the subspaces Q for the signed indices
    +1..+m, -1..-m in that order (partner of entry s is entry (s + m) mod 2m);
    ``members`` is indexed by sign mask (bit i set = index -(i+1) chosen) and
    members[mask] is the span of its selected Q's over the base.
    """

    base: Subspace
    residue_frame: tuple[Subspace, ...]
    members: tuple[Subspace, ...]

    @property
    def m(self) -> int:
        return len(self.residue_frame) // 2

    def member_set(self) -> frozenset[Subspace]:
        return frozenset(self.members)

    def to_frame(self, space: PolarSpace) -> polar.Frame | None:
        """The point frame of a full-rank witness (empty base).

        It is None only for a witness built by hand.  For one that
        ``is_apartment`` returns, ``_witness_from_images`` has checked that
        the 2n faces are distinct single points, each collinear with every
        other except its partner, which is what ``polar.is_frame`` asks of a
        frame.
        """
        if self.base.rank != 0:
            raise ValueError("frame points exist only for full-rank witnesses")
        return polar.is_frame(space, [q.rows[0] for q in self.residue_frame])


def _opposite_base(
    space: PolarSpace, masks: Sequence[int], pairs: Sequence[tuple[int, int]], rank: int,
    statement: str,
) -> int:
    """Point mask of the base of an image given by the point masks of its
    members: the meet of the first of its opposite ``pairs``, checked to
    have ``rank`` and to be the meet of every other pair; a failure raises
    CounterexampleError for ``statement``.

    Every member is one side of an opposite pair, so once each pair meets in
    the base, the base lies in every member and the meet of all of them is
    the base; neither is checked again.
    """
    i0, j0 = pairs[0]
    base = masks[i0] & masks[j0]
    if mask_rank(space, base) != rank:
        raise CounterexampleError(
            statement,
            {"kind": "base_dimension", "expected_rank": rank,
             "got": subspace_json(subspace_of_mask(space, base))},
        )
    for i, j in pairs[1:]:
        other = masks[i] & masks[j]
        if other != base:
            raise CounterexampleError(
                statement,
                {"kind": "base_depends_on_opposite_pair", "pair": [i, j],
                 "other": subspace_json(subspace_of_mask(space, other))},
            )
    return base


def _witness_from_images(space: PolarSpace, masks: Sequence[int]) -> tuple[int, list[int]]:
    """Decompose a hypercube labelling given by the point masks of its images,
    indexed by sign mask: returns the masks of the base and of the residue
    frame, or raises CounterexampleError.

    The base is that of the opposite pairs (x, x ^ (2^m - 1)) of antipodal
    sign masks (``_opposite_base``), with lemma5's payloads.  It then lies in
    every image, hence in every face, a meet of images, so a face is only
    checked for its rank.

    Two faces over the base are residue-collinear exactly when their span is
    singular, i.e. when one lies in the perp of the other.  An image is
    maximal, hence its own perp, so it is the span of its chosen faces
    exactly when their perps meet in it.

    An image then holds exactly its chosen faces, so that is not checked.
    A chosen face is the meet of the images on its side, this one among
    them.  An unchosen face's partner is chosen, so if the image held both,
    it would put them in each other's perp (a maximal is totally isotropic),
    and the residue-frame check has already rejected partners that are.
    """
    full = len(masks) - 1
    m = full.bit_length()
    pairs = [(x, x ^ full) for x in range(len(masks) // 2)]
    base = _opposite_base(space, masks, pairs, space.n - m, "theorem2")
    faces: list[int] = []
    for s in range(2 * m):
        bit = s % m
        want = 1 if s >= m else 0
        q = reduce(and_, (pm for mask, pm in enumerate(masks) if (mask >> bit) & 1 == want))
        if mask_rank(space, q) != space.n - m + 1:
            raise CounterexampleError(
                "theorem2",
                {"kind": "face_intersection_defect", "signed_index": s,
                 "got": subspace_json(subspace_of_mask(space, q))},
            )
        faces.append(q)
    if len(set(faces)) != 2 * m:
        raise CounterexampleError("theorem2", {"kind": "face_subspaces_collide"})
    perps = [perp_mask(space, q) for q in faces]
    for s in range(2 * m):
        for t in range(s + 1, 2 * m):
            expected = t != (s + m) % (2 * m)
            if (not faces[t] & ~perps[s]) != expected:
                raise CounterexampleError(
                    "theorem2",
                    {"kind": "residue_frame_condition", "pair": [s, t], "expected": expected},
                )
    for mask, img in enumerate(masks):
        chosen = [i + m if (mask >> i) & 1 else i for i in range(m)]
        if reduce(and_, (perps[s] for s in chosen)) != img:
            span = subspace_of_mask(space, reduce(or_, (faces[s] for s in chosen)))
            raise CounterexampleError(
                "theorem2",
                {"kind": "image_not_spanned_by_faces", "mask": mask, "span": subspace_json(span)},
            )
    return base, faces


def _apartment_witness(
    space: PolarSpace, images: Sequence[Subspace], masks: Sequence[int]
) -> ApartmentWitness:
    """The witness of the labelling whose images, indexed by sign mask, are
    ``images`` with point masks ``masks``."""
    base, faces = _witness_from_images(space, masks)
    return ApartmentWitness(
        base=subspace_of_mask(space, base),
        residue_frame=tuple(subspace_of_mask(space, q) for q in faces),
        members=tuple(images),
    )


def is_apartment(space: PolarSpace, members) -> ApartmentWitness | None:
    """Recognize an unlabelled set of maximal singular subspaces as an apartment.

    Returns None when the set cannot even be relabeled as an isometrically
    embedded hypercube (wrong size, or no distance-preserving labeling).  If
    a labeling exists but its decomposition fails validation, that failure
    is a counterexample to the characterization and raises instead.

    The labelling needs no search.  Member 0 (in RREF order) takes sign mask
    0 and its i-th neighbor bit i; every other member takes the bits of the
    neighbors it is closer to than to member 0, which in a hypercube are the
    bits of its sign mask.  The set is a hypercube exactly when member 0 has
    m neighbors and every distance is the popcount of the XOR of the labels.
    """
    unique = sorted(set(members), key=lambda s: s.rows)
    for s in unique:
        if s.rank != space.n or not polar.is_singular(space, s):
            raise ValueError("members must be maximal singular subspaces")
    size = len(unique)
    m = size.bit_length() - 1
    if size != 1 << m or not 1 <= m <= space.n:
        return None
    masks = [point_mask(space, s) for s in unique]
    dist = meet_graph(space, unique, masks).dist
    nbrs = [v for v in range(size) if dist[0][v] == 1]
    if len(nbrs) != m:
        return None
    labels = [
        sum(1 << i for i, u in enumerate(nbrs) if dist[v][u] < dist[0][v]) for v in range(size)
    ]
    if any(dist[v][w] != (labels[v] ^ labels[w]).bit_count()
           for v in range(size) for w in range(v)):
        return None
    order = [0] * size
    for v, label in enumerate(labels):
        order[label] = v
    return _apartment_witness(space, [unique[i] for i in order], [masks[i] for i in order])


# -- frame apartments ----------------------------------------------------------


def frame_vertices(space: PolarSpace, graph: DenseGraph):
    """The map sending a frame of ``space`` to the vertices of ``graph`` that
    are the members of its apartment, in sign-mask order; ``graph`` must
    hold every such member (a dual polar graph of ``space`` does)."""
    vertex_of = {mask: v for v, mask in enumerate(graph.masks)}
    return lambda frame: [vertex_of[mask] for mask in polar.apartment_of_frame(space, frame)]


def count_apartments(space: PolarSpace, budget: int) -> tuple[int, bool]:
    """(number of distinct frame apartments, whether every frame was
    enumerated within ``budget`` nodes), with nothing kept per apartment.

    Each frame is round-tripped instead: the members of its apartment on
    either side of a pair must meet in exactly that side's frame point.
    That recovers the frame from its apartment, a left inverse of
    frame -> apartment, so distinct frames have distinct apartments and the
    frames are counted.  A frame that fails raises CounterexampleError.
    """
    index = space.point_index
    # the sign masks on each side of pair k, first point's side first
    sides = [
        [[mask for mask in range(1 << space.n) if mask >> k & 1 == side] for side in (0, 1)]
        for k in range(space.n)
    ]
    frames = 0

    def roundtrip(frame: polar.Frame) -> None:
        nonlocal frames
        members = polar.apartment_of_frame(space, frame)
        for pair, masks in zip(frame.pairs(), sides):
            for i, side in zip(pair, masks):
                if reduce(and_, map(members.__getitem__, side)) != 1 << index[frame.points[i]]:
                    raise CounterexampleError(
                        "theorem2",
                        {"kind": "frame_roundtrip_mismatch",
                         "frame": [list(pt) for pt in frame.points], "point": list(frame.points[i])},
                    )
        frames += 1

    _, complete = polar.enumerate_frames(space, budget=budget, visit=roundtrip)
    return frames, complete


# -- statement verifiers ------------------------------------------------------


def verify_lemma1(
    space: PolarSpace,
    mode: str = "exhaustive",
    budget: int = 10_000,
    seed: int = 0,
    graph: DenseGraph | None = None,
) -> dict:
    """Check that geodesic interiors contain the intersection of the endpoints.

    Exhaustive mode walks the geodesics of every vertex pair one at a time
    and stops when the budget runs out, flagging incompleteness; sample
    mode draws ``budget`` seeded uniform geodesics from random pairs.  Meets
    and containments are taken on the point masks the graph keeps for its
    vertices, so a given ``graph`` must be a dual polar graph of ``space``.
    """
    start = time.perf_counter()
    if graph is None:
        graph = dual_polar_graph(space)
    masks = graph.masks
    violations: list[dict] = []
    tested = 0
    complete = True

    def check_path(path: list[int]) -> None:
        nonlocal tested
        tested += 1
        meet = masks[path[0]] & masks[path[-1]]
        for u in path[1:-1]:
            if meet & ~masks[u]:
                violations.append(
                    {
                        "statement": "lemma1",
                        "path": [subspace_json(graph.labels[x]) for x in path],
                        "interior_vertex": subspace_json(graph.labels[u]),
                    }
                )
                return

    if mode == "exhaustive":
        nv = graph.num_vertices
        for v in range(nv):
            for w in range(v + 1, nv):
                if graph.dist[v][w] < 2:
                    continue
                for path in iter_geodesics(graph, v, w):
                    if tested >= budget:
                        complete = False
                        break
                    check_path(path)
                if not complete:
                    break
            if not complete:
                break
    elif mode == "sample":
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        nv = graph.num_vertices
        while tested < budget:
            v = int(rng.integers(nv))
            w = int(rng.integers(nv))
            if graph.dist[v][w] < 2:
                continue
            _, counts = geodesic_count(graph, v, w)
            path = sample_geodesic(graph, v, w, counts, rng)
            check_path(path)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    return make_report(
        "lemma1", {"p": space.p, "n": space.n, "m": None}, start, {"geodesics": tested},
        violations=violations, complete=complete, expansions=tested, mode=mode,
        budget=budget, seed=seed if mode == "sample" else None,
    )


def verify_theorem2(
    space: PolarSpace,
    m: int,
    mode: str = "exhaustive",
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    workers: int = 1,
) -> dict:
    """Search for embedded hypercubes H_m and validate that every distinct
    image is an apartment over a base of projective dimension n - m - 1.

    Each image is decomposed as soon as the search first finds it, in the
    hypercube labelling of that embedding, on the point masks the dual polar
    graph keeps for its vertices.

    With m = n in exhaustive mode the distinct images are also counted
    against the frame-defined apartments (``count_apartments``).  An image
    that passes the decomposition with m = n is itself a frame apartment, so
    it is not checked again: its faces are 2n distinct points (the base is
    empty), the residue-frame condition makes each collinear with all the
    others except its partner, which makes them a frame, and the span check
    makes each image the AND of the perps of its chosen points, one from each
    pair, which is what ``apartment_of_frame`` computes for that frame.
    """
    if not 1 <= m <= space.n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={space.n}")
    start = time.perf_counter()
    graph = dual_polar_graph(space)
    violations: list[dict] = []

    # vertex v of ``hypercube(m)`` has sign mask v, so an assignment is
    # already indexed by sign mask
    def validate(assignment: tuple[int, ...], new: bool) -> None:
        if not new:
            return
        try:
            _witness_from_images(space, [graph.masks[v] for v in assignment])
        except CounterexampleError as exc:
            violations.append(exc.as_violation())

    _, stats = search_isometric_embeddings(
        hypercube(m), graph, mode, budget, seed, workers, visit=validate
    )

    apartments = None
    if m == space.n and mode == "exhaustive" and stats["complete"]:
        try:
            count, frames_complete = count_apartments(space, budget)
        except CounterexampleError as exc:
            violations.append(exc.as_violation())
            frames_complete = False
        if frames_complete:
            apartments = count
            if apartments != stats["distinct_images"]:
                violations.append(
                    {
                        "statement": "theorem2",
                        "kind": "image_count_vs_apartments",
                        "distinct_images": stats["distinct_images"],
                        "apartments": apartments,
                    }
                )
    return make_report(
        "theorem2", {"p": space.p, "n": space.n, "m": m}, start, {"apartments": apartments},
        violations=violations, search=stats,
    )
