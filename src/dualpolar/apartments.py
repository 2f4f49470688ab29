"""Isometric hypercube embeddings into dual polar graphs.

The search engine backtracks over source vertices in BFS order with full
pairwise-distance pruning.  Found embeddings are then decomposed: the common
base subspace of the image, the 2m residue-frame subspaces obtained by
intersecting the images of opposite hypercube faces, and the reconstruction
of every image as a span.  A set of maximal singular subspaces is recognized
as an apartment exactly when such a decomposition exists.
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
from operator import and_, or_
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
# root branches per chunk dealt to a worker process
_CHUNK = 4


@dataclass(frozen=True, eq=False)
class Embedding:
    """An injective, distance-preserving vertex map between two graphs."""

    source: DenseGraph
    target: DenseGraph
    assignment: tuple[int, ...]

    def image_labels(self) -> list:
        return [self.target.labels[i] for i in self.assignment]


def is_isometric_embedding(mapping, src: DenseGraph, dst: DenseGraph) -> bool:
    """True iff ``mapping`` (vertex -> vertex) is injective and preserves all
    pairwise distances."""
    if isinstance(mapping, dict):
        if sorted(mapping) != list(range(src.num_vertices)):
            return False
        arr = [mapping[i] for i in range(src.num_vertices)]
    else:
        arr = list(mapping)
        if len(arr) != src.num_vertices:
            return False
    if len(set(arr)) != len(arr):
        return False
    for i in range(len(arr)):
        di, si = dst.dist[arr[i]], src.dist[i]
        for j in range(i + 1, len(arr)):
            if di[arr[j]] != si[j]:
                return False
    return True


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
    """Explore one root placement, calling ``leaf(imgs)`` with the images in
    plan order at every full placement; returns (expansions, complete).

    ``at_dist[v][d]`` is the bitmask of target vertices at distance d from v,
    so the candidates left by every distance constraint are one AND per
    placed vertex; they are walked in neighbor order (shuffled in sample mode).
    """
    if budget < 1:
        return 0, False
    imgs = [root_img]
    expansions = 1
    complete = True

    def dfs(k: int) -> None:
        nonlocal expansions, complete
        if k == nsrc:
            leaf(imgs)
            return
        parent, reqs = plan[k - 1]
        allowed = dst_adj[imgs[parent]]
        for j, d in reqs:
            allowed &= at_dist[imgs[j]][d]
        cands = dst_nbrs[imgs[parent]]
        if rng is not None:
            # shuffled even when nothing is allowed, to keep the draws
            cands = list(cands)
            _shuffle(cands, rng)
        if not allowed:
            return
        for cand in cands:
            if not allowed >> cand & 1:
                continue
            if expansions >= budget:
                complete = False
                return
            expansions += 1
            imgs.append(cand)
            dfs(k + 1)
            imgs.pop()
            if not complete:
                return

    if nsrc > 1:
        dfs(1)
    else:
        leaf(imgs)
    # dfs refers to itself; unbinding it frees the branch, and the caller's
    # leaf, now instead of at the next garbage collection
    del dfs
    return expansions, complete


def _pool_size(workers: int, chunks: int) -> int:
    """Worker processes for a search of ``chunks`` root chunks: never more
    than the CPUs this process may run on, and none where ``os.fork`` is
    missing or another thread runs (a forked child would inherit that
    thread's locks in whatever state they are)."""
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(workers, cpus, chunks)


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


def _serve_chunks(branch, roots, fd: int) -> None:
    """Body of a forked worker: one record per root of ``roots`` to ``fd``,
    either ``branch(root)`` or the text of the exception it raised.  Leaves
    through ``os._exit``, never back into the caller's stack."""
    code = 1
    try:
        with os.fdopen(fd, "wb") as out:
            for root in roots:
                try:
                    record = branch(root)
                except Exception as exc:
                    _write_record(out, f"{type(exc).__name__}: {exc}")
                    break
                _write_record(out, record)
            else:
                code = 0
    finally:
        os._exit(code)


def _forked_branches(branch, nroots: int, nprocs: int, replay) -> None:
    """Run ``branch(root)`` -> (expansions, complete, flat leaf images) for
    every root in ``nprocs`` forked children and pass each result to
    ``replay`` in root order, in this process.

    Chunk c of ``_CHUNK`` roots goes to child c % nprocs.  Each child writes
    its records in root order to its own pipe, so the parent reads root r
    from the child that owns it, and a pipe's buffer holds back a child that
    gets ahead.  The children inherit the search's tables by fork, so
    nothing is sent to them.  A child that raises or dies makes this raise
    RuntimeError naming its root; whatever raises, every child is killed
    and reaped and every pipe closed.
    """
    readers: list = []
    pids: list[int] = []
    try:
        for c in range(nprocs):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                os.close(r)
                for reader in readers:
                    os.close(reader.fileno())
                _serve_chunks(branch, [
                    root for root in range(nroots) if root // _CHUNK % nprocs == c
                ], w)
            pids.append(pid)
            os.close(w)
            readers.append(os.fdopen(r, "rb"))
        for root in range(nroots):
            record = _read_record(readers[root // _CHUNK % nprocs])
            if not isinstance(record, tuple):
                raise RuntimeError(
                    f"search branch at root {root} failed in a worker process: "
                    f"{record or 'it exited without a result'}"
                )
            replay(*record)
    finally:
        for reader in readers:
            reader.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


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
    that had nothing to explore."""
    return {
        "mode": mode,
        "budget": budget,
        "seed": seed,
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
    visit=None,
) -> tuple[list[Embedding], dict]:
    """All (or budget-bounded) isometric embeddings of ``src`` into ``dst``.

    The node budget is split over the root-placement branches up front and
    sample mode only permutes candidate order per branch.  With ``workers``
    above 1 the branches run in up to that many forked processes (see
    ``_forked_branches``), capped by the CPUs this process may use; their
    results come back to this process and are replayed in root order, so
    the embeddings, their order and the stats other than ``workers`` are the
    same for every worker count.  Expansions count vertex placements.

    Without ``visit`` the embeddings come back as a list.  With it, each one
    is streamed as ``visit(assignment, key, new)`` the moment it is found and
    the list comes back empty: ``assignment`` is the tuple of target vertices
    of the source vertices, ``key`` the image as an int (bit v set for each
    target vertex v in it) and ``new`` whether this is the first embedding
    with that image.  The stats are the same either way.
    """
    if mode not in ("exhaustive", "sample"):
        raise ValueError(f"unknown mode {mode!r}")
    if budget <= 0:
        raise ValueError("budget must be positive")
    if not src.connected:
        raise ValueError("source graph is disconnected; only connected sources are supported")
    order, plan = _source_plan(src)
    nsrc = src.num_vertices
    nv = dst.num_vertices
    if nv == 0:
        return [], search_stats(mode, budget, seed, workers)
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

    embeddings: list[Embedding] = []
    if visit is None:
        def visit(assignment, key, new):
            embeddings.append(Embedding(src, dst, assignment))
    # position in the plan of each source vertex
    plan_pos = sorted(range(nsrc), key=order.__getitem__)
    keys: set[int] = set()
    found = 0

    def leaf(imgs: list[int]) -> None:
        nonlocal found
        found += 1
        key = 0
        for v in imgs:
            key |= 1 << v
        new = key not in keys
        if new:
            keys.add(key)
        visit(tuple([imgs[k] for k in plan_pos]), key, new)

    def branch(root: int, on_leaf) -> tuple[int, bool]:
        return _branch_search(
            nbrs, dst.adj, at_dist, plan, nsrc, root, shares[root], rngs[root], on_leaf
        )

    expansions = 0
    complete = True
    nprocs = _pool_size(workers, -(-nv // _CHUNK))
    if nprocs > 1:
        def record(root: int) -> tuple[int, bool, list[int]]:
            flat: list[int] = []
            return *branch(root, flat.extend), flat

        def replay(exp: int, comp: bool, flat: list[int]) -> None:
            nonlocal expansions, complete
            for i in range(0, len(flat), nsrc):
                leaf(flat[i:i + nsrc])
            expansions += exp
            complete = complete and comp

        _forked_branches(record, nv, nprocs, replay)
    else:
        for root in range(nv):
            exp, comp = branch(root, leaf)
            expansions += exp
            complete = complete and comp
    stats = search_stats(mode, budget, seed, workers, found, len(keys), expansions, complete)
    return embeddings, stats


def search_hypercube_embeddings(
    m: int,
    graph: DenseGraph,
    mode: str = "exhaustive",
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    workers: int = 1,
    visit=None,
) -> tuple[list[Embedding], dict]:
    """Isometric embeddings of the hypercube H_m into ``graph``, listed or
    streamed to ``visit`` as in ``search_isometric_embeddings``.

    m may exceed the target diameter; the distance constraints then prune
    everything and the search returns no embeddings.
    """
    return search_isometric_embeddings(hypercube(m), graph, mode, budget, seed, workers, visit)


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

    def to_frame(self, space: PolarSpace) -> polar.Frame:
        """The recovered point frame; only defined when the base is empty."""
        if self.base.rank != 0:
            raise ValueError("frame points exist only for full-rank witnesses")
        return _frame_of_points(space, [q.rows[0] for q in self.residue_frame])


def _frame_of_points(space: PolarSpace, pts: list) -> polar.Frame:
    """The Frame on the points of a full-rank residue frame."""
    frame = polar.is_frame(space, pts)
    if frame is None:
        raise CounterexampleError(
            "theorem2", {"kind": "recovered_points_not_a_frame", "points": pts}
        )
    return frame


def _vertices_by_mask(cube: DenseGraph, assignment: Sequence[int]) -> list[int]:
    """Target vertex of each vertex of the hypercube ``cube``, indexed by its
    sign mask."""
    first = cube.labels[0]
    if not hasattr(first, "mask"):
        raise ValueError("embedding source is not a hypercube graph")
    order = [0] * cube.num_vertices
    for v, lab in enumerate(cube.labels):
        order[lab.mask] = assignment[v]
    return order


def _images_by_mask(emb: Embedding) -> list[Subspace]:
    return [emb.target.labels[i] for i in _vertices_by_mask(emb.source, emb.assignment)]


def _base_from_masks(space: PolarSpace, masks: Sequence[int], statement: str) -> int:
    """Point mask of the base of a labelled hypercube given by its images'
    point masks, indexed by sign mask.

    Every sign mask is one side of the opposite pairs checked here, so once
    each pair meets in the base, the base lies in every image and the meet of
    all the images is the base; neither is checked again.
    """
    m = (len(masks) - 1).bit_length()
    full = len(masks) - 1
    base = masks[0] & masks[full]
    rank = mask_rank(space, base)
    if rank != space.n - m:
        raise CounterexampleError(
            statement,
            {
                "kind": "base_dimension",
                "expected_rank": space.n - m,
                "got_rank": rank,
                "base": subspace_json(subspace_of_mask(space, base)),
            },
        )
    for x in range(1 << (m - 1)):
        other = masks[x] & masks[x ^ full]
        if other != base:
            raise CounterexampleError(
                statement,
                {"kind": "base_depends_on_opposite_pair", "mask": x,
                 "other": subspace_json(subspace_of_mask(space, other))},
            )
    return base


def base_subspace(space: PolarSpace, emb: Embedding) -> Subspace:
    """The singular subspace common to every image of an embedded hypercube.

    Computed as the intersection of one opposite image pair and checked to
    have projective dimension n - m - 1 and to be independent of the pair
    chosen, which puts it in every image; failures raise CounterexampleError.
    """
    masks = [point_mask(space, s) for s in _images_by_mask(emb)]
    return subspace_of_mask(space, _base_from_masks(space, masks, "lemma3"))


def _witness_from_images(space: PolarSpace, masks: Sequence[int]) -> tuple[int, list[int]]:
    """Decompose a hypercube labelling given by the point masks of its images,
    indexed by sign mask: returns the masks of the base and of the residue
    frame, or raises CounterexampleError.

    Two faces over the base are residue-collinear exactly when their span is
    singular, i.e. when one lies in the perp of the other.  An image is
    maximal, hence its own perp, so it is the span of its chosen faces
    exactly when their perps meet in it.
    """
    m = (len(masks) - 1).bit_length()
    base = _base_from_masks(space, masks, "theorem2")
    faces: list[int] = []
    for s in range(2 * m):
        bit = s % m
        want = 1 if s >= m else 0
        q = reduce(and_, (pm for mask, pm in enumerate(masks) if (mask >> bit) & 1 == want))
        if mask_rank(space, q) != space.n - m + 1 or base & ~q:
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
        for s in range(2 * m):
            selected = ((mask >> (s % m)) & 1) == (1 if s >= m else 0)
            if (not faces[s] & ~img) != selected:
                raise CounterexampleError(
                    "theorem2",
                    {"kind": "membership_equivalence", "mask": mask, "signed_index": s},
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


def recover_frame(space: PolarSpace, emb: Embedding) -> ApartmentWitness:
    """Decompose a valid embedded hypercube into base and residue frame.

    Every postcondition failure raises CounterexampleError; on hypercubes of
    full rank (m = n) the residue frame consists of single points forming a
    frame of the space.
    """
    images = _images_by_mask(emb)
    return _apartment_witness(space, images, [point_mask(space, s) for s in images])


def is_apartment(space: PolarSpace, members) -> ApartmentWitness | None:
    """Recognize an unlabelled set of maximal singular subspaces as an apartment.

    Returns None when the set cannot even be relabeled as an isometrically
    embedded hypercube (wrong size, or no distance-preserving labeling).  If
    a labeling exists but its decomposition fails validation, that failure
    is a counterexample to the characterization and raises instead.  If the
    labelling search runs out of its budget without finding a labelling,
    RuntimeError is raised: an unfinished search decides nothing.
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
    found, stats = search_isometric_embeddings(
        hypercube(m), meet_graph(space, unique, masks), mode="exhaustive", budget=10**6
    )
    if not found:
        if not stats["complete"]:
            raise RuntimeError("the labelling search ran out of its budget")
        return None
    order = _vertices_by_mask(found[0].source, found[0].assignment)
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
        statement="lemma1",
        instance={"p": space.p, "n": space.n, "m": None},
        mode=mode,
        budget=budget,
        seed=seed if mode == "sample" else None,
        workers=1,
        counts={"geodesics": tested},
        violations=violations,
        complete=complete,
        expansions=tested,
        elapsed=time.perf_counter() - start,
    )


def verify_theorem2(
    space: PolarSpace,
    m: int,
    mode: str = "exhaustive",
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    workers: int = 1,
    graph: DenseGraph | None = None,
) -> dict:
    """Search for embedded hypercubes H_m and validate that every distinct
    image is an apartment over a base of projective dimension n - m - 1.

    Each image is decomposed as soon as the search first finds it, in the
    hypercube labelling of that embedding, on the point masks the graph keeps
    for its vertices (so a given ``graph`` must be a dual polar graph of
    ``space`` or a ``meet_graph``).

    With m = n in exhaustive mode the distinct images are also counted
    against the frame-defined apartments, and each witness is round-tripped
    through its recovered frame.
    """
    if not 1 <= m <= space.n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={space.n}")
    start = time.perf_counter()
    if graph is None:
        graph = dual_polar_graph(space)
    cube = hypercube(m)
    apartment = frame_vertices(space, graph)
    violations: list[dict] = []

    def validate(assignment: tuple[int, ...], key: int, new: bool) -> None:
        if not new:
            return
        order = _vertices_by_mask(cube, assignment)
        try:
            _, faces = _witness_from_images(space, [graph.masks[i] for i in order])
            if m == space.n:
                frame = _frame_of_points(space, [space.points[q.bit_length() - 1] for q in faces])
        except CounterexampleError as exc:
            violations.append(exc.as_violation())
            return
        if m == space.n and sum(1 << v for v in apartment(frame)) != key:
            violations.append(
                {"statement": "theorem2", "kind": "frame_roundtrip_mismatch", "image": _bits(key)}
            )

    _, stats = search_isometric_embeddings(
        cube, graph, mode, budget, seed, workers, visit=validate
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

    counts = {
        "embeddings": stats["embeddings"],
        "distinct_images": stats["distinct_images"],
        "apartments": apartments,
    }
    return make_report(
        statement="theorem2",
        instance={"p": space.p, "n": space.n, "m": m},
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
