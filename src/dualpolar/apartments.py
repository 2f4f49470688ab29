"""Isometric hypercube embeddings into dual polar graphs.

The search engine backtracks over source vertices in BFS order.  The
candidates for a vertex are one AND of distance masks per placed vertex,
read off the target graph's distance classes (``DenseGraph.at_dist[v][d]``,
the target vertices at distance d from v; a pair at ``UNREACHABLE``, 0xFF,
is in no class), and each full placement is streamed to a visitor, from
this process or, above one worker, as the replayed visitor calls of root
branches split over forked children that search beside the visitor's
checks.  An image is decomposed in the
hypercube labelling the search gave it, on the point masks of its members:
the common base subspace and the 2m residue-frame subspaces obtained by
intersecting the images of opposite hypercube faces, which span every
image.  A set of maximal singular subspaces is recognized as an apartment
exactly when such a decomposition exists.

Every draw comes from ``random.Random``: sample mode shuffles candidates
with the draws of one per root branch, and ``verify_lemma1``'s sample mode
draws its pairs and geodesics from ``random.Random(seed)``.
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
from .polar import PolarSpace, point_mask, subspace_of_mask, subspace_size
from .reporting import CounterexampleError, make_report, subspace_json

DEFAULT_BUDGET = 10_000_000


def _source_plan(src: DenseGraph):
    """BFS assignment order from vertex 0, plus per-step distance constraints.

    Step k gets (parent position, [(earlier position, required distance)]).
    The parent is an already-assigned neighbor, so candidates come from one
    adjacency bitmask.  The plan is quadratic in the source, so every step
    shares the one pair ``pairs[j][d]`` for each (j, d) instead of building
    its own.
    """
    order = sorted(range(src.num_vertices), key=lambda v: (src.dist[0][v], v))
    pos_of = {v: k for k, v in enumerate(order)}
    pairs = [tuple((j, d) for d in range(src.diameter + 1)) for j in range(len(order))]
    plan = []
    for k, v in enumerate(order[1:], 1):
        parent = min(pos_of[u] for u in src.neighbors(v) if pos_of[u] < k)
        row = src.dist[v]
        reqs = tuple([pairs[j][row[u]] for j, u in enumerate(order[:k]) if j != parent])
        plan.append((parent, reqs))
    return order, plan


def _shuffle(items: list, getrandbits) -> None:
    """Shuffle ``items`` in place with the draws of CPython 3.11's
    ``random.Random.shuffle``: Fisher-Yates from the end, each index drawn
    by rejection sampling on ``getrandbits``.  It is spelled out so that a
    seed's embeddings do not depend on the Python version's ``shuffle``."""
    for i in range(len(items) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        items[i], items[j] = items[j], items[i]


def _distance_masks(graph: DenseGraph, max_dist: int) -> tuple[tuple[int, ...], ...]:
    """``graph.at_dist`` padded with empty masks up to distance ``max_dist``:
    a source distance beyond the target's diameter matches no target vertex."""
    pad = (0,) * (max_dist - graph.diameter)
    return tuple(classes + pad for classes in graph.at_dist) if pad else graph.at_dist


def _branch_search(
    dst_adj, at_dist, plan, nsrc, root_img, budget, getrandbits, keys, visit, assign
):
    """Explore one root placement; returns (embeddings, canonical images,
    expansions, complete).

    With a set ``keys``, the image key of every full placement is added to
    it and, unless ``visit`` is None, ``visit(assign(imgs), new)`` is called
    at it.  ``imgs`` is the list of images in plan order, and an image key
    is the image as an int, bit v set for each target vertex v in it,
    carried down the DFS; ``new`` says whether the key was not yet in
    ``keys``.  The canonical images are then 0.

    With ``keys`` None the source is ``hypercube(m)``, ``visit`` is None and
    the mode exhaustive, and the branch counts the images whose smallest
    vertex is the root without building any key.  An embedding is its
    image's canonical one when the root is the image's smallest vertex
    (no placed vertex lies below the root, and the last vertex's image lies
    above it) and the first-level images, plan positions 1..m, which are
    the root's neighbours, ascend (``canon``, carried down the DFS, and
    ``floor``).  A canonical placement of position last - 1 counts its last
    vertex's candidates above the root; for H_1 the last level is the first
    level, so that is the ascending rule too.  Exactly one embedding of an
    image is canonical: distances are preserved, so an image induces H_m,
    and two embeddings onto it differ by an automorphism of H_m.  Those with
    e(0) = r match the m! orderings of r's neighbours in the image, since
    the stabiliser of 0 acts as S_m on N(0) and only the identity fixes
    N(0) pointwise.  A complete branch r finds every embedding with
    e(0) = r, so its canonical leaves count exactly the images whose
    smallest vertex is r; the count of an incomplete branch means nothing.

    ``at_dist[v][d]`` is the bitmask of target vertices at distance d from v
    (the target's ``DenseGraph.at_dist``, padded with empty masks up to the
    source's diameter; a pair at ``UNREACHABLE``, 0xFF, is in no mask), so
    the candidates left by every distance constraint are one AND per
    placed vertex.  Exhaustive mode (``getrandbits`` None) walks them in
    ascending order.  Sample mode walks a node's two or more candidates in
    the order of a Fisher-Yates shuffle (``_shuffle``) drawn from the
    branch's ``getrandbits``, except at a last level whose candidates all
    fit in the budget left: every one of them is placed, so they are walked
    in ascending order and draw nothing, with a visitor or without one.  A
    node with at most one candidate draws nothing either.  So a count draws
    what a visiting search draws.

    The last source vertex is placed inline, in the frame that places
    position last - 1, with no frame of its own.  That frame ANDs the last
    vertex's constraints on earlier positions once (its parent's adjacency
    being its distance-1 class), and each of its candidates ANDs in only
    its own row.  The budget is taken for the whole last level at once: a
    canonical count only counts it, a mask is walked bit by bit in place,
    the low bit being the image key's new bit, and a shuffled list is
    walked item by item.  Frames start at position 1, the root placed, or
    at position last - 1 when that is lower: the root's for H_1, and -1 for
    K_1, whose root is its last vertex.  The expansions start at the number
    of positions placed before the first frame, so K_1's frame, which
    places the root once more (``imgs[-1]`` is ``imgs[0]``), counts it once.

    A position before last - 1 whose constraints leave exactly one candidate
    has no frame either: the frame above it places it, ORs it into the key,
    carries ``canon`` past its ``floor`` and moves on to the next position,
    all in one loop at the top of ``dfs``.  Its own frame would list the one
    candidate, draw nothing, and take the budget check and the expansion
    just before placing it, as the loop does, so the draws, expansions,
    budget cut points and visit order are those of a frame per position.
    A position left no candidate returns before any list is built.
    """
    if budget < 1:
        return 0, 0, 0, False
    imgs = [root_img] * nsrc
    last = nsrc - 1
    pen = last - 1
    found = images = 0
    complete = True
    add = None if keys is None else keys.add
    # a canonical count: plan positions 1..first are the root's neighbours,
    # and ``above`` masks the target vertices above the root
    first = nsrc.bit_length() - 1
    root_bit = 1 << root_img
    above = -2 << root_img
    # the last vertex's constraints as (position, distance): the one on
    # position pen is ANDed per candidate, at distance ``dist_pen``
    if last:
        parent, reqs = plan[-1]
        constraints = ((parent, 1),) + reqs
    else:
        constraints = ((pen, 0),)
    dist_pen = next(d for j, d in constraints if j == pen)
    earlier = tuple((j, d) for j, d in constraints if j != pen)

    def dfs(k: int, key: int, canon: bool) -> None:
        nonlocal found, images, expansions, complete
        while True:
            if k > 0:
                parent, reqs = plan[k - 1]
                allowed = dst_adj[imgs[parent]]
                for j, d in reqs:
                    allowed &= at_dist[imgs[j]][d]
            else:
                allowed = root_bit
            if not allowed:
                return
            if k >= pen or allowed & (allowed - 1):
                break
            # one candidate before position last - 1: placed here, as its
            # own frame would place it (k > 0, since pen > k >= top); the
            # expansions never pass the budget
            if expansions == budget:
                complete = False
                return
            expansions += 1
            cand = allowed.bit_length() - 1
            imgs[k] = cand
            key |= allowed
            canon = canon and (k > first or cand > imgs[k - 1])
            k += 1
        cands = _bits(allowed)
        if getrandbits is not None and len(cands) > 1:
            _shuffle(cands, getrandbits)
        # the first level ascends in a canonical embedding
        floor = imgs[k - 1] if 0 < k <= first else -1
        if k < pen:
            for cand in cands:
                if expansions >= budget:
                    complete = False
                    return
                expansions += 1
                imgs[k] = cand
                dfs(k + 1, key | 1 << cand, canon and cand > floor)
                if not complete:
                    return
            return
        base = -1
        for j, d in earlier:
            base &= at_dist[imgs[j]][d]
        # a candidate above ``floor`` completes canonical embeddings, and
        # none does once a placed vertex lies below the root
        if canon and key & -key == root_bit:
            floor = max(floor, root_img - 1)
        else:
            floor = len(dst_adj)
        for cand in cands:
            if expansions >= budget:
                complete = False
                return
            expansions += 1
            imgs[k] = cand
            allowed = base & at_dist[cand][dist_pen]
            total = allowed.bit_count()
            count = budget - expansions
            if total <= count:
                count = total
            else:
                complete = False
            found += count
            expansions += count
            if add is None:
                if cand > floor:
                    images += (allowed & above).bit_count()
            elif complete or getrandbits is None or not allowed & (allowed - 1):
                # a level that fits in the budget, or has at most one
                # candidate, draws nothing: walked as a mask, ascending
                leaf_key = key | 1 << cand
                if visit is None:
                    for _ in range(count):
                        low = allowed & -allowed
                        add(leaf_key | low)
                        allowed ^= low
                else:
                    for _ in range(count):
                        low = allowed & -allowed
                        allowed ^= low
                        imgs[last] = low.bit_length() - 1
                        leaf = leaf_key | low
                        new = leaf not in keys
                        if new:
                            add(leaf)
                        visit(assign(imgs), new)
            else:
                leaves = _bits(allowed)
                _shuffle(leaves, getrandbits)
                for img in leaves[:count]:
                    imgs[last] = img
                    leaf = key | 1 << cand | 1 << img
                    new = leaf not in keys
                    if new:
                        add(leaf)
                    if visit is not None:
                        visit(assign(imgs), new)
            if not complete:
                return

    top = min(pen, 1)
    expansions = top
    dfs(top, root_bit, add is None)
    # dfs refers to itself; unbinding it frees the branch, and the caller's
    # visitor, now instead of at the next garbage collection
    del dfs
    return found, images, expansions, complete


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _can_fork(workers: int) -> bool:
    """Whether a search at ``workers`` runs its root branches in forked
    children: only above one worker, where ``os.fork`` exists, no other
    thread runs (a forked child would inherit that thread's locks in
    whatever state they are) and this process may run on two CPUs or more.
    The search then forks min(``workers``, usable CPUs, roots) children, so
    never more children than CPUs, whatever ``workers`` says."""
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    return _usable_cpus() > 1


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


def _serve_branches(branch, roots, fd: int, inherited) -> None:
    """Body of a forked child: run ``branch(root, keys, visit)`` for each of
    ``roots`` in order, with one set of image keys, and write one record per
    root to ``fd``: (visitor calls, embeddings, expansions, complete), or
    the text of the exception a branch raised.  A call is (assignment,
    image key), the key 0 when this child has seen the image before.  Closes
    the ``inherited`` read ends of earlier children's pipes first and leaves
    through ``os._exit``."""
    code = 1
    try:
        for reader in inherited:
            reader.close()
        with os.fdopen(fd, "wb") as out:
            keys: set[int] = set()
            calls: list[tuple] = []

            def found(assignment, new) -> None:
                calls.append((assignment, sum(1 << v for v in assignment) if new else 0))

            try:
                for root in roots:
                    emb, _, exp, comp = branch(root, keys, found)
                    _write_record(out, (calls, emb, exp, comp))
                    calls.clear()
            except Exception as exc:
                _write_record(out, f"{type(exc).__name__}: {exc}")
            else:
                code = 0
    finally:
        os._exit(code)


def _forked_search(branch, nroots: int, children: int, visit) -> tuple[int, int, int, bool]:
    """Run the root branches in ``children`` forked children, child c
    taking the roots r with r % children == c in ascending order
    (``_serve_branches``), and replay their visitor calls through ``visit``
    in this process in root order; returns (embeddings, distinct images,
    expansions, complete) summed over the branches.

    ``new`` is decided here, from one set of image keys filled in root
    order, so it and the distinct-image count are those of one worker.  A
    child sends an image's key only with its first embedding there: an
    image it has seen before was also seen before in root order.  The
    children inherit the search's tables by fork, so nothing is sent to
    them, and each pipe's buffer holds back a child that gets ahead.  A
    child that raises or dies makes this raise RuntimeError naming the root
    whose record never arrived; whatever raises, every child is killed and
    reaped and every pipe closed.
    """
    pids: list[int] = []
    readers: list = []
    try:
        for c in range(children):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                os.close(r)
                _serve_branches(branch, range(c, nroots, children), w, readers)
            pids.append(pid)
            os.close(w)
            readers.append(os.fdopen(r, "rb"))
        keys: set[int] = set()
        found = expansions = 0
        complete = True
        for root in range(nroots):
            record = _read_record(readers[root % children])
            if not isinstance(record, tuple):
                raise RuntimeError(
                    f"search branch at root {root} failed in a forked search process: "
                    f"{record or 'it exited without a result'}"
                )
            calls, emb, exp, comp = record
            for assignment, key in calls:
                new = key != 0 and key not in keys
                if new:
                    keys.add(key)
                visit(assignment, new)
            found += emb
            expansions += exp
            complete = complete and comp
        return found, len(keys), expansions, complete
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for reader in readers:
            reader.close()


def _check_search_args(mode: str, budget: int, seed: int, workers: int) -> None:
    """Raise ValueError unless ``mode``, ``budget``, ``seed`` and ``workers``
    are a valid search's; the seed matters only in sample mode."""
    if mode not in ("exhaustive", "sample"):
        raise ValueError(f"unknown mode {mode!r}")
    if budget <= 0:
        raise ValueError("budget must be positive")
    if mode == "sample" and seed < 0:
        raise ValueError("seed must be non-negative")
    if workers < 1:
        raise ValueError("workers must be at least 1")


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
    ``dst`` to ``visit``, or only count them when ``visit`` is None;
    returns (None, stats).

    The node budget is split over the root-placement branches up front and
    sample mode only permutes candidate order per branch (``_branch_search``
    says which nodes draw), with one ``random.Random`` per branch: root r's
    is seeded with the r-th ``getrandbits(64)`` of ``random.Random(seed)``.
    A negative seed in sample mode, or fewer than one worker, raises
    ValueError (``_check_search_args``), and so does an empty or
    disconnected source.  Exhaustive mode draws nothing.
    ``branch(root, keys, on_found)`` runs one root branch.  With one worker
    the branches run here in root order on one set of image keys.  With
    ``workers`` above 1 and a visitor they are split over
    min(``workers``, usable CPUs, roots) forked children, root r in child
    r mod children (see ``_forked_search`` and ``_can_fork``), whose visitor
    calls are replayed here in root order, with ``new`` decided here from
    one set of image keys.  So the embeddings, their order and the stats
    other than ``workers`` are the same for every worker count.  Expansions
    count vertex placements.

    Each embedding is streamed as ``visit(assignment, new)`` the moment it
    is found: ``assignment`` is the tuple of target vertices of the source
    vertices and ``new`` whether this is the first embedding with that
    image.  ``visit`` is a required keyword; None asks for the stats alone:
    no assignment is built and nothing forks, whatever ``workers`` says.
    An exhaustive count of ``hypercube(m)`` builds no image key either:
    each complete branch counts the images whose smallest vertex is its
    root by their canonical embeddings (``_branch_search``).  From the
    first incomplete branch r0 on, which found only part of its images,
    the branches run again on the key set, and the images that miss every
    root below r0 are the keys disjoint from ``done``; the images through
    those roots are already counted, since a complete branch r finds
    every image through r.  So ``distinct_images`` stays exact, at the
    cost of one branch's share run twice.  Every other count adds the
    image key of each embedding to the set.
    """
    _check_search_args(mode, budget, seed, workers)
    if not src.num_vertices:
        raise ValueError("source graph is empty; it has no embedding to search for")
    if not src.connected:
        raise ValueError("source graph is disconnected; only connected sources are supported")
    order, plan = _source_plan(src)
    nsrc = src.num_vertices
    nv = dst.num_vertices
    if nv == 0:
        return None, search_stats(mode, budget, seed, workers)
    at_dist = _distance_masks(dst, src.diameter)
    shares = [budget // nv + (1 if i < budget % nv else 0) for i in range(nv)]
    if mode == "sample":
        # one independent stream per root branch, all split from the one seed
        rng = random.Random(seed)
        seeds = [rng.getrandbits(64) for _ in range(nv)]
    # position in the plan of each source vertex
    plan_pos = sorted(range(nsrc), key=order.__getitem__)
    # the assignment of a leaf's images; itemgetter of two or more positions
    # returns a tuple, and a one-vertex plan is in vertex order
    assign = tuple if plan_pos == list(range(nsrc)) else itemgetter(*plan_pos)

    m = src.diameter
    # a count of hypercube images takes canonical leaves (``_branch_search``)
    canonical = (
        visit is None and mode == "exhaustive" and m >= 1 and nsrc == 1 << m
        and src.adj == hypercube(m).adj
    )

    def branch(root: int, keys, on_found):
        draws = random.Random(seeds[root]).getrandbits if mode == "sample" else None
        return _branch_search(
            dst.adj, at_dist, plan, nsrc, root, shares[root], draws, keys, on_found, assign
        )

    if visit is not None and _can_fork(workers):
        children = min(workers, _usable_cpus(), nv)
        found, images, expansions, complete = _forked_search(branch, nv, children, visit)
        return None, search_stats(mode, budget, seed, workers, found, images, expansions, complete)
    keys: set[int] = set()
    found = images = expansions = 0
    complete = True
    # the vertices below the first incomplete branch of a canonical count
    done = 0
    for root in range(nv):
        emb, img, exp, comp = branch(root, None if canonical and complete else keys, visit)
        if canonical and complete and not comp:
            # the images found so far are those through the vertices below
            # this root, each counted once; from here on, the image keys
            # count the images that miss them
            done = (1 << root) - 1
            emb, img, exp, comp = branch(root, keys, visit)
        found += emb
        images += img
        expansions += exp
        complete = complete and comp
    images += sum(1 for key in keys if not key & done) if done else len(keys)
    return None, search_stats(mode, budget, seed, workers, found, images, expansions, complete)


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

    def to_frame(self, space: PolarSpace) -> polar.Frame | None:
        """The point frame of a full-rank witness (empty base).

        It is None only for a witness built by hand.  For one that
        ``is_apartment`` returns, ``_decomposer`` has checked that
        the 2n faces are single points, and its base and face checks imply
        that they are distinct and each collinear with every other except
        its partner, which is what ``polar.is_frame`` asks of a frame.
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
    if base.bit_count() != subspace_size(space, rank):
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


def _decomposer(space: PolarSpace, m: int):
    """The decomposition of hypercube labellings of H_m in ``space``, given
    by the point masks of their images, maximal singular subspaces indexed
    by sign mask: returns ``decompose(masks)``, which returns the masks of
    the base and of the residue frame or raises CounterexampleError.  Make
    one per verifier call: it builds the antipodal pairs and each face's
    sign masks once.

    The base B is that of the opposite pairs (x, x ^ (2^m - 1)) of antipodal
    sign masks (``_opposite_base``), with lemma5's payloads.  It then lies in
    every image, hence in every face, a meet of images, so a face is only
    checked to lie one rank above B.  Those two checks imply the rest of
    the decomposition, which is not checked again:

    - Non-partner faces q_s, q_t lie in a common image, which is totally
      singular, so q_t lies in perp(q_s).
    - An image X on a face's side holds it, and X's antipode X' is on the
      other side of every bit.  So an unchosen face held by X would lie in
      X and X', in B; X holds exactly its chosen faces.  The 2m faces are
      distinct for the same reason: for s != t, some image on s's side has
      its antipode on t's side (any image on s's side when t is its
      partner, else one off t's side), so q_s = q_t would lie in B.
    - X is the span of its chosen faces.  Else they are dependent over B,
      so one of them, q_i, lies in the span of B and the others.  The image
      Z that differs from X at bit i only holds those, hence q_i, and so
      does its antipode, which is on q_i's side: q_i lies in B.
    - Partners q_i, q_i' are not perpendicular.  Else q_i' lies in the perp
      of the chosen faces of an image X on q_i's side, which span X, and a
      maximal is its own perp: q_i' lies in X, and as above in B.
    """
    full = (1 << m) - 1
    pairs = [(x, x ^ full) for x in range(1 << m - 1)]
    rank = space.n - m
    face_size = subspace_size(space, rank + 1)
    # face s holds the images whose bit s % m is 1 exactly when s >= m
    sides = [tuple(x for x in range(full + 1) if (x >> s % m) & 1 == (s >= m))
             for s in range(2 * m)]

    def decompose(masks: Sequence[int]) -> tuple[int, list[int]]:
        base = _opposite_base(space, masks, pairs, rank, "theorem2")
        faces: list[int] = []
        for s, side in enumerate(sides):
            q = reduce(and_, map(masks.__getitem__, side))
            if q.bit_count() != face_size:
                raise CounterexampleError(
                    "theorem2",
                    {"kind": "face_intersection_defect", "signed_index": s,
                     "got": subspace_json(subspace_of_mask(space, q))},
                )
            faces.append(q)
        return base, faces

    return decompose


def _witness_from_images(space: PolarSpace, masks: Sequence[int]) -> tuple[int, list[int]]:
    """The decomposition of one labelling by a fresh ``_decomposer``."""
    return _decomposer(space, (len(masks) - 1).bit_length())(masks)


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
    if not 1 <= m <= space.n or size != 1 << m:
        return None
    masks = [point_mask(space, s) for s in unique]
    graph = meet_graph(space, unique, masks)
    dist = graph.dist
    nbrs = graph.neighbors(0)
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
    base, faces = _witness_from_images(space, [masks[i] for i in order])
    return ApartmentWitness(
        base=subspace_of_mask(space, base),
        residue_frame=tuple(subspace_of_mask(space, q) for q in faces),
        members=tuple(unique[i] for i in order),
    )


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
    An unknown mode, a budget below 1 or, in sample mode, a negative seed
    raises ValueError (``_check_search_args``).
    """
    _check_search_args(mode, budget, seed, 1)
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
        # every pair v < w at distance 2 or more, in index order
        paths = (
            path
            for v, classes in enumerate(graph.at_dist)
            for w in _bits(reduce(or_, classes[2:], 0) >> v + 1 << v + 1)
            for path in iter_geodesics(graph, v, w)
        )
        for path in paths:
            if tested >= budget:
                complete = False
                break
            check_path(path)
    else:
        rng = random.Random(seed)
        nv = graph.num_vertices
        while tested < budget:
            v, w = rng.randrange(nv), rng.randrange(nv)
            if v == w or graph.adj[v] >> w & 1:
                continue
            _, counts = geodesic_count(graph, v, w)
            path = sample_geodesic(graph, v, w, counts, rng)
            check_path(path)

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

    With m = n, an image that passes the decomposition is a frame apartment,
    so it is not checked again.  Its base is empty, so its 2n faces are
    distinct points, each collinear with all the others except its partner,
    which makes them a frame, and each image is the span of its chosen
    points, one from each pair, which is what ``apartment_of_frame``
    computes for that frame (``_decomposer`` argues all three).

    A complete m = n search in exhaustive mode also counts its distinct
    images against the closed form ``polar.frame_count``, one apartment per
    frame.  The frames are not enumerated for that: the count is the one
    ``count_apartments`` would give within the same budget.  A frame
    enumeration takes at most frames * (2^n - 1) nodes, since each of its
    nodes is a set of k >= 1 mutually perpendicular hyperbolic pairs and
    each such set lies in a frame.  A complete H_n search finds
    frames * 2^n * n! embeddings, and each costs at least one expansion, so
    the enumeration would have completed within the budget too.
    """
    if not 1 <= m <= space.n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={space.n}")
    start = time.perf_counter()
    graph = dual_polar_graph(space)
    violations: list[dict] = []
    decompose = _decomposer(space, m)

    # vertex v of ``hypercube(m)`` has sign mask v, so an assignment is
    # already indexed by sign mask
    def validate(assignment: tuple[int, ...], new: bool) -> None:
        if not new:
            return
        try:
            decompose([graph.masks[v] for v in assignment])
        except CounterexampleError as exc:
            violations.append(exc.as_violation())

    _, stats = search_isometric_embeddings(
        hypercube(m), graph, mode, budget, seed, workers, visit=validate
    )

    apartments = None
    if m == space.n and mode == "exhaustive" and stats["complete"]:
        apartments = polar.frame_count(space)
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
