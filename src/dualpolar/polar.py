"""Symplectic polar spaces of rank n over GF(p).

The model is the projective space of GF(p)^{2n} equipped with the standard
alternating form pairing coordinates (2i, 2i+1).  Every projective point is
isotropic, collinearity is vanishing of the form, and singular subspaces are
the totally isotropic linear subspaces (projective dimension = rank - 1).
The singular subspaces are enumerated layer by layer by canonical parent:
each one in RREF extends the subspace of its first rank - 1 rows by one
perpendicular point, so it is built exactly once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from itertools import product
from math import factorial, prod
from operator import or_
from typing import Iterable, Sequence

from .linalg import GF, Subspace, nullspace, rref

SUPPORTED_PRIMES = (2, 3, 5)

Point = tuple[int, ...]


def projdim(sub: Subspace) -> int:
    """Projective dimension of a subspace (-1 for the zero subspace)."""
    return sub.rank - 1


def normalize_point(field: GF, v: Sequence[int]) -> Point:
    """Unique representative of a projective point: first nonzero coord is 1."""
    p = field.p
    vec = [x % p for x in v]
    lead = next((x for x in vec if x), None)
    if lead is None:
        raise ValueError("zero vector does not represent a projective point")
    if lead != 1:
        scale = field.inv[lead]
        vec = [(x * scale) % p for x in vec]
    return tuple(vec)


class PolarSpace:
    """The rank-n symplectic polar space over GF(p), p in {2, 3, 5}."""

    def __init__(self, n: int, p: int):
        if n < 2:
            raise ValueError(f"rank must be at least 2, got {n}")
        if p not in SUPPORTED_PRIMES:
            raise ValueError(f"p must be one of {SUPPORTED_PRIMES}, got {p}")
        self.n = n
        self.p = p
        self.dim = 2 * n
        self.field = GF(p)
        self.points: tuple[Point, ...] = tuple(sorted(self._all_points()))
        self.point_index = {pt: i for i, pt in enumerate(self.points)}
        self._collinear_masks: list[int] | None = None
        self._singular_cache: dict[int, tuple[Subspace, ...]] = {}
        self._graph_cache = None  # set by graphs.dual_polar_graph

    def _all_points(self) -> Iterable[Point]:
        p, d = self.p, self.dim
        for lead in range(d):
            for tail in product(range(p), repeat=d - lead - 1):
                yield (0,) * lead + (1,) + tail

    # -- point-line geometry interface used by check_polar_axioms ------------

    def point_count(self) -> int:
        return len(self.points)

    def collinear_mask(self, i: int) -> int:
        return self.collinear_masks()[i]

    def collinear_masks(self) -> list[int]:
        """For each point x, the bitmask of the points collinear with x, x
        itself left out.

        The form is linear in y, so form(x, y) is sum_c w_c y_c with the
        coefficients w_c = form(x, e_c) of ``_form_row``.  It is folded in
        one coordinate at a time over the masks ``coord[c][a]`` of the
        points whose coordinate c is a: ``res[r]`` holds the points whose
        partial sum is r, so after the last coordinate ``res[0]`` holds the
        points y with form(x, y) = 0.
        """
        if self._collinear_masks is None:
            p, dim = self.p, self.dim
            coord = [[0] * p for _ in range(dim)]
            for i, pt in enumerate(self.points):
                for c, a in enumerate(pt):
                    coord[c][a] |= 1 << i
            masks = []
            for i, pt in enumerate(self.points):
                res = [(1 << len(self.points)) - 1] + [0] * (p - 1)
                for c, w in enumerate(_form_row(self, pt)):
                    if w:
                        res = [
                            reduce(or_, [res[(r - w * a) % p] & coord[c][a] for a in range(p)])
                            for r in range(p)
                        ]
                masks.append(res[0] & ~(1 << i))
            self._collinear_masks = masks
        return self._collinear_masks

    def line_index_sets(self) -> list[tuple[int, ...]]:
        lines = enumerate_singular(self, 1)
        return [
            tuple(sorted(self.point_index[pt] for pt in points_in_subspace(self, L)))
            for L in lines
        ]

    def describe_point(self, i: int) -> list[int]:
        return list(self.points[i])

    def __repr__(self) -> str:
        return f"PolarSpace(n={self.n}, p={self.p})"


def form_value(space: PolarSpace, u: Sequence[int], v: Sequence[int]) -> int:
    """The standard alternating form sum_i u_2i v_2i+1 - u_2i+1 v_2i, in
    [0, p).  Its Gram matrix, n blocks [[0, 1], [-1, 0]], is alternating and
    invertible, and e_0, e_2, ..., e_2n-2 span a totally isotropic subspace
    of rank n, so the model needs no check at construction.
    """
    if len(u) != space.dim or len(v) != space.dim:
        raise ValueError("vectors must have length 2n")
    acc = 0
    for i in range(space.n):
        acc += u[2 * i] * v[2 * i + 1] - u[2 * i + 1] * v[2 * i]
    return acc % space.p


def _form_row(space: PolarSpace, u: Sequence[int]) -> list[int]:
    """The coefficients form(u, e_c) of the linear map y -> form(u, y), read
    off ``form_value`` at the unit vectors e_c."""
    dim = space.dim
    return [form_value(space, u, [int(k == c) for k in range(dim)]) for c in range(dim)]


def is_singular(space: PolarSpace, sub: Subspace) -> bool:
    """True iff the subspace is totally isotropic."""
    rows = sub.rows
    return all(
        form_value(space, rows[i], rows[j]) == 0
        for i in range(len(rows))
        for j in range(i + 1, len(rows))
    )


def perp_subspace(space: PolarSpace, sub: Subspace) -> Subspace:
    """The full linear subspace of vectors orthogonal to every row of ``sub``:
    the nullspace of the rows' ``_form_row`` coefficients."""
    return nullspace(space.field, [_form_row(space, row) for row in sub.rows], space.dim)


def points_in_subspace(space: PolarSpace, sub: Subspace) -> list[Point]:
    """All normalized points of a linear subspace.

    RREF rows make the canonical coefficient sweep (leading coefficient 1)
    emit vectors that are already normalized.
    """
    p = space.p
    rows = sub.rows
    out: list[Point] = []
    for k in range(len(rows)):
        base = rows[k]
        for tail in product(range(p), repeat=len(rows) - k - 1):
            vec = list(base)
            for c, row in zip(tail, rows[k + 1 :]):
                if c:
                    vec = [(x + c * y) % p for x, y in zip(vec, row)]
            out.append(tuple(vec))
    return out


# -- subspaces as point bitmasks ----------------------------------------------
#
# A subspace is determined by its point set, so bit i of a mask stands for
# space.points[i]: meet = AND, containment = subset test, and the rank follows
# from the popcount, a rank-r subspace having (p^r - 1)/(p - 1) points.


def _bits(mask: int) -> list[int]:
    """The indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def point_mask(space: PolarSpace, sub: Subspace) -> int:
    """Bitmask of the points of ``sub`` over ``space.points``."""
    index = space.point_index
    mask = 0
    for pt in points_in_subspace(space, sub):
        mask |= 1 << index[pt]
    return mask


def subspace_size(space: PolarSpace, rank: int) -> int:
    """Number of points of a subspace of linear rank ``rank``: a mask is such
    a subspace's point set only if its popcount is this."""
    return (space.p**rank - 1) // (space.p - 1)


def subspace_of_mask(space: PolarSpace, mask: int) -> Subspace:
    """The canonical RREF subspace spanned by the points of ``mask``.  A
    normalized point is its own RREF, so a mask of at most one point needs
    no reduction."""
    rows = []
    while mask:
        low = mask & -mask
        rows.append(space.points[low.bit_length() - 1])
        mask ^= low
    if len(rows) <= 1:
        return Subspace(tuple(rows), space.dim)
    return rref(space.field, rows, space.dim)


def perp_mask(space: PolarSpace, mask: int) -> int:
    """Point mask of the perp of the subspace spanned by the points of ``mask``."""
    collinear = space.collinear_masks()
    perp = (1 << len(space.points)) - 1
    while mask:
        low = mask & -mask
        perp &= collinear[low.bit_length() - 1] | low
        mask ^= low
    return perp


def enumerate_singular(space: PolarSpace, k: int) -> tuple[Subspace, ...]:
    """All singular subspaces of projective dimension k, canonically sorted.

    Layer 0 is the points, one ``rref`` each.  Layer k + 1 is grown from
    layer k by canonical parent: a subspace T in RREF is its first rank - 1
    rows (a singular subspace P in RREF) plus a last row v, a normalized
    point perpendicular to P whose pivot lies beyond P's last pivot and in a
    column where every row of P is zero.  Each (P, v) pair of that kind
    yields T exactly once, and P's rows followed by v are already T's RREF
    rows (see ``_children``), so no layer above 0 reduces a matrix.

    Every layer comes out sorted by its rows without a sort.  Layer 0 is
    ``space.points``, which is sorted.  Two children of different parents
    first differ inside their first k + 1 rows, exactly where their parents
    do, so they follow their parents' order; and one parent's children are
    yielded in ascending point index, which is ascending order of v.
    """
    if not 0 <= k <= space.n - 1:
        raise ValueError(f"projective dimension {k} out of range [0, {space.n - 1}]")
    cache = space._singular_cache
    if not cache:
        cache[0] = tuple(rref(space.field, [pt], space.dim) for pt in space.points)
    for kk in range(max(cache) + 1, k + 1):
        cache[kk] = tuple(_children(space, cache[kk - 1]))
    return cache[k]


def _children(space: PolarSpace, layer: Sequence[Subspace]) -> Iterable[Subspace]:
    """The subspaces one rank up whose canonical parent lies in ``layer``,
    parent by parent and each parent's in ascending point index.

    A child is ``Subspace(parent.rows + (v,))`` with v a normalized point
    perpendicular to every row of the parent, whose pivot c lies after the
    parent's last pivot and in a column where every row of the parent is 0.
    Those rows are already in RREF, so they are not reduced: the pivots
    increase, v is 0 in every earlier pivot column because they all lie
    before c, and the parent is 0 in v's pivot column c.

    The candidates are one mask, taken from per-point masks alone.
    ``support[i]`` has bit c set when coordinate c of point i is nonzero, so
    the parent's free columns are the complement of the OR of its rows'
    supports, cut to the columns after its last pivot (the lowest bit of
    its last row's support).  The candidates are the OR of ``lead[c]``, the
    points whose pivot is c, over those columns, kept per set of free
    columns for this call, ANDed with the perps of the parent's rows.
    """
    d = space.dim
    perp = space.collinear_masks()
    index = space.point_index
    lead = [0] * d
    support = []
    for i, pt in enumerate(space.points):
        lead[pt.index(1)] |= 1 << i
        support.append(sum(1 << c for c, x in enumerate(pt) if x))
    full = (1 << d) - 1
    leads_of: dict[int, int] = {}
    for parent in layer:
        rows = parent.rows
        used, cands = 0, -1
        for row in rows:
            i = index[row]
            used |= support[i]
            cands &= perp[i] | 1 << i
        last = support[i] & -support[i]  # the last row's pivot bit
        free = ~used & -(last << 1) & full
        leads = leads_of.get(free)
        if leads is None:
            leads = leads_of[free] = reduce(or_, [lead[c] for c in _bits(free)], 0)
        cands &= leads
        while cands:
            low = cands & -cands
            cands ^= low
            yield Subspace(rows + (space.points[low.bit_length() - 1],), d)


def star(space: PolarSpace, base: Subspace, k: int) -> tuple[Subspace, ...]:
    """All singular subspaces of projective dimension k containing ``base``."""
    if not projdim(base) < k <= space.n - 1:
        raise ValueError(f"need projdim(base) < k <= n-1, got {projdim(base)} and {k}")
    if not is_singular(space, base):
        raise ValueError("base subspace is not singular")
    inner = point_mask(space, base)
    return tuple(s for s in enumerate_singular(space, k) if not inner & ~point_mask(space, s))


class ResidueSpace:
    """Point-line geometry of the residue of a singular subspace.

    Points are the singular subspaces one step above the base, lines are
    induced by the subspaces two steps above.  For a base of projective
    dimension m in a rank-n space this is a polar space of rank n - m - 1.
    Two points are collinear when their span is singular, i.e. when one lies
    in the perp of the other.
    """

    def __init__(self, space: PolarSpace, base: Subspace):
        m = projdim(base)
        if m > space.n - 3:
            raise ValueError("residue of rank < 2 is excluded from axiom checks")
        self.space = space
        self.base = base
        self.rank = space.n - m - 1
        self.points = star(space, base, m + 1)
        masks = [point_mask(space, s) for s in self.points]
        self._lines = [
            tuple(i for i, mask in enumerate(masks) if not mask & ~upper)
            for upper in (point_mask(space, s) for s in star(space, base, m + 2))
        ]
        self._masks = [0] * len(masks)
        for i, mask in enumerate(masks):
            perp = perp_mask(space, mask)
            for j in range(i + 1, len(masks)):
                if not masks[j] & ~perp:
                    self._masks[i] |= 1 << j
                    self._masks[j] |= 1 << i

    def point_count(self) -> int:
        return len(self.points)

    def collinear_mask(self, i: int) -> int:
        return self._masks[i]

    def line_index_sets(self) -> list[tuple[int, ...]]:
        return list(self._lines)

    def describe_point(self, i: int) -> list[list[int]]:
        return [list(row) for row in self.points[i].rows]


def check_polar_axioms(geom) -> dict:
    """Exhaustively verify the polar-space axioms on a point-line geometry.

    ``geom`` provides point_count(), collinear_mask(i), line_index_sets() and
    describe_point(i).  Returns a report with one pass/fail entry per axiom
    and a witness for each failure; never raises.
    """
    npts = geom.point_count()
    lines = geom.line_index_sets()
    full = (1 << npts) - 1
    axioms = []

    small = [L for L in lines if len(L) < 3]
    axioms.append(
        {
            "axiom": "every line has at least three points",
            "ok": not small,
            "witness": None if not small else [geom.describe_point(i) for i in small[0]],
        }
    )

    deep = next(
        (i for i in range(npts) if geom.collinear_mask(i) | (1 << i) == full), None
    )
    axioms.append(
        {
            "axiom": "no point is collinear with all points",
            "ok": deep is None,
            "witness": None if deep is None else geom.describe_point(deep),
        }
    )

    bad = None
    line_masks = []
    for L in lines:
        mask = 0
        for j in L:
            mask |= 1 << j
        line_masks.append(mask)
    for i in range(npts):
        cm = geom.collinear_mask(i)
        for L, mask in zip(lines, line_masks):
            hits = (cm & mask).bit_count()
            if mask >> i & 1:
                ok = hits == len(L) - 1
            else:
                ok = hits in (1, len(L))
            if not ok:
                bad = {
                    "point": geom.describe_point(i),
                    "line": [geom.describe_point(j) for j in L],
                    "collinear_count": hits,
                }
                break
        if bad:
            break
    axioms.append(
        {"axiom": "a point is collinear with one or all points of a line", "ok": bad is None, "witness": bad}
    )

    # flags of singular subspaces are chains of nested subspaces; the model is
    # finite, so every flag is
    axioms.append({"axiom": "every singular-subspace flag is finite", "ok": True, "witness": None})

    return {
        "ok": all(a["ok"] for a in axioms),
        "points": npts,
        "lines": len(lines),
        "axioms": axioms,
    }


# -- frames and apartments ---------------------------------------------------


@dataclass(frozen=True)
class Frame:
    """2n points such that each has a unique non-collinear partner.

    ``points`` are lexicographically sorted; ``sigma[i]`` is the index of the
    partner of points[i] (a fixed-point-free involution).
    """

    points: tuple[Point, ...]
    sigma: tuple[int, ...]

    def pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i, j in enumerate(self.sigma) if i < j]


def is_frame(space: PolarSpace, points: Sequence[Sequence[int]]) -> Frame | None:
    """The Frame on these points, or None if some point lacks a unique
    non-collinear partner among the others."""
    if len(points) != 2 * space.n:
        raise ValueError(f"a frame needs exactly {2 * space.n} points")
    if any(len(pt) != space.dim for pt in points):
        raise ValueError("vectors must have length 2n")
    idx = sorted({space.point_index[normalize_point(space.field, pt)] for pt in points})
    if len(idx) != 2 * space.n:
        raise ValueError("frame points must be distinct")
    return _frame_of_indices(space, idx)


def _frame_of_indices(space: PolarSpace, idx: list[int]) -> Frame | None:
    """``is_frame`` on the points with these increasing indices, with the
    partners read off ``collinear_masks()``."""
    collinear = space.collinear_masks()
    chosen = 0
    for i in idx:
        chosen |= 1 << i
    sigma = []
    for i in idx:
        partners = chosen & ~collinear[i] & ~(1 << i)
        if partners.bit_count() != 1:
            return None
        sigma.append(idx.index(partners.bit_length() - 1))
    return Frame(tuple(space.points[i] for i in idx), tuple(sigma))


def enumerate_frames(
    space: PolarSpace, budget: int = 10**7, visit=None
) -> tuple[list[Frame], bool]:
    """All frames up to set equality, by backtracking over hyperbolic pairs.

    Pairs are chosen with increasing anchors inside the perp of everything
    chosen so far, which generates each frame exactly once; the perp is the
    AND of ``collinear_masks()[x] | 1 << x`` over the chosen points x.
    Returns (frames, complete); complete is False when the node budget ran
    out first.  With ``visit``, each frame is passed to it as soon as it is
    found and the returned list is empty.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    collinear = space.collinear_masks()
    frames: list[Frame] = []
    emit = frames.append if visit is None else visit
    nodes = 0
    exhausted = False

    def descend(chosen: list[int], cands: int, last_anchor: int) -> None:
        nonlocal nodes, exhausted
        if len(chosen) == 2 * space.n:
            emit(_frame_of_indices(space, sorted(chosen)))
            return
        anchors = cands >> (last_anchor + 1) << (last_anchor + 1)
        while anchors:
            low = anchors & -anchors
            anchors ^= low
            a = low.bit_length() - 1
            a_perp = collinear[a] | low
            partners = cands & ~a_perp & ~(low - 1)
            while partners:
                high = partners & -partners
                partners ^= high
                nodes += 1
                if nodes > budget:
                    exhausted = True
                    return
                b = high.bit_length() - 1
                descend(chosen + [a, b], cands & a_perp & (collinear[b] | high), a)
                if exhausted:
                    return

    descend([], (1 << len(space.points)) - 1, -1)
    return frames, not exhausted


def frame_count(space: PolarSpace) -> int:
    """Number of frames: |Sp(2n,p)| over the 2^n n! (p-1)^n elements fixing
    one, which permute its pairs, swap inside them and rescale them."""
    n, p = space.n, space.p
    order = p ** (n * n) * prod(p ** (2 * i) - 1 for i in range(1, n + 1))
    return order // (2**n * factorial(n) * (p - 1) ** n)


def sample_frames(space: PolarSpace, count: int, seed: int) -> list[Frame]:
    """``count`` distinct random frames drawn from ``random.Random(seed)``:
    n times, a point a chosen uniformly from the perp of everything chosen
    so far and a partner b from the points of that perp not collinear with
    a, with the perp narrowed as in ``enumerate_frames``.  The perp of k
    hyperbolic pairs is non-degenerate, so a always has a partner.  A
    negative seed, or a count above ``frame_count(space)``, raises
    ValueError."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if count > frame_count(space):
        raise ValueError(f"asked for {count} frames, the space has {frame_count(space)}")
    rng = random.Random(seed)
    collinear = space.collinear_masks()
    out: dict[int, Frame] = {}
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 100 * count + 100:
            raise RuntimeError("frame sampling failed to reach the requested count")
        chosen, cands = 0, (1 << len(space.points)) - 1
        for _ in range(space.n):
            a = rng.choice(_bits(cands))
            a_perp = collinear[a] | 1 << a
            b = rng.choice(_bits(cands & ~a_perp))
            chosen |= 1 << a | 1 << b
            cands &= a_perp & (collinear[b] | 1 << b)
        if chosen not in out:
            out[chosen] = _frame_of_indices(space, _bits(chosen))
    return list(out.values())


def apartment_of_frame(space: PolarSpace, frame: Frame) -> tuple[int, ...]:
    """Point masks of the 2^n maximal singular subspaces spanned by one point
    per sigma pair.

    Entry ``mask`` takes the second point of pair k exactly when bit k of
    ``mask`` is set; this labeling is an isometric copy of the hypercube.
    A maximal is its own perp, so each entry is the AND of the perps
    ``collinear_masks()[x] | 1 << x`` of its n points x.
    """
    collinear, index = space.collinear_masks(), space.point_index
    perps = [collinear[index[pt]] | 1 << index[pt] for pt in frame.points]
    members = [(1 << len(space.points)) - 1]
    for i, j in frame.pairs():
        members = [m & perps[i] for m in members] + [m & perps[j] for m in members]
    return tuple(members)
