import random
from itertools import combinations
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualpolar.linalg import rref, zero_subspace
from dualpolar.polar import (
    PolarSpace,
    ResidueSpace,
    apartment_of_frame,
    check_polar_axioms,
    enumerate_frames,
    enumerate_singular,
    form_value,
    is_frame,
    is_singular,
    perp_subspace,
    point_mask,
    points_in_subspace,
    projdim,
    sample_frames,
    star,
    subspace_of_mask,
    subspace_size,
)
import reference
from reference import contains, contains_subspace, intersect, residue_collinear


def isotropic_count(n, k, q):
    """Totally isotropic subspaces of linear dimension k in a rank-n
    symplectic space: the standard two-branch recurrence (independent of the
    enumeration code)."""
    if k > n:
        return 0
    if k == 0:
        return 1
    return (1 + q ** (2 * n - k)) * isotropic_count(n - 1, k - 1, q) + (
        q**k
    ) * isotropic_count(n - 1, k, q)


SP42 = PolarSpace(2, 2)
SP62 = PolarSpace(3, 2)
SP43 = PolarSpace(2, 3)
SP45 = PolarSpace(2, 5)


def test_point_counts_match_closed_form():
    for space in (SP42, SP62, SP43):
        expected = (space.p ** (2 * space.n) - 1) // (space.p - 1)
        assert len(space.points) == expected
    assert len(SP42.points) == 15
    assert len(SP62.points) == 63
    assert len(SP43.points) == 40


def test_points_are_lexicographically_sorted():
    for space in (SP42, SP43):
        assert list(space.points) == sorted(space.points)


def test_singular_counts_match_recurrence_oracle():
    for space in (SP42, SP62, SP43):
        for k in range(space.n):
            got = len(enumerate_singular(space, k))
            assert got == isotropic_count(space.n, k + 1, space.p)


def test_maximal_counts():
    assert len(enumerate_singular(SP42, 1)) == 15
    assert len(enumerate_singular(SP62, 2)) == 135
    assert len(enumerate_singular(SP43, 1)) == 40
    assert len(enumerate_singular(PolarSpace(3, 3), 2)) == 1120


def layered_reference(space):
    """Every singular layer by the layered method: extend each subspace of
    layer k by every perpendicular point outside it, one rref per pair, and
    deduplicate."""
    field = space.field
    layer = sorted({rref(field, [pt], space.dim) for pt in space.points}, key=lambda s: s.rows)
    layers = [tuple(layer)]
    for _ in range(space.n - 1):
        seen = set()
        for sub in layer:
            for pt in points_in_subspace(space, perp_subspace(space, sub)):
                if not contains(field, sub, pt):
                    seen.add(rref(field, sub.rows + (pt,), space.dim))
        layer = sorted(seen, key=lambda s: s.rows)
        layers.append(tuple(layer))
    return layers


@pytest.mark.parametrize("n,p", [(2, 2), (3, 2), (2, 3), (2, 5), (3, 3)])
def test_canonical_parent_enumeration_matches_layered_reference(n, p):
    space = PolarSpace(n, p)
    expected = layered_reference(space)
    assert [enumerate_singular(space, k) for k in range(n)] == expected
    assert [len(layer) for layer in expected] == [isotropic_count(n, k + 1, p) for k in range(n)]


def gaussian_binomial(n, k, q):
    """Number of k-dimensional subspaces of GF(q)^n."""
    return prod(q ** (n - i) - 1 for i in range(k)) // prod(q ** (i + 1) - 1 for i in range(k))


@pytest.mark.parametrize("n,p", [(2, 5), (3, 3), (4, 2)])
def test_singular_layers_are_fixed_points_of_rref(n, p):
    # the layers above 0 are built without row reduction, so each subspace
    # must already be its own canonical RREF; the layer of rank r has
    # [n, r]_q (q^(n-r+1) + 1) ... (q^n + 1) members; the layers are grown
    # in order, not sorted, so each must be strictly ascending by rows
    space = PolarSpace(n, p)
    sizes = []
    for k in range(n):
        layer = enumerate_singular(space, k)
        assert all(rref(space.field, sub.rows, space.dim) == sub for sub in layer)
        assert all(a.rows < b.rows for a, b in zip(layer, layer[1:]))
        assert len(layer) == gaussian_binomial(n, k + 1, p) * prod(
            p**i + 1 for i in range(n - k, n + 1)
        )
        sizes.append(len(layer))
    if (n, p) == (4, 2):
        assert sum(sizes) == 19_380


def test_enumerate_singular_range_check():
    with pytest.raises(ValueError):
        enumerate_singular(SP42, 2)


def test_space_parameter_validation():
    with pytest.raises(ValueError):
        PolarSpace(1, 2)
    with pytest.raises(ValueError):
        PolarSpace(2, 7)


def test_form_value_hyperbolic_pairs():
    e1 = (1, 0, 0, 0)
    f1 = (0, 1, 0, 0)
    e2 = (0, 0, 1, 0)
    assert form_value(SP42, e1, f1) == 1
    assert form_value(SP42, e1, e2) == 0
    rng = random.Random(0)
    for _ in range(100):
        v = tuple(rng.randrange(2) for _ in range(4))
        assert form_value(SP42, v, v) == 0


def test_is_collinear_examples():
    # collinearity is the vanishing of the form, and collinear_masks records it
    e1, f1, e2 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)
    assert form_value(SP42, e1, e2) == 0
    assert form_value(SP42, e1, f1) != 0
    row = SP42.collinear_masks()[SP42.point_index[e1]]
    assert row >> SP42.point_index[e2] & 1
    assert not row >> SP42.point_index[f1] & 1


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (4, 2)])
def test_collinear_masks_match_the_pairwise_form(n, p):
    # the residue-class fold against form_value on every ordered pair
    space = PolarSpace(n, p)
    assert space.collinear_masks() == reference.collinear_masks(space)


def test_noncollinear_count_is_q_to_2n_minus_1():
    # every point of Sp(4,2) fails collinearity with exactly 8 of the others
    for a in SP42.points:
        bad = sum(1 for b in SP42.points if b != a and form_value(SP42, a, b) != 0)
        assert bad == 8


def test_perp_subspace():
    whole = perp_subspace(SP42, zero_subspace(SP42.dim))
    assert whole.rank == 4
    pt = rref(SP42.field, [(1, 0, 0, 0)], 4)
    perp = perp_subspace(SP42, pt)
    assert perp.rank == 3
    assert contains(SP42.field, perp, (1, 0, 0, 0))
    for k in range(SP42.n):
        for sub in enumerate_singular(SP42, k):
            bigger = perp_subspace(SP42, sub)
            assert bigger.rank == 4 - sub.rank
            assert all(contains(SP42.field, bigger, row) for row in sub.rows)


def test_polar_axioms_pass_on_models():
    for space in (SP42, SP43):
        report = check_polar_axioms(space)
        assert report["ok"], report
    line_sizes = {len(L) for L in SP43.line_index_sets()}
    assert line_sizes == {4}


class _DegenerateGeometry:
    """Sp(4,2) collinearity with the first hyperbolic pair zeroed out of the
    form; the two radical points are collinear with everything."""

    def __init__(self):
        self.space = SP42
        self.points = SP42.points

    def point_count(self):
        return len(self.points)

    def collinear_mask(self, i):
        mask = 0
        u = self.points[i]
        for j, v in enumerate(self.points):
            if j == i:
                continue
            val = (u[2] * v[3] - u[3] * v[2]) % 2
            if val == 0:
                mask |= 1 << j
        return mask

    def line_index_sets(self):
        return self.space.line_index_sets()

    def describe_point(self, i):
        return list(self.points[i])


def test_degenerate_form_fails_no_deep_point_axiom():
    report = check_polar_axioms(_DegenerateGeometry())
    assert not report["ok"]
    by_name = {a["axiom"]: a for a in report["axioms"]}
    assert not by_name["no point is collinear with all points"]["ok"]
    assert by_name["no point is collinear with all points"]["witness"] is not None


def test_point_orthogonal_to_maximal_lies_inside():
    # exhaustively on Sp(4,2), sampled on Sp(6,2)
    for space, maximals, pts in (
        (SP42, enumerate_singular(SP42, 1), SP42.points),
        (SP62, enumerate_singular(SP62, 2)[:20], SP62.points),
    ):
        for sub in maximals:
            for q in pts:
                if all(form_value(space, q, row) == 0 for row in sub.rows):
                    assert contains(space.field, sub, q)


def test_pairwise_collinear_span_is_singular():
    rng = random.Random(9)
    for space in (SP42, SP62):
        pts = space.points
        for _ in range(40):
            sample = rng.sample(range(len(pts)), 3)
            chosen = [pts[i] for i in sample]
            if any(
                form_value(space, a, b) != 0 for a, b in combinations(chosen, 2)
            ):
                continue
            span = rref(space.field, chosen, space.dim)
            assert is_singular(space, span)
            for q in pts:
                if all(form_value(space, q, c) == 0 for c in chosen):
                    assert all(form_value(space, q, row) == 0 for row in span.rows)


def test_is_frame_standard_basis():
    # the unit vectors, in the hyperbolic pairs (e_2i, e_2i+1) of the form
    pts = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    frame = is_frame(SP42, pts)
    assert frame is not None
    # partners are exactly the hyperbolic mates
    for i, j in frame.pairs():
        assert form_value(SP42, frame.points[i], frame.points[j]) != 0


def test_is_frame_rejections():
    assert is_frame(SP42, [(1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 1, 0)]) is None
    # four pairwise collinear points have no non-collinear partner at all
    assert is_frame(SP42, [(1, 0, 0, 0), (0, 0, 1, 0), (1, 0, 1, 0), (1, 0, 1, 1)]) is None
    with pytest.raises(ValueError):
        is_frame(SP42, [(1, 0, 0, 0)])
    with pytest.raises(ValueError):
        is_frame(SP42, [(1, 0, 0, 0)] * 4)


def bruteforce_frames(space):
    """Scan every 2n-subset of the points for the unique-partner condition."""
    out = []
    for pts in combinations(space.points, 2 * space.n):
        ok = True
        for a in pts:
            partners = sum(1 for b in pts if b != a and form_value(space, a, b) != 0)
            if partners != 1:
                ok = False
                break
        if ok:
            out.append(pts)
    return out


def test_enumerate_frames_matches_bruteforce_oracle():
    frames, complete = enumerate_frames(SP42)
    assert complete
    oracle = bruteforce_frames(SP42)
    assert len(frames) == len(oracle) == 90
    assert {f.points for f in frames} == set(oracle)
    for f in frames:
        assert is_frame(SP42, f.points) is not None


@pytest.mark.parametrize(
    "n,p,budget", [(2, 2, 10**7), (2, 3, 10**7), (3, 2, 3_000)], ids=["sp42", "sp43", "sp62-partial"]
)
def test_enumerate_frames_streams_each_frame_once(n, p, budget):
    space = PolarSpace(n, p)
    listed, complete = enumerate_frames(space, budget=budget)
    streamed = []
    none, streamed_complete = enumerate_frames(space, budget=budget, visit=streamed.append)
    assert none == [] and streamed_complete == complete and streamed == listed
    assert len({f.points for f in listed}) == len(listed)
    if complete:
        order = p ** (n * n) * prod(p ** (2 * i) - 1 for i in range(1, n + 1))
        assert len(listed) == order // (2**n * factorial(n) * (p - 1) ** n)


@pytest.mark.parametrize(
    "n,p,budget",
    [(2, 2, 10**7), (2, 3, 10**7), (3, 2, 3_000), (2, 5, 3_000)],
    ids=["sp42", "sp43", "sp62-partial", "sp45-partial"],
)
def test_mask_frames_match_the_reference(n, p, budget):
    space = PolarSpace(n, p)
    assert enumerate_frames(space, budget=budget) == reference.enumerate_frames(space, budget=budget)


@pytest.mark.parametrize("space", [SP42, SP43], ids=["sp42", "sp43"])
def test_apartment_of_frame_matches_the_reference(space):
    frames, complete = enumerate_frames(space)
    assert complete
    for frame in frames:
        members = reference.apartment_of_frame(space, frame)
        assert apartment_of_frame(space, frame) == tuple(point_mask(space, s) for s in members)


def test_enumerate_frames_budget_flag():
    frames, complete = enumerate_frames(SP42, budget=10)
    assert not complete
    assert len(frames) < 90


def test_frames_are_independent_sets():
    frames, _ = enumerate_frames(SP42)
    for f in frames[:20]:
        for i, pt in enumerate(f.points):
            others = [q for j, q in enumerate(f.points) if j != i]
            span = rref(SP42.field, others, 4)
            assert not contains(SP42.field, span, pt)


def test_distinct_frames_give_distinct_apartments():
    frames, _ = enumerate_frames(SP42)
    images = {frozenset(apartment_of_frame(SP42, f)) for f in frames}
    assert len(images) == len(frames)


def test_apartment_of_standard_frame():
    e1, f1 = (1, 0, 0, 0), (0, 1, 0, 0)
    e2, f2 = (0, 0, 1, 0), (0, 0, 0, 1)
    frame = is_frame(SP42, [e1, f1, e2, f2])
    members = apartment_of_frame(SP42, frame)
    assert len(members) == 4
    expected = {
        point_mask(SP42, rref(SP42.field, [a, b], 4))
        for a in (e1, f1)
        for b in (e2, f2)
    }
    assert set(members) == expected


def test_apartment_members_take_one_point_per_pair():
    frames, _ = enumerate_frames(SP42)
    for frame in frames[:15]:
        members = apartment_of_frame(SP42, frame)
        assert len(members) == 1 << SP42.n
        for member in members:
            for i, j in frame.pairs():
                a = member >> SP42.point_index[frame.points[i]] & 1
                b = member >> SP42.point_index[frame.points[j]] & 1
                assert a != b


def test_sample_frames_deterministic_and_valid():
    a = sample_frames(SP62, 10, seed=5)
    b = sample_frames(SP62, 10, seed=5)
    assert [f.points for f in a] == [f.points for f in b]
    assert len({f.points for f in a}) == 10
    for f in a:
        assert is_frame(SP62, f.points) is not None


def test_sample_frames_reaches_every_frame():
    # asking for all 90 frames of Sp(4,2) draws each of them, partners and all
    assert set(sample_frames(SP42, 90, seed=1)) == set(enumerate_frames(SP42)[0])


def test_sample_frames_rejects_a_negative_seed_and_more_frames_than_exist():
    with pytest.raises(ValueError, match="seed"):
        sample_frames(SP42, 1, seed=-1)
    # Sp(4,2) has 90 frames; asking for 91 fails at once, not after the
    # attempt guard runs out
    with pytest.raises(ValueError, match="91 frames"):
        sample_frames(SP42, 91, seed=1)


def test_star_of_empty_subspace_is_all_maximals():
    got = star(SP42, zero_subspace(SP42.dim), 1)
    assert got == enumerate_singular(SP42, 1)


def test_star_of_point_in_sp62():
    pt = rref(SP62.field, [SP62.points[0]], 6)
    got = star(SP62, pt, 2)
    assert len(got) == 15
    for sub in got:
        assert all(contains(SP62.field, sub, row) for row in pt.rows)


def test_star_of_line_matches_containment():
    line = enumerate_singular(SP62, 1)[7]
    got = star(SP62, line, 2)
    assert len(got) == 3
    assert got == tuple(
        s for s in enumerate_singular(SP62, 2) if contains_subspace(SP62.field, s, line)
    )


def test_star_precondition():
    pt = rref(SP42.field, [(1, 0, 0, 0)], 4)
    with pytest.raises(ValueError):
        star(SP42, pt, 0)


def test_residue_collinear_inside_common_maximal():
    maximal = enumerate_singular(SP62, 2)[0]
    lines = [
        rref(SP62.field, [pt], 6)
        for pt in points_in_subspace(SP62, maximal)
    ]
    base = zero_subspace(SP62.dim)
    # any two points of one maximal span a singular line
    assert residue_collinear(SP62, base, lines[0], lines[1])


def test_residue_collinear_reduces_to_collinearity_for_empty_base():
    base = zero_subspace(SP42.dim)
    pts = SP42.points
    for a, b in combinations(pts[:8], 2):
        lhs = residue_collinear(
            SP42, base, rref(SP42.field, [a], 4), rref(SP42.field, [b], 4)
        )
        assert lhs == (form_value(SP42, a, b) == 0)


def test_point_residue_of_sp62_is_rank2_polar_space():
    pt = rref(SP62.field, [SP62.points[0]], 6)
    residue = ResidueSpace(SP62, pt)
    assert residue.rank == 2
    assert residue.point_count() == 15
    report = check_polar_axioms(residue)
    assert report["ok"], report


@pytest.mark.parametrize(
    "space,base",
    [(SP62, rref(SP62.field, [SP62.points[0]], 6)), (SP62, zero_subspace(SP62.dim)),
     (SP43, zero_subspace(SP43.dim))],
    ids=["sp62-point", "sp62-empty", "sp43-empty"],
)
def test_residue_space_matches_the_reference(space, base):
    # lines by containment, collinearity by a singular span, both on rref
    residue = ResidueSpace(space, base)
    pts = residue.points
    for i, a in enumerate(pts):
        want = sum(1 << j for j, b in enumerate(pts) if j != i and residue_collinear(space, base, a, b))
        assert residue.collinear_mask(i) == want
    assert residue.line_index_sets() == [
        tuple(i for i, s in enumerate(pts) if contains_subspace(space.field, upper, s))
        for upper in star(space, base, projdim(base) + 2)
    ]


def test_residue_space_rejects_rank_one():
    line = enumerate_singular(SP42, 0)[0]
    with pytest.raises(ValueError):
        ResidueSpace(SP42, line)


def test_projdim_convention():
    assert projdim(zero_subspace(4)) == -1
    assert projdim(rref(SP42.field, [(1, 0, 0, 0)], 4)) == 0


def test_rank_four_desk_scale():
    # the largest supported instance: counts against the recurrence oracle
    # and a full-rank hypercube witness round trip
    space = PolarSpace(4, 2)
    assert len(space.points) == 255
    for k, expected in enumerate((255, 5355, 11475, 2295)):
        assert len(enumerate_singular(space, k)) == expected
        assert expected == isotropic_count(4, k + 1, 2)
    from dualpolar.apartments import is_apartment

    for frame in sample_frames(space, 2, seed=8):
        members = [subspace_of_mask(space, mask) for mask in apartment_of_frame(space, frame)]
        witness = is_apartment(space, members)
        assert witness is not None and witness.m == 4
        assert witness.base.rank == 0
        assert set(witness.to_frame(space).points) == set(frame.points)


@st.composite
def singular_pairs(draw):
    space = draw(st.sampled_from([SP42, SP62, SP43, SP45]))

    def pick():
        layer = enumerate_singular(space, draw(st.integers(0, space.n - 1)))
        return layer[draw(st.integers(0, len(layer) - 1))]

    return space, pick(), pick()


@pytest.mark.parametrize("space", [SP42, SP43, SP62, SP45], ids=["sp42", "sp43", "sp62", "sp45"])
def test_a_mask_of_at_most_one_point_is_its_own_rref(space):
    # subspace_of_mask reduces nothing for one point or none
    assert subspace_of_mask(space, 0) == rref(space.field, [], space.dim) == zero_subspace(space.dim)
    for i, pt in enumerate(space.points):
        assert subspace_of_mask(space, 1 << i) == rref(space.field, [pt], space.dim)


@settings(max_examples=200, deadline=None)
@given(singular_pairs())
def test_point_masks_agree_with_rref(data):
    # rref stays the reference: meet = AND, rank from the popcount,
    # containment = subset test
    space, a, b = data
    ma, mb = point_mask(space, a), point_mask(space, b)
    meet = intersect(space.field, a, b)
    assert ma & mb == point_mask(space, meet)
    assert (ma & mb).bit_count() == subspace_size(space, meet.rank)
    assert ma.bit_count() == subspace_size(space, a.rank)
    assert mb.bit_count() == subspace_size(space, b.rank)
    assert (not mb & ~ma) == contains_subspace(space.field, a, b)
    assert (not ma & ~mb) == contains_subspace(space.field, b, a)
    assert subspace_of_mask(space, ma) == a
