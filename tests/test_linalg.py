import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualpolar.linalg import GF, Subspace, nullspace, rref, zero_subspace
from reference import contains, intersect, sum_span


def span_vectors(p, rows, width):
    """Every vector of the row space by brute force over coefficient tuples.

    Kept independent of the reduction code on purpose: it is the oracle the
    canonical operations are checked against.
    """
    vecs = set()
    for coeffs in product(range(p), repeat=len(rows)):
        vecs.add(
            tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) % p for j in range(width))
        )
    return vecs


def random_rows(rng, p, count, width):
    return [tuple(rng.randrange(p) for _ in range(width)) for _ in range(count)]


def test_rref_identity_is_fixed():
    f2 = GF(2)
    ident = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    assert rref(f2, ident, 4).rows == tuple(ident)


def test_rref_single_elimination():
    f2 = GF(2)
    got = rref(f2, [(1, 1, 0, 0), (0, 1, 0, 0)], 4)
    assert got.rows == ((1, 0, 0, 0), (0, 1, 0, 0))


def test_rref_preserves_row_space_gf3():
    f3 = GF(3)
    rng = random.Random(42)
    for _ in range(100):
        rows = random_rows(rng, 3, 3, 6)
        red = rref(f3, rows, 6)
        oracle = span_vectors(3, red.rows, 6)
        for row in rows:
            assert row in oracle
        back = span_vectors(3, rows, 6)
        for row in red.rows:
            assert row in back


def test_rref_rejects_ragged_rows():
    with pytest.raises(ValueError):
        rref(GF(2), [(1, 0), (1, 0, 0)], 2)


def test_intersect_idempotent():
    f2 = GF(2)
    a = rref(f2, [(1, 0, 1, 0), (0, 1, 1, 1)], 4)
    assert intersect(f2, a, a) == a


def test_intersect_coordinate_planes():
    f2 = GF(2)
    e = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]
    a = rref(f2, e[:2], 4)
    b = rref(f2, e[1:], 4)
    assert intersect(f2, a, b).rows == ((0, 1, 0, 0),)


def test_intersect_matches_exhaustive_membership_gf3():
    f3 = GF(3)
    rng = random.Random(7)
    for _ in range(40):
        a = rref(f3, random_rows(rng, 3, 3, 6), 6)
        b = rref(f3, random_rows(rng, 3, 3, 6), 6)
        meet = intersect(f3, a, b)
        oracle = span_vectors(3, a.rows, 6) & span_vectors(3, b.rows, 6)
        assert span_vectors(3, meet.rows, 6) == oracle
        s = sum_span(f3, a, b)
        assert meet.rank == a.rank + b.rank - s.rank


def test_intersect_ambient_mismatch():
    f2 = GF(2)
    with pytest.raises(ValueError):
        intersect(f2, rref(f2, [(1, 0)], 2), rref(f2, [(1, 0, 0)], 3))


def test_sum_span_zero_is_identity():
    f3 = GF(3)
    a = rref(f3, [(1, 2, 0, 1)], 4)
    assert sum_span(f3, a, zero_subspace(4)) == a


def test_sum_span_units():
    f2 = GF(2)
    a = rref(f2, [(1, 0, 0, 0)], 4)
    b = rref(f2, [(0, 1, 0, 0)], 4)
    assert sum_span(f2, a, b).rows == ((1, 0, 0, 0), (0, 1, 0, 0))


def test_contains_basics():
    f2 = GF(2)
    a = rref(f2, [(1, 0, 0, 0)], 4)
    assert contains(f2, a, (0, 0, 0, 0))
    assert not contains(f2, a, (0, 1, 0, 0))


def test_contains_random_members():
    f5 = GF(5)
    rng = random.Random(3)
    for _ in range(50):
        a = rref(f5, random_rows(rng, 5, 2, 5), 5)
        coeffs = [rng.randrange(5) for _ in a.rows]
        member = tuple(
            sum(c * r[j] for c, r in zip(coeffs, a.rows)) % 5 for j in range(5)
        )
        assert contains(f5, a, member)
        for row in a.rows:
            assert contains(f5, sum_span(f5, a, a), row)


def test_sum_span_contains_both_sides():
    f3 = GF(3)
    rng = random.Random(21)
    for _ in range(30):
        a = rref(f3, random_rows(rng, 3, 2, 5), 5)
        b = rref(f3, random_rows(rng, 3, 2, 5), 5)
        s = sum_span(f3, a, b)
        for v in a.rows + b.rows:
            assert contains(f3, s, v)


def all_subspaces_gf2_dim4():
    f2 = GF(2)
    vectors = [v for v in product(range(2), repeat=4) if any(v)]
    seen = {zero_subspace(4)}
    for size in range(1, 5):
        for rows in combinations(vectors, size):
            seen.add(rref(f2, rows, 4))
    return sorted(seen, key=lambda s: (s.rank, s.rows))


def test_modular_dimension_law_exhaustive_gf2_dim4():
    f2 = GF(2)
    subs = all_subspaces_gf2_dim4()
    # 1 + 15 + 35 + 15 + 1 subspaces of F_2^4
    assert len(subs) == 67
    for a in subs:
        for b in subs:
            assert a.rank + b.rank == sum_span(f2, a, b).rank + intersect(f2, a, b).rank


def test_rref_uniqueness_on_equal_row_spaces():
    f3 = GF(3)
    rng = random.Random(11)
    for _ in range(50):
        rows = random_rows(rng, 3, 3, 5)
        red = rref(f3, rows, 5)
        # rebuild a messy spanning set: shuffled sums of scaled rows
        messy = []
        for _ in range(4):
            coeffs = [rng.randrange(3) for _ in rows]
            messy.append(
                tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) % 3 for j in range(5))
            )
        messy += list(rows)
        rng.shuffle(messy)
        assert rref(f3, messy, 5) == red


def test_nullspace_orthogonality():
    f3 = GF(3)
    rng = random.Random(5)
    for _ in range(30):
        rows = random_rows(rng, 3, 2, 5)
        ns = nullspace(f3, rows, 5)
        assert ns.rank == 5 - rref(f3, rows, 5).rank
        for x in ns.rows:
            for r in rows:
                assert sum(a * b for a, b in zip(x, r)) % 3 == 0


@st.composite
def matrices(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    width = draw(st.integers(min_value=1, max_value=6))
    height = draw(st.integers(min_value=0, max_value=5))
    rows = [
        tuple(draw(st.integers(min_value=0, max_value=p - 1)) for _ in range(width))
        for _ in range(height)
    ]
    return p, rows, width


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rref_idempotent(data):
    p, rows, width = data
    field = GF(p)
    red = rref(field, rows, width)
    assert rref(field, red.rows, width) == red
    for row in rows:
        assert contains(field, red, row)


@settings(max_examples=60, deadline=None)
@given(matrices(), st.randoms(use_true_random=False))
def test_sum_and_meet_are_commutative(data, rnd):
    p, rows, width = data
    field = GF(p)
    half = rnd.randint(0, len(rows))
    a = rref(field, rows[:half], width)
    b = rref(field, rows[half:], width)
    assert sum_span(field, a, b) == sum_span(field, b, a)
    assert intersect(field, a, b) == intersect(field, b, a)


def test_gf_requires_prime():
    with pytest.raises(ValueError):
        GF(6)


def test_subspace_equality_and_hash():
    f2 = GF(2)
    a = rref(f2, [(1, 1, 0, 0)], 4)
    b = rref(f2, [(1, 1, 0, 0), (0, 0, 0, 0)], 4)
    assert a == b and hash(a) == hash(b)
    assert Subspace(a.rows, 4) == a
