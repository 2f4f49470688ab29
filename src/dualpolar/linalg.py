"""Exact linear algebra over prime fields GF(p): row reduction and nullspaces.

Vectors are tuples of ints reduced mod p.  A subspace is stored as the
reduced row echelon form of any spanning set, so two equal row spaces are
equal (and hash equal) as Python values.  All values are immutable.  Meets,
joins and containments of subspaces are taken on point masks in ``polar``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


class GF:
    """GF(p) arithmetic for a small prime p, with a precomputed inverse table."""

    def __init__(self, p: int):
        if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            raise ValueError(f"modulus must be prime, got {p}")
        self.p = p
        self.inv = (0,) + tuple(pow(a, -1, p) for a in range(1, p))

    def __repr__(self) -> str:
        return f"GF({self.p})"


@dataclass(frozen=True)
class Subspace:
    """Row space over GF(p), held as RREF rows with strictly increasing pivots.

    ``rank`` is the linear dimension; ``width`` the ambient dimension.  The
    zero subspace has ``rows == ()``.
    """

    rows: tuple[tuple[int, ...], ...]
    width: int

    @property
    def rank(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        body = ";".join("".join(str(x) for x in row) for row in self.rows)
        return f"Subspace[{body or '0'}/{self.width}]"


def _as_reduced(p: int, rows: Iterable[Sequence[int]], width: int) -> list[list[int]]:
    mat = []
    for row in rows:
        if len(row) != width:
            raise ValueError(f"row length {len(row)} != ambient width {width}")
        mat.append([x % p for x in row])
    return mat


def rref(field: GF, rows: Iterable[Sequence[int]], width: int) -> Subspace:
    """Canonical RREF basis of the row space of ``rows``."""
    p = field.p
    mat = _as_reduced(p, rows, width)
    m = len(mat)
    r = 0
    for c in range(width):
        pivot = next((i for i in range(r, m) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        scale = field.inv[mat[r][c]]
        if scale != 1:
            mat[r] = [(x * scale) % p for x in mat[r]]
        prow = mat[r]
        for i in range(m):
            coeff = mat[i][c]
            if i != r and coeff:
                mat[i] = [(x - coeff * y) % p for x, y in zip(mat[i], prow)]
        r += 1
        if r == m:
            break
    return Subspace(tuple(tuple(row) for row in mat[:r]), width)


def zero_subspace(width: int) -> Subspace:
    return Subspace((), width)


def nullspace(field: GF, rows: Iterable[Sequence[int]], width: int) -> Subspace:
    """Canonical basis of {x : r · x = 0 for every row r}."""
    red = rref(field, rows, width)
    p = field.p
    pivots = [next(j for j, x in enumerate(row) if x) for row in red.rows]
    free = [j for j in range(width) if j not in pivots]
    basis = []
    for j in free:
        vec = [0] * width
        vec[j] = 1
        for k, c in enumerate(pivots):
            vec[c] = (-red.rows[k][j]) % p
        basis.append(vec)
    return rref(field, basis, width)
