"""Exact integer lattice arithmetic.

Sublattices of Z^n are kept in row-style Hermite normal form: an echelon
basis with positive pivots and off-pivot entries reduced into [0, pivot).
That form is unique per lattice, so equality, hashing and canonical coset
representatives all come for free.  Everything here is plain Python int
arithmetic; no floating point anywhere.

Each HNF row is kept as one reduction step (pivot column c, pivot p, row).
`reduce` walks the steps in row order and subtracts floor(v[c] / p) times the
row, so every pivot coordinate of the result lies in [0, p); later rows vanish
at earlier pivot columns, so no step undoes an earlier one and the result is
the one canonical representative of v + L.  `contains` walks the same steps
with one divmod per pivot, stopping at the first nonzero remainder, and
accepts when nothing is left.  Neither copies the caller's vector into a
work list nor writes to it.  A coset offset + L stores the reduced offset, so v lies in it
exactly when v reduces to that offset.
"""

from __future__ import annotations

from operator import add, mul, neg, sub
from typing import Iterable, Sequence

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]  # tuple of rows


# ---------------------------------------------------------------------------
# small dense helpers (column-vector convention: matvec(M, v)[i] = sum M[i][j] v[j])

def vadd(u: Sequence[int], v: Sequence[int]) -> Vec:
    return tuple(map(add, u, v))


def vsub(u: Sequence[int], v: Sequence[int]) -> Vec:
    return tuple(map(sub, u, v))


def vneg(u: Sequence[int]) -> Vec:
    return tuple(map(neg, u))


def matvec(m: Mat, v: Sequence[int]) -> Vec:
    return tuple(sum(map(mul, row, v)) for row in m)


def matmul(a: Mat, b: Mat) -> Mat:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, arow, col)) for col in cols) for arow in a)


def mat_identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_pow(m: Mat, k: int) -> Mat:
    out = mat_identity(len(m))
    for _ in range(k):
        out = matmul(out, m)
    return out


def mat_inv_unimodular(m: Mat) -> Mat:
    """Inverse of an integer matrix with det +-1 (2x2 closed form, general n by solving)."""
    n = len(m)
    if n == 2:
        d = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        if d not in (1, -1):
            raise ValueError(f"matrix determinant {d} is not a unit")
        return ((d * m[1][1], -d * m[0][1]), (-d * m[1][0], d * m[0][0]))
    cols = []
    for e in mat_identity(n):
        sol = solve_integer(m, e)
        if sol is None:
            raise ValueError("matrix is not unimodular")
        cols.append(sol[0])
    return tuple(zip(*cols))


# ---------------------------------------------------------------------------
# Hermite normal form

def _hnf(vectors: Iterable[Sequence[int]], n: int) -> tuple[list[list[int]], list[list[int]]]:
    """Row-reduce integer vectors, pivoting only on the first n columns.

    Returns (echelon pivot rows, rows whose first n entries vanished).  All row
    operations are unimodular, so with an identity augmentation the second list
    carries a basis of the left kernel.
    """
    work = [list(v) for v in vectors if any(v)]
    out: list[list[int]] = []
    for c in range(n):
        nz = [r for r in work if r[c] != 0]
        work = [r for r in work if r[c] == 0]
        if not nz:
            continue
        while True:
            nz.sort(key=lambda r: abs(r[c]))
            p = nz[0]
            carry = []
            for r in nz[1:]:
                q = r[c] // p[c]
                r2 = [a - q * b for a, b in zip(r, p)]
                if r2[c] != 0:
                    carry.append(r2)
                elif any(r2):
                    work.append(r2)
            if not carry:
                break
            nz = [p] + carry
        if p[c] < 0:
            p = [-x for x in p]
        out.append(p)
    # reduce entries above each pivot into [0, pivot)
    for i in range(len(out)):
        c = next(j for j in range(n) if out[i][j] != 0)
        for j in range(i):
            q = out[j][c] // out[i][c]
            if q:
                out[j] = [a - q * b for a, b in zip(out[j], out[i])]
    return out, work


class Sublattice:
    """A sublattice of Z^dim held as a canonical HNF row basis (possibly rank-deficient)."""

    __slots__ = ("dim", "rows", "_steps")

    def __init__(self, dim: int, vectors: Iterable[Sequence[int]] = ()):
        vecs = [tuple(v) for v in vectors]
        for v in vecs:
            if len(v) != dim:
                raise ValueError(f"vector {v} does not live in Z^{dim}")
        rows, _ = _hnf(vecs, dim)
        self.dim = dim
        self.rows: Mat = tuple(tuple(r) for r in rows)
        # one (pivot column, pivot, row) step per HNF row, in row order
        self._steps: tuple[tuple[int, int, Vec], ...] = tuple(
            (c, r[c], r) for r in self.rows for c in [next(j for j in range(dim) if r[j])]
        )

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "Sublattice":
        return cls(dim)

    @classmethod
    def full(cls, dim: int) -> "Sublattice":
        return cls(dim, mat_identity(dim))

    # -- basic queries ------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.rows)

    def index(self) -> int | None:
        """Index in Z^dim (product of pivots); None when the rank is deficient."""
        if self.rank != self.dim:
            return None
        out = 1
        for _, p, _ in self._steps:
            out *= p
        return out

    def contains(self, v: Sequence[int]) -> bool:
        for c, p, r in self._steps:
            q, rest = divmod(v[c], p)
            if rest:
                return False
            if q:
                v = [a - q * b for a, b in zip(v, r)]
        return not any(v)

    def reduce(self, v: Sequence[int]) -> Vec:
        """Canonical representative of v modulo the lattice (floor reduction at each pivot)."""
        for c, p, r in self._steps:
            q = v[c] // p
            if q:
                v = [a - q * b for a, b in zip(v, r)]
        return tuple(v)

    # -- algebra ------------------------------------------------------------

    def intersect(self, other: "Sublattice") -> "Sublattice":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        if not self.rows or not other.rows:
            return Sublattice.zero(self.dim)
        # u*B1 = v*B2  <=>  (u, v) in left kernel of [[B1], [-B2]]
        stacked = [list(r) for r in self.rows] + [[-x for x in r] for r in other.rows]
        k = len(stacked)
        aug = [row + [1 if i == j else 0 for j in range(k)] for i, row in enumerate(stacked)]
        _, kernel = _hnf(aug, self.dim)
        r1, cols = len(self.rows), tuple(zip(*self.rows))  # u*B1 is matvec(B1^T, u)
        return Sublattice(self.dim, [matvec(cols, row[self.dim : self.dim + r1]) for row in kernel])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Sublattice) and self.dim == other.dim and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.dim, self.rows))

    def __repr__(self) -> str:
        return f"Sublattice({self.dim}, {list(map(list, self.rows))})"

    def to_json(self) -> list[list[int]]:
        return [list(r) for r in self.rows]


class Coset:
    """offset + lattice, with the offset stored in canonical reduced form."""

    __slots__ = ("lattice", "offset")

    def __init__(self, offset: Sequence[int], lattice: Sublattice):
        self.lattice = lattice
        self.offset: Vec = lattice.reduce(offset)

    def contains(self, v: Sequence[int]) -> bool:
        return self.lattice.reduce(v) == self.offset

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Coset)
            and self.lattice == other.lattice
            and self.offset == other.offset
        )

    def __hash__(self) -> int:
        return hash((self.lattice, self.offset))

    def __repr__(self) -> str:
        return f"Coset({list(self.offset)}, {self.lattice!r})"

    def to_json(self) -> dict:
        return {"offset": list(self.offset), "lattice": self.lattice.to_json()}


def solve_integer(m: Mat, b: Sequence[int]) -> tuple[Vec, list[Vec]] | None:
    """All integer solutions of m @ x = b: returns (particular, kernel basis) or None.

    Works for any shape, including the zero matrix (then solvable iff b = 0 with
    kernel Z^n).
    """
    rows = len(m)
    n = len(m[0]) if m else 0
    # row problem: x * m^T = b, unknown x in Z^n
    mt = [[m[i][j] for i in range(rows)] for j in range(n)]
    aug = [row + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(mt)]
    echelon, kernel = _hnf(aug, rows)
    kern = tuple(tuple(row[rows:]) for row in kernel)
    # back-substitute through echelon rows
    w = list(b)
    coeff = [0] * n
    for row in echelon:
        c = next(j for j in range(rows) if row[j] != 0)
        q, rest = divmod(w[c], row[c])
        if rest:
            return None
        if q:
            w = [a - q * rb for a, rb in zip(w, row[:rows])]
            coeff = [a + q * rb for a, rb in zip(coeff, row[rows:])]
    if any(w):
        return None
    return tuple(coeff), kern
