"""Exact integer lattice arithmetic.

Sublattices of Z^n are kept in row-style Hermite normal form: an echelon
basis with positive pivots and off-pivot entries reduced into [0, pivot).
That form is unique per lattice, so equality, hashing and canonical coset
representatives all come for free.  Everything here is plain Python int
arithmetic; no floating point anywhere.
"""

from __future__ import annotations

from typing import Iterable, Sequence

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]  # tuple of rows


# ---------------------------------------------------------------------------
# small dense helpers (column-vector convention: matvec(M, v)[i] = sum M[i][j] v[j])

def vadd(u: Sequence[int], v: Sequence[int]) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Sequence[int], v: Sequence[int]) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vneg(u: Sequence[int]) -> Vec:
    return tuple(-a for a in u)


def matvec(m: Mat, v: Sequence[int]) -> Vec:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def matmul(a: Mat, b: Mat) -> Mat:
    n = len(b[0])
    return tuple(
        tuple(sum(arow[k] * b[k][j] for k in range(len(b))) for j in range(n))
        for arow in a
    )


def mat_identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_pow(m: Mat, k: int) -> Mat:
    out = mat_identity(len(m))
    for _ in range(k):
        out = matmul(out, m)
    return out


def mat_det2(m: Mat) -> int:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def mat_inv_unimodular(m: Mat) -> Mat:
    """Inverse of an integer matrix with det +-1 (2x2 closed form, general n by solving)."""
    n = len(m)
    if n == 2:
        d = mat_det2(m)
        if d not in (1, -1):
            raise ValueError(f"matrix determinant {d} is not a unit")
        return ((d * m[1][1], -d * m[0][1]), (-d * m[1][0], d * m[0][0]))
    cols = []
    for j in range(n):
        e = tuple(1 if i == j else 0 for i in range(n))
        sol = solve_integer(m, e)
        if sol is None:
            raise ValueError("matrix is not unimodular")
        cols.append(sol[0])
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


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

    __slots__ = ("dim", "rows", "_pivots")

    def __init__(self, dim: int, vectors: Iterable[Sequence[int]] = ()):
        vecs = [tuple(v) for v in vectors]
        for v in vecs:
            if len(v) != dim:
                raise ValueError(f"vector {v} does not live in Z^{dim}")
        rows, _ = _hnf(vecs, dim)
        self.dim = dim
        self.rows: Mat = tuple(tuple(r) for r in rows)
        self._pivots: tuple[int, ...] = tuple(
            next(j for j in range(dim) if r[j] != 0) for r in self.rows
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
        for r, c in zip(self.rows, self._pivots):
            out *= r[c]
        return out

    def contains(self, v: Sequence[int]) -> bool:
        w = list(v)
        for r, c in zip(self.rows, self._pivots):
            if w[c] % r[c] != 0:
                return False
            q = w[c] // r[c]
            if q:
                w = [a - q * b for a, b in zip(w, r)]
        return not any(w)

    def reduce(self, v: Sequence[int]) -> Vec:
        """Canonical representative of v modulo the lattice (floor reduction at each pivot)."""
        w = list(v)
        for r, c in zip(self.rows, self._pivots):
            q = w[c] // r[c]
            if q:
                w = [a - q * b for a, b in zip(w, r)]
        return tuple(w)

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
        gens = []
        r1 = len(self.rows)
        for row in kernel:
            u = row[self.dim : self.dim + r1]
            gens.append(tuple(sum(u[i] * self.rows[i][j] for i in range(r1)) for j in range(self.dim)))
        return Sublattice(self.dim, gens)

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
        return self.lattice.contains(vsub(v, self.offset))

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
        if w[c] % row[c] != 0:
            return None
        q = w[c] // row[c]
        if q:
            w = [a - q * rb for a, rb in zip(w, row[:rows])]
            coeff = [a + q * rb for a, rb in zip(coeff, row[rows:])]
    if any(w):
        return None
    return tuple(coeff), kern
