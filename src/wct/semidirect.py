"""Semidirect products Z^n x C_p with a prime-order integer action.

Elements are written (v, k) for the normal form v r^k, with the defining
relation r^-1 v r = theta(v).  That pins the product to
(v, k)(w, m) = (v + theta^-k w, k + m mod p).  Since p is prime, every
theta^k with k != 0 mod p generates the same image lattice im(theta - I),
which makes the conjugacy structure closed form: translations fall into
theta-orbits of size dividing p, and (a, k) with k != 0 sweeps the single
coset (a + im(theta - I), k).  SdGroup states this once, in the two hooks
GroupTable also has, conjugators(k, h) and slack(h), with its slices
F = (0, ..., p - 1) as the parts; a third, pair_form(m, k1, k2), gives
both sides of the WCT condition on a slice pair as linear functions of
the translation parts, for the shared certificate.  The class layer is
shared with the wallpaper groups: class_sd is conjugacy.conjugacy_class,
which reads the hooks, and is_conjugate_sd and verify_sd ask its
descriptors.

The two maps of interest are phi_for_odd_p, which twists A by theta and
fixes everything else, and the p = 2 candidate doing the opposite; the
first is a non-trivial weak Cayley table map whenever theta != I, the
second turns out to be an exact antihomomorphism, hence trivial.

The family-agnostic verdicts are shared: homomorphism_failure,
antihomomorphism_failure, nontriviality_certificate and forced_consequences
(bound here as sd_invariants) from wct.maps run on SdGroup.probes/ball and
SdMap.apply, and the brute oracle is wct.conjugacy.brute_is_conjugate,
which sweeps the conjugators of the ball with theta^j and theta^(j - k)
read once per power j and reads only check_element, p and powers of
SdGroup.  The sd_ names bind to them.
"""

from __future__ import annotations

from itertools import product
from operator import mul
from typing import NamedTuple, Sequence

from .conjugacy import brute_is_conjugate as brute_is_conjugate_sd
from .conjugacy import conjugacy_class as class_sd
from .groups import check_radius, int_coords
from .lattice import (
    Mat,
    Sublattice,
    Vec,
    mat_identity,
    mat_inv_unimodular,
    mat_pow,
    matvec,
    vadd,
    vneg,
)
from .maps import wct_certificate_symbolic
from .maps import antihomomorphism_failure as sd_antihomomorphism_failure
from .maps import forced_consequences as sd_invariants
from .maps import nontriviality_certificate as sd_nontriviality


class SdElement(NamedTuple):
    v: Vec
    k: int

    def to_json(self) -> dict:
        return {"v": list(self.v), "k": self.k}


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _product_columns(x: Mat, y: Mat) -> tuple:
    """The columns of the matrix product x y."""
    return tuple(tuple(sum(map(mul, row, col)) for row in x) for col in zip(*y))


class SdGroup:
    """Z^n x C_p for an integer matrix theta with theta^p = I, theta != I."""

    __slots__ = ("n", "p", "F", "identity", "theta", "powers", "comm_lattice",
                 "_conjugators", "_slack")

    def __init__(self, theta: Sequence[Sequence[int]], p: int):
        if not _is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        th: Mat = tuple(int_coords(row, "theta row") for row in theta)
        n = len(th)
        if any(len(row) != n for row in th) or n == 0:
            raise ValueError("theta must be a non-empty square matrix")
        eye = mat_identity(n)
        if th == eye:
            raise ValueError("theta = I gives an abelian product")
        if mat_pow(th, p) != eye:
            raise ValueError(f"theta^{p} != I")
        self.n = n
        self.p = p
        self.F = tuple(range(p))  # the parts: one k-slice per power of r
        self.identity = SdElement((0,) * n, 0)
        self.theta = th
        self.powers = tuple(mat_pow(th, k) for k in range(p))
        # im(theta - I), spanned by the columns (theta - I) e_j; for prime p
        # this is also im(theta^k - I) for every k != 0, so one lattice
        # carries all the non-translation classes
        cols = [tuple(th[i][j] - (i == j) for i in range(n)) for j in range(n)]
        self.comm_lattice = Sublattice(n, cols)
        # conjugating (v, 0) by (w, j) gives (theta^j v, 0); a slice k != 0
        # holds one class per comm_lattice coset, reached by the identity alone
        turns = tuple((j, m, (0,) * n) for j, m in enumerate(self.powers))
        self._conjugators = {(k, h): () for k in range(p) for h in range(p)}
        for k in range(p):
            self._conjugators[k, k] = turns if k == 0 else turns[:1]
        self._slack = (Sublattice.zero(n),) + (self.comm_lattice,) * (p - 1)
        for j in range(n):
            e_j = tuple(int(i == j) for i in range(n))
            assert self.conj(self.element(e_j, 0), self.element(None, 1)) == \
                self.element(matvec(th, e_j), 0)

    def element(self, v: Sequence[int] | None, k: int = 0) -> SdElement:
        vec = (0,) * self.n if v is None else int_coords(v, "vector")
        if len(vec) != self.n:
            raise ValueError(f"vector must have length {self.n}")
        if type(k) is not int:
            raise ValueError(f"slice index must be an int, got {k!r}")
        return SdElement(vec, k % self.p)

    def mul(self, g: SdElement, h: SdElement) -> SdElement:
        twist = self.powers[(-g.k) % self.p]
        return SdElement(vadd(g.v, matvec(twist, h.v)), (g.k + h.k) % self.p)

    def inv(self, g: SdElement) -> SdElement:
        return SdElement(vneg(matvec(self.powers[g.k], g.v)), (-g.k) % self.p)

    def conj(self, g: SdElement, h: SdElement) -> SdElement:
        return self.mul(self.mul(self.inv(h), g), h)

    def comm(self, g: SdElement, h: SdElement) -> SdElement:
        return self.mul(self.inv(self.mul(h, g)), self.mul(g, h))

    def check_element(self, g: SdElement) -> SdElement:
        v, k = g
        if (len(v) != self.n or not all(type(x) is int for x in v)
                or type(k) is not int or not 0 <= k < self.p):
            raise ValueError(f"element {g} does not belong to {self!r}")
        return g

    def conjugators(self, f: int, h: int) -> tuple:
        """(j, theta^j, 0) per power j on slice 0, (0, I, 0) alone on a slice
        k != 0, nothing across slices: the conjugates of (v, f) in slice h are
        the union of the cosets M v + s + slack(h)."""
        return self._conjugators[f, h]

    def slack(self, h: int) -> Sublattice:
        """The zero lattice on slice 0, comm_lattice on every other slice."""
        return self._slack[h]

    def pair_form(self, m: "SdMap", k1: int, k2: int) -> tuple:
        """(k, 0, A, k, 0, B) with k = k1 + k2 mod p: both sides of the WCT
        condition on the slice pair (k1, k2) of m, read from powers and
        m.mats.  From (v1, k1)(v2, k2) = (v1 + theta^-k1 v2, k) and
        m(v, k) = (M_k v, k), m(g1 g2) = M_k v1 + M_k theta^-k1 v2 and
        m(g1) m(g2) = M_k1 v1 + theta^-k1 M_k2 v2; A and B are given as
        their 2n columns."""
        k = (k1 + k2) % self.p
        twist = self.powers[-k1 % self.p]
        lhs, first, second = m.mats[k], m.mats[k1], m.mats[k2]
        zero = self.identity.v
        A = tuple(zip(*lhs)) + _product_columns(lhs, twist)
        B = tuple(zip(*first)) + _product_columns(twist, second)
        return k, zero, A, k, zero, B

    def probes(self) -> list[list[SdElement]]:
        """Per slice: the origin, then one step along each axis."""
        return [[SdElement(v, k) for v in ((0,) * self.n,) + mat_identity(self.n)]
                for k in range(self.p)]

    def ball(self, radius: int) -> list[SdElement]:
        check_radius(radius)
        return [
            SdElement(v, k)
            for v in product(range(-radius, radius + 1), repeat=self.n)
            for k in range(self.p)
        ]

    def __repr__(self) -> str:
        return f"SdGroup(theta={list(map(list, self.theta))}, p={self.p})"


def build(theta: Sequence[Sequence[int]], p: int) -> SdGroup:
    return SdGroup(theta, p)


# -- conjugacy ---------------------------------------------------------------


def is_conjugate_sd(G: SdGroup, g: SdElement, h: SdElement) -> bool:
    """Closed-form conjugacy test; raises ValueError when g or h is not in G."""
    return class_sd(G, g).contains(G.check_element(h))


def derived_lattice(G: SdGroup) -> Sublattice:
    """The commutator subgroup as a sublattice of A, closed form for p = 2."""
    if G.p != 2:
        raise ValueError("closed-form derived lattice is only stated for p = 2")
    return G.comm_lattice


# -- the maps ----------------------------------------------------------------


class SdMap:
    """Bijection fixing each k-slice, linear on translation parts.

    Each slice matrix must be an n x n integer matrix with determinant +-1,
    so the map is a bijection of G that carries A onto A.
    """

    __slots__ = ("p", "mats")

    def __init__(self, G: SdGroup, mats: Sequence[Mat]):
        if len(mats) != G.p:
            raise ValueError("need one matrix per k-slice")
        for k, mat in enumerate(mats):
            if not (isinstance(mat, (list, tuple)) and len(mat) == G.n and all(
                    isinstance(row, (list, tuple)) and len(row) == G.n for row in mat)):
                raise ValueError(f"matrix on slice {k} must be {G.n}x{G.n}")
            if any(type(x) is not int for row in mat for x in row):
                raise ValueError(f"matrix on slice {k} must have int entries")
            try:
                mat_inv_unimodular(mat)
            except ValueError:
                raise ValueError(f"matrix on slice {k} is not unimodular") from None
        self.p = G.p
        self.mats = tuple(tuple(tuple(row) for row in mat) for mat in mats)

    def apply(self, g: SdElement) -> SdElement:
        return SdElement(matvec(self.mats[g.k], g.v), g.k)

    def acts_on(self, G) -> bool:
        """Whether G is a Z^n x C_p with this map's p and n."""
        return isinstance(G, SdGroup) and G.p == self.p and G.n == len(self.mats[0])

    def __eq__(self, other) -> bool:
        return isinstance(other, SdMap) and self.mats == other.mats

    def __hash__(self) -> int:
        return hash(self.mats)

    def to_json(self) -> dict:
        return {"mats": [[list(r) for r in m] for m in self.mats]}


def identity_sd_map(G: SdGroup) -> SdMap:
    eye = mat_identity(G.n)
    return SdMap(G, [eye] * G.p)


def phi_for_odd_p(G: SdGroup) -> SdMap:
    """v |-> theta(v) on A, identity elsewhere; non-trivial WCT map for odd p."""
    if G.p == 2:
        raise ValueError("the twist-A map needs odd p")
    eye = mat_identity(G.n)
    return SdMap(G, [G.theta] + [eye] * (G.p - 1))


def p2_candidate(G: SdGroup) -> SdMap:
    """Fix A, twist the r-coset: the only non-identity shape available at
    p = 2.  It is an exact antihomomorphism, so it never leaves W_0."""
    if G.p != 2:
        raise ValueError("the twisted-coset candidate is specific to p = 2")
    return SdMap(G, [mat_identity(G.n), G.theta])


# -- verification ------------------------------------------------------------


def verify_sd(G: SdGroup, m: SdMap, radius: int) -> dict:
    """Exact weak Cayley table check of m over all of G, per k-slice pair.

    This is maps.wct_certificate_symbolic plus a witness, and for prime p it
    is exact.  Both sides of m(g1 g2) ~ m(g1) m(g2) are linear in
    v = (v1, v2) in Z^{2n}, and the certificate reads them per slice pair
    from SdGroup.pair_form, that is from powers and m.mats, not from
    products of probe elements.  For k1 + k2 != 0 the class is one slack
    coset, so without a uniform conjugator some unit vector of Z^{2n}
    fails.  For k1 + k2 = 0 the condition holds on the union of the
    kernels of B - theta^j A.  If none is all of Z^{2n}, each has a nonzero
    row, which vanishes on at most 2n - 1 points (1, t, ..., t^{2n-1}) of
    the moment curve, so one of the first p(2n - 1) + 1 points avoids all p
    kernels.
    methods labels the slice pairs "uniform" up to the first one without a
    uniform conjugator, labelled "witness"; its first unit or moment-curve
    point that is_conjugate_sd rejects is the witness.  radius is validated
    and echoed; it does not change the verdict.
    """
    check_radius(radius)
    cert = wct_certificate_symbolic(G, m)
    methods = {f"{k1},{k2}": "uniform" if j is not None else "witness"
               for (k1, k2), j in cert["pairs"].items()}
    if cert["proven"]:
        return {"ok": True, "witness": None, "radius": radius, "methods": methods}
    (k1, k2), n = list(cert["pairs"])[-1], G.n
    points = (mat_identity(2 * n) if (k1 + k2) % G.p else
              [tuple(t ** i for i in range(2 * n)) for t in range(G.p * (2 * n - 1) + 1)])
    for v in points:
        g1, g2 = SdElement(v[:n], k1), SdElement(v[n:], k2)
        if not is_conjugate_sd(G, m.apply(G.mul(g1, g2)), G.mul(m.apply(g1), m.apply(g2))):
            return {"ok": False, "witness": [g1.to_json(), g2.to_json()],
                    "radius": radius, "methods": methods}
    raise AssertionError(f"slice pair ({k1}, {k2}) has no uniform conjugator and no witness")

