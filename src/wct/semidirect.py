"""Semidirect products Z^n x C_p with a prime-order integer action.

Elements are written (v, k) for the normal form v r^k, with the defining
relation r^-1 v r = theta(v).  That pins the product to
(v, k)(w, m) = (v + theta^-k w, k + m mod p).  Since p is prime, every
theta^k with k != 0 mod p generates the same image lattice im(theta - I),
which makes the conjugacy structure closed form: translations fall into
theta-orbits of size dividing p, and (a, k) with k != 0 sweeps the single
coset (a + im(theta - I), k).

The two maps of interest are phi_for_odd_p, which twists A by theta and
fixes everything else, and the p = 2 candidate doing the opposite; the
first is a non-trivial weak Cayley table map whenever theta != I, the
second turns out to be an exact antihomomorphism, hence trivial.

The family-agnostic verdicts are shared: homomorphism_failure,
antihomomorphism_failure, nontriviality_certificate and forced_consequences
from wct.maps run on SdGroup.probes/ball and SdMap.apply, and the brute
oracle is wct.conjugacy.brute_is_conjugate.  The sd_ names bind to them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import NamedTuple, Sequence

from .conjugacy import TranslationClass
from .conjugacy import brute_is_conjugate as brute_is_conjugate_sd
from .groups import check_radius
from .lattice import (
    Coset,
    Mat,
    Sublattice,
    Vec,
    mat_identity,
    mat_pow,
    matmul,
    matvec,
    vadd,
    vneg,
    vsub,
)
from .maps import forced_consequences
from .maps import antihomomorphism_failure as sd_antihomomorphism_failure
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


class SdGroup:
    """Z^n x C_p for an integer matrix theta with theta^p = I, theta != I."""

    __slots__ = ("n", "p", "theta", "powers", "comm_lattice")

    def __init__(self, theta: Sequence[Sequence[int]], p: int):
        if not _is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        th: Mat = tuple(tuple(int(x) for x in row) for row in theta)
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
        self.theta = th
        self.powers = tuple(mat_pow(th, k) for k in range(p))
        # im(theta - I), spanned by the columns (theta - I) e_j; for prime p
        # this is also im(theta^k - I) for every k != 0, so one lattice
        # carries all the non-translation classes
        cols = [tuple(th[i][j] - (i == j) for i in range(n)) for j in range(n)]
        self.comm_lattice = Sublattice(n, cols)
        for j in range(n):
            e_j = tuple(int(i == j) for i in range(n))
            assert self.conj(self.element(e_j, 0), self.element(None, 1)) == \
                self.element(matvec(th, e_j), 0)

    @property
    def identity(self) -> SdElement:
        return SdElement((0,) * self.n, 0)

    def element(self, v: Sequence[int] | None, k: int = 0) -> SdElement:
        vec = (0,) * self.n if v is None else tuple(int(x) for x in v)
        if len(vec) != self.n:
            raise ValueError(f"vector must have length {self.n}")
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

    def probes(self) -> list[list[SdElement]]:
        """Per slice: the origin, then one step along each axis."""
        return [[SdElement(v, k) for v in ((0,) * self.n,) + mat_identity(self.n)]
                for k in range(self.p)]

    def ball(self, radius: int) -> list[SdElement]:
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


@dataclass(frozen=True)
class SdCosetClass:
    """Class of (a, k != 0): one lattice coset in the fixed k-slice."""

    k: int
    coset: Coset

    def contains(self, g: SdElement) -> bool:
        return g.k == self.k and self.coset.contains(g.v)

    def to_json(self) -> dict:
        return {"kind": "coset", "k": self.k, **self.coset.to_json()}


def class_sd(G: SdGroup, g: SdElement):
    if g.k == 0:
        return TranslationClass(frozenset(
            SdElement(matvec(m, g.v), 0) for m in G.powers))
    return SdCosetClass(g.k, Coset(g.v, G.comm_lattice))


def is_conjugate_sd(G: SdGroup, g: SdElement, h: SdElement) -> bool:
    if g.k != h.k:
        return False
    if g.k == 0:
        return any(matvec(m, g.v) == h.v for m in G.powers)
    return G.comm_lattice.contains(vsub(h.v, g.v))


def derived_lattice(G: SdGroup) -> Sublattice:
    """The commutator subgroup as a sublattice of A, closed form for p = 2."""
    if G.p != 2:
        raise ValueError("closed-form derived lattice is only stated for p = 2")
    return G.comm_lattice


# -- the maps ----------------------------------------------------------------


class SdMap:
    """Bijection fixing each k-slice, linear on translation parts."""

    __slots__ = ("p", "mats")

    def __init__(self, G: SdGroup, mats: Sequence[Mat]):
        if len(mats) != G.p:
            raise ValueError("need one matrix per k-slice")
        self.p = G.p
        self.mats = tuple(mats)

    def apply(self, g: SdElement) -> SdElement:
        return SdElement(matvec(self.mats[g.k], g.v), g.k)

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
    """Weak Cayley table check of m over ball(radius), per k-slice pair.

    Both sides of m(g1 g2) ~ m(g1) m(g2) are linear in (v1, v2), so each
    slice pair is first attempted uniformly: for k1 + k2 != 0 the difference
    must have all its columns in the commutator lattice, and for k1 + k2 = 0
    the two coefficient matrices must agree up to one global theta-power.
    Slices without a uniform certificate fall back to enumerating the ball;
    the verdict reports which method settled each slice pair.
    """
    check_radius(radius)
    eye = mat_identity(G.n)
    lat = G.comm_lattice
    methods = {}
    for k1 in range(G.p):
        for k2 in range(G.p):
            ks = (k1 + k2) % G.p
            # m(g1 g2) = A1 v1 + A2 v2, m(g1) m(g2) = B1 v1 + B2 v2
            a = m.mats[ks]
            tw = G.powers[(-k1) % G.p]
            a1, a2 = a, matmul(a, tw)
            b1, b2 = m.mats[k1], matmul(tw, m.mats[k2])
            if ks != 0:
                cols_ok = all(
                    lat.contains(tuple(a1[i][j] - b1[i][j] for i in range(G.n)))
                    and lat.contains(tuple(a2[i][j] - b2[i][j] for i in range(G.n)))
                    for j in range(G.n))
                if cols_ok:
                    methods[(k1, k2)] = "uniform"
                    continue
            else:
                if any(matmul(tp, b1) == a1 and matmul(tp, b2) == a2
                       for tp in G.powers):
                    methods[(k1, k2)] = "uniform"
                    continue
            methods[(k1, k2)] = "ball"
            for v1 in product(range(-radius, radius + 1), repeat=G.n):
                for v2 in product(range(-radius, radius + 1), repeat=G.n):
                    g1, g2 = SdElement(v1, k1), SdElement(v2, k2)
                    lhs = m.apply(G.mul(g1, g2))
                    rhs = G.mul(m.apply(g1), m.apply(g2))
                    if not is_conjugate_sd(G, lhs, rhs):
                        return {"ok": False,
                                "witness": [g1.to_json(), g2.to_json()],
                                "radius": radius,
                                "methods": _method_json(methods)}
    return {"ok": True, "witness": None, "radius": radius,
            "methods": _method_json(methods)}


def _method_json(methods: dict) -> dict:
    return {f"{k1},{k2}": how for (k1, k2), how in sorted(methods.items())}


def sd_power_compatible(G: SdGroup, m: SdMap, radius: int, max_power: int = 5) -> bool:
    """m(a^j) = m(a)^j for translations a in ball(radius): forced for any
    weak Cayley table bijection of the product."""
    for v in product(range(-radius, radius + 1), repeat=G.n):
        a = SdElement(v, 0)
        img = m.apply(a)
        acc_a, acc_img = a, img
        for _ in range(max_power - 1):
            acc_a = G.mul(acc_a, a)
            acc_img = G.mul(acc_img, img)
            if m.apply(acc_a) != acc_img:
                return False
    return True




def sd_invariants(G: SdGroup, m: SdMap, radius: int = 2) -> dict:
    """maps.forced_consequences with class_sd; A is fixed setwise exactly
    when the translation slice matrix is unimodular."""
    cols = [tuple(row[j] for row in m.mats[0]) for j in range(G.n)]
    return forced_consequences(G, m, radius, class_sd,
                               Sublattice(G.n, cols) == Sublattice.full(G.n))
