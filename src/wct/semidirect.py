"""Semidirect products Z^n x C_p for an integer matrix theta of order p >= 2.

Elements are written (v, k) for the normal form v r^k, with the defining
relation r^-1 v r = theta(v).  That pins the product to
(v, k)(w, m) = (v + theta^-k w, k + m mod p).  Conjugating (v, k) by a
translation moves v within v + im(theta^k - I), and conjugating by r^j
applies theta^j, so the class of (v, k) is the union over j of the cosets
(theta^j v + im(theta^k - I), k).  groups.conjugation_hooks builds the two
dicts GroupTable also has, conjugators[k, h] and slack[h], from that rule,
with the slices F = (0, ..., p - 1) as the parts and act(j) = theta^j; the
method pair_form(m, k1, k2) gives both sides of the WCT condition on a
slice pair as linear functions of the translation parts.  Everything else
is shared with the wallpaper groups, and the sd_ names bind to it:
class_sd is conjugacy_class, sd_invariants is maps.forced_consequences,
brute_is_conjugate_sd is conjugacy.brute_is_conjugate, and verify_sd
reports maps.decide.  The package itself calls the defining names; these
bindings and verify_sd stay only for perfbench, which still calls them.

The two maps of interest twist one part by theta and fix the rest.
phi_for_odd_p twists A, for any order p: for an odd prime p it is a
non-trivial weak Cayley table map, at p = 2 it is an exact
antihomomorphism, hence trivial, and for other orders decide settles it
(twisting Z^2 x C_4 by a quarter turn fails).  p2_candidate, for p = 2
only, twists the r-coset instead; it is an exact antihomomorphism too.
check_twist states what each must show to pass, for the CLI and the battery.
"""

from __future__ import annotations

from itertools import product
from math import lcm
from typing import NamedTuple, Sequence

from .conjugacy import brute_is_conjugate as brute_is_conjugate_sd
from .conjugacy import conjugacy_class as class_sd
from .groups import check_radius, conjugation_hooks, int_coords
from .lattice import (
    Mat,
    Vec,
    mat_identity,
    mat_inv_unimodular,
    matmul,
    matvec,
    vadd,
    vneg,
)
from .maps import antihomomorphism_failure, decide, verify
from .maps import antihomomorphism_failure as sd_antihomomorphism_failure
from .maps import forced_consequences as sd_invariants
from .maps import nontriviality_certificate as sd_nontriviality


class SdElement(NamedTuple):
    v: Vec
    k: int

    def to_json(self) -> dict:
        return {"v": list(self.v), "k": self.k}


class SdGroup:
    """Z^n x C_p for an integer matrix theta of order exactly p >= 2."""

    __slots__ = ("n", "p", "F", "identity", "theta", "powers", "conjugators", "slack")

    def __init__(self, theta: Sequence[Sequence[int]], p: int):
        th: Mat = tuple(int_coords(row, "theta row") for row in theta)
        n = len(th)
        if any(len(row) != n for row in th) or n == 0:
            raise ValueError("theta must be a non-empty square matrix")
        if type(p) is not int or p < 2:
            raise ValueError(f"p must be an int >= 2, got {p!r}")
        # a prime power q^a dividing the order of theta divides the order N
        # of an eigenvalue, whose minimal polynomial has degree
        # phi(N) >= phi(q^a) >= q^a / 2, so q^a <= 2n
        if lcm(*range(1, 2 * n + 1)) % p:
            raise ValueError(f"no {n}x{n} integer matrix has order {p}")
        powers = [mat_identity(n)]
        while len(powers) <= p and (power := matmul(powers[-1], th)) != powers[0]:
            powers.append(power)
        if len(powers) != p:
            raise ValueError(f"theta must have order exactly {p}")
        self.n = n
        self.p = p
        self.F = tuple(range(p))  # the parts: one k-slice per power of r
        self.identity = SdElement((0,) * n, 0)
        self.theta = th
        self.powers = tuple(powers)
        # slack[h] = im(theta^h - I); conjugators[f, h] lists (j, theta^j, 0)
        # for the first j of each coset map (see groups.conjugation_hooks)
        self.slack, self.conjugators = conjugation_hooks(self, self.powers)
        # the relations r^-1 e_j r = theta(e_j), by an explicit raise that
        # python -O keeps: wct semidirect --check presentation relies on it
        for j in range(n):
            e_j = tuple(int(i == j) for i in range(n))
            if self.conj(self.element(e_j, 0), self.element(None, 1)) != \
                    self.element(matvec(th, e_j), 0):
                raise AssertionError(f"r^-1 e_{j} r != theta(e_{j}) for theta = {th}")

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

    def check_element(self, g: SdElement) -> SdElement:
        try:
            v, k = g
            ok = (len(v) == self.n and all(type(x) is int for x in v)
                  and type(k) is int and 0 <= k < self.p)
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise ValueError(f"element {g} does not belong to {self!r}")
        return g

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
        A = tuple(zip(*lhs)) + tuple(zip(*matmul(lhs, twist)))
        B = tuple(zip(*first)) + tuple(zip(*matmul(twist, second)))
        return k, zero, A, k, zero, B

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
    return class_sd(G, g).contains(h)


# -- the maps ----------------------------------------------------------------


class SdMap:
    """Bijection fixing each k-slice, linear on translation parts.

    Each slice matrix must be an n x n integer matrix with determinant +-1,
    so the map is a bijection of G that carries A onto A.
    """

    __slots__ = ("mats",)

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
        self.mats = tuple(tuple(tuple(row) for row in mat) for mat in mats)

    def apply(self, g: SdElement) -> SdElement:
        return SdElement(matvec(self.mats[g.k], g.v), g.k)

    def invert(self) -> "SdMap":
        out = object.__new__(SdMap)  # inverses of unimodular matrices need no re-check
        out.mats = tuple(map(mat_inv_unimodular, self.mats))
        return out

    def acts_on(self, G) -> bool:
        """Whether G is a Z^n x C_p with this map's p and n."""
        return isinstance(G, SdGroup) and G.p == len(self.mats) and G.n == len(self.mats[0])

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
    """The twist of A by theta: v |-> theta(v) on A, identity on the other
    slices, for any p.  A non-trivial WCT map for odd prime p; at p = 2 it
    is p2_candidate followed by conjugation by r, so an exact
    antihomomorphism."""
    eye = mat_identity(G.n)
    return SdMap(G, [G.theta] + [eye] * (G.p - 1))


def p2_candidate(G: SdGroup) -> SdMap:
    """The twist of the r-coset by theta at p = 2: identity on A, theta on
    slice 1.  It is an exact antihomomorphism, so it never leaves W_0."""
    if G.p != 2:
        raise ValueError("the twisted-coset candidate is specific to p = 2")
    return SdMap(G, [mat_identity(G.n), G.theta])


# -- verification ------------------------------------------------------------


def check_twist(G: SdGroup, name: str) -> tuple:
    """(m, report, passes) for the twist "phi" or "p2-candidate" of G, with
    maps.verify's report plus whether m is an exact antihomomorphism.  phi
    passes as a WCT map with a nontriviality certificate, the p = 2
    candidate as a WCT map that is an exact antihomomorphism."""
    m = {"phi": phi_for_odd_p, "p2-candidate": p2_candidate}[name](G)
    rep = verify(G, m)
    # a certificate names a pair that breaks the antihomomorphism law
    rep["antihomomorphism"] = rep["certificate"] is None and antihomomorphism_failure(G, m) is None
    law = rep["antihomomorphism"] if name == "p2-candidate" else rep["certificate"] is not None
    return m, rep, rep["ok"] and law


def verify_sd(G: SdGroup, m: SdMap, radius: int) -> dict:
    """Exact weak Cayley table check of m over all of G: maps.decide, with
    methods keyed by slice pair "k1,k2".  radius is validated and echoed;
    it does not change the verdict."""
    check_radius(radius)
    return {**decide(G, m), "radius": radius}
