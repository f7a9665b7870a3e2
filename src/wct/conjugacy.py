"""Closed-form conjugacy structure of the wallpaper groups and Z^n x C_p.

Conjugating a * f by t * f' splits into a translation step, which moves a
within a + K_f for K_f = im(act(f) - I), and a transversal step, which maps
that coset onto act(f')(a + K_f) + s(f, f') inside the A-coset of the
conjugated point part.  A translation's class is therefore a finite orbit;
any other class meets each part h in finitely many cosets of K_h, which
CosetUnionClass keeps as their offsets reduced modulo K_h, so membership of
a * h is one G.check_element call, one reduction and one set lookup.  All
of it is exact integer math.

groups.conjugation_hooks states that closed form once for both families,
as two dicts it builds from a group's product rule: G.conjugators[f, h]
lists (f', act(f'), s) for the first f' of each distinct coset map that
carries part f onto part h, and G.slack[h] is K_h.  A GroupTable also
keeps K_h's HNF rows as three ints, G.slack_hnf[h], which is_conjugate,
maps.is_wct_on_ball and maps.decide read; an SdGroup's parts G.F are its
k-slices.  conjugacy_class reads the hooks for both families
(semidirect.class_sd is conjugacy_class itself); kf and is_conjugate read
them for wallpaper groups only, from the group they are given.
involution_locus serves both families too: it reads the square of a*f off
G.mul with groups.affine_on_part and solves it for e.

is_conjugate decides membership without building a class.  For the part
pair (g.f, h.f) it unpacks each entry (f', act(f'), s) of
G.conjugators[g.f, h.f] in place and tests h.a - act(f') g.a - s against
K = K_{h.f}, encoded by the HNF rows (p, q) and (0, r) of G.slack_hnf[h.f]:
a few integer divisions.  g and h are unpacked as ((x, y), f) pairs; a
failed unpacking or lookup, or one chained type test on the coordinates,
sends a malformed element to check_element.  The translation case is the
pair ("1", "1"): its entries are the act matrices with zero shift and its
lattice has rank 0.

brute_is_conjugate/conjugates_within sweep conjugators from a ball instead
and exist so the closed forms can be tested against something that cannot
share their bugs.  For a wallpaper group brute_is_conjugate is the literal
loop over G.ball and G.conj.  conjugates_within is the same sweep in two
stages, resting on one group identity: a conjugator c = t * f' of the ball
is the product of the translation t and the pure part c' = (0, 0) * f', so
g^c = c'^-1 (t^-1 g t) c' = (g^t)^c'.  Stage 1 multiplies out g^t =
t^-1 (g t) for each t of groups.cells, from the tables read at
G.identity.f, and keeps the distinct results; stage 2 multiplies out
c'^-1 (u c') for each distinct u and each f', with fprod, act, act_inv and
point_inv read once per f'.  Every product is the one GroupTable.inv and
.mul compute, in flat integer arithmetic, and the identity holds in any
group, so the sweep still reads nothing but the product rule.  Given outer,
it keeps only the conjugates in ball(outer), the ball a caller compares
on: a bound on coordinates it has just computed says nothing about which
elements are conjugate, so it shares nothing with the closed forms.
brute_is_conjugate serves SdGroup with the same identity: a conjugator
c = (w, j) of the ball is t * c' with t = (w, 0) and c' = (0, j), so g^c = h
exactly when g^t = c' h c'^-1.  It multiplies out the p targets c' h c'^-1
once, then g^t = t^-1 (g t) for each w of the box, both as SdGroup.inv and
.mul give them, with flat dot products, and stops at the first g^t that is
a target.  Both kernels read only the multiplication data (the tables that
check_presentation validates, or G.p and G.powers); they must never read
conjugation_hooks, conjugators, slack, slack_hnf, kf, a class descriptor or
a closed-form test, nor use that g^c is affine in the conjugator's
translation part, or they could share a bug with the closed forms they
check.  A test parses both oracle bodies to hold them to that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from operator import mul
from typing import Callable

from .groups import Element, GroupTable, affine_on_part, cells, check_radius
from .lattice import Coset, Sublattice, matvec, solve_integer, vadd, vneg


def kf(G: GroupTable, f: str) -> Sublattice:
    """K_f = im(act(f) - I), the translation slack of the class of a*f."""
    if f not in G.F:
        raise ValueError(f"unknown transversal label {f!r} for {G.gid}")
    return G.slack[f]


# -- class descriptors --------------------------------------------------------


@dataclass(frozen=True)
class TranslationClass:
    """Finite conjugacy class of a translation: the point-group orbit.  check
    is G.check_element, so contains raises ValueError wherever is_conjugate
    does; it takes no part in ==, hash or to_json."""

    elements: frozenset
    check: Callable = field(compare=False, repr=False)

    def contains(self, g: Element) -> bool:
        self.check(g)
        return g in self.elements

    def size(self) -> int:
        return len(self.elements)

    def to_json(self) -> dict:
        return {
            "kind": "finiteSet",
            "elements": [e.to_json() for e in sorted(self.elements)],
        }


@dataclass(frozen=True)
class CosetUnionClass:
    """Class of a non-translation: per part h, a set of residues modulo K_h;
    check as in TranslationClass."""

    parts: tuple  # ((h, K_h, frozenset of K_h.reduce(M a + s)), ...) in G.F order
    check: Callable = field(compare=False, repr=False)

    def contains(self, g) -> bool:
        a, f = self.check(g)
        for part, lat, offsets in self.parts:
            if part == f:
                return lat.reduce(a) in offsets
        return False

    @property
    def pieces(self) -> tuple:  # ((h, Coset), ...), offsets sorted within each part
        return tuple((h, Coset(o, lat)) for h, lat, offs in self.parts for o in sorted(offs))

    def to_json(self) -> dict:
        return {
            "kind": "cosetUnion",
            "pieces": [{"f": f, **c.to_json()} for f, c in self.pieces],
        }


def conjugacy_class(G, g):
    """Exact descriptor of the conjugacy class of g in a wallpaper group or a
    Z^n x C_p, read off G.conjugators and G.slack."""
    a, f = G.check_element(g)
    e = G.identity
    make, one = type(e), e[1]

    if f == one:
        return TranslationClass(frozenset(
            make(vadd(matvec(m, a), s), one) for _, m, s in G.conjugators[one, one]),
            G.check_element)
    parts = []
    for h in G.F:
        if entries := G.conjugators[f, h]:
            lat = G.slack[h]
            parts.append((h, lat, frozenset(lat.reduce(vadd(matvec(m, a), s))
                                            for _, m, s in entries)))
    return CosetUnionClass(tuple(parts), G.check_element)


def is_conjugate(G: GroupTable, g: Element, h: Element) -> bool:
    """Closed-form conjugacy test; no search.

    g and h may be plain ((x, y), f) tuples, as conjugacy_class takes them.
    Raises ValueError when g or h is not such a pair, has a part outside G
    or has a coordinate that is not an int.
    """
    try:
        (x0, y0), gf = g
        (x1, y1), hf = h
        cands = G.conjugators[gf, hf]
    except (KeyError, TypeError, ValueError):
        G.check_element(g)  # one of the two raises ValueError
        G.check_element(h)
        raise
    p, q, r = G.slack_hnf[hf]
    if not type(x0) is type(y0) is type(x1) is type(y1) is int:
        G.check_element(g)  # one of the two raises ValueError
        G.check_element(h)
    for _, ((m00, m01), (m10, m11)), (s0, s1) in cands:
        x = x1 - m00 * x0 - m01 * y0 - s0
        y = y1 - m10 * x0 - m11 * y0 - s1
        if p:
            if x % p:
                continue
            y -= x // p * q
        elif x:
            continue
        if not (y % r if r else y):
            return True
    return False


def conjugates_within(G: GroupTable, g: Element, radius: int, outer=None) -> set:
    """Brute conjugate set {g^c : c in ball(radius)}; oracle for is_conjugate.

    Each c of the ball is t * f', so g^c = (g^t)^c' with c' = (0, 0) * f'.
    Stage 1 multiplies out each g^t = t^-1 (g t) as GroupTable.inv and .mul
    do, reading the tables at G.identity.f, and keeps the distinct
    translation parts (every g^t lies in one part).  Stage 2 multiplies out
    c'^-1 (u c') for each distinct u and each f', with the table entries of
    f' looked up once, and keeps the distinct translation parts per result
    part; each Element is built once, at the end.  With outer set, only the
    g^c in ball(outer) are kept.
    """
    box = cells(radius)
    G.check_element(g)
    if outer is not None:  # an empty keep-set would make every comparison vacuous
        check_radius(outer)
    lo = None if outer is None else -outer
    (gx, gy), gf = g
    one = G.identity.f
    # stage 1, c = t * one.  g c = (g.a + act_inv(g.f) t + e) * l1
    (a00, a01), (a10, a11) = G.act_inv[gf]
    (e0, e1), l1 = G.fprod[gf, one]
    # c^-1 = (-act(one) (t + k)) * fpp
    fpp, (k0, k1) = G.point_inv[one]
    (n00, n01), (n10, n11) = G.act[one]
    # g^t = c^-1 (g c) = (c^-1.a + act_inv(fpp) (g c).a + d) * uf
    (p00, p01), (p10, p11) = G.act_inv[fpp]
    (d0, d1), uf = G.fprod[fpp, l1]
    moved = set()
    keep = moved.add
    for tx, ty in box:
        ux = gx + a00 * tx + a01 * ty + e0
        uy = gy + a10 * tx + a11 * ty + e1
        vx = tx + k0
        vy = ty + k1
        keep((p00 * ux + p01 * uy + d0 - n00 * vx - n01 * vy,
              p10 * ux + p11 * uy + d1 - n10 * vx - n11 * vy))
    parts = {}  # part l2 -> the distinct translation parts of its conjugates
    for fp in G.F:
        # stage 2, c = (0, 0) * f'.  u c = (u.a + e) * l1
        (e0, e1), l1 = G.fprod[uf, fp]
        # c^-1 = (-act(f') k) * fpp
        fpp, (k0, k1) = G.point_inv[fp]
        (n00, n01), (n10, n11) = G.act[fp]
        # u^c = c^-1 (u c) = (c^-1.a + act_inv(fpp) (u c).a + d) * l2
        (p00, p01), (p10, p11) = G.act_inv[fpp]
        (d0, d1), l2 = G.fprod[fpp, l1]
        # the terms of (u^c).a that do not read u
        x0 = p00 * e0 + p01 * e1 + d0 - n00 * k0 - n01 * k1
        y0 = p10 * e0 + p11 * e1 + d1 - n10 * k0 - n11 * k1
        add = parts.setdefault(l2, set()).add
        for ux, uy in moved:
            x = p00 * ux + p01 * uy + x0
            if outer is None or lo <= x <= outer:
                y = p10 * ux + p11 * uy + y0
                if outer is None or lo <= y <= outer:
                    add((x, y))
    new = tuple.__new__  # builds the Element without NamedTuple's Python-level __new__
    return {new(Element, (a, l2)) for l2, found in parts.items() for a in found}


def brute_is_conjugate(G, g, h, radius: int) -> bool:
    """Brute search of ball(radius) for a conjugator; serves SdGroup too.

    A wallpaper group runs the literal loop over G.ball and G.conj.  For
    Z^n x C_p each conjugator of the ball is c = t * c' with t = (w, 0) and
    c' = (0, j), as (w, 0)(0, j) = (w, j), so g^c = (g^t)^c' and g^c = h
    exactly when g^t = c' h c'^-1.  Stage 1 multiplies out the p targets
    c' h c'^-1 = (theta^-j hv, hk) as SdGroup.mul and .inv give them; stage
    2 multiplies out g^t = t^-1 (g t) = (v - w + theta^-k w, k) for each w
    of the box and stops at the first one that is a target.  Every g^t lies
    in g's slice k, so an h in another slice meets no target.
    """
    G.check_element(g)
    G.check_element(h)
    if isinstance(G, GroupTable):
        return any(G.conj(g, c) == h for c in G.ball(radius))
    check_radius(radius)
    (v, k), (hv, hk), p, powers = g, h, G.p, G.powers
    if hk != k:
        return False
    # c' h = (theta^-j hv, j + hk), and c'^-1 = (0, -j) adds theta^-(j + hk) 0 = 0
    targets = {tuple(sum(map(mul, row, hv)) for row in powers[-j % p]) for j in range(p)}
    # t^-1 = (-w, 0), t^-1 g = (v - w, k), (t^-1 g) t = (v - w + theta^-k w, k)
    b = powers[-k % p]
    return any(tuple(x - y + sum(map(mul, row, w)) for x, y, row in zip(v, w, b)) in targets
               for w in product(range(-radius, radius + 1), repeat=len(v)))


# -- involutions ----------------------------------------------------------------


def involution_locus(G, f):
    """The a with (a*f)^2 = e as a Coset of the translation lattice, or None;
    serves SdGroup too.  (a*f)^2 = (M a + t)*h is affine in a, so the locus
    is empty unless h is the identity's part, and else solves M a = -t.  The
    identity's part is excluded: its only solution, e, has order 1."""
    if f not in G.F:
        raise ValueError(f"unknown transversal label {f!r} for {getattr(G, 'gid', G)}")
    one = G.identity[1]
    h, m, t = affine_on_part(G, lambda g: G.mul(g, g), f)
    sol = solve_integer(m, vneg(t)) if h == one and f != one else None
    return None if sol is None else Coset(sol[0], Sublattice(len(t), sol[1]))


def involution_loci(G) -> dict:
    """Map each part off the identity's to its involution locus (None when empty)."""
    return {f: involution_locus(G, f) for f in G.F if f != G.identity[1]}
