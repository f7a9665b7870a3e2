"""Closed-form conjugacy structure of the wallpaper groups and Z^n x C_p.

Conjugating a * f by t * f' splits into a translation step, which moves a
within a + K_f for K_f = im(act(f) - I), and a transversal step, which maps
that coset onto act(f')(a + K_f) + s(f, f') inside the A-coset of the
conjugated point part.  A translation's class is therefore a finite orbit;
any other class meets each part h in finitely many cosets of K_h, which
CosetUnionClass keeps as their offsets reduced modulo K_h, so membership of
a * h is one reduction and one set lookup.  All of it is exact integer math.

GroupTable states that closed form once, in two hooks built with its
tables: G.conjugators(f, h) lists the (f', act(f'), s) that carry part f
onto part h, and G.slack(h) is K_h.  SdGroup has the same two, with its
k-slices as the parts G.F.  conjugacy_class reads them for both families
(semidirect.class_sd is conjugacy_class itself); kf and the is_conjugate
plan read them for wallpaper groups only.

is_conjugate decides membership without building a class.  Its per-group
plan, built once per group on first use, holds for every part pair
(g.f, h.f) the entries (act(f'), s) of G.conjugators(g.f, h.f) as flat ints,
together with the HNF rows of G.slack(h.f).  The translation case is the
pair ("1", "1"): its candidates are the act matrices with zero shift and its
lattice has rank 0.  Membership h.a - act(f') g.a - s in K (rank 0, 1 or 2)
is then a few integer divisions, after one chained type test that sends a
non-int coordinate to check_element.

brute_is_conjugate/conjugates_within sweep conjugators from a ball instead
and exist so the closed forms can be tested against something that cannot
share their bugs.  For a wallpaper group brute_is_conjugate is the literal
loop over G.ball and G.conj.  conjugates_within is the same sweep with its
lookups hoisted: the translations t come from groups.cells, cached once per
radius, and the table entries for each conjugator part f' (fprod, act,
act_inv, point_inv) are read once per f'.  Every conjugator c = t * f' is
still multiplied out on its own, c^-1 first and then c^-1 (g c), in flat
integer arithmetic.  brute_is_conjugate serves SdGroup with the same kind
of hoisted sweep: theta^j and theta^(j - k) are read from G.powers once per
conjugator power j, and each c = (w, j) of the ball is multiplied out as
SdGroup.inv and .mul would, c^-1 g first and then (c^-1 g) c, with flat
dot products.  Both kernels read only the multiplication data (the tables
that check_presentation validates, or G.p and G.powers); they must never
read point_conj, conjugators, slack, kf, _plan, a class descriptor or a
closed-form test, nor use that g^c is affine in the conjugator's
translation part, or they could share a bug with the closed forms they
check.  A test parses both oracle bodies to hold them to that.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from operator import mul

from .groups import Element, GroupTable, cells, check_radius
from .lattice import Coset, Sublattice, solve_integer, vneg


def _mat_minus_identity(m):
    return ((m[0][0] - 1, m[0][1]), (m[1][0], m[1][1] - 1))


def _mat_plus_identity(m):
    return ((m[0][0] + 1, m[0][1]), (m[1][0], m[1][1] + 1))


def kf(G: GroupTable, f: str) -> Sublattice:
    """K_f = im(act(f) - I), the translation slack of the class of a*f."""
    if f not in G.F:
        raise ValueError(f"unknown transversal label {f!r} for {G.gid}")
    return G.slack(f)


def fixed_line(G: GroupTable, f: str) -> Sublattice:
    """L(f) = ker(act(f) - I) for a reflection-type part (det act(f) = -1)."""
    return _eigenline(G, f, +1)


def antifixed_line(G: GroupTable, f: str) -> Sublattice:
    """L_perp(f) = ker(act(f) + I) for a reflection-type part."""
    return _eigenline(G, f, -1)


def _eigenline(G: GroupTable, f: str, sign: int) -> Sublattice:
    m = G.act[f]
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if det != -1:
        raise ValueError(f"{f!r} in {G.gid} is not reflection-type (det act = {det})")
    shifted = _mat_minus_identity(m) if sign > 0 else _mat_plus_identity(m)
    sol = solve_integer(shifted, (0, 0))
    assert sol is not None
    return Sublattice(2, sol[1])


# -- class descriptors --------------------------------------------------------


@dataclass(frozen=True)
class TranslationClass:
    """Finite conjugacy class of a translation: the point-group orbit."""

    elements: frozenset

    def contains(self, g: Element) -> bool:
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
    """Class of a non-translation: per part h, a set of residues modulo K_h."""

    parts: tuple  # ((h, K_h, frozenset of K_h.reduce(M a + s)), ...) in G.F order

    def contains(self, g) -> bool:
        a, f = g
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

    def offset(m, s):  # M a + s
        return tuple(sum(map(mul, row, a)) + t for row, t in zip(m, s))

    if f == one:
        return TranslationClass(frozenset(
            make(offset(m, s), one) for _, m, s in G.conjugators(one, one)))
    parts = []
    for h in G.F:
        if entries := G.conjugators(f, h):
            lat = G.slack(h)
            parts.append((h, lat, frozenset(lat.reduce(offset(m, s)) for _, m, s in entries)))
    return CosetUnionClass(tuple(parts))


@lru_cache(maxsize=None)
def _plan(gid: str) -> dict:
    """(g.f, h.f) -> (candidates, p, q, r) for is_conjugate.

    Each candidate is (m00, m01, m10, m11, s0, s1) for one entry (f', m, s)
    of G.conjugators(g.f, h.f).  K_{h.f} = G.slack(h.f) is encoded by its HNF
    rows: (p, q) is the row with pivot in column 0 and (0, r) the row with
    pivot in column 1; p = 0 or r = 0 when that row is absent, which then
    forces the coordinate to vanish.
    """
    from .groups import load_group

    G = load_group(gid)
    plan = {}
    shared = {}  # equal candidates and entries are stored once
    for f in G.F:
        for h in G.F:
            p = q = r = 0
            for row in G.slack(h).rows:
                if row[0]:
                    p, q = row
                else:
                    r = row[1]
            cands = []
            for _, m, s in G.conjugators(f, h):
                cand = (m[0][0], m[0][1], m[1][0], m[1][1], s[0], s[1])
                cands.append(shared.setdefault(cand, cand))
            entry = (tuple(cands), p, q, r)
            plan[(f, h)] = shared.setdefault(entry, entry)
    return plan


def is_conjugate(G: GroupTable, g: Element, h: Element) -> bool:
    """Closed-form conjugacy test; no search.

    Raises ValueError when g or h has a part outside G or a coordinate that
    is not an int.
    """
    try:
        cands, p, q, r = _plan(G.gid)[g.f, h.f]
    except KeyError:
        G.check_element(g)
        G.check_element(h)
        raise
    x0, y0 = g.a
    x1, y1 = h.a
    if not type(x0) is type(y0) is type(x1) is type(y1) is int:
        G.check_element(g)  # one of the two raises ValueError
        G.check_element(h)
    for m00, m01, m10, m11, s0, s1 in cands:
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


def conjugates_within(G: GroupTable, g: Element, radius: int) -> set:
    """Brute conjugate set {g^c : c in ball(radius)}; oracle for is_conjugate.

    Each g^c = c^-1 (g c) is multiplied out as GroupTable.inv and .mul do,
    with the table entries of the part f' of c = t * f' looked up once per f'.
    """
    box = cells(radius)
    G.check_element(g)
    (gx, gy), gf = g
    (a00, a01), (a10, a11) = G.act_inv[gf]
    out = set()
    add = out.add
    new = tuple.__new__  # builds the Element without NamedTuple's Python-level __new__
    for fp in G.F:
        # g c = (g.a + act_inv(g.f) t + e) * l1
        (e0, e1), l1 = G.fprod[gf, fp]
        # c^-1 = (-act(f') (t + k)) * f''
        fpp, (k0, k1) = G.point_inv[fp]
        (n00, n01), (n10, n11) = G.act[fp]
        # c^-1 (g c) = (c^-1.a + act_inv(f'') (g c).a + d) * l2
        (p00, p01), (p10, p11) = G.act_inv[fpp]
        (d0, d1), l2 = G.fprod[fpp, l1]
        for tx, ty in box:
            ux = gx + a00 * tx + a01 * ty + e0
            uy = gy + a10 * tx + a11 * ty + e1
            vx = tx + k0
            vy = ty + k1
            add(new(Element, ((p00 * ux + p01 * uy + d0 - n00 * vx - n01 * vy,
                               p10 * ux + p11 * uy + d1 - n10 * vx - n11 * vy), l2)))
    return out


def brute_is_conjugate(G, g, h, radius: int) -> bool:
    """Brute search of ball(radius) for a conjugator; serves SdGroup too.

    A wallpaper group runs the literal loop over G.ball and G.conj.  For
    Z^n x C_p each conjugator c = (w, j) is multiplied out on its own, as
    SdGroup.inv and .mul do, with theta^j and theta^(j - k) read once per
    power j: c^-1 = (-theta^j w, -j), then c^-1 g = (c^-1.v + theta^j v,
    k - j), then (c^-1 g) c = ((c^-1 g).v + theta^(j - k) w, k).
    """
    G.check_element(g)
    G.check_element(h)
    if isinstance(G, GroupTable):
        return any(G.conj(g, c) == h for c in G.ball(radius))
    check_radius(radius)
    (v, k), (hv, hk), p, powers = g, h, G.p, G.powers
    box = tuple(product(range(-radius, radius + 1), repeat=len(v)))
    for j in range(p):
        if ((k - j) % p + j) % p != hk:  # the C_p part of c^-1 g c
            continue
        a, b = powers[j], powers[(j - k) % p]
        av = [sum(map(mul, row, v)) for row in a]
        for w in box:
            left = [x - sum(map(mul, row, w)) for x, row in zip(av, a)]  # (c^-1 g).v
            if tuple(x + sum(map(mul, row, w)) for x, row in zip(left, b)) == hv:
                return True
    return False


# -- squares and involutions ---------------------------------------------------


def square_affine(G: GroupTable, f: str):
    """(a*f)^2 = (M @ a + c, h) for all a: returns (M, c, h)."""
    if f not in G.F:
        raise ValueError(f"unknown transversal label {f!r} for {G.gid}")
    c, h = G.fprod[(f, f)]
    m = _mat_plus_identity(G.act_inv[f])
    return m, c, h


def squares_image(G: GroupTable, f: str):
    """The set {g^2 : g in A*f} as (h, Coset): affine image of the lattice."""
    m, c, h = square_affine(G, f)
    cols = Sublattice(2, [(m[0][0], m[1][0]), (m[0][1], m[1][1])])
    return h, Coset(c, cols)


def involution_locus(G: GroupTable, f: str):
    """Solutions of (a*f)^2 = e as a Coset of A, or None.

    The identity part is excluded: a*1 squares to e only at the identity
    element itself, which has order 1.
    """
    if f == "1":
        return None
    m, c, h = square_affine(G, f)
    if h != "1":
        return None
    sol = solve_integer(m, vneg(c))
    if sol is None:
        return None
    part, kern = sol
    return Coset(part, Sublattice(2, kern))


def involution_loci(G: GroupTable) -> dict:
    """Map each transversal part to its involution locus (None when empty)."""
    return {f: involution_locus(G, f) for f in G.F if f != "1"}
