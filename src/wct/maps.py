"""Coset-wise affine bijections of a wallpaper group.

A map here sends each translation coset A*f onto some coset A*f' by an
integer-affine rule a |-> M a + t.  Automorphisms of the catalog, inversion,
inner maps and the tau/mu conjugation patches all have this shape, and the
shape is closed under composition and inverse, so weak Cayley table identities
become decidable equalities of finitely much integer data: no ball arguments
are needed to compare two maps.

Conventions, fixed once: composition m1 * m2 applies m2 first, and m^n
(conjugate_by) is inv(n) * m * n.  parse_map_expr reads the paper's notation
by them, and wgroup_relations evaluates each relation from its printed text.

verify, the one verification procedure, assembles every map verdict the CLI
and the battery report.  It and homomorphism_failure,
antihomomorphism_failure, nontriviality_certificate, forced_consequences and
decide serve wct.semidirect too: they use only G.mul, G.inv, G.identity,
m.apply, m.invert, m.acts_on, the two conjugation dicts G.conjugators and
G.slack, which hold each family's closed form of conjugacy, and G.pair_form,
which reads both sides of the WCT condition on one pair of parts off the
tables and the map's rule as affine functions of the two translation parts.
decide, the three law checks and the ball check's _pair_uniform read that
form, so the product rule of each family is derived in one place; the law
checks read nothing else of G or m.  decide and forced_consequences, both
exact over the whole group, share the kernel _cover, whose tail
uncovered_point also decides acceptance criterion 4's coset inclusions.
wct_invariants and semidirect.sd_invariants are bindings of
forced_consequences, kept for perfbench.  Every verdict first asks
m.acts_on(G) and raises ValueError for a map of another group, which would
otherwise be judged through the part labels the two groups share.

compose, invert and random_map build their results without re-validation
(see CosetwiseAffineMap._trusted); CosetwiseAffineMap(G, rule) keeps every
check for rules built by callers.

is_wct_on_ball scans ball(radius) x ball(radius) in ball order.  With the
parts of a pair fixed, only the translation parts x1, x2 vary, and a part
pair is uniform when one conjugator serves every cell, which pair_form's
constant and coefficient columns show; such a pair is settled by that one
test, whatever the radius.  Each pair of the others is judged by the
definition: is_conjugate of m(g1 g2) and m(g1) m(g2).  A pass is still
evidence from a finite ball, not a proof; it is decide's oracle and shares
only pair_form and the hooks with it.  It serves the wallpaper groups;
decide covers Z^n x C_p exactly.
"""

from __future__ import annotations

import random
from collections import deque
from functools import lru_cache, reduce
from itertools import count, product
from operator import eq, mul

from .conjugacy import conjugacy_class, involution_loci, is_conjugate
from .groups import (Element, GroupTable, affine_on_part, cells, check_radius, evaluate_word,
                     load_group, parse_element)
from .lattice import Coset, Sublattice, Vec, mat_identity, matvec, solve_integer, vadd, vneg, vsub

_I2 = mat_identity(2)
_Z2: Vec = (0, 0)


class CosetwiseAffineMap:
    """rule[f] = (f2, M, t): a*f |-> (M a + t)*f2, with f2 a part of G, M a
    2x2 int matrix of determinant +-1 and t an int pair; the targets f2
    permute the parts.  Entries are stored as tuples."""

    __slots__ = ("gid", "rule")

    def __init__(self, G: GroupTable, rule: dict):
        parts = G.F
        if set(rule) != set(parts):
            raise ValueError(f"rule must cover exactly the parts of {G.gid}")
        checked = {}
        for f in parts:
            entry = rule[f]
            try:
                f2, m, t = entry
            except (TypeError, ValueError):
                raise ValueError(f"rule entry of coset {f!r} must be a triple "
                                 "(target, matrix, shift)") from None
            if f2 not in parts:
                raise ValueError(f"target {f2!r} of coset {f!r} is not a part of {G.gid}")
            try:
                (a, b), (c, d) = m
                ok = type(a) is type(b) is type(c) is type(d) is int
            except (TypeError, ValueError):
                ok = False
            if not ok:
                raise ValueError(f"matrix on coset {f!r} must be 2x2 with int entries")
            if a * d - b * c not in (1, -1):
                raise ValueError(f"matrix on coset {f!r} is not invertible over Z")
            try:
                t0, t1 = t
                ok = type(t0) is type(t1) is int
            except (TypeError, ValueError):
                ok = False
            if not ok:
                raise ValueError(f"shift on coset {f!r} must be a pair of ints")
            checked[f] = (f2, ((a, b), (c, d)), (t0, t1))
        if len({f2 for f2, _, _ in checked.values()}) != len(parts):
            raise ValueError("rule does not permute the translation cosets")
        self.gid = G.gid
        self.rule = checked

    def acts_on(self, G) -> bool:
        """Whether G is the wallpaper group this map was built for."""
        return isinstance(G, GroupTable) and G.gid == self.gid

    def apply(self, g: Element) -> Element:
        f2, m, t = self.rule[g.f]
        a = g.a
        return Element(
            (m[0][0] * a[0] + m[0][1] * a[1] + t[0],
             m[1][0] * a[0] + m[1][1] * a[1] + t[1]),
            f2,
        )

    @classmethod
    def _trusted(cls, gid: str, rule: dict) -> "CosetwiseAffineMap":
        """A map from a rule already in G.F order with tuple entries, built
        without the checks of __init__: compose and invert only make such
        rules, since products and inverses of unimodular coset permutations
        are unimodular coset permutations again, and random_map draws its
        targets as a shuffle of G.F and its matrices from the unimodular
        pool.

        Every rule is stored in G.F order, as __init__ builds it too, so ==
        and hash read the rule itself and see the map a validated
        construction would give, as repr and to_json do."""
        out = object.__new__(cls)
        out.gid = gid
        out.rule = rule
        return out

    def compose(self, other: "CosetwiseAffineMap") -> "CosetwiseAffineMap":
        """self after other."""
        if self.gid != other.gid:
            raise ValueError("maps act on different groups")
        mine = self.rule
        rule = {}
        for f, (f2, ((a, b), (c, d)), (t0, t1)) in other.rule.items():
            f1, ((p, q), (r, s)), (u0, u1) = mine[f2]
            rule[f] = (f1, ((p * a + q * c, p * b + q * d), (r * a + s * c, r * b + s * d)),
                       (p * t0 + q * t1 + u0, r * t0 + s * t1 + u1))
        return CosetwiseAffineMap._trusted(self.gid, rule)

    def invert(self) -> "CosetwiseAffineMap":
        inverse = {}
        for f, (f2, ((a, b), (c, d)), (t0, t1)) in self.rule.items():
            det = a * d - b * c  # +-1, so it is its own inverse
            p, q, r, s = det * d, -det * b, -det * c, det * a
            inverse[f2] = (f, ((p, q), (r, s)), (-(p * t0 + q * t1), -(r * t0 + s * t1)))
        return CosetwiseAffineMap._trusted(self.gid, {f: inverse[f] for f in self.rule})

    def conjugate_by(self, n: "CosetwiseAffineMap") -> "CosetwiseAffineMap":
        """inv(n) * self * n, applied n first."""
        return n.invert().compose(self).compose(n)

    def is_identity(self) -> bool:
        return all(self.rule[f] == (f, _I2, _Z2) for f in self.rule)

    def __eq__(self, other) -> bool:
        return (isinstance(other, CosetwiseAffineMap)
                and (self.gid, self.rule) == (other.gid, other.rule))

    def __hash__(self) -> int:
        return hash((self.gid, tuple(self.rule.items())))

    def __repr__(self) -> str:
        return f"CosetwiseAffineMap({self.gid}, {self.rule!r})"

    def to_json(self) -> dict:
        return {
            "group": self.gid,
            "rule": {
                f: {"to": f2, "m": [list(r) for r in m], "t": list(t)}
                for f, (f2, m, t) in sorted(self.rule.items())
            },
        }


def identity_map(G: GroupTable) -> CosetwiseAffineMap:
    return CosetwiseAffineMap(G, {f: (f, _I2, _Z2) for f in G.F})


def iota(G: GroupTable) -> CosetwiseAffineMap:
    """g |-> g^-1."""
    return map_from_function(G, G.inv)


def map_from_function(G: GroupTable, fn) -> CosetwiseAffineMap:
    """Fit the affine rule of fn per coset, then verify it at two more points."""
    out = CosetwiseAffineMap(G, {f: affine_on_part(G, fn, f) for f in G.F})
    for f in G.F:
        for point in ((2, 3), (-1, 4)):
            g = Element(point, f)
            if out.apply(g) != fn(g):
                raise ValueError(f"function is not affine on coset {f!r}")
    return out


def inner_map(G: GroupTable, g: Element) -> CosetwiseAffineMap:
    """h |-> h^g = g^-1 h g."""
    G.check_element(g)
    return map_from_function(G, lambda h: G.conj(h, g))


def coset_conjugation(G: GroupTable, parts, u: Element) -> CosetwiseAffineMap:
    """Conjugate the listed cosets by u, fix everything else pointwise.

    This is the shape of all the non-trivial tau/mu generators, whose p4 and
    p6 families are the rows of _PATCHES; whether a given (parts, u) choice
    actually lands in W(G) is is_wct_on_ball's job.
    """
    G.check_element(u)
    chosen = set(parts)
    unknown = chosen - set(G.F)
    if unknown:
        raise ValueError(f"unknown parts {sorted(unknown)} for {G.gid}")
    return map_from_function(
        G, lambda h: G.conj(h, u) if h.f in chosen else h
    )


def automorphism(G: GroupTable, images: dict) -> CosetwiseAffineMap:
    """Extend generator images to the whole group; reject non-homomorphisms.

    images maps the keys of G.generators ("x", "y", and "rho", "sigma" or
    "gamma" when present) to Elements; x and y must land in A, so a single
    matrix serves every coset.
    """
    for key in G.generators:
        if key not in images:
            raise ValueError(f"missing image for generator {key!r}")
    vx, vy = images["x"], images["y"]
    if vx.f != "1" or vy.f != "1":
        raise ValueError("x and y must map into the translation subgroup")
    m = ((vx.a[0], vy.a[0]), (vx.a[1], vy.a[1]))
    rule = {}
    for f in G.F:
        k, e = G._part_of[f]
        img = G.identity
        if k:
            img = G.power(images["rho"], k)
        if e:
            img = G.mul(img, images[G.refl])
        rule[f] = (img.f, m, img.a)
    out = CosetwiseAffineMap(G, rule)
    bad = homomorphism_failure(G, out)
    if bad is not None:
        raise ValueError(f"generator images do not define a homomorphism: {bad}")
    return out


# -- exact structural checks ---------------------------------------------------


def _check_map(G, m) -> None:
    """Reject a map built for another group: a verdict on it would be about
    neither group."""
    if not m.acts_on(G):
        raise ValueError(f"the map does not act on {getattr(G, 'gid', G)}")


def _law_failure(G, m, anti: bool):
    """First pair with m(g1 g2) != m(g1) m(g2), or != m(g2) m(g1) when anti
    is set; None when the law holds on all of G.

    Per part pair (f1, f2), in G.F order, G.pair_form gives m(g1 g2) =
    (a0 + A v)*lf and m(g1) m(g2) = (b0 + B v)*rf for v = (x1, x2), so the
    law holds on the pair exactly when lf == rf, a0 == b0 and A == B.  For
    anti the right side is that of pair_form(m, f2, f1), whose v is
    (x2, x1), with the halves of B swapped back.  The first disagreement is
    reported at the pair it shows at: (o, o) for the part or the constant,
    (e_i, o) for column i < n and (o, e_j) for column n + j.
    """
    _check_map(G, m)
    for f1 in G.F:
        for f2 in G.F:
            lf, a0, A, rf, b0, B = G.pair_form(m, f1, f2)
            if anti:
                _, _, _, rf, b0, B = G.pair_form(m, f2, f1)
                B = B[len(b0):] + B[:len(b0)]
            left, right = (lf, a0) + A, (rf, b0) + B
            if left != right:
                k = list(map(eq, left, right)).index(False) - 2  # the column, or < 0
                n, make = len(a0), type(G.identity)
                v = [int(i == k) for i in range(2 * n)]
                return make(tuple(v[:n]), f1), make(tuple(v[n:]), f2)
    return None


def homomorphism_failure(G, m):
    """First pair with m(g1 g2) != m(g1) m(g2), or None; exact over all of G."""
    return _law_failure(G, m, anti=False)


def antihomomorphism_failure(G, m):
    """First pair with m(g1 g2) != m(g2) m(g1), or None; exact over all of G."""
    return _law_failure(G, m, anti=True)


_MAP_ORDER_BOUND = 12  # map_order gives up above this order


def map_order(m: CosetwiseAffineMap):
    acc = m
    for k in range(1, _MAP_ORDER_BOUND + 1):
        if acc.is_identity():
            return k
        acc = acc.compose(m)
    return None


# -- weak Cayley table verification ---------------------------------------------


def is_wct_on_ball(G: GroupTable, m: CosetwiseAffineMap, radius: int) -> dict:
    """Check m(g1 g2) ~ m(g1) m(g2) for all pairs from ball(radius) of a
    wallpaper group.

    Sound for violations, since a failing pair fails the condition itself;
    passing is evidence, not proof, since the ball is finite.  pairs_checked
    counts the pairs the verdict covers: all of ball x ball on a pass, up to
    and including the witness otherwise, in ball order.

    The scan walks ball x ball in that order.  f1's first row, of
    g1 = (0, 0)*f1, meets the part pairs (f1, f2) in its first cell, and
    there _pair_uniform asks whether one conjugator serves every cell.  A
    uniform part pair holds on all of its pairs and is never visited; each
    pair of the others is judged by the definition, is_conjugate of
    m(g1 g2) and m(g1) m(g2) through G.mul and m.apply.  So when every part
    pair is uniform the check costs |F|^2 candidate tests, at any radius.
    The first pair that fails is the witness.

    Z^n x C_p raises ValueError: decide covers it exactly.
    """
    _check_map(G, m)
    if not isinstance(G, GroupTable):
        raise ValueError("the ball check serves the 17 wallpaper groups; "
                         "decide covers Z^n x C_p exactly")
    xs = cells(radius)
    parts = G.F
    width = len(parts)
    size = len(xs) * width
    mul, apply = G.mul, m.apply
    live = [[] for _ in parts]  # per part f1: the j2 of its part pairs that are not uniform
    for c1, a1 in enumerate(xs):
        for j1, f1 in enumerate(parts):
            row = live[j1]
            g1 = None  # built at the row's first pair that is not uniform
            for c2, a2 in enumerate(xs):
                for j2 in row if c1 or c2 else _meet(G, m, f1, row):
                    if g1 is None:
                        g1 = Element(a1, f1)
                        mg1 = apply(g1)
                    g2 = Element(a2, parts[j2])
                    if not is_conjugate(G, apply(mul(g1, g2)), mul(mg1, apply(g2))):
                        return {
                            "ok": False,
                            "witness": [g1.to_json(), g2.to_json()],
                            "radius": radius,
                            "pairs_checked": (c1 * width + j1) * size + c2 * width + j2 + 1,
                        }
                if not row:
                    break  # every part pair of f1 is uniform: the rest of the row holds
        if not any(live):
            break  # every part pair is uniform: no later row can fail
    return {"ok": True, "witness": None, "radius": radius, "pairs_checked": size ** 2}


def _meet(G: GroupTable, m: CosetwiseAffineMap, f1: str, row: list):
    """Yield the j2 of f1's part pairs that are not uniform, in G.F order,
    each appended to row when it is found."""
    for j2, f2 in enumerate(G.F):
        if not _pair_uniform(G, m, f1, f2):
            row.append(j2)
            yield j2


def _pair_uniform(G: GroupTable, m: CosetwiseAffineMap, f1: str, f2: str) -> bool:
    """Whether one conjugator serves every pair of the part pair (f1, f2).

    With the parts fixed, only the translation parts x1 and x2 vary, and
    G.pair_form gives both sides as affine functions of them:

      lhs = m(g1 g2) = a0 + A1 x1 + A2 x2          in part lf,
      rhs = m(g1) m(g2) = b0 + B1 x1 + B2 x2       in part rf.

    As in is_conjugate, the entries (f', N, s) of G.conjugators[lf, rf] are
    the candidates and G.slack_hnf[rf] gives the HNF rows (p, q), (0, r) of
    K; a candidate serves the pair when rhs - N lhs - s lies in K.  That
    residual is k + T x1 + V x2 with k = b0 - N a0 - s, T = B1 - N A1 and
    V = B2 - N A2, so the candidate serves every (x1, x2) when k and the
    four columns of T and V lie in K.  Each candidate is tested from
    locals and stops at its first vector outside K.  This is the criterion
    decide applies to a part pair ("uniform"), coded separately here, and
    the tests' _reference_ball_check stays its cell-by-cell oracle.
    """
    lf, (c0, c1), A, rf, (d0, d1), B = G.pair_form(m, f1, f2)
    (x00, x10), (x01, x11), (y00, y10), (y01, y11) = A  # A1, A2
    (u00, u10), (u01, u11), (w00, w10), (w01, w11) = B  # B1, B2
    p, q, r = G.slack_hnf[rf]
    for _, ((n00, n01), (n10, n11)), (s0, s1) in G.conjugators[lf, rf]:
        k0, k1 = d0 - n00 * c0 - n01 * c1 - s0, d1 - n10 * c0 - n11 * c1 - s1
        t00, t01 = u00 - n00 * x00 - n01 * x10, u01 - n00 * x01 - n01 * x11
        t10, t11 = u10 - n10 * x00 - n11 * x10, u11 - n10 * x01 - n11 * x11
        v00, v01 = w00 - n00 * y00 - n01 * y10, w01 - n00 * y01 - n01 * y11
        v10, v11 = w10 - n10 * y00 - n11 * y10, w11 - n10 * y01 - n11 * y11
        for x, y in ((k0, k1), (t00, t10), (t01, t11), (v00, v10), (v01, v11)):
            if p:
                if x % p:
                    break
                y -= x // p * q
            elif x:
                break
            if y % r if r else y:
                break
        else:
            return True  # this candidate serves every cell
    return False


def nontriviality_certificate(G, m, radius: int):
    """Witness pairs showing m is neither a homomorphism nor an antihomomorphism.

    Returns {"hom_witness": .., "antihom_witness": ..}, the first failure of
    each law as _law_failure reports it, or None when either law holds on
    all of G.  Both laws are decided exactly and every witness lies in
    ball(1); radius is validated and otherwise ignored, as verify_sd's is.
    """
    check_radius(radius)
    hom = _law_failure(G, m, anti=False)
    anti = None if hom is None else _law_failure(G, m, anti=True)
    if anti is None:
        return None
    return {"hom_witness": hom, "antihom_witness": anti}


def forced_consequences(G, m, radius: int = 2) -> dict:
    """Decide, over all of G, the consequences forced on every weak Cayley
    table bijection; radius is validated and otherwise ignored.

    Taking g2 = e, g1^-1 or g1 in the defining condition, m fixes e, respects
    inverses, sends involutions to involutions, preserves conjugacy both
    ways and maps A onto A, which for both map types means it keeps the
    identity's part.  On a part, m(g^-1) and m(g)^-1 are affine in g's
    translation part a, so they agree everywhere when they agree at the
    origin and the unit steps.  The involutions of part f are the coset
    c + S of conjugacy.involution_locus, and m(g)^2 is affine in a, so it is
    e on the coset when it is e at c and at c + each basis row of S.  Classes
    are _keeps_classes on m (well defined) and on m.invert() (injective).
    """
    _check_map(G, m)
    check_radius(radius)
    e = G.identity
    zero, one = e
    make, apply, mul, inv = type(e), m.apply, G.mul, G.inv
    steps = [make(a, f) for f in G.F for a in (zero,) + mat_identity(len(zero))]
    involutions = [make(vadd(c.offset, k), f)
                   for f, c in involution_loci(G).items() if c is not None
                   for k in (zero,) + c.lattice.rows]
    checks = {
        "fixes_identity": apply(e) == e,
        "respects_inverse": all(apply(inv(g)) == inv(apply(g)) for g in steps),
        "involutions_to_involutions": all(mul(mg := apply(g), mg) == e for g in involutions),
        "preserves_translations": apply(e)[1] == one,
        "preserves_classes": _keeps_classes(G, m) and _keeps_classes(G, m.invert()),
    }
    checks["ok"] = all(checks.values())
    return checks


wct_invariants = forced_consequences  # the name perfbench calls


def _keeps_classes(G, m) -> bool:
    """Whether m(g') ~ m(g) for every g' ~ g in G.

    The conjugates of a*f in part h are the (N a + s + k)*h for the entries
    (_, N, s) of G.conjugators[f, h] and k = u K_h's HNF rows.  With m's
    rules (lf, L, t) on h and (rf, M, b0) on f, and v = (a, u), the images
    are (L s + t + A v)*lf, A = [L N | L K_h rows], and (b0 + B v)*rf,
    B = [M | 0]: one pair for _cover, asked both ways round.
    """
    zero = G.identity[0]
    form = {f: affine_on_part(G, m.apply, f) for f in G.F}
    for f in G.F:
        rf, M, b0 = form[f]
        for h in G.F:
            lf, L, t = form[h]
            K = G.slack[h].rows
            for _, N, s in G.conjugators[f, h]:
                a0 = vadd(matvec(L, s), t)
                A = tuple(matvec(L, col) for col in (*zip(*N), *K))
                B = tuple(zip(*M)) + (zero,) * len(K)
                if not (isinstance(_cover(G, lf, a0, A, rf, b0, B), str)
                        and isinstance(_cover(G, rf, b0, B, lf, a0, A), str)):
                    return False
    return True


def decide(G, m) -> dict:
    """Decide m(g1 g2) ~ m(g1) m(g2) over all of G; serves SdGroup too.

    Per pair of source parts (f1, f2), in G.F order, G.pair_form gives both
    sides as (a0 + A v)*lf and (b0 + B v)*rf, v = (x1, x2), and _cover labels
    the pair "uniform" or "covered", or returns a v it misses: the witness,
    re-checked against conjugacy_class by an explicit raise that python -O
    keeps, where the scan stops ("witness").  Keys are "f1,f2".
    """
    _check_map(G, m)
    n, make = len(G.identity[0]), type(G.identity)
    methods = {}
    for f1 in G.F:
        for f2 in G.F:
            key = f"{f1},{f2}"
            v = _cover(G, *G.pair_form(m, f1, f2))
            if isinstance(v, str):
                methods[key] = v
                continue
            methods[key] = "witness"
            g1, g2 = make(v[:n], f1), make(v[n:], f2)
            lhs = m.apply(G.mul(g1, g2))
            rhs = G.mul(m.apply(g1), m.apply(g2))
            if conjugacy_class(G, lhs).contains(rhs):
                raise AssertionError(
                    f"decide in {getattr(G, 'gid', G)}: the cosets miss ({g1}, {g2}), "
                    f"but {lhs} and {rhs} are conjugate")
            witness = [g1.to_json(), g2.to_json()]
            return {"ok": False, "witness": witness, "methods": methods}
    return {"ok": True, "witness": None, "methods": methods}


def _cover(G, lf, a0, A, rf, b0, B):
    """Whether (b0 + B v)*rf is conjugate to (a0 + A v)*lf for all v in Z^d,
    d = len(A): "uniform", "covered", or a v for which it is not.

    A conjugator (label, N, s) of G.conjugators[lf, rf] serves v when r + R v
    lies in K = G.slack[rf], for r = b0 - N a0 - s and R = B - N A.  The
    answer is "uniform" when one serves every v: r and R's columns lie in K,
    tested on the ints G.slack_hnf[rf] for a wallpaper group (_uniform_2d).
    Else uncovered_point, given one term (r, R's columns, K) per conjugator,
    returns a v that none serves, or None, and then the answer is "covered".
    """
    flat, lat = isinstance(G, GroupTable), G.slack[rf]
    if flat and _uniform_2d(G, lf, a0, A, rf, b0, B):
        return "uniform"
    terms = [(vsub(vsub(b0, s), matvec(mat, a0)),
              [vsub(b, matvec(mat, a)) for a, b in zip(A, B)], lat)
             for _, mat, s in G.conjugators[lf, rf]]
    if not flat and any(lat.contains(r) and all(map(lat.contains, cols)) for r, cols, _ in terms):
        return "uniform"  # SdGroup: n-dimensional, with no slack_hnf
    v = uncovered_point(len(A), terms)
    return "covered" if v is None else v


def uncovered_point(d: int, terms):
    """A v in Z^d with r + R v in none of the lattices, or None when there is
    none; terms are (r, R's columns, lattice), all vectors of one Z^n.

    One solve_integer call on [R | -lattice rows] per term gives the v for
    which r + R v lies in the term's lattice as a coset c + S of Z^d, or
    none; _uncovered decides whether those cosets cover Z^d.  _cover asks it
    about conjugators, and acceptance criterion 4 about stated class cosets.
    """
    cosets = []
    for r, cols, lat in terms:
        cols = [*cols, *map(vneg, lat.rows)]
        sol = solve_integer(tuple(zip(*cols)), vneg(r))
        if sol is not None:
            c, kernel = sol
            cosets.append(Coset(c[:d], Sublattice(d, [k[:d] for k in kernel])))
    return _uncovered(d, cosets)


def _uniform_2d(G: GroupTable, lf: str, a0, A, rf: str, b0, B) -> bool:
    """decide's uniform test on a wallpaper group's pair_form, in flat ints.

    True when some (f', N, s) of G.conjugators[lf, rf] has b0 - N a0 - s and
    every column B_j - N A_j in K = G.slack[rf], tested as is_conjugate does
    on K's HNF rows (p, q) and (0, r) from G.slack_hnf[rf]; each candidate
    stops at its first vector outside K.
    """
    p, q, r = G.slack_hnf[rf]
    (b0x, b0y), cols = b0, tuple(zip(A, B))
    for _, ((n00, n01), (n10, n11)), (s0, s1) in G.conjugators[lf, rf]:
        for (ax, ay), (bx, by) in ((a0, (b0x - s0, b0y - s1)), *cols):
            x = bx - n00 * ax - n01 * ay
            y = by - n10 * ax - n11 * ay
            if p:
                if x % p:
                    break
                y -= x // p * q
            elif x:
                break
            if y % r if r else y:
                break
        else:
            return True
    return False


def _uncovered(d: int, cosets: list):
    """A point of Z^d in none of the cosets, or None when they cover Z^d.

    B. H. Neumann (1954): if finitely many cosets cover a group, the ones of
    finite index already do.  So Z^d is covered exactly when each residue
    modulo L, the intersection of the full-rank lattices, lies in a
    full-rank coset; the residues fill the box of L's HNF pivots.  By the
    same lemma the cosets miss a point of an uncovered residue r + L; the
    first by max-norm of its coordinates over L's rows is returned.
    """
    full = [c for c in cosets if c.lattice.rank == d]
    rows = reduce(Sublattice.intersect, [c.lattice for c in full], Sublattice.full(d)).rows
    r = next((r for r in product(*(range(row[i]) for i, row in enumerate(rows)))
              if not any(c.contains(r) for c in full)), None)
    if r is None:
        return None
    for radius in count():
        for x in product(range(-radius, radius + 1), repeat=d):
            if max(map(abs, x)) == radius:
                point = tuple(ri + sum(map(mul, x, col)) for ri, col in zip(r, zip(*rows)))
                if not any(c.contains(point) for c in cosets):
                    return point


def wct_certificate_symbolic(G, m) -> dict:
    """decide's verdict under the certificate's names, which perfbench calls."""
    res = decide(G, m)
    return {"proven": res["ok"], "pairs": res["methods"]}


def verify(G, m, radius: int | None = None) -> dict:
    """The verdict on m: decide's ok, witness and methods, exact over all of
    G, for either family; certificate, nontriviality_certificate's as JSON
    for every m, None exactly when m is a homomorphism or an
    antihomomorphism; and, given a radius, ball, is_wct_on_ball's report,
    whose refutation of a proof is a fault of the program, raised explicitly
    for python -O.  The ball check serves the wallpaper groups alone, so a
    radius with Z^n x C_p raises ValueError."""
    rep = decide(G, m)
    if radius is not None:
        rep["ball"] = is_wct_on_ball(G, m, radius)
        if rep["ok"] and not rep["ball"]["ok"]:
            raise AssertionError(
                f"decide proves the map, but the ball check refutes it: {rep['ball']}")
    cert = nontriviality_certificate(G, m, 1)  # exact; its witnesses lie in ball(1)
    rep["certificate"] = None if cert is None else {
        law: [g.to_json() for g in pair] for law, pair in cert.items()}
    return rep


# -- the named generator catalog -------------------------------------------------


def _aut(G: GroupTable, **imgs: str) -> CosetwiseAffineMap:
    """A catalog automorphism.  Its images are built-in data, so a rejection
    is a fault of the program: AssertionError, as decide raises, not ValueError."""
    try:
        return automorphism(G, {k: parse_element(G, v) for k, v in imgs.items()})
    except ValueError as exc:
        raise AssertionError(f"catalog automorphism of {G.gid}: {exc}") from exc


# The tau and mu patch families of p4 and p6: per group, rows (family, parts,
# ((suffix, u), ...)), and family_suffix conjugates the listed parts by the
# element u and fixes the rest.  In p6 the even-coset patch carries u in
# {x^2, y^2, rho^3} and the A rho^3 patch carries u in {xy, xy^-2, rho^2};
# swapping the sets gives maps that already fail the class condition at
# radius 2 (the K lattices K_{rho^3} = 2Z^2 and K_{rho^2} = <xy, xy^-2> sort
# the shifts out).
_PATCHES = {
    "p4": (("tau", ("rho2",), (("x", "x"), ("y", "y"), ("rho2", "rho2"))),
           ("mu", ("rho", "rho3"), (("x", "x"), ("y", "y"), ("rho", "rho")))),
    "p6": (("tau", ("1", "rho2", "rho4"), (("x2", "x^2"), ("y2", "y^2"), ("rho3", "rho3"))),
           ("mu", ("1", "rho3"), (("xy", "x y"), ("xyinv2", "x y^-2"), ("rho2", "rho2")))),
}

@lru_cache(maxsize=None)
def _catalog(gid: str) -> dict:
    G = load_group(gid)
    cat: dict[str, CosetwiseAffineMap] = {"id": identity_map(G), "iota": iota(G)}
    for key, g in G.generators.items():
        cat[f"I_{key}"] = inner_map(G, g)

    if gid in ("p3", "p4", "p6"):
        cat["psi_x"] = _aut(G, x="x", y="y", rho="x rho")
        cat["psi_y"] = _aut(G, x="x", y="y", rho="y rho")
    if gid == "p3":
        cat["tau"] = coset_conjugation(G, ("rho", "rho2"), G.element(0, 0, "rho"))
    elif gid == "p4":
        cat["psi_1"] = _aut(G, x="x", y="y^-1", rho="rho3")
    elif gid == "p6":
        cat["psi"] = _aut(G, x="y", y="x", rho="rho5")
    elif gid == "p2mm":
        cat["tau"] = coset_conjugation(G, ("rho", "sigma"), G.element(0, 0, "sigma"))
        cat["tau_rs"] = coset_conjugation(
            G, ("rho", "rhosigma"), G.element(0, 0, "rhosigma"))
        cat["psi"] = _aut(G, x="y", y="x", rho="rho", sigma="rhosigma")
        # the psi_uv family: rho |-> x^u y^v rho, sigma |-> y^v sigma.  An
        # x-power on the sigma image would break sigma^2 = e.
        cat["psi_10"] = _aut(G, x="x", y="y", rho="x rho", sigma="sigma")
        cat["psi_01"] = _aut(G, x="x", y="y", rho="y rho", sigma="y sigma")
    elif gid in ("cm", "pm"):
        cat["psi"] = _aut(G, x="x^-1", y="y^-1", sigma="sigma")
    elif gid == "pg":
        cat["psi_y"] = _aut(G, x="x", y="y", gamma="y gamma")
        cat["psi"] = _aut(G, x="x^-1", y="y^-1", gamma="x^-1 gamma")
    elif gid == "c2mm":
        cat["psi"] = _aut(G, x="x^-1", y="y^-1", rho="rho", sigma="sigma")
        # psi_uvij family instances; sigma^2 = e forces the sigma shift onto
        # the antidiagonal, and the braid constraint u + j = i + v does the rest
        cat["psi_1"] = _aut(G, x="x", y="y", rho="x y rho", sigma="sigma")
        cat["psi_2"] = _aut(G, x="x", y="y", rho="x^2 rho", sigma="x y^-1 sigma")
    elif gid == "p2mg":
        cat["psi_x"] = _aut(G, x="x", y="y", rho="x rho", sigma="sigma")
        cat["psi_y"] = _aut(G, x="x", y="y", rho="y rho", sigma="y sigma")
        cat["psi"] = _aut(G, x="x^-1", y="y^-1", rho="y^-1 rho", sigma="sigma")
    elif gid == "p2gg":
        cat["psi_x"] = _aut(G, x="x", y="y", rho="x rho", gamma="gamma")
        cat["psi_y"] = _aut(G, x="x", y="y", rho="y rho", gamma="y gamma")
        cat["psi"] = _aut(G, x="x^-1", y="y^-1", rho="rho", gamma="x^-1 y gamma")
    elif gid == "p3m1":
        cat["psi_1"] = _aut(G, x="x", y="y", rho="y^-1 rho", sigma="sigma")
    elif gid == "p4mg":
        cat["psi_1"] = _aut(G, x="x", y="y", rho="x rho", gamma="y^-1 gamma")
        cat["psi_2"] = _aut(G, x="x^-1", y="y^-1", rho="y^-1 rho", gamma="x^-1 gamma")
    elif gid == "p4mm":
        cat["psi_1"] = _aut(G, x="x", y="y", rho="y rho", sigma="y sigma")
    for family, parts, targets in _PATCHES.get(gid, ()):
        for suffix, text in targets:
            cat[f"{family}_{suffix}"] = coset_conjugation(G, parts, parse_element(G, text))
    if gid == "p4":
        # a tempting candidate that is not a WCT map: conjugate the
        # half-turn coset by a quarter turn (kept for negative tests)
        cat["conj_rho_on_rho2"] = coset_conjugation(G, ("rho2",), G.element(0, 0, "rho"))
    return cat


def catalog(G: GroupTable) -> dict:
    return dict(_catalog(G.gid))


def generator(G: GroupTable, name: str) -> CosetwiseAffineMap:
    cat = _catalog(G.gid)
    if name not in cat:
        raise ValueError(
            f"unknown map {name!r} for {G.gid}; have {', '.join(sorted(cat))}")
    return cat[name]


NONTRIVIAL_CATALOG = {
    "p2mm": ("tau",),
    "p3": ("tau",),
    **{gid: tuple(f"{family}_{suffix}" for family, _, targets in rows for suffix, _ in targets)
       for gid, rows in _PATCHES.items()},
}


# -- map expressions --------------------------------------------------------------

def parse_map_expr(G: GroupTable, text: str) -> CosetwiseAffineMap:
    """Evaluate an expression like "tau_rho2^psi_x inv(tau_x) * inner(x^-1 y rho)".

    The grammar is groups.evaluate_word's, the one G.word reads, over the
    maps of G: names come from the catalog, inner(element) is inner_map of
    parse_element's text, up to the first ')', and a product composes, the
    right factor applied first.  So m^k composes m k times (inv(m) -k times,
    id for k = 0), m^n for a catalog name n is inv(n)*m*n, as conjugate_by,
    and (m,n) is inv(m)*inv(n)*m*n.  Every malformed text, too deep a
    nesting included, raises ValueError.
    """
    def atom(tok: str) -> CosetwiseAffineMap:
        if tok.isidentifier():
            return generator(G, tok)
        return inner_map(G, parse_element(G, tok[tok.index("(") + 1:-1]))

    return evaluate_word(text, atom, CosetwiseAffineMap.compose, CosetwiseAffineMap.invert,
                         _catalog(G.gid)["id"])


# -- relation suites for the non-trivial W(G) -------------------------------------


def wgroup_relations(G: GroupTable) -> dict:
    """Verify the presentation relations of W(G) for p3, p4, p6, p2mm.

    Each relation is an exact map equality, stated once, as the text the
    record prints: its two sides, split at " = ", are parse_map_expr
    expressions in the paper's notation.  Only a right side that is not an
    expression is passed as a map: the transport rows build theirs with
    coset_conjugation, and one p2mm row carries a gloss.  Printed relations
    that fail get a "resolved" entry: the corrected right side that does
    hold, with a note; the suite passes when every relation holds as
    printed or has a holding resolution.  The p4 and p6 relations among the
    tau and mu families, and their transport by the W0 maps, read the
    families off _PATCHES.
    """
    if G.gid not in NONTRIVIAL_CATALOG:
        raise ValueError(f"no relation suite for {G.gid}")
    cat = _catalog(G.gid)
    records = []

    def check(relation: str, source: str = "printed", resolution=None, rhs=None):
        """The two sides of relation are equal; rhs, when given, is the map
        its right side names."""
        left, right = relation.split(" = ")
        lhs = parse_map_expr(G, left)
        if rhs is None:
            rhs = parse_map_expr(G, right)
        rec = {"relation": relation, "holds": lhs == rhs, "source": source}
        if not rec["holds"] and resolution is not None:
            res_expr, note = resolution
            rec["resolved"] = res_expr
            rec["resolved_holds"] = lhs == parse_map_expr(G, res_expr)
            rec["note"] = note
        records.append(rec)

    def patches_commute():
        """Each tau commutes with each mu."""
        (tau, _, taus), (mu, _, mus) = _PATCHES[G.gid]
        for t in (f"{tau}_{suffix}" for suffix, _ in taus):
            for s in (f"{mu}_{suffix}" for suffix, _ in mus):
                check(f"{t} {s} = {s} {t}", source="derived")

    def patches_transported(conjugators, off_a: bool, source: str):
        """(family_u)^n = family_{n^-1(u)}, the right side built from the
        definition, for each n of conjugators and each patch map whose u lies
        in A, or off it too when off_a is set."""
        patches = [(family, parts, suffix, parse_element(G, text))
                   for family, parts, targets in _PATCHES[G.gid] for suffix, text in targets]
        for n in conjugators:
            n_inv = cat[n].invert()
            for family, parts, suffix, u in patches:
                if off_a or u.f == "1":
                    check(f"({family}_{suffix})^{n} = {family}_{n}^-1({suffix})", source=source,
                          rhs=coset_conjugation(G, parts, n_inv.apply(u)))

    iota_central_against: tuple[str, ...]

    if G.gid == "p3":
        check("tau^3 = id")
        check("psi_x psi_y = psi_y psi_x")
        check("I_x = psi_x^-1 psi_y^-1")
        check("I_y = psi_x psi_y^-2")
        check("psi_y^I_rho = psi_x psi_y^-1")
        check("psi_x^I_rho = I_y^-1",
              resolution=("inv(psi_y)",
                          "printed right side is inconsistent: together with "
                          "psi_y^I_rho it would give the conjugation action "
                          "infinite order, yet I_rho^3 = id; psi_y^-1 is the "
                          "value the maps actually satisfy"))
        check("tau^psi_x = tau psi_x psi_y")
        check("tau^psi_y = tau psi_x^-1 psi_y^2")
        check("I_rho^3 = id")
        iota_central_against = ("tau", "psi_x", "psi_y", "I_rho")

    elif G.gid == "p4":
        check("tau_x tau_y = tau_y tau_x")
        check("tau_rho2^2 = id")
        check("tau_x^tau_rho2 = tau_x^-1", source="derived")
        check("tau_y^tau_rho2 = tau_y^-1", source="derived")
        check("tau_rho2^psi_x = tau_rho2 tau_x^-1 tau_y")
        check("tau_rho2^psi_y = tau_rho2 tau_x tau_y^-1",
              resolution=("tau_rho2*inv(tau_x)*inv(tau_y)",
                          "the stated transport rule (tau_u)^mu = "
                          "tau_{mu^-1(u)} gives tau at psi_y^-1(rho^2) = "
                          "(y^-1 rho)^2 = x^-1 y^-1 rho^2, so the tau_x "
                          "factor needs the inverse; no orientation choice "
                          "makes the printed word consistent with the "
                          "companion psi_x relation"))
        check("mu_x mu_y = mu_y mu_x")
        check("mu_rho^4 = id")
        check("mu_x^mu_rho = mu_y^-1")
        check("mu_y^mu_rho = mu_x")
        patches_commute()
        check("psi_1^2 = id")
        check("I_rho^4 = id")
        patches_transported(("I_rho", "psi_1", "psi_x", "psi_y", "I_x", "I_y"),
                            off_a=True, source="printed")
        iota_central_against = ("tau_x", "tau_rho2", "mu_rho", "psi_x", "psi_1", "I_rho")

    elif G.gid == "p6":
        for relation in ("tau_x2 tau_y2 = tau_y2 tau_x2", "tau_rho3^2 = id",
                         "tau_x2^tau_rho3 = tau_x2^-1", "tau_y2^tau_rho3 = tau_y2^-1",
                         "mu_xy mu_xyinv2 = mu_xyinv2 mu_xy", "mu_rho2^3 = id",
                         "mu_xy^mu_rho2 = mu_xyinv2",
                         "mu_xyinv2^mu_rho2 = mu_xy^-1 mu_xyinv2^-1"):
            check(relation, source="derived")
        patches_commute()
        for relation in ("psi^2 = id", "I_rho^6 = id", "tau_rho3^I_rho = tau_rho3",
                         "mu_rho2^I_rho = mu_rho2", "tau_rho3^psi = tau_rho3",
                         "mu_rho2^psi = mu_rho2^2"):
            check(relation, source="derived")
        patches_transported(("I_rho", "psi", "I_x", "I_y"), off_a=False, source="derived")
        iota_central_against = ("tau_x2", "tau_rho3", "mu_xy", "mu_rho2", "psi", "I_rho")

    else:  # p2mm
        check("tau^2 = id")
        check("tau_rs^2 = id", source="derived")
        check("tau tau_rs = tau_rs tau", source="derived")
        check("tau^psi = tau_rs (conj by rho sigma on the rho cosets)", rhs=cat["tau_rs"])
        for relation in ("tau^psi_10 = tau", "tau^psi_01 = I_y tau", "psi^2 = id",
                         "psi_10 psi_01 = psi_01 psi_10", "psi_10^2 = I_x^-1",
                         "psi_01^2 = I_y^-1", "I_rho^2 = id", "I_sigma^2 = id"):
            check(relation, source="derived")
        iota_central_against = ("tau", "tau_rs", "psi", "psi_10", "I_rho", "I_sigma")

    check("iota^2 = id")
    for name in iota_central_against:
        check(f"iota {name} = {name} iota")

    order_names = {
        "p3": ("tau", "psi_x", "psi_y", "I_rho", "iota"),
        "p4": ("tau_x", "tau_rho2", "mu_x", "mu_rho", "psi_x", "psi_1", "I_rho", "iota"),
        "p6": ("tau_x2", "tau_rho3", "mu_xy", "mu_rho2", "psi_x", "psi", "I_rho", "iota"),
        "p2mm": ("tau", "tau_rs", "psi", "psi_10", "I_rho", "I_sigma", "iota"),
    }[G.gid]
    orders = {name: map_order(cat[name]) for name in order_names}

    ok = all(r["holds"] or r.get("resolved_holds", False) for r in records)
    notes = []
    if G.gid == "p2mm":
        notes.append(
            "the stated presentation references a sigma_rs generator that is "
            "never defined for this group; the suite checks the relations "
            "expressible with tau, tau_rs, psi, psi_uv, inner maps and iota")
        notes.append(
            "psi_uv is implemented as rho |-> x^u y^v rho, sigma |-> y^v "
            "sigma: an x-power on the sigma image would violate sigma^2 = e, "
            "so the family as stated is only a homomorphism for u = 0")
    return {"group": G.gid, "relations": records, "orders": orders,
            "ok": ok, "notes": notes}


W0_GENERATORS = {
    "p4": ("iota", "psi_x", "psi_y", "psi_1", "I_rho", "I_x", "I_y"),
    "p6": ("iota", "psi_x", "psi_y", "psi", "I_rho", "I_x", "I_y"),
}


_WORD_LENGTH = 4  # the longest word normality_check searches


def normality_check(G: GroupTable) -> dict:
    """Conjugate each non-trivial generator by each W0 generator and find the
    result among short words in the non-trivial generators.

    The words are searched breadth first, up to _WORD_LENGTH symbols, and
    the search stops once every conjugate has a word.  A word keeps the
    first name recorded for it, so the names are those of the full search;
    a conjugate that is never found leaves the search to run in full."""
    if G.gid not in W0_GENERATORS:
        raise ValueError(f"no normality data for {G.gid}")
    cat = _catalog(G.gid)
    ngens = {name: cat[name] for name in NONTRIVIAL_CATALOG[G.gid]}
    symbols = list(ngens.items()) + [
        (f"inv({name})", m.invert()) for name, m in ngens.items()]
    conjugates = {(n_name, w_name): n.conjugate_by(cat[w_name])
                  for n_name, n in ngens.items() for w_name in W0_GENERATORS[G.gid]}

    # breadth first: the queue holds the words in the order they were named
    words = {identity_map(G): ("id", 0)}
    queue = deque(words)
    missing = set(conjugates.values()) - set(words)
    while missing and queue:
        base = queue.popleft()
        base_name, length = words[base]
        if length == _WORD_LENGTH:
            break
        for sym_name, sym in symbols:
            w = base.compose(sym)
            if w not in words:
                name = sym_name if base_name == "id" else f"{base_name}*{sym_name}"
                words[w] = (name, length + 1)
                queue.append(w)
                missing.discard(w)

    pairs = []
    for (n_name, w_name), conj in conjugates.items():
        hit = words.get(conj)
        pairs.append({
            "generator": n_name,
            "by": w_name,
            "found": hit is not None,
            "word": hit[0] if hit else None,
        })
    return {
        "group": G.gid,
        "word_length": _WORD_LENGTH,
        "pairs": pairs,
        "ok": all(p["found"] for p in pairs),
    }


# -- randomized candidates for the triviality evidence ------------------------------


# random_map's shift coordinates, in [-2, 2] like its matrix entries; a choice
# draws one _randbelow(5), as randint(-2, 2) does, so the stream is the same
_SHIFTS = (-2, -1, 0, 1, 2)


@lru_cache(maxsize=1)
def _unimodular_pool() -> tuple:
    pool = []
    for a, b, c, d in product(range(-2, 3), repeat=4):
        if a * d - b * c in (1, -1):
            pool.append(((a, b), (c, d)))
    return tuple(pool)


def random_map(G: GroupTable, rnd: random.Random) -> CosetwiseAffineMap:
    """A random coset permutation with random small affine rules per coset.

    The rule is built in G.F order from tuples: a shuffle of G.F for the
    targets and a draw from the unimodular pool for each matrix, so it is
    trusted without the checks of __init__.  The draws, and so the map of a
    given seed, are those of the validated construction."""
    targets = list(G.F)
    rnd.shuffle(targets)
    pool = _unimodular_pool()
    rule = {}
    for f, f2 in zip(G.F, targets):
        m = rnd.choice(pool)
        t = (rnd.choice(_SHIFTS), rnd.choice(_SHIFTS))
        rule[f] = (f2, m, t)
    return CosetwiseAffineMap._trusted(G.gid, rule)
