"""Coset-wise affine bijections of a wallpaper group.

A map here sends each translation coset A*f onto some coset A*f' by an
integer-affine rule a |-> M a + t.  Automorphisms of the catalog, inversion,
inner maps and the tau/mu conjugation patches all have this shape, and the
shape is closed under composition and inverse, so weak Cayley table identities
become decidable equalities of finitely much integer data: no ball arguments
are needed to compare two maps.

Conventions, fixed once: composition m1 * m2 applies m2 first, and m ** n
(spelled conjugate_by) is inv(n) * m * n.  Product words from the relation
tables are read the same way, rightmost factor first.

homomorphism_failure, antihomomorphism_failure, nontriviality_certificate,
forced_consequences and decide serve wct.semidirect too: they use only
G.mul, G.inv, G.identity, G.ball, G.probes, m.apply, m.acts_on, the two
conjugation hooks G.conjugators and G.slack, which hold each family's
closed form of conjugacy, and G.pair_form, which reads both sides of the
WCT condition on one pair of parts off the tables and the map's rule as
affine functions of the two translation parts.  decide, the exact verdict
over the whole group for both families, and the ball check's _Block read
that form, so the product rule of each family is derived in one place.
wct_invariants and semidirect.sd_invariants are bindings of
forced_consequences.  Every verdict first asks m.acts_on(G) and raises
ValueError for a map of another group, which would otherwise be judged
through the part labels the two groups share.

compose and invert build their results without re-validation (see
CosetwiseAffineMap._trusted); CosetwiseAffineMap(G, rule) keeps every
check for rules built by callers.

is_wct_on_ball decides ball(radius) x ball(radius) one pair of source parts
at a time.  There only the translation parts x1, x2 vary, and the residual
of each conjugator candidate of is_conjugate's plan splits as
P(x1) + Q(x2), so each distinct tuple of residues modulo K is decided once
instead of each element pair (see _Block).  Its verdict, witness and
pairs_checked are those of a pair-by-pair sweep, and a pass is still
evidence from a finite ball, not a proof; it is decide's oracle and shares
only pair_form and the hooks with it.
"""

from __future__ import annotations

import random
import re
from functools import lru_cache, reduce
from itertools import count, product
from operator import eq, mul

from .conjugacy import _plan, conjugacy_class, is_conjugate
from .groups import Element, GroupTable, cells, check_radius, load_group, parse_element
from .lattice import Coset, Sublattice, Vec, mat_identity, matvec, solve_integer

_I2 = mat_identity(2)
_Z2: Vec = (0, 0)


class CosetwiseAffineMap:
    """rule[f] = (f2, M, t): a*f |-> (M a + t)*f2, with f2 a part of G, M a
    2x2 int matrix of determinant +-1 and t an int pair; the targets f2
    permute the parts.  Entries are stored as tuples."""

    __slots__ = ("gid", "rule", "_key")

    def __init__(self, G: GroupTable, rule: dict):
        parts = G.F
        if set(rule) != set(parts):
            raise ValueError(f"rule must cover exactly the parts of {G.gid}")
        checked = {}
        for f in parts:
            f2, m, t = rule[f]
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
        self._key = (G.gid, tuple((f,) + checked[f] for f in parts))

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
        are unimodular coset permutations again.  ==, hash, repr and
        to_json then see the map a validated construction would give."""
        out = object.__new__(cls)
        out.gid = gid
        out.rule = rule
        out._key = (gid, tuple((f,) + entry for f, entry in rule.items()))
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
        return isinstance(other, CosetwiseAffineMap) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

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
    rule = {}
    for f in G.F:
        finv, c = G.point_inv[f]
        m = tuple(tuple(-x for x in row) for row in G.act[f])
        rule[f] = (finv, m, matvec(m, c))
    return CosetwiseAffineMap(G, rule)


def map_from_function(G: GroupTable, fn) -> CosetwiseAffineMap:
    """Fit the affine rule of fn per coset, then verify on extra probes."""
    rule = {}
    for f in G.F:
        base = fn(Element(_Z2, f))
        img1 = fn(Element((1, 0), f))
        img2 = fn(Element((0, 1), f))
        if img1.f != base.f or img2.f != base.f:
            raise ValueError(f"function is not coset-wise on {f!r}")
        m = (
            (img1.a[0] - base.a[0], img2.a[0] - base.a[0]),
            (img1.a[1] - base.a[1], img2.a[1] - base.a[1]),
        )
        rule[f] = (base.f, m, base.a)
    out = CosetwiseAffineMap(G, rule)
    for f in G.F:
        for probe in ((2, 3), (-1, 4)):
            g = Element(probe, f)
            if out.apply(g) != fn(g):
                raise ValueError(f"function is not affine on coset {f!r}")
    return out


def inner_map(G: GroupTable, g: Element) -> CosetwiseAffineMap:
    """h |-> h^g = g^-1 h g."""
    G.check_element(g)
    return map_from_function(G, lambda h: G.conj(h, g))


def coset_conjugation(G: GroupTable, parts, u: Element) -> CosetwiseAffineMap:
    """Conjugate the listed cosets by u, fix everything else pointwise.

    This is the shape of all the non-trivial tau/mu generators; whether a
    given (parts, u) choice actually lands in W(G) is is_wct_on_ball's job.
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

    images maps "x", "y" (and "r", "s"/"g" when present) to Elements; x and y
    must land in A, so a single matrix serves every coset.
    """
    for key in G.generators:
        if key not in images:
            raise ValueError(f"missing image for generator {key!r}")
    vx, vy = images["x"], images["y"]
    if vx.f != "1" or vy.f != "1":
        raise ValueError("x and y must map into the translation subgroup")
    m = ((vx.a[0], vy.a[0]), (vx.a[1], vy.a[1]))
    refl = G.refl
    rule = {}
    for f in G.F:
        k, e = G._part_of[f]
        img = G.identity
        if k:
            img = G.power(images["r"], k)
        if e:
            img = G.mul(img, images["s" if refl == "sigma" else "g"])
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


def _probe_failure(G, m, anti: bool, radius: int = 1):
    """First probe pair with m(g1 g2) != m(g1) m(g2), or != m(g2) m(g1) when
    anti is set; None when every probe holds.

    For each pair of parts (cosets A*f, or k-slices of Z^n x C_p) both sides
    are affine in the translation parts of g1 and g2 together, so the probes
    (o, o), (e_i, o) and (o, e_j) from G.probes() decide the law on the whole
    pair.  They lie in ball(1); radius 0 keeps only the origin pairs, which
    are all of ball(0) x ball(0).
    """
    _check_map(G, m)
    for pairs in _probe_pairs(G, radius):
        for g1, g2 in pairs:
            m1, m2 = m.apply(g1), m.apply(g2)
            if m.apply(G.mul(g1, g2)) != (G.mul(m2, m1) if anti else G.mul(m1, m2)):
                return g1, g2
    return None


def _probe_pairs(G, radius: int = 1):
    """Per pair of parts, in G.F order: the probe pairs (o, o), (e_i, o) and
    (o, e_j) from G.probes(); only (o, o) at radius 0."""
    probes = G.probes()
    for o1, *steps1 in probes:
        for o2, *steps2 in probes:
            pairs = [(o1, o2)]
            if radius:
                pairs += [(g1, o2) for g1 in steps1] + [(o1, g2) for g2 in steps2]
            yield pairs


def homomorphism_failure(G, m):
    """First pair with m(g1 g2) != m(g1) m(g2), or None; a complete check."""
    return _probe_failure(G, m, anti=False)


def antihomomorphism_failure(G, m):
    """First pair with m(g1 g2) != m(g2) m(g1), or None; a complete check."""
    return _probe_failure(G, m, anti=True)


def map_order(m: CosetwiseAffineMap, bound: int = 12):
    acc = m
    for k in range(1, bound + 1):
        if acc.is_identity():
            return k
        acc = acc.compose(m)
    return None


# -- weak Cayley table verification ---------------------------------------------


def is_wct_on_ball(G: GroupTable, m: CosetwiseAffineMap, radius: int) -> dict:
    """Check m(g1 g2) ~ m(g1) m(g2) for all pairs from ball(radius).

    Sound for violations (the witness re-checks); passing is evidence, not
    proof, since the ball is finite.  pairs_checked counts the pairs the
    verdict covers: all of ball x ball on a pass, up to and including the
    witness otherwise, in ball order.

    The pairs are decided per part pair, not per element pair: with the
    parts of g1 = x1*f1 and g2 = x2*f2 fixed, the residual is_conjugate
    tests splits as P(x1) + Q(x2), and a pair holds exactly when Q(x2) and
    -P(x1) agree modulo K for some candidate (see _Block).  Row g1 of
    ball x ball crosses one block per part f2; its first failing pair is the
    minimum over those blocks, and the scan stops at the first row that has
    one.  That pair is re-derived through G.mul and m.apply and re-checked
    with is_conjugate, by an explicit raise that python -O keeps, before it
    is reported.
    """
    _check_map(G, m)
    xs = cells(radius)
    parts = G.F
    width = len(parts)
    size = len(xs) * width
    blocks = [[None] * width for _ in parts]
    for c1, (x1, y1) in enumerate(xs):
        for j1, f1 in enumerate(parts):
            row = blocks[j1]
            best = size
            for j2, f2 in enumerate(parts):
                block = row[j2]
                if block is None:
                    block = row[j2] = _Block(G, m, f1, f2, xs)
                c2 = block.first_failure(x1, y1)
                if c2 is not None:
                    best = min(best, c2 * width + j2)
                    if c2 == 0:
                        break
            if best < size:
                g1 = Element((x1, y1), f1)
                g2 = Element(xs[best // width], parts[best % width])
                lhs = m.apply(G.mul(g1, g2))
                rhs = G.mul(m.apply(g1), m.apply(g2))
                if is_conjugate(G, lhs, rhs):
                    raise AssertionError(
                        f"ball check in {G.gid}: residues reject ({g1}, {g2}), "
                        f"but {lhs} and {rhs} are conjugate")
                return {
                    "ok": False,
                    "witness": [g1.to_json(), g2.to_json()],
                    "radius": radius,
                    "pairs_checked": (c1 * width + j1) * size + best + 1,
                }
    return {"ok": True, "witness": None, "radius": radius, "pairs_checked": size ** 2}


class _Block:
    """The pairs (x1*f1, x2*f2) of ball x ball for one part pair (f1, f2).

    With the parts fixed, only the translation parts x1 and x2 vary, and
    G.pair_form gives both sides as affine functions of them:

      lhs = m(g1 g2) = a0 + A1 x1 + A2 x2          in part lf,
      rhs = m(g1) m(g2) = b0 + B1 x1 + B2 x2       in part rf,

    with A = [A1 | A2] and B = [B1 | B2].  is_conjugate's plan entry for
    (lf, rf) gives the candidates (N, s) and the HNF rows (p, q), (0, r) of
    K.  The pair holds exactly when rhs - N lhs - s lies in K for some
    candidate, and that residual splits as P(x1) + Q(x2) with

      P = (B1 - N A1) x1 + b0 - N a0 - s,
      Q = (B2 - N A2) x2.

    So it holds exactly when, for some candidate, Q(x2) and -P(x1) have the
    same canonical representative modulo K.  A cell's signature is the tuple
    of its Q representatives, one per candidate, and a row's key the tuple
    of its -P representatives; the pair fails when they agree in no
    position.  Signatures are computed lazily in cell order, each distinct
    one kept with its first cell, so the first failing cell for a key is the
    first cell of the first distinct signature that fails it.  That answer
    is memoized per key.  Blocks live for one ball check only.
    """

    __slots__ = ("row_terms", "cell_terms", "lattice", "xs", "done", "signatures", "memo")

    def __init__(self, G: GroupTable, m: CosetwiseAffineMap, f1: str, f2: str, xs: tuple):
        lf, (c0, c1), A, rf, (d0, d1), B = G.pair_form(m, f1, f2)
        (x00, x10), (x01, x11), (y00, y10), (y01, y11) = A  # A1, A2
        (u00, u10), (u01, u11), (w00, w10), (w01, w11) = B  # B1, B2
        cands, p, q, r = _plan(G.gid)[lf, rf]
        # -P and Q per candidate N = ((n00, n01), (n10, n11)).  The
        # candidates' N are distinct and A1 is invertible, so no two row
        # terms coincide.
        row_terms, cell_terms = [], []
        for n00, n01, n10, n11, s0, s1 in cands:
            row_terms.append((n00 * x00 + n01 * x10 - u00, n00 * x01 + n01 * x11 - u01,
                              n10 * x00 + n11 * x10 - u10, n10 * x01 + n11 * x11 - u11,
                              n00 * c0 + n01 * c1 + s0 - d0, n10 * c0 + n11 * c1 + s1 - d1))
            cell_terms.append((w00 - n00 * y00 - n01 * y10, w01 - n00 * y01 - n01 * y11,
                               w10 - n10 * y00 - n11 * y10, w11 - n10 * y01 - n11 * y11, 0, 0))
        self.row_terms = row_terms
        self.cell_terms = cell_terms
        self.lattice = (p, q, r)
        self.xs = xs
        self.done = 0          # cells whose signature has been computed
        self.signatures = {}   # distinct signature -> its first cell
        self.memo = {}         # key -> first failing cell, or None

    def _reps(self, terms: tuple, x: int, y: int) -> tuple:
        """The representatives modulo K of the affine terms at (x, y).

        Each is one int when K has a pivot: the reduced coordinate lies in
        [0, pivot) and folds into the other one.  For K = 0 it is the
        vector itself.
        """
        p, q, r = self.lattice
        out = []
        for t00, t01, t10, t11, k0, k1 in terms:
            u = t00 * x + t01 * y + k0
            v = t10 * x + t11 * y + k1
            if p:
                k = u // p
                u -= k * p
                v -= k * q
                out.append((v % r if r else v) * p + u)
            elif r:
                out.append(u * r + v % r)
            else:
                out.append((u, v))
        return tuple(out)

    def _distinct(self):
        """The distinct signatures with their first cells, in cell order,
        computed only as far as the caller reads."""
        yield from self.signatures.items()
        xs = self.xs
        while self.done < len(xs):
            cell = self.done
            self.done += 1
            sig = self._reps(self.cell_terms, *xs[cell])
            if sig not in self.signatures:
                self.signatures[sig] = cell
                yield sig, cell

    def first_failure(self, x: int, y: int):
        """The first cell x2 at which (x*f1, x2*f2) fails, or None."""
        key = self._reps(self.row_terms, x, y)
        memo = self.memo
        if key not in memo:
            memo[key] = next((cell for sig, cell in self._distinct()
                              if not any(map(eq, sig, key))), None)
        return memo[key]


def nontriviality_certificate(G, m, radius: int):
    """Witness pairs showing m is neither a homomorphism nor an antihomomorphism.

    Returns {"hom_witness": .., "antihom_witness": ..}, the first probe
    failure of each law inside ball(radius), or None when either law holds
    on all of those probes.  The probes are complete and lie in ball(1), so
    for radius >= 1 None proves that m is a homomorphism or an
    antihomomorphism of all of G.
    """
    check_radius(radius)
    hom = _probe_failure(G, m, anti=False, radius=radius)
    anti = None if hom is None else _probe_failure(G, m, anti=True, radius=radius)
    if anti is None:
        return None
    return {"hom_witness": hom, "antihom_witness": anti}


def forced_consequences(G, m, radius: int = 2) -> dict:
    """Check the consequences forced on every weak Cayley table bijection.

    Taking g2 = e, g2 = g1^-1 or g2 = g1 in the defining condition pins down:
    the identity is fixed, inverses are respected, involutions go to
    involutions, conjugacy is preserved in both directions, and the
    translation subgroup maps onto itself.  Class preservation is checked by
    requiring the induced map on the exact class descriptors
    conjugacy_class(G, g) over ball(radius) to be well defined and
    injective; the rest is element-wise over the ball.  Both map types send
    each part onto one part by a unimodular rule, so m carries A onto A
    exactly when it keeps the identity's part.
    """
    _check_map(G, m)
    ball = G.ball(radius)
    e = G.identity
    checks = {
        "fixes_identity": m.apply(e) == e,
        "respects_inverse": all(
            m.apply(G.inv(g)) == G.inv(m.apply(g)) for g in ball),
        "involutions_to_involutions": all(
            G.mul(m.apply(g), m.apply(g)) == e
            for g in ball if G.mul(g, g) == e),
        "preserves_translations": m.apply(e)[1] == e[1],
    }
    forward: dict = {}
    backward: dict = {}
    preserved = True
    for g in ball:
        s = conjugacy_class(G, g)
        si = conjugacy_class(G, m.apply(g))
        if forward.setdefault(s, si) != si or backward.setdefault(si, s) != s:
            preserved = False
            break
    checks["preserves_classes"] = preserved
    checks["ok"] = all(checks.values())
    return checks


wct_invariants = forced_consequences  # the name acceptance and perfbench call


def decide(G, m) -> dict:
    """Decide m(g1 g2) ~ m(g1) m(g2) over all of G; serves SdGroup too.

    Per pair of source parts (f1, f2), in G.F order, G.pair_form gives both
    sides as (a0 + A v)*lf and (b0 + B v)*rf, for v = (x1, x2) in Z^d.  A
    conjugator (label, N, s) of G.conjugators(lf, rf) serves v when r + R v
    lies in K = G.slack(rf), for r = b0 - N a0 - s and R = B - N A.  The
    pair is "uniform" when one serves every v: r and R's columns lie in K.
    Else one solve_integer call on [R | -K rows] per conjugator gives the v
    it serves as a coset c + S of Z^d, or none; the pair is "covered" when
    they cover Z^d (see _uncovered), and else a point they miss is the
    witness, re-checked against conjugacy_class by an explicit raise that
    python -O keeps, and the scan stops ("witness").  Keys are "f1,f2".
    """
    _check_map(G, m)
    methods = {}
    for f1 in G.F:
        for f2 in G.F:
            lf, a0, A, rf, b0, B = G.pair_form(m, f1, f2)
            lat, conjugators = G.slack(rf), G.conjugators(lf, rf)
            key = f"{f1},{f2}"
            for _, mat, s in conjugators:
                if lat.contains(_residual(mat, a0, [y - t for y, t in zip(b0, s)])) and all(
                        lat.contains(_residual(mat, a, b)) for a, b in zip(A, B)):
                    methods[key] = "uniform"
                    break
            else:
                d = len(A)
                cosets = []
                for _, mat, s in conjugators:
                    r = _residual(mat, a0, [y - t for y, t in zip(b0, s)])
                    cols = [_residual(mat, a, b) for a, b in zip(A, B)]
                    cols += [[-x for x in row] for row in lat.rows]
                    sol = solve_integer(tuple(zip(*cols)), [-x for x in r])
                    if sol is not None:
                        c, kernel = sol
                        cosets.append(Coset(c[:d], Sublattice(d, [k[:d] for k in kernel])))
                v = _uncovered(d, cosets)
                if v is None:
                    methods[key] = "covered"
                    continue
                methods[key] = "witness"
                n, make = len(a0), type(G.identity)
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


def _residual(mat, a, b) -> list:
    """b - mat a."""
    return [y - sum(map(mul, row, a)) for row, y in zip(mat, b)]


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


# -- the named generator catalog -------------------------------------------------


def _aut(G: GroupTable, **imgs: str) -> CosetwiseAffineMap:
    return automorphism(G, {k: parse_element(G, v) for k, v in imgs.items()})


@lru_cache(maxsize=None)
def _catalog(gid: str) -> dict:
    G = load_group(gid)
    cat: dict[str, CosetwiseAffineMap] = {"id": identity_map(G), "iota": iota(G)}
    cat["I_x"] = inner_map(G, G.element(1, 0))
    cat["I_y"] = inner_map(G, G.element(0, 1))
    if "r" in G.generators:
        cat["I_rho"] = inner_map(G, G.generators["r"])
    if "s" in G.generators:
        cat["I_sigma"] = inner_map(G, G.generators["s"])
    if "g" in G.generators:
        cat["I_gamma"] = inner_map(G, G.generators["g"])

    if gid in ("p3", "p4", "p6"):
        cat["psi_x"] = _aut(G, x="x", y="y", r="x rho")
        cat["psi_y"] = _aut(G, x="x", y="y", r="y rho")
    if gid == "p3":
        cat["tau"] = coset_conjugation(G, ("rho", "rho2"), G.element(0, 0, "rho"))
    elif gid == "p4":
        cat["psi_1"] = _aut(G, x="x", y="y^-1", r="rho3")
        for name, u in (("x", G.element(1, 0)), ("y", G.element(0, 1)),
                        ("rho2", G.element(0, 0, "rho2"))):
            cat[f"tau_{name}"] = coset_conjugation(G, ("rho2",), u)
        for name, u in (("x", G.element(1, 0)), ("y", G.element(0, 1)),
                        ("rho", G.element(0, 0, "rho"))):
            cat[f"mu_{name}"] = coset_conjugation(G, ("rho", "rho3"), u)
        # a tempting candidate that is not a WCT map: conjugate the
        # half-turn coset by a quarter turn (kept for negative tests)
        cat["conj_rho_on_rho2"] = coset_conjugation(G, ("rho2",), G.element(0, 0, "rho"))
    elif gid == "p6":
        cat["psi"] = _aut(G, x="y", y="x", r="rho5")
        # the even-coset patch carries h in {x^2, y^2, rho^3} and the A rho^3
        # patch carries h in {xy, xy^-2, rho^2}; swapping the sets gives maps
        # that already fail the class condition at radius 2 (the K lattices
        # K_{rho^3} = 2Z^2 and K_{rho^2} = <xy, xy^-2> sort the shifts out)
        even = ("1", "rho2", "rho4")
        for name, u in (("x2", G.element(2, 0)), ("y2", G.element(0, 2)),
                        ("rho3", G.element(0, 0, "rho3"))):
            cat[f"tau_{name}"] = coset_conjugation(G, even, u)
        for name, u in (("xy", G.element(1, 1)), ("xyinv2", G.element(1, -2)),
                        ("rho2", G.element(0, 0, "rho2"))):
            cat[f"mu_{name}"] = coset_conjugation(G, ("1", "rho3"), u)
    elif gid == "p2mm":
        cat["tau"] = coset_conjugation(G, ("rho", "sigma"), G.element(0, 0, "sigma"))
        cat["tau_rs"] = coset_conjugation(
            G, ("rho", "rhosigma"), G.element(0, 0, "rhosigma"))
        cat["psi"] = _aut(G, x="y", y="x", r="rho", s="rhosigma")
        # the psi_uv family: rho |-> x^u y^v rho, sigma |-> y^v sigma.  An
        # x-power on the sigma image would break sigma^2 = e.
        cat["psi_10"] = _aut(G, x="x", y="y", r="x rho", s="sigma")
        cat["psi_01"] = _aut(G, x="x", y="y", r="y rho", s="y sigma")
    elif gid == "cm":
        cat["psi"] = _aut(G, x="x^-1", y="y^-1", s="sigma")
    elif gid == "pm":
        cat["psi"] = _aut(G, x="x^-1", y="y^-1", s="sigma")
    elif gid == "pg":
        cat["psi_y"] = _aut(G, x="x", y="y", g="y gamma")
        cat["psi"] = _aut(G, x="x^-1", y="y^-1", g="x^-1 gamma")
    elif gid == "c2mm":
        cat["psi"] = _aut(G, x="x^-1", y="y^-1", r="rho", s="sigma")
        # psi_uvij family instances; sigma^2 = e forces the sigma shift onto
        # the antidiagonal, and the braid constraint u + j = i + v does the rest
        cat["psi_1"] = _aut(G, x="x", y="y", r="x y rho", s="sigma")
        cat["psi_2"] = _aut(G, x="x", y="y", r="x^2 rho", s="x y^-1 sigma")
    elif gid == "p2mg":
        cat["psi_x"] = _aut(G, x="x", y="y", r="x rho", s="sigma")
        cat["psi_y"] = _aut(G, x="x", y="y", r="y rho", s="y sigma")
        cat["psi"] = _aut(G, x="x^-1", y="y^-1", r="y^-1 rho", s="sigma")
    elif gid == "p2gg":
        cat["psi_x"] = _aut(G, x="x", y="y", r="x rho", g="gamma")
        cat["psi_y"] = _aut(G, x="x", y="y", r="y rho", g="y gamma")
        cat["psi"] = _aut(G, x="x^-1", y="y^-1", r="rho", g="x^-1 y gamma")
    elif gid == "p3m1":
        cat["psi_1"] = _aut(G, x="x", y="y", r="y^-1 rho", s="sigma")
    elif gid == "p4mg":
        cat["psi_1"] = _aut(G, x="x", y="y", r="x rho", g="y^-1 gamma")
        cat["psi_2"] = _aut(G, x="x^-1", y="y^-1", r="y^-1 rho", g="x^-1 gamma")
    elif gid == "p4mm":
        cat["psi_1"] = _aut(G, x="x", y="y", r="y rho", s="y sigma")
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
    "p4": ("tau_x", "tau_y", "tau_rho2", "mu_x", "mu_y", "mu_rho"),
    "p6": ("tau_x2", "tau_y2", "tau_rho3", "mu_xy", "mu_xyinv2", "mu_rho2"),
}


# -- map expressions --------------------------------------------------------------

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def parse_map_expr(G: GroupTable, text: str) -> CosetwiseAffineMap:
    """Evaluate an expression like "tau * inv(psi_x) * inner(x^-1 y rho)".

    '*' composes (right factor applied first); names come from the catalog.
    """
    pos = 0
    text = text.strip()

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def parse_atom() -> CosetwiseAffineMap:
        nonlocal pos
        skip_ws()
        m = _NAME_RE.match(text, pos)
        if not m:
            raise ValueError(f"expected a map name at position {pos} in {text!r}")
        name = m.group(0)
        pos = m.end()
        skip_ws()
        if name in ("inv", "inner"):
            if pos >= len(text) or text[pos] != "(":
                raise ValueError(f"{name} needs parentheses in {text!r}")
            pos += 1
            if name == "inv":
                inner_expr = parse_expr()
                skip_ws()
                if pos >= len(text) or text[pos] != ")":
                    raise ValueError(f"unbalanced parentheses in {text!r}")
                pos += 1
                return inner_expr.invert()
            close = text.find(")", pos)
            if close < 0:
                raise ValueError(f"unbalanced parentheses in {text!r}")
            elem = parse_element(G, text[pos:close])
            pos = close + 1
            return inner_map(G, elem)
        return generator(G, name)

    def parse_expr() -> CosetwiseAffineMap:
        nonlocal pos
        out = parse_atom()
        while True:
            skip_ws()
            if pos < len(text) and text[pos] == "*":
                pos += 1
                out = out.compose(parse_atom())
            else:
                return out

    out = parse_expr()
    skip_ws()
    if pos != len(text):
        raise ValueError(f"trailing input at position {pos} in {text!r}")
    return out


# -- relation suites for the non-trivial W(G) -------------------------------------


def _conj_expr(m: str, n: str) -> str:
    return f"inv({n})*{m}*{n}"


def _tau_rhs(G: GroupTable, parts, mu: CosetwiseAffineMap, u: Element):
    """tau_{mu^-1(u)} (or mu_-flavoured), built directly from the definition."""
    return coset_conjugation(G, parts, mu.invert().apply(u))


def wgroup_relations(G: GroupTable) -> dict:
    """Verify the presentation relations of W(G) for p3, p4, p6, p2mm.

    Each relation is an exact map equality.  Printed relations that fail get a
    "resolved" entry: the corrected right side that does hold, with a note; the
    suite passes when every relation holds as printed or has a holding
    resolution.
    """
    if G.gid not in ("p3", "p4", "p6", "p2mm"):
        raise ValueError(f"no relation suite for {G.gid}")
    cat = _catalog(G.gid)
    ev = lambda expr: parse_map_expr(G, expr)
    records = []

    def check(name: str, lhs, rhs, source: str = "printed", resolution=None):
        lhs_map = ev(lhs) if isinstance(lhs, str) else lhs
        rhs_map = ev(rhs) if isinstance(rhs, str) else rhs
        rec = {"relation": name, "holds": lhs_map == rhs_map, "source": source}
        if not rec["holds"] and resolution is not None:
            res_expr, note = resolution
            res_map = ev(res_expr) if isinstance(res_expr, str) else res_expr
            rec["resolved"] = res_expr if isinstance(res_expr, str) else "computed"
            rec["resolved_holds"] = lhs_map == res_map
            rec["note"] = note
        records.append(rec)

    iota_central_against: tuple[str, ...]

    if G.gid == "p3":
        check("tau^3 = id", "tau*tau*tau", "id")
        check("psi_x psi_y = psi_y psi_x", "psi_x*psi_y", "psi_y*psi_x")
        check("I_x = psi_x^-1 psi_y^-1", "I_x", "inv(psi_x)*inv(psi_y)")
        check("I_y = psi_x psi_y^-2", "I_y", "psi_x*inv(psi_y)*inv(psi_y)")
        check("psi_y^I_rho = psi_x psi_y^-1",
              _conj_expr("psi_y", "I_rho"), "psi_x*inv(psi_y)")
        check("psi_x^I_rho = I_y^-1",
              _conj_expr("psi_x", "I_rho"), "inv(I_y)",
              resolution=("inv(psi_y)",
                          "printed right side is inconsistent: together with "
                          "psi_y^I_rho it would give the conjugation action "
                          "infinite order, yet I_rho^3 = id; psi_y^-1 is the "
                          "value the maps actually satisfy"))
        check("tau^psi_x = tau psi_x psi_y",
              _conj_expr("tau", "psi_x"), "tau*psi_x*psi_y")
        check("tau^psi_y = tau psi_x^-1 psi_y^2",
              _conj_expr("tau", "psi_y"), "tau*inv(psi_x)*psi_y*psi_y")
        check("I_rho^3 = id", "I_rho*I_rho*I_rho", "id")
        iota_central_against = ("tau", "psi_x", "psi_y", "I_rho")

    elif G.gid == "p4":
        check("tau_x tau_y = tau_y tau_x", "tau_x*tau_y", "tau_y*tau_x")
        check("tau_rho2^2 = id", "tau_rho2*tau_rho2", "id")
        check("tau_x^tau_rho2 = tau_x^-1", _conj_expr("tau_x", "tau_rho2"),
              "inv(tau_x)", source="derived")
        check("tau_y^tau_rho2 = tau_y^-1", _conj_expr("tau_y", "tau_rho2"),
              "inv(tau_y)", source="derived")
        check("tau_rho2^psi_x = tau_rho2 tau_x^-1 tau_y",
              _conj_expr("tau_rho2", "psi_x"), "tau_rho2*inv(tau_x)*tau_y")
        check("tau_rho2^psi_y = tau_rho2 tau_x tau_y^-1",
              _conj_expr("tau_rho2", "psi_y"), "tau_rho2*tau_x*inv(tau_y)",
              resolution=("tau_rho2*inv(tau_x)*inv(tau_y)",
                          "the stated transport rule (tau_u)^mu = "
                          "tau_{mu^-1(u)} gives tau at psi_y^-1(rho^2) = "
                          "(y^-1 rho)^2 = x^-1 y^-1 rho^2, so the tau_x "
                          "factor needs the inverse; no orientation choice "
                          "makes the printed word consistent with the "
                          "companion psi_x relation"))
        check("mu_x mu_y = mu_y mu_x", "mu_x*mu_y", "mu_y*mu_x")
        check("mu_rho^4 = id", "mu_rho*mu_rho*mu_rho*mu_rho", "id")
        check("mu_x^mu_rho = mu_y^-1", _conj_expr("mu_x", "mu_rho"), "inv(mu_y)")
        check("mu_y^mu_rho = mu_x", _conj_expr("mu_y", "mu_rho"), "mu_x")
        for t in ("tau_x", "tau_y", "tau_rho2"):
            for s in ("mu_x", "mu_y", "mu_rho"):
                check(f"{t} {s} = {s} {t}", f"{t}*{s}", f"{s}*{t}",
                      source="derived")
        check("psi_1^2 = id", "psi_1*psi_1", "id")
        check("I_rho^4 = id", "I_rho*I_rho*I_rho*I_rho", "id")
        tau_targets = (("x", G.element(1, 0)), ("y", G.element(0, 1)),
                       ("rho2", G.element(0, 0, "rho2")))
        mu_targets = (("x", G.element(1, 0)), ("y", G.element(0, 1)),
                      ("rho", G.element(0, 0, "rho")))
        for mu_name in ("I_rho", "psi_1", "psi_x", "psi_y", "I_x", "I_y"):
            mu = cat[mu_name]
            for uname, u in tau_targets:
                check(f"(tau_{uname})^{mu_name} = tau_{mu_name}^-1({uname})",
                      ev(_conj_expr(f"tau_{uname}", mu_name)),
                      _tau_rhs(G, ("rho2",), mu, u))
            for uname, u in mu_targets:
                check(f"(mu_{uname})^{mu_name} = mu_{mu_name}^-1({uname})",
                      ev(_conj_expr(f"mu_{uname}", mu_name)),
                      _tau_rhs(G, ("rho", "rho3"), mu, u))
        iota_central_against = ("tau_x", "tau_rho2", "mu_rho", "psi_x", "psi_1", "I_rho")

    elif G.gid == "p6":
        check("tau_x2 tau_y2 = tau_y2 tau_x2", "tau_x2*tau_y2",
              "tau_y2*tau_x2", source="derived")
        check("tau_rho3^2 = id", "tau_rho3*tau_rho3", "id", source="derived")
        check("tau_x2^tau_rho3 = tau_x2^-1", _conj_expr("tau_x2", "tau_rho3"),
              "inv(tau_x2)", source="derived")
        check("tau_y2^tau_rho3 = tau_y2^-1", _conj_expr("tau_y2", "tau_rho3"),
              "inv(tau_y2)", source="derived")
        check("mu_xy mu_xyinv2 = mu_xyinv2 mu_xy", "mu_xy*mu_xyinv2",
              "mu_xyinv2*mu_xy", source="derived")
        check("mu_rho2^3 = id", "mu_rho2*mu_rho2*mu_rho2", "id",
              source="derived")
        check("mu_xy^mu_rho2 = mu_xyinv2", _conj_expr("mu_xy", "mu_rho2"),
              "mu_xyinv2", source="derived")
        check("mu_xyinv2^mu_rho2 = mu_xy^-1 mu_xyinv2^-1",
              _conj_expr("mu_xyinv2", "mu_rho2"),
              "inv(mu_xy)*inv(mu_xyinv2)", source="derived")
        for t in ("tau_x2", "tau_y2", "tau_rho3"):
            for s in ("mu_xy", "mu_xyinv2", "mu_rho2"):
                check(f"{t} {s} = {s} {t}", f"{t}*{s}", f"{s}*{t}",
                      source="derived")
        check("psi^2 = id", "psi*psi", "id", source="derived")
        check("I_rho^6 = id", "*".join(["I_rho"] * 6), "id", source="derived")
        check("tau_rho3^I_rho = tau_rho3", _conj_expr("tau_rho3", "I_rho"),
              "tau_rho3", source="derived")
        check("mu_rho2^I_rho = mu_rho2", _conj_expr("mu_rho2", "I_rho"),
              "mu_rho2", source="derived")
        check("tau_rho3^psi = tau_rho3", _conj_expr("tau_rho3", "psi"),
              "tau_rho3", source="derived")
        check("mu_rho2^psi = mu_rho2^2", _conj_expr("mu_rho2", "psi"),
              "mu_rho2*mu_rho2", source="derived")
        even = ("1", "rho2", "rho4")
        odd = ("1", "rho3")
        tau_targets = (("x2", G.element(2, 0)), ("y2", G.element(0, 2)))
        mu_targets = (("xy", G.element(1, 1)), ("xyinv2", G.element(1, -2)))
        for mu_name in ("I_rho", "psi", "I_x", "I_y"):
            mu = cat[mu_name]
            for uname, u in tau_targets:
                check(f"(tau_{uname})^{mu_name} = tau_{mu_name}^-1({uname})",
                      ev(_conj_expr(f"tau_{uname}", mu_name)),
                      _tau_rhs(G, even, mu, u), source="derived")
            for uname, u in mu_targets:
                check(f"(mu_{uname})^{mu_name} = mu_{mu_name}^-1({uname})",
                      ev(_conj_expr(f"mu_{uname}", mu_name)),
                      _tau_rhs(G, odd, mu, u), source="derived")
        iota_central_against = ("tau_x2", "tau_rho3", "mu_xy", "mu_rho2", "psi", "I_rho")

    else:  # p2mm
        check("tau^2 = id", "tau*tau", "id")
        check("tau_rs^2 = id", "tau_rs*tau_rs", "id", source="derived")
        check("tau tau_rs = tau_rs tau", "tau*tau_rs", "tau_rs*tau",
              source="derived")
        check("tau^psi = tau_rs (conj by rho sigma on the rho cosets)",
              _conj_expr("tau", "psi"), "tau_rs")
        check("tau^psi_10 = tau", _conj_expr("tau", "psi_10"), "tau",
              source="derived")
        check("tau^psi_01 = I_y tau", _conj_expr("tau", "psi_01"), "I_y*tau",
              source="derived")
        check("psi^2 = id", "psi*psi", "id", source="derived")
        check("psi_10 psi_01 = psi_01 psi_10", "psi_10*psi_01", "psi_01*psi_10",
              source="derived")
        check("psi_10^2 = I_x^-1", "psi_10*psi_10", "inv(I_x)", source="derived")
        check("psi_01^2 = I_y^-1", "psi_01*psi_01", "inv(I_y)", source="derived")
        check("I_rho^2 = id", "I_rho*I_rho", "id", source="derived")
        check("I_sigma^2 = id", "I_sigma*I_sigma", "id", source="derived")
        iota_central_against = ("tau", "tau_rs", "psi", "psi_10", "I_rho", "I_sigma")

    check("iota^2 = id", "iota*iota", "id")
    for name in iota_central_against:
        check(f"iota {name} = {name} iota", f"iota*{name}", f"{name}*iota")

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


def normality_check(G: GroupTable, word_length: int = 4) -> dict:
    """Conjugate each non-trivial generator by each W0 generator and find the
    result among short words in the non-trivial generators."""
    if G.gid not in W0_GENERATORS:
        raise ValueError(f"no normality data for {G.gid}")
    cat = _catalog(G.gid)
    ngens = {name: cat[name] for name in NONTRIVIAL_CATALOG[G.gid]}
    symbols = list(ngens.items()) + [
        (f"inv({name})", m.invert()) for name, m in ngens.items()]

    words = {identity_map(G): ("id", 0)}
    frontier = [identity_map(G)]
    for length in range(1, word_length + 1):
        nxt = []
        for base in frontier:
            for sym_name, sym in symbols:
                w = base.compose(sym)
                if w not in words:
                    base_name = words[base][0]
                    name = sym_name if base_name == "id" else f"{base_name}*{sym_name}"
                    words[w] = (name, length)
                    nxt.append(w)
        frontier = nxt

    pairs = []
    for n_name, n in ngens.items():
        for w_name in W0_GENERATORS[G.gid]:
            conj = n.conjugate_by(cat[w_name])
            hit = words.get(conj)
            pairs.append({
                "generator": n_name,
                "by": w_name,
                "found": hit is not None,
                "word": hit[0] if hit else None,
            })
    return {
        "group": G.gid,
        "word_length": word_length,
        "pairs": pairs,
        "ok": all(p["found"] for p in pairs),
    }


# -- randomized candidates for the triviality evidence ------------------------------


@lru_cache(maxsize=1)
def _unimodular_pool() -> tuple:
    pool = []
    for a, b, c, d in product(range(-2, 3), repeat=4):
        if a * d - b * c in (1, -1):
            pool.append(((a, b), (c, d)))
    return tuple(pool)


def random_map(G: GroupTable, rnd: random.Random, shift_bound: int = 2) -> CosetwiseAffineMap:
    """A random coset permutation with random small affine rules per coset."""
    targets = list(G.F)
    rnd.shuffle(targets)
    pool = _unimodular_pool()
    rule = {}
    for f, f2 in zip(G.F, targets):
        m = rnd.choice(pool)
        t = (rnd.randint(-shift_bound, shift_bound),
             rnd.randint(-shift_bound, shift_bound))
        rule[f] = (f2, m, t)
    return CosetwiseAffineMap(G, rule)
