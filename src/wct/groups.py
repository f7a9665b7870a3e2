"""Multiplication engines for the 17 wallpaper groups.

Every group is handled in the normal form a * f where a = x^i y^j ranges over
the translation lattice A = Z^2 and f over a fixed transversal F of G/A.  The
transversal elements are words rho^k gamma^e (gamma doubling as sigma for the
reflection groups), so the whole product rule is determined by

  * act(f): the 2x2 integer matrix of a |-> a^f = f^-1 a f,
  * the relation gamma^2 = beta1 (nonzero only for glide transversals), and
  * the relation (rho gamma)^2 = c, which yields the translation picked up
    when gamma moves past rho.

Products of transversal words then reduce to cocycle tables fprod[f, g] =
(translation, representative); those tables are what mul/inv/conj run on.
check_presentation evaluates the defining relations through the engine, from
the text it prints in the paper's notation (evaluate_word, the grammar
maps.parse_map_expr reads too), so a bad table cannot survive the test suite.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterator, NamedTuple

from .lattice import (
    Mat,
    Sublattice,
    Vec,
    mat_identity,
    mat_inv_unimodular,
    matmul,
    matvec,
    vadd,
    vneg,
    vsub,
)

_ZERO: Vec = (0, 0)
_X: Vec = (1, 0)
_Y: Vec = (0, 1)

_R_P2 = ((-1, 0), (0, -1))
_R_P3 = ((-1, -1), (1, 0))
_R_P4 = ((0, -1), (1, 0))
_R_P6 = ((0, -1), (1, 1))
_S_MIRROR_X = ((1, 0), (0, -1))   # x fixed, y inverted
_S_SWAP = ((0, 1), (1, 0))        # x <-> y
_S_HEX = ((1, 1), (0, -1))        # x fixed, y -> x y^-1


class Element(NamedTuple):
    """Group element a * f with a in lattice coordinates and f a transversal label."""

    a: Vec
    f: str

    def to_json(self) -> dict:
        return {"a": list(self.a), "f": self.f}


def int_coords(values, what: str) -> tuple:
    """values as a tuple of plain ints; a float, bool or other non-int
    coordinate raises ValueError instead of being truncated."""
    out = tuple(values)
    if any(type(x) is not int for x in out):
        raise ValueError(f"{what} must have int coordinates, got {out}")
    return out


def element_from_json(data: dict) -> Element:
    a = int_coords(data["a"], "translation part")
    if len(a) != 2:
        raise ValueError(f"translation part must have 2 coordinates, got {a}")
    return Element(a, str(data["f"]))


class _Spec(NamedTuple):
    d: int                  # order of the rotation part (1 when absent)
    refl: str | None        # "sigma", "gamma", or None
    rot: Mat | None         # act(rho)
    mirror: Mat | None      # act(sigma) / act(gamma)
    beta1: Vec              # gamma^2
    rel_rg: Vec             # (rho gamma)^2
    relations: tuple[str, ...]  # besides (x,y); a bare w means w = e
    notes: tuple[str, ...] = ()


_SPECS: dict[str, _Spec] = {
    "p1": _Spec(1, None, None, None, _ZERO, _ZERO, ()),
    "p2": _Spec(2, None, _R_P2, None, _ZERO, _ZERO, ("x^rho = x^-1", "y^rho = y^-1", "rho^2")),
    "p3": _Spec(3, None, _R_P3, None, _ZERO, _ZERO, ("x^rho = x^-1 y", "y^rho = x^-1", "rho^3")),
    "p4": _Spec(4, None, _R_P4, None, _ZERO, _ZERO, ("x^rho = y", "y^rho = x^-1", "rho^4")),
    "p6": _Spec(6, None, _R_P6, None, _ZERO, _ZERO, ("x^rho = y", "y^rho = x^-1 y", "rho^6")),
    "cm": _Spec(1, "sigma", None, _S_SWAP, _ZERO, _ZERO, ("x^sigma = y", "y^sigma = x", "sigma^2")),
    "pm": _Spec(1, "sigma", None, _S_MIRROR_X, _ZERO, _ZERO,
                ("x^sigma = x", "y^sigma = y^-1", "sigma^2")),
    "pg": _Spec(1, "gamma", None, _S_MIRROR_X, _X, _ZERO,
                ("x^gamma = x", "y^gamma = y^-1", "gamma^2 = x")),
    "c2mm": _Spec(2, "sigma", _R_P2, _S_SWAP, _ZERO, _ZERO, (
        "rho^2", "sigma^2", "x^rho = x^-1", "y^rho = y^-1",
        "x^sigma = y", "y^sigma = x", "(rho sigma)^2")),
    "p2mm": _Spec(2, "sigma", _R_P2, _S_MIRROR_X, _ZERO, _ZERO, (
        "rho^2", "sigma^2", "(rho,sigma)", "x^rho = x^-1", "y^rho = y^-1",
        "x^sigma = x", "y^sigma = y^-1")),
    "p2mg": _Spec(2, "sigma", _R_P2, _S_MIRROR_X, _ZERO, _Y, (
        "rho^2", "sigma^2", "x^rho = x^-1", "y^rho = y^-1",
        "x^sigma = x", "y^sigma = y^-1", "(rho sigma)^2 = y")),
    "p2gg": _Spec(2, "gamma", _R_P2, _S_MIRROR_X, _X, _Y, (
        "rho^2", "gamma^2 = x", "x^rho = x^-1", "y^rho = y^-1",
        "x^gamma = x", "y^gamma = y^-1", "(rho gamma)^2 = y")),
    "p3m1": _Spec(3, "sigma", _R_P3, _S_SWAP, _ZERO, _ZERO, (
        "rho^3", "sigma^2", "(rho sigma)^2", "x^rho = x^-1 y", "y^rho = x^-1",
        "x^sigma = y", "y^sigma = x")),
    "p31m": _Spec(3, "sigma", _R_P3, _S_HEX, _ZERO, _ZERO, (
        "rho^3", "sigma^2", "(rho sigma)^2", "x^rho = x^-1 y", "y^rho = x^-1",
        "x^sigma = x", "y^sigma = x y^-1"),
        notes=("source presentation lists the relation '(xy)'; read as the commutator (x,y)",)),
    "p4mg": _Spec(4, "gamma", _R_P4, _S_MIRROR_X, _X, _ZERO, (
        "rho^4", "gamma^2 = x", "x^rho = y", "y^rho = x^-1",
        "x^gamma = x", "y^gamma = y^-1", "(rho gamma)^2")),
    "p4mm": _Spec(4, "sigma", _R_P4, _S_MIRROR_X, _ZERO, _ZERO, (
        "rho^4", "sigma^2", "x^rho = y", "y^rho = x^-1",
        "x^sigma = x", "y^sigma = y^-1", "(rho sigma)^2")),
    "p6m": _Spec(6, "sigma", _R_P6, _S_HEX, _ZERO, _ZERO, (
        "rho^6", "sigma^2", "x^rho = y", "y^rho = x^-1 y",
        "x^sigma = x", "y^sigma = x y^-1", "(rho sigma)^2")),
}
GROUP_IDS = tuple(_SPECS)


def _label(k: int, e: int, refl: str | None) -> str:
    rot = "" if k == 0 else ("rho" if k == 1 else f"rho{k}")
    tail = refl if e == 1 else ""
    return (rot + tail) or "1"


def conjugation_hooks(G, act) -> tuple[dict, dict]:
    """The closed form of conjugacy, stated once for both families: the
    dicts (slack, conjugators) of a group G whose product rule is built.

    G.identity is (zero, one) and G.F the parts; act[f] is the matrix of
    a |-> f^-1 a f.  Conjugating a*f by t*f' moves a within a + K_f, K_f =
    im(act(f) - I), then onto act(f') a + s + K_h in part h, where
    (s, h) = G.conj((zero, f), (zero, f')).  So slack[h] = K_h, and
    conjugators[f, h] lists (f', act(f'), s) in G.F order, keeping only the
    first f' of each key (the columns of act(f') and s, modulo K_h): f'
    with one key send every a*f to the same coset of K_h.
    """
    zero, _ = G.identity
    make, n = type(G.identity), len(zero)
    slack = {h: Sublattice(n, [[act[h][i][j] - (i == j) for i in range(n)] for j in range(n)])
             for h in G.F}
    entries = {(f, h): {} for f in G.F for h in G.F}
    for f in G.F:
        for fp in G.F:
            s, h = G.conj(make(zero, f), make(zero, fp))
            reduce = slack[h].reduce
            entries[f, h].setdefault((tuple(map(reduce, zip(*act[fp]))), reduce(s)),
                                     (fp, act[fp], s))
    return slack, {key: tuple(e.values()) for key, e in entries.items()}


def affine_on_part(G, fn, f) -> tuple:
    """(h, M, t) with fn(a*f) = (M a + t)*h for all a, read off fn at the
    origin and the unit steps of part f when fn is affine on the part, as the
    products, inverses and maps of both families are; serves SdGroup too."""
    zero, _ = G.identity
    make = type(G.identity)
    t, h = fn(make(zero, f))
    cols = []
    for j in range(len(zero)):
        a, part = fn(make(zero[:j] + (1,) + zero[j + 1:], f))
        if part != h:
            raise ValueError(f"function is not coset-wise on {f!r}")
        cols.append(vsub(a, t))
    return h, tuple(zip(*cols)), t


class GroupTable:
    """Immutable multiplication tables for one wallpaper group."""

    def __init__(self, gid: str):
        if gid not in _SPECS:
            raise ValueError(f"unknown group {gid!r}; expected one of {', '.join(GROUP_IDS)}")
        spec = _SPECS[gid]
        self.gid = gid
        self.refl = spec.refl
        self.relations = ("(x,y)",) + spec.relations  # A = Z^2 is abelian in every group
        self.notes = spec.notes

        rot = spec.rot if spec.rot is not None else mat_identity(2)
        rot_pows = [mat_identity(2)]
        for _ in range(1, spec.d):
            rot_pows.append(matmul(rot_pows[-1], rot))

        parts: list[tuple[int, int]] = [(k, 0) for k in range(spec.d)]
        if spec.refl is not None:
            parts += [(k, 1) for k in range(spec.d)]
        self.F: tuple[str, ...] = tuple(_label(k, e, spec.refl) for k, e in parts)
        self._part_of = {lbl: ke for lbl, ke in zip(self.F, parts)}

        # act(rho^k gamma^e) = act(gamma)^e @ act(rho)^k  (column vectors)
        self.act: dict[str, Mat] = {}
        for lbl, (k, e) in zip(self.F, parts):
            m = rot_pows[k]
            if e:
                m = matmul(spec.mirror, m)
            self.act[lbl] = m
        self.act_inv: dict[str, Mat] = {lbl: mat_inv_unimodular(m) for lbl, m in self.act.items()}
        rot_inv_pows = [self.act_inv[_label(k, 0, spec.refl)] for k in range(spec.d)]

        # translation picked up when gamma crosses rho^m:  gamma rho^m = tau[m] rho^-m gamma
        t1 = matvec(rot, vadd(spec.rel_rg, vneg(spec.beta1)))
        tau = [_ZERO]
        for m in range(1, spec.d):
            tau.append(vadd(tau[-1], matvec(rot_pows[m - 1], t1)))

        self.fprod: dict[tuple[str, str], tuple[Vec, str]] = {}
        for lbl1, (k, e) in zip(self.F, parts):
            for lbl2, (m, n) in zip(self.F, parts):
                if e == 0:
                    c: Vec = _ZERO
                    h = ((k + m) % spec.d, n)
                else:
                    j = (k - m) % spec.d
                    c = matvec(rot_inv_pows[k], tau[m])
                    if n == 1:
                        c = vadd(c, matvec(rot_inv_pows[j], spec.beta1))
                    h = (j, 1 - n)
                self.fprod[(lbl1, lbl2)] = (c, _label(h[0], h[1], spec.refl))

        # inverse transversal data: point_inv[f] = (g, c(f, g)) with point(f*g) = 1
        self.point_inv: dict[str, tuple[str, Vec]] = {}
        for f in self.F:
            g = next(g for g in self.F if self.fprod[(f, g)][1] == "1")
            self.point_inv[f] = (g, self.fprod[(f, g)][0])

        self.identity = Element(_ZERO, "1")
        gens: dict[str, Element] = {"x": Element(_X, "1"), "y": Element(_Y, "1")}
        if spec.d > 1:
            gens["rho"] = Element(_ZERO, "rho")
        if spec.refl is not None:
            gens[spec.refl] = Element(_ZERO, spec.refl)
        self.generators = gens

        # slack[h] = K_h; the conjugates of a*f in part h are the cosets
        # act(f') a + s + K_h over (f', act(f'), s) in conjugators[f, h]
        self.slack, self.conjugators = conjugation_hooks(self, self.act)
        # slack_hnf[h] = (p, q, r): K_h's HNF rows (p, q) and (0, r), p = 0 or
        # r = 0 for an absent row; the 2-D kernels of is_conjugate,
        # maps.is_wct_on_ball and maps.decide's uniform test read it
        self.slack_hnf = {}
        for f, lat in self.slack.items():
            p = q = r = 0
            for row in lat.rows:
                if row[0]:
                    p, q = row
                else:
                    r = row[1]
            self.slack_hnf[f] = (p, q, r)

    # -- group operations ----------------------------------------------------

    def mul(self, g: Element, h: Element) -> Element:
        c, lbl = self.fprod[(g.f, h.f)]
        m = self.act_inv[g.f]
        b = h.a
        return Element(
            (g.a[0] + m[0][0] * b[0] + m[0][1] * b[1] + c[0],
             g.a[1] + m[1][0] * b[0] + m[1][1] * b[1] + c[1]),
            lbl,
        )

    def inv(self, g: Element) -> Element:
        lbl, c = self.point_inv[g.f]
        m = self.act[g.f]
        u = (g.a[0] + c[0], g.a[1] + c[1])
        return Element((-(m[0][0] * u[0] + m[0][1] * u[1]), -(m[1][0] * u[0] + m[1][1] * u[1])), lbl)

    def conj(self, g: Element, h: Element) -> Element:
        """g^h = h^-1 g h."""
        return self.mul(self.inv(h), self.mul(g, h))

    def power(self, g: Element, n: int) -> Element:
        return _power(g, n, self.mul, self.inv, self.identity)

    # -- element helpers ------------------------------------------------------

    def element(self, i: int, j: int, f: str = "1") -> Element:
        if f not in self._part_of:
            raise ValueError(f"unknown transversal label {f!r} for {self.gid}")
        return Element(int_coords((i, j), "translation part"), f)

    def pair_form(self, m, f1: str, f2: str) -> tuple:
        """(lf, a0, A, rf, b0, B): both sides of the WCT condition on the
        part pair (f1, f2) of the map m, read from the tables and m.rule.

        For g1 = x1*f1 and g2 = x2*f2, m(g1 g2) = (a0 + A (x1, x2))*lf and
        m(g1) m(g2) = (b0 + B (x1, x2))*rf, with A and B given as their four
        columns.  With fprod[f1, f2] = (c, f12), rule[f12] = (lf, L, t),
        rule[f1] = (e1, M1, u), rule[f2] = (e2, M2, w), fprod[e1, e2] =
        (d, rf), A1 = act_inv(f1) and B1 = act_inv(e1):

          m(g1 g2) = L (x1 + A1 x2 + c) + t,
          m(g1) m(g2) = M1 x1 + u + B1 (M2 x2 + w) + d.
        """
        (c0, c1), f12 = self.fprod[f1, f2]
        lf, ((l00, l01), (l10, l11)), (t0, t1) = m.rule[f12]
        e1, ((m00, m01), (m10, m11)), (u0, u1) = m.rule[f1]
        e2, ((h00, h01), (h10, h11)), (w0, w1) = m.rule[f2]  # M2
        (d0, d1), rf = self.fprod[e1, e2]
        (a00, a01), (a10, a11) = self.act_inv[f1]
        (b00, b01), (b10, b11) = self.act_inv[e1]
        a0 = (l00 * c0 + l01 * c1 + t0, l10 * c0 + l11 * c1 + t1)
        A = ((l00, l10), (l01, l11),
             (l00 * a00 + l01 * a10, l10 * a00 + l11 * a10),
             (l00 * a01 + l01 * a11, l10 * a01 + l11 * a11))
        b0 = (u0 + b00 * w0 + b01 * w1 + d0, u1 + b10 * w0 + b11 * w1 + d1)
        B = ((m00, m10), (m01, m11),
             (b00 * h00 + b01 * h10, b10 * h00 + b11 * h10),
             (b00 * h01 + b01 * h11, b10 * h01 + b11 * h11))
        return lf, a0, A, rf, b0, B

    def check_element(self, g: Element) -> Element:
        try:
            (x, y), f = g
            ok = f in self._part_of and type(x) is type(y) is int
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise ValueError(f"element {g} does not belong to {self.gid}")
        return g

    def ball(self, radius: int) -> list[Element]:
        """All a*f with max-norm(a) <= radius, ordered as cells(radius), then
        by part in G.F order."""
        new = tuple.__new__  # builds the Element without NamedTuple's Python-level __new__
        return [new(Element, (v, f)) for v in cells(radius) for f in self.F]

    def word(self, text: str) -> Element:
        """Evaluate text in the paper's notation, evaluate_word's grammar, over
        the generators x, y and, when present, rho and sigma or gamma."""
        def atom(name: str) -> Element:
            if name not in self.generators:
                raise ValueError(f"generator {name!r} not available in {self.gid}")
            return self.generators[name]
        return evaluate_word(text, atom, self.mul, self.inv, self.identity)

    # -- verification ----------------------------------------------------------

    def check_presentation(self) -> dict:
        """Evaluate each relation as the text it prints: both sides, split at
        " = ", with word; a relation with one side is a word equal to e."""
        results = []
        for relation in self.relations:
            lhs, _, rhs = relation.partition(" = ")
            holds = self.word(lhs) == (self.word(rhs) if rhs else self.identity)
            results.append({"relation": relation, "holds": holds})
        return {
            "group": self.gid,
            "relations": results,
            "violations": [r["relation"] for r in results if not r["holds"]],
            "notes": list(self.notes),
        }


def check_radius(radius: int) -> None:
    """Reject a radius that is not exactly an int (True and 2.0 included) or
    is negative: a negative ball is empty, so any sweep over it is vacuous."""
    if type(radius) is not int:
        raise ValueError(f"radius must be an int, got {radius!r}")
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")


@lru_cache(maxsize=None, typed=True)  # typed: True and 1.0 must not hit the entry of 1
def cells(radius: int) -> tuple:
    """The translation parts a with max-norm(a) <= radius, as flat int pairs
    ordered by norm, then lexicographically: the cell order of every ball."""
    check_radius(radius)
    return tuple(sorted(
        ((i, j) for i in range(-radius, radius + 1) for j in range(-radius, radius + 1)),
        key=lambda v: (max(abs(v[0]), abs(v[1])), v),
    ))


@lru_cache(maxsize=None)
def load_group(gid: str) -> GroupTable:
    return GroupTable(gid)


def all_groups() -> Iterator[GroupTable]:
    for gid in GROUP_IDS:
        yield load_group(gid)


# one token per match: an inner(...) call with its element text, a name, an
# int, or any other non-blank character
_WORD_TOKEN_RE = re.compile(r"\s*(inner\s*\([^)]*\)|[A-Za-z_][A-Za-z0-9_]*|-?[0-9]+|\S)")


def evaluate_word(text: str, atom, mul, inv, one):
    """Evaluate a word in the paper's notation, like "x^rho (rho,sigma) inv(y)^2".

    The grammar, with '^' binding tightest and products read left to right:

      expr    := factor ('*'? factor)*
      factor  := primary ('^' (int | name))*
      primary := name | 'inv' '(' expr ')' | '(' expr ')' | '(' expr ',' expr ')'

    atom(token) gives the value of a name, or of an inner(...) token (the
    call with its text up to the first ')'), and raises ValueError for one
    it does not know.  Juxtaposition multiplies as '*' does; (a,b) is the
    commutator a^-1 b^-1 a b; w^k is _power(w, k); w^n for a name n is
    n^-1 w n.  Malformed text raises ValueError, nesting deeper than the
    interpreter's recursion limit allows included.
    """
    toks = _WORD_TOKEN_RE.findall(text) + [""]  # "" ends the input
    pos = 0

    def factor():
        nonlocal pos
        tok = toks[pos]
        pos += 1
        if tok == "(" or tok == "inv" and toks[pos] == "(":
            pos += tok == "inv"
            out = expr()
            if tok == "(" and toks[pos] == ",":
                pos += 1
                b = expr()
                out = mul(mul(mul(inv(out), inv(b)), out), b)
            if toks[pos] != ")":
                raise ValueError(f"unbalanced parentheses in {text!r}")
            pos += 1
            out = inv(out) if tok == "inv" else out
        elif tok in ("inv", "inner"):
            raise ValueError(f"{tok} needs its (...) in {text!r}")
        elif tok.isidentifier() or tok.startswith("inner"):
            out = atom(tok)
        else:
            raise ValueError(f"expected a name, not {tok or 'the end'!r}, in {text!r}")
        while toks[pos] == "^":
            k = toks[pos + 1]
            pos += 2
            if k.lstrip("-").isdecimal():
                out = _power(out, int(k), mul, inv, one)
            elif k.isidentifier():
                n = atom(k)
                out = mul(mul(inv(n), out), n)
            else:
                raise ValueError(f"expected an int or a name after '^' in {text!r}")
        return out

    def expr():
        nonlocal pos
        out = factor()
        while toks[pos] not in (")", ",", ""):
            pos += toks[pos] == "*"
            out = mul(out, factor())
        return out

    try:
        out = expr()
    except RecursionError:
        raise ValueError(f"expression nested too deeply ({len(text)} characters)") from None
    if toks[pos]:  # a ')' or ',' outside any parentheses
        raise ValueError(f"unexpected {toks[pos]!r} in {text!r}")
    return out


def _power(w, k: int, mul, inv, one):
    """w multiplied by itself k times, inv(w) -k times for a negative k, one
    for k = 0, by squaring: no more products than the word w w ... w takes."""
    if k < 0:
        w, k = inv(w), -k
    if k == 0:
        return one
    out = w
    for bit in bin(k)[3:]:  # k's binary digits after the leading 1
        out = mul(out, out)
        if bit == "1":
            out = mul(out, w)
    return out


_TOKEN_RE = re.compile(r"([xy])(?:\^(-?\d+))?$")


def parse_element(table: GroupTable, text: str) -> Element:
    """Parse a compact element like 'x^2 y^-1 rhogamma', 'gamma', or '1'.

    Tokens may be separated by whitespace or '*'; at most one transversal label,
    in trailing position.  Text with no tokens is rejected: e is written '1'.
    """
    toks = [t for t in re.split(r"[\s*]+", text.strip()) if t]
    if not toks:
        raise ValueError(f"element {text!r} has no tokens; write '1' for the identity")
    vec = [0, 0]
    f = "1"
    for pos, tok in enumerate(toks):
        m = _TOKEN_RE.match(tok)
        if m:
            exp = int(m.group(2)) if m.group(2) is not None else 1
            vec[0 if m.group(1) == "x" else 1] += exp
            continue
        if tok in table._part_of:
            if pos != len(toks) - 1:
                raise ValueError(f"transversal label {tok!r} must come last in {text!r}")
            f = tok
            continue
        raise ValueError(f"cannot parse token {tok!r} in element {text!r}")
    return Element((vec[0], vec[1]), f)
