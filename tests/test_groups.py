"""Group engines against presentations and the affine-isometry oracle."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest
from affine_oracle import AffineRep

from wct.groups import (
    GROUP_IDS,
    Element,
    GroupTable,
    all_groups,
    element_from_json,
    load_group,
    parse_element,
)
from wct.lattice import Sublattice, matmul, matvec, vadd, vsub


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_presentation(gid):
    report = load_group(gid).check_presentation()
    assert report["violations"] == []
    assert all(r["holds"] for r in report["relations"])


def _letter_word(G, letters):
    """The word in the earlier letter notation: x, y, r, s, g for x, y, rho,
    sigma, gamma, a capital letter for the inverse; multiplied out directly."""
    names = {"x": "x", "y": "y", "r": "rho", "s": "sigma", "g": "gamma"}
    out = G.identity
    for t in letters:
        g = G.generators[names[t.lower()]]
        out = G.mul(out, g if t.islower() else G.inv(g))
    return out


def test_relation_texts_mean_the_pinned_letter_words():
    """Each relation, as the text check_presentation evaluates, gives on both
    sides the elements its two letter words gave when both were stated."""
    pinned = json.loads((Path(__file__).parent / "data" / "presentation_words.json").read_text())
    assert list(pinned["words"]) == list(GROUP_IDS)
    for gid, rows in pinned["words"].items():
        G = load_group(gid)
        assert list(G.relations) == [text for text, _, _ in rows]
        for text, lhs, rhs in rows:
            left, _, right = text.partition(" = ")
            assert G.word(left) == _letter_word(G, lhs), (gid, text)
            assert (G.word(right) if right else G.identity) == _letter_word(G, rhs), (gid, text)


def test_check_presentation_reports_a_wrong_relation():
    G = GroupTable("p4")
    G.relations = ("x^rho = y", "x^rho = y^-1")
    report = G.check_presentation()
    assert report["violations"] == ["x^rho = y^-1"]
    assert [r["holds"] for r in report["relations"]] == [True, False]


def test_word_reads_the_papers_notation():
    G = load_group("p4mm")
    x, y, rho, sigma = (G.generators[k] for k in ("x", "y", "rho", "sigma"))
    mul, inv = G.mul, G.inv
    assert G.word("(x,y)") == G.identity
    assert G.word("(x,rho)") == mul(mul(mul(inv(x), inv(rho)), x), rho)
    assert G.word("x^rho") == G.conj(x, rho) == y
    assert G.word("rho^-2") == mul(inv(rho), inv(rho)) == G.word("rho^2")
    assert G.word("inv(x rho)") == inv(mul(x, rho)) == G.word("rho^-1 x^-1")
    assert G.word("(rho sigma)^2") == mul(mul(rho, sigma), mul(rho, sigma)) == G.identity
    assert G.word("x*y^2") == G.word("x y y") == G.element(1, 2)


def test_word_rejects_malformed_text():
    G = load_group("p4")
    for bad in ("x^", "(x", "x)", "", "x,y", "inv x", "x^^2", "(" * 5000 + "x" + ")" * 5000):
        with pytest.raises(ValueError):
            G.word(bad)


def test_transversal_sizes():
    sizes = {g.gid: len(g.F) for g in all_groups()}
    assert sizes == {
        "p1": 1, "p2": 2, "p3": 3, "p4": 4, "p6": 6,
        "cm": 2, "pm": 2, "pg": 2,
        "c2mm": 4, "p2mm": 4, "p2mg": 4, "p2gg": 4,
        "p3m1": 6, "p31m": 6, "p4mg": 8, "p4mm": 8, "p6m": 12,
    }


def test_known_products():
    p4 = load_group("p4")
    assert p4.mul(p4.element(1, 0, "rho"), p4.element(0, 1, "rho")) == p4.element(2, 0, "rho2")
    assert p4.inv(p4.element(1, 0, "rho")) == p4.element(0, -1, "rho3")

    pg = load_group("pg")
    gam = pg.element(0, 0, "gamma")
    assert pg.mul(gam, gam) == pg.element(1, 0)
    assert pg.inv(gam) == pg.element(-1, 0, "gamma")

    p4mg = load_group("p4mg")
    assert p4mg.mul(p4mg.element(0, 0, "gamma"), p4mg.element(0, 0, "rho")) \
        == p4mg.element(0, -1, "rho3gamma")
    rg = p4mg.element(0, 0, "rhogamma")
    assert p4mg.mul(rg, rg) == p4mg.identity

    p2mg = load_group("p2mg")
    assert p2mg.mul(p2mg.element(0, 0, "sigma"), p2mg.element(0, 0, "rho")) \
        == p2mg.element(0, -1, "rhosigma")

    p2gg = load_group("p2gg")
    assert p2gg.mul(p2gg.element(0, 0, "gamma"), p2gg.element(0, 0, "rho")) \
        == p2gg.element(1, -1, "rhogamma")


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_act_is_antihomomorphism(gid):
    G = load_group(gid)
    for f in G.F:
        for g in G.F:
            h = G.fprod[(f, g)][1]
            assert G.act[h] == matmul(G.act[g], G.act[f]), (f, g)


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_mul_matches_affine_oracle(gid):
    G = load_group(gid)
    rep = AffineRep(G)
    small = G.ball(1)
    for g in small:
        for h in small:
            assert G.mul(g, h) == rep.mul(g, h), (g, h)


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_inv_and_conj_match_affine_oracle(gid):
    G = load_group(gid)
    rep = AffineRep(G)
    rnd = random.Random(hash(gid) & 0xFFFF)
    big = G.ball(4)
    for g in G.ball(2):
        assert G.inv(g) == rep.inv(g)
    for _ in range(400):
        g, h = rnd.choice(big), rnd.choice(big)
        assert G.mul(g, h) == rep.mul(g, h)
        assert G.conj(g, h) == rep.conj(g, h)


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_group_axioms_sampled(gid):
    G = load_group(gid)
    rnd = random.Random(42)
    B = G.ball(2)
    for _ in range(200):
        a, b, c = rnd.choice(B), rnd.choice(B), rnd.choice(B)
        assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))
        assert G.mul(a, G.inv(a)) == G.identity
        assert G.mul(G.inv(a), a) == G.identity
        assert G.mul(a, G.identity) == a
        assert G.mul(G.identity, a) == a


def test_huge_coordinates_stay_exact():
    G = load_group("p6m")
    n = 10 ** 40
    g = G.element(n, -n + 3, "rho5sigma")
    h = G.element(2 * n, n, "rho2")
    prod = G.mul(g, h)
    assert G.mul(prod, G.inv(h)) == g
    assert G.mul(G.inv(g), prod) == h


def test_ball_shape():
    G = load_group("p4mg")
    b2 = G.ball(2)
    assert len(b2) == 25 * 8
    assert b2[0] == G.identity
    assert len(set(b2)) == len(b2)
    # norm-sorted: translations grow outward
    norms = [max(abs(g.a[0]), abs(g.a[1])) for g in b2]
    assert norms == sorted(norms)


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_ball_is_the_listed_elements(gid):
    """ball(r) in its stated order (by max-norm, then lexicographically,
    then by part in G.F order) and made of Elements, not plain tuples."""
    G = load_group(gid)
    for r in (0, 1, 3):
        square = sorted(((i, j) for i in range(-r, r + 1) for j in range(-r, r + 1)),
                        key=lambda v: (max(map(abs, v)), v))
        ball = G.ball(r)
        assert ball == [Element(v, f) for v in square for f in G.F]
        assert all(type(g) is Element for g in ball)


def _coset_map_key(lat, m, s):
    """The columns of m and s modulo lat: what a conjugator does to the
    cosets of lat."""
    return tuple(map(lat.reduce, zip(*m))), lat.reduce(s)


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_conjugation_hooks(gid):
    # conjugating a*f by a pure part f' lands on act(f') a + s in part h,
    # where (s, h) is the conjugate of the pure part f; the moves of a under
    # conjugation by x and y span slack[f]; conjugators[f, h] keeps, in G.F
    # order, the first f' of each coset map of slack[h] and no other
    G = load_group(gid)
    a = (3, -2)
    for f in G.F:
        moves = [vsub(G.conj(Element(a, f), Element(t, "1")).a, a) for t in ((1, 0), (0, 1))]
        assert G.slack[f] == Sublattice(2, moves)
        first = {}  # (h, key) -> (f', act(f'), s) of the first f' with that key
        for fp in G.F:
            s, h = G.conj(Element((0, 0), f), Element((0, 0), fp))
            m = G.act[fp]
            assert G.conj(Element(a, f), Element((0, 0), fp)) == \
                Element(vadd(matvec(m, a), s), h)
            first.setdefault((h, _coset_map_key(G.slack[h], m, s)), (fp, m, s))
        for h in G.F:
            entries = G.conjugators[f, h]
            labels = [fp for fp, _, _ in entries]
            assert labels == sorted(labels, key=G.F.index)
            keys = [_coset_map_key(G.slack[h], m, s) for _, m, s in entries]
            assert len(set(keys)) == len(keys)
            assert list(entries) == [e for (k, _), e in first.items() if k == h]


def test_power():
    p6 = load_group("p6")
    r = p6.element(1, 2, "rho")
    acc = p6.identity
    for k in range(8):
        assert p6.power(r, k) == acc
        acc = p6.mul(acc, r)
    assert p6.power(r, -3) == p6.inv(p6.power(r, 3))


def test_parse_and_json_round_trip():
    G = load_group("p4mg")
    g = parse_element(G, "x^2 y^-1 rho2gamma")
    assert g == G.element(2, -1, "rho2gamma")
    assert parse_element(G, "1") == G.identity
    assert parse_element(G, "gamma") == G.element(0, 0, "gamma")
    assert parse_element(G, "x*y*rho") == G.element(1, 1, "rho")
    assert element_from_json(g.to_json()) == g

    with pytest.raises(ValueError):
        parse_element(G, "sigma")
    with pytest.raises(ValueError):
        parse_element(G, "rho x")
    with pytest.raises(ValueError):
        G.element(0, 0, "nope")
    with pytest.raises(ValueError):
        load_group("p5")


BAD_COORDS = (1.5, 1.0, True, "1", None)


def test_element_rejects_non_int_coordinates():
    p2 = load_group("p2")
    assert p2.element(1, -2, "rho") == Element((1, -2), "rho")
    for bad in BAD_COORDS:
        with pytest.raises(ValueError, match="int coordinates"):
            p2.element(bad, 0)
        with pytest.raises(ValueError, match="int coordinates"):
            p2.element(0, bad, "rho")


def test_check_element_rejects_non_int_coordinates():
    p2 = load_group("p2")
    assert p2.check_element(Element((1, -2), "rho")) == Element((1, -2), "rho")
    bad_elements = [Element((0, 0, 0), "1"), Element((0,), "rho")]
    bad_elements += [Element((bad, 0), "1") for bad in BAD_COORDS]
    bad_elements += [Element((0, bad), "rho") for bad in BAD_COORDS]
    for g in bad_elements:
        with pytest.raises(ValueError, match="does not belong to p2"):
            p2.check_element(g)


def test_element_from_json_rejects_non_int_coordinates():
    assert element_from_json({"a": [1, -2], "f": "rho"}) == Element((1, -2), "rho")
    for a in ([1.9, True], [1.0, 0], [True, 0], ["1", 0], [0, None]):
        with pytest.raises(ValueError, match="int coordinates"):
            element_from_json({"a": a, "f": "1"})
    for a in ([1, 2, 3], [1]):
        with pytest.raises(ValueError, match="2 coordinates"):
            element_from_json({"a": a, "f": "1"})


def test_word_rejects_missing_generator():
    with pytest.raises(ValueError, match="'rho' not available in p1"):
        load_group("p1").word("rho")
    with pytest.raises(ValueError, match="'sigma' not available in pg"):
        load_group("pg").word("x sigma")
