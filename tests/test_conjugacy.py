"""Closed-form conjugacy against brute conjugator sweeps."""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest

from wct import conjugacy
from wct.acceptance import P2_THETAS, SD_CASES
from wct.conjugacy import (
    CosetUnionClass,
    TranslationClass,
    antifixed_line,
    brute_is_conjugate,
    conjugacy_class,
    conjugates_within,
    fixed_line,
    involution_loci,
    is_conjugate,
    kf,
    square_affine,
    squares_image,
)
from wct.groups import GROUP_IDS, Element, all_groups, load_group
from wct.lattice import Coset, Sublattice, matvec
from wct.semidirect import SdElement, build


def test_kf_frozen_values():
    p6 = load_group("p6")
    assert kf(p6, "1") == Sublattice.zero(2)
    assert kf(p6, "rho2") == Sublattice(2, [(-2, 1), (1, 1)])
    assert kf(p6, "rho2").index() == 3
    assert kf(p6, "rho3") == Sublattice(2, [(2, 0), (0, 2)])
    meet = kf(p6, "rho2").intersect(kf(p6, "rho3"))
    assert meet == Sublattice(2, [(2, 2), (2, -4)])
    assert meet.index() == 12

    # rotations of full point symmetry have K of finite index; pure mirrors do not
    assert kf(load_group("p2"), "rho").index() == 4
    assert kf(load_group("pm"), "sigma").rows == ((0, 2),)
    assert kf(load_group("cm"), "sigma").rows == ((1, -1),)


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_kf_invariance(gid):
    G = load_group(gid)
    for f in G.F:
        k = kf(G, f)
        # K is shared with the inverse part and stable under the part itself
        assert kf(G, G.point_inv[f][0]) == k
        assert Sublattice(2, [matvec(G.act[f], r) for r in k.rows]) == k
        # offsets produced by conjugating with translations stay inside K
        g = G.element(3, -2, f)
        for t in ((1, 0), (0, 1), (2, 3)):
            moved = G.conj(g, G.element(*t))
            assert moved.f == f
            assert k.contains((moved.a[0] - g.a[0], moved.a[1] - g.a[1]))


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_is_conjugate_matches_brute(gid):
    G = load_group(gid)
    elems = G.ball(1)
    brute = {g: conjugates_within(G, g, 6) for g in elems}
    for g in elems:
        for h in elems:
            assert is_conjugate(G, g, h) == (h in brute[g]), (g, h)


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_class_descriptor_consistency(gid):
    G = load_group(gid)
    rnd = random.Random(17)
    elems = G.ball(2)
    for g in rnd.sample(elems, 20):
        desc = conjugacy_class(G, g)
        assert desc.contains(g)
        for c in elems:
            assert desc.contains(G.conj(g, c))
        for h in rnd.sample(elems, min(30, len(elems))):
            assert desc.contains(h) == is_conjugate(G, g, h)


def test_classes_partition():
    for gid in ("p2", "p4", "cm", "pg", "p2gg", "p4mg"):
        G = load_group(gid)
        elems = G.ball(1)
        for g in elems:
            for h in elems:
                same = conjugacy_class(G, g) == conjugacy_class(G, h)
                assert same == is_conjugate(G, g, h), (gid, g, h)


def test_translation_classes_are_orbits():
    for G in all_groups():
        a = (2, -1)
        cls = conjugacy_class(G, G.element(*a))
        assert isinstance(cls, TranslationClass)
        assert cls.elements == frozenset(
            G.element(*matvec(G.act[f], a)) for f in G.F
        )
        assert len(G.F) % cls.size() == 0


def test_known_conjugacy_decisions():
    c2mm = load_group("c2mm")
    assert not is_conjugate(c2mm, c2mm.element(1, 1, "rho"), c2mm.element(0, 2, "rho"))
    assert is_conjugate(c2mm, c2mm.element(0, 0, "rho"), c2mm.element(2, 0, "rho"))

    # translations conjugate only within the point orbit
    p4 = load_group("p4")
    assert is_conjugate(p4, p4.element(1, 0), p4.element(0, -1))
    assert not is_conjugate(p4, p4.element(1, 0), p4.element(1, 1))
    assert not is_conjugate(p4, p4.element(1, 0), p4.element(1, 0, "rho"))

    # a rotation never meets a reflection part
    p4mm = load_group("p4mm")
    assert not is_conjugate(p4mm, p4mm.element(0, 0, "rho"), p4mm.element(0, 0, "sigma"))


def test_class_json_shape():
    p4 = load_group("p4")
    data = conjugacy_class(p4, p4.element(0, 0, "rho")).to_json()
    assert data["kind"] == "cosetUnion"
    assert all(set(p) == {"f", "offset", "lattice"} for p in data["pieces"])
    tdata = conjugacy_class(p4, p4.element(1, 0)).to_json()
    assert tdata["kind"] == "finiteSet"
    assert len(tdata["elements"]) == 4


def test_mirror_lines():
    p4mm = load_group("p4mm")
    assert fixed_line(p4mm, "sigma") == Sublattice(2, [(1, 0)])
    assert antifixed_line(p4mm, "sigma") == Sublattice(2, [(0, 1)])
    assert fixed_line(p4mm, "rhosigma") == Sublattice(2, [(1, -1)])
    assert antifixed_line(p4mm, "rhosigma") == Sublattice(2, [(1, 1)])

    cm = load_group("cm")
    assert fixed_line(cm, "sigma") == Sublattice(2, [(1, 1)])
    assert antifixed_line(cm, "sigma") == Sublattice(2, [(1, -1)])

    # the axis kernel is primitive even when the slack lattice K is not:
    # p2mg has L_perp(rho sigma) = <x> while K_{rho sigma} contains only x^2
    p2mg = load_group("p2mg")
    assert antifixed_line(p2mg, "rhosigma") == Sublattice(2, [(1, 0)])
    assert kf(p2mg, "rhosigma") == Sublattice(2, [(2, 0)])

    with pytest.raises(ValueError):
        fixed_line(p4mm, "rho")
    with pytest.raises(ValueError):
        antifixed_line(load_group("p2"), "rho")


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_square_affine_matches_mul(gid):
    G = load_group(gid)
    for f in G.F:
        m, c, h = square_affine(G, f)
        for a in ((0, 0), (1, 0), (0, 1), (3, -2), (-4, 7)):
            g = G.element(*a, f)
            assert G.mul(g, g) == G.element(*[x + y for x, y in zip(matvec(m, a), c)], h)


def test_squares_image_frozen():
    pg = load_group("pg")
    h, img = squares_image(pg, "gamma")
    assert h == "1" and img == Coset((1, 0), Sublattice(2, [(2, 0)]))

    p2gg = load_group("p2gg")
    h2, img2 = squares_image(p2gg, "gamma")
    assert h2 == "1" and img2 == Coset((1, 0), Sublattice(2, [(2, 0)]))

    p4mg = load_group("p4mg")
    h3, img3 = squares_image(p4mg, "gamma")
    assert h3 == "1" and img3 == Coset((1, 0), Sublattice(2, [(2, 0)]))
    h4, img4 = squares_image(p4mg, "rhogamma")
    assert h4 == "1" and img4 == Coset((0, 0), Sublattice(2, [(1, -1)]))


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_involution_loci_vs_scan(gid):
    G = load_group(gid)
    loci = involution_loci(G)
    assert "1" not in loci
    for g in G.ball(3):
        if g.f == "1":
            continue
        is_inv = G.mul(g, g) == G.identity
        locus = loci[g.f]
        assert is_inv == (locus is not None and locus.contains(g.a)), g


def test_p4mg_involution_loci_frozen():
    G = load_group("p4mg")
    loci = {f: c for f, c in involution_loci(G).items() if c is not None}
    assert set(loci) == {"rho2", "rhogamma", "rho3gamma"}
    assert loci["rho2"] == Coset((0, 0), Sublattice.full(2))
    assert loci["rhogamma"] == Coset((0, 0), Sublattice(2, [(1, 1)]))
    assert loci["rho3gamma"] == Coset((-1, 0), Sublattice(2, [(1, -1)]))


def test_brute_is_conjugate_small():
    # p3 keeps three separate classes of threefold parts: the rotation centres
    # 0, (1,0), (2,0) are inequivalent even though they look alike locally
    p3 = load_group("p3")
    g = p3.element(0, 0, "rho")
    assert brute_is_conjugate(p3, g, p3.element(1, 1, "rho"), 3)
    assert not brute_is_conjugate(p3, g, p3.element(1, 0, "rho"), 4)
    assert not is_conjugate(p3, g, p3.element(1, 0, "rho"))
    assert not brute_is_conjugate(p3, g, p3.element(0, 0, "rho2"), 3)


def test_coset_union_piece_counts():
    # the p4mg class of a generic glide splits across several parts
    G = load_group("p4mg")
    cls = conjugacy_class(G, G.element(0, 0, "gamma"))
    assert isinstance(cls, CosetUnionClass)
    parts = {f for f, _ in cls.pieces}
    assert parts == {"gamma", "rho2gamma"}
    # rotations by a quarter turn fuse with their inverse part only via mirrors
    cls_r = conjugacy_class(G, G.element(0, 0, "rho"))
    assert {f for f, _ in cls_r.pieces} == {"rho", "rho3"}


def _kf_shape(lat):
    """'rank0', 'rank1-col0', 'rank1-col1' or 'rank2' for a K lattice."""
    if lat.rank == 1:
        return "rank1-col0" if lat.rows[0][0] else "rank1-col1"
    return f"rank{lat.rank}"


def _seeded_pairs(G, n=400, seed=11):
    """Pairs (g, h) with coordinates in [-20, 20]: random ones, and conjugates
    of g by small conjugators so that every group yields True answers."""
    rnd = random.Random(f"{seed}:{G.gid}")

    def rand_elem(f=None):
        return G.element(rnd.randint(-20, 20), rnd.randint(-20, 20),
                         f if f is not None else rnd.choice(G.F))

    pairs = []
    while len(pairs) < n:
        g = rand_elem()
        pairs.append((g, rand_elem()))
        pairs.append((g, rand_elem(g.f)))
        h = G.conj(g, G.element(rnd.randint(-3, 3), rnd.randint(-3, 3),
                                rnd.choice(G.F)))
        if max(abs(h.a[0]), abs(h.a[1])) <= 20:
            pairs.append((g, h))
    return pairs


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_is_conjugate_matches_class_descriptor(gid):
    G = load_group(gid)
    answers = set()
    for g, h in _seeded_pairs(G):
        got = is_conjugate(G, g, h)
        assert got == conjugacy_class(G, g).contains(h), (g, h)
        answers.add(got)
    assert answers == {True, False}


def test_seeded_pairs_cover_every_kf_shape():
    shapes = set()
    for G in all_groups():
        shapes.update(_kf_shape(kf(G, h.f)) for _, h in _seeded_pairs(G))
    assert shapes == {"rank0", "rank1-col0", "rank1-col1", "rank2"}


def test_is_conjugate_rejects_unknown_part():
    G = load_group("p4")
    stranger = Element((0, 0), "sigma")
    for g, h in ((stranger, G.identity), (G.identity, stranger),
                 (Element((1, 2), "zeta"), Element((1, 2), "zeta"))):
        with pytest.raises(ValueError, match="does not belong to p4"):
            is_conjugate(G, g, h)


def test_is_conjugate_rejects_non_int_coordinates():
    # a float or bool coordinate must not be judged through its int value
    G = load_group("p2")
    ok = G.element(1, 0)
    for bad in (Element((1.5, 0), "1"), Element((1, 0.0), "rho"),
                Element((True, 0), "1"), Element((0, False), "rho")):
        for g, h in ((bad, bad), (bad, ok), (ok, bad)):
            with pytest.raises(ValueError, match="does not belong to p2"):
                is_conjugate(G, g, h)


def _sweep_elements(G):
    """Per part: the origin, the far corner (7, -7) and three seeded elements
    with coordinates in [-7, 7]."""
    rnd = random.Random(f"5:{G.gid}")
    out = []
    for f in G.F:
        out += [G.element(0, 0, f), G.element(7, -7, f)]
        out += [G.element(rnd.randint(-7, 7), rnd.randint(-7, 7), f) for _ in range(3)]
    return out


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_conjugates_within_matches_literal_sweep(gid):
    G = load_group(gid)
    for radius in (0, 1, 2, 5):
        ball = G.ball(radius)
        for g in _sweep_elements(G):
            assert conjugates_within(G, g, radius) == {G.conj(g, c) for c in ball}, (g, radius)


def _literal_brute(G, g, h, radius):
    """The literal sweep that brute_is_conjugate's Z^n x C_p branch hoists."""
    return any(G.conj(g, c) == h for c in G.ball(radius))


SD_GROUPS = tuple((p, theta) for _, p, theta in SD_CASES) + \
    tuple((2, theta) for _, theta in P2_THETAS)


@pytest.mark.parametrize("p,theta", SD_GROUPS)
def test_sd_brute_is_conjugate_matches_literal_sweep(p, theta):
    """Every g of ball(1) against every h of ball(1) plus conjugates of g,
    at radii 0, 1 and 2.  On Z^3 x C_3 and Z^4 x C_5 (81 and 405 elements
    in ball(1)) g and h are seeded samples of ball(1), since the literal
    sweep of one pair costs up to |ball(2)| = 375 and 3125 conjugations."""
    H = build(theta, p)
    ball = H.ball(1)
    rnd = random.Random(f"sd-brute:{p}:{theta}")
    small = len(ball) <= 27
    for g in ball if small else rnd.sample(ball, 6 if H.n == 3 else 2):
        hs = ball if small else rnd.sample(ball, 27 if H.n == 3 else 12)
        hs = hs + [H.conj(g, c) for c in rnd.sample(H.ball(2), 6)]
        for radius in (0, 1, 2):
            for h in hs:
                assert brute_is_conjugate(H, g, h, radius) == \
                    _literal_brute(H, g, h, radius), (g, h, radius)


def test_brute_oracles_reject_negative_radius():
    G = load_group("p4")
    g = G.element(1, 0, "rho")
    with pytest.raises(ValueError, match="radius must be non-negative"):
        conjugates_within(G, g, -1)
    with pytest.raises(ValueError, match="radius must be non-negative"):
        brute_is_conjugate(G, g, g, -1)
    H = build([[0, -1], [1, -1]], 3)
    with pytest.raises(ValueError, match="radius must be non-negative"):
        brute_is_conjugate(H, H.identity, H.identity, -1)


def test_conjugates_within_rejects_unknown_part():
    G = load_group("p4")
    with pytest.raises(ValueError, match="does not belong to p4"):
        conjugates_within(G, Element((0, 0), "sigma"), 2)


def test_brute_is_conjugate_rejects_foreign_elements():
    G = load_group("p4")
    with pytest.raises(ValueError, match="does not belong to p4"):
        brute_is_conjugate(G, Element((0, 0), "sigma"), G.identity, 1)
    with pytest.raises(ValueError, match="does not belong to p4"):
        brute_is_conjugate(G, G.identity, Element((0, 0), "sigma"), 1)
    H = build([[0, -1], [1, -1]], 3)
    for bad in (SdElement((0, 0, 0), 1), SdElement((0, 0), 3)):
        with pytest.raises(ValueError, match="does not belong"):
            brute_is_conjugate(H, bad, H.identity, 1)
        with pytest.raises(ValueError, match="does not belong"):
            brute_is_conjugate(H, H.identity, bad, 1)


def test_ball_rejects_negative_radius():
    for G in (load_group("p4"), build([[0, -1], [1, -1]], 3)):
        with pytest.raises(ValueError, match="radius must be non-negative"):
            G.ball(-1)


_CLOSED_FORM_NAMES = {"point_conj", "conjugators", "slack", "kf", "_plan",
                      "conjugacy_class", "is_conjugate",
                      # the Z^n x C_p closed forms
                      "comm_lattice", "class_sd", "is_conjugate_sd", "_offsets",
                      "_conjugators", "_slack"}


def _names_in(fn: ast.FunctionDef) -> set:
    names = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return names


@pytest.mark.parametrize("oracle", ("conjugates_within", "brute_is_conjugate"))
def test_oracles_read_no_closed_form(oracle):
    """The brute sweeps must not share a bug with the closed forms they check."""
    tree = ast.parse(Path(conjugacy.__file__).read_text())
    (fn,) = [node for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name == oracle]
    assert not _names_in(fn) & _CLOSED_FORM_NAMES
