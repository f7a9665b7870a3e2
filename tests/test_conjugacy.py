"""Closed-form conjugacy against brute conjugator sweeps."""

from __future__ import annotations

import ast
import random
import re
from pathlib import Path

import pytest

from wct import conjugacy
from wct.acceptance import P2_THETAS, SD_CASES
from wct.conjugacy import (
    CosetUnionClass,
    TranslationClass,
    brute_is_conjugate,
    conjugacy_class,
    conjugates_within,
    involution_loci,
    involution_locus,
    is_conjugate,
    kf,
)
from wct.groups import GROUP_IDS, Element, affine_on_part, all_groups, load_group
from wct.lattice import Coset, Sublattice, matvec, vadd, vsub
from wct.semidirect import SdElement, build, is_conjugate_sd


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
    # K of a reflection part need not be primitive: p2mg's K_{rho sigma} is <x^2>
    assert kf(load_group("p2mg"), "rhosigma") == Sublattice(2, [(2, 0)])


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
    brute = {g: conjugates_within(G, g, 6, 1) for g in elems}  # h ranges over ball(1)
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


@pytest.mark.parametrize("group", GROUP_IDS + tuple(c[0] for c in SD_CASES))
def test_class_depends_on_part_and_residue(group):
    """The shape of a class that conjugacy_class and the class check of
    maps.forced_consequences read off the hooks: a*f off A has the class of
    (a +- k)*f for each HNF row k of G.slack[f], and each element of a
    translation class has that class."""
    cases = {label: (p, theta) for label, p, theta in SD_CASES}
    G = build(cases[group][1], cases[group][0]) if group in cases else load_group(group)
    make, one = type(G.identity), G.identity[1]
    for g in G.ball(1):
        a, f = g
        cls = conjugacy_class(G, g)
        if f == one:
            assert isinstance(cls, TranslationClass)
            assert all(conjugacy_class(G, x) == cls for x in cls.elements), g
            continue
        for k in G.slack[f].rows:
            for moved in (vadd(a, k), vsub(a, k)):
                assert conjugacy_class(G, make(moved, f)) == cls, (g, k)


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


SD_GROUPS = tuple((p, theta) for _, p, theta in SD_CASES) + \
    tuple((2, theta) for _, theta in P2_THETAS)
BOTH_FAMILIES = dict(zip(GROUP_IDS, GROUP_IDS)) | dict(zip(
    [label for label, _, _ in SD_CASES] + [label for label, _ in P2_THETAS], SD_GROUPS))


def _group(key):
    return load_group(key) if isinstance(key, str) else build(key[1], key[0])


@pytest.mark.parametrize("group", BOTH_FAMILIES.values(), ids=BOTH_FAMILIES)
def test_square_affine_matches_mul(group):
    """The (h, M, t) that involution_locus reads off G.mul holds at five
    points of each part, three of them off the origin and the unit steps."""
    G = _group(group)
    make, n = type(G.identity), len(G.identity[0])
    for f in G.F:
        h, m, t = affine_on_part(G, lambda g: G.mul(g, g), f)
        for a in ((0, 0), (1, 0), (0, 1), (3, -2), (-4, 7)):
            g = make(tuple(a[i % 2] for i in range(n)), f)
            assert G.mul(g, g) == make(vadd(matvec(m, g[0]), t), h), (f, g)


@pytest.mark.parametrize("group", BOTH_FAMILIES.values(), ids=BOTH_FAMILIES)
def test_involution_loci_vs_scan(group):
    G = _group(group)
    one = G.identity[1]
    loci = involution_loci(G)
    assert one not in loci
    for g in G.ball(3):
        a, f = g
        if f == one:
            continue
        is_inv = G.mul(g, g) == G.identity
        locus = loci[f]
        assert is_inv == (locus is not None and locus.contains(a)), g


def test_involution_locus_rejects_unknown_part():
    with pytest.raises(ValueError, match="unknown transversal label"):
        involution_locus(load_group("p4"), "sigma")


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


def _reference_pieces(G, g):
    """Reference ((h, Coset), ...) of a non-translation's class, built Coset
    by Coset: one per distinct M a + s of G.conjugators[g.f, h] over
    G.slack[h], sorted by offset within part h, in G.F order."""
    a, f = g
    pieces = []
    for h in G.F:
        cosets = {Coset(vadd(matvec(m, a), s), G.slack[h]) for _, m, s in G.conjugators[f, h]}
        pieces += [(h, c) for c in sorted(cosets, key=lambda c: c.offset)]
    return tuple(pieces)


def _reference_contains(pieces, h):
    a, f = h
    return any(part == f and c.contains(a) for part, c in pieces)


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_class_contains_matches_is_conjugate_on_balls(gid):
    G = load_group(gid)
    outer = G.ball(2)
    for g in G.ball(1):
        cls = conjugacy_class(G, g)
        pieces = _reference_pieces(G, g) if g.f != "1" else None
        for h in outer:
            got = cls.contains(h)
            assert got == is_conjugate(G, g, h), (g, h)
            if pieces is not None:
                assert got == _reference_contains(pieces, h), (g, h)


@pytest.mark.parametrize("label,p,theta", SD_CASES, ids=[c[0] for c in SD_CASES])
def test_sd_class_contains_matches_coset_pieces(label, p, theta):
    """On Z^n x C_p is_conjugate is the descriptor itself, so the reference is
    the Coset-by-Coset membership of the pieces; translation classes keep
    their element sets and are skipped."""
    H = build(theta, p)
    outer = H.ball(2)
    for g in H.ball(1):
        if g.k == 0:
            continue
        cls = conjugacy_class(H, g)
        pieces = _reference_pieces(H, g)
        for h in outer:
            assert cls.contains(h) == _reference_contains(pieces, h), (g, h)


@pytest.mark.parametrize("group", ("p4mg", "p6m", "Z^4 x C_5"))
def test_class_json_matches_coset_pieces(group):
    G = build(SD_CASES[2][2], 5) if group.startswith("Z") else load_group(group)
    one = G.identity[1]
    for g in G.ball(1):
        if g[1] == one:
            continue
        cls = conjugacy_class(G, g)
        pieces = _reference_pieces(G, g)
        assert cls.pieces == pieces, g
        assert cls.to_json() == {
            "kind": "cosetUnion",
            "pieces": [{"f": f, **c.to_json()} for f, c in pieces]}, g


@pytest.mark.parametrize("group", ("p3", "cm", "p4mg", "p6m", "Z^2 x C_3"))
def test_conjugate_descriptors_are_equal_and_hash_equal(group):
    G = build(SD_CASES[0][2], 3) if group.startswith("Z") else load_group(group)
    conjugators = G.ball(1)
    for g in G.ball(1):
        cls = conjugacy_class(G, g)
        for c in conjugators:
            other = conjugacy_class(G, G.conj(g, c))
            assert other == cls and hash(other) == hash(cls), (g, c)


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


def test_malformed_elements_raise_value_error_in_both_families():
    """A plain ((x, y), f) tuple is an element, as conjugacy_class takes it;
    anything else raises ValueError naming the group, not AttributeError or
    TypeError, from check_element and the closed-form test alike."""
    G = load_group("p4")
    g = ((1, 0), "rho")
    for h, expected in ((((0, 1), "rho"), True), (((0, 0), "rho"), False)):
        assert is_conjugate(G, g, h) is conjugacy_class(G, g).contains(h) is expected, h
    H = build(SD_CASES[0][2], 3)
    for group, closed_form in ((G, is_conjugate), (H, is_conjugate_sd)):
        e, name = group.identity, re.escape(getattr(group, "gid", repr(group)))
        for bad in (None, 5, ((1, 2),)):
            with pytest.raises(ValueError, match=f"does not belong to {name}"):
                group.check_element(bad)
            for pair in ((bad, e), (e, bad)):
                with pytest.raises(ValueError, match=f"does not belong to {name}"):
                    closed_form(group, *pair)


def test_class_contains_rejects_what_is_conjugate_rejects():
    """A float coordinate is not judged through its int value, and a part of
    another group is no miss: contains raises, as is_conjugate does."""
    p2 = load_group("p2")
    rho, x = Element((0, 0), "rho"), Element((1, 0), "1")
    cls, translations = conjugacy_class(p2, rho), conjugacy_class(p2, x)
    assert cls.contains(Element((2, 0), "rho")) and not cls.contains(Element((1, 0), "rho"))
    assert translations.contains(Element((-1, 0), "1"))
    for bad in (Element((2.0, 0), "rho"), Element((0, 0), "sigma"), Element((-1.0, 0), "1")):
        for check in (lambda h: is_conjugate(p2, rho, h), cls.contains,
                      lambda h: is_conjugate(p2, x, h), translations.contains):
            with pytest.raises(ValueError, match="does not belong to p2"):
                check(bad)
    H = build(SD_CASES[0][2], 3)
    for g in (H.element((1, 0), 0), H.element((1, 0), 1)):
        for bad in (SdElement((1.0, 0), g.k), SdElement((1, 0), 3), SdElement((1, 0, 0), g.k)):
            with pytest.raises(ValueError, match="does not belong"):
                conjugacy_class(H, g).contains(bad)


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
    """The sweep is the literal {g^c : c in ball(radius)}, and with outer set
    that set cut to ball(outer)."""
    G = load_group(gid)
    emptied = 0
    for radius in (0, 1, 2, 5):
        ball = G.ball(radius)
        for g in _sweep_elements(G):
            literal = {G.conj(g, c) for c in ball}
            assert conjugates_within(G, g, radius) == literal, (g, radius)
            for outer in (0, 1, 2, 100):
                kept = {h for h in literal if max(map(abs, h.a)) <= outer}
                got = conjugates_within(G, g, radius, outer)
                assert got == kept, (g, radius, outer)
                emptied += not got
            assert got == literal, (g, radius)  # outer = 100 keeps the whole sweep
    assert emptied  # the far corner (7, -7) at radius 0 lies outside ball(2): the cut acts
    # radius 8, the conjugator radius of criterion 2 and the brute-oracle
    # benchmark, at the origin and the far corner of every part
    ball = G.ball(8)
    for f in G.F:
        for g in (G.element(0, 0, f), G.element(7, -7, f)):
            literal = {G.conj(g, c) for c in ball}
            got = conjugates_within(G, g, 8)
            assert got == literal, (g, 8)
            kept = {h for h in literal if max(map(abs, h.a)) <= 2}
            got_kept = conjugates_within(G, g, 8, 2)
            assert got_kept == kept, (g, 8, 2)
            # a plain tuple would pass ==, but callers read h.a and h.f
            assert all(type(h) is Element for h in got | got_kept)


def test_conjugates_within_rejects_negative_outer():
    G = load_group("p4")
    with pytest.raises(ValueError, match="radius must be non-negative"):
        conjugates_within(G, G.element(1, 0, "rho"), 2, -1)


def _literal_brute(G, g, h, radius):
    """The literal sweep that brute_is_conjugate's Z^n x C_p branch hoists."""
    return any(G.conj(g, c) == h for c in G.ball(radius))


@pytest.mark.parametrize("p,theta", SD_GROUPS)
def test_sd_brute_is_conjugate_matches_literal_sweep(p, theta):
    """Every g of ball(1) against every h of ball(1), conjugates of g by
    ball(2) and those conjugates moved one slice on, at radii 0, 1 and 2:
    these cover the radii of the benchmark's sweeps, 1 on Z^3 x C_3 and 2
    on Z^4 x C_5.  On those two groups (81 and 405 elements in ball(1)) g
    and h are seeded samples of ball(1), since the literal sweep of one
    pair costs up to |ball(2)| = 375 and 3125 conjugations."""
    H = build(theta, p)
    ball = H.ball(1)
    rnd = random.Random(f"sd-brute:{p}:{theta}")
    small = len(ball) <= 27
    for g in ball if small else rnd.sample(ball, 6 if H.n == 3 else 2):
        hs = ball if small else rnd.sample(ball, 27 if H.n == 3 else 12)
        conj = [H.conj(g, c) for c in rnd.sample(H.ball(2), 6)]
        # the same translation parts in slice h.k + 1 != g.k: conjugation
        # keeps the slice, so no conjugator reaches them
        moved = [H.element(h.v, h.k + 1) for h in conj]
        assert all(brute_is_conjugate(H, g, h, 2) for h in conj), g
        assert not any(brute_is_conjugate(H, g, h, 2) for h in moved), g
        hs = hs + conj + moved
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


_CLOSED_FORM_NAMES = {"conjugation_hooks", "point_conj", "conjugators", "slack", "slack_hnf",
                      "kf", "_plan",
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
