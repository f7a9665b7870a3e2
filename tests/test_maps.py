"""Weak Cayley table maps: algebra, catalog, relation suites, certificates."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import wct
from wct.acceptance import P2_THETAS, SD_CASES, TRIVIAL_GROUPS
from wct.conjugacy import conjugacy_class, is_conjugate
from wct.groups import GROUP_IDS, Element, load_group, parse_element
from wct.maps import (
    CosetwiseAffineMap,
    NONTRIVIAL_CATALOG,
    W0_GENERATORS,
    antihomomorphism_failure,
    automorphism,
    catalog,
    coset_conjugation,
    generator,
    homomorphism_failure,
    identity_map,
    inner_map,
    iota,
    is_wct_on_ball,
    map_from_function,
    map_order,
    nontriviality_certificate,
    normality_check,
    parse_map_expr,
    random_map,
    wct_certificate_symbolic,
    wct_invariants,
    wgroup_relations,
)
from wct.semidirect import SdMap, build, identity_sd_map, p2_candidate, phi_for_odd_p

_SAMPLES = ((0, 0, None), (1, 0, None), (-2, 3, None))


def _sample_elements(G, n=12, seed=7):
    rnd = random.Random(seed)
    out = [G.identity]
    for _ in range(n):
        out.append(G.element(rnd.randint(-4, 4), rnd.randint(-4, 4),
                             rnd.choice(G.F)))
    return out


# -- the affine map algebra ---------------------------------------------------


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_compose_matches_pointwise_application(gid):
    G = load_group(gid)
    rnd = random.Random(11)
    m1, m2 = random_map(G, rnd), random_map(G, rnd)
    comp = m1.compose(m2)
    for g in _sample_elements(G):
        assert comp.apply(g) == m1.apply(m2.apply(g))


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_invert_is_two_sided(gid):
    G = load_group(gid)
    m = random_map(G, random.Random(13))
    mi = m.invert()
    assert m.compose(mi).is_identity()
    assert mi.compose(m).is_identity()
    for g in _sample_elements(G):
        assert mi.apply(m.apply(g)) == g


def test_conjugate_by_definition():
    G = load_group("p4")
    m = generator(G, "tau_x")
    n = generator(G, "I_rho")
    assert m.conjugate_by(n) == n.invert().compose(m).compose(n)
    # conjugating by an inner map keeps the patch shape but moves the shift
    assert m.conjugate_by(n) != m


def test_map_equality_and_hash():
    G = load_group("p3")
    a = coset_conjugation(G, ("rho", "rho2"), G.element(0, 0, "rho"))
    b = generator(G, "tau")
    assert a == b and hash(a) == hash(b)
    assert a != generator(G, "id")
    assert len({a, b, generator(G, "id")}) == 2


def test_constructor_rejects_bad_rules():
    G = load_group("p2")
    eye = ((1, 0), (0, 1))
    with pytest.raises(ValueError, match="cover"):
        CosetwiseAffineMap(G, {"1": ("1", eye, (0, 0))})
    rule = {"1": ("1", eye, (0, 0)), "rho": ("1", eye, (0, 0))}
    with pytest.raises(ValueError, match="permute"):
        CosetwiseAffineMap(G, rule)
    rule = {"1": ("1", ((2, 0), (0, 1)), (0, 0)), "rho": ("rho", eye, (0, 0))}
    with pytest.raises(ValueError, match="invertible"):
        CosetwiseAffineMap(G, rule)


def test_constructor_rejects_non_integer_data():
    G = load_group("p2")
    eye = ((1, 0), (0, 1))

    def rule(m=eye, t=(0, 0), target="rho"):
        return {"1": ("1", m, t), "rho": (target, eye, (0, 0))}

    # a float matrix with a half shift used to build a map that
    # is_wct_on_ball then judged
    with pytest.raises(ValueError, match="int entries"):
        CosetwiseAffineMap(G, rule(((1.0, 0), (0, 1)), (0.5, 0)))
    for m in (((1.0, 0), (0, 1)), ((True, 0), (0, 1)), ((1, "0"), (0, 1)), ((1, 0),),
              ((1, 0, 0), (0, 1, 0)), ((1, 0), (0,)), (1, 0), ((1, 0), 5), "ab"):
        with pytest.raises(ValueError, match="must be 2x2 with int entries"):
            CosetwiseAffineMap(G, rule(m))
    for t in ((0.5, 0), (1.0, 0), (True, 0), (0, None), (0,), (0, 0, 0), 0, "00"):
        with pytest.raises(ValueError, match="pair of ints"):
            CosetwiseAffineMap(G, rule(t=t))
    for target in ("sigma", 1, None):
        with pytest.raises(ValueError, match="is not a part of p2"):
            CosetwiseAffineMap(G, rule(target=target))
    # lists are accepted and stored as tuples
    m = CosetwiseAffineMap(G, {f: (f, [[1, 0], [0, 1]], [0, 0]) for f in G.F})
    assert m == identity_map(G) and hash(m) == hash(identity_map(G))
    assert m.rule == identity_map(G).rule


@pytest.mark.parametrize("check", (
    lambda G, m: is_wct_on_ball(G, m, 1),
    lambda G, m: wct_invariants(G, m, 1),
    lambda G, m: nontriviality_certificate(G, m, 1),
    wct_certificate_symbolic,
), ids=("is_wct_on_ball", "wct_invariants", "nontriviality_certificate",
        "wct_certificate_symbolic"))
def test_verdicts_reject_a_map_of_another_group(check):
    pm, cm = load_group("pm"), load_group("cm")
    check(pm, catalog(pm)["iota"])
    with pytest.raises(ValueError, match="does not act on pm"):
        check(pm, catalog(cm)["iota"])


def test_to_json_shape():
    G = load_group("pg")
    j = iota(G).to_json()
    assert j["group"] == "pg"
    assert set(j["rule"]) == set(G.F)
    entry = j["rule"]["gamma"]
    assert set(entry) == {"to", "m", "t"}


# -- construction from functions ----------------------------------------------


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_inner_maps_are_homomorphisms(gid):
    G = load_group(gid)
    g = G.element(1, -1, G.F[-1])
    m = inner_map(G, g)
    assert homomorphism_failure(G, m) is None
    for h in _sample_elements(G):
        assert m.apply(h) == G.conj(h, g)


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_iota_is_an_antihomomorphism(gid):
    G = load_group(gid)
    m = iota(G)
    assert antihomomorphism_failure(G, m) is None
    assert m.compose(m).is_identity()
    for g in _sample_elements(G):
        assert m.apply(g) == G.inv(g)
    if gid != "p1":
        # any wallpaper group with a point part is noncommutative
        assert homomorphism_failure(G, m) is not None


def test_map_from_function_rejects_non_affine():
    G = load_group("p2")

    def warped(h):
        return Element((h.a[0] + h.a[1] * h.a[1], h.a[1]), h.f)

    with pytest.raises(ValueError, match="affine"):
        map_from_function(G, warped)


def test_map_from_function_rejects_coset_mixing():
    G = load_group("p2")

    def mixing(h):
        if h.f == "1" and sum(h.a) % 2:
            return Element(h.a, "rho")
        return h

    with pytest.raises(ValueError, match="coset"):
        map_from_function(G, mixing)


def test_automorphism_rejects_non_homomorphic_images():
    G = load_group("p2mm")
    images = {k: parse_element(G, v) for k, v in
              (("x", "x"), ("y", "y"), ("r", "rho"), ("s", "x sigma"))}
    # sigma |-> x sigma squares to x^2, not e
    with pytest.raises(ValueError, match="homomorphism"):
        automorphism(G, images)
    with pytest.raises(ValueError, match="translation"):
        automorphism(G, {**images, "x": parse_element(G, "rho")})


def test_coset_conjugation_rejects_unknown_parts():
    G = load_group("p4")
    with pytest.raises(ValueError, match="unknown parts"):
        coset_conjugation(G, ("rho7",), G.element(1, 0))


# -- the named catalog ---------------------------------------------------------


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_catalog_entries_are_valid(gid):
    G = load_group(gid)
    cat = catalog(G)
    assert cat["id"].is_identity()
    patches = set(NONTRIVIAL_CATALOG.get(gid, ()))
    patches.update({"p4": ("conj_rho_on_rho2",), "p2mm": ("tau_rs",)}.get(gid, ()))
    for name, m in cat.items():
        # trivial entries are homomorphisms or the inversion antihomomorphism;
        # the tau/mu patches are exactly the ones refusing both
        hom = homomorphism_failure(G, m) is None
        anti = antihomomorphism_failure(G, m) is None
        if name in patches:
            assert not hom and not anti
        else:
            assert hom or anti


def test_generator_unknown_name():
    G = load_group("p6")
    with pytest.raises(ValueError, match="unknown map"):
        generator(G, "tau_xy")


def test_automorphism_images_stay_in_catalog_groups():
    # every psi-style catalog entry fixes the translation subgroup setwise
    for gid in GROUP_IDS:
        G = load_group(gid)
        for name, m in catalog(G).items():
            assert m.rule["1"][0] == "1", (gid, name)


def test_frozen_catalog_values():
    p3 = load_group("p3")
    tau = generator(p3, "tau")
    assert tau.apply(parse_element(p3, "x rho")) == parse_element(p3, "x^-1 y rho")
    assert tau.apply(p3.element(2, -1)) == p3.element(2, -1)
    assert map_order(tau) == 3

    p4 = load_group("p4")
    assert generator(p4, "tau_x").apply(parse_element(p4, "rho2")) == \
        parse_element(p4, "x^-2 rho2")
    assert generator(p4, "mu_rho").apply(parse_element(p4, "x rho")) == \
        parse_element(p4, "y rho")
    assert generator(p4, "mu_rho").apply(parse_element(p4, "x rho2")) == \
        parse_element(p4, "x rho2")

    p6 = load_group("p6")
    assert generator(p6, "tau_x2").apply(parse_element(p6, "rho2")) == \
        parse_element(p6, "x^-2 y^-2 rho2")
    assert generator(p6, "tau_x2").apply(parse_element(p6, "x rho3")) == \
        parse_element(p6, "x rho3")
    assert generator(p6, "mu_rho2").apply(parse_element(p6, "x rho3")) == \
        parse_element(p6, "x^-1 y rho3")

    p2mm = load_group("p2mm")
    assert generator(p2mm, "tau").apply(parse_element(p2mm, "y rho")) == \
        parse_element(p2mm, "y^-1 rho")
    assert generator(p2mm, "tau").apply(parse_element(p2mm, "x y rhosigma")) == \
        parse_element(p2mm, "x y rhosigma")


# -- weak Cayley table checks ---------------------------------------------------


def _nontrivial_cases():
    return [(gid, name) for gid, names in NONTRIVIAL_CATALOG.items()
            for name in names]


@pytest.mark.parametrize("gid,name", _nontrivial_cases())
def test_nontrivial_catalog_passes_ball_check(gid, name):
    G = load_group(gid)
    m = generator(G, name)
    assert is_wct_on_ball(G, m, 3)["ok"]
    cert = nontriviality_certificate(G, m, 2)
    assert cert is not None
    g1, g2 = cert["hom_witness"]
    assert m.apply(G.mul(g1, g2)) != G.mul(m.apply(g1), m.apply(g2))
    h1, h2 = cert["antihom_witness"]
    assert m.apply(G.mul(h1, h2)) != G.mul(m.apply(h2), m.apply(h1))


@pytest.mark.parametrize("gid,name", _nontrivial_cases())
def test_nontrivial_catalog_symbolic_proof(gid, name):
    G = load_group(gid)
    assert wct_certificate_symbolic(G, generator(G, name))["proven"]


@pytest.mark.parametrize("gid,name", _nontrivial_cases())
def test_nontrivial_catalog_invariants(gid, name):
    G = load_group(gid)
    assert wct_invariants(G, generator(G, name))["ok"]


def test_trivial_maps_pass_ball_check():
    G = load_group("p4mg")
    for name in ("id", "iota", "I_rho", "psi_1"):
        assert is_wct_on_ball(G, generator(G, name), 2)["ok"]
        # homomorphisms and antihomomorphisms carry no nontriviality witness
        assert nontriviality_certificate(G, generator(G, name), 2) is None


def test_quarter_turn_patch_on_half_turn_coset_fails():
    """Conjugating A rho^2 by rho is not a weak Cayley table map."""
    G = load_group("p4")
    m = generator(G, "conj_rho_on_rho2")
    res = is_wct_on_ball(G, m, 2)
    assert not res["ok"]
    # frozen witness chain: with g1 = x and g2 = x rho^2 the two sides land
    # in different classes mod K_rho2 = 2Z^2
    g1, g2 = G.element(1, 0), G.element(1, 0, "rho2")
    lhs = m.apply(G.mul(g1, g2))
    rhs = G.mul(m.apply(g1), m.apply(g2))
    assert lhs == parse_element(G, "y^2 rho2")
    assert rhs == parse_element(G, "x y rho2")
    assert not is_conjugate(G, lhs, rhs)
    # it still satisfies all the one-variable consequences: those are
    # necessary, not sufficient
    assert wct_invariants(G, m)["ok"]


def test_p6_patch_families_do_not_swap():
    # the even-coset patch accepts x^2, y^2, rho^3 and the A rho^3 patch
    # accepts xy, xy^-2, rho^2; each shift on the other family fails already
    # on a radius-2 ball
    G = load_group("p6")
    even, odd = ("1", "rho2", "rho4"), ("1", "rho3")
    for parts, u in (
        (even, G.element(1, 1)),
        (even, G.element(0, 0, "rho2")),
        (odd, G.element(2, 0)),
        (odd, G.element(0, 0, "rho3")),
    ):
        assert not is_wct_on_ball(G, coset_conjugation(G, parts, u), 2)["ok"]


def test_wct_invariants_flag_violations():
    G = load_group("p2")
    shift = {f: (f, ((1, 0), (0, 1)), (1, 0) if f == "1" else (0, 0))
             for f in G.F}
    m = CosetwiseAffineMap(G, shift)
    inv = wct_invariants(G, m)
    assert not inv["fixes_identity"]
    assert not inv["ok"]
    swap = {"1": ("rho", ((1, 0), (0, 1)), (0, 0)),
            "rho": ("1", ((1, 0), (0, 1)), (0, 0))}
    inv = wct_invariants(G, CosetwiseAffineMap(G, swap))
    assert not inv["preserves_translations"]
    assert not inv["preserves_classes"]


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_preserves_translations_reads_the_identity_part(gid):
    # the derived test "m keeps the identity's part" is the rule of coset 1
    G = load_group(gid)
    rnd = random.Random(f"translations:{gid}")
    candidates = list(catalog(G).values()) + [random_map(G, rnd) for _ in range(12)]
    seen = set()
    for m in candidates:
        keeps = m.rule["1"][0] == "1"
        assert wct_invariants(G, m, 0)["preserves_translations"] == keeps, m
        seen.add(keeps)
    assert seen == ({True} if len(G.F) == 1 else {True, False})  # p1 has one coset


# -- map expressions -------------------------------------------------------------


def test_parse_map_expr_roundtrip():
    G = load_group("p4")
    assert parse_map_expr(G, "tau_x") == generator(G, "tau_x")
    assert parse_map_expr(G, "inv(mu_rho)") == generator(G, "mu_rho").invert()
    lhs = parse_map_expr(G, "tau_x * inv(tau_y) * I_rho")
    rhs = generator(G, "tau_x").compose(
        generator(G, "tau_y").invert()).compose(generator(G, "I_rho"))
    assert lhs == rhs
    assert parse_map_expr(G, "inner(x^-1 y rho)") == \
        inner_map(G, parse_element(G, "x^-1 y rho"))
    assert parse_map_expr(G, "inv(inv(tau_x))") == generator(G, "tau_x")


def test_parse_map_expr_errors():
    G = load_group("p4")
    for bad in ("", "tau_x *", "nosuchmap", "inv tau_x", "inv(tau_x",
                "tau_x)", "inner(zz)"):
        with pytest.raises(ValueError):
            parse_map_expr(G, bad)


# -- relation suites --------------------------------------------------------------


def test_relation_suite_p3():
    rep = wgroup_relations(load_group("p3"))
    assert rep["ok"]
    assert len(rep["relations"]) == 14
    resolved = [r for r in rep["relations"] if "resolved" in r]
    assert [r["relation"] for r in resolved] == ["psi_x^I_rho = I_y^-1"]
    assert resolved[0]["resolved"] == "inv(psi_y)"
    assert resolved[0]["resolved_holds"]
    assert rep["orders"] == {"tau": 3, "psi_x": None, "psi_y": None,
                             "I_rho": 3, "iota": 2}


def test_relation_suite_p4():
    rep = wgroup_relations(load_group("p4"))
    assert rep["ok"]
    assert len(rep["relations"]) == 64
    resolved = [r for r in rep["relations"] if "resolved" in r]
    assert [r["relation"] for r in resolved] == \
        ["tau_rho2^psi_y = tau_rho2 tau_x tau_y^-1"]
    assert resolved[0]["resolved"] == "tau_rho2*inv(tau_x)*inv(tau_y)"
    assert resolved[0]["resolved_holds"]
    assert rep["orders"]["tau_rho2"] == 2
    assert rep["orders"]["mu_rho"] == 4
    assert rep["orders"]["I_rho"] == 4


def test_relation_suite_p6():
    rep = wgroup_relations(load_group("p6"))
    assert rep["ok"]
    assert len(rep["relations"]) == 46
    assert all(r["holds"] for r in rep["relations"])
    assert rep["orders"] == {"tau_x2": None, "tau_rho3": 2, "mu_xy": None,
                             "mu_rho2": 3, "psi_x": None, "psi": 2,
                             "I_rho": 6, "iota": 2}


def test_relation_suite_p2mm():
    rep = wgroup_relations(load_group("p2mm"))
    assert rep["ok"]
    assert len(rep["relations"]) == 19
    assert all(r["holds"] for r in rep["relations"])
    assert len(rep["notes"]) == 2
    assert rep["orders"]["tau"] == 2


def test_relation_suite_unsupported_group():
    with pytest.raises(ValueError, match="no relation suite"):
        wgroup_relations(load_group("pm"))


@pytest.mark.parametrize("gid", ("p4", "p6"))
def test_normality_of_patch_subgroup(gid):
    rep = normality_check(load_group(gid))
    assert rep["ok"]
    assert len(rep["pairs"]) == 42
    assert all(p["found"] for p in rep["pairs"])


def test_normality_unsupported_group():
    with pytest.raises(ValueError, match="no normality data"):
        normality_check(load_group("p3"))


# -- random candidates -------------------------------------------------------------


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_random_map_is_valid_and_seeded(gid):
    G = load_group(gid)
    a = random_map(G, random.Random(42))
    b = random_map(G, random.Random(42))
    assert a == b
    assert a.compose(a.invert()).is_identity()


def test_w0_generator_names_resolve():
    for gid, names in W0_GENERATORS.items():
        G = load_group(gid)
        for name in names:
            generator(G, name)


def _reference_ball_check(G, m, radius):
    """is_wct_on_ball spelled out through mul, apply and class descriptors."""
    ball = G.ball(radius)
    images = [m.apply(g) for g in ball]
    classes = {}
    for i1, (g1, m1) in enumerate(zip(ball, images)):
        for i2, (g2, m2) in enumerate(zip(ball, images)):
            lhs = m.apply(G.mul(g1, g2))
            rhs = G.mul(m1, m2)
            if lhs not in classes:
                classes[lhs] = conjugacy_class(G, lhs)
            if not classes[lhs].contains(rhs):
                return False, [g1.to_json(), g2.to_json()], i1 * len(ball) + i2 + 1
    return True, None, len(ball) ** 2


def _assert_matches_reference(G, m, radius):
    res = is_wct_on_ball(G, m, radius)
    assert (res["ok"], res["witness"], res["pairs_checked"]) == \
        _reference_ball_check(G, m, radius), m
    assert res["radius"] == radius
    return res["ok"]


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_ball_check_matches_reference_on_catalog(gid):
    G = load_group(gid)
    verdicts = {name: _assert_matches_reference(G, m, 1)
                for name, m in catalog(G).items()}
    if gid == "p4":
        assert not verdicts.pop("conj_rho_on_rho2")
    assert all(verdicts.values())


@pytest.mark.parametrize("gid", TRIVIAL_GROUPS)
def test_ball_check_matches_reference_on_random_maps(gid):
    G = load_group(gid)
    rnd = random.Random(f"ball-reference:{gid}")
    for _ in range(25):
        _assert_matches_reference(G, random_map(G, rnd), 1)


@pytest.mark.parametrize("radius", (0, 2))
@pytest.mark.parametrize("gid", GROUP_IDS)
def test_ball_check_matches_reference_on_catalog_at_radii_0_and_2(gid, radius):
    G = load_group(gid)
    failing = {name for name, m in catalog(G).items()
               if not _assert_matches_reference(G, m, radius)}
    # radius 0 is too small to see conj_rho_on_rho2 fail
    assert failing == ({"conj_rho_on_rho2"} if gid == "p4" and radius else set())


@pytest.mark.parametrize("gid,name", [(gid, name) for gid, names in NONTRIVIAL_CATALOG.items()
                                      for name in names] + [("p4", "conj_rho_on_rho2")])
def test_ball_check_matches_reference_at_radius_3(gid, name):
    G = load_group(gid)
    assert _assert_matches_reference(G, generator(G, name), 3) == (name != "conj_rho_on_rho2")


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_ball_check_matches_reference_on_catalog_words(gid):
    G = load_group(gid)
    rnd = random.Random(f"ball-words:{gid}")
    names = sorted(catalog(G))
    for _ in range(6):
        atoms = [rnd.choice(names) for _ in range(3)]
        expr = " * ".join(f"inv({a})" if rnd.random() < 0.3 else a for a in atoms)
        _assert_matches_reference(G, parse_map_expr(G, expr), 2)


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_ball_check_matches_reference_past_row_0(gid):
    """Random maps whose first failing pair lies past the row of the
    identity, so the first failure of a row is a minimum over several part
    pairs."""
    G = load_group(gid)
    size = len(G.ball(2))
    rnd = random.Random(f"ball-late:{gid}")
    late = 0
    while late < 4:
        m = random_map(G, rnd)
        if m.apply(G.identity) != G.identity:
            continue  # fails on the row of the identity, which has one cell
        ok, witness, pairs = _reference_ball_check(G, m, 2)
        if pairs > size:
            late += 1
            res = is_wct_on_ball(G, m, 2)
            assert (res["ok"], res["witness"], res["pairs_checked"]) == (ok, witness, pairs), m


def test_witness_recheck_survives_python_O():
    """The re-check of a witness is no assert statement, so python -O keeps it."""
    src = str(Path(wct.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = "\n".join((
        "assert False, 'assert statements run'",
        "import wct.maps",
        "from wct.groups import load_group",
        "wct.maps.is_conjugate = lambda G, g, h: True",
        "G = load_group('p4')",
        "try:",
        "    res = wct.maps.is_wct_on_ball(G, wct.maps.generator(G, 'conj_rho_on_rho2'), 2)",
        "except AssertionError as exc:",
        "    print('raised:', exc)",
        "else:",
        "    print('reported:', res)",
    ))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: ball check in p4"), proc.stdout


def test_ball_check_counts_pairs_up_to_the_witness():
    G = load_group("p4")
    size = len(G.ball(2))
    assert is_wct_on_ball(G, generator(G, "tau_x"), 2)["pairs_checked"] == size ** 2
    res = is_wct_on_ball(G, generator(G, "conj_rho_on_rho2"), 2)
    positions = {(g.a, g.f): i for i, g in enumerate(G.ball(2))}
    i1, i2 = (positions[(tuple(w["a"]), w["f"])] for w in res["witness"])
    assert res["pairs_checked"] == i1 * size + i2 + 1


def test_negative_radius_is_rejected():
    G = load_group("p4")
    m = generator(G, "conj_rho_on_rho2")
    for check in (is_wct_on_ball, nontriviality_certificate, wct_invariants):
        with pytest.raises(ValueError, match="radius"):
            check(G, m, -1)


# -- the verdict helpers shared with Z^n x C_p ----------------------------------


def _reference_failure_radii(G, m, top):
    """Ball search for each law: the smallest r <= top at which some pair of
    ball(r) breaks m(g1 g2) = m(g1) m(g2) ("hom") or m(g1 g2) = m(g2) m(g1)
    ("anti"); a law missing from the result holds on all of ball(top)."""
    ball = G.ball(top)
    norm = {g: max(map(abs, g[0])) for g in ball}
    image = {g: m.apply(g) for g in ball}
    found = {}
    for r in range(top + 1):
        inner = [g for g in ball if norm[g] <= r]
        for g1 in inner:
            for g2 in inner:
                if norm[g1] < r and norm[g2] < r:
                    continue  # already searched at a smaller radius
                lhs = m.apply(G.mul(g1, g2))
                m1, m2 = image[g1], image[g2]
                if "hom" not in found and lhs != G.mul(m1, m2):
                    found["hom"] = r
                if "anti" not in found and lhs != G.mul(m2, m1):
                    found["anti"] = r
                if len(found) == 2:
                    return found
    return found


def _top_radius(G):
    """Radius 3 where the ball is small, less where ball(3)^2 is too costly."""
    return max([1] + [r for r in (2, 3) if len(G.ball(r)) <= 200])


def _assert_certificate_matches_reference(G, m):
    top = _top_radius(G)
    found = _reference_failure_radii(G, m, top)
    for radius in range(top + 1):
        cert = nontriviality_certificate(G, m, radius)
        expected = all(found.get(law, radius + 1) <= radius for law in ("hom", "anti"))
        assert (cert is not None) == expected, (m, radius, found)
        if cert is None:
            continue
        ball = set(G.ball(radius))
        g1, g2 = cert["hom_witness"]
        assert {g1, g2} <= ball
        assert m.apply(G.mul(g1, g2)) != G.mul(m.apply(g1), m.apply(g2))
        h1, h2 = cert["antihom_witness"]
        assert {h1, h2} <= ball
        assert m.apply(G.mul(h1, h2)) != G.mul(m.apply(h2), m.apply(h1))
    return found


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_certificate_matches_ball_search_on_catalog(gid):
    G = load_group(gid)
    for m in catalog(G).values():
        _assert_certificate_matches_reference(G, m)


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_certificate_matches_ball_search_on_random_maps(gid):
    G = load_group(gid)
    rnd = random.Random(f"certificate-reference:{gid}")
    for _ in range(20):
        _assert_certificate_matches_reference(G, random_map(G, rnd))
    for M in (((0, 1), (1, 0)), ((1, 1), (0, 1))):
        # one matrix on every coset passes the (o, o) and (e_i, o) probes of
        # the homomorphism law in the symmorphic groups; only (o, e_j) can
        # catch M not commuting with act(f)
        _assert_certificate_matches_reference(
            G, CosetwiseAffineMap(G, {f: (f, M, (0, 0)) for f in G.F}))


def _sd_maps():
    for _, p, theta in SD_CASES:
        H = build(theta, p)
        yield H, phi_for_odd_p(H)
        yield H, identity_sd_map(H)
    for _, theta in P2_THETAS:
        H = build(theta, 2)
        yield H, p2_candidate(H)


def test_certificate_matches_ball_search_on_semidirect_maps():
    verdicts = [_assert_certificate_matches_reference(H, m) for H, m in _sd_maps()]
    # the phi maps break both laws, identity and p = 2 candidates keep one
    assert [len(found) for found in verdicts] == [2, 1] * 3 + [1] * 3


def _semidirect_samples():
    rnd = random.Random("semidirect-probes")
    groups = [build([[0, -1], [1, -1]], 3),
              build([[-1]], 2), build([[0, 1], [1, 0]], 2),
              build([[0, 1, 0], [1, 0, 0], [0, 0, -1]], 2)]
    for H in groups:
        yield H, identity_sd_map(H)
        yield H, SdMap(H, [H.theta] * H.p)  # conjugation by r
        yield H, phi_for_odd_p(H) if H.p > 2 else p2_candidate(H)
        swap = tuple(tuple(int(i + j == H.n - 1) for j in range(H.n))
                     for i in range(H.n))
        yield H, SdMap(H, [swap] * H.p)  # a homomorphism only if it commutes with theta
        drawn = 0
        while drawn < 4:  # random slice matrices with entries in {-1, 0, 1}
            try:
                m = SdMap(H, [tuple(tuple(rnd.randint(-1, 1) for _ in range(H.n))
                                    for _ in range(H.n)) for _ in range(H.p)])
            except ValueError:
                continue  # a singular draw is no bijection
            drawn += 1
            yield H, m


def test_semidirect_probes_match_brute_search():
    """The probe verdicts agree with a search over all of ball(2)^2."""
    laws = {"hom": homomorphism_failure, "anti": antihomomorphism_failure}
    seen = set()
    for H, m in _semidirect_samples():
        found = _reference_failure_radii(H, m, 2)
        for law, probe in laws.items():
            witness = probe(H, m)
            assert (witness is None) == (law not in found), (H, m.mats, law)
            seen.add((law, witness is None))
            if witness is not None:
                g1, g2 = witness
                lhs = m.apply(H.mul(g1, g2))
                m1, m2 = m.apply(g1), m.apply(g2)
                assert lhs != (H.mul(m1, m2) if law == "hom" else H.mul(m2, m1))
    assert len(seen) == 4  # each law both holds and fails somewhere
