"""Z^n x C_p products: arithmetic, classes vs brute force, the two maps."""

from __future__ import annotations

import random

import pytest

from wct import semidirect
from wct.conjugacy import TranslationClass, brute_is_conjugate
from wct.lattice import Sublattice, mat_identity, matvec
from wct.maps import (
    antihomomorphism_failure,
    homomorphism_failure,
    nontriviality_certificate,
)
from wct.semidirect import (
    SdElement,
    SdMap,
    build,
    class_sd,
    derived_lattice,
    identity_sd_map,
    is_conjugate_sd,
    p2_candidate,
    phi_for_odd_p,
    sd_invariants,
    sd_power_compatible,
    verify_sd,
)

THETA3 = [[0, -1], [1, -1]]
THETA3_EMBED = [[0, -1, 0], [1, -1, 0], [0, 0, 1]]
COMPANION5 = [[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]]

# order-2 actions for the p = 2 family
P2_SAMPLES = (
    [[-1]],
    [[-1, 0], [0, -1]],
    [[0, 1], [1, 0]],
    [[1, 1], [0, -1]],
    [[0, 1, 0], [1, 0, 0], [0, 0, -1]],
)


def test_build_accepts_valid_actions():
    assert build([[-1]], 2).n == 1
    assert build(THETA3, 3).p == 3
    assert build(COMPANION5, 5).n == 4


def test_build_rejections():
    with pytest.raises(ValueError, match="abelian"):
        build([[1, 0], [0, 1]], 2)
    with pytest.raises(ValueError, match="!= I"):
        build(THETA3, 2)
    with pytest.raises(ValueError, match="prime"):
        build([[-1]], 4)
    with pytest.raises(ValueError, match="prime"):
        build([[-1]], 1)
    with pytest.raises(ValueError, match="square"):
        build([[1, 0]], 2)


def test_defining_relation():
    # r^-1 a r = theta(a): conjugation by r applies theta to translations
    for theta, p in ((THETA3, 3), (COMPANION5, 5), ([[0, 1], [1, 0]], 2)):
        G = build(theta, p)
        r = G.element(None, 1)
        for j in range(G.n):
            e = tuple(int(i == j) for i in range(G.n))
            assert G.conj(G.element(e), r) == G.element(matvec(G.theta, e))


def test_group_axioms_sampled():
    G = build(THETA3, 3)
    rnd = random.Random(5)
    els = [G.element((rnd.randint(-4, 4), rnd.randint(-4, 4)), rnd.randint(0, 2))
           for _ in range(8)]
    for g in els:
        assert G.mul(g, G.inv(g)) == G.identity
        assert G.mul(G.inv(g), g) == G.identity
        assert G.mul(g, G.identity) == g
    for a in els[:4]:
        for b in els[:4]:
            for c in els[:4]:
                assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))


def test_element_validation():
    G = build(THETA3, 3)
    with pytest.raises(ValueError, match="length"):
        G.element((1, 2, 3))
    assert G.element((1, 2), 5) == G.element((1, 2), 2)
    assert G.element(None, 1).v == (0, 0)


def test_probes_are_origin_and_unit_steps():
    G = build(THETA3_EMBED, 3)
    steps = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert G.probes() == [[SdElement(v, k) for v in steps] for k in range(3)]


def test_ball_size():
    G = build(THETA3, 3)
    assert len(G.ball(1)) == 9 * 3
    assert G.identity in G.ball(0)


# -- derived subgroup -----------------------------------------------------------


def test_derived_lattice_frozen():
    assert derived_lattice(build([[-1, 0], [0, -1]], 2)) == \
        Sublattice(2, [(2, 0), (0, 2)])
    assert derived_lattice(build([[0, 1], [1, 0]], 2)) == Sublattice(2, [(1, -1)])
    assert derived_lattice(build([[-1]], 2)) == Sublattice(1, [(2,)])


def test_derived_lattice_requires_p2():
    with pytest.raises(ValueError, match="p = 2"):
        derived_lattice(build(THETA3, 3))


@pytest.mark.parametrize("theta", P2_SAMPLES[:4])
def test_derived_lattice_matches_commutators(theta):
    G = build(theta, 2)
    gens = []
    for g in G.ball(2):
        for h in G.ball(2):
            c = G.comm(g, h)
            assert c.k == 0  # C_p is abelian, so commutators are translations
            gens.append(c.v)
    assert Sublattice(G.n, gens) == G.comm_lattice


# -- conjugacy -------------------------------------------------------------------


def test_class_frozen_examples():
    dih = build([[-1]], 2)
    three = class_sd(dih, dih.element([3]))
    assert {e.v for e in three.elements} == {(3,), (-3,)}
    r_class = class_sd(dih, dih.element(None, 1))
    assert r_class.contains(dih.element([2], 1))
    assert r_class.contains(dih.element([-6], 1))
    assert not r_class.contains(dih.element([1], 1))
    assert not r_class.contains(dih.element([2], 0))
    ident = class_sd(dih, dih.identity)
    assert ident.elements == frozenset([dih.identity])


def test_class_descriptor_json():
    G = build(THETA3, 3)
    j = class_sd(G, G.element((1, 0), 1)).to_json()
    assert j["kind"] == "coset" and j["k"] == 1
    j = class_sd(G, G.element((1, 0))).to_json()
    assert j["kind"] == "finiteSet" and len(j["elements"]) == 3


@pytest.mark.parametrize("theta", P2_SAMPLES)
def test_classes_match_brute_force(theta):
    G = build(theta, 2)
    # witness conjugators for ball-2 differences stay well inside ball(6)
    inner = G.ball(1) if G.n == 3 else G.ball(2)
    outer = G.ball(2)
    reach = {g: {G.conj(g, c) for c in G.ball(6)} for g in inner}
    for g in inner:
        for h in outer:
            assert is_conjugate_sd(G, g, h) == (h in reach[g]), (g, h)


def test_classes_match_brute_force_odd_p():
    G = build(THETA3, 3)
    for g in G.ball(1):
        reach = {G.conj(g, c) for c in G.ball(6)}
        for h in G.ball(2):
            assert is_conjugate_sd(G, g, h) == (h in reach), (g, h)


def test_brute_is_conjugate_matches_closed_form():
    G = build(THETA3, 3)
    g = G.element((2, 0), 1)
    h = G.element((1, 1), 1)
    assert is_conjugate_sd(G, g, h) == brute_is_conjugate(G, g, h, 5)


# -- the maps --------------------------------------------------------------------


def test_phi_frozen_values():
    G = build(THETA3, 3)
    phi = phi_for_odd_p(G)
    assert phi.apply(G.identity) == G.identity
    assert phi.apply(G.element((1, 0))) == G.element((0, 1))
    assert phi.apply(G.element((5, 7), 1)) == G.element((5, 7), 1)
    assert phi.apply(G.element((-2, 3), 2)) == G.element((-2, 3), 2)


def test_phi_requires_odd_p():
    with pytest.raises(ValueError, match="odd"):
        phi_for_odd_p(build([[-1]], 2))
    with pytest.raises(ValueError, match="p = 2"):
        p2_candidate(build(THETA3, 3))


def test_sd_map_validation():
    G = build(THETA3, 3)
    with pytest.raises(ValueError, match="per k-slice"):
        SdMap(G, [mat_identity(2)])


@pytest.mark.parametrize("theta,p", ((THETA3, 3), (THETA3_EMBED, 3), (COMPANION5, 5)))
def test_phi_is_wct_map(theta, p):
    G = build(theta, p)
    phi = phi_for_odd_p(G)
    res = verify_sd(G, phi, 3)
    assert res["ok"]
    # every slice pair carries a uniform certificate: this is a proof over
    # all of G, not just ball evidence
    assert set(res["methods"].values()) == {"uniform"}
    cert = nontriviality_certificate(G, phi, 2)
    assert cert is not None
    g1, g2 = cert["hom_witness"]
    assert phi.apply(G.mul(g1, g2)) != G.mul(phi.apply(g1), phi.apply(g2))
    h1, h2 = cert["antihom_witness"]
    assert phi.apply(G.mul(h1, h2)) != G.mul(phi.apply(h2), phi.apply(h1))


@pytest.mark.parametrize("theta,p", ((THETA3, 3), (COMPANION5, 5)))
def test_phi_power_compatible(theta, p):
    G = build(theta, p)
    assert sd_power_compatible(G, phi_for_odd_p(G), 2)


def test_identity_map_passes():
    G = build(THETA3, 3)
    assert verify_sd(G, identity_sd_map(G), 2)["ok"]
    assert nontriviality_certificate(G, identity_sd_map(G), 2) is None


@pytest.mark.parametrize("theta", ([[-1]], [[-1, 0], [0, -1]], [[0, 1], [1, 0]]))
def test_p2_candidate_is_trivially_wct(theta):
    """The twist-the-r-coset candidate is an exact antihomomorphism, so it
    passes the class condition everywhere but certifies no nontriviality."""
    G = build(theta, 2)
    cand = p2_candidate(G)
    assert antihomomorphism_failure(G, cand) is None
    assert homomorphism_failure(G, cand) is not None
    res = verify_sd(G, cand, 2)
    assert res["ok"]
    assert set(res["methods"].values()) == {"uniform"}
    assert nontriviality_certificate(G, cand, 3) is None


def test_broken_map_fails_with_witness():
    # swapping coordinates on A only is not class-preserving on the
    # slice pair whose product lands back in A
    G = build(THETA3, 3)
    eye = mat_identity(2)
    m = SdMap(G, [((0, 1), (1, 0)), eye, eye])
    res = verify_sd(G, m, 2)
    assert not res["ok"]
    assert res["witness"] == [{"v": [-2, -2], "k": 1}, {"v": [-1, -2], "k": 2}]
    g1 = SdElement((-2, -2), 1)
    g2 = SdElement((-1, -2), 2)
    lhs = m.apply(G.mul(g1, g2))
    rhs = G.mul(m.apply(g1), m.apply(g2))
    assert lhs == SdElement((-1, -3), 0)
    assert rhs == SdElement((-3, -1), 0)
    assert not is_conjugate_sd(G, lhs, rhs)


def test_invariants_hold_for_the_catalog_maps():
    for theta, p in ((THETA3, 3), (COMPANION5, 5)):
        G = build(theta, p)
        assert sd_invariants(G, phi_for_odd_p(G), 2)["ok"]
        assert sd_invariants(G, identity_sd_map(G), 2)["ok"]
    G2 = build([[-1, 0], [0, -1]], 2)
    assert sd_invariants(G2, p2_candidate(G2), 2)["ok"]


def test_invariants_flag_broken_translation_slice():
    G = build(THETA3, 3)
    eye = mat_identity(2)
    stretch = SdMap(G, [((2, 0), (0, 1)), eye, eye])
    rep = sd_invariants(G, stretch, 1)
    assert not rep["preserves_translations"]
    assert not rep["ok"]


def test_invariants_are_necessary_not_sufficient():
    # swap conjugates theta to theta^2, so it permutes the translation
    # orbits consistently and every ball invariant holds, yet the product
    # condition fails (see test_broken_map_fails_with_witness)
    G = build(THETA3, 3)
    eye = mat_identity(2)
    m = SdMap(G, [((0, 1), (1, 0)), eye, eye])
    assert sd_invariants(G, m, 2)["ok"]
    assert not verify_sd(G, m, 2)["ok"]


def test_hom_failure_probes_match_search():
    G = build(THETA3, 3)
    phi = phi_for_odd_p(G)
    bad = homomorphism_failure(G, phi)
    assert bad is not None
    g1, g2 = bad
    assert phi.apply(G.mul(g1, g2)) != G.mul(phi.apply(g1), phi.apply(g2))
    assert antihomomorphism_failure(G, phi) is not None
    assert homomorphism_failure(G, identity_sd_map(G)) is None


def test_sd_names_are_the_shared_helpers():
    assert semidirect.sd_nontriviality is nontriviality_certificate
    assert semidirect.sd_antihomomorphism_failure is antihomomorphism_failure
    assert semidirect.brute_is_conjugate_sd is brute_is_conjugate
    G = build(THETA3, 3)
    assert isinstance(class_sd(G, G.element((1, 0))), TranslationClass)


def test_negative_radius_is_rejected():
    # the broken swap map fails verify_sd from radius 1 on; an empty ball
    # must not pass it
    G = build(THETA3, 3)
    eye = mat_identity(2)
    m = SdMap(G, [((0, 1), (1, 0)), eye, eye])
    for check in (verify_sd, sd_invariants, nontriviality_certificate):
        with pytest.raises(ValueError, match="radius must be non-negative"):
            check(G, m, -1)
