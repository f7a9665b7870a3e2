"""Z^n x C_p products: arithmetic, classes vs brute force, the two maps."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from itertools import permutations, product
from pathlib import Path

import pytest

from wct import semidirect
from wct.acceptance import P2_THETAS, SD_CASES
from wct.conjugacy import TranslationClass, brute_is_conjugate, conjugacy_class
from wct.groups import load_group
from wct.lattice import Sublattice, mat_identity, matmul, matvec, vsub
from wct.maps import (
    antihomomorphism_failure,
    forced_consequences,
    homomorphism_failure,
    iota,
    is_wct_on_ball,
    nontriviality_certificate,
    wct_certificate_symbolic,
    wct_invariants,
)
from wct.semidirect import (
    SdElement,
    SdMap,
    build,
    class_sd,
    identity_sd_map,
    is_conjugate_sd,
    p2_candidate,
    phi_for_odd_p,
    sd_invariants,
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
    # any order, not only a prime one: the quarter turn of p4
    assert build(load_group("p4").act["rho"], 4).powers[2] == ((-1, 0), (0, -1))


def test_build_rejections():
    with pytest.raises(ValueError, match="order exactly 2"):
        build([[1, 0], [0, 1]], 2)
    with pytest.raises(ValueError, match="order exactly 2"):
        build(THETA3, 2)
    with pytest.raises(ValueError, match="order exactly 4"):
        build([[-1, 0], [0, -1]], 4)  # order 2, not 4
    with pytest.raises(ValueError, match="no 1x1 integer matrix has order 4"):
        build([[-1]], 4)
    with pytest.raises(ValueError, match="no 2x2 integer matrix has order 5"):
        build(THETA3, 5)
    for p in (0, 1, -3, True, 2.0):
        with pytest.raises(ValueError, match="p must be an int >= 2"):
            build([[-1]], p)
    with pytest.raises(ValueError, match="square"):
        build([[1, 0]], 2)


def test_defining_relation_check_survives_python_O():
    """build's check of r^-1 e_j r = theta(e_j) is no assert statement, so
    python -O keeps it: with mul twisting by theta^k instead of theta^-k the
    relation fails and build raises."""
    src = str(Path(semidirect.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = "\n".join((
        "assert False, 'assert statements run'",
        "from wct import semidirect as sd",
        "from wct.lattice import matvec, vadd",
        "sd.SdGroup.mul = lambda self, g, h: sd.SdElement(",
        "    vadd(g.v, matvec(self.powers[g.k % self.p], h.v)), (g.k + h.k) % self.p)",
        "try:",
        "    sd.build([[0, -1], [1, -1]], 3)",
        "except AssertionError as exc:",
        "    print('raised:', exc)",
        "else:",
        "    print('built')",
    ))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: r^-1 e_0 r != theta(e_0)"), proc.stdout


@pytest.mark.parametrize("theta,p", (
    ([[-1.5]], 2),                       # was truncated to [[-1]]
    ([[0.0, -1.0], [1.0, -1.0]], 3),     # was accepted as THETA3
    ([[0, -1], [True, -1]], 3),
))
def test_build_rejects_non_int_theta(theta, p):
    with pytest.raises(ValueError, match="theta row must have int coordinates"):
        build(theta, p)


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


def test_element_rejects_non_int_coordinates():
    G = build(THETA3, 3)
    for v in ((1.7, True), (1.0, 2), (True, 2), ("1", 2), (None, 2)):
        with pytest.raises(ValueError, match="int coordinates"):
            G.element(v, 4)
    for k in (1.0, True, "1", None):
        with pytest.raises(ValueError, match="slice index"):
            G.element((1, 2), k)


def test_ball_size():
    G = build(THETA3, 3)
    assert len(G.ball(1)) == 9 * 3
    assert G.identity in G.ball(0)


def test_check_element():
    G = build(THETA3, 3)
    assert G.check_element(SdElement((1, -2), 2)) == SdElement((1, -2), 2)
    for bad in (SdElement((1, 2, 3), 0), SdElement((1.0, 2), 0), SdElement((True, 2), 0),
                SdElement((1, 2), 3), SdElement((1, 2), -1)):
        with pytest.raises(ValueError, match="does not belong"):
            G.check_element(bad)
    with pytest.raises(ValueError, match="does not belong"):
        is_conjugate_sd(G, SdElement((1, 2), 3), G.identity)
    with pytest.raises(ValueError, match="does not belong"):
        class_sd(G, SdElement((1, 2), 3))


@pytest.mark.parametrize("theta,p", ((THETA3, 3), (COMPANION5, 5), ([[0, 1], [1, 0]], 2)))
def test_conjugation_hooks(theta, p):
    # slice 0: conjugating by r^j applies theta^j; slice k != 0: the class is
    # v plus the span of the moves under conjugation by translations; no
    # conjugator changes k
    G = build(theta, p)
    zero = (0,) * G.n
    v = tuple(range(1, G.n + 1))
    assert G.conjugators[0, 0] == tuple((j, G.powers[j], zero) for j in range(p))
    assert [G.conj(SdElement(v, 0), G.element(None, j)).v for j in range(p)] == \
        [matvec(m, v) for _, m, _ in G.conjugators[0, 0]]
    assert G.slack[0] == Sublattice.zero(G.n)
    for k in range(1, p):
        assert G.conjugators[k, k] == ((0, mat_identity(G.n), zero),)
        moves = [vsub(G.conj(SdElement(v, k), SdElement(e, 0)).v, v) for e in mat_identity(G.n)]
        assert G.slack[k] == Sublattice(G.n, moves)
    for k in range(p):
        assert all(G.conjugators[k, h] == () for h in range(p) if h != k)


# -- derived subgroup -----------------------------------------------------------


def test_derived_lattice_frozen():
    # for p = 2 the commutator subgroup is slack(1) = im(theta - I)
    assert build([[-1, 0], [0, -1]], 2).slack[1] == Sublattice(2, [(2, 0), (0, 2)])
    assert build([[0, 1], [1, 0]], 2).slack[1] == Sublattice(2, [(1, -1)])
    assert build([[-1]], 2).slack[1] == Sublattice(1, [(2,)])


@pytest.mark.parametrize("theta", P2_SAMPLES[:4])
def test_derived_lattice_matches_commutators(theta):
    G = build(theta, 2)
    gens = []
    for g in G.ball(2):
        for h in G.ball(2):
            c = G.mul(G.inv(G.mul(h, g)), G.mul(g, h))  # (g, h) = g^-1 h^-1 g h
            assert c.k == 0  # C_p is abelian, so commutators are translations
            gens.append(c.v)
    assert Sublattice(G.n, gens) == G.slack[1]


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
    # a class off slice 0 is the one-piece form of the wallpaper coset unions
    G = build(THETA3, 3)
    j = class_sd(G, G.element((1, 0), 1)).to_json()
    assert j == {"kind": "cosetUnion",
                 "pieces": [{"f": 1, "offset": [0, 1], "lattice": [[1, 2], [0, 3]]}]}
    j = class_sd(G, G.element((1, 0))).to_json()
    assert j == {"kind": "finiteSet",
                 "elements": [{"v": [-1, -1], "k": 0}, {"v": [0, 1], "k": 0},
                              {"v": [1, 0], "k": 0}]}


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


@pytest.mark.parametrize("theta", [theta for _, theta in P2_THETAS])
def test_twist_of_a_is_trivial_at_p2(theta):
    """At p = 2 the twist of A is p2_candidate followed by conjugation by r
    (theta on both slices): it passes decide and is an exact
    antihomomorphism, so it certifies no nontriviality."""
    G = build(theta, 2)
    phi = phi_for_odd_p(G)
    assert phi == SdMap(G, [G.theta, mat_identity(G.n)])
    assert phi.mats == tuple(matmul(G.theta, m) for m in p2_candidate(G).mats)
    assert verify_sd(G, phi, 1)["ok"]
    assert antihomomorphism_failure(G, phi) is None
    assert nontriviality_certificate(G, phi, 0) is None


def test_p2_candidate_requires_p2():
    with pytest.raises(ValueError, match="p = 2"):
        p2_candidate(build(THETA3, 3))


def test_sd_map_validation():
    G = build(THETA3, 3)
    eye = mat_identity(2)
    with pytest.raises(ValueError, match="per k-slice"):
        SdMap(G, [mat_identity(2)])
    # a singular slice matrix makes no bijection
    for singular in (((0, 0), (0, 0)), ((2, 0), (0, 2))):
        with pytest.raises(ValueError, match="not unimodular"):
            SdMap(G, [singular] * 3)
        with pytest.raises(ValueError, match="slice 2 is not unimodular"):
            SdMap(G, [eye, eye, singular])
    for wrong_shape in (mat_identity(3), ((1, 0),), ((1, 0), (0,)), (1, 0), ((1, 0), 5)):
        with pytest.raises(ValueError, match="must be 2x2"):
            SdMap(G, [eye, wrong_shape, eye])
    for entry in (True, 1.0, "1"):
        with pytest.raises(ValueError, match="int entries"):
            SdMap(G, [((entry, 0), (0, 1)), eye, eye])
    with pytest.raises(ValueError, match="not unimodular"):
        SdMap(build(THETA3_EMBED, 3), [((1, 0, 0), (0, 1, 0), (0, 0, 2))] * 3)
    # lists are accepted and stored as tuples
    assert SdMap(G, [[[1, 0], [0, 1]]] * 3) == identity_sd_map(G)


def test_verdicts_reject_a_map_of_another_group():
    G = build(THETA3, 3)
    foreign = (identity_sd_map(build(COMPANION5, 5)),       # p = 5, not 3
               identity_sd_map(build(THETA3_EMBED, 3)),     # n = 3, not 2
               iota(load_group("p2")))                      # a wallpaper map
    checks = (lambda m: verify_sd(G, m, 1), lambda m: sd_invariants(G, m, 1),
              lambda m: nontriviality_certificate(G, m, 1),
              lambda m: wct_certificate_symbolic(G, m),
              lambda m: antihomomorphism_failure(G, m))
    for m in foreign:
        for check in checks:
            with pytest.raises(ValueError, match="does not act on"):
                check(m)
    p2 = load_group("p2")
    for check in (is_wct_on_ball, wct_invariants):
        with pytest.raises(ValueError, match="does not act on p2"):
            check(p2, identity_sd_map(G), 1)


@pytest.mark.parametrize("theta,p", ((THETA3, 3), (THETA3_EMBED, 3), (COMPANION5, 5)) +
                         tuple((theta, 2) for theta in P2_SAMPLES))
def test_built_in_sd_maps_construct(theta, p):
    G = build(theta, p)
    for m in (identity_sd_map(G), phi_for_odd_p(G) if p > 2 else p2_candidate(G)):
        assert SdMap(G, m.mats) == m


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


def test_certificate_serves_semidirect():
    G = build(THETA3, 3)
    cert = wct_certificate_symbolic(G, phi_for_odd_p(G))
    assert cert["proven"]
    # every slice pair has a conjugator that serves all of Z^4, among them
    # (1, 2) and (2, 1), whose products land in A with phi(g1 g2) = theta v1 + v2
    assert cert["pairs"] == {f"{k1},{k2}": "uniform" for k1 in range(3) for k2 in range(3)}


def _witness_is_genuine(G, m, res):
    """The reported pair breaks the class condition.  A product in A is also
    checked by brute force, which is exact there: the conjugates of (v, 0)
    are its theta-orbit, and ball(0) holds every power of r."""
    g1, g2 = (SdElement(tuple(w["v"]), w["k"]) for w in res["witness"])
    lhs = m.apply(G.mul(g1, g2))
    rhs = G.mul(m.apply(g1), m.apply(g2))
    return (not is_conjugate_sd(G, lhs, rhs)
            and (lhs.k != 0 or not brute_is_conjugate(G, lhs, rhs, 0)))


def test_verify_sd_is_exact_at_every_radius():
    # radius 0 used to pass all three: their failing slice pairs fell back to
    # an empty-handed ball(0) sweep
    G = build(THETA3, 3)
    eye = mat_identity(2)
    for mats in ([((-1, 0), (0, -1)), eye, eye], [eye, G.theta, eye],
                 [G.theta, G.theta, eye]):
        m = SdMap(G, mats)
        for radius in range(4):
            res = verify_sd(G, m, radius)
            assert not res["ok"] and res["radius"] == radius
            *before, last = res["methods"].values()
            assert set(before) <= {"uniform"} and last == "witness"
            assert _witness_is_genuine(G, m, res)


def _pool(n: int) -> list:
    """Signed permutation matrices for n = 3; for n <= 2 every matrix with
    entries in {-1, 0, 1} and determinant +-1."""
    if n == 3:
        return [tuple(tuple(sign[i] * (perm[i] == j) for j in range(n)) for i in range(n))
                for perm in permutations(range(n)) for sign in product((-1, 1), repeat=n)]
    mats = [tuple(e[i * n:(i + 1) * n] for i in range(n)) for e in product((-1, 0, 1), repeat=n * n)]
    return [m for m in mats if Sublattice(n, m) == Sublattice.full(n)]


def _ball_sweep_ok(G, m, radius, cache, first):
    """Literal class-condition sweep of ball(radius)^2, one slice pair at a
    time.  The sweep of (k1, k2) depends only on the matrices of slices k1,
    k2 and k1 + k2, so its result is cached on them across maps; sweeping
    the pair `first` ahead of the others only stops a failing map sooner."""
    box = [g.v for g in G.ball(radius) if g.k == 0]
    for k1, k2 in sorted(product(range(G.p), repeat=2), key=lambda kk: kk != first):
        key = (k1, k2, m.mats[k1], m.mats[k2], m.mats[(k1 + k2) % G.p])
        if key not in cache:
            cache[key] = all(
                is_conjugate_sd(G, m.apply(G.mul(g1, g2)), G.mul(m.apply(g1), m.apply(g2)))
                for g1 in [SdElement(v, k1) for v in box]
                for g2 in [SdElement(v, k2) for v in box])
        if not cache[key]:
            return False
    return True


# 1000 maps in all; the Z^3 sweeps cost most, so that case gets few
RANDOM_SD_CASES = ((THETA3, 3, 650), (SD_CASES[1][2], 3, 30)) + tuple(
    (theta, 2, count) for (_, theta), count in zip(P2_THETAS, (20, 150, 150)))


@pytest.mark.parametrize("theta,p,count", RANDOM_SD_CASES)
def test_verify_sd_agrees_with_ball_sweep(theta, p, count):
    G = build(theta, p)
    pool = _pool(G.n)
    rnd = random.Random(f"sd:{p}:{theta}")
    cache = {}
    verdicts = set()
    for _ in range(count):
        # half the slices take a power of theta, so some maps pass
        m = SdMap(G, [rnd.choice(G.powers) if rnd.random() < 0.5 else rnd.choice(pool)
                      for _ in range(p)])
        res = verify_sd(G, m, 0)
        failing = next((tuple(map(int, key.split(","))) for key, how in res["methods"].items()
                        if how == "witness"), None)
        assert res["ok"] == _ball_sweep_ok(G, m, 2, cache, failing), m.mats
        assert res["ok"] == (failing is None) == (res["witness"] is None)
        assert res["ok"] or _witness_is_genuine(G, m, res), m.mats
        verdicts.add(res["ok"])
    assert verdicts == {True, False} or G.n == 1


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
    assert res["methods"] == {"0,0": "uniform", "0,1": "uniform", "0,2": "uniform",
                              "1,0": "uniform", "1,1": "uniform", "1,2": "witness"}
    g1, g2 = (SdElement(tuple(w["v"]), w["k"]) for w in res["witness"])
    assert (g1.k, g2.k) == (1, 2)
    lhs = m.apply(G.mul(g1, g2))
    rhs = G.mul(m.apply(g1), m.apply(g2))
    assert lhs.k == rhs.k == 0
    assert not is_conjugate_sd(G, lhs, rhs)
    assert not brute_is_conjugate(G, lhs, rhs, 0)


def test_invariants_hold_for_the_catalog_maps():
    for theta, p in ((THETA3, 3), (COMPANION5, 5)):
        G = build(theta, p)
        assert sd_invariants(G, phi_for_odd_p(G), 2)["ok"]
        assert sd_invariants(G, identity_sd_map(G), 2)["ok"]
    G2 = build([[-1, 0], [0, -1]], 2)
    assert sd_invariants(G2, p2_candidate(G2), 2)["ok"]


def test_invariants_flag_broken_translation_slice():
    # SdMap rejects a stretched translation slice, so every SdMap carries A
    # onto A
    G = build(THETA3, 3)
    eye = mat_identity(2)
    with pytest.raises(ValueError, match="slice 0 is not unimodular"):
        SdMap(G, [((2, 0), (0, 1)), eye, eye])
    assert sd_invariants(G, SdMap(G, [((0, 1), (1, 0)), eye, eye]), 1)["preserves_translations"]


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
    assert class_sd is conjugacy_class
    assert sd_invariants is wct_invariants is forced_consequences
    G = build(THETA3, 3)
    assert G.F == (0, 1, 2)
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
