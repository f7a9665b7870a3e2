"""maps.decide, the exact weak Cayley table verdict, against its oracles.

decide is held to the ball check is_wct_on_ball(., 2) on the catalog,
seeded catalog words and seeded random maps of all 17 groups, and each of
its witnesses to the brute conjugation sweep.  Its coverage step
_uncovered is held to constructed cosets.  Z^2 x C_m built from the
rotation of p2, p3, p4 and p6 runs the same engine as the wallpaper group
it relabels (a * rho^k <-> (a, k)); both are held to each other.  An ast
guard keeps decide, its kernel _cover and forced_consequences, which shares
that kernel, apart from the ball check, beyond pair_form and the hooks.
maps.verify, the one procedure that assembles a map verdict, is held to
the four checks it reads, and an ast guard keeps the CLI and the battery
from reading them past it.  decide's flat uniform test for the wallpaper
groups is held to a Sublattice.contains scan of the same vectors, and
SdMap.invert to apply.
"""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest

from wct import acceptance, cli, maps
from wct.acceptance import P2_THETAS, SD_CASES, TRIVIAL_GROUPS
from wct.conjugacy import TranslationClass, brute_is_conjugate, conjugacy_class, is_conjugate
from wct.groups import GROUP_IDS, Element, element_from_json, load_group
from wct.lattice import Coset, Sublattice, mat_identity
from wct.maps import (
    CosetwiseAffineMap,
    _uncovered,
    antihomomorphism_failure,
    catalog,
    decide,
    homomorphism_failure,
    is_wct_on_ball,
    nontriviality_certificate,
    parse_map_expr,
    random_map,
)
from wct.semidirect import (SdElement, SdMap, build, check_twist, is_conjugate_sd, p2_candidate,
                            phi_for_odd_p)


def _words(G, rnd, count):
    """Seeded words of 2 to 4 catalog atoms, some of them inverted."""
    names = sorted(catalog(G))
    for _ in range(count):
        atoms = [rnd.choice(names) for _ in range(rnd.randint(2, 4))]
        yield parse_map_expr(G, " * ".join(
            f"inv({a})" if rnd.random() < 0.3 else a for a in atoms))


def _assert_witness_is_genuine(G, m, witness):
    g1, g2 = (element_from_json(w) for w in witness)
    lhs = m.apply(G.mul(g1, g2))
    rhs = G.mul(m.apply(g1), m.apply(g2))
    assert not is_conjugate(G, lhs, rhs)
    assert not brute_is_conjugate(G, lhs, rhs, 3)


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_decide_agrees_with_ball_check(gid):
    G = load_group(gid)
    rnd = random.Random(f"decide:{gid}")
    test_maps = list(catalog(G).values()) + list(_words(G, rnd, 20))
    test_maps += [random_map(G, rnd) for _ in range(100)]
    for m in test_maps:
        res = decide(G, m)
        assert res["ok"] == is_wct_on_ball(G, m, 2)["ok"], m
        methods = list(res["methods"].values())
        if res["ok"]:
            assert res["witness"] is None
            assert len(methods) == len(G.F) ** 2 and "witness" not in methods
        else:
            assert methods[-1] == "witness" and "witness" not in methods[:-1]
            _assert_witness_is_genuine(G, m, res["witness"])


def test_decide_refutes_conj_rho_on_rho2():
    G = load_group("p4")
    m = catalog(G)["conj_rho_on_rho2"]
    res = decide(G, m)
    assert not res["ok"]
    assert res["witness"] == [{"a": [0, 1], "f": "1"}, {"a": [0, 1], "f": "rho2"}]
    assert res["methods"] == {"1,1": "uniform", "1,rho": "uniform", "1,rho2": "witness"}


def test_wct_certificate_symbolic_reports_decide():
    G = load_group("p4")
    for m in catalog(G).values():
        res = decide(G, m)
        assert maps.wct_certificate_symbolic(G, m) == {"proven": res["ok"],
                                                       "pairs": res["methods"]}


# two seeded random maps on whose part pair ("1", "rho") no conjugator
# serves every translation part, but the cosets they serve cover Z^4
COVERED = {
    "p2mg": {"1": ("1", ((0, -1), (1, -2)), (0, 0)),
             "rho": ("rho", ((2, -1), (1, -1)), (-2, -1)),
             "sigma": ("sigma", ((1, 0), (1, -1)), (-2, -2)),
             "rhosigma": ("rhosigma", ((-1, 1), (0, 1)), (-1, -2))},
    "p2gg": {"1": ("1", ((-1, -1), (1, 0)), (0, 0)),
             "rho": ("rho", ((1, 0), (1, -1)), (-1, -1)),
             "gamma": ("gamma", ((-1, -1), (1, 0)), (0, 0)),
             "rhogamma": ("rhogamma", ((1, -2), (0, -1)), (2, -1))},
}


@pytest.mark.parametrize("gid", sorted(COVERED))
def test_decide_covers_a_pair_without_a_uniform_conjugator(gid):
    G = load_group(gid)
    m = CosetwiseAffineMap(G, COVERED[gid])
    res = decide(G, m)
    assert res["methods"]["1,rho"] == "covered"
    assert [how for how in res["methods"].values() if how != "uniform"] == ["covered", "witness"]
    assert not res["ok"]
    _assert_witness_is_genuine(G, m, res["witness"])
    ball = G.ball(3)
    for x1 in (g.a for g in ball if g.f == "1"):
        for x2 in (g.a for g in ball if g.f == "rho"):
            g1, g2 = Element(x1, "1"), Element(x2, "rho")
            assert is_conjugate(G, m.apply(G.mul(g1, g2)), G.mul(m.apply(g1), m.apply(g2)))


# -- the coverage step -----------------------------------------------------------

_E = mat_identity(4)


def _full_rank(*rows):
    return Sublattice(4, rows)


def test_uncovered_on_constructed_cosets():
    v1_even = _full_rank((2, 0, 0, 0), *_E[1:])
    assert _uncovered(4, [Coset((0, 0, 0, 0), v1_even), Coset(_E[0], v1_even)]) is None
    # 2Z^4 and e1 + 2Z^4 miss e2, the first residue outside both
    twice = _full_rank(*(tuple(2 * x for x in row) for row in _E))
    assert _uncovered(4, [Coset((0, 0, 0, 0), twice), Coset(_E[0], twice)]) == (0, 0, 0, 1)
    # no coset at all: the origin is missed
    assert _uncovered(4, []) == (0, 0, 0, 0)


def test_uncovered_with_a_rank_deficient_coset():
    # v1 even, plus the hyperplane v1 = 1: the odd residue r = e1 is left,
    # and the rank-deficient coset takes r itself, so the witness is the
    # next point of r + L by max-norm of its coordinates
    v1_even = _full_rank((2, 0, 0, 0), *_E[1:])
    plane = Coset(_E[0], Sublattice(4, _E[1:]))
    point = _uncovered(4, [Coset((0, 0, 0, 0), v1_even), plane])
    assert point == (-1, -1, -1, -1)
    assert point[0] % 2 and not plane.contains(point)
    # the hyperplane v1 = 0 holds the even residue's representative but
    # not the residue: v1 = 2 is missed
    hyperplane = Coset((0, 0, 0, 0), Sublattice(4, _E[1:]))
    assert _uncovered(4, [Coset(_E[0], v1_even), hyperplane]) == (-2, -1, -1, -1)
    assert _uncovered(4, [Coset(_E[0], v1_even), Coset((0, 0, 0, 0), v1_even),
                          hyperplane]) is None


# -- the exact verdict and its ball oracle stay apart ------------------------------


def _names_in(fn: ast.FunctionDef) -> set:
    names = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _function(name: str, module=maps) -> ast.FunctionDef | ast.ClassDef:
    tree = ast.parse(Path(module.__file__).read_text())
    (fn,) = [node for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name]
    return fn


@pytest.mark.parametrize("name", ("decide", "_cover", "_uncovered", "_uniform_2d",
                                  "forced_consequences", "_keeps_classes"))
def test_decide_reads_no_ball_check(name):
    assert not _names_in(_function(name)) & {"is_wct_on_ball", "_meet", "_pair_uniform", "_plan"}


def test_ball_check_reads_no_decide():
    for name in ("is_wct_on_ball", "_meet", "_pair_uniform"):
        assert not _names_in(_function(name)) & {"decide", "_cover", "_uniform_2d"}, name


# -- maps.verify, the one procedure that assembles a verdict --------------------------


_VERDICT_PARTS = {"decide", "is_wct_on_ball", "nontriviality_certificate",
                  "antihomomorphism_failure"}


@pytest.mark.parametrize("module,name", [
    (cli, "_cmd_verify_map"), (cli, "_cmd_semidirect"),
    (acceptance, "_crit_catalog"), (acceptance, "_crit_failures"),
    (acceptance, "_crit_semidirect"), (acceptance, "_search_group"),
])
def test_verdicts_come_from_verify_alone(module, name):
    names = _names_in(_function(name, module))
    assert not names & _VERDICT_PARTS
    assert names & {"verify", "check_twist"}


def _verify_cases():
    """(G, m, radius): every catalog map of the 17 groups, 20 seeded random
    maps per group of trivial catalog, and the twists of the battery, which
    the ball check, written for wallpaper groups, does not take."""
    for gid in GROUP_IDS:
        G = load_group(gid)
        for m in catalog(G).values():
            yield G, m, 1
    for gid in TRIVIAL_GROUPS:
        G = load_group(gid)
        rnd = random.Random(f"verify:{gid}")
        for _ in range(20):
            yield G, random_map(G, rnd), 1
    for _, p, theta in SD_CASES:
        H = build(theta, p)
        yield H, phi_for_odd_p(H), None
    for _, theta in P2_THETAS:
        H = build(theta, 2)
        yield H, p2_candidate(H), None


def test_verify_reports_what_its_checks_decide():
    for G, m, radius in _verify_cases():
        rep = maps.verify(G, m, radius)
        exact = decide(G, m)
        assert list(rep) == [*exact, *(["ball"] if radius is not None else []), "certificate"]
        assert {k: rep[k] for k in exact} == exact
        if radius is not None:
            assert rep["ball"] == is_wct_on_ball(G, m, radius)
        cert = nontriviality_certificate(G, m, 1)
        assert rep["certificate"] == (None if cert is None else {
            law: [g.to_json() for g in pair] for law, pair in cert.items()})
        trivial = homomorphism_failure(G, m) is None or antihomomorphism_failure(G, m) is None
        assert (rep["certificate"] is None) == trivial


def test_check_twist_states_the_pass_rules():
    for _, p, theta in SD_CASES:
        H = build(theta, p)
        m, rep, passes = check_twist(H, "phi")
        assert m == phi_for_odd_p(H) and passes
        assert rep == {**maps.verify(H, m), "antihomomorphism": False}
    for _, theta in P2_THETAS:
        H = build(theta, 2)
        m, rep, passes = check_twist(H, "p2-candidate")
        assert m == p2_candidate(H) and passes
        assert rep == {**maps.verify(H, m), "antihomomorphism": True}
    # at p = 2 phi is a WCT map but an exact antihomomorphism, so it fails;
    # the quarter-turn twist of Z^2 x C_4 is no WCT map, and the candidate
    # is specific to p = 2
    H = build(((-1,),), 2)
    _, rep, passes = check_twist(H, "phi")
    assert rep["ok"] and rep["antihomomorphism"] and not passes
    H = build(((0, -1), (1, 0)), 4)
    _, rep, passes = check_twist(H, "phi")
    assert not rep["ok"] and rep["certificate"] is not None and not passes
    with pytest.raises(ValueError, match="specific to p = 2"):
        check_twist(H, "p2-candidate")


# -- SdMap.invert ---------------------------------------------------------------------


def test_sd_map_invert_undoes_apply():
    """On ball(2), for the twist phi, the p = 2 candidate and a slice map
    that is unimodular but not diagonal."""
    cases = [(H, phi_for_odd_p(H)) for H in (build(theta, p) for _, p, theta in SD_CASES)]
    H = build(((0, 1), (1, 0)), 2)  # the coordinate swap of Z^2
    cases += [(H, p2_candidate(H)), (H, SdMap(H, [((2, 1), (1, 1)), ((1, 0), (3, 1))]))]
    for H, m in cases:
        inverse = m.invert()
        assert inverse.acts_on(H)
        for g in H.ball(2):
            assert inverse.apply(m.apply(g)) == g == m.apply(inverse.apply(g)), (m.mats, g)


# -- decide's flat uniform test against a Sublattice.contains scan -------------------


def _contains_scan(G, lf, a0, A, rf, b0, B):
    """The index of the first conjugator (f', N, s) of G.conjugators[lf, rf]
    that puts b0 - N a0 - s and every B_j - N A_j in G.slack[rf], or None."""
    lat = G.slack[rf]

    def residual(N, a, b):
        return [y - sum(n * x for n, x in zip(row, a)) for row, y in zip(N, b)]

    for i, (_, N, s) in enumerate(G.conjugators[lf, rf]):
        terms = [(a0, [y - t for y, t in zip(b0, s)]), *zip(A, B)]
        if all(lat.contains(residual(N, a, b)) for a, b in terms):
            return i
    return None


def test_flat_uniform_test_matches_contains_scan(monkeypatch):
    """decide's labels, verdicts and witnesses are unchanged when its flat
    uniform test is replaced by the contains scan, on every group's catalog
    and seeded random maps.  The inputs meet K_h of every HNF shape (p, q, r
    each zero or not; q != 0 needs p != 0) and pairs that only a later
    conjugator serves."""
    shapes, later = set(), 0

    def reference(G, *form):
        nonlocal later
        i = _contains_scan(G, *form)
        shapes.add(tuple(map(bool, G.slack_hnf[form[3]])))
        later += bool(i)
        return i is not None

    for gid in GROUP_IDS:
        G = load_group(gid)
        rnd = random.Random(f"flat-uniform:{gid}")
        test_maps = list(catalog(G).values()) + [random_map(G, rnd) for _ in range(20)]
        flat = [decide(G, m) for m in test_maps]
        with monkeypatch.context() as patch:
            patch.setattr(maps, "_uniform_2d", reference)
            scanned = [decide(G, m) for m in test_maps]
        for m, got, want in zip(test_maps, flat, scanned):
            assert list(got["methods"].items()) == list(want["methods"].items()), m
            assert got == want, m
    assert len(shapes) == 6, shapes
    assert later


# -- Z^2 x C_m against the rotation groups it relabels -------------------------------

ROTATION_GROUPS = ("p2", "p3", "p4", "p6")


def _semidirect_twin(gid):
    G = load_group(gid)
    return G, build(G.act["rho"], len(G.F))


def _relabel(G, g):
    return SdElement(g.a, G.F.index(g.f))


@pytest.mark.parametrize("gid", ROTATION_GROUPS)
def test_rotation_group_classes_match_semidirect(gid):
    G, H = _semidirect_twin(gid)
    outer = G.ball(2)
    for g in G.ball(1):
        cls, twin = conjugacy_class(G, g), conjugacy_class(H, _relabel(G, g))
        if isinstance(cls, TranslationClass):
            assert twin.elements == {_relabel(G, e) for e in cls.elements}
        else:
            assert twin.parts == tuple((G.F.index(f), lat, offs) for f, lat, offs in cls.parts)
        for h in outer:
            assert is_conjugate(G, g, h) == is_conjugate_sd(H, _relabel(G, g), _relabel(G, h))


# twisting A by theta^j, identity elsewhere: which j give a WCT map
TWISTS_WCT = {"p2": {1: True}, "p3": {1: True, 2: True},
              "p4": {1: False, 2: True, 3: False},
              "p6": {j: False for j in range(1, 6)}}


@pytest.mark.parametrize("gid", ROTATION_GROUPS)
def test_twist_verdicts_match_across_families(gid):
    G, H = _semidirect_twin(gid)
    eye = mat_identity(2)
    for j, wct in TWISTS_WCT[gid].items():
        sd_map = SdMap(H, [H.powers[j]] + [eye] * (H.p - 1))
        wallpaper_map = CosetwiseAffineMap(
            G, {f: (f, H.powers[j] if f == "1" else eye, (0, 0)) for f in G.F})
        sd_res, wp_res = decide(H, sd_map), decide(G, wallpaper_map)
        assert sd_res["ok"] == wp_res["ok"] == is_wct_on_ball(G, wallpaper_map, 2)["ok"] == wct
        assert list(sd_res["methods"].values()) == list(wp_res["methods"].values())
        if not wct:
            _assert_witness_is_genuine(G, wallpaper_map, wp_res["witness"])
            g1, g2 = (SdElement(tuple(w["v"]), w["k"]) for w in sd_res["witness"])
            assert not is_conjugate_sd(H, sd_map.apply(H.mul(g1, g2)),
                                       H.mul(sd_map.apply(g1), sd_map.apply(g2)))
