"""maps.decide, the exact weak Cayley table verdict, against its oracles.

decide is held to the ball check is_wct_on_ball(., 2) on the catalog,
seeded catalog words and seeded random maps of all 17 groups, and each of
its witnesses to the brute conjugation sweep.  Its coverage step
_uncovered is held to constructed cosets.  Z^2 x C_m built from the
rotation of p2, p3, p4 and p6 runs the same engine as the wallpaper group
it relabels (a * rho^k <-> (a, k)); both are held to each other.  An ast
guard keeps decide and the ball check from sharing more than pair_form and
the hooks.
"""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest

from wct import maps
from wct.conjugacy import TranslationClass, brute_is_conjugate, conjugacy_class, is_conjugate
from wct.groups import GROUP_IDS, Element, element_from_json, load_group
from wct.lattice import Coset, Sublattice, mat_identity
from wct.maps import (
    CosetwiseAffineMap,
    _uncovered,
    catalog,
    decide,
    is_wct_on_ball,
    parse_map_expr,
    random_map,
)
from wct.semidirect import SdElement, SdMap, build, is_conjugate_sd


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


def _function(name: str) -> ast.FunctionDef:
    tree = ast.parse(Path(maps.__file__).read_text())
    (fn,) = [node for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name == name]
    return fn


@pytest.mark.parametrize("name", ("decide", "_uncovered"))
def test_decide_reads_no_ball_check(name):
    assert not _names_in(_function(name)) & {"is_wct_on_ball", "_Block", "_plan"}


def test_ball_check_reads_no_decide():
    assert "decide" not in _names_in(_function("is_wct_on_ball"))


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
