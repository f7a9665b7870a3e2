"""Criterion 10's random search: a candidate that moves e is refuted.

acceptance._search_group refutes each draw with m(e) != e and hands the rest
to maps.decide.  That rests on one fact, that every WCT map fixes e (with
g1 = m^-1(e) and g2 = e the condition reads e ~ m(e), and e's class is
{e}).  The fact is held to every map decide proves on the catalog of all 17
groups, the semidirect twist maps, the order-2 candidates and p2's proven
draws; the refutation is held to decide on e-moving draws; and the search
is held to the six-pair screen it replaced, kept below as a reference.
"""

from __future__ import annotations

import random

import pytest

from wct import acceptance, maps
from wct.acceptance import P2_THETAS, SD_CASES, TRIVIAL_GROUPS
from wct.conjugacy import is_conjugate
from wct.groups import GROUP_IDS, Element, load_group
from wct.semidirect import build, p2_candidate, phi_for_odd_p

FAST_COUNT = 1000  # criterion 10's candidates per group in the fast suite
FULL_COUNT = 10000  # and in the full suite


def _assert_proven_maps_fix_e(G, candidates) -> int:
    """Assert that each candidate decide proves fixes e; return how many."""
    proven = 0
    for m in candidates:
        if maps.decide(G, m)["ok"]:
            proven += 1
            assert m.apply(G.identity) == G.identity, m
    return proven


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_catalog_maps_fix_e(gid):
    G = load_group(gid)
    cat = maps.catalog(G)
    # p4's conj_rho_on_rho2 is the candidate criterion 6 refutes
    assert _assert_proven_maps_fix_e(G, cat.values()) == len(cat) - ("conj_rho_on_rho2" in cat)


def test_semidirect_maps_fix_e():
    for _, p, theta in SD_CASES:
        G = build(theta, p)
        assert _assert_proven_maps_fix_e(G, [phi_for_odd_p(G)]) == 1
    for _, theta in P2_THETAS:
        H = build(theta, 2)
        assert _assert_proven_maps_fix_e(H, [p2_candidate(H)]) == 1


def test_proven_p2_draws_fix_e():
    """The full suite's p2 draws at seed 0 hold 5 WCT maps."""
    G = load_group("p2")
    rnd = random.Random("0:p2")
    draws = (maps.random_map(G, rnd) for _ in range(FULL_COUNT))
    assert _assert_proven_maps_fix_e(G, draws) == 5


@pytest.mark.parametrize("gid", TRIVIAL_GROUPS)
def test_draws_that_move_e_are_refuted(gid):
    """decide refutes the first 100 draws that move e, at seed 0."""
    G = load_group(gid)
    rnd = random.Random(f"0:{gid}")
    moved = 0
    while moved < 100:
        m = maps.random_map(G, rnd)
        if m.apply(G.identity) != G.identity:
            moved += 1
            assert not maps.decide(G, m)["ok"], m


def _six_pair_search(gid: str, count: int, seed: int) -> dict:
    """criterion 10 as it was: six hand-picked pairs screen each draw, and
    decide settles the survivors."""
    G = load_group(gid)
    rnd = random.Random(f"{seed}:{gid}")
    screen = [
        (Element((1, 0), "1"), G.ball(1)[-1]),
        (G.ball(1)[-1], Element((0, 1), "1")),
        (Element((1, -1), G.F[1]), Element((0, 1), G.F[-1])),
        (Element((2, 0), G.F[-1]), Element((1, 1), G.F[1])),
        (Element((0, 1), G.F[len(G.F) // 2]), Element((-1, 0), G.F[1])),
        (Element((1, 1), "1"), Element((1, 0), G.F[len(G.F) // 2])),
    ]
    wct_maps = hits = 0
    for _ in range(count):
        m = maps.random_map(G, rnd)
        if not all(
            is_conjugate(G, m.apply(G.mul(g1, g2)),
                         G.mul(m.apply(g1), m.apply(g2)))
            for g1, g2 in screen):
            continue
        if not maps.decide(G, m)["ok"]:
            continue
        wct_maps += 1
        if maps.nontriviality_certificate(G, m, 3) is not None:
            hits += 1
    return {"wct_maps": wct_maps, "nontrivial_hits": hits}


@pytest.mark.parametrize("seed", (0, 1))
def test_search_matches_the_six_pair_screen(seed):
    found = 0
    for gid in TRIVIAL_GROUPS:
        rep = acceptance._search_group((gid, FAST_COUNT, seed))
        assert rep["candidates"] == FAST_COUNT
        assert rep["screen_survivors"] >= rep["wct_maps"]
        reference = _six_pair_search(gid, FAST_COUNT, seed)
        assert {k: rep[k] for k in reference} == reference, gid
        found += rep["wct_maps"]
    assert found > 0  # the comparison sees some WCT maps
