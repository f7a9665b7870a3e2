"""Acceptance battery: ten numbered checks, each scored against its own oracle.

run_suite is pure compute and returns a JSON-ready report; printing belongs to
the CLI.  The "fast" suite shrinks the two sweep-heavy checks, the "full"
suite runs them at the advertised scale.  Every check carries a wall-clock
budget that is part of the verdict.  WCT_THREADS caps the worker processes
used for the sweeps; the cap never raises the count above the CPU count, and
one worker means plain serial execution.
"""

from __future__ import annotations

import os
import random
import time

from . import maps, semidirect
from .conjugacy import (
    conjugacy_class,
    conjugates_within,
    involution_loci,
    is_conjugate,
    kf,
)
from .groups import GROUP_IDS, Element, load_group
from .lattice import Coset, Sublattice, matvec, vadd, vneg

TRIVIAL_GROUPS = (
    "pm", "pg", "cm", "p2", "p2mg", "p2gg", "c2mm",
    "p3m1", "p31m", "p4mm", "p4mg", "p6m",
)

SD_CASES = (
    ("order 3 twist of Z^2", 3, ((0, -1), (1, -1))),
    ("order 3 twist summed with a fixed line in Z^3", 3,
     ((0, -1, 0), (1, -1, 0), (0, 0, 1))),
    ("order 5 twist of Z^4", 5,
     ((0, 0, 0, -1), (1, 0, 0, -1), (0, 1, 0, -1), (0, 0, 1, -1))),
)

P2_THETAS = (
    ("negation of Z", ((-1,),)),
    ("negation of Z^2", ((-1, 0), (0, -1))),
    ("coordinate swap of Z^2", ((0, 1), (1, 0))),
)


def worker_count() -> int:
    cpus = os.cpu_count() or 1
    cap = os.environ.get("WCT_THREADS", "")
    if cap.isdigit() and int(cap) > 0:
        return min(cpus, int(cap))
    return cpus


def _pmap(fn, jobs: list) -> list:
    """fn over jobs, each naming its group first; results in input order.
    Jobs start longest-first: a sweep costs about |F|^2, so the groups with
    the most parts are not left to run alone at the end of the pool."""
    workers = min(worker_count(), len(jobs))
    if workers <= 1:
        return [fn(j) for j in jobs]
    # imported here: it is the costliest import of the package, and a serial run never needs it
    from concurrent.futures import ProcessPoolExecutor

    order = sorted(range(len(jobs)), key=lambda i: -len(load_group(jobs[i][0]).F))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        done = dict(zip(order, pool.map(fn, [jobs[i] for i in order])))
    return [done[i] for i in range(len(jobs))]


# -- 1: presentation fidelity ----------------------------------------------------


def _crit_presentations(suite: str, seed: int):
    entries = []
    for gid in GROUP_IDS:
        rep = load_group(gid).check_presentation()
        entries.append({"group": gid, "violations": rep["violations"]})
    ok = all(not e["violations"] for e in entries)
    return ok, {"groups": len(entries), "entries": entries}


# -- 2: closed-form conjugacy vs brute force --------------------------------------


def _conj_sweep(job):
    """One group: compare class membership with an exhaustive conjugate set.

    Conjugators come from ball(8); every witness needed for ball(2) pairs
    sits well inside that radius, so the brute set is the ground truth.
    """
    gid, inner_radius = job
    G = load_group(gid)
    inner = G.ball(inner_radius)
    outer = G.ball(2)
    pairs = 0
    disagreements = []
    for g in inner:
        reach = conjugates_within(G, g, 8)
        cls = conjugacy_class(G, g)
        for h in outer:
            pairs += 1
            if cls.contains(h) != (h in reach):
                disagreements.append(
                    {"group": gid, "g": g.to_json(), "h": h.to_json(),
                     "closed_form": cls.contains(h), "brute": h in reach})
    return {"group": gid, "pairs": pairs, "disagreements": disagreements}


def _crit_conjugacy(suite: str, seed: int):
    inner_radius = 1 if suite == "fast" else 2
    reports = _pmap(_conj_sweep, [(gid, inner_radius) for gid in GROUP_IDS])
    disagreements = [d for rep in reports for d in rep["disagreements"]]
    detail = {
        "groups": len(reports),
        "pairs": sum(rep["pairs"] for rep in reports),
        "conjugator_radius": 8,
        "disagreements": disagreements,
    }
    return not disagreements, detail


# -- 3: K_f lattice facts ----------------------------------------------------------


def _crit_klattices(suite: str, seed: int):
    p6 = load_group("p6")
    k2 = kf(p6, "rho2")
    k3 = kf(p6, "rho3")
    checks = {
        "kf_identity_is_zero": all(
            kf(load_group(gid), "1") == Sublattice.zero(2) for gid in GROUP_IDS),
        "p6_kf_rho2": k2 == Sublattice(2, [(-2, 1), (1, 1)]),
        "p6_kf_rho3": k3 == Sublattice(2, [(2, 0), (0, 2)]),
        "p6_intersection": k2.intersect(k3) == Sublattice(2, [(2, 2), (2, -4)]),
    }
    return all(checks.values()), checks


# -- 4: the p4mg class table and involution roster ---------------------------------

# Stated class table for p4mg, one row per transversal part.  Sublattices:
# U = <xy, x^2>, X = <x^2>, Y = <y^2>, V = <xy>, W = <xy^-1>.  The stated
# translation row repeats its first term; the row the group satisfies has
# the swapped pair y^(+-i) x^(+-j) as second term, and the brute oracle
# arbitrates below.
_U = Sublattice(2, [(1, 1), (2, 0)])
_X = Sublattice(2, [(2, 0)])
_Y = Sublattice(2, [(0, 2)])
_V = Sublattice(2, [(1, 1)])
_W = Sublattice(2, [(1, -1)])


def _p4mg_rows(G):
    rho = G.act["rho"]
    rho3 = G.act["rho3"]
    x = (1, 0)

    def a_r(a):
        return matvec(rho, a)

    def a_r3(a):
        return matvec(rho3, a)

    return {
        "rho": lambda a: [("rho", Coset(a, _U)), ("rho3", Coset(vadd(a, x), _U))],
        "rho2": lambda a: [("rho2", Coset(a, _U))],
        "rho3": lambda a: [("rho3", Coset(a, _U)), ("rho", Coset(vadd(a, x), _U))],
        "gamma": lambda a: [
            ("gamma", Coset(a, _Y)),
            ("gamma", Coset(vadd(vneg(a), (-1, 1)), _Y)),
            ("rho2gamma", Coset(vadd(a_r(a), (1, 0)), _X)),
            ("rho2gamma", Coset(vadd(a_r3(a), (0, -1)), _X)),
        ],
        "rhogamma": lambda a: [
            ("rhogamma", Coset(a, _V)),
            ("rhogamma", Coset(vneg(a), _V)),
            ("rho3gamma", Coset(vadd((0, -1), a_r(a)), _W)),
            ("rho3gamma", Coset(vadd((-1, 0), a_r(vneg(a))), _W)),
        ],
        "rho2gamma": lambda a: [
            ("rho2gamma", Coset(a, _X)),
            ("rho2gamma", Coset(vadd(vneg(a), (1, -1)), _X)),
            ("gamma", Coset(vadd(a_r3(a), (0, 1)), _Y)),
            ("gamma", Coset(vadd(a_r(a), (-1, 0)), _Y)),
        ],
        "rho3gamma": lambda a: [
            ("rho3gamma", Coset(a, _W)),
            ("rho3gamma", Coset(vadd((-1, -1), vneg(a)), _W)),
            ("rhogamma", Coset(vadd(x, a_r3(a)), _V)),
            ("rhogamma", Coset(vadd(vneg(x), a_r(a)), _V)),
        ],
    }


def _crit_p4mg(suite: str, seed: int):
    G = load_group("p4mg")
    samples = [(i, j) for i in range(-2, 3) for j in range(-2, 3)]
    window = [(i, j) for i in range(-5, 6) for j in range(-5, 6)]
    first_mismatch = None
    discrepancies = []

    for f, row in _p4mg_rows(G).items():
        for a in samples:
            pieces = row(a)
            cls = conjugacy_class(G, Element(a, f))
            for fp in G.F:
                cosets = [c for pf, c in pieces if pf == fp]
                for b in window:
                    stated = bool(cosets) and any(c.contains(b) for c in cosets)
                    if stated != cls.contains((b, fp)) and first_mismatch is None:
                        first_mismatch = {"row": f, "a": list(a), "b": list(b), "part": fp,
                                          "stated": stated, "computed": not stated}

    # translation row: the literal reading x^(+-i) y^(+-j) alone
    literal_misses = 0
    resolved_ok = True
    for i, j in samples:
        literal = {(si * i, sj * j) for si in (1, -1) for sj in (1, -1)}
        swapped = {(sj * j, si * i) for si in (1, -1) for sj in (1, -1)}
        computed = {e.a for e in conjugacy_class(G, Element((i, j), "1")).elements}
        brute = {e.a for e in conjugates_within(G, Element((i, j), "1"), 3)
                 if e.f == "1"}
        if literal != computed:
            literal_misses += 1
        if literal | swapped != computed or brute != computed:
            resolved_ok = False
    if literal_misses:
        discrepancies.append({
            "row": "translations",
            "stated": "x^(+-i) y^(+-j) listed twice",
            "resolved": "second term is the swapped pair y^(+-i) x^(+-j)",
            "oracle": "brute conjugate sweep at radius 3 matches the resolved "
                      "orbit for every sample",
            "samples_affected": literal_misses,
            "resolution_holds": resolved_ok,
        })

    loci = involution_loci(G)
    expected = {
        "rho": None, "rho3": None, "gamma": None, "rho2gamma": None,
        "rho2": Coset((0, 0), Sublattice.full(2)),
        "rhogamma": Coset((0, 0), _V),
        "rho3gamma": Coset((-1, 0), _W),
    }
    involutions_ok = loci == expected

    ok = first_mismatch is None and involutions_ok and all(
        d["resolution_holds"] for d in discrepancies)
    detail = {
        "rows_checked": 8,
        "translation_samples": len(samples),
        "nontranslation_rows_match": first_mismatch is None,
        "first_mismatch": first_mismatch,
        "involutions_match": involutions_ok,
        "discrepancies": discrepancies,
    }
    return ok, detail


# -- 5: the nontrivial map catalog --------------------------------------------------


def _crit_catalog(suite: str, seed: int):
    radius = 3 if suite == "fast" else 4
    entries = []
    for gid, names in maps.NONTRIVIAL_CATALOG.items():
        G = load_group(gid)
        for name in names:
            m = maps.generator(G, name)
            rep = maps.is_wct_on_ball(G, m, radius)
            # the certificate is exact from radius 1 on, so radius 2 settles it
            cert = maps.nontriviality_certificate(G, m, 2)
            entries.append({
                "group": gid, "map": name, "wct_ok": rep["ok"],
                "pairs_checked": rep["pairs_checked"],
                "proven": maps.decide(G, m)["ok"],
                "certificate_radius": 2 if cert else None,
            })
    ok = all(e["wct_ok"] and e["proven"] and e["certificate_radius"] is not None
             for e in entries)
    return ok, {"maps": len(entries), "radius": radius, "entries": entries}


# -- 6: candidates that must fail ---------------------------------------------------


def _crit_failures(suite: str, seed: int):
    G = load_group("p4")
    m = maps.generator(G, "conj_rho_on_rho2")
    g1 = Element((1, 0), "1")
    g2 = Element((1, 0), "rho2")
    lhs = m.apply(G.mul(g1, g2))
    rhs = G.mul(m.apply(g1), m.apply(g2))
    p4_entry = {
        "candidate": "p4 conj_rho_on_rho2",
        "ball_check_fails": not maps.is_wct_on_ball(G, m, 2)["ok"],
        "obstruction": "y^2 rho2 is not conjugate to x y rho2",
        "obstruction_holds": (
            lhs == Element((0, 2), "rho2")
            and rhs == Element((1, 1), "rho2")
            and not is_conjugate(G, lhs, rhs)),
    }

    # the order-2 candidate twists the r coset by theta; it multiplies as an
    # exact antihomomorphism, so it fails to leave the trivial maps
    p2_entries = []
    for label, theta in P2_THETAS:
        H = semidirect.build(theta, 2)
        cand = semidirect.p2_candidate(H)
        p2_entries.append({
            "theta": label,
            "exact_antihomomorphism":
                maps.antihomomorphism_failure(H, cand) is None,
            "class_condition_holds": semidirect.verify_sd(H, cand, 2)["ok"],
            "no_nontriviality_certificate":
                maps.nontriviality_certificate(H, cand, 3) is None,
        })

    ok = (p4_entry["ball_check_fails"] and p4_entry["obstruction_holds"]
          and all(e["exact_antihomomorphism"] and e["class_condition_holds"]
                  and e["no_nontriviality_certificate"] for e in p2_entries))
    return ok, {"p4": p4_entry, "p2_candidates": p2_entries}


# -- 7: relation suites and normality ------------------------------------------------


def _crit_relations(suite: str, seed: int):
    suites = []
    ok = True
    for gid in ("p3", "p4", "p6"):
        rep = maps.wgroup_relations(load_group(gid))
        resolved = [r["relation"] for r in rep["relations"] if "resolved" in r]
        suites.append({
            "group": gid,
            "relations": len(rep["relations"]),
            "ok": rep["ok"],
            "resolved": resolved,
        })
        ok = ok and rep["ok"]
    normality = []
    for gid in ("p4", "p6"):
        rep = maps.normality_check(load_group(gid))
        normality.append({"group": gid, "pairs": len(rep["pairs"]), "ok": rep["ok"]})
        ok = ok and rep["ok"]
    return ok, {"suites": suites, "normality": normality}


# -- 8: the semidirect twist map ------------------------------------------------------


def _crit_semidirect(suite: str, seed: int):
    entries = []
    for label, p, theta in SD_CASES:
        G = semidirect.build(theta, p)
        phi = semidirect.phi_for_odd_p(G)
        rep = semidirect.verify_sd(G, phi, 3)
        cert = maps.nontriviality_certificate(G, phi, 2)
        entries.append({
            "case": label, "n": G.n, "p": p,
            "verified": rep["ok"],
            "uniform": set(rep["methods"].values()) == {"uniform"},
            "nontrivial": cert is not None,
        })
    ok = all(e["verified"] and e["nontrivial"] for e in entries)
    return ok, {"cases": entries}


# -- 9: consequences of the defining condition ----------------------------------------


def _crit_axioms(suite: str, seed: int):
    entries = []
    for gid, names in maps.NONTRIVIAL_CATALOG.items():
        G = load_group(gid)
        for name in names:
            rep = maps.wct_invariants(G, maps.generator(G, name), 2)
            entries.append({"map": f"{gid}:{name}", "ok": rep["ok"]})
    for label, p, theta in SD_CASES:
        G = semidirect.build(theta, p)
        rep = semidirect.sd_invariants(G, semidirect.phi_for_odd_p(G), 2)
        entries.append({"map": f"semidirect p={p} n={G.n}", "ok": rep["ok"]})
    ok = all(e["ok"] for e in entries)
    return ok, {"maps": len(entries), "entries": entries}


# -- 10: random search over the groups with trivial catalog ----------------------------


def _search_group(job):
    """Screen random candidates, escalating survivors to the full ball check.

    The screen pairs live in ball(2), so failing the class condition there
    already refutes the radius-3 check; the screen never discards a map the
    full check would keep.
    """
    gid, count, seed = job
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
    survivors = passers = hits = 0
    for _ in range(count):
        m = maps.random_map(G, rnd)
        if not all(
            is_conjugate(G, m.apply(G.mul(g1, g2)),
                         G.mul(m.apply(g1), m.apply(g2)))
            for g1, g2 in screen):
            continue
        survivors += 1
        if not maps.is_wct_on_ball(G, m, 1)["ok"]:
            continue
        if not maps.is_wct_on_ball(G, m, 3)["ok"]:
            continue
        passers += 1
        if maps.nontriviality_certificate(G, m, 3) is not None:
            hits += 1
    return {"group": gid, "candidates": count, "screen_survivors": survivors,
            "ball_passers": passers, "nontrivial_hits": hits}


def _crit_search(suite: str, seed: int):
    count = 1000 if suite == "fast" else 10000
    reports = _pmap(_search_group, [(gid, count, seed) for gid in TRIVIAL_GROUPS])
    ok = all(rep["nontrivial_hits"] == 0 for rep in reports)
    detail = {
        "groups": len(reports),
        "candidates_per_group": count,
        "total_candidates": sum(rep["candidates"] for rep in reports),
        "reports": reports,
    }
    return ok, detail


CRITERIA = (
    (1, "presentation fidelity", _crit_presentations, 1.0),
    (2, "conjugacy closed form vs brute force", _crit_conjugacy, 300.0),
    (3, "K_f lattice facts", _crit_klattices, None),
    (4, "p4mg class table and involutions", _crit_p4mg, None),
    (5, "nontrivial map catalog", _crit_catalog, 300.0),
    (6, "known failing candidates", _crit_failures, None),
    (7, "relation suites and normality", _crit_relations, None),
    (8, "semidirect twist map", _crit_semidirect, 120.0),
    (9, "weak Cayley table consequences", _crit_axioms, None),
    (10, "random search over trivial groups", _crit_search, 600.0),
)


def run_criterion(number: int, suite: str = "full", seed: int = 0) -> dict:
    for num, name, fn, budget in CRITERIA:
        if num == number:
            break
    else:
        raise ValueError(f"no criterion {number}")
    start = time.perf_counter()
    ok, detail = fn(suite, seed)
    elapsed = time.perf_counter() - start
    within = budget is None or elapsed < budget
    return {
        "criterion": num,
        "name": name,
        "ok": ok and within,
        "seconds": round(elapsed, 3),
        "budget_seconds": budget,
        "within_budget": within,
        "detail": detail,
    }


def run_suite(suite: str = "full", seed: int = 0, progress=None) -> dict:
    """Run all ten criteria; progress, if given, receives each result dict."""
    if suite not in ("fast", "full"):
        raise ValueError(f"unknown suite {suite!r}")
    results = []
    for num, _, _, _ in CRITERIA:
        res = run_criterion(num, suite, seed)
        results.append(res)
        if progress is not None:
            progress(res)
    return {
        "schema": "wct/1",
        "command": "acceptance",
        "suite": suite,
        "seed": seed,
        "workers": worker_count(),
        "ok": all(r["ok"] for r in results),
        "criteria": results,
    }
