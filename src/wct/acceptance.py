"""Acceptance battery: ten numbered checks, each scored against its own oracle.

run_suite is pure compute and returns a JSON-ready report; printing belongs to
the CLI.  The "fast" suite shrinks the two sweep-heavy checks, the "full"
suite runs them at the advertised scale.  Every check carries a wall-clock
budget that is part of the verdict.  WCT_THREADS caps the worker processes
used for the sweeps; the cap never raises the count above the CPUs this
process may run on, and one worker means plain serial execution.
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
from .lattice import Coset, Sublattice, matmul, matvec, vadd, vsub

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
    affinity = getattr(os, "sched_getaffinity", None)  # absent on macOS and Windows
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
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
    sits well inside that radius, so the brute set is the ground truth, kept
    to the conjugates in ball(2), the only ones a pair asks about."""
    gid, inner_radius = job
    G = load_group(gid)
    radius = 2  # h ranges over ball(radius), and the brute set keeps just that ball
    inner = G.ball(inner_radius)
    outer = G.ball(radius)
    pairs = 0
    disagreements = []
    for g in inner:
        reach = conjugates_within(G, g, 8, radius)
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


def _closed_under_matmul(mats: set) -> bool:
    return all(matmul(x, y) in mats for x in mats for y in mats)


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
        # a translation's class is its orbit under the point group, so the
        # act matrices that conjugate the identity's part onto itself form a group
        "translation_conjugators_closed": all(
            _closed_under_matmul({m for _, m, _ in G.conjugators[G.identity.f, G.identity.f]})
            for G in map(load_group, GROUP_IDS)),
    }
    return all(checks.values()), checks


# -- 4: the p4mg class table and involution roster ---------------------------------

# Stated class table for p4mg, one row per transversal part f: each piece
# (h, P, c, L) is the coset P a + c + L of part h that the class of a*f meets.
# Sublattices: U = <xy, x^2>, X = <x^2>, Y = <y^2>, V = <xy>, W = <xy^-1>;
# R and R3 are the quarter turns act(rho) and act(rho3).  The stated
# translation row repeats its first term, x^(+-i) y^(+-j); the row the group
# satisfies has the swapped pair y^(+-i) x^(+-j) as second term, and the
# brute oracle arbitrates below.
_U = Sublattice(2, [(1, 1), (2, 0)])
_X = Sublattice(2, [(2, 0)])
_Y = Sublattice(2, [(0, 2)])
_V = Sublattice(2, [(1, 1)])
_W = Sublattice(2, [(1, -1)])
_O = (0, 0)
_I, _NEG = ((1, 0), (0, 1)), ((-1, 0), (0, -1))
_R, _R3 = ((0, -1), (1, 0)), ((0, 1), (-1, 0))

_P4MG_ROWS = {
    "rho": [("rho", _I, _O, _U), ("rho3", _I, (1, 0), _U)],
    "rho2": [("rho2", _I, _O, _U)],
    "rho3": [("rho3", _I, _O, _U), ("rho", _I, (1, 0), _U)],
    "gamma": [("gamma", _I, _O, _Y), ("gamma", _NEG, (-1, 1), _Y),
              ("rho2gamma", _R, (1, 0), _X), ("rho2gamma", _R3, (0, -1), _X)],
    "rhogamma": [("rhogamma", _I, _O, _V), ("rhogamma", _NEG, _O, _V),
                 ("rho3gamma", _R, (0, -1), _W), ("rho3gamma", _R3, (-1, 0), _W)],
    "rho2gamma": [("rho2gamma", _I, _O, _X), ("rho2gamma", _NEG, (1, -1), _X),
                  ("gamma", _R3, (0, 1), _Y), ("gamma", _R, (-1, 0), _Y)],
    "rho3gamma": [("rho3gamma", _I, _O, _W), ("rho3gamma", _NEG, (-1, -1), _W),
                  ("rhogamma", _R3, (1, 0), _V), ("rhogamma", _R, (-1, 0), _V)],
}
_DIAGONAL = [((si, 0), (0, sj)) for si in (1, -1) for sj in (1, -1)]
_LITERAL = [("1", P, _O, Sublattice.zero(2)) for P in _DIAGONAL]
_RESOLVED = _LITERAL + [("1", P[::-1], _O, Sublattice.zero(2)) for P in _DIAGONAL]


def _row_mismatch(G, f: str, pieces: list):
    """Where the stated class of a*f, given as pieces (h, P, c, L), and
    conjugacy_class differ, over all a and b in Z^2: a first_mismatch dict,
    or None when they agree.

    Per part h in G.F order, each stated piece must lie in the union of the
    closed-form cosets N a + s + K_h, for the entries (_, N, s) of
    G.conjugators[f, h], and then each of those in the union of the stated
    pieces.  The points of a coset Q a + d + M are d + [Q | M's rows] v for
    v = (a, u) in Z^(2 + rank M), and such a point lies in Q' a + d' + M'
    exactly when (d - d') + [Q - Q' | M's rows] v lies in M', so
    maps.uncovered_point decides each inclusion and names a v outside it.
    That miss is re-checked against conjugacy_class and the stated cosets by
    an explicit raise that python -O keeps.
    """
    for h in G.F:
        stated = [(P, c, L) for part, P, c, L in pieces if part == h]
        closed = [(N, s, G.slack[h]) for _, N, s in G.conjugators[f, h]]
        for inner, outer in ((stated, closed), (closed, stated)):
            for P, c, L in inner:
                v = maps.uncovered_point(2 + L.rank, [
                    (vsub(c, s), [*map(vsub, zip(*P), zip(*N)), *L.rows], K)
                    for N, s, K in outer])
                if v is None:
                    continue
                a, b = v[:2], vadd(c, matvec(tuple(zip(*zip(*P), *L.rows)), v))
                said = any(Coset(vadd(matvec(Q, a), d), M).contains(b) for Q, d, M in stated)
                computed = conjugacy_class(G, Element(a, f)).contains((b, h))
                if said == computed:
                    raise AssertionError(
                        f"p4mg row {f}: the cosets of part {h} disagree at a = {a}, "
                        f"b = {b}, but both sides say {said}")
                return {"row": f, "a": list(a), "b": list(b), "part": h,
                        "stated": said, "computed": computed}
    return None


def _crit_p4mg(suite: str, seed: int):
    """The stated p4mg table against conjugacy_class over all of Z^2, one
    exact _row_mismatch per row, and the involution roster.

    The translation row as stated misses the swapped pair: its mismatch is
    literal_witness.  The resolved row must match, and the brute conjugate
    sweep at radius 3 must give its orbit at each sample a, an oracle that
    shares nothing with conjugacy_class.
    """
    G = load_group("p4mg")
    samples = [(i, j) for i in range(-2, 3) for j in range(-2, 3)]
    first_mismatch = next(filter(None, (_row_mismatch(G, f, pieces)
                                        for f, pieces in _P4MG_ROWS.items())), None)

    discrepancies = []
    literal_witness = _row_mismatch(G, "1", _LITERAL)
    if literal_witness is not None:
        resolved_ok = _row_mismatch(G, "1", _RESOLVED) is None and all(
            {e.a for e in conjugates_within(G, Element(a, "1"), 3) if e.f == "1"}
            == {matvec(P, a) for _, P, _, _ in _RESOLVED} for a in samples)
        discrepancies.append({
            "row": "translations",
            "stated": "x^(+-i) y^(+-j) listed twice",
            "resolved": "second term is the swapped pair y^(+-i) x^(+-j)",
            "oracle": "brute conjugate sweep at radius 3 matches the resolved "
                      "orbit for every sample",
            "literal_witness": literal_witness,
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


_UNIT_STEPS = (((1, 0), (0, 0)), ((0, 1), (0, 0)), ((0, 0), (1, 0)), ((0, 0), (0, 1)))


def _pair_form_agreement(G, m) -> tuple:
    """(probed, agreeing): G.pair_form against m(g1 g2) and m(g1) m(g2)
    multiplied out through G.mul and m.apply, on every pair of parts at
    (x1, x2) = the origin and the four unit steps.  Both sides are affine
    in (x1, x2), so these points pin them."""
    o = (0, 0)
    image = {g: m.apply(g) for f in G.F for g in (Element(o, f), Element((1, 0), f),
                                                  Element((0, 1), f))}
    probed = agreeing = 0
    for f1 in G.F:
        for f2 in G.F:
            lf, a0, A, rf, b0, B = G.pair_form(m, f1, f2)
            points = [((o, o), a0, b0)] + [
                (x, vadd(a0, ca), vadd(b0, cb))
                for x, ca, cb in zip(_UNIT_STEPS, A, B, strict=True)]
            for (x1, x2), lhs, rhs in points:
                g1, g2 = Element(x1, f1), Element(x2, f2)
                probed += 1
                agreeing += (m.apply(G.mul(g1, g2)) == (lhs, lf)
                             and G.mul(image[g1], image[g2]) == (rhs, rf))
    return probed, agreeing


def _crit_catalog(suite: str, seed: int):
    """Each catalog map is proven by decide and checked on a ball, and the
    pair form that decide and the ball check both read is held to G.mul and
    m.apply: pair_form_points counts the probe points where it agrees, and
    every probed point must."""
    radius = 3 if suite == "fast" else 4
    entries = []
    probed = agreeing = 0
    for gid, names in maps.NONTRIVIAL_CATALOG.items():
        G = load_group(gid)
        for name in names:
            m = maps.generator(G, name)
            points, good = _pair_form_agreement(G, m)
            probed += points
            agreeing += good
            rep = maps.is_wct_on_ball(G, m, radius)
            # the certificate is exact from radius 1 on, so radius 2 settles it
            cert = maps.nontriviality_certificate(G, m, 2)
            entries.append({
                "group": gid, "map": name, "wct_ok": rep["ok"],
                "pairs_checked": rep["pairs_checked"],
                "proven": maps.decide(G, m)["ok"],
                "certificate_radius": 2 if cert else None,
            })
    ok = agreeing == probed and all(
        e["wct_ok"] and e["proven"] and e["certificate_radius"] is not None
        for e in entries)
    return ok, {"maps": len(entries), "radius": radius,
                "pair_form_points": agreeing, "entries": entries}


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
            "class_condition_holds": maps.decide(H, cand)["ok"],
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
    for gid in maps.NONTRIVIAL_CATALOG:
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
    for gid in maps.W0_GENERATORS:
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
        rep = maps.decide(G, phi)
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
            rep = maps.forced_consequences(G, maps.generator(G, name))
            entries.append({"map": f"{gid}:{name}", "ok": rep["ok"]})
    for label, p, theta in SD_CASES:
        G = semidirect.build(theta, p)
        rep = maps.forced_consequences(G, semidirect.phi_for_odd_p(G))
        entries.append({"map": f"semidirect p={p} n={G.n}", "ok": rep["ok"]})
    ok = all(e["ok"] for e in entries)
    return ok, {"maps": len(entries), "entries": entries}


# -- 10: random search over the groups with trivial catalog ----------------------------


def _search_group(job):
    """Refute random candidates that move e, settling the rest with maps.decide.

    Every WCT map m fixes e: with g1 = m^-1(e) and g2 = e, the condition
    m(g1 g2) ~ m(g1) m(g2) reads e ~ m(e), and the class of e is {e}.  So a
    candidate with m(e) != e is refuted exactly, and every counted WCT map
    is proven over the whole group; screen_survivors counts those fixing e.
    """
    gid, count, seed = job
    G = load_group(gid)
    rnd = random.Random(f"{seed}:{gid}")
    survivors = wct_maps = hits = 0
    for _ in range(count):
        m = maps.random_map(G, rnd)
        if m.apply(G.identity) != G.identity:
            continue
        survivors += 1
        if not maps.decide(G, m)["ok"]:
            continue
        wct_maps += 1
        if maps.nontriviality_certificate(G, m, 3) is not None:
            hits += 1
    return {"group": gid, "candidates": count, "screen_survivors": survivors,
            "wct_maps": wct_maps, "nontrivial_hits": hits}


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
    try:
        ok, detail = fn(suite, seed)
    except Exception as exc:  # a fault fails its own criterion; the others still run
        # imported here: it adds about 3 ms to `import wct`, and a healthy run never needs it
        import traceback

        ok, detail = False, {"fault": f"{type(exc).__name__}: {exc}",
                             "traceback": traceback.format_exc()}
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
