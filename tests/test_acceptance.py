"""Acceptance gate: the full battery, one verdict line per criterion.

Run with -v to see each criterion as its own test; the printed line repeats
the verdict with timing so failures carry their own context.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import wct
from wct import acceptance, maps
from wct.acceptance import CRITERIA, run_criterion, run_suite
from wct.conjugacy import CosetUnionClass, conjugacy_class
from wct.groups import GROUP_IDS, Element, GroupTable, load_group
from wct.lattice import Coset, matvec, vadd, vneg


def _check_conjugacy(detail):
    assert detail["groups"] == 17
    assert detail["pairs"] == 303750
    assert detail["conjugator_radius"] == 8
    assert detail["disagreements"] == []


def _check_p4mg(detail):
    assert detail["nontranslation_rows_match"]
    assert detail["first_mismatch"] is None
    assert detail["involutions_match"]
    # the stated table needs exactly one repair, on the translation row
    assert [d["row"] for d in detail["discrepancies"]] == ["translations"]
    assert all(d["resolution_holds"] for d in detail["discrepancies"])


def _check_catalog(detail):
    assert detail["maps"] == 14
    assert detail["pair_form_points"] == 1685  # 5 points on each of 337 part pairs
    assert all(e["nontrivial"] is True for e in detail["entries"])
    assert all(e["proven"] for e in detail["entries"])


def _check_failures(detail):
    assert detail["p4"]["obstruction"] == "y^2 rho2 is not conjugate to x y rho2"
    assert len(detail["p2_candidates"]) == 3
    assert all(e["exact_antihomomorphism"] for e in detail["p2_candidates"])


def _check_relations(detail):
    resolved = {s["group"]: s["resolved"] for s in detail["suites"]}
    assert list(resolved) == list(maps.NONTRIVIAL_CATALOG)
    assert resolved["p2mm"] == []
    assert resolved["p3"] == ["psi_x^I_rho = I_y^-1"]
    assert resolved["p4"] == ["tau_rho2^psi_y = tau_rho2 tau_x tau_y^-1"]
    assert resolved["p6"] == []
    assert [n["group"] for n in detail["normality"]] == ["p4", "p6"]


def _check_semidirect(detail):
    assert [(e["n"], e["p"]) for e in detail["cases"]] == [(2, 3), (3, 3), (4, 5)]
    assert all(e["uniform"] for e in detail["cases"])


def _check_axioms(detail):
    assert detail["maps"] == 17  # 14 wallpaper maps + 3 semidirect cases
    assert all(e["proven"] for e in detail["entries"])


def _check_search(detail):
    assert detail["total_candidates"] == 120000
    assert all(r["nontrivial_hits"] == 0 for r in detail["reports"])
    # at seed 0 only p2's sample holds WCT maps, all of them trivial
    assert {r["group"]: r["wct_maps"] for r in detail["reports"]} == {
        gid: 5 if gid == "p2" else 0 for gid in acceptance.TRIVIAL_GROUPS}


EXTRA_CHECKS = {
    2: _check_conjugacy,
    4: _check_p4mg,
    5: _check_catalog,
    6: _check_failures,
    7: _check_relations,
    8: _check_semidirect,
    9: _check_axioms,
    10: _check_search,
}


@pytest.mark.parametrize(
    "number,name",
    [(num, name) for num, name, _, _ in CRITERIA],
    ids=[f"{num:02d}-{name.replace(' ', '-')}" for num, name, _, _ in CRITERIA],
)
def test_criterion(number, name):
    res = run_criterion(number, suite="full", seed=0)
    verdict = "pass" if res["ok"] else "FAIL"
    print(f"criterion {number:>2} {name}: {verdict} ({res['seconds']}s)")
    assert res["within_budget"], (res["seconds"], res["budget_seconds"])
    assert res["ok"], json.dumps(res["detail"], default=str)[:4000]
    extra = EXTRA_CHECKS.get(number)
    if extra is not None:
        extra(res["detail"])


FAST_REPORT = Path(__file__).parent / "data" / "acceptance_fast.json"


def _pinned(report: dict) -> dict:
    """The report without what depends on the host: the worker count and
    each criterion's seconds and within_budget."""
    out = {k: v for k, v in report.items() if k != "workers"}
    out["criteria"] = [{k: v for k, v in r.items() if k not in ("seconds", "within_budget")}
                       for r in report["criteria"]]
    return out


def test_fast_suite_report_shape():
    seen = []
    report = run_suite("fast", seed=0, progress=seen.append)
    assert report["ok"]
    assert report["schema"] == "wct/1"
    assert [r["criterion"] for r in report["criteria"]] == list(range(1, 11))
    assert len(seen) == 10
    assert report["workers"] >= 1
    # the whole report is JSON, and apart from the host-dependent keys it is
    # the committed one, written as json.dumps(_pinned(report), indent=1)
    assert json.loads(json.dumps(_pinned(report))) == json.loads(FAST_REPORT.read_text())


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("exhaustive")
    with pytest.raises(ValueError, match="criterion"):
        run_criterion(11)


def test_catalog_criterion_gates_on_the_exact_verdict(monkeypatch):
    # the ball check stays the stated oracle; a map decide does not prove
    # fails the criterion even where the ball passes
    def refuted(G, m):
        return {"ok": False, "witness": [], "methods": {}}

    monkeypatch.setattr(acceptance.maps, "decide", refuted)
    res = run_criterion(5, "fast")
    assert not res["ok"]
    assert all(e["wct_ok"] and not e["proven"] for e in res["detail"]["entries"])


def test_catalog_criterion_gates_on_nontriviality(monkeypatch):
    # a proven map that is a homomorphism or an antihomomorphism is no
    # entry of the nontrivial catalog
    monkeypatch.setattr(acceptance.maps, "nontriviality_certificate", lambda G, m, radius: None)
    res = run_criterion(5, "fast")
    assert not res["ok"]
    assert all(e["proven"] and not e["nontrivial"] for e in res["detail"]["entries"])


def test_catalog_criterion_faults_when_the_ball_refutes_a_proof(monkeypatch):
    # as in verify-map, a proof that its oracle contradicts is a fault of
    # the program, reported in the criterion's detail
    def refuting(G, m, radius):
        return {"ok": False, "witness": [], "radius": radius, "pairs_checked": 1}

    monkeypatch.setattr(acceptance.maps, "is_wct_on_ball", refuting)
    res = run_criterion(5, "fast")
    assert not res["ok"]
    assert res["detail"]["fault"].startswith(
        "AssertionError: decide proves the map, but the ball check refutes it")


def test_fast_conjugacy_criterion():
    res = run_criterion(2, suite="fast")
    assert res["ok"]
    assert res["detail"]["pairs"] == 109350
    assert res["detail"]["conjugator_radius"] == 8
    assert res["detail"]["disagreements"] == []


def test_import_leaves_process_pool_unloaded():
    src = str(Path(wct.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, wct; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _tagged_sweep(job):
    """Stands in for criterion 2's sweep: one disagreement naming its group
    and the process that ran it."""
    gid, _ = job
    return {"group": gid, "pairs": 1,
            "disagreements": [{"group": gid, "pid": os.getpid()}]}


def _allow_cpus(monkeypatch, n):
    """Let this process run on n CPUs, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.mark.parametrize("number", (2, 10))
def test_parallel_detail_matches_serial(monkeypatch, number):
    # two CPUs whatever the host has, so WCT_THREADS=2 really opens the pool
    _allow_cpus(monkeypatch, 2)
    details = []
    for threads in ("1", "2"):
        monkeypatch.setenv("WCT_THREADS", threads)
        details.append(run_criterion(number, "fast")["detail"])
    assert details[0] == details[1]


def test_parallel_results_keep_group_order(monkeypatch):
    _allow_cpus(monkeypatch, 2)
    monkeypatch.setenv("WCT_THREADS", "2")
    monkeypatch.setattr(acceptance, "_conj_sweep", _tagged_sweep)
    ok, detail = acceptance._crit_conjugacy("fast", 0)
    assert not ok
    assert [d["group"] for d in detail["disagreements"]] == list(GROUP_IDS)
    assert os.getpid() not in {d["pid"] for d in detail["disagreements"]}


def test_one_cpu_affinity_runs_serially(monkeypatch):
    # a CPU-pinned process on a many-CPU host: os.cpu_count() still reads 64
    _allow_cpus(monkeypatch, 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.delenv("WCT_THREADS", raising=False)
    monkeypatch.setattr(acceptance, "_conj_sweep", _tagged_sweep)
    monkeypatch.setattr(acceptance, "CRITERIA", tuple(c for c in CRITERIA if c[0] == 2))
    report = run_suite("fast")
    assert report["workers"] == 1
    (res,) = report["criteria"]
    assert {d["pid"] for d in res["detail"]["disagreements"]} == {os.getpid()}
    monkeypatch.setenv("WCT_THREADS", "4")  # the cap cannot raise the count past the affinity
    assert acceptance.worker_count() == 1


def test_empty_wct_threads_means_unset(monkeypatch):
    _allow_cpus(monkeypatch, 3)
    monkeypatch.setenv("WCT_THREADS", "")
    assert acceptance.worker_count() == 3
    monkeypatch.setenv("WCT_THREADS", "2")
    assert acceptance.worker_count() == 2
    monkeypatch.setenv("WCT_THREADS", "0")
    with pytest.raises(ValueError, match="WCT_THREADS"):
        acceptance.worker_count()


def test_conjugacy_criterion_catches_a_dropped_residue(monkeypatch):
    # the class of the half turn rho in p2 loses the residue of rho itself
    monkeypatch.setenv("WCT_THREADS", "1")
    rho = Element((0, 0), "rho")
    real = acceptance.conjugacy_class

    def lossy(G, g):
        cls = real(G, g)
        if G.gid != "p2" or g != rho:
            return cls
        parts = tuple((h, lat, offs - {lat.reduce(rho.a)} if h == "rho" else offs)
                      for h, lat, offs in cls.parts)
        return CosetUnionClass(parts, cls.check)

    monkeypatch.setattr(acceptance, "conjugacy_class", lossy)
    res = run_criterion(2, "fast")
    assert not res["ok"]
    assert res["detail"]["disagreements"][0] == {
        "group": "p2", "g": rho.to_json(), "h": rho.to_json(),
        "closed_form": False, "brute": True}


def _stated_cosets(pieces, a):
    """A row of the stated table at a, as (part, Coset) pairs."""
    return [(h, Coset(vadd(matvec(P, a), c), L)) for h, P, c, L in pieces]


def _rows_as_functions(G):
    """The stated table written out per row as a function of a, giving
    (part, Coset) pairs: the reference the data table is held to."""
    U, X, Y, V, W = (acceptance._U, acceptance._X, acceptance._Y, acceptance._V,
                     acceptance._W)
    x = (1, 0)

    def r(a):
        return matvec(G.act["rho"], a)

    def r3(a):
        return matvec(G.act["rho3"], a)

    return {
        "rho": lambda a: [("rho", Coset(a, U)), ("rho3", Coset(vadd(a, x), U))],
        "rho2": lambda a: [("rho2", Coset(a, U))],
        "rho3": lambda a: [("rho3", Coset(a, U)), ("rho", Coset(vadd(a, x), U))],
        "gamma": lambda a: [
            ("gamma", Coset(a, Y)), ("gamma", Coset(vadd(vneg(a), (-1, 1)), Y)),
            ("rho2gamma", Coset(vadd(r(a), (1, 0)), X)),
            ("rho2gamma", Coset(vadd(r3(a), (0, -1)), X))],
        "rhogamma": lambda a: [
            ("rhogamma", Coset(a, V)), ("rhogamma", Coset(vneg(a), V)),
            ("rho3gamma", Coset(vadd((0, -1), r(a)), W)),
            ("rho3gamma", Coset(vadd((-1, 0), r(vneg(a))), W))],
        "rho2gamma": lambda a: [
            ("rho2gamma", Coset(a, X)), ("rho2gamma", Coset(vadd(vneg(a), (1, -1)), X)),
            ("gamma", Coset(vadd(r3(a), (0, 1)), Y)),
            ("gamma", Coset(vadd(r(a), (-1, 0)), Y))],
        "rho3gamma": lambda a: [
            ("rho3gamma", Coset(a, W)), ("rho3gamma", Coset(vadd((-1, -1), vneg(a)), W)),
            ("rhogamma", Coset(vadd(x, r3(a)), V)),
            ("rhogamma", Coset(vadd(vneg(x), r(a)), V))],
    }


def test_p4mg_table_matches_the_rows_as_functions():
    G = load_group("p4mg")
    reference = _rows_as_functions(G)
    assert list(reference) == list(acceptance._P4MG_ROWS)
    assert (acceptance._R, acceptance._R3) == (G.act["rho"], G.act["rho3"])
    for f, pieces in acceptance._P4MG_ROWS.items():
        for a in product(range(-5, 6), repeat=2):
            assert _stated_cosets(pieces, a) == reference[f](a), (f, a)


def _window_first_mismatch(G, rows):
    """Criterion 4's row check as a scan of every part of every row over a
    window, point by point, at sampled a; the first mismatch in
    (row, a, part, b) order."""
    samples = [(i, j) for i in range(-2, 3) for j in range(-2, 3)]
    window = [(i, j) for i in range(-5, 6) for j in range(-5, 6)]
    for f, row in rows.items():
        for a in samples:
            pieces = _stated_cosets(row, a)
            cls = conjugacy_class(G, Element(a, f))
            for fp in G.F:
                cosets = [c for pf, c in pieces if pf == fp]
                for b in window:
                    stated = any(c.contains(b) for c in cosets)
                    if stated != cls.contains((b, fp)):
                        return {"row": f, "a": list(a), "b": list(b), "part": fp,
                                "stated": stated, "computed": not stated}
    return None


def _assert_witness(G, rows, miss):
    """miss is a real disagreement between the stated row and the class."""
    a, b, f, h = tuple(miss["a"]), tuple(miss["b"]), miss["row"], miss["part"]
    stated = any(c.contains(b) for part, c in _stated_cosets(rows[f], a) if part == h)
    assert (stated, miss["computed"]) == (miss["stated"], not stated)
    assert conjugacy_class(G, Element(a, f)).contains((b, h)) == miss["computed"]


def _wrong_rho2_lattice(rows):
    # X = <x^2> in place of U = <xy, x^2>
    rows["rho2"] = [("rho2", acceptance._I, acceptance._O, acceptance._X)]


def _moved_rho_coset(rows):
    # the second coset of the rho row moves by x, from a + x to a + 2x
    rows["rho"] = [rows["rho"][0], ("rho3", acceptance._I, (2, 0), acceptance._U)]


def _dropped_piece(rows):
    del rows["gamma"][3]


def _extra_part(rows):
    rows["rho2"] = rows["rho2"] + [("rho", acceptance._I, acceptance._O, acceptance._U)]


def _swapped_rotations(rows):
    # the rho2gamma row with its two quarter turns exchanged
    rows["rho2gamma"] = [(h, {acceptance._R: acceptance._R3, acceptance._R3: acceptance._R}
                          .get(P, P), c, L) for h, P, c, L in rows["rho2gamma"]]


def _mutated_mismatch(monkeypatch, mutate):
    """Criterion 4's first_mismatch on the stated table changed by mutate,
    checked to be real and to sit at the row and part the window scan
    flags first."""
    rows = {f: list(pieces) for f, pieces in acceptance._P4MG_ROWS.items()}
    mutate(rows)
    monkeypatch.setattr(acceptance, "_P4MG_ROWS", rows)
    G = load_group("p4mg")
    res = run_criterion(4, "fast")
    assert not res["ok"]
    assert res["detail"]["nontranslation_rows_match"] is False
    miss = res["detail"]["first_mismatch"]
    _assert_witness(G, rows, miss)
    window = _window_first_mismatch(G, rows)
    assert (miss["row"], miss["part"]) == (window["row"], window["part"])
    return miss


@pytest.mark.parametrize("mutate,row,part", [
    (_wrong_rho2_lattice, "rho2", "rho2"),
    (_dropped_piece, "gamma", "rho2gamma"),
    (_extra_part, "rho2", "rho"),
    (_swapped_rotations, "rho2gamma", "gamma"),
], ids=["wrong-lattice", "dropped-piece", "extra-part", "swapped-rotations"])
def test_p4mg_mutation_names_a_rechecked_mismatch(monkeypatch, mutate, row, part):
    miss = _mutated_mismatch(monkeypatch, mutate)
    assert (miss["row"], miss["part"]) == (row, part)


def test_p4mg_residue_mismatch_matches_the_window_scan(monkeypatch):
    # the moved coset keeps its lattice U = K_rho3, so only its residue differs
    miss = _mutated_mismatch(monkeypatch, _moved_rho_coset)
    assert (miss["row"], miss["part"]) == ("rho", "rho3")


def test_p4mg_names_first_mismatch(monkeypatch):
    rows = dict(acceptance._P4MG_ROWS)
    _wrong_rho2_lattice(rows)
    monkeypatch.setattr(acceptance, "_P4MG_ROWS", rows)
    res = run_criterion(4, "fast")
    # b - a = (-2, -2) lies in U but not in X
    assert res["detail"]["first_mismatch"] == {
        "row": "rho2", "a": [-1, -1], "b": [-3, -3], "part": "rho2",
        "stated": False, "computed": True}


def test_p4mg_literal_translation_row_has_a_witness(monkeypatch):
    G = load_group("p4mg")
    res = run_criterion(4, "fast")
    (d,) = res["detail"]["discrepancies"]
    miss = d["literal_witness"]
    assert miss == {"row": "1", "a": [-1, 0], "b": [0, -1], "part": "1",
                    "stated": False, "computed": True}
    _assert_witness(G, {"1": acceptance._LITERAL}, miss)
    assert d["resolution_holds"]
    # a resolution that still lacks one swapped term does not hold
    monkeypatch.setattr(acceptance, "_RESOLVED", acceptance._RESOLVED[:-1])
    res = run_criterion(4, "fast")
    assert not res["ok"]
    assert res["detail"]["discrepancies"][0]["resolution_holds"] is False


def test_p4mg_recheck_catches_a_false_miss(monkeypatch):
    # a cover helper that reports a miss at the origin of every inclusion
    monkeypatch.setattr(acceptance.maps, "uncovered_point", lambda d, terms: (0,) * d)
    res = run_criterion(4, "fast")
    assert not res["ok"]
    assert res["detail"]["fault"].startswith("AssertionError: p4mg row rho")


def test_catalog_criterion_checks_the_pair_form(monkeypatch):
    # a pair form that drops the column of A read by x1's first coordinate.
    # decide and the ball check read the pair form too, so both are stood in
    # by passes: the criterion's own check of the form is left to see it.
    # The catalogs are built first, since building them reads the form.
    for gid in maps.NONTRIVIAL_CATALOG:
        maps.catalog(load_group(gid))
    real = GroupTable.pair_form

    def dropped(self, m, f1, f2):
        lf, a0, A, rf, b0, B = real(self, m, f1, f2)
        return lf, a0, ((0, 0),) + A[1:], rf, b0, B

    monkeypatch.setattr(GroupTable, "pair_form", dropped)
    monkeypatch.setattr(acceptance.maps, "decide", lambda G, m: {"ok": True})
    monkeypatch.setattr(acceptance.maps, "is_wct_on_ball",
                        lambda G, m, radius: {"ok": True, "pairs_checked": 0})
    res = run_criterion(5, "fast")
    assert not res["ok"]
    assert all(e["wct_ok"] and e["proven"] for e in res["detail"]["entries"])
    assert res["detail"]["pair_form_points"] < 1685


def _drop_p6_conjugator(monkeypatch, key, label):
    """Remove the entry of conjugating part label from p6's G.conjugators[key]."""
    G = load_group("p6")
    entries = G.conjugators[key]
    monkeypatch.setitem(G.conjugators, key, tuple(e for e in entries if e[0] != label))
    assert len(G.conjugators[key]) == len(entries) - 1


def test_consequences_criterion_catches_a_dropped_conjugator(monkeypatch):
    # the class of a*rho3 loses its conjugates by rho, so the closed form is
    # no longer symmetric, and asking each class pair both ways round fails
    # every p6 map, the identity included
    _drop_p6_conjugator(monkeypatch, ("rho3", "rho3"), "rho")
    G = load_group("p6")
    assert not maps.wct_invariants(G, maps.identity_map(G))["ok"]
    assert not run_criterion(9, "fast")["ok"]


def test_conjugacy_criterion_catches_the_dropped_negation(monkeypatch):
    # without -I the translation classes of p6 stay symmetric, only not
    # transitive, so the class check of criterion 9 cannot see the drop;
    # criterion 2's brute sweep does
    _drop_p6_conjugator(monkeypatch, ("1", "1"), "rho3")
    assert run_criterion(9, "fast")["ok"]
    assert acceptance._conj_sweep(("p6", 1))["disagreements"]


@pytest.mark.parametrize("label", ("rho3", "1"))
def test_lattice_criterion_catches_a_dropped_translation_conjugator(monkeypatch, label):
    # without -I, or without the identity, the act matrices that conjugate
    # p6's translations no longer form a group: criterion 3 fails on its own
    _drop_p6_conjugator(monkeypatch, ("1", "1"), label)
    res = run_criterion(3, "fast")
    assert not res["ok"]
    assert res["detail"]["translation_conjugators_closed"] is False


def test_consequences_read_the_injectivity_pass(monkeypatch):
    G = load_group("p2")
    eye, zero = ((1, 0), (0, 1)), (0, 0)
    swap = maps.CosetwiseAffineMap(G, {"1": ("rho", eye, zero), "rho": ("1", eye, zero)})
    m = maps.identity_map(G)
    assert maps.wct_invariants(G, m)["preserves_classes"]
    assert not maps.wct_invariants(G, swap)["preserves_classes"]
    monkeypatch.setattr(maps.CosetwiseAffineMap, "invert", lambda self: swap)
    assert not maps.wct_invariants(G, m)["preserves_classes"]
