"""Acceptance gate: the full battery, one verdict line per criterion.

Run with -v to see each criterion as its own test; the printed line repeats
the verdict with timing so failures carry their own context.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wct
from wct import acceptance
from wct.acceptance import CRITERIA, run_criterion, run_suite
from wct.groups import GROUP_IDS
from wct.lattice import Coset


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
    assert all(e["certificate_radius"] <= 3 for e in detail["entries"])
    assert all(e["proven"] for e in detail["entries"])


def _check_failures(detail):
    assert detail["p4"]["obstruction"] == "y^2 rho2 is not conjugate to x y rho2"
    assert len(detail["p2_candidates"]) == 3
    assert all(e["exact_antihomomorphism"] for e in detail["p2_candidates"])


def _check_relations(detail):
    resolved = {s["group"]: s["resolved"] for s in detail["suites"]}
    assert resolved["p3"] == ["psi_x^I_rho = I_y^-1"]
    assert resolved["p4"] == ["tau_rho2^psi_y = tau_rho2 tau_x tau_y^-1"]
    assert resolved["p6"] == []
    assert [n["group"] for n in detail["normality"]] == ["p4", "p6"]


def _check_semidirect(detail):
    assert [(e["n"], e["p"]) for e in detail["cases"]] == [(2, 3), (3, 3), (4, 5)]
    assert all(e["uniform"] for e in detail["cases"])


def _check_axioms(detail):
    assert detail["maps"] == 17  # 14 wallpaper maps + 3 semidirect cases


def _check_search(detail):
    assert detail["total_candidates"] == 120000
    assert all(r["nontrivial_hits"] == 0 for r in detail["reports"])


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


def test_fast_suite_report_shape():
    seen = []
    report = run_suite("fast", seed=0, progress=seen.append)
    assert report["ok"]
    assert report["schema"] == "wct/1"
    assert [r["criterion"] for r in report["criteria"]] == list(range(1, 11))
    assert len(seen) == 10
    assert report["workers"] >= 1
    json.dumps(report)  # the whole report must be JSON-serializable


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


@pytest.mark.parametrize("number", (2, 10))
def test_parallel_detail_matches_serial(monkeypatch, number):
    # two CPUs whatever the host has, so WCT_THREADS=2 really opens the pool
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    details = []
    for threads in ("1", "2"):
        monkeypatch.setenv("WCT_THREADS", threads)
        details.append(run_criterion(number, "fast")["detail"])
    assert details[0] == details[1]


def test_parallel_results_keep_group_order(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv("WCT_THREADS", "2")
    monkeypatch.setattr(acceptance, "_conj_sweep", _tagged_sweep)
    ok, detail = acceptance._crit_conjugacy("fast", 0)
    assert not ok
    assert [d["group"] for d in detail["disagreements"]] == list(GROUP_IDS)
    assert os.getpid() not in {d["pid"] for d in detail["disagreements"]}


def test_p4mg_names_first_mismatch(monkeypatch):
    rows = acceptance._p4mg_rows

    def wrong_rho2(G):
        # the stated rho2 row with X = <x^2> in place of U = <xy, x^2>
        out = rows(G)
        out["rho2"] = lambda a: [("rho2", Coset(a, acceptance._X))]
        return out

    monkeypatch.setattr(acceptance, "_p4mg_rows", wrong_rho2)
    res = run_criterion(4, "fast")
    assert not res["ok"]
    assert res["detail"]["nontranslation_rows_match"] is False
    # first sample a = x^-2 y^-2, first window point b = x^-5 y^-5:
    # b - a = (-3, -3) lies in U but not in X
    assert res["detail"]["first_mismatch"] == {
        "row": "rho2", "a": [-2, -2], "b": [-5, -5], "part": "rho2",
        "stated": False, "computed": True}
