"""CLI contract: exit codes, JSON schema, round-trips."""

from __future__ import annotations

import json
import os
import shlex
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import wct
from wct.cli import main
from wct import maps
from wct.groups import Element, GroupTable, element_from_json, load_group
from wct.lattice import Sublattice
from wct.maps import CosetwiseAffineMap
from wct.conjugacy import kf, is_conjugate


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_check_presentation_all(capsys):
    code, rep = run_cli(capsys, "check-presentation")
    assert code == 0
    assert rep["schema"] == "wct/1"
    assert len(rep["entries"]) == 17
    assert all(e["violations"] == [] for e in rep["entries"])


def test_check_presentation_single(capsys):
    code, rep = run_cli(capsys, "check-presentation", "--group", "p6m")
    assert code == 0
    assert [e["group"] for e in rep["entries"]] == ["p6m"]


def test_unknown_group_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["classes", "--group", "p5"])
    assert err.value.code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_acceptance_bogus_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["acceptance", "--suite", "bogus"])
    assert err.value.code == 2


def test_classes_element_round_trip(capsys):
    code, rep = run_cli(capsys, "classes", "--group", "p6",
                        "--element", "x^2 rho3")
    assert code == 0
    g = element_from_json(rep["element"])
    assert g == Element((2, 0), "rho3")
    piece = rep["class"]["pieces"][0]
    lat = Sublattice(2, piece["lattice"])
    assert lat == kf(load_group("p6"), piece["f"])


def test_classes_sweep_lists_distinct_descriptors(capsys):
    code, rep = run_cli(capsys, "classes", "--group", "p2", "--radius", "1")
    assert code == 0
    reps = [json.dumps(c["class"], sort_keys=True) for c in rep["classes"]]
    assert len(reps) == len(set(reps))
    assert any(c["class"]["kind"] == "cosetUnion" for c in rep["classes"])


def test_involutions_output(capsys):
    code, rep = run_cli(capsys, "involutions", "--group", "p4mg")
    assert code == 0
    assert rep["loci"]["rho"] is None
    assert rep["loci"]["rhogamma"] == {"offset": [0, 0], "lattice": [[1, 1]]}


def test_verify_map_pass(capsys):
    code, rep = run_cli(capsys, "verify-map", "--group", "p3",
                        "--map", "tau", "--radius", "3")
    assert code == 0
    assert rep["ok"] and rep["nontrivial"]
    assert rep["witness"] is None
    G = load_group("p3")
    g1, g2 = (element_from_json(e) for e in rep["certificate"]["hom_witness"])
    m = CosetwiseAffineMap(
        G, {f: (r["to"], tuple(tuple(row) for row in r["m"]), tuple(r["t"]))
            for f, r in rep["map"]["rule"].items()})
    assert m.apply(G.mul(g1, g2)) != G.mul(m.apply(g1), m.apply(g2))


def test_verify_map_failure_exits_one(capsys):
    code, rep = run_cli(capsys, "verify-map", "--group", "p4",
                        "--map", "conj_rho_on_rho2", "--radius", "2")
    assert code == 1
    assert not rep["ok"] and rep["witness"] is not None
    G = load_group("p4")
    g1, g2 = (element_from_json(e) for e in rep["witness"])
    m = CosetwiseAffineMap(
        G, {f: (r["to"], tuple(tuple(row) for row in r["m"]), tuple(r["t"]))
            for f, r in rep["map"]["rule"].items()})
    lhs = m.apply(G.mul(g1, g2))
    rhs = G.mul(m.apply(g1), m.apply(g2))
    assert not is_conjugate(G, lhs, rhs)


def test_verify_map_reports_pairs_checked(capsys):
    code, rep = run_cli(capsys, "verify-map", "--group", "p4",
                        "--map", "tau_x", "--radius", "1")
    assert code == 0
    assert rep["ball"]["pairs_checked"] == len(load_group("p4").ball(1)) ** 2
    code, rep = run_cli(capsys, "verify-map", "--group", "p4",
                        "--map", "conj_rho_on_rho2", "--radius", "2")
    assert code == 1
    assert 0 < rep["ball"]["pairs_checked"] < len(load_group("p4").ball(2)) ** 2


def test_verify_map_labels_ball_evidence(capsys):
    # radius 0 sees only the origin pairs, so the ball passes a map that
    # fails from radius 1; the exact verdict leads and refutes it anyway
    code, rep = run_cli(capsys, "verify-map", "--group", "p4",
                        "--map", "conj_rho_on_rho2", "--radius", "0")
    assert code == 1 and not rep["ok"]
    assert rep["witness"] == [{"a": [0, 1], "f": "1"}, {"a": [0, 1], "f": "rho2"}]
    assert list(rep["methods"].values()) == ["uniform", "uniform", "witness"]
    assert rep["ball"] == {"ok": True, "witness": None, "radius": 0, "pairs_checked": 16}
    assert "proven" not in rep and "evidence" not in rep
    code, rep = run_cli(capsys, "verify-map", "--group", "p4",
                        "--map", "conj_rho_on_rho2", "--radius", "1")
    assert code == 1 and not rep["ok"] and not rep["ball"]["ok"]


def test_verify_map_labels_proof(capsys):
    code, rep = run_cli(capsys, "verify-map", "--group", "p3",
                        "--map", "tau", "--radius", "1")
    assert code == 0 and rep["ok"] and rep["ball"]["ok"]
    parts = load_group("p3").F
    assert rep["methods"] == {f"{f1},{f2}": "uniform" for f1 in parts for f2 in parts}


def test_verify_map_ball_disagreement_is_internal_fault(capsys, monkeypatch):
    # the ball check is the exact verdict's oracle: a proof it contradicts
    # is a fault of the program, not a verdict
    def refuting(G, m, radius):
        return {"ok": False, "witness": [], "radius": radius, "pairs_checked": 1}

    monkeypatch.setattr("wct.maps.is_wct_on_ball", refuting)
    code = main(["verify-map", "--group", "p3", "--map", "tau", "--radius", "1"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("error: internal fault: AssertionError: decide proves")


def test_wrong_pair_form_is_internal_fault(capsys, monkeypatch):
    # a pair form that drops A's first column: the catalog's homomorphism
    # check and the self-checks of decide and the ball check all read it.
    # Each is a fault of the program: verify-map exits 3, and so does the
    # battery, after every criterion has reported
    real = GroupTable.pair_form

    def zeroed(self, m, f1, f2):
        lf, a0, A, rf, b0, B = real(self, m, f1, f2)
        return lf, a0, ((0, 0),) + A[1:], rf, b0, B

    monkeypatch.setattr(GroupTable, "pair_form", zeroed)
    monkeypatch.setenv("WCT_THREADS", "1")  # serial, so the patch holds in every sweep
    maps._catalog.cache_clear()  # the catalog is built, and checked, afresh
    try:
        code = main(["verify-map", "--group", "p2mm", "--map", "tau", "--radius", "1"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith(
            "error: internal fault: AssertionError: catalog automorphism of p2mm")
        code = main(["acceptance", "--suite", "fast"])
        captured = capsys.readouterr()
    finally:
        maps._catalog.cache_clear()
    assert code == 3
    report = json.loads(captured.out)
    faulted = [r["criterion"] for r in report["criteria"] if "fault" in r["detail"]]
    assert faulted == [5, 6, 7, 9, 10]
    verdicts = [line.split(": ")[1].split()[0] for line in captured.err.splitlines()
                if line.startswith("criterion ")]
    assert verdicts == ["FAIL" if n in faulted else "pass" for n in range(1, 11)]
    for r in report["criteria"]:
        assert r["ok"] is (r["criterion"] not in faulted)
        if r["criterion"] in faulted:
            assert r["detail"]["fault"].startswith("AssertionError: ")
            assert f"error: internal fault in criterion {r['criterion']}: " \
                f"{r['detail']['fault']}" in captured.err


@pytest.mark.parametrize("argv", (
    ("--map", "conj_rho_on_rho2", "--radius", "-1"),
    ("--map", "tau_x", "--radius", "1", "--certificate-radius", "-1"),
    ("--map", "conj_rho_on_rho2", "--radius", "1", "--certificate-radius", "-1"),
))
def test_verify_map_negative_radius_is_usage_error(capsys, argv):
    code = main(["verify-map", "--group", "p4", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "radius must be non-negative" in captured.err


def test_verify_map_certificate_is_exact_at_every_radius(capsys):
    reports = []
    for radius in ("0", "1", "3"):
        code, rep = run_cli(capsys, "verify-map", "--group", "p3", "--map", "tau",
                            "--radius", "1", "--certificate-radius", radius)
        assert code == 0
        assert rep["ok"] and rep["nontrivial"]
        reports.append(rep)
    assert reports[0] == reports[1] == reports[2]


def test_python_dash_m_runs_the_cli():
    src = str(Path(wct.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "wct", "verify-map", "--group", "p3",
         "--map", "tau", "--radius", "1"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["command"] == "verify-map" and rep["ok"] and rep["nontrivial"]


def test_verify_map_expression(capsys):
    code, rep = run_cli(capsys, "verify-map", "--group", "p4",
                        "--map", "tau_x * inv(mu_rho)", "--radius", "2")
    assert code == 0
    assert rep["ok"]


def test_verify_map_unknown_name(capsys):
    code = main(["verify-map", "--group", "p4", "--map", "tau_zz"])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown map" in err


def test_wgroup_relations(capsys):
    code, rep = run_cli(capsys, "wgroup-relations", "--group", "p4")
    assert code == 0
    assert rep["relations"]["ok"] and rep["normality"]["ok"]
    code, rep = run_cli(capsys, "wgroup-relations", "--group", "p3")
    assert code == 0
    assert "normality" not in rep


def test_semidirect_phi(capsys):
    code, rep = run_cli(capsys, "semidirect", "--theta", "[[0,-1],[1,-1]]",
                        "--p", "3", "--radius", "3", "--check", "phi")
    assert code == 0
    assert rep["ok"] and rep["verify"]["ok"] and rep["nontrivial"]
    assert set(rep["verify"]["methods"].values()) == {"uniform"}
    assert rep["certificate"]["hom_witness"][0]["k"] in (0, 1, 2)


def test_semidirect_p2_candidate(capsys):
    code, rep = run_cli(capsys, "semidirect", "--theta", "[[0,1],[1,0]]",
                        "--p", "2", "--check", "p2-candidate")
    assert code == 0
    assert rep["ok"] and not rep["nontrivial"]


def test_semidirect_presentation(capsys):
    code, rep = run_cli(capsys, "semidirect", "--theta", "[[-1]]",
                        "--p", "2", "--check", "presentation")
    assert code == 0 and rep["ok"]


def test_semidirect_bad_theta(capsys):
    assert main(["semidirect", "--theta", "[[oops]]", "--p", "3"]) == 2
    assert main(["semidirect", "--theta", "[[1,0],[0,1]]", "--p", "2"]) == 2
    assert main(["semidirect", "--theta", "[[0,-1],[1,-1]]", "--p", "5"]) == 2
    assert main(["semidirect", "--theta", "[[0.5]]", "--p", "2"]) == 2
    capsys.readouterr()


def test_semidirect_impossible_order_fails_fast(capsys):
    # theta has order 3, and no 2x2 integer matrix has order 10000019;
    # the order is rejected before any power of theta is built
    start = time.perf_counter()
    code = main(["semidirect", "--theta", "[[0,-1],[1,-1]]", "--p", "10000019",
                 "--check", "presentation"])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "no 2x2 integer matrix has order 10000019" in captured.err


def test_semidirect_composite_order(capsys):
    # twisting A by the quarter turn is not a weak Cayley table map of
    # Z^2 x C_4; the verdict is exact and carries a witness
    code, rep = run_cli(capsys, "semidirect", "--theta", "[[0,-1],[1,0]]",
                        "--p", "4", "--check", "phi")
    assert code == 1
    assert not rep["verify"]["ok"] and len(rep["verify"]["witness"]) == 2
    assert list(rep["verify"]["methods"].values())[-1] == "witness"


def test_semidirect_theta_rejects_booleans(capsys):
    code = main(["semidirect", "--theta", "[[true]]", "--p", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--theta must be a JSON matrix of integers" in captured.err


@pytest.mark.parametrize("argv", (
    ("semidirect", "--theta", "[[0,-1],[1,-1]]", "--p", "3", "--radius", "-1"),
    ("classes", "--group", "p2", "--radius", "-1"),
    # the element and presentation branches do not read the radius
    ("classes", "--group", "p2", "--element", "x", "--radius", "-1"),
    ("semidirect", "--theta", "[[0,-1],[1,-1]]", "--p", "3", "--check", "presentation",
     "--radius", "-1"),
))
def test_negative_radius_is_usage_error(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "radius must be non-negative" in captured.err


@pytest.mark.parametrize("argv", (
    ("classes", "--group", "p6", "--element", ""),
    ("classes", "--group", "p6", "--element", " * "),
    ("verify-map", "--group", "p4", "--map", "inner()"),
))
def test_element_without_tokens_is_usage_error(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "has no tokens" in captured.err


def _readme_cli_lines():
    """The wct lines of the README's CLI block, as (argv, whether the
    comment says it exits 1)."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    out = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        prog, *argv = shlex.split(command)
        assert prog == "wct", line
        out.append((argv, "exits 1" in comment))
    return out


def test_readme_cli_examples_exit_as_documented(capsys):
    # the battery has its own tests
    lines = [(argv, fails) for argv, fails in _readme_cli_lines() if argv[0] != "acceptance"]
    assert len(lines) == 11
    for argv, fails in lines:
        code = main(argv)
        capsys.readouterr()
        assert code == (1 if fails else 0), argv


def test_internal_fault_exits_three(capsys, monkeypatch):
    def broken(G, text):
        raise RuntimeError("simulated fault")

    monkeypatch.setattr("wct.maps.parse_map_expr", broken)
    code = main(["verify-map", "--group", "p4", "--map", "tau_x"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("error: internal fault: RuntimeError: simulated fault")
    assert "Traceback" in captured.err


def test_closed_stdout_exits_quietly():
    src = str(Path(wct.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    # a few hundred KiB of output, far more than a pipe buffer holds
    with subprocess.Popen(
            [sys.executable, "-m", "wct", "classes", "--group", "p2", "--radius", "25"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.read(10) == b'{"schema":'
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert err == b""


def test_json_indent_flag(capsys):
    code = main(["involutions", "--group", "p2", "--json-indent", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("\n") > 3
    json.loads(out)


def test_console_script_installed():
    exe = shutil.which("wct")
    assert exe, "console script not on PATH"
    proc = subprocess.run([exe, "check-presentation", "--group", "p1"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["entries"][0]["group"] == "p1"
