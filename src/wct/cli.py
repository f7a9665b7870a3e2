"""Command line front end.

One JSON document on stdout per invocation, schema "wct/1".  Exit status:
0 when every check passed or the query was answered, 1 when a verification
found a violation, 2 on usage errors (unknown names, malformed flags,
negative radii), 3 on an internal fault, reported as "error: ..." on
stderr.  When the reader closes stdout early (`wct ... | head`), the
output stops without a traceback and the exit status is still the verdict's.
The acceptance battery reports per-criterion progress on stderr so the
stdout document stays a single parseable object; a criterion that faulted
fails with its fault in the report, and the battery then exits 3.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from . import acceptance, maps, semidirect
from .conjugacy import conjugacy_class, involution_loci
from .groups import GROUP_IDS, check_radius, load_group, parse_element

SCHEMA = "wct/1"


def _cmd_check_presentation(args) -> tuple[int, dict]:
    gids = GROUP_IDS if args.group == "all" else (args.group,)
    entries = [load_group(gid).check_presentation() for gid in gids]
    ok = all(not e["violations"] for e in entries)
    return (0 if ok else 1), {
        "schema": SCHEMA,
        "command": "check-presentation",
        "entries": entries,
    }


def _cmd_classes(args) -> tuple[int, dict]:
    check_radius(args.radius)
    G = load_group(args.group)
    report = {"schema": SCHEMA, "command": "classes", "group": args.group}
    if args.element is not None:
        g = parse_element(G, args.element)
        report["element"] = g.to_json()
        report["class"] = conjugacy_class(G, g).to_json()
        return 0, report
    seen = {}
    for g in G.ball(args.radius):
        cls = conjugacy_class(G, g)
        if cls not in seen:
            seen[cls] = g
    report["radius"] = args.radius
    report["classes"] = [
        {"representative": g.to_json(), "class": cls.to_json()}
        for cls, g in seen.items()
    ]
    return 0, report


def _cmd_involutions(args) -> tuple[int, dict]:
    G = load_group(args.group)
    loci = involution_loci(G)
    return 0, {
        "schema": SCHEMA,
        "command": "involutions",
        "group": args.group,
        "loci": {f: (c.to_json() if c is not None else None)
                 for f, c in loci.items()},
    }


def _certificate_json(cert):
    return None if cert is None else {k: [g.to_json() for g in pair] for k, pair in cert.items()}


def _cmd_verify_map(args) -> tuple[int, dict]:
    check_radius(args.certificate_radius)
    G = load_group(args.group)
    m = maps.parse_map_expr(G, args.map)
    exact = maps.decide(G, m)
    ball = maps.is_wct_on_ball(G, m, args.radius)
    if exact["ok"] and not ball["ok"]:
        raise AssertionError(f"decide proves the map, but the ball check refutes it: {ball}")
    cert = maps.nontriviality_certificate(G, m, args.certificate_radius) if exact["ok"] else None
    report = {
        "schema": SCHEMA,
        "command": "verify-map",
        "group": args.group,
        "map_expr": args.map,
        "map": m.to_json(),
        "ok": exact["ok"],
        "witness": exact["witness"],
        "methods": exact["methods"],
        "ball": ball,
        "nontrivial": cert is not None,
        "certificate": _certificate_json(cert),
    }
    return (0 if exact["ok"] else 1), report


def _cmd_wgroup_relations(args) -> tuple[int, dict]:
    G = load_group(args.group)
    rep = maps.wgroup_relations(G)
    report = {
        "schema": SCHEMA,
        "command": "wgroup-relations",
        "group": args.group,
        "relations": rep,
    }
    ok = rep["ok"]
    if args.group in maps.W0_GENERATORS:
        norm = maps.normality_check(G)
        report["normality"] = norm
        ok = ok and norm["ok"]
    return (0 if ok else 1), report


def _parse_theta(text: str):
    try:
        theta = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"--theta is not valid JSON: {exc}") from None
    if (not isinstance(theta, list)
            or not all(isinstance(row, list) for row in theta)
            or not all(type(x) is int for row in theta for x in row)):
        raise ValueError("--theta must be a JSON matrix of integers")
    return [tuple(row) for row in theta]


def _cmd_semidirect(args) -> tuple[int, dict]:
    check_radius(args.radius)
    G = semidirect.build(_parse_theta(args.theta), args.p)
    report = {
        "schema": SCHEMA,
        "command": "semidirect",
        "group": {"n": G.n, "p": G.p, "theta": [list(r) for r in G.theta]},
        "check": args.check,
    }
    if args.check == "presentation":
        # build already validated r^-1 a r = theta(a) on the basis
        report["ok"] = True
        return 0, report
    m = (semidirect.phi_for_odd_p(G) if args.check == "phi"
         else semidirect.p2_candidate(G))
    rep = {**maps.decide(G, m), "radius": args.radius}
    cert = maps.nontriviality_certificate(G, m, 2)
    report["map"] = m.to_json()
    report["verify"] = rep
    report["nontrivial"] = cert is not None
    report["certificate"] = _certificate_json(cert)
    if args.check == "phi":
        ok = rep["ok"] and cert is not None
    else:
        # the order-2 candidate is an exact antihomomorphism: it must pass
        # the class condition and must not certify nontriviality
        ok = (rep["ok"] and cert is None
              and maps.antihomomorphism_failure(G, m) is None)
    report["ok"] = ok
    return (0 if ok else 1), report


def _cmd_acceptance(args) -> tuple[int, dict]:
    def progress(res):
        verdict = "pass" if res["ok"] else "FAIL"
        print(f"criterion {res['criterion']:>2} {res['name']}: "
              f"{verdict} ({res['seconds']}s)", file=sys.stderr, flush=True)
        if "fault" in res["detail"]:
            print(f"error: internal fault in criterion {res['criterion']}: "
                  f"{res['detail']['fault']}\n{res['detail']['traceback']}",
                  end="", file=sys.stderr, flush=True)

    report = acceptance.run_suite(args.suite, args.seed, progress=progress)
    if any("fault" in r["detail"] for r in report["criteria"]):
        return 3, report
    return (0 if report["ok"] else 1), report


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json-indent", type=int, default=None,
                        help="pretty-print stdout JSON with this indent")

    parser = argparse.ArgumentParser(
        prog="wct",
        description="exact conjugacy structure and weak Cayley table maps "
                    "for the 17 wallpaper groups and Z^n semidirect C_p",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-presentation", parents=[common],
                       help="evaluate every defining relation")
    p.add_argument("--group", default="all", choices=("all",) + GROUP_IDS)
    p.set_defaults(fn=_cmd_check_presentation)

    p = sub.add_parser("classes", parents=[common],
                       help="conjugacy class descriptors")
    p.add_argument("--group", required=True, choices=GROUP_IDS)
    p.add_argument("--element", default=None,
                   help="element like 'x^2 y^-1 rho' (defaults to a ball sweep)")
    p.add_argument("--radius", type=int, default=2)
    p.set_defaults(fn=_cmd_classes)

    p = sub.add_parser("involutions", parents=[common],
                       help="involution locus per coset")
    p.add_argument("--group", required=True, choices=GROUP_IDS)
    p.set_defaults(fn=_cmd_involutions)

    p = sub.add_parser("verify-map", parents=[common],
                       help="weak Cayley table check for a map expression")
    p.add_argument("--group", required=True, choices=GROUP_IDS)
    p.add_argument("--map", required=True,
                   help="expression over catalog names, e.g. 'tau * inv(psi_x)'")
    p.add_argument("--radius", type=int, default=4)
    p.add_argument("--certificate-radius", type=int, default=3,
                   help="validated; the nontrivial verdict is exact at any radius")
    p.set_defaults(fn=_cmd_verify_map)

    p = sub.add_parser("wgroup-relations", parents=[common],
                       help="relation suite for the group of all WCT maps")
    p.add_argument("--group", required=True,
                   choices=tuple(g for g in GROUP_IDS if g in maps.NONTRIVIAL_CATALOG))
    p.set_defaults(fn=_cmd_wgroup_relations)

    p = sub.add_parser("semidirect", parents=[common],
                       help="Z^n semidirect C_p checks")
    p.add_argument("--theta", required=True, help="integer matrix as JSON")
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--radius", type=int, default=3,
                   help="validated and echoed; the verdict is exact at any radius")
    p.add_argument("--check", default="phi",
                   choices=("phi", "p2-candidate", "presentation"))
    p.set_defaults(fn=_cmd_semidirect)

    p = sub.add_parser("acceptance", parents=[common],
                       help="run the acceptance battery")
    p.add_argument("--suite", default="full", choices=("fast", "full"))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_acceptance)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code, report = args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal fault: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3
    try:
        print(json.dumps(report, indent=args.json_indent), flush=True)
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so the interpreter's
        # final flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
