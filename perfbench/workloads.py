"""The four benchmark workloads: seeded inputs, set-up, and checked jobs.

make_inputs runs in the parent process (run.py) and turns a seed into plain JSON
data: group ids, catalog names, map rules, element coordinates.  setup and
the job functions run in the fresh child interpreter, which sees only that
data.  Every job returns its own verdict check against the verdict the
benchmark expects, so a wrong answer counts as a failed verdict however fast
it came.

Why each workload exists (see README.md for the metric each layer moves):

* ball-check: the hot path of ``wct verify-map`` and acceptance criterion 5,
  almost all is_conjugate -> Sublattice.contains, mul and apply, with most
  queries answering True and many repeating within a map.
* brute-oracle: the exhaustive conjugation sweeps that keep the closed forms
  honest.  They must never route through closed-form shortcuts, so this is
  the bypass control for any is_conjugate optimisation.
* map-churn: many short-lived maps, each judged briefly, where per-map
  precompute cannot amortise and is_conjugate mostly answers False.
* acceptance-fast: what users and CI run, and the only workload where the
  acceptance process pool is used.
"""

from __future__ import annotations

import random
import time

from wct import acceptance, conjugacy, groups, maps, semidirect
from wct.groups import GROUP_IDS, Element, element_from_json
from wct.semidirect import SdElement

from tracing import ball_pairs_checked

# Package functions are looked up through their module at call time
# (maps.is_wct_on_ball, not a bound copy), so the traced pass sees them.

WORKLOADS = ("ball-check", "brute-oracle", "map-churn", "acceptance-fast")

# -- sizes and expected verdicts -------------------------------------------------

BALL_RADIUS = 1
CERT_RADII = (2, 3)                      # as acceptance criterion 5
KNOWN_FAILING = {("p4", "conj_rho_on_rho2")}

SWEEP_PER_PART = 3                       # elements g per transversal part, from ball(2)
SWEEP_CONJUGATOR_RADIUS = 8
SWEEP_OUTER_RADIUS = 2
# per SD_CASES entry: (conjugator radius, elements g, targets h per g).  The
# radii were checked exhaustively: every conjugate pair inside ball(1) has a
# witness conjugator inside these balls, so brute and closed form must agree.
SD_BRUTE = ((2, 6, 18), (1, 4, 18), (2, 2, 8))

RANDOM_PER_GROUP = 100                   # random_map candidates per trivial group
RANDOM_ESCALATE_RADIUS = 3               # as acceptance criterion 10
WORDS_PER_GROUP = 24
WORD_LENGTH = 3                          # atoms per word, fixed so every seed costs the same
RELATION_GROUPS = ("p3", "p4", "p6", "p2mm")
ACCEPTANCE_SEED = 0                      # `wct acceptance`'s default, as CI runs it
NORMALITY_GROUPS = ("p4", "p6")


# -- parent side: inputs from the seed -----------------------------------------------


def make_inputs(workload: str, seed: int) -> dict:
    """All inputs of one workload, as JSON data, from the seed alone."""
    if workload == "ball-check":
        return _ball_check_inputs(seed)
    if workload == "brute-oracle":
        return _brute_oracle_inputs(seed)
    if workload == "map-churn":
        return _map_churn_inputs(seed)
    if workload == "acceptance-fast":
        # the suite's own seed stays at the CLI default: criterion 10 took
        # 0.26-0.53 s over six seeds, which moved job_p50_ms by a quarter
        return {"suite": "fast", "seed": ACCEPTANCE_SEED}
    raise ValueError(f"unknown workload {workload!r}")


def _ball_check_inputs(seed: int) -> dict:
    rnd = random.Random(f"ball-check:{seed}")
    checks = [[gid, name] for gid in GROUP_IDS
              for name in maps.catalog(groups.load_group(gid))]
    certs = [[gid, name] for gid, names in maps.NONTRIVIAL_CATALOG.items()
             for name in names]
    rnd.shuffle(checks)
    rnd.shuffle(certs)
    return {"radius": BALL_RADIUS, "checks": checks, "certificates": certs}


def _brute_oracle_inputs(seed: int) -> dict:
    rnd = random.Random(f"brute-oracle:{seed}")
    sweeps = []
    for gid in GROUP_IDS:
        # as many elements as the group has parts: a uniform draw from all
        # 17 balls, so the latency quantiles fall inside a group's cluster
        G = groups.load_group(gid)
        for g in rnd.sample(G.ball(SWEEP_OUTER_RADIUS), SWEEP_PER_PART * len(G.F)):
            sweeps.append([gid, list(g.a), g.f])
    # The semidirect pairs are one fixed sample: the brute search stops at the
    # first conjugator it meets, so a seeded sample would make the pass time
    # depend on the seed.  The wallpaper sweeps cost the same for every g.
    fixed = random.Random("brute-oracle:semidirect")
    sd = []
    for (_, p, theta), (radius, n_g, n_h) in zip(acceptance.SD_CASES, SD_BRUTE):
        H = semidirect.build(theta, p)
        ball = H.ball(1)
        for g in fixed.sample(ball, n_g):
            # half the targets are conjugates of g, so True answers are tested
            hs = fixed.sample(ball, n_h - n_h // 2)
            hs += [H.conj(g, c) for c in fixed.sample(ball, n_h // 2)]
            sd.append({"theta": [list(r) for r in theta], "p": p, "radius": radius,
                       "g": [list(g.v), g.k], "hs": [[list(h.v), h.k] for h in hs]})
    rnd.shuffle(sweeps)
    return {"conjugator_radius": SWEEP_CONJUGATOR_RADIUS,
            "outer_radius": SWEEP_OUTER_RADIUS, "sweeps": sweeps, "sd": sd}


def _map_churn_inputs(seed: int) -> dict:
    candidates = []
    for gid in acceptance.TRIVIAL_GROUPS:
        G = groups.load_group(gid)
        rnd = random.Random(f"map-churn:{seed}:{gid}")
        for _ in range(RANDOM_PER_GROUP):
            m = maps.random_map(G, rnd)
            candidates.append([gid, {f: [f2, [list(r) for r in mat], list(t)]
                                     for f, (f2, mat, t) in m.rule.items()}])
    rnd = random.Random(f"map-churn-words:{seed}")
    words = []
    for gid in GROUP_IDS:
        names = sorted(n for n in maps.catalog(groups.load_group(gid))
                       if (gid, n) not in KNOWN_FAILING)
        for _ in range(WORDS_PER_GROUP):
            atoms = [rnd.choice(names) for _ in range(WORD_LENGTH)]
            atoms = [f"inv({a})" if rnd.random() < 0.3 else a for a in atoms]
            words.append([gid, " * ".join(atoms)])
    return {
        "candidates": candidates,
        "words": words,
        "relations": list(RELATION_GROUPS),
        "normality": list(NORMALITY_GROUPS),
        "sd_phi": [{"theta": [list(r) for r in theta], "p": p}
                   for _, p, theta in acceptance.SD_CASES],
        "sd_p2": [{"theta": [list(r) for r in theta], "p": 2}
                  for _, theta in acceptance.P2_THETAS],
    }


# -- child side: set-up -------------------------------------------------------------


def touched_groups(workload: str, inputs: dict) -> list:
    if workload == "ball-check":
        return sorted({gid for gid, _ in inputs["checks"]})
    if workload == "brute-oracle":
        return sorted({gid for gid, _, _ in inputs["sweeps"]})
    if workload == "map-churn":
        return sorted({gid for gid, _ in inputs["candidates"]}
                      | {gid for gid, _ in inputs["words"]}
                      | set(inputs["relations"]))
    return list(GROUP_IDS)


def setup(workload: str, inputs: dict) -> dict:
    """Warm what a first CLI call of this workload pays for: group tables,
    K_f lattices and, where maps are used, the generator catalogs."""
    state = {"groups": {}, "sd": {}}
    catalog_groups = {
        "ball-check": GROUP_IDS,
        "brute-oracle": (),
        "map-churn": GROUP_IDS,
        "acceptance-fast": tuple(maps.NONTRIVIAL_CATALOG),
    }[workload]
    for gid in touched_groups(workload, inputs):
        G = groups.load_group(gid)
        for f in G.F:
            conjugacy.kf(G, f)
        if gid in catalog_groups:
            maps.catalog(G)
        state["groups"][gid] = G
    if workload == "brute-oracle":
        for job in inputs["sd"]:
            key = _theta_key(job["theta"], job["p"])
            if key not in state["sd"]:
                state["sd"][key] = semidirect.build(job["theta"], job["p"])
    return state


def _theta_key(theta, p) -> tuple:
    return tuple(tuple(r) for r in theta), p


# -- child side: jobs ----------------------------------------------------------------
#
# A job is one verdict a user could ask the CLI for.  Each returns
# (verdict matches expectation, pairs decided, maps judged, note on mismatch).


def jobs(workload: str, inputs: dict, state: dict) -> list:
    """[(label, callable)] for the job-list workloads, in input order."""
    tables = state["groups"]
    out = []
    if workload == "ball-check":
        r = inputs["radius"]
        for gid, name in inputs["checks"]:
            out.append((f"ball {gid}:{name}", _job_ball(tables[gid], name, r)))
        for gid, name in inputs["certificates"]:
            out.append((f"cert {gid}:{name}", _job_certificate(tables[gid], name)))
    elif workload == "brute-oracle":
        R, outer = inputs["conjugator_radius"], inputs["outer_radius"]
        for gid, a, f in inputs["sweeps"]:
            out.append((f"sweep {gid}:{f}{a}", _job_sweep(tables[gid], a, f, R, outer)))
        for job in inputs["sd"]:
            H = state["sd"][_theta_key(job["theta"], job["p"])]
            out.append((f"sd-brute n={H.n} p={H.p}", _job_sd_brute(H, job)))
    elif workload == "map-churn":
        survivors: list = []
        for gid, rule in inputs["candidates"]:
            out.append((f"random {gid}", _job_random(tables[gid], rule, survivors)))
        out.append(("random survivors", _job_survivors(survivors)))
        for gid, expr in inputs["words"]:
            out.append((f"word {gid}:{expr}", _job_word(tables[gid], expr)))
        for gid in inputs["relations"]:
            out.append((f"relations {gid}", _job_relations(tables[gid])))
        for gid in inputs["normality"]:
            out.append((f"normality {gid}", _job_normality(tables[gid])))
        for case in inputs["sd_phi"]:
            out.append((f"sd-phi p={case['p']}", _job_sd_phi(case)))
        for case in inputs["sd_p2"]:
            out.append((f"sd-p2 {case['theta']}", _job_sd_p2(case)))
    else:
        raise ValueError(f"{workload} has no job list")
    return out


def _job_ball(G, name, radius):
    def run():
        m = maps.generator(G, name)
        rep = maps.is_wct_on_ball(G, m, radius)
        pairs = ball_pairs_checked(G, radius, rep)
        if (G.gid, name) not in KNOWN_FAILING:
            return rep["ok"], pairs, 1, None if rep["ok"] else f"witness {rep['witness']}"
        if rep["ok"] or rep["witness"] is None:
            return False, pairs, 1, "known failing map passed"
        # a reported violation must carry a witness that really violates
        g1, g2 = (element_from_json(w) for w in rep["witness"])
        lhs = m.apply(G.mul(g1, g2))
        rhs = G.mul(m.apply(g1), m.apply(g2))
        genuine = not conjugacy.is_conjugate(G, lhs, rhs)
        return genuine, pairs, 1, None if genuine else "witness does not violate"
    return run


def _job_certificate(G, name):
    def run():
        m = maps.generator(G, name)
        for radius in CERT_RADII:
            if maps.nontriviality_certificate(G, m, radius) is not None:
                return True, 0, 0, None
        return False, 0, 0, "no nontriviality certificate"
    return run


def _job_sweep(G, a, f, radius, outer_radius):
    def run():
        g = Element(tuple(a), f)
        reach = conjugacy.conjugates_within(G, g, radius)
        cls = conjugacy.conjugacy_class(G, g)
        bad = sum(1 for h in G.ball(outer_radius) if cls.contains(h) != (h in reach))
        conjugations = (2 * radius + 1) ** 2 * len(G.F)
        return bad == 0, conjugations, 0, f"{bad} disagreements" if bad else None
    return run


def _job_sd_brute(H, job):
    def run():
        g = SdElement(tuple(job["g"][0]), job["g"][1])
        bad = 0
        for v, k in job["hs"]:
            h = SdElement(tuple(v), k)
            if semidirect.brute_is_conjugate_sd(H, g, h, job["radius"]) != \
                    semidirect.is_conjugate_sd(H, g, h):
                bad += 1
        return bad == 0, 0, 0, f"{bad} disagreements" if bad else None
    return run


def _job_random(G, rule_json, survivors):
    """Screen one candidate at radius 1; a survivor is judged by the
    closing survivors job, so a rare survivor does not skew pairs_per_s."""
    def run():
        rule = {f: (f2, tuple(tuple(r) for r in mat), tuple(t))
                for f, (f2, mat, t) in rule_json.items()}
        m = maps.CosetwiseAffineMap(G, rule)
        rep = maps.is_wct_on_ball(G, m, BALL_RADIUS)
        if rep["ok"]:
            survivors.append((G, m))
        return True, ball_pairs_checked(G, BALL_RADIUS, rep), 1, None
    return run


def _job_survivors(survivors):
    """Escalate the radius-1 survivors as acceptance criterion 10 does.  A
    map still passing lives in a group whose WCT maps are all trivial, so it
    must obey the forced consequences and must not certify as nontrivial."""
    def run():
        for G, m in survivors:
            if not maps.is_wct_on_ball(G, m, RANDOM_ESCALATE_RADIUS)["ok"]:
                continue
            if not maps.wct_invariants(G, m, 2)["ok"]:
                return False, 0, 0, f"{G.gid} survivor breaks a forced consequence"
            if maps.nontriviality_certificate(G, m, CERT_RADII[-1]) is not None:
                return False, 0, 0, f"{G.gid} survivor certified nontrivial"
        return True, 0, 0, None
    return run


def _job_word(G, expr):
    def run():
        m = maps.parse_map_expr(G, expr)
        proven = maps.wct_certificate_symbolic(G, m)["proven"]
        inverse = m.invert()
        algebra = (m.compose(inverse) == maps.identity_map(G)
                   and inverse.invert() == m
                   and inverse.compose(m).is_identity())
        ok = proven and algebra
        return ok, 0, 1, None if ok else f"proven={proven} algebra={algebra}"
    return run


def _job_relations(G):
    def run():
        ok = maps.wgroup_relations(G)["ok"]
        return ok, 0, 0, None if ok else "relation suite failed"
    return run


def _job_normality(G):
    def run():
        ok = maps.normality_check(G)["ok"]
        return ok, 0, 0, None if ok else "normality check failed"
    return run


def _job_sd_phi(case):
    def run():
        H = semidirect.build(case["theta"], case["p"])
        phi = semidirect.phi_for_odd_p(H)
        verified = semidirect.verify_sd(H, phi, 3)["ok"]
        nontrivial = semidirect.sd_nontriviality(H, phi, 2) is not None
        invariants = semidirect.sd_invariants(H, phi, 2)["ok"]
        ok = verified and nontrivial and invariants
        return ok, 0, 1, None if ok else \
            f"verified={verified} nontrivial={nontrivial} invariants={invariants}"
    return run


def _job_sd_p2(case):
    def run():
        H = semidirect.build(case["theta"], case["p"])
        cand = semidirect.p2_candidate(H)
        anti = semidirect.sd_antihomomorphism_failure(H, cand) is None
        verified = semidirect.verify_sd(H, cand, 2)["ok"]
        trivial = semidirect.sd_nontriviality(H, cand, 3) is None
        invariants = semidirect.sd_invariants(H, cand, 2)["ok"]
        ok = anti and verified and trivial and invariants
        return ok, 0, 1, None if ok else \
            f"antihom={anti} verified={verified} trivial={trivial} invariants={invariants}"
    return run


def run_acceptance(inputs: dict, record) -> tuple[bool, int]:
    """acceptance-fast: one run_suite call; each criterion is one job.

    record(label, ok, start, end, pairs) is called as each criterion
    reports.  The pairs are criterion 5's ball-check pairs: it runs serially
    in this process, like ball-check, so the host speed gauge covers it.
    Returns the suite verdict and the workers the report says it used.
    """
    start = [time.perf_counter()]

    def progress(res):
        end = time.perf_counter()
        pairs = _catalog_pairs(res["detail"]) if res["criterion"] == 5 else 0
        record(f"criterion {res['criterion']}", bool(res["ok"]), start[0], end, pairs)
        start[0] = time.perf_counter()

    report = acceptance.run_suite(inputs["suite"], inputs["seed"], progress=progress)
    return bool(report["ok"]), int(report["workers"])


def _catalog_pairs(detail: dict) -> int:
    """WCT-condition pairs criterion 5 checked: all of ball x ball per map."""
    pairs = 0
    for entry in detail["entries"]:
        size = (2 * detail["radius"] + 1) ** 2 * len(groups.load_group(entry["group"]).F)
        if entry["wct_ok"]:
            pairs += size * size
    return pairs
