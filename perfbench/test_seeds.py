"""The seed changes the generated inputs, never the verdicts expected of them.

Run with ``python3 -m pytest -q perfbench`` from the repository root.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

SEEDS = (1, 2)


def _verdicts(workload: str, seed: int) -> tuple[Counter, list]:
    """Verdicts per job kind, and the jobs whose verdict was not the expected one."""
    inputs = workloads.make_inputs(workload, seed)
    state = workloads.setup(workload, inputs)
    kinds: Counter = Counter()
    failures = []
    for label, job in workloads.jobs(workload, inputs, state):
        ok, _, _, note = job()
        kinds[label.split()[0]] += 1
        if not ok:
            failures.append((label, note))
    return kinds, failures


def test_seed_changes_map_churn_inputs():
    a, b = (workloads.make_inputs("map-churn", s) for s in SEEDS)
    assert a["candidates"] != b["candidates"]
    assert a["words"] != b["words"]
    assert workloads.make_inputs("map-churn", SEEDS[0]) == a


def test_seed_keeps_map_churn_verdict_counts():
    counts = []
    for seed in SEEDS:
        kinds, failures = _verdicts("map-churn", seed)
        assert failures == []
        counts.append(kinds)
    assert counts[0] == counts[1]
    assert counts[0]["random"] == 12 * workloads.RANDOM_PER_GROUP + 1  # + survivors
    assert counts[0]["word"] == 17 * workloads.WORDS_PER_GROUP


def test_seed_keeps_brute_oracle_verdict_counts():
    a, b = (workloads.make_inputs("brute-oracle", s) for s in SEEDS)
    assert a["sweeps"] != b["sweeps"]
    assert len(a["sweeps"]) == len(b["sweeps"]) == 78 * workloads.SWEEP_PER_PART
    assert [len(j["hs"]) for j in a["sd"]] == [len(j["hs"]) for j in b["sd"]]


def test_ball_check_expects_exactly_the_known_failure():
    kinds, failures = _verdicts("ball-check", SEEDS[0])
    assert failures == []
    assert kinds == Counter({"ball": 137, "cert": 14})
