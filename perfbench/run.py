"""Benchmark runner for wct: one workload, one seed, fresh interpreters.

    python3 perfbench/run.py --workload ball-check --seed 1 --seconds 30 --trace 0

Each timed pass is one child interpreter (perfbench/child.py) that imports
wct, warms what the workload touches and runs every job of the workload once,
so every pass pays start-up and cache fill the way a CLI call does, and no
pass inherits a cache warmed by an earlier one.  Passes repeat until the next
one would overrun --seconds; metrics are medians over passes.

--trace 1 runs one untraced pass, one pass with the layer tracer installed,
and the CLI start-up probes, and reports the per-layer metrics instead.

The last line of stdout is one JSON object: correct, attempted (verdicts),
failed (verdicts that differ from the expected one or raised) and metrics.
The lines before it are for people: every metric with its unit, sample
counts, and the environment the numbers were taken in.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 170.0          # a run must end within 180 s, build included
SETUP_SAMPLES = 5            # set-ups per run, topped up with set-up-only children
CLI_PROBES = 7

# metric name -> unit, as declared in BENCHMARK.json
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "pairs_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "lattice.self_s": "s",
    "lattice.contains_calls": "count",
    "lattice.vec_helper_calls": "count",
    "lattice.hnf_builds": "count",
    "groups.self_s": "s",
    "groups.mul_calls": "count",
    "groups.conj_calls": "count",
    "groups.inv_calls": "count",
    "groups.check_element_calls": "count",
    "groups.table_build_s": "s",
    "conjugacy.self_s": "s",
    "conjugacy.is_conjugate_calls": "count",
    "conjugacy.class_calls": "count",
    "conjugacy.is_conjugate_true_ratio": "ratio",
    "conjugacy.repeat_query_ratio": "ratio",
    "maps.apply_calls": "count",
    "maps.ball_pairs": "count",
    "maps.maps_built": "count",
    "maps.compose_calls": "count",
    "maps.pairs_per_verdict": "pairs",
    "maps.ball_pass_ratio": "ratio",
    "semidirect.verify_calls": "count",
    "semidirect.mul_calls": "count",
    "semidirect.ball_slice_ratio": "ratio",
    "acceptance.workers": "count",
    "cli.import_s": "s",
    "cli.cold_start_s": "s",
    "trace.overhead_ratio": "ratio",
}
# Printed with the traced run but not declared in BENCHMARK.json: each is a
# time that is exactly zero on the workloads that never call that layer.
PRINTED_ONLY = {
    "maps.self_s": "s",
    "maps.certificate_s": "s",
    "semidirect.self_s": "s",
    "conjugacy.oracle_s": "s",
    **{f"acceptance.c{n}_s": "s" for n in range(1, 11)},
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["WCT_THREADS"] = str(len(os.sched_getaffinity(0)))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(payload: bytes, env: dict, deadline: float) -> dict:
    """One pass in a fresh interpreter; setup_s is measured from the spawn."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        cwd=ROOT, env=env, start_new_session=True)
    try:
        out, err = proc.communicate(payload, timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s") from None
    if proc.returncode != 0:
        sys.stderr.write(err.decode(errors="replace"))
        raise BenchError(f"pass exited with code {proc.returncode}")
    if err:
        sys.stderr.write(err.decode(errors="replace"))
    result = json.loads(out.decode().strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned - result["read_s"]
    return result


def quantile(values: list, q: int) -> float:
    """The q-th percentile, by statistics.quantiles' default method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def rate(counts: list, seconds: list) -> float:
    """Units per second over the jobs that produced any units."""
    busy = sum(s for c, s in zip(counts, seconds) if c)
    return sum(counts) / busy if busy else 0.0


def end_to_end(passes: list, setups: list, normalise: bool) -> tuple[dict, dict]:
    """Declared metrics (medians over passes) and the printed-only extras.

    With normalise, times are divided by each pass's host speed factor
    (gauge.py), so they are reference-seconds; without, they are the raw
    clock readings.
    """
    def scale(p):
        return p["speed_factor"] if normalise else 1.0

    latencies_ms = [s * 1000.0 / scale(p) for p in passes for s in p["job_s"]]
    metrics = {
        "wall_s": statistics.median(p["wall_s"] / scale(p) for p in passes),
        "setup_s": statistics.median(p["setup_s"] / scale(p) for p in passes + setups),
        "job_p50_ms": quantile(latencies_ms, 50),
        "job_p90_ms": quantile(latencies_ms, 90),
        "pairs_per_s": statistics.median(
            rate(p["job_pairs"], p["job_s"]) * scale(p) for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    extras = {
        "maps_per_s": statistics.median(
            rate(p["job_maps"], p["job_s"]) * scale(p) for p in passes),
        "jobs_n": len(latencies_ms),
    }
    return metrics, extras


def layer_metrics(workload: str, untraced: dict, traced: dict,
                  cli: dict) -> tuple[dict, dict]:
    """Per-layer values of the traced pass, and the base count of each ratio."""
    t = traced["trace"]

    def ratio(num: str, den: str) -> float:
        return t.get(num, 0) / t[den] if t.get(den) else 0.0

    out = {name: t.get(name, 0) for name in list(PER_LAYER) + list(PRINTED_ONLY)}
    out.update({
        "conjugacy.is_conjugate_true_ratio": ratio(
            "conjugacy.true_answers", "conjugacy.is_conjugate_calls"),
        "conjugacy.repeat_query_ratio": ratio(
            "conjugacy.repeat_queries", "conjugacy.is_conjugate_calls"),
        "maps.pairs_per_verdict": ratio("maps.ball_pairs", "maps.ball_checks"),
        "maps.ball_pass_ratio": ratio("maps.ball_passes", "maps.ball_checks"),
        "semidirect.ball_slice_ratio": ratio(
            "semidirect.ball_slices", "semidirect.slice_pairs"),
        "acceptance.workers": traced["workers"],
        "trace.overhead_ratio": (traced["wall_s"] / traced["speed_factor"])
        / (untraced["wall_s"] / untraced["speed_factor"]),
        **cli,
    })
    # criterion times come from the untraced pass, so they are real times
    criteria = untraced["job_s"] if workload == "acceptance-fast" else []
    for n, seconds in enumerate(criteria, start=1):
        out[f"acceptance.c{n}_s"] = seconds
    bases = {
        "conjugacy.is_conjugate_true_ratio": t.get("conjugacy.is_conjugate_calls", 0),
        "conjugacy.repeat_query_ratio": t.get("conjugacy.is_conjugate_calls", 0),
        "maps.pairs_per_verdict": t.get("maps.ball_checks", 0),
        "maps.ball_pass_ratio": t.get("maps.ball_checks", 0),
        "semidirect.ball_slice_ratio": t.get("semidirect.slice_pairs", 0),
    }
    return out, bases


def measure_cli(env: dict) -> dict:
    """Median start-up costs, each probe a fresh interpreter."""
    probes = {
        "bare": [sys.executable, "-c", "pass"],
        "import": [sys.executable, "-c", "import wct.cli"],
        "cold": [sys.executable, "-m", "wct.cli", "check-presentation"],
    }
    times = {k: [] for k in probes}
    for _ in range(CLI_PROBES):
        for key, cmd in probes.items():
            start = time.perf_counter()
            subprocess.run(cmd, cwd=ROOT, env=env, check=True,
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                           timeout=60)
            times[key].append(time.perf_counter() - start)
    med = {k: statistics.median(v) for k, v in times.items()}
    return {"cli.import_s": med["import"] - med["bare"], "cli.cold_start_s": med["cold"]}


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wct" / "__init__.py").is_file():
        print(f"error: no wct package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    env = child_env()
    inputs = workloads.make_inputs(args.workload, args.seed)
    load_start = os.getloadavg()

    def payload(trace: bool, setup_only: bool = False) -> bytes:
        return json.dumps({"workload": args.workload, "inputs": inputs,
                           "trace": trace, "setup_only": setup_only}).encode()

    try:
        if args.trace:
            untraced = run_child(payload(False), env, deadline)
            traced = run_child(payload(True), env, deadline)
            metrics, bases = layer_metrics(
                args.workload, untraced, traced, measure_cli(env))
            passes = [untraced, traced]
        else:
            passes = []
            started = time.monotonic()
            timed = payload(False)
            while True:
                t0 = time.monotonic()
                passes.append(run_child(timed, env, deadline))
                passes[-1]["pass_s"] = time.monotonic() - t0
                typical = statistics.median(p["pass_s"] for p in passes)
                if time.monotonic() - started + typical > args.seconds:
                    break
            setup_only = payload(False, setup_only=True)
            setups = [run_child(setup_only, env, deadline)
                      for _ in range(SETUP_SAMPLES - len(passes))]
            metrics, extras = end_to_end(passes, setups, normalise=True)
            raw, raw_extras = end_to_end(passes, setups, normalise=False)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    load_end = os.getloadavg()

    verdicts = [p["verdicts"] for p in passes]
    failed = sum(len(p["failures"]) for p in passes)
    consistent = len(set(verdicts)) == 1

    env_record = {
        "workload": args.workload,
        "seed": args.seed,
        "cpus": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "wct_threads": env["WCT_THREADS"],
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "loadavg_start": load_start,
        "loadavg_end": load_end,
    }
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}"
          f"  verdicts {verdicts[0]} per pass  verdicts_failed {failed}")
    for p in passes:
        for label, note in p["failures"][:10]:
            print(f"  FAILED {label}: {note}")
    if args.trace:
        declared = {k: metrics[k] for k in PER_LAYER}
        print(f"  host speed factor of the traced pass {passes[1]['speed_factor']:.3f}"
              " (layer times are raw clock seconds)")
        for name, unit in {**PER_LAYER, **PRINTED_ONLY}.items():
            if name in PRINTED_ONLY and not metrics[name]:
                if not name.startswith("acceptance."):
                    print(f"  {name:38s} {'layer not called':>16s}")
                continue
            base = f"  (base n={bases[name]})" if name in bases else ""
            print(f"  {name:38s} {metrics[name]:>16.6g} {unit}{base}")
        others = sorted(k for k in passes[1]["trace"] if k not in metrics)
        print("  other counts: " + ", ".join(
            f"{k}={passes[1]['trace'][k]:.6g}" for k in others))
        print("  slowest job spans of the traced pass:")
        for label, seconds in passes[1]["slowest_jobs"]:
            print(f"    {seconds:10.4f} s  {label}")
        out_metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in declared.items()}
    else:
        factors = [p["speed_factor"] for p in passes]
        print(f"  host speed factor median {statistics.median(factors):.3f}"
              f"  min {min(factors):.3f}  max {max(factors):.3f}"
              "  (1.0 = reference speed; times below are reference-seconds)")
        print(f"  {'metric':16s} {'reference':>14s} {'raw clock':>14s}")
        rows = [(name, metrics[name], raw[name], unit) for name, unit in END_TO_END.items()]
        if extras["maps_per_s"]:
            rows.append(("maps_per_s", extras["maps_per_s"], raw_extras["maps_per_s"], "1/s"))
        for name, value, clock_value, unit in rows:
            n = f"  (n={extras['jobs_n']} jobs)" if name.startswith("job_") else ""
            print(f"  {name:16s} {value:>14.6g} {clock_value:>14.6g} {unit}{n}")
        print(f"  {'verdicts':16s} {verdicts[0]:>14d} per pass")
        print(f"  {'verdicts_failed':16s} {failed:>14d}")
        out_metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    print("env " + json.dumps(env_record))
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": sum(verdicts),
        "failed": failed,
        "metrics": out_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
