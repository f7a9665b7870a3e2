"""One benchmark pass in a fresh interpreter.

Reads one JSON request on stdin ({"workload", "inputs", "trace"} and
optionally "setup_only"), imports wct, warms what the workload touches, runs
every job once (unless setup_only) and prints one JSON result on stdout.
run.py times set-up from the moment it spawned this process to the monotonic
instant reported as "ready"; the time spent reading the request is reported
separately so run.py can leave it out.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback

# acceptance-fast can only be gauged between its ten criteria
CRITERION_GAUGE_SAMPLES = 6


def main() -> int:
    start_read = time.monotonic()
    request = json.loads(sys.stdin.read())
    read_s = time.monotonic() - start_read
    workload = request["workload"]
    inputs = request["inputs"]

    import workloads
    from gauge import SpeedGauge

    tracer = None
    if request["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    state = workloads.setup(workload, inputs)
    ready = time.monotonic()
    gauge = SpeedGauge()
    gauge.sample()
    if request.get("setup_only"):
        for _ in range(4):
            gauge.sample()
        print(json.dumps({"ready": ready, "read_s": read_s,
                          "speed_factor": gauge.factor()}))
        return 0

    job_s, job_pairs, job_maps, failures = [], [], [], []

    def record(label, ok, start, end, pairs=0, maps=0, note=None):
        job_s.append(end - start)
        job_pairs.append(pairs)
        job_maps.append(maps)
        if not ok:
            failures.append([label, note or "unexpected verdict"])
        if tracer is not None:
            tracer.end_job(label, start, end)

    clock = time.perf_counter
    gauge_before = gauge.spent
    started = clock()
    if workload == "acceptance-fast":
        def on_criterion(*args):
            # a dozen single samples left the factor 30% off in some runs
            record(*args)
            for _ in range(CRITERION_GAUGE_SAMPLES):
                gauge.sample()

        try:
            suite_ok, workers = workloads.run_acceptance(inputs, on_criterion)
        except Exception as exc:  # a raising suite is a failed verdict
            traceback.print_exc()
            record("run_suite", False, started, clock(), note=repr(exc))
            suite_ok, workers = False, 0
        if not suite_ok and not failures:
            failures.append(["run_suite", "report not ok"])
    else:
        workers = 1
        for label, job in workloads.jobs(workload, inputs, state):
            gauge.tick()
            t0 = clock()
            try:
                ok, pairs, maps, note = job()
            except Exception as exc:  # a raising job is a failed verdict
                traceback.print_exc()
                ok, pairs, maps, note = False, 0, 0, repr(exc)
            record(label, ok, t0, clock(), pairs, maps, note)
    wall_s = clock() - started - (gauge.spent - gauge_before)
    gauge.sample()

    result = {
        "ready": ready,
        "read_s": read_s,
        "wall_s": wall_s,
        "job_s": job_s,
        "job_pairs": job_pairs,
        "job_maps": job_maps,
        "verdicts": len(job_s),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "speed_factor": gauge.factor(),
        "gauge_samples": len(gauge.samples),
        "workers": workers,
    }
    if tracer is not None:
        result["trace"] = tracer.report()
        result["slowest_jobs"] = tracer.slowest_jobs()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
