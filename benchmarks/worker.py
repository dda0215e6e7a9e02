"""One benchmark run of one workload, in a fresh interpreter.

Started by run.py, which passes the monotonic instant it spawned this
process; set-up time is measured from there.  The worker imports the
package from the checkout's ``src`` directory, resolves the workload's
models, then repeats whole rounds of the workload's jobs until the run
length is spent.  It prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def _import_package():
    """Import jumpcurv from the checkout, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import jumpcurv
    import_s = time.perf_counter() - start
    if Path(jumpcurv.__file__).resolve().parent != src / "jumpcurv":
        raise SystemExit(f"imported jumpcurv from {jumpcurv.__file__}, not {src}")
    return jumpcurv, import_s


def _probe() -> float:
    start = time.perf_counter()
    s = 0
    for i in range(20000):
        s += i * i
    return time.perf_counter() - start


def pin_fastest_cpu(wait_s: float = 0.0) -> None:
    """Pin this process to the allowed CPU on which a short probe loop runs
    fastest right now.  Other tenants slow each vCPU in turn (see README.md,
    "Noise"); the choice affects this process only.  With ``wait_s`` > 0 the
    probing goes on for up to that long, and stops as soon as, after the
    first third of it, a probe comes within 10 % of the fastest one seen."""
    cpus = sorted(os.sched_getaffinity(0))
    start = time.monotonic()
    best = float("inf")
    while True:
        speed = {}
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = _probe()
        cpu = min(speed, key=speed.get)
        best = min(best, speed[cpu])
        elapsed = time.monotonic() - start
        if elapsed >= wait_s or (elapsed >= wait_s / 3 and speed[cpu] <= 1.1 * best):
            os.sched_setaffinity(0, {cpu})
            return


def solve_time(times: dict) -> float:
    """Per job, the fastest of its engine-call times over the rounds; summed
    over the jobs.  Contention from other tenants only ever slows a call, so
    the fastest of many short calls is the steadiest estimate of the
    program's own speed (see README.md, "Noise")."""
    return sum(min(ts) for ts in times.values())


def run(args) -> dict:
    jc, import_s = _import_package()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(jc)
        tracer.active = True
    jobs = workloads.SETUPS[args.workload](jc, args.seed)
    setup_s = time.monotonic() - args.spawned_at

    layers = {}
    if tracer is not None:
        tracer.active = False
        layers["setup"] = tracing.setup_metrics(tracer.rollup(), import_s)

    times = {job.name: [] for job in jobs}
    first: dict = {}
    attempted = failed = 0
    problems: list = []
    round_layers: list = []
    rounds = 0
    begin = time.perf_counter()
    while rounds == 0 or time.perf_counter() - begin < args.seconds:
        if tracer is not None:
            tracer.reset()
        for job in jobs:
            attempted += 1
            pin_fastest_cpu()
            if tracer is not None:
                tracer.active = True
            start = time.perf_counter()
            try:
                result = job.call()
            except Exception:
                failed += 1
                problems.append(f"round {rounds} {job.name}: {traceback.format_exc()}")
                continue
            finally:
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.active = False
            times[job.name].append(elapsed)
            # rounds repeat the same inputs, so every result must equal the
            # first one; that one is checked in full once the rounds end
            if job.name not in first:
                first[job.name] = result
            elif result != first[job.name]:
                problems.append(f"round {rounds} {job.name}: result differs from round 0")
        if tracer is not None:
            round_layers.append(tracing.solve_metrics(tracer.rollup()))
        rounds += 1
    # read before the checks run: the LP oracle imports scipy
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    done: dict = {}
    for job in jobs:
        if job.name in first:
            done[job.name] = first[job.name]
            for msg in job.check(first[job.name], done):
                problems.append(f"{job.name}: {msg}")

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "job_times_s": times,
        "setup_s": setup_s,
        "solve_s": solve_time(times) if all(times.values()) else None,
        "peak_rss_mib": peak_rss_mib,
    }
    if tracer is not None:
        # layer figures of the fastest round, so that its times add up
        totals = [sum(ts[r] for ts in times.values()) for r in range(rounds)
                  ] if all(len(ts) == rounds for ts in times.values()) else [0.0]
        layers["solve"] = round_layers[totals.index(min(totals))]
        counts_vary = sorted(
            name for name, (_, unit) in round_layers[0].items()
            if unit == "count" and len({r[name][0] for r in round_layers}) > 1
        )
        report["layers"] = layers
        report["counts_vary_between_rounds"] = counts_vary
        if args.spans:
            tracer.save(args.spans)
    return report


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--spans", help="write the last round's spans (.npz) here")
    args = p.parse_args()
    print(json.dumps(run(args)))


if __name__ == "__main__":
    main()
