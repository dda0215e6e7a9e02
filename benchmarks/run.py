"""jumpcurv benchmark: one workload, one run.

    python3 benchmarks/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The workload runs in a fresh interpreter
(worker.py) with one worker and single-threaded numeric libraries.  The last
stdout line is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The worker's full report (per-job times, check
messages, layer roll-ups) is written under benchmarks/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from worker import pin_fastest_cpu
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
#: the worker is stopped after this long; a run must end within 180 s
TIMEOUT_S = 170


def _fail(message: str) -> int:
    print(f"benchmark: {message}", file=sys.stderr)
    return 1


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (ROOT / "src" / "jumpcurv" / "__init__.py").is_file():
        return _fail(f"no package source at {ROOT / 'src' / 'jumpcurv'}")
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(JUMPCURV_WORKERS="1", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(RESULTS / f"{args.workload}.spans.npz")]
    # the worker inherits the CPU chosen here, and its cold set-up starts in
    # a fast moment; the probing ends before the spawn instant, so set-up
    # time does not include it
    pin_fastest_cpu(wait_s=1.0)
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(time.monotonic())],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return _fail(f"worker did not finish within {TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return _fail(f"worker exited with code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")

    for msg in report["problems"]:
        print(msg, file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for phase in ("setup", "solve")
                   for name, (value, unit) in report["layers"][phase].items()}
        metrics["trace.solve_s"] = {"value": report["solve_s"], "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": report["setup_s"], "unit": "s"},
            "solve_s": {"value": report["solve_s"], "unit": "s"},
            "peak_rss_mib": {"value": report["peak_rss_mib"], "unit": "MiB"},
        }
    failed = report["failed"]
    print(json.dumps({
        "correct": len(report["problems"]) == failed,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
