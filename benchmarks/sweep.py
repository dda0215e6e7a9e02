"""Repeat benchmark runs over seeds and summarise them.

    python3 benchmarks/sweep.py [--workloads a,b] [--seeds 0-9] [--seconds 20] [--trace 0]

Runs benchmarks/run.py once per (workload, seed), one run at a time, and
prints per workload and metric the median, the quartiles and the spread
(quartile distance over median, as statistics.quantiles(values, n=4) gives
them), plus the share of failed operations.  This is how the reference
figures in README.md were made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def seeds_arg(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-9"))
    p.add_argument("--seconds", default="20")
    p.add_argument("--trace", default="0")
    args = p.parse_args()

    bad = False
    for workload in args.workloads.split(","):
        values: dict = {}
        shares = set()
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
                cwd=HERE.parent, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                bad = True
                continue
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            bad |= not out["correct"]
            shares.add(out["failed"] / out["attempted"])
            for name, m in out["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: correct={out['correct']} attempted={out['attempted']} "
                  + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        print(f"{workload}: failed share {sorted(shares)}")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:28s} median {med:.4g}  q1 {q1:.4g}  q3 {q3:.4g}  spread {spread:.3f}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
