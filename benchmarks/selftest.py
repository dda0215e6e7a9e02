"""Self-test of the benchmark's output checks.

    python3 benchmarks/selftest.py [--seed N]

Runs every job of every workload once, then shows that each check passes on
the real output and rejects a deliberately wrong copy of it: a bound shifted
by 1e-6, a swapped witness, a fitted rate moved by 4 standard errors, a
verdict-breaking fit, a censoring sequence in reverse order, a censored
replica above the critical temperature.  It also checks that ``bound_system``
gives the same bound and witness with one and with two workers, and prints
both times.  Exits 1 if anything is off.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import jumpcurv as jc  # noqa: E402

import checks as C  # noqa: E402
import workloads  # noqa: E402

failures: list = []


def expect(label: str, messages: list, should_fail: bool) -> None:
    ok = bool(messages) == should_fail
    verdict = "PASS" if ok else "FAIL"
    shown = f" ({messages[0][:90]})" if messages else ""
    print(f"{verdict}  {label}: {'rejected' if messages else 'accepted'}{shown}")
    if not ok:
        failures.append(label)


def shift_bound(report, delta=1e-6):
    return replace(report, bound=report.bound + delta, sup_value=report.sup_value - delta)


def swap_witness(report):
    x, y = report.witness
    return replace(report, witness=(y, x))


def run_jobs(name: str, seed: int):
    jobs = workloads.SETUPS[name](jc, seed)
    done = {}
    for job in jobs:
        done[job.name] = job.call()
    return jobs, done


def certify(name: str, seed: int) -> None:
    jobs, done = run_jobs(name, seed)
    for job in jobs:
        report = done[job.name]
        expect(f"{job.name} real output", job.check(report, done), False)
        expect(f"{job.name} bound shifted by 1e-6", job.check(shift_bound(report), done), True)
        expect(f"{job.name} swapped witness", job.check(swap_witness(report), done), True)


def coupled(seed: int) -> None:
    jobs, done = run_jobs("coupled-contraction", seed)
    for job in jobs:
        fit = done[job.name]
        expect(f"{job.name} real output", job.check(fit, done), False)
        if job.name == "agents-uniform":
            # move away from the exact rate, on the side the fit already lies
            side = 1.0 if fit.fitted_rate >= fit.bound else -1.0
            moved = replace(fit, fitted_rate=fit.fitted_rate + side * 4.0 * fit.rate_se)
            expect(f"{job.name} fitted rate moved by 4 se", job.check(moved, done), True)
        else:
            low = replace(fit, fitted_rate=fit.bound - 3.0 * fit.rate_se)
            expect(f"{job.name} fitted rate 3 se below the bound", job.check(low, done), True)


def herd(seed: int) -> None:
    jobs, done = run_jobs("herd-metastability", seed)
    for job in jobs:
        expect(f"{job.name} real output", job.check(done[job.name], done), False)
    cold = [job.name for job in jobs if "-T0.1-" in job.name]
    hot = [job.name for job in jobs if "-T2-" in job.name]
    fractions = [done[n].censoring_fraction for n in cold]
    print(f"      censoring fractions at T = 0.1: {fractions}")
    reversed_done = dict(done)
    for n, frac in zip(cold, reversed(fractions)):
        reversed_done[n] = replace(done[n], censoring_fraction=frac)
    last = jobs[[j.name for j in jobs].index(cold[-1])]
    expect("censoring sequence in reverse order",
           last.check(reversed_done[cold[-1]], reversed_done), True)
    last_hot = jobs[[j.name for j in jobs].index(hot[-1])]
    censored = replace(done[hot[-1]], censoring_fraction=0.01)
    expect("a censored replica at T = 2", last_hot.check(censored, done), True)
    expect("z_star shifted by 1e-6", C.check_z_star(C.HERD_Z_STAR + 1e-6), True)


def workers_agree() -> None:
    cfg = jc.config.load_config({"preset": "agents-quadratic", "n_particles": 4})
    rm = jc.config.resolve_model(cfg)
    out = {}
    for n_workers in (1, 2):
        start = time.perf_counter()
        report = jc.curvature.bound_system(rm.kernel, rm.metric, 4, n_workers=n_workers)
        out[n_workers] = (report.bound, report.witness, time.perf_counter() - start)
    same = out[1][:2] == out[2][:2]
    print(f"{'PASS' if same else 'FAIL'}  bound_system agents-quadratic N=4 with 1 and 2 workers: "
          f"bound {out[1][0]!r} / {out[2][0]!r}, witness {out[1][1]} / {out[2][1]}; "
          f"{out[1][2]:.3f} s / {out[2][2]:.3f} s")
    if not same:
        failures.append("workers")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=0)
    seed = p.parse_args().seed
    certify("bd-line-certify", seed)
    certify("agents-system-certify", seed)
    coupled(seed)
    herd(seed)
    workers_agree()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
