"""The four workloads: set-up (configuration load, model resolution, closed
forms) and jobs (one engine call each, with its output check).

Every job goes through the same public calls the CLI subcommands make:
``config.load_config`` -> ``config.resolve_model`` -> the engine in
``curvature`` or ``sim``.  Engines are looked up on their module at call
time, so the traced run sees them through its wrappers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import checks as C

#: birth-death size of the line-route scan (10,100 ordered pairs)
BD_CDI_K = 100
#: agents exhaustive scans on 3 sites: 3^(2N) ordered pairs each
AGENTS_N = 4
UNIFORM_N = 4
#: replicas per coupled fit
COUPLED_REPLICAS = 50
COUPLED_PRESETS = ("agents-uniform", "fv-discrete", "mm1-sqrt2")
#: tolerance, in jackknife standard errors, of the exact-rate check
RATE_SE_TOLERANCE = 4.0
#: herd study: (temperature, N) runs, 100 replicas each.  The critical
#: temperature of f(z) = z^2 on 3 sites is about 0.21: at T = 0.1 the
#: censoring fraction rises from about 0.02 (N = 30) to about 0.6 (N = 70);
#: at T = 2 every replica exits within a few time units
HERD_RUNS = ((0.1, 30), (0.1, 50), (0.1, 70), (2.0, 50), (2.0, 200))
HERD_REPLICAS = 100
HERD_HORIZON = 100.0
#: site pairs per job whose ratio the seed picks for an LP spot check
SPOT_PAIRS = 8

WORKLOADS = ("bd-line-certify", "agents-system-certify", "coupled-contraction",
             "herd-metastability")


@dataclass
class Job:
    """One operation: ``call`` makes the engine call; ``check(result,
    done)`` returns failure messages, where ``done`` maps the names of the
    workload's earlier jobs to their results."""

    name: str
    call: Callable[[], object]
    check: Callable[[object, dict], list]


def _resolve(jc, source: dict):
    cfg = jc.config.load_config(source)
    return cfg, jc.config.resolve_model(cfg)


# ---------------------------------------------------------------------------
# bd-line-certify
# ---------------------------------------------------------------------------


def _bd_job(jc, name, cfg_source, expected, birth, death, seed) -> Job:
    cfg, rm = _resolve(jc, cfg_source)
    K = rm.spec.K
    g = rm.metric
    FiniteMeasure = jc.core.FiniteMeasure

    def measure(x):
        # nearest-neighbour jumps, rebuilt from the rate formulas
        atoms, weights = [], []
        if x >= 1 and death(x) > 0.0:
            atoms.append(x - 1)
            weights.append(death(x))
        if x < K and birth(x) > 0.0:
            atoms.append(x + 1)
            weights.append(birth(x))
        return FiniteMeasure(atoms, weights)

    def ratio_of(x, y):
        return C.lp_pair_drift(jc, x, y, measure(x), measure(y), g) / g.dist(x, y)

    rng = random.Random(f"{name}:{seed}")
    spot = [tuple(rng.sample(rm.interior, 2)) for _ in range(SPOT_PAIRS)]

    def call():
        return jc.curvature.bound_single(rm.kernel, g, interior=rm.interior, n_workers=1)

    def check(report, done):
        return (C.check_certified(report, expected, rm.closed_bound)
                + C.check_witness(report, ratio_of)
                + C.check_spot_pairs(report, ratio_of, spot))

    return Job(name, call, check)


def bd_line_certify(jc, seed: int) -> list:
    bd_cdi = {
        "preset": "bd-cdi",
        "model": {
            "variant": "birth_death",
            "K": BD_CDI_K,
            "b": {"kind": "const", "value": 1.0},
            "d": {"kind": "quadratic", "a": 1.0},
            "u": {"kind": "const", "value": 1.0},
        },
    }
    return [
        _bd_job(jc, f"bd-cdi-K{BD_CDI_K}", bd_cdi, C.BD_CDI_BOUND,
                lambda x: 1.0, lambda x: float(x * x), seed),
        _bd_job(jc, "mm1-sqrt2", {"preset": "mm1-sqrt2"}, C.MM1_SQRT2_BOUND,
                lambda x: 1.0, lambda x: 2.0, seed),
    ]


# ---------------------------------------------------------------------------
# agents-system-certify
# ---------------------------------------------------------------------------


def _system_job(jc, name, preset, n, seed, extra_check) -> Job:
    cfg, rm = _resolve(jc, {"preset": preset, "n_particles": n})
    spec, g = rm.spec, rm.metric

    def call():
        return jc.curvature.bound_system(
            rm.kernel, g, n, strategy="exhaustive", samples=int(cfg["samples"]),
            seed=int(cfg["seed"]), interior=rm.interior, n_workers=1)

    def ratio_of(cx, cy):
        return C.lp_mean_drift_ratio(jc, spec, cx, cy, g)

    def check(report, done):
        out = C.check_exact_enumeration(report) + C.check_witness(report, ratio_of)
        return out + extra_check(rm, report)

    return Job(name, call, check)


def agents_system_certify(jc, seed: int) -> list:
    def quadratic_checks(rm, report):
        spec = rm.spec
        # T - ||f||_Lip + n f(1/n) for the monotone convex f(z) = z^2
        floor = spec.temperature - 2.0 + spec.n_sites * (1.0 / spec.n_sites) ** 2
        sampled = jc.curvature.bound_system(
            rm.kernel, rm.metric, spec.n_particles, strategy="random",
            samples=1000, seed=seed, n_workers=1)
        return (C.check_at_least(report.bound, floor, "closed form")
                + C.check_at_least(report.bound, rm.closed_bound, "program closed form")
                + C.check_at_least(sampled.bound, report.bound, "exhaustive bound"))

    def uniform_checks(rm, report):
        # with f = 0 the agents re-sample uniformly: the bound is exactly T
        T = rm.spec.temperature
        return [] if C.close(report.bound, T) else [f"f=0 bound {report.bound!r} != T={T!r}"]

    return [
        _system_job(jc, f"agents-quadratic-N{AGENTS_N}", "agents-quadratic",
                    AGENTS_N, seed, quadratic_checks),
        _system_job(jc, f"agents-uniform-N{UNIFORM_N}", "agents-uniform",
                    UNIFORM_N, seed, uniform_checks),
    ]


# ---------------------------------------------------------------------------
# coupled-contraction
# ---------------------------------------------------------------------------


def coupled_contraction(jc, seed: int) -> list:
    jobs = []
    for preset in COUPLED_PRESETS:
        cfg, rm = _resolve(jc, {"preset": preset, "replicas": COUPLED_REPLICAS,
                                "seed": seed})
        horizon = float(cfg["horizon"])
        grid = jc.sim.default_grid(horizon, int(cfg["grid_points"]))
        pairs = [(tuple(y0), tuple(z0)) for y0, z0 in cfg["start_pairs"]]

        def call(rm=rm, cfg=cfg, horizon=horizon, grid=grid, pairs=pairs):
            return jc.sim.contraction_estimate(
                rm.kernel, rm.metric, pairs, horizon, replicas=int(cfg["replicas"]),
                grid=grid, seed=int(cfg["seed"]), bound=rm.closed_bound)

        if preset == "agents-uniform":
            # f = 0: the coupled mean distance decays as exp(-T t) exactly.
            # The closed-form bound equals that rate, so the program's own
            # 2-se verdict is a one-sided test of a tight bound and is left
            # out here (it reads "violated" on some seeds).
            T = rm.spec.temperature

            def check(fit, done, T=T):
                return C.check_exact_rate(fit, T, RATE_SE_TOLERANCE)
        else:
            def check(fit, done):
                return C.check_verdict(fit)
        jobs.append(Job(preset, call, check))
    return jobs


# ---------------------------------------------------------------------------
# herd-metastability
# ---------------------------------------------------------------------------


def herd_metastability(jc, seed: int) -> list:
    jobs = []
    z_star = None
    for T, n in HERD_RUNS:
        cfg, rm = _resolve(jc, {
            "preset": "agents-quadratic",
            "model": {"variant": "agents", "n_sites": 3, "temperature": T,
                      "f": {"kind": "quadratic"}},
            "n_particles": n, "replicas": HERD_REPLICAS, "horizon": HERD_HORIZON,
            "seed": seed,
        })
        if z_star is None:
            # the threshold depends on f and the site count only
            z_star = jc.models.herd_threshold(rm.spec.f, rm.spec.n_sites).z_star
        same_t = [f"herd-T{t:g}-N{m}" for t, m in HERD_RUNS if t == T]
        name = f"herd-T{T:g}-N{n}"

        def call(rm=rm, cfg=cfg, n=n, z_star=z_star):
            return jc.sim.herd_experiment(
                rm.spec, n, z_star, float(cfg["horizon"]), int(cfg["replicas"]),
                start_site=int(cfg["start_site"]), seed=int(cfg["seed"]))

        def check(result, done, z_star=z_star, T=T, group=same_t, name=name):
            out = C.check_z_star(z_star)
            if name != group[-1]:
                return out
            results = [done[j] for j in group[:-1] if j in done] + [result]
            if T < 1.0:
                return out + C.check_censoring_grows([r.censoring_fraction for r in results])
            return out + C.check_fast_exit(results)

        jobs.append(Job(name, call, check))
    return jobs


SETUPS = {
    "bd-line-certify": bd_line_certify,
    "agents-system-certify": agents_system_certify,
    "coupled-contraction": coupled_contraction,
    "herd-metastability": herd_metastability,
}
