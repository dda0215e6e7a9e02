"""Command line interface.

One executable, ``jumpcurv``, with a subcommand per workflow: transport
distances and plans, pair drift values, contraction bounds, eigenpairs,
herding thresholds, trajectory simulation, coupled runs, Monte Carlo rate
fits, herding experiments, and an end-to-end verify that compares the fitted
rate against the certified bound.

Exit codes: 0 success, 2 invalid input or configuration, 3 numerical
failure, 4 contraction bound not confirmed by the fit.
"""

from __future__ import annotations

import argparse
import csv
import sys

from .core import (
    FiniteMeasure,
    NumericError,
    ValidationError,
    config_distance,
)
from .transport import optimal_plan, wasserstein
from .drift import (
    drift_classical_bound,
    drift_density_closed_form,
    drift_exact,
    drift_kernel_bound,
)
from .curvature import bound_single, bound_system, resolve_workers
from . import models as M
from .sim import (
    contraction_estimate,
    default_grid,
    herd_experiment,
    simulate,
    simulate_coupled,
)
from .config import (
    ConfigError,
    RunConfig,
    emit_report,
    load_config,
    parse_metric,
    parse_site,
    read_measure_csv,
    resolve_model,
    write_plan_csv,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERIC = 3
EXIT_UNCONFIRMED = 4


def _config_from_args(args) -> RunConfig:
    cfg = load_config(args.config)
    overrides = {}
    for name in (
        "seed",
        "replicas",
        "horizon",
        "n_particles",
        "threshold",
        "strategy",
        "samples",
        "margin",
        "workers",
        "start_site",
    ):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if not overrides:
        return cfg
    merged = dict(cfg.raw)
    merged.update(overrides)
    return RunConfig(raw=merged, defaults_applied=cfg.defaults_applied)


def _print(report: dict) -> None:
    sys.stdout.write(emit_report(report))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_wasserstein(args) -> int:
    g = parse_metric(args.metric)
    m1 = read_measure_csv(args.m1)
    m2 = read_measure_csv(args.m2)
    if args.plan:
        plan = optimal_plan(m1, m2, g, method=args.method)
        write_plan_csv(args.plan, plan)
        _print({"distance": plan.cost, "method": args.method, "plan": args.plan,
                "transports": len(plan.pairs)})
    else:
        _print({"distance": wasserstein(m1, m2, g, method=args.method),
                "method": args.method})
    return EXIT_OK


def cmd_j(args) -> int:
    g = parse_metric(args.metric)
    x, y = parse_site(args.x), parse_site(args.y)
    m1 = read_measure_csv(args.m1)
    m2 = read_measure_csv(args.m2)
    if args.method == "exact":
        res = drift_exact(x, y, m1, m2, g)
    elif args.method == "classical":
        res = drift_classical_bound(x, y, m1, m2, g)
    elif args.method == "density":
        # measures are densities against counting measure on the site set
        sites = g.require_sites()
        zeta = FiniteMeasure(sites, (1.0,) * len(sites))
        res = drift_density_closed_form(x, y, m1, m2, zeta)
    else:  # kernel: total mass = rate, normalized measure = displacement law
        if m1.mass <= 0.0 or m2.mass <= 0.0:
            raise ValidationError("kernel method needs measures with positive mass")
        res = drift_kernel_bound(
            x, y, m1.mass, m2.mass, m1.scale(1.0 / m1.mass), m2.scale(1.0 / m2.mass), g
        )
    _print({"value": res.value, "method": res.method,
            "augmented_cost": res.augmented_cost})
    return EXIT_OK


def cmd_bound(args) -> int:
    cfg = _config_from_args(args)
    rm = resolve_model(cfg)
    n = int(cfg["n_particles"])
    workers = resolve_workers(cfg.get("workers"))
    if n == 1:
        report = bound_single(rm.kernel, rm.metric, interior=rm.interior,
                              n_workers=workers)
    else:
        report = bound_system(
            rm.kernel,
            rm.metric,
            n,
            strategy=cfg["strategy"],
            samples=int(cfg["samples"]),
            seed=int(cfg["seed"]),
            interior=rm.interior,
            n_workers=workers,
        )
    payload = {
        "bound": report.bound,
        "sup_value": report.sup_value,
        "witness": report.witness,
        "certification": report.certification,
        "search_stats": report.search_stats,
        "closed_form_bound": rm.closed_bound,
        "variant": rm.variant,
    }
    payload.update(cfg.echo())
    _print(payload)
    return EXIT_OK


def cmd_eigen(args) -> int:
    cfg = _config_from_args(args)
    rm = resolve_model(cfg)
    if rm.variant not in ("birth_death", "modified_bd"):
        raise ConfigError("eigen needs a birth_death model")
    spec = rm.spec
    pair = M.bd_eigen(spec.b, spec.d, spec.K)
    series = M.comes_down_series(spec.b, spec.d, spec.K)
    if args.eta:
        with open(args.eta, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["site", "eta"])
            for k, v in enumerate(pair.eta, start=1):
                writer.writerow([k, f"{v:.12g}"])
    payload = {
        "lambda_0": pair.lam,
        "residual": pair.residual,
        "K": pair.K,
        "eta_1": pair.eta[0],
        "eta_max": pair.eta[-1],
        "series": {
            "converged": series.converged,
            "value": series.partial_sums[-1],
            "last_increment": series.last_increment,
        },
    }
    payload.update(cfg.echo())
    _print(payload)
    return EXIT_OK


def cmd_threshold(args) -> int:
    cfg = _config_from_args(args)
    rm = resolve_model(cfg)
    if rm.variant != "agents":
        raise ConfigError("threshold needs an agents model")
    th = M.herd_threshold(rm.spec.f, rm.spec.n_sites)
    payload = {"z_star": th.z_star, "m_star": th.m_star,
               "t_critical": th.t_critical}
    payload.update(cfg.echo())
    _print(payload)
    return EXIT_OK


def _start_config(cfg: RunConfig):
    start = cfg.get("start")
    if start is None:
        raise ConfigError("config needs a start configuration")
    return tuple(parse_site(str(s)) for s in start)


def _start_pairs(cfg: RunConfig):
    pairs = cfg.get("start_pairs")
    if not pairs:
        raise ConfigError("config needs start_pairs")
    return [
        (
            tuple(parse_site(str(s)) for s in y0),
            tuple(parse_site(str(s)) for s in z0),
        )
        for y0, z0 in pairs
    ]


def cmd_simulate(args) -> int:
    cfg = _config_from_args(args)
    rm = resolve_model(cfg)
    traj = simulate(rm.kernel, _start_config(cfg), float(cfg["horizon"]),
                    seed=int(cfg["seed"]))
    if args.out:
        n = len(traj.initial)
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t"] + [f"x{i}" for i in range(n)])
            writer.writerow(["0"] + list(traj.initial))
            for t, cfg_t in zip(traj.times, traj.configs):
                writer.writerow([f"{t:.12g}"] + list(cfg_t))
    payload = {
        "n_events": traj.n_events,
        "final": list(traj.state_at(traj.horizon)),
        "horizon": traj.horizon,
        "seed": int(cfg["seed"]),
    }
    payload.update(cfg.echo())
    _print(payload)
    return EXIT_OK


def cmd_couple(args) -> int:
    cfg = _config_from_args(args)
    rm = resolve_model(cfg)
    y0, z0 = _start_pairs(cfg)[0]
    traj = simulate_coupled(rm.kernel, y0, z0, float(cfg["horizon"]), rm.metric,
                            seed=int(cfg["seed"]))
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "distance"])
            writer.writerow(["0", f"{config_distance(y0, z0, rm.metric):.12g}"])
            for t, (cy, cz) in zip(traj.times, traj.states):
                writer.writerow([f"{t:.12g}",
                                 f"{config_distance(cy, cz, rm.metric):.12g}"])
    fy, fz = traj.state_at(traj.horizon)
    final = config_distance(fy, fz, rm.metric)
    payload = {
        "n_events": traj.n_events,
        "final_distance": final,
        "coalesced": final == 0.0,
        "horizon": traj.horizon,
        "seed": int(cfg["seed"]),
    }
    payload.update(cfg.echo())
    _print(payload)
    return EXIT_OK


def _write_fit_csv(path: str, fit) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "mean_d", "se"])
        for t, m, s in zip(fit.grid, fit.mean_distance, fit.se):
            writer.writerow([f"{t:.12g}", f"{m:.12g}", f"{s:.12g}"])


def cmd_contract(args) -> int:
    """``contract`` and ``verify``: fit the contraction rate and compare it
    with the closed-form bound, or with ``--bound-override``; ``verify`` also
    reports the bound's source and the model variant."""
    cfg = _config_from_args(args)
    rm = resolve_model(cfg)
    overridden = args.bound_override is not None
    bound = args.bound_override if overridden else rm.closed_bound
    fit = contraction_estimate(
        rm.kernel,
        rm.metric,
        _start_pairs(cfg),
        float(cfg["horizon"]),
        replicas=int(cfg["replicas"]),
        grid=default_grid(float(cfg["horizon"]), int(cfg["grid_points"])),
        seed=int(cfg["seed"]),
        bound=bound,
    )
    if args.csv:
        _write_fit_csv(args.csv, fit)
    payload = {
        "fitted_rate": fit.fitted_rate,
        "rate_se": fit.rate_se,
        "bound": fit.bound,
        "verdict": fit.verdict,
        "replicas": fit.replicas,
        "points_used": fit.points_used,
        "coalesced": fit.coalesced,
    }
    if args.command == "verify":
        payload["bound_source"] = "override" if overridden else "closed_form"
        payload["variant"] = rm.variant
    payload.update(cfg.echo())
    _print(payload)
    return EXIT_UNCONFIRMED if fit.verdict == "violated" else EXIT_OK


def cmd_herd(args) -> int:
    cfg = _config_from_args(args)
    rm = resolve_model(cfg)
    if rm.variant != "agents":
        raise ConfigError("herd needs an agents model")
    threshold = cfg.get("threshold")
    if threshold is None:
        raise ConfigError("config needs a threshold")
    result = herd_experiment(
        rm.spec,
        int(cfg["n_particles"]),
        float(threshold),
        float(cfg["horizon"]),
        int(cfg["replicas"]),
        start_site=int(cfg["start_site"]),
        seed=int(cfg["seed"]),
    )
    payload = {
        "median_exit": result.median_exit,
        "mean_exit": result.mean_exit,
        "censoring_fraction": result.censoring_fraction,
        "log_mean_over_n": result.log_mean_over_n,
        "n_particles": result.n_particles,
        "replicas": result.replicas,
        "threshold": result.threshold,
    }
    if args.full:
        payload["exit_times"] = list(result.exit_times)
        payload["censored"] = list(result.censored)
    payload.update(cfg.echo())
    _print(payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_config_options(p: argparse.ArgumentParser, *names: str) -> None:
    p.add_argument("--config", required=True, help="run configuration (JSON)")
    table = {
        "seed": (int, "override the RNG seed"),
        "replicas": (int, "override the replica count"),
        "horizon": (float, "override the time horizon"),
        "n_particles": (int, "override the particle count"),
        "threshold": (float, "override the occupation threshold"),
        "strategy": (str, "override the search strategy"),
        "samples": (int, "override the sample count"),
        "margin": (int, "override the truncation margin"),
        "workers": (int, "override the worker count"),
        "start_site": (int, "override the herd start site"),
    }
    for name in names:
        typ, doc = table[name]
        p.add_argument(f"--{name.replace('_', '-')}", type=typ, default=None,
                       dest=name, help=doc)


def _add_contract_parser(sub, name: str, doc: str) -> None:
    p = sub.add_parser(name, help=doc)
    _add_config_options(p, "seed", "horizon", "replicas", "n_particles")
    p.add_argument("--csv", default=None, help="write t,mean_d,se here")
    p.add_argument("--bound-override", type=float, default=None,
                   help="compare against this rate instead of the model bound")
    p.set_defaults(func=cmd_contract)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jumpcurv",
        description="contraction rates of pure jump particle systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wasserstein", help="transport distance between measures")
    p.add_argument("--m1", required=True, help="first measure (site,weight CSV)")
    p.add_argument("--m2", required=True, help="second measure (site,weight CSV)")
    p.add_argument("--metric", required=True, help="metric spec or file")
    p.add_argument("--method", default="auto",
                   choices=["auto", "lp", "trivial", "line"])
    p.add_argument("--plan", default=None, help="write the plan CSV here")
    p.set_defaults(func=cmd_wasserstein)

    p = sub.add_parser("j", help="pair drift of two jump measures")
    p.add_argument("--x", required=True, help="first base site")
    p.add_argument("--y", required=True, help="second base site")
    p.add_argument("--m1", required=True)
    p.add_argument("--m2", required=True)
    p.add_argument("--metric", required=True)
    p.add_argument("--method", default="exact",
                   choices=["exact", "classical", "density", "kernel"])
    p.set_defaults(func=cmd_j)

    p = sub.add_parser("bound", help="contraction bound by enumeration")
    _add_config_options(p, "seed", "n_particles", "strategy", "samples",
                        "margin", "workers")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("eigen", help="killed-chain eigenpair and series check")
    _add_config_options(p)
    p.add_argument("--eta", default=None, help="write the eigenvector CSV here")
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("threshold", help="herding threshold of an agents model")
    _add_config_options(p)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("simulate", help="simulate one trajectory")
    _add_config_options(p, "seed", "horizon", "n_particles")
    p.add_argument("--out", default=None, help="write the event CSV here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("couple", help="simulate one coupled pair")
    _add_config_options(p, "seed", "horizon", "n_particles")
    p.add_argument("--out", default=None, help="write the distance CSV here")
    p.set_defaults(func=cmd_couple)

    _add_contract_parser(sub, "contract", "Monte Carlo contraction-rate fit")

    p = sub.add_parser("herd", help="herding persistence experiment")
    _add_config_options(p, "seed", "horizon", "replicas", "n_particles",
                        "threshold", "start_site")
    p.add_argument("--full", action="store_true",
                   help="include per-replica exit times")
    p.set_defaults(func=cmd_herd)

    _add_contract_parser(sub, "verify", "bound, fit, and verdict in one run")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValidationError, FileNotFoundError) as exc:
        print(f"jumpcurv: error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NumericError as exc:
        print(f"jumpcurv: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
