"""Command line interface.

One executable, ``jumpcurv``, with a subcommand per workflow: transport
distances and plans, pair drift values, contraction bounds, eigenpairs,
herding thresholds, trajectory simulation, coupled runs, Monte Carlo rate
fits, herding experiments, and an end-to-end verify that compares the fitted
rate against the certified bound.

Every subcommand returns its report payload (``contract`` and ``verify`` also
their exit code); ``main`` loads and resolves the configuration before it,
and echoes the configuration into the report and prints it after it.

Exit codes: 0 success, 2 invalid input or configuration, 3 numerical
failure, 4 contraction bound not confirmed by the fit.
"""

from __future__ import annotations

import argparse
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
from .curvature import STRATEGIES, bound_single, bound_system, resolve_workers
from . import models as M
from .sim import (
    contraction_estimate,
    default_grid,
    herd_experiment,
    simulate,
    simulate_coupled,
)
from .config import (
    FIELD_TYPES,
    ConfigError,
    RunConfig,
    emit_report,
    load_config,
    parse_metric,
    parse_site,
    read_measure_csv,
    resolve_model,
    write_csv,
    write_plan_csv,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERIC = 3
EXIT_UNCONFIRMED = 4

#: config fields a command line flag may override: name -> help; the flag's
#: type is the field's in config.FIELD_TYPES
_OVERRIDES = {
    "seed": "override the RNG seed",
    "replicas": "override the replica count",
    "horizon": "override the time horizon",
    "n_particles": "override the particle count",
    "threshold": "override the occupation threshold",
    "strategy": "override the search strategy",
    "samples": "override the sample count",
    "margin": "override the truncation margin",
    "workers": "override the worker count",
    "start_site": "override the herd start site",
}


def _config_from_args(args) -> RunConfig:
    cfg = load_config(args.config)
    overrides = {
        name: getattr(args, name)
        for name in _OVERRIDES
        if getattr(args, name, None) is not None
    }
    return RunConfig(raw={**cfg.raw, **overrides},
                     defaults_applied=cfg.defaults_applied)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_wasserstein(args) -> dict:
    g = parse_metric(args.metric)
    m1 = read_measure_csv(args.m1)
    m2 = read_measure_csv(args.m2)
    if not args.plan:
        return {"distance": wasserstein(m1, m2, g, method=args.method),
                "method": args.method}
    plan = optimal_plan(m1, m2, g, method=args.method)
    write_plan_csv(args.plan, plan)
    return {"distance": plan.cost, "method": args.method, "plan": args.plan,
            "transports": len(plan.pairs)}


def cmd_j(args) -> dict:
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
    return {"value": res.value, "method": res.method,
            "augmented_cost": res.augmented_cost}


def cmd_bound(args, cfg, rm) -> dict:
    if cfg["strategy"] not in STRATEGIES:
        raise ConfigError(f"unknown strategy {cfg['strategy']!r}")
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
    return {
        "bound": report.bound,
        "sup_value": report.sup_value,
        "witness": report.witness,
        "certification": report.certification,
        "search_stats": report.search_stats,
        "closed_form_bound": rm.closed_bound,
        "variant": rm.variant,
    }


def cmd_eigen(args, cfg, rm) -> dict:
    if rm.variant not in ("birth_death", "modified_bd"):
        raise ConfigError("eigen needs a birth_death model")
    spec = rm.spec
    pair = M.bd_eigen(spec.b, spec.d, spec.K)
    series = M.comes_down_series(spec.b, spec.d, spec.K)
    if args.eta:
        write_csv(args.eta, ["site", "eta"],
                  ([k, f"{v:.12g}"] for k, v in enumerate(pair.eta, start=1)))
    return {
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


def cmd_threshold(args, cfg, rm) -> dict:
    if rm.variant != "agents":
        raise ConfigError("threshold needs an agents model")
    th = M.herd_threshold(rm.spec.f, rm.spec.n_sites)
    return {"z_star": th.z_star, "m_star": th.m_star,
            "t_critical": th.t_critical}


def _sites(values) -> tuple:
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"start configuration {values!r} is not a list of sites")
    return tuple(parse_site(str(s), "start site") for s in values)


def _start_config(cfg: RunConfig):
    start = cfg.get("start")
    if start is None:
        raise ConfigError("config needs a start configuration")
    return _sites(start)


def _start_pairs(cfg: RunConfig):
    pairs = cfg.get("start_pairs")
    if not pairs:
        raise ConfigError("config needs start_pairs")
    if not isinstance(pairs, (list, tuple)):
        raise ConfigError(f"start_pairs {pairs!r} is not a list of pairs")
    for pair in pairs:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ConfigError(f"start pair {pair!r} is not two configurations")
    return [(_sites(y0), _sites(z0)) for y0, z0 in pairs]


def cmd_simulate(args, cfg, rm) -> dict:
    traj = simulate(rm.kernel, _start_config(cfg), float(cfg["horizon"]),
                    seed=int(cfg["seed"]))
    if args.out:
        write_csv(
            args.out,
            ["t"] + [f"x{i}" for i in range(len(traj.initial))],
            [["0", *traj.initial]]
            + [[f"{t:.12g}", *c] for t, c in zip(traj.times, traj.configs)],
        )
    return {
        "n_events": traj.n_events,
        "final": list(traj.state_at(traj.horizon)),
        "horizon": traj.horizon,
        "seed": int(cfg["seed"]),
    }


def cmd_couple(args, cfg, rm) -> dict:
    y0, z0 = _start_pairs(cfg)[0]
    traj = simulate_coupled(rm.kernel, y0, z0, float(cfg["horizon"]), rm.metric,
                            seed=int(cfg["seed"]))
    if args.out:
        write_csv(
            args.out,
            ["t", "distance"],
            [["0", f"{config_distance(y0, z0, rm.metric):.12g}"]]
            + [[f"{t:.12g}", f"{config_distance(cy, cz, rm.metric):.12g}"]
               for t, (cy, cz) in zip(traj.times, traj.states)],
        )
    fy, fz = traj.state_at(traj.horizon)
    final = config_distance(fy, fz, rm.metric)
    return {
        "n_events": traj.n_events,
        "final_distance": final,
        "coalesced": final == 0.0,
        "horizon": traj.horizon,
        "seed": int(cfg["seed"]),
    }


def cmd_contract(args, cfg, rm) -> tuple:
    """``contract`` and ``verify``: fit the contraction rate and compare it
    with the closed-form bound, or with ``--bound-override``; ``verify`` also
    reports the bound's source and the model variant."""
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
        write_csv(args.csv, ["t", "mean_d", "se"],
                  ([f"{t:.12g}", f"{m:.12g}", f"{s:.12g}"]
                   for t, m, s in zip(fit.grid, fit.mean_distance, fit.se)))
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
    return payload, EXIT_UNCONFIRMED if fit.verdict == "violated" else EXIT_OK


def cmd_herd(args, cfg, rm) -> dict:
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
    return payload


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _config_command(sub, name: str, doc: str, func, *overrides: str):
    """Register a config-driven subcommand with the named override flags."""
    p = sub.add_parser(name, help=doc)
    p.add_argument("--config", required=True, help="run configuration (JSON)")
    for key in overrides:
        p.add_argument(f"--{key.replace('_', '-')}", type=FIELD_TYPES[key],
                       default=None, dest=key, help=_OVERRIDES[key])
    p.set_defaults(func=func)
    return p


def _contract_command(sub, name: str, doc: str) -> None:
    p = _config_command(sub, name, doc, cmd_contract,
                        "seed", "horizon", "replicas", "n_particles")
    p.add_argument("--csv", default=None, help="write t,mean_d,se here")
    p.add_argument("--bound-override", type=float, default=None,
                   help="compare against this rate instead of the model bound")


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

    _config_command(sub, "bound", "contraction bound by enumeration", cmd_bound,
                    "seed", "n_particles", "strategy", "samples", "margin", "workers")
    p = _config_command(sub, "eigen", "killed-chain eigenpair and series check",
                        cmd_eigen)
    p.add_argument("--eta", default=None, help="write the eigenvector CSV here")
    _config_command(sub, "threshold", "herding threshold of an agents model",
                    cmd_threshold)
    p = _config_command(sub, "simulate", "simulate one trajectory", cmd_simulate,
                        "seed", "horizon", "n_particles")
    p.add_argument("--out", default=None, help="write the event CSV here")
    p = _config_command(sub, "couple", "simulate one coupled pair", cmd_couple,
                        "seed", "horizon", "n_particles")
    p.add_argument("--out", default=None, help="write the distance CSV here")
    _contract_command(sub, "contract", "Monte Carlo contraction-rate fit")
    p = _config_command(sub, "herd", "herding persistence experiment", cmd_herd,
                        "seed", "horizon", "replicas", "n_particles", "threshold",
                        "start_site")
    p.add_argument("--full", action="store_true",
                   help="include per-replica exit times")
    _contract_command(sub, "verify", "bound, fit, and verdict in one run")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "config", None) is None:  # wasserstein, j
            cfg, payload = None, args.func(args)
        else:
            cfg = _config_from_args(args)
            payload = args.func(args, cfg, resolve_model(cfg))
        payload, code = payload if isinstance(payload, tuple) else (payload, EXIT_OK)
        if cfg is not None:
            payload.update(cfg.echo())
        sys.stdout.write(emit_report(payload))
        return code
    except (ConfigError, ValidationError, FileNotFoundError) as exc:
        print(f"jumpcurv: error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NumericError as exc:
        print(f"jumpcurv: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
