"""Span tracing for the traced benchmark run.

Wrappers are installed from here, around the public functions and classes of
each ``jumpcurv`` module; the package source is not modified.  Every wrapped
call records one span: its name, start, end and parent span.  Spans stay in
memory in flat arrays (24 bytes each) and are rolled up into per-layer
metrics when a round ends.  A layer's self time is the duration of its spans
minus the time covered by their child spans.

Functions imported by name into other modules are patched in every module
that binds them, so calls made inside the package are seen too.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

#: spans whose self time is the engine's own work
ENGINE_SPANS = ("curvature.bound_single", "curvature.bound_system", "curvature.mean_drift")
CLOSED_FORMS = ("bd_bound", "modified_bd_bound", "agents_bound", "fv_bound",
                "zero_range_bound", "herd_threshold")
KERNEL_CLASSES = ("AgentsKernel", "FlemingViotKernel", "ZeroRangeKernel", "MeanFieldBDKernel")


def transport_route(g, method: str) -> str:
    """The route `wasserstein`/`optimal_plan` dispatch to, read from the
    metric kind and the ``method`` argument."""
    if method != "auto":
        return method
    if g.kind == "trivial":
        return "trivial"
    return "line" if g.is_line() else "lp"


class Tracer:
    """In-memory span store plus the counters read from call arguments and
    results.  Recording happens only while ``active`` is true, so output
    checks run between engine calls leave no spans."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.active = False
        self.reset()

    def reset(self) -> None:
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, fn, name: str, after=None):
        """Return fn wrapped in a span named ``name``; ``after(args, kwargs,
        result)`` updates counters once the call returns."""
        nid = self._id(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            start = tracer.start
            idx = len(start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1])
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                tracer._stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    # -- installation -------------------------------------------------------

    def install(self, jc) -> None:
        """Wrap the public layer boundaries of the imported package ``jc``."""
        core, transport, drift = jc.core, jc.transport, jc.drift
        curvature, models, sim, config = jc.curvature, jc.models, jc.sim, jc.config

        def patch(modules, attr, name, after=None):
            wrapped = self.wrap(getattr(modules[0], attr), name, after)
            for mod in modules:
                if hasattr(mod, attr):
                    setattr(mod, attr, wrapped)

        def patch_method(cls, attr, name, after=None):
            setattr(cls, attr, self.wrap(getattr(cls, attr), name, after))

        def solve_route(args, kwargs, out):
            g = args[2] if len(args) > 2 else kwargs["g"]
            method = args[3] if len(args) > 3 else kwargs.get("method", "auto")
            self.count("transport.route." + transport_route(g, method))

        def engine_pairs(args, kwargs, out):
            self.count("curvature.pairs", out.search_stats["pairs_examined"])

        def coordinates(args, kwargs, out):
            self.count("curvature.coord_evals", len(args[1]))

        def coupled_events(args, kwargs, out):
            self.count("sim.events", out.n_events)

        def herd_replicas(args, kwargs, out):
            self.count("sim.herd_replicas", out.replicas)

        # core
        patch_method(core.FiniteMeasure, "__init__", "core.FiniteMeasure")
        patch_method(core.LineBaseMeasure, "interval_mass", "core.interval_mass")
        # transport: the routes are counted on the public entry points
        users = (transport, drift, models, curvature, sim, jc)
        patch(users, "wasserstein", "transport.wasserstein", solve_route)
        patch(users, "optimal_plan", "transport.optimal_plan", solve_route)
        patch((transport, jc), "wasserstein_line", "transport.wasserstein_line")
        patch_method(transport.TransportPlan, "__post_init__", "transport.plan_check")
        # drift
        patch((drift, curvature, models, jc), "drift_exact", "drift.drift_exact")
        # kernels (SingleSiteKernel lives in curvature; birth-death specs build it)
        patch_method(curvature.SingleSiteKernel, "rate", "models.rate")
        for cls in KERNEL_CLASSES:
            patch_method(getattr(models, cls), "rate", "models.rate")
        # closed forms, looked up on the models module by config.resolve_model
        for fn in CLOSED_FORMS:
            patch((models, jc), fn, "models.closed_form")
        # engines
        patch((curvature, models, jc), "bound_single", "curvature.bound_single", engine_pairs)
        patch((curvature, jc), "bound_system", "curvature.bound_system", engine_pairs)
        patch((curvature, jc), "mean_drift", "curvature.mean_drift", coordinates)
        # simulators
        patch((sim, jc), "simulate_coupled", "sim.simulate_coupled", coupled_events)
        patch((sim, jc), "contraction_estimate", "sim.contraction_estimate")
        patch((sim, jc), "herd_experiment", "sim.herd_experiment", herd_replicas)
        # configuration
        patch((config, jc), "load_config", "config.load_config")
        patch((config, jc), "resolve_model", "config.resolve_model")

    # -- roll-up ------------------------------------------------------------

    def rollup(self) -> dict:
        """Per span name: calls, total (inclusive) time and self time, plus
        the drift calls made from ``mean_drift``."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        par = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = par >= 0
        child = np.bincount(par[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        selft = np.bincount(nid, weights=own, minlength=k)
        out = {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(selft[i])}
            for i, name in enumerate(self.names)
        }
        drift = self._ids.get("drift.drift_exact")
        mean = self._ids.get("curvature.mean_drift")
        from_mean = 0
        if drift is not None and mean is not None:
            mask = (nid == drift) & has_parent
            from_mean = int(np.count_nonzero(nid[par[mask]] == mean))
        out["_counts"] = dict(self.counts, **{"drift.from_mean_drift": from_mean})
        return out

    def save(self, path) -> None:
        """Write the recorded spans (name table, name ids, parents, starts,
        ends) as an uncompressed .npz file."""
        np.savez(
            path,
            names=np.asarray(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def _get(r: dict, name: str, field: str) -> float:
    return r.get(name, {}).get(field, 0)


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def setup_metrics(r: dict, import_s: float) -> dict:
    """Set-up layers: import, configuration load and resolve, closed forms."""
    return {
        "jumpcurv.import_s": (import_s, "s"),
        "config.load_s": (_get(r, "config.load_config", "total_s"), "s"),
        "config.resolve_s": (_get(r, "config.resolve_model", "total_s"), "s"),
        "models.closed_form_s": (_get(r, "models.closed_form", "total_s"), "s"),
    }


def solve_metrics(r: dict) -> dict:
    """Solve-phase layers of one round."""
    c = r["_counts"]
    routes = {k: c.get("transport.route." + k, 0) for k in ("trivial", "line", "lp")}
    solves = sum(routes.values())
    solve_s = _get(r, "transport.wasserstein", "total_s") + _get(r, "transport.optimal_plan", "total_s")
    drift_n = _get(r, "drift.drift_exact", "calls")
    drift_s = _get(r, "drift.drift_exact", "total_s")
    pairs = c.get("curvature.pairs", 0)
    engine_total = _get(r, "curvature.bound_single", "total_s") + _get(r, "curvature.bound_system", "total_s")
    engine_self = sum(_get(r, name, "self_s") for name in ENGINE_SPANS)
    coord = c.get("curvature.coord_evals", 0)
    events = c.get("sim.events", 0)
    coupled_total = _get(r, "sim.simulate_coupled", "total_s")
    plans = _get(r, "transport.optimal_plan", "calls")
    herd_s = _get(r, "sim.herd_experiment", "total_s")
    return {
        "core.interval_mass_calls": (_get(r, "core.interval_mass", "calls"), "count"),
        "core.interval_mass_s": (_get(r, "core.interval_mass", "total_s"), "s"),
        "core.measures_built": (_get(r, "core.FiniteMeasure", "calls"), "count"),
        "core.measure_build_s": (_get(r, "core.FiniteMeasure", "total_s"), "s"),
        "transport.solves_trivial": (routes["trivial"], "count"),
        "transport.solves_line": (routes["line"], "count"),
        "transport.solves_lp": (routes["lp"], "count"),
        "transport.solve_s": (solve_s, "s"),
        "transport.solves_per_s": (_rate(solves, solve_s), "1/s"),
        "transport.plans_built": (plans, "count"),
        "transport.plan_s": (_get(r, "transport.optimal_plan", "total_s"), "s"),
        "transport.plan_checks": (_get(r, "transport.plan_check", "calls"), "count"),
        "transport.plan_check_s": (_get(r, "transport.plan_check", "total_s"), "s"),
        "drift.evals": (drift_n, "count"),
        "drift.eval_s": (drift_s, "s"),
        "drift.evals_per_s": (_rate(drift_n, drift_s), "1/s"),
        "models.rate_calls": (_get(r, "models.rate", "calls"), "count"),
        "models.rate_s": (_get(r, "models.rate", "total_s"), "s"),
        "curvature.pairs": (pairs, "count"),
        "curvature.engine_s": (engine_self, "s"),
        "curvature.pairs_per_s": (_rate(pairs, engine_total), "1/s"),
        "curvature.coord_evals": (coord, "count"),
        "curvature.cache_hit_ratio": (
            1.0 - c["drift.from_mean_drift"] / coord if coord else 0.0, "ratio"),
        "sim.replicas": (_get(r, "sim.simulate_coupled", "calls"), "count"),
        "sim.events": (events, "count"),
        "sim.coupled_s": (_get(r, "sim.simulate_coupled", "self_s"), "s"),
        "sim.events_per_s": (_rate(events, coupled_total), "1/s"),
        "sim.plans_per_event": (_rate(plans, events), "ratio"),
        "sim.fit_s": (_get(r, "sim.contraction_estimate", "self_s"), "s"),
        "sim.herd_s": (herd_s, "s"),
        "sim.herd_replicas_per_s": (_rate(c.get("sim.herd_replicas", 0), herd_s), "1/s"),
    }
