"""Simulators: exactness diagnostics, coupling identities, fit mechanics."""

import math

import numpy as np
import pytest

from jumpcurv import (
    AgentsKernel,
    AgentsSpec,
    FiniteMeasure,
    GroundMetric,
    QuadraticPreference,
    SingleSiteKernel,
    Trajectory,
    ValidationError,
    config_distance,
    contraction_estimate,
    default_grid,
    herd_experiment,
    mean_drift,
    simulate,
    simulate_coupled,
)
from jumpcurv.sim import _pick

from conftest import CountingKernel


def _two_state(a: float = 1.0, b: float = 1.0) -> SingleSiteKernel:
    return SingleSiteKernel(
        {1: FiniteMeasure.delta(2, a), 2: FiniteMeasure.delta(1, b)}
    )


def _occupation_times(traj: Trajectory, n_sites: int, sites=None) -> np.ndarray:
    """Total time weighted by particle count on each site."""
    sites = tuple(range(n_sites)) if sites is None else tuple(sites)
    index = {s: k for k, s in enumerate(sites)}
    times = (0.0,) + traj.times + (traj.horizon,)
    states = (traj.initial,) + traj.configs
    occ = np.zeros(len(sites))
    for t1, t2, cfg in zip(times[:-1], times[1:], states):
        for s in cfg:
            occ[index[s]] += t2 - t1
    return occ


class TestSimulate:
    def test_frozen_kernel(self):
        kernel = SingleSiteKernel({0: FiniteMeasure((), ()), 1: FiniteMeasure((), ())})
        traj = simulate(kernel, (0, 1), horizon=5.0, seed=0)
        assert traj.n_events == 0
        assert traj.state_at(0.0) == (0, 1)
        assert traj.state_at(5.0) == (0, 1)

    def test_seed_determinism(self):
        spec = AgentsSpec(
            n_sites=3, temperature=1.0, f=QuadraticPreference(), n_particles=4
        )
        kernel = AgentsKernel(spec)
        a = simulate(kernel, (0, 1, 2, 0), horizon=10.0, seed=42)
        b = simulate(kernel, (0, 1, 2, 0), horizon=10.0, seed=42)
        assert a.times == b.times
        assert a.configs == b.configs
        c = simulate(kernel, (0, 1, 2, 0), horizon=10.0, seed=43)
        assert c.times != a.times

    def test_single_coordinate_per_event(self):
        spec = AgentsSpec(
            n_sites=3, temperature=1.0, f=QuadraticPreference(), n_particles=4
        )
        traj = simulate(AgentsKernel(spec), (0, 0, 1, 2), horizon=20.0, seed=3)
        assert traj.n_events > 0
        prev = traj.initial
        last = 0.0
        for t, cfg in zip(traj.times, traj.configs):
            assert t > last and t <= traj.horizon
            assert sum(1 for p, q in zip(prev, cfg) if p != q) == 1
            prev, last = cfg, t

    def test_event_count_matches_total_rate(self):
        # symmetric two-state chain: every coordinate carries mass 1 in both
        # states, so events arrive as a Poisson process of rate 3
        horizon = 200.0
        traj = simulate(_two_state(), (1, 2, 1), horizon=horizon, seed=9)
        lam = 3.0 * horizon
        assert abs(traj.n_events - lam) <= 4.0 * math.sqrt(lam)

    def test_two_state_occupation(self):
        traj = simulate(_two_state(), (1,), horizon=10_000.0, seed=0)
        assert traj.n_events >= 9_000
        occ = _occupation_times(traj, 2, sites=(1, 2))
        frac = occ[0] / traj.horizon
        # asymptotic sd of the time average is ~1/sqrt(4 horizon)
        assert abs(frac - 0.5) <= 3.0 / math.sqrt(4.0 * traj.horizon)

    def test_agents_occupation_uniform(self):
        spec = AgentsSpec(
            n_sites=3, temperature=1.0, f=QuadraticPreference(), n_particles=3
        )
        traj = simulate(AgentsKernel(spec), (0, 0, 0), horizon=2_000.0, seed=1)
        occ = _occupation_times(traj, 3) / (3 * traj.horizon)
        assert np.max(np.abs(occ - 1.0 / 3.0)) < 0.04

    def test_negative_horizon(self):
        with pytest.raises(ValidationError):
            simulate(_two_state(), (1,), horizon=-1.0)

    def test_start_configuration_validated(self):
        spec = AgentsSpec(
            n_sites=3, temperature=1.0, f=QuadraticPreference(), n_particles=2
        )
        with pytest.raises(ValidationError, match="not a site"):
            simulate(AgentsKernel(spec), (0, 7), horizon=1.0)
        with pytest.raises(ValidationError, match="at least one particle"):
            simulate(AgentsKernel(spec), (), horizon=1.0)

    def test_rates_rebuilt_only_after_moves(self):
        # agents put mass on the occupied site, so some draws are no-ops;
        # they leave the state unchanged, so the measures of the start and of
        # each move serve every draw until the next move: N rate calls per
        # build, none per no-op draw
        spec = AgentsSpec(
            n_sites=3, temperature=1.0, f=QuadraticPreference(), n_particles=5
        )
        kernel = CountingKernel(AgentsKernel(spec))
        traj = simulate(kernel, (0, 0, 0, 0, 0), horizon=20.0, seed=0)
        assert traj.n_events > 0
        assert kernel.calls == 5 * (traj.n_events + 1)

    def test_state_at_breakpoints(self):
        traj = Trajectory(
            initial=(0,), times=(1.0, 2.0), configs=((1,), (0,)), horizon=3.0, seed=0
        )
        assert traj.state_at(0.5) == (0,)
        assert traj.state_at(1.0) == (1,)
        assert traj.state_at(1.5) == (1,)
        assert traj.state_at(2.5) == (0,)

    def test_pick_never_returns_zero_weight(self):
        # the running sum 1e16 + 1 + 1 rounds back to 1e16 at each step, so
        # u * total lies past it when the loop ends; the last entry has no
        # weight and must not be chosen
        weights = [1e16, 1.0, 1.0, 0.0]
        assert _pick(weights, math.fsum(weights), 0.9999999999999999) == 2


class TestSimulateCoupled:
    def test_equal_starts_stay_equal(self):
        spec = AgentsSpec(
            n_sites=3, temperature=1.0, f=QuadraticPreference(), n_particles=3
        )
        g = GroundMetric.trivial((0, 1, 2))
        traj = simulate_coupled(
            AgentsKernel(spec), (0, 1, 2), (0, 1, 2), 20.0, g, seed=2
        )
        assert traj.n_events > 0
        for a, b in traj.states:
            assert a == b

    def test_coalescence_absorbs(self):
        g = GroundMetric.trivial((1, 2))
        traj = simulate_coupled(_two_state(), (1,), (2,), 50.0, g, seed=4)
        profile = traj.distance_profile(np.linspace(0.0, 50.0, 200), g)
        hit = next((k for k, v in enumerate(profile) if v == 0.0), None)
        assert hit is not None
        assert all(v == 0.0 for v in profile[hit:])

    def test_seed_and_replica_streams(self):
        g = GroundMetric.trivial((1, 2))
        a = simulate_coupled(_two_state(), (1,), (2,), 10.0, g, seed=6, replica=0)
        b = simulate_coupled(_two_state(), (1,), (2,), 10.0, g, seed=6, replica=0)
        c = simulate_coupled(_two_state(), (1,), (2,), 10.0, g, seed=6, replica=1)
        assert a.times == b.times and a.states == b.states
        assert a.times != c.times

    def test_one_coordinate_moves_jointly(self):
        spec = AgentsSpec(
            n_sites=3, temperature=1.0, f=QuadraticPreference(), n_particles=3
        )
        g = GroundMetric.trivial((0, 1, 2))
        traj = simulate_coupled(
            AgentsKernel(spec), (0, 0, 0), (1, 2, 1), 10.0, g, seed=8
        )
        prev = traj.initial
        for state in traj.states:
            moved = [
                i
                for i in range(3)
                if state[0][i] != prev[0][i] or state[1][i] != prev[1][i]
            ]
            assert len(moved) == 1
            prev = state

    def test_short_run_drift_matches_mean_drift(self):
        # the coupled chain's instantaneous distance drift is the averaged
        # pair drift; estimate it from many short runs
        spec = AgentsSpec(
            n_sites=2, temperature=1.0, f=QuadraticPreference(), n_particles=2
        )
        kernel = AgentsKernel(spec)
        g = GroundMetric.trivial((0, 1))
        cx, cy = (0, 0), (0, 1)
        target = mean_drift(kernel, cx, cy, g)
        h, m = 0.02, 4000
        d0 = config_distance(cx, cy, g)
        vals = np.empty(m)
        for r in range(m):
            traj = simulate_coupled(kernel, cx, cy, h, g, seed=11, replica=r)
            a, b = traj.state_at(h)
            vals[r] = config_distance(a, b, g)
        est = (float(vals.mean()) - d0) / h
        se = float(vals.std(ddof=1)) / math.sqrt(m) / h
        bias = 0.05  # second-order in h
        assert est <= target + 3.0 * se + bias
        assert abs(est - target) <= 3.0 * se + bias

    def test_plans_rebuilt_only_after_moves(self):
        # a no-op draw leaves the state unchanged, so the plans of the start
        # and of each moving event serve every draw until the next move:
        # 2N rate calls per build, none per no-op draw
        spec = AgentsSpec(
            n_sites=3, temperature=1.0, f=QuadraticPreference(), n_particles=3
        )
        g = GroundMetric.trivial((0, 1, 2))
        kernel = CountingKernel(AgentsKernel(spec))
        traj = simulate_coupled(kernel, (0, 0, 0), (1, 2, 1), 10.0, g, seed=8)
        assert traj.n_events > 0
        assert kernel.calls == 2 * 3 * (traj.n_events + 1)

    def test_size_mismatch(self):
        g = GroundMetric.trivial((1, 2))
        with pytest.raises(ValidationError):
            simulate_coupled(_two_state(), (1, 2), (1,), 1.0, g)

    def test_start_configurations_validated(self):
        spec = AgentsSpec(
            n_sites=3, temperature=1.0, f=QuadraticPreference(), n_particles=2
        )
        kernel, g = AgentsKernel(spec), GroundMetric.trivial((0, 1, 2))
        with pytest.raises(ValidationError, match="unknown site 7"):
            simulate_coupled(kernel, (0, 7), (1, 2), 1.0, g)
        with pytest.raises(ValidationError, match="unknown site 7"):
            simulate_coupled(kernel, (1, 2), (0, 7), 1.0, g)
        with pytest.raises(ValidationError, match="at least one particle"):
            simulate_coupled(kernel, (), (), 1.0, g)


class TestContractionEstimate:
    def test_default_grid_geometry(self):
        grid = default_grid(10.0)
        assert len(grid) == 20
        assert grid[0] == pytest.approx(0.1)
        assert grid[-1] == pytest.approx(10.0)
        ratios = [b / a for a, b in zip(grid, grid[1:])]
        assert max(ratios) - min(ratios) < 1e-9

    def test_two_state_rate(self):
        fit = contraction_estimate(
            _two_state(),
            GroundMetric.trivial((1, 2)),
            [((1,), (2,))],
            horizon=1.0,
            replicas=60,
            seed=5,
            bound=2.0,
        )
        assert fit.verdict == "ok"
        assert fit.passes()
        assert fit.fitted_rate == pytest.approx(2.0, abs=3.0 * fit.rate_se)
        assert all(v >= 0.0 for v in fit.mean_distance)
        assert fit.points_used <= len(fit.grid)

    def test_identical_starts_coalesce(self):
        fit = contraction_estimate(
            _two_state(),
            GroundMetric.trivial((1, 2)),
            [((1,), (1,))],
            horizon=1.0,
            replicas=30,
            seed=5,
            bound=2.0,
        )
        assert fit.coalesced
        assert fit.fitted_rate == math.inf
        assert fit.verdict == "coalesced"
        assert fit.passes()

    def test_no_bound_verdict(self):
        fit = contraction_estimate(
            _two_state(),
            GroundMetric.trivial((1, 2)),
            [((1,), (2,))],
            horizon=1.0,
            replicas=30,
            seed=5,
        )
        assert fit.verdict == "no_bound"
        assert fit.passes()

    def test_replica_floor(self):
        with pytest.raises(ValidationError, match="replicas"):
            contraction_estimate(
                _two_state(),
                GroundMetric.trivial((1, 2)),
                [((1,), (2,))],
                horizon=1.0,
                replicas=5,
            )

    def test_needs_start_pairs(self):
        with pytest.raises(ValidationError, match="start pair"):
            contraction_estimate(
                _two_state(),
                GroundMetric.trivial((1, 2)),
                [],
                horizon=1.0,
                replicas=30,
            )


class TestHerdExperiment:
    def test_single_agent_exponential_exit(self):
        # one agent leaves its start site at rate T (#E-1)/#E; with T=1.5 and
        # three sites that is exactly 1
        spec = AgentsSpec(
            n_sites=3, temperature=1.5, f=QuadraticPreference(), n_particles=1
        )
        res = herd_experiment(
            spec, n_particles=1, threshold=0.5, horizon=50.0, replicas=400, seed=3
        )
        assert res.censoring_fraction == 0.0
        assert res.mean_exit == pytest.approx(1.0, abs=0.15)
        assert res.median_exit == pytest.approx(math.log(2.0), abs=0.15)

    def test_counts_chain_matches_full_system(self):
        # the experiment simulates site counts; the full particle system
        # must produce the same first-passage law
        spec = AgentsSpec(
            n_sites=2, temperature=1.0, f=QuadraticPreference(), n_particles=3
        )
        kernel = AgentsKernel(spec)
        replicas, horizon, threshold = 300, 30.0, 0.4
        res = herd_experiment(
            spec, 3, threshold=threshold, horizon=horizon, replicas=replicas, seed=7
        )
        full = []
        for r in range(replicas):
            traj = simulate(kernel, (0, 0, 0), horizon=horizon, seed=900 + r)
            hit = horizon
            for t, cfg in zip(traj.times, traj.configs):
                if sum(1 for s in cfg if s == 0) / 3 <= threshold:
                    hit = t
                    break
            full.append(hit)
        full = np.asarray(full)
        se = math.sqrt(
            np.var(full, ddof=1) / replicas
            + np.var(res.exit_times, ddof=1) / replicas
        )
        assert res.mean_exit == pytest.approx(float(full.mean()), abs=4.0 * se)

    def test_censoring_bookkeeping(self):
        spec = AgentsSpec(
            n_sites=3, temperature=0.01, f=QuadraticPreference(), n_particles=40
        )
        res = herd_experiment(
            spec, 40, threshold=0.5, horizon=0.5, replicas=50, seed=12
        )
        assert len(res.exit_times) == 50
        assert res.censoring_fraction == sum(res.censored) / 50
        for t, c in zip(res.exit_times, res.censored):
            assert (t == 0.5) == c or not c

    def test_validation(self):
        spec = AgentsSpec(
            n_sites=3, temperature=1.0, f=QuadraticPreference(), n_particles=2
        )
        with pytest.raises(ValidationError, match="threshold"):
            herd_experiment(spec, 2, threshold=1.5, horizon=1.0, replicas=10)
        with pytest.raises(ValidationError, match="replica"):
            herd_experiment(spec, 2, threshold=0.5, horizon=1.0, replicas=0)
        with pytest.raises(ValidationError, match="start_site"):
            herd_experiment(
                spec, 2, threshold=0.5, horizon=1.0, replicas=10, start_site=5
            )
