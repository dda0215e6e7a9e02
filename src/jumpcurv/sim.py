"""Event-driven simulation of jump systems and their distance-optimal coupling.

Randomness comes from NumPy's Philox bit generator (counter-based, 4x64):
a run is fully determined by its integer seed, and replica r of an ensemble
uses the stream ``Philox(key=seed).jumped(r)``, so ensembles are reproducible
and independent of scheduling.  Aggregation is always in replica-index order.

Each event of the plain simulator draws, in this order: one exponential
waiting time, one uniform for the moving coordinate, one uniform for the
destination.  The coupled simulator replaces the destination draw by a draw
from the per-coordinate optimal plans between the two augmented jump
measures.  Each run caches those plans by (x_i, y_i, rate_i(x), rate_i(y)),
for every kernel: the plan is a deterministic function of that key, so a
cached plan equals the fresh one and the draws do not change.  Draws that
land on the current state (kernel mass at the occupied site, or the diagonal
leftover of the augmented coupling) consume time and randomness but produce
no breakpoint, so every recorded event moves exactly one coordinate.  Such a
no-op draw leaves the state as it was, so the coupled simulator reuses the
current plans for the next draw and rebuilds them only after a move.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    Config,
    GroundMetric,
    ValidationError,
    check_configuration,
    config_distance,
)
from .curvature import JumpKernel, coordinate_plan
from .models import AgentsSpec

#: fewest replicas for which ensemble statistics are reported
MIN_REPLICAS = 30


def _stream(seed: int, replica: int | None = None) -> np.random.Generator:
    bits = np.random.Philox(key=seed)
    if replica is not None:
        bits = bits.jumped(replica)
    return np.random.Generator(bits)


def _pick(weights, total: float, u: float) -> int:
    """Index k with cumulative weight just above u * total.

    When rounding leaves the running sum at or below u * total to the end,
    the last index with positive weight is returned.
    """
    acc = 0.0
    target = u * total
    for k, w in enumerate(weights):
        acc += w
        if target < acc:
            return k
    return max(k for k, w in enumerate(weights) if w > 0.0)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Trajectory:
    """Piecewise-constant path: state_at(t) is the configuration after the
    last event at or before t."""

    initial: Config
    times: tuple
    configs: tuple
    horizon: float
    seed: int

    def state_at(self, t: float) -> Config:
        k = bisect_right(self.times, t)
        return self.initial if k == 0 else self.configs[k - 1]

    @property
    def n_events(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class CoupledTrajectory:
    """Two synchronously coupled copies; states are (config, config) pairs."""

    initial: tuple
    times: tuple
    states: tuple
    horizon: float
    seed: int

    def state_at(self, t: float) -> tuple:
        k = bisect_right(self.times, t)
        return self.initial if k == 0 else self.states[k - 1]

    def distance_profile(self, grid: Sequence[float], g: GroundMetric):
        out = []
        for t in grid:
            a, b = self.state_at(t)
            out.append(config_distance(a, b, g))
        return out

    @property
    def n_events(self) -> int:
        return len(self.times)


# ---------------------------------------------------------------------------
# simulators
# ---------------------------------------------------------------------------


def simulate(
    kernel: JumpKernel, x0: Sequence, horizon: float, seed: int = 0
) -> Trajectory:
    """Exact event-driven simulation up to the horizon.

    ``x0`` needs at least one particle, each on a site of ``kernel.sites``.
    Zero total rate freezes the trajectory (single segment, no events).
    """
    if horizon < 0.0:
        raise ValidationError("horizon must be non-negative")
    cfg = tuple(x0)
    if not cfg:
        raise ValidationError("a configuration needs at least one particle")
    sites = set(kernel.sites)
    for x in cfg:
        if x not in sites:
            raise ValidationError(f"start site {x!r} is not a site of the kernel")
    n = len(cfg)
    rng = _stream(seed)
    t = 0.0
    times = []
    configs = []
    while True:
        measures = [kernel.rate(i, cfg) for i in range(n)]
        total = math.fsum(m.mass for m in measures)
        if total <= 0.0:
            break
        t += rng.exponential(1.0 / total)
        if t > horizon:
            break
        i = _pick([m.mass for m in measures], total, rng.random())
        m = measures[i]
        dest = m.atoms[_pick(m.weights, m.mass, rng.random())]
        if dest == cfg[i]:
            # kernels may carry mass on the current site (the agents model
            # does); such draws spend time but are not jumps
            continue
        cfg = cfg[:i] + (dest,) + cfg[i + 1 :]
        times.append(t)
        configs.append(cfg)
    return Trajectory(tuple(x0), tuple(times), tuple(configs), horizon, seed)


def simulate_coupled(
    kernel: JumpKernel,
    y0: Sequence,
    z0: Sequence,
    horizon: float,
    g: GroundMetric,
    seed: int = 0,
    replica: int | None = None,
) -> CoupledTrajectory:
    """Simulate the distance-optimal coupling of two copies of the system.

    At each event one coordinate is chosen proportionally to its coupled
    rate and a destination pair is drawn from its optimal plan, moving both
    copies at once (possibly trivially on one side).  Marginally each copy
    follows its own kernel; copies started equal under a shared kernel stay
    equal.  ``replica`` selects the jumped sub-stream of the seed.
    """
    if horizon < 0.0:
        raise ValidationError("horizon must be non-negative")
    cy, cz = check_configuration(y0, g), check_configuration(z0, g)
    if len(cy) != len(cz):
        raise ValidationError("the two copies need the same particle count")
    n = len(cy)
    rng = _stream(seed, replica)
    cache: dict = {}

    def coupled_plans(cy, cz):
        plans = [coordinate_plan(kernel, i, cy, cz, g, cache) for i in range(n)]
        masses = [p.total_mass for p in plans]
        return plans, masses, math.fsum(masses)

    plans, masses, total = coupled_plans(cy, cz)
    t = 0.0
    times = []
    states = []
    while total > 0.0:
        t += rng.exponential(1.0 / total)
        if t > horizon:
            break
        i = _pick(masses, total, rng.random())
        plan = plans[i]
        u, v, _ = plan.pairs[
            _pick([w for _, _, w in plan.pairs], plan.total_mass, rng.random())
        ]
        if u == cy[i] and v == cz[i]:
            # leftover diagonal mass of the augmented coupling: neither copy
            # moves, so no breakpoint is recorded
            continue
        cy = cy[:i] + (u,) + cy[i + 1 :]
        cz = cz[:i] + (v,) + cz[i + 1 :]
        times.append(t)
        states.append((cy, cz))
        plans, masses, total = coupled_plans(cy, cz)
    return CoupledTrajectory(
        (tuple(y0), tuple(z0)), tuple(times), tuple(states), horizon, seed
    )


# ---------------------------------------------------------------------------
# contraction estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContractionFit:
    """Log-linear fit of the replica-mean coupled distance.

    fitted_rate is minus the slope of log mean distance over the grid points
    with positive mean; rate_se is the leave-one-replica-out (jackknife)
    standard error of that slope.  ``coalesced`` marks ensembles whose mean
    distance hits exactly zero before a two-point fit is possible
    (contraction too fast to measure: the rate is reported as +inf).
    """

    grid: tuple
    mean_distance: tuple
    se: tuple
    fitted_rate: float
    rate_se: float
    replicas: int
    bound: float | None
    coalesced: bool
    points_used: int

    def passes(self) -> bool:
        """fitted rate >= bound - 2 se (coalescence passes trivially)."""
        if self.bound is None:
            return True
        if self.coalesced:
            return True
        return self.fitted_rate >= self.bound - 2.0 * self.rate_se

    @property
    def verdict(self) -> str:
        if self.bound is None:
            return "no_bound"
        if self.coalesced:
            return "coalesced"
        return "ok" if self.passes() else "violated"


def default_grid(horizon: float, points: int = 20) -> tuple:
    """Geometric grid over [horizon/100, horizon]."""
    if horizon <= 0.0:
        raise ValidationError("horizon must be positive")
    return tuple(np.geomspace(horizon / 100.0, horizon, points))


def contraction_estimate(
    kernel: JumpKernel,
    g: GroundMetric,
    start_pairs: Sequence[tuple],
    horizon: float,
    replicas: int = 200,
    grid: Sequence[float] | None = None,
    seed: int = 0,
    bound: float | None = None,
) -> ContractionFit:
    """Monte Carlo contraction rate of the coupled system.

    Replica r (stream ``jumped(r)``) starts from start_pairs[r % len], runs
    to the horizon, and contributes its distance profile on the grid.
    """
    if replicas < MIN_REPLICAS:
        raise ValidationError(f"need at least {MIN_REPLICAS} replicas")
    if not start_pairs:
        raise ValidationError("need at least one start pair")
    grid = default_grid(horizon) if grid is None else tuple(float(t) for t in grid)
    profiles = np.empty((replicas, len(grid)))
    for r in range(replicas):
        y0, z0 = start_pairs[r % len(start_pairs)]
        traj = simulate_coupled(kernel, y0, z0, horizon, g, seed=seed, replica=r)
        profiles[r] = traj.distance_profile(grid, g)
    mean = profiles.mean(axis=0)
    se = profiles.std(axis=0, ddof=1) / math.sqrt(replicas)

    x = np.asarray(grid)
    slope = _log_slope(x, mean)
    used = int(np.count_nonzero(mean > 0.0))
    if slope is None:
        return ContractionFit(
            grid, tuple(mean), tuple(se), math.inf, 0.0, replicas, bound, True, used
        )

    # every grid point is built from the same replicas, so the residual-based
    # least-squares error is far too small; the leave-one-replica-out
    # jackknife measures the actual sampling spread of the slope
    total = profiles.sum(axis=0)
    jack = []
    for r in range(replicas):
        s = _log_slope(x, (total - profiles[r]) / (replicas - 1))
        if s is not None:
            jack.append(s)
    if len(jack) >= 2:
        n = len(jack)
        centered = np.asarray(jack) - np.mean(jack)
        rate_se = math.sqrt((n - 1) / n * float(centered @ centered))
    else:
        rate_se = math.inf
    return ContractionFit(
        grid,
        tuple(mean),
        tuple(se),
        -slope,
        rate_se,
        replicas,
        bound,
        False,
        used,
    )


def _log_slope(x: np.ndarray, mean: np.ndarray) -> float | None:
    """Least-squares slope of log mean over the points with positive mean;
    None when fewer than two such points remain."""
    keep = mean > 0.0
    if int(np.count_nonzero(keep)) < 2:
        return None
    slope, _ = np.polyfit(x[keep], np.log(mean[keep]), 1)
    return float(slope)


# ---------------------------------------------------------------------------
# herding persistence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HerdResult:
    """First-passage statistics of the start-site occupation fraction.

    exit_times holds one entry per replica, censored runs entering at the
    horizon value; the censoring fraction is reported separately.
    log_mean_over_n = log(mean exit time) / n_particles is the scaling
    diagnostic for metastable runs.
    """

    exit_times: tuple
    censored: tuple
    median_exit: float
    mean_exit: float
    censoring_fraction: float
    log_mean_over_n: float
    n_particles: int
    replicas: int
    threshold: float


def herd_experiment(
    spec: AgentsSpec,
    n_particles: int,
    threshold: float,
    horizon: float,
    replicas: int,
    start_site: int = 0,
    seed: int = 0,
) -> HerdResult:
    """Start all agents on one site; record the first time the occupation
    fraction there drops to <= threshold, censoring at the horizon.

    The site-occupation counts of the agents system are themselves Markov
    (agents are exchangeable and rates depend on the configuration only
    through the counts), so the experiment simulates the count process
    directly; self-jumps, which never change the counts, are skipped.
    """
    if replicas < 1:
        raise ValidationError("need at least one replica")
    if not (0.0 < threshold < 1.0):
        raise ValidationError("threshold must be inside (0, 1)")
    n_sites = spec.n_sites
    if not (0 <= start_site < n_sites):
        raise ValidationError(f"start_site must be in 0..{n_sites - 1}")
    f = spec.f
    base = spec.temperature / n_sites
    exit_times = []
    censored = []
    for r in range(replicas):
        rng = _stream(seed, r)
        counts = [0] * n_sites
        counts[start_site] = n_particles
        t = 0.0
        exit_at = None
        while True:
            pull = [base + f(c / n_particles) for c in counts]
            rates = []
            total = 0.0
            for x in range(n_sites):
                if counts[x] == 0:
                    continue
                for y in range(n_sites):
                    if y == x:
                        continue
                    w = counts[x] * pull[y]
                    if w > 0.0:
                        rates.append((x, y, w))
                        total += w
            if total <= 0.0:
                break
            t += rng.exponential(1.0 / total)
            if t > horizon:
                break
            x, y, _ = rates[_pick([w for _, _, w in rates], total, rng.random())]
            counts[x] -= 1
            counts[y] += 1
            if counts[start_site] / n_particles <= threshold:
                exit_at = t
                break
        if exit_at is None:
            exit_times.append(horizon)
            censored.append(True)
        else:
            exit_times.append(exit_at)
            censored.append(False)
    mean_exit = float(np.mean(exit_times))
    return HerdResult(
        exit_times=tuple(exit_times),
        censored=tuple(censored),
        median_exit=float(np.median(exit_times)),
        mean_exit=mean_exit,
        censoring_fraction=sum(censored) / replicas,
        log_mean_over_n=math.log(mean_exit) / n_particles if mean_exit > 0 else -math.inf,
        n_particles=n_particles,
        replicas=replicas,
        threshold=threshold,
    )
