"""Contraction-rate lower bounds for pure jump particle systems.

A system of N particles on a finite site set E is described by a
:class:`JumpKernel`: coordinate i of configuration x jumps according to the
finite measure ``kernel.rate(i, x)``.  The coupled drift of the mean
per-coordinate distance between two copies started at (x, y) is

    S(x, y) = (1/N) sum_i drift(x_i, y_i; rate_i(x), rate_i(y)),

and every system contracts at least at rate ``-sup S(x, y) / d(x, y)``.
The engines here compute that supremum by exact enumeration over ordered
pairs (single particle or full product space), by enumeration of pairs
differing in one coordinate, or by uniform sampling.  Reduction is
deterministic: on ties the lexicographically smallest witness wins,
independent of worker scheduling.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import (
    Config,
    FiniteMeasure,
    GroundMetric,
    ValidationError,
    check_configuration,
    config_distance,
)
from .drift import augmented_pair, drift_exact
from .transport import TransportPlan, optimal_plan

#: sites within this many positions of a truncation edge are excluded from
#: certified enumeration by the model-level helpers
DEFAULT_TRUNCATION_MARGIN = 5

#: hard cap on enumerated ordered pairs before the engine refuses
DEFAULT_PAIR_CAP = 10**6

WORKERS_ENV = "JUMPCURV_WORKERS"


def resolve_workers(n_workers: int | None = None) -> int:
    """Worker processes for an engine run: ``n_workers``, else the
    ``JUMPCURV_WORKERS`` environment variable, else 1; then at least 1 and at
    most ``os.cpu_count()``."""
    if n_workers is None:
        try:
            n_workers = int(os.environ.get(WORKERS_ENV, "1"))
        except ValueError:
            n_workers = 1
    return max(1, min(int(n_workers), os.cpu_count() or 1))


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


class JumpKernel:
    """Base class: per-coordinate jump measures of an N-particle system.

    ``sites`` is the site set the particles live on.  ``rate(i, config)``
    returns the finite measure of destinations for coordinate i in the given
    configuration.  It must be a pure function of (i, config): engines and
    simulators cache per-coordinate results keyed by (x_i, y_i, rate_i(x),
    rate_i(y)), which is correct for every kernel, configuration-dependent
    ones included, only under that contract.
    """

    sites: tuple = ()

    def rate(self, i: int, config: Config) -> FiniteMeasure:
        raise NotImplementedError


class SingleSiteKernel(JumpKernel):
    """Product system: every coordinate jumps per a site-indexed measure map."""

    def __init__(self, measures: Mapping, sites: Sequence | None = None):
        self.measures = dict(measures)
        self.sites = tuple(sites) if sites is not None else tuple(
            sorted(self.measures.keys())
        )

    def rate(self, i: int, config: Config) -> FiniteMeasure:
        try:
            return self.measures[config[i]]
        except KeyError:
            raise ValidationError(f"kernel has no measure at site {config[i]!r}")


def _single_site_kernel(kernel, sites) -> SingleSiteKernel:
    """Normalize a site->measure mapping / callable / kernel to a
    SingleSiteKernel of precomputed measures (picklable, so worker processes
    can take it).  A kernel is read at one particle, where no jump measure
    can depend on anything but the particle's own site."""
    if isinstance(kernel, JumpKernel):
        q = lambda x: kernel.rate(0, (x,))
    elif isinstance(kernel, Mapping):
        q = kernel.__getitem__
    elif callable(kernel):
        q = kernel
    else:
        raise ValidationError("kernel must be a mapping, callable or JumpKernel")
    return SingleSiteKernel({x: q(x) for x in sites}, sites=sites)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurvatureReport:
    """Result of a contraction-bound search.

    bound = -sup_value; witness is the argmax pair (sites for the
    single-particle engine, configurations for the system engine);
    certification is one of exact_enumeration | closed_form | sampled.
    """

    bound: float
    sup_value: float
    witness: tuple | None
    certification: str
    search_stats: dict


@dataclass(frozen=True)
class CouplingRates:
    """Per-coordinate optimal plans between augmented jump measures, plus the
    total event rate of the coupled system at this configuration pair."""

    plans: tuple
    total_rate: float


class _Best:
    """Deterministic running maximum: larger value wins, ties go to the
    lexicographically smallest witness."""

    __slots__ = ("value", "witness")

    def __init__(self):
        self.value = -math.inf
        self.witness = None

    def offer(self, value: float, witness) -> None:
        if self.witness is None or value > self.value or (
            value == self.value and witness < self.witness
        ):
            self.value = value
            self.witness = witness

    def merge(self, other: "_Best") -> None:
        if other.witness is not None:
            self.offer(other.value, other.witness)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def mean_drift(kernel: JumpKernel, cx: Config, cy: Config, g: GroundMetric,
               cache: dict | None = None) -> float:
    """(1/N) sum_i drift(x_i, y_i) for a configuration pair.

    Coordinates with x_i = y_i contribute their (possibly nonzero, for
    configuration-dependent kernels) diagonal drift terms.
    """
    n = len(cx)
    total = 0.0
    for i in range(n):
        m1 = kernel.rate(i, cx)
        m2 = kernel.rate(i, cy)
        if cache is not None:
            key = (cx[i], cy[i], m1, m2)
            hit = cache.get(key)
            if hit is None:
                hit = drift_exact(cx[i], cy[i], m1, m2, g).value
                cache[key] = hit
            total += hit
        else:
            total += drift_exact(cx[i], cy[i], m1, m2, g).value
    return total / n


class _RateRows:
    """A kernel's rate rows, memoized for one scan: ``rate(i, c)`` is entry i
    of the row ``(kernel.rate(0, c), ..., kernel.rate(N-1, c))``, built the
    first time ``c`` is seen.  Exact under the :class:`JumpKernel` contract
    that rates are a pure function of (i, config)."""

    __slots__ = ("kernel", "rows")

    def __init__(self, kernel: JumpKernel):
        self.kernel = kernel
        self.rows: dict = {}

    def rate(self, i: int, config: Config) -> FiniteMeasure:
        row = self.rows.get(config)
        if row is None:
            rate = self.kernel.rate
            row = self.rows[config] = tuple(rate(j, config) for j in range(len(config)))
        return row[i]


def _scan(kernel: JumpKernel, g: GroundMetric, pairs, interior_set, cache):
    """The one scan body: drift/distance over ordered configuration pairs.

    Equal pairs are skipped, pairs at distance zero are skipped and counted.
    Pairs inside ``interior_set`` (None: every pair) feed the certified
    maximum, the rest the boundary maximum.  ``cache`` is the drift cache
    of :func:`mean_drift` (None: no cache).  Returns (best, boundary, pairs
    examined, pairs skipped).

    Each configuration's rate row is built once per scan (:class:`_RateRows`)
    and shared by every pair containing it, so the scan makes N rate calls
    per distinct configuration and holds at most N measures for each: at
    most N |E|^N per worker for the exhaustive strategy, 2 N ``samples`` for
    the random one.
    """
    kernel = _RateRows(kernel)
    best = _Best()
    boundary = _Best()
    examined = 0
    skipped = 0
    for cx, cy in pairs:
        if cx == cy:
            continue
        dist = config_distance(cx, cy, g)
        if dist == 0.0:
            skipped += 1
            continue
        examined += 1
        ratio = mean_drift(kernel, cx, cy, g, cache) / dist
        if interior_set is None or (
            interior_set.issuperset(cx) and interior_set.issuperset(cy)
        ):
            best.offer(ratio, (cx, cy))
        else:
            boundary.offer(ratio, (cx, cy))
    return best, boundary, examined, skipped


def _scan_range(args):
    """Worker: scan the ordered pairs of ``configs`` with flat indices in
    [lo, hi)."""
    kernel, g, configs, lo, hi, interior_set, cached = args
    pairs = itertools.islice(itertools.product(configs, repeat=2), lo, hi)
    return _scan(kernel, g, pairs, interior_set, {} if cached else None)


def _exhaustive(kernel, g, configs, interior_set, n_workers):
    """All ordered pairs of ``configs``, in contiguous flat-index ranges, one
    per worker; the merge is independent of the split."""
    m = len(configs)
    # with one particle no (x_i, y_i) pair repeats, so a drift cache never hits
    cached = m > 0 and len(configs[0]) > 1
    jobs = [
        (kernel, g, configs, lo, hi, interior_set, cached)
        for lo, hi in _split_range(m * m, n_workers)
    ]
    if n_workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(_scan_range, jobs))
    else:
        results = [_scan_range(job) for job in jobs]
    best = _Best()
    boundary = _Best()
    examined = 0
    skipped = 0
    for b, o, e, s in results:
        best.merge(b)
        boundary.merge(o)
        examined += e
        skipped += s
    return best, boundary, examined, skipped


def _split_range(n: int, parts: int):
    parts = max(1, min(parts, n)) if n > 0 else 1
    step = (n + parts - 1) // parts
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)] or [(0, 0)]


def _adjacent_pairs(sites, n: int):
    """Ordered pairs differing in exactly one coordinate."""
    for cx in itertools.product(sites, repeat=n):
        for i in range(n):
            for y in sites:
                if y != cx[i]:
                    yield cx, cx[:i] + (y,) + cx[i + 1 :]


def _random_pairs(sites, n: int, samples: int, seed: int):
    """Up to ``samples`` uniform pairs with cx != cy from Philox(seed), one
    draw of 2N site indices per candidate, at most 100 * samples + 100
    draws."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    drawn = 0
    kept = 0
    while kept < samples and drawn < 100 * samples + 100:
        drawn += 1
        idx = rng.integers(0, len(sites), size=2 * n)
        cx = tuple(sites[k] for k in idx[:n])
        cy = tuple(sites[k] for k in idx[n:])
        if cx != cy:
            kept += 1
            yield cx, cy


def bound_single(
    kernel,
    g: GroundMetric,
    interior: Sequence | None = None,
    n_workers: int | None = None,
) -> CurvatureReport:
    """Exact enumeration of drift/distance over ordered site pairs x != y.

    The N = 1 case of the exhaustive system scan, with site-pair witnesses.
    ``interior`` restricts the certified supremum to pairs inside it (used
    by truncated models, where pairs touching the truncation edge are biased
    by missing jumps); pairs touching the complement are still scanned and
    reported under ``search_stats["boundary_sup"]``.
    """
    sites = g.require_sites()
    kernel = _single_site_kernel(kernel, sites)
    interior_set = set(sites if interior is None else interior)
    unknown = interior_set - set(sites)
    if unknown:
        raise ValidationError(f"interior contains unknown sites {sorted(unknown)!r}")

    best, boundary, pairs, skipped = _exhaustive(
        kernel, g, [(x,) for x in sites], interior_set, resolve_workers(n_workers)
    )
    if best.witness is None:
        raise ValidationError("no certified site pair with positive distance")
    stats = {
        "engine": "single",
        "pairs_examined": pairs,
        "pairs_skipped_zero_distance": skipped,
        "interior_sites": len(interior_set),
        "total_sites": len(sites),
    }
    if boundary.witness is not None:
        (bx,), (by,) = boundary.witness
        stats["boundary_sup"] = boundary.value
        stats["boundary_witness"] = (bx, by)
    (x,), (y,) = best.witness
    return CurvatureReport(
        bound=-best.value,
        sup_value=best.value,
        witness=(x, y),
        certification="exact_enumeration",
        search_stats=stats,
    )


def bound_system(
    kernel: JumpKernel,
    g: GroundMetric,
    n_particles: int,
    strategy: str = "exhaustive",
    samples: int = 1000,
    seed: int = 0,
    pair_cap: int = DEFAULT_PAIR_CAP,
    interior: Sequence | None = None,
    n_workers: int | None = None,
) -> CurvatureReport:
    """Supremum of mean drift / distance over ordered configuration pairs.

    strategy:
      exhaustive -- all |E|^(2N) ordered pairs (refused above ``pair_cap``);
                    certified exact_enumeration
      adjacent   -- pairs differing in exactly one coordinate; cheap, and for
                    many models the sup lives there, but never certified
      random     -- ``samples`` uniform pairs with the given seed
                    (1 <= samples <= ``pair_cap``); never certified, and
                    under-estimates the supremum
    """
    if n_particles < 1:
        raise ValidationError("n_particles must be >= 1")
    sites = g.require_sites()
    interior_set = None if interior is None else set(interior)
    stats: dict = {
        "engine": "system",
        "strategy": strategy,
        "n_particles": n_particles,
        "total_sites": len(sites),
    }

    if strategy == "exhaustive":
        total = len(sites) ** (2 * n_particles)
        if total > pair_cap:
            raise ValidationError(
                f"exhaustive enumeration would visit {total} pairs "
                f"(cap {pair_cap}); use strategy='random'"
            )
        configs = list(itertools.product(sites, repeat=n_particles))
        result = _exhaustive(kernel, g, configs, interior_set, resolve_workers(n_workers))
        certification = "exact_enumeration"
    elif strategy == "adjacent":
        total = len(sites) ** n_particles * n_particles * max(len(sites) - 1, 0)
        if total > pair_cap:
            raise ValidationError(
                f"adjacent enumeration would visit {total} pairs (cap {pair_cap})"
            )
        pairs = _adjacent_pairs(sites, n_particles)
        result = _scan(kernel, g, pairs, interior_set, {})
        certification = "sampled"
    elif strategy == "random":
        if not 1 <= samples <= pair_cap:
            raise ValidationError(
                f"samples must be between 1 and the pair cap {pair_cap}, got {samples}"
            )
        pairs = _random_pairs(sites, n_particles, samples, seed)
        result = _scan(kernel, g, pairs, interior_set, {})
        stats["seed"] = seed
        certification = "sampled"
    else:
        raise ValidationError(f"unknown strategy {strategy!r}")

    best, boundary, pairs_examined, skipped = result
    if best.witness is None:
        raise ValidationError("no certified configuration pair was examined")
    stats["pairs_examined"] = pairs_examined
    stats["pairs_skipped_zero_distance"] = skipped
    if boundary.witness is not None:
        stats["boundary_sup"] = boundary.value
        stats["boundary_witness"] = boundary.witness
    return CurvatureReport(
        bound=-best.value,
        sup_value=best.value,
        witness=best.witness,
        certification=certification,
        search_stats=stats,
    )


# ---------------------------------------------------------------------------
# coupled jump rates
# ---------------------------------------------------------------------------


def coordinate_plan(
    kernel: JumpKernel, i: int, cx: Config, cy: Config, g: GroundMetric,
    cache: dict | None = None,
) -> TransportPlan:
    """Optimal plan of coordinate i between the augmented jump measures
    rate_i(x) + mass_i(y) delta_{x_i} and rate_i(y) + mass_i(x) delta_{y_i}.

    ``cache`` (None: no cache) maps (x_i, y_i, rate_i(x), rate_i(y)) to the
    plan, as in :func:`mean_drift`; the plan is a function of that key alone.
    """
    m1 = kernel.rate(i, cx)
    m2 = kernel.rate(i, cy)
    if cache is None:
        return optimal_plan(*augmented_pair(cx[i], cy[i], m1, m2), g)
    key = (cx[i], cy[i], m1, m2)
    plan = cache.get(key)
    if plan is None:
        plan = cache[key] = optimal_plan(*augmented_pair(cx[i], cy[i], m1, m2), g)
    return plan


def coupling_rates(
    kernel: JumpKernel, cx: Config, cy: Config, g: GroundMetric
) -> CouplingRates:
    """Optimal per-coordinate couplings of the two jump mechanisms.

    For coordinate i the plan couples rate_i(x) + mass_i(y) delta_{x_i} with
    rate_i(y) + mass_i(x) delta_{y_i}; sampling moves from it gives a coupled
    process whose per-coordinate distance drift is exactly the drift
    functional (cost_i - (mass_i(x) + mass_i(y)) d(x_i, y_i), averaged).
    """
    cx = check_configuration(cx, g)
    cy = check_configuration(cy, g)
    if len(cx) != len(cy):
        raise ValidationError("configuration sizes differ")
    plans = [coordinate_plan(kernel, i, cx, cy, g) for i in range(len(cx))]
    total = math.fsum(p.total_mass for p in plans)
    return CouplingRates(plans=tuple(plans), total_rate=total)
