"""Contraction-bound engines, coupling rates, and their exchange identities."""

import itertools
import math
import os

import numpy as np
import pytest

from jumpcurv import (
    AgentsKernel,
    AgentsSpec,
    BirthDeathSpec,
    CurvatureReport,
    FiniteMeasure,
    FlemingViotKernel,
    FlemingViotSpec,
    GroundMetric,
    JumpKernel,
    MeanFieldBDKernel,
    MeanFieldBDSpec,
    ModifiedBDSpec,
    QuadraticPreference,
    SingleSiteKernel,
    ValidationError,
    ZeroRangeKernel,
    ZeroRangeSpec,
    agents_bound,
    bd_bound,
    bd_interior,
    bd_metric,
    bound_single,
    bound_system,
    build_kernel,
    config_distance,
    coupling_rates,
    drift_exact,
    mean_drift,
    wasserstein,
)

from jumpcurv.curvature import (
    WORKERS_ENV,
    _adjacent_pairs,
    _random_pairs,
    coordinate_plan,
    resolve_workers,
)

from conftest import CountingKernel, rng_for, random_measure, random_metric


def _two_state_kernel(a: float, b: float) -> SingleSiteKernel:
    return SingleSiteKernel(
        {1: FiniteMeasure.delta(2, a), 2: FiniteMeasure.delta(1, b)}
    )


def _random_bd_spec(rng, K: int, modified: bool = False):
    b = tuple(float(v) for v in rng.uniform(0.2, 2.0, size=K + 1))
    d = (0.0,) + tuple(float(v) for v in rng.uniform(0.2, 2.0, size=K))
    u = tuple(float(v) for v in rng.uniform(0.5, 2.0, size=K))
    cls = ModifiedBDSpec if modified else BirthDeathSpec
    return cls(b=b, d=d, u=u, K=K)


class NeighbourKernel(JumpKernel):
    """A configuration-dependent kernel that declares only ``sites`` and
    ``rate``."""

    sites = (0, 1, 2)

    def rate(self, i, config):
        other = config[(i + 1) % len(config)]
        return FiniteMeasure([other, (config[i] + 1) % 3], [1.0 + other, 0.5])


def _zr_rate(x, n):
    return 1.0 + 0.5 * n


def _q_plus(x, cfg):
    return 0.2 * sum(cfg) / len(cfg)


def _q_minus(x, cfg):
    return 0.1 * max(cfg)


def _kernel_cases():
    """(kernel, metric) for every configuration-dependent family and for
    :class:`NeighbourKernel`; all picklable, so worker processes take them."""
    trivial = GroundMetric.trivial((0, 1, 2))
    K = 4
    return [
        (
            AgentsKernel(AgentsSpec(
                n_sites=3, temperature=0.5, f=QuadraticPreference(), n_particles=3
            )),
            trivial,
        ),
        (
            ZeroRangeKernel(ZeroRangeSpec(
                sites=(0, 1, 2),
                P=np.full((3, 3), 0.5) - 0.5 * np.eye(3),
                n_particles=3,
                zr_rate=_zr_rate,
            )),
            trivial,
        ),
        (
            FlemingViotKernel(FlemingViotSpec(
                sites=(0, 1, 2),
                q={x: FiniteMeasure([(x + 1) % 3], [1.0]) for x in (0, 1, 2)},
                beta={0: 1.0, 1: 0.5, 2: 0.0},
            )),
            trivial,
        ),
        (
            MeanFieldBDKernel(MeanFieldBDSpec(
                b=(0.5,) * (K + 1),
                d=tuple(0.8 * x for x in range(K + 1)),
                K=K,
                q_plus=_q_plus,
                q_minus=_q_minus,
                a_const=0.0,
                b_const=0.0,
            )),
            GroundMetric.weighted_line((1.0,) * K),
        ),
        (NeighbourKernel(), trivial),
    ]


def _direct_scan(kernel, g, pairs, interior):
    """Reference scan: a fresh, uncached mean_drift per ordered pair, the
    running maximum kept with the engine's tie-break (larger value, then the
    smaller witness).  Returns ((sup, witness), (boundary sup, witness),
    pairs examined)."""
    inside = set(interior)
    top = {True: None, False: None}
    examined = 0
    for cx, cy in pairs:
        if cx == cy:
            continue
        dist = config_distance(cx, cy, g)
        if dist == 0.0:
            continue
        examined += 1
        value = mean_drift(kernel, cx, cy, g) / dist
        side = inside.issuperset(cx) and inside.issuperset(cy)
        cur = top[side]
        if cur is None or (-value, (cx, cy)) < (-cur[0], cur[1]):
            top[side] = (value, (cx, cy))
    return top[True], top[False], examined


class TestSingleEngine:
    def test_two_state(self):
        a, b = 1.3, 0.6
        rep = bound_single(_two_state_kernel(a, b), GroundMetric.trivial((1, 2)))
        assert rep.bound == pytest.approx(a + b, abs=1e-12)
        assert rep.sup_value == pytest.approx(-(a + b), abs=1e-12)
        assert rep.certification == "exact_enumeration"
        assert rep.witness == (1, 2)

    def test_coalescing_kernel(self):
        # every site jumps to the same target at rate c: distance always
        # drops to zero at rate c
        c = 0.75
        sites = (0, 1, 2, 3)
        kernel = {x: FiniteMeasure.delta(2, c) for x in sites}
        rep = bound_single(kernel, GroundMetric.trivial(sites))
        assert rep.bound == pytest.approx(c, abs=1e-12)

    def test_bd_sharp_geometric(self):
        K = 30
        r = math.sqrt(2.0)
        spec = BirthDeathSpec(
            b=(1.0,) * (K + 1),
            d=(0.0,) + (2.0,) * K,
            u=tuple(r**k for k in range(K)),
            K=K,
        )
        rep = bound_single(
            build_kernel(spec), bd_metric(spec), interior=bd_interior(spec)
        )
        assert rep.bound == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), abs=1e-6)
        assert rep.certification == "exact_enumeration"

    def test_bd_matches_closed_form(self):
        # for nearest-neighbour chains the sup lives on adjacent pairs, so
        # the engine agrees with the rate formula on the interior
        rng = rng_for("curv-bd-closed")
        K = 12
        for _ in range(20):
            spec = _random_bd_spec(rng, K)
            interior = bd_interior(spec, margin=2)
            rep = bound_single(build_kernel(spec), bd_metric(spec), interior=interior)
            b, d, u = spec.b, spec.d, spec.u
            terms = []
            for x in range(len(interior) - 1):
                um1 = u[x - 1] if x >= 1 else 0.0
                terms.append(
                    b[x] + d[x + 1] - d[x] * um1 / u[x] - b[x + 1] * u[x + 1] / u[x]
                )
            assert rep.bound == pytest.approx(min(terms), abs=1e-9)

    def test_boundary_pairs_reported_separately(self):
        spec = _random_bd_spec(rng_for("curv-bd-boundary"), 10)
        interior = bd_interior(spec, margin=3)
        rep = bound_single(build_kernel(spec), bd_metric(spec), interior=interior)
        assert "boundary_sup" in rep.search_stats
        wx, wy = rep.witness
        assert wx in interior and wy in interior
        bx, by = rep.search_stats["boundary_witness"]
        assert bx not in interior or by not in interior

    def test_unknown_interior_site(self):
        with pytest.raises(ValidationError, match="unknown sites"):
            bound_single(
                _two_state_kernel(1.0, 1.0),
                GroundMetric.trivial((1, 2)),
                interior=(1, 7),
            )


class TestSystemEngine:
    def test_n1_reduces_to_single(self):
        rng = rng_for("curv-n1")
        for _ in range(10):
            n = int(rng.integers(2, 5))
            g = random_metric(rng, n)
            measures = {
                x: random_measure(rng, g.sites, max_atoms=n) for x in g.sites
            }
            kernel = SingleSiteKernel(measures, sites=g.sites)
            single = bound_single(kernel, g)
            system = bound_system(kernel, g, n_particles=1)
            assert system.bound == pytest.approx(single.bound, abs=1e-12)
            assert system.witness == (
                (single.witness[0],),
                (single.witness[1],),
            )
        # a truncated chain with an interior: the single-site engine on one
        # or two workers and the N = 1 system scan agree exactly, boundary
        # included
        spec = _random_bd_spec(rng, 12)
        kernel, g = build_kernel(spec), bd_metric(spec)
        interior = bd_interior(spec, margin=3)
        reps = [
            bound_single(kernel, g, interior=interior, n_workers=w) for w in (1, 2)
        ]
        system = bound_system(kernel, g, 1, interior=interior)
        for rep in reps:
            stats = rep.search_stats
            assert rep.bound == system.bound
            assert ((rep.witness[0],), (rep.witness[1],)) == system.witness
            assert stats["boundary_sup"] == system.search_stats["boundary_sup"]
            bx, by = stats["boundary_witness"]
            assert ((bx,), (by,)) == system.search_stats["boundary_witness"]
        assert reps[0].search_stats == reps[1].search_stats
        # at one particle a configuration-dependent kernel depends on the
        # particle's own site only, so the single-site engine takes it too
        spec = AgentsSpec(
            n_sites=3, temperature=0.6, f=QuadraticPreference(), n_particles=1
        )
        kernel, g = AgentsKernel(spec), GroundMetric.trivial((0, 1, 2))
        single = bound_single(kernel, g)
        system = bound_system(kernel, g, 1)
        assert single.bound == system.bound
        assert ((single.witness[0],), (single.witness[1],)) == system.witness

    def test_product_system_decouples(self):
        # independent coordinates: per-coordinate drifts just average, so
        # the N=2 bound equals the single-particle bound
        kernel = _two_state_kernel(0.9, 1.4)
        g = GroundMetric.trivial((1, 2))
        single = bound_single(kernel, g)
        system = bound_system(kernel, g, n_particles=2, strategy="exhaustive")
        assert system.bound == pytest.approx(single.bound, abs=1e-12)
        assert system.certification == "exact_enumeration"

    def test_agents_exhaustive_vs_closed_form(self):
        spec = AgentsSpec(
            n_sites=3,
            temperature=0.4,
            f=QuadraticPreference(),
            n_particles=3,
            monotone=True,
            convex=True,
            f_lip=2.0,
        )
        rep = bound_system(AgentsKernel(spec), GroundMetric.trivial((0, 1, 2)), 3)
        assert rep.certification == "exact_enumeration"
        assert rep.bound >= agents_bound(spec) - 1e-9

    def test_random_never_below_exhaustive(self):
        spec = AgentsSpec(
            n_sites=3, temperature=1.0, f=QuadraticPreference(), n_particles=2
        )
        kernel = AgentsKernel(spec)
        g = GroundMetric.trivial((0, 1, 2))
        exact = bound_system(kernel, g, 2, strategy="exhaustive")
        for seed in range(5):
            sampled = bound_system(
                kernel, g, 2, strategy="random", samples=40, seed=seed
            )
            assert sampled.certification == "sampled"
            assert sampled.bound >= exact.bound - 1e-12

    def test_adjacent_subset_of_exhaustive(self):
        kernel = _two_state_kernel(1.1, 0.4)
        g = GroundMetric.trivial((1, 2))
        exact = bound_system(kernel, g, 3, strategy="exhaustive")
        adj = bound_system(kernel, g, 3, strategy="adjacent")
        assert adj.certification == "sampled"
        assert adj.bound >= exact.bound - 1e-12
        # this product chain attains its sup on adjacent pairs
        assert adj.bound == pytest.approx(exact.bound, abs=1e-12)

    def test_pair_cap(self):
        kernel = _two_state_kernel(1.0, 1.0)
        with pytest.raises(ValidationError, match="cap"):
            bound_system(kernel, GroundMetric.trivial((1, 2)), 4, pair_cap=200)

    def test_unknown_strategy(self):
        with pytest.raises(ValidationError, match="strategy"):
            bound_system(
                _two_state_kernel(1.0, 1.0),
                GroundMetric.trivial((1, 2)),
                1,
                strategy="best",
            )

    def test_worker_count_invariance(self):
        spec = AgentsSpec(
            n_sites=3, temperature=0.7, f=QuadraticPreference(), n_particles=2
        )
        kernel = AgentsKernel(spec)
        g = GroundMetric.trivial((0, 1, 2))
        reps = [bound_system(kernel, g, 2, n_workers=w) for w in (1, 3)]
        assert reps[0].bound == reps[1].bound
        assert reps[0].witness == reps[1].witness
        assert reps[0].sup_value == reps[1].sup_value

    def test_worker_count_resolution(self, monkeypatch):
        # resolved only: no engine is started with these counts
        cpus = os.cpu_count() or 1
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers() == 1
        assert resolve_workers(0) == 1
        assert resolve_workers(-3) == 1
        assert resolve_workers(10**6) == cpus
        monkeypatch.setenv(WORKERS_ENV, str(10**6))
        assert resolve_workers() == cpus
        assert resolve_workers(1) == 1
        monkeypatch.setenv(WORKERS_ENV, "many")
        assert resolve_workers() == 1

    def test_rate_rows_equal_direct_drift(self):
        # the scan's per-configuration rate rows give the floats of a direct
        # per-pair mean_drift (fresh rates, no cache), hence the same bound,
        # witness and boundary on every strategy and worker count
        rng = rng_for("curv-rate-rows")
        for kernel, g in _kernel_cases():
            sites = g.sites
            n = 3 if len(sites) <= 3 else 2
            interior = sites[:-1]
            seed = int(rng.integers(2**32))
            configs = list(itertools.product(sites, repeat=n))
            cases = [
                ({"strategy": "exhaustive", "n_workers": 1},
                 itertools.product(configs, repeat=2)),
                ({"strategy": "exhaustive", "n_workers": 2},
                 itertools.product(configs, repeat=2)),
                ({"strategy": "adjacent"}, _adjacent_pairs(sites, n)),
                ({"strategy": "random", "samples": 150, "seed": seed},
                 _random_pairs(sites, n, 150, seed)),
            ]
            for kwargs, pairs in cases:
                rep = bound_system(kernel, g, n, interior=interior, **kwargs)
                best, boundary, examined = _direct_scan(kernel, g, pairs, interior)
                stats = rep.search_stats
                assert (rep.sup_value, rep.witness) == best
                assert (stats["boundary_sup"], stats["boundary_witness"]) == boundary
                assert stats["pairs_examined"] == examined

    def test_exhaustive_rates_once_per_configuration(self):
        # one rate row per configuration: N |E|^N rate calls in all, where a
        # per-pair evaluation makes 2N per examined pair
        spec = AgentsSpec(
            n_sites=3, temperature=0.5, f=QuadraticPreference(), n_particles=3
        )
        for n in (1, 2, 3):
            kernel = CountingKernel(AgentsKernel(spec))
            rep = bound_system(kernel, GroundMetric.trivial((0, 1, 2)), n, n_workers=1)
            assert rep.search_stats["pairs_examined"] == 9**n - 3**n
            assert kernel.calls == n * 3**n

    def test_random_samples_validated(self):
        kernel = _two_state_kernel(1.0, 1.0)
        g = GroundMetric.trivial((1, 2))
        for samples in (0, -3, 11):
            with pytest.raises(ValidationError, match="samples must be between 1"):
                bound_system(
                    kernel, g, 2, strategy="random", samples=samples, pair_cap=10
                )
        rep = bound_system(kernel, g, 2, strategy="random", samples=10, pair_cap=10)
        assert rep.search_stats["pairs_examined"] == 10

    def test_diagonal_terms_included(self):
        # coordinates sitting on the same site still contribute drift when
        # the surrounding configuration differs
        class LeaderKernel(JumpKernel):
            sites = (0, 1)

            def rate(self, i, config):
                other = config[1 - i]
                return FiniteMeasure([other], [1.0 + other])

        kernel = LeaderKernel()
        g = GroundMetric.trivial((0, 1))
        cx, cy = (0, 0), (0, 1)
        # coordinate 0: J(0, 0; 1*delta_0, 2*delta_1) = W(3 d0, d0 + 2 d1) = 2
        # coordinate 1: J(0, 1; delta_0, delta_0) = 1 - 2 = -1
        assert mean_drift(kernel, cx, cy, g) == pytest.approx(0.5, abs=1e-12)
        rep = bound_system(kernel, g, 2)
        assert rep.sup_value >= 0.5 / config_distance(cx, cy, g) - 1e-12


class TestCouplingRates:
    def test_identical_configs_zero_drift(self):
        spec = AgentsSpec(
            n_sites=3, temperature=1.0, f=QuadraticPreference(), n_particles=3
        )
        kernel = AgentsKernel(spec)
        g = GroundMetric.trivial((0, 1, 2))
        c = (0, 1, 1)
        rates = coupling_rates(kernel, c, c, g)
        for i, plan in enumerate(rates.plans):
            assert all(u == v for u, v, _ in plan.pairs)
            assert plan.cost == pytest.approx(0.0, abs=1e-12)

    def test_cached_plans_equal_fresh(self):
        # a plan is a function of (x_i, y_i, rate_i(x), rate_i(y)), so a
        # shared cache keyed by them returns the fresh plan for every kernel:
        # the configuration-dependent families and a kernel that declares
        # nothing beyond its rates
        rng = rng_for("curv-plan-cache")
        for kernel, g in _kernel_cases():
            cache: dict = {}
            calls = 0
            for _ in range(30):
                cx = tuple(int(v) for v in rng.choice(kernel.sites, size=3))
                cy = tuple(int(v) for v in rng.choice(kernel.sites, size=3))
                for i in range(3):
                    cached = coordinate_plan(kernel, i, cx, cy, g, cache)
                    fresh = coordinate_plan(kernel, i, cx, cy, g)
                    calls += 1
                    assert cached.pairs == fresh.pairs
                    assert cached.cost == fresh.cost
            assert len(cache) < calls

    def test_two_state_plan(self):
        a, b = 1.2, 0.5
        kernel = _two_state_kernel(a, b)
        g = GroundMetric.trivial((1, 2))
        rates = coupling_rates(kernel, (1,), (2,), g)
        (plan,) = rates.plans
        assert plan.total_mass == pytest.approx(a + b, abs=1e-12)
        assert rates.total_rate == pytest.approx(a + b, abs=1e-12)
        value = drift_exact(1, 2, kernel.measures[1], kernel.measures[2], g).value
        assert plan.cost == pytest.approx(value + (a + b) * g.dist(1, 2), abs=1e-12)

    def test_plans_are_optimal(self):
        rng = rng_for("curv-plan-opt")
        for _ in range(25):
            n = int(rng.integers(2, 5))
            g = random_metric(rng, n)
            measures = {x: random_measure(rng, g.sites) for x in g.sites}
            kernel = SingleSiteKernel(measures, sites=g.sites)
            cx = tuple(rng.choice(g.sites, size=3))
            cy = tuple(rng.choice(g.sites, size=3))
            rates = coupling_rates(kernel, cx, cy, g)
            for i, plan in enumerate(rates.plans):
                m1 = measures[cx[i]]
                m2 = measures[cy[i]]
                assert plan.total_mass == pytest.approx(
                    m1.mass + m2.mass, abs=1e-9
                )
                a1 = m1.add_atom(cx[i], m2.mass)
                a2 = m2.add_atom(cy[i], m1.mass)
                assert plan.cost == pytest.approx(
                    wasserstein(a1, a2, g), abs=1e-9
                )

    def test_generator_identity(self):
        # the mean drift is exactly what the coupled jump rates produce:
        # sum_i (cost_i - mass_i * d(x_i, y_i)) / N
        rng = rng_for("curv-generator")
        spec = AgentsSpec(
            n_sites=3, temperature=0.8, f=QuadraticPreference(), n_particles=4
        )
        kernel = AgentsKernel(spec)
        g = GroundMetric.trivial((0, 1, 2))
        for _ in range(25):
            cx = tuple(int(v) for v in rng.integers(0, 3, size=4))
            cy = tuple(int(v) for v in rng.integers(0, 3, size=4))
            rates = coupling_rates(kernel, cx, cy, g)
            total = 0.0
            for i, plan in enumerate(rates.plans):
                mass = kernel.rate(i, cx).mass + kernel.rate(i, cy).mass
                total += plan.cost - mass * g.dist(cx[i], cy[i])
            assert total / 4 == pytest.approx(
                mean_drift(kernel, cx, cy, g), abs=1e-9
            )

    def test_modified_bd_adjacent_cost(self):
        # the coupled plan between an adjacent pair of the two-step-up chain
        # pays the four-term breakpoint expression
        rng = rng_for("curv-modbd")
        K = 10
        for _ in range(25):
            spec = _random_bd_spec(rng, K, modified=True)
            kernel = build_kernel(spec)
            g = bd_metric(spec)
            x = int(rng.integers(1, K - 2))
            rates = coupling_rates(kernel, (x,), (x + 1,), g)
            (plan,) = rates.plans
            b, d, u = spec.b, spec.d, spec.u
            expected = (
                d[x] * u[x - 1]
                + (d[x] + b[x + 1]) * u[x]
                + abs(b[x + 1] - b[x]) * u[x + 1]
                + b[x + 1] * u[x + 2]
            )
            assert plan.cost == pytest.approx(expected, abs=1e-9)

    def test_size_mismatch(self):
        kernel = _two_state_kernel(1.0, 1.0)
        with pytest.raises(ValidationError):
            coupling_rates(kernel, (1, 2), (1,), GroundMetric.trivial((1, 2)))
