"""Model catalog: kernels, closed-form bounds, eigenpairs, thresholds."""

import math

import numpy as np
import pytest

from jumpcurv import (
    AffinePreference,
    AgentsKernel,
    AgentsSpec,
    BirthDeathSpec,
    FiniteMeasure,
    FlemingViotSpec,
    GroundMetric,
    MeanFieldBDSpec,
    ModifiedBDSpec,
    NumericError,
    QuadraticPreference,
    ValidationError,
    ZeroPreference,
    ZeroRangeSpec,
    agents_bound,
    bd_bound,
    bd_eigen,
    bd_interior,
    bd_metric,
    bound_single,
    build_kernel,
    comes_down_series,
    discrete_curvature,
    drift_exact,
    fv_bound,
    fv_eigen_bound,
    herd_threshold,
    kernel_family_bound,
    mean_field_bd_bound,
    min_total_preference,
    modified_bd_bound,
    wasserstein,
    zero_range_bound,
)
from jumpcurv.config import load_config, resolve_model
from jumpcurv.drift import augmented_pair

from conftest import rng_for


def _random_bd_rates(rng, K):
    b = tuple(float(v) for v in rng.uniform(0.2, 2.0, size=K + 1))
    d = (0.0,) + tuple(float(v) for v in rng.uniform(0.2, 2.0, size=K))
    return b, d


def _reference_scan(kernel, g, interior):
    """bound_single's certified and boundary suprema and witnesses by a plain
    scan in lexicographic pair order (strict improvement keeps the smallest
    witness on ties), each drift from augmented_pair and wasserstein."""
    best, boundary = (-math.inf, None), (None, None)
    for x in g.sites:
        for y in g.sites:
            d_xy = g.dist(x, y)
            if x == y or d_xy == 0.0:
                continue
            m1, m2 = kernel.rate(0, (x,)), kernel.rate(0, (y,))
            cost = wasserstein(*augmented_pair(x, y, m1, m2), g)
            ratio = (cost - (m1.mass + m2.mass) * d_xy) / d_xy
            if x in interior and y in interior:
                if ratio > best[0]:
                    best = (ratio, (x, y))
            elif boundary[1] is None or ratio > boundary[0]:
                boundary = (ratio, (x, y))
    return best + boundary


class TestBuildKernel:
    def test_agents_rate_display(self):
        spec = AgentsSpec(
            n_sites=2, temperature=1.0, f=QuadraticPreference(), n_particles=2
        )
        m = build_kernel(spec).rate(0, (0, 0))
        assert m.weight_at(0) == pytest.approx(0.5 + 1.0, abs=1e-12)
        assert m.weight_at(1) == pytest.approx(0.5 + 0.0, abs=1e-12)

    def test_bd_endpoints(self):
        spec = BirthDeathSpec(
            b=(0.7,) * 6, d=(0.0,) + (1.1,) * 5, u=(1.0,) * 5, K=5
        )
        kernel = build_kernel(spec)
        bottom = kernel.rate(0, (0,))
        assert bottom.atoms == (1,) and bottom.weights == (0.7,)
        inner = kernel.rate(0, (3,))
        assert dict(zip(inner.atoms, inner.weights)) == {2: 1.1, 4: 0.7}

    def test_zero_range_unit_rate(self):
        P = np.array([[0.0, 1.0], [0.5, 0.5]])
        spec = ZeroRangeSpec(
            sites=(0, 1), P=P, n_particles=2, zr_rate=lambda x, n: 1.0
        )
        m = build_kernel(spec).rate(0, (1, 0))
        assert m.weight_at(0) == pytest.approx(0.5)
        assert m.weight_at(1) == pytest.approx(0.5)


class TestBirthDeathBounds:
    def test_geometric_sharp_value(self):
        K = 30
        r = math.sqrt(2.0)
        spec = BirthDeathSpec(
            b=(1.0,) * (K + 1),
            d=(0.0,) + (2.0,) * K,
            u=tuple(r**k for k in range(K)),
            K=K,
        )
        assert bd_bound(spec) == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), abs=1e-12)

    def test_unit_rates_zero(self):
        K = 8
        spec = BirthDeathSpec(
            b=(1.0,) * (K + 1), d=(0.0,) + (1.0,) * K, u=(1.0,) * K, K=K
        )
        assert bd_bound(spec) == pytest.approx(0.0, abs=1e-12)

    def test_pure_death_linear(self):
        K = 8
        spec = BirthDeathSpec(
            b=(0.0,) * (K + 1),
            d=tuple(float(x) for x in range(K + 1)),
            u=(1.0,) * K,
            K=K,
        )
        assert bd_bound(spec) == pytest.approx(1.0, abs=1e-12)

    def test_modified_constant_rates_zero(self):
        K = 8
        spec = ModifiedBDSpec(
            b=(0.9,) * (K + 1), d=(0.0,) + (1.7,) * K, u=(1.0,) * K, K=K
        )
        assert modified_bd_bound(spec) == pytest.approx(0.0, abs=1e-12)

    def test_modified_beats_classical(self):
        rng = rng_for("models-modbd")
        for _ in range(50):
            K = 10
            b, d = _random_bd_rates(rng, K)
            u = tuple(float(v) for v in rng.uniform(0.5, 2.0, size=K))
            spec = ModifiedBDSpec(b=b, d=d, u=u, K=K)
            assert modified_bd_bound(spec) >= modified_bd_bound(
                spec, coupling="classical"
            ) - 1e-12

    def test_modified_matches_engine(self):
        rng = rng_for("models-modbd-engine")
        K = 12
        margin = 3
        for _ in range(10):
            b, d = _random_bd_rates(rng, K)
            u = tuple(float(v) for v in rng.uniform(0.5, 2.0, size=K))
            spec = ModifiedBDSpec(b=b, d=d, u=u, K=K)
            interior = bd_interior(spec, margin=margin)
            rep = bound_single(
                build_kernel(spec), bd_metric(spec), interior=interior
            )
            top = K - margin
            terms = []
            for x in range(top):
                um1 = u[x - 1] if x >= 1 else 0.0
                terms.append(
                    b[x]
                    + d[x + 1]
                    - d[x] * um1 / u[x]
                    - abs(b[x + 1] - b[x]) * u[x + 1] / u[x]
                    - b[x + 1] * u[x + 2] / u[x]
                )
            assert rep.bound == pytest.approx(min(terms), abs=1e-6)

    def test_closed_forms_never_beat_engine(self):
        # for nearest-neighbour chains the rate formula is exact: on the
        # interior 0..K-1, whose adjacent pairs are the x = 0..K-2 of
        # bd_bound, it equals the engine's certified bound
        rng = rng_for("models-bd-vs-engine")
        K = 12
        for _ in range(10):
            b, d = _random_bd_rates(rng, K)
            u = tuple(float(v) for v in rng.uniform(0.5, 2.0, size=K))
            spec = BirthDeathSpec(b=b, d=d, u=u, K=K)
            rep = bound_single(
                build_kernel(spec), bd_metric(spec), interior=bd_interior(spec, 1)
            )
            assert bd_bound(spec) == pytest.approx(rep.bound, rel=1e-12, abs=1e-12)

    def test_witnesses_equal_augmented_reference_scan(self):
        # the witness tie-break compares floats exactly, so the engine's
        # line-metric drift must give the very floats of the augmented
        # measures' transport solve, on every pair
        chains = []
        for source in (
            {"preset": "bd-cdi", "model": {
                "variant": "birth_death", "K": 100, "b": {"kind": "const", "value": 1.0},
                "d": {"kind": "quadratic", "a": 1.0}, "u": {"kind": "const", "value": 1.0}}},
            {"preset": "mm1-sqrt2"},
        ):
            rm = resolve_model(load_config(source))
            chains.append((rm.kernel, rm.metric, rm.interior))
        rng = rng_for("models-bd-witness")
        K = 12
        for _ in range(10):
            b, d = _random_bd_rates(rng, K)
            u = tuple(float(v) for v in rng.uniform(0.5, 2.0, size=K))
            spec = BirthDeathSpec(b=b, d=d, u=u, K=K)
            chains.append((build_kernel(spec), bd_metric(spec), bd_interior(spec, 1)))
        for kernel, g, interior in chains:
            rep = bound_single(kernel, g, interior=interior)
            sup, witness, boundary_sup, boundary_witness = _reference_scan(kernel, g, interior)
            assert (rep.bound, rep.sup_value, rep.witness) == (-sup, sup, witness)
            assert rep.search_stats.get("boundary_sup") == boundary_sup
            assert rep.search_stats.get("boundary_witness") == boundary_witness

    def test_rate_validation(self):
        with pytest.raises(ValidationError, match="d_0"):
            BirthDeathSpec(b=(1.0,) * 4, d=(0.5,) * 4, u=(1.0,) * 3, K=3)
        with pytest.raises(ValidationError):
            BirthDeathSpec(b=(1.0,) * 4, d=(0.0, -1.0, 1.0, 1.0), u=(1.0,) * 3, K=3)


class TestPreferenceFloor:
    def test_quadratic(self):
        for n in (2, 3, 5, 8):
            got = min_total_preference(QuadraticPreference(), n, convex=True)
            assert got.value == pytest.approx(1.0 / n, abs=1e-12)
            assert got.method == "closed_form"

    def test_affine(self):
        a, b, n = -0.3, 0.5, 4
        got = min_total_preference(AffinePreference(a, b), n, convex=True)
        assert got.value == pytest.approx(a + b * n, abs=1e-12)

    def test_zero(self):
        assert min_total_preference(ZeroPreference(), 3, convex=True).value == 0.0

    def test_multistart_agrees_with_closed_form(self):
        got = min_total_preference(QuadraticPreference(), 3, convex=False)
        assert got.method == "multistart"
        assert got.value == pytest.approx(1.0 / 3.0, abs=1e-6)


class TestAgentsBound:
    def test_quadratic_monotone(self):
        spec = AgentsSpec(
            n_sites=4,
            temperature=2.5,
            f=QuadraticPreference(),
            n_particles=20,
            monotone=True,
            convex=True,
            f_lip=2.0,
        )
        assert agents_bound(spec) == pytest.approx(2.5 - 2.0 + 0.25, abs=1e-12)

    def test_affine(self):
        a, b, T, n = -0.3, 0.5, 1.0, 3
        spec = AgentsSpec(
            n_sites=n,
            temperature=T,
            f=AffinePreference(a, b),
            n_particles=10,
            monotone=True,
            convex=True,
            f_lip=abs(a),
        )
        assert agents_bound(spec) == pytest.approx(T + b * n + a - abs(a), abs=1e-12)

    def test_zero_preference(self):
        spec = AgentsSpec(
            n_sites=3,
            temperature=1.7,
            f=ZeroPreference(),
            n_particles=5,
            monotone=True,
            convex=True,
            f_lip=0.0,
        )
        assert agents_bound(spec) == pytest.approx(1.7, abs=1e-12)

    def test_monotone_flag_helps(self):
        base = dict(
            n_sites=3,
            temperature=1.0,
            f=QuadraticPreference(),
            n_particles=10,
            convex=True,
            f_lip=2.0,
        )
        assert agents_bound(AgentsSpec(monotone=True, **base)) >= agents_bound(
            AgentsSpec(monotone=False, **base)
        )

    def test_grid_lipschitz_fallback(self):
        # without the exact constant the discrete grid slope is used:
        # for x^2 on {k/N} the steepest step is (2N-1)/N
        N = 10
        spec = AgentsSpec(
            n_sites=3,
            temperature=1.0,
            f=QuadraticPreference(),
            n_particles=N,
            monotone=True,
            convex=True,
        )
        expected = 1.0 - (2.0 * N - 1.0) / N + 1.0 / 3.0
        assert agents_bound(spec) == pytest.approx(expected, abs=1e-12)


class TestHerdThreshold:
    def test_quadratic_closed_form(self):
        got = herd_threshold(QuadraticPreference(), 3)
        assert got.z_star == pytest.approx(0.5 + 1.0 / math.sqrt(12.0), abs=1e-9)
        assert got.m_star == pytest.approx(1.0 / (6.0 * math.sqrt(3.0)), abs=1e-12)
        assert got.t_critical == pytest.approx(1.0 / (3.0 + math.sqrt(3.0)), abs=1e-9)

    def test_cubic_vs_grid_scan(self):
        def cubic(z):
            return z**3

        got = herd_threshold(cubic, 3)
        zs = np.linspace(0.5, 1.0, 2_000_001)
        gain = zs**3 - zs * (zs**3 + (1.0 - zs) ** 3)
        assert got.m_star >= float(gain.max()) - 1e-12
        assert got.m_star == pytest.approx(float(gain.max()), abs=1e-8)
        assert 0.5 < got.z_star < 1.0
        assert got.t_critical == pytest.approx(
            got.m_star * 3.0 / (got.z_star * 3.0 - 1.0), abs=1e-12
        )

    def test_no_herding_for_linear(self):
        with pytest.raises(ValidationError, match="no herding"):
            herd_threshold(lambda z: z, 3)

    def test_warns_on_nonzero_origin(self):
        with pytest.warns(UserWarning, match="f\\(0\\)"):
            herd_threshold(lambda z: z**2 + 0.1, 3)


class TestDiscreteCurvature:
    def test_equal_rows(self):
        g = GroundMetric.trivial((0, 1, 2))
        P = np.full((3, 3), 1.0 / 3.0)
        theta, star = discrete_curvature(P, g)
        assert star == pytest.approx(1.0, abs=1e-12)
        off = theta[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 1.0, atol=1e-12)

    def test_identity(self):
        g = GroundMetric.trivial((0, 1))
        _, star = discrete_curvature(np.eye(2), g)
        assert star == pytest.approx(0.0, abs=1e-12)

    def test_two_site_half(self):
        g = GroundMetric.trivial((0, 1))
        theta, star = discrete_curvature(
            np.array([[0.8, 0.2], [0.3, 0.7]]), g
        )
        assert star == pytest.approx(0.5, abs=1e-12)
        assert theta[0, 1] == pytest.approx(0.5, abs=1e-12)
        assert theta[1, 0] == pytest.approx(0.5, abs=1e-12)

    def test_rejects_bad_rows(self):
        g = GroundMetric.trivial((0, 1))
        with pytest.raises(ValidationError, match="sum"):
            discrete_curvature(np.array([[0.8, 0.1], [0.3, 0.7]]), g)
        with pytest.raises(ValidationError, match="negative"):
            discrete_curvature(np.array([[1.2, -0.2], [0.3, 0.7]]), g)


class TestZeroRange:
    def test_constant_occupancy_rate(self):
        g = GroundMetric.trivial((0, 1))
        P = np.array([[0.8, 0.2], [0.3, 0.7]])
        spec = ZeroRangeSpec(
            sites=(0, 1), P=P, n_particles=3, zr_rate=lambda x, n: 2.0
        )
        got = zero_range_bound(spec, g, mode="zr")
        assert got.value == pytest.approx(0.5 * 2.0, abs=1e-12)
        assert got.certified

    def test_slowly_varying_occupancy_rate(self):
        # c(n) = c + delta (1 - 1/n) keeps (n+1)c(n+1) - n c(n) = c + delta,
        # and the resulting bound dominates c - 2 delta
        c, delta, n_sites = 1.0, 0.25, 3
        g = GroundMetric.trivial(tuple(range(n_sites)))
        P = np.full((n_sites, n_sites), 1.0 / n_sites)
        spec = ZeroRangeSpec(
            sites=tuple(range(n_sites)),
            P=P,
            n_particles=4,
            zr_rate=lambda x, n: c + delta * (1.0 - 1.0 / n),
        )
        got = zero_range_bound(spec, g, mode="zr")
        assert got.value >= c - 2.0 * delta - 1e-12

    def test_general_constant_rate(self):
        g = GroundMetric.trivial((0, 1))
        P = np.array([[0.8, 0.2], [0.3, 0.7]])
        kappa = 1.3
        spec = ZeroRangeSpec(
            sites=(0, 1), P=P, n_particles=2, rate=lambda x, cfg: kappa
        )
        configs = [(0, 0), (0, 1), (1, 0), (1, 1)]
        got = zero_range_bound(spec, g, mode="general", configs=configs,
                               exhaustive=True)
        assert got.value == pytest.approx(0.5 * kappa, abs=1e-12)
        assert got.certified

    def test_general_configuration_dependent_rate(self):
        # c_x(config) = 1 + 2 config[0] + config[1]: rates 1, 2, 3, 4 on
        # (0,0), (0,1), (1,0), (1,1), and theta = 0.5 both ways, so the front
        # term is 0.5 min(1, 2) = 0.5.  Site 0 sees rates 1, 2, 3 and site 1
        # sees 2, 3, 4; on each the slopes are 2, 4, 1 and 1, 4, 2, the
        # steepest on the first and third entries, so the term is
        # max(0.2 * 4, 0.3 * 4) = 1.2
        g = GroundMetric.trivial((0, 1))
        P = np.array([[0.8, 0.2], [0.3, 0.7]])
        spec = ZeroRangeSpec(
            sites=(0, 1), P=P, n_particles=2,
            rate=lambda x, cfg: 1.0 + 2.0 * cfg[0] + cfg[1],
        )
        configs = [(0, 0), (0, 1), (1, 0), (1, 1)]
        got = zero_range_bound(spec, g, mode="general", configs=configs,
                               exhaustive=True)
        assert got.details["lip_term"] == pytest.approx(1.2, abs=1e-12)
        assert got.value == pytest.approx(0.5 - 1.2, abs=1e-12)
        assert got.certified

    def test_general_needs_scan(self):
        g = GroundMetric.trivial((0, 1))
        spec = ZeroRangeSpec(
            sites=(0, 1), P=np.eye(2), n_particles=2, rate=lambda x, cfg: 1.0
        )
        with pytest.raises(ValidationError, match="scan"):
            zero_range_bound(spec, g, mode="general")

    def test_unknown_mode(self):
        g = GroundMetric.trivial((0, 1))
        spec = ZeroRangeSpec(
            sites=(0, 1), P=np.eye(2), n_particles=2, zr_rate=lambda x, n: 1.0
        )
        with pytest.raises(ValidationError, match="mode"):
            zero_range_bound(spec, g, mode="fast")


class TestFlemingViot:
    def test_trivial_metric_formula(self):
        rng = rng_for("models-fv")
        sites = (0, 1, 2)
        g = GroundMetric.trivial(sites)
        for _ in range(20):
            q = {}
            for x in sites:
                w = rng.uniform(0.0, 2.0, size=3)
                w[x] = 0.0
                q[x] = FiniteMeasure(sites, w)
            beta = {x: float(rng.uniform(0.0, 1.5)) for x in sites}
            spec = FlemingViotSpec(sites=sites, q=q, beta=beta)
            best = math.inf
            for x in sites:
                for y in sites:
                    if x == y:
                        continue
                    best = min(
                        best,
                        q[x].weight_at(y)
                        + q[y].weight_at(x)
                        + sum(
                            min(q[x].weight_at(z), q[y].weight_at(z))
                            for z in sites
                        )
                        + min(beta[x], beta[y]),
                    )
            assert fv_bound(spec, g) == pytest.approx(
                best - max(beta.values()), abs=1e-9
            )

    def test_no_resampling_reduces_to_engine(self):
        rng = rng_for("models-fv-beta0")
        sites = (0, 1, 2)
        g = GroundMetric.trivial(sites)
        q = {}
        for x in sites:
            w = rng.uniform(0.1, 2.0, size=3)
            w[x] = 0.0
            q[x] = FiniteMeasure(sites, w)
        spec = FlemingViotSpec(sites=sites, q=q, beta={x: 0.0 for x in sites})
        assert fv_bound(spec, g) == pytest.approx(
            bound_single(q, g).bound, abs=1e-12
        )

    def test_eigen_bound_comes_down_instance(self):
        K = 60
        b = (0.0,) + (1.0,) * K
        d = tuple(float(x * x) for x in range(K + 1))
        got = fv_eigen_bound(b, d, K, resample_rate=1.0)
        assert math.isfinite(got)
        pair = bd_eigen(b, d, K)
        assert got == pytest.approx(
            1.0 * (0.0 - pair.eta[-1] / pair.eta[0]) + pair.lam, abs=1e-12
        )


class TestEigenPairs:
    def test_dense_oracle(self):
        rng = rng_for("models-eigen")
        for _ in range(5):
            K = 35
            b = tuple(float(v) for v in rng.uniform(0.2, 2.0, size=K + 1))
            d = (0.0,) + tuple(float(v) for v in rng.uniform(0.3, 2.5, size=K))
            pair = bd_eigen(b, d, K)
            A = np.zeros((K, K))
            for x in range(1, K + 1):
                i = x - 1
                A[i, i] = (b[x] + d[x]) if x < K else d[K]
                if x < K:
                    A[i, i + 1] = -b[x]
                if x > 1:
                    A[i, i - 1] = -d[x]
            lam_dense = float(min(np.linalg.eigvals(A).real))
            assert pair.lam == pytest.approx(lam_dense, abs=1e-6)
            eta = np.asarray(pair.eta)
            resid = float(np.max(np.abs(A @ eta - pair.lam * eta)))
            assert resid <= 1e-8 * float(np.max(np.abs(eta))) + 1e-12

    def test_pure_death_unit_rate(self):
        K = 200
        b = (0.0,) * (K + 1)
        d = tuple(float(x) for x in range(K + 1))
        pair = bd_eigen(b, d, K)
        assert pair.lam == pytest.approx(1.0, abs=1e-6)
        # the killed linear chain has eta(x) = x
        eta = np.asarray(pair.eta)
        assert np.allclose(eta, np.arange(1, K + 1), atol=1e-4)

    def test_eta_increasing_comes_down(self):
        K = 80
        b = (0.0,) + (1.0,) * K
        d = tuple(float(x * x) for x in range(K + 1))
        pair = bd_eigen(b, d, K)
        assert all(h > 0.0 for h in np.diff(pair.eta))
        assert pair.eta[0] == pytest.approx(1.0, abs=0.0)
        assert pair.lam > 0.0

    def test_rejects_bad_rates(self):
        with pytest.raises(ValidationError, match="up to index"):
            bd_eigen((1.0,) * 3, (0.0, 1.0, 1.0), K=5)
        with pytest.raises(ValidationError, match="positive"):
            bd_eigen((1.0,) * 6, (0.0, 1.0, 0.0, 1.0, 1.0, 1.0), K=5)


class TestComesDownSeries:
    def test_quadratic_death_converges(self):
        K = 200
        b = (1.0,) * (K + 1)
        d = tuple(float(x * x) for x in range(K + 1))
        got = comes_down_series(b, d, K)
        assert got.converged
        assert got.last_increment == pytest.approx(1.0 / K**2, rel=1e-12)
        assert got.partial_sums[-1] > 0.0

    def test_unit_rates_flagged_divergent(self):
        K = 60
        got = comes_down_series((1.0,) * (K + 1), (0.0,) + (1.0,) * K, K)
        assert not got.converged
        # alpha_k = 1 for every k, so increment k is the tail count K+1-k
        assert got.terms[0] == pytest.approx(float(K), abs=1e-9)
        assert got.last_increment == pytest.approx(1.0, abs=1e-12)

    def test_no_births_trivially_summable(self):
        K = 40
        got = comes_down_series(
            (0.0,) * (K + 1), tuple(float(x) for x in range(K + 1)), K
        )
        assert got.converged
        assert got.terms[0] == pytest.approx(1.0, abs=1e-12)
        assert all(t == 0.0 for t in got.terms[1:])


class TestMeanFieldBD:
    @staticmethod
    def _sample_pairs(rng, K, n, count):
        out = []
        for _ in range(count):
            cx = tuple(int(v) for v in rng.integers(0, K + 1, size=n))
            cy = tuple(int(v) for v in rng.integers(0, K + 1, size=n))
            out.append((cx, cy))
        return out

    def test_pure_bd_gap(self):
        lam, K = 0.8, 6
        spec = MeanFieldBDSpec(
            b=(0.5,) * (K + 1),
            d=tuple(lam * x for x in range(K + 1)),
            K=K,
            q_plus=lambda x, cfg: 0.0,
            q_minus=lambda x, cfg: 0.0,
            a_const=-lam,
            b_const=0.0,
        )
        pairs = self._sample_pairs(rng_for("models-mfbd"), K, 3, 40)
        assert mean_field_bd_bound(spec, pairs) == pytest.approx(lam, abs=1e-12)

    def test_interaction_costs_twice(self):
        lam, alpha, K = 1.0, 0.2, 6
        spec = MeanFieldBDSpec(
            b=(0.5,) * (K + 1),
            d=tuple(lam * x for x in range(K + 1)),
            K=K,
            q_plus=lambda x, cfg: alpha * sum(cfg) / len(cfg),
            q_minus=lambda x, cfg: 0.0,
            a_const=-lam + alpha,
            b_const=alpha,
        )
        pairs = self._sample_pairs(rng_for("models-mfbd-int"), K, 3, 40)
        assert mean_field_bd_bound(spec, pairs) == pytest.approx(
            lam - 2.0 * alpha, abs=1e-12
        )

    def test_rejects_false_constants(self):
        lam, K = 0.8, 6
        spec = MeanFieldBDSpec(
            b=(0.5,) * (K + 1),
            d=tuple(lam * x for x in range(K + 1)),
            K=K,
            q_plus=lambda x, cfg: 0.0,
            q_minus=lambda x, cfg: 0.0,
            a_const=-lam - 0.5,
            b_const=0.0,
        )
        pairs = self._sample_pairs(rng_for("models-mfbd-bad"), K, 3, 40)
        with pytest.raises(ValidationError, match="inequality fails"):
            mean_field_bd_bound(spec, pairs)


class TestKernelFamilies:
    def test_exponential_supplied(self):
        got = kernel_family_bound(
            "exponential", constants={"beta_over_lambda_lip": 0.7}
        )
        assert got.value == pytest.approx(-1.4, abs=1e-12)
        assert got.certified

    def test_exponential_constant_sample(self):
        g = GroundMetric.euclidean_line()
        sample = [(float(x), None, 1.0, 2.0) for x in range(4)]
        got = kernel_family_bound("exponential", sample=sample, g=g)
        assert got.value == pytest.approx(0.0, abs=1e-12)
        assert not got.certified

    def test_exponential_anti_monotone_enforced(self):
        g = GroundMetric.euclidean_line()
        sample = [(0.0, None, 1.0, 1.0), (1.0, None, 2.0, 2.0)]
        with pytest.raises(ValidationError, match="anti-monotone"):
            kernel_family_bound("exponential", sample=sample, g=g)

    def test_gaussian_constant_sample(self):
        g = GroundMetric.euclidean_line()
        sample = [(float(x), None, 0.8, (0.5, 0.5)) for x in range(3)]
        got = kernel_family_bound("gaussian", sample=sample, g=g)
        assert got.value == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_supplied(self):
        got = kernel_family_bound(
            "gaussian",
            constants={
                "beta_inf": 2.0,
                "beta_lip": 0.5,
                "sqrt_sigma_lip": 0.25,
                "sigma_row_norm_inf": 1.5,
            },
        )
        assert got.value == pytest.approx(-2.0 * 2.0 * 0.25 - 2.0 * 0.5 * 1.5)

    def test_discrete_sign_pattern(self):
        # two opposite Dirac displacement laws one unit apart: the measure
        # norm matches the breakpoint (CDF difference) sum
        g = GroundMetric.euclidean_line()
        up = FiniteMeasure((1,), (1.0,))
        down = FiniteMeasure((-1,), (1.0,))
        beta = 0.9
        sample = [(0.0, None, beta, up), (1.0, None, beta, down)]
        got = kernel_family_bound(
            "discrete", sample=sample, g=g, support_halfwidth=1
        )
        cdf_sum = sum(
            abs(
                sum(up.weight_at(k) - down.weight_at(k) for k in range(-1, m + 1))
            )
            for m in range(-1, 1)
        )
        assert got.details["alpha_lip"] == pytest.approx(cdf_sum / 1.0, abs=1e-12)
        assert got.value == pytest.approx(-2.0 * beta * cdf_sum, abs=1e-12)

    # three-point samples whose steepest pairs include the first and third
    # points, a pair that is neither scanned first nor adjacent in the sample
    # order; every constant is worked out by hand over the three pairs

    def test_exponential_three_point_sample(self):
        # beta/lambda = 2, 0.125, 0.5 at x = 0, 3, 1: slopes 0.625, 1.5, 0.1875
        g = GroundMetric.euclidean_line()
        sample = [(0.0, None, 2.0, 1.0), (3.0, None, 0.5, 4.0), (1.0, None, 1.0, 2.0)]
        got = kernel_family_bound("exponential", sample=sample, g=g)
        assert got.details == {"beta_over_lambda_lip": 1.5}
        assert got.value == -3.0

    def test_gaussian_three_point_sample(self):
        # sqrt(Sigma) = (2, 0), (1, 0), (0, 3) at x = 2, 0, 1
        g = GroundMetric.euclidean_line()
        sample = [
            (2.0, None, 1.0, (4.0, 0.0)),
            (0.0, None, 0.5, (1.0, 0.0)),
            (1.0, None, 2.0, (0.0, 9.0)),
        ]
        got = kernel_family_bound("gaussian", sample=sample, g=g)
        assert got.details["beta_inf"] == 2.0
        # |delta beta| / d = 0.5/2, 1/1, 1.5/1
        assert got.details["beta_lip"] == pytest.approx(1.5, abs=1e-12)
        # ||delta sqrt(Sigma)|| / d = 1/2, sqrt(13)/1, sqrt(10)/1
        assert got.details["sqrt_sigma_lip"] == pytest.approx(math.sqrt(13.0), abs=1e-12)
        assert got.details["sigma_row_norm_inf"] == pytest.approx(9.0, abs=1e-12)
        assert got.value == pytest.approx(
            -2.0 * 2.0 * math.sqrt(13.0) - 2.0 * 1.5 * 9.0, abs=1e-12
        )

    def test_discrete_three_point_sample(self):
        # n = 1: the norm weighs |delta mu(k)| by n - k = 2, 1, 0 at k = -1, 0, 1
        g = GroundMetric.euclidean_line()
        sample = [
            (0.0, None, 1.0, FiniteMeasure((-1,), (1.0,))),
            (2.0, None, 0.25, FiniteMeasure((1,), (1.0,))),
            (1.0, None, 0.5, FiniteMeasure((0, 1), (0.5, 0.5))),
        ]
        got = kernel_family_bound("discrete", sample=sample, g=g, support_halfwidth=1)
        assert got.details["beta_inf"] == 1.0
        # |delta beta| / d = 0.75/2, 0.5/1, 0.25/1
        assert got.details["beta_lip"] == pytest.approx(0.5, abs=1e-12)
        # norms 2, 2.5, 0.5 over distances 2, 1, 1
        assert got.details["alpha_lip"] == pytest.approx(2.5, abs=1e-12)
        assert got.details["alpha_moment_inf"] == pytest.approx(1.0, abs=1e-12)
        assert got.value == pytest.approx(-2.0 * 1.0 * 2.5 - 2.0 * 0.5 * 1.0, abs=1e-12)

    def test_missing_constant(self):
        with pytest.raises(ValidationError, match="missing constant"):
            kernel_family_bound("gaussian", constants={"beta_inf": 1.0})

    def test_unknown_family(self):
        with pytest.raises(ValidationError, match="family"):
            kernel_family_bound("levy", constants={})
