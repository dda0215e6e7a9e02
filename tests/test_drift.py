"""Pair-drift functional: exact values, closed forms, and its inequalities."""

import math

import pytest

from jumpcurv import (
    FiniteMeasure,
    GroundMetric,
    LineBaseMeasure,
    MassMismatchError,
    ValidationError,
    drift_classical_bound,
    drift_density_closed_form,
    drift_exact,
    drift_kernel_bound,
    wasserstein,
)
from jumpcurv.drift import augmented_pair

from conftest import rng_for, random_measure, random_metric


def _augmented_value(x, y, m1, m2, g, a, b):
    """W(m1 + a delta_x, m2 + b delta_y) - (mass1 + a) d(x, y), with the
    mass-balance constraint b = a + mass1 - mass2."""
    left = m1.add_atom(x, a)
    right = m2.add_atom(y, b)
    return wasserstein(left, right, g) - left.mass * g.dist(x, y)


class TestExact:
    def test_opposed_diracs(self):
        g = GroundMetric.euclidean_line()
        x, y = 0.0, 3.0
        a, b = 1.3, 0.7
        m1 = FiniteMeasure.delta(y, a)
        m2 = FiniteMeasure.delta(x, b)
        res = drift_exact(x, y, m1, m2, g)
        assert res.value == pytest.approx(-(a + b) * g.dist(x, y), abs=1e-12)

    def test_identity_zero(self):
        g = GroundMetric.trivial()
        m = FiniteMeasure((1, 2), (0.5, 0.5))
        assert drift_exact(1, 1, m, m, g).value == pytest.approx(0.0, abs=1e-12)

    def test_zero_measures(self):
        g = GroundMetric.trivial()
        z = FiniteMeasure.zero()
        assert drift_exact(1, 2, z, z, g).value == 0.0

    def test_trivial_metric_instance(self):
        # E = {1,2,3}, x=1, y=2, m1 = 1*d2 + 2*d3, m2 = 0.5*d1 + 1*d3
        g = GroundMetric.trivial((1, 2, 3))
        m1 = FiniteMeasure((2, 3), (1.0, 2.0))
        m2 = FiniteMeasure((1, 3), (0.5, 1.0))
        assert drift_exact(1, 2, m1, m2, g).value == pytest.approx(-2.5, abs=1e-12)

    def test_birth_death_distant_pair(self):
        # adjacent-rate kernel measures at non-adjacent sites x < y-1:
        # value = d_x u_{x-1} - b_x u_x - d_y u_{y-1} + b_y u_y
        rng = rng_for("bd-distant")
        for _ in range(50):
            u = tuple(rng.uniform(0.5, 2.0, size=8))
            g = GroundMetric.weighted_line(u)
            x, y = 2, 6
            bx, dx, by, dy = rng.uniform(0.2, 2.0, size=4)
            m1 = FiniteMeasure((x - 1, x + 1), (dx, bx))
            m2 = FiniteMeasure((y - 1, y + 1), (dy, by))
            expected = dx * u[x - 1] - bx * u[x] - dy * u[y - 1] + by * u[y]
            assert drift_exact(x, y, m1, m2, g).value == pytest.approx(
                expected, abs=1e-9
            )


class TestProperties:
    def test_homogeneity(self):
        rng = rng_for("drift-homog")
        sites = tuple(range(7))
        g = GroundMetric.weighted_line(tuple(rng.uniform(0.5, 2.0, size=6)))
        for _ in range(200):
            m1 = random_measure(rng, sites)
            m2 = random_measure(rng, sites)
            x, y = 1, 4
            base = drift_exact(x, y, m1, m2, g).value
            for alpha in (0.5, 2.0, 4.0, float(rng.uniform(0.1, 3.0))):
                scaled = drift_exact(x, y, m1.scale(alpha), m2.scale(alpha), g).value
                assert scaled == pytest.approx(alpha * base, rel=1e-12, abs=1e-13)

    def test_subadditivity(self):
        rng = rng_for("drift-subadd")
        for _ in range(150):
            n = int(rng.integers(3, 6))
            g = random_metric(rng, n)
            x, y = g.sites[0], g.sites[1]
            m1, m2, n1, n2 = (random_measure(rng, g.sites) for _ in range(4))
            lhs = drift_exact(x, y, m1 + n1, m2 + n2, g).value
            rhs = (
                drift_exact(x, y, m1, m2, g).value
                + drift_exact(x, y, n1, n2, g).value
            )
            assert lhs <= rhs + 1e-9

    def test_min_attained_beyond_mass(self):
        rng = rng_for("drift-min-attain")
        for _ in range(100):
            n = int(rng.integers(3, 6))
            g = random_metric(rng, n)
            x, y = g.sites[0], g.sites[-1]
            m1 = random_measure(rng, g.sites)
            m2 = random_measure(rng, g.sites)
            value = drift_exact(x, y, m1, m2, g).value
            for bump in (0.0, 0.3, 1.7):
                a = m2.mass + bump
                b = a + m1.mass - m2.mass
                assert _augmented_value(x, y, m1, m2, g, a, b) == pytest.approx(
                    value, abs=1e-9
                )
            # below the threshold the expression can only be larger
            a = m2.mass * float(rng.uniform(0.1, 0.9))
            b = a + m1.mass - m2.mass
            if b >= 0.0:
                assert _augmented_value(x, y, m1, m2, g, a, b) >= value - 1e-9

    def test_one_sided_topup_bound(self):
        # topping up only the lighter measure (with an atom at the other
        # base point) overshoots the drift: it is the extreme point a = 0
        # of the augmentation family, below the equality threshold
        rng = rng_for("drift-alt")
        for _ in range(100):
            n = int(rng.integers(3, 6))
            g = random_metric(rng, n)
            x, y = g.sites[0], g.sites[1]
            m1 = random_measure(rng, g.sites)
            m2 = random_measure(rng, g.sites)
            if m1.mass < m2.mass:
                x, y, m1, m2 = y, x, m2, m1
            topup = (
                wasserstein(m1, m2.add_atom(y, m1.mass - m2.mass), g)
                - m1.mass * g.dist(x, y)
            )
            assert topup >= drift_exact(x, y, m1, m2, g).value - 1e-9

    def test_classical_bound_dominates(self):
        rng = rng_for("drift-classical")
        for _ in range(200):
            n = int(rng.integers(3, 6))
            g = random_metric(rng, n)
            x, y = g.sites[0], g.sites[1]
            m1 = random_measure(rng, g.sites)
            m2 = random_measure(rng, g.sites)
            exact = drift_exact(x, y, m1, m2, g).value
            classical = drift_classical_bound(x, y, m1, m2, g).value
            assert exact <= classical + 1e-9

    def test_probability_case(self):
        # for probability measures the drift is at most W(m1, m2) - d(x, y)
        rng = rng_for("drift-proba")
        for _ in range(150):
            n = int(rng.integers(3, 6))
            g = random_metric(rng, n)
            x, y = g.sites[0], g.sites[1]
            m1 = random_measure(rng, g.sites, mass=1.0)
            m2 = random_measure(rng, g.sites, mass=1.0)
            exact = drift_exact(x, y, m1, m2, g).value
            assert exact <= wasserstein(m1, m2, g) - g.dist(x, y) + 1e-9

    def test_swap_symmetry(self):
        rng = rng_for("drift-swap")
        for _ in range(100):
            n = int(rng.integers(3, 6))
            g = random_metric(rng, n)
            x, y = g.sites[0], g.sites[2]
            m1 = random_measure(rng, g.sites)
            m2 = random_measure(rng, g.sites)
            assert drift_exact(x, y, m1, m2, g).value == pytest.approx(
                drift_exact(y, x, m2, m1, g).value, abs=1e-9
            )


def _metric_cases():
    """(name, metric, sites) of every metric form drift_exact's transport
    route serves: the line forms, the trivial metric with and without a
    declared site list, and a general (LP) metric."""
    K = 8
    base = LineBaseMeasure(
        # unsorted, with two atoms at 2.0 and one at a site between integers
        atoms=((5.0, 0.75), (2.0, 1.5), (0.0, 0.25), (2.0, 0.5), (3.5, 2.0), (7.0, 1.0)),
        segments=((1.0, 4.0, 0.5), (6.0, 9.0, 1.25)),
    )
    floats = (0.0, 0.5, 1.0, 2.0, 2.5, 3.5, 5.0, 6.25, 7.0, 8.0)
    return [
        ("weighted_line u = 1", GroundMetric.weighted_line([1.0] * K), tuple(range(K + 1))),
        ("weighted_line u = 0.5**k",
         GroundMetric.weighted_line([0.5**k for k in range(K)]), tuple(range(K + 1))),
        ("weighted_line u = sqrt2**k",
         GroundMetric.weighted_line([math.sqrt(2) ** k for k in range(K)]),
         tuple(range(K + 1))),
        ("euclidean_line", GroundMetric.euclidean_line(), floats),
        ("measure_line", GroundMetric.measure_line(base), floats),
        ("trivial declared", GroundMetric.trivial(range(6)), tuple(range(6))),
        ("trivial undeclared", GroundMetric.trivial(), (-3, 0, 1, 2, 5, 11)),
        ("general", random_metric(rng_for("drift-route-general"), 6), tuple(range(6))),
    ]


def _outcome(f):
    """f(), or the type and message of the exception it raises."""
    try:
        return f()
    except Exception as exc:
        return type(exc), str(exc)


class TestLineBranch:
    """drift_exact passes the augmented weights of a pair, merged without
    building the augmented measures, to the transport route; on every
    metric kind it must give the float the augmented measures give through
    wasserstein, the LP value to 1e-9, and the same refusals."""

    @pytest.mark.parametrize("case", range(8))
    def test_equals_augmented_wasserstein(self, case):
        name, g, sites = _metric_cases()[case]
        rng = rng_for(f"drift-line-branch:{name}")
        zero = FiniteMeasure.zero()
        for trial in range(120):
            m1 = random_measure(rng, sites)
            m2 = random_measure(rng, sites)
            x, y = (sites[i] for i in rng.choice(len(sites), size=2, replace=False))
            shape = trial % 6
            if shape == 1:  # x in the support of m1
                x = m1.atoms[int(rng.integers(len(m1)))]
            elif shape == 2:
                y = x
            elif shape == 3:
                m2 = zero
            elif shape == 4:
                m1 = zero
            elif shape == 5:
                m1 = m2 = zero
            res = drift_exact(x, y, m1, m2, g)
            a1, a2 = augmented_pair(x, y, m1, m2)
            cost = wasserstein(a1, a2, g)
            assert res.augmented_cost == cost
            assert res.value == cost - (m1.mass + m2.mass) * g.dist(x, y)
            lp = 0.0 if a1.mass == 0.0 else wasserstein(a1, a2, g, method="lp")
            assert res.augmented_cost == pytest.approx(lp, rel=1e-9, abs=1e-9)

    def test_both_empty(self):
        z = FiniteMeasure.zero()
        for _, g, sites in _metric_cases():
            res = drift_exact(sites[1], sites[3], z, z, g)
            assert (res.value, res.augmented_cost) == (0.0, 0.0)

    def test_nan_site_rejected(self):
        # refused as wasserstein refuses the augmented measures, with the
        # same exception and message; the undeclared trivial metric takes
        # any hashable site, so there both give the same value
        m = FiniteMeasure((1,), (1.0,))
        for _, g, sites in _metric_cases():
            args = (math.nan, sites[2], m, m)
            want = _outcome(lambda: wasserstein(*augmented_pair(*args), g))
            assert g.sites is None and g.kind == "trivial" or want[0] is ValidationError
            assert _outcome(lambda: drift_exact(*args, g).augmented_cost) == want

    def test_mass_mismatch_rejected(self):
        # an infinite weight makes both augmented masses inf, whose
        # difference is nan: drift_exact refuses the pair as wasserstein
        # refuses the augmented measures
        m1 = FiniteMeasure((1,), (math.inf,))
        m2 = FiniteMeasure((2,), (1.0,))
        for _, g, _ in _metric_cases():
            want = _outcome(lambda: wasserstein(*augmented_pair(1, 2, m1, m2), g))
            assert want[0] is MassMismatchError
            assert _outcome(lambda: drift_exact(1, 2, m1, m2, g)) == want


class TestDensityClosedForm:
    def test_equal_densities(self):
        zeta = FiniteMeasure((1, 2, 3), (1.0, 1.0, 1.0))
        alpha = FiniteMeasure((3,), (2.0,))
        res = drift_density_closed_form(1, 2, alpha, alpha, zeta)
        assert res.value == pytest.approx(-2.0, abs=1e-12)

    def test_reference_instance(self):
        zeta = FiniteMeasure((1, 2, 3), (1.0, 1.0, 1.0))
        a_x = FiniteMeasure((2, 3), (1.0, 2.0))
        a_y = FiniteMeasure((1, 3), (0.5, 1.0))
        assert drift_density_closed_form(1, 2, a_x, a_y, zeta).value == pytest.approx(
            -2.5, abs=1e-12
        )

    def test_disjoint_no_xy_mass(self):
        zeta = FiniteMeasure((1, 2, 3, 4), (1.0, 1.0, 1.0, 1.0))
        a_x = FiniteMeasure((3,), (1.0,))
        a_y = FiniteMeasure((4,), (1.0,))
        assert drift_density_closed_form(1, 2, a_x, a_y, zeta).value == 0.0

    def test_same_point_rejected(self):
        zeta = FiniteMeasure((1, 2), (1.0, 1.0))
        a = FiniteMeasure((2,), (1.0,))
        with pytest.raises(ValidationError):
            drift_density_closed_form(1, 1, a, a, zeta)

    def test_agrees_with_exact_on_random_instances(self):
        rng = rng_for("density-vs-exact")
        sites = tuple(range(6))
        g = GroundMetric.trivial(sites)
        for _ in range(150):
            zeta_w = rng.uniform(0.3, 2.0, size=len(sites))
            zeta = FiniteMeasure(sites, zeta_w)
            x, y = 0, 3
            ax = rng.uniform(0.0, 1.5, size=len(sites))
            ay = rng.uniform(0.0, 1.5, size=len(sites))
            ax[list(sites).index(x)] = 0.0
            ay[list(sites).index(y)] = 0.0
            alpha_x = FiniteMeasure(sites, ax)
            alpha_y = FiniteMeasure(sites, ay)
            m1 = FiniteMeasure(sites, ax * zeta_w)
            m2 = FiniteMeasure(sites, ay * zeta_w)
            closed = drift_density_closed_form(x, y, alpha_x, alpha_y, zeta)
            exact = drift_exact(x, y, m1, m2, g)
            assert closed.value == pytest.approx(exact.value, abs=1e-9)


class TestKernelBound:
    def test_equal_rates_equal_laws(self):
        g = GroundMetric.euclidean_line()
        alpha = FiniteMeasure((1.0,), (1.0,))
        res = drift_kernel_bound(0.0, 5.0, 2.0, 2.0, alpha, alpha, g)
        assert res.value == 0.0

    def test_moment_term_only(self):
        g = GroundMetric.euclidean_line()
        alpha = FiniteMeasure((1.0,), (1.0,))
        res = drift_kernel_bound(0.0, 5.0, 2.0, 1.0, alpha, alpha, g)
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_exponential_family_reduction(self):
        # exponential displacement laws with rates anti-monotone to the betas:
        # the bound reduces to |beta_x/lambda_x - beta_y/lambda_y| after the
        # mean-of-exponential moments; checked on a discretized version
        lam_x, lam_y = 1.0, 2.0
        beta_x, beta_y = 1.5, 0.5  # larger rate goes with slower decay
        grid = [k * 1e-3 for k in range(1, 12000)]

        def expo(lam):
            w = [lam * math.exp(-lam * t) * 1e-3 for t in grid]
            total = sum(w)
            return FiniteMeasure(grid, [v / total for v in w])

        g = GroundMetric.euclidean_line()
        res = drift_kernel_bound(0.0, 10_000.0, beta_x, beta_y, expo(lam_x), expo(lam_y), g)
        target = abs(beta_x / lam_x - beta_y / lam_y)
        assert res.value == pytest.approx(target, abs=2e-3)

    def test_bounds_exact_shift_instance(self):
        rng = rng_for("kernel-vs-exact")
        g = GroundMetric.euclidean_line()
        for _ in range(50):
            beta_x = float(rng.uniform(0.5, 2.0))
            beta_y = float(rng.uniform(0.5, 2.0))
            pts = tuple(float(v) for v in rng.uniform(0.1, 2.0, size=3))
            w = rng.uniform(0.1, 1.0, size=3)
            alpha = FiniteMeasure(pts, w / w.sum())
            x = 0.0
            y = float(rng.uniform(5.0, 9.0))
            m1 = FiniteMeasure([x + p for p in alpha.atoms], [beta_x * v for v in alpha.weights])
            m2 = FiniteMeasure([y + p for p in alpha.atoms], [beta_y * v for v in alpha.weights])
            exact = drift_exact(x, y, m1, m2, g).value
            bound = drift_kernel_bound(x, y, beta_x, beta_y, alpha, alpha, g).value
            assert exact <= bound + 1e-9
