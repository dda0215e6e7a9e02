"""Transport distances and plans against independent oracles."""

import math

import numpy as np
import pytest

from jumpcurv import (
    FiniteMeasure,
    GroundMetric,
    LineBaseMeasure,
    MassMismatchError,
    ValidationError,
    optimal_plan,
    wasserstein,
    wasserstein_line,
)
from jumpcurv import transport

from conftest import rng_for, random_measure, random_metric, transport_oracle


def _half_tv(m1: FiniteMeasure, m2: FiniteMeasure) -> float:
    keys = set(m1.atoms) | set(m2.atoms)
    return 0.5 * math.fsum(abs(m1.weight_at(k) - m2.weight_at(k)) for k in keys)


class TestBasics:
    def test_identity(self, rng):
        g = GroundMetric.trivial()
        m = FiniteMeasure((1, 4), (0.3, 0.7))
        assert wasserstein(m, m, g) == 0.0

    def test_dirac_pair_trivial(self):
        g = GroundMetric.trivial()
        assert wasserstein(FiniteMeasure.delta("a"), FiniteMeasure.delta("b"), g) == 1.0

    def test_euclidean_split(self):
        g = GroundMetric.euclidean_line()
        m1 = FiniteMeasure((0.0, 2.0), (0.5, 0.5))
        m2 = FiniteMeasure.delta(1.0)
        assert wasserstein(m1, m2, g) == pytest.approx(1.0, abs=1e-12)

    def test_mass_mismatch_rejected(self):
        g = GroundMetric.trivial()
        with pytest.raises(MassMismatchError):
            wasserstein(FiniteMeasure.delta(0), FiniteMeasure.delta(1, 2.0), g)

    def test_zero_measures(self):
        g = GroundMetric.trivial()
        assert wasserstein(FiniteMeasure.zero(), FiniteMeasure.zero(), g) == 0.0


class TestLineFormula:
    def test_lebesgue_split(self):
        base = LineBaseMeasure.lebesgue()
        m1 = FiniteMeasure((0.0, 2.0), (0.5, 0.5))
        m2 = FiniteMeasure.delta(1.0)
        assert wasserstein_line(m1, m2, base) == pytest.approx(1.0, abs=1e-12)

    def test_single_atom_base(self):
        base = LineBaseMeasure(atoms=((0.5, 1.0),), segments=())
        m1, m2 = FiniteMeasure.delta(0.0), FiniteMeasure.delta(1.0)
        assert wasserstein_line(m1, m2, base) == 1.0

    def test_line_agrees_with_lp(self):
        rng = rng_for("line-vs-lp")
        for _ in range(150):
            n_seg = int(rng.integers(1, 4))
            cuts = np.sort(rng.uniform(-3.0, 3.0, size=2 * n_seg))
            segments = tuple(
                (float(cuts[2 * i]), float(cuts[2 * i + 1]), float(rng.uniform(0.1, 2.0)))
                for i in range(n_seg)
            )
            atoms = tuple(
                (float(rng.uniform(-3, 3)), float(rng.uniform(0.1, 1.0)))
                for _ in range(int(rng.integers(0, 3)))
            )
            base = LineBaseMeasure(atoms=atoms, segments=segments)
            pts = tuple(float(p) for p in rng.uniform(-3.0, 3.0, size=8))
            g = GroundMetric.measure_line(base, sites=pts)
            m1 = random_measure(rng, pts, max_atoms=4, mass=1.3)
            m2 = random_measure(rng, pts, max_atoms=4, mass=1.3)
            direct = wasserstein_line(m1, m2, base)
            lp = wasserstein(m1, m2, g, method="lp")
            assert direct == pytest.approx(lp, abs=1e-9)


class TestTrivialFormula:
    def test_matches_half_tv(self):
        rng = rng_for("trivial-tv")
        sites = tuple(range(9))
        g = GroundMetric.trivial(sites)
        for _ in range(300):
            m1 = random_measure(rng, sites, max_atoms=5, mass=2.0)
            m2 = random_measure(rng, sites, max_atoms=5, mass=2.0)
            assert wasserstein(m1, m2, g) == pytest.approx(
                _half_tv(m1, m2), abs=1e-12
            )
            assert wasserstein(m1, m2, g, method="lp") == pytest.approx(
                _half_tv(m1, m2), abs=1e-9
            )


class TestOracle:
    def test_lp_matches_vertex_enumeration(self):
        rng = rng_for("vertex-oracle")
        for _ in range(60):
            n = int(rng.integers(2, 6))
            g = random_metric(rng, n)
            m1 = random_measure(rng, g.sites, max_atoms=min(4, n), mass=1.7)
            m2 = random_measure(rng, g.sites, max_atoms=min(4, n), mass=1.7)
            assert wasserstein(m1, m2, g) == pytest.approx(
                transport_oracle(m1, m2, g), abs=1e-9
            )

    def test_direct_highs_vertex_equals_linprog(self, monkeypatch):
        # the direct HiGHS call must return linprog's vertex bit for bit,
        # degenerate uniform weights (many optimal vertices) included
        rng = rng_for("highs-direct")
        cases = []
        for k in range(80):
            n = int(rng.integers(2, 8))
            g = random_metric(rng, n)
            if k % 4 == 0:
                m1 = FiniteMeasure(g.sites, np.full(n, 0.5))
                m2 = FiniteMeasure(g.sites[::-1], np.full(n, 0.5))
            else:
                m1 = random_measure(rng, g.sites, max_atoms=n, mass=1.3)
                m2 = random_measure(rng, g.sites, max_atoms=n, mass=1.3)
            cases.append((m1, m2, g))
        assert transport._highs_binding() is not None
        direct = [transport._lp_solve(m1, m2, g) for m1, m2, g in cases]
        monkeypatch.setattr(transport, "_highs_binding", lambda: None)
        via_linprog = [transport._lp_solve(m1, m2, g) for m1, m2, g in cases]
        assert direct == via_linprog


class TestProperties:
    def test_scale_equivariance(self):
        rng = rng_for("scale")
        sites = tuple(range(6))
        g = GroundMetric.weighted_line(tuple(rng.uniform(0.5, 2.0, size=5)))
        for _ in range(100):
            m1 = random_measure(rng, sites, mass=1.0)
            m2 = random_measure(rng, sites, mass=1.0)
            w = wasserstein(m1, m2, g)
            for alpha in (0.5, 2.0, float(rng.uniform(0.1, 5.0))):
                scaled = wasserstein(m1.scale(alpha), m2.scale(alpha), g)
                assert scaled == pytest.approx(alpha * w, rel=1e-12, abs=1e-15)

    def test_symmetry_and_triangle(self):
        rng = rng_for("w-axioms")
        for _ in range(40):
            n = int(rng.integers(3, 6))
            g = random_metric(rng, n)
            ms = [random_measure(rng, g.sites, mass=1.5) for _ in range(3)]
            w01 = wasserstein(ms[0], ms[1], g)
            assert w01 == pytest.approx(wasserstein(ms[1], ms[0], g), abs=1e-9)
            w02 = wasserstein(ms[0], ms[2], g)
            w12 = wasserstein(ms[1], ms[2], g)
            assert w01 <= w02 + w12 + 1e-9


class TestPlans:
    def test_diagonal_for_equal_diracs(self):
        g = GroundMetric.trivial()
        plan = optimal_plan(FiniteMeasure.delta("a", 2.0), FiniteMeasure.delta("a", 2.0), g)
        assert plan.pairs == (("a", "a", 2.0),)
        assert plan.cost == 0.0

    def test_dirac_to_dirac(self):
        g = GroundMetric.euclidean_line()
        plan = optimal_plan(FiniteMeasure.delta(0.0, 1.5), FiniteMeasure.delta(2.0, 1.5), g)
        assert plan.pairs == ((0.0, 2.0, 1.5),)
        assert plan.cost == pytest.approx(3.0)

    def test_marginals_and_cost(self):
        rng = rng_for("plan-marginals")
        for _ in range(50):
            n = int(rng.integers(2, 6))
            g = random_metric(rng, n)
            m1 = random_measure(rng, g.sites, mass=1.1)
            m2 = random_measure(rng, g.sites, mass=1.1)
            plan = optimal_plan(m1, m2, g)
            left: dict = {}
            right: dict = {}
            for u, v, w in plan.pairs:
                assert w > 0.0
                left[u] = left.get(u, 0.0) + w
                right[v] = right.get(v, 0.0) + w
            for x, w in zip(m1.atoms, m1.weights):
                assert left.get(x, 0.0) == pytest.approx(w, rel=1e-9, abs=1e-12)
            for y, w in zip(m2.atoms, m2.weights):
                assert right.get(y, 0.0) == pytest.approx(w, rel=1e-9, abs=1e-12)
            recomputed = math.fsum(w * g.dist(u, v) for u, v, w in plan.pairs)
            assert plan.cost == pytest.approx(recomputed, abs=1e-9)
            assert plan.cost == pytest.approx(wasserstein(m1, m2, g), abs=1e-9)

    def test_plan_optimal_on_line_and_trivial(self):
        rng = rng_for("plan-optimal")
        gl = GroundMetric.weighted_line(tuple(rng.uniform(0.5, 2.0, size=6)))
        gt = GroundMetric.trivial(tuple(range(7)))
        for g in (gl, gt):
            sites = g.sites
            for _ in range(60):
                m1 = random_measure(rng, sites, mass=1.4)
                m2 = random_measure(rng, sites, mass=1.4)
                plan = optimal_plan(m1, m2, g)
                assert plan.cost == pytest.approx(wasserstein(m1, m2, g), abs=1e-9)

    def test_determinism(self):
        rng = rng_for("plan-deterministic")
        g = GroundMetric.trivial(tuple(range(6)))
        m1 = random_measure(rng, g.sites, mass=2.0)
        m2 = random_measure(rng, g.sites, mass=2.0)
        p1 = optimal_plan(m1, m2, g)
        p2 = optimal_plan(m1, m2, g)
        assert p1.pairs == p2.pairs
        assert p1.cost == p2.cost

    def test_unequal_mass_rejected(self):
        g = GroundMetric.trivial()
        with pytest.raises(MassMismatchError):
            optimal_plan(FiniteMeasure.delta(0), FiniteMeasure.delta(1, 3.0), g)
