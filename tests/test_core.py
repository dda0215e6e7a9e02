"""Measures, metrics, and configuration distances."""

import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from jumpcurv import (
    FiniteMeasure,
    GroundMetric,
    LineBaseMeasure,
    ValidationError,
    abs_first_moment,
    cdf_eval,
    config_distance,
)

from conftest import rng_for


class TestFiniteMeasure:
    def test_merges_duplicates_and_sorts(self):
        m = FiniteMeasure((3, 1, 3, 2), (1.0, 2.0, 0.5, 1.0))
        assert m.atoms == (1, 2, 3)
        assert m.weights == (2.0, 1.0, 1.5)
        assert m.mass == 4.5

    def test_drops_zero_weights(self):
        m = FiniteMeasure((1, 2), (0.0, 1.0))
        assert m.atoms == (2,)

    def test_rejects_negative_weights(self):
        with pytest.raises(ValidationError):
            FiniteMeasure((1,), (-0.5,))

    def test_order_independence(self):
        a = FiniteMeasure((1, 2, 3), (0.1, 0.2, 0.3))
        b = FiniteMeasure((3, 1, 2), (0.3, 0.1, 0.2))
        assert a == b
        assert hash(a) == hash(b)

    def test_zero_and_delta(self):
        assert FiniteMeasure.zero().mass == 0.0
        d = FiniteMeasure.delta(7, 2.5)
        assert d.atoms == (7,) and d.mass == 2.5

    def test_add_and_add_atom(self):
        m = FiniteMeasure((1,), (1.0,)) + FiniteMeasure((1, 2), (0.5, 1.0))
        assert m.as_dict() == {1: 1.5, 2: 1.0}
        m2 = m.add_atom(1, 0.5)
        assert m2.weight_at(1) == 2.0
        assert m.weight_at(1) == 1.5  # immutable

    def test_scale(self):
        m = FiniteMeasure((1, 2), (1.0, 3.0)).scale(0.5)
        assert m.weights == (0.5, 1.5)
        with pytest.raises(ValidationError):
            m.scale(-1.0)

    def test_weight_at_missing(self):
        assert FiniteMeasure((1,), (1.0,)).weight_at(9) == 0.0

    def test_stored_hash_not_pickled(self):
        # string hashes differ between processes, so a measure sent to a
        # worker must hash afresh there
        m = FiniteMeasure(("b", "a"), (1.0, 2.0))
        assert hash(m) == hash(m) == hash((m.atoms, m.weights))
        back = pickle.loads(pickle.dumps(m))
        assert back._hash is None
        assert back == m and back.mass == m.mass and hash(back) == hash(m)


class TestCdf:
    def test_below_all_atoms(self):
        m = FiniteMeasure((1.0, 2.0), (1.0, 1.0))
        assert cdf_eval(m, 0.0) == 0.0

    def test_right_continuous_at_atom(self):
        assert cdf_eval(FiniteMeasure.delta(1.0), 1.0) == 1.0

    def test_half_mass(self):
        m = FiniteMeasure((0.0, 2.0), (0.5, 0.5))
        assert cdf_eval(m, 1.0) == 0.5

    def test_abs_first_moment(self):
        assert abs_first_moment(FiniteMeasure.delta(0.0)) == 0.0
        m = FiniteMeasure((-2.0, 2.0), (0.5, 0.5))
        assert abs_first_moment(m) == 2.0
        m = FiniteMeasure((1.0, 3.0), (2.0, 1.0))
        assert abs_first_moment(m) == 5.0


class TestGroundMetric:
    def test_trivial(self):
        g = GroundMetric.trivial()
        assert g.dist("a", "a") == 0.0
        assert g.dist("a", "b") == 1.0

    def test_weighted_line_distances(self):
        g = GroundMetric.weighted_line((1.0, 2.0, 4.0))
        assert g.sites == (0, 1, 2, 3)
        assert g.dist(0, 1) == 1.0
        assert g.dist(0, 3) == 7.0
        assert g.dist(3, 1) == 6.0

    def test_euclidean(self):
        g = GroundMetric.euclidean_line()
        assert g.dist(-1.5, 2.0) == 3.5

    def test_general_validation(self):
        with pytest.raises(ValidationError):
            GroundMetric.general((0, 1), [[0.0, 1.0], [2.0, 0.0]])  # asymmetric
        with pytest.raises(ValidationError):
            GroundMetric.general((0, 1, 2), [[0, 1, 5], [1, 0, 1], [5, 1, 0]])
        g = GroundMetric.general((0, 1), [[0.0, 2.0], [2.0, 0.0]])
        assert g.dist(1, 0) == 2.0

    def test_unknown_site_rejected(self):
        g = GroundMetric.weighted_line((1.0,))
        with pytest.raises(ValidationError):
            g.dist(0, 5)

    def test_measure_line_atom_base(self):
        base = LineBaseMeasure(atoms=((0.5, 1.0),), segments=())
        g = GroundMetric.measure_line(base)
        assert g.dist(0.0, 1.0) == 1.0  # mu([0,1)) = 1
        assert g.dist(0.6, 1.0) == 0.0  # no base mass in [0.6,1)

    def test_line_base_measure_rejects_nan_position(self):
        with pytest.raises(ValidationError, match="nan"):
            LineBaseMeasure(atoms=((0.0, 1.0), (math.nan, 1.0)))

    def test_interval_mass_equals_filtered_sum(self):
        # the bisected slice sums the same atoms as the filter lo <= p < hi,
        # and fsum rounds correctly, so the floats are equal
        rng = rng_for("interval-mass")
        for _ in range(300):
            n = int(rng.integers(0, 12))
            positions = [float(p) for p in rng.integers(-3, 8, size=n)]
            positions[: n // 2] = [float(p) for p in rng.uniform(-3.0, 8.0, size=n // 2)]
            atoms = tuple(
                (p, float(w)) for p, w in zip(positions, rng.uniform(0.0, 2.0, size=n))
            )
            segments = tuple(
                (float(a), float(a + span), float(dens))
                for a, span, dens in zip(
                    rng.uniform(-3.0, 8.0, size=2), rng.uniform(0.1, 4.0, size=2),
                    rng.uniform(0.0, 2.0, size=2),
                )
            )[: int(rng.integers(0, 3))]
            base = LineBaseMeasure(atoms=atoms, segments=segments)
            for lo, hi in rng.uniform(-4.0, 9.0, size=(10, 2)):
                lo, hi = float(lo), float(hi)
                for a, b in ((lo, hi), (math.floor(lo), math.ceil(hi))):
                    expected = 0.0
                    if b > a:
                        expected = math.fsum(w for p, w in atoms if a <= p < b)
                        for s0, s1, dens in segments:
                            left, right = max(s0, a), min(s1, b)
                            if right > left and dens > 0.0:
                                expected += dens * (right - left)
                    assert base.interval_mass(a, b) == expected

    def test_line_base_measure_value_semantics(self):
        a = LineBaseMeasure(atoms=((2.0, 1.0), (0.0, 3.0)))
        b = LineBaseMeasure(atoms=((2.0, 1.0), (0.0, 3.0)))
        assert a == b and hash(a) == hash(b)
        assert a != LineBaseMeasure(atoms=((0.0, 3.0), (2.0, 1.0)))
        assert repr(a) == "LineBaseMeasure(atoms=((2.0, 1.0), (0.0, 3.0)), segments=())"

    def test_measure_line_matches_weighted_line_on_integers(self):
        u = (1.0, 2.0, 4.0)
        gw = GroundMetric.weighted_line(u)
        segs = tuple((float(k), float(k + 1), u[k]) for k in range(len(u)))
        gm = GroundMetric.measure_line(
            LineBaseMeasure(atoms=(), segments=segs), sites=(0, 1, 2, 3)
        )
        for x in gw.sites:
            for y in gw.sites:
                assert gm.dist(float(x), float(y)) == pytest.approx(
                    gw.dist(x, y), abs=1e-12
                )


class TestConfigDistance:
    def test_identity(self):
        g = GroundMetric.trivial()
        assert config_distance((1, 2, 3), (1, 2, 3), g) == 0.0

    def test_trivial_one_mismatch(self):
        g = GroundMetric.trivial()
        assert config_distance((1, 2, 3), (1, 2, 4), g) == pytest.approx(1 / 3)

    def test_weighted_line_example(self):
        g = GroundMetric.weighted_line((1.0, 2.0, 4.0))
        assert config_distance((0, 0), (2, 1), g) == 2.0

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            config_distance((1,), (1, 2), GroundMetric.trivial())

    def test_metric_axioms_random_triples(self):
        rng = rng_for("config-axioms")
        metrics = [
            GroundMetric.trivial(),
            GroundMetric.weighted_line(tuple(rng.uniform(0.5, 2.0, size=6))),
            GroundMetric.euclidean_line(),
        ]
        for g in metrics:
            sites = g.sites if g.sites is not None else tuple(range(7))
            for _ in range(200):
                a, b, c = (
                    tuple(sites[i] for i in rng.integers(0, len(sites), size=4))
                    for _ in range(3)
                )
                dab = config_distance(a, b, g)
                assert dab == config_distance(b, a, g)
                assert dab <= config_distance(a, c, g) + config_distance(c, b, g) + 1e-12
                assert config_distance(a, a, g) == 0.0


@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.floats(0.0, 10.0, allow_nan=False)),
        max_size=8,
    )
)
@settings(max_examples=200, deadline=None)
def test_measure_construction_permutation_invariant(pairs):
    import random

    shuffled = pairs[:]
    random.Random(0).shuffle(shuffled)
    a = FiniteMeasure([p[0] for p in pairs], [p[1] for p in pairs])
    b = FiniteMeasure([p[0] for p in shuffled], [p[1] for p in shuffled])
    assert a.atoms == b.atoms
    for x, y in zip(a.weights, b.weights):
        assert x == pytest.approx(y, abs=1e-12)
    assert a.mass == pytest.approx(b.mass, abs=1e-12)
