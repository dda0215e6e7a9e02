"""Shared generators for randomized tests.

Everything is seeded; tests draw instances through these helpers so the
whole suite is reproducible run to run.
"""

from __future__ import annotations

import itertools
import math
import zlib

import numpy as np
import pytest

from jumpcurv import FiniteMeasure, GroundMetric, JumpKernel


def rng_for(name: str, seed: int = 0) -> np.random.Generator:
    """Philox stream keyed by a stable digest of (name, seed): the same
    instances in every process, whatever PYTHONHASHSEED is."""
    key = zlib.crc32(f"{name}:{seed}".encode())
    return np.random.Generator(np.random.Philox(key=key))


class CountingKernel(JumpKernel):
    """Delegates to ``inner`` and counts its ``rate`` calls."""

    def __init__(self, inner: JumpKernel):
        self.inner = inner
        self.sites = inner.sites
        self.calls = 0

    def rate(self, i, config):
        self.calls += 1
        return self.inner.rate(i, config)


def random_measure(rng, sites, max_atoms=4, min_atoms=1, mass=None) -> FiniteMeasure:
    max_atoms = min(max_atoms, len(sites))
    n = int(rng.integers(min(min_atoms, max_atoms), max_atoms + 1))
    atoms = list(rng.choice(len(sites), size=n, replace=False))
    weights = rng.uniform(0.1, 2.0, size=n)
    if mass is not None:
        weights *= mass / weights.sum()
    return FiniteMeasure([sites[a] for a in atoms], weights)


def random_metric(rng, n: int) -> GroundMetric:
    """Random metric on n sites via shortest paths of a random weighted graph."""
    w = rng.uniform(0.2, 3.0, size=(n, n))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    # Floyd-Warshall closure makes the triangle inequality hold
    d = w.copy()
    for k in range(n):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    return GroundMetric.general(range(n), d)


def transport_oracle(m1: FiniteMeasure, m2: FiniteMeasure, g: GroundMetric) -> float:
    """Exact optimal transport cost by enumerating basic feasible solutions
    of the transport polytope (independent of the LP solver)."""
    a1, w1 = m1.atoms, np.asarray(m1.weights)
    a2, w2 = m2.atoms, np.asarray(m2.weights)
    n1, n2 = len(a1), len(a2)
    if n1 == 0:
        return 0.0
    cells = [(i, j) for i in range(n1) for j in range(n2)]
    cost = np.array([[g.dist(x, y) for y in a2] for x in a1])
    rows = n1 + n2
    A = np.zeros((rows, len(cells)))
    for c, (i, j) in enumerate(cells):
        A[i, c] = 1.0
        A[n1 + j, c] = 1.0
    rhs = np.concatenate([w1, w2])
    r = n1 + n2 - 1
    best = math.inf
    for combo in itertools.combinations(range(len(cells)), r):
        sub = A[:, combo]
        sol, residual, rank, _ = np.linalg.lstsq(sub, rhs, rcond=None)
        if rank < r:
            continue
        if np.max(np.abs(sub @ sol - rhs)) > 1e-9:
            continue
        if np.min(sol) < -1e-9:
            continue
        value = float(sum(cost[cells[c]] * max(s, 0.0) for c, s in zip(combo, sol)))
        best = min(best, value)
    assert math.isfinite(best), "oracle found no feasible basis"
    return best


@pytest.fixture
def rng():
    return rng_for("default")
