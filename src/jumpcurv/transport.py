"""Exact Wasserstein-1 distances and optimal plans between finite measures.

Every distance is computed from two atom -> weight maps -- two measures'
own, or the augmented weights :func:`jumpcurv.drift.drift_exact` merges
without building measures -- by one validate-and-dispatch, :func:`_route`:
it checks equal mass and every site, and picks a route from the metric kind:

* trivial metric: W equals the largest mass discrepancy over events, computed
  as half the L1 distance between the weight maps;
* line metrics (weighted_line / measure_line): W equals the integral of the
  CDF gap |F1 - F2| against the base measure, a finite sum over the
  breakpoints of the two supports (:func:`_line_cost`);
* general metric: an exact linear program on the support-pair cost matrix
  (HiGHS, called through scipy's binding with linprog's options), which
  also yields a vertex plan.

Plans from the closed-form routes are built directly (diagonal-plus-greedy
for trivial, monotone merge for the line) and are deterministic; the LP
route is deterministic because the solver is.  Masses must agree to 1e-9
relative; nothing is renormalized silently beyond that tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    FiniteMeasure,
    GroundMetric,
    LineBaseMeasure,
    NumericError,
    ValidationError,
    require_equal_mass,
)

#: reconstruction tolerance for plan marginals and costs (relative)
PLAN_RTOL = 1e-9

#: plan entries below this fraction of the total mass are dropped as dust
_DUST = 1e-15


@dataclass(frozen=True)
class TransportPlan:
    """Coupling between two equal-mass measures.

    ``pairs`` is a tuple of (source atom, target atom, weight) with positive
    weights; ``cost`` is sum of weight * distance over the pairs.  Marginals
    are recomputed from the pairs at construction and must match the inputs
    to 1e-9 relative.
    """

    pairs: tuple
    cost: float
    left_marginal: FiniteMeasure
    right_marginal: FiniteMeasure

    def __post_init__(self):
        left = FiniteMeasure(
            tuple(u for u, _, _ in self.pairs), tuple(w for _, _, w in self.pairs)
        )
        right = FiniteMeasure(
            tuple(v for _, v, _ in self.pairs), tuple(w for _, _, w in self.pairs)
        )
        for got, want in ((left, self.left_marginal), (right, self.right_marginal)):
            scale = max(want.mass, 1.0)
            for z in set(got.atoms) | set(want.atoms):
                if abs(got.weight_at(z) - want.weight_at(z)) > PLAN_RTOL * scale:
                    raise NumericError(
                        f"plan marginal mismatch at atom {z!r}: "
                        f"{got.weight_at(z)!r} vs {want.weight_at(z)!r}"
                    )

    @property
    def total_mass(self) -> float:
        return math.fsum(w for _, _, w in self.pairs)


def _route(w1: dict, w2: dict, g: GroundMetric, method: str) -> str | None:
    """Validate two atom -> weight maps of equal mass supported inside g and
    name the route ``method`` selects; None when both maps are empty."""
    require_equal_mass(math.fsum(w1.values()), math.fsum(w2.values()))
    for z in (*w1, *w2):
        g.check_site(z)
    if not w1 and not w2:
        return None
    if method == "auto":
        if g.kind == "trivial":
            return "trivial"
        if g.is_line():
            return "line"
        return "lp"
    if method in ("lp", "trivial", "line"):
        if method == "trivial" and g.kind != "trivial":
            raise ValidationError("trivial route needs the trivial metric")
        if method == "line" and not g.is_line():
            raise ValidationError("line route needs a line metric")
        return method
    raise ValidationError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def wasserstein(
    m1: FiniteMeasure, m2: FiniteMeasure, g: GroundMetric, method: str = "auto"
) -> float:
    """W_d(m1, m2) between equal-mass measures supported inside g.

    ``method`` forces a route ("lp", "trivial", "line"); "auto" picks the
    closed form matching the metric kind.  Both measures empty gives 0.
    """
    return _cost(m1.as_dict(), m2.as_dict(), g, method)


def wasserstein_line(
    m1: FiniteMeasure, m2: FiniteMeasure, mu: LineBaseMeasure
) -> float:
    """Integral of |F1 - F2| against the base measure mu.

    F1, F2 are the right-continuous CDFs of m1, m2.  The gap is constant
    between consecutive support points, so the integral is the finite sum of
    gap * mu([t_j, t_{j+1})) over the sorted union of the supports.
    """
    return _cost(m1.as_dict(), m2.as_dict(), GroundMetric.measure_line(mu), "line")


def _cost(w1: dict, w2: dict, g: GroundMetric, method: str = "auto") -> float:
    """W_g between two atom -> weight maps, on the route :func:`_route`
    picks; 0 when both maps are empty."""
    route = _route(w1, w2, g, method)
    if route is None:
        return 0.0
    if route == "trivial":
        atoms = w1.keys() | w2.keys()
        return 0.5 * math.fsum(abs(w1.get(z, 0.0) - w2.get(z, 0.0)) for z in atoms)
    if route == "line":
        return _line_cost(w1, w2, g.base_measure)
    return _lp_solve(FiniteMeasure.from_dict(w1), FiniteMeasure.from_dict(w2), g)[0]


def _line_cost(w1: dict, w2: dict, mu: LineBaseMeasure) -> float:
    """The CDF walk of :func:`wasserstein_line` on two atom -> weight maps
    of equal total weight: one step per point of the joint support, and one
    ``mu.interval_mass`` per gap with a nonzero CDF difference."""
    points = sorted(w1.keys() | w2.keys())
    total = 0.0
    f1 = 0.0
    f2 = 0.0
    for t, t_next in zip(points, points[1:]):
        f1 += w1.get(t, 0.0)
        f2 += w2.get(t, 0.0)
        gap = abs(f1 - f2)
        if gap > 0.0:
            total += gap * mu.interval_mass(t, t_next)
    return total


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------


def optimal_plan(
    m1: FiniteMeasure, m2: FiniteMeasure, g: GroundMetric, method: str = "auto"
) -> TransportPlan:
    """An optimal coupling realizing wasserstein(m1, m2, g).

    Deterministic: the closed-form constructions are greedy in sorted atom
    order, and the LP backend always returns the same vertex for the same
    input.  The plan cost agrees with the distance to 1e-9 relative.
    """
    route = _route(m1.as_dict(), m2.as_dict(), g, method)
    if route is None:
        return TransportPlan((), 0.0, m1, m2)
    if route == "trivial":
        pairs = _trivial_plan_pairs(m1, m2)
    elif route == "line":
        pairs = _match_in_order(zip(m1.atoms, m1.weights), zip(m2.atoms, m2.weights))
    else:
        _, pairs = _lp_solve(m1, m2, g)
    cost = math.fsum(w * g.dist(u, v) for u, v, w in pairs)
    return TransportPlan(tuple(pairs), cost, m1, m2)


def _trivial_plan_pairs(m1: FiniteMeasure, m2: FiniteMeasure):
    """Keep the overlap in place, match the residuals greedily.

    Every off-diagonal move costs exactly 1, so any residual matching is
    optimal; sorted greedy keeps it deterministic.
    """
    pairs = []
    res1 = []
    res2 = []
    for z in sorted(set(m1.atoms) | set(m2.atoms)):
        w1, w2 = m1.weight_at(z), m2.weight_at(z)
        keep = min(w1, w2)
        if keep > 0.0:
            pairs.append((z, z, keep))
        if w1 > w2:
            res1.append((z, w1 - w2))
        elif w2 > w1:
            res2.append((z, w2 - w1))
    return pairs + _match_in_order(res1, res2)


def _match_in_order(src, dst) -> list:
    """Greedy in-order matching of two sorted (atom, weight) sequences of
    equal total weight; on a line metric this is the optimal monotone
    (quantile) coupling."""
    pairs = []
    src, dst = iter(src), iter(dst)
    u, r1 = next(src, (None, None))
    v, r2 = next(dst, (None, None))
    while r1 is not None and r2 is not None:
        w = min(r1, r2)
        if w > 0.0:
            pairs.append((u, v, w))
        r1 -= w
        r2 -= w
        if r1 <= 0.0:
            u, r1 = next(src, (None, None))
        if r2 <= 0.0:
            v, r2 = next(dst, (None, None))
    return pairs


def _lp_solve(m1: FiniteMeasure, m2: FiniteMeasure, g: GroundMetric):
    """Exact LP on the support-pair cost matrix.  Returns (cost, pairs)."""
    a1, a2 = m1.atoms, m2.atoms
    n1, n2 = len(a1), len(a2)
    cost = np.empty((n1, n2))
    for i, u in enumerate(a1):
        for j, v in enumerate(a2):
            cost[i, j] = g.dist(u, v)

    # reconcile the (<= 1e-9 relative) mass gap so the system is consistent
    scale = m1.mass / m2.mass if m2.mass > 0.0 else 1.0
    b = np.concatenate([np.asarray(m1.weights), scale * np.asarray(m2.weights)])

    flat = _transport_vertex(cost.ravel(), n1, n2, b)
    x = flat.reshape(n1, n2)
    floor = _DUST * max(m1.mass, 1.0)
    pairs = [
        (a1[i], a2[j], float(x[i, j]))
        for i in range(n1)
        for j in range(n2)
        if x[i, j] > floor
    ]
    total = float(np.dot(flat, cost.ravel()))
    return total, pairs


def _transport_vertex(c: np.ndarray, n1: int, n2: int, b: np.ndarray) -> np.ndarray:
    """HiGHS vertex minimizing c . x over x >= 0 with marginals b.

    Variable i*n2 + j is the mass moved from source i to target j; it enters
    row i (source marginal, b[i]) and row n1 + j (target marginal,
    b[n1 + j]).  The model goes straight to scipy's HiGHS binding with the
    options ``linprog(method="highs")`` sets, so the vertex is the one
    linprog returns, bit for bit; on these small problems linprog's own
    input checks cost several times the solve.  Where scipy lacks that
    binding, linprog solves the same CSC matrix.
    """
    nvar = n1 * n2
    k = np.arange(nvar)
    index = np.empty(2 * nvar, dtype=np.int32)
    index[0::2] = k // n2
    index[1::2] = n1 + k % n2
    start = np.arange(0, 2 * nvar + 1, 2, dtype=np.int32)
    hs = _highs_binding()
    if hs is None:
        from scipy.optimize import linprog
        from scipy.sparse import csc_array

        A = csc_array((np.ones(2 * nvar), index, start), shape=(n1 + n2, nvar))
        res = linprog(c, A_eq=A, b_eq=b, method="highs")
        if res.status != 0:
            raise NumericError(f"transport LP failed: {res.message}")
        return res.x

    lp = hs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = nvar
    lp.num_row_ = lp.a_matrix_.num_row_ = n1 + n2
    lp.a_matrix_.format_ = hs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = start
    lp.a_matrix_.index_ = index
    lp.a_matrix_.value_ = np.ones(2 * nvar)
    lp.col_cost_ = c
    lp.col_lower_ = np.zeros(nvar)
    lp.col_upper_ = np.full(nvar, hs.kHighsInf)
    lp.row_lower_ = lp.row_upper_ = b
    options = hs.HighsOptions()
    options.presolve = "on"
    options.output_flag = options.log_to_console = False
    options.highs_debug_level = hs.HighsDebugLevel.kHighsDebugLevelNone
    options.simplex_strategy = hs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    solver = hs._Highs()
    solver.passOptions(options)
    solver.passModel(lp)
    solver.run()
    status = solver.getModelStatus()
    if status != hs.HighsModelStatus.kOptimal:
        raise NumericError(
            f"transport LP failed: {solver.modelStatusToString(status)}"
        )
    return np.array(solver.getSolution().col_value)


def _highs_binding():
    """scipy's private HiGHS module, or None where this scipy has none."""
    try:
        from scipy.optimize._highspy import _core
    except ImportError:
        return None
    return _core
