"""Per-coordinate distance drift of an optimally coupled pair of jump measures.

For a pair of sites (x, y) carrying jump measures (m1, m2), the drift value
is

    W_d(m1 + m2(E) delta_x, m2 + m1(E) delta_y) - (m1(E) + m2(E)) d(x, y),

the best possible expected change of d(x, y) per unit time over couplings of
the two jump mechanisms.  Summed over coordinates (divided by N) it gives the
distance drift of the coupled system, and its negated supremum over pairs is
the contraction-rate lower bound computed in :mod:`jumpcurv.curvature`.

Besides the exact value this module provides three upper bounds: the
classical one-sided coupling bound, a closed form for densities under the
trivial metric, and a bound for kernels of the form
rate(x) * displacement-law(x).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .core import (
    FiniteMeasure,
    GroundMetric,
    MASS_RTOL,
    ValidationError,
    abs_first_moment,
)
from .transport import _cost, wasserstein


@dataclass(frozen=True)
class DriftResult:
    """Outcome of a drift evaluation.

    value          -- the drift (exact) or an upper bound on it; may be negative
    method         -- exact | classical_bound | density_closed_form | kernel_bound
    augmented_cost -- the transport-cost term before subtracting
                      (m1(E) + m2(E)) d(x, y); implied for the bound methods
    """

    value: float
    method: str
    augmented_cost: float


def augmented_pair(x, y, m1: FiniteMeasure, m2: FiniteMeasure):
    """The measures the drift transports: m1 + m2(E) delta_x and
    m2 + m1(E) delta_y (equal total mass m1(E) + m2(E))."""
    return m1.add_atom(x, m2.mass), m2.add_atom(y, m1.mass)


def drift_exact(
    x, y, m1: FiniteMeasure, m2: FiniteMeasure, g: GroundMetric
) -> DriftResult:
    """Exact drift value via one transport solve on the augmented measures.

    x = y is legal (the value is then W of the augmented measures, >= 0 is
    not implied; it is 0 when m1 = m2).  No clamping: genuinely negative
    values are the interesting ones.

    The augmented measures are never built: their weights are merged as
    :meth:`FiniteMeasure.add_atom` merges them and passed to the transport
    route :func:`wasserstein` takes on the measures of :func:`augmented_pair`,
    so the value is the same float on every metric.
    """
    w1 = _augmented_weights(m1, x, m2.mass)
    w2 = _augmented_weights(m2, y, m1.mass)
    cost = _cost(w1, w2, g)
    value = cost - (m1.mass + m2.mass) * g.dist(x, y)
    return DriftResult(value, "exact", cost)


def _augmented_weights(m: FiniteMeasure, site, weight: float) -> dict:
    """Atom -> weight map of m.add_atom(site, weight): the weight added to
    any atom already at site, an exact zero dropped (with non-negative
    weights only a zero weight at a new site sums to zero)."""
    weights = dict(zip(m.atoms, m.weights))
    merged = weights.get(site, 0.0) + weight
    if merged != 0.0:
        weights[site] = merged
    return weights


def drift_classical_bound(
    x, y, m1: FiniteMeasure, m2: FiniteMeasure, g: GroundMetric
) -> DriftResult:
    """One-sided bound: move the two mechanisms independently.

    value = int [d(u, y) - d(x, y)] m1(du) + int [d(x, v) - d(x, y)] m2(dv).
    Always >= the exact drift.
    """
    d_xy = g.dist(x, y)
    value = math.fsum(
        w * (g.dist(u, y) - d_xy) for u, w in zip(m1.atoms, m1.weights)
    ) + math.fsum(w * (g.dist(x, v) - d_xy) for v, w in zip(m2.atoms, m2.weights))
    return DriftResult(value, "classical_bound", value + (m1.mass + m2.mass) * d_xy)


def drift_density_closed_form(
    x,
    y,
    alpha_x: FiniteMeasure,
    alpha_y: FiniteMeasure,
    zeta: FiniteMeasure,
) -> DriftResult:
    """Closed form under the trivial metric for jump measures given by
    densities alpha(x, .), alpha(y, .) against a reference measure zeta:

    value = - int min(alpha(x, z), alpha(y, z)) zeta(dz)
            - alpha(y, x) zeta({x}) - alpha(x, y) zeta({y}).

    Diagonal density values alpha(x, x), alpha(y, y) must be zero; nonzero
    values are zeroed with a warning (a self-jump never moves the pair).
    Requires x != y.
    """
    if x == y:
        raise ValidationError("density closed form needs x != y")
    if alpha_x.weight_at(x) != 0.0 or alpha_y.weight_at(y) != 0.0:
        warnings.warn(
            "nonzero diagonal density ignored (self-jumps do not move the pair)",
            stacklevel=2,
        )
        alpha_x = _drop(alpha_x, x)
        alpha_y = _drop(alpha_y, y)
    overlap = math.fsum(
        min(alpha_x.weight_at(z), alpha_y.weight_at(z)) * w
        for z, w in zip(zeta.atoms, zeta.weights)
    )
    value = (
        -overlap
        - alpha_y.weight_at(x) * zeta.weight_at(x)
        - alpha_x.weight_at(y) * zeta.weight_at(y)
    )
    mass = _density_mass(alpha_x, zeta) + _density_mass(alpha_y, zeta)
    return DriftResult(value, "density_closed_form", value + mass)


def _drop(m: FiniteMeasure, site) -> FiniteMeasure:
    return FiniteMeasure(
        tuple(z for z in m.atoms if z != site),
        tuple(w for z, w in zip(m.atoms, m.weights) if z != site),
    )


def _density_mass(alpha: FiniteMeasure, zeta: FiniteMeasure) -> float:
    return math.fsum(
        alpha.weight_at(z) * w for z, w in zip(zeta.atoms, zeta.weights)
    )


def drift_kernel_bound(
    x,
    y,
    beta_x: float,
    beta_y: float,
    alpha_x: FiniteMeasure,
    alpha_y: FiniteMeasure,
    g: GroundMetric,
) -> DriftResult:
    """Bound for jump measures beta * alpha with alpha a probability law of
    displacements (atoms are real displacements, mass 1 to 1e-9):

    value = beta_small * W_d(alpha_big, alpha_small)
            + (beta_big - beta_small) * int |z| alpha_big(dz)

    where roles are swapped if needed so that beta_big >= beta_small; the
    swap is harmless because the drift functional is symmetric under
    exchanging (x, m1) with (y, m2).
    """
    for alpha in (alpha_x, alpha_y):
        if abs(alpha.mass - 1.0) > MASS_RTOL:
            raise ValidationError(
                f"displacement law must be a probability measure, mass {alpha.mass!r}"
            )
    if beta_x < 0.0 or beta_y < 0.0:
        raise ValidationError("jump rates must be non-negative")
    if beta_x < beta_y:
        beta_x, beta_y = beta_y, beta_x
        alpha_x, alpha_y = alpha_y, alpha_x
        x, y = y, x
    value = beta_y * wasserstein(alpha_x, alpha_y, g) + (
        beta_x - beta_y
    ) * abs_first_moment(alpha_x)
    return DriftResult(
        value, "kernel_bound", value + (beta_x + beta_y) * g.dist(x, y)
    )
