"""Model families: kernels, closed-form contraction bounds, spectral helpers.

Each family is described by a frozen spec dataclass; ``build_kernel`` turns a
spec into a :class:`jumpcurv.curvature.JumpKernel` for the enumeration
engines and the simulators, and the per-family ``*_bound`` functions evaluate
the matching closed-form contraction bounds.  Everything that feeds a
certified number is a finite formula; estimators over samples are marked
non-certified.

Families
--------
birth_death     nearest-neighbour chain on {0..K} with gap-weight metric
modified_bd     births jump +2, deaths -1
agents          N agents on a complete graph, uniform exploration T plus an
                occupation-fraction preference f
zero_range      site-indexed rates times a routing matrix P
fleming_viot    mutation kernel plus resampling from the empirical measure
mean_field_bd   birth-death rates perturbed by configuration-dependent terms
kernel_system   rate(x) * displacement-law(x) families (exponential,
                gaussian, discrete), closed-form bounds only
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import (
    Config,
    FiniteMeasure,
    GroundMetric,
    NumericError,
    ValidationError,
    abs_first_moment,
    config_distance,
)
from .curvature import DEFAULT_TRUNCATION_MARGIN, JumpKernel, SingleSiteKernel
from .drift import drift_exact
from .transport import wasserstein

#: grid used to scan preference profiles for thresholds and as the fallback
#: Lipschitz grid when no exact constant is supplied
PROFILE_GRID = 10001


@dataclass(frozen=True)
class InfSum(object):
    """Minimum of sum_x f(mu(x)) over probability vectors, with provenance."""

    value: float
    method: str  # closed_form | multistart


@dataclass(frozen=True)
class ModelBound:
    """A contraction bound whose inputs may be supplied or estimated."""

    value: float
    certified: bool
    method: str
    details: dict


# ---------------------------------------------------------------------------
# birth-death chains
# ---------------------------------------------------------------------------


def _check_rates(name: str, rates: Sequence[float], length: int) -> tuple:
    rates = tuple(float(r) for r in rates)
    if len(rates) != length:
        raise ValidationError(f"{name} must have length {length}, got {len(rates)}")
    if any(r < 0.0 for r in rates):
        raise ValidationError(f"{name} has a negative entry")
    return rates


@dataclass(frozen=True)
class BirthDeathSpec:
    """Rates b_x (up), d_x (down) on sites 0..K with d_0 = 0, and positive
    gap weights u_0..u_{K-1} defining the line metric."""

    b: tuple
    d: tuple
    u: tuple
    K: int

    def __post_init__(self):
        if self.K < 2:
            raise ValidationError("birth_death needs K >= 2")
        object.__setattr__(self, "b", _check_rates("b", self.b, self.K + 1))
        object.__setattr__(self, "d", _check_rates("d", self.d, self.K + 1))
        object.__setattr__(self, "u", tuple(float(w) for w in self.u))
        if len(self.u) != self.K:
            raise ValidationError(f"u must have length K={self.K}")
        if any(w <= 0.0 for w in self.u):
            raise ValidationError("gap weights must be positive")
        if self.d[0] != 0.0:
            raise ValidationError("d_0 must be 0")


@dataclass(frozen=True)
class ModifiedBDSpec(BirthDeathSpec):
    """Same data as BirthDeathSpec but births move +2."""

    def __post_init__(self):
        super().__post_init__()
        if self.K < 3:
            raise ValidationError("modified_bd needs K >= 3")


def bd_metric(spec: BirthDeathSpec) -> GroundMetric:
    return GroundMetric.weighted_line(spec.u)


def bd_interior(
    spec: BirthDeathSpec, margin: int = DEFAULT_TRUNCATION_MARGIN
) -> tuple:
    """Sites at least ``margin`` below the truncation edge K."""
    top = spec.K - margin
    if top < 1:
        raise ValidationError(f"margin {margin} leaves no interior for K={spec.K}")
    return tuple(range(top + 1))


def bd_bound(spec: BirthDeathSpec) -> float:
    """inf_x  b_x + d_{x+1} - d_x u_{x-1}/u_x - b_{x+1} u_{x+1}/u_x
    over x = 0..K-2, with u_{-1} = 0.  Exact for nearest-neighbour chains."""
    b, d, u = spec.b, spec.d, spec.u
    terms = []
    for x in range(spec.K - 1):
        um1 = u[x - 1] if x >= 1 else 0.0
        terms.append(b[x] + d[x + 1] - d[x] * um1 / u[x] - b[x + 1] * u[x + 1] / u[x])
    return min(terms)


def modified_bd_bound(spec: ModifiedBDSpec, coupling: str = "optimal") -> float:
    """inf_x  b_x + d_{x+1} - d_x u_{x-1}/u_x - |b_{x+1} - b_x| u_{x+1}/u_x
    - b_{x+1} u_{x+2}/u_x  over the truncation interior x = 0..K-3.

    coupling="classical" replaces |b_{x+1} - b_x| by b_x + b_{x+1} (the
    one-sided coupling); its value is never above the optimal one.
    """
    if coupling not in ("optimal", "classical"):
        raise ValidationError(f"unknown coupling {coupling!r}")
    b, d, u = spec.b, spec.d, spec.u
    terms = []
    for x in range(spec.K - 2):
        um1 = u[x - 1] if x >= 1 else 0.0
        mid = abs(b[x + 1] - b[x]) if coupling == "optimal" else b[x] + b[x + 1]
        terms.append(
            b[x]
            + d[x + 1]
            - d[x] * um1 / u[x]
            - mid * u[x + 1] / u[x]
            - b[x + 1] * u[x + 2] / u[x]
        )
    return min(terms)


def _bd_measures(spec: BirthDeathSpec, step_up: int) -> dict:
    out = {}
    for x in range(spec.K + 1):
        atoms = []
        weights = []
        if x >= 1 and spec.d[x] > 0.0:
            atoms.append(x - 1)
            weights.append(spec.d[x])
        if x + step_up <= spec.K and spec.b[x] > 0.0:
            atoms.append(x + step_up)
            weights.append(spec.b[x])
        out[x] = FiniteMeasure(atoms, weights)
    return out


# ---------------------------------------------------------------------------
# agents on a complete graph
# ---------------------------------------------------------------------------


class ZeroPreference:
    def __call__(self, z: float) -> float:
        return 0.0


class AffinePreference:
    def __init__(self, slope: float, offset: float):
        self.slope = float(slope)
        self.offset = float(offset)

    def __call__(self, z: float) -> float:
        return self.slope * z + self.offset


class QuadraticPreference:
    def __call__(self, z: float) -> float:
        return z * z


class PowerPreference:
    def __init__(self, exponent: float):
        if exponent < 1.0:
            raise ValidationError("power preference needs exponent >= 1")
        self.exponent = float(exponent)

    def __call__(self, z: float) -> float:
        return z ** self.exponent


@dataclass(frozen=True)
class AgentsSpec:
    """N agents on the complete graph over n_sites sites (trivial metric).

    Each agent re-samples its site at rate temperature/n_sites + f(fraction
    of agents at the destination).  ``f_lip`` may carry the exact Lipschitz
    constant of f on [0, 1]; when absent the discrete constant over the
    occupation grid {k/N} is used.
    """

    n_sites: int
    temperature: float
    f: Callable[[float], float]
    n_particles: int
    monotone: bool = False
    convex: bool = False
    f_lip: float | None = None

    def __post_init__(self):
        if self.n_sites < 2:
            raise ValidationError("agents needs at least 2 sites")
        if self.n_particles < 1:
            raise ValidationError("agents needs at least 1 particle")
        if self.temperature < 0.0:
            raise ValidationError("temperature must be non-negative")


class AgentsKernel(JumpKernel):
    def __init__(self, spec: AgentsSpec):
        self.spec = spec
        self.sites = tuple(range(spec.n_sites))

    def rate(self, i: int, config: Config) -> FiniteMeasure:
        spec = self.spec
        n = len(config)
        counts = Counter(config)
        base = spec.temperature / spec.n_sites
        return FiniteMeasure(
            self.sites, tuple(base + spec.f(counts.get(y, 0) / n) for y in self.sites)
        )


def lipschitz_estimate(
    f: Callable[[float], float], grid: Sequence[float]
) -> float:
    """Largest slope between consecutive grid points (equals the discrete
    Lipschitz constant over the grid)."""
    pts = sorted(set(float(z) for z in grid))
    if len(pts) < 2:
        raise ValidationError("need at least two grid points")
    vals = [f(z) for z in pts]
    return max(
        abs(v1 - v0) / (z1 - z0)
        for (z0, v0), (z1, v1) in zip(zip(pts, vals), zip(pts[1:], vals[1:]))
    )


def min_total_preference(
    f: Callable[[float], float], n_sites: int, convex: bool, seed: int = 0
) -> InfSum:
    """inf over probability vectors mu of sum_x f(mu(x)).

    Convex f attains the minimum at the uniform vector (closed form);
    otherwise a multistart projected minimization over the simplex is run
    and tagged as such.
    """
    if convex:
        return InfSum(n_sites * f(1.0 / n_sites), "closed_form")
    from scipy.optimize import minimize

    def objective(mu):
        return math.fsum(f(max(z, 0.0)) for z in mu)

    rng = np.random.Generator(np.random.Philox(key=seed))
    starts = [np.full(n_sites, 1.0 / n_sites)]
    for i in range(n_sites):
        e = np.zeros(n_sites)
        e[i] = 1.0
        starts.append(e)
    starts.extend(rng.dirichlet(np.ones(n_sites)) for _ in range(8))

    best = math.inf
    constraints = ({"type": "eq", "fun": lambda mu: np.sum(mu) - 1.0},)
    bounds = [(0.0, 1.0)] * n_sites
    for x0 in starts:
        res = minimize(
            objective, x0, method="SLSQP", bounds=bounds, constraints=constraints
        )
        if res.success and res.fun < best:
            best = float(res.fun)
    if not math.isfinite(best):
        raise NumericError("simplex minimization failed from every start")
    return InfSum(best, "multistart")


def agents_bound(spec: AgentsSpec) -> float:
    """temperature - (1 if monotone else 2) * ||f||_Lip + inf_mu sum f(mu)."""
    if spec.f_lip is not None:
        lip = spec.f_lip
    else:
        grid = [k / spec.n_particles for k in range(spec.n_particles + 1)]
        lip = lipschitz_estimate(spec.f, grid)
    factor = 1.0 if spec.monotone else 2.0
    floor = min_total_preference(spec.f, spec.n_sites, spec.convex)
    return spec.temperature - factor * lip + floor.value


@dataclass(frozen=True)
class HerdThreshold:
    """Metastability threshold of the agents model.

    z_star maximizes f(z) - z (f(z) + f(1-z)) over [1/2, 1]; m_star is the
    maximum; herding persists below t_critical = m_star n / (z_star n - 1).
    """

    z_star: float
    m_star: float
    t_critical: float


def _golden_max(fn, lo: float, hi: float, tol: float):
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(d)
    z = 0.5 * (a + b)
    return z, fn(z)


def herd_threshold(
    f: Callable[[float], float], n_sites: int, tol: float = 1e-10
) -> HerdThreshold:
    """Scan [1/2, 1] on a dense grid, refine the peak by golden section."""
    if f(0.0) != 0.0:
        warnings.warn("herding analysis expects f(0) = 0", stacklevel=2)

    def gain(z: float) -> float:
        return f(z) - z * (f(z) + f(1.0 - z))

    zs = np.linspace(0.5, 1.0, PROFILE_GRID)
    vals = [gain(float(z)) for z in zs]
    fvals = [f(float(z)) for z in np.linspace(0.0, 1.0, PROFILE_GRID)]
    second = np.diff(fvals, 2)
    if np.any(second < -1e-9 * max(1.0, float(np.max(np.abs(fvals))))):
        warnings.warn("f does not look convex on [0, 1]", stacklevel=2)

    k = int(np.argmax(vals))
    lo = float(zs[max(k - 1, 0)])
    hi = float(zs[min(k + 1, len(zs) - 1)])
    z_star, m_star = _golden_max(gain, lo, hi, tol)

    # the gain is numerically flat within ~sqrt(eps) of an interior max, so a
    # value-based search stalls around 1e-8; refining the critical point of
    # the central-difference derivative recovers the location to ~1e-11
    h = 1e-6
    a = max(z_star - 1e-4, 0.5)
    b = min(z_star + 1e-4, 1.0 - h)

    def slope(z: float) -> float:
        return (gain(z + h) - gain(z - h)) / (2.0 * h)

    if a < b and slope(a) > 0.0 > slope(b):
        from scipy.optimize import brentq

        z_star = float(brentq(slope, a, b, xtol=1e-13))
        m_star = gain(z_star)
    if m_star <= 0.0:
        raise ValidationError(
            f"no herding regime: max of f(z) - z(f(z) + f(1-z)) is {m_star!r} <= 0"
        )
    denom = z_star * n_sites - 1.0
    if denom <= 0.0:
        raise ValidationError("threshold undefined: z_star * n_sites <= 1")
    return HerdThreshold(z_star, m_star, m_star * n_sites / denom)


# ---------------------------------------------------------------------------
# routing-matrix curvature
# ---------------------------------------------------------------------------


def discrete_curvature(P, g: GroundMetric):
    """Per-pair curvature of a routing matrix: theta(x, y) = 1 - W(P_x, P_y)/d(x, y).

    Returns (theta matrix with nan diagonal, inf over ordered pairs).
    Rows are indexed by g.sites and must sum to 1 within 1e-9.
    """
    sites = g.require_sites()
    P = np.asarray(P, dtype=float)
    n = len(sites)
    if P.shape != (n, n):
        raise ValidationError(f"routing matrix shape {P.shape}, expected {(n, n)}")
    if np.any(P < 0.0):
        raise ValidationError("routing matrix has negative entries")
    if np.any(np.abs(P.sum(axis=1) - 1.0) > 1e-9):
        raise ValidationError("routing matrix rows must sum to 1")
    rows = [FiniteMeasure(sites, P[i]) for i in range(n)]
    theta = np.full((n, n), math.nan)
    theta_star = math.inf
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            dist = g.dist(sites[i], sites[j])
            if dist == 0.0:
                continue
            theta[i, j] = 1.0 - wasserstein(rows[i], rows[j], g) / dist
            theta_star = min(theta_star, theta[i, j])
    if not math.isfinite(theta_star):
        raise ValidationError("no site pair with positive distance")
    return theta, float(theta_star)


# ---------------------------------------------------------------------------
# zero range
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ZeroRangeSpec:
    """Particles at site x jump through row P_x at a rate depending either on
    the whole configuration (``rate``) or on the occupation number of x
    (``zr_rate``)."""

    sites: tuple
    P: np.ndarray
    n_particles: int
    rate: Callable[[object, Config], float] | None = None
    zr_rate: Callable[[object, int], float] | None = None

    def __post_init__(self):
        if self.rate is None and self.zr_rate is None:
            raise ValidationError("zero_range needs rate or zr_rate")
        if self.n_particles < 1:
            raise ValidationError("zero_range needs n_particles >= 1")


class ZeroRangeKernel(JumpKernel):
    def __init__(self, spec: ZeroRangeSpec):
        self.spec = spec
        self.sites = tuple(spec.sites)
        self._index = {s: i for i, s in enumerate(self.sites)}

    def rate(self, i: int, config: Config) -> FiniteMeasure:
        spec = self.spec
        x = config[i]
        if spec.rate is not None:
            c = spec.rate(x, config)
        else:
            c = spec.zr_rate(x, sum(1 for z in config if z == x))
        if c < 0.0:
            raise ValidationError(f"negative jump rate at site {x!r}")
        row = spec.P[self._index[x]]
        return FiniteMeasure(self.sites, tuple(c * p for p in row))


def zero_range_bound(
    spec: ZeroRangeSpec,
    g: GroundMetric,
    mode: str = "general",
    configs: Sequence[Config] | None = None,
    exhaustive: bool = False,
) -> ModelBound:
    """Closed-form contraction bound for zero-range dynamics (trivial metric).

    general mode (rate = c_x(config), scanned over ``configs``):
        inf_{x != y} theta(x, y) min(c_x, c_y)  -  sup_x (1 - P_xx) Lip(c_x)
    where Lip(c_x) runs over scanned configuration pairs both containing x.
    Certified only when ``exhaustive`` declares the scan complete.

    zr mode (rate = c_x(occupancy), occupancies 1..N):
        inf theta(x, y) min over occupancies  -
        2 sup_{x, n, m} (1 - P_xx) (n/m) |c_x(n) - c_x(n+m)|
    """
    if g.kind != "trivial":
        raise ValidationError("zero_range bounds assume the trivial metric")
    sites = g.require_sites()
    theta, _ = discrete_curvature(spec.P, g)
    index = {s: i for i, s in enumerate(sites)}

    if mode == "general":
        if spec.rate is None:
            raise ValidationError("general mode needs the configuration rate")
        if not configs:
            raise ValidationError("general mode needs a configuration scan")
        cmin: dict = {}
        by_site: dict = {}
        for cfg in configs:
            for x in set(cfg):
                c = spec.rate(x, cfg)
                cmin[x] = min(cmin.get(x, math.inf), c)
                by_site.setdefault(x, []).append((cfg, c))
        lip_term = 0.0
        for x, entries in by_site.items():
            lip = 0.0
            for a in range(len(entries)):
                for b in range(a + 1, len(entries)):
                    dist = config_distance(entries[a][0], entries[b][0], g)
                    if dist > 0.0:
                        lip = max(lip, abs(entries[a][1] - entries[b][1]) / dist)
            lip_term = max(lip_term, (1.0 - spec.P[index[x], index[x]]) * lip)
        pairs = [
            theta[index[x], index[y]] * min(cmin[x], cmin[y])
            for x in cmin
            for y in cmin
            if x != y and not math.isnan(theta[index[x], index[y]])
        ]
        if not pairs:
            raise ValidationError("scan produced no usable site pair")
        value = min(pairs) - lip_term
        return ModelBound(
            value,
            certified=bool(exhaustive),
            method="config_scan",
            details={"configs_scanned": len(configs), "lip_term": lip_term},
        )

    if mode == "zr":
        if spec.zr_rate is None:
            raise ValidationError("zr mode needs the occupancy rate")
        N = spec.n_particles
        occ = range(1, N + 1)
        czr_min = {x: min(spec.zr_rate(x, n) for n in occ) for x in sites}
        front = min(
            theta[index[x], index[y]] * min(czr_min[x], czr_min[y])
            for x in sites
            for y in sites
            if x != y and not math.isnan(theta[index[x], index[y]])
        )
        lip_term = 0.0
        for x in sites:
            off = 1.0 - spec.P[index[x], index[x]]
            for n in occ:
                cn = spec.zr_rate(x, n)
                for m in occ:
                    lip_term = max(
                        lip_term,
                        off * (n / m) * abs(cn - spec.zr_rate(x, n + m)),
                    )
        value = front - 2.0 * lip_term
        return ModelBound(
            value,
            certified=True,
            method="occupancy_scan",
            details={"n_particles": N, "lip_term": lip_term},
        )

    raise ValidationError(f"unknown zero_range mode {mode!r}")


# ---------------------------------------------------------------------------
# Fleming-Viot
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FlemingViotSpec:
    """Mutation kernel q plus resampling: a particle at x additionally jumps,
    at rate beta(x), to a site drawn from the empirical measure routed
    through P (P = None means resampling straight from the empirical
    measure)."""

    sites: tuple
    q: Mapping
    beta: Mapping
    P: np.ndarray | None = None
    d_inf: float | None = None


class FlemingViotKernel(JumpKernel):
    def __init__(self, spec: FlemingViotSpec):
        self.spec = spec
        self.sites = tuple(spec.sites)
        self._index = {s: i for i, s in enumerate(self.sites)}

    def rate(self, i: int, config: Config) -> FiniteMeasure:
        spec = self.spec
        x = config[i]
        beta = float(spec.beta[x])
        n = len(config)
        if beta == 0.0:
            return spec.q[x]
        if spec.P is None:
            extra = FiniteMeasure(config, (beta / n,) * n)
        else:
            acc: dict = {}
            for z in config:
                row = spec.P[self._index[z]]
                for s, p in zip(self.sites, row):
                    if p != 0.0:
                        acc[s] = acc.get(s, 0.0) + beta * p / n
            extra = FiniteMeasure.from_dict(acc)
        return spec.q[x] + extra


def fv_bound(spec: FlemingViotSpec, g: GroundMetric) -> float:
    """Contraction bound for the resampling system:

    -(1 - theta*) max beta
    - sup_{x != y} [ drift(q_x, q_y)/d + |beta(x) - beta(y)| d_inf / d
                     - max(beta(x), beta(y)) ].

    theta* is the routing-matrix curvature (0 when P is the identity /
    absent), d_inf the diameter of the site set unless overridden.
    """
    sites = g.require_sites()
    n = len(sites)
    P = np.eye(n) if spec.P is None else spec.P
    _, theta_star = discrete_curvature(P, g)
    d_inf = g.max_distance() if spec.d_inf is None else float(spec.d_inf)
    beta_inf = max(float(spec.beta[x]) for x in sites)
    worst = -math.inf
    for x in sites:
        for y in sites:
            if x == y:
                continue
            dist = g.dist(x, y)
            if dist == 0.0:
                continue
            term = (
                drift_exact(x, y, spec.q[x], spec.q[y], g).value / dist
                + abs(float(spec.beta[x]) - float(spec.beta[y])) * d_inf / dist
                - max(float(spec.beta[x]), float(spec.beta[y]))
            )
            worst = max(worst, term)
    if not math.isfinite(worst):
        raise ValidationError("no site pair with positive distance")
    return -(1.0 - theta_star) * beta_inf - worst


def fv_eigen_bound(
    b: Sequence[float],
    d: Sequence[float],
    K: int,
    resample_rate: float,
    theta_p: float = 0.0,
) -> float:
    """Bound for resampling-from-zero on a birth-death mutation chain, using
    the eigenpair of the chain killed at 0:

        resample_rate * (theta_p - max eta / eta(1)) + lambda_0.

    The gap weights of the matching metric are eta(k+1) - eta(k).
    """
    pair = bd_eigen(b, d, K)
    eta_max = pair.eta[-1]
    return resample_rate * (theta_p - eta_max / pair.eta[0]) + pair.lam


# ---------------------------------------------------------------------------
# killed-chain eigenpairs and the comes-down criterion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EigenPair:
    """Principal eigenpair of the birth-death generator killed at 0,
    truncated to {1..K} with the birth rate dropped at K.

    eta solves  b_x (eta(x+1) - eta(x)) + d_x (eta(x-1) - eta(x)) =
    -lam eta(x)  with eta(0) = 0, normalized eta(1) = 1, strictly
    increasing; residual is the max violation of that relation."""

    lam: float
    eta: tuple
    residual: float
    K: int


def bd_eigen(
    b: Sequence[float],
    d: Sequence[float],
    K: int,
    rtol: float = 1e-8,
    max_iter: int = 10000,
) -> EigenPair:
    """Inverse iteration on the killed tridiagonal generator.

    The negated generator A on {1..K} has diagonal b_x + d_x (d_K alone at
    x = K), off-diagonals -b_x and -d_x; the smallest eigenvalue of A is the
    decay rate and its positive eigenvector is eta.
    """
    from scipy.linalg import solve_banded

    b = tuple(float(r) for r in b)
    d = tuple(float(r) for r in d)
    if len(b) < K + 1 or len(d) < K + 1:
        raise ValidationError(f"need rates up to index K={K}")
    if any(r < 0.0 for r in b) or any(r < 0.0 for r in d):
        raise ValidationError("rates must be non-negative")
    if any(d[x] <= 0.0 for x in range(1, K + 1)):
        raise ValidationError("death rates must be positive on 1..K")

    diag = np.array(
        [b[x] + d[x] for x in range(1, K)] + [d[K]], dtype=float
    )
    upper = np.array([-b[x] for x in range(1, K)], dtype=float)
    lower = np.array([-d[x] for x in range(2, K + 1)], dtype=float)
    ab = np.zeros((3, K))
    ab[0, 1:] = upper
    ab[1, :] = diag
    ab[2, :-1] = lower

    def apply_a(v):
        out = diag * v
        out[:-1] += upper * v[1:]
        out[1:] += lower * v[:-1]
        return out

    v = np.ones(K)
    v /= np.linalg.norm(v)
    lam = float("nan")
    for _ in range(max_iter):
        w = solve_banded((1, 1), ab, v)
        w /= np.linalg.norm(w)
        lam = float(w @ apply_a(w))
        eta = w / w[0]
        resid = float(np.max(np.abs(apply_a(eta) - lam * eta)))
        if resid <= rtol * float(np.max(np.abs(eta))):
            break
        v = w
    else:
        raise NumericError(
            f"inverse iteration did not reach residual {rtol} in {max_iter} steps"
        )
    if lam <= 0.0:
        raise NumericError(f"nonpositive decay rate {lam}")
    if np.any(np.diff(eta) <= 0.0):
        raise NumericError("killed-chain eigenvector is not strictly increasing")
    return EigenPair(lam=lam, eta=tuple(float(z) for z in eta), residual=resid, K=K)


@dataclass(frozen=True)
class ComesDownSeries:
    """Partial sums of the comes-down-from-infinity series

        sum_k (1 / (d_k a_k)) sum_{l >= k} a_l,
        a_k = (b_1 ... b_{k-1}) / (d_1 ... d_k),

    truncated at K.  ``converged`` is a truncation-level diagnostic, not a
    proof: increments count as vanishing when the last one has dropped below
    rtol relative to the first (the last increment always equals 1/d_K, so a
    threshold relative to the partial sum cannot separate divergent series,
    whose partial sums grow as fast as the increments)."""

    terms: tuple
    partial_sums: tuple
    last_increment: float
    converged: bool
    rtol: float


def comes_down_series(
    b: Sequence[float], d: Sequence[float], K: int, rtol: float = 1e-3
) -> ComesDownSeries:
    """Evaluate the truncated series in log space (products of rates can
    overflow long before the series itself diverges)."""
    from scipy.special import logsumexp

    b = tuple(float(r) for r in b)
    d = tuple(float(r) for r in d)
    if len(b) < K + 1 or len(d) < K + 1:
        raise ValidationError(f"need rates up to index K={K}")
    if any(d[x] <= 0.0 for x in range(1, K + 1)):
        raise ValidationError("death rates must be positive on 1..K")

    log_alpha = np.full(K + 1, -math.inf)
    log_alpha[1] = -math.log(d[1])
    for k in range(2, K + 1):
        if b[k - 1] <= 0.0 or log_alpha[k - 1] == -math.inf:
            break
        log_alpha[k] = log_alpha[k - 1] + math.log(b[k - 1]) - math.log(d[k])

    terms = np.zeros(K + 1)
    for k in range(1, K + 1):
        if log_alpha[k] == -math.inf:
            continue
        log_tail = logsumexp(log_alpha[k : K + 1])
        terms[k] = math.exp(log_tail - math.log(d[k]) - log_alpha[k])
    partial = np.cumsum(terms[1:])
    last = float(terms[K])
    first = float(terms[1])
    return ComesDownSeries(
        terms=tuple(float(t) for t in terms[1:]),
        partial_sums=tuple(float(s) for s in partial),
        last_increment=last,
        converged=last <= rtol * max(first, 1.0),
        rtol=rtol,
    )


# ---------------------------------------------------------------------------
# mean-field perturbed birth-death
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MeanFieldBDSpec:
    """Birth-death rates b_x, d_x perturbed by configuration-dependent
    extras q_plus / q_minus, on sites 0..K with |x - y| distance.  The
    constants (a, b) certify

        [d + q_- - b - q_+](x, cx) - [d + q_- - b - q_+](y, cy)
            <= a (y - x) + b d(cx, cy)          for x < y, and
        |q_-(x, cx) - q_-(x, cy)| + |q_+(x, cx) - q_+(x, cy)|
            <= b d(cx, cy)                      for equal sites,

    yielding the contraction bound -(a + b)."""

    b: tuple
    d: tuple
    K: int
    q_plus: Callable[[int, Config], float]
    q_minus: Callable[[int, Config], float]
    a_const: float
    b_const: float

    def __post_init__(self):
        if self.K < 2:
            raise ValidationError("mean_field_bd needs K >= 2")
        object.__setattr__(self, "b", _check_rates("b", self.b, self.K + 1))
        object.__setattr__(self, "d", _check_rates("d", self.d, self.K + 1))
        if self.d[0] != 0.0:
            raise ValidationError("d_0 must be 0")


class MeanFieldBDKernel(JumpKernel):
    def __init__(self, spec: MeanFieldBDSpec):
        self.spec = spec
        self.sites = tuple(range(spec.K + 1))

    def rate(self, i: int, config: Config) -> FiniteMeasure:
        spec = self.spec
        x = config[i]
        atoms = []
        weights = []
        if x >= 1:
            atoms.append(x - 1)
            weights.append(spec.d[x] + spec.q_minus(x, config))
        if x < spec.K:
            atoms.append(x + 1)
            weights.append(spec.b[x] + spec.q_plus(x, config))
        return FiniteMeasure(atoms, weights)


def mean_field_bd_bound(
    spec: MeanFieldBDSpec, sample_pairs: Sequence[tuple], slack: float = 1e-9
) -> float:
    """Validate the certifying inequalities on the sampled configuration
    pairs and return -(a + b).  Any violation rejects the constants."""
    g = GroundMetric.weighted_line([1.0] * spec.K)

    def gap(x: int, cfg: Config) -> float:
        down = spec.d[x] + (spec.q_minus(x, cfg) if x >= 1 else 0.0)
        up = spec.b[x] + spec.q_plus(x, cfg)
        return down - up

    for cx, cy in sample_pairs:
        dist = config_distance(cx, cy, g)
        for i in range(len(cx)):
            if cx[i] == cy[i]:
                x = cx[i]
                drift_gap = abs(
                    spec.q_minus(x, cx) - spec.q_minus(x, cy)
                ) + abs(spec.q_plus(x, cx) - spec.q_plus(x, cy))
                if drift_gap > spec.b_const * dist + slack:
                    raise ValidationError(
                        f"equal-site inequality fails at site {x}: "
                        f"{drift_gap} > {spec.b_const * dist}"
                    )
            else:
                if cx[i] < cy[i]:
                    x, cfg_x, y, cfg_y = cx[i], cx, cy[i], cy
                else:
                    x, cfg_x, y, cfg_y = cy[i], cy, cx[i], cx
                lhs = gap(x, cfg_x) - gap(y, cfg_y)
                rhs = spec.a_const * (y - x) + spec.b_const * dist
                if lhs > rhs + slack:
                    raise ValidationError(
                        f"ordered-pair inequality fails at ({x}, {y}): {lhs} > {rhs}"
                    )
    return -(spec.a_const + spec.b_const)


# ---------------------------------------------------------------------------
# displacement-kernel families
# ---------------------------------------------------------------------------


def _sample_distance(p, q, g: GroundMetric) -> float:
    (x1, cfg1), (x2, cfg2) = p, q
    dist = g.dist(x1, x2)
    if cfg1 is not None and cfg2 is not None:
        dist += config_distance(cfg1, cfg2, g)
    return dist


def kernel_family_bound(
    family: str,
    constants: Mapping[str, float] | None = None,
    sample: Sequence | None = None,
    g: GroundMetric | None = None,
    support_halfwidth: int | None = None,
) -> ModelBound:
    """Closed-form bounds for jump mechanisms rate(x) * displacement-law(x).

    family="exponential"  (law Exp(lambda_x), beta and 1/lambda anti-monotone)
        value = -2 ||beta/lambda||_Lip
        constants: beta_over_lambda_lip
        sample entries: (x, config, beta, lambda)

    family="gaussian"     (diagonal covariances only)
        value = -2 ||beta||_inf ||sqrt(Sigma)||_Lip
                - 2 ||beta||_Lip sup sqrt(sum_i Sigma_ii^2)
        constants: beta_inf, beta_lip, sqrt_sigma_lip, sigma_row_norm_inf
        sample entries: (x, config, beta, sigma_diagonal)

    family="discrete"     (laws on {-n..n}, n = support_halfwidth)
        value = -2 ||beta||_inf ||alpha||_Lip - 2 ||beta||_Lip sup |moment|
        with the measure norm sum_k (n - k) |mu(k)|
        constants: beta_inf, beta_lip, alpha_lip, alpha_moment_inf
        sample entries: (x, config, beta, alpha: FiniteMeasure)

    Supplied constants give a certified value; estimating them over a sample
    (pair distances are d(x, y) + mean coordinate distance) is non-certified.
    """
    if constants is not None:
        c = dict(constants)
        try:
            if family == "exponential":
                value = -2.0 * c["beta_over_lambda_lip"]
            elif family == "gaussian":
                value = (
                    -2.0 * c["beta_inf"] * c["sqrt_sigma_lip"]
                    - 2.0 * c["beta_lip"] * c["sigma_row_norm_inf"]
                )
            elif family == "discrete":
                value = (
                    -2.0 * c["beta_inf"] * c["alpha_lip"]
                    - 2.0 * c["beta_lip"] * c["alpha_moment_inf"]
                )
            else:
                raise ValidationError(f"unknown kernel family {family!r}")
        except KeyError as exc:
            raise ValidationError(f"missing constant {exc.args[0]!r}") from None
        return ModelBound(value, certified=True, method="supplied", details=c)

    if not sample or g is None:
        raise ValidationError("need either constants or (sample, g)")

    if family == "exponential":
        points = [((x, cfg), beta, lam) for x, cfg, beta, lam in sample]
        for _, beta, lam in points:
            if lam <= 0.0 or beta < 0.0:
                raise ValidationError("need lambda > 0 and beta >= 0")
        lip = 0.0
        for a in range(len(points)):
            for b_ in range(a + 1, len(points)):
                (p, bp, lp), (q, bq, lq) = points[a], points[b_]
                if (bp - bq) * (lp - lq) > 1e-12:
                    raise ValidationError(
                        "beta and lambda must be anti-monotone on the sample"
                    )
                dist = _sample_distance(p, q, g)
                if dist > 0.0:
                    lip = max(lip, abs(bp / lp - bq / lq) / dist)
        value = -2.0 * lip
        est = {"beta_over_lambda_lip": lip}

    elif family == "gaussian":
        points = [((x, cfg), beta, np.asarray(sig, dtype=float)) for x, cfg, beta, sig in sample]
        for _, beta, sig in points:
            if np.any(sig < 0.0) or beta < 0.0:
                raise ValidationError("need nonnegative beta and variances")
        beta_inf = max(beta for _, beta, _ in points)
        row_norm = max(float(np.sqrt(np.sum(sig**2))) for _, _, sig in points)
        beta_lip = 0.0
        sqrt_lip = 0.0
        for a in range(len(points)):
            for b_ in range(a + 1, len(points)):
                (p, bp, sp), (q, bq, sq) = points[a], points[b_]
                dist = _sample_distance(p, q, g)
                if dist > 0.0:
                    beta_lip = max(beta_lip, abs(bp - bq) / dist)
                    frob = float(np.sqrt(np.sum((np.sqrt(sp) - np.sqrt(sq)) ** 2)))
                    sqrt_lip = max(sqrt_lip, frob / dist)
        value = -2.0 * beta_inf * sqrt_lip - 2.0 * beta_lip * row_norm
        est = {
            "beta_inf": beta_inf,
            "beta_lip": beta_lip,
            "sqrt_sigma_lip": sqrt_lip,
            "sigma_row_norm_inf": row_norm,
        }

    elif family == "discrete":
        if support_halfwidth is None:
            raise ValidationError("discrete family needs support_halfwidth")
        n = int(support_halfwidth)
        points = []
        for x, cfg, beta, alpha in sample:
            if abs(alpha.mass - 1.0) > 1e-9:
                raise ValidationError("displacement laws must have mass 1")
            for z in alpha.atoms:
                if not (isinstance(z, (int, np.integer)) and -n <= z <= n):
                    raise ValidationError(
                        f"displacement {z!r} outside {{-{n}..{n}}}"
                    )
            points.append(((x, cfg), float(beta), alpha))
        beta_inf = max(beta for _, beta, _ in points)
        moment = max(abs_first_moment(alpha) for _, _, alpha in points)
        beta_lip = 0.0
        alpha_lip = 0.0
        for a in range(len(points)):
            for b_ in range(a + 1, len(points)):
                (p, bp, ap), (q, bq, aq) = points[a], points[b_]
                dist = _sample_distance(p, q, g)
                if dist > 0.0:
                    beta_lip = max(beta_lip, abs(bp - bq) / dist)
                    norm = math.fsum(
                        (n - k) * abs(ap.weight_at(k) - aq.weight_at(k))
                        for k in range(-n, n + 1)
                    )
                    alpha_lip = max(alpha_lip, norm / dist)
        value = -2.0 * beta_inf * alpha_lip - 2.0 * beta_lip * moment
        est = {
            "beta_inf": beta_inf,
            "beta_lip": beta_lip,
            "alpha_lip": alpha_lip,
            "alpha_moment_inf": moment,
        }

    else:
        raise ValidationError(f"unknown kernel family {family!r}")

    return ModelBound(value, certified=False, method="sampled", details=est)


# ---------------------------------------------------------------------------
# kernel construction
# ---------------------------------------------------------------------------


def build_kernel(spec, n_particles: int = 1) -> JumpKernel:
    """Turn a model spec into a jump kernel for the engines and simulators."""
    if isinstance(spec, ModifiedBDSpec):
        return SingleSiteKernel(_bd_measures(spec, 2), sites=range(spec.K + 1))
    if isinstance(spec, BirthDeathSpec):
        return SingleSiteKernel(_bd_measures(spec, 1), sites=range(spec.K + 1))
    if isinstance(spec, AgentsSpec):
        return AgentsKernel(spec)
    if isinstance(spec, ZeroRangeSpec):
        return ZeroRangeKernel(spec)
    if isinstance(spec, FlemingViotSpec):
        return FlemingViotKernel(spec)
    if isinstance(spec, MeanFieldBDSpec):
        return MeanFieldBDKernel(spec)
    raise ValidationError(
        f"no kernel construction for {type(spec).__name__}; "
        "displacement families support closed-form bounds only"
    )
