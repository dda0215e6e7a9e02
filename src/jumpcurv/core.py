"""Ground metrics, finite non-negative measures, and particle configurations.

State spaces are finite site sets.  A site is either an integer index into
the set or a real coordinate when the set lives on the line.  Everything
downstream (transport, drift functionals, curvature engines, simulators)
works with the three value types defined here:

* :class:`GroundMetric` -- a metric on the site set, one of four kinds:
  ``general`` (explicit symmetric matrix), ``trivial`` (0/1), ``weighted_line``
  (positive gap weights between consecutive integers) and ``measure_line``
  (distance = base-measure mass of the half-open interval between the points).
* :class:`FiniteMeasure` -- finitely supported non-negative measure; duplicate
  atoms merge on construction, zero weights are dropped, the zero measure is
  legal.
* configurations -- plain tuples of sites, one entry per particle.

Values are immutable; all operations return new objects.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence, Union

Site = Union[int, float]
Config = tuple

#: relative tolerance on total-mass equality used across the package
MASS_RTOL = 1e-9


class ValidationError(ValueError):
    """Invalid input data (bad shapes, negative weights, unknown sites...)."""


class MassMismatchError(ValidationError):
    """Total masses differ beyond the relative tolerance."""


class NumericError(RuntimeError):
    """A numeric routine failed to converge or returned an unusable result."""


def _as_float(x) -> float:
    v = float(x)
    if math.isnan(v):
        raise ValidationError("nan is not a legal weight or coordinate")
    return v


# ---------------------------------------------------------------------------
# finite measures
# ---------------------------------------------------------------------------


class FiniteMeasure:
    """Finite non-negative measure ``sum_j w_j delta_{z_j}`` on the site set.

    Atoms are site identifiers; weights are non-negative reals.  Duplicate
    atoms are merged (weights added) on construction and atoms are kept in
    increasing order, so two measures built from the same data in any order
    compare equal.  Exact zero weights are dropped; the empty measure has
    mass zero and is a valid value.
    """

    __slots__ = ("atoms", "weights", "mass", "_hash")

    def __init__(self, atoms: Iterable[Site], weights: Iterable[float]):
        acc: dict = {}
        atoms = list(atoms)
        weights = [_as_float(w) for w in weights]
        if len(atoms) != len(weights):
            raise ValidationError(
                f"{len(atoms)} atoms but {len(weights)} weights"
            )
        for z, w in zip(atoms, weights):
            if w < 0.0:
                raise ValidationError(f"negative weight {w} at atom {z}")
            acc[z] = acc.get(z, 0.0) + w
        pairs = sorted((z, w) for z, w in acc.items() if w != 0.0)
        self.atoms: tuple = tuple(z for z, _ in pairs)
        self.weights: tuple = tuple(w for _, w in pairs)
        self.mass: float = math.fsum(self.weights)
        self._hash = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "FiniteMeasure":
        return cls((), ())

    @classmethod
    def delta(cls, site: Site, weight: float = 1.0) -> "FiniteMeasure":
        return cls((site,), (weight,))

    @classmethod
    def from_dict(cls, d: Mapping[Site, float]) -> "FiniteMeasure":
        return cls(tuple(d.keys()), tuple(d.values()))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "FiniteMeasure") -> "FiniteMeasure":
        return FiniteMeasure(self.atoms + other.atoms, self.weights + other.weights)

    def add_atom(self, site: Site, weight: float) -> "FiniteMeasure":
        """Return self + weight * delta_site (merging with an existing atom)."""
        return FiniteMeasure(self.atoms + (site,), self.weights + (weight,))

    def scale(self, alpha: float) -> "FiniteMeasure":
        alpha = _as_float(alpha)
        if alpha < 0.0:
            raise ValidationError("scaling factor must be non-negative")
        return FiniteMeasure(self.atoms, tuple(alpha * w for w in self.weights))

    def weight_at(self, site: Site) -> float:
        i = bisect_right(self.atoms, site) - 1
        if i >= 0 and self.atoms[i] == site:
            return self.weights[i]
        return 0.0

    def as_dict(self) -> dict:
        return dict(zip(self.atoms, self.weights))

    # -- protocol -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.atoms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteMeasure):
            return NotImplemented
        return self.atoms == other.atoms and self.weights == other.weights

    def __hash__(self):
        # computed once: drift and plan caches key on measures they hash
        # again and again
        h = self._hash
        if h is None:
            h = self._hash = hash((self.atoms, self.weights))
        return h

    def __getstate__(self):
        # the stored hash is left out: string hashes differ between processes
        return None, {
            "atoms": self.atoms, "weights": self.weights, "mass": self.mass, "_hash": None
        }

    def __repr__(self) -> str:
        inner = ", ".join(f"{z}: {w:g}" for z, w in zip(self.atoms, self.weights))
        return f"FiniteMeasure({{{inner}}})"


def masses_match(m1: FiniteMeasure, m2: FiniteMeasure) -> bool:
    return _masses_agree(m1.mass, m2.mass)


def _masses_agree(mass1: float, mass2: float) -> bool:
    return abs(mass1 - mass2) <= MASS_RTOL * max(mass1, mass2, 1.0)


def require_equal_mass(mass1: float, mass2: float) -> None:
    """Raise MassMismatchError unless two total masses agree to MASS_RTOL."""
    if not _masses_agree(mass1, mass2):
        raise MassMismatchError(f"total masses differ: {mass1!r} vs {mass2!r}")


def cdf_eval(m: FiniteMeasure, t: float) -> float:
    """Right-continuous cumulative mass: sum of weights of atoms z <= t."""
    i = bisect_right(m.atoms, t)
    return math.fsum(m.weights[:i])


def abs_first_moment(m: FiniteMeasure) -> float:
    """sum_j w_j |z_j|; atoms must be numeric."""
    return math.fsum(w * abs(z) for z, w in zip(m.atoms, m.weights))


# ---------------------------------------------------------------------------
# base measures on the line
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LineBaseMeasure:
    """Non-negative measure on the real line: atoms plus constant-density
    segments.  Only masses of bounded half-open intervals [lo, hi) are ever
    queried, so unbounded segments (e.g. Lebesgue) are fine.
    """

    atoms: tuple = ()        # ((position, weight), ...)
    segments: tuple = ()     # ((a, b, density), ...) meaning density on [a, b)
    # the atoms sorted by position, split into two tuples for bisect
    _positions: tuple = field(init=False, repr=False, compare=False)
    _weights: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for p, w in self.atoms:
            _as_float(p)
            if _as_float(w) < 0.0:
                raise ValidationError(f"negative base-measure atom at {p}")
        for a, b, dens in self.segments:
            if _as_float(dens) < 0.0:
                raise ValidationError("negative segment density")
            if not a < b:
                raise ValidationError("segment must have a < b")
        ordered = sorted(self.atoms, key=lambda atom: atom[0])
        object.__setattr__(self, "_positions", tuple(p for p, _ in ordered))
        object.__setattr__(self, "_weights", tuple(w for _, w in ordered))

    @classmethod
    def lebesgue(cls) -> "LineBaseMeasure":
        return cls(segments=((-math.inf, math.inf, 1.0),))

    @classmethod
    def from_gap_weights(cls, u: Sequence[float]) -> "LineBaseMeasure":
        """Atomic base measure with weight u[k] at integer k (k = 0..len(u)-1)."""
        return cls(atoms=tuple((k, _as_float(w)) for k, w in enumerate(u)))

    def interval_mass(self, lo: float, hi: float) -> float:
        """Mass of [lo, hi); zero when hi <= lo.

        The atoms in [lo, hi) are one slice of the position-sorted atoms,
        found by two bisections; ``fsum`` rounds their sum correctly, so the
        value does not depend on the order the atoms were given in.
        """
        if not hi > lo:
            return 0.0
        pos = self._positions
        total = math.fsum(self._weights[bisect_left(pos, lo):bisect_left(pos, hi)])
        for a, b, dens in self.segments:
            left, right = max(a, lo), min(b, hi)
            if right > left and dens > 0.0:
                total += dens * (right - left)
        return total


# ---------------------------------------------------------------------------
# ground metrics
# ---------------------------------------------------------------------------


class GroundMetric:
    """Metric on the site set.  Instances are built through the factory
    classmethods; ``kind`` is one of ``general``, ``trivial``,
    ``weighted_line``, ``measure_line``.

    ``sites`` is the ordered finite site list when one is declared.  The
    trivial and line kinds also accept undeclared sites (any hashable /
    numeric value): distances are still defined, but engines that must
    enumerate the site set require ``sites`` to be present.
    """

    __slots__ = ("kind", "sites", "_index", "_matrix", "_base", "_cums")

    def __init__(self, kind, sites, matrix=None, base=None, cums=None):
        self.kind = kind
        self.sites = None if sites is None else tuple(sites)
        self._index = (
            None if self.sites is None else {s: i for i, s in enumerate(self.sites)}
        )
        self._matrix = matrix
        self._base = base
        self._cums = cums

    # -- factories ----------------------------------------------------------

    @classmethod
    def general(cls, sites: Sequence[Site], matrix) -> "GroundMetric":
        """Explicit distance matrix; validated symmetric, zero-diagonal,
        non-negative and triangle-consistent."""
        import numpy as np

        sites = tuple(sites)
        m = np.asarray(matrix, dtype=float)
        n = len(sites)
        if m.shape != (n, n):
            raise ValidationError(f"matrix shape {m.shape} does not match {n} sites")
        if not np.allclose(m, m.T, rtol=0.0, atol=0.0):
            raise ValidationError("distance matrix must be symmetric")
        if np.any(np.diag(m) != 0.0):
            raise ValidationError("distance matrix must have zero diagonal")
        if np.any(m < 0.0):
            raise ValidationError("distances must be non-negative")
        # triangle: d(i,k) <= d(i,j) + d(j,k) for all j
        through = m[:, :, None] + m[None, :, :]
        if np.any(m > through.min(axis=1) + 1e-12):
            raise ValidationError("distance matrix violates the triangle inequality")
        return cls("general", sites, matrix=m)

    @classmethod
    def trivial(cls, sites: Sequence[Site] | None = None) -> "GroundMetric":
        """d(x, y) = 1 if x != y else 0."""
        return cls("trivial", sites)

    @classmethod
    def weighted_line(cls, u: Sequence[float]) -> "GroundMetric":
        """Sites 0..K (K = len(u)) with d(x, y) = |U(x) - U(y)| where
        U(x) = u_0 + ... + u_{x-1}.  All gap weights must be positive."""
        u = tuple(_as_float(w) for w in u)
        if len(u) == 0:
            raise ValidationError("weighted_line needs at least one gap weight")
        if any(w <= 0.0 for w in u):
            raise ValidationError("gap weights must be strictly positive")
        cums = [0.0]
        for w in u:
            cums.append(cums[-1] + w)
        sites = tuple(range(len(u) + 1))
        base = LineBaseMeasure.from_gap_weights(u)
        return cls("weighted_line", sites, base=base, cums=tuple(cums))

    @classmethod
    def measure_line(
        cls, base: LineBaseMeasure, sites: Sequence[float] | None = None
    ) -> "GroundMetric":
        """Real coordinates with d(x, y) = base([min(x,y), max(x,y)))."""
        if sites is not None:
            sites = tuple(sorted(_as_float(s) for s in sites))
        return cls("measure_line", sites, base=base)

    @classmethod
    def euclidean_line(cls, sites: Sequence[float] | None = None) -> "GroundMetric":
        """|x - y| on the reals (Lebesgue base measure)."""
        return cls.measure_line(LineBaseMeasure.lebesgue(), sites)

    # -- queries ------------------------------------------------------------

    @property
    def base_measure(self) -> LineBaseMeasure | None:
        return self._base

    def is_line(self) -> bool:
        return self.kind in ("weighted_line", "measure_line")

    def check_site(self, x) -> None:
        if self.kind == "general":
            if x not in self._index:
                raise ValidationError(f"unknown site {x!r}")
        elif self.is_line():
            _as_float(x)
        elif self.sites is not None and x not in self._index:
            raise ValidationError(f"unknown site {x!r}")

    def dist(self, x: Site, y: Site) -> float:
        if self.kind == "trivial":
            return 0.0 if x == y else 1.0
        if self.kind == "general":
            try:
                return float(self._matrix[self._index[x], self._index[y]])
            except KeyError as exc:
                raise ValidationError(f"unknown site {exc.args[0]!r}") from None
        if self.kind == "weighted_line":
            try:
                return abs(self._cums[x] - self._cums[y])
            except (TypeError, IndexError):
                raise ValidationError(
                    f"weighted_line sites are integers 0..{len(self._cums) - 1}, "
                    f"got ({x!r}, {y!r})"
                ) from None
        # measure_line
        a, b = (x, y) if x <= y else (y, x)
        return self._base.interval_mass(a, b)

    def max_distance(self) -> float:
        """Diameter of the declared site set."""
        if self.sites is None:
            raise ValidationError("metric has no declared site list")
        if self.kind == "trivial":
            return 1.0 if len(self.sites) > 1 else 0.0
        if self.kind == "general":
            return float(self._matrix.max())
        return self.dist(self.sites[0], self.sites[-1])

    def require_sites(self) -> tuple:
        if self.sites is None:
            raise ValidationError(
                "this operation needs a declared finite site list on the metric"
            )
        return self.sites

    def __repr__(self) -> str:
        n = "?" if self.sites is None else len(self.sites)
        return f"GroundMetric(kind={self.kind!r}, sites={n})"


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------


def check_configuration(cfg: Sequence[Site], g: GroundMetric) -> Config:
    """Validate a particle configuration and return it as a tuple."""
    cfg = tuple(cfg)
    if len(cfg) < 1:
        raise ValidationError("a configuration needs at least one particle")
    for x in cfg:
        g.check_site(x)
    return cfg


def config_distance(a: Sequence[Site], b: Sequence[Site], g: GroundMetric) -> float:
    """Mean per-coordinate distance (1/N) sum_i d(a_i, b_i)."""
    if len(a) != len(b):
        raise ValidationError(
            f"configurations have different sizes: {len(a)} vs {len(b)}"
        )
    if len(a) == 0:
        raise ValidationError("a configuration needs at least one particle")
    return math.fsum(map(g.dist, a, b)) / len(a)
