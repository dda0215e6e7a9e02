"""Output checks: each compares an engine result with a computation made
apart from the engine, or with a property the method guarantees.

Every check returns a list of failure messages; an empty list passes.  The
closed-form constants below are derived by hand from the preset rates, and
drift values are re-solved through the LP transport route with measures
built here, so neither the line/trivial fast paths nor the kernels' own
``rate`` methods are trusted.
"""

from __future__ import annotations

import math

#: relative tolerance for certified numbers
REL = 1e-9

#: inf over x of b_x + d_{x+1} - d_x u_{x-1}/u_x - b_{x+1} u_{x+1}/u_x
#: bd-cdi (b = 1, d_x = x^2, u = 1): 2x + 1 for x >= 1 and 1 at x = 0
BD_CDI_BOUND = 1.0
#: mm1-sqrt2 (b = 1, d = 2, u_x = sqrt2^x): 3 - 2 sqrt2 for x >= 1
MM1_SQRT2_BOUND = 3.0 - 2.0 * math.sqrt(2.0)
#: peak of f(z) - z (f(z) + f(1 - z)) for f(z) = z^2 on [1/2, 1]
HERD_Z_STAR = 0.5 + 1.0 / math.sqrt(12.0)


def close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _fail(ok: bool, message: str) -> list:
    return [] if ok else [message]


# ---------------------------------------------------------------------------
# independent drift values through the LP route
# ---------------------------------------------------------------------------


def lp_pair_drift(jc, x, y, m1, m2, g) -> float:
    """drift(x, y; m1, m2) with the augmented measures built here and the
    transport cost solved by the exact LP."""
    FiniteMeasure = jc.core.FiniteMeasure
    a1 = FiniteMeasure(m1.atoms + (x,), m1.weights + (m2.mass,))
    a2 = FiniteMeasure(m2.atoms + (y,), m2.weights + (m1.mass,))
    cost = jc.transport.wasserstein(a1, a2, g, method="lp")
    return cost - (m1.mass + m2.mass) * g.dist(x, y)


def agents_measure(jc, spec, config, n_sites: int):
    """The agents jump measure at ``config``, recomputed from the model
    definition: rate T/n_sites + f(occupation fraction of the destination)."""
    n = len(config)
    weights = [spec.temperature / n_sites + spec.f(config.count(y) / n) for y in range(n_sites)]
    return jc.core.FiniteMeasure(range(n_sites), weights)


def lp_mean_drift_ratio(jc, spec, cx, cy, g) -> float:
    """Mean drift over distance of a configuration pair, every coordinate
    re-solved by LP with measures recomputed from the agents model."""
    n = len(cx)
    total = math.fsum(
        lp_pair_drift(jc, cx[i], cy[i],
                      agents_measure(jc, spec, cx, spec.n_sites),
                      agents_measure(jc, spec, cy, spec.n_sites), g)
        for i in range(n)
    )
    dist = sum(1.0 for a, b in zip(cx, cy) if a != b) / n
    return total / n / dist


# ---------------------------------------------------------------------------
# certified bounds
# ---------------------------------------------------------------------------


def check_exact_enumeration(report) -> list:
    return _fail(report.certification == "exact_enumeration",
                 f"certification {report.certification!r}")


def check_certified(report, expected: float, closed_form: float) -> list:
    """bound equals the hand-derived closed form and the program's own
    closed form; the certificate is exact enumeration."""
    out = check_exact_enumeration(report)
    out += _fail(close(report.bound, expected),
                 f"bound {report.bound!r} != closed form {expected!r}")
    out += _fail(close(closed_form, expected),
                 f"program closed form {closed_form!r} != {expected!r}")
    return out


def check_witness(report, ratio_of) -> list:
    """The witness attains sup_value (recomputed by ``ratio_of``), and it is
    the lexicographically smaller of itself and its swap: the drift is
    symmetric under exchanging the two sides, so the engine's tie-break
    must report that orientation."""
    x, y = report.witness
    value = ratio_of(x, y)
    out = _fail(close(value, report.sup_value),
                f"witness ratio {value!r} != sup_value {report.sup_value!r}")
    out += _fail(x < y, f"witness {report.witness!r} is not the smaller orientation")
    return out


def check_spot_pairs(report, ratio_of, pairs) -> list:
    """No sampled pair exceeds the certified supremum."""
    out = []
    for x, y in pairs:
        value = ratio_of(x, y)
        if value > report.sup_value + REL * max(1.0, abs(report.sup_value)):
            out.append(f"pair {(x, y)!r} ratio {value!r} exceeds sup {report.sup_value!r}")
    return out


def check_at_least(bound: float, floor: float, what: str) -> list:
    tol = REL * max(1.0, abs(floor))
    return _fail(bound >= floor - tol, f"bound {bound!r} below {what} {floor!r}")


# ---------------------------------------------------------------------------
# coupled simulation
# ---------------------------------------------------------------------------


def check_verdict(fit) -> list:
    return _fail(fit.verdict == "ok", f"verdict {fit.verdict!r} "
                 f"(fitted {fit.fitted_rate!r} +- {fit.rate_se!r}, bound {fit.bound!r})")


def check_exact_rate(fit, rate: float, k: float) -> list:
    """The fitted rate is within k standard errors of the exact rate."""
    ok = math.isfinite(fit.fitted_rate) and abs(fit.fitted_rate - rate) <= k * fit.rate_se
    return _fail(ok, f"fitted rate {fit.fitted_rate!r} +- {fit.rate_se!r} "
                 f"not within {k} se of {rate!r}")


# ---------------------------------------------------------------------------
# herding
# ---------------------------------------------------------------------------


def check_z_star(z_star: float) -> list:
    return _fail(close(z_star, HERD_Z_STAR), f"z_star {z_star!r} != {HERD_Z_STAR!r}")


def check_censoring_grows(fractions) -> list:
    """Censoring fractions listed in increasing N never decrease."""
    ok = all(a <= b for a, b in zip(fractions, fractions[1:]))
    return _fail(ok, f"censoring fractions {list(fractions)!r} decrease with N")


def check_fast_exit(results) -> list:
    """Above the critical temperature nothing is censored, and the median
    exit time barely depends on N."""
    out = []
    for r in results:
        out += _fail(r.censoring_fraction == 0.0,
                     f"N={r.n_particles}: censoring fraction {r.censoring_fraction!r}")
    medians = [r.median_exit for r in results]
    ratio = max(medians) / min(medians) if min(medians) > 0 else math.inf
    out += _fail(ratio <= 2.0, f"median exit times {medians!r} differ by {ratio!r}")
    return out
