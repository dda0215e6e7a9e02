"""Run configuration: JSON schema, presets, rate expansion, report emission.

A run configuration is a JSON object; unknown fields are rejected by name,
defaults are filled in and echoed back in every report.  Rate sequences are
given either literally or through small generator specs (const / linear /
quadratic / geometric / csv).  Reports are emitted with sorted keys and
floats rounded to 12 significant digits, so identical runs are byte
identical.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .core import (
    FiniteMeasure,
    GroundMetric,
    LineBaseMeasure,
    ValidationError,
)
from .curvature import SingleSiteKernel
from . import models as M


class ConfigError(ValidationError):
    """Malformed run configuration."""


#: single source of truth for the package version (reports carry it so every
#: run is reproducible from its own output)
PACKAGE_VERSION = "0.1.0"


# ---------------------------------------------------------------------------
# float formatting
# ---------------------------------------------------------------------------


def round_sig(x: float, digits: int = 12) -> float:
    if not math.isfinite(x):
        return x
    return float(f"{x:.{digits}g}")


def _jsonable(obj):
    """Recursively convert to JSON-friendly values with rounded floats."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (str, int)):
        return obj
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return round_sig(obj)
    if isinstance(obj, Mapping):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "tolist"):
        return _jsonable(obj.tolist())
    return str(obj)


def emit_report(payload: Mapping, format: str = "json") -> str:
    """Deterministic serialization: sorted keys, 12 significant digits.

    json is the primary format; csv flattens to key,value rows and text to
    "key: value" lines (nested values rendered as compact JSON).
    """
    data = _jsonable(payload)
    if format == "json":
        return json.dumps(data, sort_keys=True, indent=2) + "\n"
    if format in ("csv", "text"):
        sep = "," if format == "csv" else ": "
        lines = []
        for key in sorted(data):
            value = data[key]
            if isinstance(value, (dict, list)):
                value = json.dumps(value, sort_keys=True, separators=(",", ":"))
            lines.append(f"{key}{sep}{value}")
        return "\n".join(lines) + "\n"
    raise ConfigError(f"unknown report format {format!r}")


# ---------------------------------------------------------------------------
# measures and metrics on disk
# ---------------------------------------------------------------------------


def _parse(cast, text: str, what: str):
    """``cast(text)``, or a ConfigError naming ``what`` if text is malformed."""
    try:
        return cast(text)
    except ValueError:
        raise ConfigError(f"{what}: cannot read {text!r}") from None


def parse_site(text: str, what: str = "site"):
    """A site from text: an integer when the value is integral, else a real."""
    value = _parse(float, text, what)
    return int(value) if value.is_integer() else value


def read_measure_csv(path: str) -> FiniteMeasure:
    """CSV with a site,weight header row."""
    atoms = []
    weights = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["site", "weight"]:
            raise ConfigError(f"{path}: expected a site,weight header")
        for row in reader:
            if not row:
                continue
            if len(row) < 2:
                raise ConfigError(f"{path}: expected site,weight, got {row!r}")
            atoms.append(parse_site(row[0], f"{path}: site"))
            weights.append(_parse(float, row[1], f"{path}: weight"))
    return FiniteMeasure(atoms, weights)


def write_csv(path: str, header: Sequence, rows) -> None:
    """Write a header and rows; callers format their own cells, so sites are
    written as they are and floats as the caller rounds them."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_measure_csv(path: str, m: FiniteMeasure) -> None:
    write_csv(path, ["site", "weight"],
              ([z, f"{w:.12g}"] for z, w in zip(m.atoms, m.weights)))


def write_plan_csv(path: str, plan) -> None:
    write_csv(path, ["source", "target", "weight"],
              ([u, v, f"{w:.12g}"] for u, v, w in plan.pairs))


#: the declared metric kinds and their parameters, in the order the inline
#: form lists them ("geometric:2:5" declares ratio=2 K=5)
_DECLARED_PARAMS = {
    "trivial": ("n",),
    "euclidean": (),
    "weighted_line": ("u",),
    "geometric": ("ratio", "K"),
}


def parse_metric(value) -> GroundMetric:
    """Build a metric from an inline string, a config dict, or a file path.

    Strings: "trivial", "trivial:N", "euclidean", "weighted_line:u0,u1,...",
    "geometric:RATIO:K", or a path to a metric file (CSV distance matrix, or
    a one-line declaration like "trivial n=5" / "weighted_line u=1,2,4").
    """
    if isinstance(value, GroundMetric):
        return value
    if isinstance(value, Mapping):
        return _metric_from_dict(value)
    if not isinstance(value, str):
        raise ConfigError(f"cannot interpret metric spec {value!r}")
    text = value.strip()
    kind, sep, rest = text.partition(":")
    if kind not in _DECLARED_PARAMS:
        return _metric_from_file(text)
    names = _DECLARED_PARAMS[kind]
    values = rest.split(":") if sep else []
    if len(values) > len(names):
        raise ConfigError(f"{text}: a {kind} metric takes {len(names)} values")
    return _declared_metric(kind, dict(zip(names, values)), text)


def _declared_metric(kind: str, params: Mapping, source: str) -> GroundMetric:
    """One of the declared kinds from its parameters, given as strings."""

    def param(name, cast):
        if name not in params:
            raise ConfigError(f"{source}: a {kind} metric needs {name}")
        return _parse(cast, params[name], f"{source}: {name}")

    if kind == "trivial":
        return GroundMetric.trivial(range(param("n", int)) if "n" in params else None)
    if kind == "euclidean":
        return GroundMetric.euclidean_line()
    if kind == "weighted_line":
        return GroundMetric.weighted_line(
            param("u", lambda s: [float(w) for w in s.split(",")])
        )
    r = param("ratio", float)
    return GroundMetric.weighted_line([r**k for k in range(param("K", int))])


def _metric_from_dict(obj: Mapping) -> GroundMetric:
    kind = obj.get("kind")
    if kind == "trivial":
        n = obj.get("n_sites")
        return GroundMetric.trivial(range(n) if n is not None else None)
    if kind == "euclidean":
        return GroundMetric.euclidean_line(obj.get("sites"))
    if kind == "weighted_line":
        if "u" in obj and isinstance(obj["u"], Sequence):
            return GroundMetric.weighted_line([float(w) for w in obj["u"]])
        K = obj.get("K")
        if K is None:
            raise ConfigError("weighted_line metric needs u or (u spec, K)")
        return GroundMetric.weighted_line(expand_rates(obj.get("u", 1.0), int(K), "u"))
    if kind == "general":
        return GroundMetric.general(obj["sites"], obj["matrix"])
    if kind == "measure_line":
        base = LineBaseMeasure(
            atoms=tuple((float(p), float(w)) for p, w in obj.get("atoms", ())),
            segments=tuple(
                (float(a), float(b), float(d)) for a, b, d in obj.get("segments", ())
            ),
        )
        return GroundMetric.measure_line(base, obj.get("sites"))
    raise ConfigError(f"unknown metric kind {kind!r}")


def _metric_from_file(path: str) -> GroundMetric:
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines:
        raise ConfigError(f"{path}: empty metric file")
    # a declared kind opens a one-line declaration whose values may contain
    # commas (u=1,2,4); anything else is a distance matrix
    kind, *tokens = lines[0].split()
    if kind in _DECLARED_PARAMS:
        return _declared_metric(kind, dict(t.partition("=")[::2] for t in tokens), path)
    what = f"{path}: not a metric declaration or distance matrix"
    rows = [[_parse(float, s, what) for s in ln.replace(",", " ").split()]
            for ln in lines]
    return GroundMetric.general(range(len(rows)), rows)


# ---------------------------------------------------------------------------
# rate sequences
# ---------------------------------------------------------------------------


def expand_rates(spec, length: int, name: str) -> tuple:
    """Expand a rate spec to ``length`` values indexed 0..length-1."""
    if isinstance(spec, (int, float)):
        return (float(spec),) * length
    if isinstance(spec, Sequence) and not isinstance(spec, (str, bytes)):
        vals = tuple(float(v) for v in spec)
        if len(vals) != length:
            raise ConfigError(f"{name}: expected {length} values, got {len(vals)}")
        return vals
    if isinstance(spec, Mapping):
        kind = spec.get("kind")
        known = {
            "const": {"value"},
            "linear": {"slope", "intercept"},
            "quadratic": {"a", "b", "c"},
            "geometric": {"ratio", "scale"},
            "csv": {"path", "column"},
        }
        if kind not in known:
            raise ConfigError(f"{name}: unknown rate kind {kind!r}")
        extra = set(spec) - known[kind] - {"kind"}
        if extra:
            raise ConfigError(f"{name}: unknown rate field {sorted(extra)[0]!r}")
        if kind == "const":
            return (float(spec["value"]),) * length
        if kind == "linear":
            a = float(spec.get("slope", 1.0))
            c = float(spec.get("intercept", 0.0))
            return tuple(c + a * x for x in range(length))
        if kind == "quadratic":
            a = float(spec.get("a", 1.0))
            b = float(spec.get("b", 0.0))
            c = float(spec.get("c", 0.0))
            return tuple(a * x * x + b * x + c for x in range(length))
        if kind == "geometric":
            r = float(spec["ratio"])
            s = float(spec.get("scale", 1.0))
            return tuple(s * r**x for x in range(length))
        with open(spec["path"], newline="") as fh:
            reader = csv.DictReader(fh)
            col = spec.get("column", "rate")
            vals = tuple(float(row[col]) for row in reader)
        if len(vals) != length:
            raise ConfigError(
                f"{name}: csv has {len(vals)} rows, expected {length}"
            )
        return vals
    raise ConfigError(f"{name}: cannot interpret rate spec {spec!r}")


def _preference_from_config(obj) -> tuple:
    """Returns (f, monotone, convex, f_lip) for an agents preference spec."""
    if isinstance(obj, Mapping):
        kind = obj.get("kind")
        if kind == "zero":
            return M.ZeroPreference(), True, True, 0.0
        if kind == "affine":
            a = float(obj.get("slope", 0.0))
            b = float(obj.get("offset", 0.0))
            if b < 0.0 or a + b < 0.0:
                raise ConfigError("affine preference must be non-negative on [0,1]")
            return M.AffinePreference(a, b), True, True, abs(a)
        if kind == "quadratic":
            return M.QuadraticPreference(), True, True, 2.0
        if kind == "power":
            p = float(obj["exponent"])
            return M.PowerPreference(p), True, True, p
        raise ConfigError(f"unknown preference kind {kind!r}")
    raise ConfigError(f"cannot interpret preference spec {obj!r}")


# ---------------------------------------------------------------------------
# run configurations
# ---------------------------------------------------------------------------

_TOP_FIELDS = {
    "preset",
    "model",
    "metric",
    "n_particles",
    "margin",
    "strategy",
    "samples",
    "seed",
    "horizon",
    "replicas",
    "grid_points",
    "start",
    "start_pairs",
    "start_site",
    "threshold",
    "workers",
    "K",
}

_DEFAULTS = {
    "n_particles": 1,
    "margin": 5,
    "strategy": "exhaustive",
    "samples": 1000,
    "seed": 0,
    "horizon": 10.0,
    "replicas": 200,
    "grid_points": 20,
    "start_site": 0,
    "workers": None,
}

_SQRT2 = math.sqrt(2.0)

PRESETS: dict = {
    "two-state": {
        "model": {"variant": "two_state", "up": 1.0, "down": 1.0},
        "horizon": 1.0,
        "start": [0],
        "start_pairs": [[[0], [1]]],
    },
    "mm1-sqrt2": {
        "model": {
            "variant": "birth_death",
            "K": 40,
            "b": {"kind": "const", "value": 1.0},
            "d": {"kind": "const", "value": 2.0},
            "u": {"kind": "geometric", "ratio": _SQRT2},
        },
        "horizon": 25.0,
        "start": [0],
        "start_pairs": [[[0], [10]]],
    },
    "agents-uniform": {
        "model": {
            "variant": "agents",
            "n_sites": 3,
            "temperature": 1.0,
            "f": {"kind": "zero"},
        },
        "n_particles": 5,
        "horizon": 3.0,
        "start": [0, 0, 0, 0, 0],
        "start_pairs": [[[0, 1, 2, 0, 1], [1, 2, 0, 1, 2]]],
    },
    "agents-quadratic": {
        "model": {
            "variant": "agents",
            "n_sites": 3,
            "temperature": 0.1,
            "f": {"kind": "quadratic"},
        },
        "n_particles": 50,
        "horizon": 1000.0,
        "start": None,
        "threshold": 0.7886751345948129,
    },
    "fv-discrete": {
        "model": {
            "variant": "fleming_viot",
            "n_sites": 3,
            "q": {"kind": "complete", "rate": 1.0},
            "beta": [1.0, 0.0, 0.0],
        },
        "n_particles": 3,
        "horizon": 1.5,
        "start": [0, 0, 0],
        "start_pairs": [[[0, 0, 0], [1, 2, 1]]],
    },
    "bd-cdi": {
        "model": {
            "variant": "birth_death",
            "K": 200,
            "b": {"kind": "const", "value": 1.0},
            "d": {"kind": "quadratic", "a": 1.0},
            "u": {"kind": "const", "value": 1.0},
        },
        "horizon": 5.0,
        "start": [5],
        "start_pairs": [[[0], [5]]],
    },
}


@dataclass(frozen=True)
class RunConfig:
    """Resolved run configuration (defaults applied)."""

    raw: dict
    defaults_applied: tuple

    def __getitem__(self, key):
        return self.raw[key]

    def get(self, key, default=None):
        return self.raw.get(key, default)

    def echo(self) -> dict:
        return {
            "config": dict(self.raw),
            "defaults_applied": list(self.defaults_applied),
            "version": PACKAGE_VERSION,
        }


def load_config(source) -> RunConfig:
    """Load a config mapping or JSON file; presets expand first, explicit
    keys win; unknown fields are rejected by name."""
    if isinstance(source, str):
        with open(source) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{source}: not valid JSON ({exc})") from None
    elif isinstance(source, Mapping):
        data = dict(source)
    else:
        raise ConfigError(f"cannot load config from {source!r}")
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")

    preset = data.pop("preset", None)
    merged: dict = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r}; known: {sorted(PRESETS)}"
            )
        merged.update(json.loads(json.dumps(PRESETS[preset])))
        merged["preset"] = preset
    for key, value in data.items():
        if key not in _TOP_FIELDS:
            raise ConfigError(f"unknown config field {key!r}")
        merged[key] = value

    applied = []
    for key, value in _DEFAULTS.items():
        if key not in merged or merged[key] is None:
            merged[key] = value
            applied.append(key)

    model = merged.get("model")
    if isinstance(model, Mapping) and model.get("variant") in (
        "birth_death",
        "modified_bd",
    ):
        model = dict(model)
        if "K" not in model:
            model["K"] = int(merged.get("K", 100))
            applied.append("model.K")
        if "u" not in model:
            model["u"] = 1.0
            applied.append("model.u")
        merged["model"] = model
    return RunConfig(raw=merged, defaults_applied=tuple(sorted(applied)))


# ---------------------------------------------------------------------------
# model resolution
# ---------------------------------------------------------------------------

#: each model variant's required and optional fields besides "variant"
_MODEL_FIELDS = {
    "two_state": ({"up", "down"}, set()),
    "birth_death": ({"K", "b", "d"}, {"u"}),
    "modified_bd": ({"K", "b", "d"}, {"u"}),
    "agents": ({"n_sites", "temperature", "f"}, {"monotone", "convex", "f_lip"}),
    "zero_range": ({"n_sites"}, {"P", "occupancy_rate"}),
    "fleming_viot": ({"n_sites", "q", "beta"}, {"P", "u", "d_inf"}),
}


@dataclass(frozen=True)
class ResolvedModel:
    """Everything the engines need: spec, kernel, metric, the closed-form
    contraction bound when the family has one, and the certified-enumeration
    interior for truncated chains."""

    variant: str
    spec: object
    kernel: object
    metric: GroundMetric
    closed_bound: float
    interior: tuple | None


class _OccupancyRate:
    """Site-independent occupancy rate c(n) from a tabulated sequence."""

    def __init__(self, values: tuple):
        self.values = values

    def __call__(self, x, n: int) -> float:
        if n < 1:
            raise ValidationError("occupancy must be >= 1")
        return self.values[min(n, len(self.values)) - 1]


def resolve_model(cfg: RunConfig) -> ResolvedModel:
    model = cfg.get("model")
    if not isinstance(model, Mapping):
        raise ConfigError("config needs a model object")
    variant = model.get("variant")
    if variant not in _MODEL_FIELDS:
        raise ConfigError(f"unknown model variant {variant!r}")
    required, optional = _MODEL_FIELDS[variant]
    extra = set(model) - required - optional - {"variant"}
    if extra:
        raise ConfigError(f"unknown model field {sorted(extra)[0]!r}")
    missing = required - set(model)
    if missing:
        raise ConfigError(f"{variant} model needs field {sorted(missing)[0]!r}")
    n_particles = int(cfg.get("n_particles", 1))
    margin = int(cfg.get("margin", 5))

    if variant == "two_state":
        up, down = float(model["up"]), float(model["down"])
        kernel = SingleSiteKernel(
            {
                0: FiniteMeasure((1,), (up,)),
                1: FiniteMeasure((0,), (down,)),
            },
            sites=(0, 1),
        )
        return ResolvedModel(
            variant, None, kernel, GroundMetric.trivial((0, 1)), up + down, None
        )

    if variant in ("birth_death", "modified_bd"):
        K = int(model["K"])
        cls = M.ModifiedBDSpec if variant == "modified_bd" else M.BirthDeathSpec
        b = expand_rates(model["b"], K + 1, "b")
        d = expand_rates(model["d"], K + 1, "d")
        d = (0.0,) + d[1:]  # death from 0 is impossible by convention
        u = expand_rates(model.get("u", 1.0), K, "u")
        spec = cls(b=b, d=d, u=u, K=K)
        closed = M.bd_bound(spec) if variant == "birth_death" else M.modified_bd_bound(spec)
        return ResolvedModel(
            variant,
            spec,
            M.build_kernel(spec),
            M.bd_metric(spec),
            closed,
            M.bd_interior(spec, margin),
        )

    if variant == "agents":
        f, monotone, convex, f_lip = _preference_from_config(model["f"])
        spec = M.AgentsSpec(
            n_sites=int(model["n_sites"]),
            temperature=float(model["temperature"]),
            f=f,
            n_particles=n_particles,
            monotone=bool(model.get("monotone", monotone)),
            convex=bool(model.get("convex", convex)),
            f_lip=float(model["f_lip"]) if "f_lip" in model else f_lip,
        )
        return ResolvedModel(
            variant,
            spec,
            M.build_kernel(spec),
            GroundMetric.trivial(tuple(range(spec.n_sites))),
            M.agents_bound(spec),
            None,
        )

    if variant == "zero_range":
        n = int(model["n_sites"])
        P = model.get("P", {"kind": "uniform"})
        if isinstance(P, Mapping):
            if P.get("kind") != "uniform":
                raise ConfigError(f"unknown routing kind {P.get('kind')!r}")
            matrix = [[1.0 / n] * n for _ in range(n)]
        else:
            matrix = [[float(p) for p in row] for row in P]
        import numpy as np

        occ = expand_rates(model.get("occupancy_rate", 1.0), 2 * n_particles, "occupancy_rate")
        spec = M.ZeroRangeSpec(
            sites=tuple(range(n)),
            P=np.asarray(matrix),
            n_particles=n_particles,
            zr_rate=_OccupancyRate(occ),
        )
        g = GroundMetric.trivial(spec.sites)
        closed = M.zero_range_bound(spec, g, mode="zr").value
        return ResolvedModel(variant, spec, M.build_kernel(spec), g, closed, None)

    # fleming_viot
    n = int(model["n_sites"])
    q_cfg = model["q"]
    if isinstance(q_cfg, Mapping):
        if q_cfg.get("kind") != "complete":
            raise ConfigError(f"unknown mutation kind {q_cfg.get('kind')!r}")
        rate = float(q_cfg.get("rate", 1.0))
        rows = [[rate if i != j else 0.0 for j in range(n)] for i in range(n)]
    else:
        rows = [[float(v) for v in row] for row in q_cfg]
    q = {
        x: FiniteMeasure(
            [y for y in range(n) if y != x and rows[x][y] > 0.0],
            [rows[x][y] for y in range(n) if y != x and rows[x][y] > 0.0],
        )
        for x in range(n)
    }
    beta = {x: float(v) for x, v in enumerate(model["beta"])}
    if len(beta) != n:
        raise ConfigError(f"beta needs {n} entries")
    P = model.get("P")
    if P is not None:
        import numpy as np

        P = np.asarray([[float(v) for v in row] for row in P])
    g = (
        GroundMetric.weighted_line(expand_rates(model["u"], n - 1, "u"))
        if "u" in model
        else GroundMetric.trivial(tuple(range(n)))
    )
    spec = M.FlemingViotSpec(
        sites=tuple(range(n)),
        q=q,
        beta=beta,
        P=P,
        d_inf=float(model["d_inf"]) if "d_inf" in model else None,
    )
    return ResolvedModel(
        variant, spec, M.build_kernel(spec), g, M.fv_bound(spec, g), None
    )
