"""Configuration loading, report emission, and the command line surface.

The CLI tests drive ``jumpcurv.cli.main`` in process with temp files and
parse the JSON payloads it prints; exit codes follow the documented table
(0 ok, 2 invalid input, 3 numerical failure, 4 bound not confirmed).
"""

from __future__ import annotations

import csv
import json
import math

import pytest

from jumpcurv import (
    ConfigError,
    FiniteMeasure,
    GroundMetric,
    NumericError,
    drift_exact,
    drift_kernel_bound,
    emit_report,
    expand_rates,
    load_config,
    optimal_plan,
    parse_metric,
    read_measure_csv,
    resolve_model,
    wasserstein,
    write_measure_csv,
    write_plan_csv,
)
from jumpcurv import cli, config
from jumpcurv.cli import main

SQRT2 = math.sqrt(2.0)


def write_config(tmp_path, name: str, payload: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(capsys, argv) -> tuple:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv) -> tuple:
    code, out, _ = run_cli(capsys, argv)
    return code, json.loads(out)


class TestLoadConfig:
    def test_round_trip(self):
        # loading the emitted form of a config reproduces the config
        cfg = load_config({"preset": "two-state", "seed": 7})
        reloaded = load_config(json.loads(emit_report(cfg.raw)))
        assert reloaded.raw == cfg.raw

    def test_round_trip_is_idempotent_after_rounding(self):
        # emission rounds floats to 12 significant digits; one pass through
        # the loop is a fixed point
        cfg = load_config({"preset": "mm1-sqrt2"})
        once = emit_report(load_config(json.loads(emit_report(cfg.raw))).raw)
        assert once == emit_report(json.loads(emit_report(cfg.raw)))

    def test_minimal_bd_defaults(self):
        cfg = load_config({"model": {"variant": "birth_death", "b": 1.0, "d": 2.0}})
        assert cfg["model"]["K"] == 100
        assert cfg["model"]["u"] == 1.0
        assert cfg["seed"] == 0
        assert cfg["strategy"] == "exhaustive"
        for name in ("model.K", "model.u", "seed", "horizon", "replicas"):
            assert name in cfg.defaults_applied

    def test_echo_carries_version_and_defaults(self):
        cfg = load_config({"preset": "two-state"})
        echo = cfg.echo()
        assert echo["version"] == "0.1.0"
        assert echo["config"]["model"]["variant"] == "two_state"
        assert set(echo["defaults_applied"]) == set(cfg.defaults_applied)

    def test_unknown_field_named(self):
        with pytest.raises(ConfigError, match="replcias"):
            load_config({"model": {"variant": "two_state"}, "replcias": 5})

    def test_metric_field_refused(self):
        # the metric follows from the model; a top-level metric was never read
        with pytest.raises(ConfigError, match="unknown config field 'metric'"):
            load_config({"preset": "mm1-sqrt2", "metric": "trivial"})

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="no-such-preset"):
            load_config({"preset": "no-such-preset"})

    def test_explicit_keys_override_preset(self):
        cfg = load_config({"preset": "two-state", "horizon": 9.0, "seed": 3})
        assert cfg["horizon"] == 9.0
        assert cfg["seed"] == 3
        # untouched preset entries survive
        assert cfg["start_pairs"] == [[[0], [1]]]

    def test_root_must_be_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="object"):
            load_config(str(path))

    def test_preset_mm1_expands_rates(self):
        cfg = load_config({"preset": "mm1-sqrt2"})
        rm = resolve_model(cfg)
        spec = rm.spec
        assert spec.K == 40
        assert spec.b == (1.0,) * 41
        assert spec.d == (0.0,) + (2.0,) * 40
        assert spec.u == pytest.approx(tuple(SQRT2**k for k in range(40)))
        assert rm.closed_bound == pytest.approx(3.0 - 2.0 * SQRT2, abs=1e-12)


class TestEmitReport:
    def test_byte_identical(self):
        payload = {"b": 1.0 / 3.0, "a": [1, {"z": 2.5, "y": (3, 4)}]}
        assert emit_report(payload) == emit_report(payload)

    def test_sorted_keys(self):
        out = emit_report({"zeta": 1, "alpha": 2})
        assert out.index('"alpha"') < out.index('"zeta"')

    def test_twelve_significant_digits(self):
        out = json.loads(emit_report({"pi": math.pi}))
        assert out["pi"] == float(f"{math.pi:.12g}")
        assert out["pi"] != math.pi

    def test_non_finite_rendering(self):
        out = json.loads(emit_report({"a": math.inf, "b": -math.inf, "c": math.nan}))
        assert out == {"a": "inf", "b": "-inf", "c": "nan"}

    def test_csv_and_text_formats(self):
        payload = {"b": 2, "a": {"k": 1}}
        assert emit_report(payload, format="csv") == 'a,{"k":1}\nb,2\n'
        assert emit_report(payload, format="text") == 'a: {"k":1}\nb: 2\n'

    def test_unknown_format(self):
        with pytest.raises(ConfigError, match="format"):
            emit_report({}, format="yaml")


class TestRateExpansion:
    def test_scalar_and_sequence(self):
        assert expand_rates(2, 3, "b") == (2.0, 2.0, 2.0)
        assert expand_rates([1, 2, 3], 3, "b") == (1.0, 2.0, 3.0)

    def test_length_mismatch_named(self):
        with pytest.raises(ConfigError, match="b: expected 4"):
            expand_rates([1, 2], 4, "b")

    def test_generators(self):
        assert expand_rates({"kind": "const", "value": 5}, 2, "d") == (5.0, 5.0)
        assert expand_rates(
            {"kind": "linear", "slope": 2.0, "intercept": 1.0}, 3, "d"
        ) == (1.0, 3.0, 5.0)
        assert expand_rates({"kind": "quadratic", "a": 1.0}, 4, "d") == (
            0.0,
            1.0,
            4.0,
            9.0,
        )
        geo = expand_rates({"kind": "geometric", "ratio": 2.0, "scale": 3.0}, 3, "u")
        assert geo == (3.0, 6.0, 12.0)

    def test_csv_source(self, tmp_path):
        path = tmp_path / "rates.csv"
        path.write_text("rate\n1.5\n2.5\n")
        assert expand_rates({"kind": "csv", "path": str(path)}, 2, "b") == (1.5, 2.5)
        with pytest.raises(ConfigError, match="2 rows"):
            expand_rates({"kind": "csv", "path": str(path)}, 3, "b")

    def test_unknown_kind_and_field(self):
        with pytest.raises(ConfigError, match="cubic"):
            expand_rates({"kind": "cubic"}, 3, "b")
        with pytest.raises(ConfigError, match="foo"):
            expand_rates({"kind": "const", "value": 1.0, "foo": 2}, 3, "b")

    def test_missing_field_named(self):
        with pytest.raises(ConfigError, match="b: const rate needs field 'value'"):
            expand_rates({"kind": "const"}, 3, "b")
        with pytest.raises(ConfigError, match="u: geometric rate needs field 'ratio'"):
            expand_rates({"kind": "geometric", "scale": 2.0}, 3, "u")


class TestParseMetric:
    def test_inline_strings(self):
        g = parse_metric("trivial:3")
        assert g.sites == (0, 1, 2)
        assert g.dist(0, 2) == 1.0
        assert parse_metric("euclidean").dist(1.5, 4.0) == 2.5
        g = parse_metric("weighted_line:1,2,4")
        assert g.dist(0, 2) == 3.0
        g = parse_metric("geometric:2.0:3")
        assert g.dist(0, 2) == 3.0

    def test_dict_forms(self):
        g = parse_metric({"kind": "weighted_line", "u": [1.0, 1.0]})
        assert g.dist(0, 2) == 2.0
        g = parse_metric(
            {"kind": "weighted_line", "u": {"kind": "const", "value": 2.0}, "K": 4}
        )
        assert g.dist(0, 4) == 8.0
        g = parse_metric({"kind": "general", "sites": [0, 1], "matrix": [[0, 3], [3, 0]]})
        assert g.dist(0, 1) == 3.0
        with pytest.raises(ConfigError, match="taxicab"):
            parse_metric({"kind": "taxicab"})

    def test_declaration_file(self, tmp_path):
        path = tmp_path / "metric.txt"
        path.write_text("weighted_line u=1,2\n")
        assert parse_metric(str(path)).dist(0, 2) == 3.0

    def test_matrix_file(self, tmp_path):
        path = tmp_path / "metric.csv"
        path.write_text("0,1\n1,0\n")
        g = parse_metric(str(path))
        assert g.sites == (0, 1)
        assert g.dist(0, 1) == 1.0


class TestMeasureFiles:
    def test_round_trip(self, tmp_path):
        m = FiniteMeasure((0, 3, 7), (0.25, 1.5, 2.0))
        path = str(tmp_path / "m.csv")
        write_measure_csv(path, m)
        back = read_measure_csv(path)
        assert back.atoms == m.atoms
        assert back.weights == pytest.approx(m.weights)

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1.0\n")
        with pytest.raises(ConfigError, match="header"):
            read_measure_csv(str(path))


class TestResolveModel:
    def test_two_state(self):
        rm = resolve_model(load_config({"model": {"variant": "two_state", "up": 0.5, "down": 1.5}}))
        assert rm.closed_bound == 2.0
        assert rm.metric.dist(0, 1) == 1.0
        assert rm.kernel.rate(0, (0,)).mass == 0.5

    def test_agents_fields(self):
        cfg = load_config(
            {
                "model": {
                    "variant": "agents",
                    "n_sites": 3,
                    "temperature": 1.0,
                    "f": {"kind": "quadratic"},
                },
                "n_particles": 4,
            }
        )
        rm = resolve_model(cfg)
        assert rm.spec.n_particles == 4
        assert rm.spec.monotone and rm.spec.convex
        assert rm.spec.f_lip == 2.0
        assert rm.closed_bound == pytest.approx(1.0 - 2.0 + 1.0 / 3.0)

    def test_unknown_variant_and_field(self):
        with pytest.raises(ConfigError, match="variant"):
            resolve_model(load_config({"model": {"variant": "three_state"}}))
        with pytest.raises(ConfigError, match="sideways"):
            resolve_model(
                load_config(
                    {"model": {"variant": "two_state", "up": 1, "down": 1, "sideways": 2}}
                )
            )

    def test_nested_spec_fields_named(self):
        agents = {"variant": "agents", "n_sites": 3, "temperature": 1.0}
        fv = {"variant": "fleming_viot", "n_sites": 3, "beta": [1.0, 0.0, 0.0]}
        zr = {"variant": "zero_range", "n_sites": 3}
        for model, message in (
            ({**agents, "f": {"kind": "power"}},
             "power preference needs field 'exponent'"),
            ({**agents, "f": {"kind": "affine", "slop": 2.0}},
             "unknown preference field 'slop'"),
            ({**fv, "q": {"kind": "complete", "rte": 5.0}},
             "unknown mutation field 'rte'"),
            ({**fv, "q": {"kind": "star"}}, "unknown mutation kind 'star'"),
            ({**zr, "P": {"kind": "uniform", "p": 0.5}}, "unknown routing field 'p'"),
            ({**zr, "P": {"kind": "ring"}}, "unknown routing kind 'ring'"),
        ):
            with pytest.raises(ConfigError, match=message):
                resolve_model(load_config({"model": model}))

    def test_model_required(self):
        with pytest.raises(ConfigError, match="model"):
            resolve_model(load_config({"seed": 1}))


class TestTransportCommands:
    def _measures(self, tmp_path):
        m1 = FiniteMeasure((0, 1), (1.0, 1.0))
        m2 = FiniteMeasure((2,), (2.0,))
        p1, p2 = str(tmp_path / "m1.csv"), str(tmp_path / "m2.csv")
        write_measure_csv(p1, m1)
        write_measure_csv(p2, m2)
        return m1, m2, p1, p2

    def test_wasserstein_value(self, tmp_path, capsys):
        m1, m2, p1, p2 = self._measures(tmp_path)
        code, payload = run_json(
            capsys,
            ["wasserstein", "--m1", p1, "--m2", p2, "--metric", "euclidean"],
        )
        assert code == 0
        target = wasserstein(m1, m2, GroundMetric.euclidean_line())
        assert payload["distance"] == pytest.approx(target, rel=1e-9)
        assert payload["method"] == "auto"

    def test_wasserstein_plan_file(self, tmp_path, capsys):
        m1, m2, p1, p2 = self._measures(tmp_path)
        plan_path = str(tmp_path / "plan.csv")
        code, payload = run_json(
            capsys,
            [
                "wasserstein",
                "--m1", p1, "--m2", p2,
                "--metric", "euclidean",
                "--method", "lp",
                "--plan", plan_path,
            ],
        )
        assert code == 0
        with open(plan_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["source", "target", "weight"]
        weights = [float(r[2]) for r in rows[1:]]
        assert sum(weights) == pytest.approx(2.0, abs=1e-9)
        ref = optimal_plan(m1, m2, GroundMetric.euclidean_line())
        assert payload["distance"] == pytest.approx(ref.cost, rel=1e-9)
        assert payload["transports"] == len(rows) - 1

    def test_j_exact_and_kernel(self, tmp_path, capsys):
        m1 = FiniteMeasure((1, 2), (0.75, 0.5))
        m2 = FiniteMeasure((0, 3), (1.0, 0.25))
        p1, p2 = str(tmp_path / "j1.csv"), str(tmp_path / "j2.csv")
        write_measure_csv(p1, m1)
        write_measure_csv(p2, m2)
        g = parse_metric("trivial:4")
        base = ["j", "--x", "0", "--y", "1", "--m1", p1, "--m2", p2,
                "--metric", "trivial:4"]
        code, payload = run_json(capsys, base)
        assert code == 0
        assert payload["method"] == "exact"
        assert payload["value"] == pytest.approx(
            drift_exact(0, 1, m1, m2, g).value, rel=1e-9
        )
        code, payload = run_json(capsys, base + ["--method", "kernel"])
        assert code == 0
        ref = drift_kernel_bound(
            0, 1, m1.mass, m2.mass,
            m1.scale(1.0 / m1.mass), m2.scale(1.0 / m2.mass), g,
        )
        assert payload["value"] == pytest.approx(ref.value, rel=1e-9)

    def test_missing_measure_file(self, tmp_path, capsys):
        code, out, err = run_cli(
            capsys,
            ["wasserstein", "--m1", str(tmp_path / "nope.csv"),
             "--m2", str(tmp_path / "nope.csv"), "--metric", "trivial"],
        )
        assert code == 2
        assert "error" in err


class TestBoundCommand:
    def test_two_state_payload(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", {"preset": "two-state"})
        code, payload = run_json(capsys, ["bound", "--config", path])
        assert code == 0
        assert payload["bound"] == pytest.approx(2.0, abs=1e-12)
        assert payload["closed_form_bound"] == pytest.approx(2.0, abs=1e-12)
        assert payload["certification"] == "exact_enumeration"
        assert payload["witness"] == [0, 1]
        assert payload["variant"] == "two_state"
        assert payload["version"] == "0.1.0"
        assert payload["config"]["seed"] == 0

    def test_reruns_byte_identical(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", {"preset": "two-state"})
        _, out1, _ = run_cli(capsys, ["bound", "--config", path])
        _, out2, _ = run_cli(capsys, ["bound", "--config", path])
        assert out1 == out2

    def test_seed_flag_overrides(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", {"preset": "two-state"})
        _, payload = run_json(capsys, ["bound", "--config", path, "--seed", "11"])
        assert payload["config"]["seed"] == 11

    def test_system_bound(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "agents.json",
            {
                "model": {
                    "variant": "agents",
                    "n_sites": 3,
                    "temperature": 1.0,
                    "f": {"kind": "zero"},
                },
                "n_particles": 2,
            },
        )
        code, payload = run_json(capsys, ["bound", "--config", path])
        assert code == 0
        # preference-free agents jump uniformly: the rate bound is exactly T
        assert payload["bound"] == pytest.approx(1.0, abs=1e-12)
        assert payload["closed_form_bound"] == pytest.approx(1.0, abs=1e-12)

    def test_zero_range_system_bound(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "zr.json",
            {
                "model": {
                    "variant": "zero_range",
                    "n_sites": 3,
                    "occupancy_rate": {"kind": "linear", "slope": 0.5, "intercept": 1.0},
                },
                "n_particles": 2,
            },
        )
        code, payload = run_json(capsys, ["bound", "--config", path])
        assert code == 0
        assert payload["variant"] == "zero_range"
        assert payload["certification"] == "exact_enumeration"
        assert payload["search_stats"]["pairs_examined"] == 72
        assert payload["bound"] >= payload["closed_form_bound"] - 1e-9

    def test_fleming_viot_matrix_forms(self, tmp_path, capsys):
        # a q matrix equal to {"kind": "complete", "rate": 1.0}, alone and with
        # an identity routing matrix, gives the fv-discrete preset's numbers
        preset = write_config(tmp_path, "fv.json", {"preset": "fv-discrete"})
        _, want = run_json(capsys, ["bound", "--config", preset])
        model = {
            "variant": "fleming_viot",
            "n_sites": 3,
            "q": [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]],
            "beta": [1.0, 0.0, 0.0],
        }
        identity = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        for extra in ({}, {"P": identity}):
            path = write_config(
                tmp_path, "q.json",
                {"preset": "fv-discrete", "model": {**model, **extra}},
            )
            code, got = run_json(capsys, ["bound", "--config", path])
            assert code == 0
            for key in ("bound", "closed_form_bound", "witness", "search_stats"):
                assert got[key] == want[key], (extra, key)

    def test_unknown_strategy_refused_at_every_particle_count(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", {"preset": "two-state"})
        for n in ("1", "2"):
            code, out, err = run_cli(
                capsys,
                ["bound", "--config", path, "--n-particles", n, "--strategy", "bogus"],
            )
            assert code == 2
            assert out == ""
            assert "unknown strategy 'bogus'" in err

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, ["bound", "--config", str(tmp_path / "absent.json")]
        )
        assert code == 2
        assert "error" in err

    def test_invalid_config_field(self, tmp_path, capsys):
        path = write_config(tmp_path, "bad.json", {"preset": "two-state", "frobs": 1})
        code, _, err = run_cli(capsys, ["bound", "--config", path])
        assert code == 2
        assert "frobs" in err

    def test_numeric_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        path = write_config(tmp_path, "c.json", {"preset": "two-state"})

        def explode(*args, **kwargs):
            raise NumericError("solver stalled")

        monkeypatch.setattr(cli, "bound_single", explode)
        code, _, err = run_cli(capsys, ["bound", "--config", path])
        assert code == 3
        assert "numerical failure" in err


class TestEigenCommand:
    def test_bd_cdi_payload(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", {"preset": "bd-cdi"})
        eta_path = str(tmp_path / "eta.csv")
        code, payload = run_json(
            capsys, ["eigen", "--config", path, "--eta", eta_path]
        )
        assert code == 0
        assert payload["K"] == 200
        assert payload["lambda_0"] > 0.0
        assert payload["residual"] <= 1e-8 * payload["eta_max"]
        assert payload["series"]["converged"] is True
        with open(eta_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["site", "eta"]
        assert len(rows) == 201
        assert float(rows[1][1]) == pytest.approx(payload["eta_1"], rel=1e-9)

    def test_needs_birth_death(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", {"preset": "agents-uniform"})
        code, _, err = run_cli(capsys, ["eigen", "--config", path])
        assert code == 2
        assert "birth_death" in err


class TestThresholdCommand:
    def test_quadratic_threshold(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", {"preset": "agents-quadratic"})
        code, payload = run_json(capsys, ["threshold", "--config", path])
        assert code == 0
        assert payload["z_star"] == pytest.approx(0.5 + 1.0 / math.sqrt(12.0), abs=1e-9)
        assert payload["m_star"] == pytest.approx(1.0 / (6.0 * math.sqrt(3.0)), abs=1e-9)
        assert payload["t_critical"] == pytest.approx(1.0 / (3.0 + math.sqrt(3.0)), abs=1e-9)

    def test_needs_agents(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", {"preset": "two-state"})
        code, _, err = run_cli(capsys, ["threshold", "--config", path])
        assert code == 2
        assert "agents" in err


class TestSimulationCommands:
    def test_simulate_deterministic(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", {"preset": "two-state", "horizon": 50.0})
        out_path = str(tmp_path / "events.csv")
        code, out1, _ = run_cli(
            capsys, ["simulate", "--config", path, "--out", out_path]
        )
        assert code == 0
        _, out2, _ = run_cli(capsys, ["simulate", "--config", path, "--out", out_path])
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["n_events"] > 0
        assert payload["final"][0] in (0, 1)
        with open(out_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "x0"]
        assert len(rows) == payload["n_events"] + 2  # header + initial row

    def test_simulate_needs_start(self, tmp_path, capsys):
        path = write_config(
            tmp_path, "c.json",
            {"model": {"variant": "two_state", "up": 1.0, "down": 1.0}},
        )
        code, _, err = run_cli(capsys, ["simulate", "--config", path])
        assert code == 2
        assert "start" in err

    def test_couple_payload(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", {"preset": "two-state", "horizon": 30.0})
        out_path = str(tmp_path / "dist.csv")
        code, payload = run_json(
            capsys, ["couple", "--config", path, "--out", out_path]
        )
        assert code == 0
        assert payload["coalesced"] is (payload["final_distance"] == 0.0)
        with open(out_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "distance"]
        assert float(rows[1][1]) == 1.0  # starts at distance one
        # distances on the trivial metric are 0/1 throughout
        assert all(float(r[1]) in (0.0, 1.0) for r in rows[1:])

    def test_contract_ok_and_violated(self, tmp_path, capsys):
        path = write_config(
            tmp_path, "c.json",
            {"preset": "two-state", "replicas": 60, "seed": 5},
        )
        csv_path = str(tmp_path / "fit.csv")
        code, payload = run_json(
            capsys, ["contract", "--config", path, "--csv", csv_path]
        )
        assert code == 0
        assert payload["verdict"] == "ok"
        assert payload["bound"] == pytest.approx(2.0, abs=1e-12)
        assert payload["replicas"] == 60
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "mean_d", "se"]
        assert len(rows) == payload["points_used"] + 1

        code, payload = run_json(
            capsys,
            ["contract", "--config", path, "--bound-override", "50.0"],
        )
        assert code == 4
        assert payload["verdict"] == "violated"

    def test_contract_reruns_byte_identical(self, tmp_path, capsys):
        path = write_config(
            tmp_path, "c.json",
            {"preset": "two-state", "replicas": 40, "seed": 9},
        )
        _, out1, _ = run_cli(capsys, ["contract", "--config", path])
        _, out2, _ = run_cli(capsys, ["contract", "--config", path])
        assert out1 == out2

    def test_verify_sources_closed_form(self, tmp_path, capsys):
        path = write_config(
            tmp_path, "c.json",
            {"preset": "two-state", "replicas": 60, "seed": 5},
        )
        code, payload = run_json(capsys, ["verify", "--config", path])
        assert code == 0
        assert payload["bound_source"] == "closed_form"
        assert payload["verdict"] == "ok"
        code, payload = run_json(
            capsys, ["verify", "--config", path, "--bound-override", "50.0"]
        )
        assert code == 4
        assert payload["bound_source"] == "override"

    def test_herd_payload(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "c.json",
            {
                "model": {
                    "variant": "agents",
                    "n_sites": 3,
                    "temperature": 1.5,
                    "f": {"kind": "zero"},
                },
                "n_particles": 2,
                "threshold": 0.5,
                "horizon": 30.0,
                "replicas": 50,
            },
        )
        code, payload = run_json(capsys, ["herd", "--config", path, "--full"])
        assert code == 0
        assert payload["replicas"] == 50
        assert payload["n_particles"] == 2
        assert 0.0 <= payload["censoring_fraction"] <= 1.0
        assert len(payload["exit_times"]) == 50
        assert payload["median_exit"] > 0.0

    def test_herd_needs_threshold(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", {"preset": "agents-uniform"})
        code, _, err = run_cli(capsys, ["herd", "--config", path])
        assert code == 2
        assert "threshold" in err


def test_overrides_are_config_fields():
    assert set(cli._OVERRIDES) <= set(config.FIELD_TYPES) <= config._TOP_FIELDS


_MEASURES = ["--m1", "m1.csv", "--m2", "m2.csv"]
_AGENTS_WITHOUT_F = {
    "model": {"variant": "agents", "n_sites": 3, "temperature": 1.0},
    "n_particles": 2,
}


def _bd(**rates) -> str:
    return json.dumps(
        {"model": {"variant": "birth_death", "K": 10, "b": 1.0, "d": 2.0, **rates}}
    )


def _agents(f) -> str:
    return json.dumps({"model": {"variant": "agents", "n_sites": 3,
                                 "temperature": 1.0, "f": f}})


def _fv(**fields) -> str:
    model = {"variant": "fleming_viot", "n_sites": 3, "q": {"kind": "complete"},
             "beta": [1.0, 0.0, 0.0], **fields}
    return json.dumps({"model": model})


_BOUND = ["bound", "--config", "c.json"]
_COUPLE = ["couple", "--config", "c.json"]


@pytest.mark.parametrize(
    "files, argv",
    [
        ({}, ["wasserstein", *_MEASURES, "--metric", "trivial:abc"]),
        ({}, ["wasserstein", *_MEASURES, "--metric", "weighted_line:1,x"]),
        ({}, ["wasserstein", *_MEASURES, "--metric", "geometric:2"]),
        (
            {"metric.txt": "weighted_line v=1\n"},
            ["wasserstein", *_MEASURES, "--metric", "metric.txt"],
        ),
        (
            {"m1.csv": "site,weight\n0,abc\n"},
            ["wasserstein", *_MEASURES, "--metric", "trivial"],
        ),
        ({"c.json": "{not json"}, ["bound", "--config", "c.json"]),
        ({"c.json": json.dumps(_AGENTS_WITHOUT_F)}, ["bound", "--config", "c.json"]),
        (
            {"c.json": json.dumps({"preset": "two-state", "start": ["x"]})},
            ["simulate", "--config", "c.json"],
        ),
        ({"c.json": _bd(b={"kind": "const"})}, _BOUND),
        ({"c.json": _bd(u={"kind": "geometric"})}, _BOUND),
        ({"c.json": _bd(d={"kind": "csv"})}, _BOUND),
        ({"c.json": _bd(b={"kind": "linear", "slop": 2.0})}, _BOUND),
        ({"c.json": _agents({"kind": "power"})}, _BOUND),
        ({"c.json": _agents({"kind": "affine", "slop": 2.0})}, _BOUND),
        ({"c.json": _agents({"kind": "zero", "slope": 1.0})}, _BOUND),
        ({"c.json": _fv(q={"kind": "complete", "rte": 5.0})}, _BOUND),
        (
            {"c.json": json.dumps({"model": {"variant": "zero_range", "n_sites": 3,
                                             "P": {"kind": "uniform", "p": 0.5}}})},
            _BOUND,
        ),
        ({"c.json": json.dumps({"preset": "mm1-sqrt2", "metric": "trivial"})}, _BOUND),
        ({"c.json": json.dumps({"preset": "two-state", "start_pairs": [[[0]]]})},
         _COUPLE),
        ({"c.json": json.dumps({"preset": "two-state", "start_pairs": [[0, 1]]})},
         _COUPLE),
        (
            {"rates.csv": "rate\n" + "1\n" * 11,
             "c.json": _bd(b={"kind": "csv", "path": "rates.csv", "column": "bogus"})},
            _BOUND,
        ),
        (
            {"rates.csv": "rate\n" + "1\n" * 5 + "x\n" + "1\n" * 5,
             "c.json": _bd(b={"kind": "csv", "path": "rates.csv"})},
            _BOUND,
        ),
        ({"c.json": _bd(b=[1, "x", 1])}, _BOUND),
        ({"c.json": _bd(b={"kind": "const", "value": "fast"})}, _BOUND),
        (
            {"c.json": json.dumps({"model": {"variant": "agents", "n_sites": 3,
                                             "temperature": "hot",
                                             "f": {"kind": "zero"}}})},
            _BOUND,
        ),
        ({"c.json": json.dumps({"preset": "agents-uniform", "n_particles": "two"})},
         _BOUND),
        ({"c.json": json.dumps({"preset": "two-state", "horizon": "long"})},
         ["simulate", "--config", "c.json"]),
    ],
    ids=[
        "inline-trivial",
        "inline-weighted-line",
        "inline-geometric",
        "metric-file",
        "measure-row",
        "config-json",
        "agents-without-f",
        "start-site",
        "const-without-value",
        "geometric-without-ratio",
        "csv-without-path",
        "rate-unknown-field",
        "power-without-exponent",
        "preference-unknown-field",
        "zero-preference-field",
        "mutation-unknown-field",
        "routing-unknown-field",
        "top-level-metric",
        "start-pair-one-configuration",
        "start-pair-of-sites",
        "csv-missing-column",
        "csv-non-numeric-cell",
        "rate-list-non-numeric",
        "const-non-numeric",
        "temperature-non-numeric",
        "n-particles-non-numeric",
        "horizon-non-numeric",
    ],
)
def test_malformed_input_exits_2(tmp_path, capsys, monkeypatch, files, argv):
    monkeypatch.chdir(tmp_path)
    files = {"m1.csv": "site,weight\n0,1\n1,1\n", "m2.csv": "site,weight\n2,2\n",
             **files}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("jumpcurv: error: ")


def test_csv_outputs_byte_identical(tmp_path, capsys, monkeypatch):
    # each of the six CSV writers on tiny fixed inputs: sites are written as
    # they are (the float atom keeps all its digits), every other float to
    # 12 significant digits, rows end in CRLF as csv.writer writes them
    monkeypatch.chdir(tmp_path)
    m1 = FiniteMeasure((0.30000000000000004, 2), (1.0, 1.0 / 3.0))
    m2 = FiniteMeasure((1,), (4.0 / 3.0,))
    write_measure_csv("measure.csv", m1)
    write_plan_csv("plan.csv", optimal_plan(m1, m2, GroundMetric.euclidean_line()))
    bd = write_config(
        tmp_path, "bd.json",
        {"model": {"variant": "birth_death", "K": 3, "b": 1.0, "d": 2.0}, "margin": 0},
    )
    two = write_config(
        tmp_path, "two.json",
        {"preset": "two-state", "start": [0, 1], "replicas": 30, "grid_points": 3,
         "horizon": 0.5},
    )
    for argv in (
        ["eigen", "--config", bd, "--eta", "eta.csv"],
        ["simulate", "--config", two, "--out", "sim.csv"],
        ["couple", "--config", two, "--out", "couple.csv"],
        ["contract", "--config", two, "--csv", "fit.csv"],
    ):
        assert run_cli(capsys, argv)[0] == 0
    expected = {
        "measure.csv": b"site,weight\r\n0.30000000000000004,1\r\n2,0.333333333333\r\n",
        "plan.csv": b"source,target,weight\r\n0.30000000000000004,1,1\r\n"
                    b"2,1,0.333333333333\r\n",
        "eta.csv": b"site,eta\r\n1,1\r\n2,2.3429230717\r\n3,3.48928854066\r\n",
        "sim.csv": b"t,x0,x1\r\n0,0,1\r\n0.00247991916648,1,1\r\n",
        "couple.csv": b"t,distance\r\n0,1\r\n0.00247991916648,0\r\n",
        "fit.csv": b"t,mean_d,se\r\n0.005,0.933333333333,0.0463205555853\r\n"
                   b"0.05,0.833333333333,0.0692045665448\r\n"
                   b"0.5,0.433333333333,0.0920186554466\r\n",
    }
    for name, data in expected.items():
        assert (tmp_path / name).read_bytes() == data, name
