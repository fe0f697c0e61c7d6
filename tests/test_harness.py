import json
import math
import xml.etree.ElementTree as ET

import pytest

from slicemean import AffineProblem, ConfigError, InadmissibleFunction
from slicemean import cli, harness


BASE_CONFIG = {
    "problem": {
        "Q": {"rows": 1, "cols": 2, "entries": [3.0, 4.0]},
        "w0": [5.0],
        "k": 1,
    },
    "function": {"kind": "cos_linear", "params": {"t": [1.0]}},
    "schedule": [16, 32, 64],
    "quad": {"radial_nodes": 64, "angular_nodes": 32},
    "mc": {"n_samples": 20000, "shard_size": 4096},
    "seed": 11,
}


def config(**overrides):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg.update(overrides)
    return cfg


class TestConfigValidation:
    def test_accepts_base(self):
        assert harness.validate_config(config()) is not None

    def test_rejects_unknown_top_level(self):
        with pytest.raises(ConfigError, match="unknown key"):
            harness.validate_config(config(extra_knob=1))

    def test_rejects_unknown_nested(self):
        cfg = config()
        cfg["quad"]["order"] = 3
        with pytest.raises(ConfigError, match="unknown key"):
            harness.validate_config(cfg)

    def test_rejects_unknown_problem_q_key(self):
        cfg = config()
        cfg["problem"]["Q"] = {"rows": 1, "cols": 2, "entries": [1, 0], "layout": "C"}
        with pytest.raises(ConfigError, match="unknown key"):
            harness.validate_config(cfg)

    def test_rejects_bad_schedule(self):
        with pytest.raises(ConfigError, match="schedule"):
            harness.validate_config(config(schedule=[16, -1]))

    @pytest.mark.parametrize(
        "name, value",
        [
            ("problem.k", 2.5),
            ("problem.k", True),
            ("problem.k", "1"),
            ("problem.Q.rows", 1.9),
            ("seed", 1.5),
            ("mc.n_samples", 1000.9),
            ("mc.shard_size", 4096.0),
            ("quad.radial_nodes", 64.7),
            ("quad.angular_nodes", False),
            ("counterexample.nodes", 48.5),
            ("verify.mc_samples", 1e5),
            ("schedule", [16, True]),
        ],
    )
    def test_rejects_non_integer(self, tmp_path, name, value):
        cfg = config()
        *path, key = name.split(".")
        section = cfg
        for part in path:
            section = section.setdefault(part, {})
        section[key] = value
        with pytest.raises(ConfigError, match=key):
            harness.validate_config(cfg)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["validate", "--config", str(path)]) == 2
        if key == "k":
            with pytest.raises(ValueError, match="integer"):
                AffineProblem(q=[[3.0, 4.0]], w0=[5.0], k=value)

    def test_nested_list_matrix_accepted(self):
        cfg = config()
        cfg["problem"]["Q"] = [[3.0, 4.0]]
        problem = harness.problem_from_config(cfg)
        assert problem.m == 1 and problem.s == 2

    def test_entry_count_mismatch(self):
        cfg = config()
        cfg["problem"]["Q"] = {"rows": 2, "cols": 2, "entries": [1.0, 2.0, 3.0]}
        with pytest.raises(ConfigError):
            harness.problem_from_config(cfg)

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            harness.load_config(str(tmp_path / "nope.json"))

    def test_load_config_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            harness.load_config(str(p))


class TestRunSweep:
    def test_rows_ascending_and_consistent(self):
        rows, notes = harness.run_sweep(config())
        assert [row.n for row in rows] == [16, 32, 64]
        assert notes == []
        limit = math.exp(-0.32) * math.cos(0.6)
        for row in rows:
            assert row.limit_value == pytest.approx(limit, rel=1e-14)
            assert row.abs_error == abs(row.quad_value - row.limit_value)
            assert row.mc_stderr > 0
            assert row.wall_ms == 0.0

    def test_empty_slice_noted_and_skipped(self):
        cfg = config(schedule=[9, 16])
        cfg["problem"] = {"Q": [[0.0, 1.0]], "w0": [3.0], "k": 1}
        rows, notes = harness.run_sweep(cfg)
        assert [row.n for row in rows] == [16]
        assert len(notes) == 1 and "empty slice" in notes[0]

    def test_refuses_l1_only_function(self):
        cfg = config()
        cfg["function"] = {"kind": "counterexample_g", "params": {}}
        with pytest.raises(InadmissibleFunction, match="p > 1"):
            harness.run_sweep(cfg)

    def test_threads_do_not_change_rows(self):
        rows1, _ = harness.run_sweep(config(), threads=1)
        rows4, _ = harness.run_sweep(config(), threads=4)
        assert rows1 == rows4

    def test_seed_override(self):
        rows_a, _ = harness.run_sweep(config(), seed=1)
        rows_b, _ = harness.run_sweep(config(), seed=2)
        assert rows_a[0].mc_value != rows_b[0].mc_value
        assert rows_a[0].quad_value == rows_b[0].quad_value

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="64-bit unsigned"):
            harness.run_sweep(config(), seed=-5)

    def test_exact_moment_column(self):
        cfg = config(schedule=[16, 64, 256])
        cfg["problem"] = {"Q": [[0.0, 1.0]], "w0": [3.0], "k": 1}
        cfg["function"] = {"kind": "monomial", "params": {"alpha": [2]}}
        rows, _ = harness.run_sweep(cfg)
        for row in rows:
            assert abs(row.quad_value - (row.n - 9.0) / (row.n - 1.0)) < 1e-8

    def test_convergence_column_to_gaussian_limit(self):
        cfg = config(schedule=[64, 512, 4096])
        cfg["problem"] = {"Q": [[0.0, 1.0]], "w0": [0.0], "k": 1}
        rows, _ = harness.run_sweep(cfg)
        assert rows[-1].limit_value == pytest.approx(math.exp(-0.5), rel=1e-14)
        errs = [row.abs_error for row in rows]
        assert errs[0] > errs[1] > errs[2]
        assert errs[-1] <= 1e-3
        # reported diagnostic only; the smooth-integrand decay is ~1/N
        rate = harness.observed_rate(rows)
        assert rate == pytest.approx(-1.0, abs=0.2)


class TestEmission:
    def test_csv_round_trip(self, tmp_path):
        rows, _ = harness.run_sweep(config())
        path = tmp_path / "rows.csv"
        harness.emit_outputs(rows, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == harness.CSV_HEADER
        assert len(lines) == len(rows) + 1
        for line, row in zip(lines[1:], rows):
            fields = line.split(",")
            assert int(fields[0]) == row.n
            # IEEE round-trip: parsing the decimal recovers the exact double
            assert float(fields[1]) == row.quad_value
            assert float(fields[6]) == row.abs_error

    def test_csv_refuses_empty(self, tmp_path):
        with pytest.raises(ValueError):
            harness.emit_outputs([], str(tmp_path / "never.csv"))

    def test_svg_well_formed(self, tmp_path):
        rows, _ = harness.run_sweep(config())
        path = tmp_path / "chart.svg"
        harness.emit_svg(rows, str(path))
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 2

    def test_svg_refuses_empty(self, tmp_path):
        with pytest.raises(ValueError):
            harness.emit_svg([], str(tmp_path / "never.svg"))

    def test_emit_outputs_writes_both(self, tmp_path):
        rows, _ = harness.run_sweep(config())
        csv_path = tmp_path / "rows.csv"
        svg_path = tmp_path / "rows.svg"
        written = harness.emit_outputs(rows, str(csv_path), str(svg_path))
        assert written == [str(csv_path), str(svg_path)]
        assert csv_path.exists() and svg_path.exists()


class TestRunVerify:
    FAST = ["normalization", "exact_moments", "weight_shape", "padding_invariance"]

    def test_subset_passes(self):
        report = harness.run_verify({"verify": {"checks": self.FAST}})
        assert report.all_passed
        assert [c.name for c in report.checks] == self.FAST

    def test_zero_tolerance_forces_failure(self):
        report = harness.run_verify(
            {"verify": {"checks": self.FAST, "tol_scale": 0.0}}
        )
        assert not report.all_passed

    def test_empty_check_list(self):
        report = harness.run_verify({"verify": {"checks": []}})
        assert report.checks == ()
        assert report.all_passed

    def test_unknown_check_rejected(self):
        with pytest.raises(ConfigError, match="unknown verify check"):
            harness.run_verify({"verify": {"checks": ["nonsense"]}})

    def test_report_json_stable(self):
        cfg = {"verify": {"checks": self.FAST}}
        a = harness.run_verify(cfg).to_json()
        b = harness.run_verify(cfg).to_json()
        assert a == b
        payload = json.loads(a)
        assert set(payload) == {"all_passed", "checks"}
        for entry in payload["checks"]:
            assert {"name", "passed", "worst_violation", "trials"} <= set(entry)

    def test_checks_csv(self):
        report = harness.run_verify({"verify": {"checks": self.FAST}})
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "name,passed,worst_violation,trials"
        assert len(lines) == len(self.FAST) + 1


class TestRunCounterexample:
    def test_default_grid(self):
        rows, summary = harness.run_counterexample({})
        zs = sorted({row["z"] for row in rows})
        assert zs == [0.0, 0.3]
        z0 = [row["value"] for row in rows if row["z"] == 0.0]
        assert all(b > a for a, b in zip(z0, z0[1:]))
        assert z0[-1] < math.sqrt(math.pi / 2.0)
        z3 = [row["value"] for row in rows if row["z"] == 0.3]
        assert z3[-1] > 10.0 * z3[0]
        assert any("p > 1" in line for line in summary)

    def test_configured_grid(self):
        cfg = {"counterexample": {"z": [0.0], "R": [1.0, 2.0], "nodes": 32}}
        rows, _ = harness.run_counterexample(cfg)
        assert len(rows) == 2
        want = 2.0 * math.atan(1.0) / math.sqrt(2.0 * math.pi)
        assert abs(rows[0]["value"] - want) < 1e-10
