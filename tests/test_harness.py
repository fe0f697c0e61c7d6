import dataclasses
import json
import math
import re
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from slicemean import AffineProblem, ConfigError, InadmissibleFunction
from slicemean import cli, harness, testfns


BASE_CONFIG = {
    "problem": {
        "Q": {"rows": 1, "cols": 2, "entries": [3.0, 4.0]},
        "w0": [5.0],
        "k": 1,
    },
    "function": {"kind": "cos_linear", "params": {"t": [1.0]}},
    "schedule": [16, 32, 64],
    "quad": {"target_rel_err": 1e-9},
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
            ("problem.Q.cols", 2.0),
            ("mc.n_samples", "20000"),
            ("verify.mc_samples", True),
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

    @pytest.mark.parametrize(
        "name, unknown",
        [pytest.param(name, unknown, id=name) for name, unknown in [
            ("quad.radial_nodes", "radial_nodes"), ("quad.angular_nodes", "angular_nodes"),
            ("verify.tol_scale", "tol_scale"), ("counterexample.nodes", "nodes"),
            ("outputs.csv_path", "outputs")]],
    )
    def test_removed_keys_are_unknown(self, name, unknown):
        # fixed in the code now: quadrature starts at 128 radial nodes and 64
        # directions, the probe at 48 nodes a panel, and every verify bound is
        # fixed; output paths come from --csv and --svg only, so the whole
        # outputs section is unknown
        section, key = name.split(".")
        cfg = config()
        cfg.setdefault(section, {})[key] = 1
        with pytest.raises(ConfigError, match=rf"unknown key.*'{unknown}'"):
            harness.validate_config(cfg)

    @pytest.mark.parametrize(
        "run, cfg",
        [
            (harness.run_sweep, config(mc={"n_samples": 1000.9})),
            (harness.run_verify, {"verify": {"checks": [], "surprise": 1}}),
            (harness.run_counterexample, {"counterexample": {"R": [1.0], "surprise": 1}}),
        ],
        ids=["run_sweep", "run_verify", "run_counterexample"],
    )
    def test_entry_points_validate(self, run, cfg):
        with pytest.raises(ConfigError):
            run(cfg)

    def test_readme_example_is_valid(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Configuration", 1)[1]
        block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
        assert harness.validate_config(json.loads(block))

    def test_readme_lists_each_kinds_parameters(self):
        # the README lists every field of every registry class: a field added
        # or removed fails here until the docs follow
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Configuration", 1)[1]
        documented = {
            kind: re.findall(r"`(\w+)`", params)
            for kind, params in re.findall(r"^- `(\w+)`: (.*)$", section, re.M)
        }
        assert documented == {
            kind: [f.name for f in dataclasses.fields(cls)]
            for kind, cls in testfns._REGISTRY.items()
        }

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

    @pytest.mark.parametrize("seed", [1.5, True, "3"])
    def test_seed_override_must_be_an_integer(self, seed):
        # the override meets the config seed's rule: 1.5 ran as seed 1
        with pytest.raises(ConfigError, match="64-bit unsigned"):
            harness.run_sweep(config(), seed=seed)

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
    def test_csv_round_trip(self):
        rows, _ = harness.run_sweep(config())
        lines = harness.sweep_csv(rows).strip().split("\n")
        assert lines[0] == harness.CSV_HEADER
        assert len(lines) == len(rows) + 1
        for line, row in zip(lines[1:], rows):
            fields = line.split(",")
            assert int(fields[0]) == row.n
            # IEEE round-trip: parsing the decimal recovers the exact double
            assert float(fields[1]) == row.quad_value
            assert float(fields[6]) == row.abs_error

    def test_csv_refuses_empty(self):
        with pytest.raises(ValueError):
            harness.sweep_csv([])

    def test_svg_well_formed(self):
        rows, _ = harness.run_sweep(config())
        root = ET.fromstring(harness.sweep_svg(rows))
        assert root.tag.endswith("svg")
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 2

    def test_svg_refuses_empty(self):
        with pytest.raises(ValueError):
            harness.sweep_svg([])


class TestRunVerify:
    FAST = ["normalization", "exact_moments", "weight_shape", "padding_invariance"]

    def test_registry_names_and_order(self):
        # the report order; the acceptance suite and perfbench read the names
        # off ALL_CHECKS itself, so only this test pins them
        assert list(harness.ALL_CHECKS) == [
            "normalization",
            "constant_limit",
            "determinant_limit",
            "preimage_norm_inequality",
            "dominating_bound",
            "characteristic_function_identity",
            "mc_determinism",
            "factor_invariance",
            "basis_invariance",
            "padding_invariance",
            "z0n_convergence",
            "z0_orthogonality",
            "exact_moments",
            "weight_shape",
            "known_limit_identity",
            "cross_oracle",
            "mc_vs_known_limit",
        ]

    @pytest.mark.parametrize(
        "violations, worst, passed",
        [
            ([-1.0, 0.0, -2.0], 0.0, True),
            ([-1.0, 1e-300, -2.0], 1e-300, False),
            ([-1.0, math.nan, -2.0], math.nan, False),
            ([math.nan], math.nan, False),
            ([], -math.inf, False),
        ],
    )
    def test_check_runner(self, monkeypatch, tmp_path, violations, worst, passed):
        # the largest violation, one trial per yield, passed iff there is a
        # trial and every violation is <= 0; a NaN is the worst violation,
        # not one max() drops
        monkeypatch.setattr(harness, "ALL_CHECKS", dict(harness.ALL_CHECKS))

        @harness._check("probe")
        def probe(ctx):
            yield from violations
            return {"seed": ctx.seed}

        cfg = {"verify": {"checks": ["probe"]}}
        (result,) = harness.run_verify(cfg, seed=5).checks
        assert result.name == "probe"
        assert result.trials == len(violations)
        assert result.passed is passed
        assert result.recorded == {"seed": 5}
        if math.isnan(worst):
            assert math.isnan(result.worst_violation)
        else:
            assert result.worst_violation == worst
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["verify", "--config", str(path)]) == (0 if passed else 1)

    def test_subset_passes(self):
        report = harness.run_verify({"verify": {"checks": self.FAST}})
        assert report.all_passed
        assert [c.name for c in report.checks] == self.FAST

    def test_zero_tolerance_forces_failure(self, monkeypatch):
        # a check that reports a violation fails the report; the others still run
        def failing(ctx):
            return harness.CheckResult("normalization", False, 1.0, 1)

        monkeypatch.setitem(harness.ALL_CHECKS, "normalization", failing)
        report = harness.run_verify({"verify": {"checks": self.FAST}})
        assert not report.all_passed
        assert [c.passed for c in report.checks] == [False, True, True, True]

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

    POOLED = {"verify": {"checks": ["cross_oracle", "mc_vs_known_limit"], "mc_samples": 20000}}

    def test_pooled_checks_do_not_depend_on_threads(self):
        # these checks run their MC draws on the worker pool; the report
        # must not show how many workers there were
        base, *others = (harness.run_verify(self.POOLED, threads=t, seed=7).checks
                         for t in (1, 2, 5))
        assert all(other == base for other in others)

    def test_pooled_checks_pinned(self):
        # written from the serial code, before the draws went on the pool
        report = harness.run_verify(self.POOLED, threads=2, seed=7)
        assert [(c.name, c.worst_violation, c.trials) for c in report.checks] == [
            ("cross_oracle", -2.0, 50),
            ("mc_vs_known_limit", -5.0936024553626e-06, 20),
        ]

    def test_factor_invariance_has_a_fixed_bound(self):
        # the rotated values agree to round-off; the slack is 1e-13, not a
        # multiple of the base result's error estimate (about 4e-12 on FIX-B)
        (result,) = harness.run_verify({"verify": {"checks": ["factor_invariance"]}}).checks
        assert -1e-13 <= result.worst_violation <= 0.0
        assert result.trials == 6


class TestDominatingBound:
    """(1 - y/N)^((N-k-m-2)/2) <= e^((k+m+2)/2) e^(-y/2), over 10,000 draws at once."""

    @staticmethod
    def scalar(k, m, n, y):
        # the bound as it reads, one draw at a time: (left, right) with the slack
        lhs = math.exp(0.5 * (n - k - m - 2) * math.log1p(-y / n)) if y < n else 0.0
        return lhs, math.exp(0.5 * (k + m + 2)) * math.exp(-0.5 * y) + 1e-12

    def test_reports_ten_thousand_trials(self):
        (result,) = harness.run_verify({"verify": {"checks": ["dominating_bound"]}}).checks
        assert result.trials == 10_000
        assert result.passed

    @pytest.mark.parametrize("seed", [harness.DEFAULT_SEED, 1, 215])
    def test_violations_match_a_scalar_evaluation(self, seed):
        ctx = harness._Ctx(seed=seed, threads=1, mc_samples=1)
        draws = harness._bound_draws(ctx.rng(5))
        got = harness._bound_violations(*draws)
        assert got.shape == (10_000,)
        # numpy's exp and log1p are not the C library's: a few draws in a
        # thousand differ in the last bit of a side
        for violation, k, m, n, y in zip(got.tolist(), *(d.tolist() for d in draws)):
            lhs, rhs = self.scalar(k, m, n, y)
            assert abs(violation - (lhs - rhs)) <= 4 * sys.float_info.epsilon * (lhs + rhs)
        (result,) = harness.run_verify({"verify": {"checks": ["dominating_bound"]}},
                                       seed=seed).checks
        assert result.worst_violation == max(got.tolist())

    def test_y_at_n_is_zero_on_the_left_without_a_warning(self):
        # y/N = 1 takes log1p(-1) = -inf; a RuntimeWarning would fail here
        k, m, n = np.array([1, 4]), np.array([1, 4]), np.array([5, 9999])
        y = n.astype(float)
        got = harness._bound_violations(k, m, n, y)
        for violation, *draw in zip(got.tolist(), k.tolist(), m.tolist(), n.tolist(), y.tolist()):
            lhs, rhs = self.scalar(*draw)
            assert lhs == 0.0
            assert abs(violation + rhs) <= 4 * sys.float_info.epsilon * rhs


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
        cfg = {"counterexample": {"z": [0.0], "R": [1.0, 2.0]}}
        rows, _ = harness.run_counterexample(cfg)
        assert len(rows) == 2
        want = 2.0 * math.atan(1.0) / math.sqrt(2.0 * math.pi)
        assert abs(rows[0]["value"] - want) < 1e-10
