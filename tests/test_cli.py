import json
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from slicemean import cli

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


def write_config(tmp_path, name="config.json", **overrides):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "slicemean", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )


class TestValidateCommand:
    def test_summary(self, tmp_path):
        proc = run_cli("validate", "--config", write_config(tmp_path))
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["n_min"] == 4
        assert payload["z0"] == pytest.approx([0.6, 0.8])
        assert payload["rank_checks"]["tol"] == 1e-10

    def test_missing_config(self):
        proc = run_cli("validate", "--config", "/nonexistent/conf.json")
        assert proc.returncode == 2

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["surprise"] = True
        path.write_text(json.dumps(cfg))
        proc = run_cli("validate", "--config", str(path))
        assert proc.returncode == 2
        assert "unknown key" in proc.stderr

    def test_usage_error(self):
        proc = run_cli("definitely-not-a-command")
        assert proc.returncode == 2


#: (subcommand, flag) pairs the subcommand does not read, so does not take
REMOVED_FLAGS = [
    (command, flag)
    for command, flags in {
        "validate": ["--threads", "--seed", "--csv", "--svg", "--timing"],
        "slice": ["--csv", "--svg", "--timing"],
        "limit": ["--threads", "--csv", "--svg", "--timing"],
        "verify": ["--svg", "--timing"],
        "counterexample": ["--threads", "--seed", "--svg", "--timing"],
    }.items()
    for flag in flags
]
FLAG_VALUES = {"--threads": ["2"], "--seed": ["1"], "--csv": ["x.csv"], "--svg": ["x.svg"]}


@pytest.mark.parametrize("command,flag", REMOVED_FLAGS)
def test_flag_the_command_does_not_read_is_a_usage_error(tmp_path, capsys, command, flag):
    argv = [command, "--config", write_config(tmp_path), flag, *FLAG_VALUES.get(flag, [])]
    if command == "slice":
        argv += ["--n", "64"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "x.svg").exists()


class TestSliceAndLimit:
    def test_slice(self, tmp_path):
        proc = run_cli("slice", "--n", "64", "--config", write_config(tmp_path))
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["N"] == 64
        assert payload["a_z"] == pytest.approx(63.0**0.5)
        assert payload["quad_value"] == pytest.approx(payload["limit_value"], abs=0.05)

    def test_angular_node_pair_is_a_config_error(self, tmp_path):
        cfg = write_config(tmp_path, quad={"radial_nodes": 64, "angular_nodes": [12, 16]})
        proc = run_cli("slice", "--n", "64", "--config", cfg)
        assert proc.returncode == 2
        assert "config error" in proc.stderr

    def test_rank_dip_fails_closed(self, tmp_path, rank_dip):
        problem = {"Q": rank_dip.problem.q.tolist(), "w0": [0.1, 0.1], "k": 1}
        proc = run_cli("slice", "--n", "6", "--config", write_config(tmp_path, problem=problem))
        assert proc.returncode == 2
        assert "rank" in proc.stderr

    def test_slice_at_a_million(self, tmp_path):
        proc = run_cli("slice", "--n", "1000000", "--config", write_config(tmp_path))
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["N"] == 10**6

    def test_limit(self, tmp_path):
        proc = run_cli("limit", "--config", write_config(tmp_path))
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        import math

        assert payload["closed_form"] == pytest.approx(math.exp(-0.32) * math.cos(0.6))
        assert payload["gauss_hermite"]["value"] == pytest.approx(payload["closed_form"])
        assert payload["covariance"] == [[pytest.approx(0.64)]]

    def test_limit_monte_carlo_branch(self, tmp_path):
        # k = 4 rules out the tensor Hermite rule; the constant function makes
        # the MC answer exact
        cfg = write_config(
            tmp_path,
            problem={"Q": [[0.0, 0.0, 0.0, 0.0, 1.0]], "w0": [0.5], "k": 4},
            function={"kind": "monomial", "params": {"alpha": [0, 0, 0, 0]}},
        )
        proc = run_cli("limit", "--config", cfg)
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["monte_carlo"]["value"] == 1.0
        assert payload["monte_carlo"]["diverged"] is False


class TestSweepCommand:
    def test_csv_and_svg(self, tmp_path):
        csv_path = tmp_path / "rows.csv"
        svg_path = tmp_path / "err.svg"
        proc = run_cli(
            "sweep",
            "--config",
            write_config(tmp_path),
            "--csv",
            str(csv_path),
            "--svg",
            str(svg_path),
        )
        assert proc.returncode == 0
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "N,quad_value,quad_err,mc_value,mc_stderr,limit_value,abs_error,wall_ms"
        assert len(lines) == 4
        root = ET.parse(svg_path).getroot()
        assert root.tag.endswith("svg")

    def test_byte_identical_reruns_and_threads(self, tmp_path):
        cfg = write_config(tmp_path)
        outs = []
        for i, threads in enumerate(("1", "1", "8")):
            path = tmp_path / f"run{i}.csv"
            proc = run_cli("sweep", "--config", cfg, "--csv", str(path), "--threads", threads)
            assert proc.returncode == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_refuses_counterexample_function(self, tmp_path):
        cfg = write_config(
            tmp_path, function={"kind": "counterexample_g", "params": {}}
        )
        proc = run_cli("sweep", "--config", cfg)
        assert proc.returncode == 2
        assert "L^p" in proc.stderr or "p > 1" in proc.stderr

    def test_empty_slice_note_and_empty_schedule_error(self, tmp_path):
        cfg = write_config(
            tmp_path,
            problem={"Q": [[0.0, 1.0]], "w0": [3.0], "k": 1},
            schedule=[9],
        )
        proc = run_cli("sweep", "--config", cfg)
        assert proc.returncode == 2
        assert "empty slice" in proc.stderr

        cfg2 = write_config(
            tmp_path,
            name="c2.json",
            problem={"Q": [[0.0, 1.0]], "w0": [3.0], "k": 1},
            schedule=[9, 16],
        )
        out_csv = tmp_path / "partial.csv"
        proc2 = run_cli("sweep", "--config", cfg2, "--csv", str(out_csv))
        assert proc2.returncode == 0
        assert "empty slice" in proc2.stderr
        assert len(out_csv.read_text().strip().split("\n")) == 2

    def test_rank_dip_row_skipped(self, tmp_path, rank_dip):
        problem = {"Q": rank_dip.problem.q.tolist(), "w0": [0.1, 0.1], "k": 1}
        cfg = write_config(tmp_path, problem=problem, schedule=[5, 6, 7, 8])
        out_csv = tmp_path / "dip.csv"
        proc = run_cli("sweep", "--config", cfg, "--csv", str(out_csv))
        assert proc.returncode == 0
        assert "N=6: skipped" in proc.stderr
        rows = out_csv.read_text().strip().split("\n")[1:]
        assert [int(row.split(",")[0]) for row in rows] == [5, 7, 8]

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli("sweep", "--config", cfg, "--csv", str(a), "--seed", "1").returncode == 0
        assert run_cli("sweep", "--config", cfg, "--csv", str(b), "--seed", "2").returncode == 0
        assert a.read_bytes() != b.read_bytes()

    def test_timing_flag_populates_wall_ms(self, tmp_path):
        cfg = write_config(tmp_path)
        path = tmp_path / "timed.csv"
        proc = run_cli("sweep", "--config", cfg, "--csv", str(path), "--timing")
        assert proc.returncode == 0
        last = path.read_text().strip().split("\n")[-1].split(",")
        assert float(last[-1]) > 0.0

    def test_unwritable_csv_is_io_error(self, tmp_path):
        cfg = write_config(tmp_path)
        proc = run_cli("sweep", "--config", cfg, "--csv", "/nonexistent-dir/out.csv")
        assert proc.returncode == 2
        assert "io error" in proc.stderr


class TestVerifyCommand:
    def test_pass_and_fail_exit_codes(self, tmp_path):
        cfg = write_config(
            tmp_path, verify={"checks": ["exact_moments", "weight_shape"]}
        )
        proc = run_cli("verify", "--config", cfg)
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["all_passed"] is True

        cfg_fail = write_config(
            tmp_path,
            name="fail.json",
            verify={"checks": ["exact_moments"], "tol_scale": 0.0},
        )
        proc_fail = run_cli("verify", "--config", cfg_fail)
        assert proc_fail.returncode == 1

    def test_empty_check_list(self, tmp_path):
        cfg = write_config(tmp_path, verify={"checks": []})
        proc = run_cli("verify", "--config", cfg)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["checks"] == []

    def test_byte_identical_report_csv(self, tmp_path):
        cfg = write_config(
            tmp_path,
            verify={"checks": ["normalization", "exact_moments", "mc_determinism"]},
        )
        outs = []
        for i, threads in enumerate(("1", "8")):
            path = tmp_path / f"checks{i}.csv"
            proc = run_cli("verify", "--config", cfg, "--csv", str(path), "--threads", threads)
            assert proc.returncode == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


class TestCounterexampleCommand:
    def test_columns_and_summary(self, tmp_path):
        cfg = write_config(
            tmp_path,
            counterexample={"z": [0.0, 0.3], "R": [1.0, 10.0, 30.0], "nodes": 48},
        )
        proc = run_cli("counterexample", "--config", cfg)
        assert proc.returncode == 0
        assert proc.stdout.startswith("z,R,value")
        assert "grows without bound" in proc.stdout
        assert "p > 1" in proc.stdout

    def test_value_beyond_float64_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, counterexample={"z": [-1.5], "R": [1.0, 1000.0]})
        proc = run_cli("counterexample", "--config", cfg)
        assert proc.returncode == 2
        assert "float64" in proc.stderr

    def test_runs_without_config(self):
        proc = run_cli("counterexample")
        assert proc.returncode == 0


def test_csv_files_match_printed_tables(tmp_path):
    # one formatter makes both: the sweep table printed without --csv is the
    # --csv file, and counterexample prints the table it writes
    cfg = write_config(tmp_path, counterexample={"z": [0.0, 0.3], "R": [1.0, 10.0], "nodes": 32})
    rows_csv = tmp_path / "rows.csv"
    assert run_cli("sweep", "--config", cfg, "--csv", str(rows_csv)).returncode == 0
    printed = run_cli("sweep", "--config", cfg)
    assert printed.returncode == 0
    table = rows_csv.read_text().splitlines(keepends=True)
    assert printed.stdout.splitlines(keepends=True)[: len(table)] == table

    probe_csv = tmp_path / "probe.csv"
    probe = run_cli("counterexample", "--config", cfg, "--csv", str(probe_csv))
    assert probe.returncode == 0
    table = probe_csv.read_text().splitlines(keepends=True)
    assert len(table) == 5
    assert probe.stdout.splitlines(keepends=True)[: len(table)] == table
