import json
import math
import os
import re
import resource
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from slicemean import (
    Monomial,
    UnsupportedDimension,
    build_slice,
    cli,
    harness,
    slice_mean_quadrature,
    testfns,
    validate,
)

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


def write_config(tmp_path, name="config.json", **overrides):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


#: Address-space cap for the runs that must fail closed on extreme input.
MEMORY_CAP = 1 << 30


def _cap_address_space(limit):
    def apply():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    return apply


def run_cli(*args, timeout=600, max_memory=None):
    """``python -m slicemean ARGS`` in a child process. With ``max_memory``
    (bytes) the child's address space is capped and BLAS runs on one thread,
    so the cap does not depend on the core count: a run that would use up
    memory fails instead of taking the host's."""
    capped = {}
    if max_memory is not None:
        one = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        capped = dict(preexec_fn=_cap_address_space(max_memory), env={**os.environ, **one})
    return subprocess.run(
        [sys.executable, "-m", "slicemean", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        **capped,
    )


class TestValidateCommand:
    def test_summary(self, tmp_path):
        proc = run_cli("validate", "--config", write_config(tmp_path))
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["n_min"] == 4
        assert payload["z0"] == pytest.approx([0.6, 0.8])
        assert payload["rank_checks"]["tol"] == 1e-10
        # sigma_2 / sigma_1 of [[3, 4], [1, 0]]
        assert payload["rank_checks"]["rank_margin"] == pytest.approx(0.15767078, rel=1e-6)

    def test_fix_b_json_is_pinned(self, tmp_path, capsys):
        # rank_checks is assembled by the command from the validated problem
        assert cli.main(["validate", "--config", write_config(tmp_path)]) == 0
        assert capsys.readouterr().out == (
            '{\n  "k": 1,\n  "m": 1,\n  "n_min": 4,\n  "rank_checks": {\n'
            '    "n_min": 4,\n    "projection_onto": true,\n'
            '    "rank_margin": 0.15767078078675456,\n    "rank_q": 1,\n'
            '    "tol": 1e-10,\n    "z0_norm_sq": 1.0000000000000002\n  },\n'
            '  "s": 2,\n  "z0": [\n    0.6000000000000001,\n    0.8\n  ]\n}\n'
        )

    def test_far_center_validates_and_slices(self, tmp_path, capsys):
        # |z0|^2 = 4e6 was refused (no admissible N <= 10^6); only 2**53
        # bounds N, and the slices there take milliseconds
        cfg = write_config(tmp_path, problem={"Q": [[0.0, 1.0]], "w0": [2000.0], "k": 1})
        assert cli.main(["validate", "--config", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["n_min"] == 4_000_001
        for n in ("4000001", "10000000"):
            assert cli.main(["slice", "--n", n, "--config", cfg]) == 0
            assert json.loads(capsys.readouterr().out)["N"] == int(n)

    def test_no_admissible_n_up_to_2_53(self, tmp_path, capsys):
        cfg = write_config(tmp_path, problem={"Q": [[0.0, 1.0]], "w0": [1e8], "k": 1})
        assert cli.main(["validate", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            "error: no admissible N <= 2**53: need N > |z0|^2 = 1e+16\n")

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


@pytest.mark.parametrize("command", ["slice", "sweep", "verify"])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_thread_count_below_one_is_a_usage_error(tmp_path, capsys, command, threads):
    # both ran serially with exit 0
    argv = [command, "--config", write_config(tmp_path), "--threads", threads]
    if command == "slice":
        argv += ["--n", "64"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "argument --threads: must be at least 1" in capsys.readouterr().err


def test_main_calls_in_one_process_match_separate_runs(tmp_path, capsys, monkeypatch):
    # the parser is built once per process; calls with different subcommands,
    # a usage error and --help among them, give what separate processes give
    monkeypatch.setenv("COLUMNS", "80")
    config = write_config(tmp_path)
    calls = [
        ["slice", "--n", "64", "--config", config],
        ["validate", "--config", config],
        ["slice", "--threads", "2", "--config", config],
        ["counterexample", "--config", config],
        ["limit", "--config", config, "--seed", "5"],
        ["slice", "--help"],
    ]
    for argv in calls:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        proc = run_cli(*argv)
        assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv
    assert cli._build_parser() is cli._build_parser()


class TestSliceAndLimit:
    def test_slice(self, tmp_path):
        proc = run_cli("slice", "--n", "64", "--config", write_config(tmp_path))
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["N"] == 64
        assert payload["a_z"] == pytest.approx(63.0**0.5)
        assert payload["quad_value"] == pytest.approx(payload["limit_value"], abs=0.05)

    def test_slice_runs_without_scipy(self, tmp_path):
        # the library needs numpy only: with scipy unimportable, FIX-B's
        # cosine slice still runs, and no scipy module gets loaded
        script = (
            "import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from slicemean import cli\n"
            "code = cli.main(['slice', '--n', '64', '--config', sys.argv[1]])\n"
            "loaded = [name for name, module in sys.modules.items()\n"
            "          if name.startswith('scipy') and module is not None]\n"
            "print(json.dumps({'code': code, 'loaded': loaded}), file=sys.stderr)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script, write_config(tmp_path)],
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stderr) == {"code": 0, "loaded": []}
        assert json.loads(proc.stdout)["N"] == 64

    def test_angular_node_pair_is_a_config_error(self, tmp_path):
        # the node counts are fixed in the code; the key is unknown
        cfg = write_config(tmp_path, quad={"angular_nodes": [12, 16]})
        proc = run_cli("slice", "--n", "64", "--config", cfg)
        assert proc.returncode == 2
        assert "config error" in proc.stderr
        assert "unknown key(s) ['angular_nodes']" in proc.stderr

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

    def test_slice_refuses_l1_only_function_before_evaluating(self, tmp_path, capsys,
                                                               monkeypatch):
        # slice ran quadrature and MC, then exited 2 at the Gauss-Hermite limit
        def evaluated(*args, **kwargs):
            raise AssertionError("slice evaluated an L^1-only function")

        for name in ("build_slice", "slice_mean_quadrature", "slice_mean_mc"):
            monkeypatch.setattr(cli, name, evaluated)
        cfg = write_config(tmp_path, function={"kind": "counterexample_g", "params": {}})
        assert cli.main(["slice", "--n", "64", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: function 'counterexample_g' is declared L^1 only")
        assert "p > 1" in err

    def test_slice_and_sweep_refuse_k4_without_closed_form_alike(self, tmp_path, capsys):
        # both take the limit first; slice printed the quadrature's refusal
        cfg = write_config(
            tmp_path,
            problem={"Q": [[0.0, 0.0, 0.0, 0.0, 1.0]], "w0": [0.5], "k": 4},
            function={"kind": "indicator_ball",
                      "params": {"center": [0, 0, 0, 0], "radius": 1.0}},
        )
        errs = []
        for argv in (["slice", "--n", "64"], ["sweep"]):
            assert cli.main([*argv, "--config", cfg]) == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] == (
            "error: tensor Gauss-Hermite supports k <= 3; use Monte Carlo\n")

    def test_k4_quadrature_refusal_names_routes_that_exist(self, tmp_path, capsys):
        # a closed-form limit, so both commands reach the quadrature, which
        # refuses k = 4 and names the library's MC and the `limit` command
        cfg = write_config(
            tmp_path,
            problem={"Q": [[0.0, 0.0, 0.0, 0.0, 1.0]], "w0": [0.5], "k": 4},
            function={"kind": "monomial", "params": {"alpha": [1, 0, 1, 0]}},
        )
        for argv in (["slice", "--n", "64"], ["sweep"]):
            assert cli.main([*argv, "--config", cfg]) == 2
            assert capsys.readouterr().err == (
                "error: deterministic rule supports k <= 3 (got k = 4); the library's "
                "slice_mean_mc has no k limit, and `slicemean limit` gives the Gaussian limit\n")
        validated = validate(harness.problem_from_config(json.loads(Path(cfg).read_text())))
        with pytest.raises(UnsupportedDimension):
            slice_mean_quadrature(build_slice(validated, 64), Monomial(alpha=(1, 0, 1, 0)))
        assert cli.main(["limit", "--config", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["closed_form"] == 0.0

    def test_slice_byte_identical_across_threads(self, tmp_path):
        # 20,000 samples in shards of 4096: five shards on the pool
        cfg = write_config(tmp_path)
        outs = [run_cli("slice", "--n", "64", "--config", cfg, "--threads", t)
                for t in ("1", "8")]
        assert [p.returncode for p in outs] == [0, 0]
        assert outs[0].stdout == outs[1].stdout

    def test_limit_monte_carlo_byte_identical_rerun(self, tmp_path):
        cfg = write_config(tmp_path, function={"kind": "counterexample_g", "params": {}})
        outs = [run_cli("limit", "--config", cfg) for _ in range(2)]
        assert [p.returncode for p in outs] == [0, 0]
        assert "monte_carlo" in json.loads(outs[0].stdout)
        assert outs[0].stdout == outs[1].stdout

    def test_limit_of_l1_only_function_takes_monte_carlo(self, tmp_path, capsys):
        cfg = write_config(tmp_path, function={"kind": "counterexample_g", "params": {}})
        assert cli.main(["limit", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "gauss_hermite" not in payload and "closed_form" not in payload
        assert payload["monte_carlo"]["n_evals"] == 20000
        assert math.isfinite(payload["monte_carlo"]["value"])

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

    def test_zero_row_notes_name_the_rank(self, tmp_path, late_support):
        # below the first N at which every row has a nonzero entry the notes
        # name the lost rank, not n_min
        problem = {"Q": late_support.problem.q.tolist(), "w0": [0.1, 0.1], "k": 1}
        cfg = write_config(tmp_path, problem=problem, schedule=[6, 9, 10, 11, 12])
        rows, notes = harness.run_sweep(harness.load_config(cfg))
        assert notes == [f"N={n}: skipped (rank < 2 on the first {n} column(s) of Q)"
                         for n in (6, 9, 10)]
        assert [row.n for row in rows] == [11, 12]

    def test_onto_dip_row_skipped(self, tmp_path, onto_dip):
        problem = {"Q": onto_dip.problem.q.tolist(), "w0": [0.1, 0.1], "k": 1}
        cfg = write_config(tmp_path, problem=problem, schedule=[5, 6, 7, 8])
        out_csv = tmp_path / "dip.csv"
        proc = run_cli("sweep", "--config", cfg, "--csv", str(out_csv))
        assert proc.returncode == 0
        assert "N=6: skipped" in proc.stderr
        assert "does not project onto" in proc.stderr
        rows = out_csv.read_text().strip().split("\n")[1:]
        assert [int(row.split(",")[0]) for row in rows] == [5, 7, 8]

    def test_rows_that_miss_their_target_carry_a_note(self, tmp_path, capsys):
        # the kink of a ball stops the radial axis at its cap short of 1e-11:
        # each row is kept and its note goes to stderr, not into the CSV
        schedule = [16, 64, 256]
        ball = write_config(tmp_path, function={"kind": "indicator_ball",
                                                "params": {"center": [0.2], "radius": 1.0}},
                            schedule=schedule, quad={"target_rel_err": 1e-11})
        rows, notes = harness.run_sweep(harness.load_config(ball))
        assert [row.n for row in rows] == schedule
        assert [note.split(" (")[0] for note in notes] == [
            f"N={n}: quadrature missed target_rel_err" for n in schedule]
        out_csv = tmp_path / "ball.csv"
        assert cli.main(["sweep", "--config", ball, "--csv", str(out_csv)]) == 0
        err = capsys.readouterr().err
        assert all(note in err for note in notes)
        assert "quadrature" not in out_csv.read_text()
        cosine = write_config(tmp_path, name="cos.json", schedule=schedule,
                              quad={"target_rel_err": 1e-11})
        assert harness.run_sweep(harness.load_config(cosine))[1] == []

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
    def test_pass_and_fail_exit_codes(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(
            tmp_path, verify={"checks": ["exact_moments", "weight_shape"]}
        )
        proc = run_cli("verify", "--config", cfg)
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["all_passed"] is True

        def failing(ctx):
            return harness.CheckResult("exact_moments", False, 1.0, 1)

        monkeypatch.setitem(harness.ALL_CHECKS, "exact_moments", failing)
        assert cli.main(["verify", "--config", cfg]) == 1
        assert json.loads(capsys.readouterr().out)["all_passed"] is False

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
            counterexample={"z": [0.0, 0.3], "R": [1.0, 10.0, 30.0]},
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


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("counterexample", "z", 0.3),
        ("counterexample", "R", []),
        ("counterexample", "R", [-1.0]),
        ("counterexample", "R", [10**400]),
        ("verify", "mc_samples", 0),
        ("verify", "checks", 5),
        ("verify", "checks", "normalization"),
        ("counterexample", "z", [0.0, -1000.5]),
    ],
    # named, not numbered: a case added to the list renames no other
    ids=["counterexample-z-0.3", "counterexample-R-empty", "counterexample-R-negative",
         "counterexample-R-beyond-float64", "verify-mc_samples-0", "verify-checks-5",
         "verify-checks-normalization", "counterexample-z-beyond-max-shift"],
)
def test_malformed_value_is_a_config_error(tmp_path, capsys, section, key, value):
    # each section is read by the subcommand of the same name
    cfg = write_config(tmp_path, **{section: {key: value}})
    assert cli.main([section, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"{section}.{key}" in err


_HUGE = 10**400
_PROBLEM_ERROR = "invalid 'problem' section"


def _malformed_cases():
    """(command that reads the section, config overrides, a fragment of the
    error) for malformed values in every section."""
    dims = {"rows": 1, "cols": 2, "entries": [3.0, 4.0]}
    problem = {"Q": dims, "w0": [5.0], "k": 1}
    cos = {"kind": "cos_linear", "params": {"t": [1.0]}}
    cases = {
        "problem_k_float": ("slice", {"problem": {**problem, "k": 2.5}}, "k must be an integer"),
        "problem_unknown": ("slice", {"problem": {**problem, "scale": 1}}, "'scale'"),
        "q_unknown": ("slice", {"problem": {**problem, "Q": {**dims, "layout": "C"}}}, "'layout'"),
        "q_rows_float": ("slice", {"problem": {**problem, "Q": {**dims, "rows": 1.0}}}, "rows"),
        "w0_nan": ("slice", {"problem": {**problem, "w0": [math.nan]}}, _PROBLEM_ERROR),
        # these five ran with exit 0: float() took true as 1 and "1" as 1,
        # and a nested w0 was flattened
        "w0_bool": ("slice", {"problem": {**problem, "w0": True}}, _PROBLEM_ERROR),
        "w0_str": ("slice", {"problem": {**problem, "w0": ["1"]}}, _PROBLEM_ERROR),
        "w0_nested": ("slice", {"problem": {**problem, "w0": [[[1]]]}}, _PROBLEM_ERROR),
        "q_nested_bool": ("slice", {"problem": {**problem, "Q": [[3.0, True]]}}, _PROBLEM_ERROR),
        "q_entries_bool": ("slice", {"problem": {**problem, "Q": {**dims, "entries": [True, 4]}}},
                           _PROBLEM_ERROR),
        "w0_huge": ("slice", {"problem": {**problem, "w0": [_HUGE]}}, _PROBLEM_ERROR),
        "q_nested_huge": ("slice", {"problem": {**problem, "Q": [[3.0, _HUGE]]}}, _PROBLEM_ERROR),
        "q_entries_huge": ("slice", {"problem": {**problem, "Q": {**dims, "entries": [_HUGE, 4]}}},
                           _PROBLEM_ERROR),
        "function_unfit": ("slice", {"function": {**cos, "params": {"t": [1.0, 2.0]}}},
                           "does not fit problem.k = 1"),
        "function_unknown_param": (
            "slice", {"function": {**cos, "params": {"t": [1.0], "bogus": 1}}}, "'bogus'"),
        "function_nan": ("slice", {"function": {**cos, "params": {"t": [math.nan]}}}, "finite"),
        "function_unknown_kind": ("limit", {"function": {**cos, "kind": "tan"}}, "'tan'"),
        "schedule_negative": ("sweep", {"schedule": [16, -1]}, "schedule"),
        "schedule_not_list": ("sweep", {"schedule": 16}, "schedule"),
        "quad_unknown": ("slice", {"quad": {"order": 3}}, "'order'"),
        "quad_out_of_range": ("slice", {"quad": {"target_rel_err": 0.5}}, "target_rel_err"),
        "mc_zero": ("slice", {"mc": {"n_samples": 0}}, "n_samples"),
        "mc_shard_bool": ("sweep", {"mc": {"shard_size": True}}, "shard_size"),
        "mc_not_object": ("sweep", {"mc": 5}, "mc"),
        "seed_float": ("slice", {"seed": 1.5}, "seed"),
        "seed_huge": ("sweep", {"seed": 2**64}, "seed"),
        "verify_check_name": ("verify", {"verify": {"checks": ["nope"]}}, "verify.checks"),
        "verify_mc_samples_zero": ("verify", {"verify": {"checks": [], "mc_samples": 0}},
                                   "verify.mc_samples"),
        "counterexample_r": ("counterexample", {"counterexample": {"R": [-1.0]}}, "counterexample.R"),
        "counterexample_z": ("counterexample", {"counterexample": {"z": []}}, "counterexample.z"),
        "unknown_section": ("slice", {"outputs": {}}, "'outputs'"),
    }
    return [pytest.param(*case, id=name) for name, case in cases.items()]


@pytest.mark.parametrize("command, overrides, fragment", _malformed_cases())
def test_validate_refuses_what_a_command_refuses(tmp_path, capsys, command, overrides, fragment):
    # validate reads every section with the commands' rules: a function with
    # an unknown parameter or a NaN passed validate with exit 0, and a
    # 400-digit integer in w0 or Q was an OverflowError traceback (exit 1)
    cfg = write_config(tmp_path, **overrides)
    errors = []
    for argv in ([command] + (["--n", "64"] if command == "slice" else []), ["validate"]):
        assert cli.main([*argv, "--config", cfg]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0].startswith("config error") and fragment in errors[0]
    assert errors[1] == errors[0]


@pytest.mark.parametrize("command", ["slice", "limit", "sweep"])
@pytest.mark.parametrize(
    "function",
    [
        {"kind": "cos_linear", "params": {"t": [1.0, 2.0]}},
        {"kind": "sin_linear", "params": {"t": []}},
        {"kind": "monomial", "params": {"alpha": [1, 1]}},
        {"kind": "indicator_ball", "params": {"center": [0.0, 0.0], "radius": 1.0}},
        {"kind": "bounded_cutoff",
         "params": {"inner": {"kind": "cos_linear", "params": {"t": [1.0, 0.0]}}, "cap": 0.5}},
    ],
    ids=["cos_t", "sin_t", "monomial_alpha", "ball_center", "cutoff_inner"],
)
def test_function_dimension_must_match_k(tmp_path, capsys, command, function):
    # k = 1 here: t and center need one entry, alpha at most one; a wrong
    # length raised a traceback (exit 1) or, for a ball, broadcast silently
    cfg = write_config(tmp_path, function=function)
    args = [command, "--config", cfg] + (["--n", "64"] if command == "slice" else [])
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "does not fit problem.k = 1" in err


#: one well-formed params object per kind, on k = 1
_PARAMS = {
    "cos_linear": {"t": [1.0]},
    "sin_linear": {"t": [1.0]},
    "monomial": {"alpha": [2]},
    "indicator_ball": {"center": [0.0], "radius": 1.0},
    "bounded_cutoff": {"inner": {"kind": "monomial", "params": {"alpha": [2]}}, "cap": 1.0},
    "counterexample_g": {},
}


def _function_cases():
    for kind, params in _PARAMS.items():
        yield pytest.param({"kind": kind, "params": {**params, "raduis": 2}}, "raduis",
                           id=f"{kind}-unknown")
        for name in params:
            rest = {key: value for key, value in params.items() if key != name}
            yield pytest.param({"kind": kind, "params": rest}, name, id=f"{kind}-missing-{name}")
    inner = {"kind": "monomial", "params": {"alpha": [2]}}
    for case, spec, name in [
        ("unknown", {**inner, "params": {"alpha": [2], "beta": [1]}}, "beta"),
        ("missing", {**inner, "params": {}}, "alpha"),
        ("unknown_key", {**inner, "weight": 2}, "weight"),
    ]:
        yield pytest.param({"kind": "bounded_cutoff", "params": {"inner": spec, "cap": 1.0}},
                           name, id=f"inner-{case}")


@pytest.mark.parametrize("function, name", _function_cases())
def test_unknown_or_missing_parameter_is_a_config_error(tmp_path, capsys, function, name):
    # params are the class's keyword arguments: a typo such as "raduis", or
    # any key the kind did not read, was dropped silently and the run exited 0
    cfg = write_config(tmp_path, function=function)
    assert cli.main(["slice", "--config", cfg, "--n", "64"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"'{name}'" in err


@pytest.mark.parametrize("kind", ["cos_linear", "indicator_ball"])
def test_analytic_is_not_a_parameter(tmp_path, capsys, kind):
    # whether an integrand is analytic is declared by its class: a ball that
    # claimed it would start quadrature on the coarse radial rule
    cfg = write_config(tmp_path, function={"kind": kind,
                                           "params": {**_PARAMS[kind], "analytic": True}})
    assert cli.main(["slice", "--config", cfg, "--n", "64"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "'analytic'" in err


@pytest.mark.parametrize(
    "function",
    [
        {"kind": "monomial", "params": {"alpha": [2.7]}},
        {"kind": "monomial", "params": {"alpha": [True]}},
        {"kind": "monomial", "params": {"alpha": ["2"]}},
        {"kind": "cos_linear", "params": {"t": [math.nan]}},
        {"kind": "sin_linear", "params": {"t": [-math.inf]}},
        {"kind": "cos_linear", "params": {"t": [10**400]}},
        {"kind": "cos_linear", "params": {"t": ["1"]}},
        {"kind": "indicator_ball", "params": {"center": [math.nan], "radius": 1.0}},
        {"kind": "indicator_ball", "params": {"center": [True], "radius": 1.0}},
        {"kind": "indicator_ball", "params": {"center": [0.0], "radius": math.nan}},
        {"kind": "indicator_ball", "params": {"center": [0.0], "radius": math.inf}},
        {"kind": "indicator_ball", "params": {"center": [0.0], "radius": True}},
        {"kind": "bounded_cutoff",
         "params": {"inner": {"kind": "cos_linear", "params": {"t": [1.0]}}, "cap": math.nan}},
        {"kind": "bounded_cutoff",
         "params": {"inner": {"kind": "cos_linear", "params": {"t": [1.0]}}, "cap": math.inf}},
    ],
    ids=["alpha_float", "alpha_bool", "alpha_str", "t_nan", "t_inf", "t_huge_int", "t_str",
         "center_nan", "center_bool", "radius_nan", "radius_inf", "radius_bool", "cap_nan",
         "cap_inf"],
)
def test_function_field_must_be_finite_and_well_typed(tmp_path, capsys, function):
    # Python's json reads NaN and Infinity: a NaN center printed 0.0 for every
    # slice value and exited 0; alpha [2.7] ran as x^2, [true] as x, and t
    # ["1"] as t = 1; a 400-digit integer t raised a traceback
    with pytest.raises(ValueError):
        testfns.from_config(function)
    cfg = write_config(tmp_path, function=function)
    assert cli.main(["slice", "--config", cfg, "--n", "64"]) == 2
    assert capsys.readouterr().err.startswith("config error: invalid 'function' section")


@pytest.mark.parametrize("command", ["slice", "sweep"])
@pytest.mark.parametrize("key", ["n_samples", "shard_size"])
def test_zero_mc_count_is_a_config_error(tmp_path, capsys, command, key):
    cfg = write_config(tmp_path, mc={key: 0})
    args = [command, "--config", cfg] + (["--n", "64"] if command == "slice" else [])
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid 'mc' section") and key in err


def test_csv_files_match_printed_tables(tmp_path):
    # one formatter makes both: the sweep table printed without --csv is the
    # --csv file, and counterexample prints the table it writes
    cfg = write_config(tmp_path, counterexample={"z": [0.0, 0.3], "R": [1.0, 10.0]})
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


@pytest.mark.parametrize(
    "argv, overrides",
    [
        (["sweep"], {"schedule": [_HUGE]}),
        (["slice", "--n", str(_HUGE)], {}),
        (["slice", "--n", "64"], {"mc": {"n_samples": _HUGE}}),
    ],
    ids=["schedule", "slice_n", "mc_n_samples"],
)
def test_count_beyond_2_53_is_refused(tmp_path, argv, overrides):
    # each was an OverflowError traceback with exit 1: N and every count
    # stop at 2**53, below which every float made from them is exact
    proc = run_cli(*argv, "--config", write_config(tmp_path, **overrides), timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "2**53" in proc.stderr


@pytest.mark.parametrize(
    "z, r, code, out",
    [
        (0.3, 1e7, 2, None),
        (0.0, 1e300, 0, "0.0,1e+300,1.2533141373155015\n"),
    ],
    ids=["shifted_overflows", "centered_huge_r"],
)
def test_counterexample_returns_for_a_huge_r(tmp_path, z, r, code, out):
    # neither returned: a shifted column kept adding panels after its sum had
    # overflowed, and the centered one capped its panel widths at 48 / 1e-12
    cfg = write_config(tmp_path, counterexample={"z": [z], "R": [r]})
    proc = run_cli("counterexample", "--config", cfg, timeout=60)
    assert proc.returncode == code
    if out is None:
        assert "float64" in proc.stderr and "Traceback" not in proc.stderr
    else:
        assert proc.stdout.splitlines(keepends=True)[1] == out


@pytest.mark.parametrize(
    "z, r, fragment",
    [
        (0.3, 1e12, "float64"),
        (0.3, 1e300, "float64"),
        (10**18, 2.0, "|z| <= 1000"),
    ],
    ids=["shifted_at_1e12", "shifted_at_1e300", "shift_beyond_bound"],
)
def test_counterexample_extreme_input_exits_2_within_a_memory_cap(tmp_path, z, r, fragment):
    # the first two built one panel edge per 160 units of R before summing and
    # ran out of memory; at |z| ~ 4e17 an edge plus a panel width rounds back
    # to the edge, so the edge list grew without moving forward
    cfg = write_config(tmp_path, counterexample={"z": [z], "R": [r]})
    proc = run_cli("counterexample", "--config", cfg, timeout=60, max_memory=MEMORY_CAP)
    assert proc.returncode == 2
    assert fragment in proc.stderr and "Traceback" not in proc.stderr


def test_readme_flag_table_matches_the_parser():
    # the table under README "## CLI" lists, per subcommand, the flags it reads
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## CLI", 1)[1].split("\n## ", 1)[0]
    documented = {
        name: re.findall(r"--[a-z]+", flags)
        for name, flags in re.findall(r"^\| `(\w+)` \| (.*) \|$", section, re.M)
    }
    assert documented == {name: list(flags) for name, (_, flags) in cli._COMMANDS.items()}
