import numpy as np
import pytest
from click.testing import CliRunner

from gf4bp import sim
from gf4bp.cli import main
from gf4bp.formats import parse_stabilizer_text, write_alist
from gf4bp.sim import CSV_HEADER
from gf4bp.stabilizer import build_code_4_1_1


def test_simulate_smoke(tmp_path):
    out = tmp_path / "results.csv"
    runner = CliRunner()
    result = runner.invoke(
        main,
        [
            "simulate", "--code", "4_1_1", "--p", "0.0,0.1", "--strategy",
            "standard", "--blocks", "20", "--seed", "3", "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert "BER" in result.output


def test_simulate_multiple_strategies(tmp_path):
    out = tmp_path / "results.csv"
    runner = CliRunner()
    result = runner.invoke(
        main,
        [
            "simulate", "--code", "4_1_1", "--p", "0.1", "--strategy",
            "standard,enhanced", "--blocks", "10", "--n-a", "4", "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    assert len(out.read_text().strip().split("\n")) == 3


def test_simulate_config_file(tmp_path):
    # keys are the flag names (code and p used to be rejected as unknown),
    # dashes or underscores, each value converted by its flag's type
    out_config = tmp_path / "from_config.csv"
    config = tmp_path / "run.cfg"
    config.write_text(
        f"code = 4_1_1\np = 0.07\nblocks = 15\nseed = 9\nmax-iter = 30\n"
        f"out = {out_config}\n# comment line\n"
    )
    runner = CliRunner()
    result = runner.invoke(main, ["simulate", "--config", str(config)])
    assert result.exit_code == 0, result.output
    assert out_config.exists()
    row = out_config.read_text().strip().split("\n")[1]
    assert ",15," in row
    assert row.startswith("0.07,standard,15,") and row.endswith(",9")

    # the parameter names of earlier config files still work
    out_names = tmp_path / "from_names.csv"
    names = tmp_path / "names.cfg"
    names.write_text(
        f"code_src = 4_1_1\np_list = 0.03\nmax_iter = 30\nout = {out_names}\n"
    )
    result = runner.invoke(main, ["simulate", "--blocks", "4", "--config", str(names)])
    assert result.exit_code == 0, result.output
    assert out_names.read_text().strip().split("\n")[1].startswith("0.03,standard,4,")

    # an explicit flag beats the config value
    out_flag = tmp_path / "from_flag.csv"
    result = runner.invoke(
        main,
        [
            "simulate", "--code", "4_1_1", "--p", "0.05", "--blocks", "7",
            "--config", str(config), "--out", str(out_flag),
        ],
    )
    assert result.exit_code == 0, result.output
    assert ",7," in out_flag.read_text().strip().split("\n")[1]
    assert not out_config.read_text().strip().split("\n")[1].startswith("0.05,standard,7")


def test_simulate_bad_config_key(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("bogus_key = 1\n")
    runner = CliRunner()
    result = runner.invoke(
        main, ["simulate", "--code", "4_1_1", "--config", str(config)]
    )
    assert result.exit_code != 0


@pytest.mark.parametrize(
    "args, message",
    [
        (["--n-a", "foo"], "bad --n-a 'foo'"),
        (["--p", "0.1,0.1"], "duplicate p values"),
        (["--blocks", "0"], "blocks must be at least 1"),
        # these used to end in a traceback from the run
        (["--t-pert", "0"], "t_pert must be at least 1"),
        (["--strategy", "enhanced", "--n-a", "-1"], "n_a must be nonnegative"),
        (["--delta", "-1"], "delta must be nonnegative"),
        (["--inject", "IXI"], "must cover the 4 sent qubits"),
        (["--inject", "IXQI"], "invalid Pauli symbol 'Q'"),
        (["--code", "nosuch"], "unknown code 'nosuch'"),
        # these used to write a CSV with only a header
        (["--p", ""], "no p values given"),
        (["--strategy", ","], "no strategy values given"),
        # these used to end in a traceback from the run (from a worker with
        # --workers 2)
        (["--seed", "-1"], "seed must be nonnegative"),
        (["--seed", "-1", "--workers", "2"], "seed must be nonnegative"),
        # these used to run every pc08 round on NaN priors and exit 0
        (["--delta", "nan"], "delta must be nonnegative and finite"),
        (["--delta", "inf"], "delta must be nonnegative and finite"),
        # these used to write a file named - (stdout is only trace's)
        (["--out", "-"], "--out -: this command writes a file, not stdout"),
        (["--jsonl", "-"], "--jsonl -: this command writes a file, not stdout"),
        (["--p", "0.1,x"], "bad p list '0.1,x'"),
        # standard alone used to ignore these and write a CSV
        (["--strategy", "standard", "--t-pert", "0", "--delta", "-1", "--n-a", "-3"],
         "t_pert must be at least 1"),
    ],
)
def test_simulate_bad_values_are_usage_errors(tmp_path, monkeypatch, args, message):
    monkeypatch.chdir(tmp_path)
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["simulate", "--code", "4_1_1", "--strategy", "pc08", "--blocks", "2",
         "--out", str(tmp_path / "out.csv")] + args,
    )
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert "Traceback" not in result.output
    assert sorted(tmp_path.iterdir()) == []


def test_simulate_summary_counts_every_class(tmp_path, monkeypatch):
    # the console summary used to leave out unchecked, which the CSV has;
    # above sim.DEGENERACY_LIMIT qubits (here below 4_1_1's 5) converged
    # outputs that are not the error are unchecked
    monkeypatch.setattr(sim, "DEGENERACY_LIMIT", build_code_4_1_1().n_total - 1)
    out = tmp_path / "results.csv"
    result = CliRunner().invoke(
        main,
        ["simulate", "--code", "4_1_1", "--p", "0.15,0.25", "--strategy",
         "standard,pc08,enhanced", "--blocks", "60", "--seed", "3", "--n-a", "4",
         "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    summaries = result.output.splitlines()[:-1]
    rows = out.read_text().splitlines()[1:]
    columns = CSV_HEADER.split(",")
    unchecked = 0
    for summary, row in zip(summaries, rows, strict=True):
        counts = dict(zip(columns, row.split(",")))
        assert summary.startswith(f"p={float(counts['p']):g} {counts['strategy']}: ")
        classes = " ".join(f"{name}={counts[name]}" for name in sim.OUTCOME_CLASSES)
        assert summary.endswith(f"({classes})")
        unchecked += int(counts["unchecked"])
    assert unchecked > 0


def test_trace_standard_stdout():
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["trace", "--code", "4_1_1", "--p", "0.1", "--error", "IIZX",
         "--max-iter", "5"],
    )
    assert result.exit_code == 0, result.output
    lines = [line for line in result.output.split("\n") if line and not line.startswith("#")]
    assert lines[0] == "iteration,qubit,p_I,p_X,p_Z,p_Y"
    assert len(lines) == 1 + 5 * 4
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "1"
    assert abs(sum(float(x) for x in first[2:]) - 1.0) < 1e-9


def test_trace_pinned_enhanced_round(tmp_path):
    out = tmp_path / "trace.csv"
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["trace", "--code", "4_1_1", "--p", "0.1", "--error", "IIZX",
         "--strategy", "enhanced", "--check", "2", "--qubit", "4",
         "--max-iter", "88", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    assert "e_out=IIZX" in result.output
    assert "converged=True" in result.output
    assert out.read_text().startswith("iteration,qubit,")


def test_trace_syndrome_input():
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["trace", "--code", "4_1_1", "--p", "0.1", "--syndrome", "-+++",
         "--max-iter", "3"],
    )
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize(
    "args, message",
    [
        (["--strategy", "pc08", "--check", "2", "--qubit", "0"], "x>=1"),
        (["--strategy", "enhanced", "--check", "0", "--qubit", "1"], "x>=1"),
        pytest.param(["--strategy", "enhanced", "--check", "9", "--qubit", "1"],
                     "--check 9 out of range 1..4", id="check-out-of-range"),
        pytest.param(["--strategy", "pc08", "--check", "2", "--qubit", "3"],
                     "--qubit 3 is not on check 2, whose qubits are 1, 2, 4",
                     id="pc08-qubit-not-on-check"),
        pytest.param(["--strategy", "enhanced", "--check", "2", "--qubit", "3"],
                     "--qubit 3 is not on check 2, whose qubits are 1, 2, 4",
                     id="enhanced-qubit-not-on-check"),
        (["--strategy", "pc08", "--check", "2"], "needs both check and qubit"),
        (["--strategy", "enhanced", "--check", "2"], "needs both check and qubit"),
    ],
)
def test_trace_bad_pins_are_usage_errors(args, message):
    # check 2 of [[4,1;1]] has sender qubits 1, 2 and 4; the error's first
    # run fails, so a valid pin would run its round
    result = CliRunner().invoke(
        main, ["trace", "--code", "4_1_1", "--p", "0.1", "--error", "IIZX"] + args
    )
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "strategy, args, message",
    [
        ("pc08", ["--seed", "-1"], "seed must be nonnegative"),
        # standard BP draws nothing, but its seed is checked all the same
        ("standard", ["--seed", "-1"], "seed must be nonnegative"),
        ("pc08", ["--max-iter", "0"], "max_iter must be at least 1"),
        ("pc08", ["--p", "2"], "crossover probability 2.0 not in [0, 1]"),
        ("pc08", ["--n-a", "-3"], "n_a must be nonnegative"),
        ("pc08", ["--delta", "-1"], "delta must be nonnegative and finite"),
    ],
    ids=["seed", "standard-seed", "max-iter", "p", "n-a", "delta"],
)
def test_simulate_and_trace_share_each_option_rule(tmp_path, strategy, args, message):
    # both commands build one ExperimentSpec, so a shared option is refused
    # by one rule with one message
    errors = []
    for command in (["simulate", "--blocks", "2", "--out", str(tmp_path / "out.csv")],
                    ["trace", "--error", "IIZX"]):
        result = CliRunner().invoke(main, command + ["--strategy", strategy] + args)
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output
        errors.append(result.output.splitlines()[-1])
    assert errors[0] == errors[1] == f"Error: {message}"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("syndrome_text", ["-++", "-++++"])
def test_trace_wrong_length_syndrome_is_usage_error(syndrome_text):
    result = CliRunner().invoke(
        main, ["trace", "--code", "4_1_1", "--syndrome", syndrome_text]
    )
    assert result.exit_code == 2, result.output
    assert "does not match 4 checks" in result.output


def test_trace_pinned_round_checked_before_decoding():
    # the zero syndrome converges at once, so the round would never run
    result = CliRunner().invoke(
        main, ["trace", "--code", "4_1_1", "--syndrome", "++++", "--strategy",
               "enhanced", "--check", "5", "--qubit", "1"],
    )
    assert result.exit_code == 2, result.output
    assert "out of range" in result.output


def test_build_code_construction_b(tmp_path):
    out = tmp_path / "code.stab"
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["build-code", "construction-b", "--first-row", "110", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    code = parse_stabilizer_text(out.read_text())
    assert code.n_sent == 6
    assert code.n_checks == 6
    assert "[[6," in result.output


def test_build_code_construction_b_keep(tmp_path):
    out = tmp_path / "code.stab"
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["build-code", "construction-b", "--first-row", "110", "--keep", "1,3",
         "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    assert parse_stabilizer_text(out.read_text()).n_checks == 4


def test_build_code_ea_reproduces_4_1_1(tmp_path):
    h = np.array([[1, 2, 1, 0], [1, 1, 0, 1]], dtype=np.uint8)
    alist = tmp_path / "classical.alist"
    alist.write_text(write_alist(h))
    out = tmp_path / "ea.stab"
    runner = CliRunner()
    result = runner.invoke(
        main, ["build-code", "ea", "--alist", str(alist), "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    assert "[[4, 1; 1]]" in result.output
    code = parse_stabilizer_text(out.read_text())
    assert code.checks.tolist() == build_code_4_1_1().checks.tolist()
    assert code.n_ebits == 1


@pytest.mark.parametrize(
    "args, files, message",
    [
        (["simulate", "--code", "missing_code"], {}, "unknown code 'missing_code'"),
        (["trace", "--code", "4_1_1", "--syndrome", "+*++"], {}, "bad syndrome"),
        (["build-code", "construction-b", "--first-row", "abc", "--out", "x.stab"], {},
         "bad first row"),
        # this used to read the 2 as a 0
        (["build-code", "construction-b", "--first-row", "2110001", "--out", "x.stab"], {},
         "first row entries must be 0 or 1, not 2"),
        # these used to end in a traceback
        (["simulate", "--code", "4_1_1", "--config", "bad.cfg"],
         {"bad.cfg": "blocks=abc\n"}, "Invalid value for '--blocks': 'abc'"),
        (["simulate", "--code", "4_1_1", "--config", "bad.cfg"],
         {"bad.cfg": "# comment\nblocks 4\n"}, "bad config line (expected key=value): 'blocks 4'"),
        (["build-code", "construction-b", "--first-row", "1101", "--keep", "a",
          "--out", "x.stab"], {}, "bad --keep row 'a': not an integer in 1..4"),
        (["build-code", "construction-b", "--first-row", "1101", "--keep", "9",
          "--out", "x.stab"], {}, "--keep row 9 out of range 1..4"),
        # command-line indices are reported 1-based, as typed
        (["build-code", "construction-b", "--first-row", "1101", "--keep", "0",
          "--out", "x.stab"], {}, "--keep row 0 out of range 1..4"),
        (["build-code", "construction-b", "--first-row", "1101", "--keep", "-1",
          "--out", "x.stab"], {}, "--keep row -1 out of range 1..4"),
        (["build-code", "construction-b", "--first-row", "1101", "--keep", "2,x",
          "--out", "x.stab"], {}, "bad --keep row 'x': not an integer in 1..4"),
        (["trace", "--strategy", "enhanced", "--error", "IIZX", "--check", "9",
          "--qubit", "1"], {}, "--check 9 out of range 1..4"),
        (["trace", "--strategy", "enhanced", "--error", "IIZX", "--check", "1",
          "--qubit", "9"], {}, "--qubit 9 is not on check 1, whose qubits are 1, 2, 3"),
        # these used to run something else and exit 0
        (["trace", "--strategy", "enhanced", "--error", "IIZX", "--qubit", "2"], {},
         "a pinned round needs both check and qubit"),
        (["trace", "--strategy", "standard", "--error", "IIZX", "--check", "1",
          "--qubit", "2"], {}, "standard BP has no feedback round to pin"),
        # the first run detects IYII, which satisfies check 1 (1-based)
        (["trace", "--strategy", "pc08", "--error", "IIZX", "--max-iter", "88", "--check",
          "1", "--qubit", "1"], {}, "--check 1 is not frustrated by the working outcome"),
        (["build-code", "ea", "--alist", "bad.alist", "--out", "x.stab"],
         {"bad.alist": "4 2\n"}, "expected 10 lines for a 2 x 4 alist"),
        # these used to end in an IsADirectoryError traceback
        (["simulate", "--code", "."], {}, "unknown code '.': not a built-in name or file"),
        (["trace", "--code", ".", "--error", "IIZX"], {}, "unknown code '.'"),
        # simulate --inject and trace --error share the sent-qubit rule
        (["trace", "--error", "IXI"], {}, "must cover the 4 sent qubits"),
        # both commands refuse a strategy name with the library's message
        (["simulate", "--strategy", "Standard"], {},
         "the strategies are standard, pc08 and enhanced"),
        (["trace", "--strategy", "Standard", "--error", "IIZX"], {},
         "the strategies are standard, pc08 and enhanced"),
        # a trace decodes one (p, strategy) cell of the spec it builds
        (["trace", "--p", "0.1,0.2", "--error", "IIZX"], {},
         "a trace runs one p and one strategy"),
        (["trace", "--strategy", "pc08,enhanced", "--error", "IIZX"], {},
         "a trace runs one p and one strategy"),
        # these used to decode every block, then end in a FileNotFoundError
        (["simulate", "--code", "4_1_1", "--out", "nodir/r.csv"], {},
         "--out nodir/r.csv: no directory nodir"),
        (["simulate", "--code", "4_1_1", "--jsonl", "nodir/b.jsonl"], {},
         "--jsonl nodir/b.jsonl: no directory nodir"),
        (["simulate", "--code", "4_1_1", "--config", "out.cfg"],
         {"out.cfg": "out = nodir/r.csv\n"}, "--out nodir/r.csv: no directory nodir"),
        (["trace", "--error", "IIZX", "--out", "nodir/t.csv"], {},
         "--out nodir/t.csv: no directory nodir"),
        (["trace", "--error", "IIZX", "--out", "."], {}, "'.' is a directory"),
        # a config file does not name another one
        (["simulate", "--config", "nested.cfg"],
         {"nested.cfg": "config = nested.cfg\n"}, "unknown config keys: ['config']"),
        # these used to keep the last value, or write a code, and exit 0
        (["simulate", "--config", "twice.cfg"],
         {"twice.cfg": "blocks = 10\nblocks = 20\n"}, "config key 'blocks' given twice"),
        (["simulate", "--config", "twice.cfg"],
         {"twice.cfg": "max-iter = 10\nmax_iter = 20\n"}, "config key 'max_iter' given twice"),
        (["simulate", "--config", "twice.cfg"],
         {"twice.cfg": "p = 0.1\np_list = 0.2\n"}, "config key 'p_list' given twice"),
        (["build-code", "ea", "--alist", "forged.alist", "--out", "x.stab"],
         {"forged.alist": "3 2\n2 2\n2 1 1\n1 2\n1 2\n1\n2\n2 0\n1 3\n"},
         "row list disagrees with column lists at (1, 1)"),
    ],
    ids=["unknown-code", "bad-syndrome", "bad-first-row", "first-row-not-bits",
         "config-value", "config-line-without-equals", "keep-not-int", "keep-out-of-range",
         "keep-zero", "keep-negative", "keep-mixed",
         "trace-check-out-of-range", "trace-qubit-not-on-check", "trace-qubit-alone",
         "trace-pin-under-standard", "trace-pin-on-satisfied-check", "malformed-alist",
         "code-is-directory",
         "trace-code-is-directory", "trace-error-length", "simulate-strategy-name",
         "trace-strategy-name", "trace-two-p", "trace-two-strategies", "out-dir-missing", "jsonl-dir-missing",
         "config-out-dir-missing", "trace-out-dir-missing", "trace-out-is-directory",
         "config-names-config", "config-key-twice", "config-key-twice-dash-underscore",
         "config-key-twice-by-alias", "alist-sides-disagree"],
)
def test_bad_inputs_fail(tmp_path, monkeypatch, args, files, message):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "x.stab").exists()
