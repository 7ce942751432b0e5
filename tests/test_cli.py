import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import signed_zero_model
from stochviab.cli import main
from stochviab.dp import solve
from stochviab.io import load_model, read_value_csv, save_model
from stochviab.kernel import kernel_slice
from stochviab.model import validate


@pytest.fixture()
def model_path(tmp_path):
    path = tmp_path / "model.json"
    assert main(["example", "--p", "0.01", "--t0", "0", "--horizon", "40",
                 "--out", str(path)]) == 0
    return path


def test_example_writes_valid_model(model_path):
    model = load_model(model_path)
    assert model.time.T == 40
    assert model.states.n_points == 3


def test_example_rejects_bad_p(tmp_path, capsys):
    rc = main(["example", "--p", "0.6", "--out", str(tmp_path / "m.json")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "p must lie" in captured.err
    assert captured.out == ""


def test_solve_outputs_and_summary(model_path, tmp_path, capsys):
    out = tmp_path / "solved"
    assert main(["solve", "--model", str(model_path), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert (out / "value.csv").exists() and (out / "argmax_policy.csv").exists()
    lines = captured.out.splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("V(0, x1=[0]) = 0.817261279483274")


def test_solve_diagnostics_on_malformed_model(model_path, tmp_path, capsys):
    doc = json.loads(model_path.read_text())
    doc["wrong"] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = main(["solve", "--model", str(bad), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "wrong" in captured.err


def test_solve_diagnostics_on_incomplete_model(tmp_path, capsys):
    bad = tmp_path / "incomplete.json"
    bad.write_text(json.dumps({"time": {"t0": 0, "T": 2}}))
    rc = main(["solve", "--model", str(bad), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "missing" in captured.err and "dynamics" in captured.err


def test_solve_diagnostics_on_invalid_model(model_path, tmp_path, capsys):
    doc = json.loads(model_path.read_text())
    doc["noise"]["probs"] = [0.005, 0.885, 0.01]  # sums to 0.9
    bad = tmp_path / "invalid.json"
    bad.write_text(json.dumps(doc))
    rc = main(["solve", "--model", str(bad), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith(f"error: {bad}: ")
    assert "DisturbanceLaw" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "field,value,message",
    [
        (("noise", "probs"), "[0.01, NaN, 0.01]",
         "NaN is not a JSON number; numbers must be finite"),
        (("noise", "probs"), "[0.01, 1e999, 0.01]",
         "DisturbanceLaw: probabilities must be finite; "
         "DisturbanceLaw: probabilities must lie in [0, 1]; "
         "DisturbanceLaw: probabilities sum to inf, expected 1 within 1e-12 (normalization)"),
        (("controls", "lists"), "[[1.0], [1.0, 2.0]]",
         "controls: row [1] has 2 entries, row [0] has 1"),
        (("states", "points"), '[[-1.0], ["zero"], [1.0]]',
         "states.points: expected a number, got 'zero'"),
        (("time", "t0"), "0.5", "time.t0: expected an integer, got 0.5"),
        (("time", "T"), "-1", "TimeGrid requires t0 < T, got t0=0, T=-1"),
        (("noise", "probs"), "[0.5, 0.5]", "noise: 3 support atoms but 2 probabilities"),
        # a repeated field is refused, not read as its last value
        (("time", "T"), '3, "T": 5', "time: duplicate field 'T'"),
        (("constraints", "stationary"), "[0, 1.5, 2]",
         "constraints.stationary[1]: expected an integer, got 1.5"),
        (("dynamics", "body"), '["x + + "]',
         "dynamics.body[0]: expected a number, name or '(' (offset 4)"),
        (("dynamics", "body"), '["x + y"]', "dynamics.body[0]: unknown variable 'y' (offset 4)"),
        (("dynamics", "body"), '["x + u + w"], "mode": "table"',
         "dynamics: duplicate field 'mode'"),
        pytest.param(("dynamics", "body"), '["' + "(" * 300 + "x" + ")" * 300 + '"]',
                     "dynamics.body[0]: expression nested deeper than 100 levels (offset 100)",
                     id="300-parentheses"),
        pytest.param(("dynamics", "body"), '["' + "-" * 3000 + 'x"]',
                     "dynamics.body[0]: expression nested deeper than 100 levels (offset 100)",
                     id="3000-unary-minus"),
        pytest.param(("dynamics", "body"), '["x' + "+0" * 2999 + '"]',
                     "dynamics.body[0]: expression nested deeper than 100 levels (offset 201)",
                     id="3000-term-chain"),
        # a non-ASCII digit is no digit of a number
        (("dynamics", "body"), '["x + u + w + \\u00b2"]',
         "dynamics.body[0]: unexpected character '²' (offset 12)"),
        pytest.param(("dynamics", "body"), "[" * 200000 + "]" * 200000,
                     "JSON nested too deeply to read", id="200000-nested-lists"),
        # an expression is a JSON string, never read through str()
        pytest.param(("dynamics", "body"), "[5]", "dynamics.body[0]: expected a string",
                     id="body-number"),
        pytest.param(("dynamics", "body"), "[true]", "dynamics.body[0]: expected a string",
                     id="body-true"),
        pytest.param(("dynamics", "body"), "[null]", "dynamics.body[0]: expected a string",
                     id="body-null"),
        # a number is a JSON number: not a string, a boolean or an integer past a double
        (("noise", "probs"), '["0.01", "0.98", "0.01"]',
         "noise.probs: expected a number, got '0.01'"),
        (("states", "points"), "[[-1.0], [false], [true]]",
         "states.points: expected a number, got False"),
        pytest.param(("states", "points"), "[[-1.0], [0.0], [1" + "0" * 400 + "]]",
                     "states.points: integer of 401 digits is past the range of a double",
                     id="points-400-digits"),
        # errors of compiling the model name the file too
        (("dynamics", "body"), '["x + u + w + 1 / x"]',
         "dynamics evaluation failed at (t=0, x=1, u=0, w=0): division by zero"),
        (("time", "T"), "100000000",
         "transition table needs 19200000000 bytes (100000000 stages x 4 states x 2 control "
         "slots x 3 atoms x 8 B), over the guard of 2147483648 bytes"),
        pytest.param(("states", "points"), '[[-1.0], [0.0], [1.0]], "dim": 1',
                     "states: duplicate field 'dim'", id="repeated-dim"),
        # a string of 10^6 characters is shown by its first 200: one short line
        pytest.param(("states", "points"), '["' + "x" * 10**6 + '", [0.0], [1.0]]',
                     f"states.points: expected a number, got {'x' * 200!r}...",
                     id="long-point"),
        # a horizon of 4300 digits is past the 64-bit stages, and named by its size
        pytest.param(("time", "T"), "1" + "0" * 4299,
                     "TimeGrid stages must be 64-bit integers, got T=integer of 4300 digits",
                     id="T-of-4300-digits"),
        # the last 64-bit stage: its byte count is reckoned, and refused by the guard
        pytest.param(("time", "T"), "9223372036854775807",
                     "transition table needs 1770887431076116954944 bytes (9223372036854775807 "
                     "stages x 4 states x 2 control slots x 3 atoms x 8 B), over the guard of "
                     "2147483648 bytes", id="T-at-the-last-64-bit-stage"),
        # a list is cut at 200 characters, a field name of 10^6 characters in it
        pytest.param(("time", "T"), '3, "' + "x" * 10**6 + '": 1',
                     "time: unknown field(s) ['" + "x" * 198 + "...", id="long-unknown-field"),
    ],
)
def test_solve_rejects_malformed_numbers(model_path, tmp_path, capsys, field, value, message):
    doc = json.loads(model_path.read_text())
    doc[field[0]][field[1]] = "@"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc).replace('"@"', value))
    rc = main(["solve", "--model", str(bad), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == f"error: {bad}: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "parts,message",
    [
        pytest.param({"constraints": {"mode": "box",
                                      "stationary": {"lower": [-1.0], "upper": [1.0, 1.0]}}},
                     "box constraint: lower/upper must have equal length", id="box-bounds"),
        pytest.param({"dynamics": {"mode": "table", "body": 5}},
                     "dynamics table: expected a list of stages, got 5", id="table-body-number"),
        # state 0 lists 1 of its 2 controls
        pytest.param({"dynamics": {"mode": "table", "body": [
            [[[0, 0, 0]], [[1, 1, 1], [1, 1, 1]], [[2, 2, 2], [2, 2, 2]]]] * 40}},
                     "dynamics table at (t=0, x=0): 1 control rows, expected 2",
                     id="table-missing-row"),
        pytest.param({"states": {"dim": 0, "points": [[]]}},
                     "StateSpace needs points of at least one coordinate, got shape (1, 0)",
                     id="points-of-no-coordinate"),
    ],
)
def test_solve_rejects_malformed_parts(model_path, tmp_path, capsys, parts, message):
    """Parts of the example's file replaced whole: each fault is one stderr line."""
    doc = {**json.loads(model_path.read_text()), **parts}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["solve", "--model", str(bad), "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {bad}: {message}\n")


@pytest.mark.parametrize(
    "part,value,message",
    [
        ("constraints", {"mode": "set", "stationary": [0, 1, 2, 7]},
         "ConstraintSets: stage index 0..1000000000000 references invalid state indices [7] "
         "(the sink is never a member)"),
        ("controls", {"mode": "per_state", "lists": [[[-1.0], [1.0]], [], [[-1.0], [1.0]]]},
         "ControlMap: empty admissible control list at (t=0..999999999999, x=1); "
         "a non-empty list is required"),
    ],
)
def test_one_stationary_fault_over_10_12_stages(model_path, tmp_path, capsys, part, value,
                                                message):
    """A fault of a part stored once is named once, with the stages that read it."""
    doc = json.loads(model_path.read_text())
    doc["time"]["T"] = 10**12
    doc[part] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    model = load_model(bad)
    start = time.perf_counter()
    assert validate(model) == [message]
    assert time.perf_counter() - start < 1.0
    assert main(["solve", "--model", str(bad), "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {bad}: {message}\n")


@pytest.mark.parametrize("command", [
    ["solve", "--out", "{o}"],
    ["policy", "--out", "{o}"],
    ["simulate", "--x0", "1", "--samples", "3", "--out", "{o}"],
    ["kernel", "--time", "9223372036854775808", "--beta", "0.5", "--out", "{o}"],
])
def test_stages_past_64_bits_are_refused(model_path, tmp_path, capsys, command):
    """A file of such stages once solved, then failed with a traceback in the
    CSV writer, or wrote each stage wrapped to -2**63; it writes nothing now."""
    doc = json.loads(model_path.read_text())
    doc["time"] = {"t0": 2**63, "T": 2**63 + 40}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "o"
    rc = main([command[0], "--model", str(bad), *(a.format(o=out) for a in command[1:])])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (2, "") and not out.exists()
    assert captured.err == (
        f"error: {bad}: TimeGrid stages must be 64-bit integers, got t0=9223372036854775808\n")


def test_value_file_of_stages_past_64_bits_is_refused(model_path, tmp_path, capsys):
    assert main(["solve", "--model", str(model_path), "--out", str(tmp_path / "s")]) == 0
    head, *rows = (tmp_path / "s" / "value.csv").read_text().splitlines()
    bad = tmp_path / "value.csv"
    bad.write_text("\n".join([head, *(f"{2**63},{r.split(',', 1)[1]}" for r in rows[:3])]) + "\n")
    capsys.readouterr()
    out = tmp_path / "k.csv"
    rc = main(["kernel", "--values", str(bad), "--time", str(2**63), "--beta", "0.5",
               "--out", str(out)])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (2, "") and not out.exists()
    assert captured.err == (
        f"error: {bad}: line 2: stage 9223372036854775808 is outside the 64-bit integers\n")


def test_solve_missing_file_is_io_error(tmp_path, capsys):
    rc = main(["solve", "--model", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "nope.json" in captured.err


def test_example_output_to_unwritable_path(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    target = blocker / "model.json"
    rc = main(["example", "--p", "0.01", "--out", str(target)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "blocker" in captured.err


def test_kernel_from_values_composes_with_in_process(model_path, tmp_path, capsys):
    out = tmp_path / "solved"
    main(["solve", "--model", str(model_path), "--out", str(out)])
    capsys.readouterr()

    assert main(["kernel", "--values", str(out / "value.csv"),
                 "--time", "39", "--beta", "0.995"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["-1", "1"]

    vf = read_value_csv(out / "value.csv")
    model = load_model(model_path)
    vf_direct, _ = solve(model)
    for beta in (0.1, 0.5, 0.9, 0.99, 0.995, 1.0):
        for t in (0, 17, 39, 40):
            assert (kernel_slice(vf, t, beta).members
                    == kernel_slice(vf_direct, t, beta).members)


def test_kernel_beta_zero_is_usage_error(model_path, capsys):
    rc = main(["kernel", "--model", str(model_path), "--time", "0", "--beta", "0"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "beta" in captured.err


def test_kernel_stage_out_of_horizon(model_path, capsys):
    rc = main(["kernel", "--model", str(model_path), "--time", "41", "--beta", "0.5"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "stage" in captured.err


def test_value_query(model_path, capsys):
    assert main(["value", "--model", str(model_path), "--time", "40", "--x0", "1"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_value_prints_the_whole_stage_without_x0(model_path, capsys):
    assert main(["value", "--model", str(model_path), "--time", "39"]) == 0
    assert capsys.readouterr().out == "0 1\n1 0.98999999999999999\n2 1\n"


def test_value_needs_a_source(capsys):
    assert main(["value", "--time", "0", "--x0", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: one of --values or --model is required\n"


def test_kernel_out_writes_the_slice(model_path, tmp_path, capsys):
    out = tmp_path / "kernel.csv"
    assert main(["kernel", "--model", str(model_path), "--time", "39", "--beta", "0.995",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == "-1\n1\n"
    assert out.read_text() == "t,beta,state_index,x1\n39,0.995,0,-1\n39,0.995,2,1\n"


@pytest.mark.parametrize("x0", [-4, -1, 3, 99])
@pytest.mark.parametrize("source", ["--values", "--model"])
def test_value_rejects_x0_outside_the_states(model_path, tmp_path, capsys, source, x0):
    path = model_path
    if source == "--values":
        assert main(["solve", "--model", str(model_path), "--out", str(tmp_path / "s")]) == 0
        path = tmp_path / "s" / "value.csv"
    capsys.readouterr()
    rc = main(["value", source, str(path), "--time", "0", "--x0", str(x0)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == f"error: x0 must be a non-sink state index in 0..2, got {x0}\n"


@pytest.mark.parametrize("source", ["--model", "--values"])
def test_files_that_are_not_utf8(model_path, tmp_path, capsys, source):
    path, bad = model_path, tmp_path / "bad"
    args = ["solve", "--model", str(bad), "--out", str(tmp_path / "o")]
    if source == "--values":
        assert main(["solve", "--model", str(model_path), "--out", str(tmp_path / "s")]) == 0
        path, args = tmp_path / "s" / "value.csv", ["value", "--values", str(bad), "--time", "0"]
    bad.write_bytes(path.read_bytes()[:40] + b"\xff" + path.read_bytes()[41:])
    capsys.readouterr()
    rc = main(args)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == f"error: {bad}: not UTF-8: invalid start byte at byte 40\n"


def test_policy_export(model_path, tmp_path):
    out = tmp_path / "policy.csv"
    assert main(["policy", "--model", str(model_path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,state_index,control_index,u1"
    assert lines[1] == "0,0,1,1"
    assert lines[3] == "0,2,0,-1"


def test_simulate_nine_paths(model_path, tmp_path, capsys):
    out = tmp_path / "traj.csv"
    plot = tmp_path / "plot.csv"
    rc = main(["simulate", "--model", str(model_path), "--x0", "1",
               "--samples", "9", "--seed", "11",
               "--out", str(out), "--plot-data", str(plot)])
    captured = capsys.readouterr()
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 9 * 41
    assert captured.out.startswith("success_fraction=")
    plot_lines = plot.read_text().splitlines()
    assert plot_lines[0] == "t," + ",".join(f"x_sample{i}" for i in range(9))
    assert len(plot_lines) == 1 + 41


@pytest.mark.parametrize(
    "name,x0,want",
    [
        ("example", 1, ("2bff96fcf5b4f3be", "e1a08ab81cc44e36")),
        ("signed-zero", 0, ("adc5cf5fa0ec9827", "27f6bc6e0392ddd6")),
    ],
)
def test_simulate_file_bytes_pinned(model_path, tmp_path, capsys, name, x0, want):
    if name == "signed-zero":
        model_path = tmp_path / "signed-zero.json"
        save_model(signed_zero_model(), model_path)
    out, plot = tmp_path / "traj.csv", tmp_path / "plot.csv"
    assert main(["simulate", "--model", str(model_path), "--x0", str(x0),
                 "--samples", "12", "--seed", "7",
                 "--out", str(out), "--plot-data", str(plot)]) == 0
    capsys.readouterr()
    got = tuple(hashlib.sha256(p.read_bytes()).hexdigest()[:16] for p in (out, plot))
    assert got == want


def test_simulate_rejects_sink_start(model_path, capsys):
    rc = main(["simulate", "--model", str(model_path), "--x0", "3", "--samples", "2"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "x0" in captured.err


def test_simulate_refuses_paths_over_the_guard(model_path, capsys):
    rc = main(["simulate", "--model", str(model_path), "--x0", "1",
               "--samples", "1000000000"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: recorded paths need 969000000000 bytes")
    assert captured.err.count("\n") == 1


def test_estimate_report_line(model_path, capsys):
    rc = main(["estimate", "--model", str(model_path), "--x0", "1",
               "--samples", "5000", "--seed", "3"])
    captured = capsys.readouterr()
    assert rc == 0
    parts = captured.out.split()
    assert len(parts) == 5
    mean, n, lo, hi, seed = float(parts[0]), int(parts[1]), float(parts[2]), float(parts[3]), int(parts[4])
    assert n == 5000 and seed == 3
    assert 0 <= lo <= mean <= hi <= 1


@pytest.mark.parametrize("command", ["simulate", "estimate"])
@pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "-18446744073709551616"])
def test_seeds_outside_64_bits_are_refused(model_path, tmp_path, capsys, command, seed):
    """Such a seed once walked the streams of its 64-bit fold (-1 those of 2^64 - 1)."""
    out = tmp_path / "traj.csv"
    extra = ["--out", str(out)] if command == "simulate" else []
    rc = main([command, "--model", str(model_path), "--x0", "1", "--seed", seed, *extra])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and not out.exists()
    assert captured.err == f"error: --seed must lie in 0..18446744073709551615, got {seed}\n"


@pytest.mark.parametrize("command", ["simulate", "estimate"])
@pytest.mark.parametrize("seed", ["0", "18446744073709551615"])
def test_seeds_at_the_ends_of_64_bits_are_taken(model_path, capsys, command, seed):
    rc = main([command, "--model", str(model_path), "--x0", "1", "--samples", "20", "--seed", seed])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    assert captured.out.rstrip("\n").endswith(seed)


def test_oracle_value_and_kernel(capsys):
    assert main(["oracle", "--p", "0.01", "--horizon", "40", "--time", "39",
                 "--x0", "0"]) == 0
    assert capsys.readouterr().out == "0.98999999999999999\n"
    assert main(["oracle", "--p", "0.01", "--horizon", "40", "--time", "39",
                 "--beta", "0.995"]) == 0
    assert capsys.readouterr().out == "boundary_pair -1 1\n"


def test_oracle_refuses_a_bad_p_before_an_x0_off_the_grid(capsys):
    assert main(["oracle", "--p", "0.01", "--horizon", "40", "--time", "0", "--x0", "5"]) == 0
    assert capsys.readouterr().out == "0\n"
    rc = main(["oracle", "--p", "0.7", "--horizon", "40", "--time", "0", "--x0", "5"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == "error: p must lie in (0, 1/2), got 0.7\n"


def test_oracle_refuses_a_horizon_past_the_guard(capsys):
    rc = main(["oracle", "--p", "0.01", "--horizon", "1000000000000", "--time", "0", "--x0", "0"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == ("error: T - t = 1000000000000 stages exceed the closed form's "
                            "guard of 1000000\n")


def test_oracle_requires_query(capsys):
    rc = main(["oracle", "--p", "0.01", "--horizon", "40", "--time", "39"])
    captured = capsys.readouterr()
    assert rc == 2 and "--x0" in captured.err


_NINES = "9" * 5000


@pytest.mark.parametrize(
    "args,shown",
    [
        (["estimate", "--model", "@", "--x0", "1", "--seed", "1.5"], "--seed: '1.5'"),
        # past the interpreter's 4300 digits: shown by its first 200
        (["estimate", "--model", "@", "--x0", "1", "--seed", _NINES],
         f"--seed: {'9' * 200!r}..."),
        (["simulate", "--model", "@", "--x0", "one"], "--x0: 'one'"),
        (["estimate", "--model", "@", "--x0", "1", "--samples", "1e3"], "--samples: '1e3'"),
        (["value", "--model", "@", "--time", "0.0"], "--time: '0.0'"),
        (["example", "--p", "0.01", "--t0", "", "--out", "@"], "--t0: ''"),
        (["oracle", "--p", "0.01", "--horizon", _NINES, "--time", "0", "--x0", "0"],
         f"--horizon: {'9' * 200!r}..."),
        # a negative value after its flag, which argparse alone reads as an option
        (["value", "--model", "@", "--time", "-1e3"], "--time: '-1e3'"),
        (["value", "--model", "@", "--time=-1e3"], "--time: '-1e3'"),
    ],
)
def test_an_integer_flag_refuses_in_one_line(model_path, capsys, args, shown):
    rc = main([str(model_path) if a == "@" else a for a in args])
    captured = capsys.readouterr()
    option, text = shown.split(": ", 1)
    assert rc == 2 and captured.out == ""
    assert captured.err == f"error: {option}: expected an integer, got {text}\n"


@pytest.mark.parametrize(
    "args,shown",
    [
        (["example", "--p", "abc", "--out", "@"], "--p: 'abc'"),
        # shown by its first 200 characters
        (["oracle", "--p", "x" * 3000, "--horizon", "3", "--time", "0", "--beta", "0.5"],
         f"--p: {'x' * 200!r}..."),
        (["kernel", "--model", "@", "--time", "0", "--beta", "abc"], "--beta: 'abc'"),
        (["oracle", "--p", "0.01", "--horizon", "3", "--time", "0", "--beta", ""], "--beta: ''"),
        (["kernel", "--model", "@", "--time", "0", "--beta", "-1e-3x"], "--beta: '-1e-3x'"),
    ],
)
def test_a_float_flag_refuses_in_one_line(model_path, capsys, args, shown):
    rc = main([str(model_path) if a == "@" else a for a in args])
    captured = capsys.readouterr()
    option, text = shown.split(": ", 1)
    assert rc == 2 and captured.out == ""
    assert captured.err == f"error: {option}: expected a number, got {text}\n"


@pytest.mark.parametrize(
    "args,message",
    [
        (["oracle", "--p", "nan", "--horizon", "3", "--time", "0", "--beta", "0.5"],
         "p must lie in (0, 1/2), got nan"),
        (["example", "--p", "1e999", "--out", "@"], "p must lie in (0, 1/2), got inf"),
        (["oracle", "--p", "0.01", "--horizon", "3", "--time", "0", "--beta=-inf"],
         "beta must lie in (0, 1], got -inf"),
        # the same value after its flag, which argparse alone reads as an option
        (["oracle", "--p", "0.01", "--horizon", "3", "--time", "0", "--beta", "-inf"],
         "beta must lie in (0, 1], got -inf"),
        (["oracle", "--p", "0.01", "--horizon", "3", "--time", "0", "--beta", "-1e-3"],
         "beta must lie in (0, 1], got -0.001"),
        (["oracle", "--p", "0.01", "--horizon", "3", "--time", "0", "--beta=-1e-3"],
         "beta must lie in (0, 1], got -0.001"),
        (["oracle", "--p", "-1e-3", "--horizon", "3", "--time", "0", "--beta", "0.5"],
         "p must lie in (0, 1/2), got -0.001"),
        (["kernel", "--model", "@", "--time", "0", "--beta", "1.5"],
         "beta must lie in (0, 1], got 1.5"),
    ],
)
def test_a_float_flag_passes_on_every_float_text(model_path, capsys, args, message):
    rc = main([str(model_path) if a == "@" else a for a in args])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("tail", [["--beta"], ["--beta", "--x0", "1"], ["--beta", "-h"]])
def test_a_flag_with_no_value_keeps_the_usage_error(capsys, tail):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--p", "0.01", "--horizon", "3", "--time", "0", *tail])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and err.startswith("usage: stochviab oracle")
    assert err.endswith("error: argument --beta: expected one argument\n")


@pytest.mark.parametrize("tail", [["--bet", "-1e-3"], ["--bet=-1e-3"], ["--bet", "0.5"]])
def test_an_abbreviated_flag_is_unrecognized(capsys, tail):
    """An abbreviation once read a negative number as an option (``--bet -1e-3``)
    but a joined one as its value; no flag takes an abbreviation now."""
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--p", "0.01", "--horizon", "3", "--time", "0", *tail])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.splitlines()[-1] == f"stochviab: error: unrecognized arguments: {' '.join(tail)}"


@pytest.mark.parametrize("command,query", [("value", ["--x0", "1"]), ("kernel", ["--beta", "0.5"])])
def test_values_and_model_are_refused_together(tmp_path, capsys, command, query):
    """--model was once ignored beside --values; neither file is read."""
    rc = main([command, "--values", str(tmp_path / "value.csv"),
               "--model", str(tmp_path / "m.json"), "--time", "0", *query])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == f"error: {command} takes one of --values and --model, not both\n"


def test_oracle_refuses_x0_with_beta(capsys):
    """--beta was once ignored, unchecked, beside --x0."""
    rc = main(["oracle", "--p", "0.01", "--horizon", "3", "--time", "0", "--x0", "0",
               "--beta", "nan"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == "error: oracle takes one of --x0 and --beta, not both\n"
