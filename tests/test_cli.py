import json
from pathlib import Path

import numpy as np
import pytest

from stochviab.cli import main
from stochviab.dp import solve
from stochviab.io import load_model, read_value_csv
from stochviab.kernel import kernel_slice


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
        (("noise", "probs"), "[0.01, NaN, 0.01]", "NaN is not a JSON number"),
        (("noise", "probs"), "[0.01, 1e999, 0.01]", "probabilities must be finite"),
        (("controls", "lists"), "[[1.0], [1.0, 2.0]]", "controls: expected numbers"),
        (("states", "points"), '[[-1.0], ["zero"], [1.0]]', "states.points: expected numbers"),
        (("time", "t0"), "0.5", "time.t0: expected an integer"),
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
    assert captured.err.startswith(f"error: {bad}: ")
    assert message in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""


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


def test_simulate_rejects_sink_start(model_path, capsys):
    rc = main(["simulate", "--model", str(model_path), "--x0", "3", "--samples", "2"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "x0" in captured.err


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


def test_oracle_value_and_kernel(capsys):
    assert main(["oracle", "--p", "0.01", "--horizon", "40", "--time", "39",
                 "--x0", "0"]) == 0
    assert capsys.readouterr().out == "0.98999999999999999\n"
    assert main(["oracle", "--p", "0.01", "--horizon", "40", "--time", "39",
                 "--beta", "0.995"]) == 0
    assert capsys.readouterr().out == "boundary_pair -1 1\n"


def test_oracle_requires_query(capsys):
    rc = main(["oracle", "--p", "0.01", "--horizon", "40", "--time", "39"])
    captured = capsys.readouterr()
    assert rc == 2 and "--x0" in captured.err
