import hashlib
import json
import re

import numpy as np
import pytest

from conftest import random_model, signed_zero_model
from stochviab.cli import _write_plot_data
from stochviab.dp import solve
from stochviab.io import (
    ModelFormatError,
    format_estimate,
    load_model,
    model_from_dict,
    model_to_dict,
    read_value_csv,
    save_model,
    write_argmax_csv,
    write_kernel_csv,
    write_policy_csv,
    write_trajectories_csv,
    write_value_csv,
)
from stochviab.kernel import kernel_slice, select_feedback
from stochviab.mc import ProbabilityEstimate, simulate_batch
from stochviab.model import (
    ConstraintSets,
    ControlMap,
    DisturbanceLaw,
    Model,
    StateSpace,
    TableDynamics,
    TimeGrid,
    make_three_state_example,
    validate,
)


def table_model() -> Model:
    nested = [
        [[[1, 0]], [[0, -1]]],
        [[[0, 0]], [[1, 1]]],
    ]
    return Model(
        TimeGrid(0, 2),
        StateSpace(np.array([[0.0], [2.5]])),
        ControlMap.shared(np.array([[1.0]]), 2),
        DisturbanceLaw(np.array([[0.0], [1.0]]), np.array([0.75, 0.25])),
        TableDynamics.from_nested(nested, 2, 1, 2, 2),
        ConstraintSets("set", per_stage=((0, 1), (0,), (0, 1))),
    )


class TestModelJson:
    def test_expr_model_round_trip(self, tmp_path, example_model):
        path = tmp_path / "model.json"
        save_model(example_model, path)
        loaded = load_model(path)
        assert validate(loaded) == []
        assert np.array_equal(loaded.tables.next_state, example_model.tables.next_state)
        assert np.array_equal(loaded.tables.member, example_model.tables.member)
        assert np.array_equal(loaded.noise.probs, example_model.noise.probs)
        assert loaded.dynamics.sources == ("x + u + w",)

    def test_table_model_round_trip(self, tmp_path):
        model = table_model()
        path = tmp_path / "table.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.tables.next_state, model.tables.next_state)
        assert np.array_equal(loaded.tables.member, model.tables.member)

    def test_unknown_top_level_field_rejected(self, tmp_path, example_model):
        doc = model_to_dict(example_model)
        doc["comment"] = "hello"
        with pytest.raises(ModelFormatError, match="comment"):
            model_from_dict(doc)

    def test_unknown_nested_field_rejected(self, example_model):
        doc = model_to_dict(example_model)
        doc["noise"]["skew"] = 1
        with pytest.raises(ModelFormatError, match="skew"):
            model_from_dict(doc)

    def test_missing_field_rejected(self, example_model):
        doc = model_to_dict(example_model)
        del doc["dynamics"]
        with pytest.raises(ModelFormatError, match="dynamics"):
            model_from_dict(doc)

    def test_bad_modes_rejected(self, example_model):
        doc = model_to_dict(example_model)
        doc["controls"]["mode"] = "everywhere"
        with pytest.raises(ModelFormatError, match="everywhere"):
            model_from_dict(doc)

    def test_not_json(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text("{ not json")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_non_finite_literals_rejected(self, tmp_path, example_model):
        path = tmp_path / "nan.json"
        save_model(example_model, path)
        for literal in ("NaN", "Infinity", "-Infinity"):
            path.write_text(path.read_text().replace("0.98", literal, 1))
            with pytest.raises(ModelFormatError, match=re.escape(f"{path}: {literal} is not")):
                load_model(path)
            save_model(example_model, path)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            (("controls", "lists"), [[1.0], [1.0, 2.0]], "controls: expected numbers"),
            (("states", "points"), [[-1.0], ["zero"], [1.0]], "states.points: expected numbers"),
            (("time", "t0"), 0.5, "time.t0: expected an integer, got 0.5"),
            (("time", "T"), "40", "time.T: expected an integer, got '40'"),
        ],
    )
    def test_malformed_fields_rejected(self, tmp_path, example_model, field, value, message):
        doc = model_to_dict(example_model)
        doc[field[0]][field[1]] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="^" + re.escape(f"{path}: {message}")):
            load_model(path)

    @pytest.mark.parametrize(
        "keys,literal,message",
        [
            (("dynamics", "body", 0, 0, 0, 0), "2.7",
             "dynamics table entry 2.7 at (t=0, x=0, u=0, w=0) is not an integer"),
            (("dynamics", "body", 1, 1, 0, 1), "1e999",
             "dynamics table entry inf at (t=1, x=1, u=0, w=1) is not an integer"),
            (("constraints", "per_stage", 1, 0), "1.5",
             "constraints.per_stage[1][0]: expected an integer, got 1.5"),
            (("constraints", "per_stage", 2, 1), '"a"',
             "constraints.per_stage[2][1]: expected an integer, got 'a'"),
            (("dynamics", "body"), "5", "dynamics table: expected a list of stages, got 5"),
            (("dynamics", "body", 1), "5",
             "dynamics table stage 1: expected a list of states, got 5"),
            (("dynamics", "body", 0, 1), "5",
             "dynamics table at (t=0, x=1): expected a list of control rows, got 5"),
            (("dynamics", "body", 1, 0, 0), "5",
             "dynamics table at (t=1, x=0, u=0): expected a list of disturbance entries, got 5"),
        ],
    )
    def test_integer_entries_read_strictly(self, tmp_path, keys, literal, message):
        doc = model_to_dict(table_model())
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = "@"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc).replace('"@"', literal))
        with pytest.raises(ModelFormatError, match="^" + re.escape(f"{path}: {message}")):
            load_model(path)

    def test_per_stage_constraints_round_trip(self, tmp_path):
        model = table_model()
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert doc["constraints"]["per_stage"] == [[0, 1], [0], [0, 1]]


class TestValueCsv:
    def test_round_trip_is_exact(self, tmp_path, example_model):
        vf, _ = solve(example_model)
        path = tmp_path / "value.csv"
        write_value_csv(vf, path)
        back = read_value_csv(path)
        assert back.t0 == vf.t0 and back.T == vf.T
        assert np.array_equal(back.table, vf.table)
        assert np.array_equal(back.points, vf.points)

    def test_header_and_row_order(self, tmp_path, example_model):
        vf, _ = solve(example_model)
        path = tmp_path / "value.csv"
        write_value_csv(vf, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,state_index,x1,value"
        assert lines[1].startswith("0,0,-1,")
        assert lines[2].startswith("0,1,0,")
        assert len(lines) == 1 + 41 * 3

    @pytest.mark.parametrize(
        "line,text,message",
        [
            (3, "0,1,0,zero", "line 3: malformed number in '0,1,0,zero'"),
            (2, "0,-1,-1,0.5", "line 2: negative state_index -1"),
            (4, "0,1,0,0.5", "line 4: second row for (t=0, state_index=1)"),
            (5, "1,0,-0.5,0.5", "line 5: coordinates of state_index 0 differ from an earlier row"),
            (3, "0,1,0,nan", "line 3: non-finite number in '0,1,0,nan'"),
            (3, "0,1,inf,0.5", "line 3: non-finite number in '0,1,inf,0.5'"),
            (3, "0,1,0,1.5", "line 3: value 1.5 is not a probability in [0, 1]"),
        ],
    )
    def test_malformed_rows_rejected(self, tmp_path, example_model, line, text, message):
        vf, _ = solve(example_model)
        path = tmp_path / "value.csv"
        write_value_csv(vf, path)
        lines = path.read_text().splitlines()
        lines[line - 1] = text
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError, match="^" + re.escape(f"{path}: {message}")):
            read_value_csv(path)

    def test_missing_rows_detected(self, tmp_path, example_model):
        vf, _ = solve(example_model)
        path = tmp_path / "value.csv"
        write_value_csv(vf, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ModelFormatError, match="missing"):
            read_value_csv(path)


def test_policy_and_argmax_csv(tmp_path, example_model):
    vf, am = solve(example_model)
    fb = select_feedback(am)
    ppath = tmp_path / "policy.csv"
    apath = tmp_path / "argmax.csv"
    write_policy_csv(example_model, fb, ppath)
    write_argmax_csv(example_model, am, apath)

    plines = ppath.read_text().splitlines()
    assert plines[0] == "t,state_index,control_index,u1"
    assert len(plines) == 1 + 40 * 3
    assert plines[1] == "0,0,1,1"  # state -1 picks control +1

    alines = apath.read_text().splitlines()
    assert alines[0] == "t,state_index,control_index,u1"
    # per stage: one maximizer at each boundary, two at the center
    assert len(alines) == 1 + 40 * 4


def test_kernel_csv(tmp_path, example_model):
    vf, _ = solve(example_model)
    sl = kernel_slice(vf, 39, 0.995)
    path = tmp_path / "kernel.csv"
    write_kernel_csv([sl], vf.points, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,beta,state_index,x1"
    assert lines[1] == "39,0.995,0,-1"
    assert lines[2] == "39,0.995,2,1"


def test_trajectories_csv(tmp_path, example_model):
    _, am = solve(example_model)
    fb = select_feedback(am)
    states, controls, draws, ok = simulate_batch(example_model, fb, 1, 3, 42)
    path = tmp_path / "traj.csv"
    write_trajectories_csv(example_model, states, controls, ok, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "sample,t,state_index,x1,control_index,success"
    assert len(lines) == 1 + 3 * 41
    first = lines[1].split(",")
    assert first[:3] == ["0", "0", "1"] and first[3] == "0"
    # terminal rows carry no control
    last_of_first = lines[41].split(",")
    assert last_of_first[1] == "40" and last_of_first[4] == ""


def test_trajectory_csv_sink_rows_have_empty_coords(tmp_path, example_model):
    from stochviab.kernel import FeedbackPolicy

    push_up = Model(
        example_model.time, example_model.states, example_model.controls,
        DisturbanceLaw(np.array([[1.0]]), np.array([1.0])),
        example_model.dynamics, example_model.constraints,
    )
    fb = FeedbackPolicy.constant(push_up, [1.0])
    states, controls, draws, ok = simulate_batch(push_up, fb, 1, 1, 0)
    path = tmp_path / "sink.csv"
    write_trajectories_csv(push_up, states, controls, ok, path)
    row = path.read_text().splitlines()[2].split(",")
    assert row[2] == "3" and row[3] == "" and row[5] == "0"


def test_format_estimate():
    est = ProbabilityEstimate(0.5, 100, 0.25, 0.75, 7)
    assert format_estimate(est) == "0.5 100 0.25 0.75 7"


def ragged_table_model() -> Model:
    """per_state lists of 3, 1 and 2 controls with table dynamics and ties."""
    nested = [
        [[[1, 2], [1, 2], [2, 2]], [[1, 0]], [[1, 1], [1, 1]]],
        [[[0, 0], [1, 2], [-1, 2]], [[2, 2]], [[1, 0], [2, 2]]],
        [[[1, 1], [2, 0], [0, -1]], [[0, 1]], [[1, 2], [-1, 0]]],
    ]
    return Model(
        TimeGrid(1, 4),
        StateSpace(np.array([[0.0], [0.5], [1.0]])),
        ControlMap.per_state([[[-1.0], [0.0], [1.0]], [[0.5]], [[-0.25], [0.25]]], 3),
        DisturbanceLaw(np.array([[0.0], [1.0]]), np.array([0.625, 0.375])),
        TableDynamics.from_nested(nested, 3, 3, 2, 3),
        ConstraintSets("set", per_stage=((0, 1, 2), (0, 2), (1, 2), (0, 1, 2))),
    )


def _output_digests(model: Model, tmp_path) -> dict[str, str]:
    _, am = solve(model)
    paths = {"argmax": tmp_path / "argmax.csv"}
    write_argmax_csv(model, am, paths["argmax"])
    for rule in ("smallest", "largest"):
        paths[rule] = tmp_path / f"policy-{rule}.csv"
        write_policy_csv(model, select_feedback(am, rule), paths[rule])
    return {k: hashlib.sha256(p.read_bytes()).hexdigest()[:16] for k, p in paths.items()}


class TestPinnedBytes:
    """SHA-256 prefixes of the files written for ragged control lists."""

    def test_ragged_per_state_table_model(self, tmp_path):
        model = ragged_table_model()
        save_model(model, tmp_path / "model.json")
        assert hashlib.sha256((tmp_path / "model.json").read_bytes()).hexdigest()[:16] == (
            "97c67eb2e96cef08"
        )
        assert _output_digests(model, tmp_path) == {
            "argmax": "f7b0779b2d0a7621",
            "smallest": "dc35029604684fde",
            "largest": "a93c7f1f677ef25d",
        }

    @pytest.mark.parametrize(
        "seed,want",
        [
            (0, ("a47d5b712ebfedd0", "a6031b5e93fa77e9", "2b88b7c738e681eb")),
            (3, ("bc01a0d58f5eb1be", "1994272347f99a23", "e37541be647c5a7e")),
            (8, ("c0506f255190001a", "56c8d3e80a50f239", "56c8d3e80a50f239")),
        ],
    )
    def test_random_per_stage_state_models(self, tmp_path, seed, want):
        got = _output_digests(random_model(seed), tmp_path)
        assert (got["argmax"], got["smallest"], got["largest"]) == want


def _writer_digests(model: Model, tmp_path) -> dict[str, str]:
    """Digests of the value, kernel (every stage, beta 0.5), trajectory and
    plot-data files, for 12 paths from state 0 under the default feedback."""
    vf, am = solve(model)
    paths = {k: tmp_path / f"{k}.csv" for k in ("value", "kernel", "trajectories", "plot")}
    write_value_csv(vf, paths["value"])
    slices = [kernel_slice(vf, t, 0.5) for t in range(vf.t0, vf.T + 1)]
    write_kernel_csv(slices, vf.points, paths["kernel"])
    states, controls, _, success = simulate_batch(model, select_feedback(am), 0, 12, 5)
    write_trajectories_csv(model, states, controls, success, paths["trajectories"])
    _write_plot_data(model, states, str(paths["plot"]))
    return {k: hashlib.sha256(p.read_bytes()).hexdigest()[:16] for k, p in paths.items()}


PINNED_MODELS = {
    "ragged": ragged_table_model,
    "random-0": lambda: random_model(0),
    "random-3": lambda: random_model(3),
    "random-8": lambda: random_model(8),
    "signed-zero": signed_zero_model,
}


class TestPinnedWriterBytes:
    """SHA-256 prefixes of the value, kernel, trajectory and plot-data files."""

    @pytest.mark.parametrize(
        "name,want",
        [
            ("ragged",
             ("3d06ac667fdaee79", "c8cb7ca2010986e2", "418402cb501082d0", "d5bacaddbb2407e9")),
            ("random-0",
             ("eea344e52bfa2943", "582cb26ced313781", "0e61b0750c1e0975", "43d3b79bb9305bfc")),
            ("random-3",
             ("720b5fb42dbd15d3", "7d0138b34ee80bbb", "530e76bb76332727", "4988fe43652d69c9")),
            ("random-8",
             ("951975558670281d", "6d79a7e3554c8624", "4fcd1cfb6ed6e6d6", "4ed5e392bbb119ad")),
            ("signed-zero",
             ("1088de8d45fd55b8", "a380e9fe1409f5b5", "0eb3f27c0fb1b439", "d2943c02f8d6883e")),
        ],
    )
    def test_writer_bytes(self, tmp_path, name, want):
        got = _writer_digests(PINNED_MODELS[name](), tmp_path)
        assert (got["value"], got["kernel"], got["trajectories"], got["plot"]) == want

    def test_signed_zero_model_argmax_and_policy(self, tmp_path):
        """The argmax file lists the controls -0.0 and 0.0 in one column."""
        assert _output_digests(signed_zero_model(), tmp_path) == {
            "argmax": "7e42910b7f0785eb",
            "smallest": "ba83a790938f7f70",
            "largest": "6d4866056d662ff9",
        }
        controls = {ln.rsplit(",", 1)[1]
                    for ln in (tmp_path / "argmax.csv").read_text().splitlines()[1:]}
        assert {"-0", "0"} <= controls
