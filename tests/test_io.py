import functools
import hashlib
import importlib.util
import json
import random
import re
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import random_model, signed_zero_model, walk_model
from stochviab import io
from stochviab.cli import _write_plot_data
from stochviab.dp import ArgmaxPolicy, PolicyError, ValueFunction, solve
from stochviab.io import (
    ModelFormatError,
    _json_object,
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
from stochviab.kernel import FeedbackPolicy, KernelSlice, kernel_slice, select_feedback
from stochviab.mc import ProbabilityEstimate, simulate_batch
from stochviab.model import (
    ConstraintSets,
    ControlMap,
    DisturbanceLaw,
    ExprDynamics,
    Model,
    StateSpace,
    TableDynamics,
    TimeGrid,
    make_three_state_example,
    validate,
)


# a JSON string of 10^6 characters, and how a diagnostic shows it
_LONG, _LONG_SHOWN = '"' + "x" * 10**6 + '"', repr("x" * 200) + "..."


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
        TableDynamics.from_nested(nested, 2, [1, 1], 2, 2),
        ConstraintSets("set", per_stage=((0, 1), (0,), (0, 1))),
    )


def _per_state(lists) -> ControlMap:
    return ControlMap.per_state(lists, len(lists))


# Models whose files hold a table body.  A state without controls makes a
# model invalid, but model_to_dict writes it, as [].
WRITTEN_MODELS = {
    "table": table_model,
    "ragged": lambda: ragged_table_model(),  # defined further down
    "all-sink": lambda: replace(ragged_table_model(),
                                dynamics=TableDynamics(np.full((3, 4, 3, 2), 3))),
    "no-controls": lambda: replace(
        ragged_table_model(), controls=_per_state([[[-1.0], [0.0], [1.0]], [], [[0.25]]])),
    "first-and-last-no-controls": lambda: replace(
        ragged_table_model(), controls=_per_state([[], [[0.5]], []])),
    "no-atoms": lambda: replace(
        table_model(), controls=_per_state([[[1.0]], []]),
        noise=DisturbanceLaw(np.zeros((0, 1)), np.zeros(0)),
        dynamics=TableDynamics(np.zeros((2, 3, 1, 0), np.int64))),
}


def _written_model(name: str) -> Model:
    """``WRITTEN_MODELS[name]``, or for ``random-<seed>`` that random model
    with the per_state controls in force at t0, which a file can hold."""
    if not name.startswith("random-"):
        return WRITTEN_MODELS[name]()
    model = random_model(int(name[7:]))
    return replace(model, controls=_per_state(
        [model.admissible(model.time.t0, x) for x in range(model.states.n_points)]))


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
            message = re.escape(f"{path}: {literal} is not")
            with pytest.raises(ModelFormatError, match="^" + message):
                load_model(path)
            save_model(example_model, path)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            (("controls", "lists"), [[1.0], [1.0, 2.0]],
             "controls: row [1] has 2 entries, row [0] has 1"),
            (("states", "points"), [[-1.0], ["zero"], [1.0]],
             "states.points: expected a number, got 'zero'"),
            (("time", "t0"), 0.5, "time.t0: expected an integer, got 0.5"),
            (("time", "T"), "40", "time.T: expected an integer, got '40'"),
            (("dynamics", "body"), [5], "dynamics.body[0]: expected a string"),
            (("dynamics", "body"), [True], "dynamics.body[0]: expected a string"),
            (("dynamics", "body"), [None], "dynamics.body[0]: expected a string"),
            (("dynamics", "body"), "x + u + w", "dynamics.body: expected a list of expressions"),
            (("dynamics", "mode"), "stochastic", "dynamics: unknown mode 'stochastic'"),
            (("constraints", "mode"), "ball", "constraints: unknown mode 'ball'"),
            (("states", "dim"), 2, "states: points of shape (3, 1) do not match dim 2"),
            # of two faults, the one met first in file order is named
            (("states", "points"), [[-1.0], ["zero"], [1.0, 2.0]],
             "states.points: expected a number, got 'zero'"),
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
            (("dynamics", "body"), "[[[[1, 0]], [[0, -1]]]]",
             "dynamics table: 1 stages, expected 2"),
            (("dynamics", "body", 1), "[[[0, 0]]]",
             "dynamics table stage 1: 1 states, expected 2"),
            (("dynamics", "body", 0, 1), "[[0, -1], [0, 0]]",
             "dynamics table at (t=0, x=1): 2 control rows exceed u_max=1"),
            (("dynamics", "body", 1, 0, 0), "[0]",
             "dynamics table at (t=1, x=0, u=0): 1 disturbance entries, expected 2"),
            (("controls",), '{"mode": "per_state", "lists": 5}',
             "controls: per_state lists must be a list"),
            # one row per admissible control: none missing, none past the state's count
            (("dynamics", "body", 0, 1), "[]",
             "dynamics table at (t=0, x=1): 0 control rows, expected 1"),
            # a field repeated with the same value is refused too
            (("dynamics", "mode"), '"table", "mode": "table"', "dynamics: duplicate field 'mode'"),
            # np.asarray would read true as 1
            (("dynamics", "body", 1, 0, 0, 1), "true",
             "dynamics table entry True at (t=1, x=0, u=0, w=1) is not an integer"),
            (("dynamics", "body", 0, 1, 0, 0), "null",
             "dynamics table entry None at (t=0, x=1, u=0, w=0) is not an integer"),
            (("dynamics", "body", 1, 1, 0, 0), '"3"',
             "dynamics table entry '3' at (t=1, x=1, u=0, w=0) is not an integer"),
            (("dynamics", "body", 0, 0, 0, 1), "-2",
             "dynamics table entry -2 out of range at (t=0, x=0, u=0, w=1)"),
            (("dynamics", "body", 1, 1, 0, 1), "3",
             "dynamics table entry 3 out of range at (t=1, x=1, u=0, w=1)"),
            (("dynamics", "body", 0, 1, 0, 1), "[0]",
             "dynamics table entry [0] at (t=0, x=1, u=0, w=1) is not an integer"),
            # an entry fault anywhere is named before a count of control rows
            (("dynamics", "body"), "[[[], [[0, -1]]], [[[0, 0]], [[1, true]]]]",
             "dynamics table entry True at (t=1, x=1, u=0, w=1) is not an integer"),
            # the walk in (t, x, u, w) order meets stage 0's entries before stage 1
            (("dynamics", "body"), "[[[[1, 0]], [[0, 5]]], 5]",
             "dynamics table entry 5 out of range at (t=0, x=1, u=0, w=1)"),
            (("dynamics", "body"), '[[[[1, 0]], [[0, -1], 2]], [[[0]], "x"]]',
             "dynamics table at (t=0, x=1): 2 control rows exceed u_max=1"),
            (("time",), "5", "time: expected an object"),
            (("states",), '{"dim": 0, "points": [[], []]}',
             "StateSpace needs points of at least one coordinate, got shape (2, 0)"),
            (("constraints", "stationary"), "[0]",
             "constraints: exactly one of stationary/per_stage required"),
            (("constraints", "per_stage"), "5", "constraints.per_stage: expected a list"),
            (("constraints", "per_stage", 1), "5",
             "constraints.per_stage[1]: expected a list of state indices"),
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

    @pytest.mark.parametrize(
        "model,keys,literal,message",
        [
            # np.asarray would read a numeric string as its number, and true as 1
            ("example", ("noise", "probs", 1), '"0.98"',
             "noise.probs: expected a number, got '0.98'"),
            ("example", ("states", "points", 1, 0), "false",
             "states.points: expected a number, got False"),
            ("example", ("states", "points", 2), "[true]",
             "states.points: expected a number, got True"),
            ("example", ("states", "points", 2, 0), "1" + "0" * 400,
             "states.points: integer of 401 digits is past the range of a double"),
            ("example", ("noise", "support", 0, 0), "null",
             "noise.support: expected a number, got None"),
            ("example", ("controls", "lists", 1, 0), '"1"', "controls: expected a number, got '1'"),
            ("ragged", ("controls", "lists", 2, 1, 0), "true",
             "controls list 2: expected a number, got True"),
            ("box", ("constraints", "stationary", "lower", 0), '"0.2"',
             "constraints.stationary.lower: expected a number, got '0.2'"),
            ("box", ("constraints", "stationary", "upper", 0), "-" + "9" * 309,
             "constraints.stationary.upper: integer of 309 digits is past the range of a "
             "double"),
            # integers and floats of any JSON spelling are numbers
            ("example", ("noise", "probs", 1), "98e-2", None),
            ("example", ("states", "points", 1, 0), "0", None),
            ("box", ("constraints", "stationary", "upper", 0), "1" + "0" * 300, None),
            # the points of a one-coordinate space may be given flat
            ("example", ("states", "points"), "[-1.0, 0.0, 1.0]", None),
            # a ragged row after a bad leaf: the leaf comes first in the file
            ("example", ("controls", "lists"), '[[-1.0], ["1"], [1.0, 2.0]]',
             "controls: expected a number, got '1'"),
            # a string of 10^6 characters is shown by its first 200: one short line
            pytest.param("example", ("states", "points", 1, 0), _LONG,
                         f"states.points: expected a number, got {_LONG_SHOWN}",
                         id="long-points-leaf"),
            pytest.param("example", ("controls", "lists", 0, 0), _LONG,
                         f"controls: expected a number, got {_LONG_SHOWN}",
                         id="long-control"),
            pytest.param("example", ("noise", "probs", 1), _LONG,
                         f"noise.probs: expected a number, got {_LONG_SHOWN}",
                         id="long-noise-probs"),
            pytest.param("box", ("constraints", "stationary", "upper", 0), _LONG,
                         f"constraints.stationary.upper: expected a number, got {_LONG_SHOWN}",
                         id="long-box-bound"),
            pytest.param("ragged", ("dynamics", "body", 0, 0, 0, 0), _LONG,
                         f"dynamics table entry {_LONG_SHOWN} at (t=0, x=0, u=0, w=0) "
                         "is not an integer",
                         id="long-body-entry"),
            pytest.param("example", ("constraints", "stationary", 1), _LONG,
                         f"constraints.stationary[1]: expected an integer, got {_LONG_SHOWN}",
                         id="long-set-index"),
            pytest.param("example", ("time", "T"), _LONG,
                         f"time.T: expected an integer, got {_LONG_SHOWN}",
                         id="long-time-T"),
            pytest.param("example", ("controls", "mode"), _LONG,
                         f"controls: unknown mode {_LONG_SHOWN}",
                         id="long-controls-mode"),
            pytest.param("example", ("dynamics", "body", 0), '"x + ' + "x" * 10**6 + '"',
                         f"dynamics.body[0]: unknown variable {_LONG_SHOWN} (offset 4)",
                         id="long-expression-name"),
        ],
    )
    def test_number_fields_read_strictly(self, tmp_path, model, keys, literal, message):
        doc = model_to_dict({"example": make_three_state_example(0.01),
                             "ragged": ragged_table_model(), "box": walk_model(5, 2)}[model])
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = "@"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc).replace('"@"', literal))
        if message is None:
            assert validate(load_model(path)) == []
            return
        with pytest.raises(ModelFormatError, match="^" + re.escape(f"{path}: {message}") + "$"):
            load_model(path)

    def test_more_control_rows_than_controls_refused(self, tmp_path):
        """State 0 of the body lists 2 control rows for its 1 control."""
        doc = {**model_to_dict(table_model()),
               "controls": {"mode": "per_state", "lists": [[[1.0]], [[1.0], [2.0]]]},
               "dynamics": {"mode": "table", "body": [[[[1, 0], [0, 0]], [[0, -1], [1, 1]]],
                                                      [[[0, 0]], [[1, 1], [0, 0]]]]}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        message = "dynamics table at (t=0, x=0): 2 control rows, expected 1"
        with pytest.raises(ModelFormatError, match="^" + re.escape(f"{path}: {message}") + "$"):
            load_model(path)

    @pytest.mark.parametrize(
        "keys,literal,message",
        [
            pytest.param(("noise",), '{"support": [[0.0]], "probs": [1.0]}, '
                         '"noise": {"support": [[0.0]], "probs": [1.0]}',
                         "model: duplicate field 'noise'", id="top-level"),
            pytest.param(("time", "T"), '3, "T": 5', "time: duplicate field 'T'", id="time"),
            pytest.param(("constraints", "stationary", "upper"), '[0.8], "upper": [0.9]',
                         "constraints.stationary: duplicate field 'upper'", id="box-payload"),
        ],
    )
    def test_repeated_field_refused(self, tmp_path, keys, literal, message):
        """json.loads would keep a repeated name's last value; the file is refused."""
        doc = model_to_dict(walk_model(5, 2))
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = "@"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc).replace('"@"', literal))
        with pytest.raises(ModelFormatError, match="^" + re.escape(f"{path}: {message}") + "$"):
            load_model(path)

    def test_integer_past_the_json_readers_digit_limit(self, tmp_path, example_model):
        """Python 3.10.7 and later refuse to read it, as a ValueError."""
        path = tmp_path / "bad.json"
        save_model(example_model, path)
        path.write_text(path.read_text().replace("0.98", "1" * 5000, 1))
        with pytest.raises(ModelFormatError, match="^" + re.escape(f"{path}: ")):
            load_model(path)

    @pytest.mark.parametrize("name", [*WRITTEN_MODELS, *(f"random-{s}" for s in range(200))])
    def test_save_model_writes_the_indented_json(self, tmp_path, name):
        """The spliced table body gives the bytes of ``json.dumps(indent=2)``."""
        model = _written_model(name)
        save_model(model, tmp_path / "m.json")
        want = json.dumps(model_to_dict(model), indent=2) + "\n"
        assert (tmp_path / "m.json").read_text() == want

    @pytest.mark.parametrize("name", [*WRITTEN_MODELS, "example", "box"])
    def test_model_to_dict_is_the_document_of_the_file(self, tmp_path, name):
        model = {"example": lambda: make_three_state_example(0.01),
                 "box": lambda: walk_model(5, 2), **WRITTEN_MODELS}[name]()
        save_model(model, tmp_path / "m.json")
        doc = model_to_dict(model)
        assert doc == json.loads((tmp_path / "m.json").read_text())
        if isinstance(model.dynamics, TableDynamics):  # body[t][x][:counts[x]], -1 the sink
            m, counts = model.states.n_points, model.controls.counts[0]
            body = np.where(model.dynamics.table == m, -1, model.dynamics.table)
            assert doc["dynamics"]["body"] == [[row[:n].tolist() for row, n in zip(stage, counts)]
                                               for stage in body[:, :m]]

    def test_save_model_writes_one_stage_at_a_time(self, tmp_path):
        """Its memory peak stays below the successor table and a few stages'
        text, far below the text of the whole body."""
        n, steps = 201, 100
        rng = np.random.default_rng(5)
        model = replace(walk_model(n, steps), dynamics=TableDynamics(
            rng.integers(0, n + 1, size=(steps, n + 1, 3, 5))))
        path = tmp_path / "m.json"
        tracemalloc.start()
        try:
            save_model(model, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table, stage_text = model.dynamics.table.nbytes, path.stat().st_size // steps
        assert peak < table + 4 * stage_text
        assert path.read_text() == json.dumps(model_to_dict(model), indent=2) + "\n"

    @pytest.mark.parametrize(
        "parts,message",
        [
            ({"controls": ControlMap.per_stage_state([[[[1.0]], [[1.0]]]] * 2, 2)},
             "the model file format stores shared or per_state controls only"),
            ({"controls": _per_state([[[1.0], [2.0]], [[1.0]]])},
             "dynamics table has 1 control slots, but up to 2 controls are admissible"),
            # json would write NaN or Infinity, which load_model refuses
            ({"states": StateSpace([[0.0], [np.nan]])},
             "states.points[1][0]: nan is not a JSON number; numbers must be finite"),
            # two parts no file holds: the first in document order is named
            ({"states": StateSpace([[0.0], [np.nan]]),
              "controls": _per_state([[[1.0], [2.0]], [[1.0]]])},
             "states.points[1][0]: nan is not a JSON number; numbers must be finite"),
            ({"controls": ControlMap.shared([[-np.inf]], 2)},
             "controls.lists[0][0]: -inf is not a JSON number; numbers must be finite"),
            ({"controls": _per_state([[[1.0]], [[np.inf]]])},
             "controls.lists[1][0][0]: inf is not a JSON number; numbers must be finite"),
            ({"noise": DisturbanceLaw([[0.0], [np.nan]], [0.75, 0.25])},
             "noise.support[1][0]: nan is not a JSON number; numbers must be finite"),
            ({"noise": DisturbanceLaw([[0.0], [1.0]], [0.75, np.inf])},
             "noise.probs[1]: inf is not a JSON number; numbers must be finite"),
            ({"constraints": ConstraintSets("box", stationary=([0.0], [np.inf]))},
             "constraints.stationary.upper[0]: inf is not a JSON number; numbers must be finite"),
            ({"constraints": ConstraintSets("box", per_stage=(
                ([0.0], [1.0]), ([0.0, -np.inf], [1.0, np.nan]), ([0.0], [1.0])))},
             "constraints.per_stage[1].lower[1]: -inf is not a JSON number; "
             "numbers must be finite"),
            # an integer whose text the interpreter refuses, as json's reader does
            ({"constraints": ConstraintSets("set", stationary=(0, 1, 10**5000))},
             "constraints.stationary[2]: integer of more than 4300 digits is past the integers "
             "a JSON reader takes"),
        ],
    )
    def test_save_model_refuses_what_a_file_cannot_hold(self, tmp_path, parts, message):
        model = replace(table_model(), **parts)
        with pytest.raises(ModelFormatError, match="^" + re.escape(message) + "$"):
            save_model(model, tmp_path / "m.json")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("layout", ["shared", "per_state"])
    def test_save_model_writes_each_double_bit_for_bit(self, tmp_path, layout):
        """``-0.0 == 0.0``, so ``json.loads`` of the writer's own text cannot
        show one written for the other: the file's doubles are compared with
        the model's by their bits."""
        model = Model(
            TimeGrid(0, 2),
            StateSpace([[0.0, 2.0], [-0.0, 2.0], [0.0, -0.0]]),
            ControlMap.shared([[-0.0, 0.0], [0.0, -0.0], [0.0, 0.0]], 3),
            DisturbanceLaw([[0.0, -0.0], [-0.0, 0.0]], [0.5, 0.5]),
            ExprDynamics(("x1 + u1 + w1", "x2 + u2 + w2")),
            ConstraintSets("box", stationary=([-0.0, 0.0], [0.0, -0.0])),
        )
        lists = [model.controls.vectors[0, 0]]
        if layout == "per_state":
            lists = [[[0.0, -0.0]], [[-0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.0, -0.0]]]
            model = replace(model, controls=_per_state(lists), constraints=ConstraintSets(
                "box", per_stage=[([0.0, -0.0], [-0.0, 0.0])] * 3))
        save_model(model, tmp_path / "m.json")
        doc = json.loads((tmp_path / "m.json").read_text())
        controls, cons = doc["controls"]["lists"], doc["constraints"]
        if layout == "shared":
            controls, cons = [controls], {"per_stage": [cons["stationary"]]}
        payloads = model.constraints.per_stage or [model.constraints.stationary]
        written = [doc["states"]["points"], *controls, doc["noise"]["support"],
                   doc["noise"]["probs"],
                   *(box[side] for box in cons["per_stage"] for side in ("lower", "upper"))]
        held = [model.states.points, *lists, model.noise.support, model.noise.probs,
                *(bound for payload in payloads for bound in payload)]
        assert len(written) == len(held)
        for got, want in zip(written, held):
            got, want = np.array(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_per_state_model_round_trip(self, tmp_path):
        save_model(ragged_table_model(), tmp_path / "a.json")
        save_model(load_model(tmp_path / "a.json"), tmp_path / "b.json")
        assert (tmp_path / "b.json").read_bytes() == (tmp_path / "a.json").read_bytes()

    def test_per_stage_constraints_round_trip(self, tmp_path):
        model = table_model()
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert doc["constraints"]["per_stage"] == [[0, 1], [0], [0, 1]]


@functools.cache
def _workloads():
    """perfbench's workload generator, which imports no stochviab."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _written_text(name: str) -> str:
    """The text of a model file holding a table body, as save_model or
    perfbench (``json.dumps(indent=2)``) writes it."""
    if name.startswith("table-1d-"):
        _, _, scale, seed = name.split("-")
        return _workloads().generate("table-1d", int(seed), scale).model.text()
    return "".join(io._model_text(_written_model(name)))


def _whole_text_model(text: str) -> Model:
    return model_from_dict(json.loads(text, object_pairs_hook=_json_object))


@pytest.fixture()
def json_texts(monkeypatch) -> list:
    """The texts that ``json.loads`` reads while the test runs."""
    texts, loads = [], json.loads

    def recorded(text, *args, **kwargs):
        texts.append(text)
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", recorded)
    return texts


class TestWrittenTableBody:
    """A table body that lies as save_model writes it is read by numpy, and
    the model is taken only when save_model gives back the whole file byte for
    byte; any other file is read whole by json.loads, with the same model or
    message as before."""

    @pytest.mark.parametrize("name", [
        *WRITTEN_MODELS, *(f"random-{s}" for s in range(200)),
        *(f"table-1d-{scale}-{seed}" for scale in ("tiny", "full") for seed in (1, 89))])
    def test_the_body_is_read_without_json(self, tmp_path, json_texts, name):
        text = _written_text(name)
        want = _whole_text_model(text)
        path = tmp_path / "m.json"
        path.write_text(text)
        del json_texts[:]
        got = load_model(path)
        # json.loads read the file once, with NaN in place of the body
        assert len(json_texts) == 1 and '"body": NaN\n  },' in json_texts[0]
        assert len(json_texts[0]) < len(text) or name == "no-atoms"
        assert np.array_equal(got.dynamics.table, want.dynamics.table)
        save_model(got, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_text() == text

    def test_an_expression_model_is_read_once(self, tmp_path, json_texts, example_model):
        save_model(example_model, tmp_path / "m.json")
        text = (tmp_path / "m.json").read_text()
        del json_texts[:]
        load_model(tmp_path / "m.json")
        assert json_texts == [text]

    @pytest.mark.parametrize(
        "keys,literal,message",
        [
            (("dynamics", "body", 0, 0, 0), "[1 2]",
             "not valid JSON: Expecting ',' delimiter: line 44 column 14 (char 472)"),
            (("dynamics", "body", 0, 0, 0, 1), "-0", None),
            (("dynamics", "body", 0, 0, 0, 1), "01",
             "not valid JSON: Expecting ',' delimiter: line 46 column 14 (char 499)"),
            (("dynamics", "body", 1, 1, 0, 0), "1.0",
             "dynamics table entry 1.0 at (t=1, x=1, u=0, w=0) is not an integer"),
            (("dynamics", "body", 1, 0, 0, 1), "true",
             "dynamics table entry True at (t=1, x=0, u=0, w=1) is not an integer"),
            (("dynamics", "body", 1, 1, 0, 1), "3",
             "dynamics table entry 3 out of range at (t=1, x=1, u=0, w=1)"),
            (("dynamics", "body", 1, 1, 0, 1), "-2",
             "dynamics table entry -2 out of range at (t=1, x=1, u=0, w=1)"),
            (("dynamics", "body", 1, 1, 0, 1), "100000000000000000000",
             "dynamics table entry 100000000000000000000 out of range at (t=1, x=1, u=0, w=1)"),
            # the sink by its index, which the writer writes as -1
            (("dynamics", "body", 1, 1, 0, 1), "2", None),
            (("dynamics", "body", 0, 1), "[]",
             "dynamics table at (t=0, x=1): 0 control rows, expected 1"),
            (("dynamics", "body", 0, 0, 0), "[0, 1, 1]",
             "dynamics table at (t=0, x=0, u=0): 3 disturbance entries, expected 2"),
            (("noise", "probs", 1), "NaN", "NaN is not a JSON number; numbers must be finite"),
            (("dynamics", "body", 0, 0, 0, 0), "NaN",
             "NaN is not a JSON number; numbers must be finite"),
        ],
    )
    def test_a_changed_entry_is_read_whole(self, tmp_path, json_texts, keys, literal, message):
        """The file keeps the writer's layout around the changed part."""
        doc = model_to_dict(table_model())
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = "@"
        self.check_read_whole(tmp_path, json_texts,
                              json.dumps(doc, indent=2).replace('"@"', literal) + "\n", message)

    @pytest.mark.parametrize(
        "change,message",
        [
            pytest.param(lambda text: text.replace("\n", "\r\n"), None, id="crlf"),
            # the body lies as the writer's, but the point 2.5 does not
            pytest.param(lambda text: text.replace("2.5", "2.50"), None, id="a-point-written-otherwise"),
            pytest.param(lambda text: text + "\n", None, id="a-line-end-after-the-file"),
            pytest.param(lambda text: json.dumps(json.loads(text)), None, id="compact"),
            pytest.param(lambda text: json.dumps(
                {k: v for k, v in reversed(json.loads(text).items())}, indent=2) + "\n",
                None, id="constraints-before-dynamics"),
            pytest.param(lambda text: text.replace(
                '"mode": "table",', '"mode": "table",\n    "\\"body\\": [": 0,'),
                'dynamics: unknown field(s) [\'"body": [\']', id="body-in-a-key"),
            pytest.param(lambda text: text.replace(
                '\n  },\n  "constraints"', ',\n    "body": []\n  },\n  "constraints"'),
                "dynamics: duplicate field 'body'", id="repeated-body"),
            pytest.param(lambda text: text.replace(
                '\n  },\n  "constraints"', ',\n    "body": [[]]\n  },\n  "constraints"').replace(
                '"body": [', '"body": [[]],\n    "body": [', 1),
                "dynamics: duplicate field 'body'", id="body-before-the-body"),
        ],
    )
    def test_another_layout_is_read_whole(self, tmp_path, json_texts, change, message):
        text = change("".join(io._model_text(table_model())))
        self.check_read_whole(tmp_path, json_texts, text, message)

    def test_a_byte_edit_of_the_body_reads_as_the_whole_text(self, tmp_path, monkeypatch):
        """Seeded single-byte replace, insert and delete edits inside the body
        of two written files: load_model gives the same table, or the same
        message, as the whole-text read."""
        path, rng, taken = tmp_path / "m.json", random.Random(36), 0

        def outcome():
            try:
                return load_model(path).dynamics.table
            except ModelFormatError as err:
                return str(err)

        for name in ("table", "table-1d-tiny-1"):
            data = _written_text(name).encode()
            start = data.index(io._BODY_HEAD) + len(io._BODY_HEAD)
            end = data.rindex(io._BODY_TAIL)
            for _ in range(100):
                at, kind = rng.randrange(start, end), rng.choice("rid")
                byte = b"" if kind == "d" else bytes([rng.choice(b"0123456789-,[] \n+.e")])
                edited = data[:at] + byte + data[at + (kind != "i"):]
                path.write_bytes(edited)
                got = outcome()
                taken += io._written_table_model(edited) is not None
                with monkeypatch.context() as whole:
                    whole.setattr(io, "_written_table_model", lambda data: None)
                    want = outcome()
                assert type(got) is type(want)
                assert got == want if isinstance(want, str) else np.array_equal(got, want)
        assert 0 < taken < 200  # both readers are met

    @pytest.mark.parametrize("after", ['"constraints": {', '"body": ['])
    def test_a_byte_not_utf8_is_named_by_its_place_in_the_file(self, tmp_path, after):
        data = "".join(io._model_text(table_model())).encode()
        at = data.index(after.encode()) + len(after) + 20
        path = tmp_path / "m.json"
        path.write_bytes(data[:at] + b"\xff" + data[at:])
        message = f"{path}: not UTF-8: invalid start byte at byte {at}"
        with pytest.raises(ModelFormatError, match="^" + re.escape(message) + "$"):
            load_model(path)

    @staticmethod
    def check_read_whole(tmp_path, json_texts, text, message):
        """``load_model`` reads ``text`` whole: it gives the model of the whole
        text, or, for ``message``, that diagnostic."""
        path = tmp_path / "m.json"
        path.write_text(text, newline="")
        if message is not None:
            with pytest.raises(ModelFormatError,
                               match="^" + re.escape(f"{path}: {message}") + "$"):
                load_model(path)
            assert json_texts[-1] == text
            return
        want = _whole_text_model(text)
        del json_texts[:]
        got = load_model(path)
        assert json_texts[-1] == text
        assert np.array_equal(got.dynamics.table, want.dynamics.table)


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
            (1, "t,x,x1,value", "unexpected value header 't,x,x1,value'"),
            (3, "0,1,0", "line 3: 3 fields, expected 4"),
            (124, "42,2,1,0.5", "stages are not contiguous"),
            # line None replaces the whole file
            (None, "", "empty value file"),
            (None, "t,state_index,x1,value", "no value rows"),
            # lines are numbered as in the file, blank lines included
            (3, "\n0,1,0,zero", "line 4: malformed number in '0,1,0,zero'"),
            (5, "1.0,0,-1,0.5", "line 5: malformed number in '1.0,0,-1,0.5'"),
            (3, "0,1,0,1e999", "line 3: non-finite number in '0,1,0,1e999'"),
            (4, "0,3,1,0.5", "missing (stage, state) rows"),
            # the first row in line order is of a later stage
            (2, "1,0,-0.5,0.5\n0,0,-1,0.5",
             "line 3: coordinates of state_index 0 differ from an earlier row"),
            # a row's first fault is named before any fault of a later row
            (2, "0,0,-1,1.5\n0,1,0", "line 2: value 1.5 is not a probability in [0, 1]"),
            (3, "0,1,0,zero\n0,0,-1,0.5", "line 3: malformed number in '0,1,0,zero'"),
            (3, "0,0,-1,0.5\n0,1,0,zero", "line 3: second row for (t=0, state_index=0)"),
            (5, "1,0,-0.5,0.5\n1,-1,0,nan\n1,2", "line 5: coordinates of state_index 0 "
             "differ from an earlier row"),
            (3, "0,1,0,inf\n0,-1,0,0.5", "line 3: non-finite number in '0,1,0,inf'"),
            # texts that int and float take, but the writer never makes
            (3, "0,\u0661,0,0.5", "line 3: malformed number in '0,\u0661,0,0.5'"),
            (3, "0,1,0,0.2_5", "line 3: malformed number in '0,1,0,0.2_5'"),
            (3, "0,1, 0,0.5", "line 3: malformed number in '0,1, 0,0.5'"),
            (3, "\t0,1,0,0.5", "line 3: malformed number in '\\t0,1,0,0.5'"),
            (3, "0,1,0,0.5\u2003", "line 3: malformed number in '0,1,0,0.5\\u2003'"),
            # only \n ends a line, as wc -l counts them
            (2, "0,0,-1,0.5\x85\n0,1,0,zero", "line 2: malformed number in '0,0,-1,0.5\\x85'"),
            (3, "\x0b\n0,1,0,zero", "line 3: 1 fields, expected 4"),
            (3, "0,1,0,0.5\r0,2,1,zero", "line 3: 7 fields, expected 4"),
            # a cell of 10^6 characters: its line is shown by its first 200
            pytest.param(3, "0,1,0," + "x" * 10**6,
                         f"line 3: malformed number in {'0,1,0,' + 'x' * 194!r}...",
                         id="long-cell"),
        ],
    )
    def test_malformed_rows_rejected(self, tmp_path, example_model, line, text, message):
        vf, _ = solve(example_model)
        path = tmp_path / "value.csv"
        write_value_csv(vf, path)
        lines = path.read_text().splitlines()
        if line is None:
            lines = [text]
        else:
            lines[line - 1] = text
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError, match="^" + re.escape(f"{path}: {message}")):
            read_value_csv(path)

    def test_lone_carriage_returns_end_no_line(self, tmp_path, example_model):
        vf, _ = solve(example_model)
        path = tmp_path / "value.csv"
        write_value_csv(vf, path)
        text = path.read_text()
        path.write_bytes(text.replace("\n", "\r").encode())
        message = f"{path}: unexpected value header {text.replace(chr(10), chr(13))[:200]!r}..."
        with pytest.raises(ModelFormatError, match="^" + re.escape(message) + "$"):
            read_value_csv(path)

    def test_crlf_line_ends(self, tmp_path, example_model):
        vf, _ = solve(example_model)
        path = tmp_path / "value.csv"
        write_value_csv(vf, path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        self.assert_bit_equal(read_value_csv(path), vf)
        lines = path.read_bytes().split(b"\r\n")
        lines[2] = b"0,1,0,zero"
        path.write_bytes(b"\r\n".join(lines))
        message = re.escape(f"{path}: line 3: malformed number in '0,1,0,zero'")
        with pytest.raises(ModelFormatError, match="^" + message):
            read_value_csv(path)

    def test_missing_rows_detected(self, tmp_path, example_model):
        vf, _ = solve(example_model)
        path = tmp_path / "value.csv"
        write_value_csv(vf, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ModelFormatError, match="missing"):
            read_value_csv(path)

    @staticmethod
    def assert_bit_equal(back: ValueFunction, vf: ValueFunction):
        assert (back.t0, back.T) == (vf.t0, vf.T)
        for got, want in ((back.table, vf.table), (back.points, vf.points)):
            assert got.shape == want.shape and got.dtype == np.float64
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_round_trip_is_bit_equal(self, tmp_path):
        path = tmp_path / "value.csv"
        n = 5  # a walk on the integer grid {0..4}^2
        axis = np.arange(n, dtype=np.float64)
        walk = Model(
            TimeGrid(0, 6),
            StateSpace(np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)),
            ControlMap.shared([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], n * n),
            DisturbanceLaw([[0.0, 0.0], [1.0, -1.0], [-1.0, 1.0]], [0.5, 0.25, 0.25]),
            ExprDynamics(("x1 + u1 + w1", "x2 + u2 + w2")),
            ConstraintSets("box", stationary=([1.0, 1.0], [3.0, 3.0])),
        )
        special = ValueFunction(-2, 0, np.array([[-0.0, 0.0], [5e-324, 1.0]]),
                                np.array([[-0.0, 0.0, 0.0], [1.0, 5e-324, 0.0],
                                          [2.2250738585072014e-308, 0.5, 0.0]]))
        solved = [solve(random_model(seed))[0] for seed in range(100)]
        for vf in [*solved, solve(walk)[0], special]:
            write_value_csv(vf, path)
            self.assert_bit_equal(read_value_csv(path), vf)

    def test_shuffled_rows_read_back(self, tmp_path, example_model):
        vf, _ = solve(example_model)
        path = tmp_path / "value.csv"
        write_value_csv(vf, path)
        head, *rows = path.read_text().splitlines()
        random.Random(5).shuffle(rows)
        path.write_text("\n".join([head, *rows[:60], "", *rows[60:]]) + "\n")
        self.assert_bit_equal(read_value_csv(path), vf)

    @pytest.mark.parametrize("first,later", [("0", "-0"), ("-0", "0")])
    def test_coordinates_of_the_first_row_in_line_order(self, tmp_path, first, later):
        path = tmp_path / "value.csv"
        path.write_text(f"t,state_index,x1,value\n1,0,{first},0.25\n0,1,1,0.5\n"
                        f"0,0,{later},0.75\n1,1,1,1\n")
        want = ValueFunction(0, 1, np.array([[float(first)], [1.0]]),
                             np.array([[0.75, 0.5, 0.0], [0.25, 1.0, 0.0]]))
        self.assert_bit_equal(read_value_csv(path), want)

    def test_far_apart_stages_fail_without_allocating(self, tmp_path):
        path = tmp_path / "value.csv"
        for rows, message in [(f"0,0,0,0.5\n{10**18},0,0,0.5", "stages are not contiguous"),
                              (f"0,0,0,0.5\n0,{10**18},1,0.5", "missing (stage, state) rows")]:
            path.write_text(f"t,state_index,x1,value\n{rows}\n")
            tracemalloc.start()
            try:
                with pytest.raises(ModelFormatError, match=re.escape(f"{path}: {message}")):
                    read_value_csv(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20


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


def test_policy_and_argmax_csv_reject_other_stages(tmp_path):
    model = make_three_state_example(0.01, 0, 5)
    _, am = solve(model)
    fb = select_feedback(am)
    stages = r"policy stages \[7, 12\] differ from the model's \[0, 5\]"
    with pytest.raises(PolicyError, match=stages):
        write_policy_csv(model, FeedbackPolicy(7, 12, fb.choice), tmp_path / "p.csv")
    with pytest.raises(PolicyError, match=stages):
        write_argmax_csv(model, ArgmaxPolicy(7, 12, am.mask, am.counts), tmp_path / "a.csv")
    with pytest.raises(PolicyError, match=r"shape \(4, 4\) does not match model \(5, 4\)"):
        write_argmax_csv(model, ArgmaxPolicy(0, 5, am.mask[:4], am.counts[:4]), tmp_path / "a.csv")
    assert not list(tmp_path.iterdir())


def test_kernel_csv(tmp_path, example_model):
    vf, _ = solve(example_model)
    sl = kernel_slice(vf, 39, 0.995)
    path = tmp_path / "kernel.csv"
    write_kernel_csv([sl], vf.points, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,beta,state_index,x1"
    assert lines[1] == "39,0.995,0,-1"
    assert lines[2] == "39,0.995,2,1"
    # the points of a one-coordinate space may be given flat
    write_kernel_csv([sl], vf.points[:, 0], tmp_path / "flat.csv")
    assert (tmp_path / "flat.csv").read_bytes() == path.read_bytes()


def test_kernel_csv_of_stages_far_apart(tmp_path):
    """Its stage column was once spelled from every integer between the first
    and the last stage: 0.6 s for two slices 3 * 10**6 apart."""
    slices = [KernelSlice(0, 0.5, (0,)), KernelSlice(10**12, 0.5, (1,))]
    start = time.perf_counter()
    write_kernel_csv(slices, np.array([[0.0], [1.0]]), tmp_path / "kernel.csv")
    assert time.perf_counter() - start < 1.0
    assert (tmp_path / "kernel.csv").read_text() == (
        "t,beta,state_index,x1\n0,0.5,0,0\n1000000000000,0.5,1,1\n")


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
        TableDynamics.from_nested(nested, 3, [3, 1, 2], 2, 3),
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
