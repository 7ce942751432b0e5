import re
import time

import numpy as np
import pytest

from stochviab.model import (
    ConstraintSets,
    ControlMap,
    DisturbanceLaw,
    ExprDynamics,
    Model,
    ModelError,
    StateSpace,
    TableDynamics,
    TimeGrid,
    make_three_state_example,
    project_to_grid,
    validate,
)


def test_time_grid_rejects_empty_horizon():
    with pytest.raises(ModelError):
        TimeGrid(3, 3)
    assert TimeGrid(0, 40).steps == 40
    with pytest.raises(ModelError):
        TimeGrid(0, 2).stage_index(3)
    assert TimeGrid(0, 2).stage_index(2) == 2
    with pytest.raises(ModelError):
        TimeGrid(0, 2).stage_index(2, terminal=False)


class TestProjectToGrid:
    grid = StateSpace(np.array([[-1.0], [0.0], [1.0]]))

    def test_exact_point(self):
        assert project_to_grid(self.grid, [0.0]) == 1

    def test_outside_every_cell(self):
        assert project_to_grid(self.grid, [2.0]) == self.grid.sink

    def test_midpoint_tie_breaks_to_smaller_index(self):
        assert project_to_grid(self.grid, [0.5]) == 1

    def test_all_midpoints_exhaustively(self):
        # every midpoint between neighbours ties; the smaller index must win
        pts = self.grid.points[:, 0]
        for i in range(len(pts) - 1):
            mid = (pts[i] + pts[i + 1]) / 2.0
            assert project_to_grid(self.grid, [mid]) == i

    def test_dimension_mismatch(self):
        with pytest.raises(ModelError):
            project_to_grid(self.grid, [0.0, 0.0])

    def test_2d(self):
        grid = StateSpace(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        assert project_to_grid(grid, [0.1, 0.1]) == 0
        assert project_to_grid(grid, [0.9, 0.05]) == 1
        assert project_to_grid(grid, [5.0, 5.0]) == grid.sink


class TestValidate:
    def test_example_is_valid(self):
        for p in (0.01, 0.1, 0.3):
            assert validate(make_three_state_example(p, 0, 40)) == []

    def test_unnormalized_probs_named(self):
        m = make_three_state_example(0.01)
        bad = Model(
            m.time, m.states, m.controls,
            DisturbanceLaw(m.noise.support, np.array([0.01, 0.97, 0.01])),
            m.dynamics, m.constraints,
        )
        issues = validate(bad)
        assert len(issues) == 1
        assert "DisturbanceLaw" in issues[0]

    def test_empty_control_list_named(self):
        m = make_three_state_example(0.01, 0, 2)
        ctable = [
            [[[-1.0], [1.0]] if x != 1 else [] for x in range(3)]
            for _ in range(2)
        ]
        bad = Model(
            m.time, m.states,
            ControlMap.per_stage_state(ctable, 3, 0),
            m.noise, m.dynamics, m.constraints,
        )
        issues = validate(bad)
        assert any("ControlMap" in v and "empty" in v for v in issues)

    def test_constraint_indices_out_of_range(self):
        m = make_three_state_example(0.01)
        bad = Model(
            m.time, m.states, m.controls, m.noise, m.dynamics,
            ConstraintSets("set", stationary=(0, 1, 2, 7)),
        )
        assert any("ConstraintSets" in v for v in validate(bad))

    def test_non_absorbing_sink_reported(self):
        table = np.zeros((1, 3, 1, 1), dtype=np.int64)
        table[0, 2, 0, 0] = 0  # sink jumps back to the grid
        bad = Model(
            TimeGrid(0, 1),
            StateSpace(np.array([[0.0], [1.0]])),
            ControlMap.shared(np.array([[0.0]]), 2),
            DisturbanceLaw(np.array([[0.0]]), np.array([1.0])),
            TableDynamics(table),
            ConstraintSets("set", stationary=(0, 1)),
        )
        assert any("absorbing" in v for v in validate(bad))


class TestThreeStateExample:
    def test_shapes(self):
        m = make_three_state_example(0.01, 0, 40)
        assert m.states.n_total == 4
        assert m.controls.admissible(0, 0).shape == (2, 1)
        assert m.noise.n_atoms == 3

    def test_probs_substitution(self):
        m = make_three_state_example(0.25)
        assert np.allclose(m.noise.probs, [0.25, 0.5, 0.25])

    def test_out_of_grid_goes_to_sink(self):
        m = make_three_state_example(0.1, 0, 2)
        tab = m.tables
        # x=1 (index 2), u=+1 (slot 1), w=+1 (index 2): 1+1+1=3 is off the grid
        assert tab.next_state[0, 2, 1, 2] == tab.sink

    def test_p_range_guard(self):
        for bad in (0.0, 0.5, 0.6, -0.1):
            with pytest.raises(ModelError):
                make_three_state_example(bad)

    def test_sink_absorbs(self):
        m = make_three_state_example(0.1, 0, 3)
        tab = m.tables
        assert np.all(tab.next_state[:, tab.sink, :, :] == tab.sink)
        assert not tab.member[:, tab.sink].any()


def test_model_rejects_inconsistent_shapes():
    m = make_three_state_example(0.1)
    with pytest.raises(ModelError):
        Model(
            m.time, m.states,
            ControlMap.shared(np.array([[-1.0], [1.0]]), 5),  # wrong state count
            m.noise, m.dynamics, m.constraints,
        )
    with pytest.raises(ModelError):
        DisturbanceLaw(np.array([[0.0], [1.0]]), np.array([1.0]))  # length mismatch


@pytest.mark.parametrize("index", [1.5, "a", True, np.float64(1.0)])
def test_set_constraint_indices_must_be_integers(index):
    with pytest.raises(ModelError, match=f"state index {re.escape(repr(index))} is not an integer"):
        ConstraintSets("set", stationary=(0, index))
    assert ConstraintSets("set", stationary=(np.int64(1), 0)).stationary == (0, 1)


def test_expr_dynamics_dimension_check():
    with pytest.raises(ModelError):
        ExprDynamics.parse(["x1 + u", "x2"], (1, 1, 1))


def test_box_constraints_membership():
    m = make_three_state_example(0.1, 0, 2)
    boxed = Model(
        m.time, m.states, m.controls, m.noise, m.dynamics,
        ConstraintSets("box", stationary=([0.0], [10.0])),
    )
    member = boxed.tables.member
    assert list(member[0][:3]) == [False, True, True]
    assert not member[:, 3].any()


def _line_model(controls: ControlMap, sources=("x + u + w",), dims=(1, 1, 1), T=2,
                constraints=None) -> Model:
    """Three states on a line, noise {-1, 0, 1} and expression dynamics."""
    return Model(
        TimeGrid(0, T),
        StateSpace(np.array([[-1.0], [0.0], [1.0]])),
        controls,
        DisturbanceLaw(np.array([[-1.0], [0.0], [1.0]]), np.array([0.25, 0.5, 0.25])),
        ExprDynamics.parse(list(sources), dims),
        constraints or ConstraintSets("set", stationary=(0, 1, 2)),
    )


class TestValidateDiagnostics:
    """The exact diagnostic lists, in order, for invalid control maps."""

    def test_per_state_empty_list(self):
        controls = ControlMap.per_state([[[-1.0], [1.0]], [], [[-1.0], [1.0]]], 3)
        assert validate(_line_model(controls)) == [
            "ControlMap: empty admissible control list at (t=0, x=1); "
            "a non-empty list is required",
            "ControlMap: empty admissible control list at (t=1, x=1); "
            "a non-empty list is required",
        ]

    def test_per_state_narrow_list_and_stationary_set(self):
        controls = ControlMap.per_state([[[1.0, 0.0], [0.0, 1.0]], [[1.0]], [[0.0, 0.0]]], 3)
        model = _line_model(
            controls, ("x + u1 - u2 + w",), (1, 2, 1),
            constraints=ConstraintSets("set", stationary=(0, 1, 5)),
        )
        assert validate(model) == [
            "ControlMap: control dimension 1 at (t=0, x=1) differs from 2",
            "ControlMap: control dimension 1 at (t=1, x=1) differs from 2",
            *[
                f"ConstraintSets: stage index {k} references invalid state "
                "indices [5] (the sink is never a member)"
                for k in range(3)
            ],
        ]

    def test_per_stage_state_missing_row(self):
        controls = ControlMap.per_stage_state([[[[0.0]], [[1.0]], [[0.0]]]], 3, 0)
        assert validate(_line_model(controls)) == [
            "ControlMap: no control table row for stage 1",
            "ControlMap: no control table row for stage 1",
            "ControlMap: no control table row for stage 1",
        ]

    def test_per_stage_state_missing_row_with_table_dynamics(self):
        # the slot check once asked the missing row and raised instead
        model = Model(
            TimeGrid(0, 2),
            StateSpace(np.array([[0.0], [1.0]])),
            ControlMap.per_stage_state([[[[0.0]], [[1.0]]]], 2, 0),
            DisturbanceLaw(np.array([[0.0]]), np.array([1.0])),
            TableDynamics.from_nested([[[[0]], [[1]]], [[[1]], [[0]]]], 2, 1, 1, 2),
            ConstraintSets("set", stationary=(0, 1)),
        )
        assert validate(model) == [
            "ControlMap: no control table row for stage 1",
            "ControlMap: no control table row for stage 1",
        ]
        with pytest.raises(ModelError, match="no control table row for stage 1"):
            model.tables

    def test_table_with_too_few_slots(self):
        table = np.zeros((2, 3, 1, 2), dtype=np.int64)
        table[:, 2] = 2
        table[1, 2, 0, 1] = 0  # the sink jumps back to the grid
        model = Model(
            TimeGrid(0, 2),
            StateSpace(np.array([[0.0], [1.0]])),
            ControlMap.per_state([[[0.0], [1.0]], [[0.0]]], 2),
            DisturbanceLaw(np.array([[0.0], [1.0]]), np.array([0.5, 0.25])),
            TableDynamics(table),
            ConstraintSets("box", stationary=([0.0, 0.0], [1.0, 1.0])),
        )
        assert validate(model) == [
            "DisturbanceLaw: probabilities sum to 0.75, expected 1 within 1e-12 "
            "(normalization)",
            "Dynamics: sink row is not absorbing (all transitions must stay at sink)",
            "Dynamics: table has 1 control slots at (t=0, x=0) but 2 controls are admissible",
            "Dynamics: table has 1 control slots at (t=1, x=0) but 2 controls are admissible",
            *[
                f"ConstraintSets: box at stage index {k} has dimension 2, states have 1"
                for k in range(3)
            ],
        ]


class TestNonFinite:
    def test_nan_probability_named(self):
        m = make_three_state_example(0.01, 0, 3)
        bad = Model(
            m.time, m.states, m.controls,
            DisturbanceLaw(m.noise.support, np.array([0.01, np.nan, 0.01])),
            m.dynamics, m.constraints,
        )
        assert validate(bad) == ["DisturbanceLaw: probabilities must be finite"]

    def test_every_component_checked(self):
        table = np.zeros((1, 3, 1, 1), dtype=np.int64)
        table[0, 2] = 2
        model = Model(
            TimeGrid(0, 1),
            StateSpace(np.array([[0.0], [np.inf]])),
            ControlMap.per_state([[[0.0]], [[np.nan]]], 2),
            DisturbanceLaw(np.array([[-np.inf]]), np.array([1.0])),
            TableDynamics(table),
            ConstraintSets("box", per_stage=(([0.0], [np.nan]), ([0.0], [1.0]))),
        )
        assert validate(model) == [
            "StateSpace: grid points must be finite",
            "DisturbanceLaw: support atoms must be finite",
            "ControlMap: admissible control entries must be finite",
            "ConstraintSets: box at stage index 0 has non-finite bounds",
        ]


def test_stationary_constraints_over_a_million_stages():
    states = StateSpace(np.array([[0.0]]))
    model = Model(
        TimeGrid(0, 10**6),
        states,
        ControlMap.shared([[0.0]], 1),
        DisturbanceLaw([[0.0]], [1.0]),
        ExprDynamics.parse(["x + u + w"], (1, 1, 1)),
        ConstraintSets("set", stationary=(0,)),
    )
    start = time.perf_counter()
    assert validate(model) == []
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    tab = model.tables
    assert time.perf_counter() - start < 1.0
    assert tab.member.shape == (10**6 + 1, 2)
    assert tab.member[:, 0].all() and not tab.member[:, 1].any()
