import dataclasses
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochviab.closed_form import example_matrix, kernel_closed_form
from stochviab.dp import PolicyError, solve
from stochviab.expr import parse
from stochviab.io import load_model, model_from_dict, model_to_dict, save_model
from stochviab.kernel import FeedbackPolicy, kernel_slice, select_feedback, viable_feedback_check
from stochviab.mc import estimate_probability
from stochviab.model import (
    ConstraintSets,
    ControlMap,
    DisturbanceLaw,
    ExprDynamics,
    ExprSourceError,
    Model,
    ModelError,
    StateSpace,
    TableDynamics,
    TimeGrid,
    _shown,
    make_three_state_example,
    project_to_grid,
    validate,
)


def test_time_grid_rejects_empty_horizon():
    with pytest.raises(ModelError):
        TimeGrid(3, 3)
    assert TimeGrid(0, 40).steps == 40


@pytest.mark.parametrize("t0,T,message", [
    (0, 2.5, "T=2.5"), (0.0, 3, "t0=0.0"), (True, 3, "t0=True"), (0, "3", "T='3'"),
])
def test_time_grid_takes_only_integer_stages(t0, T, message):
    with pytest.raises(ModelError, match=f"^TimeGrid stages must be integers, got {message}$"):
        TimeGrid(t0, T)


def test_numpy_integer_stages_are_stored_as_ints(tmp_path):
    grid = TimeGrid(np.int64(0), np.int64(3))
    assert grid == TimeGrid(0, 3) and type(grid.t0) is int and type(grid.T) is int
    m = make_three_state_example(0.01, np.int64(0), np.int64(3))
    save_model(m, tmp_path / "m.json")
    assert model_to_dict(m)["time"] == {"t0": 0, "T": 3}
    back = load_model(tmp_path / "m.json")
    assert back.time == TimeGrid(0, 3)
    assert np.array_equal(solve(back)[0].table, solve(m)[0].table)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_grid_with_non_finite_point_is_refused(self, bad):
        # sending every query to the sink would hide the faulty grid
        grid = StateSpace(np.array([[0.0, 0.0], [1.0, bad]]))
        with pytest.raises(ModelError, match="grid points must be finite"):
            project_to_grid(grid, [0.0, 0.0])

    def test_2d(self):
        grid = StateSpace(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        assert project_to_grid(grid, [0.1, 0.1]) == 0
        assert project_to_grid(grid, [0.9, 0.05]) == 1
        assert project_to_grid(grid, [5.0, 5.0]) == grid.sink

    def test_overflowing_distance_goes_to_sink_without_warning(self):
        # (1 - -1e200) ** 2 overflows to inf, which no capture radius holds
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert list(project_to_grid(self.grid, [[1e200], [-1e300], [0.4]])) == [3, 3, 1]
            model = dataclasses.replace(make_three_state_example(0.01, 0, 3),
                                        dynamics=ExprDynamics(("x * 1e200 + u + w",)))
            tab = model.tables
        # only x = 0 stays finite; controls (-1, 1), atoms (-1, 0, 1)
        for k in range(3):
            assert tab.next_state[k, :3].tolist() == [
                [[3, 3, 3], [3, 3, 3]], [[3, 0, 1], [1, 2, 3]], [[3, 3, 3], [3, 3, 3]]]

    def test_radius_whose_square_overflows_still_captures_exactly(self):
        # spacing 1e200: the capture radius is 5e199, whose square overflows
        grid = StateSpace(np.array([[0.0], [1e200], [-1e300]]))
        pts = [[1e308], [np.inf], [3e200], [4e199], [1.2e200]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert list(project_to_grid(grid, pts)) == [3, 3, 3, 0, 1]
            assert [project_to_grid(grid, p) for p in pts] == [3, 3, 3, 0, 1]


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
            ControlMap.per_stage_state(ctable, 3),
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

    def test_constraint_index_past_the_str_limit(self):
        """An integer whose text the interpreter refuses is named by its size."""
        m = make_three_state_example(0.01)
        bad = dataclasses.replace(m, constraints=ConstraintSets("set", stationary=(0, 1, _PAST)))
        assert validate(bad) == [
            f"ConstraintSets: stage index 0..40 references invalid state indices [{_PAST_TEXT}] "
            "(the sink is never a member)"]

    def test_stage_span_past_the_str_limit(self):
        """T - t0 of 4301 digits, whose text the interpreter refuses."""
        m, last = make_three_state_example(0.01), 10**4300 - 1
        bad = dataclasses.replace(m, time=TimeGrid(-last, last),
                                  constraints=ConstraintSets("set", stationary=(0, 1, 2, 7)))
        assert validate(bad) == [
            f"ConstraintSets: stage index 0..{_PAST_TEXT} references invalid state indices [7] "
            "(the sink is never a member)"]

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


def _state_messages(points: np.ndarray) -> list[str]:
    """``validate``'s state-space checks as a whole-row ``np.unique``, which
    counts each row holding a NaN as its own and ``-0.0`` as ``0.0``."""
    out = []
    if np.unique(points, axis=0).shape[0] != points.shape[0]:
        out.append("StateSpace: grid points are not pairwise distinct")
    if not np.all(np.isfinite(points)):
        out.append("StateSpace: grid points must be finite")
    return out


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 3).flatmap(lambda n: st.lists(
        st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.0, np.inf, -np.inf, np.nan]),
                 min_size=n, max_size=n),
        min_size=1, max_size=6,
    ))
)
def test_validate_names_repeated_and_non_finite_points_as_unique_rows_do(rows):
    points = np.array(rows)
    m = len(rows)
    table = np.full((1, m + 1, 1, 1), m, dtype=np.int64)  # every move to the sink
    model = Model(
        TimeGrid(0, 1),
        StateSpace(points),
        ControlMap.shared([[0.0]], m),
        DisturbanceLaw([[0.0]], [1.0]),
        TableDynamics(table),
        ConstraintSets("set", stationary=()),
    )
    assert validate(model) == _state_messages(points)


class TestThreeStateExample:
    def test_shapes(self):
        m = make_three_state_example(0.01, 0, 40)
        assert m.states.n_total == 4
        assert m.admissible(0, 0).shape == (2, 1)
        assert m.admissible(0, m.states.sink).tolist() == [[0.0]]  # the sink's one dummy
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


def test_expr_trees_are_the_parse_of_their_sources():
    m = make_three_state_example(0.01, 0, 5)
    assert m.expr_trees == (parse("x + u + w", m.dims),)
    # the model solves what it saves
    reloaded = model_from_dict(model_to_dict(m))
    assert np.array_equal(solve(m)[0].table, solve(reloaded)[0].table)
    # the sources are parsed under the model's own dims
    with pytest.raises(ExprSourceError, match="expression 0: unknown variable 'w2'") as err:
        Model(m.time, m.states, m.controls, m.noise, ExprDynamics(("x + u + w2",)), m.constraints)
    assert (err.value.index, err.value.reason) == (0, "unknown variable 'w2' (offset 8)")
    with pytest.raises(ExprSourceError, match="expression 0: expected a string"):
        Model(m.time, m.states, m.controls, m.noise, ExprDynamics((5,)), m.constraints)


@pytest.mark.parametrize("index", [1.5, "a", True, np.float64(1.0)])
def test_set_constraint_indices_must_be_integers(index):
    with pytest.raises(ModelError, match=f"state index {re.escape(repr(index))} is not an integer"):
        ConstraintSets("set", stationary=(0, index))
    assert ConstraintSets("set", stationary=(np.int64(1), 0)).stationary == (0, 1)


def test_expr_dynamics_dimension_check():
    m = make_three_state_example(0.1)
    with pytest.raises(ModelError, match="2 expressions for state dimension 1"):
        Model(m.time, m.states, m.controls, m.noise, ExprDynamics(("x1 + u", "x2")),
              m.constraints)


def test_box_constraints_membership():
    m = make_three_state_example(0.1, 0, 2)
    boxed = Model(
        m.time, m.states, m.controls, m.noise, m.dynamics,
        ConstraintSets("box", stationary=([0.0], [10.0])),
    )
    member = boxed.tables.member
    assert list(member[0][:3]) == [False, True, True]
    assert not member[:, 3].any()


def _line_model(controls: ControlMap, sources=("x + u + w",), T=2,
                constraints=None) -> Model:
    """Three states on a line, noise {-1, 0, 1} and expression dynamics."""
    return Model(
        TimeGrid(0, T),
        StateSpace(np.array([[-1.0], [0.0], [1.0]])),
        controls,
        DisturbanceLaw(np.array([[-1.0], [0.0], [1.0]]), np.array([0.25, 0.5, 0.25])),
        ExprDynamics(sources),
        constraints or ConstraintSets("set", stationary=(0, 1, 2)),
    )


class TestValidateDiagnostics:
    """The exact diagnostic lists, in order, for invalid control maps."""

    def test_per_state_empty_list(self):
        controls = ControlMap.per_state([[[-1.0], [1.0]], [], [[-1.0], [1.0]]], 3)
        # one stored row, named once with the stages that read it
        assert validate(_line_model(controls)) == [
            "ControlMap: empty admissible control list at (t=0..1, x=1); "
            "a non-empty list is required",
        ]

    def test_a_row_of_one_stage_names_that_stage(self):
        """A per-stage row, or the one row of a one-stage horizon, names its
        own stage as a per-stage walk did."""
        full, gap = [[[-1.0], [1.0]]] * 3, [[[-1.0], [1.0]], [], [[-1.0], [1.0]]]
        for time_grid, controls, t in (
            (TimeGrid(3, 4), ControlMap.per_state(gap, 3), 3),
            (TimeGrid(3, 5), ControlMap.per_stage_state([full, gap], 3), 4),
        ):
            model = dataclasses.replace(_line_model(controls), time=time_grid)
            assert validate(model) == [f"ControlMap: empty admissible control list at "
                                       f"(t={t}, x=1); a non-empty list is required"]

    def test_per_state_narrow_list_and_stationary_set(self):
        # a list narrower than the first is refused when it is stored
        with pytest.raises(ModelError, match="^" + re.escape(
                "per_state controls: the list at (row 0, x=1) holds vectors of 1 coordinates, "
                "an earlier one 2") + "$"):
            ControlMap.per_state([[[1.0, 0.0], [0.0, 1.0]], [[1.0]], [[0.0, 0.0]]], 3)
        controls = ControlMap.per_state([[[1.0, 0.0], [0.0, 1.0]], [[1.0, 1.0]], [[0.0, 0.0]]], 3)
        model = _line_model(
            controls, ("x + u1 - u2 + w",),
            constraints=ConstraintSets("set", stationary=(0, 1, 5)),
        )
        assert validate(model) == [
            "ConstraintSets: stage index 0..2 references invalid state "
            "indices [5] (the sink is never a member)"
        ]

    def test_per_stage_state_missing_row(self):
        # one row for two stages, and three rows for two
        for rows in (1, 3):
            controls = ControlMap.per_stage_state([[[[0.0]], [[1.0]], [[0.0]]]] * rows, 3)
            with pytest.raises(ModelError, match=f"^controls: {rows} stage rows, expected 2$"):
                _line_model(controls)

    def test_per_stage_state_missing_row_with_table_dynamics(self):
        with pytest.raises(ModelError, match="^controls: 1 stage rows, expected 2$"):
            Model(
                TimeGrid(0, 2),
                StateSpace(np.array([[0.0], [1.0]])),
                ControlMap.per_stage_state([[[[0.0]], [[1.0]]]], 2),
                DisturbanceLaw(np.array([[0.0]]), np.array([1.0])),
                TableDynamics.from_nested([[[[0]], [[1]]], [[[1]], [[0]]]], 2, [1, 1], 1, 2),
                ConstraintSets("set", stationary=(0, 1)),
            )

    @pytest.mark.parametrize(
        "kind,data,message",
        [
            ("shared", [[]], "shared controls: the list at (row 0, x=0) holds vectors of "
                             "0 coordinates"),
            ("per_state", [[[1.0]], [[]], []],
             "per_state controls: the list at (row 0, x=1) holds vectors of 0 coordinates"),
            # the first non-empty list fixes the width, here of the state after an empty one
            ("per_state", [[], [[1.0, 2.0]], [[1.0, 2.0, 3.0]]],
             "per_state controls: the list at (row 0, x=2) holds vectors of 3 coordinates, "
             "an earlier one 2"),
            ("per_stage_state", [[[[1.0]], [[1.0]], [[1.0]]], [[[1.0]], [[1.0]], [[1.0, 0.0]]]],
             "per_stage_state controls: the list at (row 1, x=2) holds vectors of 2 "
             "coordinates, an earlier one 1"),
        ],
    )
    def test_control_width_refused_when_stored(self, kind, data, message):
        with pytest.raises(ModelError, match="^" + re.escape(message) + "$"):
            ControlMap(kind, data, 3)

    def test_empty_lists_take_any_width(self):
        """An empty list holds no vector, so its width is not compared."""
        controls = ControlMap.per_state([np.zeros((0, 3)), [[1.0, 2.0]], []], 3)
        assert controls.dim == 2 and controls.counts.tolist() == [[0, 1, 0]]
        assert ControlMap.per_state([[], [], []], 3).dim == 1

    def test_repeated_grid_points(self):
        m = make_three_state_example(0.1, 0, 2)
        model = Model(m.time, StateSpace(np.array([[-1.0], [0.0], [-1.0]])), m.controls,
                      m.noise, m.dynamics, m.constraints)
        assert validate(model) == ["StateSpace: grid points are not pairwise distinct"]

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
            "Dynamics: table has 1 control slots at (t=0..1, x=0) but 2 controls are admissible",
            "ConstraintSets: box at stage index 0..2 has dimension 2, states have 1",
        ]


class TestTableFromNested:
    """``TableDynamics.from_nested`` reads each state's admissible count of rows."""

    @pytest.mark.parametrize(
        "nested,counts,message",
        [
            # the rows of a state with two controls once padded with the sink
            ([[[[0]], [[1]]]], (2, 1), "dynamics table at (t=0, x=0): 1 control rows, expected 2"),
            ([[[[0], [1]], [[1], [0]]]], (2, 1),
             "dynamics table at (t=0, x=1): 2 control rows, expected 1"),
            ([[[[0], [1], [1]], [[1]]]], (2, 1),
             "dynamics table at (t=0, x=0): 3 control rows exceed u_max=2"),
            # one count per (stage, state)
            ([[[[0]], [[1]]], [[[0]], [[1]]]], [[1, 1], [1, 0]],
             "dynamics table at (t=1, x=1): 1 control rows, expected 0"),
            # a malformed entry anywhere is named before a missing row
            ([[[], [[1]]], [[[0]], [[True]]]], (1, 1),
             "dynamics table entry True at (t=1, x=1, u=0, w=0) is not an integer"),
            # a fault's (t, x, u, w) past a state with two control rows
            ([[[[0], [1]], [[1]]], [[[0], [1]], [[7]]]], (2, 1),
             "dynamics table entry 7 out of range at (t=1, x=1, u=0, w=0)"),
            ([[[[0], [1, 1]], [[1]]]], (2, 1),
             "dynamics table at (t=0, x=0, u=1): 2 disturbance entries, expected 1"),
            # a deeper fault on an earlier path is named first
            ([[[[0], 5], "x"]], (2, 1),
             "dynamics table at (t=0, x=0, u=1): expected a list of disturbance entries, got 5"),
            ([[[[0], [1]], [[1.0]]], 7], (2, 1),
             "dynamics table entry 1.0 at (t=0, x=1, u=0, w=0) is not an integer"),
        ],
    )
    def test_row_counts_checked(self, nested, counts, message):
        with pytest.raises(ModelError, match="^" + re.escape(message) + "$"):
            TableDynamics.from_nested(nested, 2, counts, 1, len(nested))

    def test_one_row_per_control(self):
        model = Model(
            TimeGrid(0, 1),
            StateSpace(np.array([[0.0], [1.0]])),
            ControlMap.per_state([[[0.0], [1.0]], [[0.0]]], 2),
            DisturbanceLaw(np.array([[0.0]]), np.array([1.0])),
            TableDynamics.from_nested([[[[0], [1]], [[-1]]]], 2, (2, 1), 1, 1),
            ConstraintSets("set", stationary=(0, 1)),
        )
        assert validate(model) == []
        assert model.tables.next_state[0, :2].tolist() == [[[0], [1]], [[2], [2]]]

    def test_integer_types_and_tuples(self):
        """numpy integers and tuples are read as ints and lists are."""
        nested = [[[[1, -1], [0, 0]], [[2, 1]]]]
        want = TableDynamics.from_nested(nested, 2, (2, 1), 2, 1).table
        same = [[((np.int32(1), -1), [np.int64(0), np.uint8(0)]), ([2, 1],)]]
        assert np.array_equal(TableDynamics.from_nested(same, 2, (2, 1), 2, 1).table, want)
        assert want.tolist() == [[[[1, 2], [0, 0]], [[2, 1], [2, 2]], [[2, 2], [2, 2]]]]

    def test_entry_past_int64(self):
        message = "dynamics table entry 100000000000000000000 out of range at (t=0, x=0, u=0, w=1)"
        with pytest.raises(ModelError, match="^" + re.escape(message) + "$"):
            TableDynamics.from_nested([[[[0, 10**20]], [[1, 0]]]], 2, (1, 1), 2, 1)

    def test_per_stage_counts(self):
        table = TableDynamics.from_nested(
            [[[[0]], [[1]]], [[[0]], []]], 2, [[1, 1], [1, 0]], 1, 2).table
        assert table[:, :2].tolist() == [[[[0]], [[1]]], [[[0]], [[2]]]]


def _two_state_parts(**changed) -> dict:
    """The parts of a valid two-state, two-stage table model, some replaced."""
    parts = dict(
        time=TimeGrid(0, 2),
        states=StateSpace(np.array([[0.0], [1.0]])),
        controls=ControlMap.shared([[0.0]], 2),
        noise=DisturbanceLaw(np.array([[0.0], [1.0]]), np.array([0.5, 0.5])),
        dynamics=TableDynamics(np.full((2, 3, 1, 2), 2)),
        constraints=ConstraintSets("set", stationary=(0, 1)),
    )
    return {**parts, **changed}


class TestStructureRefused:
    """``Model`` refuses parts that cannot be stored together."""

    def test_parts_fit(self):
        assert validate(Model(**_two_state_parts())) == []

    @pytest.mark.parametrize(
        "changed,message",
        [
            (dict(dynamics=TableDynamics(np.full((1, 3, 1, 2), 2))),
             "dynamics table shape (1, 3, 1, 2) does not match 2 steps and 3 states"),
            (dict(dynamics=TableDynamics(np.full((2, 4, 1, 2), 2))),
             "dynamics table shape (2, 4, 1, 2) does not match 2 steps and 3 states"),
            (dict(dynamics=TableDynamics(np.full((2, 3, 1, 3), 2))),
             "dynamics table has 3 disturbance entries, noise has 2"),
            (dict(dynamics=TableDynamics(np.pad(np.full((2, 3, 1, 1), 2), [(0, 0)] * 3 + [(0, 1)],
                                                constant_values=3))),
             "dynamics table entries must lie in 0..n_states"),
            (dict(dynamics=TableDynamics(np.full((2, 3, 1, 2), -1))),
             "dynamics table entries must lie in 0..n_states"),
            (dict(constraints=ConstraintSets("set", per_stage=((0,), (1,)))),
             "constraints: 2 stage payloads, expected 3"),
            (dict(controls=ControlMap.per_stage_state([[[[0.0]], [[1.0]]]] * 3, 2)),
             "controls: 3 stage rows, expected 2"),
        ],
    )
    def test_mismatch_raises(self, changed, message):
        with pytest.raises(ModelError, match="^" + re.escape(message) + "$"):
            Model(**_two_state_parts(**changed))

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: StateSpace(np.zeros((0, 1))),
             "StateSpace needs a non-empty (m, dim) point array"),
            (lambda: StateSpace(np.zeros((2, 1, 1))),
             "StateSpace needs a non-empty (m, dim) point array"),
            (lambda: StateSpace(np.zeros((1, 0))),
             "StateSpace needs points of at least one coordinate, got shape (1, 0)"),
            (lambda: ControlMap("everywhere", [[0.0]], 2), "unknown ControlMap kind 'everywhere'"),
            (lambda: ControlMap.per_state([[[0.0]]], 2),
             "per_state controls: 1 lists for 2 states"),
            (lambda: ControlMap.shared(np.zeros((1, 1, 1)), 2),
             "controls: expected a list of vectors, got shape (1, 1, 1)"),
            (lambda: TableDynamics(np.zeros((2, 3, 1))),
             "dynamics table must be 4-d, got shape (2, 3, 1)"),
            (lambda: ConstraintSets("ball", stationary=(0,)), "unknown constraint kind 'ball'"),
            (lambda: ConstraintSets("set"), "constraints need exactly one of stationary/per_stage"),
            (lambda: ConstraintSets("set", stationary=(0,), per_stage=((0,),) * 3),
             "constraints need exactly one of stationary/per_stage"),
            (lambda: project_to_grid(StateSpace(np.zeros((1, 1))), np.zeros((1, 1, 1))),
             "expected a point or an (N, dim) array, got shape (1, 1, 1)"),
        ],
    )
    def test_part_refused(self, build, message):
        with pytest.raises(ModelError, match="^" + re.escape(message) + "$"):
            build()


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
        ExprDynamics(("x + u + w",)),
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


def _wide_model(T: int, controls: ControlMap, constraints: ConstraintSets) -> Model:
    """1000 states on a line, expression dynamics and ``T`` stages."""
    return Model(
        TimeGrid(0, T),
        StateSpace(np.arange(1000.0)),
        controls,
        DisturbanceLaw([[0.0]], [1.0]),
        ExprDynamics(("x + u + w",)),
        constraints,
    )


def test_one_control_fault_over_ten_thousand_stages():
    lists = [[[0.0]]] * 1000
    lists[7] = []
    model = _wide_model(10**4, ControlMap.per_state(lists, 1000),
                        ConstraintSets("set", stationary=range(1000)))
    start = time.perf_counter()
    out = validate(model)
    assert time.perf_counter() - start < 1.0
    assert out == ["ControlMap: empty admissible control list at (t=0..9999, x=7); "
                   "a non-empty list is required"]


def test_one_stationary_constraint_fault_over_ten_thousand_stages():
    model = _wide_model(10**4, ControlMap.shared([[0.0]], 1000),
                        ConstraintSets("set", stationary=range(1001)))
    start = time.perf_counter()
    out = validate(model)
    assert time.perf_counter() - start < 1.0
    assert out == ["ConstraintSets: stage index 0..10000 references invalid state indices "
                   "[1000] (the sink is never a member)"]


# numeric strings and bools, which np.asarray would convert, are refused as the
# model file refuses them; a numeric array is checked by its dtype
def test_state_space_takes_only_numbers():
    with pytest.raises(ModelError, match="^StateSpace points: expected a number, got '1'$"):
        StateSpace([["1"], [True]])
    with pytest.raises(ModelError, match="^StateSpace points: expected a number, got True$"):
        StateSpace([[0.0], [True]])
    with pytest.raises(ModelError, match="got an array of dtype bool$"):
        StateSpace(np.array([[True], [False]]))
    assert StateSpace([[1, np.float32(2.5)], [np.int8(3), 4.0]]).points.tolist() == [
        [1.0, 2.5], [3.0, 4.0]]


def test_disturbance_law_takes_only_numbers():
    with pytest.raises(ModelError, match="^noise support: expected a number, got '0'$"):
        DisturbanceLaw([["0"], [True]], ["0.5", True])
    with pytest.raises(ModelError, match="^noise probabilities: expected a number, got '0.5'$"):
        DisturbanceLaw([[0.0], [1.0]], ["0.5", True])
    with pytest.raises(ModelError, match="^noise probabilities: expected a number, got True$"):
        DisturbanceLaw([[0.0], [1.0]], [0.5, True])
    assert DisturbanceLaw(np.arange(2)[:, None], np.array([1, 0])).probs.tolist() == [1.0, 0.0]


def test_control_map_takes_only_numbers():
    with pytest.raises(ModelError, match="^controls: expected a number, got '1'$"):
        ControlMap.shared([["1"], [True]], 2)
    with pytest.raises(ModelError, match="^controls: expected a number, got False$"):
        ControlMap.per_state([[[1.0]], [[False]]], 2)
    with pytest.raises(ModelError, match="^controls: expected a number, got an array of dtype <U"):
        ControlMap.per_stage_state([[np.array(["1"]), [[1.0]]]], 2)


def test_box_constraints_take_only_numbers():
    with pytest.raises(ModelError, match="^box constraint: expected a number, got '0'$"):
        ConstraintSets("box", stationary=(["0"], [True]))
    with pytest.raises(ModelError, match="^box constraint: expected a number, got True$"):
        ConstraintSets("box", per_stage=[([0.0], [1.0]), ([0.0], [True])])


def _feedback_check_at(beta):
    """``viable_feedback_check`` of the example's own feedback at level ``beta``."""
    model = make_three_state_example(0.01, 0, 3)
    vf, argmax = solve(model)
    return viable_feedback_check(model, vf, select_feedback(argmax), 0, 1, beta)


_RAGGED, _HUGE = [[0.0], [0.0, 1.0]], 10**400
_DIGITS = "integer of 401 digits is past the range of a double"
# an integer past the interpreter's 4300-digit limit on an integer's text
_PAST, _PAST_TEXT = 10**5000, "integer of more than 4300 digits"


def _solved():
    """The example over 3 stages, its value function and argmax sets."""
    model = make_three_state_example(0.01, 0, 3)
    return (model, *solve(model))


def _estimate_from(x0):
    """``estimate_probability`` of the example's own feedback from ``x0``."""
    model, _, argmax = _solved()
    return estimate_probability(model, select_feedback(argmax), x0, 10, 0)


# each check has one home, so the constructors and entry points refuse what the
# model file refuses, with the same words under their own labels
@pytest.mark.parametrize("build,error,message", [
    (lambda: StateSpace(_RAGGED), ModelError,
     "StateSpace points: row [1] has 2 entries, row [0] has 1"),
    (lambda: StateSpace([[_HUGE]]), ModelError, f"StateSpace points: {_DIGITS}"),
    (lambda: ControlMap.shared(_RAGGED, 2), ModelError,
     "controls: row [1] has 2 entries, row [0] has 1"),
    (lambda: ControlMap.shared([[_HUGE]], 2), ModelError, f"controls: {_DIGITS}"),
    (lambda: DisturbanceLaw(_RAGGED, [0.5, 0.5]), ModelError,
     "noise support: row [1] has 2 entries, row [0] has 1"),
    (lambda: DisturbanceLaw([[0.0], [_HUGE]], [0.5, 0.5]), ModelError,
     f"noise support: {_DIGITS}"),
    (lambda: ConstraintSets("box", stationary=(_RAGGED, [1.0])), ModelError,
     "box constraint: row [1] has 2 entries, row [0] has 1"),
    (lambda: ConstraintSets("box", stationary=([0.0], [_HUGE])), ModelError,
     f"box constraint: {_DIGITS}"),
    (lambda: TableDynamics(np.full((1, 4, 1, 1), 1.9)), ModelError,
     "dynamics table entries of dtype float64 are not integers"),
    (lambda: TableDynamics([[[["1"]]]]), ModelError,
     "dynamics table entries of dtype <U1 are not integers"),
    (lambda: TableDynamics([[[[True]]]]), ModelError,
     "dynamics table entries of dtype bool are not integers"),
    (lambda: TableDynamics([[[[10**30]]]]), ModelError,
     "dynamics table entries of dtype object are not integers"),
    (lambda: TableDynamics([[[[1]], [[1, 2]]]]), ModelError,
     "dynamics table: rows of unequal length"),
    (lambda: FeedbackPolicy(0, 1, [[0, 1], [0]]), PolicyError,
     "control slots: rows of unequal length"),
    # a bool among ints, which numpy reads as 1; an array is checked by its dtype alone
    (lambda: TableDynamics([[[[1, True]]]]), ModelError,
     "dynamics table: expected an integer, got True"),
    (lambda: TableDynamics([[[np.array([1, 2]), [3, np.True_]]]]), ModelError,
     f"dynamics table: expected an integer, got {np.True_!r}"),
    (lambda: FeedbackPolicy(0, 1, [[0, True]]), PolicyError,
     "control slots: expected an integer, got True"),
    (lambda: kernel_slice(solve(make_three_state_example(0.01, 0, 3))[0], 0, True), ModelError,
     "beta must lie in (0, 1], got True"),
    (lambda: kernel_slice(solve(make_three_state_example(0.01, 0, 3))[0], 0, "0.5"), ModelError,
     "beta must lie in (0, 1], got '0.5'"),
    (lambda: _feedback_check_at(True), ModelError, "beta must lie in (0, 1], got True"),
    (lambda: _feedback_check_at("0.5"), ModelError, "beta must lie in (0, 1], got '0.5'"),
    (lambda: kernel_closed_form(0.01, 40, 39, True), ModelError,
     "beta must lie in (0, 1], got True"),
    (lambda: kernel_closed_form(0.01, 40, 39, "0.5"), ModelError,
     "beta must lie in (0, 1], got '0.5'"),
    (lambda: make_three_state_example("0.1"), ModelError, "p must lie in (0, 1/2), got '0.1'"),
    (lambda: example_matrix("0.1"), ModelError, "p must lie in (0, 1/2), got '0.1'"),
    # an integer whose text the interpreter refuses to write is named by its size
    (lambda: _solved()[1].value(0, _PAST), ModelError,
     f"x must be a state index in 0..3 (3 is the sink), got {_PAST_TEXT}"),
    (lambda: _estimate_from(_PAST), ModelError,
     f"x0 must be a non-sink state index in 0..2, got {_PAST_TEXT}"),
    (lambda: select_feedback(_solved()[2], [_PAST]), ModelError,
     f"preference slot {_PAST_TEXT} must be an integer in 0..1"),
    (lambda: StateSpace([[_PAST]]), ModelError,
     f"StateSpace points: {_PAST_TEXT} is past the range of a double"),
    (lambda: TableDynamics.from_nested([[[[_PAST]]]], 1, [1], 1, 1), ModelError,
     f"dynamics table entry {_PAST_TEXT} out of range at (t=0, x=0, u=0, w=0)"),
])
def test_input_refused_as_the_model_file_refuses_it(build, error, message):
    with pytest.raises(error, match="^" + re.escape(message) + "$"):
        build()


# integers of any size, 10**k of up to 6000 digits among them, strings of any
# characters and of up to 3000, and lists of them, nested
_OUTSIDE = st.recursive(
    st.integers() | st.builds(lambda k, sign: sign * 10**k, st.integers(0, 6000),
                              st.sampled_from([1, -1]))
    | st.text(max_size=3) | st.text(max_size=3000) | st.floats() | st.none() | st.booleans(),
    lambda inner: st.lists(inner, max_size=80) | st.tuples(inner) | st.tuples(inner, inner),
    max_leaves=300)


@given(_OUTSIDE)
@settings(max_examples=300, deadline=None)
def test_shown_is_bounded_and_never_raises(value):
    """``_shown`` of any value: ``str`` of a short integer, ``repr`` of a short
    string or list, and a bounded text of a long one."""
    text = _shown(value)
    if isinstance(value, int) and not isinstance(value, bool):
        digits = len(str(abs(value))) if abs(value) < 10**4300 else None
        if digits is None:
            assert text == "integer of more than 4300 digits"
        else:
            assert text == (str(value) if digits <= 200 else f"integer of {digits} digits")
    elif isinstance(value, str):
        assert text == (repr(value) if len(value) <= 200 else repr(value[:200]) + "...")
    else:
        assert len(text) <= 203
        try:
            full = repr(value)
        except ValueError:  # an integer past the limit inside
            full = None
        if full is not None and len(full) <= 200:
            assert text == full


def test_shown_cuts_a_list_and_its_nesting():
    assert _shown(list(range(1000))) == repr(list(range(1000)))[:200] + "..."
    nested = []
    for _ in range(5000):
        nested = [nested]
    assert _shown(nested) == "[" * 200 + "..."
    assert _shown({"a": _PAST}) == "<dict object>"
