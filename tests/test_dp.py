import numpy as np
import pytest

from conftest import random_model, random_policy, walk_model
from stochviab.closed_form import matrix_value
from stochviab.dp import (
    ARGMAX_TOL,
    ValueSlice,
    bellman_step,
    brute_force_value,
    evaluate_policy,
    solve,
    terminal_slice,
)
from stochviab.kernel import FeedbackPolicy, select_feedback
from stochviab.model import (
    ConstraintSets,
    ControlMap,
    DisturbanceLaw,
    InvalidModelError,
    Model,
    ModelError,
    StateSpace,
    TableDynamics,
    TimeGrid,
    make_three_state_example,
    validate,
)


def test_terminal_slice_is_target_indicator(example_model):
    sl = terminal_slice(example_model)
    assert sl.t == 40
    assert list(sl.values) == [1.0, 1.0, 1.0, 0.0]


def test_terminal_slice_empty_target():
    m = make_three_state_example(0.1, 0, 2)
    empty = Model(
        m.time, m.states, m.controls, m.noise, m.dynamics,
        ConstraintSets("set", per_stage=((0, 1, 2), (0, 1, 2), ())),
    )
    assert list(terminal_slice(empty).values) == [0.0, 0.0, 0.0, 0.0]


def test_terminal_slice_box_target():
    m = make_three_state_example(0.1, 0, 2)
    boxed = Model(
        m.time, m.states, m.controls, m.noise, m.dynamics,
        ConstraintSets("box", stationary=([0.0], [10.0])),
    )
    assert list(terminal_slice(boxed).values) == [0.0, 1.0, 1.0, 0.0]


class TestBellmanStep:
    def test_one_step_hand_values(self, example_model):
        sl, argmax = bellman_step(example_model, 39, terminal_slice(example_model))
        assert sl.t == 39
        assert list(sl.values) == [1.0, 0.99, 1.0, 0.0]
        # controls are ordered (-1, +1): slots (1,), (0, 1), (0,)
        assert argmax[0] == (1,)
        assert argmax[1] == (0, 1)
        assert argmax[2] == (0,)
        assert argmax[3] == ()

    def test_stage_mismatch(self, example_model):
        with pytest.raises(ModelError, match="stage mismatch"):
            bellman_step(example_model, 38, terminal_slice(example_model))

    def test_outside_constraint_set_is_zero(self):
        m = make_three_state_example(0.1, 0, 2)
        narrowed = Model(
            m.time, m.states, m.controls, m.noise, m.dynamics,
            ConstraintSets("set", per_stage=((0, 2), (0, 1, 2), (0, 1, 2))),
        )
        sl, argmax = bellman_step(narrowed, 0, ValueSlice(1, np.ones(4)))
        assert sl.values[1] == 0.0 and argmax[1] == ()

    def test_single_atom_noise_keeps_indicators(self):
        model = random_model(3, deterministic=True)
        nxt = ValueSlice(model.time.t0 + 1,
                         model.tables.member[1].astype(np.float64))
        sl, _ = bellman_step(model, model.time.t0, nxt)
        assert set(np.unique(sl.values)) <= {0.0, 1.0}


class TestSolve:
    def test_headline_value(self, example_model):
        vf, _ = solve(example_model)
        v00 = vf.value(0, 1)
        assert v00 == pytest.approx(matrix_value(0.01, 40, 0, 0), abs=1e-12)

    def test_matches_matrix_oracle_everywhere(self):
        for p in (0.01, 0.1, 0.3):
            vf, _ = solve(make_three_state_example(p, 0, 40))
            for t in range(41):
                for idx, coord in enumerate((-1, 0, 1)):
                    assert vf.value(t, idx) == pytest.approx(
                        matrix_value(p, 40, t, coord), abs=1e-12
                    )

    def test_deterministic_model_is_zero_one(self):
        for seed in range(5):
            vf, _ = solve(random_model(seed, deterministic=True))
            assert set(np.unique(vf.table)) <= {0.0, 1.0}

    def test_range_and_sink_invariants(self):
        for seed in range(25):
            model = random_model(seed)
            vf, _ = solve(model)
            assert np.all(vf.table >= 0.0) and np.all(vf.table <= 1.0)
            assert np.all(vf.table[:, model.states.sink] == 0.0)
            assert np.all(vf.table[~model.tables.member] == 0.0)

    def test_repeat_solves_bit_identical(self, example_model):
        vf1, _ = solve(example_model)
        vf2, _ = solve(example_model)
        assert np.array_equal(vf1.table, vf2.table)

    def test_invalid_model_raises_with_violations(self):
        m = make_three_state_example(0.1)
        bad = Model(
            m.time, m.states, m.controls,
            DisturbanceLaw(m.noise.support, np.array([0.2, 0.2, 0.2])),
            m.dynamics, m.constraints,
        )
        with pytest.raises(InvalidModelError) as err:
            solve(bad)
        assert any("DisturbanceLaw" in v for v in err.value.violations)

    def test_noise_relabeling_leaves_values_unchanged(self):
        base = make_three_state_example(0.17, 0, 12)
        vf, _ = solve(base)
        perm = [2, 0, 1]
        shuffled = Model(
            base.time, base.states, base.controls,
            DisturbanceLaw(base.noise.support[perm], base.noise.probs[perm]),
            base.dynamics, base.constraints,
        )
        vf2, _ = solve(shuffled)
        assert np.allclose(vf.table, vf2.table, atol=1e-12)


def _tiny_value_model() -> Model:
    """Two states, T = 3: control 0 stays with probability 1e-5, control 1
    always goes to the sink, so V(0, x) = 1e-15 and control 1 achieves 0."""
    m, steps = 2, 3
    table = np.full((steps, m + 1, 2, 2), m, dtype=np.int64)
    for x in range(m):
        table[:, x, 0, 0] = x
    return Model(
        TimeGrid(0, steps),
        StateSpace(np.arange(m, dtype=float)[:, None]),
        ControlMap.shared(np.array([[0.0], [1.0]]), m),
        DisturbanceLaw(np.array([[0.0], [1.0]]), np.array([1e-5, 1.0 - 1e-5])),
        TableDynamics(table),
        ConstraintSets("set", stationary=tuple(range(m))),
    )


class TestEvaluatePolicy:
    def test_argmax_selection_achieves_value(self, example_model):
        for model in (example_model, _tiny_value_model()):
            vf, am = solve(model)
            for rule in ("smallest", "largest"):
                pv = evaluate_policy(model, select_feedback(am, rule))
                assert np.all(np.abs(pv.table - vf.table) <= 1e-12 * vf.table)

    def test_argmax_selection_loss_grows_with_the_horizon(self):
        """The argmax sets admit a relative gap of ARGMAX_TOL per stage, so a
        selection may fall short of V by up to steps * ARGMAX_TOL; here both
        tie-breaks lose about 1.3e-11, more than one stage's tolerance."""
        model = walk_model(101, 200)
        vf, am = solve(model)
        bound = model.time.steps * ARGMAX_TOL * vf.table
        for rule in ("smallest", "largest"):
            pv = evaluate_policy(model, select_feedback(am, rule))
            assert np.all(np.abs(pv.table - vf.table) <= bound)

    def test_constant_plus_one_hand_values(self, example_model):
        fb = FeedbackPolicy.constant(example_model, [1.0])
        pv = evaluate_policy(example_model, fb)
        # from -1: always survives one step; from 0: lost iff w=+1;
        # from 1: survives only when w=-1
        assert pv.value(39, 0) == 1.0
        assert pv.value(39, 1) == pytest.approx(0.99, abs=1e-15)
        assert pv.value(39, 2) == pytest.approx(0.01, abs=1e-15)

    def test_dominated_by_value_function(self):
        for seed in range(10):
            model = random_model(seed)
            vf, _ = solve(model)
            for j in range(5):
                pv = evaluate_policy(model, random_policy(model, 100 * seed + j))
                assert np.all(pv.table <= vf.table + 1e-12)

    def test_evaluation_is_the_backup_over_the_policy_control(self, example_model):
        """Solving the model whose only admissible control at each (stage,
        state) is the policy's gives the evaluation table, bit for bit."""
        for model in (example_model, *(random_model(seed) for seed in range(40))):
            tab, ctl = model.tables, model.controls
            m, rows = tab.n_states, ctl.stage_rows(model.time)  # one row if stationary
            _, am = solve(model)
            for rule in ("smallest", "largest"):
                policy = select_feedback(am, rule)
                choice = policy.choice
                vectors = [[[ctl.vectors[rows[k % rows.size], x, choice[k, x], : ctl.dim]]
                            for x in range(m)] for k in range(tab.steps)]
                table = np.stack([tab.next_state[k][np.arange(m + 1), choice[k], None]
                                  for k in range(tab.steps)])
                restricted = Model(
                    model.time, model.states,
                    ControlMap.per_stage_state(vectors, m, model.time.t0),
                    model.noise, TableDynamics(table), model.constraints,
                )
                assert np.array_equal(solve(restricted)[0].table,
                                      evaluate_policy(model, policy).table)

    def test_invalid_model_listed_before_tables_are_built(self):
        """A per_stage_state table with one row for three stages: both
        backward inductions list every violation, not the table build's."""
        base = make_three_state_example(0.01, 0, 3)
        bad = Model(
            base.time, base.states,
            ControlMap.per_stage_state([[[[-1.0], [1.0]]] * 3], 3, 0),
            base.noise, base.dynamics, base.constraints,
        )
        policy = FeedbackPolicy(0, 3, np.zeros((3, 4), dtype=np.int64))
        for run in (lambda: solve(bad), lambda: evaluate_policy(bad, policy)):
            with pytest.raises(InvalidModelError) as err:
                run()
            assert len(err.value.violations) == 6
            assert err.value.violations == validate(bad)

    def test_inadmissible_policy_rejected(self, example_model):
        tab = example_model.tables
        bad = FeedbackPolicy(0, 40, np.full((tab.steps, 4), 7, dtype=np.int64))
        with pytest.raises(Exception, match="inadmissible"):
            evaluate_policy(example_model, bad)


class TestBruteForce:
    def test_two_step_example_matches_solve_and_hand_value(self):
        model = make_three_state_example(0.1, 0, 2)
        vf, _ = solve(model)
        bf = brute_force_value(model, 1)
        assert abs(bf - vf.value(0, 1)) <= 1e-12
        # exhaustive scenario reasoning: survive via the boundary 0.8*1,
        # bounce back to the middle 0.1*0.9
        assert bf == pytest.approx(0.89, abs=1e-12)

    def test_single_step_deterministic(self):
        model = random_model(11, deterministic=True)
        if model.time.steps != 1:
            model = random_model(17, deterministic=True)
        vf, _ = solve(model)
        for x0 in range(model.states.n_points):
            assert brute_force_value(model, x0) in (0.0, 1.0)
            assert brute_force_value(model, x0) == vf.value(model.time.t0, x0)

    def test_oracle_equivalence_on_random_models(self):
        for seed in range(15):
            model = random_model(seed)
            vf, _ = solve(model)
            for x0 in range(model.states.n_points):
                assert abs(brute_force_value(model, x0)
                           - vf.value(model.time.t0, x0)) <= 1e-12

    def test_guard_rejects_huge_enumerations(self):
        m = 4
        steps = 4
        table = np.zeros((steps, m + 1, 3, 1), dtype=np.int64)
        table[:, m] = m
        big = Model(
            TimeGrid(0, steps),
            StateSpace(np.arange(m, dtype=float)[:, None]),
            ControlMap.shared(np.arange(3, dtype=float)[:, None], m),
            DisturbanceLaw(np.array([[0.0]]), np.array([1.0])),
            TableDynamics(table),
            ConstraintSets("set", stationary=tuple(range(m))),
        )
        with pytest.raises(ModelError, match="guard"):
            brute_force_value(big, 0)  # 3^16 candidates

    def test_x0_range(self, example_model):
        with pytest.raises(ModelError):
            brute_force_value(make_three_state_example(0.1, 0, 2), 3)
