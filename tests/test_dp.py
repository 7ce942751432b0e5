import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import random_model, random_policy, walk_model
from stochviab import _tables, dp
from stochviab.closed_form import matrix_value
from stochviab.dp import (
    ARGMAX_TOL,
    PolicyError,
    _stage_backup,
    brute_force_value,
    evaluate_policy,
    solve,
    terminal_slice,
)
from stochviab.kernel import FeedbackPolicy, select_feedback
from stochviab.mc import estimate_probability, simulate
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


def _backup(model, t, v_next):
    """``_stage_backup`` at stage ``t`` of ``model``, read as ``solve`` reads its
    ``q``: the values and, per state, the ordered tuple of maximizing control slots."""
    tab = model.tables
    k = t - model.time.t0
    q = _stage_backup(tab.n_ctrl[k], tab.next_state[k], tab.probs,
                      np.asarray(v_next, dtype=np.float64))
    best = q.max(axis=1)
    values = np.where(tab.member[k], np.minimum(best, 1.0), 0.0)
    mask = tab.member[k][:, None] & (q >= (best - ARGMAX_TOL * best)[:, None])
    return values, [tuple(np.flatnonzero(row).tolist()) for row in mask]


class TestBellmanStep:
    def test_one_step_hand_values(self, example_model):
        values, argmax = _backup(example_model, 39, terminal_slice(example_model).values)
        assert list(values) == [1.0, 0.99, 1.0, 0.0]
        # controls are ordered (-1, +1): slots (1,), (0, 1), (0,)
        assert argmax[0] == (1,)
        assert argmax[1] == (0, 1)
        assert argmax[2] == (0,)
        assert argmax[3] == ()

    def test_outside_constraint_set_is_zero(self):
        m = make_three_state_example(0.1, 0, 2)
        narrowed = Model(
            m.time, m.states, m.controls, m.noise, m.dynamics,
            ConstraintSets("set", per_stage=((0, 2), (0, 1, 2), (0, 1, 2))),
        )
        values, argmax = _backup(narrowed, 0, np.ones(4))
        assert values[1] == 0.0 and argmax[1] == ()

    def test_single_atom_noise_keeps_indicators(self):
        model = random_model(3, deterministic=True)
        values, _ = _backup(model, model.time.t0, model.tables.member[1].astype(np.float64))
        assert set(np.unique(values)) <= {0.0, 1.0}

    def test_q_is_the_expectation_and_minus_inf_past_the_count(self):
        past = 0
        for seed in range(20):
            tab = random_model(seed).tables
            v_next = np.random.default_rng(seed).random(tab.n_states + 1)
            for k in range(tab.steps):
                q = _stage_backup(tab.n_ctrl[k], tab.next_state[k], tab.probs, v_next)
                assert q.shape == (tab.n_states + 1, tab.u_max)
                for x, j in itertools.product(range(tab.n_states + 1), range(tab.u_max)):
                    if j < tab.n_ctrl[k, x]:
                        # the atoms in the same order: the same float
                        assert q[x, j] == sum(p * v_next[y] for p, y in
                                              zip(tab.probs, tab.next_state[k, x, j]))
                    else:
                        assert q[x, j] == -np.inf
                        past += 1
        assert past > 0


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

    def test_slice_is_one_stage_of_the_table(self, example_model):
        vf, _ = solve(example_model)
        sl = vf.slice(17)
        assert sl.t == 17 and np.array_equal(sl.values, vf.table[17])
        with pytest.raises(ModelError, match=r"^stage 41 outside \[0, 40\]$"):
            vf.slice(41)

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

    def test_evaluation_builds_no_mask(self, example_model):
        policy = select_feedback(solve(example_model)[1])
        assert dp._backward(example_model, policy)[1] is None

    def test_evaluation_is_the_backup_over_the_policy_control(self, example_model):
        """Solving the model whose only admissible control at each (stage,
        state) is the policy's gives the evaluation table, bit for bit."""
        for model in (example_model, *(random_model(seed) for seed in range(40))):
            tab, m = model.tables, model.states.n_points
            _, am = solve(model)
            for rule in ("smallest", "largest"):
                policy = select_feedback(am, rule)
                choice = policy.choice
                vectors = [[[model.admissible(tab.t0 + k, x)[choice[k, x]]] for x in range(m)]
                           for k in range(tab.steps)]
                table = np.stack([tab.next_state[k][np.arange(m + 1), choice[k], None]
                                  for k in range(tab.steps)])
                restricted = Model(
                    model.time, model.states,
                    ControlMap.per_stage_state(vectors, m),
                    model.noise, TableDynamics(table), model.constraints,
                )
                assert np.array_equal(solve(restricted)[0].table,
                                      evaluate_policy(model, policy).table)

    def test_invalid_model_listed_before_tables_are_built(self):
        """A per_stage_state table with two empty lists in each of three
        stages: both backward inductions list every violation, not the table
        build's."""
        base = make_three_state_example(0.01, 0, 3)
        bad = Model(
            base.time, base.states,
            ControlMap.per_stage_state([[[], [[-1.0], [1.0]], []]] * 3, 3),
            base.noise, base.dynamics, base.constraints,
        )
        policy = FeedbackPolicy(0, 3, np.zeros((3, 4), dtype=np.int64))
        for run in (lambda: solve(bad), lambda: evaluate_policy(bad, policy)):
            with pytest.raises(InvalidModelError) as err:
                run()
            assert len(err.value.violations) == 6
            assert err.value.violations == validate(bad)

    def test_every_reader_of_the_tables_is_gated(self):
        """Compiling the tables is the one gate: each consumer of an invalid
        model raises, not only the backward inductions."""
        base = make_three_state_example(0.01, 0, 5)
        bad = Model(
            base.time, base.states, base.controls,
            DisturbanceLaw(base.noise.support, np.array([0.25, 0.25, 0.25])),
            base.dynamics, base.constraints,
        )
        policy = FeedbackPolicy.constant(base, [1.0])
        for run in (
            lambda: estimate_probability(bad, policy, 1, 10000, 3),
            lambda: simulate(bad, policy, 1, 3),
            lambda: FeedbackPolicy.constant(bad, [1.0]),
            lambda: terminal_slice(bad),
            lambda: solve(bad),
        ):
            with pytest.raises(InvalidModelError) as err:
                run()
            assert err.value.violations == validate(bad)

    def test_one_model_is_validated_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(_tables, "validate", lambda model: calls.append(model) or [])
        model = make_three_state_example(0.1, 0, 3)
        _, am = solve(model)
        policy = select_feedback(am)
        evaluate_policy(model, policy)
        estimate_probability(model, policy, 1, 100, 0)
        brute_force_value(model, 1)
        assert calls == [model]

    def test_policy_stages_must_match_the_model(self):
        model = make_three_state_example(0.01, 0, 5)
        policy = select_feedback(solve(model)[1])
        stages = r"policy stages \[7, 12\] differ from the model's \[0, 5\]"
        with pytest.raises(PolicyError, match=stages):
            evaluate_policy(model, FeedbackPolicy(7, 12, policy.choice))

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

    @pytest.mark.parametrize("deterministic", [False, True])
    def test_equals_best_evaluated_policy(self, deterministic):
        # both sum the atoms in the same order and clamp the same way, so the
        # best score is equal, not merely close
        for seed in range(40):
            model = random_model(seed, deterministic)
            tab = model.tables
            m = tab.n_states
            best = np.full(m, -np.inf)
            for slots in itertools.product(*map(range, tab.n_ctrl[:, :m].flat)):
                choice = np.zeros((tab.steps, m + 1), dtype=np.int64)
                choice[:, :m] = np.reshape(slots, (tab.steps, m))
                vf = evaluate_policy(model, FeedbackPolicy.from_array(model, choice))
                best = np.maximum(best, vf.table[0, :m])
            assert [brute_force_value(model, x0) for x0 in range(m)] == best.tolist(), seed

    def test_memory_is_a_few_candidate_value_tables(self):
        model = make_three_state_example(0.01, 0, 6)  # 2^18 candidates over 3 states + sink
        model.tables
        tracemalloc.start()
        try:
            brute_force_value(model, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**18 * 4 * 8, peak

    @staticmethod
    def _line_model(n: int) -> Model:
        """n states on a line and one stage with two controls, a step left or
        right (off the ends into the sink): 2^n candidate laws."""
        table = np.full((1, n + 1, 2, 1), n, dtype=np.int64)
        for x in range(n):
            for j, y in enumerate((x - 1, x + 1)):
                if 0 <= y < n:
                    table[0, x, j, 0] = y
        return Model(
            TimeGrid(0, 1),
            StateSpace(np.arange(n, dtype=float)[:, None]),
            ControlMap.shared(np.array([[-1.0], [1.0]]), n),
            DisturbanceLaw(np.array([[0.0]]), np.array([1.0])),
            TableDynamics(table),
            ConstraintSets("set", stationary=tuple(range(n))),
        )

    def test_memory_does_not_grow_with_the_candidate_count(self):
        # 2^14 candidates fill one block; 2^19 hold 84 MB of value rows at once
        assert dp._BLOCK == 2**14
        peaks = {}
        for n in (14, 19):
            model = self._line_model(n)
            model.tables
            tracemalloc.start()
            try:
                assert brute_force_value(model, n // 2) == 1.0
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[19] <= 2 * peaks[14], peaks
        assert peaks[19] < 8 * 2**20, peaks

    def test_a_long_horizon_of_one_control_equals_solve(self):
        ex = make_three_state_example(0.0002, 0, 3000)
        model = Model(ex.time, ex.states, ControlMap.shared(np.array([[0.0]]), 3),
                      ex.noise, ex.dynamics, ex.constraints)
        vf, _ = solve(model)
        for x0 in range(3):
            assert brute_force_value(model, x0) == vf.value(0, x0)
        assert brute_force_value(model, 1) == 0.8226827217800934

    @pytest.mark.parametrize("block,horizons", [(1, range(1, 5)), (5, range(1, 5)),
                                                (64, range(1, 7))], ids=["1", "5", "64"])
    def test_any_block_gives_the_same_bits(self, monkeypatch, block, horizons):
        # T = 6 holds 2^18 laws, which blocks under 64 rows take seconds to go through
        models = [random_model(seed) for seed in range(40)]
        models += [make_three_state_example(0.01, 0, T) for T in horizons]
        want = [[brute_force_value(m, x0) for x0 in range(m.states.n_points)] for m in models]
        monkeypatch.setattr(dp, "_BLOCK", block)
        got = [[brute_force_value(m, x0) for x0 in range(m.states.n_points)] for m in models]
        assert got == want

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
