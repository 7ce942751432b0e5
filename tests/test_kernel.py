import numpy as np
import pytest

from conftest import random_model
from stochviab.dp import PolicyError, solve
from stochviab.kernel import (
    FeedbackPolicy,
    kernel_slice,
    select_feedback,
    viable_feedback_check,
)
from stochviab.model import (
    ConstraintSets,
    ControlMap,
    DisturbanceLaw,
    Model,
    ModelError,
    StateSpace,
    TableDynamics,
    TimeGrid,
    make_three_state_example,
)


class TestKernelSlice:
    def test_hand_values_near_terminal(self, example_model):
        vf, _ = solve(example_model)
        assert kernel_slice(vf, 39, 0.99).members == (0, 1, 2)
        assert kernel_slice(vf, 39, 0.995).members == (0, 2)

    def test_tiny_beta_gives_all_positive_states(self, example_model):
        vf, _ = solve(example_model)
        tiny = 5e-324
        got = kernel_slice(vf, 0, tiny).members
        want = tuple(np.nonzero(vf.table[0, :3] > 0)[0])
        assert got == want

    def test_beta_range_errors(self, example_model):
        vf, _ = solve(example_model)
        for beta in (0.0, -0.2, 1.0000001):
            with pytest.raises(ModelError):
                kernel_slice(vf, 0, beta)

    def test_missing_stage(self, example_model):
        vf, _ = solve(example_model)
        with pytest.raises(ModelError):
            kernel_slice(vf, 41, 0.5)

    def test_sink_never_member(self):
        for seed in range(10):
            model = random_model(seed)
            vf, _ = solve(model)
            for beta in (0.1, 0.5, 1.0):
                assert model.states.sink not in kernel_slice(
                    vf, model.time.t0, beta
                ).members

    def test_nesting_in_beta(self):
        betas = (0.1, 0.3, 0.5, 0.67, 0.9, 0.99, 0.995, 1.0)
        for seed in range(10):
            model = random_model(seed)
            vf, _ = solve(model)
            for t in range(model.time.t0, model.time.T + 1):
                slices = [set(kernel_slice(vf, t, b).members) for b in betas]
                for small, big in zip(slices[1:], slices[:-1]):
                    assert small <= big


class TestSelectFeedback:
    def test_example_selection(self, example_model):
        _, am = solve(example_model)
        fb = select_feedback(am)
        for t in range(40):
            assert fb.choose(t, 0) == 1  # control +1 at state -1
            assert fb.choose(t, 2) == 0  # control -1 at state +1
            assert fb.choose(t, 1) == 0  # default tie-break: smaller slot

    def test_largest_and_preference_rules(self, example_model):
        _, am = solve(example_model)
        largest = select_feedback(am, "largest")
        prefer = select_feedback(am, [1, 0])
        assert largest.choose(0, 1) == 1
        assert prefer.choose(0, 1) == 1
        # states with a unique maximizer ignore the rule
        assert largest.choose(0, 0) == 1 and prefer.choose(0, 0) == 1
        assert largest.choose(0, 2) == 0 and prefer.choose(0, 2) == 0

    @pytest.mark.parametrize("rule", ["alphabetical", [-1], [5]],
                             ids=["alphabetical", "slot-minus-1", "slot-5"])
    def test_unknown_rule_rejected(self, example_model, rule):
        _, am = solve(example_model)
        with pytest.raises(ModelError):
            select_feedback(am, rule)

    def test_unique_maximizers_tie_break_independent(self):
        for seed in range(8):
            model = random_model(seed, deterministic=True)
            _, am = solve(model)
            small = select_feedback(am, "smallest")
            large = select_feedback(am, "largest")
            singles = am.mask.sum(axis=2) == 1
            assert np.array_equal(small.choice[singles], large.choice[singles])

    def test_hopeless_state_gets_first_admissible(self):
        # state 1 sits inside the constraint set but every control leads
        # to the sink, so its value is 0 and any control is as good
        m = 2
        table = np.zeros((1, m + 1, 2, 1), dtype=np.int64)
        table[0, 0, :, 0] = 0
        table[0, 1, :, 0] = m  # both controls jump to the sink
        table[0, m] = m
        model = Model(
            TimeGrid(0, 1),
            StateSpace(np.array([[0.0], [1.0]])),
            ControlMap.shared(np.array([[0.0], [1.0]]), m),
            DisturbanceLaw(np.array([[0.0]]), np.array([1.0])),
            TableDynamics(table),
            ConstraintSets("set", stationary=(0, 1)),
        )
        vf, am = solve(model)
        assert vf.value(0, 1) == 0.0
        fb = select_feedback(am)
        assert fb.choose(0, 1) == 0


class TestViableFeedbackCheck:
    def test_argmax_selection_meets_its_own_value(self, example_model):
        vf, am = solve(example_model)
        fb = select_feedback(am)
        beta = vf.value(0, 1)
        assert viable_feedback_check(example_model, vf, fb, 0, 1, beta)

    def test_constant_policy_fails_high_beta(self, example_model):
        vf, _ = solve(example_model)
        fb = FeedbackPolicy.constant(example_model, [1.0])
        # from state +1 the constant +1 control survives one step with
        # probability p = 0.01 only
        assert not viable_feedback_check(example_model, vf, fb, 39, 2, 0.5)
        assert viable_feedback_check(example_model, vf, fb, 39, 2, 0.01)

    def test_beta_above_value_fails(self, example_model):
        vf, am = solve(example_model)
        fb = select_feedback(am)
        v = vf.value(0, 1)
        assert not viable_feedback_check(
            example_model, vf, fb, 0, 1, np.nextafter(v, 2.0)
        )

    def test_kernel_feedback_equivalence(self, example_model):
        vf, am = solve(example_model)
        fb = select_feedback(am)
        for beta in (0.1, 0.5, 0.8172612794832741, 0.9, 1.0):
            members = set(kernel_slice(vf, 0, beta).members)
            for x0 in range(3):
                assert (x0 in members) == viable_feedback_check(
                    example_model, vf, fb, 0, x0, beta
                )


class TestFeedbackPolicy:
    def test_constant_requires_admissible_vector(self, example_model):
        with pytest.raises(PolicyError):
            FeedbackPolicy.constant(example_model, [0.5])

    def test_from_array_shape_check(self, example_model):
        with pytest.raises(PolicyError):
            FeedbackPolicy.from_array(example_model, np.zeros((2, 2), dtype=np.int64))

    def test_choose_bounds(self, example_model):
        _, am = solve(example_model)
        fb = select_feedback(am)
        with pytest.raises(ModelError):
            fb.choose(40, 0)
