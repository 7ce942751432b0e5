import re

import numpy as np
import pytest

from conftest import random_model
from stochviab.dp import PolicyError, evaluate_policy, solve
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

    @pytest.mark.parametrize("prefs", [[1, 0], (1,), np.array([1, 0]), [np.int64(1)], [1, 1, 0],
                                       [1] * 10**6])
    def test_preference_list_of_any_sequence(self, example_model, prefs):
        """A numpy array of slots is a preference list, not a rule name."""
        _, am = solve(example_model)
        want = select_feedback(am, "smallest").choice.copy()
        want[:, 1] = 1  # the one state where both slots maximize
        assert np.array_equal(select_feedback(am, prefs).choice, want)

    def test_preferences_fall_back_to_the_smallest_maximizer(self):
        """Slot order is the preference list, then the ascending slots."""
        for seed in range(8):
            model = random_model(seed)
            _, am = solve(model)
            width = am.mask.shape[2]
            for prefs in ([], [width - 1], [width - 1, 0]):
                got = select_feedback(am, prefs).choice
                for (k, x), members in np.ndenumerate(am.mask.any(axis=-1)):
                    order = [*prefs, *range(width)]
                    want = next((j for j in order if am.mask[k, x, j]), 0) if members else 0
                    assert got[k, x] == want

    @pytest.mark.parametrize("rule", ["alphabetical", [-1], [5], [1.7], [True]],
                             ids=["alphabetical", "slot-minus-1", "slot-5", "slot-1.7",
                                  "slot-True"])
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

    @pytest.mark.parametrize("control", [[1.0, 1.0], [1.0, 2.0, 3.0], []])
    def test_constant_requires_the_control_width(self, example_model, control):
        """A vector of two coordinates once matched the 1-wide control ``[1.0]``."""
        message = f"control {control} has {len(control)} coordinates, not 1"
        with pytest.raises(PolicyError, match="^" + re.escape(message) + "$"):
            FeedbackPolicy.constant(example_model, control)

    def test_from_array_shape_check(self, example_model):
        with pytest.raises(PolicyError):
            FeedbackPolicy.from_array(example_model, np.zeros((2, 2), dtype=np.int64))

    def test_from_array_rejects_inadmissible_slots(self, example_model):
        with pytest.raises(PolicyError, match="inadmissible control slot 2 at"):
            FeedbackPolicy.from_array(example_model, np.full((40, 4), 2))
        ok = np.zeros((40, 4), dtype=np.int64)
        assert np.array_equal(FeedbackPolicy.from_array(example_model, ok).choice, ok)

    @pytest.mark.parametrize("slot,dtype", [(1.9, np.float64), (1.0, np.float32), (True, bool)])
    def test_slots_that_are_not_integers_are_refused(self, slot, dtype):
        """A slot of 1.9 was once read as slot 1, through from_array and
        through a policy built directly."""
        model = make_three_state_example(0.01, 0, 3)
        choice = np.zeros((3, 4), dtype=dtype)
        choice[:, :3] = slot
        message = f"^control slots of dtype {np.dtype(dtype)} are not integers$"
        with pytest.raises(PolicyError, match=message):
            FeedbackPolicy.from_array(model, choice)
        with pytest.raises(PolicyError, match=message):
            evaluate_policy(model, FeedbackPolicy(0, 3, choice))

    @pytest.mark.parametrize("slot,dtype", [(1.9, np.float64), (1.0, np.float32), (True, bool)])
    def test_slots_that_are_not_integers_are_refused_at_construction(self, slot, dtype):
        """A policy built directly with a slot of 1.9 once answered choose(0, 0) == 1."""
        choice = np.zeros((3, 4), dtype=dtype)
        choice[:, :3] = slot
        with pytest.raises(PolicyError, match=f"^control slots of dtype {np.dtype(dtype)} are not integers$"):
            FeedbackPolicy(0, 3, choice)

    @pytest.mark.parametrize("shape", [(3, 4, 1), (3, 4, 2), (4,), ()])
    def test_slots_that_are_not_a_2d_array_are_refused(self, shape):
        """A 3-D choice once made choose raise numpy's TypeError."""
        message = "^" + re.escape(f"control slots of shape {shape} are not a 2-D array") + "$"
        with pytest.raises(PolicyError, match=message):
            FeedbackPolicy(0, 3, np.zeros(shape, dtype=np.int64))
        with pytest.raises(PolicyError, match=message):
            FeedbackPolicy.from_array(make_three_state_example(0.01, 0, 3), np.zeros(shape, dtype=np.int64))

    def test_a_policy_built_directly_holds_an_int64_copy(self):
        choice = np.ones((3, 4), dtype=np.int32)
        policy = FeedbackPolicy(0, 3, choice)
        choice[0, 0] = 0
        assert policy.choice.dtype == np.int64 and policy.choose(0, 0) == 1
        assert FeedbackPolicy(0, 3, [[0, 1, 0, 0]] * 3).choice.dtype == np.int64

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8])
    def test_from_array_stores_integer_slots_as_int64(self, dtype):
        model = make_three_state_example(0.01, 0, 3)
        choice = np.zeros((3, 4), dtype=dtype)
        choice[:, :3] = 1  # the sink has one slot
        policy = FeedbackPolicy.from_array(model, choice)
        assert policy.choice.dtype == np.int64 and np.array_equal(policy.choice, choice)
        choice[0, 0] = 0  # the policy holds its own copy
        assert policy.choose(0, 0) == 1

    def test_choose_bounds(self, example_model):
        _, am = solve(example_model)
        fb = select_feedback(am)
        with pytest.raises(ModelError):
            fb.choose(40, 0)


class TestAccessorArguments:
    """A stage is an integer in range and a state an integer in 0..m, the
    sink m included; anything else raises, never reads another entry."""

    @pytest.fixture()
    def solved(self, example_model):
        vf, am = solve(example_model)
        return vf, am, select_feedback(am)

    @pytest.mark.parametrize("x", [-1, -4, 4, 99, 1.0, True, "1"])
    def test_states_outside_0_to_the_sink(self, solved, x):
        vf, am, fb = solved
        message = f"^x must be a state index in 0..3 \\(3 is the sink\\), got {x!r}$"
        for access in (vf.value, am.viable, fb.choose):
            with pytest.raises(ModelError, match=message):
                access(0, x)

    def test_the_sink_is_a_state(self, solved):
        vf, am, fb = solved
        assert vf.value(0, 3) == 0.0 and vf.value(40, np.int64(3)) == 0.0
        assert am.viable(0, 3) == () and fb.choose(39, 3) == 0

    @pytest.mark.parametrize("t", [2.5, True, -1, 41, "0", 0.0])
    def test_stages_that_are_not_integers_in_range(self, solved, t):
        vf, am, fb = solved
        for access, last in ((vf.value, 40), (am.viable, 39), (fb.choose, 39)):
            with pytest.raises(ModelError, match=f"^stage {t!r} outside \\[0, {last}\\]$"):
                access(t, 1)
        with pytest.raises(ModelError, match=f"^stage {t!r} outside \\[0, 40\\]$"):
            vf.stage_index(t)
        with pytest.raises(ModelError, match=f"^stage {t!r} outside \\[0, 40\\]$"):
            kernel_slice(vf, t, 0.5)

    def test_integer_stages_of_numpy(self, solved):
        vf, am, fb = solved
        assert vf.stage_index(np.int64(40)) == 40
        assert vf.value(np.int32(0), 1) == vf.table[0, 1]
        assert am.viable(np.int64(0), 1) == am.viable(0, 1)
        # and read as plain numbers when out of range
        with pytest.raises(ModelError, match=r"^stage 41 outside \[0, 40\]$"):
            vf.value(np.int64(41), 1)
        with pytest.raises(ModelError, match=r"^x must be a state index in 0..3 "
                                             r"\(3 is the sink\), got 4$"):
            vf.value(0, np.int64(4))

    @pytest.mark.parametrize("x0", [-1, 3, 99, 1.0, True, "1"])
    def test_feedback_check_takes_a_non_sink_start(self, example_model, solved, x0):
        vf, _, fb = solved
        with pytest.raises(ModelError, match=f"^x0 must be a non-sink state index in 0..2, "
                                             f"got {x0!r}$"):
            viable_feedback_check(example_model, vf, fb, 0, x0, 0.5)

    @pytest.mark.parametrize("beta", [0.0, -1.0, float("nan"), 1.5])
    def test_feedback_check_takes_a_beta_in_0_to_1(self, example_model, solved, beta):
        """0 and -1 once passed every policy, and nan and 1.5 none."""
        vf, _, fb = solved
        with pytest.raises(ModelError, match=re.escape(f"beta must lie in (0, 1], got {beta}")):
            viable_feedback_check(example_model, vf, fb, 0, 1, beta)

    @pytest.mark.parametrize("t0", [2.5, True, 41])
    def test_feedback_check_takes_a_stage_in_range(self, example_model, solved, t0):
        vf, _, fb = solved
        with pytest.raises(ModelError, match=f"^stage {t0} outside \\[0, 40\\]$"):
            viable_feedback_check(example_model, vf, fb, t0, 1, 0.5)
