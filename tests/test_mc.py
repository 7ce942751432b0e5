import hashlib

import numpy as np
import pytest

from conftest import random_model, random_policy
from stochviab._rng import derive_seed, stream_array
from stochviab.dp import evaluate_policy, solve
from stochviab.kernel import FeedbackPolicy, kernel_slice, select_feedback
from stochviab.mc import (
    estimate_probability,
    sample_scenario,
    simulate,
    simulate_batch,
    wilson_interval,
)
from stochviab.model import (
    DisturbanceLaw,
    Model,
    ModelError,
    make_three_state_example,
)


def _with_noise(model, support, probs):
    return Model(
        model.time, model.states, model.controls,
        DisturbanceLaw(np.array(support), np.array(probs)),
        model.dynamics, model.constraints,
    )


class TestSampleScenario:
    def test_single_atom_law_is_constant(self):
        law = DisturbanceLaw(np.array([[3.0]]), np.array([1.0]))
        for seed in (0, 1, 99):
            assert np.all(sample_scenario(law, 50, seed).draws == 0)

    def test_same_seed_same_scenario(self, example_model):
        a = sample_scenario(example_model.noise, 40, 123)
        b = sample_scenario(example_model.noise, 40, 123)
        assert np.array_equal(a.draws, b.draws)
        c = sample_scenario(example_model.noise, 40, 124)
        assert not np.array_equal(a.draws, c.draws)

    def test_draw_frequencies_match_law(self, example_model):
        draws = sample_scenario(example_model.noise, 1_000_000, 77).draws
        freq0 = np.mean(draws == 1)  # atom w = 0 carries mass 0.98
        assert abs(freq0 - 0.98) <= 0.001

    def test_one_draw_per_transition(self, example_model):
        sc = sample_scenario(example_model.noise, example_model.time.steps, 5)
        assert sc.draws.shape == (40,)
        assert np.all((0 <= sc.draws) & (sc.draws < 3))


class TestSimulate:
    def test_deterministic_noise_alternating_path(self, example_model):
        det = _with_noise(example_model, [[0.0]], [1.0])
        _, am = solve(det)
        fb = select_feedback(am)
        tr = simulate(det, fb, 0, seed=0)
        # from -1 the feedback aims at the center, the default tie-break
        # picks -1 there: the path alternates -1, 0, -1, 0, ...
        want = [0, 1] * 20 + [0]
        assert list(tr.states) == want
        assert tr.success

    def test_sink_absorbs_and_fails(self, example_model):
        push_up = _with_noise(example_model, [[1.0]], [1.0])
        fb = FeedbackPolicy.constant(push_up, [1.0])
        tr = simulate(push_up, fb, 1, seed=3)
        assert tr.states[1] == push_up.states.sink
        assert np.all(tr.states[1:] == push_up.states.sink)
        assert not tr.success

    def test_same_args_identical_trajectory(self, example_model):
        _, am = solve(example_model)
        fb = select_feedback(am)
        a = simulate(example_model, fb, 1, seed=9)
        b = simulate(example_model, fb, 1, seed=9)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.controls, b.controls)
        assert np.array_equal(a.scenario.draws, b.scenario.draws)
        assert a.success == b.success

    def test_success_matches_independent_recount(self, example_model):
        _, am = solve(example_model)
        fb = select_feedback(am)
        member = example_model.tables.member
        for seed in range(30):
            tr = simulate(example_model, fb, 1, seed=seed)
            recount = all(member[k, x] for k, x in enumerate(tr.states))
            assert tr.success == recount

    def test_states_obey_dynamics_and_policy(self, example_model):
        _, am = solve(example_model)
        fb = select_feedback(am)
        tab = example_model.tables
        tr = simulate(example_model, fb, 2, seed=31)
        for k in range(40):
            assert tr.controls[k] == fb.choice[k, tr.states[k]]
            assert tr.states[k + 1] == tab.next_state[
                k, tr.states[k], tr.controls[k], tr.scenario.draws[k]
            ]

    def test_x0_must_be_non_sink(self, example_model):
        _, am = solve(example_model)
        fb = select_feedback(am)
        for bad in (-1, 3, 99, 1.9, True):
            with pytest.raises(ModelError):
                simulate(example_model, fb, bad, seed=0)


class TestBatch:
    def test_batch_matches_single_simulations(self, example_model):
        _, am = solve(example_model)
        fb = select_feedback(am)
        states, controls, draws, ok = simulate_batch(example_model, fb, 1, 200, 555)
        for i in range(200):
            tr = simulate(example_model, fb, 1, derive_seed(555, i))
            assert np.array_equal(states[i], tr.states)
            assert np.array_equal(controls[i], tr.controls)
            assert np.array_equal(draws[i], tr.scenario.draws)
            assert bool(ok[i]) == tr.success


class TestEstimate:
    def test_wilson_interval_known_values(self):
        lo, hi = wilson_interval(8, 10)
        assert lo == pytest.approx(0.4902, abs=5e-4)
        assert hi == pytest.approx(0.9433, abs=5e-4)
        lo, hi = wilson_interval(0, 10)
        assert lo == pytest.approx(0.0, abs=1e-12) and hi < 0.28
        lo, hi = wilson_interval(10, 10)
        assert hi == 1.0 and lo > 0.72

    def test_interval_brackets_mean(self, example_model):
        _, am = solve(example_model)
        fb = select_feedback(am)
        est = estimate_probability(example_model, fb, 1, 3000, 17)
        assert 0.0 <= est.ci_low <= est.mean <= est.ci_high <= 1.0

    def test_estimate_consistent_with_exact_value(self, example_model):
        _, am = solve(example_model)
        fb = select_feedback(am)
        exact = evaluate_policy(example_model, fb).value(0, 1)
        n = 20000
        est = estimate_probability(example_model, fb, 1, n, 4242)
        assert abs(est.mean - exact) <= 4.0 * np.sqrt(exact * (1 - exact) / n)

    def test_deterministic_model_mean_is_indicator(self, example_model):
        det = _with_noise(example_model, [[0.0]], [1.0])
        _, am = solve(det)
        fb = select_feedback(am)
        est = estimate_probability(det, fb, 0, 500, 8)
        assert est.mean in (0.0, 1.0)

    def test_reproducible(self, example_model):
        _, am = solve(example_model)
        fb = select_feedback(am)
        a = estimate_probability(example_model, fb, 1, 5000, 99)
        b = estimate_probability(example_model, fb, 1, 5000, 99)
        assert (a.mean, a.n, a.ci_low, a.ci_high, a.seed) == (
            b.mean, b.n, b.ci_low, b.ci_high, b.seed
        )

    def test_kernel_members_reach_beta_frequency(self, example_model):
        vf, am = solve(example_model)
        fb = select_feedback(am)
        beta = 0.5
        n = 5000
        for x0 in kernel_slice(vf, 0, beta).members:
            est = estimate_probability(example_model, fb, x0, n, 1000 + x0)
            margin = 4.0 * np.sqrt(beta * (1 - beta) / n)
            assert est.mean >= beta - margin

    def test_dominance_empirically_on_random_models(self):
        model = random_model(2)
        vf, _ = solve(model)
        for j in range(3):
            fb = random_policy(model, j)
            est = estimate_probability(model, fb, 0, 4000, j)
            exact = evaluate_policy(model, fb).value(model.time.t0, 0)
            assert abs(est.mean - exact) <= 4.0 * np.sqrt(max(exact * (1 - exact), 1e-4) / 4000)
            assert est.mean <= vf.value(model.time.t0, 0) + 4.0 * np.sqrt(0.25 / 4000)

    def test_n_guard(self, example_model):
        _, am = solve(example_model)
        fb = select_feedback(am)
        with pytest.raises(ModelError):
            estimate_probability(example_model, fb, 1, 0, 1)


class TestKnownAnswers:
    """Pin the random stream across versions, not only within one run."""

    def test_stream_word_zero_is_standard_splitmix64(self):
        assert int(stream_array(0, 0)) == 0xE220A8397B1DCDAF

    def test_estimate_pinned(self, example_model):
        _, am = solve(example_model)
        fb = select_feedback(am, "smallest")
        est = estimate_probability(example_model, fb, x0=1, n=100_000, base_seed=7)
        assert est.mean == 0.81959

    def test_simulate_batch_pinned(self, example_model):
        _, am = solve(example_model)
        fb = select_feedback(am, "smallest")
        out = simulate_batch(example_model, fb, x0=1, n=1000, base_seed=11)
        digest = hashlib.sha256()
        for arr in out:
            digest.update(np.ascontiguousarray(arr).tobytes())
        assert digest.hexdigest() == (
            "1d33705f907d9ee36d78276269e958b72ce4443f201d81ede6fab01d58c44c55"
        )
        assert int(np.count_nonzero(out[3])) == 827
