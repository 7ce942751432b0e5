import hashlib
import math
import re
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_model, random_policy, walk_model
from stochviab import mc
from stochviab._rng import (
    cdf_thresholds,
    derive_seed,
    derive_seed_array,
    draw,
    inverse_cdf,
    stream_array,
)
from stochviab.dp import TABLE_BYTES_GUARD, _policy_successors, evaluate_policy, solve
from stochviab.kernel import FeedbackPolicy, kernel_slice, select_feedback
from stochviab.mc import (
    estimate_probability,
    sample_scenario,
    simulate,
    simulate_batch,
    wilson_interval,
)
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
        with pytest.raises(ModelError, match="^n_steps must be non-negative, got -1$"):
            sample_scenario(example_model.noise, -1, 5)

    @pytest.mark.parametrize("n_steps", [2.5, 3.0, True, "3"])
    def test_a_count_that_is_no_integer_is_refused(self, example_model, n_steps):
        with pytest.raises(ModelError, match="^n_steps must be an integer, got "):
            sample_scenario(example_model.noise, n_steps, 5)

    def test_a_scenario_past_the_guard_fails_before_allocating(self, example_model):
        tracemalloc.start()
        try:
            with pytest.raises(ModelError, match=(
                    r"^a scenario needs 33000000000000 bytes \(1000000000000 steps x 33 B "
                    rf"of counters and mixing buffers\), over the guard of {TABLE_BYTES_GUARD} bytes$")):
                sample_scenario(example_model.noise, 10**12, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("n_steps", [10**5, 10**6])
    def test_the_guard_figure_is_the_measured_peak(self, example_model, n_steps):
        # 33 B a step, as the guard reckons it, and a fixed slack for the cdf's tables
        tracemalloc.start()
        try:
            sample_scenario(example_model.noise, n_steps, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 33 * n_steps + (1 << 16)

    def test_numpy_integer_counts_are_taken(self, example_model):
        a = sample_scenario(example_model.noise, np.int32(40), 123)
        assert np.array_equal(a.draws, sample_scenario(example_model.noise, 40, 123).draws)


def _head(words):
    """The words short of SplitMix64's last xorshift ``z ^ (z >> 31)``, which
    ``inverse_cdf`` takes: that xorshift's exact inverse."""
    return words ^ (words >> np.uint64(31)) ^ (words >> np.uint64(62))


def _float_inverse_cdf(cdf, words):
    """The float reference: searchsorted on the uniforms of the top 53 bits."""
    u = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return np.minimum(np.searchsorted(cdf, u, side="right"), cdf.shape[0] - 1)


_ULP = 2.0**-53
_GRID = np.array([1.0, 3.0, 2.0**40, 2.0**52 + 1.0]) * _ULP

INVERSE_CDF_CASES = {
    "zero-atoms": np.cumsum([0.0, 0.0, 0.3, 0.0, 0.7, 0.0, 0.0]),
    "grid-multiples": np.concatenate([
        np.sort(np.concatenate([
            np.nextafter(_GRID, 0.0), _GRID, np.nextafter(_GRID, 1.0),
        ])),
        [np.nextafter(1.0, 0.0), 1.0],
    ]),
    "sum-below-one": np.cumsum([0.7, 0.2, 0.1]),
    "sum-above-one": np.cumsum([0.2, 0.01, 0.68, 0.11]),
    "single-atom": np.array([1.0]),
    "many-atoms": np.cumsum(np.r_[0.0, np.full(18, 0.05), 0.0, 0.05, 0.05, 0.0]),
    # thresholds on the first word of a guide bucket, k << 52
    "bucket-edges": np.array([1, 2, 1000, 2048, 2049, 4095, 4096]) / 4096,
    # masses below 2**-12: several thresholds inside one bucket
    "shared-bucket": np.cumsum([3e-5, 1e-5, 2e-5, 0.4, 1e-4, 5e-5, 1e-5, 0.6 - 2.2e-4]),
    # zero masses between the thresholds of a bucket that one splits
    "zero-atoms-in-split-bucket": np.cumsum([0.25, 1e-5, 0.0, 0.0, 1e-5, 0.0, 0.75 - 2e-5]),
    "uniform-1000": np.cumsum(np.full(1000, 1e-3)),
}


@pytest.mark.parametrize("cdf", INVERSE_CDF_CASES.values(), ids=INVERSE_CDF_CASES.keys())
def test_integer_inverse_cdf_equals_float_search(cdf):
    words = {0, 2**64 - 1}
    for c in cdf:
        t = math.ceil(c * 2**53) << 11
        words.update(w for w in (t - 1, t, t + 1) if 0 <= w < 2**64)
    # the last and first word of every guide bucket
    words.update(w for b in range(4097) for w in ((b << 52) - 1, b << 52) if 0 <= w < 2**64)
    words = np.array(sorted(words), dtype=np.uint64)
    head = _head(words)
    assert np.array_equal(head ^ (head >> np.uint64(31)), words)
    got = inverse_cdf(cdf_thresholds(cdf), head)
    assert np.array_equal(got, _float_inverse_cdf(cdf, words))
    rand = stream_array(12345, np.arange(10_000))
    want = _float_inverse_cdf(cdf, rand)
    assert np.array_equal(inverse_cdf(cdf_thresholds(cdf), _head(rand)), want)
    assert np.array_equal(draw(cdf_thresholds(cdf), 12345, np.arange(10_000)), want)


def test_inverse_cdf_cases_cover_their_edges():
    assert INVERSE_CDF_CASES["sum-below-one"][-1] < 1.0
    assert INVERSE_CDF_CASES["sum-above-one"][-1] > 1.0
    # on a bucket's first word, so no bucket is split
    edges = cdf_thresholds(INVERSE_CDF_CASES["bucket-edges"])
    assert np.all(edges.thresholds % 2**52 == 0) and np.all(edges.guide >= 0)
    for name in ("shared-bucket", "zero-atoms-in-split-bucket"):
        table = cdf_thresholds(INVERSE_CDF_CASES[name])
        buckets = table.thresholds >> np.uint64(52)
        assert np.unique(buckets).size < buckets.size, name  # some bucket holds two
        assert np.all(table.guide[buckets] == -1), name
    # 999 thresholds, each splitting a bucket of its own
    assert np.count_nonzero(cdf_thresholds(INVERSE_CDF_CASES["uniform-1000"]).guide < 0) == 999


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

    def test_recorded_paths_guard_fails_before_allocating(self, example_model):
        _, am = solve(example_model)
        fb = select_feedback(am)
        # 10**9 rows of 41 states, 40 controls, 40 draws (8 B each) and a flag
        tracemalloc.start()
        try:
            with pytest.raises(ModelError, match=f"need 969000000000 bytes .* {TABLE_BYTES_GUARD}"):
                simulate_batch(example_model, fb, 1, 10**9, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestBlocks:
    """The walk goes in blocks of ``mc._BLOCK`` samples; no result may show it."""

    B = mc._BLOCK
    SIZES = (1, B - 1, B, B + 1, 2 * B + 3)

    @pytest.fixture(scope="class")
    def walk(self):
        model = make_three_state_example(0.01, 0, 40)
        _, am = solve(model)
        return model, select_feedback(am)

    @pytest.mark.parametrize("n", SIZES)
    def test_batch_rows_are_single_simulations(self, walk, n):
        model, fb = walk
        base = 2024
        states, controls, draws, ok = simulate_batch(model, fb, 1, n, base)
        # every row: the draws are the stream of its derived seed, the walk
        # follows the policy and the dynamics, and success is the recount
        seeds = np.array([derive_seed(base, i) for i in range(n)], dtype=np.uint64)
        words = stream_array(seeds[:, None], np.arange(model.time.steps))
        assert np.array_equal(draws, _float_inverse_cdf(model.noise.cdf, words))
        tab = model.tables
        steps = np.arange(model.time.steps)
        assert np.array_equal(controls, fb.choice[steps, states[:, :-1]])
        assert np.array_equal(
            states[:, 1:], tab.next_state[steps, states[:, :-1], controls, draws])
        assert np.array_equal(ok, tab.member[np.arange(steps.size + 1), states].all(axis=1))
        # the rows around each block boundary, one simulate each
        for i in {0, self.B - 1, self.B, 2 * self.B, n - 1} & set(range(n)):
            tr = simulate(model, fb, 1, derive_seed(base, i))
            assert np.array_equal(states[i], tr.states)
            assert np.array_equal(controls[i], tr.controls)
            assert np.array_equal(draws[i], tr.scenario.draws)
            assert bool(ok[i]) == tr.success
        est = estimate_probability(model, fb, 1, n, base)
        assert est.mean == int(np.count_nonzero(ok)) / n

    def test_estimate_memory_does_not_grow_with_n(self, walk):
        model, fb = walk

        def peak(n):
            tracemalloc.start()
            try:
                estimate_probability(model, fb, 1, n, 5)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(4 * self.B), peak(64 * self.B)
        assert large <= 2 * small, (small, large)

    def expected_tables(self, model, fb):
        """Stationary dynamics and sets: one walk table per distinct policy row."""
        return len({row.tobytes() for row in fb.choice})

    def test_one_walk_table_per_distinct_stage_key(self, walk, monkeypatch):
        model, fb = walk
        assert _walk_tables(model, fb, 1, monkeypatch) == self.expected_tables(model, fb)


def _walk_tables(model, fb, x0, monkeypatch) -> int:
    """The number of policy successor tables that one estimate from ``x0`` builds."""
    calls = []

    def counted(tab, choice, k):
        calls.append(k)
        return _policy_successors(tab, choice, k)

    monkeypatch.setattr(mc, "_policy_successors", counted)
    estimate_probability(model, fb, x0, 100, 0)
    return len(calls)


def test_stages_with_the_same_policy_row_share_a_walk_table(monkeypatch):
    """A time-invariant walk under a policy whose three rows repeat over 12 stages."""
    model = walk_model(11, 12)
    rows = random_policy(model, 1).choice[:3]
    assert len({row.tobytes() for row in rows}) == 3
    fb = FeedbackPolicy.from_array(model, np.tile(rows, (4, 1)))
    assert _walk_tables(model, fb, 5, monkeypatch) == 3


def _many_atom_model(model=None, reach=0.3):
    """A walk ``x + u + w`` on an integer grid (by default the three-state
    example) under a 40-atom law on [-1.2, 1.2]: every other atom within
    ``reach`` of 0 (by default those that project to w = 0) shares the mass,
    and the other atoms carry 1e-5 or 0, so that several cdf thresholds share
    a guide bucket."""
    support = np.linspace(-1.2, 1.2, 40)
    probs = np.full(40, 1e-5)
    probs[::7] = 0.0
    heavy = np.flatnonzero(np.abs(support) < reach)[::2]
    probs[heavy] = 0.0
    probs[heavy] = (1.0 - probs.sum()) / heavy.size
    model = make_three_state_example(0.01, 0, 40) if model is None else model
    return _with_noise(model, support[:, None], probs)


def _strict_sets_model():
    """A walk ``x + u + w`` on the points 0..6 over 12 stages, controls
    {-1, 0, 1} and noise {-1, 0, 1} with probabilities (0.25, 0.5, 0.25),
    whose constraint sets are strict subsets of the grid that change with the
    stage: A(t) leaves out (2 + t) % 7 and (5 + 2t) % 7."""
    n, steps = 7, 12
    per_stage = tuple(tuple(set(range(n)) - {(2 + t) % n, (5 + 2 * t) % n})
                      for t in range(steps + 1))
    return Model(
        time=TimeGrid(0, steps),
        states=StateSpace(np.arange(n, dtype=np.float64)[:, None]),
        controls=ControlMap.shared([[-1.0], [0.0], [1.0]], n),
        noise=DisturbanceLaw([[-1.0], [0.0], [1.0]], [0.25, 0.5, 0.25]),
        dynamics=ExprDynamics(("x + u + w",)),
        constraints=ConstraintSets("set", per_stage=per_stage),
    )


class TestBlocksManyAtoms(TestBlocks):
    """The same on a law with 40 atoms, several of them in shared guide
    buckets, so that the walk's draws also take the binary-search fix-up."""

    @pytest.fixture(scope="class")
    def walk(self):
        model = _many_atom_model()
        _, am = solve(model)
        return model, select_feedback(am)

    def test_law_splits_shared_buckets(self, walk):
        model, _ = walk
        table = cdf_thresholds(model.noise.cdf)
        assert model.noise.n_atoms >= 33
        buckets = table.thresholds >> np.uint64(52)
        assert np.unique(buckets).size < buckets.size
        assert np.all(table.guide[buckets] == -1)
        # its six split buckets hold about 1/700 of a stage's words
        words = stream_array(derive_seed_array(2024, 0, 2 * self.B + 3), 5)
        assert np.count_nonzero(table.guide[words >> np.uint64(52)] < 0) > 10


class TestBlocksStrictSets(TestBlocks):
    """The same where the constraint sets are strict subsets of the grid that
    change with the stage, so that the walk that records nothing sends many
    samples to the absorbing sink, some of them from states that the
    recorded walk leaves and comes back to."""

    @pytest.fixture(scope="class")
    def walk(self):
        model = _strict_sets_model()
        _, am = solve(model)
        return model, select_feedback(am)

    def expected_tables(self, model, fb):
        """Every stage reads its own constraint row."""
        return model.time.steps

    def test_paths_leave_their_sets_and_come_back(self, walk):
        model, fb = walk
        states, _, _, ok = simulate_batch(model, fb, 1, 5000, 3)
        member = model.tables.member[np.arange(model.time.steps + 1), states]
        # every set is a strict subset of the grid, and the sets differ
        grid = model.tables.member[:, : model.states.n_points]
        assert not grid.all(axis=1).any()
        assert len({tuple(row) for row in grid}) > 1
        outside = ~member & (states != model.states.sink)
        # a state outside its set, and a later state inside its own
        back = (np.cumsum(outside, axis=1)[:, :-1] > 0) & member[:, 1:]
        assert np.count_nonzero(back.any(axis=1)) > 100
        assert 0.1 < np.count_nonzero(ok) / ok.size < 0.9

    def test_x0_outside_first_set_never_succeeds(self, walk):
        model, fb = walk
        assert not model.tables.member[0, 2]
        for n in (1, self.B + 1):
            assert estimate_probability(model, fb, 2, n, 5).mean == 0.0
            assert not simulate_batch(model, fb, 2, n, 5)[3].any()

    def test_estimate_matches_exact_value(self, walk):
        model, fb = walk
        exact = evaluate_policy(model, fb).value(0, 1)
        n = 2 * self.B + 3
        est = estimate_probability(model, fb, 1, n, 77)
        assert abs(est.mean - exact) <= 4.0 * math.sqrt(exact * (1 - exact) / n)


class TestBlocksStageDynamics(TestBlocks):
    """The same on table dynamics that change with the stage under a policy
    whose control is the same at every stage, so that no two stages may
    share a walk table, though their policy and constraint rows agree."""

    @pytest.fixture(scope="class")
    def walk(self):
        n, steps = 9, 12
        drift = np.array([1, -1, 0, 2, -2, 1, 0, -1, 1, 0, -2, 2])
        x, u, w = np.ogrid[:n, -1:2, -1:2]
        succ = x + u + w + drift[:, None, None, None]
        table = np.where((succ >= 0) & (succ < n), succ, n)
        model = Model(
            time=TimeGrid(0, steps),
            states=StateSpace(np.arange(n, dtype=np.float64)[:, None]),
            controls=ControlMap.shared([[-1.0], [0.0], [1.0]], n),
            noise=DisturbanceLaw([[-1.0], [0.0], [1.0]], [0.25, 0.5, 0.25]),
            dynamics=TableDynamics(np.concatenate(
                [table, np.full((steps, 1, 3, 3), n)], axis=1)),
            constraints=ConstraintSets("set", stationary=range(1, n - 1)),
        )
        return model, FeedbackPolicy.constant(model, [0.0])

    def expected_tables(self, model, fb):
        """Every stage reads its own successor slab."""
        return model.time.steps


class TestBlocksStrictSetsManyAtoms(TestBlocksStrictSets):
    """The strict, stage-dependent sets under a 40-atom law whose heavy atoms
    project to every one of w = -1, 0, 1."""

    @pytest.fixture(scope="class")
    def walk(self):
        model = _many_atom_model(_strict_sets_model(), reach=2.0)
        _, am = solve(model)
        return model, select_feedback(am)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_last_xorshift_keeps_the_guide_bucket(words):
    z = np.array(words, dtype=np.uint64)
    assert np.array_equal((z ^ (z >> np.uint64(31))) >> np.uint64(52), z >> np.uint64(52))


def test_draw_into_buffers_equals_fresh_draw():
    table = cdf_thresholds(_many_atom_model().noise.cdf)
    seeds = derive_seed_array(8, 0, 1000)
    out = (np.empty(1000, np.uint64), np.empty(1000, np.uint64), np.empty(1000, np.int64))
    for k in range(3):
        d = draw(table, seeds, k, out)
        assert d is out[2]
        assert np.array_equal(d, draw(table, seeds, k))
        assert np.array_equal(d, _float_inverse_cdf(_many_atom_model().noise.cdf,
                                                    stream_array(seeds, k)))


class TestEstimate:
    def test_wilson_interval_known_values(self):
        lo, hi = wilson_interval(8, 10)
        assert lo == pytest.approx(0.4902, abs=5e-4)
        assert hi == pytest.approx(0.9433, abs=5e-4)
        lo, hi = wilson_interval(0, 10)
        assert lo == pytest.approx(0.0, abs=1e-12) and hi < 0.28
        lo, hi = wilson_interval(10, 10)
        assert hi == 1.0 and lo > 0.72

    def test_z95_is_the_normal_quantile(self):
        assert mc.Z95 == statistics.NormalDist().inv_cdf(0.975)

    def test_interval_is_plain_floats(self, example_model):
        assert all(type(v) is float for v in wilson_interval(3, 7))
        _, am = solve(example_model)
        est = estimate_probability(example_model, select_feedback(am), 1, 1000, 2)
        assert type(est.ci_low) is float and type(est.ci_high) is float

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
        for n in (0, -1):
            with pytest.raises(ModelError, match="^interval needs at least one sample$"):
                wilson_interval(0, n)

    @pytest.mark.parametrize("n", [True, False, 2.5, 100.0, "100"])
    def test_sample_counts_that_are_no_integers_are_refused(self, example_model, n):
        fb = select_feedback(solve(example_model)[1])
        for run in (lambda: estimate_probability(example_model, fb, 1, n, 0),
                    lambda: simulate_batch(example_model, fb, 1, n, 0)):
            with pytest.raises(ModelError, match="^need an integer number of samples, got "):
                run()

    def test_numpy_integer_sample_counts_are_taken(self, example_model):
        fb = select_feedback(solve(example_model)[1])
        est = estimate_probability(example_model, fb, 1, np.int64(500), 3)
        assert est == estimate_probability(example_model, fb, 1, 500, 3)
        assert type(est.n) is int and type(est.mean) is float
        got = simulate_batch(example_model, fb, 1, np.uint8(9), 3)
        for a, b in zip(got, simulate_batch(example_model, fb, 1, 9, 3)):
            assert np.array_equal(a, b)
        with pytest.raises(ModelError, match="^need n >= 1 samples, got 0$"):
            simulate_batch(example_model, fb, 1, np.int64(0), 3)

    @pytest.mark.parametrize("successes,n,message", [
        (5, 3, "successes must be an integer in 0..3, got 5"),
        (-1, 3, "successes must be an integer in 0..3, got -1"),
        (1.0, 3, "successes must be an integer in 0..3, got 1.0"),
        (True, 3, "successes must be an integer in 0..3, got True"),
        (1, 2.5, "interval needs an integer sample count, got 2.5"),
        (1, True, "interval needs an integer sample count, got True"),
    ])
    def test_interval_counts_must_be_integers_in_range(self, successes, n, message):
        with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
            wilson_interval(successes, n)

    def test_interval_takes_numpy_integers(self):
        got = wilson_interval(np.int64(3), np.int32(7))
        assert got == wilson_interval(3, 7) and all(type(v) is float for v in got)

    @pytest.mark.parametrize("z", [-1.96, 0, 0.0, math.nan, math.inf, True, "1.96",
                                   pytest.param(10**400, id="1e400")])
    def test_interval_z_must_be_a_finite_number_above_zero(self, z):
        with pytest.raises(ModelError, match="^interval needs a finite z above 0, got "):
            wilson_interval(5, 10, z)

    def test_interval_takes_a_numpy_z(self):
        got = wilson_interval(5, 10, np.float64(1.5))
        assert got == wilson_interval(5, 10, 1.5) and all(type(v) is float for v in got)

    @staticmethod
    def _seeded_runs(model, fb, seed):
        """Each Monte Carlo entry point run with ``seed``, its result made comparable."""
        return {
            "sample_scenario": lambda: sample_scenario(model.noise, 6, seed).draws.tolist(),
            "simulate": lambda: simulate(model, fb, 1, seed).states.tolist(),
            "simulate_batch": lambda: [a.tolist() for a in simulate_batch(model, fb, 1, 5, seed)],
            "estimate_probability": lambda: estimate_probability(model, fb, 1, 300, seed),
        }

    @pytest.mark.parametrize("entry", ["sample_scenario", "simulate", "simulate_batch",
                                       "estimate_probability"])
    def test_numpy_integer_seeds_are_taken(self, example_model, entry):
        fb = select_feedback(solve(example_model)[1])
        got = self._seeded_runs(example_model, fb, np.int64(5))[entry]()
        assert got == self._seeded_runs(example_model, fb, 5)[entry]()
        if entry == "estimate_probability":
            assert type(got.seed) is int

    @pytest.mark.parametrize("seed", [2.0, True, "5"])
    @pytest.mark.parametrize("entry", ["sample_scenario", "simulate", "simulate_batch",
                                       "estimate_probability"])
    def test_seeds_that_are_no_integers_are_refused(self, example_model, entry, seed):
        fb = select_feedback(solve(example_model)[1])
        message = f"^seed must be an integer, got {re.escape(repr(seed))}$"
        with pytest.raises(ModelError, match=message):
            self._seeded_runs(example_model, fb, seed)[entry]()

    def test_seeds_fold_into_64_bits(self, example_model):
        fb = select_feedback(solve(example_model)[1])
        for a, b in ((-1, 2**64 - 1), (2**64 + 5, 5), (np.int64(-1), 2**64 - 1)):
            assert np.array_equal(simulate(example_model, fb, 1, a).states,
                                  simulate(example_model, fb, 1, b).states)
            assert (estimate_probability(example_model, fb, 1, 300, a).mean
                    == estimate_probability(example_model, fb, 1, 300, b).mean)


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
