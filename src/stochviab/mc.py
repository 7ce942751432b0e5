"""Scenario sampling, closed-loop simulation, and success-probability
estimation with Wilson confidence intervals.

All randomness is counter-based (:mod:`stochviab._rng`): a scenario is a pure
function of its seed, and sample ``i`` of an estimation run uses a child seed
derived from ``(base_seed, i)``.  Estimates are therefore order-independent,
parallelizable, and reproducible bit for bit.  The terminal-stage disturbance
never enters the dynamics or the success criterion, so scenarios store one
draw per transition only.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import numpy as np

from . import _rng
from .dp import _policy_choice_array
from .kernel import FeedbackPolicy
from .model import DisturbanceLaw, Model, ModelError, _check_x0

__all__ = [
    "Scenario",
    "Trajectory",
    "ProbabilityEstimate",
    "sample_scenario",
    "simulate",
    "simulate_batch",
    "estimate_probability",
    "wilson_interval",
]

Z95 = statistics.NormalDist().inv_cdf(0.975)


@dataclass(frozen=True, eq=False)
class Scenario:
    """Disturbance indices drawn for each transition t0..T-1."""

    draws: np.ndarray  # int64 (steps,)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Closed-loop path: states x(t0..T), control slots u(t0..T-1), and the
    scenario that produced them.  ``success`` is 1 exactly when every visited
    state, the terminal one included, lies in its constraint set."""

    states: np.ndarray  # int64 (steps + 1,)
    controls: np.ndarray  # int64 (steps,)
    scenario: Scenario
    success: bool


@dataclass(frozen=True)
class ProbabilityEstimate:
    """Empirical success frequency with a Wilson 95% interval."""

    mean: float
    n: int
    ci_low: float
    ci_high: float
    seed: int


def wilson_interval(successes: int, n: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score interval; stays inside [0, 1] even at the boundaries."""
    if n <= 0:
        raise ModelError("interval needs at least one sample")
    phat = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (phat + z2 / (2.0 * n)) / denom
    half = z * np.sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _draws(cdf: np.ndarray, seed, counter) -> np.ndarray:
    """Inverse-cdf disturbance indices of stream words ``(seed, counter)``."""
    u = _rng.uniform_array(seed, counter)
    return np.minimum(np.searchsorted(cdf, u, side="right"), cdf.shape[0] - 1)


def sample_scenario(noise: DisturbanceLaw, n_steps: int, seed: int) -> Scenario:
    """Independent inverse-cdf draws from the marginal, one per transition."""
    if n_steps < 0:
        raise ModelError(f"n_steps must be non-negative, got {n_steps}")
    draws = _draws(noise.cdf, seed & _rng.MASK64, np.arange(n_steps))
    return Scenario(draws.astype(np.int64))


def _child_seeds(base_seed: int, n: int) -> np.ndarray:
    if n < 1:
        raise ModelError(f"need n >= 1 samples, got {n}")
    return _rng.derive_seed_array(base_seed, n)


def _walk(model: Model, policy: FeedbackPolicy, x0: int, seeds: np.ndarray,
          record: bool):
    """Closed-loop walks from ``x0``, one per seed, advanced together one
    stage at a time; the draw of stage ``k`` is word ``k`` of the seed's stream.

    Returns the success flags, preceded by the ``(states, controls, draws)``
    paths when ``record`` is set; without it nothing is kept per stage.
    """
    choice = _policy_choice_array(model, policy)
    tab, cdf = model.tables, model.noise.cdf
    n = seeds.shape[0]
    x = np.full(n, x0, dtype=np.int64)
    ok = np.full(n, bool(tab.member[0, x0]))
    if record:
        states = np.empty((n, tab.steps + 1), dtype=np.int64)
        controls = np.empty((n, tab.steps), dtype=np.int64)
        draws = np.empty((n, tab.steps), dtype=np.int64)
        states[:, 0] = x0
    for k in range(tab.steps):
        d = _draws(cdf, seeds, k)
        slot = choice[k, x]
        x = tab.next_state[k, x, slot, d]
        ok &= tab.member[k + 1, x]
        if record:
            states[:, k + 1] = x
            controls[:, k] = slot
            draws[:, k] = d
    return (states, controls, draws, ok) if record else ok


def simulate(model: Model, policy: FeedbackPolicy, x0: int, seed: int) -> Trajectory:
    """One closed-loop trajectory under ``policy`` from state index ``x0``."""
    x0 = _check_x0(model.states.n_points, x0)
    seeds = np.array([seed & _rng.MASK64], dtype=np.uint64)
    states, controls, draws, ok = _walk(model, policy, x0, seeds, record=True)
    return Trajectory(states[0], controls[0], Scenario(draws[0]), bool(ok[0]))


def simulate_batch(model: Model, policy: FeedbackPolicy, x0: int, n: int,
                   base_seed: int):
    """Paths for ``n`` samples with child seeds derived from ``base_seed``.

    Returns ``(states, controls, draws, success)`` arrays with one row per
    sample; sample ``i`` reproduces ``simulate`` run with
    ``derive_seed(base_seed, i)``.
    """
    x0 = _check_x0(model.states.n_points, x0)
    return _walk(model, policy, x0, _child_seeds(base_seed, n), record=True)


def estimate_probability(model: Model, policy: FeedbackPolicy, x0: int, n: int,
                         base_seed: int) -> ProbabilityEstimate:
    """Monte Carlo estimate of the closed-loop success probability."""
    x0 = _check_x0(model.states.n_points, x0)
    ok = _walk(model, policy, x0, _child_seeds(base_seed, n), record=False)
    successes = int(np.count_nonzero(ok))
    lo, hi = wilson_interval(successes, n)
    return ProbabilityEstimate(successes / n, n, lo, hi, int(base_seed))
