"""Scenario sampling, closed-loop simulation, and success-probability
estimation with Wilson confidence intervals.

All randomness is counter-based (:mod:`stochviab._rng`): a scenario is a pure
function of its seed, and sample ``i`` of an estimation run uses a child seed
derived from ``(base_seed, i)``.  Estimates are therefore order-independent,
parallelizable, and reproducible bit for bit.  The terminal-stage disturbance
never enters the dynamics or the success criterion, so scenarios store one
draw per transition only.

A draw is the integer inverse cdf of :func:`stochviab._rng.cdf_thresholds`:
the raw stream word is compared with integer thresholds made once from the
law's cdf, which picks the same atom as the cdf search on the word's 53-bit
uniform without converting it to a float.  A 4096-entry guide table indexed
by the word's top 12 bits gives the atom with one gather, and only the few
words in a bucket that a threshold splits are fixed up by a binary search,
so a draw costs about the same for any number of atoms.  ``sample_scenario``
and the closed-loop walk share it.

The walk takes the samples in blocks of ``_BLOCK`` and reads each successor
with one gather from the stage's flat successor slab.  The offset of a
state's row and policy control in that slab is made once per call, so a
stage is two gathers and an add: ``flat[base[k, x] + d]``.  On the
``three-state`` benchmark (10^6 walks x 40 stages) the guide and the offsets
took the walk from 49.2 to 78.8 million steps a second (medians of ten
alternating perfbench runs each), with every output bit unchanged
(``BENCH_16.json``).
"""

from __future__ import annotations

import functools
import math
import statistics
from dataclasses import dataclass

import numpy as np

from . import _rng
from .dp import TABLE_BYTES_GUARD, _policy_choice_array
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

# Samples walked together through every stage: small enough that a block's
# state and temporaries stay in cache.
_BLOCK = 1 << 14

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
    """Wilson score interval, as Python floats; stays inside [0, 1] even at
    the boundaries."""
    if n <= 0:
        raise ModelError("interval needs at least one sample")
    phat = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (phat + z2 / (2.0 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def sample_scenario(noise: DisturbanceLaw, n_steps: int, seed: int) -> Scenario:
    """Independent inverse-cdf draws from the marginal, one per transition."""
    if n_steps < 0:
        raise ModelError(f"n_steps must be non-negative, got {n_steps}")
    words = _rng.stream_array(seed & _rng.MASK64, np.arange(n_steps))
    return Scenario(_rng.inverse_cdf(_rng.cdf_thresholds(noise.cdf), words))


def _walk(model: Model, policy: FeedbackPolicy, x0: int, n: int, seeds_of,
          record: bool):
    """Closed-loop walks of ``n`` samples from ``x0``; ``seeds_of(start, stop)``
    gives the stream seeds of samples start..stop-1, and the draw of stage
    ``k`` is word ``k`` of a sample's stream.

    The samples go in blocks of ``_BLOCK``, each advanced through every stage
    before the next block starts, so the block state stays in cache.  Returns
    the ``(states, controls, draws, success)`` paths when ``record`` is set,
    and otherwise the number of successes, keeping nothing beyond one block.
    Recorded paths larger than ``TABLE_BYTES_GUARD`` are refused before
    anything of their size is allocated.
    """
    if n < 1:
        raise ModelError(f"need n >= 1 samples, got {n}")
    choice = _policy_choice_array(model, policy)
    tab = model.tables
    thresholds = _rng.cdf_thresholds(model.noise.cdf)
    if record:
        nbytes = n * (3 * tab.steps + 1) * 8 + n
        if nbytes > TABLE_BYTES_GUARD:
            raise ModelError(
                f"recorded paths need {nbytes} bytes ({n} samples x {tab.steps} stages "
                f"of states, controls and draws, 8 B each, and a success flag), over the "
                f"guard of {TABLE_BYTES_GUARD} bytes"
            )
        states = np.empty((n, tab.steps + 1), dtype=np.int64)
        controls = np.empty((n, tab.steps), dtype=np.int64)
        draws = np.empty((n, tab.steps), dtype=np.int64)
        success = np.empty(n, dtype=bool)
        states[:, 0] = x0
    # the successor of x at stage k under the policy is the flat slab entry
    # base[k, x] + d: x's row, then its control slot's run of atoms
    base = np.arange(tab.n_states + 1) * (tab.u_max * tab.n_atoms) + choice * tab.n_atoms
    successes = 0
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        seeds = seeds_of(start, stop)
        x = np.full(stop - start, x0, dtype=np.int64)
        ok = np.full(stop - start, bool(tab.member[0, x0]))
        for k in range(tab.steps):
            d = _rng.inverse_cdf(thresholds, _rng.stream_array(seeds, k))
            if record:
                controls[start:stop, k] = choice[k].take(x)
                draws[start:stop, k] = d
            x = tab.next_state[k].reshape(-1).take(base[k].take(x) + d)
            ok &= tab.member[k + 1].take(x)
            if record:
                states[start:stop, k + 1] = x
        if record:
            success[start:stop] = ok
        successes += int(np.count_nonzero(ok))
    return (states, controls, draws, success) if record else successes


def simulate(model: Model, policy: FeedbackPolicy, x0: int, seed: int) -> Trajectory:
    """One closed-loop trajectory under ``policy`` from state index ``x0``."""
    x0 = _check_x0(model.states.n_points, x0)
    seeds = np.array([seed & _rng.MASK64], dtype=np.uint64)
    states, controls, draws, ok = _walk(model, policy, x0, 1, lambda start, stop: seeds,
                                        record=True)
    return Trajectory(states[0], controls[0], Scenario(draws[0]), bool(ok[0]))


def simulate_batch(model: Model, policy: FeedbackPolicy, x0: int, n: int,
                   base_seed: int):
    """Paths for ``n`` samples with child seeds derived from ``base_seed``.

    Returns ``(states, controls, draws, success)`` arrays with one row per
    sample; sample ``i`` reproduces ``simulate`` run with
    ``derive_seed(base_seed, i)``.
    """
    x0 = _check_x0(model.states.n_points, x0)
    return _walk(model, policy, x0, n, functools.partial(_rng.derive_seed_array, base_seed),
                 record=True)


def estimate_probability(model: Model, policy: FeedbackPolicy, x0: int, n: int,
                         base_seed: int) -> ProbabilityEstimate:
    """Monte Carlo estimate of the closed-loop success probability."""
    x0 = _check_x0(model.states.n_points, x0)
    successes = _walk(model, policy, x0, n, functools.partial(_rng.derive_seed_array, base_seed),
                      record=False)
    lo, hi = wilson_interval(successes, n)
    return ProbabilityEstimate(successes / n, n, lo, hi, int(base_seed))
