"""Scenario sampling, closed-loop simulation, and success-probability
estimation with Wilson confidence intervals.

All randomness is counter-based (:mod:`stochviab._rng`): a scenario is a pure
function of its seed, and sample ``i`` of an estimation run uses a child seed
derived from ``(base_seed, i)``.  Estimates are therefore order-independent,
parallelizable, and reproducible bit for bit.  The terminal-stage disturbance
never enters the dynamics or the success criterion, so scenarios store one
draw per transition only.

A draw is the integer inverse cdf of :func:`stochviab._rng.cdf_thresholds` on
a raw stream word, through a guide table (see :mod:`stochviab._rng`);
``sample_scenario`` and the closed-loop walk share it.  The walk takes the
samples in blocks of ``_BLOCK``.  Once per call it builds one policy successor
table, ``q[k][x * W + d]``: W times the successor of state ``x`` under atom
``d`` and the policy's control at stage ``k``, one table shared by the stages
that read the same stored rows (``Tables.stored_row``) and policy row.  A walk
is kept as ``y = x * W``, so a stage is one add and one gather,
``y = q[k][y + d]``.  An estimate records nothing, so its table sends a
successor outside its constraint set to the sink, which is absorbing and never
a member, and a walk succeeds exactly when it does not end there; no per-stage
membership test is made.  The words of a stage are mixed in place in buffers
kept for the block.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _rng
from .dp import TABLE_BYTES_GUARD, _policy_choice_array, _policy_successors
from .kernel import FeedbackPolicy
from .model import DisturbanceLaw, Model, ModelError, _check_x0, _is_int, _is_number, _shown

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

# statistics.NormalDist().inv_cdf(0.975), the two-sided 95 % normal quantile
Z95 = 1.9599639845400536


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
    the boundaries.  ``successes`` and ``n`` are integers, numpy's included,
    with ``0 <= successes <= n`` and ``n >= 1``, and ``z`` a finite number
    above 0."""
    if not _is_int(n):
        raise ModelError(f"interval needs an integer sample count, got {_shown(n)}")
    if n <= 0:
        raise ModelError("interval needs at least one sample")
    if not (_is_int(successes) and 0 <= successes <= n):
        raise ModelError(
            f"successes must be an integer in 0..{_shown(n)}, got {_shown(successes)}")
    if not (_is_number(type(z)) and 0 < z <= sys.float_info.max):
        raise ModelError(f"interval needs a finite z above 0, got {_shown(z)}")
    successes, n, z = int(successes), int(n), float(z)
    phat = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (phat + z2 / (2.0 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _seed(seed) -> int:
    """``seed`` folded into 0..2**64-1, if it is an integer, numpy's included;
    a negative seed or one past 64 bits walks the streams of its fold."""
    if not _is_int(seed):
        raise ModelError(f"seed must be an integer, got {_shown(seed)}")
    return int(seed) & _rng.MASK64


def sample_scenario(noise: DisturbanceLaw, n_steps: int, seed: int) -> Scenario:
    """Independent inverse-cdf draws from the marginal, one per transition."""
    if not _is_int(n_steps):
        raise ModelError(f"n_steps must be an integer, got {_shown(n_steps)}")
    if n_steps < 0:
        raise ModelError(f"n_steps must be non-negative, got {_shown(n_steps)}")
    if 33 * n_steps > TABLE_BYTES_GUARD:  # counters, z, t and draws at 8 B, a 1 B mask
        raise ModelError(f"a scenario needs {_shown(33 * n_steps)} bytes ({_shown(n_steps)} "
                         f"steps x 33 B of counters and mixing buffers), over the guard of "
                         f"{TABLE_BYTES_GUARD} bytes")
    return Scenario(_rng.draw(_rng.cdf_thresholds(noise.cdf), _seed(seed),
                              np.arange(n_steps, dtype=np.uint64)))


def _walk(model: Model, policy: FeedbackPolicy, x0: int, n: int, seeds_of,
          record: bool):
    """Closed-loop walks of ``n`` samples from ``x0``; ``seeds_of(start, stop)``
    gives the stream seeds of samples start..stop-1, and the draw of stage
    ``k`` is word ``k`` of a sample's stream.

    A walk is kept as ``y = x * W`` for its state ``x`` and W atoms, and
    ``q[k][x * W + d]`` is ``W`` times the policy's successor of ``x`` under
    atom ``d`` at stage ``k``, so a stage is ``y = q[k].take(y + d)``: one
    add and one gather.  When nothing is recorded, a successor outside its
    constraint set is the sink instead, and a walk succeeds exactly when it
    ends elsewhere; the walk from ``x0`` outside ``A(t0)`` is not taken at
    all.  A recorded walk keeps the real states and checks each one against
    its constraint set.

    The samples go in blocks of ``_BLOCK``, each advanced through every stage
    before the next block starts.  Returns the ``(states, controls, draws,
    success)`` paths when ``record`` is set, and otherwise the number of
    successes, keeping nothing beyond one block.  Recorded paths larger than
    ``TABLE_BYTES_GUARD`` are refused before they are allocated.  ``q`` holds
    one table of ``(n_states + 1) * W`` entries per distinct stage key.
    """
    if not _is_int(n):
        raise ModelError(f"need an integer number of samples, got {_shown(n)}")
    if n < 1:
        raise ModelError(f"need n >= 1 samples, got {_shown(n)}")
    n = int(n)
    choice = _policy_choice_array(model, policy)
    tab = model.tables
    width = tab.n_atoms
    if record:
        nbytes = n * (3 * tab.steps + 1) * 8 + n
        if nbytes > TABLE_BYTES_GUARD:
            raise ModelError(
                f"recorded paths need {_shown(nbytes)} bytes ({_shown(n)} samples x "
                f"{tab.steps} stages of states, controls and draws, 8 B each, and a success "
                f"flag), over the guard of {TABLE_BYTES_GUARD} bytes"
            )
        states = np.empty((n, tab.steps + 1), dtype=np.int64)
        controls = np.empty((n, tab.steps), dtype=np.int64)
        draws = np.empty((n, tab.steps), dtype=np.int64)
        success = np.empty(n, dtype=bool)
        states[:, 0] = x0
    elif not tab.member[0, x0]:
        return 0
    sink = tab.sink * width
    scaled = np.arange(tab.n_states + 1) * width
    # stages that read the same stored rows and policy row share one table
    q, shared = [], {}
    for k in range(tab.steps):
        key = (tab.stored_row(tab.next_state, k), tab.stored_row(tab.member, k + 1),
               choice[k].tobytes())
        if key not in shared:
            # W times each successor, or W times the sink for one outside its set
            to = scaled if record else np.where(tab.member[k + 1], scaled, sink)
            shared[key] = to.take(_policy_successors(tab, choice, k).ravel())
        q.append(shared[key])
    thresholds = _rng.cdf_thresholds(model.noise.cdf)
    buffers = (np.empty(_BLOCK, dtype=np.uint64), np.empty(_BLOCK, dtype=np.uint64),
               np.empty(_BLOCK, dtype=np.int64))
    successes = 0
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        out = tuple(b[: stop - start] for b in buffers)
        seeds = seeds_of(start, stop)
        x = np.full(stop - start, x0, dtype=np.int64)
        y = x * width
        if record:
            ok = np.full(stop - start, bool(tab.member[0, x0]))
        for k in range(tab.steps):
            d = _rng.draw(thresholds, seeds, k, out)
            if record:
                controls[start:stop, k] = choice[k].take(x)
                draws[start:stop, k] = d
            y = q[k].take(np.add(y, d, out=d))
            if record:
                x = y // width
                states[start:stop, k + 1] = x
                ok &= tab.member[k + 1].take(x)
        if record:
            success[start:stop] = ok
        else:
            successes += int(np.count_nonzero(y != sink))
    return (states, controls, draws, success) if record else successes


def simulate(model: Model, policy: FeedbackPolicy, x0: int, seed: int) -> Trajectory:
    """One closed-loop trajectory under ``policy`` from state index ``x0``."""
    x0 = _check_x0(model.states.n_points, x0)
    seeds = np.array([_seed(seed)], dtype=np.uint64)
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
    return _walk(model, policy, x0, n, functools.partial(_rng.derive_seed_array, _seed(base_seed)),
                 record=True)


def estimate_probability(model: Model, policy: FeedbackPolicy, x0: int, n: int,
                         base_seed: int) -> ProbabilityEstimate:
    """Monte Carlo estimate of the closed-loop success probability."""
    x0 = _check_x0(model.states.n_points, x0)
    seeds_of = functools.partial(_rng.derive_seed_array, _seed(base_seed))
    successes = _walk(model, policy, x0, n, seeds_of, record=False)
    n = int(n)
    lo, hi = wilson_interval(successes, n)
    return ProbabilityEstimate(successes / n, n, lo, hi, int(base_seed))
