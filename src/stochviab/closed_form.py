"""Closed-form value function and kernel for the three-state example model.

For the bounded random walk built by
:func:`stochviab.model.make_three_state_example`, the optimal one-step
behaviour is explicit: from a boundary state the maximizing control aims at
the center cell, after which the disturbance scatters to (-1, 0, 1) with
weights (p, 1-2p, p) and never exits; from the center state either control
aims at a boundary, so the walk survives to that boundary with weight 1-2p
(no disturbance), bounces back to the center with weight p, and exits with
weight p.  Stacking those weights per state, in state order (-1, 0, 1),
gives

    M = [[p,     1-2p, p],
         [1-2p,  p,    0],
         [p,     1-2p, p]]

and the value function is the matrix power form: at stage t and state
x in {-1, 0, 1}, the value equals component x + 2 (1-based) of
M^(T-t) applied to the all-ones vector, and 0 elsewhere.  Rows 1 and 3 sum
to 1 while row 2 sums to 1 - p: probability mass leaks exactly when the
state sits at 0, which is what makes the middle state hard to hold.

The kernel at level beta is then one of three sets: the full grid when
beta <= (M^(T-t) 1)_2, the boundary pair {-1, 1} when that component is
exceeded but (M^(T-t) 1)_1 is not, and empty above that.

Matrix powers use plain repeated multiplication so the oracle stays
elementary and exactly reproducible; a power above ``MATRIX_POWER_GUARD``
is refused rather than multiplied out.  The test suite cross-checks this form
against exhaustive scenario enumeration, policy enumeration, and the
backward-induction solver.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .model import ModelError, _check_beta, _check_p, _is_int, _shown

__all__ = ["MATRIX_POWER_GUARD", "KernelShape", "example_matrix", "matrix_value",
           "kernel_closed_form"]

# The most stages T - t whose matrix power is multiplied out, one product a
# stage: 10**6 of them take about 2 s.
MATRIX_POWER_GUARD = 10**6


class KernelShape(Enum):
    FULL = "full"
    BOUNDARY_PAIR = "boundary_pair"
    EMPTY = "empty"

    @property
    def members(self) -> tuple[int, ...]:
        """Member states as grid coordinates."""
        if self is KernelShape.FULL:
            return (-1, 0, 1)
        if self is KernelShape.BOUNDARY_PAIR:
            return (-1, 1)
        return ()


def example_matrix(p: float) -> np.ndarray:
    _check_p(p)
    q = 1.0 - 2.0 * p
    return np.array([[p, q, p], [q, p, 0.0], [p, q, p]])


def _power_times_ones(p: float, k: int) -> np.ndarray:
    mat = example_matrix(p)
    power = np.eye(3)
    for _ in range(k):
        power = power @ mat
    return power @ np.ones(3)


def _steps(T: int, t: int) -> int:
    """``T - t``, if the stage ``t`` and the horizon ``T`` are integers with
    ``t <= T`` and ``T - t <= MATRIX_POWER_GUARD``."""
    if not (_is_int(t) and _is_int(T)):
        raise ModelError(
            f"stage t and horizon T must be integers, got t={_shown(t)}, T={_shown(T)}")
    if t > T:
        raise ModelError(f"stage t={_shown(t)} exceeds horizon T={_shown(T)}")
    if T - t > MATRIX_POWER_GUARD:
        raise ModelError(f"T - t = {_shown(T - t)} stages exceed the closed form's guard of "
                         f"{MATRIX_POWER_GUARD}")
    return int(T) - int(t)


def matrix_value(p: float, T: int, t: int, x: int) -> float:
    """Value at stage ``t`` and integer coordinate ``x``; 0 outside {-1, 0, 1}.
    ``p`` is checked first, then the stage, then ``x``."""
    _check_p(p)
    k = _steps(T, t)
    if not _is_int(x):
        raise ModelError(f"x must be an integer coordinate, got {_shown(x)}")
    if x not in (-1, 0, 1):
        return 0.0
    return float(_power_times_ones(p, k)[x + 1])


def kernel_closed_form(p: float, T: int, t: int, beta: float) -> KernelShape:
    """Which of the three kernel shapes holds at stage ``t`` and level ``beta``.
    ``p`` is checked first, then ``beta``, then the stage."""
    _check_p(p)
    _check_beta(beta)
    v = _power_times_ones(p, _steps(T, t))
    if beta <= v[1]:
        return KernelShape.FULL
    if beta <= v[0]:
        return KernelShape.BOUNDARY_PAIR
    return KernelShape.EMPTY
