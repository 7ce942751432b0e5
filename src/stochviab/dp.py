"""Backward induction for viability probabilities, policy evaluation, and
an exhaustive policy-enumeration oracle.

The value V(t, x) is the best probability, over admissible feedback laws,
that the state stays inside every constraint set from stage t through T when
started at x.  It satisfies the recursion

    V(T, x) = 1_{A(T)}(x)
    V(t, x) = 1_{A(t)}(x) * max_u  sum_i probs[i] * V(t+1, f(t, x, u, w_i))

with the maximum over the admissible controls at (t, x).  The sink carries
value 0 at every stage.  Policy evaluation is the same backup over the
policy's single control at each (t, x).  Controls whose stage expectation q
satisfies ``q >= best - ARGMAX_TOL * best`` (ties, or a relative gap of at
most ``ARGMAX_TOL`` below the stage maximum ``best``) all count as
maximizers.  Any selection from those sets (see :mod:`stochviab.kernel`) may
lose that relative gap at every stage, so it achieves V within a relative
``steps * ARGMAX_TOL`` (up to rounding), values close to 0 included.  On a
200-stage walk both tie-breaks fall short of V by a relative 1.3e-11.

``brute_force_value`` is an independent oracle: it enumerates every feedback
law (one control slot per stage and non-sink state), scores each with the
plain policy-evaluation recursion, and returns the best score.  It shares no
code with the stage kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .model import InvalidModelError, Model, ModelError, _check_x0, validate

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import FeedbackPolicy

__all__ = [
    "ARGMAX_TOL",
    "BRUTE_FORCE_GUARD",
    "TABLE_BYTES_GUARD",
    "PolicyError",
    "ValueSlice",
    "ValueFunction",
    "ArgmaxPolicy",
    "terminal_slice",
    "bellman_step",
    "solve",
    "evaluate_policy",
    "brute_force_value",
]

ARGMAX_TOL = 1e-12
BRUTE_FORCE_GUARD = 10**6
# Largest next_state table, in logical bytes (shared stages count), a model may compile to.
TABLE_BYTES_GUARD = 2**31


def _stage_backup(member_t, n_ctrl_t, next_t, probs, v_next):
    """One backward-induction stage.

    Returns ``(values, argmax_mask)`` where ``values[x]`` is the stage value
    (0 outside the constraint set) and ``argmax_mask[x, j]`` flags admissible
    control slots within relative ``ARGMAX_TOL`` of the stage maximum.
    """
    n_total, u_max, n_atoms = next_t.shape
    acc = np.zeros((n_total, u_max))
    for i in range(n_atoms):
        acc += probs[i] * v_next[next_t[:, :, i]]
    valid = np.arange(u_max)[None, :] < n_ctrl_t[:, None]
    q = np.where(valid, acc, -np.inf)
    best = q.max(axis=1)[:, None]
    # float drift in the probability sum can push the expectation a few ulp
    # past 1; the true value is a probability, so clamp the stored value
    values = np.where(member_t, np.minimum(best[:, 0], 1.0), 0.0)
    mask = member_t[:, None] & (q >= best - ARGMAX_TOL * best)
    return values, mask


class PolicyError(ValueError):
    """A feedback policy chose an inadmissible control."""


@dataclass(frozen=True, eq=False)
class ValueSlice:
    """Values at one stage, indexed by state; the sink sits at the end."""

    t: int
    values: np.ndarray


@dataclass(frozen=True, eq=False)
class ValueFunction:
    """Stacked value slices for t0..T plus the grid coordinates.

    ``table[k, x]`` is the value at stage ``t0 + k`` and state ``x``; column
    ``n_states`` is the sink and is identically zero.
    """

    t0: int
    T: int
    points: np.ndarray  # (m, dim)
    table: np.ndarray  # (T - t0 + 1, m + 1)

    @property
    def n_states(self) -> int:
        return self.points.shape[0]

    @property
    def sink(self) -> int:
        return self.n_states

    def stage_index(self, t: int) -> int:
        if not (self.t0 <= t <= self.T):
            raise ModelError(f"stage {t} outside [{self.t0}, {self.T}]")
        return t - self.t0

    def slice(self, t: int) -> ValueSlice:
        return ValueSlice(t, self.table[self.stage_index(t)])

    def value(self, t: int, x: int) -> float:
        return float(self.table[self.stage_index(t), x])


@dataclass(frozen=True, eq=False)
class ArgmaxPolicy:
    """All maximizing control slots per (stage, state).

    ``mask[k, x, j]`` flags slot ``j`` of the admissible list at
    ``(t0 + k, x)`` as a maximizer; ``counts`` holds admissible list sizes.
    """

    t0: int
    T: int
    mask: np.ndarray  # bool (steps, m + 1, u_max)
    counts: np.ndarray  # int64 (steps, m + 1)

    def viable(self, t: int, x: int) -> tuple[int, ...]:
        if not (self.t0 <= t < self.T):
            raise ModelError(f"stage {t} outside [{self.t0}, {self.T - 1}]")
        row = self.mask[t - self.t0, x]
        return tuple(int(j) for j in np.nonzero(row)[0])


def _require_valid(model: Model) -> None:
    violations = validate(model)
    if violations:
        raise InvalidModelError(violations)


def terminal_slice(model: Model) -> ValueSlice:
    """V(T, .): the indicator of the target set; 0 at the sink."""
    tab = model.tables
    return ValueSlice(model.time.T, tab.member[tab.steps].astype(np.float64))


def bellman_step(model: Model, t: int, next_slice: ValueSlice
                 ) -> tuple[ValueSlice, list[tuple[int, ...]]]:
    """One stage of the backward induction.

    Returns the value slice at ``t`` and, per state, the ordered tuple of
    maximizing control slots (empty outside the constraint set).
    """
    if next_slice.t != t + 1:
        raise ModelError(
            f"stage mismatch: next slice is for t={next_slice.t}, expected {t + 1}"
        )
    tab = model.tables
    k = model.time.stage_index(t, terminal=False)
    values, mask = _stage_backup(
        tab.member[k],
        tab.n_ctrl[k],
        tab.next_state[k],
        tab.probs,
        np.asarray(next_slice.values, dtype=np.float64),
    )
    argmax = [tuple(int(j) for j in np.nonzero(mask[x])[0]) for x in range(values.shape[0])]
    return ValueSlice(t, values), argmax


def _backward(model: Model, policy: "FeedbackPolicy | None" = None):
    """V from V(T, .) back to t0 and the argmax mask, one ``_stage_backup`` per stage.

    With ``policy`` the only admissible control is the policy's (count 1).
    """
    _require_valid(model)  # before the tables are read, so every violation is listed
    tab = model.tables
    n_ctrl, width, successors = tab.n_ctrl, tab.u_max, tab.next_state.__getitem__
    if policy is not None:
        choice = _policy_choice_array(model, policy)
        rows = np.arange(tab.n_states + 1)
        n_ctrl, width = np.broadcast_to(np.int64(1), choice.shape), 1
        successors = lambda k: tab.next_state[k][rows, choice[k], None]

    table = np.zeros((tab.steps + 1, tab.n_states + 1))
    table[tab.steps] = terminal_slice(model).values
    mask = np.zeros(n_ctrl.shape + (width,), dtype=bool)
    for k in range(tab.steps - 1, -1, -1):
        table[k], mask[k] = _stage_backup(
            tab.member[k], n_ctrl[k], successors(k), tab.probs, table[k + 1]
        )
    return ValueFunction(tab.t0, tab.T, model.states.points.copy(), table), mask


def solve(model: Model) -> tuple[ValueFunction, ArgmaxPolicy]:
    """Full backward induction; O(steps * states * controls * disturbances)."""
    vf, mask = _backward(model)
    tab = model.tables
    return vf, ArgmaxPolicy(tab.t0, tab.T, mask, tab.n_ctrl)


def _policy_choice_array(model: Model, policy: "FeedbackPolicy") -> np.ndarray:
    """Validated (steps, n_total) slot array for ``policy`` on ``model``."""
    tab = model.tables
    choice = np.asarray(policy.choice, dtype=np.int64)
    if choice.shape != tab.n_ctrl.shape:
        raise PolicyError(
            f"policy table shape {choice.shape} does not match model {tab.n_ctrl.shape}"
        )
    bad = (choice < 0) | (choice >= tab.n_ctrl)
    if np.any(bad):
        k, x = map(int, np.argwhere(bad)[0])
        raise PolicyError(
            f"inadmissible control slot {int(choice[k, x])} at "
            f"(t={tab.t0 + k}, x={x}); {int(tab.n_ctrl[k, x])} controls admissible"
        )
    return choice


def evaluate_policy(model: Model, policy: "FeedbackPolicy") -> ValueFunction:
    """Exact success probability of the fixed feedback law, as a value table.

    Row T is the target indicator; interior rows apply the closed-loop
    expectation with the policy's control instead of the maximum.  Entry
    (t0, x0) is exactly the probability that the closed-loop path from x0
    satisfies every constraint through stage T.
    """
    return _backward(model, policy)[0]


def brute_force_value(model: Model, x0: int) -> float:
    """Best success probability over every feedback law, by full enumeration.

    Enumerates one control slot per (stage, non-sink state), scores each
    candidate with the plain policy-evaluation recursion (vectorized over all
    candidates at once), and returns the maximum at (t0, x0).  Guarded to
    ``BRUTE_FORCE_GUARD`` candidate policies.
    """
    _require_valid(model)
    tab = model.tables
    m = tab.n_states
    x0 = _check_x0(m, x0)
    steps = tab.steps

    radices = [int(tab.n_ctrl[k, x]) for k in range(steps) for x in range(m)]
    n_pol = 1
    for r in radices:
        n_pol *= r
        if n_pol > BRUTE_FORCE_GUARD:
            raise ModelError(
                f"policy enumeration exceeds guard of {BRUTE_FORCE_GUARD} candidates"
            )

    # digit[c, slot] = control choice of candidate c at flattened (stage, state)
    ids = np.arange(n_pol)
    digits = np.empty((n_pol, len(radices)), dtype=np.int64)
    stride = 1
    for s, r in enumerate(radices):
        digits[:, s] = (ids // stride) % r
        stride *= r

    # policy evaluation recursion, batched over candidates
    pi = np.broadcast_to(
        tab.member[steps].astype(np.float64), (n_pol, m + 1)
    ).copy()
    for k in range(steps - 1, -1, -1):
        nxt_pi = pi
        pi = np.zeros((n_pol, m + 1))
        for x in range(m):
            if not tab.member[k, x]:
                continue
            slot = digits[:, k * m + x]
            succ = tab.next_state[k, x, slot, :]  # (n_pol, W)
            acc = np.zeros(n_pol)
            for i in range(tab.n_atoms):
                acc += tab.probs[i] * nxt_pi[ids, succ[:, i]]
            pi[:, x] = np.minimum(acc, 1.0)
    return float(pi[:, x0].max())
