"""Backward induction for viability probabilities, policy evaluation, and
an exhaustive policy-enumeration oracle.

The value V(t, x) is the best probability, over admissible feedback laws,
that the state stays inside every constraint set from stage t through T when
started at x.  It satisfies the recursion

    V(T, x) = 1_{A(T)}(x)
    V(t, x) = 1_{A(t)}(x) * max_u  sum_i probs[i] * V(t+1, f(t, x, u, w_i))

with the maximum over the admissible controls at (t, x).  The sink carries
value 0 at every stage.  Policy evaluation is the same backup over the
policy's single control at each (t, x).  The stage backup returns
q(t, x, u), the expectation under each control slot.  The stage loop in
``_backward`` stores the clamped maximum ``best`` of q and, for ``solve``
only, takes there the one argmax threshold of q: controls with
``q >= best - ARGMAX_TOL * best`` (ties, or a relative gap of at most
``ARGMAX_TOL`` below ``best``) all count as maximizers.  Policy evaluation
builds no mask.  Any selection from those sets (see :mod:`stochviab.kernel`)
may lose that relative gap at every stage, so it achieves V within a relative
``steps * ARGMAX_TOL`` (up to rounding), values close to 0 included.  On a
200-stage walk both tie-breaks fall short of V by a relative 1.3e-11.

``brute_force_value`` is an independent oracle: it scores every feedback law
(one control slot per stage and non-sink state) with the plain
policy-evaluation recursion and returns the best score.  It builds the laws
backward, a stage at a time, so that all laws that agree on the later stages
share one row of values; it still scores each law, and shares no code with
the stage backups.  It goes depth first, in blocks of at most ``_BLOCK``
(16 384) candidate rows: its memory is a few blocks for any number of laws,
and the best score is the same float as when every law was held at once.

Every function here reads ``model.tables``, which compiles only a valid
model: each raises :class:`~stochviab.model.InvalidModelError` on any other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .model import Model, ModelError, _check_index, _check_x0, _shown

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
    "solve",
    "evaluate_policy",
    "brute_force_value",
]

ARGMAX_TOL = 1e-12
BRUTE_FORCE_GUARD = 10**6
# Candidate rows that brute_force_value enumerates at once.
_BLOCK = 1 << 14
# Largest next_state table, in logical bytes (shared stages count), a model may compile to.
TABLE_BYTES_GUARD = 2**31


def _stage_backup(n_ctrl_t, next_t, probs, v_next):
    """One backward-induction stage: ``q[x, j]``, the expectation of ``v_next``
    over the successors of control slot ``j`` at state ``x``, and -inf at the
    slots past the admissible count ``n_ctrl_t[x]``."""
    n_total, u_max, n_atoms = next_t.shape
    acc = np.zeros((n_total, u_max))
    for i in range(n_atoms):
        acc += probs[i] * v_next[next_t[:, :, i]]
    valid = np.arange(u_max)[None, :] < n_ctrl_t[:, None]
    return np.where(valid, acc, -np.inf)


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
        return _check_index(t, self.t0, self.T)[0]

    def slice(self, t: int) -> ValueSlice:
        return ValueSlice(t, self.table[self.stage_index(t)])

    def value(self, t: int, x: int) -> float:
        return float(self.table[_check_index(t, self.t0, self.T, x, self.sink)])


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
        row = self.mask[_check_index(t, self.t0, self.T - 1, x, self.mask.shape[1] - 1)]
        return tuple(int(j) for j in np.nonzero(row)[0])


def terminal_slice(model: Model) -> ValueSlice:
    """V(T, .): the indicator of the target set; 0 at the sink."""
    tab = model.tables
    return ValueSlice(model.time.T, tab.member[tab.steps].astype(np.float64))


def _backward(model: Model, policy: "FeedbackPolicy | None" = None):
    """V from V(T, .) back to t0, one ``_stage_backup`` per stage, and for
    ``solve`` the argmax mask; with ``policy`` the mask is None.

    With ``policy`` each state's one column is the policy's slot.
    ``_policy_choice_array`` checked that slot against the state's count, so
    every count is at least 1 and ``_stage_backup`` keeps the column.
    """
    tab = model.tables
    successors = tab.next_state.__getitem__
    if policy is not None:
        choice = _policy_choice_array(model, policy)
        successors = lambda k: _policy_successors(tab, choice, k)[:, None]

    table = np.zeros((tab.steps + 1, tab.n_states + 1))
    table[tab.steps] = terminal_slice(model).values
    mask = None if policy is not None else np.zeros(tab.n_ctrl.shape + (tab.u_max,), bool)
    for k in range(tab.steps - 1, -1, -1):
        q = _stage_backup(tab.n_ctrl[k], successors(k), tab.probs, table[k + 1])
        best = q.max(axis=1)
        # float drift in the probability sum can push the expectation a few ulp
        # past 1; the true value is a probability, so clamp the stored value
        table[k] = np.where(tab.member[k], np.minimum(best, 1.0), 0.0)
        if mask is not None:
            mask[k] = tab.member[k][:, None] & (q >= (best - ARGMAX_TOL * best)[:, None])
    return ValueFunction(tab.t0, tab.T, model.states.points.copy(), table), mask


def solve(model: Model) -> tuple[ValueFunction, ArgmaxPolicy]:
    """Full backward induction; O(steps * states * controls * disturbances)."""
    vf, mask = _backward(model)
    tab = model.tables
    return vf, ArgmaxPolicy(tab.t0, tab.T, mask, tab.n_ctrl)


def _check_stages(model: Model, policy, shape: tuple) -> None:
    """Raise ``PolicyError`` unless ``policy`` spans the model's stages and its
    table's ``shape`` is the model's ``(steps, n_total)``."""
    time, want = model.time, (model.time.steps, model.states.n_total)
    if (policy.t0, policy.T) != (time.t0, time.T):
        raise PolicyError(
            f"policy stages [{_shown(policy.t0)}, {_shown(policy.T)}] differ from the model's "
            f"[{_shown(time.t0)}, {_shown(time.T)}]"
        )
    if shape != want:
        raise PolicyError(f"policy table shape {shape} does not match model {want}")


def _policy_choice_array(model: Model, policy: "FeedbackPolicy") -> np.ndarray:
    """``policy.choice``, the (steps, n_total) int64 slot array that the policy
    checked at construction, once its stages and slots fit ``model``."""
    tab = model.tables
    choice = policy.choice
    _check_stages(model, policy, choice.shape)
    bad = (choice < 0) | (choice >= tab.n_ctrl)
    if np.any(bad):
        k, x = map(int, np.argwhere(bad)[0])
        raise PolicyError(
            f"inadmissible control slot {int(choice[k, x])} at "
            f"(t={tab.t0 + k}, x={x}); {int(tab.n_ctrl[k, x])} controls admissible"
        )
    return choice


def _policy_successors(tab, choice: np.ndarray, k: int) -> np.ndarray:
    """``(n_total, W)`` successors at stage ``k`` of every state under the
    control slots ``choice[k]`` of a validated ``_policy_choice_array``."""
    return tab.next_state[k][np.arange(tab.n_states + 1), choice[k]]


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

    A candidate is one control slot per (stage, non-sink state); slots at
    states outside the constraint set count too.  Candidates are built
    backward: the stage-k candidates cross each candidate for stages
    k+1..T-1 with every choice of slots at stage k, a state at a time, and
    all of them read that later candidate's one row of values.  Each is
    scored with the plain policy-evaluation recursion.  The enumeration goes
    depth first in blocks of at most ``_BLOCK`` candidate rows (or one
    state's control count, if larger): a block that the rest of a stage
    would grow past that is split, and each part is carried on to stage t0
    before the next starts.  So memory stays a few blocks for any candidate
    count, and the result is the maximum at (t0, x0) over the same scores.
    Guarded to ``BRUTE_FORCE_GUARD`` candidate policies.
    """
    tab = model.tables
    m = tab.n_states
    x0 = _check_x0(m, x0)
    n_pol = 1
    for r in tab.n_ctrl[:, :m].flat:
        n_pol *= int(r)
        if n_pol > BRUTE_FORCE_GUARD:
            raise ModelError(
                f"policy enumeration exceeds guard of {BRUTE_FORCE_GUARD} candidates"
            )
    rest = np.cumprod(tab.n_ctrl[:, m - 1 :: -1], axis=1)[:, ::-1]
    pi = tab.member[tab.steps, None].astype(np.float64)
    return _best_extension(tab, x0, rest, tab.steps, m, None, None, pi)


def _best_extension(tab, x0, rest, k, x, acc, rows, pi) -> float:
    """The best value at (t0, x0) over the candidates that extend a block.

    ``pi[c]`` holds the stage-k values of candidate row ``c`` at states
    before ``x`` (all of them when ``x == m``, with ``acc`` and ``rows``
    unused); ``acc[rows[c]]`` holds its stage-k expectations.  ``rest[k, x]``
    is the number of rows one row spreads into over states x..m-1 of stage k.
    Stages go in a loop, so a long horizon costs no recursion; only a split
    recurses, once per part.
    """
    m = tab.n_states
    while True:
        for x in range(x, m):
            if len(pi) > 1 and len(pi) * rest[k, x] > _BLOCK:
                # parts that the rest of the stage spreads into _BLOCK rows at most
                step = max(1, _BLOCK // int(rest[k, x]))
                return max(
                    _best_extension(tab, x0, rest, k, x, acc, rows[lo : lo + step],
                                    pi[lo : lo + step])
                    for lo in range(0, len(pi), step)
                )
            r = int(tab.n_ctrl[k, x])
            # row c becomes rows c*r .. c*r + r-1, one per control slot at x
            scores = acc[rows, x, :r] if tab.member[k, x] else None
            pi, rows = np.repeat(pi, r, axis=0), np.repeat(rows, r)
            if scores is not None:
                np.minimum(scores.ravel(), 1.0, out=pi[:, x])
        if k == 0:
            return float(pi[:, x0].max())
        k, x = k - 1, 0
        acc = np.zeros(pi.shape + (tab.u_max,))
        for i in range(tab.n_atoms):
            acc += tab.probs[i] * pi[:, tab.next_state[k, :, :, i]]
        rows = np.arange(len(pi))
        pi = np.zeros((len(pi), m + 1))
