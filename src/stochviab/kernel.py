"""Viability kernels as level sections of the value function, and feedback
policies selected from the maximizer sets.

A state belongs to the kernel at stage t and confidence beta exactly when
V(t, x) >= beta; the comparison is exact, with no tolerance, because the
level-section characterization is an if-and-only-if.  Feedback synthesis
reduces the abstract measurable-selection step to an explicit tie-break rule
on the finite maximizer sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .dp import ArgmaxPolicy, PolicyError, ValueFunction, _policy_choice_array, evaluate_policy
from .model import (Model, ModelError, _as_array, _check_beta, _check_index, _check_x0, _is_int,
                    _shown)

__all__ = [
    "KernelSlice",
    "FeedbackPolicy",
    "kernel_slice",
    "viable_feedback_check",
    "select_feedback",
]

TieBreak = Union[str, Sequence[int]]


@dataclass(frozen=True, eq=False)
class KernelSlice:
    """States whose value at stage ``t`` reaches at least ``beta``."""

    t: int
    beta: float
    members: tuple[int, ...]


def kernel_slice(valuefn: ValueFunction, t: int, beta: float) -> KernelSlice:
    """Level section {x : V(t, x) >= beta}; the sink is never a member."""
    _check_beta(beta)
    row = valuefn.table[valuefn.stage_index(t), : valuefn.n_states]
    members = tuple(int(x) for x in np.nonzero(row >= beta)[0])
    return KernelSlice(t, float(beta), members)


@dataclass(frozen=True, eq=False)
class FeedbackPolicy:
    """One admissible control slot per (stage, state).

    ``choice[k, x]`` indexes the admissible control list at ``(t0 + k, x)``;
    the sink row is a dummy.  Instances are immutable and safe to share.
    A ``choice`` that is not a 2-D integer array, or lists in rows of unequal
    length, is refused; the policy holds an int64 copy of it.
    """

    t0: int
    T: int
    choice: np.ndarray  # int64 (steps, m + 1)

    def __post_init__(self) -> None:
        choice = _as_array(self.choice, "control slots", PolicyError)
        if choice.dtype.kind not in "iu":
            raise PolicyError(f"control slots of dtype {choice.dtype} are not integers")
        if choice.ndim != 2:
            raise PolicyError(f"control slots of shape {choice.shape} are not a 2-D array")
        object.__setattr__(self, "choice", choice.astype(np.int64))

    def choose(self, t: int, x: int) -> int:
        return int(self.choice[_check_index(t, self.t0, self.T - 1, x, self.choice.shape[1] - 1)])

    @classmethod
    def from_array(cls, model: Model, choice: np.ndarray) -> "FeedbackPolicy":
        """The policy of a ``(steps, n_total)`` array of integer slots; each
        slot must be admissible."""
        policy = cls(model.time.t0, model.time.T, choice)
        _policy_choice_array(model, policy)  # raises PolicyError
        return policy

    @classmethod
    def constant(cls, model: Model, control: Sequence[float]) -> "FeedbackPolicy":
        """The policy applying one fixed control vector everywhere.

        Fails for a vector of another width than the controls', or where it is not admissible.
        """
        want = np.asarray(control, dtype=np.float64).reshape(-1)
        tab, ctl = model.tables, model.controls
        if want.size != ctl.dim:
            raise PolicyError(f"control {want.tolist()} has {want.size} coordinates, not {ctl.dim}")
        hits = np.all(ctl.vectors == want, axis=-1)  # one row broadcasts over the stages
        hits &= np.arange(ctl.vectors.shape[2]) < ctl.counts[..., None]
        missing = np.argwhere(~hits.any(axis=-1))
        if missing.size:
            k, x = map(int, missing[0])
            raise PolicyError(
                f"control {want.tolist()} not admissible at (t={tab.t0 + k}, x={x})"
            )
        choice = np.zeros((tab.steps, tab.n_states + 1), dtype=np.int64)
        choice[:, : tab.n_states] = np.argmax(hits, axis=-1)
        return cls(tab.t0, tab.T, choice)


def select_feedback(argmax: ArgmaxPolicy, tie_break: TieBreak = "smallest"
                    ) -> FeedbackPolicy:
    """One selection from the maximizer sets: at each (t, x), the first
    maximizer in the slot order that ``tie_break`` names.

    ``tie_break`` is ``"smallest"`` (default: ascending slots), ``"largest"``
    (descending slots), or a preference list of control slots, which is
    followed by the ascending slots, so that the smallest maximizer is taken
    when none of the preferred slots maximizes.  Where the maximizer set is
    empty -- states outside the constraint set, or inside it with value 0 --
    the first admissible control is used so that simulation never blocks;
    the achieved probability there is 0 under any choice.
    """
    mask = argmax.mask
    width = mask.shape[2]
    if isinstance(tie_break, str):  # a preference list may be a numpy array
        if tie_break not in ("smallest", "largest"):
            raise ModelError(f"unknown tie_break rule {_shown(tie_break)}")
        order = np.arange(width, dtype=np.int64)[:: 1 if tie_break == "smallest" else -1]
    else:
        prefs = list(tie_break)
        for j in prefs:
            if not (_is_int(j) and 0 <= j < width):
                raise ModelError(
                    f"preference slot {_shown(j)} must be an integer in 0..{width - 1}")
        # a slot's first place counts, so the order is a permutation of the slots
        order = np.array(list(dict.fromkeys([*prefs, *range(width)])), dtype=np.int64)
    first = order[np.argmax(mask[..., order], axis=-1)]  # the first maximizer in that order
    choice = np.where(mask.any(axis=-1), first, 0)
    return FeedbackPolicy(argmax.t0, argmax.T, choice)


def viable_feedback_check(model: Model, valuefn: ValueFunction,
                          policy: FeedbackPolicy, t0: int, x0: int,
                          beta: float) -> bool:
    """Whether ``policy`` meets confidence ``beta`` from (t0, x0).

    Decided by exact policy evaluation, so this is the membership test for
    the set of viable feedbacks; ``valuefn`` only pins the expected stage
    range.
    """
    _check_beta(beta)
    valuefn.stage_index(t0)
    x0 = _check_x0(model.states.n_points, x0)
    achieved = evaluate_policy(model, policy).value(t0, x0)
    return achieved >= beta
