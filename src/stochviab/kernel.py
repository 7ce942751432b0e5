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

from .dp import ArgmaxPolicy, PolicyError, ValueFunction, evaluate_policy
from .model import Model, ModelError

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
    if not (0.0 < beta <= 1.0):
        raise ModelError(f"beta must lie in (0, 1], got {beta}")
    row = valuefn.table[valuefn.stage_index(t), : valuefn.n_states]
    members = tuple(int(x) for x in np.nonzero(row >= beta)[0])
    return KernelSlice(t, float(beta), members)


@dataclass(frozen=True, eq=False)
class FeedbackPolicy:
    """One admissible control slot per (stage, state).

    ``choice[k, x]`` indexes the admissible control list at ``(t0 + k, x)``;
    the sink row is a dummy.  Instances are immutable and safe to share.
    """

    t0: int
    T: int
    choice: np.ndarray  # int64 (steps, m + 1)

    def choose(self, t: int, x: int) -> int:
        if not (self.t0 <= t < self.T):
            raise ModelError(f"stage {t} outside [{self.t0}, {self.T - 1}]")
        return int(self.choice[t - self.t0, x])

    @classmethod
    def from_array(cls, model: Model, choice: np.ndarray) -> "FeedbackPolicy":
        tab = model.tables
        arr = np.asarray(choice, dtype=np.int64)
        if arr.shape != (tab.steps, tab.n_states + 1):
            raise PolicyError(
                f"choice shape {arr.shape}, expected {(tab.steps, tab.n_states + 1)}"
            )
        return cls(tab.t0, tab.T, arr.copy())

    @classmethod
    def constant(cls, model: Model, control: Sequence[float]) -> "FeedbackPolicy":
        """The policy applying one fixed control vector everywhere.

        Fails where that vector is not in the admissible list.
        """
        want = np.asarray(control, dtype=np.float64).reshape(-1)
        tab, ctl = model.tables, model.controls
        slots = np.arange(ctl.vectors.shape[2])
        hits = np.all(ctl.vectors[..., : ctl.dim] == want, axis=-1)
        hits &= slots < ctl.counts[..., None]
        hits = hits[ctl.stage_rows(model.time)]  # one row broadcasts over the stages
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
    """One selection from the maximizer sets, resolved by ``tie_break``.

    ``tie_break`` is ``"smallest"`` (default), ``"largest"``, or a preference
    list of control slots tried in order (falling back to the smallest member
    when none of the preferred slots maximizes).  Where the maximizer set is
    empty -- states outside the constraint set, or inside it with value 0 --
    the first admissible control is used so that simulation never blocks;
    the achieved probability there is 0 under any choice.
    """
    mask = argmax.mask
    rule = tie_break if isinstance(tie_break, str) else None  # None: a preference list
    if rule not in ("smallest", "largest", None):
        raise ModelError(f"unknown tie_break rule {tie_break!r}")

    if rule == "largest":
        choice = mask.shape[2] - 1 - np.argmax(mask[..., ::-1], axis=-1)
    else:
        choice = np.argmax(mask, axis=-1)  # the smallest maximizer
    if rule is None:
        prefs = [int(j) for j in tie_break]
        for j in prefs:
            if not 0 <= j < mask.shape[2]:
                raise ModelError(f"preference slot {j} outside 0..{mask.shape[2] - 1}")
        for j in reversed(prefs):  # the first preferred maximizer wins
            choice = np.where(mask[..., j], j, choice)
    choice = np.where(mask.any(axis=-1), choice, 0).astype(np.int64)
    return FeedbackPolicy(argmax.t0, argmax.T, choice)


def viable_feedback_check(model: Model, valuefn: ValueFunction,
                          policy: FeedbackPolicy, t0: int, x0: int,
                          beta: float) -> bool:
    """Whether ``policy`` meets confidence ``beta`` from (t0, x0).

    Decided by exact policy evaluation, so this is the membership test for
    the set of viable feedbacks; ``valuefn`` only pins the expected stage
    range.
    """
    if not (valuefn.t0 <= t0 <= valuefn.T):
        raise ModelError(f"stage {t0} outside [{valuefn.t0}, {valuefn.T}]")
    achieved = evaluate_policy(model, policy).value(t0, x0)
    return achieved >= beta
