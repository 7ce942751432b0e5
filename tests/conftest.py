"""Shared fixtures and seeded generators for small random models."""

from __future__ import annotations

import random

import numpy as np
import pytest

from stochviab import make_three_state_example
from stochviab.kernel import FeedbackPolicy
from stochviab.model import (
    ConstraintSets,
    ControlMap,
    DisturbanceLaw,
    ExprDynamics,
    Model,
    StateSpace,
    TableDynamics,
    TimeGrid,
)


@pytest.fixture(scope="session")
def example_model():
    return make_three_state_example(0.01, 0, 40)


def random_model(seed: int, deterministic: bool = False) -> Model:
    """Small random model: |X| <= 4, |U| <= 2, |W| <= 3, T - t0 <= 3.

    Dynamics are a random transition table with occasional sink entries;
    constraints are random per-stage index sets (never all-empty at the
    target so some value mass usually survives).
    """
    rng = random.Random(seed)
    m = rng.randint(1, 4)
    steps = rng.randint(1, 3)
    t0 = rng.randint(-1, 1)
    n_atoms = 1 if deterministic else rng.randint(1, 3)

    points = [[float(i)] for i in range(m)]
    ctable = [
        [[[float(j)] for j in range(rng.randint(1, 2))] for _ in range(m)]
        for _ in range(steps)
    ]
    u_max = max(len(per_x) for row in ctable for per_x in row)

    if deterministic:
        probs = [1.0]
    else:
        raw = [rng.uniform(0.05, 1.0) for _ in range(n_atoms)]
        total = sum(raw)
        probs = [r / total for r in raw]
    support = [[float(i)] for i in range(n_atoms)]

    nested = [
        [
            [
                [rng.choice([-1] + list(range(m))) for _ in range(n_atoms)]
                for _ in range(len(ctable[k][x]))
            ]
            for x in range(m)
        ]
        for k in range(steps)
    ]

    per_stage = []
    for k in range(steps + 1):
        size = rng.randint(1, m)
        per_stage.append(tuple(sorted(rng.sample(range(m), size))))

    return Model(
        time=TimeGrid(t0, t0 + steps),
        states=StateSpace(np.array(points)),
        controls=ControlMap.per_stage_state(ctable, m, t0),
        noise=DisturbanceLaw(np.array(support), np.array(probs)),
        dynamics=TableDynamics.from_nested(nested, m, u_max, n_atoms, steps),
        constraints=ConstraintSets("set", per_stage=tuple(per_stage)),
    )


def walk_model(n: int, T: int) -> Model:
    """Time-invariant walk ``x + u + w`` on ``n`` evenly spaced points of
    [0, 1], spacing h: shared controls {-h, 0, h}, disturbance atoms
    {-2h, ..., 2h} with probabilities (0.05, 0.2, 0.5, 0.2, 0.05), and the
    stationary box [0.2, 0.8]."""
    h = 1.0 / (n - 1)
    return Model(
        time=TimeGrid(0, T),
        states=StateSpace(np.linspace(0.0, 1.0, n)[:, None]),
        controls=ControlMap.shared([[-h], [0.0], [h]], n),
        noise=DisturbanceLaw(np.arange(-2, 3)[:, None] * h, [0.05, 0.2, 0.5, 0.2, 0.05]),
        dynamics=ExprDynamics.parse(["x + u + w"], (1, 1, 1)),
        constraints=ConstraintSets("box", stationary=([0.2], [0.8])),
    )


def random_policy(model: Model, seed: int) -> FeedbackPolicy:
    """A uniformly random admissible feedback for ``model``."""
    rng = random.Random(seed)
    tab = model.tables
    choice = np.zeros((tab.steps, tab.n_states + 1), dtype=np.int64)
    for k in range(tab.steps):
        for x in range(tab.n_states):
            choice[k, x] = rng.randrange(int(tab.n_ctrl[k, x]))
    return FeedbackPolicy(tab.t0, tab.T, choice)
