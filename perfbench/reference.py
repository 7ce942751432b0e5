"""Independent references the benchmark checks stochviab against.

Everything here is plain numpy written from the model definition, sharing
no code with stochviab: successor indices from the generator's own
dynamics, constraint membership, a backward induction that takes the max
over admissible controls, and the Wilson score interval.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import Instance


def _project(points: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Nearest grid index per candidate row, or len(points) (the sink).

    The documented rule: nearest point by Euclidean distance, ties to the
    smallest index, captured only within half the smallest coordinate gap
    over all axes.
    """
    m, dim = points.shape
    gap = min(
        float(np.min(np.diff(np.unique(points[:, a]))))
        for a in range(dim) if np.unique(points[:, a]).size > 1
    )
    half = gap / 2.0
    out = np.empty(cand.shape[0], dtype=np.int64)
    for lo in range(0, cand.shape[0], 2048):
        block = cand[lo:lo + 2048]
        d2 = (points[None, :, 0] - block[:, None, 0]) ** 2
        for a in range(1, dim):
            d2 = d2 + (points[None, :, a] - block[:, None, a]) ** 2
        best = np.argmin(d2, axis=1)
        near = d2[np.arange(block.shape[0]), best] <= half * half
        out[lo:lo + block.shape[0]] = np.where(near, best, m)
    return out


def transitions(name: str, inst: Instance) -> np.ndarray:
    """Successor indices (steps, m, n_u, W) of workload family ``name``;
    ``m`` stands for the sink."""
    doc = inst.doc
    points = np.asarray(doc["states"]["points"], dtype=np.float64)
    m = points.shape[0]
    steps = doc["time"]["T"] - doc["time"]["t0"]
    ctrl = np.asarray(doc["controls"]["lists"], dtype=np.float64)
    noise = np.asarray(doc["noise"]["support"], dtype=np.float64)
    if name == "table-1d":
        table = inst.params["table"]
        return np.where(table < 0, m, table)

    x = points[:, None, None, :]
    u = ctrl[None, :, None, :]
    w = noise[None, None, :, :]
    if name == "three-state":
        nxt = [(x[..., 0] + u[..., 0]) + w[..., 0]]
    else:  # expr-2d, same operation order as its expressions
        a1, a2, b2, c = inst.params["coef"]
        nxt = [
            ((x[..., 0] + u[..., 0]) + w[..., 0]) + (a1 * (x[..., 1] - c)) / c,
            (((x[..., 1] + u[..., 1]) + w[..., 1]) + (a2 * np.abs(x[..., 0] - c)) / c) - b2,
        ]
    shape = np.broadcast_shapes(*(v.shape for v in nxt))
    cand = np.stack([np.broadcast_to(v, shape).reshape(-1) for v in nxt], axis=1)
    succ = _project(points, cand).reshape(shape)
    return np.broadcast_to(succ, (steps,) + shape)  # time-invariant


def membership(inst: Instance) -> np.ndarray:
    """Bool (steps + 1, m): which states satisfy the stationary constraint."""
    doc = inst.doc
    points = np.asarray(doc["states"]["points"], dtype=np.float64)
    steps = doc["time"]["T"] - doc["time"]["t0"]
    cons = doc["constraints"]
    if cons["mode"] == "set":
        inside = np.zeros(points.shape[0], dtype=bool)
        inside[cons["stationary"]] = True
    else:
        lo = np.asarray(cons["stationary"]["lower"])
        hi = np.asarray(cons["stationary"]["upper"])
        inside = np.all((points >= lo) & (points <= hi), axis=1)
    return np.broadcast_to(inside, (steps + 1, points.shape[0]))


def q_values(succ: np.ndarray, member: np.ndarray, probs: np.ndarray):
    """Backward induction by the textbook recursion.

    Returns ``(V, Q)``: V of shape (steps + 1, m + 1) with the sink column
    0, and Q of shape (steps, m, n_u), the expected next-stage value of each
    control, so that V[k, x] = member[k, x] * max_j Q[k, x, j].
    """
    steps, m, n_u, _ = succ.shape
    V = np.zeros((steps + 1, m + 1))
    Q = np.zeros((steps, m, n_u))
    V[steps, :m] = member[steps]
    for k in range(steps - 1, -1, -1):
        Q[k] = np.einsum("xuw,w->xu", V[k + 1][succ[k]], probs)
        V[k, :m] = np.where(member[k], Q[k].max(axis=1), 0.0)
    return V, Q


def wilson(successes: int, n: int, z: float) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n)) / denom
    return center - half, center + half
