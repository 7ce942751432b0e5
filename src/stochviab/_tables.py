"""Index tables compiled from a model for the array kernels.

Everything the solvers touch per inner iteration lives in flat numpy arrays:
successor indices, admissible control counts, constraint membership, and the
disturbance pmf.  The sink occupies the last state row; its single dummy
control loops back to itself, so closed-loop walks never branch on it.

The tables are read-only, with one row per stage.  A stationary part
(``n_ctrl``, ``member``, or ``next_state`` compiled once, below) is stored
once and every stage reads it through an ``np.broadcast_to`` view.

Expression dynamics compile as whole arrays.  Each coordinate expression is
evaluated once per stage over the mesh of admissible (state, control slot)
pairs by disturbance atoms, and once in all when no expression reads ``t``
and the control lists do not change with the stage.  The successors are
projected to the grid in one array call.  Unused control slots stay the sink
and are never evaluated.  When the mesh evaluation fails, the stage is walked
again point by point in (x, u, w) order, so the error names the first failing
point as a point-by-point build would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from . import expr as _expr
from .dp import TABLE_BYTES_GUARD
from .model import Model, ModelError, TableDynamics, project_to_grid


@dataclass(frozen=True, eq=False)
class Tables:
    t0: int
    T: int
    n_states: int  # non-sink count; sink index equals n_states
    n_ctrl: np.ndarray  # int64 (steps, n_total)
    next_state: np.ndarray  # int64 (steps, n_total, u_max, W)
    member: np.ndarray  # bool (steps + 1, n_total)
    probs: np.ndarray  # float64 (W,)

    @property
    def steps(self) -> int:
        return self.T - self.t0

    @property
    def sink(self) -> int:
        return self.n_states

    @property
    def u_max(self) -> int:
        return self.next_state.shape[2]

    @property
    def n_atoms(self) -> int:
        return self.next_state.shape[3]


def build_tables(model: Model) -> Tables:
    time, states, ctl = model.time, model.states, model.controls
    m = states.n_points
    n_total = m + 1
    steps = time.steps
    n_atoms = model.noise.n_atoms

    rows = ctl.stage_rows(time)
    if np.any(rows < 0):
        raise ModelError(f"no control table row for stage {time.t0 + int(np.argmin(rows))}")
    counts = ctl.counts[rows]  # one row, or one per stage
    u_max = max(1, int(counts.max(initial=0)))
    if isinstance(model.dynamics, TableDynamics):
        u_max = max(u_max, model.dynamics.table.shape[2])
    nbytes = steps * n_total * u_max * n_atoms * 8
    if nbytes > TABLE_BYTES_GUARD:
        raise ModelError(
            f"transition table needs {nbytes} bytes ({steps} stages x {n_total} states "
            f"x {u_max} control slots x {n_atoms} atoms x 8 B), over the guard of "
            f"{TABLE_BYTES_GUARD} bytes"
        )

    n_ctrl = np.pad(counts, [(0, 0), (0, 1)], constant_values=1)  # the sink's dummy control
    if isinstance(model.dynamics, TableDynamics):
        tab = model.dynamics.table  # unused control slots go to the sink
        nxt = np.pad(tab, [(0, 0), (0, 0), (0, u_max - tab.shape[2]), (0, 0)], constant_values=m)
        nxt[:, m, :, :] = m  # absorbing sink regardless of stored row
    else:
        nxt = _expr_table(model, rows, u_max)

    return Tables(
        t0=time.t0,
        T=time.T,
        n_states=m,
        n_ctrl=np.broadcast_to(n_ctrl, (steps, n_total)),
        next_state=np.broadcast_to(nxt, (steps,) + nxt.shape[1:]),
        member=model.constraints.membership_matrix(time, states),
        probs=np.broadcast_to(model.noise.probs.astype(np.float64), (n_atoms,)),  # a read-only copy
    )


def _expr_table(model: Model, rows: np.ndarray, u_max: int) -> np.ndarray:
    """Successors of expression dynamics: one slab per stage, or one in all."""
    asts = model.dynamics.asts
    states, noise, time, ctl = model.states, model.noise, model.time, model.controls
    once = rows.size == 1 and not any("t" in _expr.variables(a) for a in asts)
    slabs = 1 if once else time.steps
    nxt = np.full((slabs, states.n_total, u_max, noise.n_atoms), states.sink, dtype=np.int64)
    for k in range(slabs):
        r = rows[k] if rows.size > 1 else rows[0]
        xs, js = np.nonzero(np.arange(u_max) < ctl.counts[r][:, None])
        shape = (xs.size, noise.n_atoms)
        if 0 in shape:
            continue
        bindings = _mesh_bindings(
            float(time.t0 + k),
            states.points[xs][:, None, :],
            ctl.vectors[r, xs, js, : ctl.dim][:, None, :],
            noise.support[None, :, :],
        )
        try:
            cols = [np.broadcast_to(_expr.evaluate(a, bindings), shape) for a in asts]
        except _expr.EvalError as err:
            _raise_first_failure(asts, bindings, shape, time.t0 + k, xs, js, err)
        succ = project_to_grid(states, np.stack(cols, axis=-1).reshape(-1, len(asts)))
        nxt[k, xs, js, :] = succ.reshape(shape)
    return nxt


def _mesh_bindings(t, x, u, w) -> dict:
    """Variable bindings from coordinate arrays whose last axis is the
    vector component; ``x``, ``u`` and ``w`` alias a dimension of 1."""
    b = {"t": t}
    for name, arr in (("x", x), ("u", u), ("w", w)):
        for i in range(arr.shape[-1]):
            b[f"{name}{i + 1}"] = arr[..., i]
        if arr.shape[-1] == 1:
            b[name] = b[f"{name}1"]
    return b


def _raise_first_failure(asts, bindings, shape, t, xs, js, err) -> NoReturn:
    """Re-evaluate one stage point by point and raise at its first failure."""
    mesh = {name: np.broadcast_to(v, shape) for name, v in bindings.items()}
    for a in range(shape[0]):
        for i in range(shape[1]):
            point = {name: float(v[a, i]) for name, v in mesh.items()}
            for ast in asts:
                try:
                    _expr.evaluate(ast, point)
                except _expr.EvalError as located:
                    raise ModelError(
                        f"dynamics evaluation failed at (t={t}, x={xs[a]}, "
                        f"u={js[a]}, w={i}): {located}"
                    ) from located
    raise ModelError(f"dynamics evaluation failed at t={t}: {err}") from err
