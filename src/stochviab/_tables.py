"""Index tables compiled from a model for the array kernels.

Only a valid model compiles: ``build_tables`` raises :class:`InvalidModelError`
with :func:`validate`'s violations before anything is allocated, and
``Model.tables`` caches the result, so a model is validated once.

Everything the solvers touch per inner iteration lives in flat numpy arrays:
successor indices, admissible control counts, constraint membership, and the
disturbance pmf.  The sink occupies the last state row; its single dummy
control loops back to itself, so closed-loop walks never branch on it.

The tables are read-only, with one row per stage.  A stationary part
(``n_ctrl``, ``member``, or ``next_state`` compiled once, below) is stored
once and every stage reads it through an ``np.broadcast_to`` view;
``Tables.stored_row`` is the one place to ask which stored row a stage reads.

Expression dynamics compile as whole arrays.  Each coordinate expression is
evaluated once per stage over the mesh of admissible (state, control slot)
pairs by disturbance atoms, and once in all when no expression reads ``t``
and the control lists do not change with the stage.  The successors are
projected to the grid in one array call, through at most ``2**dim`` neighbours
each.  Unused control slots stay the sink and are never evaluated.  A failed
mesh evaluation names its first failing point, found by bisecting the mesh
with the same evaluation.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .dp import TABLE_BYTES_GUARD
from .model import (InvalidModelError, Model, ModelError, TableDynamics, _shown, project_to_grid,
                    validate)


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

    def stored_row(self, part: np.ndarray, k: int) -> int:
        """The stored row of ``part``, one of these tables, that stage ``k`` reads."""
        return 0 if part.strides[0] == 0 else k


def build_tables(model: Model) -> Tables:
    violations = validate(model)
    if violations:
        raise InvalidModelError(violations)
    time, states, ctl = model.time, model.states, model.controls
    m = states.n_points
    n_total = m + 1
    steps = time.steps
    n_atoms = model.noise.n_atoms

    table = isinstance(model.dynamics, TableDynamics)
    # valid: every state has a control, and a table has a slot for each
    u_max = model.dynamics.table.shape[2] if table else int(ctl.counts.max())
    nbytes = steps * n_total * u_max * n_atoms * 8
    if nbytes > TABLE_BYTES_GUARD:
        raise ModelError(
            f"transition table needs {_shown(nbytes)} bytes ({_shown(steps)} stages x "
            f"{n_total} states x {u_max} control slots x {n_atoms} atoms x 8 B), over the "
            f"guard of {TABLE_BYTES_GUARD} bytes"
        )

    n_ctrl = np.pad(ctl.counts, [(0, 0), (0, 1)], constant_values=1)  # the sink's dummy control
    if table:
        nxt = model.dynamics.table.copy()  # slots past a state's count are masked by n_ctrl
    else:
        nxt = _expr_table(model, u_max)

    return Tables(
        t0=time.t0,
        T=time.T,
        n_states=m,
        n_ctrl=np.broadcast_to(n_ctrl, (steps, n_total)),
        next_state=np.broadcast_to(nxt, (steps,) + nxt.shape[1:]),
        member=model.constraints.membership_matrix(time, states),
        probs=np.broadcast_to(model.noise.probs.astype(np.float64), (n_atoms,)),  # a read-only copy
    )


def _expr_table(model: Model, u_max: int) -> np.ndarray:
    """Successors of expression dynamics: one slab per stage, or one in all."""
    from . import expr as _expr

    asts = model.expr_trees
    states, noise, time, ctl = model.states, model.noise, model.time, model.controls
    once = ctl.kind != "per_stage_state" and not any("t" in _expr.variables(a) for a in asts)
    slabs = 1 if once else time.steps
    nxt = np.full((slabs, states.n_total, u_max, noise.n_atoms), states.sink, dtype=np.int64)
    # the control rows, one or one per stage, broadcast over the slabs
    vectors, counts = (np.broadcast_to(a, (slabs,) + a.shape[1:])
                       for a in (ctl.vectors, ctl.counts))
    for k in range(slabs):
        xs, js = np.nonzero(np.arange(u_max) < counts[k][:, None])
        shape = (xs.size, noise.n_atoms)
        bindings = _mesh_bindings(
            float(time.t0 + k),
            states.points[xs][:, None, :],
            vectors[k, xs, js][:, None, :],
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
    """Raise at the stage's first failing point in (x, u, w) order: a slice of the
    mesh fails when one of its points does, so prefixes of rows, then atoms, bisect it."""
    from . import expr as _expr

    mesh = {name: np.broadcast_to(v, shape) for name, v in bindings.items()}

    def failure(part):
        """The first error of the expressions, in order, on ``mesh[part]``, or None."""
        try:
            for ast in asts:
                _expr.evaluate(ast, {name: v[part] for name, v in mesh.items()})
        except _expr.EvalError as located:
            return located

    (rows, atoms), fails = shape, lambda part: failure(part) is not None
    a = bisect_left(range(rows), True, key=lambda a: fails(np.s_[: a + 1]))
    i = bisect_left(range(atoms), True, key=lambda i: fails(np.s_[a, : i + 1])) if a < rows else 0
    located = failure((a, i)) if a < rows and i < atoms else None
    t = _shown(t)  # t0 is read from the model file
    at = f"(t={t}, x={xs[a]}, u={js[a]}, w={i})" if located else f"t={t}"  # else no point fails
    raise ModelError(f"dynamics evaluation failed at {at}: {located or err}") from located or err
