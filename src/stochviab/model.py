"""Controlled stochastic system over a finite state grid.

A model bundles the horizon, the finite state space (closed by one absorbing
sink pseudo-state), per-stage admissible control lists, an i.i.d. finite
disturbance law, the dynamics (explicit transition table or coordinate
expressions projected back to the grid), and per-stage constraint sets whose
final stage acts as the target set.

Construction checks structural coherence (shapes, index ranges) and raises
:class:`ModelError` when the object cannot even be stored.  Semantic
invariants (probability normalization, non-empty control lists, absorbing
sink, ...) are reported by :func:`validate`, which returns diagnostics
instead of raising so that a flawed model file can be inspected.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from . import expr as _expr

__all__ = [
    "ModelError",
    "InvalidModelError",
    "TimeGrid",
    "StateSpace",
    "ControlMap",
    "DisturbanceLaw",
    "TableDynamics",
    "ExprDynamics",
    "Dynamics",
    "ConstraintSets",
    "Model",
    "validate",
    "project_to_grid",
    "make_three_state_example",
]


class ModelError(ValueError):
    """A model component is structurally unusable."""


class InvalidModelError(ModelError):
    """Raised by solvers when :func:`validate` reports violations."""

    def __init__(self, violations: list[str]):
        super().__init__("invalid model: " + "; ".join(violations))
        self.violations = violations


@dataclass(frozen=True)
class TimeGrid:
    """Integer stages t0..T; controls act on t0..T-1, constraints on t0..T."""

    t0: int
    T: int

    def __post_init__(self):
        if self.t0 >= self.T:
            raise ModelError(f"TimeGrid requires t0 < T, got t0={self.t0}, T={self.T}")

    @property
    def steps(self) -> int:
        return self.T - self.t0

    def stage_index(self, t: int, *, terminal: bool = True) -> int:
        """0-based index of stage ``t``; ``terminal=False`` excludes T."""
        hi = self.T if terminal else self.T - 1
        if not (self.t0 <= t <= hi):
            raise ModelError(f"stage {t} outside [{self.t0}, {hi}]")
        return t - self.t0


@dataclass(frozen=True, eq=False)
class StateSpace:
    """Ordered grid points plus one absorbing sink at index ``n_points``."""

    points: np.ndarray  # (m, dim) float64

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ModelError("StateSpace needs a non-empty (m, dim) point array")
        object.__setattr__(self, "points", pts)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def sink(self) -> int:
        return self.n_points

    @property
    def n_total(self) -> int:
        return self.n_points + 1

    @cached_property
    def min_spacing(self) -> float:
        """Smallest gap between distinct coordinate values over all axes."""
        best = np.inf
        for a in range(self.dim):
            vals = np.unique(self.points[:, a])
            if vals.size >= 2:
                best = min(best, float(np.min(np.diff(vals))))
        return best


def _check_x0(m: int, x0: int) -> int:
    """``x0`` as an int, if it names one of the ``m`` non-sink states."""
    if not (0 <= int(x0) < m):
        raise ModelError(f"x0 must be a non-sink state index in 0..{m - 1}, got {x0}")
    return int(x0)


# Rows of points projected per chunk, so that each temporary holds at most
# about this many doubles.
_PROJECT_CHUNK = 1 << 17


def project_to_grid(states: StateSpace, point) -> Union[int, np.ndarray]:
    """Nearest grid index for ``point``, or the sink when outside every cell.

    A point is inside some cell when its Euclidean distance to the nearest
    grid point is at most half the minimal grid spacing.  Ties go to the
    smallest index.  An ``(N, dim)`` array of points gives an int64 array of
    N indices, each equal to the single-point result of its row.
    """
    pts = np.asarray(point, dtype=np.float64)
    single = pts.ndim < 2
    if single:
        pts = pts.reshape(1, -1)
    if pts.ndim > 2:
        raise ModelError(f"expected a point or an (N, dim) array, got shape {pts.shape}")
    if pts.shape[1] != states.dim:
        raise ModelError(f"point has dimension {pts.shape[1]}, state space has {states.dim}")
    half = states.min_spacing / 2.0
    out = np.empty(pts.shape[0], dtype=np.int64)
    step = max(1, _PROJECT_CHUNK // states.points.size)
    for lo in range(0, pts.shape[0], step):
        chunk = pts[lo : lo + step]
        diff = np.empty((chunk.shape[0],) + states.points.shape)
        for a in range(states.dim):  # axis by axis: numpy is slow on a short inner axis
            np.subtract(states.points[:, a], chunk[:, a, None], out=diff[:, :, a])
        # np.sum((points - p) ** 2, axis=1) for each row p, in numpy's order
        d2 = np.sum(diff ** 2, axis=2)
        i = np.argmin(d2, axis=1)  # the first minimum: smallest index
        inside = d2[np.arange(i.size), i] <= half * half
        out[lo : lo + step] = np.where(inside, i, states.sink)
    return int(out[0]) if single else out


@dataclass(frozen=True, eq=False)
class ControlMap:
    """Admissible control lists per (stage, state index).

    ``kind`` is one of ``"shared"`` (one list everywhere), ``"per_state"``
    (one list per state, stationary in time) or ``"per_stage_state"``
    (full table ``data[t - t0][x]``).  The sink always gets a singleton
    dummy control so closed-loop recursions never block there.

    The lists are stored once, at construction, as one zero-padded array:
    ``vectors[r, x, j]`` is control ``j`` of state ``x`` in row ``r``, with
    ``counts[r, x]`` controls of ``widths[r, x]`` coordinates each.  There is
    one row per stage for ``per_stage_state`` controls and a single row
    otherwise; ``shared`` controls are a broadcast view of their one list.
    ``vectors[..., :dim]`` zero-fills a list narrower than ``dim`` and cuts a
    wider one.
    """

    kind: str
    data: InitVar[object]
    n_states: int
    t0: int = 0
    vectors: np.ndarray = field(init=False)  # float64 (R, n_states, u_max, w_max)
    counts: np.ndarray = field(init=False)  # int64 (R, n_states)
    widths: np.ndarray = field(init=False)  # int64 (R, n_states)

    def __post_init__(self, data):
        m = self.n_states
        if self.kind not in ("shared", "per_state", "per_stage_state"):
            raise ModelError(f"unknown ControlMap kind {self.kind!r}")
        if self.kind == "shared":
            rows = [[data]]  # one state, broadcast to every state below
        else:
            rows = [list(data)] if self.kind == "per_state" else [list(row) for row in data]
            for row in rows:
                if len(row) != m:
                    raise ModelError(f"{self.kind} controls: {len(row)} lists for {m} states")
        rows = [[_as_vector_list(entry, "controls") for entry in row] for row in rows]
        shapes = np.array([[a.shape for a in row] for row in rows], dtype=np.int64)
        shapes = shapes.reshape(len(rows), 1 if self.kind == "shared" else m, 2)
        counts, widths = shapes[..., 0], shapes[..., 1]
        u_max, w_max = counts.max(initial=0), max(1, widths.max(initial=0))
        vectors = np.zeros(shapes.shape[:2] + (u_max, w_max))
        for r, row in enumerate(rows):
            for x, a in enumerate(row):
                vectors[r, x, : a.shape[0], : a.shape[1]] = a
        if self.kind == "shared":
            vectors = np.broadcast_to(vectors, (1, m) + vectors.shape[2:])
            counts, widths = (np.broadcast_to(a, (1, m)) for a in (counts, widths))
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "widths", widths)

    def _repr_pretty_(self, p, cycle) -> None:
        p.text(repr(self))  # pretty-printers would print every init field, ``data`` too

    @classmethod
    def shared(cls, controls, n_states: int) -> "ControlMap":
        return cls("shared", controls, n_states)

    @classmethod
    def per_state(cls, lists, n_states: int) -> "ControlMap":
        return cls("per_state", lists, n_states)

    @classmethod
    def per_stage_state(cls, table, n_states: int, t0: int = 0) -> "ControlMap":
        return cls("per_stage_state", table, n_states, t0)

    @cached_property
    def dim(self) -> int:
        """Width of the first non-empty list in (row, state) order, else 1."""
        sized = np.flatnonzero(self.counts * self.widths)
        return int(self.widths.flat[sized[0]]) if sized.size else 1

    def stage_rows(self, time: TimeGrid) -> np.ndarray:
        """Rows of ``vectors`` in force at stages t0..T-1, with -1 where a
        ``per_stage_state`` table has no row for the stage.  The stationary
        kinds give the single entry ``[0]``, which broadcasts over the stages."""
        if self.kind != "per_stage_state":
            return np.zeros(1, dtype=np.int64)
        r = np.arange(time.t0, time.T) - self.t0
        return np.where((r >= 0) & (r < self.counts.shape[0]), r, -1)

    def admissible(self, t: int, x: int) -> np.ndarray:
        """Ordered (k, p) array of admissible control vectors at (t, x)."""
        if x == self.n_states:  # sink: singleton dummy control
            return np.zeros((1, self.dim))
        if not (0 <= x < self.n_states):
            raise ModelError(f"state index {x} out of range")
        r = 0
        if self.kind == "per_stage_state":
            r = t - self.t0
            if not (0 <= r < self.counts.shape[0]):
                raise ModelError(f"no control table row for stage {t}")
        return self.vectors[r, x, : self.counts[r, x], : self.widths[r, x]]


def _is_int(value) -> bool:
    """Whether ``value`` is an integer: floats, strings and bools are not."""
    return type(value) is int or isinstance(value, np.integer)


def _as_vector_list(entry, what: str) -> np.ndarray:
    arr = np.asarray(entry, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ModelError(f"{what}: expected a list of vectors, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class DisturbanceLaw:
    """Finite stationary marginal: support vectors and aligned probabilities."""

    support: np.ndarray  # (W, q)
    probs: np.ndarray  # (W,)

    def __post_init__(self):
        sup = _as_vector_list(self.support, "noise support")
        probs = np.asarray(self.probs, dtype=np.float64).reshape(-1)
        if probs.shape[0] != sup.shape[0]:
            raise ModelError(
                f"noise: {sup.shape[0]} support atoms but {probs.shape[0]} probabilities"
            )
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "probs", probs)

    @property
    def n_atoms(self) -> int:
        return self.support.shape[0]

    @property
    def dim(self) -> int:
        return self.support.shape[1]

    @cached_property
    def cdf(self) -> np.ndarray:
        return np.cumsum(self.probs)


@dataclass(frozen=True, eq=False)
class TableDynamics:
    """Explicit map (stage, state, control slot, disturbance) -> state index.

    ``table`` has shape (steps, n_states + 1, u_max, W) with entries in
    ``0..n_states`` where ``n_states`` denotes the sink.  Slots beyond the
    admissible control count of a state are ignored.
    """

    table: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.table, dtype=np.int64)
        if arr.ndim != 4:
            raise ModelError(f"dynamics table must be 4-d, got shape {arr.shape}")
        object.__setattr__(self, "table", arr)

    @classmethod
    def from_nested(cls, nested, n_states: int, u_max: int, n_atoms: int, steps: int
                    ) -> "TableDynamics":
        """Build a padded table from ``nested[t][x][u][w]`` over non-sink states.

        Entries may use ``-1`` for the sink; the sink row is synthesized as
        absorbing, and unused control slots are padded with the sink.
        """
        sink = n_states
        table = np.full((steps, n_states + 1, u_max, n_atoms), sink, dtype=np.int64)

        def not_list(value, where: str, items: str) -> ModelError:
            return ModelError(f"dynamics table{where}: expected a list of {items}, got {value!r}")

        if not isinstance(nested, (list, tuple)):
            raise not_list(nested, "", "stages")
        if len(nested) != steps:
            raise ModelError(f"dynamics table: {len(nested)} stages, expected {steps}")
        for t, row in enumerate(nested):
            if not isinstance(row, (list, tuple)):
                raise not_list(row, f" stage {t}", "states")
            if len(row) != n_states:
                raise ModelError(
                    f"dynamics table stage {t}: {len(row)} states, expected {n_states}"
                )
            for x, per_u in enumerate(row):
                if not isinstance(per_u, (list, tuple)):
                    raise not_list(per_u, f" at (t={t}, x={x})", "control rows")
                if len(per_u) > u_max:
                    raise ModelError(
                        f"dynamics table at (t={t}, x={x}): {len(per_u)} control rows "
                        f"exceed u_max={u_max}"
                    )
                for u, per_w in enumerate(per_u):
                    if not isinstance(per_w, (list, tuple)):
                        raise not_list(per_w, f" at (t={t}, x={x}, u={u})", "disturbance entries")
                    if len(per_w) != n_atoms:
                        raise ModelError(
                            f"dynamics table at (t={t}, x={x}, u={u}): "
                            f"{len(per_w)} disturbance entries, expected {n_atoms}"
                        )
                    for w, nxt in enumerate(per_w):
                        if not _is_int(nxt):
                            raise ModelError(
                                f"dynamics table entry {nxt!r} at (t={t}, x={x}, u={u}, "
                                f"w={w}) is not an integer"
                            )
                        if nxt == -1:
                            nxt = sink
                        if not (0 <= nxt <= sink):
                            raise ModelError(
                                f"dynamics table entry {nxt} out of range at "
                                f"(t={t}, x={x}, u={u}, w={w})"
                            )
                        table[t, x, u, w] = nxt
        return cls(table)


@dataclass(frozen=True, eq=False)
class ExprDynamics:
    """One arithmetic expression per state coordinate, projected to the grid."""

    sources: tuple[str, ...]
    asts: tuple[_expr.Ast, ...] = field(default=())

    @classmethod
    def parse(cls, sources: Sequence[str], dims: tuple[int, int, int]) -> "ExprDynamics":
        srcs = tuple(str(s) for s in sources)
        if len(srcs) != dims[0]:
            raise ModelError(
                f"expr dynamics: {len(srcs)} expressions for state dimension {dims[0]}"
            )
        return cls(srcs, tuple(_expr.parse(s, dims) for s in srcs))


Dynamics = Union[TableDynamics, ExprDynamics]


@dataclass(frozen=True, eq=False)
class ConstraintSets:
    """Per-stage state membership: explicit index sets or coordinate boxes.

    ``kind`` is ``"set"`` or ``"box"``.  ``stationary`` holds one payload used
    at every stage; otherwise ``per_stage`` holds T - t0 + 1 payloads for
    t0..T.  A set payload is an iterable of state indices; a box payload is a
    ``(lower, upper)`` pair of per-dimension bounds.  The sink is never a
    member.  The payload at stage T is the target set.
    """

    kind: str
    stationary: object = None
    per_stage: tuple = None

    def __post_init__(self):
        if self.kind not in ("set", "box"):
            raise ModelError(f"unknown constraint kind {self.kind!r}")
        if (self.stationary is None) == (self.per_stage is None):
            raise ModelError("constraints need exactly one of stationary/per_stage")
        norm = _normalize_constraint_payload
        if self.stationary is not None:
            object.__setattr__(self, "stationary", norm(self.kind, self.stationary))
        else:
            object.__setattr__(
                self, "per_stage", tuple(norm(self.kind, p) for p in self.per_stage)
            )

    def membership_matrix(self, time: TimeGrid, states: StateSpace) -> np.ndarray:
        """Read-only bool matrix (steps + 1, n_total); the sink column is always False."""
        payloads = self.per_stage if self.stationary is None else (self.stationary,)
        rows = np.array([self._member_row(p, states) for p in payloads])
        # a stationary row is computed once and broadcast over the stages
        return np.broadcast_to(rows, (time.steps + 1, states.n_total))

    def _member_row(self, payload, states: StateSpace) -> np.ndarray:
        out = np.zeros(states.n_total, dtype=bool)
        if self.kind == "set":
            out[[i for i in payload if 0 <= i < states.n_points]] = True
        else:
            lower, upper = payload
            out[: states.n_points] = np.all(
                (states.points >= lower) & (states.points <= upper), axis=1
            )
        return out


def _normalize_constraint_payload(kind: str, payload):
    if kind == "set":
        bad = [i for i in payload if not _is_int(i)]
        if bad:
            raise ModelError(f"set constraint: state index {bad[0]!r} is not an integer")
        return tuple(sorted({int(i) for i in payload}))
    lower, upper = payload
    lo = np.asarray(lower, dtype=np.float64).reshape(-1)
    hi = np.asarray(upper, dtype=np.float64).reshape(-1)
    if lo.shape != hi.shape:
        raise ModelError("box constraint: lower/upper must have equal length")
    return (lo, hi)


@dataclass(frozen=True, eq=False)
class Model:
    """Immutable bundle of all system data; safe for concurrent reads."""

    time: TimeGrid
    states: StateSpace
    controls: ControlMap
    noise: DisturbanceLaw
    dynamics: Dynamics
    constraints: ConstraintSets

    def __post_init__(self):
        m = self.states.n_points
        if self.controls.n_states != m:
            raise ModelError(
                f"controls declare {self.controls.n_states} states, model has {m}"
            )
        if isinstance(self.dynamics, TableDynamics):
            shape = self.dynamics.table.shape
            if shape[0] != self.time.steps or shape[1] != m + 1:
                raise ModelError(
                    f"dynamics table shape {shape} does not match "
                    f"{self.time.steps} steps and {m + 1} states"
                )
            if shape[3] != self.noise.n_atoms:
                raise ModelError(
                    f"dynamics table has {shape[3]} disturbance entries, "
                    f"noise has {self.noise.n_atoms}"
                )
            tab = self.dynamics.table
            if tab.size and (tab.min() < 0 or tab.max() > m):
                raise ModelError("dynamics table entries must lie in 0..n_states")
        else:
            if len(self.dynamics.sources) != self.states.dim:
                raise ModelError(
                    f"expr dynamics: {len(self.dynamics.sources)} expressions for "
                    f"state dimension {self.states.dim}"
                )
        if self.constraints.per_stage is not None:
            want = self.time.steps + 1
            if len(self.constraints.per_stage) != want:
                raise ModelError(
                    f"constraints: {len(self.constraints.per_stage)} stage payloads, "
                    f"expected {want}"
                )

    @property
    def dims(self) -> tuple[int, int, int]:
        """(state, control, disturbance) dimensions."""
        return (self.states.dim, self.controls.dim, self.noise.dim)

    @cached_property
    def tables(self):
        from ._tables import build_tables

        return build_tables(self)


def validate(model: Model) -> list[str]:
    """Every invariant violation found; an empty list means all solvers may run."""
    out: list[str] = []
    time, m = model.time, model.states.n_points

    pts = model.states.points
    if np.unique(pts, axis=0).shape[0] != m:
        out.append("StateSpace: grid points are not pairwise distinct")
    if not np.all(np.isfinite(pts)):
        out.append("StateSpace: grid points must be finite")

    probs = model.noise.probs
    if not np.all(np.isfinite(probs)):
        out.append("DisturbanceLaw: probabilities must be finite")
    if np.any(probs < 0) or np.any(probs > 1):
        out.append("DisturbanceLaw: probabilities must lie in [0, 1]")
    total = float(np.sum(probs))
    if abs(total - 1.0) > 1e-12:
        out.append(
            f"DisturbanceLaw: probabilities sum to {total!r}, "
            "expected 1 within 1e-12 (normalization)"
        )
    if not np.all(np.isfinite(model.noise.support)):
        out.append("DisturbanceLaw: support atoms must be finite")

    ctl = model.controls
    if not np.all(np.isfinite(ctl.vectors)):
        out.append("ControlMap: admissible control entries must be finite")
    rows = ctl.stage_rows(time)
    stage_row = np.broadcast_to(rows, time.steps)
    empty = ctl.counts == 0
    narrow = ~empty & (ctl.widths != ctl.dim)
    faulty = np.append(np.any(empty | narrow, axis=1), True)  # row -1 (none) is a fault
    for k in _stages(faulty[rows], time.steps):
        t, r = time.t0 + k, stage_row[k]
        for x in range(m):
            if r < 0:
                out.append(f"ControlMap: no control table row for stage {t}")
            elif empty[r, x]:
                out.append(
                    f"ControlMap: empty admissible control list at (t={t}, x={x}); "
                    "a non-empty list is required"
                )
            elif narrow[r, x]:
                out.append(
                    f"ControlMap: control dimension {ctl.widths[r, x]} at (t={t}, x={x}) "
                    f"differs from {ctl.dim}"
                )

    if isinstance(model.dynamics, TableDynamics):
        tab = model.dynamics.table
        if tab.shape[2] and not np.all(tab[:, m, :, :] == m):
            out.append("Dynamics: sink row is not absorbing (all transitions must stay at sink)")
        # row -1 (none) needs no slot; the table already holds every stage
        need = np.vstack([ctl.counts, np.zeros((1, m), dtype=np.int64)])[rows]
        need = np.broadcast_to(need, (time.steps, m))
        for k, x in np.argwhere(need > tab.shape[2]):
            out.append(
                f"Dynamics: table has {tab.shape[2]} control slots at "
                f"(t={time.t0 + k}, x={x}) but {need[k, x]} controls are admissible"
            )
    else:
        names = _expr.variable_names(model.dims)
        for i, ast in enumerate(model.dynamics.asts):
            used = _expr.variables(ast)
            unknown = used - names
            if unknown:
                out.append(
                    f"Dynamics: expression {i} uses undeclared variables {sorted(unknown)}"
                )

    cons = model.constraints
    if cons.stationary is None:
        for k, payload in enumerate(cons.per_stage):
            out.extend(_payload_faults(model, k, payload))
    elif _payload_faults(model, 0, cons.stationary):  # checked once, reported per stage
        for k in range(time.steps + 1):
            out.extend(_payload_faults(model, k, cons.stationary))
    return out


def _stages(flags: np.ndarray, steps: int):
    """Stage indices whose flag is set; a single flag holds at every stage."""
    if flags.size == 1:
        return range(steps) if flags[0] else range(0)
    return np.flatnonzero(flags).tolist()


def _payload_faults(model: Model, k: int, payload) -> list[str]:
    """Diagnostics of the constraint payload at stage index ``k``."""
    if model.constraints.kind == "set":
        bad = [i for i in payload if not (0 <= i < model.states.n_points)]
        if bad:
            return [
                f"ConstraintSets: stage index {k} references invalid state "
                f"indices {bad} (the sink is never a member)"
            ]
        return []
    lo, hi = payload
    out = []
    if lo.shape[0] != model.states.dim:
        out.append(
            f"ConstraintSets: box at stage index {k} has dimension "
            f"{lo.shape[0]}, states have {model.states.dim}"
        )
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        out.append(f"ConstraintSets: box at stage index {k} has non-finite bounds")
    return out


def make_three_state_example(p: float, t0: int = 0, T: int = 40) -> Model:
    """Bounded random walk on {-1, 0, 1}: dynamics x + u + w, controls {-1, 1}.

    The disturbance takes values -1 and 1 with probability ``p`` each and 0
    with probability 1 - 2p; every stage constrains the state to the grid
    itself, the final stage included.  Steps that leave the grid fall into
    the sink.  This model has a closed-form value function and kernel, see
    :mod:`stochviab.closed_form`.
    """
    if not (0.0 < p < 0.5):
        raise ModelError(f"p must lie in (0, 1/2), got {p}")
    states = StateSpace(np.array([[-1.0], [0.0], [1.0]]))
    return Model(
        time=TimeGrid(t0, T),
        states=states,
        controls=ControlMap.shared(np.array([[-1.0], [1.0]]), states.n_points),
        noise=DisturbanceLaw(
            np.array([[-1.0], [0.0], [1.0]]), np.array([p, 1.0 - 2.0 * p, p])
        ),
        dynamics=ExprDynamics.parse(["x + u + w"], (1, 1, 1)),
        constraints=ConstraintSets("set", stationary=(0, 1, 2)),
    )
