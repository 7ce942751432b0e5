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

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence, Union

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

    def coords(self, x: int) -> np.ndarray:
        if not (0 <= x < self.n_points):
            raise ModelError(f"state index {x} out of range (sink has no coordinates)")
        return self.points[x]

    @cached_property
    def min_spacing(self) -> float:
        """Smallest gap between distinct coordinate values over all axes."""
        best = np.inf
        for a in range(self.dim):
            vals = np.unique(self.points[:, a])
            if vals.size >= 2:
                best = min(best, float(np.min(np.diff(vals))))
        return best


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
    """

    kind: str
    data: object
    n_states: int
    t0: int = 0

    def __post_init__(self):
        if self.kind == "shared":
            arr = _as_vector_list(self.data, "controls")
            object.__setattr__(self, "data", arr)
        elif self.kind == "per_state":
            lists = [_as_vector_list(entry, "controls") for entry in self.data]
            if len(lists) != self.n_states:
                raise ModelError(
                    f"per_state controls: {len(lists)} lists for {self.n_states} states"
                )
            object.__setattr__(self, "data", tuple(lists))
        elif self.kind == "per_stage_state":
            table = []
            for row in self.data:
                entries = [_as_vector_list(entry, "controls") for entry in row]
                if len(entries) != self.n_states:
                    raise ModelError(
                        f"per_stage_state controls: row of {len(entries)} lists "
                        f"for {self.n_states} states"
                    )
                table.append(tuple(entries))
            object.__setattr__(self, "data", tuple(table))
        else:
            raise ModelError(f"unknown ControlMap kind {self.kind!r}")

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
        for lst in self._all_lists():
            if lst.size:
                return lst.shape[1]
        return 1

    def _all_lists(self) -> Iterable[np.ndarray]:
        if self.kind == "shared":
            yield self.data
        elif self.kind == "per_state":
            yield from self.data
        else:
            for row in self.data:
                yield from row

    def admissible(self, t: int, x: int) -> np.ndarray:
        """Ordered (k, p) array of admissible control vectors at (t, x)."""
        if x == self.n_states:  # sink: singleton dummy control
            return np.zeros((1, self.dim))
        if not (0 <= x < self.n_states):
            raise ModelError(f"state index {x} out of range")
        if self.kind == "shared":
            return self.data
        if self.kind == "per_state":
            return self.data[x]
        row = self.data[t - self.t0] if 0 <= t - self.t0 < len(self.data) else None
        if row is None:
            raise ModelError(f"no control table row for stage {t}")
        return row[x]


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
        if len(nested) != steps:
            raise ModelError(f"dynamics table: {len(nested)} stages, expected {steps}")
        for t, row in enumerate(nested):
            if len(row) != n_states:
                raise ModelError(
                    f"dynamics table stage {t}: {len(row)} states, expected {n_states}"
                )
            for x, per_u in enumerate(row):
                if len(per_u) > u_max:
                    raise ModelError(
                        f"dynamics table at (t={t}, x={x}): {len(per_u)} control rows "
                        f"exceed u_max={u_max}"
                    )
                for u, per_w in enumerate(per_u):
                    if len(per_w) != n_atoms:
                        raise ModelError(
                            f"dynamics table at (t={t}, x={x}, u={u}): "
                            f"{len(per_w)} disturbance entries, expected {n_atoms}"
                        )
                    for w, nxt in enumerate(per_w):
                        nxt = int(nxt)
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

    def payload(self, stage_idx: int):
        if self.stationary is not None:
            return self.stationary
        if not (0 <= stage_idx < len(self.per_stage)):
            raise ModelError(f"no constraint payload for stage index {stage_idx}")
        return self.per_stage[stage_idx]

    def membership_matrix(self, time: TimeGrid, states: StateSpace) -> np.ndarray:
        """Bool matrix (steps + 1, n_total); the sink column is always False."""
        out = np.zeros((time.steps + 1, states.n_total), dtype=bool)
        for k in range(time.steps + 1):
            payload = self.payload(k)
            if self.kind == "set":
                idx = [i for i in payload if 0 <= i < states.n_points]
                out[k, idx] = True
            else:
                lower, upper = payload
                inside = np.all(
                    (states.points >= lower) & (states.points <= upper), axis=1
                )
                out[k, : states.n_points] = inside
        return out


def _normalize_constraint_payload(kind: str, payload):
    if kind == "set":
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

    def constraint_member(self, t: int, x: int) -> bool:
        k = self.time.stage_index(t)
        return bool(self.tables.member[k, x])


def validate(model: Model) -> list[str]:
    """Every invariant violation found; an empty list means all solvers may run."""
    out: list[str] = []
    m = model.states.n_points

    pts = model.states.points
    if np.unique(pts, axis=0).shape[0] != m:
        out.append("StateSpace: grid points are not pairwise distinct")

    probs = model.noise.probs
    if np.any(probs < 0) or np.any(probs > 1):
        out.append("DisturbanceLaw: probabilities must lie in [0, 1]")
    total = float(np.sum(probs))
    if abs(total - 1.0) > 1e-12:
        out.append(
            f"DisturbanceLaw: probabilities sum to {total!r}, "
            "expected 1 within 1e-12 (normalization)"
        )

    dims_p = model.controls.dim
    for t in range(model.time.t0, model.time.T):
        for x in range(m):
            try:
                lst = model.controls.admissible(t, x)
            except ModelError as err:
                out.append(f"ControlMap: {err}")
                continue
            if lst.shape[0] == 0:
                out.append(
                    f"ControlMap: empty admissible control list at (t={t}, x={x}); "
                    "a non-empty list is required"
                )
            elif lst.shape[1] != dims_p:
                out.append(
                    f"ControlMap: control dimension {lst.shape[1]} at (t={t}, x={x}) "
                    f"differs from {dims_p}"
                )

    if isinstance(model.dynamics, TableDynamics):
        tab = model.dynamics.table
        if tab.shape[2] and not np.all(tab[:, m, :, :] == m):
            out.append("Dynamics: sink row is not absorbing (all transitions must stay at sink)")
        for t in range(model.time.t0, model.time.T):
            for x in range(m):
                need = model.controls.admissible(t, x).shape[0]
                if need > tab.shape[2]:
                    out.append(
                        f"Dynamics: table has {tab.shape[2]} control slots at "
                        f"(t={t}, x={x}) but {need} controls are admissible"
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

    if model.constraints.kind == "box":
        for k in range(model.time.steps + 1):
            lo, hi = model.constraints.payload(k)
            if lo.shape[0] != model.states.dim:
                out.append(
                    f"ConstraintSets: box at stage index {k} has dimension "
                    f"{lo.shape[0]}, states have {model.states.dim}"
                )
    else:
        for k in range(model.time.steps + 1):
            bad = [i for i in model.constraints.payload(k) if not (0 <= i < m)]
            if bad:
                out.append(
                    f"ConstraintSets: stage index {k} references invalid state "
                    f"indices {bad} (the sink is never a member)"
                )

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
