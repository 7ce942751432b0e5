"""Controlled stochastic system over a finite state grid.

A model bundles the horizon, the finite state space (closed by one absorbing
sink pseudo-state), per-stage admissible control lists, an i.i.d. finite
disturbance law, the dynamics (explicit transition table or coordinate
expressions projected back to the grid), and per-stage constraint sets whose
final stage acts as the target set.

Construction checks structural coherence (shapes, index ranges, one control
width, a control table row per stage) and raises :class:`ModelError` when the
object cannot even be stored.  Semantic invariants (probability normalization,
non-empty control lists, absorbing sink, ...) are reported by :func:`validate`,
which returns diagnostics instead of raising so that a flawed model file can
be inspected.
"""

from __future__ import annotations

import sys
from dataclasses import InitVar, dataclass, field
from functools import cached_property, partial
from itertools import chain, filterfalse
from typing import TYPE_CHECKING, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .expr import Ast

__all__ = [
    "ModelError",
    "InvalidModelError",
    "ExprSourceError",
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
    """Raised when a model with violations is compiled; ``violations`` lists them."""

    def __init__(self, violations: list[str]):
        super().__init__("invalid model: " + "; ".join(violations))
        self.violations = violations


class ExprSourceError(ModelError):
    """Expression ``index`` of an :class:`ExprDynamics` is not a string or
    does not parse under the model's dimensions; ``reason`` says which."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"expr dynamics: expression {index}: {reason}")
        self.index, self.reason = index, reason


_INT64 = range(-(2**63), 2**63)  # the stages that the CSV writers' int64 columns hold


@dataclass(frozen=True)
class TimeGrid:
    """Integer stages t0..T; controls act on t0..T-1, constraints on t0..T.
    Numpy integers are stored as ints; floats, bools and ints past 64 bits are refused."""

    t0: int
    T: int

    def __post_init__(self):
        for name in ("t0", "T"):
            value = getattr(self, name)
            if not (_is_int(value) and int(value) in _INT64):
                kind = "64-bit integers" if _is_int(value) else "integers"
                raise ModelError(f"TimeGrid stages must be {kind}, got {name}={_shown(value)}")
            object.__setattr__(self, name, int(value))
        if self.t0 >= self.T:
            raise ModelError(
                f"TimeGrid requires t0 < T, got t0={_shown(self.t0)}, T={_shown(self.T)}")

    @property
    def steps(self) -> int:
        return self.T - self.t0


@dataclass(frozen=True, eq=False)
class StateSpace:
    """Ordered grid points of ``dim >= 1`` coordinates plus one absorbing sink
    at index ``n_points``."""

    points: np.ndarray  # (m, dim) float64

    def __post_init__(self):
        pts = _as_floats(self.points, "StateSpace points")
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ModelError("StateSpace needs a non-empty (m, dim) point array")
        if pts.shape[1] == 0:
            raise ModelError(f"StateSpace needs points of at least one coordinate, "
                             f"got shape {pts.shape}")
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
        return min([np.inf, *(float(np.min(np.diff(v))) for v in self._index[0] if v.size >= 2)])

    @cached_property
    def _index(self) -> tuple[tuple, tuple, np.ndarray]:
        """``(axes, keys, first)``: each axis's sorted distinct values (each NaN its
        own), the sorted distinct keys ``code * axes[a].size + rank`` of axes 1.. (their
        ranks are the next codes, below ``n_points``), and each distinct point's first index."""
        axes, keys, first = [], [], np.zeros(1, dtype=np.int64)  # 0-d: one point
        unique = partial(np.unique, return_index=True, return_inverse=True)
        for col in self.points.T:
            vals, at, rank = unique(col, equal_nan=False)
            if axes:  # fold the ranks into the prefix codes, and re-rank them densely
                key, at, rank = unique(code * vals.size + rank)
                keys.append(key)
            axes.append(vals)
            first, code = at, rank
        return tuple(axes), tuple(keys), first


# The most characters of a text, or digits of an integer, that a diagnostic shows.
_SHOWN_CHARS = 200


def _shown(value, room: int = _SHOWN_CHARS) -> str:
    """The text of a value from outside the program in a diagnostic; it never raises.

    An integer is its text, so that ``"1"`` does not read as the number 1; past
    ``_SHOWN_CHARS`` digits it is ``integer of N digits``, and past the
    interpreter's limit on an integer's text ``integer of more than N digits``.
    A string is its ``repr``, or past ``_SHOWN_CHARS`` characters the ``repr``
    of its first ``_SHOWN_CHARS`` and ``...``.  A list or tuple is shown entry
    by entry; it and any other value's ``repr`` are cut to ``room`` characters
    and ``...``, and each nested list has less room, so nesting ends.
    """
    if _is_int(value):
        try:
            text = str(value)
        except ValueError:  # the interpreter refuses to write so many digits
            return f"integer of more than {sys.get_int_max_str_digits()} digits"
        digits = len(text.lstrip("-"))
        return text if digits <= _SHOWN_CHARS else f"integer of {digits} digits"
    if isinstance(value, str):
        return repr(value) if len(value) <= _SHOWN_CHARS else repr(value[:_SHOWN_CHARS]) + "..."
    if isinstance(value, (list, tuple)):
        parts, size = [], 1
        for entry in value:
            if size > room:  # the text is cut below
                break
            parts.append(_shown(entry, room - size))
            size += len(parts[-1]) + 2
        inner = ", ".join(parts) + ("," if type(value) is tuple and len(value) == 1 else "")
        text = f"[{inner}]" if isinstance(value, list) else f"({inner})"
    else:
        try:
            text = repr(value)
        except Exception:  # a container holding such an integer, or a broken __repr__
            text = f"<{type(value).__name__} object>"
    return text if len(text) <= room else text[:room] + "..."


def _check_x0(m: int, x0: int) -> int:
    """``x0`` as an int, if it is an integer naming one of the ``m`` non-sink states."""
    if not (_is_int(x0) and 0 <= x0 < m):
        raise ModelError(f"x0 must be a non-sink state index in 0..{m - 1}, got {_shown(x0)}")
    return int(x0)


def _check_beta(beta) -> None:
    """Refuse a ``beta`` that is not a number in (0, 1]."""
    if not (_is_number(type(beta)) and 0.0 < beta <= 1.0):
        raise ModelError(f"beta must lie in (0, 1], got {_shown(beta)}")


def _check_p(p) -> None:
    """Refuse a ``p`` that is not a number in (0, 1/2), the three-state example's exit weight."""
    if not (_is_number(type(p)) and 0.0 < p < 0.5):
        raise ModelError(f"p must lie in (0, 1/2), got {_shown(p)}")


def _check_index(t, t0: int, last: int, x=0, sink: int = 0) -> tuple[int, int]:
    """``(t - t0, x)`` as ints, if ``t`` is an integer stage in ``t0..last``
    and ``x`` an integer state in ``0..sink``, the sink included."""
    if not (_is_int(t) and t0 <= t <= last):
        raise ModelError(f"stage {_shown(t)} outside [{_shown(t0)}, {_shown(last)}]")
    if not (_is_int(x) and 0 <= x <= sink):
        raise ModelError(
            f"x must be a state index in 0..{sink} ({sink} is the sink), got {_shown(x)}")
    return int(t) - t0, int(x)


# Rows of points projected per chunk, so that each temporary holds at most
# about this many doubles.
_PROJECT_CHUNK = 1 << 17
# The offsets of a coordinate's two neighbour ranks from its insertion point.
_SIDES = np.array([[-1], [0]])


def project_to_grid(states: StateSpace, point) -> Union[int, np.ndarray]:
    """Nearest grid index for ``point``, or the sink when outside every cell.

    A point is inside some cell when its Euclidean distance to the nearest
    grid point is at most half the minimal grid spacing.  Ties go to the
    smallest index.  An ``(N, dim)`` array of points gives an int64 array of
    N indices, each equal to the single-point result of its row.  A grid with
    a non-finite point raises :class:`ModelError`.  Distances are measured in
    units of a power of two near the spacing, whatever the grid's scale.

    Only the ``2**dim`` points built from the values either side of each
    coordinate are measured (any other is ``min_spacing`` or more away),
    candidate-major, and with no key search where the grid holds every key.
    """
    pts = np.asarray(point, dtype=np.float64)
    single, pts = pts.ndim < 2, np.atleast_2d(pts)
    if pts.ndim > 2:
        raise ModelError(f"expected a point or an (N, dim) array, got shape {pts.shape}")
    if pts.shape[1] != states.dim:
        raise ModelError(f"point has dimension {pts.shape[1]}, state space has {states.dim}")
    axes, keys, first = states._index
    if not all(-np.inf < v[0] and v[-1] < np.inf for v in axes):  # NaN last
        raise ModelError("StateSpace: grid points must be finite")
    # each difference times 2**e, exactly: no square near the radius over- or underflows
    m, e = states.n_points, -int(np.frexp(states.min_spacing)[1])
    radius = np.ldexp(states.min_spacing, e) / 2
    narrow = 2 ** states.dim < m  # else a scan, which is no wider
    step = max(1, _PROJECT_CHUNK // ((2 ** states.dim if narrow else m) * max(1, states.dim)))
    out = np.empty(pts.shape[0], dtype=np.int64)
    with np.errstate(over="ignore"):  # a square that overflows is inf, outside the radius
        for lo in range(0, pts.shape[0], step):
            chunk = pts[lo : lo + step]
            if not narrow:
                cand = np.arange(m)[:, None]
            else:  # the candidates' codes, axis by axis, then each code's first point
                cand, count = np.zeros((1, len(chunk)), dtype=np.int64), 1
                for p, vals, known in zip(chunk.T, axes, (None,) + keys):
                    r = np.minimum(np.maximum(np.searchsorted(vals, p) + _SIDES, 0), vals.size - 1)
                    cand = ((cand * vals.size)[:, None] + r).reshape(-1, p.size)
                    if known is not None and known.size != count * vals.size:  # not every key
                        # a point's keys side by side, in ascending order: numpy's fastest search
                        cand = np.minimum(np.searchsorted(known, cand.T).T, known.size - 1)
                    count = vals.size if known is None else known.size
                cand = first.take(cand)
            # np.sum(np.ldexp(points - p, e) ** 2, axis=1) for each row p, in numpy's order
            d2 = np.sum(np.ldexp(states.points.take(cand, axis=0) - chunk, e) ** 2, axis=-1)
            best = d2.min(axis=0)
            i = np.where(d2 == best, cand, m).min(axis=0)  # the smallest index
            out[lo : lo + step] = np.where(best <= radius * radius, i, m)
    return int(out[0]) if single else out


@dataclass(frozen=True, eq=False)
class ControlMap:
    """Admissible control lists per (stage, state index).

    ``kind`` is one of ``"shared"`` (one list everywhere), ``"per_state"``
    (one list per state, stationary in time) or ``"per_stage_state"``
    (``data[k][x]`` at stage ``t0 + k`` of the model).  The sink always gets
    a singleton dummy control so closed-loop recursions never block there.

    The lists are stored once, at construction, as one zero-padded array:
    ``vectors[r, x, j]`` is control ``j`` of the ``counts[r, x]`` of state
    ``x`` in row ``r``.  ``per_stage_state`` controls have one row per stage
    and the others one row, so the rows broadcast over the stages; ``shared``
    controls are a broadcast view of their one list.  Every non-empty list
    holds vectors of ``dim >= 1`` coordinates, or :class:`ModelError` is raised.
    """

    kind: str
    data: InitVar[object]
    n_states: int
    vectors: np.ndarray = field(init=False)  # float64 (R, n_states, u_max, dim)
    counts: np.ndarray = field(init=False)  # int64 (R, n_states)

    def __post_init__(self, data):
        m = self.n_states
        if self.kind not in ("shared", "per_state", "per_stage_state"):
            raise ModelError(f"unknown ControlMap kind {_shown(self.kind)}")
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
        sized = counts > 0
        dim = int(widths[sized][0]) if sized.any() else 1
        odd = np.argwhere(sized & ((widths != dim) | (widths == 0)))
        if odd.size:
            r, x = odd[0].tolist()
            earlier = f", an earlier one {dim}" if widths[r, x] else ""
            raise ModelError(f"{self.kind} controls: the list at (row {r}, x={x}) holds "
                             f"vectors of {widths[r, x]} coordinates{earlier}")
        vectors = np.zeros(shapes.shape[:2] + (counts.max(initial=0), dim))
        for r, x in np.argwhere(sized).tolist():
            vectors[r, x, : counts[r, x]] = rows[r][x]
        if self.kind == "shared":
            vectors = np.broadcast_to(vectors, (1, m) + vectors.shape[2:])
            counts = np.broadcast_to(counts, (1, m))
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "counts", counts)

    def _repr_pretty_(self, p, cycle) -> None:
        p.text(repr(self))  # pretty-printers would print every init field, ``data`` too

    @classmethod
    def shared(cls, controls, n_states: int) -> "ControlMap":
        return cls("shared", controls, n_states)

    @classmethod
    def per_state(cls, lists, n_states: int) -> "ControlMap":
        return cls("per_state", lists, n_states)

    @classmethod
    def per_stage_state(cls, table, n_states: int) -> "ControlMap":
        return cls("per_stage_state", table, n_states)

    @property
    def dim(self) -> int:
        return self.vectors.shape[3]


def _is_int(value) -> bool:
    """Whether ``value`` is an integer: floats, strings and bools are not."""
    return _is_int_type(type(value))


def _is_int_type(t: type) -> bool:
    """Whether ``t`` is ``int`` or a numpy integer type, not ``bool``."""
    return t is int or issubclass(t, np.integer)


def _as_vector_list(entry, what: str) -> np.ndarray:
    arr = _as_floats(entry, what)
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
        probs = _as_floats(self.probs, "noise probabilities").reshape(-1)
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
        arr = _as_array(self.table, "dynamics table")
        if arr.ndim != 4:
            raise ModelError(f"dynamics table must be 4-d, got shape {arr.shape}")
        if arr.dtype.kind not in "iu":  # floats, strings and bools, which a cast would take
            raise ModelError(f"dynamics table entries of dtype {arr.dtype} are not integers")
        object.__setattr__(self, "table", arr.astype(np.int64, copy=False))

    @classmethod
    def from_nested(cls, nested, n_states: int, counts, n_atoms: int, steps: int
                    ) -> "TableDynamics":
        """Build a padded table from ``nested[t][x][u][w]`` over non-sink states.

        ``counts`` holds the admissible control count of each state, one value
        per state or one row per stage; ``nested[t][x]`` must list exactly
        that many control rows, so ``u_max`` is ``max(1, counts.max())``.
        Entries may use ``-1`` for the sink; the sink row is synthesized as
        absorbing, and control slots past a state's count hold the sink.
        A body that fails a check raises :class:`ModelError` for the first
        fault that a reading of its entries in file order meets (see
        :class:`_LevelWalk`).
        """
        counts = np.broadcast_to(np.asarray(counts, dtype=np.int64), (steps, n_states))
        u_max = max(1, int(counts.max(initial=0)))
        return _padded_table(_nested_rows(nested, n_states, counts, u_max, n_atoms, steps),
                             counts)


def _padded_table(rows: np.ndarray, counts: np.ndarray) -> TableDynamics:
    """The table of the control rows ``rows``, a ``(rows, n_atoms)`` array of
    entries in ``-1..n_states`` in (t, x, u) order, which lists ``counts[t, x]``
    rows for each stage and state.  ``-1`` becomes the sink; the sink row and
    the slots past a state's count hold the sink.  ``rows`` is changed."""
    steps, n_states = counts.shape
    u_max, sink = max(1, int(counts.max(initial=0))), n_states
    table = np.full((steps, n_states + 1, u_max, rows.shape[1]), sink, dtype=np.int64)
    listed = np.arange(u_max) < counts[..., None]  # the (t, x, u) slots of the rows
    rows[rows == -1] = sink
    table[:, :n_states][listed] = rows
    return TableDynamics(table)


def _is_number(t: type) -> bool:
    """Whether ``t`` is a type of number: ``int`` or ``float``, not ``bool``
    or ``str``, which ``np.asarray`` would convert too."""
    return t is int or t is float or issubclass(t, (np.integer, np.floating))


def _as_floats(value, what: str, error=ModelError) -> np.ndarray:
    """``value`` as a float64 array, if it holds numbers only (:func:`_is_number`): an
    array by its dtype, unless it holds objects, and nested lists (with any arrays in them)
    by a :class:`_LevelWalk`, which raises ``error`` for the first fault (a row of a length
    unlike its level's first, a leaf not a number).  The model parts' constructors and
    ``io.model_from_dict`` call it, each with its own ``what`` and ``error``."""
    if isinstance(value, np.ndarray) and value.dtype != object:
        if not _is_number(value.dtype.type):
            raise error(f"{what}: expected a number, got an array of dtype {value.dtype}")
        return np.asarray(value, dtype=np.float64)
    walk = _LevelWalk(value)
    while walk.items and all(isinstance(v, (list, tuple)) or getattr(v, "ndim", 0)
                             for v in walk.items):
        n = len(walk.items[0])
        walk.check(n.__eq__, len, lambda v, at: error(
            f"{what}: row {''.join(map('[{}]'.format, at))} has {len(v)} entries, "
            f"row {'[0]' * len(at)} has {n}"))
        walk.descend()
    walk.check(_is_number, type, lambda v, at: error(f"{what}: expected a number, got {_shown(v)}"))
    if walk.fault is not None:
        raise walk.fault
    try:
        return np.asarray(value, dtype=np.float64)
    except OverflowError:  # numbers in even rows: the largest is an integer past a double
        largest = _shown(max(filter(_is_int, walk.items), key=abs))
        raise error(f"{what}: {largest} is past the range of a double") from None


def _as_array(value, what: str, error=ModelError) -> np.ndarray:
    """``np.asarray(value)``; nested lists in rows of unequal length raise ``error``,
    and so does a list of integers with a bool among them, which numpy would read as
    0 or 1.  An array is taken as it is: its caller checks its dtype."""
    try:
        arr = np.asarray(value)
    except ValueError:  # numpy's "inhomogeneous shape"
        raise error(f"{what}: rows of unequal length") from None
    if arr.dtype.kind in "iu" and not isinstance(value, np.ndarray):
        walk = _LevelWalk(value)
        for _ in range(arr.ndim):
            walk.descend()
        walk.check(_is_int_type, type,
                   lambda v, at: error(f"{what}: expected an integer, got {_shown(v)}"))
        if walk.fault is not None:
            raise walk.fault
    return arr


def _first_refused(ok, key, *items):
    """The index of the first of ``map(key, *items)`` that ``ok`` refuses, or
    None.  ``ok`` sees each distinct key once, and only a refused key makes a
    second pass over the items."""
    refused = set(filterfalse(ok, set(map(key, *items))))
    if not refused:
        return None
    return int(np.fromiter(map(refused.__contains__, map(key, *items)), bool).argmax())


class _LevelWalk:
    """Nested lists checked a level at a time, for the first fault that a reading of
    the entries one by one, in file order, meets.  The checks of a level's ``items``
    (``[top]`` first) go in the order in which that reading checks an item.  One that
    fails keeps only the items before its first failure, so a fault that a later
    check finds lies earlier in the file and replaces it as ``fault``."""

    def __init__(self, top):
        self.levels, self.items, self.fault = [], [top], None

    def check(self, ok, key, error) -> None:
        """Keep the items before the first whose ``key`` ``ok`` refuses."""
        self.cut(_first_refused(ok, key, self.items), error)

    def cut(self, i, error) -> None:
        """Keep the items before item ``i``, if not None; ``error(item, path)`` names it."""
        if i is not None:
            self.fault, self.items = error(self.items[i], self.path(i)), self.items[:i]

    def descend(self) -> None:
        self.levels.append(self.items)
        self.items = list(chain.from_iterable(self.items))

    def path(self, i: int) -> list:
        """The indices that lead from ``top`` to item ``i`` of the level."""
        path = [i]
        for items in reversed(self.levels):
            ends = np.cumsum(np.fromiter(map(len, items), np.int64, len(items)))
            p = int(np.searchsorted(ends, path[0], "right"))
            path[:1] = [p, path[0] - int(ends[p]) + len(items[p])]
        return path[1:]


def _nested_rows(nested, n_states: int, counts: np.ndarray, u_max: int, n_atoms: int,
                 steps: int) -> np.ndarray:
    """The control rows of ``nested``, in (t, x, u) order, as one ``(rows, n_atoms)``
    int64 array of entries in ``-1..n_states``.  A :class:`_LevelWalk` raises the
    first fault of the levels (the body, stages, states, control rows, entries);
    the states' counts of control rows are checked once every level is whole."""
    def at(path: list) -> str:  # where ``path`` leads: the body, a stage, or a (t, x, u, w)
        return ("".join(map(" stage {}".format, path)) if len(path) < 2 else
                " at (" + ", ".join(map("{}={}".format, "txuw", path)) + ")")

    walk = _LevelWalk(nested)
    for what, ok, tail in (
        ("stages", lambda n: n == steps, f", expected {steps}"),
        ("states", lambda n: n == n_states, f", expected {n_states}"),
        ("control rows", lambda n: n <= u_max, f" exceed u_max={u_max}"),
        ("disturbance entries", lambda n: n == n_atoms, f", expected {n_atoms}"),
    ):
        walk.check(lambda t: issubclass(t, (list, tuple)), type, lambda v, p: ModelError(
            f"dynamics table{at(p)}: expected a list of {what}, got {_shown(v)}"))
        walk.check(ok, len, lambda v, p: ModelError(
            f"dynamics table{at(p)}: {len(v)} {what}{tail}"))
        walk.descend()
    # ``true`` would otherwise convert to 1
    walk.check(_is_int_type, type, lambda v, p: ModelError(
        f"dynamics table entry {_shown(v)}{at(p)} is not an integer"))
    try:
        entries = np.fromiter(walk.items, np.int64, len(walk.items))
    except OverflowError:  # an entry past int64 is out of range: compare the ints themselves
        entries = np.array(walk.items, dtype=object)
    out = (entries < -1) | (entries > n_states)
    walk.cut(int(out.argmax()) if out.any() else None,
             lambda v, p: ModelError(f"dynamics table entry {_shown(v)} out of range{at(p)}"))
    if walk.fault is not None:
        raise walk.fault
    n_rows = np.fromiter(map(len, walk.levels[2]), np.int64, counts.size)
    differ = n_rows != counts.ravel()
    if differ.any():
        i = int(differ.argmax())
        raise ModelError(f"dynamics table at (t={i // n_states}, x={i % n_states}): "
                         f"{n_rows[i]} control rows, expected {counts.flat[i]}")
    return entries.reshape(len(walk.levels[3]), n_atoms)


@dataclass(frozen=True, eq=False)
class ExprDynamics:
    """One arithmetic expression per state coordinate, projected to the grid.

    The trees are not kept here: their variables depend on the model's
    dimensions, so :class:`Model` parses the sources once (``Model.expr_trees``).
    """

    sources: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple(self.sources))


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
            raise ModelError(f"unknown constraint kind {_shown(self.kind)}")
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
            raise ModelError(f"set constraint: state index {_shown(bad[0])} is not an integer")
        return tuple(sorted({int(i) for i in payload}))
    lower, upper = payload
    lo = _as_floats(lower, "box constraint").reshape(-1)
    hi = _as_floats(upper, "box constraint").reshape(-1)
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
    # the parse of each ``ExprDynamics`` source under ``dims``; empty for tables
    expr_trees: tuple[Ast, ...] = field(init=False, repr=False, default=())

    def __post_init__(self):
        m = self.states.n_points
        if self.controls.n_states != m:
            raise ModelError(
                f"controls declare {self.controls.n_states} states, model has {m}"
            )
        rows = self.controls.counts.shape[0]
        if self.controls.kind == "per_stage_state" and rows != self.time.steps:
            raise ModelError(f"controls: {rows} stage rows, expected {self.time.steps}")
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
            from . import expr as _expr

            if len(self.dynamics.sources) != self.states.dim:
                raise ModelError(
                    f"expr dynamics: {len(self.dynamics.sources)} expressions for "
                    f"state dimension {self.states.dim}"
                )
            trees = []
            for i, source in enumerate(self.dynamics.sources):
                if not isinstance(source, str):
                    raise ExprSourceError(i, "expected a string")
                try:
                    trees.append(_expr.parse(source, self.dims))
                except _expr.ExprError as err:
                    raise ExprSourceError(i, str(err)) from None
            object.__setattr__(self, "expr_trees", tuple(trees))
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

    def admissible(self, t: int, x: int) -> np.ndarray:
        """Ordered (k, p) array of admissible control vectors at (t, x); the sink has one dummy."""
        k, x = _check_index(t, self.time.t0, self.time.T - 1, x, self.states.sink)
        ctl, r = self.controls, k if self.controls.kind == "per_stage_state" else 0
        if x == ctl.n_states:
            return np.zeros((1, ctl.dim))
        return ctl.vectors[r, x, : ctl.counts[r, x]]

    @cached_property
    def tables(self):
        from ._tables import build_tables

        return build_tables(self)


def validate(model: Model) -> list[str]:
    """Every invariant violation found; an empty list means all solvers may run."""
    out: list[str] = []
    time, m = model.time, model.states.n_points

    if model.states._index[2].size != m:
        out.append("StateSpace: grid points are not pairwise distinct")
    if not np.all(np.isfinite(model.states.points)):
        out.append("StateSpace: grid points must be finite")

    probs = model.noise.probs
    if not np.all(np.isfinite(probs)):
        out.append("DisturbanceLaw: probabilities must be finite")
    if np.any(probs < 0) or np.any(probs > 1):
        out.append("DisturbanceLaw: probabilities must lie in [0, 1]")
    total = float(np.sum(probs))
    if abs(total - 1.0) > 1e-12:
        out.append(
            f"DisturbanceLaw: probabilities sum to {_shown(total)}, "
            "expected 1 within 1e-12 (normalization)"
        )
    if not np.all(np.isfinite(model.noise.support)):
        out.append("DisturbanceLaw: support atoms must be finite")

    ctl = model.controls
    if not np.all(np.isfinite(ctl.vectors)):
        out.append("ControlMap: admissible control entries must be finite")
    # each stored row once: one row per stage, or one that every stage reads
    stages = partial(_stages, len(ctl.counts), time.t0, time.T - 1)
    for r, x in np.argwhere(ctl.counts == 0).tolist():
        out.append(f"ControlMap: empty admissible control list at (t={stages(r)}, x={x}); "
                   "a non-empty list is required")

    if isinstance(model.dynamics, TableDynamics):
        tab = model.dynamics.table
        if tab.shape[2] and not np.all(tab[:, m, :, :] == m):
            out.append("Dynamics: sink row is not absorbing (all transitions must stay at sink)")
        for r, x in np.argwhere(ctl.counts > tab.shape[2]).tolist():
            out.append(
                f"Dynamics: table has {tab.shape[2]} control slots at "
                f"(t={stages(r)}, x={x}) but {ctl.counts[r, x]} controls are admissible"
            )

    cons = model.constraints
    payloads = (cons.stationary,) if cons.per_stage is None else cons.per_stage
    for k, payload in enumerate(payloads):
        out.extend(_payload_faults(model, payload, _stages(len(payloads), 0, time.steps, k)))
    return out


def _stages(rows: int, first: int, last: int, r: int) -> str:
    """The stages of ``first..last`` that row ``r`` of ``rows`` stored rows
    holds: its own stage when each stage has a row, else all of them."""
    return _shown(first + r) if rows == last - first + 1 else f"{_shown(first)}..{_shown(last)}"


def _payload_faults(model: Model, payload, stages: str) -> list[str]:
    """Diagnostics of one constraint payload, which holds ``stages``."""
    if model.constraints.kind == "set":
        bad = [i for i in payload if not (0 <= i < model.states.n_points)]
        return [f"ConstraintSets: stage index {stages} references invalid state indices "
                f"{_shown(bad)} (the sink is never a member)"] if bad else []
    lo, hi = payload
    out = []
    if lo.shape[0] != model.states.dim:
        out.append(f"ConstraintSets: box at stage index {stages} has dimension {lo.shape[0]}, "
                   f"states have {model.states.dim}")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        out.append(f"ConstraintSets: box at stage index {stages} has non-finite bounds")
    return out


def make_three_state_example(p: float, t0: int = 0, T: int = 40) -> Model:
    """Bounded random walk on {-1, 0, 1}: dynamics x + u + w, controls {-1, 1}.

    The disturbance takes values -1 and 1 with probability ``p`` each and 0
    with probability 1 - 2p; every stage constrains the state to the grid
    itself, the final stage included.  Steps that leave the grid fall into
    the sink.  This model has a closed-form value function and kernel, see
    :mod:`stochviab.closed_form`.
    """
    _check_p(p)
    states = StateSpace(np.array([[-1.0], [0.0], [1.0]]))
    return Model(
        time=TimeGrid(t0, T),
        states=states,
        controls=ControlMap.shared(np.array([[-1.0], [1.0]]), states.n_points),
        noise=DisturbanceLaw(np.array([[-1.0], [0.0], [1.0]]), np.array([p, 1.0 - 2.0 * p, p])),
        dynamics=ExprDynamics(("x + u + w",)),
        constraints=ConstraintSets("set", stationary=(0, 1, 2)),
    )
