"""File formats: model JSON, value/policy/kernel/trajectory CSV, estimates.

The model file is strict JSON with the exact field names documented in the
README; unknown fields are rejected.  Numeric CSV cells use 17 significant
digits, which round-trips IEEE doubles exactly; rows are emitted in a fixed
order (stage ascending, then state index) so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

from .dp import ArgmaxPolicy, ValueFunction, _policy_choice_array
from .expr import ExprError, parse as parse_expr
from .kernel import FeedbackPolicy, KernelSlice
from .mc import ProbabilityEstimate
from .model import (
    ConstraintSets,
    ControlMap,
    DisturbanceLaw,
    ExprDynamics,
    Model,
    ModelError,
    StateSpace,
    TableDynamics,
    TimeGrid,
)

__all__ = [
    "ModelFormatError",
    "load_model",
    "save_model",
    "model_to_dict",
    "model_from_dict",
    "write_value_csv",
    "read_value_csv",
    "write_argmax_csv",
    "write_policy_csv",
    "write_kernel_csv",
    "write_trajectories_csv",
    "format_estimate",
]

PathLike = Union[str, Path]


class ModelFormatError(ModelError):
    """A model file violates the documented schema."""


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _cells(values) -> np.ndarray:
    """The CSV text of each entry, as an object array of the same shape:
    ``.17g`` for doubles, decimal for integers and flags.  Each distinct entry
    is formatted once; doubles are keyed on their 64-bit pattern, because
    ``-0.0 == 0.0`` but they print ``-0`` and ``0``.
    """
    a = np.asarray(values)
    floats = a.dtype.kind == "f"
    keys = np.ascontiguousarray(a, np.float64).view(np.int64) if floats else a.astype(np.int64)
    uniq, inverse = np.unique(keys, return_inverse=True)
    text = [_fmt(v) for v in uniq.view(np.float64)] if floats else list(map(str, uniq.tolist()))
    # numpy 1.x returns the inverse flat, numpy 2.x in the shape of ``keys``
    return np.array(text, dtype=object)[inverse.reshape(a.shape)]


def _write_csv(path: PathLike, header: Sequence[str], columns: Sequence) -> None:
    """The header line, then one line per row of the equal-length text ``columns``."""
    lines = map(",".join, zip(*columns))
    Path(path).write_text("\n".join([",".join(header), *lines]) + "\n", encoding="utf-8")


def _require_keys(obj: dict, where: str, required: set[str], optional: set[str] = frozenset()):
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{where}: expected an object")
    missing = required - obj.keys()
    if missing:
        raise ModelFormatError(f"{where}: missing field(s) {sorted(missing)}")
    unknown = obj.keys() - required - optional
    if unknown:
        raise ModelFormatError(f"{where}: unknown field(s) {sorted(unknown)}")


def _int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ModelFormatError(f"{where}: expected an integer, got {value!r}")
    return value


def _floats(value, where: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as err:
        raise ModelFormatError(f"{where}: expected numbers in equal-length rows ({err})") from None


def model_from_dict(doc: dict) -> Model:
    _require_keys(doc, "model", {"time", "states", "controls", "noise", "dynamics", "constraints"})

    _require_keys(doc["time"], "time", {"t0", "T"})
    time = TimeGrid(_int(doc["time"]["t0"], "time.t0"), _int(doc["time"]["T"], "time.T"))

    _require_keys(doc["states"], "states", {"dim", "points"})
    dim = _int(doc["states"]["dim"], "states.dim")
    points = _floats(doc["states"]["points"], "states.points")
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2 or points.shape[1] != dim:
        raise ModelFormatError(f"states: points of shape {points.shape} do not match dim {dim}")
    states = StateSpace(points)

    _require_keys(doc["controls"], "controls", {"mode", "lists"})
    cmode, lists = doc["controls"]["mode"], doc["controls"]["lists"]
    if cmode == "shared":
        controls = ControlMap.shared(_floats(lists, "controls"), states.n_points)
    elif cmode == "per_state":
        if not isinstance(lists, list):
            raise ModelFormatError("controls: per_state lists must be a list")
        controls = ControlMap.per_state(
            [_floats(lst, f"controls list {x}") for x, lst in enumerate(lists)], states.n_points
        )
    else:
        raise ModelFormatError(f"controls: unknown mode {cmode!r}")

    _require_keys(doc["noise"], "noise", {"support", "probs"})
    noise = DisturbanceLaw(
        _floats(doc["noise"]["support"], "noise.support"),
        _floats(doc["noise"]["probs"], "noise.probs"),
    )

    _require_keys(doc["dynamics"], "dynamics", {"mode", "body"})
    dmode = doc["dynamics"]["mode"]
    if dmode == "expr":
        body = doc["dynamics"]["body"]
        if not isinstance(body, list):
            raise ModelFormatError("dynamics.body: expected a list of expressions")
        sources = tuple(str(source) for source in body)
        dims = (states.dim, controls.dim, noise.dim)
        asts = []
        for i, source in enumerate(sources):
            try:
                asts.append(parse_expr(source, dims))
            except ExprError as err:
                raise ModelFormatError(f"dynamics.body[{i}]: {err}") from None
        dynamics = ExprDynamics(sources, tuple(asts))
    elif dmode == "table":
        u_max = max(1, int(controls.counts.max()))
        dynamics = TableDynamics.from_nested(
            doc["dynamics"]["body"], states.n_points, u_max, noise.n_atoms, time.steps
        )
    else:
        raise ModelFormatError(f"dynamics: unknown mode {dmode!r}")

    constraints = _constraints_from_dict(doc["constraints"])
    return Model(time, states, controls, noise, dynamics, constraints)


def _constraints_from_dict(doc: dict) -> ConstraintSets:
    _require_keys(doc, "constraints", {"mode"}, {"stationary", "per_stage"})
    mode = doc["mode"]
    if mode not in ("set", "box"):
        raise ModelFormatError(f"constraints: unknown mode {mode!r}")
    has_stat = "stationary" in doc
    has_per = "per_stage" in doc
    if has_stat == has_per:
        raise ModelFormatError("constraints: exactly one of stationary/per_stage required")

    def to_payload(entry, where: str):
        if mode == "set":
            if not isinstance(entry, list):
                raise ModelFormatError(f"{where}: expected a list of state indices")
            return [_int(i, f"{where}[{j}]") for j, i in enumerate(entry)]
        _require_keys(entry, where, {"lower", "upper"})
        return (_floats(entry["lower"], f"{where}.lower"),
                _floats(entry["upper"], f"{where}.upper"))

    if has_stat:
        payload = to_payload(doc["stationary"], "constraints.stationary")
        return ConstraintSets(mode, stationary=payload)
    per_stage = doc["per_stage"]
    if not isinstance(per_stage, list):
        raise ModelFormatError("constraints.per_stage: expected a list")
    return ConstraintSets(mode, per_stage=tuple(
        to_payload(e, f"constraints.per_stage[{k}]") for k, e in enumerate(per_stage)))


def model_to_dict(model: Model) -> dict:
    ctl = model.controls
    if ctl.kind == "shared":
        controls = {"mode": "shared", "lists": ctl.admissible(model.time.t0, 0).tolist()}
    elif ctl.kind == "per_state":
        lists = zip(ctl.vectors[0], ctl.counts[0], ctl.widths[0])
        controls = {"mode": "per_state", "lists": [v[:c, :w].tolist() for v, c, w in lists]}
    else:
        raise ModelFormatError(
            "the model file format stores shared or per_state controls only"
        )

    if isinstance(model.dynamics, ExprDynamics):
        dynamics = {"mode": "expr", "body": list(model.dynamics.sources)}
    else:
        m, tab = model.states.n_points, model.dynamics.table
        counts = ctl.counts[0].tolist()
        if max(counts) > tab.shape[2]:
            raise ModelFormatError(
                f"dynamics table has {tab.shape[2]} control slots, "
                f"but up to {max(counts)} controls are admissible"
            )
        body = [
            [per_u[:n] for per_u, n in zip(row, counts)]
            for row in np.where(tab == m, -1, tab)[:, :m].tolist()
        ]
        dynamics = {"mode": "table", "body": body}

    cons = model.constraints

    def payload(p):
        return list(p) if cons.kind == "set" else {"lower": p[0].tolist(), "upper": p[1].tolist()}

    if cons.stationary is not None:
        constraints = {"mode": cons.kind, "stationary": payload(cons.stationary)}
    else:
        constraints = {"mode": cons.kind, "per_stage": [payload(p) for p in cons.per_stage]}

    return {
        "time": {"t0": model.time.t0, "T": model.time.T},
        "states": {"dim": model.states.dim, "points": model.states.points.tolist()},
        "controls": controls,
        "noise": {
            "support": model.noise.support.tolist(),
            "probs": model.noise.probs.tolist(),
        },
        "dynamics": dynamics,
        "constraints": constraints,
    }


def load_model(path: PathLike) -> Model:
    text = Path(path).read_text(encoding="utf-8")

    def non_finite(name: str):
        raise ModelFormatError(f"{path}: {name} is not a JSON number; numbers must be finite")

    try:
        doc = json.loads(text, parse_constant=non_finite)
    except json.JSONDecodeError as err:
        raise ModelFormatError(f"{path}: not valid JSON: {err}") from None
    try:
        return model_from_dict(doc)
    except ModelError as err:  # schema and constructor errors alike name the file
        raise ModelFormatError(f"{path}: {err}") from None


def save_model(model: Model, path: PathLike) -> None:
    doc = model_to_dict(model)
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


# --- value function CSV ---


def _coord_header(dim: int, prefix: str = "x") -> list[str]:
    return [f"{prefix}{i + 1}" for i in range(dim)]


def write_value_csv(vf: ValueFunction, path: PathLike) -> None:
    """One row per (stage, non-sink state); the sink always carries value 0."""
    m = vf.n_states
    k, x = np.divmod(np.arange(vf.table.shape[0] * m), m)
    _write_csv(path, ["t", "state_index", *_coord_header(vf.points.shape[1]), "value"],
               [_cells(vf.t0 + k), _cells(x), *_cells(vf.points)[x].T,
                _cells(vf.table[:, :m]).ravel()])


def read_value_csv(path: PathLike) -> ValueFunction:
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln]
    if not lines:
        raise ModelFormatError(f"{path}: empty value file")
    header = lines[0].split(",")
    if header[:2] != ["t", "state_index"] or header[-1] != "value" or len(header) < 4:
        raise ModelFormatError(f"{path}: unexpected value header {lines[0]!r}")
    dim = len(header) - 3

    rows = {}  # (t, state_index) -> value
    coords_of = {}  # state_index -> coordinates, the same at every stage
    for i, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != len(header):
            raise ModelFormatError(f"{path}: line {i}: {len(parts)} fields, expected {len(header)}")
        try:
            t, x = int(parts[0]), int(parts[1])
            coords, value = [float(c) for c in parts[2:2 + dim]], float(parts[-1])
        except ValueError:
            raise ModelFormatError(f"{path}: line {i}: malformed number in {ln!r}") from None
        if not (math.isfinite(value) and all(map(math.isfinite, coords))):
            raise ModelFormatError(f"{path}: line {i}: non-finite number in {ln!r}")
        if not 0.0 <= value <= 1.0:
            raise ModelFormatError(
                f"{path}: line {i}: value {parts[-1]} is not a probability in [0, 1]")
        if x < 0:
            raise ModelFormatError(f"{path}: line {i}: negative state_index {x}")
        if (t, x) in rows:
            raise ModelFormatError(f"{path}: line {i}: second row for (t={t}, state_index={x})")
        if coords_of.setdefault(x, coords) != coords:
            raise ModelFormatError(
                f"{path}: line {i}: coordinates of state_index {x} differ from an earlier row")
        rows[t, x] = value
    if not rows:
        raise ModelFormatError(f"{path}: no value rows")

    stages = sorted({t for t, _ in rows})
    m = max(x for _, x in rows) + 1
    t0, T = stages[0], stages[-1]
    if stages != list(range(t0, T + 1)):
        raise ModelFormatError(f"{path}: stages are not contiguous")
    if len(rows) != len(stages) * m:  # the keys are distinct, so none is missing
        raise ModelFormatError(f"{path}: missing (stage, state) rows")

    points = np.array([coords_of[x] for x in range(m)])
    table = np.zeros((T - t0 + 1, m + 1))
    for (t, x), value in rows.items():
        table[t - t0, x] = value
    return ValueFunction(t0, T, points, table)


# --- policy / kernel / trajectory CSV ---


def write_argmax_csv(model: Model, argmax: ArgmaxPolicy, path: PathLike) -> None:
    """One row per maximizing control: t, state, slot, control coordinates."""
    ctl = model.controls
    ks, xs, js = np.nonzero(argmax.mask[:, : model.states.n_points])
    rows = np.broadcast_to(ctl.stage_rows(model.time), model.time.steps)
    coords = ctl.vectors[rows[ks], xs, js, : ctl.dim]
    _write_csv(path, ["t", "state_index", "control_index", *_coord_header(ctl.dim, "u")],
               [_cells(argmax.t0 + ks), _cells(xs), _cells(js), *_cells(coords).T])


def write_policy_csv(model: Model, policy: FeedbackPolicy, path: PathLike) -> None:
    """One row per (stage, non-sink state) with the selected control."""
    ctl, m = model.controls, model.states.n_points
    choice = _policy_choice_array(model, policy)[:, :m]
    rows = ctl.stage_rows(model.time)[:, None]  # broadcasts over the stages
    coords = ctl.vectors[rows, np.arange(m), choice, : ctl.dim].reshape(-1, ctl.dim)
    k, x = np.divmod(np.arange(choice.size), m)
    _write_csv(path, ["t", "state_index", "control_index", *_coord_header(ctl.dim, "u")],
               [_cells(policy.t0 + k), _cells(x), _cells(choice).ravel(), *_cells(coords).T])


def write_kernel_csv(slices: Iterable[KernelSlice], points: np.ndarray,
                     path: PathLike) -> None:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    slices = list(slices)
    sizes = [len(sl.members) for sl in slices]
    xs = np.fromiter(chain.from_iterable(sl.members for sl in slices), np.int64)
    _write_csv(path, ["t", "beta", "state_index", *_coord_header(pts.shape[1])],
               [np.repeat(_cells([sl.t for sl in slices]), sizes),
                np.repeat(_cells([sl.beta for sl in slices]), sizes),
                _cells(xs), *_cells(pts)[xs].T])


def write_trajectories_csv(model: Model, states: np.ndarray, controls: np.ndarray,
                           success: np.ndarray, path: PathLike) -> None:
    """Sample paths, one row per (sample, stage).

    Sink rows leave the coordinate cells empty; terminal rows leave the
    control cell empty (no control acts at stage T).
    """
    dim, steps = model.states.dim, model.time.steps
    s, k = np.divmod(np.arange(states.shape[0] * (steps + 1)), steps + 1)
    xs = states[:, : steps + 1].ravel()
    coords = np.vstack([_cells(model.states.points), np.full((1, dim), "", object)])
    ctrl = np.hstack([_cells(controls[:, :steps]), np.full((len(states), 1), "", object)])
    _write_csv(path, ["sample", "t", "state_index", *_coord_header(dim), "control_index", "success"],
               [_cells(s), _cells(model.time.t0 + k), _cells(xs), *coords[xs].T,
                ctrl.ravel(), _cells(success)[s]])


def format_estimate(est: ProbabilityEstimate) -> str:
    """The single-line report: mean n ci_low ci_high seed."""
    return f"{_fmt(est.mean)} {est.n} {_fmt(est.ci_low)} {_fmt(est.ci_high)} {est.seed}"
