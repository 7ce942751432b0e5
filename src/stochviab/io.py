"""File formats: model JSON, value/policy/kernel/trajectory CSV, estimates.

The model file is strict JSON with the exact field names documented in the
README; unknown fields are rejected.  Numeric CSV cells use 17 significant
digits, which round-trips IEEE doubles exactly; rows are emitted in a fixed
order (stage ascending, then state index) so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

from .dp import ArgmaxPolicy, ValueFunction, _policy_choice_array
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
        dynamics = ExprDynamics.parse(
            doc["dynamics"]["body"], (states.dim, controls.dim, noise.dim)
        )
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

    def to_payload(entry):
        if mode == "set":
            return [int(i) for i in entry]
        _require_keys(entry, "constraints box", {"lower", "upper"})
        return (entry["lower"], entry["upper"])

    if has_stat:
        return ConstraintSets(mode, stationary=to_payload(doc["stationary"]))
    return ConstraintSets(mode, per_stage=tuple(to_payload(e) for e in doc["per_stage"]))


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
    except ModelFormatError as err:
        raise ModelFormatError(f"{path}: {err}") from None


def save_model(model: Model, path: PathLike) -> None:
    doc = model_to_dict(model)
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


# --- value function CSV ---


def _coord_header(dim: int, prefix: str = "x") -> list[str]:
    return [f"{prefix}{i + 1}" for i in range(dim)]


def write_value_csv(vf: ValueFunction, path: PathLike) -> None:
    """One row per (stage, non-sink state); the sink always carries value 0."""
    dim = vf.points.shape[1]
    lines = [",".join(["t", "state_index", *_coord_header(dim), "value"])]
    for k in range(vf.table.shape[0]):
        t = vf.t0 + k
        for x in range(vf.n_states):
            coords = [_fmt(c) for c in vf.points[x]]
            lines.append(",".join([str(t), str(x), *coords, _fmt(vf.table[k, x])]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_value_csv(path: PathLike) -> ValueFunction:
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln]
    if not lines:
        raise ModelFormatError(f"{path}: empty value file")
    header = lines[0].split(",")
    if header[:2] != ["t", "state_index"] or header[-1] != "value" or len(header) < 4:
        raise ModelFormatError(f"{path}: unexpected value header {lines[0]!r}")
    dim = len(header) - 3

    rows = []
    for i, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != len(header):
            raise ModelFormatError(f"{path}: line {i}: {len(parts)} fields, expected {len(header)}")
        rows.append((int(parts[0]), int(parts[1]),
                     [float(c) for c in parts[2:2 + dim]], float(parts[-1])))

    stages = sorted({r[0] for r in rows})
    m = max(r[1] for r in rows) + 1
    t0, T = stages[0], stages[-1]
    if stages != list(range(t0, T + 1)):
        raise ModelFormatError(f"{path}: stages are not contiguous")

    points = np.zeros((m, dim))
    table = np.zeros((T - t0 + 1, m + 1))
    seen = np.zeros((T - t0 + 1, m), dtype=bool)
    for t, x, coords, value in rows:
        points[x] = coords
        table[t - t0, x] = value
        seen[t - t0, x] = True
    if not seen.all():
        raise ModelFormatError(f"{path}: missing (stage, state) rows")
    return ValueFunction(t0, T, points, table)


# --- policy / kernel / trajectory CSV ---


def write_argmax_csv(model: Model, argmax: ArgmaxPolicy, path: PathLike) -> None:
    """One row per maximizing control: t, state, slot, control coordinates."""
    ctl = model.controls
    lines = [",".join(["t", "state_index", "control_index", *_coord_header(ctl.dim, "u")])]
    ks, xs, js = np.nonzero(argmax.mask[:, : model.states.n_points])
    rows = np.broadcast_to(ctl.stage_rows(model.time), model.time.steps)
    coords = ctl.vectors[rows[ks], xs, js, : ctl.dim]
    for k, x, j, u in zip(ks.tolist(), xs.tolist(), js.tolist(), coords.tolist()):
        lines.append(",".join([str(argmax.t0 + k), str(x), str(j), *map(_fmt, u)]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_policy_csv(model: Model, policy: FeedbackPolicy, path: PathLike) -> None:
    """One row per (stage, non-sink state) with the selected control."""
    ctl, m = model.controls, model.states.n_points
    lines = [",".join(["t", "state_index", "control_index", *_coord_header(ctl.dim, "u")])]
    choice = _policy_choice_array(model, policy)[:, :m]
    rows = ctl.stage_rows(model.time)[:, None]  # broadcasts over the stages
    coords = ctl.vectors[rows, np.arange(m), choice, : ctl.dim]
    for k, (slots, us) in enumerate(zip(choice.tolist(), coords.tolist())):
        t = str(policy.t0 + k)
        for x, (j, u) in enumerate(zip(slots, us)):
            lines.append(",".join([t, str(x), str(j), *map(_fmt, u)]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_kernel_csv(slices: Iterable[KernelSlice], points: np.ndarray,
                     path: PathLike) -> None:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    lines = [",".join(["t", "beta", "state_index", *_coord_header(pts.shape[1])])]
    for sl in slices:
        for x in sl.members:
            coords = [_fmt(c) for c in pts[x]]
            lines.append(",".join([str(sl.t), _fmt(sl.beta), str(x), *coords]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_trajectories_csv(model: Model, states: np.ndarray, controls: np.ndarray,
                           success: np.ndarray, path: PathLike) -> None:
    """Sample paths, one row per (sample, stage).

    Sink rows leave the coordinate cells empty; terminal rows leave the
    control cell empty (no control acts at stage T).
    """
    m = model.states.n_points
    dim = model.states.dim
    t0 = model.time.t0
    steps = model.time.steps
    header = ",".join(["sample", "t", "state_index", *_coord_header(dim), "control_index", "success"])
    chunks = [header]
    empty_coords = [""] * dim
    for s in range(states.shape[0]):
        flag = str(int(success[s]))
        for k in range(steps + 1):
            x = int(states[s, k])
            coords = empty_coords if x == m else [_fmt(c) for c in model.states.points[x]]
            ctrl = "" if k == steps else str(int(controls[s, k]))
            chunks.append(",".join([str(s), str(t0 + k), str(x), *coords, ctrl, flag]))
    Path(path).write_text("\n".join(chunks) + "\n", encoding="utf-8")


def format_estimate(est: ProbabilityEstimate) -> str:
    """The single-line report: mean n ci_low ci_high seed."""
    return f"{_fmt(est.mean)} {est.n} {_fmt(est.ci_low)} {_fmt(est.ci_high)} {est.seed}"
