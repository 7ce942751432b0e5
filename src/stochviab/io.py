"""File formats: model JSON, value/policy/kernel/trajectory CSV, estimates.

The model file is strict JSON with the exact field names documented in the
README; unknown fields are rejected.  Numeric CSV cells use 17 significant
digits, which round-trips IEEE doubles exactly; rows are emitted in a fixed
order (stage ascending, then state index) so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import json
import sys
import warnings
from bisect import bisect_left
from itertools import chain, repeat
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence, Union

import numpy as np

from .dp import ArgmaxPolicy, ValueFunction, _check_stages, _policy_choice_array
from .kernel import FeedbackPolicy, KernelSlice
from .model import (
    ConstraintSets,
    ControlMap,
    DisturbanceLaw,
    ExprDynamics,
    ExprSourceError,
    Model,
    ModelError,
    StateSpace,
    TableDynamics,
    TimeGrid,
    _as_floats,
    _first_refused,
    _is_int,
    _padded_table,
    _shown,
)

if TYPE_CHECKING:  # pragma: no cover
    from .mc import ProbabilityEstimate

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


# A CSV file is assembled in chunks of rows of about this many bytes, so that
# a writer's buffers stay bounded for a file of any length.
_CHUNK_BYTES = 1 << 18
# Samples whose trajectory rows are indexed at once.
_SAMPLE_BLOCK = 256


def _codes(values) -> tuple[np.ndarray, np.ndarray]:
    """The CSV text of each entry, as ``(texts, index)``: ``texts`` is a
    NUL-padded bytes array of distinct texts, and ``texts[index]``, of the
    shape of ``values``, is each entry's text.

    Doubles are ``.17g``, each distinct one formatted once; they are keyed on
    their 64-bit pattern, because ``-0.0 == 0.0`` but they print ``-0`` and
    ``0``.  Integers and flags are decimal: from the texts of ``min..max``
    without a sort when that span is no wider than the column, as it is for a
    model's stages, states, control slots or samples; else, like doubles,
    from their distinct values.
    """
    a = np.asarray(values)
    if a.dtype.kind == "f":
        fmt = b"%.17g"
    else:
        a, fmt = a.astype(np.int64, copy=False), b"%d"
        lo, hi = (int(a.min()), int(a.max())) if a.size else (0, -1)
        if hi - lo < a.size:
            return _bytes_array(map(fmt.__mod__, range(lo, hi + 1))), a - lo
    numbers, index = _keyed(a)
    return _bytes_array(map(fmt.__mod__, numbers)), index


def _keyed(a: np.ndarray) -> tuple[list, np.ndarray]:
    """The distinct entries of the float or integer array ``a`` as Python
    numbers, and each entry's place among them, in the shape of ``a``.
    Doubles are keyed on their 64-bit pattern, because ``-0.0 == 0.0`` but
    they print apart."""
    kind = np.float64 if a.dtype.kind == "f" else np.int64
    uniq, inverse = np.unique(np.ascontiguousarray(a, kind).view(np.int64), return_inverse=True)
    # numpy 1.x returns the inverse flat, numpy 2.x in the shape of ``a``
    return uniq.view(kind).tolist(), inverse.reshape(a.shape)


def _bytes_array(texts: Iterable[bytes]) -> np.ndarray:
    """``texts`` as an ``S`` array exactly as wide as its longest text."""
    texts = list(texts)
    return np.array(texts, f"S{max(map(len, texts), default=1)}")


def _write_csv(path: PathLike, header: Sequence[str], parts: Iterable[Sequence[tuple]]) -> None:
    """The header line, then one line per row of each part's blocks, part by part.

    A part is a sequence of blocks.  Each block is a ``(texts, index)`` pair of
    :func:`_codes` whose ``index`` is ``(n,)`` for one column, or ``(n, k)``
    for ``k`` columns that share ``texts``.  The rows are laid out in a byte
    buffer with fixed columns: each cell's NUL-padded text, then its ``,`` or
    the row's ``\n``.  Dropping the NULs leaves the lines.  A writer whose
    index arrays would grow with the file passes its parts lazily, so that
    only one part's arrays are held at a time.
    """
    with Path(path).open("wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for blocks in parts:
            blocks = [(texts, index[:, None] if index.ndim == 1 else index)
                      for texts, index in blocks]
            n = len(blocks[0][1])
            width = sum((texts.itemsize + 1) * index.shape[1] for texts, index in blocks)
            step = max(1, _CHUNK_BYTES // width)
            buf = np.empty((min(n, step), width), np.uint8)
            for lo in range(0, n, step):
                rows, start = buf[: min(step, n - lo)], 0
                for texts, index in blocks:
                    k, w = index.shape[1], texts.itemsize
                    cells = rows[:, start : start + k * (w + 1)].reshape(len(rows), k, w + 1)
                    cell_texts = texts.take(index[lo : lo + len(rows)])
                    cells[:, :, :w].view(texts.dtype)[:, :, 0] = cell_texts
                    cells[:, :, w] = ord(",")
                    start += k * (w + 1)
                rows[:, -1] = ord("\n")
                fh.write(rows[rows != 0])


class _Object(dict):
    """A JSON object of a model file, with the names it repeats in ``repeated``."""

    __slots__ = ("repeated",)


def _json_object(pairs: list) -> _Object:
    """The object of ``json.loads``'s ``pairs``, which would keep a repeated name's last value."""
    obj, seen = _Object(pairs), set()
    obj.repeated = ([] if len(obj) == len(pairs) else
                    [name for name, _ in pairs if name in seen or seen.add(name)])
    return obj


def _require_keys(obj: dict, where: str, required: set[str], optional: set[str] = frozenset()):
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{where}: expected an object")
    if getattr(obj, "repeated", None):
        raise ModelFormatError(f"{where}: duplicate field {_shown(obj.repeated[0])}")
    missing = required - obj.keys()
    if missing:
        raise ModelFormatError(f"{where}: missing field(s) {sorted(missing)}")
    unknown = obj.keys() - required - optional
    if unknown:
        raise ModelFormatError(f"{where}: unknown field(s) {_shown(sorted(unknown))}")


def _int(value, where: str) -> int:
    if not _is_int(value):
        raise ModelFormatError(f"{where}: expected an integer, got {_shown(value)}")
    return value


def model_from_dict(doc: dict) -> Model:
    _require_keys(doc, "model", {"time", "states", "controls", "noise", "dynamics", "constraints"})

    _require_keys(doc["time"], "time", {"t0", "T"})
    time = TimeGrid(_int(doc["time"]["t0"], "time.t0"), _int(doc["time"]["T"], "time.T"))

    _require_keys(doc["states"], "states", {"dim", "points"})
    dim = _int(doc["states"]["dim"], "states.dim")
    points = _as_floats(doc["states"]["points"], "states.points", ModelFormatError)
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2 or points.shape[1] != dim:
        raise ModelFormatError(
            f"states: points of shape {points.shape} do not match dim {_shown(dim)}")
    states = StateSpace(points)

    _require_keys(doc["controls"], "controls", {"mode", "lists"})
    cmode, lists = doc["controls"]["mode"], doc["controls"]["lists"]
    if cmode == "shared":
        controls = ControlMap.shared(_as_floats(lists, "controls", ModelFormatError),
                                     states.n_points)
    elif cmode == "per_state":
        if not isinstance(lists, list):
            raise ModelFormatError("controls: per_state lists must be a list")
        controls = ControlMap.per_state([_as_floats(lst, f"controls list {x}", ModelFormatError)
                                         for x, lst in enumerate(lists)], states.n_points)
    else:
        raise ModelFormatError(f"controls: unknown mode {_shown(cmode)}")

    _require_keys(doc["noise"], "noise", {"support", "probs"})
    noise = DisturbanceLaw(
        _as_floats(doc["noise"]["support"], "noise.support", ModelFormatError),
        _as_floats(doc["noise"]["probs"], "noise.probs", ModelFormatError),
    )

    _require_keys(doc["dynamics"], "dynamics", {"mode", "body"})
    dmode = doc["dynamics"]["mode"]
    if dmode == "expr":
        body = doc["dynamics"]["body"]
        if not isinstance(body, list):
            raise ModelFormatError("dynamics.body: expected a list of expressions")
        dynamics = ExprDynamics(body)
    elif dmode == "table":
        body = doc["dynamics"]["body"]
        shape = states.n_points, controls.counts[0], noise.n_atoms, time.steps
        # a callable reads the body that load_model cut out: no JSON value is one
        dynamics = body(*shape) if callable(body) else TableDynamics.from_nested(body, *shape)
    else:
        raise ModelFormatError(f"dynamics: unknown mode {_shown(dmode)}")

    constraints = _constraints_from_dict(doc["constraints"])
    try:
        return Model(time, states, controls, noise, dynamics, constraints)
    except ExprSourceError as err:
        raise ModelFormatError(f"dynamics.body[{err.index}]: {err.reason}") from None


def _constraints_from_dict(doc: dict) -> ConstraintSets:
    _require_keys(doc, "constraints", {"mode"}, {"stationary", "per_stage"})
    mode = doc["mode"]
    if mode not in ("set", "box"):
        raise ModelFormatError(f"constraints: unknown mode {_shown(mode)}")
    has_stat = "stationary" in doc
    if has_stat == ("per_stage" in doc):
        raise ModelFormatError("constraints: exactly one of stationary/per_stage required")

    def to_payload(entry, where: str):
        if mode == "set":
            if not isinstance(entry, list):
                raise ModelFormatError(f"{where}: expected a list of state indices")
            return [_int(i, f"{where}[{j}]") for j, i in enumerate(entry)]
        _require_keys(entry, where, {"lower", "upper"})
        return (_as_floats(entry["lower"], f"{where}.lower", ModelFormatError),
                _as_floats(entry["upper"], f"{where}.upper", ModelFormatError))

    if has_stat:
        payload = to_payload(doc["stationary"], "constraints.stationary")
        return ConstraintSets(mode, stationary=payload)
    per_stage = doc["per_stage"]
    if not isinstance(per_stage, list):
        raise ModelFormatError("constraints.per_stage: expected a list")
    return ConstraintSets(mode, per_stage=tuple(
        to_payload(e, f"constraints.per_stage[{k}]") for k, e in enumerate(per_stage)))


def model_to_dict(model: Model) -> dict:
    """The document of the file :func:`save_model` writes: ``json.loads`` of
    its text."""
    return json.loads("".join(_model_text(model)))


# Stands in for each number list in the document that _model_text encodes.
# No other string of a model's document holds a NUL (an expression's
# tokenizer refuses one), so the slots are the only places json writes
# "\u0000".
_SLOT = "\0"


def _model_doc(model: Model) -> tuple[dict, list]:
    """The model document with ``_SLOT`` for each number list, and the texts
    of those lists in document order, each an iterable of pieces.  A model
    the format cannot hold is refused here, by its first such part in document order."""
    ctl, cons = model.controls, model.constraints
    if ctl.kind == "per_stage_state":
        raise ModelFormatError("the model file format stores shared or per_state controls only")
    texts = []

    def float_list(values: np.ndarray, level: int, where: str, counts=None) -> str:
        # json would write a number not finite as NaN or Infinity, which no reader takes
        if not np.isfinite(values).all():
            at = np.argwhere(~np.isfinite(values))[0]
            raise ModelFormatError(f"{where}{''.join(map('[{}]'.format, at.tolist()))}: "
                                   f"{_shown(values[tuple(at)].item())} is not a JSON number; "
                                   "numbers must be finite")
        numbers, index = _keyed(values)
        names = np.array(list(map(float.__repr__, numbers)), dtype=object)
        texts.append(_number_lists(names, index[None], level, counts))
        return _SLOT

    def payload(p, level: int, where: str):
        """A constraint payload lying ``level`` deep in the document."""
        if cons.kind == "box":
            return {"lower": float_list(p[0], level + 1, f"{where}.lower"),
                    "upper": float_list(p[1], level + 1, f"{where}.upper")}
        # a set's state indices are distinct ints, each formatted once
        try:
            names = np.array(list(map(int.__repr__, p)), dtype=object)
        except ValueError:  # past the interpreter's limit on digits, which json's reader has too
            j = next(j for j, i in enumerate(p) if abs(i) >= 10 ** sys.get_int_max_str_digits())
            raise ModelFormatError(f"{where}[{j}]: {_shown(p[j])} is past the integers "
                                   "a JSON reader takes") from None
        texts.append(_number_lists(names, np.arange(len(p))[None], level))
        return _SLOT

    points = float_list(model.states.points, 2, "states.points")
    if ctl.kind == "shared":  # one list, broadcast to the states
        lists = float_list(ctl.vectors[0, 0, : ctl.counts[0, 0]], 2, "controls.lists")
    else:
        lists = float_list(ctl.vectors[0], 2, "controls.lists", ctl.counts[0])
    noise = {"support": float_list(model.noise.support, 2, "noise.support"),
             "probs": float_list(model.noise.probs, 2, "noise.probs")}

    if isinstance(model.dynamics, ExprDynamics):
        dynamics = {"mode": "expr", "body": list(model.dynamics.sources)}
    else:
        tab, counts = model.dynamics.table, ctl.counts[0]
        if counts.max() > tab.shape[2]:
            raise ModelFormatError(
                f"dynamics table has {tab.shape[2]} control slots, "
                f"but up to {counts.max()} controls are admissible"
            )
        m = model.states.n_points  # body[t][x][:counts[x]], the sink m written -1
        names = np.array([*map(int.__repr__, range(m)), "-1"], dtype=object)
        around = _json_list(["\0"] * model.time.steps, 2).split("\0")  # the list of the stages
        # one stage's text at a time, each one piece
        texts.append(_spliced(around, zip(_number_lists(names, tab[:, :m], 3, counts))))
        dynamics = {"mode": "table", "body": _SLOT}

    if cons.stationary is not None:
        constraints = {"mode": cons.kind,
                       "stationary": payload(cons.stationary, 2, "constraints.stationary")}
    else:
        constraints = {"mode": cons.kind, "per_stage": [
            payload(p, 3, f"constraints.per_stage[{k}]") for k, p in enumerate(cons.per_stage)]}

    return {
        "time": {"t0": model.time.t0, "T": model.time.T},
        "states": {"dim": model.states.dim, "points": points},
        "controls": {"mode": ctl.kind, "lists": lists},
        "noise": noise,
        "dynamics": dynamics,
        "constraints": constraints,
    }, texts


def _decoded(data: bytes, path: PathLike) -> str:
    """The text of the file ``path``, whose bytes are ``data``, its line ends
    untranslated; a byte that is not UTF-8 is named by its place in the file."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ModelFormatError(f"{path}: not UTF-8: {err.reason} at byte {err.start}") from None


def load_model(path: PathLike) -> Model:
    """The model of a model file: :func:`_written_table_model`'s, whose one
    check is that the model's text is the whole file, or else the model of
    ``json.loads`` and :func:`model_from_dict`, which name the first fault."""
    data = Path(path).read_bytes()
    model = _written_table_model(data)
    if model is not None:
        return model
    text = _decoded(data, path)

    def non_finite(name: str):
        raise ModelFormatError(f"{path}: {name} is not a JSON number; numbers must be finite")

    try:
        doc = json.loads(text, parse_constant=non_finite, object_pairs_hook=_json_object)
    except ModelFormatError:
        raise
    except ValueError as err:  # a JSONDecodeError, or an integer of over 4300 digits
        raise ModelFormatError(f"{path}: not valid JSON: {err}") from None
    except RecursionError:
        raise ModelFormatError(f"{path}: JSON nested too deeply to read") from None
    try:
        return model_from_dict(doc)
    except ModelError as err:  # schema and constructor errors alike name the file
        raise ModelFormatError(f"{path}: {err}") from None


# What precedes and follows a table body in the file save_model writes.  No
# JSON string holds a line end, so these are the document's own.
_BODY_HEAD = b'"mode": "table",\n    "body": '
_BODY_TAIL = b'\n  },\n  "constraints"'
# A body's integers apart: brackets and white space dropped, commas made spaces
_ENTRY_TEXT = bytes.maketrans(b",", b" "), b" \n[]"


def _written_table_model(data: bytes) -> Model | None:
    """The model of a file that holds a table body in the layout of
    :func:`save_model`, or None.

    The body is cut out of the bytes and the rest read by ``json.loads``, with
    a ``NaN`` in its place that stands for ``table``, which reads the body's
    integers by numpy in one pass and checks none of them.  The one check is
    that the pieces of :func:`_model_text` give back the whole file byte for
    byte: the file is then the one the writer makes of the model, so the model
    is the one :func:`model_from_dict` makes of the whole text.  Any fault, and
    any other byte, gives None, and the whole text is read again.
    """
    start, end = data.find(_BODY_HEAD), -1
    if start >= 0:
        start += len(_BODY_HEAD)
        end = data.rfind(_BODY_TAIL, start)  # constraints are the last field
    if end < 0:
        return None

    def table(n_states: int, counts: np.ndarray, n_atoms: int, steps: int) -> TableDynamics:
        counts = np.broadcast_to(np.asarray(counts, dtype=np.int64), (steps, n_states))
        n_rows = int(counts.sum())
        entries = np.zeros(0, np.int64)  # numpy reads a text of no number as [0]
        if n_rows * n_atoms:
            with warnings.catch_warnings():  # numpy 1.x warns of text it cannot read
                warnings.simplefilter("error")
                entries = np.fromstring(data[start:end].translate(*_ENTRY_TEXT), np.int64, sep=" ")
        return _padded_table(entries.reshape(n_rows, n_atoms), counts)

    try:
        doc = json.loads(data[:start].decode("utf-8") + "NaN" + data[end:].decode("utf-8"),
                         parse_constant=lambda name: table)
        model, at = model_from_dict(doc), 0
        for piece in _model_text(model):
            piece = piece.encode()
            if not data.startswith(piece, at):
                return None
            at += len(piece)
    except Exception:  # the whole text's reading names the fault, or its absence
        return None
    return model if at == len(data) else None


def save_model(model: Model, path: PathLike) -> None:
    """Write ``json.dumps(model_to_dict(model), indent=2)`` and a newline, one
    piece of :func:`_model_text` at a time."""
    pieces = _model_text(model)  # a model the format cannot hold is refused here
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(pieces)


def _model_text(model: Model) -> Iterator[str]:
    """The pieces of the model file's text: ``json.dumps(doc, indent=2)`` of
    the model document and a newline.

    ``json`` encodes only the document's skeleton, with ``_SLOT`` in place of
    each number list; each list's text is laid out by :func:`_number_lists`
    and put in its place, a table body one stage at a time, so that no more
    than one stage's text is held at once.  ``_model_doc``'s refusals raise
    in this call, before any piece is read.
    """
    doc, texts = _model_doc(model)
    pieces = json.dumps(doc, indent=2).split(json.dumps(_SLOT))
    pieces[-1] += "\n"
    return _spliced(pieces, texts)


def _spliced(pieces: list[str], parts: Iterable[Iterable[str]]) -> Iterator[str]:
    """``pieces``, with the pieces of one of ``parts`` between each two."""
    yield pieces[0]
    for part, piece in zip(parts, pieces[1:]):
        yield from part
        yield piece


def _json_list(items: list[str], level: int) -> str:
    """The text ``json.dumps(doc, indent=2)`` gives a list of the item texts
    that lies ``level`` lists and objects deep in ``doc``."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (level + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * level + "]"


def _number_lists(texts: np.ndarray, index: np.ndarray, level: int,
                  counts: np.ndarray = None) -> Iterator[str]:
    """The text ``json.dumps(doc, indent=2)`` gives each array ``index[k]``
    as nested lists of numbers that lie ``level`` lists and objects deep in
    ``doc``, ``texts[i]`` being the text of the number ``i``.  With
    ``counts``, list ``x`` of an array holds only its first ``counts[x]`` items.

    The arrays lay out the same lists, so the text of one is laid out once
    with a NUL in place of each entry and split at the NULs; each array's
    text is those pieces with its own entries' texts between them, in one join.
    """
    shape, ragged = index.shape[1:], counts is not None
    item = "\0"
    for axis in range(len(shape) - 1, int(ragged), -1):
        item = _json_list([item] * shape[axis], level + axis)
    items = ([_json_list([item] * n, level + 1) for n in counts.tolist()] if ragged
             else [item] * shape[0])
    pieces = _json_list(items, level).split("\0")
    text = [""] * (2 * len(pieces) - 1)
    text[::2] = pieces
    listed = np.arange(shape[1]) < counts[:, None] if ragged else ...  # the items listed
    for entries in index:
        text[1::2] = texts.take(entries[listed]).ravel().tolist()
        yield "".join(text)


# --- value function CSV ---


def _coord_header(dim: int, prefix: str = "x") -> list[str]:
    return [f"{prefix}{i + 1}" for i in range(dim)]


def write_value_csv(vf: ValueFunction, path: PathLike) -> None:
    """One row per (stage, non-sink state); the sink always carries value 0."""
    m = vf.n_states
    k, x = np.divmod(np.arange(vf.table.shape[0] * m), m)
    texts, coords = _codes(vf.points)
    _write_csv(path, ["t", "state_index", *_coord_header(vf.points.shape[1]), "value"],
               [[_codes(vf.t0 + k), _codes(x), (texts, coords[x]),
                 _codes(vf.table[:, :m].ravel())]])


def read_value_csv(path: PathLike) -> ValueFunction:
    """The value function of a file :func:`write_value_csv` writes, its rows
    in any order.

    The rows are read by columns: each distinct cell text is converted once,
    by ``int`` or ``float``, and the checks run on whole columns, in the
    order in which a walk in line order checks each row.  A check that fails
    keeps only the rows before its first failure; the later checks run on
    those, so a fault they find lies on an earlier line and replaces it.  The
    last fault found is raised, with its line number in the file, blank lines
    included; the checks of the whole file run only when no row fails.  A
    state's coordinates are those of its first row in line order.  Lines end
    in ``\n`` or ``\r\n``, so they are numbered as ``wc -l`` counts them.
    """
    text = _decoded(Path(path).read_bytes(), path)
    if "\r" in text:  # \r\n line ends; a lone \r stays in its line
        text = text.replace("\r\n", "\n")
    lines = text.split("\n")
    start = next((i for i, ln in enumerate(lines) if ln), len(lines))
    if start == len(lines):
        raise ModelFormatError(f"{path}: empty value file")
    header = lines[start].split(",")
    if header[:2] != ["t", "state_index"] or header[-1] != "value" or len(header) < 4:
        # the line is the whole file when its lines end in a lone \r
        raise ModelFormatError(f"{path}: unexpected value header {_shown(lines[start])}")

    n = len(header)
    rows = list(filter(None, lines[start + 1:]))
    if not rows:
        raise ModelFormatError(f"{path}: no value rows")
    fault = None  # (row, message) of the first fault found yet
    r = _first_refused((n - 1).__eq__, str.count, rows, repeat(","))
    if r is not None:
        fault, rows = (r, f"{rows[r].count(',') + 1} fields, expected {n}"), rows[:r]
    # the row texts, their join and the flat cell list are let go as soon as
    # they are used, so that each is alive beside the next one only
    n_rows, cells = len(rows), ",".join(rows)
    del lines, rows
    cells = cells.split(",") if n_rows else []
    texts = [cells[j::n] for j in range(n)]
    t_cells, x_cells, *coord_cells, value_cells = texts
    del cells

    def cut(bad: np.ndarray, message) -> None:
        """Keep the rows before the first of ``bad``; ``message(row)`` names its fault."""
        nonlocal fault, n_rows
        if bad[:n_rows].any():
            r = int(bad[:n_rows].argmax())
            fault, n_rows = (r, message(r)), r

    def line(r: int) -> str:
        return ",".join(column[r] for column in texts)

    (stage_of, bad_t), (x_of, bad_x) = _distinct(int, [t_cells]), _distinct(int, [x_cells])
    float_of, bad_f = _distinct(float, [*coord_cells, value_cells])
    cut(bad_t | bad_x | bad_f, lambda r: f"malformed number in {_shown(line(r))}")

    def column(convert: dict, texts: list, dtype) -> np.ndarray:
        return np.fromiter(map(convert.__getitem__, texts), dtype, n_rows)

    value = column(float_of, value_cells, np.float64)
    coords = np.stack([column(float_of, c, np.float64) for c in coord_cells], axis=1)

    def ranks(values: dict, texts: list) -> tuple[list, np.ndarray]:
        """The distinct values in order, and each row's rank among them, which
        is below the number of rows however far apart the values are."""
        order = sorted(set(values.values()))
        rank = dict(zip(order, range(len(order))))
        return order, column({s: rank[v] for s, v in values.items()}, texts, np.int64)

    (stages, k), (states, x) = ranks(stage_of, t_cells), ranks(x_of, x_cells)
    cut(~(np.isfinite(value) & np.isfinite(coords).all(axis=1)),
        lambda r: f"non-finite number in {_shown(line(r))}")
    cut(~((0.0 <= value) & (value <= 1.0)),
        lambda r: f"value {_shown(float(value[r]))} is not a probability in [0, 1]")
    cut(x < bisect_left(states, 0), lambda r: f"negative state_index {_shown(states[x[r]])}")
    # a file without repeats or gaps has one row per (stage, state) pair of ranks
    key, span = k * len(states) + x, len(stages) * len(states)
    if span != key.size or np.bincount(key, minlength=span).max(initial=0) > 1:
        again = np.ones(key.size, dtype=bool)
        again[np.unique(key, return_index=True)[1]] = False
        cut(again, lambda r: f"second row for (t={_shown(stages[k[r]])}, "
                             f"state_index={_shown(states[x[r]])})")
    first, inverse = np.unique(x, return_index=True, return_inverse=True)[1:]
    cut((coords != coords[first][inverse]).any(axis=1),
        lambda r: f"coordinates of state_index {_shown(states[x[r]])} differ from an earlier row")

    if fault is not None:
        numbered = np.flatnonzero(np.fromiter(map(bool, text.split("\n")), bool))
        raise ModelFormatError(f"{path}: line {numbered[fault[0] + 1] + 1}: {fault[1]}")
    t0, T, m = stages[0], stages[-1], states[-1] + 1
    if T - t0 + 1 != len(stages):  # distinct, so none is missing
        raise ModelFormatError(f"{path}: stages are not contiguous")
    if len(stages) * m != n_rows:  # the keys are distinct, so none is missing
        raise ModelFormatError(f"{path}: missing (stage, state) rows")
    # every state has a row at every stage, so its rank is its index
    table = np.zeros((T - t0 + 1, m + 1))
    table[k, x] = value
    return ValueFunction(t0, T, coords[first], table)


def _distinct(convert, columns: list[list[str]]) -> tuple[dict, np.ndarray]:
    """``convert`` of each distinct text of ``columns``, keyed by that text,
    and for each row whether one of its texts there is refused: by
    ``convert``, or, as the writer never makes it, for a character that is
    not ASCII, an ``_`` or whitespace, all of which ``int`` and ``float`` take."""
    values, failed = {}, set()
    for s in set(chain.from_iterable(columns)):
        try:
            if not s.isascii() or "_" in s or s.strip() != s:
                raise ValueError(s)
            values[s] = convert(s)
        except ValueError:
            failed.add(s)
    bad = np.zeros(len(columns[0]), dtype=bool)
    for column in columns if failed else ():
        bad |= np.fromiter(map(failed.__contains__, column), bool, len(column))
    return values, bad


# --- policy / kernel / trajectory CSV ---


def write_argmax_csv(model: Model, argmax: ArgmaxPolicy, path: PathLike) -> None:
    """One row per maximizing control: t, state, slot, control coordinates."""
    _check_stages(model, argmax, argmax.mask.shape[:2])
    _write_slots(model, path, *np.nonzero(argmax.mask[:, : model.states.n_points]))


def write_policy_csv(model: Model, policy: FeedbackPolicy, path: PathLike) -> None:
    """One row per (stage, non-sink state) with the selected control."""
    m = model.states.n_points
    choice = _policy_choice_array(model, policy)[:, :m]
    _write_slots(model, path, *np.divmod(np.arange(choice.size), m), choice.ravel())


def _write_slots(model: Model, path: PathLike, ks: np.ndarray, xs: np.ndarray,
                 js: np.ndarray) -> None:
    """The rows ``t, state_index, control_index, u1..up`` of the control slots
    ``js`` of the states ``xs`` at the stage indices ``ks``."""
    ctl = model.controls
    texts, coords = _codes(ctl.vectors)  # one row, or one per stage
    coords = np.broadcast_to(coords, (model.time.steps,) + coords.shape[1:])
    _write_csv(path, ["t", "state_index", "control_index", *_coord_header(ctl.dim, "u")],
               [[_codes(model.time.t0 + ks), _codes(xs), _codes(js), (texts, coords[ks, xs, js])]])


def write_kernel_csv(slices: Iterable[KernelSlice], points: np.ndarray,
                     path: PathLike) -> None:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    slices = list(slices)
    sizes = [len(sl.members) for sl in slices]
    xs = np.fromiter(chain.from_iterable(sl.members for sl in slices), np.int64)
    t_texts, t = _codes([sl.t for sl in slices])
    b_texts, beta = _codes([sl.beta for sl in slices])
    texts, coords = _codes(pts)
    _write_csv(path, ["t", "beta", "state_index", *_coord_header(pts.shape[1])],
               [[(t_texts, np.repeat(t, sizes)), (b_texts, np.repeat(beta, sizes)),
                 _codes(xs), (texts, coords[xs])]])


def write_trajectories_csv(model: Model, states: np.ndarray, controls: np.ndarray,
                           success: np.ndarray, path: PathLike) -> None:
    """Sample paths, one row per (sample, stage).

    Sink rows leave the coordinate cells empty; terminal rows leave the
    control cell empty (no control acts at stage T).  The rows are indexed
    ``_SAMPLE_BLOCK`` samples at a time, so memory beyond the paths stays
    bounded for any number of samples.
    """
    n, dim, steps = len(states), model.states.dim, model.time.steps
    (s_texts, s), (ok_texts, ok) = _codes(np.arange(n)), _codes(success)
    t_texts, t = _codes(model.time.t0 + np.arange(steps + 1))
    t = np.tile(t, min(n, _SAMPLE_BLOCK))
    # the sink's coordinates and the terminal control are an appended empty text
    p_texts, coords = _codes(model.states.points)
    p_texts, coords = np.append(p_texts, b""), np.vstack([coords, np.full((1, dim), len(p_texts))])

    def part(lo: int) -> list:
        hi = min(lo + _SAMPLE_BLOCK, n)
        xs = states[lo:hi, : steps + 1].ravel()
        c_texts, ctrl = _codes(controls[lo:hi, :steps])
        ctrl = np.hstack([ctrl, np.full((hi - lo, 1), len(c_texts))])
        return [(s_texts, np.repeat(s[lo:hi], steps + 1)), (t_texts, t[: len(xs)]), _codes(xs),
                (p_texts, coords[xs]), (np.append(c_texts, b""), ctrl.ravel()),
                (ok_texts, np.repeat(ok[lo:hi], steps + 1))]

    _write_csv(path, ["sample", "t", "state_index", *_coord_header(dim), "control_index", "success"],
               map(part, range(0, n, _SAMPLE_BLOCK)))


def format_estimate(est: ProbabilityEstimate) -> str:
    """The single-line report: mean n ci_low ci_high seed."""
    return f"{_fmt(est.mean)} {est.n} {_fmt(est.ci_low)} {_fmt(est.ci_high)} {est.seed}"
