"""Compiled tables of expression dynamics against the point-by-point build.

The reference below is the compile loop the array build replaced: the
scalar ``expr.evaluate`` at every (t, x, u, w) and a per-point nearest-grid
search.  The array build must give the same ``next_state`` and ``n_ctrl``
bit for bit, and raise the same error at the same point.
"""

from __future__ import annotations

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.vendor.pretty import pretty

from conftest import random_model, walk_model
from stochviab import expr, make_three_state_example
from stochviab.dp import TABLE_BYTES_GUARD
from stochviab.model import (
    ConstraintSets,
    ControlMap,
    DisturbanceLaw,
    ExprDynamics,
    InvalidModelError,
    Model,
    ModelError,
    StateSpace,
    TableDynamics,
    TimeGrid,
    project_to_grid,
    validate,
)


def reference_project(states: StateSpace, point) -> int:
    d2 = np.sum((states.points - np.asarray(point, dtype=np.float64)) ** 2, axis=1)
    i = int(np.argmin(d2))
    half = states.min_spacing / 2.0
    return i if d2[i] <= half * half else states.sink


def reference_bindings(t, coords, u_vec, w_vec, n, p, q) -> dict[str, float]:
    b = {"t": float(t)}
    for i in range(n):
        b[f"x{i + 1}"] = float(coords[i])
    for i in range(p):
        b[f"u{i + 1}"] = float(u_vec[i])
    for i in range(q):
        b[f"w{i + 1}"] = float(w_vec[i])
    if n == 1:
        b["x"] = b["x1"]
    if p == 1:
        b["u"] = b["u1"]
    if q == 1:
        b["w"] = b["w1"]
    return b


def reference_tables(model: Model) -> tuple[np.ndarray, np.ndarray]:
    """(n_ctrl, next_state) built one point at a time."""
    time, states, noise = model.time, model.states, model.noise
    m, steps = states.n_points, time.steps
    n, p, q = model.dims
    n_ctrl = np.ones((steps, m + 1), dtype=np.int64)
    lists = [[model.admissible(time.t0 + k, x) for x in range(m)]
             for k in range(steps)]
    for k in range(steps):
        for x in range(m):
            n_ctrl[k, x] = lists[k][x].shape[0]
    u_max = max(1, int(n_ctrl.max()))
    nxt = np.full((steps, m + 1, u_max, noise.n_atoms), m, dtype=np.int64)
    for k in range(steps):
        t = time.t0 + k
        for x in range(m):
            for j, u_vec in enumerate(lists[k][x]):
                for i, w_vec in enumerate(noise.support):
                    b = reference_bindings(t, states.points[x], u_vec, w_vec, n, p, q)
                    point = []
                    for ast in model.expr_trees:
                        try:
                            point.append(expr.evaluate(ast, b))
                        except expr.EvalError as err:
                            raise ModelError(
                                f"dynamics evaluation failed at (t={t}, x={x}, "
                                f"u={j}, w={i}): {err}"
                            ) from err
                    nxt[k, x, j, i] = reference_project(states, point)
    return n_ctrl, nxt


# Values on a lattice of quarters, so that successors often land exactly on a
# grid point or halfway between two of them.
_lattice = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0])
_consts = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 3.0])


def _asts(names):
    return st.recursive(
        st.one_of(_consts.map(expr.Num), st.sampled_from(sorted(names)).map(expr.Var)),
        lambda kids: st.one_of(
            st.tuples(st.sampled_from("+-*/^"), kids, kids).map(lambda a: expr.Binary(*a)),
            kids.map(lambda k: expr.Unary("-", k)),
            st.tuples(st.sampled_from(["min", "max"]), kids, kids).map(
                lambda a: expr.Call(a[0], (a[1], a[2]))
            ),
            kids.map(lambda k: expr.Call("abs", (k,))),
        ),
        max_leaves=6,
    )


def _vectors(draw, count, width):
    return [[draw(_lattice) for _ in range(width)] for _ in range(count)]


@st.composite
def grids(draw, n):
    if draw(st.booleans()):  # rectilinear
        axes = [sorted(draw(st.sets(_lattice, min_size=1, max_size=3))) for _ in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        points = np.stack(mesh, axis=-1).reshape(-1, n)
    else:  # scattered
        rows = draw(st.lists(st.tuples(*[_lattice] * n), min_size=1, max_size=8, unique=True))
        points = np.array(rows, dtype=np.float64).reshape(-1, n)
    return StateSpace(points)


@st.composite
def expr_models(draw):
    """``(controls, parts, refusal)``: ``ControlMap(*controls)`` and the other
    parts of a model, or the :class:`ModelError` text ``refusal`` with which
    ``ControlMap`` refuses control lists of mixed widths."""
    n, p, q = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    states = draw(grids(n))
    m = states.n_points
    t0 = draw(st.integers(-1, 1))
    steps = draw(st.integers(1, 3))

    def control_list():  # ragged lengths; vectors shorter than p are refused
        return _vectors(draw, draw(st.integers(1, 3)), draw(st.integers(1, p)))

    kind = draw(st.sampled_from(["shared", "per_state", "per_stage_state"]))
    width_first = _vectors(draw, draw(st.integers(1, 3)), p)  # fixes controls.dim = p
    if kind == "shared":
        rows, data = [[width_first]], width_first
    else:
        rows = [[width_first] + [control_list() for _ in range(m - 1)]
                for _ in range(1 if kind == "per_state" else steps)]
        data = rows[0] if kind == "per_state" else rows
    narrow = [(r, x, len(lst[0])) for r, row in enumerate(rows) for x, lst in enumerate(row)
              if len(lst[0]) != p]
    refusal = narrow and (f"{kind} controls: the list at (row {narrow[0][0]}, x={narrow[0][1]}) "
                          f"holds vectors of {narrow[0][2]} coordinates, an earlier one {p}")

    n_atoms = draw(st.integers(1, 3))
    noise = DisturbanceLaw(np.array(_vectors(draw, n_atoms, q)), np.full(n_atoms, 1.0 / n_atoms))

    names = expr.variable_names((n, p, q))
    sources = []
    for c in range(n):
        body = expr.to_source(draw(_asts(names)))
        # often x_c + a small term, so successors stay near the grid
        sources.append(f"x{c + 1} + ({body})" if draw(st.booleans()) else body)
    parts = dict(
        time=TimeGrid(t0, t0 + steps),
        states=states,
        noise=noise,
        dynamics=ExprDynamics(sources),
        constraints=ConstraintSets("set", stationary=tuple(range(m))),
    )
    return (kind, data, m), parts, refusal or None


@settings(max_examples=300, deadline=None)
@given(expr_models())
def test_array_build_matches_point_by_point_build(drawn):
    controls, parts, refusal = drawn
    if refusal:  # only lists of one width are stored
        with pytest.raises(ModelError, match="^" + re.escape(refusal) + "$"):
            ControlMap(*controls)
        return
    model = Model(controls=ControlMap(*controls), **parts)
    violations = validate(model)
    if violations:  # only a valid model compiles
        with pytest.raises(InvalidModelError) as got:
            model.tables
        assert got.value.violations == violations
        return
    try:
        want = reference_tables(model)
    except ModelError as err:
        with pytest.raises(ModelError) as got:
            model.tables
        assert str(got.value) == str(err)
        return
    n_ctrl, nxt = want
    assert np.array_equal(model.tables.n_ctrl, n_ctrl)
    assert model.tables.next_state.dtype == nxt.dtype
    assert np.array_equal(model.tables.next_state, nxt)


def test_a_falsifying_model_can_be_printed():
    """hypothesis prints a failing example with ``pretty``, which reads every
    init field; ``ControlMap.data`` is init-only."""
    assert "ControlMap(kind='shared'" in pretty(make_three_state_example(0.01))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 9).flatmap(
        lambda n: st.tuples(
            grids(n),
            st.lists(st.tuples(*[_lattice] * n), min_size=1, max_size=20),
        )
    )
)
def test_projection_of_rows_equals_single_points(case):
    states, rows = case
    points = np.array(rows, dtype=np.float64)
    got = project_to_grid(states, points)
    assert got.dtype == np.int64
    assert got.tolist() == [project_to_grid(states, p) for p in points]
    assert got.tolist() == [reference_project(states, p) for p in points]


@pytest.mark.parametrize("dim", [1, 3, 9])
def test_projection_across_chunks(dim):
    rng = np.random.default_rng(dim)
    states = StateSpace(rng.uniform(0.0, 50.0, size=(4000, dim)))
    points = rng.uniform(0.0, 50.0, size=(300, dim))
    points[::7] = states.points[:43]  # exact hits
    got = project_to_grid(states, points)
    assert got.tolist() == [reference_project(states, p) for p in points]
    assert isinstance(project_to_grid(states, points[0]), int)


# coordinates with uneven gaps (tiny ones included), lattice values among them
_coord = st.one_of(_lattice, st.floats(-4.0, 4.0, allow_nan=False))
# query coordinates off every grid: infinities, NaN and squares that overflow
_far = st.sampled_from([np.inf, -np.inf, np.nan, 1e200, -1e200])


@st.composite
def shuffled_grids(draw, n):
    """Tensor grids with uneven axes and shuffled rows, scattered point lists,
    and point lists with repeated rows; any of them may hold a single point."""
    kind = draw(st.sampled_from(["tensor", "scattered", "repeated"]))
    if kind == "tensor":
        size = 3 if n <= 4 else 2
        axes = [sorted(draw(st.sets(_coord, min_size=1, max_size=size))) for _ in range(n)]
        points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        return StateSpace(points[draw(st.permutations(range(len(points))))])
    rows = draw(st.lists(st.tuples(*[_coord] * n), min_size=1, max_size=8))
    if kind == "repeated":
        rows = draw(st.permutations(rows + draw(st.lists(st.sampled_from(rows), min_size=1,
                                                              max_size=4))))
    return StateSpace(np.array(rows, dtype=np.float64).reshape(-1, n))


@st.composite
def queries(draw, states):
    """Rows of exact hits, exact midpoints of two grid points and free
    coordinates, some with a far coordinate or two."""
    pts, n = states.points, states.dim
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        i, j = draw(st.integers(0, len(pts) - 1)), draw(st.integers(0, len(pts) - 1))
        kind = draw(st.sampled_from(["hit", "midpoint", "free"]))
        if kind == "free":
            row = np.array([draw(_coord) for _ in range(n)])
        else:
            row = pts[i].copy() if kind == "hit" else (pts[i] + pts[j]) / 2.0
        for a in draw(st.sets(st.integers(0, n - 1), max_size=2)):
            row[a] = draw(_far)
        rows.append(row)
    return np.array(rows)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 9)
    .flatmap(shuffled_grids)
    .flatmap(lambda states: st.tuples(st.just(states), queries(states)))
)
def test_projection_equals_a_scan_of_every_point(case):
    states, points = case
    gaps = [np.diff(np.unique(col)) for col in states.points.T]
    assert states.min_spacing == min((g.min() for g in gaps if g.size), default=np.inf)
    with np.errstate(over="ignore"):  # squares of far coordinates overflow to inf
        got = project_to_grid(states, points)
        want = [reference_project(states, p) for p in points]
    assert got.tolist() == want



def _uneven_axis(rng, n: int) -> np.ndarray:
    """``n`` values whose gaps are 2, 3 or 4 eighths, the smallest at least
    twice, so that midpoints of the smallest gaps are exact ties."""
    gaps = rng.choice([2, 3, 4], size=n - 1)
    gaps[[0, n // 2]] = 2
    return np.concatenate([[0.0], np.cumsum(gaps)]) / 8.0 - 3.0


def _queries_across_chunks(axes, rng, rows: int) -> np.ndarray:
    """``rows`` rows drawn from 4000 distinct ones.  Each coordinate of a distinct
    row is an axis value (an exact hit), the midpoint of two neighbouring values
    (a tie where their gap is the smallest), a quarter point, or far off the axis."""
    choices = []
    for v in axes:
        far = [v[0] - 50.0, v[-1] + 50.0, np.inf, -np.inf, np.nan]
        choices.append(np.concatenate([v, (v[:-1] + v[1:]) / 2.0, v[:-1] + np.diff(v) / 4.0, far]))
    distinct = np.stack([rng.choice(c, size=4000) for c in choices], axis=-1)
    distinct[: len(distinct) // 4] = rng.choice(axes[0], size=(len(distinct) // 4, len(axes)))
    return distinct[rng.integers(0, len(distinct), size=rows)]


def _tensor_grid(axes, rng, drop=None) -> StateSpace:
    """The product of ``axes`` in shuffled row order, without its point
    ``drop`` in lexicographic order, if given."""
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    if drop is not None:
        points = np.delete(points, drop, axis=0)
    return StateSpace(points[rng.permutation(len(points))])


def _assert_projects_as_the_reference(states: StateSpace, points: np.ndarray) -> None:
    distinct, inverse = np.unique(points, axis=0, return_inverse=True)
    want = np.array([reference_project(states, p) for p in distinct])
    assert project_to_grid(states, points).tolist() == want[inverse.reshape(-1)].tolist()


@pytest.mark.parametrize("drop", [None, -1, 0, 41 * 20 + 17],
                         ids=["full", "no-last", "no-first", "no-middle"])
def test_projection_on_a_41_by_41_tensor_grid_across_chunks(drop):
    """More than three chunks of 16 384 rows on a full tensor grid, where the
    key search is skipped, and on the grid one point short, where it is not:
    there every key but one is held, and the last key is one below the count."""
    rng = np.random.default_rng(41)
    axes = [_uneven_axis(rng, 41), _uneven_axis(rng, 41)]
    states = _tensor_grid(axes, rng, drop)
    assert len(states._index[2]) == 41 * 41 - (drop is not None)
    _assert_projects_as_the_reference(states, _queries_across_chunks(axes, rng, 50_000))


def test_projection_on_a_5_by_5_by_5_tensor_grid_without_its_last_point():
    rng = np.random.default_rng(5)
    axes = [_uneven_axis(rng, 5) for _ in range(3)]
    states = _tensor_grid(axes, rng, drop=-1)
    _assert_projects_as_the_reference(states, _queries_across_chunks(axes, rng, 20_000))


def _expr_model(sources, T: int = 1, points=((0.0,), (1.0,), (2.0,)), atoms=(0.0,)) -> Model:
    """Dynamics ``sources`` under one control 0 and equally likely ``atoms``."""
    states = StateSpace(np.array(points, dtype=np.float64))
    return Model(
        time=TimeGrid(0, T),
        states=states,
        controls=ControlMap.shared([[0.0]], states.n_points),
        noise=DisturbanceLaw([[w] for w in atoms], np.full(len(atoms), 1.0 / len(atoms))),
        dynamics=ExprDynamics(tuple(sources)),
        constraints=ConstraintSets("set", stationary=tuple(range(states.n_points))),
    )


@pytest.mark.parametrize(
    "source,T,message",
    [
        ("1 / (x - 1)", 1, "(t=0, x=1, u=0, w=0): division by zero"),
        ("x ^ -1", 1, "(t=0, x=0, u=0, w=0): '^' failed for 0.0 ^ -1.0: math domain error"),
        ("x * 1e308 * 10", 1, "(t=0, x=1, u=0, w=0): non-finite result from '*'"),
        ("x / (t - 2)", 4, "(t=2, x=0, u=0, w=0): division by zero"),
        # the array evaluation fails first at x = 2, in the first term
        ("1 / (x - 2) + 1 / x", 1, "(t=0, x=0, u=0, w=0): division by zero"),
    ],
)
def test_failed_evaluation_names_first_point(source, T, message):
    with pytest.raises(ModelError) as err:
        _expr_model([source], T).tables
    assert str(err.value) == f"dynamics evaluation failed at {message}"
    assert isinstance(err.value.__cause__, expr.EvalError)


@pytest.mark.parametrize(
    "model,message",
    [
        # the array evaluation fails first in the first expression, at x1 = 2
        (_expr_model(["x1 + 1 / (x1 - 2)", "x2 + x1 ^ -1"],
                     points=[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
         "(t=0, x=0, u=0, w=0): '^' failed for 0.0 ^ -1.0: math domain error"),
        (_expr_model(["x + 1 / (w - 1)"], atoms=(0.0, 1.0, 2.0)),
         "(t=0, x=0, u=0, w=1): division by zero"),
    ],
)
def test_first_failing_point_in_walk_order(model, message):
    with pytest.raises(ModelError) as err:
        model.tables
    assert str(err.value) == f"dynamics evaluation failed at {message}"
    assert isinstance(err.value.__cause__, expr.EvalError)


def test_failing_point_is_found_in_few_evaluations(monkeypatch):
    """A failure at the last of 2001 states takes a logarithmic number of
    array evaluations, not one per point."""
    n = 2001
    model = _expr_model([f"x + u + w + 1 / (x - {n - 1})"], points=np.arange(n)[:, None])
    calls = []
    evaluate = expr.evaluate
    monkeypatch.setattr(expr, "evaluate", lambda *a: calls.append(a) or evaluate(*a))
    with pytest.raises(ModelError, match=re.escape(f"(t=0, x={n - 1}, u=0, w=0): division")):
        model.tables
    rows, atoms, n_asts = n, 1, 1
    assert len(calls) <= 2 * n_asts * (math.ceil(math.log2(rows)) + math.ceil(math.log2(atoms)) + 2)


def test_table_size_guard_fails_before_allocating():
    states = StateSpace(np.array([[0.0]]))
    model = Model(
        time=TimeGrid(0, 10**9),
        states=states,
        controls=ControlMap.shared([[0.0]], 1),
        noise=DisturbanceLaw([[0.0]], [1.0]),
        dynamics=ExprDynamics(("x + u + w",)),
        constraints=ConstraintSets("set", stationary=(0,)),
    )
    tracemalloc.start()
    try:
        with pytest.raises(ModelError, match=f"needs 16000000000 bytes .* {TABLE_BYTES_GUARD}"):
            model.tables
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_tables_are_read_only(example_model):
    for model in (example_model, walk_model(11, 4), random_model(3)):
        tab = model.tables
        for a in (tab.n_ctrl, tab.next_state, tab.member, tab.probs):
            assert not a.flags.writeable


def test_time_invariant_parts_are_stored_once():
    tab = walk_model(11, 50).tables
    for a in (tab.n_ctrl, tab.next_state, tab.member):
        assert np.shares_memory(a[0], a[-1])


def _table_model(steps: int = 3, n: int = 3) -> Model:
    """A table body ``min(x + w, n - 1)`` under one shared control, equally
    likely w in {0, 1}, and the whole grid as its stationary set."""
    succ = np.minimum(np.arange(n)[:, None, None] + np.arange(2), n - 1)
    slab = np.concatenate([succ, np.full((1, 1, 2), n)])  # the sink row
    return Model(
        time=TimeGrid(0, steps),
        states=StateSpace(np.arange(n, dtype=np.float64)[:, None]),
        controls=ControlMap.shared([[0.0]], n),
        noise=DisturbanceLaw([[0.0], [1.0]], [0.5, 0.5]),
        dynamics=TableDynamics(np.repeat(slab[None], steps, axis=0)),
        constraints=ConstraintSets("set", stationary=range(n)),
    )


@pytest.mark.parametrize(
    "build,stationary",
    [
        # expression dynamics without t, shared controls and a stationary box
        (lambda: walk_model(11, 4), {"next_state", "n_ctrl", "member"}),
        # expression dynamics that read t: one successor slab per stage
        (lambda: _expr_model(("x * t",), T=4), {"n_ctrl", "member"}),
        # a table body, stored per stage even under shared controls
        (_table_model, {"n_ctrl", "member"}),
        # a table body under per-stage-state controls and per-stage sets
        (lambda: random_model(1), set()),
    ],
    ids=["expr", "expr-reads-t", "table", "table-per-stage"],
)
def test_stored_row_is_the_row_each_stage_reads(build, stationary):
    tab = build().tables
    assert tab.steps >= 3
    for name in ("next_state", "n_ctrl", "member"):
        part = getattr(tab, name)  # member has steps + 1 stages
        stages = range(tab.steps + (name == "member"))
        want = [0 if name in stationary else k for k in stages]
        assert [tab.stored_row(part, k) for k in stages] == want, name
        for k in stages:
            assert np.shares_memory(part[k], part[tab.stored_row(part, k)])


def test_long_time_invariant_horizon_builds_in_little_memory():
    model = walk_model(101, 10_000)
    tracemalloc.start()
    try:
        tab = model.tables
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tab.next_state.shape == (10_000, 102, 3, 5)
    assert tab.next_state.nbytes == 10_000 * 102 * 3 * 5 * 8  # the logical size
    assert peak < 16 << 20  # one dense copy per stage would take 122 MB
