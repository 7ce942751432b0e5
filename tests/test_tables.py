"""Compiled tables of expression dynamics against the point-by-point build.

The reference below is the compile loop the array build replaced: the
scalar ``expr.evaluate`` at every (t, x, u, w) and a per-point nearest-grid
search.  The array build must give the same ``next_state`` and ``n_ctrl``
bit for bit, and raise the same error at the same point.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_model, walk_model
from stochviab import expr
from stochviab.dp import TABLE_BYTES_GUARD
from stochviab.model import (
    ConstraintSets,
    ControlMap,
    DisturbanceLaw,
    ExprDynamics,
    Model,
    ModelError,
    StateSpace,
    TimeGrid,
    project_to_grid,
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
        b[f"u{i + 1}"] = float(u_vec[i]) if i < len(u_vec) else 0.0
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
    lists = [[model.controls.admissible(time.t0 + k, x) for x in range(m)]
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
                    for ast in model.dynamics.asts:
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
    n, p, q = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    states = draw(grids(n))
    m = states.n_points
    t0 = draw(st.integers(-1, 1))
    steps = draw(st.integers(1, 3))

    def control_list():  # ragged lengths; some vectors shorter than p (zero-filled)
        return _vectors(draw, draw(st.integers(1, 3)), draw(st.integers(1, p)))

    kind = draw(st.sampled_from(["shared", "per_state", "per_stage_state"]))
    width_first = _vectors(draw, draw(st.integers(1, 3)), p)  # fixes controls.dim = p
    if kind == "shared":
        controls = ControlMap.shared(width_first, m)
    elif kind == "per_state":
        controls = ControlMap.per_state([width_first] + [control_list() for _ in range(m - 1)], m)
    else:
        table = [[width_first] + [control_list() for _ in range(m - 1)] for _ in range(steps)]
        controls = ControlMap.per_stage_state(table, m, t0)

    n_atoms = draw(st.integers(1, 3))
    noise = DisturbanceLaw(np.array(_vectors(draw, n_atoms, q)), np.full(n_atoms, 1.0 / n_atoms))

    names = expr.variable_names((n, p, q))
    sources = []
    for c in range(n):
        body = expr.to_source(draw(_asts(names)))
        # often x_c + a small term, so successors stay near the grid
        sources.append(f"x{c + 1} + ({body})" if draw(st.booleans()) else body)
    return Model(
        time=TimeGrid(t0, t0 + steps),
        states=states,
        controls=controls,
        noise=noise,
        dynamics=ExprDynamics.parse(sources, (n, p, q)),
        constraints=ConstraintSets("set", stationary=tuple(range(m))),
    )


@settings(max_examples=300, deadline=None)
@given(expr_models())
def test_array_build_matches_point_by_point_build(model):
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


def _one_dim_model(source: str, T: int = 1) -> Model:
    states = StateSpace(np.array([[0.0], [1.0], [2.0]]))
    return Model(
        time=TimeGrid(0, T),
        states=states,
        controls=ControlMap.shared([[0.0]], 3),
        noise=DisturbanceLaw([[0.0]], [1.0]),
        dynamics=ExprDynamics.parse([source], (1, 1, 1)),
        constraints=ConstraintSets("set", stationary=(0, 1, 2)),
    )


@pytest.mark.parametrize(
    "source,T,message",
    [
        ("1 / (x - 1)", 1, "(t=0, x=1, u=0, w=0): division by zero"),
        ("x ^ -1", 1, "(t=0, x=0, u=0, w=0): '^' failed for 0.0 ^ -1.0: math domain error"),
        ("x * 1e308 * 10", 1, "(t=0, x=1, u=0, w=0): non-finite result from '*'"),
        ("x / (t - 2)", 4, "(t=2, x=0, u=0, w=0): division by zero"),
    ],
)
def test_failed_evaluation_names_first_point(source, T, message):
    with pytest.raises(ModelError) as err:
        _one_dim_model(source, T).tables
    assert str(err.value) == f"dynamics evaluation failed at {message}"
    assert isinstance(err.value.__cause__, expr.EvalError)


def test_table_size_guard_fails_before_allocating():
    states = StateSpace(np.array([[0.0]]))
    model = Model(
        time=TimeGrid(0, 10**9),
        states=states,
        controls=ControlMap.shared([[0.0]], 1),
        noise=DisturbanceLaw([[0.0]], [1.0]),
        dynamics=ExprDynamics.parse(["x + u + w"], (1, 1, 1)),
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
