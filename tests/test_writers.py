"""Every CSV writer against a cell-by-cell reference writer.

The reference formats each cell on its own, ``format(float(v), ".17g")`` for
a double and ``str(int(v))`` for an integer or flag, and joins each row with
``","``: the bytes the writers must produce.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_model, signed_zero_model
from stochviab import io
from stochviab.cli import _write_plot_data
from stochviab.dp import ValueFunction, solve
from stochviab.kernel import FeedbackPolicy, KernelSlice, kernel_slice, select_feedback
from stochviab.mc import simulate_batch
from stochviab.model import (
    ConstraintSets,
    ControlMap,
    DisturbanceLaw,
    ExprDynamics,
    Model,
    StateSpace,
    TableDynamics,
    TimeGrid,
    make_three_state_example,
)

EXTREMES = [5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, -0.0, 0.0]


def _f(v) -> str:
    return format(float(v), ".17g")


def _i(v) -> str:
    return str(int(v))


def _csv(header, rows) -> bytes:
    return "".join(",".join(row) + "\n" for row in [header, *rows]).encode()


def _xs(dim: int, prefix: str = "x") -> list[str]:
    return [f"{prefix}{i + 1}" for i in range(dim)]


def ref_value(vf: ValueFunction) -> bytes:
    m, dim = vf.points.shape
    return _csv(["t", "state_index", *_xs(dim), "value"],
                [[_i(vf.t0 + k), _i(x), *map(_f, vf.points[x]), _f(vf.table[k, x])]
                 for k in range(vf.table.shape[0]) for x in range(m)])


def ref_argmax(model: Model, am) -> bytes:
    m = model.states.n_points
    return _csv(["t", "state_index", "control_index", *_xs(model.controls.dim, "u")],
                [[_i(t), _i(x), _i(j), *map(_f, model.admissible(t, x)[j])]
                 for k, t in enumerate(range(model.time.t0, model.time.T)) for x in range(m)
                 for j in np.flatnonzero(am.mask[k, x])])


def ref_policy(model: Model, fb: FeedbackPolicy) -> bytes:
    m = model.states.n_points
    return _csv(["t", "state_index", "control_index", *_xs(model.controls.dim, "u")],
                [[_i(t), _i(x), _i(j), *map(_f, model.admissible(t, x)[j])]
                 for t in range(model.time.t0, model.time.T) for x in range(m)
                 for j in [fb.choose(t, x)]])


def ref_kernel(slices, points) -> bytes:
    pts = np.asarray(points, dtype=np.float64).reshape(len(points), -1)
    return _csv(["t", "beta", "state_index", *_xs(pts.shape[1])],
                [[_i(sl.t), _f(sl.beta), _i(x), *map(_f, pts[x])]
                 for sl in slices for x in sl.members])


def ref_trajectories(model: Model, states, controls, success) -> bytes:
    pts, m, steps = model.states.points, model.states.n_points, model.time.steps
    return _csv(["sample", "t", "state_index", *_xs(model.states.dim), "control_index", "success"],
                [[_i(s), _i(model.time.t0 + k), _i(x),
                  *(map(_f, pts[x]) if x < m else [""] * model.states.dim),
                  _i(controls[s, k]) if k < steps else "", _i(success[s])]
                 for s in range(len(states)) for k, x in enumerate(states[s, : steps + 1])])


def ref_plot(model: Model, states) -> bytes:
    pts, m = model.states.points, model.states.n_points
    return _csv(["t", *(f"x_sample{s}" for s in range(len(states)))],
                [[_i(model.time.t0 + k), *(_f(pts[x, 0]) if x < m else "" for x in column)]
                 for k, column in enumerate(states.T)])


def assert_writers_match(model: Model, tmp_path, n_paths: int = 7, x0: int = 0) -> None:
    """Every writer's file for ``model`` equals the reference's bytes."""
    vf, am = solve(model)
    f = tmp_path / "out.csv"

    def check(write, want: bytes):
        write(f)
        assert f.read_bytes() == want

    check(lambda p: io.write_value_csv(vf, p), ref_value(vf))
    check(lambda p: io.write_argmax_csv(model, am, p), ref_argmax(model, am))
    for rule in ("smallest", "largest"):
        fb = select_feedback(am, rule)
        check(lambda p: io.write_policy_csv(model, fb, p), ref_policy(model, fb))
    slices = [kernel_slice(vf, t, beta) for t in range(vf.t0, vf.T + 1) for beta in (0.5, 1.0)]
    check(lambda p: io.write_kernel_csv(slices, vf.points, p), ref_kernel(slices, vf.points))
    states, controls, _, success = simulate_batch(model, select_feedback(am), x0, n_paths, 3)
    check(lambda p: io.write_trajectories_csv(model, states, controls, success, p),
          ref_trajectories(model, states, controls, success))
    check(lambda p: _write_plot_data(model, states, str(p)), ref_plot(model, states))


def extreme_model() -> Model:
    """3-D states with negative and extreme coordinates, 2-D per_state controls
    holding -0.0 and 0.0, and a hand-made table."""
    points = np.array([[-1.0, 5e-324, -0.0], [0.0, -1.7976931348623157e308, 2.5],
                       [1.7976931348623157e308, -5e-324, -3.25], [-7.0, 0.1, 1e-300]])
    lists = [[[-0.0, 0.0], [1.0, -2.0]], [[0.0, -0.0]], [[-5e-324, 1.7976931348623157e308],
             [3.0, 3.0], [0.5, -0.5]], [[-1.0, -1.0]]]
    nested = [[[[1, 2], [0, -1]], [[2, 3]], [[3, 3], [-1, 0], [1, 1]], [[0, 2]]],
              [[[3, 1], [2, 2]], [[0, 0]], [[1, -1], [3, 2], [2, 0]], [[-1, 3]]]]
    return Model(
        TimeGrid(-1, 1),
        StateSpace(points),
        ControlMap.per_state(lists, 4),
        DisturbanceLaw(np.array([[0.0], [1.0]]), np.array([0.375, 0.625])),
        TableDynamics.from_nested(nested, 4, [2, 1, 3, 1], 2, 2),
        ConstraintSets("set", per_stage=((0, 1, 2, 3), (0, 2, 3), (1, 2, 3))),
    )


def push_up_model() -> Model:
    """The three-state example with the disturbance fixed at +1: under the
    control +1 every path leaves the grid."""
    ex = make_three_state_example(0.01, 0, 6)
    return Model(ex.time, ex.states, ex.controls,
                 DisturbanceLaw(np.array([[1.0]]), np.array([1.0])),
                 ex.dynamics, ex.constraints)


MODELS = {
    "three-state": lambda: make_three_state_example(0.1, 2, 9),
    "signed-zero": signed_zero_model,
    "extreme-3d": extreme_model,
    "random-0": lambda: random_model(0),
    "random-3": lambda: random_model(3),
    "random-8": lambda: random_model(8),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_every_writer_matches_the_reference(tmp_path, name):
    assert_writers_match(MODELS[name](), tmp_path)


@pytest.mark.parametrize("chunk", [1, 7, 64, 1000])
def test_every_writer_matches_the_reference_in_small_chunks(tmp_path, monkeypatch, chunk):
    # chunks of a single row up to several rows, and rows that straddle none
    monkeypatch.setattr(io, "_CHUNK_BYTES", chunk)
    assert_writers_match(extreme_model(), tmp_path)
    assert_writers_match(make_three_state_example(0.1, 0, 5), tmp_path, n_paths=30, x0=1)


def test_signed_zeros_and_extremes_in_one_column(tmp_path):
    points = np.array(EXTREMES)[:, None]
    table = np.array([EXTREMES + [0.0], EXTREMES[::-1] + [0.0]])
    vf = ValueFunction(0, 1, points, table)
    io.write_value_csv(vf, tmp_path / "v.csv")
    text = (tmp_path / "v.csv").read_bytes()
    assert text == ref_value(vf)
    for line in (b"0,0,4.9406564584124654e-324,4.9406564584124654e-324",
                 b"0,3,-1.7976931348623157e+308,-1.7976931348623157e+308",
                 b"0,4,-0,-0", b"1,4,-0,-4.9406564584124654e-324",
                 b"1,5,0,4.9406564584124654e-324"):
        assert b"\n" + line + b"\n" in text


def test_all_samples_end_in_the_sink(tmp_path):
    model = push_up_model()
    fb = FeedbackPolicy.constant(model, [1.0])
    states, controls, _, success = simulate_batch(model, fb, 1, 5, 0)
    assert (states[:, -1] == model.states.sink).all() and not success.any()
    io.write_trajectories_csv(model, states, controls, success, tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == ref_trajectories(model, states, controls, success)
    _write_plot_data(model, states, str(tmp_path / "p.csv"))
    assert (tmp_path / "p.csv").read_bytes() == ref_plot(model, states)


@pytest.mark.parametrize("slices", [[], [KernelSlice(3, 0.5, ())],
                                    [KernelSlice(0, 1.0, ()), KernelSlice(1, 0.25, ())]])
def test_empty_kernel_is_the_header_alone(tmp_path, slices):
    io.write_kernel_csv(slices, np.array([[0.0, 1.0]]), tmp_path / "k.csv")
    assert (tmp_path / "k.csv").read_bytes() == b"t,beta,state_index,x1,x2\n"


def test_single_row(tmp_path):
    slices = [KernelSlice(-2, 0.75, ()), KernelSlice(-1, 1.0, (1,))]
    io.write_kernel_csv(slices, np.array([[0.5], [-0.0]]), tmp_path / "k.csv")
    assert (tmp_path / "k.csv").read_bytes() == b"t,beta,state_index,x1\n-1,1,1,-0\n"


def test_a_file_of_several_chunks(tmp_path):
    model = make_three_state_example(0.2, 0, 40)
    _, am = solve(model)
    states, controls, _, success = simulate_batch(model, select_feedback(am), 1, 1200, 9)
    path = tmp_path / "t.csv"
    io.write_trajectories_csv(model, states, controls, success, path)
    # a row's text is no longer than its padded width, so this is 3 chunks or more
    assert path.stat().st_size > 2 * io._CHUNK_BYTES
    assert path.read_bytes() == ref_trajectories(model, states, controls, success)


@pytest.mark.parametrize("n,digest", [
    (1, "6abf2edeff873212"), (255, "a864a75265072f2b"), (256, "2b1e194f75e92d51"),
    (257, "8283c476096f6c85"), (600, "9a491751af50f947"),
])
def test_trajectories_across_sample_blocks(tmp_path, n, digest):
    # the rows are indexed 256 samples at a time: files that end before, at
    # and after a block's edge, and one of three blocks
    model = make_three_state_example(0.2, 0, 6)
    _, am = solve(model)
    states, controls, _, success = simulate_batch(model, select_feedback(am), 1, n, 11)
    path = tmp_path / "t.csv"
    io.write_trajectories_csv(model, states, controls, success, path)
    assert path.read_bytes() == ref_trajectories(model, states, controls, success)
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == digest


@pytest.mark.parametrize("block", [1, 2, 5])
def test_trajectories_in_small_sample_blocks(tmp_path, monkeypatch, block):
    monkeypatch.setattr(io, "_SAMPLE_BLOCK", block)
    assert_writers_match(extreme_model(), tmp_path)
    assert_writers_match(push_up_model(), tmp_path, x0=1)
    assert_writers_match(make_three_state_example(0.1, 0, 5), tmp_path, n_paths=30, x0=1)


doubles = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@settings(max_examples=60, deadline=None)
@given(points=st.lists(st.lists(doubles, min_size=2, max_size=2), min_size=1, max_size=12),
       betas=st.lists(doubles, min_size=1, max_size=4), data=st.data())
def test_any_doubles_match_the_reference(tmp_path_factory, points, betas, data):
    """Kernel files of arbitrary doubles, NaN, infinities and subnormals included."""
    members = st.lists(st.integers(0, len(points) - 1), max_size=2 * len(points))
    slices = [KernelSlice(data.draw(st.integers(-3, 3)), b, tuple(data.draw(members)))
              for b in betas]
    path = tmp_path_factory.mktemp("k") / "k.csv"
    io.write_kernel_csv(slices, np.array(points), path)
    assert path.read_bytes() == ref_kernel(slices, np.array(points))


def test_expression_model_with_negative_stages(tmp_path):
    model = Model(
        TimeGrid(-3, 0),
        StateSpace(np.array([[-2.0, -1.5], [-1.0, 0.0], [0.0, -0.0], [1.0, 2.0]])),
        ControlMap.per_state([[[-1.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]], [[-0.0, 0.0]],
                              [[-1.0, -2.0]]], 4),
        DisturbanceLaw(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.5, 0.5])),
        ExprDynamics(("x1 + u1 + w1", "x2 + u2 + w2")),
        ConstraintSets("box", stationary=([-2.0, -2.0], [1.0, 2.0])),
    )
    assert_writers_match(model, tmp_path, x0=1)
