import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochviab.expr import (
    MAX_DEPTH,
    Binary,
    Call,
    EvalError,
    ExprSyntaxError,
    Num,
    Unary,
    UnknownVariableError,
    Var,
    evaluate,
    parse,
    to_source,
)

DIMS = (1, 1, 1)


def test_three_term_sum_shape():
    ast = parse("x + u + w", DIMS)
    assert ast == Binary("+", Binary("+", Var("x"), Var("u")), Var("w"))


@pytest.mark.parametrize(
    "src,bindings,value",
    [
        ("x + u + w", {"x": 1, "u": -1, "w": 0}, 0.0),
        ("x*(1+u) - w^2", {"x": 2, "u": 0.5, "w": 1}, 2.0),
        ("2+3*4", {}, 14.0),
        ("2^3^2", {}, 512.0),
        ("-2^2", {}, -4.0),
        ("2^-1", {}, 0.5),
        ("min(3, 2) + max(3, 2) + abs(-5)", {}, 10.0),
        ("10 / 4", {}, 2.5),
    ],
)
def test_evaluate(src, bindings, value):
    assert evaluate(parse(src, DIMS), bindings) == value


def test_indexed_names_and_aliases():
    ast = parse("x1 + u1 + w1", DIMS)
    assert evaluate(ast, {"x1": 1, "u1": 2, "w1": 3}) == 6
    # alias names only exist when the matching dimension is 1
    with pytest.raises(UnknownVariableError):
        parse("x + u", (2, 1, 1))
    assert parse("x1 + x2", (2, 1, 1)) is not None


@pytest.mark.parametrize(
    "src,offset",
    [
        ("x +", 3),
        ("+ x", 0),
        ("(x + u", 6),
        ("x ) u", 2),
        ("min(x)", 0),
        ("x1 + + u1", 5),
        ("2 * * 3", 4),
        ("foo(1)", 0),
        ("1..2", 1),
        ("x @ u", 2),
        ("", 0),
        # nesting past MAX_DEPTH fails at the token that opens level 101
        pytest.param("(" * 300 + "x" + ")" * 300, 100, id="300-parentheses"),
        pytest.param("-" * 3000 + "x", 100, id="3000-unary-minus"),
        pytest.param("x" + "+0" * 2999, 201, id="3000-term-chain"),
        pytest.param("2^" * 200 + "2", 201, id="200-powers"),
        pytest.param("abs(" * 150 + "x" + ")" * 150, 403, id="150-calls"),
    ],
)
def test_syntax_error_offsets(src, offset):
    with pytest.raises(ExprSyntaxError) as err:
        parse(src, DIMS)
    assert err.value.offset == offset


@pytest.mark.parametrize(
    "src,value",
    [
        ("(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH, 2.0),
        ("-" * MAX_DEPTH + "x", 2.0),
        ("x" + "+1" * MAX_DEPTH, 102.0),
        ("abs(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH, 2.0),
    ],
)
def test_nesting_up_to_the_cap_parses_and_evaluates(src, value):
    ast = parse(src, DIMS)
    assert evaluate(ast, {"x": 2.0}) == value
    assert parse(to_source(ast), DIMS) == ast


def test_unknown_variable_carries_name():
    with pytest.raises(UnknownVariableError) as err:
        parse("x1 + y", DIMS)
    assert err.value.name == "y"
    assert err.value.offset == 5


def test_eval_errors():
    with pytest.raises(EvalError, match="division by zero"):
        evaluate(parse("1/(x-1)", DIMS), {"x": 1})
    with pytest.raises(EvalError):
        evaluate(parse("0 ^ -1", DIMS), {})
    with pytest.raises(EvalError):
        evaluate(parse("(-2) ^ (1/2)", DIMS), {})
    with pytest.raises(EvalError, match="non-finite"):
        evaluate(parse("x * x", DIMS), {"x": 1e300})
    with pytest.raises(EvalError, match="missing binding"):
        evaluate(parse("x + u", DIMS), {"x": 1})


def test_eval_is_pure():
    ast = parse("x * 0.1 + w ^ 2 - u / 3", DIMS)
    bindings = {"x": 0.7, "w": 1.3, "u": 0.11}
    first = evaluate(ast, bindings)
    assert all(evaluate(ast, bindings) == first for _ in range(5))


_names = st.sampled_from(["t", "x", "u", "w", "x1", "u1", "w1"])
_nums = st.floats(min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False).map(abs)
_asts = st.recursive(
    st.one_of(_nums.map(Num), _names.map(Var)),
    lambda kids: st.one_of(
        st.tuples(st.sampled_from("+-*/^"), kids, kids).map(lambda t: Binary(*t)),
        kids.map(lambda k: Unary("-", k)),
        st.tuples(st.sampled_from(["min", "max"]), kids, kids).map(
            lambda t: Call(t[0], (t[1], t[2]))
        ),
        kids.map(lambda k: Call("abs", (k,))),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_asts)
def test_print_parse_round_trip(ast):
    assert parse(to_source(ast), DIMS) == ast


def test_number_literals_round_trip():
    for text in ["0.5", "2", "1e3", "2.5e-4", "1E+2"]:
        ast = parse(text, DIMS)
        assert isinstance(ast, Num)
        assert parse(to_source(ast), DIMS) == ast
    with pytest.raises(ExprSyntaxError):
        parse("1e999", DIMS)  # overflows a double


def test_unary_binds_looser_than_power():
    assert evaluate(parse("-2^2", DIMS), {}) == -4.0
    assert evaluate(parse("(-2)^2", DIMS), {}) == 4.0
    assert math.isclose(evaluate(parse("2^-2", DIMS), {}), 0.25)


def test_min_max_ties_return_the_first_argument():
    # the only equal floats that differ are the signed zeros
    for bindings in ({"x": 0.0, "u": -0.0}, {"x": np.array([0.0]), "u": np.array([-0.0])}):
        assert not np.signbit(evaluate(parse("min(x, u)", DIMS), bindings)).any()
        assert np.signbit(evaluate(parse("max(u, x)", DIMS), bindings)).all()


_values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0, 1e-300, 7e200])


@settings(max_examples=300, deadline=None)
@given(_asts, st.lists(_values, min_size=3, max_size=3), st.lists(_values, min_size=2, max_size=2),
       st.lists(_values, min_size=6, max_size=6), _values)
def test_array_evaluation_matches_scalar_elementwise(ast, xs, us, ws, t):
    x, u, w = np.array(xs)[:, None], np.array(us)[None, :], np.array(ws).reshape(3, 2)
    arrays = {"t": t, "x": x, "x1": x, "u": u, "u1": u, "w": w, "w1": w}
    want, failed = np.empty((3, 2)), False
    for i in range(3):
        for j in range(2):
            point = {k: float(np.broadcast_to(v, (3, 2))[i, j]) for k, v in arrays.items()}
            try:
                value = evaluate(ast, point)
            except EvalError:
                failed = True
                continue
            assert type(value) is float
            want[i, j] = value
    if failed:
        with pytest.raises(EvalError):
            evaluate(ast, arrays)
        return
    got = np.broadcast_to(evaluate(ast, arrays), (3, 2))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))  # bit for bit, signed zeros too
