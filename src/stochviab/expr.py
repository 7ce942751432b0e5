"""Arithmetic expressions for coordinate dynamics.

Grammar (EBNF, whitespace insignificant between tokens)::

    expr    = term   { ("+" | "-") term } ;
    term    = unary  { ("*" | "/") unary } ;
    unary   = "-" unary | power ;
    power   = atom [ "^" unary ] ;            (* right associative *)
    atom    = NUMBER | NAME | NAME "(" expr { "," expr } ")" | "(" expr ")" ;
    NUMBER  = digits [ "." digits ] [ ("e"|"E") ["+"|"-"] digits ] ;
    NAME    = letter { letter | digit } ;

Precedence from loose to tight: "+ -", "* /", unary "-", "^".  Exponentiation
binds tighter than unary minus, so ``-2^2`` is ``-(2^2)``.

Nesting is capped at ``MAX_DEPTH`` levels, so that no input can exhaust the
stack of the parser or of the tree walks.  A level opens at each "(", each
call, each unary "-", each "^" and each further operand of a "+ -" or
"* /" chain, whose tree grows one level deeper per operand.

Valid names are ``t``, ``x1..xn``, ``u1..up``, ``w1..wq`` for declared
dimensions (n, p, q), plus the aliases ``x``, ``u``, ``w`` when the matching
dimension is 1, and the calls ``min(a,b)``, ``max(a,b)``, ``abs(a)``.

Evaluation is plain double-precision arithmetic, on floats or elementwise on
numpy arrays with the same rounding.  Division by zero, domain errors of
``^`` and non-finite intermediate results raise :class:`EvalError` rather
than producing infinities.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

__all__ = [
    "Ast",
    "Num",
    "Var",
    "Unary",
    "Binary",
    "Call",
    "MAX_DEPTH",
    "ExprError",
    "ExprSyntaxError",
    "UnknownVariableError",
    "EvalError",
    "parse",
    "evaluate",
    "to_source",
    "variable_names",
    "variables",
]


class ExprError(ValueError):
    """Base class for expression failures."""


class ExprSyntaxError(ExprError):
    """Malformed source text; ``offset`` is the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownVariableError(ExprError):
    """A name not declared by the model dimensions; carries the name."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown variable '{name}' (offset {offset})")
        self.name = name
        self.offset = offset


class EvalError(ExprError):
    """Evaluation failed: missing binding, division by zero, non-finite result."""


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str
    operand: "Ast"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Ast"
    right: "Ast"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Ast", ...]


Ast = Union[Num, Var, Unary, Binary, Call]

_FUNCTIONS = {"min": 2, "max": 2, "abs": 1}

MAX_DEPTH = 100


def variable_names(dims: tuple[int, int, int]) -> set[str]:
    """Names declared by state/control/noise dimensions (n, p, q)."""
    n, p, q = dims
    names = {"t"}
    names.update(f"x{i}" for i in range(1, n + 1))
    names.update(f"u{i}" for i in range(1, p + 1))
    names.update(f"w{i}" for i in range(1, q + 1))
    if n == 1:
        names.add("x")
    if p == 1:
        names.add("u")
    if q == 1:
        names.add("w")
    return names


def variables(ast: Ast) -> set[str]:
    """Names of the variables ``ast`` reads."""
    if isinstance(ast, Var):
        return {ast.name}
    if isinstance(ast, Unary):
        return variables(ast.operand)
    if isinstance(ast, Binary):
        return variables(ast.left) | variables(ast.right)
    if isinstance(ast, Call):
        return set().union(*(variables(a) for a in ast.args))
    return set()


# --- tokenizer ---

_OPS = "+-*/^"


@dataclass(frozen=True)
class _Token:
    kind: str  # "num", "name", "op", "lparen", "rparen", "comma", "eof"
    text: str
    offset: int


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c in _OPS:
            tokens.append(_Token("op", c, i))
            i += 1
        elif c == "(":
            tokens.append(_Token("lparen", c, i))
            i += 1
        elif c == ")":
            tokens.append(_Token("rparen", c, i))
            i += 1
        elif c == ",":
            tokens.append(_Token("comma", c, i))
            i += 1
        elif c.isdigit():
            start = i
            while i < n and source[i].isdigit():
                i += 1
            if i < n and source[i] == "." and i + 1 < n and source[i + 1].isdigit():
                i += 1
                while i < n and source[i].isdigit():
                    i += 1
            if i < n and source[i] in "eE":
                j = i + 1
                if j < n and source[j] in "+-":
                    j += 1
                if j < n and source[j].isdigit():
                    i = j
                    while i < n and source[i].isdigit():
                        i += 1
            tokens.append(_Token("num", source[start:i], start))
        elif c.isalpha() or c == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            tokens.append(_Token("name", source[start:i], start))
        else:
            raise ExprSyntaxError(f"unexpected character '{c}'", i)
    tokens.append(_Token("eof", "", n))
    return tokens


# --- parser ---


class _Parser:
    def __init__(self, tokens: list[_Token], allowed: set[str]):
        self.tokens = tokens
        self.pos = 0
        self.allowed = allowed
        self.level = 0  # nesting levels open at the current token

    def enter(self, tok: _Token) -> _Token:
        """Open one nesting level at ``tok``."""
        self.level += 1
        if self.level > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels",
                                  tok.offset)
        return tok

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(f"expected {what}", tok.offset)
        return self.advance()

    def parse_expr(self) -> Ast:
        level, node = self.level, self.parse_term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.enter(self.advance()).text
            node = Binary(op, node, self.parse_term())
        self.level = level
        return node

    def parse_term(self) -> Ast:
        level, node = self.level, self.parse_unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.enter(self.advance()).text
            node = Binary(op, node, self.parse_unary())
        self.level = level
        return node

    def parse_unary(self) -> Ast:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.enter(self.advance())
            node = Unary("-", self.parse_unary())
            self.level -= 1
            return node
        return self.parse_power()

    def parse_power(self) -> Ast:
        node = self.parse_atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.enter(self.advance())
            # exponent admits unary minus: 2^-3
            node = Binary("^", node, self.parse_unary())
            self.level -= 1
        return node

    def parse_atom(self) -> Ast:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            value = float(tok.text)
            if not math.isfinite(value):
                raise ExprSyntaxError("numeric literal overflows a double", tok.offset)
            return Num(value)
        if tok.kind == "name":
            self.advance()
            if self.peek().kind == "lparen":
                return self.parse_call(tok)
            if tok.text not in self.allowed:
                raise UnknownVariableError(tok.text, tok.offset)
            return Var(tok.text)
        if tok.kind == "lparen":
            self.enter(self.advance())
            node = self.parse_expr()
            self.expect("rparen", "')'")
            self.level -= 1
            return node
        raise ExprSyntaxError("expected a number, name or '('", tok.offset)

    def parse_call(self, name_tok: _Token) -> Ast:
        arity = _FUNCTIONS.get(name_tok.text)
        if arity is None:
            raise ExprSyntaxError(f"unknown function '{name_tok.text}'", name_tok.offset)
        self.enter(self.expect("lparen", "'('"))
        args = [self.parse_expr()]
        while self.peek().kind == "comma":
            self.advance()
            args.append(self.parse_expr())
        self.expect("rparen", "')'")
        self.level -= 1
        if len(args) != arity:
            raise ExprSyntaxError(
                f"'{name_tok.text}' takes {arity} argument(s), got {len(args)}",
                name_tok.offset,
            )
        return Call(name_tok.text, tuple(args))


def parse(source: str, dims: tuple[int, int, int]) -> Ast:
    """Parse ``source`` against state/control/noise dimensions ``dims = (n, p, q)``.

    Raises :class:`ExprSyntaxError` with the byte offset of the problem (the
    token that opens level ``MAX_DEPTH + 1`` of a too deeply nested input), or
    :class:`UnknownVariableError` for undeclared names.
    """
    parser = _Parser(_tokenize(source), variable_names(dims))
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ExprSyntaxError("unexpected trailing input", tok.offset)
    return node


# --- evaluation ---


def _pow(base, exponent):
    if isinstance(base, np.ndarray) or isinstance(exponent, np.ndarray):
        # element by element through math.pow: np.power may round differently
        b, e = np.broadcast_arrays(base, exponent)
        flat = map(_pow, b.ravel().tolist(), e.ravel().tolist())
        return np.fromiter(flat, np.float64, count=b.size).reshape(b.shape)
    try:
        return math.pow(base, exponent)
    except (ValueError, OverflowError) as err:
        raise EvalError(f"'^' failed for {base!r} ^ {exponent!r}: {err}") from None


def _where(take_right, right, left):
    out = np.where(take_right, right, left)
    return out if out.ndim else float(out)


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def evaluate(ast: Ast, bindings: Mapping[str, Union[float, np.ndarray]]):
    """Evaluate ``ast`` under ``bindings``; pure, bit-reproducible.

    Scalar bindings give a ``float``.  Array bindings are evaluated
    elementwise with numpy broadcasting and give an array (a ``float`` when
    the result reads no array).  Each element is rounded exactly as the
    scalar evaluation of that element, and :class:`EvalError` is raised when
    any element would raise it.
    """
    with np.errstate(all="ignore"):  # overflow is reported as non-finite below
        return _evaluate(ast, bindings)


def _evaluate(ast: Ast, bindings):
    if isinstance(ast, Num):
        return ast.value
    if isinstance(ast, Var):
        try:
            value = bindings[ast.name]
        except KeyError:
            raise EvalError(f"missing binding for variable '{ast.name}'") from None
        if isinstance(value, np.ndarray):
            return value.astype(np.float64, copy=False)
        return float(value)
    if isinstance(ast, Unary):
        return -_evaluate(ast.operand, bindings)
    if isinstance(ast, Binary):
        left = _evaluate(ast.left, bindings)
        right = _evaluate(ast.right, bindings)
        if ast.op == "/":
            if np.any(right == 0.0):
                raise EvalError("division by zero")
            out = left / right
        elif ast.op == "^":
            out = _pow(left, right)
        else:
            out = _ARITH[ast.op](left, right)
        if not np.all(np.isfinite(out)):
            raise EvalError(f"non-finite result from '{ast.op}'")
        return out
    if isinstance(ast, Call):
        vals = [_evaluate(a, bindings) for a in ast.args]
        if ast.func == "abs":
            return abs(vals[0])
        # ties return the first argument, as Python's min and max do
        if ast.func == "min":
            return _where(vals[1] < vals[0], vals[1], vals[0])
        return _where(vals[1] > vals[0], vals[1], vals[0])
    raise TypeError(f"not an Ast node: {ast!r}")


# --- printing ---

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(node: Ast) -> int:
    if isinstance(node, Binary):
        if node.op in "+-":
            return _PREC_ADD
        if node.op in "*/":
            return _PREC_MUL
        return _PREC_POW
    if isinstance(node, Unary):
        return _PREC_UNARY
    return _PREC_ATOM


def _wrap(text: str, need: bool) -> str:
    return f"({text})" if need else text


def to_source(ast: Ast) -> str:
    """Render ``ast`` with minimal parentheses; reparsing yields an equal tree.

    Numeric literals are expected to be finite and non-negative, which is what
    :func:`parse` produces (a leading minus parses as a unary node).
    """
    if isinstance(ast, Num):
        return repr(ast.value)
    if isinstance(ast, Var):
        return ast.name
    if isinstance(ast, Unary):
        inner = _wrap(to_source(ast.operand), _prec(ast.operand) < _PREC_UNARY)
        return f"-{inner}"
    if isinstance(ast, Binary):
        if ast.op == "^":
            # left child at power level or looser needs parens; the exponent
            # slot is a unary production, so only +- and */ need parens there
            left = _wrap(to_source(ast.left), _prec(ast.left) <= _PREC_POW)
            right = _wrap(to_source(ast.right), _prec(ast.right) < _PREC_UNARY)
            return f"{left} ^ {right}"
        level = _PREC_ADD if ast.op in "+-" else _PREC_MUL
        left = _wrap(to_source(ast.left), _prec(ast.left) < level)
        right = _wrap(to_source(ast.right), _prec(ast.right) <= level)
        return f"{left} {ast.op} {right}"
    if isinstance(ast, Call):
        return f"{ast.func}({', '.join(to_source(a) for a in ast.args)})"
    raise TypeError(f"not an Ast node: {ast!r}")
