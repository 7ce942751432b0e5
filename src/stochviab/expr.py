"""Arithmetic expressions for coordinate dynamics.

Grammar (EBNF, whitespace insignificant between tokens)::

    expr    = term   { ("+" | "-") term } ;
    term    = unary  { ("*" | "/") unary } ;
    unary   = "-" unary | atom [ "^" unary ] ;   (* "^" right associative *)
    atom    = NUMBER | NAME | NAME "(" expr { "," expr } ")" | "(" expr ")" ;
    NUMBER  = digits [ "." digits ] [ ("e"|"E") ["+"|"-"] digits ] ;
    digits  = ("0".."9") { "0".."9" } ;     (* ASCII digits only *)
    NAME    = (letter | "_") { letter | digit | "_" } ;   (* Unicode letters, digits *)

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
import re
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .model import _shown

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
    """Malformed source text; ``offset`` is the character offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownVariableError(ExprError):
    """A name not declared by the model dimensions; carries the name."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown variable {_shown(name)} (offset {offset})")
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

# Left-associative binary operator chains, loose to tight; "^" binds tighter.
_CHAINS = (("+", "-"), ("*", "/"))

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

_NUMBER = re.compile(r"[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")
_NAME = re.compile(r"\w+")  # \w is exactly str.isalnum() or "_"


@dataclass(frozen=True)
class _Token:
    kind: str  # "num", "name", "op", "eof"
    text: str
    offset: int


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    while i < len(source):
        c = source[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c in "+-*/^(),":
            kind, end = "op", i + 1
        elif "0" <= c <= "9":
            kind, end = "num", _NUMBER.match(source, i).end()
        elif c.isalpha() or c == "_":
            kind, end = "name", _NAME.match(source, i).end()
        else:
            raise ExprSyntaxError(f"unexpected character {_shown(c)}", i)
        tokens.append(_Token(kind, source[i:end], i))
        i = end
    tokens.append(_Token("eof", "", len(source)))
    return tokens


# --- parser ---


class _Parser:
    def __init__(self, tokens: list[_Token], allowed: set[str]):
        self.tokens = tokens
        self.pos = 0
        self.allowed = allowed
        self.level = 0  # nesting levels open at the current token

    def at(self, *ops: str) -> bool:
        """Whether the current token is one of the operators ``ops``."""
        tok = self.tokens[self.pos]
        return tok.kind == "op" and tok.text in ops

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def enter(self) -> str:
        """Take the current token and open one nesting level at it."""
        tok = self.advance()
        self.level += 1
        if self.level > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels",
                                  tok.offset)
        return tok.text

    def close(self) -> None:
        """Take the ')' that closes the innermost level."""
        if not self.at(")"):
            raise ExprSyntaxError("expected ')'", self.tokens[self.pos].offset)
        self.pos += 1
        self.level -= 1

    def parse_chain(self, k: int = 0) -> Ast:
        """A chain of ``_CHAINS[k]`` operators; each further operand opens a
        level, since the tree grows one deeper, and the chain's end closes them."""
        if k == len(_CHAINS):
            return self.parse_unary()
        level, node = self.level, self.parse_chain(k + 1)
        while self.at(*_CHAINS[k]):
            node = Binary(self.enter(), node, self.parse_chain(k + 1))
        self.level = level
        return node

    def parse_unary(self) -> Ast:
        if self.at("-"):
            node = Unary(self.enter(), self.parse_unary())
        else:
            node = self.parse_atom()
            if not self.at("^"):
                return node
            # the exponent admits unary minus: 2^-3
            node = Binary(self.enter(), node, self.parse_unary())
        self.level -= 1
        return node

    def parse_atom(self) -> Ast:
        if self.at("("):
            self.enter()
            node = self.parse_chain()
            self.close()
            return node
        tok = self.advance()
        if tok.kind == "num":
            value = float(tok.text)
            if not math.isfinite(value):
                raise ExprSyntaxError("numeric literal overflows a double", tok.offset)
            return Num(value)
        if tok.kind == "name":
            if self.at("("):
                return self.parse_call(tok)
            if tok.text not in self.allowed:
                raise UnknownVariableError(tok.text, tok.offset)
            return Var(tok.text)
        raise ExprSyntaxError("expected a number, name or '('", tok.offset)

    def parse_call(self, name_tok: _Token) -> Ast:
        arity = _FUNCTIONS.get(name_tok.text)
        if arity is None:
            raise ExprSyntaxError(f"unknown function {_shown(name_tok.text)}", name_tok.offset)
        self.enter()
        args = [self.parse_chain()]
        while self.at(","):
            self.advance()
            args.append(self.parse_chain())
        self.close()
        if len(args) != arity:
            raise ExprSyntaxError(
                f"'{name_tok.text}' takes {arity} argument(s), got {len(args)}",
                name_tok.offset,
            )
        return Call(name_tok.text, tuple(args))


def parse(source: str, dims: tuple[int, int, int]) -> Ast:
    """Parse ``source`` against state/control/noise dimensions ``dims = (n, p, q)``.

    Raises :class:`ExprSyntaxError` with the character offset of the problem (the
    token that opens level ``MAX_DEPTH + 1`` of a too deeply nested input), or
    :class:`UnknownVariableError` for undeclared names.
    """
    parser = _Parser(_tokenize(source), variable_names(dims))
    node = parser.parse_chain()
    tok = parser.advance()
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

# Chain k of _CHAINS binds at level k + 1, below unary "-", "^" and atoms.
_PREC_UNARY, _PREC_POW, _PREC_ATOM = len(_CHAINS) + 1, len(_CHAINS) + 2, len(_CHAINS) + 3
_CHAIN_PREC = {op: k for k, ops in enumerate(_CHAINS, 1) for op in ops}


def _prec(node: Ast) -> int:
    if isinstance(node, Binary):
        return _CHAIN_PREC.get(node.op, _PREC_POW)
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
        level = _prec(ast)
        left = _wrap(to_source(ast.left), _prec(ast.left) < level)
        right = _wrap(to_source(ast.right), _prec(ast.right) <= level)
        return f"{left} {ast.op} {right}"
    if isinstance(ast, Call):
        return f"{ast.func}({', '.join(to_source(a) for a in ast.args)})"
    raise TypeError(f"not an Ast node: {ast!r}")
