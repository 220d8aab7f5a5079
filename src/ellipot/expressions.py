"""Arithmetic expressions for coefficients and reactions.

Grammar: real literals; variables x1..x9, r (= |x|), t; binary + - * / ^
with ^ right-associative and binding tighter than unary minus; unary
minus; one- and two-argument functions exp, log, sqrt, abs, sin, cos,
min, max, pow; parentheses.  Printing emits enough parentheses that
parse(print(ast)) reproduces the AST exactly, and evaluation reports
domain violations (log of a nonpositive number, division by zero, ...)
with the 1-based source column of the offending subexpression.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ExprError

FUNCTIONS = {
    "exp": 1,
    "log": 1,
    "sqrt": 1,
    "abs": 1,
    "sin": 1,
    "cos": 1,
    "min": 2,
    "max": 2,
    "pow": 2,
}

_VAR_RE = re.compile(r"^(x[1-9]|r|t)$")

# precedence: ^ (40) > unary - (30) > * / (20) > + - (10)
_BIN_PREC = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 40}
_UNARY_PREC = 30


@dataclass(frozen=True)
class Num:
    value: float
    span: tuple = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Var:
    name: str
    span: tuple = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Unary:
    op: str
    operand: object
    span: tuple = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Binary:
    op: str
    left: object
    right: object
    span: tuple = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple
    span: tuple = field(default=None, compare=False, repr=False)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == m.start():
            rest = text[pos:]
            stripped = rest.lstrip()
            if not stripped:
                break
            col = pos + (len(rest) - len(stripped)) + 1
            raise ExprError(f"unexpected character {stripped[0]!r}", column=col)
        col = m.start(m.lastgroup) + 1
        tokens.append((m.lastgroup, m.group(m.lastgroup), col))
        pos = m.end()
    tokens.append(("end", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, text, col = self.peek()
        if kind != "op" or text != op:
            raise ExprError(f"expected {op!r}", column=col)
        return self.advance()

    def parse(self):
        node = self.expression(0)
        kind, text, col = self.peek()
        if kind != "end":
            raise ExprError(f"unexpected {text!r}", column=col)
        return node

    def expression(self, min_prec):
        node = self.prefix()
        while True:
            kind, text, col = self.peek()
            if kind != "op" or text not in _BIN_PREC:
                break
            prec = _BIN_PREC[text]
            if prec < min_prec:
                break
            self.advance()
            # right-associative ^ reuses its own precedence on the right
            right = self.expression(prec if text == "^" else prec + 1)
            node = Binary(text, node, right, span=(_start(node), _end(right)))
        return node

    def prefix(self):
        kind, text, col = self.advance()
        if kind == "num":
            return Num(float(text), span=(col, col + len(text) - 1))
        if kind == "name":
            return self.name(text, col)
        if kind == "op" and text == "-":
            operand = self.expression(_UNARY_PREC)
            return Unary("-", operand, span=(col, _end(operand)))
        if kind == "op" and text == "(":
            node = self.expression(0)
            self.expect_op(")")
            return node
        if kind == "end":
            raise ExprError("unexpected end of expression", column=col)
        raise ExprError(f"unexpected {text!r}", column=col)

    def name(self, text, col):
        kind, nxt, _ = self.peek()
        if kind == "op" and nxt == "(":
            if text not in FUNCTIONS:
                raise ExprError(f"unknown function {text!r}", column=col)
            self.advance()
            args = [self.expression(0)]
            while True:
                k, t, c = self.peek()
                if k == "op" and t == ",":
                    self.advance()
                    args.append(self.expression(0))
                else:
                    break
            close = self.expect_op(")")
            if len(args) != FUNCTIONS[text]:
                raise ExprError(
                    f"{text} takes {FUNCTIONS[text]} argument(s), got {len(args)}",
                    column=col,
                )
            return Call(text, tuple(args), span=(col, close[2]))
        if _VAR_RE.match(text):
            return Var(text, span=(col, col + len(text) - 1))
        if text in FUNCTIONS:
            raise ExprError(f"function {text!r} used without arguments", column=col)
        raise ExprError(f"unknown identifier {text!r}", column=col)


def _start(node):
    return node.span[0] if node.span else 0


def _end(node):
    return node.span[1] if node.span else 0


def parse_expr(text):
    """Parse an expression into its AST (spans carry 1-based columns)."""
    return _Parser(text).parse()


def _prec(node):
    if isinstance(node, Binary):
        return _BIN_PREC[node.op]
    if isinstance(node, Unary):
        return _UNARY_PREC
    return 100


def to_text(node):
    """Print an AST so that parsing the result reproduces it exactly."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Unary):
        inner = to_text(node.operand)
        if _prec(node.operand) < _UNARY_PREC:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Binary):
        prec = _BIN_PREC[node.op]
        left = to_text(node.left)
        right = to_text(node.right)
        if node.op == "^":
            # right-associative: parenthesize an equal-precedence left child
            if _prec(node.left) <= prec:
                left = f"({left})"
            if _prec(node.right) < prec:
                right = f"({right})"
        else:
            if _prec(node.left) < prec:
                left = f"({left})"
            if _prec(node.right) <= prec:
                right = f"({right})"
        return f"{left}{node.op}{right}"
    if isinstance(node, Call):
        return f"{node.fn}({', '.join(to_text(a) for a in node.args)})"
    raise TypeError(f"not an expression node: {node!r}")


def free_variables(node):
    """Set of variable names appearing in the AST."""
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Unary):
        return free_variables(node.operand)
    if isinstance(node, Binary):
        return free_variables(node.left) | free_variables(node.right)
    if isinstance(node, Call):
        out = set()
        for a in node.args:
            out |= free_variables(a)
        return out
    return set()


def validate_vars(node, dim, allow_t=False):
    """Reject coordinates beyond the dimension and t where it is not allowed."""
    for name in sorted(free_variables(node)):
        if name == "t":
            if not allow_t:
                raise ExprError("variable t is not available in this context")
        elif name == "r":
            continue
        else:
            k = int(name[1:])
            if k > dim:
                raise ExprError(
                    f"variable {name} exceeds the dimension ({dim})"
                )


_UNARY_FNS = {
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "sin": np.sin,
    "cos": np.cos,
}
_BINARY_FNS = {
    "min": np.minimum,
    "max": np.maximum,
    "pow": np.power,
}


def _check_domain(value, node):
    arr = np.asarray(value)
    if not np.all(np.isfinite(arr)):
        raise ExprError(
            f"domain error evaluating '{to_text(node)}'",
            column=_start(node) or None,
        )
    return value


def evaluate(node, env):
    """Evaluate with variables bound in ``env`` (scalars or arrays).

    Domain violations surface as :class:`ExprError` pointing at the
    smallest offending subexpression.
    """
    with np.errstate(all="ignore"):
        return _eval(node, env)


def _eval(node, env):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        if node.name not in env:
            raise ExprError(
                f"unbound variable {node.name!r}", column=_start(node) or None
            )
        return env[node.name]
    if isinstance(node, Unary):
        return -_eval(node.operand, env)
    if isinstance(node, Binary):
        a = _eval(node.left, env)
        b = _eval(node.right, env)
        if node.op == "+":
            out = a + b
        elif node.op == "-":
            out = a - b
        elif node.op == "*":
            out = a * b
        elif node.op == "/":
            out = np.divide(a, b)
        else:
            out = np.power(a, b)
        return _check_domain(out, node)
    if isinstance(node, Call):
        args = [_eval(a, env) for a in node.args]
        fn = _UNARY_FNS.get(node.fn) or _BINARY_FNS.get(node.fn)
        return _check_domain(fn(*args), node)
    raise TypeError(f"not an expression node: {node!r}")


def compile_point_function(expr, dim):
    """Turn an expression in the coordinates into fn(points) -> (n,).

    ``expr`` may be AST or text.  A t in it is an ``ExprError``; the one
    compiler for expressions in t is the ``[phi] rho`` profile of
    :mod:`ellipot.cli`.
    """
    node = parse_expr(expr) if isinstance(expr, str) else expr
    validate_vars(node, dim)

    def fn(points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        env = {f"x{k + 1}": points[:, k] for k in range(points.shape[1])}
        env["r"] = np.linalg.norm(points, axis=1)
        out = evaluate(node, env)
        return np.broadcast_to(np.asarray(out, dtype=float), (len(points),)).copy()

    fn.expression = to_text(node)
    return fn
