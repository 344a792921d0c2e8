"""Arithmetic expressions in named coordinates.

Small closed-form expression language used everywhere else in the package:
a recursive-descent parser, exact symbolic partial derivatives, pointwise
evaluation with real-domain checking, and compilation to plain Python
functions for fast repeated numeric evaluation: one function per
expression, or one generated RK4 kernel per system and straight-segment
velocity pattern (segment_kernel).

Supported grammar: +, -, *, /, ^ (right associative), unary minus,
parentheses, and the functions sin, cos, tan, exp, log, sqrt, abs.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, Union


class ExpressionError(Exception):
    """Base error for expression handling."""


class ParseError(ExpressionError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalError(ExpressionError):
    """Raised on evaluation outside the real domain or with unbound variables."""


# ---------------------------------------------------------------------------
# AST nodes

@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expression"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expression"


Expression = Union[Const, Var, Neg, BinOp, Call]

FUNCTION_NAMES = ("sin", "cos", "tan", "exp", "log", "sqrt", "abs")


# ---------------------------------------------------------------------------
# Checked real arithmetic shared by the evaluator and compiled functions

def _checked_div(a: float, b: float) -> float:
    if b == 0.0:
        raise EvalError("division by zero")
    return a / b


def _checked_pow(a: float, b: float) -> float:
    if a < 0.0 and b != int(b):
        raise EvalError("negative base with non-integer exponent")
    if a == 0.0 and b < 0.0:
        raise EvalError("zero base with negative exponent")
    try:
        return float(a ** b)
    except OverflowError as exc:
        raise EvalError("overflow in power") from exc


def _checked_log(x: float) -> float:
    if x <= 0.0:
        raise EvalError("log of non-positive value")
    return math.log(x)


def _checked_sqrt(x: float) -> float:
    if x < 0.0:
        raise EvalError("sqrt of negative value")
    return math.sqrt(x)


def _checked_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError as exc:
        raise EvalError("overflow in exp") from exc


_FUNCTION_IMPL: dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": _checked_exp,
    "log": _checked_log,
    "sqrt": _checked_sqrt,
    "abs": abs,
}


# ---------------------------------------------------------------------------
# Smart constructors (light constant folding; used by differentiate, not
# by the parser, so parsed trees keep their literal shape)

def const(x: float) -> Const:
    return Const(float(x))


def var(name: str) -> Var:
    return Var(name)


def _is_const(e: Expression, v: float | None = None) -> bool:
    return isinstance(e, Const) and (v is None or e.value == v)


def add(a: Expression, b: Expression) -> Expression:
    if _is_const(a) and _is_const(b):
        return const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return BinOp("+", a, b)


def sub(a: Expression, b: Expression) -> Expression:
    if _is_const(a) and _is_const(b):
        return const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return BinOp("-", a, b)


def mul(a: Expression, b: Expression) -> Expression:
    if _is_const(a) and _is_const(b):
        return const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return BinOp("*", a, b)


def div(a: Expression, b: Expression) -> Expression:
    if _is_const(a, 0.0):
        return const(0.0)
    if _is_const(b, 1.0):
        return a
    return BinOp("/", a, b)


def pow_(a: Expression, b: Expression) -> Expression:
    if _is_const(b, 1.0):
        return a
    if _is_const(b, 0.0):
        return const(1.0)
    return BinOp("^", a, b)


def neg(a: Expression) -> Expression:
    if _is_const(a):
        return const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def call(func: str, arg: Expression) -> Expression:
    if func not in FUNCTION_NAMES:
        raise ExpressionError(f"unknown function {func!r}")
    return Call(func, arg)


# ---------------------------------------------------------------------------
# Parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(source) - len(stripped)
            raise ParseError(f"unexpected character {source[bad_at]!r}", bad_at)
        for kind in ("num", "name", "op"):
            text = m.group(kind)
            if text is not None:
                tokens.append((kind, text, m.start(kind)))
                break
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", off)
        self.next()

    def parse_expression(self) -> Expression:
        node = self.parse_term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.next()
                node = BinOp(text, node, self.parse_term())
            else:
                return node

    def parse_term(self) -> Expression:
        node = self.parse_unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.next()
                node = BinOp(text, node, self.parse_unary())
            else:
                return node

    def parse_unary(self) -> Expression:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.next()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expression:
        base = self.parse_atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.next()
            # right-associative; exponent may carry a unary minus
            return BinOp("^", base, self.parse_unary())
        return base

    def parse_atom(self) -> Expression:
        kind, text, off = self.next()
        if kind == "num":
            return Const(float(text))
        if kind == "name":
            nk, nt, _ = self.peek()
            if nk == "op" and nt == "(":
                if text not in FUNCTION_NAMES:
                    raise ParseError(f"unknown function {text!r}", off)
                self.next()
                arg = self.parse_expression()
                self.expect_op(")")
                return Call(text, arg)
            return Var(text)
        if kind == "op" and text == "(":
            node = self.parse_expression()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input", off)


def parse(source: str) -> Expression:
    """Parse expression text into an AST."""
    if not source or not source.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(_tokenize(source))
    node = parser.parse_expression()
    kind, text, off = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input starting with {text!r}", off)
    return node


def as_expression(e: "Expression | str | float | int") -> Expression:
    """Coerce text or a number into an Expression."""
    if isinstance(e, (Const, Var, Neg, BinOp, Call)):
        return e
    if isinstance(e, str):
        return parse(e)
    if isinstance(e, (int, float)):
        return const(e)
    raise ExpressionError(f"cannot interpret {e!r} as an expression")


# ---------------------------------------------------------------------------
# Evaluation, differentiation, printing

def evaluate(e: Expression, env: Mapping[str, float]) -> float:
    """Evaluate at a point given by a name -> value mapping."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return float(env[e.name])
        except KeyError:
            raise EvalError(f"unbound variable {e.name!r}") from None
    if isinstance(e, Neg):
        return -evaluate(e.arg, env)
    if isinstance(e, BinOp):
        a = evaluate(e.left, env)
        b = evaluate(e.right, env)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            return _checked_div(a, b)
        return _checked_pow(a, b)
    if isinstance(e, Call):
        x = evaluate(e.arg, env)
        if e.func == "abs":
            return abs(x)
        return _FUNCTION_IMPL[e.func](x)
    raise ExpressionError(f"not an expression node: {e!r}")


def variables(e: Expression) -> frozenset[str]:
    if isinstance(e, Const):
        return frozenset()
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Neg):
        return variables(e.arg)
    if isinstance(e, Call):
        return variables(e.arg)
    return variables(e.left) | variables(e.right)


def substitute(e: Expression, bindings: Mapping[str, Expression]) -> Expression:
    """Replace variables by expressions."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return bindings.get(e.name, e)
    if isinstance(e, Neg):
        return neg(substitute(e.arg, bindings))
    if isinstance(e, Call):
        return Call(e.func, substitute(e.arg, bindings))
    return BinOp(e.op, substitute(e.left, bindings), substitute(e.right, bindings))


def differentiate(e: Expression, coord: str) -> Expression:
    """Exact symbolic partial derivative with respect to a coordinate."""
    if isinstance(e, Const):
        return const(0.0)
    if isinstance(e, Var):
        return const(1.0) if e.name == coord else const(0.0)
    if isinstance(e, Neg):
        return neg(differentiate(e.arg, coord))
    if isinstance(e, BinOp):
        da = differentiate(e.left, coord)
        db = differentiate(e.right, coord)
        a, b = e.left, e.right
        if e.op == "+":
            return add(da, db)
        if e.op == "-":
            return sub(da, db)
        if e.op == "*":
            return add(mul(da, b), mul(a, db))
        if e.op == "/":
            return div(sub(mul(da, b), mul(a, db)), mul(b, b))
        # power: constant exponent gets the power rule, otherwise the
        # general rule via the logarithm (real-valued for positive base)
        if isinstance(b, Const):
            return mul(mul(b, pow_(a, const(b.value - 1.0))), da)
        return mul(pow_(a, b), add(mul(db, call("log", a)), div(mul(b, da), a)))
    if isinstance(e, Call):
        x = e.arg
        dx = differentiate(x, coord)
        if e.func == "sin":
            return mul(call("cos", x), dx)
        if e.func == "cos":
            return neg(mul(call("sin", x), dx))
        if e.func == "tan":
            c = call("cos", x)
            return div(dx, mul(c, c))
        if e.func == "exp":
            return mul(e, dx)
        if e.func == "log":
            return div(dx, x)
        if e.func == "sqrt":
            return div(dx, mul(const(2.0), call("sqrt", x)))
        if e.func == "abs":
            return mul(div(x, call("abs", x)), dx)
    raise ExpressionError(f"not an expression node: {e!r}")


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def unparse(e: Expression) -> str:
    """Render the expression as parseable text."""

    def go(node: Expression, parent_prec: int) -> str:
        if isinstance(node, Const):
            v = node.value
            return repr(v) if v >= 0 else f"({v!r})"
        if isinstance(node, Var):
            return node.name
        if isinstance(node, Neg):
            text = f"-{go(node.arg, _PREC['neg'])}"
            return f"({text})" if parent_prec > _PREC["neg"] else text
        if isinstance(node, Call):
            return f"{node.func}({go(node.arg, 0)})"
        prec = _PREC[node.op]
        if node.op == "^":
            # right-associative
            left = go(node.left, prec + 1)
            right = go(node.right, prec)
        else:
            left = go(node.left, prec)
            right = go(node.right, prec + 1)
        text = f"{left} {node.op} {right}" if node.op in "+-" else f"{left}{node.op}{right}"
        return f"({text})" if parent_prec > prec else text

    return go(e, 0)


# ---------------------------------------------------------------------------
# Compilation to plain Python functions

def _emit(e: Expression, names: Mapping[str, str]) -> str:
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        try:
            return names[e.name]
        except KeyError:
            raise ExpressionError(f"variable {e.name!r} is not a coordinate") from None
    if isinstance(e, Neg):
        return f"(-{_emit(e.arg, names)})"
    if isinstance(e, BinOp):
        left = _emit(e.left, names)
        right = _emit(e.right, names)
        if e.op == "/":
            return f"_div({left}, {right})"
        if e.op == "^":
            return f"_pow({left}, {right})"
        return f"({left} {e.op} {right})"
    return f"_{e.func}({_emit(e.arg, names)})"


_COMPILE_GLOBALS = {
    "_sin": math.sin,
    "_cos": math.cos,
    "_tan": math.tan,
    "_exp": _checked_exp,
    "_log": _checked_log,
    "_sqrt": _checked_sqrt,
    "_abs": abs,
    "_div": _checked_div,
    "_pow": _checked_pow,
}


@lru_cache(maxsize=4096)
def compile_expression(e: Expression, coords: tuple[str, ...]) -> Callable[..., float]:
    """Compile to a Python function taking coordinate values positionally.

    Coordinate names are mapped to positional slots, so any identifier is a
    legal coordinate name. Domain violations raise EvalError, matching
    evaluate().
    """
    unknown = variables(e) - set(coords)
    if unknown:
        raise ExpressionError(f"unbound variables {sorted(unknown)} for coordinates {list(coords)}")
    names = {c: f"_x{i}" for i, c in enumerate(coords)}
    args = ", ".join(names[c] for c in coords)
    src = f"def _compiled({args}):\n    return {_emit(e, names)}\n"
    namespace = dict(_COMPILE_GLOBALS)
    exec(src, namespace)  # noqa: S102 - generated from a closed AST, no user code
    return namespace["_compiled"]


# ---------------------------------------------------------------------------
# Generated RK4 kernels for straight segments

def _shape(e: Expression) -> tuple:
    """Structural key of an expression tree.

    Constants are keyed by float.hex: dataclass equality has
    Const(0.0) == Const(-0.0), yet x + 0.0 and x + -0.0 differ at x = -0.0.
    """
    if isinstance(e, Const):
        return ("c", float(e.value).hex())
    if isinstance(e, Var):
        return ("v", e.name)
    if isinstance(e, Neg):
        return ("neg", _shape(e.arg))
    if isinstance(e, Call):
        return ("call", e.func, _shape(e.arg))
    return (e.op, _shape(e.left), _shape(e.right))


def segment_kernel(coefficients: tuple[Expression, ...], coords: tuple[str, ...],
                   mask: tuple[bool, ...]) -> Callable[..., float]:
    """RK4 over one straight polyline segment, as one generated function.

    coords[0] is the fibre coordinate U and coords[1:] the base
    coordinates, one coefficient P_i per base coordinate. mask[i] is
    False where the segment's velocity component d_i is zero; those
    coefficients are not evaluated. The kernel is called as
    kernel(a, d, k, u, n): segment k of a polyline runs over t in
    [k, k + 1] from base point a with velocity d, and the kernel takes n
    classical RK4 steps of dU/dt = sum_i P_i(U, a + (t - k) d) d_i from
    height u and returns the end height.

    Kernels are generated on first use and cached by the structure of
    the coefficients, the coordinates and the mask.
    """
    return _segment_kernel(tuple(_shape(p) for p in coefficients), tuple(coords),
                           tuple(mask))


# The kernel performs the same IEEE operations, in the same order, as
# lift._rk4 with the compiled coefficients, and so raises the same first
# EvalError:
# - one temporary per non-leaf node, emitted in evaluation post-order;
#   a node already computed in the same stage is reused, and k3 reuses
#   the temporaries of k2 that do not depend on U (same midpoint); k4
#   and the next step's k1 share nothing, as t + h and t0 + (j+1)*h
#   round differently;
# - _div, _pow and the checked functions stay calls;
# - each stage sums 0.0 + P_i * d_i in coefficient order over the
#   masked coefficients; positions are a_i + (t - k) * d_i.
@lru_cache(maxsize=1024)
def _segment_kernel(shapes: tuple[tuple, ...], coords: tuple[str, ...],
                    mask: tuple[bool, ...]) -> Callable[..., float]:
    vertical = coords[0]
    base = {c: i for i, c in enumerate(coords[1:])}
    terms = [(shape, f"d{i}") for i, (shape, on) in enumerate(zip(shapes, mask)) if on]
    used: set[int] = set()

    def stage(number: int, u_name: str, memo: dict[tuple, tuple[str, bool]]) -> list[str]:
        """Lines computing k<number>; memo maps computed nodes to their
        temporaries and grows as nodes are emitted."""
        lines: list[str] = []

        def emit(node: tuple) -> tuple[str, bool]:
            """Text of the node's value and whether it depends on U."""
            tag = node[0]
            if tag == "c":
                return repr(float.fromhex(node[1])), False
            if tag == "v":
                if node[1] == vertical:
                    return u_name, True
                if node[1] not in base:
                    raise ExpressionError(f"variable {node[1]!r} is not a coordinate")
                used.add(base[node[1]])
                return f"x{base[node[1]]}", False
            if node in memo:
                return memo[node]
            if tag == "neg":
                arg, dep = emit(node[1])
                code = f"-{arg}"
            elif tag == "call":
                arg, dep = emit(node[2])
                code = f"_{node[1]}({arg})"
            else:
                (left, dep_l), (right, dep_r) = emit(node[1]), emit(node[2])
                dep = dep_l or dep_r
                if tag == "/":
                    code = f"_div({left}, {right})"
                elif tag == "^":
                    code = f"_pow({left}, {right})"
                else:
                    code = f"{left} {tag} {right}"
            name = f"e{number}_{len(lines)}"
            lines.append(f"{name} = {code}")
            memo[node] = (name, dep)
            return memo[node]

        total = " + ".join(["0.0"] + [f"{emit(shape)[0]} * {dv}" for shape, dv in terms])
        lines.append(f"k{number} = {total}")
        return lines

    def positions(t: str) -> list[str]:
        return [f"s = {t} - k"] + [f"x{i} = a{i} + s * d{i}" for i in sorted(used)]

    # the stages come first: the positions need the set of base coordinates used
    k1 = stage(1, "u", {})
    midpoint: dict[tuple, tuple[str, bool]] = {}
    k2 = stage(2, "w", midpoint)
    k3 = stage(3, "w", {node: v for node, v in midpoint.items() if not v[1]})
    k4 = stage(4, "w", {})
    m = len(coords) - 1
    steps = [
        "t = t0 + j * h",
        *positions("t"), *k1,
        *positions("t + half"),
        "w = u + half * k1", *k2,
        "w = u + half * k2", *k3,
        *positions("t + h"),
        "w = u + h * k3", *k4,
        "u = u + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)",
    ]
    src = "\n".join([
        "def _segment(a, d, k, u, n):",
        "    " + "".join(f"a{i}, " for i in range(m)) + "= a",
        "    " + "".join(f"d{i}, " for i in range(m)) + "= d",
        "    t0 = float(k)",
        "    h = (float(k + 1) - t0) / n",
        "    half = 0.5 * h",
        "    sixth = h / 6.0",
        "    for j in range(n):",
        *("        " + line for line in steps),
        "    return u",
        "",
    ])
    namespace = dict(_COMPILE_GLOBALS)
    exec(src, namespace)  # noqa: S102 - generated from a closed AST, no user code
    return namespace["_segment"]
