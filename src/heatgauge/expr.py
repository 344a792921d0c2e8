"""Arithmetic expressions in named coordinates.

Small closed-form expression language used everywhere else in the package:
a recursive-descent parser, exact symbolic partial derivatives, pointwise
evaluation with real-domain checking, and compilation to plain Python
functions. The passes work at DAG size: parse shares equal subtrees, and
differentiate and unparse handle a shared node once per call. One emitter
(_emit) writes straight-line code with one temporary per distinct node for
three targets: one function per expression (compile_expression), one
function returning several expressions' values as a tuple (compile_tuple,
which connection.flatness calls on a whole grid and
entropy.transport_maps on every quadrature node of every base path, with
1-D coordinate arrays, each element getting the bits of a call at its
point) and one RK4 kernel per system, straight-segment velocity pattern
and recording flag (segment_kernel, on which lift.lift_curve and
lift.lift_endpoint run every polyline segment; lift_curve records the
samples it keeps). The caches key on one structural key (_shape) that
tells signed zeros apart; compile_expression and compile_tuple share one
cache.

Supported grammar: +, -, *, /, ^ (right associative), unary minus,
parentheses, and the functions sin, cos, tan, exp, log, sqrt, abs.
"""
from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, Sequence, Union

import numpy as np


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
    if a < 0.0 and not float(b).is_integer():
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


# math.sin, math.cos and math.tan raise ValueError on an infinite argument,
# the only ValueError evaluation can meet. evaluate() and every generated
# function turn it into EvalError with this text; they catch it around the
# call or the whole body, which costs nothing until it raises.
_TRIG_DOMAIN = "trigonometric function of an infinite value"

# The checked functions by name; generated code calls each as _<name>.
_FUNCTIONS: dict[str, Callable[..., float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": _checked_exp,
    "log": _checked_log,
    "sqrt": _checked_sqrt,
    "abs": abs,
    "div": _checked_div,
    "pow": _checked_pow,
}


# compile_tuple's division over floats or 1-D arrays: it raises the scalar
# EvalError where any element of b is zero, and otherwise divides
# elementwise with the bits of a / b on floats.

def _array_div(a, b):
    if np.any(b == 0.0):
        raise EvalError("division by zero")
    return a / b


def _per_element(func: Callable[..., float]) -> Callable:
    """func on floats, or on each element of 1-D arrays of one length."""
    def each(*args):
        if not any(isinstance(a, np.ndarray) for a in args):
            return func(*args)
        return np.fromiter(map(func, *(a.tolist() if isinstance(a, np.ndarray)
                                       else itertools.repeat(a) for a in args)), float)
    return each


# compile_tuple's functions: / and abs as float or array operations, the others per element.
_TUPLE_FUNCTIONS: dict[str, Callable] = {n: _per_element(f) for n, f in _FUNCTIONS.items()}
_TUPLE_FUNCTIONS.update(abs=abs, div=_array_div)


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

# One alternative per token kind, then whitespace and any other single
# character, so that finditer reads the whole source in one pass.
_TOKEN_RE = re.compile(
    r"(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<space>\s+)"
    r"|(?P<bad>.)", re.DOTALL)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind == "space":
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((kind, m.group(), m.start()))
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.i = 0
        self.nodes: dict[tuple, Expression] = {}

    def node(self, cls: type, *fields) -> Expression:
        """cls(*fields), or the equal node this parse already made.

        Children are such shared nodes already, so they are keyed by
        identity; names and numbers are keyed by value (a parsed number is
        never -0.0 or nan).
        """
        key = (cls, *(f if isinstance(f, (str, float)) else id(f) for f in fields))
        node = self.nodes.get(key)
        if node is None:
            node = self.nodes[key] = cls(*fields)
        return node

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
                node = self.node(BinOp, text, node, self.parse_term())
            else:
                return node

    def parse_term(self) -> Expression:
        node = self.parse_unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.next()
                node = self.node(BinOp, text, node, self.parse_unary())
            else:
                return node

    def parse_unary(self) -> Expression:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.next()
            return self.node(Neg, self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expression:
        base = self.parse_atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.next()
            # right-associative; exponent may carry a unary minus
            return self.node(BinOp, "^", base, self.parse_unary())
        return base

    def parse_atom(self) -> Expression:
        kind, text, off = self.next()
        if kind == "num":
            return self.node(Const, float(text))
        if kind == "name":
            nk, nt, _ = self.peek()
            if nk == "op" and nt == "(":
                if text not in FUNCTION_NAMES:
                    raise ParseError(f"unknown function {text!r}", off)
                self.next()
                arg = self.parse_expression()
                self.expect_op(")")
                return self.node(Call, text, arg)
            return self.node(Var, text)
        if kind == "op" and text == "(":
            node = self.parse_expression()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input", off)


def parse(source: str) -> Expression:
    """Parse expression text into an AST.

    Equal subtrees are parsed into one shared node, so text that repeats a
    subexpression gives a DAG no larger than its distinct subexpressions.
    """
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
        try:
            return _FUNCTIONS[e.func](x)
        except ValueError:
            raise EvalError(_TRIG_DOMAIN) from None
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
    """Exact symbolic partial derivative with respect to a coordinate.

    A node shared in e is differentiated once per call, and its derivative
    is shared in the result.
    """
    return _derivative(e, coord, {})


def _derivative(e: Expression, coord: str, memo: dict[int, Expression]) -> Expression:
    """d e / d coord; memo maps id(node) to the derivative of node."""
    if isinstance(e, Const):
        return const(0.0)
    if isinstance(e, Var):
        return const(1.0) if e.name == coord else const(0.0)
    key = id(e)
    d = memo.get(key)
    if d is not None:
        return d
    if isinstance(e, Neg):
        d = neg(_derivative(e.arg, coord, memo))
    elif isinstance(e, BinOp):
        da = _derivative(e.left, coord, memo)
        db = _derivative(e.right, coord, memo)
        a, b = e.left, e.right
        if e.op == "+":
            d = add(da, db)
        elif e.op == "-":
            d = sub(da, db)
        elif e.op in "*/":
            # a term whose derivative factor is the constant 0 is left out,
            # so that an infinite constant factor gives no 0*inf = nan
            left = const(0.0) if _is_const(da, 0.0) else mul(da, b)
            right = const(0.0) if _is_const(db, 0.0) else mul(a, db)
            d = add(left, right) if e.op == "*" else div(sub(left, right), mul(b, b))
        # power: constant exponent gets the power rule, otherwise the
        # general rule via the logarithm (real-valued for positive base)
        elif isinstance(b, Const):
            d = mul(mul(b, pow_(a, const(b.value - 1.0))), da)
        else:
            d = mul(pow_(a, b), add(mul(db, call("log", a)), div(mul(b, da), a)))
    elif isinstance(e, Call):
        x = e.arg
        dx = _derivative(x, coord, memo)
        if e.func == "sin":
            d = mul(call("cos", x), dx)
        elif e.func == "cos":
            d = neg(mul(call("sin", x), dx))
        elif e.func == "tan":
            c = call("cos", x)
            d = div(dx, mul(c, c))
        elif e.func == "exp":
            d = mul(e, dx)
        elif e.func == "log":
            d = div(dx, x)
        elif e.func == "sqrt":
            d = div(dx, mul(const(2.0), call("sqrt", x)))
        elif e.func == "abs":
            d = mul(div(x, call("abs", x)), dx)
    if d is None:
        raise ExpressionError(f"not an expression node: {e!r}")
    memo[key] = d
    return d


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def unparse(e: Expression) -> str:
    """Render the expression as parseable text.

    Each distinct node is rendered once per call, however often it is shared.
    """
    return _unparse(e, {})[0]


def _unparse(node: Expression, memo: dict[int, tuple[str, int]]) -> tuple[str, int]:
    """node's text without enclosing parentheses, and its precedence;
    memo maps id(node) to that pair. It recurses once per level of
    nesting, so it reaches as deep as the other recursive passes."""
    done = memo.get(id(node))
    if done is not None:
        return done
    if isinstance(node, Const):
        v = node.value
        done = (repr(v) if v >= 0 else f"({v!r})"), _PREC["atom"]
    elif isinstance(node, Var):
        done = node.name, _PREC["atom"]
    elif isinstance(node, Neg):
        done = f"-{_operand(_unparse(node.arg, memo), _PREC['neg'])}", _PREC["neg"]
    elif isinstance(node, Call):
        done = f"{node.func}({_unparse(node.arg, memo)[0]})", _PREC["atom"]
    else:
        prec = _PREC[node.op]
        left, right = _unparse(node.left, memo), _unparse(node.right, memo)
        if node.op == "^":  # right-associative
            left, right = _operand(left, prec + 1), _operand(right, prec)
        else:
            left, right = _operand(left, prec), _operand(right, prec + 1)
        done = (f"{left} {node.op} {right}" if node.op in "+-" else f"{left}{node.op}{right}"), prec
    memo[id(node)] = done
    return done


def _operand(rendered: tuple[str, int], parent_prec: int) -> str:
    """Text of a rendered operand, in parentheses if it binds looser than its parent."""
    text, prec = rendered
    return f"({text})" if parent_prec > prec else text


# ---------------------------------------------------------------------------
# Compilation: one emitter, three targets

def _shape(e: Expression) -> tuple:
    """Structural key of an expression; both compile caches key on it.

    Constants are keyed by float.hex: dataclass equality has
    Const(0.0) == Const(-0.0), yet x + 0.0 and x + -0.0 differ at x = -0.0.
    Each node keeps its key in __dict__, outside the dataclass fields, and
    a key holds its children's keys: a DAG's key is as large as the DAG.
    """
    shape = e.__dict__.get("_shape")
    if shape is None:
        if isinstance(e, Const):
            shape = ("c", float(e.value).hex())
        elif isinstance(e, Var):
            shape = ("v", e.name)
        elif isinstance(e, Neg):
            shape = ("neg", _shape(e.arg))
        elif isinstance(e, Call):
            shape = ("call", e.func, _shape(e.arg))
        else:
            shape = (e.op, _shape(e.left), _shape(e.right))
        e.__dict__["_shape"] = shape
    return shape


_CHECKED_OPS = {"/": "div", "^": "pow"}


def _emit(root: tuple, leaf: Callable[[str], tuple[str, bool]],
          memo: dict[int | str, tuple[str, bool]], lines: list[tuple[str, str]],
          prefix: str) -> tuple[str, bool]:
    """Append (temporary, code) to lines for each non-leaf node of root,
    in evaluation post-order, and return the root's text and whether it
    varies. leaf(name) gives a variable's text and whether it varies; a
    node varies if a leaf under it does.

    memo grows as nodes are emitted. It maps each node's code to the
    node's result: a node's code is written in its operands' temporaries,
    so equal code means an equal node, which reuses that temporary. It
    also maps id(node) to the result, so that a node reached again by
    identity is not walked again; such nodes must outlive memo.
    """

    def go(node: tuple) -> tuple[str, bool]:
        tag = node[0]
        if tag == "c":
            value = float.fromhex(node[1])
            return (repr(value) if math.isfinite(value) else f"float('{value!r}')"), False
        if tag == "v":
            return leaf(node[1])
        done = memo.get(id(node))
        if done is not None:
            return done
        if tag == "neg":
            arg, varies = go(node[1])
            code = f"-{arg}"
        elif tag == "call":
            arg, varies = go(node[2])
            code = f"_{node[1]}({arg})"
        else:
            (left, left_varies), (right, right_varies) = go(node[1]), go(node[2])
            varies = left_varies or right_varies
            func = _CHECKED_OPS.get(tag)
            code = f"_{func}({left}, {right})" if func else f"{left} {tag} {right}"
        done = memo.get(code)
        if done is None:
            done = memo[code] = (f"{prefix}{len(lines)}", varies)
            lines.append((done[0], code))
        memo[id(node)] = done
        return done

    return go(root)


def _define(name: str, params: str, body: list[str],
            functions: Mapping[str, Callable] = _FUNCTIONS) -> Callable[..., float]:
    """Execute one generated function definition against functions."""
    namespace = {f"_{func}": impl for func, impl in functions.items()}
    namespace["_EvalError"] = EvalError
    source = "\n    ".join([f"def {name}({params}):", "try:", *("    " + line for line in body),
                            "except ValueError:",
                            f"    raise _EvalError({_TRIG_DOMAIN!r}) from None"]) + "\n"
    exec(source, namespace)  # noqa: S102 - generated from a closed AST, no user code
    return namespace[name]


def compile_expression(e: Expression, coords: tuple[str, ...]) -> Callable[..., float]:
    """Compile to a Python function taking coordinate values positionally.

    Coordinate names are mapped to positional slots, so any identifier is a
    legal coordinate name. Values and EvalErrors match evaluate() bit for
    bit. Cached by the structural key of e and coords, as by lru_cache.
    """
    try:
        return _compile(_shape(e), tuple(coords))
    except KeyError:  # a variable with no slot
        raise _unbound([e], coords) from None


def compile_tuple(expressions: Sequence[Expression],
                  coords: tuple[str, ...]) -> Callable[..., tuple[float, ...]]:
    """Compile several expressions into one function that returns their
    values as a tuple, computing the subexpressions they share once.

    The expressions are computed in order, so values and the first
    EvalError match evaluate() on each in turn, bit for bit. Given 1-D
    arrays, + - * / and negation run vectorised and the checked functions
    (sin cos tan exp log sqrt ^) run their scalar code per element, so
    each element has the bits of a call at its point. Shares
    compile_expression's cache, keyed by the expressions' structural keys.
    """
    try:
        return _compile(("tuple", *map(_shape, expressions)), tuple(coords))
    except KeyError:
        raise _unbound(expressions, coords) from None


def _unbound(expressions: Sequence[Expression], coords: tuple[str, ...]) -> ExpressionError:
    unknown = sorted(set().union(*map(variables, expressions)) - set(coords))
    return ExpressionError(f"unbound variables {unknown} for coordinates {list(coords)}")


@lru_cache(maxsize=4096)
def _compile(shape: tuple, coords: tuple[str, ...]) -> Callable[..., float]:
    """The function for one shape, or, for ("tuple", *shapes), the tuple of
    their values from one function with one memo."""
    slots = {c: f"_x{i}" for i, c in enumerate(coords)}
    lines: list[tuple[str, str]] = []
    memo: dict[int | str, tuple[str, bool]] = {}
    is_tuple = shape[0] == "tuple"
    roots = [_emit(item, lambda name: (slots[name], False), memo, lines, "e")[0]
             for item in (shape[1:] if is_tuple else (shape,))]
    if is_tuple:
        result = "(" + "".join(f"{root}, " for root in roots) + ")"
    elif lines:
        result = lines.pop()[1]  # the root node's code, returned directly
    else:
        result = roots[0]
    body = [f"{name} = {code}" for name, code in lines] + [f"return {result}"]
    params = ", ".join(slots[c] for c in coords)
    return _define("_compiled", params, body, _TUPLE_FUNCTIONS if is_tuple else _FUNCTIONS)


compile_expression.cache_info = _compile.cache_info
compile_expression.cache_clear = _compile.cache_clear


def segment_kernel(coefficients: tuple[Expression, ...], coords: tuple[str, ...],
                   mask: tuple[bool, ...], record: bool = False) -> Callable[..., float]:
    """RK4 over one straight polyline segment, as one generated function.

    coords[0] is the fibre coordinate U and coords[1:] the base
    coordinates, one coefficient P_i per base coordinate. mask[i] is
    False where the segment's velocity component d_i is zero; those
    coefficients are not evaluated. The kernel is called as
    kernel(a, d, k, u, n): segment k of a polyline runs over t in
    [k, k + 1] from base point a with velocity d, and the kernel takes n
    classical RK4 steps of dU/dt = sum_i P_i(U, a + (t - k) d) d_i from
    height u and returns the end height. With record, it returns
    (end height, times, heights) instead: the n + 1 sample times k and
    k + (j+1)*h and the heights there, from u on.

    Kernels are generated on first use and cached by the structural keys
    of the coefficients, the coordinates, the mask and record.
    """
    return _segment_kernel(tuple(_shape(p) for p in coefficients), tuple(coords),
                           tuple(mask), bool(record))


# The kernel performs the same IEEE operations, in the same order, as
# lift._rk4 with the compiled coefficients, and so raises the same first
# EvalError:
# - _emit, as for compile_expression: one temporary per non-leaf node in
#   evaluation post-order, a node already computed in the same stage
#   reused, and _div, _pow and the checked functions kept as calls;
# - k3 reuses the temporaries of k2 that do not depend on U (same
#   midpoint); k4 and the next step's k1 share nothing, as t + h and
#   t0 + (j+1)*h round differently;
# - each stage sums 0.0 + P_i * d_i in coefficient order over the
#   masked coefficients; positions are a_i + (t - k) * d_i;
# - a recording kernel appends t0 + (j+1)*h and the new height after
#   each step, as _rk4 does.
@lru_cache(maxsize=1024)
def _segment_kernel(shapes: tuple[tuple, ...], coords: tuple[str, ...],
                    mask: tuple[bool, ...], record: bool) -> Callable[..., float]:
    vertical = coords[0]
    base = {c: i for i, c in enumerate(coords[1:])}
    terms = [(shape, f"d{i}") for i, (shape, on) in enumerate(zip(shapes, mask)) if on]
    used: set[int] = set()

    def stage(number: int, u_name: str, memo: dict[int | str, tuple[str, bool]]) -> list[str]:
        """Lines computing k<number>; memo grows as nodes are emitted."""
        def leaf(name: str) -> tuple[str, bool]:
            if name == vertical:
                return u_name, True
            if name not in base:
                raise ExpressionError(f"variable {name!r} is not a coordinate")
            used.add(base[name])
            return f"x{base[name]}", False

        lines: list[tuple[str, str]] = []
        total = " + ".join(["0.0"] + [f"{_emit(shape, leaf, memo, lines, f'e{number}_')[0]} * {dv}"
                                      for shape, dv in terms])
        return [f"{name} = {code}" for name, code in lines] + [f"k{number} = {total}"]

    def positions(t: str) -> list[str]:
        return [f"s = {t} - k"] + [f"x{i} = a{i} + s * d{i}" for i in sorted(used)]

    # the stages come first: the positions need the set of base coordinates used
    k1 = stage(1, "u", {})
    midpoint: dict[int | str, tuple[str, bool]] = {}
    k2 = stage(2, "w", midpoint)
    k3 = stage(3, "w", {key: v for key, v in midpoint.items() if not v[1]})
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
        *(["ts.append(t0 + (j + 1) * h)", "us.append(u)"] if record else []),
    ]
    return _define("_segment", "a, d, k, u, n", [
        "".join(f"a{i}, " for i in range(m)) + "= a",
        "".join(f"d{i}, " for i in range(m)) + "= d",
        "t0 = float(k)",
        "h = (float(k + 1) - t0) / n",
        "half = 0.5 * h",
        "sixth = h / 6.0",
        *(["ts = [t0]", "us = [u]"] if record else []),
        "for j in range(n):",
        *("    " + line for line in steps),
        "return u, ts, us" if record else "return u",
    ])
