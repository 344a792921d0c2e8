import math
import random
import re
import warnings
import weakref

import numpy as np
import pytest

from heatgauge import expr
from heatgauge.expr import (BinOp, Call, Const, EvalError, Neg, ParseError, Var,
                            compile_expression, compile_tuple,
                            differentiate, evaluate, parse, unparse)

from conftest import random_expression, random_point


class TestParse:
    def test_single_token_unary_minus(self):
        assert parse("-V2") == Neg(Var("V2"))

    def test_precedence_shape(self):
        assert parse("2*U/(3*V)") == BinOp(
            "/", BinOp("*", Const(2.0), Var("U")), BinOp("*", Const(3.0), Var("V")))

    def test_function_call_shape(self):
        assert parse("1 + 0.5*cos(theta)") == BinOp(
            "+", Const(1.0), BinOp("*", Const(0.5), Call("cos", Var("theta"))))

    def test_equal_subtrees_are_one_node(self):
        e = parse("sin(x*y)/(2 + x*y) - sin(x*y)")
        assert e.left.left is e.right
        assert e.left.left.arg is e.left.right.right
        assert e == BinOp("-", BinOp("/", Call("sin", BinOp("*", Var("x"), Var("y"))),
                                     BinOp("+", Const(2.0), BinOp("*", Var("x"), Var("y")))),
                          Call("sin", BinOp("*", Var("x"), Var("y"))))

    def test_power_right_assoc(self):
        assert parse("2^3^2") == BinOp("^", Const(2.0), BinOp("^", Const(3.0), Const(2.0)))
        assert evaluate(parse("2^3^2"), {}) == 512.0

    def test_power_binds_tighter_than_unary_minus(self):
        assert evaluate(parse("-2^2"), {}) == -4.0

    def test_left_assoc_subtraction(self):
        assert evaluate(parse("10 - 4 - 3"), {}) == 3.0

    def test_whitespace_insensitive(self):
        assert parse(" 1+ 2 * V ") == parse("1+2*V")

    @pytest.mark.parametrize("bad", ["", "   ", "1 +", "(1", "2 @ 3", "sin 3", "foo(2)"])
    def test_errors(self, bad):
        with pytest.raises(ParseError):
            parse(bad)

    def test_error_offset(self):
        with pytest.raises(ParseError) as info:
            parse("1 + $")
        assert info.value.offset == 4

    def test_unknown_function_rejected(self):
        with pytest.raises(ParseError, match="unknown function"):
            parse("sinh(x)")


# The tokenizer as it was before its one-pass form: one match per token
# after optional whitespace, and str.lstrip to find a bad character.
_REFERENCE_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _reference_tokenize(source):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _REFERENCE_TOKEN_RE.match(source, pos)
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


def _tokens_or_error(tokenize, source):
    try:
        return tokenize(source)
    except ParseError as exc:
        return str(exc), exc.offset


class TestTokenize:
    # digits, number and operator characters, letters, a character no
    # token starts with, an Arabic-Indic digit (\d matches it) and
    # whitespace that \s and str.isspace both know
    ALPHABET = "0123456789.eE+-*/^()xyUV_$\u0663 \t\n\x0b\x0c\u3000"

    def test_same_tokens_or_error_as_the_reference(self):
        rng = random.Random(7)
        errors = 0
        for _ in range(20000):
            source = "".join(rng.choices(self.ALPHABET, k=rng.randrange(13)))
            want = _tokens_or_error(_reference_tokenize, source)
            assert _tokens_or_error(expr._tokenize, source) == want, repr(source)
            errors += isinstance(want[0], str)
        assert 2000 < errors < 18000


class TestEvaluate:
    def test_direct_arithmetic(self):
        assert evaluate(parse("2*U/(3*V)"), {"U": 3, "V": 2}) == 1.0

    def test_negation(self):
        assert evaluate(parse("-V2"), {"V2": 4, "V1": 99}) == -4.0

    def test_division_by_zero(self):
        with pytest.raises(EvalError):
            evaluate(parse("1/V"), {"V": 0})

    def test_log_domain(self):
        with pytest.raises(EvalError):
            evaluate(parse("log(U)"), {"U": -1})
        with pytest.raises(EvalError):
            evaluate(parse("log(U)"), {"U": 0})

    def test_sqrt_domain(self):
        with pytest.raises(EvalError):
            evaluate(parse("sqrt(U)"), {"U": -0.5})

    def test_fractional_power_of_negative_base(self):
        with pytest.raises(EvalError):
            evaluate(parse("U^0.5"), {"U": -2})
        assert evaluate(parse("U^3"), {"U": -2}) == -8.0

    def test_unbound_variable(self):
        with pytest.raises(EvalError, match="unbound"):
            evaluate(parse("U + V"), {"U": 1})

    def test_functions(self):
        assert evaluate(parse("sin(0) + cos(0) + exp(0) + sqrt(4) + abs(-2)"), {}) == 6.0
        assert evaluate(parse("log(exp(1))"), {}) == pytest.approx(1.0)

    def test_compiled_matches_evaluate(self, rng):
        for _ in range(100):
            e = random_expression(rng, ["x", "y"])
            fn = compile_expression(e, ("x", "y"))
            p = random_point(rng, ["x", "y"])
            try:
                expected = evaluate(e, p)
            except EvalError:
                with pytest.raises(EvalError):
                    fn(p["x"], p["y"])
                continue
            assert fn(p["x"], p["y"]) == pytest.approx(expected, rel=1e-14, abs=1e-14)


def central_difference(e, coord, point, h):
    up = dict(point)
    dn = dict(point)
    up[coord] += h
    dn[coord] -= h
    return (evaluate(e, up) - evaluate(e, dn)) / (2 * h)


class TestDifferentiate:
    def test_constant_result(self):
        d = differentiate(parse("-V2"), "V2")
        assert evaluate(d, {"V2": 7.0}) == -1.0

    def test_quotient(self):
        d = differentiate(parse("2*U/(3*V)"), "U")
        for v in (0.5, 1.0, 2.0):
            assert evaluate(d, {"U": 5.0, "V": v}) == pytest.approx(2 / (3 * v))

    def test_other_coordinate_is_zero(self):
        d = differentiate(parse("sin(V1)*V2"), "V3")
        assert evaluate(d, {"V1": 0.3, "V2": 0.7, "V3": 1.0}) == 0.0

    def test_matches_finite_difference(self, rng):
        checked = 0
        while checked < 200:
            e = random_expression(rng, ["x", "y"])
            p = random_point(rng, ["x", "y"])
            try:
                d = evaluate(differentiate(e, "x"), p)
                h = 1e-6 * max(1.0, abs(p["x"]))
                fd = central_difference(e, "x", p, h)
            except EvalError:
                continue
            scale = max(1.0, abs(d), abs(fd))
            assert abs(d - fd) / scale < 1e-6, f"{unparse(e)} at {p}"
            checked += 1

    def test_linearity(self, rng):
        for _ in range(50):
            e1 = random_expression(rng, ["x"])
            e2 = random_expression(rng, ["x"])
            a = rng.uniform(-2, 2)
            combined = BinOp("+", BinOp("*", Const(a), e1), e2)
            p = random_point(rng, ["x"])
            try:
                left = evaluate(differentiate(combined, "x"), p)
                right = (a * evaluate(differentiate(e1, "x"), p)
                         + evaluate(differentiate(e2, "x"), p))
            except EvalError:
                continue
            assert left == pytest.approx(right, rel=1e-12, abs=1e-12)

    def test_general_power_rule(self):
        # d/dx x^x = x^x (log x + 1)
        d = differentiate(parse("x^x"), "x")
        x = 1.7
        assert evaluate(d, {"x": x}) == pytest.approx(x ** x * (math.log(x) + 1))

    @pytest.mark.parametrize("source", ["1e999*V2", "V2*1e999", "1e999/V2", "V2/(1e999*V1)"])
    def test_zero_derivative_factor_drops_its_term(self, source):
        # d/dU of each is 0: no term multiplies a zero derivative by 1e999
        assert differentiate(parse(source), "U") == Const(0.0)

    def test_abs_derivative(self):
        d = differentiate(parse("abs(x)"), "x")
        assert evaluate(d, {"x": 2.5}) == 1.0
        assert evaluate(d, {"x": -2.5}) == -1.0


class TestUnparse:
    def test_round_trip_evaluates_identically(self, rng):
        for _ in range(100):
            e = random_expression(rng, ["x", "y"])
            reparsed = parse(unparse(e))
            for _ in range(5):
                p = random_point(rng, ["x", "y"])
                try:
                    expected = evaluate(e, p)
                except EvalError:
                    continue
                assert evaluate(reparsed, p) == pytest.approx(expected, rel=1e-14, abs=1e-14)

    def test_deep_sum_round_trips(self):
        # a 700-term sum nests 700 levels deep
        text = " + ".join(["x*y"] * 700)
        assert unparse(parse(text)) == text

    def test_negative_constant_parses(self):
        e = expr.const(-3.5)
        assert evaluate(parse(unparse(e)), {}) == -3.5


class TestImmutability:
    def test_nodes_are_frozen(self):
        e = parse("x + 1")
        with pytest.raises(AttributeError):
            e.op = "-"

    def test_substitute(self):
        e = parse("x^2 + y")
        out = expr.substitute(e, {"x": parse("2*z")})
        assert evaluate(out, {"z": 3, "y": 1}) == 37.0


def _outcome(f):
    """float.hex of f(), or the text of the error it raises."""
    try:
        return f().hex()
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return f"{type(exc).__name__}: {exc}"


def _expressions_and_derivatives(rng, coords, count):
    """count random expressions, each followed by its first and second
    derivatives; the three share subtrees with each other."""
    exprs = []
    for _ in range(count):
        e = random_expression(rng, list(coords))
        d = differentiate(e, "x")
        exprs += [e, d, differentiate(d, "y")]
    return exprs


def _in_order(exprs, p):
    """float.hex of each expression's value, or the text of the first error."""
    try:
        return tuple(evaluate(e, p).hex() for e in exprs)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return f"{type(exc).__name__}: {exc}"


class TestCompiledBitForBit:
    def test_compiled_equals_evaluate_bit_for_bit(self, rng):
        # first and second derivatives share subtrees with each other and
        # with the expression; every function below comes from a warm cache
        coords = ("x", "y")
        exprs = _expressions_and_derivatives(rng, coords, 1000)
        for e in exprs:
            compile_expression(e, coords)
        points = [random_point(rng, list(coords)) for _ in range(3)]
        differ = []
        for e in exprs:
            fn = compile_expression(e, coords)
            for p in points:
                want = _outcome(lambda: evaluate(e, p))
                got = _outcome(lambda: fn(p["x"], p["y"]))
                if got != want:
                    differ.append((unparse(e), p, want, got))
        assert len(exprs) * len(points) == 9000
        assert differ == []

    def test_tuple_equals_evaluate_in_order(self, rng):
        # three expressions and their derivatives per function, so most
        # nodes are shared between components, plus a log and a sqrt of two
        # of them, which fail on about half the points
        coords = ("x", "y")
        exprs = _expressions_and_derivatives(rng, coords, 1002)
        groups = []
        for k in range(0, len(exprs), 9):
            group = exprs[k:k + 9]
            groups.append(group[:4] + [Call("log", group[3])] + group[4:]
                          + [Call("sqrt", group[0])])
        points = [random_point(rng, list(coords), -3.0, 3.0) for _ in range(3)]
        differ = []
        errors = 0
        for group in groups:
            fn = compile_tuple(group, coords)
            for p in points:
                want = _in_order(group, p)
                try:
                    got = tuple(v.hex() for v in fn(p["x"], p["y"]))
                except Exception as exc:  # noqa: BLE001 - compared, not swallowed
                    got = f"{type(exc).__name__}: {exc}"
                errors += isinstance(want, str)
                if got != want:
                    differ.append((unparse(group[0]), p, want, got))
        assert len(groups) * len(points) == 1002
        assert 100 < errors < 900  # first errors are compared as well as values
        assert differ == []

    def test_tuple_first_error_is_the_first_component_to_fail(self):
        x = Var("x")
        log, sqrt = Call("log", x), Call("sqrt", x)
        # log(x) is computed inside the first component, after sqrt(x)
        fn = compile_tuple([BinOp("+", sqrt, log), log, BinOp("/", Const(1.0), x)], ("x",))
        with pytest.raises(EvalError, match="^sqrt of negative value$"):
            fn(-1.0)
        with pytest.raises(EvalError, match="^log of non-positive value$"):
            fn(0.0)
        fn = compile_tuple([log, BinOp("+", sqrt, log)], ("x",))
        with pytest.raises(EvalError, match="^log of non-positive value$"):
            fn(-1.0)

    def test_empty_tuple(self):
        assert compile_tuple([], ("x", "y"))(1.0, 2.0) == ()
        assert compile_tuple([], ())() == ()

    def test_tuple_unbound_variable(self):
        with pytest.raises(expr.ExpressionError, match=r"unbound variables \['z'\]"):
            compile_tuple([parse("x"), parse("x*z")], ("x",))

    def test_differentiate_and_unparse_keep_no_reference_to_their_input(self):
        e = parse("sin(x*y)/(x + 2) + exp(sin(x*y)) + x^y")
        nodes = []
        stack = [e]
        while stack:
            node = stack.pop()
            nodes.append(weakref.ref(node))
            stack += [getattr(node, f) for f in ("arg", "left", "right") if hasattr(node, f)]
        differentiate(e, "x")
        unparse(e)
        del e, node
        assert [ref for ref in nodes if ref() is not None] == []

    def test_signed_zero_constants_compile_apart(self):
        x = Var("x")
        assert compile_expression(BinOp("+", x, Const(0.0)), ("x",))(-0.0).hex() == "0x0.0p+0"
        minus = compile_expression(BinOp("+", x, Const(-0.0)), ("x",))
        assert minus(-0.0).hex() == "-0x0.0p+0"

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_constants(self, value):
        x = Var("x")
        for e in (Const(value), Neg(Const(value)), BinOp("*", x, Const(value)),
                  BinOp("-", Const(value), x)):
            fn = compile_expression(e, ("x",))
            for at in (-0.0, 0.0, 2.0):
                assert _outcome(lambda: fn(at)) == _outcome(lambda: evaluate(e, {"x": at}))

    @pytest.mark.parametrize("source", [
        "sin(x)", "cos(2*x)", "tan(x + 1)", "sin(x) + log(x)", "(-1)^x", "(-2)^(x - x)",
        "0^x", "2^x", "exp(sin(x))",
    ])
    def test_non_finite_arguments(self, source):
        e = parse(source)
        fn = compile_expression(e, ("x",))
        for at in (math.inf, -math.inf, math.nan):
            want = _outcome(lambda: evaluate(e, {"x": at}))
            assert _outcome(lambda: fn(at)) == want
            assert not want.startswith(("ValueError", "OverflowError"))
            tuple_fn = compile_tuple([parse("x + 1"), e], ("x",))
            assert _outcome(lambda: tuple_fn(at)[1]) == want


def _column_outcome(fn, columns):
    """fn's values at 1-D coordinate columns, as float.hex per value and
    element, or the text of the error it raises; no warning may be emitted."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            values = fn(*columns)
        except Exception as exc:  # noqa: BLE001 - compared, not swallowed
            return f"{type(exc).__name__}: {exc}"
    n = len(columns[0])
    return tuple(tuple(v.hex() for v in np.broadcast_to(value, n).tolist()) for value in values)


class TestCompiledArrays:
    """compile_tuple given 1-D coordinate columns, as flatness and
    entropy.transport_maps call it."""

    def test_array_equals_tuple_per_point(self, rng):
        # each group of expressions and derivatives has the bits of a call
        # per point; a log and a sqrt of two of them fail on about half the
        # points, and the columns then raise the first error of a failing
        # point: the one whose first failure comes earliest in the code
        coords = ("x", "y")
        exprs = _expressions_and_derivatives(rng, coords, 300)
        points = [random_point(rng, list(coords), -3.0, 3.0) for _ in range(8)]
        columns = [np.array([p[c] for p in points]) for c in coords]
        valued = failed = 0
        for k in range(0, len(exprs), 9):
            for group in (exprs[k:k + 9], [Call("log", exprs[k + 3]), Call("sqrt", exprs[k])]):
                want = [_in_order(group, p) for p in points]
                errors = {w for w in want if isinstance(w, str)}
                with np.errstate(all="ignore"):
                    got = _column_outcome(compile_tuple(group, coords), columns)
                if errors:
                    failed += 1
                    assert got in errors, (unparse(group[0]), got, errors)
                else:
                    valued += 1
                    assert got == tuple(zip(*want)), unparse(group[0])
        assert valued > 50 and failed > 50

    def test_values_over_a_grid(self):
        fn = compile_tuple([parse("x*y + 1"), parse("2"), parse("log(x)/y")], ("x", "y"))
        x, y = (a.ravel() for a in np.meshgrid([0.5, 1.0, 2.0], [1.0, 4.0]))
        product, two, ratio = fn(x, y)
        assert np.array_equal(product, x * y + 1) and two == 2.0
        assert ratio.tolist() == [math.log(a) / b for a, b in zip(x.tolist(), y.tolist())]

    @pytest.mark.parametrize("source, at, message", [
        ("1/x", 0.0, "division by zero"),
        ("log(x)", 0.0, "log of non-positive value"),
        ("sqrt(x)", -1.0, "sqrt of negative value"),
        ("x^0.5", -1.0, "negative base with non-integer exponent"),
        ("x^(-1)", 0.0, "zero base with negative exponent"),
        ("x^400", 10.0, "overflow in power"),
        ("exp(x)", 1000.0, "overflow in exp"),
        ("tan(x)", math.inf, "trigonometric function of an infinite value"),
    ])
    def test_domain_errors_match_the_scalar_texts(self, source, at, message):
        e = parse(source)
        assert _outcome(lambda: compile_expression(e, ("x",))(at)) == f"EvalError: {message}"
        assert _column_outcome(compile_tuple([e], ("x",)), [np.array([1.0, at, 2.0])]) == (
            f"EvalError: {message}")

    @pytest.mark.parametrize("source", [
        "sin(x)", "cos(2*x)", "tan(x + 1)", "sin(x) + log(x)", "(-1)^x", "(-2)^(x - x)",
        "0^x", "2^x", "exp(sin(x))", "x*1e300*1e300 - x*1e300*1e300", "exp(x) - exp(x)",
    ])
    def test_non_finite_arguments_warn_nothing(self, source):
        # under the callers' np.errstate: the checked functions run math's
        # code per element, which warns nothing, and the arithmetic's
        # numpy warnings are off
        e = parse(source)
        scalar = compile_tuple([e], ("x",))
        column = [math.inf, -math.inf, math.nan, 1e10]
        want = [_outcome(lambda: scalar(at)[0]) for at in column]
        with np.errstate(all="ignore"):
            got = _column_outcome(scalar, [np.array(column)])
        errors = [w for w in want if w.startswith("EvalError")]
        assert got == (errors[0] if errors else (tuple(want),))

    @pytest.mark.parametrize("source", ["sin(x)", "log(x)", "sqrt(x)", "exp(x)", "2^x", "abs(x)"])
    def test_checked_functions_warn_nothing_on_non_finite_elements(self, source):
        fn = compile_tuple([parse(source)], ("x",))
        got = _column_outcome(fn, [np.array([math.nan, 1.0])])
        assert got == ((_outcome(lambda: fn(math.nan)[0]), _outcome(lambda: fn(1.0)[0])),)

    def test_shares_the_compile_cache(self):
        exprs = [parse("x + y"), parse("x*y")]
        fn = compile_tuple(exprs, ("x", "y"))
        assert compile_tuple(exprs, ("x", "y")) is fn
        assert compile_tuple(exprs[:1], ("x", "y")) is not compile_expression(exprs[0], ("x", "y"))
        compile_expression.cache_clear()
        assert compile_tuple(exprs, ("x", "y")) is not fn

    def test_unbound_variable(self):
        with pytest.raises(expr.ExpressionError, match=r"unbound variables \['z'\]"):
            compile_tuple([parse("x*z")], ("x",))
