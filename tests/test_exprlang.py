import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchsde import exprlang as ex


def test_parse_trig_rate():
    e = ex.parse("2 - sin(x1)^2")
    assert e == ex.BinOp(
        "-", ex.Num(2.0), ex.BinOp("^", ex.Call("sin", (ex.Var(1),)), ex.Num(2.0))
    )
    assert ex.evaluate(e, [math.pi / 2]) == 1.0


def test_parse_variable_identity():
    assert ex.parse("x1") == ex.Var(1)
    assert ex.parse("x") == ex.Var(1)  # alias
    assert ex.parse("x12") == ex.Var(12)


def test_rational_expression():
    e = ex.parse("1 + abs(x1)/(1+abs(x1))")
    assert ex.evaluate(e, [1.0]) == 1.5
    e2 = ex.parse("1 + x1^2/(1+x1^2)")
    assert ex.evaluate(e2, [0.0]) == 1.0


def test_zero_and_constants():
    assert ex.evaluate(ex.parse("0"), [123.0]) == 0.0
    assert ex.evaluate(ex.parse("min(2, 3)"), []) == 2.0
    assert ex.evaluate(ex.parse("max(2, 3)"), []) == 3.0
    assert ex.evaluate(ex.parse("sqrt(4)"), []) == 2.0


def test_precedence():
    assert ex.evaluate(ex.parse("2+3*4"), []) == 14.0
    assert ex.evaluate(ex.parse("2^3^2"), []) == 512.0
    # unary minus binds tighter than the power operator
    assert ex.evaluate(ex.parse("-2^2"), []) == 4.0
    assert ex.evaluate(ex.parse("-(2^2)"), []) == -4.0
    assert ex.evaluate(ex.parse("2^-1"), []) == 0.5
    assert ex.evaluate(ex.parse("6/3/2"), []) == 1.0
    assert ex.evaluate(ex.parse("6-3-2"), []) == 1.0


def test_syntax_error_offset():
    with pytest.raises(ex.ParseError) as err:
        ex.parse("1 + * 2")
    assert err.value.offset == 4
    with pytest.raises(ex.ParseError):
        ex.parse("(1 + 2")
    with pytest.raises(ex.ParseError):
        ex.parse("1 + 2)")
    with pytest.raises(ex.ParseError):
        ex.parse("1 @ 2")


def test_unknown_identifier():
    with pytest.raises(ex.ParseError, match="unknown identifier"):
        ex.parse("y + 1")
    with pytest.raises(ex.ParseError, match="unknown function"):
        ex.parse("tan(x1)")


def test_arity_mismatch():
    with pytest.raises(ex.ParseError, match="argument"):
        ex.parse("sin(x1, x2)")
    with pytest.raises(ex.ParseError, match="argument"):
        ex.parse("min(x1)")


def test_eval_domain_errors():
    with pytest.raises(ex.EvalError, match="division by zero"):
        ex.evaluate(ex.parse("1/x1"), [0.0])
    with pytest.raises(ex.EvalError, match="sqrt"):
        ex.evaluate(ex.parse("sqrt(x1)"), [-1.0])
    with pytest.raises(ex.EvalError, match="out of range"):
        ex.evaluate(ex.parse("x3"), [1.0, 2.0])
    with pytest.raises(ex.EvalError, match="pow"):
        ex.evaluate(ex.parse("(-8)^0.5"), [])


def test_vectorized_matches_scalar():
    # numpy's vectorized trig may differ from libm by an ulp; tolerance only
    e = ex.parse("2 - sin(x1)^2 + abs(cos(x1))/(1 + x1^2)")
    xs = np.linspace(-5, 5, 101)[:, None]
    f = ex.compile_vectorized(e)
    vec = f(xs)
    for k, x in enumerate(xs[:, 0]):
        assert math.isclose(vec[k], ex.evaluate(e, [x]), rel_tol=1e-13)


@pytest.mark.parametrize("source", ["0", "1 + 2", "2*3", "-4 / 8"])
def test_vectorized_constant_is_a_float_array(source):
    X = np.linspace(-1.0, 1.0, 7)[:, None]
    out = ex.compile_vectorized(ex.parse(source))(X)
    assert out.shape == (7,) and out.dtype == np.float64
    assert (out == ex.constant_value(ex.parse(source))).all()


@pytest.mark.parametrize("e", [2.0, 0.5, -1.0])
def test_vectorized_power_keeps_array_exponent(e):
    # numpy's scalar-exponent fast paths (square, sqrt, reciprocal) can
    # round differently from the array form
    x = np.random.default_rng(4).uniform(0.1, 10.0, 1000)
    got = ex.compile_vectorized(ex.parse(f"x1^{e!r}"))(x[:, None])
    assert got.tobytes() == np.power(x, np.full(x.size, e)).tobytes()


def test_vectorized_constant_operands_match_arrays():
    # + - * / round once, so a folded literal gives the bits of an array operand
    x = np.random.default_rng(5).uniform(-3.0, 3.0, 1000)
    got = ex.compile_vectorized(ex.parse("(0.3 - x1) / 7 * -1.1 + 2 / x1"))(x[:, None])
    c = lambda v: np.full_like(x, v)  # noqa: E731
    want = (c(0.3) - x) / c(7.0) * -c(1.1) + c(2.0) / x
    assert got.tobytes() == want.tobytes()
    assert ex.constant_value(ex.parse("x1 + 1")) is None


# random expression generator for the round-trip invariant
_rng = np.random.default_rng(20240810)


def _random_expr(depth):
    kind = _rng.integers(0, 7 if depth > 0 else 2)
    if kind == 0:
        # the parser renders negatives as Neg(Num(.)), so literals are nonnegative
        return ex.Num(float(np.round(_rng.uniform(0, 5), 3)))
    if kind == 1:
        return ex.Var(int(_rng.integers(1, 4)))
    if kind == 2:
        return ex.Neg(_random_expr(depth - 1))
    if kind == 3:
        name = ["sin", "cos", "abs"][int(_rng.integers(0, 3))]
        return ex.Call(name, (_random_expr(depth - 1),))
    if kind == 4:
        name = ["min", "max"][int(_rng.integers(0, 2))]
        return ex.Call(name, (_random_expr(depth - 1), _random_expr(depth - 1)))
    op = "+-*/^"[int(_rng.integers(0, 5))]
    return ex.BinOp(op, _random_expr(depth - 1), _random_expr(depth - 1))


def test_round_trip_1000_random_pairs():
    checked = 0
    while checked < 1000:
        e = _random_expr(4)
        x = _rng.uniform(-3, 3, 3)
        try:
            want = ex.evaluate(e, x)
        except ex.EvalError:
            continue
        if not math.isfinite(want):
            continue
        back = ex.parse(ex.to_source(e))
        assert back == e, ex.to_source(e)
        assert ex.evaluate(back, x) == want
        checked += 1


@st.composite
def expr_trees(draw, depth=3):
    if depth == 0:
        if draw(st.booleans()):
            return ex.Num(draw(st.floats(min_value=0, max_value=9, width=32).map(float)))
        return ex.Var(draw(st.integers(1, 3)))
    choice = draw(st.integers(0, 3))
    if choice == 0:
        return ex.Neg(draw(expr_trees(depth=depth - 1)))
    if choice == 1:
        name = draw(st.sampled_from(["sin", "cos", "abs", "min", "max"]))
        arity = ex.FUNCTIONS[name]
        args = tuple(draw(expr_trees(depth=depth - 1)) for _ in range(arity))
        return ex.Call(name, args)
    if choice == 2:
        op = draw(st.sampled_from("+-*/^"))
        return ex.BinOp(op, draw(expr_trees(depth=depth - 1)), draw(expr_trees(depth=depth - 1)))
    return draw(expr_trees(depth=0))


@given(expr_trees())
@settings(max_examples=200, deadline=None)
def test_print_parse_identity(e):
    assert ex.parse(ex.to_source(e)) == e
