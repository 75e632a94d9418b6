import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchsde import exprlang as ex
from tests.conftest import (
    compile_vectorized_reference,
    constant_value_reference,
    max_variable_reference,
)


def _at(e, x=()):
    """The value of ``e`` (a tree or its source) at the point ``x``, through
    compile_vectorized, which the engine runs."""
    e = ex.parse(e) if isinstance(e, str) else e
    return float(ex.compile_vectorized(e)(np.array([x], dtype=float).reshape(1, -1))[0])


def test_parse_trig_rate():
    e = ex.parse("2 - sin(x1)^2")
    assert e == ex.BinOp(
        "-", ex.Num(2.0), ex.BinOp("^", ex.Call("sin", (ex.Var(1),)), ex.Num(2.0))
    )
    assert _at(e, [math.pi / 2]) == 1.0


def test_parse_variable_identity():
    assert ex.parse("x1") == ex.Var(1)
    assert ex.parse("x") == ex.Var(1)  # alias
    assert ex.parse("x12") == ex.Var(12)


def test_rational_expression():
    e = ex.parse("1 + abs(x1)/(1+abs(x1))")
    assert _at(e, [1.0]) == 1.5
    assert _at("1 + x1^2/(1+x1^2)", [0.0]) == 1.0


def test_zero_and_constants():
    assert _at("0", [123.0]) == 0.0
    assert _at("min(2, 3)") == 2.0
    assert _at("max(2, 3)") == 3.0
    assert _at("sqrt(4)") == 2.0


def test_precedence():
    assert _at("2+3*4") == 14.0
    assert _at("2^3^2") == 512.0
    # unary minus binds tighter than the power operator
    assert _at("-2^2") == 4.0
    assert _at("-(2^2)") == -4.0
    assert _at("2^-1") == 0.5
    assert _at("6/3/2") == 1.0
    assert _at("6-3-2") == 1.0
    # the same with a variable, which no constant folding reaches
    assert _at("x1^3^x1", [2.0]) == 512.0
    assert _at("-x1^2", [2.0]) == 4.0
    assert _at("6/x1/2", [3.0]) == 1.0
    assert _at("6-x1-2", [3.0]) == 1.0


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


def test_vectorized_domain_errors_give_inf_or_nan():
    # no domain checks: the caller's finiteness checks catch these values
    with np.errstate(all="ignore"):
        assert _at("1/x1", [0.0]) == math.inf
        assert _at("-1/x1", [0.0]) == -math.inf
        for source, x in [("0/x1", [0.0]), ("sqrt(x1)", [-1.0]), ("(-8)^x1", [0.5]),
                          ("sin(x1*1e308*10)", [1.0]), ("cos(x1*1e308*10)", [-1.0])]:
            assert math.isnan(_at(source, x)), source


def test_vectorized_matches_scalar():
    # numpy's vectorized trig may differ from libm by an ulp; tolerance only
    e = ex.parse("2 - sin(x1)^2 + abs(cos(x1))/(1 + x1^2)")
    xs = np.linspace(-5, 5, 101)[:, None]
    f = ex.compile_vectorized(e)
    vec = f(xs)
    for k, x in enumerate(xs[:, 0]):
        assert math.isclose(vec[k], 2 - math.sin(x) ** 2 + abs(math.cos(x)) / (1 + x**2), rel_tol=1e-13)


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


def _random_expr(depth, rng=_rng):
    kind = rng.integers(0, 7 if depth > 0 else 2)
    if kind == 0:
        # the parser renders negatives as Neg(Num(.)), so literals are nonnegative
        return ex.Num(float(np.round(rng.uniform(0, 5), 3)))
    if kind == 1:
        return ex.Var(int(rng.integers(1, 4)))
    if kind == 2:
        return ex.Neg(_random_expr(depth - 1, rng))
    if kind == 3:
        name = ["sin", "cos", "abs"][int(rng.integers(0, 3))]
        return ex.Call(name, (_random_expr(depth - 1, rng),))
    if kind == 4:
        name = ["min", "max"][int(rng.integers(0, 2))]
        return ex.Call(name, (_random_expr(depth - 1, rng), _random_expr(depth - 1, rng)))
    op = "+-*/^"[int(rng.integers(0, 5))]
    return ex.BinOp(op, _random_expr(depth - 1, rng), _random_expr(depth - 1, rng))


def test_round_trip_1000_random_pairs():
    checked = 0
    while checked < 1000:
        e = _random_expr(4)
        x = _rng.uniform(-3, 3, 3)
        with np.errstate(all="ignore"):
            want = _at(e, x)
        if not math.isfinite(want):
            continue
        back = ex.parse(ex.to_source(e))
        assert back == e, ex.to_source(e)
        assert _at(back, x) == want
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


# compile_vectorized, constant_value and max_variable are rule tables
# over one fold; each equals the recursive walk it replaced (conftest.py) bit
# for bit, error for error.


def _oracle_expr(rng, depth):
    """Trees with what _random_expr leaves out: negative literals, sqrt, and
    ^ with the literal exponents numpy special-cases (2, 0.5, -1)."""
    kind = int(rng.integers(0, 10 if depth > 0 else 3))
    if kind == 0:
        return ex.Num(-float(np.round(rng.uniform(0, 5), 3)))
    if kind == 1:
        return ex.Num(float(rng.choice([0.0, 0.5, 1.0, 2.0])))
    if kind == 2:
        return ex.Var(int(rng.integers(1, 4)))
    sub = _oracle_expr(rng, depth - 1)
    if kind == 3:
        return ex.Neg(sub)
    if kind == 4:
        return ex.Call("sqrt", (sub,))
    if kind == 5:
        return ex.BinOp("^", sub, ex.Num(float(rng.choice([2.0, 0.5, -1.0]))))
    if kind == 6:
        return ex.Call(["sin", "cos", "abs"][int(rng.integers(0, 3))], (sub,))
    if kind == 7:
        name = ["min", "max"][int(rng.integers(0, 2))]
        return ex.Call(name, (sub, _oracle_expr(rng, depth - 1)))
    return ex.BinOp("+-*/^"[int(rng.integers(0, 5))], sub, _oracle_expr(rng, depth - 1))


def _points(rng):
    """Rows with zeros, negatives and mixed signs, plus random ones."""
    fixed = [[0.0, 0.0, 0.0], [-1.0, -2.0, -0.5], [1.0, 0.0, -1.0], [-0.0, 2.0, 0.5]]
    return np.vstack([fixed, rng.uniform(-3.0, 3.0, (6, 3))])


def _assert_matches_references(e, X):
    with np.errstate(all="ignore"):
        got = ex.compile_vectorized(e)(X)
        want = compile_vectorized_reference(e)(X)
    assert got.tobytes() == want.tobytes(), ex.to_source(e)
    c, c_ref = ex.constant_value(e), constant_value_reference(e)
    assert (c is None) == (c_ref is None), ex.to_source(e)
    if c is not None:
        assert struct.pack("<d", c) == struct.pack("<d", c_ref), ex.to_source(e)
    assert ex.max_variable(e) == max_variable_reference(e)


def test_walks_match_references_on_1000_random_trees():
    rng = np.random.default_rng(20261018)
    X = _points(rng)
    for k in range(1000):
        e = _random_expr(4, rng) if k % 2 else _oracle_expr(rng, 4)
        _assert_matches_references(e, X)


@given(expr_trees(depth=4))
@settings(max_examples=200, deadline=None)
def test_walks_match_references_on_hypothesis_trees(e):
    _assert_matches_references(e, _points(np.random.default_rng(7)))



# exprlang.shape: regimes whose trees differ only in literals share one
# closure, which reads the literals per row


def _skeleton(e):
    """(key, literals) by a walk of the test's own: every maximal subtree
    that the reference constant_value folds is one literal, "#" in the key."""
    c = constant_value_reference(e)
    if c is not None:
        return "#", (c,)
    if isinstance(e, ex.Var):
        return ("x", e.index), ()
    if isinstance(e, ex.Neg):
        key, lits = _skeleton(e.arg)
        return ("-", key), lits
    parts = [_skeleton(a) for a in (e.args if isinstance(e, ex.Call) else (e.left, e.right))]
    return (e.name if isinstance(e, ex.Call) else e.op, *(k for k, _ in parts)), sum((l for _, l in parts), ())


def _with_nums(e, new):
    if isinstance(e, ex.Num):
        return ex.Num(new(e.value))
    if isinstance(e, ex.Var):
        return e
    if isinstance(e, ex.Neg):
        return ex.Neg(_with_nums(e.arg, new))
    if isinstance(e, ex.Call):
        return ex.Call(e.name, tuple(_with_nums(a, new) for a in e.args))
    return ex.BinOp(e.op, _with_nums(e.left, new), _with_nums(e.right, new))


def _twin(e, rng):
    """``e`` with some literals replaced, from values that include both
    zeros and the exponents numpy special-cases."""
    values = [0.0, -0.0, 0.5, 2.0, -1.0, 3.25]
    return _with_nums(e, lambda v: v if rng.random() < 0.3 else float(values[rng.integers(len(values))]))


def _bits(values):
    return [struct.pack("<d", v) for v in values]


def _assert_shape_reads_rows(e, rng, X):
    """The closure of ``e``'s shape, fed each row's literals from a twin of
    its own, gives that row what the reference compiler gives the twin:
    with every literal an array, and with the literals equal in every row
    as floats."""
    key, lits, f = ex.shape(e)
    skel_key, skel_lits = _skeleton(e)
    assert _bits(lits) == _bits(skel_lits), ex.to_source(e)
    twins = [_twin(e, rng) for _ in range(X.shape[0])]
    rows = [ex.shape(t) for t in twins]
    assert {r[0] for r in rows} == {key}, ex.to_source(e)
    columns = [np.array(v) for v in zip(*(r[1] for r in rows))]
    with np.errstate(all="ignore"):
        want = np.array([compile_vectorized_reference(t)(X)[r] for r, t in enumerate(twins)])
        assert f(X, columns).tobytes() == want.tobytes(), ex.to_source(e)
        mixed = [float(c[0]) if len(set(_bits(c))) == 1 else c for c in columns]
        assert f(X, mixed).tobytes() == want.tobytes(), ex.to_source(e)
    return skel_key


def test_shape_keys_and_per_row_literals_on_random_trees():
    rng = np.random.default_rng(20261021)
    X = _points(rng)
    trees = [_random_expr(k % 5, rng) if k % 2 else _oracle_expr(rng, k % 5) for k in range(600)]
    skeletons = [_assert_shape_reads_rows(e, rng, X) for e in trees]
    keys = [ex.shape(e)[0] for e in trees]
    # equal keys exactly when the trees differ only in their literals
    for i in range(len(trees)):
        for j in range(i + 1, len(trees), 7):
            assert (keys[i] == keys[j]) == (skeletons[i] == skeletons[j])


@given(expr_trees(depth=4), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_shape_reads_rows_on_hypothesis_trees(e, seed):
    _assert_shape_reads_rows(e, np.random.default_rng(seed), _points(np.random.default_rng(7)))


def test_shape_tells_signed_zero_literals_apart():
    (k0, l0, f), (k1, l1, _) = ex.shape(ex.parse("0*x1")), ex.shape(ex.parse("-0*x1"))
    assert k0 == k1 and _bits(l0) != _bits(l1)
    got = f(np.full((2, 1), -1.0), [np.array([l0[0], l1[0]])])
    assert np.signbit(got).tolist() == [True, False]


@pytest.mark.parametrize("source", ["x1^2", "x1^0.5", "x1^-1", "(x1 + 1)^2 - 2^x1", "abs(x1)^0.5^2"])
def test_shape_keeps_exponents_arrays(source, monkeypatch):
    # numpy's scalar-exponent fast paths round differently from the array form
    seen = []

    def power(a, b):
        seen.append((np.ndim(a), np.ndim(b)))
        return np.power(a, b)

    monkeypatch.setattr(ex, "_safe_pow", power)
    key, lits, f = ex.shape(ex.parse(source))
    X = np.random.default_rng(4).uniform(0.1, 10.0, (1000, 1))
    for literals in (list(lits), [np.full(len(X), v) for v in lits]):
        seen.clear()
        got = f(X, literals)
        assert seen and set(seen) == {(1, 1)}
        assert got.tobytes() == compile_vectorized_reference(ex.parse(source))(X).tobytes()
