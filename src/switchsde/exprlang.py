"""Scalar expression language for state-dependent rates and coefficients.

Expressions are written over variables ``x1 .. xd`` (``x`` is an alias for
``x1``).  Supported syntax: real literals, ``+ - * / ^``, unary minus, and the
functions ``sin cos abs sqrt min max``.  Precedence, tightest first: unary
minus, ``^`` (right-associative), ``* /``, ``+ -``.  Note that unary minus
binds tighter than ``^``, so ``-2^2`` evaluates to 4.

Trees are immutable; parse -> to_source -> parse is the identity on trees.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

import numpy as np


class ExprError(ValueError):
    pass


class ParseError(ExprError):
    """Malformed source; carries the byte offset of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * / ^
    left: "Expr"
    right: "Expr"


Expr = Num | Var | Neg | Call | BinOp

FUNCTIONS = {"sin": 1, "cos": 1, "abs": 1, "sqrt": 1, "min": 2, "max": 2}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(source: str):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            bad = pos + len(source[pos:]) - len(stripped)
            raise ParseError(f"unexpected character {source[bad]!r}", bad)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("eof", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str):
        kind, t, off = self.peek()
        if t != text:
            raise ParseError(f"expected {text!r}, found {t or 'end of input'!r}", off)
        return self.next()

    # expr := term (('+'|'-') term)*
    def expr(self):
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            node = BinOp(op, node, self.term())
        return node

    # term := factor (('*'|'/') factor)*
    def term(self):
        node = self.factor()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            node = BinOp(op, node, self.factor())
        return node

    # factor := base ('^' factor)?   (right-associative)
    def factor(self):
        node = self.base()
        if self.peek()[1] == "^":
            self.next()
            node = BinOp("^", node, self.factor())
        return node

    # base := '-' base | atom        (unary minus binds tighter than '^')
    def base(self):
        if self.peek()[1] == "-":
            self.next()
            return Neg(self.base())
        return self.atom()

    def atom(self):
        kind, text, off = self.next()
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            if self.peek()[1] == "(":
                return self.call(text, off)
            return self.variable(text, off)
        if text == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(f"expected expression, found {text or 'end of input'!r}", off)

    def call(self, name, off):
        if name not in FUNCTIONS:
            raise ParseError(f"unknown function {name!r}", off)
        self.expect("(")
        args = [self.expr()]
        while self.peek()[1] == ",":
            self.next()
            args.append(self.expr())
        self.expect(")")
        if len(args) != FUNCTIONS[name]:
            raise ParseError(
                f"{name} takes {FUNCTIONS[name]} argument(s), got {len(args)}", off
            )
        return Call(name, tuple(args))

    def variable(self, name, off):
        if name == "x":
            return Var(1)
        m = re.fullmatch(r"x(\d+)", name)
        if m:
            idx = int(m.group(1))
            if idx < 1:
                raise ParseError("variable indices start at x1", off)
            return Var(idx)
        raise ParseError(f"unknown identifier {name!r}", off)


def parse(source: str) -> Expr:
    """Parse a source string into an expression tree."""
    p = _Parser(source)
    node = p.expr()
    kind, text, off = p.peek()
    if kind != "eof":
        raise ParseError(f"unexpected trailing input {text!r}", off)
    return node


# precedence levels used by the printer; atoms highest
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}
_NEG_PREC = 4
_ATOM_PREC = 5


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _PREC[e.op]
    if isinstance(e, Neg):
        return _NEG_PREC
    if isinstance(e, Num) and e.value < 0:
        return _NEG_PREC
    return _ATOM_PREC


def to_source(e: Expr) -> str:
    """Render a tree back to source; ``parse(to_source(e)) == e``."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, Call):
        return f"{e.name}({', '.join(to_source(a) for a in e.args)})"
    if isinstance(e, Neg):
        inner = to_source(e.arg)
        # '-' base requires the operand to be another base: wrap binops
        if isinstance(e.arg, BinOp):
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, BinOp):
        lp, rp = _prec(e.left), _prec(e.right)
        p = _PREC[e.op]
        left = to_source(e.left)
        right = to_source(e.right)
        if e.op == "^":
            # base must be an atom or a chain of unary minuses
            if isinstance(e.left, BinOp):
                left = f"({left})"
            # rhs is a factor: '^' chains bare (right-assoc), others wrap
            if isinstance(e.right, BinOp) and e.right.op != "^":
                right = f"({right})"
        else:
            if lp < p:
                left = f"({left})"
            # left-associative: parenthesize right child at equal precedence
            if rp < p or (rp == p and isinstance(e.right, BinOp)):
                right = f"({right})"
        return f"{left} {e.op} {right}"
    raise TypeError(f"not an expression node: {e!r}")


def _fold(e: Expr, num, var, neg, call, binop):
    """Fold a tree bottom-up: children first, left to right, then the rule for
    the node: ``num(value)``, ``var(index)``, ``neg(a)``, ``call(name, args)``
    or ``binop(op, a, b)`` over the children's results."""

    def go(e):
        if isinstance(e, Num):
            return num(e.value)
        if isinstance(e, Var):
            return var(e.index)
        if isinstance(e, Neg):
            return neg(go(e.arg))
        if isinstance(e, Call):
            return call(e.name, [go(a) for a in e.args])
        if isinstance(e, BinOp):
            return binop(e.op, go(e.left), go(e.right))
        raise TypeError(f"not an expression node: {e!r}")

    return go(e)


def max_variable(e: Expr) -> int:
    """Largest variable index used (0 for constant expressions)."""
    return _fold(e, lambda v: 0, lambda k: k, lambda a: a,
                 lambda name, args: max(args, default=0), lambda op, a, b: max(a, b))


def compile_vectorized(e: Expr):
    """Compile to a function of X with shape (n, d) returning shape (n,).

    No domain checks: division by zero and invalid powers propagate as
    inf/nan, to be caught by the caller's finiteness checks.
    """
    _, lits, f = shape(e)
    return lambda X: f(X, lits)


def constant_value(e: Expr) -> float | None:
    """The value of a tree built from literals by ``+ - * /`` and unary
    minus, else None.  It equals every entry of ``compile_vectorized(e)``."""
    v = _fold(e, float, _shape_var, _shape_neg, _shape_call, _shape_binop)
    return v if isinstance(v, float) else None


def shape(e: Expr):
    """The tree's shape key, its literals and a closure ``f(X, literals)``.

    A literal is a maximal constant subtree of ``+ - * /`` and unary minus,
    folded to a float, in fold order, so two trees have equal keys exactly
    when they differ only in their literals.  ``f`` reads literal k as
    ``literals[k]``, a float or an array with one value per row of X; these
    operations round once, so a float operand gives the same bits as a
    constant array.  A literal read as an exponent, a call argument or the
    whole tree becomes an array: numpy's scalar fast paths for ``power``
    (2, 0.5, -1) round differently."""
    key, lits, make = _as_part(_fold(e, float, _shape_var, _shape_neg, _shape_call, _shape_binop))
    return key, lits, make(0)


# A shape part is (key, literals, make), where make(k) builds the closure of
# (X, literals) whose first literal is literals[k]; a float is a folded
# constant whose slot its parent lays out.


def _as_part(a):
    """``a`` as a part; a folded constant becomes one literal read as an array."""
    if not isinstance(a, float):
        return a
    return "#", (a,), lambda k: lambda X, L: np.full(X.shape[0], L[k])


def _shape_var(index):
    j = index - 1
    return ("x", index), (), lambda k: lambda X, L: X[:, j]


def _shape_neg(a):
    if isinstance(a, float):
        return -a
    key, lits, make = a

    def build(k):
        f = make(k)
        return lambda X, L: -f(X, L)

    return ("-", key), lits, build


def _safe_sqrt(a):
    # a negative argument gives NaN, which the engine's guards report
    with np.errstate(invalid="ignore"):
        return np.sqrt(a)


_UFUNCS = {"sin": np.sin, "cos": np.cos, "abs": np.abs, "sqrt": _safe_sqrt, "min": np.minimum, "max": np.maximum}


def _shape_call(name, args):
    ufunc, parts = _UFUNCS[name], [_as_part(a) for a in args]

    def build(k):
        fs = []
        for _, lits, make in parts:
            fs.append(make(k))
            k += len(lits)
        if len(fs) == 1:
            f0 = fs[0]
            return lambda X, L: ufunc(f0(X, L))
        f0, f1 = fs
        return lambda X, L: ufunc(f0(X, L), f1(X, L))

    return (name, *(p[0] for p in parts)), sum((p[1] for p in parts), ()), build


def _shape_binop(op, a, b):
    consts = isinstance(a, float), isinstance(b, float)
    if op != "^" and all(consts):
        with np.errstate(all="ignore"):
            return float(_ARITH[op](np.float64(a), b))
    if op == "^" or not any(consts):
        (ka, la, ma), (kb, lb, mb) = _as_part(a), _as_part(b)
        ev = _safe_pow if op == "^" else _ARITH[op]

        def build(k):
            fa, fb = ma(k), mb(k + len(la))
            return lambda X, L: ev(fa(X, L), fb(X, L))

        return (op, ka, kb), la + lb, build
    ev = _ARITH[op]
    if consts[0]:  # the literal is the first slot, read as it is
        kb, lb, mb = b

        def build(k):
            fb = mb(k + 1)
            return lambda X, L: ev(L[k], fb(X, L))

        return (op, "#", kb), (a,) + lb, build
    ka, la, ma = a

    def build(k):
        fa, j = ma(k), k + len(la)
        return lambda X, L: ev(fa(X, L), L[j])

    return (op, ka, "#"), la + (b,), build


def _safe_div(a, b):
    with np.errstate(all="ignore"):
        return a / b


def _safe_pow(a, b):
    with np.errstate(all="ignore"):
        return np.power(a, b)


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _safe_div}
