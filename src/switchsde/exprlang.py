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
    return _as_array(_compile(e))


def constant_value(e: Expr) -> float | None:
    """The value of a tree built from literals by ``+ - * /`` and unary
    minus, else None.  It equals every entry of ``compile_vectorized(e)``."""
    f = _compile(e)
    return None if callable(f) else f


def _as_array(f):
    if callable(f):
        return f
    return lambda X: np.full(X.shape[0], f)


def _compile(e: Expr):
    """A closure of X, or a float for a constant subtree of ``+ - * /`` and
    unary minus.  These operations round once, so a float operand gives the
    same bits as a constant array.  The exponent of ``^`` and the arguments of
    calls stay arrays: numpy's scalar fast paths for ``power`` (2, 0.5, -1)
    round differently."""
    return _fold(e, float, _compile_var, _compile_neg, _compile_call, _compile_binop)


def _compile_var(index):
    k = index - 1
    return lambda X: X[:, k]


def _compile_neg(f):
    return (lambda X: -f(X)) if callable(f) else -f


def _safe_sqrt(a):
    # a negative argument gives NaN, which the engine's guards report
    with np.errstate(invalid="ignore"):
        return np.sqrt(a)


_UFUNCS = {"sin": np.sin, "cos": np.cos, "abs": np.abs, "sqrt": _safe_sqrt, "min": np.minimum, "max": np.maximum}


def _compile_call(name, fs):
    ufunc, fs = _UFUNCS[name], [_as_array(f) for f in fs]
    if len(fs) == 1:
        f0 = fs[0]
        return lambda X: ufunc(f0(X))
    f0, f1 = fs
    return lambda X: ufunc(f0(X), f1(X))


def _compile_binop(op, fl, fr):
    if op == "^":
        fl, fr = _as_array(fl), _as_array(fr)
        return lambda X: _safe_pow(fl(X), fr(X))
    op = _ARITH[op]
    if callable(fl) and callable(fr):
        return lambda X: op(fl(X), fr(X))
    if callable(fl):
        return lambda X: op(fl(X), fr)
    if callable(fr):
        return lambda X: op(fl, fr(X))
    with np.errstate(all="ignore"):
        return float(op(np.float64(fl), fr))


def _safe_div(a, b):
    with np.errstate(all="ignore"):
        return a / b


def _safe_pow(a, b):
    with np.errstate(all="ignore"):
        return np.power(a, b)


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _safe_div}
