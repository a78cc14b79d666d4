"""Smooth scalar expressions in (h, y1..yn).

A tiny real-valued expression language: rational constants, the sweep
parameter `h`, coordinates `y1..yn`, the four arithmetic operators, integer
powers, and sin/cos/exp/sqrt.  Supports exact symbolic partial derivatives
and IEEE-double evaluation (scalars or numpy arrays).

Grammar (EBNF):

    expr    = term { ("+" | "-") term } ;
    term    = unary { ("*" | "/") unary } ;
    unary   = "-" unary | power ;                (unary minus binds above *,/)
    power   = atom [ "^" [ "-" ] integer ] ;     (and below ^)
    atom    = integer | "h" | "y" digits
            | ("sin" | "cos" | "exp" | "sqrt") "(" expr ")"
            | "(" expr ")" ;

A quotient of two integer literals is folded to a rational constant, and a
negated constant to its negative, so printing round-trips to the same tree.
Nodes are frozen dataclasses with structural equality: immutable, equal when
of the same class with equal fields, and hashed by their fields.  Each node
class holds its own behaviour: its printing precedence and text, its
derivative, its substitution and its evaluation; `Expr.text` prints a
tree, and the module functions (`d_dh`, `d_dy`, `shift_y`, `subs_h`,
`evaluate`) call the root node's method.  Complex values never appear here;
the algebra layer pairs two real expressions per mode coefficient.

`derive` and `subs` build through light smart constructors (`_add` ...
`_neg`) that fold constants and drop zeros and ones.  Each constructor reads
each operand's constant value once, by one exact type test (`_const`), and
then applies its rules in a fixed order.  `shift_y` takes its nodes
y_i + h*k_i from a small bounded cache.

A constant converts its rational value to float on its first evaluation and
keeps the float in a slot that equality, hashing and printing ignore.  It
does not convert at construction, so a literal past float range still parses;
its evaluation raises each time, since a failed conversion is not kept.
`evaluate` converts rational inputs once per call, as float() does, behind
exact type tests (`type(v) is Fraction`); floats and arrays pass through.
`ComplexExpr.evaluate` converts once and evaluates both parts on the
converted values.  A scalar evaluation comes back finite or raises
EvalDomainError; an array comes back as it is, for the caller's own
finiteness test.
"""
from __future__ import annotations

import functools
import math
import re
from dataclasses import FrozenInstanceError, dataclass, field
from fractions import Fraction

import numpy as np

from .errors import EvalDomainError, ParseError

__all__ = [
    "Expr", "Const", "H", "Y", "Add", "Sub", "Mul", "Div", "Neg", "Pow", "Fun",
    "MAX_NESTING", "MAX_DEPTH", "parse", "d_dh", "d_dy", "evaluate",
    "shift_y", "subs_h", "ComplexExpr",
]

# the functions of the language and the ufunc that evaluates each
_UFUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt}


def _node(cls):
    """A frozen, slotted dataclass whose __setattr__ and __delattr__ refuse
    every name (the generated ones raise TypeError for a non-field)."""
    def refuse(self, name, *value):
        raise FrozenInstanceError(f"cannot assign to or delete attribute {name!r}")
    cls = dataclass(frozen=True, slots=True, repr=False)(cls)
    cls.__setattr__ = cls.__delattr__ = refuse
    return cls


class Expr:
    """Expression node; `_node` (repr=False) keeps the text forms below.

    A node class defines `prec` (printing precedence), `parts()` (its own
    text pieces and its children in printing order, for `_pieces`),
    `derive(wrt)` (wrt is 'h' or a coordinate index), `subs(h_node,
    y_nodes)` and `eval(h, y)`.  `derive` and `subs` build through the smart
    constructors `_add` ... `_pow`, read as module globals at call time.
    """

    __slots__ = ()
    prec = 9

    def __str__(self):
        return self.text()

    def text(self):
        """The expression's text; parse(e.text(), n) rebuilds the same tree."""
        return "".join(_pieces(self))

    def text_head(self, limit: int) -> str:
        """The first `limit` characters of the text.  The walk stops once
        they are out, so a tree whose text runs to megabytes costs about
        `limit` nodes plus its depth."""
        out, size = [], 0
        for piece in _pieces(self):
            out.append(piece)
            size += len(piece)
            if size >= limit:
                break
        return "".join(out)[:limit]

    def __repr__(self):
        return f"{type(self).__name__}({self.text()!r})"


@_node
class Const(Expr):
    value: Fraction
    # float(value), set by the first `eval` that succeeds; not a field of
    # equality, hashing or printing
    _float: float | None = field(default=None, init=False, compare=False)

    def __post_init__(self):
        if type(self.value) is not Fraction:
            object.__setattr__(self, "value", Fraction(self.value))

    @property
    def prec(self):
        if self.value.denominator != 1:
            return 2         # prints as a quotient
        if self.value < 0:
            return 3         # prints with a leading minus
        return 9

    def parts(self):
        return (str(self.value),)

    def derive(self, wrt):
        return _ZERO

    def subs(self, h_node, y_nodes):
        return self

    def eval(self, h, y):
        v = self._float
        if v is None:
            v = float(self.value)       # OverflowError past float range
            object.__setattr__(self, "_float", v)
        return v


@_node
class H(Expr):
    def parts(self):
        return ("h",)

    def derive(self, wrt):
        return _ONE if wrt == "h" else _ZERO

    def subs(self, h_node, y_nodes):
        return h_node if h_node is not None else self

    def eval(self, h, y):
        return h


@_node
class Y(Expr):
    index: int

    def __post_init__(self):
        if self.index < 1:
            raise ParseError(f"coordinate index must be >= 1, got {self.index}")
        object.__setattr__(self, "index", int(self.index))

    def parts(self):
        return (f"y{self.index}",)

    def derive(self, wrt):
        return _ONE if self.index == wrt else _ZERO

    def subs(self, h_node, y_nodes):
        repl = y_nodes.get(self.index)
        return repl if repl is not None else self

    def eval(self, h, y):
        if self.index > len(y):
            raise EvalDomainError(
                f"point has {len(y)} coordinates, expression uses y{self.index}", self)
        return y[self.index - 1]


@_node
class _Binary(Expr):
    """A left-associative operator, printed `a op b`."""

    a: Expr
    b: Expr

    def parts(self):
        # right operands of equal precedence need parentheses or reparsing
        # would rebuild a left-leaning tree
        return (*_wrap(self.a, self.prec), self.op, *_wrap(self.b, self.prec, strict=True))


@_node
class Add(_Binary):
    op, prec = " + ", 1

    def derive(self, wrt):
        return _add(self.a.derive(wrt), self.b.derive(wrt))

    def subs(self, h_node, y_nodes):
        return _add(self.a.subs(h_node, y_nodes), self.b.subs(h_node, y_nodes))

    def eval(self, h, y):
        return self.a.eval(h, y) + self.b.eval(h, y)


@_node
class Sub(_Binary):
    op, prec = " - ", 1

    def derive(self, wrt):
        return _sub(self.a.derive(wrt), self.b.derive(wrt))

    def subs(self, h_node, y_nodes):
        return _sub(self.a.subs(h_node, y_nodes), self.b.subs(h_node, y_nodes))

    def eval(self, h, y):
        return self.a.eval(h, y) - self.b.eval(h, y)


@_node
class Mul(_Binary):
    op, prec = "*", 2

    def derive(self, wrt):
        return _add(_mul(self.a.derive(wrt), self.b), _mul(self.a, self.b.derive(wrt)))

    def subs(self, h_node, y_nodes):
        return _mul(self.a.subs(h_node, y_nodes), self.b.subs(h_node, y_nodes))

    def eval(self, h, y):
        return self.a.eval(h, y) * self.b.eval(h, y)


@_node
class Div(_Binary):
    op, prec = "/", 2

    def derive(self, wrt):
        num = _sub(_mul(self.a.derive(wrt), self.b), _mul(self.a, self.b.derive(wrt)))
        return _div(num, _pow(self.b, 2))

    def subs(self, h_node, y_nodes):
        return _div(self.a.subs(h_node, y_nodes), self.b.subs(h_node, y_nodes))

    def eval(self, h, y):
        num = self.a.eval(h, y)
        den = self.b.eval(h, y)
        if np.any(den == 0):
            raise EvalDomainError("division by zero", self)
        return num / den


@_node
class Neg(Expr):
    a: Expr
    prec = 3

    def parts(self):
        return ("-", *_wrap(self.a, self.prec, strict=True))

    def derive(self, wrt):
        return _neg(self.a.derive(wrt))

    def subs(self, h_node, y_nodes):
        return _neg(self.a.subs(h_node, y_nodes))

    def eval(self, h, y):
        return -self.a.eval(h, y)


@_node
class Pow(Expr):
    a: Expr
    exponent: int
    prec = 4

    def __post_init__(self):
        object.__setattr__(self, "exponent", int(self.exponent))

    def parts(self):
        return (*_wrap(self.a, self.prec, strict=True), f"^{self.exponent}")

    def derive(self, wrt):
        if self.exponent == 0:
            return _ZERO
        inner = self.a.derive(wrt)
        return _mul(_mul(Const(self.exponent), _pow(self.a, self.exponent - 1)), inner)

    def subs(self, h_node, y_nodes):
        return _pow(self.a.subs(h_node, y_nodes), self.exponent)

    def eval(self, h, y):
        base = self.a.eval(h, y)
        if self.exponent < 0 and np.any(base == 0):
            raise EvalDomainError("zero raised to a negative power", self)
        return base ** self.exponent


@_node
class Fun(Expr):
    name: str
    a: Expr

    def __post_init__(self):
        if self.name not in _UFUNCS:
            raise ParseError(f"unknown function '{self.name}'")

    def parts(self):
        return (f"{self.name}(", self.a, ")")

    def derive(self, wrt):
        inner = self.a.derive(wrt)
        if self.name == "sin":
            return _mul(Fun("cos", self.a), inner)
        if self.name == "cos":
            return _neg(_mul(Fun("sin", self.a), inner))
        if self.name == "exp":
            return _mul(self, inner)
        # sqrt introduces a quotient; domain issues surface at evaluation
        return _div(inner, _mul(Const(2), self))

    def subs(self, h_node, y_nodes):
        return Fun(self.name, self.a.subs(h_node, y_nodes))

    def eval(self, h, y):
        arg = self.a.eval(h, y)
        if self.name == "sqrt" and np.any(arg < 0):
            raise EvalDomainError("sqrt of a negative value", self)
        return _UFUNCS[self.name](arg)


_ZERO = Const(0)
_ONE = Const(1)


# ---------------------------------------------------------------------------
# parsing

_TOKEN = re.compile(r"(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^])")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = "int" if m.group(1) else ("name" if m.group(2) else "op")
        tokens.append((kind, m.group(0), pos))
        pos = m.end()
    return tokens


# Bounds on an expression's syntactic nesting (parentheses, function calls and
# unary minus, one level each) and on its tree depth (the nodes on its longest
# root-to-leaf path), so that no parsed tree exhausts Python's default
# recursion limit of 1,000 frames.  Parsing takes about five frames a nesting
# level and failed past about 195 levels.  Printing walks an explicit stack
# (`_pieces`), at any depth.  `derive`, `subs` and `eval` recurse one frame a
# level: measured in a fresh Python 3.11 process, each ran chains of
# quotients, negations and sines to a depth of 995 and failed by 999.  A
# bracket differentiates a quotient chain to three times its depth (297 at
# the depth bound, 593 for a second derivative), so a tree at both bounds
# still runs every command.
MAX_NESTING = 100
MAX_DEPTH = 100


def _integer(digits, pos):
    try:
        return int(digits)
    except ValueError:      # past Python's limit on integer string conversion
        raise ParseError(f"integer of {len(digits)} digits is too long", pos) from None


class _Parser:
    """Recursive descent; each rule returns (node, tree depth of the node)."""

    def __init__(self, text, n):
        self.text = text
        self.n = n
        self.tokens = _tokenize(text)
        self.i = 0
        self.level = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.i += 1
        return tok

    def expect(self, value):
        tok = self.next()
        if tok[1] != value:
            raise ParseError(f"expected {value!r}, got {tok[1]!r}", tok[2])
        return tok

    def nested(self, rule, pos):
        """rule() one nesting level down; ParseError past MAX_NESTING."""
        if self.level == MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels", pos)
        self.level += 1
        out = rule()
        self.level -= 1
        return out

    @staticmethod
    def above(e, depth, pos):
        """(e, its depth) for a node e over a subtree of the given depth; a
        constant is a leaf.  ParseError past MAX_DEPTH."""
        if type(e) is Const:
            return e, 1
        if depth == MAX_DEPTH:
            raise ParseError(f"expression tree deeper than {MAX_DEPTH} levels", pos)
        return e, depth + 1

    def parse(self):
        e, _ = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2])
        return e

    def expr(self):
        e, depth = self.term()
        while (tok := self.peek()) and tok[1] in "+-":
            self.next()
            rhs, d = self.term()
            e, depth = self.above(Add(e, rhs) if tok[1] == "+" else Sub(e, rhs),
                                  max(depth, d), tok[2])
        return e, depth

    def term(self):
        e, depth = self.unary()
        while (tok := self.peek()) and tok[1] in "*/":
            self.next()
            rhs, d = self.unary()
            if tok[1] == "*":
                e = Mul(e, rhs)
            elif isinstance(e, Const) and isinstance(rhs, Const) and rhs.value != 0:
                # fold integer quotients so "p/q" stays one rational constant
                e = Const(e.value / rhs.value)
            else:
                e = Div(e, rhs)
            e, depth = self.above(e, max(depth, d), tok[2])
        return e, depth

    def unary(self):
        tok = self.peek()
        if tok and tok[1] == "-":
            self.next()
            inner, depth = self.nested(self.unary, tok[2])
            return self.above(Const(-inner.value) if isinstance(inner, Const)
                              else Neg(inner), depth, tok[2])
        return self.power()

    def power(self):
        base, depth = self.atom()
        tok = self.peek()
        if tok and tok[1] == "^":
            self.next()
            sign = 1
            tok = self.peek()
            if tok and tok[1] == "-":
                self.next()
                sign = -1
            tok = self.next()
            if tok[0] != "int":
                raise ParseError(f"exponent must be an integer, got {tok[1]!r}", tok[2])
            return self.above(Pow(base, sign * _integer(tok[1], tok[2])), depth, tok[2])
        return base, depth

    def atom(self):
        tok = self.next()
        kind, value, pos = tok
        if kind == "int":
            return Const(_integer(value, pos)), 1
        if value == "(":
            e = self.nested(self.expr, pos)
            self.expect(")")
            return e
        if kind == "name":
            if value == "h":
                return H(), 1
            if value in _UFUNCS:
                self.expect("(")
                arg, depth = self.nested(self.expr, pos)
                self.expect(")")
                return self.above(Fun(value, arg), depth, pos)
            m = re.fullmatch(r"y(\d+)", value)
            if m:
                idx = _integer(m.group(1), pos)
                if not 1 <= idx <= self.n:
                    raise ParseError(
                        f"coordinate y{idx} out of range (n = {self.n})", pos)
                return Y(idx), 1
            raise ParseError(f"unknown identifier {value!r}", pos)
        raise ParseError(f"unexpected token {value!r}", pos)


def parse(text: str, n: int) -> Expr:
    """Parse an expression in h, y1..yn.  Raises ParseError with a position,
    also past MAX_NESTING levels of nesting or MAX_DEPTH levels of tree."""
    return _Parser(text, n).parse()


# ---------------------------------------------------------------------------
# printing (inverse of parse up to tree equality)

def _wrap(e, level, strict=False):
    p = e.prec
    if p < level or (strict and p == level):
        return ("(", e, ")")
    return (e,)


def _pieces(e):
    """The text of e as str pieces in order: each node's `parts` are its
    own text and its children, expanded on an explicit stack, so printing
    needs no recursion and can stop early (`Expr.text_head`)."""
    stack = [e]
    while stack:
        item = stack.pop()
        if type(item) is str:
            yield item
        else:
            stack.extend(reversed(item.parts()))


# ---------------------------------------------------------------------------
# light smart constructors (keep derivative trees from exploding; no deeper
# simplification is attempted, equality is tested by evaluation elsewhere)

def _const(e):
    """e's rational value if e is a constant, else None: the one test the
    constructors make of each operand."""
    return e.value if type(e) is Const else None


def _add(a, b):
    x, y = _const(a), _const(b)
    if x == 0:
        return b
    if y == 0:
        return a
    if x is not None and y is not None:
        return Const(x + y)
    if type(b) is Neg:
        return Sub(a, b.a)
    return Add(a, b)


def _sub(a, b):
    x, y = _const(a), _const(b)
    if y == 0:
        return a
    if x is not None and y is not None:
        return Const(x - y)
    if x == 0:
        return _neg(b)
    return Sub(a, b)


def _mul(a, b):
    x, y = _const(a), _const(b)
    if x == 0 or y == 0:
        return _ZERO
    if x == 1:
        return b
    if y == 1:
        return a
    if x is not None and y is not None:
        return Const(x * y)
    if x == -1:
        return _neg(b)
    if y == -1:
        return _neg(a)
    if y is not None:
        return Mul(b, a)
    return Mul(a, b)


def _div(a, b):
    x, y = _const(a), _const(b)
    if x == 0 and y != 0:
        return _ZERO
    if y == 1:
        return a
    if x is not None and y is not None and y != 0:
        return Const(x / y)
    return Div(a, b)


def _neg(a):
    if type(a) is Const:
        return Const(-a.value)
    if type(a) is Neg:
        return a.a
    return Neg(a)


def _pow(a, p):
    if p == 0:
        return _ONE
    if p == 1:
        return a
    return Pow(a, p)


# ---------------------------------------------------------------------------
# derivatives, substitution and evaluation

def d_dh(e: Expr) -> Expr:
    """Exact symbolic derivative with respect to h."""
    return e.derive("h")


def d_dy(e: Expr, i: int) -> Expr:
    """Exact symbolic derivative with respect to y_i (1-based)."""
    return e.derive(int(i))


def shift_y(e: Expr, k) -> Expr:
    """Substitute y_i -> y_i + h*k_i for the integer vector k."""
    y_nodes = {}
    for i, ki in enumerate(k, start=1):
        ki = int(ki)
        if ki != 0:
            y_nodes[i] = _shifted(i, ki)
    return e.subs(None, y_nodes)


@functools.lru_cache(maxsize=256)
def _shifted(i, ki):
    """The node y_i + h*k_i.  Nodes are immutable, so trees share it; the
    cache holds the few (i, k_i) that modes use, and no more than 256."""
    return _add(Y(i), _mul(Const(ki), H()))


def subs_h(e: Expr, value) -> Expr:
    """Substitute an exact rational value for h."""
    return e.subs(Const(value), {})


def _floats(h, y):
    """h and the list of y with each Fraction converted to float, as
    float() converts it (numerator / denominator); floats and arrays pass
    through.  A Fraction past float range raises EvalDomainError."""
    try:
        if type(h) is Fraction:
            h = h.numerator / h.denominator
        return h, [v.numerator / v.denominator if type(v) is Fraction else v for v in y]
    except OverflowError:
        raise EvalDomainError("an input lies past float range") from None


def evaluate(e: Expr, h, y):
    """IEEE-double evaluation at h and the coordinate vector y.

    Accepts scalars or numpy arrays (broadcast elementwise); rational inputs
    are converted to float.  Deterministic; raises EvalDomainError carrying
    the offending subexpression at singular points, and carrying `e` when a
    scalar result is not finite or a constant lies past float range
    (scalars and arrays alike); a rational input past float range raises it
    without a subexpression (`_floats`).  So a scalar comes back finite; an
    array comes back as it is, inf and nan included, for the caller's own
    test.
    numpy may warn of an overflow on the way; a caller that refuses the
    value silences the warning (`np.errstate`).
    """
    return _evaluate(e, *_floats(h, y))


def _evaluate(e, h, y):
    """`evaluate` at inputs that `_floats` has converted."""
    try:
        out = e.eval(h, y)
    except OverflowError as exc:
        raise EvalDomainError("evaluation overflows", e) from exc
    if type(out) is np.ndarray:
        return out
    out = float(out)
    if not math.isfinite(out):
        raise EvalDomainError("evaluation overflows", e)
    return out


# ---------------------------------------------------------------------------
# complex coefficients: a pair of real expressions

@_node
class ComplexExpr:
    """Complex-valued coefficient as a (re, im) pair of real expressions."""

    re: Expr
    im: Expr = _ZERO

    @classmethod
    def zero(cls):
        return cls(_ZERO, _ZERO)

    def __repr__(self):
        return f"ComplexExpr({self.re.text()!r}, {self.im.text()!r})"

    def __add__(self, other):
        return ComplexExpr(_add(self.re, other.re), _add(self.im, other.im))

    def __sub__(self, other):
        return ComplexExpr(_sub(self.re, other.re), _sub(self.im, other.im))

    def __mul__(self, other):
        re = _sub(_mul(self.re, other.re), _mul(self.im, other.im))
        im = _add(_mul(self.re, other.im), _mul(self.im, other.re))
        return ComplexExpr(re, im)

    def scaled(self, a, b=0):
        """Multiply by the exact complex scalar a + b*i (rationals).  With
        b = 0 the smart constructors drop the two b products, so a real
        scalar scales each part alone."""
        a, b = Const(a), Const(b)
        re = _sub(_mul(a, self.re), _mul(b, self.im))
        im = _add(_mul(a, self.im), _mul(b, self.re))
        return ComplexExpr(re, im)

    def conjugate(self):
        return ComplexExpr(self.re, _neg(self.im))

    def shift_y(self, k):
        return ComplexExpr(shift_y(self.re, k), shift_y(self.im, k))

    def subs_h(self, value):
        return ComplexExpr(subs_h(self.re, value), subs_h(self.im, value))

    def d_dy(self, i):
        return ComplexExpr(d_dy(self.re, i), d_dy(self.im, i))

    def is_zero_tree(self):
        return _const(self.re) == 0 and _const(self.im) == 0

    def evaluate(self, h, y):
        h, y = _floats(h, y)
        return _evaluate(self.re, h, y) + 1j * _evaluate(self.im, h, y)
