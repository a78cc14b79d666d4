"""Expression language: parsing, printing, derivatives, evaluation."""
import hashlib
import importlib.util
import json
import random
import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from torikit import expr as ex
from torikit.errors import MAX_SUBEXPRESSION_TEXT, EvalDomainError, ParseError


def test_parse_product_tree():
    e = ex.parse("y1*(1-y1)", 1)
    assert isinstance(e, ex.Mul)
    assert e.a == ex.Y(1)
    assert e.b == ex.Sub(ex.Const(1), ex.Y(1))


def test_parse_nested_sqrt():
    e = ex.parse("sqrt(2*(y1 - 1/2))", 1)
    assert isinstance(e, ex.Fun) and e.name == "sqrt"
    assert isinstance(e.a, ex.Mul)


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as info:
        ex.parse("y1 + * 3", 1)
    assert info.value.position == 5


@pytest.mark.parametrize("text, message, position", [
    ("y1 $ 2", "unexpected character '$'", 3),
    ("y1 +", "unexpected end of input", 4),
    ("sin(y1 y1)", "expected ')', got 'y1'", 7),
    ("y1 y1", "unexpected token 'y1'", 3),
    ("y1^h", "exponent must be an integer, got 'h'", 3),
], ids=["character", "end", "close", "token", "exponent"])
def test_parse_errors_name_the_position(text, message, position):
    with pytest.raises(ParseError) as info:
        ex.parse(text, 2)
    assert str(info.value) == f"{message} (at position {position})"
    assert info.value.position == position


def test_parse_unknown_identifier():
    with pytest.raises(ParseError):
        ex.parse("y1 + bogus", 1)


def test_parse_variable_out_of_range():
    with pytest.raises(ParseError):
        ex.parse("y3", 2)


def test_parse_rational_constant_folds():
    assert ex.parse("1/2", 1) == ex.Const(Fraction(1, 2))
    assert ex.parse("-2", 1) == ex.Const(-2)


def test_precedence():
    # ^ binds above unary minus, which binds above * and /
    assert ex.evaluate(ex.parse("-y1^2", 1), 0.0, [3.0]) == -9.0
    assert ex.evaluate(ex.parse("-2*y1", 1), 0.0, [3.0]) == -6.0
    assert ex.evaluate(ex.parse("2^3", 1), 0.0, [0.0]) == 8.0
    assert ex.evaluate(ex.parse("6/2*3", 1), 0.0, [0.0]) == 9.0


RANDOM_SOURCES = [
    "y1", "h", "1/3", "-4", "sin(y1)", "cos(h)", "exp(y2)", "sqrt(y1 + 2)",
    "y2^3", "y1^-1",
]


def random_tree(rng, depth=0):
    """Random tree in the parser's image (constant folds applied)."""
    if depth > 3 or rng.random() < 0.3:
        return ex.parse(rng.choice(RANDOM_SOURCES), 2)
    op = rng.choice(["+", "-", "*", "/", "neg", "fun", "pow"])
    a = random_tree(rng, depth + 1)
    b = random_tree(rng, depth + 1)
    if op == "+":
        return ex.Add(a, b)
    if op == "-":
        return ex.Sub(a, b)
    if op == "*":
        return ex.Mul(a, b)
    if op == "/":
        if isinstance(a, ex.Const) and isinstance(b, ex.Const) and b.value != 0:
            return ex.Const(a.value / b.value)
        return ex.Div(a, b)
    if op == "neg":
        return ex.Const(-a.value) if isinstance(a, ex.Const) else ex.Neg(a)
    if op == "pow":
        return ex.Pow(a, rng.randint(0, 3))
    return ex.Fun(rng.choice(("sin", "cos", "exp")), a)


def test_print_parse_roundtrip_random_trees():
    rng = random.Random(7)
    for _ in range(400):
        e = random_tree(rng)
        assert ex.parse(e.text(), 2) == e


def test_structural_equality_and_hash():
    a = ex.parse("y1 + sin(h)", 1)
    b = ex.parse("y1 + sin(h)", 1)
    assert a == b and hash(a) == hash(b)
    assert a != ex.parse("y1 + cos(h)", 1)
    firsts, seconds = ([build() for build, _ in NODES] for _ in range(2))
    for i, (x, y) in enumerate(zip(firsts, seconds)):
        assert x is not y and x == y and hash(x) == hash(y)
        assert all(x != z for z in firsts[:i])
    u, v = ex.Y(1), ex.H()
    assert ex.Add(u, v) != ex.Sub(u, v)
    assert ex.Const(1) == ex.Const(Fraction(2, 2))
    assert ex.Pow(u, 2.0) == ex.Pow(u, 2)
    assert ex.ComplexExpr(u) == ex.ComplexExpr(u, ex.Const(0))


# a factory per node type and for ComplexExpr, with the fields it sets
NODES = [
    (lambda: ex.Const(Fraction(3, 2)), ("value",)), (ex.H, ()),
    (lambda: ex.Y(2), ("index",)),
    (lambda: ex.Add(ex.Y(1), ex.H()), ("a", "b")),
    (lambda: ex.Sub(ex.Y(1), ex.H()), ("a", "b")),
    (lambda: ex.Mul(ex.Y(1), ex.H()), ("a", "b")),
    (lambda: ex.Div(ex.Y(1), ex.H()), ("a", "b")),
    (lambda: ex.Neg(ex.Y(1)), ("a",)),
    (lambda: ex.Pow(ex.Y(1), 3), ("a", "exponent")),
    (lambda: ex.Fun("sin", ex.Y(1)), ("name", "a")),
    (lambda: ex.ComplexExpr(ex.Y(1), ex.Const(2)), ("re", "im")),
]


def test_nodes_and_complex_coefficients_are_immutable():
    # every name, a field or not, refuses assignment and deletion with
    # FrozenInstanceError, an AttributeError
    for build, fields in NODES:
        node = build()
        for name in fields + ("x",):
            with pytest.raises(FrozenInstanceError):
                setattr(node, name, ex.Const(0))
            with pytest.raises(FrozenInstanceError):
                delattr(node, name)


def test_nodes_are_slotted():
    # a base class without __slots__ would give every node a __dict__
    for build, _ in NODES:
        node = build()
        assert not hasattr(node, "__dict__"), type(node)
        for cls in type(node).__mro__[:-1]:
            assert "__slots__" in vars(cls), cls


def test_node_checks_raise_parse_errors():
    with pytest.raises(ParseError, match="coordinate index must be >= 1, got 0"):
        ex.Y(0)
    with pytest.raises(ParseError, match="unknown function 'tan'"):
        ex.Fun("tan", ex.Y(1))


def finite_difference_h(e, h, y, step=1e-5):
    return (ex.evaluate(e, h + step, y) - ex.evaluate(e, h - step, y)) / (2 * step)


def finite_difference_y(e, h, y, i, step=1e-5):
    up = list(y)
    dn = list(y)
    up[i - 1] += step
    dn[i - 1] -= step
    return (ex.evaluate(e, h, up) - ex.evaluate(e, h, dn)) / (2 * step)


def test_d_dh_linear():
    assert ex.evaluate(ex.d_dh(ex.parse("h*y1", 1)), 0.3, [2.0]) == 2.0


def test_d_dy_polynomial():
    d = ex.d_dy(ex.parse("y1*(1-y1)", 1), 1)
    for y in (0.1, 0.5, 0.9):
        assert abs(ex.evaluate(d, 0.0, [y]) - (1 - 2 * y)) < 1e-12


def test_d_dy_sqrt_value():
    d = ex.d_dy(ex.parse("sqrt(y1)", 1), 1)
    assert abs(ex.evaluate(d, 0.0, [4.0]) - 0.25) < 1e-14


def test_derivative_matches_finite_difference_random():
    rng = random.Random(13)
    checked = 0
    while checked < 200:
        e = random_tree(rng)
        h = rng.uniform(0.3, 0.9)
        y = [rng.uniform(0.4, 1.6), rng.uniform(0.4, 1.6)]
        try:
            value = ex.evaluate(e, h, y)
            sym_h = ex.evaluate(ex.d_dh(e), h, y)
            sym_y = ex.evaluate(ex.d_dy(e, 1), h, y)
            num_h = finite_difference_h(e, h, y)
            num_y = finite_difference_y(e, h, y, 1)
            # truncation of the central difference scales with the third
            # derivative; bound it so step 1e-5 stays inside the tolerance
            curbs = []
            for wrt in ("h", 1):
                d = e
                for _ in range(3):
                    d = ex.d_dh(d) if wrt == "h" else ex.d_dy(d, 1)
                    curbs.append(ex.evaluate(d, h, y))
        except EvalDomainError:
            continue
        if any(abs(v) > 50 for v in (value, sym_h, sym_y, num_h, num_y)):
            continue
        if any(abs(v) > 300 for v in curbs):
            continue
        assert abs(sym_h - num_h) <= 1e-8 * (1 + abs(sym_h))
        assert abs(sym_y - num_y) <= 1e-8 * (1 + abs(sym_y))
        checked += 1


def test_eval_examples():
    assert ex.evaluate(ex.parse("y1*(1-y1)", 1), 0.0, [0.5]) == 0.25
    with pytest.raises(EvalDomainError):
        ex.evaluate(ex.parse("sqrt(y1)", 1), 0.0, [-1.0])
    with pytest.raises(EvalDomainError):
        ex.evaluate(ex.parse("1/y1", 1), 0.0, [0.0])
    with pytest.raises(EvalDomainError):
        ex.evaluate(ex.parse("y1^-2", 1), 0.0, [0.0])
    with pytest.raises(EvalDomainError, match=r"y1\^200"):
        ex.evaluate(ex.parse("y1^200", 1), 0.0, [1000.0])


def test_out_of_range_constant_parses_and_overflows_on_evaluation():
    e = ex.parse("1" + "0" * 400 + " + y1", 1)
    assert ex.parse(e.text(), 1) == e
    for y in (0.5, np.array([0.5, 1.5])):
        with pytest.raises(EvalDomainError, match="evaluation overflows"):
            ex.evaluate(e, 0.0, [y])


def test_const_float_is_kept_on_first_eval_and_ignored_by_equality():
    c, d = ex.Const(Fraction(1, 3)), ex.Const(Fraction(1, 3))
    assert c._float is None         # not converted at construction
    assert ex.evaluate(c, 0.0, [0.5]) == 1 / 3
    assert c._float == 1 / 3 and d._float is None
    assert c == d and hash(c) == hash(d) and {d: 1}[c] == 1
    assert c.text() == d.text() == "1/3" and repr(c) == repr(d)
    assert ex.Add(c, ex.Y(1)) == ex.parse("1/3 + y1", 1)
    assert ex.evaluate(c, 0.0, [0.5]) == ex.evaluate(d, 0.0, [0.5]) == 1 / 3


def test_out_of_range_constant_keeps_no_failed_float():
    e = ex.parse("1" + "0" * 400, 1)
    assert e == ex.Const(10 ** 400) and e._float is None
    for y in (0.5, 0.5, np.array([0.5, 1.5])):
        with pytest.raises(EvalDomainError, match="evaluation overflows"):
            ex.evaluate(e, 0.0, [y])
        assert e._float is None


def test_evaluate_refuses_a_coordinate_the_point_lacks():
    e = ex.parse("y2", 2)
    with pytest.raises(EvalDomainError) as info:
        ex.evaluate(e, 0.0, [1.0])
    assert info.value.reason == "point has 1 coordinates, expression uses y2"
    assert info.value.subexpression == e


def test_overflowing_result_raises_on_scalars_and_reads_inf_on_arrays():
    e = ex.parse("2*y1^400", 1)
    for _ in range(2):
        with pytest.raises(EvalDomainError, match="evaluation overflows"):
            ex.evaluate(e, 0.0, [10.0])
    with np.errstate(over="ignore"):
        out = ex.evaluate(e, 0.0, [np.array([10.0, 0.5])])
    assert out[0] == np.inf and out[1] == 2 * 0.5 ** 400
    assert e.a._float == 2.0


def test_scalar_result_that_is_not_finite_raises():
    # numpy returns inf from exp (and nan from inf - inf) with a warning,
    # not an OverflowError; the warning is silenced here, as the CLI does
    for text in ("exp(1000*y1)", "exp(1000*y1) - exp(1000*y1)"):
        e = ex.parse(text, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(EvalDomainError) as info:
                ex.evaluate(e, 0.0, [0.75])
            out = ex.evaluate(e, 0.0, [np.array([0.75, 0.5])])
        assert str(info.value) == f"evaluation overflows in subexpression '{text}'"
        assert not np.isfinite(out[0]) and np.isfinite(out[1])


def test_complex_evaluate_at_a_rational_point_equals_its_float_point():
    c = ex.ComplexExpr(ex.parse("h*y1 + sin(y2)", 2), ex.parse("y1/3 - h^2", 2))
    exact = c.evaluate(Fraction(1, 7), (Fraction(1, 3), Fraction(2, 5)))
    floats = c.evaluate(1 / 7, (1 / 3, 2 / 5))
    assert exact.real.hex() == floats.real.hex() and exact.imag.hex() == floats.imag.hex()


def test_integer_power_rounds_as_the_scalar_and_array_operators_do():
    # scalar ** and np.power round differently at some of these points
    # (x = 2.3673799335066334 is one), so each path is pinned to its own
    rng = random.Random(23)
    xs = [rng.uniform(-10.0, 10.0) for _ in range(2000)]
    e = ex.parse("y1^3", 1)
    for x in xs:
        assert ex.evaluate(e, 0.0, [x]).hex() == (x ** 3).hex()
    arr = np.array(xs)
    got = ex.evaluate(e, 0.0, [arr])
    assert np.array_equal(got.view(np.int64), np.power(arr, 3).view(np.int64))


def test_eval_accepts_fractions_and_arrays():
    e = ex.parse("h + y1^2", 1)
    assert ex.evaluate(e, Fraction(1, 2), [Fraction(1, 2)]) == 0.75
    out = ex.evaluate(e, 0.5, [np.array([0.0, 1.0, 2.0])])
    assert np.allclose(out, [0.5, 1.5, 4.5])


def test_eval_domain_error_carries_subexpression():
    with pytest.raises(EvalDomainError) as info:
        ex.evaluate(ex.parse("1 + sqrt(y1 - 2)", 1), 0.0, [0.0])
    assert isinstance(info.value.subexpression, ex.Fun)


def test_eval_domain_error_quotes_a_bounded_text_and_keeps_the_node():
    short = ex.parse("y1^200", 1)
    assert str(EvalDomainError("overflows", short)) == "overflows in subexpression 'y1^200'"
    # a constant of 1,201 digits prints past the cap; the node stays whole
    long = ex.parse("1" + "0" * 1200 + " + y1", 1)
    exc = EvalDomainError("overflows", long)
    assert exc.subexpression is long and exc.reason == "overflows"
    text = long.text()
    assert len(text) > MAX_SUBEXPRESSION_TEXT
    assert str(exc) == f"overflows in subexpression '{text[:MAX_SUBEXPRESSION_TEXT]}...'"


def test_eval_domain_error_walks_only_the_quoted_head(monkeypatch):
    # a shared tree whose text doubles per level: 2^17 copies of its leaf
    # pair print to 1,966,072 characters, but the message needs 1,001
    e = ex.parse("y1 + 3", 1)
    for _ in range(17):
        e = ex.Mul(e, ex.Sub(e, ex.Y(1)))
    text = str(e)
    assert len(text) > 2 ** 20
    visits = []
    for cls in (ex.Add, ex.Sub, ex.Mul, ex.Y, ex.Const):
        parts = cls.parts
        monkeypatch.setattr(cls, "parts",
                            lambda node, parts=parts: visits.append(node) or parts(node))
    exc = EvalDomainError("evaluation overflows", e)
    assert str(exc) == ("evaluation overflows in subexpression "
                        f"'{text[:MAX_SUBEXPRESSION_TEXT]}...'")
    # each node visited prints a character, apart from the path down the
    # tree's depth to its first leaf
    assert 0 < len(visits) <= MAX_SUBEXPRESSION_TEXT + 1 + 2 * 17 + 2
    for limit in (0, 1, 7, 999):
        assert e.text_head(limit) == text[:limit]
    assert ex.Add(ex.Y(1), ex.H()).text_head(100) == "y1 + h"


def test_shift_y_substitution():
    e = ex.shift_y(ex.parse("y1*(1-y1)", 1), (1,))
    for h, y in ((0.25, 0.3), (0.01, 0.7)):
        direct = (y + h) * (1 - (y + h))
        assert abs(ex.evaluate(e, h, [y]) - direct) < 1e-14


def test_subs_h():
    e = ex.subs_h(ex.parse("h^2 + y1", 1), Fraction(1, 2))
    assert ex.evaluate(e, 99.0, [1.0]) == 1.25


def test_complex_expr_algebra():
    a = ex.ComplexExpr(ex.parse("y1", 1), ex.parse("1", 1))   # y + i
    b = ex.ComplexExpr(ex.parse("2", 1), ex.parse("y1", 1))   # 2 + iy
    got = (a * b).evaluate(0.0, [3.0])
    assert abs(got - (3 + 1j) * (2 + 3j)) < 1e-14
    assert abs(a.conjugate().evaluate(0.0, [3.0]) - (3 - 1j)) < 1e-14
    assert abs(a.scaled(0, -1).evaluate(0.0, [3.0]) - (3 + 1j) / 1j) < 1e-14


# ---------------------------------------------------------------------------
# oracle: the smart constructors as they were before the one-call constant
# test, comparing nodes with constant nodes through the dataclass __eq__

_O_ZERO, _O_ONE, _O_MINUS_ONE = ex.Const(0), ex.Const(1), ex.Const(-1)


def oracle_add(a, b):
    if a == _O_ZERO:
        return b
    if b == _O_ZERO:
        return a
    if isinstance(a, ex.Const) and isinstance(b, ex.Const):
        return ex.Const(a.value + b.value)
    if isinstance(b, ex.Neg):
        return ex.Sub(a, b.a)
    return ex.Add(a, b)


def oracle_sub(a, b):
    if b == _O_ZERO:
        return a
    if isinstance(a, ex.Const) and isinstance(b, ex.Const):
        return ex.Const(a.value - b.value)
    if a == _O_ZERO:
        return ex._neg(b)
    return ex.Sub(a, b)


def oracle_mul(a, b):
    if a == _O_ZERO or b == _O_ZERO:
        return _O_ZERO
    if a == _O_ONE:
        return b
    if b == _O_ONE:
        return a
    if isinstance(a, ex.Const) and isinstance(b, ex.Const):
        return ex.Const(a.value * b.value)
    if a == _O_MINUS_ONE:
        return ex._neg(b)
    if b == _O_MINUS_ONE:
        return ex._neg(a)
    if isinstance(b, ex.Const) and not isinstance(a, ex.Const):
        a, b = b, a
    return ex.Mul(a, b)


def oracle_div(a, b):
    if a == _O_ZERO and b != _O_ZERO:
        return _O_ZERO
    if b == _O_ONE:
        return a
    if isinstance(a, ex.Const) and isinstance(b, ex.Const) and b.value != 0:
        return ex.Const(a.value / b.value)
    return ex.Div(a, b)


def oracle_scaled(c, a, b=0):
    a, b = ex.Const(a), ex.Const(b)
    re = oracle_sub(oracle_mul(a, c.re), oracle_mul(b, c.im))
    im = oracle_add(oracle_mul(a, c.im), oracle_mul(b, c.re))
    return ex.ComplexExpr(re, im)


# reference walkers: derivative and substitution as one isinstance ladder
# each, independent of the node classes' methods; they build through the
# module's constructors, looked up at call time so the test can swap them

def ref_derive(e, wrt):
    if isinstance(e, ex.Const):
        return ex._ZERO
    if isinstance(e, ex.H):
        return ex._ONE if wrt == "h" else ex._ZERO
    if isinstance(e, ex.Y):
        return ex._ONE if e.index == wrt else ex._ZERO
    if isinstance(e, ex.Add):
        return ex._add(ref_derive(e.a, wrt), ref_derive(e.b, wrt))
    if isinstance(e, ex.Sub):
        return ex._sub(ref_derive(e.a, wrt), ref_derive(e.b, wrt))
    if isinstance(e, ex.Mul):
        return ex._add(ex._mul(ref_derive(e.a, wrt), e.b), ex._mul(e.a, ref_derive(e.b, wrt)))
    if isinstance(e, ex.Div):
        num = ex._sub(ex._mul(ref_derive(e.a, wrt), e.b), ex._mul(e.a, ref_derive(e.b, wrt)))
        return ex._div(num, ex._pow(e.b, 2))
    if isinstance(e, ex.Neg):
        return ex._neg(ref_derive(e.a, wrt))
    if isinstance(e, ex.Pow):
        if e.exponent == 0:
            return ex._ZERO
        inner = ref_derive(e.a, wrt)
        return ex._mul(ex._mul(ex.Const(e.exponent), ex._pow(e.a, e.exponent - 1)), inner)
    inner = ref_derive(e.a, wrt)
    if e.name == "sin":
        return ex._mul(ex.Fun("cos", e.a), inner)
    if e.name == "cos":
        return ex._neg(ex._mul(ex.Fun("sin", e.a), inner))
    if e.name == "exp":
        return ex._mul(e, inner)
    return ex._div(inner, ex._mul(ex.Const(2), e))


def ref_substitute(e, h_node, y_nodes):
    if isinstance(e, ex.Const):
        return e
    if isinstance(e, ex.H):
        return h_node if h_node is not None else e
    if isinstance(e, ex.Y):
        return y_nodes.get(e.index, e)
    if isinstance(e, (ex.Add, ex.Sub, ex.Mul, ex.Div)):
        build = {ex.Add: ex._add, ex.Sub: ex._sub, ex.Mul: ex._mul, ex.Div: ex._div}[type(e)]
        return build(ref_substitute(e.a, h_node, y_nodes), ref_substitute(e.b, h_node, y_nodes))
    if isinstance(e, ex.Neg):
        return ex._neg(ref_substitute(e.a, h_node, y_nodes))
    if isinstance(e, ex.Pow):
        return ex._pow(ref_substitute(e.a, h_node, y_nodes), e.exponent)
    return ex.Fun(e.name, ref_substitute(e.a, h_node, y_nodes))


def ref_subs_h(e, value):
    return ref_substitute(e, ex.Const(value), {})


def ref_shift_y(e, k):
    y_nodes = {i: ex._add(ex.Y(i), ex._mul(ex.Const(ki), ex.H()))
               for i, ki in enumerate(k, start=1) if ki != 0}
    return ref_substitute(e, None, y_nodes)


CONSTANT_SOURCES = ["0", "1", "-1", "2", "1/2", "y1", "y2", "h"]


def constant_rich_tree(rng, depth=0):
    """Random tree whose leaves are often 0, 1 or -1, so every constant
    test of the constructors fires."""
    if depth > 3 or rng.random() < 0.3:
        return ex.parse(rng.choice(CONSTANT_SOURCES + RANDOM_SOURCES), 2)
    op = rng.choice(["+", "-", "*", "/", "neg", "fun", "pow"])
    a = constant_rich_tree(rng, depth + 1)
    b = constant_rich_tree(rng, depth + 1)
    node = {"+": ex.Add, "-": ex.Sub, "*": ex.Mul, "/": ex.Div}.get(op)
    if node is not None:
        return node(a, b)
    if op == "neg":
        return ex.Neg(a)
    if op == "pow":
        return ex.Pow(a, rng.randint(0, 3))
    return ex.Fun(rng.choice(("sin", "cos", "exp")), a)


def test_constructors_build_the_equality_oracles_trees(monkeypatch):
    rng = random.Random(19)
    trees = [constant_rich_tree(rng) for _ in range(300)]
    pairs = [(ex.ComplexExpr(rng.choice(trees), rng.choice(trees)),
              ex.ComplexExpr(rng.choice(trees), rng.choice(trees)))
             for _ in range(150)]
    scalars = [0, 1, -1, 2, Fraction(-1, 2), Fraction(0)]

    def derived(d_dy, subs_h, shift_y):
        out = []
        for e in trees:
            out += [d_dy(e, 1), d_dy(e, 2), subs_h(e, 0),
                    subs_h(e, Fraction(-1, 3)), shift_y(e, (1, -1)),
                    shift_y(e, (0, 2))]
        for a, b in pairs:
            out.append(a * b)
            out += [a.scaled(s, t) for s in scalars for t in scalars]
        return out

    got = derived(ex.d_dy, ex.subs_h, ex.shift_y)
    with monkeypatch.context() as m:
        for name, oracle in (("_add", oracle_add), ("_sub", oracle_sub),
                             ("_mul", oracle_mul), ("_div", oracle_div)):
            m.setattr(ex, name, oracle)
        m.setattr(ex.ComplexExpr, "scaled", oracle_scaled)
        want = derived(ref_derive, ref_subs_h, ref_shift_y)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w
        assert str(g) == str(w)


# ---------------------------------------------------------------------------
# the parser's bounds on nesting and tree depth

def chain(op, terms, leaf="y1"):
    return op.join([leaf] * terms)


def test_nesting_bound():
    assert ex.parse("(" * ex.MAX_NESTING + "y1" + ")" * ex.MAX_NESTING, 1) == ex.Y(1)
    assert ex.parse("-" * ex.MAX_NESTING + "5", 1) == ex.Const(5)


@pytest.mark.parametrize("opener, closer", [("(", ")"), ("-", ""), ("sin(", ")")],
                         ids=["parentheses", "unary-minus", "function"])
def test_nesting_past_the_bound_is_a_parse_error(opener, closer):
    levels = ex.MAX_NESTING + 1
    with pytest.raises(ParseError, match=f"nested deeper than {ex.MAX_NESTING} "
                                         "levels") as info:
        ex.parse(opener * levels + "5" + closer * levels, 1)
    # the position of the first level past the bound
    assert info.value.position == len(opener) * ex.MAX_NESTING


def tree_depth(e):
    return 1 + max((tree_depth(getattr(e, f)) for f in ("a", "b") if hasattr(e, f)),
                   default=0)


@pytest.mark.parametrize("op", [" + ", " - ", "*", "/"])
def test_depth_bound_on_a_flat_chain(op):
    # a chain of t leaves is a tree of depth t
    e = ex.parse(chain(op, ex.MAX_DEPTH), 1)
    assert tree_depth(e) == ex.MAX_DEPTH
    text = chain(op, ex.MAX_DEPTH + 1)
    with pytest.raises(ParseError, match=f"tree deeper than {ex.MAX_DEPTH} levels") as info:
        ex.parse(text, 1)
    # the operator that joins the last leaf
    assert info.value.position == text.rindex(op.strip())


def test_depth_bound_counts_every_node_kind():
    # sin, sqrt, ^ and unary minus each add a level; a folded constant is a leaf
    for wrap in ("sin({})", "sqrt({})", "({})^2", "-{}"):
        text = "y1"
        for _ in range(ex.MAX_DEPTH - 1):
            text = wrap.format(text)
        assert tree_depth(ex.parse(text, 1)) == ex.MAX_DEPTH
        with pytest.raises(ParseError, match="tree deeper than"):
            ex.parse(wrap.format(text), 1)
    assert ex.parse(chain("/", 5 * ex.MAX_DEPTH, "1"), 1) == ex.Const(1)


@pytest.mark.parametrize("text, position", [
    ("1" * 5000, 0),
    ("y1 + " + "7" * 5000, 5),
    ("y" + "1" * 5000, 0),
    ("y1^" + "2" * 5000, 3),
], ids=["literal", "literal-in-a-sum", "coordinate-index", "exponent"])
def test_integer_past_python_conversion_limit_is_a_parse_error(text, position):
    with pytest.raises(ParseError, match="integer of 5000 digits is too long") as info:
        ex.parse(text, 1)
    assert info.value.position == position


ROOT = Path(__file__).parents[1]


def observable_trees(workdir):
    """{file: its lines} for every shipped, golden and benchmark (matrix_model,
    seed 1) observable with a mode: one line per coefficient part, the file
    name, the mode and the printed tree, which parse(e.text()) == e makes a
    stand-in for the tree.  Files are keyed by their path in the repository,
    benchmark ones by matrix_model/NAME."""
    spec = importlib.util.spec_from_file_location(
        "torikit_bench_inputs", ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    inputs.generate("matrix_model", 1, str(workdir), str(ROOT / "src" / "torikit" / "data"))
    paths = [(path.relative_to(ROOT).as_posix(), path) for path in
             sorted((ROOT / "src" / "torikit" / "data" / "obs").glob("*.json"))
             + sorted((ROOT / "tests" / "golden").glob("obs_*.json"))]
    paths += [(f"matrix_model/{path.name}", path) for path in sorted(workdir.glob("*.json"))]
    trees = {}
    for key, path in paths:
        doc = json.loads(path.read_text())
        for item in doc.get("modes", []) if isinstance(doc, dict) else []:
            for part in ("re", "im"):
                tree = ex.parse(item.get(part, "0"), 3).text()
                trees.setdefault(key, []).append(f"{path.name} {item['k']} {part} {tree}")
    return trees


# per file, the head of the sha256 of its lines, measured on the parser
# before it bounded nesting and depth: a new observable needs only a row
DIGESTS = {
    "src/torikit/data/obs/mode_minus.json": "48a419e6cdd639d8",
    "src/torikit/data/obs/mode_plus.json": "c5642c5f51d3a41d",
    "src/torikit/data/obs/sin_pair_a.json": "4a87dc9e351c6406",
    "src/torikit/data/obs/sin_pair_b.json": "8bf224a88e73003a",
    "src/torikit/data/obs/x3.json": "a653ffc6a4fc57e4",
    "src/torikit/data/obs/xplus.json": "84d393d8891919fc",
    "tests/golden/obs_cp2_f.json": "7ccc5e52c5f1e1a4",
    "tests/golden/obs_cp2_g.json": "0aa7452f0975bc30",
    "tests/golden/obs_cp2_herm.json": "dba242eb6e4ab846",
    "tests/golden/obs_cp2_nonherm.json": "41d266a51b65d14a",
    "tests/golden/obs_cp2_schwinger_e02.json": "bb0202b2ddc5d3cd",
    "tests/golden/obs_sphere_herm.json": "3b6b79e375286d7b",
    "matrix_model/bl0f.json": "a83009a51f99f504",
    "matrix_model/bl0g.json": "778bb78cbed08726",
    "matrix_model/bl10f.json": "78ce6457087d4a0b",
    "matrix_model/bl10g.json": "98c9c12ec1f8ad65",
    "matrix_model/bl11f.json": "773de918ffa5b82f",
    "matrix_model/bl11g.json": "55119b6e03ac948c",
    "matrix_model/bl12f.json": "40dfe4d5a126ad4b",
    "matrix_model/bl12g.json": "769e2ff80ce9c1a7",
    "matrix_model/bl13f.json": "840942f2bd636662",
    "matrix_model/bl13g.json": "17cee0239340a60b",
    "matrix_model/bl14f.json": "ef1e1cb53ccd49cf",
    "matrix_model/bl14g.json": "b3aa48c4ff6cee66",
    "matrix_model/bl1f.json": "a1a07288f00f6516",
    "matrix_model/bl1g.json": "8414bce77d149cd0",
    "matrix_model/bl2f.json": "10384555d5446f3b",
    "matrix_model/bl2g.json": "5a5ae4f9199b8ad3",
    "matrix_model/bl3f.json": "4112a3707eff5ee2",
    "matrix_model/bl3g.json": "2cf606fc89c94e62",
    "matrix_model/bl4f.json": "3ada5704e5e7f427",
    "matrix_model/bl4g.json": "e9b386d0738c1ae9",
    "matrix_model/bl5f.json": "647ecc48b5a4e8c7",
    "matrix_model/bl5g.json": "060be812cab9710f",
    "matrix_model/bl6f.json": "761bdd08ca158307",
    "matrix_model/bl6g.json": "b548e206de622e96",
    "matrix_model/bl7f.json": "4c499b414ec54fcf",
    "matrix_model/bl7g.json": "b2a7a23a19d05527",
    "matrix_model/bl8f.json": "d6ba0a4d16ecd455",
    "matrix_model/bl8g.json": "e8b1327bfd27287c",
    "matrix_model/bl9f.json": "4ad44ab5a7cade91",
    "matrix_model/bl9g.json": "44a85bf7465527d3",
    "matrix_model/bvm0f.json": "455d64d539e7b079",
    "matrix_model/bvm0g.json": "be3f3855c1f10cd3",
    "matrix_model/bvm1f.json": "d8db8cf13c2decb5",
    "matrix_model/bvm1g.json": "d34f2c88408220f1",
    "matrix_model/cp2_gen4.json": "d321f67416f5c152",
    "matrix_model/cp2_gen5.json": "529a1a4b725810ca",
    "matrix_model/cp2_gen6.json": "39a0c3656535a9c8",
    "matrix_model/cp2_gen7.json": "1f5d47e25ada8225",
    "matrix_model/cp2_gen8.json": "6afe0ca2f627bd25",
    "matrix_model/cp2_gen9.json": "aebe41b0ac49ebd0",
    "matrix_model/cp2_herm0.json": "4d557be3b35f0436",
    "matrix_model/cp2_herm1.json": "10da90bc4cae5303",
    "matrix_model/cp2_herm2.json": "21fddcebcf858b77",
    "matrix_model/cp2_herm3.json": "aefb84e06f57010c",
    "matrix_model/sphere_gen0.json": "fb727fd0b08ec0d8",
    "matrix_model/sphere_gen1.json": "581bee42f339bfd4",
    "matrix_model/sphere_gen2.json": "2809a5c009697adf",
    "matrix_model/sphere_gen3.json": "4cb61a6611b416db",
    "matrix_model/sphere_herm0.json": "43ce6ae5b928e5c5",
    "matrix_model/sphere_herm1.json": "a3b197370e4f4855",
    "matrix_model/sphere_herm2.json": "4b271f01c168c70f",
    "matrix_model/sphere_herm3.json": "a5e7de1719d9b2bc",
    "matrix_model/sphere_herm4.json": "40432ee641f2d0ec",
    "matrix_model/x3.json": "a653ffc6a4fc57e4",
}


def test_every_shipped_golden_and_benchmark_observable_parses_as_before(
        tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    digests = {key: hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
               for key, lines in observable_trees(tmp_path).items()}
    assert digests == DIGESTS
