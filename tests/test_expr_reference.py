"""The expression layer's constructors and evaluation entry against
references: the constructors as they were when each tested its operands
through `_is` (up to six constant tests and four isinstance calls per
call), and the evaluation entry as it was when it converted with float()
behind isinstance tests and `ComplexExpr.evaluate` converted its inputs
three times.  Each reference is kept verbatim, so every tree must come
back node for node and every float bit for bit."""
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from torikit import expr as ex
from torikit import polytope as pt
from torikit import suite
from torikit.errors import EvalDomainError

F = Fraction


# ---------------------------------------------------------------------------
# reference constructors

def _is(e, v) -> bool:
    return type(e) is ex.Const and e.value == v


def ref_add(a, b):
    if _is(a, 0):
        return b
    if _is(b, 0):
        return a
    if isinstance(a, ex.Const) and isinstance(b, ex.Const):
        return ex.Const(a.value + b.value)
    if isinstance(b, ex.Neg):
        return ex.Sub(a, b.a)
    return ex.Add(a, b)


def ref_sub(a, b):
    if _is(b, 0):
        return a
    if isinstance(a, ex.Const) and isinstance(b, ex.Const):
        return ex.Const(a.value - b.value)
    if _is(a, 0):
        return ref_neg(b)
    return ex.Sub(a, b)


def ref_mul(a, b):
    if _is(a, 0) or _is(b, 0):
        return ex._ZERO
    if _is(a, 1):
        return b
    if _is(b, 1):
        return a
    if isinstance(a, ex.Const) and isinstance(b, ex.Const):
        return ex.Const(a.value * b.value)
    if _is(a, -1):
        return ref_neg(b)
    if _is(b, -1):
        return ref_neg(a)
    if isinstance(b, ex.Const) and not isinstance(a, ex.Const):
        a, b = b, a
    return ex.Mul(a, b)


def ref_div(a, b):
    if _is(a, 0) and not _is(b, 0):
        return ex._ZERO
    if _is(b, 1):
        return a
    if isinstance(a, ex.Const) and isinstance(b, ex.Const) and b.value != 0:
        return ex.Const(a.value / b.value)
    return ex.Div(a, b)


def ref_neg(a):
    if isinstance(a, ex.Const):
        return ex.Const(-a.value)
    if isinstance(a, ex.Neg):
        return a.a
    return ex.Neg(a)


# ---------------------------------------------------------------------------
# reference evaluation entry

def ref_floats(h, y):
    try:
        if isinstance(h, Fraction):
            h = float(h)
        return h, [float(v) if isinstance(v, Fraction) else v for v in y]
    except OverflowError:
        raise EvalDomainError("an input lies past float range") from None


def ref_evaluate(e, h, y):
    h, y = ref_floats(h, y)
    try:
        out = e.eval(h, y)
    except OverflowError as exc:
        raise EvalDomainError("evaluation overflows", e) from exc
    if isinstance(out, np.ndarray):
        return out
    out = float(out)
    if not math.isfinite(out):
        raise EvalDomainError("evaluation overflows", e)
    return out


def ref_complex_evaluate(c, h, y):
    h, y = ref_floats(h, y)
    return ref_evaluate(c.re, h, y) + 1j * ref_evaluate(c.im, h, y)


# ---------------------------------------------------------------------------
# constructors: every ordered pair of a grid of operands

def subtrees(e):
    out = [e]
    for name in ("a", "b"):
        child = getattr(e, name, None)
        if isinstance(child, ex.Expr):
            out += subtrees(child)
    return out


def operand_grid():
    y1, h = ex.Y(1), ex.H()
    grid = [ex.Const(v) for v in (0, 1, -1, 2, F(-1, 2))]
    grid += [h, y1, ex.Neg(y1), ex.Add(y1, h), ex.Mul(ex.Const(3), y1), ex.Sub(y1, h),
             ex.Pow(y1, 2), ex.Neg(ex.Const(2)), ex.Fun("sin", y1)]
    rng = random.Random(31)
    seen = set(grid)
    for P in (pt.square(), pt.projective_space(2)):
        for _ in range(4):
            f = suite.random_element(P, rng, allow_h=True)
            for _, c in f.modes:
                for e in subtrees(c.re) + subtrees(c.im):
                    if e not in seen:
                        seen.add(e)
                        grid.append(e)
    return grid


GRID = operand_grid()
BINARY = [("_add", ref_add), ("_sub", ref_sub), ("_mul", ref_mul), ("_div", ref_div)]


def same_node(got, want):
    """Node for node: the same class and fields at every level (the
    dataclass equality), the same text, and the same node kinds on a walk."""
    assert type(got) is type(want)
    assert got == want
    assert got.text() == want.text()
    assert [type(n) for n in subtrees(got)] == [type(n) for n in subtrees(want)]


def test_grid_covers_every_constant_rule():
    assert len(GRID) > 40
    assert {type(e) for e in GRID} >= {ex.Const, ex.H, ex.Y, ex.Neg, ex.Add, ex.Mul,
                                      ex.Sub, ex.Pow, ex.Fun}


@pytest.mark.parametrize("name, ref", BINARY, ids=[n for n, _ in BINARY])
def test_binary_constructors_match_the_reference_on_every_pair(name, ref):
    build = getattr(ex, name)
    for a in GRID:
        for b in GRID:
            got, want = build(a, b), ref(a, b)
            same_node(got, want)
            # an operand or the shared zero comes back as that very node
            assert ((got is a, got is b, got is ex._ZERO)
                    == (want is a, want is b, want is ex._ZERO))


def test_negation_matches_the_reference():
    for a in GRID:
        got, want = ex._neg(a), ref_neg(a)
        same_node(got, want)
        inner = getattr(a, "a", None)
        assert (got is inner) == (want is inner)


def test_zero_tree_test_reads_each_part_once():
    zero, y1 = ex.Const(0), ex.Y(1)
    assert ex.ComplexExpr(zero, ex.Const(F(0))).is_zero_tree()
    assert ex.ComplexExpr.zero().is_zero_tree()
    assert not ex.ComplexExpr(zero, y1).is_zero_tree()
    assert not ex.ComplexExpr(ex.Const(F(1, 2)), zero).is_zero_tree()
    assert not ex.ComplexExpr(ex.Sub(y1, y1), zero).is_zero_tree()


def test_shift_y_nodes_are_shared_and_the_cache_is_bounded():
    e = ex.parse("y1*y2 + h", 2)
    first, again = ex.shift_y(e, (1, -3)), ex.shift_y(e, (1, -3))
    assert first == again and first.a.a is again.a.a
    assert first.text() == "(y1 + h)*(y2 + -3*h) + h"
    for k in range(600):
        ex.shift_y(e, (k, -k))
    info = ex._shifted.cache_info()
    assert info.maxsize == 256 and info.currsize <= 256
    assert ex.shift_y(e, (1, -3)) == first


# ---------------------------------------------------------------------------
# evaluation entry: the reference's bits, values and error texts

BIG = F(2 ** 53 + 1)                 # past 2^53: rounds to 2^53
HUGE = F(10 ** 400, 3)               # past float range
TINY = F(1, 10 ** 400)               # below the smallest subnormal: 0.0

SOURCES = ["h*y1 + sin(y2)", "y1/3 - h^2", "y1^-1 + exp(h)", "sqrt(y2) * cos(y1)",
           "y1*y2 - 1/7", "2", "h", "1/y2"]

SCALARS = [F(1, 3), F(-2, 7), BIG, TINY, F(2 ** 60 + 1, 3), 3, -1, 0.1, 2.0, -0.0]


def outcome(fn, *args):
    try:
        out = fn(*args)
    except (EvalDomainError, OverflowError) as exc:
        return ("raises", type(exc), str(exc))
    if isinstance(out, np.ndarray):
        return ("array", out.dtype, out.tobytes())
    if isinstance(out, complex):
        return ("complex", out.real.hex(), out.imag.hex())
    return ("float", type(out), out.hex())


def test_evaluate_gives_the_references_bits_on_every_input_kind():
    rng = random.Random(41)
    trees = [ex.parse(s, 2) for s in SOURCES]
    arrays = [np.array([0.25, 1.5, 3.0]), np.array([F(1, 3), 0.5, 2.0], dtype=float)]
    inputs = []
    for _ in range(300):
        h = rng.choice(SCALARS)
        y = [rng.choice(SCALARS + arrays) for _ in range(2)]
        inputs.append((h, y))
    inputs += [(HUGE, [1.0, 1.0]), (0.5, [HUGE, 1.0]), (F(1, 2), (TINY, BIG))]
    with np.errstate(all="ignore"):
        for h, y in inputs:
            for e in trees:
                assert outcome(ex.evaluate, e, h, y) == outcome(ref_evaluate, e, h, y)
            c = ex.ComplexExpr(rng.choice(trees), rng.choice(trees))
            assert outcome(c.evaluate, h, y) == outcome(ref_complex_evaluate, c, h, y)


def test_an_input_past_float_range_is_an_eval_domain_error():
    e = ex.parse("y1 + 1", 1)
    for call in (lambda: ex.evaluate(e, 0, [HUGE]),
                 lambda: ex.ComplexExpr(e, e).evaluate(HUGE, [1.0])):
        with pytest.raises(EvalDomainError) as exc:
            call()
        assert str(exc.value) == "an input lies past float range"


@pytest.mark.parametrize("value", [F(1, 3), BIG, F(-(2 ** 80) - 1, 7), TINY,
                                   F(10 ** 300 + 1, 10 ** 290)])
def test_a_fraction_converts_as_float_does(value):
    h, y = ex._floats(value, [value, 2, 0.5])
    assert h.hex() == float(value).hex() and y[0].hex() == float(value).hex()
    assert y[1:] == [2, 0.5] and type(y[1]) is int


def test_complex_evaluate_converts_its_inputs_once(monkeypatch):
    calls = []
    floats = ex._floats

    def counted(h, y):
        calls.append((h, tuple(y)))
        return floats(h, y)

    monkeypatch.setattr(ex, "_floats", counted)
    c = ex.ComplexExpr(ex.parse("h*y1 + y2", 2), ex.parse("y1 - h", 2))
    got = c.evaluate(F(1, 7), (F(1, 3), F(2, 5)))
    assert calls == [(F(1, 7), (F(1, 3), F(2, 5)))]
    assert got == ref_complex_evaluate(c, F(1, 7), (F(1, 3), F(2, 5)))
    calls.clear()
    ex.evaluate(c.re, F(1, 7), (F(1, 3), F(2, 5)))
    assert len(calls) == 1
