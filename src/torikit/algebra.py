"""Convolution *-algebra of finitely supported modes over the arrow space.

An element assigns to finitely many modes k a complex coefficient given as a
pair of smooth real expressions in (h, y1..yn).  Products convolve modes with
the base point of the second factor shifted by h times the first factor's
mode; every term is masked by membership of both factor arrows.  Renormalized
commutators (f*g - g*f)/(i*hbar) converge, as hbar -> 0, to a classical
bracket that is also computed symbolically from the zero fiber.

Mode conventions (pinned once, shared by every module):

    (f.g)(h, y, k)   = sum_{l+m=k} f(h, y, l) * g(h, y + h*l, m)
    (f*)(h, y, k)    = conj(f(h, y + h*k, -k))
    bracket(f,g)(y,k) = (1/i) sum_{l+m=k} sum_i [ l_i f_l(0,y) d_i g_m(0,y)
                                                - m_i g_m(0,y) d_i f_l(0,y) ]

With these, the canonical pair y*e_1, y*e_(-1) on the unit interval has
renormalized commutator identically -2iy at mode 0, for every hbar.

The zero-fiber constructions `bracket_element` and `pointwise_product_at_zero`
are one demand-driven pair walk with two term builders: it restricts both
factors to h = 0 and sums the term of each pair (l, m) of their modes, in
f0-then-g0 order, at mode l + m; the bracket drops a term that is the zero
tree.  Given `modes=`, the walk skips every pair with l + m outside that set
but visits the kept pairs in the same order, so the coefficient at each kept
mode is the same tree as in the full construction, and evaluates to the same
floats.  A check that reads one mode asks for that mode (and, for a bracket
that is a factor of another, the modes k - l the outer step reads).  Their
results are already at h = 0: the coefficients are h-free trees built by the
smart constructors, which a restriction to h = 0 would rebuild unchanged, so
such an element is its own zero fiber.  The derivatives d_i of each
coefficient are taken once per (mode, axis), on first use, and kept on the
element (`AlgebraElement.derivative`); the bracket and the classical oracles
read the same memo.  The terms at one mode form a chain of sums as deep as
their count, which evaluation and derivation recurse through, so the walk
refuses more than MAX_PAIRS_PER_MODE of them at one mode (DomainError).

The limit of a renormalized commutator is reached by two routes, the
scalar sweep `numeric_bracket_limit` and the matrix sweep
`matrixrep.bracket_via_matrices`, and one engine, `extrapolate`, turns
either sweep's values into the limit: its table, order, "exact" verdict
and estimate.

This is the symbolic and scalar layer; the product on a whole orbit's
arrays is `matrixrep.convolve_orbit`.
"""
from __future__ import annotations

import bisect
import cmath
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from . import expr as ex
from .errors import DomainError, EvalDomainError, FormatError, MarginError
from .groupoid import arrow, is_member, translate
from .polytope import (DelzantPolytope, arrow_valid, format_point, int_mode, json_int,
                       mode_pairings, rational, ratpoint, read_json, scaled_slacks)

__all__ = [
    "AlgebraElement", "element", "observable_from_dict", "observable_to_dict",
    "load_observable", "extension_value", "groupoid_value",
    "convolve", "commutator", "renormalized_commutator", "involution",
    "MAX_PAIRS_PER_MODE", "bracket_element", "symbolic_bracket",
    "pointwise_product_at_zero", "BracketLimit", "EXACT_THRESHOLD",
    "extrapolate", "numeric_bracket_limit", "check_margin", "hbar_sweep",
    "not_finite", "renormalize", "common_n",
]


@dataclass(frozen=True)
class AlgebraElement:
    """Finite mode map k -> complex coefficient expression in (h, y)."""

    n: int
    modes: tuple[tuple[tuple[int, ...], ex.ComplexExpr], ...]
    # every coefficient is an h-free tree built by the smart constructors,
    # so the element is its own zero fiber; not part of equality
    at_zero: bool = field(default=False, compare=False, repr=False)

    def coefficient(self, k) -> ex.ComplexExpr:
        k = int_mode(k, self.n)
        for key, c in self.modes:
            if key == k:
                return c
        return ex.ComplexExpr.zero()

    def __add__(self, other):
        return _combine(self, other, lambda a, b: a + b)

    def __sub__(self, other):
        return _combine(self, other, lambda a, b: a - b)

    def scaled(self, a, b=0) -> "AlgebraElement":
        """Multiply by the exact complex scalar a + b*i."""
        return AlgebraElement(
            self.n, tuple((k, c.scaled(a, b)) for k, c in self.modes))

    def subs_h_zero(self) -> "AlgebraElement":
        """The zero-fiber restriction, computed once per element (the
        element itself when it is already at h = 0)."""
        return self if self.at_zero else self._zero_fiber

    @cached_property
    def _zero_fiber(self) -> "AlgebraElement":
        return AlgebraElement(
            self.n, tuple((k, c.subs_h(0)) for k, c in self.modes), at_zero=True)

    def derivative(self, k: tuple[int, ...], i: int) -> ex.ComplexExpr:
        """d/dy_i of the mode-k coefficient (k an int tuple), derived on
        first use and kept on the element for every later caller."""
        d = self._derivatives.get((k, i))
        if d is None:
            d = self._derivatives[k, i] = self.coefficient(k).d_dy(i)
        return d

    @cached_property
    def _derivatives(self) -> dict:
        return {}

    def max_mode(self) -> int:
        return max((max(abs(c) for c in k) for k, _ in self.modes), default=0)


def common_n(f: AlgebraElement, g: AlgebraElement) -> int:
    """The dimension n two elements share; DomainError when they differ."""
    if f.n != g.n:
        raise DomainError("elements live over different dimensions")
    return f.n


def _combine(f, g, op):
    n = common_n(f, g)
    out = {k: c for k, c in f.modes}
    for k, c in g.modes:
        out[k] = op(out[k], c) if k in out else op(ex.ComplexExpr.zero(), c)
    return AlgebraElement(n, tuple(sorted(out.items())))


def _coerce_part(value, n) -> ex.Expr:
    if isinstance(value, ex.Expr):
        return value
    if isinstance(value, str):
        return ex.parse(value, n)
    if isinstance(value, (float, bool)):
        raise FormatError("coefficients must be exact (expression strings or "
                          f"ints), got {type(value).__name__}")
    return ex.Const(value)


def _coerce_coefficient(value, n) -> ex.ComplexExpr:
    if isinstance(value, ex.ComplexExpr):
        return value
    if isinstance(value, (tuple, list)) and len(value) == 2:
        return ex.ComplexExpr(*(_coerce_part(part, n) for part in value))
    if isinstance(value, (ex.Expr, str, int, Fraction, float)):
        return ex.ComplexExpr(_coerce_part(value, n))
    raise FormatError(f"cannot interpret coefficient {value!r}")


def element(n: int, modes) -> AlgebraElement:
    """Build an element from {k: coefficient}.

    Coefficients may be expression strings, Expr trees, (re, im) pairs,
    ints or Fractions, or ComplexExpr; a float or bool is FormatError.  Mode
    keys are integer tuples (ints allowed when n = 1), n entries long
    (`int_mode`).
    """
    packed = [(int_mode((k,) if isinstance(k, int) else k, n),
               _coerce_coefficient(value, n)) for k, value in modes.items()]
    return AlgebraElement(n, tuple(sorted(packed)))


# ---------------------------------------------------------------------------
# JSON schema: {"modes": [{"k": [int, ...], "re": "expr", "im": "expr"}]}

def observable_from_dict(doc, n: int) -> AlgebraElement:
    try:
        modes = {}
        for item in doc["modes"]:
            k = tuple(json_int(c) for c in item["k"])
            modes[k] = (item.get("re", "0"), item.get("im", "0"))
        return element(n, modes)
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad observable document: {exc}") from exc


def observable_to_dict(f: AlgebraElement) -> dict:
    return {"modes": [
        {"k": list(k), "re": c.re.text(), "im": c.im.text()}
        for k, c in f.modes
    ]}


def load_observable(path, n: int) -> AlgebraElement:
    return observable_from_dict(read_json(path, "observable"), n)


# ---------------------------------------------------------------------------
# evaluation on the arrow space

def extension_value(f: AlgebraElement, hbar, y, k) -> complex:
    """Value of the smooth extension at (hbar, y, k), ignoring membership."""
    hbar, y = rational(hbar), ratpoint(y, f.n)
    return f.coefficient(k).evaluate(hbar, y)


def groupoid_value(P: DelzantPolytope, f: AlgebraElement, hbar, y, k) -> complex:
    """Extension value masked by arrow membership (0 off the arrow space)."""
    g = arrow(hbar, ratpoint(y, P.n), k)
    if not is_member(P, g):
        return 0j
    return extension_value(f, g.hbar, g.y, g.k)


def convolve(P: DelzantPolytope, f: AlgebraElement, g: AlgebraElement,
             hbar, y, k) -> complex:
    """(f.g)(hbar, y, k): mode sum over l+m=k with the second factor shifted.

    Each term carries the indicator that both factor arrows lie in the arrow
    space, so the sum never sees points where a coefficient is singular but
    masked.  Both indicators are `polytope.arrow_valid` on y's integer
    slacks, taken once per call.  A sum that is not finite (finite factors
    whose product overflows) raises EvalDomainError (`not_finite`).
    """
    hbar = rational(hbar)
    y = ratpoint(y)
    k = int_mode(k, common_n(f, g))
    s, _, h = scaled_slacks(P, y, hbar)
    total = 0j
    for l, cf in f.modes:
        m = tuple(a - b for a, b in zip(k, l))
        cg = g.coefficient(m)
        if cg.is_zero_tree():
            continue
        pl = mode_pairings(P, l)
        if not arrow_valid(s, h, pl):
            continue
        # the head's slacks over the same denominator
        if not arrow_valid([sj + h * pj for sj, pj in zip(s, pl)], h,
                           mode_pairings(P, m)):
            continue
        total += cf.evaluate(hbar, y) * cg.evaluate(hbar, translate(y, hbar, l))
    if not cmath.isfinite(total):
        raise not_finite("product", k, y, hbar)
    return total


def not_finite(what: str, k, y, hbar) -> EvalDomainError:
    """The error for a value `what` at mode k, point y and hbar that is not
    finite; `convolve` and `matrixrep.convolve_orbit` raise the same one."""
    return EvalDomainError(
        f"{what} at mode {k} is not finite at {format_point(y)}, hbar = {hbar}")


def commutator(P, f, g, hbar, y, k) -> complex:
    return convolve(P, f, g, hbar, y, k) - convolve(P, g, f, hbar, y, k)


def renormalized_commutator(P, f, g, hbar, y, k) -> complex:
    """(f.g - g.f)/(i*hbar) at (hbar, y, k), hbar != 0 (`renormalize`)."""
    hbar = rational(hbar)
    if hbar == 0:
        raise DomainError(
            "renormalized commutator needs hbar != 0; use symbolic_bracket "
            "for the limit value")
    return renormalize(commutator(P, f, g, hbar, y, k), hbar, int_mode(k, f.n), ratpoint(y))


def renormalize(comm: complex, hbar: Fraction, k, y) -> complex:
    """comm / (i*hbar) on both bracket routes; `not_finite` if not finite or float(hbar) = 0."""
    h, _ = ex.floats(hbar, ())
    if h and cmath.isfinite(value := comm / (1j * h)):
        return value
    raise not_finite("renormalized commutator", k, y, hbar)


def involution(f: AlgebraElement) -> AlgebraElement:
    """Adjoint: (f*)(h, y, k) = conj(f(h, y + h*k, -k)).

    For each original mode l the coefficient moves to mode -l with y
    substituted by y - h*l, symbolically, then conjugated.
    """
    out = []
    for l, c in f.modes:
        neg = tuple(-a for a in l)
        out.append((neg, c.shift_y(neg).conjugate()))
    return AlgebraElement(f.n, tuple(sorted(out)))


# ---------------------------------------------------------------------------
# the classical bracket from the zero fiber, symbolically

# the most terms a zero-fiber sum chains at one mode (module docstring)
MAX_PAIRS_PER_MODE = 128


def _zero_fiber_walk(f: AlgebraElement, g: AlgebraElement, modes, term) -> dict:
    """{k: sum of term(f0, g0, l, f0_l, m, g0_m) over l + m = k in `modes`
    (None for all)} (module docstring); a term of None is left out.
    DomainError when more than MAX_PAIRS_PER_MODE terms land on one mode."""
    common_n(f, g)
    f0, g0 = f.subs_h_zero(), g.subs_h_zero()
    acc: dict[tuple[int, ...], ex.ComplexExpr] = {}
    count: dict[tuple[int, ...], int] = {}
    for l, cf0 in f0.modes:
        for m, cg0 in g0.modes:
            k = tuple(a + b for a, b in zip(l, m))
            if modes is not None and k not in modes:
                continue
            t = term(f0, g0, l, cf0, m, cg0)
            if t is None:
                continue
            count[k] = count.get(k, 0) + 1
            if count[k] > MAX_PAIRS_PER_MODE:
                raise DomainError(f"zero-fiber sum at mode {k} exceeds the cap "
                                  f"of {MAX_PAIRS_PER_MODE} mode pairs")
            acc[k] = acc[k] + t if k in acc else t
    return acc


def _bracket_term(f0, g0, l, cf0, m, cg0):
    # sum_i [ l_i f_l d_i g_m - m_i g_m d_i f_l ], None when it is the zero tree
    term = ex.ComplexExpr.zero()
    for i in range(1, f0.n + 1):
        li, mi = l[i - 1], m[i - 1]
        if li:
            term = term + (cf0 * g0.derivative(m, i)).scaled(li)
        if mi:
            term = term - (cg0 * f0.derivative(l, i)).scaled(mi)
    return None if term.is_zero_tree() else term


def bracket_element(f: AlgebraElement, g: AlgebraElement, *,
                    modes=None) -> AlgebraElement:
    """The limit bracket as an element over the zero fiber.

    Mode k coefficient: (1/i) sum_{l+m=k} sum_i [ l_i f_l d_i g_m
    - m_i g_m d_i f_l ], all coefficients taken at h = 0.  With `modes` (a
    set of int tuples) only those modes are built (module docstring).
    """
    acc = _zero_fiber_walk(f, g, modes, _bracket_term)
    return AlgebraElement(f.n, tuple(sorted((k, c.scaled(0, -1))    # divide by i
                                            for k, c in acc.items())), at_zero=True)


def symbolic_bracket(f: AlgebraElement, g: AlgebraElement, y, k) -> complex:
    """Bracket value at (y, k) from symbolic derivatives at h = 0."""
    k = int_mode(k, f.n)
    return extension_value(bracket_element(f, g, modes={k}), 0, y, k)


def pointwise_product_at_zero(f: AlgebraElement, g: AlgebraElement, *,
                              modes=None) -> AlgebraElement:
    """Mode convolution of the zero-fiber restrictions (no base shift);
    `modes` as in `bracket_element`."""
    acc = _zero_fiber_walk(f, g, modes, lambda f0, g0, l, cf0, m, cg0: cf0 * cg0)
    return AlgebraElement(f.n, tuple(sorted(acc.items())), at_zero=True)


# ---------------------------------------------------------------------------
# numeric limit with margin guard and two-level extrapolation

def check_margin(P: DelzantPolytope, f, g, y, hbar_max) -> None:
    """Require y and every intermediate point y + hbar_max*d strictly
    interior, for the displacements d the two convolution orders visit: the
    modes l of f, and when f has a mode, the modes m of g and the sums
    l + m.

    On y's scaled slacks s and step h (`scaled_slacks`) the point
    y + hbar_max*d is interior iff s_j + h*<d, X_j> > 0 at every facet j.
    The pairing is linear and s > 0, so every displacement passes iff each
    facet has s_j + (least h*<l, X_j> or 0) + (least h*<m, X_j> or 0) > 0:
    one pairing per mode.  Otherwise MarginError names the first offending
    displacement in sorted order; the sums l + m with l fixed follow the
    order of m, so each l adds at most its first offending sum, found with
    one binary search per facet on the prefix maxima of g's negated steps.
    """
    y = ratpoint(y)
    hbar_max = rational(hbar_max)
    s, _, h = scaled_slacks(P, y, hbar_max)
    if min(s) <= 0:
        raise MarginError(f"sample point {format_point(y)} is not interior")
    fs = [(l, [h * p for p in mode_pairings(P, l)]) for l, _ in f.modes]
    gs = [(m, [h * p for p in mode_pairings(P, m)])
          for m in sorted(m for m, _ in g.modes)] if fs else []

    def least(steps):       # per facet, the least step or 0
        return [min(col) for col in zip(*(t for _, t in steps), [0] * len(s))]

    if all(sj + a + b > 0 for sj, a, b in zip(s, least(fs), least(gs))):
        return

    def leaves(step):
        return any(sj + t <= 0 for sj, t in zip(s, step))

    bad = [d for d, t in fs + gs if leaves(t)]
    # per facet j, the prefix maxima of -h*<m, X_j> in m's sorted order:
    # l + m leaves at facet j iff -h*<m, X_j> >= s_j + h*<l, X_j>, so one
    # search per facet finds each l's first offending m
    reach = [list(itertools.accumulate((-t for t in col), max))
             for col in zip(*(t for _, t in gs))]
    for l, tl in fs:
        i = min(map(bisect.bisect_left, reach, map(operator.add, s, tl)), default=len(gs))
        if i < len(gs):
            bad.append(tuple(a + b for a, b in zip(l, gs[i][0])))
    d = min(bad)
    raise MarginError(
        f"intermediate point {format_point(translate(y, hbar_max, d))} "
        f"(displacement {d} at hbar = {hbar_max}) leaves the interior")


@dataclass
class BracketLimit:
    """The limit at hbar -> 0 of an hbar sweep, as `extrapolate` gives it for
    both routes to the bracket (`numeric_bracket_limit` and
    `matrixrep.bracket_via_matrices`): the estimate, the order (a float, or
    "exact") and one `table` row per hbar, with the keys "hbar", "value" and
    "extrapolated"."""

    estimate: complex
    order: float | str
    table: list[dict]


def _two_level(h0, r0, h1, r1):
    # eliminate the leading O(hbar) term between consecutive nodes
    return (h0 * r1 - h1 * r0) / (h0 - h1)


def neville_to_zero(hbar_list, values) -> complex:
    """Iterated first-order elimination (full Richardson table) at zero."""
    hs = [float(h) for h in hbar_list]
    table = list(map(complex, values))
    for level in range(1, len(table)):
        table = [_two_level(hs[i], table[i], hs[i + level], table[i + 1])
                 for i in range(len(table) - 1)]
    return table[0]


def hbar_sweep(hbar_list) -> list[Fraction]:
    """A sweep's hbars as Fractions; DomainError unless they are nonempty,
    > 0, and > 0 and strictly decreasing as floats (no Richardson step divides by 0)."""
    hs = [rational(h) for h in hbar_list]
    if not hs or any(h <= 0 for h in hs):
        raise DomainError("hbar list must be positive (nonzero) values")
    _, fs = ex.floats(0, hs)
    if fs[-1] == 0 or any(b >= a for a, b in zip(fs, fs[1:])):
        raise DomainError("hbar list must be strictly decreasing and positive as floats")
    return hs


# successive differences below this make the limit "exact"
EXACT_THRESHOLD = 1e-12


def extrapolate(hs, values) -> BracketLimit:
    """The limit at zero of the values of a sweep over the hbars `hs` (as
    `hbar_sweep` returns them), one value per hbar.

    The first-order elimination step is iterated over the whole sweep (a
    Richardson table, `neville_to_zero`) for the estimate; each table row
    holds its hbar, its value and the single-step extrapolant from the
    previous hbar (the first row repeats its value).  The empirical
    convergence order is the median, over the inner nodes whose two
    differences both exceed EXACT_THRESHOLD, of the log-ratio of those
    successive differences.  When there is at least one difference and
    every difference is below the threshold (the value does not depend on
    hbar), the order is "exact" and the estimate is the last value.  A
    one-hbar sweep has no difference: its estimate is its one value and its
    order nan.
    """
    diffs = [abs(b - a) for a, b in zip(values, values[1:])]
    extrapolated = values[:1] + [_two_level(float(h0), r0, float(h1), r1)
                                 for h0, r0, h1, r1 in zip(hs, values, hs[1:], values[1:])]
    table = [{"hbar": h, "value": r, "extrapolated": e}
             for h, r, e in zip(hs, values, extrapolated)]

    if diffs and all(d <= EXACT_THRESHOLD for d in diffs):
        return BracketLimit(values[-1], "exact", table)
    orders = sorted(math.log(num / den) / math.log(float(h0 / h1))
                    for num, den, h0, h1 in zip(diffs, diffs[1:], hs, hs[1:])
                    if num > EXACT_THRESHOLD and den > EXACT_THRESHOLD)
    order = orders[len(orders) // 2] if orders else float("nan")
    return BracketLimit(neville_to_zero(hs, values), order, table)


def numeric_bracket_limit(P: DelzantPolytope, f: AlgebraElement,
                          g: AlgebraElement, y, k, hbar_list) -> BracketLimit:
    """The renormalized commutator at (y, k) over a decreasing hbar sweep
    (`hbar_sweep`), after `check_margin` at its largest hbar, extrapolated
    to zero (`extrapolate`)."""
    hs = hbar_sweep(hbar_list)
    check_margin(P, f, g, y, hs[0])
    return extrapolate(hs, [renormalized_commutator(P, f, g, h, y, k) for h in hs])
