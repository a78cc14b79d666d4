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
are demand-driven.  Given `modes=`, they skip every pair (l, m) with l + m
outside that set but visit the kept pairs in the same order, so the
coefficient at each kept mode is the same tree as in the full construction,
and evaluates to the same floats.  A check that reads one mode asks for that
mode (and, for a bracket that is a factor of another, the modes k - l the
outer step reads).  Their results are already at h = 0: the coefficients are
h-free trees built by the smart constructors, which a restriction to h = 0
would rebuild unchanged, so such an element is its own zero fiber.  The
derivatives d_i of each coefficient are taken once per (mode, axis), on
first use, and kept on the element (`AlgebraElement.derivative`); the
bracket and the classical oracles read the same memo.

On an orbit at fixed hbar every arrow is a lattice step, so `convolve_orbit`
computes (f.g)(hbar, u, k) at all orbit points u in one array pass: both
factor arrows are tested on the orbit's face bounds (`groupoid.face_bounds`,
the closed form of `groupoid.is_member`, not the orbit's own index), each
coefficient is evaluated once per mode on the rows where both arrows exist,
and the terms are summed over the modes of f in order.  It returns the same
floats, bit for bit, as one `convolve` per point wherever `expr.evaluate`
gives the same floats on arrays as on scalars.  The four operations always do, and numpy runs sin, cos and exp
through one loop for a scalar and a contiguous column; an integer power
may not (numpy's array power and Python's float power round differently).
To keep that contract the complex product and the sum are separate
float64 operations, re += ar*br - ai*bi and im += ar*bi + ai*br, in the
order Python's complex arithmetic performs them; numpy's complex multiply
may fuse them and round differently.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import expr as ex
from .errors import DomainError, EvalDomainError, FormatError, MarginError
from .groupoid import GroupoidPoint, Orbit, face_bounds, is_member, translate
from .polytope import DelzantPolytope, format_point, json_int, ratpoint

__all__ = [
    "AlgebraElement", "element", "observable_from_dict", "observable_to_dict",
    "load_observable", "extension_value", "groupoid_value", "evaluate_rows",
    "convolve", "convolve_orbit", "commutator", "renormalized_commutator", "involution",
    "bracket_element", "symbolic_bracket", "pointwise_product_at_zero",
    "BracketLimit", "EXACT_THRESHOLD", "numeric_bracket_limit", "displacements",
    "check_margin",
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
        k = tuple(int(c) for c in k)
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


def _combine(f, g, op):
    if f.n != g.n:
        raise DomainError("elements live over different dimensions")
    out = {k: c for k, c in f.modes}
    for k, c in g.modes:
        out[k] = op(out[k], c) if k in out else op(ex.ComplexExpr.zero(), c)
    return AlgebraElement(f.n, tuple(sorted(out.items())))


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
    if isinstance(value, (ex.Expr, str, int, Fraction)):
        return ex.ComplexExpr(_coerce_part(value, n))
    raise FormatError(f"cannot interpret coefficient {value!r}")


def element(n: int, modes) -> AlgebraElement:
    """Build an element from {k: coefficient}.

    Coefficients may be expression strings, Expr trees, (re, im) pairs,
    ints or Fractions, or ComplexExpr; a float or bool is FormatError.  Mode
    keys are integer tuples (ints allowed when n = 1).
    """
    packed = []
    for k, value in modes.items():
        if isinstance(k, int):
            k = (k,)
        k = tuple(int(c) for c in k)
        if len(k) != n:
            raise FormatError(f"mode {k} has length {len(k)}, expected {n}")
        packed.append((k, _coerce_coefficient(value, n)))
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
        {"k": list(k), "re": ex.to_text(c.re), "im": ex.to_text(c.im)}
        for k, c in f.modes
    ]}


def load_observable(path, n: int) -> AlgebraElement:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot read observable file {path}: {exc}") from exc
    return observable_from_dict(doc, n)


# ---------------------------------------------------------------------------
# evaluation on the arrow space

def extension_value(f: AlgebraElement, hbar, y, k) -> complex:
    """Value of the smooth extension at (hbar, y, k), ignoring membership."""
    return f.coefficient(k).evaluate(hbar, y)


def groupoid_value(P: DelzantPolytope, f: AlgebraElement, hbar, y, k) -> complex:
    """Extension value masked by arrow membership (0 off the arrow space)."""
    g = GroupoidPoint(Fraction(hbar), ratpoint(y), tuple(int(c) for c in k))
    if not is_member(P, g):
        return 0j
    return extension_value(f, g.hbar, g.y, g.k)


def convolve(P: DelzantPolytope, f: AlgebraElement, g: AlgebraElement,
             hbar, y, k) -> complex:
    """(f.g)(hbar, y, k): mode sum over l+m=k with the second factor shifted.

    Each term carries the indicator that both factor arrows lie in the arrow
    space, so the sum never sees points where a coefficient is singular but
    masked.
    """
    if f.n != g.n:
        raise DomainError("elements live over different dimensions")
    hbar = Fraction(hbar)
    y = ratpoint(y)
    k = tuple(int(c) for c in k)
    total = 0j
    for l, cf in f.modes:
        m = tuple(a - b for a, b in zip(k, l))
        cg = g.coefficient(m)
        if cg.is_zero_tree():
            continue
        if not is_member(P, GroupoidPoint(hbar, y, l)):
            continue
        mid = translate(y, hbar, l)
        if not is_member(P, GroupoidPoint(hbar, mid, m)):
            continue
        total += cf.evaluate(hbar, y) * cg.evaluate(hbar, mid)
    return total


def convolve_orbit(P: DelzantPolytope, f: AlgebraElement, g: AlgebraElement,
                   orb: Orbit, k) -> np.ndarray:
    """(f.g)(hbar, u, k) at every point u of the orbit, as a complex array
    in the orbit's order; equal to `convolve` at each point (module
    docstring).  An arrow is valid when its mode moves no facet active on
    the face and its head's pairing is at least `lower`; a mode longer than
    the steps' box joins no two orbit points.  A coefficient that is
    singular or not finite where its arrow exists raises EvalDomainError.
    """
    if f.n != g.n:
        raise DomainError("elements live over different dimensions")
    k = tuple(int(c) for c in k)
    terms = []
    for l, cf in f.modes:
        m = tuple(a - b for a, b in zip(k, l))
        cg = g.coefficient(m)
        if not cg.is_zero_tree():
            terms.append((l, cf, m, cg))
    re, im = np.zeros(len(orb)), np.zeros(len(orb))
    if not terms:
        return re + 1j * im
    steps = orb.steps
    N, active, lower = face_bounds(P, orb.y0, orb.hbar)
    free = ~active
    q, lower = steps @ N[:, free], lower[free]
    extent = (steps.max(axis=0) - steps.min(axis=0)).tolist()
    hbar = float(orb.hbar)
    for l, cf, m, cg in terms:
        if any(abs(c) > e for c, e in zip(l + m, extent + extent)):
            continue        # an arrow this long leaves the orbit
        p = np.array((l, m), dtype=np.int64) @ N
        if p[:, active].any():
            continue        # it moves a facet of the orbit's face
        mid = q + p[0, free]
        rows = np.flatnonzero((mid >= lower).all(axis=1)
                              & (mid + p[1, free] >= lower).all(axis=1))
        if not len(rows):
            continue
        tails = steps[rows]
        ar, ai = evaluate_rows(cf, hbar, orb.coordinates(tails), l)
        br, bi = evaluate_rows(cg, hbar, orb.coordinates(tails + l), m)
        re[rows] += ar * br - ai * bi
        im[rows] += ar * bi + ai * br
    return re + 1j * im


def evaluate_rows(coeff: ex.ComplexExpr, hbar: float, ys, k):
    """The (re, im) float arrays of the mode-k coefficient at the rows of the
    (rows, n) array ys, each of length rows; EvalDomainError where it is
    singular or not finite."""
    # contiguous columns: numpy may take another (SIMD) loop on strided ones
    cols = [np.ascontiguousarray(ys[:, i]) for i in range(ys.shape[1])]
    with np.errstate(all="ignore"):
        re = ex.evaluate(coeff.re, hbar, cols)
        im = ex.evaluate(coeff.im, hbar, cols)
    re = np.broadcast_to(re, (len(ys),))
    im = np.broadcast_to(im, (len(ys),))
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise EvalDomainError(f"coefficient of mode {k} not finite on the orbit")
    return re, im


def commutator(P, f, g, hbar, y, k) -> complex:
    return convolve(P, f, g, hbar, y, k) - convolve(P, g, f, hbar, y, k)


def renormalized_commutator(P, f, g, hbar, y, k) -> complex:
    """(f.g - g.f)/(i*hbar) at (hbar, y, k); hbar must be nonzero."""
    hbar = Fraction(hbar)
    if hbar == 0:
        raise DomainError(
            "renormalized commutator needs hbar != 0; use symbolic_bracket "
            "for the limit value")
    return commutator(P, f, g, hbar, y, k) / (1j * float(hbar))


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

def bracket_element(f: AlgebraElement, g: AlgebraElement, *,
                    modes=None) -> AlgebraElement:
    """The limit bracket as an element over the zero fiber.

    Mode k coefficient: (1/i) sum_{l+m=k} sum_i [ l_i f_l d_i g_m
    - m_i g_m d_i f_l ], all coefficients taken at h = 0.  With `modes` (a
    set of int tuples) only the modes in it are built; each is the same tree
    as in the full bracket, so it evaluates to the same floats.
    """
    if f.n != g.n:
        raise DomainError("elements live over different dimensions")
    n = f.n
    f0, g0 = f.subs_h_zero(), g.subs_h_zero()
    acc: dict[tuple[int, ...], ex.ComplexExpr] = {}
    for l, cf0 in f0.modes:
        for m, cg0 in g0.modes:
            k = tuple(a + b for a, b in zip(l, m))
            if modes is not None and k not in modes:
                continue
            term = ex.ComplexExpr.zero()
            for i in range(1, n + 1):
                li, mi = l[i - 1], m[i - 1]
                if li:
                    term = term + (cf0 * g0.derivative(m, i)).scaled(li)
                if mi:
                    term = term - (cg0 * f0.derivative(l, i)).scaled(mi)
            if term.is_zero_tree():
                continue
            acc[k] = acc[k] + term if k in acc else term
    out = {k: c.scaled(0, -1) for k, c in acc.items()}   # divide by i
    return AlgebraElement(n, tuple(sorted(out.items())), at_zero=True)


def symbolic_bracket(f: AlgebraElement, g: AlgebraElement, y, k) -> complex:
    """Bracket value at (y, k) from symbolic derivatives at h = 0."""
    k = tuple(int(c) for c in k)
    return extension_value(bracket_element(f, g, modes={k}), 0, y, k)


def pointwise_product_at_zero(f: AlgebraElement, g: AlgebraElement, *,
                              modes=None) -> AlgebraElement:
    """Mode convolution of the zero-fiber restrictions (no base shift).
    With `modes`, only those modes are built, each the same tree as in the
    full product."""
    if f.n != g.n:
        raise DomainError("elements live over different dimensions")
    f0, g0 = f.subs_h_zero(), g.subs_h_zero()
    acc: dict[tuple[int, ...], ex.ComplexExpr] = {}
    for l, cf0 in f0.modes:
        for m, cg0 in g0.modes:
            k = tuple(a + b for a, b in zip(l, m))
            if modes is not None and k not in modes:
                continue
            term = cf0 * cg0
            acc[k] = acc[k] + term if k in acc else term
    return AlgebraElement(f.n, tuple(sorted(acc.items())), at_zero=True)


# ---------------------------------------------------------------------------
# numeric limit with margin guard and two-level extrapolation

def displacements(f: AlgebraElement, g: AlgebraElement):
    """Mode displacements visited by the two convolution orders."""
    out = set()
    for l, _ in f.modes:
        out.add(l)
        for m, _ in g.modes:
            out.add(m)
            out.add(tuple(a + b for a, b in zip(l, m)))
    out.discard(tuple([0] * f.n))
    return sorted(out)


def check_margin(P: DelzantPolytope, f, g, y, hbar_max) -> None:
    """Require every intermediate point y + hbar*l strictly interior.

    Raises MarginError naming the first offending intermediate point.
    """
    y = ratpoint(y)
    hbar_max = Fraction(hbar_max)
    if not P.is_interior(y):
        raise MarginError(f"sample point {format_point(y)} is not interior")
    for d in displacements(f, g):
        p = translate(y, hbar_max, d)
        if not P.is_interior(p):
            raise MarginError(
                f"intermediate point {format_point(p)} (displacement {d} at "
                f"hbar = {hbar_max}) leaves the interior")


@dataclass
class BracketLimit:
    """Extrapolated limit of the renormalized commutator over an hbar sweep."""

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
    """The hbar values of a sweep as Fractions; DomainError unless they are
    nonempty, positive and strictly decreasing."""
    hs = [Fraction(h) for h in hbar_list]
    if not hs or any(h <= 0 for h in hs):
        raise DomainError("hbar list must be positive (nonzero) values")
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise DomainError("hbar list must be strictly decreasing")
    return hs


# successive differences below this make the limit "exact"
EXACT_THRESHOLD = 1e-12


def numeric_bracket_limit(P: DelzantPolytope, f: AlgebraElement,
                          g: AlgebraElement, y, k, hbar_list) -> BracketLimit:
    """Sweep the renormalized commutator over decreasing hbar and
    extrapolate to zero.

    The first-order elimination step is iterated over the whole sweep (a
    Richardson table); the table column reports the single-step extrapolant
    per level.  The empirical convergence order is the log-ratio of
    successive differences; "exact" is reported when every difference is
    below the threshold (the value does not depend on hbar).
    """
    hs = hbar_sweep(hbar_list)
    check_margin(P, f, g, y, hs[0])

    values = [renormalized_commutator(P, f, g, h, y, k) for h in hs]
    diffs = [abs(b - a) for a, b in zip(values, values[1:])]

    table = []
    extrapolated = values[0]
    for i, (h, r) in enumerate(zip(hs, values)):
        order = None
        if 1 <= i <= len(diffs) - 1:
            num, den = diffs[i - 1], diffs[i]
            ratio_h = float(hs[i - 1] / hs[i])
            if den > EXACT_THRESHOLD and num > EXACT_THRESHOLD:
                order = math.log(num / den) / math.log(ratio_h)
        if i >= 1:
            extrapolated = _two_level(float(hs[i - 1]), values[i - 1],
                                      float(hs[i]), values[i])
        table.append({
            "hbar": h,
            "value": r,
            "extrapolated": extrapolated,
            "order": order,
        })

    if all(d <= EXACT_THRESHOLD for d in diffs):
        return BracketLimit(values[-1], "exact", table)
    orders = [row["order"] for row in table if row["order"] is not None]
    order = sorted(orders)[len(orders) // 2] if orders else float("nan")
    return BracketLimit(neville_to_zero(hs, values), order, table)
