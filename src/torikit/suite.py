"""Seeded verification batteries over a polytope.

Each battery draws random observables, points and modes from a seeded
generator, checks one family of laws (groupoid axioms, algebra laws,
representation axioms, bracket identities, construction identities), and
reports counterexamples.  The CLI `verify suite` command and the acceptance
tests both run these.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import algebra as al
from . import classical as cl
from . import delzant as dz
from . import expr as ex
from . import groupoid as gr
from . import intlat
from . import matrixrep as mr
from .errors import DomainError, MarginError
from .polytope import (DelzantPolytope, bounding_box, in_delta_k, in_u_k,
                       integer_slacks)

__all__ = ["BatteryResult", "SuiteReport", "run_suite",
           "random_interior_point", "random_element", "random_arrow"]


@dataclass
class BatteryResult:
    name: str
    cases: int
    first_failure: dict | None = None
    max_error: float = 0.0

    @property
    def passed(self) -> bool:
        return self.first_failure is None

    def check(self, error: float, tol: float, context) -> None:
        """Count one case; the first that fails is kept as the battery's
        counterexample."""
        self.cases += 1
        self.max_error = max(self.max_error, error)
        if not (error <= tol) and self.first_failure is None:
            self.first_failure = {"error": error, **context}

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "cases": self.cases,
            "passed": self.passed,
            "max_error": self.max_error,
            "first_counterexample": _jsonable(self.first_failure),
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, al.AlgebraElement):
        return al.observable_to_dict(obj)
    return obj


@dataclass
class SuiteReport:
    seed: int
    tol: float
    batteries: list

    @property
    def passed(self) -> bool:
        return all(b.passed for b in self.batteries)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "tol": self.tol,
            "passed": self.passed,
            "batteries": [b.to_dict() for b in self.batteries],
        }


# ---------------------------------------------------------------------------
# seeded generators (all exact: dyadic rationals)

def random_interior_point(P: DelzantPolytope, rng: random.Random,
                          margin=Fraction(1, 8), denom: int = 64):
    """Rejection-sample a dyadic rational point with all slacks > margin.

    A candidate a/denom (a integer) is the point (scale * a) / d over
    d = lcm(denom, margin and offset denominators), scale = d / denom; it
    is accepted when its least `polytope.integer_slacks` exceeds d * margin.
    """
    lo, hi = bounding_box(P)
    margin = Fraction(margin)
    d = math.lcm(denom, margin.denominator, P.integer_offsets[0])
    scale = d // denom
    tail = margin.numerator * (d // margin.denominator)
    ranges = [(int(lo[i] * denom), int(hi[i] * denom)) for i in range(P.n)]
    for _ in range(10_000):
        a = [rng.randint(a0, a1) for a0, a1 in ranges]
        if min(integer_slacks(P, [scale * ai for ai in a], d)) > tail:
            return tuple(Fraction(ai, denom) for ai in a)
    raise DomainError("could not sample an interior point (margin too big?)")


def random_point_near(P: DelzantPolytope, rng: random.Random, denom: int = 16):
    """Dyadic point in a slightly inflated bounding box (may be outside)."""
    lo, hi = bounding_box(P)
    return tuple(
        Fraction(rng.randint(int((lo[i] - 1) * denom), int((hi[i] + 1) * denom)), denom)
        for i in range(P.n))


def _random_polynomial(n, rng, degree=2, *, allow_h=False):
    terms = []
    for _ in range(rng.randint(1, 3)):
        coeff = ex.Const(Fraction(rng.randint(-8, 8), rng.randint(1, 4)))
        term = coeff
        for _ in range(rng.randint(0, degree)):
            var = ex.Y(rng.randint(1, n)) if (not allow_h or rng.random() < 0.8) \
                else ex.H()
            term = ex.Mul(term, var)
        terms.append(term)
    out = terms[0]
    for t in terms[1:]:
        out = ex.Add(out, t)
    return out


def _random_smooth(n, rng, *, allow_h=False):
    base = _random_polynomial(n, rng, allow_h=allow_h)
    roll = rng.random()
    if roll < 0.25:
        arg = ex.Add(ex.Y(rng.randint(1, n)), ex.Const(Fraction(rng.randint(-2, 2))))
        return ex.Mul(base, ex.Fun(rng.choice(("sin", "cos")), arg))
    if roll < 0.35:
        arg = ex.Mul(ex.Const(Fraction(1, 2)), ex.Y(rng.randint(1, n)))
        return ex.Add(base, ex.Fun("exp", arg))
    return base


def random_element(P: DelzantPolytope, rng: random.Random, max_mode: int = 1,
                   n_modes: int = 2, *, polynomial_only: bool = False,
                   allow_h: bool = False) -> al.AlgebraElement:
    """Random observable with globally smooth coefficients (no sqrt/div)."""
    n = P.n
    modes = {}
    for _ in range(n_modes):
        k = tuple(rng.randint(-max_mode, max_mode) for _ in range(n))
        re = (_random_polynomial(n, rng, allow_h=allow_h) if polynomial_only
              else _random_smooth(n, rng, allow_h=allow_h))
        im = (_random_polynomial(n, rng, degree=1, allow_h=allow_h)
              if rng.random() < 0.5 else ex.Const(0))
        modes[k] = ex.ComplexExpr(re, im)
    return al.element(n, modes)


def random_arrow(P: DelzantPolytope, rng: random.Random,
                 max_mode: int = 1) -> gr.GroupoidPoint:
    """A random valid arrow with small hbar and interior-ish base point."""
    for _ in range(10_000):
        hbar = Fraction(rng.randint(1, 8), 32)
        y = random_interior_point(P, rng)
        k = tuple(rng.randint(-max_mode, max_mode) for _ in range(P.n))
        g = gr.arrow(hbar, y, k)
        if gr.is_member(P, g):
            return g
    raise DomainError("could not sample a valid arrow")


# ---------------------------------------------------------------------------
# batteries

def battery_associativity(P, rng, cases, tol) -> BatteryResult:
    """(f.g).h = f.(g.h) evaluated at random valid arrows."""
    result = BatteryResult("associativity", 0)
    for _ in range(cases):
        f = random_element(P, rng, allow_h=True)
        g = random_element(P, rng, allow_h=True)
        h = random_element(P, rng, allow_h=True)
        arrow = random_arrow(P, rng, max_mode=2)

        def expand(modes, first, second):
            # sum over middle modes l of first(l) * second(mid, k - l), mid
            # = y + hbar*l; (y, k) and (y, l) valid make (mid, k - l) valid
            total = 0j
            for l in modes:
                if gr.is_member(P, gr.GroupoidPoint(arrow.hbar, arrow.y, l)):
                    mid = gr.translate(arrow.y, arrow.hbar, l)
                    m = tuple(x - y for x, y in zip(arrow.k, l))
                    total += first(l) * second(mid, m)
            return total

        fg_modes = {tuple(x + y for x, y in zip(l, m))
                    for l, _ in f.modes for m, _ in g.modes}
        left = expand(fg_modes,     # (f.g).h
                      lambda l: al.convolve(P, f, g, arrow.hbar, arrow.y, l),
                      lambda mid, m: al.extension_value(h, arrow.hbar, mid, m))
        right = expand([l for l, _ in f.modes],     # f.(g.h)
                       lambda l: al.extension_value(f, arrow.hbar, arrow.y, l),
                       lambda mid, m: al.convolve(P, g, h, arrow.hbar, mid, m))
        scale = max(abs(left), abs(right), 1.0)
        result.check(abs(left - right) / scale, tol, {
            "arrow": (arrow.hbar, arrow.y, arrow.k), "f": f, "g": g, "h": h})
    return result


def battery_involution(P, rng, cases, tol) -> BatteryResult:
    """f** = f and (f.g)* = g*.f* by randomized evaluation."""
    result = BatteryResult("involution", 0)
    for _ in range(cases):
        f = random_element(P, rng, allow_h=True)
        g = random_element(P, rng, allow_h=True)
        arrow = random_arrow(P, rng, max_mode=2)
        ff = al.involution(al.involution(f))
        e1 = al.groupoid_value(P, f, arrow.hbar, arrow.y, arrow.k)
        e2 = al.groupoid_value(P, ff, arrow.hbar, arrow.y, arrow.k)
        scale = max(abs(e1), 1.0)
        result.check(abs(e1 - e2) / scale, tol,
                     {"law": "f** = f", "arrow": (arrow.hbar, arrow.y, arrow.k)})

        lhs_el_value = al.convolve(P, f, g, arrow.hbar,
                                   gr.translate(arrow.y, arrow.hbar, arrow.k),
                                   tuple(-ki for ki in arrow.k))
        lhs = lhs_el_value.conjugate()
        rhs = al.convolve(P, al.involution(g), al.involution(f),
                          arrow.hbar, arrow.y, arrow.k)
        scale = max(abs(lhs), abs(rhs), 1.0)
        result.check(abs(lhs - rhs) / scale, tol,
                     {"law": "(f.g)* = g*.f*",
                      "arrow": (arrow.hbar, arrow.y, arrow.k)})
    return result


def battery_representation(P, rng, cases, tol) -> BatteryResult:
    """pi(f.g) = pi(f) pi(g) and pi(f*) = pi(f)^dagger on random orbits."""
    result = BatteryResult("representation", 0)
    for _ in range(cases):
        f = random_element(P, rng, allow_h=True)
        g = random_element(P, rng, allow_h=True)
        hbar = Fraction(1, rng.choice((4, 5, 8)))
        y0 = random_interior_point(P, rng)
        orb = gr.orbit(P, hbar, y0)
        Mf = mr.represent(P, orb, f).dense()
        Mg = mr.represent(P, orb, g).dense()
        prod = Mf @ Mg
        direct = mr.convolve_orbit(P, f, g, orb).dense()
        scale = max(np.abs(prod).max(), 1.0)
        result.check(float(np.abs(prod - direct).max()) / scale, tol,
                     {"law": "pi(f.g) = pi(f)pi(g)", "hbar": hbar, "y0": y0})
        Mfs = mr.represent(P, orb, al.involution(f)).dense()
        result.check(float(np.abs(Mfs - Mf.conj().T).max()) / scale, tol,
                     {"law": "pi(f*) = pi(f)^dagger", "hbar": hbar, "y0": y0})
    return result


def battery_bracket(P, rng, cases, tol) -> BatteryResult:
    """Bracket laws at the zero fiber: antisymmetry, bilinearity, Leibniz,
    Jacobi; plus agreement of the numeric limit with the symbolic value."""
    result = BatteryResult("bracket", 0)
    n = P.n
    for case in range(cases):
        f = random_element(P, rng, polynomial_only=True)
        g = random_element(P, rng, polynomial_only=True)
        h = random_element(P, rng, polynomial_only=True)
        y = [float(c) for c in random_interior_point(P, rng)]
        k = tuple(rng.randint(-2, 2) for _ in range(n))

        # each distinct bracket once, only at the modes the checks read: k,
        # and for a factor of an outer step at k, the modes k - l that pair
        # with the other factor's modes l (same trees as the full brackets)
        def paired(e):
            return {tuple(a - b for a, b in zip(k, l)) for l, _ in e.modes}

        at_k = {k}
        b_fg = al.bracket_element(f, g, modes=at_k | paired(h))
        b_fh = al.bracket_element(f, h, modes=at_k | paired(g))
        b_gh = al.bracket_element(g, h, modes=at_k | paired(f))

        v1 = al.extension_value(b_fg, 0, y, k)
        v2 = al.extension_value(al.bracket_element(g, f, modes=at_k), 0, y, k)
        scale = max(abs(v1), 1.0)
        result.check(abs(v1 + v2) / scale, tol, {"law": "antisymmetry", "k": k})

        lin = al.bracket_element(f + g, h, modes=at_k)
        v1 = al.extension_value(lin, 0, y, k)
        v2 = al.extension_value(b_fh + b_gh, 0, y, k)
        scale = max(abs(v1), 1.0)
        result.check(abs(v1 - v2) / scale, tol, {"law": "bilinearity", "k": k})

        leib_l = al.bracket_element(
            f, al.pointwise_product_at_zero(g, h, modes=paired(f)), modes=at_k)
        leib_r = (al.pointwise_product_at_zero(b_fg, h, modes=at_k)
                  + al.pointwise_product_at_zero(g, b_fh, modes=at_k))
        v1 = al.extension_value(leib_l, 0, y, k)
        v2 = al.extension_value(leib_r, 0, y, k)
        scale = max(abs(v1), abs(v2), 1.0)
        result.check(abs(v1 - v2) / scale, tol, {"law": "Leibniz", "k": k})

        b_hf = al.bracket_element(h, f, modes=paired(g))
        cyclic = [al.bracket_element(a, inner, modes=at_k)
                  for a, inner in ((f, b_gh), (g, b_hf), (h, b_fg))]
        v = al.extension_value(cyclic[0] + cyclic[1] + cyclic[2], 0, y, k)
        parts = [abs(al.extension_value(c, 0, y, k)) for c in cyclic]
        scale = max(*parts, 1.0)
        result.check(abs(v) / scale, tol, {"law": "Jacobi", "k": k})

        if case % 10 == 0:
            yq = random_interior_point(P, rng, margin=Fraction(1, 4), denom=32)
            kq = tuple(rng.randint(-1, 1) for _ in range(n))
            hs = [Fraction(1, 2) ** i for i in range(5, 9)]
            try:
                lim = al.numeric_bracket_limit(P, f, g, yq, kq, hs)
            except MarginError:
                continue
            sym = al.symbolic_bracket(f, g, yq, kq)
            scale = max(abs(sym), 1.0)
            result.check(abs(lim.estimate - sym) / scale, 200 * tol,
                         {"law": "limit vs symbolic", "y": yq, "k": kq})
    return result


def battery_membership(P, rng, cases) -> BatteryResult:
    """Facet-based membership agrees with isotropy-based membership, and
    Delta(k) = Delta and U(k) intersected (exact, no tolerance)."""
    result = BatteryResult("membership", 0)
    for _ in range(cases):
        y = random_point_near(P, rng)
        hbar = Fraction(rng.randint(-8, 8), 16)
        k = tuple(rng.randint(-5, 5) for _ in range(P.n))
        g = gr.GroupoidPoint(hbar, y, k)
        a = gr.is_member(P, g)
        b = gr.is_member_isotropy(P, g)
        result.check(0.0 if a == b else 1.0, 0.5,
                     {"law": "facet vs isotropy", "arrow": (hbar, y, k)})
        if P.contains(y):
            lhs = in_delta_k(P, y, k)
            rhs = in_u_k(P, y, k)
            result.check(0.0 if lhs == rhs else 1.0, 0.5,
                         {"law": "Delta(k) = Delta ∩ U(k)", "y": y, "k": k})
    return result


def battery_delzant(P, rng, cases, tol) -> BatteryResult:
    """Construction identities: A B = 0, unit Smith diagonal, exact section
    identity, character invariance under the reduction torus, weights."""
    result = BatteryResult("delzant", 0)
    sys = dz.build_system(P)
    zero = (sys.A @ sys.B == 0).all()
    result.check(0.0 if zero else 1.0, 0.5, {"law": "A B = 0"})
    _, D, _ = intlat.smith_normal_form(sys.A)
    ones = all(D[i, i] == 1 for i in range(sys.n))
    result.check(0.0 if ones else 1.0, 0.5, {"law": "unit Smith diagonal"})
    for _ in range(cases):
        y = random_interior_point(P, rng)
        sq = dz.sigma_squared(sys, y)
        j0 = dz.J0_squared(sys, sq)
        aty = tuple(sys.P.pairing(y, j) for j in range(sys.n0))
        result.check(0.0 if j0 == aty else 1.0, 0.5,
                     {"law": "J0(sigma(y)) = A^T y", "y": y})
        jd = dz.Jd_squared(sys, sq)
        result.check(0.0 if all(v == 0 for v in jd) else 1.0, 0.5,
                     {"law": "J_d(sigma(y)) = 0", "y": y})
        z = dz.sigma(sys, y)
        k = tuple(rng.randint(-2, 2) for _ in range(P.n))
        if sys.d:
            t = [rng.uniform(0, 2 * math.pi) for _ in range(sys.d)]
            moved = dz.act_subtorus(sys, t, z)
            err = abs(dz.k_sigma_ambient(sys, moved, k)
                      - dz.k_sigma_ambient(sys, z, k))
            result.check(err, tol, {"law": "T^d invariance", "y": y, "k": k})
        theta = [rng.uniform(0, 2 * math.pi) for _ in range(P.n)]
        moved = dz.act_torus(sys, theta, z)
        expected = complex(math.cos(sum(a * b for a, b in zip(k, theta))),
                           math.sin(sum(a * b for a, b in zip(k, theta))))
        err = abs(dz.k_sigma_ambient(sys, moved, k)
                  - expected * dz.k_sigma_ambient(sys, z, k))
        result.check(err, tol, {"law": "torus weights", "y": y, "k": k})
    return result


def battery_classical(P, rng, cases, tol) -> BatteryResult:
    """Quantum-classical agreement and reality of brackets of real functions."""
    result = BatteryResult("classical", 0)
    for _ in range(cases):
        f = random_element(P, rng)
        g = random_element(P, rng)
        y = random_interior_point(P, rng)
        theta = [rng.uniform(0, 2 * math.pi) for _ in range(P.n)]
        lhs = cl.synthesize(P, al.bracket_element(f, g), y, theta)
        rhs = cl.poisson_bracket_aa(f, g, y, theta)
        scale = max(abs(lhs), abs(rhs), 1.0)
        result.check(abs(lhs - rhs) / scale, tol,
                     {"law": "mode bracket vs action-angle", "y": y})

        fr = _realify(f)
        gr_ = _realify(g)
        val = cl.poisson_bracket_aa(fr, gr_, y, theta)
        result.check(abs(val.imag) / max(abs(val), 1.0), tol,
                     {"law": "real functions close under bracket", "y": y})
    return result


def _realify(f: al.AlgebraElement) -> al.AlgebraElement:
    """f + f* restricted to the zero fiber (a real classical function)."""
    return (f + al.involution(f)).subs_h_zero()


def run_suite(P: DelzantPolytope, seed: int, tol: float = 1e-10,
              cases: int = 40) -> SuiteReport:
    """Run all batteries with one seeded generator; deterministic.  DomainError
    for cases < 1 (a vacuous pass) or a noncompact polytope, before any work."""
    if cases < 1:
        raise DomainError(f"suite cases must be at least 1, got {cases}")
    if not P.compact:
        raise DomainError("the verification suite requires a compact polytope")
    rng = random.Random(seed)
    batteries = [
        battery_membership(P, rng, cases * 5),
        battery_associativity(P, rng, cases, tol),
        battery_involution(P, rng, cases, tol),
        battery_representation(P, rng, max(cases // 4, 5), tol),
        battery_bracket(P, rng, cases, tol),
        battery_delzant(P, rng, cases, tol),
        battery_classical(P, rng, cases, tol),
    ]
    return SuiteReport(seed, tol, batteries)
