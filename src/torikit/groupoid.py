"""The parameter-indexed arrow space over a polytope.

An arrow is a triple (hbar, y, k): base point y in the polytope, integer
mode k, deformation parameter hbar.  It is valid when y lies in the stratum
admitting k and the translated point y + hbar*k keeps every facet paired
with k strictly slack; equivalently (for smooth polytopes) when y and
y + hbar*k share their isotropy.  `polytope.arrow_valid` is that test on
y's integer facet slacks; `is_member` and `algebra.convolve` run it.  At
hbar = 0 arrows are loops, so the zero fiber is a bundle of abelian groups.

At fixed hbar != 0 the orbits are finite pair groupoids, known in closed
form: the orbit of y0 is the set of points y0 + hbar*k (k in Z^n) of the
polytope that lie in the same open face as y0, and any two of them are
exactly one valid arrow apart.  So an `Orbit` is y0, hbar and one int64
array of its steps k, the origin first and then ascending k in
lexicographic order.  `orbit` builds only those steps.  It bounds k by the
box of the vertices of y0's closed face.  y0's open face is a list of int64
lower bounds on the pairings k @ M (`face_bounds`), and each leaves each
prefix k[:-1] of that box a half-line of k[-1], all of it or none, so every
row built is an orbit point and the scan costs the orbit plus the box's
prefixes, in blocks under the cap (`orbit`).  Arrow queries are lookups in
the steps with no facet test, and exact points are built only on demand.

An orbit is immutable, so what it derives is derived once and kept on it:
its numerators, the steps' box and sorted keys, the float coordinates of
every point (`Orbit.points`) and, per mode k, the lookup `Orbit.targets(k)`.
The arrays it hands out are read-only, and each memo lives and dies with
its orbit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import intlat
from .errors import ComposabilityError, DomainError, OrbitCapError
from .expr import past_float_range
from .polytope import (DelzantPolytope, arrow_valid, face_box, format_point, in_delta_k,
                       inside_slacks, int_mode, isotropy_lattice, mode_pairings, rational,
                       ratpoint, scaled_slacks)

__all__ = [
    "GroupoidPoint", "Orbit", "arrow", "translate",
    "is_member", "is_member_isotropy",
    "source", "range_", "compose", "invert", "not_in_groupoid", "face_bounds", "orbit",
]


@dataclass(frozen=True)
class GroupoidPoint:
    """One arrow (hbar, y, k)."""

    hbar: Fraction
    y: tuple[Fraction, ...]
    k: tuple[int, ...]


def arrow(hbar, y, k) -> GroupoidPoint:
    """Coercing constructor: rationals for hbar/y (`rational`), ints for k (`int_mode`)."""
    y = ratpoint(y)
    return GroupoidPoint(rational(hbar), y, int_mode(k, len(y)))


def translate(y, hbar, k):
    """The head y + hbar*k of the arrow (hbar, y, k), exactly."""
    return tuple(c + hbar * ki for c, ki in zip(y, k))


def is_member(P: DelzantPolytope, g: GroupoidPoint) -> bool:
    """Facet-based membership: y admits k and y + hbar*k stays strictly
    slack on every facet paired with k (`polytope.arrow_valid`)."""
    p = mode_pairings(P, g.k)
    s, _, h = scaled_slacks(P, g.y, g.hbar)
    return arrow_valid(s, h, p)


def is_member_isotropy(P: DelzantPolytope, g: GroupoidPoint) -> bool:
    """Isotropy-based membership: both endpoints admit k and carry the same
    isotropy algebra.  Points outside the polytope give False, not an error.
    """
    end = translate(g.y, g.hbar, g.k)
    if not (in_delta_k(P, g.y, g.k) and in_delta_k(P, end, g.k)):
        return False
    return intlat.row_space_equal(isotropy_lattice(P, g.y),
                                  isotropy_lattice(P, end))


def not_in_groupoid(hbar, y, k) -> DomainError:
    """The error, in p/q form, for an arrow (hbar, y, k) outside the groupoid."""
    return DomainError(
        f"arrow (hbar={hbar}, y={format_point(y)}, k={k}) is not in the groupoid")


def _require_member(P, g):
    if not is_member(P, g):
        raise not_in_groupoid(g.hbar, g.y, g.k)


def source(P: DelzantPolytope, g: GroupoidPoint):
    """Unit point (hbar, y) under the arrow's tail."""
    _require_member(P, g)
    return (g.hbar, g.y)


def range_(P: DelzantPolytope, g: GroupoidPoint):
    """Unit point (hbar, y + hbar*k) at the arrow's head."""
    _require_member(P, g)
    return (g.hbar, translate(g.y, g.hbar, g.k))


def compose(P: DelzantPolytope, g1: GroupoidPoint, g2: GroupoidPoint) -> GroupoidPoint:
    """Compose g1 after g2 (range of g2 must equal source of g1)."""
    _require_member(P, g1)
    _require_member(P, g2)
    if g1.hbar != g2.hbar:
        raise ComposabilityError("arrows live over different hbar")
    if translate(g2.y, g2.hbar, g2.k) != g1.y:
        raise ComposabilityError(
            f"range of {g2} does not match source of {g1}")
    out = GroupoidPoint(g1.hbar, g2.y,
                        tuple(a + b for a, b in zip(g1.k, g2.k)))
    _require_member(P, out)
    return out


def invert(P: DelzantPolytope, g: GroupoidPoint) -> GroupoidPoint:
    """Inverse arrow (hbar, y + hbar*k, -k)."""
    _require_member(P, g)
    return GroupoidPoint(g.hbar, translate(g.y, g.hbar, g.k),
                         tuple(-c for c in g.k))


# ---------------------------------------------------------------------------
# orbits at fixed hbar != 0

_CHUNK = 1 << 16   # prefixes per full block; bounds the working memory of `orbit`


@dataclass(frozen=True, eq=False)
class Orbit:
    """A finite orbit of the hbar-fiber: the points y0 + hbar*steps[i].

    `steps` is a read-only (D, n) int64 array whose row 0 is the origin, so
    point 0 is y0.  The steps' sorted keys (`_step_keys`) are the orbit's
    only index: every arrow query is a lookup in them, made once per mode.
    Equality is identity, since the orbit holds an array.
    """

    hbar: Fraction
    y0: tuple[Fraction, ...]
    steps: np.ndarray = field(repr=False)

    def __post_init__(self):
        steps = np.asarray(self.steps, dtype=np.int64)
        steps.flags.writeable = False
        object.__setattr__(self, "steps", steps)

    def __len__(self):
        return len(self.steps)

    dim = property(__len__)     # the dimension of its matrix models

    def point(self, i: int) -> tuple[Fraction, ...]:
        """Point i, y0 + hbar*steps[i], exactly."""
        return translate(self.y0, self.hbar, self.steps[i].tolist())

    def target_index(self, i: int, k) -> int | None:
        """Index of point(i) + hbar*k when that arrow is valid, else None.

        Exact without a facet test: from a point of the orbit, the arrow
        (hbar, point(i), k) is valid iff its head lies in the orbit.
        """
        j = int(self.targets(k)[i])
        return None if j < 0 else j

    @cached_property
    def numerators(self) -> tuple[int, tuple[int, ...], int]:
        """(d, y0*d, hbar*d) in Python ints, d the common denominator of y0
        and hbar: coordinate i of point j is the integer
        y0[i]*d + hbar*d*steps[j, i] over d."""
        d = math.lcm(self.hbar.denominator, *(c.denominator for c in self.y0))
        return (d, tuple(c.numerator * (d // c.denominator) for c in self.y0),
                self.hbar.numerator * (d // self.hbar.denominator))

    @cached_property
    def points(self) -> np.ndarray:
        """The read-only (D, n) float coordinates of every point, in orbit
        order: `coordinates(steps)`, built once per orbit."""
        points = self.coordinates(self.steps)
        points.flags.writeable = False
        return points

    def coordinates(self, steps) -> np.ndarray:
        """Float coordinates of y0 + hbar*steps for a (rows, n) int64 step
        array, the one conversion of orbit coordinates.  Each is the correctly
        rounded `float(Fraction)`, by one division of the `numerators` over d:
        of int64 arrays when d and they lie below 2^53 (exact in float64), else
        of object arrays of Python ints, whose true division also rounds
        correctly; past float range `expr.past_float_range`."""
        d, num0, step = self.numerators
        reach = max(abs(int(steps.min())), abs(int(steps.max()))) if steps.size else 0
        exact = d < 2 ** 53 and max(map(abs, num0)) + abs(step) * reach < 2 ** 53
        dtype = np.int64 if exact else object
        num = np.array(num0, dtype=dtype) + step * steps.astype(dtype, copy=False)
        try:
            return (num / d).astype(float, copy=False)
        except OverflowError:
            raise past_float_range() from None

    @cached_property
    def box(self) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi): the steps' least and greatest entry on each axis, as
        read-only int64 arrays.  A longer mode joins no two points."""
        lo, hi = self.steps.min(axis=0), self.steps.max(axis=0)
        lo.flags.writeable = hi.flags.writeable = False
        return lo, hi

    @cached_property
    def _step_keys(self):
        """The extents of the steps' `box`, each step's row-major key over
        it, the keys sorted and the permutation that sorts them.

        int64 always suffices for an orbit built by `orbit`: its steps' box
        lies inside the face box it scans, whose volume and pairings `orbit`
        holds below 2^62 before it scans, so no key and no |step| reaches
        that bound.  A hand-built orbit whose box fails the bound (computed
        in Python ints) raises DomainError.
        """
        lo, hi = (bound.tolist() for bound in self.box)
        extents = tuple(b - a + 1 for a, b in zip(lo, hi))
        if math.prod(extents) >= 2 ** 62 or max(map(abs, lo + hi)) >= 2 ** 61:
            raise DomainError("orbit steps span a box too large for int64 keys")
        keys = np.ravel_multi_index((self.steps - self.box[0]).T, extents)
        order = np.argsort(keys, kind="stable")
        return extents, keys[order], order

    def targets(self, k) -> np.ndarray:
        """For every i, the index of point(i) + hbar*k: a read-only int64
        array holding -1 where the arrow (hbar, point(i), k) is invalid.

        One vectorized lookup of the shifted steps' keys, no facet test,
        made on the first call for each mode and kept on the orbit.
        """
        k = int_mode(k, len(self.y0))
        out = self._targets.get(k)
        if out is None:
            out = self._lookup(k)
            out.flags.writeable = False
            self._targets[k] = out
        return out

    @cached_property
    def _targets(self) -> dict:
        return {}

    def _lookup(self, k: tuple[int, ...]) -> np.ndarray:
        (lo, hi), (extents, keys, order) = self.box, self._step_keys
        out = np.full(len(self.steps), -1, dtype=np.int64)
        if any(abs(c) >= e for c, e in zip(k, extents)):
            return out          # every head leaves the steps' box
        shifted = self.steps + np.array(k, dtype=np.int64)
        inside = np.flatnonzero(((shifted >= lo) & (shifted <= hi)).all(axis=1))
        query = np.ravel_multi_index((shifted[inside] - lo).T, extents)
        pos = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
        hit = keys[pos] == query
        out[inside[hit]] = order[pos[hit]]
        return out


def face_bounds(P: DelzantPolytope, y0, hbar):
    """y0's open face as int64 lower bounds (M, low) on q = k @ M, and the
    tuple of y0's active facets.

    With s0, h the scaled slacks of `inside_slacks` (Python ints) and q the
    pairing of k with the column sign(hbar) * X_j, the slack of y0 + hbar*k
    at facet j has the sign of s0[j] + |h| * q.  A facet y0 leaves slack
    gives that column with bound (-s0[j]) // |h| + 1, an active one it and
    its negative with bound 0 (q = 0).  Bounds are clamped at -2^62, which
    changes no test on the pairings below 2^62 that `orbit` allows.  The
    divisor |h| makes this the owner of hbar != 0: hbar = 0 is DomainError
    here, for `orbit` and `matrixrep.convolve_orbit` alike.
    """
    s0, _, h = inside_slacks(P, y0, hbar)
    if h == 0:
        raise DomainError("orbits are defined for hbar != 0")
    sign, bounds = (1 if h > 0 else -1), []
    for X, s in zip(P.normals, s0):
        X = [sign * x for x in X]
        if s:
            bounds.append((X, max(-s // abs(h) + 1, -2 ** 62)))
        else:
            bounds += [(X, 0), ([-x for x in X], 0)]
    M, low = zip(*bounds)
    return (np.array(M, dtype=np.int64).T, np.array(low, dtype=np.int64),
            tuple(j for j, s in enumerate(s0) if s == 0))


def _expand(prefixes, shift, count) -> np.ndarray:
    """The rows of one block: prefix row i (a step whose last entry is 0)
    taken count[i] times, and row r of the result given the last entry
    r + shift[i]."""
    k = np.repeat(prefixes, count, axis=0)
    k[:, -1] = np.arange(len(k)) + np.repeat(shift, count)
    return k


def orbit(P: DelzantPolytope, hbar, y0, cap: int = 1_000_000) -> Orbit:
    """The orbit of y0 in the hbar-fiber, in closed form.

    It is the set of points y0 + hbar*k (k in Z^n) of the polytope whose
    active facet set equals y0's: any two such points are one valid arrow
    apart, and no arrow leaves the set.  k ranges over the box of the
    vertices of y0's closed face (`face_box`).  Each bound r + c*t >= b of
    `face_bounds` on a prefix k[:-1] of that box (pairing r, t = k[-1])
    raises the least t when c > 0, lowers the greatest when c < 0 and keeps
    or drops the prefix when c = 0, in int64 floor and ceiling divisions, so
    every row built is an orbit point.  DomainError is raised before any
    allocation when the box's volume, or the pairing of a step plus a mode
    inside the box, could reach 2^62 (in Python ints), so no int64 value
    here or in `convolve_orbit` overflows.

    Points come in a fixed order: y0 first, then ascending k in
    lexicographic order.  OrbitCapError is raised as soon as the size
    exceeds `cap`, before the rows of the block that exceeds it are built.
    The first block holds min(`_CHUNK`, cap + 1) prefixes and each later
    one `_CHUNK` (the last, what is left).  Every orbit holds its base
    point, so a cap below 1 is refused with DomainError before any work.
    A point outside the polytope and hbar = 0 are refused by `face_bounds`.
    """
    if cap < 1:
        raise DomainError(f"orbit cap must be at least 1, got {cap}")
    hbar = rational(hbar)
    if not P.compact:
        raise DomainError("orbit enumeration requires a compact polytope")
    y0 = ratpoint(y0)
    M, low, active = face_bounds(P, y0, hbar)

    # k[i] lies between (lo[i]/D - y0[i]) / hbar and (hi[i]/D - y0[i]) / hbar
    D, lo, hi = face_box(P, active)
    hn, hd = hbar.numerator, hbar.denominator
    box = []
    for y, a, b in zip(y0, lo, hi):
        yn, yd = y.numerator, y.denominator
        den = D * yd * hn
        a, b = (a * yd - yn * D) * hd, (b * yd - yn * D) * hd
        if den < 0:
            a, b, den = -b, -a, -den
        box.append((-(-a // den), b // den))
    shape = [b - a + 1 for a, b in box]
    reach = [max(-a, b) + e for (a, b), e in zip(box, shape)]
    if (math.prod(shape) >= 2 ** 62 or max(
            sum(abs(x) * r for x, r in zip(X, reach)) for X in P.normals) >= 2 ** 62):
        raise DomainError(
            f"candidate box of the orbit at hbar = {hbar}, of shape {tuple(shape)}, "
            "is too large for int64")

    # the bounds leave each prefix k[:-1] one interval of k[-1]
    corner = [[a] for a, _ in box[:-1]] + [[0]]
    first, last = box[-1]
    dims = shape[:-1] + [1]
    prefixes = math.prod(dims)
    zero = 0        # the flat index of the prefix of y0, k[:-1] = 0
    for (a, _), e in zip(box[:-1], dims):
        zero = zero * e - a
    start, block = 0, min(_CHUNK, cap + 1)
    blocks, size = [], 0
    while start < prefixes:
        stop = min(start + block, prefixes)
        # prefix rows with last entry 0
        k = (np.array(np.unravel_index(np.arange(start, stop), dims)) + corner).T
        lo_k, hi_k = np.full(len(k), first), last
        for r, c, b in zip((k @ M).T, M[-1].tolist(), low.tolist()):
            # the column's pairing at k[-1] = t is r + c*t, and must reach b
            if c > 0:
                lo_k = np.maximum(lo_k, -((r - b) // c))
            elif c < 0:
                hi_k = np.minimum(hi_k, (b - r) // c)
            else:
                hi_k = np.where(r >= b, hi_k, first - 1)    # r alone decides
        count = np.maximum(hi_k - lo_k + 1, 0)
        ends = np.cumsum(count)
        shift = lo_k + count - ends
        if start <= zero < stop:
            origin = size - int(shift[zero - start])    # the row of k = 0
        size += int(ends[-1])
        if size > cap:
            raise OrbitCapError(
                f"orbit exceeded cap of {cap} points "
                "(noncompact or degenerate input?)")
        blocks.append(_expand(k, shift, count))
        start, block = stop, _CHUNK

    steps = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    steps = np.concatenate((steps[origin:origin + 1], steps[:origin], steps[origin + 1:]))
    return Orbit(hbar, y0, steps)
