"""The parameter-indexed arrow space over a polytope.

An arrow is a triple (hbar, y, k): base point y in the polytope, integer
mode k, deformation parameter hbar.  It is valid when y lies in the stratum
admitting k and the translated point y + hbar*k keeps every facet paired
with k strictly slack; equivalently (for smooth polytopes) when y and
y + hbar*k share their isotropy.  At hbar = 0 arrows are loops, so the zero
fiber is a bundle of abelian groups.

At fixed hbar != 0 the orbits are finite pair groupoids, known in closed
form: the orbit of y0 is the set of points y0 + hbar*k (k in Z^n) of the
polytope that lie in the same open face as y0, and any two of them are
exactly one valid arrow apart.  So an `Orbit` is y0, hbar and one int64
array of its steps k, the origin first and then ascending k in
lexicographic order; `orbit` selects them with one int64 face test
(`face_bounds`) and raises OrbitCapError once their number exceeds the cap.
It scans the candidate box in flat row-major blocks: the first holds
min(`_CHUNK`, cap + 1) candidates and each later one doubles, up to
`_CHUNK`, so a refusal costs about the cap, not the box.  A box whose volume
or pairings could reach 2^62 is refused first, so no array needs Python
ints.  Arrow queries are lookups in the steps with no facet test, and exact
points are built only on demand.

With d the common denominator of y0 and hbar every coordinate is an integer
numerator over d (`Orbit.numerators`).  `Orbit.coordinates` gives the float
coordinates of y0 + hbar*k for an array of steps k, each the correctly
rounded value `float(Fraction)` gives: when d and the numerators lie below
2^53 they are exact in float64 and one division rounds correctly, and
otherwise each coordinate is a Python-int quotient, also correctly rounded.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import intlat
from .errors import ComposabilityError, DimensionError, DomainError, OrbitCapError
from .polytope import (DelzantPolytope, bounding_box, format_point, in_delta_k,
                       isotropy_lattice, mode_pairings, ratpoint, scaled_slacks)

__all__ = [
    "GroupoidPoint", "Orbit", "arrow", "translate",
    "is_member", "is_member_isotropy",
    "source", "range_", "compose", "invert", "face_bounds", "orbit",
]


@dataclass(frozen=True)
class GroupoidPoint:
    """One arrow (hbar, y, k)."""

    hbar: Fraction
    y: tuple[Fraction, ...]
    k: tuple[int, ...]


def arrow(hbar, y, k) -> GroupoidPoint:
    """Coercing constructor: rationals for hbar/y, ints for k."""
    return GroupoidPoint(Fraction(hbar), ratpoint(y), tuple(int(c) for c in k))


def translate(y, hbar, k):
    """The head y + hbar*k of the arrow (hbar, y, k), exactly."""
    return tuple(c + hbar * ki for c, ki in zip(y, k))


def is_member(P: DelzantPolytope, g: GroupoidPoint) -> bool:
    """Facet-based membership: y admits k and y + hbar*k stays strictly
    slack on every facet paired with k.

    In closed form: with d the common denominator of y, hbar and the
    offsets, s_j = d * (slack of y at facet j), p_j = <k, X_j> and
    h = d * hbar, the arrow is valid iff every s_j >= 0 and every facet with
    p_j != 0 has s_j > 0 and s_j + h * p_j > 0.
    """
    p = mode_pairings(P, g.k)
    s, _, h = scaled_slacks(P, g.y, g.hbar)
    return all(sj > 0 and sj + h * pj > 0 if pj else sj >= 0
               for sj, pj in zip(s, p))


def is_member_isotropy(P: DelzantPolytope, g: GroupoidPoint) -> bool:
    """Isotropy-based membership: both endpoints admit k and carry the same
    isotropy algebra.  Points outside the polytope give False, not an error.
    """
    end = translate(g.y, g.hbar, g.k)
    if not (P.contains(g.y) and P.contains(end)):
        return False
    if not (in_delta_k(P, g.y, g.k) and in_delta_k(P, end, g.k)):
        return False
    return intlat.row_space_equal(isotropy_lattice(P, g.y),
                                  isotropy_lattice(P, end))


def _require_member(P, g):
    if not is_member(P, g):
        raise DomainError(f"arrow {g} is not in the groupoid")


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

_CHUNK = 1 << 16   # candidates per full block; bounds the working memory of `orbit`


@dataclass(frozen=True, eq=False)
class Orbit:
    """A finite orbit of the hbar-fiber: the points y0 + hbar*steps[i].

    `steps` is a read-only (D, n) int64 array whose row 0 is the origin, so
    point 0 is y0.  The steps' sorted keys (`_step_keys`) are the orbit's
    only index: every arrow query is a lookup in them.  Equality is
    identity, since the orbit holds an array.
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

    @property
    def numerators(self) -> tuple[int, tuple[int, ...], int]:
        """(d, y0*d, hbar*d) in Python ints, d the common denominator of y0
        and hbar: coordinate i of point j is the integer
        y0[i]*d + hbar*d*steps[j, i] over d."""
        d = math.lcm(self.hbar.denominator, *(c.denominator for c in self.y0))
        return (d, tuple(c.numerator * (d // c.denominator) for c in self.y0),
                self.hbar.numerator * (d // self.hbar.denominator))

    def coordinates(self, steps) -> np.ndarray:
        """Float coordinates of y0 + hbar*steps for a (rows, n) int64 step
        array, each the correctly rounded `float(Fraction)`."""
        d, num0, step = self.numerators
        reach = max(abs(int(steps.min())), abs(int(steps.max()))) if steps.size else 0
        if d < 2 ** 53 and max(map(abs, num0)) + abs(step) * reach < 2 ** 53:
            return (np.array(num0, dtype=np.int64) + step * steps) / d
        # int / int is correctly rounded, as float(Fraction) is
        return np.array([[(c + step * s) / d for c, s in zip(num0, row)]
                         for row in steps.tolist()], dtype=float).reshape(steps.shape)

    @cached_property
    def _step_keys(self):
        """The steps' bounding box and its extents, each step's row-major
        key over the box, the keys sorted and the permutation that sorts
        them.

        int64 always suffices for an orbit built by `orbit`: its steps' box
        lies inside the candidate box, whose volume and pairings `orbit`
        holds below 2^62 before it scans, so no key and no |step| reaches
        that bound.  A hand-built orbit whose box fails the bound (computed
        in Python ints) raises DomainError.
        """
        lo, hi = self.steps.min(axis=0), self.steps.max(axis=0)
        bounds = lo.tolist(), hi.tolist()
        extents = tuple(b - a + 1 for a, b in zip(*bounds))
        if math.prod(extents) >= 2 ** 62 or max(map(abs, bounds[0] + bounds[1])) >= 2 ** 61:
            raise DomainError("orbit steps span a box too large for int64 keys")
        keys = np.ravel_multi_index((self.steps - lo).T, extents)
        order = np.argsort(keys, kind="stable")
        return lo, hi, extents, keys[order], order

    def targets(self, k) -> np.ndarray:
        """For every i, the index of point(i) + hbar*k: an int64 array
        holding -1 where the arrow (hbar, point(i), k) is invalid.

        One vectorized lookup of the shifted steps' keys, no facet test.
        """
        lo, hi, extents, keys, order = self._step_keys
        k = [int(c) for c in k]
        if len(k) != len(lo):
            raise DimensionError("point/mode dimension mismatch")
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
    """The open face of y0 as int64 bounds (N, active, lower) on q = k @ N.

    N = sign(hbar) * normals.T, active[j] = (s0[j] == 0) and lower[j] =
    (-s0[j]) // |h| + 1, from the scaled slacks s0, h of `scaled_slacks` in
    Python ints.  The slack of y0 + hbar*k at facet j has the sign of
    s0[j] + |h| * q[j], so y0 + hbar*k lies in y0's open face exactly when q
    is 0 on the active facets and q >= lower on the others.  lower is
    clamped at -2^62, which changes no test on the pairings below 2^62 that
    `orbit` allows.  hbar must be nonzero.
    """
    s0, _, h = scaled_slacks(P, y0, hbar)
    if min(s0) < 0:
        raise DomainError(
            f"base point {format_point(ratpoint(y0))} lies outside the polytope")
    N = np.array(P.normals, dtype=np.int64).T * (1 if h > 0 else -1)
    lower = np.array([max(-s // abs(h) + 1, -2 ** 62) for s in s0], dtype=np.int64)
    return N, np.array([s == 0 for s in s0]), lower


def orbit(P: DelzantPolytope, hbar, y0, cap: int = 1_000_000) -> Orbit:
    """The orbit of y0 in the hbar-fiber, in closed form.

    It is the set of points y0 + hbar*k (k in Z^n) of the polytope whose
    active facet set equals y0's: any two such points are one valid arrow
    apart, and no arrow leaves the set.  The candidates k of the vertex
    bounding box are tested on `face_bounds` in flat row-major blocks.
    DomainError is raised before any allocation when the box's volume, or
    the pairing of a step plus a mode inside the box, could reach 2^62 (in
    Python ints), so no int64 value here or in `convolve_orbit` overflows.

    Points come in a fixed order: y0 first, then ascending k in
    lexicographic order.  OrbitCapError is raised as soon as the size
    exceeds `cap`, before the rest of the box is scanned.  The first block
    holds min(`_CHUNK`, cap + 1) candidates and each later block doubles, up
    to `_CHUNK` candidates.
    """
    hbar = Fraction(hbar)
    if hbar == 0:
        raise DomainError("orbits are defined for hbar != 0")
    if not P.compact:
        raise DomainError("orbit enumeration requires a compact polytope")
    y0 = ratpoint(y0)
    N, active, lower = face_bounds(P, y0, hbar)

    lo, hi = bounding_box(P)
    axes = []
    for i in range(P.n):
        a, b = sorted(((lo[i] - y0[i]) / hbar, (hi[i] - y0[i]) / hbar))
        axes.append((math.ceil(a), math.floor(b) + 1))
    shape = tuple(b - a for a, b in axes)
    total = math.prod(shape)
    reach = [max(-a, b - 1) + e for (a, b), e in zip(axes, shape)]
    if (total >= 2 ** 62 or max(
            sum(abs(x) * r for x, r in zip(X, reach)) for X in P.normals) >= 2 ** 62):
        raise DomainError(
            f"candidate box of the orbit at hbar = {hbar} is too large for "
            "int64 (hbar too small?)")

    corner = np.array([a for a, _ in axes], dtype=np.int64)
    start, block = 0, min(_CHUNK, cap + 1)
    blocks, size = [], 0
    while start < total:
        index = np.arange(start, min(start + block, total))
        start += block
        block = min(2 * block, _CHUNK)
        k = np.stack(np.unravel_index(index, shape), axis=-1) + corner
        q = k @ N
        k = k[np.where(active, q == 0, q >= lower).all(axis=1)]
        size += len(k)
        if size > cap:
            raise OrbitCapError(
                f"orbit exceeded cap of {cap} points "
                "(noncompact or degenerate input?)")
        blocks.append(k)

    steps = np.concatenate(blocks)
    origin = ~steps.any(axis=1)     # exactly one row: y0 itself
    return Orbit(hbar, y0, np.concatenate((steps[origin], steps[~origin])))
