"""Rational polytopes from facet data: membership, faces, isotropy.

A polytope is given by primitive integer facet normals X_j and rational
offsets lambda_j as {y | <y, X_j> >= lambda_j for all j}.  All predicates
here are exact and share one kernel, `scaled_slacks`: it scales the facet
slacks <y, X_j> - lambda_j of a point (and hbar) by one positive common
denominator, so that they become Python ints.  The scaling keeps every sign,
so facet activity and strict slackness are integer comparisons with 0, never
float or per-facet Fraction arithmetic.

Screening runs in Python ints too.  The offsets are integer numerators a_j
over one denominator L, and each n-subset of facets is solved by one
fraction-free `intlat.eliminate`, which gives its determinant, its vertex as
integer numerators and the vertex's integer slacks; recession rays are
integer kernel vectors from the same elimination.  Fractions are built only
for the vertices, face samples and reports that are returned.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import intlat
from .errors import DimensionError, DomainError, FormatError

__all__ = [
    "DelzantPolytope", "Face", "DelzantReport",
    "ratpoint", "format_point", "json_int", "scaled_slacks", "mode_pairings",
    "in_delta_k", "in_u_k", "isotropy_lattice",
    "check_delzant", "require_delzant", "enumerate_faces", "vertices",
    "bounding_box",
    "interval", "projective_space", "orthant", "product", "square",
    "load_polytope", "polytope_from_dict", "polytope_to_dict",
]


def ratpoint(coords) -> tuple[Fraction, ...]:
    """Coerce a sequence (ints, Fractions, 'p/q' strings) to an exact point."""
    return tuple(Fraction(c) for c in coords)


def format_point(y) -> str:
    """An exact point as the text (p/q, ...) that error messages print."""
    return "(" + ", ".join(str(c) for c in y) + ")"


def json_int(value) -> int:
    """An integer field of a JSON document.  FormatError for a float or a
    bool, which int() would truncate or accept as 0/1."""
    if isinstance(value, (float, bool)):
        raise FormatError(f"expected an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class DelzantPolytope:
    """Facet description of a rational polytope.

    compact=False marks inputs accepted as unbounded (quarter-space style);
    boundedness checks are skipped for them and orbit-level features are
    refused downstream.

    The facet data is frozen, so its integer forms are computed once per
    polytope: `integer_offsets` (the offsets as numerators over one
    denominator) and the vertex table of one fraction-free elimination per
    n-subset of facets.
    """

    n: int
    normals: tuple[tuple[int, ...], ...]
    offsets: tuple[Fraction, ...]
    compact: bool = True

    def __post_init__(self):
        if self.n < 1:
            raise DimensionError("dimension must be >= 1")
        if len(self.normals) != len(self.offsets):
            raise DimensionError("one offset per facet normal required")
        for x in self.normals:
            if len(x) != self.n:
                raise DimensionError(
                    f"normal {x} has length {len(x)}, expected {self.n}")

    @property
    def n_facets(self) -> int:
        return len(self.normals)

    def pairing(self, y, j: int) -> Fraction:
        """<y, X_j> exactly."""
        return sum(Fraction(a) * b for a, b in zip(y, self.normals[j]))

    def slack(self, y, j: int) -> Fraction:
        """<y, X_j> - lambda_j exactly.  Computes every facet's slack, so
        loop over `scaled_slacks` rather than over j."""
        s, d, _ = scaled_slacks(self, y)
        return Fraction(s[j], d)

    def contains(self, y) -> bool:
        return all(s >= 0 for s in scaled_slacks(self, y)[0])

    def active_set(self, y) -> tuple[int, ...]:
        """Indices of facets met with equality; requires y in the polytope."""
        y = ratpoint(y)
        s = scaled_slacks(self, y)[0]
        if any(sj < 0 for sj in s):
            raise DomainError(f"point {format_point(y)} lies outside the polytope")
        return tuple(j for j, sj in enumerate(s) if sj == 0)

    def is_interior(self, y) -> bool:
        return all(s > 0 for s in scaled_slacks(self, y)[0])

    @cached_property
    def integer_offsets(self) -> tuple[int, tuple[int, ...]]:
        """(L, a): L > 0 the lcm of the offsets' denominators and a the
        integer numerators with lambda_j = a[j] / L."""
        L = math.lcm(*(lam.denominator for lam in self.offsets))
        return L, tuple(lam.numerator * (L // lam.denominator)
                        for lam in self.offsets)

    @cached_property
    def _vertex_table(self):
        """(D, rows): every vertex is numerators / D for one D > 0, and rows
        holds (numerators, active set, det) per vertex, sorted by vertex.

        Each n-subset of facets costs one `_solve_facets`; a solution with
        no negative slack is a vertex and its zero slacks are its active
        set.  det belongs to the subset that gave the vertex, which is the
        active set itself when the vertex is simple.
        """
        L, a = self.integer_offsets
        solved = []
        for subset in itertools.combinations(range(self.n_facets), self.n):
            sol = _solve_facets(self.normals, a, subset)
            if sol is None:
                continue
            det, x = sol
            scale = abs(det)
            s = [_pair_int(x, X) - aj * scale for X, aj in zip(self.normals, a)]
            if min(s) >= 0:
                active = tuple(j for j, sj in enumerate(s) if sj == 0)
                solved.append((x, L * scale, active, det))
        D = math.lcm(*(den for _, den, _, _ in solved))
        found = {}
        for x, den, active, det in solved:
            found.setdefault(tuple(c * (D // den) for c in x), (active, det))
        # one positive denominator: integer order is the vertices' order
        return D, tuple((x, active, det) for x, (active, det) in sorted(found.items()))

    @cached_property
    def _vertices(self) -> tuple[tuple[Fraction, ...], ...]:
        D, rows = self._vertex_table
        return tuple(tuple(Fraction(c, D) for c in x) for x, _, _ in rows)

    @cached_property
    def _bounding_box(self) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
        if not self._vertices:
            raise DomainError("polytope has no vertices")
        return (tuple(map(min, zip(*self._vertices))),
                tuple(map(max, zip(*self._vertices))))

    @cached_property
    def _screening(self) -> "DelzantReport":
        # one screening per polytope, shared by every caller of check_delzant
        return _screen(self)


@dataclass(frozen=True)
class Face:
    """An open face: its active facet set and a relative-interior sample."""

    active: tuple[int, ...]
    sample: tuple[Fraction, ...]
    dim: int


@dataclass(frozen=True)
class DelzantReport:
    """Outcome of the smoothness/boundedness screening of a polytope;
    immutable, since every caller shares the polytope's one report."""

    ok: bool
    violations: tuple[str, ...]
    vertices: tuple[tuple[Fraction, ...], ...]
    bounded: bool | None

    def summary(self) -> str:
        if self.ok:
            return (f"pass: {len(self.vertices)} vertices, "
                    f"bounded={self.bounded}")
        return "fail: " + "; ".join(self.violations)


# ---------------------------------------------------------------------------
# membership predicates

def scaled_slacks(P: DelzantPolytope, y, hbar=0):
    """Facet slacks of y as exact integers over one common denominator.

    Returns (s, d, h): d > 0 is the lcm of the denominators of y, hbar and
    the offsets, s[j] = d * (<y, X_j> - lambda_j) and h = d * hbar, all
    Python ints.  Scaling by d > 0 keeps every sign, so the slack of
    y + hbar*k at facet j has the sign of s[j] + h * <k, X_j>.
    """
    y = ratpoint(y)
    if len(y) != P.n:
        raise DimensionError(f"point has {len(y)} coordinates, expected {P.n}")
    hbar = Fraction(hbar)
    L, a = P.integer_offsets
    d = math.lcm(hbar.denominator, L, *(c.denominator for c in y))
    yd = [c.numerator * (d // c.denominator) for c in y]
    scale = d // L
    s = tuple(_pair_int(yd, x) - aj * scale for x, aj in zip(P.normals, a))
    return s, d, hbar.numerator * (d // hbar.denominator)


def mode_pairings(P: DelzantPolytope, k) -> list[int]:
    """<k, X_j> for every facet j, for an integer mode k."""
    k = tuple(int(c) for c in k)
    if len(k) != P.n:
        raise DimensionError("point/mode dimension mismatch")
    return [_pair_int(k, x) for x in P.normals]


def in_delta_k(P: DelzantPolytope, y, k) -> bool:
    """y lies in the polytope and every facet active at y annihilates k."""
    p = mode_pairings(P, k)
    s = scaled_slacks(P, y)[0]
    return all(sj > 0 if pj else sj >= 0 for sj, pj in zip(s, p))


def in_u_k(P: DelzantPolytope, y, k) -> bool:
    """Every facet pairing nontrivially with k is strictly slack at y."""
    p = mode_pairings(P, k)
    s = scaled_slacks(P, y)[0]
    return all(sj > 0 for sj, pj in zip(s, p) if pj)


def _pair_int(k, x) -> int:
    return sum(a * b for a, b in zip(k, x))


def isotropy_lattice(P: DelzantPolytope, y) -> list[tuple[int, ...]]:
    """Active facet normals at y (empty for interior points)."""
    active = P.active_set(y)
    return [P.normals[j] for j in active]


# ---------------------------------------------------------------------------
# vertices and screening

def vertices(P: DelzantPolytope) -> list[tuple[Fraction, ...]]:
    """All vertices, sorted, found by one fraction-free integer elimination
    per n-subset of facets (`_solve_facets`).

    Computed once per polytope; each call returns a fresh list.
    """
    return list(P._vertices)


def bounding_box(P: DelzantPolytope):
    """Coordinate-wise (lo, hi) tuples over the vertices, cached per polytope."""
    return P._bounding_box


def _solve_facets(normals, a, subset):
    """The point where the facets in `subset` (n of them) are all met with
    equality, from one `intlat.eliminate` of [X_j | a_j]: (det, x) with
    det the determinant of their normals and x the integer numerators of the
    point over L * |det| (L, a from `integer_offsets`); None when det = 0.
    """
    n = len(subset)
    rows = [[*normals[j], a[j]] for j in subset]
    pivots, d, sign = intlat.eliminate(rows, n)
    if len(pivots) < n:
        return None
    unit = 1 if d > 0 else -1
    return sign * d, [unit * r[n] for r in rows]


def _kernel_vector(rows, n: int):
    """The primitive integer kernel vector of the integer rows (length n)
    that is a positive multiple of `intlat.rational_kernel_vector`'s: 1 at
    the first free column, 0 at the later ones.  None when the rows have
    rank n.  No rows give (1, 0, ..., 0).
    """
    rows = [list(r) for r in rows]
    pivots, d, _ = intlat.eliminate(rows, n)
    free = next((j for j in range(n) if j not in pivots), None)
    if free is None:
        return None
    v = [0] * n
    v[free] = d
    for row, pc in zip(rows, pivots):
        v[pc] = -row[free]
    g = math.gcd(*v) if d > 0 else -math.gcd(*v)
    return tuple(c // g for c in v)


def _recession_ray(P: DelzantPolytope):
    """An integer direction of recession, or None when the polytope is bounded.

    A line of the polytope comes first; else an edge direction, the kernel
    of an (n-1)-subset of facets, or its negative, that pairs
    nonnegatively with every normal.
    """
    line = _kernel_vector(P.normals, P.n)
    if line is not None:
        return line
    for subset in itertools.combinations(range(P.n_facets), P.n - 1):
        v = _kernel_vector([P.normals[j] for j in subset], P.n)
        for w in (v, tuple(-c for c in v)):
            if all(_pair_int(w, x) >= 0 for x in P.normals):
                return w
    return None


def check_delzant(P: DelzantPolytope) -> DelzantReport:
    """Screen a polytope: primitive normals, simple unimodular vertices,
    boundedness and at least one vertex (the latter two skipped when the
    polytope is flagged noncompact).  Violations are reported, not raised.
    A compact polytope that passes has a nonempty interior: each vertex has
    n independent active normals, so its tangent cone is full-dimensional
    and no facet holds every vertex.

    Screening runs on the polytope's vertex table in Python ints: each
    vertex's active set and determinant come from the one elimination of
    its n-subset of facets, and the recession ray from integer kernel
    vectors.  Fractions appear only in the returned vertices and the
    violation texts.  Screened once per polytope; every call returns that
    one report.
    """
    return P._screening


def _screen(P: DelzantPolytope) -> DelzantReport:
    violations = []
    if P.n_facets == 0:
        return DelzantReport(False, ("no facets",), (), None)

    for j, x in enumerate(P.normals):
        if all(c == 0 for c in x):
            violations.append(f"facet {j}: zero normal")
        elif math.gcd(*(abs(c) for c in x)) != 1:
            violations.append(f"facet {j}: normal {x} is not primitive")

    verts = P._vertices
    _, table = P._vertex_table
    bounded = None
    if P.compact:
        ray = _recession_ray(P)
        bounded = ray is None
        if ray is not None:
            violations.append(f"unbounded: recession direction {ray}")
        if not verts:
            violations.append("no vertices (empty or degenerate)")

    for v, (_, active, det) in zip(verts, table):
        if len(active) > P.n:
            violations.append(
                f"vertex {v}: {len(active)} facets active (not simple)")
        elif abs(det) != 1:
            violations.append(
                f"vertex {v}: active normals have determinant {det}")

    return DelzantReport(not violations, tuple(violations), verts, bounded)


def require_delzant(P: DelzantPolytope) -> DelzantReport:
    """Raise DomainError unless the screening passes; returns the report."""
    report = check_delzant(P)
    if not report.ok:
        raise DomainError("polytope fails screening: " + report.summary())
    return report


# ---------------------------------------------------------------------------
# faces

def enumerate_faces(P: DelzantPolytope) -> list[Face]:
    """All open faces with exact relative-interior sample points.

    Requires a polytope that passed check_delzant.  For compact polytopes the
    faces are the subsets S of single-vertex active sets, in closed form:
    screening proved every vertex simple with a unimodular basis of active
    normals, so each such S is a face, the average of the vertices whose
    active set contains S has active set exactly S, and the face has
    dimension n - |S|.  Active sets and vertex numerators come from the
    polytope's vertex table, so each sample coordinate is one Fraction of
    an integer sum.
    """
    if not P.compact:
        return _faces_noncompact(P)
    D, table = P._vertex_table
    if not table:
        raise DomainError("cannot enumerate faces of an empty polytope")
    candidates = {frozenset()}
    for _, active, _ in table:
        for r in range(1, len(active) + 1):
            candidates.update(frozenset(s) for s in itertools.combinations(active, r))
    faces = []
    for cand in sorted(candidates, key=lambda s: (len(s), sorted(s))):
        members = [x for x, active, _ in table if cand.issubset(active)]
        sample = tuple(Fraction(sum(col), D * len(members)) for col in zip(*members))
        faces.append(Face(tuple(sorted(cand)), sample, P.n - len(cand)))
    return faces


def _faces_noncompact(P: DelzantPolytope) -> list[Face]:
    # Supported when facet normals are linearly independent (orthant-like):
    # solve for a point at exact distance 0/1 from active/inactive facets.
    if P.n_facets != P.n:
        raise DomainError(
            "face enumeration for noncompact polytopes needs exactly n "
            "independent facets")
    L, a = P.integer_offsets
    faces = []
    for r in range(P.n + 1):
        for subset in itertools.combinations(range(P.n_facets), r):
            rhs = [aj + (0 if j in subset else L) for j, aj in enumerate(a)]
            sol = _solve_facets(P.normals, rhs, range(P.n_facets))
            if sol is None:
                raise DomainError("facets are not linearly independent")
            det, x = sol
            sample = tuple(Fraction(c, L * abs(det)) for c in x)
            faces.append(Face(tuple(subset), sample, P.n - r))
    return faces


# ---------------------------------------------------------------------------
# builders

def interval() -> DelzantPolytope:
    """The unit interval [0, 1]; its phase space is the round 2-sphere."""
    return DelzantPolytope(1, ((1,), (-1,)), (Fraction(0), Fraction(-1)))


def projective_space(n: int) -> DelzantPolytope:
    """Standard simplex {y_i >= 0, sum y_i <= 1} in dimension n."""
    if n < 1:
        raise DimensionError("dimension must be >= 1")
    normals = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    normals.append(tuple([-1] * n))
    offsets = [Fraction(0)] * n + [Fraction(-1)]
    return DelzantPolytope(n, tuple(normals), tuple(offsets))


def orthant(n: int) -> DelzantPolytope:
    """Nonnegative orthant (noncompact; orbit features disabled)."""
    if n < 1:
        raise DimensionError("dimension must be >= 1")
    normals = tuple(tuple(1 if i == j else 0 for i in range(n)) for j in range(n))
    return DelzantPolytope(n, normals, tuple([Fraction(0)] * n), compact=False)


def product(P1: DelzantPolytope, P2: DelzantPolytope) -> DelzantPolytope:
    """Cartesian product, facets embedded block-wise."""
    n = P1.n + P2.n
    normals = [x + (0,) * P2.n for x in P1.normals]
    normals += [(0,) * P1.n + x for x in P2.normals]
    offsets = P1.offsets + P2.offsets
    return DelzantPolytope(n, tuple(normals), tuple(offsets),
                           compact=P1.compact and P2.compact)


def square() -> DelzantPolytope:
    """The unit square [0, 1]^2."""
    return DelzantPolytope(
        2,
        ((1, 0), (0, 1), (-1, 0), (0, -1)),
        (Fraction(0), Fraction(0), Fraction(-1), Fraction(-1)))


# ---------------------------------------------------------------------------
# JSON schema:
#   {"n": int, "facets": [{"normal": [int, ...], "offset": "p/q"}],
#    "compact": bool}

def polytope_from_dict(doc) -> DelzantPolytope:
    try:
        n = json_int(doc["n"])
        facets = doc["facets"]
        compact = doc.get("compact", True)
        if not isinstance(compact, bool):
            raise FormatError(f"compact must be true or false, got {compact!r}")
        normals = []
        offsets = []
        for f in facets:
            normal = tuple(json_int(c) for c in f["normal"])
            offset = f["offset"]
            if isinstance(offset, (float, bool)):
                raise FormatError("offsets must be exact ('p/q' strings or "
                                  f"ints), got {type(offset).__name__}")
            normals.append(normal)
            offsets.append(Fraction(offset))
        return DelzantPolytope(n, tuple(normals), tuple(offsets), compact)
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError, DimensionError) as exc:
        raise FormatError(f"bad polytope document: {exc}") from exc


def polytope_to_dict(P: DelzantPolytope) -> dict:
    return {
        "n": P.n,
        "facets": [
            {"normal": list(x), "offset": str(lam)}
            for x, lam in zip(P.normals, P.offsets)
        ],
        "compact": P.compact,
    }


def load_polytope(path) -> DelzantPolytope:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot read polytope file {path}: {exc}") from exc
    return polytope_from_dict(doc)
