"""Rational polytopes from facet data: membership, faces, isotropy.

A polytope is given by primitive integer facet normals X_j and rational
offsets lambda_j as {y | <y, X_j> >= lambda_j for all j}.  One exact
kernel, `integer_slacks`, computes every facet slack <y, X_j> - lambda_j,
scaled by a positive denominator d of y so that it is a Python int.  Its
three callers are `scaled_slacks`, which every membership predicate reads,
the screening's vertex table and `suite.random_interior_point`.  Scaling
by d > 0 keeps every sign, so facet activity and strict slackness are
integer comparisons with 0, never float or per-facet Fraction arithmetic.
The arrow rule `arrow_valid` reads those slacks, and Delta(k) is the set of
base points of its hbar = 0 arrows, which are loops (`in_delta_k`).

Each rule and conversion has one owner and one message; callers leave it there:

    n >= 1, one offset per n-entry normal   `DelzantPolytope.__post_init__`
    an exact rational (hbar, a coordinate)  `rational`
    a point has n coordinates               `ratpoint`, read by `scaled_slacks`,
                                            `algebra.extension_value` and
                                            `classical.poisson_bracket_aa_at`
    a point lies in the polytope            `inside_slacks`
    a mode is n integers                    `int_mode`
    an angle vector is its torus's n floats `angles`
    an ambient vector z has n0 entries      `delzant._as_vector`
    an orbit's hbar is not 0                `groupoid.face_bounds`
    an orbit's cap is at least 1            `groupoid.orbit`
    a sweep's hbars are > 0 and decreasing  `algebra.hbar_sweep`
    ... and > 0 and decreasing as floats    `algebra.hbar_sweep`
    two elements share one n                `algebra.common_n`
    a suite runs at least one case          `suite.run_suite`
    an exact value converts to a float      `expr.floats`, `groupoid.Orbit.coordinates`
    a commutator is divided by i*hbar       `algebra.renormalize`

Screening runs in Python ints too, on `intlat`'s integer forms.  The
offsets are integer numerators a_j over one denominator L, and each n-subset
of facets is one `intlat.solve_integer`, which gives its determinant and its
vertex as integer numerators, whose slacks the kernel computes.  A polytope
whose edges all end at vertices is bounded by that table alone; the others
search for a recession ray among `intlat.integer_kernel_vector`s.  Fractions
are built only for the vertices, face samples and reports that are returned.
"""
from __future__ import annotations

import collections
import itertools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import intlat
from .errors import DimensionError, DomainError, FormatError

__all__ = [
    "DelzantPolytope", "Face", "DelzantReport",
    "rational", "ratpoint", "angles", "format_point", "json_int", "int_mode",
    "scaled_slacks", "integer_slacks", "inside_slacks", "mode_pairings",
    "arrow_valid", "in_delta_k", "in_u_k", "isotropy_lattice",
    "check_delzant", "require_delzant", "enumerate_faces", "vertices",
    "bounding_box", "face_box",
    "interval", "projective_space", "orthant", "product", "square",
    "read_json", "load_polytope", "polytope_from_dict", "polytope_to_dict",
]


def rational(value) -> Fraction:
    """An exact rational: a Fraction as it is, anything else through
    Fraction(value); FormatError ("bad rational ...") when that fails."""
    try:
        return value if type(value) is Fraction else Fraction(value)
    except (ValueError, ZeroDivisionError, OverflowError, TypeError) as exc:
        raise FormatError(f"bad rational {value!r}: {exc}") from None


def ratpoint(coords, n: int | None = None) -> tuple[Fraction, ...]:
    """A sequence of `rational`s as an exact point, read in one pass (an
    iterator too), Fractions passed through; given n, DimensionError
    ("point has L coordinates, expected n") unless it has n."""
    y = tuple(map(rational, coords))
    if n is not None and len(y) != n:
        raise DimensionError(f"point has {len(y)} coordinates, expected {n}")
    return y


def angles(theta, n: int) -> list[float]:
    """An angle vector of T^n as n floats; FormatError ("bad angle ...") for
    an entry that float() refuses, DimensionError ("angle vector has L
    components, expected n") unless it has n."""
    theta = list(map(_angle, theta))
    if len(theta) != n:
        raise DimensionError(f"angle vector has {len(theta)} components, expected {n}")
    return theta


def _angle(t) -> float:
    try:
        return float(t)
    except (ValueError, TypeError, OverflowError) as exc:
        raise FormatError(f"bad angle {t!r}: {exc}") from None


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
    denominator), the vertex table of one fraction-free elimination per
    n-subset of facets, and the vertex bounding box.  Screening and the
    Fraction vertices are rebuilt from that table on every call.
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
        s = inside_slacks(self, y)[0]
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

        Each n-subset of facets costs one `intlat.solve_integer`; a solution
        with no negative slack is a vertex and its zero slacks are its
        active set.  det belongs to the subset that gave the vertex, which
        is the active set itself when the vertex is simple.
        """
        L, a = self.integer_offsets
        solved = []
        for subset in itertools.combinations(range(self.n_facets), self.n):
            sol = intlat.solve_integer([*self.normals[j], a[j]] for j in subset)
            if sol is None:
                continue
            det, x = sol
            den = L * abs(det)
            s = integer_slacks(self, x, den)
            if min(s) >= 0:
                active = tuple(j for j, sj in enumerate(s) if sj == 0)
                solved.append((x, den, active, det))
        D = math.lcm(*(den for _, den, _, _ in solved))
        found = {}
        for x, den, active, det in solved:
            found.setdefault(tuple(c * (D // den) for c in x), (active, det))
        # one positive denominator: integer order is the vertices' order
        return D, tuple((x, active, det) for x, (active, det) in sorted(found.items()))

    @cached_property
    def _bounding_box(self) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
        if not self._vertex_table[1]:
            raise DomainError("polytope has no vertices")
        D, lo, hi = face_box(self, ())
        return (tuple(Fraction(c, D) for c in lo), tuple(Fraction(c, D) for c in hi))


@dataclass(frozen=True)
class Face:
    """An open face: its active facet set and a relative-interior sample."""

    active: tuple[int, ...]
    sample: tuple[Fraction, ...]
    dim: int


@dataclass(frozen=True)
class DelzantReport:
    """Outcome of the smoothness/boundedness screening of a polytope, as
    `check_delzant` returns it: violations, the sorted vertices and, for a
    compact polytope, whether it is bounded (None when not checked)."""

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
    the offsets, s = `integer_slacks` of y over d and h = d * hbar, all
    Python ints.  Scaling by d > 0 keeps every sign, so the slack of
    y + hbar*k at facet j has the sign of s[j] + h * <k, X_j>.
    """
    y = ratpoint(y, P.n)
    if type(hbar) is not Fraction:
        hbar = rational(hbar)
    d = math.lcm(hbar.denominator, P.integer_offsets[0], *(c.denominator for c in y))
    s = integer_slacks(P, [c.numerator * (d // c.denominator) for c in y], d)
    return s, d, hbar.numerator * (d // hbar.denominator)


def integer_slacks(P: DelzantPolytope, numerators, d: int) -> list[int]:
    """d * (<y, X_j> - lambda_j) for every facet j, as Python ints, for the
    point y = numerators / d, where d is a positive multiple of the offsets'
    denominator L (`integer_offsets`): <numerators, X_j> - a_j * (d / L)."""
    L, a = P.integer_offsets
    scale = d // L
    return [_pair_int(numerators, x) - aj * scale for x, aj in zip(P.normals, a)]


def inside_slacks(P: DelzantPolytope, y, hbar=0):
    """`scaled_slacks(P, y, hbar)` of a point of the polytope; DomainError
    ("point (...) lies outside the polytope") when a slack is negative."""
    y = ratpoint(y)
    slacks = scaled_slacks(P, y, hbar)
    if any(sj < 0 for sj in slacks[0]):
        raise DomainError(f"point {format_point(y)} lies outside the polytope")
    return slacks


def int_mode(k, n: int) -> tuple[int, ...]:
    """A mode k as a tuple of ints, in one pass; FormatError ("bad mode ...")
    for an entry that is not an integer, which int() would truncate, and
    DimensionError ("mode has L entries, expected n") unless it has n."""
    try:
        k = tuple(map(operator.index, k))
    except TypeError as exc:
        raise FormatError(f"bad mode {k!r}: {exc}") from None
    if len(k) != n:
        raise DimensionError(f"mode has {len(k)} entries, expected {n}")
    return k


def mode_pairings(P: DelzantPolytope, k) -> list[int]:
    """<k, X_j> for every facet j, for an integer mode k of P's dimension."""
    k = int_mode(k, P.n)
    return [_pair_int(k, x) for x in P.normals]


def arrow_valid(s, h, p) -> bool:
    """Membership of an arrow (hbar, y, k) in closed form, on integers.

    With d > 0 a common denominator of y, hbar and the offsets,
    s_j = d * (slack of y at facet j), h = d * hbar (`scaled_slacks`) and
    p_j = <k, X_j> (`mode_pairings`), the arrow is valid iff every
    s_j >= 0 and every facet with p_j != 0 has s_j > 0 and s_j + h * p_j > 0.
    The head's slacks over the same d are s_j + h * p_j, so a product tests
    both of its factor arrows on the base point's slacks alone.
    """
    return all(sj > 0 and sj + h * pj > 0 if pj else sj >= 0
               for sj, pj in zip(s, p))


def in_delta_k(P: DelzantPolytope, y, k) -> bool:
    """The hbar = 0 arrow (0, y, k) is valid: y lies in the polytope and
    every facet active at y annihilates k."""
    return arrow_valid(scaled_slacks(P, y)[0], 0, mode_pairings(P, k))


def in_u_k(P: DelzantPolytope, y, k) -> bool:
    """Every facet pairing nontrivially with k is strictly slack at y."""
    p = mode_pairings(P, k)
    s = scaled_slacks(P, y)[0]
    return all(sj > 0 for sj, pj in zip(s, p) if pj)


def _pair_int(k, x) -> int:
    return sum(map(operator.mul, k, x))


def isotropy_lattice(P: DelzantPolytope, y) -> list[tuple[int, ...]]:
    """Active facet normals at y (empty for interior points)."""
    active = P.active_set(y)
    return [P.normals[j] for j in active]


# ---------------------------------------------------------------------------
# vertices and screening

def vertices(P: DelzantPolytope) -> list[tuple[Fraction, ...]]:
    """All vertices, sorted, found by one fraction-free integer elimination
    per n-subset of facets (`intlat.solve_integer`).

    The eliminations run once per polytope (its vertex table); each call
    builds a fresh list of Fraction points from that table.
    """
    D, table = P._vertex_table
    return [tuple(Fraction(c, D) for c in x) for x, _, _ in table]


def bounding_box(P: DelzantPolytope):
    """Coordinate-wise (lo, hi) tuples over the vertices, cached per polytope."""
    return P._bounding_box


def face_box(P: DelzantPolytope, active) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(D, lo, hi): the coordinate-wise box of the vertices of the closed
    face whose active facet set is `active` (the vertices whose active set
    contains it), as integer numerators lo and hi over one D > 0.  The
    empty set gives the polytope's `bounding_box`."""
    D, table = P._vertex_table
    active = set(active)
    members = [x for x, vertex_active, _ in table if active.issubset(vertex_active)]
    return D, tuple(map(min, zip(*members))), tuple(map(max, zip(*members)))


def _edges_close(P: DelzantPolytope) -> bool:
    """True when the vertex table alone proves the polytope bounded: it has
    a vertex, and every vertex's active set minus one facet is also held by
    another vertex's active set.

    A polytope with a vertex holds no line, so if it is unbounded it has a
    ray edge from some vertex v.  The facets through that edge have rank
    n - 1, so n - 1 independent ones among them are active at v; they cut
    the polytope in that edge, whose only vertex is v, so no other vertex
    holds them.  At a simple vertex the n active sets minus one facet are
    exactly its n edges, and the test reads each as a segment (held twice)
    or a ray (held once), so for simple polytopes it is also complete.
    False says nothing either way.
    """
    _, table = P._vertex_table
    if not table:
        return False
    held = collections.Counter(
        edge for _, active, _ in table
        for edge in itertools.combinations(active, P.n - 1))
    return min(held.values()) > 1


def _recession_ray(P: DelzantPolytope):
    """An integer direction of recession, or None when the polytope is bounded.

    A line of the polytope comes first; else an edge direction, the kernel
    of an (n-1)-subset of facets, or its negative, that pairs
    nonnegatively with every normal.
    """
    line = intlat.integer_kernel_vector(P.normals, P.n)
    if line is not None:
        return line[0]
    for subset in itertools.combinations(range(P.n_facets), P.n - 1):
        v, _ = intlat.integer_kernel_vector([P.normals[j] for j in subset], P.n)
        for w in (v, tuple(-c for c in v)):
            if all(p >= 0 for p in mode_pairings(P, w)):
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
    its n-subset of facets.  Boundedness is read from the same table when
    every edge ends at another vertex (`_edges_close`); only otherwise does
    the search for a recession ray over integer kernel vectors run, which
    also names the ray in the violation.  Fractions appear only in the
    returned vertices and the violation texts.  The eliminations are the
    polytope's cached vertex table; the rest runs again on every call and
    returns a new report.
    """
    violations = []
    if P.n_facets == 0:
        return DelzantReport(False, ("no facets",), (), None)

    for j, x in enumerate(P.normals):
        if all(c == 0 for c in x):
            violations.append(f"facet {j}: zero normal")
        elif math.gcd(*(abs(c) for c in x)) != 1:
            violations.append(f"facet {j}: normal {x} is not primitive")

    D, table = P._vertex_table
    verts = tuple(tuple(Fraction(c, D) for c in x) for x, _, _ in table)
    bounded = None
    if P.compact:
        # the ray search runs only where the vertex table cannot decide
        ray = None if _edges_close(P) else _recession_ray(P)
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
            sol = intlat.solve_integer([*X, aj + (0 if j in subset else L)]
                                       for j, (X, aj) in enumerate(zip(P.normals, a)))
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
    normals = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    normals.append(tuple([-1] * n))
    offsets = [Fraction(0)] * n + [Fraction(-1)]
    return DelzantPolytope(n, tuple(normals), tuple(offsets))


def orthant(n: int) -> DelzantPolytope:
    """Nonnegative orthant (noncompact; orbit features disabled)."""
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


def read_json(path, what: str):
    """The JSON document at path; FormatError "cannot read <what> file" else,
    also when it nests too deeply for the decoder."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"cannot read {what} file {path}: {exc}") from exc


def load_polytope(path) -> DelzantPolytope:
    return polytope_from_dict(read_json(path, "polytope"))
