"""Oracles for the torikit benchmark.

Each check takes an op spec and what the op produced, and returns the
largest relative error it saw (0.0 for the exact checks).  A failed check
raises `OracleError`.  The orbit oracle is exact and independent of torikit:
at fixed hbar != 0 the orbit of y0 is the set of points of y0 + hbar*Z^n in
the polytope with the same active facet set as y0, and on the orbit every
ordered pair is one valid arrow apart.  The bracket oracles call
`algebra.symbolic_bracket`, the derivation-only route to the same limit.
"""
from __future__ import annotations

import csv
import io
import itertools
import json
import math
from fractions import Fraction

from inputs import poly_eval, poly_from_doc


class OracleError(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise OracleError(message)


# ---------------------------------------------------------------------------
# exact orbit geometry

def _axis_ranges(verts, hbar, y0):
    ranges = []
    for i in range(len(y0)):
        lo = min(v[i] for v in verts)
        hi = max(v[i] for v in verts)
        a, b = (lo - y0[i]) / hbar, (hi - y0[i]) / hbar
        if a > b:
            a, b = b, a
        ranges.append(range(math.ceil(a), math.floor(b) + 1))
    return ranges


def box_points(verts, hbar, y0) -> int:
    """Candidate points y0 + hbar*k inside the vertex bounding box."""
    return math.prod(len(r) for r in _axis_ranges(verts, Fraction(hbar), y0))


def lattice_orbit(P, verts, hbar, y0):
    """The orbit of y0 at hbar as a set of exact points (Python ints only)."""
    hbar = Fraction(hbar)
    y0 = tuple(Fraction(c) for c in y0)
    scale = math.lcm(hbar.denominator, *(c.denominator for c in y0),
                     *(lam.denominator for lam in P.offsets))
    h = int(hbar * scale)
    y = [int(c * scale) for c in y0]
    lam = [int(o * scale) for o in P.offsets]

    def slacks(p):
        return [sum(a * b for a, b in zip(p, x)) - l for x, l in zip(P.normals, lam)]

    pattern = [s == 0 for s in slacks(y)]
    require(all(s >= 0 for s in slacks(y)), f"base point {y0} outside the polytope")
    out = set()
    for k in itertools.product(*_axis_ranges(verts, hbar, y0)):
        p = [c + h * ki for c, ki in zip(y, k)]
        s = slacks(p)
        if all(v >= 0 for v in s) and [v == 0 for v in s] == pattern:
            out.add(tuple(Fraction(c, scale) for c in p))
    return out


# ---------------------------------------------------------------------------
# output parsing

def parse_csv(text: str):
    lines = text.splitlines()
    require(lines and lines[0].startswith("# torikit "), "missing CSV preamble")
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    return lines[0].split()[2:], rows[0], rows[1:]


def _rel(a, b, scale) -> float:
    return abs(a - b) / scale if scale else abs(a - b)


# ---------------------------------------------------------------------------
# checks, one per oracle type

def check_suite(ctx, spec, text):
    doc = json.loads(text)
    require(doc.get("passed") is True, "suite report has passed != true")
    return max(b["max_error"] for b in doc["batteries"])


def check_orbit(ctx, spec, text):
    o = spec["oracle"]
    P, verts = ctx.polytopes[o["polytope"]], ctx.vertices[o["polytope"]]
    y0 = tuple(Fraction(c) for c in o["point"])
    preamble, header, rows = parse_csv(text)
    require(header[0] == "index" and len(header) == P.n + 1, f"bad header {header}")
    points = [tuple(Fraction(c) for c in r[1:]) for r in rows]
    require(f"size={len(points)}" in preamble, "size preamble disagrees with rows")
    require(points and points[0] == y0, "orbit does not start at the base point")
    require(len(set(points)) == len(points), "orbit lists a point twice")
    expected = ctx.orbit(o["polytope"], o["hbar"], y0)
    require(set(points) == expected,
            f"orbit has {len(points)} points, lattice oracle {len(expected)}")
    if o["closed_form"] is not None:
        require(len(points) == o["closed_form"],
                f"orbit size {len(points)} != closed form {o['closed_form']}")
    spec["sizes"].update(orbit_size=len(points),
                         box_points=box_points(verts, o["hbar"], y0))
    return 0.0


def _spectrum_rows(spec, text):
    _, header, rows = parse_csv(text)
    require(header == ["hbar", "orbit_size", "index", "re", "im"], f"bad header {header}")
    eigs = [complex(float(r[3]), float(r[4])) for r in rows]
    require(all(int(r[1]) == len(eigs) for r in rows), "orbit_size != row count")
    spec["sizes"].update(orbit_size=len(eigs), dim=len(eigs))
    return eigs


def check_spectrum_x3(ctx, spec, text):
    """Height observable on the sphere orbit of hbar/2: (i + 1/2)/q - 1/2."""
    eigs = _spectrum_rows(spec, text)
    q = Fraction(spec["oracle"]["hbar"]).denominator
    require(len(eigs) == q, f"{len(eigs)} eigenvalues, expected {q}")
    require(all(e.imag == 0.0 for e in eigs), "Hermitian spectrum is not real")
    exact = [float(Fraction(2 * i + 1, 2 * q) - Fraction(1, 2)) for i in range(q)]
    scale = max(abs(x) for x in exact)
    return max(_rel(e.real, x, scale) for e, x in zip(eigs, exact))


def check_moments(ctx, spec, text):
    """First two spectral moments against exact traces on the oracle orbit.

    sum(lambda) = tr M and sum(lambda^2) = tr M^2 hold for every square
    matrix and are well conditioned even where single eigenvalues are not.
    tr M is the sum of the mode-0 coefficient over the orbit; tr M^2 adds
    |c_l(u)|^2 twice per valid arrow u -> u + hbar*l of a Hermitian pair.
    """
    o = spec["oracle"]
    eigs = _spectrum_rows(spec, text)
    hbar = Fraction(o["hbar"])
    y0 = (hbar / 2,) * ctx.polytopes[o["polytope"]].n
    orbit = ctx.orbit(o["polytope"], o["hbar"], y0)
    require(len(eigs) == len(orbit), f"{len(eigs)} eigenvalues for {len(orbit)} points")
    if o["hermitian"]:
        require(all(e.imag == 0.0 for e in eigs), "Hermitian spectrum is not real")
    d_re, d_im = poly_from_doc(o["diag_re"]), poly_from_doc(o["diag_im"])
    diag = [complex(poly_eval(d_re, u), poly_eval(d_im, u)) for u in orbit]
    tr1 = sum(diag)
    tr2 = sum(d * d for d in diag)
    for l, sq in o["offdiag_sq"]:
        sq = poly_from_doc(sq)
        for u in orbit:
            if tuple(c + hbar * li for c, li in zip(u, l)) in orbit:
                tr2 += 2 * float(poly_eval(sq, u))
    s1 = sum(eigs)
    s2 = sum(e * e for e in eigs)
    return max(_rel(s1, tr1, sum(abs(e) for e in eigs)),
               _rel(s2, tr2, sum(abs(e) ** 2 for e in eigs)))


def check_bracket_limit(ctx, spec, text):
    """Last extrapolated row of the sweep against the symbolic bracket."""
    _, header, rows = parse_csv(text)
    col = {name: i for i, name in enumerate(header)}
    last = rows[-1]
    est = complex(float(last[col["re_extrapolated"]]), float(last[col["im_extrapolated"]]))
    sym = ctx.symbolic(spec["oracle"])
    return _rel(est, sym, max(abs(sym), 1.0))


def check_casimir(ctx, spec, value):
    h = Fraction(spec["oracle"]["hbar"])
    exact = float(h / 2 - h * h)
    return _rel(value, exact, exact)


def check_bracket_symbolic(ctx, spec, value):
    sym = ctx.symbolic(spec["call"])
    return _rel(value, sym, max(abs(sym), 1.0))


def check_exit_only(ctx, spec, text):
    return 0.0


CHECKS = {
    "suite": check_suite,
    "orbit": check_orbit,
    "spectrum_x3": check_spectrum_x3,
    "moments": check_moments,
    "bracket_limit": check_bracket_limit,
    "casimir": check_casimir,
    "bracket_symbolic": check_bracket_symbolic,
    "exit_only": check_exit_only,
}
