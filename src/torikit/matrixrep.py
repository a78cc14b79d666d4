"""Finite matrix models of the algebra on orbits at fixed hbar != 0.

On a finite orbit the algebra acts by  (pi(f) xi)(u) = sum_k 1[(hbar,u,k)
valid] f(hbar,u,k) xi(u + hbar*k);  in the orbit basis this reads
M[row(u), col(u + hbar*k)] = f(hbar, u, k).  The map is a *-homomorphism
for the package's convolution convention, which makes it an independent
oracle for the algebra layer, and its spectra are the quantized values of
observables.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import algebra as al
from . import expr as ex
from .errors import DomainError, EvalDomainError, MarginError
from .groupoid import Orbit, orbit
from .polytope import DelzantPolytope, ratpoint

__all__ = [
    "OrbitRep", "orbit_rep", "represent", "spectrum",
    "sphere_x3", "sphere_xplus", "sphere_xminus", "casimir_defect",
    "bracket_via_matrices",
]


@dataclass(frozen=True)
class OrbitRep:
    """An orbit together with its basis indexing."""

    orbit: Orbit

    @property
    def hbar(self) -> Fraction:
        return self.orbit.hbar

    @property
    def dim(self) -> int:
        return len(self.orbit)


def orbit_rep(P: DelzantPolytope, hbar, y0, cap: int = 1_000_000) -> OrbitRep:
    return OrbitRep(orbit(P, hbar, y0, cap=cap))


def represent(P: DelzantPolytope, rep: OrbitRep, f: al.AlgebraElement) -> np.ndarray:
    """Matrix of an element on the orbit basis.

    Entries exist exactly at valid arrows; coefficients are evaluated on the
    whole orbit per mode (vectorized), with singular evaluations reported
    against the offending orbit point.
    """
    orb = rep.orbit
    D = rep.dim
    hbar = float(orb.hbar)
    M = np.zeros((D, D), dtype=complex)
    ys = np.array([[float(c) for c in p] for p in orb.points])  # (D, n)
    for k, coeff in f.modes:
        targets = [orb.target_index(i, k) for i in range(D)]
        rows = [i for i, t in enumerate(targets) if t is not None]
        if not rows:
            continue
        # evaluate only where the arrow exists; masked points may be singular
        cols = [ys[rows, i] for i in range(f.n)]
        try:
            with np.errstate(all="ignore"):
                re = ex.evaluate(coeff.re, hbar, cols)
                im = ex.evaluate(coeff.im, hbar, cols)
            re = np.broadcast_to(np.atleast_1d(re), (len(rows),))
            im = np.broadcast_to(np.atleast_1d(im), (len(rows),))
        except EvalDomainError:
            re = im = None
        if re is None or not (np.all(np.isfinite(re))
                              and np.all(np.isfinite(im))):
            _locate_bad_point(f, k, orb, rows)
        for out, i in enumerate(rows):
            M[i, targets[i]] += re[out] + 1j * im[out]
    return M


def _locate_bad_point(f, k, orb, rows):
    coeff = f.coefficient(k)
    for i in rows:
        y = [float(c) for c in orb.points[i]]
        try:
            v = coeff.evaluate(float(orb.hbar), y)
        except EvalDomainError as exc:
            raise EvalDomainError(
                f"coefficient of mode {k} singular at orbit point "
                f"{orb.points[i]}", exc.subexpression) from exc
        if not np.isfinite(v.real) or not np.isfinite(v.imag):
            raise EvalDomainError(
                f"coefficient of mode {k} not finite at orbit point "
                f"{orb.points[i]}")
    raise EvalDomainError(f"coefficient of mode {k} singular on the orbit")


def spectrum(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues, sorted; Hermitian inputs use the symmetric solver and
    come back real."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DomainError("spectrum needs a square matrix")
    scale = max(np.abs(matrix).max(), 1.0)
    if np.allclose(matrix, matrix.conj().T, rtol=0, atol=1e-12 * scale):
        return np.sort(np.linalg.eigvalsh(matrix))
    vals = np.linalg.eigvals(matrix)
    return vals[np.lexsort((vals.imag, vals.real))]


# ---------------------------------------------------------------------------
# the sphere observables and their quadratic invariant

def sphere_x3() -> al.AlgebraElement:
    """Height observable (y - 1/2) e_0 on the unit interval."""
    return al.element(1, {0: "y1 - 1/2"})


def sphere_xplus() -> al.AlgebraElement:
    """Raising observable sqrt(y(1-y)) e_1."""
    return al.element(1, {1: "sqrt(y1*(1 - y1))"})


def sphere_xminus() -> al.AlgebraElement:
    """Lowering observable: the adjoint of the raising one."""
    return al.involution(sphere_xplus())


def _is_unit_interval(P: DelzantPolytope) -> bool:
    return (P.n == 1 and set(zip(P.normals, P.offsets))
            == {((1,), Fraction(0)), ((-1,), Fraction(-1))})


def casimir_defect(P: DelzantPolytope, hbar, y0=None,
                   margin: Fraction = Fraction(0)) -> float:
    """Operator-norm distance of the represented quadratic invariant
    x3.x3 + (x+.x- + x-.x+)/2 from (1/4) I on the orbit through y0.

    Classically (y-1/2)^2 + y(1-y) = 1/4 identically; the represented value
    drifts at order hbar.  Defaults to the orbit of hbar/2.  The orbit must
    keep a positive margin from the facets (the raising coefficient loses
    smoothness there).
    """
    hbar = Fraction(hbar)
    if not _is_unit_interval(P):
        raise DomainError("the quadratic-invariant check is defined on the "
                          "unit interval")
    if y0 is None:
        y0 = (hbar / 2,)
    y0 = ratpoint(y0)
    rep = orbit_rep(P, hbar, y0)
    for p in rep.orbit.points:
        if P.min_slack(p) <= margin:
            raise MarginError(
                f"orbit point {p} within margin {margin} of a facet")
    x3, xp, xm = sphere_x3(), sphere_xplus(), sphere_xminus()
    # every product has mode sum {0}, so the represented invariant is
    # diagonal and its distance from I/4 is the largest diagonal deviation
    worst = 0.0
    for u in rep.orbit.points:
        val = al.convolve(P, x3, x3, hbar, u, (0,))
        val += 0.5 * (al.convolve(P, xp, xm, hbar, u, (0,))
                      + al.convolve(P, xm, xp, hbar, u, (0,)))
        worst = max(worst, abs(val - 0.25))
    return worst


# ---------------------------------------------------------------------------
# matrix route to the bracket limit (independent oracle)

def bracket_via_matrices(P: DelzantPolytope, f: al.AlgebraElement,
                         g: al.AlgebraElement, y, k, hbar_list) -> complex:
    """Limit of the renormalized matrix commutator entry at (y, y + hbar*k).

    For each hbar the elements are represented on the orbit through y, the
    matrix commutator is formed by plain matrix algebra, and the entry
    corresponding to the arrow (hbar, y, k) is read off; the sweep is then
    extrapolated to zero.  Everything downstream of `represent` is
    independent of the convolution code path.
    """
    y = ratpoint(y)
    k = tuple(int(c) for c in k)
    hs = [Fraction(h) for h in hbar_list]
    if any(h <= 0 for h in hs) or any(b >= a for a, b in zip(hs, hs[1:])):
        raise DomainError("hbar list must be positive and strictly decreasing")
    values = []
    for h in hs:
        rep = orbit_rep(P, h, y)
        row = rep.orbit.index[y]
        col = rep.orbit.target_index(row, k)
        if col is None:
            raise DomainError(
                f"arrow (hbar={h}, y={y}, k={k}) is not in the groupoid")
        Mf = represent(P, rep, f)
        Mg = represent(P, rep, g)
        comm = Mf[row, :] @ Mg - Mg[row, :] @ Mf
        values.append(comm[col] / (1j * float(h)))
    return al.neville_to_zero(hs, values)
