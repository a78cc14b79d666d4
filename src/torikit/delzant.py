"""Explicit symplectic model of a polytope phase space in C^{n0}.

From the facet normal matrix A = [X_1 .. X_{n0}] (one column per facet) the
exact sequence  1 -> T^d -> T^{n0} -> T^n -> 1  is realized by an integer
kernel basis B (A B = 0) and an integer splitting S (A S = I).  Ambient
moment maps, the radial section sigma, and the character functions on
representatives are all evaluated on points of C^{n0}; identities that can
be stated on squared moduli are checked in exact rational arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import intlat
from .errors import ConstructionError, DomainError, StratumError
from .polytope import (DelzantPolytope, format_point, ratpoint, require_delzant,
                       scaled_slacks)

__all__ = [
    "DelzantSystem", "build_system",
    "J0", "Jd", "J0_squared", "Jd_squared",
    "sigma", "sigma_squared", "k_sigma_ambient", "ambient_weights",
    "act_subtorus", "act_torus", "rho", "reduced_level_defect",
]


def _as_vector(z) -> np.ndarray:
    return np.asarray(z, dtype=complex)


@dataclass(frozen=True)
class DelzantSystem:
    """Facet matrix A (n x n0), kernel basis B (n0 x d, A B = 0), offsets,
    and an integer splitting S of the quotient (A S = I)."""

    P: DelzantPolytope
    A: np.ndarray
    B: np.ndarray
    lam: tuple[Fraction, ...]
    splitting: np.ndarray

    @property
    def n(self) -> int:
        return self.P.n

    @property
    def n0(self) -> int:
        return self.P.n_facets

    @property
    def d(self) -> int:
        return self.B.shape[1]


def build_system(P: DelzantPolytope) -> DelzantSystem:
    """Assemble the exact sequence data for a screened polytope.

    Raises ConstructionError when the facet matrix is not surjective over the
    integer lattice (the quotient torus would not be a torus).
    """
    require_delzant(P)
    A = intlat.imat([list(col) for col in zip(*P.normals)])  # n x n0, columns X_j
    B = intlat.integer_kernel_basis(A)
    S = intlat.integer_right_inverse(A)
    if S is None:
        raise ConstructionError(
            "facet normals do not span the lattice (no integer splitting)")
    if B.shape[1] != P.n_facets - P.n:
        raise ConstructionError("kernel rank does not match facet count")
    assert (A @ B == np.zeros((P.n, B.shape[1]), dtype=object)).all()
    return DelzantSystem(P, A, B, P.offsets, S)


# ---------------------------------------------------------------------------
# moment maps

def J0(sys: DelzantSystem, z) -> np.ndarray:
    """Ambient moment map lambda + (1/2)(|z_1|^2, ..., |z_{n0}|^2)."""
    z = _as_vector(z)
    lam = np.array([float(c) for c in sys.lam])
    return lam + 0.5 * np.abs(z) ** 2


def Jd(sys: DelzantSystem, z) -> np.ndarray:
    """Reduction-level map: B^T composed with the ambient moment map."""
    Bt = np.array([[int(v) for v in row] for row in sys.B.T], dtype=float)
    return Bt @ J0(sys, z)


def J0_squared(sys: DelzantSystem, sq) -> tuple[Fraction, ...]:
    """J0 on exact squared moduli (a vector of rationals)."""
    sq = [Fraction(v) for v in sq]
    return tuple(lam + Fraction(1, 2) * s for lam, s in zip(sys.lam, sq))


def Jd_squared(sys: DelzantSystem, sq) -> tuple[Fraction, ...]:
    j0 = J0_squared(sys, sq)
    return tuple(
        sum(Fraction(int(sys.B[i, c])) * j0[i] for i in range(sys.n0))
        for c in range(sys.d))


# ---------------------------------------------------------------------------
# the radial section and its characters

def sigma_squared(sys: DelzantSystem, y) -> tuple[Fraction, ...]:
    """Exact squared moduli 2(<y, X_j> - lambda_j) of the section point."""
    s, d, _ = scaled_slacks(sys.P, y)
    if any(sj < 0 for sj in s):
        raise DomainError(
            f"point {format_point(ratpoint(y))} lies outside the polytope")
    return tuple(Fraction(2 * sj, d) for sj in s)


def sigma(sys: DelzantSystem, y) -> np.ndarray:
    """Radial representative of y: z_j = sqrt(2(<y, X_j> - lambda_j)) >= 0."""
    z = np.sqrt(np.array([float(v) for v in sigma_squared(sys, y)]))
    return z.astype(complex)


def ambient_weights(sys: DelzantSystem, k) -> tuple[int, ...]:
    """Lift of a mode to ambient exponents: l = A^T k."""
    k = [int(c) for c in k]
    if len(k) != sys.n:
        raise DomainError(f"mode length {len(k)}, expected {sys.n}")
    return tuple(
        sum(int(sys.A[i, j]) * k[i] for i in range(sys.n))
        for j in range(sys.n0))


def k_sigma_ambient(sys: DelzantSystem, z, k) -> complex:
    """Character value prod_j (z_j/|z_j|)^{l_j} with l = A^T k.

    Unit modulus; raises StratumError when some z_j = 0 carries a nonzero
    exponent (the point lies outside the stratum where the mode lives).
    """
    z = _as_vector(z)
    l = ambient_weights(sys, k)
    out = 1 + 0j
    for j, lj in enumerate(l):
        if lj == 0:
            continue
        r = abs(z[j])
        if r == 0:
            raise StratumError(
                f"coordinate z_{j + 1} vanishes but carries exponent {lj}")
        out *= (z[j] / r) ** lj
    return out


# ---------------------------------------------------------------------------
# torus actions on representatives

def act_subtorus(sys: DelzantSystem, t, z) -> np.ndarray:
    """Action of the reduction torus: phases exp(i (B t)_j)."""
    t = np.asarray([float(v) for v in t], dtype=float)
    if t.shape != (sys.d,):
        raise DomainError(f"subtorus parameter needs length {sys.d}")
    Bf = np.array([[int(v) for v in row] for row in sys.B], dtype=float)
    phases = np.exp(1j * (Bf @ t))
    return _as_vector(z) * phases


def act_torus(sys: DelzantSystem, theta, z) -> np.ndarray:
    """Action of the quotient torus through the splitting: exp(i (S theta)_j)."""
    theta = np.asarray([float(v) for v in theta], dtype=float)
    if theta.shape != (sys.n,):
        raise DomainError(f"torus parameter needs length {sys.n}")
    Sf = np.array([[int(v) for v in row] for row in sys.splitting], dtype=float)
    phases = np.exp(1j * (Sf @ theta))
    return _as_vector(z) * phases


def rho(sys: DelzantSystem, y, theta) -> np.ndarray:
    """Chart (y, theta) -> s.sigma(y) on representatives."""
    return act_torus(sys, theta, sigma(sys, y))


def reduced_level_defect(sys: DelzantSystem, z) -> float:
    """Numeric |J_d(z)| (0 on the reduced level set)."""
    return float(np.max(np.abs(Jd(sys, z)))) if sys.d else 0.0
