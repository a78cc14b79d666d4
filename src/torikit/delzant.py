"""Explicit symplectic model of a polytope phase space in C^{n0}.

From the facet normal matrix A = [X_1 .. X_{n0}] (one column per facet) the
exact sequence  1 -> T^d -> T^{n0} -> T^n -> 1  is realized by an integer
kernel basis B (A B = 0) and an integer splitting S (A S = I).  Ambient
moment maps, the radial section sigma, and the character functions on
representatives are all evaluated on points of C^{n0}; identities that can
be stated on squared moduli are checked in exact rational arithmetic.
The torus actions read their angles through `polytope.angles`, and every
ambient vector z is read through `_as_vector`, the owner of its length.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import expr as ex
from . import intlat
from .errors import ConstructionError, DimensionError, StratumError
from .polytope import DelzantPolytope, angles, inside_slacks, mode_pairings, require_delzant

__all__ = [
    "DelzantSystem", "build_system",
    "J0", "Jd", "J0_squared", "Jd_squared",
    "sigma", "sigma_squared", "k_sigma_ambient", "ambient_weights",
    "act_subtorus", "act_torus", "rho", "reduced_level_defect",
]


def _as_vector(z, n0: int) -> np.ndarray:
    """An ambient vector of C^{n0} as a complex array; DimensionError
    ("ambient vector has shape S, expected (n0,)") unless it is n0 entries."""
    z = np.asarray(z, dtype=complex)
    if z.shape != (n0,):
        raise DimensionError(f"ambient vector has shape {z.shape}, expected ({n0},)")
    return z


@dataclass(frozen=True)
class DelzantSystem:
    """Facet matrix A (n x n0), kernel basis B (n0 x d, A B = 0) and an
    integer splitting S of the quotient (A S = I).  The offsets lambda are
    the polytope's own, `P.offsets`."""

    P: DelzantPolytope
    A: np.ndarray
    B: np.ndarray
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
    assert (A @ B == 0).all()
    return DelzantSystem(P, A, B, S)


# ---------------------------------------------------------------------------
# moment maps

def J0(sys: DelzantSystem, z) -> np.ndarray:
    """Ambient moment map lambda + (1/2)(|z_1|^2, ..., |z_{n0}|^2)."""
    z = _as_vector(z, sys.n0)
    _, lam = ex.floats(0, sys.P.offsets)
    return np.array(lam) + 0.5 * np.abs(z) ** 2


def Jd(sys: DelzantSystem, z) -> np.ndarray:
    """Reduction-level map: B^T composed with the ambient moment map."""
    return sys.B.T.astype(float) @ J0(sys, z)


def J0_squared(sys: DelzantSystem, sq) -> tuple[Fraction, ...]:
    """J0 on exact squared moduli (a vector of rationals)."""
    sq = [Fraction(v) for v in sq]
    return tuple(lam + Fraction(1, 2) * s for lam, s in zip(sys.P.offsets, sq))


def Jd_squared(sys: DelzantSystem, sq) -> tuple[Fraction, ...]:
    j0 = J0_squared(sys, sq)
    return tuple(
        sum(Fraction(int(sys.B[i, c])) * j0[i] for i in range(sys.n0))
        for c in range(sys.d))


# ---------------------------------------------------------------------------
# the radial section and its characters

def sigma_squared(sys: DelzantSystem, y) -> tuple[Fraction, ...]:
    """Exact squared moduli 2(<y, X_j> - lambda_j) of the section point."""
    s, d, _ = inside_slacks(sys.P, y)
    return tuple(Fraction(2 * sj, d) for sj in s)


def sigma(sys: DelzantSystem, y) -> np.ndarray:
    """Radial representative of y: z_j = sqrt(2(<y, X_j> - lambda_j)) >= 0."""
    _, z2 = ex.floats(0, sigma_squared(sys, y))
    return np.sqrt(np.array(z2)).astype(complex)


def ambient_weights(sys: DelzantSystem, k) -> tuple[int, ...]:
    """Lift of a mode to ambient exponents: l = A^T k, the pairings
    <k, X_j> with the facet normals."""
    return tuple(mode_pairings(sys.P, k))


def k_sigma_ambient(sys: DelzantSystem, z, k) -> complex:
    """Character value prod_j (z_j/|z_j|)^{l_j} with l = A^T k.

    Unit modulus; raises StratumError when some z_j = 0 carries a nonzero
    exponent (the point lies outside the stratum where the mode lives).
    """
    z = _as_vector(z, sys.n0)
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
    """Action of the reduction torus: phases exp(i (B t)_j), t in T^d."""
    phases = np.exp(1j * (sys.B.astype(float) @ angles(t, sys.d)))
    return _as_vector(z, sys.n0) * phases


def act_torus(sys: DelzantSystem, theta, z) -> np.ndarray:
    """Action of the quotient torus through the splitting: exp(i (S theta)_j)."""
    phases = np.exp(1j * (sys.splitting.astype(float) @ angles(theta, sys.n)))
    return _as_vector(z, sys.n0) * phases


def rho(sys: DelzantSystem, y, theta) -> np.ndarray:
    """Chart (y, theta) -> s.sigma(y) on representatives."""
    return act_torus(sys, theta, sigma(sys, y))


def reduced_level_defect(sys: DelzantSystem, z) -> float:
    """Numeric |J_d(z)| (0 on the reduced level set)."""
    jd = Jd(sys, z)
    return float(np.max(np.abs(jd))) if sys.d else 0.0
