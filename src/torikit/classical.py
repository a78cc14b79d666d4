"""Classical synthesis and bracket oracles on the interior chart.

Each function here takes algebra elements and reads them on the zero fiber
through `AlgebraElement.subs_h_zero`.  The restriction synthesizes to a
function F(y, theta) = sum_k c_k(y) e^{i<k, theta>} on (interior of
polytope) x torus.  Angle derivatives are exact (mode multiplication by
i*k); radial derivatives use the symbolic expression engine, read from
the restriction's shared derivative memo (`AlgebraElement.derivative`), so
a coefficient that `algebra.bracket_element` already differentiated is not
differentiated again.
`angle_spectrum` is the one uniform-grid FFT over the torus, and
`poisson_bracket_aa_mode` reads one mode of the bracket from it.
Inputs go through their owners in `polytope` (`ratpoint`, `int_mode`, `angles`).
"""
from __future__ import annotations

import math

import numpy as np

from .algebra import AlgebraElement, common_n
from .errors import DomainError, StratumError
from .polytope import (DelzantPolytope, angles, arrow_valid, inside_slacks, int_mode,
                       mode_pairings, ratpoint)

__all__ = [
    "synthesize", "ANGLE_GRID_CAP", "angle_spectrum", "poisson_bracket_aa",
    "poisson_bracket_aa_at", "poisson_bracket_aa_mode",
]

# the most angles `angle_spectrum` samples: 1 MiB of complex values, and
# one call of the sampled function per angle
ANGLE_GRID_CAP = 1 << 16


def synthesize(P: DelzantPolytope, f: AlgebraElement, y, theta) -> complex:
    """Mode sum sum_k c_k(y) e^{i<k, theta>} of f at h = 0, at an exact
    rational y.

    On lower strata a mode whose coefficient is nonzero at y but which the
    stratum does not admit raises StratumError (that mode has no fiber over
    y); admissible modes all contribute.
    """
    y = ratpoint(y)
    s = inside_slacks(P, y)[0]
    theta = angles(theta, f.n)
    total = 0j
    for k, c in f.subs_h_zero().modes:
        value = c.evaluate(0.0, y)
        if not arrow_valid(s, 0, mode_pairings(P, k)):
            if value != 0:
                active = tuple(j for j, sj in enumerate(s) if sj == 0)
                raise StratumError(
                    f"mode {k} has nonzero coefficient {value} at {tuple(map(str, y))} "
                    f"but facets {active} are active there")
            continue
        phase = math.fsum(ki * ti for ki, ti in zip(k, theta))
        total += value * complex(math.cos(phase), math.sin(phase))
    return total


def angle_spectrum(value, n: int, grid_size: int) -> np.ndarray:
    """Normalized n-dimensional DFT of value(theta) sampled on the uniform
    grid of grid_size^n angles; entry k % grid_size holds mode k.  A grid
    of more than ANGLE_GRID_CAP angles is DomainError, before any sample."""
    if grid_size ** n > ANGLE_GRID_CAP:
        raise DomainError(
            f"classical oracle grid of {grid_size}^{n} = {grid_size ** n} angles "
            f"exceeds the cap of {ANGLE_GRID_CAP}")
    shape = (grid_size,) * n
    values = np.zeros(shape, dtype=complex)
    step = 2 * math.pi / grid_size
    for idx in np.ndindex(shape):
        values[idx] = value([step * j for j in idx])
    return np.fft.fftn(values) / grid_size ** n


def poisson_bracket_aa(F: AlgebraElement, G: AlgebraElement, y, theta) -> complex:
    """Action-angle bracket sum_i [dF/dy_i dG/dtheta_i - dF/dtheta_i dG/dy_i]
    of F and G at h = 0, at (y, theta).

    Radial derivatives are symbolic; angle derivatives are exact mode
    multiplications by i*k_i.  Interior base points assumed.
    """
    return poisson_bracket_aa_at(F, G, y)(theta)


def poisson_bracket_aa_at(F: AlgebraElement, G: AlgebraElement, y):
    """The action-angle bracket of F and G at fixed y, as a function of
    theta (see `poisson_bracket_aa`).

    The restriction to h = 0, the coefficient values and the radial
    derivatives at y are taken once; only the phases depend on theta.
    """
    n = common_n(F, G)
    y = ratpoint(y, n)

    def derivatives(fun):
        out = []
        fun0 = fun.subs_h_zero()
        for k, c in fun0.modes:
            value = c.evaluate(0.0, y)
            dy = [fun0.derivative(k, i).evaluate(0.0, y) for i in range(1, n + 1)]
            dth = [1j * k[i] * value for i in range(n)]
            out.append((k, dy, dth))
        return out

    def parts(terms, theta):
        vals = []
        for k, dy, dth in terms:
            phase = math.fsum(ki * ti for ki, ti in zip(k, theta))
            phase = complex(math.cos(phase), math.sin(phase))
            vals.append(([d * phase for d in dy], [d * phase for d in dth]))
        dy_tot = [sum(v[0][i] for v in vals) for i in range(n)]
        dth_tot = [sum(v[1][i] for v in vals) for i in range(n)]
        return dy_tot, dth_tot

    f_terms, g_terms = derivatives(F), derivatives(G)

    def bracket(theta) -> complex:
        theta = angles(theta, n)
        dFy, dFth = parts(f_terms, theta)
        dGy, dGth = parts(g_terms, theta)
        return sum(dFy[i] * dGth[i] - dFth[i] * dGy[i] for i in range(n))

    return bracket


def poisson_bracket_aa_mode(f: AlgebraElement, g: AlgebraElement, y, k) -> complex:
    """Mode k (n integers) of the action-angle bracket of f and g at y,
    read from its `angle_spectrum`.

    The grid samples G = 2*(max_mode(f) + max_mode(g)) + 3 angles per axis,
    and mode k is read from entry k % G when every |k_i| <= G // 2, the
    window that holds every mode of the classical bracket; outside it the
    value is exactly 0.  The spectrum is taken either way, so a grid past
    ANGLE_GRID_CAP is refused for every k.
    """
    k = int_mode(k, common_n(f, g))
    grid = 2 * (f.max_mode() + g.max_mode()) + 3
    spec = angle_spectrum(poisson_bracket_aa_at(f, g, y), f.n, grid)
    if all(abs(ki) <= grid // 2 for ki in k):
        return complex(spec[tuple(ki % grid for ki in k)])
    return 0j
