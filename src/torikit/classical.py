"""Classical synthesis and bracket oracles on the interior chart.

Each function here takes algebra elements and reads them on the zero fiber
through `AlgebraElement.subs_h_zero`.  The restriction synthesizes to a
function F(y, theta) = sum_k c_k(y) e^{i<k, theta>} on (interior of
polytope) x torus.  Angle derivatives are exact (mode multiplication by
i*k); radial derivatives use the symbolic expression engine.
`angle_spectrum` is the one uniform-grid FFT over the torus.  A
finite-difference pullback of the ambient 2-form through the explicit chart
provides the geometric oracle.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import delzant as dz
from .algebra import AlgebraElement
from .errors import AliasingError, DomainError, MarginError, StratumError
from .polytope import DelzantPolytope, in_delta_k, ratpoint

__all__ = [
    "synthesize", "angle_spectrum", "fourier_roundtrip", "poisson_bracket_aa",
    "poisson_bracket_aa_at", "pullback_omega_check",
]


def synthesize(P: DelzantPolytope, f: AlgebraElement, y, theta) -> complex:
    """Mode sum sum_k c_k(y) e^{i<k, theta>} of f at h = 0, at an exact
    rational y.

    On lower strata a mode whose coefficient is nonzero at y but which the
    stratum does not admit raises StratumError (that mode has no fiber over
    y); admissible modes all contribute.
    """
    y = ratpoint(y)
    if not P.contains(y):
        raise DomainError(f"point {y} lies outside the polytope")
    theta = [float(t) for t in theta]
    if len(theta) != f.n:
        raise DomainError(f"theta needs length {f.n}")
    total = 0j
    for k, c in f.subs_h_zero().modes:
        value = c.evaluate(0.0, y)
        if not in_delta_k(P, y, k):
            if value != 0:
                active = P.active_set(y)
                raise StratumError(
                    f"mode {k} has nonzero coefficient {value} at {tuple(map(str, y))} "
                    f"but facets {active} are active there")
            continue
        phase = math.fsum(ki * ti for ki, ti in zip(k, theta))
        total += value * complex(math.cos(phase), math.sin(phase))
    return total


def angle_spectrum(value, n: int, grid_size: int) -> np.ndarray:
    """Normalized n-dimensional DFT of value(theta) sampled on the uniform
    grid of grid_size^n angles; entry k % grid_size holds mode k."""
    shape = (grid_size,) * n
    values = np.zeros(shape, dtype=complex)
    step = 2 * math.pi / grid_size
    for idx in np.ndindex(shape):
        values[idx] = value([step * j for j in idx])
    return np.fft.fftn(values) / grid_size ** n


def fourier_roundtrip(P: DelzantPolytope, f: AlgebraElement, y, grid_size: int):
    """Recover mode coefficients at interior y from a uniform angle grid.

    Returns {k: coefficient} over the symmetric frequency window; exact for
    trigonometric polynomials once grid_size exceeds twice the top mode.
    """
    y = ratpoint(y)
    if not P.is_interior(y):
        raise DomainError("fourier analysis wants an interior base point")
    max_mode = f.max_mode()
    if grid_size <= 2 * max_mode:
        raise AliasingError(
            f"grid of {grid_size} aliases modes up to {max_mode}; need "
            f"more than {2 * max_mode} points")
    spectrum = angle_spectrum(lambda theta: synthesize(P, f, y, theta),
                              f.n, grid_size)
    half = grid_size // 2
    out = {}
    for idx in np.ndindex(spectrum.shape):
        k = tuple(j if j <= half else j - grid_size for j in idx)
        out[k] = complex(spectrum[idx])
    return out


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
    if F.n != G.n:
        raise DomainError("functions live over different dimensions")
    n = F.n
    yf = [float(c) for c in y]

    def derivatives(fun):
        out = []
        for k, c in fun.subs_h_zero().modes:
            value = c.evaluate(0.0, yf)
            dy = [c.d_dy(i).evaluate(0.0, yf) for i in range(1, n + 1)]
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
        theta = [float(t) for t in theta]
        dFy, dFth = parts(f_terms, theta)
        dGy, dGth = parts(g_terms, theta)
        return sum(dFy[i] * dGth[i] - dFth[i] * dGy[i] for i in range(n))

    return bracket


# ---------------------------------------------------------------------------
# chart pullback of the ambient 2-form

def _omega0(a: np.ndarray, b: np.ndarray) -> float:
    """Ambient form on real tangents, oriented to match the action-angle
    convention: sum_j (a_v b_u - a_u b_v) with z_j = u_j + i v_j."""
    return float(np.sum(a.imag * b.real - a.real * b.imag))


def pullback_omega_check(sys: dz.DelzantSystem, y, s, tangent_pairs,
                         step: float = 1e-5, margin: float = 1e-2) -> float:
    """Max deviation of the chart pullback of the ambient form from
    <X, Y'> - <Y, X'> over the supplied tangent pairs ((Y, X), (Y', X')).

    Y components move the polytope factor, X components the torus factor.
    Uses central differences with the given step; refuses base points whose
    facet slack is below the margin (the radial section loses smoothness at
    facets).
    """
    y = [float(c) for c in ratpoint(y)]
    s = [float(c) for c in s]
    slack = float(sys.P.min_slack([Fraction(c).limit_denominator(10 ** 12) for c in y]))
    if slack < margin:
        raise MarginError(
            f"base point slack {slack:.3g} below margin {margin:.3g}")

    def chart(yv, sv):
        radial = np.sqrt(np.array([
            2.0 * (sum(yi * xj for yi, xj in zip(yv, col)) - float(lam))
            for col, lam in zip(sys.P.normals, sys.lam)
        ]))
        Sf = np.array([[int(v) for v in row] for row in sys.splitting], dtype=float)
        return radial * np.exp(1j * (Sf @ np.asarray(sv)))

    def push(Y, X):
        yp = [yi + step * v for yi, v in zip(y, Y)]
        ym = [yi - step * v for yi, v in zip(y, Y)]
        sp = [si + step * v for si, v in zip(s, X)]
        sm = [si - step * v for si, v in zip(s, X)]
        return (chart(yp, sp) - chart(ym, sm)) / (2 * step)

    worst = 0.0
    for (v1, v2) in tangent_pairs:
        Y, X = (np.asarray(v1[0], dtype=float), np.asarray(v1[1], dtype=float))
        Yp, Xp = (np.asarray(v2[0], dtype=float), np.asarray(v2[1], dtype=float))
        got = _omega0(push(Y, X), push(Yp, Xp))
        want = float(X @ Yp - Y @ Xp)
        worst = max(worst, abs(got - want))
    return worst
