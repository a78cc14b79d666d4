"""Classical synthesis, Fourier analysis, action-angle bracket, pullback."""
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from torikit import algebra as al
from torikit import classical as cl
from torikit import delzant as dz
from torikit import polytope as pt
from torikit import suite as su
from torikit.errors import DomainError, StratumError

F = Fraction
P = pt.interval()


def fourier_roundtrip(P, f, y, grid_size):
    """Mode coefficients of f at interior y recovered from a uniform angle
    grid: {k: coefficient} over the symmetric frequency window, exact for
    trigonometric polynomials once grid_size exceeds twice the top mode."""
    spectrum = cl.angle_spectrum(lambda theta: cl.synthesize(P, f, y, theta),
                                 f.n, grid_size)
    half = grid_size // 2
    return {tuple(j if j <= half else j - grid_size for j in idx): complex(spectrum[idx])
            for idx in np.ndindex(spectrum.shape)}


def pullback_omega_check(sys, y, s, tangent_pairs, step=1e-5):
    """Max deviation of the chart pullback of the ambient 2-form from
    <X, Y'> - <Y, X'> over the tangent pairs ((Y, X), (Y', X')), by central
    differences.  Y components move the polytope factor, X components the
    torus factor; y must lie well inside the polytope, where the radial
    section is smooth."""
    y = [float(c) for c in y]
    s = [float(c) for c in s]

    def chart(yv, sv):
        radial = np.sqrt(np.array([
            2.0 * (sum(yi * xj for yi, xj in zip(yv, col)) - float(lam))
            for col, lam in zip(sys.P.normals, sys.P.offsets)
        ]))
        Sf = np.array([[int(v) for v in row] for row in sys.splitting], dtype=float)
        return radial * np.exp(1j * (Sf @ np.asarray(sv)))

    def push(Y, X):
        yp = [yi + step * v for yi, v in zip(y, Y)]
        ym = [yi - step * v for yi, v in zip(y, Y)]
        sp = [si + step * v for si, v in zip(s, X)]
        sm = [si - step * v for si, v in zip(s, X)]
        return (chart(yp, sp) - chart(ym, sm)) / (2 * step)

    def omega0(a, b):
        # ambient form, oriented to match the action-angle convention:
        # sum_j (a_v b_u - a_u b_v) with z_j = u_j + i v_j
        return float(np.sum(a.imag * b.real - a.real * b.imag))

    worst = 0.0
    for (v1, v2) in tangent_pairs:
        Y, X = (np.asarray(v1[0], dtype=float), np.asarray(v1[1], dtype=float))
        Yp, Xp = (np.asarray(v2[0], dtype=float), np.asarray(v2[1], dtype=float))
        got = omega0(push(Y, X), push(Yp, Xp))
        want = float(X @ Yp - Y @ Xp)
        worst = max(worst, abs(got - want))
    return worst


def test_synthesize_mode_zero_is_plain_function():
    f = al.element(1, {0: "y1*(1 - y1)"})
    for theta in (0.0, 1.3, -2.0):
        assert abs(cl.synthesize(P, f, (F(1, 4),), [theta]) - 0.1875) < 1e-15


def test_synthesize_cosine_pair():
    f = al.element(1, {1: "y1", -1: "y1"})
    got = cl.synthesize(P, f, (F(1, 2),), [0.0])
    assert abs(got - 1.0) < 1e-15
    got = cl.synthesize(P, f, (F(1, 2),), [math.pi / 3])
    assert abs(got - math.cos(math.pi / 3)) < 1e-14


def test_synthesize_stratum_error_on_boundary_mode():
    f = al.element(1, {1: "1"})
    with pytest.raises(StratumError) as info:
        cl.synthesize(P, f, (F(0),), [0.0])
    assert "(1,)" in str(info.value)


def test_synthesize_boundary_vanishing_coefficient_is_fine():
    # the coefficient vanishes on the stratum, so the mode is harmless there
    f = al.element(1, {1: "y1*(1 - y1)", 0: "y1"})
    assert cl.synthesize(P, f, (F(1),), [0.4]) == 1.0


def test_synthesize_outside_polytope():
    with pytest.raises(DomainError, match=r"^point \(2\) lies outside"):
        cl.synthesize(P, al.element(1, {0: "1"}), (F(2),), [0.0])


def test_fourier_roundtrip_single_mode():
    for k in (-3, 0, 2):
        f = al.element(1, {k: "1"})
        modes = fourier_roundtrip(P, f, (F(1, 2),), 16)
        assert abs(modes[(k,)] - 1) < 1e-12
        stray = max(abs(v) for key, v in modes.items() if key != (k,))
        assert stray < 1e-12


def test_fourier_roundtrip_three_modes():
    f = al.element(1, {0: "y1", 2: ("1 - y1", "1/3"), -1: "sin(y1)"})
    y = (F(1, 3),)
    modes = fourier_roundtrip(P, f, y, 16)
    yf = [1 / 3]
    assert abs(modes[(0,)] - (1 / 3)) < 1e-10
    assert abs(modes[(2,)] - ((1 - 1 / 3) + 1j / 3)) < 1e-10
    assert abs(modes[(-1,)] - math.sin(1 / 3)) < 1e-10


def test_fourier_roundtrip_2d():
    S = pt.square()
    f = al.element(2, {(1, -2): "y1*y2", (0, 0): "2"})
    modes = fourier_roundtrip(S, f, (F(1, 2), F(1, 4)), 8)
    assert abs(modes[(1, -2)] - 0.125) < 1e-12
    assert abs(modes[(0, 0)] - 2) < 1e-12


def test_aa_bracket_canonical_pair():
    f = al.element(1, {1: "y1"})
    g = al.element(1, {-1: "y1"})
    for theta in (0.0, 0.9, 2.7):
        got = cl.poisson_bracket_aa(f, g, (0.5,), [theta])
        assert abs(got - (-1j)) < 1e-14


def test_aa_bracket_antisymmetric_and_zero_on_actions():
    f = al.element(1, {0: "y1^2"})
    g = al.element(1, {0: "sin(y1)"})
    assert cl.poisson_bracket_aa(f, g, (0.5,), [1.0]) == 0
    h = al.element(1, {1: "y1", -2: ("1", "y1")})
    v1 = cl.poisson_bracket_aa(h, h, (0.5,), [1.0])
    assert abs(v1) < 1e-14


def test_quantum_classical_agreement_randomized():
    rng = random.Random(42)
    for P2 in (pt.interval(), pt.square(), pt.projective_space(2)):
        for _ in range(25):
            f = su.random_element(P2, rng)
            g = su.random_element(P2, rng)
            y = su.random_interior_point(P2, rng)
            theta = [rng.uniform(0, 2 * math.pi) for _ in range(P2.n)]
            lhs = cl.synthesize(P2, al.bracket_element(f, g), y, theta)
            rhs = cl.poisson_bracket_aa(f, g, y, theta)
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


def poisson_bracket_aa_reference(F, G, y, theta):
    """Oracle: differentiates each coefficient of a fresh restriction, no memo."""
    n, yf = F.n, [float(c) for c in y]

    def parts(fun):
        dy, dth = [0j] * n, [0j] * n
        for k, c in fun.modes:
            c0 = c.subs_h(0)
            phase = math.fsum(ki * float(ti) for ki, ti in zip(k, theta))
            phase = complex(math.cos(phase), math.sin(phase))
            value = c0.evaluate(0.0, yf)
            for i in range(n):
                dy[i] += c0.d_dy(i + 1).evaluate(0.0, yf) * phase
                dth[i] += 1j * k[i] * value * phase
        return dy, dth

    (dFy, dFth), (dGy, dGth) = parts(F), parts(G)
    return sum(dFy[i] * dGth[i] - dFth[i] * dGy[i] for i in range(n))


def test_aa_bracket_bit_equal_with_the_shared_derivative_memo():
    rng = random.Random(44)
    for P2 in (pt.interval(), pt.square(), pt.projective_space(2)):
        for warm in (False, True):
            for _ in range(10):
                f = su.random_element(P2, rng, allow_h=True)
                g = su.random_element(P2, rng, allow_h=True)
                y = su.random_interior_point(P2, rng)
                theta = [rng.uniform(0, 2 * math.pi) for _ in range(P2.n)]
                if warm:        # bracket_element fills part of the memo first
                    al.bracket_element(f, g)
                want = poisson_bracket_aa_reference(f, g, y, theta)
                assert cl.poisson_bracket_aa(f, g, y, theta) == want
                assert cl.poisson_bracket_aa(f, g, y, theta) == want   # memo full


def test_real_functions_close_under_bracket():
    rng = random.Random(43)
    for _ in range(25):
        f = su.random_element(P, rng)
        fr = (f + al.involution(f)).subs_h_zero()
        g = su.random_element(P, rng)
        gr = (g + al.involution(g)).subs_h_zero()
        y = su.random_interior_point(P, rng)
        theta = [rng.uniform(0, 2 * math.pi)]
        # i * bracket of two real observables is real, so the bracket value
        # of the aa formula (which already folds the 1/i) must be real... the
        # bracket itself is purely a real function: check imaginary part
        val = cl.poisson_bracket_aa(fr, gr, y, theta)
        assert abs(val.imag) <= 1e-12 * (1 + abs(val))


def test_pullback_omega_interval_and_square():
    rng = random.Random(3)
    for P2 in (pt.interval(), pt.square()):
        sys = dz.build_system(P2)
        n = P2.n
        pairs = []
        for _ in range(20):
            mk = lambda: tuple(rng.uniform(-1, 1) for _ in range(n))
            pairs.append(((mk(), mk()), (mk(), mk())))
        y = tuple(F(1, 2) for _ in range(n))
        s = [rng.uniform(0, 2 * math.pi) for _ in range(n)]
        residual = pullback_omega_check(sys, y, s, pairs)
        assert residual <= 1e-6


def test_pullback_pure_radial_and_pure_angular_vanish():
    rng = random.Random(4)
    sys = dz.build_system(pt.square())
    y = (F(1, 3), F(2, 5))
    s = [0.7, 1.9]
    zero = (0.0, 0.0)
    radial_pairs = []
    angular_pairs = []
    for _ in range(10):
        mk = lambda: tuple(rng.uniform(-1, 1) for _ in range(2))
        radial_pairs.append(((mk(), zero), (mk(), zero)))
        angular_pairs.append(((zero, mk()), (zero, mk())))
    assert pullback_omega_check(sys, y, s, radial_pairs) <= 1e-6
    assert pullback_omega_check(sys, y, s, angular_pairs) <= 1e-6


def test_angle_spectrum_refuses_a_grid_past_the_cap_before_sampling():
    calls = []
    side = math.isqrt(cl.ANGLE_GRID_CAP)
    assert side ** 2 == cl.ANGLE_GRID_CAP
    spectrum = cl.angle_spectrum(lambda theta: calls.append(theta) or 1.0, 2, side)
    assert len(calls) == cl.ANGLE_GRID_CAP and spectrum.shape == (side, side)
    assert spectrum[0, 0] == 1.0
    with pytest.raises(DomainError, match=f"grid of {side + 1}\\^2 = {(side + 1) ** 2} "
                                          f"angles exceeds the cap of {cl.ANGLE_GRID_CAP}"):
        cl.angle_spectrum(lambda theta: calls.append(theta), 2, side + 1)
    assert len(calls) == cl.ANGLE_GRID_CAP
