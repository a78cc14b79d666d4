"""Orbit matrix models."""
import random
from fractions import Fraction

import numpy as np
import pytest

from torikit import algebra as al
from torikit import matrixrep as mr
from torikit import polytope as pt
from torikit import suite as su
from torikit.errors import DomainError, MarginError

F = Fraction
SPHERE = pt.interval()
CP2 = pt.projective_space(2)


def test_spectrum_near_hermitian_uses_general_solver():
    # off by 1e-6 relative: not Hermitian, eigenvalues +-sqrt(1 + 1e-6)
    eigs = mr.spectrum(np.array([[0, 1], [1 + 1e-6, 0]]))
    expected = np.sqrt(1 + 1e-6)
    np.testing.assert_allclose(eigs.real, [-expected, expected], rtol=1e-14)


def test_spectrum_hermitian_is_real_and_sorted():
    eigs = mr.spectrum(np.array([[2, 1j], [-1j, 2]]))
    assert np.isrealobj(eigs)
    np.testing.assert_allclose(eigs, [1, 3], rtol=1e-14)


@pytest.mark.parametrize("q", [4, 10, 50, 200])
def test_casimir_defect_is_half_hbar_minus_hbar_squared(q):
    # on the orbit of hbar/2 the represented invariant is diagonal with
    # largest deviation hbar/2 - hbar^2 from 1/4
    h = F(1, q)
    exact = float(h / 2 - h * h)
    assert mr.casimir_defect(SPHERE, h) == pytest.approx(exact, rel=1e-12)


def test_casimir_defect_margin_guard():
    h = F(1, 10)
    mr.casimir_defect(SPHERE, h, margin=h / 2 - F(1, 1000))
    with pytest.raises(MarginError):
        mr.casimir_defect(SPHERE, h, margin=h / 2)
    with pytest.raises(MarginError):
        mr.casimir_defect(SPHERE, h, margin=h)


def test_casimir_defect_needs_unit_interval():
    with pytest.raises(DomainError):
        mr.casimir_defect(pt.square(), F(1, 4))


def test_represent_is_star_homomorphism_on_cp2_orbit():
    rng = random.Random(13)
    hbar = F(1, 7)
    rep = mr.orbit_rep(CP2, hbar, (F(1, 14), F(3, 14)))
    assert rep.dim == 21
    for _ in range(5):
        f = su.random_element(CP2, rng, allow_h=True)
        g = su.random_element(CP2, rng, allow_h=True)
        Mf, Mg = mr.represent(CP2, rep, f), mr.represent(CP2, rep, g)
        direct = np.zeros((rep.dim, rep.dim), dtype=complex)
        ks = {tuple(a + b for a, b in zip(l, m))
              for l, _ in f.modes for m, _ in g.modes}
        for i, u in enumerate(rep.orbit.points):
            for k in ks:
                j = rep.orbit.target_index(i, k)
                if j is not None:
                    direct[i, j] += al.convolve(CP2, f, g, hbar, u, k)
        scale = max(np.abs(direct).max(), 1.0)
        np.testing.assert_allclose(Mf @ Mg, direct, rtol=0, atol=1e-12 * scale)
        adj = mr.represent(CP2, rep, al.involution(f))
        np.testing.assert_allclose(adj, Mf.conj().T, rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("P, f, g, y, k, hs, rel", [
    (SPHERE, al.element(1, {1: "sin(y1)"}), al.element(1, {-1: "1"}),
     (F(1, 2),), (0,), [F(1, 2) ** i for i in range(4, 9)], 1e-8),
    # polynomial coefficients: the renormalized entry is quadratic in hbar,
    # so three levels extrapolate exactly
    (CP2, al.element(2, {(1, 0): "y1*y2^2", (0, 1): "y1^2"}),
     al.element(2, {(0, -1): "y2^3 + y1", (-1, 1): "y1 + y2"}),
     (F(1, 4), F(1, 4)), (0, 1), [F(1, 2) ** i for i in range(3, 6)], 1e-12),
], ids=["sphere-sin", "cp2-poly"])
def test_bracket_via_matrices_matches_symbolic(P, f, g, y, k, hs, rel):
    got = mr.bracket_via_matrices(P, f, g, y, k, hs)
    sym = al.symbolic_bracket(f, g, y, k)
    assert sym != 0
    assert abs(got - sym) <= rel * abs(sym)
