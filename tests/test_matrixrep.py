"""Orbit matrix models."""
import numpy as np

from torikit import matrixrep as mr


def test_spectrum_near_hermitian_uses_general_solver():
    # off by 1e-6 relative: not Hermitian, eigenvalues +-sqrt(1 + 1e-6)
    eigs = mr.spectrum(np.array([[0, 1], [1 + 1e-6, 0]]))
    expected = np.sqrt(1 + 1e-6)
    np.testing.assert_allclose(eigs.real, [-expected, expected], rtol=1e-14)


def test_spectrum_hermitian_is_real_and_sorted():
    eigs = mr.spectrum(np.array([[2, 1j], [-1j, 2]]))
    assert np.isrealobj(eigs)
    np.testing.assert_allclose(eigs, [1, 3], rtol=1e-14)
