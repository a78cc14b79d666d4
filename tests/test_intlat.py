"""Exact integer linear algebra: normal form, kernels, determinants."""
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from torikit import intlat
from torikit.errors import DimensionError


def snf_ok(A):
    A = intlat.imat(A)
    U, D, V = intlat.smith_normal_form(A)
    assert (U @ A @ V == D).all()
    assert abs(intlat.determinant(U)) == 1
    assert abs(intlat.determinant(V)) == 1
    m, n = D.shape
    for i in range(m):
        for j in range(n):
            if i != j:
                assert D[i, j] == 0
    diag = [D[i, i] for i in range(min(m, n))]
    for a, b in zip(diag, diag[1:]):
        assert b == 0 or (a != 0 and b % a == 0)
        assert a >= 0
    return U, D, V


def test_snf_1x1():
    _, D, _ = snf_ok([[2]])
    assert D[0, 0] == 2


def test_snf_identity():
    _, D, _ = snf_ok([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert [D[i, i] for i in range(3)] == [1, 1, 1]


def test_snf_hand_row_reduced():
    # row reduce [[1,0,-1],[0,1,-1]] over Z by hand: two unit pivots
    _, D, _ = snf_ok([[1, 0, -1], [0, 1, -1]])
    assert [D[0, 0], D[1, 1]] == [1, 1]
    assert D[0, 1] == D[0, 2] == D[1, 0] == D[1, 2] == 0


def test_snf_divisibility_chain():
    _, D, _ = snf_ok([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    diag = [int(D[i, i]) for i in range(3)]
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0 or b == 0


def test_snf_random_reconstruction():
    rng = random.Random(20240)
    for _ in range(150):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        snf_ok(A)


def test_kernel_example_exact_sequence():
    B = intlat.integer_kernel_basis([[1, 0, -1], [0, 1, -1]])
    assert B.shape == (3, 1)
    v = [int(c) for c in B[:, 0]]
    assert v in ([1, 1, 1], [-1, -1, -1])


def test_kernel_injective_map():
    B = intlat.integer_kernel_basis([[1, 0], [0, 1]])
    assert B.shape == (2, 0)


def test_kernel_symmetry():
    B = intlat.integer_kernel_basis([[1, -1]])
    v = [int(c) for c in B[:, 0]]
    assert v in ([1, 1], [-1, -1])


def test_kernel_soundness_and_completeness_random():
    rng = random.Random(321)
    for _ in range(120):
        m = rng.randint(1, 3)
        n = rng.randint(1, 5)
        A = intlat.imat([[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)])
        B = intlat.integer_kernel_basis(A)
        if B.shape[1]:
            assert (A @ B == np.zeros((m, B.shape[1]), dtype=object)).all()
        _, D, _ = intlat.smith_normal_form(A)
        rank = sum(1 for i in range(min(m, n)) if D[i, i] != 0)
        assert rank + B.shape[1] == n


def test_unimodular_standard_basis():
    assert intlat.is_unimodular_basis([(1, 0), (0, 1)])


def test_unimodular_det2_fails():
    # det [[1,0],[1,2]] = 2
    assert not intlat.is_unimodular_basis([(1, 0), (1, 2)])


def test_unimodular_projective_vertex():
    # det [[0,1],[-1,-1]] = 1
    assert intlat.is_unimodular_basis([(0, 1), (-1, -1)])


def test_unimodular_wrong_count():
    with pytest.raises(DimensionError):
        intlat.is_unimodular_basis([(1, 0)])


def test_determinant_matches_numpy_on_random():
    rng = random.Random(99)
    for _ in range(80):
        n = rng.randint(1, 4)
        A = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        expected = round(float(np.linalg.det(np.array(A, dtype=float))))
        assert intlat.determinant(A) == expected


def test_right_inverse():
    A = [[1, 0, -1], [0, 1, -1]]
    S = intlat.integer_right_inverse(A)
    assert (intlat.imat(A) @ S == intlat.int_identity(2)).all()
    assert intlat.integer_right_inverse([[2, 0], [0, 1]]) is None


def test_solve_rational():
    sol = intlat.solve_rational([[1, 0], [1, 2]], [Fraction(1), Fraction(3)])
    assert sol == (Fraction(1), Fraction(1))
    assert intlat.solve_rational([[1, 1], [2, 2]], [1, 2]) is None


def test_solve_rational_solves_exactly_iff_nonsingular_randomized():
    rng = random.Random(21)
    outcomes = set()
    for trial in range(400):
        n = rng.randint(1, 4)
        dens = (1,) if trial % 2 else (1, 2, 3, 7)

        def entry():
            return Fraction(rng.randint(-4, 4), rng.choice(dens))

        A = [[entry() for _ in range(n)] for _ in range(n)]
        b = [entry() for _ in range(n)]
        singular = trial % 3   # 1: consistent, 2: inconsistent
        if singular:
            # the last equation is a combination of the others (0 = b at n = 1)
            c = [entry() for _ in range(n - 1)]
            A[-1] = [sum(ci * A[i][j] for i, ci in enumerate(c)) for j in range(n)]
            b[-1] = sum(ci * b[i] for i, ci in enumerate(c)) + (singular == 2)
        scale = [math.lcm(*(Fraction(v).denominator for v in row)) for row in A]
        det = intlat.determinant([[int(v * s) for v in row]
                                  for row, s in zip(A, scale)])
        sol = intlat.solve_rational(A, b)
        if det:
            assert all(isinstance(x, Fraction) for x in sol)
            assert [sum(a * x for a, x in zip(row, sol)) for row in A] == b
        else:
            assert sol is None
        outcomes.add((singular, det != 0))
    assert {(0, True), (1, False), (2, False)} <= outcomes


def test_row_space_equal():
    assert intlat.row_space_equal([(1, 0), (0, 1)], [(1, 1), (1, -1)])
    assert not intlat.row_space_equal([(1, 0)], [(0, 1)])
    assert intlat.row_space_equal([], [])
    assert not intlat.row_space_equal([(1, 0)], [])
    assert intlat.row_space_equal([(2, 4)], [(1, 2)])
