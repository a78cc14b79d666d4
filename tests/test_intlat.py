"""Exact integer linear algebra: normal form, kernels, determinants."""
import random
from fractions import Fraction

import numpy as np
import pytest

import fraction_oracle as oracle
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
        det = oracle.determinant(A)
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


def random_rows(rng, m, n, dens):
    """m rows of length n with entries p/q, q from `dens` (plain ints when
    dens is (1,)); at random one row is a combination of the others and one
    row is zero, so ranks below min(m, n) are common."""
    def entry():
        q = rng.choice(dens)
        return rng.randint(-4, 4) if q == 1 else Fraction(rng.randint(-4, 4), q)

    rows = [[entry() for _ in range(n)] for _ in range(m)]
    if m > 1 and rng.random() < 0.4:
        c = [entry() for _ in range(m - 1)]
        rows[-1] = [sum(ci * rows[i][j] for i, ci in enumerate(c)) for j in range(n)]
    if m and rng.random() < 0.2:
        rows[rng.randrange(m)] = [0] * n
    rng.shuffle(rows)
    return rows


def same_row_space(rng, rows, dens):
    """Rows spanning the same space: random row operations, then at random
    a duplicated row or a zero row appended."""
    rows = [[Fraction(v) for v in r] for r in rows]
    for _ in range(2 * len(rows)):
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
        c = Fraction(rng.choice((-2, -1, 1, 3)), rng.choice(dens))
        if i == j:
            rows[i] = [c * v for v in rows[i]]
        else:
            rows[i] = [v + c * w for v, w in zip(rows[i], rows[j])]
    extra = rng.choice((None, "duplicate", "zero"))
    if extra == "duplicate":
        rows.append(list(rng.choice(rows)))
    elif extra == "zero":
        rows.append([0] * len(rows[0]))
    rng.shuffle(rows)
    return rows


def test_exact_algebra_matches_the_fraction_oracle():
    # integer and mixed-denominator, square and rectangular, full rank and
    # rank-deficient, empty and zero rows
    rng = random.Random(18)
    seen = set()
    for trial in range(900):
        dens = (1,) if trial % 2 else (1, 2, 3, 7)
        n = rng.randint(1, 4)
        A = random_rows(rng, n, n, (1,))
        det = intlat.determinant(A)
        assert det == oracle.determinant(A), A
        seen.add(("det", det != 0))

        A, b = random_rows(rng, n, n, dens), random_rows(rng, 1, n, dens)[0]
        sol = intlat.solve_rational(A, b)
        assert sol == oracle.solve(A, b), (A, b)
        assert sol is None or all(type(x) is Fraction for x in sol)
        seen.add(("solve", sol is not None))

        m, n = rng.randint(0, 4), rng.randint(0, 4)
        A = random_rows(rng, m, n, dens)
        v = intlat.rational_kernel_vector(A)
        assert v == oracle.kernel_vector(A), A
        assert v is None or all(type(x) is Fraction for x in v)
        seen.add(("kernel", m, v is not None))

        B = (same_row_space(rng, A, dens) if A and rng.random() < 0.5
             else random_rows(rng, rng.randint(0, 4), n, dens))
        if A and B and n and rng.random() < 0.3:
            B[0][rng.randrange(n)] += 1
        equal = intlat.row_space_equal(A, B)
        assert equal == oracle.row_space_equal(A, B), (A, B)
        seen.add(("rows", bool(A) and bool(B), equal))
    assert {("det", False), ("det", True), ("solve", False), ("solve", True),
            ("kernel", 0, False), ("kernel", 3, False), ("kernel", 3, True),
            ("rows", False, True), ("rows", False, False),
            ("rows", True, True), ("rows", True, False)} <= seen


@pytest.mark.parametrize("call", [
    lambda: intlat.determinant([[1, 2], [3]]),
    lambda: intlat.determinant([[1, 2, 3], [4, 5, 6]]),
    lambda: intlat.determinant([[Fraction(1, 2)]]),
    lambda: intlat.determinant([[1.0]]),
    lambda: intlat.determinant([[True]]),
    lambda: intlat.solve_rational([[1, 2], [3]], [1, 2]),
    lambda: intlat.solve_rational([[1, 2]], [1]),
    lambda: intlat.solve_rational([[1], [2]], [1, 2]),
    lambda: intlat.solve_rational([[1, 0], [0, 1]], [1]),
    lambda: intlat.solve_rational([], []),
    lambda: intlat.rational_kernel_vector([[1, 2], [3]]),
    lambda: intlat.row_space_equal([[1, 2], [3]], [[1, 2]]),
    lambda: intlat.row_space_equal([[1, 2]], [[1, 2, 3]]),
], ids=["det-ragged", "det-rectangular", "det-fraction", "det-float",
        "det-bool", "solve-ragged", "solve-wide", "solve-tall", "solve-short-rhs",
        "solve-empty", "kernel-ragged", "rows-ragged", "rows-ambient"])
def test_exact_algebra_dimension_errors(call):
    with pytest.raises(DimensionError):
        call()
