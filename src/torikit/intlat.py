"""Exact integer and rational linear algebra for lattice computations.

Everything here runs on arbitrary-precision Python integers (held in
object-dtype numpy arrays) or on exact Fractions.  No floating point enters
this module: downstream membership predicates rely on these results being
exact.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import DimensionError

__all__ = [
    "imat",
    "int_identity",
    "smith_normal_form",
    "integer_kernel_basis",
    "determinant",
    "is_unimodular_basis",
    "integer_right_inverse",
    "solve_rational",
    "rational_kernel_vector",
    "row_space_equal",
]


def imat(rows) -> np.ndarray:
    """Build a 2-D object-dtype integer matrix from nested sequences.

    Entries must be Python ints (bools excluded); the object dtype keeps
    arithmetic exact at any magnitude.
    """
    if isinstance(rows, np.ndarray) and rows.dtype == object and rows.ndim == 2:
        data = rows
    else:
        rows = [list(r) for r in rows]
        if not rows:
            raise DimensionError("matrix needs at least one row")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise DimensionError("ragged rows in matrix input")
        data = np.empty((len(rows), width), dtype=object)
        for i, r in enumerate(rows):
            data[i, :] = r
    for v in data.flat:
        if not isinstance(v, int) or isinstance(v, bool):
            raise DimensionError(f"matrix entries must be ints, got {v!r}")
    return data


def int_identity(n: int) -> np.ndarray:
    out = np.zeros((n, n), dtype=object)
    for i in range(n):
        out[i, i] = 1
    return out


def _min_nonzero_position(D, t):
    """Position of a nonzero entry of smallest magnitude in D[t:, t:]."""
    best = None
    m, n = D.shape
    for i in range(t, m):
        for j in range(t, n):
            v = D[i, j]
            if v != 0 and (best is None or abs(v) < best[0]):
                best = (abs(v), i, j)
    return None if best is None else (best[1], best[2])


def smith_normal_form(A) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smith normal form: unimodular U, V with U @ A @ V = D.

    D is diagonal (rectangular allowed) with nonnegative entries satisfying
    d_i | d_{i+1}.  U and V have determinant ±1.
    """
    A = imat(A)
    m, n = A.shape
    D = A.copy()
    U = int_identity(m)
    V = int_identity(n)

    t = 0
    while t < min(m, n):
        pos = _min_nonzero_position(D, t)
        if pos is None:
            break
        while True:
            # Move the smallest nonzero entry of the working block to (t, t);
            # small pivots keep the Euclidean elimination short.
            i, j = _min_nonzero_position(D, t)
            if i != t:
                D[[t, i]] = D[[i, t]]
                U[[t, i]] = U[[i, t]]
            if j != t:
                D[:, [t, j]] = D[:, [j, t]]
                V[:, [t, j]] = V[:, [j, t]]
            pivot = D[t, t]
            done = True
            for i in range(t + 1, m):
                if D[i, t] != 0:
                    q = D[i, t] // pivot
                    D[i, :] = D[i, :] - q * D[t, :]
                    U[i, :] = U[i, :] - q * U[t, :]
                    if D[i, t] != 0:
                        done = False
            for j in range(t + 1, n):
                if D[t, j] != 0:
                    q = D[t, j] // pivot
                    D[:, j] = D[:, j] - q * D[:, t]
                    V[:, j] = V[:, j] - q * V[:, t]
                    if D[t, j] != 0:
                        done = False
            if not done:
                continue
            # Row and column are clear; force the divisibility chain.  Pulling
            # a non-divisible row up strictly shrinks the pivot's gcd, so the
            # outer loop terminates.
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if D[i, j] % pivot != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            D[t, :] = D[t, :] + D[offender, :]
            U[t, :] = U[t, :] + U[offender, :]
        t += 1

    for i in range(min(m, n)):
        if D[i, i] < 0:
            D[i, :] = -D[i, :]
            U[i, :] = -U[i, :]
    return U, D, V


def integer_kernel_basis(A) -> np.ndarray:
    """Columns form a lattice basis of {v in Z^cols | A v = 0}.

    The basis is complete: rank(A) + returned columns = cols.  The returned
    matrix has shape (cols, d); d may be zero.
    """
    A = imat(A)
    m, n = A.shape
    _, D, V = smith_normal_form(A)
    cols = [j for j in range(n) if j >= m or D[j, j] == 0]
    B = np.zeros((n, len(cols)), dtype=object)
    for out, j in enumerate(cols):
        B[:, out] = V[:, j]
    return B


def determinant(A) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    A = imat(A)
    m, n = A.shape
    if m != n:
        raise DimensionError(f"determinant needs a square matrix, got {m}x{n}")
    a = [[int(A[i, j]) for j in range(n)] for i in range(n)]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def is_unimodular_basis(vectors) -> bool:
    """True iff the n given integer vectors of length n have |det| = 1."""
    vectors = [tuple(int(c) for c in v) for v in vectors]
    if not vectors:
        raise DimensionError("need at least one vector")
    n = len(vectors[0])
    if len(vectors) != n or any(len(v) != n for v in vectors):
        raise DimensionError(
            f"need exactly {n} vectors of length {n} to test a basis"
        )
    return abs(determinant(vectors)) == 1


def integer_right_inverse(A) -> np.ndarray | None:
    """Integer S with A @ S = I, or None when A is not surjective over Z.

    Surjectivity over Z is equivalent to the Smith form of A being [I | 0].
    """
    A = imat(A)
    m, n = A.shape
    if m > n:
        return None
    U, D, V = smith_normal_form(A)
    if any(D[i, i] != 1 for i in range(m)):
        return None
    S = V[:, :m] @ U
    assert (A @ S == int_identity(m)).all()
    return S


def _as_fraction_rows(rows):
    out = [[Fraction(v) for v in r] for r in rows]
    if not out:
        return out
    width = len(out[0])
    if any(len(r) != width for r in out):
        raise DimensionError("ragged rows")
    return out


def solve_rational(rows, rhs):
    """Exact solution of a square rational system, or None if singular.

    `rows` are the equation left-hand sides, `rhs` the right-hand sides.
    Solved by `_rref` on the augmented rows [A | b]: the system has a unique
    solution iff the pivots are exactly the n columns of A, and the solution
    is then the reduced last column.
    """
    a = _as_fraction_rows(rows)
    b = [Fraction(v) for v in rhs]
    n = len(a)
    if n == 0 or len(a[0]) != n or len(b) != n:
        raise DimensionError("solve_rational needs a square system")
    reduced, pivots = _rref([r + [v] for r, v in zip(a, b)])
    if pivots != list(range(n)):
        return None
    return tuple(r[n] for r in reduced)


def rational_kernel_vector(rows):
    """A nonzero rational kernel vector of the given row system, or None."""
    a = _as_fraction_rows(rows)
    if not a:
        return None
    n = len(a[0])
    reduced, pivots = _rref(a)
    pivot_cols = set(pivots)
    free = next((j for j in range(n) if j not in pivot_cols), None)
    if free is None:
        return None
    v = [Fraction(0)] * n
    v[free] = Fraction(1)
    for row, pc in zip(reduced, pivots):
        v[pc] = -row[free]
    return tuple(v)


def _rref(rows):
    """Reduced row echelon form over Q; returns (nonzero rows, pivot cols)."""
    a = [list(r) for r in rows]
    if not a:
        return [], []
    n = len(a[0])
    pivots = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][col]
        a[r] = [v * inv for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [v - f * w for v, w in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
        if r == len(a):
            break
    return a[:r], pivots


def row_space_equal(rows1, rows2) -> bool:
    """Exact equality of the rational row spaces spanned by two row lists.

    Empty lists span the zero space.  Used to compare isotropy algebras.
    """
    f1 = _as_fraction_rows(rows1)
    f2 = _as_fraction_rows(rows2)
    if not f1 or not f2:
        return not f1 and not f2
    if len(f1[0]) != len(f2[0]):
        raise DimensionError("row spaces live in different ambient dimensions")
    r1, p1 = _rref(f1)
    r2, p2 = _rref(f2)
    return p1 == p2 and r1 == r2
