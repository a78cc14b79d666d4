"""Exact integer and rational linear algebra for lattice computations.

Everything here runs on arbitrary-precision Python integers: lattice maps
are object-dtype numpy arrays, and every Gauss-style elimination is one
fraction-free `eliminate` on Python-int rows (`smith_normal_form` is the
other algorithm here).  Fractions appear only at the edges: rational input
rows are scaled to integers by the lcm of their denominators, and Fractions
are built for the results (`solve_rational` and `rational_kernel_vector`
wrap the integer `solve_integer` and `integer_kernel_vector`, which
screening calls).  No floating point enters this module: downstream
membership predicates rely on these results being exact.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import DimensionError

__all__ = [
    "imat",
    "int_identity",
    "smith_normal_form",
    "integer_kernel_basis",
    "eliminate",
    "determinant",
    "is_unimodular_basis",
    "integer_right_inverse",
    "solve_integer",
    "integer_kernel_vector",
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


def eliminate(rows, width: int):
    """Fraction-free (Bareiss) Gauss-Jordan elimination of integer rows, in
    place, on columns 0..width-1; a column without a pivot is skipped.

    Returns (pivots, d, sign): rows 0..r-1 (r = len(pivots)) hold their
    pivots in the columns listed by `pivots`, d is the last pivot (1 when
    there is none) and sign the parity of the row swaps.  Those rows are
    then d times the reduced row echelon form on the first width columns,
    so d stands in every pivot position, and the rows past r are zero
    there.  For width square rows of rank width, sign * d is their
    determinant.  Each division by the previous pivot is exact: every entry
    is a minor of the input (Sylvester's identity).
    """
    pivots, sign, prev = [], 1, 1
    for c in range(width):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        top = rows[r]
        p = top[c]
        for i, row in enumerate(rows):
            if i != r:
                q = row[c]
                rows[i] = [(p * v - q * t) // prev for v, t in zip(row, top)]
        prev = p
        pivots.append(c)
    return pivots, prev, sign


def determinant(A) -> int:
    """Exact determinant of a square integer matrix, from one `eliminate`."""
    A = imat(A)
    m, n = A.shape
    if m != n:
        raise DimensionError(f"determinant needs a square matrix, got {m}x{n}")
    pivots, d, sign = eliminate(A.tolist(), n)
    return sign * d if len(pivots) == n else 0


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


def _integer_rows(rows):
    """Rational rows as Python-int rows, each scaled by the lcm of its
    denominators; the scaling keeps every row's span and every equation's
    solutions."""
    out = []
    for r in rows:
        r = [Fraction(v) for v in r]
        scale = math.lcm(*(v.denominator for v in r))
        out.append([v.numerator * (scale // v.denominator) for v in r])
    if out and any(len(r) != len(out[0]) for r in out):
        raise DimensionError("ragged rows")
    return out


def solve_integer(rows):
    """The square integer system [A | b] (n rows of n + 1 entries), from one
    `eliminate`: (det, x) with det the determinant of A and x the integer
    numerators of the solution of A x = b over |det|; None when det = 0.
    """
    rows = list(rows)
    n = len(rows)
    pivots, d, sign = eliminate(rows, n)
    if len(pivots) < n:
        return None
    unit = 1 if d > 0 else -1
    return sign * d, [unit * r[n] for r in rows]


def integer_kernel_vector(rows, n: int):
    """(v, free): the primitive integer kernel vector v of the integer rows
    (length n) that is positive at the first free column, `free`, and 0 at
    the later ones.  None when the rows have rank n; no rows give
    ((1, 0, ..., 0), 0).
    """
    rows = list(rows)
    pivots, d, _ = eliminate(rows, n)
    free = next((j for j in range(n) if j not in pivots), None)
    if free is None:
        return None
    v = [0] * n
    v[free] = d
    for row, pc in zip(rows, pivots):
        v[pc] = -row[free]
    g = math.gcd(*v) if d > 0 else -math.gcd(*v)
    return tuple(c // g for c in v), free


def solve_rational(rows, rhs):
    """Exact solution of a square rational system, or None if singular:
    `solve_integer` of the integer-scaled equations [A_i | b_i].

    `rows` are the equation left-hand sides, `rhs` the right-hand sides.
    """
    rows, rhs = [list(r) for r in rows], list(rhs)
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows) or len(rhs) != n:
        raise DimensionError("solve_rational needs a square system")
    sol = solve_integer(_integer_rows(r + [v] for r, v in zip(rows, rhs)))
    return None if sol is None else tuple(Fraction(c, abs(sol[0])) for c in sol[1])


def rational_kernel_vector(rows):
    """A nonzero rational kernel vector of the given row system, or None:
    `integer_kernel_vector` of the integer-scaled rows over its entry at the
    free column, so 1 there and 0 at the later columns without a pivot.
    None when there are no rows or every column has a pivot.
    """
    a = _integer_rows(rows)
    kernel = integer_kernel_vector(a, len(a[0])) if a else None
    if kernel is None:
        return None
    v, free = kernel
    return tuple(Fraction(c, v[free]) for c in v)


def row_space_equal(rows1, rows2) -> bool:
    """Exact equality of the rational row spaces spanned by two row lists.

    Empty lists span the zero space.  Used to compare isotropy algebras.
    The spaces are equal iff both eliminations put their pivots in the same
    columns and their rows agree after dividing by their d (rows past the
    rank are zero in both).
    """
    a1, a2 = _integer_rows(rows1), _integer_rows(rows2)
    if not a1 or not a2:
        return not a1 and not a2
    n = len(a1[0])
    if len(a2[0]) != n:
        raise DimensionError("row spaces live in different ambient dimensions")
    p1, d1, _ = eliminate(a1, n)
    p2, d2, _ = eliminate(a2, n)
    return p1 == p2 and all(u * d2 == v * d1 for r1, r2 in zip(a1, a2)
                            for u, v in zip(r1, r2))
