"""Slow exact linear algebra over Q, the reference for `torikit.intlat` and
for polytope screening, and the reference margin check.

Nothing here calls torikit: rows are reduced with Fraction arithmetic, and
the determinant is the Leibniz sum over permutations, so the oracles share
no code with the fraction-free elimination they check.  The margin check
reads only a polytope's normals and offsets and an element's mode keys.
"""
import itertools
import math
from fractions import Fraction


def rref(rows):
    """Reduced row echelon form over Q; returns (nonzero rows, pivot cols)."""
    a = [[Fraction(v) for v in r] for r in rows]
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


def solve(rows, rhs):
    """The unique solution of the square system rows @ x = rhs, or None."""
    n = len(rows)
    reduced, pivots = rref([list(r) + [v] for r, v in zip(rows, rhs)])
    if pivots != list(range(n)):
        return None
    return tuple(r[n] for r in reduced)


def kernel_vector(rows):
    """The kernel vector with 1 at the first free column and 0 at the later
    free columns, or None (no rows, or full column rank)."""
    if not rows:
        return None
    n = len(rows[0])
    reduced, pivots = rref(rows)
    free = next((j for j in range(n) if j not in pivots), None)
    if free is None:
        return None
    v = [Fraction(0)] * n
    v[free] = Fraction(1)
    for row, pc in zip(reduced, pivots):
        v[pc] = -row[free]
    return tuple(v)


def determinant(rows):
    """Leibniz formula: the signed sum over all permutations."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(n))
    return total


def row_space_equal(rows1, rows2):
    """Equal row spaces over Q: equal reduced row echelon forms."""
    if not rows1 or not rows2:
        return not rows1 and not rows2
    return rref(rows1) == rref(rows2)


def displacements(f, g):
    """Mode displacements visited by the two convolution orders."""
    out = set()
    for l, _ in f.modes:
        out.add(l)
        for m, _ in g.modes:
            out.add(m)
            out.add(tuple(a + b for a, b in zip(l, m)))
    out.discard(tuple([0] * f.n))
    return sorted(out)


def margin_error(P, f, g, y, hbar_max):
    """The message `algebra.check_margin` raises, or None when y and every
    intermediate point y + hbar_max*d over `displacements` is strictly
    interior; each point's slacks are taken in Fractions."""
    y = tuple(Fraction(c) for c in y)
    hbar_max = Fraction(hbar_max)

    def text(p):
        return "(" + ", ".join(str(c) for c in p) + ")"

    def interior(p):
        return all(sum(a * x for a, x in zip(p, X)) - lam > 0
                   for X, lam in zip(P.normals, P.offsets))

    if not interior(y):
        return f"sample point {text(y)} is not interior"
    for d in displacements(f, g):
        p = tuple(c + hbar_max * di for c, di in zip(y, d))
        if not interior(p):
            return (f"intermediate point {text(p)} (displacement {d} at "
                    f"hbar = {hbar_max}) leaves the interior")
    return None
