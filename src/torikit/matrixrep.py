"""Finite matrix models of the algebra on orbits at fixed hbar != 0.

On a finite orbit the algebra acts by  (pi(f) xi)(u) = sum_k 1[(hbar,u,k)
valid] f(hbar,u,k) xi(u + hbar*k).  `represent` takes a `groupoid.Orbit`
of dimension D, whose basis vector i sits at u_i = y0 + hbar*steps[i].  An
orbit is a pair groupoid, so mode k acts as a weighted partial shift: row i
holds the one value f(hbar, u_i, k) in the column of u_i + hbar*k, a lookup
in the steps.  `represent` returns an element in that form, an
`OrbitOperator` with a values vector and a targets vector per mode; one
mode of a product is a convolution on these vectors at O(modes * D).  The
map is a *-homomorphism for the package's convolution convention, which
makes it an independent oracle for the algebra layer, and its spectra are
the quantized values of observables.

The product itself is computed on the orbit too: every arrow is a lattice
step, so `convolve_orbit` computes (f.g)(hbar, u, k) at all orbit points u
in one array pass and returns it as an `OrbitOperator`.  It walks the mode
pairs (l, m) of f and g, f's modes first, and fills mode l + m.  Both
factor arrows are tested on the orbit's face bounds (`groupoid.face_bounds`,
the closed form of `groupoid.is_member`, not the orbit's own index).  Each term evaluates its coefficients of f and g on
its own rows, those where both of its arrows exist; at each mode the terms
are summed over the modes of f in order.  One call serves every mode after
one face test of the orbit; only the placement of its output reads the
orbit's index (`Orbit.targets`), so pi(f.g) = pi(f)pi(g) checks that index
independently.  The tails' coordinates are rows of `Orbit.points` and the
heads' are computed from their steps, both correctly rounded.  It returns
the same floats, bit for bit, as one `algebra.convolve` per point wherever
`expr.evaluate` gives the same floats on arrays as on scalars.  The four
operations always do, and numpy runs sin, cos and exp through one loop for a
scalar and a contiguous column; an integer power may not (numpy's array
power and Python's float power round differently).  To keep that contract
the complex product and the sum are separate float64 operations,
re += ar*br - ai*bi and im += ar*bi + ai*br, in the order Python's complex
arithmetic performs them; numpy's complex multiply may fuse them and round
differently.  `represent` and `convolve_orbit` evaluate through one path
(`_evaluate_rows`), so both name the orbit point where a coefficient is
singular or not finite, and a product that is not finite fails as in
`algebra.convolve`.

`spectrum` takes the first path that applies; the chain and acyclic tests
read one arrow graph (`_arrows`: the nonzero off-diagonal entries as arrows
i -> t_k(i)).  A Hermitian operator whose arrows carry real values and join
neighbouring rows in line order (`_line_order`) is real symmetric
tridiagonal in that order, and each chain is solved alone by real
`eigvalsh`; any other Hermitian operator goes to dense `eigvalsh`.  Line
order lists each line of l in a row when the arrows lie in one pair of
modes +-l, so cp2 modes (1,0) and (1,-1) and a base point inside a chain
(orbit order lists y0 first) give chains too; for other operators it is
orbit order.  A non-Hermitian operator whose arrows form an acyclic graph
(permutation-similar to a triangular matrix) has its diagonal as spectrum;
any other goes to dense `eigvals`.  The chains give the bits of dense
`eigvalsh` on the matrix in line order: on a real tridiagonal matrix zhetrd
and dsytrd find every Householder tau = 0, so both solvers hand the same
(d, e) to dsterf, which works block by block.  Hermitian operators stay
dense when a coupling is complex, when it joins rows further apart in line
order, or when a chain's largest |entry| is nonzero and outside LAPACK's
no-rescale window [2^-485, 2^485].  The dense D x D matrix,
`OrbitOperator.dense`, and the chain path for its longest chain refuse any
matrix larger than DENSE_CAP_BYTES before allocating it.

`bracket_via_matrices` is the matrix route to the bracket limit.  Its hbar
sweep is extrapolated by the one engine that extrapolates the scalar
route, `algebra.extrapolate`, so both routes share one verdict.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import algebra as al
from . import expr as ex
from .errors import DomainError, EvalDomainError
from .groupoid import Orbit, face_bounds, not_in_groupoid, orbit, translate
from .polytope import DelzantPolytope, format_point, int_mode, rational, ratpoint

__all__ = [
    "OrbitOperator", "DENSE_CAP_BYTES", "represent", "convolve_orbit",
    "spectrum", "sphere_x3", "sphere_xplus", "sphere_xminus", "casimir_defect",
    "bracket_via_matrices",
]

# 2 GiB of complex entries: D = 11,585 is the largest.  The cap bounds the
# matrix, not the peak: dense `eigvalsh` works on a copy, and a process's
# peak RSS rose by 2.0 times the matrix (cp2, D = 1,770 to 4,950, OpenBLAS)
DENSE_CAP_BYTES = 2 ** 31


def _require_dense_cap(dim: int) -> None:
    nbytes = 16 * dim * dim
    if nbytes > DENSE_CAP_BYTES:
        raise DomainError(
            f"dense matrix of dimension {dim} needs {nbytes} bytes, "
            f"over the cap of {DENSE_CAP_BYTES}")


@dataclass(frozen=True)
class OrbitOperator:
    """An operator on the orbit basis of dimension `dim`, stored by mode.

    modes[k] = (values, targets): row i has the entry values[i] in column
    targets[i], the index of u_i + hbar*k.  Where row i has no mode-k entry,
    targets[i] is -1 and values[i] is 0.  Products are read one mode at a
    time (`product_mode`).
    """

    dim: int
    modes: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]]

    def dense(self) -> np.ndarray:
        """The D x D complex matrix; DomainError when it would exceed
        DENSE_CAP_BYTES."""
        _require_dense_cap(self.dim)
        M = np.zeros((self.dim, self.dim), dtype=complex)
        for values, targets in self.modes.values():
            rows = np.flatnonzero(targets >= 0)
            M[rows, targets[rows]] += values[rows]
        return M

    def diagonal(self) -> np.ndarray:
        """The diagonal, accumulated as `dense` accumulates it."""
        d = np.zeros(self.dim, dtype=complex)
        for k, (values, _) in self.modes.items():
            if not any(k):
                d += values
        return d

    def product_mode(self, other: "OrbitOperator", k) -> np.ndarray:
        """Mode k of the product of this operator with `other`, as a values
        vector: row i sums a_l[i] * b_{k-l}[t_l(i)] over this operator's
        modes l in order, as `algebra.convolve` sums (zeros where no term
        lands)."""
        values = np.zeros(self.dim, dtype=complex)
        for l, (a, ta) in self.modes.items():
            mode = other.modes.get(tuple(x - y for x, y in zip(k, l)))
            if mode is None:
                continue
            b, tb = mode
            rows = np.flatnonzero(ta >= 0)
            mid = ta[rows]
            ok = tb[mid] >= 0
            values[rows[ok]] += a[rows[ok]] * b[mid[ok]]
        return values


def represent(P: DelzantPolytope, orb: Orbit, f: al.AlgebraElement) -> OrbitOperator:
    """An element as an operator on the orbit basis.

    Entries exist exactly at valid arrows; each mode's targets are one
    vectorized lookup of the orbit's steps, and its coefficient is evaluated
    on all its rows at once (`_evaluate_rows`, which names the orbit point
    where it is singular or not finite).
    """
    D = orb.dim
    modes = {}
    for k, coeff in f.modes:
        targets = orb.targets(k)
        rows = np.flatnonzero(targets >= 0)
        if not len(rows):
            continue
        # evaluate only where the arrow exists; masked points may be singular
        re, im = _evaluate_rows(coeff, k, orb, rows)
        values = np.zeros(D, dtype=complex)
        values[rows] = re + 1j * im
        modes[k] = (values, targets)
    return OrbitOperator(D, modes)


@np.errstate(over="ignore", invalid="ignore")   # values not finite are refused
def convolve_orbit(P: DelzantPolytope, f: al.AlgebraElement, g: al.AlgebraElement,
                   orb: Orbit) -> OrbitOperator:
    """The product f.g as an operator on the orbit: mode k holds
    (f.g)(hbar, u, k) at every point u, equal to `algebra.convolve` at each
    point (module docstring), and the targets `orb.targets(k)`.  Every sum
    k = l + m of a mode l of f and a mode m of g gets a mode, in the order
    the pairs are walked (f's modes, then g's), zeros where no term lands.
    Membership comes from one face test of the orbit: an arrow is valid when
    its head's pairings reach every lower bound of y0's open face
    (`face_bounds`); a mode longer than the steps' box (`Orbit.box`) joins
    no two orbit points.  Each term evaluates both coefficients only on the
    rows where both of its arrows exist.  A coefficient that is singular or
    not finite where its arrow exists raises EvalDomainError naming that
    orbit point, as `represent` does; so does a mode whose product is not
    finite, naming its first such point, as `algebra.convolve` does.
    """
    al.common_n(f, g)
    M, low, _ = face_bounds(P, orb.y0, orb.hbar)
    q = orb.steps @ M
    extent = (orb.box[1] - orb.box[0]).tolist()

    def pairings(k):
        """k @ M, or None when k is longer than the steps' box."""
        if any(abs(c) > e for c, e in zip(k, extent)):
            return None
        return np.array(k, dtype=np.int64) @ M

    gp = [(m, cg, None if cg.is_zero_tree() else pairings(m)) for m, cg in g.modes]
    acc = {}
    for l, cf in f.modes:
        pl = pairings(l)
        mid = None if pl is None else q + pl
        for m, cg, pm in gp:
            k = tuple(a + b for a, b in zip(l, m))
            if k not in acc:
                acc[k] = (np.zeros(orb.dim), np.zeros(orb.dim))
            if mid is None or pm is None:
                continue
            rows = np.flatnonzero((mid >= low).all(axis=1)
                                  & (mid + pm >= low).all(axis=1))
            if not len(rows):
                continue
            ar, ai = _evaluate_rows(cf, l, orb, rows)
            br, bi = _evaluate_rows(cg, m, orb, rows, l)
            re, im = acc[k]
            re[rows] += ar * br - ai * bi
            im[rows] += ar * bi + ai * br
    modes = {}
    for k, (re, im) in acc.items():
        values = re + 1j * im
        finite = np.isfinite(values)
        if not finite.all():
            raise al.not_finite("product", k, orb.point(int(np.argmin(finite))), orb.hbar)
        modes[k] = (values, orb.targets(k))
    return OrbitOperator(orb.dim, modes)


def _evaluate_rows(coeff: ex.ComplexExpr, k, orb: Orbit, rows, shift=None):
    """The (re, im) float arrays of the mode-k coefficient at the orbit
    points of `rows`, or at their heads steps[rows] + shift; where it is
    singular or not finite, EvalDomainError names the first such point."""
    heads = None if shift is None else orb.steps[rows] + shift
    ys = orb.points[rows] if heads is None else orb.coordinates(heads)
    # contiguous columns: numpy may take another (SIMD) loop on strided ones
    hbar, cols = ex.floats(orb.hbar, [np.ascontiguousarray(c) for c in ys.T])
    with np.errstate(all="ignore"):
        try:
            re = ex.evaluate(coeff.re, hbar, cols)
            im = ex.evaluate(coeff.im, hbar, cols)
            # a part free of y evaluates to a float: one value for every row
            re, im = (np.full(len(rows), v) if type(v) is float else v for v in (re, im))
            if np.isfinite(re).all() and np.isfinite(im).all():
                return re, im
        except EvalDomainError:
            pass
        # one point at a time, in row order, to name the first that fails
        for step in (orb.steps[rows] if heads is None else heads).tolist():
            p = translate(orb.y0, orb.hbar, step)
            try:
                coeff.evaluate(hbar, p)
            except EvalDomainError as exc:
                raise EvalDomainError(
                    f"coefficient of mode {k} at orbit point {format_point(p)}: "
                    f"{exc.reason}", exc.subexpression) from exc
    raise EvalDomainError(f"coefficient of mode {k} singular on the orbit")


def spectrum(op: OrbitOperator) -> np.ndarray:
    """Eigenvalues, sorted.  Hermitian operators come back real and
    ascending, others complex in (real, imag) order.

    "Hermitian" means every entry is within atol = 1e-12 * max(|entry|, 1)
    of the conjugate of its transposed entry.  A Hermitian operator is
    solved chain by chain when it is real tridiagonal in line order
    (`_chain_spectrum`), else by the symmetric eigensolver on the dense
    matrix.  A non-Hermitian operator whose nonzero off-diagonal arrows form
    an acyclic graph has its diagonal as spectrum (the isolation LAPACK's
    balancing performs); the others go to the general eigensolver on the
    dense matrix.
    """
    atol = 1e-12 * max(max((float(np.abs(v).max()) for v, _ in op.modes.values()),
                           default=0.0), 1.0)
    if _is_hermitian(op, atol):
        vals = _chain_spectrum(op)
        return np.sort(np.linalg.eigvalsh(op.dense()) if vals is None else vals)
    vals = op.diagonal() if _is_acyclic(op) else np.linalg.eigvals(op.dense())
    return vals[np.lexsort((vals.imag, vals.real))]


# LAPACK's ?heevd/?syevd scale a matrix whose largest |entry| is nonzero and
# outside [sqrt(safmin/eps), sqrt(eps/safmin)] = [2^-485, 2^485]
_NO_RESCALE = (2.0 ** -485, 2.0 ** 485)


def _chain_spectrum(op: OrbitOperator) -> np.ndarray | None:
    """The eigenvalues of a Hermitian operator whose nonzero off-diagonal
    entries are real and join neighbouring rows in line order
    (`_line_order`), one chain at a time, unsorted; None for any other
    operator.

    Permuted into line order the matrix is real tridiagonal, and dense
    `eigvalsh` on it reads the diagonal d and the lower couplings
    e[i] = M[i+1, i] (UPLO='L').  On a real tridiagonal matrix zhetrd and
    dsytrd find every Householder tau = 0, so zheevd on the whole permuted
    matrix and dsyevd on a chain hand the same (d, e) to dsterf, which
    splits at each zero of e and solves and scales block by block.  Cut at
    the exact zeros of e, the chains therefore give the eigenvalues of the
    permuted matrix bit for bit, provided neither solver rescales: every
    chain's largest |entry| must be zero or inside _NO_RESCALE.  Where line
    order is orbit order, those are the dense eigenvalues of the operator
    itself.  An operator with no nonzero off-diagonal entry is diagonal, and
    its spectrum is its diagonal at any scale.  The longest chain is held to
    the dense cap, and each chain is solved alone, so no allocation exceeds
    the longest chain's.
    """
    tails, heads, values = _arrows(op)
    if np.any(values.imag != 0):
        return None
    order = _line_order(op)
    position = np.empty_like(order)
    position[order] = np.arange(op.dim)
    tails, heads = position[tails], position[heads]
    if np.any(np.abs(heads - tails) != 1):
        return None
    lower = heads < tails
    # e[i] = M[i+1, i] in line order, summed mode by mode as dense() accumulates it
    e = np.bincount(heads[lower], weights=values[lower].real, minlength=op.dim - 1)
    d = op.diagonal().real[order]
    bounds = np.concatenate(([0], np.flatnonzero(e == 0) + 1, [op.dim]))
    starts, lengths = bounds[:-1], np.diff(bounds)
    if len(tails):
        extent = np.abs(d)
        extent[:-1] = np.maximum(extent[:-1], np.abs(e))
        top = np.maximum.reduceat(extent, starts)
        lo, hi = _NO_RESCALE
        if np.any((top != 0) & ((top < lo) | (top > hi))):
            return None
    _require_dense_cap(int(lengths.max()))
    vals = [d[starts[lengths == 1]]]
    long = lengths > 1
    for s, n in zip(starts[long].tolist(), lengths[long].tolist()):
        vals.append(np.linalg.eigvalsh(np.diag(d[s:s + n]) + np.diag(e[s:s + n - 1], -1)))
    return np.concatenate(vals)


def _line_order(op: OrbitOperator) -> np.ndarray:
    """The rows in line order, when the nonzero off-diagonal entries lie in
    one pair of modes +-l: each line of the lex-positive l from its first
    point, walked along l's targets, and the lines by the orbit index of
    their first point.  The identity for any other operator."""
    pair = {k for k, (values, _) in op.modes.items() if any(k) and values.any()}
    pair |= {tuple(-c for c in k) for k in pair}
    l = max(pair, default=None)
    if len(pair) != 2 or l not in op.modes:
        return np.arange(op.dim)
    targets = op.modes[l][1]
    rows = np.flatnonzero(targets >= 0)
    # pointer doubling on the predecessors: `first` ends at each row's first
    # point and `rank` at its distance from it, after at most bit_length(D)
    # rounds on lines of at most D points
    first = np.arange(op.dim)
    first[targets[rows]] = rows
    rank = np.zeros(op.dim, dtype=np.int64)
    rank[targets[rows]] = 1
    for _ in range(op.dim.bit_length()):
        up = first[first]
        if np.array_equal(up, first):
            break
        rank += rank[first]
        first = up
    return np.lexsort((rank, first))


def _is_hermitian(op: OrbitOperator, atol: float) -> bool:
    """|M[i, j] - conj(M[j, i])| <= atol at every entry, mode by mode: the
    transposed entry of (i, t_k(i)) is row t_k(i) of mode -k."""
    for k, (values, targets) in op.modes.items():
        rows = np.flatnonzero(targets >= 0)
        back = op.modes.get(tuple(-c for c in k))
        back = back[0][targets[rows]] if back else 0
        if not np.all(np.abs(values[rows] - np.conj(back)) <= atol):
            return False
    return True


def _arrows(op: OrbitOperator):
    """The arrow graph: (tails, heads, values) of the arrows i -> t_k(i) of
    the nonzero off-diagonal entries, mode by mode in op.modes order."""
    off = [mode for k, mode in op.modes.items() if any(k)]
    values = np.array([v for v, _ in off], dtype=complex).reshape(-1, op.dim)
    targets = np.array([t for _, t in off], dtype=np.int64).reshape(-1, op.dim)
    at = np.nonzero(values)
    return at[1], targets[at], values[at]


def _is_acyclic(op: OrbitOperator) -> bool:
    """Kahn's algorithm on the operator's arrow graph (`_arrows`)."""
    tails, heads, _ = _arrows(op)
    if not len(tails):
        return True
    order = np.argsort(tails, kind="stable")
    starts = np.searchsorted(tails[order], np.arange(op.dim + 1)).tolist()
    heads_by_tail = heads[order].tolist()
    indegree = np.bincount(heads, minlength=op.dim).tolist()
    ready = [i for i, d in enumerate(indegree) if d == 0]
    removed = 0
    while ready:
        i = ready.pop()
        removed += 1
        for j in heads_by_tail[starts[i]:starts[i + 1]]:
            indegree[j] -= 1
            if indegree[j] == 0:
                ready.append(j)
    return removed == op.dim


# ---------------------------------------------------------------------------
# the sphere observables and their quadratic invariant

def sphere_x3() -> al.AlgebraElement:
    """Height observable (y - 1/2) e_0 on the unit interval."""
    return al.element(1, {0: "y1 - 1/2"})


def sphere_xplus() -> al.AlgebraElement:
    """Raising observable sqrt(y(1-y)) e_1."""
    return al.element(1, {1: "sqrt(y1*(1 - y1))"})


def sphere_xminus() -> al.AlgebraElement:
    """Lowering observable: the adjoint of the raising one."""
    return al.involution(sphere_xplus())


def _is_unit_interval(P: DelzantPolytope) -> bool:
    return (P.n == 1 and set(zip(P.normals, P.offsets))
            == {((1,), Fraction(0)), ((-1,), Fraction(-1))})


def casimir_defect(P: DelzantPolytope, hbar) -> float:
    """Operator-norm distance of the represented quadratic invariant
    x3.x3 + (x+.x- + x-.x+)/2 from (1/4) I on the orbit through hbar/2.

    Classically (y-1/2)^2 + y(1-y) = 1/4 identically; the represented value
    drifts at order hbar.  Every point of that orbit is interior, away from
    the facets where the raising coefficient loses smoothness.  Each of the
    three products is read at mode 0 only (`OrbitOperator.product_mode`).
    """
    hbar = rational(hbar)
    if not _is_unit_interval(P):
        raise DomainError("the quadratic-invariant check is defined on the "
                          "unit interval")
    orb = orbit(P, hbar, (hbar / 2,))
    x3, xp, xm = (represent(P, orb, e)
                  for e in (sphere_x3(), sphere_xplus(), sphere_xminus()))
    # every product has mode sum {0}, so the represented invariant is its
    # mode 0, and its distance from I/4 is the largest diagonal deviation
    zero = (0,)
    val = x3.product_mode(x3, zero)
    val += 0.5 * (xp.product_mode(xm, zero) + xm.product_mode(xp, zero))
    return max(0.0, float(np.abs(val - 0.25).max()))


# ---------------------------------------------------------------------------
# matrix route to the bracket limit (independent oracle)

@np.errstate(over="ignore", invalid="ignore")   # values not finite are refused
def bracket_via_matrices(P: DelzantPolytope, f: al.AlgebraElement,
                         g: al.AlgebraElement, y, k, hbar_list) -> complex:
    """Limit of the renormalized matrix commutator entry at (y, y + hbar*k).

    For each hbar the elements are represented on the orbit through y, and
    the commutator's entry at the arrow (hbar, y, k) is read off the base
    point's row of mode k of the two products (`OrbitOperator.product_mode`).
    The sweep goes to the engine that extrapolates the scalar route too
    (`algebra.extrapolate`), and its estimate is returned: the last value
    when the sweep is "exact", else the Richardson estimate.  Everything
    downstream of `represent` is independent of the convolution code path.
    """
    y = ratpoint(y)
    k = int_mode(k, P.n)
    hs = al.hbar_sweep(hbar_list)
    values = []
    for h in hs:
        orb = orbit(P, h, y)
        row = 0                     # an orbit lists its base point first
        if orb.target_index(row, k) is None:
            raise not_in_groupoid(h, y, k)
        F, G = represent(P, orb, f), represent(P, orb, g)
        # Python complex arithmetic: numpy's division may round otherwise
        comm = complex(F.product_mode(G, k)[row]) - complex(G.product_mode(F, k)[row])
        values.append(al.renormalize(comm, h, k, y))
    return al.extrapolate(hs, values).estimate
