"""Finite matrix models of the algebra on orbits at fixed hbar != 0.

On a finite orbit the algebra acts by  (pi(f) xi)(u) = sum_k 1[(hbar,u,k)
valid] f(hbar,u,k) xi(u + hbar*k).  `represent` takes a `groupoid.Orbit`
of dimension D, whose basis vector i sits at u_i = y0 + hbar*steps[i].  An
orbit is a pair groupoid, so mode k acts as a weighted partial shift: row i
holds the one value f(hbar, u_i, k) in the column of u_i + hbar*k, a lookup
in the steps.  `represent` returns an element in that form, an
`OrbitOperator` with a values vector and a targets vector per mode, and
products, diagonals and single entries are mode convolutions on these
vectors at O(modes^2 * D).  The map is a *-homomorphism for
the package's convolution convention, which makes it an independent oracle
for the algebra layer, and its spectra are the quantized values of
observables.

`spectrum` takes the first path that applies.  A Hermitian operator whose
nonzero off-diagonal entries are real and join neighbouring indices only is
real symmetric tridiagonal: the modes {0, +-e_n} act along chains in the
last axis, which orbit order lists as contiguous index ranges, and each
chain is solved alone by real `eigvalsh`; any other Hermitian operator goes
to dense `eigvalsh`.  A non-Hermitian operator whose nonzero arrows form an
acyclic graph (permutation-similar to a triangular matrix) has its diagonal
as spectrum; any other goes to dense `eigvals`.  The chains give the dense
bits: on a real tridiagonal matrix zhetrd and dsytrd find every Householder
tau = 0, so both solvers hand the same (d, e) to dsterf, which works block
by block.  Hermitian operators stay dense when a coupling is complex, when
it joins indices further apart (cp2 modes (1,0) and (1,-1), or a base point
inside a chain, as orbit order lists it first), or when a chain's largest
|entry| is nonzero and outside LAPACK's no-rescale window [2^-485, 2^485].
The dense D x D matrix, `OrbitOperator.dense`, and the chain path for its
longest chain refuse any matrix larger than DENSE_CAP_BYTES before
allocating it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import algebra as al
from .errors import DomainError, EvalDomainError
from .groupoid import Orbit, orbit
from .polytope import DelzantPolytope, format_point, ratpoint

__all__ = [
    "OrbitOperator", "DENSE_CAP_BYTES", "represent",
    "spectrum", "sphere_x3", "sphere_xplus", "sphere_xminus", "casimir_defect",
    "bracket_via_matrices",
]

DENSE_CAP_BYTES = 2 ** 31   # 2 GiB of complex entries: D = 11,585 is the largest


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
    targets[i] is -1 and values[i] is 0.
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

    def entry(self, i: int, k) -> complex:
        """The mode-k entry of row i (0 where there is none)."""
        mode = self.modes.get(tuple(k))
        return complex(mode[0][i]) if mode else 0j

    def __matmul__(self, other: "OrbitOperator") -> "OrbitOperator":
        """Operator product.  Mode l + m of row i sums a_l[i] * b_m[t_l(i)]
        over this operator's modes l in order, as `algebra.convolve` sums."""
        modes = {}
        for l, (a, ta) in self.modes.items():
            rows = np.flatnonzero(ta >= 0)
            mid = ta[rows]
            for m, (b, tb) in other.modes.items():
                ends = tb[mid]
                ok = ends >= 0
                if not ok.any():
                    continue
                k = tuple(x + y for x, y in zip(l, m))
                if k not in modes:
                    modes[k] = (np.zeros(self.dim, dtype=complex),
                                np.full(self.dim, -1, dtype=np.int64))
                values, targets = modes[k]
                values[rows[ok]] += a[rows[ok]] * b[mid[ok]]
                targets[rows[ok]] = ends[ok]
        return OrbitOperator(self.dim, modes)


def represent(P: DelzantPolytope, orb: Orbit, f: al.AlgebraElement) -> OrbitOperator:
    """An element as an operator on the orbit basis.

    Entries exist exactly at valid arrows; each mode's targets are one
    vectorized lookup of the orbit's steps, and its coefficient is evaluated
    on all its rows at once, with singular evaluations reported against the
    offending orbit point.
    """
    D = orb.dim
    hbar = float(orb.hbar)
    ys = orb.coordinates(orb.steps)  # (D, n)
    modes = {}
    for k, coeff in f.modes:
        targets = orb.targets(k)
        rows = np.flatnonzero(targets >= 0)
        if not len(rows):
            continue
        # evaluate only where the arrow exists; masked points may be singular
        try:
            re, im = al.evaluate_rows(coeff, hbar, ys[rows], k)
        except EvalDomainError:
            _locate_bad_point(f, k, orb, rows)
        values = np.zeros(D, dtype=complex)
        values[rows] = re + 1j * im
        modes[k] = (values, targets)
    return OrbitOperator(D, modes)


def _locate_bad_point(f, k, orb, rows):
    coeff = f.coefficient(k)
    for i in rows:
        p = orb.point(i)
        try:
            v = coeff.evaluate(float(orb.hbar), [float(c) for c in p])
        except EvalDomainError as exc:
            raise EvalDomainError(
                f"coefficient of mode {k} at orbit point {format_point(p)}: "
                f"{exc.reason}", exc.subexpression) from exc
        if not np.isfinite(v.real) or not np.isfinite(v.imag):
            raise EvalDomainError(
                f"coefficient of mode {k} not finite at orbit point "
                f"{format_point(p)}")
    raise EvalDomainError(f"coefficient of mode {k} singular on the orbit")


def spectrum(op: OrbitOperator) -> np.ndarray:
    """Eigenvalues, sorted.  Hermitian operators come back real and
    ascending, others complex in (real, imag) order.

    "Hermitian" means every entry is within atol = 1e-12 * max(|entry|, 1)
    of the conjugate of its transposed entry.  A Hermitian operator is
    solved chain by chain when it is real tridiagonal (`_chain_spectrum`),
    else by the symmetric eigensolver on the dense matrix.  A non-Hermitian
    operator whose nonzero off-diagonal arrows form an acyclic graph has its
    diagonal as spectrum (the isolation LAPACK's balancing performs); the
    others go to the general eigensolver on the dense matrix.
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
    entries are real and sit at |targets[i] - i| = 1, one chain at a time,
    unsorted; None for any other operator.

    dense `eigvalsh` reads the diagonal d and the lower couplings
    e[i] = M[i+1, i] (UPLO='L').  On a real tridiagonal matrix zhetrd and
    dsytrd find every Householder tau = 0, so zheevd on the whole matrix and
    dsyevd on a chain hand the same (d, e) to dsterf, which splits at each
    zero of e and solves and scales block by block.  Cut at the exact zeros
    of e, the chains therefore give the dense eigenvalues bit for bit,
    provided neither solver rescales: every chain's largest |entry| must be
    zero or inside _NO_RESCALE.  An operator with no nonzero off-diagonal
    entry is diagonal, and its spectrum is its diagonal at any scale.  The
    longest chain is held to the dense cap, and each chain is solved alone,
    so no allocation exceeds the longest chain's.
    """
    e = np.zeros(op.dim - 1)
    coupled = False
    for k, (values, targets) in op.modes.items():
        if not any(k):
            continue
        rows = np.flatnonzero(values != 0)
        if not len(rows):
            continue
        if np.any(values[rows].imag != 0) or np.any(np.abs(targets[rows] - rows) != 1):
            return None
        coupled = True
        lower = rows[targets[rows] < rows]
        e[lower - 1] += values[lower].real    # dense() accumulates in this order
    d = op.diagonal().real
    bounds = np.concatenate(([0], np.flatnonzero(e == 0) + 1, [op.dim]))
    starts, lengths = bounds[:-1], np.diff(bounds)
    if coupled:
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


def _is_acyclic(op: OrbitOperator) -> bool:
    """Kahn's algorithm on the arrows i -> t_k(i) of the nonzero
    off-diagonal entries."""
    tails, heads = [], []
    for k, (values, targets) in op.modes.items():
        if any(k):
            rows = np.flatnonzero(values != 0)
            tails.append(rows)
            heads.append(targets[rows])
    if not tails:
        return True
    tails, heads = np.concatenate(tails), np.concatenate(heads)
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
    the facets where the raising coefficient loses smoothness.
    """
    hbar = Fraction(hbar)
    if not _is_unit_interval(P):
        raise DomainError("the quadratic-invariant check is defined on the "
                          "unit interval")
    orb = orbit(P, hbar, (hbar / 2,))
    x3, xp, xm = (represent(P, orb, e)
                  for e in (sphere_x3(), sphere_xplus(), sphere_xminus()))
    # every product has mode sum {0}, so the represented invariant is
    # diagonal and its distance from I/4 is the largest diagonal deviation
    val = (x3 @ x3).diagonal()
    val += 0.5 * ((xp @ xm).diagonal() + (xm @ xp).diagonal())
    return max(0.0, float(np.abs(val - 0.25).max()))


# ---------------------------------------------------------------------------
# matrix route to the bracket limit (independent oracle)

def bracket_via_matrices(P: DelzantPolytope, f: al.AlgebraElement,
                         g: al.AlgebraElement, y, k, hbar_list) -> complex:
    """Limit of the renormalized matrix commutator entry at (y, y + hbar*k).

    For each hbar the elements are represented on the orbit through y, the
    commutator is formed from the two operator products, and the entry
    corresponding to the arrow (hbar, y, k) is read off; the sweep is then
    extrapolated to zero.  Everything downstream of `represent` is
    independent of the convolution code path.
    """
    y = ratpoint(y)
    k = tuple(int(c) for c in k)
    hs = al.hbar_sweep(hbar_list)
    values = []
    for h in hs:
        orb = orbit(P, h, y)
        row = 0                     # an orbit lists its base point first
        if orb.target_index(row, k) is None:
            raise DomainError(
                f"arrow (hbar={h}, y={format_point(y)}, k={k}) is not in the groupoid")
        F, G = represent(P, orb, f), represent(P, orb, g)
        comm = (F @ G).entry(row, k) - (G @ F).entry(row, k)
        values.append(comm / (1j * float(h)))
    return al.neville_to_zero(hs, values)
