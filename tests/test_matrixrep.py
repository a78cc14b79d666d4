"""Orbit matrix models."""
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from torikit import algebra as al
from torikit import cli
from torikit import expr as ex
from torikit import groupoid as gr
from torikit import matrixrep as mr
from torikit import polytope as pt
from torikit import suite as su
from torikit.errors import DomainError, EvalDomainError

F = Fraction
SPHERE = pt.interval()
SQUARE = pt.square()
CP2 = pt.projective_space(2)
DATA = Path(pt.__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


# ---------------------------------------------------------------------------
# dense oracles: the matrix built entry by entry, and its eigenvalues from
# the dense Hermitian test and LAPACK

def points(orb):
    """The orbit's exact points, in its order."""
    return [orb.point(i) for i in range(len(orb))]


def step_tuples(orb):
    """The orbit's steps as int tuples, in its order."""
    return [tuple(s) for s in orb.steps.tolist()]


def step_targets(orb, k):
    """The index of point(i) + hbar*k for each i (None when the arrow is
    invalid), by hashing every step: independent of `Orbit.targets`."""
    steps = step_tuples(orb)
    index = {s: i for i, s in enumerate(steps)}
    return [index.get(tuple(a + b for a, b in zip(s, k))) for s in steps]


def dense_represent(P, orb, f):
    D = len(orb)
    hbar = float(orb.hbar)
    M = np.zeros((D, D), dtype=complex)
    ys = np.array([[float(c) for c in p] for p in points(orb)])
    for k, coeff in f.modes:
        targets = step_targets(orb, k)
        rows = [i for i, t in enumerate(targets) if t is not None]
        if not rows:
            continue
        cols = [ys[rows, i] for i in range(f.n)]
        with np.errstate(all="ignore"):
            re = ex.evaluate(coeff.re, hbar, cols)
            im = ex.evaluate(coeff.im, hbar, cols)
        re = np.broadcast_to(np.atleast_1d(re), (len(rows),))
        im = np.broadcast_to(np.atleast_1d(im), (len(rows),))
        for out, i in enumerate(rows):
            M[i, targets[i]] += re[out] + 1j * im[out]
    return M


def dense_spectrum(matrix):
    scale = max(np.abs(matrix).max(), 1.0)
    if np.allclose(matrix, matrix.conj().T, rtol=0, atol=1e-12 * scale):
        return np.sort(np.linalg.eigvalsh(matrix))
    vals = np.linalg.eigvals(matrix)
    return vals[np.lexsort((vals.imag, vals.real))]


def casimir_by_convolve(P, hbar):
    """Largest |c_i - 1/4| of the invariant, point by point with `convolve`."""
    orb = gr.orbit(P, hbar, (hbar / 2,))
    x3, xp, xm = mr.sphere_x3(), mr.sphere_xplus(), mr.sphere_xminus()
    worst = 0.0
    for u in points(orb):
        val = al.convolve(P, x3, x3, hbar, u, (0,))
        val += 0.5 * (al.convolve(P, xp, xm, hbar, u, (0,))
                      + al.convolve(P, xm, xp, hbar, u, (0,)))
        worst = max(worst, abs(val - 0.25))
    return worst


def operator(P, hbar, y0, modes):
    orb = gr.orbit(P, hbar, y0)
    return mr.represent(P, orb, al.element(P.n, modes)), orb


def two_point(modes):
    """An operator on the sphere orbit {1/4, 3/4}: entry (0, 1) is mode 1 at
    1/4, entry (1, 0) is mode -1 at 3/4."""
    return operator(SPHERE, F(1, 2), (F(1, 4),), modes)[0]


def test_spectrum_near_hermitian_uses_general_solver():
    # off by 1e-6 relative: not Hermitian, eigenvalues +-sqrt(1 + 1e-6)
    eigs = mr.spectrum(two_point({1: "1", -1: "1 + 1/1000000"}))
    expected = np.sqrt(1 + 1e-6)
    np.testing.assert_allclose(eigs.real, [-expected, expected], rtol=1e-14)


def test_spectrum_hermitian_is_real_and_sorted():
    op = two_point({0: "2", 1: ("0", "1"), -1: ("0", "-1")})
    np.testing.assert_array_equal(op.dense(), [[2, 1j], [-1j, 2]])
    eigs = mr.spectrum(op)
    assert np.isrealobj(eigs)
    np.testing.assert_allclose(eigs, [1, 3], rtol=1e-14)


@pytest.mark.parametrize("P", [SPHERE, SQUARE, CP2], ids=["sphere", "square", "cp2"])
def test_dense_equals_dense_oracle_bit_for_bit(P):
    rng = random.Random(29)
    for _ in range(15):
        f = su.random_element(P, rng, max_mode=2, n_modes=3, allow_h=True)
        hbar = F(1, rng.choice((5, 8, 13)))
        orb = gr.orbit(P, hbar, su.random_interior_point(P, rng))
        op = mr.represent(P, orb, f)
        assert op.dense().tobytes() == dense_represent(P, orb, f).tobytes()
        for k, (values, targets) in op.modes.items():
            assert values.shape == targets.shape == (len(orb),)
            assert np.all(values[targets < 0] == 0)


def test_represent_names_the_singular_point():
    # y1^200 overflows past y1 ~ 34.6: arrays read inf there, and the
    # point-by-point re-scan must report it, not raise OverflowError
    interval_1000 = pt.polytope_from_dict({"n": 1, "facets": [
        {"normal": [1], "offset": "0"}, {"normal": [-1], "offset": "-1000"}]})
    for P, hbar, y0, coeff, message in [
            (SPHERE, F(1, 4), (F(1, 8),), "1/(y1 - 3/8)",
             r"orbit point \(3/8\): division by zero"),
            (interval_1000, F(100), (F(50),), "y1^200",
             r"orbit point \(50\): evaluation overflows")]:
        orb = gr.orbit(P, hbar, y0)
        with pytest.raises(EvalDomainError, match=message):
            mr.represent(P, orb, al.element(1, {0: coeff}))


ATOL_ENTRY = F(1e-12)                            # atol at scale 1
ABOVE_ATOL = F(float(np.nextafter(1e-12, 1.0)))

SPECTRUM_CASES = {
    # the repeated values come in pairs (y - 1/2)^2 = (1/2 - y)^2
    "diagonal-repeated": (SPHERE, F(1, 20), (F(1, 40),), {0: "(y1 - 1/2)^2"}),
    # shifts (1,0), (0,1), (1,-1) all pair positively with (2, 1)
    "acyclic-non-hermitian": (CP2, F(1, 12), (F(1, 24), F(1, 24)), {
        (0, 0): ("y1 - y2^2", "y1*y2 - 1/5"), (1, 0): "h*(y1 + 1)",
        (0, 1): ("y2 - 1/3", "y1"), (1, -1): "2*y1*y2"}),
    "cyclic-non-hermitian": (SPHERE, F(1, 16), (F(1, 32),),
                             {0: "y1", 1: "2*y1", -1: "y1"}),
    "hermitian-banded": (SPHERE, F(1, 30), (F(1, 60),), {
        0: "y1 - 1/2", 1: "sqrt(y1*(1 - y1))",
        -1: "sqrt((y1 - h)*(1 - (y1 - h)))"}),
    "hermitian-banded-cp2": (CP2, F(1, 15), (F(1, 30), F(1, 30)), {
        (0, 0): "y1 + y2^2", (0, 1): "y1*y2 + 1/3", (0, -1): "y1*(y2 - h) + 1/3"}),
    "near-hermitian": (SPHERE, F(1, 10), (F(1, 20),),
                       {1: "1", -1: "1 + 1/1000000"}),
    "entry-at-atol": (SPHERE, F(1, 2), (F(1, 4),), {0: "y1", -1: ATOL_ENTRY}),
    "entry-above-atol": (SPHERE, F(1, 2), (F(1, 4),), {0: "y1", -1: ABOVE_ATOL}),
}


@pytest.mark.parametrize("case", list(SPECTRUM_CASES))
def test_spectrum_equals_dense_oracle_bit_for_bit(case):
    P, hbar, y0, modes = SPECTRUM_CASES[case]
    op, orb = operator(P, hbar, y0, modes)
    M = dense_represent(P, orb, al.element(P.n, modes))
    got, want = mr.spectrum(op), dense_spectrum(M)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_spectrum_atol_boundary_decides_hermitian():
    # |M[1,0] - conj(M[0,1])| equal to atol is Hermitian (real spectrum);
    # one ulp more is not
    assert np.isrealobj(mr.spectrum(two_point({0: "y1", -1: ATOL_ENTRY})))
    assert np.iscomplexobj(mr.spectrum(two_point({0: "y1", -1: ABOVE_ATOL})))


@pytest.mark.parametrize("case", ["diagonal-repeated", "acyclic-non-hermitian",
                                  "entry-above-atol"])
def test_diagonal_and_triangular_spectra_skip_the_eigensolvers(case, monkeypatch):
    P, hbar, y0, modes = SPECTRUM_CASES[case]
    op, _ = operator(P, hbar, y0, modes)
    want = dense_spectrum(op.dense())

    def refuse(*args, **kwargs):
        raise AssertionError("eigensolver called")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(mr.OrbitOperator, "dense", refuse)
    assert mr.spectrum(op).tobytes() == want.tobytes()


def chain_modes(P, rng, hbar, y0, l, scale=1):
    """Random real d e_0 + c e_l + c(y - h l) e_-l, Hermitian up to rounding.
    c vanishes exactly on two neighbouring rows of the last coordinate, so
    chains along e_n split and one of them is a single point."""
    n = P.n
    ys = [f"y{i + 1}" for i in range(n)]
    back = [f"(y{i + 1} + {-c}*h)" if c < 0 else f"(y{i + 1} - {c}*h)"
            for i, c in enumerate(l)]
    z = y0[-1] + hbar * rng.randint(1, 4)
    a = [rng.randint(-3, 3) or 1 for _ in range(4)]
    d = f"{scale}*({a[0]} + {a[1]}*{ys[0]} + {a[2]}*{ys[-1]}^2)"

    def coupling(y, zeros):
        return (f"{scale}*({a[3]} + {y[0]}*{y[-1]})"
                + "".join(f"*({ys[-1]} - {zero})" for zero in zeros))
    zeros = (z, z + hbar)
    shift = hbar * l[-1]
    return {(0,) * n: d,
            l: coupling(ys, zeros),
            tuple(-c for c in l): coupling(back, [zero + shift for zero in zeros])}


CHAIN_POLYTOPES = {"sphere": (SPHERE, (1,)), "square": (SQUARE, (0, 1)),
                   "cp2": (CP2, (0, 1))}


@pytest.mark.parametrize("name", list(CHAIN_POLYTOPES))
def test_real_chain_spectra_equal_dense_oracle_without_the_dense_matrix(
        name, monkeypatch):
    P, l = CHAIN_POLYTOPES[name]
    rng = random.Random(41)

    def refuse(self):
        raise AssertionError("dense matrix built")

    monkeypatch.setattr(mr.OrbitOperator, "dense", refuse)
    for _ in range(8):
        hbar = F(1, rng.choice((9, 14, 23, 40)))
        # the lowest point as base point: orbit order lists each chain in a row
        y0 = tuple(hbar * F(rng.randint(1, 7), 8) for _ in range(P.n))
        modes = chain_modes(P, rng, hbar, y0, l)
        op, orb = operator(P, hbar, y0, modes)
        M = dense_represent(P, orb, al.element(P.n, modes))
        # the couplings split the orbit into chains, one a single point
        cut = np.diag(M, -1) == 0
        assert np.any(cut[1:] & cut[:-1]) and not np.all(cut)
        assert mr.spectrum(op).tobytes() == dense_spectrum(M).tobytes()


def spy_on_dense(monkeypatch):
    calls = []
    dense = mr.OrbitOperator.dense

    def spy(self):
        calls.append(self.dim)
        return dense(self)

    monkeypatch.setattr(mr.OrbitOperator, "dense", spy)
    return calls


def test_chain_path_keeps_bits_when_one_chain_is_far_smaller(monkeypatch):
    # LAPACK would rescale the tiny first chain on its own, not inside the
    # matrix: solved alone, its eigenvalues differ in the last bits
    P, l = CHAIN_POLYTOPES["sphere"]
    hbar, y0 = F(1, 20), (F(1, 40),)
    op, _ = operator(P, hbar, y0, chain_modes(P, random.Random(5), hbar, y0, l))
    first = np.flatnonzero(np.diag(op.dense(), -1) == 0)[0] + 1
    scale = np.where(np.arange(op.dim) < first, 2.0 ** -500, 1.0)
    tiny = mr.OrbitOperator(op.dim, {k: (scale * v, t) for k, (v, t) in op.modes.items()})
    want = dense_spectrum(tiny.dense())
    calls = spy_on_dense(monkeypatch)
    assert mr.spectrum(tiny).tobytes() == want.tobytes()
    assert calls == [op.dim]


@pytest.mark.parametrize("case", ["complex", "scaled-2^500", "scaled-2^-500"])
def test_hermitian_operators_off_the_chain_path_stay_dense(case, monkeypatch):
    rng = random.Random(17)
    if case == "complex":
        P, hbar, y0 = SPHERE, F(1, 2), (F(1, 4),)
        modes = {0: "2", 1: ("0", "1"), -1: ("0", "-1")}
    else:
        P, hbar, y0 = SQUARE, F(1, 12), (F(1, 24), F(1, 24))
        modes = chain_modes(P, rng, hbar, y0, (0, 1), scale=case[len("scaled-"):])
    op, orb = operator(P, hbar, y0, modes)
    M = dense_represent(P, orb, al.element(P.n, modes))
    calls = spy_on_dense(monkeypatch)
    got = mr.spectrum(op)
    assert np.isrealobj(got)
    assert got.tobytes() == dense_spectrum(M).tobytes()
    assert calls == [len(orb)]


def line_order(orb, l):
    """The rows in line order, from the steps alone: each point keyed by the
    orbit index of the first point of its line along l, then by its
    distance from that point."""
    steps = step_tuples(orb)
    index = {s: i for i, s in enumerate(steps)}

    def key(s):
        back = 0
        while (prev := tuple(a - c for a, c in zip(s, l))) in index:
            s, back = prev, back + 1
        return index[s], back
    return sorted(range(len(steps)), key=lambda i: key(steps[i]))


def refuse_dense(monkeypatch):
    def refuse(self):
        raise AssertionError("dense matrix built")

    monkeypatch.setattr(mr.OrbitOperator, "dense", refuse)


@pytest.mark.parametrize("l", [(1, 0), (1, -1)], ids=["cp2-1,0", "cp2-1,-1"])
def test_chains_across_orbit_order_give_the_line_ordered_dense_bits(l, monkeypatch):
    hbar, y0 = F(1, 15), (F(1, 30), F(1, 30))
    modes = chain_modes(CP2, random.Random(17), hbar, y0, l)
    op, orb = operator(CP2, hbar, y0, modes)
    M = dense_represent(CP2, orb, al.element(2, modes))
    # orbit order lists the lines along l with gaps: no chain there
    assert np.any(np.triu(M, 2) != 0)
    order = line_order(orb, l)
    refuse_dense(monkeypatch)
    got = mr.spectrum(op)
    assert got.tobytes() == dense_spectrum(M[np.ix_(order, order)]).tobytes()
    # and the orbit-order dense spectrum within 16 ulps of the largest entry
    # (6.7 and 6.1 measured)
    eps = np.finfo(float).eps
    assert np.abs(got - dense_spectrum(M)).max() <= 16 * eps * np.abs(M).max()


SCHWINGER = al.load_observable(GOLDEN / "obs_cp2_schwinger_e02.json", 2)


@pytest.mark.parametrize("N", [40, 100])
def test_schwinger_spectrum_takes_the_chain_path_above_the_dense_cap(N, monkeypatch):
    # E_02 + E_02* on the orbit through (h/2, h/2), 1/h = N + 3/2: the
    # points (i, j) with i + j <= N, and N + 1 chains along y1 of at most
    # N + 1 points; the spectrum is h(a - b) for a + b <= N (Sym^N)
    hbar = F(2, 2 * N + 3)
    orb = gr.orbit(CP2, hbar, (hbar / 2, hbar / 2))
    assert len(orb) == (N + 1) * (N + 2) // 2
    op = mr.represent(CP2, orb, SCHWINGER)
    refuse_dense(monkeypatch)
    monkeypatch.setattr(mr, "DENSE_CAP_BYTES", 16 * (N + 1) ** 2)
    assert 16 * len(orb) ** 2 > mr.DENSE_CAP_BYTES
    exact = np.sort([float(hbar) * (a - b) for a in range(N + 1) for b in range(N + 1 - a)])
    np.testing.assert_allclose(mr.spectrum(op), exact, rtol=0, atol=1e-13)


def test_spectra_point_inside_a_chain_gives_the_line_ordered_dense_bits(
        tmp_path, monkeypatch):
    # y0 = (1/4, 1/4) sits inside its chain along y2, and orbit order
    # lists it first
    obs = GOLDEN / "obs_cp2_herm.json"
    hbar, y0 = F(1, 20), (F(1, 4), F(1, 4))
    f = al.load_observable(obs, 2)
    orb = gr.orbit(CP2, hbar, y0)
    order = line_order(orb, (0, 1))
    assert order[0] != 0
    want = dense_spectrum(dense_represent(CP2, orb, f)[np.ix_(order, order)])
    refuse_dense(monkeypatch)
    out = tmp_path / "spectra.csv"
    assert cli.main(["quantize", "spectra", str(DATA / "cp2.json"),
                     "--obs", str(obs), "--hbar", "1/20", "--point", "1/4,1/4",
                     "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert np.array([float(row[3]) for row in rows]).tobytes() == want.tobytes()


def test_chain_path_refuses_its_longest_chain_over_the_cap(monkeypatch):
    monkeypatch.setattr(mr, "DENSE_CAP_BYTES", 16 * 5 ** 2)
    P, l = CHAIN_POLYTOPES["cp2"]
    hbar, y0 = F(1, 6), (F(1, 12), F(1, 12))
    op, orb = operator(P, hbar, y0, {(0, 0): "y1", (0, 1): "1", (0, -1): "1"})
    assert len(orb) == 15       # chains of 5, 4, 3, 2 and 1 points
    assert mr.spectrum(op).shape == (15,)
    hbar, y0 = F(1, 7), (F(1, 14), F(1, 14))
    op, _ = operator(P, hbar, y0, {(0, 0): "y1", (0, 1): "1", (0, -1): "1"})
    with pytest.raises(DomainError, match="dimension 6 needs 576 bytes"):
        mr.spectrum(op)


def test_dense_refuses_matrices_over_the_cap():
    mr.OrbitOperator(2, {}).dense()
    D = 11_586                       # 16 * D^2 = 2,147,766,336 > 2^31
    with pytest.raises(DomainError, match=f"dimension {D} needs 2147766336 bytes"):
        mr.OrbitOperator(D, {}).dense()
    assert 16 * (D - 1) ** 2 <= mr.DENSE_CAP_BYTES


def test_operator_product_matches_dense_product():
    # row i of mode k of the product is the dense product's entry in the
    # column of u_i + hbar*k; together the pair sums k give the whole
    # product, and a k that no mode pair reaches is zero
    rng = random.Random(3)
    orb = gr.orbit(CP2, F(1, 9), (F(1, 18), F(5, 18)))
    for _ in range(5):
        f = su.random_element(CP2, rng, max_mode=2, n_modes=3, allow_h=True)
        g = su.random_element(CP2, rng, max_mode=2, n_modes=3, allow_h=True)
        A, B = mr.represent(CP2, orb, f), mr.represent(CP2, orb, g)
        want = A.dense() @ B.dense()
        scale = max(np.abs(want).max(), 1.0)
        got = np.zeros_like(want)
        for k in {tuple(a + b for a, b in zip(l, m)) for l in A.modes for m in B.modes}:
            targets = np.array([-1 if j is None else j for j in step_targets(orb, k)])
            rows = np.flatnonzero(targets >= 0)
            values = A.product_mode(B, k)
            assert not values[targets < 0].any()
            got[rows, targets[rows]] = values[rows]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * scale)
        assert not A.product_mode(B, (9, -9)).any()


@pytest.mark.parametrize("q", [4, 10, 50, 200])
def test_casimir_defect_is_half_hbar_minus_hbar_squared(q):
    # on the orbit of hbar/2 the represented invariant is diagonal with
    # largest deviation hbar/2 - hbar^2 from 1/4
    h = F(1, q)
    exact = float(h / 2 - h * h)
    assert mr.casimir_defect(SPHERE, h) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("q", [4, 11, 50, 120])
def test_casimir_defect_equals_pointwise_convolution(q):
    h = F(1, q)
    assert mr.casimir_defect(SPHERE, h) == casimir_by_convolve(SPHERE, h)


def test_casimir_defect_needs_unit_interval():
    with pytest.raises(DomainError):
        mr.casimir_defect(pt.square(), F(1, 4))


def test_represent_is_star_homomorphism_on_cp2_orbit():
    rng = random.Random(13)
    hbar = F(1, 7)
    orb = gr.orbit(CP2, hbar, (F(1, 14), F(3, 14)))
    assert len(orb) == 21
    for _ in range(5):
        f = su.random_element(CP2, rng, allow_h=True)
        g = su.random_element(CP2, rng, allow_h=True)
        Mf = mr.represent(CP2, orb, f).dense()
        Mg = mr.represent(CP2, orb, g).dense()
        direct = np.zeros((len(orb), len(orb)), dtype=complex)
        ks = {tuple(a + b for a, b in zip(l, m))
              for l, _ in f.modes for m, _ in g.modes}
        for k in ks:
            for i, j in enumerate(step_targets(orb, k)):
                if j is not None:
                    direct[i, j] += al.convolve(CP2, f, g, hbar,
                                                orb.point(i), k)
        scale = max(np.abs(direct).max(), 1.0)
        np.testing.assert_allclose(Mf @ Mg, direct, rtol=0, atol=1e-12 * scale)
        adj = mr.represent(CP2, orb, al.involution(f)).dense()
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


def test_an_exact_matrix_sweep_returns_its_last_value_as_the_scalar_route_does():
    # the renormalized entry does not depend on hbar, so both routes call the
    # sweep "exact" and return its last value, not a Richardson recombination
    f = al.element(2, {(0, 1): "1 - 1/2*y1*y2 + y1^2"})
    g = al.element(2, {(0, 0): ("3/2*y2 + 2/3*y1*y2 + y1^2", "-2/3*y2")})
    y, k, hs = (F(1, 8), F(1, 4)), (0, 1), [F(1, 8), F(1, 16), F(1, 32)]
    orb = gr.orbit(CP2, hs[-1], y)
    Fop, Gop = mr.represent(CP2, orb, f), mr.represent(CP2, orb, g)
    last = ((complex(Fop.product_mode(Gop, k)[0]) - complex(Gop.product_mode(Fop, k)[0]))
            / (1j * float(hs[-1])))
    assert mr.bracket_via_matrices(CP2, f, g, y, k, hs) == last
    lim = al.numeric_bracket_limit(CP2, f, g, y, k, hs)
    assert lim.order == "exact" and lim.estimate == last


def test_bracket_via_matrices_names_a_missing_arrow_in_p_over_q():
    # the sphere's vertex y = 0 admits no arrow of mode 1
    f = al.element(1, {0: "1"})
    with pytest.raises(DomainError,
                       match=r"^arrow \(hbar=1/4, y=\(0\), k=\(1,\)\) is not in"):
        mr.bracket_via_matrices(SPHERE, f, f, (F(0),), (1,), [F(1, 4), F(1, 8)])


def test_operator_algebra_never_writes_into_the_orbit_memos():
    # the orbit through hbar/2 lists its points in ascending order, so the
    # real symmetric tridiagonal f takes the chain path
    orb = gr.orbit(SPHERE, F(1, 10), (F(1, 20),))
    f = al.element(1, {0: "y1", 1: "1", -1: "1"})
    g = al.element(1, {1: "y1", 0: "h"})
    Fop, Gop = mr.represent(SPHERE, orb, f), mr.represent(SPHERE, orb, g)
    memos = {k: orb.targets(k) for k in [(0,), (1,), (-1,)]}
    assert all(Fop.modes[k][1] is t for k, t in memos.items())   # shared, not copied
    before = {k: t.copy() for k, t in memos.items()}
    points = orb.points.copy()
    for k in [(0,), (1,), (2,), (-1,)]:
        Fop.product_mode(Gop, k)
        Gop.product_mode(Fop, k)
    assert mr._chain_spectrum(Fop) is not None
    for op in (Fop, Gop):
        mr.spectrum(op)
    for k, t in memos.items():
        assert orb.targets(k) is t and not t.flags.writeable
        assert np.array_equal(t, before[k]) and t.tolist() == [
            -1 if j is None else j for j in step_targets(orb, k)]
    assert not orb.points.flags.writeable
    assert np.array_equal(orb.points.view(np.int64), points.view(np.int64))


def random_coefficient_tree(rng, depth=0):
    """A random tree over (h, y1, y2) using every node type: the four
    operations, unary minus, integer powers of both signs, sin, cos, exp and
    sqrt (of a square plus a constant, so it stays real)."""
    if depth > 3 or rng.random() < 0.25:
        return ex.parse(rng.choice(["y1", "y2", "h", "3/7", "-2"]), 2)
    a = random_coefficient_tree(rng, depth + 1)
    kind = rng.choice(["+", "-", "*", "/", "neg", "pow", "sin", "cos", "exp", "sqrt"])
    if kind in "+-*/":
        b = random_coefficient_tree(rng, depth + 1)
        return {"+": ex.Add, "-": ex.Sub, "*": ex.Mul, "/": ex.Div}[kind](a, b)
    if kind == "neg":
        return ex.Neg(a)
    if kind == "pow":
        return ex.Pow(a, rng.choice((-3, -2, -1, 2, 3, 5, 7)))
    if kind == "sqrt":
        return ex.Fun("sqrt", ex.Add(ex.Mul(a, a), ex.Const(F(1, 5))))
    return ex.Fun(kind, a)


# the box [-3, 3] x [1/20, 4]: at hbar 1/4, -1/8 or 1/5 the orbit of an
# interior point covers it, with about 380 to 1,500 points
BOX = pt.DelzantPolytope(2, ((1, 0), (0, 1), (-1, 0), (0, -1)),
                         (F(-3), F(1, 20), F(-3), F(-4)))


def test_evaluate_rows_on_a_subset_equals_the_superset_bit_for_bit():
    # `convolve_orbit` evaluates a coefficient of f on each term's own rows,
    # so terms of one mode of f evaluate it on overlapping sets of rows; a
    # row gets the same bits from each only if a subset of rows evaluates to
    # the same bits as the matching rows of a superset, at the rows' points
    # and at their heads
    rng = random.Random(2024)
    checked = 0
    for _ in range(300):
        coeff = ex.ComplexExpr(random_coefficient_tree(rng), random_coefficient_tree(rng))
        hbar = rng.choice((F(1, 4), F(-1, 8), F(1, 5)))
        y0 = (F(rng.randint(-290, 290), 100), F(rng.randint(6, 399), 100))
        orb = gr.orbit(BOX, hbar, y0)
        shift = rng.choice((None, np.array([1, 0]), np.array([-2, 3])))
        S = np.array(sorted(rng.sample(range(len(orb)), rng.randint(1, min(len(orb), 257)))))
        R = np.array(sorted(rng.sample(S.tolist(), rng.randint(1, len(S)))))
        try:
            sup = mr._evaluate_rows(coeff, (1, 0), orb, S, shift)
        except EvalDomainError:
            continue        # singular or not finite somewhere on S
        sub = mr._evaluate_rows(coeff, (1, 0), orb, R, shift)
        at = np.searchsorted(S, R)
        for a, b in zip(sub, sup):
            assert np.array_equal(a.view(np.int64), b[at].view(np.int64)), coeff
        checked += 1
    assert checked >= 150


def test_represent_and_convolve_orbit_name_the_same_singular_point():
    # the sphere orbit 1/8, 3/8, 5/8, 7/8 at hbar 1/4: f is singular at 7/8,
    # a tail of the product f.one, and only a head of the product e_1.f
    orb = gr.orbit(SPHERE, F(1, 4), (F(1, 8),))
    f = al.element(1, {0: "1/(y1 - 7/8)"})
    message = (r"^coefficient of mode \(0,\) at orbit point \(7/8\): "
               r"division by zero in subexpression '1/\(y1 - 7/8\)'$")
    for call in (lambda: mr.represent(SPHERE, orb, f),
                 lambda: mr.convolve_orbit(SPHERE, f, al.element(1, {0: "1"}), orb),
                 lambda: mr.convolve_orbit(SPHERE, al.element(1, {1: "1"}), f, orb)):
        with pytest.raises(EvalDomainError, match=message):
            call()


def test_convolve_orbit_refuses_a_hand_built_orbit_at_hbar_zero():
    # the orbit's face bounds divide by |hbar|; this raised ZeroDivisionError
    orb = gr.Orbit(Fraction(0), (Fraction(1, 2),), np.zeros((1, 1), dtype=np.int64))
    f = al.element(1, {0: "1"})
    with pytest.raises(DomainError, match=r"^orbits are defined for hbar != 0$"):
        mr.convolve_orbit(pt.interval(), f, f, orb)


def test_convolve_orbit_product_past_float_range_names_the_point():
    # each factor is finite, 10^200 * 10^200 is not; the scalar product
    # fails at the same point with the same text
    orb = gr.orbit(SPHERE, F(1, 4), (F(1, 8),))
    f = al.element(1, {1: "10^200"})
    g = al.element(1, {-1: "10^200*y1"})
    message = r"^product at mode \(0,\) is not finite at \(1/8\), hbar = 1/4$"
    with pytest.raises(EvalDomainError, match=message):
        mr.convolve_orbit(SPHERE, f, g, orb)
    with pytest.raises(EvalDomainError, match=message):
        al.convolve(SPHERE, f, g, F(1, 4), (F(1, 8),), (0,))
    # from 7/8 f's arrow leaves the polytope: no term, so no overflow
    assert al.convolve(SPHERE, f, g, F(1, 4), (F(7, 8),), (0,)) == 0
