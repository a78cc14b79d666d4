"""Exact-sequence data, moment maps, the radial section, characters."""
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from torikit import delzant as dz
from torikit import intlat
from torikit import polytope as pt
from torikit.errors import DomainError, StratumError

F = Fraction


def test_orthant_system_has_no_reduction_torus():
    # d = 0: the level map has no component and every point is on the level
    sys = dz.build_system(pt.orthant(2))
    assert sys.d == 0 and sys.B.shape == (2, 0)
    assert dz.Jd(sys, [1, 1j]).shape == (0,)
    assert dz.reduced_level_defect(sys, [1, 1j]) == 0.0


def test_build_interval_system():
    sys = dz.build_system(pt.interval())
    assert sys.A.shape == (1, 2) and list(sys.A[0]) == [1, -1]
    assert sys.d == 1
    v = [int(c) for c in sys.B[:, 0]]
    assert v in ([1, 1], [-1, -1])


def test_build_projective_system():
    sys = dz.build_system(pt.projective_space(2))
    assert sys.A.shape == (2, 3)
    assert [list(r) for r in sys.A] == [[1, 0, -1], [0, 1, -1]]
    v = [int(c) for c in sys.B[:, 0]]
    assert v in ([1, 1, 1], [-1, -1, -1])


def test_build_square_system_kernel_rank_two():
    sys = dz.build_system(pt.square())
    assert sys.d == 2
    B = [[int(v) for v in sys.B[:, c]] for c in range(2)]
    # kernel spanned by (1,0,1,0) and (0,1,0,1) (up to basis change)
    assert intlat.row_space_equal(B, [(1, 0, 1, 0), (0, 1, 0, 1)])


def test_build_rejects_unscreened_input():
    bad = pt.DelzantPolytope(2, ((1, 0), (0, 1), (-1, -2)), (F(0), F(0), F(-1)))
    with pytest.raises(DomainError):
        dz.build_system(bad)


def test_J0_at_origin_is_offsets():
    sys = dz.build_system(pt.interval())
    assert np.allclose(dz.J0(sys, np.zeros(2, dtype=complex)), [0.0, -1.0])


def test_J0_Jd_interval_example():
    sys = dz.build_system(pt.interval())
    z = np.array([math.sqrt(2), 0.0], dtype=complex)
    assert np.allclose(dz.J0(sys, z), [1.0, -1.0])
    assert np.allclose(dz.Jd(sys, z), [0.0])


def test_sigma_interval_midpoint():
    sys = dz.build_system(pt.interval())
    z = dz.sigma(sys, (F(1, 2),))
    assert np.allclose(z, [1.0, 1.0])
    assert dz.reduced_level_defect(sys, z) < 1e-15


def test_sigma_vanishes_on_active_facet():
    sys = dz.build_system(pt.interval())
    assert dz.sigma(sys, (F(0),))[0] == 0
    assert dz.sigma(sys, (F(1),))[1] == 0


def test_sigma_outside_raises():
    sys = dz.build_system(pt.interval())
    with pytest.raises(DomainError, match=r"^point \(3/2\) lies outside"):
        dz.sigma(sys, (F(3, 2),))


def test_section_identity_exact_rationals():
    rng = random.Random(5)
    for P in (pt.interval(), pt.square(), pt.projective_space(2)):
        sys = dz.build_system(P)
        for _ in range(25):
            y = tuple(F(rng.randint(0, 16), 16) for _ in range(P.n))
            if not P.contains(y):
                continue
            sq = dz.sigma_squared(sys, y)
            # J0(sigma(y)) = A^T y and J_d(sigma(y)) = 0, exactly
            assert dz.J0_squared(sys, sq) == tuple(
                P.pairing(y, j) for j in range(P.n_facets))
            assert all(v == 0 for v in dz.Jd_squared(sys, sq))


def test_k_sigma_trivial_on_section_image():
    sys = dz.build_system(pt.projective_space(2))
    z = dz.sigma(sys, (F(1, 4), F(1, 4)))
    for k in [(1, 0), (0, 1), (2, -3)]:
        assert abs(dz.k_sigma_ambient(sys, z, k) - 1) < 1e-14


def test_k_sigma_unit_modulus():
    rng = random.Random(8)
    sys = dz.build_system(pt.square())
    z = dz.sigma(sys, (F(1, 4), F(2, 3)))
    for _ in range(20):
        t = [rng.uniform(0, 2 * math.pi) for _ in range(sys.d)]
        moved = dz.act_subtorus(sys, t, z)
        val = dz.k_sigma_ambient(sys, moved, (rng.randint(-3, 3), rng.randint(-3, 3)))
        assert abs(abs(val) - 1) < 1e-12


def test_k_sigma_subtorus_invariance():
    rng = random.Random(12)
    for P in (pt.interval(), pt.square(), pt.projective_space(2)):
        sys = dz.build_system(P)
        y = tuple(F(1, 5) for _ in range(P.n))
        z = dz.sigma(sys, y)
        for _ in range(30):
            k = tuple(rng.randint(-3, 3) for _ in range(P.n))
            t = [rng.uniform(0, 2 * math.pi) for _ in range(sys.d)]
            moved = dz.act_subtorus(sys, t, z)
            err = abs(dz.k_sigma_ambient(sys, moved, k)
                      - dz.k_sigma_ambient(sys, z, k))
            assert err <= 1e-12


def test_k_sigma_torus_weights_match_duality():
    # acting through the splitting multiplies the character by e^{i<k,theta>}
    rng = random.Random(14)
    for P in (pt.interval(), pt.projective_space(2)):
        sys = dz.build_system(P)
        y = tuple(F(1, 3) for _ in range(P.n))
        z = dz.sigma(sys, y)
        for _ in range(30):
            k = tuple(rng.randint(-2, 2) for _ in range(P.n))
            theta = [rng.uniform(0, 2 * math.pi) for _ in range(P.n)]
            moved = dz.act_torus(sys, theta, z)
            expected = complex(math.cos(sum(a * b for a, b in zip(k, theta))),
                               math.sin(sum(a * b for a, b in zip(k, theta))))
            got = dz.k_sigma_ambient(sys, moved, k) / dz.k_sigma_ambient(sys, z, k)
            assert abs(got - expected) <= 1e-12


def test_k_sigma_stratum_error():
    sys = dz.build_system(pt.interval())
    z = dz.sigma(sys, (F(0),))
    with pytest.raises(StratumError):
        dz.k_sigma_ambient(sys, z, (1,))
    # zero mode is fine everywhere
    assert dz.k_sigma_ambient(sys, z, (0,)) == 1


def test_exactness_invariants():
    for P in (pt.interval(), pt.square(), pt.projective_space(2)):
        sys = dz.build_system(P)
        assert (sys.A @ sys.B == np.zeros((sys.n, sys.d), dtype=object)).all()
        _, D, _ = intlat.smith_normal_form(sys.A)
        assert all(D[i, i] == 1 for i in range(sys.n))
        _, DB, _ = intlat.smith_normal_form(sys.B)
        rank_B = sum(1 for i in range(min(DB.shape)) if DB[i, i] != 0)
        assert rank_B == sys.d
        assert (sys.A @ sys.splitting == intlat.int_identity(sys.n)).all()


def test_reduced_level_defect():
    sys = dz.build_system(pt.projective_space(2))
    z = dz.sigma(sys, (F(1, 3), F(1, 5)))
    assert dz.reduced_level_defect(sys, z) < 1e-15
    off = np.array([1.0, 1.0, 5.0], dtype=complex)
    assert dz.reduced_level_defect(sys, off) > 1
