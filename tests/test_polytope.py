"""Polytope predicates, screening, faces, and the JSON schema."""
import itertools
import json
import math
import os
import random
from fractions import Fraction
from pathlib import Path

import pytest

from torikit import cli
from torikit import groupoid as gr
from torikit import intlat
from torikit import polytope as pt
from torikit.errors import DimensionError, DomainError, FormatError


F = Fraction


def test_check_interval_passes():
    report = pt.check_delzant(pt.interval())
    assert report.ok
    assert sorted(report.vertices) == [(F(0),), (F(1),)]
    assert report.bounded


def test_check_square_passes():
    report = pt.check_delzant(pt.square())
    assert report.ok and len(report.vertices) == 4


def test_check_det2_triangle_fails():
    # the vertex where (0,1) and (-1,-2) meet has determinant 2
    bad = pt.DelzantPolytope(2, ((1, 0), (0, 1), (-1, -2)), (F(0), F(0), F(-1)))
    report = pt.check_delzant(bad)
    assert not report.ok
    assert any("determinant" in v for v in report.violations)


def test_check_nonprimitive_normal_fails():
    bad = pt.DelzantPolytope(1, ((2,), (-1,)), (F(0), F(-1)))
    assert any("primitive" in v for v in pt.check_delzant(bad).violations)


def test_check_unbounded_fails_when_compact_expected():
    half = pt.DelzantPolytope(1, ((1,),), (F(0),))
    report = pt.check_delzant(half)
    assert not report.ok
    assert any("unbounded" in v for v in report.violations)


def test_check_orthant_noncompact_flag_skips_boundedness():
    report = pt.check_delzant(pt.orthant(2))
    assert report.ok and report.bounded is None


def test_isotropy_interior_point_is_free():
    assert pt.isotropy_lattice(pt.interval(), (F(1, 2),)) == []


def test_isotropy_endpoint():
    assert pt.isotropy_lattice(pt.interval(), (F(0),)) == [(1,)]


def test_isotropy_projective_vertex():
    C = pt.projective_space(2)
    assert pt.isotropy_lattice(C, (0, 0)) == [(1, 0), (0, 1)]


def test_isotropy_outside_raises():
    with pytest.raises(DomainError):
        pt.isotropy_lattice(pt.interval(), (F(2),))


def test_in_delta_k_examples():
    P = pt.interval()
    assert pt.in_delta_k(P, (0,), (0,))            # zero mode everywhere
    assert not pt.in_delta_k(P, (0,), (2,))        # active normal pairs with k
    C = pt.projective_space(2)
    assert pt.in_delta_k(C, (0, F(1, 2)), (0, 3))  # edge with normal (1,0)


def test_in_u_k_examples():
    P = pt.interval()
    assert pt.in_u_k(P, (F(1, 2),), (1,))
    assert not pt.in_u_k(P, (0,), (1,))
    assert pt.in_u_k(P, (F(5),), (0,))             # vacuous for k = 0


def rational_grid(P, denom):
    los = [min(v[i] for v in pt.vertices(P)) for i in range(P.n)]
    his = [max(v[i] for v in pt.vertices(P)) for i in range(P.n)]
    axes = [
        [F(t, denom) for t in range(int(los[i] * denom) - 2,
                                    int(his[i] * denom) + 3)]
        for i in range(P.n)
    ]
    return itertools.product(*axes)


@pytest.mark.parametrize("factory", [pt.interval, pt.square,
                                     lambda: pt.projective_space(2)])
def test_delta_k_is_delta_cap_u_k(factory):
    # exhaustive rational grid: membership identity and its consequences
    P = factory()
    modes = list(itertools.product(*[(-2, 0, 1)] * P.n))
    for y in rational_grid(P, 4):
        inside = P.contains(y)
        for k in modes:
            assert pt.in_delta_k(P, y, k) == (inside and pt.in_u_k(P, y, k))
        if inside:
            assert pt.in_delta_k(P, y, tuple([0] * P.n))
            if P.is_interior(y):
                assert pt.isotropy_lattice(P, y) == []
                for k in modes:
                    assert pt.in_delta_k(P, y, k)
            else:
                assert pt.isotropy_lattice(P, y) != []


def test_enumerate_faces_counts():
    assert len(pt.enumerate_faces(pt.interval())) == 3
    assert len(pt.enumerate_faces(pt.square())) == 9
    assert len(pt.enumerate_faces(pt.projective_space(2))) == 7


def test_face_samples_match_active_sets():
    for P in (pt.interval(), pt.square(), pt.projective_space(2)):
        for face in pt.enumerate_faces(P):
            assert P.active_set(face.sample) == face.active
            assert face.dim == P.n - len(face.active)


def test_faces_orthant():
    faces = pt.enumerate_faces(pt.orthant(2))
    assert sorted(f.active for f in faces) == [(), (0,), (0, 1), (1,)]
    for face in faces:
        assert pt.orthant(2).active_set(face.sample) == face.active


def test_json_roundtrip(tmp_path):
    P = pt.projective_space(2)
    doc = pt.polytope_to_dict(P)
    assert doc["facets"][2]["offset"] == "-1"
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    Q = pt.load_polytope(path)
    assert Q == P


def test_json_fractional_offsets():
    doc = {"n": 1, "facets": [{"normal": [1], "offset": "1/3"},
                              {"normal": [-1], "offset": "-2/3"}],
           "compact": True}
    P = pt.polytope_from_dict(doc)
    assert P.offsets == (F(1, 3), F(-2, 3))


UNIT_FACETS = [{"normal": [1], "offset": "0"}, {"normal": [-1], "offset": "-1"}]


def test_json_rejects_float_offsets_and_garbage():
    for doc in [
        {"n": 1, "facets": [{"normal": [1], "offset": 0.5}]},
        {"nope": 1},
        # int() would truncate these floats and accept these bools
        {"n": 1, "facets": [{"normal": [1.5], "offset": "0"}, UNIT_FACETS[1]]},
        {"n": 1.0, "facets": UNIT_FACETS},
        {"n": True, "facets": UNIT_FACETS},
        {"n": 1, "facets": [{"normal": [True], "offset": "0"}, UNIT_FACETS[1]]},
        {"n": 1, "facets": [{"normal": [1], "offset": False}, UNIT_FACETS[1]]},
        # bool("false") is True
        {"n": 1, "facets": UNIT_FACETS, "compact": "false"},
        {"n": 1, "facets": UNIT_FACETS, "compact": 1},
    ]:
        with pytest.raises(FormatError):
            pt.polytope_from_dict(doc)
    with pytest.raises(FormatError):
        pt.load_polytope("/nonexistent/file.json")


def test_require_delzant_raises_on_bad_input():
    bad = pt.DelzantPolytope(2, ((1, 0), (0, 1), (-1, -2)), (F(0), F(0), F(-1)))
    with pytest.raises(DomainError):
        pt.require_delzant(bad)


def test_product_builder():
    S = pt.square()
    assert S.n == 2 and S.n_facets == 4
    assert set(S.normals) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert len(pt.vertices(S)) == 4


# ---------------------------------------------------------------------------
# the integer slack kernel against per-facet Fraction arithmetic

def fraction_slack(P, y, j):
    """Oracle: <y, X_j> - lambda_j in per-facet Fraction arithmetic."""
    return sum(F(a) * b for a, b in zip(y, P.normals[j])) - P.offsets[j]


def fraction_slacks(P, y):
    return [fraction_slack(P, y, j) for j in range(P.n_facets)]


def kernel_polytopes():
    thirds = pt.DelzantPolytope(
        2, ((1, 0), (0, 1), (-1, 0), (0, -1)),
        (F(1, 3), F(-2, 7), F(-5, 3), F(-9, 7)))
    return [pt.interval(), pt.square(), pt.projective_space(2),
            pt.projective_space(3), pt.product(pt.interval(),
                                               pt.projective_space(2)), thirds]


def random_kernel_points(P, rng, count):
    lo, hi = pt.bounding_box(P)
    tiny = F(1, 2 ** 62)
    for _ in range(count):
        y = [F(rng.randint(int(lo[i] * 12) - 3, int(hi[i] * 12) + 3), 12)
             for i in range(P.n)]
        if rng.random() < 0.3:
            y[0] += rng.choice((tiny, -tiny))
        if rng.random() < 0.3:   # a vertex, so that several facets are active
            y = list(rng.choice(pt.vertices(P)))
        hbar = F(rng.randint(-9, 9), rng.choice((1, 5, 16, 2 ** 62)))
        yield tuple(y), hbar


def test_scaled_slacks_match_fraction_oracle():
    rng = random.Random(11)
    for P in kernel_polytopes():
        for y, hbar in random_kernel_points(P, rng, 150):
            s, d, h = pt.scaled_slacks(P, y, hbar)
            assert all(type(v) is int for v in (*s, d, h))
            assert d > 0 and h == d * hbar
            assert all((d * c).denominator == 1 for c in y + P.offsets)
            assert [F(sj, d) for sj in s] == fraction_slacks(P, y)


def test_predicates_match_fraction_oracle():
    rng = random.Random(12)
    for P in kernel_polytopes():
        modes = list(itertools.product(*[(-1, 0, 2)] * P.n))
        for y, hbar in random_kernel_points(P, rng, 100):
            slacks = fraction_slacks(P, y)
            inside = all(v >= 0 for v in slacks)
            assert P.contains(y) == inside
            assert P.is_interior(y) == all(v > 0 for v in slacks)
            assert P.min_slack(y) == min(slacks)
            assert [P.slack(y, j) for j in range(P.n_facets)] == slacks
            if inside:
                assert P.active_set(y) == tuple(
                    j for j, v in enumerate(slacks) if v == 0)
            else:
                with pytest.raises(DomainError):
                    P.active_set(y)
            k = rng.choice(modes)
            pairs = [sum(a * b for a, b in zip(k, x)) for x in P.normals]
            assert pt.in_delta_k(P, y, k) == all(
                v > 0 or (v == 0 and p == 0) for v, p in zip(slacks, pairs))
            moved = tuple(c + hbar * a for c, a in zip(y, k))
            assert pt.in_u_k(P, moved, k) == all(
                fraction_slack(P, moved, j) > 0
                for j, p in enumerate(pairs) if p != 0)


def test_scaled_slacks_dimension_error():
    with pytest.raises(DimensionError):
        pt.scaled_slacks(pt.square(), (F(1, 2),))
    with pytest.raises(DimensionError):
        pt.in_delta_k(pt.square(), (F(1, 2), F(1, 2)), (1,))


def test_vertices_computed_once_per_polytope(monkeypatch):
    calls = []
    solve = intlat.solve_rational

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(intlat, "solve_rational", counting)
    P = pt.projective_space(2)
    pt.require_delzant(P)
    gr.orbit(P, F(1, 4), (F(1, 8), F(1, 8)))
    assert len(calls) == math.comb(P.n_facets, P.n)
    first = pt.vertices(P)
    first.append("scratch")
    assert pt.vertices(P) == [(F(0), F(0)), (F(0), F(1)), (F(1), F(0))]
    assert len(calls) == math.comb(P.n_facets, P.n)


def test_screening_runs_once_per_polytope(monkeypatch):
    # verify suite screens in the CLI and again in delzant.build_system
    screened = []
    real = pt._screen
    monkeypatch.setattr(pt, "_screen", lambda P: screened.append(P) or real(P))
    data = Path(pt.__file__).parent / "data" / "square.json"
    assert cli.main(["verify", "suite", str(data), "--cases", "1", "--out", os.devnull]) == 0
    assert len(screened) == 1
    P = pt.square()
    assert pt.check_delzant(P) is pt.check_delzant(P) is pt.require_delzant(P)
    assert len(screened) == 2


def test_bounding_box_is_computed_once_per_polytope():
    for P in [pt.interval(), pt.square(), pt.projective_space(2),
              pt.product(pt.interval(), pt.projective_space(2))]:
        box = pt.bounding_box(P)
        assert pt.bounding_box(P) is box
        verts = pt.vertices(P)
        assert box == (tuple(min(v[i] for v in verts) for i in range(P.n)),
                       tuple(max(v[i] for v in verts) for i in range(P.n)))
    empty = pt.DelzantPolytope(1, ((1,), (-1,)), (F(1), F(0)))
    with pytest.raises(DomainError, match="no vertices"):
        pt.bounding_box(empty)
