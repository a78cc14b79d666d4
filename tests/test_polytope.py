"""Polytope predicates, screening, faces, and the JSON schema."""
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

import fraction_oracle as oracle
from failing_polytopes import FAILING
from torikit import algebra as al
from torikit import classical as cl
from torikit import delzant as dz
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
    with pytest.raises(DomainError, match=r"^point \(2\) lies outside"):
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


def test_noncompact_faces_match_the_fraction_oracle():
    # independent facets with any determinant and mixed-denominator offsets:
    # each face's sample solves <y, X_j> = lambda_j + (0 if j active else 1)
    rng = random.Random(17)
    checked = 0
    while checked < 60:
        n = rng.randint(1, 3)
        normals = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
        offsets = tuple(F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n))
        P = pt.DelzantPolytope(n, normals, offsets, compact=False)
        if oracle.determinant(normals) == 0:
            with pytest.raises(DomainError, match="not linearly independent"):
                pt.enumerate_faces(P)
            continue
        want = []
        for r in range(n + 1):
            for active in itertools.combinations(range(n), r):
                rhs = [lam + (0 if j in active else 1) for j, lam in enumerate(offsets)]
                want.append((active, oracle.solve(normals, rhs), n - r))
        assert [(f.active, f.sample, f.dim) for f in pt.enumerate_faces(P)] == want
        checked += 1


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


def test_screening_reports_no_facets_and_a_zero_normal():
    empty = pt.check_delzant(pt.DelzantPolytope(1, (), ()))
    assert (empty.ok, empty.violations, empty.vertices, empty.bounded) == (
        False, ("no facets",), (), None)
    # the zero normal's slack is 1 everywhere, so no vertex is degenerate
    zero = pt.DelzantPolytope(1, ((0,), (1,), (-1,)), (F(-1), F(0), F(-1)))
    assert pt.check_delzant(zero).violations == ("facet 0: zero normal",)


@pytest.mark.parametrize("n, normals, offsets, message", [
    (0, (), (), "dimension must be >= 1"),
    (1, ((1,), (-1,)), (F(0),), "one offset per facet normal required"),
    (2, ((1, 0), (1,)), (F(0), F(0)), r"normal \(1,\) has length 1, expected 2"),
], ids=["dimension", "offsets", "normal"])
def test_polytope_constructor_refuses_bad_shapes(n, normals, offsets, message):
    with pytest.raises(DimensionError, match=f"^{message}$"):
        pt.DelzantPolytope(n, normals, offsets)


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("build", [pt.projective_space, pt.orthant])
def test_builders_leave_the_dimension_to_the_constructor(build, n):
    with pytest.raises(DimensionError, match="^dimension must be >= 1$"):
        build(n)


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


def test_a_point_outside_is_refused_with_one_message():
    cp2 = pt.projective_space(2)
    y = (F(3, 4), F(1, 2))
    calls = [lambda: pt.inside_slacks(cp2, y), lambda: cp2.active_set(y),
             lambda: cl.synthesize(cp2, al.element(2, {(0, 0): "1"}), y, [0.0, 0.0]),
             lambda: dz.sigma_squared(dz.build_system(cp2), y)]
    for call in calls:
        with pytest.raises(DomainError, match=r"^point \(3/4, 1/2\) lies outside the polytope$"):
            call()
    inside = (F(1, 4), F(3, 4))     # on the facet y1 + y2 = 1
    assert pt.inside_slacks(cp2, inside) == pt.scaled_slacks(cp2, inside)


def test_vertices_computed_once_per_polytope(monkeypatch):
    # one integer elimination per n-subset of facets, for the whole lifetime
    calls = []
    solve = intlat.solve_integer

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(intlat, "solve_integer", counting)
    P = pt.projective_space(2)
    pt.require_delzant(P)
    gr.orbit(P, F(1, 4), (F(1, 8), F(1, 8)))
    assert len(calls) == math.comb(P.n_facets, P.n)
    first = pt.vertices(P)
    first.append("scratch")
    assert pt.vertices(P) == [(F(0), F(0)), (F(0), F(1)), (F(1), F(0))]
    assert len(calls) == math.comb(P.n_facets, P.n)


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


def test_face_box_is_the_box_of_the_face_vertices():
    for P in [pt.interval(), pt.square(), pt.projective_space(3),
              pt.product(pt.interval(), pt.projective_space(2))]:
        verts = pt.vertices(P)
        for face in pt.enumerate_faces(P):
            members = [v for v in verts if set(face.active) <= set(P.active_set(v))]
            D, lo, hi = pt.face_box(P, face.active)
            assert D > 0
            assert [F(c, D) for c in lo] == [min(v[i] for v in members) for i in range(P.n)]
            assert [F(c, D) for c in hi] == [max(v[i] for v in members) for i in range(P.n)]
        # the interior's face is the polytope
        D, lo, hi = pt.face_box(P, ())
        assert (tuple(F(c, D) for c in lo), tuple(F(c, D) for c in hi)) == pt.bounding_box(P)


# ---------------------------------------------------------------------------
# screening and faces against the Fraction reference: per-subset solves over
# Q, Fraction kernel vectors, Fraction slacks and Fraction averages

def oracle_vertices(P):
    found = set()
    for subset in itertools.combinations(range(P.n_facets), P.n):
        sol = oracle.solve([P.normals[j] for j in subset],
                           [P.offsets[j] for j in subset])
        if sol is not None and all(v >= 0 for v in fraction_slacks(P, sol)):
            found.add(sol)
    return tuple(sorted(found))


def oracle_active_set(P, y):
    return tuple(j for j, v in enumerate(fraction_slacks(P, y)) if v == 0)


def oracle_primitive(v):
    denoms = [F(c).denominator for c in v]
    scale = math.lcm(*denoms) if denoms else 1
    ints = [int(F(c) * scale) for c in v]
    g = math.gcd(*(abs(c) for c in ints))
    if g:
        ints = [c // g for c in ints]
    return tuple(ints)


def oracle_recession_ray(P):
    line = oracle.kernel_vector(P.normals)
    if line is not None:
        return oracle_primitive(line)
    if P.n == 1:
        candidates = [(F(1),)]
    else:
        candidates = []
        for subset in itertools.combinations(range(P.n_facets), P.n - 1):
            v = oracle.kernel_vector([P.normals[j] for j in subset])
            if v is not None:
                candidates.append(v)
    for v in candidates:
        v = oracle_primitive(v)
        for w in (v, tuple(-c for c in v)):
            if any(w) and all(sum(a * b for a, b in zip(w, x)) >= 0
                              for x in P.normals):
                return w
    return None


def oracle_screen(P):
    """(ok, violations, vertices, bounded) of the Fraction screening."""
    violations = []
    if P.n_facets == 0:
        return False, ("no facets",), (), None
    for j, x in enumerate(P.normals):
        if all(c == 0 for c in x):
            violations.append(f"facet {j}: zero normal")
        elif math.gcd(*(abs(c) for c in x)) != 1:
            violations.append(f"facet {j}: normal {x} is not primitive")
    verts = oracle_vertices(P)
    bounded = None
    if P.compact:
        ray = oracle_recession_ray(P)
        bounded = ray is None
        if ray is not None:
            violations.append(f"unbounded: recession direction {ray}")
        if not verts:
            violations.append("no vertices (empty or degenerate)")
    for v in verts:
        active = oracle_active_set(P, v)
        if len(active) > P.n:
            violations.append(
                f"vertex {v}: {len(active)} facets active (not simple)")
            continue
        det = oracle.determinant([P.normals[j] for j in active])
        if abs(det) != 1:
            violations.append(
                f"vertex {v}: active normals have determinant {det}")
    if P.compact and verts and not violations:
        centroid = tuple(
            sum(v[i] for v in verts) / len(verts) for i in range(P.n))
        for j, s in enumerate(fraction_slacks(P, centroid)):
            if s <= 0:
                violations.append(
                    f"facet {j} touches every vertex (empty interior "
                    "or redundant facet)")
    return not violations, tuple(violations), verts, bounded


def oracle_faces(P):
    verts = oracle_vertices(P)
    active_of = {v: set(oracle_active_set(P, v)) for v in verts}
    candidates = {frozenset()}
    for v in verts:
        act = sorted(active_of[v])
        for r in range(1, len(act) + 1):
            candidates.update(frozenset(s) for s in itertools.combinations(act, r))
    faces = []
    for cand in sorted(candidates, key=lambda s: (len(s), sorted(s))):
        members = [v for v in verts if cand <= active_of[v]]
        sample = tuple(
            sum(v[i] for v in members) / len(members) for i in range(P.n))
        faces.append(pt.Face(tuple(sorted(cand)), sample, P.n - len(cand)))
    return faces


def random_unimodular(n, rng):
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            c = rng.choice((-2, -1, 1, 2))
            U[i] = [a + c * b for a, b in zip(U[i], U[j])]
    if rng.random() < 0.5:
        U[0] = [-a for a in U[0]]
    return U


def random_offset(rng):
    return F(rng.randint(-12, 12), rng.choice((1, 2, 3, 4, 5, 7, 12)))


def random_screening_polytope(rng):
    """A random polytope: a transformed box or simplex with mixed-denominator
    offsets, then some of: a non-primitive or det-2 normal, a redundant
    facet (slack or through a vertex), a removed facet (unbounded, or a
    line), a duplicated facet, an empty system; or small random normals."""
    n = rng.randint(1, 3)
    if rng.random() < 0.25:
        m = rng.randint(1, 2 * n + 2)
        normals = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(m)]
        normals = [x if any(x) else (1,) + (0,) * (n - 1) for x in normals]
        return pt.DelzantPolytope(n, tuple(normals),
                                  tuple(random_offset(rng) for _ in normals))
    U = random_unimodular(n, rng)
    # rows of U^T: a box's or simplex's normals through the lattice map U
    basis = [tuple(U[i][j] for i in range(n)) for j in range(n)]
    if rng.random() < 0.5:
        normals = basis + [tuple(-c for c in x) for x in basis]
        offsets = [random_offset(rng) for _ in range(n)]
        offsets += [-(lo + F(rng.randint(1, 6), rng.choice((1, 2, 3))))
                    for lo in offsets]
    else:
        normals = basis + [tuple(-sum(c) for c in zip(*basis))]
        offsets = [random_offset(rng) for _ in range(n)]
        offsets.append(-sum(offsets) - F(rng.randint(1, 5), rng.choice((1, 2, 4))))
    P = pt.DelzantPolytope(n, tuple(normals), tuple(offsets))
    verts = oracle_vertices(P)
    for _ in range(rng.randint(0, 2)):
        kind = rng.choice(("nonprimitive", "det2", "slack", "through", "drop",
                           "duplicate", "empty"))
        j = rng.randrange(len(normals))
        if kind == "nonprimitive":
            normals[j] = tuple(2 * c for c in normals[j])
            offsets[j] = 2 * offsets[j]
        elif kind == "det2":
            normals.append(tuple(rng.choice((-1, 1)) * c + 2 * d for c, d in
                                 zip(normals[j], normals[(j + 1) % len(normals)])))
            offsets.append(random_offset(rng) - 30)
        elif kind in ("slack", "through") and verts:
            x = tuple(rng.randint(-2, 2) for _ in range(n))
            if not any(x):
                continue
            lowest = min(sum(a * b for a, b in zip(v, x)) for v in verts)
            normals.append(x)
            offsets.append(lowest - (F(1, 3) if kind == "slack" else 0))
        elif kind == "drop" and len(normals) > 1:
            del normals[j], offsets[j]
        elif kind == "duplicate":
            normals.append(normals[j])
            offsets.append(offsets[j])
        elif kind == "empty":
            normals.append(tuple(-c for c in normals[j]))
            offsets.append(-offsets[j] + 1)
    return pt.DelzantPolytope(n, tuple(normals), tuple(offsets))


SCREENING_POLYTOPES = [
    # a slab: the parallel pair is a rank-deficient 2-subset before the ray's
    pt.DelzantPolytope(3, ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)),
                       (F(0), F(-1), F(0), F(0))),
    # a strip with a line, and a 3-D slab with a plane of lines
    pt.DelzantPolytope(2, ((1, 0), (-1, 0)), (F(1, 3), F(-5, 2))),
    pt.DelzantPolytope(3, ((0, 1, 1), (0, -1, -1)), (F(0), F(-1))),
    # the det-2 triangle, a redundant facet through a vertex, an empty system
    pt.DelzantPolytope(2, ((1, 0), (0, 1), (-1, -2)), (F(0), F(0), F(-1))),
    pt.DelzantPolytope(2, ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)),
                       (F(0), F(0), F(-1), F(-1), F(0))),
    pt.DelzantPolytope(1, ((1,), (-1,)), (F(1), F(0))),
    pt.orthant(3), pt.interval(), pt.projective_space(3),
]


VIOLATION_KINDS = ("not primitive", "unbounded", "no vertices", "not simple",
                   "determinant")


def test_screening_matches_the_fraction_oracle():
    rng = random.Random(16)
    polytopes = SCREENING_POLYTOPES + [random_screening_polytope(rng) for _ in range(300)]
    kinds = set()
    for P in polytopes:
        report = pt.check_delzant(P)
        ok, violations, verts, bounded = oracle_screen(P)
        assert report.ok == ok, P
        assert report.violations == violations, P
        assert report.vertices == verts, P
        assert report.bounded == bounded, P
        assert pt.vertices(P) == list(verts)
        kinds.update(k for k in VIOLATION_KINDS for v in violations if k in v)
        if ok and P.compact:
            kinds.add("pass")
            assert pt.enumerate_faces(P) == oracle_faces(P), P
    assert kinds == {"pass", *VIOLATION_KINDS}


def test_ratpoint_and_scaled_slacks_pass_fractions_through():
    y = (F(1, 3), F(2, 5))
    assert all(a is b for a, b in zip(pt.ratpoint(y), y))
    got = pt.ratpoint((1, "3/4", F(2, 5)))
    assert got == (F(1), F(3, 4), F(2, 5)) and all(type(c) is F for c in got)
    P = pt.projective_space(2)
    for hbar in (F(1, 6), "1/6"):
        assert pt.scaled_slacks(P, y, hbar) == pt.scaled_slacks(P, ("1/3", "2/5"), F(1, 6))


def test_integer_slacks_are_d_times_the_fraction_slacks():
    # the one slack kernel, facet by facet, at random points over random
    # multiples d of the offsets' denominator L, from d = L up to past 2^64
    shipped = Path(pt.__file__).parent / "data"
    rng = random.Random(31)
    polytopes = [pt.load_polytope(path) for path in sorted(shipped.glob("*.json"))]
    polytopes += [random_screening_polytope(rng) for _ in range(150)]
    assert {P.integer_offsets[0] for P in polytopes} - {1}
    for P in polytopes:
        L = P.integer_offsets[0]
        for _ in range(20):
            d = L * rng.randint(1, 2 ** rng.choice((0, 3, 12, 66)))
            numerators = [rng.randint(-3 * d, 3 * d) for _ in range(P.n)]
            s = pt.integer_slacks(P, numerators, d)
            assert all(type(v) is int for v in s)
            assert s == [d * v for v in fraction_slacks(P, [F(c, d) for c in numerators])]


def test_vertex_table_boundedness_agrees_with_the_ray_search():
    # `_edges_close` says bounded only when the ray search finds no ray, and
    # whenever every vertex is simple the two agree; a table with a vertex
    # that is not simple may still close, as a bounded polytope's does here
    shipped = Path(pt.__file__).parent / "data"
    golden = Path(__file__).parent / "golden"
    polytopes = [pt.load_polytope(path) for path in
                 sorted(shipped.glob("*.json")) + [golden / "square_pm1.json"]]
    polytopes += [pt.polytope_from_dict(doc) for doc in FAILING.values()]
    rng = random.Random(24)
    polytopes += SCREENING_POLYTOPES + [random_screening_polytope(rng) for _ in range(600)]
    seen = {"bounded": 0, "ray edge": 0, "not simple, closed": 0, "not simple, open": 0}
    for P in polytopes:
        closed, bounded = pt._edges_close(P), pt._recession_ray(P) is None
        assert not (closed and not bounded), P
        _, table = P._vertex_table
        if table and all(len(active) == P.n for _, active, _ in table):
            assert closed == bounded, P
            seen["bounded" if closed else "ray edge"] += 1
        else:
            seen["not simple, closed" if closed else "not simple, open"] += 1
    assert min(seen.values()) >= 20, seen
