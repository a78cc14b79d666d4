"""Arrow membership, the groupoid axioms, and orbit enumeration."""
import itertools
import math
import random
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from torikit import groupoid as gr
from torikit import polytope as pt
from torikit.errors import ComposabilityError, DomainError, OrbitCapError

F = Fraction


def points(orb):
    """The orbit's exact points, in its order."""
    return tuple(orb.point(i) for i in range(len(orb)))


def step_tuples(orb):
    """The orbit's steps as int tuples, in its order."""
    return [tuple(s) for s in orb.steps.tolist()]


def test_member_interval_interior_step():
    P = pt.interval()
    assert gr.is_member(P, gr.arrow(F(1, 4), (F(1, 8),), (1,)))


def test_member_endpoint_isotropy_blocks():
    P = pt.interval()
    assert not gr.is_member(P, gr.arrow(F(1, 4), (0,), (1,)))


def test_member_zero_mode_unit():
    P = pt.interval()
    for y in (F(0), F(1, 3), F(1)):
        assert gr.is_member(P, gr.arrow(F(1, 4), (y,), (0,)))


def test_member_isotropy_matches_on_examples():
    P = pt.interval()
    for g in [gr.arrow(F(1, 4), (F(1, 8),), (1,)),
              gr.arrow(F(1, 4), (0,), (1,)),
              gr.arrow(F(1, 4), (F(1, 3),), (0,))]:
        assert gr.is_member(P, g) == gr.is_member_isotropy(P, g)


def test_member_equivalence_dense_grid():
    # on an exact grid, closed-form membership agrees with isotropy-based
    # membership and with its definition by the two facet predicates
    for P in (pt.interval(), pt.square(), pt.projective_space(2)):
        axes = [[F(t, 3) for t in range(-1, 5)]] * P.n
        hbars = [F(-1, 2), F(0), F(1, 3), F(1)]
        for y in itertools.product(*axes):
            for k in itertools.product(*[(-2, 0, 3)] * P.n):
                for h in hbars:
                    g = gr.GroupoidPoint(h, y, k)
                    member = gr.is_member(P, g)
                    assert member == gr.is_member_isotropy(P, g)
                    head = tuple(c + h * a for c, a in zip(y, k))
                    assert member == (pt.in_delta_k(P, y, k)
                                      and pt.in_u_k(P, head, k))


def test_source_range():
    P = pt.interval()
    g = gr.arrow(F(1, 4), (F(1, 8),), (1,))
    assert gr.source(P, g) == (F(1, 4), (F(1, 8),))
    assert gr.range_(P, g) == (F(1, 4), (F(3, 8),))


def test_source_equals_range_for_units_and_zero_fiber():
    P = pt.interval()
    unit = gr.arrow(F(1, 4), (F(1, 3),), (0,))
    assert gr.source(P, unit) == gr.range_(P, unit)
    loop = gr.arrow(F(0), (F(1, 2),), (5,))
    assert gr.source(P, loop) == gr.range_(P, loop)


def test_source_invalid_raises():
    P = pt.interval()
    with pytest.raises(DomainError):
        gr.source(P, gr.arrow(F(1, 4), (0,), (1,)))


def test_compose_example():
    P = pt.interval()
    g1 = gr.arrow(F(1, 4), (F(3, 8),), (1,))
    g2 = gr.arrow(F(1, 4), (F(1, 8),), (1,))
    assert gr.compose(P, g1, g2) == gr.arrow(F(1, 4), (F(1, 8),), (2,))


def test_compose_mismatch_raises():
    P = pt.interval()
    g1 = gr.arrow(F(1, 4), (F(1, 8),), (1,))
    with pytest.raises(ComposabilityError):
        gr.compose(P, g1, g1)


def test_inverse_axioms():
    P = pt.interval()
    g = gr.arrow(F(1, 4), (F(1, 8),), (1,))
    inv = gr.invert(P, g)
    assert inv == gr.arrow(F(1, 4), (F(3, 8),), (-1,))
    assert gr.invert(P, inv) == g
    unit = gr.compose(P, g, inv)
    assert unit.k == (0,) and (unit.hbar, unit.y) == gr.range_(P, g)


def test_associativity_on_orbit_triples():
    P = pt.projective_space(2)
    orb = gr.orbit(P, F(1, 4), (F(1, 8), F(1, 8)))
    steps, ps = step_tuples(orb), points(orb)
    arrows = []
    for i in range(len(orb)):
        for j in range(len(orb)):
            k = tuple(b - a for a, b in zip(steps[i], steps[j]))
            g = gr.GroupoidPoint(orb.hbar, ps[i], k)
            if gr.is_member(P, g):
                arrows.append(g)
    rng = random.Random(5)
    checked = 0
    while checked < 200:
        g3 = rng.choice(arrows)
        # pick g2 with source = range(g3), then g1 with source = range(g2)
        head3 = gr.range_(P, g3)[1]
        mids = [a for a in arrows if a.y == head3]
        if not mids:
            continue
        g2 = rng.choice(mids)
        head2 = gr.range_(P, g2)[1]
        tops = [a for a in arrows if a.y == head2]
        if not tops:
            continue
        g1 = rng.choice(tops)
        left = gr.compose(P, gr.compose(P, g1, g2), g3)
        right = gr.compose(P, g1, gr.compose(P, g2, g3))
        assert left == right
        checked += 1


def brute_force_orbit(P, hbar, y0):
    """Independent oracle: lattice points of y0 + hbar*Z^n in the open face
    of y0 (transitive closure not needed: any lattice point of the face is
    one arrow away)."""
    active = P.active_set(y0)
    verts = pt.vertices(P)
    lo = [min(v[i] for v in verts) for i in range(P.n)]
    hi = [max(v[i] for v in verts) for i in range(P.n)]
    ranges = []
    for i in range(P.n):
        a, b = sorted(((lo[i] - y0[i]) / hbar, (hi[i] - y0[i]) / hbar))
        ranges.append(range(math.ceil(a), math.floor(b) + 1))
    out = set()
    for k in itertools.product(*ranges):
        p = tuple(c + hbar * ki for c, ki in zip(y0, k))
        if not P.contains(p):
            continue
        if P.active_set(p) == active:
            out.add(p)
    return out


def test_orbit_interval_quarter():
    P = pt.interval()
    orb = gr.orbit(P, F(1, 4), (F(1, 8),))
    assert [p[0] for p in points(orb)] == [F(1, 8), F(3, 8), F(5, 8), F(7, 8)]


def test_orbit_fixed_point_is_singleton():
    P = pt.interval()
    assert len(gr.orbit(P, F(1, 4), (0,))) == 1


def test_orbit_projective_sizes_match_brute_force():
    C = pt.projective_space(2)
    # oracle-computed sizes: 3 at (1/3, (1/6,1/6)); 6 at (1/4, (1/8,1/8))
    for hbar, y0 in [(F(1, 3), (F(1, 6), F(1, 6))),
                     (F(1, 4), (F(1, 8), F(1, 8)))]:
        orb = gr.orbit(C, hbar, y0)
        assert set(points(orb)) == brute_force_orbit(C, hbar, y0)
    assert len(gr.orbit(C, F(1, 3), (F(1, 6), F(1, 6)))) == 3
    assert len(gr.orbit(C, F(1, 4), (F(1, 8), F(1, 8)))) == 6


def test_orbit_matches_brute_force_randomized():
    rng = random.Random(11)
    for P in (pt.interval(), pt.square(), pt.projective_space(2)):
        for _ in range(6):
            hbar = F(rng.randint(1, 5), rng.randint(6, 12))
            y0 = tuple(F(rng.randint(0, 8), 8) for _ in range(P.n))
            if not P.contains(y0):
                continue
            orb = gr.orbit(P, hbar, y0)
            assert set(points(orb)) == brute_force_orbit(P, hbar, y0)


def test_orbit_edge_point_stays_on_edge():
    S = pt.square()
    orb = gr.orbit(S, F(1, 4), (F(0), F(1, 8)))
    assert len(orb) == 4
    assert all(p[0] == 0 for p in points(orb))


def test_orbits_partition():
    P = pt.projective_space(2)
    orb = gr.orbit(P, F(1, 4), (F(1, 8), F(1, 8)))
    for p in points(orb):
        assert set(points(gr.orbit(P, F(1, 4), p))) == set(points(orb))


def test_orbit_is_its_base_point_hbar_and_steps():
    for P, hbar, y0 in random_orbit_inputs(9, per_polytope=2):
        orb = gr.orbit(P, hbar, y0)
        assert (orb.hbar, orb.y0) == (hbar, y0)
        assert orb.steps.dtype == np.int64 and orb.steps.shape == (len(orb), P.n)
        assert not orb.steps.flags.writeable
        assert not orb.steps[0].any() and orb.point(0) == y0
        assert orb.dim == len(orb)
        for i, s in enumerate(step_tuples(orb)):
            assert orb.point(i) == gr.translate(y0, hbar, s)
            assert all(type(c) is F for c in orb.point(i))


def test_orbit_requires_compact_and_nonzero_hbar():
    with pytest.raises(DomainError):
        gr.orbit(pt.orthant(2), F(1, 4), (F(1), F(1)))
    with pytest.raises(DomainError):
        gr.orbit(pt.interval(), 0, (F(1, 2),))


def test_orbit_cap():
    with pytest.raises(OrbitCapError):
        gr.orbit(pt.interval(), F(1, 512), (F(1, 1024),), cap=100)


def test_orbit_negative_hbar():
    P = pt.interval()
    orb = gr.orbit(P, F(-1, 4), (F(1, 8),))
    assert len(orb) == 4


def bfs_orbit_oracle(P, hbar, y0):
    """Slow reference: breadth-first closure of {y0} under valid single
    arrows, all in Fraction arithmetic.  Neighbors of a point are visited in
    ascending lexicographic order of k over its vertex bounding box, which
    fixes the order `orbit` must reproduce."""
    lo, hi = pt.bounding_box(P)

    def neighbors(y):
        ranges = []
        for i in range(P.n):
            a, b = sorted(((lo[i] - y[i]) / hbar, (hi[i] - y[i]) / hbar))
            ranges.append(range(math.ceil(a), math.floor(b) + 1))
        for k in itertools.product(*ranges):
            if any(k) and gr.is_member(P, gr.GroupoidPoint(hbar, y, k)):
                yield tuple(c + hbar * ki for c, ki in zip(y, k))

    points = [y0]
    seen = {y0}
    head = 0
    while head < len(points):
        for endpoint in neighbors(points[head]):
            if endpoint not in seen:
                seen.add(endpoint)
                points.append(endpoint)
        head += 1
    return tuple(points)


ORACLE_POLYTOPES = {
    "interval": pt.interval(),
    "square": pt.square(),
    "cp2": pt.projective_space(2),
    "cp3": pt.projective_space(3),
    "interval x cp2": pt.product(pt.interval(), pt.projective_space(2)),
}


def random_orbit_inputs(seed, per_polytope):
    """(P, hbar, y0) with either sign of hbar, boundary and interior base
    points, and some base points shifted by 2^-62 so that the common
    denominator leaves int64."""
    rng = random.Random(seed)
    out = []
    for P in ORACLE_POLYTOPES.values():
        while sum(1 for c in out if c[0] is P) < per_polytope:
            q = rng.randint(2, 5 if P.n < 3 else 3)
            hbar = F(rng.choice((1, -1)), q)
            denom = rng.choice((2 * q, 3 * q))
            y0 = [F(rng.randint(0, denom), denom) for _ in range(P.n)]
            if rng.random() < 0.25:
                y0[0] += F(1, 2 ** 62)
            y0 = tuple(y0)
            if P.contains(y0):
                out.append((P, hbar, y0))
    return out


def test_orbit_order_matches_bfs_oracle_randomized():
    cases = random_orbit_inputs(3, per_polytope=12)
    assert any(y0[0].denominator % 2 ** 62 == 0 for _, _, y0 in cases)
    assert any(not P.is_interior(y0) for P, _, y0 in cases)
    for P, hbar, y0 in cases:
        assert points(gr.orbit(P, hbar, y0)) == bfs_orbit_oracle(P, hbar, y0)


def test_target_index_matches_membership_randomized():
    rng = random.Random(4)
    for P, hbar, y0 in random_orbit_inputs(5, per_polytope=6):
        orb = gr.orbit(P, hbar, y0)
        ps = points(orb)
        position = {p: i for i, p in enumerate(ps)}
        for _ in range(60):
            i = rng.randrange(len(orb))
            k = tuple(rng.randint(-3, 3) for _ in range(P.n))
            g = gr.GroupoidPoint(hbar, ps[i], k)
            expected = (position[gr.range_(P, g)[1]]
                        if gr.is_member(P, g) else None)
            assert orb.target_index(i, k) == expected
            assert orb.targets(k)[i] == (-1 if expected is None else expected)


def step_lookup_oracle(orb, k):
    """targets(k) by hashing every step: the index of steps[i] + k, or -1."""
    steps = step_tuples(orb)
    index = {s: i for i, s in enumerate(steps)}
    return [index.get(tuple(a + b for a, b in zip(s, k)), -1) for s in steps]


def check_targets(orb, k):
    want = step_lookup_oracle(orb, k)
    assert orb.targets(k).tolist() == want
    assert [orb.target_index(i, k) for i in range(len(orb))] == [
        None if t < 0 else t for t in want]


def test_targets_match_target_index_randomized():
    rng = random.Random(6)
    for P, hbar, y0 in random_orbit_inputs(7, per_polytope=6):
        orb = gr.orbit(P, hbar, y0)
        ks = {(0,) * P.n, (len(orb),) * P.n}
        ks |= {tuple(rng.randint(-3, 3) for _ in range(P.n)) for _ in range(8)}
        for k in ks:
            check_targets(orb, k)


def test_targets_keys_refuse_a_box_past_int64():
    # a step box of volume about 2^80 (no orbit from `orbit` gets near it):
    # keys would wrap in int64, so the lookup refuses the orbit
    steps = [(0, 0), (2 ** 40, 1), (1, 2 ** 40), (2 ** 40, 2 ** 40)]
    orb = gr.Orbit(F(1), (F(0), F(0)), np.array(steps))
    for k in [(0, 0), (1, 1)]:
        with pytest.raises(DomainError, match="int64"):
            orb.targets(k)
    # a box of volume about 2^60 still keys in int64 without wrapping
    steps = [(0, 0), (2 ** 30, 1), (1, 2 ** 30), (2 ** 30, 2 ** 30)]
    orb = gr.Orbit(F(1), (F(0), F(0)), np.array(steps))
    for k in [(2 ** 30, 1), (2 ** 30 - 1, 2 ** 30), (-(2 ** 30), -1), (0, 0), (1, 1)]:
        check_targets(orb, k)


def test_orbit_int64_guard_cannot_overflow():
    # the common denominator 4M is just below 2^63, so the scaled slacks do
    # not fit in int64 and the guard itself must be computed in Python ints
    M = 2 ** 61 - 1
    P = pt.DelzantPolytope(2, ((1, 0), (0, 1), (-1, -1)), (F(1, M), F(0), F(-1)))
    hbar = F(1, 4)
    y0 = (F(1, M) + F(1, 4), F(1, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        orb = gr.orbit(P, hbar, y0)
    assert set(points(orb)) == brute_force_orbit(P, hbar, y0)
    assert points(orb) == bfs_orbit_oracle(P, hbar, y0)


def test_orbit_cap_fires_before_memory():
    # the candidate box holds 1501^2 points; the cap must stop the scan early
    tracemalloc.start()
    try:
        with pytest.raises(OrbitCapError):
            gr.orbit(pt.square(), F(1, 1500), (F(1, 3001), F(1, 3001)), cap=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2 ** 20


def test_orbit_scan_memory_is_bounded_by_the_cap():
    # an interior point of the square at hbar 1/10^6: 10^12 candidates, of
    # which the capped scan may touch only its first block
    tracemalloc.start()
    try:
        with pytest.raises(OrbitCapError):
            gr.orbit(pt.square(), F(1, 10 ** 6), (F(1, 3), F(1, 7)), cap=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("hbar", [F(1, 2 ** 40), F(-1, 2 ** 40), F(1, 2 ** 70)])
def test_orbit_refuses_a_box_past_int64(hbar, monkeypatch):
    # the vertex's box holds 2^80 (or 2^140) candidates: refused before
    # any block is built
    blocks = record_blocks(monkeypatch)
    with pytest.raises(DomainError, match="too large for int64"):
        gr.orbit(pt.square(), hbar, (F(0), F(0)), cap=10)
    assert blocks == []


def test_orbit_int64_guard_on_pairings():
    # from the vertex 0 the box holds 2^61 + 1 candidates, below the volume
    # bound, but a step plus a mode inside the box pairs to 2^62 + 1
    with pytest.raises(DomainError, match="too large for int64"):
        gr.orbit(pt.interval(), F(1, 2 ** 61), (F(0),), cap=10)
    # from the midpoint at 2^-60 every pairing stays below 2^62
    with pytest.raises(OrbitCapError):
        gr.orbit(pt.interval(), F(1, 2 ** 60), (F(1, 2),), cap=10)


def fraction_slack(P, y, j):
    return sum(c * x for c, x in zip(y, P.normals[j])) - P.offsets[j]


def test_face_bounds_match_fraction_slacks_randomized():
    rng = random.Random(62)
    cases = random_orbit_inputs(8, per_polytope=10)
    for P, hbar, y0 in list(cases):
        # the same point at an hbar with denominator q * 2^62
        q = hbar.denominator
        big = F(hbar.numerator * (2 ** 62 + rng.randint(-2 ** 40, 2 ** 40)), q * 2 ** 62)
        cases.append((P, big, y0))
    assert any(not P.is_interior(y0) for P, _, y0 in cases)
    assert {hbar > 0 for _, hbar, _ in cases} == {True, False}
    for P, hbar, y0 in cases:
        N, active, lower = gr.face_bounds(P, y0, hbar)
        sign = 1 if hbar > 0 else -1
        assert N.dtype == lower.dtype == np.int64
        assert N.tolist() == [[sign * X[i] for X in P.normals] for i in range(P.n)]
        for j in range(P.n_facets):
            s = fraction_slack(P, y0, j)
            assert active[j] == (s == 0)
            if not active[j]:
                # the slack at facet j of a point whose pairing there is q
                assert s + abs(hbar) * (int(lower[j]) - 1) <= 0
                assert s + abs(hbar) * int(lower[j]) > 0
        k = [rng.randint(-5, 5) for _ in range(P.n)]
        q = (np.array(k, dtype=np.int64) @ N).tolist()
        head = gr.translate(y0, hbar, k)
        assert [fraction_slack(P, y0, j) + abs(hbar) * q[j]
                for j in range(P.n_facets)] == [
                    fraction_slack(P, head, j) for j in range(P.n_facets)]
    with pytest.raises(DomainError,
                       match=r"^base point \(-1/4611686018427387904, 1/2\) lies outside"):
        gr.face_bounds(pt.square(), (F(-1, 2 ** 62), F(1, 2)), F(1, 4))


def test_orbit_cap_boundary():
    P = pt.projective_space(2)
    y0 = (F(1, 20), F(1, 20))
    assert len(gr.orbit(P, F(1, 10), y0, cap=45)) == 45
    with pytest.raises(OrbitCapError, match="cap of 44 points"):
        gr.orbit(P, F(1, 10), y0, cap=44)


def record_blocks(monkeypatch):
    """The number of candidates in each flat block of the box that `orbit`
    scans."""
    blocks = []
    unravel_index = np.unravel_index

    def recording(indices, shape, **kwargs):
        blocks.append(len(indices))
        return unravel_index(indices, shape, **kwargs)

    monkeypatch.setattr(gr.np, "unravel_index", recording)
    return blocks


def test_capped_scan_stops_after_its_first_block(monkeypatch):
    # square at hbar 1/600: every candidate near y0 is an interior point,
    # so the first block of cap + 1 candidates already exceeds the cap
    blocks = record_blocks(monkeypatch)
    tracemalloc.start()
    try:
        with pytest.raises(OrbitCapError):
            gr.orbit(pt.square(), F(1, 600), (F(7, 1201), F(3, 1201)), cap=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert blocks == [10 + 1]
    assert peak < 512 * 2 ** 10


def test_capped_scan_doubles_its_blocks(monkeypatch):
    # a one-point orbit (a vertex) in a 401 x 401 box under a small cap:
    # 11 candidates, then doubling up to 65,536, and the 5,164 left
    blocks = record_blocks(monkeypatch)
    orb = gr.orbit(pt.projective_space(2), F(1, 400), (F(0), F(0)), cap=10)
    assert len(orb) == 1
    assert blocks == [11 * 2 ** i for i in range(13)] + [65536, 5164]
    assert sum(blocks) == 401 * 401


def test_default_cap_scans_full_blocks(monkeypatch):
    # 400 x 400 candidates: blocks of 65,536 from the start
    blocks = record_blocks(monkeypatch)
    orb = gr.orbit(pt.projective_space(2), F(1, 400), (F(1, 800), F(1, 800)))
    assert len(orb) == 400 * 399 // 2
    assert blocks == [65536, 65536, 28928]
