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
from torikit.errors import (ComposabilityError, DimensionError, DomainError,
                            EvalDomainError, FormatError, OrbitCapError)

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


# the vertex 0 of [0, 1] admits no arrow of mode 1; every operation on an
# arrow names the one it refuses as p/q (`not_in_groupoid`)
OUTSIDE = gr.arrow(F(1, 4), (0,), (1,))
INSIDE = gr.arrow(F(1, 4), (F(1, 8),), (1,))


@pytest.mark.parametrize("call", [
    lambda P: gr.source(P, OUTSIDE), lambda P: gr.range_(P, OUTSIDE),
    lambda P: gr.invert(P, OUTSIDE), lambda P: gr.compose(P, INSIDE, OUTSIDE),
    lambda P: gr.compose(P, OUTSIDE, INSIDE),
], ids=["source", "range", "invert", "compose-second", "compose-first"])
def test_an_arrow_outside_the_groupoid_is_named_as_p_over_q(call):
    with pytest.raises(DomainError) as exc:
        call(pt.interval())
    assert str(exc.value) == "arrow (hbar=1/4, y=(0), k=(1,)) is not in the groupoid"


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


TWO_OF_THREE_POLYTOPES = {
    "interval": pt.interval(),
    "square": pt.square(),
    "cp2": pt.projective_space(2),
    "cp3": pt.projective_space(3),
    "cube": pt.product(pt.square(), pt.interval()),
    "trapezoid": pt.DelzantPolytope(
        2, ((1, 0), (0, 1), (0, -1), (-1, -2)), (F(0), F(0), F(-1), F(-3))),
}


@pytest.mark.parametrize("name", TWO_OF_THREE_POLYTOPES)
def test_two_valid_arrows_from_one_point_make_the_third(name):
    # at fixed hbar an orbit is a pair groupoid: (y, k) and (y, l) valid
    # make the arrow from y + hbar*l to y + hbar*k valid, and composing it
    # after (y, l) gives (y, k) back
    P = TWO_OF_THREE_POLYTOPES[name]
    rng = random.Random(27)
    lo, hi = pt.bounding_box(P)
    axes = [[F(t, 8) for t in range(int(8 * a), int(8 * b) + 1)] for a, b in zip(lo, hi)]
    base = [y for y in map(tuple, itertools.product(*axes)) if P.contains(y)]
    assert any(not P.is_interior(y) for y in base)
    both = 0
    for _ in range(2000):
        y = rng.choice(base)
        hbar = F(rng.choice((1, -1)) * rng.randint(1, 3), rng.choice((8, 16)))
        k, l = (tuple(rng.randint(-1, 1) for _ in range(P.n)) for _ in range(2))
        g_k, g_l = gr.GroupoidPoint(hbar, y, k), gr.GroupoidPoint(hbar, y, l)
        if not (gr.is_member(P, g_k) and gr.is_member(P, g_l)):
            continue
        head = gr.GroupoidPoint(hbar, gr.translate(y, hbar, l),
                                tuple(a - b for a, b in zip(k, l)))
        assert gr.is_member(P, head)
        assert gr.compose(P, head, g_l) == g_k
        both += 1
    assert both > 100


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


def test_face_bounds_refuses_hbar_zero():
    # face_bounds divides by |hbar|; at hbar = 0 it raised ZeroDivisionError
    with pytest.raises(DomainError, match=r"^orbits are defined for hbar != 0$"):
        gr.face_bounds(pt.square(), (F(1, 4), F(1, 4)), 0)


def test_a_mode_entry_that_is_not_an_integer_is_refused():
    # int() truncated these: 0.7 read as mode 0, 0.9 as k = (0,)
    orb = gr.orbit(pt.interval(), F(1, 4), (F(1, 8),))
    for k in [(0.7,), (F(1, 2),), np.array([0.7]), ("1",)]:
        with pytest.raises(FormatError, match="^bad mode "):
            orb.targets(k)
    with pytest.raises(FormatError, match=r"^bad mode \(0\.9,\): "):
        gr.arrow(F(1, 4), (F(1, 2),), (0.9,))
    with pytest.raises(DimensionError, match="^mode has 2 entries, expected 1$"):
        gr.arrow(F(1, 4), (F(1, 2),), (1, 0))
    # Python and numpy integers pass
    got = orb.targets((1,))
    assert got is orb.targets((np.int64(1),)) is orb.targets(np.array([1], dtype=np.int32))
    assert gr.arrow(F(1, 4), (F(1, 2),), (np.int64(-1),)).k == (-1,)


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


# orbits whose memos are checked: interior, on a facet and at negative hbar,
# and the orbit whose numerators pass 2^53, so its coordinates come from
# Python-int division
MEMO_ORBITS = {
    "cp2-interior": (pt.projective_space(2), F(1, 5), (F(1, 8), F(1, 4))),
    "square-facet-negative-hbar": (pt.square(), F(-1, 6), (F(0), F(2, 3))),
    "square-past-2^53": (pt.square(), F(1, 4), (F(1, 3) + F(1, 2 ** 55), F(1, 2))),
}


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("name", sorted(MEMO_ORBITS))
def test_orbit_memos_are_read_only_and_equal_a_fresh_computation(name):
    P, hbar, y0 = MEMO_ORBITS[name]
    orb = gr.orbit(P, hbar, y0)
    assert len(orb) > 1
    pts = orb.points
    assert pts is orb.points and not pts.flags.writeable
    with pytest.raises(ValueError):
        pts[0, 0] = 0.0
    want = np.array([[float(c) for c in p] for p in points(orb)])
    assert same_bits(pts, want)
    assert same_bits(pts, orb.coordinates(orb.steps))
    box = orb.box
    assert box is orb.box and not any(b.flags.writeable for b in box)
    with pytest.raises(ValueError):
        box[0][0] = 0
    steps = step_tuples(orb)
    assert [b.tolist() for b in box] == [list(map(min, zip(*steps))), list(map(max, zip(*steps)))]
    for k in itertools.product(range(-2, 3), repeat=P.n):
        got = orb.targets(k)
        assert got is orb.targets(list(k)) and got is orb.targets(np.array(k))
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] = 0
        assert got.dtype == np.int64 and got.tolist() == step_lookup_oracle(orb, k)
    # a fresh orbit over the same steps computes each memo anew, bit for bit
    fresh = gr.Orbit(orb.hbar, orb.y0, orb.steps)
    assert same_bits(fresh.points, pts)
    assert all(np.array_equal(a, b) for a, b in zip(fresh.box, box))
    for k in itertools.product(range(-2, 3), repeat=P.n):
        assert np.array_equal(fresh.targets(k), orb.targets(k))


def test_targets_keep_no_failed_lookup():
    orb = gr.orbit(pt.square(), F(1, 4), (F(1, 8), F(1, 8)))
    for _ in range(2):
        with pytest.raises(DimensionError):
            orb.targets((1,))
    assert (1,) not in orb._targets
    check_targets(orb, (1, 0))


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
    # an interior point's box holds 2^80 (or 2^140) candidates: refused
    # before any block is built
    blocks = record_blocks(monkeypatch)
    with pytest.raises(DomainError, match="too large for int64"):
        gr.orbit(pt.square(), hbar, (F(1, 3), F(1, 7)), cap=10)
    assert blocks == []


def test_orbit_int64_guard_on_pairings(monkeypatch):
    # on [0, 3/2] from the interior point 1/4 the box holds 3 * 2^60 + 1
    # candidates, below the volume bound, but a step plus a mode inside the
    # box pairs to about 11 * 2^59 > 2^62
    blocks = record_blocks(monkeypatch)
    P = pt.DelzantPolytope(1, ((1,), (-1,)), (F(0), F(-3, 2)))
    with pytest.raises(DomainError, match="too large for int64"):
        gr.orbit(P, F(1, 2 ** 61), (F(1, 4),), cap=10)
    assert blocks == []
    # from the midpoint of [0, 1] at 2^-60 every pairing stays below 2^62
    with pytest.raises(OrbitCapError):
        gr.orbit(pt.interval(), F(1, 2 ** 60), (F(1, 2),), cap=10)


def test_orbit_int64_guard_names_the_box_not_hbar():
    # on [0, 10^401] from 10^400 at hbar = 1/16 the polytope's extent, not
    # hbar, makes the box: 16 * 10^401 + 1 candidate steps
    P = pt.DelzantPolytope(1, ((1,), (-1,)), (F(0), F(-10 ** 401)))
    with pytest.raises(DomainError) as exc:
        gr.orbit(P, F(1, 16), (F(10 ** 400),))
    assert str(exc.value) == ("candidate box of the orbit at hbar = 1/16, of shape "
                              f"({16 * 10 ** 401 + 1},), is too large for int64")


def test_orbit_coordinates_past_float_range_get_the_conversion_owners_error():
    # [10^400, 10^400 + 1] holds an orbit of 3 points, none of them a float
    P = pt.DelzantPolytope(1, ((1,), (-1,)), (F(10 ** 400), F(-10 ** 400 - 1)))
    orb = gr.orbit(P, F(1, 4), (F(10 ** 400) + F(1, 2),))
    assert len(orb) == 3
    for call in (lambda: orb.points, lambda: orb.coordinates(orb.steps[:1])):
        with pytest.raises(EvalDomainError) as exc:
            call()
        assert type(exc.value) is EvalDomainError
        assert str(exc.value) == "an input lies past float range"


def test_orbit_int64_guard_reads_the_face_vertex_box(monkeypatch):
    # the centre of the square at hbar 2^-31: the box of its face's vertices
    # holds (2^31 + 1)^2 > 2^62 steps, its boundary layer included, so it is
    # refused before any block is built; at 2^-30 it holds (2^30 + 1)^2
    blocks = record_blocks(monkeypatch)
    with pytest.raises(DomainError, match="too large for int64"):
        gr.orbit(pt.square(), F(1, 2 ** 31), (F(1, 2), F(1, 2)), cap=10)
    assert blocks == []
    with pytest.raises(OrbitCapError):
        gr.orbit(pt.square(), F(-1, 2 ** 30), (F(1, 2), F(1, 2)), cap=10)
    assert blocks == [11]


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
        M, low, active = gr.face_bounds(P, y0, hbar)
        sign = 1 if hbar > 0 else -1
        assert M.dtype == low.dtype == np.int64
        slacks = [fraction_slack(P, y0, j) for j in range(P.n_facets)]
        assert active == tuple(j for j, s in enumerate(slacks) if s == 0)
        # in facet order, one column per slack facet and two per active one
        columns, bounds = M.T.tolist(), low.tolist()
        for X, s in zip(P.normals, slacks):
            X = [sign * x for x in X]
            if s == 0:
                assert columns[:2] == [X, [-x for x in X]] and bounds[:2] == [0, 0]
                del columns[:2], bounds[:2]
            else:
                assert columns.pop(0) == X
                # the slack at facet j of a point whose pairing there is b
                b = bounds.pop(0)
                assert s + abs(hbar) * (b - 1) <= 0 < s + abs(hbar) * b
        assert columns == bounds == []
        # the bounds hold exactly where y0 + hbar*k lies in y0's open face
        for k in itertools.product(range(-2, 3), repeat=P.n):
            head = gr.translate(y0, hbar, k)
            on_face = P.contains(head) and P.active_set(head) == active
            assert bool(((np.array(k, dtype=np.int64) @ M) >= low).all()) == on_face
    with pytest.raises(DomainError,
                       match=r"^point \(-1/4611686018427387904, 1/2\) lies outside"):
        gr.face_bounds(pt.square(), (F(-1, 2 ** 62), F(1, 2)), F(1, 4))


@pytest.mark.parametrize("cap", [0, -3])
def test_orbit_refuses_a_cap_below_1(cap):
    # every orbit holds its base point; cap -3 asked the first block for
    # a negative number of prefixes
    with pytest.raises(DomainError, match=f"cap must be at least 1, got {cap}"):
        gr.orbit(pt.square(), F(1, 4), (F(1, 2), F(1, 2)), cap=cap)


def test_orbit_cap_boundary():
    P = pt.projective_space(2)
    y0 = (F(1, 20), F(1, 20))
    assert len(gr.orbit(P, F(1, 10), y0, cap=45)) == 45
    with pytest.raises(OrbitCapError, match="cap of 44 points"):
        gr.orbit(P, F(1, 10), y0, cap=44)


def record_blocks(monkeypatch):
    """The number of prefixes k[:-1] in each block that `orbit` scans."""
    blocks = []
    unravel_index = np.unravel_index

    def recording(indices, shape, **kwargs):
        blocks.append(len(indices))
        return unravel_index(indices, shape, **kwargs)

    monkeypatch.setattr(gr.np, "unravel_index", recording)
    return blocks


def record_rows(monkeypatch):
    """The number of candidate steps `orbit` builds in each block."""
    rows = []
    expand = gr._expand

    def recording(*args):
        k = expand(*args)
        rows.append(len(k))
        return k

    monkeypatch.setattr(gr, "_expand", recording)
    return rows


def test_capped_scan_stops_after_its_first_block(monkeypatch):
    # square at hbar 1/600: every candidate near y0 is an interior point,
    # so the first block of cap + 1 prefixes already exceeds the cap
    blocks = record_blocks(monkeypatch)
    rows = record_rows(monkeypatch)
    tracemalloc.start()
    try:
        with pytest.raises(OrbitCapError):
            gr.orbit(pt.square(), F(1, 600), (F(7, 1201), F(3, 1201)), cap=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert blocks == [10 + 1]
    assert rows == []       # refused on the interval lengths, before any row
    assert peak < 512 * 2 ** 10


def test_capped_scan_doubles_its_blocks(monkeypatch):
    # an edge of cp3 (y3 = 0, y1 + y2 + y3 = 1) at hbar 1/100: the box of
    # the edge's vertices has 101 x 101 prefixes (k1, k2), its boundary
    # layer included, but only 99 of them hold a point.  Under cap 99 the
    # first block holds 100 prefixes and the next the 10,101 left (at most
    # _CHUNK); the rows built are the orbit's 99 points
    blocks = record_blocks(monkeypatch)
    rows = record_rows(monkeypatch)
    orb = gr.orbit(pt.projective_space(3), F(1, 100), (F(1, 2), F(1, 2), F(0)), cap=99)
    assert len(orb) == 99
    assert blocks == [100, 10101]
    assert sum(blocks) == 101 * 101
    assert sum(rows) == len(orb)


def test_default_cap_scans_full_blocks(monkeypatch):
    # the same edge at hbar 1/300: 301 x 301 prefixes in blocks of 65,536
    blocks = record_blocks(monkeypatch)
    rows = record_rows(monkeypatch)
    orb = gr.orbit(pt.projective_space(3), F(1, 300), (F(1, 2), F(1, 2), F(0)))
    assert len(orb) == 299
    assert blocks == [65536, 301 * 301 - 65536]
    assert sum(rows) == len(orb)


@pytest.mark.parametrize("P, hbar, y0, steps", [
    # a vertex of the interval at hbar 1e-8 and at 2^-50: one point
    (pt.interval(), F(1, 10 ** 8), (F(0),), [(0,)]),
    (pt.interval(), F(1, 2 ** 50), (F(0),), [(0,)]),
    (pt.interval(), F(-1, 2 ** 50), (F(1),), [(0,)]),
    # a vertex of the square at hbar 1/4000: one point
    (pt.square(), F(1, 4000), (F(0), F(0)), [(0, 0)]),
    # the square's edge y1 = 0 from (0, 1/2): 3,999 points
    (pt.square(), F(1, 4000), (F(0), F(1, 2)),
     [(0, 0)] + [(0, k) for k in range(-1999, 2000) if k]),
    # cp2's slanted edge y1 + y2 = 1 from (1/2, 1/2): 3,999 points
    (pt.projective_space(2), F(1, 4000), (F(1, 2), F(1, 2)),
     [(0, 0)] + [(k, -k) for k in range(-1999, 2000) if k]),
    (pt.projective_space(2), F(-1, 4000), (F(1, 2), F(1, 2)),
     [(0, 0)] + [(k, -k) for k in range(-1999, 2000) if k]),
], ids=["interval-vertex-1e-8", "interval-vertex-2^-50", "interval-vertex-minus-2^-50",
        "square-vertex", "square-edge", "cp2-hypotenuse", "cp2-hypotenuse-minus"])
def test_orbit_builds_only_its_points(monkeypatch, P, hbar, y0, steps):
    # the scan costs the orbit, not the polytope's box: every candidate
    # built is an orbit point, from a vertex to a slanted edge
    rows = record_rows(monkeypatch)
    orb = gr.orbit(P, hbar, y0, cap=max(10, len(steps)))
    assert step_tuples(orb) == steps
    assert sum(rows) == len(orb)


SLANTED_FACES = {
    # cp2's hypotenuse y1 + y2 = 1 (an edge) and its end (1, 0)
    "cp2": (pt.projective_space(2),
            [(F(1, 2), F(1, 2)), (F(1, 3), F(2, 3)), (F(3, 4), F(1, 4)), (F(1), F(0))]),
    # cp3: the edges on y1 + y2 + y3 = 1 and a point of that facet
    "cp3": (pt.projective_space(3),
            [(F(1, 2), F(1, 2), F(0)), (F(0), F(1, 3), F(2, 3)), (F(1, 4), F(0), F(3, 4)),
             (F(1, 4), F(1, 4), F(1, 2))]),
    # interval x cp2: y2 + y3 = 1 at an interior and an end point of the interval
    "interval x cp2": (pt.product(pt.interval(), pt.projective_space(2)),
                       [(F(1, 2), F(1, 3), F(2, 3)), (F(0), F(1, 2), F(1, 2)),
                        (F(1), F(1, 4), F(3, 4))]),
}


# every active-set shape: vertices, edges and facets of 1-, 2- and 3-D
# polytopes, so each bound an active facet doubles is hit
FACE_POLYTOPES = dict(ORACLE_POLYTOPES, cube=pt.product(pt.square(), pt.interval()))


@pytest.mark.parametrize("name", FACE_POLYTOPES)
def test_orbit_through_every_face_matches_brute_force(name):
    P = FACE_POLYTOPES[name]
    for face in pt.enumerate_faces(P):
        for hbar in (F(1, 3), F(-1, 4), F(1, 5)):
            orb = gr.orbit(P, hbar, face.sample)
            assert set(points(orb)) == brute_force_orbit(P, hbar, face.sample)


@pytest.mark.parametrize("name", SLANTED_FACES)
def test_orbit_on_slanted_faces_matches_the_oracles(monkeypatch, name):
    P, base_points = SLANTED_FACES[name]
    rows = record_rows(monkeypatch)
    for y0 in base_points:
        for hbar in (F(1, 3), F(-1, 4), F(1, 6)):
            orb = gr.orbit(P, hbar, y0)
            assert set(points(orb)) == brute_force_orbit(P, hbar, y0)
            assert points(orb) == bfs_orbit_oracle(P, hbar, y0)
            assert rows[-1] == len(orb)
