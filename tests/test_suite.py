"""The verification batteries and the orbit convolution they run on."""
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import torikit
from torikit import algebra as al
from torikit import cli
from torikit import expr as ex
from torikit import groupoid as gr
from torikit import polytope as pt
from torikit import suite as su
from torikit.errors import DomainError, EvalDomainError

F = Fraction
DATA = Path(torikit.__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
POLYTOPES = {"sphere": pt.interval(), "square": pt.square(),
             "cp2": pt.projective_space(2)}
# base points on a facet (or at a vertex) of each polytope
BOUNDARY = {
    "sphere": [(F(0),), (F(1),)],
    "square": [(F(0), F(3, 8)), (F(5, 8), F(1)), (F(0), F(0))],
    "cp2": [(F(0), F(3, 8)), (F(5, 16), F(0)), (F(3, 8), F(5, 8)), (F(0), F(0))],
}


@pytest.mark.parametrize("name", sorted(POLYTOPES))
def test_verify_suite_golden_seed3(tmp_path, name):
    # captured from the per-point convolution before `convolve_orbit`
    out = tmp_path / "suite.json"
    rc = cli.main(["verify", "suite", str(DATA / f"{name}.json"), "--seed", "3",
                   "--cases", "12", "--out", str(out)])
    assert rc == 0
    assert out.read_text() == (GOLDEN / f"suite_{name}_seed3_cases12.json").read_text()


def test_verify_suite_golden_cp2_cases40(tmp_path):
    # the default case count, where the limit-vs-symbolic check runs four
    # times (case % 10 == 0); captured before the demand-driven brackets
    out = tmp_path / "suite.json"
    rc = cli.main(["verify", "suite", str(DATA / "cp2.json"), "--seed", "0",
                   "--cases", "40", "--out", str(out)])
    assert rc == 0
    assert out.read_text() == (GOLDEN / "suite_cp2_seed0_cases40.json").read_text()


# d_dy calls of one run_suite(cp2, seed=0, cases=2) with demand-driven
# brackets and the shared derivative memo (244 when every bracket mode was
# built and each caller differentiated on its own)
D_DY_CALLS_CP2_SEED0_CASES2 = 84


def test_suite_derivation_stays_demand_driven(monkeypatch):
    calls = []
    real = ex.d_dy
    monkeypatch.setattr(ex, "d_dy", lambda e, i: calls.append(i) or real(e, i))
    report = su.run_suite(POLYTOPES["cp2"], seed=0, cases=2)
    assert report.passed
    assert 0 < len(calls) <= D_DY_CALLS_CP2_SEED0_CASES2


# a noncompact polytope, and a compact one that passes screening but has no
# point with every slack above the samplers' margin of 1/8
NO_INTERIOR_SAMPLE = {
    "orthant2": (DATA / "orthant2.json", "requires a compact polytope"),
    "square-1/8": ({"n": 2, "facets": [
        {"normal": [1, 0], "offset": "0"}, {"normal": [0, 1], "offset": "0"},
        {"normal": [-1, 0], "offset": "-1/8"}, {"normal": [0, -1], "offset": "-1/8"}]},
        "could not sample an interior point"),
}


@pytest.mark.parametrize("name", sorted(NO_INTERIOR_SAMPLE))
def test_verify_suite_without_interior_samples_exits_2(tmp_path, capsys, name):
    source, message = NO_INTERIOR_SAMPLE[name]
    if isinstance(source, dict):
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(source))
        source = path
    assert cli.main(["polytope", "check", str(source), "--format", "json"]) == 0
    capsys.readouterr()
    out = tmp_path / "suite.json"
    rc = cli.main(["verify", "suite", str(source), "--cases", "1", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert not out.exists()
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def random_interior_point_fraction(P, rng, margin=F(1, 8), denom=64):
    """Oracle: the per-candidate Fraction test on the least facet slack."""
    lo, hi = pt.bounding_box(P)
    for _ in range(10_000):
        y = tuple(
            F(rng.randint(int(lo[i] * denom), int(hi[i] * denom)), denom)
            for i in range(P.n))
        slacks = [sum(c * x for c, x in zip(y, X)) - lam
                  for X, lam in zip(P.normals, P.offsets)]
        if min(slacks) > margin:
            return y
    raise DomainError("could not sample an interior point (margin too big?)")


@pytest.mark.parametrize("name", ["sphere", "square", "cp2", "orthant2"])
def test_random_interior_point_matches_the_fraction_oracle(name):
    P = pt.load_polytope(DATA / f"{name}.json")
    for margin, denom in ((F(1, 8), 64), (F(1, 4), 32)):
        got_rng, want_rng = random.Random(name), random.Random(name)
        if not P.compact:       # one vertex: no candidate is interior
            with pytest.raises(DomainError):
                su.random_interior_point(P, got_rng, margin, denom)
            with pytest.raises(DomainError):
                random_interior_point_fraction(P, want_rng, margin, denom)
            assert got_rng.random() == want_rng.random()
            continue
        for _ in range(1000):
            got = su.random_interior_point(P, got_rng, margin, denom)
            want = random_interior_point_fraction(P, want_rng, margin, denom)
            assert got == want and all(type(c) is F for c in got)
        assert got_rng.random() == want_rng.random()


def points(orb):
    """The orbit's exact points, in its order."""
    return [orb.point(i) for i in range(len(orb))]


def per_point(P, f, g, orb, k):
    """The oracle: one scalar `convolve` per orbit point."""
    return np.array([al.convolve(P, f, g, orb.hbar, p, k) for p in points(orb)],
                    dtype=complex)


def modes_to_check(f, g, n, rng):
    ks = {tuple(a + b for a, b in zip(l, m)) for l, _ in f.modes for m, _ in g.modes}
    ks |= {tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(3)}
    return sorted(ks)


def assert_matches_per_point(P, f, g, orb, rng):
    for k in modes_to_check(f, g, P.n, rng):
        got = al.convolve_orbit(P, f, g, orb, k)
        want = per_point(P, f, g, orb, k)
        assert got.dtype == complex and got.shape == (len(orb),)
        assert np.array_equal(got.real, want.real), (k, got, want)
        assert np.array_equal(got.imag, want.imag), (k, got, want)


@pytest.mark.parametrize("name", sorted(POLYTOPES))
def test_convolve_orbit_equals_per_point_convolve(name):
    P = POLYTOPES[name]
    rng = random.Random(f"convolve-orbit-{name}")
    bases = [su.random_interior_point(P, rng) for _ in range(12)] + BOUNDARY[name]
    # and a base point with denominator 3 * 2^70 at negative hbar
    cases = [(y0, None) for y0 in bases] + [
        ((F(1, 3) + F(1, 2 ** 70),) + (F(1, 4),) * (P.n - 1), F(-1, 8))]
    for y0, hbar in cases:
        hbar = hbar or F(rng.choice((1, -1, 1, 1)), rng.choice((4, 5, 8)))
        orb = gr.orbit(P, hbar, y0)
        f = su.random_element(P, rng, allow_h=True)
        g = su.random_element(P, rng, allow_h=True)
        assert_matches_per_point(P, f, g, orb, rng)


def test_convolve_orbit_with_coordinates_past_2_53():
    # y0 has denominator 3 * 2^55, so the numerators over it exceed 2^53 and
    # the coordinates come from Python-int division
    P = POLYTOPES["square"]
    y0 = (F(1, 3) + F(1, 2 ** 55), F(1, 2))
    orb = gr.orbit(P, F(1, 4), y0)
    assert len(orb) > 1
    assert orb.coordinates(orb.steps).tolist() == [
        [float(c) for c in p] for p in points(orb)]
    rng = random.Random(53)
    for _ in range(4):
        f = su.random_element(P, rng, allow_h=True)
        g = su.random_element(P, rng, allow_h=True)
        assert_matches_per_point(P, f, g, orb, rng)


def test_convolve_orbit_with_python_int_slacks():
    # y0 has denominator 3 * 2^70: its scaled slacks pass 2^63, so only the
    # face bounds derived from them in Python ints reach int64
    P = POLYTOPES["cp2"]
    y0 = (F(1, 3) + F(1, 2 ** 70), F(1, 4))
    orb = gr.orbit(P, F(1, 8), y0)
    assert len(orb) > 1
    rng = random.Random(63)
    for _ in range(4):
        f = su.random_element(P, rng, allow_h=True)
        g = su.random_element(P, rng, allow_h=True)
        assert_matches_per_point(P, f, g, orb, rng)


@pytest.mark.parametrize("name", ["square", "cp2"])
def test_convolve_orbit_with_modes_past_int64(name):
    # modes whose entries or pairings pass int64 join no two orbit points;
    # converting them to int64 would fail or wrap
    P = POLYTOPES[name]
    orb = gr.orbit(P, F(1, 8), (F(1, 16), F(1, 16)))
    big, wide = 2 ** 70, 2 ** 62 + 1
    f = al.element(2, {(big, 0): "1", (1, 0): "y1", (wide, wide): "y2"})
    g = al.element(2, {(-big, 1): "1", (0, 1): "y2", (-wide, 1 - wide): "y1"})
    assert_matches_per_point(P, f, g, orb, random.Random(name))


def test_coordinates_are_correctly_rounded_randomized():
    rng = random.Random(2 ** 53)
    P = POLYTOPES["square"]
    for _ in range(200):
        den = rng.choice((1, 3, 7, 2 ** 20, 3 ** 30, 2 ** 52 - 1, 2 ** 53 + 1, 2 ** 60))
        y0 = tuple(F(rng.randint(1, den - 1) if den > 1 else 0, den) for _ in range(2))
        hbar = F(rng.choice((1, -1)) * rng.randint(1, 9), rng.choice((4, 5, 2 ** 40)))
        orb = gr.Orbit(hbar, y0, np.zeros((1, 2), dtype=np.int64))
        big = rng.choice((3, 2 ** 20, 2 ** 40))
        steps = np.array([[rng.randint(-big, big) for _ in range(2)]
                          for _ in range(rng.randint(0, 6))], dtype=np.int64).reshape(-1, 2)
        got = orb.coordinates(steps)
        assert got.shape == steps.shape
        assert got.tolist() == [[float(c + hbar * s) for c, s in zip(y0, row)]
                                for row in steps.tolist()]


def test_convolve_orbit_rejects_a_non_finite_coefficient():
    P = POLYTOPES["sphere"]
    f = al.element(1, {1: "exp(2000*y1)"})    # overflows from y1 = 0.355
    g = al.element(1, {0: "1"})
    orb = gr.orbit(P, F(1, 4), (F(1, 2),))
    with pytest.raises(EvalDomainError, match=r"mode \(1,\)"):
        al.convolve_orbit(P, f, g, orb, (1,))
