"""Every public entry point refuses a malformed input through the rule's one
owner (the table in the `polytope` docstring): the owner's error class and
its one text, never a bare Python exception, a value computed from part of
the input, or a message that blames another argument."""
import math
from fractions import Fraction

import numpy as np
import pytest

from torikit import algebra as al
from torikit import classical as cl
from torikit import delzant as dz
from torikit import groupoid as gr
from torikit import matrixrep as mr
from torikit import polytope as pt
from torikit.errors import DimensionError, EvalDomainError, FormatError

F = Fraction
P = pt.square()
SYS = dz.build_system(P)
f = al.element(2, {(1, 0): "y1", (0, 1): ("y2", "1"), (0, 0): "y1*y2"})
g = al.element(2, {(-1, 0): "y2", (0, -1): "1 + y1", (1, 1): "y1"})
# an interior point that stays interior at every step of a sweep at 1/16
VALID = {"y": (F(1, 4), F(3, 8)), "k": (1, 0), "hbar": F(1, 16), "theta": (0.3, -1.1)}
VALID["z"] = dz.sigma(SYS, VALID["y"])

# each entry point: a call on the inputs by name, and the inputs it reads
ENTRY_POINTS = {
    "extension_value": (lambda y, k, hbar, theta, z: al.extension_value(f, hbar, y, k),
                        "y k hbar"),
    "symbolic_bracket": (lambda y, k, hbar, theta, z: al.symbolic_bracket(f, g, y, k), "y k"),
    "poisson_bracket_aa": (lambda y, k, hbar, theta, z: cl.poisson_bracket_aa(f, g, y, theta),
                           "y theta"),
    "poisson_bracket_aa_mode": (
        lambda y, k, hbar, theta, z: cl.poisson_bracket_aa_mode(f, g, y, k), "y k"),
    "synthesize": (lambda y, k, hbar, theta, z: cl.synthesize(P, f, y, theta), "y theta"),
    "convolve": (lambda y, k, hbar, theta, z: al.convolve(P, f, g, hbar, y, k), "y k hbar"),
    "groupoid_value": (lambda y, k, hbar, theta, z: al.groupoid_value(P, f, hbar, y, k),
                       "y k hbar"),
    "numeric_bracket_limit": (
        lambda y, k, hbar, theta, z: al.numeric_bracket_limit(P, f, g, y, k, [hbar]),
        "y k hbar"),
    "bracket_via_matrices": (
        lambda y, k, hbar, theta, z: mr.bracket_via_matrices(P, f, g, y, k, [hbar]),
        "y k hbar"),
    "orbit": (lambda y, k, hbar, theta, z: gr.orbit(P, hbar, y), "y hbar"),
    # an arrow's n is its point's length, so only a coordinate can be bad
    "arrow": (lambda y, k, hbar, theta, z: gr.arrow(hbar, y, k), "coordinate k hbar"),
    "sigma": (lambda y, k, hbar, theta, z: dz.sigma(SYS, y), "y"),
    "k_sigma_ambient": (lambda y, k, hbar, theta, z: dz.k_sigma_ambient(SYS, z, k), "k z"),
    "act_torus": (lambda y, k, hbar, theta, z: dz.act_torus(SYS, theta, z), "theta z"),
    # the square's reduction torus has dimension 4 - 2 = 2 too
    "act_subtorus": (lambda y, k, hbar, theta, z: dz.act_subtorus(SYS, theta, z), "theta z"),
    "J0": (lambda y, k, hbar, theta, z: dz.J0(SYS, z), "z"),
    "Jd": (lambda y, k, hbar, theta, z: dz.Jd(SYS, z), "z"),
    "reduced_level_defect": (lambda y, k, hbar, theta, z: dz.reduced_level_defect(SYS, z), "z"),
}

BAD_RATIONAL = FormatError, "bad rational '1/0': Fraction(1, 0)"
# name: (the input, the rules it falls under, its value, error class, text)
BAD_INPUTS = {
    "short-point": ("y", "y", ("1/4",), DimensionError,
                    "point has 1 coordinates, expected 2"),
    "long-point": ("y", "y", ("1/4", "3/8", "1/2"), DimensionError,
                   "point has 3 coordinates, expected 2"),
    "coordinate-1/0": ("y", "y coordinate", ("1/0", "3/8"), *BAD_RATIONAL),
    "coordinate-x": ("y", "y coordinate", ("x", "3/8"), FormatError,
                     "bad rational 'x': Invalid literal for Fraction: 'x'"),
    # a one-shot iterator: the bad coordinate is named, not skipped
    "coordinate-1/0-iterator": ("y", "y coordinate", lambda: iter(("1/0", "3/8")),
                                *BAD_RATIONAL),
    "short-mode": ("k", "k", (1,), DimensionError, "mode has 1 entries, expected 2"),
    "long-mode": ("k", "k", (1, 0, 0), DimensionError, "mode has 3 entries, expected 2"),
    "float-mode": ("k", "k", (1.0, 0), FormatError,
                   "bad mode (1.0, 0): 'float' object cannot be interpreted as an integer"),
    "short-theta": ("theta", "theta", (0.3,), DimensionError,
                    "angle vector has 1 components, expected 2"),
    "long-theta": ("theta", "theta", (0.3, -1.1, 0.5), DimensionError,
                   "angle vector has 3 components, expected 2"),
    "angle-x": ("theta", "theta", ("x", -1.1), FormatError,
                "bad angle 'x': could not convert string to float: 'x'"),
    "angle-none": ("theta", "theta", (0.3, None), FormatError,
                   "bad angle None: float() argument must be a string or a real number, "
                   "not 'NoneType'"),
    "hbar-1/0": ("hbar", "hbar", "1/0", *BAD_RATIONAL),
    # the square's ambient space is C^4
    "short-z": ("z", "z", (1, 1), DimensionError, "ambient vector has shape (2,), expected (4,)"),
    "long-z": ("z", "z", (1, 1, 1, 1, 1), DimensionError,
               "ambient vector has shape (5,), expected (4,)"),
    "matrix-z": ("z", "z", ((1, 1), (1, 1)), DimensionError,
                 "ambient vector has shape (2, 2), expected (4,)"),
}

# each entry point crossed with every malformed input it reads: 126 pairs
SWEEP = [(entry, bad) for entry, (_, reads) in ENTRY_POINTS.items()
         for bad, (_, rules, *_) in BAD_INPUTS.items()
         if set(rules.split()) & set(reads.split())]


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_accepts_the_valid_inputs(entry):
    call, _ = ENTRY_POINTS[entry]
    call(**VALID)


@pytest.mark.parametrize("entry, bad", SWEEP, ids=[f"{e}-{b}" for e, b in SWEEP])
def test_a_malformed_input_gets_its_owners_class_and_text(entry, bad):
    call, _ = ENTRY_POINTS[entry]
    name, _, value, error, text = BAD_INPUTS[bad]
    with pytest.raises(error) as exc:
        call(**{**VALID, name: value() if callable(value) else value})
    assert type(exc.value) is error
    assert str(exc.value) == text


def test_a_float_point_keeps_its_bits():
    # every float is a rational, and float(Fraction(x)) == x
    y = (0.1, math.pi / 8)
    assert [float(F(c)) for c in y] == list(y)
    assert al.extension_value(f, 0, y, (0, 0)) == f.coefficient((0, 0)).evaluate(0.0, y)
    theta = VALID["theta"]
    assert cl.poisson_bracket_aa(f, g, y, theta) == cl.poisson_bracket_aa(
        f, g, tuple(map(F, y)), theta)


@pytest.mark.parametrize("value, text", [
    ("1/0", "bad rational '1/0': Fraction(1, 0)"),
    (float("nan"), "bad rational nan: cannot convert NaN to integer ratio"),
    (float("inf"), "bad rational inf: cannot convert Infinity to integer ratio"),
    (None, "bad rational None: argument should be a string or a Rational instance"),
])
def test_rational_refuses_what_is_not_an_exact_rational(value, text):
    with pytest.raises(FormatError) as exc:
        pt.rational(value)
    assert str(exc.value) == text


def test_rational_and_ratpoint_pass_a_fraction_through():
    h = F(1, 3)
    assert pt.rational(h) is h
    assert pt.ratpoint((h, "1/2", 0.5, 2)) == (h, F(1, 2), F(1, 2), F(2))
    assert pt.ratpoint((h,))[0] is h


def test_valid_angles_keep_their_float_bits():
    theta = (0.1, F(1, 3), 2, "0.5", np.float64(math.pi), -0.0)
    got = pt.angles(theta, len(theta))
    assert [a.hex() for a in got] == [float(t).hex() for t in theta]
    assert all(type(a) is float for a in got)


def test_orthant_level_defect_reads_its_vector():
    # d = 0: the defect is 0 on every vector of C^2, and no other vector
    sys = dz.build_system(pt.orthant(2))
    assert dz.reduced_level_defect(sys, [1, 1j]) == 0.0
    with pytest.raises(DimensionError, match=r"ambient vector has shape \(1,\), expected \(2,\)"):
        dz.reduced_level_defect(sys, [1])


# the interval [0, 10^401]: its point 10^400 is inside, and past float range
BIG = pt.polytope_from_dict({"n": 1, "facets": [
    {"normal": [1], "offset": "0"}, {"normal": [-1], "offset": str(-10 ** 401)}]})
f1, g1 = al.element(1, {1: "y1", 0: "1"}), al.element(1, {-1: "y1"})
H = F(1, 16)
# each entry point that evaluates a coefficient at its point y
EVALUATE_AT_Y = {
    "extension_value": lambda y: al.extension_value(f1, H, y, (1,)),
    "symbolic_bracket": lambda y: al.symbolic_bracket(f1, g1, y, (0,)),
    "poisson_bracket_aa": lambda y: cl.poisson_bracket_aa(f1, g1, y, (0.3,)),
    "poisson_bracket_aa_mode": lambda y: cl.poisson_bracket_aa_mode(f1, g1, y, (0,)),
    "synthesize": lambda y: cl.synthesize(BIG, f1, y, (0.3,)),
    "convolve": lambda y: al.convolve(BIG, f1, g1, H, y, (0,)),
    "groupoid_value": lambda y: al.groupoid_value(BIG, f1, H, y, (1,)),
    "numeric_bracket_limit": lambda y: al.numeric_bracket_limit(BIG, f1, g1, y, (0,), [H]),
}


@pytest.mark.parametrize("entry", sorted(EVALUATE_AT_Y))
def test_a_point_past_float_range_gets_the_conversion_owners_error(entry):
    with pytest.raises(EvalDomainError) as exc:
        EVALUATE_AT_Y[entry]((F(10 ** 400),))
    assert type(exc.value) is EvalDomainError
    assert str(exc.value) == "an input lies past float range"
