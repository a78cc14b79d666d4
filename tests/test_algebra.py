"""Convolution algebra laws, involution, and the two bracket routes."""
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from torikit import algebra as al
from torikit import classical as cl
from torikit import expr as ex
from torikit import groupoid as gr
from torikit import matrixrep as mr
from torikit import polytope as pt
from torikit import suite as su
from torikit.errors import (DimensionError, DomainError, EvalDomainError, FormatError,
                            MarginError)

import fraction_oracle as oracle

F = Fraction
P = pt.interval()


def canonical_pair():
    return al.element(1, {1: "y1"}), al.element(1, {-1: "y1"})


def test_convolve_canonical_pair_hand_expansion():
    # single term l=1, m=-1: value y*(y+h)
    f, g = canonical_pair()
    for h, y in [(F(1, 4), F(1, 2)), (F(1, 8), F(1, 3)), (F(1, 16), F(3, 4))]:
        got = al.convolve(P, f, g, h, (y,), (0,))
        assert abs(got - float(y) * float(y + h)) < 1e-15


def test_convolve_unit_element_neutral():
    one = al.element(1, {0: "1"})
    g = al.element(1, {0: "y1^2", 1: "sin(y1)", -1: "cos(y1)"})
    rng = random.Random(3)
    for _ in range(30):
        h = F(rng.randint(1, 4), 16)
        y = (F(rng.randint(1, 15), 16),)
        k = (rng.randint(-1, 1),)
        assert abs(al.convolve(P, one, g, h, y, k)
                   - al.groupoid_value(P, g, h, y, k)) < 1e-15
        assert abs(al.convolve(P, g, one, h, y, k)
                   - al.groupoid_value(P, g, h, y, k)) < 1e-15


def test_convolve_disjoint_modes_additivity():
    e1 = al.element(1, {1: "1"})
    h, y = F(1, 8), (F(1, 2),)
    assert al.convolve(P, e1, e1, h, y, (2,)) == 1.0
    assert al.convolve(P, e1, e1, h, y, (0,)) == 0.0
    assert al.convolve(P, e1, e1, h, y, (1,)) == 0.0


def test_convolve_masks_invalid_factorizations():
    f, g = canonical_pair()
    # at y = 7/8 with h = 1/4 the intermediate point y + h leaves the polytope
    assert al.convolve(P, f, g, F(1, 4), (F(7, 8),), (0,)) == 0.0
    # while the reversed order is fine (intermediate y - h = 5/8)
    assert al.convolve(P, g, f, F(1, 4), (F(7, 8),), (0,)) != 0.0


def test_involution_zero_mode_conjugates():
    f = al.element(1, {0: ("y1", "1")})      # y + i
    s = al.involution(f)
    assert abs(s.coefficient((0,)).evaluate(0.25, [0.5]) - (0.5 - 1j)) < 1e-15


def test_involution_shifts_base_point():
    # (y e_1)* carries coefficient y - h on mode -1: the coefficient of the
    # inverse arrow (h, y, -1) is read at its own source y via y -> y - h
    f = al.element(1, {1: "y1"})
    s = al.involution(f)
    assert [k for k, _ in s.modes] == [(-1,)]
    got = s.coefficient((-1,)).evaluate(0.25, [0.5])
    assert abs(got - (0.5 - 0.25)) < 1e-15


def test_involution_is_involutive_randomized():
    rng = random.Random(9)
    for _ in range(40):
        f = su.random_element(P, rng, allow_h=True)
        ff = al.involution(al.involution(f))
        h = F(rng.randint(1, 4), 16)
        y = [rng.uniform(0.1, 0.9)]
        for k, _ in f.modes:
            a = al.extension_value(f, h, y, k)
            b = al.extension_value(ff, h, y, k)
            assert abs(a - b) <= 1e-12 * (1 + abs(a))


def test_star_representation_identity_on_arrows():
    # (f*)(g) = conj(f(g^{-1})) pointwise on valid arrows
    rng = random.Random(21)
    for _ in range(40):
        f = su.random_element(P, rng, allow_h=True)
        g = su.random_arrow(P, rng)
        lhs = al.groupoid_value(P, al.involution(f), g.hbar, g.y, g.k)
        inv_y = tuple(c + g.hbar * ki for c, ki in zip(g.y, g.k))
        rhs = al.groupoid_value(P, f, g.hbar, inv_y,
                                tuple(-c for c in g.k)).conjugate()
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))


def test_renormalized_commutator_exact_case():
    f, g = canonical_pair()
    for i in range(2, 11):
        h = F(1, 2) ** i
        for y in (F(3, 8), F(1, 2), F(5, 8)):
            got = al.renormalized_commutator(P, f, g, h, (y,), (0,))
            assert abs(got - (-2j * float(y))) <= 1e-12


def test_renormalized_commutator_rejects_zero():
    f, g = canonical_pair()
    with pytest.raises(DomainError):
        al.renormalized_commutator(P, f, g, 0, (F(1, 2),), (0,))


def test_commutator_same_element_vanishes():
    f = al.element(1, {0: "y1", 1: "sin(y1)"})
    assert al.commutator(P, f, f, F(1, 8), (F(1, 2),), (0,)) == 0.0


def test_commutator_mode_zero_pair_vanishes():
    f = al.element(1, {0: "y1^2"})
    g = al.element(1, {0: "exp(y1)"})
    rng = random.Random(17)
    for _ in range(20):
        h = F(rng.randint(1, 8), 32)
        y = (F(rng.randint(1, 31), 32),)
        assert al.commutator(P, f, g, h, y, (0,)) == 0.0


def test_symbolic_bracket_hand_value():
    f, g = canonical_pair()
    assert abs(al.symbolic_bracket(f, g, (0.5,), (0,)) - (-1j)) < 1e-15
    # mode-0-only pair brackets to zero
    a = al.element(1, {0: "y1^3"})
    b = al.element(1, {0: "sin(y1)"})
    assert al.symbolic_bracket(a, b, (0.5,), (0,)) == 0.0


def test_symbolic_bracket_bilinear():
    rng = random.Random(31)
    for _ in range(25):
        f = su.random_element(P, rng)
        g = su.random_element(P, rng)
        h = su.random_element(P, rng)
        y = [rng.uniform(0.2, 0.8)]
        k = (rng.randint(-2, 2),)
        lhs = al.symbolic_bracket(f + g, h, y, k)
        rhs = al.symbolic_bracket(f, h, y, k) + al.symbolic_bracket(g, h, y, k)
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))
        scaled = f.scaled(F(3, 2))
        assert abs(al.symbolic_bracket(scaled, h, y, k)
                   - 1.5 * al.symbolic_bracket(f, h, y, k)) <= 1e-10


def test_numeric_limit_exact_case_reports_exact():
    f, g = canonical_pair()
    hs = [F(1, 2) ** i for i in range(2, 11)]
    lim = al.numeric_bracket_limit(P, f, g, (F(1, 2),), (0,), hs)
    assert lim.order == "exact"
    assert abs(lim.estimate - (-1j)) <= 1e-12


def test_numeric_limit_sin_pair_matches_symbolic():
    f = al.element(1, {1: "sin(y1)"})
    g = al.element(1, {-1: "1"})
    hs = [F(1, 2) ** i for i in range(4, 11)]
    lim = al.numeric_bracket_limit(P, f, g, (F(1, 2),), (0,), hs)
    sym = al.symbolic_bracket(f, g, (0.5,), (0,))
    assert abs(lim.estimate - sym) <= 1e-8
    assert isinstance(lim.order, float) and lim.order > 0.9


def test_numeric_limit_commuting_pair_zero():
    a = al.element(1, {0: "y1"})
    b = al.element(1, {0: "y1^2"})
    hs = [F(1, 2) ** i for i in range(3, 8)]
    lim = al.numeric_bracket_limit(P, a, b, (F(1, 2),), (0,), hs)
    assert lim.order == "exact" and lim.estimate == 0.0


def test_numeric_limit_one_hbar_is_its_value_not_exact():
    f = al.element(1, {1: "sin(y1)"})
    g = al.element(1, {-1: "1"})
    lim = al.numeric_bracket_limit(P, f, g, (F(1, 2),), (0,), [F(1, 16)])
    assert isinstance(lim.order, float) and math.isnan(lim.order)
    assert lim.estimate == lim.table[0]["value"]


def sweep_oracle(hs, values):
    """The extrapolant column and the median order of a sweep, recomputed
    index by index from its values: the two-level formula between each
    hbar and the one before it, and the log-ratio of the two differences
    at each inner node where both exceed the threshold."""
    extrapolated = [values[0]]
    for i in range(1, len(hs)):
        h0, h1 = float(hs[i - 1]), float(hs[i])
        extrapolated.append((h0 * values[i] - h1 * values[i - 1]) / (h0 - h1))
    diffs = [abs(values[i + 1] - values[i]) for i in range(len(values) - 1)]
    orders = sorted(math.log(diffs[i - 1] / diffs[i]) / math.log(float(hs[i - 1] / hs[i]))
                    for i in range(1, len(diffs))
                    if diffs[i - 1] > al.EXACT_THRESHOLD and diffs[i] > al.EXACT_THRESHOLD)
    return extrapolated, orders[len(orders) // 2] if orders else math.nan


@pytest.mark.parametrize("hs", [
    [F(1, 2) ** i for i in range(4, 11)],
    [F(1, 16), F(1, 32)],                   # no inner node: order nan
    [F(1, 8), F(1, 24), F(1, 40)],          # one inner node, uneven ratios
], ids=["seven", "two", "three"])
def test_numeric_limit_table_and_order_follow_from_the_values(hs):
    f = al.element(1, {1: "sin(y1)"})
    g = al.element(1, {-1: "1"})
    lim = al.numeric_bracket_limit(P, f, g, (F(1, 2),), (0,), hs)
    values = [row["value"] for row in lim.table]
    assert values == [al.renormalized_commutator(P, f, g, h, (F(1, 2),), (0,)) for h in hs]
    extrapolated, order = sweep_oracle(hs, values)
    # the scalar route's limit, and the engine called on its values directly
    for got in (lim, al.extrapolate(hs, values)):
        assert all(row.keys() == {"hbar", "value", "extrapolated"} for row in got.table)
        assert [row["hbar"] for row in got.table] == hs
        assert [row["value"] for row in got.table] == values
        assert [row["extrapolated"] for row in got.table] == extrapolated
        assert isinstance(got.order, float)
        if len(hs) == 2:
            assert math.isnan(got.order) and math.isnan(order)
        else:
            assert got.order == order and got.order > 0.9
        assert got.estimate == al.neville_to_zero(hs, values)


@pytest.mark.parametrize("k", [(1,), (1, 0, 0)])
def test_a_mode_of_the_wrong_length_is_refused(k):
    # a short mode matched no coefficient (0j) and a long one was cut to
    # the dimension by zip
    golden = Path(__file__).parent / "golden"
    cp2 = pt.projective_space(2)
    f, g = (al.load_observable(golden / f"obs_cp2_{c}.json", 2) for c in "fg")
    y = (F(1, 4), F(1, 4))
    hs = [F(1, 16), F(1, 32), F(1, 64)]
    calls = [lambda: al.convolve(cp2, f, g, F(1, 16), y, k),
             lambda: al.symbolic_bracket(f, g, y, k),
             lambda: al.extension_value(f, F(1, 16), y, k),
             lambda: al.numeric_bracket_limit(cp2, f, g, y, k, hs),
             lambda: mr.bracket_via_matrices(cp2, f, g, y, k, hs),
             lambda: f.coefficient(k),
             lambda: pt.mode_pairings(cp2, k),
             lambda: gr.orbit(cp2, F(1, 16), y).targets(k)]
    for call in calls:
        with pytest.raises(DimensionError, match=f"mode has {len(k)} entries, expected 2"):
            call()


def test_numeric_limit_validates_hbar_list():
    f, g = canonical_pair()
    for limit in (al.numeric_bracket_limit, mr.bracket_via_matrices):
        with pytest.raises(DomainError):
            limit(P, f, g, (F(1, 2),), (0,), [F(1, 4), F(1, 2)])
        with pytest.raises(DomainError):
            limit(P, f, g, (F(1, 2),), (0,), [])


def test_numeric_limit_margin_guard_names_offender():
    f, g = canonical_pair()
    with pytest.raises(MarginError) as info:
        al.numeric_bracket_limit(P, f, g, (F(15, 16),), (0,), [F(1, 4), F(1, 8)])
    assert "19/16" in str(info.value)  # y + hbar_max * 1


def margin_message(P, f, g, y, hbar):
    try:
        al.check_margin(P, f, g, y, hbar)
    except MarginError as exc:
        return str(exc)
    return None


def test_margin_check_matches_the_displacement_set_oracle():
    # per-facet least pairings against every displacement's point in
    # Fractions: the same verdict and, on failure, the same offender
    checked = {None: 0, "fail": 0}
    for name, Q in [("sphere", P), ("square", pt.square()), ("cp2", pt.projective_space(2))]:
        rng = random.Random(f"margin-{name}")
        for _ in range(400):
            f, g = (al.element(Q.n, {tuple(rng.randint(-4, 4) for _ in range(Q.n)): "1"
                                     for _ in range(rng.randint(0, 5))})
                    for _ in range(2))
            den = rng.choice((4, 7, 8, 16, 48))
            y = tuple(F(rng.randint(-1, den + 1), den) for _ in range(Q.n))
            hbar = F(rng.choice((1, 1, 1, -1)) * rng.randint(1, 3), rng.choice((8, 24, 64)))
            want = oracle.margin_error(Q, f, g, y, hbar)
            assert margin_message(Q, f, g, y, hbar) == want, (name, f, g, y, hbar)
            checked[None if want is None else "fail"] += 1
    assert min(checked.values()) >= 200


def test_margin_failure_names_the_oracle_offender_among_ties():
    # many modes on few pairings: each facet's prefix maxima hold long runs
    # of equal values, and each l's first offending m sits among ties
    checked = 0
    for name, Q in [("square", pt.square()), ("cp2", pt.projective_space(2))]:
        rng = random.Random(f"margin-ties-{name}")
        for _ in range(150):
            f, g = (al.element(2, {(rng.randint(-3, 3), rng.randint(-3, 3)): "1"
                                   for _ in range(rng.randint(1, 30))})
                    for _ in range(2))
            y = (F(rng.randint(1, 7), 8), F(rng.randint(1, 3), 8))
            hbar = F(rng.choice((1, -1)), rng.choice((8, 16, 24)))
            want = oracle.margin_error(Q, f, g, y, hbar)
            assert margin_message(Q, f, g, y, hbar) == want, (name, f, g, y, hbar)
            checked += want is not None and "intermediate point" in want
    assert checked >= 200


def test_margin_check_reads_each_mode_once_on_the_pass_path(monkeypatch):
    # 1,099 modes each way: 1.2 million pair sums for 2,197 distinct
    # displacements when every pair was added to a set
    count = 1099
    f = al.element(1, {i: "y1" for i in range(1, count + 1)})
    g = al.element(1, {-i: "y1" for i in range(1, count + 1)})
    calls = []
    real = al.mode_pairings
    monkeypatch.setattr(al, "mode_pairings", lambda P, k: calls.append(k) or real(P, k))
    al.check_margin(P, f, g, (F(1, 2),), F(1, 100000))
    assert 0 < len(calls) <= 2 * count


def test_products_past_float_range_raise():
    # each factor is finite; at y = 1/2, hbar = 1/4 the product f.g is
    # 10^400 in the first case, and -5e307 in the second, where g.f is 0 and
    # the renormalized commutator 4 * 5e307 * i is not finite
    y, hbar = (F(1, 2),), F(1, 4)
    f = al.element(1, {1: "10^200"})
    with pytest.raises(EvalDomainError, match=(
            r"^product at mode \(0,\) is not finite at \(1/2\), hbar = 1/4$")):
        al.convolve(P, f, al.element(1, {-1: "10^200"}), hbar, y, (0,))
    f = al.element(1, {1: "10^308"})
    g = al.element(1, {-1: "1 - 2*y1"})
    assert al.convolve(P, f, g, hbar, y, (0,)) == -5e307
    with pytest.raises(EvalDomainError, match=(
            r"^renormalized commutator at mode \(0,\) is not finite at \(1/2\), "
            r"hbar = 1/4$")):
        al.renormalized_commutator(P, f, g, hbar, y, (0,))


def test_mode_zero_pair_renormalized_commutator_identically_zero():
    # zero-fiber functions commute: mode-0 elements have vanishing commutator
    rng = random.Random(23)
    for _ in range(20):
        a = al.element(1, {0: ex.ComplexExpr(
            ex.parse("y1^2 + h", 1), ex.parse("y1", 1))})
        b = al.element(1, {0: ex.ComplexExpr(
            ex.parse("sin(y1)*h", 1), ex.parse("2", 1))})
        h = F(rng.randint(1, 16), 64)
        y = (F(rng.randint(1, 63), 64),)
        assert al.commutator(P, a, b, h, y, (0,)) == 0.0


def test_observable_json_roundtrip(tmp_path):
    f = al.element(1, {1: ("y1", "1/2"), -1: "sqrt(y1*(1 - y1))"})
    doc = al.observable_to_dict(f)
    path = tmp_path / "obs.json"
    import json
    path.write_text(json.dumps(doc))
    g = al.load_observable(path, 1)
    assert g == f


@pytest.mark.parametrize("item", [
    {"k": [0], "re": 0.1}, {"k": [0], "im": 0.5}, {"k": [0], "re": True},
    {"k": [0], "re": "y1", "im": False},
], ids=["float-re", "float-im", "bool-re", "bool-im"])
def test_observable_json_refuses_inexact_coefficients(item):
    with pytest.raises(FormatError, match="exact"):
        al.observable_from_dict({"modes": [item]}, 1)


def test_observable_json_without_a_mode_is_refused():
    with pytest.raises(FormatError, match="^bad observable document: 'k'$"):
        al.observable_from_dict({"modes": [{"re": "1"}]}, 1)


def test_element_refuses_a_mode_of_the_wrong_length_and_a_float():
    with pytest.raises(DimensionError, match=r"^mode has 2 entries, expected 1$"):
        al.element(1, {(1, 2): "1"})
    # a bare float and a float inside an (re, im) pair break one rule
    for value in (0.5, (0.5, "0")):
        with pytest.raises(FormatError, match="^coefficients must be exact .*got float$"):
            al.element(1, {(1,): value})


def test_element_refuses_a_mode_entry_that_is_not_an_integer():
    # int() truncated the key (1.5,) to mode (1,)
    with pytest.raises(FormatError, match=r"^bad mode \(1\.5,\): "):
        al.element(1, {(1.5,): "1"})


def test_every_product_refuses_elements_over_different_dimensions():
    f, g = al.element(1, {0: "1"}), al.element(2, {(0, 0): "1"})
    orb = gr.orbit(P, F(1, 4), (F(1, 8),))
    calls = [lambda: f + g, lambda: f - g,
             lambda: al.convolve(P, f, g, F(1, 4), (F(1, 8),), (0,)),
             lambda: al.bracket_element(f, g),
             lambda: al.pointwise_product_at_zero(f, g),
             lambda: mr.convolve_orbit(P, f, g, orb),
             lambda: cl.poisson_bracket_aa_at(f, g, (F(1, 2),))]
    for call in calls:
        with pytest.raises(DomainError, match="^elements live over different dimensions$"):
            call()


def test_exact_numeric_coefficients_stay_accepted():
    doc = {"modes": [{"k": [0], "re": 3, "im": "1/4"}]}
    assert al.observable_from_dict(doc, 1) == al.element(1, {0: (F(3), F(1, 4))})
    assert al.element(1, {0: F(1, 3)}) == al.element(1, {0: "1/3"})


# ---------------------------------------------------------------------------
# the zero-fiber constructions against per-pair reference implementations

def bracket_element_per_pair(f, g):
    """Reference: restricts and differentiates inside the (l, m) pair loop."""
    n = f.n
    acc = {}
    for l, cf in f.modes:
        cf0 = cf.subs_h(0)
        for m, cg in g.modes:
            cg0 = cg.subs_h(0)
            k = tuple(a + b for a, b in zip(l, m))
            term = ex.ComplexExpr.zero()
            for i in range(1, n + 1):
                li, mi = l[i - 1], m[i - 1]
                if li:
                    term = term + (cf0 * cg0.d_dy(i)).scaled(li)
                if mi:
                    term = term - (cg0 * cf0.d_dy(i)).scaled(mi)
            if term.is_zero_tree():
                continue
            acc[k] = acc[k] + term if k in acc else term
    out = {k: c.scaled(0, -1) for k, c in acc.items()}
    return al.AlgebraElement(n, tuple(sorted(out.items())))


def pointwise_product_at_zero_per_pair(f, g):
    """Reference: restricts the second factor once per (l, m) pair."""
    acc = {}
    for l, cf in f.modes:
        cf0 = cf.subs_h(0)
        for m, cg in g.modes:
            k = tuple(a + b for a, b in zip(l, m))
            term = cf0 * cg.subs_h(0)
            acc[k] = acc[k] + term if k in acc else term
    return al.AlgebraElement(f.n, tuple(sorted(acc.items())))


@pytest.mark.parametrize("name", ["sphere", "square", "cp2"])
def test_zero_fiber_constructions_match_per_pair_reference(name):
    Q = pt.load_polytope(Path(pt.__file__).parent / "data" / f"{name}.json")
    rng = random.Random(41)
    for _ in range(30):
        max_mode, n_modes = rng.randint(1, 2), rng.randint(1, 4)
        f = su.random_element(Q, rng, max_mode, n_modes, allow_h=True)
        g = su.random_element(Q, rng, max_mode, n_modes, allow_h=True)
        full_b = al.bracket_element(f, g)
        full_p = al.pointwise_product_at_zero(f, g)
        assert full_b == bracket_element_per_pair(f, g)
        assert full_p == pointwise_product_at_zero_per_pair(f, g)
        # modes=: the full construction restricted to the set, tree for tree
        # (fresh elements, so no memo is shared with the full run)
        candidates = sorted({k for k, _ in full_b.modes} | {k for k, _ in full_p.modes}
                            | {tuple(rng.randint(-3, 3) for _ in range(Q.n))
                               for _ in range(3)})
        for _ in range(3):
            keep = set(rng.sample(candidates, rng.randint(0, len(candidates))))
            f2, g2 = al.AlgebraElement(f.n, f.modes), al.AlgebraElement(g.n, g.modes)
            assert (al.bracket_element(f2, g2, modes=keep).modes
                    == tuple((k, c) for k, c in full_b.modes if k in keep))
            assert (al.pointwise_product_at_zero(f2, g2, modes=keep).modes
                    == tuple((k, c) for k, c in full_p.modes if k in keep))
        # the unit is neutral on restrictions: f + f* restricted is its own
        # product with 1 (the classical battery builds real functions so)
        real = (f + al.involution(f)).subs_h_zero()
        one = al.element(Q.n, {(0,) * Q.n: "1"})
        assert al.pointwise_product_at_zero(one, real) == real


@pytest.mark.parametrize("name", ["sphere", "square", "cp2"])
def test_zero_fiber_results_are_their_own_restriction(name):
    # rebuilding an h-free tree made by the smart constructors gives back the
    # same tree, so these elements skip the second walk in subs_h_zero
    Q = pt.load_polytope(Path(pt.__file__).parent / "data" / f"{name}.json")
    rng = random.Random(f"own-restriction-{name}")
    for _ in range(12):
        max_mode, n_modes = rng.randint(1, 2), rng.randint(1, 4)
        f, g, h = (su.random_element(Q, rng, max_mode, n_modes, allow_h=True)
                   for _ in range(3))
        made = [f.subs_h_zero(), al.bracket_element(f, g),
                al.pointwise_product_at_zero(f, g)]
        made += [al.bracket_element(made[1], h), al.pointwise_product_at_zero(h, made[1]),
                 al.bracket_element(f, made[2])]
        for e in made:
            assert e.subs_h_zero() is e
            for _, c in e.modes:
                assert ex.subs_h(c.re, 0) == c.re and ex.subs_h(c.im, 0) == c.im
                assert c.subs_h(0) == c
        # and the restriction of a fresh copy still rebuilds the same element
        for e in made:
            assert al.AlgebraElement(e.n, e.modes).subs_h_zero() == e


def test_derivative_memo_is_filled_once_per_mode_and_axis(monkeypatch):
    f = al.element(2, {(1, 0): "y1*y2", (0, -1): "sin(y2) + h*y1"})
    g = al.element(2, {(0, 1): "y1^2", (-1, 1): ("y2", "y1")})
    seen = []
    real = ex.d_dy
    monkeypatch.setattr(ex, "d_dy", lambda e, i: seen.append(i) or real(e, i))
    f0 = f.subs_h_zero()
    first = f0.derivative((1, 0), 2)
    assert first == f0.coefficient((1, 0)).d_dy(2)
    assert f0.derivative((1, 0), 2) is first
    count = len(seen)
    al.bracket_element(f, g)
    after = len(seen)
    assert after > count and f0.derivative((1, 0), 2) is first
    al.bracket_element(f, g)        # the second bracket reads the memo only
    assert len(seen) == after
