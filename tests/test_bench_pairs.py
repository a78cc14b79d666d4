"""The summary `tools/bench_pairs.py` prints for one metric: quartiles,
wins (ties count for neither), relative change and verdict."""
import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).parents[1] / "tools" / "bench_pairs.py")
bp = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bp)


def test_a_gain_needs_ten_pairs_nine_wins_and_a_gap_past_the_parents_spread():
    pairs = [(100 + i, 110 + i) for i in range(9)] + [(100, 100)]     # one tie
    s = bp.summarize(pairs, "higher", 0.2)
    assert s["wins"] == 9 and s["verdict"] == "gain"
    assert s["parent"] == pytest.approx((101.25, 103.5, 105.75))
    assert s["rel"] == pytest.approx(113.5 / 103.5 - 1)
    # the same gap on nine pairs, or with two ties, is no gain
    assert bp.summarize(pairs[:9], "higher", 0.2)["verdict"] == "within bound"
    assert bp.summarize(pairs[:8] + [(100, 100)] * 2, "higher", 0.2)["verdict"] == "within bound"
    # a gap inside the parent's interquartile spread is no gain
    wide = [(100 + 10 * i, 101 + 10 * i) for i in range(10)]
    assert bp.summarize(wide, "higher", 0.2)["verdict"] == "within bound"


def test_lower_is_better_and_a_loss_past_the_bound_is_named():
    s = bp.summarize([(10.0, 8.0)] * 10, "lower", 0.25)
    assert s["wins"] == 10 and s["rel"] == pytest.approx(-0.2)
    assert s["verdict"] == "gain"
    s = bp.summarize([(10.0, 13.0), (10.5, 13.5)], "lower", 0.25)
    assert s["wins"] == 0 and s["verdict"] == "worse than bound"
    s = bp.summarize([(10.0, 7.0)], "higher", 0.2)
    assert s["parent"] == (10.0, 10.0, 10.0) and s["verdict"] == "worse than bound"
