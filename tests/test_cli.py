"""The command-line front-end, driven through cli.main."""
import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import torikit
from torikit import algebra as al
from torikit import cli
from torikit import matrixrep as mr

DATA = Path(torikit.__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
SHIPPED = ["sphere", "square", "cp2", "orthant2"]


def run(argv, tmp_path, name="out.csv"):
    out = tmp_path / name
    rc = cli.main(argv + ["--out", str(out)])
    return rc, out.read_text() if out.exists() else None


def test_groupoid_orbit_golden(tmp_path):
    rc, text = run(["groupoid", "orbit", str(DATA / "cp2.json"),
                    "--hbar", "1/4", "--point", "1/8,1/8"], tmp_path)
    assert rc == 0
    assert text == (GOLDEN / "orbit_cp2_hbar1-4.csv").read_text()


@pytest.mark.parametrize("golden, argv", [
    ("orbit_cp2_hbar-1-6.csv", [DATA / "cp2.json", "--hbar=-1/6", "--point", "3/5,1/5"]),
    # base point on the facet y1 = 0
    ("orbit_square_facet_hbar1-10.csv",
     [DATA / "square.json", "--hbar", "1/10", "--point", "0,3/20"]),
    # y0 = 3/5 + 2^-62: denominator past 2^53, slacks past int64
    ("orbit_sphere_exact_hbar1-40.csv",
     [DATA / "sphere.json", "--hbar", "1/40", "--point",
      "13835058055282163717/23058430092136939520"]),
    # the square [-1, 1]^2 from the facet y1 = -1: negative coordinates
    ("orbit_square_pm1_facet_hbar-1-6.csv",
     [GOLDEN / "square_pm1.json", "--hbar=-1/6", "--point=-1,1/3"]),
], ids=["cp2-negative-hbar", "square-facet", "sphere-past-2^53",
        "square-pm1-negative-coordinates"])
def test_groupoid_orbit_goldens(tmp_path, golden, argv):
    rc, text = run(["groupoid", "orbit", str(argv[0])] + argv[1:], tmp_path)
    assert rc == 0
    assert text == (GOLDEN / golden).read_text()


def test_groupoid_orbit_is_deterministic(tmp_path):
    argv = ["groupoid", "orbit", str(DATA / "square.json"),
            "--hbar=-1/12", "--point", "0,5/24"]
    rc1, first = run(argv, tmp_path, "a.csv")
    rc2, second = run(argv, tmp_path, "b.csv")
    assert rc1 == rc2 == 0
    assert first == second
    assert "size=12" in first.splitlines()[0]


@pytest.mark.parametrize("extra", [
    ["--hbar", "1/100", "--point", "1/200,1/200", "--cap", "10"],
    ["--hbar", "0", "--point", "1/8,1/8"],
    ["--hbar", "1/4", "--point", "1,1"],
    ["--hbar", "1/4", "--hbar", "1/8", "--point", "1/8,1/8"],
], ids=["cap", "hbar-zero", "point-outside", "two-hbars"])
def test_groupoid_orbit_bad_input_exits_2(tmp_path, extra):
    rc, text = run(["groupoid", "orbit", str(DATA / "cp2.json")] + extra, tmp_path)
    assert rc == 2
    assert text is None


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_groupoid_orbit_cap_below_1_exits_2(tmp_path, capsys, cap):
    rc, text = run(["groupoid", "orbit", str(DATA / "cp2.json"), "--hbar", "1/4",
                    "--point", "1/8,1/8", f"--cap={cap}"], tmp_path)
    assert rc == 2
    assert text is None
    assert capsys.readouterr().err == f"input error: --cap must be at least 1, got {cap}\n"


def test_groupoid_orbit_box_past_int64_exits_2(tmp_path, capsys):
    # a vertex of the square at hbar 2^-40: a candidate box of 2^80 points
    rc, text = run(["groupoid", "orbit", str(DATA / "square.json"),
                    "--hbar", "1/1099511627776", "--point", "0,0", "--cap", "10"],
                   tmp_path)
    assert rc == 2
    assert text is None
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and "too large for int64" in err


def test_groupoid_orbit_outside_point_prints_p_over_q(tmp_path, capsys):
    rc, text = run(["groupoid", "orbit", str(DATA / "sphere.json"), "--hbar=1/4",
                    "--point=3/2"], tmp_path)
    assert (rc, text) == (2, None)
    assert capsys.readouterr().err == "error: base point (3/2) lies outside the polytope\n"


@pytest.mark.parametrize("argv", [
    ["groupoid", "orbit", str(DATA / "cp2.json"), "--hbar", "-1/6",
     "--point", "3/5,1/5"],
    ["groupoid", "orbit", str(GOLDEN / "square_pm1.json"), "--hbar", "-1/6",
     "--point", "-1,1/3"],
    ["quantize", "spectra", str(DATA / "sphere.json"),
     "--obs", str(GOLDEN / "obs_sphere_herm.json"), "--hbar", "-1/11"],
    ["quantize", "spectra", str(GOLDEN / "square_pm1.json"),
     "--obs", str(GOLDEN / "obs_cp2_herm.json"), "--hbar", "1/4",
     "--point", "-1/2,1/4"],
    ["quantize", "bracket-limit", str(GOLDEN / "square_pm1.json"),
     "--obs", str(GOLDEN / "obs_cp2_f.json"), "--obs2", str(GOLDEN / "obs_cp2_g.json"),
     "--point", "-1/2,1/4", "--mode", "-1,0"],
], ids=["orbit-hbar", "orbit-point", "spectra-hbar", "spectra-point",
        "bracket-limit-point-mode"])
def test_negative_value_as_its_own_argument(tmp_path, argv):
    # `--opt -1/2` reads like `--opt=-1/2`: same bytes, same exit code
    joined = []
    for token in argv:
        if token.startswith("-") and not token.startswith("--"):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    assert joined != argv
    separate = run(argv, tmp_path, "separate.csv")
    assert separate[1] is not None
    assert separate == run(joined, tmp_path, "joined.csv")


def test_ratio_text_matches_fraction_randomized():
    rng = random.Random(70)
    for _ in range(3000):
        den = rng.randint(1, 2 ** rng.randint(0, 70))
        num = rng.choice((
            0,
            rng.randint(-2 ** 70, 2 ** 70),
            rng.randint(-2 ** 20, 2 ** 20) * den,               # an integer
            rng.randint(-2 ** 20, 2 ** 20) * math.gcd(den, rng.randint(1, 2 ** 70)),
        ))
        assert cli._ratio_text(num, den) == str(Fraction(num, den))


@pytest.mark.parametrize("argv", [
    ["groupoid", "orbit", str(DATA / "cp2.json"), "--hbar", "1/4",
     "--point", "1/4"],
    ["quantize", "spectra", str(DATA / "cp2.json"),
     "--obs", str(GOLDEN / "obs_cp2_herm.json"), "--hbar", "1/4",
     "--point", "1/4"],
    ["quantize", "bracket-limit", str(DATA / "cp2.json"),
     "--obs", str(GOLDEN / "obs_cp2_f.json"),
     "--obs2", str(GOLDEN / "obs_cp2_g.json"), "--point", "1/4,1/4",
     "--mode", "1"],
    ["quantize", "bracket-limit", str(DATA / "sphere.json"),
     "--obs", str(DATA / "obs" / "sin_pair_a.json"),
     "--obs2", str(DATA / "obs" / "sin_pair_b.json"), "--point", "1/2",
     "--mode", "1,0"],
], ids=["orbit-point", "spectra-point", "bracket-limit-mode-short",
        "bracket-limit-mode-long"])
def test_wrong_dimension_point_or_mode_exits_2(tmp_path, capsys, argv):
    rc, text = run(argv, tmp_path)
    assert rc == 2
    assert text is None
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["sphere", "square", "cp2"])
def test_verify_suite_golden(tmp_path, name):
    rc, text = run(["verify", "suite", str(DATA / f"{name}.json"),
                    "--cases", "2", "--seed", "0"], tmp_path, "suite.json")
    assert rc == 0
    assert text == (GOLDEN / f"suite_{name}_seed0_cases2.json").read_text()


@pytest.mark.parametrize("extra, code", [
    (["--point", "1/2"], 0),
    (["--point", "1/2", "--tol", "1e-30"], 1),
    (["--point", "1/64"], 3),
], ids=["pass", "tolerance", "margin"])
def test_quantize_bracket_limit_exit_codes(tmp_path, extra, code):
    rc, text = run(["quantize", "bracket-limit", str(DATA / "sphere.json"),
                    "--obs", str(DATA / "obs" / "xplus.json"),
                    "--obs2", str(DATA / "obs" / "mode_minus.json"),
                    "--mode", "0"] + extra, tmp_path)
    assert rc == code
    assert (text is None) == (code == 3)


@pytest.mark.parametrize("polytope, obs, obs2, point, mode, golden", [
    ("cp2", GOLDEN / "obs_cp2_f.json", GOLDEN / "obs_cp2_g.json", "1/4,1/4",
     "1,0", "bracket_limit_cp2_mode1_0.csv"),
    # outside the 7-point angle window: reads the aliased spectrum entry
    ("cp2", GOLDEN / "obs_cp2_f.json", GOLDEN / "obs_cp2_g.json", "1/4,1/4",
     "5,-3", "bracket_limit_cp2_mode5_-3.csv"),
    ("sphere", DATA / "obs" / "sin_pair_a.json", DATA / "obs" / "sin_pair_b.json",
     "1/2", "0", "bracket_limit_sphere_sin_pair.csv"),
], ids=["cp2-1,0", "cp2-5,-3", "sphere-sin-pair"])
def test_quantize_bracket_limit_golden(tmp_path, polytope, obs, obs2, point,
                                       mode, golden):
    rc, text = run(["quantize", "bracket-limit", str(DATA / f"{polytope}.json"),
                    "--obs", str(obs), "--obs2", str(obs2), "--point", point,
                    f"--mode={mode}"], tmp_path)
    assert rc == 0
    assert text == (GOLDEN / golden).read_text()


def test_quantize_spectra_is_deterministic(tmp_path):
    argv = ["quantize", "spectra", str(DATA / "sphere.json"),
            "--obs", str(DATA / "obs" / "x3.json"), "--hbar", "1/10"]
    rc1, first = run(argv, tmp_path, "a.csv")
    rc2, second = run(argv, tmp_path, "b.csv")
    assert rc1 == rc2 == 0
    assert first == second
    assert len(first.splitlines()) == 12   # preamble, header, 10 eigenvalues


@pytest.mark.parametrize("polytope, obs_dir, obs, hbars, golden", [
    ("sphere", DATA / "obs", "x3.json", ["1/300"], "spectra_sphere_x3_hbar1-300.csv"),
    # complex diagonal plus an h-scaled shift: triangular, not Hermitian
    ("cp2", GOLDEN, "obs_cp2_nonherm.json", ["1/12", "1/20"], "spectra_cp2_nonherm.csv"),
    # d e_0 + c e_l + c(y - h l) e_-l: Hermitian with off-diagonal modes
    ("cp2", GOLDEN, "obs_cp2_herm.json", ["1/15", "1/20"], "spectra_cp2_herm.csv"),
    # D = 780 in contiguous chains along y2
    ("cp2", GOLDEN, "obs_cp2_herm.json", ["1/40"], "spectra_cp2_herm_hbar1-40.csv"),
    # real x+- plus a diagonal: one chain of 200 points
    ("sphere", GOLDEN, "obs_sphere_herm.json", ["1/200"],
     "spectra_sphere_herm_hbar1-200.csv"),
], ids=["sphere-x3", "cp2-non-hermitian", "cp2-hermitian", "cp2-hermitian-chains",
        "sphere-hermitian-chain"])
def test_quantize_spectra_golden(tmp_path, monkeypatch, polytope, obs_dir, obs,
                                 hbars, golden):
    monkeypatch.chdir(obs_dir)      # the preamble names the --obs path as given
    argv = ["quantize", "spectra", str(DATA / f"{polytope}.json"), "--obs", obs]
    for h in hbars:
        argv += ["--hbar", h]
    rc, text = run(argv, tmp_path)
    assert rc == 0
    assert text == (GOLDEN / golden).read_text()


def check_exact_x3_spectrum(text, q):
    """Rows are (i + 1/2)/q - 1/2 for i = 0..q-1, real, to the last bit."""
    rows = [line.split(",") for line in text.splitlines()[2:]]
    assert len(rows) == q
    for i, (hbar, size, index, re, im) in enumerate(rows):
        assert (hbar, size, index, im) == (f"1/{q}", str(q), str(i), "0.0")
        exact = Fraction(2 * i + 1, 2 * q) - Fraction(1, 2)
        assert abs(Fraction(float(re)) - exact) <= Fraction(1, 2 ** 54)


@pytest.mark.parametrize("polytope, obs", [
    ("sphere", GOLDEN / "obs_sphere_herm.json"),
    ("cp2", GOLDEN / "obs_cp2_herm.json"),
], ids=["sphere", "cp2"])
def test_quantize_spectra_default_point_at_negative_hbar(tmp_path, polytope, obs):
    # the default base point is |hbar|/2 per coordinate, inside the polytope
    sizes = []
    for hbar in ("1/11", "-1/11"):
        rc, text = run(["quantize", "spectra", str(DATA / f"{polytope}.json"),
                        "--obs", str(obs), f"--hbar={hbar}"], tmp_path)
        assert rc == 0
        sizes.append({line.split(",")[1] for line in text.splitlines()[2:]})
    assert sizes[0] == sizes[1] and len(sizes[0]) == 1


def test_quantize_spectra_x3_beyond_the_dense_cap(tmp_path):
    # D = 12,000: a dense complex matrix would need 2.3 GB
    rc, text = run(["quantize", "spectra", str(DATA / "sphere.json"),
                    "--obs", str(DATA / "obs" / "x3.json"), "--hbar", "1/12000"],
                   tmp_path)
    assert rc == 0
    check_exact_x3_spectrum(text, 12000)


def test_quantize_spectra_chains_beyond_the_dense_cap(tmp_path):
    # D = 19,900 in chains of at most 199 points: a dense complex matrix
    # would need 6.3 GB
    tracemalloc.start()
    try:
        rc, text = run(["quantize", "spectra", str(DATA / "cp2.json"),
                        "--obs", str(GOLDEN / "obs_cp2_herm.json"), "--hbar", "1/200"],
                       tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 32 * 2 ** 20
    rows = [line.split(",") for line in text.splitlines()[2:]]
    assert len(rows) == 19900
    assert {(h, size, im) for h, size, _, _, im in rows} == {("1/200", "19900", "0.0")}
    re = [float(row[3]) for row in rows]
    assert re == sorted(re)


def test_quantize_spectra_equal_chains_stay_within_the_cap(tmp_path, monkeypatch):
    # square at 1/200: 200 chains of 200 points along y2.  Each chain needs
    # 640 KB as a dense complex matrix, under the 1 MB cap; the 200 chains
    # held at once would need 64 MB of real entries.
    monkeypatch.setattr(mr, "DENSE_CAP_BYTES", 2 ** 20)
    obs = tmp_path / "hop.json"
    obs.write_text(json.dumps({"modes": [
        {"k": [0, 1], "re": "1", "im": "0"}, {"k": [0, -1], "re": "1", "im": "0"}]}))
    tracemalloc.start()
    try:
        rc, text = run(["quantize", "spectra", str(DATA / "square.json"),
                        "--obs", str(obs), "--hbar", "1/200"], tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 32 * 2 ** 20
    rows = [line.split(",") for line in text.splitlines()[2:]]
    assert {(h, size, im) for h, size, _, _, im in rows} == {("1/200", "40000", "0.0")}
    # a free chain of n points has eigenvalues 2 cos(pi k / (n + 1))
    exact = np.sort(np.repeat(2 * np.cos(np.pi * np.arange(1, 201) / 201), 200))
    assert np.allclose([float(row[3]) for row in rows], exact, rtol=0, atol=1e-12)


def test_quantize_spectra_refuses_a_dense_matrix_over_the_cap(tmp_path, capsys):
    obs = tmp_path / "xplus_xminus.json"
    obs.write_text(json.dumps(al.observable_to_dict(
        mr.sphere_xplus() + mr.sphere_xminus())))
    tracemalloc.start()
    try:
        rc, text = run(["quantize", "spectra", str(DATA / "sphere.json"),
                        "--obs", str(obs), "--hbar", "1/12000"], tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert text is None
    assert "dimension 12000 needs 2304000000 bytes" in capsys.readouterr().err
    assert peak < 50 * 2 ** 20      # refused before the matrix was allocated


def test_quantize_spectra_x3_memory_is_linear_in_the_orbit(tmp_path):
    # the dense path would hold a 400 MB matrix at D = 5,000
    tracemalloc.start()
    try:
        rc, text = run(["quantize", "spectra", str(DATA / "sphere.json"),
                        "--obs", str(DATA / "obs" / "x3.json"), "--hbar", "1/5000"],
                       tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 20 * 2 ** 20
    check_exact_x3_spectrum(text, 5000)


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_unwritable_out_exits_2(tmp_path, capsys, where):
    out = tmp_path if where == "directory" else tmp_path / "missing" / "out.csv"
    rc = cli.main(["polytope", "strata", str(DATA / "cp2.json"), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: cannot write output file {out}: ")
    assert not (tmp_path / "missing").exists()


def test_polytope_check_nonprimitive_exits_1(tmp_path):
    path = tmp_path / "nonprimitive.json"
    path.write_text(json.dumps({"n": 1, "facets": [
        {"normal": [2], "offset": "0"}, {"normal": [-1], "offset": "-1"}]}))
    rc, text = run(["polytope", "check", str(path)], tmp_path, "check.txt")
    assert rc == 1
    assert "not primitive" in text
    rc, _ = run(["polytope", "check", str(path), "--permissive"], tmp_path,
                "check2.txt")
    assert rc == 0


UNIT_FACETS = [{"normal": [1], "offset": "0"}, {"normal": [-1], "offset": "-1"}]


@pytest.mark.parametrize("polytope, obs", [
    ({"n": 1, "facets": [{"normal": [1.5], "offset": "0"}, UNIT_FACETS[1]]}, None),
    ({"n": True, "facets": UNIT_FACETS}, None),
    ({"n": 1, "facets": UNIT_FACETS, "compact": "false"}, None),
    (None, {"modes": [{"k": [0.9], "re": "y1"}]}),
    (None, {"modes": [{"k": [0], "re": 0.1}]}),
], ids=["float-normal", "bool-n", "string-compact", "float-mode", "float-coefficient"])
def test_inexact_integer_or_bool_field_exits_2(tmp_path, capsys, polytope, obs):
    if obs is None:
        path = tmp_path / "polytope.json"
        path.write_text(json.dumps(polytope))
        argv = ["polytope", "check", str(path)]
    else:
        path = tmp_path / "obs.json"
        path.write_text(json.dumps(obs))
        argv = ["quantize", "spectra", str(DATA / "sphere.json"),
                "--obs", str(path), "--hbar", "1/4"]
    rc, text = run(argv, tmp_path)
    assert rc == 2
    assert text is None
    assert "input error" in capsys.readouterr().err


def test_polytope_strata_golden(tmp_path):
    for name in SHIPPED:
        rc, text = run(["polytope", "strata", str(DATA / f"{name}.json")], tmp_path)
        assert rc == 0
        assert text == (GOLDEN / f"strata_{name}.csv").read_text()


@pytest.mark.parametrize("argv", [
    ["polytope", "make", "cpn", "--n", "0"],
    ["polytope", "make", "orthant", "--n", "-1"],
    ["verify", "suite", str(DATA / "sphere.json"), "--cases", "-3"],
    ["verify", "suite", str(DATA / "sphere.json"), "--cases", "0"],
], ids=["cpn-0", "orthant-minus-1", "cases-minus-3", "cases-0"])
def test_bad_count_exits_2(tmp_path, capsys, argv):
    rc, text = run(argv, tmp_path)
    assert rc == 2
    assert text is None
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("name", SHIPPED)
@pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
def test_polytope_check_golden(tmp_path, name, fmt, suffix):
    rc, text = run(["polytope", "check", str(DATA / f"{name}.json"), "--format", fmt],
                   tmp_path)
    assert rc == 0
    assert text == (GOLDEN / f"check_{name}.{suffix}").read_text()


def _facets(*pairs):
    return [{"normal": list(x), "offset": lam} for x, lam in pairs]


# polytopes that fail screening, one violation kind each (the nonprimitive
# normal also breaks two determinants); the slab's pair of parallel facets
# gives a rank-deficient (n-1)-subset before the ray-giving one
FAILING = {
    "slab3": {"n": 3, "facets": _facets(((1, 0, 0), "0"), ((-1, 0, 0), "-1"),
                                        ((0, 1, 0), "0"), ((0, 0, 1), "0"))},
    "halfstrip": {"n": 2, "facets": _facets(((1, 0), "0"), ((-1, 0), "-1"),
                                            ((0, 1), "0"))},
    "det2_triangle": {"n": 2, "facets": _facets(((1, 0), "0"), ((0, 1), "0"),
                                                ((-1, -2), "-1"))},
    "nonprimitive": {"n": 2, "facets": _facets(((2, 0), "0"), ((0, 1), "0"),
                                               ((-1, 0), "-1"), ((0, -1), "-1"))},
    "pyramid_apex": {"n": 3, "facets": _facets(
        ((0, 0, 1), "0"), ((1, 0, -1), "-1"), ((-1, 0, -1), "-1"),
        ((0, 1, -1), "-1"), ((0, -1, -1), "-1"))},
    "redundant_facet": {"n": 2, "facets": _facets(
        ((1, 0), "0"), ((0, 1), "0"), ((-1, 0), "-1"), ((0, -1), "-1"),
        ((1, 1), "0"))},
}


@pytest.mark.parametrize("name", sorted(FAILING))
@pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
def test_polytope_check_failing_golden(tmp_path, name, fmt, suffix):
    path = tmp_path / "polytope.json"
    path.write_text(json.dumps(FAILING[name]))
    golden = (GOLDEN / f"check_fail_{name}.{suffix}").read_text()
    for extra, code in (([], 1), (["--permissive"], 0)):
        rc, text = run(["polytope", "check", str(path), "--format", fmt, *extra],
                       tmp_path)
        assert (rc, text) == (code, golden)


def test_polytope_make_product_golden(tmp_path):
    rc, text = run(["polytope", "make", "product", "--of", str(DATA / "sphere.json"),
                    str(DATA / "cp2.json")], tmp_path, "product.json")
    assert rc == 0
    assert text == (GOLDEN / "make_product_sphere_cp2.json").read_text()


def test_evaluation_overflow_exits_2(tmp_path, capsys):
    # a failed computation is not a failed verification (exit 1)
    interval = tmp_path / "interval_1000.json"
    interval.write_text(json.dumps({"n": 1, "facets": [
        {"normal": [1], "offset": "0"}, {"normal": [-1], "offset": "-1000"}]}))
    obs = tmp_path / "power.json"
    obs.write_text(json.dumps({"modes": [{"k": [0], "re": "y1^200"}]}))
    rc, text = run(["quantize", "spectra", str(interval), "--obs", str(obs),
                    "--hbar", "100", "--point", "50"], tmp_path)
    assert rc == 2
    assert text is None
    assert capsys.readouterr().err == (
        "error: coefficient of mode (0,) at orbit point (50): evaluation "
        "overflows in subexpression 'y1^200'\n")


def test_polytope_make_matches_shipped_data(tmp_path):
    rc, text = run(["polytope", "make", "cpn", "--n", "2"], tmp_path, "cp2.json")
    assert rc == 0
    assert text == (DATA / "cp2.json").read_text()


# a fresh interpreter per command; the parser must not exist before main
FRESH = ("import sys\n"
         "from torikit import cli\n"
         "assert cli._build_parser.cache_info().currsize == 0\n"
         "sys.exit(cli.main(sys.argv[1:]))\n")


def test_one_parser_per_process_matches_fresh_processes(tmp_path):
    commands = [
        ["verify", "suite", str(DATA / "cp2.json"), "--cases", "2", "--seed", "5"],
        ["groupoid", "orbit", str(DATA / "cp2.json"), "--hbar", "1/4",
         "--point", "1/8,1/8"],
        ["groupoid", "orbit", str(DATA / "cp2.json"), "--hbar", "1/4",
         "--point", "1/8"],                            # wrong length: exit 2
        ["verify", "suite", str(DATA / "cp2.json"), "--cases", "two"],  # argparse
        ["verify", "suite", str(DATA / "cp2.json"), "--cases", "2", "--seed", "5"],
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(torikit.__file__).parents[1])}
    codes = []
    for i, argv in enumerate(commands):
        out = tmp_path / f"in_process_{i}"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv + ["--out", str(out)])
            except SystemExit as exc:
                rc = exc.code
        fresh_out = tmp_path / f"fresh_{i}"
        fresh = subprocess.run([sys.executable, "-c", FRESH, *argv, "--out", str(fresh_out)],
                               capture_output=True, text=True, env=env)
        assert (rc, err.getvalue()) == (fresh.returncode, fresh.stderr), argv
        codes.append(rc)
        assert out.exists() == fresh_out.exists(), argv
        if out.exists():
            assert out.read_bytes() == fresh_out.read_bytes(), argv
    assert codes == [0, 0, 2, 2, 0]
    assert cli._build_parser() is cli._build_parser()
