"""The command-line front-end, driven through cli.main."""
import contextlib
import csv
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
from failing_polytopes import FAILING
from torikit import algebra as al
from torikit import classical as cl
from torikit import cli
from torikit import expr as ex
from torikit import groupoid as gr
from torikit import matrixrep as mr
from torikit import polytope as pt
from torikit.errors import MAX_SUBEXPRESSION_TEXT, StratumError

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
    # cp2's slanted edge y1 + y2 = 1
    ("orbit_cp2_hypotenuse_hbar-1-24.csv",
     [DATA / "cp2.json", "--hbar=-1/24", "--point", "3/10,7/10"]),
    # a vertex: a one-point orbit
    ("orbit_square_vertex_hbar-1-1000.csv",
     [DATA / "square.json", "--hbar=-1/1000", "--point", "1,0"]),
], ids=["cp2-negative-hbar", "square-facet", "sphere-past-2^53",
        "square-pm1-negative-coordinates", "cp2-hypotenuse", "square-vertex"])
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
    assert capsys.readouterr().err == f"error: orbit cap must be at least 1, got {cap}\n"


def test_groupoid_orbit_box_past_int64_exits_2(tmp_path, capsys):
    # an interior point of the square at hbar 2^-40: a candidate box of 2^80 points
    rc, text = run(["groupoid", "orbit", str(DATA / "square.json"),
                    "--hbar", "1/1099511627776", "--point", "1/3,1/7", "--cap", "10"],
                   tmp_path)
    assert rc == 2
    assert text is None
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and "too large for int64" in err


def test_groupoid_orbit_from_a_vertex_at_small_hbar(tmp_path):
    # the orbit of a vertex is the vertex, whatever hbar and the cap
    rc, text = run(["groupoid", "orbit", str(DATA / "sphere.json"),
                    "--hbar", "1/100000000", "--point", "0", "--cap", "10"], tmp_path)
    assert rc == 0
    assert text == "# torikit orbit v1 hbar=1/100000000 size=1\nindex,y1\n0,0\n"


def csv_oracle(name, header, rows, preamble=()):
    """The document `cli._csv_document` must give, written by csv.writer."""
    buf = io.StringIO()
    buf.write(" ".join((f"# torikit {name} v1", *preamble)) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def random_csv_field(rng):
    kind = rng.randrange(6)
    if kind == 0:       # p/q, denominators up to 2^62 and past it
        den = rng.choice((1, 3, 2 ** 62, 3 * 2 ** 62 + 1))
        return str(Fraction(rng.randint(-2 ** 70, 2 ** 70), den))
    if kind == 1:
        return str(rng.choice((math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e+300,
                               -1.5e-300, rng.uniform(-1e6, 1e6))))
    if kind == 2:
        return str(rng.randint(-10 ** 6, 10 ** 6))
    if kind == 3:       # the empty est_order field of bracket-limit
        return ""
    if kind == 4:       # strata's sample and isotropy fields, with commas
        return rng.choice((",", ";")).join(
            str(Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(rng.randint(1, 3)))
    return rng.choice(("-", "0;1", "1/2", "-1;-1"))


@pytest.mark.parametrize("block", [1, 7, cli._CSV_BLOCK])
def test_csv_document_matches_csv_writer_randomized(monkeypatch, block):
    monkeypatch.setattr(cli, "_CSV_BLOCK", block)
    rng = random.Random(block)
    for n_rows in (0, 1, 2, 6, 7, 8, 15, 40):
        width = rng.randint(2, 6)
        header = tuple(f"c{i}" for i in range(width))
        rows = [tuple(random_csv_field(rng) for _ in range(width)) for _ in range(n_rows)]
        preamble = [f"hbar={Fraction(rng.randint(1, 9), 2 ** 62)}", f"size={n_rows}"]
        blocks = list(cli._csv_document(
            "test", header, (tuple(map(cli._quoted, row)) for row in rows), preamble))
        assert "".join(blocks) == csv_oracle("test", header, rows, preamble)
        # the title block, then blocks of at most `block` rows
        assert len(blocks) == 1 + -(-n_rows // block)
        assert all(0 < b.count("\n") <= block for b in blocks[1:])


def test_orbit_stdout_equals_out_in_blocks(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_CSV_BLOCK", 5)
    argv = ["groupoid", "orbit", str(DATA / "cp2.json"), "--hbar", "1/4", "--point", "1/8,1/8"]
    assert cli.main(argv) == 0
    rc, text = run(argv, tmp_path)
    assert rc == 0
    assert capsys.readouterr().out == text == (GOLDEN / "orbit_cp2_hbar1-4.csv").read_text()


def test_groupoid_orbit_outside_point_prints_p_over_q(tmp_path, capsys):
    rc, text = run(["groupoid", "orbit", str(DATA / "sphere.json"), "--hbar=1/4",
                    "--point=3/2"], tmp_path)
    assert (rc, text) == (2, None)
    assert capsys.readouterr().err == "error: point (3/2) lies outside the polytope\n"


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


def axis_texts_oracle(d, a, step, lo, hi):
    return [str(Fraction(a + step * c, d)) for c in range(lo, hi + 1)]


def test_axis_texts_match_fraction_randomized():
    # the numerators of the former per-value test, now each an axis's value
    # at c = 0 with a random step of either sign; past 2^62 on either path
    rng = random.Random(70)
    for _ in range(3000):
        den = rng.randint(1, 2 ** rng.randint(0, 70))
        num = rng.choice((
            0,
            rng.randint(-2 ** 70, 2 ** 70),
            rng.randint(-2 ** 20, 2 ** 20) * den,               # an integer
            rng.randint(-2 ** 20, 2 ** 20) * math.gcd(den, rng.randint(1, 2 ** 70)),
        ))
        step = rng.choice((0, 1, -1, den, -den, rng.randint(-2 ** rng.randint(0, 64), 2 ** 64)))
        lo = -rng.randint(0, 4)
        hi = rng.randint(0, 4)
        got = cli._axis_texts(den, num, step, lo, hi)
        assert got.dtype == object
        assert got.tolist() == axis_texts_oracle(den, num, step, lo, hi)


@pytest.mark.parametrize("d, a, step, lo, hi", [
    (6, 0, -1, -12, 12),                # negative hbar, zero and integers
    (5, 3, 5, -3, 3),                   # every value p/5 off the integers
    (3, 2 ** 62 - 1, 3, 0, 0),          # the largest int64 numerator
    (3, 2 ** 62 - 4, 3, 0, 1),          # ... reached by the last step
    (3, 2 ** 62, 3, -1, 0),             # 2^62 itself: Python ints
    (3, -(2 ** 62) + 1, -3, 0, 0),
    (3, -(2 ** 62), 1, 0, 2),
    (2 ** 62 - 1, 1, 1, -2, 2),         # the largest int64 denominator
    (2 ** 62, 1, 1, -2, 2),
    (7, 1, 2 ** 62, 0, 0),              # a one-point orbit at a huge step
])
def test_axis_texts_at_the_int64_bound(d, a, step, lo, hi):
    assert cli._axis_texts(d, a, step, lo, hi).tolist() == axis_texts_oracle(d, a, step, lo, hi)


@pytest.mark.parametrize("block", [1, 7, cli._CSV_BLOCK])
@pytest.mark.parametrize("name, hbar, point", [
    ("square", "1/50", "1/100,1/3"),
    ("cp2", "-1/30", "1/3,1/7"),
    ("sphere", "1/40", str(Fraction(1, 2 ** 62) + Fraction(1, 5))),   # Python ints
], ids=["square", "cp2-negative", "sphere-exact"])
def test_orbit_csv_bytes_do_not_depend_on_the_block_size(tmp_path, monkeypatch, block,
                                                         name, hbar, point):
    # orbits of 2,500, 435 and 40 points: many blocks of 1 and 7 rows, one at the
    # default
    argv = ["groupoid", "orbit", str(DATA / f"{name}.json"), f"--hbar={hbar}", "--point", point]
    rc, want = run(argv, tmp_path, "default.csv")
    assert rc == 0
    monkeypatch.setattr(cli, "_CSV_BLOCK", block)
    assert run(argv, tmp_path, f"block{block}.csv") == (0, want)
    title, header, *rows = want.splitlines()
    assert title.endswith(f"size={len(rows)}") and len(rows) > 7
    assert [row.split(",", 1)[0] for row in rows] == [str(i) for i in range(len(rows))]
    P = pt.load_polytope(DATA / f"{name}.json")
    blocks = list(cli._orbit_blocks(gr.orbit(P, Fraction(hbar), cli._point(point))))
    assert len(blocks) == -(-len(rows) // block)
    assert "".join(blocks) == "".join(f"{row}\n" for row in rows)


def test_orbit_csv_memory_is_one_block_whatever_the_orbit():
    # 160,000 rows print to 3.5 MB; with cells for the whole orbit at once
    # the peak was 17 MiB, with cells for one block of 16,384 rows 1.9 MiB
    hbar = Fraction(1, 400)
    orb = gr.orbit(pt.square(), hbar, (hbar / 2, hbar / 2))
    tracemalloc.start()
    try:
        size = sum(map(len, cli._orbit_blocks(orb)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(orb) == 160000 and size > 3 * 10 ** 6
    assert peak < 4 * 2 ** 20


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
    # outside the 7-point angle window: the classical oracle reads 0
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


@pytest.mark.parametrize("mode", ["4", "-4", "6"])
def test_bracket_limit_mode_outside_the_angle_window_is_classically_zero(tmp_path, mode):
    # f and g have modes up to 1, so the oracle grid has 5 angles and
    # window |k| <= 2; spectrum entry k % 5 belongs to mode -1 or 1
    obs = tmp_path / "f.json"
    obs.write_text(json.dumps({"modes": [{"k": [1], "re": "y1*(1 - y1)"},
                                         {"k": [-1], "re": "y1"}]}))
    obs2 = tmp_path / "g.json"
    obs2.write_text(json.dumps({"modes": [{"k": [0], "re": "y1^2"}]}))
    rc, text = run(["quantize", "bracket-limit", str(DATA / "sphere.json"),
                    "--obs", str(obs), "--obs2", str(obs2), "--point", "1/2",
                    f"--mode={mode}"], tmp_path)
    assert rc == 0
    header, *rows = text.splitlines()[1:]
    columns = header.split(",")
    for row in rows:
        fields = dict(zip(columns, row.split(",")))
        assert [fields[c] for c in ("re_classical_aa", "im_classical_aa", "err_cls")] \
            == ["0.0"] * 3


def test_bracket_limit_one_hbar_sweep_is_not_exact(tmp_path):
    # one hbar gives no difference to call the limit exact with; two give nan
    argv = ["quantize", "bracket-limit", str(DATA / "cp2.json"),
            "--obs", str(GOLDEN / "obs_cp2_f.json"),
            "--obs2", str(GOLDEN / "obs_cp2_g.json"), "--point=1/4,1/4",
            "--mode=1,0", "--hbar", "1/16"]
    for extra in ([], ["--hbar", "1/32"]):
        rc, text = run(argv + extra, tmp_path)
        assert rc == 1
        assert text.splitlines()[-1].split(",")[-1] == "nan"


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


def test_quantize_spectra_default_point_outside_asks_for_a_point(tmp_path, capsys):
    # the interval [2, 3] has no vertex at the origin, so the default
    # (|hbar|/2) = (1/8) lies outside it: the error names the default
    interval = tmp_path / "interval23.json"
    interval.write_text(json.dumps({"n": 1, "facets": [
        {"normal": [1], "offset": "2"}, {"normal": [-1], "offset": "-3"}]}))
    argv = ["quantize", "spectra", str(interval), "--obs", str(DATA / "obs" / "x3.json"),
            "--hbar", "1/4"]
    assert run(argv, tmp_path) == (2, None)
    assert capsys.readouterr().err == (
        "error: default base point (1/8) = (|hbar|/2, ...) lies outside the "
        "polytope; give one with --point\n")
    rc, text = run(argv + ["--point", "5/2"], tmp_path)
    assert rc == 0
    assert text.splitlines()[2:] == ["1/4,3,0,1.75,0.0", "1/4,3,1,2.0,0.0", "1/4,3,2,2.25,0.0"]


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


@pytest.mark.parametrize("what", ["polytope", "observable"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, what):
    # json.load raised RecursionError here (exit 1 with a traceback)
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    if what == "polytope":
        argv = ["polytope", "check", str(path)]
    else:
        argv = ["quantize", "spectra", str(DATA / "sphere.json"),
                "--obs", str(path), "--hbar", "1/4"]
    rc, text = run(argv, tmp_path)
    assert (rc, text) == (2, None)
    err = capsys.readouterr().err
    assert err.startswith(f"input error: cannot read {what} file {path}: ")
    assert err.count("\n") == 1


def test_polytope_strata_golden(tmp_path):
    for name in SHIPPED:
        rc, text = run(["polytope", "strata", str(DATA / f"{name}.json")], tmp_path)
        assert rc == 0
        assert text == (GOLDEN / f"strata_{name}.csv").read_text()


# each count's owner in the library: the constructor and `run_suite`
@pytest.mark.parametrize("argv, err", [
    (["polytope", "make", "cpn", "--n", "0"], "input error: dimension must be >= 1"),
    (["polytope", "make", "orthant", "--n", "-1"], "input error: dimension must be >= 1"),
    (["verify", "suite", str(DATA / "sphere.json"), "--cases", "-3"],
     "error: suite cases must be at least 1, got -3"),
    (["verify", "suite", str(DATA / "sphere.json"), "--cases", "0"],
     "error: suite cases must be at least 1, got 0"),
    # `run_suite` owns the count, so a polytope that cannot be read is named first
    (["verify", "suite", str(DATA / "missing.json"), "--cases", "0"],
     f"input error: cannot read polytope file {DATA / 'missing.json'}: [Errno 2] "
     f"No such file or directory: '{DATA / 'missing.json'}'"),
], ids=["cpn-0", "orthant-minus-1", "cases-minus-3", "cases-0", "cases-0-missing-polytope"])
def test_bad_count_exits_2(tmp_path, capsys, argv, err):
    rc, text = run(argv, tmp_path)
    assert rc == 2
    assert text is None
    assert capsys.readouterr().err == f"{err}\n"


TOL_COMMANDS = {
    "verify-suite": ["verify", "suite"],
    "bracket-limit": ["quantize", "bracket-limit", "--obs", str(DATA / "obs" / "xplus.json"),
                      "--obs2", str(DATA / "obs" / "mode_minus.json"), "--point", "1/2"],
}


@pytest.mark.parametrize("value", ["nan", "inf", "-0.5"], ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("command", sorted(TOL_COMMANDS))
def test_bad_tol_exits_2_before_any_work(tmp_path, capsys, command, value):
    # a NaN tolerance fails every check, an infinite one passes every check
    # and a negative one fails them all; the polytope file does not exist,
    # so the error names --tol only if the check comes before any loading
    argv = TOL_COMMANDS[command] + [str(tmp_path / "missing.json"), "--tol", value]
    rc, text = run(argv, tmp_path)
    assert rc == 2
    assert text is None
    assert capsys.readouterr().err == (
        f"input error: --tol must be a finite number >= 0, got {float(value)}\n")


@pytest.mark.parametrize("name", SHIPPED)
@pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
def test_polytope_check_golden(tmp_path, name, fmt, suffix):
    rc, text = run(["polytope", "check", str(DATA / f"{name}.json"), "--format", fmt],
                   tmp_path)
    assert rc == 0
    assert text == (GOLDEN / f"check_{name}.{suffix}").read_text()


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


def test_bracket_limit_point_past_float_range_exits_2(tmp_path, capsys):
    # the interval [0, 10^401] holds the point 10^400, which no float does
    interval = tmp_path / "interval_10_401.json"
    interval.write_text(json.dumps({"n": 1, "facets": [
        {"normal": [1], "offset": "0"}, {"normal": [-1], "offset": str(-10 ** 401)}]}))
    xplus = str(DATA / "obs" / "xplus.json")
    rc, text = run(["quantize", "bracket-limit", str(interval), "--obs", xplus,
                    "--obs2", xplus, "--point", str(10 ** 400)], tmp_path)
    assert (rc, text) == (2, None)
    assert capsys.readouterr().err == "error: an input lies past float range\n"


def test_spectra_orbit_past_float_range_exits_2(tmp_path, capsys):
    # the orbit of [10^400, 10^400 + 1] through its midpoint at hbar = 1/4
    # has 3 points, none of them a float: the orbit array's conversion owner
    # refuses them (it raised OverflowError, exit 1, a traceback)
    interval = tmp_path / "interval_far.json"
    interval.write_text(json.dumps({"n": 1, "facets": [
        {"normal": [1], "offset": str(10 ** 400)},
        {"normal": [-1], "offset": str(-10 ** 400 - 1)}]}))
    rc, text = run(["quantize", "spectra", str(interval), *SPHERE_X3[1:], "--hbar", "1/4",
                    "--point", f"{2 * 10 ** 400 + 1}/2"], tmp_path)
    assert (rc, text) == (2, None)
    assert capsys.readouterr().err == "error: an input lies past float range\n"


def exp_overflow_observables(tmp_path):
    # exp(1000*y1) overflows from y1 ~ 0.7098
    f = tmp_path / "exp.json"
    f.write_text(json.dumps({"modes": [{"k": [1], "re": "exp(1000*y1)"}]}))
    g = tmp_path / "y1.json"
    g.write_text(json.dumps({"modes": [{"k": [0], "re": "y1"}]}))
    return str(f), str(g)


@pytest.mark.parametrize("mode", ["0", "1"])
def test_bracket_limit_overflow_exits_2(tmp_path, capsys, mode):
    # mode 0 exited 0 on a nan classical column, since max(0.0, nan) is
    # 0.0, and mode 1 exited 1 with nan and -inf rows
    f, g = exp_overflow_observables(tmp_path)
    rc, text = run(["quantize", "bracket-limit", str(DATA / "sphere.json"), "--obs", f,
                    "--obs2", g, "--point", "3/4", "--mode", mode], tmp_path)
    assert (rc, text) == (2, None)
    assert capsys.readouterr().err == (
        "error: evaluation overflows in subexpression 'exp(1000*y1)'\n")


def test_bracket_limit_product_past_float_range_exits_2(tmp_path, capsys):
    # each coefficient is a finite 10^200; their product at mode 0 is not,
    # and exited 1 with nan renorm and extrapolated cells
    obs = []
    for name, k in (("f", 1), ("g", -1)):
        obs.append(tmp_path / f"{name}.json")
        obs[-1].write_text(json.dumps({"modes": [{"k": [k], "re": "10^200"}]}))
    rc, text = run(["quantize", "bracket-limit", str(DATA / "sphere.json"),
                    "--obs", str(obs[0]), "--obs2", str(obs[1]), "--point", "1/2",
                    "--hbar", "1/16", "--hbar", "1/32", "--hbar", "1/64"], tmp_path)
    assert (rc, text) == (2, None)
    assert capsys.readouterr().err == (
        "error: product at mode (0,) is not finite at (1/2), hbar = 1/16\n")


def test_spectra_overflow_names_the_orbit_point(tmp_path, capsys):
    # the orbit 1/16, 3/16, ..., 15/16: 11/16 is finite, 13/16 overflows
    f, _ = exp_overflow_observables(tmp_path)
    rc, text = run(["quantize", "spectra", str(DATA / "sphere.json"), "--obs", f,
                    "--hbar", "1/8"], tmp_path)
    assert (rc, text) == (2, None)
    assert capsys.readouterr().err == (
        "error: coefficient of mode (1,) at orbit point (13/16): evaluation "
        "overflows in subexpression 'exp(1000*y1)'\n")


SPHERE_PAIR = [str(DATA / "sphere.json"), "--obs", str(DATA / "obs" / "xplus.json"),
               "--obs2", str(DATA / "obs" / "mode_minus.json"), "--point", "1/2"]
SPHERE_X3 = [str(DATA / "sphere.json"), "--obs", str(DATA / "obs" / "x3.json")]


@pytest.mark.parametrize("argv, err", [
    (["groupoid", "orbit", str(DATA / "sphere.json"), "--hbar", "1/0", "--point", "1/2"],
     "input error: bad rational '1/0': Fraction(1, 0)"),
    (["quantize", "bracket-limit", *SPHERE_PAIR, "--mode", "x"],
     "input error: bad mode 'x': invalid literal for int() with base 10: 'x'"),
    (["polytope", "make", "product"], "input error: product needs --of FILE FILE"),
    (["quantize", "bracket-limit", *SPHERE_PAIR, "--hbar", "0"],
     "error: hbar list must be positive (nonzero) values"),
], ids=["bad-rational", "bad-mode", "product-without-of", "bracket-limit-hbar-zero"])
def test_input_error_exits_2_with_one_line(tmp_path, capsys, argv, err):
    rc, text = run(argv, tmp_path)
    assert (rc, text) == (2, None)
    assert capsys.readouterr().err == f"{err}\n"


@pytest.mark.parametrize("command", [["groupoid", "orbit", str(DATA / "sphere.json"),
                                      "--point", "1/2"],
                                     ["quantize", "spectra", *SPHERE_X3]],
                         ids=["orbit", "spectra"])
def test_a_missing_hbar_is_argparses_usage_error(tmp_path, capsys, command):
    # --hbar is required by the parser itself: exit 2 before any work
    with pytest.raises(SystemExit) as exc:
        run(command, tmp_path)
    assert exc.value.code == 2
    assert not (tmp_path / "out.csv").exists()
    err = capsys.readouterr().err
    assert err.endswith("error: the following arguments are required: --hbar\n")


CP2 = str(DATA / "cp2.json")
ORTHANT2 = str(DATA / "orthant2.json")
CP2_PAIR = ["--obs", str(GOLDEN / "obs_cp2_f.json"), "--obs2", str(GOLDEN / "obs_cp2_g.json")]


# each value rule the CLI leaves to its owner in the library: the owner's line
@pytest.mark.parametrize("argv, err", [
    (["groupoid", "orbit", CP2, "--hbar", "1/4", "--point", "1/8,1/8", "--cap", "0"],
     "error: orbit cap must be at least 1, got 0"),
    (["groupoid", "orbit", CP2, "--hbar", "0", "--point", "1/8,1/8"],
     "error: orbits are defined for hbar != 0"),
    # the default point (0) lies in [0, 1], so the orbit's owner refuses hbar
    (["quantize", "spectra", *SPHERE_X3, "--hbar", "0"],
     "error: orbits are defined for hbar != 0"),
    (["quantize", "bracket-limit", *SPHERE_PAIR, "--hbar", "0"],
     "error: hbar list must be positive (nonzero) values"),
    (["quantize", "bracket-limit", *SPHERE_PAIR, "--hbar", "-1/16"],
     "error: hbar list must be positive (nonzero) values"),
    # positive, but 0 as floats: the limit's division by i*hbar raised
    # ZeroDivisionError (exit 1, a traceback)
    (["quantize", "bracket-limit", *SPHERE_PAIR, "--hbar", f"1/{10 ** 400}"],
     "error: hbar list must be strictly decreasing and positive as floats"),
    (["quantize", "bracket-limit", *SPHERE_PAIR, "--hbar", "1/1000", "--hbar", f"1/{10 ** 400}"],
     "error: hbar list must be strictly decreasing and positive as floats"),
    (["groupoid", "orbit", CP2, "--hbar", "1/4", "--point", "1/8"],
     "input error: point has 1 coordinates, expected 2"),
    (["quantize", "bracket-limit", *SPHERE_PAIR, "--point", "1/2,1/2"],
     "input error: point has 2 coordinates, expected 1"),
    (["quantize", "spectra", *SPHERE_X3, "--hbar", "1/8", "--point", "1/2,1/2"],
     "input error: point has 2 coordinates, expected 1"),
    (["quantize", "bracket-limit", *SPHERE_PAIR, "--mode", "1,0"],
     "input error: mode has 2 entries, expected 1"),
    (["groupoid", "orbit", CP2, "--hbar", "1/4", "--point", "1,1"],
     "error: point (1, 1) lies outside the polytope"),
    (["groupoid", "orbit", ORTHANT2, "--hbar", "1/4", "--point", "1/2"],
     "error: orbit enumeration requires a compact polytope"),
    (["quantize", "bracket-limit", ORTHANT2, *CP2_PAIR, "--point", "1/2"],
     "input error: point has 1 coordinates, expected 2"),
], ids=["orbit-cap-0", "orbit-hbar-0", "spectra-hbar-0", "bracket-limit-hbar-0",
        "bracket-limit-hbar-negative", "bracket-limit-hbar-float-0",
        "bracket-limit-hbar-last-float-0",
        "orbit-point-length", "bracket-limit-point-length", "spectra-point-length",
        "mode-length", "point-outside", "orthant-orbit-point-length",
        "orthant-bracket-limit-point-length"])
def test_value_rules_exit_2_with_the_owners_line(tmp_path, capsys, argv, err):
    rc, text = run(argv, tmp_path)
    assert (rc, text) == (2, None)      # no --out file is created
    assert capsys.readouterr() == ("", f"{err}\n")


def test_any_other_library_error_exits_1(tmp_path, capsys, monkeypatch):
    # no command raises a bare StratumError today; main still maps it to 1
    def refuse(args):
        raise StratumError("mode (1,) does not live here")

    monkeypatch.setitem(cli._BUILDERS, "sphere", refuse)
    rc, text = run(["polytope", "make", "sphere"], tmp_path, "sphere.json")
    assert (rc, text) == (1, None)
    assert capsys.readouterr().err == "error: mode (1,) does not live here\n"


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


def test_verify_suite_failure_exits_1_deterministically(tmp_path):
    # at --tol 0 roundoff fails some batteries: exit 1, and the failing
    # report is byte-identical on a re-run like a passing one
    argv = ["verify", "suite", str(DATA / "sphere.json"), "--cases", "2", "--tol", "0"]
    rc1, first = run(argv, tmp_path, "a.json")
    rc2, second = run(argv, tmp_path, "b.json")
    assert rc1 == rc2 == 1
    assert first == second
    report = json.loads(first)
    assert report["passed"] is False
    failed = [b for b in report["batteries"] if not b["passed"]]
    assert failed and all(b["first_counterexample"] is not None for b in failed)


def observable(path, k, text):
    path.write_text(json.dumps({"modes": [{"k": list(k), "re": text, "im": "0"}]}))
    return str(path)


def run_expression(tmp_path, command, text, name="out.csv"):
    """quantize spectra or bracket-limit on the sphere with f = text e_1
    (and g = text e_-1), writing to tmp_path / name."""
    f = observable(tmp_path / "f.json", (1,), text)
    if command == "spectra":
        argv = ["quantize", "spectra", str(DATA / "sphere.json"), "--obs", f,
                "--hbar", "1/10"]
    else:
        argv = ["quantize", "bracket-limit", str(DATA / "sphere.json"), "--obs", f,
                "--obs2", observable(tmp_path / "g.json", (-1,), text), "--point", "1/4"]
    return run(argv, tmp_path, name)


@pytest.mark.parametrize("command", ["spectra", "bracket-limit"])
@pytest.mark.parametrize("text", [
    "(" * 198 + "y1" + ")" * 198,
    " + ".join(["y1"] * 990),
    "*".join(["y1"] * 990),
    "1" * 5000 + "*y1",
], ids=["198-parentheses", "990-term-sum", "990-factor-product", "5000-digit-literal"])
def test_expression_past_the_parser_bounds_exits_2(tmp_path, capsys, command, text):
    # each of these raised RecursionError or ValueError (exit 1 with a traceback)
    rc, out = run_expression(tmp_path, command, text)
    assert (rc, out) == (2, None)
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1


def test_expression_at_the_parser_bounds_runs(tmp_path, capsys):
    # the deepest derivatives per level: a quotient chain, at both bounds
    text = "(" * ex.MAX_NESTING + "/".join(["y1"] * ex.MAX_DEPTH) + ")" * ex.MAX_NESTING
    rc, out = run_expression(tmp_path, "spectra", text, "spectra.csv")
    assert rc == 0 and len(out.splitlines()) == 12
    # y1^-98 near 1/4 is about 1e59: the sweep completes, far off the tolerance
    rc, out = run_expression(tmp_path, "bracket-limit", text, "limit.csv")
    assert rc == 1 and len(out.splitlines()) == 9     # preamble, header, 7 hbars
    # a derivative singular at the point, printed in the error
    text = "sqrt((y1 - 1/4)^2" + "/y1" * (ex.MAX_DEPTH - 4) + ")"
    capsys.readouterr()
    rc, out = run_expression(tmp_path, "bracket-limit", text, "singular.csv")
    assert (rc, out) == (2, None)
    err = capsys.readouterr().err
    assert err.startswith("error: division by zero in subexpression ")
    assert err.count("\n") == 1


def mode_sum_observables(tmp_path, count, f_text, g_text):
    """f = f_text on modes 1..count and g = g_text on modes -1..-count of the
    sphere: every pair (l, -l) lands on mode 0 of their bracket."""
    paths = []
    for name, sign, text in (("f", 1, f_text), ("g", -1, g_text)):
        modes = [{"k": [sign * i], "re": text, "im": "0"} for i in range(1, count + 1)]
        (tmp_path / f"{name}.json").write_text(json.dumps({"modes": modes}))
        paths += [f"--obs{'' if name == 'f' else '2'}", str(tmp_path / f"{name}.json")]
    return ["quantize", "bracket-limit", str(DATA / "sphere.json"), *paths,
            "--point", "1/2", "--hbar", "1/100000", "--hbar", "1/200000"]


def test_bracket_mode_sum_past_the_cap_exits_2(tmp_path, capsys):
    # 1,099 pairs on mode 0 built a sum 1,099 levels deep, whose evaluation
    # raised RecursionError (exit 1 with a traceback)
    rc, out = run(mode_sum_observables(tmp_path, 1099, "y1", "y1"), tmp_path)
    assert (rc, out) == (2, None)
    assert capsys.readouterr().err == (
        f"error: zero-fiber sum at mode (0,) exceeds the cap of {al.MAX_PAIRS_PER_MODE} "
        "mode pairs\n")


def test_bracket_mode_sum_at_the_cap_runs(tmp_path, capsys):
    cap = al.MAX_PAIRS_PER_MODE
    rc, out = run(mode_sum_observables(tmp_path, cap, "y1", "y1"), tmp_path)
    assert rc == 0 and len(out.splitlines()) == 4     # preamble, header, 2 hbars
    # the deepest path measured: the error text of the whole mode-0 sum, whose
    # terms are the derivative of a quotient chain at the parser's depth bound
    # (10^200 overflows the derivative's square, not the sweep's values)
    chain = "/".join(["y1"] * (ex.MAX_DEPTH - 1)) + "/(y1*10^200)"
    rc, out = run(mode_sum_observables(tmp_path, cap, "y1", chain), tmp_path, "deep.csv")
    assert (rc, out) == (2, None)
    err = capsys.readouterr().err
    assert err.startswith("error: evaluation overflows in subexpression ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("count", [1, al.MAX_PAIRS_PER_MODE])
def test_evaluation_error_line_quotes_a_bounded_subexpression(tmp_path, capsys, count):
    # the whole mode-0 bracket sum was the error text: one stderr line of
    # 16,432 bytes with one mode each way, and 2,098,512 bytes with 128
    chain = "/".join(["y1"] * (ex.MAX_DEPTH - 1)) + "/(y1*10^200)"
    rc, out = run(mode_sum_observables(tmp_path, count, "y1", chain), tmp_path, "deep.csv")
    assert (rc, out) == (2, None)
    err = capsys.readouterr().err
    head = "error: evaluation overflows in subexpression '"
    assert err.startswith(head) and err.endswith("...'\n") and err.count("\n") == 1
    assert len(err) == len(head) + MAX_SUBEXPRESSION_TEXT + len("...'\n")


@pytest.mark.parametrize("hbars, code", [
    (["1/1000000000", "1/2000000000"], 2),
    ([], 3),      # the default sweep leaves the interior first
], ids=["grid-past-cap", "margin-first"])
def test_classical_oracle_grid_past_the_cap_exits_2(tmp_path, capsys, hbars, code):
    # mode (1000000, 0) asked numpy for a 2000005^2 grid (58.2 TiB)
    f = observable(tmp_path / "f.json", (1000000, 0), "y1")
    argv = ["quantize", "bracket-limit", str(DATA / "cp2.json"), "--obs", f,
            "--obs2", str(GOLDEN / "obs_cp2_g.json"), "--point", "1/4,1/4"]
    rc, out = run(argv + [f"--hbar={h}" for h in hbars], tmp_path)
    assert (rc, out) == (code, None)
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    if code == 2:
        assert err == ("error: classical oracle grid of 2000005^2 = 4000020000025 "
                       f"angles exceeds the cap of {cl.ANGLE_GRID_CAP}\n")
