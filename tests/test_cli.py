"""The command-line front-end, driven through cli.main."""
import json
from pathlib import Path

import pytest

import torikit
from torikit import cli

DATA = Path(torikit.__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def run(argv, tmp_path, name="out.csv"):
    out = tmp_path / name
    rc = cli.main(argv + ["--out", str(out)])
    return rc, out.read_text() if out.exists() else None


def test_groupoid_orbit_golden(tmp_path):
    rc, text = run(["groupoid", "orbit", str(DATA / "cp2.json"),
                    "--hbar", "1/4", "--point", "1/8,1/8"], tmp_path)
    assert rc == 0
    assert text == (GOLDEN / "orbit_cp2_hbar1-4.csv").read_text()


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


def test_polytope_strata_golden(tmp_path):
    rc, text = run(["polytope", "strata", str(DATA / "cp2.json")], tmp_path)
    assert rc == 0
    assert text == (GOLDEN / "strata_cp2.csv").read_text()


def test_polytope_make_matches_shipped_data(tmp_path):
    rc, text = run(["polytope", "make", "cpn", "--n", "2"], tmp_path, "cp2.json")
    assert rc == 0
    assert text == (DATA / "cp2.json").read_text()
