"""The command-line front-end, driven through cli.main."""
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
