"""Source hygiene: every name a torikit module imports is read there or
re-exported through its __all__, no module reads another module's private
(underscore) name or a public one that module's __all__ leaves out, no
module imports a package that is not declared (only the standard library,
numpy and torikit), every name in an __all__ exists, every function the
benchmark tracer patches exists, and each input rule's text is written once,
by its owner (the table in the `polytope` docstring)."""
import ast
import importlib
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import torikit

MODULES = sorted(Path(torikit.__file__).parent.glob("*.py"))
ROOT = Path(__file__).parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
# the test files and the tools, held to the unused-import rule too
SCRIPTS = sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("tools/*.py"))


def all_names(tree: ast.Module):
    """The names in a module's __all__, or None when it has none."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return None


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    used.update(all_names(tree) or ())
    return sorted(imported - used)


def test_unused_imports_detector():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy.linalg\nfrom . import a as b, c\n"
              "from .m import d, e\n"
              "__all__ = ['e']\n"
              "def f(x: c) -> None:\n    return numpy.linalg.norm(x)\n")
    assert unused_imports(source) == ["b", "d", "os"]


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=lambda p: p.stem)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text()) == []


def sibling_reads(source: str) -> list[tuple[str, str]]:
    """(module, name) for every name a module takes from a sibling module:
    `m.x` through `from . import m [as alias]` (dunders aside), and
    `from .m import x`."""
    tree = ast.parse(source)
    siblings, found = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for a in node.names:
                if node.module is None:
                    siblings[a.asname or a.name] = a.name
                else:
                    found.append((node.module, a.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and not node.attr.endswith("__")):
            found.append((siblings[node.value.id], node.attr))
    return found


def private_reads(source: str) -> list[str]:
    """Underscore names a module takes from a sibling module."""
    return sorted(f"{m}.{x}" for m, x in sibling_reads(source) if x.startswith("_"))


def test_private_reads_detector():
    source = ("from . import intlat, algebra as al\nfrom .expr import _ZERO, Y\n"
              "import numpy as np\n"
              "x = intlat._rref(al.convolve, al.__all__, np._core, Y, _ZERO)\n")
    assert private_reads(source) == ["expr._ZERO", "intlat._rref"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_reads_no_private_sibling_name(path):
    assert private_reads(path.read_text()) == []


EXPORTS = {path.stem: all_names(ast.parse(path.read_text())) for path in MODULES}


def unexported_reads(source: str, exports=EXPORTS) -> list[str]:
    """Names a module takes from a sibling module whose __all__ leaves them
    out; a sibling with no __all__ exports every name."""
    return sorted(f"{m}.{x}" for m, x in sibling_reads(source)
                  if exports.get(m) is not None and x not in exports[m])


def test_unexported_reads_detector():
    exports = {"algebra": {"convolve"}, "expr": {"Y"}, "errors": None}
    source = ("from . import intlat, algebra as al\nfrom .expr import Y, Z\n"
              "from .errors import DomainError\nimport numpy as np\n"
              "x = intlat.solve(al.convolve, al.__all__, al.sweep, np.linalg, Y, Z)\n")
    assert unexported_reads(source, exports) == ["algebra.sweep", "expr.Z"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_reads_only_exported_sibling_names(path):
    assert unexported_reads(path.read_text()) == []


# pyproject's one dependency, and the package itself
DECLARED = {"numpy", "torikit"}


def undeclared_imports(source: str) -> list[str]:
    """Top-level packages a module imports absolutely that are neither in
    the standard library nor declared."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return sorted(found - set(sys.stdlib_module_names) - DECLARED)


def test_undeclared_imports_detector():
    source = ("from __future__ import annotations\nimport os.path, numpy as np\n"
              "import scipy.linalg\nfrom . import expr\nfrom .errors import ParseError\n"
              "from torikit import cli\nfrom sympy import Symbol\n"
              "def f():\n    import mpmath\n")
    assert undeclared_imports(source) == ["mpmath", "scipy", "sympy"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_imports_only_declared_packages(path):
    assert undeclared_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_all_resolves(path):
    name = "torikit" if path.stem == "__init__" else f"torikit.{path.stem}"
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def load_tracer(monkeypatch):
    # load the tracer by path without writing bytecode next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("torikit_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_layers_resolve(monkeypatch):
    tracer = load_tracer(monkeypatch)
    assert tracer.LAYERS
    for module, qualname in tracer.LAYERS:
        obj = importlib.import_module(f"torikit.{module}")
        for part in qualname.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (module, qualname)


def test_tracer_reads_orbit_sizes(monkeypatch):
    # the tracer's annotations read len() of an orbit and .dim of the
    # orbit passed to represent
    tracer = load_tracer(monkeypatch)
    # install() patches every module the tracer names, so import them all
    for path in MODULES:
        if path.stem != "__init__":
            importlib.import_module(f"torikit.{path.stem}")
    from torikit import algebra as al
    from torikit import groupoid as gr
    from torikit import matrixrep as mr
    from torikit import polytope as pt
    P, hbar = pt.projective_space(2), Fraction(1, 7)
    t = tracer.Tracer(lambda P, hbar, y0: 0)
    t.install()
    try:
        orb = gr.orbit(P, hbar, (Fraction(1, 14), Fraction(3, 14)))
        mr.spectrum(mr.represent(P, orb, al.element(2, {(0, 0): "y1 + y2"})))
    finally:
        t.uninstall()
    metrics = t.layer_metrics()
    assert len(orb) == 21
    assert metrics["groupoid.orbit.calls"] == 1
    assert metrics["matrixrep.represent.calls"] == metrics["matrixrep.spectrum.calls"] == 1
    assert metrics["groupoid.orbit.points"] == len(orb)
    assert metrics["matrixrep.represent.dim_sum"] == len(orb)


def string_literals(source: str) -> list[str]:
    """Every string constant of a module, the parts of f-strings included
    and docstrings left out."""
    tree = ast.parse(source)
    docs = {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and ast.get_docstring(node, clean=False) is not None}
    return [node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in docs]


def test_string_literals_detector():
    source = ('"""doc: bad rational"""\n'
              'def f(n):\n    """bad rational"""\n'
              '    raise ValueError(f"bad rational {n}: no" + "x")\n')
    assert sorted(string_literals(source)) == [": no", "bad rational ", "x"]


# one phrase of each owner's text, and the rule it states
OWNER_TEXTS = ["bad rational", "coordinates, expected", "entries, expected",
               "components, expected", "suite cases must be at least", "bad angle",
               "ambient vector has shape", "past float range", "is not in the groupoid",
               "decreasing and positive as floats"]
LITERALS = [text for path in MODULES for text in string_literals(path.read_text())]


@pytest.mark.parametrize("phrase", OWNER_TEXTS)
def test_each_rule_text_is_written_once(phrase):
    assert sum(phrase in text for text in LITERALS) == 1


def hbar_coercions(source: str) -> list[str]:
    """The calls Fraction(hbar), Fraction(h) and Fraction(hbar_max)."""
    return [ast.unparse(node) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Fraction"
            and len(node.args) == 1 and getattr(node.args[0], "id", None) in
            {"hbar", "h", "hbar_max"}]


def test_hbar_coercions_detector():
    source = "a = [Fraction(h), Fraction(hbar, 2), Fraction(1, h), Fraction(hbar_max)]\n"
    assert hbar_coercions(source) == ["Fraction(h)", "Fraction(hbar_max)"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "polytope"],
                         ids=lambda p: p.stem)
def test_hbar_is_coerced_only_by_its_owner(path):
    # `polytope.rational` reads every hbar
    assert hbar_coercions(path.read_text()) == []


def float_calls(source: str) -> list[str]:
    """The argument of every float() call."""
    return [ast.unparse(node.args[0]) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float"
            and node.args]


@pytest.mark.parametrize("stem", ["matrixrep", "suite", "delzant"])
def test_exact_values_reach_float_through_their_owners(stem):
    # float() there reads numpy results only; an exact value goes to
    # `expr.floats` or `groupoid.Orbit.coordinates`
    source = (Path(torikit.__file__).parent / f"{stem}.py").read_text()
    assert [a for a in float_calls(source) if not a.startswith("np.")] == []


def i_hbar_divisions(source: str) -> list[str]:
    """The divisions x / (1j * h) of a module."""
    return [ast.unparse(node) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and isinstance(node.right, ast.BinOp) and isinstance(node.right.op, ast.Mult)
            and getattr(node.right.left, "value", None) == 1j]


def test_one_function_divides_by_i_hbar():
    found = [(path.stem, d) for path in MODULES for d in i_hbar_divisions(path.read_text())]
    assert found == [("algebra", "comm / (1j * h)")]
