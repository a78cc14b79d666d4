"""Seeded input generator for the torikit benchmark.

`generate(workload, seed, workdir, data_dir)` writes every file the program
will read (polytopes, observables and a manifest of the ops) into `workdir`
and returns the op specs.  An op spec is plain data: the CLI argv or the
library call, the exit code it must give, the oracle that checks it, the
sizes that make later comparisons interpretable and the kind of work that
dominates it ("cal", which picks its calibration unit in `calibrate.py`:
interpreted Fraction code, small-array numpy, LAPACK, or a mix).  The same
seed gives the same files and specs.

Workloads, and why each was chosen:

verify_suite   `verify suite` on sphere, square and cp2 with two cases each.
               Symbolic derivation (bracket battery), Fraction membership
               (representation battery) and the lattice batteries dominate;
               orbits are tiny, so an orbit change should leave it unchanged.
orbit_ladder   `groupoid orbit` over an hbar ladder with orbits of about 300
               to 1500 points, plus one exact-path op (int64 guard exceeded)
               and one capped op that must exit 2.  Only `groupoid` and
               `polytope` work here.
matrix_model   `quantize spectra`, `quantize bracket-limit`,
               `matrixrep.casimir_defect` and `matrixrep.bracket_via_matrices`
               with matrix dimension D from about 100 to about 1800, Hermitian
               and non-Hermitian.  `represent`, vectorized evaluation and
               `spectrum` dominate; there is almost no symbolic derivation.
"""
from __future__ import annotations

import json
import os
import random
import shutil
from fractions import Fraction

WORKLOADS = ("verify_suite", "orbit_ladder", "matrix_model")
POLYTOPES = ("sphere", "square", "cp2")

SUITE_CASES = 2
SUITE_OPS = 600          # distinct suite seeds; a run cycles only if it gets through all
SUITE_TRACE_OPS = 12

ORBIT_LADDER = {
    "cp2": (25, 32, 40, 48),        # orbit sizes q(q-1)/2: 300 .. 1128
    "square": (18, 24, 30, 38),     # q^2: 324 .. 1444
    "sphere": (300, 600, 1000, 1500),
}
CAP_HBAR = Fraction(1, 600)
CAP = 10


def _q(x: Fraction) -> str:
    return str(Fraction(x))


# ---------------------------------------------------------------------------
# polynomials: {exponent tuple: Fraction}, written as torikit expression text

def random_poly(rng: random.Random, n: int, degree: int = 2, terms: int = 3):
    poly = {}
    for _ in range(rng.randint(1, terms)):
        exps = [0] * n
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(n)] += 1
        coeff = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
        key = tuple(exps)
        poly[key] = poly.get(key, Fraction(0)) + coeff
    return {k: c for k, c in poly.items() if c} or {(0,) * n: Fraction(1)}


def poly_text(poly, shift=None) -> str:
    """Expression text; `shift` substitutes y_i -> y_i - shift_i*h."""
    out = []
    for exps, c in sorted(poly.items()):
        factors = []
        for i, e in enumerate(exps):
            if not e:
                continue
            var = f"y{i + 1}"
            s = shift[i] if shift else 0
            if s:
                var = f"(y{i + 1} - {s}*h)" if s > 0 else f"(y{i + 1} + {-s}*h)"
            factors.append(var if e == 1 else f"{var}^{e}")
        mag = abs(c)
        body = "*".join(([_q(mag)] if mag != 1 or not factors else []) + factors)
        sign = "-" if c < 0 else "+"
        out.append(f"{sign} {body}" if out else (f"-{body}" if c < 0 else body))
    return " ".join(out)


def poly_eval(poly, y) -> Fraction:
    total = Fraction(0)
    for exps, c in poly.items():
        term = c
        for yi, e in zip(y, exps):
            term *= Fraction(yi) ** e
        total += term
    return total


def poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {k: c for k, c in out.items() if c}


def _poly_doc(poly):
    return {"".join(map(str, k)): _q(c) for k, c in sorted(poly.items())}


def poly_from_doc(doc):
    return {tuple(int(ch) for ch in k): Fraction(c) for k, c in doc.items()}


# ---------------------------------------------------------------------------
# seeded points

def _interior_point(rng, name, denom):
    """Rational point strictly inside the polytope, off the hbar lattice."""
    while True:
        if name == "sphere":
            y = (Fraction(rng.randint(1, denom - 1), denom),)
        else:
            y = (Fraction(rng.randint(1, denom - 1), denom),
                 Fraction(rng.randint(1, denom - 1), denom))
        if name != "cp2" or sum(y) < 1:
            return y


def _boundary_point(rng, name, denom):
    """Point on a seeded facet (or vertex) of the polytope."""
    t = Fraction(rng.randint(1, denom - 1), denom)
    if name == "sphere":
        return (Fraction(rng.randint(0, 1)),)
    facet = rng.randrange(4 if name == "square" else 3)
    if rng.random() < 0.2:
        t = Fraction(0)
    if name == "square":
        return [(Fraction(0), t), (t, Fraction(0)), (Fraction(1), t), (t, Fraction(1))][facet]
    return [(Fraction(0), t), (t, Fraction(0)), (t, 1 - t)][facet]


def _fmt_point(y) -> str:
    return ",".join(_q(c) for c in y)


# ---------------------------------------------------------------------------
# workloads

class _Writer:
    def __init__(self, workdir):
        self.workdir = workdir
        self.count = 0

    def path(self, name):
        return os.path.join(self.workdir, name)

    def out(self):
        self.count += 1
        return self.path(f"out{self.count}.txt")

    def observable(self, name, modes):
        """modes: list of (k, re_text, im_text)."""
        doc = {"modes": [{"k": list(k), "re": re, "im": im} for k, re, im in modes]}
        with open(self.path(name), "w") as fh:
            json.dump(doc, fh, indent=1)
        return self.path(name)


def _verify_suite(rng, w, poly_paths):
    ops = []
    for i in range(SUITE_OPS):
        name = POLYTOPES[i % 3]
        seed = rng.randrange(2 ** 31)
        ops.append({
            "name": f"suite/{name}/{seed}",
            "argv": ["verify", "suite", poly_paths[name], "--seed", str(seed),
                     "--cases", str(SUITE_CASES), "--out", w.out()],
            "expect_rc": 0,
            "cal": "py",
            "oracle": {"type": "suite"},
            "sizes": {"polytope": name, "cases": SUITE_CASES, "suite_seed": seed},
        })
    return ops, 3, SUITE_TRACE_OPS


def _orbit_op(w, poly_paths, name, hbar, y, kind, closed_form=None, cal="np"):
    return {
        "name": f"orbit/{name}/{kind}/{_q(hbar)}",
        "argv": ["groupoid", "orbit", poly_paths[name], f"--hbar={_q(hbar)}",
                 "--point", _fmt_point(y), "--out", w.out()],
        "expect_rc": 0,
        "cal": cal,
        "oracle": {"type": "orbit", "polytope": name, "hbar": _q(hbar),
                   "point": [_q(c) for c in y], "closed_form": closed_form},
        "sizes": {"polytope": name, "hbar": _q(hbar), "kind": kind},
    }


def _orbit_ladder(rng, w, poly_paths):
    # Each round repeats the same ops, so the samples come in blocks of equal
    # ops; a round of 10k + 5 ops puts p50 and p90 inside a block, not on the
    # edge between two different ops.
    ops = []
    for name, ladder in ORBIT_LADDER.items():
        for q in ladder:
            h = Fraction(1, q)
            closed = {"cp2": q * (q - 1) // 2, "square": q * q, "sphere": q}[name]
            dim = 1 if name == "sphere" else 2
            ops.append(_orbit_op(w, poly_paths, name, h, (h / 2,) * dim,
                                 "half_step", closed))
            ops.append(_orbit_op(w, poly_paths, name, -h,
                                 _interior_point(rng, name, 7 * q + rng.randint(1, 5)),
                                 "interior_neg"))
            if name != "sphere" or q == ladder[0]:   # sphere boundary orbits are one point
                ops.append(_orbit_op(w, poly_paths, name, h * rng.choice((1, -1)),
                                     _boundary_point(rng, name, 3 * q + 1), "boundary"))
    # exact path: the common denominator of 2^62 and hbar overflows the int64 guard
    y_exact = (Fraction(1, 2 ** 62) + Fraction(rng.randint(1, 4), 5),)
    ops.append(_orbit_op(w, poly_paths, "sphere", Fraction(1, 40), y_exact, "exact_path",
                         cal="py"))
    y_cap = _interior_point(rng, "square", 1201)
    ops.append({
        "name": "orbit/square/capped",
        "argv": ["groupoid", "orbit", poly_paths["square"], "--hbar", _q(CAP_HBAR),
                 "--point", _fmt_point(y_cap), "--cap", str(CAP), "--out", w.out()],
        "expect_rc": 2,
        "cal": "np",
        "oracle": {"type": "exit_only"},
        "sizes": {"polytope": "square", "hbar": _q(CAP_HBAR), "cap": CAP},
    })
    rng.shuffle(ops)
    assert len(ops) % 10 == 5
    return ops, len(ops), len(ops)


# matrix_model ladders: (polytope, q) per observable family
SPHERE_X3_Q = (100, 400, 900, 1800)
SPHERE_HERM_Q = (150, 200, 250, 300, 500)
SPHERE_GEN_Q = (120, 200, 300, 400)
CP2_HERM_Q = (15, 20, 25, 35)
CP2_GEN_Q = (12, 15, 18, 21, 25, 35)
CASIMIR_Q = (50, 100, 150, 200, 300)
BRACKET_LIMIT_OPS = 15


def _moments_op(w, poly_paths, name, obs_path, q, oracle, kind):
    dim = q if name == "sphere" else q * (q - 1) // 2
    return {
        "name": f"spectra/{name}/{kind}/{q}",
        "argv": ["quantize", "spectra", poly_paths[name], "--obs", obs_path,
                 "--hbar", f"1/{q}", "--out", w.out()],
        "expect_rc": 0,
        # the eigensolver's O(D^3) takes over from Fraction membership as D grows
        "cal": "la" if dim >= 1000 else "mixed" if dim >= 500 else "py",
        "oracle": dict(oracle, polytope=name, hbar=f"1/{q}"),
        "sizes": {"polytope": name, "hbar": f"1/{q}", "kind": kind},
    }


def _matrix_model(rng, w, poly_paths, x3_path):
    ops = []
    for q in SPHERE_X3_Q:
        ops.append(_moments_op(w, poly_paths, "sphere", x3_path, q,
                               {"type": "spectrum_x3"}, "x3"))

    # Hermitian sphere: d(y) e_0 + a*sqrt(y(1-y)) (e_1 + e_-1 shifted)
    for i, q in enumerate(SPHERE_HERM_Q):
        d = random_poly(rng, 1)
        a = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        path = w.observable(f"sphere_herm{i}.json", [
            ((0,), poly_text(d), "0"),
            ((1,), f"{_q(a)}*sqrt(y1*(1 - y1))", "0"),
            ((-1,), f"{_q(a)}*sqrt((y1 - h)*(1 - (y1 - h)))", "0"),
        ])
        sq = {(1,): a * a, (2,): -a * a}
        ops.append(_moments_op(w, poly_paths, "sphere", path, q, {
            "type": "moments", "hermitian": True, "diag_re": _poly_doc(d),
            "diag_im": {}, "offdiag_sq": [[[1], _poly_doc(sq)]]}, "hermitian"))

    # non-Hermitian: complex diagonal plus one h-scaled shift (triangular)
    gen = [("sphere", q, (1,)) for q in SPHERE_GEN_Q]
    gen += [("cp2", q, rng.choice(((1, 0), (0, 1), (1, -1)))) for q in CP2_GEN_Q]
    for i, (name, q, l) in enumerate(gen):
        n = len(l)
        d, e, c = random_poly(rng, n), random_poly(rng, n), random_poly(rng, n, 1)
        path = w.observable(f"{name}_gen{i}.json", [
            ((0,) * n, poly_text(d), poly_text(e)),
            (l, f"h*({poly_text(c)})", "0"),
        ])
        ops.append(_moments_op(w, poly_paths, name, path, q, {
            "type": "moments", "hermitian": False, "diag_re": _poly_doc(d),
            "diag_im": _poly_doc(e), "offdiag_sq": []}, "general"))

    # Hermitian cp2: d e_0 + c e_l + c(y - h l) e_-l
    for i, q in enumerate(CP2_HERM_Q):
        l = rng.choice(((1, 0), (0, 1), (1, -1)))
        d, c = random_poly(rng, 2), random_poly(rng, 2)
        path = w.observable(f"cp2_herm{i}.json", [
            ((0, 0), poly_text(d), "0"),
            (l, poly_text(c), "0"),
            (tuple(-x for x in l), poly_text(c, shift=l), "0"),
        ])
        ops.append(_moments_op(w, poly_paths, "cp2", path, q, {
            "type": "moments", "hermitian": True, "diag_re": _poly_doc(d),
            "diag_im": {}, "offdiag_sq": [[list(l), _poly_doc(poly_mul(c, c))]]},
            "hermitian"))

    # bracket-limit sweeps (CLI default hbar ladder 1/16 .. 1/1024)
    for i in range(BRACKET_LIMIT_OPS):
        name = ("sphere", "cp2")[i % 2]
        n = 1 if name == "sphere" else 2
        # max mode 1 throughout, so the CLI's action-angle grid is the same size
        modes = [(-1,), (1,)] if n == 1 else [(1, 0), (0, 1), (-1, 1)]
        paths, k = [], (0,) * n
        for tag in "fg":
            l = rng.choice(modes)
            k = tuple(a + b for a, b in zip(k, l))
            paths.append(w.observable(f"bl{i}{tag}.json", [
                (l, poly_text(random_poly(rng, n)), poly_text(random_poly(rng, n, 1)))]))
        y = (Fraction(rng.randint(3, 5), 8),) if n == 1 else \
            (Fraction(rng.randint(2, 3), 8), Fraction(rng.randint(2, 3), 8))
        ops.append({
            "name": f"bracket-limit/{name}/{i}",
            "argv": ["quantize", "bracket-limit", poly_paths[name], "--obs", paths[0],
                     "--obs2", paths[1], "--point", _fmt_point(y),
                     "--mode=" + ",".join(map(str, k)), "--out", w.out()],
            "expect_rc": 0,
            "cal": "py",
            "oracle": {"type": "bracket_limit", "polytope": name, "f": paths[0],
                       "g": paths[1], "point": [_q(c) for c in y], "mode": list(k)},
            "sizes": {"polytope": name, "hbar": "1/16..1/1024"},
        })

    for q in CASIMIR_Q:
        ops.append({
            "name": f"casimir_defect/{q}",
            "call": {"fn": "casimir_defect", "polytope": "sphere", "hbar": f"1/{q}"},
            "expect_rc": 0,
            "cal": "py",
            "oracle": {"type": "casimir", "hbar": f"1/{q}"},
            "sizes": {"polytope": "sphere", "hbar": f"1/{q}", "dim": q},
        })

    for i, (name, hbars) in enumerate((("cp2", (8, 16, 32)), ("sphere", (16, 32, 64, 128)))):
        n = 1 if name == "sphere" else 2
        l = (1,) if n == 1 else rng.choice(((1, 0), (0, 1)))
        f_path = w.observable(f"bvm{i}f.json", [
            (l, poly_text(random_poly(rng, n)), "0")])
        g_path = w.observable(f"bvm{i}g.json", [
            ((0,) * n, poly_text(random_poly(rng, n)), poly_text(random_poly(rng, n, 1)))])
        y = (Fraction(rng.randint(3, 5), 8),) if n == 1 else \
            (Fraction(rng.randint(1, 3), 8), Fraction(rng.randint(1, 3), 8))
        ops.append({
            "name": f"bracket_via_matrices/{name}",
            "call": {"fn": "bracket_via_matrices", "polytope": name, "f": f_path,
                     "g": g_path, "point": [_q(c) for c in y], "mode": list(l),
                     "hbars": [f"1/{q}" for q in hbars]},
            "expect_rc": 0,
            "cal": "py",
            "oracle": {"type": "bracket_symbolic"},
            "sizes": {"polytope": name, "hbar": f"1/{hbars[0]}..1/{hbars[-1]}"},
        })
    rng.shuffle(ops)
    assert len(ops) % 10 == 5
    return ops, len(ops), len(ops)


def generate(workload: str, seed: int, workdir: str, data_dir: str):
    """Write the workload's input files into `workdir`; return
    (op specs, ops per round, ops in the traced pass)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    w = _Writer(workdir)
    poly_paths = {}
    for name in POLYTOPES:
        poly_paths[name] = w.path(f"{name}.json")
        shutil.copyfile(os.path.join(data_dir, f"{name}.json"), poly_paths[name])
    if workload == "verify_suite":
        result = _verify_suite(rng, w, poly_paths)
    elif workload == "orbit_ladder":
        result = _orbit_ladder(rng, w, poly_paths)
    else:
        x3_path = w.path("x3.json")
        shutil.copyfile(os.path.join(data_dir, "obs", "x3.json"), x3_path)
        result = _matrix_model(rng, w, poly_paths, x3_path)
    with open(w.path("inputs.json"), "w") as fh:
        json.dump({"workload": workload, "seed": seed, "ops": result[0]}, fh, indent=1)
    return result
