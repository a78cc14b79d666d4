"""Batch command-line front-end.

Commands:
    torikit polytope check FILE        screening report, exit 0/1/2
    torikit polytope strata FILE       faces with samples and isotropy
    torikit polytope make NAME         builders: sphere, cpn, square, orthant, product
    torikit groupoid orbit FILE        orbit listing at fixed hbar
    torikit quantize bracket-limit ... commutator sweep vs the two classical oracles
    torikit quantize spectra ...       eigenvalues of a quantized observable
    torikit verify suite FILE          seeded law batteries, exit 0/1

Exit codes: 0 success; 1 a failed verification or check (a screening
violation, a failed suite, or a bracket limit whose whole-sweep Richardson
estimate, which the CSV does not print, is off by more than --tol from
either oracle: each error is compared on its own, so a NaN fails; the CSV's
err_sym/err_cls columns are each row's own extrapolant error); 2 bad input
or a computation that cannot be carried out; 3 margin violation.  The CLI
only parses options and files: each rule on their values (a rational, hbar,
the orbit cap, the suite's case count, a point's length and place, a mode)
has one owner in the library (`polytope`'s docstring lists them), whose
one line is printed after "input error: " for a FormatError, ParseError or
DimensionError and after "error: " for a DomainError, OrbitCapError or
EvalDomainError; both exit 2.
So do an --out file that cannot be written, a JSON file, expression or
integer literal past its parser's bounds, the orbit cap, a classical oracle
grid or bracket mode sum past its cap, and an evaluation, product or
renormalized commutator that is singular or not finite.  Each command runs
with numpy's overflow and invalid-value warnings silenced: a value that is
not finite is refused where it is evaluated, so the warning would only
repeat the error.  `quantize bracket-limit`'s action-angle oracle is
`classical.poisson_bracket_aa_mode`.
`quantize spectra` builds each orbit through --point, or by default through
(|hbar|/2, ..., |hbar|/2); a default point outside the polytope exits 2 and
asks for --point.  Rationals are serialized as "p/q" end to end; floats
appear only in measured/error columns.  Identical config and seed give
byte-identical output.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction
from itertools import chain, islice, repeat

import numpy as np

from . import algebra as al
from . import classical as cl
from . import groupoid as gr
from . import matrixrep as mr
from . import polytope as pt
from . import suite as su
from .errors import (DimensionError, DomainError, EvalDomainError, FormatError,
                     MarginError, OrbitCapError, ParseError, ToriKitError)

CSV_VERSION = "v1"

_BUILDERS = {
    "sphere": lambda args: pt.interval(),
    "cpn": lambda args: pt.projective_space(args.n),
    "square": lambda args: pt.square(),
    "orthant": lambda args: pt.orthant(args.n),
}


def _point(text: str) -> tuple[Fraction, ...]:
    return pt.ratpoint(text.split(","))


def _mode(text: str, n: int) -> tuple[int, ...]:
    try:
        return pt.int_mode(map(int, text.split(",")), n)
    except ValueError as exc:
        raise FormatError(f"bad mode {text!r}: {exc}") from exc


def _check_tol(tol: float) -> None:
    """A --tol value: finite and not negative, else FormatError (a NaN
    would fail every check and an infinite one pass every check)."""
    if not (math.isfinite(tol) and tol >= 0):
        raise FormatError(f"--tol must be a finite number >= 0, got {tol}")


def _emit(args, blocks) -> None:
    """Write the text blocks, in order, to --out or else to stdout.  A CSV
    document comes as blocks of rows, so the whole text is never held at
    once; other documents are one block."""
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as fh:
                fh.writelines(blocks)
        except OSError as exc:
            raise FormatError(
                f"cannot write output file {args.out}: {exc.strerror}") from exc
    else:
        sys.stdout.writelines(blocks)


_CSV_BLOCK = 1 << 14    # rows per block of `_csv_document` and of the orbit CSV


def _csv_document(name: str, header, rows, preamble=()):
    """The CSV text of a `# torikit NAME v1` document, as blocks for `_emit`:
    the title and header line, then one text per `_CSV_BLOCK` rows.

    Every field is a str, written as it is: it must hold no comma, quote or
    newline unless the caller has quoted it (`_quoted`), which is what
    csv.writer(lineterminator="\\n") writes for the same rows.  A command
    that formats its rows in bulk passes none and appends its own blocks
    (`_orbit_blocks`).
    """
    title = " ".join((f"# torikit {name} {CSV_VERSION}", *preamble))
    yield f"{title}\n{','.join(header)}\n"
    rows = iter(rows)
    while block := list(islice(rows, _CSV_BLOCK)):
        yield "\n".join(map(",".join, block)) + "\n"


def _quoted(field: str) -> str:
    """A field with a comma in double quotes, as csv.writer quotes it."""
    return f'"{field}"' if "," in field else field


# ---------------------------------------------------------------------------
# polytope commands

def cmd_polytope_check(args) -> int:
    P = pt.load_polytope(args.polytope)
    report = pt.check_delzant(P)
    doc = {
        "ok": report.ok,
        "bounded": report.bounded,
        "violations": report.violations,
        "vertices": [[str(c) for c in v] for v in report.vertices],
    }
    if report.ok:
        faces = pt.enumerate_faces(P)
        doc["faces"] = [
            {
                "active": list(f.active),
                "dim": f.dim,
                "sample": [str(c) for c in f.sample],
                "isotropy": [list(P.normals[j]) for j in f.active],
            }
            for f in faces
        ]
    if args.format == "json":
        _emit(args, [json.dumps(doc, indent=2, sort_keys=True) + "\n"])
    else:
        lines = [report.summary()]
        for v in report.vertices:
            lines.append("vertex " + ",".join(str(c) for c in v))
        if report.ok:
            for f in doc["faces"]:
                lines.append(
                    f"face active={f['active']} dim={f['dim']} "
                    f"sample=({','.join(f['sample'])})")
        _emit(args, ["\n".join(lines) + "\n"])
    if report.ok:
        return 0
    return 0 if args.permissive else 1


def cmd_polytope_strata(args) -> int:
    P = pt.load_polytope(args.polytope)
    pt.require_delzant(P)
    faces = pt.enumerate_faces(P)
    rows = [
        (";".join(str(j) for j in f.active) or "-", str(f.dim),
         _quoted(",".join(str(c) for c in f.sample)),
         _quoted(";".join(",".join(str(c) for c in P.normals[j]) for j in f.active) or "-"))
        for f in faces
    ]
    _emit(args, _csv_document("strata", ("active", "dim", "sample", "isotropy"), rows))
    return 0


def cmd_polytope_make(args) -> int:
    if args.name == "product":
        if len(args.of or ()) != 2:
            raise FormatError("product needs --of FILE FILE")
        P = pt.product(pt.load_polytope(args.of[0]), pt.load_polytope(args.of[1]))
    else:
        P = _BUILDERS[args.name](args)
    _emit(args, [json.dumps(pt.polytope_to_dict(P), indent=2) + "\n"])
    return 0


# ---------------------------------------------------------------------------
# groupoid commands

def _axis_texts(d: int, a: int, step: int, lo: int, hi: int) -> np.ndarray:
    """str(Fraction(a + step*c, d)) for c = lo .. hi, as an object array;
    d > 0.  One expression takes the gcds and quotients, on int64 arrays
    when d, a, step and both end numerators lie below 2^62 (so no product
    or sum overflows), else on object arrays of Python ints, where np.gcd
    and // are Python's exact gcd and floor division."""
    ends = (a + step * lo, a + step * hi)
    dtype = np.int64 if max(d, abs(a), abs(step), *map(abs, ends)) < 2 ** 62 else object
    num = a + step * np.arange(lo, hi + 1, dtype=np.int64).astype(dtype, copy=False)
    g = np.gcd(num, d)
    pairs = zip((num // g).tolist(), (d // g).tolist())
    return np.array([str(p) if q == 1 else f"{p}/{q}" for p, q in pairs], dtype=object)


def _orbit_blocks(orb):
    """The rows `index,y1,...,yn` of an orbit's CSV, as one text per
    `_CSV_BLOCK` rows.

    Each axis's distinct coordinate texts are formatted once
    (`_axis_texts`).  A block's cells are its row indices and, per axis,
    the texts its steps pick, laid out row-major in one list and written
    with one `%`; no cell is built for more than a block at a time.
    """
    # coordinate i of point j is the integer num0[i] + step*steps[j, i] over d
    d, num0, step = orb.numerators
    n = len(num0)
    axes = [(lo, _axis_texts(d, a, step, lo, hi))
            for a, lo, hi in zip(num0, *(bound.tolist() for bound in orb.box))]
    line = "%d" + ",%s" * n + "\n"
    for start in range(0, len(orb), _CSV_BLOCK):
        steps = orb.steps[start:start + _CSV_BLOCK]
        cells = [None] * (len(steps) * (n + 1))
        cells[::n + 1] = range(start, start + len(steps))
        for i, (lo, texts) in enumerate(axes):
            cells[i + 1::n + 1] = texts[steps[:, i] - lo].tolist()
        yield line * len(steps) % tuple(cells)


def cmd_groupoid_orbit(args) -> int:
    """The orbit CSV: one row per point, coordinates as exact "p/q" texts.

    The text is written a block of `_CSV_BLOCK` rows at a time
    (`_orbit_blocks`), so a large orbit never holds its whole text, or a
    cell per point, at once.
    """
    P = pt.load_polytope(args.polytope)
    pt.require_delzant(P)
    if len(args.hbar) != 1:
        raise FormatError("groupoid orbit takes exactly one --hbar")
    hbar = pt.rational(args.hbar[0])
    orb = gr.orbit(P, hbar, _point(args.point), cap=args.cap)
    header = ("index",) + tuple(f"y{i + 1}" for i in range(P.n))
    title = _csv_document("orbit", header, (), preamble=[f"hbar={hbar}", f"size={len(orb)}"])
    _emit(args, chain(title, _orbit_blocks(orb)))
    return 0


# ---------------------------------------------------------------------------
# quantize commands

def cmd_quantize_bracket_limit(args) -> int:
    _check_tol(args.tol)
    P = pt.load_polytope(args.polytope)
    pt.require_delzant(P)
    f = al.load_observable(args.obs, P.n)
    g = al.load_observable(args.obs2, P.n)
    y = _point(args.point)
    k = _mode(args.mode, P.n) if args.mode else tuple([0] * P.n)
    hbars = args.hbar or [Fraction(1, 2) ** i for i in range(4, 11)]

    limit = al.numeric_bracket_limit(P, f, g, y, k, hbars)
    sym = al.symbolic_bracket(f, g, y, k)
    aa = cl.poisson_bracket_aa_mode(f, g, y, k)
    err_sym = abs(limit.estimate - sym)
    err_aa = abs(limit.estimate - aa)

    header = ("hbar", "mode", "re_renorm", "im_renorm", "re_extrapolated",
              "im_extrapolated", "re_symbolic", "im_symbolic",
              "re_classical_aa", "im_classical_aa", "err_sym", "err_cls",
              "est_order")
    mode_txt = ";".join(str(c) for c in k)
    rows = []
    for row in limit.table:
        rows.append((
            str(row["hbar"]), mode_txt,
            str(row["value"].real), str(row["value"].imag),
            str(row["extrapolated"].real), str(row["extrapolated"].imag),
            str(sym.real), str(sym.imag),
            str(aa.real), str(aa.imag),
            str(abs(row["extrapolated"] - sym)),
            str(abs(row["extrapolated"] - aa)),
            str(limit.order) if row is limit.table[-1] else "",
        ))
    _emit(args, _csv_document(
        "bracket-limit", header, rows,
        preamble=[f"point={args.point}", f"tol={args.tol}"]))
    return 0 if err_sym <= args.tol and err_aa <= args.tol else 1


def cmd_quantize_spectra(args) -> int:
    P = pt.load_polytope(args.polytope)
    pt.require_delzant(P)
    f = al.load_observable(args.obs, P.n)
    rows = []
    for hbar in map(pt.rational, args.hbar):
        if hbar == 0:
            raise FormatError("--hbar must be nonzero")
        y0 = _point(args.point) if args.point else tuple([abs(hbar) / 2] * P.n)
        if not (args.point or P.contains(y0)):
            raise DomainError(
                f"default base point {pt.format_point(y0)} = (|hbar|/2, ...) "
                "lies outside the polytope; give one with --point")
        orb = gr.orbit(P, hbar, y0)
        eigs = mr.spectrum(mr.represent(P, orb, f))
        rows.extend(zip(repeat(str(hbar)), repeat(str(len(orb))), map(str, range(len(eigs))),
                        map(str, eigs.real.tolist()), map(str, eigs.imag.tolist())))
    _emit(args, _csv_document(
        "spectra", ("hbar", "orbit_size", "index", "re", "im"),
        rows, preamble=[f"obs={args.obs}"]))
    return 0


# ---------------------------------------------------------------------------
# verify

def cmd_verify_suite(args) -> int:
    _check_tol(args.tol)
    P = pt.load_polytope(args.polytope)
    pt.require_delzant(P)
    report = su.run_suite(P, seed=args.seed, tol=args.tol, cases=args.cases)
    _emit(args, [json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"])
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# argument plumbing

class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every token starting with "-" and a digit
    (or "-." and a digit) as a value, so `--hbar -1/11`, `--point -1/2,1/4`
    and `--mode -1,0` parse as their `--opt=value` forms do.  argparse's own
    test takes only plain negative integers and decimals as values; no
    option here starts with a digit.  Subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first `main` call of a process and
    reused: parse_args keeps no state between calls."""
    parser = _Parser(
        prog="torikit",
        description="quantization toolkit for toric phase spaces")
    sub = parser.add_subparsers(dest="group", required=True)

    p_poly = sub.add_parser("polytope", help="polytope inspection")
    poly_sub = p_poly.add_subparsers(dest="command", required=True)

    p = poly_sub.add_parser("check", help="screening report")
    p.add_argument("polytope")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--permissive", action="store_true",
                   help="report violations but exit 0")
    p.add_argument("--out")
    p.set_defaults(func=cmd_polytope_check)

    p = poly_sub.add_parser("strata", help="faces, samples, isotropy")
    p.add_argument("polytope")
    p.add_argument("--out")
    p.set_defaults(func=cmd_polytope_strata)

    p = poly_sub.add_parser("make", help="built-in polytopes")
    p.add_argument("name", choices=("sphere", "cpn", "square", "orthant", "product"))
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--of", nargs=2, metavar="FILE")
    p.add_argument("--out")
    p.set_defaults(func=cmd_polytope_make)

    p_gr = sub.add_parser("groupoid", help="arrow-space queries")
    gr_sub = p_gr.add_subparsers(dest="command", required=True)
    p = gr_sub.add_parser("orbit", help="orbit listing at fixed hbar")
    p.add_argument("polytope")
    p.add_argument("--hbar", action="append", required=True, metavar="P/Q")
    p.add_argument("--point", required=True)
    p.add_argument("--cap", type=int, default=1_000_000)
    p.add_argument("--out")
    p.set_defaults(func=cmd_groupoid_orbit)

    p_q = sub.add_parser("quantize", help="commutator sweeps and spectra")
    q_sub = p_q.add_subparsers(dest="command", required=True)

    p = q_sub.add_parser("bracket-limit", help="renormalized commutator sweep")
    p.add_argument("polytope")
    p.add_argument("--obs", required=True)
    p.add_argument("--obs2", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--mode")
    p.add_argument("--hbar", action="append", metavar="P/Q")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="exit 1 when the whole sweep's Richardson estimate (not printed; "
                   "err_sym/err_cls are each row's own) is further than TOL from an oracle")
    p.add_argument("--out")
    p.set_defaults(func=cmd_quantize_bracket_limit)

    p = q_sub.add_parser("spectra", help="eigenvalues of a quantized observable")
    p.add_argument("polytope")
    p.add_argument("--obs", required=True)
    p.add_argument("--hbar", action="append", required=True, metavar="P/Q")
    p.add_argument("--point", help="base point of every orbit (default: "
                   "(|hbar|/2, ..., |hbar|/2) for each --hbar)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_quantize_spectra)

    p_v = sub.add_parser("verify", help="law batteries")
    v_sub = p_v.add_subparsers(dest="command", required=True)
    p = v_sub.add_parser("suite", help="run all batteries")
    p.add_argument("polytope")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--cases", type=int, default=40)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify_suite)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except MarginError as exc:
        print(f"margin error: {exc}", file=sys.stderr)
        return 3
    except (FormatError, ParseError, DimensionError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, OrbitCapError, EvalDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ToriKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
