"""Batch command-line front-end.

Commands:
    torikit polytope check FILE        screening report, exit 0/1/2
    torikit polytope strata FILE       faces with samples and isotropy
    torikit polytope make NAME         builders: sphere, cpn, square, orthant, product
    torikit groupoid orbit FILE        orbit listing at fixed hbar
    torikit quantize bracket-limit ... commutator sweep vs the two classical oracles
    torikit quantize spectra ...       eigenvalues of a quantized observable
    torikit verify suite FILE          seeded law batteries, exit 0/1

Exit codes: 0 success, 1 verification failure, 2 bad input (an --out file
that cannot be written included) or a computation that cannot be carried out
(a domain error, the orbit cap, a singular or overflowing evaluation),
3 margin violation.  Rationals are serialized as
"p/q" end to end; floats appear only in measured/error columns.  Identical
config and seed give byte-identical output.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import re
import sys
from fractions import Fraction
from itertools import repeat

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


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational {text!r}: {exc}") from exc


def _require_length(name: str, text: str, values: tuple, n: int) -> tuple:
    if len(values) != n:
        raise FormatError(f"{name} {text!r} has {len(values)} coordinates, "
                          f"the polytope has dimension {n}")
    return values


def _point(text: str, n: int) -> tuple[Fraction, ...]:
    return _require_length(
        "point", text, tuple(_fraction(part) for part in text.split(",")), n)


def _mode(text: str, n: int) -> tuple[int, ...]:
    try:
        k = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise FormatError(f"bad mode {text!r}: {exc}") from exc
    return _require_length("mode", text, k, n)


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise FormatError(
                f"cannot write output file {args.out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _csv_document(name: str, header, rows, preamble=()) -> str:
    buf = io.StringIO()
    buf.write(f"# torikit {name} {CSV_VERSION}")
    for item in preamble:
        buf.write(f" {item}")
    buf.write("\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


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
        _emit(args, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        lines = [report.summary()]
        for v in report.vertices:
            lines.append("vertex " + ",".join(str(c) for c in v))
        if report.ok:
            for f in doc["faces"]:
                lines.append(
                    f"face active={f['active']} dim={f['dim']} "
                    f"sample=({','.join(f['sample'])})")
        _emit(args, "\n".join(lines) + "\n")
    if report.ok:
        return 0
    return 0 if args.permissive else 1


def cmd_polytope_strata(args) -> int:
    P = pt.load_polytope(args.polytope)
    pt.require_delzant(P)
    faces = pt.enumerate_faces(P)
    rows = [
        (";".join(str(j) for j in f.active) or "-", f.dim,
         ",".join(str(c) for c in f.sample),
         ";".join(",".join(str(c) for c in P.normals[j]) for j in f.active) or "-")
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
    _emit(args, json.dumps(pt.polytope_to_dict(P), indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# groupoid commands

def _ratio_text(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0, without building the Fraction."""
    g = math.gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"


def cmd_groupoid_orbit(args) -> int:
    if args.cap < 1:
        raise FormatError(f"--cap must be at least 1, got {args.cap}")
    P = pt.load_polytope(args.polytope)
    pt.require_delzant(P)
    if len(args.hbar) != 1:
        raise FormatError("groupoid orbit takes exactly one --hbar")
    hbar = _fraction(args.hbar[0])
    if hbar == 0:
        raise FormatError("--hbar must be nonzero")
    orb = gr.orbit(P, hbar, _point(args.point, P.n), cap=args.cap)
    # coordinate i of point j is the integer num0[i] + step*steps[j, i] over d
    d, num0, step = orb.numerators
    columns = []
    for i in range(P.n):    # each distinct coordinate formatted once
        values, inverse = np.unique(orb.steps[:, i], return_inverse=True)
        text = [_ratio_text(num0[i] + step * c, d) for c in values.tolist()]
        columns.append([text[j] for j in inverse.tolist()])
    header = ("index",) + tuple(f"y{i + 1}" for i in range(P.n))
    _emit(args, _csv_document("orbit", header, zip(range(len(orb)), *columns),
                              preamble=[f"hbar={hbar}", f"size={len(orb)}"]))
    return 0


# ---------------------------------------------------------------------------
# quantize commands

def cmd_quantize_bracket_limit(args) -> int:
    P = pt.load_polytope(args.polytope)
    pt.require_delzant(P)
    f = al.load_observable(args.obs, P.n)
    g = al.load_observable(args.obs2, P.n)
    y = _point(args.point, P.n)
    k = _mode(args.mode, P.n) if args.mode else tuple([0] * P.n)
    hbars = [_fraction(h) for h in (args.hbar or [])]
    if not hbars:
        hbars = [Fraction(1, 2) ** i for i in range(4, 11)]
    if any(h == 0 for h in hbars):
        raise FormatError("hbar list must not contain 0")

    limit = al.numeric_bracket_limit(P, f, g, y, k, hbars)
    sym = al.symbolic_bracket(f, g, y, k)
    grid = 2 * (f.max_mode() + g.max_mode()) + 3
    yf = [float(c) for c in y]
    spec = cl.angle_spectrum(cl.poisson_bracket_aa_at(f, g, yf), P.n, grid)
    aa = complex(spec[tuple(ki % grid for ki in k)])
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
    return 0 if max(err_sym, err_aa) <= args.tol else 1


def cmd_quantize_spectra(args) -> int:
    P = pt.load_polytope(args.polytope)
    pt.require_delzant(P)
    f = al.load_observable(args.obs, P.n)
    if not args.hbar:
        raise FormatError("--hbar is required")
    rows = []
    for htext in args.hbar:
        hbar = _fraction(htext)
        if hbar == 0:
            raise FormatError("--hbar must be nonzero")
        y0 = _point(args.point, P.n) if args.point else tuple([abs(hbar) / 2] * P.n)
        orb = gr.orbit(P, hbar, y0)
        eigs = mr.spectrum(mr.represent(P, orb, f))
        rows.extend(zip(repeat(str(hbar)), repeat(len(orb)), range(len(eigs)),
                        map(str, eigs.real.tolist()), map(str, eigs.imag.tolist())))
    _emit(args, _csv_document(
        "spectra", ("hbar", "orbit_size", "index", "re", "im"),
        rows, preamble=[f"obs={args.obs}"]))
    return 0


# ---------------------------------------------------------------------------
# verify

def cmd_verify_suite(args) -> int:
    if args.cases < 1:
        raise FormatError(f"--cases must be at least 1, got {args.cases}")
    P = pt.load_polytope(args.polytope)
    pt.require_delzant(P)
    report = su.run_suite(P, seed=args.seed, tol=args.tol, cases=args.cases)
    _emit(args, json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
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
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out")
    p.set_defaults(func=cmd_quantize_bracket_limit)

    p = q_sub.add_parser("spectra", help="eigenvalues of a quantized observable")
    p.add_argument("polytope")
    p.add_argument("--obs", required=True)
    p.add_argument("--hbar", action="append", metavar="P/Q")
    p.add_argument("--point")
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
