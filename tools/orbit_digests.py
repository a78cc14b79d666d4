#!/usr/bin/env python3
"""One line per `groupoid.orbit` call over a fixed corpus, to show that a
change keeps every orbit.

    python3 tools/orbit_digests.py [--src DIR] [--seed N]

imports torikit from DIR (default: the `src/` next to this file), so one
copy of the tool can run against two checkouts; diff the two outputs.  For
every call it prints one line

    INDEX POLYTOPE y0 hbar cap: orbit SIZE SHA256

where the digest covers the steps array in orbit order, or

    INDEX POLYTOPE y0 hbar cap: ERROR-TYPE: TEXT

The corpus, built from N (default 1), pairs polytopes of dimension 1 to 3
(the interval, two squares, cp2, cp3, two trapezoids, the cube and a box
with normals (2, 0) and (0, 3)) with base points at their vertices, at
their face samples (`polytope.enumerate_faces`), at samples moved a few
hbar steps and at jittered samples, over hbar of either sign, caps 1, 7, 60
and the default, and a few hbar = +-2^-15 ... 2^-62 on the 1- and 2-D
polytopes.  Nothing is timed or checked against an oracle.
"""
from __future__ import annotations

import argparse
import hashlib
import random
import sys
from fractions import Fraction as F
from pathlib import Path

MODERATE_HBARS = [F(1, 3), F(1, 4), F(2, 7), F(1, 6), F(1, 9), F(3, 20), F(1, 12)]
TINY_HBARS = [F(1, 2 ** e) for e in (15, 20, 31, 40, 62)]
CAPS = [1, 7, 60, None, None, None]     # None: the default cap


def polytopes(pt):
    """The corpus polytopes by name, in a fixed order."""
    def facets(n, *pairs):
        return pt.DelzantPolytope(n, tuple(x for x, _ in pairs),
                                  tuple(F(a) for _, a in pairs))
    return {
        "interval": pt.interval(),
        "square": pt.square(),
        "square_pm1": facets(2, ((1, 0), -1), ((0, 1), -1), ((-1, 0), -1), ((0, -1), -1)),
        "cp2": pt.projective_space(2),
        "cp3": pt.projective_space(3),
        # Hirzebruch trapezoids: y1 + y2 <= 2 and y1 + 2*y2 <= 3 over 0 <= y2 <= 1
        "trapezoid1": facets(2, ((1, 0), 0), ((0, 1), 0), ((0, -1), -1), ((-1, -1), -2)),
        "trapezoid2": facets(2, ((1, 0), 0), ((0, 1), 0), ((0, -1), -1), ((-1, -2), -3)),
        "cube": pt.product(pt.square(), pt.interval()),
        "box_2_3": facets(2, ((2, 0), 0), ((-1, 0), -1), ((0, 3), 0), ((0, -1), -1)),
    }


def corpus(pt, seed):
    """(name, P, y0, hbar, cap) for every call, in a fixed order."""
    rng = random.Random(seed)
    for name, P in polytopes(pt).items():
        faces = pt.enumerate_faces(P)       # the vertices among them
        samples = [face.sample for face in faces]
        open_samples = [face.sample for face in faces if face.dim]
        hbars = MODERATE_HBARS if P.n < 3 else MODERATE_HBARS[:4]
        for hbar in hbars + [-h for h in hbars]:
            bases = list(samples)
            for y in rng.sample(open_samples, min(5, len(open_samples))):
                bases.append(tuple(c + hbar * rng.randint(-3, 3) for c in y))
                bases.append(tuple(c + F(rng.randint(-4, 4), rng.choice((17, 96, 2 ** 40)))
                                   for c in y))
            for y0 in bases:
                yield name, P, y0, hbar, rng.choice(CAPS)
        if P.n < 3:
            for hbar in TINY_HBARS:
                for y0 in samples:
                    yield name, P, y0, rng.choice((hbar, -hbar)), rng.choice(CAPS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import torikit
    if Path(torikit.__file__).resolve().parent.parent != src:
        parser.error(f"torikit was imported from {torikit.__file__}, not from {src}")
    from torikit import groupoid as gr
    from torikit import polytope as pt
    from torikit.errors import ToriKitError

    for i, (name, P, y0, hbar, cap) in enumerate(corpus(pt, args.seed)):
        head = f"{i} {name} {pt.format_point(y0)} {hbar} {cap or 'default'}:"
        try:
            orb = gr.orbit(P, hbar, y0) if cap is None else gr.orbit(P, hbar, y0, cap=cap)
        except ToriKitError as exc:
            print(head, f"{type(exc).__name__}: {exc}")
            continue
        digest = hashlib.sha256(orb.steps.astype("<i8").tobytes()).hexdigest()
        print(head, "orbit", len(orb), digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
