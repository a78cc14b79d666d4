"""Calibration units that turn CPU time into time on a reference core.

On a shared two-vCPU Xeon virtual machine, speed changed by up to 1.8x from
minute to minute (shared caches, sibling threads, frequency), and CPU time
does not hide that.  Worse, kinds of work slowed down by different factors:
interpreted Fraction code about 1.8-2x, numpy on small arrays about 1.5x,
LAPACK about 1.35x.  So three fixed units, one per kind, run before every
op, and each op's CPU time is scaled by its own kind's unit:

    scaled = cpu * NOMINAL[kind] / median(unit times of the WINDOW ops around it)

A "mixed" op (orbit, represent and eigensolver in one command) uses the
geometric mean of the three factors.  NOMINAL is the unit's CPU time on the
reference core, so a scaled time reads as the time there.
"""
from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

import numpy as np

NOMINAL = {"py": 0.004, "np": 0.0035, "la": 0.006}
WINDOW = 5

_ROWS = np.arange(3000, dtype=np.int64).reshape(1000, 3) % 17
_SYM = np.cos(np.add.outer(np.arange(300.0), np.arange(300.0)))


def _unit_py():
    acc, table = Fraction(0), {}
    for i in range(1, 400):
        acc += Fraction(i, i + 1) * Fraction(i + 2, 2 * i + 3)
        table[(i, i % 7)] = acc.numerator % 1000


def _unit_np():
    for i in range(60):
        s = _ROWS[i]
        ok = ((_ROWS == s[None, :]) | ((s[None, :] > 3) & (_ROWS > 3))).all(axis=1)
        np.nonzero(ok)


def _unit_la():
    np.linalg.eigvalsh(_SYM)


_UNITS = {"py": _unit_py, "np": _unit_np, "la": _unit_la}


def measure() -> dict:
    """CPU seconds of one run of each unit."""
    out = {}
    for kind, unit in _UNITS.items():
        t0 = time.process_time()
        unit()
        out[kind] = time.process_time() - t0
    return out


def factor(cals, kind: str) -> float:
    """Scale factor from a window of `measure()` results for an op of `kind`."""
    if kind == "mixed":
        return math.prod(factor(cals, k) for k in NOMINAL) ** (1 / len(NOMINAL))
    return NOMINAL[kind] / statistics.median(c[kind] for c in cals)


def scale(samples, kinds):
    """Scaled seconds for a sequence of (cpu seconds, measure() result)."""
    out = []
    for j, ((cpu, _), kind) in enumerate(zip(samples, kinds)):
        lo = min(max(0, j - WINDOW // 2), max(0, len(samples) - WINDOW))
        out.append(cpu * factor([c for _, c in samples[lo:lo + WINDOW]], kind))
    return out
