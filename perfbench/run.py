#!/usr/bin/env python3
"""Benchmark for torikit, run as a user runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

from the root of a source checkout.  The workloads are defined and explained
in `inputs.py`; `BENCHMARK.json` lists the metrics and `predictions.json`
says which end-to-end metric each per-layer metric should move.

Load is one client in a closed loop in this process: each op (one CLI
command through `torikit.cli.main`, or one library call) starts when the
previous one has finished.  Ops run in whole rounds until at least
`--seconds` have passed and at least MIN_SAMPLES ops have been timed, so ten
or more samples lie beyond p90.

Times are CPU time of this process, scaled to a reference core.  BLAS is
pinned to one thread and torikit does no I/O worth counting, so on an idle
core CPU time and wall time agree; on a shared machine CPU time leaves out
the time other tenants hold the core.  The machine's own changes of speed
are taken out by calibration units run before every op (`calibrate.py`):
in one process that cut the window-to-window spread of fixed ops from
10-16% to 2-4%.  Reported "ms" and "s" are therefore times on the reference
core; raw CPU and wall medians per op are kept in the record.

--trace 0 reports the end-to-end metrics.  `setup_s` is the median over
SETUP_PROBES fresh processes of the CPU time from process start to the first
op being ready: interpreter start, importing torikit.cli, loading and
screening the polytopes and writing the inputs.  Each probe scales its own
time by the "py" calibration unit, run in the probe around its set-up,
because a fresh process may run on another core than this one.

--trace 1 times the traced ops untraced for `--seconds`, then once more with
every public torikit function wrapped (`tracer.py`), and reports the
per-layer metrics plus the tracing overhead.

Every op is checked: its exit code, its oracle (`oracles.py`) and a re-run
with the same inputs, which must give byte-identical output.  The last line
of stdout is the JSON result; a fuller record, with the machine, the per-op
sizes and (traced) the spans, goes to perfbench/out/.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import calibrate
import inputs
import oracles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "torikit" / "data"
OUT_DIR = HERE / "out"
WORK_DIR = HERE / "work"

MIN_SAMPLES = 110
SETUP_PROBES = 9
RECHECK_OPS = 3          # ops timed only once get this many untimed re-runs
DIGITS_FLOOR = 2.0 ** -53


def _setup(workload: str, seed: int, workdir: str):
    """Everything a fresh process does before its first op (timed as setup_s)."""
    sys.path.insert(0, str(SRC))
    from torikit import cli, polytope as pt

    polytopes, vertices = {}, {}
    for name in inputs.POLYTOPES:
        P = pt.load_polytope(DATA / f"{name}.json")
        report = pt.check_delzant(P)
        if not report.ok:
            raise SystemExit(f"shipped polytope {name} fails screening")
        polytopes[name], vertices[name] = P, report.vertices
    specs, round_len, n_trace = inputs.generate(workload, seed, workdir, str(DATA))
    return cli, polytopes, vertices, specs, round_len, n_trace


class Context:
    """Inputs, bound library calls and cached oracle values for one run."""

    def __init__(self, workload, seed, workdir):
        (self.cli, self.polytopes, self.vertices, self.specs,
         self.round_len, self.n_trace) = _setup(workload, seed, workdir)
        self._orbits = {}
        self._symbolic = {}
        self._key = {(P.normals, P.offsets): name for name, P in self.polytopes.items()}
        self.calls = [self._bind(s) for s in self.specs]

    def _bind(self, spec):
        from torikit import algebra as al, matrixrep as mr
        call = spec.get("call")
        if call is None:
            return None
        P = self.polytopes[call["polytope"]]
        if call["fn"] == "casimir_defect":
            hbar = Fraction(call["hbar"])
            return lambda: mr.casimir_defect(P, hbar)
        f = al.load_observable(call["f"], P.n)
        g = al.load_observable(call["g"], P.n)
        y = tuple(Fraction(c) for c in call["point"])
        hbars = [Fraction(h) for h in call["hbars"]]
        return lambda: mr.bracket_via_matrices(P, f, g, y, call["mode"], hbars)

    def orbit(self, name, hbar, y0):
        key = (name, str(hbar), tuple(y0))
        if key not in self._orbits:
            self._orbits[key] = oracles.lattice_orbit(
                self.polytopes[name], self.vertices[name], hbar, y0)
        return self._orbits[key]

    def symbolic(self, d):
        from torikit import algebra as al
        key = json.dumps(d, sort_keys=True)
        if key not in self._symbolic:
            P = self.polytopes[d["polytope"]]
            f = al.load_observable(d["f"], P.n)
            g = al.load_observable(d["g"], P.n)
            self._symbolic[key] = al.symbolic_bracket(
                f, g, [Fraction(c) for c in d["point"]], d["mode"])
        return self._symbolic[key]

    def box_points(self, P, hbar, y0):
        name = self._key.get((P.normals, P.offsets))
        if name is None:
            return 0
        return oracles.box_points(self.vertices[name], Fraction(hbar),
                                  tuple(Fraction(c) for c in y0))


class Runner:
    """Runs ops, times them and keeps what the checks need."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.samples = []        # timed runs: (op index, CPU s, wall s, calibration s)
        self.rcs = {}            # op index -> [exit code, ...]
        self.digests = {}        # op index -> [sha256 of the output, ...]
        self.first = {}          # op index -> first output (text or value)
        self.errors = {}         # op index -> exception text of a crashed op

    def run(self, i, timed=True):
        spec, call = self.ctx.specs[i], self.ctx.calls[i]
        cal = calibrate.measure()
        err = io.StringIO()
        value = None
        with contextlib.redirect_stderr(err):
            w0 = time.perf_counter()
            t0 = time.process_time()
            try:
                if call is None:
                    rc = self.ctx.cli.main(spec["argv"])
                else:
                    value = call()
                    rc = 0
            except SystemExit as exc:    # argparse rejected the command line
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a crash is a failed op, not a failed run
                rc = -1
                self.errors[i] = f"{type(exc).__name__}: {exc}"
            dt = time.process_time() - t0
            wall = time.perf_counter() - w0
        if call is None:
            out = spec["argv"][spec["argv"].index("--out") + 1]
            try:
                with open(out) as fh:
                    text = fh.read()
                os.remove(out)
            except FileNotFoundError:
                text = ""
            blob = text + "\0" + err.getvalue()
        else:
            text = value
            blob = repr(value)
        if timed:
            self.samples.append((i, dt, wall, cal))
        self.rcs.setdefault(i, []).append(rc)
        self.digests.setdefault(i, []).append(hashlib.sha256(blob.encode()).hexdigest())
        self.first.setdefault(i, text)

    def loop(self, indices, round_len, seconds, min_samples):
        """Whole rounds over `indices` until both limits are reached."""
        t0 = time.perf_counter()
        pos = 0
        while True:
            for _ in range(round_len):
                self.run(indices[pos % len(indices)])
                pos += 1
            if time.perf_counter() - t0 >= seconds and pos >= min_samples:
                return

    def scaled(self, start=0, stop=None):
        """Op times of samples[start:stop] on the reference core."""
        kinds = [self.ctx.specs[s[0]]["cal"] for s in self.samples]
        out = calibrate.scale([(s[1], s[3]) for s in self.samples], kinds)
        return out[start:stop]

    def check(self):
        """Exit code, determinism and oracle per op; returns (failed ops, max error)."""
        for i in [i for i, r in self.rcs.items() if len(r) == 1][:RECHECK_OPS]:
            self.run(i, timed=False)
        failed, max_err = {}, 0.0
        for i, rcs in self.rcs.items():
            spec = self.ctx.specs[i]
            try:
                oracles.require(i not in self.errors, self.errors.get(i, ""))
                oracles.require(all(rc == spec["expect_rc"] for rc in rcs),
                                f"exit codes {sorted(set(rcs))}, expected {spec['expect_rc']}")
                oracles.require(len(set(self.digests[i])) == 1,
                                "re-run with the same inputs gave different output")
                check = oracles.CHECKS[spec["oracle"]["type"]]
                max_err = max(max_err, check(self.ctx, spec, self.first[i]))
            except (oracles.OracleError, ValueError, KeyError, IndexError) as exc:
                failed[i] = f"{spec['name']}: {type(exc).__name__}: {exc}"
        return failed, max_err


def _quantiles_ms(samples):
    q = statistics.quantiles(samples, n=10)
    return 1000 * statistics.median(samples), 1000 * q[8]


def _machine():
    import numpy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "blas_threads": 1,
            "platform": platform.platform()}


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _probe_setup(args):
    """(scaled, raw) CPU seconds of a fresh process from its start to its
    first op being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=120)
    words = proc.stdout.split()
    if proc.returncode != 0 or words[:1] != ["ready"]:
        raise RuntimeError(f"setup probe failed (exit {proc.returncode}): {proc.stderr}")
    return float(words[1]), float(words[2])


def _load_metric_list():
    with open(ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "torikit" / "cli.py").is_file():
        print(f"error: torikit sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in inputs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(inputs.WORKLOADS)}", file=sys.stderr)
        return 2

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as workdir:
        if args.setup_probe:
            t0 = _cpu_seconds()
            cals = [calibrate.measure() for _ in range(calibrate.WINDOW)]
            own = _cpu_seconds() - t0
            _setup(args.workload, args.seed, workdir)
            cpu = _cpu_seconds() - own
            cals += [calibrate.measure() for _ in range(calibrate.WINDOW)]
            print("ready", cpu * calibrate.factor(cals, "py"), cpu, flush=True)
            return 0
        return _benchmark(args, workdir)


def _benchmark(args, workdir) -> int:
    end_to_end, per_layer = _load_metric_list()
    ctx = Context(args.workload, args.seed, workdir)
    runner = Runner(ctx)
    everything = list(range(len(ctx.specs)))
    traced = everything[:ctx.n_trace]
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": _machine()}

    if args.trace == 0:
        runner.loop(everything, ctx.round_len, args.seconds, MIN_SAMPLES)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup = [_probe_setup(args) for _ in range(SETUP_PROBES)]
    else:
        from tracer import Tracer
        runner.loop(traced, len(traced), args.seconds, 1)
        n_untraced = len(runner.samples)
        tracer = Tracer(ctx.box_points)
        tracer.install()
        try:
            for i in traced:
                tracer.op_id = i
                runner.run(i)
        finally:
            tracer.uninstall()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"spans-{args.workload}-{args.seed}.npz")

    failed, max_err = runner.check()
    attempted = len(runner.samples)
    failed_runs = sum(1 for s in runner.samples if s[0] in failed)

    if args.trace == 0:
        scaled = runner.scaled()
        p50, p90 = _quantiles_ms(scaled)
        values = {
            "setup_s": statistics.median(s for s, _ in setup),
            "op_ms.p50": p50,
            "op_ms.p90": p90,
            "ops_per_s": len(scaled) / sum(scaled),
            "peak_rss_mb": rss_mb,
            "success_ratio": (attempted - failed_runs) / attempted,
            "accuracy_digits": -math.log10(max(max_err, DIGITS_FLOOR)),
        }
        units = end_to_end
        info.update(samples=len(scaled), setup_probes_s=setup, max_rel_error=max_err)
    else:
        untraced, traced_s = runner.scaled(0, n_untraced), runner.scaled(n_untraced)
        values = tracer.layer_metrics()
        values["trace.overhead"] = statistics.median(traced_s) / statistics.median(untraced)
        units = per_layer
        info.update(samples=len(untraced), traced_ops=len(traced),
                    spans=len(tracer.start), counts=tracer.counts)

    by_op = {}
    for (i, cpu, wall, _), s in zip(runner.samples, runner.scaled()):
        by_op.setdefault(i, []).append((s, cpu, wall))
    info["ops"] = [{"name": ctx.specs[i]["name"], "sizes": ctx.specs[i]["sizes"],
                    "runs": len(rows),
                    "median_ms": 1000 * statistics.median(r[0] for r in rows),
                    "median_cpu_ms": 1000 * statistics.median(r[1] for r in rows),
                    "median_wall_ms": 1000 * statistics.median(r[2] for r in rows)}
                   for i, rows in sorted(by_op.items())]
    info["failures"] = sorted(failed.values())
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{args.workload}-{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(info, fh, indent=1)
    for line in info["failures"]:
        print(f"FAILED {line}", file=sys.stderr)

    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": failed_runs,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
