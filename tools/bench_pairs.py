#!/usr/bin/env python3
"""Alternating pairs of benchmark runs, parent against change.

    python3 tools/bench_pairs.py --parent REV --change REV --seeds N [N ...]
        [--workload NAME ...] [--pairs 10] [--seconds 20] [--workdir DIR]

from inside the repository.  Each revision is exported with `git archive`
into its own directory under DIR (default: a temporary directory, removed
at the end), and `perfbench/run.py --trace 0` runs there, so the runs write
only into those copies, never into the checkout.  Pair i (from 1) runs the
parent first when i is odd and the change first when i is even, both on
seed `seeds[(i - 1) % len(seeds)]`.  Without --workload, every workload of
`BENCHMARK.json` runs.

It prints two markdown tables.  The first has one row per workload and
end-to-end metric of the parent's `BENCHMARK.json`: each side's median
[q1, q3] over its runs, the pairs the change wins (ties count for neither),
change/parent - 1 of the medians, the metric's bound, and a verdict:
"gain" when there are at least ten pairs, the change wins at least nine
in ten, and the medians differ, in its favour, by more than the parent's
interquartile spread;
"worse than bound" when the change's median is worse by more than the
bound; "within bound" otherwise.  The second has one row per run: its
seed, `correct`, ops attempted and failed, and the distinct ops it reached.

The exit status is 1 if a run gave no result or read `"correct": false`,
2 for bad arguments, and 0 otherwise.  A note goes to stderr when the two
revisions' benchmark files differ, since a comparison needs the same
benchmark on both sides.
"""
from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = ("BENCHMARK.json", "perfbench")
MIN_PAIRS = 10           # the fewest pairs a gain may rest on


def export(rev: str, dest: Path) -> None:
    """The tree of `rev` written into dest by `git archive`."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def bench_bytes(root: Path) -> dict:
    """Every benchmark file under root, by relative path."""
    out = {}
    for name in BENCH_FILES:
        path = root / name
        files = sorted(path.rglob("*")) if path.is_dir() else [path]
        out.update({str(p.relative_to(root)): p.read_bytes() for p in files if p.is_file()})
    return out


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The result line and the distinct ops of one run, or None if the run
    gave none."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=600 + 10 * seconds)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(f"{workload} seed {seed} in {root.name}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}\n")
        return None
    result = json.loads(lines[-1])
    result["ops"] = len(json.loads(lines[-2])["info"]["ops"])
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[float, float]], better: str, bound: float) -> dict:
    """Medians, quartiles, wins, relative change and verdict of
    (parent, change) values of one metric."""
    sign = 1 if better == "higher" else -1
    parent, change = [p for p, _ in pairs], [c for _, c in pairs]
    pq, cq = quartiles(parent), quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    rel = cq[1] / pq[1] - 1 if pq[1] else 0.0
    if (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs)
            and sign * (cq[1] - pq[1]) > pq[2] - pq[0]):
        verdict = "gain"
    elif -sign * rel > bound:
        verdict = "worse than bound"
    else:
        verdict = "within bound"
    return {"parent": pq, "change": cq, "wins": wins, "rel": rel, "verdict": verdict}


def fmt(q) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the revision to compare against")
    parser.add_argument("--change", required=True, help="the revision to measure")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workload", action="append", dest="workloads")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--workdir", help="where the two copies go (must not exist)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")

    with tempfile.TemporaryDirectory() as tmp:
        base = Path(args.workdir) if args.workdir else Path(tmp)
        roots = {"parent": base / "parent", "change": base / "change"}
        for side, root in roots.items():
            try:
                export(getattr(args, side), root)
            except subprocess.CalledProcessError as exc:
                parser.error(f"git archive {getattr(args, side)}: {exc.stderr.decode().strip()}")
        if bench_bytes(roots["parent"]) != bench_bytes(roots["change"]):
            sys.stderr.write("note: the benchmark files differ between the two revisions\n")
        spec = json.loads((roots["parent"] / "BENCHMARK.json").read_text())
        workloads = args.workloads or [w["name"] for w in spec["workloads"]]
        runs = []          # (workload, pair, side, seed, first side, result)
        for workload in workloads:
            for i in range(1, args.pairs + 1):
                seed = args.seeds[(i - 1) % len(args.seeds)]
                order = ("parent", "change") if i % 2 else ("change", "parent")
                for side in order:
                    sys.stderr.write(f"{workload} pair {i} {side} seed {seed}\n")
                    result = run_once(roots[side], workload, seed, args.seconds)
                    runs.append((workload, i, side, seed, order[0], result))

    print("| workload | metric | parent median [q1, q3] | change median [q1, q3] "
          "| change wins | change/parent - 1 | bound | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in workloads:
        results = {(i, side): r for w, i, side, _, _, r in runs if w == workload}
        for metric in spec["end_to_end"]:
            pairs = [(results[i, "parent"]["metrics"][metric["name"]]["value"],
                      results[i, "change"]["metrics"][metric["name"]]["value"])
                     for i in range(1, args.pairs + 1)
                     if results[i, "parent"] and results[i, "change"]]
            if not pairs:
                continue
            s = summarize(pairs, metric["better"], metric["bound"])
            print(f"| {workload} | {metric['name']} | {fmt(s['parent'])} | {fmt(s['change'])} "
                  f"| {s['wins']}/{len(pairs)} | {s['rel']:+.3f} | {metric['bound']} "
                  f"| {s['verdict']} |")
    print()
    print("| workload | pair | side | seed | first | correct | attempted | failed | ops |")
    print("|---|---|---|---|---|---|---|---|---|")
    ok = True
    for workload, i, side, seed, first, r in runs:
        if r is None:
            ok = False
            print(f"| {workload} | {i} | {side} | {seed} | {first} | no result | | | |")
            continue
        ok = ok and r["correct"] is True
        print(f"| {workload} | {i} | {side} | {seed} | {first} | {r['correct']} "
              f"| {r['attempted']} | {r['failed']} | {r['ops']} |")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
