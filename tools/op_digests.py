#!/usr/bin/env python3
"""One sha256 per benchmark op, to show that a change keeps every output.

    python3 tools/op_digests.py [--src SRC] --seed N --workdir DIR

from the root of a source checkout.  torikit is imported from SRC
(default: the `src/` next to this file) before perfbench's setup runs, so
one copy of the tool can digest two checkouts over one DIR; a torikit
found elsewhere is refused.  For every op of every workload of
`perfbench/run.py`, built with the same seed as the benchmark builds it,
this prints one line

    WORKLOAD INDEX NAME SHA256

where the digest covers the op's exit code, the digest perfbench takes of
its output (the `--out` text and stderr of a CLI command, or the repr of a
library call's value) and the exception a crashed op raised.  The inputs
are written under DIR/WORKLOAD, and error messages may quote those paths,
so two runs compare only with the same DIR: run it at two commits, or twice
at one (in fresh processes, which hash strings with different seeds), and
diff the outputs.

perfbench is imported and only read: each op runs once, untimed, through
its `Runner`.  No op is checked against an oracle.
"""
from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import inputs  # perfbench's, found through the path above
import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import torikit
    if Path(torikit.__file__).resolve().parent.parent != src:
        parser.error(f"torikit was imported from {torikit.__file__}, not from {src}")
    for workload in inputs.WORKLOADS:
        workdir = Path(args.workdir).resolve() / workload
        workdir.mkdir(parents=True, exist_ok=True)
        runner = run.Runner(run.Context(workload, args.seed, str(workdir)))
        for i, spec in enumerate(runner.ctx.specs):
            runner.run(i, timed=False)
            blob = f"{runner.rcs[i][0]}\0{runner.digests[i][0]}\0{runner.errors.get(i, '')}"
            print(workload, i, spec["name"], hashlib.sha256(blob.encode()).hexdigest(),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
