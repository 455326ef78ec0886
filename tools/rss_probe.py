#!/usr/bin/env python3
"""Peak RSS of a fixed number of rule-sweep ops, in a fresh process per checkout.

    python3 tools/rss_probe.py --ops 5000 --seed 1 --repeats 4 PARENT_DIR CHANGE_DIR

``ctcbench/run.py --workload rule-sweep`` runs as many ops as fit in its
seconds and keeps each op's time, so a change that makes ops faster runs more
of them and can read a higher ``peak_rss_mb`` for that alone. This probe holds
the op count fixed. For each checkout DIR (a plain checkout, as for
``tools/bench_pairs.py``) it starts a fresh interpreter that imports that
checkout's ``src/ctcsim`` and ``ctcbench/run.py``, writes the seeded inputs
with the benchmark's own input writer, runs ops ``0 .. OPS-1`` through its
``RuleSweep`` (the warm-up ops included, no timing kept), and reads its own
peak RSS, ``VmHWM`` in ``/proc/self/status`` (Linux). The benchmark reads
``ru_maxrss``, which is the same figure for a process started from a small
one; ``ru_maxrss`` also keeps the peak of the process that started the child,
so a probe run from inside a large process would read that. Nothing under
``ctcbench/`` is edited. Each child gets the same small environment, since
the size of the environment alone has moved the reading, and repeats
alternate the order of the checkouts.

Prints one JSON line per child, then one per checkout with the median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

CHILD = """\
import json, sys
from pathlib import Path
root, seed, ops, scratch = Path(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3]), Path(sys.argv[4])
sys.path[:0] = [str(root / "src"), str(root / "ctcbench")]
import ctcsim, ctcsim.cli
import run as bench  # ctcbench/run.py: its main() runs only as a script
if Path(ctcsim.__file__).resolve().parent != (root / "src" / "ctcsim").resolve():
    sys.exit(f"imported ctcsim from {ctcsim.__file__}, not from {root}")
inputs = bench.write_inputs(root, seed, scratch)
sweep = bench.RuleSweep(ctcsim, inputs, seed, bench.Reference(bench.load_oracle(root), inputs))
for index in range(ops):
    sweep.record(index, sweep.op(index))
peak_kb = next(int(line.split()[1]) for line in open("/proc/self/status")
               if line.startswith("VmHWM:"))
print(json.dumps({"ops": sweep.ops, "peak_rss_mb": peak_kb / 1024}))
"""

# The same for every child: no PYTHONPATH (the child sets its own path), one BLAS thread.
ENV = {"PATH": os.environ.get("PATH", ""), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1"}


def probe(checkout: Path, ops: int, seed: int) -> dict:
    """One fresh child's op count and peak RSS; raises RuntimeError if the child fails."""
    with tempfile.TemporaryDirectory() as scratch:
        proc = subprocess.run([sys.executable, "-c", CHILD, str(checkout), str(seed), str(ops),
                               scratch], cwd=checkout, env=ENV, capture_output=True, text=True)
    if proc.returncode:
        stderr = proc.stderr.strip().splitlines()
        raise RuntimeError(f"{checkout}: {stderr[-1] if stderr else f'exit {proc.returncode}'}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="+", type=Path)
    parser.add_argument("--ops", type=int, default=5000, help="rule-sweep ops per child")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=1, help="children per checkout")
    args = parser.parse_args(argv)
    if args.ops < 1 or args.repeats < 1:
        parser.error("--ops and --repeats must be positive")
    checkouts = [c.resolve() for c in args.checkouts]
    peaks: dict[Path, list[float]] = {c: [] for c in checkouts}
    for repeat in range(args.repeats):
        for checkout in checkouts if repeat % 2 == 0 else checkouts[::-1]:
            try:
                row = probe(checkout, args.ops, args.seed)
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            peaks[checkout].append(row["peak_rss_mb"])
            print(json.dumps({"checkout": str(checkout), "repeat": repeat, **row}), flush=True)
    for checkout, values in peaks.items():
        print(json.dumps({"checkout": str(checkout), "children": len(values),
                          "median_peak_rss_mb": statistics.median(values)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
