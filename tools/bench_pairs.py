#!/usr/bin/env python3
"""Paired parent/change benchmark runs, summarised into one record file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --seeds 9101:9110 \\
        --workloads rule-sweep,report-exact,report-table --out BENCH_9.json

Each DIR is a plain checkout of one commit (``git archive``, not a worktree).
Both run from source, as a fresh checkout does: each side's ``__pycache__``
directories are removed first, and every run has ``PYTHONDONTWRITEBYTECODE=1``,
so each run compiles what it imports and writes no cache. Then, per seed and
workload, each side runs ``ctcbench/run.py --trace 0`` once; within each
workload, the side that runs first alternates from seed to seed. The record
keeps every run's end-to-end metrics and, per workload and metric, each side's
median and quartiles, the pairs the change won, whether a gain may be
claimed: wins in at least nine tenths of the pairs, medians further apart than
the parent's quartiles, and every run of the workload correct on both sides,
and whether the metric ``regressed``: the change's median is worse than the
parent's by more than the metric's ``bound`` in ``BENCHMARK.json``, a fraction
of the parent's median. After writing the record it prints one verdict line per
workload and metric (:func:`verdicts`).
Each workload also records each side's count of incorrect runs: a run whose
checks failed, which had a failed op, or which exited with an error. A run
that exited with an error keeps its exit code and last stderr line but no
metrics, so each metric's figures come from the pairs with both runs whole.
Each run also keeps its unscaled cold setup times and median op time
(``samples``), which the scaled metrics hide. The record names the code each
side ran by ``code_sha256``: a SHA-256 over the side's ``src/`` files, and gives
their size as ``src_lines``: the count of newlines in those same files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def source_files(checkout: Path) -> dict[str, Path]:
    """The files under `checkout`/src by relative path, in sorted order. Bytecode caches,
    which runs write, are left out."""
    files = {path.relative_to(checkout).as_posix(): path
             for path in (checkout / "src").rglob("*")
             if path.is_file() and "__pycache__" not in path.parts}
    return dict(sorted(files.items()))


def code_sha256(checkout: Path) -> str:
    """SHA-256 over the source files, each as its path, its length and its bytes."""
    digest = hashlib.sha256()
    for name, path in source_files(checkout).items():
        data = path.read_bytes()
        digest.update(f"{name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def src_lines(checkout: Path) -> int:
    """The count of newlines in the source files."""
    return sum(path.read_bytes().count(b"\n") for path in source_files(checkout).values())


def clear_bytecode(checkout: Path) -> None:
    """Remove every ``__pycache__`` directory under `checkout`."""
    for cache in [path for path in checkout.rglob("__pycache__") if path.is_dir()]:
        shutil.rmtree(cache)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "ctcbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    if proc.returncode:  # an incorrect run with no metrics; the set goes on
        stderr = proc.stderr.strip().splitlines()
        return {"correct": False, "attempted": 0, "failed": 0, "exit_code": proc.returncode,
                "error": stderr[-1] if stderr else "", "metrics": {}, "samples": {}}
    record, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "samples": {name: record["samples"][name]
                        for name in ("raw_setup_s_each", "raw_op_p50_ms")}}


def schedule(seeds: list[int], workloads: list[str]):
    """(seed, workload, sides in run order): each workload's first side alternates by seed."""
    for k, seed in enumerate(seeds):
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        for workload in workloads:
            yield seed, workload, order


def spread(values: list[float]) -> dict:
    if len(values) == 1:  # quantiles needs two values
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs: list[dict], metrics: list[dict]) -> dict:
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = [r for r in runs if r["workload"] == workload]
        incorrect = {side: sum(not p[side]["correct"] or p[side]["failed"] > 0 for p in pairs)
                     for side in ("parent", "change")}
        out[workload] = {"incorrect_runs": incorrect}
        for m in metrics:
            name, sign = m["name"], 1 if m["better"] == "higher" else -1
            # A pair compares only if neither run exited with an error.
            both = [p for p in pairs
                    if name in p["parent"]["metrics"] and name in p["change"]["metrics"]]
            if not both:
                out[workload][name] = {"unit": m["unit"], "better": m["better"], "pairs": 0,
                                       "gain_claimable": False}
                continue
            parent = [p["parent"]["metrics"][name] for p in both]
            change = [p["change"]["metrics"][name] for p in both]
            wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
            ties = sum(c == p for p, c in zip(parent, change))
            before, after = spread(parent), spread(change)
            better_by = sign * (after["median"] - before["median"])
            gain = (wins >= 0.9 * len(pairs) and not any(incorrect.values())
                    and better_by > before["q3"] - before["q1"])
            out[workload][name] = {"unit": m["unit"], "better": m["better"], "parent": before,
                                   "change": after, "change_wins": wins, "ties": ties,
                                   "pairs": len(both), "gain_claimable": gain,
                                   "regressed": -better_by > m["bound"] * abs(before["median"])}
    return out


def verdicts(workloads: dict) -> list[str]:
    """One line per workload and metric of a summary: the parent and change medians, the
    change in percent of the parent's, the pairs the change won, `gain_claimable` and
    `regressed`."""
    lines = []
    for workload, summary in workloads.items():
        for name, m in summary.items():
            if name == "incorrect_runs":
                continue
            if not m["pairs"]:
                lines.append(f"{workload} {name}: no pair with both runs whole")
                continue
            before, after = m["parent"]["median"], m["change"]["median"]
            percent = f"{100 * (after - before) / abs(before):+.1f}%" if before else "n/a"
            lines.append(f"{workload} {name}: parent {before:.6g} change {after:.6g} ({percent}), "
                         f"wins {m['change_wins']}/{m['pairs']}, "
                         f"gain_claimable {m['gain_claimable']}, regressed {m['regressed']}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seeds", required=True, help="FIRST:LAST, inclusive")
    parser.add_argument("--workloads", required=True, help="comma-separated")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    first, last = map(int, args.seeds.split(":"))
    seeds = list(range(first, last + 1))
    workloads = args.workloads.split(",")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    code = {side: code_sha256(checkout) for side, checkout in sides.items()}
    lines = {side: src_lines(checkout) for side, checkout in sides.items()}
    for checkout in sides.values():
        clear_bytecode(checkout)
    metrics = json.loads((sides["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    runs = []
    for seed, workload, order in schedule(seeds, workloads):
        pair = {"seed": seed, "workload": workload, "first": order[0]}
        for side in order:
            pair[side] = run_once(sides[side], workload, seed, args.seconds)
        runs.append(pair)
        print(json.dumps(pair), file=sys.stderr, flush=True)
    record = {"seeds": seeds, "pairs_per_workload": len(seeds), "seconds": args.seconds,
              "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
              "python": platform.python_version(), "code_sha256": code,
              "src_lines": lines,
              "workloads": summarise(runs, metrics), "runs": runs}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for line in verdicts(record["workloads"]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
