#!/usr/bin/env python3
"""Paired parent/change cold-process wall times of each command, in one record file.

    python3 tools/cold_pairs.py --parent DIR --change DIR --rounds 7 --out COLD_36.json

Each DIR is a plain checkout of one commit (``git archive``, not a worktree). Users run an
installed, compiled package, so each side's ``__pycache__`` directories are removed and its
``src/`` compiled afresh, and each side then runs ``report`` once, unrecorded, as a warm-up.
Every run is a new interpreter with ``PYTHONPATH`` at the side's ``src/`` and its checkout
as the working directory, so the commands read the shipped ``data/``; no run writes
bytecode. The argv list is fixed: a bare interpreter (``python -c pass``), ``import
ctcsim.cli``, every ``COMMANDS`` entry of the change at its defaults, ``report`` in both
liability modes and ``sweep --credits 1:6000:1 --years 2018``. A command runs as the console
script does, through ``ctcsim.cli.main``. Each round runs every argv once on each side; the
side that runs first alternates from round to round. Per argv and side the record keeps
every wall time in seconds, their min and median, each run's exit code, and the SHA-256
of the first run's standard output; ``digests_agree`` holds when every run of both sides
printed the same bytes. The exit status is 1 if any argv's digests disagree or any run
exited with an error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import clear_bytecode, code_sha256, schedule, src_lines  # noqa: E402

CONSOLE_SCRIPT = "import sys; from ctcsim.cli import main; sys.exit(main(sys.argv[1:]))"
EXTRA = [["report", "--liability", "table"], ["sweep", "--credits", "1:6000:1", "--years", "2018"]]
WARM_UP = ["report"]


def python(checkout: Path, args: list[str]) -> subprocess.CompletedProcess:
    """`args` run by a fresh interpreter in `checkout`, importing from its src/."""
    return subprocess.run([sys.executable, *args], cwd=checkout, capture_output=True,
                          env={**os.environ, "PYTHONPATH": str(checkout / "src"),
                               "PYTHONDONTWRITEBYTECODE": "1"})


def command_names(checkout: Path) -> list[str]:
    proc = python(checkout, ["-c", "import json; from ctcsim.cli import COMMANDS; "
                                   "print(json.dumps(list(COMMANDS)))"])
    if proc.returncode:
        raise SystemExit(f"cannot read COMMANDS in {checkout}: {proc.stderr.decode().strip()}")
    return json.loads(proc.stdout)


def argv_list(commands: list[str]) -> dict[str, list[str]]:
    """Each label, as a user would type it, and the interpreter arguments that run it."""
    out = {"python -c pass": ["-c", "pass"], "import ctcsim.cli": ["-c", "import ctcsim.cli"]}
    for args in [[name] for name in commands] + [["report"]] + EXTRA:
        out["ctcsim " + " ".join(args)] = ["-c", CONSOLE_SCRIPT, *args]
    return out


def compile_side(checkout: Path) -> None:
    """Fresh bytecode for `checkout`'s src/, as installing the package writes it."""
    clear_bytecode(checkout)
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(checkout / "src")], check=True)


def run_once(checkout: Path, args: list[str]) -> dict:
    start = time.perf_counter()
    proc = python(checkout, args)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "exit_code": proc.returncode,
            "sha256": hashlib.sha256(proc.stdout).hexdigest()}


def summarise(runs: list[dict]) -> dict:
    """One side's runs of one argv: the first run's digest stands for all when they agree."""
    walls = [r["wall_s"] for r in runs]
    return {"wall_s": walls, "min": min(walls), "median": statistics.median(walls),
            "exit_codes": [r["exit_code"] for r in runs], "sha256": runs[0]["sha256"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    code = {side: code_sha256(checkout) for side, checkout in sides.items()}
    lines = {side: src_lines(checkout) for side, checkout in sides.items()}
    for checkout in sides.values():
        compile_side(checkout)
    argvs = argv_list(command_names(sides["change"]))
    for checkout in sides.values():
        python(checkout, ["-c", CONSOLE_SCRIPT, *WARM_UP])
    runs: dict = {label: {"parent": [], "change": []} for label in argvs}
    for _, label, order in schedule(list(range(args.rounds)), list(argvs)):
        for side in order:
            runs[label][side].append(run_once(sides[side], argvs[label]))
    record: dict = {}
    for label, by_side in runs.items():
        digests = {r["sha256"] for side in by_side.values() for r in side}
        codes = {r["exit_code"] for side in by_side.values() for r in side}
        record[label] = {"argv": argvs[label], "digests_agree": len(digests) == 1,
                         "all_exit_zero": codes == {0},
                         **{side: summarise(side_runs) for side, side_runs in by_side.items()}}
    args.out.write_text(json.dumps({
        "rounds": args.rounds, "compiled": True, "warm_up": " ".join(WARM_UP) + ", once a side",
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "code_sha256": code, "src_lines": lines,
        "argvs": record}, indent=1) + "\n")
    return 0 if all(r["digests_agree"] and r["all_exit_zero"] for r in record.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
