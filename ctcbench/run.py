#!/usr/bin/env python3
"""ctcsim benchmark: run one seeded workload and print its metrics.

    python3 ctcbench/run.py --workload report-exact --seed 1 --seconds 20 --trace 0

Run it from the repository root (any directory works; paths resolve from
this file). ``--trace 0`` measures the end-to-end metrics with nothing
wrapped; ``--trace 1`` is a separate run that wraps every public ctcsim
function and reports per-layer metrics per op. Both check every output. The
last stdout line is the result object; the line before it records the host,
seed and sample counts, and the same record is kept under ``.ctcbench-out/``.
Workloads, metrics and what each layer metric should move are described in
``ctcbench/README.md``; names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

# One process, one thread: BLAS pools would otherwise spin on both CPUs.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
NPROC = len(os.sched_getaffinity(0))

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".ctcbench-out"
REQUIRED = ("BENCHMARK.json", "src/ctcsim/__init__.py", "src/ctcsim/cli.py", "data/params.json",
            "data/population.csv", "data/children.csv", "tests/oracle.py")

SETUP_CHILDREN = 5  # cold processes per run; setup_s is their median
P90_MIN_TAIL = 10
MIN_OPS = 3  # timed ops per run even when one op outlasts --seconds
RULE_STREAM_SIZE = 60_000  # rule sets generated up front; a run stops if it uses them all
SWEEP_WARMUP = 20
TRACED_MAX_OPS = 200  # per-op layer counts need few ops; spans of more fill memory and disk
SWEEP_CHECKED = 100  # rule-sweep ops checked against the brute-force reference
SWEEP_CHECK_SPAN = 1000  # ... drawn from the first this-many ops, which every run reaches
# Timings are scaled to reference host speed. The shared host this was
# tuned on runs all code up to ~1.8x slower in spells of seconds to minutes;
# a fixed Fraction workload (the probe) timed between blocks of ops slows
# alike, so op time / probe time stays put where op time alone does not.
PROBE_TERMS = 400  # one probe sum: Fraction(1, 1) + ... + Fraction(1, 399)
SUM_REF_NS = 0.85e6  # one probe sum's time in the host's fast spells
BLOCK_S = 0.05  # ops between two probes run for at least this long
PROBE_SHARE = 0.1  # a probe lasts about this share of a block
SETUP_CODE = (
    "import sys\n"
    "import ctcsim.cli\n"
    "from ctcsim import load_params, load_population\n"
    "load_params(sys.argv[1])\n"
    "load_population(sys.argv[2], sys.argv[3])\n"
)
# Cold start is file reads and page faults as much as bytecode, so the Fraction
# probe tracks it poorly; a cold child with a fixed import list tracks it well.
REFERENCE_CODE = "import argparse, csv, fractions, json, numpy"
REFERENCE_CHILD_S = 0.15  # the reference child's time in the host's fast spells

sys.path.insert(0, str(HERE))
from checks import Reference, check_report, load_oracle  # noqa: E402
from inputs import RuleStream, write_inputs  # noqa: E402


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def cold_setup_seconds(inputs, env) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters importing ctcsim.cli and loading the inputs.

    Each of SETUP_CHILDREN such children is followed by a reference child
    that imports numpy and a few stdlib modules and nothing of ctcsim.
    Returns the raw seconds of each setup child and the same scaled to
    reference host speed: setup time / reference time * REFERENCE_CHILD_S.
    """
    setup = [sys.executable, "-c", SETUP_CODE, str(inputs.params), str(inputs.population),
             str(inputs.children)]
    reference = [sys.executable, "-c", REFERENCE_CODE]
    raw, scaled = [], []
    for _ in range(SETUP_CHILDREN):
        elapsed = _child_seconds(setup, env)
        raw.append(elapsed)
        scaled.append(elapsed / _child_seconds(reference, env) * REFERENCE_CHILD_S)
    return raw, scaled


def _child_seconds(argv, env) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"cold child failed: {proc.stderr[-500:]}")
    return elapsed


# ---------------------------------------------------------------------------
# Workloads. Each op goes through ctcsim's public entry points only:
# ctcsim.cli.main for reports, the package-level functions for rule sets.


class Report:
    """`ctcsim report` in-process on one seeded input set; every op repeats it."""

    warmup = 1
    limit = sys.maxsize

    def __init__(self, ctcsim, inputs, liability: str, reference):
        import ctcsim.cli

        self.cli = ctcsim.cli
        self.argv = ["report", "--params", str(inputs.params), "--population",
                     str(inputs.population), "--children", str(inputs.children),
                     "--liability", liability]
        self.params_by_year = ctcsim.load_params(inputs.params)
        self.groups = list(ctcsim.ParentalGroup)
        self.reference = reference
        self.first_code = 0
        self.first_text: str | None = None
        self.first_digest = ""
        self.bad_ops = 0
        self.ops = 0
        self.output_bytes = 0
        self.rows_emitted = 0

    def op(self, index: int):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(self.argv)
        return code, buf.getvalue()

    def record(self, index: int, outcome) -> None:
        self.ops += 1
        code, text = outcome
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if self.first_text is None:
            self.first_code, self.first_text, self.first_digest = code, text, digest
            if code == 0:
                bundle = json.loads(text)
                self.rows_emitted = sum(len(v) for v in bundle.values() if isinstance(v, list))
                self.output_bytes = len(text.encode("utf-8"))
        if code != 0 or digest != self.first_digest:
            self.bad_ops += 1

    def verify(self) -> tuple[int, list[str]]:
        """Failed ops and the problems found; every op must match the first output."""
        if self.first_text is None:
            return 0, []
        if self.first_code != 0:
            return self.ops, [f"report exited with code {self.first_code}"]
        problems = check_report(self.first_text, self.reference, self.params_by_year, self.groups)
        if problems:
            return self.ops, problems
        if self.bad_ops:
            return self.bad_ops, [f"{self.bad_ops} report(s) failed or differed from the first"]
        return 0, []

    def layer_counts(self) -> dict[str, float]:
        return {"cli.rows_emitted": self.rows_emitted, "cli.output_bytes": self.output_bytes}

    def extra_record(self) -> dict:
        return {"output_sha256": self.first_digest}


REJECTED = "rejected"


class RuleSweep:
    """A stream of distinct validated rule sets; each op classifies 3 groups x 2 scenarios."""

    warmup = SWEEP_WARMUP

    def __init__(self, ctcsim, inputs, seed: int, reference):
        self.ctcsim = ctcsim
        self.inputs = inputs
        self.reference = reference
        self.params_by_year = ctcsim.load_params(inputs.params)
        self.pop = ctcsim.load_population(inputs.population, inputs.children)
        self.groups = list(ctcsim.ParentalGroup)
        self.scenarios = list(ctcsim.Scenario)
        self.stream = RuleStream(seed, sorted(self.params_by_year),
                                 self._min_tax_free(), RULE_STREAM_SIZE)
        self.limit = len(self.stream)
        rng = random.Random(f"sweep-check:{seed}")
        self.checked_indices = set(rng.sample(range(SWEEP_CHECK_SPAN), SWEEP_CHECKED))
        self.kept: list = []
        self.rejected: list[int] = []
        self.bad_ops: set[int] = set()
        self.problems: list[str] = []
        self.rejected_confirmed = 0
        self.rejected_near_tie = 0
        self.ops = 0

    def _min_tax_free(self) -> dict[int, int]:
        """Smallest tax-free amount of any household (one child) per year."""
        out = {}
        for year, p in self.params_by_year.items():
            out[year] = int(min(
                p.for_status(g.filing_status).standard_deduction
                + p.for_status(g.filing_status).exemption_per_person * (g.adults + 1)
                for g in self.groups))
        return out

    def overrides(self, spec: dict) -> dict:
        status = self.ctcsim.FilingStatus
        return {
            "ctc_per_child": spec["ctc"],
            "actc_per_child": spec["actc"],
            "refund_threshold": spec["floor"],
            "refund_rate": Fraction(spec["rate_pct"], 100),
            "phaseout_start": {status.MARRIED_JOINT: spec["phaseout_married"],
                               status.HEAD_OF_HOUSEHOLD: spec["phaseout_hoh"]},
        }

    def op(self, index: int):
        ctcsim = self.ctcsim
        spec = self.stream[index]
        year = spec["year"]
        rules = ctcsim.apply_overrides(self.params_by_year[year], self.overrides(spec))
        results = []
        try:
            for group in self.groups:
                for scenario in self.scenarios:
                    est = ctcsim.eligibility(self.pop, year, group, rules, scenario)
                    share = ctcsim.full_relief_proportion(self.pop, year, group, rules, scenario)
                    results.append((group, scenario, est, share))
        except ctcsim.errors.OrderingViolation:
            return rules, REJECTED
        return rules, results

    def record(self, index: int, outcome) -> None:
        self.ops += 1
        rules, results = outcome
        year = self.stream[index]["year"]
        if index in self.checked_indices:
            self.kept.append((index, year, rules, results))
        if results is REJECTED:
            self.rejected.append(index)
            return
        for group, scenario, est, _ in results:
            if est.total != self.inputs.total(year, group.value):
                self.bad_ops.add(index)
                self.problems.append(f"op {index}: {group.value} {scenario.value} counts "
                                     f"do not sum to the bin total")

    def verify(self) -> tuple[int, list[str]]:
        """Check the sampled ops: accepted ones cell by cell, rejected ones by their ordering."""
        for index, year, rules, results in self.kept:
            if results is REJECTED:
                self._verify_rejected(index, year, rules)
                continue
            for group, scenario, est, share in results:
                got = [est.counts[c] for c in self.ctcsim.ReliefCategory]
                want = self.reference.counts(rules, year, group, scenario.value)
                if got != want:
                    self.bad_ops.add(index)
                    self.problems.append(f"op {index} {group.value} {scenario.value}: "
                                         f"{got} != reference {want}")
                want_share = self.reference.full_relief(rules, year, group, scenario.value)
                if share != want_share:
                    self.bad_ops.add(index)
                    self.problems.append(f"op {index} {group.value} {scenario.value}: full "
                                         f"relief {share} != reference {want_share}")
                if self.reference.ordering_violated(rules, year, group, scenario.value):
                    self.bad_ops.add(index)
                    self.problems.append(f"op {index} {group.value} {scenario.value}: accepted, "
                                         f"but the reference thresholds are out of order")
        return len(self.bad_ops), self.problems

    def _verify_rejected(self, index: int, year: int, rules) -> None:
        verdicts = [self.reference.ordering_violated(rules, year, group, scenario.value)
                    for group in self.groups for scenario in self.scenarios]
        if True in verdicts:
            self.rejected_confirmed += 1
        elif None in verdicts:
            self.rejected_near_tie += 1
        else:
            self.bad_ops.add(index)
            self.problems.append(f"op {index}: rejected with OrderingViolation, but the "
                                 f"reference thresholds are in order for every household")

    def layer_counts(self) -> dict[str, float]:
        return {"cli.rows_emitted": 0, "cli.output_bytes": 0}

    def extra_record(self) -> dict:
        prefix = [i for i in self.rejected if i < SWEEP_CHECK_SPAN]
        digest = hashlib.sha256(",".join(map(str, prefix)).encode()).hexdigest()
        return {"rejected": len(self.rejected),
                "rejected_in_first_ops": len(prefix),
                "rejected_first_ops_sha256": digest,
                "brute_force_checked_ops": len(self.kept),
                "checked_rejections_confirmed": self.rejected_confirmed,
                "checked_rejections_near_tie": self.rejected_near_tie}


WORKLOADS = ("report-exact", "report-table", "rule-sweep")


def make_workload(name: str, ctcsim, inputs, seed: int, reference):
    if name == "report-exact":
        return Report(ctcsim, inputs, "exact", reference)
    if name == "report-table":
        return Report(ctcsim, inputs, "table", reference)
    return RuleSweep(ctcsim, inputs, seed, reference)


# ---------------------------------------------------------------------------
# Measurement


class Runner:
    """Runs ops by index, records their outcomes, and counts ops that raised."""

    def __init__(self, workload):
        self.workload = workload
        self.next_index = 0
        self.attempted = 0
        self.raised = 0
        self.probe_sums = 1

    def one(self, call=None) -> int:
        """Run the next op, through `call(op, index)` if given; returns its wall time in ns."""
        index = self.next_index
        self.next_index += 1
        self.attempted += 1
        t0 = time.perf_counter_ns()
        try:
            outcome = call(self.workload.op, index) if call else self.workload.op(index)
        except Exception:  # an op that raises is a failed op; keep measuring
            self.raised += 1
            if self.raised == 1:
                traceback.print_exc(file=sys.stderr)
            return time.perf_counter_ns() - t0
        elapsed = time.perf_counter_ns() - t0
        self.workload.record(index, outcome)
        return elapsed

    def for_seconds(self, seconds: float, min_ops: int,
                    call=None) -> tuple[list[int], list[float]]:
        """Ops run until `seconds` pass and at least `min_ops` ran.

        Ops run in blocks of at least BLOCK_S with a host probe between
        blocks. Returns each op's wall time in ns and the same time scaled
        to reference host speed by the probes on either side of its block.
        """
        raw: list[int] = []
        scaled: list[float] = []
        deadline = time.perf_counter() + seconds

        def more(block):
            return self.next_index < self.workload.limit and (
                len(raw) + len(block) < min_ops or time.perf_counter() < deadline)

        before = host_probe_ns(self.probe_sums)
        while more(()):
            block: list[int] = []
            while more(block) and sum(block) < BLOCK_S * 1e9:
                block.append(self.one(call))
            after = host_probe_ns(self.probe_sums)
            factor = SUM_REF_NS * self.probe_sums / ((before + after) / 2)
            raw += block
            scaled += [t * factor for t in block]
            before = after
        return raw, scaled


def probe_sums_for(op_ns: int) -> int:
    """Probe sums that last about PROBE_SHARE of a block of ops this long."""
    block_ns = max(BLOCK_S * 1e9, op_ns)
    return max(1, round(PROBE_SHARE * block_ns / SUM_REF_NS))


def host_probe_ns(sums: int) -> int:
    """Wall time of a fixed pure-Python Fraction workload: the host's speed, not ctcsim's.

    The collector is off while it runs, so a large heap left by the program
    cannot slow the probe and hide its own cost.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        for _ in range(sums):
            total = Fraction(0)
            for i in range(1, PROBE_TERMS):
                total += Fraction(1, i)
        return time.perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()


def latency_metrics(raw_ns: list[int], scaled_ns: list[float]) -> tuple[dict[str, float], dict]:
    """End-to-end latency metrics from scaled op times, and the run-record entries.

    op_p90_ms goes to the record only when at least P90_MIN_TAIL samples lie
    beyond it; report runs time too few ops for that.
    """
    ms = [t / 1e6 for t in scaled_ns]
    tail = len(ms) - -(-9 * len(ms) // 10)
    record = {"timed_ops": len(ms), "p90_tail_ops": tail,
              "raw_op_p50_ms": statistics.median(raw_ns) / 1e6,
              "raw_ops_per_s": len(raw_ns) / (sum(raw_ns) / 1e9)}
    if tail >= P90_MIN_TAIL:
        record["op_p90_ms"] = statistics.quantiles(ms, n=10, method="inclusive")[-1]
    metrics = {"op_p50_ms": statistics.median(ms), "ops_per_s": len(ms) / (sum(ms) / 1e3)}
    return metrics, record


def host_record() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": NPROC,
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "platform": platform.platform(),
    }


def run(args, spec: dict, inputs, env) -> tuple[dict, dict]:
    if not args.trace:
        setup_raw, setup_scaled = cold_setup_seconds(inputs, env)

    import ctcsim
    import ctcsim.cli  # noqa: F401

    if Path(ctcsim.__file__).resolve().parent != (ROOT / "src" / "ctcsim").resolve():
        raise RuntimeError(f"imported ctcsim from {ctcsim.__file__}, not from this checkout")
    liability = "table" if args.workload == "report-table" else "exact"
    reference = Reference(load_oracle(ROOT, liability), inputs)
    workload = make_workload(args.workload, ctcsim, inputs, args.seed, reference)
    runner = Runner(workload)
    for _ in range(workload.warmup):
        warm_ns = runner.one()
    runner.probe_sums = probe_sums_for(warm_ns)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "host": host_record()}
    if args.trace:
        from tracing import Tracer, import_times

        untraced, _ = runner.for_seconds(args.seconds / 3, MIN_OPS)
        tracer = Tracer()
        tracer.install(ctcsim)
        try:
            traced, _ = runner.for_seconds(0, min(len(untraced), TRACED_MAX_OPS),
                                           call=tracer.op)
        finally:
            tracer.uninstall()
        layer = tracer.summary()
        layer.update(workload.layer_counts())
        layer.update(import_times(ROOT, env))
        calls = layer.get("taxmath.thresholds.calls", 0)
        layer["taxmath.thresholds.reuse"] = (layer.get("taxmath.thresholds.unique", 0) / calls
                                             if calls else 0.0)
        layer["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
        tracer.write(OUT / f"trace-{args.workload}.tsv")
        wanted = spec["per_layer"]
        values = {m["name"]: float(layer.get(m["name"], 0.0)) for m in wanted}
        record["samples"] = {"warmup_ops": workload.warmup, "untraced_ops": len(untraced),
                             "traced_ops": len(traced), "spans": len(tracer.start)}
    else:
        raw, scaled = runner.for_seconds(args.seconds, MIN_OPS)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values, latency_record = latency_metrics(raw, scaled)
        values["setup_s"] = statistics.median(setup_scaled)
        values["peak_rss_mb"] = peak_rss_mb
        wanted = spec["end_to_end"]
        record["samples"] = {"warmup_ops": workload.warmup, "probe_sums": runner.probe_sums,
                             **latency_record,
                             "setup_children": len(setup_raw),
                             "raw_setup_s_each": setup_raw, "setup_s_each": setup_scaled}

    failed, problems = workload.verify()
    failed += runner.raised
    attempted = runner.attempted
    values["success_rate"] = (attempted - failed) / attempted
    record.update(workload.extra_record())
    record["problems"] = problems[:20]
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a ctcsim checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    # The probes, the ops and the cold children (which inherit this) all run
    # on one CPU, so a probe measures the CPU the work it scales ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    run_dir = OUT / f"run-{os.getpid()}"
    try:
        inputs = write_inputs(ROOT, args.seed, run_dir)
        result, record = run(args, spec, inputs, _child_env())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    record["result"] = result
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({k: v for k, v in record.items() if k != "result"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
