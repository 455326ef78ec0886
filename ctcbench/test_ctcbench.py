"""Self-tests of the benchmark: exact traced counts and seeded determinism.

Run with ``python -m pytest -q ctcbench`` from the repository root. The
counts below are per `ctcsim report` on the shipped inputs; a change to the
library that alters how often a layer is called must update them on purpose.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = ROOT / "data"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import ctcsim  # noqa: E402
from checks import Reference, load_oracle  # noqa: E402
from inputs import read_inputs, write_inputs  # noqa: E402
from run import REJECTED, Report, RuleSweep  # noqa: E402
from tracing import Tracer  # noqa: E402

SHIPPED_COUNTS = {
    "taxmath.thresholds.calls": 1_488,
    "taxmath.thresholds.unique": 156,
    "taxmath.refund_credit_threshold.calls": 3_150,
    "classifier.assign_bins.calls": 1_302,
    "stats.ols.calls": 22,
    "params.BracketSchedule.tax.calls": 10_852,
}
COUNT_KEYS = sorted(SHIPPED_COUNTS) + ["counterfactual.eligibility.calls",
                                       "classifier.bins_assigned", "stats.ols.zero_df_fits"]


@pytest.fixture
def scratch():
    path = ROOT / ".ctcbench-out" / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def shipped_inputs():
    return read_inputs(DATA / "params.json", DATA / "population.csv", DATA / "children.csv")


def traced_report(liability: str) -> dict[str, float]:
    report = Report(ctcsim, shipped_inputs(), liability, reference=None)
    tracer = Tracer()
    tracer.install(ctcsim)
    try:
        code, _ = tracer.op(report.op, 0)
    finally:
        tracer.uninstall()
    assert code == 0
    return tracer.summary()


@pytest.fixture(scope="module")
def exact_runs():
    return traced_report("exact"), traced_report("exact")


def test_traced_report_reproduces_shipped_counts(exact_runs):
    first, _ = exact_runs
    assert {k: first[k] for k in SHIPPED_COUNTS} == SHIPPED_COUNTS


def test_two_traced_reports_count_identically(exact_runs):
    first, second = exact_runs
    assert {k: first[k] for k in COUNT_KEYS} == {k: second[k] for k in COUNT_KEYS}


def test_traced_report_has_self_time_for_every_layer(exact_runs):
    first, _ = exact_runs
    for layer in ("params", "population", "taxmath", "classifier", "counterfactual", "stats",
                  "cli"):
        assert first[f"{layer}.self_s"] > 0, layer


def test_table_report_bracket_tax_calls():
    assert traced_report("table")["params.BracketSchedule.tax.calls"] == 101_163


def test_tracing_is_removed_after_uninstall():
    originals = (ctcsim.cli.thresholds, ctcsim.counterfactual.thresholds,
                 ctcsim.taxmath.thresholds, ctcsim.params.BracketSchedule.tax)
    tracer = Tracer()
    tracer.install(ctcsim)
    assert ctcsim.cli.thresholds is not originals[0]
    assert ctcsim.counterfactual.thresholds is ctcsim.taxmath.thresholds
    tracer.uninstall()
    assert (ctcsim.cli.thresholds, ctcsim.counterfactual.thresholds,
            ctcsim.taxmath.thresholds, ctcsim.params.BracketSchedule.tax) == originals


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    inner = tracer.wrap("classifier.inner", lambda: sum(range(20_000)))

    def outer():
        inner()
        inner()

    tracer.op(tracer.wrap("cli.outer", outer))
    summary = tracer.summary()
    assert summary["cli.outer.calls"] == 1 and summary["classifier.inner.calls"] == 2
    assert summary["cli.self_s"] == pytest.approx(
        summary["cli.outer.s"] - summary["classifier.inner.s"], abs=1e-9)


def test_inputs_are_seeded(scratch):
    a = write_inputs(ROOT, 7, scratch / "a")
    b = write_inputs(ROOT, 7, scratch / "b")
    c = write_inputs(ROOT, 8, scratch / "c")
    assert a.population.read_bytes() == b.population.read_bytes()
    assert a.children.read_bytes() == b.children.read_bytes()
    assert a.population.read_bytes() != c.population.read_bytes()
    shipped = shipped_inputs()
    assert a.bins.keys() == shipped.bins.keys()
    assert min(a.total(*key) for key in a.bins) > 0


def test_rule_sweep_rejected_set_is_seeded(scratch):
    inputs = write_inputs(ROOT, 3, scratch)

    def rejected(seed):
        sweep = RuleSweep(ctcsim, inputs, seed, reference=None)
        for index in range(300):
            sweep.record(index, sweep.op(index))
        assert not sweep.bad_ops
        return sweep.rejected

    first = rejected(3)
    assert first and first == rejected(3)
    assert first != rejected(4)


def test_rule_sweep_checks_rejections(scratch):
    """Sampled rejections must be out of order by the reference; a spurious one fails."""
    inputs = write_inputs(ROOT, 3, scratch)
    sweep = RuleSweep(ctcsim, inputs, 3, Reference(load_oracle(ROOT), inputs))
    sweep.checked_indices = set(range(120))
    spurious = None
    for index in range(120):
        rules, results = sweep.op(index)
        if spurious is None and results is not REJECTED:
            spurious, results = index, REJECTED
        sweep.record(index, (rules, results))
    failed, problems = sweep.verify()
    assert sweep.rejected_confirmed > 0
    assert failed == 1 and problems[0].startswith(f"op {spurious}: rejected")
