"""ctcbench/tracing.py on a real report: `run.py --trace 1` keeps working as ctcsim changes.

The benchmark's tracer binds ctcsim's public functions by name and signature
(``thresholds(profile, params, mode)``, ``BracketSchedule.tax``), so a refactor
can break traced runs without touching an untraced one. Loaded by path, unedited.
"""

import contextlib
import importlib.util
import io

import pytest

import ctcsim
from ctcsim.cli import main

from conftest import DATA, ROOT

spec = importlib.util.spec_from_file_location("tracing", ROOT / "ctcbench" / "tracing.py")
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)


@pytest.fixture(autouse=True)
def data_env(monkeypatch):
    monkeypatch.setenv("CTCSIM_DATA_DIR", str(DATA))


def report(liability):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["report", "--liability", liability])
    return code, out.getvalue()


@pytest.mark.parametrize("liability", ["exact", "table"])
def test_traced_report_matches_untraced_and_counts_its_calls(liability):
    untraced = report(liability)
    tracer = tracing.Tracer()
    tracer.install(ctcsim)
    try:
        traced = tracer.op(report, liability)
    finally:
        tracer.uninstall()
    assert traced[0] == 0
    assert traced == untraced
    counts = tracer.summary()
    # Only the `thresholds` command's rows call `thresholds`; the 156 classified cells read
    # the memoised boundary pairs under it, which the tracer does not count.
    assert counts["taxmath.thresholds.calls"] == 96
    assert counts["taxmath.thresholds.unique"] == 96
    assert counts["counterfactual.eligibility.calls"] == 480
