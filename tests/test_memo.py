"""The per-command memo: what it shares, and that nothing outlives a command."""

import json
import sys
from fractions import Fraction

import pytest

from ctcsim import FilingStatus, ParentalGroup, Scenario, apply_overrides
from ctcsim import counterfactual, memo, taxmath
from ctcsim.cli import main
from ctcsim.errors import OrderingViolation
from ctcsim.taxmath import HouseholdProfile, ThresholdSet, thresholds

from conftest import DATA


@pytest.fixture(autouse=True)
def data_env(monkeypatch):
    monkeypatch.setenv("CTCSIM_DATA_DIR", str(DATA))


@pytest.fixture
def inversions(monkeypatch):
    """Counts runs of the uncached threshold inversion."""
    calls = []
    inner = taxmath._thresholds

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(taxmath, "_thresholds", counted)
    return calls


@pytest.fixture
def kernels(monkeypatch):
    """Counts builds of the per-household integer kernel."""
    built = []

    class Counted(taxmath._Kernel):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(taxmath, "_Kernel", Counted)
    return built


@pytest.fixture
def threshold_sets(monkeypatch):
    """Counts constructions of `ThresholdSet`, wherever they happen."""
    built = []
    init = ThresholdSet.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ThresholdSet, "__init__", counted)
    return built


@pytest.fixture
def overrides(monkeypatch):
    """The name of the function behind each `apply_overrides` call."""
    callers = []

    def counted(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return apply_overrides(*args, **kwargs)

    monkeypatch.setattr(counterfactual, "apply_overrides", counted)
    return callers


@pytest.fixture
def cells(monkeypatch):
    """The arguments of each `eligibility` call."""
    calls = []
    inner = counterfactual.eligibility

    def counted(*args, **kwargs):
        calls.append(args + tuple(kwargs.values()))  # `mode` is the last argument either way
        return inner(*args, **kwargs)

    monkeypatch.setattr(counterfactual, "eligibility", counted)
    return calls


def test_report_inverts_each_distinct_threshold_set_once(inversions, tmp_path):
    assert main(["report", "--out", str(tmp_path / "r.json")]) == 0
    assert len(inversions) == 150
    assert len(set(inversions)) == 150


@pytest.mark.parametrize("liability", ["exact", "table"])
def test_report_scales_each_household_once_per_inversion_set(kernels, threshold_sets, tmp_path,
                                                             liability):
    # 150 threshold sets, one kernel each, and 174 full-benefit inversions. Only the 96 rows
    # of the `thresholds` command build a ThresholdSet; the classified cells read the pairs.
    assert main(["report", "--liability", liability, "--out", str(tmp_path / "r.json")]) == 0
    assert (len(kernels), len(threshold_sets)) == (324, 96)


@pytest.mark.parametrize("year, built", [(2017, 6), (2018, 9)])
def test_parity_measures_the_parity_shares_once(kernels, tmp_path, year, built):
    # At parity (2017) "before" is the parity shares, so only those and the no-floor shares
    # invert: 3 groups each. 2018 also reads its non-parity baseline's threshold sets.
    assert main(["parity", "--year", str(year), "--out", str(tmp_path / "p.csv")]) == 0
    assert len(kernels) == built


def test_report_raises_the_credit_once_per_priced_out_year(overrides, tmp_path):
    # 15 parity years and the sweep's 24 credits: the only values from outside the rule data.
    # The walks and parity copy fields that were checked at load, so they make no call.
    assert main(["report", "--out", str(tmp_path / "r.json")]) == 0
    assert len(overrides) == 39
    assert overrides.count("_raised_credit") == 15


def test_report_reads_each_panel_cell_once_per_fit_section(cells, tmp_path):
    # classify (96), the regress (90) and did (96) panels, eliminate-refund (6), parity's
    # non-parity 2018 baseline (6), the two walks (96) and priced-out's baselines (90), each
    # a cell classify already read; the sweep makes no `eligibility` call.
    assert main(["report", "--out", str(tmp_path / "r.json")]) == 0
    assert len(cells) == 480
    assert len(set(cells)) == 156


def test_one_kernel_per_threshold_set(kernels, params_by_year, pop):
    for profile in (HouseholdProfile.one_child(ParentalGroup.SINGLE_MOTHER),
                    HouseholdProfile(ParentalGroup.MARRIED,
                                     pop.average_children(2017, ParentalGroup.MARRIED))):
        for mode in taxmath.LiabilityMode:
            kernels.clear()
            thresholds(profile, params_by_year[2017], mode)
            assert len(kernels) == 1


def test_no_memo_outside_a_command(inversions, params_by_year, tmp_path):
    assert main(["classify", "--year", "2017", "--out", str(tmp_path / "c.csv")]) == 0
    assert memo._results.get() is None
    inversions.clear()
    profile = HouseholdProfile.one_child(ParentalGroup.MARRIED)
    first = thresholds(profile, params_by_year[2017])
    second = thresholds(profile, params_by_year[2017])
    assert first == second
    assert len(inversions) == 2


def test_a_rule_sweep_op_adds_no_work_and_stores_nothing(kernels, inversions, threshold_sets,
                                                          params_by_year, pop):
    # One rule set scored outside a command, as the benchmark's rule-sweep op scores it: each
    # of the 6 cells inverts one threshold set and one full-relief cut, a kernel each, and a
    # second run repeats every one of them. No cell builds a ThresholdSet.
    overrides = {"ctc_per_child": 2500, "actc_per_child": 1800, "refund_threshold": 2000,
                 "refund_rate": Fraction(3, 20),
                 "phaseout_start": {FilingStatus.MARRIED_JOINT: 300_000,
                                    FilingStatus.HEAD_OF_HOUSEHOLD: 150_000}}
    for runs in (1, 2):
        rules = apply_overrides(params_by_year[2018], overrides)
        for group in ParentalGroup:
            for scenario in Scenario:
                counterfactual.eligibility(pop, 2018, group, rules, scenario)
                counterfactual.full_relief_proportion(pop, 2018, group, rules, scenario)
        assert (len(kernels), len(inversions), len(threshold_sets)) == (12 * runs, 6 * runs, 0)
        assert memo._results.get() is None


def test_consecutive_commands_share_nothing(tmp_path):
    raised = json.loads((DATA / "params.json").read_text())
    for record in raised:
        record["ctc_per_child"] += 500
    raised_path = tmp_path / "raised.json"
    raised_path.write_text(json.dumps(raised))

    def report(name, *flags):
        out = tmp_path / name
        assert main(["report", "--out", str(out), *flags]) == 0
        return out.read_bytes()

    shipped_alone = report("shipped_alone.json")
    raised_alone = report("raised_alone.json", "--params", str(raised_path))
    assert shipped_alone != raised_alone
    assert report("shipped.json") == shipped_alone
    assert report("raised.json", "--params", str(raised_path)) == raised_alone


def test_errors_are_raised_again_not_cached(inversions, params_by_year):
    bad = apply_overrides(params_by_year[2017], {"refund_threshold": 60000})
    profile = HouseholdProfile.one_child(ParentalGroup.MARRIED)
    with memo.command_scope():
        for _ in range(2):
            with pytest.raises(OrderingViolation):
                thresholds(profile, bad)
    assert len(inversions) == 2


def test_equal_rule_sets_are_equal_keys(params_by_year):
    base = params_by_year[2017]
    a = apply_overrides(base, {"ctc_per_child": 2000, "refund_threshold": 2500})
    b = apply_overrides(base, {"refund_threshold": Fraction(2500), "ctc_per_child": Fraction(2000)})
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)
    assert a != base
    assert len({a, b, base}) == 2
