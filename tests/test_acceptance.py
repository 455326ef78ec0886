"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines. Tolerances are fixed here and nowhere else: $50 on golden
thresholds, $10 on credit/refund breakdowns, $5 on the refundable-parity
arithmetic, 0.1 percentage points on benchmark proportions, 1000 households
on benchmark aggregates, 1e-10 on regression identities, zero tolerance on
classification and set-containment identities.
"""

from contextlib import contextmanager
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest

from ctcsim import (
    HouseholdProfile,
    ParentalGroup,
    ReliefCategory,
    Scenario,
    apply_overrides,
    benefit_at_income,
    build_panel,
    did,
    eligibility,
    eliminate_refundability,
    fixed_effects,
    invert_benefit,
    ols,
    priced_out,
    thresholds,
)
from ctcsim.classifier import CATEGORY_ORDER, BoundRule, assign_bins
from ctcsim.cli import main
from ctcsim.counterfactual import full_relief_cuts, profile_for, run_piecemeal_table

import goldens
from oracle import grid_categories
from test_stats import naive_sandwich

GROUPS = list(ParentalGroup)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_01_threshold_golden_suite(params_by_year):
    with criterion(1, "one-child threshold golden suite"):
        for kind, group in (("married", ParentalGroup.MARRIED),
                            ("single", ParentalGroup.SINGLE_MOTHER)):
            profile = HouseholdProfile.one_child(group)
            table = goldens.ONE_CHILD[kind]
            for i, year in enumerate(goldens.YEARS):
                ts = thresholds(profile, params_by_year[year])
                assert abs(ts.t_full_ctc - table["credit_only"][i]) <= 50
                assert abs(ts.t_full_actc - table["refund_path"][i]) <= 50
                split = benefit_at_income(ts.t_full_actc, profile, params_by_year[year])
                refund, credit = table["breakdown"][i]
                assert abs(split.refund - refund) <= 10
                assert abs(split.credit - credit) <= 10


def test_02_group_average_threshold_suite(params_by_year, pop):
    with criterion(2, "group-average threshold suite"):
        for group in GROUPS:
            table = goldens.GROUP_AVERAGE[group.value]
            for i, year in enumerate(goldens.YEARS):
                profile = HouseholdProfile(group, pop.average_children(year, group))
                ts = thresholds(profile, params_by_year[year])
                assert abs(ts.t_full_ctc - table["credit_only"][i]) <= 50
                assert abs(ts.t_full_actc - table["refund_path"][i]) <= 50
                assert ts.t_total_phaseout == table["total_phaseout"][i]
        # Named anchors.
        married_2003 = thresholds(
            HouseholdProfile(ParentalGroup.MARRIED,
                             pop.average_children(2003, ParentalGroup.MARRIED)),
            params_by_year[2003],
        )
        assert married_2003.t_total_phaseout == 147_800
        assert abs(married_2003.t_full_ctc - 38_631) <= 50
        father_2018 = thresholds(
            HouseholdProfile(ParentalGroup.SINGLE_FATHER,
                             pop.average_children(2018, ParentalGroup.SINGLE_FATHER)),
            params_by_year[2018],
        )
        assert father_2018.t_total_phaseout == 267_600


def test_03_parity_arithmetic(params_by_year, pop):
    with criterion(3, "refundable parity arithmetic"):
        params = params_by_year[2018]
        single = HouseholdProfile.one_child(ParentalGroup.SINGLE_MOTHER)
        assert abs(thresholds(single, params).t_full_actc - 11_833) <= 5
        raised = apply_overrides(params, {"actc_per_child": 2_000})
        assert abs(thresholds(single, raised).t_full_actc - 15_833) <= 5
        assert abs(invert_benefit(2_000, single, params) - 24_000) <= 50
        for group, expected in ((ParentalGroup.SINGLE_FATHER, 28_140),
                                (ParentalGroup.SINGLE_MOTHER, 28_500)):
            profile = HouseholdProfile(group, pop.average_children(2018, group))
            income = invert_benefit(params.ctc_per_child * profile.children, profile, params)
            assert abs(income - expected) <= 50


def test_04_classifier_oracle_equivalence(params_by_year):
    with criterion(4, "classifier vs brute-force oracle"):
        cases = [(2009, ParentalGroup.SINGLE_MOTHER), (2017, ParentalGroup.MARRIED),
                 (2018, ParentalGroup.SINGLE_FATHER)]
        rng = np.random.default_rng(4242)
        trials_per_case = 50
        for year, group in cases:
            params = params_by_year[year]
            profile = HouseholdProfile.one_child(group)
            ts = thresholds(profile, params)
            dollar_cats = grid_categories(np.arange(0, 100_000, dtype=float), params, group, 1.0)
            boundaries = ts.boundaries()
            for _ in range(trials_per_case):
                counts = rng.integers(0, 5_000, size=40)
                bins = [(lo, int(counts[i])) for i, lo in enumerate(range(0, 100_000, 2500))]
                for rule in BoundRule:
                    engine = assign_bins(tuple(accumulate((n for _, n in bins), initial=0)),
                                         ts, rule)
                    expected = {c: 0 for c in CATEGORY_ORDER}
                    for lower, count in bins:
                        cats = sorted(set(dollar_cats[lower:lower + 2500]))
                        if len(cats) == 1:
                            cat = CATEGORY_ORDER[cats[0]]
                        else:
                            boundary = boundaries[cats[1] - 1][0]
                            if rule is BoundRule.UPPER:
                                cat = CATEGORY_ORDER[cats[0]]
                            elif boundary >= lower + 1250:
                                cat = CATEGORY_ORDER[cats[0]]
                            else:
                                cat = CATEGORY_ORDER[cats[1]]
                        expected[cat] += count
                    assert engine == expected  # zero tolerance


def test_05_priced_out_identity(params_by_year, pop, benchmarks):
    with criterion(5, "priced-out identity and benchmark"):
        for year in range(2003, 2018):
            params = params_by_year[year]
            for scenario in Scenario:
                for group in GROUPS:
                    result = priced_out(pop, year, group, params, 2 * params.ctc_per_child,
                                        scenario)
                    est = eligibility(pop, year, group, params, scenario)
                    c = est.counts[ReliefCategory.FULL_ACTC]
                    d = est.counts[ReliefCategory.FULL_CTC]
                    assert result.proportion_priced_out == Fraction(c, c + d)  # exact
        married_2017 = priced_out(pop, 2017, ParentalGroup.MARRIED, params_by_year[2017],
                                  2_000, Scenario.S1)
        want = benchmarks["priced_out_2017_s1_married_pct"] / 100.0
        assert abs(float(married_2017.proportion_priced_out) - want) <= 0.001


def test_06_piecemeal_endpoint_identity(params_by_year, pop):
    with criterion(6, "parameter-walk endpoint identity"):
        for table in ("1a", "1b"):
            for scenario in Scenario:
                rows = run_piecemeal_table(table, pop, params_by_year, scenario)
                first = {r.group: r.proportion for r in rows if r.step == 1}
                last = {r.group: r.proportion for r in rows if r.step == 8}
                assert first == last  # exact per group and scenario


def test_07_sweep_monotonicity_and_containment(params_by_year, pop):
    with criterion(7, "credit sweep monotonicity"):
        credits = list(range(500, 3700, 100))
        for year in (2017, 2018):
            params = params_by_year[year]
            for scenario in Scenario:
                for group in GROUPS:
                    profile = profile_for(pop, group, scenario, year)
                    prev_cuts = None
                    prev_share = None
                    for credit in credits:
                        swapped = apply_overrides(
                            params, {"ctc_per_child": credit, "actc_per_child": credit},
                            strict=False)
                        lo, hi = full_relief_cuts(profile, swapped, scenario.rule)
                        cum = pop.cumulative(year, group)
                        bins = [(i * 2500, cum[i + 1] - cum[i]) for i in range(40)]
                        share = Fraction(
                            sum(count for lower, count in bins if lo <= lower < hi),
                            sum(count for _, count in bins),
                        )
                        if prev_cuts is not None:
                            assert lo >= prev_cuts[0] and hi == prev_cuts[1]  # containment
                            assert share <= prev_share
                        prev_cuts, prev_share = (lo, hi), share


def test_08_regression_suite(params_by_year, pop):
    with criterion(8, "regression identities"):
        rows = []
        for year in range(2003, 2018):
            for group in GROUPS:
                est = eligibility(pop, year, group, params_by_year[year], Scenario.S1)
                rows.append((year, group, est.proportion(ReliefCategory.FULL_CTC)))
        panel = build_panel(rows)
        res = fixed_effects(panel, baseline_year=2017)
        assert res.r_squared == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(res.residuals)) < 1e-10

        rng = np.random.default_rng(8)
        X = np.column_stack([np.ones(30), rng.normal(size=(30, 2))])
        y = X @ np.array([1.0, -0.5, 0.25]) + rng.normal(size=30) * (1 + X[:, 1] ** 2)
        fit = ols({"const": X[:, 0], "x1": X[:, 1], "x2": X[:, 2]}, y)
        _, cov = naive_sandwich(X, y)
        assert np.allclose(fit.cov, cov, rtol=1e-10, atol=1e-14)

        synth = []
        for year in range(2003, 2019):
            base = 0.5 + 0.004 * (year - 2003)
            post = year >= 2018
            synth.append((year, ParentalGroup.SINGLE_FATHER, base))
            synth.append((year, ParentalGroup.SINGLE_MOTHER,
                          base - 0.1 + (0.05 if post else 0.0)))
        est = did(build_panel(synth)).estimate("treated_post")
        assert est == pytest.approx(0.05, abs=1e-12)


def test_09_refundability_elimination(params_by_year, pop, benchmarks):
    with criterion(9, "refundability-floor elimination"):
        for scenario in Scenario:
            result = eliminate_refundability(pop, 2018, params_by_year[2018], scenario)
            for group in GROUPS:
                est = eligibility(pop, 2018, group, params_by_year[2018], scenario)
                assert result.deltas[group] == est.proportion(ReliefCategory.INELIGIBLE_LOW)
            want = benchmarks["elimination_aggregate"][scenario.value]
            assert abs(result.gaining_households - want) <= 1_000


def test_10_report_determinism(tmp_path, monkeypatch, data_dir):
    with criterion(10, "report determinism"):
        monkeypatch.setenv("CTCSIM_DATA_DIR", str(data_dir))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["report", "--out", str(a)]) == 0
        assert main(["report", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
