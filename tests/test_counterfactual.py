from fractions import Fraction

import pytest

from ctcsim import (
    FilingStatus,
    ParentalGroup,
    ReliefCategory,
    Scenario,
    apply_overrides,
    eligibility,
    eliminate_refundability,
    load_population,
    priced_out,
)
from ctcsim.counterfactual import (
    credit_size_sweep,
    full_relief_cuts,
    piecemeal_walk,
    priced_out_refusal,
    profile_for,
    restore_parity,
    run_piecemeal_table,
)
from ctcsim.errors import ValidationError
from ctcsim.population import PopulationTable

GROUPS = list(ParentalGroup)
PP = Fraction(1, 100)  # one percentage point


def single_mass_table(year, lower, count=1000):
    counts = {}
    hists = {}
    for group in GROUPS:
        counts[(year, group)] = [count if lo == lower else 0 for lo in range(0, 100_000, 2500)]
        hists[(year, group)] = {"1": count}
    return PopulationTable(counts, hists)


class TestPiecemeal:
    @pytest.mark.parametrize("table", ["1a", "1b"])
    def test_rows_classify_each_walk_step(self, pop, params_by_year, table):
        target, walk = piecemeal_walk(table, params_by_year)
        rows = run_piecemeal_table(table, pop, params_by_year, Scenario.S2)
        assert len(rows) == len(walk) * len(GROUPS)
        for row in rows:
            label, rules = walk[row.step - 1]
            assert row.label == label
            direct = eligibility(pop, 2018, row.group, rules, Scenario.S2)
            assert row.proportion == direct.proportion(target)

    @pytest.mark.parametrize("table", ["1a", "1b"])
    def test_walk_starts_at_new_law_and_ends_there(self, params_by_year, table):
        _, walk = piecemeal_walk(table, params_by_year)
        assert walk[0][1] == walk[-1][1] == params_by_year[2018]
        assert walk[1][1] == params_by_year[2017]

    @pytest.mark.parametrize("table, first, last", [("1a", "ctc_per_child", "actc_per_child"),
                                                    ("1b", "actc_per_child", "ctc_per_child")])
    def test_each_step_copies_the_moves_so_far(self, params_by_year, table, first, last):
        """Step k >= 3 reads the new law's value in each field named by moves 1..k-2 and the
        baseline's in every other; only the last step takes the new law's year."""
        moves = [[first], ["standard_deduction", "exemption_per_person"], ["refund_threshold"],
                 ["phaseout_start"], [last], ["brackets"]]
        fields = [name for names in moves for name in names] + ["phaseout_rate", "refund_rate"]

        def read(rules, name):
            if name in ("standard_deduction", "exemption_per_person", "phaseout_start",
                        "brackets"):
                return [getattr(rules.for_status(s), name) for s in FilingStatus]
            return getattr(rules, name)

        for year in sorted(params_by_year)[1:]:
            base, new = params_by_year[year - 1], params_by_year[year]
            _, walk = piecemeal_walk(table, params_by_year, pop_year=year, base_year=year - 1)
            assert len(walk) == 2 + len(moves)
            for k, (_, rules) in enumerate(walk[2:], start=3):
                moved = {name for names in moves[:k - 2] for name in names}
                for name in fields:
                    assert read(rules, name) == read(new if name in moved else base, name), \
                        (year, k, name)
                assert rules.year == (new.year if k == len(walk) else base.year)

    def test_unknown_table_rejected(self, params_by_year):
        with pytest.raises(ValidationError):
            piecemeal_walk("1c", params_by_year)

    @pytest.mark.parametrize("table", ["1a", "1b"])
    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_endpoint_identity(self, pop, params_by_year, table, scenario):
        rows = run_piecemeal_table(table, pop, params_by_year, scenario)
        first = {r.group: r.proportion for r in rows if r.step == 1}
        last = {r.group: r.proportion for r in rows if r.step == 8}
        assert first == last  # exact fractions

    def test_walk_shape(self, pop, params_by_year):
        rows = run_piecemeal_table("1a", pop, params_by_year, Scenario.S1)
        assert len(rows) == 8 * 3
        assert sorted({r.step for r in rows}) == list(range(1, 9))

    def test_upper_bound_walk_matches_benchmarks(self, pop, params_by_year, benchmarks):
        for table, bench in (("1a", benchmarks["walk_1a"]), ("1b", benchmarks["walk_1b"])):
            rows = run_piecemeal_table(table, pop, params_by_year, Scenario.S1)
            for row in rows:
                want = bench["s1"][row.group.value][row.step - 1] / 100.0
                assert abs(float(row.proportion) - want) < 1e-3, (table, row)

    def test_old_rules_baseline_values(self, pop, params_by_year):
        rows = run_piecemeal_table("1a", pop, params_by_year, Scenario.S1)
        step2 = {r.group: float(r.proportion) for r in rows if r.step == 2}
        assert abs(step2[ParentalGroup.MARRIED] - 0.8475) < 1e-3
        assert abs(step2[ParentalGroup.SINGLE_FATHER] - 0.6052) < 1e-3
        assert abs(step2[ParentalGroup.SINGLE_MOTHER] - 0.5775) < 1e-3
        step3 = {r.group: float(r.proportion) for r in rows if r.step == 3}
        assert abs(step3[ParentalGroup.SINGLE_MOTHER] - 0.4256) < 1e-3

    def test_raising_credit_moves_mass_only_down_from_d(self, pop, params_by_year):
        base = params_by_year[2017]
        raised = apply_overrides(base, {"ctc_per_child": 2000})
        for group in GROUPS:
            before = eligibility(pop, 2018, group, base, Scenario.S1)
            after = eligibility(pop, 2018, group, raised, Scenario.S1)
            for cat in (ReliefCategory.INELIGIBLE_LOW, ReliefCategory.SOME_ACTC):
                assert before.counts[cat] == after.counts[cat]
            shifted = before.counts[ReliefCategory.FULL_CTC] - after.counts[ReliefCategory.FULL_CTC]
            assert shifted >= 0
            assert after.counts[ReliefCategory.FULL_ACTC] == \
                before.counts[ReliefCategory.FULL_ACTC] + shifted


class TestPricedOut:
    def test_identity_c_over_cd_all_fixtures(self, pop, params_by_year):
        # Doubling the credit maximum prices out exactly the full-refundable set.
        for year in range(2003, 2018):
            params = params_by_year[year]
            for scenario in Scenario:
                for group in GROUPS:
                    result = priced_out(pop, year, group, params, 2000, scenario)
                    est = eligibility(pop, year, group, params, scenario)
                    c = est.counts[ReliefCategory.FULL_ACTC]
                    d = est.counts[ReliefCategory.FULL_CTC]
                    assert result.full_relief_old == c + d
                    assert result.priced_out == c
                    assert result.proportion_priced_out == Fraction(c, c + d)

    def test_2017_married_benchmark(self, pop, params_by_year, benchmarks):
        result = priced_out(pop, 2017, ParentalGroup.MARRIED, params_by_year[2017],
                            2000, Scenario.S1)
        want = benchmarks["priced_out_2017_s1_married_pct"] / 100.0
        assert abs(float(result.proportion_priced_out) - want) < 0.001

    def test_distribution_above_new_threshold(self, params_by_year):
        pop = single_mass_table(2017, 97_500)
        result = priced_out(pop, 2017, ParentalGroup.MARRIED, params_by_year[2017],
                            2000, Scenario.S1)
        assert result.priced_out == 0
        assert result.proportion_priced_out == 0

    def test_empty_baseline_has_no_proportion(self, params_by_year, bad_populations, data_dir):
        no_baseline = load_population(bad_populations["no_baseline"], data_dir / "children.csv")
        cases = [(single_mass_table(2017, 0), ParentalGroup.MARRIED),  # all below the refund floor
                 (no_baseline, ParentalGroup.SINGLE_FATHER)]
        for pop, group in cases:
            for scenario in Scenario:
                result = priced_out(pop, 2017, group, params_by_year[2017], 2000, scenario)
                assert result.full_relief_old == 0
                assert result.proportion_priced_out is None

    def test_requires_parity_baseline(self, pop, params_by_year):
        with pytest.raises(ValidationError):
            priced_out(pop, 2018, ParentalGroup.MARRIED, params_by_year[2018],
                       3000, Scenario.S1)

    def test_raised_credit_eroded_by_phaseout_prices_out_everyone(self, pop, params_by_year):
        # The raised maximum would accrue only past the lowered phaseout start.
        params = apply_overrides(params_by_year[2017], {"phaseout_start": 50_000})
        for scenario in Scenario:
            for group in GROUPS:
                result = priced_out(pop, 2017, group, params, 10_000, scenario)
                assert result.full_relief_old > 0
                assert result.priced_out == result.full_relief_old

    def test_new_ctc_must_increase(self, pop, params_by_year):
        with pytest.raises(ValidationError):
            priced_out(pop, 2017, ParentalGroup.MARRIED, params_by_year[2017],
                       1000, Scenario.S1)

    @pytest.mark.parametrize("new_ctc", [0, -5])
    def test_new_ctc_must_be_positive_under_any_rules(self, pop, params_by_year, new_ctc):
        message = f"new credit maximum must be positive, not {new_ctc}"
        for year in (2017, 2018):  # parity rules, and rules a raise could not be asked of
            with pytest.raises(ValidationError, match=message):
                priced_out_refusal(params_by_year[year], new_ctc)
        with pytest.raises(ValidationError, match=message):
            priced_out(pop, 2017, ParentalGroup.MARRIED, params_by_year[2017],
                       new_ctc, Scenario.S1)


class TestSweep:
    CREDITS = list(range(500, 3700, 100))

    @pytest.mark.parametrize("year", [2017, 2018])
    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_monotone_nonincreasing(self, pop, params_by_year, year, scenario):
        rows = credit_size_sweep(pop, year, self.CREDITS, scenario, params_by_year[year])
        by_group = {}
        for credit, group, share in rows:
            by_group.setdefault(group, []).append((credit, share))
        for series in by_group.values():
            shares = [s for _, s in sorted(series)]
            assert all(a >= b for a, b in zip(shares, shares[1:]))

    def test_bin_level_set_containment(self, pop, params_by_year):
        # The qualifying bin range at a larger credit nests inside the smaller one.
        params = params_by_year[2018]
        for scenario in Scenario:
            for group in GROUPS:
                profile = profile_for(pop, group, scenario, 2018)
                prev = None
                for credit in self.CREDITS:
                    swapped = apply_overrides(
                        params, {"ctc_per_child": credit, "actc_per_child": credit},
                        strict=False)
                    lo, hi = full_relief_cuts(profile, swapped, scenario.rule)
                    if prev is not None:
                        assert lo >= prev[0] and hi == prev[1]
                    prev = (lo, hi)

    def test_2018_upper_bound_anchor(self, pop, params_by_year):
        rows = credit_size_sweep(pop, 2018, [2000], Scenario.S1, params_by_year[2018])
        shares = {group: share for _, group, share in rows}
        assert abs(float(shares[ParentalGroup.SINGLE_FATHER]) - 0.95) < 1e-3

    def test_rejects_empty_or_nonpositive(self, pop, params_by_year):
        with pytest.raises(ValidationError):
            credit_size_sweep(pop, 2018, [], Scenario.S1, params_by_year[2018])
        with pytest.raises(ValidationError):
            credit_size_sweep(pop, 2018, [0], Scenario.S1, params_by_year[2018])


class TestParity:
    def test_2018_upper_bound_gap(self, pop, params_by_year):
        result = restore_parity(pop, 2018, params_by_year[2018], Scenario.S1)
        assert abs(float(result.gap_before()) - 0.1828) < 1e-3
        assert abs(float(result.gap_after()) - 0.0785) < 2e-3
        assert abs(float(result.after[ParentalGroup.SINGLE_FATHER]) - 0.95) < 1e-3

    def test_2018_middle_bound_gap(self, pop, params_by_year):
        result = restore_parity(pop, 2018, params_by_year[2018], Scenario.S2)
        assert abs(float(result.gap_before()) - 0.2092) < 1e-3
        assert abs(float(result.gap_after()) - 0.1168) < 2e-3

    def test_already_parity_is_noop(self, pop, params_by_year):
        result = restore_parity(pop, 2017, params_by_year[2017], Scenario.S1)
        assert result.before == result.after


class TestEliminateRefundability:
    def test_delta_equals_lowest_category(self, pop, params_by_year):
        for scenario in Scenario:
            result = eliminate_refundability(pop, 2018, params_by_year[2018], scenario)
            for group in GROUPS:
                est = eligibility(pop, 2018, group, params_by_year[2018], scenario)
                assert result.deltas[group] == est.proportion(ReliefCategory.INELIGIBLE_LOW)

    def test_2018_benchmark_aggregates(self, pop, params_by_year, benchmarks):
        for scenario in Scenario:
            result = eliminate_refundability(pop, 2018, params_by_year[2018], scenario)
            want = benchmarks["elimination_aggregate"][scenario.value]
            assert abs(result.gaining_households - want) <= 1000

    def test_2018_upper_bound_deltas(self, pop, params_by_year):
        result = eliminate_refundability(pop, 2018, params_by_year[2018], Scenario.S1)
        assert abs(float(result.deltas[ParentalGroup.MARRIED]) - 0.0049) < 5e-4
        assert abs(float(result.deltas[ParentalGroup.SINGLE_FATHER]) - 0.0083) < 5e-4
        assert abs(float(result.deltas[ParentalGroup.SINGLE_MOTHER]) - 0.0195) < 5e-4

    def test_empty_lowest_category(self, params_by_year):
        pop = single_mass_table(2018, 50_000)
        result = eliminate_refundability(pop, 2018, params_by_year[2018], Scenario.S1)
        assert result.gaining_households == 0
        assert all(d == 0 for d in result.deltas.values())

