from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctcsim import (
    HouseholdProfile,
    ParentalGroup,
    apply_overrides,
    benefit_at_income,
    invert_benefit,
    thresholds,
)
from ctcsim.classifier import BoundRule
from ctcsim.counterfactual import full_relief_cuts
from ctcsim.errors import OrderingViolation, Unreachable, ValidationError
from ctcsim.taxmath import LiabilityMode, ThresholdSet, _Kernel, _over

import goldens
from oracle import (
    benefit_reference,
    exact_threshold_walk,
    full_relief_cuts_reference,
    grid_categories,
    liability_reference,
    max_credit,
    max_refund,
    table_threshold_scan,
    tax_free_amount,
    tax_liability,
    thresholds_reference,
)

ONE_SINGLE = HouseholdProfile.one_child(ParentalGroup.SINGLE_MOTHER)
ONE_MARRIED = HouseholdProfile.one_child(ParentalGroup.MARRIED)
# A schedule whose rates and upper bound are not decimals, so the kernel rescales both the
# schedule's rates (over 6) into its rate scale (over 60, with a refund rate of 3/20) and
# its upper bound (over 7) into its money scale (over 21, with 5/3 children).
THIRDS = {"brackets": [{"upper": Fraction(100_000, 7), "rate": Fraction(1, 3)},
                       {"rate": Fraction(1, 2)}]}


def profile_one(kind):
    return ONE_MARRIED if kind == "married" else ONE_SINGLE


def owed(income, profile, params, mode=LiabilityMode.EXACT) -> Fraction:
    """Liability at `income` on the package's kernel, asserted equal to the oracle's."""
    income = Fraction(income)
    kernel = _Kernel(profile, params, mode, income)
    got = Fraction(kernel.owed(_over(income, kernel.d)), kernel.d * kernel.q)
    assert got == tax_liability(income, profile, params, mode)
    return got


class TestLiability:
    def test_below_tax_free_amount_is_zero(self, params_by_year):
        assert owed(13_000, ONE_SINGLE, params_by_year[2003]) == 0

    def test_single_2003_threshold_income_owes_full_credit(self, params_by_year):
        assert owed(23_100, ONE_SINGLE, params_by_year[2003]) == 1000

    def test_married_2018_threshold_income(self, params_by_year):
        liability = owed(43_850, ONE_MARRIED, params_by_year[2018])
        assert abs(liability - 2000) <= 10

    def test_monotone_in_income(self, params_by_year):
        params = params_by_year[2018]
        values = [owed(y, ONE_SINGLE, params) for y in range(0, 60_000, 500)]
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestBenefit:
    def test_zero_income_no_benefit(self, params_by_year):
        split = benefit_at_income(0, ONE_SINGLE, params_by_year[2009])
        assert split.credit == 0 and split.refund == 0

    def test_single_2003_split_at_refund_path_income(self, params_by_year):
        split = benefit_at_income(16_795, ONE_SINGLE, params_by_year[2003])
        assert abs(split.refund - 630) <= 10
        assert abs(split.credit - 370) <= 10

    def test_2009_full_refund_without_liability(self, params_by_year):
        split = benefit_at_income(Fraction(9667), ONE_SINGLE, params_by_year[2009])
        assert split.credit == 0
        assert abs(split.refund - 1000) <= 1

    def test_phaseout_reduces_total(self, params_by_year):
        split = benefit_at_income(85_000, ONE_SINGLE, params_by_year[2009])
        assert split.total == 500  # 1000 - 0.05 * 10000

    def test_phaseout_brute_force_scan(self, params_by_year):
        # Direct per-dollar evaluation of the piecewise definition.
        params = params_by_year[2009]
        for y in range(75_000, 96_000, 1000):
            split = benefit_at_income(y, ONE_SINGLE, params)
            expected = max(Fraction(0), 1000 - Fraction("0.05") * (y - 75_000))
            assert split.total == expected

    def test_total_never_exceeds_phased_allowance(self, params_by_year):
        params = params_by_year[2018]
        for y in range(0, 120_000, 777):
            split = benefit_at_income(y, ONE_SINGLE, params)
            allowed = max(Fraction(0), 2000 - Fraction("0.05") * max(0, y - 200_000))
            assert split.total <= allowed

    def test_monotone_up_to_phaseout_start(self, params_by_year):
        params = params_by_year[2003]
        values = [benefit_at_income(y, ONE_MARRIED, params).total for y in range(0, 110_000, 250)]
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestInversion:
    def test_2009_full_refundable_benefit(self, params_by_year):
        income = invert_benefit(1000, ONE_SINGLE, params_by_year[2009])
        assert income == Fraction(29_000, 3)  # 9666.67

    def test_2018_full_benefit_via_both_pathways(self, params_by_year):
        assert invert_benefit(2000, ONE_SINGLE, params_by_year[2018]) == 24_000

    def test_married_2004_full_refundable(self, params_by_year):
        income = invert_benefit(1000, ONE_MARRIED, params_by_year[2004])
        assert abs(income - 17_417) <= 10

    def test_group_average_children_2018_combined(self, params_by_year, pop):
        father = HouseholdProfile(
            ParentalGroup.SINGLE_FATHER, pop.average_children(2018, ParentalGroup.SINGLE_FATHER)
        )
        income = invert_benefit(Fraction(2000) * father.children, father, params_by_year[2018])
        assert abs(income - 28_140) <= 50

    def test_unreachable_target(self, params_by_year):
        with pytest.raises(Unreachable, match="^benefit target 5000 exceeds the maximum 1000$"):
            invert_benefit(5000, ONE_SINGLE, params_by_year[2009])
        with pytest.raises(Unreachable, match="^benefit target 0 must be positive$"):
            invert_benefit(0, ONE_MARRIED, params_by_year[2018])

    @pytest.mark.parametrize("mode", list(LiabilityMode), ids=lambda m: m.value)
    @given(
        year=st.sampled_from(sorted(range(2003, 2019))),
        kind=st.sampled_from(["married", "single"]),
        cents=st.integers(min_value=1, max_value=100_000),
    )
    # $1 above the phase-in at the tax-free amount: table mode returns that amount.
    @example(year=2003, kind="married", cents=8160)
    @settings(max_examples=120, deadline=None)
    def test_soundness_minimal_income(self, request, mode, year, kind, cents):
        params = request.getfixturevalue("params_by_year")[year]
        profile = profile_one(kind)
        target = Fraction(cents, 100) * 10  # up to the 1000-per-child ceiling
        target = min(target, params.ctc_per_child)
        income = invert_benefit(target, profile, params, mode)
        if benefit_at_income(income, profile, params, mode).total < target:
            # Table liability is 0 at the tax-free amount and tax($25) just above
            # it, so there the minimal income is an infimum reached a cent later.
            assert mode is LiabilityMode.TABLE and income == tax_free_amount(profile, params)
            assert benefit_at_income(income + Fraction(1, 100), profile, params, mode).total >= target
        if income > 0:
            just_below = benefit_at_income(income - Fraction(1, 100), profile, params, mode).total
            assert just_below < target


class TestThresholds:
    def test_2009_single_parent_story(self, params_by_year):
        ts = thresholds(ONE_SINGLE, params_by_year[2009])
        assert abs(ts.t_full_actc - Fraction(29_000, 3)) < 1
        assert ts.t_full_ctc == 25_650
        assert ts.t_phaseout_start == 75_000
        assert ts.t_total_phaseout == 95_000

    def test_2018_single_parent(self, params_by_year):
        ts = thresholds(ONE_SINGLE, params_by_year[2018])
        assert abs(ts.t_full_actc - 11_833) <= 5
        assert abs(ts.t_full_ctc - 36_950) <= 50
        assert ts.t_full_combined == 24_000

    def test_married_2003_group_average(self, params_by_year, pop):
        profile = HouseholdProfile(
            ParentalGroup.MARRIED, pop.average_children(2003, ParentalGroup.MARRIED)
        )
        ts = thresholds(profile, params_by_year[2003])
        assert abs(ts.t_full_ctc - 38_631) <= 50
        assert ts.t_total_phaseout == 147_800

    def test_ordering_invariant_all_years(self, params_by_year, pop):
        for year, params in params_by_year.items():
            for group in ParentalGroup:
                for profile in (
                    HouseholdProfile.one_child(group),
                    HouseholdProfile(group, pop.average_children(year, group)),
                ):
                    ts = thresholds(profile, params)
                    assert (
                        ts.t_refund_floor
                        <= ts.t_full_actc
                        <= ts.t_full_ctc
                        <= ts.t_phaseout_start
                        < ts.t_total_phaseout
                    )

    def test_parity_identity(self, params_by_year):
        # Equal per-child maxima make the combined and refundable thresholds coincide.
        for year in range(2003, 2018):
            ts = thresholds(ONE_SINGLE, params_by_year[year])
            assert ts.t_full_combined == ts.t_full_actc

    def test_one_child_total_phaseouts(self, params_by_year):
        for year in range(2003, 2018):
            assert thresholds(ONE_MARRIED, params_by_year[year]).t_total_phaseout == 130_000
            assert thresholds(ONE_SINGLE, params_by_year[year]).t_total_phaseout == 95_000
        assert thresholds(ONE_MARRIED, params_by_year[2018]).t_total_phaseout == 440_000
        assert thresholds(ONE_SINGLE, params_by_year[2018]).t_total_phaseout == 240_000


class TestGoldenTables:
    @pytest.mark.parametrize("kind", ["married", "single"])
    def test_one_child_thresholds(self, params_by_year, kind):
        profile = profile_one(kind)
        table = goldens.ONE_CHILD[kind]
        for i, year in enumerate(goldens.YEARS):
            ts = thresholds(profile, params_by_year[year])
            assert abs(ts.t_full_ctc - table["credit_only"][i]) <= goldens.THRESHOLD_TOL, year
            assert abs(ts.t_full_actc - table["refund_path"][i]) <= goldens.THRESHOLD_TOL, year

    @pytest.mark.parametrize("kind", ["married", "single"])
    def test_one_child_breakdowns(self, params_by_year, kind):
        profile = profile_one(kind)
        table = goldens.ONE_CHILD[kind]
        for i, year in enumerate(goldens.YEARS):
            ts = thresholds(profile, params_by_year[year])
            split = benefit_at_income(ts.t_full_actc, profile, params_by_year[year])
            refund, credit = table["breakdown"][i]
            assert abs(split.refund - refund) <= goldens.BREAKDOWN_TOL, year
            assert abs(split.credit - credit) <= goldens.BREAKDOWN_TOL, year

    @pytest.mark.parametrize("group", list(ParentalGroup))
    def test_group_average_thresholds(self, params_by_year, pop, group):
        table = goldens.GROUP_AVERAGE[group.value]
        for i, year in enumerate(goldens.YEARS):
            profile = HouseholdProfile(group, pop.average_children(year, group))
            ts = thresholds(profile, params_by_year[year])
            assert abs(ts.t_full_ctc - table["credit_only"][i]) <= goldens.THRESHOLD_TOL, year
            assert abs(ts.t_full_actc - table["refund_path"][i]) <= goldens.THRESHOLD_TOL, year
            # Continuous phaseout formula is exact against the source values.
            assert ts.t_total_phaseout == table["total_phaseout"][i], year

    @pytest.mark.parametrize("group", list(ParentalGroup))
    def test_group_average_exemption_totals(self, params_by_year, pop, group):
        table = goldens.GROUP_AVERAGE[group.value]
        for i, year in enumerate(goldens.YEARS):
            params = params_by_year[year]
            fp = params.for_status(group.filing_status)
            profile = HouseholdProfile(group, pop.average_children(year, group))
            total = fp.exemption_per_person * (profile.group.adults + profile.children)
            assert abs(total - table["exemption_total"][i]) <= Fraction(1, 2), year

    def test_group_average_breakdowns(self, params_by_year, pop):
        for group in ParentalGroup:
            table = goldens.GROUP_AVERAGE[group.value]
            for year, key in ((2003, "breakdown_2003"), (2018, "breakdown_2018")):
                profile = HouseholdProfile(group, pop.average_children(year, group))
                ts = thresholds(profile, params_by_year[year])
                split = benefit_at_income(ts.t_full_actc, profile, params_by_year[year])
                refund, credit = table[key]
                assert abs(split.refund - refund) <= goldens.BREAKDOWN_TOL, (group, year)
                assert abs(split.credit - credit) <= goldens.BREAKDOWN_TOL, (group, year)

    @pytest.mark.parametrize("kind", ["married", "single"])
    def test_one_child_credit_only_is_exact_under_table_mode(self, params_by_year, kind):
        # The one-child credit-only column reproduces to the dollar once
        # liability is read from $50 lookup rows.
        profile = profile_one(kind)
        table = goldens.ONE_CHILD[kind]
        for i, year in enumerate(goldens.YEARS):
            ts = thresholds(profile, params_by_year[year], LiabilityMode.TABLE)
            assert ts.t_full_ctc == table["credit_only"][i], year

    @pytest.mark.parametrize("group", list(ParentalGroup))
    def test_group_average_credit_only_is_analytic(self, params_by_year, pop, group):
        # Fractional children do not occur in lookup tables; these cells are
        # the analytic thresholds rounded to the dollar.
        table = goldens.GROUP_AVERAGE[group.value]
        for i, year in enumerate(goldens.YEARS):
            profile = HouseholdProfile(group, pop.average_children(year, group))
            ts = thresholds(profile, params_by_year[year])
            assert abs(ts.t_full_ctc - table["credit_only"][i]) <= 1, year

    @pytest.mark.parametrize("group", list(ParentalGroup))
    def test_group_average_refund_path_within_five(self, params_by_year, pop, group):
        table = goldens.GROUP_AVERAGE[group.value]
        for i, year in enumerate(goldens.YEARS):
            profile = HouseholdProfile(group, pop.average_children(year, group))
            ts = thresholds(profile, params_by_year[year])
            assert abs(ts.t_full_actc - table["refund_path"][i]) <= 5, year

    @pytest.mark.parametrize("kind", ["married", "single"])
    def test_one_child_refund_path_within_ten(self, params_by_year, kind):
        profile = profile_one(kind)
        table = goldens.ONE_CHILD[kind]
        for i, year in enumerate(goldens.YEARS):
            ts = thresholds(profile, params_by_year[year])
            assert abs(ts.t_full_actc - table["refund_path"][i]) <= 10, year

    def test_parity_shift_2018(self, params_by_year):
        # Raising the refundable maximum to 2000 moves its threshold 11833 -> 15833.
        from ctcsim import apply_overrides

        params = params_by_year[2018]
        ts = thresholds(ONE_SINGLE, params)
        assert abs(ts.t_full_actc - 11_833) <= 5
        raised = apply_overrides(params, {"actc_per_child": 2000})
        ts2 = thresholds(ONE_SINGLE, raised)
        assert abs(ts2.t_full_actc - 15_833) <= 5

    def test_combined_pathway_2018(self, params_by_year, pop):
        params = params_by_year[2018]
        assert invert_benefit(2000, ONE_SINGLE, params) == 24_000
        for group, expected in (
            (ParentalGroup.SINGLE_FATHER, 28_140),
            (ParentalGroup.SINGLE_MOTHER, 28_500),
        ):
            profile = HouseholdProfile(group, pop.average_children(2018, group))
            income = invert_benefit(params.ctc_per_child * profile.children, profile, params)
            assert abs(income - expected) <= 50


class TestTableMode:
    def test_snap_to_row(self, params_by_year):
        ts = thresholds(ONE_SINGLE, params_by_year[2018], LiabilityMode.TABLE)
        assert ts.t_full_ctc == 36_950

    def test_married_2018_row(self, params_by_year):
        ts = thresholds(ONE_MARRIED, params_by_year[2018], LiabilityMode.TABLE)
        assert ts.t_full_ctc == 43_850

    def test_no_row_at_the_tax_free_amount(self, params_by_year):
        # Taxable income 0 owes nothing; a cent more opens row 0, owing its midpoint's tax.
        params = params_by_year[2018]
        brackets = params.for_status(ONE_SINGLE.group.filing_status).brackets
        kernel = _Kernel(ONE_SINGLE, params, LiabilityMode.TABLE)
        assert tax_free_amount(ONE_SINGLE, params) == Fraction(kernel.free, kernel.d) == 18_000
        table, cent_above = LiabilityMode.TABLE, Fraction(1_800_001, 100)
        assert owed(18_000, ONE_SINGLE, params, table) == 0
        assert owed(cent_above, ONE_SINGLE, params, table) == brackets.tax(25) > 0
        # Below the phaseout the allowance does not bind, so the credit is the liability.
        assert benefit_at_income(18_000, ONE_SINGLE, params, table).credit == 0
        assert benefit_at_income(cent_above, ONE_SINGLE, params, table).credit == brackets.tax(25)

    def test_row_boundary_uses_row_starting_there(self, params_by_year):
        # Taxable income exactly on a row edge belongs to the row it opens.
        params = params_by_year[2018]
        at_edge = owed(18_000 + 13_600, ONE_SINGLE, params, LiabilityMode.TABLE)
        expected = params.for_status(ONE_SINGLE.group.filing_status).brackets.tax(13_600 + 25)
        assert at_edge == expected

    def test_exact_vs_table_bound(self, params_by_year):
        # Difference is at most the top marginal rate times half the row width.
        params = params_by_year[2018]
        bound = Fraction("0.12") * 50
        for y in range(18_000, 60_000, 333):
            exact = owed(y, ONE_SINGLE, params)
            table = owed(y, ONE_SINGLE, params, LiabilityMode.TABLE)
            assert abs(exact - table) < bound

    def test_refund_path_threshold_table_mode(self, params_by_year):
        # Pure-refund thresholds do not snap: no liability is involved.
        ts = thresholds(ONE_SINGLE, params_by_year[2018], LiabilityMode.TABLE)
        assert abs(ts.t_full_actc - Fraction("11833.33")) < 1


# Denominators that share no factor with one another or with the shipped money.
COPRIME_DENOMINATORS = [3, 7, 9_973, 104_729, 1_299_709]
# A phaseout start off whole dollars and a phaseout rate off the shipped rates' grid.
OFF_GRID_PHASEOUT = {"phaseout_start": Fraction(150_001, 3), "phaseout_rate": Fraction(1, 7)}


def money(lo, hi):
    """Whole dollars, or an amount over a drawn denominator: cents, quarters or a prime."""
    denominator = st.sampled_from([2, 4, 100, *COPRIME_DENOMINATORS])
    return st.one_of(st.integers(lo, hi), denominator.flatmap(
        lambda den: st.integers(lo * den, hi * den).map(lambda num: Fraction(num, den))))


@st.composite
def rule_overrides(draw):
    """Overrides of a shipped year's rules, valid under ``strict=False``.

    Covers refundable maxima above the credit maximum, refund floors above
    the tax-free amount, bracket schedules whose rates are all zero, money
    whose denominators differ from field to field, and phaseout starts and
    rates off the shipped grid: a rate is a tenth of k/den, 0 < k <= den.
    """
    overrides = {
        "ctc_per_child": draw(st.integers(100, 4_000)),
        "actc_per_child": draw(st.integers(100, 4_000)),
        "refund_threshold": draw(money(0, 60_000)),
        "refund_rate": draw(st.sampled_from(["0.05", "0.1", "0.15", "0.45", "1"])),
    }
    for name, hi in (("standard_deduction", 30_000), ("exemption_per_person", 5_000)):
        if draw(st.booleans()):
            overrides[name] = draw(money(0, hi))
    bands = draw(st.integers(0, 3))
    if bands:
        rate = st.sampled_from(["0", "0.05", "0.1", "0.15", "0.25", "0.37"])
        rates = sorted(draw(st.lists(rate, min_size=bands, max_size=bands)), key=Fraction)
        uppers = sorted(draw(st.sets(money(1, 100_000), min_size=bands - 1,
                                     max_size=bands - 1)))
        overrides["brackets"] = ([{"upper": u, "rate": r} for u, r in zip(uppers, rates)]
                                 + [{"rate": rates[-1]}])
    if draw(st.booleans()):
        overrides["phaseout_start"] = draw(money(1_000, 450_000))
    if draw(st.booleans()):
        den = draw(st.sampled_from([2, 5, 7, 10, 9_973, 104_729, 1_299_709]))
        overrides["phaseout_rate"] = Fraction(draw(st.integers(1, den)), 10 * den)
    return overrides


# Up to eight children, in hundredths or over a drawn coprime denominator.
CHILDREN = st.one_of(
    st.integers(0, 800).map(lambda c: Fraction(c, 100)),
    st.sampled_from(COPRIME_DENOMINATORS).flatmap(
        lambda den: st.integers(0, 8 * den).map(lambda c: Fraction(c, den))))


def in_order(ts: ThresholdSet) -> bool:
    """Whether `ts` is in the category order `thresholds` enforces, compared as Fractions."""
    return (ts.t_refund_floor <= ts.t_full_actc <= ts.t_full_ctc <= ts.t_phaseout_start
            and ts.t_full_combined <= ts.t_full_ctc and ts.t_phaseout_start < ts.t_total_phaseout)


@pytest.mark.parametrize("mode", list(LiabilityMode), ids=lambda m: m.value)
class TestInversionMatchesOracle:
    """Threshold inversion equals the references of tests/oracle.py exactly.

    The kernel's two walks are checked directly at each target: the
    refund-plus-credit walk against the breakpoint walk in exact mode and
    the row-by-row scan in table mode, the liability walk against the
    bracket-by-bracket solve in both modes. At every target up to the credit
    maximum, ``invert_benefit`` equals the walk's income, or raises
    Unreachable where the walk lands past the phaseout start or never lands.
    ``thresholds`` and ``full_relief_cuts`` are checked against the same
    references; ``thresholds`` raises OrderingViolation exactly when the reference
    set is out of order. Every income returned is a Fraction, not an equal int.
    """

    @staticmethod
    def assert_same(reference, engine, kind=Fraction):
        """Both calls return the same `kind` of value, or both raise the same error."""
        try:
            expected = reference()
        except (Unreachable, ValidationError) as exc:
            with pytest.raises(type(exc)) as raised:
                engine()
            assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
            return
        got = engine()
        assert (type(got), got) == (kind, expected)
        if kind is ThresholdSet:  # equal fields could still be ints
            assert in_order(got) and {type(getattr(got, f)) for f in got._fields} == {Fraction}

    def assert_thresholds_match_oracle(self, profile, params, mode):
        try:
            self.assert_same(lambda: thresholds_reference(profile, params, mode),
                             lambda: thresholds(profile, params, mode), kind=ThresholdSet)
        except OrderingViolation as exc:  # every inversion succeeded; the message names them
            expected = thresholds_reference(profile, params, mode)
            assert str(exc) == f"thresholds are not monotone for year {params.year}: {expected}"
            assert not in_order(expected)
        for rule in BoundRule:
            self.assert_same(lambda: full_relief_cuts_reference(profile, params, rule, mode),
                             lambda: full_relief_cuts(profile, params, rule, mode), kind=tuple)

    def assert_matches_oracle(self, target, profile, params, mode):
        walk = exact_threshold_walk if mode is LiabilityMode.EXACT else table_threshold_scan
        kernel = _Kernel(profile, params, mode, target)
        self.assert_same(lambda: walk(target, profile, params),
                         lambda: Fraction(*kernel.refund_credit(_over(target, kernel.d))))
        self.assert_same(lambda: liability_reference(target, profile, params, mode),
                         lambda: Fraction(*kernel.liability(_over(target, kernel.d))))
        if target > max_credit(profile, params):
            return
        try:
            expected = walk(target, profile, params)
        except Unreachable:
            expected = None
        start = params.for_status(profile.group.filing_status).phaseout_start
        if expected is None or expected > start:
            with pytest.raises(Unreachable):
                invert_benefit(target, profile, params, mode)
        else:
            got = invert_benefit(target, profile, params, mode)
            assert (type(got), got) == (Fraction, expected)
            self.assert_first_reached_at(got, target, profile, params, mode)

    @staticmethod
    def assert_first_reached_at(income, target, profile, params, mode):
        """The oracle's benefit reaches `target` at `income`, and a cent lower it does not."""
        def total(y):
            return sum(benefit_reference(y, profile, params, mode))

        cent = Fraction(1, 100)
        if total(income) < target:
            # Table liability is 0 at the tax-free amount and a row's tax just above it, so
            # there the minimal income is an infimum, reached a cent later.
            assert mode is LiabilityMode.TABLE and income == tax_free_amount(profile, params)
            assert total(income + cent) >= target
        if income > 0:
            assert total(max(Fraction(0), income - cent)) < target

    def test_shipped_years(self, params_by_year, pop, mode):
        for year, params in params_by_year.items():
            for group in ParentalGroup:
                for children in (Fraction(1), pop.average_children(year, group)):
                    profile = HouseholdProfile(group, children)
                    for target in (max_refund(profile, params), max_credit(profile, params)):
                        self.assert_matches_oracle(target, profile, params, mode)
                    self.assert_thresholds_match_oracle(profile, params, mode)

    @given(
        year=st.sampled_from(sorted(range(2003, 2019))),
        group=st.sampled_from(list(ParentalGroup)),
        children=CHILDREN,
        overrides=rule_overrides(),
        target=st.one_of(st.sampled_from(["max_refund", "max_credit"]),
                         st.integers(1, 1_000_000).map(lambda c: Fraction(c, 100))),
    )
    # No liability is ever owed, yet the refund alone reaches the target.
    @example(year=2010, group=ParentalGroup.SINGLE_MOTHER, children=Fraction(2),
             overrides={"brackets": [{"rate": "0"}], "refund_threshold": 20_000},
             target="max_refund")
    # No liability is ever owed and the target exceeds the refundable maximum.
    @example(year=2018, group=ParentalGroup.MARRIED, children=Fraction(1),
             overrides={"brackets": [{"rate": "0"}], "actc_per_child": 1_400},
             target="max_credit")
    # Every money field the inversion scales has its own denominator.
    @example(year=2018, group=ParentalGroup.SINGLE_FATHER, children=Fraction(17, 7),
             overrides={"refund_threshold": Fraction(10_001, 4),
                        "standard_deduction": Fraction(1_800_001, 100),
                        "exemption_per_person": Fraction(4_051, 3),
                        "brackets": [{"upper": Fraction(27_201, 2), "rate": "0.1"},
                                     {"rate": "0.12"}]},
             target="max_credit")
    # Table rows are $50 of taxable income from the tax-free amount, here 19,350. The refund
    # floor lies inside row 200, [29,350, 29,400), which holds the phase-in answer.
    @example(year=2010, group=ParentalGroup.SINGLE_MOTHER, children=Fraction(2),
             overrides={"refund_threshold": 29_375}, target=Fraction(1_004))
    # A refund floor under half a row: moved down $25 for the row search, it lies below zero,
    # so that walk starts there, with $25 of phase-in accrued by zero income. The answer,
    # 59,650/3, lies in row 10, [19,850, 19,900).
    @example(year=2010, group=ParentalGroup.SINGLE_MOTHER, children=Fraction(2),
             overrides={"refund_threshold": 0, "ctc_per_child": 2_000, "actc_per_child": 2_000},
             target=Fraction(3_035))
    # The phase-in reaches the target exactly at row 200's end, so row 201 holds the answer.
    @example(year=2010, group=ParentalGroup.SINGLE_MOTHER, children=Fraction(2),
             overrides={"refund_threshold": 29_375}, target=Fraction(4_025, 4))
    # A bracket upper off the row edges: row 200's midpoint, taxable 10,025, lies past the
    # upper 10,010 in the next band, whose rate makes row 200 the first to reach the target.
    @example(year=2010, group=ParentalGroup.SINGLE_MOTHER, children=Fraction(2),
             overrides={"refund_threshold": 40_000,
                        "brackets": [{"upper": 10_010, "rate": "0.1"}, {"rate": "0.25"}]},
             target=Fraction(1_004))
    # A zero-rate first bracket with the floor above the tax-free amount: the phase-in
    # reaches the target inside the zero-rate band.
    @example(year=2010, group=ParentalGroup.SINGLE_MOTHER, children=Fraction(2),
             overrides={"refund_threshold": 21_360,
                        "brackets": [{"upper": 5_000, "rate": "0"}, {"rate": "0.1"}]},
             target=Fraction(400))
    # The target equals row 200's midpoint liability, tax(10,025) = 1,002.50, below the floor.
    @example(year=2010, group=ParentalGroup.SINGLE_MOTHER, children=Fraction(2),
             overrides={"refund_threshold": 60_000}, target=Fraction(2_005, 2))
    # A zero tax-free amount: no income lies below it, so row -1 is empty.
    @example(year=2010, group=ParentalGroup.SINGLE_MOTHER, children=Fraction(2),
             overrides={"standard_deduction": 0, "exemption_per_person": 0},
             target="max_credit")
    # Ties, where each non-strict comparison of the ordering or of invert_benefit holds with
    # equality. 2018, two children, single mother: full credit at 53,600 and full combined
    # benefit at 30,000, in both modes. The phaseout starts at full credit:
    @example(year=2018, group=ParentalGroup.SINGLE_MOTHER, children=Fraction(2),
             overrides={"phaseout_start": 53_600}, target="max_credit")
    # Parity with the refund floor at full credit: floor, full refundable, full combined and
    # full credit all at 53,600.
    @example(year=2018, group=ParentalGroup.SINGLE_MOTHER, children=Fraction(2),
             overrides={"actc_per_child": 2_000, "refund_threshold": 53_600},
             target="max_credit")
    # The phaseout starts at full combined benefit, which invert_benefit returns, not refuses.
    @example(year=2018, group=ParentalGroup.SINGLE_MOTHER, children=Fraction(2),
             overrides={"phaseout_start": 30_000}, target="max_credit")
    # Bracket rates and an upper bound off the decimal grid.
    @example(year=2018, group=ParentalGroup.SINGLE_MOTHER, children=Fraction(5, 3),
             overrides=THIRDS, target="max_credit")
    @example(year=2018, group=ParentalGroup.SINGLE_MOTHER, children=Fraction(5, 3),
             overrides=THIRDS, target=Fraction(5_001))
    # A phaseout start off whole dollars and a rate of 1/7: in order for one child in 2003,
    # and below full credit, 53,600, for two in 2018.
    @example(year=2003, group=ParentalGroup.SINGLE_MOTHER, children=Fraction(1),
             overrides=OFF_GRID_PHASEOUT, target="max_credit")
    @example(year=2018, group=ParentalGroup.SINGLE_MOTHER, children=Fraction(2),
             overrides=OFF_GRID_PHASEOUT, target="max_credit")
    @settings(max_examples=300, deadline=None)
    def test_random_rule_sets(self, request, mode, year, group, children, overrides, target):
        params = apply_overrides(request.getfixturevalue("params_by_year")[year], overrides,
                                 strict=False)
        profile = HouseholdProfile(group, children)
        if target == "max_refund":
            target = max_refund(profile, params)
        elif target == "max_credit":
            target = max_credit(profile, params)
        if target > 0:
            self.assert_matches_oracle(target, profile, params, mode)
        self.assert_thresholds_match_oracle(profile, params, mode)


@pytest.mark.parametrize("mode", list(LiabilityMode), ids=lambda m: m.value)
class TestForwardMatchesOracle:
    """``benefit_at_income`` on the kernel equals the oracle's Fraction reference exactly.

    An income is drawn as money or named by the rule it sits on: the tax-free amount, a
    cent above it, the refund floor, the first bracket's upper end as income, the phaseout
    start or the total phaseout.
    """

    @staticmethod
    def named_income(name, profile, params):
        fp = params.for_status(profile.group.filing_status)
        free = tax_free_amount(profile, params)
        uppers = [b.upper for b in fp.brackets.brackets if b.upper is not None]
        return {
            "free": free,
            "free+cent": free + Fraction(1, 100),
            "floor": params.refund_threshold,
            "upper": free + uppers[0] if uppers else free,
            "start": fp.phaseout_start,
            "total": fp.phaseout_start + max_credit(profile, params) / params.phaseout_rate,
        }[name]

    @given(
        year=st.sampled_from(sorted(range(2003, 2019))),
        group=st.sampled_from(list(ParentalGroup)),
        children=CHILDREN,
        overrides=rule_overrides(),
        income=st.one_of(st.sampled_from(["free", "free+cent", "floor", "upper", "start",
                                          "total"]), money(0, 500_000)),
    )
    @example(year=2018, group=ParentalGroup.SINGLE_MOTHER, children=Fraction(2), overrides={},
             income="free")
    @example(year=2018, group=ParentalGroup.SINGLE_MOTHER, children=Fraction(2), overrides={},
             income="free+cent")
    @example(year=2018, group=ParentalGroup.SINGLE_FATHER, children=Fraction(5, 3),
             overrides={"refund_threshold": Fraction(10_001, 4)}, income="floor")
    @example(year=2009, group=ParentalGroup.MARRIED, children=Fraction(7, 3), overrides={},
             income="upper")
    @example(year=2018, group=ParentalGroup.MARRIED, children=Fraction(2), overrides={},
             income="start")
    @example(year=2003, group=ParentalGroup.SINGLE_MOTHER, children=Fraction(5, 3),
             overrides={}, income="total")
    @example(year=2018, group=ParentalGroup.SINGLE_MOTHER, children=Fraction(5, 3),
             overrides=THIRDS, income="upper")
    @example(year=2018, group=ParentalGroup.SINGLE_MOTHER, children=Fraction(5, 3),
             overrides=THIRDS, income=Fraction(70_001, 2))
    # A phaseout start off whole dollars and a rate of 1/7: at the start, $100 past it, and
    # at the total phaseout.
    @example(year=2003, group=ParentalGroup.MARRIED, children=Fraction(5, 3),
             overrides=OFF_GRID_PHASEOUT, income="start")
    @example(year=2003, group=ParentalGroup.MARRIED, children=Fraction(5, 3),
             overrides=OFF_GRID_PHASEOUT, income=Fraction(150_301, 3))
    @example(year=2003, group=ParentalGroup.MARRIED, children=Fraction(5, 3),
             overrides=OFF_GRID_PHASEOUT, income="total")
    @settings(max_examples=200, deadline=None)
    def test_random_rule_sets(self, request, mode, year, group, children, overrides, income):
        params = apply_overrides(request.getfixturevalue("params_by_year")[year], overrides,
                                 strict=False)
        profile = HouseholdProfile(group, children)
        if isinstance(income, str):
            income = self.named_income(income, profile, params)
        split = benefit_at_income(income, profile, params, mode)
        assert (split.credit, split.refund) == benefit_reference(income, profile, params, mode)
        assert (type(split.credit), type(split.refund)) == (Fraction, Fraction)


class TestGridEquivalence:
    @pytest.mark.parametrize("year", list(range(2003, 2019)))
    @pytest.mark.parametrize("group", list(ParentalGroup))
    def test_threshold_categories_match_brute_force(self, params_by_year, pop, year, group):
        params = params_by_year[year]
        for children in (Fraction(1), pop.average_children(year, group)):
            profile = HouseholdProfile(group, children)
            ts = thresholds(profile, params)
            incomes = np.arange(0, 120_001, dtype=float)
            oracle_cats = grid_categories(incomes, params, group, float(children))
            bounds = ts.boundaries()
            engine_cats = np.zeros(incomes.shape, dtype=int)
            for boundary, strictly_above in bounds:
                b = float(boundary)
                engine_cats += (incomes > b) if strictly_above else (incomes >= b)
            mismatches = np.nonzero(engine_cats != oracle_cats)[0]
            assert mismatches.size == 0, (year, group, children, mismatches[:5])
