from fractions import Fraction
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctcsim import (
    HouseholdProfile,
    ParentalGroup,
    Scenario,
    apply_overrides,
    counterfactual,
    full_relief_proportion,
    priced_out,
    thresholds,
)
from ctcsim.classifier import (
    BoundRule,
    CATEGORY_ORDER,
    GeneralizabilityFlag,
    _cut,
    assign_bins,
    category_cuts,
    classify,
    count_between,
)
from ctcsim.counterfactual import full_relief_cuts, profile_for
from ctcsim.errors import ThresholdOutOfRange, Unreachable
from ctcsim.population import BIN_WIDTH, INCOME_CEILING, PopulationTable
from ctcsim.taxmath import ThresholdSet

from oracle import (
    assign_bins_reference,
    count_between_reference,
    cut_income_reference,
    grid_categories,
)

A, B, C, D, E, F = CATEGORY_ORDER


def make_thresholds(floor=3000, actc=9667, ctc=25650, start=75000, end=95000, combined=None):
    return ThresholdSet(
        t_refund_floor=Fraction(floor),
        t_full_actc=Fraction(actc),
        t_full_ctc=Fraction(ctc),
        t_phaseout_start=Fraction(start),
        t_total_phaseout=Fraction(end),
        t_full_combined=Fraction(combined if combined is not None else actc),
    )


def cumulative(counts):
    return tuple(accumulate(counts, initial=0))


def uniform_bins(count=10):
    return [count] * 40


def one_bin(lower, count=100):
    return [count if lo == lower else 0 for lo in range(0, 100_000, 2500)]


class TestCutRules:
    def test_upper_rule_interior_threshold(self):
        # Straddled bin joins the lower category: next category starts a bin later.
        assert _cut(25_650, 1, False, BoundRule.UPPER) == 27_500

    def test_upper_rule_on_edge_at_or_above(self):
        assert _cut(25_000, 1, False, BoundRule.UPPER) == 25_000

    def test_upper_rule_on_edge_strict(self):
        # Qualification needs income beyond the boundary, so the bin opening
        # at the boundary is still ambiguous and stays low.
        assert _cut(2_500, 1, True, BoundRule.UPPER) == 5_000

    def test_middle_rule_below_midpoint(self):
        assert _cut(25_650, 1, False, BoundRule.MIDDLE) == 25_000

    def test_middle_rule_at_or_past_midpoint(self):
        assert _cut(27_000, 1, False, BoundRule.MIDDLE) == 27_500

    def test_middle_rule_exactly_midpoint_goes_low(self):
        assert _cut(26_250, 1, False, BoundRule.MIDDLE) == 27_500

    def test_negative_boundary_rejected(self):
        with pytest.raises(ThresholdOutOfRange):
            _cut(-1, 1, False, BoundRule.UPPER)


def denominators():
    return st.one_of(st.integers(1, 1_000),
                     st.sampled_from([7_919, 104_729, 1_299_709, 2**31 - 1, 2**61 - 1]))


def boundaries():
    """Incomes up to $200,000 and a little below zero: anywhere over a drawn
    denominator, exactly on a bin edge or midpoint, or one unit of the
    denominator to either side of one."""
    anywhere = denominators().flatmap(
        lambda den: st.integers(-den, 200_000 * den).map(lambda num: Fraction(num, den)))
    half_edges = st.integers(0, 160).map(lambda k: Fraction(k * BIN_WIDTH, 2))
    near = st.tuples(half_edges, st.sampled_from([-1, 1]), denominators()).map(
        lambda t: t[0] + Fraction(t[1], t[2]))
    return st.one_of(anywhere, half_edges, near)


def cut_or_error(cut, boundary, strictly_above, rule):
    try:
        return cut(boundary, strictly_above, rule)
    except ThresholdOutOfRange as exc:
        return str(exc)


@given(boundary=boundaries(), scale=st.integers(1, 10**6), strictly_above=st.booleans(),
       rule=st.sampled_from(list(BoundRule)))
@example(boundary=Fraction(26_250), scale=7, strictly_above=False, rule=BoundRule.MIDDLE)
@example(boundary=Fraction(-1, 3), scale=2**61 - 1, strictly_above=False, rule=BoundRule.UPPER)
@settings(max_examples=500, deadline=None)
def test_cut_income_matches_fraction_reference(boundary, scale, strictly_above, rule):
    """`_cut` of the boundary as an unreduced pair, numerator and denominator both times
    `scale`, against the reference on the boundary itself."""
    def cut(b, strictly_above, rule):
        return _cut(b.numerator * scale, b.denominator * scale, strictly_above, rule)

    assert cut_or_error(cut, boundary, strictly_above, rule) == cut_or_error(
        cut_income_reference, boundary, strictly_above, rule)


class TestAssignment:
    def test_straddled_bin_upper_rule(self):
        # 25650 sits in [25000, 27500): the whole bin counts as full-refundable.
        ts = make_thresholds()
        counts = assign_bins(cumulative(one_bin(25_000)), ts, BoundRule.UPPER)
        assert counts[C] == 100 and counts[D] == 0

    def test_straddled_bin_middle_rule_under_midpoint(self):
        ts = make_thresholds()
        counts = assign_bins(cumulative(one_bin(25_000)), ts, BoundRule.MIDDLE)
        assert counts[D] == 100 and counts[C] == 0

    def test_straddled_bin_middle_rule_past_midpoint(self):
        ts = make_thresholds(ctc=27_000)
        counts = assign_bins(cumulative(one_bin(25_000)), ts, BoundRule.MIDDLE)
        assert counts[C] == 100 and counts[D] == 0

    def test_all_mass_below_floor(self):
        ts = make_thresholds()
        counts = assign_bins(cumulative(one_bin(0)), ts, BoundRule.UPPER)
        assert counts[A] == 100
        assert sum(counts.values()) == 100

    def test_count_conservation_both_rules(self, pop, params_by_year):
        for rule in BoundRule:
            for year in (2003, 2009, 2018):
                for group in ParentalGroup:
                    cum = pop.cumulative(year, group)
                    ts = thresholds(HouseholdProfile.one_child(group), params_by_year[year])
                    counts = assign_bins(cum, ts, rule)
                    assert sum(counts.values()) == cum[-1]

    def test_rule_dominance_mid_bin_thresholds(self):
        # Upper is the conservative rule when boundaries fall mid-bin.
        ts = make_thresholds(floor=3_000, actc=9_600, ctc=25_650)
        bins = uniform_bins()
        upper = assign_bins(cumulative(bins), ts, BoundRule.UPPER)
        middle = assign_bins(cumulative(bins), ts, BoundRule.MIDDLE)
        total = sum(bins)
        upper_d_up = sum(upper[c] for c in (D, E, F)) / total
        middle_d_up = sum(middle[c] for c in (D, E, F)) / total
        assert upper_d_up <= middle_d_up

    def test_monotone_response_to_higher_credit_threshold(self):
        bins = cumulative(uniform_bins())
        base = assign_bins(bins, make_thresholds(ctc=25_650), BoundRule.UPPER)
        raised = assign_bins(bins, make_thresholds(ctc=35_650), BoundRule.UPPER)
        assert raised[D] <= base[D]

    def test_cuts_nondecreasing(self, params_by_year, pop):
        for year, params in params_by_year.items():
            for group in ParentalGroup:
                for scenario in Scenario:
                    children = Fraction(1) if scenario.fixed_one_child else \
                        pop.average_children(year, group)
                    ts = thresholds(HouseholdProfile(group, children), params)
                    cuts = category_cuts(ts, scenario.rule)
                    assert cuts == sorted(cuts)


class TestOracleEquivalence:
    """Bin assignment against per-dollar brute force (random populations)."""

    CASES = [(2009, ParentalGroup.SINGLE_MOTHER), (2017, ParentalGroup.MARRIED),
             (2018, ParentalGroup.SINGLE_FATHER)]

    def _dollar_cats(self, params, group, children):
        incomes = np.arange(0, 100_000, dtype=float)
        return grid_categories(incomes, params, group, float(children))

    @pytest.mark.parametrize("year,group", CASES)
    def test_random_populations(self, params_by_year, year, group):
        params = params_by_year[year]
        profile = HouseholdProfile.one_child(group)
        ts = thresholds(profile, params)
        dollar_cats = self._dollar_cats(params, group, 1)
        rng = np.random.default_rng(20_18)
        for trial in range(50):
            counts_vec = rng.integers(0, 1_000, size=40)
            bins = [(lo, int(counts_vec[i])) for i, lo in enumerate(range(0, 100_000, 2500))]
            for rule in BoundRule:
                engine = assign_bins(cumulative(n for _, n in bins), ts, rule)
                expected = {c: 0 for c in CATEGORY_ORDER}
                for lower, count in bins:
                    cats_in_bin = sorted(set(dollar_cats[lower:lower + 2500]))
                    if len(cats_in_bin) == 1:
                        cat = CATEGORY_ORDER[cats_in_bin[0]]
                    else:
                        # Straddled bin: apply the bound rule directly.
                        assert len(cats_in_bin) == 2, (trial, lower)
                        lower_cat, upper_cat = (CATEGORY_ORDER[j] for j in cats_in_bin)
                        boundary = self._boundary_between(ts, cats_in_bin[1])
                        if rule is BoundRule.UPPER:
                            cat = lower_cat
                        else:
                            cat = lower_cat if boundary >= lower + 1250 else upper_cat
                    expected[cat] += count
                assert engine == expected, (trial, rule)

    @staticmethod
    def _boundary_between(ts, upper_code):
        return ts.boundaries()[upper_code - 1][0]


def count_vectors():
    """40 bin counts, many of them zero."""
    return st.lists(st.one_of(st.just(0), st.integers(0, 10**6)), min_size=40, max_size=40)


def boundary_incomes():
    """Incomes on a bin edge, on a bin midpoint, anywhere in a bin, or past $100,000."""
    on_edge = st.integers(0, 40).map(lambda k: Fraction(k * BIN_WIDTH))
    midpoint = st.integers(0, 39).map(lambda k: Fraction(k * BIN_WIDTH + BIN_WIDTH // 2))
    mid_bin = st.fractions(0, INCOME_CEILING, max_denominator=300)
    past = st.fractions(INCOME_CEILING, 2 * INCOME_CEILING, max_denominator=300)
    return st.one_of(on_edge, midpoint, mid_bin, past)


@st.composite
def ordered_thresholds(draw):
    floor, actc, ctc, start, end = sorted(draw(st.lists(boundary_incomes(), min_size=5,
                                                        max_size=5)))
    return ThresholdSet(floor, actc, ctc, start, end, draw(st.sampled_from([actc, ctc])))


def cut_edges():
    """Bin-edge cuts from $0 past the ceiling, as `_cut` returns them."""
    return st.integers(0, 60).map(lambda k: k * BIN_WIDTH)


class TestPrefixSums:
    """Counts from a cell's cumulative counts against the per-bin references."""

    @given(counts=count_vectors(), ts=ordered_thresholds(), rule=st.sampled_from(list(BoundRule)))
    @settings(max_examples=250, deadline=None)
    def test_category_counts_match_per_bin_assignment(self, counts, ts, rule):
        assert assign_bins(cumulative(counts), ts, rule) == assign_bins_reference(counts, ts, rule)

    @given(counts=count_vectors(), lo=cut_edges(), hi=cut_edges())
    @settings(max_examples=250, deadline=None)
    def test_count_between_matches_per_bin_sum(self, counts, lo, hi):
        # hi <= lo is the empty range: no bin's lower edge lies in [lo, hi).
        assert count_between(cumulative(counts), lo, hi) == count_between_reference(counts, lo, hi)

    @staticmethod
    def _table(year, counts):
        return PopulationTable({(year, g): counts for g in ParentalGroup},
                               {(year, g): {"1": 2, "2": 1, "4": 1} for g in ParentalGroup})

    @given(counts=count_vectors().filter(any), year=st.sampled_from([2009, 2017, 2018]),
           group=st.sampled_from(list(ParentalGroup)), scenario=st.sampled_from(list(Scenario)),
           credit=st.integers(1, 80).map(lambda k: 100 * k))
    @settings(max_examples=100, deadline=None)
    def test_full_relief_share_matches_per_bin_sum(self, params_by_year, counts, year, group,
                                                   scenario, credit):
        pop = self._table(year, counts)
        rules = apply_overrides(params_by_year[year],
                                {"ctc_per_child": credit, "actc_per_child": credit}, strict=False)
        profile = profile_for(pop, group, scenario, year)
        try:
            lo, hi = full_relief_cuts(profile, rules, scenario.rule)
            want = Fraction(count_between_reference(counts, lo, hi), sum(counts))
        except Unreachable:
            want = Fraction(0)
        assert full_relief_proportion(pop, year, group, rules, scenario) == want

    @given(counts=count_vectors().filter(any), year=st.sampled_from([2009, 2017]),
           group=st.sampled_from(list(ParentalGroup)), scenario=st.sampled_from(list(Scenario)),
           raised_cut=st.one_of(st.none(), cut_edges()))
    @settings(max_examples=100, deadline=None)
    def test_priced_out_mass_matches_per_bin_sum(self, params_by_year, counts, year, group,
                                                 scenario, raised_cut):
        """`raised_cut`, when drawn, stands in for the raised rules' full-relief cut: one
        below the full-refundable cut leaves the priced-out range empty."""
        pop = self._table(year, counts)
        params = params_by_year[year]
        profile = profile_for(pop, group, scenario, year)
        cuts = category_cuts(thresholds(profile, params), scenario.rule)
        new_ctc = 2 * params.ctc_per_child
        if raised_cut is None:
            result = priced_out(pop, year, group, params, new_ctc, scenario)
            raised = apply_overrides(params, {"ctc_per_child": new_ctc}, strict=False)
            try:
                raised_cut = full_relief_cuts(profile, raised, scenario.rule)[0]
            except Unreachable:
                raised_cut = cuts[3]
        else:
            with mock.patch.object(counterfactual, "full_relief_cuts",
                                   lambda *args: (raised_cut, cuts[3])):
                result = priced_out(pop, year, group, params, new_ctc, scenario)
        assert result.priced_out == count_between_reference(counts, cuts[1],
                                                            min(raised_cut, cuts[3]))
        assert result.full_relief_old == count_between_reference(counts, cuts[1], cuts[3])


class TestFlags:
    """Flags from `classify`: the shipped rules' cells, then any thresholds at all."""

    ACC = GeneralizabilityFlag.ACCURATE
    UNDER = GeneralizabilityFlag.UNDERESTIMATE
    UNAVAIL = GeneralizabilityFlag.UNAVAILABLE

    @staticmethod
    def _flags(pop, params_by_year, group, year, scenario):
        ts = thresholds(profile_for(pop, group, scenario, year), params_by_year[year])
        return classify(pop, year, group, ts, scenario).flags

    def test_married_pre_2018(self, pop, params_by_year):
        flags = self._flags(pop, params_by_year, ParentalGroup.MARRIED, 2010, Scenario.S1)
        assert flags[D] is self.UNDER
        assert flags[E] is self.UNAVAIL
        assert flags[F] is self.UNAVAIL
        assert flags[A] is self.ACC

    def test_single_pre_2018_s1(self, pop, params_by_year):
        flags = self._flags(pop, params_by_year, ParentalGroup.SINGLE_FATHER, 2010, Scenario.S1)
        assert all(flags[c] is self.ACC for c in (A, B, C, D, E))
        assert flags[F] is self.UNDER

    def test_single_pre_2018_s2(self, pop, params_by_year):
        flags = self._flags(pop, params_by_year, ParentalGroup.SINGLE_MOTHER, 2010, Scenario.S2)
        assert flags[D] is self.ACC
        assert flags[E] is self.UNDER
        assert flags[F] is self.UNAVAIL

    def test_single_2018(self, pop, params_by_year):
        flags = self._flags(pop, params_by_year, ParentalGroup.SINGLE_MOTHER, 2018, Scenario.S1)
        assert flags[D] is self.UNDER
        assert flags[E] is self.UNAVAIL
        assert flags[F] is self.UNAVAIL

    def test_married_2018(self, pop, params_by_year):
        flags = self._flags(pop, params_by_year, ParentalGroup.MARRIED, 2018, Scenario.S2)
        assert flags[D] is self.UNAVAIL

    @pytest.mark.parametrize("start,hi,flag", [
        # d covers [80,000, 160,000): exactly a quarter of it lies below the ceiling.
        (159_000, 160_000, GeneralizabilityFlag.UNDERESTIMATE),
        # d covers [80,000, 162,500): less than a quarter does.
        (162_000, 162_500, GeneralizabilityFlag.UNAVAILABLE),
    ])
    def test_a_category_mostly_past_the_ceiling_is_unavailable(self, pop, start, hi, flag):
        ts = make_thresholds(ctc=80_000, start=start, end=200_000)
        for scenario in Scenario:
            assert category_cuts(ts, scenario.rule)[2:4] == [80_000, hi]
            assert classify(pop, 2018, ParentalGroup.MARRIED, ts, scenario).flags[D] is flag

    def test_a_category_ending_at_the_ceiling_is_accurate(self, pop):
        # e ends at the total phaseout, 100,000: it lies wholly inside the data.
        ts = make_thresholds(end=100_000)
        for scenario in Scenario:
            assert category_cuts(ts, scenario.rule)[4] == INCOME_CEILING
            flags = classify(pop, 2018, ParentalGroup.MARRIED, ts, scenario).flags
            assert (flags[E], flags[F]) == (self.ACC, self.UNAVAIL)

    @given(ts=ordered_thresholds(), scenario=st.sampled_from(list(Scenario)))
    @example(ts=make_thresholds(ctc=80_000, start=159_000, end=200_000), scenario=Scenario.S1)
    # e ends exactly at the ceiling, so it lies wholly inside the data.
    @example(ts=make_thresholds(end=100_000), scenario=Scenario.S1)
    @settings(max_examples=250, deadline=None)
    def test_no_category_reaching_past_the_ceiling_is_accurate(self, pop, ts, scenario):
        flags = classify(pop, 2018, ParentalGroup.MARRIED, ts, scenario).flags
        edges = [0, *category_cuts(ts, scenario.rule)]
        for cat, lo, hi in zip(CATEGORY_ORDER, edges, [*edges[1:], None]):  # f: no upper end
            if lo >= INCOME_CEILING:
                assert flags[cat] is self.UNAVAIL, cat
            elif hi is None or hi > INCOME_CEILING:
                assert flags[cat] is not self.ACC, cat
                # A quarter or more of a bounded range inside, as the example's d: underestimate.
                if hi is not None and 4 * (INCOME_CEILING - lo) >= hi - lo:
                    assert flags[cat] is self.UNDER, cat
            else:  # lo < ceiling and hi <= ceiling: wholly inside the data
                assert flags[cat] is self.ACC, cat


@st.composite
def unordered_thresholds(draw):
    """Five boundaries in any order, some past the ceiling: the running maximum clamps
    every cut below the one before it."""
    floor, actc, ctc, start, end = draw(st.lists(st.one_of(
        boundary_incomes(), st.fractions(INCOME_CEILING, 10**7, max_denominator=300)),
        min_size=5, max_size=5))
    return ThresholdSet(floor, actc, ctc, start, end, actc)


def ceiling_flag(lo, hi):
    """The module docstring's rule for the category covering [lo, hi), hi None for f:
    unavailable if it starts at or past the ceiling, or if less than a quarter of a bounded
    range lies below it; else an underestimate if it reaches past the ceiling."""
    if lo >= INCOME_CEILING or hi is not None and 4 * (min(hi, INCOME_CEILING) - lo) < hi - lo:
        return GeneralizabilityFlag.UNAVAILABLE
    if hi is None or hi > INCOME_CEILING:
        return GeneralizabilityFlag.UNDERESTIMATE
    return GeneralizabilityFlag.ACCURATE


class TestOnePass:
    """`classify`'s one pass over the boundaries against the per-bin and Fraction references,
    for any five boundaries: in order or not, inside the data or past it."""

    @given(counts=count_vectors(), ts=st.one_of(ordered_thresholds(), unordered_thresholds()),
           scenario=st.sampled_from(list(Scenario)))
    @example(counts=uniform_bins(), ts=make_thresholds(150_000, 5_000, 120_000, 99_999, 250_000),
             scenario=Scenario.S1)
    @example(counts=uniform_bins(), ts=make_thresholds(95_000, 60_000, 40_000, 20_000, 1_250),
             scenario=Scenario.S2)
    @example(counts=one_bin(97_500), ts=make_thresholds(100_000, 100_000, 101_250, 300_000,
                                                        10**6), scenario=Scenario.S2)
    @settings(max_examples=400, deadline=None)
    def test_classify_matches_the_references(self, counts, ts, scenario):
        rule, group = scenario.rule, ParentalGroup.SINGLE_FATHER
        est = classify(PopulationTable({(2017, group): counts}), 2017, group, ts, scenario)
        cuts = list(accumulate((cut_income_reference(boundary, strictly_above, rule)
                                for boundary, strictly_above in ts.boundaries()), max))
        assert category_cuts(ts, rule) == cuts
        assert list(est.counts) == list(est.flags) == list(CATEGORY_ORDER)
        assert est.counts == assign_bins_reference(counts, ts, rule)
        edges = [0, *cuts, None]
        assert est.flags == {cat: ceiling_flag(lo, hi)
                             for cat, lo, hi in zip(CATEGORY_ORDER, edges, edges[1:])}
        assert assign_bins(cumulative(counts), ts, rule) == est.counts


class TestCombine:
    def _estimate(self, pop, params_by_year, year=2017, group=ParentalGroup.MARRIED,
                  scenario=Scenario.S1):
        ts = thresholds(HouseholdProfile.one_child(group), params_by_year[year])
        return classify(pop, year, group, ts, scenario)

    def test_full_relief_2017_married(self, pop, params_by_year):
        est = self._estimate(pop, params_by_year)
        share = est.proportion(C) + est.proportion(D)
        assert abs(share - Fraction("0.99")) < Fraction("0.001")

    def test_categories_sum_to_one(self, pop, params_by_year):
        est = self._estimate(pop, params_by_year, year=2009,
                             group=ParentalGroup.SINGLE_MOTHER)
        assert sum(est.proportion(c) for c in CATEGORY_ORDER) == 1

    def test_2018_single_mass_sits_in_full_credit(self, pop, params_by_year):
        # Phaseout boundaries exceed the data ceiling: e and f report zero.
        est = self._estimate(pop, params_by_year, year=2018,
                             group=ParentalGroup.SINGLE_MOTHER)
        assert est.counts[E] == 0 and est.counts[F] == 0
        assert est.flags[E] is GeneralizabilityFlag.UNAVAILABLE
