"""What-if analyses: parameter walks, parity, pricing-out, credit sweeps.

All operations here classify a fixed income distribution under modified
program parameters; population year and parameter year are independent so
that rule changes can be isolated from demographic drift. A rule set's
`year` picks the children averages its thresholds use (middle-bound
scenarios only), so a walk is a list of labelled, fully resolved rule sets.
Every analysis is built from two primitives: the memoised classified cell
(:func:`eligibility`) and the full-relief share of a derived rule set
(:func:`full_relief_proportion`). Results are exact; the output layer rounds.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .classifier import (
    BoundRule,
    EligibilityEstimate,
    ReliefCategory,
    Scenario,
    _classify,
    _cut,
    count_between,
)
from .errors import Unreachable, ValidationError
from .memo import once
from .money import as_money
from .params import (
    ParentalGroup,
    ProgramParameters,
    apply_overrides,
    copy_fields,
    params_for_year,
)
from .population import PopulationTable
from .record import Record, replace
# `thresholds` stays bound here, unused: ctcbench's tracer and its self-test reach it here.
from .taxmath import HouseholdProfile, LiabilityMode, _benefit_income, _threshold_pairs, thresholds

GROUPS = tuple(ParentalGroup)
_ONE_CHILD = {group: HouseholdProfile.one_child(group) for group in GROUPS}


def profile_for(
    pop: PopulationTable,
    group: ParentalGroup,
    scenario: Scenario,
    children_year: int,
) -> HouseholdProfile:
    """Household profile under the scenario's children convention."""
    if scenario.fixed_one_child:
        return _ONE_CHILD[group]
    return HouseholdProfile(group, pop.average_children(children_year, group))


def eligibility(
    pop: PopulationTable,
    pop_year: int,
    group: ParentalGroup,
    params: ProgramParameters,
    scenario: Scenario,
    mode: LiabilityMode = LiabilityMode.EXACT,
) -> EligibilityEstimate:
    """Classify the (pop_year, group) distribution under `params`.

    Inside a command scope each distinct cell is classified once (see
    :mod:`ctcsim.memo`), so every row builder shares one panel.
    """
    return once(_eligibility, pop, pop_year, group, params, scenario, mode)


def _eligibility(pop, pop_year, group, params, scenario, mode) -> EligibilityEstimate:
    profile = profile_for(pop, group, scenario, params.year)
    counts, flags, _ = _classify(pop.cumulative(pop_year, group),
                                 _threshold_pairs(profile, params, mode), scenario.rule)
    return EligibilityEstimate(counts, flags)


def full_relief_cuts(
    profile: HouseholdProfile,
    params: ProgramParameters,
    rule: BoundRule,
    mode: LiabilityMode = LiabilityMode.EXACT,
) -> tuple[int, int]:
    """Bin-edge cuts delimiting full-benefit eligibility via any pathway.

    The lower cut comes from the income at which credit plus refund reaches
    the full per-household maximum; the upper cut is the phaseout start
    (incomes above it can no longer realize the full amount). Raises
    Unreachable when the phaseout erodes the full benefit before it accrues.
    """
    y, den, start, d = _benefit_income(profile, params, mode)
    return _cut(y, den, False, rule), _cut(start, d, True, rule)  # only the start is strict


def full_relief_proportion(pop: PopulationTable, pop_year: int, group: ParentalGroup,
                           params: ProgramParameters, scenario: Scenario,
                           mode: LiabilityMode = LiabilityMode.EXACT) -> Fraction:
    """Share of the group able to realize the full benefit as credit and/or refund."""
    return Fraction(*_full_relief(pop, pop_year, group, params, scenario, mode))


def _full_relief(pop, pop_year, group, params, scenario, mode) -> tuple[int, int]:
    """The cell's count able to realize the full benefit (0 if unreachable), and its total."""
    profile = profile_for(pop, group, scenario, params.year)
    cum = pop.cumulative(pop_year, group)
    try:
        lo, hi = full_relief_cuts(profile, params, scenario.rule, mode)
    except Unreachable:
        return 0, cum[-1]
    return count_between(cum, lo, hi), cum[-1]


# ---------------------------------------------------------------------------
# Piecemeal parameter walks


class StepRow(Record):
    step: int
    label: str
    group: ParentalGroup
    proportion: Fraction


def piecemeal_walk(
    table: str,
    params_by_year: Mapping[int, ProgramParameters],
    pop_year: int = 2018,
    base_year: int = 2017,
) -> tuple[ReliefCategory, list[tuple[str, ProgramParameters]]]:
    """The stock walk from old-law baseline to new-law rules, as labelled rule sets.

    Table "1a" walks the full-credit category; "1b" the full refundable
    category with the credit raised last. Step 1 is the new law outright,
    step 2 the baseline; each later step copies more fields from the new
    law (:func:`~ctcsim.params.copy_fields`, so no value is parsed again),
    passing through rule sets the load check would reject (e.g. refundable
    maximum above the credit maximum). The last step also takes the new
    law's year, hence its children averages, so it equals step 1 when the
    two years differ only in the walked fields.
    """
    new = params_for_year(params_by_year, pop_year)
    base = params_for_year(params_by_year, base_year)
    credit = ("raise credit maximum", ["ctc_per_child"])
    refundable = ("raise refundable maximum", ["actc_per_child"])
    if table == "1a":
        target, first, last = ReliefCategory.FULL_CTC, credit, refundable
    elif table == "1b":
        target, first, last = ReliefCategory.FULL_ACTC, refundable, credit
    else:
        raise ValidationError(f"unknown piecemeal table {table!r}")
    moves = [
        first,
        ("new standard deduction, exemptions repealed", ["standard_deduction", "exemption_per_person"]),
        ("new refundability floor", ["refund_threshold"]),
        ("new phaseout start", ["phaseout_start"]),
        last,
        ("new rate brackets and children averages", ["brackets"]),
    ]
    walk = [(f"{pop_year} rules outright", new), (f"{base_year} rules baseline", base)]
    rules = base
    for label, names in moves:
        rules = copy_fields(rules, new, names)
        walk.append((label, rules))
    walk[-1] = (label, replace(rules, year=new.year))
    return target, walk


def run_piecemeal_table(
    table: str,
    pop: PopulationTable,
    params_by_year: Mapping[int, ProgramParameters],
    scenario: Scenario,
    pop_year: int = 2018,
    base_year: int = 2017,
    mode: LiabilityMode = LiabilityMode.EXACT,
) -> list[StepRow]:
    """The walked category's share of `pop_year` under each step, per group."""
    target, walk = piecemeal_walk(table, params_by_year, pop_year, base_year)
    return [
        StepRow(step, label, group,
                eligibility(pop, pop_year, group, rules, scenario, mode).proportion(target))
        for step, (label, rules) in enumerate(walk, start=1)
        for group in GROUPS
    ]


# ---------------------------------------------------------------------------
# Parity, pricing-out, sweeps


class PricedOutResult(Record):
    full_relief_old: int
    priced_out: int

    @property
    def proportion_priced_out(self) -> Fraction | None:
        """None when no household had full relief at baseline: nothing to divide by."""
        if self.full_relief_old == 0:
            return None
        return Fraction(self.priced_out, self.full_relief_old)


def priced_out_refusal(params: ProgramParameters, new_ctc) -> str | None:
    """Why `priced_out` refuses baseline rules `params` and a raise to `new_ctc`, else None.
    A `new_ctc` that is not positive is no credit under any rules: a ValidationError."""
    if new_ctc <= 0:
        raise ValidationError(f"new credit maximum must be positive, not {new_ctc}")
    if params.actc_per_child != params.ctc_per_child:
        return "priced-out baseline requires parity parameters"
    if new_ctc <= params.ctc_per_child:
        return "new credit maximum must exceed the baseline"
    return None


def priced_out(
    pop: PopulationTable,
    year: int,
    group: ParentalGroup,
    params_parity: ProgramParameters,
    new_ctc,
    scenario: Scenario,
    mode: LiabilityMode = LiabilityMode.EXACT,
) -> PricedOutResult:
    """Households losing full relief when the credit maximum rises alone.

    Baseline: the cell's full relief via either pathway under parity rules
    (categories c and d). Survivors: its full-relief count once the credit
    maximum rises and the refundable maximum stays. Raises ValidationError
    with the reason :func:`priced_out_refusal` gives.
    """
    new_ctc = as_money(new_ctc)
    if (refusal := priced_out_refusal(params_parity, new_ctc)) is not None:
        raise ValidationError(refusal)
    est = eligibility(pop, year, group, params_parity, scenario, mode)
    old = est.counts[ReliefCategory.FULL_ACTC] + est.counts[ReliefCategory.FULL_CTC]
    raised = once(_raised_credit, params_parity, new_ctc)
    survivors, _ = _full_relief(pop, year, group, raised, scenario, mode)
    # Both ranges end at the phaseout cut, which the credit maximum leaves alone, so one holds
    # the other: the loss is their difference, or 0 if the raised range starts below c's.
    return PricedOutResult(full_relief_old=old, priced_out=max(0, old - survivors))


def _raised_credit(params: ProgramParameters, new_ctc: Fraction) -> ProgramParameters:
    return apply_overrides(params, {"ctc_per_child": new_ctc}, strict=False)


def credit_size_sweep(
    pop: PopulationTable,
    year: int,
    credit_values: Sequence,
    scenario: Scenario,
    params: ProgramParameters,
    parity: bool = True,
    mode: LiabilityMode = LiabilityMode.EXACT,
) -> list[tuple[Fraction, ParentalGroup, Fraction]]:
    """Full-relief share per (credit maximum, group).

    With `parity` the refundable maximum tracks the credit maximum;
    otherwise it stays at its baseline value.
    """
    credits = [as_money(c) for c in credit_values]
    if not credits or any(c <= 0 for c in credits):
        raise ValidationError("credit values must be positive and nonempty")
    rows = []
    for credit in credits:
        overrides: dict[str, object] = {"ctc_per_child": credit}
        if parity:
            overrides["actc_per_child"] = credit
        swapped = apply_overrides(params, overrides, strict=False)
        for group in GROUPS:
            share = full_relief_proportion(pop, year, group, swapped, scenario, mode)
            rows.append((credit, group, share))
    return rows


class ParityResult(Record):
    """Full-relief eligibility before and after refundable-credit parity, then without the floor."""

    before: Mapping[ParentalGroup, Fraction]
    after: Mapping[ParentalGroup, Fraction]
    no_floor: Mapping[ParentalGroup, Fraction]

    def gap_before(self) -> Fraction:
        return self.before[ParentalGroup.SINGLE_FATHER] - self.before[ParentalGroup.SINGLE_MOTHER]

    def gap_after(self) -> Fraction:
        return self.after[ParentalGroup.SINGLE_FATHER] - self.after[ParentalGroup.SINGLE_MOTHER]


def restore_parity(
    pop: PopulationTable,
    year: int,
    params: ProgramParameters,
    scenario: Scenario,
    mode: LiabilityMode = LiabilityMode.EXACT,
) -> ParityResult:
    """Raise the refundable maximum to the credit maximum and re-measure.

    "Before" measures who realizes the full envisioned benefit through the
    pathways able to deliver it: when the refundable maximum falls short of
    the credit maximum that is the credit pathway alone (category d); at
    parity either pathway qualifies, making the operation a no-op. "After"
    is full relief via either pathway under parity; "no floor" also removes
    the refundability floor.
    """
    def shares(rules: ProgramParameters) -> dict[ParentalGroup, Fraction]:
        return {g: full_relief_proportion(pop, year, g, rules, scenario, mode) for g in GROUPS}

    at_parity = replace(params, actc_per_child=params.ctc_per_child)
    after = shares(at_parity)
    if params.actc_per_child == params.ctc_per_child:  # already at parity: at_parity == params
        before = after
    else:
        before = {g: eligibility(pop, year, g, params, scenario, mode=mode).proportion(
            ReliefCategory.FULL_CTC) for g in GROUPS}
    no_floor = replace(at_parity, refund_threshold=Fraction(0))
    return ParityResult(before=before, after=after, no_floor=shares(no_floor))


class EliminationResult(Record):
    """Access gained by removing the refundability floor."""

    deltas: Mapping[ParentalGroup, Fraction]
    gaining_households: int


def eliminate_refundability(
    pop: PopulationTable,
    year: int,
    params: ProgramParameters,
    scenario: Scenario,
    mode: LiabilityMode = LiabilityMode.EXACT,
) -> EliminationResult:
    """Everyone below the refundability floor gains access when it is removed."""
    deltas = {}
    gaining = 0
    for group in GROUPS:
        est = eligibility(pop, year, group, params, scenario, mode=mode)
        deltas[group] = est.proportion(ReliefCategory.INELIGIBLE_LOW)
        gaining += est.counts[ReliefCategory.INELIGIBLE_LOW]
    return EliminationResult(deltas=deltas, gaining_households=gaining)
