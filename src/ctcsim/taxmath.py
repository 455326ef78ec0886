"""Tax liability, realizable credit/refund benefits, and threshold inversion.

The benefit at income Y decomposes into a nonrefundable credit limited by
tax liability and a refund that phases in above the refundability floor,
with the combined total capped by the (possibly phased-out) per-child
maximum. Every function here is a pure function of exact rational inputs;
inversions are closed-form over the piecewise-linear segments, so results
are exact to the cent. In table mode they first bisect on the $50 row
index: row liability never falls as the index grows, so the income the
refund still needs never rises while the row's top edge does, and "this
row holds a solution" is false, then true.

Two liability modes are supported: ``EXACT`` applies the bracket schedule
analytically; ``TABLE`` evaluates liability at the midpoint of the
enclosing $50-wide taxable-income row, mimicking lookup-table filing.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import OrderingViolation, Unreachable, ValidationError
from .memo import once
from .money import as_money
from .params import FilingParams, ParentalGroup, ProgramParameters

TABLE_ROW_WIDTH = Fraction(50)


class LiabilityMode(Enum):
    EXACT = "exact"
    TABLE = "table"


@dataclass(frozen=True)
class HouseholdProfile:
    """A filing household: parental group plus (possibly fractional) children.

    Fractional children arise when group-year averages stand in for actual
    counts; they flow through exemption totals and per-child maxima
    unrounded, which keeps group-level benchmark tables reproducible.
    """

    group: ParentalGroup
    children: Fraction

    def __post_init__(self):
        object.__setattr__(self, "children", as_money(self.children))
        if self.children < 0:
            raise ValueError("children must be nonnegative")

    @classmethod
    def one_child(cls, group: ParentalGroup) -> "HouseholdProfile":
        return cls(group, Fraction(1))

    @property
    def adults(self) -> int:
        return self.group.adults

    @property
    def persons_for_exemptions(self) -> Fraction:
        return self.adults + self.children


@dataclass(frozen=True)
class BenefitSplit:
    credit: Fraction
    refund: Fraction

    @property
    def total(self) -> Fraction:
        return self.credit + self.refund


@dataclass(frozen=True)
class ThresholdSet:
    """Category-boundary incomes for one (params, household) pair.

    Categories a-f partition income by: below `t_refund_floor` (a), then
    partial refund (b), full refundable benefit (c) from `t_full_actc`,
    full credit (d) from `t_full_ctc`, phased-down benefit (e) above
    `t_phaseout_start`, nothing (f) from `t_total_phaseout`.
    `t_full_combined` is the income at which the full envisioned benefit is
    reachable via credit and refund together.
    """

    t_refund_floor: Fraction
    t_full_actc: Fraction
    t_full_ctc: Fraction
    t_phaseout_start: Fraction
    t_total_phaseout: Fraction
    t_full_combined: Fraction

    def boundaries(self) -> tuple[tuple[Fraction, bool], ...]:
        """The five category boundaries as (income, strictly_above) pairs.

        `strictly_above` marks boundaries where an income exactly equal to
        the boundary still belongs to the lower category: the refund floor
        (no refund accrues at the floor itself) and the phaseout start (the
        full benefit survives at exactly the start).
        """
        return (
            (self.t_refund_floor, True),
            (self.t_full_actc, False),
            (self.t_full_ctc, False),
            (self.t_phaseout_start, True),
            (self.t_total_phaseout, False),
        )


def _filing(profile: HouseholdProfile, params: ProgramParameters) -> FilingParams:
    return params.for_status(profile.group.filing_status)


def tax_free_amount(profile: HouseholdProfile, params: ProgramParameters) -> Fraction:
    """Standard deduction plus per-person exemptions for the household."""
    fp = _filing(profile, params)
    return fp.standard_deduction + fp.exemption_per_person * profile.persons_for_exemptions


def _table_tax(taxable: Fraction, fp: FilingParams) -> Fraction:
    if taxable <= 0:
        return Fraction(0)
    row = (taxable // TABLE_ROW_WIDTH) * TABLE_ROW_WIDTH
    return fp.brackets.tax(row + TABLE_ROW_WIDTH / 2)


def tax_liability(
    income,
    profile: HouseholdProfile,
    params: ProgramParameters,
    mode: LiabilityMode = LiabilityMode.EXACT,
) -> Fraction:
    """Bracket tax on income net of the tax-free amount; nondecreasing in income."""
    income = as_money(income)
    if income < 0:
        raise ValueError("income must be nonnegative")
    taxable = income - tax_free_amount(profile, params)
    fp = _filing(profile, params)
    if mode is LiabilityMode.TABLE:
        return _table_tax(taxable, fp)
    return fp.brackets.tax(taxable)


def max_credit(profile: HouseholdProfile, params: ProgramParameters) -> Fraction:
    return params.ctc_per_child * profile.children


def max_refund(profile: HouseholdProfile, params: ProgramParameters) -> Fraction:
    return params.actc_per_child * profile.children


def benefit_at_income(
    income,
    profile: HouseholdProfile,
    params: ProgramParameters,
    mode: LiabilityMode = LiabilityMode.EXACT,
) -> BenefitSplit:
    """Realizable benefit at `income`, split into credit and refund."""
    income = as_money(income)
    fp = _filing(profile, params)
    allowed = max_credit(profile, params) - params.phaseout_rate * max(
        Fraction(0), income - fp.phaseout_start
    )
    allowed = max(Fraction(0), allowed)
    liability = tax_liability(income, profile, params, mode)
    credit = min(liability, allowed)
    phase_in = params.refund_rate * max(Fraction(0), income - params.refund_threshold)
    refund = min(phase_in, max_refund(profile, params), allowed - credit)
    refund = max(Fraction(0), refund)
    return BenefitSplit(credit=credit, refund=refund)


def _pre_phaseout_total(income: Fraction, profile, params, mode) -> Fraction:
    """Credit + refund ignoring the high-income phaseout cap."""
    phase_in = params.refund_rate * max(Fraction(0), income - params.refund_threshold)
    return tax_liability(income, profile, params, mode) + min(phase_in, max_refund(profile, params))


def refund_credit_threshold(
    target,
    profile: HouseholdProfile,
    params: ProgramParameters,
    mode: LiabilityMode = LiabilityMode.EXACT,
) -> Fraction:
    """Minimal income at which refund plus credit reaches `target`.

    The refund component is capped at the household refundable maximum but
    the total is not otherwise capped, so this also answers "what income
    realizes the full refundable benefit" when the refundable maximum
    exceeds the credit maximum (a configuration some counterfactuals visit).

    In table mode a result equal to the tax-free amount may be an infimum:
    liability is 0 there but ``tax($25)`` a cent above, where the target is met.
    """
    target = as_money(target)
    if target <= 0:
        raise Unreachable("threshold target must be positive")
    if mode is LiabilityMode.TABLE:
        return _table_threshold(target, profile, params)

    fp = _filing(profile, params)
    free = tax_free_amount(profile, params)
    points = {Fraction(0), params.refund_threshold, free}
    if params.refund_rate > 0:
        points.add(params.refund_threshold + max_refund(profile, params) / params.refund_rate)
    for b in fp.brackets.brackets:
        if b.upper is not None:
            points.add(free + b.upper)
    breaks = sorted(p for p in points if p >= 0)

    def g(y: Fraction) -> Fraction:
        return _pre_phaseout_total(y, profile, params, LiabilityMode.EXACT)

    prev, g_prev = breaks[0], g(breaks[0])
    if g_prev >= target:
        return prev
    for point in breaks[1:]:
        g_point = g(point)
        if g_point >= target:
            slope = (g_point - g_prev) / (point - prev)
            return prev + (target - g_prev) / slope
        prev, g_prev = point, g_point
    tail_slope = g(prev + 1) - g_prev
    if tail_slope <= 0:
        raise Unreachable(f"benefit target {target} is never reached")
    return prev + (target - g_prev) / tail_slope


def _table_threshold(target: Fraction, profile, params) -> Fraction:
    """Bisect for the first $50 row holding a solution, then solve within it."""
    free, refundable = tax_free_amount(profile, params), max_refund(profile, params)
    tax = _filing(profile, params).brackets.tax
    rate, floor = params.refund_rate, params.refund_threshold

    def min_income_in(k: int):
        """Minimal income in row k reaching the target, or None; row -1 is all below `free`."""
        lo = free + k * TABLE_ROW_WIDTH if k >= 0 else Fraction(0)
        need = target - tax((k + Fraction(1, 2)) * TABLE_ROW_WIDTH)
        if need <= 0:
            return lo
        if need > refundable or rate == 0:
            return None
        y = max(lo, floor + need / rate)
        return y if y < free + (k + 1) * TABLE_ROW_WIDTH else None

    # Incomes whose rows surely hold a solution: by refund alone, or by liability alone.
    bounds = [floor + target / rate] if rate and target <= refundable else []
    with suppress(ValidationError):  # an all-zero-rate schedule never reaches the target
        bounds.append(liability_threshold(target, profile, params, LiabilityMode.TABLE))
    if not bounds:
        raise Unreachable(f"benefit target {target} is never reached (table mode)")
    lo, hi = -1, max(-1, (min(bounds) - free) // TABLE_ROW_WIDTH)
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if min_income_in(mid) is not None else (mid + 1, hi)
    return min_income_in(lo)


def liability_threshold(
    target,
    profile: HouseholdProfile,
    params: ProgramParameters,
    mode: LiabilityMode = LiabilityMode.EXACT,
) -> Fraction:
    """Minimal income whose tax liability reaches `target`."""
    target = as_money(target)
    free = tax_free_amount(profile, params)
    fp = _filing(profile, params)
    taxable = fp.brackets.taxable_for(target)
    if mode is LiabilityMode.TABLE and target > 0:
        # First $50 row whose midpoint liability clears the target.
        half = TABLE_ROW_WIDTH / 2
        row = -((-(taxable - half)) // TABLE_ROW_WIDTH) * TABLE_ROW_WIDTH
        return free + row
    return free + taxable


def invert_benefit(
    target,
    profile: HouseholdProfile,
    params: ProgramParameters,
    mode: LiabilityMode = LiabilityMode.EXACT,
) -> Fraction:
    """Minimal income Y with ``benefit_at_income(Y).total >= target``.

    Raises Unreachable when `target` exceeds the global maximum benefit
    (the phased-out ceiling makes targets above the per-household maximum,
    or reachable only past the phaseout start, unattainable).
    """
    target = as_money(target)
    ceiling = max_credit(profile, params)
    if target <= 0 or target > ceiling:
        raise Unreachable(f"benefit target {target} exceeds the maximum {ceiling}")
    y = refund_credit_threshold(target, profile, params, mode)
    fp = _filing(profile, params)
    if y > fp.phaseout_start:
        # Past the phaseout start the attainable total only shrinks.
        raise Unreachable(f"benefit target {target} is eroded by the phaseout before it accrues")
    return y


def total_phaseout_income(profile: HouseholdProfile, params: ProgramParameters) -> Fraction:
    """Income at which the phaseout extinguishes the full benefit."""
    fp = _filing(profile, params)
    return fp.phaseout_start + max_credit(profile, params) / params.phaseout_rate


def thresholds(
    profile: HouseholdProfile,
    params: ProgramParameters,
    mode: LiabilityMode = LiabilityMode.EXACT,
) -> ThresholdSet:
    """All category-boundary incomes for one household under one rule set.

    Inside a command scope each distinct (profile, params, mode) is
    inverted once (see :mod:`ctcsim.memo`).
    """
    return once(_thresholds, profile, params, mode)


def _thresholds(
    profile: HouseholdProfile, params: ProgramParameters, mode: LiabilityMode
) -> ThresholdSet:
    fp = _filing(profile, params)
    ts = ThresholdSet(
        t_refund_floor=params.refund_threshold,
        t_full_actc=refund_credit_threshold(max_refund(profile, params), profile, params, mode),
        t_full_ctc=liability_threshold(max_credit(profile, params), profile, params, mode),
        t_phaseout_start=fp.phaseout_start,
        t_total_phaseout=total_phaseout_income(profile, params),
        t_full_combined=refund_credit_threshold(max_credit(profile, params), profile, params, mode),
    )
    ordered = (
        ts.t_refund_floor <= ts.t_full_actc <= ts.t_full_ctc <= ts.t_phaseout_start
        and ts.t_full_combined <= ts.t_full_ctc
        and ts.t_phaseout_start < ts.t_total_phaseout
    )
    if not ordered:
        raise OrderingViolation(f"thresholds are not monotone for year {params.year}: {ts}")
    return ts
