"""Tax liability, realizable credit/refund benefits, and threshold inversion.

The benefit at income Y decomposes into a nonrefundable credit limited by
tax liability L and a refund that phases in above the refundability floor,
capped at the refundable maximum R, with the combined total capped by the
(possibly phased-out) per-child maximum. Every function here is a pure
function of exact rational inputs, so results are exact to the cent.

Inversion rests on one identity: L + min(phase-in, R) reaches a target t
exactly where L + phase-in reaches t and L alone reaches t - R. Both sums
never fall as income grows, so the threshold is the larger of their two
minimal incomes, and one walk over the linear segments in income space
finds each (with the refund rate as ramp, then with ramp 0).

The walk runs on integers: money (the tax-free amount, refund floor, bracket
uppers, target) over D, the lcm of its denominators, and rates over Q, the
lcm of theirs, so each running total is an integer over D·Q. Integers over a
fixed denominator add, multiply and compare exactly, as Fractions do but
without a gcd per step; each answer is then built as one Fraction.

Two liability modes are supported: ``EXACT`` applies the bracket schedule
analytically; ``TABLE`` evaluates liability at the midpoint of the
enclosing $50-wide taxable-income row, mimicking lookup-table filing. There
the liability term rounds the exact walk up to its first row, and the
phase-in term bisects on the row index: row liability never falls, so
"this row holds a solution" is false, then true.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm

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
    ded, ex, kids = fp.standard_deduction, fp.exemption_per_person, profile.children
    # ded + ex * (adults + kids), one Fraction over the product of the denominators
    persons = profile.adults * kids.denominator + kids.numerator  # over kids.denominator
    return Fraction(ded.numerator * ex.denominator * kids.denominator
                    + ex.numerator * persons * ded.denominator,
                    ded.denominator * ex.denominator * kids.denominator)


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
    if mode is LiabilityMode.TABLE and taxable > 0:
        taxable = (taxable // TABLE_ROW_WIDTH) * TABLE_ROW_WIDTH + TABLE_ROW_WIDTH / 2
    return _filing(profile, params).brackets.tax(taxable)


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


def _over(x: Fraction, den: int) -> int:
    """The numerator of `x` over `den`, a multiple of its denominator."""
    return x.numerator * (den // x.denominator)


def _scaled(target: Fraction, profile, params, ramp: Fraction):
    """``(D, target over D·Q, floor over D, ramp over Q, bands)``, where the
    bands are (upper income over D or None, rate over Q), the tax-free band first.
    """
    free = tax_free_amount(profile, params)
    floor = params.refund_threshold
    brackets = _filing(profile, params).brackets.brackets
    d = lcm(free.denominator, floor.denominator, target.denominator,
            *(b.upper.denominator for b in brackets if b.upper is not None))
    q = lcm(ramp.denominator, *(b.rate.denominator for b in brackets))
    free = _over(free, d)
    bands = [(free, 0)] + [
        (None if b.upper is None else free + _over(b.upper, d), _over(b.rate, q)) for b in brackets
    ]
    return d, _over(target, d) * q, _over(floor, d), _over(ramp, q), bands


def _first_income(target: Fraction, profile, params, ramp: Fraction) -> Fraction | None:
    """Minimal income where exact liability plus `ramp` per dollar above the
    refund floor reaches `target` > 0, or None if the total tops out below it.

    Segments: the tax-free band, then the brackets shifted by the tax-free
    amount, each split at the refund floor, with a running total over D·Q.
    """
    d, target, floor, ramp, bands = _scaled(target, profile, params, ramp)
    lo = total = 0
    for hi, rate in bands:
        for end in (floor, hi) if lo < floor and (hi is None or floor < hi) else (hi,):
            slope = rate + ramp if lo >= floor else rate
            if slope and (end is None or total + slope * (end - lo) >= target):
                return Fraction(lo * slope + target - total, d * slope)
            if end is not None:
                total, lo = total + slope * (end - lo), end
    return None


def _table_phase_in_threshold(target: Fraction, profile, params) -> Fraction:
    """Minimal income where table liability plus the uncapped phase-in reaches
    `target`: the first $50 row holding a solution, then the solve within it.
    Incomes in the search are integers over D·rate (the refund rate over Q)."""
    d, target, floor, rate, bands = _scaled(target, profile, params, params.refund_rate)
    free, width = bands[0][0], int(TABLE_ROW_WIDTH) * d

    def liability(income: int) -> int:
        """Exact liability at `income` over D, as an integer over D·Q."""
        total = lo = 0
        for hi, band_rate in bands:
            if hi is None or income <= hi:
                return total + band_rate * (income - lo)
            total, lo = total + band_rate * (hi - lo), hi

    def min_income_in(k: int):
        """Minimal income in row k reaching the target, or None; row -1 is all below `free`."""
        lo = (free + k * width if k >= 0 else 0) * rate
        need = target - liability(free + (2 * k + 1) * width // 2)
        y = lo if need <= 0 else max(lo, floor * rate + need)
        return y if y < (free + (k + 1) * width) * rate else None

    # The row where the phase-in alone reaches the target holds a solution.
    lo, hi = -1, max(-1, ((floor - free) * rate + target) // (width * rate))
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if min_income_in(mid) is not None else (mid + 1, hi)
    return Fraction(min_income_in(lo), d * rate)


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
        income = _table_phase_in_threshold(target, profile, params)
    else:
        income = _first_income(target, profile, params, params.refund_rate)
    gap = target - max_refund(profile, params)
    try:
        return max(income, liability_threshold(gap, profile, params, mode)) if gap > 0 else income
    except ValidationError:
        raise Unreachable(f"benefit target {target} is never reached") from None


def liability_threshold(
    target,
    profile: HouseholdProfile,
    params: ProgramParameters,
    mode: LiabilityMode = LiabilityMode.EXACT,
) -> Fraction:
    """Minimal income whose tax liability reaches `target`.

    Raises ValidationError if the schedule tops out below `target`
    (possible only when the last rate is zero).
    """
    target = as_money(target)
    if target <= 0:
        return tax_free_amount(profile, params)
    income = _first_income(target, profile, params, Fraction(0))
    if income is None:
        raise ValidationError(f"tax target {target} unreachable under schedule")
    if mode is LiabilityMode.TABLE:
        # First $50 row whose midpoint liability clears the target.
        free = tax_free_amount(profile, params)
        row = -((free + TABLE_ROW_WIDTH / 2 - income) // TABLE_ROW_WIDTH)
        return free + row * TABLE_ROW_WIDTH
    return income


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
    if y > _filing(profile, params).phaseout_start:
        # Past the phaseout start the attainable total only shrinks.
        raise Unreachable(f"benefit target {target} is eroded by the phaseout before it accrues")
    return y


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
        t_total_phaseout=fp.phaseout_start + max_credit(profile, params) / params.phaseout_rate,
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
