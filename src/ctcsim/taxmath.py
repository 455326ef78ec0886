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
finds each (with the refund rate as ramp, then with ramp 0). That walk is
`_Kernel`'s: :func:`thresholds` reaches it for every category boundary of a
household, and `_benefit_income` for one benefit target, :func:`invert_benefit`'s
or the credit maximum of a full-relief cut in :mod:`ctcsim.counterfactual`.

The walk runs on integers, scaled once per household: money (the tax-free
amount, refund floor, benefit maxima, bracket uppers, targets) over D, the
lcm of its denominators, and rates over Q, so each running total is an
integer over D·Q. An income found is an integer pair (numerator, positive
denominator), ordered against others by cross-multiplying: exact, as Fractions
are, but with no gcd per step. A public answer is built as one Fraction.

Two liability modes are supported: ``EXACT`` applies the bracket schedule
analytically; ``TABLE`` evaluates liability at the midpoint of the
enclosing $50-wide taxable-income row, mimicking lookup-table filing. Both
terms invert there by the same walk with the refund floor moved down half a
row: at a row's midpoint its total is the row's liability plus the ramp at
the row's end, so the row holds a solution exactly when that total reaches
the target. One integer ceiling division finds the first row whose midpoint
is at or past the walk's income, and a linear solve the income inside it,
in O(number of brackets) integer steps.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import OrderingViolation, Unreachable, ValidationError
from .memo import once
from .money import as_money
from .params import FilingParams, ParentalGroup, ProgramParameters
from .record import Enum, Record

TABLE_ROW_WIDTH = Fraction(50)
_ROW = int(TABLE_ROW_WIDTH)  # the row width as the kernel's integer, in dollars


class LiabilityMode(Enum):
    EXACT = "exact"
    TABLE = "table"


class HouseholdProfile(Record):
    """A filing household: parental group plus (possibly fractional) children.

    Fractional children arise when group-year averages stand in for actual
    counts; they flow through exemption totals and per-child maxima
    unrounded, which keeps group-level benchmark tables reproducible.
    """

    group: ParentalGroup
    children: Fraction

    def __post_init__(self):
        object.__setattr__(self, "children", as_money(self.children))
        if self.children.numerator < 0:
            raise ValidationError("children must be nonnegative")

    @classmethod
    def one_child(cls, group: ParentalGroup) -> "HouseholdProfile":
        return cls(group, Fraction(1))


class BenefitSplit(Record):
    credit: Fraction
    refund: Fraction

    @property
    def total(self) -> Fraction:
        return self.credit + self.refund


class ThresholdSet(Record):
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


def _tax_free(profile: HouseholdProfile, params: ProgramParameters) -> tuple[int, int]:
    """The tax-free amount as (numerator, positive denominator), not reduced."""
    fp = _filing(profile, params)
    ded, ex, kids = fp.standard_deduction, fp.exemption_per_person, profile.children
    # ded + ex * (adults + kids), over the product of the denominators
    persons = profile.group.adults * kids.denominator + kids.numerator  # over kids.denominator
    den = ex.denominator * kids.denominator
    return ded.numerator * den + ex.numerator * persons * ded.denominator, ded.denominator * den


def tax_free_amount(profile: HouseholdProfile, params: ProgramParameters) -> Fraction:
    """Standard deduction plus per-person exemptions for the household."""
    return Fraction(*_tax_free(profile, params))


def tax_liability(
    income,
    profile: HouseholdProfile,
    params: ProgramParameters,
    mode: LiabilityMode = LiabilityMode.EXACT,
) -> Fraction:
    """Bracket tax on income net of the tax-free amount; nondecreasing in income."""
    income = as_money(income)
    if income < 0:
        raise ValidationError("income must be nonnegative")
    taxable = income - tax_free_amount(profile, params)
    if mode is LiabilityMode.TABLE and taxable > 0:
        taxable = (taxable // TABLE_ROW_WIDTH) * TABLE_ROW_WIDTH + TABLE_ROW_WIDTH / 2
    return _filing(profile, params).brackets.tax(taxable)


def _per_child(amount: Fraction, profile: HouseholdProfile) -> tuple[int, int]:
    """`amount` per child times the household's children, as (numerator, denominator)."""
    kids = profile.children
    return amount.numerator * kids.numerator, amount.denominator * kids.denominator


def max_credit(profile: HouseholdProfile, params: ProgramParameters) -> Fraction:
    return Fraction(*_per_child(params.ctc_per_child, profile))


def max_refund(profile: HouseholdProfile, params: ProgramParameters) -> Fraction:
    return Fraction(*_per_child(params.actc_per_child, profile))


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


class _Kernel:
    """One household's rules on integers, scaled once for all its inversions.

    D covers the money here and the `targets` named when it is built, and only those; the
    bands are (upper income over D or None, rate over Q). Both inversions take a target over
    D and return an income as (numerator, positive denominator), for the caller to compare.
    Both run `_income`, the one step that reads the liability mode.
    """

    __slots__ = ("mode", "d", "q", "free", "refundable", "credit", "floor", "rate", "bands")

    def __init__(self, profile: HouseholdProfile, params: ProgramParameters,
                 mode: LiabilityMode, *targets: Fraction):
        (free, free_d), (refundable, refundable_d), (credit, credit_d) = (
            _tax_free(profile, params), _per_child(params.actc_per_child, profile),
            _per_child(params.ctc_per_child, profile))
        floor, brackets = params.refund_threshold, _filing(profile, params).brackets.brackets
        d = lcm(free_d, refundable_d, credit_d, *(x.denominator for x in (floor, *targets)),
                *(b.upper.denominator for b in brackets if b.upper is not None))
        q = lcm(params.refund_rate.denominator, *(b.rate.denominator for b in brackets))
        self.mode, self.d, self.q, self.rate = mode, d, q, _over(params.refund_rate, q)
        self.refundable, self.credit = refundable * (d // refundable_d), credit * (d // credit_d)
        self.free, self.floor = free, floor = free * (d // free_d), _over(floor, d)
        self.bands = [(free, 0)] + [(None if b.upper is None else free + _over(b.upper, d),
                                     _over(b.rate, q)) for b in brackets]

    def refund_credit(self, t: int) -> tuple[int, int]:
        """Minimal income at which refund plus credit reaches the target t/D.

        The refund is capped at the refundable maximum but the total is not
        otherwise capped, so a refundable maximum above the credit maximum (a
        configuration some counterfactuals visit) is allowed. In table mode a
        result equal to the tax-free amount may be an infimum: liability is 0
        there but ``tax($25)`` a cent above, where the target is met.
        """
        if t <= 0:
            raise Unreachable("threshold target must be positive")
        income, gap = self._income(t, self.rate), t - self.refundable
        tax = self._income(gap, 0) if gap > 0 else income
        if tax is None:
            raise Unreachable(f"benefit target {Fraction(t, self.d)} is never reached")
        return income if income[0] * tax[1] >= tax[0] * income[1] else tax

    def liability(self, t: int) -> tuple[int, int]:
        """Minimal income whose tax liability reaches the target t/D > 0.

        Raises ValidationError if the schedule tops out below it (possible only
        when the last rate is zero).
        """
        found = self._income(t, 0)
        if found is None:
            raise ValidationError(f"tax target {Fraction(t, self.d)} unreachable under schedule")
        return found

    def _income(self, t: int, ramp: int) -> tuple[int, int] | None:
        """Minimal income where liability plus `ramp` (over Q) per dollar above the refund
        floor reaches t/D > 0, or None if the total tops out below it (only when ramp is 0).

        The walk runs over the bands split at the floor, from the floor if it is below
        zero; the running total is over D·Q, and an income found is its integer numerator
        over D·slope. In table mode it walks exact liability with the floor moved down half
        a row, and `_row_solve` takes the answer from the income that walk finds."""
        table, floor = self.mode is LiabilityMode.TABLE, self.floor
        if table:
            floor -= _ROW * self.d // 2
        target, lo, total = t * self.q, floor if floor < 0 else 0, 0
        for hi, rate in self.bands:
            for end in (floor, hi) if lo < floor and (hi is None or floor < hi) else (hi,):
                slope = rate + ramp if lo >= floor else rate
                if slope and (end is None or total + slope * (end - lo) >= target):
                    found = lo * slope + target - total, self.d * slope
                    return self._row_solve(t, ramp, *found) if table else found
                if end is not None:
                    total, lo = total + slope * (end - lo), end
        return None

    def _row_solve(self, t: int, ramp: int, income: int, den: int) -> tuple[int, int]:
        """Table mode's answer, from income/den found under the floor moved down W/2.

        Row k spans [free + kW, free + (k + 1)W), W the row width, and owes the exact
        liability at its midpoint m_k; rows below free owe none. At m_k, exact liability plus
        the ramp above the moved floor is the row's liability plus the ramp at the row's end,
        so row k holds a solution exactly when that sum reaches t. The sum never falls: the
        first such row is the first whose midpoint is at or past income/den, and the answer
        is the solve within it, over D or over D·ramp. A tie at the row's end solves to that
        end, the next row's start, where the total has reached t too."""
        d, width = self.d, _ROW * self.d
        half = width // 2
        start = self.free - (((self.free + half) * den - income * d) // (width * den)) * width
        need = t * self.q - self._tax(start + half)
        if need <= 0:
            return start, d
        return max(start * ramp, self.floor * ramp + need), d * ramp

    def _tax(self, y: int) -> int:
        """Exact liability at income y over D, over D·Q."""
        lo = total = 0
        for hi, rate in self.bands:
            if hi is None or y <= hi:
                return total + rate * (y - lo)
            total, lo = total + rate * (hi - lo), hi


def invert_benefit(
    target,
    profile: HouseholdProfile,
    params: ProgramParameters,
    mode: LiabilityMode = LiabilityMode.EXACT,
) -> Fraction:
    """Minimal income Y with ``benefit_at_income(Y).total >= target``.

    Raises Unreachable when `target` is not positive or exceeds the global maximum benefit
    (the phased-out ceiling makes targets above the per-household maximum,
    or reachable only past the phaseout start, unattainable).
    """
    return Fraction(*_benefit_income(profile, params, mode, as_money(target)))


def _benefit_income(profile: HouseholdProfile, params: ProgramParameters, mode: LiabilityMode,
                    target: Fraction | None = None) -> tuple[int, int]:
    """:func:`invert_benefit`'s answer as (numerator, positive denominator). A `target`
    of None is the credit maximum, read as the kernel's own integer."""
    kernel = _Kernel(profile, params, mode, *(() if target is None else (target,)))
    t = kernel.credit if target is None else _over(target, kernel.d)
    if t <= 0:
        raise Unreachable(f"benefit target {Fraction(t, kernel.d)} must be positive")
    if t > kernel.credit:
        raise Unreachable(f"benefit target {Fraction(t, kernel.d)} exceeds the maximum "
                          f"{Fraction(kernel.credit, kernel.d)}")
    y, den = kernel.refund_credit(t)
    start = _filing(profile, params).phaseout_start
    if y * start.denominator > start.numerator * den:
        # Past the phaseout start the attainable total only shrinks.
        raise Unreachable(f"benefit target {Fraction(t, kernel.d)} is eroded by the phaseout "
                          "before it accrues")
    return y, den


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


def _thresholds(profile: HouseholdProfile, params: ProgramParameters,
                mode: LiabilityMode) -> ThresholdSet:
    kernel = _Kernel(profile, params, mode)
    d, credit, floor, rate = kernel.d, kernel.credit, params.refund_threshold, params.phaseout_rate
    start = _filing(profile, params).phaseout_start
    actc, actc_d = kernel.refund_credit(kernel.refundable)
    (ctc, ctc_d), (comb, comb_d) = kernel.liability(credit), kernel.refund_credit(credit)
    # start + credit / rate, over start's denominator · D · the rate's numerator
    total_d = start.denominator * d * rate.numerator
    total = start.numerator * d * rate.numerator + credit * rate.denominator * start.denominator
    ts = ThresholdSet(floor, Fraction(actc, actc_d), Fraction(ctc, ctc_d), start,
                      Fraction(total, total_d), Fraction(comb, comb_d))
    if not (floor.numerator * actc_d <= actc * floor.denominator and actc * ctc_d <= ctc * actc_d
            and ctc * start.denominator <= start.numerator * ctc_d and comb * ctc_d <= ctc * comb_d
            and start.numerator * total_d < total * start.denominator):
        raise OrderingViolation(f"thresholds are not monotone for year {params.year}: {ts}")
    return ts
