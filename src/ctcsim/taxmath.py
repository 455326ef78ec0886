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
`_Kernel`'s, and two functions reach it: :func:`thresholds` for every
category boundary of a household, and :func:`invert_benefit` for one
benefit target.

The walk runs on integers, scaled once per household: money (the tax-free
amount, refund floor, benefit maxima, bracket uppers, targets) over D, the
lcm of its denominators, and rates over Q, so each running total is an
integer over D·Q. An income found is an integer pair (numerator, positive
denominator), ordered against others by cross-multiplying: exact, as Fractions
are, but with no gcd per step. Each answer is built as one Fraction.

Two liability modes are supported: ``EXACT`` applies the bracket schedule
analytically; ``TABLE`` evaluates liability at the midpoint of the
enclosing $50-wide taxable-income row, mimicking lookup-table filing. There
the liability term rounds the exact walk up to its first row with one integer
ceiling division. The phase-in term splits the rows into pieces: rows whose
midpoints share a bracket band and which end on one side of the refund floor.
Within a piece, "this row holds a solution" is a linear inequality in the row
index, so one ceiling division per piece finds the first row, in
O(number of brackets) integer steps.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import lcm

from .errors import OrderingViolation, Unreachable, ValidationError
from .memo import once
from .money import as_money
from .params import FilingParams, ParentalGroup, ProgramParameters
from .record import Record

TABLE_ROW_WIDTH = Fraction(50)


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
        income = (self._table_phase_in(t) if self.mode is LiabilityMode.TABLE
                  else self._first_income(t, self.rate))
        gap = t - self.refundable
        try:
            tax = self.liability(gap) if gap > 0 else income
        except ValidationError:
            raise Unreachable(f"benefit target {Fraction(t, self.d)} is never reached") from None
        return income if income[0] * tax[1] >= tax[0] * income[1] else tax

    def liability(self, t: int) -> tuple[int, int]:
        """Minimal income whose tax liability reaches the target t/D > 0.

        Raises ValidationError if the schedule tops out below it (possible only
        when the last rate is zero).
        """
        found = self._first_income(t, 0)
        if found is None:
            raise ValidationError(f"tax target {Fraction(t, self.d)} unreachable under schedule")
        if self.mode is LiabilityMode.TABLE:  # the first $50 row whose midpoint clears it
            (income, den), d, width = found, self.d, int(TABLE_ROW_WIDTH) * self.d
            row = -(((self.free + width // 2) * den - income * d) // (width * den))
            return self.free + row * width, d
        return found

    def _first_income(self, t: int, ramp: int) -> tuple[int, int] | None:
        """Minimal income where exact liability plus `ramp` (over Q) per dollar above
        the refund floor reaches t/D > 0, as its integer numerator and denominator
        (D·slope), or None if the total tops out below it.
        Segments are the bands split at the refund floor; the running total is over D·Q."""
        floor, target = self.floor, t * self.q
        lo = total = 0
        for hi, rate in self.bands:
            for end in (floor, hi) if lo < floor and (hi is None or floor < hi) else (hi,):
                slope = rate + ramp if lo >= floor else rate
                if slope and (end is None or total + slope * (end - lo) >= target):
                    return lo * slope + target - total, self.d * slope
                if end is not None:
                    total, lo = total + slope * (end - lo), end
        return None

    def _table_phase_in(self, t: int) -> tuple[int, int]:
        """Minimal income where table liability plus the uncapped phase-in reaches
        t/D: the first $50 row holding a solution, then the solve within it.

        Row k >= 0 spans [free + kW, free + (k + 1)W), W the row width, and owes the
        liability at its midpoint; row -1 is every income below `free` and owes none.
        A row ending at or below the floor holds a solution iff its liability reaches
        the target; one ending above it, iff its liability plus the phase-in at its end
        exceeds the target. Over the rows whose midpoints share a band and which end on
        one side of the floor, that test is linear in k, so one ceiling division finds
        the first such row holding a solution. The pieces are walked in income order.
        Incomes in the solve are integers over D·rate (the refund rate over Q)."""
        d, target, floor, rate, free = self.d, t * self.q, self.floor, self.rate, self.free
        width = int(TABLE_ROW_WIDTH) * d
        half = width // 2

        def solve(start: int, end: int, liability: int) -> tuple[int, int] | None:
            """Minimal income in [start, end) over D reaching the target, or None."""
            need = target - liability
            y = start * rate if need <= 0 else max(start * rate, floor * rate + need)
            return (y, d * rate) if y < end * rate else None

        income = solve(0, free, 0)
        if income is not None:
            return income
        split = (floor - free) // width  # the first row ending above the floor
        total, lo, first = 0, free, 0  # liability at lo over D·Q; the first row past lo
        for hi, band_rate in self.bands[1:]:
            last = None if hi is None else (hi - free - half) // width  # midpoint <= hi
            base = total + band_rate * (free + half - lo)  # row k owes base + band_rate·W·k
            # Each piece: its rows k0..k1 (None: unbounded) hold a solution iff a·k >= b.
            for k0, k1, a, b in (
                    (first, split - 1 if last is None else min(last, split - 1),
                     band_rate * width, target - base),
                    (max(first, split), last, (band_rate + rate) * width,
                     target + 1 - base - rate * (free + width - floor))):
                k = k0 if a * k0 >= b else -(-b // a) if a else None
                if k is not None and (k1 is None or k <= k1):
                    return solve(free + k * width, free + (k + 1) * width,
                                 base + band_rate * width * k)
            total, lo, first = total + band_rate * (hi - lo), hi, last + 1
        raise AssertionError("unreachable: the last band's second piece is unbounded")


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
    target = as_money(target)
    if target.numerator <= 0:
        raise Unreachable(f"benefit target {target} must be positive")
    kernel = _Kernel(profile, params, mode, target)
    if (t := _over(target, kernel.d)) > kernel.credit:
        raise Unreachable(f"benefit target {target} exceeds the maximum "
                          f"{max_credit(profile, params)}")
    y, den = kernel.refund_credit(t)
    start = _filing(profile, params).phaseout_start
    if y * start.denominator > start.numerator * den:
        # Past the phaseout start the attainable total only shrinks.
        raise Unreachable(f"benefit target {target} is eroded by the phaseout before it accrues")
    return Fraction(y, den)


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
