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
`_Kernel`'s: `_thresholds` reaches it for every category boundary of a
household, and `_benefit_income` for one benefit target, :func:`invert_benefit`'s
or the credit maximum of a full-relief cut in :mod:`ctcsim.counterfactual`.
The forward evaluation, :func:`benefit_at_income`, builds the same kernel
with its income as a target and reads liability there through `_Kernel.owed`,
so forward and inverse share one scaling and one rule per liability mode.

The walk runs on integers, scaled once per household: money (the tax-free amount, refund
floor, benefit maxima, bracket uppers, phaseout start, targets) over D, the lcm of its
denominators, and the refund, bracket and phaseout rates over Q, so each running total is
an integer over D·Q. A kernel reads the rules once; the bracket schedule's own integers
(`BracketSchedule._scaled`) are only multiplied up to D and Q. An income found is an
integer pair (numerator, positive denominator), compared by cross-multiplying: exact, but
with no gcd per step. A public answer's Fractions are built last. `_thresholds` gives the
six boundary incomes as pairs, checked in order; a classified cell and a full-relief cut
cut pairs as they are, and only :func:`thresholds` builds a ThresholdSet.

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
from .params import ParentalGroup, ProgramParameters
from .record import Enum, Record

_ROW = 50  # the width of a tax-table row, in dollars of taxable income


class LiabilityMode(Enum):
    EXACT = "exact"
    TABLE = "table"


_TABLE = LiabilityMode.TABLE  # a module name reads faster than an Enum class attribute


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
        """The five category boundaries as (income, strictly_above) pairs."""
        return tuple(zip((self.t_refund_floor, self.t_full_actc, self.t_full_ctc,
                          self.t_phaseout_start, self.t_total_phaseout), STRICTLY_ABOVE))


# Per category boundary, whether an income equal to it is still below (see ctcsim.classifier).
STRICTLY_ABOVE = (True, False, False, True, False)


def benefit_at_income(
    income,
    profile: HouseholdProfile,
    params: ProgramParameters,
    mode: LiabilityMode = LiabilityMode.EXACT,
) -> BenefitSplit:
    """Realizable benefit at `income`, split into credit and refund.

    Read on a kernel built with `income` as a target: liability through `owed`, and the
    phase-in, both maxima and the phaseout allowance as its integers, each over D·Q.
    """
    income = as_money(income)
    if income < 0:
        raise ValidationError("income must be nonnegative")
    kernel = _Kernel(profile, params, mode, income)
    dq, y = kernel.d * kernel.q, _over(income, kernel.d)
    allowed = max(0, kernel.credit * kernel.q - kernel.phaseout * max(0, y - kernel.start))
    credit = min(kernel.owed(y), allowed)
    refund = min(kernel.rate * max(0, y - kernel.floor), kernel.refundable * kernel.q,
                 allowed - credit)
    return BenefitSplit(credit=Fraction(credit, dq), refund=Fraction(max(0, refund), dq))


def _over(x: Fraction, den: int) -> int:
    """The numerator of `x` over `den`, a multiple of its denominator."""
    return x.numerator * (den // x.denominator)


class _Kernel:
    """One household's rules on integers, scaled once for its inversions or one evaluation.

    D covers the money here, the phaseout `start` among it, and the `targets` named when it
    is built, and only those; Q covers the rates, the `phaseout` rate among them. The bands
    are (upper income over D or None, rate over Q), the schedule's own integers scaled by
    D // U and Q // R. Both inversions take a target over D and return an income as
    (numerator, positive denominator), for the caller to compare. Both run `_income`, and
    `owed` gives the liability at one income: only these two read the mode, as `table`.
    """

    __slots__ = ("table", "d", "q", "free", "refundable", "credit", "floor", "rate", "bands",
                 "start", "phaseout")

    def __init__(self, profile: HouseholdProfile, params: ProgramParameters,
                 mode: LiabilityMode, *targets: Fraction):
        group = profile.group
        rules = params.for_status(group.filing_status)
        upper_d, rate_d, scaled = rules.brackets._scaled
        # Each rule's integers from one call: `numerator` and `denominator` are a call each.
        (kids_n, kids_d), (actc_n, actc_d), (ctc_n, ctc_d), (floor_n, floor_d) = (
            profile.children.as_integer_ratio(), params.actc_per_child.as_integer_ratio(),
            params.ctc_per_child.as_integer_ratio(), params.refund_threshold.as_integer_ratio())
        (rr_n, rr_d), (po_n, po_d), (ded_n, ded_d), (ex_n, ex_d), (start_n, start_d) = (
            params.refund_rate.as_integer_ratio(), params.phaseout_rate.as_integer_ratio(),
            rules.standard_deduction.as_integer_ratio(),
            rules.exemption_per_person.as_integer_ratio(), rules.phaseout_start.as_integer_ratio())
        # The tax-free amount, ded + ex * (adults + kids), over the product of the denominators.
        free_d, refundable_d, credit_d = ded_d * ex_d * kids_d, actc_d * kids_d, ctc_d * kids_d
        free = ded_n * ex_d * kids_d + ded_d * ex_n * (group.adults * kids_d + kids_n)
        d = lcm(free_d, refundable_d, credit_d, upper_d, floor_d, start_d)
        if targets:  # none for a threshold set or a full-relief cut
            d = lcm(d, *(x.denominator for x in targets))
        q = lcm(rr_d, rate_d, po_d)
        self.table, self.d, self.q = mode is _TABLE, d, q
        self.rate, self.phaseout = rr_n * (q // rr_d), po_n * (q // po_d)
        self.floor, self.start = floor_n * (d // floor_d), start_n * (d // start_d)
        self.refundable = actc_n * kids_n * (d // refundable_d)
        self.credit = ctc_n * kids_n * (d // credit_d)
        self.free = free = free * (d // free_d)
        upper_k, rate_k = d // upper_d, q // rate_d
        self.bands = bands = [(free, 0)]
        for upper, rate in scaled:  # a loop: a comprehension's own frame costs more here
            bands.append((None if upper is None else free + upper * upper_k, rate * rate_k))

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
        table, floor = self.table, self.floor
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

    def owed(self, y: int) -> int:
        """Liability at income y over D, over D·Q. In table mode it is the exact liability
        at the midpoint of y's row, and none at or below the tax-free amount."""
        if self.table:
            if y <= self.free:
                return 0
            width = _ROW * self.d
            y += width // 2 - (y - self.free) % width
        return self._tax(y)

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
    return Fraction(*_benefit_income(profile, params, mode, as_money(target))[:2])


def _benefit_income(profile: HouseholdProfile, params: ProgramParameters, mode: LiabilityMode,
                    target: Fraction | None = None) -> tuple[int, int, int, int]:
    """:func:`invert_benefit`'s answer, then the phaseout start, each as (numerator, positive
    denominator). A `target` of None is the credit maximum, read as the kernel's integer."""
    kernel = _Kernel(profile, params, mode, *(() if target is None else (target,)))
    t = kernel.credit if target is None else _over(target, kernel.d)
    if t <= 0:
        raise Unreachable(f"benefit target {Fraction(t, kernel.d)} must be positive")
    if t > kernel.credit:
        raise Unreachable(f"benefit target {Fraction(t, kernel.d)} exceeds the maximum "
                          f"{Fraction(kernel.credit, kernel.d)}")
    y, den = kernel.refund_credit(t)
    if y * kernel.d > kernel.start * den:
        # Past the phaseout start the attainable total only shrinks.
        raise Unreachable(f"benefit target {Fraction(t, kernel.d)} is eroded by the phaseout "
                          "before it accrues")
    return y, den, kernel.start, kernel.d


def thresholds(
    profile: HouseholdProfile,
    params: ProgramParameters,
    mode: LiabilityMode = LiabilityMode.EXACT,
) -> ThresholdSet:
    """All category-boundary incomes for one household under one rule set, inverted once per
    distinct (profile, params, mode) inside a command scope (see :mod:`ctcsim.memo`)."""
    return _threshold_set(_threshold_pairs(profile, params, mode))


def _threshold_pairs(profile: HouseholdProfile, params: ProgramParameters,
                     mode: LiabilityMode) -> tuple[tuple[int, int], ...]:
    """:func:`_thresholds`, inverted once per distinct call inside a command scope."""
    return once(_thresholds, profile, params, mode)


def _threshold_set(pairs: tuple[tuple[int, int], ...]) -> ThresholdSet:
    return ThresholdSet(*(Fraction(num, den) for num, den in pairs))


def _thresholds(profile: HouseholdProfile, params: ProgramParameters,
                mode: LiabilityMode) -> tuple[tuple[int, int], ...]:
    """The six boundary incomes of :class:`ThresholdSet`, in its field order, each as
    (numerator, positive denominator), not reduced; OrderingViolation if out of order."""
    kernel = _Kernel(profile, params, mode)
    d, q, credit, floor, start, rate = (kernel.d, kernel.q, kernel.credit, kernel.floor,
                                        kernel.start, kernel.phaseout)
    actc, actc_d = kernel.refund_credit(kernel.refundable)
    (ctc, ctc_d), (comb, comb_d) = kernel.liability(credit), kernel.refund_credit(credit)
    total = start * rate + credit * q  # start + credit / rate, over D·rate
    pairs = ((floor, d), (actc, actc_d), (ctc, ctc_d), (start, d), (total, d * rate),
             (comb, comb_d))
    if not (floor * actc_d <= actc * d and actc * ctc_d <= ctc * actc_d
            and ctc * d <= start * ctc_d and comb * ctc_d <= ctc * comb_d):
        raise OrderingViolation(f"thresholds are not monotone for year {params.year}: "
                                f"{_threshold_set(pairs)}")
    return pairs
