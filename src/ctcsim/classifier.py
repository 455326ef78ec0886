"""Assign binned populations to the six relief categories.

A household's bin may straddle a category boundary; the bound rule decides
where the whole bin lands. The upper-bound rule (scenario S1) sends every
straddling bin to the lower category, the most conservative reading. The
middle-bound rule (S2) compares the boundary to the bin midpoint: at or
past halfway, the bin stays with the lower category, otherwise it moves up.

Boundaries come in two kinds. At the refundability floor and the phaseout
start, an income exactly equal to the boundary still belongs to the lower
category (no refund accrues at the floor; the full benefit survives at the
start), so a boundary sitting on a bin's lower edge still makes that bin
ambiguous. At the remaining boundaries the boundary income itself already
qualifies, and a bin whose lower edge equals the boundary lies wholly above.

A cell is classified in one pass over the five boundaries, each an integer pair (numerator,
positive denominator): `eligibility` passes in :mod:`ctcsim.taxmath`'s memoised pairs, and
`classify`, `assign_bins` and `category_cuts` read theirs off a ThresholdSet. Each boundary
becomes a bin-edge cut, raised to the cut before it if lower, so the cuts never fall. The
category below it counts the difference of the cell's cumulative counts (see
:mod:`ctcsim.population`) at its two cuts, a cut past the data ceiling reading the last
entry, the cell's total, and takes its flag from the same two cuts.

The data stop at $99,999, so each category is flagged by where its cuts put it against
the ceiling C = $100,000. Category a covers [0, first cut), each later one [its cut, the
next), and f has no upper end. A category is unavailable if it starts at or above C, or if
less than a quarter of a bounded range lies below C: its count then measures the few
incomes it reaches inside the data, not the category. It is an underestimate otherwise if
it reaches past C (f always does), and accurate if it lies wholly inside the data. The
quarter is a choice: on the shipped rules the one range it catches has 12-15% inside,
every other range crossing C has at least a third, and any bound above 0.154 and up to
1/3 gives the same flags.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .errors import ThresholdOutOfRange
from .params import ParentalGroup
from .population import BIN_WIDTH, BINS, INCOME_CEILING, PopulationTable
from .record import Enum, Record
from .taxmath import STRICTLY_ABOVE, ThresholdSet


class ReliefCategory(Enum):
    INELIGIBLE_LOW = "a"
    SOME_ACTC = "b"
    FULL_ACTC = "c"
    FULL_CTC = "d"
    SOME_CTC = "e"
    INELIGIBLE_HIGH = "f"

    @property
    def label(self) -> str:
        return {
            "a": "ineligible (low income)",
            "b": "some refundable credit",
            "c": "full refundable credit",
            "d": "full credit",
            "e": "partial credit (phaseout)",
            "f": "ineligible (high income)",
        }[self.value]


CATEGORY_ORDER = tuple(ReliefCategory)


class BoundRule(Enum):
    UPPER = "upper"
    MIDDLE = "middle"


class Scenario(Enum):
    """S1: one child per household, upper-bound bins. S2: group-year average children, middle-bound bins."""

    S1 = "s1"
    S2 = "s2"

    def __init__(self, value: str):
        # Plain attributes, not properties: every classified cell reads them.
        self.fixed_one_child = value == "s1"
        self.rule = BoundRule.UPPER if self.fixed_one_child else BoundRule.MIDDLE


class GeneralizabilityFlag(Enum):
    ACCURATE = "accurate"
    UNDERESTIMATE = "underestimate"
    UNAVAILABLE = "unavailable"


# Module names read faster than Enum class attributes, and these are read once per cut.
_MIDDLE, _HIGH = BoundRule.MIDDLE, ReliefCategory.INELIGIBLE_HIGH
_ACCURATE, _UNDERESTIMATE, _UNAVAILABLE = GeneralizabilityFlag
_NO_CELL = (0,) * (BINS + 1)  # the cuts do not read the cell, so any one will do


class EligibilityEstimate(Record):
    counts: Mapping[ReliefCategory, int]
    flags: Mapping[ReliefCategory, GeneralizabilityFlag]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def proportion(self, category: ReliefCategory) -> Fraction:
        return Fraction(self.counts[category], self.total)


def _cut(num: int, den: int, strictly_above: bool, rule: BoundRule) -> int:
    """Bin edge at which the category above the boundary income num/den starts, post-rule:
    a multiple of the bin width, with bins at or above it in the higher category. `den` > 0;
    the pair need not be reduced."""
    if num < 0:
        raise ThresholdOutOfRange(f"negative classification boundary {Fraction(num, den)}")
    floor_edge = num // (den * BIN_WIDTH) * BIN_WIDTH
    if rule is _MIDDLE:
        # At or past the bin midpoint: 2 * boundary >= 2 * floor_edge + BIN_WIDTH.
        return floor_edge + BIN_WIDTH if 2 * num >= (2 * floor_edge + BIN_WIDTH) * den else floor_edge
    if num == floor_edge * den and not strictly_above:
        return floor_edge
    return floor_edge + BIN_WIDTH


def category_cuts(thresholds: ThresholdSet, rule: BoundRule) -> list[int]:
    """The five nondecreasing bin-edge cuts separating categories a-f."""
    return _classify(_NO_CELL, _pairs(thresholds), rule)[2]


def count_between(cum: Sequence[int], lo: int, hi: int) -> int:
    """Households of cell `cum` in the bins from edge `lo` up to edge `hi`; 0 if hi <= lo."""
    if hi <= lo:
        return 0
    return cum[min(hi // BIN_WIDTH, BINS)] - cum[min(lo // BIN_WIDTH, BINS)]


def assign_bins(cum: Sequence[int], thresholds: ThresholdSet,
                rule: BoundRule) -> dict[ReliefCategory, int]:
    """Total count per category of cell `cum`; conserves the population exactly."""
    return _classify(cum, _pairs(thresholds), rule)[0]


def _flag(lo: int, hi: int | None) -> GeneralizabilityFlag:
    """The flag of the category covering incomes [lo, hi); `hi` None means unbounded above."""
    if lo >= INCOME_CEILING or hi is not None and 4 * (INCOME_CEILING - lo) < hi - lo:
        return _UNAVAILABLE
    if hi is None or hi > INCOME_CEILING:
        return _UNDERESTIMATE
    return _ACCURATE


def _pairs(thresholds: ThresholdSet) -> list[tuple[int, int]]:
    return [(b.numerator, b.denominator) for b, _ in thresholds.boundaries()]


def _classify(cum: Sequence[int], bounds: Sequence[tuple[int, int]],
              rule: BoundRule) -> tuple[dict, dict, list[int]]:
    """Counts and flags of cell `cum` per category, and the five cuts, from the boundary pairs
    `bounds`: the one pass. Each cut closes the category below it; f runs from the last cut up."""
    counts, flags, cuts = {}, {}, []
    lo = below = 0
    for cat, (num, den), strictly_above in zip(CATEGORY_ORDER, bounds, STRICTLY_ABOVE):
        hi = _cut(num, den, strictly_above, rule)
        if hi < lo:
            hi = lo
        up = cum[hi // BIN_WIDTH] if hi < INCOME_CEILING else cum[BINS]
        counts[cat], flags[cat] = up - below, _flag(lo, hi)
        cuts.append(hi)
        lo, below = hi, up
    counts[_HIGH], flags[_HIGH] = cum[BINS] - below, _flag(lo, None)
    return counts, flags, cuts


def classify(pop: PopulationTable, year: int, group: ParentalGroup, thresholds: ThresholdSet,
             scenario: Scenario) -> EligibilityEstimate:
    """Classify one (year, group) population under `thresholds` and the scenario's bound rule."""
    counts, flags, _ = _classify(pop.cumulative(year, group), _pairs(thresholds), scenario.rule)
    return EligibilityEstimate(counts, flags)
