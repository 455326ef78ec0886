"""Independent brute-force implementations used to check the engine.

Everything here recomputes benefits and categories from the program rules
directly with numpy floats, bypassing the library's threshold inversion and
bin machinery. Comparisons carry a 1e-6 dollar guard: rule boundaries are
rationals with denominator dividing 300, so no integer-dollar grid point
sits closer to a boundary than 1/300 and the guard can never flip a
classification.

The exceptions are the exact references for the engine's threshold
inversion, built only on the public ``tax_liability`` and the bracket
schedule: :func:`exact_threshold_walk` evaluates credit plus capped refund
at every breakpoint of the piecewise-linear benefit and interpolates,
:func:`table_threshold_scan` walks every $50 row in table mode, and
:func:`liability_reference` solves the brackets one by one;
:func:`thresholds_reference` and :func:`full_relief_cuts_reference` assemble
a threshold set and the full-benefit cuts from them. The bin cut has one
too: :func:`cut_income_reference` computes it in Fraction arithmetic. So does
the count per category: :func:`assign_bins_reference` walks the bins one by
one, and :func:`count_between_reference` sums the bins between two cuts. And
the population loader: :func:`load_population_reference` reads the CSV files
through ``csv.DictReader``, a field at a time by name.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

EPS = 1e-6


def unpack(params, group):
    """Plain-float rule bundle for the group's filing status."""
    fp = params.for_status(group.filing_status)
    return {
        "deduction": float(fp.standard_deduction),
        "exemption_pp": float(fp.exemption_per_person),
        "brackets": [(None if b.upper is None else float(b.upper), float(b.rate))
                     for b in fp.brackets.brackets],
        "refund_floor": float(params.refund_threshold),
        "refund_rate": float(params.refund_rate),
        "ctc": float(params.ctc_per_child),
        "actc": float(params.actc_per_child),
        "phaseout_start": float(fp.phaseout_start),
        "phaseout_rate": float(params.phaseout_rate),
    }


def bracket_tax(taxable: np.ndarray, brackets) -> np.ndarray:
    tax = np.zeros_like(taxable)
    lower = 0.0
    for upper, rate in brackets:
        if upper is None:
            tax += rate * np.maximum(taxable - lower, 0.0)
        else:
            tax += rate * np.clip(taxable - lower, 0.0, upper - lower)
            lower = upper
    return tax


def benefit_components(incomes: np.ndarray, rules, children: float):
    free = rules["deduction"] + rules["exemption_pp"] * (rules["adults"] + children)
    taxable = np.maximum(incomes - free, 0.0)
    tax = bracket_tax(taxable, rules["brackets"])
    ctc_total = rules["ctc"] * children
    actc_total = rules["actc"] * children
    allowed = np.maximum(
        ctc_total - rules["phaseout_rate"] * np.maximum(incomes - rules["phaseout_start"], 0.0),
        0.0,
    )
    credit = np.minimum(tax, allowed)
    refund = np.minimum(
        np.minimum(rules["refund_rate"] * np.maximum(incomes - rules["refund_floor"], 0.0),
                   actc_total),
        allowed - credit,
    )
    refund = np.maximum(refund, 0.0)
    return tax, credit, refund


def grid_categories(incomes: np.ndarray, params, group, children: float) -> np.ndarray:
    """Per-dollar category codes 0..5 derived from the benefit definition."""
    rules = unpack(params, group)
    rules["adults"] = group.adults
    tax, credit, refund = benefit_components(incomes, rules, children)
    total = credit + refund
    ctc_total = rules["ctc"] * children
    actc_total = rules["actc"] * children
    phaseout_start = rules["phaseout_start"]

    none_at_all = total <= EPS
    low_side = incomes <= rules["refund_floor"] + EPS
    past_start = incomes > phaseout_start + EPS
    full_credit = tax >= ctc_total - EPS
    full_refundable = total >= min(actc_total, ctc_total) - EPS

    cats = np.full(incomes.shape, 1, dtype=int)  # default: some refundable
    cats[full_refundable] = 2
    cats[full_credit & ~past_start] = 3
    cats[past_start] = 4
    cats[none_at_all & ~low_side] = 5
    cats[none_at_all & low_side] = 0
    return cats


def exact_threshold_walk(target: Fraction, profile, params) -> Fraction:
    """Minimal income where exact liability plus the capped refund reaches `target`.

    Evaluates the total at every breakpoint (zero, the refund floor, the
    refund cap, the tax-free amount and each bracket edge above it) and
    interpolates inside the first segment that reaches the target; past the
    last breakpoint it probes the tail slope one dollar on.
    """
    # Imported here so that loading this module binds no library function.
    from ctcsim.errors import Unreachable
    from ctcsim.taxmath import max_refund, tax_free_amount, tax_liability

    if target <= 0:
        raise Unreachable("threshold target must be positive")
    refundable = max_refund(profile, params)
    free = tax_free_amount(profile, params)
    points = {Fraction(0), params.refund_threshold, free}
    if params.refund_rate > 0:
        points.add(params.refund_threshold + refundable / params.refund_rate)
    for b in params.for_status(profile.group.filing_status).brackets.brackets:
        if b.upper is not None:
            points.add(free + b.upper)
    breaks = sorted(p for p in points if p >= 0)

    def total(y: Fraction) -> Fraction:
        phase_in = params.refund_rate * max(Fraction(0), y - params.refund_threshold)
        return tax_liability(y, profile, params) + min(phase_in, refundable)

    prev, t_prev = breaks[0], total(breaks[0])
    if t_prev >= target:
        return prev
    for point in breaks[1:]:
        t_point = total(point)
        if t_point >= target:
            slope = (t_point - t_prev) / (point - prev)
            return prev + (target - t_prev) / slope
        prev, t_prev = point, t_point
    tail_slope = total(prev + 1) - t_prev
    if tail_slope <= 0:
        raise Unreachable(f"benefit target {target} is never reached")
    return prev + (target - t_prev) / tail_slope


def table_threshold_scan(target: Fraction, profile, params) -> Fraction:
    """Minimal income reaching `target` with table-mode liability, row by row.

    Within a $50 taxable row liability is constant, so each row's minimal
    income is linear in the refund phase-in; the walk runs from zero to the
    exact-mode threshold of :func:`exact_threshold_walk` plus ten rows and
    calls the bracket tax once a row.
    """
    from ctcsim.errors import Unreachable
    from ctcsim.taxmath import TABLE_ROW_WIDTH, max_refund, tax_free_amount

    free = tax_free_amount(profile, params)
    refundable = max_refund(profile, params)
    brackets = params.for_status(profile.group.filing_status).brackets
    rate = params.refund_rate
    floor = params.refund_threshold

    def min_income_in(lo: Fraction, hi, liability: Fraction):
        need = target - liability
        if need <= 0:
            return lo
        if need > refundable or rate == 0:
            return None
        y = max(lo, floor + need / rate)
        if hi is None or y < hi:
            return y
        return None

    found = min_income_in(Fraction(0), free, Fraction(0))
    if found is not None:
        return found
    guard = exact_threshold_walk(target, profile, params)
    row_lo = Fraction(0)
    while free + row_lo <= guard + 10 * TABLE_ROW_WIDTH:
        liability = brackets.tax(row_lo + TABLE_ROW_WIDTH / 2)
        found = min_income_in(free + row_lo, free + row_lo + TABLE_ROW_WIDTH, liability)
        if found is not None:
            return found
        row_lo += TABLE_ROW_WIDTH
    raise Unreachable(f"benefit target {target} is never reached")


def liability_reference(target: Fraction, profile, params, mode) -> Fraction:
    """Minimal income whose liability reaches `target`, bracket by bracket.

    In table mode, the first $50 row from which the midpoint liability
    clears the target, found by scanning rows up from just below the exact
    answer. Raises ValidationError when the schedule tops out below `target`.
    """
    from ctcsim.errors import ValidationError
    from ctcsim.taxmath import TABLE_ROW_WIDTH, LiabilityMode, tax_free_amount

    schedule = params.for_status(profile.group.filing_status).brackets
    free = tax_free_amount(profile, params)
    if target <= 0:
        return free
    lower = Fraction(0)
    tax_at_lower = Fraction(0)
    for b in schedule.brackets:
        tax_at_upper = tax_at_lower if b.upper is None else tax_at_lower + (b.upper - lower) * b.rate
        if b.upper is None or tax_at_upper >= target:
            if b.rate == 0:
                raise ValidationError(f"tax target {target} unreachable under schedule")
            taxable = lower + (target - tax_at_lower) / b.rate
            break
        lower, tax_at_lower = b.upper, tax_at_upper
    if mode is LiabilityMode.TABLE:
        row = max(0, taxable // TABLE_ROW_WIDTH - 1)
        while schedule.tax((row + Fraction(1, 2)) * TABLE_ROW_WIDTH) < target:
            row += 1
        taxable = row * TABLE_ROW_WIDTH
    return free + taxable


def thresholds_reference(profile, params, mode):
    """The threshold set from the references above, inverted in the engine's order.

    Full refundable benefit and full combined benefit come from the refund
    walk (the breakpoint walk, or the row scan in table mode), full credit
    from :func:`liability_reference`; a target of zero is never reached.
    """
    from ctcsim.errors import Unreachable
    from ctcsim.taxmath import LiabilityMode, ThresholdSet, max_credit, max_refund

    def refund_walk(target):
        if target <= 0:
            raise Unreachable("threshold target must be positive")
        walk = exact_threshold_walk if mode is LiabilityMode.EXACT else table_threshold_scan
        return walk(target, profile, params)

    fp = params.for_status(profile.group.filing_status)
    credit = max_credit(profile, params)
    return ThresholdSet(
        t_refund_floor=params.refund_threshold,
        t_full_actc=refund_walk(max_refund(profile, params)),
        t_full_ctc=liability_reference(credit, profile, params, mode),
        t_phaseout_start=fp.phaseout_start,
        t_total_phaseout=fp.phaseout_start + credit / params.phaseout_rate,
        t_full_combined=refund_walk(credit),
    )


def full_relief_cuts_reference(profile, params, rule, mode) -> tuple[int, int]:
    """Bin-edge cuts of full-benefit eligibility from the references above.

    The lower cut is where the refund walk reaches the credit maximum, the
    upper one the phaseout start; a maximum of zero, or one reached only past
    the phaseout start, is unreachable.
    """
    from ctcsim.errors import Unreachable
    from ctcsim.taxmath import LiabilityMode, max_credit

    target = max_credit(profile, params)
    if target <= 0:
        raise Unreachable(f"benefit target {target} must be positive")
    walk = exact_threshold_walk if mode is LiabilityMode.EXACT else table_threshold_scan
    income = walk(target, profile, params)
    phaseout = params.for_status(profile.group.filing_status).phaseout_start
    if income > phaseout:
        raise Unreachable(f"benefit target {target} is eroded by the phaseout before it accrues")
    return (cut_income_reference(income, strictly_above=False, rule=rule),
            cut_income_reference(phaseout, strictly_above=True, rule=rule))


def cut_income_reference(boundary: Fraction, strictly_above: bool, rule) -> int:
    """Bin edge at which the category above `boundary` starts, in Fraction arithmetic.

    The classifier's cut before it moved to the boundary's numerator and
    denominator, kept as the reference for that integer version.
    """
    from ctcsim.classifier import BoundRule
    from ctcsim.errors import ThresholdOutOfRange
    from ctcsim.population import BIN_WIDTH

    if boundary < 0:
        raise ThresholdOutOfRange(f"negative classification boundary {boundary}")
    floor_edge = int(boundary // BIN_WIDTH) * BIN_WIDTH
    on_edge = boundary == floor_edge
    if rule is BoundRule.MIDDLE:
        midpoint = floor_edge + Fraction(BIN_WIDTH, 2)
        return floor_edge + BIN_WIDTH if boundary >= midpoint else floor_edge
    if on_edge and not strictly_above:
        return floor_edge
    return floor_edge + BIN_WIDTH


def assign_bins_reference(counts, thresholds, rule) -> dict:
    """Total count per category of a cell's per-bin `counts`, a bin at a time.

    The classifier's assignment before it moved to cumulative counts: each
    bin goes to the category of the number of cuts at or below its lower edge.
    """
    from bisect import bisect_right

    from ctcsim.classifier import CATEGORY_ORDER, category_cuts
    from ctcsim.population import BIN_WIDTH

    cuts = category_cuts(thresholds, rule)
    out = [0] * len(CATEGORY_ORDER)
    for i, count in enumerate(counts):
        out[bisect_right(cuts, i * BIN_WIDTH)] += count
    return dict(zip(CATEGORY_ORDER, out))


def count_between_reference(counts, lo: int, hi: int) -> int:
    """Households in the bins whose lower edge lies in [lo, hi), a bin at a time."""
    from ctcsim.population import BIN_WIDTH

    return sum(count for i, count in enumerate(counts) if lo <= i * BIN_WIDTH < hi)


def load_population_reference(path, children_path=None):
    """The population loader before it moved to ``csv.reader``, kept as its reference.

    Each row's bin is checked as it is read, and a cell is complete when every
    one of its bins' lower edges is present. It numbers records, not lines, and
    drops the fields past a row's header width; on any other input the two
    loaders agree.
    """
    import csv
    from pathlib import Path
    from typing import Callable, Mapping

    from ctcsim.errors import EmptyGroup, GapError, NegativeCount, ParseError
    from ctcsim.params import ParentalGroup
    from ctcsim.population import (
        BIN_WIDTH,
        CHILDREN_KEYS,
        INCOME_CEILING,
        PopulationTable,
    )

    def _int_field(row: Mapping[str, str], field: str, where: str) -> int:
        raw = (row.get(field) or "").strip()
        try:
            return int(raw)
        except ValueError:
            raise ParseError(f"{where}: field {field!r} is not an integer: {raw!r}") from None

    def _group_field(row: Mapping[str, str], where: str) -> ParentalGroup:
        raw = (row.get("group") or "").strip()
        try:
            return ParentalGroup(raw)
        except ValueError:
            raise ParseError(f"{where}: unknown group {raw!r}") from None

    def _read_cells(path: Path, header: list[str], parse: Callable) -> dict:
        cells: dict = {}  # (year, group) -> key -> (value, line)
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != header:
                raise ParseError(f"{path}: header must be {','.join(header)}")
            for lineno, row in enumerate(reader, start=2):
                where = f"{path}:{lineno}"
                cell = cells.setdefault((_int_field(row, "year", where), _group_field(row, where)), {})
                key, value = parse(row, where)
                if key in cell:
                    raise ParseError(f"{where}: duplicate row, first seen on line {cell[key][1]}")
                cell[key] = value, lineno
        return {k: {key: value for key, (value, _) in cell.items()} for k, cell in cells.items()}

    def _income_bin(row: Mapping[str, str], where: str) -> tuple[int, int]:
        lower = _int_field(row, "bin_lower", where)
        upper = _int_field(row, "bin_upper", where)
        count = _int_field(row, "count", where)
        if upper - lower != BIN_WIDTH or lower % BIN_WIDTH or lower < 0 or upper > INCOME_CEILING:
            raise ParseError(f"{where}: bin must be {BIN_WIDTH} wide, start on a multiple of "
                             f"{BIN_WIDTH} and end by {INCOME_CEILING}")
        if count < 0:
            raise NegativeCount(f"{where}: negative count {count}")
        return lower, count

    def _children_count(row: Mapping[str, str], where: str) -> tuple[str, int]:
        key = (row.get("children") or "").strip()
        if key not in CHILDREN_KEYS:
            raise ParseError(f"{where}: children must be one of {CHILDREN_KEYS}")
        count = _int_field(row, "count", where)
        if count < 0:
            raise NegativeCount(f"{where}: negative count {count}")
        return key, count

    path = Path(path)
    rows = _read_cells(path, ["year", "group", "bin_lower", "bin_upper", "count"], _income_bin)
    bins: dict[tuple[int, ParentalGroup], list[int]] = {}
    for key, by_lower in rows.items():
        where = f"{path}: year {key[0]} {key[1].value}"
        for lower in range(0, INCOME_CEILING, BIN_WIDTH):
            if lower not in by_lower:
                raise GapError(f"{where}: no bin starting at {lower}")
        bins[key] = [by_lower[lower] for lower in range(0, INCOME_CEILING, BIN_WIDTH)]
        if sum(bins[key]) == 0:
            raise EmptyGroup(f"{where}: population has zero total")

    years = sorted({year for year, _ in bins})
    if years and years[-1] - years[0] + 1 != len(years):
        raise GapError(f"{path}: years are not contiguous: {years}")

    children = (_read_cells(Path(children_path), ["year", "group", "children", "count"],
                            _children_count) if children_path else {})
    return PopulationTable(bins, children)
