"""Output checks: every failure they find counts against the run's error rate.

The eligibility reference is brute force: it evaluates the benefit rules at
chosen incomes with ``tests/oracle.py`` (loaded read-only) and never calls the
library's threshold inversion or bin machinery. A bin's category under the
upper-bound rule (s1) is the category at its lower edge; under the
middle-bound rule (s2) it is the category just below the bin midpoint, which
is where ``cut_income`` puts a boundary that sits exactly on the midpoint.
"""

from __future__ import annotations

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

BIN_HALF = 1250
TABLE_ROW = 50.0
# How far below the midpoint the s2 probe sits: far more than the oracle's
# 1e-6 guard moves a boundary. Only a boundary closer than this below a
# midpoint would be misread. With one child none can be (boundary
# denominators divide 300); with fractional s2 children the chance is about
# 1e-3 / 2500 = 4e-7 per boundary, and it repeats for the same seed.
BELOW_MIDPOINT = 1e-3
CATEGORY_CODES = ("a", "b", "c", "d", "e", "f")
# The report fits outcomes a..f, cd and bc; each code lists its categories.
FE_OUTCOME_COUNT = 8
# The report prints estimates with 6 decimals; the 1e-9 tolerance applies on
# top of that rounding.
FE_TOLERANCE = 0.5e-6 + 1e-9
# Dollars by which the bisected thresholds must clear each other before the
# reference calls a rule set ordered or not; bisection error is far smaller.
ORDER_MARGIN = 0.01
BISECTION_STEPS = 80


def load_oracle(root: Path, liability: str = "exact"):
    """A private copy of tests/oracle.py; the file itself is only read.

    For table-mode liability the copy's bracket tax is taken at the midpoint
    of the $50 taxable-income row, as filing from a lookup table does.
    """
    spec = importlib.util.spec_from_file_location("ctcbench_oracle", root / "tests" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if liability == "table":
        exact_tax = module.bracket_tax

        def table_tax(taxable, brackets):
            row = np.floor(taxable / TABLE_ROW) * TABLE_ROW + TABLE_ROW / 2
            return exact_tax(np.where(taxable > 0, row, 0.0), brackets)

        module.bracket_tax = table_tax
    return module


class Reference:
    """Brute-force category counts and full-relief shares for one input set."""

    def __init__(self, oracle, inputs):
        self.oracle = oracle
        self.inputs = inputs

    def _probe(self, year: int, group: str, middle: bool) -> tuple[np.ndarray, list[int]]:
        seq = self.inputs.bins[(year, group)]
        offset = BIN_HALF - BELOW_MIDPOINT if middle else 0.0
        return np.array([lower + offset for lower, _ in seq]), [count for _, count in seq]

    def children(self, year: int, group: str, scenario: str) -> float:
        return 1.0 if scenario == "s1" else float(self.inputs.children_avg[(year, group)])

    def counts(self, params, year: int, group, scenario: str) -> list[int]:
        """Households per category a..f for one (year, group, scenario) cell."""
        incomes, weights = self._probe(year, group.value, scenario == "s2")
        cats = self.oracle.grid_categories(incomes, params, group,
                                           self.children(year, group.value, scenario))
        out = [0] * 6
        for cat, weight in zip(cats, weights):
            out[int(cat)] += weight
        return out

    def full_relief(self, params, year: int, group, scenario: str) -> Fraction:
        """Share of the cell that can realise the full credit as credit plus refund."""
        incomes, weights = self._probe(year, group.value, scenario == "s2")
        children = self.children(year, group.value, scenario)
        rules = self.oracle.unpack(params, group)
        rules["adults"] = group.adults
        _, credit, refund = self.oracle.benefit_components(incomes, rules, children)
        eps = self.oracle.EPS
        full = ((credit + refund >= rules["ctc"] * children - eps)
                & (incomes <= rules["phaseout_start"] + eps))
        mass = sum(w for w, ok in zip(weights, full) if ok)
        return Fraction(mass, sum(weights))

    def ordering_violated(self, params, year: int, group, scenario: str) -> bool | None:
        """Whether the category thresholds of one household are out of order.

        The thresholds are found by bisection on the oracle's benefit rules,
        never by the library's inversion, and compared as the library's
        OrderingViolation check does. True or False only when every
        comparison clears ORDER_MARGIN; None when some pair is a near tie.
        """
        rules = self.oracle.unpack(params, group)
        children = self.children(year, group.value, scenario)
        free = rules["deduction"] + rules["exemption_pp"] * (group.adults + children)
        brackets = rules["brackets"]

        def tax(y):
            return float(self.oracle.bracket_tax(np.array([max(y - free, 0.0)]), brackets)[0])

        def with_refund(y):
            phase_in = rules["refund_rate"] * max(y - rules["refund_floor"], 0.0)
            return tax(y) + min(phase_in, rules["actc"] * children)

        ctc = rules["ctc"] * children
        full_actc = _min_income(with_refund, rules["actc"] * children)
        full_ctc = _min_income(tax, ctc)
        full_combined = _min_income(with_refund, ctc)
        start = rules["phaseout_start"]
        total_phaseout = start + ctc / rules["phaseout_rate"]
        # (lower, upper) pairs that must satisfy lower <= upper.
        pairs = ((rules["refund_floor"], full_actc), (full_actc, full_ctc), (full_ctc, start),
                 (full_combined, full_ctc), (start, total_phaseout))
        if any(lower - upper > ORDER_MARGIN for lower, upper in pairs):
            return True
        if all(upper - lower > ORDER_MARGIN for lower, upper in pairs):
            return False
        return None


def _min_income(f, target: float) -> float:
    """Smallest income at which the nondecreasing f reaches target."""
    lo, hi = 0.0, 1024.0
    while f(hi) < target:
        lo, hi = hi, hi * 2
    for _ in range(BISECTION_STEPS):
        mid = (lo + hi) / 2
        if f(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def check_report(text: str, reference: Reference, params_by_year, groups) -> list[str]:
    """Problems found in one `ctcsim report` bundle; empty when it is correct."""
    problems: list[str] = []
    bundle = json.loads(text)
    cells: dict = {}
    for row in bundle["eligibility"]:
        key = (row["year"], row["group"], row["scenario"])
        cells.setdefault(key, {})[row["category"]] = row["count"]
    by_value = {g.value: g for g in groups}
    inputs = reference.inputs
    expected_cells = {(y, g, s) for (y, g) in inputs.bins for s in ("s1", "s2")}
    if set(cells) != expected_cells:
        problems.append("eligibility section does not cover every (year, group, scenario)")
    for (year, group, scenario), counts in sorted(cells.items()):
        if sum(counts.values()) != inputs.total(year, group):
            problems.append(f"counts of {year} {group} {scenario} do not sum to the bin total")
        want = reference.counts(params_by_year[year], year, by_value[group], scenario)
        got = [counts.get(code, 0) for code in CATEGORY_CODES]
        if got != want:
            problems.append(f"eligibility {year} {group} {scenario}: {got} != reference {want}")
    problems += _check_fixed_effects(bundle["fixed_effects"], cells, inputs)
    return problems


def _share(cells, year, group, scenario, outcome, inputs) -> Fraction:
    counts = cells[(year, group, scenario)]
    return Fraction(sum(counts[c] for c in outcome), inputs.total(year, group))


def _check_fixed_effects(rows, cells, inputs) -> list[str]:
    """Saturated group x year fit: each coefficient is a difference of cell shares."""
    problems = []
    years = sorted({y for (y, _, _) in cells if y < 2018})
    base_year, base_group = max(years), "married"
    seen = 0
    for row in rows:
        outcome, scenario, term = row["outcome"], row["scenario"], row["term"]

        def s(year, group):
            return _share(cells, year, group, scenario, outcome, inputs)

        if term == "const":
            want = s(base_year, base_group)
        elif term.startswith("year_"):
            y = int(term[5:])
            want = s(y, base_group) - s(base_year, base_group)
        elif ":year_" in term:
            g, y = term.split(":year_")
            y = int(y)
            want = s(y, g) - s(base_year, g) - s(y, base_group) + s(base_year, base_group)
        else:
            want = s(base_year, term) - s(base_year, base_group)
        seen += 1
        if abs(float(row["estimate"]) - float(want)) > FE_TOLERANCE:
            problems.append(f"fixed effects {scenario} {outcome} {term}: "
                            f"{row['estimate']} != {float(want):.9f}")
    groups = {g for (_, g, _) in cells}
    per_fit = len(groups) * len(years)
    if seen != 2 * FE_OUTCOME_COUNT * per_fit:
        problems.append(f"fixed effects section has {seen} terms, expected {2 * FE_OUTCOME_COUNT * per_fit}")
    return problems
