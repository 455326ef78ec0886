"""Binned population ingestion and summary statistics.

Population files mirror table-creator exports: parent counts per (year,
group, $2,500 income bin) covering $0 to $99,999, and a children-count
histogram per (year, group). Everything above $99,999 is outside the data
and rejected by the loader.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Sequence

from .errors import EmptyGroup, EmptyHistogram, GapError, NegativeCount, ParseError
from .params import ParentalGroup

BIN_WIDTH = 2500
INCOME_CEILING = 100_000

CHILDREN_KEYS = tuple(str(k) for k in range(8)) + ("8plus",)


@dataclass(frozen=True)
class IncomeBin:
    lower: int
    upper: int
    count: int


@dataclass(frozen=True)
class ChildrenHistogram:
    """Respondent counts by reported number of children; '8plus' sums at 8."""

    counts: Mapping[str, int]

    def total(self) -> int:
        return sum(self.counts.values())

    def average(self) -> Fraction:
        total = self.total()
        if total <= 0:
            raise EmptyHistogram("children histogram has no respondents")
        weighted = sum(
            (8 if key == "8plus" else int(key)) * n for key, n in self.counts.items()
        )
        return Fraction(weighted, total)


class PopulationTable:
    """Immutable container of income bins and children histograms."""

    def __init__(
        self,
        bins: Mapping[tuple[int, ParentalGroup], Sequence[IncomeBin]],
        children: Mapping[tuple[int, ParentalGroup], ChildrenHistogram] | None = None,
    ):
        self._bins = {key: tuple(value) for key, value in bins.items()}
        self._children = dict(children or {})

    def years(self) -> list[int]:
        return sorted({year for year, _ in self._bins})

    def groups(self, year: int) -> list[ParentalGroup]:
        return [g for g in ParentalGroup if (year, g) in self._bins]

    def bins(self, year: int, group: ParentalGroup) -> tuple[IncomeBin, ...]:
        try:
            return self._bins[(year, group)]
        except KeyError:
            raise EmptyGroup(f"no population for year {year}, group {group.value}") from None

    def total(self, year: int, group: ParentalGroup) -> int:
        return sum(b.count for b in self.bins(year, group))

    def children_histogram(self, year: int, group: ParentalGroup) -> ChildrenHistogram:
        try:
            return self._children[(year, group)]
        except KeyError:
            raise EmptyHistogram(
                f"no children histogram for year {year}, group {group.value}"
            ) from None

    def average_children(self, year: int, group: ParentalGroup) -> Fraction:
        return self.children_histogram(year, group).average()


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


def load_population(path: str | Path, children_path: str | Path | None = None) -> PopulationTable:
    """Load bin counts (and optionally children histograms) from CSV files."""
    path = Path(path)
    rows: dict[tuple[int, ParentalGroup], list[IncomeBin]] = {}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        expected = ["year", "group", "bin_lower", "bin_upper", "count"]
        if reader.fieldnames != expected:
            raise ParseError(f"{path}: header must be {','.join(expected)}")
        for lineno, row in enumerate(reader, start=2):
            where = f"{path}:{lineno}"
            year = _int_field(row, "year", where)
            group = _group_field(row, where)
            lower = _int_field(row, "bin_lower", where)
            upper = _int_field(row, "bin_upper", where)
            count = _int_field(row, "count", where)
            if count < 0:
                raise NegativeCount(f"{where}: negative count {count}")
            if upper - lower != BIN_WIDTH:
                raise ParseError(f"{where}: bin width must be {BIN_WIDTH}")
            if lower < 0 or upper > INCOME_CEILING:
                raise ParseError(f"{where}: bins must lie within [0, {INCOME_CEILING})")
            rows.setdefault((year, group), []).append(IncomeBin(lower, upper, count))

    bins: dict[tuple[int, ParentalGroup], tuple[IncomeBin, ...]] = {}
    for key, seq in rows.items():
        seq.sort(key=lambda b: b.lower)
        expected_lower = 0
        for b in seq:
            if b.lower != expected_lower:
                raise GapError(
                    f"year {key[0]} {key[1].value}: expected bin starting at {expected_lower}, got {b.lower}"
                )
            expected_lower = b.upper
        if expected_lower != INCOME_CEILING:
            raise GapError(
                f"year {key[0]} {key[1].value}: bins stop at {expected_lower}, expected {INCOME_CEILING}"
            )
        if not any(b.count for b in seq):
            raise EmptyGroup(f"year {key[0]} {key[1].value}: population has zero total")
        bins[key] = tuple(seq)

    years = sorted({year for year, _ in bins})
    if years and years[-1] - years[0] + 1 != len(years):
        raise GapError(f"years are not contiguous: {years}")

    children = _load_children(Path(children_path)) if children_path else {}
    return PopulationTable(bins, children)


def _load_children(path: Path) -> dict[tuple[int, ParentalGroup], ChildrenHistogram]:
    out: dict[tuple[int, ParentalGroup], dict[str, int]] = {}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        expected = ["year", "group", "children", "count"]
        if reader.fieldnames != expected:
            raise ParseError(f"{path}: header must be {','.join(expected)}")
        for lineno, row in enumerate(reader, start=2):
            where = f"{path}:{lineno}"
            year = _int_field(row, "year", where)
            group = _group_field(row, where)
            key = (row.get("children") or "").strip()
            if key not in CHILDREN_KEYS:
                raise ParseError(f"{where}: children must be one of {CHILDREN_KEYS}")
            count = _int_field(row, "count", where)
            if count < 0:
                raise NegativeCount(f"{where}: negative count {count}")
            out.setdefault((year, group), {})[key] = out.setdefault((year, group), {}).get(key, 0) + count
    return {key: ChildrenHistogram(counts) for key, counts in out.items()}
