"""Binned population ingestion and summary statistics.

Population files mirror table-creator exports: parent counts per (year,
group, $2,500 income bin) covering $0 to $99,999, and a children-count
histogram per (year, group). Everything above $99,999 is outside the data
and rejected by the loader.

A (year, group) cell is kept as its cumulative counts, the 41 ints ``(0, n0, n0 + n1,
..., total)``: the bins from edge ``a * BIN_WIDTH`` up to ``b * BIN_WIDTH`` hold
``cum[b] - cum[a]`` households.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from itertools import accumulate
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .errors import EmptyGroup, EmptyHistogram, GapError, NegativeCount, ParseError
from .params import ParentalGroup

BIN_WIDTH = 2500
INCOME_CEILING = 100_000
BINS = INCOME_CEILING // BIN_WIDTH

CHILDREN_KEYS = tuple(str(k) for k in range(8)) + ("8plus",)


class PopulationTable:
    """Immutable container of cumulative bin counts and children counts."""

    def __init__(
        self,
        counts: Mapping[tuple[int, ParentalGroup], Sequence[int]],
        children: Mapping[tuple[int, ParentalGroup], Mapping[str, int]] | None = None,
    ):
        """`counts` holds the BINS per-bin counts of each cell, lowest bin first, and
        `children` each cell's respondent counts by CHILDREN_KEYS key."""
        self._cum = {key: tuple(accumulate(value, initial=0)) for key, value in counts.items()}
        self._children = dict(children or {})
        # A key counts its position in CHILDREN_KEYS as children, so '8plus' counts 8.
        self._averages = {
            cell: Fraction(sum(CHILDREN_KEYS.index(key) * n for key, n in c.items()), total)
            for cell, c in self._children.items() if (total := sum(c.values())) > 0}

    def cumulative(self, year: int, group: ParentalGroup) -> tuple[int, ...]:
        """The cell's BINS + 1 cumulative counts, from 0 to its total."""
        try:
            return self._cum[(year, group)]
        except KeyError:
            raise EmptyGroup(f"no population for year {year}, group {group.value}") from None

    def average_children(self, year: int, group: ParentalGroup) -> Fraction:
        """The cell's mean children per respondent. EmptyHistogram when the cell has no
        histogram, no respondents or no children: no household size a credit can use."""
        average = self._averages.get((year, group))
        if not average:  # every cell with respondents has its average kept, maybe 0
            where = f"year {year}, group {group.value}"
            if (year, group) not in self._children:
                raise EmptyHistogram(f"no children histogram for {where}")
            if average is None:
                raise EmptyHistogram(f"children histogram for {where} has no respondents")
            raise EmptyHistogram(f"children histogram for {where} has no children")
        return average


_GROUPS = {g.value: g for g in ParentalGroup}


def _int_field(raw: str, field: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"field {field!r} is not an integer: {raw.strip()!r}") from None


def _read_cells(path: Path, header: list[str], parse: Callable) -> dict:
    """A CSV file with `header` as {(year, group): {key: value}}, the fields after year and
    group checked and keyed by ``parse(*fields)``. An error names the file and line; a key
    repeated in a (year, group) names both lines."""
    data = path.read_bytes()
    try:
        data.decode("utf-8")  # whole, so an error's position is the file offset
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}:{line}: {exc}") from None
    cells: dict = {}  # (year, group name) -> key -> (value, line)
    # Parsed from a chunked decoder: a StringIO of the whole text would hold 4 bytes a character.
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
    try:
        if next(reader, None) != header:
            raise ParseError(f"{path}: header must be {','.join(header)}")
        for row in reader:
            if not row:
                continue  # a blank line
            try:
                if len(row) != len(header):
                    raise ParseError(f"expected {len(header)} fields, got {len(row)}")
                year, group, *fields = row
                year, group = _int_field(year, "year"), group.strip()
                if group not in _GROUPS:
                    raise ParseError(f"unknown group {group!r}")
                cell = cells.setdefault((year, group), {})  # a str hashes in C, a member does not
                key, value = parse(*fields)
                if key in cell:
                    raise ParseError(f"duplicate row, first seen on line {cell[key][1]}")
            except (ParseError, NegativeCount) as exc:
                raise type(exc)(f"{path}:{reader.line_num}: {exc}") from None
            cell[key] = value, reader.line_num
    except csv.Error as exc:
        raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
    return {(year, _GROUPS[group]): {key: value for key, (value, _) in cell.items()}
            for (year, group), cell in cells.items()}


def _income_bin(lower: str, upper: str, count: str) -> tuple[int, int]:
    try:
        lower, upper, count = int(lower), int(upper), int(count)
    except ValueError:  # name the first field that is not an integer
        for raw, field in ((lower, "bin_lower"), (upper, "bin_upper"), (count, "count")):
            _int_field(raw, field)
    if count < 0:
        raise NegativeCount(f"negative count {count}")
    if upper - lower != BIN_WIDTH:
        raise ParseError(f"bin width must be {BIN_WIDTH}")
    if lower < 0 or upper > INCOME_CEILING:
        raise ParseError(f"bins must lie within [0, {INCOME_CEILING})")
    return lower, count


def _children_count(key: str, count: str) -> tuple[str, int]:
    key = key.strip()
    if key not in CHILDREN_KEYS:
        raise ParseError(f"children must be one of {CHILDREN_KEYS}")
    count = _int_field(count, "count")
    if count < 0:
        raise NegativeCount(f"negative count {count}")
    return key, count


def load_population(path: str | Path, children_path: str | Path | None = None) -> PopulationTable:
    """Load bin counts (and optionally children histograms) from CSV files."""
    rows = _read_cells(Path(path), ["year", "group", "bin_lower", "bin_upper", "count"],
                       _income_bin)
    counts: dict[tuple[int, ParentalGroup], list[int]] = {}
    for key, by_lower in rows.items():
        lowers = sorted(by_lower)
        expected_lower = 0
        for lower in lowers:
            if lower != expected_lower:
                raise GapError(f"year {key[0]} {key[1].value}: expected bin starting at "
                               f"{expected_lower}, got {lower}")
            expected_lower = lower + BIN_WIDTH
        if expected_lower != INCOME_CEILING:
            raise GapError(f"year {key[0]} {key[1].value}: bins stop at {expected_lower}, "
                           f"expected {INCOME_CEILING}")
        counts[key] = [by_lower[lower] for lower in lowers]
        if not any(counts[key]):
            raise EmptyGroup(f"year {key[0]} {key[1].value}: population has zero total")

    years = sorted({year for year, _ in counts})
    if years and years[-1] - years[0] + 1 != len(years):
        raise GapError(f"years are not contiguous: {years}")

    children = (_read_cells(Path(children_path), ["year", "group", "children", "count"],
                            _children_count) if children_path else {})
    return PopulationTable(counts, children)
