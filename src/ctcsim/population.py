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
from collections import defaultdict
from fractions import Fraction
from itertools import accumulate
from pathlib import Path
from typing import Mapping, Sequence

from .errors import EmptyGroup, EmptyHistogram, GapError, NegativeCount, ParseError
from .params import ParentalGroup

BIN_WIDTH = 2500
INCOME_CEILING = 100_000
BINS = INCOME_CEILING // BIN_WIDTH

CHILDREN_KEYS = tuple(str(k) for k in range(8)) + ("8plus",)


class PopulationTable:
    """Immutable container of cumulative bin counts and children counts."""

    def __init__(self, counts: Mapping[tuple[int, ParentalGroup], Sequence[int]],
                 children: Mapping[tuple[int, ParentalGroup], Mapping[str, int]] | None = None):
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
_BIN_INDEX = {lower: i for i, lower in enumerate(range(0, INCOME_CEILING, BIN_WIDTH))}
_BINS_HEADER = ["year", "group", "bin_lower", "bin_upper", "count"]


def _row_key(row: list[str], header: list[str]) -> tuple:
    """A data row's (year, group, bin lower edge or children key), its checks made in the
    loaders' order: width, each field in column order, the bin rule, a negative count."""
    if len(row) != len(header):
        raise ParseError(f"expected {len(header)} fields, got {len(row)}")
    value = {}
    for raw, field in zip(row, header):
        if field == "group" and raw.strip() not in _GROUPS:
            raise ParseError(f"unknown group {raw.strip()!r}")
        if field == "children" and raw.strip() not in CHILDREN_KEYS:
            raise ParseError(f"children must be one of {CHILDREN_KEYS}")
        try:
            value[field] = raw.strip() if field in ("group", "children") else int(raw)
        except ValueError:
            raise ParseError(f"field {field!r} is not an integer: {raw.strip()!r}") from None
    key = value.get("bin_lower", value.get("children"))
    if "bin_lower" in value and (key not in _BIN_INDEX or value["bin_upper"] != key + BIN_WIDTH):
        raise ParseError(f"bin must be {BIN_WIDTH} wide, start on a multiple of {BIN_WIDTH} "
                         f"and end by {INCOME_CEILING}")
    if value["count"] < 0:
        raise NegativeCount(f"negative count {value['count']}")
    return value["year"], value["group"], key


def _read_cells(path: Path, header: list[str]) -> dict:
    """A CSV file with `header` as {(year, group): cell}, in one pass. A bin file's cell is its
    BINS counts, lowest bin first and -1 where no row gave one; a children file's is {key:
    count}. An error names the file and line, and a key repeated in a cell both lines."""
    data = path.read_bytes()
    try:
        data.decode("utf-8")  # whole, so an error's position is the file offset
    except UnicodeDecodeError as exc:  # bytes end a line where csv does: at \r\n, \r or \n
        raise ParseError(f"{path}:{len(data[:exc.start + 1].splitlines())}: {exc}") from None
    cells = defaultdict(lambda: [-1] * BINS) if header is _BINS_HEADER else defaultdict(dict)
    # Parsed from a chunked decoder: a StringIO of the whole text would hold 4 bytes a character.
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
    try:
        if next(reader, None) != header:
            raise ParseError(f"{path}: header must be {','.join(header)}")
        if header is _BINS_HEADER:
            for row in filter(None, reader):  # blank lines skipped
                year, group, lower, upper, count = row
                cell = cells[int(year), _GROUPS[group.strip()]]
                i, count = _BIN_INDEX[int(lower)], int(count)
                if int(upper) != (i + 1) * BIN_WIDTH or count < 0 or cell[i] >= 0:
                    raise ValueError
                cell[i] = count
        else:
            for row in filter(None, reader):
                year, group, key, count = row
                cell = cells[int(year), _GROUPS[group.strip()]]
                key, count = key.strip(), int(count)
                if key not in CHILDREN_KEYS or count < 0 or key in cell:
                    raise ValueError
                cell[key] = count
    except csv.Error as exc:
        raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
    except (ValueError, KeyError):  # a refused row: the first check it fails, else a duplicate
        try:
            key = _row_key(row, header)
            again = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
            first = next(again.line_num for row in again  # the header is line 1
                         if again.line_num > 1 and row and _row_key(row, header) == key)
            raise ParseError(f"duplicate row, first seen on line {first}")
        except (ParseError, NegativeCount) as exc:
            raise type(exc)(f"{path}:{reader.line_num}: {exc}") from None
    return cells


def load_population(path: str | Path, children_path: str | Path | None = None) -> PopulationTable:
    """Load bin counts (and optionally children histograms) from CSV files. Each cell must
    hold all BINS bins; an error about a cell or the years names the file."""
    path = Path(path)
    counts = _read_cells(path, _BINS_HEADER)
    for (year, group), bins in counts.items():
        if -1 in bins:
            raise GapError(f"{path}: year {year} {group.value}: no bin starting at "
                           f"{bins.index(-1) * BIN_WIDTH}")
        if not any(bins):
            raise EmptyGroup(f"{path}: year {year} {group.value}: population has zero total")

    years = sorted({year for year, _ in counts})
    if years and years[-1] - years[0] + 1 != len(years):
        raise GapError(f"{path}: years are not contiguous: {years}")

    children = (_read_cells(Path(children_path), ["year", "group", "children", "count"])
                if children_path else {})
    return PopulationTable(counts, children)
