import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctcsim import ParentalGroup, load_population
from ctcsim.errors import EmptyGroup, EmptyHistogram, GapError, NegativeCount, ParseError
from ctcsim.population import PopulationTable

from conftest import DATA
from oracle import load_population_reference


def write_population(tmp_path, rows):
    f = tmp_path / "pop.csv"
    f.write_text("year,group,bin_lower,bin_upper,count\n" + "\n".join(rows) + "\n")
    return f


def full_rows(year="2010", group="married", count=10):
    return [f"{year},{group},{lo},{lo + 2500},{count}" for lo in range(0, 100_000, 2500)]


class TestLoad:
    def test_fixture_shape(self, pop):
        for year in range(2003, 2019):
            for group in ParentalGroup:
                cum = pop.cumulative(year, group)
                assert len(cum) == 41 and cum[0] == 0 and list(cum) == sorted(cum)
        for year in (2002, 2019):
            with pytest.raises(EmptyGroup):
                pop.cumulative(year, ParentalGroup.MARRIED)

    def test_totals_match_column_sums(self, pop, data_dir):
        # Loading is lossless: per-group totals equal the raw CSV sums.
        raw: dict[tuple[str, str], int] = {}
        with open(data_dir / "population.csv") as fh:
            next(fh)
            for line in fh:
                year, group, _, _, count = line.strip().split(",")
                raw[(int(year), group)] = raw.get((int(year), group), 0) + int(count)
        for (year, group), total in raw.items():
            assert pop.cumulative(year, ParentalGroup(group))[-1] == total

    def test_group_with_zero_total_rejected(self, tmp_path):
        rows = full_rows() + full_rows(group="single_father", count=0)
        path = write_population(tmp_path, rows)
        with pytest.raises(EmptyGroup) as raised:
            load_population(path)
        assert str(raised.value) == f"{path}: year 2010 single_father: population has zero total"

    def test_gap_detected(self, tmp_path):
        rows = full_rows()
        del rows[1]  # remove [2500, 5000)
        path = write_population(tmp_path, rows)
        with pytest.raises(GapError) as raised:
            load_population(path)
        assert str(raised.value) == f"{path}: year 2010 married: no bin starting at 2500"

    def test_truncated_coverage_detected(self, tmp_path):
        rows = full_rows()[:-1]
        path = write_population(tmp_path, rows)
        with pytest.raises(GapError) as raised:
            load_population(path)
        assert str(raised.value) == f"{path}: year 2010 married: no bin starting at 97500"

    @pytest.mark.parametrize("row", ["2010,married,1000,3500,10", "2010,married,0,5000,10",
                                     "2010,married,-2500,0,10", "2010,married,100000,102500,10"],
                             ids=["misaligned", "wide", "below-zero", "at-ceiling"])
    def test_bin_rule_checked_on_its_row(self, tmp_path, row):
        rows = full_rows()
        rows[1] = row
        path = write_population(tmp_path, rows)
        with pytest.raises(ParseError) as raised:
            load_population(path)
        assert str(raised.value) == (f"{path}:3: bin must be 2500 wide, start on a multiple "
                                     "of 2500 and end by 100000")

    def test_negative_count(self, tmp_path):
        rows = full_rows()
        rows[3] = "2010,married,7500,10000,-3"
        with pytest.raises(NegativeCount):
            load_population(write_population(tmp_path, rows))

    def test_bad_width(self, tmp_path):
        rows = full_rows()
        rows[0] = "2010,married,0,5000,10"
        with pytest.raises(ParseError):
            load_population(write_population(tmp_path, rows))

    def test_bins_at_or_above_ceiling_rejected(self, tmp_path):
        rows = full_rows() + ["2010,married,100000,102500,5"]
        with pytest.raises(ParseError):
            load_population(write_population(tmp_path, rows))

    def test_unknown_group(self, tmp_path):
        rows = ["2010,extended_family,0,2500,1"]
        with pytest.raises(ParseError):
            load_population(write_population(tmp_path, rows))

    def test_missing_group_raises_on_access(self, tmp_path):
        table = load_population(write_population(tmp_path, full_rows()))
        with pytest.raises(EmptyGroup):
            table.cumulative(2010, ParentalGroup.SINGLE_FATHER)

    def test_noncontiguous_years_rejected(self, tmp_path):
        rows = full_rows("2010") + full_rows("2012")
        path = write_population(tmp_path, rows)
        with pytest.raises(GapError) as raised:
            load_population(path)
        assert str(raised.value) == f"{path}: years are not contiguous: [2010, 2012]"

    def test_single_year_is_contiguous(self, tmp_path):
        table = load_population(write_population(tmp_path, full_rows("2018")))
        assert table.cumulative(2018, ParentalGroup.MARRIED) == tuple(range(0, 401, 10))

    def test_duplicate_bin_names_both_lines(self, tmp_path):
        rows = full_rows() + ["2010,married,2500,5000,7"]
        path = write_population(tmp_path, rows)
        with pytest.raises(ParseError) as raised:
            load_population(path)
        assert str(raised.value) == f"{path}:42: duplicate row, first seen on line 3"


def average(counts):
    """The average children of one cell with respondent counts `counts`."""
    return PopulationTable({}, {(2010, ParentalGroup.MARRIED): counts}).average_children(
        2010, ParentalGroup.MARRIED)


class TestChildren:
    def test_all_one(self):
        assert average({"1": 25}) == 1

    def test_eight_plus_counts_as_eight(self):
        assert average({"8plus": 10}) == 8

    def test_weighted_mean(self):
        assert average({"0": 1, "1": 2, "2": 3, "8plus": 4}) == Fraction(0 + 2 + 6 + 32, 10)

    def test_empty(self):
        with pytest.raises(EmptyHistogram):
            average({})

    def test_no_children(self):
        with pytest.raises(EmptyHistogram, match="year 2010, group married has no children"):
            average({"0": 4})

    def test_scale_invariance(self):
        counts = {"0": 3, "2": 5, "5": 1}
        assert average(counts) == average({k: 7 * v for k, v in counts.items()})

    def test_duplicate_children_row_names_both_lines(self, tmp_path):
        children = tmp_path / "children.csv"
        children.write_text("year,group,children,count\n2010,married,0,5\n"
                            "2010,married,1,3\n2010,married,0,5\n")
        with pytest.raises(ParseError) as raised:
            load_population(write_population(tmp_path, full_rows()), children)
        assert str(raised.value) == f"{children}:4: duplicate row, first seen on line 2"

    def test_average_children_is_the_histogram_average(self, pop):
        for year in range(2003, 2019):
            for group in ParentalGroup:
                counts = pop._children[(year, group)]
                weighted = sum((8 if key == "8plus" else int(key)) * n
                               for key, n in counts.items())
                assert pop.average_children(year, group) == Fraction(weighted, sum(counts.values()))

    def test_empty_histogram_raises_at_lookup_not_load(self, tmp_path):
        children = tmp_path / "children.csv"
        children.write_text("year,group,children,count\n2010,married,0,0\n"
                            "2010,single_mother,2,4\n")
        table = load_population(write_population(tmp_path, full_rows()), children)
        assert table.average_children(2010, ParentalGroup.SINGLE_MOTHER) == 2
        with pytest.raises(EmptyHistogram, match="no respondents"):
            table.average_children(2010, ParentalGroup.MARRIED)
        with pytest.raises(EmptyHistogram, match="no children histogram"):
            table.average_children(2010, ParentalGroup.SINGLE_FATHER)

    def test_fixture_averages_match_benchmarks(self, pop, benchmarks):
        for group in ParentalGroup:
            for year in range(2003, 2019):
                want = Fraction(str(benchmarks["children_average"][group.value][year - 2003]))
                assert pop.average_children(year, group) == want


class TestLineNumbers:
    """An error names the file's line, blank lines counted, and a row of the wrong width."""

    def shipped_with(self, tmp_path, name, edit):
        lines = (DATA / name).read_text().splitlines()
        edit(lines)
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n")
        return path

    def load(self, population=None, children=None):
        return load_population(population or DATA / "population.csv",
                               children or DATA / "children.csv")

    def test_population_line_after_a_blank_line(self, tmp_path):
        def edit(lines):
            lines[3:4] = ["", lines[3].replace("married", "xmarried", 1)]

        path = self.shipped_with(tmp_path, "population.csv", edit)
        with pytest.raises(ParseError) as raised:
            self.load(population=path)
        assert str(raised.value) == f"{path}:5: unknown group 'xmarried'"

    def test_children_line_after_a_blank_line(self, tmp_path):
        def edit(lines):
            lines[3:4] = ["", "", lines[3].replace(",2,", ",9,", 1)]

        path = self.shipped_with(tmp_path, "children.csv", edit)
        with pytest.raises(ParseError) as raised:
            self.load(children=path)
        assert str(raised.value).startswith(f"{path}:6: children must be one of ")

    @pytest.mark.parametrize("name", ["population.csv", "children.csv"])
    def test_duplicate_names_both_lines_after_blank_lines(self, tmp_path, name):
        def edit(lines):
            lines[2:2] = [""]  # the first data row stays on line 2
            lines.extend(["", lines[1]])

        path = self.shipped_with(tmp_path, name, edit)
        total = len((DATA / name).read_text().splitlines()) + 3
        with pytest.raises(ParseError) as raised:
            self.load(**{name.split(".")[0]: path})
        assert str(raised.value) == f"{path}:{total}: duplicate row, first seen on line 2"

    @pytest.mark.parametrize("name, row, message", [
        ("population.csv", "2003,married,0,2500,5,99", "expected 5 fields, got 6"),
        ("population.csv", "2003,married,0,2500", "expected 5 fields, got 4"),
        ("population.csv", "2003", "expected 5 fields, got 1"),
        ("children.csv", "2003,married,0,5,1", "expected 4 fields, got 5"),
        ("children.csv", "2003,married,0", "expected 4 fields, got 3"),
    ])
    def test_row_of_the_wrong_width(self, tmp_path, name, row, message):
        def edit(lines):
            lines[1] = row

        path = self.shipped_with(tmp_path, name, edit)
        with pytest.raises(ParseError) as raised:
            self.load(**{name.split(".")[0]: path})
        assert str(raised.value) == f"{path}:2: {message}"

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_decode_error_counts_lines_as_csv_does(self, tmp_path, end):
        """Lines end at LF, CR LF or a lone CR, for a byte that is not UTF-8 as for a bad
        field: each error on the third line names line 3."""
        lines = (DATA / "population.csv").read_bytes().splitlines()
        path = tmp_path / "population.csv"
        for bad, message in [(b"\xff", "'utf-8' codec can't decode byte 0xff in position "),
                             (b"x", "unknown group 'xmarried'")]:
            edited = lines[:2] + [lines[2].replace(b"married", bad + b"married", 1)] + lines[3:]
            path.write_bytes(end.encode().join(edited) + end.encode())
            with pytest.raises(ParseError) as raised:
                self.load(population=path)
            assert str(raised.value).startswith(f"{path}:3: {message}")


# ---------------------------------------------------------------------------
# The loader against its DictReader reference, on corrupted copies of the shipped files

SHIPPED = {name: [line.split(",") for line in (DATA / name).read_text().splitlines()]
           for name in ("population.csv", "children.csv")}
# Field texts, good and bad: integers, groups and children keys.
INTS = ["x", "", " ", "1.5", "-0", "+7", " 42 ", "1_000", "0x10", "\uff11\uff12", "nan", "2010",
        "-3"]
GROUPS = ["married", " married ", "Married", "xmarried", "single_father", "single_mother ", ""]
KEYS = ["0", " 3", "8plus", " 8plus", "8+", "9", "-1", ""]
HEADERS = {
    "population.csv": ["year,group,bin_lower,count,bin_upper", "Year,group,bin_lower,bin_upper,count",
                       "year,group,bin_lower,bin_upper", "year,group,bin_lower,bin_upper,count,x",
                       "year, group,bin_lower,bin_upper,count", ""],
    "children.csv": ["year,group,count,children", "year,group,kids,count", "year,group,children",
                     "year,group,children,count,", ""],
}


@st.composite
def corrupted(draw):
    """Both shipped files with one to three edits that keep every row five or four fields wide."""
    files = {name: [list(row) for row in rows] for name, rows in SHIPPED.items()}
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(sorted(files)))
        rows = files[name]
        i = draw(st.integers(1, len(rows) - 1))
        kinds = ["year", "group", "count", "negative", "duplicate", "delete", "empty", "move",
                 "header", "bin" if name == "population.csv" else "key"]
        kind = draw(st.sampled_from(kinds))
        if kind in ("year", "group", "count", "key"):
            column = {"year": 0, "group": 1, "count": -1, "key": 2}[kind]
            texts = {"group": GROUPS, "key": KEYS}.get(kind, INTS)
            rows[i][column] = draw(st.sampled_from(texts))
        elif kind == "negative":
            rows[i][-1] = str(-draw(st.integers(1, 10**6)))
        elif kind == "bin":  # a bin moved, perhaps out of range or onto another, or resized
            lower = draw(st.sampled_from([-2500, 0, 2500, 50000, 97500, 100000]))
            rows[i][2:4] = [str(lower), str(lower + draw(st.sampled_from([2500, 2500, 2499, 5000])))]
        elif kind == "duplicate":
            rows.insert(draw(st.integers(1, len(rows))), list(rows[i]))
        elif kind == "delete":
            del rows[i]
        elif kind == "empty":  # every count of the row's (year, group) zero
            for row in rows[1:]:
                if row[:2] == rows[i][:2]:
                    row[-1] = "0"
        elif kind == "move":  # a whole year moved: a gap, or duplicates
            old, new = rows[i][0], draw(st.sampled_from(["2002", "2019", "2030", "2004"]))
            for row in rows[1:]:
                if row[0] == old:
                    row[0] = new
        elif kind == "header":
            rows[0] = draw(st.sampled_from(HEADERS[name])).split(",")
    return {name: "\n".join(",".join(row) for row in rows) + "\n" for name, rows in files.items()}


def _texts(edits=()):
    """The shipped files as text, with each (file, line, row) of `edits` put in place."""
    files = {name: [",".join(row) for row in rows] for name, rows in SHIPPED.items()}
    for name, line, row in edits:
        files[name][line - 1] = row
    return {name: "\n".join(lines) + "\n" for name, lines in files.items()}


def _rewritten(texts, line, bom=""):
    """`texts` with `line` applied to each line before its LF, and `bom` put first in each."""
    return {name: bom + "".join(line(text) + "\n" for text in body.splitlines())
            for name, body in texts.items()}


def _outcome(load, population, children):
    try:
        table = load(population, children)
    except Exception as exc:  # any type: both loaders must raise the same one
        return type(exc), str(exc)
    return table._cum, table._children


@settings(max_examples=150, deadline=None)
@given(corrupted())
@example(_texts())
@example(_texts([("population.csv", 2, "2003,married,-2500,0,5")]))
@example(_texts([("population.csv", 41, "2003,married,100000,102500,5")]))
@example(_texts([("population.csv", 3, "2003,married,2500,7500,5")]))
@example(_texts([("population.csv", 3, "2003,married,1000,3500,5")]))
@example(_texts([("population.csv", 3, "2003,Married,2500,5000,5")]))
@example(_texts([("children.csv", 3, "2003,married,8+,5")]))
@example(_rewritten(_texts(), lambda line: line + "\r"))  # CR LF line ends
@example(_rewritten(_texts([("population.csv", 4, "2003,married,0,2500,5")]),
                    lambda line: line + "\r"))
@example(_rewritten(_texts(), lambda line: '"' + line.replace(",", '","') + '"'))
@example(_rewritten(_texts(), lambda line: line, bom="\ufeff"))  # a header error in both
def test_loader_matches_dictreader_reference(texts):
    with tempfile.TemporaryDirectory() as tmp:
        population, children = Path(tmp) / "population.csv", Path(tmp) / "children.csv"
        population.write_text(texts["population.csv"], encoding="utf-8")
        children.write_text(texts["children.csv"], encoding="utf-8")
        assert (_outcome(load_population, population, children)
                == _outcome(load_population_reference, population, children))
