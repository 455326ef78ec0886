from fractions import Fraction

import pytest

from ctcsim import ParentalGroup, load_population
from ctcsim.errors import EmptyGroup, EmptyHistogram, GapError, NegativeCount, ParseError
from ctcsim.population import ChildrenHistogram


def write_population(tmp_path, rows):
    f = tmp_path / "pop.csv"
    f.write_text("year,group,bin_lower,bin_upper,count\n" + "\n".join(rows) + "\n")
    return f


def full_rows(year="2010", group="married", count=10):
    return [f"{year},{group},{lo},{lo + 2500},{count}" for lo in range(0, 100_000, 2500)]


class TestLoad:
    def test_fixture_shape(self, pop):
        assert pop.years() == list(range(2003, 2019))
        for year in pop.years():
            assert pop.groups(year) == list(ParentalGroup)
            for group in ParentalGroup:
                assert len(pop.bins(year, group)) == 40

    def test_totals_match_column_sums(self, pop, data_dir):
        # Loading is lossless: per-group totals equal the raw CSV sums.
        raw: dict[tuple[str, str], int] = {}
        with open(data_dir / "population.csv") as fh:
            next(fh)
            for line in fh:
                year, group, _, _, count = line.strip().split(",")
                raw[(int(year), group)] = raw.get((int(year), group), 0) + int(count)
        for (year, group), total in raw.items():
            assert pop.total(year, ParentalGroup(group)) == total

    def test_group_with_zero_total_rejected(self, tmp_path):
        rows = full_rows() + full_rows(group="single_father", count=0)
        with pytest.raises(EmptyGroup, match="2010 single_father: population has zero total"):
            load_population(write_population(tmp_path, rows))

    def test_gap_detected(self, tmp_path):
        rows = full_rows()
        del rows[1]  # remove [2500, 5000)
        with pytest.raises(GapError):
            load_population(write_population(tmp_path, rows))

    def test_truncated_coverage_detected(self, tmp_path):
        rows = full_rows()[:-1]
        with pytest.raises(GapError):
            load_population(write_population(tmp_path, rows))

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
            table.bins(2010, ParentalGroup.SINGLE_FATHER)

    def test_noncontiguous_years_rejected(self, tmp_path):
        rows = full_rows("2010") + full_rows("2012")
        with pytest.raises(GapError):
            load_population(write_population(tmp_path, rows))

    def test_single_year_is_contiguous(self, tmp_path):
        table = load_population(write_population(tmp_path, full_rows("2018")))
        assert table.years() == [2018]

    def test_duplicate_bin_names_both_lines(self, tmp_path):
        rows = full_rows() + ["2010,married,2500,5000,7"]
        path = write_population(tmp_path, rows)
        with pytest.raises(ParseError) as raised:
            load_population(path)
        assert str(raised.value) == f"{path}:42: duplicate row, first seen on line 3"


class TestChildren:
    def test_all_one(self):
        h = ChildrenHistogram({"1": 25})
        assert h.average() == 1

    def test_eight_plus_counts_as_eight(self):
        h = ChildrenHistogram({"8plus": 10})
        assert h.average() == 8

    def test_weighted_mean(self):
        h = ChildrenHistogram({"0": 1, "1": 2, "2": 3, "8plus": 4})
        assert h.average() == Fraction(0 + 2 + 6 + 32, 10)

    def test_empty(self):
        with pytest.raises(EmptyHistogram):
            ChildrenHistogram({}).average()

    def test_scale_invariance(self):
        h = ChildrenHistogram({"0": 3, "2": 5, "5": 1})
        scaled = ChildrenHistogram({k: 7 * v for k, v in h.counts.items()})
        assert h.average() == scaled.average()

    def test_duplicate_children_row_names_both_lines(self, tmp_path):
        children = tmp_path / "children.csv"
        children.write_text("year,group,children,count\n2010,married,0,5\n"
                            "2010,married,1,3\n2010,married,0,5\n")
        with pytest.raises(ParseError) as raised:
            load_population(write_population(tmp_path, full_rows()), children)
        assert str(raised.value) == f"{children}:4: duplicate row, first seen on line 2"

    def test_average_children_is_the_histogram_average(self, pop):
        for year in pop.years():
            for group in ParentalGroup:
                average = pop.children_histogram(year, group).average()
                assert pop.average_children(year, group) == average

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

