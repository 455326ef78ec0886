import json
import sys
from pathlib import Path

import pytest
from hypothesis import settings

# Property tests draw the same examples on every run, so a pass or a failure
# repeats; no example database replays earlier failures first.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
DATA = ROOT / "data"
sys.path.insert(0, str(TESTS))

from ctcsim import load_params, load_population


@pytest.fixture(scope="session")
def params_by_year():
    return load_params(DATA / "params.json")


@pytest.fixture(scope="session")
def pop():
    return load_population(DATA / "population.csv", DATA / "children.csv")


@pytest.fixture(scope="session")
def benchmarks():
    with open(DATA / "benchmarks.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def data_dir():
    return DATA


def _edited_population(path, edit):
    """A copy of the shipped population CSV with `edit(row)` applied to each data row."""
    lines = (DATA / "population.csv").read_text().splitlines()
    rows = [edit(line.split(",")) for line in lines[1:]]
    path.write_text("\n".join([lines[0], *(",".join(r) for r in rows)]) + "\n")
    return path


@pytest.fixture(scope="session")
def bad_populations(tmp_path_factory):
    """Edited copies of the shipped population, each with one group empty in its own way.

    `zero_group`: every 2010 single_father count is 0, so that group has no total.
    `no_baseline`: every 2017 single_father household is in the $0-2,500 bin, so
    none has full relief at baseline.
    """
    tmp = tmp_path_factory.mktemp("bad_populations")

    def zero_group(row):
        year, group, lower, upper, _ = row
        if (year, group) != ("2010", "single_father"):
            return row
        return [year, group, lower, upper, "0"]

    def no_baseline(row):
        year, group, lower, upper, _ = row
        if (year, group) != ("2017", "single_father"):
            return row
        return [year, group, lower, upper, "1000" if lower == "0" else "0"]

    return {"zero_group": _edited_population(tmp / "zero_group.csv", zero_group),
            "no_baseline": _edited_population(tmp / "no_baseline.csv", no_baseline)}
