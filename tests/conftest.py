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
