"""The shipped data files are exactly what tools/generate_fixtures.py writes."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = ("params.json", "benchmarks.json", "population.csv", "children.csv")


def test_generator_rebuilds_data_byte_identically(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends src/
    spec = importlib.util.spec_from_file_location(
        "generate_fixtures", ROOT / "tools" / "generate_fixtures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.DATA = tmp_path
    module.main()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(FILES)
    for name in FILES:
        assert (tmp_path / name).read_bytes() == (ROOT / "data" / name).read_bytes(), name
