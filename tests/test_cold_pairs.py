"""tools/cold_pairs.py on two tiny fake checkouts, so the real commands never run."""

import hashlib
import importlib.util
import json

from conftest import ROOT

spec = importlib.util.spec_from_file_location("cold_pairs", ROOT / "tools" / "cold_pairs.py")
cold_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cold_pairs)

# A fake package: two commands, each printing its argv; the change's prints "b" differently.
FAKE_CLI = """import sys
COMMANDS = {{"a": None, "b": None}}


def main(argv):
    print(" ".join(argv) + ({suffix!r} if argv == ["b"] else ""))
    return 0
"""


def fake_checkout(root, suffix=""):
    (root / "src" / "ctcsim" / "__pycache__").mkdir(parents=True)
    (root / "src" / "ctcsim" / "__pycache__" / "cli.cpython-311.pyc").write_bytes(b"stale")
    (root / "src" / "ctcsim" / "__init__.py").write_text("")
    (root / "src" / "ctcsim" / "cli.py").write_text(FAKE_CLI.format(suffix=suffix))
    return root


def test_cold_runs_of_every_argv_are_recorded_per_side(tmp_path):
    parent = fake_checkout(tmp_path / "parent")
    change = fake_checkout(tmp_path / "change", suffix=" changed")
    out = tmp_path / "cold.json"
    assert cold_pairs.main(["--parent", str(parent), "--change", str(change),
                            "--rounds", "2", "--out", str(out)]) == 1  # "b" differs
    record = json.loads(out.read_text())
    assert record["rounds"] == 2 and record["compiled"]
    assert record["code_sha256"] == {"parent": cold_pairs.code_sha256(parent),
                                     "change": cold_pairs.code_sha256(change)}
    argvs = record["argvs"]
    assert list(argvs) == ["python -c pass", "import ctcsim.cli", "ctcsim a", "ctcsim b",
                           "ctcsim report", "ctcsim report --liability table",
                           "ctcsim sweep --credits 1:6000:1 --years 2018"]
    for label, entry in argvs.items():
        assert entry["all_exit_zero"]
        assert entry["digests_agree"] == (label != "ctcsim b")
        for side in ("parent", "change"):
            runs = entry[side]
            assert len(runs["wall_s"]) == 2 and runs["exit_codes"] == [0, 0]
            assert 0 < runs["min"] <= runs["median"] == sum(runs["wall_s"]) / 2
    printed = "report --liability table\n".encode()
    assert argvs["ctcsim report --liability table"]["change"]["sha256"] == (
        hashlib.sha256(printed).hexdigest())
    assert argvs["ctcsim b"]["change"]["sha256"] == hashlib.sha256(b"b changed\n").hexdigest()
    # Each side ran from bytecode compiled afresh: the stale caches were replaced.
    for side in (parent, change):
        compiled = list((side / "src" / "ctcsim" / "__pycache__").glob("*.pyc"))
        assert {p.name.split(".")[0] for p in compiled} == {"__init__", "cli"}
        assert all(p.read_bytes() != b"stale" for p in compiled)

