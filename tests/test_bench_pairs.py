"""tools/bench_pairs.py: run order and the record, without running the benchmark."""

import hashlib
import importlib.util
import json
import subprocess

import pytest

from conftest import ROOT

spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


@pytest.mark.parametrize("workloads", [["a"], ["a", "b"], ["a", "b", "c"], ["a", "b", "c", "d"]])
def test_first_side_alternates_within_each_workload(workloads):
    runs = list(bench_pairs.schedule(list(range(101, 107)), workloads))
    assert len(runs) == 6 * len(workloads)
    for workload in workloads:
        firsts = [order[0] for _, w, order in runs if w == workload]
        assert firsts == ["parent", "change"] * 3
    assert all(sorted(order) == ["change", "parent"] for _, _, order in runs)


def test_a_run_keeps_its_unscaled_times(monkeypatch, tmp_path):
    """`run_once` reads the result line and, from the record line before it, the raw setup
    and op times. It runs the child with bytecode writes off."""
    record = {"workload": "x", "samples": {"raw_setup_s_each": [0.11, 0.12], "raw_op_p50_ms": 4.5,
                                           "setup_s_each": [0.1, 0.1]}}
    result = {"correct": True, "attempted": 9, "failed": 0,
              "metrics": {"setup_s": {"value": 0.1, "unit": "s"}}}
    stdout = "\n".join(["warming up", json.dumps(record), json.dumps(result)]) + "\n"
    envs = []

    def run(*args, **kwargs):
        envs.append(kwargs["env"])
        return subprocess.CompletedProcess(args, 0, stdout, "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    assert bench_pairs.run_once(tmp_path, "x", 1, 1.0) == {
        "correct": True, "attempted": 9, "failed": 0, "metrics": {"setup_s": 0.1},
        "samples": {"raw_setup_s_each": [0.11, 0.12], "raw_op_p50_ms": 4.5}}
    assert [env["PYTHONDONTWRITEBYTECODE"] for env in envs] == ["1"]


def mocked_record(tmp_path, monkeypatch, seeds, outcome=lambda side, workload, seed: (True, 0)):
    """The record of a mocked run in which the change always reads 2.0 and the parent 3.0;
    `outcome` gives each run's (correct, failed)."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    for side in (parent, change):
        side.mkdir()
    (change / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    def run_once(checkout, workload, seed, seconds):
        side = "change" if checkout == change else "parent"
        correct, failed = outcome(side, workload, seed)
        return {"correct": correct, "attempted": 1, "failed": failed,
                "metrics": {m["name"]: 2.0 if side == "change" else 3.0 for m in metrics}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--seeds", seeds,
                             "--workloads", "x,y", "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_one_pair_still_writes_the_record(tmp_path, monkeypatch):
    record = mocked_record(tmp_path, monkeypatch, "7:7")
    assert record["pairs_per_workload"] == 1
    assert [r["first"] for r in record["runs"]] == ["parent", "parent"]
    p50 = record["workloads"]["y"]["op_p50_ms"]
    assert p50["parent"] == {"median": 3.0, "q1": 3.0, "q3": 3.0}
    assert p50["change"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert p50["change_wins"] == 1 and p50["gain_claimable"]


def test_the_record_flags_each_metric_worse_than_its_bound(tmp_path, monkeypatch):
    """The mocked change reads 2.0 to the parent's 3.0: a third lower, which is a gain where
    lower is better and, past every bound in BENCHMARK.json, a regression where higher is."""
    workloads = mocked_record(tmp_path, monkeypatch, "1:3")["workloads"]
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]:
        for workload in ("x", "y"):
            assert workloads[workload][m["name"]]["regressed"] == (m["better"] == "higher")


def test_each_workload_and_metric_prints_its_verdict(tmp_path, monkeypatch, capsys):
    """After the record, stdout holds one line per workload and metric: the medians, the
    change in percent, the pairs won, `gain_claimable` and `regressed`, as the record has
    them. The mocked change reads 2.0 to the parent's 3.0 in each of three pairs."""
    mocked_record(tmp_path, monkeypatch, "1:3")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert capsys.readouterr().out.splitlines() == [
        f"{workload} {m['name']}: parent 3 change 2 (-33.3%), "
        f"wins {3 if m['better'] == 'lower' else 0}/3, "
        f"gain_claimable {m['better'] == 'lower'}, regressed {m['better'] == 'higher'}"
        for workload in ("x", "y") for m in metrics]


@pytest.mark.parametrize("better, parent, change, regressed", [
    ("lower", 10.0, 12.4, False), ("lower", 10.0, 12.6, True), ("lower", 10.0, 7.0, False),
    ("higher", 10.0, 7.6, False), ("higher", 10.0, 7.4, True), ("higher", 10.0, 13.0, False),
    ("lower", -10.0, -7.4, True), ("higher", 0.0, -0.1, True), ("higher", 0.0, 0.0, False),
])
def test_regressed_compares_the_medians_against_the_bound(better, parent, change, regressed):
    """`regressed` holds when the change's median is worse than the parent's by more than
    the bound, 0.25 here, times the parent's median; single runs worse than the parent's
    do not decide it."""
    metric = {"name": "m", "unit": "u", "better": better, "bound": 0.25}
    off = {"lower": 100.0, "higher": -100.0}[better]  # one pair far worse, the median unmoved
    runs = [{"workload": "w", "parent": {"correct": True, "failed": 0, "metrics": {"m": p}},
             "change": {"correct": True, "failed": 0, "metrics": {"m": c}}}
            for p, c in [(parent, change), (parent, change), (parent, change + off)]]
    summary = bench_pairs.summarise(runs, [metric])["w"]["m"]
    assert summary["change"]["median"] == change
    assert summary["regressed"] is regressed


@pytest.mark.parametrize("side", ["parent", "change"])
@pytest.mark.parametrize("outcome", [(False, 0), (True, 1)], ids=["incorrect", "failed-op"])
def test_no_gain_is_claimable_from_an_incorrect_run(tmp_path, monkeypatch, side, outcome):
    def bad_once(run_side, workload, seed):
        return outcome if (run_side, workload, seed) == (side, "y", 3) else (True, 0)

    workloads = mocked_record(tmp_path, monkeypatch, "1:10", bad_once)["workloads"]
    assert workloads["x"]["incorrect_runs"] == {"parent": 0, "change": 0}
    assert workloads["x"]["op_p50_ms"]["gain_claimable"]
    assert workloads["y"]["incorrect_runs"] == {"parent": int(side == "parent"),
                                                "change": int(side == "change")}
    assert workloads["y"]["op_p50_ms"]["change_wins"] == 10
    assert not any(m["gain_claimable"] for name, m in workloads["y"].items()
                   if name != "incorrect_runs")


FAKE_RUN = """import json, sys
sys.path.insert(0, "src")
import m  # a source module, which the run must not cache
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
if {fails}:
    sys.exit("Traceback (most recent call last):\\nRuntimeError: boom " + args["--seed"])
metrics = {{m["name"]: {{"value": 1.0}}
           for m in json.load(open("BENCHMARK.json"))["end_to_end"]}}
print(json.dumps({{"samples": {{"raw_setup_s_each": [0.1], "raw_op_p50_ms": 1.0}}}}))
print(json.dumps({{"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}}))
"""


def test_a_run_that_exits_with_an_error_is_kept_as_incorrect(tmp_path, capsys):
    """Checkouts whose `ctcbench/run.py` imports a source module and prints its two lines;
    the change's exits 1 on workload y and on seed 2. The set still runs to the end and
    writes its record. Both sides run from source: the stale bytecode caches each held are
    removed, and no run writes one."""
    sides = {"parent": "False", "change": 'args["--workload"] == "y" or args["--seed"] == "2"'}
    for side, fails in sides.items():
        for sub in ("src/__pycache__", "ctcbench/__pycache__"):
            (tmp_path / side / sub).mkdir(parents=True)
            (tmp_path / side / sub / "m.cpython-311.pyc").write_bytes(b"stale")
        (tmp_path / side / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
        (tmp_path / side / "ctcbench" / "run.py").write_text(FAKE_RUN.format(fails=fails))
        (tmp_path / side / "src" / "m.py").write_text(f"side = {side[0]!r}\n")  # differ by a byte
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"), "--seeds", "1:2",
                             "--workloads", "x,y", "--seconds", "0.1", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert list(tmp_path.rglob("__pycache__")) == []
    assert record["code_sha256"] == {side: bench_pairs.code_sha256(tmp_path / side)
                                     for side in sides}
    assert record["code_sha256"]["parent"] != record["code_sha256"]["change"]
    assert record["src_lines"] == {"parent": 1, "change": 1}
    failed = [(r["workload"], r["seed"], r["change"]) for r in record["runs"]
              if "exit_code" in r["change"]]
    assert [(w, s) for w, s, _ in failed] == [("y", 1), ("x", 2), ("y", 2)]
    for _, seed, run in failed:
        assert run == {"correct": False, "attempted": 0, "failed": 0, "exit_code": 1,
                       "error": f"RuntimeError: boom {seed}", "metrics": {}, "samples": {}}
    x, y = record["workloads"]["x"], record["workloads"]["y"]
    assert x["incorrect_runs"] == {"parent": 0, "change": 1}
    assert y["incorrect_runs"] == {"parent": 0, "change": 2}
    assert x["op_p50_ms"]["pairs"] == 1 and not x["op_p50_ms"]["gain_claimable"]
    assert y["op_p50_ms"] == {"unit": "ms", "better": "lower", "pairs": 0,
                              "gain_claimable": False}
    # One verdict line per workload and metric: x from its one whole pair, y from none.
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert capsys.readouterr().out.splitlines() == [
        f"x {name}: parent 1 change 1 (+0.0%), wins 0/1, gain_claimable False, regressed False"
        for name in names] + [f"y {name}: no pair with both runs whole" for name in names]


def fake_checkout(root, files):
    """A directory `root` holding each of `files`, relative path -> bytes."""
    for rel, data in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes(data)
    return root


def test_code_sha256_covers_each_source_path_and_its_bytes(tmp_path):
    """Checkouts with the same `src/` files hash alike whatever else they hold; one byte
    changed, or one file renamed, changes the hash."""
    def checkout(name, files):
        return bench_pairs.code_sha256(fake_checkout(tmp_path / name, files))

    files = {"src/pkg/b.py": b"y = 2\n", "src/pkg/a.py": b"x = 1\n"}
    digest = checkout("base", files)
    assert digest == hashlib.sha256(b"src/pkg/a.py\x006\x00x = 1\n"
                                    b"src/pkg/b.py\x006\x00y = 2\n").hexdigest()
    assert checkout("other", {**files, "src/pkg/__pycache__/a.cpython-311.pyc": b"\0",
                              "tests/t.py": b"z"}) == digest
    assert checkout("byte", {**files, "src/pkg/b.py": b"y = 3\n"}) != digest
    assert checkout("renamed", {"src/pkg/a.py": b"x = 1\n", "src/pkg/c.py": b"y = 2\n"}) != digest


def test_src_lines_counts_the_newlines_of_the_hashed_files(tmp_path):
    """Fake checkouts whose source files differ in line count; files outside `src/` and
    bytecode caches count for nothing, as they hash for nothing."""
    def checkout(name, files):
        return bench_pairs.src_lines(fake_checkout(tmp_path / name, files))

    base = {"src/pkg/a.py": b"x = 1\ny = 2\n", "src/pkg/b.py": b"z = 3\n", "src/README": b"r"}
    assert checkout("base", base) == 3
    assert checkout("other", {
        **base, "src/pkg/__pycache__/a.cpython-311.pyc": b"\n\n", "tests/t.py": b"\n"}) == 3
    assert checkout("longer", {**base, "src/pkg/b.py": b"z = 3\n\n"}) == 4
    assert checkout("shorter", {"src/pkg/a.py": b"x = 1\n"}) == 1
