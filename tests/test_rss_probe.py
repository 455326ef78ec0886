"""tools/rss_probe.py on fake checkouts: one fresh child per checkout and repeat."""

import importlib.util
import json

from conftest import ROOT

spec = importlib.util.spec_from_file_location("rss_probe", ROOT / "tools" / "rss_probe.py")
rss_probe = importlib.util.module_from_spec(spec)
spec.loader.exec_module(rss_probe)

# A checkout's `ctcbench/run.py` reduced to what the probe uses. Each op keeps `held`
# MB alive, written so that it is resident; the op at index `fail` raises.
FAKE_RUN = """
def write_inputs(root, seed, dest):
    dest.joinpath("written").write_text(str(seed))
    return dest

def load_oracle(root):
    return None

class Reference:
    def __init__(self, oracle, inputs):
        pass

class RuleSweep:
    def __init__(self, ctcsim, inputs, seed, reference):
        assert inputs.joinpath("written").read_text() == str(seed)
        self.kept, self.ops = [], 0

    def op(self, index):
        if index == {fail}:
            raise RuntimeError("boom at op " + str(index))
        return b"x" * ({held} * 2**20)

    def record(self, index, outcome):
        self.kept.append(outcome)
        self.ops += 1
"""


def fake_checkout(path, held, fail=-1):
    (path / "src" / "ctcsim").mkdir(parents=True)
    (path / "src" / "ctcsim" / "__init__.py").write_text("")
    (path / "src" / "ctcsim" / "cli.py").write_text("")
    (path / "ctcbench").mkdir()
    (path / "ctcbench" / "run.py").write_text(FAKE_RUN.format(held=held, fail=fail))
    return path


def test_each_child_runs_the_ops_and_reads_its_own_peak(tmp_path, capsys):
    light = fake_checkout(tmp_path / "light", held=0)
    heavy = fake_checkout(tmp_path / "heavy", held=2)
    assert rss_probe.main([str(light), str(heavy), "--ops", "30", "--seed", "7",
                           "--repeats", "3"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    children, medians = lines[:6], lines[6:]
    assert [(c["checkout"], c["repeat"]) for c in children] == [
        (str(light), 0), (str(heavy), 0), (str(heavy), 1), (str(light), 1),
        (str(light), 2), (str(heavy), 2)]
    assert all(c["ops"] == 30 for c in children)
    peak = {(c["checkout"], c["repeat"]): c["peak_rss_mb"] for c in children}
    for repeat in range(3):  # 60 MB held, none of it by this process
        assert peak[(str(light), repeat)] < 40
        assert 55 < peak[(str(heavy), repeat)] - peak[(str(light), repeat)] < 70
    assert [(m["checkout"], m["children"]) for m in medians] == [(str(light), 3), (str(heavy), 3)]
    for m in medians:
        assert m["median_peak_rss_mb"] == sorted(v for (c, _), v in peak.items()
                                                 if c == m["checkout"])[1]


def test_a_failing_child_ends_the_probe_with_one_error_line(tmp_path, capsys):
    good = fake_checkout(tmp_path / "good", held=0)
    bad = fake_checkout(tmp_path / "bad", held=0, fail=3)
    assert rss_probe.main([str(good), str(bad), "--ops", "10"]) == 1
    captured = capsys.readouterr()
    assert [json.loads(line)["checkout"] for line in captured.out.splitlines()] == [str(good)]
    assert captured.err == f"error: {bad}: RuntimeError: boom at op 3\n"
