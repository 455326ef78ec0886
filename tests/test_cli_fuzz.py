"""Argv and parameter-file fuzz: whatever the flags or the parameter values, a command
exits 0, 1 or 2 with at most one stderr line."""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctcsim import cli
from ctcsim.cli import main

from conftest import DATA

SHARED = ["--params", "--population", "--children", "--config", "--scenario", "--years",
          "--format", "--liability", "--out"]
OWN = {"thresholds": ["--year", "--group"], "classify": ["--year", "--group"],
       "piecemeal": ["--table", "--pop-year", "--base-year"],
       "sweep": ["--credits", "--year", "--no-parity"], "priced-out": ["--new-ctc", "--year"],
       "parity": ["--year"], "eliminate-refund": ["--year"], "regress": ["--outcome"],
       "did": ["--outcome", "--post-year"], "report": []}

# Literals json.dumps cannot write, each drawn as its name and put into the file as raw text:
# an integer past the interpreter's digit limit and decimals whose exponent is far too big.
RAW = {"<big integer>": "9" * 4301, "<tiny decimal>": "1e-10000000",
       "<huge decimal>": "1e10000000"}
RAW |= {f"<{name[1:-1]} text>": f'"{text}"' for name, text in RAW.items()}

# Values per flag, good and bad. A flag a command does not take is a usage error.
VALUES = {
    "--years": ["2017", "2016:2018", "2017:2018", "2018:2017", "abc", "1999:2001", "2017:", ""],
    "--year": ["2017", "2018", "2009", "1999", "abc"],
    "--credits": ["500:3600:500", "1000,2000", "-100", "1:x", "0:0:0", "3600:500:100", ""],
    "--outcome": ["d", "cd,bc", "c,d,e", "z", "a,,b", ""],
    "--new-ctc": ["2000", "3000", "1000", "0", "abc"],
    "--post-year": ["2018", "2017", "2003", "2030"],
    "--pop-year": ["2018", "1999"],
    "--base-year": ["2017", "2002"],
    "--table": ["1a", "1b", "2"],
    "--group": ["single_mother", "nobody"],
    "--no-parity": [None],
    "--scenario": ["s1", "s2", "s3"],
    "--liability": ["exact", "table", "bogus"],
    "--format": ["csv", "json", "xml"],
    "--params": ["params", "missing", "directory", "population", "binary"],
    "--population": ["population", "missing", "directory", "params", "binary", "zero_group",
                     "no_baseline"],
    "--children": ["children", "missing", "population", "binary"],
    "--config": ["missing", "params", "config", "raw_config"],
    "--out": ["file", "directory", "missing/out.csv"],
}


def test_the_fuzz_draws_every_command_and_flag():
    assert OWN == {**{name: [flag for flag, _ in c.flags] for name, c in cli.COMMANDS.items()},
                   "report": []}
    assert sorted(SHARED) == sorted(f"--{name}" for name in cli.SHARED)
    assert sorted(VALUES) == sorted({*SHARED, *(flag for flags in OWN.values() for flag in flags)})


def flag_values(names):
    return st.sampled_from(names).flatmap(
        lambda flag: st.tuples(st.just(flag), st.sampled_from(VALUES[flag])))


def argvs(command):
    """Up to four of the command's own flags, then at most one flag of any command."""
    own = st.lists(flag_values(SHARED + OWN[command]), max_size=4, unique_by=lambda p: p[0])
    other = st.lists(flag_values(sorted(VALUES)), max_size=1)
    return st.tuples(st.just(command), own, other)


@pytest.fixture(scope="module")
def paths(tmp_path_factory, bad_populations):
    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "binary").write_bytes(b"\xc0\xff" * 64)
    (tmp / "config.json").write_text('{"years": "2017:2018", "scenario": "s2"}')
    (tmp / "raw_config.json").write_text('{"years": ' + RAW["<big integer>"] + "}")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("CTCSIM_DATA_DIR", str(DATA))
        yield {"missing": str(tmp / "missing.csv"), "directory": str(tmp),
               "params": str(DATA / "params.json"), "population": str(DATA / "population.csv"),
               "children": str(DATA / "children.csv"),
               "binary": str(tmp / "binary"), "config": str(tmp / "config.json"),
               "raw_config": str(tmp / "raw_config.json"),
               "file": str(tmp / "out.csv"), "missing/out.csv": str(tmp / "missing" / "out.csv"),
               **{name: str(path) for name, path in bad_populations.items()}}


@given(st.sampled_from(sorted(OWN)).flatmap(argvs))
@example(("classify", [("--population", "zero_group")], []))
@example(("report", [("--population", "zero_group")], []))
@example(("priced-out", [("--population", "no_baseline")], []))
@example(("report", [("--years", "2016:2018"), ("--population", "no_baseline")], []))
@example(("did", [("--outcome", "a,,b")], []))
@example(("did", [("--years", "2017:2018")], []))
@example(("classify", [("--config", "raw_config")], []))
@settings(max_examples=80, deadline=None)
def test_every_argv_ends_with_a_documented_exit(paths, drawn):
    command, own, other = drawn
    argv = [command]
    for flag, value in own + other:
        argv += [flag] if value is None else [flag, paths.get(value, value)]
    assert_documented_exit(argv)


def assert_documented_exit(argv):
    """`main(argv)` exits 0 silently on stderr, or 1 or 2 with one error line and no stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2), argv
    if code == 0:
        assert lines == [], argv
    else:
        assert len(lines) == 1 and lines[0].startswith(("error: ", "i/o error: ")), (argv, lines)
        assert out.getvalue() == "", argv


RECORDS = json.loads((DATA / "params.json").read_text())
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from(["9500", "0.1", "abc", 2003.5, [5], [{"rate": 0.1}], {}, *RAW]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6)


def params_text(records) -> str:
    """`records` as JSON text, each RAW name in it replaced by its literal."""
    text = json.dumps(records)
    for name, literal in RAW.items():
        text = text.replace(json.dumps(name), literal)
    return text


def with_value(field, value):
    """The shipped parameter records with `field` of the first record set to `value`."""
    records = json.loads(json.dumps(RECORDS))
    records[0][field] = value
    return records


@st.composite
def edited_records(draw):
    """The shipped parameter records with one field of one record, or of one of its
    brackets, replaced by a drawn JSON value."""
    records = json.loads(json.dumps(RECORDS))
    record = draw(st.sampled_from(records))
    target = draw(st.sampled_from([record, *record["brackets"]]))
    target[draw(st.sampled_from(sorted(target)))] = draw(JSON_VALUES)
    return records


@given(records=edited_records(), argv=st.sampled_from([
    ["thresholds"], ["thresholds", "--liability", "table"], ["classify", "--year", "2018"]]))
@example(records=with_value("refund_rate", "<big integer>"), argv=["classify"])
@example(records=with_value("refund_rate", "<tiny decimal>"), argv=["classify"])
@example(records=with_value("refund_rate", "<huge decimal>"), argv=["classify"])
@example(records=with_value("refund_rate", "<big integer text>"), argv=["classify"])
@example(records=with_value("refund_rate", "<tiny decimal text>"), argv=["classify"])
@example(records=with_value("refund_rate", "<huge decimal text>"), argv=["classify"])
@settings(max_examples=80, deadline=None)
def test_every_parameter_value_ends_with_a_documented_exit(paths, records, argv):
    params = Path(paths["directory"]) / "fuzzed-params.json"
    params.write_text(params_text(records))
    assert_documented_exit([*argv, "--params", str(params)])
