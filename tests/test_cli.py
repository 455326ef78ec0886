import csv
import hashlib
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import threading
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctcsim import counterfactual as cf
from ctcsim.cli import (COMMANDS, SECTIONS, SHARED, _fmt, _json_rows,
                        _own_args, build_parser, main)
from ctcsim.money import format_money

from conftest import DATA


@pytest.fixture(autouse=True)
def data_env(monkeypatch):
    monkeypatch.setenv("CTCSIM_DATA_DIR", str(DATA))


# SHA-256 of the default (exact) report.
REPORT_SHA256 = "4aa013303a98256127d70a22ba7f675393ff03144a2262487399593517d1cc58"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


@pytest.fixture
def refundable_2018(tmp_path):
    """The shipped rules with 2018 made fully refundable: its credit, 2000, reaches the
    default `--new-ctc`."""
    records = json.loads((DATA / "params.json").read_text())
    for record in records:
        if record["year"] == 2018:
            record["actc_per_child"] = 2000
    path = tmp_path / "params.json"
    path.write_text(json.dumps(records))
    return str(path)


class TestThresholds:
    def test_story_year_row(self, capsys):
        code, out = run_cli(capsys, "thresholds", "--scenario", "s1",
                            "--year", "2009", "--group", "single_mother")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        assert abs(float(rows[0]["full_actc"]) - 9667) <= 50
        assert abs(float(rows[0]["full_ctc"]) - 25650) <= 50

    def test_missing_year_is_validation_error(self, capsys):
        code, _ = run_cli(capsys, "thresholds", "--year", "1999")
        assert code == 1

    def test_missing_file_is_io_error(self, capsys):
        code, _ = run_cli(capsys, "thresholds", "--params", "/nonexistent/params.json")
        assert code == 2

    def test_full_table_rows(self, capsys):
        code, out = run_cli(capsys, "thresholds")
        assert code == 0
        assert len(parse_csv(out)) == 16 * 3  # years x groups, one scenario


class TestClassify:
    def test_matches_golden_file(self, capsys):
        code, out = run_cli(capsys, "classify", "--scenario", "s1", "--year", "2017")
        assert code == 0
        golden = (DATA.parent / "tests" / "golden" / "classify_s1_2017.csv").read_text()
        assert out == golden

    def test_round_trips_counts(self, capsys, pop):
        from ctcsim import ParentalGroup

        code, out = run_cli(capsys, "classify", "--scenario", "s2", "--year", "2010")
        assert code == 0
        rows = parse_csv(out)
        by_group = {}
        for r in rows:
            by_group.setdefault(r["group"], []).append(r)
        for group, rs in by_group.items():
            total = sum(int(r["count"]) for r in rs)
            assert total == pop.cumulative(2010, ParentalGroup(group))[-1]
            for r in rs:
                assert abs(float(r["proportion"]) - int(r["count"]) / total) < 1e-6

    def test_json_format(self, capsys):
        code, out = run_cli(capsys, "classify", "--year", "2017", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert {r["category"] for r in rows} == set("abcdef")

    @pytest.mark.parametrize("year,status,start,group,scenario,want", [
        # d runs past the ceiling to $152,500 (s1); e and f start above it.
        (2010, "head_of_household", 150_000, "single_father", "s1",
         "underestimate unavailable unavailable"),
        (2010, "head_of_household", 150_000, "single_father", "s2",
         "underestimate unavailable unavailable"),
        # d ends at $62,500 (s1), wholly inside the data; f starts at the ceiling in s1.
        (2018, "married_joint", 60_000, "married", "s1", "accurate accurate unavailable"),
        (2018, "married_joint", 60_000, "married", "s2", "accurate underestimate unavailable"),
    ])
    def test_flags_follow_the_rules_given(self, capsys, tmp_path, year, status, start, group,
                                          scenario, want):
        records = json.loads((DATA / "params.json").read_text())
        for record in records:
            if (record["year"], record["filing_status"]) == (year, status):
                record["phaseout_start"] = start
        params = tmp_path / "params.json"
        params.write_text(json.dumps(records))
        code, out = run_cli(capsys, "classify", "--params", str(params), "--year", str(year),
                            "--group", group, "--scenario", scenario)
        assert code == 0
        flags = {r["category"]: r["flag"] for r in parse_csv(out)}
        assert " ".join(flags[c] for c in "def") == want
        assert set(flags[c] for c in "abc") == {"accurate"}


class TestAnalyses:
    def test_piecemeal_shape(self, capsys):
        code, out = run_cli(capsys, "piecemeal", "--table", "1a")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 8 * 3
        assert {r["step"] for r in rows} == {str(i) for i in range(1, 9)}

    def test_sweep_shape_and_monotonicity(self, capsys):
        code, out = run_cli(capsys, "sweep", "--credits", "500:3600:100",
                            "--year", "2018", "--scenario", "s1")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 32 * 3
        by_group = {}
        for r in rows:
            by_group.setdefault(r["group"], []).append((int(r["credit"]), float(r["proportion"])))
        for series in by_group.values():
            shares = [p for _, p in sorted(series)]
            assert all(a >= b for a, b in zip(shares, shares[1:]))

    def test_priced_out_2017(self, capsys):
        code, out = run_cli(capsys, "priced-out", "--year", "2017", "--scenario", "s1")
        assert code == 0
        rows = {r["group"]: r for r in parse_csv(out)}
        assert abs(float(rows["married"]["proportion"]) - 0.1472) < 1e-3

    def test_parity_table(self, capsys):
        code, out = run_cli(capsys, "parity")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 9
        after = {r["group"]: float(r["proportion"]) for r in rows if r["step"] == "2"}
        assert abs(after["single_father"] - 0.95) < 1e-3

    def test_eliminate_refund_aggregate(self, capsys):
        code, out = run_cli(capsys, "eliminate-refund", "--scenario", "s2")
        assert code == 0
        rows = parse_csv(out)
        agg = [r for r in rows if r["group"] == "all"]
        assert len(agg) == 1
        assert abs(int(agg[0]["gaining_households"]) - 176_000) <= 1000

    def test_single_year_commands_default_to_the_last_year_of_the_range(self, capsys):
        assert run_cli(capsys, "parity", "--years", "2003:2017") == run_cli(
            capsys, "parity", "--year", "2017")

    @pytest.mark.parametrize("argv, section", [
        (["thresholds"], "thresholds"),
        (["classify"], "eligibility"),
        (["piecemeal", "--table", "1a"], "piecemeal_full_credit"),
        (["piecemeal", "--table", "1b"], "piecemeal_full_refundable"),
        (["parity"], "parity"),
        (["eliminate-refund"], "eliminate_refundability"),
        (["priced-out"], "priced_out"),
        (["sweep", "--credits", "500,1000,1400,2000,3000,3600"], "credit_sweep"),
        (["regress"], "fixed_effects"),
        (["did"], "did"),
    ], ids=lambda v: v if isinstance(v, str) else " ".join(v))
    def test_each_command_matches_its_report_section_over_a_range(self, capsys, argv, section):
        code, out = run_cli(capsys, *argv, "--years", "2003:2017", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        code, out = run_cli(capsys, "report", "--years", "2003:2017")
        assert code == 0
        assert rows and rows == [r for r in json.loads(out)[section] if r["scenario"] == "s1"]

    def test_report_from_the_first_year_leaves_the_walks_empty(self, capsys):
        # The parameter data has no 2002, so the walks have no baseline rules
        # (`piecemeal --years 2003` on its own is an error:
        # test_missing_default_base_year_names_the_flag).
        code, out = run_cli(capsys, "report", "--years", "2003")
        assert code == 0
        bundle = json.loads(out)
        for section in ("piecemeal_full_credit", "piecemeal_full_refundable", "did"):
            assert bundle[section] == []
        for section, (command, flags) in SECTIONS.items():
            if command in ("piecemeal", "did"):
                continue
            argv = [f"--{k}={v}" for k, v in flags.items()]
            code, rows = run_cli(capsys, command, *argv, "--years", "2003", "--format", "json")
            assert code == 0
            assert json.loads(rows) == [r for r in bundle[section] if r["scenario"] == "s1"]

    def test_piecemeal_walks_from_the_year_before_the_population_year(self, capsys):
        code, out = run_cli(capsys, "piecemeal", "--pop-year", "2010")
        assert code == 0
        assert out == run_cli(capsys, "piecemeal", "--pop-year", "2010", "--base-year", "2009")[1]
        labels = {r["step"]: r["label"] for r in parse_csv(out)}
        assert labels["1"] == "2010 rules outright" and labels["2"] == "2009 rules baseline"

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_report_gives_each_command_the_flags_parsing_gives_it(self, name):
        parsed = vars(build_parser().parse_args([name]))
        own = vars(_own_args(name))
        assert set(parsed) - set(SHARED) - {"command", "func"} == set(own)
        assert own == {dest: parsed[dest] for dest in own}

    def test_regress_emits_terms(self, capsys):
        code, out = run_cli(capsys, "regress", "--outcome", "d", "--scenario", "s1")
        assert code == 0
        rows = parse_csv(out)
        terms = {r["term"] for r in rows}
        assert {"const", "single_father", "single_mother"} <= terms
        assert all(set(r) == {"scenario", "outcome", "term", "estimate", "robust_se", "stars"}
                   for r in rows)

    @pytest.mark.parametrize("first_year, nrows", [(2003, 360), (2005, 312)])
    def test_regress_fits_the_years_report_fits(self, capsys, tmp_path, first_year, nrows):
        records = json.loads((DATA / "params.json").read_text())
        params = tmp_path / "params.json"
        params.write_text(json.dumps([r for r in records if r["year"] >= first_year]))
        code, out = run_cli(capsys, "regress", "--format", "json", "--params", str(params))
        assert code == 0
        rows = json.loads(out)
        code, out = run_cli(capsys, "report", "--params", str(params))
        assert code == 0
        assert rows == [r for r in json.loads(out)["fixed_effects"] if r["scenario"] == "s1"]
        assert len(rows) == nrows

    def test_did_emits_interaction(self, capsys):
        code, out = run_cli(capsys, "did", "--outcome", "d")
        assert code == 0
        rows = parse_csv(out)
        assert any(r["term"] == "treated_post" for r in rows)

    def test_saturated_did_has_no_standard_errors(self, capsys):
        # Two groups x two years against four coefficients: no residual df.
        code, out = run_cli(capsys, "did", "--years", "2017:2018")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 3 * 4
        assert all(r["estimate"] and r["robust_se"] == "" and r["stars"] == "" for r in rows)

    def test_priced_out_without_baseline_full_relief(self, capsys, bad_populations):
        population = str(bad_populations["no_baseline"])
        code, out = run_cli(capsys, "priced-out", "--year", "2017", "--population", population)
        assert code == 0
        rows = {r["group"]: r for r in parse_csv(out)}
        assert rows["single_father"]["full_relief_old"] == "0"
        assert rows["single_father"]["proportion"] == ""
        assert abs(float(rows["married"]["proportion"]) - 0.1472) < 1e-3
        code, out = run_cli(capsys, "report", "--years", "2016:2018", "--population", population)
        assert code == 0
        priced = [r for r in json.loads(out)["priced_out"] if r["full_relief_old"] == 0]
        assert [(r["year"], r["group"], r["proportion"]) for r in priced] == [
            (2017, "single_father", ""), (2017, "single_father", "")]

    def test_priced_out_scan_skips_a_year_whose_credit_reaches_the_new_maximum(
            self, capsys, refundable_2018):
        code, out = run_cli(capsys, "priced-out", "--params", refundable_2018, "--scenario", "s1",
                            "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows and 2018 not in {r["year"] for r in rows}
        code, out = run_cli(capsys, "report", "--params", refundable_2018)
        assert code == 0
        assert [r for r in json.loads(out)["priced_out"] if r["scenario"] == "s1"] == rows

    def test_priced_out_scan_asks_priced_out_which_years_it_refuses(self, capsys, monkeypatch):
        """A refusal `priced_out` gains reaches the scan, the report and a named year alike."""
        code, out = run_cli(capsys, "priced-out", "--format", "json")
        assert code == 0
        unpatched = json.loads(out)
        assert 2010 in {r["year"] for r in unpatched}
        refusal = cf.priced_out_refusal
        monkeypatch.setattr(cf, "priced_out_refusal", lambda params, new_ctc: (
            "no baseline in 2010" if params.year == 2010 else refusal(params, new_ctc)))
        code, out = run_cli(capsys, "priced-out", "--format", "json")
        assert code == 0
        assert json.loads(out) == [r for r in unpatched if r["year"] != 2010]
        code, out = run_cli(capsys, "report")
        assert code == 0
        assert 2010 not in {r["year"] for r in json.loads(out)["priced_out"]}
        assert main(["priced-out", "--year", "2010"]) == 1
        assert capsys.readouterr().err == "error: no baseline in 2010\n"

    @pytest.mark.parametrize("new_ctc", ["-5", "0"])
    @pytest.mark.parametrize("year", [[], ["--year", "2010"]], ids=["scan", "year"])
    def test_priced_out_new_credit_not_positive(self, capsys, new_ctc, year):
        # No year's rules make a credit of 0 a raise: the scan too ends with the error.
        assert main(["priced-out", "--new-ctc", new_ctc, *year]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: new credit maximum must be positive, not {new_ctc}\n")

    def test_priced_out_scan_below_every_credit_gives_no_rows(self, capsys):
        # Every parity year's credit is 1000, so a raise to 800 is no raise.
        code, out = run_cli(capsys, "priced-out", "--new-ctc", "800")
        assert (code, out) == (0, "year,scenario,group,full_relief_old,priced_out,proportion\n")


class TestConfigAndDeterminism:
    def test_config_file_with_flag_precedence(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"scenario": "s2", "format": "json"}))
        code, out = run_cli(capsys, "classify", "--year", "2017", "--config", str(config))
        rows = json.loads(out)  # format taken from config
        assert {r["scenario"] for r in rows} == {"s2"}
        code, out = run_cli(capsys, "classify", "--year", "2017", "--config", str(config),
                            "--scenario", "s1", "--format", "csv")
        rows = parse_csv(out)  # flags win
        assert {r["scenario"] for r in rows} == {"s1"}

    @pytest.mark.parametrize("flags, digest", [
        ([], REPORT_SHA256),
        (["--liability", "table"], "96c85aed6143d919fc367b74910f84dfcef924ee9570c4cbe796aabdc18588c8"),
    ], ids=["exact", "table"])
    def test_report_bytes_are_pinned(self, tmp_path, flags, digest):
        out = tmp_path / "report.json"
        assert main(["report", "--out", str(out), *flags]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("seed", ["0", "1"])
    def test_report_bytes_are_the_same_under_any_hash_seed(self, seed):
        """Enum members hash by identity and strings by a per-process seed; no set whose
        order follows those hashes reaches the report."""
        proc = subprocess.run(
            [sys.executable, "-m", "ctcsim.cli", "report"], capture_output=True,
            env={"PATH": "", "PYTHONHASHSEED": seed, "CTCSIM_DATA_DIR": str(DATA),
                 "PYTHONPATH": str(DATA.parent / "src")},
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert hashlib.sha256(proc.stdout).hexdigest() == REPORT_SHA256

    # Commands whose inputs the report pins do not reach: non-default walk
    # years, the S2 walk alone, the full sweep with and without parity, the
    # full-dollar credit curve in both liability modes;
    # and each other command's default CSV table, which the report writes as JSON.
    @pytest.mark.parametrize("argv, digest", [
        (["thresholds"], "371ac8b1157b9b1cd05ea9a7f775364dca8978628a46dbe9dd563a58e746b44b"),
        (["priced-out"], "97f98b7d0d6ec1a9506cae943c6984334f45bca67575775e40f3a030af7e6964"),
        (["parity"], "a46fb2adf2548e1283799d12882a9d1d5fc9750677577f5ae304bc7a5d92abce"),
        (["eliminate-refund"], "235cd0f9c1f7c50628bd37abe5851cd0702b0631c6cdc082eab019ceff38119f"),
        (["regress"], "8e7b3ed3a3ad785f5dbf419e35e9abd5901ea25b3b88677c33867ce8ac6aac6a"),
        (["did"], "584dfbf7a801d279bf05cbf61fa61c9188e96952fb98c7c240e58a4aa82a8bd9"),
        (["piecemeal", "--table", "1a", "--pop-year", "2017", "--base-year", "2010"],
         "955aea302af0a3b469501f628b319a328c64e85eaad8b5719a84b5ca12b09aec"),
        (["piecemeal", "--table", "1b", "--scenario", "s2", "--base-year", "2005"],
         "2a328051e78d7a3cd0107931d442d32509aa20c146b330816ffb859cc6691a83"),
        (["sweep"], "ed2d5785a7450fb3b0cad5d0144f77b9a1ec751a9d775cc12c637d33262d8755"),
        (["sweep", "--no-parity"], "22d5df475ceca7c78005194334af6028355b9472bd762a9ad309f33358305596"),
        (["sweep", "--credits", "1:6000:1", "--years", "2018"],
         "58cc094229758e9ea1f1cbc1c190cecf54a1c1dbf6318969f2c04eb795c95ca6"),
        (["sweep", "--credits", "1:6000:1", "--years", "2018", "--liability", "table"],
         "dd1adcc22d9d5f2c624d89cec7f2a67c7dedeb49e193ea3dcfdd1fcf5adfa0c5"),
    ], ids=["thresholds", "priced-out", "parity", "eliminate-refund", "regress", "did",
            "walk-1a-2010-to-2017", "walk-1b-s2-from-2005", "sweep", "sweep-no-parity",
            "sweep-dollar-grid", "sweep-dollar-grid-table"])
    def test_command_bytes_are_pinned(self, capsys, argv, digest):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    # JSON paths the report pins do not reach: a command's `--format json`
    # table, a report whose `did` and `priced_out` sections are empty, and an
    # empty table (2018 is the only year without refundable parity).
    @pytest.mark.parametrize("argv, digest", [
        (["classify", "--format", "json"],
         "69554c9f4377cccaf73ba796f35ec0820178bce7cfd5c58f907612d9c27772fd"),
        (["regress", "--format", "json"],
         "540666f6e90a542f8848b1c82ae001319ee3c31234d8b33c86e6ecc190646d05"),
        (["report", "--years", "2018"],
         "69381374bb098bf4dd976e01a54ba26c78a26e5b068286fcc3483249d106ab55"),
        (["priced-out", "--years", "2018", "--format", "json"],
         "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
        (["did", "--outcome", "a,b,c,d,e,f,cd,bc", "--scenario", "s2", "--liability", "table",
          "--format", "json"],
         "9e2f085bf844b18ce858dbe040c395dc4cc171a10a7761dd15d69e270bbf9fce"),
    ], ids=["classify-json", "regress-json", "report-2018", "priced-out-2018-json",
            "did-every-outcome-s2-table-json"])
    def test_json_bytes_are_pinned(self, capsys, argv, digest):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("flags, digest", [
        ([], "5be325217e44a22f9725bbdc2d6bbbc5a276b657de928e819b6989359fd3da4d"),
        (["--liability", "table"], "c216f7c82ef2ccfe8fa1a0203cd991e82533baeaa1d411ee7542966365995907"),
    ], ids=["exact", "table"])
    def test_report_bytes_on_non_integer_money_are_pinned(self, capsys, tmp_path, flags, digest):
        # Every money field the inversion scales gets a different denominator.
        records = json.loads((DATA / "params.json").read_text())
        for r in records:
            r["standard_deduction"] += 0.5
            if r["exemption_per_person"]:
                r["exemption_per_person"] += 0.25
            r["refund_threshold"] += 0.75
            for b in r["brackets"]:
                if "upper" in b:
                    b["upper"] += 0.5
        params = tmp_path / "params.json"
        params.write_text(json.dumps(records))
        code, out = run_cli(capsys, "report", "--params", str(params), *flags)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_report_zero_df_fits_have_no_standard_errors(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["report", "--out", str(out)]) == 0
        text = out.read_text()
        assert '"-0.000000"' not in text
        bundle = json.loads(text)
        assert all(r["robust_se"] == "" and r["stars"] == "" for r in bundle["fixed_effects"])
        assert all(r["robust_se"] != "" for r in bundle["did"])

    def test_report_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["report", "--out", str(a)]) == 0
        assert main(["report", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_report_reads_csv_files_with_crlf_line_ends(self, tmp_path, monkeypatch):
        """The shipped inputs with each CSV line ended by CR LF, as ``sed 's/$/\\r/'`` makes
        them, give the shipped report byte for byte."""
        for path in DATA.iterdir():
            data = path.read_bytes()
            (tmp_path / path.name).write_bytes(
                data.replace(b"\n", b"\r\n") if path.suffix == ".csv" else data)
        assert b"\r\n" in (tmp_path / "children.csv").read_bytes()
        monkeypatch.setenv("CTCSIM_DATA_DIR", str(tmp_path))
        out = tmp_path / "report.json"
        assert main(["report", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == REPORT_SHA256

    def test_out_flag_writes_file(self, tmp_path, capsys):
        out_path = tmp_path / "t.csv"
        code, out = run_cli(capsys, "thresholds", "--year", "2009", "--out", str(out_path))
        assert code == 0
        assert out == ""
        assert out_path.read_text().startswith("year,")

    @pytest.mark.parametrize("argv", [["thresholds", "--year", "2009"],
                                      ["report", "--years", "2017:2018"]])
    @pytest.mark.parametrize("out", ["taken", "."])
    def test_out_directory_is_io_error_and_leaves_nothing(self, tmp_path, capsys, monkeypatch,
                                                          argv, out):
        target = tmp_path / "taken"
        target.mkdir()
        monkeypatch.chdir(target if out == "." else tmp_path)
        code = main([*argv, "--out", out])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("i/o error: ")
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert list(target.iterdir()) == []

    @pytest.mark.parametrize("argv", [["thresholds", "--year", "2009"], ["report"]])
    def test_out_in_a_missing_directory_names_the_path_given(self, tmp_path, capsys, argv):
        out = tmp_path / "no" / "such" / "x.json"
        code = main([*argv, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"i/o error: [Errno 2] No such file or directory: '{out}'\n"
        assert list(tmp_path.iterdir()) == []

    def test_out_replaces_target_and_leaves_only_it(self, tmp_path, capsys):
        target = tmp_path / "t.csv"
        target.write_text("stale\n")
        code, out = run_cli(capsys, "thresholds", "--year", "2009", "--out", str(target))
        assert code == 0 and out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
        assert target.read_text().startswith("year,")

    def test_out_keeps_an_existing_targets_permissions(self, tmp_path, capsys):
        _, expected = run_cli(capsys, "thresholds", "--year", "2009")
        kept, new, plain = tmp_path / "kept.csv", tmp_path / "new.csv", tmp_path / "plain"
        kept.write_text("stale\n")
        kept.chmod(0o600)
        plain.write_text("")
        for target in (kept, new):
            code, out = run_cli(capsys, "thresholds", "--year", "2009", "--out", str(target))
            assert code == 0 and out == ""
            assert target.read_bytes() == expected.encode("utf-8")
        assert stat.S_IMODE(kept.stat().st_mode) == 0o600
        assert new.stat().st_mode == plain.stat().st_mode  # a new target gets the default mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv", "new.csv", "plain"]

    def test_out_through_symlink_writes_the_file_it_names(self, tmp_path, capsys):
        real = tmp_path / "real.csv"
        real.write_text("stale\n")
        link = tmp_path / "link.csv"
        link.symlink_to(real)
        code, out = run_cli(capsys, "thresholds", "--year", "2009", "--out", str(link))
        assert code == 0 and out == ""
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert real.read_text().startswith("year,")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]

    def test_out_fifo_receives_the_bytes_and_stays_a_fifo(self, tmp_path, capsys):
        _, expected = run_cli(capsys, "thresholds", "--year", "2009")
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        # A daemon, so that a writer which never opens the FIFO cannot hang the run.
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        code, out = run_cli(capsys, "thresholds", "--year", "2009", "--out", str(fifo))
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert code == 0 and out == ""
        assert received == [expected.encode("utf-8")]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]

    def test_one_year_report_has_no_did_rows(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["report", "--years", "2018", "--out", str(out)]) == 0
        bundle = json.loads(out.read_text())
        assert bundle["did"] == []
        assert bundle["fixed_effects"]
        assert main(["report", "--years", "2017:2018", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["did"]

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ctcsim.cli", "thresholds", "--year", "2009"],
            capture_output=True, text=True,
            env={"PATH": "", "CTCSIM_DATA_DIR": str(DATA),
                 "PYTHONPATH": str(DATA.parent / "src")},
        )
        assert proc.returncode == 0
        assert "9666.67" in proc.stdout

    @pytest.mark.parametrize("run", ["0", "ctcsim.cli.main(['report']) + ctcsim.cli.main("
                                     "['report', '--out', sys.argv[1]])"], ids=["import", "report"])
    def test_loads_no_module_it_does_not_use(self, run, tmp_path):
        """Neither importing the CLI nor a report, to stdout or to a file, loads numpy or
        scipy, or `dataclasses`, `secrets` and what they import, which cost cold starts."""
        unused = ("dataclasses", "inspect", "ast", "secrets", "hmac", "numpy", "scipy")
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys, ctcsim.cli; print({run}, sorted(m for m in "
             f"sys.modules if m.split('.')[0] in {unused}), file=sys.stderr)",
             str(tmp_path / "report.json")],
            capture_output=True, text=True,
            env={"PATH": "", "CTCSIM_DATA_DIR": str(DATA), "PYTHONPATH": str(DATA.parent / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "0 []\n"


# A command run with the year it covers named, so that it reads no `--years` range.
NAMES_ITS_YEAR = [["sweep", "--year", "2017"], ["parity", "--year", "2017"],
                  ["piecemeal", "--pop-year", "2018", "--base-year", "2017"],
                  ["classify", "--year", "2017"], ["eliminate-refund", "--year", "2017"]]


def _records(edit):
    """A text edit of a parameter file: `edit` applied to its list of records."""
    def apply(text):
        records = json.loads(text)
        edit(records)
        return json.dumps(records, indent=2)
    return apply


def _record(records, year, status):
    return next(r for r in records if (r["year"], r["filing_status"]) == (year, status))


def _rows(pattern, replacement=None):
    """A text edit of a CSV file: each whole line matching `pattern` replaced, or dropped."""
    new = "" if replacement is None else replacement + "\n"
    return lambda text: re.sub(f"^{pattern}\n", new, text, flags=re.M)


BIN_RULE = "bin must be 2500 wide, start on a multiple of 2500 and end by 100000"

# A fault in an input file, as (flag, file name, edit of the shipped file's text, what
# follows the path on the error line): each names the file, whether it is found in a row,
# a record, a (year, group) cell or across years.
FILE_FAULTS = {
    "negative-money": ("--params", "params.json", _records(
        lambda rs: _record(rs, 2003, "married_joint").update(standard_deduction=-1)),
        ": year 2003 married_joint: standard_deduction negative"),
    "one-status": ("--params", "params.json", _records(
        lambda rs: rs.remove(_record(rs, 2005, "head_of_household"))),
        ": year 2005: both filing statuses required"),
    "statuses-differ": ("--params", "params.json", _records(
        lambda rs: _record(rs, 2005, "head_of_household").update(refund_rate=0.2)),
        ": year 2005: field 'refund_rate' differs across filing statuses"),
    "malformed-field": ("--params", "params.json", _records(
        lambda rs: _record(rs, 2003, "married_joint").update(standard_deduction="9500")),
        ": year 2003 married_joint: bad field 'standard_deduction': "
        "money must be int or Fraction, got str"),
    "actc-above-ctc": ("--params", "params.json", _records(
        lambda rs: [r.update(actc_per_child=1500) for r in rs if r["year"] == 2003]),
        ": year 2003: actc_per_child exceeds ctc_per_child"),
    "open-bracket-first": ("--params", "params.json", _records(
        lambda rs: _record(rs, 2003, "married_joint")["brackets"][0].pop("upper")),
        ": year 2003 married_joint: only the last bracket may omit its upper bound"),
    "duplicate-record-key": ("--params", "params.json",
        lambda text: text.replace('"refund_rate": ', '"refund_rate": 0.5, "refund_rate": ', 1),
        ": duplicate key 'refund_rate'"),
    "duplicate-bracket-key": ("--params", "params.json",
        lambda text: text.replace('"rate": ', '"rate": 0.5, "rate": ', 1),
        ": duplicate key 'rate'"),
    "duplicate-config-key": ("--config", "run.json",
        lambda text: '{"scenario": "s2", "scenario": "s1"}', ": duplicate key 'scenario'"),
    "misaligned-bin": ("--population", "population.csv",
        _rows(r"2003,married,2500,5000,\d+", "2003,married,1000,3500,5"), f":3: {BIN_RULE}"),
    "missing-bin": ("--population", "population.csv", _rows(r"2003,married,2500,5000,\d+"),
        ": year 2003 married: no bin starting at 2500"),
    "zero-total": ("--population", "population.csv",
        _rows(r"(2010,single_father,\d+,\d+),\d+", r"\1,0"),
        ": year 2010 single_father: population has zero total"),
    "year-gap": ("--population", "population.csv", _rows(r"2010,.*"),
        f": years are not contiguous: {[y for y in range(2003, 2019) if y != 2010]}"),
}


class TestBadInput:
    """Each bad input ends with exit code 1 and one `error:` line, not a traceback."""

    def assert_one_line_error(self, capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        return lines[0]

    def config(self, tmp_path, text):
        path = tmp_path / "run.json"
        path.write_text(text)
        return str(path)

    def test_years_flag_not_a_number(self, capsys):
        self.assert_one_line_error(capsys, "thresholds", "--years", "abc")

    def test_years_flag_read_by_a_single_year_command(self, capsys):
        line = self.assert_one_line_error(capsys, "parity", "--years", "abc")
        assert line == "error: bad year range 'abc'"

    @pytest.mark.parametrize("argv", NAMES_ITS_YEAR)
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_years_checked_when_a_year_is_named(self, capsys, tmp_path, argv, source):
        years = ["--years", "abc"] if source == "flag" else [
            "--config", self.config(tmp_path, '{"years": "abc"}')]
        line = self.assert_one_line_error(capsys, *argv, *years)
        assert line == "error: bad year range 'abc'"

    @pytest.mark.parametrize("argv", NAMES_ITS_YEAR, ids=lambda argv: argv[0])
    def test_years_outside_the_data_when_a_year_is_named(self, capsys, argv):
        line = self.assert_one_line_error(capsys, *argv, "--years", "1999:2001")
        assert line == "error: year 1999 not present in parameter data"

    @pytest.mark.parametrize("argv", [["classify", "--scenario", "s2", "--year", "2017"],
                                      ["report"]], ids=["classify", "report"])
    def test_empty_children_histogram_names_its_cell(self, capsys, tmp_path, argv):
        lines = (DATA / "children.csv").read_text().splitlines()
        zeroed = [line.rsplit(",", 1)[0] + ",0" if line.startswith("2017,single_father,") else line
                  for line in lines]
        children = tmp_path / "children.csv"
        children.write_text("\n".join(zeroed) + "\n")
        line = self.assert_one_line_error(capsys, *argv, "--children", str(children))
        assert line == ("error: children histogram for year 2017, group single_father "
                        "has no respondents")

    @pytest.mark.parametrize("argv", [["classify", "--scenario", "s2", "--year", "2018"],
                                      ["thresholds", "--scenario", "s2", "--year", "2018"],
                                      ["sweep", "--scenario", "s2"], ["report"]],
                             ids=lambda argv: argv[0])
    def test_childless_children_cell_names_its_cell(self, capsys, tmp_path, argv):
        """A cell whose respondents all report no children has no average a credit per
        child can use; `sweep` once read it as a share of 0."""
        lines = (DATA / "children.csv").read_text().splitlines()
        childless = [line.rsplit(",", 1)[0] + ",0" if line.startswith("2018,married,")
                     and not line.startswith("2018,married,0,") else line for line in lines]
        children = tmp_path / "children.csv"
        children.write_text("\n".join(childless) + "\n")
        line = self.assert_one_line_error(capsys, *argv, "--children", str(children))
        assert line == "error: children histogram for year 2018, group married has no children"

    @pytest.mark.parametrize("command", ["classify", "sweep", "regress", "report"])
    def test_parameter_file_without_records(self, capsys, tmp_path, command):
        params = tmp_path / "params.json"
        params.write_text("[]")
        line = self.assert_one_line_error(capsys, command, "--params", str(params))
        assert line == f"error: {params}: expected a non-empty top-level array of year records"

    def test_priced_out_named_year_whose_credit_reaches_the_new_maximum(
            self, capsys, refundable_2018):
        line = self.assert_one_line_error(capsys, "priced-out", "--params", refundable_2018,
                                          "--year", "2018")
        assert line == "error: new credit maximum must exceed the baseline"

    def test_credits_flag_not_a_number(self, capsys):
        self.assert_one_line_error(capsys, "sweep", "--credits", "1:x")

    @pytest.mark.parametrize("credits, count", [
        ("1:1000000000000:1", "1,000,000,000,000"),
        ("1:100000000000000000000:1", "100,000,000,000,000,000,000"),  # past sys.maxsize
        ("0:1000000:1", "1,000,001"),
    ], ids=["trillion", "past-maxsize", "one-past-the-limit"])
    def test_credit_range_too_long_is_refused_before_its_list_is_built(self, capsys, credits,
                                                                       count):
        """A trillion credits once ended in a MemoryError traceback from building the list."""
        line = self.assert_one_line_error(capsys, "sweep", "--credits", credits, "--years", "2018")
        assert line == (f"error: credit range {credits!r} names {count} credits; "
                        "a sweep takes at most 1,000,000")

    @pytest.mark.parametrize("credits", ["500,500", "500,1000,0500"])
    def test_credit_named_twice(self, capsys, credits):
        """A repeated credit once printed each of its rows twice."""
        line = self.assert_one_line_error(capsys, "sweep", "--credits", credits, "--years", "2018")
        assert line == "error: credit 500 named twice"

    @pytest.mark.parametrize("flags, message", [
        (["--post-year", "2030"], "error: did: no single_father rows from 2030 on"),
        (["--years", "2018:2018"], "error: did: no single_father rows before 2018"),
    ], ids=["no-post", "no-pre"])
    def test_did_names_the_group_and_period_it_lacks(self, capsys, flags, message):
        assert self.assert_one_line_error(capsys, "did", *flags) == message

    def test_config_unknown_scenario(self, capsys, tmp_path):
        line = self.assert_one_line_error(
            capsys, "classify", "--config", self.config(tmp_path, '{"scenario": "s9"}'))
        assert "scenario" in line

    def test_config_years_not_a_string(self, capsys, tmp_path):
        line = self.assert_one_line_error(
            capsys, "classify", "--config", self.config(tmp_path, '{"years": 2018}'))
        assert "years" in line

    def test_config_unknown_liability(self, capsys, tmp_path):
        line = self.assert_one_line_error(
            capsys, "classify", "--config", self.config(tmp_path, '{"liability": "nope"}'))
        assert "liability" in line

    def test_config_years_parsed_like_the_flag(self, capsys, tmp_path):
        line = self.assert_one_line_error(
            capsys, "classify", "--config", self.config(tmp_path, '{"years": "abc"}'))
        assert line == "error: bad year range 'abc'"

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_year_range(self, capsys, tmp_path, source):
        years = ["--years", ""] if source == "flag" else [
            "--config", self.config(tmp_path, '{"years": ""}')]
        line = self.assert_one_line_error(capsys, "classify", *years)
        assert line == "error: bad year range ''"

    @pytest.mark.parametrize("field, literal, message", [
        ("standard_deduction", "9" * 4301, "invalid JSON: Exceeds the limit (4300 digits)"),
        ("refund_rate", "1e-10000000", "invalid JSON: decimal exponent beyond 4300"),
        ("refund_rate", '"1e-10000000"',
         "year 2003: bad field 'refund_rate': decimal exponent beyond 4300"),
    ], ids=["integer", "exponent", "exponent-string"])
    def test_oversized_number_in_parameter_file(self, capsys, tmp_path, field, literal, message):
        # Raw text: json.dumps writes neither literal. The exponent is refused before
        # Fraction expands it, which took seconds.
        records = json.loads((DATA / "params.json").read_text())
        records[0][field] = "<literal>"
        params = tmp_path / "params.json"
        params.write_text(json.dumps(records).replace('"<literal>"', literal))
        line = self.assert_one_line_error(capsys, "classify", "--params", str(params))
        assert line.startswith(f"error: {params}: {message}")

    @pytest.mark.parametrize("command", ["classify", "thresholds"])
    @pytest.mark.parametrize("field, label", [("standard_deduction", "year 2003 married_joint"),
                                              ("ctc_per_child", "year 2003")])
    def test_money_past_the_cap_in_parameter_file(self, capsys, tmp_path, command, field, label):
        # 1e4300 parses, its exponent inside the bound, but an integer of 4,301 digits does
        # not print, so neither a threshold built from it nor a message naming it could.
        records = json.loads((DATA / "params.json").read_text())
        for record in records:
            if record["year"] == 2003:
                record[field] = "<literal>"
        params = tmp_path / "params.json"
        params.write_text(json.dumps(records).replace('"<literal>"', "1e4300"))
        line = self.assert_one_line_error(capsys, command, "--params", str(params))
        assert line == f"error: {params}: {label}: {field} above 1,000,000,000,000"

    @pytest.mark.parametrize("argv, field, literal, message", [
        (["thresholds", "--year", "2018"], "phaseout_rate", "1e-4300",
         "year 2018: phaseout_rate below 1/1000000000000"),
        (["report", "--years", "2017:2018"], "phaseout_rate", "1e-4300",
         "year 2018: phaseout_rate below 1/1000000000000"),
        (["thresholds", "--year", "2018"], "brackets", "1e-4300",
         "year 2018 married_joint: nonzero bracket rate below 1/1000000000000"),
        (["classify", "--year", "2018"], "brackets", "1e-4300",
         "year 2018 married_joint: nonzero bracket rate below 1/1000000000000"),
        (["report", "--years", "2017:2018"], "brackets", "1e-4300",
         "year 2018 married_joint: nonzero bracket rate below 1/1000000000000"),
        (["thresholds", "--year", "2018"], "brackets", "1e4300",
         "year 2018 married_joint: bracket rate outside [0, 1]"),
    ], ids=["phaseout-thresholds", "phaseout-report", "brackets-thresholds",
            "brackets-classify", "brackets-report", "brackets-huge"])
    def test_rate_past_its_bounds_in_parameter_file(self, capsys, tmp_path, argv, field,
                                                     literal, message):
        # A credit or tax over a rate of 1e-4300 is an integer of 4,300 digits or more, and
        # a 1e4300 rate is one itself: neither a threshold nor a message could print it.
        records = json.loads((DATA / "params.json").read_text())
        for record in records:
            if record["year"] == 2018:
                if field == "brackets":
                    for bracket in record["brackets"]:
                        bracket["rate"] = "<literal>"
                else:
                    record[field] = "<literal>"
        params = tmp_path / "params.json"
        params.write_text(json.dumps(records).replace('"<literal>"', literal))
        line = self.assert_one_line_error(capsys, *argv, "--params", str(params))
        assert line == f"error: {params}: {message}"

    def test_oversized_integer_in_config(self, capsys, tmp_path):
        config = self.config(tmp_path, '{"years": ' + "9" * 4301 + "}")
        line = self.assert_one_line_error(capsys, "classify", "--config", config)
        assert line.startswith(f"error: {config}: invalid JSON: Exceeds the limit (4300 digits)")

    @pytest.mark.parametrize("text", ["{bad", "[1]", '{"scenaro": "s1"}'])
    def test_config_malformed(self, capsys, tmp_path, text):
        self.assert_one_line_error(capsys, "classify", "--config", self.config(tmp_path, text))

    def test_did_outcome_checked_like_regress(self, capsys):
        line = self.assert_one_line_error(capsys, "did", "--outcome", "c,,d")
        assert line == "error: unknown outcome ''"

    @pytest.mark.parametrize("command, outcomes, twice", [
        ("regress", "cd,cd", "cd"), ("did", "c,c", "c"), ("did", "a,c,d,c", "c")])
    def test_outcome_named_twice(self, capsys, command, outcomes, twice):
        """A repeated outcome once printed each of its fits twice."""
        line = self.assert_one_line_error(capsys, command, "--outcome", outcomes)
        assert line == f"error: outcome {twice!r} named twice"

    @pytest.mark.parametrize("command", ["regress", "did"])
    def test_empty_outcome_is_an_unknown_outcome(self, capsys, command):
        # Like an empty --years or --credits: '' names no outcome, it does not ask for the default.
        line = self.assert_one_line_error(capsys, command, "--outcome", "")
        assert line == "error: unknown outcome ''"

    @pytest.mark.parametrize("fault", FILE_FAULTS)
    def test_file_fault_names_the_file(self, capsys, tmp_path, fault):
        flag, name, edit, rest = FILE_FAULTS[fault]
        shipped = DATA / name
        path = tmp_path / name
        path.write_text(edit(shipped.read_text() if shipped.exists() else ""))
        line = self.assert_one_line_error(capsys, "classify", flag, str(path))
        assert line == f"error: {path}{rest}"

    @pytest.mark.parametrize("command", ["classify", "report", "regress"])
    def test_population_group_with_zero_total(self, capsys, bad_populations, command):
        line = self.assert_one_line_error(
            capsys, command, "--population", str(bad_populations["zero_group"]))
        assert line == (f"error: {bad_populations['zero_group']}: "
                        "year 2010 single_father: population has zero total")

    @pytest.mark.parametrize("flag, name, prefix", [
        ("--population", "population.csv", "2003,married,2500,"),
        ("--children", "children.csv", "2003,married,0,"),
    ])
    def test_duplicated_row_names_both_lines(self, capsys, tmp_path, flag, name, prefix):
        lines = (DATA / name).read_text().splitlines()
        first = next(n for n, line in enumerate(lines, start=1) if line.startswith(prefix))
        path = tmp_path / name
        path.write_text("\n".join([*lines, lines[first - 1]]) + "\n")
        line = self.assert_one_line_error(capsys, "classify", flag, str(path))
        assert line == f"error: {path}:{len(lines) + 1}: duplicate row, first seen on line {first}"

    @pytest.mark.parametrize("flag, name, row, message", [
        ("--population", "population.csv", "2003,married,0,2500,5,99", "expected 5 fields, got 6"),
        ("--population", "population.csv", "2003,married,0,2500", "expected 5 fields, got 4"),
        ("--children", "children.csv", "2003,married,0,5,1", "expected 4 fields, got 5"),
    ])
    def test_row_of_the_wrong_width(self, capsys, tmp_path, flag, name, row, message):
        lines = (DATA / name).read_text().splitlines()
        path = tmp_path / name
        path.write_text("\n".join([lines[0], row, *lines[2:]]) + "\n")
        line = self.assert_one_line_error(capsys, "classify", flag, str(path))
        assert line == f"error: {path}:2: {message}"

    def test_csv_field_over_the_reader_limit(self, capsys, tmp_path):
        lines = (DATA / "population.csv").read_text().splitlines()
        path = tmp_path / "population.csv"
        path.write_text("\n".join([lines[0], "2003,married,0,2500," + "1" * 200_000]) + "\n")
        line = self.assert_one_line_error(capsys, "classify", "--population", str(path))
        assert line == f"error: {path}:2: field larger than field limit (131072)"

    # Byte 0xc0 at `offset`: of `\xff` alone, or of the shipped file. A CSV is decoded whole,
    # so the position is the file offset, past the reader's 8 KB chunk too, and names a line.
    @pytest.mark.parametrize("flag, name, offset, where", [
        ("--params", "params.json", 0, " invalid JSON: "),
        ("--config", "run.json", 0, " invalid JSON: "),
        ("--population", "population.csv", 0, "1: "),
        ("--children", "children.csv", 0, "1: "),
        ("--population", "population.csv", 20_000, "560: "),
    ], ids=["params", "config", "population", "children", "population-past-8-kb"])
    def test_input_file_not_utf8(self, capsys, tmp_path, flag, name, offset, where):
        text = (DATA / name).read_bytes() if offset else b"\xff"
        path = tmp_path / name
        path.write_bytes(text[:offset] + b"\xc0" + text[offset:])
        line = self.assert_one_line_error(capsys, "classify", flag, str(path))
        assert line == (f"error: {path}:{where}'utf-8' codec can't decode byte 0xc0 "
                        f"in position {offset}: invalid start byte")

    @pytest.mark.parametrize("edit, label", [
        (lambda r: r.update(standard_deduction="9500"), "year 2003 married_joint"),
        (lambda r: r.update(standard_deduction=float("nan")), "year 2003 married_joint"),
        (lambda r: r["brackets"][0].update(rate="abc"), "year 2003 married_joint"),
        (lambda r: r.update(refund_rate="x"), "year 2003"),
        (lambda r: r.update(brackets=5), "year 2003 married_joint"),
        (lambda r: r.update(brackets=[5]), "year 2003 married_joint"),
        (lambda r: r["brackets"][0].update(upper="14000"), "year 2003 married_joint"),
        (lambda r: r["brackets"][0].pop("rate"), "year 2003 married_joint"),
    ], ids=["deduction-string", "deduction-nan", "bracket-rate-string", "refund-rate-string",
            "brackets-number", "bracket-number", "bracket-upper-string", "bracket-without-rate"])
    def test_bad_parameter_value_names_file_and_year(self, capsys, tmp_path, edit, label):
        # A malformed value has the label of one out of range: its status's fields name it.
        records = json.loads((DATA / "params.json").read_text())
        edit(records[0])  # the 2003 married_joint record
        params = tmp_path / "params.json"
        params.write_text(json.dumps(records))
        line = self.assert_one_line_error(capsys, "thresholds", "--params", str(params),
                                          "--year", "2003")
        assert line.startswith(f"error: {params}: {label}: bad field ")

    @pytest.mark.parametrize("edit, field, label", [
        (lambda r: r.update(refund_rate="1/0"), "refund_rate", "year 2003"),
        (lambda r: r["brackets"][0].update(rate="1/0"), "brackets", "year 2003 married_joint"),
    ], ids=["refund-rate", "bracket-rate"])
    def test_rate_with_a_zero_denominator(self, capsys, tmp_path, edit, field, label):
        records = json.loads((DATA / "params.json").read_text())
        edit(records[0])
        params = tmp_path / "params.json"
        params.write_text(json.dumps(records))
        line = self.assert_one_line_error(capsys, "classify", "--params", str(params))
        assert line == (f"error: {params}: {label}: bad field {field!r}: "
                        "rate '1/0' has a zero denominator")

    def test_non_integer_year_rejected(self, capsys, tmp_path):
        records = json.loads((DATA / "params.json").read_text())
        records[0]["year"] = 2003.5
        params = tmp_path / "params.json"
        params.write_text(json.dumps(records))
        line = self.assert_one_line_error(capsys, "thresholds", "--params", str(params),
                                          "--year", "2003")
        assert line == f"error: {params}: year Fraction(4007, 2) is not an integer"

    @pytest.mark.parametrize("argv", [["thresholds", "--year", "abc"],
                                      ["classify", "--group", "nobody"],
                                      ["did", "--table", "1a"],
                                      []])
    def test_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("command", ["thresholds", "classify", "sweep", "priced-out"])
    def test_year_zero_is_a_missing_year(self, capsys, command):
        line = self.assert_one_line_error(capsys, command, "--year", "0")
        assert line == "error: year 0 not present in parameter data"

    def test_missing_walk_year(self, capsys):
        line = self.assert_one_line_error(capsys, "piecemeal", "--base-year", "2002")
        assert line == "error: year 2002 not present in parameter data"

    @pytest.mark.parametrize("argv", [["--pop-year", "2003"], ["--years", "2003"]],
                             ids=["pop-year", "years"])
    def test_missing_default_base_year_names_the_flag(self, capsys, argv):
        # 2002 is a year the command line does not name: the error says where it came from.
        line = self.assert_one_line_error(capsys, "piecemeal", *argv)
        assert line == ("error: --base-year defaults to --pop-year - 1, and year 2002 "
                        "is not present in parameter data")


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 10**18), st.integers(0, 10**18), st.integers(1, 10**18))
def test_integer_share_prints_as_its_fraction(x, y, total):
    a, both = sorted((x % (total + 1), y % (total + 1)))  # 0 <= a <= a + b <= total
    b = both - a
    assert _fmt(a / total) == _fmt(Fraction(a, total))
    assert _fmt((a + b) / total) == _fmt(Fraction(a, total) + Fraction(b, total))


@settings(max_examples=500, deadline=None)
@given(st.integers(-10**12, 10**12), st.integers(1, 10**9))
def test_money_prints_as_ceiling_to_the_cent(numerator, denominator):
    value = Fraction(numerator, denominator)
    assert format_money(value) == str(Decimal(math.ceil(value * 100)).scaleb(-2))


# Text with the characters a row boundary is made of, the value separator (NUL), the
# template's format character, escapes, control characters and non-ASCII, or any text.
_json_text = st.text(st.sampled_from('{},:"%s\\\n\t\x00\x1f a\xe9\u2603\U0001d11e')) | st.text()
_json_value = (st.integers() | st.booleans() | st.none() | st.floats() | st.just(-0.0)
               | st.just(float("nan")) | _json_text)


@st.composite
def _json_table(draw):
    fields = tuple(draw(st.lists(_json_text, min_size=1, max_size=4, unique=True)))
    row = st.tuples(*[_json_value] * len(fields))
    return fields, draw(st.lists(row, max_size=4))


@settings(max_examples=500, deadline=None)
@given(_json_table())
@example((("a",), []))
@example((("a",), [(1,)]))
@example((("}", "{"), [("},\n    {", "x"), ("", None)]))
@example((("%s", "100%"), [("%s", "%d"), (1, 2)]))
@example((("a", "b"), [("x\x00y", "\x00"), ("\x00", 0)]))
def test_json_rows_are_the_indent_2_encoding(table):
    fields, rows = table
    records = [dict(zip(fields, row)) for row in rows]
    assert _json_rows(fields, rows) == json.dumps(records, indent=2)
    # One level down, as a report section: the list inside `[ ... ]`.
    assert _json_rows(fields, rows, 1) == json.dumps([records], indent=2)[4:-2]
