"""Command-line interface: reproducible CSV/JSON reports over the library.

Every command reads the parameter file and population/children CSVs, runs
one analysis, and writes a table with a stable row order, so identical
inputs produce byte-identical output. Flags override a JSON run-config
file, which overrides built-in defaults; CTCSIM_DATA_DIR sets the default
data root.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import stat
import sys
from collections import Counter
from fractions import Fraction
from functools import cached_property, partial
from pathlib import Path
from typing import Callable, NamedTuple

from . import counterfactual as cf
from .classifier import CATEGORY_ORDER, ReliefCategory, Scenario
from .errors import CtcsimError, MissingYear, ParseError, ValidationError
from .memo import command_scope
from .money import format_money
from .params import ParentalGroup, load_params, params_for_year, read_json
from .population import load_population
from .stats import did, fixed_effects
from .taxmath import LiabilityMode, thresholds

# Each panel outcome: the relief categories whose household counts it sums.
OUTCOMES = {c.value: (c,) for c in ReliefCategory} | {
    "cd": (ReliefCategory.FULL_ACTC, ReliefCategory.FULL_CTC),
    "bc": (ReliefCategory.SOME_ACTC, ReliefCategory.FULL_ACTC),
}

# The flags every command takes, as name -> argparse kwargs. A run-config file may set
# each of them but `config`, and is checked against the same choices.
SHARED = {
    "params": {"help": "parameter file (JSON)"},
    "population": {"help": "population bins CSV"},
    "children": {"help": "children histogram CSV"},
    "scenario": {"choices": [s.value for s in Scenario]},
    "years": {"help": "year range A:B or single year"},
    "format": {"choices": ["csv", "json"]},
    "liability": {"choices": [m.value for m in LiabilityMode]},
    "out": {"help": "write output to this path instead of stdout"},
    "config": {"help": "JSON run-config file; flags take precedence"},
}

_MAX_CREDITS = 1_000_000  # the most credits `--credits A:B:STEP` may name; 1:6000:1 names 6,000


def _ints(parts: list[str], what: str, text: str) -> list[int]:
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ValidationError(f"bad {what} {text!r}") from None


def _distinct(values: list, what: str) -> list:
    if twice := [value for value, n in Counter(values).items() if n > 1]:  # rows would repeat
        raise ValidationError(f"{what} {twice[0]!r} named twice")
    return values


def _parse_years(text: str) -> tuple[int, int]:
    parts = text.split(":", 1)
    lo, hi = _ints(parts if len(parts) == 2 else parts * 2, "year range", text)
    if hi < lo:
        raise ValidationError(f"bad year range {text!r}")
    return lo, hi


def _parse_credits(text: str) -> list[int]:
    parts = text.split(":")
    if len(parts) == 3:
        lo, hi, step = _ints(parts, "credits", text)
        if step <= 0 or hi < lo:
            raise ValidationError(f"bad credit range {text!r}")
        if (count := (hi - lo) // step + 1) > _MAX_CREDITS:
            raise ValidationError(f"credit range {text!r} names {count:,} credits; a sweep "
                                  f"takes at most {_MAX_CREDITS:,}")
        return list(range(lo, hi + 1, step))
    return _distinct(_ints(text.split(","), "credits", text), "credit")


def _load_config(path: str) -> dict:
    """A run-config file: a JSON object of shared options, each a string as on the command line."""
    try:
        config = read_json(path)
        if not isinstance(config, dict):
            raise ParseError("expected a JSON object")
        for name, value in config.items():
            if name not in SHARED or name == "config":
                raise ValidationError(f"unknown config key {name!r}")
            if not isinstance(value, str):
                raise ValidationError(f"config {name!r} must be a string, not {value!r}")
            choices = SHARED[name].get("choices")
            if choices and value not in choices:
                raise ValidationError(
                    f"config {name!r} must be one of {', '.join(choices)}, not {value!r}")
    except CtcsimError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    return config


def _fmt(value: Fraction | float) -> str:
    """Six decimals; a value that rounds to zero prints without a sign. ``count / total``
    prints as its Fraction: int / int is correctly rounded."""
    text = f"{float(value):.6f}"
    return "0.000000" if text == "-0.000000" else text


def _json_rows(fields: tuple, rows: list[tuple], depth: int = 0) -> str:
    """``json.dumps([dict(zip(fields, row)) for row in rows], indent=2)`` for distinct field
    names and rows of flat values, as nested `depth` levels deep, from one pass of the C
    encoder over the values (it serves no ``indent``).

    The encoder escapes a NUL inside any string, so the NUL separators split the values
    apart; each fills its slot in a row template that holds the encoded keys.
    """
    if not rows:
        return "[]"
    outer = "\n" + "  " * depth
    row, field = outer + "  ", outer + "    "
    values = json.dumps([v for r in rows for v in r], separators=("\0", ":"))[1:-1].split("\0")
    slots = ",".join(field + json.dumps(name).replace("%", "%%") + ": %s" for name in fields)
    body = ("," + row).join(["{" + slots + row + "}"] * len(rows)) % tuple(values)
    return "[" + row + body + outer + "]"


class Run:
    """Resolved configuration plus lazily loaded inputs."""

    def __init__(self, args: argparse.Namespace):
        config = _load_config(args.config) if args.config else {}
        # The shared flags given override the config file, which overrides the defaults.
        opts = {**config, **{name: value for name in SHARED
                             if (value := getattr(args, name)) is not None}}
        data = Path(os.environ.get("CTCSIM_DATA_DIR", "data"))
        self.params_path = Path(opts.get("params", data / "params.json"))
        self.population_path = Path(opts.get("population", data / "population.csv"))
        self.children_path = Path(opts.get("children", data / "children.csv"))
        # The report covers both scenarios whatever `--scenario` says.
        self.scenarios = (list(Scenario) if args.command == "report"
                          else [Scenario(opts.get("scenario", "s1"))])
        self.mode = LiabilityMode(opts.get("liability", "exact"))
        self.format = opts.get("format", "csv")
        self.out = opts.get("out")
        self.span = _parse_years(opts["years"]) if "years" in opts else None
        # Checked here, not where the range is read: a command that names its year reads none.
        for year in self.span or ():
            params_for_year(self.params, year)

    @cached_property
    def params(self):
        return load_params(self.params_path)

    @cached_property
    def pop(self):
        return load_population(self.population_path, self.children_path)

    @cached_property
    def years(self) -> list[int]:
        """The `--years` range, each end present in the parameter data; else every year."""
        if self.span is None:
            return sorted(self.params)
        return list(range(self.span[0], self.span[1] + 1))

    def write(self, text: str) -> None:
        """Write `text` to stdout, or to the `--out` path whole or not at all.

        The text goes to a new file beside the target, or the file a symlink
        names, that then replaces it, so a failed write leaves neither a partial
        target nor the temp file. The new file takes an existing target's
        permission bits. A FIFO or device is written in place.
        """
        if not self.out:
            sys.stdout.write(text)
            return
        target = Path(os.path.realpath(self.out))
        if target.exists() and not target.is_file():
            target.write_text(text, encoding="utf-8")
            return
        tmp = target.parent / f".{target.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
        try:
            fh = open(tmp, "x", encoding="utf-8")
        except OSError as exc:  # name the path given, not the temp file
            raise OSError(exc.errno, exc.strerror, self.out) from None
        try:
            with fh:
                fh.write(text)
            with contextlib.suppress(FileNotFoundError):  # a new target gets the default mode
                os.chmod(tmp, stat.S_IMODE(os.stat(target).st_mode))
            os.replace(tmp, target)
        except BaseException:
            tmp.unlink()
            raise


# ---------------------------------------------------------------------------
# Row builders: each is the one path to its command's table, from the run and the
# command's own flags, and gives each row as a tuple in the command's field order.


def _years(run: Run, args) -> list[int]:
    return [args.year] if args.year is not None else run.years


def _last_year(run: Run, year: int | None) -> int:
    """`year` if named, else the last year of the run."""
    return year if year is not None else run.years[-1]


def _groups(args) -> list[ParentalGroup]:
    return [ParentalGroup(args.group)] if args.group else list(cf.GROUPS)


def _outcomes(text: str | None, default: list[str]) -> list[str]:
    outcomes = text.split(",") if text is not None else default
    for outcome in outcomes:
        if outcome not in OUTCOMES:
            raise ValidationError(f"unknown outcome {outcome!r}")
    return _distinct(outcomes, "outcome")


def rows_thresholds(run: Run, args) -> list[tuple]:
    rows = []
    for year in _years(run, args):
        params = params_for_year(run.params, year)
        for group in _groups(args):
            for scenario in run.scenarios:
                profile = cf.profile_for(run.pop, group, scenario, year)
                ts = thresholds(profile, params, run.mode)
                rows.append((year, group.value, scenario.value, f"{float(profile.children):.2f}",
                             format_money(ts.t_refund_floor), format_money(ts.t_full_actc),
                             format_money(ts.t_full_ctc), format_money(ts.t_full_combined),
                             format_money(ts.t_phaseout_start), format_money(ts.t_total_phaseout)))
    return rows


def rows_classify(run: Run, args) -> list[tuple]:
    rows = []
    for year in _years(run, args):
        params = params_for_year(run.params, year)
        for group in _groups(args):
            for scenario in run.scenarios:
                est = cf.eligibility(run.pop, year, group, params, scenario, mode=run.mode)
                counts, flags, total = est.counts, est.flags, est.total
                group_value, scenario_value = group.value, scenario.value  # once for six rows
                for cat in CATEGORY_ORDER:
                    rows.append((year, group_value, scenario_value, cat.value, counts[cat],
                                 _fmt(counts[cat] / total), flags[cat].value))
    return rows


def rows_piecemeal(run: Run, args) -> list[tuple]:
    pop_year = _last_year(run, args.pop_year)
    base_year = args.base_year if args.base_year is not None else pop_year - 1
    if args.base_year is None and base_year not in run.params and pop_year in run.params:
        raise MissingYear(f"--base-year defaults to --pop-year - 1, and year {base_year} "
                          "is not present in parameter data")
    rows = []
    for scenario in run.scenarios:
        for r in cf.run_piecemeal_table(args.table, run.pop, run.params, scenario,
                                        pop_year=pop_year, base_year=base_year, mode=run.mode):
            rows.append((args.table, scenario.value, r.step, r.label, r.group.value,
                         _fmt(r.proportion)))
    return rows


def rows_sweep(run: Run, args) -> list[tuple]:
    credits = _parse_credits(args.credits)
    year = _last_year(run, args.year)
    params = params_for_year(run.params, year)
    rows = []
    for scenario in run.scenarios:
        table = cf.credit_size_sweep(run.pop, year, credits, scenario, params,
                                     parity=not args.no_parity, mode=run.mode)
        for credit, group, share in table:
            rows.append((year, scenario.value, int(credit), group.value, _fmt(share)))
    rows.sort()  # by (scenario, credit, group), which fix the proportion
    return rows


def rows_priced_out(run: Run, args) -> list[tuple]:
    """A named year must be one `priced_out` takes; a scan skips each year it refuses."""
    rows = []
    for year in _years(run, args):
        params = params_for_year(run.params, year)
        if args.year is None and cf.priced_out_refusal(params, args.new_ctc) is not None:
            continue
        for scenario in run.scenarios:
            for group in cf.GROUPS:
                result = cf.priced_out(run.pop, year, group, params, args.new_ctc, scenario,
                                       run.mode)
                share = result.proportion_priced_out
                rows.append((year, scenario.value, group.value, result.full_relief_old,
                             result.priced_out, "" if share is None else _fmt(share)))
    return rows


def rows_parity(run: Run, args) -> list[tuple]:
    year = _last_year(run, args.year)
    params = params_for_year(run.params, year)
    rows = []
    for scenario in run.scenarios:
        result = cf.restore_parity(run.pop, year, params, scenario, run.mode)
        steps = (("1", "full credit, baseline rules", result.before),
                 ("2", "full relief after refundable parity", result.after),
                 ("3", "full relief after parity, floor removed", result.no_floor))
        for step, label, shares in steps:
            for group in cf.GROUPS:
                rows.append((year, scenario.value, step, label, group.value, _fmt(shares[group])))
    return rows


def rows_eliminate(run: Run, args) -> list[tuple]:
    year = _last_year(run, args.year)
    params = params_for_year(run.params, year)
    rows = []
    for scenario in run.scenarios:
        result = cf.eliminate_refundability(run.pop, year, params, scenario, run.mode)
        for group in cf.GROUPS:
            rows.append((year, scenario.value, group.value, _fmt(result.deltas[group]), ""))
        rows.append((year, scenario.value, "all", "", result.gaining_households))
    return rows


def _stars(estimate: float, se: float) -> str:
    if se == 0.0:
        return "***" if estimate != 0.0 else ""
    p = math.erfc(abs(estimate / se) / math.sqrt(2.0))  # two-sided normal p-value
    if p < 0.01:
        return "***"
    if p < 0.05:
        return "**"
    return "*" if p < 0.1 else ""


def _fit_rows(run: Run, fit, outcomes, years) -> list[tuple]:
    """One row per term of `fit(panel)` for each scenario and outcome series; each
    outcome's panel sums its categories' counts over one read of the (year, group) cells."""
    rows = []
    for scenario in run.scenarios:
        cells = [(year, group, est.counts, est.total)
                 for year in years for params in [params_for_year(run.params, year)]
                 for group in cf.GROUPS
                 for est in [cf.eligibility(run.pop, year, group, params, scenario, run.mode)]]
        for outcome in outcomes:
            cats = OUTCOMES[outcome]
            res = fit([(year, group, sum(counts[c] for c in cats) / total)
                       for year, group, counts, total in cells])
            defined = res.df_resid > 0  # a zero-df fit has no SE, hence no stars
            for i, (name, est) in enumerate(zip(res.names, res.estimates)):
                se = math.sqrt(res.cov[i][i])
                rows.append((scenario.value, outcome, name, _fmt(est), _fmt(se) if defined else "",
                             _stars(est, se) if defined else ""))
    return rows


def rows_regress(run: Run, args) -> list[tuple]:
    outcomes = _outcomes(args.outcome, list(OUTCOMES))
    # The fits cover the years before the 2018 reform, or all if none precede it.
    years = [y for y in run.years if y < 2018] or run.years
    return _fit_rows(run, partial(fixed_effects, baseline_year=max(years)), outcomes, years)


def rows_did(run: Run, args) -> list[tuple]:
    outcomes = _outcomes(args.outcome, ["c", "d", "e"])
    fit = partial(did, post_year=_last_year(run, args.post_year))
    return _fit_rows(run, fit, outcomes, run.years)


# ---------------------------------------------------------------------------
# Commands


class Command(NamedTuple):
    """A table command: its help, its own flags as (flag, argparse kwargs), its field
    names, and its rows from ``(run, args)`` as tuples in field order."""

    help: str
    flags: tuple
    fields: tuple
    rows: Callable


_YEAR = ("--year", {"type": int})
_GROUP = ("--group", {"choices": [g.value for g in cf.GROUPS]})

COMMANDS = {
    "thresholds": Command(
        "category-boundary incomes", (_YEAR, _GROUP),
        ("year", "group", "scenario", "children", "refund_floor", "full_actc", "full_ctc",
         "full_combined", "phaseout_start", "total_phaseout"), rows_thresholds),
    "classify": Command(
        "eligibility category shares", (_YEAR, _GROUP),
        ("year", "group", "scenario", "category", "count", "proportion", "flag"), rows_classify),
    "piecemeal": Command(
        "one-parameter-at-a-time walk",
        (("--table", {"choices": ["1a", "1b"], "default": "1a"}),
         ("--pop-year", {"type": int}),
         ("--base-year", {"type": int})),
        ("table", "scenario", "step", "label", "group", "proportion"), rows_piecemeal),
    "sweep": Command(
        "full relief by credit size",
        (("--credits", {"default": "500:3600:100", "help": "range A:B:STEP or comma list"}),
         _YEAR,
         ("--no-parity", {"action": "store_true", "default": False,
                          "help": "keep the refundable maximum at its baseline value"})),
        ("year", "scenario", "credit", "group", "proportion"), rows_sweep),
    "priced-out": Command(
        "households priced out of full relief",
        (("--new-ctc", {"type": int, "default": 2000}), _YEAR),
        ("year", "scenario", "group", "full_relief_old", "priced_out", "proportion"),
        rows_priced_out),
    "parity": Command(
        "full relief before/after refundable parity", (_YEAR,),
        ("year", "scenario", "step", "label", "group", "proportion"), rows_parity),
    "eliminate-refund": Command(
        "access gained without the floor", (_YEAR,),
        ("year", "scenario", "group", "access_delta", "gaining_households"), rows_eliminate),
    "regress": Command(
        "fixed-effects panel regressions",
        (("--outcome", {"help": "comma list of a..f, cd, bc (default: all)"}),),
        ("scenario", "outcome", "term", "estimate", "robust_se", "stars"), rows_regress),
    "did": Command(
        "difference-in-differences estimates",
        (("--outcome", {"help": "comma list of a..f, cd, bc (default: c,d,e)"}),
         ("--post-year", {"type": int})),
        ("scenario", "outcome", "term", "estimate", "robust_se", "stars"), rows_did),
}

# The report's sections: name -> (command, flags). Each is that command's rows over both
# scenarios, given these flags and the others at their defaults.
SECTIONS = {
    "thresholds": ("thresholds", {}),
    "eligibility": ("classify", {}),
    "piecemeal_full_credit": ("piecemeal", {"table": "1a"}),
    "piecemeal_full_refundable": ("piecemeal", {"table": "1b"}),
    "parity": ("parity", {}),
    "eliminate_refundability": ("eliminate-refund", {}),
    "priced_out": ("priced-out", {}),
    "credit_sweep": ("sweep", {"credits": "500,1000,1400,2000,3000,3600"}),
    "fixed_effects": ("regress", {}),
    "did": ("did", {}),
}


def _own_args(command: str, **flags) -> argparse.Namespace:
    """`command`'s own flags as parsing sets them: the values in `flags`, else the defaults."""
    return argparse.Namespace(**{flag[2:].replace("-", "_"): kwargs.get("default")
                                 for flag, kwargs in COMMANDS[command].flags} | flags)


def cmd_table(run: Run, args) -> None:
    command = COMMANDS[args.command]
    rows = command.rows(run, args)
    if run.format == "json":
        text = _json_rows(command.fields, rows) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(command.fields)
        writer.writerows(rows)
        text = buf.getvalue()
    run.write(text)


def cmd_report(run: Run, args) -> None:
    years = run.years
    # The sweep runs for each year of the 2017/2018 comparison in the range, else for the
    # last year; a range with no year before the last has no pre-period to difference,
    # and parameter data without the year before the last has no baseline to walk from.
    runs = {"sweep": [{"year": y} for y in (2017, 2018) if y in years] or [{}],
            "did": [{}] if years[0] < years[-1] else [],
            "piecemeal": [{}] if years[-1] - 1 in run.params else []}
    settings = {"scenario": "both", "liability": run.mode.value, "years": [years[0], years[-1]]}
    # The bundle as `json.dumps(indent=2)` writes it: the settings block, then each table.
    tables = [json.dumps({"settings": settings}, indent=2)[:-2]]
    for name, (command, flags) in SECTIONS.items():
        rows = [row for more in runs.get(command, [{}])
                for row in COMMANDS[command].rows(run, _own_args(command, **flags, **more))]
        tables.append(f"  {json.dumps(name)}: {_json_rows(COMMANDS[command].fields, rows, 1)}")
    run.write(",\n".join(tables) + "\n}\n")


class _Parser(argparse.ArgumentParser):
    """A usage error ends like any other bad value: one `error:` line, exit code 1."""

    def error(self, message):
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    for name, kwargs in SHARED.items():
        shared.add_argument(f"--{name}", **kwargs)

    parser = _Parser(prog="ctcsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, parents=[shared], help=command.help)
        for flag, kwargs in command.flags:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=cmd_table)
    p = sub.add_parser("report", parents=[shared], help="everything, one JSON bundle")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        run = Run(args)
        with command_scope():
            args.func(run, args)
    except CtcsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
