"""Command-line interface: reproducible CSV/JSON reports over the library.

Every command reads the parameter file and population/children CSVs, runs
one analysis, and writes a table with a stable row order, so identical
inputs produce byte-identical output. Flags override a JSON run-config
file, which overrides built-in defaults; CTCSIM_DATA_DIR sets the default
data root.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import secrets
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

from . import counterfactual as cf
from .classifier import CATEGORY_ORDER, ReliefCategory, Scenario
from .errors import CtcsimError, ParseError, ValidationError
from .memo import command_scope
from .params import ParentalGroup, apply_overrides, load_params, params_for_year
from .population import load_population
from .stats import build_panel, did, fixed_effects
from .taxmath import LiabilityMode, thresholds

GROUPS = tuple(ParentalGroup)

OUTCOME_CHOICES = [c.value for c in ReliefCategory] + ["cd", "bc"]

# Shared options that take one of fixed values, for flags and config alike.
CHOICES = {
    "scenario": [s.value for s in Scenario],
    "format": ["csv", "json"],
    "liability": [m.value for m in LiabilityMode],
}
# Shared options a run-config file may set.
CONFIG_KEYS = ("params", "population", "children", "scenario", "years", "format",
               "liability", "out")


def _data_dir() -> Path:
    return Path(os.environ.get("CTCSIM_DATA_DIR", "data"))


def _ints(parts: list[str], what: str, text: str) -> list[int]:
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ValidationError(f"bad {what} {text!r}") from None


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
        return list(range(lo, hi + 1, step))
    return _ints(text.split(","), "credits", text)


def _load_config(path: str) -> dict:
    """A run-config file: a JSON object of shared options, each a string as on the command line."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ParseError(f"{path}: expected a JSON object")
    for name, value in config.items():
        if name not in CONFIG_KEYS:
            raise ValidationError(f"{path}: unknown config key {name!r}")
        if not isinstance(value, str):
            raise ValidationError(f"{path}: config {name!r} must be a string, not {value!r}")
        if name in CHOICES and value not in CHOICES[name]:
            raise ValidationError(
                f"{path}: config {name!r} must be one of {', '.join(CHOICES[name])}, not {value!r}")
    return config


def _fmt_share(value: Fraction | float) -> str:
    """Six decimals; ``count / total`` prints as its Fraction: int / int is correctly rounded."""
    return f"{float(value):.6f}"


def _json_rows(rows: list[dict], depth: int = 0) -> str:
    """``json.dumps(rows, indent=2)`` for a list of non-empty flat dicts, as nested `depth`
    levels deep, from one pass of the C encoder (it serves no ``indent``).

    The encoder escapes every newline inside a string, so ``},`` then the field indent then
    ``{`` can fall only between two rows, where one replace breaks the lines around the braces.
    """
    if not rows:
        return "[]"
    outer = "\n" + "  " * depth
    row, field = outer + "  ", outer + "    "
    text = json.dumps(rows, separators=("," + field, ": "))
    body = text[2:-2].replace("}," + field + "{", row + "}," + row + "{" + field)
    return "[" + row + "{" + field + body + row + "}" + outer + "]"


def _fmt_money(value: Fraction) -> str:
    """Dollars rounded up to the cent."""
    cents = -(-value.numerator * 100 // value.denominator)
    sign, cents = ("-", -cents) if cents < 0 else ("", cents)
    return f"{sign}{cents // 100}.{cents % 100:02d}"


class Run:
    """Resolved configuration plus lazily loaded inputs."""

    def __init__(self, args: argparse.Namespace):
        config = _load_config(args.config) if args.config else {}

        def pick(name, default):
            flag = getattr(args, name, None)
            if flag is not None:
                return flag
            if name in config:
                return config[name]
            return default

        data = _data_dir()
        self.params_path = Path(pick("params", data / "params.json"))
        self.population_path = Path(pick("population", data / "population.csv"))
        self.children_path = Path(pick("children", data / "children.csv"))
        self.scenario = Scenario(pick("scenario", "s1"))
        self.mode = LiabilityMode(pick("liability", "exact"))
        self.format = pick("format", "csv")
        self.out = pick("out", None)
        self.years = pick("years", None)
        self._params = None
        self._pop = None

    @property
    def params(self):
        if self._params is None:
            self._params = load_params(self.params_path)
        return self._params

    @property
    def pop(self):
        if self._pop is None:
            self._pop = load_population(self.population_path, self.children_path)
        return self._pop

    def year_range(self) -> list[int]:
        if self.years:
            lo, hi = _parse_years(self.years)
            for y in (lo, hi):
                params_for_year(self.params, y)
            return list(range(lo, hi + 1))
        return sorted(self.params)

    def emit(self, fieldnames: list[str], rows: list[dict]) -> None:
        if self.format == "json":
            text = _json_rows(rows) + "\n"
        else:
            buf = io.StringIO()
            writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
            text = buf.getvalue()
        self.write(text)

    def write(self, text: str) -> None:
        """Write `text` to stdout, or to the `--out` path whole or not at all.

        The text goes to a new file beside the target, or the file a symlink
        names, that then replaces it, so a failed write leaves neither a partial
        target nor the temp file. A FIFO or device is written in place.
        """
        if not self.out:
            sys.stdout.write(text)
            return
        target = Path(os.path.realpath(self.out))
        if target.exists() and not target.is_file():
            target.write_text(text, encoding="utf-8")
            return
        tmp = target.parent / f".{target.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp"
        fh = open(tmp, "x", encoding="utf-8")
        try:
            with fh:
                fh.write(text)
            os.replace(tmp, target)
        except BaseException:
            tmp.unlink()
            raise


# ---------------------------------------------------------------------------
# Row builders (shared between single commands and `report`)


def rows_thresholds(run: Run, years, groups, scenarios) -> list[dict]:
    rows = []
    for year in years:
        params = params_for_year(run.params, year)
        for group in groups:
            for scenario in scenarios:
                profile = cf.profile_for(run.pop, group, scenario, year)
                ts = thresholds(profile, params, run.mode)
                rows.append({
                    "year": year,
                    "group": group.value,
                    "scenario": scenario.value,
                    "children": f"{float(profile.children):.2f}",
                    "refund_floor": _fmt_money(ts.t_refund_floor),
                    "full_actc": _fmt_money(ts.t_full_actc),
                    "full_ctc": _fmt_money(ts.t_full_ctc),
                    "full_combined": _fmt_money(ts.t_full_combined),
                    "phaseout_start": _fmt_money(ts.t_phaseout_start),
                    "total_phaseout": _fmt_money(ts.t_total_phaseout),
                })
    return rows


THRESHOLD_FIELDS = ["year", "group", "scenario", "children", "refund_floor", "full_actc",
                    "full_ctc", "full_combined", "phaseout_start", "total_phaseout"]


def rows_classify(run: Run, years, groups, scenarios) -> list[dict]:
    rows = []
    for year in years:
        params = params_for_year(run.params, year)
        for group in groups:
            for scenario in scenarios:
                est = cf.eligibility(run.pop, year, group, params, scenario, mode=run.mode)
                total = est.total
                for cat in CATEGORY_ORDER:
                    rows.append({
                        "year": year,
                        "group": group.value,
                        "scenario": scenario.value,
                        "category": cat.value,
                        "count": est.counts[cat],
                        "proportion": _fmt_share(est.counts[cat] / total),
                        "flag": est.flags[cat].value,
                    })
    return rows


CLASSIFY_FIELDS = ["year", "group", "scenario", "category", "count", "proportion", "flag"]


def rows_piecemeal(run: Run, table: str, scenarios, pop_year: int, base_year: int) -> list[dict]:
    rows = []
    for scenario in scenarios:
        for r in cf.run_piecemeal_table(table, run.pop, run.params, scenario,
                                        pop_year=pop_year, base_year=base_year, mode=run.mode):
            rows.append({
                "table": table,
                "scenario": scenario.value,
                "step": r.step,
                "label": r.label,
                "group": r.group.value,
                "proportion": _fmt_share(r.proportion),
            })
    return rows


PIECEMEAL_FIELDS = ["table", "scenario", "step", "label", "group", "proportion"]


def rows_sweep(run: Run, years, credits, scenarios, parity: bool) -> list[dict]:
    rows = []
    for year in years:
        params = params_for_year(run.params, year)
        for scenario in scenarios:
            table = cf.credit_size_sweep(run.pop, year, credits, scenario, params,
                                         parity=parity, mode=run.mode)
            for credit, group, share in table:
                rows.append({
                    "year": year,
                    "scenario": scenario.value,
                    "credit": int(credit),
                    "group": group.value,
                    "proportion": _fmt_share(share),
                })
    rows.sort(key=lambda r: (r["year"], r["scenario"], r["credit"], r["group"]))
    return rows


SWEEP_FIELDS = ["year", "scenario", "credit", "group", "proportion"]


def rows_priced_out(run: Run, years, scenarios, new_ctc: int, skip_non_parity: bool = True) -> list[dict]:
    rows = []
    for year in years:
        params = params_for_year(run.params, year)
        if skip_non_parity and params.actc_per_child != params.ctc_per_child:
            continue
        for scenario in scenarios:
            for group in GROUPS:
                result = cf.priced_out(run.pop, year, group, params, new_ctc, scenario, run.mode)
                share = result.proportion_priced_out
                rows.append({
                    "year": year,
                    "scenario": scenario.value,
                    "group": group.value,
                    "full_relief_old": result.full_relief_old,
                    "priced_out": result.priced_out,
                    "proportion": "" if share is None else _fmt_share(share),
                })
    return rows


PRICED_FIELDS = ["year", "scenario", "group", "full_relief_old", "priced_out", "proportion"]


def rows_parity(run: Run, year: int, scenarios) -> list[dict]:
    rows = []
    for scenario in scenarios:
        params = params_for_year(run.params, year)
        result = cf.restore_parity(run.pop, year, params, scenario, run.mode)
        at_parity = apply_overrides(params, {"actc_per_child": params.ctc_per_child})
        no_floor = apply_overrides(at_parity, {"refund_threshold": 0})
        steps = [
            ("1", "full credit, baseline rules", result.before),
            ("2", "full relief after refundable parity", result.after),
            ("3", "full relief after parity, floor removed", {
                g: cf.full_relief_proportion(run.pop, year, g, no_floor, scenario, run.mode)
                for g in GROUPS
            }),
        ]
        for step, label, shares in steps:
            for group in GROUPS:
                rows.append({
                    "year": year,
                    "scenario": scenario.value,
                    "step": step,
                    "label": label,
                    "group": group.value,
                    "proportion": _fmt_share(shares[group]),
                })
    return rows


PARITY_FIELDS = ["year", "scenario", "step", "label", "group", "proportion"]


def rows_eliminate(run: Run, year: int, scenarios) -> list[dict]:
    rows = []
    for scenario in scenarios:
        params = params_for_year(run.params, year)
        result = cf.eliminate_refundability(run.pop, year, params, scenario, run.mode)
        for group in GROUPS:
            rows.append({
                "year": year,
                "scenario": scenario.value,
                "group": group.value,
                "access_delta": _fmt_share(result.deltas[group]),
                "gaining_households": "",
            })
        rows.append({
            "year": year,
            "scenario": scenario.value,
            "group": "all",
            "access_delta": "",
            "gaining_households": result.gaining_households,
        })
    return rows


ELIMINATE_FIELDS = ["year", "scenario", "group", "access_delta", "gaining_households"]


def _fmt_estimate(value: float) -> str:
    """Six decimals; a value that rounds to zero prints without a sign."""
    text = f"{value:.6f}"
    return "0.000000" if text == "-0.000000" else text


def _stars(estimate: float, se: float) -> str:
    if se == 0.0:
        return "***" if estimate != 0.0 else ""
    p = math.erfc(abs(estimate / se) / math.sqrt(2.0))  # two-sided normal p-value
    if p < 0.01:
        return "***"
    if p < 0.05:
        return "**"
    return "*" if p < 0.1 else ""


def _outcome_series(run: Run, outcome: str, years, scenario: Scenario):
    if outcome == "cd":
        cats = (ReliefCategory.FULL_ACTC, ReliefCategory.FULL_CTC)
    elif outcome == "bc":
        cats = (ReliefCategory.SOME_ACTC, ReliefCategory.FULL_ACTC)
    else:
        cats = (ReliefCategory(outcome),)
    rows = []
    for year in years:
        params = params_for_year(run.params, year)
        for group in GROUPS:
            est = cf.eligibility(run.pop, year, group, params, scenario, mode=run.mode)
            rows.append((year, group, sum(est.counts[c] for c in cats) / est.total))
    return build_panel(rows)


def _fit_rows(run: Run, fit, outcomes, years, scenarios) -> list[dict]:
    """One row per term of `fit(panel)` for each scenario and outcome series."""
    rows = []
    for scenario in scenarios:
        for outcome in outcomes:
            res = fit(_outcome_series(run, outcome, years, scenario))
            defined = res.df_resid > 0  # a zero-df fit has no SE, hence no stars
            for name in res.names:
                est, se = res.estimate(name), res.se(name)
                rows.append({
                    "scenario": scenario.value,
                    "outcome": outcome,
                    "term": name,
                    "estimate": _fmt_estimate(est),
                    "robust_se": f"{se:.6f}" if defined else "",
                    "stars": _stars(est, se) if defined else "",
                })
    return rows


def rows_regress(run: Run, outcomes, years, scenarios) -> list[dict]:
    fit = partial(fixed_effects, baseline_year=max(years))
    return _fit_rows(run, fit, outcomes, years, scenarios)


REGRESS_FIELDS = ["scenario", "outcome", "term", "estimate", "robust_se", "stars"]


def rows_did(run: Run, outcomes, years, post_year, scenarios) -> list[dict]:
    return _fit_rows(run, partial(did, post_year=post_year), outcomes, years, scenarios)


# ---------------------------------------------------------------------------
# Commands


def cmd_thresholds(run: Run, args) -> None:
    years = [args.year] if args.year else run.year_range()
    groups = [ParentalGroup(args.group)] if args.group else list(GROUPS)
    run.emit(THRESHOLD_FIELDS, rows_thresholds(run, years, groups, [run.scenario]))


def cmd_classify(run: Run, args) -> None:
    years = [args.year] if args.year else run.year_range()
    groups = [ParentalGroup(args.group)] if args.group else list(GROUPS)
    run.emit(CLASSIFY_FIELDS, rows_classify(run, years, groups, [run.scenario]))


def cmd_piecemeal(run: Run, args) -> None:
    run.emit(PIECEMEAL_FIELDS,
             rows_piecemeal(run, args.table, [run.scenario], args.pop_year, args.base_year))


def cmd_sweep(run: Run, args) -> None:
    credits = _parse_credits(args.credits)
    years = [args.year] if args.year else [max(run.year_range())]
    run.emit(SWEEP_FIELDS, rows_sweep(run, years, credits, [run.scenario], not args.no_parity))


def cmd_priced_out(run: Run, args) -> None:
    years = [args.year] if args.year else run.year_range()
    # An explicitly named year must qualify; scans skip non-parity years.
    rows = rows_priced_out(run, years, [run.scenario], args.new_ctc,
                           skip_non_parity=args.year is None)
    run.emit(PRICED_FIELDS, rows)


def cmd_parity(run: Run, args) -> None:
    run.emit(PARITY_FIELDS, rows_parity(run, args.year, [run.scenario]))


def cmd_eliminate(run: Run, args) -> None:
    run.emit(ELIMINATE_FIELDS, rows_eliminate(run, args.year, [run.scenario]))


def _outcomes(text: str | None, default: list[str]) -> list[str]:
    outcomes = text.split(",") if text else default
    for outcome in outcomes:
        if outcome not in OUTCOME_CHOICES:
            raise ValidationError(f"unknown outcome {outcome!r}")
    return outcomes


def _fe_years(years: list[int]) -> list[int]:
    """Fixed-effects fits cover the years before the 2018 reform, or all if none precede it."""
    return [y for y in years if y < 2018] or years


def cmd_regress(run: Run, args) -> None:
    outcomes = _outcomes(args.outcome, ["a", "b", "c", "d", "e", "f", "cd", "bc"])
    years = _fe_years(run.year_range())
    run.emit(REGRESS_FIELDS, rows_regress(run, outcomes, years, [run.scenario]))


def cmd_did(run: Run, args) -> None:
    outcomes = _outcomes(args.outcome, ["c", "d", "e"])
    rows = rows_did(run, outcomes, run.year_range(), args.post_year, [run.scenario])
    run.emit(REGRESS_FIELDS, rows)


def cmd_report(run: Run, args) -> None:
    years = run.year_range()
    new_law_year = max(years)
    settings = {"scenario": "both", "liability": run.mode.value, "years": [years[0], years[-1]]}
    sections = {
        "thresholds": rows_thresholds(run, years, GROUPS, list(Scenario)),
        "eligibility": rows_classify(run, years, GROUPS, list(Scenario)),
        "piecemeal_full_credit": rows_piecemeal(run, "1a", list(Scenario), new_law_year, new_law_year - 1),
        "piecemeal_full_refundable": rows_piecemeal(run, "1b", list(Scenario), new_law_year, new_law_year - 1),
        "parity": rows_parity(run, new_law_year, list(Scenario)),
        "eliminate_refundability": rows_eliminate(run, new_law_year, list(Scenario)),
        "priced_out": rows_priced_out(run, years, list(Scenario), 2000),
        "credit_sweep": rows_sweep(run, [y for y in (2017, 2018) if y in years] or [new_law_year],
                                   [500, 1000, 1400, 2000, 3000, 3600], list(Scenario), True),
        "fixed_effects": rows_regress(run, ["a", "b", "c", "d", "e", "f", "cd", "bc"], _fe_years(years), list(Scenario)),
        # A range with no year before the new law has no pre-period to difference.
        "did": rows_did(run, ["c", "d", "e"], years, new_law_year, list(Scenario))
        if years[0] < new_law_year else [],
    }
    # The bundle as `json.dumps(indent=2)` writes it: the settings block, then each table.
    head = json.dumps({"settings": settings}, indent=2)[:-2]
    tables = [f"  {json.dumps(name)}: {_json_rows(rows, 1)}" for name, rows in sections.items()]
    run.write(",\n".join([head, *tables]) + "\n}\n")


class _Parser(argparse.ArgumentParser):
    """A usage error ends like any other bad value: one `error:` line, exit code 1."""

    def error(self, message):
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--params", help="parameter file (JSON)")
    shared.add_argument("--population", help="population bins CSV")
    shared.add_argument("--children", help="children histogram CSV")
    shared.add_argument("--scenario", choices=CHOICES["scenario"], default=None)
    shared.add_argument("--years", help="year range A:B or single year")
    shared.add_argument("--format", choices=CHOICES["format"], default=None)
    shared.add_argument("--liability", choices=CHOICES["liability"], default=None)
    shared.add_argument("--out", help="write output to this path instead of stdout")
    shared.add_argument("--config", help="JSON run-config file; flags take precedence")

    parser = _Parser(prog="ctcsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("thresholds", parents=[shared], help="category-boundary incomes")
    p.add_argument("--year", type=int)
    p.add_argument("--group", choices=[g.value for g in GROUPS])
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("classify", parents=[shared], help="eligibility category shares")
    p.add_argument("--year", type=int)
    p.add_argument("--group", choices=[g.value for g in GROUPS])
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("piecemeal", parents=[shared], help="one-parameter-at-a-time walk")
    p.add_argument("--table", choices=["1a", "1b"], default="1a")
    p.add_argument("--pop-year", type=int, default=2018)
    p.add_argument("--base-year", type=int, default=2017)
    p.set_defaults(func=cmd_piecemeal)

    p = sub.add_parser("sweep", parents=[shared], help="full relief by credit size")
    p.add_argument("--credits", default="500:3600:100", help="range A:B:STEP or comma list")
    p.add_argument("--year", type=int)
    p.add_argument("--no-parity", action="store_true",
                   help="keep the refundable maximum at its baseline value")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("priced-out", parents=[shared], help="households priced out of full relief")
    p.add_argument("--new-ctc", type=int, default=2000)
    p.add_argument("--year", type=int)
    p.set_defaults(func=cmd_priced_out)

    p = sub.add_parser("parity", parents=[shared], help="full relief before/after refundable parity")
    p.add_argument("--year", type=int, default=2018)
    p.set_defaults(func=cmd_parity)

    p = sub.add_parser("eliminate-refund", parents=[shared], help="access gained without the floor")
    p.add_argument("--year", type=int, default=2018)
    p.set_defaults(func=cmd_eliminate)

    p = sub.add_parser("regress", parents=[shared], help="fixed-effects panel regressions")
    p.add_argument("--outcome", help="comma list of a..f, cd, bc (default: all)")
    p.set_defaults(func=cmd_regress)

    p = sub.add_parser("did", parents=[shared], help="difference-in-differences estimates")
    p.add_argument("--outcome", help="comma list of a..f, cd, bc (default: c,d,e)")
    p.add_argument("--post-year", type=int, default=2018)
    p.set_defaults(func=cmd_did)

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
