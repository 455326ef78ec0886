"""Seeded inputs: perturbed population/children CSVs and the rule-set stream.

Everything here derives from the shipped files under ``data/`` and the
benchmark seed alone, with the standard-library generator, so one seed gives
byte-identical inputs on every run and every host. The benchmark computes the
facts its checks need (bin counts, totals, average children) from the rows it
writes, not through the library's loaders.
"""

from __future__ import annotations

import csv
import random
from array import array
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# Population counts move by up to this share each way; zero bins stay zero.
COUNT_JITTER = 0.15
# Children histogram buckets move by a smaller share, and a draw is kept only
# when every s2 average stays inside the shipped range for its group, so the
# report keeps the structure the shipped data gives it.
CHILDREN_JITTER = 0.03
CHILDREN_TRIES = 200


@dataclass(frozen=True)
class Inputs:
    """Paths of one generated input set plus the facts checks compare against."""

    params: Path
    population: Path
    children: Path
    bins: dict  # (year, group) -> list of (bin_lower, count)
    children_avg: dict  # (year, group) -> Fraction, '8plus' counted as 8

    def total(self, year: int, group: str) -> int:
        return sum(count for _, count in self.bins[(year, group)])


def _read_rows(path: Path) -> tuple[list[str], list[dict]]:
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames), list(reader)


def _write_rows(path: Path, fields: list[str], rows: list[dict]) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _average(counts: dict[str, int]) -> Fraction:
    weighted = sum((8 if key == "8plus" else int(key)) * n for key, n in counts.items())
    return Fraction(weighted, sum(counts.values()))


def _jitter(rng: random.Random, count: int, share: float) -> int:
    return max(0, round(count * (1 + share * (2 * rng.random() - 1))))


def write_inputs(root: Path, seed: int, dest: Path) -> Inputs:
    """Write perturbed population and children CSVs for `seed` into `dest`."""
    data = root / "data"
    rng = random.Random(seed)

    pop_fields, pop_rows = _read_rows(data / "population.csv")
    totals: dict = {}
    for row in pop_rows:
        row["count"] = str(_jitter(rng, int(row["count"]), COUNT_JITTER))
        key = (row["year"], row["group"])
        totals[key] = totals.get(key, 0) + int(row["count"])
    if min(totals.values()) <= 0:
        raise ValueError("perturbation emptied a population cell")

    child_fields, child_rows = _read_rows(data / "children.csv")
    cells: dict = {}
    for row in child_rows:
        cells.setdefault((int(row["year"]), row["group"]), []).append(row)
    shipped = {key: _average({r["children"]: int(r["count"]) for r in rows})
               for key, rows in cells.items()}
    ranges = {}
    for (_, group), avg in shipped.items():
        lo, hi = ranges.get(group, (avg, avg))
        ranges[group] = (min(lo, avg), max(hi, avg))
    for key, rows in cells.items():
        lo, hi = ranges[key[1]]
        counts = [int(r["count"]) for r in rows]
        for _ in range(CHILDREN_TRIES):
            drawn = [_jitter(rng, n, CHILDREN_JITTER) for n in counts]
            avg = _average({r["children"]: n for r, n in zip(rows, drawn)})
            if lo <= avg <= hi:
                break
        else:
            drawn = counts
        for r, n in zip(rows, drawn):
            r["count"] = str(n)

    dest.mkdir(parents=True, exist_ok=True)
    _write_rows(dest / "population.csv", pop_fields, pop_rows)
    _write_rows(dest / "children.csv", child_fields, child_rows)
    return read_inputs(data / "params.json", dest / "population.csv", dest / "children.csv")


def read_inputs(params: Path, population: Path, children: Path) -> Inputs:
    """Facts the checks need, read straight from the CSV rows."""
    bins: dict = {}
    for row in _read_rows(population)[1]:
        key = (int(row["year"]), row["group"])
        bins.setdefault(key, []).append((int(row["bin_lower"]), int(row["count"])))
    for seq in bins.values():
        seq.sort()
    hist: dict = {}
    for row in _read_rows(children)[1]:
        hist.setdefault((int(row["year"]), row["group"]), {})[row["children"]] = int(row["count"])
    return Inputs(params, population, children, bins,
                  {key: _average(counts) for key, counts in hist.items()})


# ---------------------------------------------------------------------------
# Rule-set stream


RULE_FIELDS = ("year", "ctc", "actc", "floor", "rate_pct", "phaseout_married", "phaseout_hoh")
REFUND_RATES_PCT = (10, 15, 20, 25)


class RuleStream:
    """Columns of seeded counterfactual rule sets, one per op, all distinct in practice.

    Each rule set starts from one shipped year and replaces the credit and
    refundable maxima, the refundability floor and rate, and both phaseout
    starts. The refundable maximum never exceeds the credit maximum (strict
    validation would reject every such set), and the floor never exceeds the
    smallest tax-free amount of any household, so nobody owes tax below the
    floor: the six-category model and the brute-force reference only agree
    on rule sets of that shape.
    """

    def __init__(self, seed: int, years: list[int], min_tax_free: dict[int, int], size: int):
        rng = random.Random(f"rule-sweep:{seed}")
        self.columns = {name: array("q") for name in RULE_FIELDS}
        for _ in range(size):
            year = rng.choice(years)
            ctc = rng.randrange(500, 3601, 10)
            actc = rng.randrange(ctc * 2 // 5 // 10 * 10, ctc + 1, 10)  # 40-100% of ctc
            values = (
                year,
                ctc,
                actc,
                rng.randrange(0, min_tax_free[year] + 1, 50),
                rng.choice(REFUND_RATES_PCT),
                rng.randrange(60_000, 400_001, 1000),
                rng.randrange(50_000, 200_001, 1000),
            )
            for name, value in zip(RULE_FIELDS, values):
                self.columns[name].append(value)

    def __len__(self) -> int:
        return len(self.columns["year"])

    def __getitem__(self, index: int) -> dict[str, int]:
        return {name: col[index] for name, col in self.columns.items()}
