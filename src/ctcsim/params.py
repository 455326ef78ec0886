"""Program parameters: loading, validation, overrides.

A parameter file is a JSON array with one record per (year, filing status).
Money fields (whole dollars in the shipped file) and rates may be decimal
literals, parsed exactly; `year` must be a JSON integer.
Loaded parameter sets are immutable value records (:mod:`ctcsim.record`) and
safe to share across threads; counterfactuals derive new sets through
:func:`apply_overrides`.
"""

from __future__ import annotations

import json
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Sequence, Union

from .errors import MissingYear, ParseError, ValidationError
from .money import as_money, as_rate
from .record import Record, replace


class FilingStatus(Enum):
    MARRIED_JOINT = "married_joint"
    HEAD_OF_HOUSEHOLD = "head_of_household"


class ParentalGroup(Enum):
    MARRIED = "married"
    SINGLE_FATHER = "single_father"
    SINGLE_MOTHER = "single_mother"

    @property
    def filing_status(self) -> FilingStatus:
        if self is ParentalGroup.MARRIED:
            return FilingStatus.MARRIED_JOINT
        return FilingStatus.HEAD_OF_HOUSEHOLD

    @property
    def adults(self) -> int:
        return 2 if self is ParentalGroup.MARRIED else 1


class Bracket(Record):
    """One marginal-rate band: applies up to `upper` taxable dollars (None = no cap)."""

    upper: Fraction | None
    rate: Fraction


class BracketSchedule(Record):
    brackets: tuple[Bracket, ...]

    def validate(self) -> None:
        if not self.brackets:
            raise ValidationError("bracket schedule is empty")
        prev_upper = Fraction(0)
        prev_rate = None
        for i, b in enumerate(self.brackets):
            last = i == len(self.brackets) - 1
            if (b.upper is None) != last:
                raise ValidationError("only the last bracket may omit its upper bound")
            if b.upper is not None and b.upper <= prev_upper:
                raise ValidationError("bracket upper bounds must be strictly increasing")
            if not (0 <= b.rate <= 1):
                raise ValidationError(f"bracket rate {b.rate} outside [0, 1]")
            if prev_rate is not None and b.rate < prev_rate:
                raise ValidationError("bracket rates must be nondecreasing")
            if b.upper is not None:
                prev_upper = b.upper
            prev_rate = b.rate

    def tax(self, taxable: Fraction) -> Fraction:
        """Tax due on `taxable` income (0 if not positive)."""
        if taxable <= 0:
            return Fraction(0)
        total = Fraction(0)
        lower = Fraction(0)
        for b in self.brackets:
            upper = taxable if b.upper is None else min(b.upper, taxable)
            if upper > lower:
                total += (upper - lower) * b.rate
            if b.upper is None or taxable <= b.upper:
                break
            lower = b.upper
        return total


class FilingParams(Record):
    standard_deduction: Fraction
    exemption_per_person: Fraction
    brackets: BracketSchedule
    phaseout_start: Fraction


class ProgramParameters(Record):
    """All program rules for one year, both filing statuses.

    Hashable by value: `filing` holds (status, rules) pairs in FilingStatus
    order, so equal rule sets built separately are equal keys.
    """

    year: int
    filing: tuple[tuple[FilingStatus, FilingParams], ...]
    ctc_per_child: Fraction
    actc_per_child: Fraction
    refund_threshold: Fraction
    refund_rate: Fraction
    phaseout_rate: Fraction
    _hash: int

    def __hash__(self) -> int:
        # Hashing the nested Fractions is costly and the fields never change,
        # so the hash is computed once per object.
        try:
            return self._hash
        except AttributeError:
            cached = hash((self.year, self.filing, self.ctc_per_child, self.actc_per_child,
                           self.refund_threshold, self.refund_rate, self.phaseout_rate))
            object.__setattr__(self, "_hash", cached)
            return cached

    def for_status(self, status: FilingStatus) -> FilingParams:
        for s, fp in self.filing:
            if s is status:
                return fp
        raise KeyError(status)

    def validate(self, strict: bool = True) -> None:
        """Check invariants; `strict=False` permits actc > ctc for counterfactuals."""
        if [s for s, _ in self.filing] != list(FilingStatus):
            raise ValidationError(f"year {self.year}: both filing statuses required")
        if self.ctc_per_child <= 0:
            raise ValidationError(f"year {self.year}: ctc_per_child must be positive")
        if self.actc_per_child <= 0:
            raise ValidationError(f"year {self.year}: actc_per_child must be positive")
        if strict and self.actc_per_child > self.ctc_per_child:
            raise ValidationError(
                f"year {self.year}: actc_per_child exceeds ctc_per_child"
            )
        if not (0 < self.refund_rate <= 1):
            raise ValidationError(f"year {self.year}: refund_rate outside (0, 1]")
        if not (0 < self.phaseout_rate < 1):
            raise ValidationError(f"year {self.year}: phaseout_rate outside (0, 1)")
        if self.refund_threshold < 0:
            raise ValidationError(f"year {self.year}: refund_threshold negative")
        for status, fp in self.filing:
            label = f"year {self.year} {status.value}"
            if fp.standard_deduction < 0:
                raise ValidationError(f"{label}: standard_deduction negative")
            if fp.exemption_per_person < 0:
                raise ValidationError(f"{label}: exemption_per_person negative")
            if fp.phaseout_start <= 0:
                raise ValidationError(f"{label}: phaseout_start must be positive")
            try:
                fp.brackets.validate()
            except ValidationError as exc:
                raise ValidationError(f"{label}: {exc}") from exc


_SCALAR_MONEY = ("ctc_per_child", "actc_per_child", "refund_threshold")
_SCALAR_RATES = ("refund_rate", "phaseout_rate")
_STATUS_MONEY = ("standard_deduction", "exemption_per_person", "phaseout_start")

OverrideValue = Union[int, Fraction, str, Mapping, Sequence, BracketSchedule]


def _parse_brackets(raw) -> BracketSchedule:
    if isinstance(raw, BracketSchedule):
        return raw
    brackets = []
    for entry in raw:
        if not isinstance(entry, Mapping):
            raise TypeError(f"bracket must be an object, got {type(entry).__name__}")
        upper = entry.get("upper")
        brackets.append(Bracket(None if upper is None else as_money(upper), as_rate(entry.get("rate"))))
    return BracketSchedule(tuple(brackets))


def _field(rec: Mapping, name: str, coerce):
    """``coerce(rec[name])``; a missing or malformed value is a ParseError naming the field."""
    if name not in rec:
        raise ParseError(f"missing field {name!r}")
    try:
        return coerce(rec[name])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad field {name!r}: {exc}") from None


def _record_to_filing(rec: Mapping) -> FilingParams:
    return FilingParams(
        standard_deduction=_field(rec, "standard_deduction", as_money),
        exemption_per_person=_field(rec, "exemption_per_person", as_money),
        brackets=_field(rec, "brackets", _parse_brackets),
        phaseout_start=_field(rec, "phaseout_start", as_money),
    )


def load_params(path: str | Path) -> dict[int, ProgramParameters]:
    """Load and validate a parameter file; returns {year: ProgramParameters}."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_float=Fraction)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, list) or not raw:
        raise ParseError(f"{path}: expected a non-empty top-level array of year records")

    by_year: dict[int, dict[FilingStatus, Mapping]] = {}
    for rec in raw:
        try:
            year = rec["year"]
            status = FilingStatus(rec["filing_status"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}: bad record header: {exc}") from exc
        if type(year) is not int:
            raise ParseError(f"{path}: year {year!r} is not an integer")
        slot = by_year.setdefault(year, {})
        if status in slot:
            raise ParseError(f"{path}: duplicate record for year {year} {status.value}")
        slot[status] = rec

    out: dict[int, ProgramParameters] = {}
    for year in sorted(by_year):
        recs = by_year[year]
        if set(recs) != set(FilingStatus):
            raise ValidationError(f"year {year}: both filing statuses required")
        shared = {}
        try:
            for field in _SCALAR_MONEY + _SCALAR_RATES:
                coerce = as_money if field in _SCALAR_MONEY else as_rate
                values = {_field(rec, field, coerce) for rec in recs.values()}
                if len(values) != 1:
                    raise ValidationError(
                        f"year {year}: field {field!r} differs across filing statuses")
                shared[field] = values.pop()
            filing = tuple((s, _record_to_filing(recs[s])) for s in FilingStatus)
        except ParseError as exc:
            raise ParseError(f"{path}: year {year}: {exc}") from None
        params = ProgramParameters(
            year=year,
            filing=filing,
            ctc_per_child=shared["ctc_per_child"],
            actc_per_child=shared["actc_per_child"],
            refund_threshold=shared["refund_threshold"],
            refund_rate=shared["refund_rate"],
            phaseout_rate=shared["phaseout_rate"],
        )
        params.validate()
        out[year] = params
    return out


def params_for_year(params_by_year: Mapping[int, ProgramParameters], year: int) -> ProgramParameters:
    try:
        return params_by_year[year]
    except KeyError:
        raise MissingYear(f"year {year} not present in parameter data") from None


def apply_overrides(
    base: ProgramParameters,
    overrides: Mapping[str, OverrideValue],
    strict: bool = True,
) -> ProgramParameters:
    """Return a copy of `base` with named fields replaced.

    Per-filing-status fields (standard_deduction, exemption_per_person,
    phaseout_start, brackets) accept either one value applied to both
    statuses or a mapping keyed by FilingStatus. The result is re-validated;
    `strict=False` allows actc_per_child > ctc_per_child, which some
    counterfactual walks pass through.
    """
    fields = dict(
        ctc_per_child=base.ctc_per_child,
        actc_per_child=base.actc_per_child,
        refund_threshold=base.refund_threshold,
        refund_rate=base.refund_rate,
        phaseout_rate=base.phaseout_rate,
    )
    filing = dict(base.filing)

    def per_status(value, coerce):
        if isinstance(value, Mapping) and any(isinstance(k, FilingStatus) for k in value):
            return {s: coerce(value[s]) for s in FilingStatus}
        return {s: coerce(value) for s in FilingStatus}

    for name, value in overrides.items():
        if name in _SCALAR_MONEY:
            fields[name] = as_money(value)
        elif name in _SCALAR_RATES:
            fields[name] = as_rate(value)
        elif name in _STATUS_MONEY:
            for s, v in per_status(value, as_money).items():
                filing[s] = replace(filing[s], **{name: v})
        elif name == "brackets":
            for s, v in per_status(value, _parse_brackets).items():
                filing[s] = replace(filing[s], brackets=v)
        else:
            raise ValidationError(f"unknown override field {name!r}")

    params = ProgramParameters(year=base.year, filing=tuple(filing.items()), **fields)
    params.validate(strict=strict)
    return params


def overrides_to(target: ProgramParameters, names: Iterable[str]) -> dict:
    """Build an override mapping that copies the named fields from `target`."""
    out: dict = {}
    for name in names:
        if name in _SCALAR_MONEY + _SCALAR_RATES:
            out[name] = getattr(target, name)
        elif name in _STATUS_MONEY:
            out[name] = {s: getattr(target.for_status(s), name) for s in FilingStatus}
        elif name == "brackets":
            out[name] = {s: target.for_status(s).brackets for s in FilingStatus}
        else:
            raise ValidationError(f"unknown override field {name!r}")
    return out
