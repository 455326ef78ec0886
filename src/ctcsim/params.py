"""Program parameters: loading, validation, overrides.

A parameter file is a JSON array with one record per (year, filing status).
Money fields (whole dollars in the shipped file) and rates may be decimal
literals, parsed exactly; `year` must be a JSON integer.
A year's two records load as one `ProgramParameters`: its `married_joint` and
`head_of_household` fields hold each status's own rules, and the credit rules
both records must agree on are shared fields.
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
from .money import as_money, as_rate, parse_decimal
from .record import Record, replace


class FilingStatus(Enum):
    MARRIED_JOINT = "married_joint"
    HEAD_OF_HOUSEHOLD = "head_of_household"


# A module name reads faster than an Enum class attribute, and `for_status` is on hot paths.
_MARRIED_JOINT = FilingStatus.MARRIED_JOINT


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


# The largest money amount a rule set may hold, in dollars, and its smallest nonzero rate.
# Thresholds and messages built from far larger amounts, or over far smaller rates, could
# pass the 4,300 digits Python prints of an integer.
MAX_MONEY = 10**12
MIN_RATE = Fraction(1, 10**12)


def _below_min_rate(rate: Fraction) -> bool:
    """Whether a positive `rate` is below MIN_RATE, compared on integers as money is
    against MAX_MONEY: a `Fraction` comparison costs about a microsecond."""
    return rate.numerator * MIN_RATE.denominator < rate.denominator * MIN_RATE.numerator


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
            if b.upper is not None and b.upper.numerator > MAX_MONEY * b.upper.denominator:
                raise ValidationError(f"bracket upper bound above {MAX_MONEY:,}")
            if not (0 <= b.rate <= 1):
                raise ValidationError("bracket rate outside [0, 1]")
            if b.rate and _below_min_rate(b.rate):
                raise ValidationError(f"nonzero bracket rate below {MIN_RATE}")
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
    """All program rules for one year: each filing status's rules, in the field
    named by its `FilingStatus` value, and the credit rules both statuses share.

    Hashable by value, so equal rule sets built separately are equal keys.
    """

    year: int
    married_joint: FilingParams
    head_of_household: FilingParams
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
            cached = Record.__hash__(self)
            object.__setattr__(self, "_hash", cached)
            return cached

    def for_status(self, status: FilingStatus) -> FilingParams:
        return self.married_joint if status is _MARRIED_JOINT else self.head_of_household

    def validate(self, strict: bool = True) -> None:
        """Check invariants; `strict=False` permits actc > ctc for counterfactuals."""
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
        if _below_min_rate(self.phaseout_rate):
            raise ValidationError(f"year {self.year}: phaseout_rate below {MIN_RATE}")
        if self.refund_threshold < 0:
            raise ValidationError(f"year {self.year}: refund_threshold negative")
        _check_max_money(f"year {self.year}", _SHARED_MONEY,
                         (self.ctc_per_child, self.actc_per_child, self.refund_threshold))
        for status, fp in zip(FilingStatus, (self.married_joint, self.head_of_household)):
            label = f"year {self.year} {status.value}"
            _check_max_money(label, _STATUS_MONEY,
                             (fp.standard_deduction, fp.exemption_per_person, fp.phaseout_start))
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


_SHARED_MONEY = ("ctc_per_child", "actc_per_child", "refund_threshold")
_STATUS_MONEY = ("standard_deduction", "exemption_per_person", "phaseout_start")


def _check_max_money(label: str, names: tuple[str, ...], amounts: tuple[Fraction, ...]) -> None:
    """Raise naming the first amount above MAX_MONEY; the message omits its value."""
    for name, amount in zip(names, amounts):
        if amount.numerator > MAX_MONEY * amount.denominator:
            raise ValidationError(f"{label}: {name} above {MAX_MONEY:,}")


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


# Each rule field's parser: the fields both filing statuses share, then each status's own.
_SHARED_FIELDS = {"ctc_per_child": as_money, "actc_per_child": as_money,
                  "refund_threshold": as_money, "refund_rate": as_rate, "phaseout_rate": as_rate}
_STATUS_FIELDS = {"standard_deduction": as_money, "exemption_per_person": as_money,
                  "brackets": _parse_brackets, "phaseout_start": as_money}


def _field(rec: Mapping, name: str, coerce):
    """``coerce(rec[name])``; a missing or malformed value is a ParseError naming the field."""
    if name not in rec:
        raise ParseError(f"missing field {name!r}")
    try:
        return coerce(rec[name])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad field {name!r}: {exc}") from None


def _record_to_filing(rec: Mapping) -> FilingParams:
    return FilingParams(**{name: _field(rec, name, coerce) for name, coerce in _STATUS_FIELDS.items()})


def load_params(path: str | Path) -> dict[int, ProgramParameters]:
    """Load and validate a parameter file; returns {year: ProgramParameters}."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_float=parse_decimal)
    except ValueError as exc:  # also an integer past the interpreter's digit limit
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
            for field, coerce in _SHARED_FIELDS.items():
                values = {_field(rec, field, coerce) for rec in recs.values()}
                if len(values) != 1:
                    raise ValidationError(
                        f"year {year}: field {field!r} differs across filing statuses")
                shared[field] = values.pop()
            filing = {s.value: _record_to_filing(recs[s]) for s in FilingStatus}
        except ParseError as exc:
            raise ParseError(f"{path}: year {year}: {exc}") from None
        params = ProgramParameters(year=year, **filing, **shared)
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
    changes: dict = {}
    for name, value in overrides.items():
        if name in _SHARED_FIELDS:
            changes[name] = _SHARED_FIELDS[name](value)
        elif name in _STATUS_FIELDS:
            coerce = _STATUS_FIELDS[name]
            keyed = isinstance(value, Mapping) and any(isinstance(k, FilingStatus) for k in value)
            for s in FilingStatus:
                rules = changes.get(s.value) or base.for_status(s)
                changes[s.value] = replace(rules, **{name: coerce(value[s] if keyed else value)})
        else:
            raise ValidationError(f"unknown override field {name!r}")

    params = replace(base, **changes)
    params.validate(strict=strict)
    return params


def overrides_to(target: ProgramParameters, names: Iterable[str]) -> dict:
    """Build an override mapping that copies the named fields from `target`."""
    out: dict = {}
    for name in names:
        if name in _SHARED_FIELDS:
            out[name] = getattr(target, name)
        elif name in _STATUS_FIELDS:
            out[name] = {s: getattr(target.for_status(s), name) for s in FilingStatus}
        else:
            raise ValidationError(f"unknown override field {name!r}")
    return out
