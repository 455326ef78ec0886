"""Program parameters: loading, range checks, overrides.

A parameter file is a JSON array with one record per (year, filing status).
Money fields (whole dollars in the shipped file) and rates may be decimal
literals, parsed exactly; `year` must be a JSON integer.
A year's two records load as one `ProgramParameters`: its `married_joint` and
`head_of_household` fields hold each status's own rules, and the credit rules
both records must agree on are shared fields.
Loaded parameter sets are immutable value records (:mod:`ctcsim.record`) and
safe to share across threads. Counterfactuals derive new sets two ways:
:func:`copy_fields` copies fields from another checked set, and
:func:`apply_overrides` parses new values from outside the rule data.
Each rule field's range is stated once, in its parser, and a raw value becomes
a field only through :func:`_parse`: at load for every field, at override for
each value set. The one rule across fields, actc_per_child <= ctc_per_child, is
checked at load, and at override unless `strict=False`.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from pathlib import Path
from typing import Iterable, Mapping, Sequence, Union

from .errors import CtcsimError, MissingYear, ParseError, ValidationError
from .money import as_money, as_rate, parse_decimal
from .record import Enum, Record, replace


class FilingStatus(Enum):
    MARRIED_JOINT = "married_joint"
    HEAD_OF_HOUSEHOLD = "head_of_household"


# A module name reads faster than an Enum class attribute, and `for_status` is on hot paths.
_MARRIED_JOINT = FilingStatus.MARRIED_JOINT
_STATUSES = dict.fromkeys(FilingStatus).keys()  # in class order, and set-like


class ParentalGroup(Enum):
    MARRIED = "married"
    SINGLE_FATHER = "single_father"
    SINGLE_MOTHER = "single_mother"

    def __init__(self, value: str):
        # Plain attributes, not properties: every kernel reads both.
        married = value == "married"
        self.filing_status = _MARRIED_JOINT if married else FilingStatus.HEAD_OF_HOUSEHOLD
        self.adults = 2 if married else 1


# The largest money amount a rule set may hold, in dollars, and its smallest nonzero rate.
# Thresholds and messages built from far larger amounts, or over far smaller rates, could
# pass the 4,300 digits Python prints of an integer.
MAX_MONEY = 10**12
MIN_RATE = Fraction(1, 10**12)


class Bracket(Record):
    """One marginal-rate band: applies up to `upper` taxable dollars (None = no cap)."""

    upper: Fraction | None
    rate: Fraction


class BracketSchedule(Record):
    """Bands in order. `_scaled`, set when the schedule is built, is its exact integer form
    ``(U, R, ((upper over U or None, rate over R), ...))``, U the lcm of the uppers'
    denominators and R of the rates'; not a field, so equality, hash and ``repr`` ignore it."""

    brackets: tuple[Bracket, ...]
    _scaled: tuple

    def __post_init__(self):
        uppers = lcm(*(b.upper.denominator for b in self.brackets if b.upper is not None))
        rates = lcm(*(b.rate.denominator for b in self.brackets))
        object.__setattr__(self, "_scaled", (uppers, rates, tuple(
            (None if b.upper is None else b.upper.numerator * (uppers // b.upper.denominator),
             b.rate.numerator * (rates // b.rate.denominator)) for b in self.brackets)))

    def tax(self, taxable: Fraction) -> Fraction:
        """Tax due on `taxable` income (0 if not positive). Kept for the test oracle and the
        benchmark's tracer; the package reads liability on `taxmath._Kernel`'s integers."""
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

    def for_status(self, status: FilingStatus) -> FilingParams:
        return self.married_joint if status is _MARRIED_JOINT else self.head_of_household


OverrideValue = Union[int, Fraction, str, Mapping, Sequence]


# Each rule field's parser also checks the field's range. A value out of range is a
# ValidationError naming the field; `_parse` puts the year, and the filing status, before it.


def _money(value, name: str, positive: bool = False) -> Fraction:
    """A dollar amount in [0, MAX_MONEY], or in (0, MAX_MONEY] if `positive`, coerced once;
    the message omits the value."""
    amount = as_money(value)
    if positive and amount.numerator <= 0:
        raise ValidationError(f"{name} must be positive")
    if amount.numerator < 0:
        raise ValidationError(f"{name} negative")
    if amount.numerator > MAX_MONEY * amount.denominator:
        raise ValidationError(f"{name} above {MAX_MONEY:,}")
    return amount


def _positive_money(value, name: str) -> Fraction:
    return _money(value, name, positive=True)


def _rate_up_to_1(value, name: str) -> Fraction:
    """A rate in (0, 1]."""
    rate = as_rate(value)
    if not 0 < rate.numerator <= rate.denominator:
        raise ValidationError(f"{name} outside (0, 1]")
    return rate


def _rate_below_1(value, name: str) -> Fraction:
    """A rate in (0, 1) and at least MIN_RATE."""
    rate = as_rate(value)
    if not 0 < rate.numerator < rate.denominator:
        raise ValidationError(f"{name} outside (0, 1)")
    if rate < MIN_RATE:
        raise ValidationError(f"{name} below {MIN_RATE}")
    return rate


def _brackets(raw, name: str) -> BracketSchedule:
    """A schedule from `{"upper", "rate"}` objects. It must be nonempty, with upper bounds
    increasing up to MAX_MONEY and omitted on the last band only, and nondecreasing rates in
    [0, 1], each zero or at least MIN_RATE."""
    brackets = []
    for entry in raw:
        if not isinstance(entry, Mapping):
            raise TypeError(f"bracket must be an object, got {type(entry).__name__}")
        upper = entry.get("upper")
        brackets.append(Bracket(None if upper is None else as_money(upper),
                                as_rate(entry.get("rate"))))
    schedule = BracketSchedule(tuple(brackets))
    if not brackets:
        raise ValidationError("bracket schedule is empty")
    _, rate_d, scaled = schedule._scaled  # compared as integers: uppers over U, rates over R
    prev_upper = prev_rate = 0
    for i, (b, (upper, rate)) in enumerate(zip(brackets, scaled)):
        if (upper is None) != (i == len(brackets) - 1):
            raise ValidationError("only the last bracket may omit its upper bound")
        if upper is not None:
            if upper <= prev_upper:
                raise ValidationError("bracket upper bounds must be strictly increasing")
            prev_upper = upper
            _money(b.upper, "bracket upper bound")
        if not 0 <= rate <= rate_d:
            raise ValidationError("bracket rate outside [0, 1]")
        if rate and rate * MIN_RATE.denominator < MIN_RATE.numerator * rate_d:
            raise ValidationError(f"nonzero bracket rate below {MIN_RATE}")
        if rate < prev_rate:
            raise ValidationError("bracket rates must be nondecreasing")
        prev_rate = rate
    return schedule


# Each rule field's parser: the fields both filing statuses share, then each status's own.
_SHARED_FIELDS = {"ctc_per_child": _positive_money, "actc_per_child": _positive_money,
                  "refund_threshold": _money, "refund_rate": _rate_up_to_1,
                  "phaseout_rate": _rate_below_1}
_STATUS_FIELDS = {"standard_deduction": _money, "exemption_per_person": _money,
                  "brackets": _brackets, "phaseout_start": _positive_money}


def _parse(parse, name: str, value, label: str):
    """``parse(value, name)``, with `label` before the message of a value out of range, and
    a malformed value a ParseError naming `label` and the field."""
    try:
        return parse(value, name)
    except ValidationError as exc:
        raise ValidationError(f"{label}: {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{label}: bad field {name!r}: {exc}") from None


def _field(rec: Mapping, name: str, parse, label: str):
    """`rec[name]` parsed, `label` before the message of a missing value too."""
    if name not in rec:
        raise ParseError(f"{label}: missing field {name!r}")
    return _parse(parse, name, rec[name], label)


def _check_credit_order(params: ProgramParameters) -> None:
    """The one rule across fields: the refundable maximum may not exceed the credit maximum."""
    actc, ctc = params.actc_per_child, params.ctc_per_child
    if actc.numerator * ctc.denominator > ctc.numerator * actc.denominator:
        raise ValidationError(f"year {params.year}: actc_per_child exceeds ctc_per_child")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object from its pairs; a key given twice is a ParseError naming it."""
    if len(obj := dict(pairs)) < len(pairs):  # dict() kept one value of a repeated key
        keys = [key for key, _ in pairs]
        raise ParseError(f"duplicate key {next(k for i, k in enumerate(keys) if k in keys[:i])!r}")
    return obj


def read_json(path: str | Path, parse_float=float):
    """The JSON document in `path`, each object's keys distinct, else a ParseError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_float=parse_float, object_pairs_hook=_unique_keys)
        except ValueError as exc:  # also an integer past the interpreter's digit limit
            raise ParseError(f"invalid JSON: {exc}") from exc


def load_params(path: str | Path) -> dict[int, ProgramParameters]:
    """Load a parameter file, each field checked as it is parsed and each year's
    actc_per_child against its ctc_per_child; returns {year: ProgramParameters}.
    Every error's message starts with the file's path."""
    path = Path(path)
    try:
        raw = read_json(path, parse_decimal)
        if not isinstance(raw, list) or not raw:
            raise ParseError("expected a non-empty top-level array of year records")
        by_year: dict[int, dict[FilingStatus, Mapping]] = {}
        for rec in raw:
            try:
                year, status = rec["year"], FilingStatus(rec["filing_status"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"bad record header: {exc}") from exc
            if type(year) is not int:
                raise ParseError(f"year {year!r} is not an integer")
            slot = by_year.setdefault(year, {})
            if status in slot:
                raise ParseError(f"duplicate record for year {year} {status.value}")
            slot[status] = rec

        out: dict[int, ProgramParameters] = {}
        for year, recs in sorted(by_year.items()):
            if set(recs) != set(FilingStatus):
                raise ValidationError(f"year {year}: both filing statuses required")
            shared, (first, second) = {}, recs.values()  # the records in file order
            for field, parse in _SHARED_FIELDS.items():
                shared[field] = value = _field(first, field, parse, f"year {year}")
                raw = second.get(field)  # parsed alike if equal in type too, as True == 1
                if ((type(raw), raw) != (type(first[field]), first[field])
                        and _field(second, field, parse, f"year {year}") != value):
                    raise ValidationError(
                        f"year {year}: field {field!r} differs across filing statuses")
            filing = {s.value: FilingParams(**{
                name: _field(recs[s], name, parse, f"year {year} {s.value}")
                for name, parse in _STATUS_FIELDS.items()}) for s in FilingStatus}
            out[year] = ProgramParameters(year=year, **filing, **shared)
            _check_credit_order(out[year])
        return out
    except CtcsimError as exc:
        raise type(exc)(f"{path}: {exc}") from None


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
    """Return a copy of `base` with named fields set to new raw values.

    Per-filing-status fields (standard_deduction, exemption_per_person,
    phaseout_start, brackets) accept either one value applied to both
    statuses or a mapping keyed by FilingStatus, which changes only the
    statuses it names; brackets come as a list of `{"upper", "rate"}`
    objects. Only the values given are parsed and checked, each against its
    field's range: `base` was checked when it was built. A malformed value is
    a ParseError and one out of range a ValidationError, each naming the
    year, the status of a per-status field, and the field. Then, if
    `strict`, actc_per_child must not exceed ctc_per_child; `strict=False`
    allows it, which some counterfactuals pass through. To take fields from
    another checked rule set, use :func:`copy_fields`.
    """
    changes: dict = {}
    for name, value in overrides.items():
        if (parse := _SHARED_FIELDS.get(name)) is not None:
            changes[name] = _parse(parse, name, value, f"year {base.year}")
        elif (parse := _STATUS_FIELDS.get(name)) is not None:
            # No field's own value is a mapping (brackets come as a list), so a mapping holds
            # values per status. A member hashes by identity, so only a member is in _STATUSES.
            if not isinstance(value, Mapping):
                value = dict.fromkeys(_STATUSES, value)
            elif not value.keys() <= _STATUSES:
                bad = next(key for key in value if key not in _STATUSES)
                raise ValidationError(f"override {name!r}: key {bad!r} is not a FilingStatus")
            for s, status_value in value.items():
                rules = changes.get(s.value) or base.for_status(s)
                parsed = _parse(parse, name, status_value, f"year {base.year} {s.value}")
                changes[s.value] = replace(rules, **{name: parsed})
        else:
            raise ValidationError(f"unknown override field {name!r}")

    params = replace(base, **changes)
    if strict:
        _check_credit_order(params)
    return params


def copy_fields(base: ProgramParameters, source: ProgramParameters,
                names: Iterable[str]) -> ProgramParameters:
    """`base` with the named fields copied from `source`, a per-status field for each status.
    Both were checked when built, so no value is parsed again; nor is the credit order
    checked, as a walk from one rule set to another may pass through sets that break it."""
    changes: dict = {}
    for name in names:
        if name in _SHARED_FIELDS:
            changes[name] = getattr(source, name)
        elif name in _STATUS_FIELDS:
            for s in FilingStatus:
                rules = changes.get(s.value) or base.for_status(s)
                changes[s.value] = replace(rules, **{name: getattr(source.for_status(s), name)})
        else:
            raise ValidationError(f"unknown field {name!r}")
    return replace(base, **changes)
