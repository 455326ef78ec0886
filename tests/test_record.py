"""Value records (`ctcsim.record`): equality, hashing, immutability, replace and repr."""

import copy
import enum
import importlib
import inspect
import pickle
import pkgutil
from fractions import Fraction

import pytest

import ctcsim

from ctcsim import HouseholdProfile, ParentalGroup, apply_overrides, benefit_at_income
from ctcsim.errors import ValidationError
from ctcsim.params import Bracket, BracketSchedule, ProgramParameters
from ctcsim.counterfactual import EliminationResult, PricedOutResult
from ctcsim.record import Enum, Record, replace

MOTHER = ParentalGroup.SINGLE_MOTHER


def test_equal_overrides_give_equal_keys_with_equal_hashes(params_by_year):
    overrides = {"ctc_per_child": 2500, "standard_deduction": 13000, "refund_rate": "0.2"}
    a = apply_overrides(params_by_year[2017], overrides)
    b = apply_overrides(params_by_year[2017], dict(overrides))
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: "cached"}[b] == "cached"
    assert a != apply_overrides(params_by_year[2017], overrides | {"ctc_per_child": 2400})


@pytest.mark.parametrize("build", [
    lambda rules: HouseholdProfile(MOTHER, Fraction(5, 3)),
    lambda rules: Bracket(Fraction(19050), Fraction(1, 10)),
    lambda rules: rules.married_joint.brackets,
    lambda rules: rules.head_of_household,
    lambda rules: apply_overrides(rules, {"ctc_per_child": 2100}),
], ids=["HouseholdProfile", "Bracket", "BracketSchedule", "FilingParams", "ProgramParameters"])
def test_a_record_hashes_its_fields_once(build, params_by_year, monkeypatch):
    record = build(params_by_year[2018])
    first = hash(record)
    assert first == hash(record._values(record))  # the hash of the fields
    hashed = []
    fraction_hash = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__", lambda f: hashed.append(f) or fraction_hash(f))
    assert hash(record) == first and hashed == []  # the second hash reads no field
    hash(HouseholdProfile(MOTHER, Fraction(7, 3)))
    assert len(hashed) == 1  # a fresh record's first hash is counted


def test_a_record_with_a_dict_field_never_hashes():
    result = EliminationResult(deltas={MOTHER: Fraction(1, 2)}, gaining_households=1)
    for _ in range(2):
        with pytest.raises(TypeError, match="unhashable"):
            hash(result)


@pytest.mark.parametrize("record, values", [
    (PricedOutResult(7, 2), (7, 2)),
    (Bracket(None, Fraction(1, 10)), (None, Fraction(1, 10))),
    (HouseholdProfile(MOTHER, 2), (MOTHER, Fraction(2))),
], ids=["PricedOutResult", "Bracket", "HouseholdProfile"])
def test_a_record_never_equals_a_tuple_of_its_fields(record, values):
    assert record != values and values != record
    assert record == type(record)(*values)


@pytest.mark.parametrize("record, field", [(PricedOutResult(7, 2), "priced_out"),
                                           (HouseholdProfile(MOTHER, 2), "children")],
                         ids=["PricedOutResult", "HouseholdProfile"])
def test_fields_cannot_be_assigned_or_deleted(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError, match="cannot assign"):
        setattr(record, field, before)
    with pytest.raises(AttributeError, match="cannot delete"):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.other = 1
    assert getattr(record, field) == before


def test_replace_coerces_and_checks_again():
    profile = HouseholdProfile(MOTHER, Fraction(5, 2))
    raised = replace(profile, children=3)
    assert type(raised.children) is Fraction and raised == HouseholdProfile(MOTHER, 3)
    assert profile.children == Fraction(5, 2)
    with pytest.raises(ValidationError, match="children must be nonnegative"):
        replace(profile, children=-1)
    with pytest.raises(TypeError):
        replace(profile, adults=2)


def test_repr_names_the_fields():
    assert repr(Bracket(None, Fraction(1, 10))) == "Bracket(upper=None, rate=Fraction(1, 10))"
    assert repr(PricedOutResult(7, 2)) == "PricedOutResult(full_relief_old=7, priced_out=2)"


def test_negative_inputs_are_validation_errors(params_by_year):
    with pytest.raises(ValidationError, match="children must be nonnegative"):
        HouseholdProfile(MOTHER, -1)
    with pytest.raises(ValidationError, match="income must be nonnegative"):
        benefit_at_income(-1, HouseholdProfile(MOTHER, 1), params_by_year[2018])


def test_a_one_field_record_is_not_its_field():
    schedule = BracketSchedule((Bracket(None, Fraction(1, 10)),))
    field = schedule.brackets
    assert schedule != field and field != schedule
    assert schedule != (field,) and (field,) != schedule
    assert schedule not in {field: "field"} and schedule in {schedule: "record"}
    assert schedule == BracketSchedule(field) and hash(schedule) == hash(BracketSchedule(field))


def _records(cls=Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _records(sub)


def test_records_compare_and_hash_through_the_base():
    own = {cls.__name__: [m for m in ("__eq__", "__hash__") if m in vars(cls)]
           for cls in _records()}
    assert len(own) >= 10
    assert {name: methods for name, methods in own.items() if methods} == {}
    assert ProgramParameters.__eq__ is Record.__eq__
    assert ProgramParameters.__hash__ is Record.__hash__


def test_every_enum_hashes_by_identity():
    """Enum members hash in C, by identity, not by `enum.Enum`'s Python hash of the name,
    and read their value through `record.Enum`'s C property, not `enum.Enum`'s Python
    descriptor. Members still round-trip through their value, pickle and deepcopy."""
    modules = [importlib.import_module(f"ctcsim.{info.name}")
               for info in pkgutil.iter_modules(ctcsim.__path__)]
    enums = {value for module in modules for value in vars(module).values()
             if isinstance(value, type) and issubclass(value, enum.Enum)
             and value.__module__.startswith("ctcsim.")}
    assert {cls.__name__ for cls in enums} >= {
        "FilingStatus", "ParentalGroup", "LiabilityMode", "ReliefCategory", "BoundRule",
        "Scenario", "GeneralizabilityFlag"}
    assert [cls.__name__ for cls in enums if cls.__hash__ is not object.__hash__] == []
    value = vars(Enum)["value"]
    assert [cls.__name__ for cls in enums
            if inspect.getattr_static(cls, "value") is not value] == []
    for cls in enums:
        for member in cls:
            assert cls(member.value) is member
            assert pickle.loads(pickle.dumps(member)) is member
            assert copy.deepcopy(member) is member
            with pytest.raises(AttributeError):
                member.value = member.value
