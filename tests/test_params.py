import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctcsim import FilingStatus, apply_overrides, load_params
from ctcsim.params import (_SHARED_FIELDS, _STATUS_FIELDS, MAX_MONEY, Bracket, BracketSchedule,
                           copy_fields, params_for_year)
from ctcsim.record import replace
from ctcsim.errors import MissingYear, ParseError, ValidationError

import goldens


class TestLoad:
    def test_all_years_present(self, params_by_year):
        assert sorted(params_by_year) == list(range(2003, 2019))

    def test_2003_fixture_values(self, params_by_year):
        p = params_by_year[2003]
        assert p.refund_threshold == 10_500
        assert p.refund_rate == Fraction("0.10")

    def test_2009_fixture_values(self, params_by_year):
        p = params_by_year[2009]
        assert p.refund_threshold == 3_000
        assert p.ctc_per_child == p.actc_per_child == 1_000

    def test_2018_fixture_values(self, params_by_year):
        p = params_by_year[2018]
        assert p.ctc_per_child == 2_000
        assert p.actc_per_child == 1_400
        assert p.refund_threshold == 2_500
        for status in FilingStatus:
            assert p.for_status(status).exemption_per_person == 0

    def test_parity_through_2017(self, params_by_year):
        for year in range(2003, 2018):
            p = params_by_year[year]
            assert p.ctc_per_child == p.actc_per_child == 1_000

    def test_rule_table_matches_goldens(self, params_by_year):
        for i, year in enumerate(goldens.YEARS):
            p = params_by_year[year]
            mfj = p.for_status(FilingStatus.MARRIED_JOINT)
            hoh = p.for_status(FilingStatus.HEAD_OF_HOUSEHOLD)
            assert mfj.standard_deduction == goldens.RULES["standard_deduction_married"][i]
            assert hoh.standard_deduction == goldens.RULES["standard_deduction_single"][i]
            assert 3 * mfj.exemption_per_person == goldens.RULES["exemption_total_married"][i]
            assert 2 * hoh.exemption_per_person == goldens.RULES["exemption_total_single"][i]
            assert p.refund_threshold == goldens.RULES["refund_threshold"][i]
            if year < 2018:
                assert mfj.phaseout_start == goldens.RULES["phaseout_married"]
                assert hoh.phaseout_start == goldens.RULES["phaseout_single"]
            else:
                assert mfj.phaseout_start == goldens.RULES["phaseout_married_2018"]
                assert hoh.phaseout_start == goldens.RULES["phaseout_single_2018"]

    def test_rates_parse_exactly(self, params_by_year):
        assert params_by_year[2017].refund_rate == Fraction(3, 20)
        assert params_by_year[2017].phaseout_rate == Fraction(1, 20)

    def test_missing_year_accessor(self, params_by_year):
        with pytest.raises(MissingYear):
            params_for_year(params_by_year, 1999)

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ParseError):
            load_params(bad)

    def test_missing_filing_status(self, data_dir, tmp_path):
        records = json.loads((data_dir / "params.json").read_text())
        only_married = [r for r in records if r["filing_status"] == "married_joint"]
        f = tmp_path / "half.json"
        f.write_text(json.dumps(only_married))
        with pytest.raises(ValidationError) as raised:
            load_params(f)
        assert str(raised.value) == f"{f}: year 2003: both filing statuses required"

    def test_invariant_violation_names_year(self, data_dir, tmp_path):
        records = json.loads((data_dir / "params.json").read_text())
        for r in records:
            if r["year"] == 2010:
                r["actc_per_child"] = 1_500
        f = tmp_path / "broken.json"
        f.write_text(json.dumps(records))
        with pytest.raises(ValidationError) as raised:
            load_params(f)
        assert str(raised.value) == f"{f}: year 2010: actc_per_child exceeds ctc_per_child"

    @pytest.mark.parametrize("field, label", [("refund_rate", "year 2003"),
                                              ("phaseout_start", "year 2003 married_joint")])
    def test_missing_field_has_its_range_label(self, data_dir, tmp_path, field, label):
        records = json.loads((data_dir / "params.json").read_text())
        del records[0][field]  # the 2003 married_joint record
        f = tmp_path / "params.json"
        f.write_text(json.dumps(records))
        with pytest.raises(ParseError) as raised:
            load_params(f)
        assert str(raised.value) == f"{f}: {label}: missing field {field!r}"


class TestOverrides:
    def test_empty_override_is_identity(self, params_by_year):
        p = params_by_year[2017]
        assert apply_overrides(p, {}) == p

    def test_scalar_override(self, params_by_year):
        p = apply_overrides(params_by_year[2017], {"ctc_per_child": 2_000})
        assert p.ctc_per_child == 2_000
        assert p.actc_per_child == 1_000
        assert params_by_year[2017].ctc_per_child == 1_000  # base untouched

    def test_parity_override_2018(self, params_by_year):
        p = apply_overrides(params_by_year[2018], {"actc_per_child": 2_000})
        assert p.actc_per_child == p.ctc_per_child == 2_000

    def test_per_status_override(self, params_by_year):
        p = apply_overrides(
            params_by_year[2017],
            {"standard_deduction": {FilingStatus.MARRIED_JOINT: 24_000,
                                    FilingStatus.HEAD_OF_HOUSEHOLD: 18_000}},
        )
        assert p.for_status(FilingStatus.MARRIED_JOINT).standard_deduction == 24_000
        assert p.for_status(FilingStatus.HEAD_OF_HOUSEHOLD).standard_deduction == 18_000

    def test_per_status_override_of_one_status(self, params_by_year):
        base = params_by_year[2018]
        p = apply_overrides(base, {"phaseout_start": {FilingStatus.MARRIED_JOINT: 5000}})
        assert p.married_joint.phaseout_start == 5000
        assert p.head_of_household == base.head_of_household

    def test_per_status_override_keyed_by_name(self, params_by_year):
        with pytest.raises(ValidationError, match="override 'phaseout_start': key 'married_joint'"):
            apply_overrides(params_by_year[2018], {"phaseout_start": {"married_joint": 5000}})

    def test_invalid_combination_rejected(self, params_by_year):
        with pytest.raises(ValidationError):
            apply_overrides(params_by_year[2017], {"actc_per_child": 1_400})

    def test_lenient_mode_allows_it(self, params_by_year):
        p = apply_overrides(params_by_year[2017], {"actc_per_child": 1_400}, strict=False)
        assert p.actc_per_child == 1_400

    @pytest.mark.parametrize("name, value, message", [
        ("refund_threshold", MAX_MONEY, None),
        ("refund_threshold", MAX_MONEY + Fraction(1, 100),
         "year 2017: refund_threshold above 1,000,000,000,000"),
        ("exemption_per_person", Fraction(10**4300 + 1, 10**10),
         "year 2017 married_joint: exemption_per_person above 1,000,000,000,000"),
        ("brackets", [{"upper": MAX_MONEY, "rate": "0.1"}, {"rate": "0.2"}], None),
        ("brackets", [{"upper": MAX_MONEY + 1, "rate": "0.1"}, {"rate": "0.2"}],
         "year 2017 married_joint: bracket upper bound above 1,000,000,000,000"),
        ("refund_rate", 0, "year 2017: refund_rate outside (0, 1]"),
        ("phaseout_rate", Fraction(1, 10**13), "year 2017: phaseout_rate below 1/1000000000000"),
        ("phaseout_start", {FilingStatus.MARRIED_JOINT: 0, FilingStatus.HEAD_OF_HOUSEHOLD: 75000},
         "year 2017 married_joint: phaseout_start must be positive"),
    ], ids=["floor-at-cap", "floor-past-cap", "unprintable", "upper-at-cap", "upper-past-cap",
            "zero-refund-rate", "tiny-phaseout-rate", "keyed-zero-phaseout"])
    def test_values_are_range_checked(self, params_by_year, name, value, message):
        """Each value set is checked against its field's range. A money field may reach
        MAX_MONEY but not pass it; the message omits the value."""
        if message is None:
            apply_overrides(params_by_year[2017], {name: value})
        else:
            with pytest.raises(ValidationError) as raised:
                apply_overrides(params_by_year[2017], {name: value})
            assert str(raised.value) == message

    @pytest.mark.parametrize("name, value, message", [
        ("refund_rate", "abc",
         "year 2017: bad field 'refund_rate': Invalid literal for Fraction: 'abc'"),
        ("refund_rate", "1/0",
         "year 2017: bad field 'refund_rate': rate '1/0' has a zero denominator"),
        ("ctc_per_child", 1.5,
         "year 2017: bad field 'ctc_per_child': money must be int or Fraction, got float"),
        ("brackets", [5],
         "year 2017 married_joint: bad field 'brackets': bracket must be an object, got int"),
        ("phaseout_start", {FilingStatus.MARRIED_JOINT: 2.5},
         "year 2017 married_joint: bad field 'phaseout_start': money must be int or Fraction, "
         "got float"),
    ], ids=["rate-not-a-number", "rate-over-zero", "float-money", "bracket-not-an-object",
            "keyed-float-phaseout"])
    def test_malformed_values_name_year_and_field(self, params_by_year, name, value, message):
        """A malformed value ends in one ParseError with the same label as a value out of
        range: the year, the status of a per-status field, and the field."""
        with pytest.raises(ParseError) as raised:
            apply_overrides(params_by_year[2017], {name: value})
        assert str(raised.value) == message

    def test_unknown_field(self, params_by_year):
        with pytest.raises(ValidationError):
            apply_overrides(params_by_year[2017], {"bogus": 1})

    def test_copy_fields_takes_checked_values(self, params_by_year):
        base, source = params_by_year[2017], params_by_year[2018]
        every = [*_SHARED_FIELDS, *_STATUS_FIELDS]
        assert copy_fields(base, source, every) == replace(source, year=2017)
        assert copy_fields(base, source, []) == base
        with pytest.raises(ValidationError, match="unknown field 'bogus'"):
            copy_fields(base, source, ["bogus"])

    def test_idempotent(self, params_by_year):
        overrides = {"ctc_per_child": 2_000, "refund_threshold": 2_500}
        once = apply_overrides(params_by_year[2017], overrides)
        twice = apply_overrides(once, overrides)
        assert once == twice

    @given(
        ctc=st.integers(min_value=1_000, max_value=5_000),
        floor=st.integers(min_value=0, max_value=20_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_disjoint_overrides_commute(self, request, ctc, floor):
        base = request.getfixturevalue("params_by_year")[2017]
        a = {"ctc_per_child": ctc}
        b = {"refund_threshold": floor}
        left = apply_overrides(apply_overrides(base, a), b)
        right = apply_overrides(apply_overrides(base, b), a)
        assert left == right


# Override values as (what apply_overrides is given, the field value it must produce).
_money = st.integers(1, 300_000).map(lambda n: (n, n))
_rates = st.fractions(Fraction(1, 100), Fraction(99, 100), max_denominator=100).flatmap(
    lambda r: st.sampled_from([(r, r), (str(r), r)]))


@st.composite
def _schedules(draw):
    uppers = sorted(draw(st.sets(st.integers(1, 200_000), max_size=3)))
    rates = sorted(draw(st.lists(st.fractions(0, 1, max_denominator=100),
                                 min_size=len(uppers) + 1, max_size=len(uppers) + 1)))
    schedule = BracketSchedule(tuple(map(Bracket, [*uppers, None], rates)))
    raw = [{"upper": u, "rate": str(r)} for u, r in zip(uppers, rates)] + [{"rate": str(rates[-1])}]
    return raw, schedule


def _per_status(values):
    """One value for both statuses, or a FilingStatus-keyed mapping."""
    both = values.map(lambda v: (v[0], {s: v[1] for s in FilingStatus}))
    keyed = st.tuples(values, values).map(lambda vs: (
        dict(zip(FilingStatus, (v[0] for v in vs))), dict(zip(FilingStatus, (v[1] for v in vs)))))
    return both | keyed


_OVERRIDES = {"ctc_per_child": _money, "actc_per_child": _money, "refund_threshold": _money,
              "refund_rate": _rates, "phaseout_rate": _rates,
              "standard_deduction": _per_status(_money),
              "exemption_per_person": _per_status(_money),
              "phaseout_start": _per_status(_money), "brackets": _per_status(_schedules())}


def _read(params, name):
    """A shared field's value, or each status's value of a per-status field."""
    if hasattr(params, name):
        return getattr(params, name)
    return {s: getattr(params.for_status(s), name) for s in FilingStatus}


@given(year=st.integers(2003, 2018), drawn=st.fixed_dictionaries({}, optional=_OVERRIDES),
       data=st.data())
@settings(max_examples=200, deadline=None)
def test_overrides_apply_alike_at_once_and_one_at_a_time(request, year, drawn, data):
    base = request.getfixturevalue("params_by_year")[year]
    overrides = {name: given_value for name, (given_value, _) in drawn.items()}
    at_once = apply_overrides(base, overrides, strict=False)
    stepwise = base
    for name, value in data.draw(st.permutations(list(overrides.items()))):
        stepwise = apply_overrides(stepwise, {name: value}, strict=False)
    assert stepwise == at_once and hash(stepwise) == hash(at_once)
    for status in FilingStatus:
        assert at_once.for_status(status) is getattr(at_once, status.value)
    for name in _OVERRIDES:  # an overridden field reads its new value, any other the base's
        assert _read(at_once, name) == (drawn[name][1] if name in drawn else _read(base, name))
