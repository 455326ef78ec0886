from fractions import Fraction

import pytest

from ctcsim.money import as_money, as_rate, format_money


def test_as_money_accepts_int_and_fraction():
    assert as_money(25) == Fraction(25)
    assert as_money(Fraction(1, 3)) == Fraction(1, 3)


def test_as_money_returns_an_exact_fraction_itself():
    amount = Fraction(7, 3)
    assert as_money(amount) is amount
    assert type(as_money(7)) is Fraction


def test_as_money_rejects_float_and_bool():
    with pytest.raises(TypeError):
        as_money(1.5)
    with pytest.raises(TypeError):
        as_money(True)


def test_as_rate_parses_decimal_string_exactly():
    assert as_rate("0.15") == Fraction(3, 20)
    assert as_rate("0.05") == Fraction(1, 20)


def test_as_rate_rejects_float():
    with pytest.raises(TypeError):
        as_rate(0.15)


def test_format_money_rounds_up_to_the_cent():
    assert format_money(Fraction(29000, 3)) == "9666.67"
    assert format_money(Fraction(1, 100)) == "0.01"
    assert format_money(Fraction(0)) == "0.00"
