from fractions import Fraction

import pytest

from ctcsim.money import as_money, as_rate, ceil_to_cent, dollars_str


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


def test_ceil_to_cent():
    assert ceil_to_cent(Fraction(29000, 3)) == Fraction(966667, 100)
    assert ceil_to_cent(Fraction(1, 100)) == Fraction(1, 100)
    assert ceil_to_cent(Fraction(0)) == 0


def test_dollars_str_rounds_half_up_for_display():
    assert dollars_str(Fraction(966667, 100)) == "9666.67"
    assert dollars_str(1000) == "1000.00"
    assert dollars_str(Fraction(1, 3)) == "0.33"
    assert dollars_str(Fraction(-5, 2)) == "-2.50"
