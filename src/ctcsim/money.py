"""Exact money and rate arithmetic.

All money paths use rational numbers (`fractions.Fraction`), never binary
floats, so threshold computations are exact and golden-value tests are
bit-stable. Amounts are denominated in dollars; input files carry integer
dollars, rates are parsed from their decimal literals (``0.15`` becomes
``3/20``, not the nearest float). An amount prints through one function,
:func:`format_money`, which rounds up to the cent.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

MoneyLike = Union[int, Fraction]


def as_money(value: MoneyLike) -> Fraction:
    """Coerce an integer or Fraction dollar amount to Fraction."""
    if isinstance(value, bool):
        raise TypeError("bool is not a money amount")
    if isinstance(value, (int, Fraction)):
        return value if type(value) is Fraction else Fraction(value)
    raise TypeError(f"money must be int or Fraction, got {type(value).__name__}")


def parse_decimal(text: str) -> Fraction:
    """A decimal literal such as ``"0.15"`` as an exact Fraction. An exponent beyond 4300, the
    default integer digit limit, is refused first: Fraction would expand it, taking seconds."""
    exponent = text.lower().partition("e")[2]  # read as Fraction reads it, then bounded
    if re.fullmatch(r"[-+]?\d+(_\d+)*\s*", exponent) and abs(int(exponent)) > 4300:
        raise ValueError("decimal exponent beyond 4300")
    return Fraction(text)


def as_rate(value) -> Fraction:
    """Parse a rate into an exact Fraction.

    Accepts Fraction, int, or a decimal string such as ``"0.15"``. Floats are
    rejected: they do not represent decimal rates exactly.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rate")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return parse_decimal(value)
        except ZeroDivisionError:
            raise ValueError(f"rate {value!r} has a zero denominator") from None
    raise TypeError(f"rate must be Fraction, int, or decimal string, got {type(value).__name__}")


def format_money(amount: MoneyLike) -> str:
    """Dollars rounded up to the cent, as text such as ``"9666.67"``."""
    cents = -(-amount.numerator * 100 // amount.denominator)
    sign, cents = ("-", -cents) if cents < 0 else ("", cents)
    return f"{sign}{cents // 100}.{cents % 100:02d}"
