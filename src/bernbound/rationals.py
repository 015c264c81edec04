"""Exact rational parsing, formatting and interval helpers."""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import NamedTuple, Union

Rational = Union[Fraction, int, str]


def parse_rational(value: Rational) -> Fraction:
    """Parse ``"p/q"``, decimal strings like ``"1.3"``, or ints, exactly.

    Bools are rejected: a JSON ``true`` is not the number 1.  So is an
    exponent e with 10^|e| past ``sys.get_int_max_str_digits()`` (if any),
    before ``Fraction`` expands it: such a number could never be printed."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            _, marker, exponent = value.lower().rpartition("e")
            limit = getattr(sys, "get_int_max_str_digits", int)()
            if marker and limit and abs(int(exponent)) >= limit:
                raise ValueError(f"10^|exponent| has more than {limit} digits")
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational number: {value!r}") from exc
    raise ValueError(f"not a rational number: {value!r}")


def format_rational(value: Fraction) -> str:
    """Render a Fraction as ``"p"`` or ``"p/q"`` (lossless)."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def float_str(value: Fraction) -> str:
    """Six-significant-digit float rendering, for display only."""
    return f"{float(value):.6g}"


class Interval(NamedTuple):
    """Closed interval with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def contains(self, value: Fraction) -> bool:
        return self.lo <= value <= self.hi

    def encloses(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def width(self) -> Fraction:
        return self.hi - self.lo

