"""Exact rational and point parsing, formatting and interval helpers."""

from __future__ import annotations

import sys
from fractions import Fraction
from math import floor, log10
from typing import NamedTuple, Sequence, Tuple, Union

Rational = Union[Fraction, int, str]


def parse_rational(value: Rational) -> Fraction:
    """Parse ``"p/q"``, decimal strings like ``"1.3"``, or ints, exactly.

    Bools are rejected: a JSON ``true`` is not the number 1.  So is a string
    whose reduced numerator or denominator has more digits than
    ``sys.get_int_max_str_digits()`` (if there is a limit), since it could
    never be printed; an exponent e with 10^|e| past the limit is refused
    before ``Fraction`` expands it."""
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
            parsed = Fraction(value.strip())
            # Below 8^limit, so below 10^limit, whenever within 3 * limit bits.
            big = max(abs(parsed.numerator), parsed.denominator)
            if limit and big.bit_length() > 3 * limit and big >= 10 ** limit:
                raise ValueError(f"more than {limit} digits")
            return parsed
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational number: {value!r}") from exc
    raise ValueError(f"not a rational number: {value!r}")


def parse_point(values: Sequence[Rational]) -> Tuple[Fraction, ...]:
    """A point from a sequence of rationals, each read by
    ``parse_rational``.  A string or a JSON object is not one, though it
    iterates as its characters or its keys: each raises ``TypeError``."""
    if isinstance(values, (str, dict)):
        raise TypeError(f"a point is a sequence of coordinates, not {values!r}")
    return tuple([parse_rational(v) for v in values])


def format_rational(value: Fraction) -> str:
    """Render a Fraction as ``"p"`` or ``"p/q"`` (lossless)."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def float_str(value: Fraction) -> str:
    """Six-significant-digit float rendering, for display only.  A nonzero
    value outside the normal float range, of magnitude below 2^-1022
    (``sys.float_info.min``) or rounding beyond the largest float, is
    rounded exactly, half to even, to the same form: ``1e+309``,
    ``-1.3e+309``, ``1e-320``, where the float would print ``inf``, ``0`` or
    a subnormal's few digits.  Zero prints as ``0``."""
    try:
        approx = float(value)
    except OverflowError:
        return _exact_str(Fraction(value))
    if abs(approx) <= sys.float_info.min and 0 < abs(value) < sys.float_info.min:
        return _exact_str(Fraction(value))
    return f"{approx:.6g}"


def _exact_str(value: Fraction) -> str:
    """``.6g`` of a nonzero value too large for a float or of magnitude
    below 2^-1022, rounded exactly, half to even; its decimal exponent is
    above 300 or below -300, so the form is always exponential."""
    num, den = abs(value.numerator), value.denominator
    # Start one below the decimal exponent, which log10 may miss by one.
    exponent = floor(log10(num) - log10(den)) - 1
    # The six digits num / den / 10^(exponent - 5), scaled on integers.
    while (digits := round(Fraction(num * 10 ** max(5 - exponent, 0),
                                    den * 10 ** max(exponent - 5, 0)))) >= 10 ** 6:
        exponent += 1
    head, tail = str(digits)[0], str(digits)[1:].rstrip("0")
    return f"{'-' if value < 0 else ''}{head}{'.' * bool(tail)}{tail}e{exponent:+d}"


class Interval(NamedTuple):
    """Closed interval with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

