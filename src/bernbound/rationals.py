"""Exact rational and point parsing, formatting and interval helpers.

Problem files are read, and reports written, on reduced integer pairs
(p, q), q > 0: ``_ratio`` reads a plain ``"p"`` or ``"p/q"`` string with
``int`` and one gcd and hands every other value to ``parse_rational``, the
one general rule; ``_point_ratios`` reads a point that way.
``_format_ratio`` prints a pair and ``_float_ratio`` renders one as a
float, so an output needs no ``Fraction`` per value; ``format_rational``
and ``float_str`` are those two rules on a ``Fraction``.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import floor, gcd, log10
from typing import List, NamedTuple, Sequence, Tuple, Union

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


def _ratio(value: Rational) -> Tuple[int, int]:
    """``parse_rational(value)`` as its reduced pair (p, q), q > 0.

    A plain ASCII string ``-?digits`` or ``-?digits/digits`` with q != 0 is
    read by ``int`` and one gcd, building no ``Fraction``.  Every other
    value, and such a string past the interpreter's digit limit (on which
    ``int`` raises), goes through ``parse_rational``, so every accepted
    value, error message and limit is that rule's: a string within the
    limit has a reduced pair within it too."""
    if value.__class__ is str and value.isascii():
        num, slash, den = value.partition("/")
        if (num[1:] if num[:1] == "-" else num).isdigit() and (den.isdigit() or not slash):
            try:
                p, q = int(num), int(den) if slash else 1
            except ValueError:  # past the digit limit
                pass
            else:
                if q:
                    g = gcd(p, q)
                    return p // g, q // g
    parsed = parse_rational(value)
    return parsed.numerator, parsed.denominator


def _point_ratios(values: Sequence[Rational]) -> List[Tuple[int, int]]:
    """A point's coordinates as ``_ratio`` pairs.  A string or a JSON object
    is not a point, though it iterates as its characters or its keys: each
    raises ``TypeError``."""
    if isinstance(values, (str, dict)):
        raise TypeError(f"a point is a sequence of coordinates, not {values!r}")
    return [_ratio(v) for v in values]


def format_rational(value: Fraction) -> str:
    """Render a Fraction as ``"p"`` or ``"p/q"`` (lossless)."""
    return _format_ratio(value.numerator, value.denominator)


def _format_ratio(p: int, q: int) -> str:
    """The one rational formatter: p / q, q > 0, in lowest terms as ``"p"``
    or ``"p/q"``."""
    g = gcd(p, q)
    p, q = p // g, q // g
    return str(p) if q == 1 else f"{p}/{q}"


def float_str(value: Fraction) -> str:
    """Six-significant-digit float rendering, for display only: the rule of
    ``_float_ratio`` on a Fraction."""
    return _float_ratio(value.numerator, value.denominator)


def _float_ratio(p: int, q: int) -> str:
    """Six-significant-digit float rendering of p / q, q > 0, reduced or
    not, for display only.  The integer true division rounds correctly, so
    the float is that of the reduced value.  A nonzero value outside the
    normal float range, of magnitude below 2^-1022 (``sys.float_info.min``)
    or rounding beyond the largest float, is rounded exactly, half to even,
    to the same form: ``1e+309``, ``-1.3e+309``, ``1e-320``, where the float
    would print ``inf``, ``0`` or a subnormal's few digits.  Zero prints as
    ``0``."""
    try:
        approx = p / q
    except OverflowError:
        return _exact_str(p, q)
    if p and abs(approx) <= sys.float_info.min and abs(Fraction(p, q)) < sys.float_info.min:
        return _exact_str(p, q)
    return f"{approx:.6g}"


def _exact_str(p: int, q: int) -> str:
    """``.6g`` of a nonzero p / q, q > 0, too large for a float or of
    magnitude below 2^-1022, rounded exactly, half to even; its decimal
    exponent is above 300 or below -300, so the form is always
    exponential."""
    num, den = abs(p), q
    # Start one below the decimal exponent, which log10 may miss by one.
    exponent = floor(log10(num) - log10(den)) - 1
    # The six digits num / den / 10^(exponent - 5), scaled on integers.
    while (digits := round(Fraction(num * 10 ** max(5 - exponent, 0),
                                    den * 10 ** max(exponent - 5, 0)))) >= 10 ** 6:
        exponent += 1
    head, tail = str(digits)[0], str(digits)[1:].rstrip("0")
    return f"{'-' if p < 0 else ''}{head}{'.' * bool(tail)}{tail}e{exponent:+d}"


class Interval(NamedTuple):
    """Closed interval with exact rational endpoints."""

    lo: Fraction
    hi: Fraction
