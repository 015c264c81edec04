"""The integer reader of rationals against the ``Fraction`` parser.

``rationals._ratio`` reads a plain ``"p"`` or ``"p/q"`` string with ``int``
and one gcd and hands everything else to ``parse_rational``.  Over a string
grammar with signs, ``+``, whitespace, underscores, non-ASCII digits,
``p/-q``, ``p/0``, decimals, exponents and digit runs around the
interpreter's limit, it must return the oracle's reduced pair or raise
``ValueError`` with the oracle's message, with the default limit and with
none.
"""

import sys
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from bernbound.rationals import (  # noqa: E402
    _float_ratio,
    _format_ratio,
    _ratio,
    float_str,
    parse_rational,
)
from conftest import parse_rational_oracle  # noqa: E402

# Runs past the default limit of 4,300 digits, and a few short ones.
LONG = st.integers(4290, 4310)

DIGIT = st.sampled_from("0123456789")
# Arabic-Indic three, fullwidth five and superscript two: the first two are
# decimal digits to ``int`` and ``Fraction`` alike, the third is a digit to
# ``str.isdigit`` only.
ODD_DIGIT = st.sampled_from(["٣", "５", "²"])


@st.composite
def digit_runs(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(DIGIT) * draw(LONG)
    run = draw(st.lists(st.one_of(DIGIT, DIGIT, DIGIT, ODD_DIGIT, st.just("_")),
                        min_size=0, max_size=6))
    return "".join(run)


SIGN = st.sampled_from(["", "", "-", "+", "--"])
SPACE = st.sampled_from(["", "", "", " ", "\t", "\n "])


@st.composite
def rational_texts(draw):
    num = draw(SIGN) + draw(digit_runs())
    form = draw(st.sampled_from(["int", "ratio", "ratio", "decimal", "exponent"]))
    if form == "ratio":
        den = draw(st.sampled_from(["", "", "-", "+"])) + draw(
            st.one_of(digit_runs(), st.just("0"), st.just("00")))
        text = f"{num}/{den}"
    elif form == "decimal":
        text = f"{num}.{draw(digit_runs())}"
    elif form == "exponent":
        # At most 4 digits, so that 10^|e| stays computable with no limit.
        exponent = draw(st.one_of(st.text(DIGIT, max_size=4),
                                  st.sampled_from(["4299", "4300", "4_3"])))
        text = f"{num}{draw(st.sampled_from('eE'))}{draw(SIGN)}{exponent}"
    else:
        text = num
    return draw(SPACE) + text + draw(SPACE)


VALUES = st.one_of(
    rational_texts(),
    rational_texts(),
    st.text(alphabet="0123456789-+/._ ٣", max_size=12),
    st.integers(-10 ** 30, 10 ** 30),
    st.fractions(max_denominator=10 ** 12),
    st.sampled_from([True, False, None, 1.5, [1], "", "-", "/"]),
)


# The interpreter's own digit limit, and none where the limit can be lifted.
LIMITS = [None] + ([0] if hasattr(sys, "set_int_max_str_digits") else [])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(value=VALUES)
@example(value="12/-5")
@example(value="3/0")
@example(value="-0/7")
@example(value="9" * 4300)
@example(value="9" * 4301)
@example(value="1/" + "0" * 4300 + "7")
@example(value="6/" + "4" * 4301)
@example(value="1_0/3")
@example(value="٣/4")
@example(value="²")
def test_reader_matches_the_oracle(value):
    for limit in LIMITS:
        if limit is not None:
            saved = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(limit)
        try:
            _check_against_the_oracle(value)
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(saved)


def _check_against_the_oracle(value):
    try:
        expected = parse_rational_oracle(value)
    except ValueError as exc:
        for read in (_ratio, parse_rational):
            with pytest.raises(ValueError) as info:
                read(value)
            assert str(info.value) == str(exc)
    else:
        assert _ratio(value) == (expected.numerator, expected.denominator)
        assert parse_rational(value) == expected


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(p=st.integers(-10 ** 40, 10 ** 40), q=st.integers(1, 10 ** 40),
       factor=st.integers(1, 10 ** 6))
@example(p=10 ** 400, q=3, factor=7)
@example(p=-3, q=10 ** 400, factor=2)
def test_an_unreduced_pair_prints_as_its_fraction(p, q, factor):
    value = Fraction(p, q)
    assert _format_ratio(p * factor, q * factor) == str(value)
    assert _float_ratio(p * factor, q * factor) == float_str(value)
    if not p or sys.float_info.min <= abs(value) < 2 ** 1023:
        assert float_str(value) == f"{float(value):.6g}"
