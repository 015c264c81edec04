"""Property tests on closed-form problems in two and three variables.

Each problem is f = m + s * |x - a|^2 / q with a strictly inside the domain
and q Bernstein-positive there (``conftest.closed_form``), so its exact
minimum is m.  Global and local certification must agree whenever both
conclude, and each verdict must match the sign of m; both ``minimize``
strategies must bracket m and a dense-sample minimum.  The local
certificate splits its numerator alone, so on every piece it tests the
denominator must stay positive and the numerator must be the conversion on
that piece, in one to three variables.  Conversion at a degree must give
the patch that elevation reaches, in one to three variables.
"""

import json
from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from bernbound import (  # noqa: E402
    Verdict,
    certify_global,
    certify_local,
    minimize,
    rational_patch,
    standard_simplex,
    to_bernstein,
)
from bernbound import certify  # noqa: E402
from bernbound.errors import DenominatorNotPositive  # noqa: E402
from conftest import (  # noqa: E402
    closed_form,
    dense_sample,
    positive_denominator,
    random_poly,
    random_simplex,
    watch_subdivide,
)

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)
VERDICTS = settings(PROPERTY, max_examples=50)


@st.composite
def problems(draw, dimensions=(2, 3)):
    """(num, den, simplex, a, m) with n in ``dimensions``; a third of the
    minima are negative, one in six is zero."""
    n = draw(st.sampled_from(dimensions))
    m = draw(st.sampled_from((F(-1, 2), F(-1, 20), F(0), F(1, 20), F(1, 4), F(1))))
    s = draw(st.sampled_from((F(1, 4), F(1), F(3))))
    weights = draw(st.lists(st.integers(1, 4), min_size=n + 1, max_size=n + 1))
    slopes = draw(st.lists(st.sampled_from((F(0), F(1, 2), F(2))),
                           min_size=n, max_size=n))
    offset = draw(st.lists(st.sampled_from((F(0), F(-1, 2), F(1, 3))),
                           min_size=n, max_size=n))
    return (*closed_form(m, s, weights, slopes, offset), m)


def _value(num, den, point):
    return num.eval(point) / den.eval(point)


@VERDICTS
@given(problems())
def test_global_and_local_verdicts_agree(problem):
    num, den, simplex, _, m = problem
    n_max = 3 if simplex.dimension == 2 else 2
    reports = (certify_global(num, den, simplex, k_max=14),
               certify_local(num, den, simplex, n_max))
    concluded = {r.verdict for r in reports} - {Verdict.INCONCLUSIVE}
    assert len(concluded) <= 1
    for report in reports:
        if report.verdict is Verdict.CERTIFIED:
            assert m > 0
        elif report.verdict is Verdict.REFUTED:
            witness = report.witness
            assert m <= 0
            assert witness.value <= 0
            assert witness.value == _value(num, den, witness.point)


@PROPERTY
@given(problems(), st.sampled_from(("best-first", "uniform")))
def test_minimize_brackets_contain_sampled_minimum(problem, mode):
    num, den, simplex, a, m = problem
    eps = F(1, 20)
    result = minimize(num, den, simplex, eps, mode=mode)
    assert result.converged
    assert result.gap < eps
    assert result.lower <= m <= result.upper
    assert result.upper == _value(num, den, result.argmin_candidate)
    steps = 12 if simplex.dimension == 2 else 8
    sampled = min(_value(num, den, p) for p in dense_sample(simplex, steps))
    assert _value(num, den, a) == m <= sampled
    assert result.lower <= sampled < result.upper + eps


@PROPERTY
@given(problems((1, 2, 3)))
def test_local_pieces_keep_a_positive_denominator(problem):
    # Below its root the local certificate splits the numerator alone and
    # reads its signs as the function's.  On every piece it tests, an
    # independent conversion of the denominator must be positive, and the
    # kernel's numerator must be the conversion of the numerator.
    num, den, simplex, _, _ = problem
    k = max(num.degree, den.degree)
    pieces = []
    with watch_subdivide(certify, lambda piece, depth, key: pieces.append(piece)):
        certify_local(num, den, simplex, {1: 3, 2: 2, 3: 1}[simplex.dimension])
    for piece in pieces:
        assert min(to_bernstein(den, k, piece.simplex).nums) > 0
        assert piece == to_bernstein(num, k, piece.simplex)


@PROPERTY
@given(st.sampled_from((1, 2, 3)), st.integers(0, 8), st.randoms(use_true_random=False))
def test_conversion_at_a_degree_is_the_elevated_patch(n, lift, rng):
    """``bounds --degree k`` converts at degree k: the degree-k rational
    Bernstein coefficients are unique, so they are the ones that repeated
    elevation from the base degree reaches."""
    simplex = standard_simplex(n) if rng.random() < 0.5 else random_simplex(rng, n)
    degree = rng.randint(1, 3)
    num = random_poly(rng, n, degree)
    den = positive_denominator(rng, n, rng.randint(0, degree), simplex)
    try:
        elevated = rational_patch(num, den, simplex)
    except DenominatorNotPositive:
        assume(False)
    for _ in range(lift):
        elevated = elevated.elevate()
    direct = rational_patch(num, den, simplex, elevated.degree)
    assert json.dumps(direct.to_json()) == json.dumps(elevated.to_json())
