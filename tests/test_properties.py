"""Property tests on closed-form problems in two and three variables.

Each problem is f = m + s * |x - a|^2 / q with a strictly inside the domain
and q Bernstein-positive there (``conftest.closed_form``), so its exact
minimum is m.  Global and local certification must agree whenever both
conclude, and each verdict must match the sign of m; both ``minimize``
strategies must bracket m and a dense-sample minimum.  The local
certificate splits its numerator alone, so on every piece it tests the
denominator must stay positive and the numerator must be the conversion on
that piece, in one to three variables.  Every piece of either ``minimize``
strategy must hold the run's root, and its numerator and denominator
patches must be the conversions on that piece.  Conversion at a degree must give
the patch that elevation reaches, in one to three variables.  Given the
true minimum as a claim, each a-priori bound must suffice on domains scaled
from 1/16 to 16 times the standard simplex, in one to three variables.
"""

import json
from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from bernbound import (  # noqa: E402
    ClaimedMinimum,
    PowerPoly,
    Simplex,
    Verdict,
    apriori_degree_omega,
    apriori_degree_pr,
    apriori_depth,
    apriori_steps,
    certify_global,
    certify_local,
    convergence_constants,
    minimize,
    rational_patch,
    standard_simplex,
    to_bernstein,
)
from bernbound import certify, optimize  # noqa: E402
from bernbound.errors import BudgetExhausted, DenominatorNotPositive  # noqa: E402
from bernbound.geometry import diameter_sq  # noqa: E402
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


MINIMA = (F(-1, 2), F(-1, 20), F(0), F(1, 20), F(1, 4), F(1))


@st.composite
def problems(draw, dimensions=(2, 3), minima=MINIMA):
    """(num, den, simplex, a, m) with n in ``dimensions`` and m in
    ``minima``; of the default minima a third are negative, one in six is
    zero."""
    n = draw(st.sampled_from(dimensions))
    m = draw(st.sampled_from(minima))
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
        patch, = piece.patches()
        assert min(to_bernstein(den, k, patch.simplex).nums) > 0
        assert patch == to_bernstein(num, k, patch.simplex)


@PROPERTY
@given(problems((1, 2, 3)), st.sampled_from(("best-first", "uniform")))
def test_minimize_pieces_carry_their_root(problem, mode):
    # Every piece of a ``minimize`` run holds the run's one root, which
    # carries the degree and both scales: turned back into patches, each
    # piece's numerator and denominator lists, the denominator's included,
    # must be the conversions of the problem on its simplex.  The closed
    # forms' denominators are Bernstein-positive, so the root is not
    # negated.  The budget keeps the conversions few.
    num, den, simplex, _, _ = problem
    k = max(num.degree, den.degree)
    pieces = []
    with watch_subdivide(optimize, lambda piece, depth, key: pieces.append(piece)):
        try:
            minimize(num, den, simplex, F(1, 10 ** 6), {1: 4, 2: 2, 3: 1}[simplex.dimension],
                     mode)
        except BudgetExhausted:
            pass
    assert len(pieces) > 1
    for piece in pieces:
        assert piece.root is pieces[0].root
        numerator, denominator = piece.patches()
        assert numerator == to_bernstein(num, k, numerator.simplex)
        assert denominator == to_bernstein(den, k, denominator.simplex)


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


def _scaled(poly, scale):
    """x -> poly(x / scale): the same function on the domain scaled by
    ``scale``."""
    return PowerPoly(poly.dimension,
                     {e: c / scale ** sum(e) for e, c in poly.iter_terms()})


def _local_rounds(depth, simplex):
    """The most split rounds a local run to ``depth`` makes: one per depth
    step, each halving every piece's diameter, plus the halvings that bring
    the domain's diameter to 1 (depth d means diameter <= 2^-d)."""
    extra, d2 = 0, diameter_sq(simplex)
    while d2 > 4 ** extra:
        extra += 1
    return depth + extra


# A run of r rounds in n variables may make (2^n)^r pieces; the checks below
# run only where that is at most 2^12, and the global scan to degree 60.
PIECE_BITS, DEGREE_CAP = 12, 60


@settings(PROPERTY, max_examples=80)
@given(problems((1, 2, 3), (F(1, 100), F(1, 20), F(1, 4), F(1))),
       st.sampled_from((F(1, 16), F(1, 4), F(1), F(4), F(16))))
# 1/100 + (16x - 2/3)^2 / 4 on [0, 1/16]: a depth counting diameters 4^-d
# would claim depth 1, where one round leaves halves of the domain, and
# certify nothing there; at 2^-d the bound is depth 2.
@example((*closed_form(F(1, 100), F(1, 4), [1, 2], [F(0)], [F(0)]), F(1, 100)), F(1, 16))
def test_apriori_bounds_suffice_on_scaled_domains(problem, scale):
    _check_apriori_bounds(problem, scale)


@settings(PROPERTY, max_examples=40)
@given(problems((4,), (F(1, 100), F(1, 20), F(1, 4), F(1))),
       st.sampled_from((F(1, 16), F(1, 4), F(1), F(4), F(16))))
def test_apriori_bounds_suffice_in_four_variables(problem, scale):
    # The same checks over 4-simplices, with fewer examples.  PIECE_BITS
    # admits at most three rounds there, so it is mostly the global scan
    # that is checked.
    _check_apriori_bounds(problem, scale)


def _check_apriori_bounds(problem, scale):
    # With the true minimum m as the claim on f, the local certificate
    # certifies at ``apriori_depth``, the global scan at
    # ``apriori_degree_omega``, and uniform ``minimize`` to a gap of m
    # converges within ``apriori_steps`` rounds.  Each denominator is at
    # least 1 on its simplex, so num >= m * den >= m and m is also a true
    # numerator claim: the global scan certifies at ``apriori_degree_pr``,
    # raised to the function degree.  Scaling moves the domain, not the
    # Bernstein coefficients, so the bounds are those of the unit problem
    # while the local certificate's depth counts absolute diameters.
    num, den, simplex, _, m = problem
    num, den = _scaled(num, scale), _scaled(den, scale)
    simplex = Simplex([[scale * c for c in v] for v in simplex.vertices])
    n = simplex.dimension
    root = rational_patch(num, den, simplex)
    constants = convergence_constants(root)
    fmin = ClaimedMinimum(m)
    depth = apriori_depth(constants, fmin)
    if n * _local_rounds(depth, simplex) <= PIECE_BITS:
        report = certify_local(num, den, simplex, depth)
        assert report.verdict is Verdict.CERTIFIED
    numerator_patch = to_bernstein(num, num.degree, simplex)
    for degree in (apriori_degree_omega(constants, fmin),
                   max(root.degree, apriori_degree_pr(numerator_patch, fmin))):
        if degree <= DEGREE_CAP:
            report = certify_global(num, den, simplex, degree)
            assert report.verdict is Verdict.CERTIFIED
    rounds = apriori_steps(constants, m)
    if n * rounds <= PIECE_BITS:
        result = minimize(num, den, simplex, m, budget=rounds, mode="uniform")
        assert result.converged and result.apriori_rounds == rounds
