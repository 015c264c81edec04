"""The global certificate's degree scan against the rational loop it replaced.

``certify_global`` checks the base-degree rational patch (positive
denominator coefficients, vertex values), then elevates the numerator alone:
a positive denominator stays positive under elevation, so each ratio keeps
its numerator coefficient's sign.  The scan holds the numerator's
homogeneous coefficients b_alpha * multinomial(k; alpha), which have the
coefficients' signs and elevate by integer sums.  The reference below is
the earlier loop, which elevates the whole ``RationalPatch`` and tests every
degree with ``cert_predicate``.  Verdict, degree and witness must agree, for
``certify_global`` and for ``certify_negative(via="global")``.

Problems live on the standard n-simplex shifted by an offset, n in {1, 2, 3}.
Each denominator is a product of one or two non-constant affine factors that
are at least 1 at every vertex, so it is Bernstein-positive.  A third of
the numerators are m * q + s * |x - a|^2 with a strictly inside, so f has the
exact minimum m (negative, zero or positive); a third are sums of
w_alpha * lambda^alpha over the barycentric coordinates lambda, whose
Bernstein coefficients are w_alpha / multinomial(alpha), so exact zeros
arise; the rest are sparse polynomials with signed coefficients.
"""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from bernbound import (  # noqa: E402
    BernsteinPatch,
    PowerPoly,
    RationalPatch,
    Simplex,
    Verdict,
    Witness,
    certify_global,
    certify_negative,
    enumerate_indices,
)
from bernbound.certify import _refuting_vertex, cert_predicate  # noqa: E402
from bernbound.indexing import vertex_positions  # noqa: E402
from bernbound.ratpatch import rational_patch  # noqa: E402
from conftest import mul_terms  # noqa: E402

SCAN = settings(max_examples=60, deadline=None, derandomize=True, database=None)

SIGNED = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-99, 99), st.integers(1, 12)),
)
POSITIVE = st.builds(F, st.integers(1, 99), st.integers(1, 12))


def _by_ratios(f):
    """The certificate read off the full ratio tuple: all ratios >= 0 and
    every vertex ratio > 0."""
    vertices = vertex_positions(f.degree, f.dimension)
    return (all(r >= 0 for r in f.ratios)
            and all(f.ratios[p] > 0 for p in vertices))


def ref_certify_global(pnum, pden, simplex, k_max):
    """(verdict, degree, witness) from elevating numerator and denominator
    together and testing each degree's rational patch.  ``cert_predicate``
    shares its sign test with the scan, so it is held to its definition on
    the ratios at every degree."""
    base = max(pnum.degree, pden.degree)
    f = rational_patch(pnum, pden, simplex, base)
    assert cert_predicate(f) == _by_ratios(f)
    refute = _refuting_vertex(f)
    if refute is not None:
        return Verdict.REFUTED, base, refute
    k = base
    while True:
        certified = cert_predicate(f)
        assert certified == _by_ratios(f)
        if certified:
            return Verdict.CERTIFIED, k, None
        if k == k_max:
            return Verdict.INCONCLUSIVE, k_max, None
        f = f.elevate()
        k += 1


def _unit(n, i, power=1):
    return tuple(power if c == i else 0 for c in range(n))


@st.composite
def shifted_simplices(draw, n):
    offset = draw(st.lists(st.sampled_from((F(0), F(-1, 2), F(1, 3))),
                           min_size=n, max_size=n))
    vertices = [list(offset)] + [
        [o + (c == i) for c, o in enumerate(offset)] for i in range(n)]
    return offset, Simplex(vertices)


@st.composite
def problems(draw):
    """(num, den, simplex, k_max) with k_max in [base, base + 12]."""
    n = draw(st.integers(1, 3))
    offset, simplex = draw(shifted_simplices(n))
    zero = (0,) * n
    den = {zero: F(1)}
    for _ in range(draw(st.integers(1, 2))):
        # 1 + sum c_i (x_i - offset_i) is 1 at v_0 and 1 + c_i at v_i.
        slopes = draw(st.lists(st.sampled_from((F(0), F(1, 2), F(2))),
                               min_size=n, max_size=n).filter(any))
        factor = {zero: 1 - sum(c * o for c, o in zip(slopes, offset))}
        for i, c in enumerate(slopes):
            if c:
                factor[_unit(n, i)] = c
        den = mul_terms(den, factor)
    kind = draw(st.sampled_from(("closed", "barycentric", "sparse")))
    if kind == "closed":
        m = draw(st.sampled_from((F(1, 10), F(1, 4), F(1, 20), F(0), F(-1, 20))))
        s = draw(st.sampled_from((F(3), F(1), F(10))))
        weights = draw(st.lists(st.integers(1, 4), min_size=n + 1, max_size=n + 1))
        a = [o + F(w, sum(weights)) for o, w in zip(offset, weights[1:])]
        num = {e: m * c for e, c in den.items()}
        num[zero] = num.get(zero, F(0)) + s * sum(x * x for x in a)
        for i, x in enumerate(a):
            num[_unit(n, i)] = num.get(_unit(n, i), F(0)) - 2 * s * x
            num[_unit(n, i, 2)] = num.get(_unit(n, i, 2), F(0)) + s
    elif kind == "barycentric":
        # sum w_alpha * lambda^alpha has the Bernstein coefficients
        # w_alpha / multinomial(alpha) at its degree, zeros included.
        lam = [{zero: 1 + sum(offset)}] + [{_unit(n, i): F(1), zero: -o}
                                           for i, o in enumerate(offset)]
        for i in range(n):
            lam[0][_unit(n, i)] = F(-1)
        signed = draw(st.booleans())
        inner = (F(0), F(2), F(-1, 2), F(-3)) if signed else (F(0), F(2))
        # The weight at vertex 0 may be zero or negative: a refutation.
        first = (F(1), F(3), F(0), F(-1))
        num = {}
        for alpha in enumerate_indices(draw(st.integers(1, 3)), n):
            slot = next((i for i, a in enumerate(alpha) if a == sum(alpha)), None)
            weight = draw(st.sampled_from(
                inner if slot is None else first if slot == 0 else (F(1), F(3))))
            term = {zero: weight}
            for i, a in enumerate(alpha):
                for _ in range(a):
                    term = mul_terms(term, lam[i])
            for exp, c in term.items():
                num[exp] = num.get(exp, F(0)) + c
    else:
        hats = [alpha[1:] for alpha in enumerate_indices(draw(st.integers(0, 4)), n)]
        chosen = draw(st.lists(st.sampled_from(hats), max_size=6, unique=True))
        num = {hat: draw(SIGNED) for hat in chosen}
        shift = draw(st.sampled_from((F(0), F(20), F(100), F(-20))))
        num[zero] = num.get(zero, F(0)) + shift
    pnum, pden = PowerPoly(n, num), PowerPoly(n, den)
    base = max(pnum.degree, pden.degree)
    return pnum, pden, simplex, base + draw(st.integers(0, 12))


UNIT = Simplex.from_interval(0, 1)
# (x - 1/2) / (1 + x) is -1/2 at x = 0: refuted at a vertex, value nonzero.
NEGATIVE_VERTEX = (PowerPoly.univariate([F(-1, 2), 1]),
                   PowerPoly.univariate([1, 1]), UNIT, 4)
# ((x - 1/2)^2 + 1/20) / (1 + x) first certifies at degree 5, here k_max.
CERTIFIED_AT_K_MAX = (PowerPoly.univariate([F(3, 10), -1, 1]),
                      PowerPoly.univariate([1, 1]), UNIT, 5)
# ((x - 1/3)^2 + (y - 1/3)^2 + 1/5) / (1 + x) first certifies at degree 4.
TRIANGLE = (PowerPoly(2, {(0, 0): F(19, 45), (1, 0): F(-2, 3), (0, 1): F(-2, 3),
                          (2, 0): 1, (0, 2): 1}),
            PowerPoly(2, {(0, 0): 1, (1, 0): 1}),
            Simplex([[0, 0], [1, 0], [0, 1]]), 6)


def _outcome(report):
    return report.verdict, report.degree_used, report.witness


def _budgets(num, den, simplex, k_max):
    """The drawn k_max, plus the certifying degree and the one below it when
    the reference certifies after elevating: the budget's boundary."""
    verdict, degree, _ = ref_certify_global(num, den, simplex, k_max + 12)
    if verdict is Verdict.CERTIFIED and degree > max(num.degree, den.degree):
        return (k_max, degree - 1, degree)
    return (k_max,)


@SCAN
@given(problems())
@example(NEGATIVE_VERTEX)
@example(CERTIFIED_AT_K_MAX)
def test_certify_global_matches_reference(problem):
    num, den, simplex, k_max = problem
    for budget in _budgets(num, den, simplex, k_max):
        report = certify_global(num, den, simplex, budget)
        assert _outcome(report) == ref_certify_global(num, den, simplex, budget)
        assert report.leaves == (report.verdict is Verdict.CERTIFIED)


@SCAN
@given(problems())
@example(NEGATIVE_VERTEX)
@example(CERTIFIED_AT_K_MAX)
def test_certify_negative_global_matches_reference(problem):
    num, den, simplex, k_max = problem
    for budget in _budgets(num, den, simplex, k_max):
        # certify_negative negates its numerator, so the inner scan sees num.
        report = certify_negative(num.negate(), den, simplex, via="global",
                                  k_max=budget)
        verdict, degree, witness = ref_certify_global(num, den, simplex, budget)
        if witness is not None:
            witness = Witness(witness.point, -witness.value, witness.kind)
        assert report.negated
        assert _outcome(report) == (verdict, degree, witness)


@SCAN
@given(st.integers(1, 3), st.integers(0, 6), st.integers(1, 12), st.data())
def test_elevation_keeps_positive_patch_positive(n, k, steps, data):
    _, simplex = data.draw(shifted_simplices(n))
    size = len(enumerate_indices(k, n))
    patch = BernsteinPatch(simplex, k, data.draw(
        st.lists(POSITIVE, min_size=size, max_size=size)))
    vertex = [patch.coeffs[p] for p in vertex_positions(k, n)]
    for _ in range(steps):
        patch = patch.elevate()
        assert all(c > 0 for c in patch.coeffs)
        assert [patch.coeffs[p] for p in vertex_positions(patch.degree, n)] == vertex


def test_scan_elevates_the_numerator_only(monkeypatch):
    # The scan elevates the numerator's homogeneous integers by plain sums:
    # no patch, polynomial or rational, is elevated, in either of the
    # scan's paths (n = 1 and n >= 2).
    def elevate(self):
        raise AssertionError(f"the scan elevated a {type(self).__name__}")

    want = [ref_certify_global(*problem)[:2]
            for problem in (CERTIFIED_AT_K_MAX, TRIANGLE)]
    assert want == [(Verdict.CERTIFIED, 5), (Verdict.CERTIFIED, 4)]
    monkeypatch.setattr(BernsteinPatch, "elevate", elevate)
    monkeypatch.setattr(RationalPatch, "elevate", elevate)
    for problem, outcome in zip((CERTIFIED_AT_K_MAX, TRIANGLE), want):
        report = certify_global(*problem)
        assert (report.verdict, report.degree_used) == outcome
