"""Differential tests: the integer Bernstein kernel against a Fraction
reference.

The references below are the plain exact formulas, one ``Fraction`` per
coefficient and a dict lookup per index move.  The kernel under test stores
integer numerators over one shared scale, elevates through gather tables and
splits by integer de Casteljau; every result must be exactly equal.
"""

from fractions import Fraction as F
from math import comb

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bernbound import (  # noqa: E402
    BernsteinPatch,
    RationalPatch,
    bisect_edge,
    cert_predicate,
    enumerate_indices,
    standard_simplex,
)
from bernbound.errors import DenominatorNotPositive  # noqa: E402

KERNEL = settings(max_examples=40, deadline=None, derandomize=True, database=None)

SIGNED = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-99, 99), st.integers(1, 12)),
)
POSITIVE = st.builds(F, st.integers(1, 99), st.integers(1, 12))
NONNEGATIVE = st.one_of(st.just(F(0)), POSITIVE)


def ref_elevate(coeffs, k, n):
    src = enumerate_indices(k, n)
    out = []
    for beta in enumerate_indices(k + 1, n):
        total = F(0)
        for i, bi in enumerate(beta):
            if bi:
                lowered = beta[:i] + (bi - 1,) + beta[i + 1:]
                total += bi * coeffs[src.position(lowered)]
        out.append(total / (k + 1))
    return tuple(out)


def ref_split(coeffs, k, n, i, j):
    pos = enumerate_indices(k, n).position
    left, right = [], []
    for alpha in enumerate_indices(k, n):
        ai, aj = alpha[i], alpha[j]
        acc = F(0)
        for t in range(aj + 1):
            moved = list(alpha)
            moved[i] += t
            moved[j] -= t
            acc += comb(aj, t) * coeffs[pos(moved)]
        left.append(acc / 2 ** aj)
        acc = F(0)
        for u in range(ai + 1):
            moved = list(alpha)
            moved[i] -= u
            moved[j] += u
            acc += comb(ai, u) * coeffs[pos(moved)]
        right.append(acc / 2 ** ai)
    return tuple(left), tuple(right)


def ref_predicate(ratios, k, n):
    vertices = enumerate_indices(k, n).vertex_positions()
    return all(r >= 0 for r in ratios) and all(ratios[p] > 0 for p in vertices)


@st.composite
def patches(draw, values=SIGNED):
    """(n, k, coefficients) over the standard n-simplex."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(0, 8))
    size = len(enumerate_indices(k, n))
    return n, k, tuple(draw(st.lists(values, min_size=size, max_size=size)))


@st.composite
def rational_patches(draw):
    """Numerator and positive denominator coefficients sharing n and k.  Half
    of the numerators are nonnegative with positive vertex entries, so the
    predicate holds on them unless a zero interior entry is mishandled."""
    n, k, num = draw(patches(draw(st.sampled_from((SIGNED, NONNEGATIVE)))))
    if min(num) >= 0:
        vertices = enumerate_indices(k, n).vertex_positions()
        num = tuple(c + (p in vertices) for p, c in enumerate(num))
    size = len(num)
    den = tuple(draw(st.lists(POSITIVE, min_size=size, max_size=size)))
    return n, k, num, den


def _edge(draw, n):
    i = draw(st.integers(0, n - 1))
    return i, draw(st.integers(i + 1, n))


@KERNEL
@given(patches(), st.integers(1, 2))
def test_elevate_matches_reference(case, steps):
    n, k, coeffs = case
    patch = BernsteinPatch(standard_simplex(n), k, coeffs)
    for step in range(steps):
        coeffs = ref_elevate(coeffs, k + step, n)
        patch = patch.elevate()
        assert patch.degree == k + step + 1
        assert patch.coeffs == coeffs


@KERNEL
@given(patches(), st.data())
def test_split_edge_matches_reference(case, data):
    n, k, coeffs = case
    simplex = standard_simplex(n)
    patch = BernsteinPatch(simplex, k, coeffs)
    # A second split works on a scale that is no longer the lcm of the
    # coefficient denominators.
    for _ in range(2):
        i, j = _edge(data.draw, n)
        left, right = patch.split_edge(i, j)
        want_left, want_right = ref_split(patch.coeffs, k, n, i, j)
        assert (left.simplex, right.simplex) == bisect_edge(patch.simplex, i, j)
        assert left.coeffs == want_left
        assert right.coeffs == want_right
        patch = data.draw(st.sampled_from((left, right)))


@KERNEL
@given(rational_patches(), st.data())
def test_ratios_and_predicate_match_reference(case, data):
    n, k, num, den = case
    simplex = standard_simplex(n)
    f = RationalPatch(BernsteinPatch(simplex, k, num), BernsteinPatch(simplex, k, den))
    if data.draw(st.booleans()):
        num, den = ref_elevate(num, k, n), ref_elevate(den, k, n)
        f, k = f.elevate(), k + 1
    if data.draw(st.booleans()):
        i, j = _edge(data.draw, n)
        num = ref_split(num, k, n, i, j)[0]
        den = ref_split(den, k, n, i, j)[0]
        f = f.split_edge(i, j)[0]
    ratios = tuple(p / q for p, q in zip(num, den))
    assert f.ratios == ratios
    vertices = enumerate_indices(k, n).vertex_positions()
    assert f.vertex_ratios() == tuple(ratios[p] for p in vertices)
    assert cert_predicate(f) == ref_predicate(ratios, k, n)


@KERNEL
@given(patches())
def test_denominator_offenders_match_reference(case):
    n, k, den = case
    simplex = standard_simplex(n)
    ones = BernsteinPatch(simplex, k, (1,) * len(den))
    patch = BernsteinPatch(simplex, k, den)
    offenders = tuple(tuple(alpha) for alpha, c in zip(enumerate_indices(k, n), den)
                      if c <= 0)
    if not offenders:
        assert RationalPatch(ones, patch).ratios == tuple(1 / c for c in den)
        return
    with pytest.raises(DenominatorNotPositive) as info:
        RationalPatch(ones, patch)
    assert info.value.indices == offenders
