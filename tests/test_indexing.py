"""Multi-index arithmetic, enumeration, and ordering guarantees."""

import json
from math import comb, factorial

import pytest

from bernbound import enumerate_indices
from bernbound.indexing import elevation_sums, multinomials, vertex_positions
from conftest import _multinomial


def _graded(k, bhat):
    """The multinomial k! / (b_1! ... b_n! (k - |bhat|)!) of the index
    (k - |bhat|,) + bhat, read from ``multinomials``."""
    alpha = (k - sum(bhat),) + tuple(bhat)
    return multinomials(k, len(bhat))[enumerate_indices(k, len(bhat)).index(alpha)]


class TestBinomGraded:
    """The graded multinomial of an index, as ``multinomials`` lists it."""

    def test_univariate(self):
        assert _graded(2, (1,)) == 2

    def test_trivial(self):
        assert _graded(3, (0,)) == 1

    def test_multinomial(self):
        # 4! / (2! * 1! * 1!)
        assert _graded(4, (2, 1)) == 12

    @pytest.mark.parametrize("k", range(13))
    def test_factorial_cross_check(self, k):
        # brute-force multinomial for every 2-entry truncation up to degree k
        for b1 in range(k + 1):
            for b2 in range(k - b1 + 1):
                expected = factorial(k) // (
                    factorial(b1) * factorial(b2) * factorial(k - b1 - b2)
                )
                assert _graded(k, (b1, b2)) == expected

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("k", range(13))
    def test_matches_oracle(self, k, n):
        assert multinomials(k, n) == tuple(
            _multinomial(k, alpha) for alpha in enumerate_indices(k, n))


class TestEnumerate:
    def test_univariate_degree_two(self):
        assert enumerate_indices(2, 1) == ((2, 0), (1, 1), (0, 2))

    def test_degree_zero(self):
        assert enumerate_indices(0, 3) == ((0, 0, 0, 0),)

    def test_bivariate_count(self):
        assert len(enumerate_indices(2, 2)) == 6

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", range(9))
    def test_cardinality(self, k, n):
        assert len(enumerate_indices(k, n)) == comb(k + n, n)

    def test_orders_sum_to_degree(self):
        for alpha in enumerate_indices(5, 3):
            assert sum(alpha) == 5

    def test_canonical_order_frozen(self):
        # graded lex on the truncation, degree implicit in the 0th entry
        expected = [
            (3, 0, 0),
            (2, 0, 1), (2, 1, 0),
            (1, 0, 2), (1, 1, 1), (1, 2, 0),
            (0, 0, 3), (0, 1, 2), (0, 2, 1), (0, 3, 0),
        ]
        assert list(enumerate_indices(3, 2)) == expected

    def test_order_survives_serialization(self):
        indices = enumerate_indices(4, 2)
        assert tuple(map(tuple, json.loads(json.dumps(indices)))) == indices

    def test_positions(self):
        # The vertex k e_i sits at its index's position; at degree 0 every
        # vertex is the one index.
        indices = enumerate_indices(3, 2)
        assert len(set(indices)) == len(indices)
        assert [indices[p] for p in vertex_positions(3, 2)] == [(3, 0, 0), (0, 3, 0), (0, 0, 3)]
        assert vertex_positions(0, 2) == (0, 0, 0)

    def test_cached(self):
        assert enumerate_indices(3, 2) is enumerate_indices(3, 2)
        assert vertex_positions(3, 2) is vertex_positions(3, 2)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            enumerate_indices(-1, 2)
        with pytest.raises(ValueError):
            enumerate_indices(2, 0)


class TestElevationSums:
    @pytest.mark.parametrize("n", range(1, 5))
    @pytest.mark.parametrize("degree", range(9))
    def test_columns_match_reference(self, n, degree):
        # Column i - 1 at the position of beta (|beta| = degree + 1) holds
        # the position of beta - e_i at ``degree``, for slots i = 1..n, or
        # the sentinel -1 where beta_i = 0; the table holds nothing else.
        columns = elevation_sums(degree, n)
        below, above = enumerate_indices(degree, n), enumerate_indices(degree + 1, n)
        assert len(columns) == n
        for i, column in enumerate(columns, 1):
            want = [below.index(beta[:i] + (beta[i] - 1,) + beta[i + 1:])
                    if beta[i] else -1 for beta in above]
            assert list(column) == want
