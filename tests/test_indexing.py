"""Multi-index arithmetic, enumeration, and ordering guarantees."""

import json
import random
import sys
import threading
from array import array
from math import comb, factorial

import pytest

from bernbound import enumerate_indices, indexing
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


def _reference_sums(degree, n):
    """Column i - 1 at the position of beta (|beta| <= degree + 1): the
    position of beta - e_i, for slots i = 1..n, or the sentinel -1 where
    beta_i = 0."""
    below = {alpha: pos for pos, alpha in enumerate(enumerate_indices(degree, n))}
    return [[below[beta[:i] + (beta[i] - 1,) + beta[i + 1:]] if beta[i] else -1
             for beta in enumerate_indices(degree + 1, n)] for i in range(1, n + 1)]


class TestElevationSums:
    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("degree", range(9))
    def test_columns_match_reference(self, n, degree):
        # The table may have grown past degree + 1 for an earlier caller:
        # its prefix up to degree + 1 is the reference.
        columns = elevation_sums(degree, n)
        assert len(columns) == n
        for column, want in zip(columns, _reference_sums(degree, n)):
            assert list(column[:len(want)]) == want

    @pytest.mark.parametrize("n", range(1, 6))
    def test_grown_in_shuffled_order(self, monkeypatch, n):
        # From an empty cache, degrees requested in any order give one table
        # per dimension, grown in place just far enough for the highest.
        monkeypatch.setattr(indexing, "_SUMS", {})
        degrees = list(range(12))
        random.Random(n).shuffle(degrees)
        first = elevation_sums(degrees[0], n)
        for seen, degree in enumerate(degrees, 1):
            columns = elevation_sums(degree, n)
            assert columns is first
            top = max(degrees[:seen])
            assert [list(column) for column in columns] == _reference_sums(top, n)

    def test_growth_cut_short_is_redone(self, monkeypatch):
        # An exception between two slots' writes leaves one slot a grade
        # longer than the table records; the next growth rewrites it.
        monkeypatch.setattr(indexing, "_SUMS", {})
        elevation_sums(3, 3)
        calls = []

        def failing(typecode, items):
            calls.append(typecode)
            if len(calls) == 2:
                raise MemoryError
            return array(typecode, items)

        monkeypatch.setattr(indexing, "array", failing)
        with pytest.raises(MemoryError):
            elevation_sums(5, 3)
        monkeypatch.setattr(indexing, "array", array)
        columns = elevation_sums(6, 3)
        assert [list(column) for column in columns] == _reference_sums(6, 3)

    def test_growth_from_threads(self, monkeypatch):
        # Threads growing one table at once, switching as often as the
        # interpreter lets them, each get columns that cover their degree,
        # and every entry ends correct.
        short = []

        def scan(first):
            try:
                for k in range(first, 40, 4):
                    if min(map(len, elevation_sums(k, 3))) < comb(k + 4, 3):
                        short.append(k)
            except Exception as exc:  # checked below, not lost with the thread
                short.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                monkeypatch.setattr(indexing, "_SUMS", {})
                threads = [threading.Thread(target=scan, args=(first,)) for first in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert short == []
                assert ([list(column) for column in elevation_sums(39, 3)]
                        == _reference_sums(39, 3))
        finally:
            sys.setswitchinterval(interval)
