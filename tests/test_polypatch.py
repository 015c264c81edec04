"""Power form, Bernstein conversion, elevation, enclosure, differences,
the control-net deviation bound, and de Casteljau edge splitting."""

import itertools
import json
import random
import sys
import tracemalloc
from enum import IntEnum
from fractions import Fraction as F
from math import comb

import pytest

from bernbound import (
    BernsteinPatch,
    PowerPoly,
    Simplex,
    Verdict,
    certify_global,
    convergence_constants,
    enumerate_indices,
    parse_rational,
    rational_patch,
    standard_simplex,
    to_bernstein,
)
from bernbound import polypatch
from bernbound.errors import BadEdge, DegreeTooLow, DimensionMismatch, InvalidArgument
from bernbound.indexing import elevation_sums, multinomials, split_table, vertex_positions
from bernbound.polypatch import to_bernstein_standard
from bernbound.rationals import float_str
from conftest import (
    bernstein_by_interpolation,
    encloses,
    grid_point,
    random_fraction,
    random_point_in,
    random_poly,
    random_simplex,
)


class TestPowerPoly:
    def test_eval(self):
        p = PowerPoly.univariate([1, -5, 7])
        assert p.eval([-1]) == 13
        assert PowerPoly.zero(2).eval([F(1, 3), F(2, 7)]) == 0
        assert PowerPoly.univariate([1, -3, 5]).eval([1]) == 3

    def test_call(self):
        assert PowerPoly.univariate([0, 1]).eval([F(1, 3)]) == F(1, 3)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            PowerPoly.univariate([1, 2]).eval([1, 2])

    @pytest.mark.parametrize("dimension, terms, message", [
        (0, {}, "dimension must be at least 1, got 0"),
        (2, {(1, -1): 1}, r"negative exponent in \(1, -1\)"),
    ], ids=["dimension", "exponent"])
    def test_value_errors(self, dimension, terms, message):
        with pytest.raises(ValueError, match=message):
            PowerPoly(dimension, terms)

    @pytest.mark.parametrize("point", ["5", {"5": 1}, {0: 5}])
    def test_string_or_object_point_rejected(self, point):
        # A string iterates as its characters and an object as its keys;
        # read that way, "5" gave 11 here.  The rule is the one a simplex
        # applies to its vertices, so both raise the same error.
        p = PowerPoly.univariate([1, 2])
        with pytest.raises(TypeError, match="sequence of coordinates"):
            p.eval(point)
        with pytest.raises(TypeError, match="sequence of coordinates"):
            Simplex([point, [1]])

    def test_repr(self):
        assert repr(PowerPoly.zero(2)) == "PowerPoly.zero(2)"
        assert repr(PowerPoly.univariate([1, -5, 7])) == "1 + -5*x0 + 7*x0^2"

    def test_degree_is_tight(self):
        p = PowerPoly(1, {(0,): 1, (3,): 0})
        assert p.degree == 0
        q = PowerPoly(2, {(0, 0): 1, (2, 1): F(1, 2)})
        assert q.degree == 3
        assert PowerPoly.zero(3).degree == 0

    def test_duplicate_terms_merge(self):
        p = PowerPoly(1, {(1,): 2})
        q = PowerPoly(1, {(1,): F(4, 2)})
        assert p == q

    def test_from_json_adds_repeated_exponents(self):
        def from_terms(dimension, *terms):
            return PowerPoly.from_json({"dimension": dimension, "terms": [
                {"exponents": e, "coeff": c} for e, c in terms]})

        assert from_terms(1, ([1], "1/2"), ([0], "2"), ([1], "1/2")) == \
            PowerPoly(1, {(1,): 1, (0,): 2})
        cancelled = from_terms(2, ([0, 0], "1"), ([2, 1], "3/4"), ([2, 1], "-3/4"))
        assert cancelled == PowerPoly.constant(2, 1)
        assert cancelled.degree == 0
        assert dict(cancelled.iter_terms()) == {(0, 0): 1}
        for exponent in (1.5, True):
            with pytest.raises(TypeError, match="is not an integer"):
                from_terms(1, ([0], "1"), ([exponent], "1"))
        with pytest.raises(DimensionMismatch):
            from_terms(2, ([0, 1], "1"), ([1], "1"))

    def test_integer_exponent_of_another_class(self):
        # An exponent that is an integer but not an ``int`` takes the slow
        # path of ``_exponents`` and is stored as a plain ``int``.
        class E(IntEnum):
            TWO = 2

        p = PowerPoly(1, {(E.TWO,): 1})
        assert p == PowerPoly(1, {(2,): 1})
        [((exponent,), _)] = p.int_terms
        assert exponent.__class__ is int

    def test_negate(self):
        p = PowerPoly.univariate([1, -5, 7])
        assert p.negate().eval([2]) == -p.eval([2])

    def test_json_round_trip(self):
        p = PowerPoly(2, {(0, 0): F(1, 3), (2, 1): F(-7, 5)})
        again = PowerPoly.from_json(p.to_json())
        assert again == p
        assert json.dumps(p.to_json())  # serializable

    def test_decimal_strings_parse_exactly(self):
        p = PowerPoly.from_json(
            {"dimension": 1, "terms": [{"exponents": [0], "coeff": "1.3"}]}
        )
        assert p.eval([0]) == F(13, 10)
        assert parse_rational("1.3e-2") == F(13, 1000)
        assert parse_rational("2e3") == 2000

    @pytest.mark.parametrize("text", ["1e5000", "1e-5000"])
    def test_exponent_past_the_digit_limit(self, text):
        # The limit is the interpreter's own (4300 digits by default); the
        # value is refused before it is expanded.
        with pytest.raises(ValueError, match="not a rational number"):
            parse_rational(text)

    @pytest.mark.parametrize("text", [
        "12e4299",  # the exponent passes, the value has 4,301 digits
        "1" + "0" * 3000 + "." + "0" * 3000 + "1",  # each digit run passes
    ], ids=["exponent", "digit-runs"])
    def test_value_past_the_digit_limit(self, text):
        with pytest.raises(ValueError, match="not a rational number"):
            parse_rational(text)

    def test_value_at_the_digit_limit(self):
        assert parse_rational("9" * 4300) == 10 ** 4300 - 1
        assert parse_rational("1e-4299") == F(1, 10 ** 4299)


class TestFloatStr:
    @pytest.mark.parametrize("value, text", [
        (F(10) ** 309, "1e+309"),
        (-F(10) ** 309, "-1e+309"),
        (13 * F(10) ** 308, "1.3e+309"),
        (F(10 ** 400, 3), "3.33333e+399"),
        # Rounded exactly, half to even, carrying into the exponent.
        (F(1234565) * F(10) ** 303, "1.23456e+309"),
        (F(9999995) * F(10) ** 303, "1e+310"),
        (F(2 ** 1024), "1.79769e+308"),
        # Below 2^-1022 the float is zero or subnormal, with too few digits.
        (F(1, 10 ** 400), "1e-400"),
        (F(-3, 10 ** 400), "-3e-400"),
        (F(1, 10 ** 320), "1e-320"),
    ])
    def test_beyond_float_range(self, value, text):
        try:
            approx = float(value)
        except OverflowError:
            pass
        else:
            assert abs(approx) < sys.float_info.min
        assert float_str(value) == text

    @pytest.mark.parametrize("value, text", [
        (F(0), "0"),
        (F(13, 10), "1.3"),
        (F(-1, 3), "-0.333333"),
        (F(10) ** 300, "1e+300"),
    ])
    def test_within_float_range(self, value, text):
        assert float_str(value) == text


class TestToBernsteinStandard:
    def test_constant(self):
        patch = to_bernstein_standard(PowerPoly.constant(2, F(5, 3)), 3)
        assert all(c == F(5, 3) for c in patch.coeffs)

    def test_linear_precision(self):
        patch = to_bernstein_standard(PowerPoly.univariate([0, 1]), 3)
        assert patch.coeffs == (F(0), F(1, 3), F(2, 3), F(1))

    def test_quadratic(self):
        patch = to_bernstein_standard(PowerPoly.univariate([1, -3, 5]), 2)
        assert patch.coeffs == (F(1), F(-1, 2), F(3))

    def test_degree_too_low(self):
        with pytest.raises(DegreeTooLow):
            to_bernstein_standard(PowerPoly.univariate([0, 0, 1]), 1)

    @pytest.mark.parametrize("n,k", [(1, 3), (2, 3), (2, 4), (3, 2)])
    def test_interpolation_oracle(self, n, k):
        rng = random.Random(40 + 10 * n + k)
        p = random_poly(rng, n, min(k, 2))
        patch = to_bernstein_standard(p, k)
        assert patch.coeffs == bernstein_by_interpolation(p, k, standard_simplex(n))


class TestToBernstein:
    def test_reference_numerator(self):
        p = PowerPoly.univariate([1, -5, 7])
        patch = to_bernstein(p, 2, Simplex.from_interval(-1, 1))
        assert patch.coeffs == (F(13), F(-6), F(3))

    def test_reference_denominator(self):
        q = PowerPoly.univariate([7, -2, 1])
        patch = to_bernstein(q, 2, Simplex.from_interval(-1, 1))
        assert patch.coeffs == (F(10), F(6), F(6))

    def test_size_cap_boundary(self, monkeypatch):
        # ``_triangle_size`` counts the entries ``_triangle`` builds along an
        # axis.  At a cap of exactly C(4 + 3, 3), degree 4 over a triangle
        # converts, degree 5 is refused before anything is built, and the
        # global scan of (x + y - 1/3)^2, which no degree certifies, stops
        # at degree 4 although k_max is higher.
        for n in range(1, 6):
            for k in range(7):
                levels, _, _ = split_table(k, n, 0, n)
                size = len(enumerate_indices(k, n))
                assert (len(polypatch._triangle([0] * size, levels))
                        == polypatch._triangle_size(k, n))
        cap = polypatch._triangle_size(4, 2)
        monkeypatch.setattr(polypatch, "MAX_TRIANGLE", cap)
        p = PowerPoly(2, {(0, 0): F(1, 9), (1, 0): F(-2, 3), (0, 1): F(-2, 3),
                          (2, 0): 1, (1, 1): 2, (0, 2): 1})
        triangle = standard_simplex(2)
        assert to_bernstein(p, 4, triangle).degree == 4
        with pytest.raises(InvalidArgument, match=r"^Bernstein degree 5 over a 2-simplex"
                           r" needs a conversion triangle of 56 entries, more than 35$"):
            to_bernstein(p, 5, triangle)
        # A constant, converted without elevation, meets the same cap.
        constant = PowerPoly.constant(2, F(-5, 3))
        assert to_bernstein(constant, 4, triangle).nums == (-5,) * 15
        with pytest.raises(InvalidArgument, match=r"^Bernstein degree 5 over a 2-simplex"
                           r" needs a conversion triangle of 56 entries, more than 35$"):
            to_bernstein(constant, 5, triangle)
        report = certify_global(p, PowerPoly.constant(2, 1), triangle, 100)
        assert (report.verdict, report.degree_used) == (Verdict.INCONCLUSIVE, 4)

    def test_size_cap_counts_elevation_table_entries(self, monkeypatch):
        # Converting or scanning to degree k takes the steps from degrees
        # 0..k-1, which read C(k + n + 1, n + 1) - 1 entries per slot of the
        # grown table, one fewer than the triangle the cap counts, however
        # far the table has grown.  The n = 1 step reads no table.
        reads = {}

        def counted(slot, column):
            for source in column:
                reads[slot] = reads.get(slot, 0) + 1
                yield source

        monkeypatch.setattr(polypatch, "elevation_sums", lambda degree, n: [
            counted(slot, column) for slot, column in enumerate(elevation_sums(degree, n))])
        elevation_sums(20, 5)  # far past the degrees below
        for n in range(1, 6):
            for k in range(7):
                reads.clear()
                h = [1, 0]
                for j in range(k):
                    h = polypatch._elevate_homogeneous(h, j, n)
                assert h == [*multinomials(k, n), 0]
                want = polypatch._triangle_size(k, n) - 1
                assert reads == ({slot: want for slot in range(n)} if n > 1 and k else {})

    def test_capped_scan_keeps_one_table(self):
        # The scan of (x + y - 1/3)^2, which no degree certifies, stops at
        # degree 291, the last the cap admits over a triangle.  Its 291
        # steps leave one table per slot, grown through grade 291.
        p = PowerPoly(2, {(0, 0): F(1, 9), (1, 0): F(-2, 3), (0, 1): F(-2, 3),
                          (2, 0): 1, (1, 1): 2, (0, 2): 1})
        report = certify_global(p, PowerPoly.constant(2, 1), standard_simplex(2), 10 ** 8)
        assert (report.verdict, report.degree_used) == (Verdict.INCONCLUSIVE, 291)
        columns = elevation_sums(3, 2)
        assert columns is elevation_sums(200, 2)
        assert [len(column) for column in columns] == [42778] * 2  # C(293, 2)

    def test_high_degree_conversion_stays_small(self):
        # (1 + x)^1000 on [0, 1] has the coefficients 2^j over scale 1.
        # Only the final grid of 1,001 entries carries factorials, about
        # log2(1000!) bits each, so the traced peak is a few MiB; a kernel
        # whose intermediate entries carry them needs hundreds.
        k = 1000
        poly = PowerPoly.univariate([comb(k, j) for j in range(k + 1)])
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            patch = to_bernstein(poly, k, Simplex.from_interval(0, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if started:
                tracemalloc.stop()
        assert patch.scale == 1
        assert patch.nums == tuple(1 << j for j in range(k + 1))
        assert peak < 32 << 20

    def test_linear_equals_grid_values(self):
        rng = random.Random(7)
        simplex = random_simplex(rng, 2)
        p = PowerPoly(2, {(1, 0): F(3), (0, 1): F(-2), (0, 0): F(1, 2)})
        k = 3
        patch = to_bernstein(p, k, simplex)
        for alpha, coeff in zip(enumerate_indices(k, patch.dimension), patch.coeffs):
            assert coeff == p.eval(grid_point(alpha, k, simplex))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_vertex_interpolation(self, n):
        rng = random.Random(50 + n)
        for _ in range(5):
            simplex = random_simplex(rng, n)
            p = random_poly(rng, n, rng.randint(1, 3))
            k = p.degree + rng.randint(0, 2)
            patch = to_bernstein(p, k, simplex)
            for i, pos in enumerate(vertex_positions(patch.degree, patch.dimension)):
                assert patch.coeffs[pos] == p.eval(simplex.vertex(i))

    def test_coefficient_count(self):
        from math import comb

        rng = random.Random(60)
        for n in (1, 2, 3):
            p = random_poly(rng, n, 2)
            for k in range(2, 6):
                patch = to_bernstein(p, k, standard_simplex(n))
                assert len(patch.coeffs) == comb(k + n, n)

    def test_patch_eval_matches_poly(self):
        rng = random.Random(61)
        for n in (1, 2, 3):
            simplex = random_simplex(rng, n)
            # Swapping two vertices flips the sign of the determinant.
            first, second, *rest = simplex.vertices
            swapped = Simplex([second, first, *rest])
            for p in (random_poly(rng, n, 3), random_poly(rng, n, 0)):
                # Points of the simplex, then points that are mostly outside it.
                points = [random_point_in(rng, simplex) for _ in range(10)]
                points += [tuple(random_fraction(rng, 20, 7) for _ in range(n))
                           for _ in range(10)]
                for s, k in itertools.product((simplex, swapped),
                                              (p.degree, p.degree + 2)):
                    patch = to_bernstein(p, k, s)
                    for x in points:
                        assert patch.eval(x) == p.eval(x)


class TestEnclosureAndSoundness:
    def test_examples(self):
        patch = BernsteinPatch(Simplex.from_interval(-1, 1), 2, (F(13), F(-6), F(3)))
        assert patch.enclosure() == (F(-6), F(13))
        const = to_bernstein_standard(PowerPoly.constant(1, F(4, 7)), 2)
        assert const.enclosure() == (F(4, 7), F(4, 7))
        patch2 = to_bernstein_standard(PowerPoly.univariate([1, -3, 5]), 2)
        assert patch2.enclosure() == (F(-1, 2), F(3))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_range_containment(self, n):
        rng = random.Random(70 + n)
        for _ in range(20):
            simplex = random_simplex(rng, n)
            p = random_poly(rng, n, rng.randint(1, 4))
            k = p.degree + rng.randint(0, 2)
            patch = to_bernstein(p, k, simplex)
            lo, hi = patch.enclosure()
            for _ in range(25):
                x = random_point_in(rng, simplex)
                assert lo <= p.eval(x) <= hi

    def test_range_containment_bulk(self):
        # 500 random (p, V, k) instances, 200 sample points each, exact
        rng = random.Random(71)
        for _ in range(500):
            n = rng.randint(1, 3)
            simplex = random_simplex(rng, n)
            p = random_poly(rng, n, rng.randint(1, 4))
            k = p.degree + rng.randint(0, 2)
            patch = to_bernstein(p, k, simplex)
            lo, hi = patch.enclosure()
            for _ in range(200):
                x = random_point_in(rng, simplex)
                assert lo <= p.eval(x) <= hi


class TestElevate:
    def test_frozen_example(self):
        patch = to_bernstein_standard(PowerPoly.univariate([1, -3, 5]), 2)
        assert patch.elevate().coeffs == (F(1), F(0), F(2, 3), F(3))

    def test_constant(self):
        patch = to_bernstein_standard(PowerPoly.constant(2, F(9, 4)), 1)
        assert all(c == F(9, 4) for c in patch.elevate().coeffs)

    def test_linear_precision_preserved(self):
        p = PowerPoly.univariate([0, 1])
        elevated = to_bernstein_standard(p, 2).elevate()
        assert elevated.coeffs == to_bernstein_standard(p, 3).coeffs

    def test_elevation_equals_direct_conversion(self):
        rng = random.Random(80)
        for n in (1, 2):
            p = random_poly(rng, n, 3)
            patch = to_bernstein_standard(p, 3)
            for k in range(4, 7):
                patch = patch.elevate()
                assert patch.coeffs == to_bernstein_standard(p, k).coeffs

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_monotone_enclosure(self, n):
        rng = random.Random(90 + n)
        for _ in range(6):
            simplex = random_simplex(rng, n)
            p = random_poly(rng, n, rng.randint(1, 3))
            patch = to_bernstein(p, p.degree, simplex)
            previous = patch.enclosure()
            for _ in range(5):
                patch = patch.elevate()
                current = patch.enclosure()
                assert encloses(previous, current)
                previous = current

    def test_chain_stays_reduced_and_caches_no_indices(self):
        # 148 steps of (x + y - 1/3)^2 over the triangle, degree 2 -> 150,
        # end at the conversion's own patch.  Each step runs the
        # conversion's tail, so the integers stay reduced (14 bits here,
        # where a scale multiplied by k + 1 per step reaches 874 bits), and
        # reading the multinomials adds no index tuples to
        # ``enumerate_indices``.  Of the 149 degrees' multinomial tuples it
        # reads, the cache keeps the 32 most recent (degree, dimension) keys.
        num = PowerPoly(2, {(0, 0): F(1, 9), (1, 0): F(-2, 3), (0, 1): F(-2, 3),
                            (2, 0): 1, (1, 1): 2, (0, 2): 1})
        den = PowerPoly.constant(2, 1)
        f = rational_patch(num, den, standard_simplex(2))
        cached = enumerate_indices.cache_info().currsize
        for _ in range(148):
            f = f.elevate()
            for patch in (f.num, f.den):
                assert max(abs(a) for a in (patch.scale, *patch.nums)).bit_length() < 64
        assert enumerate_indices.cache_info().currsize == cached
        assert multinomials.cache_info().currsize <= 32
        assert f == rational_patch(num, den, standard_simplex(2), 150)

    def test_size_cap(self):
        # Degree 2894 is the last the cap admits on an interval; elevation
        # refuses 2895 as conversion does, before anything is allocated.
        patch = to_bernstein(PowerPoly.constant(1, 1), 2894, Simplex.from_interval(0, 1))
        with pytest.raises(InvalidArgument, match=r"^Bernstein degree 2895 over a 1-simplex"
                           r" needs a conversion triangle of 4194856 entries, more than"
                           r" 4194304$"):
            patch.elevate()


class TestSecondDifferences:
    def test_univariate(self):
        patch = BernsteinPatch(Simplex.from_interval(-1, 1), 2, (F(13), F(-6), F(3)))
        diffs = patch.second_differences()
        assert diffs.sup_norm == 28
        assert set(dict(diffs.items).values()) == {F(28)}

    def test_linear_vanishes(self):
        patch = to_bernstein_standard(PowerPoly(2, {(1, 0): 2, (0, 1): -3}), 3)
        diffs = patch.second_differences()
        assert diffs.sup_norm == 0
        assert all(v == 0 for v in dict(diffs.items).values())

    def test_constant_vanishes(self):
        patch = to_bernstein_standard(PowerPoly.constant(1, F(5)), 2)
        assert patch.second_differences().sup_norm == 0

    def test_degree_too_low(self):
        patch = to_bernstein_standard(PowerPoly.univariate([0, 1]), 1)
        with pytest.raises(DegreeTooLow):
            patch.second_differences()

    def test_entry_count(self):
        patch = to_bernstein_standard(PowerPoly(2, {(2, 0): 1}), 3)
        # C(1+2,2) gammas * 3 pairs
        assert len(patch.second_differences().items) == 3 * 3


def t_constant(p):
    """T = n(n+2) l(l-1)/24 * sup|second differences| of p's own-degree
    patch: omega of ``convergence_constants`` over the denominator 1, whose
    second differences vanish.  The control-net deviation at degree k > l is
    at most T / (k - 1)."""
    one = PowerPoly.constant(p.dimension, 1)
    return convergence_constants(rational_patch(p, one, standard_simplex(p.dimension))).omega


class TestDiscretizationBound:
    def test_linear_is_zero(self):
        assert t_constant(PowerPoly.univariate([2, 3])) / (5 - 1) == 0

    def test_constant_is_zero(self):
        # Degree 0, so the first degree above it is k = 1 and T itself is
        # the bound: the grid value of a constant is its coefficient.
        assert t_constant(PowerPoly.constant(1, F(7))) == 0

    def test_quadratic_frozen(self):
        # own-degree patch (1, -3/2, 3): sup second difference 7;
        # bound = (1*3*2*1/24) * 7 / (k-1) = 7/8 at k = 3
        assert t_constant(PowerPoly.univariate([1, -5, 7])) / (3 - 1) == F(7, 8)

    @pytest.mark.parametrize("n", [1, 2])
    def test_deviation_within_bound(self, n):
        rng = random.Random(110 + n)
        for _ in range(12):
            p = random_poly(rng, n, rng.randint(2, 4))
            t_const = t_constant(p)
            for k in range(p.degree + 1, p.degree + 6):
                bound = t_const / (k - 1)
                patch = to_bernstein_standard(p, k)
                deviation = max(
                    abs(p.eval(grid_point(alpha, k, patch.simplex)) - coeff)
                    for alpha, coeff in zip(enumerate_indices(k, patch.dimension), patch.coeffs)
                )
                assert deviation <= bound


class TestSplitEdge:
    def test_frozen_interval_split(self):
        p = PowerPoly.univariate([1, -5, 7])
        patch = to_bernstein(p, 2, Simplex.from_interval(-1, 1))
        left, right = patch.split_edge(0, 1)
        assert left.coeffs == (F(13), F(7, 2), F(1))
        assert right.coeffs == (F(1), F(-3, 2), F(3))
        assert left.coeffs == to_bernstein(p, 2, Simplex.from_interval(-1, 0)).coeffs
        assert right.coeffs == to_bernstein(p, 2, Simplex.from_interval(0, 1)).coeffs

    def test_constant_children(self):
        patch = to_bernstein_standard(PowerPoly.constant(2, F(3, 7)), 2)
        for child in patch.split_edge(0, 2):
            assert all(c == F(3, 7) for c in child.coeffs)

    def test_linear_children_are_grid_values(self):
        p = PowerPoly(2, {(1, 0): 1, (0, 1): -1, (0, 0): F(1, 4)})
        patch = to_bernstein_standard(p, 2)
        for child in patch.split_edge(1, 2):
            for alpha, coeff in zip(enumerate_indices(2, 2), child.coeffs):
                assert coeff == p.eval(grid_point(alpha, 2, child.simplex))

    def test_bad_edge(self):
        patch = to_bernstein_standard(PowerPoly.univariate([0, 1]), 1)
        with pytest.raises(BadEdge):
            patch.split_edge(1, 0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_split_equals_reconversion(self, n):
        rng = random.Random(120 + n)
        for _ in range(8):
            simplex = random_simplex(rng, n)
            p = random_poly(rng, n, rng.randint(1, 3))
            k = min(p.degree + rng.randint(0, 3), 6)
            k = max(k, p.degree)
            patch = to_bernstein(p, k, simplex)
            i = rng.randrange(n)
            j = rng.randint(i + 1, n)
            for child in patch.split_edge(i, j):
                expected = to_bernstein(p, k, child.simplex)
                assert child.coeffs == expected.coeffs


class TestPatchJson:
    def test_canonical_coefficient_order(self):
        patch = to_bernstein_standard(PowerPoly(2, {(1, 1): 1}), 2)
        dumped = patch.to_json()
        # coefficient list aligns with the canonical index enumeration
        indices = enumerate_indices(2, 2)
        assert len(dumped["coeffs"]) == len(indices)
        assert dumped["coeffs"][indices.index((0, 1, 1))] == "1/2"

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            BernsteinPatch(Simplex.from_interval(0, 1), 2, (F(1), F(2)))

    def test_bad_length_counted_not_enumerated(self):
        # The length is C(k + n, n); no index set of the degree is built.
        cached = enumerate_indices.cache_info().currsize
        with pytest.raises(ValueError, match=r"^degree-1000000000 patch over a 1-simplex"
                                             r" needs 1000000001 coefficients, got 2$"):
            BernsteinPatch(Simplex.from_interval(0, 1), 10**9, (F(1), F(2)))
        assert enumerate_indices.cache_info().currsize == cached

    @pytest.mark.parametrize("degree, error, message", [
        (True, TypeError, "degree True is not an integer"),
        (1.0, TypeError, "degree 1.0 is not an integer"),
        (1.5, TypeError, "degree 1.5 is not an integer"),
        ("1", TypeError, "degree '1' is not an integer"),
        (-1, ValueError, "degree must be nonnegative, got -1"),
    ])
    def test_degree_must_be_a_nonnegative_integer(self, degree, error, message):
        with pytest.raises(error) as info:
            BernsteinPatch(Simplex.from_interval(0, 1), degree, (F(1), F(2)))
        assert str(info.value) == message
