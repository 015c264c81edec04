"""Rational Bernstein form: ratios, enclosure, sharpness, constants."""

import copy
import json
import pickle
import random
from fractions import Fraction as F
from operator import mul

import pytest

from bernbound import (
    BernsteinPatch,
    ClaimedMinimum,
    PowerPoly,
    RationalPatch,
    Simplex,
    convergence_constants,
    rational_patch,
)
from bernbound import geometry, ratpatch
from bernbound.errors import (
    DegreeMismatch,
    DegreeTooLow,
    DenominatorNotPositive,
    DimensionMismatch,
    SimplexMismatch,
)
from bernbound.indexing import weight_row
from bernbound.polypatch import to_bernstein_standard
from conftest import encloses, fn_cert3, fn_dip, pinned_corpus, rational_instances


def _patch(simplex, degree, coeffs):
    return BernsteinPatch(simplex, degree, tuple(F(c) for c in coeffs))


class TestMakeRational:
    def test_dip_function(self):
        num, den, domain = fn_dip()
        f = rational_patch(num, den, domain)
        assert f.ratios == (F(13, 10), F(-1), F(1, 2))

    def test_cert3_function(self):
        num, den, domain = fn_cert3()
        f = rational_patch(num, den, domain)
        assert f.ratios == (F(1), F(-1, 2), F(3, 2))

    def test_identical_patches_give_ones(self):
        patch = to_bernstein_standard(PowerPoly.univariate([1, 1, 1]), 2)
        f = RationalPatch(patch, patch)
        assert all(r == 1 for r in f.ratios)

    def test_ratio_identity(self):
        num, den, domain = fn_dip()
        f = rational_patch(num, den, domain)
        for r, p, q in zip(f.ratios, f.num.coeffs, f.den.coeffs):
            assert r * q == p

    def test_denominator_not_positive(self):
        unit = Simplex.from_interval(0, 1)
        num = _patch(unit, 1, (1, 1))
        den = _patch(unit, 1, (1, 0))
        with pytest.raises(DenominatorNotPositive) as info:
            RationalPatch(num, den)
        assert info.value.indices == ((0, 1),)

    def test_degree_mismatch(self):
        unit = Simplex.from_interval(0, 1)
        with pytest.raises(DegreeMismatch):
            RationalPatch(_patch(unit, 1, (1, 1)), _patch(unit, 2, (1, 1, 1)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            rational_patch(PowerPoly.univariate([1, 1]), PowerPoly.constant(2, 1),
                           Simplex.from_interval(0, 1))

    @pytest.mark.parametrize("num, den_dim, message", [
        (PowerPoly.constant(1, 1), 2, "numerator has 1 variables, denominator 2"),
        (PowerPoly.constant(2, 1), 1, "polynomial has 2 variables, simplex has 1"),
        # Past the size cap, so a conversion would raise InvalidArgument.
        (PowerPoly(1, {(3000,): 1}), 2, "numerator has 1 variables, denominator 2"),
    ], ids=["denominator", "numerator", "before-conversion"])
    def test_dimension_mismatch_message(self, num, den_dim, message):
        # A numerator that does not fit the simplex is named against it;
        # a denominator that does not fit the numerator, against that.
        with pytest.raises(DimensionMismatch, match=f"^{message}$"):
            rational_patch(num, PowerPoly.constant(den_dim, 1), Simplex.from_interval(0, 1))

    @pytest.mark.parametrize("higher", ["numerator", "denominator"])
    def test_degree_below_the_polynomials(self, higher):
        # The conversion of the higher-degree polynomial refuses the degree.
        pair = [PowerPoly.univariate([1, 0, 1]), PowerPoly.constant(1, 1)]
        if higher == "denominator":
            pair.reverse()
        with pytest.raises(DegreeTooLow,
                           match=r"^Bernstein degree 1 below polynomial degree 2$"):
            rational_patch(*pair, Simplex.from_interval(0, 1), 1)

    def test_simplex_mismatch(self):
        a = Simplex.from_interval(0, 1)
        b = Simplex.from_interval(0, 2)
        with pytest.raises(SimplexMismatch):
            RationalPatch(_patch(a, 1, (1, 1)), _patch(b, 1, (1, 1)))


class TestEnclosure:
    def test_dip(self):
        num, den, domain = fn_dip()
        assert rational_patch(num, den, domain).enclosure() == (F(-1), F(13, 10))

    def test_constant(self):
        f = rational_patch(
            PowerPoly.constant(1, F(5, 4)),
            PowerPoly.constant(1, 1),
            Simplex.from_interval(0, 1),
            degree=2,
        )
        assert f.enclosure() == (F(5, 4), F(5, 4))

    def test_cert3_degree_three(self):
        num, den, domain = fn_cert3()
        f = rational_patch(num, den, domain, 3)
        assert f.enclosure() == (F(0), F(3, 2))

    def test_eval(self):
        # The pair of dot products with one weight row
        # (``optimize._upper_bound``'s rule) at a point's barycentric
        # weights, each times the other list's scale, is the function's
        # exact value there.
        num, den, domain = fn_dip()
        f = rational_patch(num, den, domain)
        for x in (F(-1), F(0), F(1, 3), F(1)):
            row = weight_row(2, 1, geometry._barycentric_weights(domain, [x]))
            value = F(sum(map(mul, f.num.nums, row)) * f.den.scale,
                      sum(map(mul, f.den.nums, row)) * f.num.scale)
            assert value == num.eval([x]) / den.eval([x])

    @pytest.mark.parametrize("case", pinned_corpus()[:4])
    def test_dense_containment_univariate(self, case):
        f = rational_patch(case.num, case.den, case.domain)
        lo, hi = f.enclosure()
        for i in range(10_001):
            x = F(i, 10_000)
            value = case.num.eval([x]) / case.den.eval([x])
            assert lo <= value <= hi

    def test_dense_containment_bivariate(self):
        rng = random.Random(500)
        pnum, pden, simplex, degree = rational_instances(
            1, seed=501, max_n=2, max_l=3, standard_only=True
        )[0]
        f = rational_patch(pnum, pden, simplex, degree)
        lo, hi = f.enclosure()
        count = 0
        for i in range(45):
            for j in range(45 - i):
                x = (F(i, 45), F(j, 45))
                value = pnum.eval(x) / pden.eval(x)
                assert lo <= value <= hi
                count += 1
        assert count >= 1000


class TestElevation:
    def test_cert3_elevation(self):
        num, den, domain = fn_cert3()
        f = rational_patch(num, den, domain)
        assert f.elevate().ratios == (F(1), F(0), F(1, 2), F(3, 2))

    def test_constant_stays(self):
        f = rational_patch(
            PowerPoly.constant(1, F(2, 3)),
            PowerPoly.constant(1, 2),
            Simplex.from_interval(0, 1),
            degree=1,
        )
        assert all(r == F(1, 3) for r in f.elevate().ratios)

    def test_nesting_dip(self):
        num, den, domain = fn_dip()
        f = rational_patch(num, den, domain)
        previous = f.enclosure()
        for _ in range(5):
            f = f.elevate()
            current = f.enclosure()
            assert encloses(previous, current)
            previous = current

    def test_nesting_random_corpus(self):
        for pnum, pden, simplex, degree in rational_instances(10, seed=510):
            f = rational_patch(pnum, pden, simplex, degree)
            previous = f.enclosure()
            for _ in range(6):
                f = f.elevate()
                current = f.enclosure()
                assert encloses(previous, current)
                previous = current

    def test_degree_mismatch_impossible_after_construction(self):
        num, den, domain = fn_dip()
        f = rational_patch(num, den, domain)
        g = f.elevate()
        assert g.num.degree == g.den.degree == f.degree + 1


class TestSharpness:
    def test_dip_max_sharp_min_not(self):
        num, den, domain = fn_dip()
        f = rational_patch(num, den, domain)
        sharp = f.sharpness()
        assert sharp.max_sharp and sharp.max_vertex == 0
        assert not sharp.min_sharp and sharp.min_vertex is None
        # the sharp maximum is the true function value at that vertex
        assert num.eval([-1]) / den.eval([-1]) == F(13, 10)

    def test_constant_both_sharp(self):
        f = rational_patch(
            PowerPoly.constant(1, 3),
            PowerPoly.constant(1, 1),
            Simplex.from_interval(0, 1),
            degree=1,
        )
        sharp = f.sharpness()
        assert sharp.min_sharp and sharp.max_sharp

    def test_sharp_endpoint_is_exact_value(self):
        for pnum, pden, simplex, degree in rational_instances(15, seed=520):
            f = rational_patch(pnum, pden, simplex, degree)
            sharp = f.sharpness()
            if sharp.max_sharp:
                vertex = simplex.vertex(sharp.max_vertex)
                assert max(f.ratios) == pnum.eval(vertex) / pden.eval(vertex)
            if sharp.min_sharp:
                vertex = simplex.vertex(sharp.min_vertex)
                assert min(f.ratios) == pnum.eval(vertex) / pden.eval(vertex)


class TestSplitRound:
    def test_matches_geometry(self):
        num, den, domain = fn_dip()
        f = rational_patch(num, den, domain)
        pieces = f.split_round()
        assert [p.simplex for p in pieces] == [
            Simplex.from_interval(-1, 0),
            Simplex.from_interval(0, 1),
        ]

    def test_matches_reconversion(self):
        num, den, domain = fn_dip()
        f = rational_patch(num, den, domain)
        for piece in f.split_round():
            expected = rational_patch(num, den, piece.simplex)
            assert piece.ratios == expected.ratios

    def test_bivariate_round(self):
        pnum, pden, simplex, degree = rational_instances(
            1, seed=530, max_n=2, max_l=2, standard_only=True
        )[0]
        f = rational_patch(pnum, pden, simplex, degree)
        pieces = f.split_round()
        h, q = F(1, 2), F(1, 4)
        assert [p.simplex for p in pieces] == [
            Simplex([[0, 0], [h, 0], [q, q]]),
            Simplex([[q, q], [h, 0], [h, h]]),
            Simplex([[h, 0], [1, 0], [3 * q, q]]),
            Simplex([[h, 0], [3 * q, q], [h, h]]),
            Simplex([[0, 0], [q, q], [0, h]]),
            Simplex([[q, q], [h, h], [0, h]]),
            Simplex([[0, h], [h, h], [q, 3 * q]]),
            Simplex([[0, h], [q, 3 * q], [0, 1]]),
        ]
        for piece in pieces:
            assert piece.ratios == rational_patch(
                pnum, pden, piece.simplex, degree
            ).ratios

    def test_subdivision_never_widens(self):
        for pnum, pden, simplex, degree in rational_instances(6, seed=540, max_n=2):
            f = rational_patch(pnum, pden, simplex, degree)
            outer = f.enclosure()
            for piece in f.split_round():
                assert encloses(outer, piece.enclosure())


class TestConvergenceConstants:
    def test_linear_gives_zero_omega(self):
        c = convergence_constants(rational_patch(
            PowerPoly.univariate([1, 1]),
            PowerPoly.univariate([2, 1]),
            Simplex.from_interval(0, 1),
        ))
        assert c.omega == 0 and c.omega_prime == 0

    def test_dip_zeta(self):
        num, den, domain = fn_dip()
        c = convergence_constants(rational_patch(num, den, domain))
        assert c.zeta == F(13, 10)

    def test_dip_omega_frozen(self):
        # pulled back: second differences 28 (num) and 4 (den), min den 6;
        # omega = (1*3*2*1/24) / 6 * (28 + 13/10 * 4) = 83/60
        num, den, domain = fn_dip()
        c = convergence_constants(rational_patch(num, den, domain))
        assert c.omega == F(1, 24) * (28 + F(13, 10) * 4)
        assert c.omega == F(83, 60)
        assert c.min_den == 6
        # omega' at working degree 2: 2 * (72/576) / 6 * (166/5) = 83/60
        assert c.omega_prime == 2 * F(72, 576) / 6 * (28 + F(13, 10) * 4)

    def test_working_degree_scales_omega_prime(self):
        num, den, domain = fn_dip()
        base = convergence_constants(rational_patch(num, den, domain), degree=2)
        doubled = convergence_constants(rational_patch(num, den, domain), degree=4)
        assert doubled.omega_prime == 2 * base.omega_prime
        assert doubled.omega == base.omega

    def test_working_degree_below_base_rejected(self):
        # omega' grows with the working degree, so a degree below the base
        # (degree 2 here) would give too small a bound: 0 at degree 0 and a
        # negative one below it.
        f = rational_patch(*fn_dip())
        for degree in (-3, 0, 1):
            with pytest.raises(DegreeTooLow, match=f"^working degree {degree} below base"):
                convergence_constants(f, degree)
        for degree in (2, 5):
            assert convergence_constants(f, degree).working_degree == degree

    def test_denominator_not_positive(self):
        with pytest.raises(DenominatorNotPositive):
            convergence_constants(rational_patch(
                PowerPoly.univariate([1, 0, 1]),
                PowerPoly.univariate([0, 1]),
                Simplex.from_interval(0, 1),
            ))


class TestLinearConvergenceRate:
    def test_both_sides_on_pinned_case(self):
        case = pinned_corpus()[0]
        c = convergence_constants(rational_patch(case.num, case.den, case.domain))
        for k in range(3, 13):
            f = rational_patch(case.num, case.den, case.domain, k)
            lo, hi = f.enclosure()
            bound = c.omega / (k - 1)
            assert case.fmin - lo <= bound
            assert hi - case.fmax <= bound

    def test_bivariate_with_certified_slack(self):
        # f = 1/2 + ((x - 1/4)^2 + (y - 1/4)^2) / (1 + x + y) on the
        # standard triangle: exact minimum 1/2 at (1/4, 1/4).
        den = PowerPoly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
        num = PowerPoly(2, {
            (0, 0): F(1, 2) + 2 * F(1, 16),
            (1, 0): F(1, 2) - F(1, 2),      # fmin*q1 - 2*argmin = 0
            (0, 1): F(0),
            (2, 0): F(1),
            (0, 2): F(1),
        })
        domain = Simplex([[0, 0], [1, 0], [0, 1]])
        fmin = F(1, 2)
        assert num.eval([F(1, 4), F(1, 4)]) / den.eval([F(1, 4), F(1, 4)]) == fmin
        c = convergence_constants(rational_patch(num, den, domain))
        # max side has no closed form here: bound the sampling error by the
        # library's own certified upper enclosure at a high degree
        sampled_max = max(
            num.eval((F(i, 24), F(j, 24))) / den.eval((F(i, 24), F(j, 24)))
            for i in range(25)
            for j in range(25 - i)
        )
        certified_hi = rational_patch(num, den, domain, 24).enclosure().hi
        slack = certified_hi - sampled_max
        assert slack >= 0
        for k in range(3, 9):
            f = rational_patch(num, den, domain, k)
            lo, hi = f.enclosure()
            bound = c.omega / (k - 1)
            assert fmin - lo <= bound
            assert hi - sampled_max <= bound + slack


class TestJson:
    def test_round_trip_fields(self):
        num, den, domain = fn_dip()
        f = rational_patch(num, den, domain)
        data = json.loads(json.dumps(f.to_json()))
        assert data["ratios"] == ["13/10", "-1", "1/2"]
        interval = {"vertices": [["-1"], ["1"]]}
        assert data["num"] == {"simplex": interval, "degree": 2, "coeffs": ["13", "-6", "3"]}
        assert data["den"] == {"simplex": interval, "degree": 2, "coeffs": ["10", "6", "6"]}


class TestRecord:
    """A rational patch is a read-only value, equal and hashed by (num, den)."""

    def test_equality_and_hash_by_fields(self):
        num, den, domain = fn_dip()
        f = rational_patch(num, den, domain)
        g = RationalPatch(f.num, f.den)
        assert f == g and hash(f) == hash(g) and len({f, g}) == 1
        assert f != RationalPatch(f.num.negate(), f.den)
        assert f != (f.num, f.den)
        assert f != f.elevate()
        assert repr(f) == f"RationalPatch(num={f.num!r}, den={f.den!r})"

    def test_rejects_assignment(self):
        num, den, domain = fn_dip()
        f = rational_patch(num, den, domain)
        f.ratios  # a cached view is still filled in once
        for name in ("num", "den", "ratios", "other"):
            with pytest.raises(AttributeError):
                setattr(f, name, None)
        for name in ("num", "ratios"):
            with pytest.raises(AttributeError):
                delattr(f, name)
        assert f.ratios == (F(13, 10), F(-1), F(1, 2))
        assert f.num.degree == 2


@pytest.mark.parametrize("value", [
    Simplex.from_interval(0, 1),
    BernsteinPatch(Simplex.from_interval(0, 1), 1, (1, 2)),
    PowerPoly.zero(2),
    ClaimedMinimum("1/3"),
], ids=["simplex", "bernstein-patch", "power-poly", "claimed-minimum"])
def test_never_equal_to_another_type(value):
    # Each ``__eq__`` returns NotImplemented for a non-instance, so Python
    # falls back to identity: == is False and != is True.
    for other in (object(), None):
        assert not value == other and value != other


@pytest.mark.parametrize("duplicate", [
    lambda value: pickle.loads(pickle.dumps(value)), copy.copy, copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_values_pickle_and_copy(duplicate):
    # Values are safe to send to a worker: each one survives pickling and
    # copying unchanged.  The patch is the README's; a ``Piece`` has no
    # equality, so it is compared by its fields, on a piece of two split
    # rounds (cut twice, with a doubled denominator).
    num, den, box = fn_dip()
    f = rational_patch(num, den, box)
    f.ratios  # a filled-in view travels too
    values = [box, Simplex(box.vertices), f.num, f, ClaimedMinimum("1/3")]
    for value in values:
        again = duplicate(value)
        assert again == value and type(again) is type(value)
        assert hash(again) == hash(value)
    piece = ratpatch.Piece.of((f.num, f.den))
    for _ in range(2):
        piece = ratpatch._split_round(piece)[-1]
    again = duplicate(piece)
    assert type(again) is ratpatch.Piece
    fields = ("root", "path", "rows", "denom", "lists", "cuts", "lengths")
    assert [getattr(again, name) for name in fields] == [
        getattr(piece, name) for name in fields]
    assert (piece.cuts, piece.denom) == (2, 2)
