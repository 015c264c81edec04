"""Simplices, barycentric coordinates, pullback, and subdivision."""

import random
from fractions import Fraction as F

import pytest

from bernbound import (
    PowerPoly,
    Simplex,
    affine_pullback,
    barycentric,
    bisect_edge,
    diameter_sq,
    longest_edge,
    rational_patch,
    round_length,
    standard_simplex,
)
from bernbound import geometry
from bernbound.errors import (
    BadEdge,
    DegenerateSimplex,
    DimensionMismatch,
)
from conftest import random_point_in, random_simplex, simplex_volume_scaled


class TestSimplex:
    def test_standard(self):
        tri = standard_simplex(2)
        assert tri.vertices == ((F(0), F(0)), (F(1), F(0)), (F(0), F(1)))
        assert tri.dimension == 2

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateSimplex):
            Simplex([[0, 0], [1, 1], [2, 2]])
        with pytest.raises(DegenerateSimplex):
            Simplex([[0], [0]])

    def test_degenerate_with_large_coprime_denominators(self):
        p, q, r = 2**61 - 1, 10**9 + 7, 999_983
        v0 = (F(1, p), F(2, q), F(3, r))
        d1 = (F(1, q), F(-1, p), F(5, r))
        d2 = (F(2, r), F(1, q), F(-1, p))

        def at(a, b):
            return tuple(x + a * y + b * z for x, y, z in zip(v0, d1, d2))

        with pytest.raises(DegenerateSimplex):
            Simplex([v0, at(1, 0), at(0, 1), at(F(7, q), F(-3, p))])
        with pytest.raises(DegenerateSimplex):
            Simplex([v[:2] for v in (v0, at(1, 0), at(F(5, r), 0))])
        # The same points, one coordinate off by 1/(pqr), span a simplex.
        nudged = at(F(7, q), F(-3, p))
        nudged = nudged[:2] + (nudged[2] + F(1, p * q * r),)
        assert Simplex([v0, at(1, 0), at(0, 1), nudged]).dimension == 3

    def test_shape_validation(self):
        with pytest.raises(DegenerateSimplex):
            Simplex([[0, 0], [1, 0]])  # two vertices cannot span R^2

    @pytest.mark.parametrize("vertices", [["00", "10", "01"], "01", [{"0": 0}, {"1": 1}]])
    def test_string_or_object_points_rejected(self, vertices):
        # A string iterates as its characters and an object as its keys, and
        # neither is a list of coordinates.
        with pytest.raises(TypeError):
            Simplex(vertices)

    def test_json_round_trip(self):
        s = Simplex([["-1/2", "1.5"], ["2", "0"], ["0", "1/3"]])
        again = Simplex.from_json(s.to_json())
        assert again == s
        assert again.vertices[0] == (F(-1, 2), F(3, 2))

    def test_from_interval(self):
        s = Simplex.from_interval(-1, 1)
        assert s.vertices == ((F(-1),), (F(1),))

    def test_rejects_assignment_and_deletion(self):
        s = Simplex.from_interval(-1, 1)
        s.vertices  # the cached view is still filled in once
        for name in ("ints", "denom", "_vertices", "other"):
            with pytest.raises(AttributeError, match=f"cannot set {name!r}"):
                setattr(s, name, None)
        for name in ("ints", "denom", "_vertices"):
            with pytest.raises(AttributeError, match=f"cannot delete {name!r}"):
                delattr(s, name)
        assert (s.ints, s.denom) == (((-1,), (1,)), 1)
        assert diameter_sq(s) == 4


class TestBarycentric:
    def test_origin_of_standard(self):
        assert barycentric(standard_simplex(2), (0, 0)) == (F(1), F(0), F(0))

    def test_standard_formula(self):
        lam = barycentric(standard_simplex(2), (F(1, 2), F(1, 4)))
        assert lam == (F(1, 4), F(1, 2), F(1, 4))

    def test_interval_midpoint(self):
        lam = barycentric(Simplex.from_interval(-1, 1), (0,))
        assert lam == (F(1, 2), F(1, 2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            barycentric(standard_simplex(2), (0,))

    def test_string_point_rejected(self):
        with pytest.raises(TypeError):
            barycentric(standard_simplex(2), "01")

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_recombination_identity(self, n):
        rng = random.Random(100 + n)
        for _ in range(2):
            simplex = random_simplex(rng, n)
            for _ in range(1000):
                point = random_point_in(rng, simplex)
                lam = barycentric(simplex, point)
                assert sum(lam) == 1
                for c in range(n):
                    assert sum(l * v[c] for l, v in zip(lam, simplex.vertices)) == point[c]


def _grid_point(alpha, k, simplex):
    """``geometry._grid_point`` on a simplex's integer rows."""
    return geometry._grid_point(alpha, k, simplex.ints, simplex.denom)


class TestGridPoint:
    def test_vertex_case(self):
        tri = standard_simplex(2)
        assert _grid_point((3, 0, 0), 3, tri) == tri.vertex(0)
        assert _grid_point((0, 0, 3), 3, tri) == tri.vertex(2)

    def test_interval_midpoint(self):
        assert _grid_point((1, 1), 2, Simplex.from_interval(-1, 1)) == (F(0),)

    def test_centroid(self):
        assert _grid_point((1, 1, 1), 3, standard_simplex(2)) == (F(1, 3), F(1, 3))


class TestDiameter:
    def test_standard_interval(self):
        assert diameter_sq(standard_simplex(1)) == 1

    def test_triangle(self):
        assert diameter_sq(standard_simplex(2)) == 2

    def test_interval(self):
        assert diameter_sq(Simplex.from_interval(-1, 1)) == 4

    def test_longest_edge_tie_break(self):
        # equilateral-in-max-norm: all edges tie, lowest pair wins
        assert longest_edge(standard_simplex(1)) == (0, 1)
        assert longest_edge(standard_simplex(2)) == (1, 2)


class TestAffinePullback:
    def test_identity_on_standard(self):
        p = PowerPoly(2, {(1, 0): F(2), (0, 2): F(-1)})
        assert affine_pullback(standard_simplex(2), p) == p

    def test_interval_quadratic(self):
        p = PowerPoly.univariate([1, -5, 7])
        pulled = affine_pullback(Simplex.from_interval(-1, 1), p)
        assert pulled == PowerPoly.univariate([13, -38, 28])

    def test_unit_interval_linear(self):
        p = PowerPoly.univariate([0, 1])
        assert affine_pullback(Simplex.from_interval(0, 1), p) == p

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_value_preservation(self, n):
        rng = random.Random(200 + n)
        simplex = random_simplex(rng, n)
        terms = {}
        for _ in range(6):
            exps = tuple(rng.randint(0, 2) for _ in range(n))
            terms[exps] = F(rng.randint(-5, 5), rng.randint(1, 4))
        p = PowerPoly(n, terms)
        pulled = affine_pullback(simplex, p)
        std = standard_simplex(n)
        for _ in range(40):
            t = random_point_in(rng, std)
            v0 = simplex.vertex(0)
            x = tuple(
                v0[c]
                + sum(t[i] * (simplex.vertex(i + 1)[c] - v0[c]) for i in range(n))
                for c in range(n)
            )
            assert pulled.eval(t) == p.eval(x)

    def test_degree_preserved(self):
        p = PowerPoly.univariate([1, -5, 7])
        assert affine_pullback(Simplex.from_interval(2, 5), p).degree == 2

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match="2 variables, simplex has 1"):
            affine_pullback(Simplex.from_interval(0, 1), PowerPoly(2, {(1, 0): 1}))


class TestBisectEdge:
    def test_interval(self):
        left, right = bisect_edge(Simplex.from_interval(-1, 1), 0, 1)
        assert left == Simplex.from_interval(-1, 0)
        assert right == Simplex.from_interval(0, 1)

    def test_triangle_volume_halves(self):
        tri = standard_simplex(2)
        a, b = bisect_edge(tri, 1, 2)
        whole = simplex_volume_scaled(tri)
        assert simplex_volume_scaled(a) == whole / 2
        assert simplex_volume_scaled(b) == whole / 2

    def test_vertex_union_covers_parent(self):
        tri = standard_simplex(2)
        a, b = bisect_edge(tri, 0, 2)
        union = set(a.vertices) | set(b.vertices)
        assert set(tri.vertices) <= union

    def test_repeated_split(self):
        left, _ = bisect_edge(Simplex.from_interval(0, F(1, 2)), 0, 1)
        assert left == Simplex.from_interval(0, F(1, 4))

    def test_bad_edge(self):
        tri = standard_simplex(2)
        with pytest.raises(BadEdge):
            bisect_edge(tri, 1, 1)
        with pytest.raises(BadEdge):
            bisect_edge(tri, 0, 3)

    def test_every_simplex_is_checked(self, monkeypatch):
        # Bisection children are built from the parent's integers, not
        # through Simplex.__init__; they must still pass the rank check.
        one = PowerPoly.constant(2, 1)
        patch = rational_patch(one, one, standard_simplex(2))
        monkeypatch.setattr(geometry, "_bareiss", lambda rows: None)
        with pytest.raises(DegenerateSimplex):
            bisect_edge(standard_simplex(2), 0, 1)
        with pytest.raises(DegenerateSimplex):
            patch.split_round()
        with pytest.raises(DegenerateSimplex):
            Simplex([[0, 0], [1, 0], [0, 1]])


def split_round(simplex):
    """The child simplices of one ``RationalPatch.split_round`` of a constant."""
    one = PowerPoly.constant(simplex.dimension, 1)
    return [piece.simplex for piece in rational_patch(one, one, simplex).split_round()]


class TestSplitRound:
    def test_interval_round_is_one_split(self):
        kids = split_round(Simplex.from_interval(-1, 1))
        assert kids == [Simplex.from_interval(-1, 0), Simplex.from_interval(0, 1)]

    def test_two_rounds_give_quarters(self):
        pieces = [
            grandchild
            for child in split_round(Simplex.from_interval(-1, 1))
            for grandchild in split_round(child)
        ]
        expected = [
            Simplex.from_interval(F(-1), F(-1, 2)),
            Simplex.from_interval(F(-1, 2), F(0)),
            Simplex.from_interval(F(0), F(1, 2)),
            Simplex.from_interval(F(1, 2), F(1)),
        ]
        assert pieces == expected

    def test_triangle_round_shrinks(self):
        tri = standard_simplex(2)
        kids = split_round(tri)
        assert max(diameter_sq(k) for k in kids) <= diameter_sq(tri) / 4

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_shrink_factor_random(self, n):
        rng = random.Random(300 + n)
        for _ in range(3 if n < 4 else 1):
            simplex = random_simplex(rng, n)
            parent_sq = diameter_sq(simplex)
            kids = split_round(simplex)
            assert max(diameter_sq(k) for k in kids) <= parent_sq / 4
            whole = simplex_volume_scaled(simplex)
            assert sum(simplex_volume_scaled(k) for k in kids) == whole


class TestSubdivisionPlan:
    def test_round_length(self):
        assert round_length(1) == 1
        assert round_length(2) == 3
        assert round_length(4) == 10
