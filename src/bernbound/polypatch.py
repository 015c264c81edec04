"""Bernstein coefficient patches of polynomials over simplices.

A patch holds the dense list of Bernstein coefficients of one polynomial at
one degree over one simplex, in canonical index order.  The minimum and
maximum coefficient enclose the polynomial's range over the simplex; degree
elevation tightens the enclosure monotonically; edge splitting propagates
coefficients to subsimplices without reconversion.

Coefficients are exact rationals throughout: positivity verdicts downstream
hinge on coefficient signs, so no floating arithmetic enters here.  A patch
stores them as integer numerators ``nums`` over one shared positive integer
denominator ``scale``, so elevation and edge splitting are integer
arithmetic with no gcd per operation; ``coeffs`` is the exact ``Fraction``
view, built on each read.  Elevation has one rule, the homogeneous sum step
(``_elevate_homogeneous``) that the global certificate scan runs on its own
integers; ``elevate`` divides its result back to Bernstein numerators.  The
step returns the elevated list alone: a vertex entry is a function value
and keeps its value, so the scan decides the vertex part of the
certificate once, at the root, and the step carries no vertex positions.
Conversion from the power basis is one kernel, ``to_bernstein``: integer
Horner pullback from the simplex's rows, a table scatter into the grid,
the edge split's de Casteljau triangle (``_triangle``) along each axis,
and one gcd.  It refuses a degree whose triangle, C(k + n + 1, n + 1)
entries (``_triangle_size``), exceeds ``MAX_TRIANGLE`` (``InvalidArgument``)
before it allocates any, and the global scan stops at the last degree the
cap admits.  Second differences are integer too, building a ``Fraction``
only per returned entry, and ``eval`` is one integer weighted sum
(``_grid_sum``).  The constructor reads coefficients as integer pairs and
``to_json`` prints them from ``nums`` over ``scale``.
``to_bernstein_standard`` and ``SecondDifferences`` are not exported: no
library code calls them (only the traced ``second_differences`` returns
the latter), and they stay here for ``bench/tracing.py`` until ROADMAP
item 16, and as test oracles.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, lcm
from operator import add, lshift, mul, sub
from typing import List, NamedTuple, Sequence, Tuple

from .errors import DegreeTooLow, DimensionMismatch, InvalidArgument
from .geometry import Simplex, _barycentric_weights, bisect_edge, standard_simplex
from .indexing import (
    conversion_table,
    elevation_sums,
    enumerate_indices,
    multinomials,
    second_difference_moves,
    split_table,
)
from .powerpoly import PowerPoly, _integer, _pullback
from .rationals import Interval, Rational, _format_ratio, _ratio

DiffKey = Tuple[Tuple[int, ...], int, int]

# The most entries of one conversion's de Casteljau triangle, C(k + n + 1,
# n + 1) at degree k over an n-simplex (``_triangle_size``), which
# ``split_table`` caches as positions too.  It admits n = 5 at k = 33
# (3,262,623) and refuses a runaway degree before anything is allocated.
MAX_TRIANGLE = 1 << 22


class SecondDifferences(NamedTuple):
    """Discrete second differences of a coefficient net and their sup norm.

    One entry per (gamma, i, j) with |gamma| = k - 2 and 0 <= i < j <= n;
    the sup norm is the exact maximum absolute entry.  Unexported; the
    traced ``BernsteinPatch.second_differences`` returns it, and it is kept
    for ``bench/tracing.py`` until ROADMAP item 16, and as a test oracle.
    """

    items: Tuple[Tuple[DiffKey, Fraction], ...]
    sup_norm: Fraction


class BernsteinPatch:
    """Bernstein coefficients of one polynomial of one degree over a simplex.

    The coefficient at position p is ``nums[p] / scale`` with ``scale > 0``.
    """

    __slots__ = ("simplex", "degree", "nums", "scale", "__weakref__")

    def __init__(self, simplex: Simplex, degree: int, coeffs: Sequence[Rational]):
        degree = _integer(degree, "degree")
        values = [_ratio(c) for c in coeffs]
        expected = len(enumerate_indices(degree, simplex.dimension))
        if len(values) != expected:
            raise ValueError(
                f"degree-{degree} patch over a {simplex.dimension}-simplex "
                f"needs {expected} coefficients, got {len(values)}"
            )
        scale = lcm(*[q for _, q in values])
        self.simplex = simplex
        self.degree = degree
        self.nums = tuple([p * (scale // q) for p, q in values])
        self.scale = scale

    @classmethod
    def _from_ints(cls, simplex: Simplex, degree: int, nums: Tuple[int, ...],
                   scale: int) -> "BernsteinPatch":
        """A patch straight from numerators over a positive scale, unchecked."""
        patch = cls.__new__(cls)
        patch.simplex = simplex
        patch.degree = degree
        patch.nums = nums
        patch.scale = scale
        return patch

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        """The exact coefficients, in canonical index order, built on each
        read."""
        scale = self.scale
        return tuple([Fraction(a, scale) for a in self.nums])

    def __eq__(self, other) -> bool:
        if not isinstance(other, BernsteinPatch):
            return NotImplemented
        s, t = self.scale, other.scale
        return (
            self.simplex == other.simplex
            and self.degree == other.degree
            and all(a * t == b * s for a, b in zip(self.nums, other.nums))
        )

    def __hash__(self) -> int:
        return hash((self.simplex, self.degree, self.coeffs))

    def __repr__(self) -> str:
        return f"BernsteinPatch({self.simplex!r}, {self.degree!r}, {self.coeffs!r})"

    @property
    def dimension(self) -> int:
        return self.simplex.dimension

    def enclosure(self) -> Interval:
        """[min coefficient, max coefficient]; contains the range over |V|."""
        coeffs = self.coeffs
        return Interval(min(coeffs), max(coeffs))

    def eval(self, point: Sequence[Rational]) -> Fraction:
        """Exact value of the represented polynomial at a rational point,
        inside the simplex or not: ``_grid_sum`` at the point's integer
        barycentric weights w, over scale * (sum w)^k."""
        weights = _barycentric_weights(self.simplex, point)
        return Fraction(_grid_sum(self.nums, self.degree, self.dimension, weights),
                        self.scale * sum(weights) ** self.degree)

    def elevate(self) -> "BernsteinPatch":
        """Same polynomial one degree higher; the enclosure never widens.

        One homogeneous sum step, then back to Bernstein numerators: with
        multinomial(k; beta - e_i) = multinomial(k + 1; beta) * beta_i /
        (k + 1), the elevated numerator c'_beta * (k + 1) /
        multinomial(k + 1; beta) is sum_i beta_i * nums_{beta - e_i}, over
        scale * (k + 1), and the division is exact.
        """
        k, n = self.degree, self.dimension
        c = _elevate_homogeneous(_homogeneous(self), k, n)
        up = k + 1
        nums = tuple([a * up // w for a, w in zip(c, multinomials(up, n))])
        return BernsteinPatch._from_ints(self.simplex, up, nums, self.scale * up)

    def negate(self) -> "BernsteinPatch":
        """The patch of -p: every numerator negated, over the same scale."""
        return BernsteinPatch._from_ints(self.simplex, self.degree,
                                         tuple([-a for a in self.nums]), self.scale)

    def second_differences(self) -> SecondDifferences:
        """All entries b[g+e_i+e_{j-1}] + b[g+e_{i-1}+e_j] - b[g+e_{i-1}+e_{j-1}]
        - b[g+e_i+e_j] for |g| = k-2, i < j, with e_{-1} meaning e_n."""
        keys, values = _second_difference_ints(self)
        scale = self.scale
        items = tuple(zip(keys, (Fraction(v, scale) for v in values)))
        return SecondDifferences(items, Fraction(max(map(abs, values)), scale))

    def split_edge(self, i: int, j: int) -> Tuple["BernsteinPatch", "BernsteinPatch"]:
        """Coefficient patches over the two midpoint children of edge (i, j).

        Univariate midpoint de Casteljau applied along the (i, j) barycentric
        direction; exactly equal to reconverting the polynomial on each child.
        Children are ordered as in ``bisect_edge``: the first keeps vertex v_i.

        The coefficients split as integers through ``split_nums``, over the
        parent's scale shifted left by the degree.
        """
        children = bisect_edge(self.simplex, i, j)
        k = self.degree
        left, right = split_nums(self.nums, split_table(k, self.dimension, i, j))
        scale = self.scale << k
        return (
            BernsteinPatch._from_ints(children[0], k, left, scale),
            BernsteinPatch._from_ints(children[1], k, right, scale),
        )

    def to_json(self) -> dict:
        return {
            "simplex": self.simplex.to_json(),
            "degree": self.degree,
            "coeffs": [_format_ratio(a, self.scale) for a in self.nums],
        }


def _grid_sum(nums: Sequence[int], degree: int, dimension: int,
              weights: Sequence[int]) -> int:
    """The integer scale * W^k * p(weights / W) of the numerators ``nums``
    of a degree-k patch (k = ``degree``) over a ``dimension``-simplex, for
    integer barycentric weights with W = sum(weights) != 0.

    At barycentric coordinates w / W the value is
    sum nums[beta] * multinomial(k; beta) * prod w_i^beta_i over
    scale * W^k, as |beta| = k.  Grid points are the case w = alpha,
    W = k, which needs no coordinates and no linear solve.
    """
    powers = [[a ** e for e in range(degree + 1)] for a in weights]
    total = 0
    for beta, num, weight in zip(enumerate_indices(degree, dimension), nums,
                                 multinomials(degree, dimension)):
        if num:
            term = num * weight
            for row, b in zip(powers, beta):
                term *= row[b]
            total += term
    return total


def _second_difference_ints(patch: BernsteinPatch) -> Tuple[tuple, List[int]]:
    """The keys of ``second_differences`` and its entries' numerators over
    ``patch.scale``, as integers."""
    k = patch.degree
    if k < 2:
        raise DegreeTooLow(f"second differences need degree >= 2, got {k}")
    keys, (plus_a, plus_b, minus_a, minus_b) = second_difference_moves(
        k, patch.dimension)
    fetch = patch.nums.__getitem__
    return keys, list(map(sub, map(add, map(fetch, plus_a), map(fetch, plus_b)),
                          map(add, map(fetch, minus_a), map(fetch, minus_b))))


def _second_difference_sup(patch: BernsteinPatch) -> Fraction:
    """The sup norm of ``second_differences``, and 0 below degree 2, with
    one ``Fraction`` built."""
    if patch.degree < 2:
        return Fraction(0)
    _, values = _second_difference_ints(patch)
    return Fraction(max(map(abs, values)), patch.scale)


def _homogeneous(patch: BernsteinPatch) -> List[int]:
    """The integers nums_alpha * multinomial(k; alpha), then a zero sentinel.

    Over ``patch.scale`` they are the homogeneous coefficients of ``patch``."""
    return [*map(mul, patch.nums, multinomials(patch.degree, patch.dimension)), 0]


def _elevate_homogeneous(c: List[int], degree: int, dimension: int) -> List[int]:
    """Homogeneous coefficients one degree up.

    ``c`` holds the degree-``degree`` integers followed by the zero
    sentinel, and so does the result; c'_beta sums c_{beta - e_i} over the
    i with beta_i > 0, the sentinel standing in where beta_i = 0.  A vertex
    entry keeps its value, c'_{(k+1) e_i} = c_{k e_i}.  The i = 0 term is
    c_beta itself, zero on the new top grade.  For n = 1 that is one Pascal
    row, c'_j = c_{j-1} + c_j, read off ``c`` without a table.
    """
    if dimension == 1:
        return [c[0], *map(add, c, c[1:]), 0]
    sources = elevation_sums(degree, dimension)
    fetch = c.__getitem__
    summed = c[:-1] + [0] * (len(sources[0]) + 1 - len(c))
    for column in sources:
        summed = map(add, summed, map(fetch, column))
    return [*summed, 0]


def _triangle(nums: Sequence[int], levels) -> List[int]:
    """The de Casteljau triangle of an ``indexing.split_table``'s levels:
    ``nums`` followed by every level of pairwise sums, one gather per
    level."""
    triangle = list(nums)
    fetch = triangle.__getitem__
    for firsts, seconds in levels:
        triangle.extend(map(add, map(fetch, firsts), map(fetch, seconds)))
    return triangle


def _triangle_size(degree: int, dimension: int) -> int:
    """The entries of ``_triangle`` on the levels of a degree-``degree``
    ``split_table`` over a ``dimension``-simplex, C(k + n + 1, n + 1): a
    line of m + 1 coefficients along the edge adds C(m + 2, 2) entries."""
    return comb(degree + dimension + 1, dimension + 1)


def split_nums(nums: Sequence[int], table) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Midpoint de Casteljau on integer numerators through an
    ``indexing.split_table``: the two children's numerators, over 2^k times
    the parent's scale.

    The de Casteljau rows are pairwise sums instead of midpoints: level s
    carries a factor 2^s, which a left shift by k - s lifts to the common
    factor 2^k.  Both children are gathered from one ``_triangle``.
    """
    levels, (left, left_shifts), (right, right_shifts) = table
    fetch = _triangle(nums, levels).__getitem__
    return (tuple(map(lshift, map(fetch, left), left_shifts)),
            tuple(map(lshift, map(fetch, right), right_shifts)))


def to_bernstein_standard(poly: PowerPoly, degree: int) -> BernsteinPatch:
    """Bernstein coefficients of poly at the given degree over the standard
    simplex: ``to_bernstein`` on ``standard_simplex(poly.dimension)``.
    Unexported; kept for ``bench/tracing.py`` until ROADMAP item 16, and as
    a test oracle."""
    return to_bernstein(poly, degree, standard_simplex(poly.dimension))


def to_bernstein(poly: PowerPoly, degree: int, simplex: Simplex) -> BernsteinPatch:
    """Bernstein patch of poly at the given degree over a simplex, exactly.

    One integer kernel.  The pullback to standard-simplex coordinates t is
    ``powerpoly._pullback`` on the simplex's rows, the origin v_0 and the
    directions v_i - v_0 over ``simplex.denom``: Horner on integer linear
    forms, with no ``Fraction`` and no intermediate ``PowerPoly``.  Its
    terms A_beta over a scale S give a_beta = A_beta / S, and over the
    standard simplex b_alpha = sum over beta <= alpha_hat of C(alpha_hat,
    beta) / C(degree, beta) * a_beta.

    With 1 / C(degree, beta) = beta! (degree - |beta|)! / degree! the sum is
    a binomial transform, one axis at a time, of the integers
    A_beta * beta! * (degree - |beta|)!, scattered into the grid through
    ``indexing.conversion_table``; b_alpha is the result over S * degree!.
    Along each axis the transform g(x) = sum_b C(x, b) f(b) is the first
    entry of the x-th level of the de Casteljau triangle of the edge
    (0, axis): the grid becomes the unshifted entries that ``split_nums``
    gathers for the child keeping v_0.  One gcd reduces the result, so the
    numerators and scale are canonical.

    A degree whose triangle has more than ``MAX_TRIANGLE`` entries raises
    ``InvalidArgument`` before the grid is allocated.
    """
    n = simplex.dimension
    if poly.dimension != n:
        raise DimensionMismatch(
            f"polynomial has {poly.dimension} variables, simplex has {n}"
        )
    if degree < poly.degree:
        raise DegreeTooLow(
            f"Bernstein degree {degree} below polynomial degree {poly.degree}"
        )
    if (size := _triangle_size(degree, n)) > MAX_TRIANGLE:
        raise InvalidArgument(
            f"Bernstein degree {degree} over a {n}-simplex needs a conversion triangle"
            f" of {size} entries, more than {MAX_TRIANGLE}"
        )
    width, table = conversion_table(degree, n)
    v0 = simplex.ints[0]
    packed, scale = _pullback(poly, v0, [[a - b for a, b in zip(vi, v0)]
                                         for vi in simplex.ints[1:]], simplex.denom, width)
    scale *= factorial(degree)
    grid = [0] * len(table)
    for key, c in packed.items():
        p, factor = table[key]
        grid[p] = c * factor
    for axis in range(1, n + 1):
        levels, (left, _), _ = split_table(degree, n, 0, axis)
        grid = [*map(_triangle(grid, levels).__getitem__, left)]
    common = gcd(scale, *grid)
    return BernsteinPatch._from_ints(simplex, degree,
                                     tuple([v // common for v in grid]),
                                     scale // common)
