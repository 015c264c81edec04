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
view, built on each read.

Elevation has one rule, the homogeneous sum step
(``_elevate_homogeneous``).  It runs on the homogeneous coefficients
c_alpha = b_alpha * multinomial(k; alpha) (``_homogeneous``), integers over
the patch's scale with the coefficients' signs, as c'_beta = sum over i
with beta_i > 0 of c_{beta - e_i}: no weights, no new scale, and each step
grows the largest integer by at most a factor n + 1.  This is Polya's
multiplication by x_0 + ... + x_n in homogeneous form.  The global
certificate's scan, ``_polya_scan``, takes the step on a numerator until no
entry is negative, so it stops at the first degree whose coefficients
certify, at k_max, or at the size cap below.  The step returns the
elevated list alone: a vertex entry is a function value and keeps its
value, c_{(k+1) e_i} = c_{k e_i}, so the scan's caller decides the vertex
part of the certificate once, at the root, and the step carries no vertex
positions.

Conversion from the power basis, ``to_bernstein``, runs on that same step:
integer Horner pullback from the simplex's rows, a table scatter of the
terms to their hat positions, homogeneous Horner grade by grade (Polya's
multiplication by x_0 + ... + x_n), then one tail, ``_from_homogeneous``:
elevation to the target degree k, one scaling of the final grid by
k!/base! and one gcd.  ``_elevate_to`` runs the same tail on a patch's
homogeneous coefficients, so a patch reaches a higher degree without a
second conversion; there base is the patch's degree, so a step from k to
k + 1 scales by k + 1 where conversion (base 0) scales by k!.  ``elevate``
is ``_elevate_to`` one degree up: one rule
elevates a patch everywhere, and its numerators come back reduced, equal to
the conversion's at that degree.  A constant's conversion skips both, its
patch being N copies of itself.  Conversion, ``elevate`` and scan thus
reach degree k through the same elevation table, which the cache holds
once per dimension, grown a grade at a time; their steps read
C(k + n + 1, n + 1) - 1 of its entries per slot (``_triangle_size`` counts
C(k + n + 1, n + 1)).  ``_check_degree``
refuses a degree past ``MAX_TRIANGLE`` (``InvalidArgument``) before
anything is allocated, and ``_polya_scan`` stops at the last degree the
cap admits.  This module holds the cap's one binding, so a patched
``MAX_TRIANGLE`` moves both.  The de Casteljau triangle (``_triangle``)
serves the edge split alone.  Second differences are
integer too, building a ``Fraction`` only per returned entry, and
``eval`` is one integer dot product with the point's
``indexing.weight_row``.  The constructor reads coefficients as integer
pairs, counts them against C(k + n, n) without building an index set, and
``to_json`` prints them from ``nums`` over ``scale``.
``to_bernstein_standard`` and ``SecondDifferences`` are not exported: no
library code calls them (only the traced ``second_differences`` returns
the latter), and they stay here for ``bench/tracing.py`` until ROADMAP
item 16, and as test oracles.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm, perm
from operator import add, lshift, mul, sub
from typing import List, NamedTuple, Sequence, Tuple

from .errors import DegreeTooLow, DimensionMismatch, InvalidArgument
from .geometry import Simplex, _barycentric_weights, bisect_edge, standard_simplex
from .indexing import (
    conversion_table,
    elevation_sums,
    multinomials,
    second_difference_moves,
    split_table,
    weight_row,
)
from .powerpoly import PowerPoly, _integer, _pullback
from .rationals import Interval, Rational, _format_ratio, _ratio

DiffKey = Tuple[Tuple[int, ...], int, int]

# The cap on C(k + n + 1, n + 1) at degree k over an n-simplex
# (``_triangle_size``).  Conversion and global scan alike reach degree k
# on the elevation step, whose steps from degrees 0..k - 1 read
# C(k + n + 1, n + 1) - 1 entries per slot of the dimension's one grown
# table.  It admits n = 5 at k = 33 (3,262,623) and refuses a runaway
# degree before anything is allocated.
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
        if degree < 0:
            raise ValueError(f"degree must be nonnegative, got {degree}")
        expected = comb(degree + simplex.dimension, simplex.dimension)
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
        inside the simplex or not: the numerators' dot product with the
        ``weight_row`` of the point's integer barycentric weights w, over
        scale * (sum w)^k.  The row is built for the point, uncached."""
        weights = _barycentric_weights(self.simplex, point)
        row = weight_row(self.degree, self.dimension, weights)
        return Fraction(sum(map(mul, self.nums, row)),
                        self.scale * sum(weights) ** self.degree)

    def elevate(self) -> "BernsteinPatch":
        """Same polynomial one degree higher; the enclosure never widens.

        ``_elevate_to`` one degree up: the conversion's tail, so the
        numerators and scale come back reduced, equal to converting the
        polynomial at degree k + 1, and ``_check_degree`` refuses a degree
        past ``MAX_TRIANGLE`` as conversion does.
        """
        return _elevate_to(self, self.degree + 1)

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
    c_beta itself, zero on the new top grade, whose C(k + n, n - 1) entries
    pad the list.  The other terms gather through the one grown
    ``indexing.elevation_sums`` table of the dimension, which may reach past
    degree k + 1: ``map`` stops at the length of the padded list, so a step
    reads only the prefix it needs.  For n = 1 the step is one Pascal row,
    c'_j = c_{j-1} + c_j, read off ``c`` without a table.
    """
    if dimension == 1:
        return [c[0], *map(add, c, c[1:]), 0]
    fetch = c.__getitem__
    summed = c[:-1] + [0] * comb(degree + dimension, dimension - 1)
    for column in elevation_sums(degree, dimension):
        summed = map(add, summed, map(fetch, column))
    return [*summed, 0]


def _polya_scan(patch: BernsteinPatch, k_max: int) -> Tuple[int, bool]:
    """Polya's scan of the global certificate: (degree, certified).

    From ``patch``'s degree, one ``_elevate_homogeneous`` step per degree
    until no homogeneous coefficient is negative (certified) or the degree
    reaches ``k_max`` or the last degree whose ``_triangle_size`` fits under
    ``MAX_TRIANGLE`` (not certified).  The caller checks the vertex part:
    vertex entries never change.
    """
    c = _homogeneous(patch)
    degree, n = patch.degree, patch.dimension
    while min(c) < 0:
        if degree == k_max or _triangle_size(degree + 1, n) > MAX_TRIANGLE:
            return degree, False
        c = _elevate_homogeneous(c, degree, n)
        degree += 1
    return degree, True


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
    """C(k + n + 1, n + 1) at degree k over an n-simplex, the quantity
    ``MAX_TRIANGLE`` caps: one more than the table entries per slot,
    sum_j C(j + 1 + n, n), that the elevation steps from degrees 0..k - 1
    of a conversion or scan to degree k read, and the entries of
    ``_triangle`` on a degree-k ``split_table``."""
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


def _check_degree(degree: int, low: int, dimension: int) -> None:
    """Refuse a Bernstein degree below ``low`` (``DegreeTooLow``) or one
    whose ``_triangle_size`` C(k + n + 1, n + 1), one more than the table
    entries per slot that the elevation steps to degree k read, exceeds
    ``MAX_TRIANGLE`` (``InvalidArgument``), before anything is allocated."""
    if degree < low:
        raise DegreeTooLow(f"Bernstein degree {degree} below polynomial degree {low}")
    if (size := _triangle_size(degree, dimension)) > MAX_TRIANGLE:
        raise InvalidArgument(
            f"Bernstein degree {degree} over a {dimension}-simplex needs a conversion"
            f" triangle of {size} entries, more than {MAX_TRIANGLE}"
        )


def _from_homogeneous(simplex: Simplex, h: List[int], grade: int, degree: int,
                      scale: int, base: int) -> BernsteinPatch:
    """The canonical patch at ``degree`` of the homogeneous coefficients
    ``h`` of degree ``grade`` (followed by the zero sentinel) over
    ``scale``: ``_elevate_homogeneous`` from ``grade`` to ``degree`` = k,
    then b_alpha = c_alpha * f / multinomial(k; alpha) over ``scale`` * f,
    with f = k! / base! and the multinomials read from
    ``indexing.multinomials``, and one gcd.  The division is exact because
    the coefficients were a patch at degree ``base`` over ``scale``: base 0
    for a conversion, where f = k! and c_alpha * alpha! is an integer, and
    the patch's own degree for ``_elevate_to``, where a degree-base patch
    elevated to k has C(k, base) times its coefficients integer over
    ``scale``, and C(k, base) divides k! / base!.  So a one-degree
    ``elevate`` scales by k, not k!."""
    n = simplex.dimension
    for j in range(grade, degree):
        h = _elevate_homogeneous(h, j, n)
    f = perm(degree, degree - base)
    scale *= f
    nums = [c * f // m for c, m in zip(h, multinomials(degree, n))]
    common = gcd(scale, *nums)
    return BernsteinPatch._from_ints(simplex, degree,
                                     tuple([v // common for v in nums]),
                                     scale // common)


def _elevate_to(patch: BernsteinPatch, degree: int) -> BernsteinPatch:
    """``patch`` at a degree at or above its own, through
    ``_from_homogeneous`` on its homogeneous coefficients: the canonical
    numerators and scale that converting its polynomial at ``degree``
    gives.  ``_check_degree`` runs first, with the patch's degree as the
    polynomial degree."""
    _check_degree(degree, patch.degree, patch.dimension)
    return _from_homogeneous(patch.simplex, _homogeneous(patch), patch.degree, degree,
                             patch.scale, patch.degree)


def to_bernstein(poly: PowerPoly, degree: int, simplex: Simplex) -> BernsteinPatch:
    """Bernstein patch of poly at the given degree over a simplex, exactly.

    One integer kernel on the global scan's elevation step.  The pullback to
    standard-simplex coordinates t is ``powerpoly._pullback`` on the
    simplex's rows, the origin v_0 and the directions v_i - v_0 over
    ``simplex.denom``: Horner on integer linear forms, with no ``Fraction``
    and no intermediate ``PowerPoly``.  Its terms A_beta over a scale S are
    scattered through ``indexing.conversion_table`` to the positions of
    their hats beta, which are the same at every degree.

    With x_0 = 1 - |t| and x_hat = t the grade-j slice p_j of the terms is
    homogeneous of degree j, and homogeneous Horner, h <- E(h) + p_j for
    j = 1..d (d the polynomial's degree), where E is
    ``_elevate_homogeneous`` (multiplication by x_0 + ... + x_n), gives the
    homogeneous coefficients c_alpha = b_alpha * multinomial(d; alpha) over
    S.  ``_from_homogeneous`` elevates them from d to ``degree`` by the
    same step and divides them back to canonical Bernstein numerators, as
    ``_elevate_to`` does for a patch.

    ``_check_degree`` refuses a degree below d or past ``MAX_TRIANGLE``
    before anything is allocated.  A constant (d = 0) then needs none of
    this: every numerator is its reduced integer over its scale, and the
    zero polynomial is 0 over 1.
    """
    n = simplex.dimension
    if poly.dimension != n:
        raise DimensionMismatch(
            f"polynomial has {poly.dimension} variables, simplex has {n}"
        )
    _check_degree(degree, poly.degree, n)
    if not poly.degree:
        c, scale = (poly.int_terms[0][1], poly.scale) if poly.int_terms else (0, 1)
        return BernsteinPatch._from_ints(simplex, degree, (c,) * comb(degree + n, n), scale)
    width, table = conversion_table(poly.degree, n)
    v0 = simplex.ints[0]
    packed, scale = _pullback(poly, v0, [[a - b for a, b in zip(vi, v0)]
                                         for vi in simplex.ints[1:]], simplex.denom, width)
    terms = [0] * len(table)
    for key, c in packed.items():
        terms[table[key]] = c
    h = [terms[0], 0]
    for j in range(poly.degree):
        grade = len(h) - 1
        h = _elevate_homogeneous(h, j, n)
        h[grade:-1] = map(add, h[grade:-1], terms[grade:len(h) - 1])
    return _from_homogeneous(simplex, h, poly.degree, degree, scale, 0)
