"""Rational Bernstein form: coefficient ratios, range enclosure, sharpness,
split rounds (all run by one integer driver, ``_refine_ints``, under
``RationalPatch.refine`` and the local certificate), the subdivision loop
over them, and the convergence constants driving degree and subdivision
bounds.

A rational patch pairs numerator and denominator coefficient patches of the
same degree over the same simplex.  All denominator coefficients must be
strictly positive; that is the standing assumption of the method, and its
failure is reported as such rather than as a claim about the function's sign.

Both patches hold integer numerators over a positive shared scale each (see
``polypatch``), so a ratio's sign is its numerator coefficient's sign and
two ratios compare by cross-multiplying their numerators.  The leaf tests
read only that: the certificate predicate and the refuting-vertex search
read signs, ``min_position`` finds the smallest ratio, and a ``Fraction`` is
built only for a value that is returned (``ratio``, ``vertex_ratios``).  The
full per-index ``ratios`` tuple is the output view for enclosures and JSON,
built on first use.  The convergence constants read the same integers: a
``Fraction`` per constant, none per coefficient.

A de Casteljau child's coefficients are positive-weight means of its
parent's, so a denominator that is positive at a root stays positive on
every piece split from it.  The local certificate, which reads numerator
signs only, therefore checks the denominator once at its root and splits
the numerator alone (``_refine_ints`` on that one patch).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import heappop, heappush
from itertools import count
from typing import List, NamedTuple, Optional, Tuple

from .errors import (
    DegenerateSimplex,
    DegreeMismatch,
    DegreeTooLow,
    DenominatorNotPositive,
    DimensionMismatch,
    SimplexMismatch,
)
from .geometry import (
    Simplex,
    _barycentric_weights,
    _bisect_rows,
    _checked_simplex,
    _longest,
    bisect_edge,
    diameter_sq,
    round_length,
)
from .indexing import split_table
from .polypatch import BernsteinPatch, _second_difference_sup, split_nums, to_bernstein
from .powerpoly import PowerPoly
from .rationals import Interval, format_rational


class Sharpness(NamedTuple):
    """Whether the enclosure endpoints are attained, with vertex witnesses."""

    min_sharp: bool
    max_sharp: bool
    min_vertex: Optional[int]
    max_vertex: Optional[int]


@dataclass(frozen=True)
class RationalPatch:
    """Paired numerator/denominator patches; ``ratios`` is built on demand."""

    num: BernsteinPatch
    den: BernsteinPatch

    def __post_init__(self):
        if self.num.simplex != self.den.simplex:
            raise SimplexMismatch("numerator and denominator live on different simplices")
        if self.num.degree != self.den.degree:
            raise DegreeMismatch(
                f"numerator degree {self.num.degree} != denominator degree "
                f"{self.den.degree}; elevate the lower-degree patch first"
            )
        if min(self.den.nums) <= 0:
            offenders = [
                tuple(alpha)
                for alpha, c in zip(self.den.index_set, self.den.nums)
                if c <= 0
            ]
            raise DenominatorNotPositive(
                f"denominator patch has non-positive coefficients at {offenders}",
                indices=offenders,
                simplex=self.den.simplex,
            )

    @cached_property
    def ratios(self) -> Tuple[Fraction, ...]:
        """Per-index ratios num/den, exactly, in canonical index order."""
        t, s = self.den.scale, self.num.scale
        return tuple([Fraction(a * t, b * s)
                      for a, b in zip(self.num.nums, self.den.nums)])

    @property
    def degree(self) -> int:
        return self.num.degree

    @property
    def simplex(self) -> Simplex:
        return self.num.simplex

    @property
    def dimension(self) -> int:
        return self.num.dimension

    def ratio(self, p: int) -> Fraction:
        """The ratio at position p, exactly, without building the others."""
        return Fraction(self.num.nums[p] * self.den.scale,
                        self.den.nums[p] * self.num.scale)

    def vertex_ratios(self) -> Tuple[Fraction, ...]:
        """Per-vertex ratios; these are true function values f(v_i)."""
        return tuple(map(self.ratio, self.num.index_set.vertex_positions()))

    def min_position(self) -> int:
        """First position of the smallest ratio.  Both scales are shared and
        the denominators positive, so a/b < c/d is a*d < c*b on the
        numerators: no ratio is built.  Found on first use and kept, so a
        caller that reads the lower bound before ``local_bounds`` scans
        once."""
        return self._min_position

    @cached_property
    def _min_position(self) -> int:
        nums, dens = self.num.nums, self.den.nums
        best, a, b = 0, nums[0], dens[0]
        for p in range(1, len(nums)):
            c, d = nums[p], dens[p]
            if c * b < a * d:
                best, a, b = p, c, d
        return best

    @cached_property
    def _enclosure(self) -> Interval:
        return Interval(min(self.ratios), max(self.ratios))

    def enclosure(self) -> Interval:
        """[min ratio, max ratio]; contains the function's range over |V|.
        Computed on first use, like ``ratios``."""
        return self._enclosure

    def eval(self, point) -> Fraction:
        """Exact value num(point) / den(point): ``grid_value`` at the
        point's integer barycentric weights, from one linear solve."""
        return self.grid_value(_barycentric_weights(self.simplex, point))

    def grid_value(self, weights) -> Fraction:
        """Exact value at integer barycentric weights w (coordinates w / W
        for W = sum w); the grid point of index alpha is w = alpha.  Both
        patches have degree k, so the factor W^k of both sums cancels."""
        return Fraction(self.num.grid_sum(weights) * self.den.scale,
                        self.den.grid_sum(weights) * self.num.scale)

    def elevate(self) -> "RationalPatch":
        """Elevate both patches one degree; the enclosure nests inside."""
        return RationalPatch(self.num.elevate(), self.den.elevate())

    def sharpness(self) -> Sharpness:
        """An endpoint is exact iff it is attained at some vertex index."""
        lo, hi = self.enclosure()
        vertex = self.vertex_ratios()
        min_vertex = next((i for i, r in enumerate(vertex) if r == lo), None)
        max_vertex = next((i for i, r in enumerate(vertex) if r == hi), None)
        return Sharpness(min_vertex is not None, max_vertex is not None,
                         min_vertex, max_vertex)

    def split_edge(self, i: int, j: int) -> Tuple["RationalPatch", "RationalPatch"]:
        """Both patches split at the midpoint of edge (i, j), bisecting once."""
        children = bisect_edge(self.simplex, i, j)
        num_i, num_j = self.num.split_edge(i, j, children)
        den_i, den_j = self.den.split_edge(i, j, children)
        return RationalPatch(num_i, den_i), RationalPatch(num_j, den_j)

    def split_round(self) -> List["RationalPatch"]:
        """One shrink round of longest-edge bisection: ``refine`` at a
        quarter of the patch's own squared diameter.  Every returned child
        has diameter at most half the parent's."""
        return self.refine(diameter_sq(self.simplex) / 4)

    def refine(self, threshold_sq: Fraction) -> List["RationalPatch"]:
        """At least one shrink round, then more on every piece whose squared
        diameter still exceeds ``threshold_sq``: ``_refine_ints`` on the
        numerator and denominator together, each leaf's pair checked as a
        ``RationalPatch``.  It equals repeated ``split_edge`` on the longest
        edge, with the same leaves, order and integers."""
        return [RationalPatch(num, den)
                for num, den in _refine_ints((self.num, self.den), threshold_sq)]

    def to_json(self) -> dict:
        return {
            "num": self.num.to_json(),
            "den": self.den.to_json(),
            "ratios": [format_rational(r) for r in self.ratios],
        }


def _refine_ints(patches: Tuple[BernsteinPatch, ...],
                 threshold_sq: Fraction) -> List[Tuple[BernsteinPatch, ...]]:
    """The integer subdivision driver: at least one shrink round of the
    simplex that ``patches`` share, then more on every piece whose squared
    diameter still exceeds ``threshold_sq``, splitting the numerator list of
    every patch (all of one degree k) along.  Returns, per leaf, one
    ``BernsteinPatch`` per input patch, over that patch's scale shifted left
    by k per bisection.

    A round applies n(n+1)/2 levels of longest-edge bisection, then keeps
    bisecting any piece whose squared diameter still exceeds a quarter of
    the round root's (a safety net; not observed for the tested
    dimensions).  A piece that is still too wide after 4 times the levels
    plus 4 such extra halvings raises ``DegenerateSimplex``.

    Every round runs on plain data: a piece is its integer vertex rows,
    their denominator, its numerator lists, its bisection count and its
    longest edge, measured once.  Its children come from
    ``geometry._bisect_rows`` (the rule ``bisect_edge`` uses) and
    ``polypatch.split_nums`` (the rule ``split_edge`` uses), once per list.
    Only the leaves become ``Simplex`` objects (through the rank check) and
    patches.  A bisection child lies in its parent's affine hull, so a
    singular piece would leave singular leaves, which the check rejects.
    Pieces are split left child first, so the leaves come in the order of
    replacing each piece by its children in place.
    """
    simplex, k = patches[0].simplex, patches[0].degree
    lists = tuple(patch.nums for patch in patches)
    n = simplex.dimension
    levels = round_length(n)
    budget = 5 * levels + 4  # the levels, then 4 * levels + 4 halvings
    threshold = threshold_sq.numerator, threshold_sq.denominator
    rows, denom, longest = simplex.ints, simplex.denom, simplex._longest_edge
    # (rows, denom, lists, longest edge, cuts, cuts in the round, the
    # round's target squared diameter); the root opens the first round.
    stack = [(rows, denom, lists, longest, 0, 0, _quarter(longest, denom))]
    leaves = []
    while stack:
        rows, denom, lists, longest, cuts, depth, target = stack.pop()
        if depth >= levels and not _wider(longest, denom, target):
            if not _wider(longest, denom, threshold):
                leaf = _checked_simplex(rows, denom, longest)
                leaves.append(tuple(
                    BernsteinPatch._from_ints(leaf, k, nums, patch.scale << k * cuts)
                    for nums, patch in zip(lists, patches)))
                continue
            target, depth = _quarter(longest, denom), 0
        elif depth == budget:
            raise DegenerateSimplex("edge bisection failed to halve the diameter")
        _, i, j = longest
        rows_i, rows_j, denom = _bisect_rows(rows, denom, i, j)
        table = split_table(k, n, i, j)
        lists_i, lists_j = zip(*[split_nums(nums, table) for nums in lists])
        cuts, depth = cuts + 1, depth + 1
        stack.append((rows_j, denom, lists_j, _longest(rows_j), cuts, depth, target))
        stack.append((rows_i, denom, lists_i, _longest(rows_i), cuts, depth, target))
    return leaves


def subdivide(root, split, visit, stop):
    """The subdivision loop behind ``certify_local`` and both ``minimize``
    strategies, which differ only in the four callbacks.  A patch here is
    whatever ``split`` makes: a ``RationalPatch`` for ``minimize``, a
    numerator ``BernsteinPatch`` for the local certificate.

    The frontier is a heap of (key, seq, depth, patch); seq keeps tied keys
    in insertion order.  ``visit(patch, depth)`` sees the root at depth 0 and
    every piece after it, and returns the patch's key, or None to drop it.
    Between steps ``stop(frontier)`` returns the result, or None to go on; it
    must end the run on an empty frontier.  A step pops every entry tied for
    the smallest key, then visits, at depth + 1, the pieces of each one's
    ``split(patch, depth, key)``.  With key = depth a step is one level;
    with unique keys it is one leaf.
    """
    frontier: list = []
    seq = count()

    def offer(patch, depth):
        key = visit(patch, depth)
        if key is not None:
            heappush(frontier, (key, next(seq), depth, patch))

    offer(root, 0)
    while (result := stop(frontier)) is None:
        head = frontier[0][0]
        step = [heappop(frontier)]
        while frontier and frontier[0][0] == head:
            step.append(heappop(frontier))
        for key, _, depth, patch in step:
            for piece in split(patch, depth, key):
                offer(piece, depth + 1)
    return result


def _quarter(longest, denom: int) -> Tuple[int, int]:
    """A quarter of a piece's squared diameter, ``longest[0]`` over denom**2,
    as a (numerator, denominator) pair."""
    return longest[0], 4 * denom * denom


def _wider(longest, denom: int, bound: Tuple[int, int]) -> bool:
    """Whether a piece's squared diameter, ``longest[0]`` over denom**2,
    exceeds the fraction ``bound`` = (numerator, denominator), by
    cross-multiplying integers."""
    return longest[0] * bound[1] > bound[0] * denom * denom


def rational_patch(
    pnum: PowerPoly,
    pden: PowerPoly,
    simplex: Simplex,
    degree: Optional[int] = None,
) -> RationalPatch:
    """Build the rational patch of pnum/pden over a simplex.

    Both polynomials are converted at the common degree (their maximum degree
    by default), so no elevation mismatch can arise.  When every denominator
    coefficient is negative, both patches are negated: f = (-pnum)/(-pden)
    is then in the positive-denominator form.
    """
    if pnum.dimension != pden.dimension:
        raise DimensionMismatch(
            f"numerator has {pnum.dimension} variables, denominator {pden.dimension}"
        )
    base = max(pnum.degree, pden.degree)
    if degree is not None and degree < base:
        raise DegreeTooLow(f"Bernstein degree {degree} below polynomial degree {base}")
    k = base if degree is None else degree
    num, den = to_bernstein(pnum, k, simplex), to_bernstein(pden, k, simplex)
    if max(den.nums) < 0:
        num, den = num.negate(), den.negate()
    return RationalPatch(num, den)


@dataclass(frozen=True)
class ConvergenceConstants:
    """Exact constants controlling enclosure convergence.

    zeta bounds the absolute rational coefficients at the base degree;
    omega drives the 1/(k-1) rate under degree elevation; omega_prime the
    h^2 rate under subdivision (it carries the working degree as a factor).
    min_den is the smallest denominator coefficient at the base degree over
    the standard simplex.
    """

    zeta: Fraction
    omega: Fraction
    omega_prime: Fraction
    min_den: Fraction
    base_degree: int
    working_degree: int


def convergence_constants(
    f: RationalPatch,
    degree: Optional[int] = None,
) -> ConvergenceConstants:
    """Compute zeta, omega and omega_prime from a base-degree rational patch.

    ``f`` is the patch at the function's own degree (``rational_patch``'s
    default); its coefficients are those of the affinely pulled-back
    polynomials over the standard simplex.  ``degree`` is the working degree
    entering omega_prime (defaults to the base degree, the fixed-degree
    setting).
    """
    n = f.dimension
    base = f.degree
    working = base if degree is None else degree
    num, den = f.num, f.den
    min_den = Fraction(min(den.nums), den.scale)
    # The largest |ratio|: |a|/b > |c|/d is |a|*d > |c|*b on the numerators.
    top, bottom = 0, 1
    for a, b in zip(num.nums, den.nums):
        if abs(a) * bottom > top * b:
            top, bottom = abs(a), b
    zeta = Fraction(top * den.scale, bottom * num.scale)
    mixed = _second_difference_sup(num) + zeta * _second_difference_sup(den)
    omega = Fraction(n * (n + 2) * base * (base - 1), 24) / min_den * mixed
    omega_prime = (
        working
        * Fraction(n * n * (n + 1) * (n + 2) ** 2 * (n + 3), 576)
        / min_den
        * mixed
    )
    return ConvergenceConstants(
        zeta=zeta,
        omega=omega,
        omega_prime=omega_prime,
        min_den=min_den,
        base_degree=base,
        working_degree=working,
    )
