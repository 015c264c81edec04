"""Rational Bernstein form: coefficient ratios, range enclosure, sharpness,
split rounds (all run by one integer driver, ``_refine_ints``, on plain
``Piece`` records), the subdivision loop over them, which pops one piece per
step, and the convergence constants driving degree and subdivision bounds.

A rational patch pairs numerator and denominator coefficient patches of the
same degree over the same simplex.  All denominator coefficients must be
strictly positive; that is the standing assumption of the method, and its
failure is reported as such rather than as a claim about the function's sign.

Both patches hold integer numerators over a positive shared scale each (see
``polypatch``), so a ratio's sign is its numerator coefficient's sign and
two ratios compare by cross-multiplying their numerators.  The leaf tests
read only that: the certificate predicate and the refuting-vertex search
read signs, ``_min_position`` finds the smallest ratio, and a ``Fraction``
is built only for a value that is returned (``ratio``).  Patch methods and
pieces share each rule.  The enclosure is the ratios at the first smallest
and first largest positions (``_min_position`` on the numerators and on
their negations), and sharpness compares the vertex ratios with those two
by cross-multiplying: two ``Fraction`` values, none per coefficient.  Each
side's position is cached on its own, so the sharpness certificate, which
reads the smallest ratio alone, never finds the largest.  JSON
prints each ratio from its integer pair (``_ratio_pairs``); the full
per-index ``ratios`` tuple is a view built on first use.  The convergence
constants read the same integers, zeta through ``_min_position`` on the
negated magnitudes, and the second differences' integer maxima: each
constant is one ``Fraction`` built from integers.

Subdivision runs below one checked root.  Its pieces are ``Piece`` records:
the root they all share (its integer vertex rows, their denominator, the
degree and the root patches' scales), a bisection path from it, one integer
list per patch and the squared edge lengths, which a run measures once, at
the root, and carries on integers by the median rule; no ``Simplex``, no
patch object, and no vertex rows until something reads them, when the path
replays.  A bisection child of a simplex is a simplex (the identity in
``_refine_ints``), and a de Casteljau child's coefficients are
positive-weight means of its parent's, so a denominator that is positive at
the root stays positive on every piece.  So the root's rank check and
denominator check cover every piece, and neither runs again.  The local
certificate, which reads numerator signs only, splits the numerator alone,
and stops cutting any piece of a split once it certifies: that piece
stands for the leaves below it (``Piece.weight``), which all certify too,
and their count is memoised on edge lengths, not walked leaf by leaf.
``RationalPatch.split_round`` turns one round's pieces back into checked
patches, for callers that want objects.

The a-priori rules (D1, D2, the degrees above them, the local depth and
``minimize``'s round count) read only the constants, or the numerator's
patch, and a ``ClaimedMinimum``, so certifier and minimizer share them here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from heapq import heappop, heappush
from itertools import count
from math import floor
from typing import Callable, List, NamedTuple, Optional, Tuple

from .errors import (
    DegenerateSimplex,
    DegreeMismatch,
    DegreeTooLow,
    DenominatorNotPositive,
    DimensionMismatch,
    NonPositiveClaim,
    NonPositiveEpsilon,
    SimplexMismatch,
)
from .geometry import (
    Point,
    Simplex,
    _bisect_rows,
    _bisection_slots,
    _checked_simplex,
    _edge_lengths,
    _edge_pairs,
    _longest,
    _point,
    round_length,
)
from .indexing import enumerate_indices, split_table, vertex_positions
from .polypatch import BernsteinPatch, _second_difference_ints, split_nums, to_bernstein
from .powerpoly import PowerPoly
from .rationals import Interval, Rational, _format_ratio, parse_rational


class Sharpness(NamedTuple):
    """Whether the enclosure endpoints are attained, with vertex witnesses."""

    min_sharp: bool
    max_sharp: bool
    min_vertex: Optional[int]
    max_vertex: Optional[int]


class RationalPatch:
    """Paired numerator/denominator patches; ``ratios`` is built on demand.

    Read-only: setting or deleting an attribute raises ``AttributeError``.
    It compares and hashes by (num, den).  It has no ``__slots__``, because
    its cached views live in the instance ``__dict__``."""

    def __init__(self, num: BernsteinPatch, den: BernsteinPatch):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        self.__post_init__()

    def __setattr__(self, name, value):
        raise AttributeError(f"RationalPatch is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"RationalPatch is immutable; cannot delete {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.num, self.den) == (other.num, other.den)

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RationalPatch(num={self.num!r}, den={self.den!r})"

    def __post_init__(self):
        """The checks of a new patch: one simplex, one degree and a
        denominator whose every coefficient is positive."""
        if self.num.simplex != self.den.simplex:
            raise SimplexMismatch("numerator and denominator live on different simplices")
        if self.num.degree != self.den.degree:
            raise DegreeMismatch(
                f"numerator degree {self.num.degree} != denominator degree "
                f"{self.den.degree}; elevate the lower-degree patch first"
            )
        if min(self.den.nums) <= 0:
            offenders = [alpha for alpha, c in zip(
                enumerate_indices(self.degree, self.dimension), self.den.nums) if c <= 0]
            raise DenominatorNotPositive(
                f"denominator patch has non-positive coefficients at {offenders}",
                indices=offenders,
            )

    @cached_property
    def ratios(self) -> Tuple[Fraction, ...]:
        """Per-index ratios num/den, exactly, in canonical index order."""
        return tuple([Fraction(a, b) for a, b in self._ratio_pairs()])

    def _ratio_pairs(self) -> List[Tuple[int, int]]:
        """Per-index ratios as unreduced integer pairs (a, b), b > 0, in
        canonical index order: what an output prints, with no ``Fraction``."""
        t, s = self.den.scale, self.num.scale
        return [(a * t, b * s) for a, b in zip(self.num.nums, self.den.nums)]

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
        return Fraction(self.num.nums[p] * self.den.scale, self.den.nums[p] * self.num.scale)

    @cached_property
    def _min_pos(self) -> int:
        """The first position of the smallest ratio, found by
        cross-multiplying."""
        return _min_position(self.num.nums, self.den.nums)

    @cached_property
    def _max_pos(self) -> int:
        """The first position of the largest ratio: the largest of a / b is
        the smallest of -a / b."""
        return _min_position([-a for a in self.num.nums], self.den.nums)

    def _vertex_at(self, p: int) -> Optional[int]:
        """The first vertex whose ratio equals the ratio at position p, or
        None.  The ratios are equal when their numerators cross-multiply
        equal (both numerators are over one scale)."""
        nums, dens = self.num.nums, self.den.nums
        return next((i for i, v in enumerate(vertex_positions(self.degree, self.dimension))
                     if nums[v] * dens[p] == nums[p] * dens[v]), None)

    def enclosure(self) -> Interval:
        """[min ratio, max ratio]; contains the function's range over |V|.
        Two ``Fraction`` values, read at ``_min_pos`` and ``_max_pos``."""
        return Interval(self.ratio(self._min_pos), self.ratio(self._max_pos))

    def elevate(self) -> "RationalPatch":
        """Elevate both patches one degree; the enclosure nests inside."""
        return RationalPatch(self.num.elevate(), self.den.elevate())

    def sharpness(self) -> Sharpness:
        """An endpoint is exact iff it is attained at some vertex index; the
        witness is the first such vertex (``_vertex_at``)."""
        min_vertex, max_vertex = self._vertex_at(self._min_pos), self._vertex_at(self._max_pos)
        return Sharpness(min_vertex is not None, max_vertex is not None,
                         min_vertex, max_vertex)

    def split_edge(self, i: int, j: int) -> Tuple["RationalPatch", "RationalPatch"]:
        """Both patches split at the midpoint of edge (i, j), each bisecting
        its own simplex."""
        num_i, num_j = self.num.split_edge(i, j)
        den_i, den_j = self.den.split_edge(i, j)
        return RationalPatch(num_i, den_i), RationalPatch(num_j, den_j)

    def split_round(self) -> List["RationalPatch"]:
        """One shrink round of longest-edge bisection: ``_split_round`` on
        the numerator and denominator together, each leaf turned back into a
        checked ``RationalPatch``.  Every returned child has diameter at
        most half the parent's.  It equals repeated ``split_edge`` on the
        longest edge, with the same leaves, order and integers."""
        return [RationalPatch(*piece.patches())
                for piece in _split_round(Piece.of((self.num, self.den)))]

    def to_json(self) -> dict:
        return {
            "num": self.num.to_json(),
            "den": self.den.to_json(),
            "ratios": [_format_ratio(a, b) for a, b in self._ratio_pairs()],
        }


class Piece:
    """One piece of a subdivision, as plain data.

    ``root`` is the run's root, one tuple every piece of the run shares:
    (integer vertex rows, denom, degree k, scales), the scales being the
    root patches' own, one per subdivided patch.  ``path`` is the ``cuts``
    bisections that lead from the root to the piece, as one integer with a
    digit base 2E (E = n(n+1)/2 edges) per bisection, the first one most
    significant: the digit 2e + side names the edge of slot e in
    ``geometry._edge_pairs`` order and the child that keeps v_i (side 0) or
    v_j (side 1).  ``lists`` are one integer numerator list per subdivided
    patch, and ``lengths`` the squared edge lengths over
    (root denom << cuts)**2 in ``_edge_pairs`` order: measured at a root
    (``of``), carried by ``_refine_ints`` to every other piece.  Every list
    has the root's degree k, and list l is over scale l shifted left by
    k * cuts (``patches``).  The constructor checks nothing: below a
    checked root every piece is a simplex (see ``_refine_ints``).

    ``weight`` is the number of leaves the piece stands for: 1, unless
    ``_refine_ints`` settled it inside a split, when it counts the leaves
    the rest of the refinement would have cut from it.

    A run reads the lists and lengths alone.  ``rows`` and ``denom``, the
    reduced vertex rows, replay the path through ``geometry._bisect_rows``
    on first use and are kept; ``vertex``, ``signature`` and ``patches``
    (checked objects, for a caller that wants them) read them.
    """

    __slots__ = ("root", "path", "lists", "cuts", "lengths", "weight", "_rows",
                 "__weakref__")

    def __init__(self, root, path: int, lists, cuts: int, lengths, weight: int = 1):
        self.root = root
        self.path = path
        self.lists = lists
        self.cuts = cuts
        self.lengths = lengths
        self.weight = weight
        self._rows = None

    @classmethod
    def of(cls, patches: Tuple[BernsteinPatch, ...]) -> "Piece":
        """The root piece of patches of one degree over one (checked)
        simplex."""
        simplex, k = patches[0].simplex, patches[0].degree
        root = simplex.ints, simplex.denom, k, tuple(p.scale for p in patches)
        return cls(root, 0, tuple(p.nums for p in patches), 0, _edge_lengths(simplex.ints))

    def _replayed(self):
        """(rows, denom): the path's bisections of the root, replayed once."""
        if self._rows is None:
            rows, denom, _, _ = self.root
            pairs = _edge_pairs(len(rows) - 1)
            digits, path, size = [], self.path, 2 * len(pairs)
            for _ in range(self.cuts):
                path, digit = divmod(path, size)
                digits.append(digit)
            for digit in reversed(digits):
                children = _bisect_rows(rows, denom, *pairs[digit >> 1])
                rows, denom = children[digit & 1], children[2]
            self._rows = rows, denom
        return self._rows

    @property
    def rows(self):
        return self._replayed()[0]

    @property
    def denom(self) -> int:
        return self._replayed()[1]

    def vertex(self, i: int) -> Point:
        return _point(self.rows[i], self.denom)

    def signature(self) -> Tuple[Point, ...]:
        """The piece's vertices as ``Fraction`` tuples, read from its rows:
        the deterministic tie key of best-first ``minimize``, equal to its
        simplex's ``vertices``."""
        rows, denom = self._replayed()
        return tuple([_point(row, denom) for row in rows])

    def patches(self) -> Tuple[BernsteinPatch, ...]:
        """The piece's lists as patches over its simplex, rank-checked like
        every ``Simplex``: the one place that shifts a root scale by the
        piece's cuts."""
        simplex = _checked_simplex(*self._replayed())
        _, _, k, scales = self.root
        return tuple(BernsteinPatch._from_ints(simplex, k, nums, scale << k * self.cuts)
                     for nums, scale in zip(self.lists, scales))


def _refine_ints(piece: Piece, threshold: Tuple[int, int],
                 settled: Optional[Callable[[tuple], bool]] = None) -> List[Piece]:
    """The integer subdivision driver: at least one shrink round of
    ``piece``, then more on every piece whose squared diameter still exceeds
    the fraction ``threshold`` = (numerator, denominator), splitting each of
    its lists along at the degree k its root holds.  Returns the leaves as
    ``Piece`` records, which share the piece's ``root``.

    A round applies n(n+1)/2 levels of longest-edge bisection, then keeps
    bisecting any piece whose squared diameter still exceeds a quarter of
    the round root's (a safety net; not observed for the tested
    dimensions).  A piece that is still too wide after 4 times the levels
    plus 4 such extra halvings raises ``DegenerateSimplex``.  A child's
    lists come from ``polypatch.split_nums`` (the rule ``split_edge`` uses),
    once per list; its vertex rows are not formed, only its path and its
    edge lengths.  The longest edge is ``geometry._longest``, the first
    maximum.  Bisecting edge (i, j) at its midpoint m doubles the lengths'
    denominator, so every length the children copy from their parent
    shifts left by 2, and the n edges at m follow from the parent's lengths
    by the median (Apollonius) rule, in the slots
    ``geometry._bisection_slots`` gives:

        4 |v_i - m|**2 = |v_i - v_j|**2,
        4 |m - v_l|**2 = 2 |v_i - v_l|**2 + 2 |v_j - v_l|**2 - |v_i - v_j|**2,

    so over the doubled denominator the half edge is the parent's integer
    c = |v_i - v_j|**2 and each m - v_l is 2a + 2b - c, from the parent's
    a = |v_i - v_l|**2 and b = |v_j - v_l|**2, exactly.  The driver never
    changes ``piece``, and each leaf keeps the list it carried.  Pieces are
    split left child first, so the leaves come in the order of replacing
    each piece by its children in place.

    ``settled(lists)``, when given, names pieces whose leaves need no
    lists; it must hold on every piece cut from one it holds on.  Each
    piece cut from ``piece``, round starts included (at n = 1 every cut
    starts one), on which it holds is returned as it is, in the place of
    its first leaf, and not split.
    Its ``weight`` counts the leaves the rest of its refinement would have
    made.  That count reads edge lengths alone, with no lists and no path:
    the leaves below an entry depend only on its lengths, cuts, round depth
    and round target, so it is memoised on them within the call, and a
    shape that recurs at one level is counted once.  Every other leaf has
    weight 1, so the weights sum to the number of leaves of the run without
    ``settled``.

    No piece is rank-checked, because bisection keeps a simplex a simplex.
    Write E_i for the matrix of edge vectors v_l - v_i (l != i) of a
    simplex; |det E_i| is n! times its volume, the same for every i.  The
    child that keeps v_i has v_j replaced by the midpoint m, so among its
    edge vectors from v_i only v_j - v_i changes, to m - v_i =
    (v_j - v_i)/2: one row of E_i is halved, and |det| halves exactly.  The
    child that keeps v_j is the same with i and j swapped.  So a piece cut
    c times from a root has |det| = |det(root)| / 2^c, which is nonzero
    when the root's is: the root's rank check covers every piece.
    """
    root = piece.root
    n, k = len(root[0]) - 1, root[2]
    levels = round_length(n)
    budget = 5 * levels + 4  # the levels, then 4 * levels + 4 halvings
    bisections = _bisection_slots(n)
    size = 2 * len(piece.lengths)
    counts = {}  # (lengths, cuts, depth, target) of a cut entry -> its leaves

    def cut(lengths, cuts, depth, target):
        # None for a leaf; else the slot of the edge to cut, the children's
        # depth and round target, and their lengths over the doubled
        # denominator, by the median rule.
        denom = root[1] << cuts
        c, e = _longest(lengths)
        if depth >= levels and not _wider(c, denom, target):
            if not _wider(c, denom, threshold):
                return None
            target, depth = _quarter(c, denom), 0
        elif depth == budget:
            raise DegenerateSimplex("edge bisection failed to halve the diameter")
        _, _, slots_i, slots_j = bisections[e]
        lengths_i = [d << 2 for d in lengths]
        lengths_j = lengths_i[:]
        half = lengths_i[e] = lengths_j[e] = lengths[e]
        for s, t in zip(slots_i, slots_j):
            lengths_i[s] = lengths_j[t] = 2 * (lengths[s] + lengths[t]) - half
        return e, depth + 1, target, lengths_i, lengths_j

    def weight(step, cuts):
        # The leaves below both children of an entry with ``cuts`` cuts,
        # ``step`` being its cut; a child that is cut again is counted once
        # per key.
        _, depth, target, lengths_i, lengths_j = step
        total = 0
        for half in (lengths_i, lengths_j):
            below = cut(half, cuts + 1, depth, target)
            if below is None:
                total += 1
                continue
            key = (tuple(half), cuts + 1, depth, target)
            if key not in counts:
                counts[key] = weight(below, cuts + 1)
            total += counts[key]
        return total

    # (path, lists, squared edge lengths over (root denom << cuts)**2, cuts,
    # cuts in the round, the round's target squared diameter); the piece
    # opens the first round.
    stack = [(piece.path, piece.lists, piece.lengths, piece.cuts, 0,
              _quarter(max(piece.lengths), root[1] << piece.cuts))]
    leaves = []
    while stack:
        path, lists, lengths, cuts, depth, target = stack.pop()
        step = cut(lengths, cuts, depth, target)
        if step is None:
            leaves.append(Piece(root, path, lists, cuts, lengths))
        elif cuts > piece.cuts and settled is not None and settled(lists):
            leaves.append(Piece(root, path, lists, cuts, lengths, weight(step, cuts)))
        else:
            e, depth, target, lengths_i, lengths_j = step
            i, j, _, _ = bisections[e]
            table = split_table(k, n, i, j)
            lists_i, lists_j = zip(*[split_nums(nums, table) for nums in lists])
            path, cuts = path * size + 2 * e, cuts + 1
            stack.append((path + 1, lists_j, lengths_j, cuts, depth, target))
            stack.append((path, lists_i, lengths_i, cuts, depth, target))
    return leaves


def _split_round(piece: Piece) -> List[Piece]:
    """One shrink round of a piece: ``_refine_ints`` at a quarter of its own
    squared diameter, the rule of ``RationalPatch.split_round``."""
    return _refine_ints(piece, _quarter(max(piece.lengths), piece.root[1] << piece.cuts))


def _min_position(nums, dens) -> int:
    """First position of the smallest ratio nums[p] / dens[p], the lists
    being over positive scales and the denominators positive: a/b < c/d is
    a*d < c*b, so no ratio is built."""
    best, a, b = 0, nums[0], dens[0]
    for p in range(1, len(nums)):
        c, d = nums[p], dens[p]
        if c * b < a * d:
            best, a, b = p, c, d
    return best


def subdivide(root, split, visit, stop):
    """The subdivision loop behind ``certify_local`` and both ``minimize``
    strategies, which differ only in the four callbacks.  A piece here is a
    ``Piece`` from ``_refine_ints``: one list, the numerator's, for the
    local certificate, and two, numerator and denominator, for
    ``minimize``.

    ``visit(piece, depth)`` sees the root at depth 0 and every piece after
    it, and returns the piece's key, or None to drop it.  Between steps
    ``stop(head, size)`` returns the result, or None to go on: ``head`` is
    the (key, depth) of the piece the next step splits, or None when no
    piece is left, and ``size`` the number of pieces held; it must end the
    run when ``head`` is None.  A step takes the piece with the smallest key
    and visits, at depth + 1, the pieces of its ``split(piece, depth,
    key)``.  Tied keys come out first in, first out, so with key = depth a
    level is complete, every piece of it visited and none split, when its
    first piece is the head: uniform ``minimize`` settles each level there.
    The local certificate and uniform ``minimize`` key no piece at their
    depth budget, which would never be split, so their last level ends on
    an empty frontier.
    """
    frontier: list = []  # a heap of (key, seq, depth, piece)
    seq = count()  # keeps tied keys in insertion order

    def offer(piece, depth):
        key = visit(piece, depth)
        if key is not None:
            heappush(frontier, (key, next(seq), depth, piece))

    offer(root, 0)
    while (result := stop((frontier[0][0], frontier[0][2]) if frontier else None,
                          len(frontier))) is None:
        key, _, depth, parent = heappop(frontier)
        for piece in split(parent, depth, key):
            offer(piece, depth + 1)
    return result


def _quarter(length: int, denom: int) -> Tuple[int, int]:
    """A quarter of a squared length over denom**2, as a (numerator,
    denominator) pair."""
    return length, 4 * denom * denom


def _wider(length: int, denom: int, bound: Tuple[int, int]) -> bool:
    """Whether a squared length over denom**2 exceeds the fraction ``bound``
    = (numerator, denominator), by cross-multiplying integers."""
    return length * bound[1] > bound[0] * denom * denom


def rational_patch(
    pnum: PowerPoly,
    pden: PowerPoly,
    simplex: Simplex,
    degree: Optional[int] = None,
) -> RationalPatch:
    """Build the rational patch of pnum/pden over a simplex.

    Both polynomials are converted at the common degree (their maximum degree
    by default), so no elevation mismatch can arise; ``to_bernstein`` refuses
    a degree below either one's (``DegreeTooLow``).  When every denominator
    coefficient is negative, both patches are negated: f = (-pnum)/(-pden)
    is then in the positive-denominator form.

    A numerator of another dimension than the simplex's is named against
    the simplex (``to_bernstein``'s ``DimensionMismatch``); a denominator
    of another dimension than a fitting numerator's is named against the
    numerator, before anything is converted.
    """
    if pnum.dimension == simplex.dimension != pden.dimension:
        raise DimensionMismatch(
            f"numerator has {pnum.dimension} variables, denominator {pden.dimension}"
        )
    k = max(pnum.degree, pden.degree) if degree is None else degree
    num, den = to_bernstein(pnum, k, simplex), to_bernstein(pden, k, simplex)
    if max(den.nums) < 0:
        num, den = num.negate(), den.negate()
    return RationalPatch(num, den)


class ConvergenceConstants(NamedTuple):
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
    setting); one below the base degree raises ``DegreeTooLow``.
    """
    n = f.dimension
    base = f.degree
    working = base if degree is None else degree
    if working < base:
        raise DegreeTooLow(f"working degree {working} below base degree {base}")
    num, den = f.num, f.den
    s, t = num.scale, den.scale
    # The largest |ratio|, a / b over s / t, is the first smallest of -|a| / b.
    p = _min_position([-abs(a) for a in num.nums], den.nums)
    a, b = abs(num.nums[p]), den.nums[p]
    m = min(den.nums)
    if base < 2:
        sup_p = sup_q = 0
    else:
        sup_p, sup_q = [max(map(abs, _second_difference_ints(g)[1])) for g in (num, den)]
    # mixed = sup_p / s + zeta * sup_q / t = (sup_p * b + a * sup_q) / (b * s),
    # and 1 / min_den = t / m: each constant is one integer ratio.
    top, bottom = (sup_p * b + a * sup_q) * t, b * s * m
    zeta = Fraction(a * t, b * s)
    min_den = Fraction(m, t)
    omega = Fraction(n * (n + 2) * base * (base - 1) * top, 24 * bottom)
    omega_prime = Fraction(
        working * n * n * (n + 1) * (n + 2) ** 2 * (n + 3) * top, 576 * bottom)
    return ConvergenceConstants(
        zeta=zeta,
        omega=omega,
        omega_prime=omega_prime,
        min_den=min_den,
        base_degree=base,
        working_degree=working,
    )


class ClaimedMinimum(NamedTuple("ClaimedMinimum", [("value", Fraction)])):
    """A positive lower bound for a function, supplied or optimizer-produced.

    A one-field named tuple: read-only, compared, hashed and printed as one.
    Building it, by ``_replace`` too, parses the value and raises
    ``NonPositiveClaim`` unless it is positive."""

    __slots__ = ()

    def __new__(cls, value: Rational):
        value = parse_rational(value)
        if value <= 0:
            raise NonPositiveClaim(f"claimed minimum must be positive, got {value}")
        return super().__new__(cls, value)

    @classmethod
    def _make(cls, values) -> "ClaimedMinimum":
        return cls(*values)


def apriori_d1(constants: ConvergenceConstants, fmin: ClaimedMinimum) -> Fraction:
    """D1 = omega / fmin + 1."""
    return constants.omega / fmin.value + 1


def apriori_d2(num_patch: BernsteinPatch, pmin: ClaimedMinimum) -> Fraction:
    """D2 = l(l-1)/2 * max|b| / pmin over the numerator's own-degree patch,
    read from its integers as one ``Fraction``."""
    degree, claim = num_patch.degree, pmin.value
    peak = max(map(abs, num_patch.nums))
    return Fraction(degree * (degree - 1) * peak * claim.denominator,
                    2 * num_patch.scale * claim.numerator)


def apriori_degree_omega(constants: ConvergenceConstants, fmin: ClaimedMinimum) -> int:
    """Smallest degree strictly above D1 (and at least the function degree);
    sufficient for the global certificate when fmin truly bounds the
    function from below."""
    return max(constants.base_degree, floor(apriori_d1(constants, fmin)) + 1)


def apriori_degree_pr(num_patch: BernsteinPatch, pmin: ClaimedMinimum) -> int:
    """Dimension-independent degree bound from the numerator alone.

    Takes the numerator's own-degree patch over the standard simplex and a
    positive lower bound for the numerator; returns the smallest admissible
    degree above D2.  For degree <= 1 the bound is vacuous and the function
    degree itself suffices.
    """
    degree = num_patch.degree
    if degree <= 1:
        return degree
    return max(degree, floor(apriori_d2(num_patch, pmin)) + 1)


def apriori_depth(constants: ConvergenceConstants, fmin: ClaimedMinimum) -> int:
    """Smallest depth N with 2*omega_prime < fmin * 4^N.

    Depth N leaves pieces of diameter h <= 2^-N, so this is 2*omega_prime *
    h^2 < fmin at the widest such h, a squared form in which no irrational
    square root enters; sufficient for the local certificate at that depth.
    With 2*omega_prime / fmin = p/q in lowest terms and e = bit_length(p) -
    bit_length(q), a positive p/q lies strictly between 2^(e-1) and
    2^(e+1), so N is ceil(e/2) or one more: the search starts there and
    takes at most two exact tests.
    """
    ratio = 2 * constants.omega_prime / fmin.value
    p, q = ratio.numerator, ratio.denominator
    depth = max(0, (p.bit_length() - q.bit_length() + 1) // 2)
    while p >= q << (2 * depth):
        depth += 1
    return depth


def apriori_steps(constants: ConvergenceConstants, epsilon: Rational) -> int:
    """Smallest round count N with 2*omega_prime < epsilon * 4^N.

    Every round halves the diameter, as every depth step of the local
    certificate does, so this is ``apriori_depth`` with the gap target in
    place of the claimed minimum.
    """
    epsilon = parse_rational(epsilon)
    if epsilon <= 0:
        raise NonPositiveEpsilon(f"epsilon must be positive, got {epsilon}")
    return apriori_depth(constants, ClaimedMinimum(epsilon))
