"""Branch-and-bound minimization of a rational function over a simplex.

Every node carries the rational Bernstein coefficients of the function over
its subsimplex at the function's own degree (the degree never changes
during minimization), as a ``ratpatch.Piece``: the numerator and
denominator integer lists, and a bisection path whose vertex rows are
formed only for a witness or a tie.
The minimum coefficient of a node is a certified lower bound for the
function there; evaluating the function at the minimizing grid point or at a
vertex yields a true function value and hence an upper bound.  A node's
lower bound is read first: when it already reaches the incumbent upper
bound, no value on the node can lower the incumbent, so the node gets no
grid or vertex value (``_upper_bound`` runs only below it).  The bounds are
read from the lists by one rule each: ``ratpatch._min_position`` for the
lower bound, ``_upper_bound`` (grid value and vertex values) for the upper
bound and its point; ``local_bounds`` runs the same rules on a
``RationalPatch`` (not exported: ``minimize`` does not call it, and it
stays for ``bench/tracing.py`` until ROADMAP item 16, and as a test
oracle).
Bounds stay unreduced integer pairs a / b, b > 0, and compare by
cross-multiplying, with the incumbent too: a ``Fraction`` is built only for
a new incumbent and for the bracket a run returns.  Subdividing shrinks
the gap between the two; the bounds sandwich the true minimum at all times,
and an a-priori round count (``ratpatch.apriori_steps``) suffices for any
requested gap.  The minimizer imports nothing from the certifier.

The strategies are keys and stop rules of one loop, ``ratpatch.subdivide``,
whose every step splits one leaf.  ``uniform`` keys a leaf by its depth, so
the leaves split level by level; it settles once per level, when the level's
first piece heads the frontier, on the level's smallest lower bound.
``best-first`` keys a leaf by its lower bound (``_Key``), which reads the
leaf's vertices only to break a tie, the order of (lower bound, simplex);
it drops leaves that cannot beat the incumbent, parks those at the depth
budget, and stops on the least of the incumbent, the frontier's head and
the parked bounds.  Only the root is a ``RationalPatch``; no piece below it
becomes a ``Simplex`` or a patch, and a witness is read from its replayed
rows.  Neither keeps a per-step record: a piece lives until it is dropped,
parked (only the least parked bound and their count are kept) or split.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Tuple

from .errors import BudgetExhausted, InvalidArgument, NonPositiveEpsilon
from .geometry import Point, Simplex, _grid_point
from .indexing import enumerate_indices, vertex_positions
from .polypatch import _grid_sum
from .powerpoly import PowerPoly
from .ratpatch import (
    Piece,
    RationalPatch,
    _min_position,
    _split_round,
    apriori_steps,
    convergence_constants,
    rational_patch,
    subdivide,
)
from .rationals import Rational, float_str, format_rational, parse_rational


class MinimizationResult(NamedTuple):
    """Certified bracket around the minimum of a rational function.

    It holds the final bracket only.  The bracket a run reaches within a
    budget is that budget's result: the partial result of
    ``BudgetExhausted``, or the converged one."""

    lower: Fraction
    upper: Fraction
    argmin_candidate: Point
    epsilon: Fraction
    steps: int
    leaves: int
    converged: bool
    apriori_rounds: Optional[int] = None

    @property
    def gap(self) -> Fraction:
        return self.upper - self.lower

    def to_json(self) -> dict:
        return {
            "lower": format_rational(self.lower),
            "lower_float": float_str(self.lower),
            "upper": format_rational(self.upper),
            "upper_float": float_str(self.upper),
            "witness": [format_rational(c) for c in self.argmin_candidate],
            "epsilon": format_rational(self.epsilon),
            "gap": format_rational(self.gap),
            "gap_float": float_str(self.gap),
            "rounds": self.steps,
            "leaves": self.leaves,
            "converged": self.converged,
            "apriori_rounds": self.apriori_rounds,
        }


def local_bounds(f: RationalPatch) -> Tuple[Fraction, Fraction, Point]:
    """Lower bound, upper bound, and the point attaining the upper bound.

    The lower bound is the minimum ratio.  The upper bound is the smallest of
    the function's value at the grid point of the minimizing index (taken
    from its barycentric coordinates alpha / k) and the vertex ratios (all
    true function values).  Ties break in canonical index
    order, so results are deterministic.  Unexported; kept for
    ``bench/tracing.py`` until ROADMAP item 16, and as a test oracle.
    """
    position = _min_position(f.num.nums, f.den.nums)
    return (f.ratio(position), *_upper_bound(
        Piece.of((f.num, f.den)), f.degree, (f.num.scale, f.den.scale), position))


def _upper_bound(piece: Piece, k: int, scales: Tuple[int, int], position: int,
                 below: Optional[Tuple[int, int]] = None) -> Optional[Tuple[Fraction, Point]]:
    """The upper bound of ``local_bounds`` and its point, for a degree-k
    piece whose numerator and denominator lists are over ``scales`` times a
    common factor, ``position`` being the first position of its smallest
    ratio; None when it does not lie below the fraction ``below`` = (a, b),
    b > 0, if given.  The grid value is the ratio of both lists'
    ``polypatch._grid_sum`` at that position's index alpha, the integer
    barycentric weights of its grid point: each sum is over its list's
    scale times k^k times the common factor, and those last two cancel.
    The candidates compare as integer pairs by cross-multiplying, so only
    the result becomes a ``Fraction``, and its point is read from the
    piece's rows."""
    n = len(piece.root[0]) - 1
    nums, dens = piece.lists
    s, t = scales
    a = b = vertex = None
    if k >= 1:
        argmin = enumerate_indices(k, n)[position]
        a, b = _grid_sum(nums, k, n, argmin) * t, _grid_sum(dens, k, n, argmin) * s
    for i, p in enumerate(vertex_positions(k, n)):
        c, d = nums[p] * t, dens[p] * s
        if a is None or c * b < a * d:
            a, b, vertex = c, d, i
    if below is not None and a * below[1] >= below[0] * b:
        return None
    if vertex is None:
        return Fraction(a, b), _grid_point(argmin, k, piece.rows, piece.denom)
    return Fraction(a, b), piece.vertex(vertex)


def _least(*pairs) -> Optional[Tuple[int, int]]:
    """The first least of fractions a / b, b > 0, given as (a, b) pairs,
    by cross-multiplying; None stands for no fraction."""
    least = None
    for pair in pairs:
        if pair is not None and (least is None or pair[0] * least[1] < least[0] * pair[1]):
            least = pair
    return least


class _Key:
    """A best-first key: the lower bound a / b (b > 0, unreduced) of
    ``piece``.  Keys order by cross-multiplying, and tied bounds by the
    pieces' ``signature``, built only then: the order of the (bound,
    signature) tuple."""

    __slots__ = ("a", "b", "piece")

    def __init__(self, a: int, b: int, piece: Piece):
        self.a, self.b, self.piece = a, b, piece

    def __lt__(self, other: "_Key") -> bool:
        left, right = self.a * other.b, other.a * self.b
        if left != right:
            return left < right
        return self.piece.signature() < other.piece.signature()


def minimize(
    pnum: PowerPoly,
    pden: PowerPoly,
    simplex: Simplex,
    epsilon: Rational,
    budget: Optional[int] = None,
    mode: str = "best-first",
) -> MinimizationResult:
    """Bracket the minimum of pnum/pden over a simplex within epsilon.

    ``uniform`` splits every leaf each round; ``best-first`` splits the leaf
    with the smallest lower bound (see the module docstring).  Both stop as
    soon as the bracket is narrower than epsilon.  ``budget``, if given, is a
    nonnegative cap on rounds (node depth for best-first); reaching it first
    raises BudgetExhausted carrying the partial result.  Ties in the
    best-first queue break on the lexicographically smallest simplex.
    """
    epsilon = parse_rational(epsilon)
    if epsilon <= 0:
        raise NonPositiveEpsilon(f"epsilon must be positive, got {epsilon}")
    if mode not in ("best-first", "uniform"):
        raise InvalidArgument(f"unknown mode: {mode!r}")
    if budget is not None and budget < 0:
        raise InvalidArgument(f"budget must be nonnegative, got {budget}")
    root = rational_patch(pnum, pden, simplex)
    planned = apriori_steps(convergence_constants(root), epsilon)
    k, scales = root.degree, (root.num.scale, root.den.scale)
    s, t = scales
    en, ed = epsilon.numerator, epsilon.denominator
    # The incumbent upper bound delta = dn / dd and its witness; bounds
    # compare with it as integers.
    delta = witness = dn = dd = None
    lowest = {}  # uniform: the smallest (a, b) lower bound at each depth not yet settled
    parked = None  # best-first: the smallest (a, b) bound of the leaves held at the budget depth
    held = 0  # best-first: how many leaves are held there
    deepest = 0  # best-first: the depth of the deepest split piece

    def bounds(piece):
        # The lower bound a / b first: at a / b >= delta every value on the
        # piece is at least delta, so its upper bound could not lower delta.
        nonlocal delta, witness, dn, dd
        nums, dens = piece.lists
        position = _min_position(nums, dens)
        a, b = nums[position] * t, dens[position] * s
        if delta is None or a * dd < dn * b:
            found = _upper_bound(piece, k, scales, position,
                                 None if delta is None else (dn, dd))
            if found is not None:
                delta, witness = found
                dn, dd = delta.numerator, delta.denominator
        return a, b

    def settle(lower, steps, leaves, exhausted):
        # Converged when delta - a / b < epsilon, on integers.
        a, b = lower
        converged = (dn * b - a * dd) * ed < en * dd * b
        if not (converged or exhausted):
            return None
        result = MinimizationResult(Fraction(a, b), delta, witness, epsilon, steps, leaves,
                                    converged, planned)
        if converged:
            return result
        raise BudgetExhausted(f"gap {float_str(delta - result.lower)} at budget {budget}",
                              partial=result)

    def visit_uniform(piece, depth):
        lowest[depth] = _least(lowest.get(depth), bounds(piece))
        return depth

    def stop_uniform(head, size):
        rounds = head[1]
        if rounds not in lowest:
            return None
        return settle(lowest.pop(rounds), rounds, size,
                      budget is not None and rounds >= budget)

    def visit_best(piece, depth):
        a, b = bounds(piece)  # drop a piece that cannot beat the incumbent; keep the root
        return None if depth and a * dd >= dn * b else _Key(a, b, piece)

    def split_best(piece, depth, key):
        nonlocal deepest, parked, held
        if key.a * dd >= dn * key.b:
            return ()
        if budget is not None and depth >= budget:
            parked, held = _least(parked, (key.a, key.b)), held + 1
            return ()
        deepest = max(deepest, depth + 1)
        return _split_round(piece, k)

    def stop_best(head, size):
        lower = _least((dn, dd), head and (head[0].a, head[0].b), parked)
        return settle(lower, deepest, size + held, head is None)

    top = Piece.of((root.num, root.den))
    if mode == "uniform":
        return subdivide(top, lambda piece, depth, key: _split_round(piece, k),
                         visit_uniform, stop_uniform)
    return subdivide(top, split_best, visit_best, stop_best)

