"""Branch-and-bound minimization of a rational function over a simplex.

Every node carries the rational patch of the function over its subsimplex at
the function's own degree (the degree never changes during minimization).
The minimum coefficient of a node is a certified lower bound for the
function there; evaluating the function at the minimizing grid point or at a
vertex yields a true function value and hence an upper bound.  A node's
lower bound is read first: when it already reaches the incumbent upper
bound, no value on the node can lower the incumbent, so the node gets no
grid or vertex value (``local_bounds`` runs only below it).  Subdividing
shrinks the gap between the two; the bounds sandwich the true minimum at all
times, and an a-priori round count suffices for any requested gap.

The strategies are keys and stop rules of one loop, ``ratpatch.subdivide``.
``uniform`` keys a leaf by its depth, so a step splits a whole level, and
stops at a level boundary on the level's smallest lower bound.
``best-first`` keys a leaf by (lower bound, simplex), so a step splits one
leaf; it drops leaves that cannot beat the incumbent, parks those at the
depth budget, and stops on the least of the incumbent, the frontier's head
and the parked bounds.  Neither keeps a per-step record: a piece lives until
it is dropped, parked (its bound alone is kept) or split.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .certify import ClaimedMinimum, apriori_depth
from .errors import BudgetExhausted, InvalidArgument, NonPositiveEpsilon
from .geometry import Simplex, grid_point
from .powerpoly import PowerPoly
from .ratpatch import RationalPatch, convergence_constants, rational_patch, subdivide
from .rationals import Rational, float_str, format_rational, parse_rational

Point = Tuple[Fraction, ...]


@dataclass(frozen=True)
class MinimizationResult:
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
    order, so results are deterministic.
    """
    position = f.min_position()
    m = f.ratio(position)
    k = f.degree
    delta = witness = None
    if k >= 1:
        argmin = f.num.index_set[position]
        delta = f.grid_value(argmin)
    for i, value in enumerate(f.vertex_ratios()):
        if delta is None or value < delta:
            delta, witness = value, f.simplex.vertex(i)
    if witness is None:
        witness = grid_point(argmin, k, f.simplex)
    return m, delta, witness


def apriori_steps(constants, epsilon: Rational) -> int:
    """Smallest round count N with 2*omega_prime < epsilon * 4^N.

    Every round halves the diameter, as every depth step of the local
    certificate does, so this is ``apriori_depth`` with the gap target in
    place of the claimed minimum.
    """
    epsilon = parse_rational(epsilon)
    if epsilon <= 0:
        raise NonPositiveEpsilon(f"epsilon must be positive, got {epsilon}")
    return apriori_depth(constants, ClaimedMinimum(epsilon))


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
    delta = witness = None
    lowest = {}  # uniform: the smallest lower bound at each depth
    parked = []  # best-first: the bounds of leaves held at the budget depth
    deepest = 0  # best-first: the depth of the deepest split piece

    def bounds(piece):
        # The lower bound first: at m >= delta every value on the piece is
        # at least delta, so its upper bound could not lower delta.
        nonlocal delta, witness
        m = piece.ratio(piece.min_position())
        if delta is None or m < delta:
            _, d, w = local_bounds(piece)
            if delta is None or d < delta:
                delta, witness = d, w
        return m

    def settle(lower, steps, leaves, exhausted):
        converged = delta - lower < epsilon
        if not (converged or exhausted):
            return None
        result = MinimizationResult(lower, delta, witness, epsilon, steps, leaves,
                                    converged, planned)
        if converged:
            return result
        raise BudgetExhausted(f"gap {float_str(delta - lower)} at budget {budget}",
                              partial=result)

    def visit_uniform(piece, depth):
        m = bounds(piece)
        lowest[depth] = min(lowest.get(depth, m), m)
        return depth

    def stop_uniform(frontier):
        rounds = frontier[0][2]
        return settle(lowest[rounds], rounds, len(frontier),
                      budget is not None and rounds >= budget)

    def visit_best(piece, depth):
        m = bounds(piece)  # drop a piece that cannot beat the incumbent; keep the root
        return None if depth and m >= delta else (m, piece.simplex.signature())

    def split_best(patch, depth, key):
        nonlocal deepest
        if key[0] >= delta:
            return ()
        if budget is not None and depth >= budget:
            parked.append(key[0])
            return ()
        deepest = max(deepest, depth + 1)
        return patch.split_round()

    def stop_best(frontier):
        head = (frontier[0][0][0],) if frontier else ()
        return settle(min((delta, *head, *parked)), deepest,
                      len(frontier) + len(parked), not frontier)

    if mode == "uniform":
        return subdivide(root, lambda patch, depth, key: patch.split_round(),
                         visit_uniform, stop_uniform)
    return subdivide(root, split_best, visit_best, stop_best)

