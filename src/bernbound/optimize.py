"""Branch-and-bound minimization of a rational function over a simplex.

Every node carries the rational patch of the function over its subsimplex at
the function's own degree (the degree never changes during minimization).
The minimum coefficient of a node is a certified lower bound for the
function there; evaluating the function at the minimizing grid point or at a
vertex yields a true function value and hence an upper bound.  Subdividing
shrinks the gap between the two; the bounds sandwich the true minimum at all
times, and an a-priori round count suffices for any requested gap.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .certify import ClaimedMinimum, apriori_depth
from .errors import BudgetExhausted, NonPositiveEpsilon, NotPositive
from .geometry import Simplex, grid_point
from .powerpoly import PowerPoly
from .ratpatch import RationalPatch, convergence_constants, rational_patch
from .rationals import Rational, float_str, format_rational, parse_rational

Point = Tuple[Fraction, ...]


@dataclass(frozen=True)
class MinimizationResult:
    """Certified bracket around the minimum of a rational function."""

    lower: Fraction
    upper: Fraction
    argmin_candidate: Point
    epsilon: Fraction
    steps: int
    leaves: int
    converged: bool
    apriori_rounds: Optional[int] = None
    history: Tuple[Tuple[Fraction, Fraction], ...] = ()

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


@dataclass(frozen=True)
class WorkItem:
    """One branch-and-bound node: a patch, its lower bound, its depth."""

    patch: RationalPatch
    local_m: Fraction
    depth: int


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
    """Smallest round count N with (1/2)^(2N) * 2*omega_prime < epsilon.

    Every round halves the diameter, so this is ``apriori_depth`` with the
    gap target in place of the claimed minimum.
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

    ``best-first`` repeatedly splits the leaf with the smallest lower bound
    and prunes leaves that cannot contain a better value; ``uniform`` splits
    every leaf each round with no pruning.  Both stop as soon as the bracket
    is narrower than epsilon.  ``budget`` caps subdivision rounds (node depth
    for best-first); exceeding it raises BudgetExhausted carrying the partial
    result.  Results are deterministic: ties in the best-first queue break on
    the lexicographically smallest simplex.
    """
    epsilon = parse_rational(epsilon)
    if epsilon <= 0:
        raise NonPositiveEpsilon(f"epsilon must be positive, got {epsilon}")
    if mode not in ("best-first", "uniform"):
        raise ValueError(f"unknown mode: {mode!r}")
    root = rational_patch(pnum, pden, simplex)
    planned = apriori_steps(convergence_constants(root), epsilon)
    if mode == "uniform":
        return _minimize_uniform(root, epsilon, budget, planned)
    return _minimize_best_first(root, epsilon, budget, planned)


def _minimize_uniform(root, epsilon, budget, planned) -> MinimizationResult:
    m, delta, witness = local_bounds(root)
    active = [WorkItem(root, m, 0)]
    history = [(m, delta)]
    rounds = 0
    while delta - m >= epsilon:
        if budget is not None and rounds >= budget:
            partial = MinimizationResult(
                m, delta, witness, epsilon, rounds, len(active), False,
                planned, tuple(history),
            )
            raise BudgetExhausted(
                f"gap {float_str(delta - m)} after {rounds} rounds", partial=partial
            )
        rounds += 1
        refined = []
        for item in active:
            for piece in item.patch.split_round():
                child_m, child_delta, child_witness = local_bounds(piece)
                if child_delta < delta:
                    delta, witness = child_delta, child_witness
                refined.append(WorkItem(piece, child_m, rounds))
        active = refined
        m = min(item.local_m for item in active)
        history.append((m, delta))
    return MinimizationResult(
        m, delta, witness, epsilon, rounds, len(active), True,
        planned, tuple(history),
    )


def _minimize_best_first(root, epsilon, budget, planned) -> MinimizationResult:
    m, delta, witness = local_bounds(root)
    heap: list = []
    heapq.heappush(heap, (m, root.simplex.signature(), WorkItem(root, m, 0)))
    parked: List[WorkItem] = []
    history = [(m, delta)]
    max_depth = 0

    def current_lower():
        best = delta
        if heap:
            best = min(best, heap[0][0])
        if parked:
            best = min(best, min(item.local_m for item in parked))
        return best

    while True:
        m = current_lower()
        history.append((m, delta))
        if delta - m < epsilon:
            return MinimizationResult(
                m, delta, witness, epsilon, max_depth,
                len(heap) + len(parked), True, planned, tuple(history),
            )
        if not heap:
            partial = MinimizationResult(
                m, delta, witness, epsilon, max_depth,
                len(parked), False, planned, tuple(history),
            )
            raise BudgetExhausted(
                f"gap {float_str(delta - m)} at budget {budget}", partial=partial
            )
        _, _, item = heapq.heappop(heap)
        if item.local_m >= delta:
            continue  # cannot improve on the incumbent
        if budget is not None and item.depth >= budget:
            parked.append(item)
            continue
        for piece in item.patch.split_round():
            child_m, child_delta, child_witness = local_bounds(piece)
            if child_delta < delta:
                delta, witness = child_delta, child_witness
            if child_m >= delta:
                continue
            heapq.heappush(
                heap,
                (child_m, piece.simplex.signature(), WorkItem(piece, child_m, item.depth + 1)),
            )
        max_depth = max(max_depth, item.depth + 1)


def validated_lower_bound(result: MinimizationResult) -> ClaimedMinimum:
    """Promote the optimizer's lower bound to a positivity claim.

    The bound is sound on every leaf by the enclosure property; fails if it
    is not positive.
    """
    if result.lower <= 0:
        raise NotPositive(f"lower bound {result.lower} is not positive")
    return ClaimedMinimum(result.lower)
