"""The one subdivision loop against the three loops it replaced.

``certify_local`` and both ``minimize`` strategies run ``ratpatch.subdivide``
with their own key, split, visit and stop callbacks.  The references below
are the separate loops that came before it, each with its own frontier, split
call, leaf test and stop rule, run on the same root patch through the same
public leaf tests (``cert_predicate``, ``local_bounds``).  Every observable
result must agree: the local certificate's verdict, depth, certified-leaf
count and witness, and each bracket's bounds, witness, rounds, leaves,
convergence flag and a-priori rounds, for a converged run and for the
partial result of ``BudgetExhausted``.  The pieces the local certificate
tests, which no run keeps, are watched from outside the loop
(``conftest.leaf_log``) and must match the reference's in order, a piece
settled inside a split round standing for as many of the reference's
certified leaves as its weight.  A finished run holds none of the pieces it
visited.  Spies check that a run does only the work its answer reads:
``minimize`` values a piece only when its lower bound is below the
incumbent, each bisection splits one numerator list in the local
certificate and two in ``minimize``, a run measures edge lengths at its
root only (no bisection measures one or forms vertex rows), and a run with
a depth budget queues no piece at that depth.
Best-first's integer keys order pieces as the ``(Fraction, vertices)``
keys they replaced (``conftest.ref_best_first_key``), tied bounds
included.

``ratpatch._refine_ints``, the one integer subdivision driver under all
three, is checked the same way through ``conftest.refine``, which turns its
leaves back into patches, against rounds of patch objects: each round
single longest-edge ``split_edge`` calls plus the halving guard, and another
round on every piece still wider than the threshold.  With the local
certificate's ``settled`` rule it is checked against itself without one.

Problems live on the standard n-simplex, n in {1, 2, 3}, shifted by an
offset and scaled by 1, 1/4 or 4, and on the skewed triangle ``TRI``, whose
vertices are fractional and whose edges lie on no axis.  So the pieces'
rows meet odd midpoints, doubled denominators and tie-break vertices away
from the unit grid, and the witnesses are points of such pieces.  Three in
four are ``conftest.closed_form_on``'s m + s * |x - a|^2 / q with a strictly
inside (exact minimum m, negative, zero or positive), num and den raised to
degree 3 or 4 by zero to two affine factors 1 + sum c_i (x_i - low_i),
c_i >= 0, low_i the smallest i-th vertex coordinate, which are at least 1 at
every vertex.  The rest are m plus such a factor minus 1 over the
denominator 1 (degree 0 or 1), whose minimum is at a vertex.

Below the root no piece passes the rank check again, and no run builds a
``Simplex`` for one: a spy on ``geometry._setup`` sees no call.
"""

import gc
import heapq
import random
import weakref
from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from bernbound import (  # noqa: E402
    PowerPoly,
    RationalPatch,
    Simplex,
    Verdict,
    Witness,
    certify_local,
    certify_negative,
    minimize,
    rational_patch,
)
from bernbound import certify, geometry, optimize, ratpatch  # noqa: E402
from bernbound.certify import _refuting_vertex, cert_predicate  # noqa: E402
from bernbound.errors import BudgetExhausted  # noqa: E402
from bernbound.geometry import (  # noqa: E402
    diameter_sq,
    longest_edge,
    round_length,
    standard_simplex,
)
from bernbound.indexing import vertex_positions  # noqa: E402
from bernbound.optimize import apriori_steps, local_bounds  # noqa: E402
from bernbound.ratpatch import convergence_constants  # noqa: E402
from conftest import (  # noqa: E402
    closed_form,
    closed_form_on,
    fn_dip,
    inside,
    leaf_log,
    mul_terms,
    ref_best_first_key,
    refine,
    watch_subdivide,
)

FRONTIER = settings(max_examples=120, deadline=None, derandomize=True, database=None)

# Deepest local certificate and uniform round count per dimension: a round
# makes 2, 8 or 64 pieces for n = 1, 2, 3, so depth 3 in three variables
# would visit 262,144 leaves.  A run queues none at its budget depth, so it
# holds at most the 4,096 pieces of depth 2, but the reference loops below
# hold each whole level they build, as patches.
DEPTH_CAP = {1: 3, 2: 3, 3: 1}


def local_cap(simplex):
    """The deepest local certificate to run: ``DEPTH_CAP``, but the root
    alone on a three-variable domain wider than the standard one, where
    depth d is 2^-d in absolute size and depth 1 takes 32,768 leaves."""
    n = simplex.dimension
    if n == 3 and diameter_sq(simplex) > diameter_sq(standard_simplex(n)):
        return 0
    return DEPTH_CAP[n]


# ---------------------------------------------------------------------------
# Reference loops
# ---------------------------------------------------------------------------

def ref_certify_local(root, n_max):
    """(verdict, depth, leaves, witness, log) from the level-by-level loop;
    the log holds (depth, simplex, certified) for every piece tested."""
    log = []
    refute = _refuting_vertex(root)
    if refute is not None:
        return Verdict.REFUTED, 0, 0, refute, [(0, root.simplex, False)]
    if cert_predicate(root):
        return Verdict.CERTIFIED, 0, 1, None, [(0, root.simplex, True)]
    log.append((0, root.simplex, False))
    pending = [root]
    certified = 0
    for depth in range(1, n_max + 1):
        next_pending = []
        for leaf in pending:
            for piece in refine(leaf, F(1, 4 ** depth)):
                refute = _refuting_vertex(piece)
                if refute is not None:
                    log.append((depth, piece.simplex, False))
                    return Verdict.REFUTED, depth, certified, refute, log
                if cert_predicate(piece):
                    certified += 1
                    log.append((depth, piece.simplex, True))
                else:
                    next_pending.append(piece)
                    log.append((depth, piece.simplex, False))
        pending = next_pending
        if not pending:
            return Verdict.CERTIFIED, depth, certified, None, log
    return Verdict.INCONCLUSIVE, n_max, certified, None, log


def _split_wide(pieces, threshold_sq, split):
    """Pieces in order, each one whose squared diameter exceeds threshold_sq
    replaced by its ``split`` children; None when no piece exceeds it."""
    wide = [diameter_sq(piece.simplex) > threshold_sq for piece in pieces]
    if not any(wide):
        return None
    return [child for piece, w in zip(pieces, wide)
            for child in (split(piece) if w else (piece,))]


def _bisect_longest(piece):
    return piece.split_edge(*longest_edge(piece.simplex))


def ref_split_round(patch):
    """One shrink round on patch objects: n(n+1)/2 levels of longest-edge
    ``split_edge``, then the halving guard on every piece still wider than
    a quarter of the patch's squared diameter."""
    pieces = [patch]
    for _ in range(round_length(patch.dimension)):
        pieces = [child for piece in pieces for child in _bisect_longest(piece)]
    target = diameter_sq(patch.simplex) / 4
    guard = 4 * round_length(patch.dimension) + 4
    while (wider := _split_wide(pieces, target, _bisect_longest)) is not None:
        guard -= 1
        assert guard >= 0
        pieces = wider
    return pieces


def ref_refine(patch, threshold_sq):
    """A round, then another on every piece still wider than threshold_sq,
    each piece replaced by its round in place, until none is."""
    pieces = ref_split_round(patch)
    while (wider := _split_wide(pieces, threshold_sq, ref_split_round)) is not None:
        pieces = wider
    return pieces


def _bracket(m, delta, witness, rounds, leaves, converged, planned):
    return dict(lower=m, upper=delta, witness=witness, steps=rounds,
                leaves=leaves, converged=converged, apriori_rounds=planned)


def ref_minimize_uniform(root, epsilon, budget, planned):
    """(bracket, exhausted) from the round-by-round loop."""
    m, delta, witness = local_bounds(root)
    active = [(root, m)]
    rounds = 0
    while delta - m >= epsilon:
        if budget is not None and rounds >= budget:
            return _bracket(m, delta, witness, rounds, len(active), False,
                            planned), True
        rounds += 1
        refined = []
        for patch, _ in active:
            for piece in patch.split_round():
                child_m, child_delta, child_witness = local_bounds(piece)
                if child_delta < delta:
                    delta, witness = child_delta, child_witness
                refined.append((piece, child_m))
        active = refined
        m = min(child_m for _, child_m in active)
    return _bracket(m, delta, witness, rounds, len(active), True,
                    planned), False


def ref_minimize_best_first(root, epsilon, budget, planned):
    """(bracket, exhausted) from the heap loop.  A piece at the depth
    budget, which is never split, is held aside (``parked``) when it would
    be pushed, and counts among the leaves from then on."""
    m, delta, witness = local_bounds(root)
    heap, parked = [], []
    if budget == 0:
        parked.append(m)
    else:
        heap.append((m, root.simplex.vertices, 0, root))
    max_depth = 0
    while True:
        m = min([delta] + ([heap[0][0]] if heap else []) + parked)
        if delta - m < epsilon:
            return _bracket(m, delta, witness, max_depth, len(heap) + len(parked),
                            True, planned), False
        if not heap:
            return _bracket(m, delta, witness, max_depth, len(parked), False,
                            planned), True
        local_m, _, depth, patch = heapq.heappop(heap)
        if local_m >= delta:
            continue
        for piece in patch.split_round():
            child_m, child_delta, child_witness = local_bounds(piece)
            if child_delta < delta:
                delta, witness = child_delta, child_witness
            if child_m >= delta:
                continue
            if depth + 1 == budget:
                parked.append(child_m)
            else:
                heapq.heappush(heap, (child_m, piece.simplex.vertices, depth + 1, piece))
        max_depth = max(max_depth, depth + 1)


# ---------------------------------------------------------------------------
# Problems
# ---------------------------------------------------------------------------

def _affine(low, slopes):
    """1 + sum slopes_i * (x_i - low_i): at least 1 where every x_i >= low_i."""
    n = len(low)
    form = {(0,) * n: 1 - sum(c * o for c, o in zip(slopes, low))}
    for i, c in enumerate(slopes):
        if c:
            form[tuple(int(j == i) for j in range(n))] = c
    return form


SLOPES = st.sampled_from((F(0), F(1, 2), F(2)))
# The triangle of the console-script check: fractional vertices, no edge on
# an axis, and a longest edge whose midpoint has odd numerators.
TRI = ((F(1, 2), F(-1, 3)), (F(5, 2), F(1, 4)), (F(-2, 3), F(3, 2)))


@st.composite
def domains(draw, n):
    """Vertices of the standard n-simplex shifted by an offset and scaled
    by 1 (half the draws), 1/4 or 4, or, in two variables, one draw in
    four, ``TRI``."""
    if n == 2 and draw(st.integers(0, 3)) == 0:
        return TRI
    offset = draw(st.lists(st.sampled_from((F(0), F(-1, 2), F(1, 3))),
                           min_size=n, max_size=n))
    size = draw(st.sampled_from((F(1), F(1), F(1, 4), F(4))))
    return [tuple(offset)] + [
        tuple(o + size * (c == i) for c, o in enumerate(offset)) for i in range(n)]


@st.composite
def problems(draw):
    """(num, den, simplex, m) with n in {1, 2, 3} and degree 0 to 4."""
    n = draw(st.integers(1, 3))
    vertices = draw(domains(n))
    low = [min(v[c] for v in vertices) for c in range(n)]
    slopes = draw(st.lists(SLOPES, min_size=n, max_size=n))
    m = draw(st.sampled_from((F(1, 20), F(0), F(-1, 20), F(1, 4), F(-1, 2))))
    if draw(st.sampled_from((True, True, True, False))):
        s = draw(st.sampled_from((F(3), F(1), F(1, 4))))
        weights = draw(st.lists(st.integers(1, 4), min_size=n + 1, max_size=n + 1))
        num, den, simplex, _ = closed_form_on(m, s, weights, slopes, vertices)
        num, den = dict(num.iter_terms()), dict(den.iter_terms())
        for _ in range(draw(st.integers(0, 2))):
            factor = _affine(low, draw(
                st.lists(SLOPES, min_size=n, max_size=n).filter(any)))
            num, den = mul_terms(num, factor), mul_terms(den, factor)
        return PowerPoly(n, num), PowerPoly(n, den), simplex, m
    num = _affine(low, slopes)
    num[(0,) * n] += m - 1
    num = PowerPoly(n, num)
    return num, PowerPoly.constant(n, 1), Simplex(vertices), min(map(num.eval, vertices))


UNIT = Simplex.from_interval(0, 1)
ONE = PowerPoly.univariate([1])
# Constant 3/7: the root's bounds meet, so the bracket closes with one leaf.
CONSTANT = (PowerPoly.univariate([F(3, 7)]), ONE, UNIT, F(3, 7))
# x - 1/3 on [0, 1]: refuted at the root's vertex 0.
ROOT_REFUTED = (PowerPoly.univariate([F(-1, 3), 1]), ONE, UNIT, F(-1, 3))
# (x - 1/3)^2 + 1/20 on [0, 1]: certified after subdividing.
DIP = (PowerPoly.univariate([F(1, 9) + F(1, 20), F(-2, 3), 1]), ONE, UNIT, F(1, 20))
# (x - 1/3)^2 on [0, 1]: the zero at 1/3 is never a dyadic vertex.
TOUCH = (PowerPoly.univariate([F(1, 9), F(-2, 3), 1]), ONE, UNIT, F(0))
# (x - 1/2)^2 on [0, 1]: the root's grid value f(1/2) = 0 is the incumbent,
# and the lower bound of each half ties it exactly.
HALF_TOUCH = (PowerPoly.univariate([F(1, 4), -1, 1]), ONE, UNIT, F(0))


# 1/10 + (x - 1/3)^2 + (y - 1/3)^2 on the standard triangle: symmetric in
# x <-> y, so the two children of its first bisection, mirror images, tie.
SYMMETRIC = (PowerPoly(2, {(0, 0): F(29, 90), (1, 0): F(-2, 3), (0, 1): F(-2, 3),
                           (2, 0): 1, (0, 2): 1}),
             PowerPoly.constant(2, 1), standard_simplex(2), F(1, 10))


def _local_outcome(den, run):
    """(verdict, depth, leaves, witness) of ``run()``, a local certificate
    of a function over ``den``, the ``conftest.Leaf`` of each piece it
    tested, and the report."""
    with leaf_log(den) as log:
        report = run()
    return (report.verdict, report.depth_used, report.leaves, report.witness), log, report


def _assert_log_matches(log, want):
    """The pieces a run tested against the reference's ``want`` log, in
    order.  A piece of weight 1 is the next reference piece.  A piece of
    weight w, settled inside a split round, stands for the next w: each
    certified, at its depth and inside its simplex."""
    at = 0
    for leaf in log:
        if leaf.weight == 1:
            assert (leaf.depth, leaf.simplex, leaf.certified) == want[at]
        else:
            assert leaf.certified
            stood_for = want[at:at + leaf.weight]
            assert len(stood_for) == leaf.weight
            for depth, simplex, certified in stood_for:
                assert (depth, certified) == (leaf.depth, True)
                assert inside(simplex, leaf.simplex)
        at += leaf.weight
    assert at == len(want)


@FRONTIER
@given(problems(), st.sampled_from((3, 2, 1, 0)))
@example(CONSTANT, 2)
@example(ROOT_REFUTED, 2)
@example(DIP, 0)
@example(DIP, 3)
@example(TOUCH, 3)
def test_certify_local_matches_reference(problem, n_max):
    num, den, simplex, _ = problem
    n_max = min(n_max, local_cap(simplex))
    root = rational_patch(num, den, simplex)
    verdict, depth, leaves, witness, want = ref_certify_local(root, n_max)
    got, log, _ = _local_outcome(den, lambda: certify_local(num, den, simplex, n_max))
    assert got == (verdict, depth, leaves, witness)
    _assert_log_matches(log, want)
    got, log, negative = _local_outcome(den, lambda: certify_negative(
        num.negate(), den, simplex, via="local", n_max=n_max))
    if witness is not None:
        witness = Witness(witness.point, -witness.value, witness.kind)
    assert negative.negated
    assert got == (verdict, depth, leaves, witness)
    _assert_log_matches(log, want)


# Thresholds as fractions of the widest piece's squared diameter after one
# round: each asks for a second round on that piece at least, the smaller
# ones for a third.  A round makes 64 pieces in three variables.
REFINE_DIVISORS = {1: (2, 5, 20), 2: (2, 5, 20), 3: (2,)}


@settings(FRONTIER, max_examples=50)
@given(problems(), st.integers(0, 2))
def test_refine_matches_reference(problem, pick):
    # The integer driver against rounds of patch objects: the same leaves in
    # the same order, with the same integers and scales.
    num, den, simplex, _ = problem
    root = rational_patch(num, den, simplex)
    divisors = REFINE_DIVISORS[simplex.dimension]
    first = root.split_round()
    widest = max(diameter_sq(piece.simplex) for piece in first)
    threshold = widest / divisors[pick % len(divisors)]
    got = refine(root, threshold)
    want = ref_refine(root, threshold)
    assert len(got) > len(first)
    assert [leaf.simplex for leaf in got] == [leaf.simplex for leaf in want]
    for leaf, ref in zip(got, want):
        for mine, theirs in ((leaf.num, ref.num), (leaf.den, ref.den)):
            assert (mine.nums, mine.scale) == (theirs.nums, theirs.scale)


# 1/4 + |x - a|^2 / (1 + x/2) on the standard triangle: pieces certify
# inside the first round already.
POSITIVE_2D = (*closed_form(F(1, 4), 1, [1, 1, 1], [F(1, 2), 0], [0, 0])[:3], F(1, 4))


@settings(FRONTIER, max_examples=50)
@given(problems(), st.integers(0, 2))
@example(POSITIVE_2D, 2)
def test_settled_pieces_stand_for_the_leaves_they_hold(problem, pick):
    # The driver with the local certificate's ``settled`` rule against the
    # driver without it, on numerator and denominator, at the thresholds of
    # ``test_refine_matches_reference``.  A weight-1 piece is the unpruned
    # leaf in its place; a settled piece certifies and stands for the next
    # ``weight`` unpruned leaves, each of which certifies and was cut from
    # it: its path, less the digits of its extra cuts, is the piece's.
    num, den, simplex, _ = problem
    root = rational_patch(num, den, simplex)
    roots = (root.num, root.den)
    divisors = REFINE_DIVISORS[simplex.dimension]
    widest = max(diameter_sq(piece.simplex) for piece in root.split_round())
    threshold = widest / divisors[pick % len(divisors)]
    threshold = threshold.numerator, threshold.denominator
    vertices = vertex_positions(root.degree, simplex.dimension)
    pruned = ratpatch._refine_ints(ratpatch.Piece.of(roots), threshold,
                                   lambda lists: certify._certifies(lists[0], vertices))
    full = ratpatch._refine_ints(ratpatch.Piece.of(roots), threshold)
    assert sum(piece.weight for piece in pruned) == len(full)
    size = 2 * len(pruned[0].lengths)
    at = 0
    for piece in pruned:
        if piece.weight == 1:
            leaf = full[at]
            assert ((piece.path, piece.cuts, piece.lists, piece.lengths)
                    == (leaf.path, leaf.cuts, leaf.lists, leaf.lengths))
        else:
            assert cert_predicate(RationalPatch(*piece.patches()))
            for leaf in full[at:at + piece.weight]:
                assert leaf.cuts > piece.cuts
                assert leaf.path // size ** (leaf.cuts - piece.cuts) == piece.path
                assert cert_predicate(RationalPatch(*leaf.patches()))
        at += piece.weight


EPSILONS = st.sampled_from((F(1, 400), F(1, 40), F(1, 4000), F(1, 8), F(1, 2)))


@FRONTIER
@given(problems(), EPSILONS, st.sampled_from((None, 3, 2, 1, 0)),
       st.sampled_from(("uniform", "best-first")))
@example(CONSTANT, F(1, 8), 0, "uniform")
@example(CONSTANT, F(1, 8), 0, "best-first")
@example(ROOT_REFUTED, F(1, 8), None, "best-first")
@example(TOUCH, F(1, 40), 2, "best-first")
@example(TOUCH, F(1, 40), 2, "uniform")
@example(DIP, F(1, 1000), None, "best-first")
@example(HALF_TOUCH, F(1, 8), None, "best-first")
@example(HALF_TOUCH, F(1, 8), None, "uniform")
@example(SYMMETRIC, F(1, 128), None, "best-first")
@example(SYMMETRIC, F(1, 128), None, "uniform")
def test_minimize_matches_reference(problem, epsilon, budget, mode):
    # SYMMETRIC's gap is exactly 1/128 after two rounds, which does not
    # converge at epsilon 1/128: the gap must be below epsilon.
    num, den, simplex, _ = problem
    root = rational_patch(num, den, simplex)
    planned = apriori_steps(convergence_constants(root), epsilon)
    cap = DEPTH_CAP[simplex.dimension]
    if mode == "uniform" and (budget is not None or planned > cap):
        # Unbounded only when the a-priori round count keeps it small.
        budget = min(cap if budget is None else budget, cap)
    ref = ref_minimize_uniform if mode == "uniform" else ref_minimize_best_first
    want, exhausted = ref(root, epsilon, budget, planned)
    try:
        result = minimize(num, den, simplex, epsilon, budget=budget, mode=mode)
        assert not exhausted
    except BudgetExhausted as exc:
        assert exhausted
        result = exc.partial
    got = {key: getattr(result, key) for key in want if key != "witness"}
    assert {**got, "witness": result.argmin_candidate} == want
    assert result.epsilon == epsilon


# 1/20 + 3 |x - (7/9, 17/36)|^2 on ``TRI``: the example hypothesis reports
# for ``test_minimize_matches_reference`` against a reference that parks
# pieces when they are popped.  At budget 3, best-first visits a piece at
# the budget depth, bound 0.0578, below the incumbent then; a later piece
# lowers the incumbent to 0.0505.
LATE_DROP = (PowerPoly(2, {(0, 0): F(5473, 2160), (1, 0): F(-14, 3), (0, 1): F(-17, 6),
                           (2, 0): 3, (0, 2): 3}),
             PowerPoly.constant(2, 1), Simplex(TRI))


def test_best_first_counts_budget_pieces_at_their_visit():
    # The loop counts a piece at the budget depth when it is visited, so
    # ``leaves`` includes LATE_DROP's piece that the incumbent reaches
    # later: 5, where parking pieces when popped dropped it and gave 4.
    # Every other field is what parking at pop gave.
    result = _partial(*LATE_DROP, F(1, 400), budget=3)
    assert result == optimize.MinimizationResult(
        F(24883, 552960), F(447073, 8847360), (F(99, 128), F(353, 768)), F(1, 400),
        steps=3, leaves=5, converged=False, apriori_rounds=8)


def _ordered_both_ways(problem, rounds, order):
    """The root and ``rounds`` split rounds of pieces of ``problem``, in
    ``order`` (a shuffle), sorted by best-first's ``_Key`` and by the
    ``(Fraction, vertices)`` key it replaced, with the number of distinct
    lower bounds among them."""
    num, den, simplex, _ = problem
    root = rational_patch(num, den, simplex)
    s, t = root.num.scale, root.den.scale
    pieces = level = [ratpatch.Piece.of((root.num, root.den))]
    for _ in range(rounds):
        level = [child for piece in level for child in ratpatch._split_round(piece)]
        pieces = pieces + level
    order(pieces)

    def key(piece):
        nums, dens = piece.lists
        p = ratpatch._min_position(nums, dens)
        return optimize._Key(nums[p] * t, dens[p] * s, piece)

    want = sorted(pieces, key=lambda piece: ref_best_first_key(piece, (s, t)))
    bounds = {ref_best_first_key(piece, (s, t))[0] for piece in pieces}
    return sorted(pieces, key=key), want, len(bounds), len(pieces)


@settings(FRONTIER, max_examples=60)
@given(problems(), st.integers(1, 2), st.randoms(use_true_random=False))
@example(HALF_TOUCH, 2, random.Random(0))
@example(SYMMETRIC, 2, random.Random(0))
def test_best_first_keys_order_as_fraction_keys(problem, rounds, rng):
    # Best-first keys a piece by its lower bound as an unreduced integer
    # pair, compared by cross-multiplying, and reads the piece's vertices
    # only on a tie.  Over the pieces of a few rounds, in any order, that
    # sorts as the old key does.  A round makes 64 pieces in three
    # variables, so those take one.
    if problem[2].dimension == 3:
        rounds = 1
    got, want, _, _ = _ordered_both_ways(problem, rounds, rng.shuffle)
    assert got == want


@pytest.mark.parametrize("problem", [HALF_TOUCH, SYMMETRIC], ids=["half-touch", "symmetric"])
def test_best_first_keys_break_ties_as_fraction_keys(problem):
    # On these problems several pieces share a lower bound, so the order
    # rests on the vertices: HALF_TOUCH's halves tie at 0, SYMMETRIC's
    # mirror images pair up.
    got, want, bounds, size = _ordered_both_ways(problem, 2, list.reverse)
    assert bounds < size
    assert got == want


@pytest.mark.parametrize("mode", ["best-first", "uniform"])
@pytest.mark.parametrize("problem", [HALF_TOUCH, DIP, TOUCH],
                         ids=["half-touch", "dip", "touch"])
def test_minimize_values_only_pieces_below_the_incumbent(monkeypatch, problem, mode):
    # A piece whose lower bound reaches the incumbent cannot lower it, so
    # only the pieces below it go through ``_upper_bound`` (a grid value and
    # the vertex values).  Replaying the visits gives the incumbent before
    # each one; on HALF_TOUCH the two halves tie it and are not valued.
    real = optimize._upper_bound
    valued, visited = [], []
    monkeypatch.setattr(optimize, "_upper_bound",
                        lambda piece, *rest: valued.append(piece) or real(piece, *rest))
    with watch_subdivide(optimize, lambda piece, depth, key: visited.append(piece)):
        try:
            minimize(*problem[:3], F(1, 1000), budget=3, mode=mode)
        except BudgetExhausted:
            pass
    delta, want = None, []
    for piece in visited:
        s, t = piece.root[3]
        position = ratpatch._min_position(*piece.lists)
        m = F(piece.lists[0][position] * t, piece.lists[1][position] * s)
        a, b, _ = real(piece, position)
        d = F(a, b)
        if delta is None or m < delta:
            want.append(piece)
            delta = d if delta is None else min(delta, d)
    assert len(valued) == len(want) < len(visited)
    assert all(a is b for a, b in zip(valued, want))


@pytest.mark.parametrize("mode", ["best-first", "uniform"])
@pytest.mark.parametrize("problem, epsilon, budget", [
    (DIP, F(1, 1000), None),
    (TOUCH, F(1, 1000), None),
    (DIP, F(1, 10 ** 9), 2),
    (TOUCH, F(1, 10 ** 9), 2),
    (closed_form(F(1, 20), 1, [1, 1, 1], [F(1, 2), 0], [0, 0]), F(1, 100), None),
    (closed_form(F(1, 20), 1, [1, 1, 1], [F(1, 2), 0], [0, 0]), F(1, 10 ** 9), 2),
], ids=["dip-converged", "touch-converged", "dip-exhausted", "touch-exhausted",
        "2d-converged", "2d-exhausted"])
def test_minimize_forms_one_witness_point(monkeypatch, problem, epsilon, budget, mode):
    # The incumbent is an integer pair, its piece and a grid position, so
    # however often it is replaced, one point is formed: the witness of the
    # result returned, or carried by ``BudgetExhausted``.
    formed = []
    grid_point, vertex = optimize._grid_point, ratpatch.Piece.vertex
    monkeypatch.setattr(optimize, "_grid_point",
                        lambda *args: formed.append(args) or grid_point(*args))
    monkeypatch.setattr(ratpatch.Piece, "vertex",
                        lambda piece, i: formed.append(i) or vertex(piece, i))
    try:
        result = minimize(*problem[:3], epsilon, budget=budget, mode=mode)
    except BudgetExhausted as error:
        result = error.partial
    assert result.converged == (budget is None)
    assert len(formed) == 1


@pytest.mark.parametrize("run, lists", [
    (lambda: certify_local(*fn_dip(), n_max=3), 1),
    (lambda: certify_local(*closed_form(F(1, 20), 1, [1, 1, 1], [F(1, 2), 0],
                                        [0, 0])[:3], n_max=2), 1),
    (lambda: minimize(*DIP[:3], F(1, 1000)), 2),
    (lambda: minimize(*DIP[:3], F(1, 1000), mode="uniform"), 2),
], ids=["certify_local-dip", "certify_local-2d", "best-first", "uniform"])
def test_one_split_per_list_per_bisection(monkeypatch, run, lists):
    # The local certificate splits the numerator alone below its root;
    # minimize splits numerator and denominator.  Each bisection looks up
    # its edge's split table once.
    calls = {"split_nums": 0, "split_table": 0}
    for name in calls:
        def counted(*args, real=getattr(ratpatch, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(ratpatch, name, counted)
    run()
    assert calls["split_table"] > 0
    assert calls["split_nums"] == lists * calls["split_table"]


QUARTER = F(1, 4)
# A three-variable closed form on the standard tetrahedron scaled by 1/4,
# certified at depth 1 after one round of 64 pieces.
CLOSED_3D = closed_form_on(F(1, 200), 1, [1, 2, 3, 4], [F(1, 2), 0, 0],
                           [[0, 0, 0], [QUARTER, 0, 0], [0, QUARTER, 0],
                            [0, 0, QUARTER]])[:3]


@pytest.mark.parametrize("run", [
    lambda p: certify_local(*p, n_max=2),
    lambda p: minimize(*p, F(1, 1000)),
    lambda p: minimize(*p, F(1, 100), mode="uniform"),
], ids=["certify_local", "best-first", "uniform"])
@pytest.mark.parametrize("problem", [
    closed_form(F(1, 20), 1, [1, 1, 1], [F(1, 2), 0], [0, 0])[:3], CLOSED_3D,
], ids=["n2", "n3"])
def test_each_bisection_measures_n_edge_lengths(monkeypatch, problem, run):
    # A bisection changes only the n edges at its midpoint, and the driver
    # finds those from its parent's lengths by the median rule: a run
    # measures the root's n(n+1)/2 lengths once (``geometry._edge_lengths``)
    # and no bisection measures one.  Nor does the driver form vertex
    # rows: ``_bisect_rows`` runs only where a piece replays its path, for
    # a witness or a tie, outside the driver.  Bisections are counted by
    # their ``split_table`` lookups.
    n = problem[2].dimension
    counts = {"lengths": 0, "bisections": 0, "calls": 0}
    inside = False

    def edge_lengths(rows, real=geometry._edge_lengths):
        assert not inside, "a bisection measured an edge"
        lengths = real(rows)
        counts["lengths"] += len(lengths)
        return lengths

    def bisect_rows(*args, real=ratpatch._bisect_rows):
        assert not inside, "a bisection formed vertex rows"
        return real(*args)

    def split_table(*args, real=ratpatch.split_table):
        counts["bisections"] += 1
        return real(*args)

    def refine_ints(*args, real=ratpatch._refine_ints):
        nonlocal inside
        counts["calls"] += 1
        inside = True
        try:
            return real(*args)
        finally:
            inside = False

    for module in (geometry, ratpatch):
        monkeypatch.setattr(module, "_edge_lengths", edge_lengths)
        monkeypatch.setattr(module, "_bisect_rows", bisect_rows)
    monkeypatch.setattr(ratpatch, "split_table", split_table)
    for module in (certify, ratpatch):
        monkeypatch.setattr(module, "_refine_ints", refine_ints)
    run(problem)
    assert counts["bisections"] > counts["calls"] > 0
    assert counts["lengths"] == round_length(n)


@pytest.mark.parametrize("problem", [
    closed_form(F(-1, 50), 1, [1, 2, 3], [F(1, 2), 0], [0, 0])[:3],
    closed_form(F(-1, 200), 1, [1, 1, 1], [0, 0], [0, 0])[:3],
], ids=["skewed-dip", "centred-dip"])
def test_refuted_run_splits_nothing_after_the_refuting_piece(monkeypatch, problem):
    # Each problem refutes at depth 2, on a level whose other depth-1
    # pieces are still unsplit when the refuting piece is visited: the
    # loop stops right after the split that produced it.
    real = certify._refine_ints
    refuting = []  # per split: whether a piece it made has a non-positive vertex

    def spy(piece, threshold, settled):
        leaves = real(piece, threshold, settled)
        vertices = vertex_positions(piece.root[2], len(piece.rows) - 1)
        refuting.append(any(leaf.lists[0][p] <= 0 for leaf in leaves for p in vertices))
        return leaves

    monkeypatch.setattr(certify, "_refine_ints", spy)
    report = certify_local(*problem, n_max=4)
    assert (report.verdict, report.depth_used) == (Verdict.REFUTED, 2)
    assert refuting.index(True) == len(refuting) - 1 > 0


# 1/50 + |x - a|^2 / 64^2 with a = 64 * (1/3, 1/3) on the standard triangle
# scaled by 64: the Bernstein coefficients of the unscaled problem, but depth
# 1 asks for pieces of diameter 1/2, so the root's split makes 32,768 leaves.
WIDE = closed_form_on(F(1, 50), F(1, 64 ** 2), [1, 1, 1], [0, 0],
                      [[0, 0], [64, 0], [0, 64]])[:3]
# The same in one variable: 1/50 + ((x - s/3) / s)^2 on [0, s], s = 2^14.
# Every bisection of an interval starts a round, so only a rule that tests
# every piece the split cuts settles any of its 32,768 leaves.
WIDE_1D = closed_form_on(F(1, 50), F(1, 4 ** 14), [2, 1], [0], [[0], [2 ** 14]])[:3]


@pytest.mark.parametrize("problem, pieces", [(WIDE, 14), (WIDE_1D, 3)],
                         ids=["triangle", "interval"])
def test_wide_domain_counts_settled_leaves_without_cutting_them(monkeypatch, problem,
                                                                 pieces):
    # Pieces that certify inside the root's split are returned whole, each
    # weighing the leaves the split would have cut from it, so the run holds
    # a few pieces, not 32,768 leaves' lists.
    real = certify._refine_ints
    splits = []

    def spy(*args):
        leaves = real(*args)
        splits.append(leaves)
        return leaves

    monkeypatch.setattr(certify, "_refine_ints", spy)
    report = certify_local(*problem, n_max=10)
    assert (report.verdict, report.depth_used, report.leaves) == (
        Verdict.CERTIFIED, 1, 32768)
    root_split, = splits
    assert len(root_split) == pieces
    assert sum(piece.weight for piece in root_split) == 32768


def test_wide_domain_counts_settled_leaves_once_per_shape(monkeypatch):
    # The triangle scaled by 128 settles 262,144 leaves at depth 1.  Below a
    # settled piece the leaf count is memoised on each entry's lengths,
    # cuts and round, so the driver measures a longest edge a few times per
    # level; walking every leaf below the settled pieces measured 524,287.
    wide = closed_form_on(F(1, 50), F(1, 128 ** 2), [1, 1, 1], [0, 0],
                          [[0, 0], [128, 0], [0, 128]])[:3]
    real = ratpatch._longest
    calls = []
    monkeypatch.setattr(ratpatch, "_longest",
                        lambda lengths: calls.append(None) or real(lengths))
    report = certify_local(*wide, n_max=10)
    assert (report.verdict, report.depth_used, report.leaves) == (
        Verdict.CERTIFIED, 1, 262144)
    assert len(calls) < 1000


DIP_DOMAIN = fn_dip()
# A two-variable closed form that every run below subdivides.
CLOSED_2D = closed_form(F(1, 20), 1, [1, 1, 1], [F(1, 2), 0], [0, 0])[:3]


@pytest.mark.parametrize("module, run", [
    (certify, lambda: certify_local(*DIP_DOMAIN, n_max=3)),
    (certify, lambda: certify_local(*CLOSED_2D, n_max=2)),
    (optimize, lambda: minimize(*DIP_DOMAIN, F(1, 1000))),
    (optimize, lambda: minimize(*DIP_DOMAIN, F(1, 1000), mode="uniform")),
    (optimize, lambda: minimize(*CLOSED_2D, F(1, 1000))),
    (optimize, lambda: minimize(*CLOSED_2D, F(1, 100), mode="uniform")),
], ids=["certify_local-dip", "certify_local-2d", "best-first-dip", "uniform-dip",
        "best-first-2d", "uniform-2d"])
def test_no_piece_below_the_root_is_rank_checked(monkeypatch, module, run):
    # Every problem's domain is built before the spy goes in, and the
    # standard simplex the conversion compares against is cached, so any
    # ``_setup`` call during the run would be a piece's rank check.
    for n in (1, 2):
        standard_simplex(n)
    real = geometry._setup
    checked, visited = [], []
    monkeypatch.setattr(geometry, "_setup",
                        lambda simplex, ints, *rest: checked.append(ints)
                        or real(simplex, ints, *rest))
    with watch_subdivide(module, lambda piece, depth, key: visited.append(depth)):
        run()
    assert max(visited) > 0
    assert checked == []


@pytest.mark.parametrize("module, run", [
    (certify, lambda: certify_local(*fn_dip(), n_max=3)),
    (certify, lambda: certify_local(*TOUCH[:3], n_max=3)),
    (optimize, lambda: minimize(*DIP[:3], F(1, 1000), mode="uniform")),
    (optimize, lambda: minimize(*DIP[:3], F(1, 1000))),
], ids=["certify_local-dip", "certify_local-touch", "uniform", "best-first"])
def test_finished_run_retains_no_piece(module, run):
    # Only weak references to the visited pieces are taken, so once the run
    # returns nothing but its result can keep one alive.
    pieces = []
    with watch_subdivide(module, lambda piece, depth, key:
                         pieces.append(weakref.ref(piece))):
        result = run()
    gc.collect()
    assert result is not None and len(pieces) > 1
    assert sum(ref() is not None for ref in pieces) == 0


def _partial(*args, **kwargs):
    """The partial result of a ``minimize`` run that exhausts its budget."""
    with pytest.raises(BudgetExhausted) as caught:
        minimize(*args, **kwargs)
    return caught.value.partial


# (x + y - 1/3)^2 on the standard triangle: zero on a segment inside it, so
# the pieces that cross it never certify.
PLANE_2D = (PowerPoly(2, mul_terms(*[{(0, 0): F(-1, 3), (1, 0): 1, (0, 1): 1}] * 2)),
            PowerPoly.constant(2, 1), standard_simplex(2))


@pytest.mark.parametrize("module, run, budget", [
    (certify, lambda: certify_local(*TOUCH[:3], n_max=3), 3),
    (certify, lambda: certify_negative(TOUCH[0].negate(), *TOUCH[1:3], via="local",
                                       n_max=3), 3),
    (certify, lambda: certify_local(*PLANE_2D, n_max=2), 2),
    (optimize, lambda: _partial(*DIP[:3], F(1, 10 ** 12), budget=3, mode="uniform"), 3),
    (optimize, lambda: _partial(*PLANE_2D, F(1, 10 ** 12), budget=2, mode="uniform"), 2),
    (optimize, lambda: _partial(*DIP[:3], F(1, 10 ** 12), budget=3), 3),
    (optimize, lambda: _partial(*PLANE_2D, F(1, 10 ** 12), budget=2), 2),
], ids=["certify_local-touch", "certify_negative-touch", "certify_local-2d",
        "uniform-dip", "uniform-2d", "best-first-dip", "best-first-2d"])
def test_no_piece_at_the_budget_depth_is_queued(monkeypatch, module, run, budget):
    # A piece keyed at the depth budget is never split, so the loop counts
    # it and never queues it: no level waits on the frontier for a split
    # that never comes, whatever the caller's keys.  Each run here ends at
    # its budget, so that level is visited and some of its pieces are keyed
    # (unresolved, or below the incumbent); the heap and ``split`` see
    # pieces down to the level above it only.
    keys, pushed, split = [], [], []
    push, real = ratpatch.heappush, module.subdivide
    monkeypatch.setattr(ratpatch, "heappush",
                        lambda heap, entry: pushed.append(entry[2]) or push(heap, entry))

    def spy(root, cut, visit, stop, budget=None):
        def guarded(piece, depth, key):
            # A loop that split past its budget would never end on TOUCH.
            assert depth < budget, "a piece at the budget depth was split"
            split.append(depth)
            return cut(piece, depth, key)

        return real(root, guarded, visit, stop, budget)

    monkeypatch.setattr(module, "subdivide", spy)
    with watch_subdivide(module, lambda piece, depth, key:
                         depth == budget and keys.append(key)):
        result = run()
    assert getattr(result, "verdict", Verdict.INCONCLUSIVE) is Verdict.INCONCLUSIVE
    assert any(key is not None for key in keys)
    assert max(pushed) == max(split) == budget - 1


def test_uniform_budget_holds_one_level_below_it(monkeypatch):
    # (x - 1/5)^2 (1 + x + y + z)^8 + 1/100 over 1 + x^2 + y + z on the
    # standard 3-simplex at budget 2: a round makes 64 pieces, so level 1
    # is the 64 pieces the frontier holds at most, and the 4,096 of level 2
    # are counted as they are visited.
    n = 3
    unit = [tuple(int(c == i) for c in range(n)) for i in range(n)]
    zero = (0,) * n
    terms = {zero: F(1, 25), (1, 0, 0): F(-2, 5), (2, 0, 0): 1}
    for _ in range(8):
        terms = mul_terms(terms, {zero: 1, **{e: 1 for e in unit}})
    terms[zero] += F(1, 100)
    num = PowerPoly(n, terms)
    den = PowerPoly(n, {zero: 1, (2, 0, 0): 1, unit[1]: 1, unit[2]: 1})
    push, sizes = ratpatch.heappush, []
    monkeypatch.setattr(ratpatch, "heappush",
                        lambda heap, entry: push(heap, entry) or sizes.append(len(heap)))
    result = _partial(num, den, standard_simplex(n), F(1, 10 ** 12), budget=2,
                      mode="uniform")
    assert (result.lower, result.upper, result.steps, result.leaves) == (
        F(-232, 4415), F(1, 184), 2, 4096)
    assert max(sizes) == 64


@pytest.mark.parametrize("call", [
    lambda p: certify_local(*p[:3], n_max=-1),
    lambda p: certify_negative(*p[:3], via="local", n_max=-2),
    lambda p: minimize(*p[:3], F(1, 8), budget=-1),
    lambda p: minimize(*p[:3], F(1, 8), budget=-1, mode="uniform"),
], ids=["certify_local", "certify_negative", "best-first", "uniform"])
def test_negative_budgets_are_rejected(call):
    with pytest.raises(ValueError, match="must be nonnegative"):
        call(DIP)
