"""Shared builders and independent oracles for the test suite.

Oracles here deliberately avoid the library code paths they are used to
check: determinants and linear solves are re-implemented, expected Bernstein
coefficients come from interpolation at grid points, extrema of corpus
functions are closed-form by construction, the subdivision driver's
carried edge lengths are checked against a copy of it that carries vertex
rows and measures every piece's edges afresh (``ref_refine_ints``), and
best-first ``minimize``'s integer keys against the ``Fraction`` keys they
replaced (``ref_best_first_key``), and the integer reader of problem
files against the ``Fraction`` parser it sits in front of
(``parse_rational_oracle``), and the conversion on the global scan's
elevation step against the factorial binomial transform on the edge
split's de Casteljau triangle it replaced (``ref_to_bernstein``), and the
integer convergence constants against the ``Fraction`` formula, one
``Fraction`` per coefficient and per second difference
(``ref_convergence_constants``).
"""

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd
import random
import sys
from typing import NamedTuple, Tuple

from bernbound import (
    PowerPoly,
    Simplex,
    standard_simplex,
    to_bernstein,
)
from bernbound import certify
from bernbound.errors import DegenerateSimplex, DenominatorNotPositive
from bernbound.geometry import _bisect_rows, round_length
from bernbound.indexing import enumerate_indices, multinomials, split_table, vertex_positions
from bernbound.polypatch import BernsteinPatch, _triangle, split_nums
from bernbound.powerpoly import _pullback
from bernbound.ratpatch import Piece, RationalPatch, _refine_ints, rational_patch

F = Fraction


def parse_rational_oracle(value):
    """The rational parser as a ``Fraction`` rule alone: ``"p/q"``,
    decimals, exponents and ints, bools refused, and the interpreter's digit
    limit on the exponent and on the reduced value (the library's
    ``parse_rational`` before its strings were read on integers)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            _, marker, exponent = value.lower().rpartition("e")
            limit = getattr(sys, "get_int_max_str_digits", int)()
            if marker and limit and abs(int(exponent)) >= limit:
                raise ValueError(f"10^|exponent| has more than {limit} digits")
            parsed = Fraction(value.strip())
            big = max(abs(parsed.numerator), parsed.denominator)
            if limit and big.bit_length() > 3 * limit and big >= 10 ** limit:
                raise ValueError(f"more than {limit} digits")
            return parsed
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational number: {value!r}") from exc
    raise ValueError(f"not a rational number: {value!r}")


# ---------------------------------------------------------------------------
# Reference rational functions (univariate, degree 2)
# ---------------------------------------------------------------------------

def fn_dip():
    """(7x^2 - 5x + 1) / (x^2 - 2x + 7) on [-1, 1].

    Positive on the interval but with a negative middle coefficient at
    degree 2, so enclosure-based positivity needs elevation or subdivision.
    """
    num = PowerPoly.univariate([1, -5, 7])
    den = PowerPoly.univariate([7, -2, 1])
    return num, den, Simplex.from_interval(-1, 1)


def fn_cert3():
    """(5x^2 - 3x + 1) / (x^2 + 1) on [0, 1].

    Positive on the interval; its degree-3 coefficient list is the smallest
    one that is nonnegative with positive vertex entries.
    """
    num = PowerPoly.univariate([1, -3, 5])
    den = PowerPoly.univariate([1, 0, 1])
    return num, den, Simplex.from_interval(0, 1)


# ---------------------------------------------------------------------------
# Random instance generation (seeded, deterministic)
# ---------------------------------------------------------------------------

def random_fraction(rng, span=9, max_den=6):
    return F(rng.randint(-span, span), rng.randint(1, max_den))


def random_simplex(rng, n):
    """A mildly perturbed standard simplex (always non-degenerate retry loop)."""
    while True:
        vertices = []
        base = standard_simplex(n).vertices
        for v in base:
            vertices.append([c + F(rng.randint(-1, 1), 4) for c in v])
        try:
            return Simplex(vertices)
        except DegenerateSimplex:
            continue


def random_poly(rng, n, degree, span=9, max_den=4):
    """Random polynomial of exact total degree ``degree``."""
    terms = {}
    exponents = _exponents_up_to(n, degree)
    for exps in exponents:
        if rng.random() < 0.6:
            terms[exps] = random_fraction(rng, span, max_den)
    slot = rng.randrange(n)
    top = tuple(degree if i == slot else 0 for i in range(n))
    terms[top] = random_fraction(rng, span, max_den) or F(1)
    return PowerPoly(n, terms)


def _exponents_up_to(n, degree):
    out = []

    def rec(prefix, remaining):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e)

    rec([], degree)
    return out


def positive_denominator(rng, n, degree, simplex):
    """A polynomial whose Bernstein patch over ``simplex`` is positive.

    Constructed by rejection: a dominant positive constant plus small random
    terms, re-drawn until every coefficient of the patch is positive.
    """
    while True:
        terms = {}
        for exps in _exponents_up_to(n, degree):
            if sum(exps) and rng.random() < 0.5:
                terms[exps] = F(rng.randint(-2, 2), 8)
        terms[(0,) * n] = F(rng.randint(3, 9))
        poly = PowerPoly(n, terms)
        patch = to_bernstein(poly, max(poly.degree, 1), simplex)
        if all(c > 0 for c in patch.coeffs):
            return poly


def random_point_in(rng, simplex, span=20):
    """Exact rational point of |simplex| via random barycentric weights."""
    n = simplex.dimension
    weights = [rng.randint(0, span) for _ in range(n + 1)]
    if sum(weights) == 0:
        weights[0] = 1
    total = sum(weights)
    lam = [F(w, total) for w in weights]
    return tuple(
        sum(l * v[c] for l, v in zip(lam, simplex.vertices))
        for c in range(n)
    )


def rational_instances(count, seed, max_n=3, max_l=4, standard_only=False):
    """Deterministic stream of (pnum, pden, simplex, degree) instances."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, max_n)
        l = rng.randint(1, max_l)
        if standard_only or rng.random() < 0.5:
            simplex = standard_simplex(n)
        else:
            simplex = random_simplex(rng, n)
        pnum = random_poly(rng, n, l)
        pden = positive_denominator(rng, n, rng.randint(0, l), simplex)
        degree = max(pnum.degree, pden.degree) + rng.randint(0, 2)
        try:
            rational_patch(pnum, pden, simplex, degree)
        except DenominatorNotPositive:
            continue
        out.append((pnum, pden, simplex, degree))
    return out


# ---------------------------------------------------------------------------
# Univariate corpus with closed-form extrema
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PinnedRational:
    """f = fmin + scale*(x - argmin)^2 / den on [0, 1].

    den has positive coefficients (so its Bernstein patch is positive) and
    2*den - (x - argmin)*den' is linear and positive on [0, 1], which forces
    the only interior critical point to be the minimum at argmin; the maximum
    therefore sits at an endpoint.  Both extrema are exact by construction.
    """

    num: PowerPoly
    den: PowerPoly
    domain: Simplex
    fmin: Fraction
    fmax: Fraction
    argmin: Fraction
    num_min: Fraction


_CORPUS_PARAMS = [
    # (fmin, argmin, scale, den_linear, den_quad)
    (F(1, 2), F(1, 3), F(1), F(0), F(1)),
    (F(1), F(1, 2), F(2), F(1), F(0)),
    (F(2), F(1, 4), F(1, 2), F(1, 2), F(1, 2)),
    (F(1, 4), F(3, 4), F(3), F(0), F(0)),
    (F(3, 2), F(0), F(1), F(2), F(1)),
    (F(1, 2), F(1), F(5, 2), F(1), F(1)),
    (F(3), F(2, 3), F(1), F(0), F(2)),
    (F(5, 4), F(1, 5), F(4), F(1, 4), F(0)),
    (F(1, 3), F(2, 5), F(2), F(3), F(1)),
    (F(1, 8), F(2, 5), F(6), F(1, 2), F(1)),
    (F(1), F(1, 8), F(6), F(1), F(2)),
    (F(1, 10), F(1, 2), F(4), F(0), F(1)),
    (F(1, 2), F(3, 5), F(3, 2), F(2), F(2)),
    (F(5, 2), F(1, 6), F(2), F(0), F(1)),
    (F(3, 4), F(5, 6), F(5), F(1), F(1, 4)),
    (F(2), F(1, 2), F(7, 2), F(1, 3), F(1)),
    (F(1, 6), F(5, 8), F(8), F(1), F(0)),
    (F(4, 3), F(2, 7), F(3), F(0), F(3)),
    (F(1, 2), F(9, 10), F(2), F(1, 2), F(1)),
    (F(3), F(3, 8), F(1, 2), F(2), F(1, 2)),
]


def _quadratic_min_on_unit(a, b, c):
    """Exact min of a*x^2 + b*x + c on [0, 1] (independent closed form)."""
    candidates = [c, a + b + c]
    if a > 0:
        vertex = -b / (2 * a)
        if 0 <= vertex <= 1:
            candidates.append(c - b * b / (4 * a))
    elif a < 0:
        pass  # concave: endpoints already cover it
    return min(candidates)


def pinned_corpus():
    """Twenty positive univariate rationals with exact extrema on [0, 1]."""
    out = []
    domain = Simplex.from_interval(0, 1)
    for fmin, argmin, scale, q1, q2 in _CORPUS_PARAMS:
        den = PowerPoly.univariate([F(1), q1, q2])
        # num = fmin*den + scale*(x - argmin)^2, assembled coefficientwise
        a0 = fmin * 1 + scale * argmin ** 2
        a1 = fmin * q1 - 2 * scale * argmin
        a2 = fmin * q2 + scale
        num = PowerPoly.univariate([a0, a1, a2])
        den_at_1 = 1 + q1 + q2
        f0 = a0  # den(0) = 1
        f1 = (a0 + a1 + a2) / den_at_1
        fmax = max(f0, f1)
        num_min = _quadratic_min_on_unit(a2, a1, a0)
        out.append(
            PinnedRational(num, den, domain, fmin, fmax, argmin, num_min)
        )
    return out


# ---------------------------------------------------------------------------
# Multivariate problems with a closed-form minimum
# ---------------------------------------------------------------------------

def closed_form(m, s, weights, slopes, offset):
    """f = m + s * |x - a|^2 / q over the standard n-simplex shifted by
    ``offset``, with n = len(slopes): ``closed_form_on`` that simplex, so
    q = 1 + sum slopes_i * (x_i - offset_i).  Returns (num, den, simplex,
    a)."""
    n = len(slopes)
    vertices = [list(offset)] + [
        [o + (c == i) for c, o in enumerate(offset)] for i in range(n)]
    return closed_form_on(m, s, weights, slopes, vertices)


def closed_form_on(m, s, weights, slopes, vertices):
    """f = m + s * |x - a|^2 / q over the simplex of ``vertices``, with
    n = len(slopes).

    q = 1 + sum slopes_i * (x_i - low_i), where low_i is the smallest i-th
    vertex coordinate, with nonnegative slopes is at least 1 at every
    vertex, so its Bernstein coefficients are positive; the point a
    (barycentric ``weights``, all positive) lies strictly inside, so the
    exact minimum is m, attained at a.  Returns (num, den, simplex, a).
    """
    n = len(slopes)
    vertices = [[F(c) for c in v] for v in vertices]
    total = sum(weights)
    a = tuple(sum(w * v[c] for w, v in zip(weights, vertices)) / total
              for c in range(n))
    low = [min(v[c] for v in vertices) for c in range(n)]
    zero = (0,) * n

    def unit(i, power):
        return tuple(power if c == i else 0 for c in range(n))

    den = {zero: 1 - sum(c * o for c, o in zip(slopes, low))}
    for i, c in enumerate(slopes):
        den[unit(i, 1)] = c
    num = {e: m * c for e, c in den.items()}
    num[zero] += s * sum(x * x for x in a)
    for i, x in enumerate(a):
        num[unit(i, 1)] -= 2 * s * x
        num[unit(i, 2)] = s
    return PowerPoly(n, num), PowerPoly(n, den), Simplex(vertices), a


def index_positions(k, n):
    """Each degree-k multi-index over an n-simplex, mapped to its canonical
    position."""
    return {alpha: p for p, alpha in enumerate(enumerate_indices(k, n))}


def mul_terms(a, b):
    """Product of two polynomials given as {exponents: coefficient} dicts."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exp = tuple(x + y for x, y in zip(ea, eb))
            out[exp] = out.get(exp, F(0)) + ca * cb
    return out


def dense_sample(simplex, steps):
    """Every point sum beta_i v_i / steps with |beta| = steps, exactly."""
    verts = simplex.vertices
    n = len(verts) - 1

    def weights(left, parts):
        if parts == 1:
            yield (left,)
            return
        for first in range(left + 1):
            for rest in weights(left - first, parts - 1):
                yield (first,) + rest

    for beta in weights(steps, n + 1):
        yield tuple(sum(b * v[c] for b, v in zip(beta, verts)) / steps
                    for c in range(n))


# ---------------------------------------------------------------------------
# Subdivision pieces as patches
# ---------------------------------------------------------------------------

def refine(patch, threshold_sq):
    """At least one shrink round of a rational patch, then more on every
    piece whose squared diameter still exceeds ``threshold_sq``: the
    library's integer driver, ``ratpatch._refine_ints``, on numerator and
    denominator together, each leaf turned back into a checked
    ``RationalPatch``.  The tests check it against repeated ``split_edge``
    on the longest edge."""
    threshold = threshold_sq.numerator, threshold_sq.denominator
    return [RationalPatch(*piece.patches())
            for piece in _refine_ints(Piece.of((patch.num, patch.den)), threshold)]


def ref_edge_lengths(rows):
    """Squared lengths of every edge (i, j), i < j, of integer vertex rows,
    by a pair loop in lexicographic order."""
    return [sum((a - b) ** 2 for a, b in zip(vi, rows[j]))
            for i, vi in enumerate(rows) for j in range(i + 1, len(rows))]


def ref_longest_ints(rows):
    """Squared length and (i, j) of the longest edge of integer vertex rows,
    by a pair loop; lowest (i, j) breaks ties."""
    best = (-1, 0, 0)
    for i, vi in enumerate(rows):
        for j in range(i + 1, len(rows)):
            d = sum((a - b) ** 2 for a, b in zip(vi, rows[j]))
            if d > best[0]:
                best = (d, i, j)
    return best


def ref_refine_ints(piece, threshold):
    """``ratpatch._refine_ints`` as it was before it carried edge lengths:
    every bisection child carries its vertex rows over their reduced
    denominator, its edges are all measured afresh from them
    (``ref_longest_ints``), and every other step is the driver's.  Returns
    each leaf's fields (rows, denom, lists, cuts, squared edge lengths over
    denom**2, measured in full by ``ref_edge_lengths``).  The lists split at
    the degree the piece's root holds."""
    n, k = len(piece.rows) - 1, piece.root[2]
    levels = round_length(n)
    budget = 5 * levels + 4

    def wider(longest, denom, bound):
        return longest[0] * bound[1] > bound[0] * denom * denom

    def quarter(longest, denom):
        return longest[0], 4 * denom * denom

    rows, denom = piece.rows, piece.denom
    longest = ref_longest_ints(rows)
    stack = [(rows, denom, piece.lists, longest, piece.cuts, 0, quarter(longest, denom))]
    leaves = []
    while stack:
        rows, denom, lists, longest, cuts, depth, target = stack.pop()
        if depth >= levels and not wider(longest, denom, target):
            if not wider(longest, denom, threshold):
                leaves.append((rows, denom, lists, cuts, ref_edge_lengths(rows)))
                continue
            target, depth = quarter(longest, denom), 0
        elif depth == budget:
            raise DegenerateSimplex("edge bisection failed to halve the diameter")
        _, i, j = longest
        rows_i, rows_j, denom = _bisect_rows(rows, denom, i, j)
        table = split_table(k, n, i, j)
        lists_i, lists_j = zip(*[split_nums(nums, table) for nums in lists])
        cuts, depth = cuts + 1, depth + 1
        stack.append((rows_j, denom, lists_j, ref_longest_ints(rows_j), cuts, depth, target))
        stack.append((rows_i, denom, lists_i, ref_longest_ints(rows_i), cuts, depth, target))
    return leaves


def ref_best_first_key(piece, scales):
    """Best-first ``minimize``'s heap key as it was before it ordered by
    integers: the piece's lower bound as a ``Fraction``, then its vertices
    (``Piece.signature``), which break ties."""
    nums, dens = piece.lists
    s, t = scales
    return min(F(a * t, b * s) for a, b in zip(nums, dens)), piece.signature()


# ---------------------------------------------------------------------------
# Watching the subdivision loop
# ---------------------------------------------------------------------------

@contextmanager
def watch_subdivide(module, watch):
    """Run ``module.subdivide``, the name a caller of the loop looks up, with
    ``watch(piece, depth, key)`` called after every ``visit`` with the key
    it returned.  Fails if the loop never ran under the spy, so a spy on the
    wrong name cannot pass with nothing watched."""
    real = module.subdivide
    calls = 0

    def spy(root, split, visit, stop):
        nonlocal calls
        calls += 1

        def watched(piece, depth):
            key = visit(piece, depth)
            watch(piece, depth, key)
            return key

        return real(root, split, watched, stop)

    module.subdivide = spy
    try:
        yield
    finally:
        module.subdivide = real
    assert calls, f"{module.__name__}.subdivide never ran"


class Leaf(NamedTuple):
    """One piece the local certificate tested; ``weight`` is the number of
    leaves it stands for (``Piece.weight``), 1 unless the split round that
    made it settled it."""

    depth: int
    simplex: Simplex
    ratios: Tuple[Fraction, ...]
    certified: bool
    weight: int


@contextmanager
def leaf_log(den):
    """The pieces one ``certify_local`` run inside the block tests, as
    ``Leaf`` records in visit order, up to and including the first piece
    with a refuting vertex.  A piece is certified when none of its ratios is
    negative and no vertex refutes it.

    The run splits its numerator alone, as plain pieces below its root
    rational patch.  Each record turns its piece back into the numerator
    patch on a checked simplex (``Piece.patches``, at the degree and scale
    the piece's root holds) and divides its coefficients by an independent
    conversion of ``den`` on that simplex.
    A denominator whose coefficients are all negative was negated with the
    numerator at the root, so its conversion is negated too."""
    log = []
    refuted = False

    def record(piece, depth, key):
        nonlocal refuted
        if refuted:
            return
        num, = piece.patches()
        q = to_bernstein(den, num.degree, num.simplex).coeffs
        if max(q) < 0:
            q = [-c for c in q]
        ratios = tuple(c / d for c, d in zip(num.coeffs, q))
        refuted = any(ratios[p] <= 0 for p in vertex_positions(num.degree, num.dimension))
        log.append(Leaf(depth, num.simplex, ratios, min(ratios) >= 0 and not refuted,
                        piece.weight))

    with watch_subdivide(certify, record):
        yield log


def interval_leaves(log, num, den):
    """A one-variable ``leaf_log`` with each settled record of weight w
    replaced by the w equal intervals the split would have cut from it, at
    its depth, each read from its own ``rational_patch``: the log of a run
    that cuts every leaf."""
    out = []
    for rec in log:
        if rec.weight == 1:
            out.append(rec)
            continue
        lo, hi = sorted(v for v, in rec.simplex.vertices)
        step = (hi - lo) / rec.weight
        for i in range(rec.weight):
            f = rational_patch(num, den, Simplex.from_interval(lo + i * step,
                                                               lo + (i + 1) * step))
            out.append(Leaf(rec.depth, f.simplex, f.ratios, certify.cert_predicate(f), 1))
    return out


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def encloses(outer, inner):
    """Whether the interval ``outer`` contains the interval ``inner``."""
    return outer.lo <= inner.lo and inner.hi <= outer.hi


def grid_point(alpha, k, simplex):
    """The grid point (alpha_0 v_0 + ... + alpha_n v_n) / k, from
    ``simplex.vertices``."""
    return tuple(sum(a * v[c] for a, v in zip(alpha, simplex.vertices)) / k
                 for c in range(simplex.dimension))


def ref_grid_sum(nums, degree, dimension, weights):
    """The integer scale * W^k * p(weights / W) of the numerators ``nums``
    of a degree-k patch over a ``dimension``-simplex, for integer
    barycentric weights with W = sum(weights), by a loop over the indices:
    sum nums[beta] * multinomial(k; beta) * prod w_i^beta_i, rebuilt on
    every call (the grid valuer before ``indexing.weight_row``)."""
    powers = [[a ** e for e in range(degree + 1)] for a in weights]
    total = 0
    for beta, num in zip(enumerate_indices(degree, dimension), nums):
        if num:
            term = num * _multinomial(degree, beta)
            for row, b in zip(powers, beta):
                term *= row[b]
            total += term
    return total


def inside(inner, outer):
    """Whether every vertex of the simplex ``inner`` lies in the simplex
    ``outer``: all its barycentric coordinates there are nonnegative."""
    return all(min(_barycentric_oracle(outer, v)) >= 0 for v in inner.vertices)


def det(matrix):
    """Fraction determinant by cofactor expansion (small matrices only)."""
    size = len(matrix)
    if size == 1:
        return matrix[0][0]
    total = F(0)
    for col in range(size):
        if not matrix[0][col]:
            continue
        minor = [row[:col] + row[col + 1:] for row in matrix[1:]]
        sign = -1 if col % 2 else 1
        total += sign * matrix[0][col] * det(minor)
    return total


def simplex_volume_scaled(simplex):
    """|det(v_i - v_0)|: n! times the volume; enough for ratio tests."""
    v0 = simplex.vertices[0]
    edges = [
        [vi[c] - v0[c] for c in range(simplex.dimension)]
        for vi in simplex.vertices[1:]
    ]
    return abs(det(edges))


def _solve_fraction_system(matrix, rhs):
    size = len(matrix)
    aug = [list(matrix[i]) + [rhs[i]] for i in range(size)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(size):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][size] for r in range(size)]


def _barycentric_oracle(simplex, point):
    n = simplex.dimension
    matrix = [[F(1)] * (n + 1)]
    for c in range(n):
        matrix.append([v[c] for v in simplex.vertices])
    return _solve_fraction_system(matrix, [F(1)] + list(point))


def _multinomial(k, alpha):
    result = 1
    remaining = k
    for a in alpha:
        result *= comb(remaining, a)
        remaining -= a
    return result


def ref_to_bernstein(poly, degree, simplex):
    """``to_bernstein`` as a binomial transform: the pulled-back terms
    A_beta over S, each times beta! (degree - |beta|)!, scattered into the
    grid; along each axis the transform g(x) = sum_b C(x, b) f(b) is the
    first entry of the x-th level of the de Casteljau triangle of the edge
    (0, axis), read for the child keeping v_0; b_alpha is the result over
    S * degree!, reduced by one gcd.  Every triangle entry carries the
    factorials, about log2(degree!) bits."""
    n = simplex.dimension
    width = degree.bit_length()
    total = factorial(degree)
    table = {}
    for pos, (alpha, weight) in enumerate(zip(enumerate_indices(degree, n),
                                              multinomials(degree, n))):
        key = sum(e << (width * j) for j, e in enumerate(alpha[1:]))
        table[key] = (pos, total // weight)
    v0 = simplex.ints[0]
    packed, scale = _pullback(poly, v0, [[a - b for a, b in zip(vi, v0)]
                                         for vi in simplex.ints[1:]], simplex.denom, width)
    scale *= total
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


def bernstein_by_interpolation(poly, degree, simplex):
    """Bernstein coefficients via interpolation at the grid points.

    Builds the basis-evaluation matrix at the degree-``degree`` grid points
    and solves for the coefficients; independent of the conversion formula
    under test.
    """
    iset = enumerate_indices(degree, simplex.dimension)
    points = [grid_point(alpha, degree, simplex) for alpha in iset]
    matrix = []
    for point in points:
        lam = _barycentric_oracle(simplex, point)
        row = []
        for alpha in iset:
            value = F(_multinomial(degree, alpha))
            for l, a in zip(lam, alpha):
                if a:
                    value *= l ** a
            row.append(value)
        matrix.append(row)
    values = [poly.eval(point) for point in points]
    return tuple(_solve_fraction_system(matrix, values))


def ref_second_differences(coeffs, k, n):
    """The (key, value) entries of ``second_differences`` and their sup
    norm, one ``Fraction`` per entry."""
    pos = index_positions(k, n)

    def shifted(gamma, a, b):
        out = list(gamma)
        out[a] += 1
        out[b] += 1
        return coeffs[pos[tuple(out)]]

    items = []
    for gamma in enumerate_indices(k - 2, n):
        for i in range(n + 1):
            prev_i = (i - 1) % (n + 1)
            for j in range(i + 1, n + 1):
                value = (shifted(gamma, i, j - 1) + shifted(gamma, prev_i, j)
                         - shifted(gamma, prev_i, j - 1) - shifted(gamma, i, j))
                items.append(((tuple(gamma), i, j), value))
    return tuple(items), max((abs(v) for _, v in items), default=F(0))


def ref_convergence_constants(f, degree=None):
    """``convergence_constants`` by the plain formula: (zeta, omega,
    omega_prime, min_den, base degree, working degree), one ``Fraction``
    per coefficient and per second difference."""
    n, base = f.dimension, f.degree
    degree = base if degree is None else degree
    min_den = min(f.den.coeffs)
    zeta = max(abs(r) for r in f.ratios)
    if base >= 2:
        norm_p = ref_second_differences(f.num.coeffs, base, n)[1]
        norm_q = ref_second_differences(f.den.coeffs, base, n)[1]
    else:
        norm_p = norm_q = F(0)
    mixed = norm_p + zeta * norm_q
    omega = F(n * (n + 2) * base * (base - 1), 24) / min_den * mixed
    omega_prime = (degree * F(n * n * (n + 1) * (n + 2) ** 2 * (n + 3), 576)
                   / min_den * mixed)
    return zeta, omega, omega_prime, min_den, base, degree
