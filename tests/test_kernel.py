"""Differential tests: the integer Bernstein kernel against a Fraction
reference.

The references below are the plain exact formulas, one ``Fraction`` per
coefficient and a dict lookup per index move.  The kernel under test stores
integer numerators over one shared scale, elevates through gather tables
(and, in the global scan, as homogeneous integers by plain sums), splits by
integer de Casteljau, pulls back by integer Horner, converts by an
integer binomial transform (pullback and conversion fused in one kernel,
checked against the two-stage Fraction path) and reads second differences
through a position table; every result must be exactly equal.  The simplex geometry under the
split layer is checked the same way: the integer rank check and the
integer barycentric solve against Fraction Gauss-Jordan, the longest edge measured on integers against a
Fraction pair loop, and grid-point values from integer sums against
evaluation through barycentric coordinates.  Integer vertices are checked
against Fraction midpoints along bisection chains, the integer leaf tests
(smallest ratio, vertex ratios, refuting vertex) and the cross-multiplied
enclosure and sharpness (on patches full of ties) against the full ratio
tuple, and the integer pullback result against the ``PowerPoly`` built from
the Fraction reference.  One split round, run as an integer kernel on
plain data, is checked against the chain of single edge splits it replaces
and against reconversion on every leaf, and so is its halving guard, on
rounds cut short so that the guard must act.  The identity that lets
pieces below a checked root go unchecked, that bisection halves
|det(v_l - v_0)| exactly, is checked along bisection chains and on
refinement leaves against a Fraction cofactor determinant.  The squared
edge lengths the driver carries through bisection by the median rule,
forming no vertex rows, and the rows each leaf replays from its bisection
path, are checked against a copy of the driver that carries rows and
measures every child's edges afresh (``conftest.ref_refine_ints``).
"""

from fractions import Fraction as F
from math import comb, lcm, prod

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from bernbound import (  # noqa: E402
    BernsteinPatch,
    PowerPoly,
    RationalPatch,
    Simplex,
    enumerate_indices,
    rational_patch,
    round_length,
    standard_simplex,
    to_bernstein,
)
from bernbound import geometry, ratpatch  # noqa: E402
from bernbound.certify import _refuting_vertex, cert_predicate  # noqa: E402
from bernbound.errors import (  # noqa: E402
    DegenerateSimplex,
    DenominatorNotPositive,
    DimensionMismatch,
    InvalidArgument,
)
from bernbound.geometry import (  # noqa: E402
    affine_pullback,
    barycentric,
    bisect_edge,
    diameter_sq,
    longest_edge,
)
from bernbound.indexing import multinomials, vertex_positions  # noqa: E402
from bernbound.optimize import _upper_bound, local_bounds  # noqa: E402
from bernbound.polypatch import _elevate_homogeneous, _homogeneous  # noqa: E402
from bernbound.ratpatch import _wider  # noqa: E402
from conftest import (  # noqa: E402
    _multinomial,
    det,
    grid_point,
    index_positions,
    mul_terms,
    ref_refine_ints,
    refine,
)

KERNEL = settings(max_examples=40, deadline=None, derandomize=True, database=None)

SIGNED = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-99, 99), st.integers(1, 12)),
)
POSITIVE = st.builds(F, st.integers(1, 99), st.integers(1, 12))
NONZERO = st.one_of(POSITIVE, st.builds(F, st.integers(-99, -1), st.integers(1, 12)))
NONNEGATIVE = st.one_of(st.just(F(0)), POSITIVE)


def ref_elevate(coeffs, k, n):
    pos = index_positions(k, n)
    out = []
    for beta in enumerate_indices(k + 1, n):
        total = F(0)
        for i, bi in enumerate(beta):
            if bi:
                lowered = beta[:i] + (bi - 1,) + beta[i + 1:]
                total += bi * coeffs[pos[lowered]]
        out.append(total / (k + 1))
    return tuple(out)


def ref_elevate_nums(nums, k, n):
    """Integer elevation: sum_i beta_i * nums_{beta - e_i}, over scale * (k + 1)."""
    pos = index_positions(k, n)
    out = []
    for beta in enumerate_indices(k + 1, n):
        out.append(sum(bi * nums[pos[beta[:i] + (bi - 1,) + beta[i + 1:]]]
                       for i, bi in enumerate(beta) if bi))
    return tuple(out)


def ref_split(coeffs, k, n, i, j):
    pos = index_positions(k, n)
    left, right = [], []
    for alpha in enumerate_indices(k, n):
        ai, aj = alpha[i], alpha[j]
        acc = F(0)
        for t in range(aj + 1):
            moved = list(alpha)
            moved[i] += t
            moved[j] -= t
            acc += comb(aj, t) * coeffs[pos[tuple(moved)]]
        left.append(acc / 2 ** aj)
        acc = F(0)
        for u in range(ai + 1):
            moved = list(alpha)
            moved[i] -= u
            moved[j] += u
            acc += comb(ai, u) * coeffs[pos[tuple(moved)]]
        right.append(acc / 2 ** ai)
    return tuple(left), tuple(right)


def ref_predicate(ratios, k, n):
    vertices = vertex_positions(k, n)
    return all(r >= 0 for r in ratios) and all(ratios[p] > 0 for p in vertices)


def ref_substitute_affine(poly, origin, directions):
    """Every monomial re-expanded factor by factor."""
    m = len(directions)
    zero_exp = (0,) * m
    forms = []
    for i in range(poly.dimension):
        form = {zero_exp: F(origin[i])} if origin[i] else {}
        for j, direction in enumerate(directions):
            if direction[i]:
                form[tuple(int(jj == j) for jj in range(m))] = F(direction[i])
        forms.append(form)
    out = {}
    for exps, coeff in poly.iter_terms():
        prod = {zero_exp: coeff}
        for i, e in enumerate(exps):
            for _ in range(e):
                prod = mul_terms(prod, forms[i])
        for exp, c in prod.items():
            out[exp] = out.get(exp, F(0)) + c
    return PowerPoly(m, out)


def ref_to_bernstein_standard(poly, degree):
    """b_alpha = sum over beta <= alpha_hat of C(alpha_hat, beta) /
    C(degree, beta) * a_beta, one Fraction per term."""
    out = []
    for alpha in enumerate_indices(degree, poly.dimension):
        ahat = alpha[1:]
        total = F(0)
        for bhat, coeff in poly.iter_terms():
            if all(b <= a for b, a in zip(bhat, ahat)):
                total += F(prod(map(comb, ahat, bhat)), _multinomial(degree, bhat)) * coeff
        out.append(total)
    return tuple(out)


def ref_second_differences(coeffs, k, n):
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


def ref_convergence_constants(f, degree):
    """(zeta, omega, omega_prime, min_den) by the plain formula: one
    ``Fraction`` per coefficient and per second difference."""
    n, base = f.dimension, f.degree
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
    return zeta, omega, omega_prime, min_den


def ref_longest(simplex):
    """Squared length and (i, j) of the longest edge by a Fraction pair
    loop; lowest (i, j) breaks ties."""
    verts = simplex.vertices
    best = (F(-1), 0, 0)
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            d = sum((a - b) ** 2 for a, b in zip(verts[i], verts[j]))
            if d > best[0]:
                best = (d, i, j)
    return best


def ref_gauss_jordan(rows):
    """Exact Gauss-Jordan elimination in place on the square left block of
    ``rows`` (columns beyond it ride along); False if that block is singular.
    """
    size = len(rows)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot is None:
            return False
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(size):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return True


@st.composite
def polys(draw, n, max_degree=8, min_terms=0):
    """A sparse polynomial in n variables of degree at most max_degree,
    drawn with at least min_terms terms (a zero coefficient drops one)."""
    degree = draw(st.integers(0, max_degree))
    hats = [alpha[1:] for alpha in enumerate_indices(degree, n)]
    chosen = draw(st.lists(st.sampled_from(hats), min_size=min(min_terms, len(hats)),
                           max_size=8, unique=True))
    return PowerPoly(n, {hat: draw(SIGNED) for hat in chosen})


@st.composite
def simplices(draw, n):
    """The standard n-simplex or a random non-degenerate one."""
    if draw(st.booleans()):
        return standard_simplex(n)
    vertices = draw(st.lists(st.lists(SIGNED, min_size=n, max_size=n),
                             min_size=n + 1, max_size=n + 1))
    try:
        return Simplex(vertices)
    except DegenerateSimplex:
        assume(False)


@st.composite
def patches(draw, values=SIGNED):
    """(n, k, coefficients) over the standard n-simplex."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(0, 8))
    size = len(enumerate_indices(k, n))
    return n, k, tuple(draw(st.lists(values, min_size=size, max_size=size)))


@st.composite
def rational_patches(draw):
    """Numerator and positive denominator coefficients sharing n and k.  Half
    of the numerators are nonnegative with positive vertex entries, so the
    predicate holds on them unless a zero interior entry is mishandled."""
    n, k, num = draw(patches(draw(st.sampled_from((SIGNED, NONNEGATIVE)))))
    if min(num) >= 0:
        vertices = vertex_positions(k, n)
        num = tuple(c + (p in vertices) for p, c in enumerate(num))
    size = len(num)
    den = tuple(draw(st.lists(POSITIVE, min_size=size, max_size=size)))
    return n, k, num, den


def _edge(draw, n):
    i = draw(st.integers(0, n - 1))
    return i, draw(st.integers(i + 1, n))


@KERNEL
@given(patches(), st.integers(1, 2))
def test_elevate_matches_reference(case, steps):
    n, k, coeffs = case
    patch = BernsteinPatch(standard_simplex(n), k, coeffs)
    for step in range(steps):
        coeffs = ref_elevate(coeffs, k + step, n)
        up = patch.elevate()
        assert up.degree == k + step + 1
        assert up.coeffs == coeffs
        # The homogeneous sum step divided back by multinomial(k + 1; beta)
        # gives the weighted rule's integers, over the same scale.
        assert up.nums == ref_elevate_nums(patch.nums, patch.degree, n)
        assert up.scale == patch.scale * (patch.degree + 1)
        patch = up


@KERNEL
@given(patches(), st.integers(1, 12))
def test_homogeneous_elevation_matches_patch_elevation(case, steps):
    # c_k * scale_k == nums_k * multinomial_k * scale_base at every degree;
    # the vertex entries keep the root's values, so the scan's rule (root
    # vertices positive, then no entry negative) reads the full predicate's
    # verdict at every degree; and no step grows the largest integer by
    # more than a factor n + 1.
    n, k, coeffs = case
    patch = BernsteinPatch(standard_simplex(n), k, coeffs)
    base_scale = patch.scale
    c = _homogeneous(patch)
    root_vertices = [c[p] for p in vertex_positions(patch.degree, patch.dimension)]
    vertices_pass = min(root_vertices) > 0
    for _ in range(steps):
        assert (vertices_pass and min(c) >= 0) == ref_predicate(patch.coeffs, patch.degree, n)
        peak = max(map(abs, c))
        c = _elevate_homogeneous(c, patch.degree, n)
        patch = patch.elevate()
        assert c[-1] == 0 and len(c) == len(patch.nums) + 1
        assert all(a * patch.scale == b * w * base_scale for a, b, w in
                   zip(c, patch.nums, multinomials(patch.degree, n)))
        assert [c[p] for p in vertex_positions(patch.degree, patch.dimension)] == root_vertices
        assert max(map(abs, c)) <= (n + 1) * peak
    assert (vertices_pass and min(c) >= 0) == ref_predicate(patch.coeffs, patch.degree, n)


@KERNEL
@given(patches(), st.data())
def test_split_edge_matches_reference(case, data):
    n, k, coeffs = case
    simplex = standard_simplex(n)
    patch = BernsteinPatch(simplex, k, coeffs)
    # A second split works on a scale that is no longer the lcm of the
    # coefficient denominators.
    for _ in range(2):
        i, j = _edge(data.draw, n)
        left, right = patch.split_edge(i, j)
        want_left, want_right = ref_split(patch.coeffs, k, n, i, j)
        assert (left.simplex, right.simplex) == bisect_edge(patch.simplex, i, j)
        assert left.coeffs == want_left
        assert right.coeffs == want_right
        patch = data.draw(st.sampled_from((left, right)))


@KERNEL
@given(rational_patches(), st.data())
def test_ratios_and_predicate_match_reference(case, data):
    n, k, num, den = case
    simplex = standard_simplex(n)
    f = RationalPatch(BernsteinPatch(simplex, k, num), BernsteinPatch(simplex, k, den))
    if data.draw(st.booleans()):
        num, den = ref_elevate(num, k, n), ref_elevate(den, k, n)
        f, k = f.elevate(), k + 1
    if data.draw(st.booleans()):
        i, j = _edge(data.draw, n)
        num = ref_split(num, k, n, i, j)[0]
        den = ref_split(den, k, n, i, j)[0]
        f = f.split_edge(i, j)[0]
    ratios = tuple(p / q for p, q in zip(num, den))
    assert f.ratios == ratios
    vertices = vertex_positions(k, n)
    assert tuple(map(f.ratio, vertices)) == tuple(ratios[p] for p in vertices)
    assert cert_predicate(f) == ref_predicate(ratios, k, n)


@KERNEL
@given(patches())
def test_denominator_offenders_match_reference(case):
    n, k, den = case
    simplex = standard_simplex(n)
    ones = BernsteinPatch(simplex, k, (1,) * len(den))
    patch = BernsteinPatch(simplex, k, den)
    offenders = tuple(tuple(alpha) for alpha, c in zip(enumerate_indices(k, n), den)
                      if c <= 0)
    if not offenders:
        assert RationalPatch(ones, patch).ratios == tuple(1 / c for c in den)
        return
    with pytest.raises(DenominatorNotPositive) as info:
        RationalPatch(ones, patch)
    assert info.value.indices == offenders


@settings(KERNEL, max_examples=100)
@given(st.data())
def test_to_bernstein_matches_reference(data):
    # The fused kernel against the two-stage Fraction path: pull back, then
    # convert.  Zero and constant polynomials, n = 4, target degrees above
    # the polynomial's, and the standard simplex both as the cached object
    # and built from its vertices (both take the kernel's no-pullback path).
    n = data.draw(st.integers(1, 4))
    shape = data.draw(st.sampled_from(("sparse", "sparse", "zero", "constant")))
    if shape == "sparse":
        poly = data.draw(polys(n, 8 if n < 4 else 4, min_terms=2))
    elif shape == "zero":
        poly = PowerPoly.zero(n)
    else:
        poly = PowerPoly.constant(n, data.draw(SIGNED))
    degree = poly.degree + data.draw(st.integers(0, 3))
    where = data.draw(st.sampled_from(("random", "random", "cached", "built")))
    if where == "cached":
        simplex = standard_simplex(n)
    elif where == "built":
        simplex = Simplex([[int(i == j) for j in range(n)] for i in range(-1, n)])
    else:
        rows = data.draw(st.lists(st.lists(NONZERO, min_size=n, max_size=n),
                                  min_size=n + 1, max_size=n + 1))
        try:
            simplex = Simplex(rows)
        except DegenerateSimplex:
            assume(False)
    v0 = simplex.vertices[0]
    edges = [[a - b for a, b in zip(v, v0)] for v in simplex.vertices[1:]]
    pulled = ref_substitute_affine(poly, v0, edges)
    assert affine_pullback(simplex, poly) == pulled
    assert poly.substitute_affine(v0, edges) == pulled
    want = ref_to_bernstein_standard(pulled, degree)
    patch = to_bernstein(poly, degree, simplex)
    scale = lcm(*(c.denominator for c in want))
    assert patch.simplex == simplex
    assert patch.degree == degree
    assert patch.scale == scale
    assert patch.nums == tuple(c.numerator * (scale // c.denominator) for c in want)


@KERNEL
@given(st.data())
def test_substitute_affine_matches_reference(data):
    n = data.draw(st.integers(1, 3))
    m = data.draw(st.sampled_from([x for x in (1, 2, 3) if x != n]))
    poly = data.draw(polys(n))
    origin = data.draw(st.lists(SIGNED, min_size=n, max_size=n))
    directions = data.draw(st.lists(st.lists(SIGNED, min_size=n, max_size=n),
                                    min_size=m, max_size=m))
    got = poly.substitute_affine(origin, directions)
    want = ref_substitute_affine(poly, origin, directions)
    assert got == want
    assert hash(got) == hash(want)
    assert got.degree == want.degree
    assert tuple(got.iter_terms()) == tuple(want.iter_terms())
    degree = data.draw(st.integers(want.degree, 8))
    patch = to_bernstein(got, degree, standard_simplex(m))
    reference = to_bernstein(want, degree, standard_simplex(m))
    assert (patch.nums, patch.scale) == (reference.nums, reference.scale)


def test_substitute_affine_drops_cancelled_terms():
    # On the line x0 = x1 = t, x0^2 - x1^2 cancels: random draws almost
    # never hit an exact cancellation.
    poly = PowerPoly(2, {(2, 0): 1, (0, 2): -1, (1, 0): F(1, 2)})
    got = poly.substitute_affine([0, 0], [[1, 1]])
    want = PowerPoly(1, {(1,): F(1, 2)})
    assert got == want
    assert hash(got) == hash(want)
    assert got.degree == 1
    zero = PowerPoly(2, {(1, 0): 3, (0, 1): -3}).substitute_affine([1, 1], [[2, 2]])
    assert zero.is_zero()
    assert zero.degree == 0
    assert zero == PowerPoly.zero(1)


@pytest.mark.parametrize("directions, error", [
    ([[1, 0, 9], [0, 1]], DimensionMismatch),  # a direction too long
    ([[1, 0], [0]], DimensionMismatch),  # a direction too short
    ([], InvalidArgument),  # no direction: no variable to return
])
def test_substitute_affine_checks_directions(directions, error):
    poly = PowerPoly(2, {(1, 0): 1, (0, 1): 2})
    with pytest.raises(error):
        poly.substitute_affine([1, 1], directions)


def test_substitute_affine_checks_origin():
    with pytest.raises(DimensionMismatch):
        PowerPoly(2, {(1, 0): 1}).substitute_affine([1, 1, 1], [[1, 0], [0, 1]])


@KERNEL
@given(patches(), st.booleans())
def test_second_differences_match_reference(case, elevated):
    n, k, coeffs = case
    assume(k >= 2)
    patch = BernsteinPatch(standard_simplex(n), k, coeffs)
    if elevated:
        # An elevated patch's scale is no longer the lcm of its
        # coefficient denominators.
        patch, k = patch.elevate(), k + 1
    items, sup_norm = ref_second_differences(patch.coeffs, k, n)
    diffs = patch.second_differences()
    assert diffs.items == items
    assert diffs.sup_norm == sup_norm


# Denominators up to 12 and large coprime ones, so vertices of one simplex
# rarely share a denominator.
MIXED = st.one_of(
    SIGNED,
    st.builds(F, st.integers(-10**6, 10**6),
              st.sampled_from((999_983, 1_000_003, 2**31 - 1, 2**61 - 1))),
)


@st.composite
def vertex_sets(draw, n):
    """n + 1 points of R^n; in most draws one of them, put in a random slot,
    depends on others: a repeat, or a point on the line (for n = 3, also the
    plane) through others."""
    points = draw(st.lists(st.lists(MIXED, min_size=n, max_size=n),
                           min_size=n, max_size=n))
    kind = draw(st.sampled_from(("free", "repeat", "line", "plane")[:n + 1]))
    a, b, c = points[0], points[min(1, n - 1)], points[min(2, n - 1)]
    s, t = draw(MIXED), draw(MIXED)
    if kind == "free":
        extra = draw(st.lists(MIXED, min_size=n, max_size=n))
    elif kind == "repeat":
        extra = list(a)
    elif kind == "line":
        extra = [x + s * (y - x) for x, y in zip(a, b)]
    else:
        extra = [x + s * (y - x) + t * (z - x) for x, y, z in zip(a, b, c)]
    points.insert(draw(st.integers(0, n)), extra)
    return points


@KERNEL
@given(st.data())
def test_rank_check_matches_reference(data):
    n = data.draw(st.integers(1, 3))
    points = data.draw(vertex_sets(n))
    v0 = points[0]
    edges = [[F(x) - F(y) for x, y in zip(v, v0)] for v in points[1:]]
    if ref_gauss_jordan(edges):
        assert Simplex(points).vertices == tuple(tuple(p) for p in points)
    else:
        with pytest.raises(DegenerateSimplex):
            Simplex(points)


@KERNEL
@given(st.data())
def test_barycentric_matches_reference(data):
    # Integer Bareiss elimination and back substitution against Fraction
    # Gauss-Jordan on the same system.
    n = data.draw(st.integers(1, 3))
    simplex = data.draw(simplices(n))
    point = data.draw(st.lists(MIXED, min_size=n, max_size=n))
    rows = [[F(1)] * (n + 2)]
    for c in range(n):
        rows.append([v[c] for v in simplex.vertices] + [point[c]])
    assert ref_gauss_jordan(rows)
    assert barycentric(simplex, point) == tuple(row[-1] for row in rows)


@KERNEL
@given(st.data())
def test_longest_edge_matches_reference(data):
    n = data.draw(st.integers(1, 3))
    simplex = data.draw(simplices(n))
    # Bisection children reach every tie pattern the split layer meets:
    # the standard simplex and its halves have several longest edges.
    for _ in range(4):
        d, i, j = ref_longest(simplex)
        assert diameter_sq(simplex) == d
        assert longest_edge(simplex) == (i, j)
        for bound in (d, d / 4, data.draw(NONNEGATIVE)):
            assert _wider(max(geometry._edge_lengths(simplex.ints)), simplex.denom,
                          (bound.numerator, bound.denominator)) == (d > bound)
        edge = data.draw(st.sampled_from(((i, j), (0, n))))
        simplex = data.draw(st.sampled_from(bisect_edge(simplex, *edge)))


@KERNEL
@given(st.data())
def test_grid_value_matches_eval(data):
    n = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(1, 5))
    simplex = data.draw(simplices(n))
    size = len(enumerate_indices(k, n))
    num = data.draw(st.lists(SIGNED, min_size=size, max_size=size))
    den = data.draw(st.lists(POSITIVE, min_size=size, max_size=size))
    f = RationalPatch(BernsteinPatch(simplex, k, num), BernsteinPatch(simplex, k, den))
    i, j = _edge(data.draw, n)
    # ``_upper_bound`` at any position p: the least of the value at the
    # grid point of index p and the vertex values, the grid point winning
    # ties, each read as the function's exact value there.
    for piece in (f, *f.split_edge(i, j)):
        scales = piece.num.scale, piece.den.scale
        vertices = piece.simplex.vertices
        values = [piece.num.eval(v) / piece.den.eval(v) for v in vertices]
        for p, alpha in enumerate(enumerate_indices(k, n)):
            point = grid_point(alpha, k, piece.simplex)
            value = piece.num.eval(point) / piece.den.eval(point)
            if min(values) < value:
                value, point = min(values), vertices[values.index(min(values))]
            assert _upper_bound(ratpatch.Piece.of((piece.num, piece.den)), k, scales,
                                p) == (value, point)


@KERNEL
@given(st.data())
def test_bisection_chain_matches_fraction_midpoints(data):
    n = data.draw(st.integers(1, 3))
    simplex = data.draw(simplices(n))
    verts = list(simplex.vertices)
    for _ in range(5):
        i, j = _edge(data.draw, n)
        mid = tuple((a + b) / 2 for a, b in zip(verts[i], verts[j]))
        keep_i, keep_j = list(verts), list(verts)
        keep_i[j] = mid
        keep_j[i] = mid
        left, right = bisect_edge(simplex, i, j)
        assert [left.vertex(p) for p in range(n + 1)] == keep_i
        assert left.vertices == tuple(keep_i)
        assert right.vertices == tuple(keep_j)
        simplex, verts = data.draw(st.sampled_from(((left, keep_i), (right, keep_j))))


@KERNEL
@given(st.data())
def test_child_equals_simplex_built_from_its_vertices(data):
    n = data.draw(st.integers(1, 3))
    simplex = data.draw(simplices(n))
    for _ in range(4):
        edge = data.draw(st.sampled_from((longest_edge(simplex), _edge(data.draw, n))))
        simplex = data.draw(st.sampled_from(bisect_edge(simplex, *edge)))
        # The same vertices, each coordinate written over a non-reduced
        # denominator.
        factor = data.draw(st.integers(2, 6))
        written = [[f"{c.numerator * factor}/{c.denominator * factor}" for c in v]
                   for v in simplex.vertices]
        for again in (Simplex(simplex.vertices), Simplex(written)):
            assert again == simplex
            assert hash(again) == hash(simplex)
            assert (again.ints, again.denom) == (simplex.ints, simplex.denom)
            assert diameter_sq(again) == diameter_sq(simplex)


@KERNEL
@given(rational_patches(), st.data())
def test_leaf_tests_match_full_ratios(case, data):
    n, k, num, den = case
    simplex = data.draw(simplices(n))
    f = RationalPatch(BernsteinPatch(simplex, k, num), BernsteinPatch(simplex, k, den))
    if data.draw(st.booleans()):
        # A split child's scale is no longer the lcm of its denominators.
        i, j = _edge(data.draw, n)
        num = ref_split(num, k, n, i, j)[1]
        den = ref_split(den, k, n, i, j)[1]
        f = f.split_edge(i, j)[1]
    ratios = tuple(p / q for p, q in zip(num, den))
    m = min(ratios)
    assert ratpatch._min_position(f.num.nums, f.den.nums) == ratios.index(m)
    assert local_bounds(f)[0] == m
    vertices = vertex_positions(k, n)
    assert tuple(map(f.ratio, vertices)) == tuple(ratios[p] for p in vertices)
    refute = _refuting_vertex(f)
    first = next((i for i, p in enumerate(vertices) if ratios[p] <= 0), None)
    if first is None:
        assert refute is None
    else:
        assert refute.point == f.simplex.vertices[first]
        assert refute.value == ratios[vertices[first]]


@st.composite
def tied_patches(draw):
    """Rational patches whose ratios tie often: few distinct small values,
    and some constant functions (num = c * den) or patches with one value
    at every vertex."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(0, 4))
    simplex = draw(simplices(n))
    size = len(enumerate_indices(k, n))
    den = draw(st.lists(st.sampled_from([F(1), F(2), F(1, 3)]), min_size=size, max_size=size))
    shape = draw(st.sampled_from(["free", "constant", "equal-vertices"]))
    if shape == "constant":
        c = draw(st.sampled_from([F(-1), F(0), F(3, 2)]))
        num = [c * d for d in den]
    else:
        num = draw(st.lists(st.sampled_from([F(-1), F(0), F(1, 2), F(1), F(5, 3)]),
                            min_size=size, max_size=size))
        if shape == "equal-vertices":
            for p in vertex_positions(k, n):
                num[p] = den[p] / 2
    return RationalPatch(BernsteinPatch(simplex, k, num), BernsteinPatch(simplex, k, den))


@settings(KERNEL, max_examples=200)
@given(tied_patches())
def test_enclosure_and_sharpness_match_full_ratios(f):
    # The cross-multiplied extremes against min and max over Fraction
    # ratios, and each sharp vertex against the first vertex attaining it.
    ratios = [a / b for a, b in zip(f.num.coeffs, f.den.coeffs)]
    lo, hi = min(ratios), max(ratios)
    assert f.enclosure() == (lo, hi)
    assert f._extremes == (ratios.index(lo), ratios.index(hi))
    vertex = [ratios[p] for p in vertex_positions(f.degree, f.dimension)]
    min_vertex = vertex.index(lo) if lo in vertex else None
    max_vertex = vertex.index(hi) if hi in vertex else None
    assert f.sharpness() == (min_vertex is not None, max_vertex is not None,
                             min_vertex, max_vertex)


@st.composite
def rational_problems(draw):
    """(pnum, pden, simplex, k) with n in {1, 2, 3}, k in 1..4, a random
    simplex other than the standard one, a signed numerator and a
    denominator whose Bernstein coefficients on the simplex are positive: a
    constant added to a polynomial adds it to every coefficient."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 4))
    vertices = draw(st.lists(st.lists(SIGNED, min_size=n, max_size=n),
                             min_size=n + 1, max_size=n + 1))
    try:
        simplex = Simplex(vertices)
    except DegenerateSimplex:
        assume(False)
    assume(simplex != standard_simplex(n))
    pnum = draw(polys(n, k))
    pden = draw(polys(n, k))
    low = min(to_bernstein(pden, k, simplex).coeffs)
    terms = dict(pden.iter_terms())
    origin = (0,) * n
    terms[origin] = terms.get(origin, F(0)) + 1 - min(low, 0)
    return pnum, PowerPoly(n, terms), simplex, k


def _assert_same_leaves(got, want):
    assert [leaf.simplex for leaf in got] == [leaf.simplex for leaf in want]
    for leaf, ref in zip(got, want):
        assert (leaf.simplex.ints, leaf.simplex.denom) == (ref.simplex.ints,
                                                           ref.simplex.denom)
        for mine, theirs in ((leaf.num, ref.num), (leaf.den, ref.den)):
            assert (mine.nums, mine.scale) == (theirs.nums, theirs.scale)


def _split_longest(pieces, wide=lambda piece: True):
    """Pieces in order, each one ``wide`` selects replaced by the two
    children of ``split_edge`` on its longest edge."""
    return [child for piece in pieces
            for child in (piece.split_edge(*longest_edge(piece.simplex))
                          if wide(piece) else (piece,))]


@KERNEL
@given(rational_problems())
def test_split_round_matches_bisection_chain(case):
    # The round's intermediate levels are plain integer data; the leaves
    # must be those of single longest-edge splits, breadth-first, with the
    # same integers, and each must equal reconversion on its simplex.
    pnum, pden, simplex, k = case
    f = rational_patch(pnum, pden, simplex, k)
    want = [f]
    for _ in range(round_length(simplex.dimension)):
        want = _split_longest(want)
    got = f.split_round()
    _assert_same_leaves(got, want)
    for leaf in got:
        assert leaf.ratios == rational_patch(pnum, pden, leaf.simplex, k).ratios


@KERNEL
@given(rational_problems())
def test_halving_guard_matches_bisection_chain(case):
    # With a round cut to fewer levels than halving needs (one, or none in
    # one variable), some piece is still wider than half the root's
    # diameter, so the halving guard must bisect.  Its leaves must
    # halve and be those of single longest-edge splits on every piece still
    # too wide, in place, with the same integers.
    pnum, pden, simplex, k = case
    f = rational_patch(pnum, pden, simplex, k)
    short = min(simplex.dimension - 1, 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ratpatch, "round_length", lambda n: short)
        got = f.split_round()
    target = diameter_sq(simplex) / 4
    want = [f]
    for _ in range(short):
        want = _split_longest(want)
    while any(diameter_sq(piece.simplex) > target for piece in want):
        want = _split_longest(want, lambda piece: diameter_sq(piece.simplex) > target)
    assert len(got) > 2 ** short
    assert max(diameter_sq(leaf.simplex) for leaf in got) <= target
    _assert_same_leaves(got, want)


def test_halving_guard_gives_up_on_a_non_shrinking_bisection(monkeypatch):
    one = PowerPoly.constant(2, 1)
    f = rational_patch(one, one, standard_simplex(2))
    calls = []

    def shortest(lengths):
        # The diameter test reads the longest edge, but the bisection takes
        # the shortest, (0, 1) on the standard triangle and then (v_0, m):
        # every first child keeps v_0 and v_2, at distance 1, above a
        # quarter of the squared diameter 2.  Without the guard's budget
        # the driver would bisect forever.
        calls.append(1)
        assert len(calls) < 1000, "the halving guard never gave up"
        return max(lengths), lengths.index(min(lengths))

    monkeypatch.setattr(ratpatch, "_longest", shortest)
    with pytest.raises(DegenerateSimplex, match="failed to halve"):
        f.split_round()
    with pytest.raises(DegenerateSimplex, match="failed to halve"):
        refine(f, F(1, 100))


@KERNEL
@given(rational_problems(), st.integers(0, 3), st.booleans())
def test_convergence_constants_match_reference(case, lift, split):
    # The constants read integers: the smallest denominator numerator, the
    # largest |ratio| by cross-multiplying and each second-difference sup
    # norm over its scale.  A split child's scale is no longer the lcm of
    # its coefficient denominators.
    pnum, pden, simplex, k = case
    f = rational_patch(pnum, pden, simplex, k)
    if split:
        f = f.split_edge(*longest_edge(simplex))[1]
    c = ratpatch.convergence_constants(f, k + lift)
    assert (c.zeta, c.omega, c.omega_prime, c.min_den) == ref_convergence_constants(
        f, k + lift)
    assert (c.base_degree, c.working_degree) == (k, k + lift)


@KERNEL
@given(st.data())
def test_zeta_tie_of_opposite_signs_matches_reference(data):
    # The largest |ratio| attained at two entries of opposite sign, in
    # either order: zeta is that magnitude, as the reference's max reads it.
    n = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(1, 4))
    size = len(enumerate_indices(k, n))
    num = data.draw(st.lists(SIGNED, min_size=size, max_size=size))
    den = data.draw(st.lists(POSITIVE, min_size=size, max_size=size))
    p, q = data.draw(st.lists(st.integers(0, size - 1), min_size=2, max_size=2, unique=True))
    top = 1 + max(abs(a / b) for a, b in zip(num, den))
    num[p], num[q] = top * den[p], -top * den[q]
    simplex = standard_simplex(n)
    f = RationalPatch(BernsteinPatch(simplex, k, num), BernsteinPatch(simplex, k, den))
    c = ratpatch.convergence_constants(f)
    assert c.zeta == top
    assert (c.zeta, c.omega, c.omega_prime, c.min_den) == ref_convergence_constants(f, k)


@KERNEL
@given(rational_problems(), st.sampled_from((4, 16)))
def test_numerator_refinement_matches_rational_refinement(case, divisor):
    # The local certificate's numerator-only split: the numerators of the
    # rational refinement, with the same leaves, order, integers and scales.
    # A divisor of 16 asks for two rounds, except in three variables, where
    # a round makes 64 pieces.
    pnum, pden, simplex, k = case
    f = rational_patch(pnum, pden, simplex, k)
    if simplex.dimension == 3:
        divisor = 4
    threshold = diameter_sq(simplex) / divisor
    pieces = ratpatch._refine_ints(ratpatch.Piece.of((f.num,)), k,
                                   (threshold.numerator, threshold.denominator))
    got = [piece.patches((f.num,))[0] for piece in pieces]
    want = [leaf.num for leaf in refine(f, threshold)]
    assert [leaf.simplex for leaf in got] == [leaf.simplex for leaf in want]
    for mine, theirs in zip(got, want):
        assert (mine.degree, mine.nums, mine.scale) == (
            theirs.degree, theirs.nums, theirs.scale)


# Skewed roots with fractional vertices and no edge on an axis; the
# triangle is the console-script check's.
SKEWED = {
    1: Simplex.from_interval(F(-2, 3), F(5, 7)),
    2: Simplex([[F(1, 2), F(-1, 3)], [F(5, 2), F(1, 4)], [F(-2, 3), F(3, 2)]]),
    3: Simplex([[F(1, 3), 0, F(-1, 2)], [F(7, 4), F(1, 5), 0],
                [F(-1, 6), F(9, 4), F(1, 3)], [0, F(-2, 7), F(5, 3)]]),
}


@KERNEL
@given(st.data())
def test_bisection_halves_the_edge_determinant(data):
    # The identity that lets pieces below a checked root go unchecked
    # (``ratpatch._refine_ints``): a bisection child's |det(v_l - v_0)| is
    # exactly half its parent's.  Along a chain of bisections on random
    # edges, and on every leaf of a refinement, each piece's integer edges
    # pass the rank check, and |det| over denom^n is the root's over
    # 2^cuts, by a Fraction cofactor determinant.
    n = data.draw(st.integers(1, 3))
    simplex = data.draw(st.one_of(simplices(n), st.just(SKEWED[n])))

    def volume(rows, denom):
        edges = [[F(a - b, denom) for a, b in zip(row, rows[0])] for row in rows[1:]]
        return abs(det(edges))

    def check(rows, denom, cuts):
        assert geometry._bareiss([[a - b for a, b in zip(row, rows[0])]
                                  for row in rows[1:]]) is not None
        assert volume(rows, denom) == root_volume / 2 ** cuts

    root_volume = volume(simplex.ints, simplex.denom)
    assert root_volume > 0
    rows, denom = simplex.ints, simplex.denom
    for cuts in range(1, 9):
        i, j = _edge(data.draw, n)
        keep_i, keep_j, denom = geometry._bisect_rows(rows, denom, i, j)
        rows = data.draw(st.sampled_from((keep_i, keep_j)))
        check(rows, denom, cuts)
    one = to_bernstein(PowerPoly.constant(n, 1), 1, simplex)
    threshold = diameter_sq(simplex) / data.draw(st.sampled_from((4, 16) if n < 3 else (4,)))
    leaves = ratpatch._refine_ints(ratpatch.Piece.of((one,)), 1,
                                   (threshold.numerator, threshold.denominator))
    for piece in leaves:
        check(piece.rows, piece.denom, piece.cuts)
    assert sum(F(1, 2 ** piece.cuts) for piece in leaves) == 1


def _assert_carried_lengths(piece, k, threshold):
    # The leaves against the row-carrying oracle: the same rows and
    # denominator, replayed from each leaf's path, the same lists and cuts,
    # and the same squared edge lengths as rationals, the driver's over
    # (root denom << cuts)**2 and the oracle's over its reduced denom**2.
    handed = piece.lengths[:]
    got = ratpatch._refine_ints(piece, k, threshold)
    want = ref_refine_ints(piece, k, threshold)
    assert len(got) == len(want)
    for leaf, (rows, denom, lists, cuts, lengths) in zip(got, want):
        assert leaf.root is piece.root
        assert (leaf.rows, leaf.denom, leaf.lists, leaf.cuts) == (rows, denom, lists, cuts)
        scale = (leaf.root[1] << leaf.cuts) ** 2
        assert [F(d, scale) for d in leaf.lengths] == [F(d, denom ** 2) for d in lengths]
    # The driver works on its own lists: the piece it was handed is as it was.
    assert piece.lengths == handed
    return got


@KERNEL
@given(st.data())
def test_carried_edge_lengths_match_measuring_every_child(data):
    # The driver carries each piece's squared edge lengths through
    # bisection by the median rule, with no vertex rows; the oracle carries
    # rows and measures every child's edges afresh.  The leaves must be the
    # same, integers and longest edges included.  Skewed roots meet odd
    # midpoints, where the oracle's denominator doubles; the standard
    # simplex and its pieces tie several edges, where the first maximum
    # must win; the scaling moves the root's denominator.  A second call
    # on the last leaf starts from a piece below the root, with a path.
    n = data.draw(st.integers(1, 3))
    simplex = data.draw(st.one_of(simplices(n), st.just(SKEWED[n])))
    scale = data.draw(st.sampled_from((F(1, 16), F(1, 3), 1, F(5, 2), 16)))
    simplex = Simplex([[scale * c for c in v] for v in simplex.vertices])
    k = data.draw(st.integers(1, 3))
    size = len(enumerate_indices(k, n))
    lists = tuple(tuple(data.draw(st.lists(st.integers(-50, 50), min_size=size,
                                           max_size=size)))
                  for _ in range(data.draw(st.integers(1, 2))))
    root = ratpatch.Piece((simplex.ints, simplex.denom), 0, lists, 0,
                          geometry._edge_lengths(simplex.ints))
    # Two rounds or more below n = 3, where one round makes 64 pieces.
    threshold = diameter_sq(simplex) / data.draw(st.sampled_from((4, 16) if n < 3 else (4,)))
    leaves = _assert_carried_lengths(root, k, (threshold.numerator, threshold.denominator))
    last = leaves[-1]
    assert last.cuts > 0
    _assert_carried_lengths(last, k, ratpatch._quarter(max(last.lengths),
                                                       last.root[1] << last.cuts))


def test_carried_edge_lengths_on_a_round_of_the_standard_4_simplex():
    # One round in four variables: ten levels of bisection on the most
    # tied simplex there is.
    simplex = standard_simplex(4)
    linear = to_bernstein(PowerPoly(4, {(0, 0, 0, 0): 1, (1, 0, 0, 0): 2, (0, 0, 0, 1): -3}),
                          1, simplex)
    root = ratpatch.Piece.of((linear,))
    leaves = _assert_carried_lengths(root, 1, ratpatch._quarter(max(root.lengths), root.denom))
    assert len(leaves) == 1024
