"""Frozen, seeded problem generators for the benchmark.

These are copies, not imports, of the test-suite generators (``fn_dip``,
``fn_cert3``, the pinned corpus) plus the closed-form-minimum family used by
the ``elevate`` and ``subdivide`` workloads and the random problems of
``cli_bounds``.  Keeping them here means an edit to the tests cannot silently
change what the benchmark runs.

Denominators are built from positive Bernstein coefficients over the
problem's own simplex, so every input meets the method's standing assumption
(a Bernstein-positive denominator).  Positive denominators whose Bernstein
coefficients are not all positive are deliberately excluded; see README.md.

Polynomial construction here uses only ``PowerPoly`` (a sparse power-basis
container) and ``Simplex`` (a vertex tuple); the Bernstein patch code is not
involved, so a library change cannot alter the inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from math import comb
from typing import Dict, Optional, Tuple

from bernbound import PowerPoly, Simplex

Terms = Dict[Tuple[int, ...], F]


@dataclass(frozen=True)
class Problem:
    """One generated input with what is known about its answer.

    ``m`` is the exact minimum over the domain when it is known in closed
    form; ``sign`` is the sign of the minimum (+1 positive, -1 negative or
    zero somewhere).  ``expect`` pins exact answers known beforehand, such as
    the certifying degree of ``fn_dip``.
    """

    name: str
    num: PowerPoly
    den: PowerPoly
    simplex: Simplex
    m: Optional[F]
    sign: int
    params: Dict[str, object] = field(default_factory=dict)
    expect: Dict[str, object] = field(default_factory=dict)

    @property
    def dimension(self) -> int:
        return self.simplex.dimension


# ---------------------------------------------------------------------------
# Pinned problems (copied from the test suite)
# ---------------------------------------------------------------------------

def fn_dip() -> Problem:
    """(7x^2 - 5x + 1) / (x^2 - 2x + 7) on [-1, 1]; certifies at k = 57."""
    return Problem(
        "fn_dip",
        PowerPoly.univariate([1, -5, 7]),
        PowerPoly.univariate([7, -2, 1]),
        Simplex.from_interval(-1, 1),
        m=None, sign=1, expect={"degree": 57},
    )


def fn_cert3() -> Problem:
    """(5x^2 - 3x + 1) / (x^2 + 1) on [0, 1]; certifies at k = 3."""
    return Problem(
        "fn_cert3",
        PowerPoly.univariate([1, -3, 5]),
        PowerPoly.univariate([1, 0, 1]),
        Simplex.from_interval(0, 1),
        m=None, sign=1, expect={"degree": 3},
    )


# (fmin, argmin, scale, den_linear, den_quad)
_CORPUS_PARAMS = [
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


def pinned_corpus() -> list:
    """Twenty positive univariate rationals on [0, 1] with exact minima.

    f = fmin + scale*(x - argmin)^2 / den with den positive on [0, 1].
    """
    out = []
    domain = Simplex.from_interval(0, 1)
    for i, (fmin, argmin, scale, q1, q2) in enumerate(_CORPUS_PARAMS):
        den = PowerPoly.univariate([F(1), q1, q2])
        num = PowerPoly.univariate([
            fmin + scale * argmin ** 2,
            fmin * q1 - 2 * scale * argmin,
            fmin * q2 + scale,
        ])
        out.append(Problem(f"corpus{i:02d}", num, den, domain, m=fmin, sign=1))
    return out


# ---------------------------------------------------------------------------
# Exact helpers, independent of the library's patch code
# ---------------------------------------------------------------------------

def _mul(a: Terms, b: Terms) -> Terms:
    out: Terms = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, F(0)) + ca * cb
    return out


def _add(a: Terms, b: Terms, scale: F = F(1)) -> Terms:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, F(0)) + scale * c
    return out


def solve(matrix, rhs):
    """Exact solution of a square system by Gauss-Jordan elimination."""
    size = len(matrix)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col]), None)
        if pivot is None:
            raise ZeroDivisionError("singular system")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(size):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][size] for r in range(size)]


def barycentric_coords(vertices, point):
    """Barycentric coordinates of ``point`` with respect to ``vertices``."""
    n = len(vertices) - 1
    matrix = [[F(1)] * (n + 1)] + [[v[c] for v in vertices] for c in range(n)]
    return solve(matrix, [F(1)] + list(point))


def inside(vertices, point) -> bool:
    """True when ``point`` lies in the closed simplex."""
    return all(lam >= 0 for lam in barycentric_coords(vertices, point))


def point_in(rng: random.Random, vertices, span: int = 20, interior: bool = False):
    """Exact rational point of the simplex from random barycentric weights."""
    lo = 1 if interior else 0
    weights = [rng.randint(lo, span) for _ in vertices]
    if not any(weights):
        weights[0] = 1
    total = sum(weights)
    n = len(vertices) - 1
    return tuple(
        sum(F(w, total) * v[c] for w, v in zip(weights, vertices)) for c in range(n)
    )


def _barycentric_forms(vertices) -> list:
    """lambda_i(x) as affine forms in x, exactly (inverse vertex matrix)."""
    n = len(vertices) - 1
    zero = (0,) * n
    forms = []
    for i in range(n + 1):
        # lambda_i(x) = w_i + sum_c g_ic x_c solves lambda_i(v_j) = [i == j].
        matrix = [[F(1)] + list(v) for v in vertices]
        coeffs = solve(matrix, [F(1 if j == i else 0) for j in range(n + 1)])
        form = {zero: coeffs[0]}
        for c in range(n):
            form[tuple(1 if cc == c else 0 for cc in range(n))] = coeffs[c + 1]
        forms.append({e: v for e, v in form.items() if v})
    return forms


def compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def bernstein_positive(rng: random.Random, vertices, degree: int) -> Terms:
    """A polynomial whose degree-``degree`` Bernstein coefficients over the
    simplex are the drawn positive numbers, in power form."""
    n = len(vertices) - 1
    forms = _barycentric_forms(vertices)
    out: Terms = {}
    for alpha in compositions(degree, n + 1):
        term: Terms = {(0,) * n: F(rng.randint(1, 6), rng.randint(1, 3))}
        weight = 1
        remaining = degree
        for i, a in enumerate(alpha):
            weight *= comb(remaining, a)
            remaining -= a
            for _ in range(a):
                term = _mul(term, forms[i])
        out = _add(out, term, F(weight))
    return out


def random_simplex(rng: random.Random, n: int, scale: F = F(1)):
    """The standard simplex, scaled, with each coordinate moved by a random
    quarter of the scale."""
    while True:
        vertices = []
        for i in range(n + 1):
            v = [F(1 if c + 1 == i else 0) + F(rng.randint(-1, 1), 4) for c in range(n)]
            vertices.append([x * scale for x in v])
        if _nondegenerate(vertices):
            return Simplex(vertices)


def _nondegenerate(vertices) -> bool:
    edges = [[vi[c] - vertices[0][c] for c in range(len(vi))] for vi in vertices[1:]]
    try:
        solve(edges, [F(0)] * len(edges))
    except ZeroDivisionError:
        return False
    return True


# ---------------------------------------------------------------------------
# Closed-form-minimum family
# ---------------------------------------------------------------------------

def closed_form(rng: random.Random, name: str, n: int, degree: int, ratio: F,
                scale: F = F(1)) -> Problem:
    """f = m + s * |x - a|^2 * r / q over a random simplex, with m = s * ratio.

    a is strictly inside the simplex, q and r are Bernstein-positive there,
    so f >= m with equality exactly at a: the minimum is m.  The numerator
    m*q + s*|x - a|^2*r has total degree ``degree`` (at least 2).  A small
    positive ``ratio`` makes f nearly touch zero, which is what drives the
    certifying degree or depth up.
    """
    simplex = random_simplex(rng, n, scale)
    verts = simplex.vertices
    a = point_in(rng, verts, span=6, interior=True)
    zero = (0,) * n
    dist: Terms = {}
    for c in range(n):
        unit = tuple(1 if cc == c else 0 for cc in range(n))
        dist = _add(dist, _mul({unit: F(1), zero: -a[c]}, {unit: F(1), zero: -a[c]}))
    r = bernstein_positive(rng, verts, degree - 2) if degree > 2 else {zero: F(1)}
    q = bernstein_positive(rng, verts, rng.randint(0, degree))
    s = F(rng.randint(1, 4), rng.randint(1, 2))
    m = s * ratio
    num = _add(_mul(q, {zero: m}), _mul(dist, r), s)
    return Problem(name, PowerPoly(n, num), PowerPoly(n, q), simplex, m=m,
                   sign=1 if m > 0 else -1, params={"s": s})


# ---------------------------------------------------------------------------
# Random problems for the CLI
# ---------------------------------------------------------------------------

def random_problem(rng: random.Random, name: str, n: int, degree: int) -> Problem:
    """Random numerator of exact total degree ``degree`` over a perturbed
    simplex, with a Bernstein-positive denominator of lower or equal degree.
    The minimum is not known."""
    simplex = random_simplex(rng, n)
    terms: Terms = {}
    for exps in _exponents_up_to(n, degree):
        if rng.random() < 0.6:
            terms[exps] = F(rng.randint(-9, 9), rng.randint(1, 4))
    slot = rng.randrange(n)
    top = tuple(degree if i == slot else 0 for i in range(n))
    terms[top] = F(rng.randint(1, 9), rng.randint(1, 4))
    den = bernstein_positive(rng, simplex.vertices, rng.randint(0, min(degree, 2)))
    return Problem(name, PowerPoly(n, terms), PowerPoly(n, den), simplex,
                   m=None, sign=0)


def _exponents_up_to(n: int, degree: int):
    return [e for total in range(degree + 1) for e in compositions(total, n)]


def _shift(poly: PowerPoly, t) -> Terms:
    """The terms of poly(x - t), expanded exactly."""
    n = poly.dimension
    zero = (0,) * n
    out: Terms = {}
    for exps, coeff in poly.iter_terms():
        term: Terms = {zero: coeff}
        for c, e in enumerate(exps):
            unit = tuple(1 if cc == c else 0 for cc in range(n))
            for _ in range(e):
                term = _mul(term, {unit: F(1), zero: -t[c]})
        out = _add(out, term)
    return out


def disguise(rng: random.Random, p: Problem) -> Problem:
    """The same problem moved by a random translation t and scaled.

    num and den become c_num * num(x - t) and c_den * den(x - t) over the
    simplex translated by t.  Translation keeps every distance and the
    order of vertex tuples, and the common scale c_num / c_den multiplies
    every ratio, so verdicts, certifying degrees and depths, leaf counts and
    split patterns are those of the original; only the numbers differ.  The
    minimum becomes m * c_num / c_den, and so does the scale ``s``.
    """
    n = p.dimension
    # Only signs and small numerators vary, so that every seed grows the
    # coefficients' bit lengths alike and the exact-arithmetic cost stays
    # that of the shape.
    t = [F(rng.choice([-1, 1]), 2) for _ in range(n)]
    c_num = F(rng.choice([5, 7]), 4)
    c_den = F(rng.choice([5, 7]), 3)
    scale = c_num / c_den
    num = {e: c * c_num for e, c in _shift(p.num, t).items()}
    den = {e: c * c_den for e, c in _shift(p.den, t).items()}
    simplex = Simplex([[x + dx for x, dx in zip(v, t)] for v in p.simplex.vertices])
    params = dict(p.params)
    if "s" in params:
        params["s"] = params["s"] * scale
    return Problem(p.name, PowerPoly(n, num), PowerPoly(n, den), simplex,
                   m=None if p.m is None else p.m * scale, sign=p.sign,
                   params=params, expect=dict(p.expect))


def problem_json(p: Problem) -> dict:
    """The problem in the CLI's file format."""
    return {
        "numerator": p.num.to_json(),
        "denominator": p.den.to_json(),
        "domain": p.simplex.to_json(),
    }
