"""Simplices with exact rational vertices: barycentric coordinates, grid
points, diameters, affine pullback to the standard simplex, and edge
bisection.

The pullback (``_pulled_back``) hands the integer rows, v_0 and v_i - v_0
over ``denom``, to the one Horner rule ``powerpoly._pullback``.

All geometry is exact.  A ``Simplex`` stores its vertices as integer
coordinates over one positive denominator, reduced so that equal simplices
store equal integers; the ``Fraction`` tuples in ``vertices`` are a view
built on first use.  One fraction-free (Bareiss) elimination,
``_bareiss``, checks affine independence on the integers and solves for
barycentric coordinates; a point, and each vertex, is read as integer
pairs by ``rationals._point_ratios``, so no ``Fraction`` is built per
coordinate.
One rule measures edges: ``_edge_lengths`` gives a simplex's integer
squared lengths over denom**2 in ``_edge_pairs`` order, and ``_longest``
takes their first maximum; a ``Simplex`` stores no measure.
The refinement driver (``ratpatch._refine_ints``) measures only its root:
a bisection changes only the n edges at the new midpoint, which it derives
from the parent's lengths by the median rule, in the slots
``_bisection_slots`` gives.  ``_bisect_rows`` is the midpoint rule: it forms
each midpoint from the parent's integers over at most twice its
denominator, for ``bisect_edge`` and for a subdivision piece that replays
its bisection path from its root.  Such pieces stay plain rows below a
checked root: a bisection child of a simplex is a simplex of half its
volume, so no piece is checked again.  ``_point`` and ``_grid_point`` read
a vertex or a grid point straight from such rows, and a ``Simplex`` is
built from them (``_checked_simplex``, through the same rank check) only
where one is asked for.  The only irrational quantity, the diameter, is
never materialized: ``diameter_sq`` measures on demand.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import BadEdge, DegenerateSimplex, DimensionMismatch
from .powerpoly import PowerPoly, _pullback
from .rationals import Rational, _format_ratio, _point_ratios

Point = Tuple[Fraction, ...]


class Simplex:
    """Ordered list of n+1 affinely independent points of R^n.

    The vertices are stored as integer coordinates ``ints`` over one positive
    denominator ``denom``, reduced so that equal simplices store equal
    integers.  Every instance is checked; it stores no edge measure.
    Instances are read-only (setting or deleting an attribute raises
    ``AttributeError``) and hashable; they pickle and copy by their vertices.
    """

    __slots__ = ("ints", "denom", "_vertices")

    def __init__(self, vertices: Sequence[Sequence[Rational]]):
        pts = [_point_ratios(v) for v in vertices]
        if not pts:
            raise DegenerateSimplex("empty vertex list")
        n = len(pts) - 1
        if n < 1:
            raise DegenerateSimplex("a simplex needs at least two vertices")
        if any(len(p) != n for p in pts):
            raise DegenerateSimplex(
                f"{n + 1} vertices must each have {n} coordinates"
            )
        denom = lcm(*[q for p in pts for _, q in p])
        _setup(self, tuple([tuple([a * (denom // q) for a, q in p]) for p in pts]), denom)

    def __setattr__(self, name, value):
        raise AttributeError(f"Simplex is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Simplex is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return Simplex, (self.vertices,)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Simplex):
            return NotImplemented
        return self is other or (self.denom == other.denom and self.ints == other.ints)

    def __hash__(self) -> int:
        return hash((self.denom, self.ints))

    def __repr__(self) -> str:
        return f"Simplex(vertices={self.vertices!r})"

    @property
    def vertices(self) -> Tuple[Point, ...]:
        """The vertices as ``Fraction`` tuples, built on first use."""
        if self._vertices is None:
            object.__setattr__(self, "_vertices",
                               tuple([_point(row, self.denom) for row in self.ints]))
        return self._vertices

    @property
    def dimension(self) -> int:
        return len(self.ints) - 1

    def vertex(self, i: int) -> Point:
        return _point(self.ints[i], self.denom)

    def to_json(self) -> dict:
        return {
            "vertices": [[_format_ratio(x, self.denom) for x in row] for row in self.ints]
        }

    @classmethod
    def from_json(cls, data) -> "Simplex":
        return cls(data["vertices"])

    @classmethod
    def from_interval(cls, a: Rational, b: Rational) -> "Simplex":
        """The 1-simplex [a], [b]."""
        return cls([[a], [b]])


def _setup(simplex: Simplex, ints, denom: int) -> None:
    """Check that the integer vertices ``ints`` over ``denom`` span a
    simplex (Bareiss elimination) and fill in ``simplex``.  Every
    ``Simplex``, given or made by bisection, passes through here."""
    put = object.__setattr__
    put(simplex, "ints", ints)
    put(simplex, "denom", denom)
    put(simplex, "_vertices", None)
    v0 = ints[0]
    if _bareiss([[a - b for a, b in zip(vi, v0)] for vi in ints[1:]]) is None:
        points = ", ".join(f"({', '.join([_format_ratio(x, denom) for x in row])})"
                           for row in ints)
        raise DegenerateSimplex(f"vertices are affinely dependent: ({points})")


@lru_cache(maxsize=None)
def standard_simplex(n: int) -> Simplex:
    """The simplex [origin, e_1, ..., e_n]."""
    vertices = [[Fraction(0)] * n]
    for i in range(n):
        v = [Fraction(0)] * n
        v[i] = Fraction(1)
        vertices.append(v)
    return Simplex(vertices)


def _bareiss(rows: List[List[int]]) -> Optional[List[List[int]]]:
    """Fraction-free (Bareiss) elimination on the square left block of
    integer ``rows`` (columns beyond it ride along); None if the block is
    singular.

    Each step moves a pivot row out and leaves the remaining rows one column
    shorter; every division is exact.  Returns the pivot rows in order, an
    upper triangular system whose last pivot is the block's determinant up
    to sign.
    """
    prev = 1
    pivots = []
    while rows:
        pivot = next((r for r, row in enumerate(rows) if row[0]), None)
        if pivot is None:
            return None
        top = rows.pop(pivot)
        pivots.append(top)
        p = top[0]
        rows = [[(p * x - row[0] * y) // prev for x, y in zip(row[1:], top[1:])]
                for row in rows]
        prev = p
    return pivots


def barycentric(simplex: Simplex, point: Sequence[Rational]) -> Tuple[Fraction, ...]:
    """Exact coordinates lam with sum(lam) = 1 and sum(lam_i v_i) = point:
    the integers of ``_barycentric_weights`` over their sum."""
    weights = _barycentric_weights(simplex, point)
    det = sum(weights)
    return tuple([Fraction(w, det) for w in weights])


def _barycentric_weights(simplex: Simplex, point: Sequence[Rational]) -> List[int]:
    """Integers det * lam_i for the barycentric coordinates lam of ``point``;
    they sum to det, a nonzero integer of either sign.

    The system is solved on integers: each coordinate row is the vertices'
    integers and the point's coordinate times ``denom``, scaled by the
    point's common denominator.  Bareiss elimination leaves a triangular
    system with determinant ``det``; by Cramer's rule every det * lam_i is
    an integer, and back substitution finds them with exact divisions.
    """
    n = simplex.dimension
    x = _point_ratios(point)
    if len(x) != n:
        raise DimensionMismatch(f"point has {len(x)} coordinates, expected {n}")
    scale = lcm(*[q for _, q in x])
    rhs = [p * (scale // q) * simplex.denom for p, q in x]
    rows = [[1] * (n + 2)]
    for c in range(n):
        rows.append([scale * v[c] for v in simplex.ints] + [rhs[c]])
    pivots = _bareiss(rows)
    if pivots is None:
        raise DegenerateSimplex("singular barycentric system")
    det = pivots[-1][0]
    lam = []
    for top in reversed(pivots):
        known = sum(a * b for a, b in zip(top[1:-1], lam))
        lam.insert(0, (top[-1] * det - known) // top[0])
    return lam


def _point(row: Sequence[int], denom: int) -> Point:
    """The point of an integer row over ``denom``."""
    return tuple([Fraction(x, denom) for x in row])


def _grid_point(alpha: Sequence[int], k: int, rows, denom: int) -> Point:
    """The point (alpha_0 v_0 + ... + alpha_n v_n) / k of rows over ``denom``."""
    coords = [0] * (len(rows) - 1)
    for a, row in zip(alpha, rows):
        if a:
            coords = [x + a * y for x, y in zip(coords, row)]
    return _point(coords, k * denom)


def _edge_lengths(rows) -> List[int]:
    """The squared lengths of every edge of integer vertex rows, as integers
    over denom**2, in the pair order of ``_edge_pairs``: (0, 1), (0, 2),
    ..., (n - 1, n).  The one rule that measures an edge, run on a
    subdivision's root only."""
    return [sum([(a - b) ** 2 for a, b in zip(rows[i], rows[j])])
            for i, j in _edge_pairs(len(rows) - 1)]


@lru_cache(maxsize=None)
def _edge_pairs(n: int) -> Tuple[Tuple[int, int], ...]:
    """The (i, j), i < j, of an n-simplex's edges in lexicographic order."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n + 1))


@lru_cache(maxsize=None)
def _bisection_slots(n: int) -> Tuple[Tuple, ...]:
    """Per edge, in ``_edge_pairs`` order, the (i, j, slots_i, slots_j)
    that carry squared edge lengths through its bisection.

    Bisecting edge (i, j) at its midpoint m changes only the n edges at m:
    the half edge, |v_i - m|**2 = |m - v_j|**2, in the slot of (i, j) in
    both children, and |m - v_l|**2 for each other vertex l, in order.  The
    child that keeps v_i holds those in the slots of each (j, l),
    ``slots_i``, the child that keeps v_j in those of each (i, l),
    ``slots_j``.  Every other edge of either child is its parent's.
    """
    pairs = _edge_pairs(n)
    slot = {pair: e for e, pair in enumerate(pairs)}
    table = []
    for i, j in pairs:
        others = [l for l in range(n + 1) if l != i and l != j]
        table.append((i, j, tuple([slot[min(j, l), max(j, l)] for l in others]),
                      tuple([slot[min(i, l), max(i, l)] for l in others])))
    return tuple(table)


def _longest(lengths: List[int]) -> Tuple[int, int]:
    """The longest of squared edge lengths in ``_edge_pairs`` order and its
    slot: the first maximum, so the lowest (i, j) breaks ties."""
    c = max(lengths)
    return c, lengths.index(c)


def diameter_sq(simplex: Simplex) -> Fraction:
    """Max squared Euclidean distance over vertex pairs, exactly."""
    return Fraction(_longest(_edge_lengths(simplex.ints))[0], simplex.denom ** 2)


def longest_edge(simplex: Simplex) -> Tuple[int, int]:
    """The (i, j) pair of the longest edge; lowest (i, j) breaks ties."""
    return _edge_pairs(simplex.dimension)[_longest(_edge_lengths(simplex.ints))[1]]


def affine_pullback(simplex: Simplex, poly: PowerPoly) -> PowerPoly:
    """Compose poly with the map t -> v_0 + sum_i t_i (v_i - v_0).

    The result represents poly on |simplex| in standard-simplex coordinates;
    coefficients stay exact and the degree is preserved.  The map is read
    from the simplex's integer rows (``_pulled_back``).
    """
    n = simplex.dimension
    if poly.dimension != n:
        raise DimensionMismatch(
            f"polynomial has {poly.dimension} variables, simplex has {n}"
        )
    width = poly.degree.bit_length()
    return PowerPoly._from_packed(n, width, *_pulled_back(simplex, poly, width))


def _pulled_back(simplex: Simplex, poly: PowerPoly,
                 width: int) -> Tuple[Dict[int, int], int]:
    """``powerpoly._pullback`` of poly on the map t -> v_0 + sum_i t_i
    (v_i - v_0), straight from the integer rows over ``simplex.denom``: the
    origin row v_0 and the direction rows v_i - v_0."""
    v0 = simplex.ints[0]
    return _pullback(poly, v0, [[a - b for a, b in zip(vi, v0)] for vi in simplex.ints[1:]],
                     simplex.denom, width)


def bisect_edge(simplex: Simplex, i: int, j: int) -> Tuple[Simplex, Simplex]:
    """Split at the midpoint m of edge (v_i, v_j).

    Returns (simplex with v_j -> m, simplex with v_i -> m); the first child
    keeps vertex v_i.  Their union is |simplex| with disjoint interiors.
    """
    n = simplex.dimension
    if not (0 <= i < j <= n):
        raise BadEdge(f"edge ({i}, {j}) invalid for dimension {n}")
    keep_i, keep_j, denom = _bisect_rows(simplex.ints, simplex.denom, i, j)
    return _checked_simplex(keep_i, denom), _checked_simplex(keep_j, denom)


def _bisect_rows(rows, denom: int, i: int, j: int):
    """The midpoint rule on integer vertex rows over ``denom``.

    Returns the rows of the child that keeps v_i, the rows of the child that
    keeps v_j (each with the midpoint in place of the other end) and their
    common denominator: the parent's, or twice it when a midpoint entry is
    odd.  The odd entry keeps reduced rows reduced.  Nothing is checked
    here; ``bisect_edge`` checks the simplices it returns, and the
    refinement driver needs no check (see ``ratpatch._refine_ints``).
    """
    mid = [a + b for a, b in zip(rows[i], rows[j])]
    if any(x & 1 for x in mid):
        rows = [tuple([2 * x for x in row]) for row in rows]
        denom *= 2
        mid = tuple(mid)
    else:
        mid = tuple([x >> 1 for x in mid])
    keep_i = list(rows)
    keep_i[j] = mid
    keep_j = list(rows)
    keep_j[i] = mid
    return tuple(keep_i), tuple(keep_j), denom


def _checked_simplex(ints, denom: int) -> Simplex:
    """A simplex from reduced integer rows over ``denom``, checked by
    ``_setup`` like every other simplex.  A subdivision piece becomes a
    ``Simplex`` only through here, and only on demand."""
    simplex = Simplex.__new__(Simplex)
    _setup(simplex, ints, denom)
    return simplex


def round_length(n: int) -> int:
    """Number of binary splits in one shrink round: n(n+1)/2."""
    return n * (n + 1) // 2
