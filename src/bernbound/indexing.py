"""Multi-index arithmetic and enumeration for Bernstein coefficient grids.

A multi-index ``alpha = (alpha_0, ..., alpha_n)``, a plain tuple of
nonnegative integers, addresses one Bernstein coefficient of degree
``k = |alpha|`` over an ``n``-simplex.  The truncation dropping the 0th
entry, ``alpha[1:]`` (written ``alpha_hat``), addresses power-basis
exponents.  An index set is the cached tuple ``enumerate_indices`` returns,
in the one canonical order, and ``vertex_positions`` gives the places of its
vertex indices k e_i.  ``multinomials`` is the one multinomial rule,
k! / (alpha_0! ... alpha_n!) over a table of factorials, listed for a whole
index set and cached as one tuple per degree and dimension; it reads the
order uncached, so elevation and conversion, which need only it, cache no
index tuples.  ``weight_row`` is the one rule that values a coefficient list
at integer barycentric weights w: multinomial(k; beta) * prod w_i^beta_i
over the index set, so a list's value is one dot product with it.
``grid_row`` caches it at each grid point, w = alpha, per (degree,
dimension, position).  Everything here is exact integer arithmetic.

The index-move tables for degree elevation (by homogeneous sums), edge
splitting and second differences live here too, next to the index order
they encode, stored as flat integer arrays.  The split and difference
tables are built once per degree and dimension (and edge, for splitting).
The elevation table is one per dimension, grown a grade at a time: the
graded order puts a hat at the same position at every degree, so the table
to one degree is a prefix of the table to the next.  It holds source
positions only: elevation keeps every vertex entry's value, so the
certificate decides the vertex part once at the root and reads no vertex
position per degree.  The power-to-Bernstein conversion scatters its terms
to their hat positions through ``conversion_table`` and then runs on the
elevation table alone, so a grade added at one degree stays in place as
the list grows.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import accumulate
from math import comb, prod
from operator import mul
from typing import Dict, Iterator, Sequence, Tuple


def _hat_indices(total: int, length: int) -> Iterator[Tuple[int, ...]]:
    """All length-tuples (length >= 1) of nonnegative ints summing to total,
    lex ascending."""
    if length == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _hat_indices(total - first, length - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def enumerate_indices(degree: int, dimension: int) -> Tuple[Tuple[int, ...], ...]:
    """All multi-indices of one degree over one simplex dimension (cached).

    Each index is a plain tuple (k - |alpha_hat|,) + alpha_hat.  The order
    is graded lexicographic on the truncation (alpha_1, ..., alpha_n) with
    alpha_0 = k - |alpha_hat| implicit: indices are sorted by |alpha_hat|
    first and lexicographically within each grade.  The order is total,
    deterministic, and the contract for every coefficient list in the package.
    """
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    if dimension < 1:
        raise ValueError(f"dimension must be at least 1, got {dimension}")
    return tuple((degree - grade,) + hat for grade in range(degree + 1)
                 for hat in _hat_indices(grade, dimension))


@lru_cache(maxsize=None)
def vertex_positions(degree: int, dimension: int) -> Tuple[int, ...]:
    """Positions of the vertex indices k*e_i for i = 0..n, in canonical
    order (cached)."""
    indices = enumerate_indices(degree, dimension)
    return tuple(indices.index(tuple(degree if c == i else 0 for c in range(dimension + 1)))
                 for i in range(dimension + 1))


@lru_cache(maxsize=None)
def multinomials(degree: int, dimension: int) -> Tuple[int, ...]:
    """The multinomial k! / (alpha_0! ... alpha_n!) of every index, in
    canonical order (cached).

    The indices come from ``enumerate_indices``'s uncached rule (its
    ``__wrapped__``), so the order is written once and a degree that only
    elevation or conversion reaches leaves one tuple of integers cached
    here, not a tuple of index tuples there as well."""
    factorials = [*accumulate(range(1, degree + 1), mul, initial=1)]
    return tuple(factorials[degree] // prod([factorials[a] for a in alpha])
                 for alpha in enumerate_indices.__wrapped__(degree, dimension))


def weight_row(degree: int, dimension: int, weights: Sequence[int]) -> Tuple[int, ...]:
    """multinomial(k; beta) * prod w_i^beta_i of every index beta of degree
    k = ``degree``, in canonical order, for integer barycentric weights w.

    The dot product of a degree-k patch's numerators over ``scale`` with it
    is scale * W^k * p(w / W), W = sum(w), as |beta| = k."""
    powers = [[w ** e for e in range(degree + 1)] for w in weights]
    return tuple([m * prod(map(list.__getitem__, powers, beta))
                  for beta, m in zip(enumerate_indices(degree, dimension),
                                     multinomials(degree, dimension))])


@lru_cache(maxsize=None)
def grid_row(degree: int, dimension: int, position: int) -> Tuple[int, ...]:
    """``weight_row`` at the grid point of the index at ``position``, whose
    weights are the index alpha itself, W = k (cached): the row that values
    a list there without coordinates or a linear solve."""
    return weight_row(degree, dimension, enumerate_indices(degree, dimension)[position])


@lru_cache(maxsize=None)
def conversion_table(degree: int, dimension: int) -> Tuple[int, Dict[int, int]]:
    """Scatter table for power-to-Bernstein conversion of a polynomial of
    degree ``degree``.

    Returns the key width w = degree.bit_length() and a map from the packed
    key sum_j beta_j << (w * j) of every power-basis exponent beta with
    |beta| <= degree to the canonical position of its hat beta, which is
    the position of (m - |beta|,) + beta at every degree m >= |beta|.
    """
    width = degree.bit_length()
    return width, {sum(e << (width * j) for j, e in enumerate(alpha[1:])): pos
                   for pos, alpha in enumerate(enumerate_indices(degree, dimension))}


# Per dimension, the top grade held and the grown ``elevation_sums`` columns.
_SUMS: Dict[int, Tuple[int, Tuple[array, ...]]] = {}


def elevation_sums(degree: int, dimension: int) -> Tuple[array, ...]:
    """Gather table for elevating homogeneous coefficients by plain sums.

    Homogeneous coefficients are c_alpha = b_alpha * multinomial(k; alpha);
    elevation maps them to c'_beta = sum over i with beta_i > 0 of
    c_{beta - e_i}.  Returns one flat signed source array per slot i = 1..n,
    indexed by position: the position of beta - e_i, or -1, the caller's
    zero sentinel, where beta_i = 0.  Slot 0 needs none: its source is
    beta's own position, or the sentinel on the top grade.  The table
    carries no vertex positions: a vertex entry keeps its value under
    elevation, so no caller looks for it.

    A hat's position does not depend on the degree (the order is graded on
    the hat), so the table to any degree is a prefix of the table to a
    higher one.  The cache holds one table per dimension, grown in place a
    grade at a time: the arrays returned cover at least every position at
    degree + 1, and the caller reads the prefix it needs.
    """
    grown = _SUMS.get(dimension)
    if grown is None or grown[0] <= degree:
        top, columns = grown or (0, tuple(array("l", [-1]) for _ in range(dimension)))
        for grade in range(top + 1, degree + 2):
            # Grade g's sources are the positions of grade g - 1, from
            # C(g - 2 + n, n), and it is written to its own positions, from
            # C(g - 1 + n, n), not appended: a growth that an exception cut
            # short, or one in another thread, leaves only correct entries
            # and no column shorter.
            below = {hat: pos for pos, hat in enumerate(_hat_indices(grade - 1, dimension),
                                                        comb(grade - 2 + dimension, dimension))}
            hats = [*_hat_indices(grade, dimension)]
            start = comb(grade - 1 + dimension, dimension)
            for i, column in enumerate(columns):
                column[start:start + len(hats)] = array(
                    "l", [below[hat[:i] + (hat[i] - 1,) + hat[i + 1:]] if hat[i] else -1
                          for hat in hats])
        grown = _SUMS[dimension] = (degree + 1, columns)
    return grown[1]


@lru_cache(maxsize=None)
def split_table(
    degree: int, dimension: int, i: int, j: int,
) -> Tuple[Tuple[Tuple[array, array], ...], Tuple[array, array], Tuple[array, array]]:
    """Gather table for midpoint de Casteljau along edge (i, j).

    The index set is cut into lines along the edge direction: a line holds
    the positions of the indices that agree everywhere except in alpha_i
    and alpha_j, ordered by alpha_j = 0, 1, ..., alpha_i + alpha_j.  The
    rule runs on a growing triangle list whose first entries are the
    degree-``degree`` coefficients.  Along each line every de Casteljau
    level holds the pairwise sums of the level below it, so the s-th level
    of a line carries a factor 2^s.  Returns:

    - ``levels``: one (firsts, seconds) pair of flat position arrays per
      level s = 1..degree; level s appends, in order, the entries
      triangle[firsts[t]] + triangle[seconds[t]], which read only entries
      of lower levels.
    - ``left`` and ``right``: for the child that keeps v_i and the child
      that keeps v_j, an (entries, shifts) pair indexed by position: the
      child's coefficient at a position is triangle[entry] << shift, over
      2^degree times the parent's scale.  At alpha with alpha_j = s the
      left child reads the first entry of level s of alpha's line; at
      alpha_i = s the right child reads its last entry; both shift by
      degree - s.
    """
    size = comb(degree + dimension, dimension)
    left_entries, left_shifts = array("I", [0]) * size, array("I", [0]) * size
    right_entries, right_shifts = array("I", [0]) * size, array("I", [0]) * size
    by_rest = {}
    for pos, alpha in enumerate(enumerate_indices(degree, dimension)):
        rest = alpha[:i] + alpha[i + 1:j] + alpha[j + 1:]
        by_rest.setdefault(rest, []).append((alpha[j], pos))
    lines = [(array("I", [pos for _, pos in sorted(line)]),) * 2 for line in by_rest.values()]
    levels = []
    top = size
    for s in range(degree + 1):
        if s:
            firsts, seconds = array("I"), array("I")
            lines = [(line, row) for line, row in lines if len(row) > 1]
            for t, (line, row) in enumerate(lines):
                firsts.extend(row[:-1])
                seconds.extend(row[1:])
                lines[t] = (line, range(top, top + len(row) - 1))
                top += len(row) - 1
            levels.append((firsts, seconds))
        for line, row in lines:
            left_entries[line[s]], left_shifts[line[s]] = row[0], degree - s
            right_entries[line[-1 - s]], right_shifts[line[-1 - s]] = row[-1], degree - s
    return (tuple(levels), (left_entries, left_shifts),
            (right_entries, right_shifts))


@lru_cache(maxsize=None)
def second_difference_moves(
    degree: int, dimension: int,
) -> Tuple[Tuple[Tuple[Tuple[int, ...], int, int], ...], Tuple[array, ...]]:
    """Position table for the second differences of a degree-``degree``
    coefficient list (``degree >= 2``).

    Returns the keys (gamma, i, j), one per |gamma| = degree - 2 and
    0 <= i < j <= dimension in that order, and four flat position arrays
    (plus_a, plus_b, minus_a, minus_b) parallel to the keys: the entry is
    c[plus_a] + c[plus_b] - c[minus_a] - c[minus_b] with the positions of
    gamma + e_i + e_{j-1}, gamma + e_{i-1} + e_j, gamma + e_{i-1} + e_{j-1}
    and gamma + e_i + e_j, where e_{-1} means e_dimension.
    """
    position = {alpha: p for p, alpha in enumerate(enumerate_indices(degree, dimension))}
    keys = []
    columns = tuple(array("I") for _ in range(4))

    def shifted(gamma, a, b):
        out = list(gamma)
        out[a] += 1
        out[b] += 1
        return position[tuple(out)]

    for gamma in enumerate_indices(degree - 2, dimension):
        for i in range(dimension + 1):
            prev_i = (i - 1) % (dimension + 1)
            for j in range(i + 1, dimension + 1):
                keys.append((gamma, i, j))
                for column, (a, b) in zip(columns, ((i, j - 1), (prev_i, j),
                                                    (prev_i, j - 1), (i, j))):
                    column.append(shifted(gamma, a, b))
    return tuple(keys), columns
