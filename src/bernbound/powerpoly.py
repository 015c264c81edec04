"""Sparse multivariate polynomials in the power basis, exact coefficients.

The zero polynomial has degree 0 by convention; for every other polynomial
the stored degree is tight (recomputed from the nonzero terms, never trusted
from input).  The dimension and the exponents must be integers; bools,
floats and strings are rejected rather than truncated.

Coefficients are stored as integers over one positive scale, reduced so that
equal polynomials store equal integers; the ``Fraction`` terms are a view
built on first use.  The constructor alone validates, parses and sums user
terms (``from_json`` checks only the JSON shape), on integers: each
coefficient is read as a reduced pair by ``rationals._ratio``, repeated
exponents add as pairs, and ``_exponents`` checks a tuple of plain ints
with one look at each entry, so a problem file's terms build no
``Fraction``.  ``eval`` is one integer sum over the point's common
denominator, and ``to_json`` prints each term from its integers.

Composition with an affine map has one rule, ``_pullback``: multivariate
Horner on integer linear forms over one denominator, giving packed integer
terms with no ``Fraction`` per term.  ``polypatch.to_bernstein`` scatters
those packed terms straight into its Bernstein grid; ``substitute_affine``
(rational arguments put over one denominator) and
``geometry.affine_pullback`` decode them into a ``PowerPoly`` with
``_from_packed``.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, Mapping, Sequence, Tuple, Union

from .errors import DimensionMismatch, InvalidArgument
from .rationals import Rational, _format_ratio, _point_ratios, _ratio

Exponents = Tuple[int, ...]


def _integer(value, what: str) -> int:
    """An integer as given, never a bool, float or string."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{what} {value!r} is not an integer")


def _exponents(exps: Iterable, dimension: int) -> Exponents:
    """``exps`` as a tuple of ``dimension`` non-negative integers.  Its
    checks raise in order: an entry that is not an integer
    (``TypeError``), the wrong length (``DimensionMismatch``), a negative
    entry (``ValueError``).  A tuple of plain ``int`` entries, none
    negative, of the right length passes them all after one look at each
    entry."""
    exps = tuple(exps)
    if len(exps) == dimension:
        for e in exps:
            if e.__class__ is not int or e < 0:
                break
        else:
            return exps
    exps = tuple([_integer(e, "exponent") for e in exps])
    if len(exps) != dimension:
        raise DimensionMismatch(f"exponent tuple {exps} does not have {dimension} entries")
    if any(e < 0 for e in exps):
        raise ValueError(f"negative exponent in {exps}")
    return exps


class PowerPoly:
    """Polynomial sum of ``coeff * x^exponents`` terms over n variables.

    The coefficient of ``exps`` is ``c / scale`` for each ``(exps, c)`` in
    ``int_terms``; the scale is positive and shares no factor with every
    ``c``, so equal polynomials store equal integers.  Terms are sorted by
    degree, then exponents, and none is zero.  The constructor takes a
    mapping or (exponents, coeff) pairs; a repeated tuple's coefficients add.
    """

    __slots__ = ("dimension", "degree", "int_terms", "scale", "_terms")

    def __init__(self, dimension: int, terms: Union[
            Mapping[Sequence[int], Rational], Iterable[Tuple[Sequence[int], Rational]]]):
        dimension = _integer(dimension, "dimension")
        if dimension < 1:
            raise ValueError(f"dimension must be at least 1, got {dimension}")
        cleaned: Dict[Exponents, Tuple[int, int]] = {}
        for exps, coeff in terms.items() if isinstance(terms, Mapping) else terms:
            exps = _exponents(exps, dimension)
            p, q = _ratio(coeff)
            if p:
                if exps in cleaned:
                    a, b = cleaned[exps]
                    p, q = a * q + p * b, b * q
                    g = gcd(p, q)
                    p, q = p // g, q // g
                cleaned[exps] = p, q
        items = sorted([(sum(e), e, p, q) for e, (p, q) in cleaned.items() if p])
        scale = lcm(*[q for *_, q in items])
        self.dimension = dimension
        self.degree = items[-1][0] if items else 0
        self.int_terms = tuple([(e, p * (scale // q)) for _, e, p, q in items])
        self.scale = scale
        self._terms = None

    @classmethod
    def _from_ints(cls, dimension: int, int_terms, scale: int) -> "PowerPoly":
        """A polynomial straight from library-made integer terms, already
        sorted, nonzero and reduced against a positive scale; unchecked."""
        poly = cls.__new__(cls)
        poly.dimension = dimension
        poly.degree = sum(int_terms[-1][0]) if int_terms else 0
        poly.int_terms = int_terms
        poly.scale = scale
        poly._terms = None
        return poly

    @classmethod
    def zero(cls, dimension: int) -> "PowerPoly":
        return cls(dimension, {})

    @classmethod
    def constant(cls, dimension: int, value: Rational) -> "PowerPoly":
        return cls(dimension, {(0,) * dimension: value})

    @classmethod
    def univariate(cls, coeffs: Sequence[Rational]) -> "PowerPoly":
        """Build from ascending coefficients [a0, a1, ...] of a0 + a1*x + ..."""
        return cls(1, {(i,): c for i, c in enumerate(coeffs)})

    def iter_terms(self) -> Iterable[Tuple[Exponents, Fraction]]:
        """The terms with exact ``Fraction`` coefficients, built on first
        use."""
        if self._terms is None:
            scale = self.scale
            self._terms = tuple([(e, Fraction(c, scale)) for e, c in self.int_terms])
        return iter(self._terms)

    def is_zero(self) -> bool:
        return not self.int_terms

    def eval(self, point: Sequence[Rational]) -> Fraction:
        """Exact value at a rational point (``rationals._point_ratios``): with
        the coordinates X_i / D over one denominator, the integer
        sum of c * prod X_i^e_i * D^(d - |e|) over scale * D^d, for the
        degree d."""
        coords = _point_ratios(point)
        if len(coords) != self.dimension:
            raise DimensionMismatch(
                f"point has {len(coords)} coordinates, polynomial has {self.dimension}"
            )
        denom = lcm(*[q for _, q in coords])
        xs = [p * (denom // q) for p, q in coords]
        degree = self.degree
        total = 0
        for exps, c in self.int_terms:
            term = c * denom ** (degree - sum(exps))
            for x, e in zip(xs, exps):
                if e:
                    term *= x ** e
            total += term
        return Fraction(total, self.scale * denom ** degree)

    def negate(self) -> "PowerPoly":
        return PowerPoly._from_ints(
            self.dimension, tuple([(e, -c) for e, c in self.int_terms]), self.scale)

    def substitute_affine(
        self,
        origin: Sequence[Rational],
        directions: Sequence[Sequence[Rational]],
    ) -> "PowerPoly":
        """Compose with the affine map t -> origin + sum_j t_j * directions[j].

        Returns the polynomial in the new variables t, one per direction,
        with exact coefficients.  The total degree never increases.

        The map's entries are put over one denominator D, so x_i = L_i(t) / D
        with integer linear forms L_i, and ``_pullback`` runs the one
        pullback rule on them; the packed result is decoded by
        ``_from_packed``.
        """
        n = self.dimension
        if len(origin) != n:
            raise DimensionMismatch(f"origin has {len(origin)} entries, expected {n}")
        if not directions:
            raise InvalidArgument("substitute_affine needs at least one direction")
        for direction in directions:
            if len(direction) != n:
                raise DimensionMismatch(
                    f"direction has {len(direction)} entries, expected {n}")
        values = [_ratio(c) for c in origin]
        rows = [[_ratio(c) for c in direction] for direction in directions]
        lcd = lcm(*(q for _, q in values), *(q for row in rows for _, q in row))

        def lift(row):
            return [p * (lcd // q) for p, q in row]

        width = self.degree.bit_length()
        return PowerPoly._from_packed(
            len(rows), width, *_pullback(self, lift(values), [lift(row) for row in rows],
                                         lcd, width))

    @classmethod
    def _from_packed(cls, dimension: int, width: int, packed: Dict[int, int],
                     scale: int) -> "PowerPoly":
        """The polynomial of ``_pullback``'s packed integer terms over
        ``scale``, sorted and reduced by their gcd."""
        mask = (1 << width) - 1
        items = sorted(
            [(tuple([(key >> (width * j)) & mask for j in range(dimension)]), c)
             for key, c in packed.items() if c],
            key=lambda item: (sum(item[0]), item[0]))
        common = gcd(scale, *(c for _, c in items))
        if common > 1:
            items = [(e, c // common) for e, c in items]
        return cls._from_ints(dimension, tuple(items), scale // common)

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "terms": [
                {"exponents": list(exps), "coeff": _format_ratio(c, self.scale)}
                for exps, c in self.int_terms
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "PowerPoly":
        """The polynomial of a ``to_json`` object.  A field of the wrong JSON
        shape raises ``ValueError`` naming the field and the term's index."""
        if not isinstance(data, dict):
            raise ValueError(f"not a JSON object: {data!r}")
        if "dimension" not in data:
            raise ValueError("'dimension' is required")
        terms = data.get("terms", [])
        if not isinstance(terms, list):
            raise ValueError(f"'terms' is not a JSON array: {terms!r}")
        pairs = []
        for i, term in enumerate(terms):
            if not isinstance(term, dict):
                raise ValueError(f"term {i} is not a JSON object: {term!r}")
            for key in ("exponents", "coeff"):
                if key not in term:
                    raise ValueError(f"term {i}: {key!r} is required")
            if not isinstance(term["exponents"], list):
                raise ValueError(
                    f"term {i}: 'exponents' is not a JSON array: {term['exponents']!r}")
            pairs.append((term["exponents"], term["coeff"]))
        return cls(data["dimension"], pairs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerPoly):
            return NotImplemented
        return (self.dimension == other.dimension and self.scale == other.scale
                and self.int_terms == other.int_terms)

    def __hash__(self) -> int:
        return hash((self.dimension, self.scale, self.int_terms))

    def __repr__(self) -> str:
        if not self.int_terms:
            return f"PowerPoly.zero({self.dimension})"
        parts = []
        for exps, c in self.int_terms:
            mono = "*".join(
                f"x{i}^{e}" if e > 1 else f"x{i}"
                for i, e in enumerate(exps)
                if e
            )
            text = _format_ratio(c, self.scale)
            parts.append(f"{text}*{mono}" if mono else text)
        return " + ".join(parts)


def _pullback(poly: PowerPoly, origin: Sequence[int],
              directions: Sequence[Sequence[int]], denom: int,
              width: int) -> Tuple[Dict[int, int], int]:
    """The one pullback rule: p(x) at x = (origin + sum_j t_j *
    directions[j]) / denom, as packed integer terms over the returned
    denominator scale * denom^d, for the degree d and the integer terms over
    ``scale`` of ``poly``.

    A monomial t^e is the key sum_j e_j << (width * j): multiplying by t_j
    adds 1 << (width * j), so ``width`` must leave room for every exponent
    (``d.bit_length()`` does).  Multivariate Horner on the integer linear
    forms L_i = origin_i + sum_j t_j * directions[j][i] needs one multiply
    by an L_i per step and builds no ``Fraction``.
    """
    forms = []
    for i, value in enumerate(origin):
        form = [(0, value)] if value else []
        for j, row in enumerate(directions):
            if row[i]:
                form.append((1 << (width * j), row[i]))
        forms.append(form)
    terms = poly.int_terms
    packed = _horner(terms, 0, poly.degree, forms, denom) if terms else {}
    return packed, poly.scale * denom ** poly.degree


def _horner(terms, var: int, budget: int, forms, lcd: int) -> Dict[int, int]:
    """lcd^budget * sum of the integer ``terms`` with x_i = L_i / lcd for
    i >= var, as packed integer terms; every term has degree <= budget in
    those variables.

    Grouping by the exponent a of x_var gives sum_a L_var^a * R_a, where
    R_a carries budget - a; Horner needs one multiply by L_var per a.  At
    the last variable each group is one term and R_a the constant
    c * lcd^(budget - a), added without a recursive call.
    """
    groups: Dict[int, list] = {}
    for term in terms:
        groups.setdefault(term[0][var], []).append(term)
    form = forms[var]
    last = var + 1 == len(forms)
    acc: Dict[int, int] = {}
    for a in range(max(groups), -1, -1):
        if acc:
            out: Dict[int, int] = {}
            get = out.get
            for step, weight in form:
                for key, c in acc.items():
                    key += step
                    out[key] = get(key, 0) + c * weight
            acc = out
        if a not in groups:
            continue
        if last:
            acc[0] = acc.get(0, 0) + groups[a][0][1] * lcd ** (budget - a)
            continue
        for key, c in _horner(groups[a], var + 1, budget - a, forms, lcd).items():
            acc[key] = acc.get(key, 0) + c
    return acc
