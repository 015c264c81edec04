"""Positivity certificates for rational functions over simplices.

The certificate at degree k has two parts: every rational Bernstein
coefficient is nonnegative, and every vertex coefficient is strictly
positive (vertex coefficients are true function values, so a non-positive
one refutes positivity outright).  The denominator's coefficients are
positive, so each ratio has its numerator coefficient's sign and the
predicate reads the numerator alone (``cert_predicate`` applies both
parts to one patch; it is not exported, since the kernels run its rule on
their own integers, and stays for ``bench/tracing.py`` until ROADMAP item
16, and as a test oracle).  Certification proceeds either globally by
degree elevation or locally by subdivision at fixed degree, each with an
a-priori bound on the work needed when a positive lower bound for the
function is known.
Elevation and de Casteljau splitting keep a positive denominator positive
(every new coefficient is a positive-weight mean of old ones), so once the
root's denominator is checked, the global scan elevates the numerator only
and the local certificate splits the numerator only.  A refuting vertex's
value divides its numerator coefficient by the root denominator evaluated
at that vertex.

The local certificate runs on ``ratpatch.Piece`` records below its root:
the numerator's integer list, read for signs and the smallest entry.  Only
a refuting piece forms its vertex rows, replayed from its bisection path,
and becomes a patch (``Piece.patches``, over the scale its root holds), for
the witness.

The vertex part is decided once per patch it concerns.  Each subdivision
piece has its vertex coefficients scanned once (``_refuting_index``); a
piece that survives certifies iff its smallest coefficient is nonnegative
(``_certifies``, the one rule behind ``cert_predicate`` and the test that
settles a piece a split cuts, whose leaves are then counted, not cut).
The global scan checks the root's vertices once: elevation never changes a
vertex coefficient (it is the function's value there), so after that check
each degree only asks whether its smallest entry is negative.

Each public ``certify_*`` function, like the command line's ``certify``, is
one call into ``_certify``, the one run that checks the budgets, converts,
certifies and attaches the a-priori bounds of any claims, which
``ratpatch`` computes beside the convergence constants.  Every report is
built by ``_report``, which times the kernel that asked for it.

The global scan is Polya's multiplication by (x_0 + ... + x_n)^N on the
numerator's homogeneous coefficients: ``polypatch._polya_scan`` holds the
loop, its stopping degree and the size cap, and ``polypatch``'s docstring
explains the sums.

Outcomes are three-valued: a budget is mandatory because a function that
merely touches zero admits no finite certificate, so loops must be allowed
to give up honestly.
"""

from __future__ import annotations

import time
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Optional, Tuple

from .errors import DegreeTooLow, InvalidArgument
from .geometry import Simplex
from .indexing import vertex_positions
from .polypatch import BernsteinPatch, _polya_scan, to_bernstein
from .powerpoly import PowerPoly, _integer
from .ratpatch import (
    ClaimedMinimum,
    Piece,
    RationalPatch,
    _refine_ints,
    apriori_d1,
    apriori_d2,
    apriori_degree_omega,
    apriori_depth,
    convergence_constants,
    rational_patch,
    subdivide,
)
from .rationals import Rational, float_str, format_rational

# Default budgets: the global degree and the local depth.
K_MAX, N_MAX = 30, 10


class Verdict(str, Enum):
    CERTIFIED = "certified"
    REFUTED = "refuted"
    INCONCLUSIVE = "inconclusive"


class Mode(str, Enum):
    SHARPNESS = "sharpness"
    GLOBAL_ELEVATION = "global-elevation"
    LOCAL_SUBDIVISION = "local-subdivision"


class Witness(NamedTuple):
    """A point with its exact function value, plus how it arose."""

    point: Tuple[Fraction, ...]
    value: Fraction
    kind: str

    def to_json(self) -> dict:
        return {
            "point": [format_rational(c) for c in self.point],
            "value": format_rational(self.value),
            "value_float": float_str(self.value),
            "kind": self.kind,
        }


class AprioriInfo(NamedTuple):
    """A-priori sufficiency bounds attached to a report when claims exist."""

    d1: Optional[Fraction] = None
    d2: Optional[Fraction] = None
    degree_bound: Optional[int] = None
    depth_bound: Optional[int] = None

    def to_json(self) -> dict:
        out = {}
        if self.d1 is not None:
            out["D1"] = format_rational(self.d1)
        if self.d2 is not None:
            out["D2"] = format_rational(self.d2)
        if self.degree_bound is not None:
            out["degree_bound"] = self.degree_bound
        if self.depth_bound is not None:
            out["depth_bound"] = self.depth_bound
        return out


class CertificateReport(NamedTuple):
    """Outcome of a certification run: the verdict, the work it took and at
    most one witness.  It keeps no visited piece, so a finished run holds no
    patch."""

    verdict: Verdict
    mode: Mode
    degree_used: Optional[int] = None
    depth_used: Optional[int] = None
    witness: Optional[Witness] = None
    leaves: int = 0
    apriori: Optional[AprioriInfo] = None
    negated: bool = False
    wall_clock: float = 0.0

    def to_json(self) -> dict:
        # ``_asdict`` lists the fields in order; the keywords replace values
        # in place, so the keys keep that order.
        return dict(self._asdict(), verdict=self.verdict.value, mode=self.mode.value,
                    witness=self.witness and self.witness.to_json(),
                    apriori=self.apriori and self.apriori.to_json())


def cert_predicate(f: RationalPatch) -> bool:
    """All ratios nonnegative and every vertex ratio strictly positive.

    The denominator coefficients and both scales are positive, so each ratio
    has the sign of its numerator coefficient: the predicate reads the
    numerator's integers, with the vertex scan ``_refuting_index`` that the
    kernels run, and builds no ratio.  Unexported; kept for
    ``bench/tracing.py`` until ROADMAP item 16, and as a test oracle.
    """
    return _certifies(f.num.nums, vertex_positions(f.degree, f.dimension))


def _certifies(nums, vertices) -> bool:
    """The certificate on a numerator list: no vertex coefficient (at the
    positions ``vertices``) is non-positive and no coefficient is negative."""
    return _refuting_index(nums, vertices) is None and min(nums) >= 0


def _refuting_index(nums, vertices) -> Optional[int]:
    """The first vertex whose numerator coefficient, num(v_i), is
    non-positive: under a positive denominator, a non-positive value.
    ``vertices`` are the vertex positions in ``nums``."""
    for i, p in enumerate(vertices):
        if nums[p] <= 0:
            return i
    return None


def _refuting_vertex(f: RationalPatch) -> Optional[Witness]:
    """First vertex whose ratio (a true function value) is non-positive.

    The ratio has its numerator coefficient's sign, so only the witness's
    value is built."""
    vertices = vertex_positions(f.degree, f.dimension)
    i = _refuting_index(f.num.nums, vertices)
    if i is None:
        return None
    return Witness(f.simplex.vertex(i), f.ratio(vertices[i]), "vertex")


def _report(mode: Mode, start: float, verdict: Verdict, degree: int,
            witness: Optional[Witness] = None, depth: Optional[int] = None,
            leaves: Optional[int] = None) -> CertificateReport:
    """The report of a kernel whose clock started at ``start``.  Unless
    ``leaves`` is given, a certified run counts its one patch as a leaf."""
    if leaves is None:
        leaves = int(verdict is Verdict.CERTIFIED)
    return CertificateReport(verdict, mode, degree_used=degree, depth_used=depth,
                             witness=witness, leaves=leaves,
                             wall_clock=time.perf_counter() - start)


def certify_sharpness(f: RationalPatch) -> CertificateReport:
    """Certify when the minimum coefficient sits at a vertex index.

    A vertex coefficient is the function's value there, so a positive vertex
    minimum proves positivity and a non-positive vertex refutes it.  A
    minimum attained only at interior indices decides nothing.
    """
    start = time.perf_counter()
    refute = _refuting_vertex(f)
    if refute is not None:
        return _report(Mode.SHARPNESS, start, Verdict.REFUTED, f.degree, refute)
    p = f._min_pos
    i = f._vertex_at(p)
    if i is not None:
        return _report(Mode.SHARPNESS, start, Verdict.CERTIFIED, f.degree,
                       Witness(f.simplex.vertex(i), f.ratio(p), "vertex"))
    return _report(Mode.SHARPNESS, start, Verdict.INCONCLUSIVE, f.degree)


def certify_global(
    pnum: PowerPoly,
    pden: PowerPoly,
    simplex: Simplex,
    k_max: int,
) -> CertificateReport:
    """Elevate the rational form until the certificate predicate holds.

    Builds the rational patch at the common polynomial degree, which checks
    that every denominator coefficient is positive; a non-positive vertex
    value refutes immediately and is exact.  Elevation keeps those
    coefficients positive, so every ratio keeps its numerator coefficient's
    sign and the scan elevates the numerator alone, one degree at a time,
    until none of its coefficients is negative or the degree reaches k_max,
    or the last degree the size cap admits, where the verdict is
    INCONCLUSIVE (``polypatch._polya_scan``, which builds no patch per
    degree).  The vertex coefficients, checked positive at the root, are
    function values and never change under elevation, so no later degree
    tests them.  Termination before k_max is guaranteed only for strictly
    positive functions.
    """
    return _certify(pnum, pden, simplex, "global", k_max=k_max)


def _certify_global(root: RationalPatch, k_max: int) -> CertificateReport:
    """``certify_global`` on its base-degree root patch: the vertex check,
    then ``polypatch._polya_scan`` on the numerator."""
    start = time.perf_counter()
    mode = Mode.GLOBAL_ELEVATION
    refute = _refuting_vertex(root)
    if refute is not None:
        return _report(mode, start, Verdict.REFUTED, root.degree, refute)
    degree, certified = _polya_scan(root.num, k_max)
    verdict = Verdict.CERTIFIED if certified else Verdict.INCONCLUSIVE
    return _report(mode, start, verdict, degree)


def certify_local(
    pnum: PowerPoly,
    pden: PowerPoly,
    simplex: Simplex,
    n_max: int,
) -> CertificateReport:
    """Subdivide at fixed degree until every leaf certifies.

    The degree never changes.  Depth d means every unresolved leaf has been
    refined to diameter at most 2**-d in the domain's own coordinates, as in
    the paper's table, with at least one bisection round per depth step: a
    domain wider than 1 pays extra rounds to reach depth 1.  It runs
    ``ratpatch.subdivide`` keyed by depth, so pieces split level by level,
    one per step: a piece's vertex coefficients are scanned once, and a
    non-positive one refutes exactly (no later piece is tested or split); a
    piece that survives that scan is a certified leaf, and pruned, when its
    smallest coefficient is nonnegative.  The same certificate settles a
    piece a split cuts: ``ratpatch._refine_ints`` cuts it no
    further and returns it as one piece whose ``weight`` is the number of
    leaves the split would have cut from it.  De Casteljau children are
    positive-weight means of their parent, so each of those leaves would
    certify; the report counts them all, and its verdict, depth, leaf count
    and witness are those of the run that cuts every leaf.  The run gives
    up when the unresolved leaves reach depth n_max, which must be
    nonnegative.  Only
    the root is a rational patch, which checks the denominator; below it
    the pieces are plain records of the numerator's integers, whose signs
    are the function's.  A piece lives only until it is decided or split:
    the report counts certified leaves and keeps none.
    """
    return _certify(pnum, pden, simplex, "local", n_max=n_max)


def _certify_local(root: RationalPatch, n_max: int) -> CertificateReport:
    """``certify_local`` on its base-degree root patch."""
    start = time.perf_counter()
    k = root.degree
    vertices = vertex_positions(k, root.dimension)
    certified = last = 0
    refuted = None  # (depth, witness) of the refuting piece

    def settled(lists):
        return _certifies(lists[0], vertices)

    def split(leaf, depth, key):
        return _refine_ints(leaf, (1, 4 ** (depth + 1)), settled)

    def visit(piece, depth):
        nonlocal certified, last, refuted
        if refuted:
            return None
        last = depth
        nums, = piece.lists
        i = _refuting_index(nums, vertices)
        if i is not None:
            refuted = (depth, _vertex_witness(piece, vertices[i], i, root.den))
            return None
        if min(nums) < 0:
            return depth
        certified += piece.weight
        return None

    def stop(head, size):
        if refuted:
            verdict, (depth, witness) = Verdict.REFUTED, refuted
        elif head is None:
            verdict, depth, witness = Verdict.CERTIFIED, last, None
        elif head[1] == n_max:
            verdict, depth, witness = Verdict.INCONCLUSIVE, n_max, None
        else:
            return None
        return _report(Mode.LOCAL_SUBDIVISION, start, verdict, root.degree,
                       witness, depth, certified)

    return subdivide(Piece.of((root.num,)), split, visit, stop)


def _vertex_witness(piece: Piece, p: int, i: int, den: BernsteinPatch) -> Witness:
    """The witness at vertex i, position p, of a numerator piece: num(v_i),
    read from the piece's own patch, over den(v_i), the root denominator
    patch ``den`` evaluated there once."""
    num, = piece.patches()
    vertex = piece.vertex(i)
    return Witness(vertex, Fraction(num.nums[p], num.scale) / den.eval(vertex), "vertex")


def certify_negative(
    pnum: PowerPoly,
    pden: PowerPoly,
    simplex: Simplex,
    via: str = "global",
    k_max: int = K_MAX,
    n_max: int = N_MAX,
) -> CertificateReport:
    """Certify negativity by certifying positivity of the negated numerator.

    Verdicts map symmetrically; the reported witness value is restored to the
    original function's sign (a refuting witness is a point where the
    function is >= 0).
    """
    return _certify(pnum, pden, simplex, via, k_max, n_max, negate=True)


def _certify(pnum: PowerPoly, pden: PowerPoly, simplex: Simplex, via: str,
             k_max: int = K_MAX, n_max: int = N_MAX, negate: bool = False,
             claimed_min: Optional[Rational] = None,
             claimed_numerator_min: Optional[Rational] = None) -> CertificateReport:
    """The one certification run: convert, certify, report.

    The arguments are checked before any conversion, so their errors come
    ahead of a denominator that is not Bernstein-positive: ``k_max`` and
    ``n_max`` must be integers (``TypeError`` for a float, a bool or a
    string; the scan and the subdivision loop stop on equality with their
    budget, which a float never meets), then ``n_max`` nonnegative,
    ``k_max`` against the function degree (global only), ``via``, then the
    claims, each of which must be positive.  With ``negate`` the
    certificate runs on the root with its numerator negated (the
    conversion's gcd is sign-blind, so these are the integers of -pnum) and
    the witness value gets the function's sign back.  Claims add a-priori
    bounds read from the un-negated root: D1, degree and depth from
    ``claimed_min``; D2 from ``claimed_numerator_min`` over the numerator's
    own-degree patch, which is ``root.num`` (up to a sign D2 does not see)
    when the numerator has the root's degree.
    """
    k_max, n_max = _integer(k_max, "k_max"), _integer(n_max, "n_max")
    if n_max < 0:
        raise InvalidArgument(f"n_max must be nonnegative, got {n_max}")
    degree = max(pnum.degree, pden.degree)
    if via == "global" and k_max < degree:
        raise DegreeTooLow(f"k_max {k_max} below the function degree {degree}")
    if via not in ("sharpness", "global", "local"):
        raise InvalidArgument(f"unknown certification mode: {via!r}")
    fmin = None if claimed_min is None else ClaimedMinimum(claimed_min)
    pmin = None if claimed_numerator_min is None else ClaimedMinimum(claimed_numerator_min)
    root = rational_patch(pnum, pden, simplex)
    f = RationalPatch(root.num.negate(), root.den) if negate else root
    if via == "sharpness":
        report = certify_sharpness(f)
    elif via == "global":
        report = _certify_global(f, k_max)
    else:
        report = _certify_local(f, n_max)
    if negate:
        w = report.witness
        report = report._replace(witness=w and w._replace(value=-w.value), negated=True)
    if fmin is None and pmin is None:
        return report
    apriori = AprioriInfo()
    if fmin is not None:
        constants = convergence_constants(root)
        apriori = AprioriInfo(d1=apriori_d1(constants, fmin),
                              degree_bound=apriori_degree_omega(constants, fmin),
                              depth_bound=apriori_depth(constants, fmin))
    if pmin is not None:
        num = root.num if pnum.degree == root.degree else to_bernstein(
            pnum, pnum.degree, simplex)
        apriori = apriori._replace(d2=apriori_d2(num, pmin))
    return report._replace(apriori=apriori)

