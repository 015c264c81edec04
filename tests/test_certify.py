"""Certificate predicate, sharpness/global/local certification, a-priori
bounds, and negativity by sign flip."""

import json
import random
from fractions import Fraction as F

import pytest

from bernbound import (
    BernsteinPatch,
    ClaimedMinimum,
    ConvergenceConstants,
    PowerPoly,
    RationalPatch,
    Simplex,
    Verdict,
    apriori_degree_omega,
    apriori_degree_pr,
    apriori_depth,
    certify_global,
    certify_local,
    certify_negative,
    certify_sharpness,
    convergence_constants,
    minimize,
    rational_patch,
)
from bernbound import certify, optimize, ratpatch
from bernbound.certify import cert_predicate
from bernbound.errors import (
    DegreeTooLow,
    DenominatorNotPositive,
    InvalidArgument,
    NonPositiveClaim,
)
from bernbound.polypatch import to_bernstein_standard
from conftest import (
    fn_cert3,
    fn_dip,
    interval_leaves,
    leaf_log,
    pinned_corpus,
    rational_instances,
)

UNIT = Simplex.from_interval(0, 1)


def _ratio_patch(coeffs, simplex=UNIT):
    """Rational patch with the given ratios (denominator all ones)."""
    degree = len(coeffs) - 1
    num = BernsteinPatch(simplex, degree, tuple(F(c) for c in coeffs))
    den = BernsteinPatch(simplex, degree, tuple(F(1) for _ in coeffs))
    return RationalPatch(num, den)


class TestCertPredicate:
    def test_zero_interior_is_allowed(self):
        num, den, domain = fn_cert3()
        f = rational_patch(num, den, domain, 3)
        assert f.ratios == (F(1), F(0), F(1, 2), F(3, 2))
        assert cert_predicate(f)

    def test_negative_interior_fails(self):
        num, den, domain = fn_dip()
        assert not cert_predicate(rational_patch(num, den, domain))

    def test_zero_vertex_fails(self):
        assert not cert_predicate(_ratio_patch([0, 1, 1]))


class TestCertifySharpness:
    def test_min_at_vertex_certifies(self):
        report = certify_sharpness(_ratio_patch([F(1, 2), 1, 2]))
        assert report.verdict is Verdict.CERTIFIED
        assert report.witness.point == (F(0),)
        assert report.witness.value == F(1, 2)

    def test_interior_min_is_inconclusive(self):
        num, den, domain = fn_dip()
        report = certify_sharpness(rational_patch(num, den, domain))
        assert report.verdict is Verdict.INCONCLUSIVE

    def test_negative_vertex_refutes(self):
        report = certify_sharpness(_ratio_patch([-1, 2, 3]))
        assert report.verdict is Verdict.REFUTED
        assert report.witness.value == F(-1)
        assert report.witness.point == (F(0),)

    @pytest.mark.parametrize("make", [lambda: _ratio_patch([F(1, 2), 1, 2]),
                                      lambda: rational_patch(*fn_dip())],
                             ids=["certified", "inconclusive"])
    def test_finds_the_smallest_ratio_alone(self, monkeypatch, make):
        # The certificate reads one side of the enclosure: one search for
        # the smallest ratio, none for the largest.
        f, calls, search = make(), [], ratpatch._min_position
        monkeypatch.setattr(ratpatch, "_min_position",
                            lambda nums, dens: calls.append(1) or search(nums, dens))
        certify_sharpness(f)
        assert len(calls) == 1


class TestCertifyGlobal:
    def test_cert3_at_degree_three(self):
        num, den, domain = fn_cert3()
        report = certify_global(num, den, domain, k_max=5)
        assert report.verdict is Verdict.CERTIFIED
        assert report.degree_used == 3

    def test_negative_constant_refuted_at_base(self):
        report = certify_global(
            PowerPoly.constant(1, -1), PowerPoly.constant(1, 1), UNIT, k_max=4
        )
        assert report.verdict is Verdict.REFUTED
        assert report.degree_used == 0
        assert report.witness.value == F(-1)

    def test_dip_first_certifying_degree_regression(self):
        # positive function with an interior coefficient dip; the first
        # degree with a fully nonnegative coefficient list is 57
        num, den, domain = fn_dip()
        report = certify_global(num, den, domain, k_max=80)
        assert report.verdict is Verdict.CERTIFIED
        assert report.degree_used == 57
        shy = certify_global(num, den, domain, k_max=56)
        assert shy.verdict is Verdict.INCONCLUSIVE
        assert shy.degree_used == 56

    def test_k_max_below_degree(self):
        num, den, domain = fn_cert3()
        with pytest.raises(DegreeTooLow):
            certify_global(num, den, domain, k_max=1)

    def test_denominator_not_positive(self):
        with pytest.raises(DenominatorNotPositive):
            certify_global(
                PowerPoly.univariate([1]), PowerPoly.univariate([0, 1]), UNIT, 3
            )


class TestCertifyLocal:
    def test_reference_subdivision_trace(self):
        # depth-1 leaves are the four half-width pieces with the known
        # coefficient triples; only [0, 1/2] fails; its depth-2 halves
        # certify, so the verdict arrives at depth 2 with 5 leaves.  The
        # root's split tests [-1, 0] on its way to the two left leaves, and
        # it certifies, so the run visits it once for both; their triples
        # are read from their own conversions (``interval_leaves``).
        num, den, domain = fn_dip()
        with leaf_log(den) as log:
            report = certify_local(num, den, domain, n_max=3)
        assert report.verdict is Verdict.CERTIFIED
        assert report.depth_used == 2
        assert report.leaves == 5
        assert [(rec.simplex, rec.depth, rec.certified) for rec in log if rec.weight > 1] == [
            (Simplex.from_interval(F(-1), F(0)), 1, True)]
        assert sum(rec.weight for rec in log if rec.certified) == 5

        by_simplex = {rec.simplex: rec for rec in interval_leaves(log, num, den)
                      if rec.depth > 0}
        expected = {
            Simplex.from_interval(F(-1), F(-1, 2)):
                ((F(13, 10), F(11, 12), F(7, 11)), True, 1),
            Simplex.from_interval(F(-1, 2), F(0)):
                ((F(7, 11), F(3, 10), F(1, 7)), True, 1),
            Simplex.from_interval(F(0), F(1, 2)):
                ((F(1, 7), F(-1, 26), F(1, 25)), False, 1),
            Simplex.from_interval(F(1, 2), F(1)):
                ((F(1, 25), F(1, 8), F(1, 2)), True, 1),
            Simplex.from_interval(F(0), F(1, 4)):
                ((F(1, 7), F(1, 18), F(1, 35)), True, 2),
            Simplex.from_interval(F(1, 4), F(1, 2)):
                ((F(1, 35), F(0), F(1, 25)), True, 2),
        }
        assert set(by_simplex) == set(expected)
        for simplex, (ratios, certified, depth) in expected.items():
            rec = by_simplex[simplex]
            assert rec.ratios == ratios
            assert rec.certified is certified
            assert rec.depth == depth

    def test_constant_certifies_at_root(self):
        report = certify_local(
            PowerPoly.constant(1, 1), PowerPoly.constant(1, 1), UNIT, n_max=2
        )
        assert report.verdict is Verdict.CERTIFIED
        assert report.depth_used == 0
        assert report.leaves == 1

    def test_negative_vertex_refutes_immediately(self):
        report = certify_local(
            PowerPoly.univariate([-1, 2]), PowerPoly.constant(1, 1), UNIT, n_max=3
        )
        assert report.verdict is Verdict.REFUTED
        assert report.depth_used == 0
        assert report.witness.point == (F(0),)
        assert report.witness.value == F(-1)

    def test_inconclusive_when_budget_small(self):
        num, den, domain = fn_dip()
        report = certify_local(num, den, domain, n_max=1)
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.depth_used == 1

    def test_fixed_degree_throughout(self):
        num, den, domain = fn_dip()
        with leaf_log(den) as log:
            report = certify_local(num, den, domain, n_max=3)
        base = max(num.degree, den.degree)
        assert report.degree_used == base
        assert all(len(rec.ratios) == base + 1 for rec in log)

    def test_soundness_certified_leaves_positive(self):
        num, den, domain = fn_dip()
        with leaf_log(den) as log:
            certify_local(num, den, domain, n_max=3)
        for rec in log:
            if rec.certified:
                a = rec.simplex.vertex(0)[0]
                b = rec.simplex.vertex(1)[0]
                for i in range(51):
                    x = a + (b - a) * F(i, 50)
                    assert num.eval([x]) / den.eval([x]) > 0


class TestCertifyNegative:
    def test_negated_cert3_function(self):
        num, den, domain = fn_cert3()
        report = certify_negative(num.negate(), den, domain, via="global", k_max=5)
        assert report.verdict is Verdict.CERTIFIED
        assert report.degree_used == 3
        assert report.negated

    def test_positive_constant_refuted(self):
        report = certify_negative(
            PowerPoly.constant(1, 1), PowerPoly.constant(1, 1), UNIT, via="global"
        )
        assert report.verdict is Verdict.REFUTED
        assert report.witness.value == F(1)

    def test_mixed_sign_refuted_with_witness(self):
        # numerator x - 1/2 is negative near 0 but positive at 1
        report = certify_negative(
            PowerPoly.univariate([F(-1, 2), 1]), PowerPoly.constant(1, 1),
            UNIT, via="global",
        )
        assert report.verdict is Verdict.REFUTED
        assert report.witness.point == (F(1),)
        assert report.witness.value == F(1, 2)  # f(1) >= 0 disproves negativity

    def test_local_route(self):
        num, den, domain = fn_dip()
        report = certify_negative(num.negate(), den, domain, via="local", n_max=3)
        assert report.verdict is Verdict.CERTIFIED
        assert report.depth_used == 2

    @pytest.mark.parametrize("via", ["sharpness", "global", "local"])
    def test_every_route_checks_n_max(self, via):
        num, den, domain = fn_cert3()
        with pytest.raises(InvalidArgument, match="n_max must be nonnegative"):
            certify_negative(num.negate(), den, domain, via=via, n_max=-1)

    def test_unknown_route(self):
        num, den, domain = fn_cert3()
        with pytest.raises(InvalidArgument, match="unknown certification mode"):
            certify_negative(num, den, domain, via="bogus")


class TestClaimsCheckedFirst:
    """``_certify`` checks a claim before it converts anything, so a
    non-positive claim is ``NonPositiveClaim`` (a usage error) whatever the
    certificate or the denominator would have done."""

    @pytest.mark.parametrize("claim", ["claimed_min", "claimed_numerator_min"])
    @pytest.mark.parametrize("via", ["sharpness", "global", "local"])
    def test_no_conversion_before_the_claim(self, monkeypatch, via, claim):
        def unreachable(*args):
            raise AssertionError("converted before the claim was checked")

        monkeypatch.setattr(certify, "rational_patch", unreachable)
        num, den, domain = fn_dip()
        with pytest.raises(NonPositiveClaim):
            certify._certify(num, den, domain, via, n_max=6, **{claim: 0})

    @pytest.mark.parametrize("claim", ["claimed_min", "claimed_numerator_min"])
    def test_claim_comes_ahead_of_a_mixed_sign_denominator(self, claim):
        # 3x^2 - 3x + 1 is positive on [0, 1], but its Bernstein
        # coefficients are (1, -1/2, 1).
        num, den = PowerPoly.constant(1, 1), PowerPoly.univariate([1, -3, 3])
        with pytest.raises(DenominatorNotPositive):
            certify._certify(num, den, UNIT, "global", claimed_min=1)
        with pytest.raises(NonPositiveClaim):
            certify._certify(num, den, UNIT, "global", **{claim: 0})


class TestBudgetsAreIntegers:
    """A budget is read as an integer before any conversion.  The scan and
    the subdivision loop stop on equality with their budget, which a float
    never meets, and a bool is no depth.  1 + x on [0, 1] decides at once,
    so a budget taken as given would return a report instead of raising."""

    BAD = [12.5, True, "3"]

    @pytest.fixture(autouse=True)
    def no_conversion(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("converted before the budget was checked")

        monkeypatch.setattr(certify, "rational_patch", unreachable)
        monkeypatch.setattr(optimize, "rational_patch", unreachable)

    @pytest.mark.parametrize("bad", BAD)
    def test_certify(self, bad):
        num, den = PowerPoly.univariate([1, 1]), PowerPoly.constant(1, 1)
        with pytest.raises(TypeError, match=rf"^k_max {bad!r} is not an integer$"):
            certify_global(num, den, UNIT, k_max=bad)
        with pytest.raises(TypeError, match=rf"^n_max {bad!r} is not an integer$"):
            certify_local(num, den, UNIT, n_max=bad)
        for via in ("sharpness", "global", "local"):
            with pytest.raises(TypeError, match="is not an integer"):
                certify_negative(num.negate(), den, UNIT, via=via, k_max=bad)
            with pytest.raises(TypeError, match="is not an integer"):
                certify_negative(num.negate(), den, UNIT, via=via, n_max=bad)

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("mode", ["best-first", "uniform"])
    def test_minimize(self, bad, mode):
        num, den = PowerPoly.univariate([1, 1]), PowerPoly.constant(1, 1)
        with pytest.raises(TypeError, match=rf"^budget {bad!r} is not an integer$"):
            minimize(num, den, UNIT, F(1, 10), budget=bad, mode=mode)


# Problems whose root has a non-positive vertex value, with the first such
# vertex: every mode refutes there, at the root, before any elevation or split.
ROOT_REFUTED = {
    "linear over linear": (PowerPoly.univariate([F(-1, 4), 1]),
                           PowerPoly.univariate([2, 1]), UNIT, (F(0),)),
    "zero at a vertex": (PowerPoly.univariate([1, 0, -1]),
                         PowerPoly.univariate([1, 1]), UNIT, (F(1),)),
    "third vertex, quadratic denominator": (
        PowerPoly(2, {(0, 0): F(1, 10), (0, 1): -1, (2, 0): 1}),
        PowerPoly(2, {(0, 0): 1, (1, 0): 1, (0, 2): 1}),
        Simplex([[0, 0], [1, 0], [0, 1]]), (F(0), F(1))),
    "fractional triangle": (
        PowerPoly(2, {(0, 0): -1, (1, 0): 1, (0, 1): 1}),
        PowerPoly(2, {(0, 0): 2, (1, 0): F(1, 2), (0, 1): F(1, 3)}),
        Simplex([[F(1, 2), F(-1, 3)], [F(5, 2), F(1, 4)], [F(-2, 3), F(3, 2)]]),
        (F(1, 2), F(-1, 3))),
}


class TestCrossModeRefutation:
    @pytest.mark.parametrize("name", ROOT_REFUTED)
    def test_every_mode_reports_the_same_vertex(self, name):
        num, den, domain, point = ROOT_REFUTED[name]
        value = num.eval(point) / den.eval(point)
        assert value <= 0
        reports = {
            "sharpness": certify_sharpness(rational_patch(num, den, domain)),
            "global": certify_global(num, den, domain, k_max=10),
            "local": certify_local(num, den, domain, n_max=3),
        }
        for via, report in reports.items():
            assert report.verdict is Verdict.REFUTED, via
            assert (report.witness.point, report.witness.value) == (point, value), via
            assert report.witness.kind == "vertex"
            negated = certify_negative(num.negate(), den, domain, via=via)
            assert negated.verdict is Verdict.REFUTED, via
            assert negated.negated
            assert (negated.witness.point, negated.witness.value) == (point, -value), via
        assert reports["local"].depth_used == 0
        assert reports["global"].degree_used == max(num.degree, den.degree)


class TestAprioriDegrees:
    def _constants(self, omega, base=2):
        return ConvergenceConstants(
            zeta=F(1), omega=F(omega), omega_prime=F(omega), min_den=F(1),
            base_degree=base, working_degree=base,
        )

    def test_omega_zero_degenerates(self):
        c = self._constants(0, base=1)
        assert apriori_degree_omega(c, ClaimedMinimum(F(3))) == 2
        c2 = self._constants(0, base=4)
        assert apriori_degree_omega(c2, ClaimedMinimum(F(3))) == 4

    def test_omega_example(self):
        c = self._constants(19)
        assert apriori_degree_omega(c, ClaimedMinimum(F(1, 2))) == 40

    def test_omega_end_to_end(self):
        num, den, domain = fn_dip()
        result = minimize(num, den, domain, F(1, 1000))
        claim = ClaimedMinimum(result.lower)
        constants = convergence_constants(rational_patch(num, den, domain))
        bound = apriori_degree_omega(constants, claim)
        report = certify_global(num, den, domain, k_max=bound)
        assert report.verdict is Verdict.CERTIFIED
        assert report.degree_used <= bound

    def test_pr_linear_is_vacuous(self):
        patch = to_bernstein_standard(PowerPoly.univariate([1, 1]), 1)
        assert apriori_degree_pr(patch, ClaimedMinimum(F(1))) == 1

    def test_pr_constant_returns_own_degree(self):
        patch = to_bernstein_standard(PowerPoly.constant(1, 5), 0)
        assert apriori_degree_pr(patch, ClaimedMinimum(F(5))) == 0

    def test_pr_quadratic(self):
        # coefficients (13, -6, 3): l(l-1)/2 * 13 / (3/28) = 364/3 -> 122
        patch = BernsteinPatch(UNIT, 2, (F(13), F(-6), F(3)))
        assert apriori_degree_pr(patch, ClaimedMinimum(F(3, 28))) == 122

    def test_claim_must_be_positive(self):
        with pytest.raises(NonPositiveClaim):
            ClaimedMinimum(F(0))
        with pytest.raises(NonPositiveClaim):
            ClaimedMinimum(F(-1))


class TestAprioriDepth:
    def _constants(self, omega_prime):
        return ConvergenceConstants(
            zeta=F(1), omega=F(1), omega_prime=F(omega_prime), min_den=F(1),
            base_degree=2, working_degree=2,
        )

    def test_zero_depth_when_already_small(self):
        c = self._constants(F(1, 8))  # 2w' = 1/4 < 1
        assert apriori_depth(c, ClaimedMinimum(F(1))) == 0

    def test_power_counting(self):
        c = self._constants(F(800))  # 2w'/fmin = 1600
        assert apriori_depth(c, ClaimedMinimum(F(1))) == 6

    def test_boundary_strictness(self):
        c = self._constants(F(2))  # 2w'/fmin = 4: N=1 gives exactly 1, not <
        assert apriori_depth(c, ClaimedMinimum(F(1))) == 2

    def test_depth_bounds_observed_depth(self):
        for case in pinned_corpus()[:6]:
            constants = convergence_constants(rational_patch(case.num, case.den, case.domain))
            depth = apriori_depth(constants, ClaimedMinimum(case.fmin))
            report = certify_local(case.num, case.den, case.domain,
                                   n_max=max(depth, 1))
            assert report.verdict is Verdict.CERTIFIED
            assert report.depth_used <= max(depth, 0)

    def test_zero_omega_prime(self):
        assert apriori_depth(self._constants(F(0)), ClaimedMinimum(F(1, 100))) == 0

    @staticmethod
    def _linear_scan(constants, fmin):
        """The defining search, one depth at a time (quadratic in the depth)."""
        factor = 2 * constants.omega_prime
        depth = 0
        while F(1, 4) ** depth * factor >= fmin.value:
            depth += 1
        return depth

    @pytest.mark.parametrize("shrink, claims", [
        (F(1, 2), (F(1, 100), F(1, 3), F(1), F(2), F(10))),
        (F(1, 3), (F(1, 100), F(1, 3), F(1), F(2), F(10))),
        (F(99, 100), (F(1, 100), F(1, 3), F(1), F(2), F(10))),
        (F(999, 1000), (F(1, 3), F(1), F(2), F(10))),
    ])
    def test_matches_linear_scan(self, shrink, claims):
        # fn_dip on its domain [-1, 1] shrunk to [-shrink, shrink]
        num, den, _ = fn_dip()
        domain = Simplex.from_interval(-shrink, shrink)
        constants = convergence_constants(rational_patch(num, den, domain))
        for claim in claims:
            fmin = ClaimedMinimum(claim)
            assert apriori_depth(constants, fmin) == self._linear_scan(constants, fmin)

    def test_matches_linear_scan_near_powers_of_four(self):
        num, den, domain = fn_dip()
        constants = [convergence_constants(rational_patch(num, den, domain))]
        # 2w' at, just below and just above powers of 4, and far from them
        constants += [self._constants(F(4 ** e + d, 2))
                      for e in range(6) for d in (F(-1, 7), 0, F(1, 7))]
        constants += [self._constants(w) for w in (F(1, 3), F(5), F(1000, 7))]
        for c in constants:
            for claim in (F(1, 100), F(1, 3), F(1, 2), F(1), F(2), F(10), F(64)):
                fmin = ClaimedMinimum(claim)
                assert apriori_depth(c, fmin) == self._linear_scan(c, fmin)

    @pytest.mark.parametrize("digits", [2, 3, 10, 100, 1000, 4299])
    def test_smallest_depth_down_to_the_parse_limit(self, digits):
        # Claims from 1/100 down to 10^-4299, the smallest one a spec can
        # write: N - 1 fails the condition and N meets it.
        num, den, domain = fn_dip()
        constants = convergence_constants(rational_patch(num, den, domain))
        fmin = ClaimedMinimum(f"1e-{digits}")
        assert fmin.value == F(1, 10 ** digits)
        depth = apriori_depth(constants, fmin)
        factor = 2 * constants.omega_prime
        assert F(1, 4) ** (depth - 1) * factor >= fmin.value
        assert F(1, 4) ** depth * factor < fmin.value


class TestVerdictSoundness:
    """Certified runs must be positive on a dense sample of every certified
    leaf; refuted runs must carry a witness whose exact value is <= 0."""

    def _sample_leaf(self, simplex, count=60):
        rng = random.Random(hash(simplex.vertices) & 0xFFFF)
        from conftest import random_point_in

        return [random_point_in(rng, simplex) for _ in range(count)]

    def test_random_corpus_global(self):
        from conftest import rational_instances

        for pnum, pden, simplex, _ in rational_instances(25, seed=7070, max_n=2):
            report = certify_global(pnum, pden, simplex, k_max=12)
            if report.verdict is Verdict.CERTIFIED:
                for x in self._sample_leaf(simplex):
                    assert pnum.eval(x) / pden.eval(x) > 0
            elif report.verdict is Verdict.REFUTED:
                w = report.witness
                assert pnum.eval(w.point) / pden.eval(w.point) == w.value
                assert w.value <= 0

    def test_random_corpus_local(self):
        from conftest import rational_instances

        for pnum, pden, simplex, _ in rational_instances(12, seed=7171, max_n=2):
            with leaf_log(pden) as log:
                report = certify_local(pnum, pden, simplex, n_max=3)
            if report.verdict is Verdict.CERTIFIED:
                for rec in log:
                    if rec.certified:
                        for x in self._sample_leaf(rec.simplex, 25):
                            assert pnum.eval(x) / pden.eval(x) > 0
            elif report.verdict is Verdict.REFUTED:
                w = report.witness
                assert pnum.eval(w.point) / pden.eval(w.point) == w.value
                assert w.value <= 0


class TestNegatedDenominator:
    """f = (-p)/(-q) is built as p/q: a denominator whose Bernstein
    coefficients are all negative is negated together with the numerator."""

    def test_same_ratios_verdicts_and_brackets(self):
        # The random instances mostly refute; the pinned ones certify.
        cases = [case[:3] for case in rational_instances(10, seed=7272, max_n=2, max_l=3)]
        cases += [(case.num, case.den, case.domain) for case in pinned_corpus()[:4]]
        for pnum, pden, simplex in cases:
            neg = (pnum.negate(), pden.negate(), simplex)
            for degree in (None, max(pnum.degree, pden.degree) + 2):
                assert (rational_patch(*neg, degree).to_json()
                        == rational_patch(pnum, pden, simplex, degree).to_json())
            for run in (lambda *p: certify_global(*p, k_max=8),
                        lambda *p: certify_local(*p, n_max=3)):
                a, b = run(*neg), run(pnum, pden, simplex)
                assert a._replace(wall_clock=0) == b._replace(wall_clock=0)
            eps = F(1, 1000)
            assert minimize(*neg, eps) == minimize(pnum, pden, simplex, eps)

    def test_mixed_sign_denominator_still_raises(self):
        # x - 1/2 changes sign on [0, 1]: no negation puts it in the form.
        with pytest.raises(DenominatorNotPositive):
            rational_patch(PowerPoly.constant(1, 1), PowerPoly.univariate([F(-1, 2), 1]),
                           UNIT)


class TestCertPersistence:
    def test_strictly_positive_min_persists_under_elevation(self):
        for case in pinned_corpus()[:8]:
            f = rational_patch(case.num, case.den, case.domain)
            for _ in range(6):
                if min(f.ratios) > 0:
                    g = f.elevate()
                    assert min(g.ratios) > 0
                    f = g
                else:
                    f = f.elevate()


class TestReportJson:
    def test_round_trip(self):
        num, den, domain = fn_dip()
        report = certify_local(num, den, domain, n_max=3)
        data = json.loads(json.dumps(report.to_json()))
        assert data["verdict"] == "certified"
        assert data["mode"] == "local-subdivision"
        assert data["depth_used"] == 2
        assert data["leaves"] == 5
        assert data["wall_clock"] >= 0

    def test_witness_json(self):
        report = certify_sharpness(_ratio_patch([-1, 2, 3]))
        data = report.to_json()
        assert data["witness"]["value"] == "-1"
        assert data["witness"]["point"] == ["0"]


class TestRecordTypes:
    """Reports and claims are read-only values; reports are NamedTuples."""

    def test_report_fields_cannot_be_assigned(self):
        num, den, domain = fn_dip()
        report = certify_local(num, den, domain, n_max=3)
        with pytest.raises(AttributeError):
            report.leaves = 0
        with pytest.raises(AttributeError):
            report.witness = None
        assert report.leaves == 5

    def test_report_field_order(self):
        assert certify.CertificateReport._fields == (
            "verdict", "mode", "degree_used", "depth_used", "witness", "leaves",
            "apriori", "negated", "wall_clock")
        assert certify.AprioriInfo._fields == ("d1", "d2", "degree_bound", "depth_bound")
        assert certify.Witness._fields == ("point", "value", "kind")

    def test_replace(self):
        report = certify_sharpness(_ratio_patch([-1, 2, 3]))
        negated = report._replace(negated=True, wall_clock=0.0)
        assert negated.negated and not report.negated
        assert negated._replace(negated=False) == report._replace(wall_clock=0.0)
        info = certify.AprioriInfo(d1=F(3))._replace(depth_bound=2)
        assert info == certify.AprioriInfo(F(3), None, None, 2)
        assert info.to_json() == {"D1": "3", "depth_bound": 2}

    def test_claimed_minimum(self):
        with pytest.raises(NonPositiveClaim):
            ClaimedMinimum(0)
        claim = ClaimedMinimum("1/2")
        assert claim.value == F(1, 2)
        assert claim == ClaimedMinimum(F(1, 2)) and claim != ClaimedMinimum(1)
        assert hash(claim) == hash(ClaimedMinimum(F(1, 2)))
        assert repr(claim) == "ClaimedMinimum(value=Fraction(1, 2))"
        with pytest.raises(AttributeError):
            claim.value = F(1)
        with pytest.raises(AttributeError):
            del claim.value
        assert claim.value == F(1, 2)
        # A copy is built through the constructor, so it parses and checks.
        assert claim._replace(value="3/4") == ClaimedMinimum(F(3, 4))
        with pytest.raises(NonPositiveClaim):
            claim._replace(value=-1)
