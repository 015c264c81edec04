"""Branch-and-bound minimization: bounds, sandwich, progress, guarantees."""

from fractions import Fraction as F
from itertools import count

import pytest

from bernbound import (
    ClaimedMinimum,
    ConvergenceConstants,
    PowerPoly,
    Simplex,
    apriori_steps,
    convergence_constants,
    enumerate_indices,
    minimize,
    rational_patch,
)
from bernbound.errors import BudgetExhausted, NonPositiveClaim, NonPositiveEpsilon
from bernbound.indexing import vertex_positions
from bernbound.optimize import _upper_bound, _witness, local_bounds
from bernbound.ratpatch import Piece, _min_position
from conftest import fn_cert3, fn_dip, grid_point, pinned_corpus

UNIT = Simplex.from_interval(0, 1)


def _fraction_local_bounds(f):
    """``local_bounds`` with the grid value taken by evaluating at the grid
    point through its barycentric coordinates."""
    ratios = f.ratios
    m = min(ratios)
    alpha = enumerate_indices(f.degree, f.dimension)[ratios.index(m)]
    point = grid_point(alpha, f.degree, f.simplex)
    delta, witness = f.num.eval(point) / f.den.eval(point), point
    for i, value in enumerate(map(f.ratio, vertex_positions(f.degree, f.dimension))):
        if value < delta:
            delta, witness = value, f.simplex.vertex(i)
    return m, delta, witness


def _brackets(num, den, domain, epsilon, mode):
    """(lower, upper) of ``minimize`` at budget 0, 1, ... up to the first
    budget whose run converges, read from ``BudgetExhausted.partial`` until
    then.  For ``uniform`` the budget counts rounds, so these are the
    brackets after each round."""
    out = []
    for budget in count():
        try:
            result = minimize(num, den, domain, epsilon, budget=budget, mode=mode)
        except BudgetExhausted as exc:
            result = exc.partial
        out.append((result.lower, result.upper))
        if result.converged:
            return out


class TestLocalBounds:
    def test_matches_fraction_path_on_pinned_corpus(self):
        for case in pinned_corpus():
            root = rational_patch(case.num, case.den, case.domain)
            for f in (root, root.elevate().elevate(), *root.split_round()):
                assert local_bounds(f) == _fraction_local_bounds(f)

    def test_dip_function(self):
        num, den, domain = fn_dip()
        f = rational_patch(num, den, domain)
        m, delta, witness = local_bounds(f)
        assert m == F(-1)
        assert delta == F(1, 7)
        assert witness == (F(0),)

    def test_constant(self):
        f = rational_patch(
            PowerPoly.constant(1, F(5, 2)), PowerPoly.constant(1, 1), UNIT, 0
        )
        m, delta, witness = local_bounds(f)
        assert m == delta == F(5, 2)

    def test_linear_over_constant(self):
        f = rational_patch(
            PowerPoly.univariate([1, 2]), PowerPoly.constant(1, 1), UNIT
        )
        m, delta, witness = local_bounds(f)
        assert m == delta == F(1)
        assert witness == (F(0),)

    def test_upper_bound_is_true_value(self):
        num, den, domain = fn_dip()
        for degree in (2, 3, 5):
            f = rational_patch(num, den, domain, degree)
            m, delta, witness = local_bounds(f)
            assert num.eval(witness) / den.eval(witness) == delta
            assert m <= delta


    def test_upper_bound_only_below_the_incumbent(self):
        # minimize values a piece only to lower its incumbent: an upper
        # bound equal to it, here as an unreduced pair, is no improvement
        # and keeps the incumbent's witness.
        f = rational_patch(*fn_dip())
        piece = Piece.of((f.num, f.den))
        args = piece, _min_position(*piece.lists)
        a, b, where = _upper_bound(*args)
        value, point = F(a, b), _witness(piece, where)
        assert (value, point) == local_bounds(f)[1:]
        p, q = value.numerator, value.denominator
        assert _upper_bound(*args, (2 * p, 2 * q)) is None
        assert _upper_bound(*args, (2 * p + 1, 2 * q)) == (a, b, where)


class TestMinimize:
    def test_dip_function_bracket(self):
        num, den, domain = fn_dip()
        result = minimize(num, den, domain, F(1, 1000))
        assert result.converged
        assert result.gap < F(1, 1000)
        # sampling oracle: the bracket surrounds the sampled minimum
        sampled = min(
            num.eval([F(-10_000 + i, 10_000)]) / den.eval([F(-10_000 + i, 10_000)])
            for i in range(0, 20_001, 2)
        )
        assert result.lower <= sampled
        assert result.upper <= sampled + F(1, 1000)
        # the upper bound is an actual function value at the witness
        w = result.argmin_candidate
        assert num.eval(w) / den.eval(w) == result.upper

    def test_constant_exact_in_zero_rounds(self):
        result = minimize(
            PowerPoly.constant(1, F(3, 7)), PowerPoly.constant(1, 1), UNIT, F(1, 100)
        )
        assert result.converged
        assert result.steps == 0
        assert result.lower == result.upper == F(3, 7)

    def test_cert3_function_positive_minimum(self):
        num, den, domain = fn_cert3()
        result = minimize(num, den, domain, F(1, 100))
        assert result.converged and result.gap < F(1, 100)
        assert result.lower > 0
        # true minimum is 1/2 at x = 1/3
        assert result.lower <= F(1, 2) <= result.upper

    def test_monotone_progress(self):
        num, den, domain = fn_dip()
        brackets = _brackets(num, den, domain, F(1, 1000), "uniform")
        assert len(brackets) > 2
        lowers = [m for m, _ in brackets]
        uppers = [d for _, d in brackets]
        assert all(a <= b for a, b in zip(lowers, lowers[1:]))
        assert all(a >= b for a, b in zip(uppers, uppers[1:]))

    def test_deterministic(self):
        num, den, domain = fn_dip()
        a = minimize(num, den, domain, F(1, 500))
        b = minimize(num, den, domain, F(1, 500))
        assert (a.lower, a.upper, a.argmin_candidate, a.steps, a.leaves) == (
            b.lower, b.upper, b.argmin_candidate, b.steps, b.leaves
        )

    def test_best_first_matches_uniform_bracket_validity(self):
        for case in pinned_corpus()[:5]:
            best = minimize(case.num, case.den, case.domain, F(1, 100))
            assert best.lower <= case.fmin <= best.upper
            uniform = minimize(case.num, case.den, case.domain, F(1, 100),
                               mode="uniform")
            assert uniform.lower <= case.fmin <= uniform.upper
            assert best.steps <= uniform.steps

    def test_gap_guarantee_at_apriori_rounds(self):
        case = pinned_corpus()[9]
        constants = convergence_constants(rational_patch(case.num, case.den, case.domain))
        eps = F(1, 100)
        rounds = apriori_steps(constants, eps)
        result = minimize(case.num, case.den, case.domain, eps,
                          budget=rounds, mode="uniform")
        assert result.converged and result.gap < eps
        assert result.steps <= rounds

    def test_epsilon_validation(self):
        num, den, domain = fn_dip()
        with pytest.raises(NonPositiveEpsilon):
            minimize(num, den, domain, 0)
        with pytest.raises(NonPositiveEpsilon):
            minimize(num, den, domain, F(-1, 10))

    def test_budget_exhaustion_carries_partial(self):
        num, den, domain = fn_dip()
        with pytest.raises(BudgetExhausted) as info:
            minimize(num, den, domain, F(1, 10**6), budget=2)
        partial = info.value.partial
        assert partial is not None
        assert not partial.converged
        assert partial.lower <= partial.upper
        with pytest.raises(BudgetExhausted):
            minimize(num, den, domain, F(1, 10**6), budget=2, mode="uniform")

    def test_unknown_mode_rejected(self):
        num, den, domain = fn_dip()
        with pytest.raises(ValueError):
            minimize(num, den, domain, F(1, 10), mode="depth-first")

    def test_sandwich_on_corpus(self):
        for case in pinned_corpus():
            result = minimize(case.num, case.den, case.domain, F(1, 50))
            assert result.lower <= case.fmin <= result.upper
            assert result.gap < F(1, 50)

    def test_sandwich_every_iteration_univariate(self):
        # dyadic sample grid contains every witness the search can produce
        # on [0, 1], so the sampled minimum sits inside every bracket a
        # budget stops at
        grid = [F(i, 4096) for i in range(4097)]
        for case in pinned_corpus()[:3]:
            sampled = min(
                case.num.eval([x]) / case.den.eval([x]) for x in grid
            )
            for mode in ("uniform", "best-first"):
                for lower, upper in _brackets(case.num, case.den, case.domain,
                                              F(1, 50), mode):
                    assert lower <= sampled <= upper

    def test_sandwich_every_iteration_bivariate(self):
        num = PowerPoly(2, {(0, 0): F(5, 8), (2, 0): 1, (0, 2): 1})
        den = PowerPoly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
        domain = Simplex([[0, 0], [1, 0], [0, 1]])
        sampled = min(
            num.eval((F(i, 64), F(j, 64))) / den.eval((F(i, 64), F(j, 64)))
            for i in range(65)
            for j in range(65 - i)
        )
        for lower, upper in _brackets(num, den, domain, F(1, 20), "uniform"):
            assert lower <= sampled <= upper


class TestAprioriSteps:
    def _constants(self, omega_prime):
        return ConvergenceConstants(
            zeta=F(1), omega=F(1), omega_prime=F(omega_prime), min_den=F(1),
            base_degree=2, working_degree=2,
        )

    def test_zero_rounds_when_slack(self):
        assert apriori_steps(self._constants(F(1, 4)), F(1)) == 0

    def test_power_counting(self):
        # 2w'/eps = 1600: 4^6 > 1600 >= 4^5
        assert apriori_steps(self._constants(F(800)), F(1)) == 6

    def test_boundary_strictness(self):
        assert apriori_steps(self._constants(F(2)), F(1)) == 2

    def test_epsilon_validation(self):
        with pytest.raises(NonPositiveEpsilon):
            apriori_steps(self._constants(F(1)), 0)


class TestValidatedLowerBound:
    # A positive minimize lower bound is a proof, so it is a claim as it is.
    def test_positive_result_promotes(self):
        num, den, domain = fn_cert3()
        result = minimize(num, den, domain, F(1, 100))
        claim = ClaimedMinimum(result.lower)
        assert claim.value == result.lower

    def test_dip_function_promotes(self):
        num, den, domain = fn_dip()
        claim = ClaimedMinimum(minimize(num, den, domain, F(1, 1000)).lower)
        assert claim.value > 0

    def test_negative_fails(self):
        result = minimize(
            PowerPoly.constant(1, -1), PowerPoly.constant(1, 1), UNIT, F(1, 10)
        )
        with pytest.raises(NonPositiveClaim):
            ClaimedMinimum(result.lower)


class TestResultJson:
    def test_fields_round_trip(self):
        import json

        num, den, domain = fn_dip()
        result = minimize(num, den, domain, F(1, 100))
        data = json.loads(json.dumps(result.to_json()))
        assert data["converged"] is True
        assert F(data["lower"]) == result.lower
        assert F(data["upper"]) == result.upper
        assert data["rounds"] == result.steps
