"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria covered, in order:
 1. coefficient regression for the dip function on [-1, 1];
 2. coefficient/certificate regression for the degree-3-certifiable function;
 3. local-certificate subdivision regression, matching the known
    two-decimal (truncated) coefficient tables per depth;
 4. exact enclosure soundness on 500 random rational functions;
 5. enclosure nesting under six elevations on the same corpus;
 6. linear convergence rate bound over twenty pinned univariate functions;
 7. quadratic convergence under uniform subdivision (up to 256 pieces);
 8. control-net deviation bound on 100 random polynomials;
 9. edge-split coefficients equal from-scratch reconversion (200 cases);
10. minimization gap guarantee at the a-priori round count, three gaps;
11. a-priori degree/depth bounds dominate the observed certification work.
"""

import random
import time
from fractions import Fraction as F

from bernbound import (
    ClaimedMinimum,
    PowerPoly,
    Simplex,
    Verdict,
    apriori_degree_omega,
    apriori_degree_pr,
    apriori_depth,
    apriori_steps,
    certify_global,
    certify_local,
    convergence_constants,
    enumerate_indices,
    minimize,
    rational_patch,
    standard_simplex,
    to_bernstein,
)
from bernbound.certify import cert_predicate
from bernbound.polypatch import to_bernstein_standard
from conftest import (
    encloses,
    fn_cert3,
    fn_dip,
    grid_point,
    interval_leaves,
    leaf_log,
    pinned_corpus,
    random_point_in,
    random_poly,
    random_simplex,
    rational_instances,
)


def _report(name, elapsed, limit=None):
    budget = f" (limit {limit:.0f}s)" if limit else ""
    print(f"PASS {name}: {elapsed:.2f}s{budget}")


def _truncate2(value):
    """Two-decimal truncation toward zero, exactly."""
    return F(int(value * 100), 100)


def test_01_dip_function_coefficient_regression():
    start = time.perf_counter()
    num, den, domain = fn_dip()
    f = rational_patch(num, den, domain, 2)
    assert f.ratios == (F(13, 10), F(-1), F(1, 2))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("01 interval coefficient regression", elapsed, 1)


def test_02_degree_three_certificate_regression():
    start = time.perf_counter()
    num, den, domain = fn_cert3()
    f2 = rational_patch(num, den, domain, 2)
    assert min(f2.ratios) == F(-1, 2)
    f3 = rational_patch(num, den, domain, 3)
    assert f3.ratios == (F(1), F(0), F(1, 2), F(3, 2))
    assert cert_predicate(f3)
    assert not cert_predicate(f2)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("02 degree-3 certificate regression", elapsed, 1)


def test_03_local_certificate_subdivision_regression():
    start = time.perf_counter()
    num, den, domain = fn_dip()
    with leaf_log(den) as log:
        report = certify_local(num, den, domain, n_max=3)
    assert report.verdict is Verdict.CERTIFIED
    assert report.depth_used == 2
    assert report.leaves == 5
    # The run settles [-1, 0] inside the root's split and visits it once for
    # its two depth-1 leaves, whose coefficients come from their own
    # conversions here.
    assert [(rec.simplex, rec.weight) for rec in log if rec.weight > 1] == [
        (Simplex.from_interval(F(-1), F(0)), 2)]
    log = interval_leaves(log, num, den)

    # published two-decimal tables truncate toward zero; the final printed
    # 0.4 is an erratum for the exact value 1/25 = 0.04
    printed = {
        Simplex.from_interval(F(-1), F(-1, 2)): (F("1.3"), F("0.91"), F("0.63")),
        Simplex.from_interval(F(-1, 2), F(0)): (F("0.63"), F("0.3"), F("0.14")),
        Simplex.from_interval(F(0), F(1, 2)): (F("0.14"), F("-0.03"), F("0.04")),
        Simplex.from_interval(F(1, 2), F(1)): (F("0.04"), F("0.12"), F("0.5")),
    }
    depth1 = {rec.simplex: rec for rec in log if rec.depth == 1}
    assert set(depth1) == set(printed)
    for simplex, truncated in printed.items():
        rec = depth1[simplex]
        assert tuple(_truncate2(r) for r in rec.ratios) == truncated
    assert not depth1[Simplex.from_interval(F(0), F(1, 2))].certified
    assert sum(1 for rec in depth1.values() if rec.certified) == 3

    depth2 = {rec.simplex: rec for rec in log if rec.depth == 2}
    assert set(depth2) == {
        Simplex.from_interval(F(0), F(1, 4)),
        Simplex.from_interval(F(1, 4), F(1, 2)),
    }
    assert all(rec.certified for rec in depth2.values())
    right = depth2[Simplex.from_interval(F(1, 4), F(1, 2))]
    assert right.ratios[2] == F(1, 25)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("03 local certificate regression", elapsed, 1)


CORPUS_500 = None


def _corpus_500():
    global CORPUS_500
    if CORPUS_500 is None:
        CORPUS_500 = rational_instances(500, seed=42, max_n=3, max_l=4)
    return CORPUS_500


def test_04_enclosure_soundness_500_random_functions():
    start = time.perf_counter()
    rng = random.Random(4242)
    checked = 0
    for pnum, pden, simplex, degree in _corpus_500():
        f = rational_patch(pnum, pden, simplex, degree)
        lo, hi = f.enclosure()
        for _ in range(200):
            x = random_point_in(rng, simplex)
            value = pnum.eval(x) / pden.eval(x)
            assert lo <= value <= hi
            checked += 1
    assert checked == 100_000
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    _report("04 enclosure soundness, 500 functions x 200 points", elapsed, 120)


def test_05_elevation_nesting_on_corpus():
    start = time.perf_counter()
    violations = 0
    for pnum, pden, simplex, degree in _corpus_500():
        f = rational_patch(pnum, pden, simplex, degree)
        previous = f.enclosure()
        for _ in range(6):
            f = f.elevate()
            current = f.enclosure()
            if not encloses(previous, current):
                violations += 1
            previous = current
    assert violations == 0
    elapsed = time.perf_counter() - start
    _report("05 elevation nesting, 6 steps x 500 functions", elapsed)


def test_06_linear_convergence_rate_bound():
    start = time.perf_counter()
    corpus = pinned_corpus()
    assert len(corpus) == 20
    violations = 0
    for case in corpus:
        constants = convergence_constants(rational_patch(case.num, case.den, case.domain))
        base = constants.base_degree
        for k in range(base + 1, base + 21):
            f = rational_patch(case.num, case.den, case.domain, k)
            lo, hi = f.enclosure()
            bound = constants.omega / (k - 1)
            if case.fmin - lo > bound:
                violations += 1
            if hi - case.fmax > bound:
                violations += 1
    assert violations == 0
    elapsed = time.perf_counter() - start
    _report("06 linear convergence bound, 20 functions x 20 degrees", elapsed)


def test_07_quadratic_convergence_under_subdivision():
    start = time.perf_counter()
    violations = 0
    for case in pinned_corpus():
        constants = convergence_constants(rational_patch(case.num, case.den, case.domain))
        pieces = [rational_patch(case.num, case.den, case.domain)]
        for level in range(0, 9):
            if level > 0:
                pieces = [half for p in pieces for half in p.split_edge(0, 1)]
            lo = min(min(p.ratios) for p in pieces)
            hi = max(max(p.ratios) for p in pieces)
            width = F(1, 2 ** level)  # domain [0, 1] has unit width
            bound = width * width * constants.omega_prime
            # The endpoint distance of the range and the enclosure.
            if max(abs(case.fmin - lo), abs(case.fmax - hi)) > bound:
                violations += 1
        assert len(pieces) == 256
    assert violations == 0
    elapsed = time.perf_counter() - start
    _report("07 quadratic convergence, 20 functions x 8 levels", elapsed)


def test_08_control_net_deviation_bound():
    start = time.perf_counter()
    rng = random.Random(808)
    violations = 0
    for _ in range(100):
        n = rng.randint(1, 3)
        p = random_poly(rng, n, rng.randint(2, 4 if n < 3 else 3))
        # T = n(n+2) l(l-1)/24 * sup|second differences|: omega over the
        # denominator 1, whose second differences vanish.
        one = PowerPoly.constant(n, 1)
        t_const = convergence_constants(rational_patch(p, one, standard_simplex(n))).omega
        for k in range(p.degree + 1, p.degree + 6):
            bound = t_const / (k - 1)
            patch = to_bernstein_standard(p, k)
            deviation = max(
                abs(p.eval(grid_point(alpha, k, patch.simplex)) - coeff)
                for alpha, coeff in zip(enumerate_indices(k, n), patch.coeffs)
            )
            if deviation > bound:
                violations += 1
    assert violations == 0
    elapsed = time.perf_counter() - start
    _report("08 control-net deviation bound, 100 polynomials x 5 degrees", elapsed)


def test_09_edge_split_equals_reconversion():
    start = time.perf_counter()
    rng = random.Random(909)
    for _ in range(200):
        n = rng.randint(1, 3)
        simplex = random_simplex(rng, n)
        p = random_poly(rng, n, rng.randint(1, 4 if n < 3 else 3))
        k = min(p.degree + rng.randint(0, 2), 6)
        patch = to_bernstein(p, k, simplex)
        i = rng.randrange(n)
        j = rng.randint(i + 1, n)
        for child in patch.split_edge(i, j):
            assert child.coeffs == to_bernstein(p, k, child.simplex).coeffs
    elapsed = time.perf_counter() - start
    _report("09 edge split equals reconversion, 200 cases", elapsed)


def test_10_minimization_gap_guarantee():
    start = time.perf_counter()
    corpus = pinned_corpus()
    sample_grid = [F(i, 400) for i in range(401)]
    for case in corpus:
        constants = convergence_constants(rational_patch(case.num, case.den, case.domain))
        for eps in (F(1, 10), F(1, 100), F(1, 1000)):
            rounds = apriori_steps(constants, eps)
            uniform = minimize(case.num, case.den, case.domain, eps,
                               budget=rounds, mode="uniform")
            assert uniform.converged
            assert uniform.gap < eps
            assert uniform.steps <= rounds
            best = minimize(case.num, case.den, case.domain, eps,
                            budget=rounds, mode="best-first")
            assert best.converged
            assert best.gap < eps
            assert best.steps <= uniform.steps
            for result in (uniform, best):
                assert result.lower <= case.fmin <= result.upper
        sampled = min(
            case.num.eval([x]) / case.den.eval([x]) for x in sample_grid
        )
        assert sampled >= case.fmin
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    _report("10 minimization gap guarantee, 20 functions x 3 gaps", elapsed, 300)


def test_11_apriori_bounds_dominate_observed_work():
    start = time.perf_counter()
    corpus = pinned_corpus()
    assert len(corpus) == 20
    violations = 0
    for case in corpus:
        constants = convergence_constants(rational_patch(case.num, case.den, case.domain))
        # optimizer-validated claims for the function and its numerator
        claim = ClaimedMinimum(
            minimize(case.num, case.den, case.domain, F(1, 100)).lower
        )
        num_claim = ClaimedMinimum(
            minimize(case.num, PowerPoly.constant(1, 1), case.domain, F(1, 100)).lower
        )
        assert claim.value <= case.fmin
        assert num_claim.value <= case.num_min

        degree_bound = apriori_degree_omega(constants, claim)
        report = certify_global(case.num, case.den, case.domain, k_max=degree_bound)
        if report.verdict is not Verdict.CERTIFIED or report.degree_used > degree_bound:
            violations += 1

        num_patch = to_bernstein_standard(case.num, case.num.degree)
        pr_bound = apriori_degree_pr(num_patch, num_claim)
        pr_report = certify_global(case.num, case.den, case.domain, k_max=pr_bound)
        if pr_report.verdict is not Verdict.CERTIFIED or pr_report.degree_used > pr_bound:
            violations += 1

        depth_bound = apriori_depth(constants, claim)
        local = certify_local(case.num, case.den, case.domain,
                              n_max=max(depth_bound, 1))
        if local.verdict is not Verdict.CERTIFIED or local.depth_used > max(depth_bound, 0):
            violations += 1
    assert violations == 0
    elapsed = time.perf_counter() - start
    _report("11 a-priori bounds dominate observed work, 20 functions", elapsed)
