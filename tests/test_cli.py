"""End-to-end command-line behavior: output, exit codes, JSON reports."""

import io
import json
import os
import resource
import subprocess
import sys
import weakref
from fractions import Fraction as F
from math import comb
from pathlib import Path

import pytest

import bernbound
from bernbound import (
    AprioriInfo,
    ClaimedMinimum,
    PowerPoly,
    apriori_degree_omega,
    apriori_depth,
    certify_global,
    certify_local,
    certify_negative,
    certify_sharpness,
    convergence_constants,
    rational_patch,
    to_bernstein,
)
from bernbound import certify, cli, polypatch
from bernbound.cli import main, parse_problem
from bernbound.indexing import vertex_positions
from bernbound.ratpatch import apriori_d1, apriori_d2
from bernbound.rationals import float_str, format_rational
from conftest import fn_cert3, fn_dip, rational_instances

DIP_SPEC = {
    "numerator": {"dimension": 1, "terms": [
        {"exponents": [0], "coeff": "1"},
        {"exponents": [1], "coeff": "-5"},
        {"exponents": [2], "coeff": "7"},
    ]},
    "denominator": {"dimension": 1, "terms": [
        {"exponents": [0], "coeff": "7"},
        {"exponents": [1], "coeff": "-2"},
        {"exponents": [2], "coeff": "1"},
    ]},
    "domain": {"interval": ["-1", "1"]},
}

CERT3_SPEC = {
    "numerator": {"dimension": 1, "terms": [
        {"exponents": [0], "coeff": "1"},
        {"exponents": [1], "coeff": "-3"},
        {"exponents": [2], "coeff": "5"},
    ]},
    "denominator": {"dimension": 1, "terms": [
        {"exponents": [0], "coeff": "1"},
        {"exponents": [2], "coeff": "1"},
    ]},
    "domain": {"interval": ["0", "1"]},
}

UNIT = {"interval": ["0", "1"]}
TRIANGLE = {"vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}


def _problem(numerator, denominator, domain):
    """A problem file's object from {exponents: coefficient} maps."""
    n = len(next(iter(numerator)))
    spec = {"numerator": PowerPoly(n, numerator).to_json(), "domain": domain}
    if denominator:
        spec["denominator"] = PowerPoly(n, denominator).to_json()
    return spec


# 1/10 - x/2 + x^2 + y^2: its minimum, 3/80, lies inside the triangle, so
# both strategies split rounds before they bracket it.
SPEC2 = _problem({(0, 0): "1/10", (1, 0): "-1/2", (2, 0): 1, (0, 2): 1}, None, TRIANGLE)
# (6/25 - x + x^2 + y^2) / (1 + x) is refuted at a vertex of a piece below
# the root: the witness's value divides the numerator piece's vertex
# coefficient by the denominator there.
REF3 = _problem({(0, 0): "6/25", (1, 0): -1, (2, 0): 1, (0, 2): 1},
                {(0, 0): 1, (1, 0): 1}, TRIANGLE)
# (x - 1/4) / (2 + x), negative at its root vertex: the local certificate
# values the witness through the denominator's eval, the other modes from
# the root ratio, and every mode prints the same witness.
RAT1 = _problem({(0,): "-1/4", (1,): 1}, {(0,): 2, (1,): 1}, UNIT)
# (x - 1/2)^2 touches zero inside the domain, so no degree certifies it.
TOUCH = _problem({(0,): "1/4", (1,): -1, (2,): 1}, None, UNIT)
# (x + y - 1/3)^2 touches zero on a segment inside the triangle.
TOUCH2 = _problem({(0, 0): "1/9", (1, 0): "-2/3", (0, 1): "-2/3", (2, 0): 1, (1, 1): 2,
                   (0, 2): 1}, None, TRIANGLE)
# A non-constant denominator on a triangle with fractional vertices and no
# edge on an axis: its vertex coefficients check the pullback of a general
# simplex, and its minimum is at a vertex.
TRI_DENOMINATOR = {(0, 0): 2, (1, 0): "1/2", (0, 1): "1/3"}
TRI_DOMAIN = {"vertices": [["1/2", "-1/3"], ["5/2", "1/4"], ["-2/3", "3/2"]]}
TRI = _problem({(0, 0): "1/3", (1, 0): -2, (1, 1): "5/7", (0, 2): 1},
               TRI_DENOMINATOR, TRI_DOMAIN)
# TRI's denominator and triangle with the minimum, 1/10 at (1, 1/2), inside:
# both strategies split it, and their witnesses are points of pieces with
# doubled denominators.
TRI_MIN = _problem({(0, 0): "29/20", (1, 0): "-39/20", (0, 1): "-29/30", (2, 0): 1,
                    (0, 2): 1}, TRI_DENOMINATOR, TRI_DOMAIN)
# (q/2 + |x - a|^2) / q with q = 2 + x/2 + y/3 + z/5 and a = (1/2, 1/2, 1/2),
# the one subdivision in three variables, on a tetrahedron with fractional
# vertices and no edge on an axis; its minimum, 1/2, is at a inside it.
# Depth d means pieces of squared diameter at most 4^-d in the domain's own
# coordinates, and this domain's is about 8, so depth 1 would take four
# rounds, 64^4 pieces.
TET_MIN = _problem(
    {(0, 0, 0): "7/4", (1, 0, 0): "-3/4", (0, 1, 0): "-5/6", (0, 0, 1): "-9/10",
     (2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1},
    {(0, 0, 0): 2, (1, 0, 0): "1/2", (0, 1, 0): "1/3", (0, 0, 1): "1/5"},
    {"vertices": [["1/3", "0", "-1/2"], ["7/4", "1/5", "0"], ["-1/6", "9/4", "1/3"],
                  ["0", "-2/7", "5/3"]]})
# 1/10 + (x - 1/3)^2 + (y - 1/3)^2 is symmetric in x <-> y: the mirror-image
# children of its first round tie on their lower bounds, and best-first
# orders them by their vertices.
SYM = _problem({(0, 0): "29/90", (1, 0): "-2/3", (0, 1): "-2/3", (2, 0): 1, (0, 2): 1},
               None, TRIANGLE)


@pytest.fixture
def dip_spec(tmp_path):
    path = tmp_path / "dip.json"
    path.write_text(json.dumps(DIP_SPEC))
    return str(path)


@pytest.fixture
def cert3_spec(tmp_path):
    path = tmp_path / "cert3.json"
    path.write_text(json.dumps(CERT3_SPEC))
    return str(path)


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data) if isinstance(data, dict) else data)
    return str(path)


# CERT3 with its numerator negated: negative on [0, 1].
NEG_CERT3 = {**CERT3_SPEC, "numerator": PowerPoly.from_json(CERT3_SPEC["numerator"])
             .negate().to_json()}


def _negated_cert3(tmp_path):
    return _write(tmp_path, "negcert.json", NEG_CERT3)


class TestBounds:
    def test_dip_coefficients(self, dip_spec, capsys):
        assert main(["bounds", dip_spec]) == 0
        out = capsys.readouterr().out
        assert "coefficients: 13/10, -1, 1/2" in out
        assert "enclosure: [-1, 13/10]" in out
        assert "zeta: 13/10" in out

    def test_cert3_degree_three(self, cert3_spec, capsys):
        assert main(["bounds", cert3_spec, "--degree", "3"]) == 0
        out = capsys.readouterr().out
        assert "coefficients: 1, 0, 1/2, 3/2" in out

    def test_constant_both_sharp(self, tmp_path, capsys):
        spec = _write(tmp_path, "const.json", {
            "numerator": {"dimension": 1, "terms": [{"exponents": [0], "coeff": "2/3"}]},
            "domain": {"interval": ["0", "1"]},
        })
        assert main(["bounds", spec, "--degree", "1"]) == 0
        out = capsys.readouterr().out
        assert "enclosure: [2/3, 2/3]" in out
        assert out.count("sharp: yes") == 2

    def test_json_report_round_trips(self, dip_spec, capsys):
        assert main(["bounds", dip_spec, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["coefficients"] == ["13/10", "-1", "1/2"]
        assert data["enclosure"] == {"lo": "-1", "hi": "13/10"}
        assert data["sharpness"]["max_sharp"] is True
        assert data["sharpness"]["min_sharp"] is False
        assert F(data["constants"]["omega"]) == F(83, 60)
        # exact strings survive a parse/dump cycle unchanged
        assert json.loads(json.dumps(data)) == data


class TestCertify:
    def test_global_cert3(self, cert3_spec, capsys):
        assert main(["certify", cert3_spec, "--mode", "global", "--kmax", "5"]) == 0
        assert "certified positivity at k=3" in capsys.readouterr().out

    def test_local_dip(self, dip_spec, capsys):
        assert main(["certify", dip_spec, "--mode", "local", "--nmax", "3"]) == 0
        assert "certified positivity at depth 2, 5 leaves" in capsys.readouterr().out

    def test_refuted_constant(self, tmp_path, capsys):
        spec = _write(tmp_path, "neg.json", {
            "numerator": {"dimension": 1, "terms": [{"exponents": [0], "coeff": "-1"}]},
            "domain": {"interval": ["0", "1"]},
        })
        for mode in ("sharpness", "global", "local"):
            assert main(["certify", spec, "--mode", mode]) == 1
        out = capsys.readouterr().out
        assert "refuted: f(0) = -1 <= 0" in out

    def test_inconclusive_exit_code(self, dip_spec, capsys):
        assert main(["certify", dip_spec, "--mode", "global", "--kmax", "10"]) == 2
        assert "inconclusive" in capsys.readouterr().out

    def test_negative_mode(self, tmp_path, capsys):
        spec = _negated_cert3(tmp_path)
        assert main(["certify", spec, "--mode", "negative", "--kmax", "5"]) == 0
        assert "certified negativity at k=3" in capsys.readouterr().out

    @pytest.mark.parametrize("via, code, out", [
        ("local", 0, "certified negativity at depth 1, 2 leaves\n"),
        # Global would certify at k=3; sharpness reads the degree-2
        # coefficients alone, and one of them is positive.
        ("sharpness", 2, "inconclusive at degree 2\n"),
    ])
    def test_negative_mode_via(self, tmp_path, capsys, via, code, out):
        spec = _negated_cert3(tmp_path)
        assert main(["certify", spec, "--mode", "negative", "--via", via]) == code
        assert capsys.readouterr().out == out

    @pytest.mark.parametrize("mode", [[], ["--mode", "global"], ["--mode", "local"],
                                      ["--mode", "sharpness"]],
                             ids=["default", "global", "local", "sharpness"])
    def test_via_needs_negative_mode(self, cert3_spec, capsys, mode):
        # --via picks the mode a negativity certificate runs; with any other
        # mode it would be ignored, so it is refused instead.
        assert main(["certify", cert3_spec, *mode, "--via", "local"]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--via needs --mode negative" in captured.err

    def test_json_report(self, cert3_spec, capsys):
        assert main(["certify", cert3_spec, "--json", "--kmax", "5"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "certified"
        assert data["degree_used"] == 3
        assert data["wall_clock"] >= 0

    def test_apriori_attached_when_claimed(self, tmp_path, capsys):
        spec_data = dict(CERT3_SPEC)
        spec_data["claimed_min"] = "1/2"
        spec = _write(tmp_path, "claimed.json", spec_data)
        assert main(["certify", spec, "--json", "--kmax", "10"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["apriori"] is not None
        assert "degree_bound" in data["apriori"]

    def test_apriori_reports_raw_d2(self, tmp_path, capsys):
        # numerator coefficients over [-1, 1] are (13, -6, 3):
        # D2 = 2*1/2 * 13 / (1/100) = 1300
        spec = _write(tmp_path, "claimed.json", {
            **DIP_SPEC, "claimed_min": "1/100", "claimed_numerator_min": "1/100"})
        assert main(["certify", spec, "--json"]) == 2
        apriori = json.loads(capsys.readouterr().out)["apriori"]
        assert apriori["D2"] == "1300"
        assert apriori["D1"] == "418/3"

    def test_apriori_d2_at_the_numerator_degree(self, tmp_path, capsys):
        # The root has the denominator's degree 2; D2 reads the numerator's
        # own degree-1 patch, where l(l-1)/2 = 0.
        spec = _write(tmp_path, "linear.json", {
            **DIP_SPEC, "numerator": {"dimension": 1, "terms": [
                {"exponents": [0], "coeff": "2"}, {"exponents": [1], "coeff": "1"}]},
            "claimed_min": "1/100", "claimed_numerator_min": "1/100"})
        assert main(["certify", spec, "--mode", "global", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["apriori"]["D2"] == "0"

    def test_apriori_numerator_claim_alone(self, tmp_path, capsys):
        # 2 - 3x + 2x^2 on [0, 1] has coefficients (2, 1/2, 1):
        # D2 = 2*1/2 * 2 / (7/8) = 16/7, with no claim on f to give D1.
        spec = _write(tmp_path, "numerator.json", {
            "numerator": {"dimension": 1, "terms": [
                {"exponents": [0], "coeff": "2"}, {"exponents": [1], "coeff": "-3"},
                {"exponents": [2], "coeff": "2"}]},
            "domain": {"interval": ["0", "1"]}, "claimed_numerator_min": "7/8"})
        assert main(["certify", spec, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["apriori"] == {"D2": "16/7"}

    @pytest.mark.parametrize("mode", ["sharpness", "global", "local", "negative"])
    def test_sharpness_apriori_reuses_root_patch(self, mode, tmp_path, capsys,
                                                 monkeypatch):
        # Every conversion of num or den pulls back once, through the
        # conversion kernel's integer pullback.  The root converts num and
        # den; the a-priori bounds read it, and D2 reads its numerator (both
        # have degree 2).  Negative mode certifies on the root with its
        # numerator negated.
        calls = []
        original = polypatch._pullback

        def counting(poly, *rows):
            calls.append(poly)
            return original(poly, *rows)

        monkeypatch.setattr(polypatch, "_pullback", counting)
        spec = _write(tmp_path, "claimed.json", {
            **DIP_SPEC, "claimed_min": "1/100", "claimed_numerator_min": "1/100"})
        expected = {"sharpness": 2, "global": 2, "local": 0, "negative": 1}[mode]
        assert main(["certify", spec, "--mode", mode, "--json"]) == expected
        apriori = json.loads(capsys.readouterr().out)["apriori"]
        assert (apriori["D1"], apriori["D2"]) == ("418/3", "1300")
        assert len(calls) == 2

    # 1 - x/2 on [0, 1]: its smallest coefficient, 1/2, sits at a vertex.
    @pytest.mark.parametrize("mode, claims, out", [
        ("sharpness", {}, "certified positivity by sharpness at degree 1\n"),
        ("global", {"claimed_min": "1/4"}, "certified positivity at k=1\n"
         "a-priori: {'D1': '1', 'degree_bound': 2, 'depth_bound': 0}\n"),
    ], ids=["sharpness", "apriori"])
    def test_certified_text(self, tmp_path, capsys, mode, claims, out):
        spec = _write(tmp_path, "half.json", {
            "numerator": {"dimension": 1, "terms": [
                {"exponents": [0], "coeff": "1"}, {"exponents": [1], "coeff": "-1/2"}]},
            "domain": {"interval": ["0", "1"]}, **claims})
        assert main(["certify", spec, "--mode", mode]) == 0
        assert capsys.readouterr().out == out

    def test_spec_n_max_zero_is_kept(self, tmp_path, capsys):
        spec = _write(tmp_path, "n0.json", {**DIP_SPEC, "n_max": 0})
        assert main(["certify", spec, "--mode", "local"]) == 2
        assert "inconclusive at depth 0" in capsys.readouterr().out

    def test_spec_k_max_zero_is_kept(self, tmp_path, capsys):
        spec = _write(tmp_path, "k0.json", {**DIP_SPEC, "k_max": 0})
        assert main(["certify", spec, "--mode", "global"]) == 64
        assert "k_max 0 below the function degree 2" in capsys.readouterr().err


class TestMinimize:
    def test_dip_gap(self, dip_spec, capsys):
        assert main(["minimize", dip_spec, "--eps", "1/1000", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["converged"] is True
        assert F(data["gap"]) < F(1, 1000)
        assert F(data["lower"]) <= F(data["upper"])

    def test_constant_zero_rounds(self, tmp_path, capsys):
        spec = _write(tmp_path, "const.json", {
            "numerator": {"dimension": 1, "terms": [{"exponents": [0], "coeff": "4"}]},
            "domain": {"interval": ["0", "1"]},
        })
        assert main(["minimize", spec, "--eps", "1/10", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["rounds"] == 0
        assert data["lower"] == data["upper"] == "4"

    def test_zero_epsilon_is_usage_error(self, dip_spec, capsys):
        assert main(["minimize", dip_spec, "--eps", "0"]) == 64

    def test_missing_epsilon_is_usage_error(self, dip_spec):
        assert main(["minimize", dip_spec]) == 64

    def test_spec_epsilon_field(self, tmp_path, capsys):
        data = dict(DIP_SPEC)
        data["eps"] = "1/100"
        spec = _write(tmp_path, "witheps.json", data)
        assert main(["minimize", spec]) == 0
        assert "rounds used" in capsys.readouterr().out

    def test_budget_exhaustion_exit_code(self, dip_spec, capsys):
        code = main(["minimize", dip_spec, "--eps", "1/100000000", "--budget", "1"])
        assert code == 2
        assert "budget exhausted" in capsys.readouterr().out

    def test_uniform_strategy(self, dip_spec, capsys):
        assert main(["minimize", dip_spec, "--eps", "1/100",
                     "--strategy", "uniform", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["converged"] is True

    def test_empty_epsilon_flag_is_not_the_spec_value(self, tmp_path, capsys):
        spec = _write(tmp_path, "witheps.json", {**DIP_SPEC, "eps": "1/10"})
        assert main(["minimize", spec, "--eps="]) == 64
        assert "--eps: not a rational number: ''" in capsys.readouterr().err


class TestUsageAndErrors:
    def test_bad_json_reports_location(self, tmp_path, capsys):
        spec = _write(tmp_path, "broken.json", "{\n  \"numerator\": [,]\n}")
        assert main(["bounds", spec]) == 64
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_missing_numerator(self, tmp_path, capsys):
        spec = _write(tmp_path, "empty.json", {"domain": {"interval": ["0", "1"]}})
        assert main(["bounds", spec]) == 64
        assert "numerator" in capsys.readouterr().err

    @pytest.mark.parametrize("data, message", [
        ("[1]", "problem spec must be a JSON object"),
        ({"numerator": DIP_SPEC["numerator"]}, "spec field 'domain' is required"),
        ({**DIP_SPEC, "numerator": []}, "spec field 'numerator': not a JSON object: []"),
        ({**DIP_SPEC, "numerator": {"dimension": 1, "terms": {"a": 1}}},
         "spec field 'numerator': 'terms' is not a JSON array: {'a': 1}"),
        ({**DIP_SPEC, "numerator": {"dimension": 1, "terms": [[0]]}},
         "spec field 'numerator': term 0 is not a JSON object: [0]"),
        ({**DIP_SPEC, "numerator": {"dimension": 1, "terms": [
            {"exponents": [0], "coeff": "1"}, {"exponents": 0, "coeff": "1"}]}},
         "spec field 'numerator': term 1: 'exponents' is not a JSON array: 0"),
        ({**DIP_SPEC, "denominator": {"dimension": 1, "terms": [{"exponents": [0]}]}},
         "spec field 'denominator': term 0: 'coeff' is required"),
        ({**DIP_SPEC, "numerator": {"terms": DIP_SPEC["numerator"]["terms"]}},
         "spec field 'numerator': 'dimension' is required"),
        ({**DIP_SPEC, "domain": {"vertices": []}}, "spec field 'domain': empty vertex list"),
        ({**DIP_SPEC, "domain": {"vertices": [["0"]]}},
         "spec field 'domain': a simplex needs at least two vertices"),
        ({**DIP_SPEC, "domain": {}}, "spec field 'domain': need 'interval' or 'vertices'"),
        ({**DIP_SPEC, "domain": {"interval": ["0", "1"], "vertices": [["5"], ["6"]]}},
         "spec field 'domain': need 'interval' or 'vertices', not both"),
    ], ids=["not-an-object", "no-domain", "numerator-array", "terms-object", "term-array",
            "exponents-integer", "no-coeff", "no-dimension", "no-vertices", "one-vertex",
            "domain-empty", "domain-both"])
    def test_spec_shape(self, tmp_path, capsys, data, message):
        spec = _write(tmp_path, "shape.json", data)
        assert main(["bounds", spec]) == 64
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_dimension_disagreement(self, tmp_path, capsys):
        spec = _write(tmp_path, "dims.json", {
            "numerator": {"dimension": 2, "terms": [{"exponents": [1, 0], "coeff": "1"}]},
            "domain": {"interval": ["0", "1"]},
        })
        assert main(["bounds", spec]) == 64
        assert "variables" in capsys.readouterr().err

    def test_collinear_vertices_are_printed_as_rationals(self, tmp_path, capsys):
        spec = _write(tmp_path, "flat.json", {
            "numerator": {"dimension": 2, "terms": [{"exponents": [0, 0], "coeff": "1"}]},
            "domain": {"vertices": [["0", "0"], ["1/2", "1"], ["1", "2"]]},
        })
        assert main(["bounds", spec]) == 64
        err = capsys.readouterr().err
        assert "vertices are affinely dependent: ((0, 0), (1/2, 1), (1, 2))" in err
        assert "Fraction" not in err

    def test_reversed_interval(self, tmp_path, capsys):
        spec = _write(tmp_path, "rev.json", {
            "numerator": {"dimension": 1, "terms": [{"exponents": [0], "coeff": "1"}]},
            "domain": {"interval": ["1", "0"]},
        })
        assert main(["bounds", spec]) == 64

    @pytest.mark.parametrize("domain, message", [
        ({"interval": "01"}, "'domain.interval': need a JSON array [a, b], got '01'"),
        ({"interval": {"0": 1, "1": 2}},
         "'domain.interval': need a JSON array [a, b], got {'0': 1, '1': 2}"),
        ({"vertices": "01"},
         "'domain.vertices': need a JSON array of coordinate arrays, got '01'"),
        ({"vertices": ["0", "1"]},
         "'domain.vertices': need a JSON array of coordinate arrays, got ['0', '1']"),
        ({"vertices": [{"0": "7"}, {"1": "9"}]},
         "'domain.vertices': need a JSON array of coordinate arrays,"
         " got [{'0': '7'}, {'1': '9'}]"),
        ({"vertices": 5}, "'domain.vertices': need a JSON array of coordinate arrays, got 5"),
        ({"vertices": None},
         "'domain.vertices': need a JSON array of coordinate arrays, got None"),
        ({"vertices": [5, 6]},
         "'domain.vertices': need a JSON array of coordinate arrays, got [5, 6]"),
        ({"vertices": "ab"},
         "'domain.vertices': need a JSON array of coordinate arrays, got 'ab'"),
        ({"vertices": {"0": 1}},
         "'domain.vertices': need a JSON array of coordinate arrays, got {'0': 1}"),
    ], ids=["interval-string", "interval-object", "vertices-string", "vertex-strings",
            "vertex-objects", "vertices-number", "vertices-null", "vertex-numbers",
            "vertices-text", "vertices-object"])
    def test_malformed_domain(self, tmp_path, capsys, domain, message):
        # Neither a string nor an object is read one item at a time as
        # coordinates, and the message names the field, not Python's view
        # of the value.
        spec = _write(tmp_path, "domain.json", {
            "numerator": {"dimension": 1, "terms": [{"exponents": [1], "coeff": "1"}]},
            "domain": domain,
        })
        assert main(["bounds", spec]) == 64
        assert capsys.readouterr().err == f"error: spec field {message}\n"

    def test_missing_file(self, capsys):
        assert main(["bounds", "/nonexistent/path.json"]) == 64

    def test_unknown_command(self, capsys):
        assert main(["frobnicate", "spec.json"]) == 64

    @pytest.mark.parametrize("flag, text", [
        ("--version", f"bernbound {bernbound.__version__}\n"),
        ("--help", "usage: bernbound "),
    ])
    def test_version_and_help_exit_zero(self, capsys, flag, text):
        with pytest.raises(SystemExit) as exit_info:
            main([flag])
        assert exit_info.value.code == 0
        assert text in capsys.readouterr().out

    def test_bad_threads(self, dip_spec, capsys):
        assert main(["bounds", dip_spec, "--threads", "1"]) == 64
        assert "unrecognized arguments: --threads" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["certify", "SPEC", "--mode", "local", "--nmax", "-1"],
         "n_max must be nonnegative, got -1"),
        (["minimize", "SPEC", "--eps", "1/100", "--budget", "-1"],
         "budget must be nonnegative, got -1"),
    ])
    def test_negative_budget_flags(self, dip_spec, capsys, argv, message):
        argv = [dip_spec if a == "SPEC" else a for a in argv]
        assert main(argv) == 64
        assert message in capsys.readouterr().err

    def test_negative_spec_n_max(self, tmp_path, capsys):
        spec = _write(tmp_path, "neg.json", {**DIP_SPEC, "n_max": -1})
        assert main(["certify", spec, "--mode", "local"]) == 64
        assert "n_max must be nonnegative, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, message", [
        ("degree", "two", "not an integer: 'two'"),
        ("degree", 2.5, "not an integer"),
        ("k_max", "3/2", "not an integer: '3/2'"),
        ("n_max", "ten", "not an integer: 'ten'"),
        ("degree", True, "not an integer: True"),
        ("n_max", True, "not an integer: True"),
        # Integer-valued strings and floats are rejected too, as they are
        # for exponents and the dimension.
        ("degree", "3", "not an integer: '3'"),
        ("k_max", 3.0, "not an integer: 3.0"),
        ("n_max", "2", "not an integer: '2'"),
    ])
    def test_non_integer_spec_field(self, tmp_path, capsys, field, value, message):
        spec = _write(tmp_path, "field.json", {**DIP_SPEC, field: value})
        assert main(["bounds", spec]) == 64
        err = capsys.readouterr().err
        assert f"spec field '{field}'" in err
        assert message in err

    @pytest.mark.parametrize("field, value", [
        ("claimed_min", "0"),
        ("claimed_min", "-1/2"),
        ("claimed_numerator_min", "0"),
        ("claimed_numerator_min", "-3"),
    ])
    def test_non_positive_claim(self, tmp_path, capsys, monkeypatch, field, value):
        # Rejected while the spec is read, before any certificate runs.
        def unreachable(*args, **kwargs):
            raise AssertionError("the certificate ran")

        monkeypatch.setattr(certify, "_certify", unreachable)
        spec = _write(tmp_path, "claim.json", {
            **DIP_SPEC, "claimed_min": "1/100", "claimed_numerator_min": "1/100",
            field: value})
        for argv in (["certify", spec, "--mode", "global"], ["bounds", spec]):
            assert main(argv) == 64
            err = capsys.readouterr().err
            assert f"spec field '{field}': must be positive, got {value}" in err

    @pytest.mark.parametrize("field, change, value", [
        ("numerator", {"numerator": {"dimension": 1, "terms": [
            {"exponents": [0], "coeff": True}]}}, True),
        ("domain", {"domain": {"vertices": [[True], ["2"]]}}, True),
        ("domain", {"domain": {"interval": [False, True]}}, False),
        ("claimed_min", {"claimed_min": True}, True),
        ("claimed_numerator_min", {"claimed_numerator_min": True}, True),
        ("eps", {"eps": True}, True),
    ])
    def test_boolean_rational_field(self, tmp_path, capsys, field, change, value):
        # JSON true/false are not the numbers 1 and 0.
        spec = _write(tmp_path, "bool.json", {**DIP_SPEC, **change})
        assert main(["bounds", spec]) == 64
        err = capsys.readouterr().err
        assert f"spec field '{field}'" in err
        assert f"not a rational number: {value!r}" in err

    @pytest.mark.parametrize("argv", [
        ["bounds"], ["certify", "--mode", "local"], ["minimize", "--eps", "1/100"]],
        ids=["bounds", "certify", "minimize"])
    def test_no_shrink_flag(self, dip_spec, capsys, argv):
        # Local depth d means pieces of diameter <= 2^-d; no flag changes it.
        assert main([argv[0], dip_spec, *argv[1:], "--shrink", "1/4"]) == 64
        assert "unrecognized arguments: --shrink 1/4" in capsys.readouterr().err

    def test_spec_shrink_key_is_ignored(self, tmp_path, capsys):
        spec = _write(tmp_path, "withshrink.json", {**DIP_SPEC, "shrink": False})
        assert main(["certify", spec, "--mode", "local", "--nmax", "5"]) == 0
        assert capsys.readouterr().out == "certified positivity at depth 2, 5 leaves\n"

    @pytest.mark.parametrize("coeff", ["1e5000", "1e-5000"])
    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_exponent_past_the_digit_limit(self, tmp_path, capsys, coeff, json_flag):
        # Refused while the spec is read: nothing is computed or printed.
        spec = _write(tmp_path, "big.json", {
            "numerator": {"dimension": 1, "terms": [
                {"exponents": [1], "coeff": coeff}]},
            "domain": {"interval": ["0", "1"]},
        })
        assert main(["bounds", spec, *json_flag]) == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert "spec field 'numerator'" in err
        assert f"not a rational number: {coeff!r}" in err

    @pytest.mark.parametrize("coeff", [
        '"12e4299"',  # the exponent passes, the value has 4,301 digits
        '"1' + "0" * 3000 + "." + "0" * 3000 + '1"',  # each digit run passes
        "1" + "0" * 5000,  # a bare JSON integer: json.loads refuses it
    ], ids=["exponent", "digit-runs", "json-integer"])
    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_value_past_the_digit_limit(self, tmp_path, capsys, coeff, json_flag):
        spec = _write(tmp_path, "big.json", '{"numerator": {"dimension": 1, '
                      '"terms": [{"exponents": [1], "coeff": %s}]}, '
                      '"domain": {"interval": ["0", "1"]}}' % coeff)
        assert main(["bounds", spec, *json_flag]) == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")
        if coeff.startswith('"'):
            assert "spec field 'numerator': not a rational number" in err
        else:
            assert f"error: {spec}: " in err

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_nesting_past_the_recursion_limit(self, tmp_path, capsys, json_flag):
        # json.loads raises RecursionError, not a ValueError, here.
        spec = _write(tmp_path, "deep.json", "[" * 100000 + "]" * 100000)
        assert main(["bounds", spec, *json_flag]) == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {spec}: maximum recursion depth exceeded")

    @pytest.mark.parametrize("argv, coeff, shown", [
        (["bounds"], "1e309", "1e+309"),
        (["bounds", "--json"], "1e309", "1e+309"),
        (["minimize", "--eps", "1"], "1e309", "1e+309"),
        (["minimize", "--eps", "1", "--json"], "1e309", "1e+309"),
        (["bounds"], "1e-400", "1e-400"),
    ], ids=["argv0", "argv1", "argv2", "argv3", "underflow"])
    def test_value_beyond_float_range(self, tmp_path, capsys, argv, coeff, shown):
        # The exact value is rendered in the float style it overflows or
        # underflows.
        spec = _write(tmp_path, "huge.json", {
            "numerator": {"dimension": 1, "terms": [
                {"exponents": [0], "coeff": coeff}]},
            "domain": {"interval": ["0", "1"]},
        })
        assert main([argv[0], spec, *argv[1:]]) == 0
        out = capsys.readouterr().out
        assert shown in out

    @pytest.mark.parametrize("exponent", [1.5, 1.0, True, "2"])
    def test_non_integer_exponent(self, tmp_path, capsys, exponent):
        spec = _write(tmp_path, "exp.json", {
            "numerator": {"dimension": 1, "terms": [
                {"exponents": [0], "coeff": "1"},
                {"exponents": [exponent], "coeff": "1"}]},
            "domain": {"interval": ["0", "1"]},
        })
        assert main(["bounds", spec]) == 64
        err = capsys.readouterr().err
        assert "spec field 'numerator'" in err
        assert f"exponent {exponent!r} is not an integer" in err

    @pytest.mark.parametrize("dimension", [1.5, "1", True])
    def test_non_integer_dimension(self, tmp_path, capsys, dimension):
        spec = _write(tmp_path, "dim.json", {
            "numerator": {"dimension": dimension, "terms": [
                {"exponents": [1], "coeff": "1"}]},
            "domain": {"interval": ["0", "1"]},
        })
        assert main(["bounds", spec]) == 64
        err = capsys.readouterr().err
        assert "spec field 'numerator'" in err
        assert f"dimension {dimension!r} is not an integer" in err

    @pytest.mark.parametrize("field", ["numerator", "denominator"])
    def test_exponent_length_disagrees_with_dimension(self, tmp_path, capsys, field):
        spec = _write(tmp_path, "explen.json", {
            **CERT3_SPEC,
            field: {"dimension": 1, "terms": [{"exponents": [1, 0], "coeff": "1"}]},
        })
        assert main(["bounds", spec]) == 64
        err = capsys.readouterr().err
        assert f"spec field '{field}'" in err
        assert "does not have 1 entries" in err

    def test_degree_below_polynomial_degree(self, dip_spec, capsys):
        assert main(["bounds", dip_spec, "--degree", "1"]) == 64
        assert "Bernstein degree 1 below polynomial degree 2" in capsys.readouterr().err

    def test_degree_below_names_the_function_degree(self, tmp_path, capsys):
        # (x^2 + 1) / (x^3 + 1) has degree 3, the denominator's, though the
        # numerator is the first polynomial converted.
        spec = _write(tmp_path, "cubic.json", {
            "numerator": {"dimension": 1, "terms": [
                {"exponents": [0], "coeff": "1"}, {"exponents": [2], "coeff": "1"}]},
            "denominator": {"dimension": 1, "terms": [
                {"exponents": [0], "coeff": "1"}, {"exponents": [3], "coeff": "1"}]},
            "domain": {"interval": ["0", "1"]},
        })
        assert main(["bounds", spec, "--degree", "1"]) == 64
        assert capsys.readouterr().err == (
            "error: Bernstein degree 1 below polynomial degree 3\n")

    @pytest.mark.parametrize("argv, exponent, degree", [
        (["bounds", "--degree", "100000000"], 2, 100000000),
        (["certify", "--mode", "sharpness"], 100000000, 100000000),
        (["bounds", "--degree", "1000000"], 2, 1000000),
    ], ids=["degree-flag", "spec-exponent", "degree-million"])
    def test_conversion_size_cap(self, tmp_path, capsys, argv, exponent, degree):
        # Each asks for a de Casteljau triangle of C(degree + 2, 2) entries
        # on an interval; the conversion refuses before it allocates any, as
        # a usage error.  The cap admits n = 5 at degree 33.
        spec = _write(tmp_path, "huge.json", {
            "numerator": {"dimension": 1, "terms": [{"exponents": [exponent], "coeff": "1"}]},
            "domain": {"interval": ["0", "1"]},
        })
        assert main([argv[0], spec, *argv[1:]]) == 64
        assert capsys.readouterr().err == (
            f"error: Bernstein degree {degree} over a 1-simplex needs a conversion triangle"
            f" of {comb(degree + 2, 2)} entries, more than {polypatch.MAX_TRIANGLE}\n")
        assert comb(33 + 6, 6) <= polypatch.MAX_TRIANGLE

    @pytest.mark.parametrize("mode", ["global", "negative"])
    def test_kmax_below_function_degree(self, dip_spec, capsys, mode):
        assert main(["certify", dip_spec, "--mode", mode, "--kmax", "1"]) == 64
        assert "k_max 1 below the function degree 2" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["global", "negative"])
    def test_kmax_checked_before_the_denominator(self, tmp_path, capsys, mode):
        # 1/(3x^2 - 3x + 1) is positive on [0, 1], but its middle Bernstein
        # coefficient is -1/2: the k_max usage error is reported first.
        spec = _write(tmp_path, "notbp.json", {
            "numerator": {"dimension": 1, "terms": [{"exponents": [0], "coeff": "1"}]},
            "denominator": {"dimension": 1, "terms": [
                {"exponents": [0], "coeff": "1"}, {"exponents": [1], "coeff": "-3"},
                {"exponents": [2], "coeff": "3"}]},
            "domain": {"interval": ["0", "1"]},
        })
        assert main(["certify", spec, "--mode", mode, "--kmax", "1"]) == 64
        assert "k_max 1 below the function degree 2" in capsys.readouterr().err
        assert main(["certify", spec, "--mode", mode, "--kmax", "2"]) == 70
        assert "non-positive" in capsys.readouterr().err

    def test_denominator_not_positive_is_internal(self, tmp_path, capsys):
        spec = _write(tmp_path, "badden.json", {
            "numerator": {"dimension": 1, "terms": [{"exponents": [0], "coeff": "1"}]},
            "denominator": {"dimension": 1, "terms": [{"exponents": [1], "coeff": "1"}]},
            "domain": {"interval": ["0", "1"]},
        })
        assert main(["bounds", spec]) == 70
        assert "non-positive" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["bounds"], ["certify"],
                                      ["minimize", "--eps", "1/10"]])
    def test_zero_denominator(self, tmp_path, capsys, argv):
        spec = _write(tmp_path, "zeroden.json", {
            **CERT3_SPEC, "denominator": {"dimension": 1, "terms": []}})
        assert main([argv[0], spec, *argv[1:]]) == 64
        assert "spec field 'denominator': the zero polynomial" in capsys.readouterr().err

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(DIP_SPEC)))
        assert main(["bounds", "-"]) == 0
        assert "13/10" in capsys.readouterr().out

    def test_non_utf8_file(self, tmp_path, capsys):
        spec = tmp_path / "bin.json"
        spec.write_bytes(b"\xff\xfe\x00garbage")
        assert main(["bounds", str(spec)]) == 64
        assert f"{spec}: not UTF-8 text" in capsys.readouterr().err

    def test_non_utf8_stdin(self, capsys, monkeypatch):
        import io

        stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe\x00garbage"), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        assert main(["bounds", "-"]) == 64
        assert "<stdin>: not UTF-8 text" in capsys.readouterr().err

    def test_negative_denominator_is_negated(self, tmp_path, capsys):
        # x / -1: every denominator coefficient is negative, so the patch is
        # built as (-x) / 1.
        spec = _write(tmp_path, "negden.json", {
            "numerator": {"dimension": 1, "terms": [{"exponents": [1], "coeff": "1"}]},
            "denominator": {"dimension": 1, "terms": [{"exponents": [0], "coeff": "-1"}]},
            "domain": {"interval": ["0", "1"]},
        })
        assert main(["bounds", spec]) == 0
        assert "coefficients: 0, -1" in capsys.readouterr().out
        assert main(["minimize", spec, "--eps", "1/10", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert (data["lower"], data["upper"]) == ("-1", "-1")

    # One case per argument rule the library owns: each exits 64 with
    # exactly the library's message.
    @pytest.mark.parametrize("change, argv, message", [
        ({"denominator": {"dimension": 2, "terms": [
            {"exponents": [0, 0], "coeff": "1"}]}}, ["bounds"],
         "numerator has 1 variables, denominator 2"),
        ({"numerator": {"dimension": 2, "terms": [
            {"exponents": [1, 0], "coeff": "1"}]}, "denominator": None}, ["bounds"],
         "polynomial has 2 variables, simplex has 1"),
        ({}, ["bounds", "--degree", "1"], "Bernstein degree 1 below polynomial degree 2"),
        ({}, ["certify", "--mode", "global", "--nmax", "-1"],
         "n_max must be nonnegative, got -1"),
        ({}, ["certify", "--mode", "negative", "--kmax", "1"],
         "k_max 1 below the function degree 2"),
        ({}, ["minimize", "--eps", "0"], "epsilon must be positive, got 0"),
        ({}, ["minimize", "--eps", "1/100", "--budget", "-1"],
         "budget must be nonnegative, got -1"),
    ], ids=["dimensions", "domain", "degree", "n_max", "k_max", "eps",
            "budget"])
    def test_library_argument_rules(self, tmp_path, capsys, change, argv, message):
        spec = _write(tmp_path, "rule.json", {**DIP_SPEC, **change})
        assert main([argv[0], spec, *argv[1:]]) == 64
        assert capsys.readouterr().err == f"error: {message}\n"
        assert issubclass(bernbound.InvalidArgument, ValueError)
        assert issubclass(bernbound.InvalidArgument, bernbound.BernboundError)


def test_successive_calls_match_fresh_processes(dip_spec, cert3_spec, capsys):
    """One process reuses one parser across calls; every call exits and
    prints exactly as it does in a process of its own.  Each call leaves out
    an option the call before it set, so a value kept by the parser shows."""
    calls = [
        ["bounds", dip_spec, "--degree", "4", "--json"],
        ["bounds", dip_spec],
        ["certify", cert3_spec, "--mode", "local", "--nmax", "3"],
        ["certify", cert3_spec],
        ["certify", cert3_spec, "--mode", "bogus"],
        ["minimize", dip_spec, "--eps", "1/100", "--strategy", "uniform"],
        ["minimize", dip_spec, "--eps", "1/10"],
        ["bounds", cert3_spec, "--json"],
    ]
    src = str(Path(bernbound.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = "import sys; from bernbound.cli import main; sys.exit(main(sys.argv[1:]))"
    codes = []
    for argv in calls:
        code = main(argv)
        out, err = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-c", run, *argv], env=env,
                               capture_output=True, text=True, timeout=120)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.append(code)
    assert codes == [0, 0, 0, 0, 64, 0, 0, 0]


# Command lines for the dispatch: each command with valid arguments, a bad
# flag or value, a missing spec, help after a command, and the lines only
# the full parser reads.
DISPATCH = [
    ["bounds", "p.json"],
    ["bounds", "-", "--json", "--degree", "3"],
    ["bounds", "p.json", "--deg", "3"],
    ["certify", "p.json", "--mode", "local", "--nmax", "2", "--json"],
    ["certify", "-", "--mode", "negative", "--via", "local", "--kmax", "5"],
    ["minimize", "p.json", "--eps", "1/10", "--budget", "3", "--strategy", "uniform"],
    ["bounds", "p.json", "--threads", "1"],
    ["bounds", "p.json", "--degree", "three"],
    ["certify", "p.json", "--mode", "bogus"],
    ["certify", "p.json", "--kmax", "1.5"],
    ["minimize", "p.json", "--strategy", "depth"],
    ["minimize", "p.json", "--budget"],
    ["bounds"],
    ["certify", "--mode", "global"],
    ["minimize", "--eps", "1/10"],
    ["bounds", "-h"],
    ["certify", "p.json", "--help"],
    ["minimize", "-h"],
    ["--version"],
    [],
    ["-h"],
    ["nosuch", "p.json"],
    ["--json", "bounds", "p.json"],
    ["bounds", "p.json", "--version"],
    ["bounds", "--version"],
]


def _parse_outcome(parse, argv, capsys):
    """What parsing ``argv`` gives: a namespace, a usage error's text or an
    exit code, with everything printed."""
    try:
        outcome = ("namespace", vars(parse(argv)))
    except cli.UsageError as exc:
        outcome = ("usage", str(exc))
    except SystemExit as exc:
        outcome = ("exit", exc.code)
    return outcome, capsys.readouterr()


@pytest.mark.parametrize("from_sys_argv", [False, True], ids=["argv", "sys.argv"])
@pytest.mark.parametrize("argv", DISPATCH, ids=[" ".join(a) or "empty" for a in DISPATCH])
def test_dispatch_matches_the_full_parser(capsys, monkeypatch, argv, from_sys_argv):
    """``main`` hands a known command's arguments to that command's parser
    alone; its namespace, usage error or help output is what the full
    parser gives for the same line, read from ``sys.argv`` when ``argv``
    is None."""
    parser = cli._build_parser()[0]
    if from_sys_argv:
        monkeypatch.setattr(sys, "argv", ["bernbound", *argv])
    line = None if from_sys_argv else list(argv)
    assert (_parse_outcome(cli._parse_args, line, capsys)
            == _parse_outcome(parser.parse_args, line, capsys))


def test_a_command_line_is_parsed_once(dip_spec, monkeypatch):
    # The full parser would hand the arguments to the command's parser; the
    # dispatch goes there directly.
    def fail(*args, **kwargs):
        raise AssertionError("the full parser ran")

    monkeypatch.setattr(cli._build_parser()[0], "parse_known_args", fail)
    assert vars(cli._parse_args(["bounds", dip_spec])) == {
        "spec": dip_spec, "json": False, "degree": None, "command": "bounds"}


def test_main_reads_sys_argv(dip_spec, capsys, monkeypatch):
    argv = ["bounds", dip_spec, "--json"]
    assert main(argv) == 0
    expected = capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["bernbound", *argv])
    assert main() == 0
    assert capsys.readouterr() == expected


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_141(unbuffered):
    """A reader that closes standard output before any is written, as
    ``| head -c 0`` does, ends the run with 128 + SIGPIPE and a silent
    stderr, whether the write fails in a ``print`` (unbuffered) or in the
    final flush."""
    src = str(Path(bernbound.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    spec = {"numerator": {"dimension": 1, "terms": [
        {"exponents": [0], "coeff": "1"}, {"exponents": [1], "coeff": "-1/2"}]},
        "domain": {"interval": ["0", "1"]}}
    with subprocess.Popen(
            [sys.executable, "-m", "bernbound.cli", "bounds", "-", "--degree", "8",
             "--json"], env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE) as proc:
        proc.stdout.close()
        _, err = proc.communicate(json.dumps(spec).encode(), timeout=120)
    assert (proc.returncode, err) == (141, b"")


@pytest.mark.parametrize("argv", [["bounds"], ["certify"], ["certify", "--mode", "local"],
                                  ["minimize", "--eps", "1/10"]],
                         ids=["bounds", "certify", "local", "minimize"])
def test_huge_dimension_is_a_usage_error(argv):
    """A numerator of 10^10 variables over an interval exits 64 with the
    conversion's message under 256 MiB of address space: no tuple is sized
    by its dimension before the domain's dimension is compared with it."""
    src = str(Path(bernbound.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    spec = {"numerator": {"dimension": 10**10, "terms": []},
            "domain": {"interval": ["0", "1"]}}
    limit = 256 << 20
    proc = subprocess.run(
        [sys.executable, "-m", "bernbound.cli", argv[0], "-", *argv[1:]], env=env,
        input=json.dumps(spec), capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        64, "", "error: polynomial has 10000000000 variables, simplex has 1\n")


@pytest.mark.parametrize("error, cause", [(MemoryError(), "MemoryError"),
                                          (RuntimeError("boom"), "boom")],
                         ids=["empty-text", "with-text"])
def test_internal_error_names_its_cause(dip_spec, capsys, monkeypatch, error, cause):
    """The last-resort handler prints the exception's text, or its type
    where the text is empty, as ``str(MemoryError())`` is."""
    def fail(spec, args):
        raise error

    monkeypatch.setattr(cli, "cmd_bounds", fail)
    assert main(["bounds", dip_spec]) == 70
    assert capsys.readouterr().err == f"internal error: {cause}\n"


def test_out_of_memory_is_reported_once_the_run_is_freed(dip_spec, monkeypatch):
    """A command that runs out of memory exits 70, never 1 (refuted): its
    report is printed only once the traceback, and the pieces its frames
    hold, are gone.  The command keeps a weakly referenced local, and a
    standard error that runs out of memory too while that local lives
    stands for a report that could not be printed beside the run."""
    class Pieces:
        pass

    held = []

    def command(spec, args):
        pieces = Pieces()
        held.append(weakref.ref(pieces))
        raise MemoryError

    class Stderr(io.StringIO):
        def write(self, text):
            if held[0]() is not None:
                raise MemoryError
            return super().write(text)

    err = Stderr()
    monkeypatch.setattr(cli, "cmd_bounds", command)
    monkeypatch.setattr(sys, "stderr", err)
    assert main(["bounds", dip_spec]) == 70
    assert err.getvalue() == "internal error: MemoryError\n"


@pytest.mark.parametrize("claims", [{}, {"claimed_min": "1/100"},
                                    {"claimed_numerator_min": "1/50"},
                                    {"claimed_min": "1/100", "claimed_numerator_min": "1/50"}],
                         ids=["no-claim", "fmin", "pmin", "both"])
@pytest.mark.parametrize("mode", ["sharpness", "global", "local", "negative"])
def test_certify_matches_the_library(tmp_path, capsys, mode, claims):
    """``certify --json`` reports what the public ``certify_*`` functions
    report, with the a-priori bounds built by hand from the public
    ``apriori_*`` functions; only the wall clock differs."""
    k_max, n_max = 12, 3
    unit, one = bernbound.Simplex.from_interval(0, 1), PowerPoly.constant(1, 1)
    cases = [case[:3] for case in rational_instances(8, seed=1717, max_n=2, max_l=3)]
    cases += [fn_dip(), fn_cert3(),
              (PowerPoly.univariate([F(1, 4), -1, 1]), one, unit),  # touches zero
              (one, PowerPoly.univariate([F(13, 50), -1, 1]), unit)]  # mixed-sign den
    for i, (pnum, pden, simplex) in enumerate(cases):
        spec = _write(tmp_path, f"agree{i}.json", {
            "numerator": pnum.to_json(), "denominator": pden.to_json(),
            "domain": simplex.to_json(), **claims})
        code = main(["certify", spec, "--mode", mode, "--kmax", str(k_max),
                     "--nmax", str(n_max), "--json"])
        out, err = capsys.readouterr()
        try:
            report = {
                "sharpness": lambda: certify_sharpness(rational_patch(pnum, pden, simplex)),
                "global": lambda: certify_global(pnum, pden, simplex, k_max),
                "local": lambda: certify_local(pnum, pden, simplex, n_max),
                "negative": lambda: certify_negative(pnum, pden, simplex, "global",
                                                     k_max, n_max),
            }[mode]()
        except bernbound.BernboundError as exc:
            # A denominator that is not Bernstein-positive at the base degree.
            assert (code, out, err) == (70, "", f"error: {exc}\n")
            continue
        if claims:
            apriori = AprioriInfo()
            if "claimed_min" in claims:
                fmin = ClaimedMinimum(claims["claimed_min"])
                constants = convergence_constants(rational_patch(pnum, pden, simplex))
                apriori = AprioriInfo(d1=apriori_d1(constants, fmin),
                                      degree_bound=apriori_degree_omega(constants, fmin),
                                      depth_bound=apriori_depth(constants, fmin))
            if "claimed_numerator_min" in claims:
                apriori = apriori._replace(d2=apriori_d2(
                    to_bernstein(pnum, pnum.degree, simplex),
                    ClaimedMinimum(claims["claimed_numerator_min"])))
            report = report._replace(apriori=apriori)
        expected = json.loads(json.dumps(report.to_json()))
        got = json.loads(out)
        del expected["wall_clock"], got["wall_clock"]
        assert got == expected
        assert code == {"certified": 0, "refuted": 1, "inconclusive": 2}[got["verdict"]]


def _library_report(spec, argv) -> dict:
    """What the library reports for a command line, as ``to_json()`` gives
    it: for ``bounds`` the report ``cmd_bounds`` assembles from the patch,
    its enclosure, sharpness and constants."""
    num, den, domain = parse_problem(spec)[:3]
    command, flags = argv[0], dict(zip(argv[1::2], argv[2::2]))
    if command == "bounds":
        base = rational_patch(num, den, domain)
        f = (base if "--degree" not in flags
             else rational_patch(num, den, domain, int(flags["--degree"])))
        constants = convergence_constants(base, f.degree)
        patch = f.to_json()
        return {
            "degree": f.degree,
            "coefficients": patch["ratios"],
            "coefficients_float": [float_str(r) for r in f.ratios],
            "enclosure": {end: format_rational(value)
                          for end, value in f.enclosure()._asdict().items()},
            "sharpness": f.sharpness()._asdict(),
            "constants": {name: format_rational(getattr(constants, name))
                          for name in ("zeta", "omega", "omega_prime", "min_den")},
            "patch": patch,
        }
    if command == "minimize":
        budget = int(flags["--budget"]) if "--budget" in flags else None
        try:
            return bernbound.minimize(num, den, domain, F(flags["--eps"]), budget).to_json()
        except bernbound.BudgetExhausted as exc:
            return exc.partial.to_json()
    mode, n_max = flags["--mode"], int(flags.get("--nmax", certify.N_MAX))
    return {
        "sharpness": lambda: certify_sharpness(rational_patch(num, den, domain)),
        "global": lambda: certify_global(num, den, domain, certify.K_MAX),
        "local": lambda: certify_local(num, den, domain, n_max),
        "negative": lambda: certify_negative(num, den, domain, flags.get("--via", "global"),
                                             n_max=n_max),
    }[mode]().to_json()


@pytest.mark.parametrize("spec, argv, code", [
    pytest.param(DIP_SPEC, ["bounds"], 0, id="bounds"),
    pytest.param(CERT3_SPEC, ["bounds", "--degree", "3"], 0, id="bounds-degree"),
    pytest.param(DIP_SPEC, ["certify", "--mode", "sharpness"], 2, id="sharpness"),
    pytest.param(CERT3_SPEC, ["certify", "--mode", "global"], 0, id="global"),
    pytest.param(DIP_SPEC, ["certify", "--mode", "local", "--nmax", "5"], 0, id="local"),
    pytest.param(NEG_CERT3, ["certify", "--mode", "negative"], 0, id="negative"),
    pytest.param(NEG_CERT3, ["certify", "--mode", "negative", "--via", "local"], 0,
                 id="negative-via-local"),
    pytest.param(DIP_SPEC, ["minimize", "--eps", "1/1000"], 0, id="minimize"),
    pytest.param(DIP_SPEC, ["minimize", "--eps", "1/100000000", "--budget", "1"], 2,
                 id="minimize-exhausted"),
])
def test_json_report_is_one_line(tmp_path, capsys, spec, argv, code):
    """``--json`` prints the library's report as one line, the standard
    library's unindented encoding; only the wall clock differs."""
    assert main([argv[0], _write(tmp_path, "spec.json", spec), *argv[1:], "--json"]) == code
    out = capsys.readouterr().out
    got = json.loads(out)
    assert out == json.dumps(got) + "\n"
    expected = json.loads(json.dumps(_library_report(spec, argv)))
    got.pop("wall_clock", None)
    expected.pop("wall_clock", None)
    assert got == expected


# x / (-1 - x^2): every denominator coefficient is negative, so both
# patches are negated at the base degree and at every degree above it.
NEG_DEN = _problem({(1,): 1}, {(0,): -1, (2,): -1}, UNIT)


@pytest.mark.parametrize("source", ["flag", "spec"])
@pytest.mark.parametrize("lift", [0, 1, 7])
@pytest.mark.parametrize("spec", [DIP_SPEC, NEG_DEN, TRI, TET_MIN],
                         ids=["interval", "negated", "triangle", "tetrahedron"])
def test_degree_elevates_the_base_patch(tmp_path, capsys, spec, lift, source):
    """``--degree D``, or a spec ``degree``, elevates the base-degree patch:
    the report equals the one built from ``rational_patch`` at D."""
    num, den = parse_problem(spec)[:2]
    degree = max(num.degree, den.degree) + lift
    if source == "flag":
        argv = ["bounds", _write(tmp_path, "spec.json", spec), "--degree", str(degree)]
    else:
        argv = ["bounds", _write(tmp_path, "spec.json", {**spec, "degree": degree})]
    assert main([*argv, "--json"]) == 0
    out = capsys.readouterr().out
    got = json.loads(out)
    assert out == json.dumps(got) + "\n"
    expected = _library_report(spec, ["bounds", "--degree", str(degree)])
    assert got == json.loads(json.dumps(expected))
    assert got["degree"] == degree


@pytest.mark.parametrize("spec, argv, code, out", [
    pytest.param(REF3, ["certify", "--mode", "local"], 1,
                 "refuted: f(1/2, 0) = -1/150 <= 0\n", id="REF3-local"),
    *[pytest.param(RAT1, ["certify", "--mode", mode], 1, "refuted: f(0) = -1/8 <= 0\n",
                   id=f"RAT1-{mode}") for mode in ("sharpness", "global", "local")],
    pytest.param(TOUCH, ["certify", "--mode", "global", "--kmax", "4"], 2,
                 "inconclusive at degree 4; raise the budget\n", id="TOUCH-global"),
    # A k_max past the size cap: the scan stops at the last degree whose
    # conversion triangle the cap admits, C(2896, 2) and C(294, 3) entries,
    # and no budget goes further, so the hint names the cap.
    pytest.param(TOUCH, ["certify", "--mode", "global", "--kmax", "100000000"], 2,
                 "inconclusive at degree 2894; degree 2895 exceeds the size cap of"
                 " 4194304 conversion-triangle entries\n", id="TOUCH-global-cap"),
    pytest.param(TOUCH2, ["certify", "--mode", "global", "--kmax", "100000000"], 2,
                 "inconclusive at degree 291; degree 292 exceeds the size cap of"
                 " 4194304 conversion-triangle entries\n", id="TOUCH2-global-cap"),
    pytest.param(TRI, ["certify", "--mode", "local"], 1,
                 "refuted: f(1/2, -1/3) = -170/539 <= 0\n", id="TRI-local"),
    pytest.param(TRI_MIN, ["certify", "--mode", "local"], 0,
                 "certified positivity at depth 1, 64 leaves\n", id="TRI_MIN-local"),
    pytest.param(TET_MIN, ["certify", "--mode", "local"], 0,
                 "certified positivity at depth 0, 1 leaves\n", id="TET_MIN-local"),
    *[pytest.param(SYM, ["minimize", "--eps", "1/100", "--strategy", strategy], 0,
                   "lower: 67/720 ~ 0.0930556\nupper: 581/5760 ~ 0.100868\n"
                   "witness: (5/16, 5/16)\ngap: 1/128 ~ 0.0078125 (target 1/100)\n"
                   f"rounds used: 2 (a-priori sufficient: 5)\nleaves: {leaves}\n",
                   id=f"SYM-{strategy}")
      for strategy, leaves in (("best-first", 4), ("uniform", 64))],
])
def test_exact_text(tmp_path, capsys, spec, argv, code, out):
    path = _write(tmp_path, "spec.json", spec)
    assert main([argv[0], path, *argv[1:]]) == code
    assert capsys.readouterr().out == out


CAP_HINT = ("inconclusive at degree 4; degree 5 exceeds the size cap of 35"
            " conversion-triangle entries\n")
BUDGET_HINT = "inconclusive at degree {}; raise the budget\n"


@pytest.mark.parametrize("k_max, argv, out", [
    pytest.param(None, [], CAP_HINT, id="default-budget"),
    pytest.param(4, [], BUDGET_HINT.format(4), id="spec-at-cap"),
    pytest.param(100, [], CAP_HINT, id="spec-past-cap"),
    pytest.param(100, ["--kmax", "4"], BUDGET_HINT.format(4), id="flag-at-cap"),
    pytest.param(None, ["--kmax", "3"], BUDGET_HINT.format(3), id="flag-below-cap"),
    pytest.param(None, ["--mode", "negative", "--via", "global"], CAP_HINT,
                 id="negative-default-budget"),
])
def test_cap_hint_reads_the_budget_in_force(tmp_path, capsys, monkeypatch, k_max, argv,
                                            out):
    # With the cap at C(4 + 3, 3) = 35 the scan of (x + y - 1/3)^2 stops at
    # degree 4.  The hint names the cap when the k_max in force (flag, else
    # spec, else certify.K_MAX) is above that, and the budget otherwise.
    cap = polypatch._triangle_size(4, 2)
    monkeypatch.setattr(polypatch, "MAX_TRIANGLE", cap)
    spec = dict(TOUCH2, k_max=k_max) if k_max is not None else dict(TOUCH2)
    if "negative" in argv:
        spec["numerator"] = PowerPoly.from_json(TOUCH2["numerator"]).negate().to_json()
    argv = argv if "--mode" in argv else ["--mode", "global", *argv]
    assert main(["certify", _write(tmp_path, "spec.json", spec), *argv]) == 2
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("spec, argv", [
    pytest.param(TRI, ["bounds", "--degree", "6"], id="TRI-bounds"),
    *[pytest.param(spec, ["minimize", "--eps", "1/100", "--strategy", strategy],
                   id=f"{name}-{strategy}")
      for name, spec in (("TRI", TRI), ("TRI_MIN", TRI_MIN), ("TET_MIN", TET_MIN),
                         ("SPEC2", SPEC2))
      for strategy in ("best-first", "uniform")],
])
def test_values_match_the_spec(tmp_path, capsys, spec, argv):
    """Each value a report claims at a point is f there, recomputed from the
    spec with ``PowerPoly.eval``: a vertex coefficient of ``bounds`` is f at
    that vertex, and ``minimize``'s upper bound is f at its witness."""
    path = _write(tmp_path, "spec.json", spec)
    assert main([argv[0], path, *argv[1:], "--json"]) == 0
    report = json.loads(capsys.readouterr().out)

    def f(x):
        value = PowerPoly.from_json(spec["numerator"]).eval(x)
        if "denominator" in spec:
            value /= PowerPoly.from_json(spec["denominator"]).eval(x)
        return value

    if argv[0] == "bounds":
        vertices = spec["domain"]["vertices"]
        positions = vertex_positions(report["degree"], len(vertices) - 1)
        assert [F(report["coefficients"][p]) for p in positions] == list(map(f, vertices))
    else:
        assert f(report["witness"]) == F(report["upper"]) >= F(report["lower"])


@pytest.mark.parametrize("with_denominator", [True, False], ids=["denominator", "default-1"])
def test_parse_problem_builds_no_fraction(monkeypatch, with_denominator):
    """A spec whose coefficients and vertices are plain ``"p/q"`` strings is
    read on integers: ``Fraction.__new__``, patched to count, is never
    called.  A reader that goes back to a ``Fraction`` per term fails
    here, with no timing."""
    data = {
        "numerator": {"dimension": 2, "terms": [
            {"exponents": [0, 0], "coeff": "-55/32"}, {"exponents": [1, 0], "coeff": "6/4"},
            {"exponents": [0, 1], "coeff": "7"}, {"exponents": [0, 0], "coeff": "1/3"}]},
        "domain": {"vertices": [["-1/4", "-1/2"], ["1/2", "-3/4"], ["-1/4", "1/4"]]},
    }
    if with_denominator:
        data["denominator"] = {"dimension": 2, "terms": [
            {"exponents": [0, 0], "coeff": "14/3"}, {"exponents": [1, 1], "coeff": "-1/9"}]}
    built = []
    new = F.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counting)
    spec = parse_problem(data)
    monkeypatch.undo()
    assert built == []
    assert spec.numerator == PowerPoly(2, {(0, 0): F(-133, 96), (1, 0): F(3, 2), (0, 1): 7})
    assert spec.denominator == (PowerPoly(2, {(0, 0): F(14, 3), (1, 1): F(-1, 9)})
                                if with_denominator else PowerPoly.constant(2, 1))
    assert spec.domain == bernbound.Simplex(
        [[F(-1, 4), F(-1, 2)], [F(1, 2), F(-3, 4)], [F(-1, 4), F(1, 4)]])
