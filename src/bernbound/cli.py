"""Command-line interface: bounds, certify, and minimize on problem files.

A problem file is JSON with a numerator polynomial, an optional denominator
(default 1), and a domain given either as a simplex or as an interval.
Rational numbers are strings like "13/10" or "1.3" and are parsed exactly;
floats in the output are renderings only.  A plain "p" or "p/q" is read on
integers, and reports print ratios, patches and vertices from integer
pairs, so neither reading nor writing builds a ``Fraction`` per
coefficient.  A domain object needs "interval" or "vertices", and a
degree too large to convert (``polypatch.MAX_TRIANGLE``) is a usage
error.  Each spec field, the domain included, is read through one
wrapper, ``_field``, which names the field in the message of any value
its reader rejects.  The default denominator is the constant 1 over the
domain's dimension, built once the domain is read: nothing here is sized
by the numerator's dimension, which conversion compares with the
domain's (``DimensionMismatch``, exit 64).  Each
value comes from its flag, else its spec field, else the library's
default, and the library checks it: the command line keeps no rule of
the method.  ``--json`` prints the report as one JSON line, which the
standard library's C encoder writes; ``python -m json.tool`` indents it.
Exit codes: 0 success/certified, 1 refuted, 2 inconclusive or
budget exhausted, 64 usage error (including a value the library rejects as
``InvalidArgument``), 70 internal error, 141 standard output closed by its
reader (128 + SIGPIPE, as a shell reports a process that signal ended;
nothing is written to stderr).

A command imports only the modules it runs: ``bounds`` loads neither
``certify`` nor ``optimize``, ``certify`` does not load ``optimize``, and
``minimize`` does not load ``certify``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Dict, NamedTuple, Optional, Tuple

from . import __version__
from .errors import BernboundError, BudgetExhausted, InvalidArgument
from .geometry import Simplex
from .polypatch import _elevate_to
from .powerpoly import PowerPoly, _integer
from .ratpatch import RationalPatch, convergence_constants, rational_patch
from .rationals import _float_ratio, _format_ratio, float_str, format_rational, parse_rational

EXIT_CERTIFIED = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_INTERNAL = 70
EXIT_BROKEN_PIPE = 141


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class ProblemSpec(NamedTuple):
    """A parsed problem file plus its optional mode parameters; a budget
    left ``None`` takes the library's default."""

    numerator: PowerPoly
    denominator: PowerPoly
    domain: Simplex
    degree: Optional[int] = None
    k_max: Optional[int] = None
    n_max: Optional[int] = None
    eps: Optional[Fraction] = None
    claimed_min: Optional[Fraction] = None
    claimed_numerator_min: Optional[Fraction] = None


def _field(data, key, read):
    """``read(data[key])``; a value it rejects is a usage error naming the
    spec field."""
    try:
        return read(data[key])
    except (KeyError, ValueError, TypeError, BernboundError) as exc:
        raise UsageError(f"spec field {key!r}: {exc}") from exc


def _int(value) -> int:
    """A JSON integer, by ``powerpoly._integer``'s rule."""
    try:
        return _integer(value, "value")
    except TypeError:
        raise TypeError(f"not an integer: {value!r}") from None


def _positive(value) -> Fraction:
    """A rational (``parse_rational``) that must be positive."""
    value = parse_rational(value)
    if value <= 0:
        raise ValueError(f"must be positive, got {format_rational(value)}")
    return value


# The optional mode parameters: each spec field, named as its ProblemSpec
# attribute, and its reader.
_OPTIONAL_FIELDS = (
    ("degree", _int),
    ("k_max", _int),
    ("n_max", _int),
    ("eps", parse_rational),
    ("claimed_min", _positive),
    ("claimed_numerator_min", _positive),
)


def _domain(value) -> Simplex:
    """A domain object: an "interval" [a, b] with a < b, or "vertices"."""
    if not isinstance(value, dict) or not value.keys() & {"interval", "vertices"}:
        raise ValueError("need 'interval' or 'vertices'")
    if value.keys() >= {"interval", "vertices"}:
        raise ValueError("need 'interval' or 'vertices', not both")
    if "interval" in value:
        interval = value["interval"]
        if not isinstance(interval, list) or len(interval) != 2:
            raise UsageError("spec field 'domain.interval': need a JSON array"
                             f" [a, b], got {interval!r}")
        lo, hi = map(parse_rational, interval)
        if not lo < hi:
            raise UsageError(f"spec field 'domain.interval': need a < b, got [{lo}, {hi}]")
        return Simplex.from_interval(lo, hi)
    vertices = value["vertices"]
    if not (isinstance(vertices, list) and all(isinstance(v, list) for v in vertices)):
        raise UsageError("spec field 'domain.vertices': need a JSON array of"
                         f" coordinate arrays, got {vertices!r}")
    return Simplex(vertices)


def parse_problem(data: dict) -> ProblemSpec:
    if not isinstance(data, dict):
        raise UsageError("problem spec must be a JSON object")
    if "numerator" not in data:
        raise UsageError("spec field 'numerator' is required")
    numerator = _field(data, "numerator", PowerPoly.from_json)
    denominator = None
    if data.get("denominator") is not None:
        denominator = _field(data, "denominator", PowerPoly.from_json)
        if denominator.is_zero():
            raise UsageError("spec field 'denominator': the zero polynomial")
    if "domain" not in data:
        raise UsageError("spec field 'domain' is required")
    domain = _field(data, "domain", _domain)
    if denominator is None:
        n = domain.dimension
        denominator = PowerPoly._from_ints(n, (((0,) * n, 1),), 1)
    return ProblemSpec(numerator, denominator, domain,
                       **{key: _field(data, key, read) for key, read in _OPTIONAL_FIELDS
                          if key in data})


def load_problem(path: str) -> ProblemSpec:
    source = "<stdin>" if path == "-" else path
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read {source}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"{source}: not UTF-8 text: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"{source}: JSON parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # past the digit or nesting limit
        raise UsageError(f"{source}: {exc}") from exc
    return parse_problem(data)


@lru_cache(maxsize=None)
def _build_parser() -> Tuple[_Parser, Dict[str, _Parser]]:
    """The argument parser and each command's parser, by name, built once
    per process; parsing leaves them unchanged."""
    parser = _Parser(prog="bernbound", description=__doc__)
    parser.add_argument("--version", action="version", version=f"bernbound {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("spec", help="problem file path, or - for stdin")
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    p_bounds = sub.add_parser("bounds", help="coefficients, enclosure, sharpness, constants")
    common(p_bounds)
    p_bounds.add_argument("--degree", type=int, help="Bernstein degree (default: function degree)")

    p_cert = sub.add_parser("certify", help="positivity (or negativity) certificates")
    common(p_cert)
    p_cert.add_argument("--mode", choices=["sharpness", "global", "local", "negative"],
                        default="global")
    p_cert.add_argument("--kmax", type=int, help="degree budget for global mode")
    p_cert.add_argument("--nmax", type=int, help="depth budget for local mode")
    p_cert.add_argument("--via", choices=["sharpness", "global", "local"],
                        help="underlying mode for --mode negative (default: global)")

    p_min = sub.add_parser("minimize", help="bracket the minimum within a gap")
    common(p_min)
    p_min.add_argument("--eps", help="target gap (exact rational, e.g. 1/1000)")
    p_min.add_argument("--budget", type=int, help="subdivision round budget")
    p_min.add_argument("--strategy", choices=["best-first", "uniform"], default="best-first")
    return parser, {"bounds": p_bounds, "certify": p_cert, "minimize": p_min}


def _parse_args(argv) -> argparse.Namespace:
    """``argv`` parsed as the full parser parses it.  A known command's
    arguments go to its own parser alone, which is what the full parser
    hands them to; anything else (no arguments, ``--help``, ``--version``,
    an unknown command) goes through the full parser."""
    parser, commands = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    if not argv or argv[0] not in commands:
        return parser.parse_args(argv)
    args = commands[argv[0]].parse_args(argv[1:])
    args.command = argv[0]
    return args


def _format_interval(interval) -> str:
    lo, hi = interval
    return (f"[{format_rational(lo)}, {format_rational(hi)}]"
            f" ~ [{float_str(lo)}, {float_str(hi)}]")


def cmd_bounds(spec: ProblemSpec, args) -> int:
    """The report at the function's degree, or at a requested degree, to
    which the base patch is elevated rather than converted again."""
    base = rational_patch(spec.numerator, spec.denominator, spec.domain)
    degree = args.degree if args.degree is not None else spec.degree
    f = base if degree is None else RationalPatch(_elevate_to(base.num, degree),
                                                  _elevate_to(base.den, degree))
    constants = convergence_constants(base, f.degree)
    enclosure = f.enclosure()
    sharp = f.sharpness()
    if args.json:
        patch = f.to_json()
        report = {
            "degree": f.degree,
            "coefficients": patch["ratios"],
            "coefficients_float": [_float_ratio(a, b) for a, b in f._ratio_pairs()],
            "enclosure": {
                "lo": format_rational(enclosure.lo),
                "hi": format_rational(enclosure.hi),
            },
            "sharpness": sharp._asdict(),
            "constants": {
                "zeta": format_rational(constants.zeta),
                "omega": format_rational(constants.omega),
                "omega_prime": format_rational(constants.omega_prime),
                "min_den": format_rational(constants.min_den),
            },
            "patch": patch,
        }
        print(json.dumps(report))
        return EXIT_CERTIFIED
    print(f"degree: {f.degree}")
    print("coefficients: " + ", ".join([_format_ratio(a, b) for a, b in f._ratio_pairs()]))
    print(f"enclosure: {_format_interval(enclosure)}")
    min_note = f"yes (vertex {sharp.min_vertex})" if sharp.min_sharp else "no"
    max_note = f"yes (vertex {sharp.max_vertex})" if sharp.max_sharp else "no"
    print(f"min sharp: {min_note}")
    print(f"max sharp: {max_note}")
    print(f"zeta: {format_rational(constants.zeta)} ~ {float_str(constants.zeta)}")
    print(f"omega: {format_rational(constants.omega)} ~ {float_str(constants.omega)}")
    print(f"omega_prime: {format_rational(constants.omega_prime)}"
          f" ~ {float_str(constants.omega_prime)}")
    return EXIT_CERTIFIED


def _print_certificate(report, as_json: bool, k_max: int) -> int:
    """Print a report; a global scan that stopped below ``k_max`` stopped
    at the size cap, which no budget lifts, and its hint says so."""
    from .certify import Mode, Verdict
    from .polypatch import MAX_TRIANGLE

    if as_json:
        print(json.dumps(report.to_json()))
    else:
        claim = "negativity" if report.negated else "positivity"
        if report.verdict is Verdict.CERTIFIED:
            if report.mode is Mode.LOCAL_SUBDIVISION:
                print(f"certified {claim} at depth {report.depth_used},"
                      f" {report.leaves} leaves")
            elif report.mode is Mode.GLOBAL_ELEVATION:
                print(f"certified {claim} at k={report.degree_used}")
            else:
                print(f"certified {claim} by sharpness at degree {report.degree_used}")
        elif report.verdict is Verdict.REFUTED:
            w = report.witness
            point = ", ".join(format_rational(c) for c in w.point)
            relation = ">=" if report.negated else "<="
            print(f"refuted: f({point}) = {format_rational(w.value)} {relation} 0")
        else:
            where = (f"depth {report.depth_used}"
                     if report.mode is Mode.LOCAL_SUBDIVISION
                     else f"degree {report.degree_used}")
            if report.mode is Mode.SHARPNESS:
                hint = ""
            elif report.mode is Mode.GLOBAL_ELEVATION and report.degree_used < k_max:
                hint = (f"; degree {report.degree_used + 1} exceeds the size cap of"
                        f" {MAX_TRIANGLE} conversion-triangle entries")
            else:
                hint = "; raise the budget"
            print(f"inconclusive at {where}{hint}")
        if report.apriori is not None:
            print(f"a-priori: {report.apriori.to_json()}")
    if report.verdict is Verdict.CERTIFIED:
        return EXIT_CERTIFIED
    if report.verdict is Verdict.REFUTED:
        return EXIT_REFUTED
    return EXIT_INCONCLUSIVE


def cmd_certify(spec: ProblemSpec, args) -> int:
    negative = args.mode == "negative"
    if args.via is not None and not negative:
        raise UsageError(f"--via needs --mode negative, not --mode {args.mode}")
    from .certify import K_MAX, N_MAX, _certify

    k_max = next(v for v in (args.kmax, spec.k_max, K_MAX) if v is not None)
    n_max = next(v for v in (args.nmax, spec.n_max, N_MAX) if v is not None)
    report = _certify(
        spec.numerator, spec.denominator, spec.domain,
        (args.via or "global") if negative else args.mode, k_max, n_max, negate=negative,
        claimed_min=spec.claimed_min, claimed_numerator_min=spec.claimed_numerator_min)
    return _print_certificate(report, args.json, k_max)


def cmd_minimize(spec: ProblemSpec, args) -> int:
    from .optimize import minimize

    try:
        eps = parse_rational(args.eps) if args.eps is not None else spec.eps
    except ValueError as exc:
        raise UsageError(f"--eps: {exc}") from exc
    if eps is None:
        raise UsageError("minimize needs --eps (or an 'eps' spec field)")
    exhausted = False
    try:
        result = minimize(spec.numerator, spec.denominator, spec.domain, eps,
                          budget=args.budget, mode=args.strategy)
    except BudgetExhausted as exc:
        result = exc.partial
        exhausted = True
    if args.json:
        print(json.dumps(result.to_json()))
    else:
        print(f"lower: {format_rational(result.lower)} ~ {float_str(result.lower)}")
        print(f"upper: {format_rational(result.upper)} ~ {float_str(result.upper)}")
        witness = ", ".join(format_rational(c) for c in result.argmin_candidate)
        print(f"witness: ({witness})")
        print(f"gap: {format_rational(result.gap)} ~ {float_str(result.gap)}"
              f" (target {format_rational(eps)})")
        print(f"rounds used: {result.steps} (a-priori sufficient: {result.apriori_rounds})")
        print(f"leaves: {result.leaves}")
        if exhausted:
            print("budget exhausted before reaching the target gap")
    return EXIT_INCONCLUSIVE if exhausted else EXIT_CERTIFIED


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        spec = load_problem(args.spec)
        command = {"bounds": cmd_bounds, "certify": cmd_certify,
                   "minimize": cmd_minimize}[args.command]
        code = command(spec, args)
        # A reader that closed the pipe shows here, not at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Send what is still buffered to the null device, so the flush at
        # exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (UsageError, InvalidArgument) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BernboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        # An exception without text (``MemoryError()``) is named by its type.
        print(f"internal error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_INTERNAL


def main_entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    main_entry()
