"""Per-layer tracing from outside the library.

The traced run replaces each public function named in ``LAYERS`` by a
wrapper that records a span (name, start, end, parent span, solve id) and
accumulates call counts and self time: the span's duration minus the time
covered by its child spans.  The wrapper is installed in every ``bernbound``
module namespace that holds the function, not only where it is defined,
because several modules import functions by name (``bisect_edge`` into
``polypatch``, ``diameter_sq`` into ``certify``).  Methods are patched on
their class.  ``uninstall`` restores every original.

Spans are kept in memory while ``recording`` (the first traced pass) and
written out at the end of the run; counts and self times are kept per pass.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (metric name, module, attribute or Class.attribute)
LAYERS = [
    ("powerpoly.substitute_affine", "bernbound.powerpoly", "PowerPoly.substitute_affine"),
    ("geometry.affine_pullback", "bernbound.geometry", "affine_pullback"),
    ("geometry.simplex_init", "bernbound.geometry", "Simplex.__init__"),
    ("geometry.barycentric", "bernbound.geometry", "barycentric"),
    ("geometry.bisect_edge", "bernbound.geometry", "bisect_edge"),
    ("geometry.longest_edge", "bernbound.geometry", "longest_edge"),
    ("geometry.diameter_sq", "bernbound.geometry", "diameter_sq"),
    ("polypatch.to_bernstein_standard", "bernbound.polypatch", "to_bernstein_standard"),
    ("polypatch.elevate", "bernbound.polypatch", "BernsteinPatch.elevate"),
    ("polypatch.split_edge", "bernbound.polypatch", "BernsteinPatch.split_edge"),
    ("polypatch.second_differences", "bernbound.polypatch", "BernsteinPatch.second_differences"),
    ("polypatch.eval", "bernbound.polypatch", "BernsteinPatch.eval"),
    ("ratpatch.ratios", "bernbound.ratpatch", "RationalPatch.__post_init__"),
    ("ratpatch.split_round", "bernbound.ratpatch", "RationalPatch.split_round"),
    ("ratpatch.convergence_constants", "bernbound.ratpatch", "convergence_constants"),
    ("certify.cert_predicate", "bernbound.certify", "cert_predicate"),
    ("certify.certify_global", "bernbound.certify", "certify_global"),
    ("certify.certify_local", "bernbound.certify", "certify_local"),
    ("optimize.local_bounds", "bernbound.optimize", "local_bounds"),
    ("optimize.minimize", "bernbound.optimize", "minimize"),
    ("cli.load_problem", "bernbound.cli", "load_problem"),
    ("cli.main", "bernbound.cli", "main"),
]

# Counted without a span: each rational edge split makes two Bernstein
# splits, so it explains ``geometry.bisect_edge.calls``.
RATIONAL_SPLIT = ("bernbound.ratpatch", "RationalPatch.split_edge")


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *cls, attr = path.split(".")
    if cls:
        owner = getattr(owner, cls[0])
    return owner, attr, vars(owner)[attr]


class Tracer:
    """Wraps the layers, then counts calls and self time per pass."""

    def __init__(self):
        self._undo = []
        self._stack = []
        self._next_id = 0
        self._solve_wrappers = {}
        self.solve_id = -1
        self.spans = []
        self.recording = False
        self.new_pass(recording=False)

    def new_pass(self, recording: bool) -> None:
        """Zero the per-pass counts; keep spans only when ``recording``."""
        self.recording = recording
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.rational_splits = 0
        self.root_s = 0.0
        self.max_bits = 0
        self.max_degree = 0

    def _wrap(self, name, fn, after=None):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            frame = [0.0, sid]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.self_s[name] += t1 - t0 - frame[0]
                self.calls[name] += 1
                if self.recording:
                    parent = stack[-1][1] if stack else -1
                    self.spans.append((sid, name, t0, t1, parent, self.solve_id))
                if stack:
                    stack[-1][0] += t1 - t0
                else:
                    self.root_s += t1 - t0
            if after is not None:
                after(args[0])
            if stack:
                # The bookkeeping after t1 is tracer cost: it is charged to
                # no layer, so the parent's self time excludes it.
                stack[-1][0] += perf_counter() - t1
            return result

        return wrapper

    def _after_ratios(self, patch) -> None:
        bits = max(max(abs(r.numerator).bit_length(), r.denominator.bit_length())
                   for r in patch.ratios)
        self.max_bits = max(self.max_bits, bits)
        self.max_degree = max(self.max_degree, patch.degree)

    def _count_split(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.rational_splits += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "bernbound" or n.startswith("bernbound.")]
        for name, module, path in LAYERS:
            after = self._after_ratios if name == "ratpatch.ratios" else None
            self._patch(modules, module, path,
                        lambda fn, n=name, a=after: self._wrap(n, fn, a))
        self._patch(modules, *RATIONAL_SPLIT, self._count_split)

    def _patch(self, modules, module, path, make) -> None:
        owner, attr, original = _resolve(module, path)
        wrapper = make(original)
        targets = [(owner, attr)] if isinstance(owner, type) else [
            (mod, key) for mod in modules
            for key, value in vars(mod).items() if value is original]
        for target, key in targets:
            setattr(target, key, wrapper)
            self._undo.append((target, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def solve(self, solve_id: int, fn, item):
        """Run one solve under a root span named ``solve``."""
        self.solve_id = solve_id
        if fn not in self._solve_wrappers:
            self._solve_wrappers[fn] = self._wrap("solve", fn)
        return self._solve_wrappers[fn](item)


def write_spans(spans, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("id\tname\tstart\tend\tparent\tsolve\n")
        for sid, name, t0, t1, parent, solve in spans:
            handle.write(f"{sid}\t{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{solve}\n")


def conversions_per_minimize(spans) -> float:
    """Average number of ``to_bernstein_standard`` spans under each
    ``optimize.minimize`` span (0 when no minimize ran)."""
    by_id = {s[0]: s for s in spans}
    minimizes = sum(1 for s in spans if s[1] == "optimize.minimize")
    if not minimizes:
        return 0.0
    inside = 0
    for s in spans:
        if s[1] != "polypatch.to_bernstein_standard":
            continue
        parent = s[4]
        while parent != -1:
            if by_id[parent][1] == "optimize.minimize":
                inside += 1
                break
            parent = by_id[parent][4]
    return inside / minimizes
