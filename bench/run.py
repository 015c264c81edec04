#!/usr/bin/env python3
"""Benchmark for bernbound: seeded workloads, exact output checks, per-layer
trace, and a compare mode.

Run one workload (from the repository root):

    python3 bench/run.py --workload elevate --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
library's public functions and prints the per-layer metrics instead.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--out FILE`` also appends the
run's full result (digest included) to FILE as one JSON line, and

    python3 bench/run.py --compare OLD.jsonl NEW.jsonl

compares two such files.  The library is imported from ``src/`` next to this
directory and nowhere else; without it the run fails.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import compare
import speed
import tracing

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
SPEC = ROOT / "BENCHMARK.json"

SETUP_REPS = 3     # set-up is repeated and its median reported
COLD_SPAWNS = 20   # fresh CLI processes timed per run
TINY_POOL = 6      # --tiny: solves per pool, for the smoke test


def import_library():
    """Import bernbound from this checkout's src/, or stop the run."""
    if not (SRC / "bernbound" / "__init__.py").is_file():
        sys.exit(f"error: no bernbound sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bernbound

    if Path(bernbound.__file__).resolve().parent != SRC / "bernbound":
        sys.exit(f"error: imported bernbound from {bernbound.__file__}, not {SRC}")


def quantile(values, q, band=2):
    """The q-th percentile of a non-empty list, as the mean of the values
    ranked within ``band`` percentiles of it.  Solves of a pool come in
    groups of near-equal cost; a plain order statistic jumps by the gap
    between two groups when their order near the percentile changes, and
    the band average does not."""
    ordered = sorted(values)
    n = len(ordered)
    lo = min(n - 1, int(n * (q - band) / 100))
    hi = max(lo + 1, -(-n * (q + band) // 100))
    return statistics.fmean(ordered[lo:hi])


def digest(pool, records) -> str:
    text = json.dumps([[item.key, rec] for item, rec in zip(pool, records)],
                      sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_pass(W, pool, solve):
    """Solve every item once; return records (an error record on raise)."""
    records = []
    for idx, item in enumerate(pool):
        try:
            records.append(W.record(item, solve(idx, item)))
        except Exception as exc:  # counted as a failed solve
            records.append({"error": repr(exc)})
    return records


def build_pool(W, workload, seed, tiny):
    if workload == "cli_bounds":
        pool = W.cli_pool(seed, str(WORKDIR / f"cli-{seed}"))
    else:
        pool = {"elevate": W.elevate_pool, "subdivide": W.subdivide_pool}[workload](seed)
    return pool[:TINY_POOL] if tiny else pool


def set_up(W, gauge, args):
    """Build the pool and run one untimed warm-up pass, SETUP_REPS times.

    Returns the pool, the first pass's records, and each set-up's and each
    warm-up pass's duration at reference speed.  A rep whose records differ
    from the first is reported as a problem.
    """
    setups, passes, problems = [], [], []
    ref = None
    for _ in range(SETUP_REPS):
        gauge.sample()
        t0 = perf_counter()
        pool = build_pool(W, args.workload, args.seed, args.tiny)
        t1 = perf_counter()
        records = run_pass(W, pool, lambda idx, item: W.solve(item))
        t2 = perf_counter()
        gauge.sample()
        setups.append(gauge.scale(t2 - t0, t0, t2))
        passes.append(gauge.scale(t2 - t1, t1, t2))
        if ref is None:
            ref = records
        elif records != ref:
            problems.append("a repeated set-up pass gave different records")
    return pool, ref, setups, passes, problems


def check_pool(W, pool, records):
    """Exact checks on the reference records; one message list per item."""
    out = []
    for item, rec in zip(pool, records):
        out.append([rec["error"]] if "error" in rec else W.check(item, rec))
    return out


class ColdCli:
    """Times fresh ``python -m bernbound.cli bounds`` processes on the fn_dip
    problem file.

    Each CLI spawn follows a spawn of a bare interpreter (``python -c pass``)
    and is reported as their ratio times REF_BARE_S: the time at a reference
    interpreter start-up.  Process start-up reacts to a loaded host unlike
    in-process arithmetic, so the bare spawn, not the speed gauge, is its
    yardstick.  ``maybe_spawn`` runs between solves and spawns at evenly
    spaced times, so the spawns sample the same stretch of time as the
    solves."""

    REF_BARE_S = 0.040   # bare interpreter start-up on the reference host

    def __init__(self, spawns, seconds):
        import problems as gen

        path = WORKDIR / "fn_dip.json"
        path.write_text(json.dumps(gen.problem_json(gen.fn_dip())), encoding="utf-8")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.cmd = [sys.executable, "-m", "bernbound.cli", "bounds", str(path)]
        self.bare = [sys.executable, "-c", "pass"]
        self.spawns, self.every = spawns, seconds / spawns
        self.ratios, self.problems = [], []
        self.spawn()  # untimed: fills the bytecode and file caches
        self.ratios.clear()
        self.next = perf_counter()

    def _time(self, cmd):
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=60)
        return perf_counter() - t0, proc

    def spawn(self) -> None:
        bare_s, _ = self._time(self.bare)
        cli_s, proc = self._time(self.cmd)
        self.ratios.append(cli_s / bare_s)
        if proc.returncode != 0 or not proc.stdout.startswith("degree: 2\n"):
            self.problems.append(f"cold CLI exited {proc.returncode}: {proc.stderr[-200:]}")

    def maybe_spawn(self) -> None:
        if len(self.ratios) < self.spawns and perf_counter() >= self.next:
            self.spawn()
            self.next += self.every

    def median_ms(self) -> float:
        while len(self.ratios) < self.spawns:
            self.spawn()
        return statistics.median(self.ratios) * self.REF_BARE_S * 1000


def timed_phase(W, gauge, pool, ref, bad_items, seconds, between):
    """Closed loop, one caller: whole passes over the pool, in pool order,
    until the time is up.  Whole passes give every item the same weight, so
    the latency quantiles do not depend on where the time ran out.  A solve
    fails when it raises, when its record differs from the checked
    reference, or when the reference failed its exact check.  ``between``
    runs after each solve, outside it.  Returns each solve's latency at
    reference speed and the failure count."""
    spans = []
    failed = 0
    deadline = perf_counter() + seconds
    gauge.sample()
    while perf_counter() < deadline:
        for idx, item in enumerate(pool):
            t0 = perf_counter()
            try:
                result = W.solve(item)
                t1 = perf_counter()
                ok = W.record(item, result) == ref[idx]
            except Exception:
                t1 = perf_counter()
                ok = False
            spans.append((t0, t1))
            failed += (not ok) or bool(bad_items[idx])
            gauge.tick()
            between()
    gauge.sample()
    return [gauge.scale(t1 - t0, t0, t1) for t0, t1 in spans], failed


def traced_phase(W, gauge, pool, ref, bad_items, seconds):
    """Traced passes over the whole pool until the time is up (at least
    one).  Counts come from the first pass, times are per-pass medians at
    reference speed, and spans are kept for the first pass."""
    tracer = tracing.Tracer()
    tracer.install()
    passes, failed, first = [], 0, None
    deadline = perf_counter() + seconds
    try:
        while not passes or perf_counter() < deadline:
            tracer.new_pass(recording=not passes)
            gauge.sample()
            t0 = perf_counter()
            records = run_pass(W, pool, lambda idx, item: tracer.solve(idx, W.solve, item))
            t1 = perf_counter()
            gauge.sample()
            f = gauge.factor(t0, t1)
            passes.append({"wall": (t1 - t0) / f, "solve_s": tracer.root_s / f,
                           "calls": dict(tracer.calls),
                           "self_s": {k: v / f for k, v in tracer.self_s.items()},
                           "splits": tracer.rational_splits, "bits": tracer.max_bits,
                           "degree": tracer.max_degree})
            first = first or records
            failed += sum(1 for rec, want, bad in zip(records, ref, bad_items)
                          if rec != want or bad)
    finally:
        tracer.uninstall()
    return tracer.spans, passes, first, len(pool) * len(passes), failed


def layer_metrics(ref, spans, passes, untraced_pass_s):
    """Per-layer calls (first pass) and self time (median over passes),
    plus the counters that explain them."""
    first = passes[0]
    calls, splits = first["calls"], first["splits"]
    metrics = {}
    for name, _, _ in tracing.LAYERS:
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (
            statistics.median(p["self_s"].get(name, 0.0) for p in passes), "s")
    metrics["trace.solve_s"] = (statistics.median(p["solve_s"] for p in passes), "s")
    metrics["trace.overhead"] = (statistics.median(p["wall"] for p in passes)
                                 / statistics.median(untraced_pass_s), "ratio")
    metrics["count.leaves"] = (sum(_leaves(rec) for rec in ref), "count")
    metrics["count.max_degree"] = (first["degree"], "count")
    metrics["count.rational_edge_splits"] = (splits, "count")
    metrics["bits.max"] = (first["bits"], "bits")
    metrics["dup.bisect_per_rational_split"] = (
        calls.get("geometry.bisect_edge", 0) / splits if splits else 0.0, "ratio")
    metrics["dup.conversions_per_minimize"] = (
        tracing.conversions_per_minimize(spans), "ratio")
    return metrics


def _leaves(rec) -> int:
    if "out" in rec:
        rec = rec["out"] if isinstance(rec["out"], dict) else {}
    return rec.get("leaves") or 0


def run(args) -> int:
    t0 = perf_counter()
    import_library()
    import workloads as W
    t1 = perf_counter()
    gauge = speed.Gauge()
    gauge.sample()
    import_s = gauge.scale(t1 - t0, t0, t1)

    WORKDIR.mkdir(exist_ok=True)
    pool, ref, setups, pass_s, problems = set_up(W, gauge, args)
    bad_items = check_pool(W, pool, ref)
    decided = sum(1 for item, rec in zip(pool, ref)
                  if "error" not in rec and W.decided(item, rec))
    for item, bad in zip(pool, bad_items):
        for msg in bad:
            problems.append(f"{item.key}: {msg}")
    result_digest = digest(pool, ref)

    if args.trace:
        spans, passes, traced, attempted, failed = traced_phase(
            W, gauge, pool, ref, bad_items, args.seconds)
        if digest(pool, traced) != result_digest:
            problems.append("the traced digest differs from the untraced one")
        metrics = layer_metrics(ref, spans, passes, pass_s)
        metrics["decided_frac"] = (decided / len(pool), "ratio")
        metrics["failed_frac"] = (failed / attempted, "ratio")
        spans_path = WORKDIR / f"spans-{args.workload}-{args.seed}.tsv"
        tracing.write_spans(spans, str(spans_path))
        print(f"spans: {len(spans)} in {spans_path.relative_to(ROOT)}; "
              f"{len(passes)} traced passes")
    else:
        cold = ColdCli(2 if args.tiny else COLD_SPAWNS, args.seconds)
        latencies, failed = timed_phase(W, gauge, pool, ref, bad_items, args.seconds,
                                        cold.maybe_spawn)
        cold_ms = cold.median_ms()
        problems += cold.problems
        attempted = len(latencies)
        if attempted < 100:
            print(f"warning: only {attempted} solves; p90 has under 10 samples beyond it",
                  file=sys.stderr)
        metrics = {
            "setup_s": (import_s + statistics.median(setups), "s"),
            "solves_per_s": (attempted / sum(latencies), "1/s"),
            "solve_p50_ms": (quantile(latencies, 50) * 1000, "ms"),
            "solve_p90_ms": (quantile(latencies, 90) * 1000, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "cli_cold_ms": (cold_ms, "ms"),
        }
        print(f"speed factor: median {statistics.median(gauge.factors):.3f} over "
              f"{len(gauge.factors)} samples; {len(cold.ratios)} cold CLI spawns")

    correct = not problems and failed == 0
    print(f"workload {args.workload} seed {args.seed}: pool {len(pool)}, "
          f"decided {decided}/{len(pool)}, {attempted} solves, {failed} failed, "
          f"digest {result_digest}")
    for msg in problems[:20]:
        print(f"FAILED: {msg}", file=sys.stderr)
    out = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.out:
        full = dict(out, workload=args.workload, seed=args.seed, trace=args.trace,
                    seconds=args.seconds, digest=result_digest,
                    python=platform.python_version())
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(full) + "\n")
    print(json.dumps(out))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["elevate", "subdivide", "cli_bounds"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="append the full result to this JSON-lines file")
    parser.add_argument("--tiny", action="store_true",
                        help="a few solves and spawns only, for the smoke test")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two --out files instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main(SPEC, *args.compare)
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
