"""Compare two result files written by ``run.py --out``.

Each file holds one JSON line per run.  Runs are grouped by workload and
trace mode; for every metric the report gives both medians, the ratio
new/old, and each side's spread (quartile distance over median).  An
end-to-end metric is marked:

- ``unresolved`` when either side's spread exceeds the metric's bound,
  unless every new run is better than every old run;
- ``worse`` when the new median is worse than the old by more than the
  bound;
- ``ok`` otherwise: no regression beyond the bound.  A gain is claimed only
  from paired runs, not from this report.

Per-layer metrics have no bound and are listed with their ratio only.
Digests are compared for every (workload, seed) present on both sides.
The exit status is 1 when a digest differs or a metric is ``worse``.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def spread(values) -> float:
    """Quartile distance over median, as ``statistics.quantiles`` gives it."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def _status(old, new, bound, lower_is_better) -> str:
    sign = 1 if lower_is_better else -1
    old_med, new_med = statistics.median(old), statistics.median(new)
    if max(spread(old), spread(new)) > bound:
        if all(sign * n < sign * o for n in new for o in old):
            return "ok"
        return "unresolved"
    change = sign * (new_med - old_med) / abs(old_med) if old_med else 0.0
    return "worse" if change > bound else "ok"


def main(spec_path, old_path, new_path) -> int:
    spec = json.loads(spec_path.read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    old_runs, new_runs = _load(old_path), _load(new_path)
    groups = defaultdict(lambda: (defaultdict(list), defaultdict(list)))
    for side, runs in ((0, old_runs), (1, new_runs)):
        for run in runs:
            metrics = groups[(run["workload"], run["trace"])][side]
            for name, entry in run["metrics"].items():
                metrics[name].append(entry["value"])
    failed = False
    for (workload, trace), (old, new) in sorted(groups.items()):
        print(f"== {workload} ({'per-layer' if trace else 'end-to-end'}): "
              f"{len(next(iter(old.values()), []))} old runs, "
              f"{len(next(iter(new.values()), []))} new runs")
        for name in sorted(set(old) & set(new)):
            o_med, n_med = statistics.median(old[name]), statistics.median(new[name])
            ratio = f"{n_med / o_med:.3f}" if o_med else "n/a"
            line = (f"  {name:44s} old {o_med:<12.6g} new {n_med:<12.6g} "
                    f"ratio {ratio:>7s}  spread {spread(old[name]):.3f}/"
                    f"{spread(new[name]):.3f}")
            if name in bounds:
                m = bounds[name]
                status = _status(old[name], new[name], m["bound"], m["better"] == "lower")
                failed |= status == "worse"
                line += f"  bound {m['bound']}: {status}"
            print(line)
    old_digests = {(r["workload"], r["seed"]): r["digest"] for r in old_runs}
    same = differ = 0
    for run in new_runs:
        key = (run["workload"], run["seed"])
        if key in old_digests:
            if old_digests[key] == run["digest"]:
                same += 1
            else:
                differ += 1
                print(f"digest differs: {key[0]} seed {key[1]}")
    print(f"digests: {same} match, {differ} differ")
    return 1 if failed or differ else 0
