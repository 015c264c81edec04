"""Smoke test of the benchmark at tiny sizes.

Runs every workload once untraced and once traced with ``--tiny`` and
checks the output contract: the last line is one JSON object, every metric
named in BENCHMARK.json is printed with its unit, the traced run yields a
call count and a self time for every wrapped layer, the digests agree
between modes, compare mode accepts the results, and a directory holding
only the benchmark (no ``src/``) makes the run fail.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = [
    "polypatch.elevate", "ratpatch.ratios", "certify.cert_predicate",
    "polypatch.split_edge", "geometry.bisect_edge", "geometry.simplex_init",
    "geometry.longest_edge", "geometry.diameter_sq", "ratpatch.split_round",
    "optimize.local_bounds", "geometry.barycentric", "polypatch.eval",
    "optimize.minimize", "certify.certify_local",
    "powerpoly.substitute_affine", "geometry.affine_pullback",
    "polypatch.to_bernstein_standard", "polypatch.second_differences",
    "ratpatch.convergence_constants", "cli.load_problem", "cli.main",
]


def _run(root, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=root,
        capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "results.jsonl"
    runs = {}
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace in (0, 1):
            proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
                        "--trace", str(trace), "--tiny", "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            runs[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out, runs


def _expect(metrics, specs):
    for spec in specs:
        assert spec["name"] in metrics, spec["name"]
        assert metrics[spec["name"]]["unit"] == spec["unit"], spec["name"]
        assert isinstance(metrics[spec["name"]]["value"], (int, float))


def test_result_lines_follow_the_contract(results):
    _, runs = results
    for (workload, trace), result in runs.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, workload
        assert result["attempted"] >= 1 and result["failed"] == 0
        _expect(result["metrics"], SPEC["per_layer" if trace else "end_to_end"])


def test_traced_run_names_every_layer(results):
    _, runs = results
    names = {m["name"] for m in SPEC["per_layer"]}
    for layer in LAYERS:
        assert {f"{layer}.calls", f"{layer}.self_s"} <= names, layer
    for workload in [w["name"] for w in SPEC["workloads"]]:
        metrics = runs[workload, 1]["metrics"]
        assert metrics["failed_frac"]["value"] == 0
        assert metrics["cli.main.calls"]["value"] > 0 or workload != "cli_bounds"


def test_compare_mode_matches_digests(results):
    out, _ = results
    proc = _run(ROOT, "--compare", str(out), str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert " 0 differ" in proc.stdout


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
