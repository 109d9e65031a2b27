"""Tests of the benchmark itself: ``python3 -m pytest perfbench`` from the repository root.

They run each workload for about a second, so they take a minute; the
library's own suite under ``tests/`` does not collect them.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]

# ROADMAP hard corpus at eps=1e-6: nodes expanded per instance, in corpus order.
ROADMAP_CORPUS_NODES = [12881, 147, 7336, 27467, 3200]

DETERMINISTIC_LAYER_METRICS = [
    "metric.seminorm_interval.nodes", "metric.depth_explored", "metric.compute_tail_params.calls",
    "metric.cert.block_len", "metric.cert.theta", "metric.cert.chain_sum_G", "metric.cert_ok_ratio",
    "bisim.kernel_dim", "bisim.minimize.dim_out", "linalg.spectral_norms.matrices",
    "linalg.spectral_radii.matrices", "jsr.products_formed", "jsr.bracket_width", "jsr.truncated",
    "learn.rows_ok_ratio",
]


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result_and_record(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record = json.loads(next(ln for ln in lines if ln.startswith("record "))[len("record "):])
    return json.loads(lines[-1]), record


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_end_to_end_metric(workload):
    result, record = result_and_record(run("--workload", workload, "--seed", "3", "--seconds", "1"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, record["failures"]
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_are_bit_identical_across_invocations(workload):
    runs = [result_and_record(run("--workload", workload, "--seconds", "1", "--trace", "1")) for _ in range(2)]
    for result, record in runs:
        assert result["correct"], record["failures"]
        assert list(result["metrics"]) == [m["name"] for m in DECLARED["per_layer"]]
    (_, first), (_, second) = runs
    for name in ["bnb_nodes", "width_sum"] + DETERMINISTIC_LAYER_METRICS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_corpus_node_counts_match_roadmap_at_default_seed(tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import workloads

        inputs = workloads.setup_bnb(7, tmp_path)
        nodes = [op.value.nodes_expanded for op in workloads.solve_bnb(inputs)]
    finally:
        del sys.path[:2]
    assert nodes == ROADMAP_CORPUS_NODES


def test_fails_without_printing_a_result_when_the_library_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
