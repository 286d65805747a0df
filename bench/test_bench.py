"""Self-test of the benchmark at the tiny size: four users, one epoch.

Run from the repository root:

    python3 -m pytest bench/test_bench.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

WORKLOAD_METRICS = {
    "train": {"train.pairs_per_s": "pairs/s"},
    "evaluate": {"evaluate.proposed_pairs_per_s": "pairs/s",
                 "evaluate.baseline_pairs_per_s": "pairs/s",
                 "evaluate.sffs_s": "s"},
    "verify": {f"verify.{system}_p{q}_ms": "ms"
               for system in ("proposed", "baseline") for q in (50, 95)},
}

LAYER_METRICS = [
    "svc.parse_ms_per_file", "svc.files", "dataset.load_self_s",
    "dataset.build_pairs_ms", "features.extract_ms_per_signature",
    "features.signatures", "lstm.branch_forward_s", "lstm.merge_forward_s",
    "lstm.forward_us_per_row_step", "lstm.branch_backward_s",
    "lstm.merge_backward_s", "lstm.backward_us_per_row_step",
    "lstm.branch_rows", "lstm.branch_useful_ratio", "lstm.padded_step_fraction",
    "siamese.score_self_s", "siamese.loss_grads_self_s",
    "siamese.train_loop_self_s", "siamese.batches",
    "siamese.clipped_batch_fraction", "dtw.score_ms_per_pair", "dtw.ns_per_cell",
    "dtw.pairs", "dtw.sffs_self_s", "dtw.sffs_subsets", "metrics.eer_det_ms",
    "synth.generate_s",
]


def run_bench(workload: str, trace: int, cwd: Path = ROOT, script: Path = BENCH):
    return subprocess.run(
        [sys.executable, str(script / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def parsed(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert all(c["ok"] for c in detail["checks"]), detail["checks"]
    return detail, result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    detail, result = parsed(run_bench(workload, 0))
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())
    named = detail["workload_metrics"]
    for name, unit in WORKLOAD_METRICS[workload].items():
        assert named[name]["unit"] == unit and named[name]["value"] > 0
    env = detail["environment"]
    assert env["blas_threads"] in (1, None) and env["OPENBLAS_NUM_THREADS"] == "1"
    host = detail["host"]
    assert host["probe_calls"] >= 1 and host["slowdown"] > 0
    assert result["metrics"]["job_s"]["value"] == pytest.approx(
        host["job_wall_s"] / host["slowdown"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_layers_with_sane_self_times(workload):
    detail, result = parsed(run_bench(workload, 1))
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name in LAYER_METRICS:
        assert (name in detail["layers"]) != (name in detail["absent"]), name
    assert detail["trace_overhead"]["share_of_body"] >= 0
    spans = json.loads((ROOT / detail["trace_file"]).read_text())
    assert spans
    for name, parent, start, end, self_s in spans:
        assert 0 <= self_s + 1e-9 and self_s <= end - start + 1e-12, name
        assert parent < 0 or spans[parent][2] <= start <= end <= spans[parent][3]


def test_fails_without_the_program():
    """Given only BENCHMARK.json and the benchmark, it exits non-zero silently."""
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench("train", 0, cwd=bare, script=bare / "bench")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
