"""End-to-end runs of the benchmark on the tiny smoke scene."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import bench

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


def smoke(seed, trace):
    proc = run_bench(
        "--workload", "smoke", "--seed", str(seed), "--seconds", "0.3",
        "--trace", str(trace),
    )
    assert proc.returncode == 0, proc.stderr
    *_, detail, last = proc.stdout.strip().splitlines()
    return json.loads(detail)["detail"], json.loads(last)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_a_correct_result(trace):
    _, result = smoke(seed=3, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = bench.per_layer_units() if trace else bench.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_traced_self_times_add_up_to_the_traced_total():
    detail, result = smoke(seed=3, trace=1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(metrics["trace.total_s"], rel=1e-9)
    assert metrics["pipeline.separate_file.calls"] == 1.0
    assert metrics["optimizer.run.iterations"] == 3.0
    assert detail["absent"] == []


def test_same_seed_same_inputs_and_outputs():
    first, _ = smoke(seed=5, trace=0)
    again, _ = smoke(seed=5, trace=0)
    other, _ = smoke(seed=6, trace=0)
    assert first["image_sha256"] == again["image_sha256"]
    assert first["sdr_gain_db_per_scene"] == again["sdr_gain_db_per_scene"]
    assert first["image_sha256"] != other["image_sha256"]
    assert first["environment"]["seed"] == 5
    assert first["environment"]["blas_threads"] == "1"


def test_fails_without_result_in_a_bare_directory(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = run_bench(
        "--workload", "extract1-ip2", "--seed", "0", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_unknown_workload_is_refused():
    proc = run_bench("--workload", "nope", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "unknown workload" in proc.stderr
