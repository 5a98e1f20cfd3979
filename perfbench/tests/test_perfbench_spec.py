"""BENCHMARK.json agrees with the benchmark code and the naming rules."""

import json
import os
import re

import pytest

import bench
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# The workloads, end-to-end metrics and traced layers the benchmark
# promises to measure.
WORKLOADS = {"extract1-ip2", "extract2-ip1", "burst8-auxiva"}
END_TO_END = {"separate_ref", "solver_ref", "sdr_gain_db", "peak_alloc_mb", "setup_s"}
LAYERS = {
    "io": ["read_wav", "write_wav"],
    "stft": ["stft", "istft"],
    "model": ["noise_covariance", "weighted_covariance", "update_variances", "cost_total"],
    "linalg": ["lu_solve", "logabsdet", "gev_largest", "cholesky", "inv_sqrt_hermitian"],
    "optimizer": [
        "run", "ip0_update_row", "update_wz_fast", "update_wz_full", "ip1_sweep",
        "ip3_sweep", "auxiva_sweep", "ip2_update", "projection_back",
    ],
    "pipeline": ["separate_file"],
}
EXTRA_LAYER_METRICS = {
    "model.weighted_covariance.gflops_computed",
    "linalg.lu_solve.matrices",
    "optimizer.run.iterations",
    "optimizer.run.wall_time_coverage",
    "trace.overhead_frac",
}


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_top_level_shape(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024


def test_names_units_and_bounds_follow_the_grammar(spec):
    entries = spec["workloads"] + spec["end_to_end"] + spec["per_layer"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), names
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_workloads_match_the_code(spec):
    listed = {w["name"]: w for w in spec["workloads"]}
    assert set(listed) == WORKLOADS == set(workloads.WORKLOADS)
    for name, entry in listed.items():
        assert set(entry) == {"name", "why"}
        assert entry["why"] == workloads.WORKLOADS[name].why
        assert "\n" not in entry["why"] and len(entry["why"]) <= 200


def test_metrics_match_the_code(spec):
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert set(e2e) == END_TO_END
    assert e2e == bench.END_TO_END
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layer == bench.per_layer_units()
    for module, functions in LAYERS.items():
        for fn in functions:
            assert f"{module}.{fn}.self_s" in layer
            assert f"{module}.{fn}.calls" in layer
    assert EXTRA_LAYER_METRICS <= set(layer)
    assert {n[: -len(".self_s")] for n in layer if n.endswith(".self_s")} == {
        f"{m}.{f}" for m, fs in LAYERS.items() for f in fs
    }
