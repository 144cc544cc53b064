"""The benchmark's own tests, at smoke size.

Run from the repository root:

    PYTHONPATH=src python -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from sweepnav import TrackingPipeline, ekf, matched_config, parse_sweep_file, route_scenario, run_pipeline, simulate_run, static_scenario

import harness
import workloads
from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SMOKE_SIZE = {"route": 2, "static_growing": 60, "dense_spectrum": 12}


def smoke_inputs(workload, seed, work_dir):
    return workloads.WORKLOADS[workload](seed, work_dir, SMOKE_SIZE[workload])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_bytes(workload, tmp_path):
    first, second, other = (tmp_path / name for name in ("a", "b", "c"))
    for directory in (first, second, other):
        directory.mkdir()
    a = smoke_inputs(workload, 3, first)
    b = smoke_inputs(workload, 3, second)
    c = smoke_inputs(workload, 4, other)
    assert [x.path.read_bytes() for x in a] == [x.path.read_bytes() for x in b]
    assert [x.path.read_bytes() for x in a] != [x.path.read_bytes() for x in c]


def test_dense_rows_follow_hackrf_layout(tmp_path):
    (item,) = workloads.dense_inputs(1, tmp_path, 2)
    rows = item.path.read_text(encoding="ascii").splitlines()
    assert len(rows) == 2 * workloads.DENSE_BINS // workloads.DENSE_BINS_PER_ROW
    fields = [f.strip() for f in rows[1].split(",")]
    assert fields[2:6] == ["5000000", "10000000", "1000000", str(workloads.DENSE_NUM_SAMPLES)]
    assert len(fields) == 6 + workloads.DENSE_BINS_PER_ROW
    assert len({tuple(r.split(",")[:2]) for r in rows}) == 2  # one timestamp per sweep


def test_dense_trajectory_equals_route(tmp_path):
    (dense,) = workloads.dense_inputs(2, tmp_path, SMOKE_SIZE["dense_spectrum"])
    route = workloads.route_inputs(2, tmp_path, 1)[0]
    assert dense.key == route.key
    streamed = run_pipeline(parse_sweep_file(dense.path, dense.config.plan), dense.config)
    sparse = run_pipeline(parse_sweep_file(route.path, route.config.plan), route.config)
    assert len(streamed.steps) == SMOKE_SIZE["dense_spectrum"]
    assert streamed.steps == sparse.steps[: len(streamed.steps)]


@pytest.mark.parametrize("scene, scenario", [("route", route_scenario(7)), ("static", static_scenario(7, duration_s=40.0))])
def test_pipeline_config_is_matched_config(scene, scenario):
    run = simulate_run(scenario)
    reference = dict(noise=workloads.ROUTE_NOISE) if scene == "route" else dict(sweep_window=None)
    expected = run_pipeline(run.sweeps, matched_config(scenario, **reference))
    assert run_pipeline(run.sweeps, workloads.pipeline_config(scene, 7)).steps == expected.steps


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_runs_at_smoke_size(workload, trace, tmp_path):
    result = harness.run(
        workload, 1, 0.05, trace, tmp_path,
        size=SMOKE_SIZE[workload], accuracy_seeds=range(2), setup_probes=1, log=lambda line: None,
    )
    assert result["correct"]
    assert result["failed"] == 0 and result["attempted"] > 0
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    assert [m["unit"] for m in result["metrics"].values()] == [m["unit"] for m in listed]


def test_tracer_restores_entry_points_and_nests_spans(tmp_path):
    original = ekf.update
    item = workloads.route_inputs(5, tmp_path, 1)[0]
    tracer = Tracer()
    with tracer.installed():
        pipeline = TrackingPipeline(item.config)
        for record in parse_sweep_file(item.path, item.config.plan):
            pipeline.process(record)
    assert ekf.update is original
    summary = tracer.summary()
    assert summary["min_self_ns"] >= 0
    assert sum(summary["layer_ns"].values()) == summary["covered_ns"]
    assert summary["calls"]["pipeline"] == len(item.reference)
    assert tracer.counts["parse_rows"] == 6 * len(item.reference)


def test_exits_nonzero_without_package_source(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "route", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
