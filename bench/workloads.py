"""Seeded benchmark inputs for sweepnav.

Every workload is a deterministic function of the run seed: the same seed
writes the same bytes. Sweep files go through the package's own writer
(``write_sweep_csv``), except the dense workload, which re-emits a route
run in the hackrf_sweep row layout (``date, time, hz_low, hz_high,
bin_width, num_samples, dB...``) with a noise floor in every bin.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sweepnav import (
    BandPlan,
    NoiseConfig,
    PipelineConfig,
    SweepRecord,
    route_scenario,
    run_pipeline,
    score_run,
    simulate_run,
    static_scenario,
    write_sweep_csv,
)
from sweepnav.simulator import DEFAULT_TX_BBOX, STATIC_TX_BBOX
from sweepnav.sweeps import format_timestamp

# Route runs per run seed; run seed n covers scenario seeds 10n .. 10n+9.
ROUTE_SEEDS = 10
# Window and measurement variance of the desk benchmark (acceptance
# criterion 4): the 0.01 default variance assumes far cleaner ranges than
# RSS inversion gives.
ROUTE_WINDOW = 10
ROUTE_NOISE = NoiseConfig(q=np.eye(2) * 0.1, r=200.0)
STATIC_SWEEPS = 1000

# hackrf_sweep-scale spectrum: 3,500 1-MHz bins, five bins per row.
DENSE_BINS = 3500
DENSE_BIN_HZ = 1_000_000
DENSE_BINS_PER_ROW = 5
DENSE_NUM_SAMPLES = 20
# Far below the weakest carrier a route can produce (about -101 dBm at the
# corner of the placement box with a 4-sigma shadowing draw).
DENSE_NOISE_DBM = -125.0
DENSE_NOISE_SIGMA_DB = 1.5

# Accuracy panel: the 50 route seeds of acceptance criterion 4.
ACCURACY_SEEDS = range(50)


@dataclass(frozen=True)
class Input:
    """One sweep file and what the benchmark needs to run and check it.

    ``reference`` holds the simulated sweeps the file was written from;
    a batch run over them is the trajectory the streamed run must equal.
    """

    key: str
    path: Path
    config: PipelineConfig
    reference: tuple[SweepRecord, ...]


def pipeline_config(scene: str, scenario_seed: int) -> PipelineConfig:
    """Receiver configuration matched to the scenario's placement box.

    Equal to ``matched_config`` of the scenario (route: with the desk
    noise), built without simulating the world.
    """
    if scene == "route":
        return PipelineConfig(
            plan=BandPlan.uniform(),
            noise=ROUTE_NOISE,
            sweep_window=ROUTE_WINDOW,
            anchor_seed=scenario_seed,
            anchor_bbox=DEFAULT_TX_BBOX,
        )
    if scene == "static":
        return PipelineConfig(
            plan=BandPlan.uniform(),
            sweep_window=None,
            anchor_seed=scenario_seed,
            anchor_bbox=STATIC_TX_BBOX,
        )
    raise ValueError(f"unknown scene {scene!r}")


def route_inputs(seed: int, work_dir: Path, seeds: int = ROUTE_SEEDS) -> list[Input]:
    """Four-leg benchmark route, one sweep file per scenario seed."""
    inputs = []
    for scenario_seed in range(seed * ROUTE_SEEDS, seed * ROUTE_SEEDS + seeds):
        sweeps = simulate_run(route_scenario(scenario_seed)).sweeps
        config = pipeline_config("route", scenario_seed)
        path = work_dir / f"route-{scenario_seed}.csv"
        write_sweep_csv(sweeps, path, config.plan)
        inputs.append(Input(f"route:{scenario_seed}", path, config, sweeps))
    return inputs


def static_inputs(seed: int, work_dir: Path, sweeps: int = STATIC_SWEEPS) -> list[Input]:
    """Stationary receiver, one sweep per second, growing window."""
    records = simulate_run(static_scenario(seed, duration_s=float(sweeps - 1))).sweeps
    config = pipeline_config("static", seed)
    path = work_dir / f"static-{seed}.csv"
    write_sweep_csv(records, path, config.plan)
    return [Input(f"static:{seed}", path, config, records)]


def dense_inputs(seed: int, work_dir: Path, sweeps: int | None = None) -> list[Input]:
    """The first route of ``route_inputs(seed)`` as hackrf-scale sweeps.

    ``sweeps`` truncates the route (for smoke tests).
    """
    scenario_seed = seed * ROUTE_SEEDS
    records = simulate_run(route_scenario(scenario_seed)).sweeps[:sweeps]
    path = work_dir / f"dense-{scenario_seed}.csv"
    write_dense_csv(records, path, np.random.default_rng(seed))
    return [Input(f"route:{scenario_seed}", path, pipeline_config("route", scenario_seed), records)]


def write_dense_csv(records, path: Path, rng: np.random.Generator) -> None:
    """Write every plan bin of every sweep.

    Bins holding a record's band get its exact power (shortest round-trip
    repr, as ``write_sweep_csv`` writes it); every other bin gets a
    two-decimal noise-floor draw. All rows of a sweep share its timestamp.
    """
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        for record in records:
            cells = [f"{v:.2f}" for v in rng.normal(DENSE_NOISE_DBM, DENSE_NOISE_SIGMA_DB, DENSE_BINS).tolist()]
            for band in record.bands:
                cells[band.band_id] = repr(band.rss_dbm)
            date_text, time_text = format_timestamp(record.timestamp)
            for start in range(0, DENSE_BINS, DENSE_BINS_PER_ROW):
                hz_low = start * DENSE_BIN_HZ
                hz_high = hz_low + DENSE_BINS_PER_ROW * DENSE_BIN_HZ
                handle.write(
                    f"{date_text}, {time_text}, {hz_low}, {hz_high}, {DENSE_BIN_HZ}, "
                    f"{DENSE_NUM_SAMPLES}, {', '.join(cells[start:start + DENSE_BINS_PER_ROW])}\n"
                )


WORKLOADS = {
    "route": route_inputs,
    "static_growing": static_inputs,
    "dense_spectrum": dense_inputs,
}


def route_accuracy(seeds=ACCURACY_SEEDS) -> dict[str, float]:
    """Pooled segment-error medians and median aligned RMSE over route seeds."""
    wma_err, ekf_err, wma_rmse, ekf_rmse = [], [], [], []
    for scenario_seed in seeds:
        run = simulate_run(route_scenario(scenario_seed))
        score = score_run(run.truth, run_pipeline(run.sweeps, pipeline_config("route", scenario_seed)))
        wma_err.extend(s.percent_diff for s in score.segments["wma"])
        ekf_err.extend(s.percent_diff for s in score.segments["ekf"])
        wma_rmse.append(score.rmse_m["wma"])
        ekf_rmse.append(score.rmse_m["ekf"])
    return {
        "wma_seg_err_median_pct": statistics.median(wma_err),
        "ekf_seg_err_median_pct": statistics.median(ekf_err),
        "wma_rmse_m": statistics.median(wma_rmse),
        "ekf_rmse_m": statistics.median(ekf_rmse),
    }
