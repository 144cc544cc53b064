"""Command-line interface: run, simulate, eval, convergence.

Exit codes: 0 success, 2 unreadable or malformed input, 3 configuration
error or failed run, 4 mismatched data shapes. The commands only raise;
``ERRORS`` maps each exception to its message prefix and exit code, in one
place around every command. The RPS_LOG environment variable sets the log
level (DEBUG, INFO, WARNING, ...).
"""

from __future__ import annotations

import logging
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import click

from . import artifacts
from .config import load_config, load_scenario
from .errors import ConfigError, ShapeError, SweepNavError
from .pipeline import run_pipeline
from .simulator import rolling_spread, score_run, simulate_run, spread
from .sweeps import BandPlan, SweepRecord, parse_sweep_file, write_sweep_csv

# exception -> (message prefix, exit code); the first match wins. A sweep
# parse error is an InputError, and InputError and ShapeError are ValueErrors.
ERRORS = (
    (ShapeError, "shape error", 4),
    (ConfigError, "config error", 3),
    (OSError, "input error", 2),
    (ValueError, "input error", 2),
    (SweepNavError, "run failed", 3),
)


class _Cli(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except tuple(kind for kind, _, _ in ERRORS) as exc:
            prefix, code = next((prefix, code) for kind, prefix, code in ERRORS if isinstance(exc, kind))
            click.echo(f"{prefix}: {exc}", err=True)
            sys.exit(code)


@click.group(cls=_Cli)
def main():
    """Relative positioning from RF spectrum sweeps."""
    level = os.environ.get("RPS_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


@main.command()
@click.argument("sweeps", type=click.Path(exists=True, dir_okay=False))
@click.option("--config", "config_path", type=click.Path(), default=None, help="Pipeline config file.")
@click.option("--seed", type=int, default=None, help="Anchor placement seed override.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
def run(sweeps, config_path, seed, out_dir):
    """Process a sweep CSV into a relative trajectory."""
    config = load_config(config_path)
    if seed is not None:
        config = replace(config, anchor_seed=seed)
    # the records stream from the file into the pipeline; a late parse error,
    # or a file with no sweep, still exits 2 before any output exists
    trajectory = run_pipeline(parse_sweep_file(sweeps, config.plan), config)
    if not trajectory.steps:
        selected = " ".join(map(str, trajectory.selected_bands)) or "none"
        raise SweepNavError(f"no fix in {trajectory.skipped_sweeps} sweeps; selected bands: {selected}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts.write_trajectory_csv(trajectory, out / "trajectory.csv")
    summary = artifacts.summary_text(trajectory)
    (out / "summary.txt").write_text(summary, encoding="ascii")
    click.echo(summary, nl=False)


@main.command()
@click.argument("scenario", type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", type=int, default=None, help="Scenario seed override.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
def simulate(scenario, seed, out_dir):
    """Generate sweeps and ground truth for a scenario file."""
    result = simulate_run(load_scenario(scenario, seed))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(result.sweeps, out / "sweeps.csv", BandPlan.uniform())
    artifacts.write_truth_csv(result.truth, out / "truth.csv")
    artifacts.write_waypoints_csv(result.truth, out / "waypoints.csv")
    click.echo(
        f"wrote {len(result.sweeps)} sweeps, route length "
        f"{math.fsum(result.truth.segment_lengths()):.1f} m"
    )


@main.command("eval")
@click.argument("truth", type=click.Path(exists=True, dir_okay=False))
@click.argument("trajectory", type=click.Path(exists=True, dir_okay=False))
@click.option("--waypoints", "waypoints_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
@click.option("--config", "config_path", type=click.Path(), default=None, help="Config for grid re-runs.")
@click.option("--sweeps", "sweeps_path", type=click.Path(), default=None, help="Sweep CSV for grid re-runs.")
@click.option("--npl-list", default=None, help="Comma-separated path-loss exponents for the grid.")
@click.option("--txcount-list", default=None, help="Comma-separated transmitter counts for the grid.")
@click.option("--window-list", default=None, help="Comma-separated smoother windows for the grid.")
def eval_cmd(truth, trajectory, waypoints_path, out_dir, config_path, sweeps_path,
             npl_list, txcount_list, window_list):
    """Score a trajectory against ground truth at waypoints."""
    ground_truth = artifacts.read_ground_truth(truth, waypoints_path)
    score = score_run(ground_truth, artifacts.read_trajectory_csv(trajectory))
    grid = None
    if npl_list or txcount_list or window_list:
        grid, unscored = _eval_grid(ground_truth, config_path, sweeps_path, npl_list, txcount_list, window_list)

    # every input is read and every grid run done: only now is --out written
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts.write_csv(out / "report.csv", ["estimator", "segment", "est_m", "truth_m", "percent_diff"], [
        (estimator, i + 1, seg.estimated_m, seg.truth_m, seg.percent_diff)
        for estimator, segments in score.segments.items() for i, seg in enumerate(segments)
    ])

    names = [f"S{i + 1}" for i in range(len(score.segments["raw"]))]
    click.echo("estimator  " + "  ".join(f"{n:>12}" for n in names + ["rmse_m"]))
    click.echo("truth      " + "  ".join(f"{s.truth_m:>9.0f}/0.00" for s in score.segments["raw"]))
    for estimator in ("wma", "ekf", "raw"):
        cells = [f"{s.estimated_m:.0f}/{s.percent_diff:.2f}" for s in score.segments[estimator]]
        cells.append(f"{score.rmse_m[estimator]:.1f}")
        click.echo(f"{estimator:<9}  " + "  ".join(f"{c:>12}" for c in cells))

    if grid is not None:
        header = ["n_pl", "window", "tx_count", "estimator", "segment", "est_m", "percent_diff", "note"]
        artifacts.write_csv(out / "grid_report.csv", header, grid)
        click.echo(f"grid: wrote {len(grid)} rows" + (f", {unscored} cells with no fix" if unscored else ""))


def _parse_list(text, cast, default):
    if not text:
        return default
    try:
        return [cast(part) for part in text.split(",")]
    except ValueError:
        raise ConfigError(f"bad list {text!r}") from None


def _eval_grid(truth, config_path, sweeps_path, npl_list, txcount_list, window_list) -> tuple[list, int]:
    """The grid report's rows and its count of cells with no fix. Every config
    is built and the sweeps read before the first run, so a bad grid argument
    fails before any output; a cell with no fix holds nan and a note saying why."""
    if sweeps_path is None:
        raise ConfigError("grid evaluation needs --sweeps")
    base = load_config(config_path)
    npls = _parse_list(npl_list, float, [base.pathloss.exponent])
    counts = _parse_list(txcount_list, int, [base.plan.selection_count])
    windows = _parse_list(window_list, int, [base.smoother.window])
    configs = [
        (npl, window, count, replace(
            base,
            pathloss=replace(base.pathloss, exponent=npl),
            smoother=replace(base.smoother, window=window, weights=None),
            plan=replace(base.plan, selection_count=count),
        ))
        for npl in npls for window in windows for count in counts
    ]
    records = list(parse_sweep_file(sweeps_path, base.plan))

    grid_rows, unscored = [], 0
    for npl, window, count, config in configs:
        trajectory = run_pipeline(records, config)
        note = ""
        if trajectory.steps:
            segments = score_run(truth, trajectory).segments
            scores = {e: [(s.estimated_m, s.percent_diff) for s in segments[e]] for e in ("wma", "ekf")}
        else:  # no comma in a note: it stays one CSV field
            if trajectory.selected_bands:
                note = f"no fix: all {trajectory.skipped_sweeps} sweeps skipped"
            else:
                common = set.intersection(*(set(r.rss_by_id) for r in records))
                note = f"no fix: {count} bands asked; {len(common)} in every sweep"
            scores = dict.fromkeys(("wma", "ekf"), [(math.nan, math.nan)] * (len(truth.waypoint_indices) - 1))
            unscored += 1
        for estimator in ("wma", "ekf"):
            for i, (est, pct) in enumerate(scores[estimator]):
                # the exponent is written as given, not with six digits
                grid_rows.append((str(npl), window, count, estimator, i + 1, est, pct, note))
    return grid_rows, unscored


def _looks_like_kv_file(path: str) -> bool:
    # Sweep CSV rows never contain '='; scenario files are key = value.
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            return "=" in line
    return False


@main.command()
@click.argument("source", type=click.Path(exists=True, dir_okay=False))
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--seed", type=int, default=None, help="Scenario seed override.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
def convergence(source, config_path, seed, out_dir):
    """Coordinate-spread series over elapsed sweeps and over spectrum share.

    SOURCE is a scenario file (simulated on the fly) or a sweep CSV.
    """
    config = load_config(config_path)
    if _looks_like_kv_file(source):
        records = list(simulate_run(load_scenario(source, seed), config.plan).sweeps)
    else:
        records = list(parse_sweep_file(source, config.plan))

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    # Spread over elapsed sweeps, with an unbounded mean window so the
    # estimate keeps absorbing data as time passes.
    growing = replace(config, sweep_window=None)
    trajectory = run_pipeline(records, growing)
    series = rolling_spread(trajectory.positions("raw"), 10)
    artifacts.write_csv(
        out / "convergence_time.csv",
        ["k", "timestamp", "spread"],
        [
            (step.index, step.timestamp, series[i])
            for i, step in enumerate(trajectory.steps)
        ],
    )

    # Spread over cumulative low-to-high frequency subsets of the bands
    # seen in the first sweep.
    bands = sorted(records[0].rss_by_id, key=config.plan.center_mhz)
    spectrum_rows = []
    for m in range(4, len(bands) + 1):
        subset = set(bands[:m])
        sub_config = replace(
            config,
            sweep_window=None,
            plan=replace(config.plan, selection_count=m),
        )
        sub_records = [
            SweepRecord(r.timestamp, {b: rss for b, rss in r.rss_by_id.items() if b in subset}) for r in records
        ]
        sub_trajectory = run_pipeline(sub_records, sub_config)
        if len(sub_trajectory.steps) == 0:
            continue
        tail = sub_trajectory.positions("raw")[-10:]
        spectrum_rows.append((config.plan.center_mhz(bands[m - 1]), m, spread(tail)))
    artifacts.write_csv(
        out / "convergence_spectrum.csv",
        ["cutoff_mhz", "band_count", "spread"],
        spectrum_rows,
    )
    click.echo(
        f"wrote convergence series ({len(trajectory.steps)} sweeps, "
        f"{len(spectrum_rows)} spectrum points)"
    )


if __name__ == "__main__":
    main()
