"""CSV artifacts exchanged between commands.

Every float is written with six fractional digits and every line ends in
LF, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import itertools
import math
from statistics import fmean

from .errors import InputError, ShapeError
from .pipeline import Trajectory, TrajectoryStep
from .simulator import GroundTruth, TruthSample

TRAJECTORY_HEADER = [
    "k", "timestamp", "x_raw", "y_raw", "x_wma", "y_wma", "x_ekf", "y_ekf", "residual", "flags",
]
TRUTH_HEADER = ["k", "timestamp", "x", "y"]
WAYPOINTS_HEADER = ["k", "x", "y"]


# one row: str() of the index, f"{v:.6f}" of each float (%-format gives the
# same bytes) and the flags joined by ";"
_TRAJECTORY_ROW = "%s" + ",%.6f" * 8 + ",%s\n"


def write_trajectory_csv(trajectory: Trajectory, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        handle.write(",".join(TRAJECTORY_HEADER) + "\n")
        handle.write("".join([_TRAJECTORY_ROW % (*step[:9], ";".join(step.flags)) for step in trajectory.steps]))


def _read_rows(path, header: list[str], kind: str, parse) -> list:
    """Each row of a CSV artifact through ``parse``; a fault names the file and line."""
    with open(path, "r", encoding="ascii", newline="") as handle:
        reader = csv.reader(handle)
        try:
            found = next(reader, None)
            if found != header:
                raise ValueError(f"unexpected {kind} header {found}")
            rows = []
            for row in reader:
                if len(row) != len(header):
                    raise ValueError(f"malformed {kind} row {row}")
                rows.append(parse(row))
            return rows
        except (ValueError, csv.Error) as exc:  # a bad number or a byte that is not ASCII too
            raise InputError(f"{path}: line {reader.line_num}: {exc}") from None


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _trajectory_step(row: list[str]) -> TrajectoryStep:
    # the timestamp and positions are scored, so they must be finite; a held row's residual is nan
    return TrajectoryStep(int(row[0]), *map(_finite, row[1:8]), float(row[8]), tuple(f for f in row[9].split(";") if f))


def read_trajectory_csv(path) -> Trajectory:
    return Trajectory(steps=tuple(_read_rows(path, TRAJECTORY_HEADER, "trajectory", _trajectory_step)))


def write_csv(path, header: list[str], rows) -> None:
    """Floats (numpy's float64 too) get six fractional digits; text and ints go through str."""
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        for row in itertools.chain([header], rows):
            handle.write(",".join("%.6f" % v if isinstance(v, float) else str(v) for v in row) + "\n")


def write_truth_csv(truth: GroundTruth, path) -> None:
    write_csv(path, TRUTH_HEADER, ((k, *sample) for k, sample in enumerate(truth.samples)))


def write_waypoints_csv(truth: GroundTruth, path) -> None:
    """Waypoint sample indices and true positions for later evaluation."""
    write_csv(path, WAYPOINTS_HEADER, ((k, truth.samples[k].x, truth.samples[k].y) for k in truth.waypoint_indices))


def read_ground_truth(truth_path, waypoints_path) -> GroundTruth:
    """The inverse of write_truth_csv and write_waypoints_csv.

    Every truth value must be finite (an InputError otherwise), and a waypoint
    whose position is not that of the truth sample it indexes is a ShapeError.
    """
    samples = _read_rows(truth_path, TRUTH_HEADER, "truth", lambda row: TruthSample(*map(_finite, row[1:])))
    waypoints = _read_rows(
        waypoints_path, WAYPOINTS_HEADER, "waypoints", lambda row: (int(row[0]), float(row[1]), float(row[2]))
    )
    for k, x, y in waypoints:  # an index out of range is left to the scorer's checks
        if 0 <= k < len(samples) and (x, y) != samples[k][1:]:
            raise ShapeError(f"{waypoints_path}: waypoint {k} is at ({x:.6f}, {y:.6f}),"
                             f" truth sample {k} at ({samples[k].x:.6f}, {samples[k].y:.6f})")
    return GroundTruth(samples=tuple(samples), waypoint_indices=tuple(k for k, _, _ in waypoints))


def summary_text(trajectory: Trajectory) -> str:
    residuals = [
        s.residual_norm for s in trajectory.steps if math.isfinite(s.residual_norm)
    ]
    lines = [
        f"fixes: {len(trajectory.steps)}",
        f"held_steps: {trajectory.held_steps}",
        f"skipped_sweeps: {trajectory.skipped_sweeps}",
        f"selected_bands: {' '.join(str(b) for b in trajectory.selected_bands)}",
    ]
    mean, peak = (fmean(residuals), max(residuals)) if residuals else (math.nan, math.nan)
    lines += [f"residual_mean: {mean:.6f}", f"residual_max: {peak:.6f}"]
    return "\n".join(lines) + "\n"
