import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweepnav.artifacts import (
    TRAJECTORY_HEADER,
    read_ground_truth,
    read_trajectory_csv,
    write_csv,
    write_trajectory_csv,
    write_truth_csv,
    write_waypoints_csv,
)
from sweepnav.errors import InputError, ShapeError
from sweepnav.pipeline import Trajectory, TrajectoryStep
from sweepnav.simulator import GroundTruth, TruthSample


def reference_trajectory_bytes(trajectory):
    """The trajectory CSV as it was written field by field, with f"{v:.6f}"."""
    lines = [",".join(TRAJECTORY_HEADER)]
    for step in trajectory.steps:
        floats = (step.timestamp, step.x_raw, step.y_raw, step.x_wma, step.y_wma, step.x_ekf, step.y_ekf,
                  step.residual_norm)
        lines.append(",".join([str(step.index), *(f"{v:.6f}" for v in floats), ";".join(step.flags)]))
    return ("\n".join(lines) + "\n").encode("ascii")


EDGE_STEPS = (
    TrajectoryStep(0, 1.6725312e9, 0.0, -0.0, 1e20, -1e20, 0.5e-6, 1.5e-6, math.nan),
    TrajectoryStep(1, 1.6725312000000005e9, -0.0000004, 2.5, -2.5, 0.1, -1e-300, 123456.7890125, math.nan,
                   ("held", "missing_band", "skipped_landmark")),
    TrajectoryStep(2, 0.0, math.inf, -math.inf, 1.0, 2.0, 3.0, 4.0, 0.0, ("no_update",)),
    TrajectoryStep(12345, -1.0, 5, -7, 0.125, 1.0000005, 2.0000015, 9.9999995, 1e-7, ("held", "missing_band")),
)

FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([0.0, -0.0, 1e20, -1e20, 5e-7, 0.0000015])
FLAGS = st.lists(st.sampled_from(["held", "missing_band", "skipped_landmark", "no_update"]), max_size=3).map(tuple)


class TestTrajectoryCsv:
    def test_edge_values_match_the_per_field_writer(self, tmp_path):
        trajectory = Trajectory(steps=EDGE_STEPS)
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(trajectory, path)
        assert path.read_bytes() == reference_trajectory_bytes(trajectory)
        assert b"-0.000000" in path.read_bytes() and b",nan," in path.read_bytes()
        assert b"100000000000000000000.000000" in path.read_bytes()

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(st.integers(0, 10**6), st.lists(FLOATS, min_size=8, max_size=8), FLAGS),
                         max_size=6))
    def test_any_rows_match_the_per_field_writer(self, tmp_path_factory, rows):
        trajectory = Trajectory(steps=tuple(TrajectoryStep(k, *values, flags) for k, values, flags in rows))
        path = tmp_path_factory.mktemp("csv") / "trajectory.csv"
        write_trajectory_csv(trajectory, path)
        assert path.read_bytes() == reference_trajectory_bytes(trajectory)

    def test_round_trip_keeps_flags(self, tmp_path):
        # row 2's positions are +-inf, which a scored trajectory may not hold: the reader rejects them
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(Trajectory(steps=EDGE_STEPS), path)
        with pytest.raises(InputError, match=f"{path}: line 4: 'inf' is not a finite number"):
            read_trajectory_csv(path)
        finite = EDGE_STEPS[:2] + EDGE_STEPS[3:]
        write_trajectory_csv(Trajectory(steps=finite), path)
        read = read_trajectory_csv(path)
        assert [s.flags for s in read.steps] == [s.flags for s in finite]
        assert [s.index for s in read.steps] == [0, 1, 12345]
        assert [math.isnan(s.residual_norm) for s in read.steps] == [True, True, False]

    @pytest.mark.parametrize("column", range(1, 8))
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_time_or_position_is_rejected(self, tmp_path, column, cell):
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(Trajectory(steps=EDGE_STEPS[:2]), path)
        lines = path.read_text(encoding="ascii").splitlines()
        fields = lines[2].split(",")
        fields[column] = cell
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        with pytest.raises(InputError, match=f"line 3: '{cell}' is not a finite number"):
            read_trajectory_csv(path)


def old_series_cell(value):
    """The cell the series writer wrote: ints through str, anything else as a float with six digits."""
    return str(value) if isinstance(value, (int, np.integer)) else f"{float(value):.6f}"


# each artifact's header and its row as the writer it had before write_csv formatted it
OLD_WRITERS = {
    "report": ("estimator,segment,est_m,truth_m,percent_diff",
               lambda e, seg, est, tru, pct: f"{e},{seg},{est:.6f},{tru:.6f},{pct:.6f}"),
    "grid_report": ("n_pl,window,tx_count,estimator,segment,est_m,percent_diff,note",
                    lambda npl, w, c, e, seg, est, pct, note: f"{npl},{w},{c},{e},{seg},{est:.6f},{pct:.6f},{note}"),
    "convergence_time": ("k,timestamp,spread", lambda *row: ",".join(map(old_series_cell, row))),
    "convergence_spectrum": ("cutoff_mhz,band_count,spread", lambda *row: ",".join(map(old_series_cell, row))),
}
ESTIMATORS = st.sampled_from(["raw", "wma", "ekf"])
NOTES = st.sampled_from([
    "", "no fix: 9 bands asked; 6 in every sweep",
    "no fix: anchor frame of bands 700 800 900 1800 is degenerate: geometry is rank deficient",
])
# the cells each artifact's rows hold, as the commands build them
ARTIFACT_ROWS = {
    "report": st.tuples(ESTIMATORS, st.integers(1, 9), FLOATS, FLOATS, FLOATS),
    "grid_report": st.tuples(FLOATS, st.integers(1, 50), st.integers(4, 13), ESTIMATORS, st.integers(1, 9),
                             FLOATS, FLOATS, NOTES),
    "convergence_time": st.tuples(st.integers(0, 10**6), FLOATS, FLOATS.map(np.float64)),
    "convergence_spectrum": st.tuples(FLOATS, st.integers(4, 13), FLOATS),
}


def expected_bytes(header, lines):
    return ("\n".join([header, *lines]) + "\n").encode("ascii")


class TestWriteCsv:
    @settings(max_examples=60, deadline=None)
    @given(samples=st.lists(st.tuples(FLOATS, FLOATS, FLOATS), min_size=1, max_size=6), data=st.data())
    def test_truth_and_waypoints_match_their_old_writers(self, tmp_path_factory, samples, data):
        indices = data.draw(st.lists(st.integers(0, len(samples) - 1), max_size=4).map(sorted))
        truth = GroundTruth(samples=tuple(TruthSample(*s) for s in samples), waypoint_indices=tuple(indices))
        root = tmp_path_factory.mktemp("csv")
        write_truth_csv(truth, root / "truth.csv")
        write_waypoints_csv(truth, root / "waypoints.csv")
        assert (root / "truth.csv").read_bytes() == expected_bytes(
            "k,timestamp,x,y", [f"{k},{t:.6f},{x:.6f},{y:.6f}" for k, (t, x, y) in enumerate(samples)])
        assert (root / "waypoints.csv").read_bytes() == expected_bytes(
            "k,x,y", [f"{k},{samples[k][1]:.6f},{samples[k][2]:.6f}" for k in indices])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_command_artifacts_match_their_old_writers(self, tmp_path_factory, data):
        name = data.draw(st.sampled_from(sorted(OLD_WRITERS)))
        rows = data.draw(st.lists(ARTIFACT_ROWS[name], max_size=6))
        header, old_row = OLD_WRITERS[name]
        # the grid passes its exponent as text, written as given
        written = [(str(row[0]), *row[1:]) for row in rows] if name == "grid_report" else rows
        path = tmp_path_factory.mktemp("csv") / f"{name}.csv"
        write_csv(path, header.split(","), written)
        assert path.read_bytes() == expected_bytes(header, [old_row(*row) for row in rows])

    def test_edge_floats(self, tmp_path):
        path = tmp_path / "report.csv"
        values = (math.nan, math.inf, -math.inf, -0.0, np.float64(2.5))
        write_csv(path, ["estimator", "segment", "est_m"], [("wma", 1, v) for v in values])
        assert path.read_bytes().splitlines()[1:] == [
            b"wma,1,nan", b"wma,1,inf", b"wma,1,-inf", b"wma,1,-0.000000", b"wma,1,2.500000"]


# a value as truth.csv holds it: six fractional digits, so it reads back bit for bit
WRITTEN = st.floats(min_value=-1e9, max_value=1e9).map(lambda v: float(f"{v:.6f}"))


class TestGroundTruthCsv:
    @settings(max_examples=60, deadline=None)
    @given(samples=st.lists(st.tuples(WRITTEN, WRITTEN, WRITTEN), min_size=1, max_size=6), data=st.data())
    def test_reads_back_what_the_writers_wrote(self, tmp_path_factory, samples, data):
        indices = data.draw(st.lists(st.integers(0, len(samples) - 1), max_size=4).map(sorted))
        truth = GroundTruth(samples=tuple(TruthSample(*s) for s in samples), waypoint_indices=tuple(indices))
        root = tmp_path_factory.mktemp("csv")
        write_truth_csv(truth, root / "truth.csv")
        write_waypoints_csv(truth, root / "waypoints.csv")
        assert read_ground_truth(root / "truth.csv", root / "waypoints.csv") == truth

    @pytest.mark.parametrize("moved", ["1,0.000000,5.000000", "1,0.000001,0.000000", "1,nan,nan"])
    def test_waypoint_off_its_truth_sample_is_a_shape_error(self, tmp_path, moved):
        truth = GroundTruth(samples=(TruthSample(0.0, 0.0, 0.0), TruthSample(1.0, 0.0, 0.0)), waypoint_indices=(0, 1))
        write_truth_csv(truth, tmp_path / "truth.csv")
        (tmp_path / "waypoints.csv").write_text(f"k,x,y\n0,0.000000,0.000000\n{moved}\n", encoding="ascii")
        with pytest.raises(ShapeError, match="waypoint 1 is at .*, truth sample 1 at \\(0.000000, 0.000000\\)"):
            read_ground_truth(tmp_path / "truth.csv", tmp_path / "waypoints.csv")

    def test_index_out_of_range_is_left_to_the_scorer(self, tmp_path):
        truth = GroundTruth(samples=(TruthSample(0.0, 0.0, 0.0),), waypoint_indices=(0,))
        write_truth_csv(truth, tmp_path / "truth.csv")
        (tmp_path / "waypoints.csv").write_text("k,x,y\n-1,1.0,1.0\n0,0.0,0.0\n7,1.0,1.0\n", encoding="ascii")
        read = read_ground_truth(tmp_path / "truth.csv", tmp_path / "waypoints.csv")
        assert read.waypoint_indices == (-1, 0, 7)
