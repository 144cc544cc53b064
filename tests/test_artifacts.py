import math

from hypothesis import given, settings
from hypothesis import strategies as st

from sweepnav.artifacts import TRAJECTORY_HEADER, read_trajectory_csv, write_trajectory_csv
from sweepnav.pipeline import Trajectory, TrajectoryStep


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
    TrajectoryStep(12345, -1.0, 5, -7, 0.125, 1.0000005, 2.0000015, 9.9999995, 1e-7, ("held", "degenerate")),
)

FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([0.0, -0.0, 1e20, -1e20, 5e-7, 0.0000015])
FLAGS = st.lists(st.sampled_from(["held", "missing_band", "degenerate", "range_overflow", "skipped_landmark",
                                  "no_update"]), max_size=3).map(tuple)


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
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(Trajectory(steps=EDGE_STEPS), path)
        read = read_trajectory_csv(path)
        assert [s.flags for s in read.steps] == [s.flags for s in EDGE_STEPS]
        assert [s.index for s in read.steps] == [0, 1, 2, 12345]
