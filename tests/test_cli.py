import csv
import math
import re
import shlex
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from sweepnav import (
    Anchor, SweepRecord, TrackingPipeline, assign_anchor_frame, cli, parse_sweep_file, placement, run_pipeline,
)
from sweepnav.cli import main
from sweepnav.config import CONFIG_FIELDS, SCENARIO_FIELDS, load_config
from sweepnav.artifacts import read_ground_truth, read_trajectory_csv
from sweepnav.simulator import score_run, spread
from conftest import ROUTE_SCENARIO_TEXT

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def benchmark_sweeps(runner, tmp_path):
    """Sweeps of the README's scenario: the four-leg route with 4 dB shadowing."""
    scenario = tmp_path / "bench.txt"
    scenario.write_text(BENCHMARK_SCENARIO, encoding="ascii")
    result = runner.invoke(main, ["simulate", str(scenario), "--out", str(tmp_path / "bench_sim")])
    assert result.exit_code == 0, result.output
    return tmp_path / "bench_sim" / "sweeps.csv"


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


BENCHMARK_SCENARIO = """\
seed = 42
speed_mps = 10
cadence_s = 1
shadowing_sigma_db = 4
n_pl = 2.8
lead_in_m = 200
waypoints = 0,0; 270,0; 270,490; 10,490; 10,-350
tx.bbox = -150,-500,420,640
tx.freqs_mhz = 700.5,800.5,900.5,1800.5,2100.5,2600.5
tx.power_dbm = 43
"""

# anchors in a box 1e6 m by 1e-6 m: every geometry's condition estimate exceeds the cap
THIN_BOX = "anchor.bbox = 0,0,1e6,1e-6"
# a process noise under which the filter loses positive semi-definiteness mid-run
DIVERGING_Q = "ekf.q_diag = 1e16,1e16"


# four transmitters 10 km out, seen with path-loss exponent 6
FAR_SCENARIO = """\
seed = 5
speed_mps = 10
cadence_s = 1
shadowing_sigma_db = 0
n_pl = 6
waypoints = 0,0; 100,0
transmitters = 10000,0,43,700.5; 0,10000,43,800.5; -10000,0,43,900.5; 0,-10000,43,1800.5
"""


# two sweeps whose timestamps are equal in different spellings
REPEATED_TIMESTAMP_SWEEPS = "".join(
    f"2023-01-01, {clock}, {band * 1000000}, {(band + 1) * 1000000}, 1000000, 1, -60.0\n"
    for clock in ("12:00:00", "12:00:00.000000")
    for band in (700, 800, 900, 1800, 2100, 2600)
)

# a valid first row, then a row holding a byte that is not ASCII
NON_ASCII_SWEEPS = (
    b"2023-01-01, 12:00:00.000000, 700000000, 701000000, 1000000, 1, -60.0\n"
    b"2023-01-01, 12:00:00.000000, 800000000, 801000000, 1000000, 1, -6\xc3.0\n"
)


class TestSimulate:
    def test_writes_artifacts(self, runner, route_scenario_file, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", str(route_scenario_file), "--out", str(out)])
        assert result.exit_code == 0, result.output
        sweeps = (out / "sweeps.csv").read_text().splitlines()
        assert len(sweeps) == 21 * 6  # one row per band per sweep
        truth = read_rows(out / "truth.csv")
        assert truth[0] == ["k", "timestamp", "x", "y"]
        assert len(truth) == 22
        waypoints = read_rows(out / "waypoints.csv")
        assert [row[0] for row in waypoints[1:]] == ["0", "10", "20"]

    def test_missing_scenario_is_input_error(self, runner, tmp_path):
        result = runner.invoke(main, ["simulate", str(tmp_path / "nope.txt"), "--out", str(tmp_path)])
        assert result.exit_code == 2

    def test_invalid_scenario_is_config_error(self, runner, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("waypoints = 0,0; 10,0\ntransmitters = 1,1,43,700.5\n", encoding="ascii")
        result = runner.invoke(main, ["simulate", str(bad), "--out", str(tmp_path / "out")])
        assert result.exit_code == 3
        assert "config error" in result.output

    def test_power_beyond_the_db_bound_is_exit_3(self, runner, tmp_path):
        # exponent 6 at 10 km forward-models about -226 dB, which no sweep file may hold
        scenario = tmp_path / "far.txt"
        scenario.write_text(FAR_SCENARIO, encoding="ascii")
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", str(scenario), "--out", str(out)])
        assert result.exit_code == 3, (result.output, result.exception)
        assert "config error: transmitter at 700.5 MHz" in result.output
        assert "outside [-200, 200]" in result.output
        assert not out.exists()

    def test_seed_override_draws_the_layout_once(self, runner, tmp_path, monkeypatch):
        scenario = tmp_path / "bench.txt"
        scenario.write_text(BENCHMARK_SCENARIO, encoding="ascii")
        seeds = []

        def place(keys, seed, bbox):
            seeds.append(seed)
            return placement.place_in_box(keys, seed, bbox)

        monkeypatch.setattr("sweepnav.simulator.place_in_box", place)
        result = runner.invoke(main, ["simulate", str(scenario), "--seed", "7", "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        assert seeds == [7]

    def test_seed_override_changes_nothing_for_explicit_layout(self, runner, route_scenario_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        r1 = runner.invoke(main, ["simulate", str(route_scenario_file), "--out", str(a), "--seed", "5"])
        r2 = runner.invoke(main, ["simulate", str(route_scenario_file), "--out", str(b), "--seed", "5"])
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert (a / "sweeps.csv").read_bytes() == (b / "sweeps.csv").read_bytes()

    @pytest.mark.parametrize("changes, message", [
        # the drive ends 0.4 us after the grid sample at 10 s: the file would stamp both 10.000000
        ("speed_mps = 1\nlead_in_m = 0\nwaypoints = 0,0; 10.0000004,0\n", "12 sweeps fall on 11 microseconds"),
        ("speed_mps = 1e6\ncadence_s = 1e-7\n", "20601 sweeps fall on 2061 microseconds"),
        # the whole 1,860 m drive would fall on sweep 0
        ("speed_mps = 1e300\n", "leg 1 is shorter than one sweep step: both ends on sweep 0"),
    ])
    def test_sweep_file_that_cannot_match_the_truth_is_exit_3(self, runner, tmp_path, changes, message):
        replaced = {line.partition(" =")[0] for line in changes.splitlines()}
        kept = [line for line in BENCHMARK_SCENARIO.splitlines() if line.partition(" =")[0] not in replaced]
        scenario, out = tmp_path / "scenario.txt", tmp_path / "out"
        scenario.write_text("\n".join(kept) + "\n" + changes, encoding="ascii")
        result = runner.invoke(main, ["simulate", str(scenario), "--out", str(out)])
        assert result.exit_code == 3, (result.output, result.exception)
        assert message in result.output and not out.exists()

    def test_repeated_final_waypoint_simulates_and_its_segment_is_exit_4(self, runner, tmp_path):
        # the zero-length last leg gave nan positions: exit 3, "received power nan dB at nan m"
        text = ROUTE_SCENARIO_TEXT.replace("waypoints = 0,0; 100,0; 100,100", "waypoints = 0,0; 100,0; 100,0\nhold_s = 3")
        scenario, sim, run_dir = tmp_path / "scenario.txt", tmp_path / "sim", tmp_path / "run"
        scenario.write_text(text, encoding="ascii")
        result = runner.invoke(main, ["simulate", str(scenario), "--out", str(sim)])
        assert result.exit_code == 0, (result.output, result.exception)
        truth = read_rows(sim / "truth.csv")[1:]
        assert all(math.isfinite(float(cell)) for row in truth for cell in row[2:])
        assert [float(cell) for cell in truth[-1][2:]] == [100.0, 0.0]
        assert [row[0] for row in read_rows(sim / "waypoints.csv")[1:]] == ["0", "10", "10"]
        assert runner.invoke(main, ["run", str(sim / "sweeps.csv"), "--out", str(run_dir)]).exit_code == 0
        result = runner.invoke(main, [
            "eval", str(sim / "truth.csv"), str(run_dir / "trajectory.csv"),
            "--waypoints", str(sim / "waypoints.csv"), "--out", str(tmp_path / "eval"),
        ])
        assert result.exit_code == 4 and "truth lengths must be positive" in result.output

    @pytest.mark.parametrize("lead_in, sweeps", [("0", "inf"), ("200", "nan")])
    def test_overflowing_leg_is_exit_3_without_a_warning(self, runner, tmp_path, lead_in, sweeps):
        # numpy printed "RuntimeWarning: overflow encountered in subtract" on stderr before the error
        kept = [line for line in BENCHMARK_SCENARIO.splitlines() if not line.startswith(("waypoints", "lead_in_m"))]
        scenario, out = tmp_path / "scenario.txt", tmp_path / "out"
        scenario.write_text("\n".join(kept) + f"\nlead_in_m = {lead_in}\nwaypoints = -1e308,0; 1e308,0\n", encoding="ascii")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, ["simulate", str(scenario), "--out", str(out)])
        assert result.exit_code == 3, (result.output, result.exception)
        assert f"config error: scenario asks for {sweeps} sweeps" in result.output and not out.exists()
        assert "RuntimeWarning" not in result.stderr and caught == []

    def test_benchmark_route_length_in_truth_csv(self, benchmark_sweeps):
        out = benchmark_sweeps.parent
        truth = read_rows(out / "truth.csv")[1:]
        waypoint_ks = [int(row[0]) for row in read_rows(out / "waypoints.csv")[1:]]
        points = [(float(truth[k][2]), float(truth[k][3])) for k in waypoint_ks]
        total = sum(
            math.hypot(b[0] - a[0], b[1] - a[1]) for a, b in zip(points, points[1:])
        )
        assert total == pytest.approx(1860.0, abs=1e-3)


# each of these made `run` or `simulate` exit 1 with a traceback, or exit 0
# with all-NaN EKF columns, an uncapped condition number or no lead-in; the
# last five config keys are gone (the EKF always runs, shadowing is a scenario
# key, P0 and the condition cap are constants), so is `start_time` (sweeps start
# at the epoch), and the speed_mps, cadence_s and hold_s lines after lead_in_m
# ask for an infinite drive, ~2e11 sweeps and ~1e300 sweeps. A negative window and a band count
# outside 4..3500 are out of range, and explicit transmitters beside the
# scenario's tx.* recipe are two layouts, of which the recipe was dropped
BAD_CONFIG_LINES = [
    "ekf.r = 0", "ekf.q_diag = -1,0.1", "band.high_mhz = nan", "band.high_mhz = inf",
    "band.width_mhz = nan", "ekf.r = nan", "tx_power_dbm = nan", "ekf.p0 = nan",
    "lsq.condition_cap = nan", "lsq.condition_cap = inf", "ekf.enabled = true", "shadowing_sigma_db = 4",
    "anchor.bbox = -1e308,-1e308,1e308,1e308", "sweep.window = -3", "band.count = 3", "band.count = 3501",
]
BAD_SCENARIO_LINES = [
    "speed_mps = nan", "cadence_s = nan", "hold_s = nan", "start_time = nan", "start_time = 1e12",
    "tx.power_dbm = nan", "lead_in_m = nan",
    "speed_mps = 1e-320", "cadence_s = 1e-9", "hold_s = 1e300", "tx.bbox = -1e308,-1e308,1e308,1e308",
    "transmitters = 300,0,43,700.5; 0,300,43,800.5; -300,0,43,900.5; 0,-300,43,1800.5",
]
# keys removed with their fields, each set to its old default
REMOVED_KEYS = [
    ("run", "ekf.p0 = 10.0"),
    ("run", "lsq.condition_cap = 1e8"),
    ("run", "smoother.kind = wma"),
    ("run", "d0_m = 1.0"),
    ("simulate", "d0_m = 1.0"),
    ("simulate", "start_time = 0"),
]


@pytest.mark.parametrize(
    "command, line",
    [("run", line) for line in BAD_CONFIG_LINES] + [("simulate", line) for line in BAD_SCENARIO_LINES],
)
def test_bad_setting_is_exit_3(runner, tmp_path, command, line):
    result, out = invoke_with_setting(runner, tmp_path, command, line)
    assert result.exit_code == 3, (result.output, result.exception)
    assert "config error" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command, line", REMOVED_KEYS)
def test_removed_key_is_exit_3(runner, tmp_path, command, line):
    result, out = invoke_with_setting(runner, tmp_path, command, line)
    assert result.exit_code == 3, (result.output, result.exception)
    kind = "config" if command == "run" else "scenario"
    assert f"config error: unknown {kind} keys: {line.split(' ')[0]}" in result.output
    assert not out.exists()


def invoke_with_setting(runner, tmp_path, command, line):
    """``run`` with ``line`` as its config, or ``simulate`` of the README scenario with ``line``
    in place of its key; the result and the --out path."""
    settings = tmp_path / "settings.txt"
    if command == "run":
        settings.write_text(line + "\n", encoding="ascii")
        sweeps = tmp_path / "sweeps.csv"
        sweeps.write_text("", encoding="ascii")
        args = ["run", str(sweeps), "--config", str(settings)]
    else:
        key = line.split(" ")[0]
        kept = [row for row in BENCHMARK_SCENARIO.splitlines() if row.split(" ")[0] != key]
        settings.write_text("\n".join(kept + [line]) + "\n", encoding="ascii")
        args = ["simulate", str(settings)]
    out = tmp_path / "out"
    return runner.invoke(main, args + ["--out", str(out)]), out


@pytest.mark.parametrize("command", ["run", "simulate", "convergence"])
def test_settings_byte_not_utf8_is_exit_3(runner, tmp_path, command):
    # one byte that is not UTF-8, even in a comment, used to end in a UnicodeDecodeError traceback
    settings_file = tmp_path / "settings.txt"
    if command == "simulate":
        settings_file.write_bytes(b"# caf\xe9\n" + BENCHMARK_SCENARIO.encode("ascii"))
        args = ["simulate", str(settings_file)]
    else:
        settings_file.write_bytes(b"# caf\xe9\nn_pl = 2.8\n")
        sweeps = tmp_path / "sweeps.csv"
        sweeps.write_text("", encoding="ascii")
        args = [command, str(sweeps), "--config", str(settings_file)]
    result = runner.invoke(main, args + ["--out", str(tmp_path / "out")])
    assert result.exit_code == 3, (result.output, result.exception)
    assert isinstance(result.exception, SystemExit)
    assert f"config error: {settings_file}:1: not UTF-8 text" in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["config anchor.seed", "run --seed", "simulate --seed", "scenario seed"])
def test_negative_seed_is_exit_3(runner, tmp_path, case):
    # numpy's default_rng rejects a negative seed; it used to surface as a traceback or as exit 2
    sweeps = tmp_path / "sweeps.csv"
    sweeps.write_text("", encoding="ascii")
    settings_file = tmp_path / "settings.txt"
    explicit = [row for row in ROUTE_SCENARIO_TEXT.splitlines() if not row.startswith("seed")]
    if case == "config anchor.seed":
        settings_file.write_text("anchor.seed = -1\n", encoding="ascii")
        args = ["run", str(sweeps), "--config", str(settings_file)]
    elif case == "run --seed":
        args = ["run", str(sweeps), "--seed", "-1"]
    elif case == "simulate --seed":
        settings_file.write_text(BENCHMARK_SCENARIO, encoding="ascii")
        args = ["simulate", str(settings_file), "--seed", "-3"]
    else:
        settings_file.write_text("\n".join(["seed = -1"] + explicit) + "\n", encoding="ascii")
        args = ["simulate", str(settings_file)]
    result = runner.invoke(main, args + ["--out", str(tmp_path / "out")])
    assert result.exit_code == 3, (result.output, result.exception)
    assert isinstance(result.exception, SystemExit)
    assert "config error" in result.output and "is negative" in result.output
    assert not (tmp_path / "out").exists()


def test_long_smoother_window_runs(runner, route_scenario_file, tmp_path):
    # a window of 100,000 used to ask for ~160 GB of weight tables before the first fix
    assert runner.invoke(main, ["simulate", str(route_scenario_file), "--out", str(tmp_path / "sim")]).exit_code == 0
    config = tmp_path / "long.cfg"
    config.write_text("smoother.window = 100000\n", encoding="ascii")
    out = tmp_path / "run"
    result = runner.invoke(main, ["run", str(tmp_path / "sim" / "sweeps.csv"), "--config", str(config), "--out", str(out)])
    assert result.exit_code == 0, (result.output, result.exception)
    assert "fixes: 21" in (out / "summary.txt").read_text()


class TestRun:
    @pytest.fixture
    def sweeps_csv(self, runner, route_scenario_file, tmp_path):
        out = tmp_path / "sim"
        result = runner.invoke(main, ["simulate", str(route_scenario_file), "--out", str(out)])
        assert result.exit_code == 0
        return out / "sweeps.csv"

    def test_produces_trajectory_and_summary(self, runner, sweeps_csv, tmp_path):
        out = tmp_path / "run"
        result = runner.invoke(main, ["run", str(sweeps_csv), "--out", str(out)])
        assert result.exit_code == 0, result.output
        rows = read_rows(out / "trajectory.csv")
        assert rows[0] == ["k", "timestamp", "x_raw", "y_raw", "x_wma", "y_wma", "x_ekf", "y_ekf", "residual", "flags"]
        assert len(rows) == 22
        assert "fixes: 21" in (out / "summary.txt").read_text()

    def test_byte_identical_reruns(self, runner, sweeps_csv, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        r1 = runner.invoke(main, ["run", str(sweeps_csv), "--out", str(a), "--seed", "7"])
        r2 = runner.invoke(main, ["run", str(sweeps_csv), "--out", str(b), "--seed", "7"])
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()

    def test_missing_input_is_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, ["run", str(tmp_path / "absent.csv"), "--out", str(tmp_path)])
        assert result.exit_code == 2

    def test_records_stream_into_the_pipeline(self, runner, sweeps_csv, tmp_path, monkeypatch):
        yielded, seen = [], []
        parse, process = cli.parse_sweep_file, TrackingPipeline.process

        def counted_parse(path, plan):
            for record in parse(path, plan):
                yielded.append(record)
                yield record

        def watched_process(self, record):
            seen.append(len(yielded))
            return process(self, record)

        monkeypatch.setattr(cli, "parse_sweep_file", counted_parse)
        monkeypatch.setattr(TrackingPipeline, "process", watched_process)
        result = runner.invoke(main, ["run", str(sweeps_csv), "--out", str(tmp_path / "o")])
        assert result.exit_code == 0, result.output
        # each sweep is processed as soon as it is parsed, the first after one record
        assert seen == list(range(1, 22))

    def test_malformed_last_row_is_exit_2_with_no_output(self, runner, sweeps_csv, tmp_path):
        lines = sweeps_csv.read_text(encoding="ascii").splitlines()
        lines[-1] = lines[-1].rsplit(", ", 1)[0] + ", abc"
        bad = tmp_path / "late.csv"
        bad.write_text("\n".join(lines) + "\n", encoding="ascii")
        out = tmp_path / "o"
        result = runner.invoke(main, ["run", str(bad), "--out", str(out)])
        assert result.exit_code == 2, (result.output, result.exception)
        assert f"line {len(lines)}" in result.output
        assert not (out / "trajectory.csv").exists() and not (out / "summary.txt").exists()

    def test_bad_config_is_exit_3(self, runner, sweeps_csv, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("mystery.key = 1\n", encoding="ascii")
        result = runner.invoke(
            main, ["run", str(sweeps_csv), "--config", str(config), "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 3
        assert "config error" in result.output

    @pytest.mark.parametrize("text", ["", "# a capture header\n\n   \n# and no rows\n"], ids=["zero_bytes", "comments"])
    def test_file_without_sweeps_is_exit_2_with_no_output(self, runner, tmp_path, text):
        # as convergence: a sweep file with no sweep row is malformed input
        empty = tmp_path / "empty.csv"
        empty.write_text(text, encoding="ascii")
        out = tmp_path / "o"
        result = runner.invoke(main, ["run", str(empty), "--out", str(out)])
        assert result.exit_code == 2, (result.output, result.exception)
        assert f"input error: {empty}: no sweeps" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("band.count = 7", "no fix in 21 sweeps: fewer than 7 bands (band.count) were present in every sweep of a window"),
        (THIN_BOX, "anchor frame of bands 700 800 900 1800 2100 2600 is degenerate: condition estimate "),
    ])
    def test_run_without_a_fix_is_exit_3_with_no_output(self, runner, sweeps_csv, tmp_path, line, message):
        # seven bands never persist among six transmitters; anchors in a thin box make the frame
        # degenerate, which ends the run when the frame is built. Both used to exit 0 with a
        # header-only trajectory.
        config = tmp_path / "nofix.cfg"
        config.write_text(line + "\n", encoding="ascii")
        out = tmp_path / "run"
        result = runner.invoke(main, ["run", str(sweeps_csv), "--config", str(config), "--out", str(out)])
        assert result.exit_code == 3, (result.output, result.exception)
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith(f"run failed: {message}")
        assert not out.exists()

    def test_malformed_sweeps_is_exit_2(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("2023-01-01, 12:00:00.000000, 0, 1000000, 1000000, 1, abc\n", encoding="ascii")
        result = runner.invoke(main, ["run", str(bad), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert "line 1" in result.output


    def test_repeated_timestamp_is_exit_2(self, runner, tmp_path):
        bad = tmp_path / "repeated.csv"
        bad.write_text(REPEATED_TIMESTAMP_SWEEPS, encoding="ascii")
        result = runner.invoke(main, ["run", str(bad), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert "line 7" in result.output

    def test_non_ascii_byte_is_exit_2(self, runner, tmp_path):
        bad = tmp_path / "non_ascii.csv"
        bad.write_bytes(NON_ASCII_SWEEPS)
        result = runner.invoke(main, ["run", str(bad), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert "line 2" in result.output

    @pytest.mark.parametrize("cell", ["nan", "inf", "-1e300", "-5000"])
    def test_out_of_range_db_cell_is_exit_2(self, runner, sweeps_csv, tmp_path, cell):
        lines = sweeps_csv.read_text(encoding="ascii").splitlines()
        fields = lines[12 * 6].split(", ")
        lines[12 * 6] = ", ".join(fields[:-1] + [cell])
        hostile = tmp_path / "hostile.csv"
        hostile.write_text("\n".join(lines) + "\n", encoding="ascii")
        result = runner.invoke(main, ["run", str(hostile), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2, (result.output, result.exception)
        assert "line 73" in result.output and "outside [-200, 200]" in result.output
        assert not (tmp_path / "o" / "trajectory.csv").exists()

    @pytest.mark.parametrize("hz", ["nan, nan, nan", "-inf, inf, 1000000", "0, 1e400, 1000000", "0, 1000000, inf"])
    def test_non_finite_slice_is_exit_2(self, runner, sweeps_csv, tmp_path, hz):
        # such a row once passed the slice check and was dropped without a word
        lines = sweeps_csv.read_text(encoding="ascii").splitlines()
        fields = lines[12 * 6].split(", ")
        lines[12 * 6] = ", ".join(fields[:2] + [hz] + fields[5:])
        hostile = tmp_path / "hostile.csv"
        hostile.write_text("\n".join(lines) + "\n", encoding="ascii")
        result = runner.invoke(main, ["run", str(hostile), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2, (result.output, result.exception)
        assert "line 73: invalid frequency slice bounds" in result.output
        assert not (tmp_path / "o").exists()

    def test_oversized_plan_is_exit_3(self, runner, sweeps_csv, tmp_path):
        config = tmp_path / "fine.cfg"
        config.write_text("band.width_mhz = 1e-6\n", encoding="ascii")
        result = runner.invoke(
            main, ["run", str(sweeps_csv), "--config", str(config), "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 3, result.output
        assert "more than 1000000 bands" in result.output

    def test_transmit_power_beyond_the_db_bound_is_exit_3(self, runner, benchmark_sweeps, tmp_path):
        # every range of every sweep overflowed a float: exit 0 with a header-only trajectory before
        config = tmp_path / "loud.cfg"
        config.write_text("tx_power_dbm = 1e5\n", encoding="ascii")
        out = tmp_path / "o"
        result = runner.invoke(main, ["run", str(benchmark_sweeps), "--config", str(config), "--out", str(out)])
        assert result.exit_code == 3, (result.output, result.exception)
        assert "config error" in result.output and "outside [-200, 200]" in result.output
        assert not out.exists()

    def test_band_centre_below_the_floor_is_exit_3(self, runner, benchmark_sweeps, tmp_path):
        # bands centred near 1e-300 MHz overflowed every range: exit 0 with "fixes: 0" before
        config = tmp_path / "tiny_band.cfg"
        config.write_text(
            "band.low_mhz = 0\nband.high_mhz = 4e-300\nband.width_mhz = 1e-300\nband.count = 4\n", encoding="ascii"
        )
        out = tmp_path / "o"
        result = runner.invoke(main, ["run", str(benchmark_sweeps), "--config", str(config), "--out", str(out)])
        assert result.exit_code == 3, (result.output, result.exception)
        assert "config error" in result.output and "above 0 MHz" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("line", [DIVERGING_Q])
    def test_diverged_filter_is_a_failed_run(self, runner, benchmark_sweeps, tmp_path, line):
        # a valid config whose filter loses positive semi-definiteness mid-run: it exited 2 as bad input
        config = tmp_path / "diverge.cfg"
        config.write_text(line + "\n", encoding="ascii")
        out = tmp_path / "o"
        result = runner.invoke(main, ["run", str(benchmark_sweeps), "--config", str(config), "--out", str(out)])
        assert result.exit_code == 3, (result.output, result.exception)
        assert "run failed: filter diverged" in result.stderr
        assert not out.exists()

    def test_plan_below_zero_mhz_is_exit_3(self, runner, sweeps_csv, tmp_path):
        config = tmp_path / "negative.cfg"
        config.write_text("band.low_mhz = -100\n", encoding="ascii")
        result = runner.invoke(
            main, ["run", str(sweeps_csv), "--config", str(config), "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 3, result.output
        assert "above 0 MHz" in result.output


class TestEval:
    @pytest.fixture
    def artifacts(self, runner, route_scenario_file, tmp_path):
        sim = tmp_path / "sim"
        assert runner.invoke(main, ["simulate", str(route_scenario_file), "--out", str(sim)]).exit_code == 0
        run_dir = tmp_path / "run"
        assert runner.invoke(main, ["run", str(sim / "sweeps.csv"), "--out", str(run_dir)]).exit_code == 0
        return sim, run_dir

    def test_report_and_table(self, runner, artifacts, tmp_path):
        sim, run_dir = artifacts
        out = tmp_path / "eval"
        result = runner.invoke(
            main,
            [
                "eval", str(sim / "truth.csv"), str(run_dir / "trajectory.csv"),
                "--waypoints", str(sim / "waypoints.csv"), "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        assert "wma" in result.output and "/" in result.output
        rows = read_rows(out / "report.csv")
        assert rows[0] == ["estimator", "segment", "est_m", "truth_m", "percent_diff"]
        assert len(rows) == 1 + 3 * 2  # three estimators, two segments

    def test_table_prints_each_estimators_rmse(self, runner, artifacts, tmp_path):
        sim, run_dir = artifacts
        result = runner.invoke(
            main,
            [
                "eval", str(sim / "truth.csv"), str(run_dir / "trajectory.csv"),
                "--waypoints", str(sim / "waypoints.csv"), "--out", str(tmp_path / "eval"),
            ],
        )
        assert result.exit_code == 0, result.output
        rmse = score_run(
            read_ground_truth(sim / "truth.csv", sim / "waypoints.csv"), read_trajectory_csv(run_dir / "trajectory.csv")
        ).rmse_m
        lines = result.stdout.splitlines()
        assert lines[0].split()[-1] == "rmse_m"
        for estimator in ("wma", "ekf", "raw"):
            (row,) = [line.split() for line in lines if line.split()[0] == estimator]
            assert row[-1] == f"{rmse[estimator]:.1f}"

    def test_positions_near_the_float_limit_score_inf_without_a_warning(self, runner, artifacts, tmp_path):
        # numpy printed overflow and invalid-value warnings on stderr before the table
        sim, run_dir = artifacts
        rows = read_rows(run_dir / "trajectory.csv")
        for row in rows[1:3]:
            row[2] = "1.7e308"  # x_raw
        huge = tmp_path / "huge.csv"
        huge.write_text("".join(",".join(row) + "\n" for row in rows), encoding="ascii")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(
                main,
                [
                    "eval", str(sim / "truth.csv"), str(huge),
                    "--waypoints", str(sim / "waypoints.csv"), "--out", str(tmp_path / "eval"),
                ],
            )
        assert result.exit_code == 0, (result.output, result.exception)
        assert result.stderr == "" and caught == []
        (raw,) = [line.split() for line in result.stdout.splitlines() if line.startswith("raw")]
        assert raw[-1] == "inf"

    def test_grid_report(self, runner, artifacts, tmp_path):
        sim, run_dir = artifacts
        out = tmp_path / "grid"
        result = runner.invoke(
            main,
            [
                "eval", str(sim / "truth.csv"), str(run_dir / "trajectory.csv"),
                "--waypoints", str(sim / "waypoints.csv"), "--out", str(out),
                "--sweeps", str(sim / "sweeps.csv"),
                "--npl-list", "2.8,2.9", "--txcount-list", "4,6", "--window-list", "3",
            ],
        )
        assert result.exit_code == 0, result.output
        rows = read_rows(out / "grid_report.csv")
        assert rows[0] == ["n_pl", "window", "tx_count", "estimator", "segment", "est_m", "percent_diff", "note"]
        assert len(rows) == 1 + 2 * 2 * 1 * 2 * 2
        assert all(row[7] == "" and math.isfinite(float(row[5])) for row in rows[1:])
        assert result.output.endswith("grid: wrote 16 rows\n")

    def test_grid_cell_without_fix_is_a_noted_nan_row(self, runner, artifacts, tmp_path):
        # the scenario has six transmitters: a cell asking for nine never fixes
        sim, run_dir = artifacts
        out = tmp_path / "grid"
        result = runner.invoke(
            main,
            [
                "eval", str(sim / "truth.csv"), str(run_dir / "trajectory.csv"),
                "--waypoints", str(sim / "waypoints.csv"), "--out", str(out),
                "--sweeps", str(sim / "sweeps.csv"), "--txcount-list", "9,6",
            ],
        )
        assert result.exit_code == 0, (result.output, result.exception)
        assert result.output.endswith("grid: wrote 8 rows, 1 cells with no fix\n")
        rows = read_rows(out / "grid_report.csv")[1:]
        unscored = [row for row in rows if row[2] == "9"]
        assert [row[3:5] for row in unscored] == [["wma", "1"], ["wma", "2"], ["ekf", "1"], ["ekf", "2"]]
        assert all(row[5:] == ["nan", "nan", "no fix: 9 bands asked; 6 in every sweep"] for row in unscored)
        assert all(row[7] == "" and math.isfinite(float(row[6])) for row in rows if row[2] == "6")

    def test_grid_cell_with_a_degenerate_frame_is_noted(self, runner, artifacts, tmp_path):
        # bands are selected, but anchors in a thin box make the frame degenerate, so no sweep fixes
        sim, run_dir = artifacts
        out, config = tmp_path / "grid", tmp_path / "thin.cfg"
        config.write_text(THIN_BOX + "\n", encoding="ascii")
        result = runner.invoke(
            main,
            [
                "eval", str(sim / "truth.csv"), str(run_dir / "trajectory.csv"),
                "--waypoints", str(sim / "waypoints.csv"), "--out", str(out),
                "--sweeps", str(sim / "sweeps.csv"), "--config", str(config), "--npl-list", "2.8",
            ],
        )
        assert result.exit_code == 0, (result.output, result.exception)
        rows = read_rows(out / "grid_report.csv")[1:]
        assert len(rows) == 4 and all(row[5:7] == ["nan", "nan"] for row in rows)
        assert all(re.fullmatch("no fix: anchor frame of bands [0-9 ]+ is degenerate: condition estimate .+", row[7])
                   for row in rows), rows
        assert result.output.endswith("grid: wrote 4 rows, 1 cells with no fix\n")

    @pytest.mark.parametrize("grid", [[], ["--npl-list", "2.8"]])
    def test_one_waypoint_is_exit_4(self, runner, artifacts, tmp_path, grid):
        # one waypoint bounds no segment: a shape error before the reports or the grid are written
        sim, run_dir = artifacts
        waypoints, out = tmp_path / "one.csv", tmp_path / "eval"
        waypoints.write_text("k,x,y\n0,0.000000,0.000000\n", encoding="ascii")
        result = runner.invoke(main, [
            "eval", str(sim / "truth.csv"), str(run_dir / "trajectory.csv"), "--waypoints", str(waypoints),
            "--out", str(out), "--sweeps", str(sim / "sweeps.csv"), *grid,
        ])
        assert result.exit_code == 4, (result.output, result.exception)
        assert "shape error: need at least two waypoints" in result.output and not out.exists()

    @pytest.mark.parametrize("grid", [[], ["--npl-list", "2.8"]])
    def test_truth_of_another_time_is_exit_4(self, runner, artifacts, tmp_path, grid):
        # every truth time 5,000 s later: the trajectory is of another capture
        sim, run_dir = artifacts
        truth, out = tmp_path / "truth.csv", tmp_path / "eval"
        header, *rows = (sim / "truth.csv").read_text(encoding="ascii").splitlines()
        shifted = [f"{k},{float(t) + 5000:.6f},{x},{y}" for k, t, x, y in (row.split(",") for row in rows)]
        truth.write_text("\n".join([header, *shifted]) + "\n", encoding="ascii")
        result = runner.invoke(main, [
            "eval", str(truth), str(run_dir / "trajectory.csv"), "--waypoints", str(sim / "waypoints.csv"),
            "--out", str(out), "--sweeps", str(sim / "sweeps.csv"), *grid,
        ])
        assert result.exit_code == 4, (result.output, result.exception)
        assert "shape error: trajectory row 0 is at 0.000000 s, truth at 5000.000000 s" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("grid", [[], ["--npl-list", "2.8"]])
    def test_waypoints_off_the_truth_are_exit_4(self, runner, artifacts, tmp_path, grid):
        # every waypoint position nan: the file names no truth sample
        sim, run_dir = artifacts
        waypoints, out = tmp_path / "waypoints.csv", tmp_path / "eval"
        header, *rows = (sim / "waypoints.csv").read_text(encoding="ascii").splitlines()
        waypoints.write_text("\n".join([header, *(row.split(",")[0] + ",nan,nan" for row in rows)]) + "\n",
                             encoding="ascii")
        result = runner.invoke(main, [
            "eval", str(sim / "truth.csv"), str(run_dir / "trajectory.csv"), "--waypoints", str(waypoints),
            "--out", str(out), "--sweeps", str(sim / "sweeps.csv"), *grid,
        ])
        assert result.exit_code == 4, (result.output, result.exception)
        assert f"shape error: {waypoints}: waypoint 0 is at (nan, nan), truth sample 0 at (0.000000, 0.000000)" \
            in result.output
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_truth_is_exit_2(self, runner, artifacts, tmp_path, cell):
        sim, run_dir = artifacts
        rows = (sim / "truth.csv").read_text(encoding="ascii").splitlines()
        rows[4] = ",".join(rows[4].split(",")[:3] + [cell])
        truth, out = tmp_path / "truth.csv", tmp_path / "eval"
        truth.write_text("\n".join(rows) + "\n", encoding="ascii")
        result = runner.invoke(main, [
            "eval", str(truth), str(run_dir / "trajectory.csv"), "--waypoints", str(sim / "waypoints.csv"),
            "--out", str(out),
        ])
        assert result.exit_code == 2, (result.output, result.exception)
        assert f"input error: {truth}: line 5: '{cell}' is not a finite number" in result.output
        assert not out.exists()

    def test_grid_over_empty_sweeps_is_exit_2(self, runner, artifacts, tmp_path):
        sim, run_dir = artifacts
        empty, out = tmp_path / "empty.csv", tmp_path / "g"
        empty.write_text("# no rows\n", encoding="ascii")
        result = runner.invoke(
            main,
            [
                "eval", str(sim / "truth.csv"), str(run_dir / "trajectory.csv"),
                "--waypoints", str(sim / "waypoints.csv"), "--out", str(out),
                "--sweeps", str(empty), "--txcount-list", "6",
            ],
        )
        assert result.exit_code == 2, result.output
        assert "no sweeps" in result.output and not out.exists()

    def test_readme_grid_example_exits_0(self, runner, tmp_path, monkeypatch):
        """The README's scenario, config and grid command, run as written in
        its own directory layout: the cells asking for more transmitters than
        the scenario has carry a note."""
        text = README.read_text(encoding="utf-8")
        blocks = {heading: text.split(heading, 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
                  for heading in ("Scenario file (`key = value`, `#` comments):", "Pipeline config keys")}
        command = next(block for block in text.split("```bash\n")[1:] if "--npl-list" in block.split("```")[0])
        args = shlex.split(command.split("```", 1)[0].replace("\\\n", " "))
        assert args[:2] == ["sweepnav", "eval"]
        monkeypatch.chdir(tmp_path)
        Path("scenario.txt").write_text(blocks["Scenario file (`key = value`, `#` comments):"], encoding="ascii")
        Path("pipeline.cfg").write_text(blocks["Pipeline config keys"], encoding="ascii")
        assert runner.invoke(main, ["simulate", "scenario.txt", "--out", "sim"]).exit_code == 0
        assert runner.invoke(main, ["run", "sim/sweeps.csv", "--config", "pipeline.cfg", "--out", "run"]).exit_code == 0
        result = runner.invoke(main, args[1:])
        assert result.exit_code == 0, (result.output, result.exception)
        rows = read_rows(Path("eval/grid_report.csv"))[1:]
        assert {row[2] for row in rows} == {"6", "9", "13"}
        assert all((row[7] == "") == (row[2] == "6") for row in rows)
        assert all(row[7] == f"no fix: {row[2]} bands asked; 6 in every sweep" for row in rows if row[2] != "6")

    def test_grid_without_sweeps_is_config_error(self, runner, artifacts, tmp_path):
        sim, run_dir = artifacts
        result = runner.invoke(
            main,
            [
                "eval", str(sim / "truth.csv"), str(run_dir / "trajectory.csv"),
                "--waypoints", str(sim / "waypoints.csv"), "--out", str(tmp_path / "g"),
                "--npl-list", "2.8",
            ],
        )
        assert result.exit_code == 3

    @pytest.mark.parametrize(
        "grid",
        [["--npl-list", "2.8"], ["--sweeps", "SWEEPS", "--window-list", "0"]],
        ids=["no_sweeps", "window_0"],
    )
    def test_bad_grid_argument_writes_nothing(self, runner, artifacts, tmp_path, grid):
        sim, run_dir = artifacts
        out = tmp_path / "g"
        result = runner.invoke(
            main,
            [
                "eval", str(sim / "truth.csv"), str(run_dir / "trajectory.csv"),
                "--waypoints", str(sim / "waypoints.csv"), "--out", str(out),
                *(str(sim / "sweeps.csv") if arg == "SWEEPS" else arg for arg in grid),
            ],
        )
        assert result.exit_code == 3, (result.output, result.exception)
        assert "config error" in result.output
        assert not out.exists()

    def test_grid_repeated_timestamp_is_exit_2(self, runner, artifacts, tmp_path):
        sim, run_dir = artifacts
        bad = tmp_path / "repeated.csv"
        bad.write_text(REPEATED_TIMESTAMP_SWEEPS, encoding="ascii")
        result = runner.invoke(
            main,
            [
                "eval", str(sim / "truth.csv"), str(run_dir / "trajectory.csv"),
                "--waypoints", str(sim / "waypoints.csv"), "--out", str(tmp_path / "g"),
                "--sweeps", str(bad), "--npl-list", "2.8,2.9",
            ],
        )
        assert result.exit_code == 2
        assert "line 7" in result.output

    def test_misaligned_lengths_exit_4(self, runner, artifacts, tmp_path):
        sim, run_dir = artifacts
        truncated = tmp_path / "short.csv"
        lines = (run_dir / "trajectory.csv").read_text().splitlines()
        truncated.write_text("\n".join(lines[:-1]) + "\n", encoding="ascii")
        result = runner.invoke(
            main,
            [
                "eval", str(sim / "truth.csv"), str(truncated),
                "--waypoints", str(sim / "waypoints.csv"), "--out", str(tmp_path / "e"),
            ],
        )
        assert result.exit_code == 4

    def test_bad_waypoint_index_exit_4(self, runner, artifacts, tmp_path):
        sim, run_dir = artifacts
        bad = tmp_path / "wp.csv"
        bad.write_text("k,x,y\n0,0.0,0.0\n999,1.0,1.0\n", encoding="ascii")
        result = runner.invoke(
            main,
            [
                "eval", str(sim / "truth.csv"), str(run_dir / "trajectory.csv"),
                "--waypoints", str(bad), "--out", str(tmp_path / "e"),
            ],
        )
        assert result.exit_code == 4

    @pytest.mark.parametrize("indices", [(-1, 10), (10, 10)], ids=["negative", "repeated"])
    def test_waypoint_indices_must_increase_from_zero_exit_4(self, runner, artifacts, tmp_path, indices):
        sim, run_dir = artifacts
        bad = tmp_path / "wp.csv"
        bad.write_text("k,x,y\n" + "".join(f"{k},0.0,0.0\n" for k in indices), encoding="ascii")
        result = runner.invoke(
            main,
            [
                "eval", str(sim / "truth.csv"), str(run_dir / "trajectory.csv"),
                "--waypoints", str(bad), "--out", str(tmp_path / "e"),
            ],
        )
        assert result.exit_code == 4
        assert "shape error" in result.output

    def test_zero_length_truth_segment_exit_4(self, runner, artifacts, tmp_path):
        # truth samples 3 and 4 at one position; the waypoint rows carry that position
        sim, run_dir = artifacts
        truth = tmp_path / "truth.csv"
        lines = (sim / "truth.csv").read_text().splitlines()
        k, t, _, _ = lines[5].split(",")
        lines[5] = ",".join([k, t] + lines[4].split(",")[2:])
        truth.write_text("\n".join(lines) + "\n", encoding="ascii")
        bad = tmp_path / "wp.csv"
        position = ",".join(lines[4].split(",")[2:])
        bad.write_text(f"k,x,y\n3,{position}\n4,{position}\n", encoding="ascii")
        result = runner.invoke(
            main,
            [
                "eval", str(truth), str(run_dir / "trajectory.csv"),
                "--waypoints", str(bad), "--out", str(tmp_path / "e"),
            ],
        )
        assert result.exit_code == 4
        assert "truth lengths must be positive" in result.output

    def test_short_truth_row_exit_2(self, runner, artifacts, tmp_path):
        sim, run_dir = artifacts
        bad = tmp_path / "truth.csv"
        lines = (sim / "truth.csv").read_text().splitlines()
        lines[6] = "5,1.0"
        bad.write_text("\n".join(lines) + "\n", encoding="ascii")
        result = runner.invoke(
            main,
            [
                "eval", str(bad), str(run_dir / "trajectory.csv"),
                "--waypoints", str(sim / "waypoints.csv"), "--out", str(tmp_path / "e"),
            ],
        )
        assert result.exit_code == 2
        assert "malformed truth row" in result.output

    def test_bad_number_names_file_and_line_exit_2(self, runner, artifacts, tmp_path):
        sim, run_dir = artifacts
        bad = tmp_path / "trajectory.csv"
        lines = (run_dir / "trajectory.csv").read_text().splitlines()
        lines[3] = lines[3].replace(",", ",x", 1)
        bad.write_text("\n".join(lines) + "\n", encoding="ascii")
        result = runner.invoke(
            main,
            [
                "eval", str(sim / "truth.csv"), str(bad),
                "--waypoints", str(sim / "waypoints.csv"), "--out", str(tmp_path / "e"),
            ],
        )
        assert result.exit_code == 2, (result.output, result.exception)
        assert f"input error: {bad}: line 4: could not convert" in result.output

    def test_short_waypoints_row_exit_2(self, runner, artifacts, tmp_path):
        sim, run_dir = artifacts
        bad = tmp_path / "wp.csv"
        bad.write_text("k,x,y\n0,0.0,0.0\n10\n", encoding="ascii")
        result = runner.invoke(
            main,
            [
                "eval", str(sim / "truth.csv"), str(run_dir / "trajectory.csv"),
                "--waypoints", str(bad), "--out", str(tmp_path / "e"),
            ],
        )
        assert result.exit_code == 2
        assert "malformed waypoints row" in result.output

    def test_garbled_truth_exit_2(self, runner, artifacts, tmp_path):
        sim, run_dir = artifacts
        bad = tmp_path / "truth.csv"
        bad.write_text("not,a,truth,file\n", encoding="ascii")
        result = runner.invoke(
            main,
            [
                "eval", str(bad), str(run_dir / "trajectory.csv"),
                "--waypoints", str(sim / "waypoints.csv"), "--out", str(tmp_path / "e"),
            ],
        )
        assert result.exit_code == 2

    def test_perfect_trajectory_scores_all_zero(self, runner, artifacts, tmp_path):
        from sweepnav.artifacts import read_ground_truth, write_trajectory_csv
        from sweepnav.pipeline import Trajectory, TrajectoryStep

        sim, _ = artifacts
        truth = read_ground_truth(sim / "truth.csv", sim / "waypoints.csv")
        steps = tuple(
            TrajectoryStep(
                index=i, timestamp=t,
                x_raw=x, y_raw=y,
                x_wma=x, y_wma=y,
                x_ekf=x, y_ekf=y,
                residual_norm=0.0,
            )
            for i, (t, x, y) in enumerate(truth.samples)
        )
        perfect = tmp_path / "perfect.csv"
        write_trajectory_csv(Trajectory(steps=steps), perfect)

        out = tmp_path / "eval"
        result = runner.invoke(
            main,
            [
                "eval", str(sim / "truth.csv"), str(perfect),
                "--waypoints", str(sim / "waypoints.csv"), "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        rows = read_rows(out / "report.csv")[1:]
        assert all(float(row[4]) == 0.0 for row in rows)


class TestConvergence:
    def test_spectrum_rows_equal_runs_on_the_lowest_bands(self, runner, benchmark_sweeps, tmp_path):
        out = tmp_path / "conv"
        result = runner.invoke(main, ["convergence", str(benchmark_sweeps), "--out", str(out)])
        assert result.exit_code == 0, result.output
        config = load_config()
        records = list(parse_sweep_file(benchmark_sweeps, config.plan))
        bands = sorted(records[0].rss_by_id)  # ascending id is ascending frequency on a uniform plan
        expected = []
        for m in range(4, len(bands) + 1):
            cut = [SweepRecord(r.timestamp, {b: r.rss_by_id[b] for b in bands[:m]}) for r in records]
            raw = run_pipeline(cut, replace(config, sweep_window=None, band_count=m)).positions("raw")
            expected.append([f"{config.plan.center_mhz(bands[m - 1]):.6f}", str(m), f"{spread(raw[-10:]):.6f}"])
        rows = read_rows(out / "convergence_spectrum.csv")
        assert rows[1:] == expected and len(expected) == 3
        # shadowed sweeps scatter the fixes, so the comparison is not of zeros
        assert all(float(row[2]) > 0.0 for row in expected)

    def test_spectrum_skips_a_subset_whose_frame_is_degenerate(self, runner, benchmark_sweeps, tmp_path, monkeypatch):
        # the four lowest bands' anchors put on a line: that subset's frame is degenerate and gives no
        # point, as the five- and six-band subsets and the six-band time series still do
        def collinear_four(band_ids, seed, bbox):
            anchors = assign_anchor_frame(band_ids, seed, bbox)
            return [Anchor(a.band_id, float(i), 0.0) for i, a in enumerate(anchors)] if len(anchors) == 4 else anchors

        monkeypatch.setattr("sweepnav.pipeline.assign_anchor_frame", collinear_four)
        out = tmp_path / "conv"
        result = runner.invoke(main, ["convergence", str(benchmark_sweeps), "--out", str(out)])
        assert result.exit_code == 0, (result.output, result.exception)
        assert [row[1] for row in read_rows(out / "convergence_spectrum.csv")[1:]] == ["5", "6"]
        assert result.output.endswith("2 spectrum points)\n")

    def test_static_zero_noise_spread_is_zero(self, runner, static_scenario_file, tmp_path):
        sim = tmp_path / "sim"
        assert runner.invoke(main, ["simulate", str(static_scenario_file), "--out", str(sim)]).exit_code == 0
        out = tmp_path / "conv"
        result = runner.invoke(main, ["convergence", str(sim / "sweeps.csv"), "--out", str(out)])
        assert result.exit_code == 0, result.output
        time_rows = read_rows(out / "convergence_time.csv")
        assert time_rows[0] == ["k", "timestamp", "spread"]
        assert all(float(r[2]) == 0.0 for r in time_rows[1:])
        spectrum_rows = read_rows(out / "convergence_spectrum.csv")
        assert spectrum_rows[0] == ["cutoff_mhz", "band_count", "spread"]
        assert len(spectrum_rows) == 1 + 3  # subsets of 4, 5, 6 bands
        assert all(float(r[2]) == 0.0 for r in spectrum_rows[1:])

    def test_accepts_recorded_sweeps(self, runner, route_scenario_file, tmp_path):
        sim = tmp_path / "sim"
        assert runner.invoke(main, ["simulate", str(route_scenario_file), "--out", str(sim)]).exit_code == 0
        out = tmp_path / "conv"
        result = runner.invoke(main, ["convergence", str(sim / "sweeps.csv"), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "convergence_time.csv").exists()

    def test_run_without_a_fix_is_exit_3_with_no_output(self, runner, benchmark_sweeps, tmp_path):
        # five transmitters never give six bands: it exited 0 with a header-only convergence_time.csv
        sweeps = tmp_path / "no700.csv"
        rows = benchmark_sweeps.read_text(encoding="ascii").splitlines(keepends=True)
        sweeps.write_text("".join(row for row in rows if ", 700000000, " not in row), encoding="ascii")
        out = tmp_path / "conv"
        result = runner.invoke(main, ["convergence", str(sweeps), "--out", str(out)])
        assert result.exit_code == 3, (result.output, result.exception)
        assert "run failed: no fix in 207 sweeps: fewer than 6 bands (band.count) were present" in result.output
        assert not out.exists()

    def test_diverged_filter_is_exit_3_with_no_output(self, runner, benchmark_sweeps, tmp_path):
        # --out was created before the runs, so the failed run left an empty directory
        config = tmp_path / "diverge.cfg"
        config.write_text(DIVERGING_Q + "\n", encoding="ascii")
        out = tmp_path / "conv"
        result = runner.invoke(main, ["convergence", str(benchmark_sweeps), "--config", str(config), "--out", str(out)])
        assert result.exit_code == 3, (result.output, result.exception)
        assert "run failed: filter diverged" in result.output
        assert not out.exists()

    def test_repeated_timestamp_is_exit_2(self, runner, tmp_path):
        bad = tmp_path / "repeated.csv"
        bad.write_text(REPEATED_TIMESTAMP_SWEEPS, encoding="ascii")
        result = runner.invoke(main, ["convergence", str(bad), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert "line 7" in result.output

    def test_non_ascii_byte_is_exit_2(self, runner, tmp_path):
        bad = tmp_path / "non_ascii.csv"
        bad.write_bytes(NON_ASCII_SWEEPS)
        result = runner.invoke(main, ["convergence", str(bad), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert "line 2" in result.output

    def test_scenario_file_is_malformed_sweeps(self, runner, static_scenario_file, tmp_path):
        # convergence reads a sweep CSV only: a scenario's first data line is no sweep row
        out = tmp_path / "conv"
        result = runner.invoke(main, ["convergence", str(static_scenario_file), "--out", str(out)])
        assert result.exit_code == 2, (result.output, result.exception)
        assert f"input error: {static_scenario_file}: line 2: expected at least 7 fields" in result.output
        assert not out.exists()


@pytest.fixture(scope="module")
def fuzz_sweeps(tmp_path_factory):
    """A 21-sweep capture of the conftest route scenario."""
    root = tmp_path_factory.mktemp("fuzz")
    scenario = root / "scenario.txt"
    scenario.write_text(ROUTE_SCENARIO_TEXT, encoding="ascii")
    result = CliRunner().invoke(main, ["simulate", str(scenario), "--out", str(root / "sim")])
    assert result.exit_code == 0, result.output
    return root / "sim" / "sweeps.csv"


# a value is arbitrary text, arbitrary bytes, any float or int, or a value near the edges the readers check
config_values = (
    st.text(max_size=12)
    | st.binary(max_size=12)
    | st.floats().map(repr)
    | st.integers(-5, 10**6).map(str)
    | st.sampled_from(["0", "-1", "1e-300", "1e300", "nan", "", "1,2", "1,1e-300", "-1,-1,1,1", "sma", "no"])
)


@settings(max_examples=300, deadline=None)
@given(entries=st.lists(st.tuples(st.sampled_from(sorted(CONFIG_FIELDS)), config_values), max_size=4))
def test_fuzzed_config_exits_with_a_documented_code(fuzz_sweeps, tmp_path_factory, entries):
    """Any config file gives exit 0, 2, 3 or 4 and never an uncaught exception."""
    root = tmp_path_factory.mktemp("case")
    config = root / "fuzz.cfg"
    config.write_bytes(b"".join(
        key.encode("ascii") + b" = " + (value if isinstance(value, bytes) else value.encode("utf-8")) + b"\n"
        for key, value in entries
    ))
    result = CliRunner().invoke(main, ["run", str(fuzz_sweeps), "--config", str(config), "--out", str(root / "out")])
    assert result.exit_code in (0, 2, 3, 4), (result.output, result.exception)
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception


# a small auto-placed drive: 50 m at 10 m/s, one sweep a second, four transmitters
FUZZ_SCENARIO = {
    "seed": "3",
    "waypoints": "0,0; 50,0",
    "tx.bbox": "-100,-100,150,100",
    "tx.freqs_mhz": "700.5,800.5,900.5,1800.5",
}
# a scenario value is arbitrary text or a value near the edges: tiny, huge, negative and non-finite
# speeds, cadences, holds and times among them
scenario_edges = st.text(max_size=8) | st.sampled_from([
    "0", "-1", "1e-320", "-1e-320", "1e-9", "1e300", "-1e300", "1e12", "-1e12", "nan", "inf", "-inf", "",
    "1,2", "0,0; 0,0", "0,0; 1e308,0", "-1e308,0; 1e308,0",
])
# values each key takes; an accepted scenario stays under ~300 sweeps
SCENARIO_VALID = {
    "seed": st.integers(0, 2**64).map(str),
    "n_pl": st.floats(min_value=1.5, max_value=6.0).map(repr),
    "waypoints": st.sampled_from(["0,0; 30,0; 30,30", "5,5; 60,5"]),
    "transmitters": st.just("300,0,43,700.5; 0,300,43,800.5; -300,0,43,900.5; 0,-300,43,1800.5"),
    "tx.bbox": st.just("-50,-50,80,80"),
    "tx.freqs_mhz": st.just("700.5,800.5,900.5,1800.5,2100.5"),
}


@st.composite
def fuzzed_scenarios(draw):
    """Up to three keys of FUZZ_SCENARIO replaced or added, each valid or not at even odds."""
    entries = dict(FUZZ_SCENARIO)
    for key in draw(st.lists(st.sampled_from(sorted(SCENARIO_FIELDS)), max_size=3, unique=True)):
        valid = SCENARIO_VALID.get(key, st.floats(min_value=0.5, max_value=5.0).map(repr))
        entries[key] = draw(st.booleans().flatmap(lambda ok, valid=valid: valid if ok else scenario_edges))
    return entries


@settings(max_examples=300, deadline=None)
@given(entries=fuzzed_scenarios(), seed=st.none() | st.sampled_from([-1, 0, 7, 2**64]))
def test_fuzzed_scenario_exits_with_a_documented_code(tmp_path_factory, entries, seed):
    """Any scenario file gives `simulate` exit 0, 2 or 3, never an uncaught
    exception, and no --out unless it succeeds."""
    root = tmp_path_factory.mktemp("case")
    scenario, out = root / "scenario.txt", root / "out"
    scenario.write_text("".join(f"{key} = {value}\n" for key, value in entries.items()),
                        encoding="utf-8", errors="surrogateescape")
    result = CliRunner().invoke(main, ["simulate", str(scenario), "--out", str(out)]
                                + ([] if seed is None else ["--seed", str(seed)]))
    assert result.exit_code in (0, 2, 3), (result.output, result.exception)
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 0 or not out.exists(), result.output


# cells that damage a sweep row: not numbers, not finite, huge, out of range, not ASCII or not one field
SWEEP_CELLS = [b"", b"abc", b"nan", b"inf", b"-inf", b"1e400", b"-1e300", b"1.7e308", b"-5000", b"0", b"-1",
               b"2023-02-30", b"12:00:61", b"-6\xc3.0", b"\xff", b"1, 2", b"  "]


@st.composite
def fuzzed_captures(draw, lines):
    """The capture's rows with a few edits: a damaged cell, a comment or blank
    line, a trailing comma, a non-ASCII byte, a repeated or a dropped row."""
    lines = list(lines)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        row = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        edit = draw(st.sampled_from(["cell", "comment", "comma", "byte", "repeat", "drop"]))
        if edit == "cell":
            fields = lines[row].split(b", ")
            fields[draw(st.integers(min_value=0, max_value=len(fields) - 1))] = draw(
                st.sampled_from(SWEEP_CELLS) | st.floats().map(lambda v: repr(v).encode()) | st.binary(max_size=6)
            )
            lines[row] = b", ".join(fields)
        elif edit == "comment":
            lines.insert(row, draw(st.sampled_from([b"", b"   ", b"# capture", b"  # caf\xe9"])))
        elif edit == "comma":
            lines[row] += b","
        elif edit == "byte":
            at = draw(st.integers(min_value=0, max_value=len(lines[row])))
            lines[row] = lines[row][:at] + draw(st.binary(min_size=1, max_size=2)) + lines[row][at:]
        elif edit == "repeat":
            lines.insert(row, lines[row])
        elif len(lines) > 1:
            del lines[row]
    return b"\n".join(lines) + b"\n"


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_sweep_file_exits_with_a_documented_code(fuzz_sweeps, tmp_path_factory, data):
    """Any edit of a capture gives exit 0, 2, 3 or 4, never an uncaught
    exception, and no --out unless the run succeeds."""
    capture = data.draw(fuzzed_captures(fuzz_sweeps.read_bytes().splitlines()))
    root = tmp_path_factory.mktemp("case")
    sweeps, out = root / "sweeps.csv", root / "out"
    sweeps.write_bytes(capture)
    result = CliRunner().invoke(main, ["run", str(sweeps), "--out", str(out)])
    assert result.exit_code in (0, 2, 3, 4), (result.output, result.exception)
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 0 or not out.exists(), result.output


@pytest.fixture(scope="module")
def fuzz_run(fuzz_sweeps):
    """The fuzz capture's simulation directory, with its trajectory in ``run``."""
    sim = fuzz_sweeps.parent
    result = CliRunner().invoke(main, ["run", str(fuzz_sweeps), "--out", str(sim / "run")])
    assert result.exit_code == 0, result.output
    return sim


# a grid list item is arbitrary text, any float or int, or a value near the edges the grid checks:
# exponents outside 1.5..6, windows outside 1..MAX_WINDOW, counts below 4 or above the scene's six bands
grid_items = (
    st.text(max_size=8)
    | st.floats().map(repr)
    | st.integers(-5, 10**6).map(str)
    | st.sampled_from(["0", "-1", "3", "4", "6", "7", "1.49", "1.5", "2.8", "6.0", "6.01", "nan", "inf", "1e400",
                       "", " 3 ", "1_0", "0x10", "9" * 5000])
)
# items each list takes, so that half the items are and most grids run
GRID_VALID = {
    "--npl-list": st.floats(min_value=1.5, max_value=6.0).map(repr),
    "--window-list": st.integers(min_value=1, max_value=30).map(str),
    "--txcount-list": st.integers(min_value=4, max_value=8).map(str),
}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_grid_lists_exit_with_a_documented_code(fuzz_run, tmp_path_factory, data):
    """Any grid list gives exit 0, 2, 3 or 4, never an uncaught exception,
    and nothing under --out unless the command succeeds."""
    lists = {}
    for option, valid in GRID_VALID.items():
        if data.draw(st.booleans()):
            items = st.booleans().flatmap(lambda ok, valid=valid: valid if ok else grid_items)
            lists[option] = ",".join(data.draw(st.lists(items, min_size=1, max_size=3)))
    out = tmp_path_factory.mktemp("case") / "out"
    result = CliRunner().invoke(main, [
        "eval", str(fuzz_run / "truth.csv"), str(fuzz_run / "run" / "trajectory.csv"),
        "--waypoints", str(fuzz_run / "waypoints.csv"), "--out", str(out), "--sweeps", str(fuzz_run / "sweeps.csv"),
        *(f"{option}={text}" for option, text in lists.items()),
    ])
    assert result.exit_code in (0, 2, 3, 4), (result.output, result.exception)
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 0 or not out.exists(), result.output


# cells that damage an artifact row: not finite, negative, empty, huge or not ASCII
ARTIFACT_CELLS = [b"nan", b"inf", b"-inf", b"-1", b"", b"1e400", b"1.7e308", b"-1.7e308", b"9" * 30, b"9" * 5000,
                  b"caf\xc3\xa9", b"\xff"]


def shifted(line):
    fields = line.split(b",")
    try:
        fields[1] = b"%.6f" % (float(fields[1]) + 5000)
    except (IndexError, ValueError):  # a cell an earlier edit damaged stays as it is
        pass
    return b",".join(fields)


@st.composite
def fuzzed_artifact(draw, lines):
    """An artifact's rows with a few edits: a cell replaced, a run of rows dropped, a row repeated,
    every row's second cell moved by 5,000 or every row's last two cells made nan."""
    lines = list(lines)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if not lines:
            break
        row = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        edit = draw(st.sampled_from(["cell", "drop", "repeat", "shift", "nan"]))
        if edit == "cell":
            fields = lines[row].split(b",")
            fields[draw(st.integers(min_value=0, max_value=len(fields) - 1))] = draw(
                st.sampled_from(ARTIFACT_CELLS) | st.floats().map(lambda v: repr(v).encode())
            )
            lines[row] = b",".join(fields)
        elif edit == "drop":
            del lines[row:row + draw(st.integers(min_value=1, max_value=3))]
        elif edit == "repeat":
            lines.insert(row, lines[row])
        elif edit == "shift":  # every row's second cell 5,000 later: truth or trajectory times of another capture
            lines[1:] = [shifted(line) for line in lines[1:]]
        else:  # every row's last two cells nan: waypoint or truth positions that name no sample
            lines[1:] = [b",".join(line.split(b",")[:-2] + [b"nan", b"nan"]) for line in lines[1:]]
    return b"".join(line + b"\n" for line in lines)


@pytest.mark.parametrize("grid", [False, True])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_artifacts_exit_with_a_documented_code(fuzz_run, tmp_path_factory, grid, data):
    """Any edit of the truth, waypoints or trajectory file gives `eval` exit
    0, 2, 3 or 4, never an uncaught exception, and no --out unless it succeeds."""
    root = tmp_path_factory.mktemp("case")
    files = {"truth": fuzz_run / "truth.csv", "waypoints": fuzz_run / "waypoints.csv",
             "trajectory": fuzz_run / "run" / "trajectory.csv"}
    for name in data.draw(st.lists(st.sampled_from(sorted(files)), min_size=1, max_size=3, unique=True)):
        damaged = root / f"{name}.csv"
        damaged.write_bytes(data.draw(fuzzed_artifact(files[name].read_bytes().splitlines())))
        files[name] = damaged
    out = root / "out"
    result = CliRunner().invoke(main, [
        "eval", str(files["truth"]), str(files["trajectory"]), "--waypoints", str(files["waypoints"]),
        "--out", str(out), *(["--sweeps", str(fuzz_run / "sweeps.csv"), "--npl-list", "2.8"] if grid else []),
    ])
    assert result.exit_code in (0, 2, 3, 4), (result.output, result.exception)
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 0 or not out.exists(), result.output
