import dataclasses
import math
import warnings

import numpy as np
import pytest

from sweepnav import (
    BandPlan,
    PathLossParams,
    Scenario,
    Transmitter,
    matched_config,
    route_scenario,
    run_pipeline,
    score_run,
    simulate_run,
    static_scenario,
    synth_route,
)
from sweepnav.errors import ConfigError, ShapeError
from sweepnav.pathloss import free_space_pl0, invert_distance, rss_at_distance
from sweepnav.pipeline import Trajectory, TrajectoryStep
from sweepnav.placement import place_in_box
from sweepnav.simulator import (
    DEFAULT_TX_BBOX, DEFAULT_TX_FREQS_MHZ, EXTENDED_TX_FREQS_MHZ, ROUTE_WAYPOINTS, GroundTruth, TruthSample,
    aligned_rmse, auto_scenario, rolling_spread, spread,
)
from sweepnav.sweeps import format_timestamp

FOUR_TX = (
    Transmitter(300.0, 0.0, 43.0, 700.5),
    Transmitter(0.0, 300.0, 43.0, 800.5),
    Transmitter(-300.0, 0.0, 43.0, 900.5),
    Transmitter(0.0, -300.0, 43.0, 1800.5),
)


def simple_scenario(**kwargs):
    defaults = dict(
        transmitters=FOUR_TX,
        waypoints=((0.0, 0.0), (10.0, 0.0)),
        speed_mps=1.0,
        cadence_s=1.0,
        shadowing_sigma_db=0.0,
        seed=0,
    )
    defaults.update(kwargs)
    return Scenario(**defaults)


class TestSynthRoute:
    def test_unit_speed_line(self):
        truth = synth_route(simple_scenario())
        positions = truth.positions()
        assert len(positions) == 11
        np.testing.assert_allclose(positions, [(k, 0.0) for k in range(11)], atol=1e-12)
        assert truth.waypoint_indices == (0, 10)

    def test_cadence_longer_than_travel(self):
        truth = synth_route(simple_scenario(cadence_s=60.0))
        positions = truth.positions()
        assert len(positions) == 2
        np.testing.assert_allclose(positions[0], [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(positions[1], [10.0, 0.0], atol=1e-12)

    def test_benchmark_route_total_length(self):
        scenario = route_scenario(seed=0)
        truth = synth_route(scenario)
        assert float(np.sum(truth.segment_lengths())) == pytest.approx(1860.0, abs=1e-9)

    def test_lead_in_not_scored(self):
        scenario = route_scenario(seed=0, lead_in_m=200.0)
        truth = synth_route(scenario)
        positions = truth.positions()
        first = truth.waypoint_indices[0]
        assert first == 20  # 200 m at 10 m/s, 1 s cadence
        np.testing.assert_allclose(positions[first], [0.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(positions[0], [-200.0, 0.0], atol=1e-9)

    def test_zero_length_without_hold_rejected(self):
        # a scenario fault like any other, so `simulate` exits 3 for it, not 2
        with pytest.raises(ConfigError, match="zero length and no hold"):
            synth_route(simple_scenario(waypoints=((1.0, 1.0), (1.0, 1.0))))

    def test_sweep_ceiling_holds_the_cadence_ratio(self, monkeypatch):
        # 10 s of drive at a 1 s cadence: ten steps, eleven samples
        monkeypatch.setattr("sweepnav.simulator.MAX_SCENARIO_SWEEPS", 10)
        assert len(synth_route(simple_scenario()).samples) == 11
        monkeypatch.setattr("sweepnav.simulator.MAX_SCENARIO_SWEEPS", 9)
        with pytest.raises(ConfigError, match="asks for 10 sweeps, more than 9"):
            synth_route(simple_scenario())

    def test_static_scene_via_hold(self):
        truth = synth_route(simple_scenario(waypoints=((2.0, 3.0), (2.0, 3.0)), hold_s=5.0))
        positions = truth.positions()
        assert positions == [(2.0, 3.0)] * 6

    def test_fractional_end_included(self):
        truth = synth_route(simple_scenario(waypoints=((0.0, 0.0), (10.5, 0.0))))
        assert truth.samples[-1].timestamp == pytest.approx(10.5)
        assert truth.positions()[-1][0] == pytest.approx(10.5)

    @pytest.mark.parametrize("changes", [
        dict(waypoints=((0.0, 0.0), (10.0000004, 0.0))),  # the end lies 0.4 us after the last grid sample
        dict(speed_mps=1e6, cadence_s=1e-7, waypoints=((0.0, 0.0), (1.0, 0.0))),  # ten sweeps per microsecond
    ])
    def test_two_samples_in_one_microsecond_rejected(self, changes):
        # the sweep file stamps to the microsecond and its parser would merge the two sweeps
        with pytest.raises(ConfigError, match="sweeps fall on .* microseconds; a sweep file stamps no finer"):
            synth_route(simple_scenario(**changes))

    def test_sweep_times_past_the_year_9999_rejected(self):
        # 1e4 sweeps, the last 1e12 s (about 31,700 years) after the epoch: no sweep file stamp holds it
        with pytest.raises(ConfigError, match="outside the years a sweep file can hold"):
            synth_route(simple_scenario(hold_s=1e12, cadence_s=1e8))

    def test_one_sample_per_stamp_at_a_one_microsecond_cadence(self):
        truth = synth_route(simple_scenario(speed_mps=1e6, cadence_s=1e-6))
        stamps = [format_timestamp(s.timestamp) for s in truth.samples]
        assert len(stamps) == 11 and len(set(stamps)) == 11

    @pytest.mark.parametrize("speed, leg", [(1e300, 1), (10.0, 2)])
    def test_leg_shorter_than_one_sweep_step_rejected(self, speed, leg):
        # at 1e300 m/s the whole drive falls on sweep 0; at 10 m/s the 0.5 m second leg lies within one step
        waypoints = ((0.0, 0.0), (100.0, 0.0), (100.0, 0.5), (200.0, 0.5))
        with pytest.raises(ConfigError, match=f"leg {leg} is shorter than one sweep step"):
            synth_route(simple_scenario(waypoints=waypoints, speed_mps=speed))

    def test_zero_length_leg_and_static_scene_stay_valid(self):
        truth = synth_route(simple_scenario(waypoints=((0.0, 0.0), (10.0, 0.0), (10.0, 0.0), (10.0, 5.0))))
        assert truth.waypoint_indices == (0, 10, 10, 15)
        assert len(synth_route(simple_scenario(waypoints=((2.0, 3.0),) * 2, hold_s=0.5)).samples) == 2

    def test_repeated_final_waypoint_ends_on_it(self):
        # the zero-length last leg was divided by its length: every sample from 270 m on was nan
        waypoints = ((0.0, 0.0), (270.0, 0.0), (270.0, 0.0))
        truth = synth_route(simple_scenario(waypoints=waypoints, speed_mps=10.0, hold_s=3.0))
        assert np.isfinite(truth.positions()).all()
        assert [s[1:] for s in truth.samples[27:]] == [(270.0, 0.0)] * 4
        assert truth.waypoint_indices == (0, 27, 27)

    @pytest.mark.parametrize("x, index", [(2.5, 2), (2.5000001, 3)])
    def test_waypoint_takes_the_nearest_sample_the_earlier_on_a_tie(self, x, index):
        # at 1 m/s and a 1 s cadence the middle waypoint is reached at x seconds
        truth = synth_route(simple_scenario(waypoints=((0.0, 0.0), (x, 0.0), (5.0, 0.0))))
        assert truth.waypoint_indices == (0, index, 5)


class TestForwardSweeps:
    def test_forward_value_at_reference_distance(self):
        params = PathLossParams(exponent=2.8, tx_power_dbm=43.0)
        assert rss_at_distance(1.0, 900.0, params) == pytest.approx(11.465, abs=5e-4)

    def test_rss_decreases_with_distance(self):
        params = PathLossParams()
        values = [rss_at_distance(d, 800.5, params) for d in (10.0, 100.0, 1000.0)]
        assert values[0] > values[1] > values[2]

    def test_sweep_bands_match_forward_model(self):
        scenario = simple_scenario(waypoints=((0.0, 0.0), (0.0, 0.0)), hold_s=3.0)
        run = simulate_run(scenario)
        record = run.sweeps[0]
        assert list(record.rss_by_id) == [700, 800, 900, 1800]
        for band, tx in zip(record.bands, FOUR_TX):
            expected = rss_at_distance(300.0, tx.freq_mhz, scenario.pathloss, tx_power_dbm=43.0)
            assert band.rss_dbm == pytest.approx(expected, rel=1e-12)

    def test_zero_shadowing_roundtrip_to_true_distance(self):
        scenario = simple_scenario()
        run = simulate_run(scenario)
        truth = run.truth.positions()
        for record, pos in zip(run.sweeps, truth):
            for band, tx in zip(record.bands, FOUR_TX):
                true_d = math.hypot(pos[0] - tx.x, pos[1] - tx.y)
                params = scenario.pathloss
                pl0 = free_space_pl0(BandPlan.uniform().center_mhz(band.band_id))
                est = invert_distance(params.tx_power_dbm - band.rss_dbm, pl0, params)
                assert abs(est - true_d) / true_d < 1e-9

    def test_range_clamped_below_reference_distance(self):
        close = (Transmitter(0.3, 0.0, 43.0, 700.5),) + FOUR_TX[1:]
        scenario = simple_scenario(
            transmitters=close, waypoints=((0.0, 0.0), (0.0, 0.0)), hold_s=4.0
        )
        run = simulate_run(scenario)
        # the receiver 0.3 m from the first transmitter is taken to be at 1 m
        at_1m = rss_at_distance(1.0, 700.5, scenario.pathloss, tx_power_dbm=43.0)
        assert [r.rss_by_id[700] for r in run.sweeps] == [at_1m] * len(run.sweeps)

    def test_transmitter_outside_plan_rejected(self):
        bad = FOUR_TX[:3] + (Transmitter(0.0, 0.0, 43.0, 9999.5),)
        with pytest.raises(ConfigError):
            simulate_run(simple_scenario(transmitters=bad))

    def test_shared_band_rejected(self):
        clash = FOUR_TX[:3] + (Transmitter(50.0, 50.0, 43.0, 700.7),)
        with pytest.raises(ConfigError):
            simulate_run(simple_scenario(transmitters=clash))

    def test_seeded_determinism(self):
        scenario = simple_scenario(shadowing_sigma_db=4.0)
        run1 = simulate_run(scenario)
        run2 = simulate_run(scenario)
        assert run1.sweeps == run2.sweeps


class TestScenarioValidation:
    def test_minimum_transmitters(self):
        with pytest.raises(ConfigError):
            simple_scenario(transmitters=FOUR_TX[:3])

    def test_minimum_waypoints(self):
        with pytest.raises(ConfigError):
            simple_scenario(waypoints=((0.0, 0.0),))

    def test_positive_speed_and_cadence(self):
        with pytest.raises(ConfigError):
            simple_scenario(speed_mps=0.0)
        with pytest.raises(ConfigError):
            simple_scenario(cadence_s=0.0)

    # NaN fails every comparison, so each check must be one that NaN fails; a NaN sigma would
    # silently disable shadowing in simulate_run
    @pytest.mark.parametrize(
        "build, name, value",
        [
            (simple_scenario, "shadowing_sigma_db", -1.0),
            (simple_scenario, "shadowing_sigma_db", math.nan),
            (simple_scenario, "shadowing_sigma_db", math.inf),
            (simple_scenario, "speed_mps", math.nan),
            (simple_scenario, "cadence_s", math.nan),
            (simple_scenario, "hold_s", math.nan),
            (simple_scenario, "lead_in_m", math.nan),
        ],
    )
    def test_non_finite_or_unphysical_value_rejected(self, build, name, value):
        with pytest.raises(ConfigError):
            build(**{name: value})

    def test_duplicate_frequencies_rejected(self):
        dupe = FOUR_TX[:3] + (Transmitter(9.0, 9.0, 43.0, 700.5),)
        with pytest.raises(ConfigError):
            simple_scenario(transmitters=dupe)

    def test_lead_in_needs_direction(self):
        with pytest.raises(ConfigError):
            simple_scenario(waypoints=((0.0, 0.0), (0.0, 0.0)), hold_s=3.0, lead_in_m=50.0)


def trajectory_from(positions, timestamps):
    steps = tuple(
        TrajectoryStep(
            index=i,
            timestamp=float(t),
            x_raw=float(p[0]),
            y_raw=float(p[1]),
            x_wma=float(p[0]),
            y_wma=float(p[1]),
            x_ekf=float(p[0]),
            y_ekf=float(p[1]),
            residual_norm=0.0,
        )
        for i, (t, p) in enumerate(zip(timestamps, positions))
    )
    return Trajectory(steps=steps)


def straight_truth(xs):
    """Ground truth along the x axis, one sample a second, a waypoint at every sample."""
    samples = tuple(TruthSample(float(k), x, 0.0) for k, x in enumerate(xs))
    return GroundTruth(samples=samples, waypoint_indices=tuple(range(len(xs))))


def svd_aligned_rmse(estimated, truth):
    """The reference fit: the orthogonal Procrustes rotation or reflection from an SVD."""
    est_c, tru_c = estimated - estimated.mean(axis=0), truth - truth.mean(axis=0)
    u, _, vt = np.linalg.svd(est_c.T @ tru_c)
    return float(np.sqrt(np.mean(np.sum((est_c @ u @ vt - tru_c) ** 2, axis=1))))


class TestScoring:
    def test_perfect_trajectory_scores_zero(self):
        scenario = simple_scenario()
        run = simulate_run(scenario)
        trajectory = trajectory_from(run.truth.positions(), [s.timestamp for s in run.truth.samples])
        result = score_run(run.truth, trajectory)
        for estimator in ("raw", "wma", "ekf"):
            assert all(seg.percent_diff == 0.0 for seg in result.segments[estimator])
            assert result.rmse_m[estimator] == pytest.approx(0.0, abs=1e-9)

    def test_length_mismatch_rejected(self):
        scenario = simple_scenario()
        run = simulate_run(scenario)
        trajectory = trajectory_from(run.truth.positions()[:-1], [s.timestamp for s in run.truth.samples[:-1]])
        with pytest.raises(ValueError):
            score_run(run.truth, trajectory)

    @pytest.mark.parametrize(
        "drop, indices, match",
        [
            (1, (0, 10), "10 rows, truth has 11"),
            (0, (0, 11), "out of range"),
            (0, (-1, 10), "out of range"),
            (0, (), "at least two waypoints"),
            (0, (3,), "at least two waypoints"),
            (0, (5, 2), "must be ordered"),
            (0, (0, 12, 5), "must be ordered"),
            (0, (0, 5, 5, 10), "truth lengths must be positive"),
        ],
        ids=["short", "beyond", "negative", "none", "one", "unordered", "unordered-beyond", "zero-length"],
    )
    def test_shape_faults_are_shape_errors(self, drop, indices, match):
        run = simulate_run(simple_scenario())  # eleven samples along the x axis
        truth = dataclasses.replace(run.truth, waypoint_indices=indices)
        kept = len(run.truth.samples) - drop
        trajectory = trajectory_from(run.truth.positions()[:kept], [s.timestamp for s in run.truth.samples[:kept]])
        with pytest.raises(ShapeError, match=match):
            score_run(truth, trajectory)

    def test_reference_cells(self):
        # a straight drive of 270, 490, 260 and 840 m, estimated 248, 567, 279 and 787 m long
        truth = straight_truth([0.0, 270.0, 760.0, 1020.0, 1860.0])
        trajectory = trajectory_from([(x, 0.0) for x in (0.0, 248.0, 815.0, 1094.0, 1881.0)], range(5))
        report = score_run(truth, trajectory).segments["raw"]
        assert [round(s.percent_diff, 2) for s in report] == [8.15, 15.71, 7.31, 6.31]
        assert [s.estimated_m for s in report] == [248.0, 567.0, 279.0, 787.0]
        assert [s.truth_m for s in report] == [270.0, 490.0, 260.0, 840.0]

    @pytest.mark.parametrize("shift", [5000.0, -2e-6, 1.5e-6])
    def test_row_off_its_truth_time_is_a_shape_error(self, shift):
        run = simulate_run(simple_scenario())
        times = [s.timestamp for s in run.truth.samples]
        times[4] += shift
        trajectory = trajectory_from(run.truth.positions(), times)
        with pytest.raises(ShapeError, match=f"trajectory row 4 is at {times[4]:.6f} s, truth at 4.000000 s"):
            score_run(run.truth, trajectory)

    @pytest.mark.parametrize("start", [0.0, 1.6725312e9, 2.5e11])
    def test_rows_a_microsecond_off_as_written_still_score(self, start):
        # %.6f and format_timestamp may round one time a microsecond apart; the decimals read
        # back differ by a microsecond plus float spacing, which is not a shape error
        run = simulate_run(simple_scenario())
        truth = dataclasses.replace(run.truth, samples=tuple(
            s._replace(timestamp=float(f"{start + k:.6f}")) for k, s in enumerate(run.truth.samples)))
        for step in (1e-6, -1e-6):
            times = [float(f"{s.timestamp + step:.6f}") for s in truth.samples]
            result = score_run(truth, trajectory_from(truth.positions(), times))
            assert all(seg.percent_diff == 0.0 for seg in result.segments["ekf"])

    def test_aligned_rmse_ignores_rotation_and_reflection(self):
        rng = np.random.default_rng(5)
        points = rng.uniform(-100, 100, (40, 2))
        theta = 1.1
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        mirrored = points @ np.diag([1.0, -1.0])
        assert aligned_rmse(points @ rot.T + 7.5, points) == pytest.approx(0.0, abs=1e-9)
        assert aligned_rmse(mirrored, points) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("reflect", [False, True], ids=["rotated", "reflected"])
    @pytest.mark.parametrize("sigma", [0.0, 1e-3, 1.0, 100.0])
    def test_aligned_rmse_matches_an_svd_fit(self, sigma, reflect):
        rng = np.random.default_rng(int(sigma * 1000) + reflect)
        for n in range(1, 301):
            truth = rng.uniform(-500, 500, (n, 2))
            theta = rng.uniform(0.0, 2 * math.pi)
            turn = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
            if reflect:
                turn = turn @ np.diag([1.0, -1.0])
            estimated = truth @ turn.T + rng.uniform(-1e3, 1e3, 2) + rng.normal(0.0, sigma, (n, 2))
            expected = svd_aligned_rmse(estimated, truth)
            rmse = aligned_rmse(estimated.tolist(), truth.tolist())
            if n == 1:
                assert rmse == 0.0
            assert abs(rmse - expected) <= 1e-9 * max(expected, 1.0), (n, rmse, expected)

    def test_aligned_rmse_of_positions_near_the_float_limit_is_inf(self):
        # the centred cross product overflows; the SVD would not converge on it
        points = np.zeros((5, 2))
        points[1:3, 0] = 1.7e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and numpy warns of no overflow on the way
            assert aligned_rmse(points, np.arange(10.0).reshape(5, 2)) == math.inf

    def test_spread_of_constant_cloud_is_zero(self):
        assert spread(np.tile([3.0, -2.0], (10, 1))) == 0.0

    def test_rolling_spread_shape(self):
        points = np.random.default_rng(0).normal(size=(25, 2)).tolist()
        series = rolling_spread(points, window=10)
        assert len(series) == 25
        assert series[0] == 0.0
        assert series[-1] == spread(points[-10:])


class TestStatisticalBehavior:
    def test_more_shadowing_never_helps(self):
        medians = {}
        for sigma in (0.0, 4.0):
            errors = []
            for seed in range(50):
                scenario = route_scenario(seed=seed, shadowing_sigma_db=sigma)
                run = simulate_run(scenario)
                trajectory = run_pipeline(run.sweeps, matched_config(scenario))
                result = score_run(run.truth, trajectory)
                errors.extend(s.percent_diff for s in result.segments["wma"])
            medians[sigma] = float(np.median(errors))
        assert medians[4.0] >= medians[0.0]

    def test_six_vs_thirteen_transmitters_recorded(self):
        # more carriers is not automatically better; record both outcomes
        # without asserting an ordering
        outcomes = {}
        for tx_count in (6, 13):
            errors = []
            for seed in range(5):
                scenario = route_scenario(seed=seed, tx_count=tx_count)
                run = simulate_run(scenario)
                trajectory = run_pipeline(run.sweeps, matched_config(scenario))
                result = score_run(run.truth, trajectory)
                errors.extend(s.percent_diff for s in result.segments["wma"])
            outcomes[tx_count] = float(np.median(errors))
        print(f"median segment error by transmitter count: {outcomes}")
        assert all(math.isfinite(v) for v in outcomes.values())

    def test_carriers_above_the_default_plan_run_under_their_own(self):
        # six carriers above 3,500 MHz, placed as the route scenario's anchors are
        plan = BandPlan.uniform(high_mhz=4200.0)
        freqs = (3600.5, 3700.5, 3800.5, 3900.5, 4000.5, 4100.5)
        placed = place_in_box([plan.band_at(f) for f in freqs], 1, DEFAULT_TX_BBOX)
        transmitters = tuple(Transmitter(*placed[plan.band_at(f)], PathLossParams().tx_power_dbm, f) for f in freqs)
        scenario = dataclasses.replace(route_scenario(seed=1), transmitters=transmitters)
        with pytest.raises(ConfigError, match="transmitter at 3600.5 MHz is outside the band plan"):
            simulate_run(scenario)
        run = simulate_run(scenario, plan)
        trajectory = run_pipeline(run.sweeps, matched_config(scenario, plan=plan))
        assert len(trajectory) == len(run.sweeps)


class TestPresets:
    def test_route_scenario_deterministic(self):
        s1 = route_scenario(seed=12)
        s2 = route_scenario(seed=12)
        assert s1.transmitters == s2.transmitters

    def test_static_scenario_duration(self):
        scenario = static_scenario(seed=0, duration_s=42.0)
        truth = synth_route(scenario)
        assert truth.samples[-1].timestamp == pytest.approx(42.0)

    @pytest.mark.parametrize("preset", [route_scenario, static_scenario])
    @pytest.mark.parametrize("tx_count", [-1, 0, 3, 14, 99])
    def test_too_many_transmitters_requested(self, preset, tx_count):
        # both presets share one check: no count outside 4..13 is sliced from the end or cut down to 13
        with pytest.raises(ConfigError, match=f"tx_count must be 4 to 13, got {tx_count}"):
            preset(seed=0, tx_count=tx_count)

    @pytest.mark.parametrize("preset", [route_scenario, static_scenario])
    @pytest.mark.parametrize("tx_count", [4, 13])
    def test_builds_as_many_transmitters_as_asked(self, preset, tx_count):
        scenario = preset(seed=0, tx_count=tx_count)
        assert [tx.freq_mhz for tx in scenario.transmitters] == sorted(EXTENDED_TX_FREQS_MHZ[:tx_count])

    def test_auto_layout_radiates_the_pathloss_default_power(self):
        layout = auto_scenario(DEFAULT_TX_FREQS_MHZ, 3, DEFAULT_TX_BBOX, waypoints=ROUTE_WAYPOINTS).transmitters
        assert {tx.power_dbm for tx in layout} == {PathLossParams().tx_power_dbm}
