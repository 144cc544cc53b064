"""Acceptance gate: every criterion runs at its stated tolerance and prints
one PASS/FAIL line. The statistical desk-scale benchmark is fully seeded, so
each criterion is deterministic.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from sweepnav import (
    Anchor,
    AnchorFrame,
    EkfTracker,
    GroundTruth,
    NoiseConfig,
    Smoother,
    SmootherConfig,
    TrackingPipeline,
    Trajectory,
    TrajectoryStep,
    ekf,
    matched_config,
    route_scenario,
    run_pipeline,
    score_run,
    simulate_run,
    static_scenario,
)
from sweepnav.artifacts import write_trajectory_csv
from sweepnav.ekf import Landmark
from sweepnav.pathloss import PathLossParams, free_space_pl0, invert_distance, rss_at_distance
from sweepnav.pipeline import DEFAULT_ANCHOR_BBOX, assign_anchor_frame
from sweepnav.simulator import TruthSample, spread
from sweepnav.sweeps import write_sweep_csv

# benchmark configuration: six transmitter bands, exponent 2.8, smoother
# window 3 (the preset defaults); measurement variance calibrated to the
# synthetic range-error scale, since the 0.01 default assumes far cleaner
# ranges than noisy RSS inversion can give
BENCH_SEEDS = range(50)
BENCH_NOISE = NoiseConfig(q=np.eye(2) * 0.1, r=200.0)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] {name}: FAIL")
        raise
    print(f"[ACCEPTANCE] {name}: PASS")


def benchmark_run(seed):
    scenario = route_scenario(seed=seed)
    run = simulate_run(scenario)
    return scenario, run


def covariance_matrix(p00, p01, p11):
    """The 2x2 covariance of the kernel terms (p00, p01, p11)."""
    return np.array([[p00, p01], [p01, p11]])


def monitor_kernels(monkeypatch, sink):
    """Call ``sink(phase, covariance)`` after each filter kernel call.

    Wraps ``sweepnav.ekf.predict`` and ``update``, which ``EkfTracker.step``
    looks up on every call; ``phase`` is "predict" or "update". An update
    that raises (a skipped landmark) reports nothing.
    """
    predict, update = ekf.predict, ekf.update

    def watched_predict(*args):
        terms = predict(*args)
        sink("predict", covariance_matrix(*terms[2:]))
        return terms

    def watched_update(*args):
        terms, innovation = update(*args)
        sink("update", covariance_matrix(*terms[2:]))
        return terms, innovation

    monkeypatch.setattr(ekf, "predict", watched_predict)
    monkeypatch.setattr(ekf, "update", watched_update)


def kernel_range(x, y, landmark):
    """Range from (x, y) to the landmark as the update kernel measures it.

    With z = 0 the innovation is minus the range.
    """
    _, innovation = ekf.update((x, y, 1.0, 0.0, 1.0), 0.0, landmark.x, landmark.y, 1.0)
    return -innovation


def kernel_jacobian(x, y, landmark):
    """Range gradient h at (x, y), read back from one update with P = I.

    With P = I the innovation variance is 1 + r, so the step is
    h * innovation / (1 + r); here r = 1.
    """
    (ux, uy, *_), innovation = ekf.update((x, y, 1.0, 0.0, 1.0), 0.0, landmark.x, landmark.y, 1.0)
    return np.array([ux - x, uy - y]) * 2.0 / innovation


def random_walk_tracks(make_tracker=EkfTracker):
    """Criterion 5's random walks, each tracked against six fixed anchor landmarks.

    Twenty 40-step walks of 3 m steps. ``make_tracker`` is called like
    EkfTracker once per walk; each step predicts with the walk's own
    velocity and updates with the ranges from a position measured with
    1 m noise to every landmark.
    """
    anchors = assign_anchor_frame([700, 800, 900, 1800, 2100, 2600], 55, DEFAULT_ANCHOR_BBOX)
    landmarks = [Landmark(a.x, a.y, i) for i, a in enumerate(anchors)]
    rng = np.random.default_rng(55)
    for _ in range(20):
        walk = np.cumsum(rng.normal(0.0, 3.0, (40, 2)), axis=0)
        tracker = make_tracker(x0=walk[0], p0=np.eye(2) * 10.0, noise=NoiseConfig())
        for k in range(1, 40):
            mx, my = walk[k] + rng.normal(0.0, 1.0, 2)
            ranges = [(lm, math.hypot(mx - lm.x, my - lm.y)) for lm in landmarks]
            tracker.step(1.0, walk[k] - walk[k - 1], ranges)


def smoothed(points, weights=None):
    """The last output of a Smoother whose window holds exactly ``points``."""
    smoother = Smoother(SmootherConfig(window=len(points), weights=weights))
    for point in points:
        out = smoother.push(point)
    return out


def test_criterion_1_multilateration_exactness():
    with criterion("1 multilateration exactness"):
        rng = np.random.default_rng(2024)
        started = time.monotonic()
        worst = 0.0
        solved = 0
        while solved < 1000:
            n = int(rng.integers(4, 9))
            coords = rng.uniform(-500.0, 500.0, (n, 2))
            point = rng.uniform(-400.0, 400.0, 2)
            rows = 2.0 * (coords[0] - coords[1:])
            u, s, vt = np.linalg.svd(rows, full_matrices=False)
            if s[-1] <= 0 or s[0] / s[-1] > 1e6:
                continue
            anchors = [Anchor(i + 1, float(x), float(y)) for i, (x, y) in enumerate(coords)]
            distances = [float(np.hypot(x - point[0], y - point[1])) for x, y in coords]
            x, y, _, _ = AnchorFrame(anchors).solve(distances)
            worst = max(worst, math.hypot(x - point[0], y - point[1]))
            solved += 1
        elapsed = time.monotonic() - started
        assert worst < 1e-6, f"worst fix error {worst:.3e} m"
        assert elapsed < 5.0, f"took {elapsed:.2f} s"


def test_criterion_2_pathloss_round_trip():
    with criterion("2 path-loss round trip"):
        for exponent in (2.7, 2.8, 3.5):
            params = PathLossParams(exponent=exponent, tx_power_dbm=43.0)
            pl0 = free_space_pl0(900.5)
            for d in np.logspace(0.0, 5.0, 41):
                rss = rss_at_distance(float(d), 900.5, params)
                recovered = invert_distance(params.tx_power_dbm - rss, pl0, params)
                assert abs(recovered - d) / d < 1e-9


def test_criterion_3_error_metric_fidelity():
    with criterion("3 error-metric fidelity"):
        reference_pairs = [
            # (estimated, truth, |est - truth| / truth * 100 rounded to 2 decimals)
            (248.0, 270.0, 8.15),
            (567.0, 490.0, 15.71),
            (279.0, 260.0, 7.31),
            (787.0, 840.0, 6.31),
            (500.0, 490.0, 2.04),
            (290.0, 260.0, 11.54),
            (800.0, 840.0, 4.76),
            (263.0, 270.0, 2.59),
        ]
        for estimated, truth, expected in reference_pairs:
            # one segment along the x axis, scored as `eval` scores a run
            ground_truth = GroundTruth(samples=(TruthSample(0.0, 0.0, 0.0), TruthSample(1.0, truth, 0.0)),
                                       waypoint_indices=(0, 1))
            steps = tuple(TrajectoryStep(k, float(k), x, 0.0, x, 0.0, x, 0.0, 0.0) for k, x in enumerate((0.0, estimated)))
            (segment,) = score_run(ground_truth, Trajectory(steps=steps)).segments["raw"]
            assert round(segment.percent_diff, 2) == expected, (estimated, truth)


class CovarianceAudit:
    def __init__(self):
        self.max_asymmetry = 0.0
        self.min_eigenvalue = math.inf
        self.update_events = 0
        self.trace_violations = 0
        self._last_trace = None

    def __call__(self, phase, cov):
        self.max_asymmetry = max(self.max_asymmetry, abs(cov[0, 1] - cov[1, 0]))
        self.min_eigenvalue = min(self.min_eigenvalue, float(np.linalg.eigvalsh(cov)[0]))
        trace = cov[0, 0] + cov[1, 1]
        if phase == "update":
            self.update_events += 1
            if trace > self._last_trace + 1e-12 * max(1.0, self._last_trace):
                self.trace_violations += 1
        self._last_trace = trace

    def assert_clean(self):
        assert self.max_asymmetry < 1e-9
        assert self.min_eigenvalue > -1e-9
        assert self.trace_violations == 0


def test_criterion_4_benchmark_route_statistics(monkeypatch):
    with criterion("4 benchmark route statistics"):
        started = time.monotonic()
        audit = CovarianceAudit()
        monitor_kernels(monkeypatch, audit)
        wma_err, ekf_err = [], []
        for seed in BENCH_SEEDS:
            scenario, run = benchmark_run(seed)
            trajectory = run_pipeline(run.sweeps, matched_config(scenario, noise=BENCH_NOISE))
            result = score_run(run.truth, trajectory)
            wma_err.append([s.percent_diff for s in result.segments["wma"]])
            ekf_err.append([s.percent_diff for s in result.segments["ekf"]])
        elapsed = time.monotonic() - started

        wma_err = np.asarray(wma_err)
        ekf_err = np.asarray(ekf_err)
        pooled_wma = float(np.median(wma_err))
        wma_medians = np.median(wma_err, axis=0)
        ekf_medians = np.median(ekf_err, axis=0)
        improved = int(np.sum(ekf_medians <= wma_medians))
        print(
            f"  pooled wma median {pooled_wma:.2f}% | per-segment wma {np.round(wma_medians, 2)}"
            f" ekf {np.round(ekf_medians, 2)} | ekf improves {improved}/4 | {elapsed:.1f} s"
        )
        assert pooled_wma <= 20.0, f"pooled WMA median {pooled_wma:.2f}%"
        assert improved >= 3, f"EKF improves only {improved} of 4 segments"
        assert elapsed < 60.0, f"took {elapsed:.1f} s"
        assert audit.update_events == 61_800
        audit.assert_clean()


def test_criterion_5_ekf_invariant_suite(monkeypatch):
    with criterion("5 EKF invariant suite"):
        audit = CovarianceAudit()
        monitor_kernels(monkeypatch, audit)

        for seed in range(5):
            scenario, run = benchmark_run(seed)
            run_pipeline(run.sweeps, matched_config(scenario, noise=BENCH_NOISE))
        random_walk_tracks()

        assert audit.update_events == 10_860
        audit.assert_clean()

        rng = np.random.default_rng(7)
        checked = 0
        while checked < 1000:
            px, py, lx, ly = rng.uniform(-100.0, 100.0, 4)
            if math.hypot(px - lx, py - ly) <= 0.1:
                continue
            landmark = Landmark(lx, ly)
            h = kernel_jacobian(px, py, landmark)
            eps = 1e-5
            for axis, row in enumerate(h):
                offset = np.zeros(2)
                offset[axis] = eps
                fd = (
                    kernel_range(*((px, py) + offset), landmark)
                    - kernel_range(*((px, py) - offset), landmark)
                ) / (2 * eps)
                assert abs(row - fd) < 1e-6
            checked += 1


def test_criterion_6_moving_average_contracts():
    with criterion("6 WMA/SMA contracts"):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            n = int(rng.integers(1, 13))
            points = [tuple(p) for p in rng.uniform(-1e3, 1e3, (n, 2))]
            scale = float(rng.uniform(0.1, 10.0))
            assert smoothed(points, [scale] * n) == smoothed(points, [1.0] * n)

            weights = rng.uniform(0.05, 5.0, n)
            x, y = smoothed(points, weights)
            xs = [p[0] for p in points]
            ys = [p[1] for p in points]
            assert min(xs) <= x <= max(xs)
            assert min(ys) <= y <= max(ys)


def test_criterion_7_convergence_with_window():
    with criterion("7 convergence with accumulation window"):
        wins = 0
        for seed in range(50):
            scenario = static_scenario(seed, duration_s=69.0)
            run = simulate_run(scenario)
            spreads = {}
            for window in (5, 50):
                config = matched_config(scenario, sweep_window=window)
                trajectory = run_pipeline(run.sweeps, config)
                spreads[window] = spread(trajectory.positions("raw")[-10:])
            if spreads[50] < spreads[5]:
                wins += 1
        print(f"  window 50 beats window 5 in {wins}/50 seeds")
        assert wins >= 45


def test_criterion_8_online_batch_equivalence_and_determinism(tmp_path):
    with criterion("8 online/batch equivalence and determinism"):
        scenario, run = benchmark_run(0)
        config = matched_config(scenario, noise=BENCH_NOISE)

        batch = run_pipeline(list(run.sweeps), config)
        pipeline = TrackingPipeline(config)
        for sweep in run.sweeps:
            pipeline.process(sweep)
        online = pipeline.finish()
        assert batch.held_steps == 0
        assert online.steps == batch.steps

        again = run_pipeline(list(run.sweeps), config)
        assert again.steps == batch.steps

        t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        write_trajectory_csv(batch, t1)
        write_trajectory_csv(again, t2)
        assert t1.read_bytes() == t2.read_bytes()

        s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        write_sweep_csv(simulate_run(scenario).sweeps, s1, config.plan)
        write_sweep_csv(simulate_run(scenario).sweeps, s2, config.plan)
        assert s1.read_bytes() == s2.read_bytes()
