import functools
import math

import numpy as np
import pytest

from sweepnav import (
    EkfTracker,
    Landmark,
    NoiseConfig,
    SingularGeometryError,
    TrackState,
    matched_config,
    predict,
    range_jacobian,
    range_measurement,
    run_pipeline,
    update,
)
from sweepnav import pipeline
from sweepnav.ekf import min_eig_2x2
from test_acceptance import BENCH_NOISE, CovarianceAudit, benchmark_run, monitor_kernels, random_walk_tracks


def state(x, y, p):
    return TrackState(position=(x, y), covariance=np.eye(2) * p)


class TestPredict:
    def test_zero_input_adds_process_noise_only(self):
        noise = NoiseConfig()
        out = predict(state(1.0, 2.0, 1.0), 1.0, (0.0, 0.0), noise)
        np.testing.assert_array_equal(out.position, [1.0, 2.0])
        np.testing.assert_allclose(out.covariance, np.eye(2) * 1.1, atol=1e-15)

    def test_velocity_integration(self):
        out = predict(state(0.0, 0.0, 1.0), 1.0, (2.0, 1.0), NoiseConfig())
        np.testing.assert_array_equal(out.position, [2.0, 1.0])

    def test_zero_covariance_becomes_q(self):
        noise = NoiseConfig()
        start = TrackState(position=(0.0, 0.0), covariance=np.zeros((2, 2)))
        out = predict(start, 1.0, (0.0, 0.0), noise)
        np.testing.assert_allclose(out.covariance, np.eye(2) * 0.1, atol=1e-15)

    def test_fractional_timestep(self):
        out = predict(state(0.0, 0.0, 1.0), 0.5, (2.0, 4.0), NoiseConfig())
        np.testing.assert_allclose(out.position, [1.0, 2.0], atol=1e-15)

    def test_rejects_non_psd_covariance(self):
        bad = TrackState(position=(0.0, 0.0), covariance=np.array([[1.0, 0.0], [0.0, -1.0]]))
        with pytest.raises(ValueError):
            predict(bad, 1.0, (0.0, 0.0), NoiseConfig())

    def test_rejects_nonpositive_timestep(self):
        with pytest.raises(ValueError):
            predict(state(0.0, 0.0, 1.0), 0.0, (0.0, 0.0), NoiseConfig())


class TestRangeModel:
    def test_three_four_five(self):
        assert range_measurement(state(0.0, 0.0, 1.0), Landmark(3.0, 4.0)) == 5.0

    def test_coincident_is_zero(self):
        assert range_measurement(state(3.0, 4.0, 1.0), Landmark(3.0, 4.0)) == 0.0

    def test_symmetry(self):
        a = state(1.0, 2.0, 1.0)
        b = Landmark(-4.0, 7.5)
        assert range_measurement(a, b) == range_measurement(state(b.x, b.y, 1.0), Landmark(1.0, 2.0))

    def test_jacobian_values(self):
        h = range_jacobian(state(0.0, 0.0, 1.0), Landmark(3.0, 4.0))
        np.testing.assert_allclose(h, [-0.6, -0.8], atol=1e-15)

    def test_jacobian_axis_aligned(self):
        h = range_jacobian(state(5.0, 0.0, 1.0), Landmark(0.0, 0.0))
        np.testing.assert_allclose(h, [1.0, 0.0], atol=1e-15)

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            px, py = rng.uniform(-100, 100, 2)
            lx, ly = rng.uniform(-100, 100, 2)
            if math.hypot(px - lx, py - ly) < 0.1:
                continue
            landmark = Landmark(lx, ly)
            h = range_jacobian(state(px, py, 1.0), landmark)
            eps = 1e-5
            fd = [
                (
                    range_measurement(state(px + dx, py + dy, 1.0), landmark)
                    - range_measurement(state(px - dx, py - dy, 1.0), landmark)
                )
                / (2 * eps)
                for dx, dy in ((eps, 0.0), (0.0, eps))
            ]
            np.testing.assert_allclose(h, fd, atol=1e-6)

    def test_coincident_jacobian_raises(self):
        with pytest.raises(SingularGeometryError):
            range_jacobian(state(1.0, 1.0, 1.0), Landmark(1.0, 1.0))


class TestUpdate:
    def test_zero_innovation_keeps_position_bits(self):
        noise = NoiseConfig()
        start = state(1.25, -3.75, 2.0)
        landmark = Landmark(10.0, 5.0)
        z = range_measurement(start, landmark)
        out = update(start, z, landmark, noise)
        assert out.position[0] == start.position[0]
        assert out.position[1] == start.position[1]
        assert np.trace(out.covariance) < np.trace(start.covariance)

    def test_zero_covariance_ignores_measurement(self):
        noise = NoiseConfig()
        start = TrackState(position=(2.0, 3.0), covariance=np.zeros((2, 2)))
        out = update(start, 99.0, Landmark(10.0, 3.0), noise)
        np.testing.assert_array_equal(out.position, [2.0, 3.0])

    def test_hand_computed_gain(self):
        # H = [-1, 0], S = 1.01, K = [-1/1.01, 0]
        noise = NoiseConfig(q=np.eye(2) * 0.1, r=0.01)
        start = state(0.0, 0.0, 1.0)
        out = update(start, 11.0, Landmark(10.0, 0.0), noise)
        assert out.position[0] == pytest.approx(-1.0 / 1.01, rel=1e-12)
        assert out.position[1] == pytest.approx(0.0, abs=1e-15)

    def test_negative_range_rejected(self):
        with pytest.raises(ValueError):
            update(state(0.0, 0.0, 1.0), -1.0, Landmark(5.0, 0.0), NoiseConfig())

    def test_rejects_non_psd_covariance(self):
        bad = TrackState(position=(0.0, 0.0), covariance=np.array([[1.0, 0.0], [0.0, -1.0]]))
        with pytest.raises(ValueError):
            update(bad, 5.0, Landmark(5.0, 0.0), NoiseConfig())

    def test_covariance_stays_symmetric_psd(self):
        rng = np.random.default_rng(9)
        noise = NoiseConfig(q=np.eye(2) * 0.1, r=0.5)
        current = state(0.0, 0.0, 5.0)
        for _ in range(200):
            current = predict(current, 1.0, rng.uniform(-2, 2, 2), noise)
            landmark = Landmark(*rng.uniform(-50, 50, 2))
            z = max(0.0, range_measurement(current, landmark) + rng.normal(0, 0.5))
            before = np.trace(current.covariance)
            current = update(current, z, landmark, noise)
            p = current.covariance
            assert abs(p[0, 1] - p[1, 0]) < 1e-9
            assert min_eig_2x2(p) > -1e-9
            assert np.trace(p) <= before + 1e-12


class TestTracker:
    def test_monitor_sees_every_phase(self, monkeypatch):
        events = []
        monitor_kernels(monkeypatch, lambda phase, cov: events.append(phase))
        tracker = EkfTracker(x0=(0.0, 0.0), p0=np.eye(2) * 10.0, noise=NoiseConfig())
        lm = Landmark(10.0, 0.0, 0)
        tracker.step(1.0, (1.0, 0.0), [(lm, 9.0), (Landmark(1.0, 0.0, 1), 0.0), (lm, 9.0)])
        # the second landmark coincides with the prediction and is skipped
        assert events == ["predict", "update", "update"]

    def test_skipped_landmark_flag(self):
        tracker = EkfTracker(x0=(0.0, 0.0), p0=np.eye(2), noise=NoiseConfig())
        lm = Landmark(0.0, 0.0, 0)  # coincides with the predicted state
        step = tracker.step(1.0, (0.0, 0.0), [(lm, 0.0)])
        assert "skipped_landmark" in step.flags
        assert "no_update" in step.flags
        assert step.innovations == ()


class TestTrack:
    def test_constant_scene_convergence(self):
        # stationary target observed from an offset start; zero process noise
        noise = NoiseConfig(q=np.zeros((2, 2)), r=0.01)
        target = (5.0, 5.0)
        tracker = EkfTracker(x0=(9.0, 8.0), p0=np.eye(2) * 10.0, noise=noise)
        landmark = Landmark(*target, 0)
        traces = [np.trace(tracker.state.covariance)]
        for _ in range(30):
            step = tracker.step(1.0, (0.0, 0.0), [(landmark, 0.0)])
            traces.append(np.trace(step.covariance))
        assert math.hypot(step.position[0] - target[0], step.position[1] - target[1]) < 1e-3
        assert traces[1] < traces[0]
        assert all(b <= a + 1e-12 for a, b in zip(traces, traces[1:]))


class TestNoiseConfig:
    def test_default_values(self):
        noise = NoiseConfig()
        np.testing.assert_array_equal(noise.q, np.eye(2) * 0.1)
        assert noise.r == 0.01

    def test_rejects_negative_r(self):
        with pytest.raises(ValueError):
            NoiseConfig(r=0.0)

    def test_rejects_asymmetric_q(self):
        with pytest.raises(ValueError):
            NoiseConfig(q=np.array([[0.1, 0.2], [0.0, 0.1]]))

    def test_rejects_indefinite_q(self):
        with pytest.raises(ValueError):
            NoiseConfig(q=np.array([[1.0, 0.0], [0.0, -0.5]]))


# Reference: the matrix form of the filter equations, as numpy evaluates
# them. The float kernel must agree with it to rounding; numpy's BLAS may
# fuse multiply-adds, so bitwise equality is not expected.
REL_TOL = 1e-12


def reference_predict(state, dt, u, noise):
    if dt <= 0:
        raise ValueError("timestep must be positive")
    position = state.position + dt * np.asarray(u, dtype=float).reshape(2)
    covariance = state.covariance + noise.q
    covariance = (covariance + covariance.T) / 2.0
    return TrackState(position=position, covariance=covariance)


def reference_update(state, z, landmark, noise):
    if z < 0:
        raise ValueError("range measurement must be non-negative")
    h = range_jacobian(state, landmark)
    p = state.covariance
    innovation_var = float(h @ p @ h) + noise.r
    gain = (p @ h) / innovation_var
    predicted = range_measurement(state, landmark)
    position = state.position + gain * (z - predicted)
    covariance = (np.eye(2) - np.outer(gain, h)) @ p
    covariance = (covariance + covariance.T) / 2.0
    return TrackState(position=position, covariance=covariance)


class ReferenceTracker:
    """EkfTracker's step logic over the reference equations; ``sink`` gets
    the events ``monitor_kernels`` reports for the real tracker."""

    def __init__(self, x0, p0, noise, sink=None):
        self.state = TrackState(position=x0, covariance=p0)
        self.noise, self.sink = noise, sink

    def step(self, dt, u, measurements, timestamp=0.0):
        state = reference_predict(self.state, dt, u, self.noise)
        if self.sink is not None:
            self.sink("predict", state.covariance.copy())
        innovations, flags = [], []
        for landmark, z in measurements:
            try:
                predicted = range_measurement(state, landmark)
                state = reference_update(state, z, landmark, self.noise)
            except SingularGeometryError:
                flags.append("skipped_landmark")
                continue
            innovations.append((landmark.source_index, z - predicted))
            if self.sink is not None:
                self.sink("update", state.covariance.copy())
        if measurements and not innovations:
            flags.append("no_update")
        self.state = state
        return state, innovations, flags


def assert_close(actual, expected):
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    scale = max(float(np.max(np.abs(expected))), 1.0)
    assert float(np.max(np.abs(actual - expected))) <= REL_TOL * scale, (actual, expected)


def random_state(rng):
    a = rng.normal(0.0, rng.uniform(0.1, 30.0), (2, 2))
    covariance = a @ a.T + np.eye(2) * rng.uniform(0.0, 1.0)
    return TrackState(position=rng.uniform(-500.0, 500.0, 2), covariance=covariance)


class TestKernelAgainstReference:
    def test_predict(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            state, dt = random_state(rng), rng.uniform(0.1, 5.0)
            noise = NoiseConfig(q=np.diag(rng.uniform(0.0, 5.0, 2)), r=1.0)
            u = rng.uniform(-20.0, 20.0, 2)
            out, ref = predict(state, dt, u, noise), reference_predict(state, dt, u, noise)
            assert_close(out.position, ref.position)
            assert_close(out.covariance, ref.covariance)

    def test_update(self):
        rng = np.random.default_rng(12)
        for _ in range(2000):
            state = random_state(rng)
            noise = NoiseConfig(r=rng.uniform(0.01, 300.0))
            landmark = Landmark(*rng.uniform(-500.0, 500.0, 2))
            z = max(0.0, range_measurement(state, landmark) + rng.normal(0.0, 50.0))
            out, ref = update(state, z, landmark, noise), reference_update(state, z, landmark, noise)
            assert_close(out.position, ref.position)
            assert_close(out.covariance, ref.covariance)

    def test_tracker_sequence(self):
        rng = np.random.default_rng(13)
        noise = NoiseConfig(q=np.eye(2) * 0.1, r=200.0)
        landmarks = [Landmark(*rng.uniform(-500.0, 500.0, 2), i) for i in range(6)]
        tracker = EkfTracker(x0=(0.0, 0.0), p0=np.eye(2) * 10.0, noise=noise)
        reference = ReferenceTracker((0.0, 0.0), np.eye(2) * 10.0, noise)
        truth = np.zeros(2)
        for _ in range(300):
            u = rng.uniform(-10.0, 10.0, 2)
            truth = truth + u
            measurements = [
                (lm, max(0.0, math.hypot(truth[0] - lm.x, truth[1] - lm.y) + rng.normal(0.0, 15.0)))
                for lm in landmarks
            ]
            step = tracker.step(1.0, u, measurements)
            ref_state, ref_innovations, ref_flags = reference.step(1.0, u, measurements)
            # the step keeps plain floats; the matrix is built on access
            assert len(step.covariance_terms) == 3 and all(isinstance(v, float) for v in step.covariance_terms)
            assert step.covariance.tolist() == [list(step.covariance_terms[:2]), list(step.covariance_terms[1:])]
            assert_close(step.position, ref_state.position)
            assert_close(step.covariance, ref_state.covariance)
            assert [i for i, _ in step.innovations] == [i for i, _ in ref_innovations]
            assert_close([v for _, v in step.innovations], [v for _, v in ref_innovations])
            assert list(step.flags) == ref_flags

    def test_coincident_landmark_flags_match(self):
        noise = NoiseConfig()
        coincident = Landmark(2.0, 2.0, 0)  # where the prediction lands
        far = Landmark(50.0, -20.0, 1)
        for measurements, expected in (
            ([(coincident, 0.0)], ["skipped_landmark", "no_update"]),
            ([(coincident, 0.0), (far, 40.0)], ["skipped_landmark"]),
        ):
            tracker = EkfTracker(x0=(1.0, 2.0), p0=np.eye(2), noise=noise)
            reference = ReferenceTracker((1.0, 2.0), np.eye(2), noise)
            step = tracker.step(1.0, (1.0, 0.0), measurements)
            ref_state, ref_innovations, ref_flags = reference.step(1.0, (1.0, 0.0), measurements)
            assert list(step.flags) == ref_flags == expected
            assert [i for i, _ in step.innovations] == [i for i, _ in ref_innovations]
            assert_close(step.position, ref_state.position)

    def test_negative_range_rejected_in_step(self):
        tracker = EkfTracker(x0=(0.0, 0.0), p0=np.eye(2), noise=NoiseConfig())
        with pytest.raises(ValueError):
            tracker.step(1.0, (0.0, 0.0), [(Landmark(5.0, 0.0, 0), -1.0)])
        assert tracker.state.position.tolist() == [0.0, 0.0]


class TwinTracker:
    """Steps the real tracker and the reference side by side."""

    def __init__(self, x0, p0, noise, *, registry, ref_sink):
        self.real = EkfTracker(x0, p0, noise)
        self.ref = ReferenceTracker(x0, p0, noise, ref_sink)
        registry.append(self)

    @property
    def state(self):
        return self.real.state

    def step(self, dt, u, measurements, timestamp=0.0):
        self.ref.step(dt, u, measurements, timestamp)
        return self.real.step(dt, u, measurements, timestamp)


def test_covariance_audit_sees_reference_events(monkeypatch):
    """On criterion 5's inputs the audit gets the matrix form's event sequence."""
    twins, events, ref_events = [], [], []
    monitor_kernels(monkeypatch, lambda phase, cov: events.append((phase, cov)))
    make_twin = functools.partial(TwinTracker, registry=twins, ref_sink=lambda phase, cov: ref_events.append((phase, cov)))
    monkeypatch.setattr(pipeline, "EkfTracker", make_twin)
    for seed in range(5):
        scenario, run = benchmark_run(seed)
        run_pipeline(run.sweeps, matched_config(scenario, noise=BENCH_NOISE))
    random_walk_tracks(make_twin)

    audit, ref_audit = CovarianceAudit(), CovarianceAudit()
    assert len(twins) == 25
    # the twins step one after another, so the two streams align event by event
    assert [phase for phase, _ in events] == [phase for phase, _ in ref_events]
    for (phase, cov), (_, ref_cov) in zip(events, ref_events):
        assert_close(cov, ref_cov)
        audit(phase, cov)
        ref_audit(phase, ref_cov)
    assert audit.update_events == ref_audit.update_events == 10_860
    audit.assert_clean()
