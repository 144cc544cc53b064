import functools
import math
from typing import NamedTuple

import numpy as np
import pytest

from sweepnav import (
    ConfigError,
    EkfTracker,
    FilterDivergenceError,
    Landmark,
    NoiseConfig,
    SingularGeometryError,
    ekf,
    matched_config,
    run_pipeline,
)
from sweepnav import pipeline
from sweepnav.ekf import DEFAULT_MIN_RANGE
from test_acceptance import (
    BENCH_NOISE,
    CovarianceAudit,
    benchmark_run,
    covariance_matrix,
    kernel_jacobian,
    kernel_range,
    monitor_kernels,
    random_walk_tracks,
)


def terms(x, y, p):
    """Kernel terms of a state at (x, y) with covariance p * I."""
    return (x, y, p, 0.0, p)


def q_terms(noise):
    q = noise.q
    return (q[0][0], q[0][1], q[1][1])


DEFAULT_Q = q_terms(NoiseConfig())


class TestPredict:
    def test_zero_input_adds_process_noise_only(self):
        out = ekf.predict(terms(1.0, 2.0, 1.0), 1.0, 0.0, 0.0, DEFAULT_Q)
        assert out[:2] == (1.0, 2.0)
        np.testing.assert_allclose(covariance_matrix(*out[2:]), np.eye(2) * 1.1, atol=1e-15)

    def test_velocity_integration(self):
        out = ekf.predict(terms(0.0, 0.0, 1.0), 1.0, 2.0, 1.0, DEFAULT_Q)
        assert out[:2] == (2.0, 1.0)

    def test_zero_covariance_becomes_q(self):
        out = ekf.predict(terms(0.0, 0.0, 0.0), 1.0, 0.0, 0.0, DEFAULT_Q)
        np.testing.assert_allclose(covariance_matrix(*out[2:]), np.eye(2) * 0.1, atol=1e-15)

    def test_fractional_timestep(self):
        out = ekf.predict(terms(0.0, 0.0, 1.0), 0.5, 2.0, 4.0, DEFAULT_Q)
        np.testing.assert_allclose(out[:2], [1.0, 2.0], atol=1e-15)

    def test_rejects_non_psd_covariance(self):
        # a diverged filter is a run fault, not bad input: the CLI reports it as a failed run
        for covariance in ((1.0, 0.0, -1.0), (math.nan, 0.0, 1.0)):
            with pytest.raises(FilterDivergenceError, match="diverged") as caught:
                ekf.predict((0.0, 0.0, *covariance), 1.0, 0.0, 0.0, DEFAULT_Q)
            assert not isinstance(caught.value, ValueError)

    def test_rejects_nonpositive_timestep(self):
        with pytest.raises(ValueError):
            ekf.predict(terms(0.0, 0.0, 1.0), 0.0, 0.0, 0.0, DEFAULT_Q)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_timestep(self, dt):
        with pytest.raises(ValueError, match="timestep"):
            ekf.predict(terms(0.0, 0.0, 1.0), dt, 0.0, 0.0, DEFAULT_Q)

    @pytest.mark.parametrize("u", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0), (math.inf, math.nan)])
    def test_rejects_non_finite_velocity(self, u):
        with pytest.raises(ValueError, match="velocity"):
            ekf.predict(terms(0.0, 0.0, 1.0), 1.0, *u, DEFAULT_Q)


class TestRangeModel:
    def test_three_four_five(self):
        assert kernel_range(0.0, 0.0, Landmark(3.0, 4.0)) == 5.0

    def test_coincident_is_zero(self):
        # the range falls to zero at the landmark, down to where its direction is undefined
        assert kernel_range(3.0 + 1e-5, 4.0, Landmark(3.0, 4.0)) == pytest.approx(1e-5, rel=1e-9)

    def test_symmetry(self):
        assert kernel_range(1.0, 2.0, Landmark(-4.0, 7.5)) == kernel_range(-4.0, 7.5, Landmark(1.0, 2.0))

    def test_jacobian_values(self):
        h = kernel_jacobian(0.0, 0.0, Landmark(3.0, 4.0))
        np.testing.assert_allclose(h, [-0.6, -0.8], atol=1e-15)

    def test_jacobian_axis_aligned(self):
        h = kernel_jacobian(5.0, 0.0, Landmark(0.0, 0.0))
        np.testing.assert_allclose(h, [1.0, 0.0], atol=1e-15)

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            px, py = rng.uniform(-100, 100, 2)
            lx, ly = rng.uniform(-100, 100, 2)
            if math.hypot(px - lx, py - ly) < 0.1:
                continue
            landmark = Landmark(lx, ly)
            h = kernel_jacobian(px, py, landmark)
            eps = 1e-5
            fd = [
                (kernel_range(px + dx, py + dy, landmark) - kernel_range(px - dx, py - dy, landmark)) / (2 * eps)
                for dx, dy in ((eps, 0.0), (0.0, eps))
            ]
            np.testing.assert_allclose(h, fd, atol=1e-6)

    def test_coincident_jacobian_raises(self):
        with pytest.raises(SingularGeometryError):
            ekf.update(terms(1.0, 1.0, 1.0), 0.0, 1.0, 1.0, 0.01)


class TestUpdate:
    def test_zero_innovation_keeps_position_bits(self):
        start = terms(1.25, -3.75, 2.0)
        landmark = Landmark(10.0, 5.0)
        z = kernel_range(1.25, -3.75, landmark)
        out, innovation = ekf.update(start, z, landmark.x, landmark.y, 0.01)
        assert innovation == 0.0
        assert out[:2] == start[:2]
        assert out[2] + out[4] < start[2] + start[4]

    def test_zero_covariance_ignores_measurement(self):
        out, _ = ekf.update(terms(2.0, 3.0, 0.0), 99.0, 10.0, 3.0, 0.01)
        assert out[:2] == (2.0, 3.0)

    def test_hand_computed_gain(self):
        # H = [-1, 0], S = 1.01, K = [-1/1.01, 0]
        out, _ = ekf.update(terms(0.0, 0.0, 1.0), 11.0, 10.0, 0.0, 0.01)
        assert out[0] == pytest.approx(-1.0 / 1.01, rel=1e-12)
        assert out[1] == pytest.approx(0.0, abs=1e-15)

    def test_negative_range_rejected(self):
        with pytest.raises(ValueError):
            ekf.update(terms(0.0, 0.0, 1.0), -1.0, 5.0, 0.0, 0.01)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_non_finite_range_rejected(self, z):
        with pytest.raises(ValueError, match="finite"):
            ekf.update(terms(0.0, 0.0, 1.0), z, 5.0, 0.0, 0.01)

    def test_rejects_non_psd_covariance(self):
        # update trusts its covariance; a non-PSD one is stopped where it enters the filter
        with pytest.raises(ConfigError):
            EkfTracker(x0=(0.0, 0.0), p0=np.array([[1.0, 0.0], [0.0, -1.0]]), noise=NoiseConfig())

    def test_covariance_stays_symmetric_psd(self):
        rng = np.random.default_rng(9)
        q, r = q_terms(NoiseConfig(q=np.eye(2) * 0.1)), 0.5
        current = terms(0.0, 0.0, 5.0)
        for _ in range(200):
            current = ekf.predict(current, 1.0, *rng.uniform(-2, 2, 2), q)
            landmark = Landmark(*rng.uniform(-50, 50, 2))
            z = max(0.0, kernel_range(current[0], current[1], landmark) + rng.normal(0, 0.5))
            before = current[2] + current[4]
            current, _ = ekf.update(current, z, landmark.x, landmark.y, r)
            assert np.linalg.eigvalsh(covariance_matrix(*current[2:]))[0] > -1e-9
            assert current[2] + current[4] <= before + 1e-12


class TestTracker:
    def test_monitor_sees_every_phase(self, monkeypatch):
        events = []
        monitor_kernels(monkeypatch, lambda phase, cov: events.append(phase))
        tracker = EkfTracker(x0=(0.0, 0.0), p0=np.eye(2) * 10.0, noise=NoiseConfig())
        lm = Landmark(10.0, 0.0, 0)
        tracker.step(1.0, (1.0, 0.0), [(lm, 9.0), (Landmark(1.0, 0.0, 1), 0.0), (lm, 9.0)])
        # the second landmark coincides with the prediction and is skipped
        assert events == ["predict", "update", "update"]

    def test_step_calls_the_public_kernels(self, monkeypatch):
        calls = []
        for name in ("predict", "update"):

            def counted(*args, name=name, kernel=getattr(ekf, name)):
                calls.append(name)
                return kernel(*args)

            monkeypatch.setattr(ekf, name, counted)
        tracker = EkfTracker(x0=(0.0, 0.0), p0=np.eye(2) * 10.0, noise=NoiseConfig())
        lm = Landmark(10.0, 0.0, 0)
        step = tracker.step(1.0, (1.0, 0.0), [(lm, 9.0), (Landmark(1.0, 0.0, 1), 0.0), (lm, 9.0)])
        # one update per offered landmark, the skipped one included
        assert calls == ["predict", "update", "update", "update"]
        assert step.flags == ("skipped_landmark",)

    @pytest.mark.parametrize("field", ["position", "covariance_terms", "innovations", "flags"])
    def test_step_fields_cannot_be_assigned(self, field):
        tracker = EkfTracker(x0=(0.0, 0.0), p0=np.eye(2), noise=NoiseConfig())
        step = tracker.step(1.0, (1.0, 0.0), [(Landmark(10.0, 0.0, 0), 9.0)])
        with pytest.raises(AttributeError):
            setattr(step, field, getattr(step, field))
        assert step.position == (step.position[0], step.position[1]) and step.innovations[0][0] == 0

    def test_skipped_landmark_flag(self):
        tracker = EkfTracker(x0=(0.0, 0.0), p0=np.eye(2), noise=NoiseConfig())
        lm = Landmark(0.0, 0.0, 0)  # coincides with the predicted state
        step = tracker.step(1.0, (0.0, 0.0), [(lm, 0.0)])
        assert "skipped_landmark" in step.flags
        assert "no_update" in step.flags
        assert step.innovations == ()

    @pytest.mark.parametrize("empty", [lambda: [], lambda: iter([]), lambda: zip([], []), lambda: ()],
                             ids=["list", "iter", "zip", "tuple"])
    def test_no_measurement_offered_is_not_flagged(self, empty):
        # an empty iterator is truthy: the flag follows what the loop was offered, not the argument's truth
        tracker = EkfTracker(x0=(0.0, 0.0), p0=np.eye(2), noise=NoiseConfig())
        step = tracker.step(1.0, (1.0, 0.0), empty())
        assert step.flags == () and step.innovations == ()
        assert step.position == (1.0, 0.0)

    @pytest.mark.parametrize("wrap", [list, iter])
    def test_every_landmark_skipped_is_flagged(self, wrap):
        tracker = EkfTracker(x0=(0.0, 0.0), p0=np.eye(2), noise=NoiseConfig())
        coincident = Landmark(1.0, 0.0, 0)  # where the prediction lands
        step = tracker.step(1.0, (1.0, 0.0), wrap([(coincident, 0.0), (coincident._replace(source_index=1), 0.0)]))
        assert step.flags == ("skipped_landmark", "skipped_landmark", "no_update")
        assert step.innovations == () and step.position == (1.0, 0.0)


class TestTrack:
    def test_constant_scene_convergence(self):
        # stationary target observed from an offset start; zero process noise
        noise = NoiseConfig(q=np.zeros((2, 2)), r=0.01)
        target = (5.0, 5.0)
        tracker = EkfTracker(x0=(9.0, 8.0), p0=np.eye(2) * 10.0, noise=noise)
        landmark = Landmark(*target, 0)
        traces = [20.0]
        for _ in range(30):
            step = tracker.step(1.0, (0.0, 0.0), [(landmark, 0.0)])
            traces.append(step.covariance_terms[0] + step.covariance_terms[2])
        assert math.hypot(step.position[0] - target[0], step.position[1] - target[1]) < 1e-3
        assert traces[1] < traces[0]
        assert all(b <= a + 1e-12 for a, b in zip(traces, traces[1:]))


class TestNoiseConfig:
    def test_default_values(self):
        noise = NoiseConfig()
        np.testing.assert_array_equal(noise.q, np.eye(2) * 0.1)
        assert noise.r == 0.01

    def test_any_2x2_form_is_kept_as_float_pairs(self):
        noise = NoiseConfig(q=np.eye(2) * 0.1)
        assert noise == NoiseConfig() and noise.q == ((0.1, 0.0), (0.0, 0.1))
        assert all(type(v) is float for row in noise.q for v in row)
        assert hash(noise) == hash(NoiseConfig())

    @pytest.mark.parametrize("r", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_negative_r(self, r):
        # an infinite R makes every gain 0: the filter would ignore every range
        with pytest.raises(ConfigError, match="R must be positive and finite"):
            NoiseConfig(r=r)

    def test_rejects_asymmetric_q(self):
        with pytest.raises(ConfigError):
            NoiseConfig(q=np.array([[0.1, 0.2], [0.0, 0.1]]))

    def test_rejects_indefinite_q(self):
        with pytest.raises(ConfigError):
            NoiseConfig(q=np.array([[1.0, 0.0], [0.0, -0.5]]))


# (matrix, accepted): the same verdict whether the matrix is Q or P0
COVARIANCE_CASES = [
    (np.eye(2) * 0.1, True),
    (((4.0, 1.0), (1.000005, 4.0)), False),  # asymmetric beyond SYMMETRY_TOL
    (((math.nan, 0.0), (0.0, 1.0)), False),
    (((math.inf, 0.0), (0.0, 1.0)), False),
    (np.eye(3), False),
    (np.zeros(4), False),
    (((1.0, 0.0), (0.0, -0.5)), False),  # indefinite
    (((1.7e308, 0.85e308), (0.85e308, 0.2e308)), False),  # indefinite; its trace overflows
    (((1.7e308, 0.0), (0.0, 1.7e308)), True),
]


@pytest.mark.parametrize("matrix, accepted", COVARIANCE_CASES)
def test_q_and_p0_get_one_verdict(matrix, accepted):
    def verdict(make):
        try:
            make()
        except ConfigError:
            return False
        return True

    as_q = verdict(lambda: NoiseConfig(q=matrix))
    as_p0 = verdict(lambda: EkfTracker(x0=(0.0, 0.0), p0=matrix, noise=NoiseConfig()))
    assert as_q == as_p0 == accepted


# Reference: the matrix form of the filter equations, as numpy evaluates
# them. The float kernels must agree with it to rounding; numpy's BLAS may
# fuse multiply-adds, so bitwise equality is not expected.
REL_TOL = 1e-12


class State(NamedTuple):
    position: np.ndarray
    covariance: np.ndarray


def reference_predict(state, dt, u, noise):
    if dt <= 0:
        raise ValueError("timestep must be positive")
    position = state.position + dt * np.asarray(u, dtype=float).reshape(2)
    covariance = state.covariance + noise.q
    covariance = (covariance + covariance.T) / 2.0
    return State(position, covariance)


def reference_update(state, z, landmark, noise):
    """The updated state and the innovation."""
    if z < 0:
        raise ValueError("range measurement must be non-negative")
    offset = state.position - (landmark.x, landmark.y)
    predicted = math.hypot(*offset)
    if predicted <= DEFAULT_MIN_RANGE:
        raise SingularGeometryError("range direction undefined")
    h = offset / predicted
    p = state.covariance
    innovation_var = float(h @ p @ h) + noise.r
    gain = (p @ h) / innovation_var
    position = state.position + gain * (z - predicted)
    covariance = (np.eye(2) - np.outer(gain, h)) @ p
    covariance = (covariance + covariance.T) / 2.0
    return State(position, covariance), z - predicted


def kernel_terms(state):
    """The kernel's (x, y, p00, p01, p11) of a reference state."""
    (x, y), p = state.position, state.covariance
    return (x, y, p[0, 0], (p[0, 1] + p[1, 0]) / 2.0, p[1, 1])


class ReferenceTracker:
    """EkfTracker's step logic over the reference equations; ``sink`` gets
    the events ``monitor_kernels`` reports for the real tracker."""

    def __init__(self, x0, p0, noise, sink=None):
        self.state = State(np.asarray(x0, dtype=float).reshape(2), np.asarray(p0, dtype=float).reshape(2, 2))
        self.noise, self.sink = noise, sink

    def step(self, dt, u, measurements):
        state = reference_predict(self.state, dt, u, self.noise)
        if self.sink is not None:
            self.sink("predict", state.covariance.copy())
        innovations, flags = [], []
        for landmark, z in measurements:
            try:
                state, innovation = reference_update(state, z, landmark, self.noise)
            except SingularGeometryError:
                flags.append("skipped_landmark")
                continue
            innovations.append((landmark.source_index, innovation))
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
    return State(rng.uniform(-500.0, 500.0, 2), covariance)


class TestKernelAgainstReference:
    def test_predict(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            state, dt = random_state(rng), rng.uniform(0.1, 5.0)
            noise = NoiseConfig(q=np.diag(rng.uniform(0.0, 5.0, 2)), r=1.0)
            u = rng.uniform(-20.0, 20.0, 2)
            out = ekf.predict(kernel_terms(state), dt, *u, q_terms(noise))
            ref = reference_predict(state, dt, u, noise)
            assert_close(out[:2], ref.position)
            assert_close(covariance_matrix(*out[2:]), ref.covariance)

    def test_update(self):
        rng = np.random.default_rng(12)
        for _ in range(2000):
            state = random_state(rng)
            noise = NoiseConfig(r=rng.uniform(0.01, 300.0))
            landmark = Landmark(*rng.uniform(-500.0, 500.0, 2))
            z = max(0.0, kernel_range(*state.position, landmark) + rng.normal(0.0, 50.0))
            (out, innovation), (ref, ref_innovation) = (
                ekf.update(kernel_terms(state), z, landmark.x, landmark.y, noise.r),
                reference_update(state, z, landmark, noise),
            )
            assert_close(out[:2], ref.position)
            assert_close(covariance_matrix(*out[2:]), ref.covariance)
            assert_close(innovation, ref_innovation)

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
            # the step keeps plain floats
            assert len(step.covariance_terms) == 3 and all(isinstance(v, float) for v in step.covariance_terms)
            assert_close(step.position, ref_state.position)
            assert_close(covariance_matrix(*step.covariance_terms), ref_state.covariance)
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
        # the failed step committed nothing, not even its prediction
        step = tracker.step(1.0, (0.0, 0.0), [])
        assert step.position == (0.0, 0.0)
        assert step.covariance_terms == pytest.approx((1.1, 0.0, 1.1), abs=1e-15)

    @pytest.mark.parametrize(
        "dt, u, z",
        [
            (1.0, (0.0, 0.0), math.nan),
            (1.0, (0.0, 0.0), math.inf),
            (1.0, (0.0, 0.0), -math.inf),
            (math.nan, (0.0, 0.0), 5.0),
            (math.inf, (0.0, 0.0), 5.0),
            (-math.inf, (0.0, 0.0), 5.0),
            (1.0, (math.nan, 0.0), 5.0),
            (1.0, (0.0, math.inf), 5.0),
            (1.0, (-math.inf, 0.0), 5.0),
            # finite, but dt * u overflows: the position once went to inf, then NaN, with no flag
            (1e300, (1e300, 0.0), 5.0),
            (1e300, (0.0, -1e300), 5.0),
        ],
    )
    def test_non_finite_input_rejected_in_step(self, dt, u, z):
        # before these checks a NaN range gave a NaN position with no flag, and
        # every later step stayed NaN while P stayed finite, so no divergence fired
        tracker = EkfTracker(x0=(0.0, 0.0), p0=np.eye(2), noise=NoiseConfig())
        with pytest.raises(ValueError):
            tracker.step(dt, u, [(Landmark(10.0, 0.0, 0), z)])
        # the failed step committed nothing, not even its prediction
        step = tracker.step(1.0, (0.0, 0.0), [])
        assert step.position == (0.0, 0.0)
        assert step.covariance_terms == pytest.approx((1.1, 0.0, 1.1), abs=1e-15)


class TwinTracker:
    """Steps the real tracker and the reference side by side."""

    def __init__(self, x0, p0, noise, *, registry, ref_sink):
        self.real = EkfTracker(x0, p0, noise)
        self.ref = ReferenceTracker(x0, p0, noise, ref_sink)
        registry.append(self)

    def step(self, dt, u, measurements):
        self.ref.step(dt, u, measurements)
        return self.real.step(dt, u, measurements)


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
