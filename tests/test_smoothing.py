import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweepnav import Smoother, SmootherConfig
from sweepnav.errors import ConfigError
from sweepnav.smoothing import MAX_WINDOW, _weighted_mean
from test_acceptance import smoothed


def numpy_wma(points, weights):
    """The numpy equations the weighted mean used before the float kernel."""
    pts = np.asarray(points, dtype=float)
    w = np.asarray(weights, dtype=float)
    w = w / w[0]
    out = (w @ pts) / w.sum()
    out = np.clip(out, pts.min(axis=0), pts.max(axis=0))
    return float(out[0]), float(out[1])


class TestWma:
    def test_linear_ramp_example(self):
        assert smoothed([(0.0, 0.0), (3.0, 0.0), (6.0, 0.0)]) == (4.0, 0.0)

    def test_constant_positions(self):
        assert smoothed([(2.0, 7.0)] * 3, weights=[0.3, 5.0, 1.7]) == (2.0, 7.0)

    def test_rounding_spill_is_clamped(self):
        # unclamped, these weights round the mean of 99.262 to 99.26200000000001
        assert smoothed([(99.262, -99.262)] * 3, weights=[2.6, 4.1, 5.6]) == (99.262, -99.262)

    def test_equal_weights_match_sma(self):
        points = [(0.0, 0.0), (3.0, 0.0), (6.0, 0.0)]
        assert smoothed(points, weights=[1.0] * 3) == (3.0, 0.0)

    def test_empty_window_rejected(self):
        with pytest.raises(ConfigError):
            SmootherConfig(window=0, weights=())

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            SmootherConfig(window=1, weights=(1.0, 2.0))

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ConfigError):
            SmootherConfig(window=2, weights=(1.0, 0.0))


class TestSma:
    def test_midpoint(self):
        assert smoothed([(0.0, 0.0), (6.0, 0.0)], weights=[1.0] * 2) == (3.0, 0.0)

    def test_single_fix_identity(self):
        assert smoothed([(4.25, -3.5)], weights=[1.0]) == (4.25, -3.5)


class TestProperties:
    def test_equal_weight_scale_invariance_is_bit_exact(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            n = int(rng.integers(1, 13))
            points = [tuple(p) for p in rng.uniform(-1e3, 1e3, (n, 2))]
            c = float(rng.uniform(0.1, 10.0))
            assert smoothed(points, weights=[c] * n) == smoothed(points, weights=[1.0] * n)

    def test_output_inside_per_axis_range(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n = int(rng.integers(1, 13))
            points = rng.uniform(-1e3, 1e3, (n, 2))
            weights = rng.uniform(0.05, 5.0, n)
            x, y = smoothed([tuple(p) for p in points], weights=weights)
            assert points[:, 0].min() <= x <= points[:, 0].max()
            assert points[:, 1].min() <= y <= points[:, 1].max()

    def test_shift_equivariance(self):
        rng = np.random.default_rng(43)
        points = [tuple(p) for p in rng.uniform(-50, 50, (5, 2))]
        weights = [1.0, 2.0, 3.0, 4.0, 5.0]
        shift = (101.25, -77.5)
        base = smoothed(points, weights=weights)
        shifted = smoothed([(x + shift[0], y + shift[1]) for x, y in points], weights=weights)
        assert shifted[0] == pytest.approx(base[0] + shift[0], abs=1e-9)
        assert shifted[1] == pytest.approx(base[1] + shift[1], abs=1e-9)


    def test_agrees_with_numpy_reference(self):
        # numpy's ``w @ pts`` rounds differently from a left-to-right sum,
        # so the two differ by an ulp in some draws: compare at 1e-12.
        rng = np.random.default_rng(44)
        for _ in range(500):
            n = int(rng.integers(1, 13))
            points = rng.uniform(-1e3, 1e3, (n, 2)) * 10 ** rng.uniform(-3, 3)
            weights = rng.uniform(0.05, 5.0, n)
            got = smoothed([tuple(p) for p in points], weights=weights)
            ref = numpy_wma(points, weights)
            scale = np.abs(points).max(axis=0)
            assert abs(got[0] - ref[0]) <= 1e-12 * scale[0]
            assert abs(got[1] - ref[1]) <= 1e-12 * scale[1]


def min_max_weighted_mean(points, weights):
    """The weighted mean as it was written with min() and max() calls."""
    sx = sy = total = 0.0
    lo_x = lo_y = math.inf
    hi_x = hi_y = -math.inf
    for (x, y), w in zip(points, weights):
        sx += w * x
        sy += w * y
        total += w
        lo_x, hi_x = min(lo_x, x), max(hi_x, x)
        lo_y, hi_y = min(lo_y, y), max(hi_y, y)
    return min(max(sx / total, lo_x), hi_x), min(max(sy / total, lo_y), hi_y)


COORDS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([0.0, -0.0, 99.262, 1e300, -1e300])


@settings(max_examples=300, deadline=None)
@given(
    points=st.lists(st.tuples(COORDS, COORDS), min_size=1, max_size=6),
    weights=st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=6, max_size=6),
)
def test_comparisons_equal_min_max_calls(points, weights):
    # repr compares floats bit for bit, the sign of zero and nan included
    assert repr(_weighted_mean(points, weights)) == repr(min_max_weighted_mean(points, weights))


class TestSmoother:
    def test_warmup_uses_trailing_weights(self):
        smoother = Smoother(SmootherConfig(window=3))
        p1, p2, p3 = (0.0, 0.0), (3.0, 0.0), (6.0, 0.0)
        assert smoother.push(p1) == smoothed([p1], weights=[3.0])
        assert smoother.push(p2) == smoothed([p1, p2], weights=[2.0, 3.0])
        assert smoother.push(p3) == smoothed([p1, p2, p3], weights=[1.0, 2.0, 3.0])

    def test_window_slides(self):
        smoother = Smoother(SmootherConfig(window=2))
        smoother.push((0.0, 0.0))
        smoother.push((1.0, 0.0))
        assert smoother.push((2.0, 0.0)) == smoothed([(1.0, 0.0), (2.0, 0.0)], weights=[1.0, 2.0])

    def test_sma_weights(self):
        smoother = Smoother(SmootherConfig(window=3, weights=[1.0] * 3))
        smoother.push((0.0, 0.0))
        smoother.push((6.0, 0.0))
        assert smoother.push((3.0, 0.0)) == (3.0, 0.0)

    def test_custom_weight_override(self):
        config = SmootherConfig(window=2, weights=(1.0, 9.0))
        smoother = Smoother(config)
        smoother.push((0.0, 0.0))
        assert smoother.push((10.0, 0.0)) == (9.0, 0.0)


    @pytest.mark.parametrize(
        "config",
        [
            SmootherConfig(),
            SmootherConfig(window=4, weights=(0.3, 1.7, 2.2, 5.0)),
            SmootherConfig(window=4, weights=[1.0] * 4),
        ],
    )
    def test_push_equals_wma_at_every_fill_level(self, config):
        # a filling window weighs its points by the trailing weights
        rng = np.random.default_rng(45)
        weights = config.effective_weights()
        smoother = Smoother(config)
        pushed = []
        for _ in range(3 * config.window):
            point = tuple(rng.uniform(-500.0, 500.0, 2).tolist())
            pushed.append(point)
            window = pushed[-config.window:]
            assert smoother.push(point) == smoothed(window, weights=weights[-len(window):])

    def test_filling_window_holds_linear_memory(self):
        # a table of normalized weights per fill level held 64 MB at window 2,000
        points = [(float(i), -float(i)) for i in range(30)]
        tracemalloc.start()
        try:
            smoother = Smoother(SmootherConfig(window=2000))
            for point in points:
                smoother.push(point)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestConfigValidation:
    def test_zero_window(self):
        # the smoother's window can never be empty
        with pytest.raises(ConfigError):
            SmootherConfig(window=0)

    def test_window_beyond_bound(self):
        # its weights would fill memory before the first fix
        SmootherConfig(window=MAX_WINDOW)
        with pytest.raises(ConfigError, match="1..1000000"):
            SmootherConfig(window=MAX_WINDOW + 1)

    def test_weight_length_mismatch(self):
        with pytest.raises(ConfigError):
            SmootherConfig(window=3, weights=(1.0, 2.0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_weights(self, bad):
        with pytest.raises(ConfigError):
            SmootherConfig(window=3, weights=(1.0, bad, 2.0))
