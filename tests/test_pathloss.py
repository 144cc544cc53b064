import math

import numpy as np
import pytest

from sweepnav import PathLossParams, SweepRecord, free_space_pl0, invert_distance, rss_at_distance
from sweepnav.errors import ConfigError


class TestFreeSpaceReference:
    def test_900_mhz(self):
        assert free_space_pl0(900.0) == pytest.approx(20 * math.log10(900.0) - 27.55, rel=1e-12)
        assert free_space_pl0(900.0) == pytest.approx(31.535, abs=5e-4)

    def test_1_mhz(self):
        assert free_space_pl0(1.0) == pytest.approx(-27.55, rel=1e-12)

    def test_100_mhz(self):
        assert free_space_pl0(100.0) == pytest.approx(12.45, rel=1e-12)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            free_space_pl0(0.0)
        with pytest.raises(ValueError):
            free_space_pl0(-10.0)


def distance_at_loss(loss_db, fc_mhz, params):
    """Where the log-distance model's loss is ``loss_db``."""
    return 10 ** ((loss_db - free_space_pl0(fc_mhz)) / (10 * params.exponent))


class TestPathLoss:
    """The loss the pipeline inverts, transmit minus received power, as the
    forward model applies it."""

    def test_subtraction(self):
        params = PathLossParams(exponent=2.8, tx_power_dbm=43.0)
        rss = rss_at_distance(10 ** (80 / 28), 900.0, params)
        assert params.tx_power_dbm - rss == pytest.approx(free_space_pl0(900.0) + 80.0, rel=1e-12)
        assert rss == pytest.approx(-68.535, abs=5e-4)

    def test_equal_powers(self):
        params = PathLossParams(tx_power_dbm=43.0)
        assert rss_at_distance(distance_at_loss(0.0, 900.0, params), 900.0, params) == pytest.approx(43.0, abs=1e-12)

    def test_zero_tx_power(self):
        params = PathLossParams(tx_power_dbm=0.0)
        assert rss_at_distance(distance_at_loss(50.0, 900.0, params), 900.0, params) == pytest.approx(-50.0, abs=1e-12)

    def test_rejects_non_finite(self):
        # received power is checked where it enters, so every loss is finite
        with pytest.raises(ValueError):
            SweepRecord(0.0, {1: math.inf})


class TestInvertDistance:
    def test_reference_distance(self):
        params = PathLossParams()
        assert invert_distance(31.5, 31.5, params) == pytest.approx(1.0, rel=1e-12)

    def test_80_db_above_reference(self):
        params = PathLossParams(exponent=2.8)
        assert invert_distance(111.5, 31.5, params) == pytest.approx(10 ** (80 / 28), rel=1e-12)
        assert invert_distance(111.5, 31.5, params) == pytest.approx(719.69, abs=5e-3)

    def test_exponent_exactly_one_decade(self):
        params = PathLossParams(exponent=2.8)
        assert invert_distance(59.5, 31.5, params) == pytest.approx(10.0, rel=1e-12)

    def test_scale_law(self):
        params = PathLossParams(exponent=2.8)
        pl0 = 31.5
        for x in np.linspace(-3.0, 5.0, 17):
            d = invert_distance(pl0 + 10 * params.exponent * x, pl0, params)
            assert d == pytest.approx(10.0 ** x, rel=1e-12)


class TestRssToDistance:
    """The pipeline's ranging: invert_distance(tx - rss, free_space_pl0(fc), params)."""

    def test_reference_rss_maps_to_one_meter(self):
        params = PathLossParams(exponent=2.8, tx_power_dbm=43.0)
        pl0 = free_space_pl0(900.0)
        rss_at_1m = params.tx_power_dbm - pl0
        assert invert_distance(params.tx_power_dbm - rss_at_1m, pl0, params) == pytest.approx(1.0, rel=1e-12)

    def test_chained_example(self):
        params = PathLossParams(exponent=2.8, tx_power_dbm=43.0)
        assert invert_distance(43.0 - -68.535, free_space_pl0(900.0), params) == pytest.approx(719.69, abs=0.01)

    def test_ten_times_distance_per_decade(self):
        params = PathLossParams(exponent=2.8, tx_power_dbm=43.0)
        pl0 = free_space_pl0(900.0)
        d1 = invert_distance(43.0 - -60.0, pl0, params)
        d2 = invert_distance(43.0 - (-60.0 - 10 * params.exponent), pl0, params)
        assert d2 / d1 == pytest.approx(10.0, rel=1e-12)

    def test_strictly_decreasing_in_rss(self):
        params = PathLossParams(exponent=3.1, tx_power_dbm=30.0)
        pl0 = free_space_pl0(1800.5)
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b = sorted(rng.uniform(-140.0, 20.0, size=2))
            if a == b:
                continue
            assert invert_distance(30.0 - a, pl0, params) > invert_distance(30.0 - b, pl0, params)


class TestRoundTrip:
    @pytest.mark.parametrize("exponent", [2.7, 2.8, 3.5])
    def test_forward_then_invert(self, exponent):
        params = PathLossParams(exponent=exponent, tx_power_dbm=43.0)
        pl0 = free_space_pl0(900.5)
        for d in np.logspace(0.0, 5.0, 31):
            rss = rss_at_distance(float(d), 900.5, params)
            back = invert_distance(params.tx_power_dbm - rss, pl0, params)
            assert abs(back - d) / d < 1e-9


@pytest.mark.parametrize("d0", [1e-3, 0.25, 10.0, 1e4])
def test_reference_distance_is_a_transmit_power_offset(d0):
    # a log-distance model referenced at d0 instead of 1 m differs only by a
    # constant (20 - 10n)*log10(d0) dB, which tx_power_dbm absorbs
    n = 3.1
    params = PathLossParams(exponent=n, tx_power_dbm=43.0 - (20.0 - 10.0 * n) * math.log10(d0))
    for fc in (95.1, 900.5, 2412.0):
        pl0_at_d0 = 20.0 * math.log10(d0) + 20.0 * math.log10(fc) - 27.55
        for d in (0.5, 1.0, 37.0, 4200.0):
            referenced = 43.0 - (pl0_at_d0 + 10.0 * n * math.log10(d / d0))
            assert rss_at_distance(d, fc, params) == pytest.approx(referenced, abs=1e-9)


class TestParams:
    def test_exponent_range_enforced(self):
        with pytest.raises(ConfigError):
            PathLossParams(exponent=1.2)
        with pytest.raises(ConfigError):
            PathLossParams(exponent=6.5)

    @pytest.mark.parametrize("power", [1e5, -200.5, math.inf, math.nan])
    def test_transmit_power_within_the_db_bound(self, power):
        # the bound a sweep cell takes; at 1e5 every range overflowed a float
        with pytest.raises(ConfigError, match=r"outside \[-200, 200\]"):
            PathLossParams(tx_power_dbm=power)
        assert PathLossParams(tx_power_dbm=-200.0).tx_power_dbm == -200.0
