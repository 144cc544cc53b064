import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweepnav import (
    BandPlan,
    BandSample,
    MissingBandError,
    InsufficientAnchorsError,
    SweepParseError,
    SweepRecord,
    SweepWindow,
    band_mean,
    select_transmit_bands,
)
from sweepnav.errors import ConfigError
from sweepnav.sweeps import format_sweep_lines, parse_sweep_lines, parse_timestamp


def parse_all(lines, plan):
    return list(parse_sweep_lines(lines, plan))


class TestParsing:
    def test_single_line_single_band(self, small_plan):
        line = "2023-01-01, 12:00:00.000000, 0, 1000000, 1000000, 1, -60.0"
        records = parse_all([line], small_plan)
        assert len(records) == 1
        record = records[0]
        assert record.timestamp == parse_timestamp("2023-01-01", "12:00:00.000000")
        assert record.bands == (BandSample(0, 0.5, -60.0),)

    def test_equal_timestamps_merge_into_one_sweep(self, small_plan):
        lines = [
            "2023-01-01, 12:00:00.000000, 0, 1000000, 1000000, 1, -60.0",
            "2023-01-01, 12:00:00.000000, 1000000, 2000000, 1000000, 1, -70.0",
        ]
        records = parse_all(lines, small_plan)
        assert len(records) == 1
        assert records[0].bands == (BandSample(0, 0.5, -60.0), BandSample(1, 1.5, -70.0))

    def test_distinct_timestamps_make_two_sweeps(self, small_plan):
        lines = [
            "2023-01-01, 12:00:00.000000, 0, 1000000, 1000000, 1, -60.0",
            "2023-01-01, 12:00:01.000000, 0, 1000000, 1000000, 1, -61.0",
        ]
        records = parse_all(lines, small_plan)
        assert [r.bands[0].rss_dbm for r in records] == [-60.0, -61.0]

    def test_bad_db_value_names_line(self, small_plan):
        lines = [
            "2023-01-01, 12:00:00.000000, 0, 1000000, 1000000, 1, -60.0",
            "2023-01-01, 12:00:01.000000, 0, 1000000, 1000000, 1, abc",
        ]
        with pytest.raises(SweepParseError, match="line 2"):
            parse_all(lines, small_plan)

    def test_too_few_fields_rejected(self, small_plan):
        with pytest.raises(SweepParseError, match="line 1"):
            parse_all(["2023-01-01, 12:00:00.000000, 0, 1000000"], small_plan)

    def test_decreasing_timestamp_rejected(self, small_plan):
        lines = [
            "2023-01-01, 12:00:01.000000, 0, 1000000, 1000000, 1, -60.0",
            "2023-01-01, 12:00:00.000000, 0, 1000000, 1000000, 1, -61.0",
        ]
        with pytest.raises(SweepParseError, match="decreased"):
            parse_all(lines, small_plan)

    def test_repeated_timestamp_in_other_spelling_rejected(self, small_plan):
        lines = [
            "2023-01-01, 12:00:00, 0, 1000000, 1000000, 1, -60.0",
            "2023-01-01, 12:00:00.000000, 0, 1000000, 1000000, 1, -61.0",
        ]
        with pytest.raises(SweepParseError, match="line 2: .*repeated"):
            parse_all(lines, small_plan)

    def test_empty_input_yields_nothing(self, small_plan):
        assert parse_all([], small_plan) == []
        assert parse_all(["", "# comment"], small_plan) == []

    def test_out_of_plan_bins_are_skipped(self, small_plan):
        # plan tops out at 10 MHz; a 15 MHz slice contributes nothing
        lines = [
            "2023-01-01, 12:00:00.000000, 15000000, 16000000, 1000000, 1, -40.0",
            "2023-01-01, 12:00:00.000000, 0, 1000000, 1000000, 1, -60.0",
        ]
        records = parse_all(lines, small_plan)
        assert records[0].band_ids == (0,)

    def test_multiple_bins_per_row(self, small_plan):
        line = "2023-01-01, 12:00:00.000000, 0, 3000000, 1000000, 1, -60.0, -50.0, -40.0"
        records = parse_all([line], small_plan)
        assert records[0].bands == (
            BandSample(0, 0.5, -60.0),
            BandSample(1, 1.5, -50.0),
            BandSample(2, 2.5, -40.0),
        )


ROUND_TRIP_PLAN = BandPlan.uniform(low_mhz=0.0, high_mhz=10.0, width_mhz=1.0, selection_count=4)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.lists(
                    st.tuples(
                        st.integers(min_value=0, max_value=9),
                        st.floats(min_value=-150.0, max_value=30.0, allow_nan=False),
                    ),
                    min_size=1,
                    max_size=5,
                    unique_by=lambda t: t[0],
                ),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_parse_format_parse_is_identity(self, data):
        plan = ROUND_TRIP_PLAN
        records = []
        for i, (bands,) in enumerate(data):
            samples = tuple(
                BandSample(bid, plan.center_mhz(bid), rss) for bid, rss in sorted(bands)
            )
            records.append(SweepRecord(timestamp=1_600_000_000.0 + i, bands=samples))
        lines = list(format_sweep_lines(records, plan))
        reparsed = parse_all(lines, plan)
        assert reparsed == records

    def test_microsecond_timestamps_survive(self, small_plan):
        record = SweepRecord(
            timestamp=parse_timestamp("2023-06-15", "08:30:00.123456"),
            bands=(BandSample(3, 3.5, -55.25),),
        )
        lines = list(format_sweep_lines([record], small_plan))
        assert parse_all(lines, small_plan) == [record]


class TestRecordInvariants:
    def test_band_ids_must_increase(self):
        with pytest.raises(ValueError):
            SweepRecord(timestamp=0.0, bands=(BandSample(2, 2.5, -50.0), BandSample(1, 1.5, -60.0)))

    def test_rss_must_be_finite(self):
        with pytest.raises(ValueError):
            SweepRecord(timestamp=0.0, bands=(BandSample(0, 0.5, math.nan),))

    def test_center_frequency_positive(self):
        with pytest.raises(ValueError):
            SweepRecord(timestamp=0.0, bands=(BandSample(0, -1.0, -50.0),))


class TestBandPlan:
    def test_overlapping_ranges_rejected(self):
        with pytest.raises(ConfigError):
            BandPlan(bands=((0, 0.0, 2.0), (1, 1.0, 3.0)), selection_count=4)

    def test_selection_count_minimum(self):
        with pytest.raises(ConfigError):
            BandPlan.uniform(selection_count=3)

    def test_band_lookup_edges(self, small_plan):
        assert small_plan.band_for(0.0)[0] == 0
        assert small_plan.band_for(0.999)[0] == 0
        assert small_plan.band_for(1.0)[0] == 1
        assert small_plan.band_for(10.0) is None
        assert small_plan.band_for(-0.5) is None


def record(ts, values):
    return SweepRecord(
        timestamp=ts,
        bands=tuple(BandSample(bid, bid + 0.5, rss) for bid, rss in sorted(values.items())),
    )


class TestBandMean:
    def test_arithmetic_mean(self):
        window = [record(t, {1: rss}) for t, rss in enumerate([-50.0, -60.0, -70.0])]
        stats = band_mean(window, 1)
        assert stats.mean_dbm == -60.0
        assert stats.sample_count == 3
        assert stats.min_dbm == -70.0
        assert stats.max_dbm == -50.0

    def test_single_record_identity(self):
        stats = band_mean([record(0.0, {2: -55.0})], 2)
        assert stats.mean_dbm == -55.0
        assert stats.sample_count == 1

    def test_constant_series(self):
        window = [record(t, {3: -50.0}) for t in range(3)]
        stats = band_mean(window, 3)
        assert stats.mean_dbm == stats.min_dbm == stats.max_dbm == -50.0

    def test_missing_band_raises(self):
        with pytest.raises(MissingBandError):
            band_mean([record(0.0, {1: -50.0})], 9)

    def test_empty_window_raises(self):
        with pytest.raises(ValueError):
            band_mean([], 1)

    def test_mean_bounded_by_window_extremes(self):
        import numpy as np

        rng = np.random.default_rng(11)
        for _ in range(50):
            values = rng.uniform(-120.0, -20.0, size=rng.integers(1, 12))
            window = [record(float(t), {4: float(v)}) for t, v in enumerate(values)]
            stats = band_mean(window, 4)
            assert stats.min_dbm <= stats.mean_dbm <= stats.max_dbm

    def test_identical_sweeps_equal_single_sweep_value(self):
        one = record(0.0, {5: -63.72})
        window = [record(float(t), {5: -63.72}) for t in range(7)]
        assert band_mean(window, 5).mean_dbm == band_mean([one], 5).mean_dbm


class TestSelectTransmitBands:
    STATS = {1: -50.0, 2: -80.0, 3: -55.0, 4: -60.0, 5: -58.0, 6: -52.0, 7: -90.0}

    def make_stats(self, values):
        return [band_mean([record(0.0, values)], bid) for bid in values]

    def test_strongest_first(self):
        assert select_transmit_bands(self.make_stats(self.STATS), 4) == [1, 6, 3, 5]

    def test_all_bands_when_count_equals_size(self):
        stats = self.make_stats({1: -50.0, 2: -60.0, 3: -70.0, 4: -80.0})
        assert select_transmit_bands(stats, 4) == [1, 2, 3, 4]

    def test_tie_breaks_to_lower_band_id(self):
        stats = self.make_stats({9: -50.0, 2: -50.0, 5: -70.0, 6: -75.0})
        assert select_transmit_bands(stats, 4) == [2, 9, 5, 6]

    def test_insufficient_bands(self):
        stats = self.make_stats({1: -50.0, 2: -60.0})
        with pytest.raises(InsufficientAnchorsError):
            select_transmit_bands(stats, 4)

    def test_deterministic(self):
        stats = self.make_stats(self.STATS)
        assert select_transmit_bands(stats, 5) == select_transmit_bands(list(stats), 5)


class TestSweepWindow:
    def test_rolls_over_length(self):
        window = SweepWindow(3)
        for t in range(5):
            window.push(record(float(t), {1: -50.0 - t}))
        assert len(window) == 3
        assert window.stats(1).mean_dbm == pytest.approx(-53.0)

    def test_unbounded_window(self):
        window = SweepWindow(None)
        for t in range(25):
            window.push(record(float(t), {1: -50.0}))
        assert len(window) == 25

    def test_persistent_bands(self):
        window = SweepWindow(5)
        window.push(record(0.0, {1: -50.0, 2: -60.0}))
        window.push(record(1.0, {1: -51.0}))
        assert window.persistent_band_ids() == [1]


WINDOW_SWEEPS = st.lists(
    st.dictionaries(
        st.integers(min_value=0, max_value=5),
        st.floats(min_value=-200.0, max_value=50.0, allow_nan=False),
        max_size=6,
    ),
    min_size=1,
    max_size=30,
)


class TestIncrementalWindow:
    """SweepWindow's kept per-band state against the batch reference."""

    @pytest.mark.parametrize("length", [1, 3, 10, None])
    @settings(max_examples=80, deadline=None)
    @given(sweeps=WINDOW_SWEEPS)
    def test_matches_batch_statistics(self, length, sweeps):
        window = SweepWindow(length)
        last_seen: dict[int, int] = {}
        for k, values in enumerate(sweeps):
            window.push(record(float(k), values))
            last_seen.update((bid, k) for bid in values)
            records = window.records
            for bid in range(6):
                evicted = bid not in last_seen or (length is not None and k - last_seen[bid] >= length)
                if evicted:
                    with pytest.raises(MissingBandError):
                        band_mean(records, bid)
                    with pytest.raises(MissingBandError):
                        window.stats(bid)
                else:
                    # repr compares floats bit for bit (including the sign of zero)
                    assert repr(window.stats(bid)) == repr(band_mean(records, bid))
            common = set.intersection(*(set(r.band_ids) for r in records))
            assert window.persistent_band_ids() == sorted(common)

    def test_empty_window(self):
        window = SweepWindow(None)
        assert window.persistent_band_ids() == []
        with pytest.raises(ValueError):
            window.stats(0)
