import gc
import math
import os
import threading
import tracemalloc
import weakref
from bisect import bisect_right
from dataclasses import replace
from datetime import datetime, timezone
from itertools import zip_longest

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sweepnav import (
    BandPlan,
    BandSample,
    MissingBandError,
    InsufficientAnchorsError,
    SweepParseError,
    SweepRecord,
    SweepWindow,
    select_transmit_bands,
)
from sweepnav.config import load_config
from sweepnav.errors import ConfigError, InputError
from sweepnav.pipeline import PipelineConfig
from sweepnav import sweeps
from sweepnav.sweeps import (
    CLAMP_FREE_SPREAD,
    MAX_ABS_DB,
    MAX_LAYOUT_RUNS,
    MAX_MEMO_MINUTES,
    MAX_PLAN_BANDS,
    MIN_CENTER_MHZ,
    READ_BLOCK,
    format_sweep_lines,
    format_timestamp,
    parse_sweep_file,
    parse_sweep_lines,
    parse_timestamp,
)


def parse_all(lines, plan):
    return list(parse_sweep_lines(lines, plan))


def ordered_sum(values):
    """Left-to-right float sum: ``sum()`` compensates from Python 3.12 on, and the parser and window do not."""
    total = 0.0
    for value in values:
        total += value
    return total


class TestParsing:
    def test_single_line_single_band(self, small_plan):
        line = "2023-01-01, 12:00:00.000000, 0, 1000000, 1000000, 1, -60.0"
        records = parse_all([line], small_plan)
        assert len(records) == 1
        record = records[0]
        assert record.timestamp == parse_timestamp("2023-01-01", "12:00:00.000000")
        assert record.rss_by_id == {0: -60.0}
        assert record.bands == (BandSample(0, -60.0),)

    def test_equal_timestamps_merge_into_one_sweep(self, small_plan):
        lines = [
            "2023-01-01, 12:00:00.000000, 0, 1000000, 1000000, 1, -60.0",
            "2023-01-01, 12:00:00.000000, 1000000, 2000000, 1000000, 1, -70.0",
        ]
        records = parse_all(lines, small_plan)
        assert len(records) == 1
        assert records[0].bands == (BandSample(0, -60.0), BandSample(1, -70.0))

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

    @pytest.mark.parametrize("lines, swept", [([], False), (["", "# comment"], False),
                                              (["2023-01-01, 12:00:00, 0, 1000000, 1000000, 1, -60.0"], True)])
    def test_generator_returns_whether_it_yielded(self, small_plan, lines, swept):
        parser, records = parse_sweep_lines(lines, small_plan), []
        with pytest.raises(StopIteration) as stop:
            while True:
                records.append(next(parser))
        assert stop.value.value is swept and len(records) == swept

    @pytest.mark.parametrize("text", ["", "# only a comment\n\n"])
    def test_file_without_sweeps_raises(self, small_plan, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text, encoding="ascii")
        with pytest.raises(InputError, match=f"{path}: no sweeps"):
            list(parse_sweep_file(path, small_plan))

    def test_out_of_plan_bins_are_skipped(self, small_plan):
        # plan tops out at 10 MHz; a 15 MHz slice contributes nothing
        lines = [
            "2023-01-01, 12:00:00.000000, 15000000, 16000000, 1000000, 1, -40.0",
            "2023-01-01, 12:00:00.000000, 0, 1000000, 1000000, 1, -60.0",
        ]
        records = parse_all(lines, small_plan)
        assert list(records[0].rss_by_id) == [0]

    def test_multiple_bins_per_row(self, small_plan):
        line = "2023-01-01, 12:00:00.000000, 0, 3000000, 1000000, 1, -60.0, -50.0, -40.0"
        records = parse_all([line], small_plan)
        assert repr(records[0].rss_by_id) == repr({0: -60.0, 1: -50.0, 2: -40.0})


ROUND_TRIP_PLAN = BandPlan.uniform(low_mhz=0.0, high_mhz=10.0, width_mhz=1.0)


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
            records.append(SweepRecord(timestamp=1_600_000_000.0 + i, rss_by_id=dict(sorted(bands))))
        lines = list(format_sweep_lines(records, plan))
        reparsed = parse_all(lines, plan)
        assert reparsed == records

    def test_microsecond_timestamps_survive(self, small_plan):
        record = SweepRecord(
            timestamp=parse_timestamp("2023-06-15", "08:30:00.123456"),
            rss_by_id={3: -55.25},
        )
        lines = list(format_sweep_lines([record], small_plan))
        assert parse_all(lines, small_plan) == [record]


class TestRecordInvariants:
    def test_band_ids_must_increase(self):
        with pytest.raises(ValueError):
            SweepRecord(timestamp=0.0, rss_by_id={2: -50.0, 1: -60.0})

    def test_rss_must_be_finite(self):
        with pytest.raises(ValueError):
            SweepRecord(timestamp=0.0, rss_by_id={0: math.nan})

    @pytest.mark.parametrize("rss", [-5000.0, -200.5, 200.5, -1e300])
    def test_rss_beyond_the_parser_bound_rejected(self, rss):
        # the parser's bound: a record built in code cannot hold what a file cannot
        with pytest.raises(ValueError, match=r"outside \[-200, 200\]"):
            SweepRecord(timestamp=0.0, rss_by_id={0: rss})

    def test_timestamp_must_be_finite(self):
        with pytest.raises(ValueError, match="timestamp"):
            SweepRecord(timestamp=math.inf, rss_by_id={0: -50.0})


PLANS = [
    BandPlan.uniform(low_mhz=0.0, high_mhz=10.0, width_mhz=1.0),
    BandPlan.uniform(low_mhz=0.0, high_mhz=30.0, width_mhz=3.0),
    BandPlan.uniform(low_mhz=0.1, high_mhz=10.0, width_mhz=0.3),
    # edges that are not sums of exact binary fractions
    BandPlan.uniform(low_mhz=0.7, high_mhz=9.99, width_mhz=0.01),
    BandPlan.uniform(low_mhz=2400.1, high_mhz=2500.0, width_mhz=0.3),
]
# also plans whose bands are only a few ulps of their edges wide
LOOKUP_PLANS = PLANS + [
    BandPlan.uniform(low_mhz=1e6, high_mhz=1e6 + 2e-8, width_mhz=5e-10),
    BandPlan.uniform(low_mhz=2.0**40, high_mhz=2.0**40 + 2.0**-8, width_mhz=2.0**-10),
    BandPlan.uniform(low_mhz=5000.0, high_mhz=5006.0, width_mhz=0.006),
]


def plan_edges(plan):
    return [plan.edges_mhz(i) for i in range(plan.count)]


class TestBandPlan:
    @pytest.mark.parametrize(
        "bounds",
        [
            dict(width_mhz=1e-6),  # ~3.5e9 bands
            dict(high_mhz=float(MAX_PLAN_BANDS) + 1.0),  # one band over the cap
            dict(width_mhz=5e-324),  # a count that overflows to inf
            dict(low_mhz=-math.inf),
        ],
    )
    def test_oversized_uniform_plan_rejected_before_building(self, bounds):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError):
                BandPlan.uniform(**bounds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_plan_holds_no_band(self):
        tracemalloc.start()
        try:
            plan = BandPlan.uniform(0.0, 100000.0, 1.0)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert plan.count == 100_000 and plan.edges_mhz(99_999) == (99_999.0, 100_000.0)
        assert held < 64 * 1024

    def test_equal_arguments_give_equal_plans(self):
        plan = BandPlan.uniform()
        assert BandPlan.uniform(0.0, 3500.0, 1.0) == plan == BandPlan.uniform(0, 3500)
        assert load_config().plan == plan == PipelineConfig().plan
        assert plan == BandPlan(0.0, 3500.0, 1.0) and plan.count == 3500

    def test_other_arguments_give_other_plans(self):
        plan = BandPlan.uniform()
        other_low, other_width = BandPlan.uniform(low_mhz=100.0), BandPlan.uniform(width_mhz=2.0)
        assert other_low != plan and other_low.count == 3400
        assert other_width != plan and other_width.count == 1750

    @pytest.mark.parametrize(
        "arguments", [dict(high_mhz=0.0), dict(low_mhz=-100.0), dict(width_mhz=0.0), dict(low_mhz=math.nan)]
    )
    def test_invalid_arguments_raise_on_every_call(self, arguments):
        for _ in range(2):
            with pytest.raises(ConfigError):
                BandPlan.uniform(**arguments)

    @pytest.mark.parametrize("plan", PLANS)
    def test_replace_gives_an_independent_plan(self, plan):
        # the count is computed again from the new numbers; the shared bands keep their edges
        count = plan.count
        wider = replace(plan, high_mhz=plan.high_mhz + 2 * plan.width_mhz)
        assert wider.count == count + 2 and plan_edges(wider)[:count] == plan_edges(plan)
        assert [wider.band_at(f) for f, _ in plan_edges(wider)] == list(range(count + 2))
        assert plan.count == count
        with pytest.raises(ConfigError):
            replace(plan, width_mhz=0.0)

    def test_band_lookup_edges(self, small_plan):
        assert small_plan.band_at(0.0) == 0
        assert small_plan.band_at(0.999) == 0
        assert small_plan.band_at(1.0) == 1
        assert small_plan.band_at(10.0) is None
        assert small_plan.band_at(-0.5) is None
        assert small_plan.center_mhz(9) == 9.5
        with pytest.raises(KeyError):
            small_plan.edges_mhz(10)

    @pytest.mark.parametrize("plan", LOOKUP_PLANS)
    def test_lookup_equals_reference_at_every_edge_and_beside_it(self, plan):
        bands = reference_bands(plan)
        edges = [low for _, low, _ in bands] + [bands[-1][2]]
        for edge in edges:
            for freq in (math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)):
                assert plan.band_at(freq) == reference_band_for(bands, freq), (edge, freq)
        assert [plan.center_mhz(i) for i, _, _ in bands] == [(low + high) / 2.0 for _, low, high in bands]

    @settings(max_examples=200, deadline=None)
    @given(
        low=st.sampled_from([0.0, 0.7, 2400.1]) | st.floats(min_value=0.0, max_value=1e12),
        ulps=st.floats(min_value=3.0, max_value=16.0),
        count=st.integers(min_value=4, max_value=40),
        data=st.data(),
    )
    def test_lookup_equals_reference_near_the_float_resolution(self, low, ulps, count, data):
        width = ulps * math.ulp(max(low, 1.0))
        try:
            plan = BandPlan.uniform(low, low + count * width, width)
        except ConfigError:
            return
        bands = reference_bands(plan)
        freq = data.draw(st.floats(min_value=bands[0][1] - width, max_value=bands[-1][2] + width))
        for _ in range(3):
            freq = math.nextafter(freq, -math.inf)
        for _ in range(6):
            assert plan.band_at(freq) == reference_band_for(bands, freq), freq
            freq = math.nextafter(freq, math.inf)

    def test_empty_band_rejected(self):
        # a huge low with a width of a quarter ulp: band 0's edges round to one float
        low = 2.0**40
        assert low + 2.0**-14 == low
        with pytest.raises(ConfigError, match="empty band"):
            BandPlan.uniform(low, low + 2.0**-12, 2.0**-14)

    @pytest.mark.parametrize("bounds", [(0.0, 4e-300, 1e-300), (0.0, 0.0016, 0.0004), (1e-4, 1e-3, 2e-4)])
    def test_first_band_centre_below_the_floor_rejected(self, bounds):
        # such a centre drives the reference loss thousands of dB negative, so ranges overflow
        with pytest.raises(ConfigError, match="above 0 MHz"):
            BandPlan.uniform(*bounds)
        assert BandPlan.uniform(0.0, 4 * 2 * MIN_CENTER_MHZ, 2 * MIN_CENTER_MHZ).center_mhz(0) == MIN_CENTER_MHZ


def record(ts, values):
    return SweepRecord(timestamp=ts, rss_by_id=dict(sorted(values.items())))


def band_mean(window, band_id):
    """Arithmetic mean (dB domain) of one band's power over a sweep window,
    summed left to right and clamped into the range of its samples.

    The batch reference for :meth:`SweepWindow.means_dbm`, which must return
    the same floats from incrementally kept state.
    """
    if not window:
        raise ValueError("window must be non-empty")
    values = [record.rss_by_id[band_id] for record in window if band_id in record.rss_by_id]
    if not values:
        raise MissingBandError(f"band {band_id} absent from all {len(window)} sweeps in window")
    # summation rounding can spill the mean an ulp outside the sample range
    return min(max(ordered_sum(values) / len(values), min(values)), max(values))


class TestBandMean:
    def test_arithmetic_mean(self):
        window = [record(t, {1: rss}) for t, rss in enumerate([-50.0, -60.0, -70.0])]
        assert band_mean(window, 1) == -60.0

    def test_single_record_identity(self):
        assert band_mean([record(0.0, {2: -55.0})], 2) == -55.0

    def test_constant_series(self):
        window = [record(t, {3: -50.0}) for t in range(3)]
        assert band_mean(window, 3) == -50.0

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
            assert values.min() <= band_mean(window, 4) <= values.max()

    def test_identical_sweeps_equal_single_sweep_value(self):
        one = record(0.0, {5: -63.72})
        window = [record(float(t), {5: -63.72}) for t in range(7)]
        assert band_mean(window, 5) == band_mean([one], 5)


class TestSelectTransmitBands:
    MEANS = {1: -50.0, 2: -80.0, 3: -55.0, 4: -60.0, 5: -58.0, 6: -52.0, 7: -90.0}

    def test_strongest_first(self):
        assert select_transmit_bands(self.MEANS, 4) == [1, 6, 3, 5]

    def test_all_bands_when_count_equals_size(self):
        assert select_transmit_bands({1: -50.0, 2: -60.0, 3: -70.0, 4: -80.0}, 4) == [1, 2, 3, 4]

    def test_tie_breaks_to_lower_band_id(self):
        assert select_transmit_bands({9: -50.0, 2: -50.0, 5: -70.0, 6: -75.0}, 4) == [2, 9, 5, 6]

    def test_insufficient_bands(self):
        with pytest.raises(InsufficientAnchorsError):
            select_transmit_bands({1: -50.0, 2: -60.0}, 4)

    def test_deterministic(self):
        # the map's insertion order does not matter
        reversed_means = dict(reversed(self.MEANS.items()))
        assert select_transmit_bands(self.MEANS, 5) == select_transmit_bands(reversed_means, 5)


class TestSweepWindow:
    def test_rolls_over_length(self):
        window = SweepWindow(3)
        for t in range(5):
            window.push(record(float(t), {1: -50.0 - t}))
        assert len(window) == 3
        assert window.means_dbm((1,))[0] == pytest.approx(-53.0)

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

    @pytest.mark.parametrize("length", [0, -3, 2.5])
    def test_length_must_be_a_positive_integer(self, length):
        # a fractional length never equals the held count, so its window would never evict
        with pytest.raises(ValueError, match="window length must be a positive integer or None"):
            SweepWindow(length)


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
        pushed = []
        for k, values in enumerate(sweeps):
            pushed.append(record(float(k), values))
            window.push(pushed[-1])
            last_seen.update((bid, k) for bid in values)
            records = pushed[-length:] if length else pushed
            for bid in range(6):
                evicted = bid not in last_seen or (length is not None and k - last_seen[bid] >= length)
                if evicted:
                    with pytest.raises(MissingBandError):
                        band_mean(records, bid)
                    with pytest.raises(MissingBandError):
                        window.means_dbm((bid,))[0]
                else:
                    # repr compares floats bit for bit (including the sign of zero)
                    assert repr(window.means_dbm((bid,))[0]) == repr(band_mean(records, bid))
            common = set.intersection(*(set(r.rss_by_id) for r in records))
            assert window.persistent_band_ids() == sorted(common)
            held = [bid for bid in range(6) if any(bid in r.rss_by_id for r in records)]
            assert repr(window.means_dbm(held[::-1])) == repr([band_mean(records, bid) for bid in held[::-1]])

    @pytest.mark.parametrize("length", [1, 3, 10, None])
    @settings(max_examples=80, deadline=None)
    @given(sweeps=WINDOW_SWEEPS, cut=st.integers(min_value=0, max_value=30), kept=st.sets(st.integers(0, 5)))
    def test_kept_bands_match_batch_statistics(self, length, sweeps, cut, kept):
        """After keep_only, kept bands (leaving and coming back included)
        equal the batch reference and the others are gone."""
        window = SweepWindow(length)
        pushed = []
        for k, values in enumerate(sweeps):
            if k == cut:
                window.keep_only(sorted(kept))
            pushed.append(record(float(k), values))
            window.push(pushed[-1])
            if k < cut:
                continue
            records = pushed[-length:] if length else pushed
            for bid in range(6):
                if bid in kept and any(bid in r.rss_by_id for r in records):
                    assert repr(window.means_dbm((bid,))[0]) == repr(band_mean(records, bid))
                else:
                    with pytest.raises(MissingBandError):
                        window.means_dbm((bid,))[0]
            common = set.intersection(*(set(r.rss_by_id) for r in records)) & kept
            assert window.persistent_band_ids() == sorted(common)
            held = [bid for bid in sorted(kept) if any(bid in r.rss_by_id for r in records)]
            assert repr(window.means_dbm(held)) == repr([band_mean(records, bid) for bid in held])

    @pytest.mark.parametrize("length", [3, None])
    def test_all_bands_call_raises_for_a_missing_band(self, length):
        window = SweepWindow(length)
        with pytest.raises(ValueError, match="non-empty"):
            window.means_dbm([1])
        window.push(record(0.0, {1: -50.0, 2: -60.0}))
        assert window.means_dbm([]) == []
        with pytest.raises(MissingBandError, match="band 3 absent from all 1 sweeps"):
            window.means_dbm([2, 3, 1])

    def test_kept_band_returns_after_leaving(self):
        window = SweepWindow(3)
        window.push(record(0.0, {1: -50.0, 2: -60.0, 3: -70.0}))
        window.keep_only([1, 2])
        for k in range(1, 4):
            window.push(record(float(k), {2: -61.0, 3: -71.0}))
        with pytest.raises(MissingBandError):
            window.means_dbm((1,))[0]
        window.push(record(4.0, {1: -52.0, 2: -62.0, 3: -72.0}))
        assert window.means_dbm((1,))[0] == -52.0
        assert window.persistent_band_ids() == [2]
        with pytest.raises(MissingBandError):
            window.means_dbm((3,))[0]

    def test_empty_window(self):
        window = SweepWindow(None)
        assert window.persistent_band_ids() == []
        with pytest.raises(ValueError):
            window.means_dbm((0,))[0]

    @pytest.mark.parametrize("length", [None, 3])
    def test_window_holds_no_record(self, length):
        # a bounded window keeps each held sweep's band ids to evict, not the sweep
        window = SweepWindow(length)
        pushed = record(0.0, {1: -50.0, 2: -60.0})
        held = weakref.ref(pushed)
        window.push(pushed)
        del pushed
        gc.collect()
        assert held() is None
        assert len(window) == 1 and window.means_dbm((2,))[0] == -60.0


def nudged(base, ulps):
    """``base`` moved ``ulps`` ulps (negative: down) by math.nextafter."""
    for _ in range(abs(ulps)):
        base = math.nextafter(base, math.copysign(math.inf, ulps))
    return base


class TestBoundedMeanSkipsTheRescan:
    """A bounded window rescans a band for its extremes only when the oldest
    and newest samples nearly agree; every mean keeps band_mean's bits."""

    @pytest.mark.parametrize("length", [2, 3, 10])
    @settings(max_examples=150, deadline=None)
    @given(
        base=st.floats(min_value=-200.0, max_value=200.0),
        steps=st.lists(st.tuples(st.integers(min_value=-3, max_value=3), st.sampled_from([0, 0, -1, 1])),
                       min_size=1, max_size=25),
        scale=st.floats(min_value=0.25, max_value=2.0),
    )
    def test_near_equal_values_match_band_mean(self, length, base, steps, scale):
        # a base moved by 0-3 ulps, sometimes jumped by about the bound, so oldest
        # and newest fall on both sides of it
        jump = CLAMP_FREE_SPREAD * length**2 * scale
        window, pushed = SweepWindow(length), []
        for k, (ulps, sign) in enumerate(steps):
            value = min(max(nudged(base, ulps) + sign * jump, -MAX_ABS_DB), MAX_ABS_DB)
            pushed.append(record(float(k), {0: value, 1: -value}))
            window.push(pushed[-1])
            held = pushed[-length:]
            assert repr(window.means_dbm([0, 1])) == repr([band_mean(held, 0), band_mean(held, 1)])

    def test_clamp_binds_on_equal_samples(self):
        # ten 0.1s sum left to right to 0.9999999999999999; the tenth of it is one ulp under 0.1
        assert ordered_sum([0.1] * 10) / 10 == 0.09999999999999999
        window = SweepWindow(10)
        for k in range(10):
            window.push(record(float(k), {0: 0.1}))
        assert repr(window.means_dbm((0,))[0]) == repr(band_mean([record(0.0, {0: 0.1})] * 10, 0)) == "0.1"

    def test_oldest_equal_to_newest_rescans_the_middle(self):
        # the spread from oldest to newest is 0, yet the extremes lie in the middle
        values = [0.1, 0.5, -0.3, 0.1]
        window = SweepWindow(4)
        pushed = [record(float(k), {0: v}) for k, v in enumerate(values)]
        for sweep in pushed:
            window.push(sweep)
        assert repr(window.means_dbm((0,))[0]) == repr(band_mean(pushed, 0)) == repr(ordered_sum(values) / 4)


# The parser without the strptime-free timestamps and the layout memo, kept as
# the reference they must equal: the same records, error lines and error
# messages (its messages are the parser's). Its band means sum left to right,
# as the parser does, so the comparison holds on every interpreter.
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def reference_parse_timestamp(date_text, time_text):
    text = f"{date_text} {time_text}"
    for fmt in ("%Y-%m-%d %H:%M:%S.%f", "%Y-%m-%d %H:%M:%S"):
        try:
            stamp = datetime.strptime(text, fmt)
            break
        except ValueError:
            continue
    else:
        raise ValueError(f"unrecognised timestamp {text!r}")
    return (stamp.replace(tzinfo=timezone.utc) - _EPOCH).total_seconds()


def reference_parse_sweep_lines(lines, plan):
    bands = reference_bands(plan)
    pending_key = None
    pending_ts = 0.0
    pending_bins = {}

    def finish():
        rss_by_id = {}
        for band_id, values in sorted(pending_bins.items()):
            total = 0.0
            for value in values:
                total += value
            rss_by_id[band_id] = total / len(values)
        return SweepRecord(timestamp=pending_ts, rss_by_id=rss_by_id)

    for line_no, raw_line in enumerate(lines, start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if parts and parts[-1] == "":
            parts.pop()
        if len(parts) < 7:
            raise SweepParseError(line_no, f"expected at least 7 fields, got {len(parts)}")
        try:
            hz_low = float(parts[2])
            hz_high = float(parts[3])
            hz_width = float(parts[4])
            float(parts[5])
            rss_values = [float(p) for p in parts[6:]]
        except ValueError:
            raise SweepParseError(line_no, f"bad numeric field in {line!r}") from None
        if not (0 < hz_width < math.inf and -math.inf < hz_low < hz_high < math.inf):
            raise SweepParseError(line_no, "invalid frequency slice bounds")
        for v in rss_values:
            if not -MAX_ABS_DB <= v <= MAX_ABS_DB:
                raise SweepParseError(line_no, f"dB value {v!r} outside [-200, 200]")
        key = (parts[0], parts[1])
        if key != pending_key:
            try:
                timestamp = reference_parse_timestamp(parts[0], parts[1])
            except ValueError as exc:
                raise SweepParseError(line_no, str(exc)) from None
            if pending_key is not None:
                if timestamp <= pending_ts:
                    raise SweepParseError(line_no, "timestamp decreased or repeated across sweeps")
                yield finish()
                pending_bins = {}
            pending_key = key
            pending_ts = timestamp
        for i, rss in enumerate(rss_values):
            band_id = reference_band_for(bands, (hz_low + hz_width * i + hz_width / 2.0) / 1e6)
            if band_id is not None:
                pending_bins.setdefault(band_id, []).append(rss)

    if pending_key is not None:
        yield finish()


def reference_bands(plan):
    """(id, low, high) of every band, built from the plan's low edge, width and count."""
    low, width = plan.low_mhz, plan.width_mhz
    return [(i, low + i * width, low + (i + 1) * width) for i in range(plan.count)]


def reference_band_for(bands, freq_mhz):
    """Id of the band of ``bands`` (sorted by low edge) holding ``freq_mhz``, by bisection."""
    idx = bisect_right([band[1] for band in bands], freq_mhz) - 1
    if idx >= 0 and bands[idx][1] <= freq_mhz < bands[idx][2]:
        return bands[idx][0]
    return None


def outcome(parse, lines, plan):
    """Records yielded, and the line and message of the SweepParseError that ended the parse, if any."""
    records = []
    try:
        for record in parse(lines, plan):
            records.append(record)
    except SweepParseError as exc:
        return repr(records), exc.line_no, exc.message
    return repr(records), None, None


DIGITS = "0123456789"
# strptime's \d matches any Unicode digit; \s any Unicode whitespace
TIMESTAMP_CHARS = DIGITS + " -:.\t٣　a+"


def digit_field(max_size):
    return st.text(alphabet=DIGITS, min_size=0, max_size=max_size) | st.text(
        alphabet=TIMESTAMP_CHARS, max_size=max_size
    )


@st.composite
def timestamp_texts(draw):
    """Date and time texts near the grammar: field widths, separators and values vary."""
    sep = st.sampled_from(["-", ":", ".", " ", "", "/"])
    date_text = (
        draw(digit_field(5)) + draw(sep) + draw(digit_field(3)) + draw(sep) + draw(digit_field(3))
    )
    time_text = (
        draw(st.sampled_from(["", " ", "\t"]))
        + draw(digit_field(3)) + draw(sep) + draw(digit_field(3)) + draw(sep) + draw(digit_field(3))
        + draw(st.sampled_from(["", ".", ":"])) + draw(st.text(alphabet=DIGITS, max_size=8))
    )
    return date_text, time_text


class TestStrptimeFreeTimestamp:
    @pytest.mark.parametrize(
        "date_text, time_text",
        [
            ("2023-01-01", "12:00:00.000000"),
            ("2023-1-5", "1:2:3"),
            ("2023-01- 5", "9:05:07"),
            ("2023-01-01", "12:00:00.5"),
            ("2023-01-01", "12:00:00.123456"),
            ("2023-01-01", "12:00:00.1234567"),
            ("2023-01-01", "12:00:00.0000001"),
            ("2023-01-01", "12:00:00."),
            ("2024-02-29", "00:00:00"),
            ("2023-02-29", "00:00:00"),
            ("2024-02-30", "00:00:00"),
            ("2023-01-01", "23:59:60"),
            ("2023-01-01", "23:59:61"),
            ("2023-01-01", "24:00:00"),
            ("0000-01-01", "00:00:00"),
            ("9999-12-31", "23:59:59.999999"),
            ("٢٠٢٣-01-01", "12:00:00"),
            ("2023-01-01\t", "12:00:00"),
            ("2023-01-01", "12:00:00 "),
            ("23-01-01", "12:00:00"),
        ],
    )
    def test_known_spellings_match_strptime(self, date_text, time_text):
        try:
            expected = reference_parse_timestamp(date_text, time_text).hex()
        except ValueError:
            expected = None
        try:
            actual = parse_timestamp(date_text, time_text).hex()
        except ValueError:
            actual = None
        assert actual == expected

    @pytest.mark.parametrize("timestamp", [-62135596800.0, -6.2e10, 0.0, 1_600_000_000.25, 253402300799.5])
    def test_written_stamps_parse_back(self, timestamp):
        # years below 1000 were written unpadded ('5-04-19'), which no parse accepts
        date_text, time_text = format_timestamp(timestamp)
        assert len(date_text) == 10
        assert parse_timestamp(date_text, time_text) == round(timestamp * 1e6) / 1e6

    @settings(max_examples=400, deadline=None)
    @given(texts=timestamp_texts() | st.tuples(st.text(max_size=12), st.text(max_size=18)))
    def test_same_epoch_bits_or_both_reject(self, texts):
        try:
            expected = reference_parse_timestamp(*texts).hex()
        except ValueError:
            expected = None
        try:
            actual = parse_timestamp(*texts).hex()
        except ValueError:
            actual = None
        assert actual == expected


class TestTimestampsAcrossDays:
    """The parser keeps a minute memo for one parse; its stamps must still
    equal strptime's, and a date or second it has not validated must not slip through."""

    STAMPS = [
        ("2023-01-31", "23:59:59.999999"),
        ("2023-02-01", "00:00:00"),
        ("2023-02-28", "23:59:59.5"),
        ("2023-03-01", "00:00:00.000001"),
        ("2023-3-1", "0:0:1"),
        ("2023-12-31", "23:59:59"),
        ("2024-01-01", "00:00:00"),
        ("2024-02-28", "23:59:59.999999"),
        ("2024-02-29", "00:00:00"),
        ("2024-02-29", "23:59:59.123456"),
        ("2024-03-01", "00:00:00"),
    ]

    def test_midnight_and_month_end_equal_strptime(self, small_plan):
        lines = [f"{d}, {t}, 0, 1000000, 1000000, 1, -60.0" for d, t in self.STAMPS]
        records = parse_all(lines, small_plan)
        expected = [reference_parse_timestamp(d, t) for d, t in self.STAMPS]
        assert [r.timestamp.hex() for r in records] == [v.hex() for v in expected]

    def test_feb_29_outside_a_leap_year_rejected_after_feb_28(self, small_plan):
        with pytest.raises(ValueError):
            reference_parse_timestamp("2023-02-29", "00:00:00")
        lines = ["2023-02-28, 23:59:59, 0, 1000000, 1000000, 1, -60.0",
                 "2023-02-29, 00:00:00, 0, 1000000, 1000000, 1, -60.0"]
        with pytest.raises(SweepParseError, match="line 2: unrecognised timestamp '2023-02-29 00:00:00'"):
            parse_all(lines, small_plan)
        minutes = {}
        assert parse_timestamp("2023-02-28", "1:00:00", minutes) == reference_parse_timestamp("2023-02-28", "1:00:00")
        with pytest.raises(ValueError, match="unrecognised timestamp"):
            parse_timestamp("2023-02-29", "1:00:00", minutes)
        assert parse_timestamp("2024-02-29", "1:00:00", minutes) == reference_parse_timestamp("2024-02-29", "1:00:00")

    def test_memo_of_a_minute_does_not_admit_its_second_60(self):
        # strptime's grammar takes second 60, which datetime rejects; 23:59:59 puts the minute 23:59 in the memo
        with pytest.raises(ValueError):
            reference_parse_timestamp("2016-12-31", "23:59:60")
        minutes = {}
        assert parse_timestamp("2016-12-31", "23:59:59", minutes) == reference_parse_timestamp("2016-12-31", "23:59:59")
        assert minutes
        for time_text in ("23:59:60", "23:59:60.5", "23:59:61"):
            with pytest.raises(ValueError, match="unrecognised timestamp"):
                parse_timestamp("2016-12-31", time_text, minutes)

    @pytest.mark.parametrize("second", ["00.000000", "59.999999", "07.123456", "60.000000", "61.000000", "5a.000000",
                                        "0١.000000", "٠١.000000", "01.1234567", "01.12345", "01,000000",
                                        "01.00000١", "+1.000000", " 1.000000"])
    def test_plain_second_of_a_memoized_minute_equals_the_match(self, second):
        # a memoized minute with a second spelled "SS.ffffff" skips the pattern match: same value, same rejections
        minutes = {}
        parse_timestamp("2024-02-29", "23:59:30", minutes)

        def read(memo):
            try:
                return parse_timestamp("2024-02-29", f"23:59:{second}", memo).hex()
            except ValueError:
                return None

        assert read(minutes) == read(None)
        if second.isascii() and second[:2].isdigit():
            try:
                expected = reference_parse_timestamp("2024-02-29", f"23:59:{second}").hex()
            except ValueError:
                expected = None
            assert read(minutes) == expected

    def test_memo_starts_afresh_when_full(self):
        minutes = {}
        for k in range(MAX_MEMO_MINUTES + 5):
            date_text, time_text = format_timestamp(1_600_000_000.5 + 60.0 * k)
            assert parse_timestamp(date_text, time_text, minutes) == reference_parse_timestamp(date_text, time_text)
            assert len(minutes) <= MAX_MEMO_MINUTES
        assert len(minutes) == 5

    @settings(max_examples=200, deadline=None)
    @given(texts=st.lists(
        timestamp_texts() | st.tuples(
            st.sampled_from(["2023-02-28", "2023-2-28", "2023-02-29", "2024-02-29", "2023-02- 1", "2023-04-31",
                             "2023-12-31", "2024-01-01", "0000-01-01", "2023-01-01\t", "2023-3-1", "2023-03-01"]),
            # one minute in other spellings, second and minute rollovers, fractions of 1-6 digits
            st.sampled_from(["00:00:00", "23:59:59.999999", "1:2:3.5", "12:00:60", " 7:00:00", "0:0:1", "00:00:02",
                             "0:00:59.25", "00:01:00.125", "0:1:0.1234", "00:59:59.12345", "1:00:00.123456",
                             "23:59:59", "23:59:60", "0:0:59.9"]),
        ),
        min_size=1, max_size=8,
    ))
    @example(texts=[("2023-3-1", "0:0:1"), ("2023-03-01", "00:00:02"), ("2023-3-1", "0:0:59.9"),
                    ("2023-03-01", "00:01:00.12"), ("2023-3-1", "0:59:59.123"), ("2023-03-01", "01:00:00.1234"),
                    ("2023-02-28", "23:59:59.12345"), ("2023-3-1", "0:0:1.123456")])
    def test_shared_memo_equals_strptime(self, texts):
        minutes = {}
        for date_text, time_text in texts:
            try:
                expected = reference_parse_timestamp(date_text, time_text).hex()
            except ValueError:
                expected = None
            try:
                actual = parse_timestamp(date_text, time_text, minutes).hex()
            except ValueError:
                actual = None
            assert actual == expected


DB_TEXT = st.floats(min_value=-200.0, max_value=50.0).map(repr) | st.sampled_from(
    [" -60.5 ", "-0.0", "1e-320", "-1_0.5", "-200", "2e2", "200.00000000000003", "-1e16"]
)
# tokens that damage a row: not numbers, not finite, out of order, or not a timestamp
BAD_TOKENS = ["", "abc", "nan", "inf", "-inf", "1e400", "-1000000", "0", "2023-02-30",
              "12:00:61", "11:59:59", "-6\udcc3.0", "2023-01-01, 12:00:00"]


@st.composite
def sweep_files(draw):
    """Lines of a sweep file: well-formed sweeps in several spellings, then
    with some probability one field of one row replaced by a damaging token."""
    lines = []
    for k in range(draw(st.integers(min_value=1, max_value=4))):
        date_text = draw(st.sampled_from(["2023-01-01", " 2023-1-1", "2023-01-01\t"]))
        clock = draw(st.sampled_from([f"12:00:{2 * k:02d}", f"12:0:{2 * k}", f"12:00:{2 * k:02d}.000000",
                                      f"12:00:{2 * k}.5"]))
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            low_hz = draw(st.integers(min_value=-2, max_value=12)) * 500_000
            width_hz = draw(st.sampled_from([250_000, 500_000, 1_000_000, 3_000_000]))
            values = draw(st.lists(DB_TEXT, min_size=1, max_size=5))
            fields = [date_text, draw(st.sampled_from([clock, f" {clock} "])), str(low_hz),
                      str(low_hz + width_hz * len(values)), str(width_hz), "1", *values]
            lines.append(",".join(fields) + draw(st.sampled_from(["", ",", " ,", "\n", "\r\n"])))
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "   ", "# comment", "  # indented \udcc3"])))
    if draw(st.integers(min_value=0, max_value=2)) == 0:
        row = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        fields = lines[row].split(",")
        fields[draw(st.integers(min_value=0, max_value=len(fields) - 1))] = draw(st.sampled_from(BAD_TOKENS))
        lines[row] = ",".join(fields)
    return lines


# hz fields of a layout the slice-bound check rejects: empty, reversed, zero or
# negative width, or not finite
INVALID_SLICES = [("low", "low", "width"), ("high", "low", "width"), ("low", "high", "0"), ("low", "high", "-width"),
                  ("nan", "high", "width"), ("low", "inf", "width"), ("-inf", "high", "width"), ("low", "high", "inf"),
                  ("low", "high", "nan"), ("-inf", "inf", "width"), ("low", "1e400", "width")]


@st.composite
def layout_files(draw):
    """Sweeps whose rows come from a small pool of row layouts: a layout recurs
    across sweeps with other bin counts and in other spellings of the same hz
    values, its bins may be finer than a band or outside the plan, and a layout
    may be invalid; then with some probability one cell of one row (often a
    repeat of a layout) is replaced by a damaging token."""
    # the same value in other whitespace and other number spellings
    spelling = st.sampled_from(["{}", " {}", "{} ", "\t{}  ", "{}.0", "+{}", "{}e0"])
    pool = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        low_hz = draw(st.integers(min_value=-4, max_value=48)) * 250_000
        width_hz = draw(st.sampled_from([1, 100_000, 250_000, 1_000_000, 3_000_000]))
        values = {"low": low_hz, "high": low_hz + width_hz * draw(st.integers(min_value=1, max_value=6)),
                  "width": width_hz, "-width": -width_hz}
        names = ("low", "high", "width")
        if draw(st.integers(min_value=0, max_value=5)) == 0:
            names = draw(st.sampled_from(INVALID_SLICES))
        hz = [values.get(name, name) for name in names]
        for _ in range(draw(st.integers(min_value=1, max_value=2))):  # one spelling, or two
            pool.append([draw(spelling).format(v) for v in hz] + [draw(st.sampled_from(["1", " 20"]))])
    lines = []
    for k in range(draw(st.integers(min_value=1, max_value=5))):
        for _ in range(draw(st.integers(min_value=1, max_value=5))):
            cells = draw(st.lists(DB_TEXT, min_size=1, max_size=6))
            fields = ["2023-01-01", f"12:00:{2 * k:02d}", *draw(st.sampled_from(pool)), *cells]
            lines.append(",".join(fields) + draw(st.sampled_from(["", ",", " ,"])))
    if draw(st.integers(min_value=0, max_value=2)) == 0:
        row = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        fields = lines[row].split(",")
        fields[draw(st.integers(min_value=2, max_value=len(fields) - 1))] = draw(st.sampled_from(BAD_TOKENS))
        lines[row] = ",".join(fields)
    return lines


@st.composite
def extreme_files(draw):
    """Sweeps of rows whose bins are finer than any plan's band, so several
    bins share a band, holding cells at and next to +-MAX_ABS_DB."""
    cells = st.sampled_from(["200", "-200", "2e2", "-200.0", "199.99999999999997", "-199.99999999999997"]) | DB_TEXT
    lines = []
    for k in range(draw(st.integers(min_value=1, max_value=3))):
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            low_hz = draw(st.integers(min_value=0, max_value=9)) * 1_000_000
            width_hz = draw(st.sampled_from([10_000, 100_000, 250_000]))
            values = draw(st.lists(cells, min_size=1, max_size=12))
            lines.append(f"2023-01-01, 12:00:{2 * k:02d}, {low_hz}, {low_hz + width_hz * len(values)}, {width_hz}, 1, "
                         + ", ".join(values))
    return lines


class TestParserAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(rows=sweep_files() | layout_files(), plan=st.sampled_from(PLANS))
    def test_same_records_or_same_error_line(self, rows, plan):
        # the parser checks a layout and places its bins once per parse; every later row of it must still agree
        expected = outcome(reference_parse_sweep_lines, rows, plan)
        assert outcome(parse_sweep_lines, rows, plan) == expected

    @pytest.mark.parametrize("bins, rows, bound_mb", [(100, 1_400, 8.0), (1, 70_000, 5.5)], ids=["wide", "one_cell"])
    def test_more_layouts_than_the_memo_holds(self, bins, rows, bound_mb):
        """Sweeps of ten rows, each row a layout of its own (num_samples differs)
        of ``bins`` one-band bins, hold over twice the runs the memo keeps:
        1,400 rows of 100 bins would hold 141,400, and 70,000 one-cell rows
        140,000 (a run and the layout each). The memo clears when full, so the
        parse stays equal to the reference and its peak stays below what an
        unbounded memo reaches: ~5 MB against ~10.6 MB for the wide rows, and
        ~3.6 MB against ~7.4 MB for the one-cell rows."""
        plan = BandPlan.uniform(low_mhz=0.0, high_mhz=100.0, width_mhz=1.0)
        cells = ", ".join(f"-{50 + i}.5" for i in range(bins))
        lines = []
        for k in range(rows):
            low_hz = k % (101 - bins) * 1_000_000  # the row's bins lie in the 100-band plan
            lines.append(f"{', '.join(format_timestamp(1_600_000_000.0 + k // 10))}, {low_hz}, "
                         f"{low_hz + bins * 1_000_000}, 1000000, {k}, {cells}")
        assert len(lines) * (bins + 1) > 2 * MAX_LAYOUT_RUNS
        expected = [repr(record) for record in reference_parse_sweep_lines(lines, plan)]
        tracemalloc.start()
        try:
            for got, want in zip_longest(parse_sweep_lines(lines, plan), expected):
                assert repr(got) == want
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 1024 * 1024

    @settings(max_examples=300, deadline=None)
    @given(rows=sweep_files() | layout_files() | extreme_files(), plan=st.sampled_from(PLANS))
    def test_parser_records_pass_the_checked_constructor(self, rows, plan):
        # the parser builds records without SweepRecord's checks: each must be one the checks accept
        records = []
        try:
            records.extend(parse_sweep_lines(rows, plan))
        except SweepParseError:
            pass
        for parsed in records:
            assert repr(SweepRecord(parsed.timestamp, dict(parsed.rss_by_id))) == repr(parsed)

    @settings(max_examples=300, deadline=None)
    @given(
        freqs=st.lists(
            st.floats(min_value=-1.0, max_value=40.0)
            | st.floats(min_value=2399.0, max_value=2501.0)
            | st.sampled_from([0.0, 0.7, 0.71, 1.0, 1.5, 4.0, 6.0, 9.99, 10.0, 30.0, 2400.1, 2400.4, 2500.0,
                               math.nan, math.inf]),
            min_size=1,
            max_size=8,
        ),
        plan=st.sampled_from(PLANS),
    )
    def test_arithmetic_binning_equals_band_for(self, freqs, plan):
        # one row per frequency: a slice 2 Hz wide whose single bin sits at freq
        lines = [
            f"2023-01-01, 12:00:00, {freq * 1e6 - 1.0!r}, {freq * 1e6 + 1.0!r}, 2, 1, {-50.0 - k}"
            for k, freq in enumerate(freqs)
        ]
        assert outcome(parse_sweep_lines, lines, plan) == outcome(reference_parse_sweep_lines, lines, plan)

    @settings(max_examples=300, deadline=None)
    @given(
        lines=st.lists(
            st.text(max_size=60) | st.text(alphabet="0123456789,.:- e\t#nafi\udcc3", max_size=80),
            max_size=8,
        ),
        plan=st.sampled_from(PLANS),
    )
    def test_arbitrary_text_raises_only_parse_errors(self, lines, plan):
        try:
            list(parse_sweep_lines(lines, plan))
        except SweepParseError:
            pass


class TestParserEdgeCases:
    def test_band_mean_sums_left_to_right(self):
        # a compensated sum (sum() from Python 3.12 on) would give math.fsum's 0.6 / 3
        plan = BandPlan.uniform(low_mhz=0.0, high_mhz=30.0, width_mhz=3.0)
        line = "2023-01-01, 12:00:00, 0, 3000000, 1000000, 1, 0.1, 0.2, 0.3"
        (record,) = parse_all([line], plan)
        assert (0.1 + 0.2 + 0.3) / 3 != math.fsum([0.1, 0.2, 0.3]) / 3
        assert record.rss_by_id == {0: (0.1 + 0.2 + 0.3) / 3}

    def test_out_of_range_cell_names_its_line(self, small_plan):
        lines = [
            "2023-01-01, 12:00:00, 0, 1000000, 1000000, 1, -200.0",
            "2023-01-01, 12:00:00, 1000000, 2000000, 500000, 1, 200.0, 1.7e308",
            "2023-01-01, 12:00:01, 0, 1000000, 1000000, 1, -60.0",
        ]
        with pytest.raises(SweepParseError, match=r"line 2: dB value 1\.7e\+308 outside \[-200, 200\]"):
            parse_all(lines, small_plan)
        assert [r.rss_by_id for r in parse_all(lines[:1], small_plan)] == [{0: -200.0}]

    def test_non_ascii_byte_names_its_line(self, small_plan, tmp_path):
        path = tmp_path / "sweeps.csv"
        path.write_bytes(
            b"# r\xc3\xa9sum\xc3\xa9 of a capture\n"
            b"2023-01-01, 12:00:00, 0, 1000000, 1000000, 1, -60.0\n"
            b"2023-01-01, 12:00:01, 0, 1000000, 1000000, 1, -6\xc3.0\n"
        )
        with pytest.raises(SweepParseError, match="line 3"):
            list(parse_sweep_file(path, small_plan))

    @pytest.mark.parametrize("hz", ["nan, nan, nan", "-inf, inf, 1000000", "0, inf, 1000000", "0, 1000000, inf",
                                    "-1e400, 1000000, 1000000", "0, 1000000, nan"])
    def test_non_finite_slice_bounds_rejected(self, small_plan, hz):
        # NaN and inf compare false, so they once passed the bound check and the row was silently dropped
        lines = ["2023-01-01, 12:00:00, 0, 1000000, 1000000, 1, -60.0", f"2023-01-01, 12:00:00, {hz}, 1, -60"]
        with pytest.raises(SweepParseError, match="line 2: invalid frequency slice bounds"):
            parse_all(lines, small_plan)

    def test_parser_records_equal_checked_records(self, small_plan):
        line = "2023-01-01, 12:00:00, 0, 3000000, 1000000, 1, -60.0, -50.0, -40.0"
        (record,) = parse_all([line], small_plan)
        checked = SweepRecord(timestamp=record.timestamp, rss_by_id=dict(record.bands))
        assert record == checked and repr(record) == repr(checked)
        assert list(record.rss_by_id) == [0, 1, 2]

    def test_rows_descending_in_frequency_are_sorted(self, small_plan):
        # a sweep whose bands arrive ascending skips the sort; the first sweep here needs it
        lines = [f"2023-01-01, 12:00:00, {k * 1_000_000}, {(k + 1) * 1_000_000}, 1000000, 1, -{60 + k}.5"
                 for k in (5, 3, 4, 0)]
        lines += ["2023-01-01, 12:00:01, 0, 1000000, 1000000, 1, -60.0",
                  "2023-01-01, 12:00:01, 7000000, 8000000, 1000000, 1, -67.0"]
        assert outcome(parse_sweep_lines, lines, small_plan) == outcome(reference_parse_sweep_lines, lines, small_plan)
        first, second = parse_all(lines, small_plan)
        assert list(first.rss_by_id) == [0, 3, 4, 5] and list(second.rss_by_id) == [0, 7]

    def test_whole_row_run_extended_by_the_next_row_stays_in_its_sweep(self, small_plan):
        # four 250 kHz bins in band 2 form one run over the whole row, which keeps the row's own list;
        # the next row extends that band, and the same layouts in later sweeps start lists of their own
        lines = [
            "2023-01-01, 12:00:00, 2000000, 3000000, 250000, 1, -60.0, -61.0, -62.0, -63.0",
            "2023-01-01, 12:00:00, 2000000, 3000000, 1000000, 1, -70.0",
            "2023-01-01, 12:00:01, 2000000, 3000000, 250000, 1, -50.0, -51.0, -52.0, -53.0",
            "2023-01-01, 12:00:02, 2000000, 3000000, 1000000, 1, -40.0",
            "2023-01-01, 12:00:02, 2000000, 3000000, 250000, 1, -41.0, -42.0, -43.0, -44.0",
        ]
        assert outcome(parse_sweep_lines, lines, small_plan) == outcome(reference_parse_sweep_lines, lines, small_plan)
        assert [r.rss_by_id for r in parse_all(lines, small_plan)] == [
            {2: ordered_sum([-60.0, -61.0, -62.0, -63.0, -70.0]) / 5}, {2: -51.5}, {2: -42.0},
        ]

    @pytest.mark.parametrize("low", [-100.0, -0.5, -1e-300])
    def test_plan_below_zero_mhz_rejected(self, low):
        with pytest.raises(ConfigError, match="above 0 MHz"):
            BandPlan(low, low + 4.0, 1.0)
        with pytest.raises(ConfigError, match="above 0 MHz"):
            BandPlan.uniform(low_mhz=-100.0, high_mhz=100.0, width_mhz=1.0)


def stamped(second, *rows):
    """Rows of one sweep at 12:00:``second``, each given as its text after the timestamp."""
    return [f"2023-01-01, 12:00:{second:02d}, {row}" for row in rows]


class TestRunningBandSums:
    """A sweep's bands are summed as their rows are read: a one-cell row adds its
    value to its band's sum, and a band with several values is divided once."""

    def assert_as_reference(self, lines, plan, expected):
        assert outcome(parse_sweep_lines, lines, plan) == outcome(reference_parse_sweep_lines, lines, plan)
        assert [record.rss_by_id for record in parse_all(lines, plan)] == expected

    def test_one_cell_rows_in_one_band_average(self, small_plan):
        # the same layout twice and another layout of the same band, then a sweep of one value
        lines = stamped(0, "2000000, 3000000, 1000000, 1, -60.5", "3000000, 4000000, 1000000, 1, -70.0",
                        "2000000, 3000000, 1000000, 1, -61.25", "2250000, 2750000, 500000, 1, -62.1")
        lines += stamped(1, "2000000, 3000000, 1000000, 1, -50.0")
        self.assert_as_reference(lines, small_plan, [{2: ordered_sum([-60.5, -61.25, -62.1]) / 3, 3: -70.0},
                                                     {2: -50.0}])

    def test_one_cell_row_outside_the_plan_adds_nothing(self, small_plan):
        # 50 MHz lies above the 0-10 MHz plan; the second sweep reads its layout from the memo
        outside = "50000000, 51000000, 1000000, 1, -10.0"
        lines = stamped(0, "0, 1000000, 1000000, 1, -60.0", outside, "1000000, 2000000, 1000000, 1, -61.0")
        lines += stamped(1, outside, "1000000, 2000000, 1000000, 1, -62.0")
        self.assert_as_reference(lines, small_plan, [{0: -60.0, 1: -61.0}, {1: -62.0}])
        # its cell is still checked, in the row's turn
        bad = lines[:4] + stamped(1, "50000000, 51000000, 1000000, 1, 250")
        assert outcome(parse_sweep_lines, bad, small_plan)[1:] == (5, "dB value 250.0 outside [-200, 200]")
        assert outcome(parse_sweep_lines, bad, small_plan) == outcome(reference_parse_sweep_lines, bad, small_plan)

    def test_multi_bin_runs_over_two_bands_extended_by_one_cell_rows(self, small_plan):
        # four 500 kHz bins from 1 MHz: two in band 1, two in band 2; one-cell rows before and after
        split = "1000000, 3000000, 500000, 1, -60.0, -61.0, -62.0, -63.0"
        lines = stamped(0, "1000000, 2000000, 1000000, 1, -59.0", split, "2000000, 3000000, 1000000, 1, -70.0")
        lines += stamped(1, split)
        self.assert_as_reference(lines, small_plan, [
            {1: ordered_sum([-59.0, -60.0, -61.0]) / 3, 2: ordered_sum([-62.0, -63.0, -70.0]) / 3},
            {1: -60.5, 2: -62.5},
        ])

    def test_negative_zero_cells_average_to_zero(self, small_plan):
        # the reference sums from 0.0, and 0.0 + -0.0 is 0.0: no band mean is -0.0
        lines = stamped(0, "0, 1000000, 1000000, 1, -0.0", "1000000, 2000000, 1000000, 1, -0.0",
                        "1000000, 2000000, 1000000, 1, -0.0", "2000000, 3000000, 500000, 1, -0.0, -0.0",
                        "3000000, 5000000, 1000000, 1, -0.0, -0.0")
        self.assert_as_reference(lines, small_plan, [{0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0}])
        (record,) = parse_all(lines, small_plan)
        assert repr(record.rss_by_id) == "{0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0}"

    def test_one_cell_rows_in_descending_bands_are_sorted(self, small_plan):
        lines = stamped(0, *(f"{k}000000, {k + 1}000000, 1000000, 1, -{60 + k}.5" for k in (5, 4, 5, 2, 0)))
        lines += stamped(1, *(f"{k}000000, {k + 1}000000, 1000000, 1, -{50 + k}.0" for k in (2, 4)))
        self.assert_as_reference(lines, small_plan, [{0: -60.5, 2: -62.5, 4: -64.5, 5: -65.5}, {2: -52.0, 4: -54.0}])
        first, second = parse_all(lines, small_plan)
        assert list(first.rss_by_id) == [0, 2, 4, 5] and list(second.rss_by_id) == [2, 4]

    def test_a_yielded_record_is_not_changed_by_the_next_sweep(self, small_plan):
        # every sweep reuses the layouts and bands of the one before, in and out of order
        sweeps = [("2000000, 3000000, 1000000, 1, -6{}.0", "1000000, 3000000, 500000, 1, -5{}.0, -4{}.0, -3{}.0, -2{}.0",
                   "0, 1000000, 1000000, 1, -7{}.5"), ("0, 1000000, 1000000, 1, -7{}.5", "2000000, 3000000, 1000000, 1, -6{}.0")]
        lines = [line for k in range(6) for line in stamped(k, *(row.replace("{}", str(k)) for row in sweeps[k % 2]))]
        held, texts = [], []
        for record in parse_sweep_lines(lines, small_plan):
            assert [repr(earlier) for earlier in held] == texts  # reading this sweep changed none before it
            held.append(record)
            texts.append(repr(record))
        assert texts == [repr(record) for record in parse_sweep_lines(lines, small_plan)]
        assert len({id(record.rss_by_id) for record in held}) == len(held) == 6


# known layouts, each read by the checker on its first row: later rows of one take the hit path. KNOWN is
# one cell in band 2 of the 0-10 MHz plan, WIDE five 1 MHz bins in bands 2 to 6.
KNOWN = "2000000, 3000000, 1000000, 1"
WIDE = "2000000, 7000000, 1000000, 1"
LAYOUTS = {"one_cell": (KNOWN, ("-60.5",)), "five_bin": (WIDE, ("-60.5", "-70.25", "-80.0", "-90.5", "-100.0"))}


def layout_row(hz, cells, *, last=None, delta=0.0):
    """A row's text after its timestamp: ``hz`` and ``cells``, each moved by ``delta`` dB, the last one
    replaced by ``last`` when given."""
    cells = [repr(float(cell) + delta) for cell in cells]
    if last is not None:
        cells[-1] = last
    return f"{hz}, {', '.join(cells)}"


def sweep_means(*rows):
    """Band id -> mean of a sweep of rows of cells, the i-th cell of a row in band 2 + i."""
    values = {}
    for cells in rows:
        for i, cell in enumerate(cells):
            values.setdefault(2 + i, []).append(float(cell))
    return {band_id: ordered_sum(band) / len(band) for band_id, band in sorted(values.items())}


@pytest.mark.parametrize("hz, cells", LAYOUTS.values(), ids=LAYOUTS.keys())
class TestOneHitPath:
    """Rows that share a known layout's hz text but that the hit path cannot
    read: each must go to the checker and give what the reference gives, for a
    one-cell and a five-bin layout alike. Each case names the hit-path mutants
    it kills."""

    def assert_as_reference(self, lines, plan, error=None):
        got = outcome(parse_sweep_lines, lines, plan)
        assert got == outcome(reference_parse_sweep_lines, lines, plan)
        assert got[1:] == (error or (None, None))

    def test_six_fields_ending_in_a_comma(self, small_plan, hz, cells):
        # kills: a hit path that reads the empty text after the last comma as a value, and one that words
        # its own error for a cell it cannot read (it would say "bad numeric field")
        lines = stamped(0, layout_row(hz, cells), f"{hz},")
        self.assert_as_reference(lines, small_plan, (2, "expected at least 7 fields, got 6"))

    def test_row_with_a_trailing_comma(self, small_plan, hz, cells):
        # kills: a hit path or checker that reads the trailing comma as one more, empty cell (a bad numeric
        # field); the rows are valid and add to their bands
        first, second, third = (layout_row(hz, cells, delta=d) for d in (0.0, -1.0, -2.0))
        lines = stamped(0, first, f"{second},", f"{third} ,")
        lines += stamped(1, f"{layout_row(hz, cells, delta=10.5)},", layout_row(hz, cells, delta=9.5))
        self.assert_as_reference(lines, small_plan)
        moved = [[float(cell) + d for cell in cells] for d in (0.0, -1.0, -2.0, 10.5, 9.5)]
        assert [r.rss_by_id for r in parse_all(lines, small_plan)] == [sweep_means(*moved[:3]),
                                                                       sweep_means(*moved[3:])]

    @pytest.mark.parametrize("cell, error", [("abc", None), (" , ", None), ("-6\udcc3.0", None), ("0x10", None),
                                             ("nan", "dB value nan outside [-200, 200]")])
    def test_empty_or_non_numeric_last_cell(self, small_plan, hz, cells, cell, error):
        # kills: a hit path that skips a cell it cannot read (the row dropped, no error) or words its own
        # error, and one whose bounds check lets NaN through
        lines = stamped(0, layout_row(hz, cells), layout_row(hz, cells, last=cell))
        self.assert_as_reference(lines, small_plan, (2, error or f"bad numeric field in {lines[1].strip()!r}"))

    def test_same_hz_text_with_another_cell_count(self, small_plan, hz, cells):
        # kills: a memo keyed on the hz text alone, which reads a row of another cell count with the known
        # layout's band id or runs: it drops cells, or reads cells as hz fields
        n = len(cells)
        for other in sorted({1, 2, n - 1, n + 1} - {0, n}):
            wider = [f"-{40 + i}.0" for i in range(other)]
            lines = stamped(0, layout_row(hz, cells), f"{hz}, {', '.join(wider)}", layout_row(hz, cells, delta=-1.5))
            self.assert_as_reference(lines, small_plan)
            assert [r.rss_by_id for r in parse_all(lines, small_plan)] == [
                sweep_means(cells, wider, [float(cell) - 1.5 for cell in cells])]

    @pytest.mark.parametrize("cell, shown", [("250", "250.0"), ("-200.00000000000003", "-200.00000000000003"),
                                             ("1e400", "inf"), ("-1e400", "-inf")])
    def test_row_beyond_the_db_bound(self, small_plan, hz, cells, cell, shown):
        # kills: a hit path that skips the bounds check, checks one side of it, or checks one cell of a row
        lines = stamped(0, layout_row(hz, cells), layout_row(hz, cells, last="200"), layout_row(hz, cells, last=cell))
        self.assert_as_reference(lines, small_plan, (3, f"dB value {shown} outside [-200, 200]"))
        first_cell = stamped(0, layout_row(hz, cells), f"{hz}, {', '.join((cell, *cells[1:]))}")
        self.assert_as_reference(first_cell, small_plan, (2, f"dB value {shown} outside [-200, 200]"))

    def test_stamp_fields_in_other_whitespace_within_one_sweep(self, small_plan, hz, cells):
        # kills: a hit path that starts a sweep whenever the raw stamp text changes (a repeated-timestamp
        # error), or that compares the time field alone (the next day's 12:00:01 merged into this day's)
        rows = [layout_row(hz, cells, delta=-d) for d in range(7)]
        lines = [f"2023-01-01, 12:00:00, {rows[0]}", f"2023-01-01,12:00:00, {rows[1]}",
                 f" 2023-01-01 ,\t12:00:00 , {rows[2]}", f"2023-01-01, 12:00:00, {rows[3]}",
                 f"2023-01-01, 12:00:01, {rows[4]}", f"2023-01-01 , 12:00:01, {rows[5]}",
                 f"2023-01-02 , 12:00:01, {rows[6]}"]
        self.assert_as_reference(lines, small_plan)
        moved = [[float(cell) - d for cell in cells] for d in range(7)]
        assert [r.rss_by_id for r in parse_all(lines, small_plan)] == [
            sweep_means(*moved[:4]), sweep_means(*moved[4:6]), sweep_means(moved[6])]

    @pytest.mark.parametrize("first, second", [("12:00:00", "12:00:00.000000"), ("12:00:01.5", "12:0:01.500000"),
                                               ("12:00:02", "12:00:2")])
    def test_second_spelling_of_the_same_time_on_the_next_row(self, small_plan, hz, cells, first, second):
        # kills: a hit path that compares stamps by their value, not their text, and so merges a second
        # spelling of the pending sweep's time into that sweep
        lines = [f"2023-01-01, {first}, {layout_row(hz, cells)}", f"2023-01-01, {second}, {layout_row(hz, cells)}"]
        self.assert_as_reference(lines, small_plan, (2, "timestamp decreased or repeated across sweeps"))


# four sweeps of five rows that alternate KNOWN's one cell and WIDE's five bins, row by row over the file
ALTERNATING = [f"2023-01-01, 12:00:{k // 5:02d}, {layout_row(*LAYOUTS['five_bin' if k % 2 else 'one_cell'], delta=-k)}"
               for k in range(20)]


class TestAlternatingLayouts:
    """Every row of ALTERNATING has another cell count than the row before
    it, so the hit path takes none of them and the checker reads each as the
    reference does."""

    def test_records_equal_the_reference(self, small_plan):
        expected = outcome(reference_parse_sweep_lines, ALTERNATING, small_plan)
        assert expected[1:] == (None, None) and expected[0].count("SweepRecord(") == 4
        assert outcome(parse_sweep_lines, ALTERNATING, small_plan) == expected

    @pytest.mark.parametrize("token", ["", "abc", "nan", "250", "1e400", "-0.0", "12:00:61"])
    def test_each_damaged_row_fails_on_the_reference_line(self, small_plan, token):
        # every row's last cell and, in turn, its time field
        for row in range(len(ALTERNATING)):
            for field in (-1, 1):
                fields = ALTERNATING[row].split(",")
                fields[field] = token
                lines = ALTERNATING[:row] + [",".join(fields)] + ALTERNATING[row + 1:]
                expected = outcome(reference_parse_sweep_lines, lines, small_plan)
                assert outcome(parse_sweep_lines, lines, small_plan) == expected, (row, field)


def capture_rows(count, start=0, newline="\n"):
    """``count`` one-row sweeps 0.1 s apart, each row ending in ``newline``."""
    rows = []
    for k in range(start, start + count):
        date_text, time_text = format_timestamp(1_700_000_000 + k / 10)
        rows.append(f"{date_text}, {time_text}, {k % 9 * 1_000_000}, {k % 9 * 1_000_000 + 500_000}, "
                    f"250000, 1, -{60 + k % 7}.5, -{61 + k % 5}.25{newline}")
    return "".join(rows).encode("ascii")


def placed(body, position, at):
    """A comment line, then ``body``, so that byte ``position`` of the body is byte ``at`` of the file."""
    assert at - position >= 2
    return b"#" + b"-" * (at - position - 2) + b"\n" + body


def text_mode_outcome(path, plan):
    """What the parser gives on the file read as text, line by line, with universal newlines."""
    with open(path, "r", encoding="ascii", errors="surrogateescape") as handle:
        return outcome(parse_sweep_lines, handle, plan)


def file_outcome(path, plan):
    try:
        return outcome(lambda _, plan: parse_sweep_file(path, plan), None, plan)
    except InputError as exc:  # a file with no sweep
        return str(exc)


class TestBlockReader:
    """``parse_sweep_file`` reads READ_BLOCK bytes at a time; it must give what a
    text-mode reading of the same bytes gives, wherever the blocks end."""

    def check(self, tmp_path, data, plan):
        path = tmp_path / "sweeps.csv"
        path.write_bytes(data)
        assert len(data) > 2 * READ_BLOCK
        expected = text_mode_outcome(path, plan)
        assert file_outcome(path, plan) == expected
        return expected

    def test_row_straddling_a_block(self, small_plan, tmp_path):
        body = capture_rows(3_000)
        data = placed(body, body.index(b"\n", 40_000) - 30, READ_BLOCK)  # a row cut 30 bytes before its end
        records, line_no, _ = self.check(tmp_path, data, small_plan)
        assert line_no is None and records.count("SweepRecord(") == 3_000

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_carriage_returns_split_by_a_block(self, small_plan, tmp_path, newline):
        body = capture_rows(3_000, newline=newline)
        # the "\r" of a row ends one block; the next block opens with its "\n", or with the next row
        data = placed(body, body.index(b"\r", 40_000), READ_BLOCK - 1)
        records, line_no, _ = self.check(tmp_path, data, small_plan)
        assert line_no is None and records.count("SweepRecord(") == 3_000

    def test_final_carriage_return_and_no_trailing_newline(self, small_plan, tmp_path):
        for tail in (b"\r", b""):
            records, line_no, _ = self.check(tmp_path, capture_rows(3_000).rstrip(b"\n") + tail, small_plan)
            assert line_no is None and records.count("SweepRecord(") == 3_000

    @pytest.mark.parametrize("damage", [(b"-6", b"-6\xc3"), (b", 1, ", b", 1, x")])
    def test_bad_row_in_a_later_block_names_its_line(self, small_plan, tmp_path, damage):
        body = bytearray(capture_rows(4_000))
        start = body.index(b"\n", 100_000) + 1  # a row that crosses into the third block
        end = body.index(b"\n", start)
        body[start:end] = body[start:end].replace(*damage)
        data = placed(bytes(body), start + 20, 2 * READ_BLOCK)
        _, line_no, message = self.check(tmp_path, data, small_plan)
        assert line_no == data[:2 * READ_BLOCK].count(b"\n") + 1
        assert message.startswith("bad numeric field")

    @settings(max_examples=200, deadline=None)
    @given(rows=sweep_files(), newline=st.sampled_from(["\n", "\r\n", "\r"]), block=st.integers(1, 9))
    def test_any_block_size_reads_as_text_mode(self, tmp_path_factory, rows, newline, block):
        # blocks of a few bytes end at every place a row can be cut
        path = tmp_path_factory.mktemp("blocks") / "sweeps.csv"
        path.write_bytes(newline.join(rows).encode("ascii", "surrogateescape"))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sweeps, "READ_BLOCK", block)
            assert file_outcome(path, PLANS[0]) == text_mode_outcome(path, PLANS[0])

    def test_memory_stays_near_one_block(self, small_plan, tmp_path):
        # a reader that takes the whole file, or all its rows, at once would hold megabytes
        path = tmp_path / "sweeps.csv"
        with open(path, "wb") as handle:
            for start in range(0, 40_000, 1_000):
                handle.write(capture_rows(1_000, start))
        assert path.stat().st_size > 40 * READ_BLOCK
        tracemalloc.start()
        try:
            count = sum(1 for _ in parse_sweep_file(path, small_plan))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 40_000
        # about 4.5: a block, its text and its rows; holding the last block and rows too read about 6
        assert peak < 5 * READ_BLOCK, peak

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
    def test_pipe_yields_a_sweep_before_a_block_fills(self, small_plan, tmp_path):
        # the writer sends one sweep and the first row of the next, then waits: the first sweep
        # must come out while the pipe holds far less than a block
        fifo = tmp_path / "sweeps.fifo"
        os.mkfifo(fifo)
        rows = capture_rows(3)
        first_two = rows[:rows.index(b"\n", rows.index(b"\n") + 1) + 1]
        release = threading.Event()
        got = []

        def write():
            with open(fifo, "wb", buffering=0) as pipe:
                pipe.write(first_two)
                release.wait(30)
                pipe.write(rows[len(first_two):])

        records = parse_sweep_file(fifo, small_plan)
        writer = threading.Thread(target=write, daemon=True)
        reader = threading.Thread(target=lambda: got.append(next(records)), daemon=True)
        writer.start()
        reader.start()
        try:
            reader.join(10)
            assert not reader.is_alive(), "the first sweep waited for more input"
        finally:
            release.set()  # on a failure this lets the reader finish instead of hanging
            reader.join(10)
            writer.join(10)
        assert not writer.is_alive()
        got.extend(records)
        assert got == list(parse_sweep_lines(rows.decode("ascii").splitlines(), small_plan))
