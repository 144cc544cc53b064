import math
from collections import Counter
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweepnav import (
    Anchor,
    AnchorFrame,
    BandPlan,
    ConfigError,
    DegenerateGeometryError,
    EkfTracker,
    InsufficientAnchorsError,
    PipelineConfig,
    PlacementError,
    TrackingPipeline,
    TrajectoryStep,
    assign_anchor_frame,
    matched_config,
    route_scenario,
    run_pipeline,
    score_run,
    simulate_run,
    static_scenario,
)
from sweepnav.artifacts import read_trajectory_csv, summary_text, write_trajectory_csv
from sweepnav import ekf, pipeline as pipeline_module
from sweepnav.placement import place_in_box, validate_bbox
from sweepnav.simulator import segment_lengths
from sweepnav.smoothing import Smoother
from sweepnav.sweeps import SweepRecord, SweepWindow


class TestTrajectoryStep:
    STEP = TrajectoryStep(
        index=3, timestamp=1.5, x_raw=1.0, y_raw=2.0, x_wma=3.0, y_wma=4.0, x_ekf=5.0, y_ekf=6.0,
        residual_norm=0.25, flags=("held", "missing_band"),
    )

    def test_keywords_properties_and_default_flags(self):
        step = self.STEP
        assert (step.raw, step.wma, step.ekf) == ((1.0, 2.0), (3.0, 4.0), (5.0, 6.0))
        assert step.index == 3 and step.flags == ("held", "missing_band")
        assert TrajectoryStep(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, math.nan).flags == ()

    @pytest.mark.parametrize("field", TrajectoryStep._fields)
    def test_fields_cannot_be_assigned(self, field):
        with pytest.raises(AttributeError):
            setattr(self.STEP, field, getattr(self.STEP, field))


class TestAnchorFrame:
    BBOX = (-100.0, -50.0, 300.0, 250.0)

    def test_deterministic(self):
        a1 = assign_anchor_frame([5, 2, 9, 7], seed=11, bbox=self.BBOX)
        a2 = assign_anchor_frame([5, 2, 9, 7], seed=11, bbox=self.BBOX)
        assert a1 == a2

    def test_positions_keyed_by_band_not_order(self):
        a1 = assign_anchor_frame([5, 2, 9, 7], seed=11, bbox=self.BBOX)
        a2 = assign_anchor_frame([9, 7, 5, 2], seed=11, bbox=self.BBOX)
        assert {a.band_id: (a.x, a.y) for a in a1} == {a.band_id: (a.x, a.y) for a in a2}
        assert [a.band_id for a in a2] == [9, 7, 5, 2]

    def test_different_seeds_place_differently(self):
        a1 = assign_anchor_frame([5, 2, 9, 7], seed=11, bbox=self.BBOX)
        a2 = assign_anchor_frame([5, 2, 9, 7], seed=12, bbox=self.BBOX)
        assert a1 != a2

    def test_containment_and_separation(self):
        anchors = assign_anchor_frame(list(range(8)), seed=3, bbox=self.BBOX)
        xmin, ymin, xmax, ymax = self.BBOX
        diag = math.hypot(xmax - xmin, ymax - ymin)
        for a in anchors:
            assert xmin <= a.x <= xmax and ymin <= a.y <= ymax
        for i, a in enumerate(anchors):
            for b in anchors[i + 1:]:
                assert math.hypot(a.x - b.x, a.y - b.y) >= 0.01 * diag

    def test_requires_four_bands(self):
        with pytest.raises(InsufficientAnchorsError):
            assign_anchor_frame([1, 2, 3], seed=0, bbox=self.BBOX)

    def test_placement_gives_up_eventually(self, monkeypatch):
        monkeypatch.setattr("sweepnav.placement.DEFAULT_MIN_SEP_FRAC", 2.0)  # wider than the box's diagonal
        with pytest.raises(PlacementError):
            place_in_box([1, 2], seed=0, bbox=(0.0, 0.0, 1.0, 1.0))

    @pytest.mark.parametrize("bbox", [(-1e308, -1e308, 1e308, 1e308), (0.0, -1e308, 1.0, 1e308)])
    def test_box_whose_diagonal_overflows_rejected(self, bbox):
        with pytest.raises(ConfigError, match="diagonal overflows"):
            validate_bbox(bbox)

    def test_largest_boxes_still_place_inside(self):
        bbox = (-0.5e308, -0.5e308, 0.5e308, 0.5e308)  # diagonal about 1.41e308
        assert validate_bbox(bbox) == bbox
        for x, y in place_in_box([1, 2, 3, 4], seed=0, bbox=bbox).values():
            assert -0.5e308 <= x <= 0.5e308 and -0.5e308 <= y <= 0.5e308


class TestPipelineRuns:
    def test_static_zero_noise_fixes_identical(self):
        scenario = static_scenario(seed=4, duration_s=29.0, shadowing_sigma_db=0.0)
        run = simulate_run(scenario)
        trajectory = run_pipeline(run.sweeps, matched_config(scenario))
        assert len(trajectory) == len(run.sweeps)
        assert trajectory.steps[0].raw == (0.0, 0.0)
        assert max(math.hypot(x, y) for x, y in trajectory.positions("raw")) < 1e-6

    def test_noiseless_route_segments_within_one_percent(self):
        scenario = route_scenario(seed=3, shadowing_sigma_db=0.0)
        run = simulate_run(scenario)
        trajectory = run_pipeline(run.sweeps, matched_config(scenario, sweep_window=1))
        report = score_run(run.truth, trajectory).segments["raw"]
        assert len(report) == 4 and all(seg.percent_diff < 1.0 for seg in report)

    def test_online_equals_batch(self):
        scenario = static_scenario(seed=6, duration_s=24.0)
        run = simulate_run(scenario)
        config = matched_config(scenario)

        batch = run_pipeline(list(run.sweeps), config)
        pipeline = TrackingPipeline(config)
        for sweep in run.sweeps:
            pipeline.process(sweep)
        online = pipeline.finish()
        assert online.steps == batch.steps

    def test_deterministic_across_runs(self):
        scenario = route_scenario(seed=9)
        run = simulate_run(scenario)
        config = matched_config(scenario)
        t1 = run_pipeline(run.sweeps, config)
        t2 = run_pipeline(run.sweeps, config)
        assert t1.steps == t2.steps

    def test_empty_stream_yields_empty_trajectory(self):
        trajectory = run_pipeline([], matched_config(static_scenario(seed=1)))
        assert len(trajectory) == 0
        assert trajectory.skipped_sweeps == 0

    def test_timestamps_must_increase(self):
        scenario = static_scenario(seed=2, duration_s=5.0)
        run = simulate_run(scenario)
        config = matched_config(scenario)
        pipeline = TrackingPipeline(config)
        pipeline.process(run.sweeps[0])
        with pytest.raises(ValueError):
            pipeline.process(run.sweeps[0])

    def test_position_fields_are_floats(self):
        scenario = route_scenario(seed=5)
        run = simulate_run(scenario)
        trajectory = run_pipeline(run.sweeps, matched_config(scenario))
        fields = ("x_raw", "y_raw", "x_wma", "y_wma", "x_ekf", "y_ekf")
        assert {type(getattr(s, f)) for s in trajectory.steps for f in fields} == {float}


class TestStageEntryPoints:
    # Each stage of a sweep stays one call to an entry point that a tracer can
    # wrap by attribute replacement: inlining one would hide its time.
    STAGES = [
        (SweepWindow, "push"), (SweepWindow, "means_dbm"), (pipeline_module, "invert_distance"),
        (AnchorFrame, "solve"), (Smoother, "push"), (EkfTracker, "step"), (ekf, "predict"), (ekf, "update"),
    ]

    def test_one_sweep_calls_every_stage(self, monkeypatch):
        scenario = route_scenario(seed=5)
        run = simulate_run(scenario)
        config = matched_config(scenario)
        tracking = TrackingPipeline(config)
        for sweep in run.sweeps[:5]:
            tracking.process(sweep)
        calls = Counter()
        for owner, name in self.STAGES:
            key = f"{owner.__name__.rsplit('.', 1)[-1]}.{name}"

            def counted(*args, key=key, original=getattr(owner, name)):
                calls[key] += 1
                return original(*args)

            monkeypatch.setattr(owner, name, counted)
        step = tracking.process(run.sweeps[5])
        bands = config.band_count
        assert step.index == 5 and step.flags == ()
        assert calls == {
            "SweepWindow.push": 1, "SweepWindow.means_dbm": 1, "pipeline.invert_distance": bands,
            "AnchorFrame.solve": 1, "Smoother.push": 1, "EkfTracker.step": 1,
            "ekf.predict": 1, "ekf.update": bands,
        }


def strip_band(record, band_id):
    return SweepRecord(
        timestamp=record.timestamp,
        rss_by_id={b: rss for b, rss in record.rss_by_id.items() if b != band_id},
    )


class TestHeldFixes:
    def test_missing_band_holds_previous_fix(self):
        scenario = route_scenario(seed=2, shadowing_sigma_db=0.0)
        run = simulate_run(scenario)
        records = list(run.sweeps)
        victim = min(records[0].rss_by_id)
        for k in (30, 31):
            records[k] = strip_band(records[k], victim)

        trajectory = run_pipeline(records, matched_config(scenario, sweep_window=2))
        assert len(trajectory) == len(records)
        held = [s for s in trajectory.steps if "held" in s.flags]
        assert len(held) == 1
        step = held[0]
        assert step.index == 31
        assert "missing_band" in step.flags
        assert math.isnan(step.residual_norm)

        prev = trajectory.steps[step.index - 1]
        assert step.raw == prev.raw
        ekf_jump = math.hypot(step.x_ekf - prev.x_ekf, step.y_ekf - prev.y_ekf)
        wma_jump = math.hypot(step.x_wma - prev.x_wma, step.y_wma - prev.y_wma)
        assert ekf_jump <= wma_jump + 1e-9
        assert trajectory.held_steps == 1


    def test_sweeps_before_the_first_fix_are_skipped(self):
        # sweep 0 lacks one of the six bands, so five bands are in every sweep
        # of the 2-sweep window until sweep 0 leaves it: the bands are
        # selected, and the first fix taken, at sweep 2
        scenario = route_scenario(seed=2, shadowing_sigma_db=0.0)
        records = list(simulate_run(scenario).sweeps)
        victim = min(records[0].rss_by_id)
        records[0] = strip_band(records[0], victim)
        trajectory = run_pipeline(records, matched_config(scenario, sweep_window=2))
        assert victim in trajectory.selected_bands
        assert trajectory.skipped_sweeps == 2 and len(trajectory) == len(records) - 2
        first = trajectory.steps[0]
        assert first.index == 0 and first.timestamp == records[2].timestamp
        assert first.flags == () and trajectory.held_steps == 0
        assert first.raw == (0.0, 0.0) and first.ekf == first.wma

    def test_written_trajectory_reads_back_its_held_rows(self, tmp_path):
        # the held count and the selected bands are derived from the rows and the anchors, not stored
        scenario = route_scenario(seed=2, shadowing_sigma_db=0.0)
        records = list(simulate_run(scenario).sweeps)
        victim = min(records[0].rss_by_id)
        for k in (30, 31, 32):
            records[k] = strip_band(records[k], victim)
        trajectory = run_pipeline(records, matched_config(scenario, sweep_window=2))
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(trajectory, path)
        assert read_trajectory_csv(path).held_steps == trajectory.held_steps == 2
        assert trajectory.selected_bands == tuple(anchor.band_id for anchor in trajectory.anchors)
        assert sorted(trajectory.selected_bands) == sorted(records[0].rss_by_id)
        assert f"selected_bands: {' '.join(map(str, trajectory.selected_bands))}\n" in summary_text(trajectory)


@lru_cache(maxsize=1)
def thirteen_transmitter_drive():
    """The first 60 sweeps of a 13-transmitter route, and its scenario."""
    scenario = route_scenario(seed=4, tx_count=13)
    return scenario, simulate_run(scenario).sweeps[:60]


def first_sweep_with_enough_bands(records, window, count):
    """Index of the first sweep whose window (its last ``window`` sweeps, or
    every sweep so far) holds ``count`` bands in each of its sweeps, or None."""
    for k in range(len(records)):
        held = records[0 if window is None else max(0, k - window + 1):k + 1]
        if len(set.intersection(*(set(r.rss_by_id) for r in held))) >= count:
            return k
    return None


class TestSelection:
    """Selection owns its decisions: the count is checked with the config, a
    degenerate frame ends the run where it is built, and the selecting sweep fixes."""

    @settings(max_examples=100, deadline=None)
    @given(rates=st.lists(st.floats(0.0, 0.5), min_size=13, max_size=13), window=st.sampled_from([1, 3, 10, None]),
           count=st.integers(4, 13), seed=st.integers(0, 2**32 - 1))
    def test_the_selecting_sweep_is_the_first_row(self, rates, window, count, seed):
        # each band is dropped from each sweep at its own rate; the larger counts select late, or never
        scenario, sweeps = thirteen_transmitter_drive()
        rng = np.random.default_rng(seed)
        records = [SweepRecord(r.timestamp, {b: rss for (b, rss), rate in zip(r.rss_by_id.items(), rates)
                                             if rng.random() >= rate}) for r in sweeps]
        trajectory = run_pipeline(records, matched_config(scenario, sweep_window=window, band_count=count))
        k = first_sweep_with_enough_bands(records, window, count)
        if k is None:
            assert not trajectory.steps and trajectory.skipped_sweeps == len(records)
            return
        first = trajectory.steps[0]
        assert first.index == 0 and first.timestamp == records[k].timestamp and first.flags == ()
        assert trajectory.skipped_sweeps == k
        assert set(trajectory.selected_bands) <= set(records[k].rss_by_id)

    def test_degenerate_frame_ends_the_run_at_selection(self):
        # anchors in a thin box: the frame fails when it is built, at the first sweep, and nothing is kept
        scenario = route_scenario(seed=2)
        records = simulate_run(scenario).sweeps
        pipeline = TrackingPipeline(matched_config(scenario, anchor_bbox=(0.0, 0.0, 1e6, 1e-6)))
        with pytest.raises(DegenerateGeometryError, match="^anchor frame of bands [0-9 ]+ is degenerate: [^,]+$"):
            pipeline.process(records[0])
        trajectory = pipeline.finish()
        assert trajectory.steps == () and trajectory.anchors == () and trajectory.skipped_sweeps == 0

    @pytest.mark.parametrize("count, plan", [(3, BandPlan.uniform()), (3501, BandPlan.uniform()),
                                             (6, BandPlan.uniform(0.0, 5.0))])
    def test_band_count_from_four_to_the_plans_bands(self, count, plan):
        with pytest.raises(ConfigError, match=f"band_count must be 4 to {plan.count} .* got {count}$"):
            PipelineConfig(plan=plan, band_count=count)
        with pytest.raises(ConfigError):
            replace(PipelineConfig(plan=plan, band_count=4), band_count=count)
        assert PipelineConfig(plan=plan, band_count=plan.count).band_count == plan.count


class TestKeptBands:
    """After selection the window keeps the selected bands alone; no output moves."""

    @staticmethod
    def keeping_every_band(monkeypatch, records, config):
        with monkeypatch.context() as patch:
            patch.setattr(SweepWindow, "keep_only", lambda self, band_ids: None)
            return run_pipeline(records, config)

    @pytest.mark.parametrize("window", [3, 10, None])
    def test_thirteen_transmitters_for_six_bands(self, monkeypatch, window):
        scenario = route_scenario(seed=4, tx_count=13)
        records = simulate_run(scenario).sweeps
        config = matched_config(scenario, sweep_window=window)
        pipeline = TrackingPipeline(config)
        for record in records:
            pipeline.process(record)
        trajectory = pipeline.finish()
        assert len(records[0].bands) == 13 and len(trajectory.selected_bands) == 6
        assert pipeline._window.persistent_band_ids() == sorted(trajectory.selected_bands)
        # repr compares floats bit for bit, and equal for the nan of held steps
        assert repr(trajectory.steps) == repr(self.keeping_every_band(monkeypatch, records, config).steps)

    def test_selected_band_leaves_the_window_and_returns(self, monkeypatch):
        scenario = route_scenario(seed=2, tx_count=13)
        records = list(simulate_run(scenario).sweeps)
        config = matched_config(scenario, sweep_window=3)
        victim = run_pipeline(records[:5], config).selected_bands[0]
        for k in range(30, 40):
            records[k] = strip_band(records[k], victim)
        trajectory = run_pipeline(records, config)
        missing = [s.index for s in trajectory.steps if "missing_band" in s.flags]
        assert missing == list(range(32, 40))
        assert trajectory.steps[40].flags == ()
        assert repr(trajectory.steps) == repr(self.keeping_every_band(monkeypatch, records, config).steps)


class TestFrameRelativity:
    def test_rigid_anchor_transform_preserves_segment_lengths(self, monkeypatch):
        scenario = route_scenario(seed=0)
        run = simulate_run(scenario)
        config = matched_config(scenario)
        base = run_pipeline(run.sweeps, config)

        theta = math.radians(30.0)
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        shift = np.array([500.0, -200.0])
        moved = tuple(
            Anchor(a.band_id, *(rot @ [a.x, a.y] + shift)) for a in base.anchors
        )
        by_band = {a.band_id: a for a in moved}
        monkeypatch.setattr("sweepnav.pipeline.assign_anchor_frame", lambda bands, seed, bbox: [by_band[b] for b in bands])
        transformed = run_pipeline(run.sweeps, config)
        assert transformed.anchors == tuple(moved)

        indices = run.truth.waypoint_indices
        for estimator in ("raw", "wma", "ekf"):
            l1 = segment_lengths(base.positions(estimator), indices)
            l2 = segment_lengths(transformed.positions(estimator), indices)
            np.testing.assert_allclose(l2, l1, rtol=1e-6)

    def test_independent_anchor_seed_recorded_not_asserted(self):
        # an anchor constellation unrelated to the true layout distorts the
        # recovered geometry; record the effect without asserting on it
        scenario = route_scenario(seed=0)
        run = simulate_run(scenario)
        base = run_pipeline(run.sweeps, matched_config(scenario))
        other = run_pipeline(run.sweeps, matched_config(scenario, anchor_seed=scenario.seed + 1))
        indices = run.truth.waypoint_indices
        l1 = np.array(segment_lengths(base.positions("raw"), indices))
        l2 = np.array(segment_lengths(other.positions("raw"), indices))
        print(f"independent-anchor segment length change: {np.abs(l2 - l1) / l1 * 100}")
        assert np.all(np.isfinite(l2))

