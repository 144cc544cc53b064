"""Synthetic worlds: transmitters, a driven route, and forward-modeled sweeps.

The simulator is the oracle for the pipeline. It knows the true transmitter
positions and walks the waypoint legs once, in floats, for the true track;
it resolves each transmitter's band once per run and forward-models every
sweep with seeded log-normal shadowing, one draw per transmitter in
ascending frequency. It scores a recovered trajectory against the truth
with frame-insensitive segment metrics.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, ShapeError
from .pathloss import PathLossParams, rss_at_distance
from .pipeline import PipelineConfig, Trajectory
from .placement import Bbox, place_in_box
from .sweeps import MAX_ABS_DB, BandPlan, SweepRecord, format_timestamp

# Four-leg benchmark route: 270, 490, 260 and 840 m with right-angle turns.
ROUTE_WAYPOINTS: tuple[tuple[float, float], ...] = (
    (0.0, 0.0),
    (270.0, 0.0),
    (270.0, 490.0),
    (10.0, 490.0),
    (10.0, -350.0),
)

# Cellular-like carriers centered on 1 MHz plan bins.
DEFAULT_TX_FREQS_MHZ = (700.5, 800.5, 900.5, 1800.5, 2100.5, 2600.5)
EXTENDED_TX_FREQS_MHZ = DEFAULT_TX_FREQS_MHZ + (
    600.5, 750.5, 850.5, 950.5, 1500.5, 1900.5, 2300.5,
)

# Route bounding box inflated by 150 m on each side.
DEFAULT_TX_BBOX: Bbox = (-150.0, -500.0, 420.0, 640.0)
STATIC_TX_BBOX: Bbox = (-400.0, -400.0, 400.0, 400.0)

# Most sweeps one simulated run may hold: a day at one sweep per second.
MAX_SCENARIO_SWEEPS = 86_400


class Transmitter(NamedTuple):
    x: float
    y: float
    power_dbm: float
    freq_mhz: float


class TruthSample(NamedTuple):
    timestamp: float
    x: float
    y: float


@dataclass(frozen=True)
class Scenario:
    """World description for one simulated run.

    ``hold_s`` keeps the receiver at the final waypoint for that long after
    the drive; a zero-length route is valid only with a positive hold, which
    is how static scenes are expressed. ``lead_in_m`` starts the drive that
    far before the first waypoint along the first leg's direction, so the
    sweep window is already full (and carries its steady-state lag) when
    the first scored waypoint is reached.
    """

    transmitters: tuple[Transmitter, ...]
    waypoints: tuple[tuple[float, float], ...]
    speed_mps: float = 10.0
    cadence_s: float = 1.0
    pathloss: PathLossParams = field(default_factory=PathLossParams)
    seed: int = 0
    hold_s: float = 0.0
    lead_in_m: float = 0.0
    start_time: float = 0.0
    tx_bbox: Bbox | None = None  # placement box metadata, None for explicit layouts
    shadowing_sigma_db: float = 4.0  # log-normal shadowing, drawn per sweep and transmitter

    def __post_init__(self):
        object.__setattr__(self, "transmitters", tuple(self.transmitters))
        object.__setattr__(
            self, "waypoints", tuple((float(x), float(y)) for x, y in self.waypoints)
        )
        if len(self.transmitters) < 4:
            raise ConfigError("need at least 4 transmitters")
        if len(self.waypoints) < 2:
            raise ConfigError("need at least 2 waypoints")
        if self.seed < 0:
            raise ConfigError(f"seed {self.seed} is negative")
        # written so that NaN fails each check
        if not 0 < self.speed_mps < math.inf:
            raise ConfigError("speed must be positive and finite")
        if not 0 < self.cadence_s < math.inf:
            raise ConfigError("sweep cadence must be positive and finite")
        if not 0 <= self.hold_s < math.inf:
            raise ConfigError("hold time must be finite and non-negative")
        if not 0 <= self.lead_in_m < math.inf:
            raise ConfigError("lead-in length must be finite and non-negative")
        if not math.isfinite(self.start_time):
            raise ConfigError("start time must be finite")
        if not 0 <= self.shadowing_sigma_db < math.inf:
            raise ConfigError("shadowing sigma must be finite and non-negative")
        if self.lead_in_m > 0 and self.waypoints[0] == self.waypoints[1]:
            raise ConfigError("lead-in needs a non-degenerate first leg")
        freqs = [t.freq_mhz for t in self.transmitters]
        if len(set(freqs)) != len(freqs):
            raise ConfigError("transmitter frequencies must be distinct")


@dataclass(frozen=True)
class GroundTruth:
    """True per-sweep receiver states plus waypoint sample indices."""

    samples: tuple[TruthSample, ...]
    waypoint_indices: tuple[int, ...]

    def positions(self) -> np.ndarray:
        return np.array([(s.x, s.y) for s in self.samples], dtype=float)

    def segment_lengths(self) -> np.ndarray:
        return segment_lengths(self.positions(), self.waypoint_indices)


def segment_lengths(points: np.ndarray, indices: Sequence[int]) -> np.ndarray:
    """Straight-line lengths between consecutive indexed rows of an (n, 2) array."""
    return np.hypot(*(np.diff(points[list(indices)], axis=0).T))


@dataclass(frozen=True)
class SimulatedRun:
    truth: GroundTruth
    sweeps: tuple[SweepRecord, ...]


def synth_route(scenario: Scenario) -> GroundTruth:
    """Sample the waypoint polyline at constant speed every cadence.

    The final point (end of drive plus hold) is always included even when
    it falls off the cadence grid; a sample on a zero-length leg is its end
    point. ``waypoint_indices`` mark the scenario's waypoints only, never the
    lead-in start: each is the sample nearest its arrival, the earlier of two
    equally near. Two samples on one microsecond of the sweep file, or a leg
    within one sweep step, are a ConfigError.
    """
    waypoints = list(scenario.waypoints)
    if scenario.lead_in_m > 0:
        (x0, y0), (x1, y1) = waypoints[:2]
        first_leg = math.hypot(x1 - x0, y1 - y0)
        ux, uy = (x1 - x0) / first_leg, (y1 - y0) / first_leg
        waypoints.insert(0, (x0 - scenario.lead_in_m * ux, y0 - scenario.lead_in_m * uy))
    # a leg that overflows is inf long, which the sweep ceiling below rejects
    lengths = [math.hypot(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(waypoints, waypoints[1:])]
    cumulative = list(accumulate(lengths, initial=0.0))
    total_length = cumulative[-1]
    duration = total_length / scenario.speed_mps + scenario.hold_s
    if duration <= 0:
        raise ConfigError("route has zero length and no hold time")
    steps = duration / scenario.cadence_s
    if not steps <= MAX_SCENARIO_SWEEPS:  # NaN and inf fail too
        raise ConfigError(f"scenario asks for {steps:.3g} sweeps, more than {MAX_SCENARIO_SWEEPS}")

    offsets = [k * scenario.cadence_s for k in range(math.floor(steps + 1e-9) + 1)]
    if offsets[-1] < duration - 1e-9:
        offsets.append(duration)
    try:  # every sweep time must be writable as a sweep file stamp; the parser merges sweeps of one stamp
        stamps = {format_timestamp(scenario.start_time + offset) for offset in offsets}
    except OverflowError:
        raise ConfigError("scenario sweep times fall outside the years a sweep file can hold") from None
    if len(stamps) < len(offsets):
        raise ConfigError(f"{len(offsets)} sweeps fall on {len(stamps)} microseconds; a sweep file stamps no finer")

    samples, leg = [], 0
    for offset in offsets:
        distance = min(offset * scenario.speed_mps, total_length)
        while leg < len(lengths) - 1 and cumulative[leg + 1] <= distance:
            leg += 1
        (x0, y0), (x, y) = waypoints[leg], waypoints[leg + 1]
        if lengths[leg] > 0:  # else the sample is the zero-length leg's end point
            along = distance - cumulative[leg]
            x, y = x0 + (x - x0) / lengths[leg] * along, y0 + (y - y0) / lengths[leg] * along
        samples.append(TruthSample(float(scenario.start_time + offset), x, y))  # a float even from int times

    scored = cumulative[1:] if scenario.lead_in_m > 0 else cumulative
    waypoint_indices = []
    for leg, leg_end in enumerate(scored):
        arrival = leg_end / scenario.speed_mps
        k = bisect_right(offsets, arrival) - 1  # the last sample at or before the arrival, offsets[0] being 0
        if k + 1 < len(offsets) and offsets[k + 1] - arrival < arrival - offsets[k]:
            k += 1
        if leg > 0 and k == waypoint_indices[-1] and leg_end > scored[leg - 1]:
            raise ConfigError(f"leg {leg} is shorter than one sweep step: both ends on sweep {k}")
        waypoint_indices.append(k)
    return GroundTruth(samples=tuple(samples), waypoint_indices=tuple(waypoint_indices))


def simulate_run(scenario: Scenario, plan: BandPlan | None = None) -> SimulatedRun:
    """Deterministic ground truth plus synthetic sweep stream.

    A receiver closer than d0 to a transmitter is taken to be at d0. A
    transmitter outside the plan, two in one band, and a received power
    beyond +-MAX_ABS_DB, which no sweep file may hold, are each a ConfigError.
    """
    if plan is None:
        plan = BandPlan.uniform()
    truth = synth_route(scenario)
    bands = {}  # band id to transmitter, ids rising with frequency
    for tx in sorted(scenario.transmitters, key=lambda t: t.freq_mhz):
        band_id = plan.band_at(tx.freq_mhz)
        if band_id is None:
            raise ConfigError(f"transmitter at {tx.freq_mhz} MHz is outside the band plan")
        if band_id in bands:
            raise ConfigError(f"two transmitters share band {band_id}")
        bands[band_id] = tx
    params, sigma = scenario.pathloss, scenario.shadowing_sigma_db
    rng = np.random.default_rng(scenario.seed)
    sweeps = []
    for sample in truth.samples:
        rss_by_id = {}
        for band_id, tx in bands.items():
            distance = max(math.hypot(sample.x - tx.x, sample.y - tx.y), params.ref_distance_m)
            shadow = float(rng.normal(0.0, sigma)) if sigma > 0 else 0.0
            rss = rss_at_distance(distance, tx.freq_mhz, params, tx_power_dbm=tx.power_dbm, shadow_db=shadow)
            if not -MAX_ABS_DB <= rss <= MAX_ABS_DB:
                raise ConfigError(
                    f"transmitter at {tx.freq_mhz} MHz: received power {rss:.1f} dB at {distance:.0f} m"
                    f" is outside [-{MAX_ABS_DB:g}, {MAX_ABS_DB:g}]"
                )
            rss_by_id[band_id] = rss
        sweeps.append(SweepRecord(sample.timestamp, rss_by_id))
    return SimulatedRun(truth=truth, sweeps=tuple(sweeps))


@dataclass(frozen=True)
class RunScore:
    """Frame-insensitive quality metrics of one recovered trajectory."""

    segments: dict[str, list[SegmentError]]
    rmse_m: dict[str, float]


def score_run(truth: GroundTruth, trajectory: Trajectory) -> RunScore:
    """Segment errors, keyed "raw", "wma" and "ekf" in that order, and aligned RMSE of each estimator.

    A trajectory without one row per truth sample, or with a row more than a
    microsecond (the stamp both files hold) from its sample's time, is a
    ShapeError, as are the index and length faults ``segment_error_report`` rejects.
    """
    truth_xy = truth.positions()
    if len(trajectory.steps) != len(truth_xy):
        raise ShapeError(f"trajectory has {len(trajectory.steps)} rows, truth has {len(truth_xy)}")
    for k, (step, sample) in enumerate(zip(trajectory.steps, truth.samples)):
        # two stamps of one sweep may round a microsecond apart; two ulps cover the floats
        if not abs(step.timestamp - sample.timestamp) <= 1e-6 + 2 * math.ulp(sample.timestamp):
            raise ShapeError(f"trajectory row {k} is at {step.timestamp:.6f} s, truth at {sample.timestamp:.6f} s")
    indices = _checked_waypoints(truth.waypoint_indices, len(truth_xy))
    truth_lengths = segment_lengths(truth_xy, indices)
    segments = {e: segment_error_report(trajectory.positions(e), indices, truth_lengths) for e in ("raw", "wma", "ekf")}
    return RunScore(
        segments=segments,
        rmse_m={e: aligned_rmse(trajectory.positions(e), truth_xy) for e in segments},
    )


@dataclass(frozen=True)
class SegmentError:
    """Estimated vs true length of one inter-waypoint segment."""

    estimated_m: float
    truth_m: float
    percent_diff: float


def _checked_waypoints(waypoint_indices: Sequence[int], count: int) -> list[int]:
    indices = list(waypoint_indices)
    if len(indices) < 2:
        raise ShapeError(f"need at least two waypoints to bound a segment, have {len(indices)}")
    if indices != sorted(indices):
        raise ShapeError("waypoint indices must be ordered")
    if indices and (indices[0] < 0 or indices[-1] >= count):
        raise ShapeError("waypoint index out of range")
    return indices


def segment_error_report(
    positions: Sequence[tuple[float, float]] | np.ndarray,
    waypoint_indices: Sequence[int],
    truth_lengths_m: Sequence[float],
) -> list[SegmentError]:
    """Per-segment length error against known true lengths.

    ``waypoint_indices`` mark the trajectory samples at which the receiver
    passed each waypoint; consecutive pairs bound one segment. The percent
    difference is |est - truth| / truth * 100. Indices out of order or out
    of range, a count other than one more than the lengths, and a true
    length that is not positive are each a ShapeError.
    """
    pts = np.asarray(positions, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ShapeError("positions must be (x, y) pairs")
    indices = _checked_waypoints(waypoint_indices, len(pts))
    if len(indices) != len(truth_lengths_m) + 1:
        raise ShapeError("need one more waypoint index than truth lengths")
    if any(t <= 0 for t in truth_lengths_m):
        raise ShapeError("truth lengths must be positive")

    report = []
    for estimated, truth in zip(segment_lengths(pts, indices).tolist(), truth_lengths_m):
        percent = abs(estimated - truth) / truth * 100.0
        report.append(SegmentError(estimated_m=estimated, truth_m=float(truth), percent_diff=percent))
    return report


def aligned_rmse(estimated: np.ndarray, truth: np.ndarray) -> float:
    """RMSE after the best orthogonal alignment (rotation or reflection).

    The relative frame carries no absolute orientation or handedness, so
    both are factored out before comparing.
    """
    est = np.asarray(estimated, dtype=float)
    tru = np.asarray(truth, dtype=float)
    if est.shape != tru.shape:
        raise ValueError("estimated and truth must have the same shape")
    # positions near the float limit overflow the fit: its RMSE is inf, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        est_c = est - est.mean(axis=0)
        tru_c = tru - tru.mean(axis=0)
        cross = est_c.T @ tru_c
        if not np.isfinite(cross).all():  # the SVD would not converge on it
            return math.inf
        u, _, vt = np.linalg.svd(cross)
        rotation = u @ vt
        aligned = est_c @ rotation
        return float(np.sqrt(np.mean(np.sum((aligned - tru_c) ** 2, axis=1))))


def spread(points: np.ndarray) -> float:
    """Scalar scatter of a point cloud: sqrt(var_x + var_y)."""
    pts = np.asarray(points, dtype=float)
    return float(np.sqrt(pts[:, 0].var() + pts[:, 1].var()))


def rolling_spread(points: np.ndarray, window: int = 10) -> np.ndarray:
    """Trailing-window spread at every sample."""
    pts = np.asarray(points, dtype=float)
    return np.array(
        [spread(pts[max(0, k - window + 1): k + 1]) for k in range(len(pts))]
    )


def auto_transmitters(
    freqs_mhz: Sequence[float],
    seed: int,
    bbox: Bbox,
    power_dbm: float = PathLossParams.tx_power_dbm,
) -> tuple[Transmitter, ...]:
    """Seeded random transmitter layout, one per carrier frequency.

    Placement is keyed by the default plan's band id of each carrier, the
    same convention the pipeline uses for its anchor frame: equal seeds and
    boxes yield the identical constellation on both sides.
    """
    plan = BandPlan.uniform()
    by_band = {}
    for freq in freqs_mhz:
        band_id = plan.band_at(freq)
        if band_id is None:
            raise ConfigError(f"carrier {freq} MHz is outside the band plan")
        if band_id in by_band:
            raise ConfigError(f"two carriers share band {band_id}")
        by_band[band_id] = freq
    placed = place_in_box(by_band.keys(), seed, bbox)
    return tuple(
        Transmitter(x=placed[bid][0], y=placed[bid][1], power_dbm=power_dbm, freq_mhz=freq)
        for bid, freq in sorted(by_band.items())
    )


def route_scenario(
    seed: int, *, tx_count: int = 6, lead_in_m: float = 200.0,
    shadowing_sigma_db: float = Scenario.shadowing_sigma_db, **pathloss
) -> Scenario:
    """Benchmark drive scenario over the four-leg route.

    Further keywords (such as ``exponent``) go to the scenario's
    PathLossParams; the transmitters radiate its ``tx_power_dbm``.
    """
    if tx_count > len(EXTENDED_TX_FREQS_MHZ):
        raise ConfigError(f"at most {len(EXTENDED_TX_FREQS_MHZ)} transmitters available, asked for {tx_count}")
    params = PathLossParams(**pathloss)
    return Scenario(
        transmitters=auto_transmitters(EXTENDED_TX_FREQS_MHZ[:tx_count], seed, DEFAULT_TX_BBOX, params.tx_power_dbm),
        waypoints=ROUTE_WAYPOINTS,
        pathloss=params,
        seed=seed,
        lead_in_m=lead_in_m,
        tx_bbox=DEFAULT_TX_BBOX,
        shadowing_sigma_db=shadowing_sigma_db,
    )


def static_scenario(
    seed: int, *, duration_s: float = 60.0, tx_count: int = 6,
    shadowing_sigma_db: float = Scenario.shadowing_sigma_db, **pathloss
) -> Scenario:
    """Stationary receiver accumulating sweeps at the origin.

    Further keywords go to PathLossParams, as for :func:`route_scenario`.
    """
    if duration_s <= 0:
        raise ConfigError("duration must be positive")
    params = PathLossParams(**pathloss)
    return Scenario(
        transmitters=auto_transmitters(
            EXTENDED_TX_FREQS_MHZ[:tx_count], seed, STATIC_TX_BBOX, params.tx_power_dbm
        ),
        waypoints=((0.0, 0.0), (0.0, 0.0)),
        speed_mps=1.0,
        pathloss=params,
        seed=seed,
        hold_s=duration_s,
        tx_bbox=STATIC_TX_BBOX,
        shadowing_sigma_db=shadowing_sigma_db,
    )


def matched_config(scenario: Scenario, **overrides) -> PipelineConfig:
    """Pipeline configuration whose anchor frame mirrors the scenario layout.

    With the anchor seed and box equal to the transmitter placement's, the
    assigned anchors are congruent with the true constellation, which is
    the calibration convention for desk-scale benchmark runs. Requires a
    scenario built by one of the auto-placement helpers (tx_bbox set).
    """
    if scenario.tx_bbox is None and "anchor_bbox" not in overrides:
        raise ConfigError("scenario has no placement box; pass anchor_bbox explicitly")
    defaults = dict(
        pathloss=scenario.pathloss,
        anchor_seed=scenario.seed,
        anchor_bbox=scenario.tx_bbox,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)
