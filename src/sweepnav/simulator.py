"""Synthetic worlds: transmitters, a driven route, and forward-modeled sweeps.

The simulator is the oracle for the pipeline. It knows the true transmitter
positions and walks the waypoint legs once, in floats, for the true track;
it resolves each transmitter's band once per run and forward-models every
sweep with seeded log-normal shadowing, one draw per transmitter in
ascending frequency. It scores a recovered trajectory against the truth
with frame-insensitive segment metrics. Every auto-placed scene (both
presets and a scenario file's ``tx.*`` recipe) comes from ``auto_scenario``.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from statistics import fmean
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, ShapeError, config_int
from .multilateration import MIN_ANCHORS
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

# Fixes per spread: rolling_spread's trailing window and each convergence subset's tail.
SPREAD_WINDOW = 10


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
    tx_bbox: Bbox | None = None  # placement box metadata, None for explicit layouts
    shadowing_sigma_db: float = 4.0  # log-normal shadowing, drawn per sweep and transmitter

    def __post_init__(self):
        object.__setattr__(self, "transmitters", tuple(self.transmitters))
        object.__setattr__(
            self, "waypoints", tuple((float(x), float(y)) for x, y in self.waypoints)
        )
        if len(self.transmitters) < MIN_ANCHORS:
            raise ConfigError(f"need at least {MIN_ANCHORS} transmitters")
        if len(self.waypoints) < 2:
            raise ConfigError("need at least 2 waypoints")
        if config_int("seed", self.seed) < 0:
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

    def positions(self) -> list[tuple[float, float]]:
        return [(s.x, s.y) for s in self.samples]

    def segment_lengths(self) -> list[float]:
        return segment_lengths(self.positions(), self.waypoint_indices)


def segment_lengths(points: Sequence[tuple[float, float]], indices: Sequence[int]) -> list[float]:
    """Straight-line lengths between consecutive indexed points."""
    return [math.dist(points[i], points[j]) for i, j in zip(indices, indices[1:])]


@dataclass(frozen=True)
class SimulatedRun:
    truth: GroundTruth
    sweeps: tuple[SweepRecord, ...]


def synth_route(scenario: Scenario) -> GroundTruth:
    """Sample the waypoint polyline at constant speed every cadence, from
    time 0, the sweep file's epoch.

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
        stamps = {format_timestamp(offset) for offset in offsets}
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
        samples.append(TruthSample(float(offset), x, y))  # a float even from int times

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

    A receiver within 1 m of a transmitter is taken to be at 1 m. A
    transmitter outside the plan, two in one band, and a received power
    beyond +-MAX_ABS_DB, which no sweep file may hold, are each a ConfigError.
    """
    if plan is None:
        plan = BandPlan.uniform()
    truth = synth_route(scenario)
    transmitters = sorted(scenario.transmitters, key=lambda t: t.freq_mhz)
    bands = dict(zip(_band_ids([t.freq_mhz for t in transmitters], plan), transmitters))  # ids rise with frequency
    params, sigma = scenario.pathloss, scenario.shadowing_sigma_db
    rng = np.random.default_rng(scenario.seed)
    sweeps = []
    for sample in truth.samples:
        rss_by_id = {}
        for band_id, tx in bands.items():
            distance = max(math.hypot(sample.x - tx.x, sample.y - tx.y), 1.0)
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


def _band_ids(freqs_mhz: Sequence[float], plan: BandPlan) -> list[int]:
    """The plan's band id of each frequency, in order; one outside the plan, or two in one band, is a ConfigError."""
    band_ids = []
    for freq in freqs_mhz:
        band_id = plan.band_at(freq)
        if band_id is None:
            raise ConfigError(f"transmitter at {freq} MHz is outside the band plan")
        if band_id in band_ids:
            raise ConfigError(f"two transmitters share band {band_id}")
        band_ids.append(band_id)
    return band_ids


@dataclass(frozen=True)
class RunScore:
    """Frame-insensitive quality metrics of one recovered trajectory."""

    segments: dict[str, list[SegmentError]]
    rmse_m: dict[str, float]


def score_run(truth: GroundTruth, trajectory: Trajectory) -> RunScore:
    """Segment errors, keyed "raw", "wma" and "ekf" in that order, and aligned RMSE of each estimator.

    The one home of a score's shape rules, each checked once before any
    arithmetic: one row per truth sample, each within a microsecond (the
    stamp both files hold) of its sample's time; at least two waypoints,
    ordered and in range; and every true segment positive. Each fault is a
    ShapeError. A segment's percent difference is |est - truth| / truth * 100.
    """
    samples, indices = truth.samples, truth.waypoint_indices
    if len(trajectory.steps) != len(samples):
        raise ShapeError(f"trajectory has {len(trajectory.steps)} rows, truth has {len(samples)}")
    for k, (step, sample) in enumerate(zip(trajectory.steps, samples)):
        # two stamps of one sweep may round a microsecond apart; two ulps cover the floats
        if not abs(step.timestamp - sample.timestamp) <= 1e-6 + 2 * math.ulp(sample.timestamp):
            raise ShapeError(f"trajectory row {k} is at {step.timestamp:.6f} s, truth at {sample.timestamp:.6f} s")
    if len(indices) < 2:
        raise ShapeError(f"need at least two waypoints to bound a segment, have {len(indices)}")
    if list(indices) != sorted(indices):
        raise ShapeError("waypoint indices must be ordered")
    if indices[0] < 0 or indices[-1] >= len(samples):
        raise ShapeError("waypoint index out of range")
    truth_xy = truth.positions()
    truth_lengths = segment_lengths(truth_xy, indices)
    if any(t <= 0 for t in truth_lengths):
        raise ShapeError("truth lengths must be positive")
    segments, rmse_m = {}, {}
    for estimator in ("raw", "wma", "ekf"):
        xy = trajectory.positions(estimator)
        segments[estimator] = [
            SegmentError(estimated_m=est, truth_m=t, percent_diff=abs(est - t) / t * 100.0)
            for est, t in zip(segment_lengths(xy, indices), truth_lengths)
        ]
        rmse_m[estimator] = aligned_rmse(xy, truth_xy)
    return RunScore(segments=segments, rmse_m=rmse_m)


@dataclass(frozen=True)
class SegmentError:
    """Estimated vs true length of one inter-waypoint segment."""

    estimated_m: float
    truth_m: float
    percent_diff: float


def _centred(column: Sequence[float]) -> list[float]:
    mean = fmean(column)
    return [v - mean for v in column]


def aligned_rmse(estimated: Sequence[tuple[float, float]], truth: Sequence[tuple[float, float]]) -> float:
    """RMSE after the best orthogonal alignment (rotation or reflection).

    The relative frame carries no absolute orientation or handedness, so
    both are factored out before comparing, by the plane's closed-form
    orthogonal Procrustes fit (Schoenemann, Psychometrika 31(1), 1966).
    Positions near the float limit overflow the fit; their RMSE is inf.
    """
    n = len(truth)
    if len(estimated) != n or n == 0:
        raise ValueError("estimated and truth must hold equally many positions, at least one")
    (ex, ey), (tx, ty) = zip(*estimated), zip(*truth)
    try:  # fsum and ** raise on an overflow, and fsum on inf - inf
        ex, ey, tx, ty = map(_centred, (ex, ey, tx, ty))
        # the centred cross sums; a rotation reaches the first hypot, a reflection the second
        a, b, c, d = (math.fsum(map(operator.mul, e, t)) for e in (ex, ey) for t in (tx, ty))
        rotation, reflection = math.hypot(a + d, b - c), math.hypot(a - d, b + c)
        sign, h = (1.0, rotation) if rotation >= reflection else (-1.0, reflection)
        if not math.isfinite(h):
            return math.inf
        cos, sin = ((a + sign * d) / h, (b - sign * c) / h) if h > 0 else (1.0, 0.0)
        # the residuals of the aligned points themselves: sum|e|^2 + sum|t|^2 - 2h would cancel
        squares = math.fsum(
            (cos * x - sign * sin * y - u) ** 2 + (sin * x + sign * cos * y - v) ** 2
            for x, y, u, v in zip(ex, ey, tx, ty)
        )
    except (OverflowError, ValueError):
        return math.inf
    return math.sqrt(squares / n)


def spread(points: Sequence[tuple[float, float]]) -> float:
    """Scalar scatter of a point cloud: sqrt(var_x + var_y)."""
    var_x, var_y = (fmean([v * v for v in _centred(column)]) for column in zip(*points))
    return math.sqrt(var_x + var_y)


def rolling_spread(points: Sequence[tuple[float, float]], window: int = SPREAD_WINDOW) -> list[float]:
    """Trailing-window spread at every sample."""
    return [spread(points[max(0, k - window + 1): k + 1]) for k in range(len(points))]


def auto_scenario(
    freqs_mhz: Sequence[float], seed: int, bbox: Bbox, *,
    power_dbm: float = PathLossParams.tx_power_dbm, **scenario_fields
) -> Scenario:
    """Scenario with a seeded random transmitter layout, one per carrier frequency.

    Placement is keyed by the default plan's band id of each carrier, the
    same convention the pipeline uses for its anchor frame: equal seeds and
    boxes yield the identical constellation on both sides. The scenario
    keeps ``seed`` and takes ``bbox`` as its ``tx_bbox``; further keywords go
    to Scenario.
    """
    by_band = dict(zip(_band_ids(freqs_mhz, BandPlan.uniform()), freqs_mhz))
    placed = place_in_box(by_band, seed, bbox)
    transmitters = tuple(
        Transmitter(x=placed[bid][0], y=placed[bid][1], power_dbm=power_dbm, freq_mhz=freq)
        for bid, freq in sorted(by_band.items())
    )
    return Scenario(transmitters, seed=seed, tx_bbox=bbox, **scenario_fields)


def _preset(seed: int, tx_count: int, bbox: Bbox, pathloss: dict, **scenario_fields) -> Scenario:
    """A preset's scene: the first ``tx_count`` extended carriers, radiating the path-loss power."""
    if not MIN_ANCHORS <= config_int("tx_count", tx_count) <= len(EXTENDED_TX_FREQS_MHZ):
        raise ConfigError(f"tx_count must be {MIN_ANCHORS} to {len(EXTENDED_TX_FREQS_MHZ)}, got {tx_count}")
    params, freqs = PathLossParams(**pathloss), EXTENDED_TX_FREQS_MHZ[:tx_count]
    return auto_scenario(freqs, seed, bbox, power_dbm=params.tx_power_dbm, pathloss=params, **scenario_fields)


def route_scenario(
    seed: int, *, tx_count: int = 6, lead_in_m: float = 200.0,
    shadowing_sigma_db: float = Scenario.shadowing_sigma_db, **pathloss
) -> Scenario:
    """Benchmark drive scenario over the four-leg route.

    Further keywords (such as ``exponent``) go to the scenario's
    PathLossParams; the transmitters radiate its ``tx_power_dbm``.
    """
    return _preset(seed, tx_count, DEFAULT_TX_BBOX, pathloss, waypoints=ROUTE_WAYPOINTS, lead_in_m=lead_in_m,
                   shadowing_sigma_db=shadowing_sigma_db)


def static_scenario(
    seed: int, *, duration_s: float = 60.0, tx_count: int = 6,
    shadowing_sigma_db: float = Scenario.shadowing_sigma_db, **pathloss
) -> Scenario:
    """Stationary receiver accumulating sweeps at the origin.

    Further keywords go to PathLossParams, as for :func:`route_scenario`.
    """
    if duration_s <= 0:
        raise ConfigError("duration must be positive")
    return _preset(seed, tx_count, STATIC_TX_BBOX, pathloss, waypoints=((0.0, 0.0), (0.0, 0.0)), speed_mps=1.0,
                   hold_s=duration_s, shadowing_sigma_db=shadowing_sigma_db)


def matched_config(scenario: Scenario, **overrides) -> PipelineConfig:
    """Pipeline configuration whose anchor frame mirrors the scenario layout.

    With the anchor seed and box equal to the transmitter placement's, the
    assigned anchors are congruent with the true constellation, which is
    the calibration convention for desk-scale benchmark runs. Requires a
    scenario built by :func:`auto_scenario` (tx_bbox set).
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
