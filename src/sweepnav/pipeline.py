"""Online pipeline: sweeps to a relative trajectory.

Per sweep, in one pass of ``TrackingPipeline.process``: update the rolling
window, compute per-band mean power, convert to ranges, solve the
multilateration least squares, smooth with a weighted moving average, then
refine with the EKF. The filter predicts with the velocity derived from the
smoothed fixes and corrects against the same per-band range estimates the
least squares consumed, treating the assigned anchors as its landmarks.

Transmitter bands are selected once, at the first sweep where enough
persistent bands exist, and the anchor frame stays fixed for the whole run
so the relative frame is consistent; what depends on the selection alone
(kept bands, reference losses, the factored anchor frame) is built there.
The frame is checked once, when it is built: a degenerate frame raises
DegenerateGeometryError and ends the run. The selecting sweep has every
selected band in every sweep of its window, so it fixes: its fix defines the
origin of the relative frame, shifts the landmarks into it and starts the
filter, and every output position is reported relative to it. Sweeps before
it give no row and count as skipped. After that, a sweep whose window lacks
a selected band holds the previous fix, flagged ``held`` and ``missing_band``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

from .ekf import EkfTracker, Landmark, NoiseConfig
from .errors import ConfigError, InsufficientAnchorsError, MissingBandError, config_int
from .multilateration import MIN_ANCHORS, Anchor, AnchorFrame
from .pathloss import PathLossParams, free_space_pl0, invert_distance
from .placement import Bbox, place_in_box, validate_bbox
from .smoothing import Smoother, SmootherConfig
from .sweeps import BandPlan, SweepRecord, SweepWindow, select_transmit_bands

DEFAULT_ANCHOR_BBOX: Bbox = (-500.0, -500.0, 500.0, 500.0)
# the EKF's initial covariance: 10 m^2 per axis around the first smoothed fix
P0 = ((10.0, 0.0), (0.0, 10.0))


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a run needs; immutable once the pipeline starts.

    ``band_count`` is the number of transmitter bands selected as anchors,
    from MIN_ANCHORS to the plan's band count. ``sweep_window`` of None (or 0
    in config files) keeps a growing window.
    """

    plan: BandPlan = field(default_factory=BandPlan.uniform)
    band_count: int = 6
    pathloss: PathLossParams = field(default_factory=PathLossParams)
    smoother: SmootherConfig = field(default_factory=SmootherConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    sweep_window: int | None = 10
    anchor_seed: int = 1
    anchor_bbox: Bbox = DEFAULT_ANCHOR_BBOX

    def __post_init__(self):
        if not MIN_ANCHORS <= config_int("band_count", self.band_count) <= self.plan.count:
            raise ConfigError(f"band_count must be {MIN_ANCHORS} to {self.plan.count} (the plan's bands), "
                              f"got {self.band_count}")
        object.__setattr__(self, "anchor_bbox", validate_bbox(self.anchor_bbox))
        if config_int("anchor_seed", self.anchor_seed) < 0:
            raise ConfigError(f"anchor seed {self.anchor_seed} is negative")
        if self.sweep_window is not None and config_int("sweep_window", self.sweep_window) < 1:
            raise ConfigError("sweep_window must be positive or None")


class TrajectoryStep(NamedTuple):
    """One output row of the pipeline (immutable)."""

    index: int
    timestamp: float
    x_raw: float
    y_raw: float
    x_wma: float
    y_wma: float
    x_ekf: float
    y_ekf: float
    residual_norm: float
    flags: tuple[str, ...] = ()

    @property
    def raw(self) -> tuple[float, float]:
        return (self.x_raw, self.y_raw)

    @property
    def wma(self) -> tuple[float, float]:
        return (self.x_wma, self.y_wma)

    @property
    def ekf(self) -> tuple[float, float]:
        return (self.x_ekf, self.y_ekf)


@dataclass(frozen=True)
class Trajectory:
    """Relative trajectory plus run diagnostics."""

    steps: tuple[TrajectoryStep, ...]
    anchors: tuple[Anchor, ...] = ()
    skipped_sweeps: int = 0

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def held_steps(self) -> int:
        return sum(1 for step in self.steps if "held" in step.flags)

    @property
    def selected_bands(self) -> tuple[int, ...]:
        return tuple(anchor.band_id for anchor in self.anchors)

    def positions(self, estimator: str = "raw") -> list[tuple[float, float]]:
        if estimator not in ("raw", "wma", "ekf"):
            raise ValueError(f"unknown estimator {estimator!r}")
        return [getattr(s, estimator) for s in self.steps]


def assign_anchor_frame(band_ids: Sequence[int], seed: int, bbox: Bbox) -> list[Anchor]:
    """Seeded uniform anchor placement, one anchor per band.

    Positions are keyed by band id (drawn in ascending id order), so the
    constellation depends only on (seed, bbox, band set), not on the power
    ordering of ``band_ids``. The returned list preserves the input order.
    """
    if len(band_ids) < MIN_ANCHORS:
        raise InsufficientAnchorsError(f"need at least {MIN_ANCHORS} bands, have {len(band_ids)}")
    if len(set(band_ids)) != len(band_ids):
        raise ValueError("band ids must be unique")
    placed = place_in_box(band_ids, seed, bbox)
    return [Anchor(band_id=bid, x=placed[bid][0], y=placed[bid][1]) for bid in band_ids]


class TrackingPipeline:
    """Sequential per-sweep state machine producing the relative trajectory.

    Feed sweeps through :meth:`process`; call :meth:`finish` for the
    result. Processing is strictly online, so streaming and batch runs over
    the same sweeps produce identical trajectories.
    """

    def __init__(self, config: PipelineConfig):
        self._cfg = config
        self._window = SweepWindow(config.sweep_window)
        self._selected: list[int] | None = None
        self._frame: AnchorFrame | None = None
        self._landmarks: list[Landmark] = []
        self._pl0: list[float] = []
        self._origin: tuple[float, float] | None = None
        self._smoother = Smoother(config.smoother)
        self._tracker: EkfTracker | None = None
        self._steps: list[TrajectoryStep] = []
        self._raw_abs: tuple[float, float] | None = None  # the last fix
        self._prev_sweep_ts = -math.inf
        self._skipped = 0

    def process(self, sweep: SweepRecord) -> TrajectoryStep | None:
        timestamp = sweep.timestamp
        if timestamp <= self._prev_sweep_ts:
            raise ValueError("sweep timestamps must strictly increase")
        self._prev_sweep_ts = timestamp
        self._window.push(sweep)

        if self._selected is None and not self._select_bands():
            self._skipped += 1
            return None

        params = self._cfg.pathloss
        tx_power_dbm = params.tx_power_dbm
        held, residual = (), math.nan
        try:
            # the path loss is tx - mean; the window's means are finite
            distances = [
                invert_distance(tx_power_dbm - mean, pl0, params)
                for mean, pl0 in zip(self._window.means_dbm(self._selected), self._pl0)
            ]
            x, y, residual, _ = self._frame.solve(distances)
            self._raw_abs = (x, y)
        except MissingBandError:
            held = ("held", "missing_band")

        if self._tracker is None:
            # The first fix, at the selecting sweep, is the origin of the relative frame: the landmarks
            # shift into that frame and the filter starts at the first smoothed fix.
            ox, oy = self._origin = self._raw_abs
            self._landmarks = [Landmark(a.x - ox, a.y - oy, i) for i, a in enumerate(self._frame.anchors)]
            raw_x, raw_y = x - ox, y - oy
            wma_x, wma_y = smoothed = self._smoother.push((raw_x, raw_y))
            self._tracker = EkfTracker(x0=smoothed, p0=P0, noise=self._cfg.noise)
            ekf_x, ekf_y, ekf_flags = wma_x, wma_y, ()
        else:
            (x, y), (ox, oy) = self._raw_abs, self._origin
            raw_x, raw_y = x - ox, y - oy
            wma_x, wma_y = self._smoother.push((raw_x, raw_y))
            # Predict with the finite-difference velocity of the smoothed fixes,
            # then update once per anchor range. A held step has no fresh ranges,
            # so a flagged sample never moves the track more than the motion model does.
            last = self._steps[-1]
            dt = timestamp - last.timestamp  # positive: the stamps strictly increase
            u = ((wma_x - last.x_wma) / dt, (wma_y - last.y_wma) / dt)
            measurements = [] if held else list(zip(self._landmarks, distances))
            (ekf_x, ekf_y), _, _, ekf_flags = self._tracker.step(dt, u, measurements)

        # the fields as one tuple: TrajectoryStep(...) would pass them by name
        step = tuple.__new__(TrajectoryStep, (len(self._steps), timestamp, raw_x, raw_y, wma_x, wma_y,
                                              ekf_x, ekf_y, residual, held + ekf_flags))
        self._steps.append(step)
        return step

    def finish(self) -> Trajectory:
        return Trajectory(
            steps=tuple(self._steps),
            anchors=self._frame.anchors if self._frame else (),
            skipped_sweeps=self._skipped,
        )

    def _select_bands(self) -> bool:
        cfg = self._cfg
        persistent = self._window.persistent_band_ids()
        means = dict(zip(persistent, self._window.means_dbm(persistent)))
        try:
            selected = select_transmit_bands(means, cfg.band_count)
        except InsufficientAnchorsError:
            return False
        # built before any state is kept: a degenerate frame raises here and ends the run
        self._frame = AnchorFrame(assign_anchor_frame(selected, cfg.anchor_seed, cfg.anchor_bbox))
        self._selected = selected
        self._window.keep_only(selected)
        self._pl0 = [free_space_pl0(cfg.plan.center_mhz(b)) for b in selected]
        return True


def run_pipeline(sweeps: Iterable[SweepRecord], config: PipelineConfig) -> Trajectory:
    """Run the full pipeline over a sweep stream (any iterable)."""
    pipeline = TrackingPipeline(config)
    for sweep in sweeps:
        pipeline.process(sweep)
    return pipeline.finish()
