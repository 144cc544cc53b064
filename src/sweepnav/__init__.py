"""Relative trajectory recovery from RF spectrum sweeps.

A receiver drives through an area with unknown ambient transmitters,
repeatedly sweeping the spectrum. Per-band received power is smoothed,
converted to ranges through a log-distance path-loss model, multilaterated
against a seeded anchor frame, and refined with a moving average plus an
extended Kalman filter, yielding a trajectory whose shape and segment
lengths mirror the true drive.
"""

from .ekf import EkfTracker, Landmark, NoiseConfig
from .errors import (
    ConfigError,
    DegenerateGeometryError,
    FilterDivergenceError,
    InputError,
    InsufficientAnchorsError,
    MissingBandError,
    PlacementError,
    ShapeError,
    SingularGeometryError,
    SweepNavError,
    SweepParseError,
)
from .multilateration import Anchor, AnchorFrame
from .pathloss import PathLossParams, free_space_pl0, invert_distance, rss_at_distance
from .pipeline import (
    PipelineConfig,
    TrackingPipeline,
    Trajectory,
    TrajectoryStep,
    assign_anchor_frame,
    run_pipeline,
)
from .simulator import (
    GroundTruth,
    Scenario,
    SimulatedRun,
    Transmitter,
    matched_config,
    route_scenario,
    score_run,
    simulate_run,
    static_scenario,
    synth_route,
)
from .smoothing import Smoother, SmootherConfig
from .sweeps import (
    BandPlan,
    BandSample,
    SweepRecord,
    SweepWindow,
    parse_sweep_file,
    parse_sweep_lines,
    select_transmit_bands,
    write_sweep_csv,
)

__version__ = "0.1.0"
