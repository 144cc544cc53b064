"""Extended Kalman filter over a planar position with velocity input.

The state is the 2D position alone; velocity enters the motion model as an
exogenous input, so the transition Jacobian is the identity:

    predict:  x <- x + Ts * u,          P <- P + Q
    update:   K = P H' / (H P H' + R),  x <- x + K (z - d_pred)
              P <- (I - K H) P

Measurements are ranges to landmarks, with the 1x2 Jacobian
H = [(x - xl)/d, (y - yl)/d]. The pipeline's landmarks are its anchor
frame, shifted into the relative frame; :func:`track` instead re-uses a
fix sequence's own recent fixes. Multiple landmarks are folded in as
sequential scalar updates, in the order given.

Both steps run as one closed-form float kernel over (x, y, p00, p01, p11),
the position and the independent terms of the symmetric covariance, so P
stays exactly symmetric. Covariances are checked for symmetry where they
enter (tracker start, the TrackState adapters) and for positive
semi-definiteness before every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import SingularGeometryError

SYMMETRY_TOL = 1e-9
PSD_TOL = -1e-9
DEFAULT_MIN_RANGE = 1e-6


class Landmark(NamedTuple):
    x: float
    y: float
    source_index: int = -1


@dataclass(frozen=True)
class TrackState:
    """Filter state: planar position, covariance, and step length."""

    position: np.ndarray
    covariance: np.ndarray
    timestep: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float).reshape(2))
        object.__setattr__(self, "covariance", np.asarray(self.covariance, dtype=float).reshape(2, 2))


@dataclass(frozen=True)
class NoiseConfig:
    """Process covariance Q (2x2) and scalar range variance R."""

    q: np.ndarray = None
    r: float = 0.01

    def __post_init__(self):
        q = np.eye(2) * 0.1 if self.q is None else np.asarray(self.q, dtype=float).reshape(2, 2)
        object.__setattr__(self, "q", q)
        if not np.allclose(q, q.T, atol=SYMMETRY_TOL):
            raise ValueError("Q must be symmetric")
        if min_eig_2x2(q) < PSD_TOL:
            raise ValueError("Q must be positive semi-definite")
        if self.r <= 0:
            raise ValueError("R must be positive")


@dataclass(frozen=True)
class TrackStep:
    """One filter step: resulting state plus the innovation log."""

    position: tuple[float, float]
    covariance: np.ndarray
    innovations: tuple[tuple[int, float], ...]
    flags: tuple[str, ...]
    timestamp: float = 0.0


Monitor = Callable[[str, np.ndarray], None]

# (x, y, p00, p01, p11): the kernel's state
Terms = tuple[float, float, float, float, float]


def _min_eig(a: float, b: float, c: float) -> float:
    return (a + c) / 2.0 - math.hypot((a - c) / 2.0, b)


def min_eig_2x2(matrix: np.ndarray) -> float:
    """Closed-form smallest eigenvalue of a symmetric 2x2 matrix."""
    return _min_eig(matrix[0, 0], (matrix[0, 1] + matrix[1, 0]) / 2.0, matrix[1, 1])


def _upper(matrix: np.ndarray) -> tuple[float, float, float]:
    """(m00, m01, m11) of a 2x2 matrix, the off-diagonal averaged."""
    return float(matrix[0, 0]), float(matrix[0, 1] + matrix[1, 0]) / 2.0, float(matrix[1, 1])


def _covariance_terms(covariance: np.ndarray) -> tuple[float, float, float]:
    """(p00, p01, p11) of a covariance entering the filter."""
    if abs(covariance[0, 1] - covariance[1, 0]) > SYMMETRY_TOL:
        raise ValueError("covariance must be symmetric")
    return _upper(covariance)


def _matrix(p00: float, p01: float, p11: float) -> np.ndarray:
    return np.array([[p00, p01], [p01, p11]])


def _require_psd(p00: float, p01: float, p11: float) -> None:
    if _min_eig(p00, p01, p11) < PSD_TOL:
        raise ValueError("covariance must be positive semi-definite")


def _predict(terms: Terms, dt: float, ux: float, uy: float, q: tuple[float, float, float]) -> Terms:
    if dt <= 0:
        raise ValueError("timestep must be positive")
    x, y, p00, p01, p11 = terms
    _require_psd(p00, p01, p11)
    return (x + dt * ux, y + dt * uy, p00 + q[0], p01 + q[1], p11 + q[2])


def _update(
    terms: Terms, z: float, lx: float, ly: float, r: float, min_range: float
) -> tuple[Terms, float]:
    """Scalar range update; returns the new terms and the innovation."""
    x, y, p00, p01, p11 = terms
    _require_psd(p00, p01, p11)
    if z < 0:
        raise ValueError("range measurement must be non-negative")
    dx = x - lx
    dy = y - ly
    distance = math.hypot(dx, dy)
    if distance <= min_range:
        raise SingularGeometryError(
            f"state within {min_range} m of landmark, range direction undefined"
        )
    h0 = dx / distance
    h1 = dy / distance
    ph0 = p00 * h0 + p01 * h1  # P H'
    ph1 = p01 * h0 + p11 * h1
    innovation_var = h0 * ph0 + h1 * ph1 + r
    k0 = ph0 / innovation_var
    k1 = ph1 / innovation_var
    innovation = z - distance
    updated = (x + k0 * innovation, y + k1 * innovation, p00 - k0 * ph0, p01 - k0 * ph1, p11 - k1 * ph1)
    return updated, innovation


def _state_terms(state: TrackState) -> Terms:
    return (float(state.position[0]), float(state.position[1]), *_covariance_terms(state.covariance))


def _track_state(terms: Terms, timestep: float) -> TrackState:
    x, y, p00, p01, p11 = terms
    return TrackState(position=(x, y), covariance=_matrix(p00, p01, p11), timestep=timestep)


def predict(state: TrackState, u: Sequence[float], noise: NoiseConfig) -> TrackState:
    """Constant-velocity prediction over one timestep."""
    ux, uy = np.asarray(u, dtype=float).reshape(2)
    terms = _predict(_state_terms(state), state.timestep, float(ux), float(uy), _upper(noise.q))
    return _track_state(terms, state.timestep)


def range_measurement(state: TrackState, landmark: Landmark) -> float:
    """Euclidean distance from the state position to the landmark."""
    return math.hypot(state.position[0] - landmark.x, state.position[1] - landmark.y)


def range_jacobian(
    state: TrackState, landmark: Landmark, min_range: float = DEFAULT_MIN_RANGE
) -> np.ndarray:
    """Gradient of the range with respect to the position, as a length-2 row."""
    dx = state.position[0] - landmark.x
    dy = state.position[1] - landmark.y
    distance = math.hypot(dx, dy)
    if distance <= min_range:
        raise SingularGeometryError(
            f"state within {min_range} m of landmark, range direction undefined"
        )
    return np.array([dx / distance, dy / distance])


def update(
    state: TrackState,
    z: float,
    landmark: Landmark,
    noise: NoiseConfig,
    min_range: float = DEFAULT_MIN_RANGE,
) -> TrackState:
    """Fold one range measurement into the state."""
    terms, _ = _update(_state_terms(state), z, landmark.x, landmark.y, float(noise.r), min_range)
    return _track_state(terms, state.timestep)


class EkfTracker:
    """Stateful wrapper evolving one track step by step.

    ``monitor`` (if given) is called with ("init" | "predict" | "update",
    covariance copy) after each covariance change; the test harness uses it
    to audit symmetry, positive semi-definiteness, and trace behavior.
    """

    def __init__(
        self,
        x0: Sequence[float],
        p0: np.ndarray,
        noise: NoiseConfig,
        monitor: Monitor | None = None,
        min_range: float = DEFAULT_MIN_RANGE,
    ):
        x, y = np.asarray(x0, dtype=float).reshape(2)
        covariance = _covariance_terms(np.asarray(p0, dtype=float).reshape(2, 2))
        _require_psd(*covariance)
        self._terms: Terms = (float(x), float(y), *covariance)
        self._timestep = 1.0
        self._q = _upper(noise.q)
        self._r = float(noise.r)
        self._monitor = monitor
        self._min_range = min_range
        if monitor is not None:
            monitor("init", _matrix(*covariance))

    @property
    def state(self) -> TrackState:
        return _track_state(self._terms, self._timestep)

    def step(
        self,
        dt: float,
        u: Sequence[float],
        measurements: Sequence[tuple[Landmark, float]],
        timestamp: float = 0.0,
    ) -> TrackStep:
        """Predict with velocity ``u`` over ``dt``, then apply each range.

        A landmark coincident with the state is skipped; a step where no
        measurement could be applied (but some were offered) is flagged and
        keeps the prediction.
        """
        ux, uy = u
        terms = _predict(self._terms, float(dt), float(ux), float(uy), self._q)
        monitor = self._monitor
        if monitor is not None:
            monitor("predict", _matrix(*terms[2:]))

        innovations: list[tuple[int, float]] = []
        flags: list[str] = []
        for landmark, z in measurements:
            try:
                terms, innovation = _update(terms, z, landmark.x, landmark.y, self._r, self._min_range)
            except SingularGeometryError:
                flags.append("skipped_landmark")
                continue
            innovations.append((landmark.source_index, innovation))
            if monitor is not None:
                monitor("update", _matrix(*terms[2:]))
        if measurements and not innovations:
            flags.append("no_update")

        self._terms = terms
        self._timestep = dt
        x, y, p00, p01, p11 = terms
        return TrackStep(
            position=(float(x), float(y)),
            covariance=_matrix(p00, p01, p11),
            innovations=tuple(innovations),
            flags=tuple(flags),
            timestamp=timestamp,
        )


def track(
    fixes: Sequence[tuple[float, float]],
    timestamps: Sequence[float],
    noise: NoiseConfig,
    *,
    landmark_window: int = 3,
    measured: Sequence[tuple[float, float]] | None = None,
    p0_var: float = 10.0,
    monitor: Monitor | None = None,
    min_range: float = DEFAULT_MIN_RANGE,
) -> list[TrackStep]:
    """Batch-filter a fix sequence against its own recent trail.

    At step k the landmarks are the previous ``landmark_window`` fixes and
    the measured ranges are distances from ``measured[k]`` (defaults to
    ``fixes`` itself) to those landmarks. Velocity input is the finite
    difference of consecutive fixes. Output length equals the input fix
    count.
    """
    if len(fixes) < 2:
        raise ValueError("need at least two fixes to track")
    if len(timestamps) != len(fixes):
        raise ValueError("timestamps length must match fixes")
    if measured is None:
        measured = fixes
    if len(measured) != len(fixes):
        raise ValueError("measured length must match fixes")

    tracker = EkfTracker(
        x0=fixes[0], p0=np.eye(2) * p0_var, noise=noise, monitor=monitor, min_range=min_range
    )
    steps = [
        TrackStep(
            position=(float(fixes[0][0]), float(fixes[0][1])),
            covariance=tracker.state.covariance.copy(),
            innovations=(),
            flags=(),
            timestamp=float(timestamps[0]),
        )
    ]
    for k in range(1, len(fixes)):
        dt = float(timestamps[k]) - float(timestamps[k - 1])
        if dt <= 0:
            raise ValueError("timestamps must be strictly increasing")
        u = ((fixes[k][0] - fixes[k - 1][0]) / dt, (fixes[k][1] - fixes[k - 1][1]) / dt)
        start = max(0, k - landmark_window)
        landmarks = [Landmark(fixes[i][0], fixes[i][1], i) for i in range(start, k)]
        measurements = [
            (lm, math.hypot(measured[k][0] - lm.x, measured[k][1] - lm.y)) for lm in landmarks
        ]
        steps.append(tracker.step(dt, u, measurements, timestamp=float(timestamps[k])))
    return steps
