"""Extended Kalman filter over a planar position with velocity input.

The state is the 2D position alone; velocity enters the motion model as an
exogenous input, so the transition Jacobian is the identity:

    predict:  x <- x + Ts * u,          P <- P + Q
    update:   K = P H' / (H P H' + R),  x <- x + K (z - d_pred)
              P <- (I - K H) P

Measurements are ranges to landmarks, with the 1x2 Jacobian
H = [(x - xl)/d, (y - yl)/d]. The landmarks are the pipeline's anchor
frame, shifted into the relative frame. Multiple landmarks are folded in as
sequential scalar updates, in the order given; a landmark within
DEFAULT_MIN_RANGE of the state is skipped.

Both steps are closed-form float kernels, ``predict`` and ``update``, over
the term tuple (x, y, p00, p01, p11): the position and the independent
terms of the symmetric covariance, so P stays exactly symmetric. The
covariance is checked for symmetry where it enters (tracker start) and for
positive semi-definiteness once per step: at tracker start and in every
prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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
class NoiseConfig:
    """Process covariance Q (2x2) and scalar range variance R."""

    q: np.ndarray = None
    r: float = 0.01

    def __post_init__(self):
        q = np.eye(2) * 0.1 if self.q is None else np.asarray(self.q, dtype=float).reshape(2, 2)
        object.__setattr__(self, "q", q)
        if not np.allclose(q, q.T, atol=SYMMETRY_TOL):
            raise ValueError("Q must be symmetric")
        if _min_eig(*_upper(q)) < PSD_TOL:
            raise ValueError("Q must be positive semi-definite")
        if not self.r > 0:
            raise ValueError("R must be positive")

    def __eq__(self, other):
        # Q is an array, whose elementwise == has no single truth value
        if not isinstance(other, NoiseConfig):
            return NotImplemented
        return self.r == other.r and np.array_equal(self.q, other.q)


class TrackStep(NamedTuple):
    """One filter step: resulting state plus the innovation log (immutable)."""

    position: tuple[float, float]
    covariance_terms: tuple[float, float, float]
    innovations: tuple[tuple[int, float], ...]
    flags: tuple[str, ...]


# (x, y, p00, p01, p11): the kernel's state
Terms = tuple[float, float, float, float, float]


def _min_eig(a: float, b: float, c: float) -> float:
    return (a + c) / 2.0 - math.hypot((a - c) / 2.0, b)


def _upper(matrix: np.ndarray) -> tuple[float, float, float]:
    """(m00, m01, m11) of a 2x2 matrix, the off-diagonal averaged."""
    return float(matrix[0, 0]), float(matrix[0, 1] + matrix[1, 0]) / 2.0, float(matrix[1, 1])


def _require_psd(p00: float, p01: float, p11: float) -> None:
    if _min_eig(p00, p01, p11) < PSD_TOL:
        raise ValueError("covariance must be positive semi-definite")


def predict(terms: Terms, dt: float, ux: float, uy: float, q: tuple[float, float, float]) -> Terms:
    """Move the position by ``dt`` times the velocity (ux, uy) and add Q's terms to P's."""
    if dt <= 0:
        raise ValueError("timestep must be positive")
    x, y, p00, p01, p11 = terms
    _require_psd(p00, p01, p11)
    return (x + dt * ux, y + dt * uy, p00 + q[0], p01 + q[1], p11 + q[2])


def update(terms: Terms, z: float, lx: float, ly: float, r: float) -> tuple[Terms, float]:
    """Fold range ``z`` to the landmark at (lx, ly) with variance ``r`` into
    the terms; returns the new terms and the innovation.

    Raises SingularGeometryError within DEFAULT_MIN_RANGE of the landmark.
    """
    x, y, p00, p01, p11 = terms
    if z < 0:
        raise ValueError("range measurement must be non-negative")
    dx = x - lx
    dy = y - ly
    distance = math.hypot(dx, dy)
    if distance <= DEFAULT_MIN_RANGE:
        raise SingularGeometryError(
            f"state within {DEFAULT_MIN_RANGE} m of landmark, range direction undefined"
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


class EkfTracker:
    """Stateful wrapper evolving one track step by step.

    ``step`` looks ``predict`` and ``update`` up as module globals on each
    call, so a caller can observe every covariance change by wrapping them.
    """

    def __init__(self, x0: Sequence[float], p0: np.ndarray, noise: NoiseConfig):
        x, y = np.asarray(x0, dtype=float).reshape(2)
        p0 = np.asarray(p0, dtype=float).reshape(2, 2)
        if abs(p0[0, 1] - p0[1, 0]) > SYMMETRY_TOL:
            raise ValueError("covariance must be symmetric")
        covariance = _upper(p0)
        _require_psd(*covariance)
        self._terms: Terms = (float(x), float(y), *covariance)
        self._q = _upper(noise.q)
        self._r = float(noise.r)

    def step(
        self,
        dt: float,
        u: Sequence[float],
        measurements: Sequence[tuple[Landmark, float]],
    ) -> TrackStep:
        """Predict with velocity ``u`` over ``dt``, then apply each range.

        A landmark coincident with the state is skipped; a step where no
        measurement could be applied (but some were offered) is flagged and
        keeps the prediction.
        """
        ux, uy = u
        terms = predict(self._terms, float(dt), float(ux), float(uy), self._q)

        innovations: list[tuple[int, float]] = []
        flags: list[str] = []
        for landmark, z in measurements:
            try:
                terms, innovation = update(terms, z, landmark.x, landmark.y, self._r)
            except SingularGeometryError:
                flags.append("skipped_landmark")
                continue
            innovations.append((landmark.source_index, innovation))
        if measurements and not innovations:
            flags.append("no_update")

        self._terms = terms
        x, y, p00, p01, p11 = terms
        return TrackStep((float(x), float(y)), (p00, p01, p11), tuple(innovations), tuple(flags))
