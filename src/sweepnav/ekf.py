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
terms of the symmetric covariance, so P stays exactly symmetric. Q and P0
pass one check, ``_covariance_terms`` (ConfigError); each kernel rejects a
non-finite timestep, velocity, predicted position or range (ValueError); a
prediction whose P is no longer PSD raises FilterDivergenceError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .errors import ConfigError, FilterDivergenceError, SingularGeometryError

SYMMETRY_TOL = 1e-9
PSD_TOL = -1e-9
DEFAULT_MIN_RANGE = 1e-6


class Landmark(NamedTuple):
    x: float
    y: float
    source_index: int = -1


@dataclass(frozen=True)
class NoiseConfig:
    """Process covariance Q (2x2, kept as float pairs) and scalar range variance R."""

    q: tuple[tuple[float, float], tuple[float, float]] = ((0.1, 0.0), (0.0, 0.1))
    r: float = 0.01

    def __post_init__(self):
        q00, q01, q11 = _covariance_terms("Q", self.q)
        object.__setattr__(self, "q", ((q00, q01), (q01, q11)))
        if not 0 < self.r < math.inf:  # NaN fails too
            raise ConfigError("R must be positive and finite")


class TrackStep(NamedTuple):
    """One filter step: resulting state plus the innovation log (immutable)."""

    position: tuple[float, float]
    covariance_terms: tuple[float, float, float]
    innovations: tuple[tuple[int, float], ...]
    flags: tuple[str, ...]


# (x, y, p00, p01, p11): the kernel's state
Terms = tuple[float, float, float, float, float]


def _min_eig(a: float, b: float, c: float) -> float:
    return a / 2.0 + c / 2.0 - math.hypot((a - c) / 2.0, b)  # halved first: a + c may overflow


def _covariance_terms(name: str, matrix) -> tuple[float, float, float]:
    """(m00, m01, m11) of a 2x2 matrix given as two rows, the off-diagonal averaged:
    the one check of Q and P0, which must be finite, symmetric and PSD."""
    try:
        (m00, m01), (m10, m11) = ((float(a), float(b)) for a, b in matrix)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a 2x2 matrix of numbers") from None
    terms = (m00, (m01 + m10) / 2.0, m11)
    # a NaN or infinite entry fails one of the two comparisons
    if not (abs(m01 - m10) <= SYMMETRY_TOL and _min_eig(*terms) >= PSD_TOL):
        raise ConfigError(f"{name} must be finite, symmetric and positive semi-definite")
    return terms


def predict(terms: Terms, dt: float, ux: float, uy: float, q: tuple[float, float, float]) -> Terms:
    """Move the position by ``dt`` times the velocity (ux, uy) and add Q's terms to P's."""
    if not 0.0 < dt < math.inf:  # NaN fails too
        raise ValueError("timestep must be positive and finite")
    if not ux * 0.0 == 0.0 == uy * 0.0:  # inf * 0 and NaN * 0 are NaN
        raise ValueError("velocity must be finite")
    x, y, p00, p01, p11 = terms
    if not _min_eig(p00, p01, p11) >= PSD_TOL:
        raise FilterDivergenceError("filter diverged: its covariance is not positive semi-definite")
    x, y = x + dt * ux, y + dt * uy
    if not x * 0.0 == 0.0 == y * 0.0:  # a finite dt times a finite velocity can overflow
        raise ValueError("predicted position must be finite")
    return (x, y, p00 + q[0], p01 + q[1], p11 + q[2])


def update(terms: Terms, z: float, lx: float, ly: float, r: float) -> tuple[Terms, float]:
    """Fold range ``z`` to the landmark at (lx, ly) with variance ``r`` into
    the terms; returns the new terms and the innovation.

    Raises SingularGeometryError within DEFAULT_MIN_RANGE of the landmark.
    """
    if not 0.0 <= z < math.inf:  # NaN fails too
        raise ValueError("range measurement must be finite and non-negative")
    x, y, p00, p01, p11 = terms
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

    def __init__(self, x0: Sequence[float], p0: Sequence[Sequence[float]], noise: NoiseConfig):
        x, y = x0
        self._terms: Terms = (float(x), float(y), *_covariance_terms("P0", p0))
        self._q = (*noise.q[0], noise.q[1][1])  # NoiseConfig has checked Q and made it symmetric
        self._r = float(noise.r)

    def step(
        self,
        dt: float,
        u: Sequence[float],
        measurements: Iterable[tuple[Landmark, float]],
    ) -> TrackStep:
        """Predict with velocity ``u`` over ``dt``, then apply each range.

        A landmark coincident with the state is skipped; a step where some
        measurements were offered and every one was skipped is flagged and
        keeps the prediction (an empty iterable is not flagged). An
        ill-formed ``dt``, velocity or range raises ValueError and commits
        nothing. Flags grow only on a skipped landmark; the result is built
        as one tuple, not passed field by field.
        """
        ux, uy = u
        terms = predict(self._terms, dt, ux, uy, self._q)

        innovations: list[tuple[int, float]] = []
        flags: tuple[str, ...] = ()
        r = self._r
        for (lx, ly, source_index), z in measurements:
            try:
                terms, innovation = update(terms, z, lx, ly, r)
            except SingularGeometryError:
                flags += ("skipped_landmark",)
                continue
            innovations.append((source_index, innovation))
        if flags and not innovations:  # flags holds one entry per skipped landmark
            flags += ("no_update",)

        self._terms = terms
        return tuple.__new__(TrackStep, (terms[:2], terms[2:], tuple(innovations), flags))
