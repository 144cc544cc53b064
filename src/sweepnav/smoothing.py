"""Moving-average smoothing of position fixes.

``Smoother`` is the one smoother: its float kernel sums left to right in
plain loops (``sum()`` compensates from Python 3.12 on).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ConfigError, config_int

Point = tuple[float, float]

# a longer window would hold its weights in memory before the first fix
MAX_WINDOW = 1_000_000


@dataclass(frozen=True)
class SmootherConfig:
    """Window and weights of the fix smoother.

    Default weights ramp 1..window so the newest fix weighs most; equal
    weights give the simple moving average.
    """

    window: int = 3
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if not 1 <= config_int("smoother window", self.window) <= MAX_WINDOW:
            raise ConfigError(f"smoother window must be 1..{MAX_WINDOW}, got {self.window}")
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
            if len(self.weights) != self.window:
                raise ConfigError("weights length must equal the window")
            if not all(w > 0 and math.isfinite(w) for w in self.weights):
                raise ConfigError("weights must be positive and finite")

    def effective_weights(self) -> tuple[float, ...]:
        return self.weights or tuple(float(i) for i in range(1, self.window + 1))


def _normalized(weights: Sequence[float]) -> tuple[float, ...]:
    # Dividing by the first weight sends any equal weights down one exact
    # float path, whatever their scale.
    return tuple(w / weights[0] for w in weights)


def _weighted_mean(points: Iterable[Point], weights: Sequence[float]) -> Point:
    """Weighted mean of (x, y) floats, clamped to their per-axis range.

    The comparisons keep the first extreme and clamp as min(max(mean, lo), hi)
    would, without the calls.
    """
    sx = sy = total = 0.0
    lo_x = lo_y = math.inf
    hi_x = hi_y = -math.inf
    for (x, y), w in zip(points, weights):
        sx += w * x
        sy += w * y
        total += w
        if x < lo_x:
            lo_x = x
        if x > hi_x:
            hi_x = x
        if y < lo_y:
            lo_y = y
        if y > hi_y:
            hi_y = y
    mx, my = sx / total, sy / total
    mx = lo_x if lo_x > mx else mx
    my = lo_y if lo_y > my else my
    return hi_x if hi_x < mx else mx, hi_y if hi_y < my else my


class Smoother:
    """Streaming trailing-window smoother over incoming fixes.

    While the window is still filling, the trailing weights apply to the
    fixes available so far (renormalized by the weighted mean itself).
    """

    def __init__(self, config: SmootherConfig):
        self._weights = config.effective_weights()
        self._full = _normalized(self._weights)
        self._points: deque[Point] = deque(maxlen=config.window)

    def push(self, point: Point) -> Point:
        self._points.append((float(point[0]), float(point[1])))
        filled = len(self._points)
        if filled == len(self._full):
            return _weighted_mean(self._points, self._full)
        # still filling: normalize the trailing weights on the fly, O(window) memory
        return _weighted_mean(self._points, _normalized(self._weights[-filled:]))
