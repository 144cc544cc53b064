"""Seeded planar placement with a minimum-separation rule.

Both the pipeline's anchor-frame assignment and the simulator's automatic
transmitter layout call this, drawing positions in ascending key order so
that equal seeds produce congruent constellations on either side.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .errors import ConfigError, PlacementError, config_int

Bbox = tuple[float, float, float, float]  # xmin, ymin, xmax, ymax

DEFAULT_MIN_SEP_FRAC = 0.01
MAX_DRAWS = 1000


def validate_bbox(bbox: Bbox) -> Bbox:
    xmin, ymin, xmax, ymax = (float(v) for v in bbox)
    if not all(math.isfinite(v) for v in (xmin, ymin, xmax, ymax)):
        raise ConfigError("bounding box must be finite")
    if xmax <= xmin or ymax <= ymin:
        raise ConfigError("bounding box must have positive area")
    if not math.isfinite(math.hypot(xmax - xmin, ymax - ymin)):  # a finite diagonal bounds width and height
        raise ConfigError("bounding box is too large: its diagonal overflows")
    return xmin, ymin, xmax, ymax


def place_in_box(keys: Iterable[int], seed: int, bbox: Bbox) -> dict[int, tuple[float, float]]:
    """Uniform seeded placement of one point per key inside the box.

    Points closer than ``DEFAULT_MIN_SEP_FRAC`` of the box diagonal to an
    earlier point are redrawn, up to ``MAX_DRAWS`` attempts each.
    """
    if config_int("seed", seed) < 0:  # numpy's generator would reject it with a message of its own
        raise ConfigError(f"seed {seed} is negative")
    xmin, ymin, xmax, ymax = validate_bbox(bbox)
    diagonal = math.hypot(xmax - xmin, ymax - ymin)
    min_sep = DEFAULT_MIN_SEP_FRAC * diagonal
    rng = np.random.default_rng(seed)

    placed: dict[int, tuple[float, float]] = {}
    for key in sorted(keys):
        for _ in range(MAX_DRAWS):
            x = float(rng.uniform(xmin, xmax))
            y = float(rng.uniform(ymin, ymax))
            if all(math.hypot(x - px, y - py) >= min_sep for px, py in placed.values()):
                placed[key] = (x, y)
                break
        else:
            raise PlacementError(f"no admissible position for key {key} after {MAX_DRAWS} draws")
    return placed
