"""Planar multilateration by linearized least squares.

With anchors q_1..q_n and ranges d_1..d_n, each circle equation
|x - q_i|^2 = d_i^2 is subtracted from the first one, leaving the linear
system A x = b with

    row j of A = 2 * [(x_1 - x_{j+1}), (y_1 - y_{j+1})]
    b_j = x_1^2 - x_{j+1}^2 + y_1^2 - y_{j+1}^2 + d_{j+1}^2 - d_1^2

solved in the least-squares sense. The first anchor should be the most
trusted one since it appears in every equation.

Solved by Givens QR: the rows fold one at a time into a 2x2 triangular R
and Q^T b, then R x = Q^T b is back-substituted. A and R share singular
values, taken from R in closed form (LAPACK dlas2); the condition estimate
is sigma_max / sigma_min. The normal equations A^T A x = A^T b would square
the condition number, and with it the error of the solution.

A depends on the anchors alone, so AnchorFrame, the solver, factors it
once and rejects a degenerate A there; each set of distances then takes one
pass that checks it, forms b and rotates it, then the back-substitution and
the residual (Golub & Van Loan, Matrix Computations, section 5.3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Sequence

from .errors import DegenerateGeometryError, InsufficientAnchorsError

MIN_ANCHORS = 4
CONDITION_CAP = 1e8  # a larger condition estimate makes the geometry degenerate
_BAD_DISTANCE = "distances must be finite and non-negative"


@dataclass(frozen=True)
class Anchor:
    """A transmitter's assigned coordinate in the relative frame."""

    band_id: int
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("anchor coordinates must be finite")


def _triangular_singular_values(f: float, g: float, h: float) -> tuple[float, float]:
    """(sigma_max, sigma_min) of [[f, g], [0, h]] by LAPACK dlas2 (Demmel &
    Kahan, 1990): sigma_min keeps relative accuracy even when it is tiny."""
    fa, ga, ha = abs(f), abs(g), abs(h)
    fhmn, fhmx = min(fa, ha), max(fa, ha)
    if fhmn == 0.0:
        return math.hypot(fhmx, ga), 0.0
    as_ = 1.0 + fhmn / fhmx
    at = (fhmx - fhmn) / fhmx
    if ga < fhmx:
        au = (ga / fhmx) ** 2
        c = 2.0 / (math.sqrt(as_ * as_ + au) + math.sqrt(at * at + au))
        return fhmx / c, fhmn * c
    au = fhmx / ga  # if this underflows, sigma_min reads 0: rank deficient
    c = 1.0 / (math.sqrt(1.0 + (as_ * au) ** 2) + math.sqrt(1.0 + (at * au) ** 2))
    return ga / (c + c), 2.0 * (fhmn * c) * au


class AnchorFrame:
    """Fixed anchors (count and unique ids checked once) with A factored.

    Per anchor after the first, the factor phase keeps c_j = x1^2 - xj^2 +
    y1^2 - yj^2, the anchor part of b_j, and the cosine and sine of each of
    the row's Givens rotations, at most two (None where the entry is already
    0). ``solve`` then forms each b_j = c_j + dj^2 - d1^2 (left to right)
    and rotates it in the same pass. A row or c_j that overflows a float, a
    rank-deficient A and a condition estimate above CONDITION_CAP are found
    here, once, and raised as DegenerateGeometryError naming the anchors'
    bands, so ``solve`` has no geometry check.
    """

    def __init__(self, anchors: Sequence[Anchor]):
        n = len(anchors)
        if n < MIN_ANCHORS:
            raise InsufficientAnchorsError(f"need at least {MIN_ANCHORS} anchors, have {n}")
        if len({a.band_id for a in anchors}) != n:
            raise ValueError("anchor ids must be unique")
        self.anchors = tuple(anchors)
        x1, y1 = float(anchors[0].x), float(anchors[0].y)
        r00 = r01 = r11 = 0.0
        rows, self._factored, finite = [], [], True
        for anchor in anchors[1:]:
            xj, yj = float(anchor.x), float(anchor.y)
            a0, a1, cj = 2.0 * (x1 - xj), 2.0 * (y1 - yj), x1 * x1 - xj * xj + y1 * y1 - yj * yj
            finite = finite and math.isfinite(a0) and math.isfinite(a1) and math.isfinite(cj)
            rows.append((a0, a1))
            c0 = s0 = c1 = s1 = None
            if a0 != 0.0:
                r = math.hypot(r00, a0)
                c0, s0 = r00 / r, a0 / r
                r00, r01, a1 = r, c0 * r01 + s0 * a1, c0 * a1 - s0 * r01
            if a1 != 0.0:
                r = math.hypot(r11, a1)
                r11, c1, s1 = r, r11 / r, a1 / r
            self._factored.append((cj, c0, s0, c1, s1))
        self.rows, self._r = tuple(rows), (r00, r01, r11)
        sigma_max, sigma_min = _triangular_singular_values(r00, r01, r11)
        reason = None
        if not finite:  # finite anchors far apart overflow a difference or a square, which solves to NaN
            reason = "coordinates overflow the linear system"
        elif not sigma_min > 0.0:  # NaN fails too
            reason = "geometry is rank deficient"
        else:
            self._condition = sigma_max / sigma_min
            if not self._condition <= CONDITION_CAP:
                reason = f"condition estimate {self._condition:.3g} exceeds cap {CONDITION_CAP:.3g}"
        if reason is not None:  # no comma: the message stays one CSV field in study's grid notes
            bands = " ".join(str(a.band_id) for a in anchors)
            raise DegenerateGeometryError(f"anchor frame of bands {bands} is degenerate: {reason}")

    def solve(self, distances: Sequence[float]) -> tuple[float, float, float, float]:
        """(x, y, residual_norm, condition_estimate) for one set of distances; ValueError
        for a negative or non-finite distance, or for distances that overflow the solution."""
        if len(distances) != len(self.anchors):
            raise ValueError(f"{len(self.anchors)} anchors but {len(distances)} distances")
        d1 = distances[0]
        if not 0.0 <= d1 < math.inf:  # NaN fails too
            raise ValueError(_BAD_DISTANCE)
        d1 *= d1
        b, qb0, qb1 = [], 0.0, 0.0
        for (cj, c0, s0, c1, s1), dj in zip(self._factored, islice(distances, 1, None)):
            if not 0.0 <= dj < math.inf:
                raise ValueError(_BAD_DISTANCE)
            bj = cj + dj * dj - d1
            b.append(bj)
            if c0 is not None:
                qb0, bj = c0 * qb0 + s0 * bj, c0 * bj - s0 * qb0
            if c1 is not None:
                qb1 = c1 * qb1 + s1 * bj
        r00, r01, r11 = self._r
        y = qb1 / r11
        x = (qb0 - r01 * y) / r00
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError("distances overflow the solution")
        squares = 0.0
        for (a0, a1), bj in zip(self.rows, b):
            e = a0 * x + a1 * y - bj
            squares += e * e
        return x, y, math.sqrt(squares), self._condition
