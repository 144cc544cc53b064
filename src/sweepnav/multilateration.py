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
once; each set of distances then costs only b, its rotation, the
back-substitution and the residual (Golub & Van Loan, Matrix Computations,
section 5.3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DegenerateGeometryError, InsufficientAnchorsError

MIN_ANCHORS = 4
CONDITION_CAP = 1e8  # a larger condition estimate makes the geometry degenerate


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


class _GivensQR:
    """The solver's factor phase, on A's rows (A_j0, A_j1) alone: each row
    folds into the 2x2 triangular R by at most two Givens rotations, kept
    as (c, s), or None where the entry is already 0. ``solve`` applies them."""

    def __init__(self, rows: Sequence[tuple[float, float]]):
        r00 = r01 = r11 = 0.0
        self.rows, self._rotations = tuple(rows), []
        for a0, a1 in self.rows:
            first = second = None
            if a0 != 0.0:
                r = math.hypot(r00, a0)
                c, s = r00 / r, a0 / r
                r00, r01, a1 = r, c * r01 + s * a1, c * a1 - s * r01
                first = (c, s)
            if a1 != 0.0:
                r = math.hypot(r11, a1)
                r11, second = r, (r11 / r, a1 / r)
            self._rotations.append((first, second))
        self._r = (r00, r01, r11)
        sigma_max, sigma_min = _triangular_singular_values(r00, r01, r11)
        self._degenerate = "anchor geometry is rank deficient" if sigma_min <= 0.0 else None
        if self._degenerate is None:
            self._condition = sigma_max / sigma_min
            if self._condition > CONDITION_CAP:
                self._degenerate = f"condition estimate {self._condition:.3g} exceeds cap {CONDITION_CAP:.3g}"

    def solve(self, b: Sequence[float]) -> tuple[float, float, float, float]:
        """(x, y, residual_norm, condition_estimate) for one right-hand side."""
        if self._degenerate is not None:
            raise DegenerateGeometryError(self._degenerate)
        qb0 = qb1 = 0.0
        for (first, second), bj in zip(self._rotations, b):
            if first is not None:
                c, s = first
                qb0, bj = c * qb0 + s * bj, c * bj - s * qb0
            if second is not None:
                c, s = second
                qb1 = c * qb1 + s * bj
        r00, r01, r11 = self._r
        y = qb1 / r11
        x = (qb0 - r01 * y) / r00
        squares = 0.0
        for (a0, a1), bj in zip(self.rows, b):
            e = a0 * x + a1 * y - bj
            squares += e * e
        return x, y, math.sqrt(squares), self._condition


class AnchorFrame:
    """Fixed anchors (count and unique ids checked once) with A factored and
    the anchor part of b, c_j = x1^2 - xj^2 + y1^2 - yj^2, kept: per set of
    distances, b_j = c_j + dj^2 - d1^2 (the same bits, left to right)."""

    def __init__(self, anchors: Sequence[Anchor]):
        n = len(anchors)
        if n < MIN_ANCHORS:
            raise InsufficientAnchorsError(f"need at least {MIN_ANCHORS} anchors, have {n}")
        if len({a.band_id for a in anchors}) != n:
            raise ValueError("anchor ids must be unique")
        self.anchors = tuple(anchors)
        x1, y1 = float(anchors[0].x), float(anchors[0].y)
        rows, self._c = [], []
        for anchor in anchors[1:]:
            xj, yj = float(anchor.x), float(anchor.y)
            rows.append((2.0 * (x1 - xj), 2.0 * (y1 - yj)))
            self._c.append(x1 * x1 - xj * xj + y1 * y1 - yj * yj)
        self.qr = _GivensQR(rows)

    def rhs(self, distances: Sequence[float]) -> list[float]:
        """b for one set of distances, after checking them."""
        if len(distances) != len(self.anchors):
            raise ValueError(f"{len(self.anchors)} anchors but {len(distances)} distances")
        for v in distances:
            if not 0.0 <= v < math.inf:  # NaN fails too
                raise ValueError("distances must be finite and non-negative")
        d1 = distances[0] * distances[0]
        return [c + dj * dj - d1 for c, dj in zip(self._c, distances[1:])]

    def solve(self, distances: Sequence[float]) -> tuple[float, float, float, float]:
        """(x, y, residual_norm, condition_estimate) for one set of distances."""
        return self.qr.solve(self.rhs(distances))

