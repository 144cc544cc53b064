import math

import numpy as np
import pytest

from sweepnav import Anchor, AnchorFrame, DegenerateGeometryError, InsufficientAnchorsError
from sweepnav.multilateration import CONDITION_CAP, _triangular_singular_values


def svd_reference(a, b):
    """The SVD equations the solver used before Givens QR: (position, condition)."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    return vt.T @ ((u.T @ b) / s), s[0] / s[-1]


# The solver before the anchor frame was factored once, kept as the
# reference AnchorFrame must equal bit for bit. Its checks run in the frame's
# order: the anchors (count, unique ids, then the degeneracy of A, whose
# rotations do not depend on b), when the frame is built, before the distances.
def reference_linear_rows(anchors, distances):
    n = len(anchors)
    if n < 4:
        raise InsufficientAnchorsError(f"need at least 4 anchors, have {n}")
    if len({a.band_id for a in anchors}) != n:
        raise ValueError("anchor ids must be unique")
    x1, y1 = float(anchors[0].x), float(anchors[0].y)
    try:
        reference_solve_rows([(2.0 * (x1 - a.x), 2.0 * (y1 - a.y), 0.0) for a in anchors[1:]])
    except DegenerateGeometryError as exc:
        bands = " ".join(str(a.band_id) for a in anchors)
        raise DegenerateGeometryError(f"anchor frame of bands {bands} is degenerate: {exc}") from None
    if len(distances) != n:
        raise ValueError(f"{n} anchors but {len(distances)} distances")
    d = [float(v) for v in distances]
    if not all(0.0 <= v < math.inf for v in d):
        raise ValueError("distances must be finite and non-negative")
    d1 = d[0]
    rows = []
    for j in range(1, n):
        xj, yj, dj = float(anchors[j].x), float(anchors[j].y), d[j]
        b = x1 * x1 - xj * xj + y1 * y1 - yj * yj + dj * dj - d1 * d1
        rows.append((2.0 * (x1 - xj), 2.0 * (y1 - yj), b))
    return rows


def reference_solve_rows(rows):
    r00 = r01 = r11 = qb0 = qb1 = 0.0
    for a0, a1, b in rows:
        if a0 != 0.0:
            r = math.hypot(r00, a0)
            c, s = r00 / r, a0 / r
            r00, r01, a1 = r, c * r01 + s * a1, c * a1 - s * r01
            qb0, b = c * qb0 + s * b, c * b - s * qb0
        if a1 != 0.0:
            r = math.hypot(r11, a1)
            c, s = r11 / r, a1 / r
            r11, qb1 = r, c * qb1 + s * b
    sigma_max, sigma_min = _triangular_singular_values(r00, r01, r11)
    if sigma_min <= 0.0:
        raise DegenerateGeometryError("geometry is rank deficient")
    condition = sigma_max / sigma_min
    if condition > CONDITION_CAP:
        raise DegenerateGeometryError(
            f"condition estimate {condition:.3g} exceeds cap {CONDITION_CAP:.3g}"
        )
    y = qb1 / r11
    x = (qb0 - r01 * y) / r00
    squares = 0.0
    for a0, a1, b in rows:
        e = a0 * x + a1 * y - b
        squares += e * e
    return x, y, math.sqrt(squares), condition


def outcome(solve):
    """A solver's result, or the type and message of what it raised."""
    try:
        return solve()
    except (ValueError, DegenerateGeometryError) as exc:
        return type(exc), str(exc)


def square_anchors():
    return [
        Anchor(1, 0.0, 0.0),
        Anchor(2, 10.0, 0.0),
        Anchor(3, 0.0, 10.0),
        Anchor(4, 10.0, 10.0),
    ]


def ranges_from(anchors, point):
    return [math.hypot(a.x - point[0], a.y - point[1]) for a in anchors]


def frame_of_rows(a):
    """The AnchorFrame whose linearised rows are exactly ``a``: the first
    anchor at the origin, anchor j + 1 at -a_j / 2."""
    anchors = [Anchor(0, 0.0, 0.0)] + [Anchor(j, -a0 / 2, -a1 / 2) for j, (a0, a1) in enumerate(a, 1)]
    return AnchorFrame(anchors)


def solve_rows(a, b):
    """Solve A x = b, A = ``a``, through ``frame_of_rows(a).solve``.

    Row j's anchor part is c_j = -|a_j|^2 / 4, so distances d_1 = sqrt(s)
    and d_j+1 = sqrt(b_j - c_j + s), with s the least shift that keeps every
    square non-negative, give b up to rounding. Returns the solve and the b
    it saw, taken by the reference's own arithmetic (which the solver
    matches bit for bit).
    """
    frame = frame_of_rows(a)
    c = [-(a0 * a0 + a1 * a1) / 4 for a0, a1 in a]
    shift = max(0.0, *(cj - bj for cj, bj in zip(c, b)))
    distances = [math.sqrt(shift)] + [math.sqrt(bj - cj + shift) for cj, bj in zip(c, b)]
    seen = [row[2] for row in reference_linear_rows(frame.anchors, distances)]
    return frame.solve(distances), np.array(seen)


def pythagorean_anchors(rng, m):
    """The origin and ``m - 1`` anchors at integer distances from it, so
    that exact ranges from the first anchor make b exactly 0."""
    triples = [(3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29)]
    anchors, distances = [Anchor(0, 0.0, 0.0)], [0.0]
    for j in range(1, m):
        x, y, d = triples[int(rng.integers(len(triples)))]
        if rng.random() < 0.5:
            x, y = y, x
        scale = 2.0 ** int(rng.integers(-4, 8))
        anchors.append(Anchor(j, x * scale * rng.choice([-1, 1]), y * scale * rng.choice([-1, 1])))
        distances.append(d * scale)
    return anchors, distances


class TestBuildLinearSystem:
    def test_hand_expanded_square(self):
        frame = AnchorFrame(square_anchors())
        assert frame.rows == ((-20.0, 0.0), (0.0, -20.0), (-20.0, -20.0))
        # off the solution, the residual is that of the hand-expanded b
        distances = [math.sqrt(50), math.sqrt(52), math.sqrt(50), math.sqrt(50)]
        x, y, residual, _ = frame.solve(distances)
        b = np.array([-100.0 + 2.0, -100.0, -200.0])
        a = np.array(frame.rows)
        assert residual == pytest.approx(np.linalg.norm(a @ [x, y] - b), rel=1e-12)
        np.testing.assert_allclose(np.linalg.lstsq(a, b, rcond=None)[0], [x, y], atol=1e-12)

    def test_translation_moves_solution_consistently(self):
        anchors = square_anchors()
        point = (3.0, 7.0)
        shift = (123.5, -42.25)
        moved = [Anchor(a.band_id, a.x + shift[0], a.y + shift[1]) for a in anchors]
        distances = ranges_from(anchors, point)

        frame, moved_frame = AnchorFrame(anchors), AnchorFrame(moved)
        assert frame.rows == moved_frame.rows
        x1, y1, _, _ = frame.solve(distances)
        x2, y2, _, _ = moved_frame.solve(distances)
        np.testing.assert_allclose([x2, y2], [x1 + shift[0], y1 + shift[1]], atol=1e-9)

    def test_coincident_anchor_gives_zero_row(self):
        anchors = [Anchor(1, 5.0, 5.0), Anchor(2, 5.0, 5.0), Anchor(3, 0.0, 10.0), Anchor(4, 10.0, 10.0)]
        assert AnchorFrame(anchors).rows[0] == (0.0, 0.0)

    def test_too_few_anchors(self):
        with pytest.raises(InsufficientAnchorsError):
            AnchorFrame(square_anchors()[:3])

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            AnchorFrame(square_anchors()).solve([1.0, 2.0, 3.0])

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            AnchorFrame(square_anchors()).solve([1.0, 2.0, 3.0, -0.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", [0, 3])
    def test_non_finite_distance_rejected(self, bad, position):
        # min([nan, 60.0]) is nan but min([60.0, nan]) is 60.0: every value is checked on its own
        distances = [50.0, 60.0, 70.0, 80.0]
        distances[position] = bad
        corners = [(0.0, 0.0), (100.0, 0.0), (0.0, 100.0), (100.0, 100.0)]
        frame = AnchorFrame([Anchor(i, x, y) for i, (x, y) in enumerate(corners, 1)])
        with pytest.raises(ValueError, match="finite and non-negative"):
            frame.solve(distances)

    @pytest.mark.parametrize("distances", [[1e200] * 4, [1e160, 1e160, 1e160, 1e155]])
    def test_distances_that_overflow_the_solution_rejected(self, distances):
        # each distance is finite, but its square overflows b: it solved to (nan, nan) with no error
        with pytest.raises(ValueError, match="overflow the solution"):
            AnchorFrame(square_anchors()).solve(distances)

    def test_large_finite_distances_still_solve(self):
        x, y, residual, _ = AnchorFrame(square_anchors()).solve([1e150] * 4)
        assert (x, y, residual) == (0.0, 0.0, 0.0)

    def test_duplicate_ids_rejected(self):
        anchors = square_anchors()
        anchors[3] = Anchor(1, 10.0, 10.0)
        with pytest.raises(ValueError):
            AnchorFrame(anchors)


class TestSolveLsq:
    def test_exact_square_solution(self):
        x, y, residual, condition = AnchorFrame(square_anchors()).solve([math.sqrt(50)] * 4)
        np.testing.assert_allclose([x, y], [5.0, 5.0], atol=1e-12)
        assert residual == pytest.approx(0.0, abs=1e-10)
        assert condition >= 1.0

    def test_zero_rhs(self):
        # ranges 5, 13 and 17 from the first anchor: b is exactly 0
        anchors = [Anchor(0, 0.0, 0.0), Anchor(1, 3.0, 4.0), Anchor(2, -5.0, 12.0), Anchor(3, 8.0, -15.0)]
        x, y, residual, _ = AnchorFrame(anchors).solve([0.0, 5.0, 13.0, 17.0])
        assert [x, y] == [0.0, 0.0]
        assert residual == 0.0

    def test_collinear_anchors_raise_when_the_frame_is_built(self):
        anchors = [Anchor(i, float(i * 10), 0.0) for i in range(1, 5)]
        # one line naming the bands and the reason, with no comma: it is also an eval grid note
        with pytest.raises(DegenerateGeometryError,
                           match=r"^anchor frame of bands 1 2 3 4 is degenerate: geometry is rank deficient$"):
            AnchorFrame(anchors)

    @pytest.mark.parametrize("anchors", [
        # the rows' differences overflow: rows (inf, 0), (inf, -inf), (inf, inf) and a NaN condition estimate
        [(1e308, 0.0), (-1e308, 0.0), (0.0, 1e308), (0.0, -1e308)],
        # finite rows and condition estimate, but each c_j = x1^2 - xj^2 + y1^2 - yj^2 is inf - inf
        [(1e160, 0.0), (-1e160, 0.0), (0.0, 1e160), (0.0, -1e160)],
    ])
    def test_anchors_that_overflow_the_system_are_degenerate(self, anchors):
        # both once solved to (nan, nan, nan, nan) with no error
        with pytest.raises(DegenerateGeometryError, match="^anchor frame of bands 0 1 2 3 is degenerate: .*overflow"):
            AnchorFrame([Anchor(i, x, y) for i, (x, y) in enumerate(anchors)])

    def test_condition_cap(self):
        with pytest.raises(DegenerateGeometryError, match=r"is degenerate: condition estimate \S+ exceeds cap 1e\+08$"):
            frame_of_rows([[1.0, 0.0], [0.0, 1e-9], [1.0, 1e-9]])

    def test_condition_under_the_cap_solves(self):
        # a condition estimate near 1e6 once failed a test-only cap of 1e6; the fixed cap is 1e8
        (x, y, _, condition), _ = solve_rows([[1.0, 0.0], [0.0, 1e-6], [1.0, 1e-6]], [2.0, 3e-6, 2.0 + 3e-6])
        assert 1e6 < condition < CONDITION_CAP
        np.testing.assert_allclose([x, y], [2.0, 3.0], rtol=1e-6)

    def test_normal_equations_residual_contract(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            a = rng.normal(size=(rng.integers(3, 8), 2)) * 100
            b = rng.normal(size=a.shape[0]) * 100
            try:
                (x, y, _, _), b = solve_rows(a.tolist(), b.tolist())
            except DegenerateGeometryError:
                continue
            lhs = np.linalg.norm(a.T @ (a @ [x, y] - b))
            rhs = np.linalg.norm(a.T @ b)
            assert lhs <= 1e-6 * max(rhs, 1e-30)


class TestFixPosition:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            anchors = [Anchor(i, *rng.uniform(-500, 500, 2)) for i in range(1, 6)]
            point = rng.uniform(-500, 500, 2)
            frame = AnchorFrame(anchors)
            if np.linalg.cond(np.array(frame.rows)) > 1e6:
                continue
            x, y, _, _ = frame.solve(ranges_from(anchors, point))
            assert math.hypot(x - point[0], y - point[1]) < 1e-6

    def test_inflated_range_beats_brute_force_grid(self):
        # independent oracle: evaluate the least-squares objective on a 1 m
        # lattice, building A and b by the printed algebra right here
        anchors = [(0.0, 0.0), (100.0, 0.0), (0.0, 100.0), (100.0, 100.0)]
        point = (42.0, 31.0)
        distances = [math.hypot(ax - point[0], ay - point[1]) for ax, ay in anchors]
        distances[2] *= 1.10

        rows, rhs = [], []
        x1, y1 = anchors[0]
        d1 = distances[0]
        for (xj, yj), dj in list(zip(anchors, distances))[1:]:
            rows.append([2 * (x1 - xj), 2 * (y1 - yj)])
            rhs.append(x1**2 - xj**2 + y1**2 - yj**2 + dj**2 - d1**2)
        a_oracle = np.array(rows)
        b_oracle = np.array(rhs)

        x, y, residual, _ = AnchorFrame([Anchor(i, *p) for i, p in enumerate(anchors, 1)]).solve(distances)
        assert residual > 0.0
        assert math.hypot(x - point[0], y - point[1]) > 1e-6

        gx, gy = np.meshgrid(
            np.arange(point[0] - 50.0, point[0] + 50.0 + 1e-9, 1.0),
            np.arange(point[1] - 50.0, point[1] + 50.0 + 1e-9, 1.0),
        )
        lattice = np.stack([gx.ravel(), gy.ravel()], axis=1)
        objective = np.sum((lattice @ a_oracle.T - b_oracle) ** 2, axis=1)
        fix_objective = np.sum((a_oracle @ np.array([x, y]) - b_oracle) ** 2)
        assert fix_objective <= objective.min() + 1e-9

    def test_three_anchors_rejected(self):
        with pytest.raises(InsufficientAnchorsError):
            AnchorFrame(square_anchors()[:3]).solve([1.0, 2.0, 3.0])


class TestProperties:
    def test_optimality_against_random_perturbations(self):
        rng = np.random.default_rng(23)
        anchors = [Anchor(i, *rng.uniform(-300, 300, 2)) for i in range(1, 7)]
        point = np.array([40.0, -25.0])
        distances = [d * f for d, f in zip(ranges_from(anchors, point), rng.uniform(0.9, 1.1, 6))]
        frame = AnchorFrame(anchors)
        a, b = np.array(frame.rows), np.array([row[2] for row in reference_linear_rows(anchors, distances)])
        x, y, _, _ = frame.solve(distances)
        solution = np.array([x, y])
        base = np.sum((a @ solution - b) ** 2)
        for _ in range(1000):
            delta = rng.normal(size=2)
            delta *= rng.uniform(0.001, 100.0) / np.linalg.norm(delta)
            assert base <= np.sum((a @ (solution + delta) - b) ** 2) + 1e-9

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(31)
        anchors = [Anchor(i, *rng.uniform(-200, 200, 2)) for i in range(1, 6)]
        point = np.array([55.0, -80.0])
        distances = ranges_from(anchors, point)
        theta = 0.7
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])

        x, y, _, _ = AnchorFrame(anchors).solve(distances)
        rotated = [Anchor(a.band_id, *(rot @ [a.x, a.y])) for a in anchors]
        x_rot, y_rot, _, _ = AnchorFrame(rotated).solve(distances)
        np.testing.assert_allclose(rot @ [x, y], [x_rot, y_rot], atol=1e-9)

    def test_bit_identical_repeats(self):
        distances = [7.2, 8.1, 6.6, 9.9]
        assert AnchorFrame(square_anchors()).solve(distances) == AnchorFrame(square_anchors()).solve(distances)


class TestGivensKernel:
    def test_agrees_with_svd_reference(self):
        rng = np.random.default_rng(51)
        checked = near_collinear = 0
        for i in range(600):
            m = int(rng.integers(3, 9))
            a = rng.normal(size=(m, 2)) * 10 ** rng.uniform(-2, 3)
            if i % 2:
                a[:, 1] = a[:, 0] * rng.normal() + a[:, 1] * 10 ** rng.uniform(-6, -2)
            b = rng.normal(size=m) * 100
            if svd_reference(a, b)[1] > 1e6:
                continue
            (x, y, residual, condition), b = solve_rows(a.tolist(), b.tolist())
            ref_position, ref_condition = svd_reference(a, b)
            assert abs(condition - ref_condition) <= 1e-9 * ref_condition
            error = np.linalg.norm([x, y] - ref_position)
            assert error <= 1e-12 * ref_condition * np.linalg.norm(ref_position)
            assert residual == pytest.approx(np.linalg.norm(a @ ref_position - b), rel=1e-9)
            checked += 1
            near_collinear += ref_condition > 1e3
        assert checked >= 500 and near_collinear >= 150

    @pytest.mark.parametrize(
        "f, g, h",
        [
            (1.0, 5.0, 0.5),  # |g| >= max(|f|, |h|)
            (-2.0, 2.0, 1e-7),
            (0.5, -3.0, -2.0),
            (4.0, 1.0, 2.0),  # |g| < max(|f|, |h|)
            (1e-3, 0.7, 1.0),
            (3.0, 0.0, 2.0),  # g = 0
            (-2.0, 0.0, 3.0),
            (0.0, 2.0, 3.0),  # f = 0
            (3.0, 2.0, 0.0),  # h = 0
            (0.0, -2.0, 0.0),
            (0.0, 0.0, 0.0),
        ],
    )
    def test_dlas2_branches_match_svd(self, f, g, h):
        sigma_max, sigma_min = _triangular_singular_values(f, g, h)
        ref_max, ref_min = np.linalg.svd(np.array([[f, g], [0.0, h]]), compute_uv=False)
        assert sigma_max == pytest.approx(ref_max, rel=1e-14, abs=0.0)
        if f == 0.0 or h == 0.0:
            assert sigma_min == 0.0
            assert ref_min <= 1e-15 * ref_max
        else:
            # the closed form keeps a tiny sigma_min to relative precision
            assert sigma_min == pytest.approx(abs(f * h) / ref_max, rel=1e-14)
            assert sigma_min == pytest.approx(ref_min, rel=1e-8)

    @pytest.mark.parametrize(
        "points",
        [
            [(10.0, 0.0), (20.0, 0.0), (30.0, 0.0), (40.0, 0.0)],  # collinear
            [(5.0, 5.0)] * 4,  # coincident
            [(0.0, 0.0), (3.0, 4.0), (6.0, 8.0), (-3.0, -4.0), (9.0, 12.0)],  # collinear, diagonal
        ],
    )
    def test_degenerate_anchors_raise(self, points):
        anchors = [Anchor(i, x, y) for i, (x, y) in enumerate(points, 1)]
        with pytest.raises(DegenerateGeometryError):
            AnchorFrame(anchors)

    @pytest.mark.parametrize("column", [0, 1])
    def test_zero_column_raises(self, column):
        a = np.arange(1.0, 9.0).reshape(4, 2)
        a[:, column] = 0.0
        with pytest.raises(DegenerateGeometryError):
            frame_of_rows(a.tolist())

    def test_zero_rhs_gives_exact_zeros(self):
        rng = np.random.default_rng(52)
        solved = 0
        for _ in range(50):
            anchors, distances = pythagorean_anchors(rng, int(rng.integers(4, 10)))
            try:
                frame = AnchorFrame(anchors)
            except DegenerateGeometryError:
                continue
            assert not any(row[2] for row in reference_linear_rows(anchors, distances))
            x, y, residual, _ = frame.solve(distances)
            assert [x, y] == [0.0, 0.0]
            assert residual == 0.0
            solved += 1
        assert solved >= 40

    def test_non_finite_matrix_rejected(self):
        # A is built from anchor coordinates, which are checked where they enter
        with pytest.raises(ValueError, match="finite"):
            frame_of_rows([[1.0, 0.0], [0.0, math.nan], [1.0, 1.0]])


class TestAnchorFrameReference:
    def random_case(self, rng, i):
        m = int(rng.integers(4, 9))
        points = rng.uniform(-500, 500, size=(m, 2)) * 10 ** rng.uniform(-3, 2)
        kind = i % 5
        if kind == 1:  # coincident anchors: a zero row, or two equal rows
            j = int(rng.integers(1, m))
            points[j] = points[0] if rng.random() < 0.5 else points[int(rng.integers(1, m))]
        elif kind == 2:  # collinear, exactly or up to rounding
            t = rng.uniform(-1, 1, size=m)
            points = np.outer(t, rng.normal(size=2)) * 300 + rng.normal(size=2) * 100
        elif kind == 3:  # near-collinear, around the cap
            t = rng.uniform(-1, 1, size=m)
            points = np.outer(t, rng.normal(size=2)) * 300 + rng.normal(size=(m, 2)) * 10 ** rng.uniform(-7, -1)
        elif kind == 4 and i % 2:  # exactly rank deficient: one coordinate shared
            points[:, int(rng.integers(0, 2))] = points[0, 0]
        anchors = [Anchor(k, float(x), float(y)) for k, (x, y) in enumerate(points)]
        distances = (rng.uniform(0, 800, size=m) * 10 ** rng.uniform(-3, 1)).tolist()
        if i % 7 == 0:
            distances[int(rng.integers(0, m))] = 0.0
        return anchors, distances

    def test_solve_equals_reference_bit_for_bit(self):
        rng = np.random.default_rng(71)
        seen = {"solved": 0, "rank deficient": 0, "exceeds cap": 0, "zero row": 0}
        for i in range(800):
            anchors, distances = self.random_case(rng, i)
            expected = outcome(lambda: reference_solve_rows(reference_linear_rows(anchors, distances)))
            try:
                frame = AnchorFrame(anchors)
            except DegenerateGeometryError as exc:  # a degenerate frame is never built
                got = type(exc), str(exc)
            else:
                got = outcome(lambda: frame.solve(distances))
                assert repr(outcome(lambda: frame.solve(distances))) == repr(got)  # stateless
            # repr compares floats bit for bit, and exception types and messages
            assert repr(got) == repr(expected), (i, anchors, distances)
            if isinstance(expected[0], type):
                seen["rank deficient" if "rank" in expected[1] else "exceeds cap"] += 1
            else:
                seen["solved"] += 1
            seen["zero row"] += any(a.x == anchors[0].x and a.y == anchors[0].y for a in anchors[1:])
        assert seen["solved"] >= 300 and min(seen.values()) >= 40, seen

    @pytest.mark.parametrize("anchors", [square_anchors(), [Anchor(i, i * 10.0, 0.0) for i in range(1, 5)]],
                             ids=["square", "collinear"])
    def test_distance_checks_match_reference(self, anchors):
        # a degenerate frame is reported when it is built, before any distance is checked
        for distances in ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0, -0.5], [math.nan, 2.0, 3.0, 4.0],
                          [1.0, 2.0, 3.0, math.inf], [1.0] * 5):
            expected = outcome(lambda: reference_linear_rows(anchors, distances))
            assert repr(outcome(lambda: AnchorFrame(anchors).solve(distances))) == repr(expected)

    def test_anchor_checks_at_construction(self):
        with pytest.raises(InsufficientAnchorsError):
            AnchorFrame(square_anchors()[:3])
        anchors = square_anchors()
        anchors[3] = Anchor(1, 10.0, 10.0)
        with pytest.raises(ValueError, match="unique"):
            AnchorFrame(anchors)
