import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obblab.geometry import (
    ConvexQuad,
    DegenerateQuadError,
    OrientedBox,
    aspect_ratio,
    center_distance,
    contains_points,
    mc_iou_oracle,
    normalize_angle,
    normalize_obb,
    obb_to_polygon,
    polygon_intersection_area,
    quad_to_obb,
    rotated_iou,
    signed_area,
)

QP = math.pi / 4.0

# Boxes 1e-6 to 40 px on a side, close enough to overlap often.
BOXES = st.builds(normalize_obb, st.floats(-20, 20), st.floats(-20, 20), st.floats(1e-6, 40), st.floats(1e-6, 40), st.floats(-4, 4))


def random_box(rng, span=50.0):
    return normalize_obb(
        rng.uniform(-span, span),
        rng.uniform(-span, span),
        rng.uniform(1.0, 30.0),
        rng.uniform(1.0, 30.0),
        rng.uniform(-math.pi, math.pi),
    )


def boxes_equivalent(a, b, tol=1e-9):
    return (
        abs(a.cx - b.cx) <= tol
        and abs(a.cy - b.cy) <= tol
        and abs(a.w - b.w) <= tol
        and abs(a.h - b.h) <= tol
        and min(abs(a.theta - b.theta), math.pi - abs(a.theta - b.theta)) <= tol
    )


class TestNormalizeObb:
    def test_swaps_short_long_edges(self):
        box = normalize_obb(0, 0, 4, 10, 0)
        assert (box.cx, box.cy, box.w, box.h) == (0, 0, 10, 4)
        assert box.theta == pytest.approx(math.pi / 2)

    def test_already_normalized_is_identity(self):
        box = normalize_obb(0, 0, 10, 4, QP)
        assert (box.w, box.h, box.theta) == (10, 4, QP)

    def test_angle_reduced_mod_pi(self):
        box = normalize_obb(0, 0, 10, 4, 5 * QP)
        assert box.theta == pytest.approx(QP)

    def test_square_angle_reduced_mod_half_pi(self):
        box = normalize_obb(0, 0, 2, 2, math.pi / 2)
        assert -QP <= box.theta < QP

    @pytest.mark.parametrize("bad", [(0, 0, -1, 1, 0), (0, 0, 1, 0, 0), (0, 0, math.nan, 1, 0), (0, 0, 1, 1, math.inf)])
    def test_rejects_bad_inputs(self, bad):
        with pytest.raises(ValueError):
            normalize_obb(*bad)

    @pytest.mark.parametrize("w, h", [(1, 1), (2, 1)])
    def test_angle_just_below_lower_bound_wraps(self, w, h):
        # theta + pi/4 rounds up to a whole period, onto the excluded bound
        assert normalize_obb(0, 0, w, h, -0.7853981633974484).theta == -QP

    @given(
        cx=st.floats(allow_nan=False, allow_infinity=False),
        cy=st.floats(allow_nan=False, allow_infinity=False),
        w=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        h=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        theta=st.floats(allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=500)
    def test_accepts_every_finite_positive_input(self, cx, cy, w, h, theta):
        box = normalize_obb(cx, cy, w, h, theta)
        assert (box.w, box.h) == (max(w, h), min(w, h))

    @given(
        w=st.floats(0.1, 100),
        h=st.floats(0.1, 100),
        theta=st.floats(-10, 10),
    )
    @settings(max_examples=300)
    def test_idempotent_and_area_preserving(self, w, h, theta):
        box = normalize_obb(1.5, -2.5, w, h, theta)
        again = normalize_obb(box.cx, box.cy, box.w, box.h, box.theta)
        assert again == box
        assert box.w * box.h == pytest.approx(w * h, rel=1e-12)
        assert -QP <= box.theta < 3 * QP

    def test_direct_construction_validates_invariants(self):
        with pytest.raises(ValueError):
            OrientedBox(0, 0, 4, 10, 0)
        with pytest.raises(ValueError):
            OrientedBox(0, 0, 10, 4, math.pi)


class TestPolygonConversion:
    def test_unit_square(self):
        quad = obb_to_polygon(normalize_obb(0, 0, 2, 2, 0))
        assert sorted(map(tuple, quad.vertices.tolist())) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]

    def test_axis_aligned_rectangle(self):
        quad = obb_to_polygon(normalize_obb(5, 5, 4, 2, 0))
        assert sorted(map(tuple, quad.vertices.tolist())) == [(3, 4), (3, 6), (7, 4), (7, 6)]

    def test_rotated_square(self):
        quad = obb_to_polygon(normalize_obb(0, 0, 2, 2, QP))
        r2 = math.sqrt(2)
        expected = np.array([(r2, 0), (0, r2), (-r2, 0), (0, -r2)])
        got = quad.vertices[np.lexsort(quad.vertices.T)]
        want = expected[np.lexsort(expected.T)]
        assert got == pytest.approx(want, abs=1e-12)

    def test_centroid_and_edge_lengths(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            box = random_box(rng)
            quad = obb_to_polygon(box)
            assert quad.vertices.mean(axis=0) == pytest.approx([box.cx, box.cy])
            edges = np.linalg.norm(np.roll(quad.vertices, -1, axis=0) - quad.vertices, axis=1)
            assert sorted(edges) == pytest.approx(sorted([box.w, box.w, box.h, box.h]))
            assert signed_area(quad.vertices) == pytest.approx(box.area)

    def test_tiny_quad_far_from_origin_orients(self):
        # Its shoelace sum is dominated by rounding; the turn signs are not.
        box = normalize_obb(1522.1612486779309, 3538.8749814217604, 3.66e-07, 1.36e-07, -1.4176458154492648)
        corners = obb_to_polygon(box).vertices
        reversed_quad = ConvexQuad.from_points(corners[::-1])
        assert np.array_equal(reversed_quad.vertices, corners)


class TestQuadToObb:
    def test_rectangle_round_trip(self):
        quad = ConvexQuad.from_points([(3, 4), (7, 4), (7, 6), (3, 6)])
        box = quad_to_obb(quad)
        assert boxes_equivalent(box, normalize_obb(5, 5, 4, 2, 0))

    def test_rotated_square(self):
        quad = ConvexQuad.from_points([(1, 0), (0, 1), (-1, 0), (0, -1)])
        box = quad_to_obb(quad)
        r2 = math.sqrt(2)
        assert (box.cx, box.cy) == pytest.approx((0, 0), abs=1e-12)
        assert (box.w, box.h) == pytest.approx((r2, r2))
        assert -QP <= box.theta < QP

    def test_exact_round_trip_for_random_rectangles(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            box = random_box(rng)
            back = quad_to_obb(obb_to_polygon(box))
            assert boxes_equivalent(back, box, tol=1e-9)

    def test_degenerate_quad_rejected(self):
        with pytest.raises(DegenerateQuadError):
            ConvexQuad.from_points([(0, 0), (1, 1), (2, 2), (3, 3)])

    def test_clockwise_and_shuffled_input_accepted(self):
        cw = ConvexQuad.from_points([(3, 6), (7, 6), (7, 4), (3, 4)])
        assert signed_area(cw.vertices) > 0
        shuffled = ConvexQuad.from_points([(3, 4), (7, 6), (7, 4), (3, 6)])
        assert signed_area(shuffled.vertices) > 0
        assert boxes_equivalent(quad_to_obb(shuffled), normalize_obb(5, 5, 4, 2, 0))

    def test_min_area_against_angle_sweep_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            pts = rng.uniform(-10, 10, size=(4, 2))
            try:
                quad = ConvexQuad.from_points(pts)
            except DegenerateQuadError:
                continue
            box = quad_to_obb(quad)
            # brute force: enclosing rectangle area over 3600 orientations
            angles = np.linspace(0, math.pi / 2, 3600, endpoint=False)
            cos, sin = np.cos(angles), np.sin(angles)
            xs = quad.vertices[:, 0]
            ys = quad.vertices[:, 1]
            u = np.outer(cos, xs) + np.outer(sin, ys)
            v = -np.outer(sin, xs) + np.outer(cos, ys)
            sweep_min = np.min((u.max(1) - u.min(1)) * (v.max(1) - v.min(1)))
            assert box.area <= sweep_min + 1e-9
            # encloses all vertices, and no bigger than the axis-aligned box
            assert contains_points(box, quad.vertices, atol=1e-9).all()
            aabb_area = (xs.max() - xs.min()) * (ys.max() - ys.min())
            assert box.area <= aabb_area + 1e-9


class TestIntersectionArea:
    def test_identical_unit_squares(self):
        sq = obb_to_polygon(normalize_obb(0, 0, 1, 1, 0))
        assert polygon_intersection_area(sq, sq) == pytest.approx(1.0)

    def test_disjoint_squares(self):
        a = obb_to_polygon(normalize_obb(0, 0, 1, 1, 0))
        b = obb_to_polygon(normalize_obb(5, 5, 1, 1, 0))
        assert polygon_intersection_area(a, b) == 0.0

    def test_octagon_case(self):
        a = obb_to_polygon(normalize_obb(0, 0, 1, 1, 0))
        b = obb_to_polygon(normalize_obb(0, 0, 1, 1, QP))
        assert polygon_intersection_area(a, b) == pytest.approx(2 * (math.sqrt(2) - 1), abs=1e-12)

    def test_symmetry_and_containment_bound(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            a, b = random_box(rng, 10), random_box(rng, 10)
            qa, qb = obb_to_polygon(a), obb_to_polygon(b)
            ab = polygon_intersection_area(qa, qb)
            ba = polygon_intersection_area(qb, qa)
            assert ab == pytest.approx(ba, abs=1e-9)
            assert ab <= min(a.area, b.area) + 1e-9

    def test_contained_quad_returns_inner_area(self):
        inner = obb_to_polygon(normalize_obb(0, 0, 1, 1, 0.3))
        outer = obb_to_polygon(normalize_obb(0, 0, 10, 10, 0))
        assert polygon_intersection_area(inner, outer) == pytest.approx(1.0)


class TestRotatedIou:
    def test_identical(self):
        box = normalize_obb(3, -2, 7, 3, 0.5)
        assert rotated_iou(box, box) == 1.0

    def test_rotated_square_pair(self):
        a = normalize_obb(0, 0, 1, 1, 0)
        b = normalize_obb(0, 0, 1, 1, QP)
        assert rotated_iou(a, b) == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_disjoint(self):
        assert rotated_iou(normalize_obb(0, 0, 2, 1, 0), normalize_obb(10, 10, 2, 1, 0)) == 0.0

    def test_symmetry_over_many_pairs(self):
        rng = np.random.default_rng(31)
        for _ in range(10_000):
            a, b = random_box(rng, 8), random_box(rng, 8)
            assert rotated_iou(a, b) == rotated_iou(b, a)

    @given(a=BOXES, b=BOXES, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_iou_and_oracle_lie_in_unit_interval(self, a, b, seed):
        for x, y in ((a, b), (a, a)):
            assert 0.0 <= rotated_iou(x, y) <= 1.0
            assert 0.0 <= mc_iou_oracle(x, y, 256, seed) <= 1.0

    def test_rigid_motion_equivariance(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            a, b = random_box(rng, 5), random_box(rng, 5)
            base = rotated_iou(a, b)
            dx, dy = rng.uniform(-100, 100, 2)
            rot = rng.uniform(-math.pi, math.pi)
            cos, sin = math.cos(rot), math.sin(rot)

            def moved(box):
                x = box.cx * cos - box.cy * sin + dx
                y = box.cx * sin + box.cy * cos + dy
                return normalize_obb(x, y, box.w, box.h, box.theta + rot)

            assert rotated_iou(moved(a), moved(b)) == pytest.approx(base, abs=1e-9)


class TestMcOracle:
    def test_identical_boxes_hit_exactly_one(self):
        box = normalize_obb(1, 2, 3, 2, 0.7)
        for seed in (0, 1, 99):
            assert mc_iou_oracle(box, box, 1000, seed) == 1.0

    def test_disjoint_boxes_zero(self):
        a = normalize_obb(0, 0, 2, 1, 0)
        b = normalize_obb(50, 50, 2, 1, 0)
        assert mc_iou_oracle(a, b, 1000, 3) == 0.0

    def test_rotated_square_pair_converges(self):
        a = normalize_obb(0, 0, 1, 1, 0)
        b = normalize_obb(0, 0, 1, 1, QP)
        estimate = mc_iou_oracle(a, b, 1_000_000, 12345)
        assert estimate == pytest.approx(1 / math.sqrt(2), abs=0.002)

    def test_deterministic_for_fixed_seed(self):
        a = normalize_obb(0, 0, 4, 2, 0.4)
        b = normalize_obb(1, 1, 3, 2, 1.1)
        assert mc_iou_oracle(a, b, 50_000, 7) == mc_iou_oracle(a, b, 50_000, 7)

    def test_agreement_with_exact_iou(self):
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 100:
            a = random_box(rng, 5)
            b = random_box(rng, 5)
            exact = rotated_iou(a, b)
            if exact == 0.0:
                continue
            approx = mc_iou_oracle(a, b, 100_000, int(rng.integers(1 << 31)))
            assert abs(exact - approx) <= 0.01
            checked += 1

    def test_requires_positive_samples(self):
        box = normalize_obb(0, 0, 1, 1, 0)
        with pytest.raises(ValueError):
            mc_iou_oracle(box, box, 0, 0)


class TestSmallOps:
    def test_center_distance_345(self):
        assert center_distance(normalize_obb(0, 0, 1, 1, 0), normalize_obb(3, 4, 1, 1, 0)) == 5.0
        assert center_distance(normalize_obb(1, 1, 1, 1, 0), normalize_obb(4, 5, 1, 1, 0)) == 5.0

    def test_center_distance_zero_iff_same_center(self):
        a = normalize_obb(2, 3, 4, 2, 0.2)
        b = normalize_obb(2, 3, 8, 1, 1.0)
        assert center_distance(a, b) == 0.0

    def test_aspect_ratio(self):
        assert aspect_ratio(normalize_obb(0, 0, 10, 4, 0)) == 2.5
        assert aspect_ratio(normalize_obb(0, 0, 3, 3, 0)) == 1.0
        assert aspect_ratio(normalize_obb(0, 0, 15, 10, 0.3)) == 1.5

    @given(theta=st.floats(-20, 20))
    @settings(max_examples=200)
    def test_normalize_angle_range(self, theta):
        out = normalize_angle(theta)
        assert -QP <= out < 3 * QP
