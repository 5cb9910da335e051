import gc
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from obblab import geometry
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
    _ORACLE_BLOCK,
    _box_frame,
    _clip_polygon,
    _clip_rows,
    _corners,
    _inside_mask,
    _iou,
    _ious_between,
    _merge_close,
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

    def test_tiny_quad_far_from_origin_keeps_its_area(self):
        box = normalize_obb(
            1522.1612486779309, 3538.8749814217604, 3.6637828656972564e-07, 1.3644244468897006e-07, -1.4176458154492648
        )
        area = obb_to_polygon(box).area
        assert area > 0.0
        assert area == pytest.approx(box.w * box.h, rel=1e-6)


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

    def test_corner_a_hair_from_a_crossing_is_kept(self):
        # clipping the square by the box puts a crossing 1e-9 px from the
        # square's corner (20, -12); that corner still bounds a 1e-9 x 32
        # sliver, so both clipping orders give the exact 16.0000000005 x 32
        box = obb_to_polygon(normalize_obb(19.999999999, 4.0, 32.0, 31.999999999, math.pi / 2))
        square = obb_to_polygon(normalize_obb(4.0, 4.0, 32.0, 32.0, 0.0))
        exact = (20.0 - 3.9999999995) * 32.0
        assert polygon_intersection_area(box, square) == pytest.approx(exact, rel=1e-15)
        assert polygon_intersection_area(square, box) == pytest.approx(exact, rel=1e-15)

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

    @pytest.mark.parametrize("samples", [1, 8191, 8192, 8193, 1_000_000, 1_000_001, 2_500_000])
    def test_streamed_draws_equal_the_all_at_once_form(self, samples):
        a = normalize_obb(0, 0, 10, 4, 0.3)
        b = normalize_obb(2, 1, 7, 5, -0.4)
        for seed in (0, 7):
            assert _bits(mc_iou_oracle(a, b, samples, seed)) == _bits(reference_mc_iou_oracle(a, b, samples, seed))

    def test_streamed_samples_are_the_all_at_once_draws(self):
        a = normalize_obb(0, 0, 10, 4, 0.3)
        b = normalize_obb(2, 1, 7, 5, -0.4)
        seen = []

        def spy(frame, x, y):
            if frame == _box_frame(a):
                seen.append((x.copy(), y.copy()))
            return _inside_mask(frame, x, y)

        with mock.patch.object(geometry, "_inside_mask", spy):
            mc_iou_oracle(a, b, 1_000_003, 11)
        corners = np.array(_corners(_box_frame(a)) + _corners(_box_frame(b)))
        lo, hi = corners.min(axis=0), corners.max(axis=0)
        rng = np.random.default_rng(11)
        want = []
        for n in (1_000_000, 3):
            want.append((rng.uniform(lo[0], hi[0], n), rng.uniform(lo[1], hi[1], n)))
        for axis in (0, 1):
            got = np.concatenate([pair[axis] for pair in seen])
            assert np.array_equal(got.view(np.int64), np.concatenate([pair[axis] for pair in want]).view(np.int64))

    def test_working_memory_does_not_grow_with_the_samples(self):
        a = normalize_obb(0, 0, 10, 4, 0.3)
        b = normalize_obb(2, 1, 7, 5, -0.4)
        tracemalloc.start()
        try:
            mc_iou_oracle(a, b, 1_000_000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6  # the samples alone are 16 MB

    def test_leaves_no_garbage_cycles(self):
        a = normalize_obb(0, 0, 10, 4, 0.3)
        b = normalize_obb(2, 1, 7, 5, -0.4)
        gc.collect()
        gc.disable()
        try:
            mc_iou_oracle(a, b, 20_000, 1)
            assert gc.collect() == 0
        finally:
            gc.enable()


def _bits(value):
    return np.float64(value).view(np.int64)


# mc_iou_oracle as it stood before it streamed its draws, drawing each batch
# of up to 10**6 samples at once: the oracle of the streamed form.
def reference_mc_iou_oracle(a, b, samples, seed):
    frame_a, frame_b = _box_frame(a), _box_frame(b)
    corners = np.array(_corners(frame_a) + _corners(frame_b))
    lo = corners.min(axis=0)
    hi = corners.max(axis=0)
    rng = np.random.default_rng(seed)
    inter_hits = 0
    union_hits = 0
    remaining = samples
    while remaining > 0:
        n = min(remaining, 1_000_000)
        x = rng.uniform(lo[0], hi[0], n)
        y = rng.uniform(lo[1], hi[1], n)
        for start in range(0, n, _ORACLE_BLOCK):
            block = slice(start, start + _ORACLE_BLOCK)
            in_a = _inside_mask(frame_a, x[block], y[block])
            in_b = _inside_mask(frame_b, x[block], y[block])
            inter_hits += int(np.count_nonzero(in_a & in_b))
            union_hits += int(np.count_nonzero(in_a | in_b))
        remaining -= n
    if union_hits == 0:
        return 0.0
    return inter_hits / union_hits


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

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
    def test_normalize_angle_rejects_non_finite(self, theta):
        with pytest.raises(ValueError, match="angle must be finite"):
            normalize_angle(theta)


def as_bits(values) -> np.ndarray:
    """Float bits, so that equality also compares the sign of zero."""
    return np.asarray(values, dtype=float).reshape(-1).view(np.int64)


def frame_columns(boxes) -> np.ndarray:
    """The `_box_frame` of each box, as six columns of one box per row."""
    return np.array([_box_frame(b) for b in boxes]).reshape(-1, 6).T


def square_ious(boxes, owner, centers, sides):
    """`_ious_between` of boxes[owner[i]] against the axis-aligned square of
    center centers[i] and side sides[i], as the assignment passes anchors."""
    half = 0.5 * sides
    squares = (centers[:, 0], centers[:, 1], math.cos(0.0), math.sin(0.0), half, half)
    areas = np.array([b.area for b in boxes])
    return _ious_between(frame_columns(boxes)[:, owner], areas[owner], squares, sides * sides)


def batched_clip(subjects, clip):
    """`_clip_polygon(subject, clip)` of each subject, through `_clip_rows`."""
    n = len(subjects)
    count = np.array([len(poly) for poly in subjects])
    src = np.zeros((2, int(count.max()) + 2, n))
    for row, poly in enumerate(subjects):
        src[:, 1 : len(poly) + 1, row] = np.array(poly).T
        src[:, 0, row] = poly[-1]
    dst = np.zeros_like(src)
    start = clip[-1]
    for end in clip:
        dst, count = _clip_rows(src, dst, count, *((np.full(n, p[0]), np.full(n, p[1])) for p in (start, end)))
        src, dst = dst, src
        start = end
    return [src[:, 1 : c + 1, row].T.tolist() for row, c in enumerate(count)]


@st.composite
def box_pairs(draw):
    """Two rotated boxes: drawn freely, sharing a center, or the second a
    box of 1e-6 px on a corner of the first, exactly or jittered."""
    a = draw(BOXES)
    kind = draw(st.sampled_from(["free", "shared-center", "tiny-on-corner"]))
    if kind == "free":
        return a, draw(BOXES)
    if kind == "shared-center":
        b = draw(BOXES)
        return a, normalize_obb(a.cx, a.cy, b.w, b.h, b.theta)
    x, y = (v + draw(st.sampled_from([0.0, 1e-9, -5e-7])) for v in _corners(_box_frame(a))[draw(st.integers(0, 3))])
    return a, normalize_obb(x, y, draw(st.floats(1e-6, 2e-6)), 1e-6, draw(st.floats(-4, 4)))


class TestBatchedClipping:
    """The clipping kernel against the scalar clipper, bit for bit."""

    @given(pairs=st.lists(box_pairs(), min_size=1, max_size=6))
    @example(pairs=[(normalize_obb(3, 4, 10, 2, 0.3), normalize_obb(3, 4, 10, 2, 0.3))])
    @settings(max_examples=300, deadline=None)
    def test_rotated_pairs_match_scalar_in_both_orders(self, pairs):
        rows = pairs + [(b, a) for a, b in pairs]
        subjects, clips = zip(*rows)
        areas = [np.array([box.area for box in boxes]) for boxes in (subjects, clips)]
        got = _ious_between(frame_columns(subjects), areas[0], frame_columns(clips), areas[1])
        assert np.array_equal(as_bits(got), as_bits([_iou(a, b) for a, b in rows]))

    def test_rows_in_any_owner_order(self):
        boxes = [normalize_obb(10, 12, 30, 9, 0.4), normalize_obb(40, 35, 20, 20, 0.1)]
        owner = np.array([1, 0, 0, 1, 1, 0])
        centers = np.array([[36.0, 36.0], [4.0, 4.0], [12.0, 12.0], [44.0, 28.0], [200.0, 200.0], [12.0, 12.0]])
        sides = np.array([32.0, 32.0, 16.0, 32.0, 32.0, 64.0])
        got = square_ious(boxes, owner, centers, sides)
        want = [
            _iou(boxes[g], OrientedBox(cx, cy, side, side, 0.0))
            for g, (cx, cy), side in zip(owner.tolist(), centers.tolist(), sides.tolist())
        ]
        assert np.array_equal(as_bits(got), as_bits(want))

    @given(pairs=st.lists(box_pairs(), min_size=1, max_size=8), block=st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_rows_clipped_in_blocks_match_scalar(self, pairs, block):
        subjects, clips = zip(*pairs)
        areas = [np.array([box.area for box in boxes]) for boxes in (subjects, clips)]
        with mock.patch.object(geometry, "_CLIP_BLOCK_ROWS", block):
            got = _ious_between(frame_columns(subjects), areas[0], frame_columns(clips), areas[1])
        assert np.array_equal(as_bits(got), as_bits([_iou(a, b) for a, b in pairs]))

    def test_squares_clipped_in_blocks_match_scalar(self):
        # six rows in blocks of four and two; the squares' cos and sin are
        # floats shared by every row
        with mock.patch.object(geometry, "_CLIP_BLOCK_ROWS", 4):
            self.test_rows_in_any_owner_order()

    def test_disjoint_rows_clip_to_nothing(self):
        boxes = [normalize_obb(0, 0, 4, 2, 0.3)]
        centers = np.array([[100.0, 0.0], [0.0, -50.0], [1e6, 1e6]])
        got = square_ious(boxes, np.zeros(3, dtype=int), centers, np.full(3, 8.0))
        assert np.array_equal(as_bits(got), as_bits([0.0, 0.0, 0.0]))

    def test_no_rows(self):
        got = square_ious([], np.zeros(0, dtype=int), np.zeros((0, 2)), np.zeros(0))
        assert got.shape == (0,)

    def test_last_vertex_repeating_the_first_is_popped(self):
        # the gt's last corner lies 1 ulp inside the square's right edge
        # x = 36 and its first corner beyond it: the crossing emitted first
        # lies within rounding of that corner, and the merge pops the corner
        # off the end, which changes the area's last bits
        box = OrientedBox(31.22464600690352, 20.0, 10.0, 4.0, -0.1)
        square = OrientedBox(20.0, 20.0, 32.0, 32.0, 0.0)
        clipped = _clip_polygon(_corners(_box_frame(box)), _corners(_box_frame(square)))
        merged = _merge_close(clipped)
        assert merged == clipped[:-1] and clipped[0] != clipped[-1]
        assert signed_area(merged) != signed_area(clipped)
        got = square_ious([box], np.zeros(1, dtype=int), np.array([[20.0, 20.0]]), np.array([32.0]))
        assert np.array_equal(as_bits(got), as_bits([_iou(box, square)]))

    def test_parallel_crossing_with_zero_denominator(self):
        # s -> p changes side of the edge (-1, -1) -> (1, 1) by rounding but
        # runs parallel to it, so denom == 0 and the crossing is skipped
        s = (-0.6322247779815038, -0.6322247779815037)
        p = (0.7018840002969372, 0.7018840002969371)
        clip = [(-1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
        (ex, ey), (cx1, cy1) = (2.0, 2.0), clip[0]
        assert (ex * (s[1] - cy1) - ey * (s[0] - cx1) >= 0.0) != (ex * (p[1] - cy1) - ey * (p[0] - cx1) >= 0.0)
        assert ex * (p[1] - s[1]) - ey * (p[0] - s[0]) == 0.0
        subject = [s, p, (-0.5, 0.5)]
        want = _clip_polygon(subject, clip)
        assert len(want) == 3
        got = batched_clip([subject, subject[::-1]], clip)
        assert np.array_equal(as_bits(got[0]), as_bits(want))
        assert np.array_equal(as_bits(got[1]), as_bits(_clip_polygon(subject[::-1], clip)))

    def test_buffer_widens_for_zigzag_polygons(self):
        # a zigzag crosses each edge of the square many times, so the clipped
        # polygon outgrows the slots a convex quad needs
        zigzag = [(-2.0 + 4.0 * (i % 2), 0.25 * i - 1.0) for i in range(9)]
        clip = [(1.0, -1.0), (1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0)]
        want = _clip_polygon(zigzag, clip)
        assert len(want) > len(zigzag) + 2
        got = batched_clip([zigzag, zigzag[:4]], clip)
        assert np.array_equal(as_bits(got[0]), as_bits(want))
        assert np.array_equal(as_bits(got[1]), as_bits(_clip_polygon(zigzag[:4], clip)))

    @given(
        polygons=st.lists(
            st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3)), min_size=1, max_size=8), min_size=1, max_size=6
        ),
        clip_box=BOXES,
    )
    @settings(max_examples=200, deadline=None)
    def test_clip_pass_matches_scalar_on_any_polygons(self, polygons, clip_box):
        clip = obb_to_polygon(clip_box).vertices.tolist()
        got = batched_clip(polygons, clip)
        for poly, rows in zip(polygons, got):
            assert np.array_equal(as_bits(rows), as_bits(_clip_polygon(poly, clip)))
