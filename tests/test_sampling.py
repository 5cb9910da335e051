import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from obblab.geometry import QUARTER_PI, OrientedBox, _box_frame, contains_points, normalize_obb
from obblab.sampling import (
    NUM_PATTERN_POINTS,
    REGULAR_TAPS,
    DcnOffsetField,
    FeatureGrid,
    bilinear_sample,
    dcn_offset_field,
    deformable_sample,
    initial_sampling_positions,
    refine_positions,
    sampling_pattern,
    shrink_obb,
)

QP = math.pi / 4.0


def scalar_bilinear_sample(grid, x, y, channel=0):
    """The scalar read that the vectorised kernel replaced, kept verbatim as
    the bit-identity oracle."""
    x0 = math.floor(x)
    y0 = math.floor(y)
    fx = x - x0
    fy = y - y0
    values = grid.values
    height, width = values.shape[0], values.shape[1]
    acc = 0.0
    for iy, wy in ((y0, 1.0 - fy), (y0 + 1, fy)):
        if wy == 0.0 or not 0 <= iy < height:
            continue
        for ix, wx in ((x0, 1.0 - fx), (x0 + 1, fx)):
            if wx == 0.0 or not 0 <= ix < width:
                continue
            acc += wy * wx * values[iy, ix, channel]
    return float(acc)


def scalar_deformable_sample(grid, weights, p0, field):
    """The scalar deformable sample that the vectorised kernel replaced,
    kept verbatim (reading through `scalar_bilinear_sample`) as the
    bit-identity oracle."""
    w = np.asarray(weights, dtype=float)
    if w.ndim == 2:
        w = np.repeat(w[:, :, None], grid.channels, axis=2)
    if w.shape != (3, 3, grid.channels):
        raise ValueError(f"kernel shape {w.shape} does not match 3x3x{grid.channels}")
    if field.offsets.shape != (len(REGULAR_TAPS), 2):
        raise ValueError("offset field must carry one offset per kernel tap")
    px, py = float(p0[0]), float(p0[1])
    acc = 0.0
    for i, (rx, ry) in enumerate(REGULAR_TAPS):
        ox, oy = field.offsets[i]
        sx = px + rx + ox
        sy = py + ry + oy
        for c in range(grid.channels):
            wt = w[ry + 1, rx + 1, c]
            if wt != 0.0:
                acc += wt * scalar_bilinear_sample(grid, sx, sy, c)
    return acc


def literal_initial_sampling_positions(box):
    """The literal-table pattern that the unit pattern replaced, kept
    verbatim as the bit-identity oracle."""
    cx, cy, c, s, hw, hh = _box_frame(box)
    local = np.array(
        [
            (0.0, 0.0),
            (hw, hh), (-hw, hh), (-hw, -hh), (hw, -hh),
            (hw, 0.0), (0.0, hh), (-hw, 0.0), (0.0, -hh),
        ]
    )
    rot = np.array([[c, -s], [s, c]])
    return local @ rot.T + np.array([cx, cy])


def assert_bit_identical(got, want):
    assert type(got) is float
    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), (got, want)


# Offsets and positions: whole cells, half cells, random, +-1e300, and a
# hair below zero, where x - floor(x) rounds to 1.0.
EXTREMES = [1e300, -1e300, 1e-20, -1e-20, -0.0, 1e16 + 2.0]
OFFSETS = st.one_of(
    st.integers(-6, 6).map(float),
    st.integers(-12, 12).map(lambda n: n / 2.0),
    st.floats(-6.0, 6.0, allow_nan=False),
    st.sampled_from(EXTREMES),
)


@st.composite
def offset_arrays(draw):
    """(9, 2) offsets, each entry of a kind drawn per array from whole
    cells, half cells, uniform in [-6, 6] and EXTREMES."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["whole", "half", "uniform", "extreme"]), min_size=1, max_size=4))
    choices = {
        "whole": rng.integers(-6, 7, size=(9, 2)).astype(float),
        "half": rng.integers(-12, 13, size=(9, 2)) / 2.0,
        "uniform": rng.uniform(-6.0, 6.0, size=(9, 2)),
        "extreme": rng.choice(EXTREMES, size=(9, 2)),
    }
    pick = rng.integers(0, len(kinds), size=(9, 2))
    return np.choose(pick, [choices[kind] for kind in kinds])


@st.composite
def seeded_arrays(draw, shape, scale):
    """Normal values, all negative values, all zeros of one sign, or normal
    values with a drawn share of +0.0 and -0.0 entries (generated from a
    drawn seed, which is much faster than drawing each entry)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mode = draw(st.sampled_from(["normal", "negative", "zeros", "-zeros", "mixed"]))
    if mode in ("zeros", "-zeros"):
        return np.full(shape, 0.0 if mode == "zeros" else -0.0)
    values = rng.normal(scale=scale, size=shape)
    if mode == "negative":
        values = -np.abs(values)
    if mode == "mixed":
        values[rng.random(shape) < 0.3] = 0.0
        values[rng.random(shape) < 0.3] = -0.0
    return values


@st.composite
def feature_grids(draw):
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 16)))
    return FeatureGrid(draw(seeded_arrays(shape, 100.0)))


@st.composite
def kernels(draw, channels):
    return draw(seeded_arrays(draw(st.sampled_from([(3, 3), (3, 3, channels)])), 1.0))


def positions(extent):
    # the seeded draws carry full mantissas, where (p + r) + o and
    # p + (r + o) round apart
    uniform = st.integers(0, 2**32 - 1).map(lambda seed: float(np.random.default_rng(seed).uniform(-1.0, extent + 1.0)))
    return st.one_of(st.integers(-3, extent + 3).map(float), st.floats(-3.0, extent + 3.0), uniform, OFFSETS)


def brute_force_bilinear(values, x, y, c):
    """Independent scalar re-implementation used as the sampling oracle."""
    h, w = values.shape[0], values.shape[1]
    x0, y0 = math.floor(x), math.floor(y)
    total = 0.0
    for iy in (y0, y0 + 1):
        for ix in (x0, x0 + 1):
            wx = 1.0 - abs(x - ix)
            wy = 1.0 - abs(y - iy)
            if wx <= 0.0 or wy <= 0.0:
                continue
            value = values[iy, ix, c] if (0 <= ix < w and 0 <= iy < h) else 0.0
            total += wx * wy * value
    return total


def brute_force_deformable(values, weights, p0, offsets):
    total = 0.0
    taps = [(-1, -1), (0, -1), (1, -1), (-1, 0), (0, 0), (1, 0), (-1, 1), (0, 1), (1, 1)]
    for i, (rx, ry) in enumerate(taps):
        sx = p0[0] + rx + offsets[i][0]
        sy = p0[1] + ry + offsets[i][1]
        for c in range(values.shape[2]):
            total += weights[ry + 1, rx + 1, c] * brute_force_bilinear(values, sx, sy, c)
    return total


class TestShrink:
    def test_scales_both_edges(self):
        box = shrink_obb(normalize_obb(0, 0, 10, 4, 0), 0.3)
        assert (box.cx, box.cy, box.theta) == (0, 0, 0)
        assert (box.w, box.h) == pytest.approx((7.0, 2.8))

    def test_zero_factor_is_identity(self):
        original = normalize_obb(3, -1, 8, 5, 1.2)
        assert shrink_obb(original, 0.0) == original

    def test_angle_preserved(self):
        for factor in (0.1, 0.3, 0.9):
            box = shrink_obb(normalize_obb(1, 2, 9, 3, 0.7), factor)
            assert box.theta == 0.7

    @pytest.mark.parametrize("factor", [-0.1, 1.0, 1.5])
    def test_rejects_out_of_range(self, factor):
        with pytest.raises(ValueError):
            shrink_obb(normalize_obb(0, 0, 2, 1, 0), factor)


class TestInitialPositions:
    def test_axis_aligned_layout(self):
        pts = initial_sampling_positions(normalize_obb(0, 0, 7, 2.8, 0))
        assert pts[0] == pytest.approx([0, 0])
        corners = {tuple(np.round(p, 9)) for p in pts[1:5]}
        assert corners == {(3.5, 1.4), (-3.5, 1.4), (-3.5, -1.4), (3.5, -1.4)}
        midpoints = {tuple(np.round(p, 9)) for p in pts[5:]}
        assert midpoints == {(3.5, 0), (0, 1.4), (-3.5, 0), (0, -1.4)}

    def test_point_order_center_corners_midpoints(self):
        pts = initial_sampling_positions(normalize_obb(10, 20, 6, 4, 0))
        assert pts[1] == pytest.approx([13, 22])  # local (+w/2, +h/2)
        assert pts[2] == pytest.approx([7, 22])
        assert pts[5] == pytest.approx([13, 20])  # +w/2 edge midpoint
        assert pts[6] == pytest.approx([10, 22])

    def test_rotated_square_same_point_set(self):
        # a square rotated by pi/2 covers the same points; normalization
        # folds the angle, so the patterns agree exactly
        upright = initial_sampling_positions(normalize_obb(0, 0, 2, 2, 0.0))
        quarter = initial_sampling_positions(normalize_obb(0, 0, 2, 2, math.pi / 2))
        assert quarter == pytest.approx(upright)
        # a true rectangle rotated by pi/2 is a genuinely different point set
        rotated = initial_sampling_positions(normalize_obb(0, 0, 2, 1, math.pi / 2))
        base = initial_sampling_positions(normalize_obb(0, 0, 2, 1, 0.0))
        assert sorted(map(tuple, np.round(rotated, 9))) != sorted(map(tuple, np.round(base, 9)))
        assert len(rotated) == NUM_PATTERN_POINTS

    def test_points_inside_box(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            box = normalize_obb(
                rng.uniform(-5, 5), rng.uniform(-5, 5),
                rng.uniform(1, 20), rng.uniform(1, 20), rng.uniform(-3, 3),
            )
            pts = initial_sampling_positions(box)
            assert contains_points(box, pts, atol=1e-9).all()

    def test_shrunk_points_inside_shrunk_polygon(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            box = normalize_obb(0, 0, rng.uniform(2, 30), rng.uniform(1, 20), rng.uniform(-3, 3))
            inner = shrink_obb(box, 0.3)
            pts = initial_sampling_positions(inner)
            assert contains_points(inner, pts, atol=1e-9).all()
            assert contains_points(box, pts, atol=1e-9).all()


# Extents from 1e-6 to 1e300, and centres from 0 to +-1e300: whole decades
# and full mantissas.
EXTENTS = st.one_of(st.integers(-6, 300).map(lambda e: 10.0**e), st.floats(1e-6, 1e300))
CENTRES = st.one_of(st.just(0.0), EXTENTS, EXTENTS.map(lambda v: -v))
# The ends of the angle ranges of an elongated box and of a square.
ANGLE_ENDS = [-QUARTER_PI, math.nextafter(3.0 * QUARTER_PI, 0.0), math.nextafter(QUARTER_PI, 0.0), 0.0]


@st.composite
def pattern_boxes(draw):
    """Squares and elongated boxes, at drawn angles or at the ends of the
    angle range, given as they are or with w and h swapped through
    normalize_obb."""
    cx, cy, long, short = draw(CENTRES), draw(CENTRES), draw(EXTENTS), draw(EXTENTS)
    long, short = (long, long) if draw(st.booleans()) else (max(long, short), min(long, short))
    theta = draw(st.one_of(st.sampled_from(ANGLE_ENDS), st.floats(-QUARTER_PI, 3.0 * QUARTER_PI, exclude_max=True)))
    if short == long and theta >= QUARTER_PI:
        theta = draw(st.sampled_from([-QUARTER_PI, math.nextafter(QUARTER_PI, 0.0)]))
    box = OrientedBox(cx, cy, long, short, theta)
    return normalize_obb(cx, cy, short, long, theta) if draw(st.booleans()) else box


@given(box=pattern_boxes())
@settings(max_examples=300, deadline=None)
@example(box=OrientedBox(0.0, 0.0, 5e-324, 5e-324, 0.0))  # half edges round to +0.0
@example(box=OrientedBox(1e300, -1e300, 1e300, 1e-6, -QUARTER_PI))
def test_pattern_is_bit_identical_to_the_literal_table(box):
    want = literal_initial_sampling_positions(box)
    got = initial_sampling_positions(box)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_pattern_on_the_regular_grid_gives_a_zero_field():
    # unshrunk, axis-aligned, two strides wide: each point lands on the tap
    # that it feeds
    stride, p0 = 8.0, (3, 2)
    box = OrientedBox(p0[0] * stride, p0[1] * stride, 2 * stride, 2 * stride, 0.0)
    pattern = sampling_pattern(box, shrink_factor=0.0)
    field = dcn_offset_field(pattern.refined_points, p0, stride)
    assert np.array_equal(field.offsets, np.zeros((NUM_PATTERN_POINTS, 2)))


class TestRefinePositions:
    def test_zero_offsets_identity(self):
        box = normalize_obb(0, 0, 10, 4, 0.4)
        pts = initial_sampling_positions(shrink_obb(box, 0.3))
        refined = refine_positions(pts, box, np.zeros((9, 2)))
        assert refined == pytest.approx(pts)

    def test_unit_example(self):
        box = normalize_obb(0, 0, 10, 4, 0)
        pts = np.zeros((9, 2))
        refined = refine_positions(pts, box, [(0.1, 0.1)] * 9)
        assert refined[0] == pytest.approx([1.0, 0.4])

    def test_linear_in_box_dimensions(self):
        offsets = np.full((9, 2), 0.25)
        small = refine_positions(np.zeros((9, 2)), normalize_obb(0, 0, 8, 4, 0), offsets)
        large = refine_positions(np.zeros((9, 2)), normalize_obb(0, 0, 16, 8, 0), offsets)
        assert large == pytest.approx(2 * small)

    def test_superposition_in_offsets(self):
        rng = np.random.default_rng(21)
        box = normalize_obb(2, 3, 12, 5, 1.0)
        pts = initial_sampling_positions(shrink_obb(box, 0.3))
        a = rng.normal(size=(9, 2))
        b = rng.normal(size=(9, 2))
        lhs = refine_positions(pts, box, a + b)
        rhs = refine_positions(pts, box, a) + refine_positions(pts, box, b) - pts
        assert lhs == pytest.approx(rhs)

    @pytest.mark.parametrize(
        "offsets",
        [
            pytest.param(np.zeros((8, 2)), id="wrong-count"),
            pytest.param({"dx": 0.1}, id="mapping"),
            pytest.param("abc", id="string"),
            pytest.param(None, id="none"),
            pytest.param([(0.0, 0.0)] * 8 + [(0.0,)], id="ragged"),
            pytest.param([(0.0, 0.0)] * 8 + [(10**400, 0)], id="int-past-float-range"),
            pytest.param([(math.nan, 0.0)] * 9, id="nan"),
            pytest.param([(1e200, 0.0)] + [(0.0, 0.0)] * 8, id="past-2**508-px"),
            pytest.param([(1e308, 0.0)] + [(0.0, 0.0)] * 8, id="overflow"),
        ],
    )
    def test_bad_offsets_rejected_without_a_warning(self, offsets):
        box = normalize_obb(8, 8, 4, 2, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="offsets"):
                refine_positions(np.zeros((9, 2)), box, offsets)

    def test_sampling_pattern_uses_original_dims_for_scaling(self):
        box = normalize_obb(0, 0, 10, 4, 0)
        offsets = np.zeros((9, 2))
        offsets[0] = (0.1, 0.1)
        pattern = sampling_pattern(box, offsets, shrink_factor=0.3)
        # center moved by (w * 0.1, h * 0.1) of the unshrunk box
        assert pattern.refined_points[0] - pattern.initial_points[0] == pytest.approx([1.0, 0.4])


class TestDcnOffsetField:
    def test_single_point_example(self):
        field = dcn_offset_field(np.tile([16.0, 8.0], (9, 1)), (1, 1), 8)
        assert field.offsets[0] == pytest.approx([2.0, 1.0])  # tap (-1, -1)

    def test_regular_grid_gives_zero_offsets(self):
        from obblab.sampling import PATTERN_TAP_ORDER

        p0 = (3, 2)
        stride = 8.0
        refined = np.zeros((9, 2))
        for tap_index, (rx, ry) in enumerate(REGULAR_TAPS):
            refined[PATTERN_TAP_ORDER[tap_index]] = ((p0[0] + rx) * stride, (p0[1] + ry) * stride)
        field = dcn_offset_field(refined, p0, stride)
        assert np.abs(field.offsets).max() == 0.0

    def test_translation_by_one_stride(self):
        rng = np.random.default_rng(3)
        refined = rng.uniform(0, 64, size=(9, 2))
        base = dcn_offset_field(refined, (2, 2), 8.0)
        shifted = dcn_offset_field(refined + [8.0, 0.0], (2, 2), 8.0)
        assert shifted.offsets - base.offsets == pytest.approx(np.tile([1.0, 0.0], (9, 1)))

    def test_rejects_bad_stride(self):
        with pytest.raises(ValueError):
            dcn_offset_field(np.zeros((9, 2)), (0, 0), 0.0)

    @pytest.mark.parametrize(
        "offsets, p0, stride",
        [
            (np.zeros((8, 2)), (0, 0), 1.0),
            (np.zeros((9, 3)), (0, 0), 1.0),
            (np.full((9, 2), math.nan), (0, 0), 1.0),
            (np.full((9, 2), math.inf), (0, 0), 1.0),
            (np.zeros((9, 2)), (math.nan, 0), 1.0),
            (np.zeros((9, 2)), (0, -math.inf), 1.0),
            (np.zeros((9, 2)), (0, 0, 0), 1.0),
            (np.zeros((9, 2)), (0, 0), 0.0),
            (np.zeros((9, 2)), (0, 0), -8.0),
            (np.zeros((9, 2)), (0, 0), math.nan),
            (np.zeros((9, 2)), (0, 0), math.inf),
        ],
    )
    def test_bad_field_rejected(self, offsets, p0, stride):
        with pytest.raises(ValueError):
            DcnOffsetField(offsets=offsets, p0=p0, stride=stride)

    def test_fields_from_non_finite_points_rejected(self):
        refined = np.zeros((9, 2))
        refined[3, 0] = math.inf
        with pytest.raises(ValueError):
            dcn_offset_field(refined, (0, 0), 8.0)

    def test_fields_hold_floats(self):
        field = DcnOffsetField(offsets=np.zeros((9, 2), dtype=int), p0=(1, 2), stride=8)
        assert field.offsets.dtype == float
        assert field.p0 == (1.0, 2.0) and type(field.p0[0]) is float
        assert type(field.stride) is float


class TestBilinear:
    @pytest.fixture
    def small_grid(self):
        return FeatureGrid(np.array([[0.0, 1.0], [2.0, 3.0]]))

    def test_center_average(self, small_grid):
        assert bilinear_sample(small_grid, 0.5, 0.5) == 1.5

    def test_exact_grid_point(self, small_grid):
        assert bilinear_sample(small_grid, 1, 0) == 1.0

    def test_far_outside_is_zero(self, small_grid):
        assert bilinear_sample(small_grid, -5, -5) == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(6, 7, 3))
        grid = FeatureGrid(values)
        for _ in range(300):
            x = rng.uniform(-2, 9)
            y = rng.uniform(-2, 8)
            c = int(rng.integers(3))
            assert bilinear_sample(grid, x, y, c) == pytest.approx(
                brute_force_bilinear(values, x, y, c), abs=1e-12
            )

    def test_rejects_non_finite_grid(self):
        with pytest.raises(ValueError):
            FeatureGrid(np.array([[0.0, math.nan]]))

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0), (2, 2, 0)])
    def test_rejects_empty_grid(self, shape):
        with pytest.raises(ValueError):
            FeatureGrid(np.zeros(shape))

    @pytest.mark.parametrize("x, y", [(math.nan, 0.5), (0.5, math.inf), (-math.inf, 0.5)])
    def test_rejects_non_finite_position(self, small_grid, x, y):
        with pytest.raises(ValueError):
            bilinear_sample(small_grid, x, y)

    def test_result_is_python_float(self, small_grid):
        assert type(bilinear_sample(small_grid, 0.25, 0.5)) is float
        assert type(bilinear_sample(small_grid, -5, -5)) is float

    @given(data=st.data())
    @settings(max_examples=250, deadline=None)
    @example(data=None)
    def test_bit_identical_to_scalar_read(self, data):
        if data is None:  # all-(-0.0) grid read between cells
            grid, x, y, channel = FeatureGrid(np.full((2, 2), -0.0)), 0.5, 0.5, 0
        else:
            grid = data.draw(feature_grids())
            x = data.draw(positions(grid.width))
            y = data.draw(positions(grid.height))
            channel = data.draw(st.integers(0, grid.channels - 1))
        assert_bit_identical(bilinear_sample(grid, x, y, channel), scalar_bilinear_sample(grid, x, y, channel))


class TestDeformableSample:
    def test_zero_offsets_equal_plain_convolution(self):
        rng = np.random.default_rng(11)
        values = rng.normal(size=(8, 8, 2))
        grid = FeatureGrid(values)
        weights = rng.normal(size=(3, 3, 2))
        p0 = (4, 3)
        field = DcnOffsetField(offsets=np.zeros((9, 2)), p0=p0, stride=1.0)
        got = deformable_sample(grid, weights, p0, field)
        want = sum(
            weights[ry + 1, rx + 1, c] * values[p0[1] + ry, p0[0] + rx, c]
            for rx, ry in REGULAR_TAPS
            for c in range(2)
        )
        assert got == pytest.approx(want, abs=1e-12)

    def test_delta_kernel_reads_offset_cell(self):
        values = np.arange(36, dtype=float).reshape(6, 6)
        grid = FeatureGrid(values)
        weights = np.zeros((3, 3))
        weights[1, 1] = 1.0  # center tap only
        offsets = np.zeros((9, 2))
        offsets[4] = (2.0, 1.0)  # center tap points at (p0x + 2, p0y + 1)
        field = DcnOffsetField(offsets=offsets, p0=(1, 2), stride=1.0)
        assert deformable_sample(grid, weights, (1, 2), field) == values[3, 3]

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            values = rng.normal(size=(7, 9, 2))
            grid = FeatureGrid(values)
            weights = rng.normal(size=(3, 3, 2))
            offsets = rng.uniform(-3, 3, size=(9, 2))
            p0 = (int(rng.integers(0, 9)), int(rng.integers(0, 7)))
            field = DcnOffsetField(offsets=offsets, p0=p0, stride=1.0)
            got = deformable_sample(grid, weights, p0, field)
            want = brute_force_deformable(values, weights, p0, offsets)
            assert got == pytest.approx(want, abs=1e-12)

    def test_translation_equivariance_in_interior(self):
        rng = np.random.default_rng(17)
        values = rng.normal(size=(12, 12, 1))
        rolled = np.roll(values, shift=(2, 3), axis=(0, 1))  # content moved by (dx=3, dy=2)
        weights = rng.normal(size=(3, 3, 1))
        offsets = rng.uniform(-1, 1, size=(9, 2))
        a = deformable_sample(FeatureGrid(values), weights, (5, 5), DcnOffsetField(offsets, (5, 5), 1.0))
        b = deformable_sample(FeatureGrid(rolled), weights, (8, 7), DcnOffsetField(offsets, (8, 7), 1.0))
        assert a == pytest.approx(b, abs=1e-12)

    def test_zero_offset_chain_reduces_to_regular_convolution(self):
        # a box whose shrunk pattern lands exactly on the regular grid:
        # 32-square shrunk by 0.5 puts the 9 points on the stride-8 lattice
        stride = 8.0
        box = normalize_obb(32.0, 32.0, 32.0, 32.0, 0.0)
        pattern = sampling_pattern(box, None, shrink_factor=0.5)
        p0 = (4, 4)
        field = dcn_offset_field(pattern.refined_points, p0, stride)
        assert np.abs(field.offsets).max() == 0.0
        rng = np.random.default_rng(19)
        values = rng.normal(size=(9, 9, 1))
        grid = FeatureGrid(values)
        weights = rng.normal(size=(3, 3, 1))
        got = deformable_sample(grid, weights, p0, field)
        want = sum(
            weights[ry + 1, rx + 1, 0] * values[p0[1] + ry, p0[0] + rx, 0]
            for rx, ry in REGULAR_TAPS
        )
        assert got == pytest.approx(want, abs=1e-12)

    def test_kernel_shape_validated(self):
        grid = FeatureGrid(np.zeros((4, 4, 2)))
        field = DcnOffsetField(offsets=np.zeros((9, 2)), p0=(1, 1), stride=1.0)
        with pytest.raises(ValueError):
            deformable_sample(grid, np.zeros((3, 3, 5)), (1, 1), field)

    @pytest.mark.parametrize("p0", [(math.nan, 1.0), (1.0, math.inf)])
    def test_rejects_non_finite_p0(self, p0):
        grid = FeatureGrid(np.zeros((4, 4, 2)))
        field = DcnOffsetField(offsets=np.zeros((9, 2)), p0=(1, 1), stride=1.0)
        with pytest.raises(ValueError):
            deformable_sample(grid, np.ones((3, 3)), p0, field)

    def test_rejects_a_field_built_for_another_p0(self):
        grid = FeatureGrid(np.ones((4, 4, 2)))
        field = dcn_offset_field(np.tile([16.0, 8.0], (9, 1)), (1, 1), 8)
        assert deformable_sample(grid, np.ones((3, 3)), (1.0, 1.0), field) == deformable_sample(
            grid, np.ones((3, 3)), np.array([1, 1]), field
        )
        with pytest.raises(ValueError, match="offset field"):
            deformable_sample(grid, np.ones((3, 3)), (2, 1), field)

    def test_result_is_python_float(self):
        grid = FeatureGrid(np.ones((4, 4, 2)))
        field = DcnOffsetField(offsets=np.zeros((9, 2)), p0=(1, 1), stride=1.0)
        assert type(deformable_sample(grid, np.ones((3, 3)), (1, 1), field)) is float
        assert type(deformable_sample(grid, np.zeros((3, 3)), (1, 1), field)) is float

    def test_tap_is_added_to_p0_before_the_offset(self):
        # (1.01 - 1) + 0.01 and 1.01 + (-1 + 0.01) round apart
        grid = FeatureGrid(np.arange(16.0).reshape(4, 4) / 7.0)
        weights = np.zeros((3, 3))
        weights[0, 0] = 1.0  # tap (-1, -1) only
        offsets = np.zeros((9, 2))
        offsets[0] = (0.01, 0.01)
        field = DcnOffsetField(offsets=offsets, p0=(1.01, 1.01), stride=1.0)
        got = deformable_sample(grid, weights, field.p0, field)
        assert_bit_identical(got, scalar_deformable_sample(grid, weights, field.p0, field))

    @given(data=st.data())
    @settings(max_examples=250, deadline=None)
    @example(data=None)
    def test_bit_identical_to_scalar_loop(self, data):
        if data is None:  # negative weights, every read outside: -0.0 products
            grid, weights, offsets, p0 = FeatureGrid(np.ones((2, 2))), -np.ones((3, 3)), np.zeros((9, 2)), (50, 50)
        else:
            grid = data.draw(feature_grids())
            weights = data.draw(kernels(grid.channels))
            offsets = data.draw(offset_arrays())
            p0 = (data.draw(positions(grid.width)), data.draw(positions(grid.height)))
            if data.draw(st.booleans()):
                p0 = (int(min(max(p0[0], -10), 20)), int(min(max(p0[1], -10), 20)))
        field = DcnOffsetField(offsets=offsets, p0=p0, stride=1.0)
        got = deformable_sample(grid, weights, p0, field)
        assert_bit_identical(got, float(scalar_deformable_sample(grid, weights, p0, field)))
