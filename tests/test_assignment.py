import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from obblab import assignment
from obblab.assignment import (
    ANGLE_DEPENDENT,
    CONSTANT_ONE,
    IGNORE,
    NEGATIVE,
    AnchorsConfig,
    AssignmentResult,
    GroundTruth,
    MasConfig,
    MaxIouConfig,
    angle_weight,
    assign_atss,
    assign_maxiou,
    assign_mas,
    generate_anchors,
    iou_statistics,
    mas_threshold,
    select_candidates,
    shape_exponent,
    shape_weight,
    _assign,
    _overlapping_anchor_indices,
    _resolve_claims,
)
from obblab.geometry import (
    OrientedBox,
    _box_frame,
    _corners,
    _iou,
    _ious_between,
    normalize_obb,
    rotated_iou,
)
from obblab.scenes import SceneSpec, generate_scene

QP = math.pi / 4.0

# Two levels, 80 anchors: small enough for hypothesis to scan every anchor.
SMALL_GRID = generate_anchors(64, [8, 16], 4)


@st.composite
def gts_near_anchors(draw):
    """A free box, or a box on an anchor, exactly or jittered by 1e-9."""
    kind = draw(st.sampled_from(["free", "on-anchor", "jittered"]))
    if kind == "free":
        return normalize_obb(
            draw(st.floats(-8, 72)), draw(st.floats(-8, 72)),
            draw(st.floats(0.5, 80)), draw(st.floats(0.5, 80)), draw(st.floats(-4, 4)),
        )
    anchor = SMALL_GRID.box(draw(st.integers(0, SMALL_GRID.num_anchors - 1)))
    jitter = [draw(st.sampled_from([-1e-9, 0.0, 1e-9])) if kind == "jittered" else 0.0 for _ in range(5)]
    return normalize_obb(
        anchor.cx + jitter[0], anchor.cy + jitter[1], anchor.w + jitter[2], anchor.h + jitter[3], jitter[4]
    )


@st.composite
def clipping_gts(draw):
    """The boxes of `gts_near_anchors`, boxes of 1e-6 px on anchor corners,
    integer-pixel boxes at 0, pi/4 and pi/2, and centres up to 1e6 px
    outside the image."""
    kind = draw(st.sampled_from(["near", "tiny", "integer", "far"]))
    if kind == "near":
        return draw(gts_near_anchors())
    if kind == "tiny":
        # anchor corners lie on multiples of 4 px
        cx, cy = (4.0 * draw(st.integers(-4, 20)) + draw(st.sampled_from([0.0, 1e-9, -5e-7])) for _ in range(2))
        return normalize_obb(cx, cy, draw(st.floats(1e-6, 2e-6)), 1e-6, draw(st.floats(-4, 4)))
    if kind == "integer":
        cx, cy, w, h = (float(draw(st.integers(lo, hi))) for lo, hi in ((-8, 72), (-8, 72), (1, 80), (1, 80)))
        return normalize_obb(cx, cy, w, h, draw(st.sampled_from([0.0, QP, 2 * QP])))
    far = st.one_of(st.floats(-1e6, -100), st.floats(164, 1e6))
    edges = st.floats(0.5, 3e6)
    return normalize_obb(draw(far), draw(st.floats(-1e6, 1e6)), draw(edges), draw(edges), draw(st.floats(-4, 4)))


def brute_force_candidates(grid, gt, k):
    """The k nearest anchors per level by a stable sort of the whole level."""
    picked = []
    for level_slice in grid.level_slices:
        centers = grid.centers[level_slice]
        d2 = (centers[:, 0] - gt.box.cx) ** 2 + (centers[:, 1] - gt.box.cy) ** 2
        picked.append(np.argsort(d2, kind="stable")[:k] + level_slice.start)
    return np.concatenate(picked)


def ious_against_anchors(grid, boxes, owner, anchors):
    """Row i: the IoU of boxes[owner[i]] against anchor anchors[i], from one
    clipping-kernel call with the frames that `_assign` passes."""
    frames = np.array([_box_frame(b) for b in boxes]).reshape(-1, 6).T
    areas = np.array([b.area for b in boxes])
    sides = grid.sizes[anchors]
    half = 0.5 * sides
    squares = (*grid.centers[anchors].T, math.cos(0.0), math.sin(0.0), half, half)
    return _ious_between(frames[:, owner], areas[owner], squares, sides * sides)


def anchor_ious(grid, boxes):
    """IoUs of each box against every anchor of ``grid``, one row per box,
    from one clipping-kernel call."""
    owner = np.repeat(np.arange(len(boxes)), grid.num_anchors)
    anchors = np.tile(np.arange(grid.num_anchors), len(boxes))
    return ious_against_anchors(grid, boxes, owner, anchors).reshape(len(boxes), grid.num_anchors)


def box_bounds(box):
    """(min x, min y) and (max x, max y) of a box's corners."""
    corners = np.array(_corners(_box_frame(box)))
    return corners.min(axis=0), corners.max(axis=0)


def overlapping_anchors(grid, box):
    """`_overlapping_anchor_indices` of one box."""
    lo, hi = box_bounds(box)
    anchors, owner = _overlapping_anchor_indices(grid, lo[None], hi[None])
    assert not owner.any()
    return anchors


def brute_force_overlaps(grid, gt_box):
    """Anchors whose bounds overlap the gt's bounds, by testing every anchor."""
    lo, hi = box_bounds(gt_box)
    half = grid.sizes * 0.5
    cx, cy = grid.centers[:, 0], grid.centers[:, 1]
    return np.nonzero((cx - half < hi[0]) & (cx + half > lo[0]) & (cy - half < hi[1]) & (cy + half > lo[1]))[0]


@st.composite
def lattices(draw):
    """Square and non-square pyramids of up to 40 x 40 cells; coarse levels
    of small images hold fewer cells than k."""
    strides = draw(st.lists(st.sampled_from([4.0, 8.0, 16.0, 32.0, 64.0]), min_size=1, max_size=3, unique=True))
    width = draw(st.integers(1, 160))
    height = draw(st.one_of(st.just(width), st.integers(1, 160)))
    multiplier = draw(st.sampled_from([1.0, 2.5, 4.0]))
    return generate_anchors((width, height), sorted(strides), multiplier), (width, height)


@st.composite
def lattice_coordinates(draw, stride, extent):
    """On an anchor center or a cell edge of the level of ``stride``, exactly
    or 1e-9 off, anywhere up to 1e6 px outside the image, or 1e9 to 1e15 px
    outside it, where the other axis' squared distance swamps the steps
    between cells after rounding, so that whole columns or rows tie."""
    kind = draw(st.sampled_from(["center", "edge", "far", "farther"]))
    if kind == "far":
        return draw(st.floats(-1e6, extent + 1e6))
    if kind == "farther":
        return draw(st.one_of(st.floats(-1e15, -1e9), st.floats(extent + 1e9, 1e15)))
    cell = draw(st.integers(-2, math.ceil(extent / stride) + 2))
    return (cell + (0.5 if kind == "center" else 0.0)) * stride + draw(st.sampled_from([0.0, 0.0, -1e-9, 1e-9]))


@pytest.fixture(scope="module")
def pyramid_grid():
    return generate_anchors(1024, [8, 16, 32, 64, 128], 4)


STRATEGIES = pytest.mark.parametrize(
    "assign", [assign_maxiou, assign_atss, assign_mas], ids=["maxiou", "atss", "mas"]
)


def random_gts(rng, count, image=1024, aspect=(1.0, 8.0), scale=(24.0, 96.0)):
    gts = []
    for _ in range(count):
        a = math.exp(rng.uniform(math.log(aspect[0]), math.log(aspect[1])))
        long_edge = rng.uniform(*scale)
        theta = rng.uniform(-QP, 3 * QP)
        cx = rng.uniform(100, image - 100)
        cy = rng.uniform(100, image - 100)
        gts.append(GroundTruth(normalize_obb(cx, cy, long_edge, long_edge / a, theta)))
    return gts


class TestGenerateAnchors:
    def test_pyramid_anchor_count(self, pyramid_grid):
        assert pyramid_grid.num_anchors == 128**2 + 64**2 + 32**2 + 16**2 + 8**2 == 21824

    def test_single_cell_image(self):
        grid = generate_anchors(8, [8], 4)
        assert grid.num_anchors == 1
        assert tuple(grid.centers[0]) == (4.0, 4.0)
        assert grid.sizes[0] == 32.0

    def test_default_multiplier_comes_from_anchors_config(self):
        assert generate_anchors(64, [8]).sizes[0] == 8 * AnchorsConfig.scale_multiplier

    def test_anchor_side_is_stride_times_multiplier(self):
        grid = generate_anchors(64, [8], 4)
        assert set(grid.sizes.tolist()) == {32.0}
        grid = generate_anchors(64, [16], 2.5)
        assert set(grid.sizes.tolist()) == {40.0}

    def test_ceiling_partial_cells(self):
        grid = generate_anchors((100, 60), [32], 1)
        level = grid.levels[0]
        assert (level.width, level.height) == (4, 2)
        assert grid.num_anchors == 8

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            generate_anchors(64, [])
        with pytest.raises(ValueError):
            generate_anchors(64, [16, 8])
        with pytest.raises(ValueError):
            generate_anchors(64, [8], -1)
        for strides, multiplier in (([math.nan], 4), ([8], math.nan), ([math.inf], 4), ([8, 2.0**509], 1)):
            with pytest.raises(ValueError):
                generate_anchors(64, strides, multiplier)

    def test_anchor_boxes_are_normalized_squares(self, pyramid_grid):
        box = pyramid_grid.box(0)
        assert box.w == box.h and box.theta == 0.0


class TestAngleWeight:
    def test_equilibrium_values(self):
        assert angle_weight(0.0) == -0.5
        assert angle_weight(math.pi / 2) == 0.5

    def test_extreme_value(self):
        assert angle_weight(-QP) == pytest.approx(-1.0)

    def test_magnitude_range(self):
        for theta in np.linspace(-QP, 3 * QP, 500, endpoint=False):
            lam = angle_weight(float(theta))
            assert 0.5 <= abs(lam) <= 1.0 + 1e-12

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            angle_weight(math.pi)


class TestShapeWeight:
    def test_compensation_cancels_exactly(self):
        assert shape_weight(1.5, QP, 5.0) == 1.0

    def test_high_aspect_value(self):
        assert shape_weight(5.0, QP, 5.0) == pytest.approx(math.exp(0.3 - 1.0), rel=1e-12)

    def test_equilibrium_raises_weight(self):
        assert shape_weight(1.5, 0.0, 5.0) == pytest.approx(math.exp(0.15), rel=1e-12)

    def test_strictly_decreasing_in_aspect(self):
        for theta in (-0.3, 0.0, 0.9, 2.0):
            values = [shape_weight(a, theta, 5.0) for a in np.linspace(1, 12, 40)]
            assert all(x > y for x, y in zip(values, values[1:]))

    def test_period_pi_and_mirror_symmetry(self):
        from obblab.geometry import normalize_angle

        for theta in np.linspace(-QP, 3 * QP, 97, endpoint=False):
            f = shape_weight(3.0, float(theta), 5.0)
            assert shape_weight(3.0, normalize_angle(float(theta) + math.pi), 5.0) == pytest.approx(f, rel=1e-12)
        # symmetric about 0 and pi/2
        for delta in np.linspace(0, QP, 25, endpoint=False):
            assert shape_weight(3.0, float(delta), 5.0) == pytest.approx(
                shape_weight(3.0, float(-delta) if delta else 0.0, 5.0), rel=1e-12
            )
            assert shape_weight(3.0, math.pi / 2 + float(delta), 5.0) == pytest.approx(
                shape_weight(3.0, math.pi / 2 - float(delta), 5.0), rel=1e-9
            )

    def test_constant_one_mode_drops_angle_dependence(self):
        a = shape_weight(4.0, 0.0, 5.0, lambda_mode=CONSTANT_ONE)
        b = shape_weight(4.0, QP, 5.0, lambda_mode=CONSTANT_ONE)
        assert a == b == math.exp((1.5 - 4.0) / 5.0)

    def test_small_gamma_saturates_instead_of_raising(self):
        # exponent (1.5 - 1.0 * 0.5) / 0.001 = 1000 is past exp's float range
        assert shape_exponent(1.0, 0.0, 0.001) == pytest.approx(1000.0)
        assert shape_weight(1.0, 0.0, 0.001) == math.inf
        assert shape_weight(12.0, QP, 0.001) == 0.0  # underflow keeps its sign

    def test_weight_is_exp_of_exponent(self):
        for args in ((1.5, QP, 5.0), (4.0, 0.3, 2.0), (7.0, 2.0, 0.5)):
            assert shape_weight(*args) == math.exp(shape_exponent(*args))

    def test_raw_lambda_inverts_aspect_trend_near_equilibrium(self):
        # signed weight is negative left of pi/4, so f grows with aspect
        low = shape_weight(2.0, 0.0, 5.0, raw_lambda=True)
        high = shape_weight(8.0, 0.0, 5.0, raw_lambda=True)
        assert high > low


class TestIouStatistics:
    def test_three_values(self):
        mean, std, init = iou_statistics([0.3, 0.5, 0.7])
        assert mean == pytest.approx(0.5)
        assert std == pytest.approx(math.sqrt(0.08 / 3))
        assert init == pytest.approx(0.5 + math.sqrt(0.08 / 3))

    def test_single_value(self):
        assert iou_statistics([0.4]) == (0.4, 0.0, 0.4)

    def test_constant_list(self):
        mean, std, init = iou_statistics([0.25] * 7)
        assert (mean, std, init) == (0.25, 0.0, 0.25)

    def test_population_not_sample_std(self):
        values = [0.1, 0.9]
        _, std, _ = iou_statistics(values)
        assert std == pytest.approx(0.4)  # /N, not /(N-1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            iou_statistics([])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            iou_statistics([0.5, 1.2])
        with pytest.raises(ValueError):
            iou_statistics([[0.5, 0.5], [0.5, -0.1]])

    @given(
        rows=st.integers(1, 30),
        columns=st.integers(1, 100),
        values=st.sampled_from(["uniform", "sparse", "ties"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_table_rows_match_the_list_form_bit_for_bit(self, rows, columns, values, seed):
        rng = np.random.default_rng(seed)
        table = rng.uniform(0.0, 1.0, (rows, columns))
        if values == "sparse":  # mostly zero, as far from an object
            table[rng.uniform(size=table.shape) < 0.8] = 0.0
        elif values == "ties":
            table = rng.choice([0.0, 0.25, 1.0 / 3.0, 1.0], size=table.shape)
        got = iou_statistics(table)
        for row, ious in enumerate(table):
            want = iou_statistics(ious)
            assert all(type(v) is float for v in want)
            assert [float(stat[row]) for stat in got] == list(want)  # == on floats, none are nan


class TestMasThreshold:
    def test_unit_weight_reduces_to_initial_threshold(self):
        gt = GroundTruth(normalize_obb(0, 0, 50, 10, 0.3))
        cfg = MasConfig(unit_weight=True)
        _, _, init = iou_statistics([0.3, 0.5, 0.7])
        assert mas_threshold(gt, [0.3, 0.5, 0.7], cfg) == init

    def test_composed_example(self):
        gt = GroundTruth(normalize_obb(0, 0, 50, 10, QP))
        thr = mas_threshold(gt, [0.3, 0.5, 0.7], MasConfig(gamma=5.0))
        _, _, init = iou_statistics([0.3, 0.5, 0.7])
        assert thr == pytest.approx(math.exp(0.3 - 1.0) * init, rel=1e-12)
        assert thr == pytest.approx(0.32940, abs=1e-4)

    def test_clamped_at_max(self):
        gt = GroundTruth(normalize_obb(0, 0, 15, 10, 0.0))  # aspect 1.5, f > 1
        thr = mas_threshold(gt, [0.95, 0.95, 0.95], MasConfig())
        assert thr == 0.95

    def test_clamped_at_min(self):
        gt = GroundTruth(normalize_obb(0, 0, 120, 10, QP))
        thr = mas_threshold(gt, [0.0, 0.0, 0.0], MasConfig())
        assert thr == 0.05

    def test_saturated_weight_clamps_without_nan(self):
        gt = GroundTruth(normalize_obb(0, 0, 10, 10, 0.0))  # aspect 1: f = inf at gamma 0.001
        cfg = MasConfig(gamma=0.001)
        assert mas_threshold(gt, [0.3, 0.5, 0.7], cfg) == 0.95
        # inf * 0 would be nan; a zero initial threshold stays zero
        assert mas_threshold(gt, [0.0, 0.0, 0.0], cfg) == 0.05


class TestSelectCandidates:
    def test_exact_center_single_level(self):
        grid = generate_anchors(64, [8], 4)
        gt = GroundTruth(normalize_obb(20.0, 28.0, 10, 5, 0))
        picked = select_candidates(grid, gt, 1)
        assert len(picked) == 1
        assert tuple(grid.centers[picked[0]]) == (20.0, 28.0)

    def test_k_larger_than_level_takes_all(self):
        grid = generate_anchors(32, [16], 2)  # 2x2 anchors
        gt = GroundTruth(normalize_obb(10, 10, 8, 4, 0))
        picked = select_candidates(grid, gt, 99)
        assert sorted(picked.tolist()) == [0, 1, 2, 3]

    def test_ties_on_cell_edges_go_to_the_lower_index(self):
        grid = generate_anchors(64, [8], 4)
        # on the edge between the anchors at (12, 12) and (20, 12)
        edge = GroundTruth(normalize_obb(16.0, 12.0, 10, 5, 0))
        assert select_candidates(grid, edge, 1).tolist() == [9]
        # on the corner shared by the anchors at (12|20, 12|20)
        corner = GroundTruth(normalize_obb(16.0, 16.0, 10, 5, 0))
        assert select_candidates(grid, corner, 3).tolist() == [9, 10, 17]

    def test_against_brute_force_distance_sort(self, pyramid_grid):
        for gt in random_gts(np.random.default_rng(3), 10):
            picked = select_candidates(pyramid_grid, gt, 9)
            assert len(picked) == 45
            assert np.array_equal(picked, brute_force_candidates(pyramid_grid, gt, 9))


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_select_candidates_equals_full_stable_sort(data):
    grid, (width, height) = data.draw(lattices())
    stride = data.draw(st.sampled_from([level.stride for level in grid.levels]))
    cx = data.draw(lattice_coordinates(stride, width))
    cy = data.draw(lattice_coordinates(stride, height))
    most = max(level.width * level.height for level in grid.levels)
    k = data.draw(st.one_of(st.sampled_from([1, 2, 3, 4, 9]), st.integers(1, most + 2)))
    gt = GroundTruth(normalize_obb(cx, cy, 12.0, 5.0, 0.3))
    assert np.array_equal(select_candidates(grid, gt, k), brute_force_candidates(grid, gt, k))


@pytest.mark.parametrize("center", [(-1e6, -1e6), (1e6 + 4096, -1e6), (-1e6, 1e6 + 4096)])
def test_far_outside_centre_searches_a_small_window(monkeypatch, center):
    # the column (row) cut adds the smallest squared distance along the
    # other axis, so a centre 1e6 px off a corner of the image sorts a few
    # cells near that corner instead of whole columns or rows of the level
    grid = generate_anchors(4096, [8, 16, 32, 64, 128], 4)
    gt = GroundTruth(normalize_obb(*center, 20.0, 10.0, 0.3))
    expected = brute_force_candidates(grid, gt, 9)
    sizes = []
    argsort = np.argsort

    def spy(a, *args, **kwargs):
        sizes.append(np.size(a))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    picked = select_candidates(grid, gt, 9)
    assert len(sizes) == len(grid.levels)
    assert max(sizes) <= (9 + 1) ** 2
    assert np.array_equal(picked, expected)


@pytest.mark.parametrize("offset", [1e9, 1e11, 1e13, 1e15])
@pytest.mark.parametrize("axis", [0, 1])
def test_swamped_axis_ties_whole_lines(offset, axis):
    # a centre this far out along one axis adds a squared distance whose
    # rounding swallows the steps between cells along the other axis, so
    # neighbouring columns (rows) tie and the stable sort decides
    grid = generate_anchors((600, 400), [8, 32], 4)
    center = [300.3, 200.7]
    center[axis] = -offset
    gt = GroundTruth(normalize_obb(*center, 12.0, 5.0, 0.3))
    level = grid.centers[grid.level_slices[0]]
    nearest_line = level[level[:, axis] == 4.0]
    d2 = (nearest_line[:, 0] - center[0]) ** 2 + (nearest_line[:, 1] - center[1]) ** 2
    assert np.unique(d2).size < d2.size
    for k in (1, 9, 100):
        assert np.array_equal(select_candidates(grid, gt, k), brute_force_candidates(grid, gt, k))


def nearest_anchors(grid, gts, k):
    """`_nearest_anchors` of the centres of ``gts``, one row per gt."""
    cx, cy = np.array([[gt.box.cx, gt.box.cy] for gt in gts]).reshape(-1, 2).T
    anchors, owner = assignment._nearest_anchors(grid, cx, cy, k)
    assert np.array_equal(owner, np.repeat(np.arange(len(gts)), anchors.size // max(len(gts), 1)))
    return anchors.reshape(len(gts), -1)


def test_level_with_fewer_than_k_cells_keeps_its_distance_order():
    grid = generate_anchors((32, 16), [8, 16], 2)  # 4 x 2 cells, then 2 x 1
    gt = GroundTruth(normalize_obb(30.0, 2.0, 8, 4, 0))
    # on the coarse level, the anchor at (24, 8) is nearer than the one at
    # (8, 8), so anchor 9 comes before anchor 8
    assert select_candidates(grid, gt, 3).tolist() == [3, 2, 7, 9, 8]
    other = GroundTruth(normalize_obb(-3.0, 20.0, 8, 4, 0))
    picked = nearest_anchors(grid, [gt, other], 3)
    assert picked.tolist() == [[3, 2, 7, 9, 8], [4, 5, 0, 8, 9]]
    for row, box in zip(picked, [gt, other]):
        assert np.array_equal(row, brute_force_candidates(grid, box, 3))


@pytest.mark.parametrize("axis", [0, 1])
def test_far_off_axis_gt_widens_no_other_window(monkeypatch, axis):
    # a centre 1e13 px out along one axis ties whole lines of cells, so its
    # window spans the level; it is sorted on its own, and the ordinary gts'
    # windows stay within (k + 1) x (k + 1) cells
    grid = generate_anchors((600, 400), [8, 32], 4)
    ordinary = random_gts(np.random.default_rng(5), 6, image=400)
    center = [300.3, 200.7]
    center[axis] = -1e13
    gts = ordinary[:3] + [GroundTruth(normalize_obb(*center, 12.0, 5.0, 0.3))] + ordinary[3:]
    k = 9
    expected = [brute_force_candidates(grid, gt, k) for gt in gts]
    shapes = []
    argsort = np.argsort

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    picked = nearest_anchors(grid, gts, k)
    assert [rows for rows, _ in shapes] == [len(ordinary), 1] * len(grid.levels)
    assert all(size <= (k + 1) ** 2 for rows, size in shapes if rows == len(ordinary))
    for row, want in zip(picked, expected):
        assert np.array_equal(row, want)


def test_no_centres_and_no_boxes_give_no_rows():
    anchors, owner = assignment._nearest_anchors(SMALL_GRID, np.empty(0), np.empty(0), 9)
    assert anchors.size == owner.size == 0
    anchors, owner = _overlapping_anchor_indices(SMALL_GRID, np.empty((0, 2)), np.empty((0, 2)))
    assert anchors.size == owner.size == 0


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_many_gts_in_one_call_equal_the_per_gt_sort(data):
    grid, (width, height) = data.draw(lattices())
    stride = data.draw(st.sampled_from([level.stride for level in grid.levels]))
    centers = data.draw(st.lists(
        st.tuples(lattice_coordinates(stride, width), lattice_coordinates(stride, height)), min_size=1, max_size=8
    ))
    most = max(level.width * level.height for level in grid.levels)
    k = data.draw(st.one_of(st.sampled_from([1, 2, 3, 4, 9]), st.integers(1, most + 2)))
    gts = [GroundTruth(normalize_obb(cx, cy, 12.0, 5.0, 0.3)) for cx, cy in centers]
    for row, gt in zip(nearest_anchors(grid, gts, k), gts):
        assert np.array_equal(row, brute_force_candidates(grid, gt, k))


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_overlapping_anchors_equal_full_scan(data):
    # anchor edges lie on whole pixels for these strides and multipliers, so
    # integer-pixel gt edges often touch them exactly; several boxes go
    # through one call, whose rows are box-major
    grid, (width, height) = data.draw(lattices())
    edges = st.one_of(
        st.integers(-40, max(width, height) + 40), st.integers(-10**6, 10**6), st.integers(-10**15, 10**15)
    )
    boxes = []
    for _ in range(data.draw(st.integers(1, 4))):
        x0, x1 = sorted(data.draw(st.lists(edges, min_size=2, max_size=2, unique=True)))
        y0, y1 = sorted(data.draw(st.lists(edges, min_size=2, max_size=2, unique=True)))
        theta = data.draw(st.sampled_from([0.0, QP, 2 * QP]))
        boxes.append(normalize_obb((x0 + x1) / 2, (y0 + y1) / 2, x1 - x0, y1 - y0, theta))
    lo, hi = (np.array(bounds) for bounds in zip(*map(box_bounds, boxes)))
    anchors, owner = _overlapping_anchor_indices(grid, lo, hi)
    want = [brute_force_overlaps(grid, box) for box in boxes]
    assert np.array_equal(owner, np.repeat(np.arange(len(boxes)), [w.size for w in want]))
    assert np.array_equal(anchors, np.concatenate(want))


class TestAssignMas:
    def test_perfect_anchor_is_positive(self):
        grid = generate_anchors(64, [8], 4)
        # exactly matches the anchor at (28, 28): square side 32
        gt = GroundTruth(normalize_obb(28.0, 28.0, 32.0, 32.0 - 1e-9, 0.0))
        result = assign_mas(grid, [gt], MasConfig())
        matched = np.nonzero(result.gt_index == 0)[0]
        assert len(matched) >= 1
        best = max(matched, key=lambda i: rotated_iou(grid.box(int(i)), gt.box))
        assert rotated_iou(grid.box(int(best)), gt.box) > 0.99

    def test_empty_gts_all_negative(self, pyramid_grid):
        result = assign_mas(pyramid_grid, [], MasConfig())
        assert np.all(result.gt_index == NEGATIVE)
        assert result.thresholds.shape == (0,)

    def test_reduction_to_atss_with_unit_weight(self, pyramid_grid):
        rng = np.random.default_rng(11)
        for _ in range(10):
            gts = random_gts(rng, 8)
            forced = assign_mas(pyramid_grid, gts, MasConfig(unit_weight=True))
            baseline = assign_atss(pyramid_grid, gts, k=9)
            assert np.array_equal(forced.gt_index, baseline.gt_index)
            assert forced.thresholds == pytest.approx(baseline.thresholds)

    def test_constant_one_at_reference_aspect_matches_atss(self, pyramid_grid):
        rng = np.random.default_rng(13)
        for _ in range(5):
            gts = random_gts(rng, 6, aspect=(1.5, 1.5))
            mas = assign_mas(pyramid_grid, gts, MasConfig(lambda_mode=CONSTANT_ONE))
            atss = assign_atss(pyramid_grid, gts, k=9)
            assert np.array_equal(mas.gt_index, atss.gt_index)

    def test_positive_iou_meets_threshold_or_fallback(self, pyramid_grid):
        rng = np.random.default_rng(19)
        gts = random_gts(rng, 10)
        result = assign_mas(pyramid_grid, gts, MasConfig())
        for g, gt in enumerate(gts):
            anchors = np.nonzero(result.gt_index == g)[0]
            if len(anchors) <= 1:
                continue  # a single positive may be the fallback anchor
            ious = [rotated_iou(pyramid_grid.box(int(i)), gt.box) for i in anchors]
            assert sum(1 for v in ious if v >= result.thresholds[g]) >= len(anchors) - 1

    def test_equal_iou_claim_goes_to_lower_gt_index(self):
        # mirror images about the anchor at (28, 28): both claim it with
        # exactly equal IoU, and each keeps one uncontested anchor
        grid = generate_anchors(64, [8], 4)
        contested = int(np.nonzero((grid.centers == [28.0, 28.0]).all(axis=1))[0][0])
        left = GroundTruth(normalize_obb(24.0, 28.0, 16.0, 8.0, 0.0))
        right = GroundTruth(normalize_obb(32.0, 28.0, 16.0, 8.0, 0.0))
        cfg = MasConfig(threshold_clamp=(0.05, 0.1))
        for gts in ([left, right], [right, left]):
            result = assign_mas(grid, gts, cfg)
            assert result.gt_index[contested] == 0
            assert result.positive_counts.tolist() == [2, 1]

    def test_lower_threshold_admits_superset_for_elongated_rotated(self, pyramid_grid):
        # elongated gts at the maximal-mismatch angle: the shape weight drops
        # the bar below the unmodulated one, so positives form a superset
        rng = np.random.default_rng(23)
        gts = random_gts(rng, 12, aspect=(3.0, 8.0))
        gts = [GroundTruth(normalize_obb(g.box.cx, g.box.cy, g.box.w, g.box.h, QP)) for g in gts]
        mas = assign_mas(pyramid_grid, gts, MasConfig(use_center_prior=False))
        atss = assign_atss(pyramid_grid, gts, k=9, use_center_prior=False)
        assert mas.num_positives >= atss.num_positives
        mas_pos = set(np.nonzero(mas.gt_index >= 0)[0].tolist())
        atss_pos = set(np.nonzero(atss.gt_index >= 0)[0].tolist())
        assert atss_pos <= mas_pos


class TestAssignMaxIou:
    def test_band_between_thresholds_is_ignore(self):
        grid = generate_anchors(64, [8], 4)
        # the best anchor IoU for this box lands in (0.4, 0.5)
        gt = GroundTruth(normalize_obb(28.0, 28.0, 48.0, 20.0, 0.0))
        best = max(rotated_iou(grid.box(i), gt.box) for i in range(grid.num_anchors))
        assert 0.4 < best < 0.5
        result = assign_maxiou(grid, [gt], pos_thr=0.5, neg_thr=0.4)
        # fallback forces exactly one positive, the rest of the band is ignore
        assert result.positive_counts[0] == 1
        assert np.count_nonzero(result.gt_index == IGNORE) >= 1

    def test_high_iou_anchor_positive_for_argmax_gt(self):
        grid = generate_anchors(64, [8], 4)
        gt0 = GroundTruth(normalize_obb(28.0, 28.0, 32.0, 31.9, 0.0))
        gt1 = GroundTruth(normalize_obb(30.0, 28.0, 32.0, 31.9, 0.0))
        result = assign_maxiou(grid, [gt0, gt1], 0.5, 0.4)
        anchor = int(np.argmin(np.abs(grid.centers - [28, 28]).sum(axis=1)))
        assert result.gt_index[anchor] == 0  # higher IoU with gt0

    def test_low_quality_gt_gets_exactly_one_forced_positive(self, pyramid_grid):
        gt = GroundTruth(normalize_obb(500.0, 500.0, 90.0, 9.0, QP))
        best = max(
            rotated_iou(pyramid_grid.box(int(i)), gt.box)
            for i in np.nonzero(pyramid_grid.centers[:, 0] > 0)[0][:0:-1][:2000]
        )
        result = assign_maxiou(pyramid_grid, [gt], 0.5, 0.4)
        assert result.positive_counts[0] == 1

    def test_equal_iou_forced_anchor_goes_to_lower_gt_index(self):
        # two gts on one box: both claim the same best anchor at equal IoU;
        # gt 0 wins it and gt 1 takes its next-best anchor in the next round
        grid = generate_anchors(64, [8], 4)
        box = normalize_obb(28.0, 28.0, 40.0, 8.0, 0.3)
        contested = int(np.argmax(anchor_ious(grid, [box])[0]))
        result = assign_maxiou(grid, [GroundTruth(box, 1), GroundTruth(box, 2)], 0.5, 0.4)
        assert result.gt_index[contested] == 0
        assert result.positive_counts.tolist() == [1, 1]

    def test_loser_of_contested_forced_anchor_takes_its_next_best(self):
        # both gts are starved and want the same anchor; the higher IoU wins
        # it, whatever the gt order, and the loser gets its runner-up
        grid = generate_anchors(64, [8], 4)
        strong = GroundTruth(normalize_obb(28.0, 28.0, 40.0, 8.0, 0.0))
        weak = GroundTruth(normalize_obb(28.0, 28.0, 40.0, 6.0, 0.0))
        strong_ious, weak_ious = anchor_ious(grid, [strong.box, weak.box])
        contested = int(np.argmax(strong_ious))
        assert contested == int(np.argmax(weak_ious))
        assert weak_ious[contested] < strong_ious[contested] < 0.5
        weak_ious[contested] = 0.0
        runner_up = int(np.argmax(weak_ious))
        for gts in ([strong, weak], [weak, strong]):
            result = assign_maxiou(grid, gts, 0.5, 0.4)
            assert result.gt_index[contested] == gts.index(strong)
            assert result.gt_index[runner_up] == gts.index(weak)
            assert result.positive_counts.tolist() == [1, 1]

    def test_zero_pos_thr_labels_every_anchor(self):
        # every overlapping anchor claims the gt; every other anchor has
        # highest IoU 0 >= neg_thr and is ignored
        grid = generate_anchors(64, [8], 4)
        gt = GroundTruth(normalize_obb(28.0, 28.0, 20.0, 10.0, 0.3))
        ious = anchor_ious(grid, [gt.box])[0]
        assert 0 < np.count_nonzero(ious) < grid.num_anchors
        result = assign_maxiou(grid, [gt], 0.0, 0.0)
        assert np.array_equal(result.gt_index, np.where(ious > 0.0, 0, IGNORE))

    def test_thresholds_validated(self, pyramid_grid):
        with pytest.raises(ValueError):
            assign_maxiou(pyramid_grid, [], pos_thr=0.4, neg_thr=0.5)


class TestAssignAtss:
    def test_single_candidate_is_positive_with_center_hit(self):
        grid = generate_anchors(8, [8], 4)  # one anchor at (4, 4)
        gt = GroundTruth(normalize_obb(4.0, 4.0, 20.0, 10.0, 0.0))
        result = assign_atss(grid, [gt], k=1)
        assert result.positive_counts[0] == 1

    def test_three_candidate_statistics_example(self):
        # with candidate IoUs {0.3, 0.5, 0.7} only the 0.7 anchor passes 0.663
        _, _, init = iou_statistics([0.3, 0.5, 0.7])
        assert 0.5 < init < 0.7

    def test_no_anchor_is_both_positive_and_negative(self, pyramid_grid):
        rng = np.random.default_rng(31)
        gts = random_gts(rng, 10)
        result = assign_atss(pyramid_grid, gts, k=9)
        assert np.all((result.gt_index >= 0) | (result.gt_index == NEGATIVE))


@STRATEGIES
@pytest.mark.parametrize("scene", ["random", "crowded"])
def test_permutation_invariance(pyramid_grid, assign, scene):
    if scene == "random":
        grid, gts = pyramid_grid, random_gts(np.random.default_rng(29), 12)
    else:
        # 40 objects of 16-64 px in 256 px: starved gts contest anchors
        grid = generate_anchors(256, [8, 16, 32, 64, 128], 4)
        spec = SceneSpec(image_size=(256, 256), object_count=40, seed=90034, scale_range=(16.0, 64.0))
        gts = list(generate_scene(spec).gts)
    base = assign(grid, gts)
    perm = list(range(len(gts)))[::-1]
    permuted = assign(grid, [gts[p] for p in perm])
    remap = np.full_like(base.gt_index, NEGATIVE)
    for new_index, old_index in enumerate(perm):
        remap[permuted.gt_index == new_index] = old_index
    remap[permuted.gt_index == IGNORE] = IGNORE
    assert np.array_equal(remap, base.gt_index)


@STRATEGIES
def test_every_overlapping_gt_gets_a_positive(pyramid_grid, assign):
    rng = np.random.default_rng(17)
    for _ in range(10):
        gts = random_gts(rng, 15)
        result = assign(pyramid_grid, gts)
        for g, gt in enumerate(gts):
            cand = select_candidates(pyramid_grid, gt, 9)
            best = max(rotated_iou(pyramid_grid.box(int(i)), gt.box) for i in cand)
            if best > 0:
                assert result.positive_counts[g] >= 1


@given(gt_box=gts_near_anchors())
@example(gt_box=OrientedBox(19.999999999, 4.0, 32.0, 31.999999999, math.pi / 2))
@settings(max_examples=200, deadline=None)
def test_anchor_ious_match_rotated_iou(gt_box):
    ious = anchor_ious(SMALL_GRID, [gt_box])[0]
    assert np.all((ious >= 0.0) & (ious <= 1.0))
    expected = [rotated_iou(gt_box, SMALL_GRID.box(i)) for i in range(SMALL_GRID.num_anchors)]
    np.testing.assert_allclose(ious, expected, rtol=0.0, atol=1e-12)


@given(boxes=st.lists(clipping_gts(), min_size=1, max_size=4))
@example(boxes=[OrientedBox(19.999999999, 4.0, 32.0, 31.999999999, math.pi / 2)])
@settings(max_examples=200, deadline=None)
def test_scene_anchor_ious_are_bit_identical_to_the_scalar_clipper(boxes):
    # one kernel call for the scene, every gt against every anchor; the
    # int64 view also compares the sign of zero
    ious = anchor_ious(SMALL_GRID, boxes)
    assert len(ious) == len(boxes)
    for box, got in zip(boxes, ious):
        want = np.array([_iou(box, SMALL_GRID.box(i)) for i in range(SMALL_GRID.num_anchors)])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_scene_without_gts():
    for assign in (assign_maxiou, assign_atss, assign_mas):
        result = assign(SMALL_GRID, [])
        assert np.all(result.gt_index == NEGATIVE)
        assert result.positive_counts.size == 0 and result.thresholds.size == 0
    # every anchor's highest IoU is 0, which is in the ignore band at neg_thr 0
    assert np.all(assign_maxiou(SMALL_GRID, [], 0.0, 0.0).gt_index == IGNORE)
    assert np.all(assign_maxiou(SMALL_GRID, [], 0.5, 1e-300).gt_index == NEGATIVE)


def test_gt_with_empty_overlap_set():
    outside = normalize_obb(5e5, -5e5, 20.0, 10.0, 0.3)
    inside = normalize_obb(28.0, 28.0, 20.0, 10.0, 0.3)
    empty = overlapping_anchors(SMALL_GRID, outside)
    assert empty.size == 0
    cand = overlapping_anchors(SMALL_GRID, inside)
    owner = np.ones(cand.size, dtype=int)
    ious = ious_against_anchors(SMALL_GRID, [outside, inside, outside], owner, cand)
    assert ious.shape == (cand.size,)
    assert np.array_equal(ious, [_iou(inside, SMALL_GRID.box(int(i))) for i in cand])
    result = assign_maxiou(SMALL_GRID, [GroundTruth(outside), GroundTruth(inside)])
    assert result.positive_counts[0] == 0 and result.positive_counts[1] >= 1


# The threshold and centre-prior code as it stood before the table form, so
# that the oracle runs none of the code it checks.
def reference_iou_statistics(candidate_ious) -> tuple[float, float, float]:
    ious = np.asarray(candidate_ious, dtype=float)
    if ious.size == 0:
        raise ValueError("no candidate IoUs")
    if np.any(ious < 0.0) or np.any(ious > 1.0):
        raise ValueError("IoU values must lie in [0, 1]")
    mean = float(ious.mean())
    std = float(np.sqrt(np.mean((ious - mean) ** 2)))
    return mean, std, mean + std


def reference_mas_threshold(gt: GroundTruth, candidate_ious, cfg: MasConfig) -> float:
    _, _, init = reference_iou_statistics(candidate_ious)
    f = 1.0 if cfg.unit_weight else shape_weight(gt.aspect, gt.angle, cfg.gamma, cfg.lambda_mode, cfg.raw_lambda)
    return float(reference_clamped_threshold(f, init, cfg.threshold_clamp)[1])


def reference_clamped_threshold(f, init: float, clamp: tuple[float, float]):
    with np.errstate(over="ignore"):
        raw = np.multiply(f, init) if init else np.zeros_like(f)
    return raw, np.clip(raw, *clamp)


def reference_contains_points(box: OrientedBox, points: np.ndarray, atol: float = 0.0) -> np.ndarray:
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    x, y = pts[:, 0], pts[:, 1]
    c, s = math.cos(box.theta), math.sin(box.theta)
    dx = x - box.cx
    dy = y - box.cy
    lx = dx * c
    lx += dy * s
    np.abs(lx, out=lx)
    mask = lx <= 0.5 * box.w + atol
    dy *= c
    dy -= dx * s
    np.abs(dy, out=dy)
    mask &= dy <= 0.5 * box.h + atol
    return mask


def reference_fallback(gt_index, candidates, candidate_ious):
    """The starved-gt fallback over per-gt candidate lists, one Python loop
    over the starved gts per round: the oracle of the table form."""
    counts = np.bincount(gt_index[gt_index >= 0], minlength=len(candidates))
    forced = np.zeros(gt_index.shape, dtype=bool)
    while True:
        claims = []
        for g in np.flatnonzero(counts == 0).tolist():
            free = (candidate_ious[g] > 0.0) & ~forced[candidates[g]]
            if np.any(free):
                anchors, ious = candidates[g][free], candidate_ious[g][free]
                best = np.lexsort((anchors, -ious))[0]
                claims.append((anchors[best], ious[best], g))
        if not claims:
            return counts
        anchors, ious, gts = (np.array(column) for column in zip(*claims))
        won = np.unique(anchors)
        losers = gt_index[won]
        _resolve_claims(gt_index, anchors, ious, gts)
        counts -= np.bincount(losers[losers >= 0], minlength=counts.size)
        counts += np.bincount(gt_index[won], minlength=counts.size)
        forced[won] = True


def reference_assign(grid, gts, cfg):
    """The labelling pipeline over per-gt lists of candidates (from scans
    of the whole grid), IoUs and claims, with per-gt loops for the ignore
    band and the fallback: the oracle of the (gt, anchor, IoU) table in
    ``_assign``."""
    adaptive = isinstance(cfg, MasConfig)
    thresholds = np.zeros(len(gts))
    if adaptive:
        candidates = [brute_force_candidates(grid, gt, cfg.candidate_k) for gt in gts]
    else:
        candidates = [brute_force_overlaps(grid, gt.box) for gt in gts]
    candidate_ious = []
    if candidates:
        sizes = [cand.size for cand in candidates]
        indices = np.concatenate(candidates)
        owner = np.repeat(np.arange(len(candidates)), sizes)
        ious = ious_against_anchors(grid, [gt.box for gt in gts], owner, indices)
        candidate_ious = np.split(ious, np.cumsum(sizes)[:-1])
    claims = []
    for g, (gt, cand, ious) in enumerate(zip(gts, candidates, candidate_ious)):
        thresholds[g] = reference_mas_threshold(gt, ious, cfg) if adaptive else cfg.pos_thr
        eligible = (ious >= thresholds[g]) & (ious > 0.0)
        if adaptive and cfg.use_center_prior:
            eligible &= reference_contains_points(gt.box, grid.centers[cand])
        claims.append((cand[eligible], ious[eligible], np.full(np.count_nonzero(eligible), g)))
    gt_index = np.full(grid.num_anchors, NEGATIVE, dtype=int)
    if claims:
        _resolve_claims(gt_index, *(np.concatenate(column) for column in zip(*claims)))
    if not adaptive:
        max_iou = np.zeros(grid.num_anchors)
        for cand, ious in zip(candidates, candidate_ious):
            max_iou[cand] = np.maximum(max_iou[cand], ious)
        gt_index[(max_iou >= cfg.neg_thr) & (gt_index == NEGATIVE)] = IGNORE
    counts = reference_fallback(gt_index, candidates, candidate_ious)
    return AssignmentResult(gt_index=gt_index, thresholds=thresholds, positive_counts=counts)


CROWDED_GRID = generate_anchors(256, [8, 16, 32, 64, 128], 4)


def crowded_gts(seed, count):
    """``count`` objects of 16-64 px in a 256 px image: starved gts contest
    anchors, over several fallback rounds."""
    spec = SceneSpec(image_size=(256, 256), object_count=count, seed=seed, scale_range=(16.0, 64.0))
    return list(generate_scene(spec).gts)


@st.composite
def crowded_scenes(draw):
    """`crowded_gts` scenes of 20-60 objects, whose objects may come in up to
    8 identical copies, which contest the same anchors until their nonzero
    IoUs run out, plus up to 5 objects on an anchor, whose IoU 1 meets a
    threshold of 1, up to 3 axis-aligned objects centred on an anchor of
    stride s, with half-extents in multiples of s / 4, whose edges pass
    exactly through anchor centres of that level and the levels next to it
    (the centre prior's boundary) and whose shape weight may drop their
    threshold below those anchors' IoUs, and up to 2 far outside the image,
    whose candidates all have IoU 0."""
    count = draw(st.integers(20, 60))
    copies = draw(st.sampled_from([1, 2, 4, 8]))
    gts = [gt for gt in crowded_gts(draw(st.integers(0, 2**32 - 1)), count // copies) for _ in range(copies)]
    on_anchors = draw(st.lists(st.integers(0, CROWDED_GRID.num_anchors - 1), max_size=5))
    quarters = st.tuples(st.integers(0, CROWDED_GRID.num_anchors - 1), st.integers(1, 16), st.integers(1, 4))
    edged = [(CROWDED_GRID.box(i), a, b) for i, a, b in draw(st.lists(quarters, max_size=3))]
    outside = [GroundTruth(normalize_obb(5e5, -5e5, 20.0, 10.0, 0.3))] * draw(st.integers(0, 2))
    return (
        gts
        + [GroundTruth(CROWDED_GRID.box(i)) for i in on_anchors]
        + [GroundTruth(normalize_obb(c.cx, c.cy, a * c.w / 8, b * c.w / 8, 0.0)) for c, a, b in edged]  # side 4 s
        + outside
    )


@st.composite
def assignment_configs(draw):
    """A maxiou config with thresholds that may be 0, or an ATSS or MAS
    config with any k and centre prior, either lambda mode, the signed
    lambda, a gamma small enough to saturate the shape weight, and the
    widest clamp."""
    strategy = draw(st.sampled_from(["maxiou", "atss", "mas"]))
    if strategy == "maxiou":
        thr = st.one_of(st.sampled_from([0.0, 0.3, 0.4, 0.5, 1.0]), st.floats(0.0, 1.0))
        neg_thr, pos_thr = sorted([draw(thr), draw(thr)])
        return MaxIouConfig(pos_thr, neg_thr)
    return MasConfig(
        gamma=draw(st.sampled_from([0.001, 0.5, 2.0, 5.0])),
        lambda_mode=draw(st.sampled_from([ANGLE_DEPENDENT, CONSTANT_ONE])),
        candidate_k=draw(st.one_of(st.just(1), st.integers(1, 16))),
        threshold_clamp=draw(st.sampled_from([(0.05, 0.95), (0.0, 1.0)])),
        use_center_prior=draw(st.booleans()),
        raw_lambda=draw(st.booleans()),
        unit_weight=strategy == "atss",
    )


@given(gts=crowded_scenes(), cfg=assignment_configs())
@example(gts=crowded_gts(90034, 40), cfg=MaxIouConfig())
@example(gts=crowded_gts(90034, 40), cfg=MaxIouConfig(0.0, 0.0))
@example(gts=[GroundTruth(CROWDED_GRID.box(300))] * 2, cfg=MaxIouConfig(1.0, 0.5))
@settings(max_examples=100, deadline=None)
def test_table_pipeline_matches_per_gt_reference(gts, cfg):
    # int64 views also compare the thresholds' bits
    got, want = _assign(CROWDED_GRID, gts, cfg), reference_assign(CROWDED_GRID, gts, cfg)
    for name in ("gt_index", "thresholds", "positive_counts"):
        assert np.array_equal(getattr(got, name).view(np.int64), getattr(want, name).view(np.int64)), name


@STRATEGIES
def test_crowded_scene_needs_several_fallback_rounds(monkeypatch, assign):
    # one claim resolution for the thresholds' claims, then one per round
    calls = []
    monkeypatch.setattr(assignment, "_resolve_claims", lambda *args: calls.append(_resolve_claims(*args)))
    assign(CROWDED_GRID, crowded_gts(90034, 40))
    assert len(calls) - 1 >= 2


@given(
    index=st.integers(0, SMALL_GRID.num_anchors - 1),
    jitter=st.sampled_from([0.0, 1e-9, -1e-9]),
    assign=st.sampled_from([assign_maxiou, assign_atss, assign_mas]),
)
@settings(max_examples=200, deadline=None)
def test_gt_on_any_anchor_gets_a_positive(index, jitter, assign):
    anchor = SMALL_GRID.box(index)
    gt = GroundTruth(normalize_obb(anchor.cx + jitter, anchor.cy, anchor.w, anchor.h - jitter, jitter))
    assert assign(SMALL_GRID, [gt]).positive_counts[0] >= 1


@pytest.mark.parametrize("assign", [assign_atss, assign_mas])
def test_gt_coinciding_with_anchor_up_to_rounding(pyramid_grid, assign):
    # rounding puts the IoU with the anchor at (284, 4) a hair above 1
    gt = GroundTruth(normalize_obb(284, 4, 32, 32 * (1 - 1e-15), math.pi / 2))
    result = assign(pyramid_grid, [gt])
    assert result.positive_counts[0] >= 1
    assert result.thresholds[0] <= 1.0


def assert_same_result(got, want):
    # int64 views also compare the thresholds' bits
    for name in ("gt_index", "thresholds", "positive_counts"):
        assert np.array_equal(getattr(got, name).view(np.int64), getattr(want, name).view(np.int64)), name


@st.composite
def pruning_cases(draw):
    """A maxiou scene and thresholds for the bound-pruned clipping: crowded
    objects, objects far smaller (down to 1e-3 px) and far larger (up to
    4096 px) than every anchor of `CROWDED_GRID` (32 to 512 px), and objects
    on an anchor (IoU 1); ``neg_thr`` is 0, equal to ``pos_thr`` or anywhere
    below it."""
    gts = crowded_gts(draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 30)))
    centre = st.floats(-64.0, 320.0)
    for edges in (st.floats(1e-3, 4.0), st.floats(1024.0, 4096.0)):
        for _ in range(draw(st.integers(0, 4))):
            box = normalize_obb(draw(centre), draw(centre), draw(edges), draw(edges), draw(st.floats(-4, 4)))
            gts.append(GroundTruth(box))
    on_anchors = draw(st.lists(st.integers(0, CROWDED_GRID.num_anchors - 1), max_size=3))
    gts += [GroundTruth(CROWDED_GRID.box(i)) for i in on_anchors]
    thr = st.one_of(st.sampled_from([0.0, 0.05, 0.4, 0.5, 1.0]), st.floats(0.0, 1.0))
    neg_thr = draw(thr)
    pos_thr = draw(st.one_of(st.just(neg_thr), st.floats(neg_thr, 1.0)))
    order = draw(st.permutations(range(len(gts))))
    return [gts[i] for i in order], MaxIouConfig(pos_thr, neg_thr)


@given(case=pruning_cases())
@settings(max_examples=100, deadline=None)
def test_pruned_maxiou_matches_per_gt_reference(case):
    gts, cfg = case
    assert_same_result(_assign(CROWDED_GRID, gts, cfg), reference_assign(CROWDED_GRID, gts, cfg))


# One row of 2**14 cells of 64 px anchors (64 px stride) and one of 256 px
# anchors: centres up to 1e6 px from the origin.
FAR_GRID = generate_anchors((2**20, 64), [64.0, 256.0], 1)


@given(
    cx=st.floats(4e5, 5e5),
    cy=st.floats(0.0, 64.0),
    edges=st.tuples(st.floats(8.0, 300.0), st.floats(8.0, 300.0)),
    theta=st.one_of(st.sampled_from([0.0, 1e-12, 1e-9, QP, 2 * QP]), st.floats(-QP, 3 * QP)),
    pick=st.integers(0, 2**16),
    step=st.sampled_from([-1e-12, -1, 0, 1, 1e-12]),
    pos_step=st.sampled_from([0.0, 1e-12, 0.1, 1.0]),
)
@settings(max_examples=150, deadline=None)
def test_rows_at_neg_thr_far_from_the_origin_are_clipped(cx, cy, edges, theta, pick, step, pos_step):
    # neg_thr within 1e-12 (or one ulp) of a row's clipped IoU, so the bound
    # margin alone decides whether that row is pending; axis-aligned boxes
    # make the bound within rounding of the IoU
    gt = GroundTruth(normalize_obb(cx, cy, *edges, theta))
    cand = overlapping_anchors(FAR_GRID, gt.box)
    ious = ious_against_anchors(FAR_GRID, [gt.box], np.zeros(cand.size, dtype=int), cand)
    iou = float(ious[pick % ious.size])
    neg_thr = min(1.0, max(0.0, np.nextafter(iou, step) if abs(step) == 1 else iou + step))
    cfg = MaxIouConfig(min(1.0, neg_thr + pos_step), neg_thr)
    neighbour = GroundTruth(normalize_obb(cx + edges[0] / 3, cy, edges[1], edges[0], theta + 0.1))
    for gts in ([gt], [gt, neighbour]):
        assert_same_result(_assign(FAR_GRID, gts, cfg), reference_assign(FAR_GRID, gts, cfg))


def test_starved_gt_with_every_row_pending_takes_the_last_positive_of_another(monkeypatch):
    # gt 0 is anchor a, its only row at IoU 1 >= 0.9; its other rows (0.6 at
    # most) and every row of gt 1, a 20 px square inside a, are below
    # neg_thr, so pending. gt 1 is starved and its best anchor is a: it takes
    # a from gt 0, which is then starved and re-claims from pending rows.
    grid = generate_anchors(64, [8], 4)
    a = int(np.argmin(np.abs(grid.centers - [28, 28]).sum(axis=1)))
    owner_of_a = GroundTruth(grid.box(a))
    inside = GroundTruth(normalize_obb(28.0, 28.0, 20.0, 20.0, 0.0))
    gts = [owner_of_a, inside]
    cand = overlapping_anchors(grid, inside.box)
    ious = ious_against_anchors(grid, [inside.box], np.zeros(cand.size, dtype=int), cand)
    assert cand[np.argmax(ious)] == a and np.max(ious) < 0.9
    calls = []
    real = assignment._ious_between
    monkeypatch.setattr(assignment, "_ious_between", lambda *args: calls.append(np.size(args[1])) or real(*args))
    result = assign_maxiou(grid, gts, 0.9, 0.9)
    assert calls[0] == 1  # only (gt 0, a) is clipped up front
    assert result.gt_index[a] == 1
    runner_up = anchor_ious(grid, [owner_of_a.box])[0]
    runner_up[a] = 0.0
    assert result.gt_index[int(np.argmax(runner_up))] == 0
    assert result.positive_counts.tolist() == [1, 1]
    assert_same_result(result, reference_assign(grid, gts, MaxIouConfig(0.9, 0.9)))


def test_maxiou_clips_fewer_rows_than_its_overlap_table(pyramid_grid, monkeypatch):
    rows = []
    real = assignment._ious_between
    monkeypatch.setattr(assignment, "_ious_between", lambda *args: rows.append(np.size(args[1])) or real(*args))
    gts = list(generate_scene(SceneSpec(seed=3)).gts)
    lo, hi = np.array([box_bounds(gt.box) for gt in gts]).transpose(1, 0, 2)
    table = _overlapping_anchor_indices(pyramid_grid, lo, hi)[0].size
    assign_maxiou(pyramid_grid, gts)
    assert 0 < sum(rows) < table
    rows.clear()
    assign_maxiou(pyramid_grid, gts, 0.5, 0.0)
    assert rows == [table]


@STRATEGIES
def test_fallback_rounds_read_only_the_rows_of_gts_that_can_claim(monkeypatch, assign):
    # a round's winners hold forced anchors for good, so every round after
    # the first reads the runs of fewer gts than the whole table
    tables, rounds = [], []
    fallback, runs = assignment._apply_fallback, assignment._runs

    def spy_fallback(gt_index, table, num_gts):
        tables.append(table.owner.size)
        return fallback(gt_index, table, num_gts)

    def spy_runs(firsts, sizes):
        if tables:  # inside the fallback
            rounds.append(int(sizes.sum()))
        return runs(firsts, sizes)

    monkeypatch.setattr(assignment, "_apply_fallback", spy_fallback)
    monkeypatch.setattr(assignment, "_runs", spy_runs)
    assign(CROWDED_GRID, crowded_gts(90034, 40))
    assert len(rounds) >= 3
    assert all(rows < tables[0] for rows in rounds[1:])


@st.composite
def config_lists(draw):
    """The configs of one multi-config call: up to three drawn by
    `assignment_configs`, plus an ATSS and a MAS config that share their
    candidate_k or not, each with the centre prior on or off, in any
    order. k runs from 1 to past the 4 cells of the coarsest level."""
    k = draw(st.integers(1, 16))
    atss_k = draw(st.sampled_from([k, draw(st.integers(1, 16))]))
    atss = MasConfig(candidate_k=atss_k, use_center_prior=draw(st.booleans()), unit_weight=True)
    mas = MasConfig(candidate_k=k, use_center_prior=draw(st.booleans()))
    return draw(st.permutations([*draw(st.lists(assignment_configs(), max_size=3)), atss, mas]))


@given(
    gts=st.one_of(st.just([]), st.integers(0, 2**32 - 1).map(lambda seed: crowded_gts(seed, 1)), crowded_scenes()),
    cfgs=config_lists(),
)
@example(gts=[], cfgs=[MaxIouConfig(0.0, 0.0), MasConfig(unit_weight=True), MasConfig()])
@example(gts=crowded_gts(90034, 1), cfgs=[MasConfig(candidate_k=1, unit_weight=True), MasConfig(candidate_k=1)])
@example(
    gts=crowded_gts(90034, 40),
    cfgs=[
        MaxIouConfig(),
        MaxIouConfig(0.5, 0.1),
        MasConfig(candidate_k=5, unit_weight=True),
        MasConfig(candidate_k=16, use_center_prior=False),
    ],
)
@settings(max_examples=40, deadline=None)
def test_one_call_labels_each_config_as_its_own_call(gts, cfgs):
    results = assignment._assign_all(CROWDED_GRID, gts, cfgs)
    assert len(results) == len(cfgs)
    for got, cfg in zip(results, cfgs):
        assert_same_result(got, _assign(CROWDED_GRID, gts, cfg))
        assert_same_result(got, reference_assign(CROWDED_GRID, gts, cfg))


def meshgrid_anchors(image_size, strides, scale_multiplier):
    """The centres and sides of the anchor grid, built level by level by
    meshgrid, stack and concatenate."""
    cfg = AnchorsConfig(tuple(float(s) for s in strides), scale_multiplier)
    levels = [(stride, w, h, stride * scale_multiplier) for stride, (w, h) in zip(cfg.strides, cfg.level_shapes(image_size))]
    bounds = np.cumsum([0] + [w * h for _, w, h, _ in levels]).tolist()
    centers = []
    for stride, w, h, _ in levels:
        ix, iy = np.meshgrid(np.arange(w), np.arange(h))
        centers.append(np.stack([(ix.ravel() + 0.5) * stride, (iy.ravel() + 0.5) * stride], axis=1))
    return np.concatenate(centers, axis=0), np.repeat([side for *_, side in levels], np.diff(bounds))


@given(
    size=st.tuples(st.integers(1, 300), st.integers(1, 300)),
    strides=st.lists(st.sampled_from([1.0, 2.5, 3.0, 7.3, 8.0, 16.0, 100.0, 512.0]), min_size=1, max_size=4, unique=True),
    multiplier=st.one_of(st.sampled_from([1.0, 4.0]), st.floats(0.1, 10.0)),
)
@example(size=(1, 1), strides=[8.0], multiplier=4.0)
@example(size=(100, 60), strides=[7.3, 32.0], multiplier=2.5)
@settings(max_examples=100, deadline=None)
def test_anchor_grid_matches_meshgrid_construction(size, strides, multiplier):
    grid = generate_anchors(size, sorted(strides), multiplier)
    centers, sizes = meshgrid_anchors(size, sorted(strides), multiplier)
    for got, want in ((grid.centers, centers), (grid.sizes, sizes)):
        assert got.shape == want.shape and got.dtype == want.dtype == np.float64
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestThresholdMonotonicity:
    def test_dense_grid_pre_clamp(self):
        gammas = [3.0, 5.0, 7.0]
        aspects = np.linspace(1.0, 12.0, 60)
        angles = np.linspace(-QP, 3 * QP, 64, endpoint=False)
        for gamma in gammas:
            f = np.array([[shape_weight(float(a), float(t), gamma) for t in angles] for a in aspects])
            # decreasing in aspect for every angle
            assert np.all(np.diff(f, axis=0) < 0)
            # non-increasing with distance from the nearest equilibrium
            dist = np.minimum(np.abs(angles), np.abs(angles - math.pi / 2))
            order = np.argsort(dist, kind="stable")
            assert np.all(np.diff(f[:, order], axis=1) <= 1e-12)


class TestSceneSweepComparison:
    def test_mas_admits_more_positives_for_hard_objects(self, pyramid_grid):
        spec = SceneSpec(
            placement="grid-sweep",
            aspect_range=(3.0, 10.0),
            aspect_bins=6,
            angle_bins=8,
            scale_range=(48.0, 96.0),
            seed=77,
        )
        scene = generate_scene(spec)
        gts = list(scene.gts)
        mas = assign_mas(pyramid_grid, gts, MasConfig(gamma=5.0))
        maxiou = assign_maxiou(pyramid_grid, gts, 0.5, 0.4)
        zero_mas = int(np.sum(mas.positive_counts == 0))
        zero_maxiou = int(np.sum(maxiou.positive_counts == 0))
        assert zero_mas <= zero_maxiou
        assert mas.positive_counts.mean() > maxiou.positive_counts.mean()
