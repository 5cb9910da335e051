import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from obblab.assignment import (
    CONSTANT_ONE,
    IGNORE,
    NEGATIVE,
    AnchorGrid,
    AnchorsConfig,
    GroundTruth,
    MasConfig,
    angle_weight,
    assign_atss,
    assign_maxiou,
    assign_mas,
    generate_anchors,
    iou_statistics,
    mas_threshold,
    select_candidates,
    shape_weight,
    _ious_against_anchors,
)
from obblab.geometry import OrientedBox, center_distance, normalize_obb, rotated_iou
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

    def test_against_brute_force_distance_sort(self, pyramid_grid):
        rng = np.random.default_rng(3)
        for _ in range(10):
            gt = random_gts(rng, 1)[0]
            picked = select_candidates(pyramid_grid, gt, 9)
            assert len(picked) == 45
            for level_slice in pyramid_grid.level_slices:
                level_picked = [p for p in picked if level_slice.start <= p < level_slice.stop]
                dists = [center_distance(pyramid_grid.box(i), gt.box) for i in range(level_slice.start, level_slice.stop)]
                best9 = np.sort(np.array(dists))[:9]
                got = np.sort([center_distance(pyramid_grid.box(int(i)), gt.box) for i in level_picked])
                assert got == pytest.approx(best9)


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
        contested = int(np.argmax(_ious_against_anchors(grid, np.arange(grid.num_anchors), box)))
        result = assign_maxiou(grid, [GroundTruth(box, 1), GroundTruth(box, 2)], 0.5, 0.4)
        assert result.gt_index[contested] == 0
        assert result.positive_counts.tolist() == [1, 1]

    def test_loser_of_contested_forced_anchor_takes_its_next_best(self):
        # both gts are starved and want the same anchor; the higher IoU wins
        # it, whatever the gt order, and the loser gets its runner-up
        grid = generate_anchors(64, [8], 4)
        every = np.arange(grid.num_anchors)
        strong = GroundTruth(normalize_obb(28.0, 28.0, 40.0, 8.0, 0.0))
        weak = GroundTruth(normalize_obb(28.0, 28.0, 40.0, 6.0, 0.0))
        strong_ious = _ious_against_anchors(grid, every, strong.box)
        weak_ious = _ious_against_anchors(grid, every, weak.box)
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
        ious = _ious_against_anchors(grid, np.arange(grid.num_anchors), gt.box)
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
    ious = _ious_against_anchors(SMALL_GRID, np.arange(SMALL_GRID.num_anchors), gt_box)
    assert np.all((ious >= 0.0) & (ious <= 1.0))
    expected = [rotated_iou(gt_box, SMALL_GRID.box(i)) for i in range(SMALL_GRID.num_anchors)]
    np.testing.assert_allclose(ious, expected, rtol=0.0, atol=1e-12)


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
