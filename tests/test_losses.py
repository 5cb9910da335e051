import gc
import logging
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from obblab.assignment import IGNORE, NEGATIVE, AssignmentResult, GroundTruth, MasConfig, assign_mas, generate_anchors
from obblab.geometry import normalize_obb
from obblab.losses import (
    _BLOCK_ROWS,
    _focal_sum,
    BetaState,
    BoxDelta,
    LossTargets,
    MultiTaskLossConfig,
    SmoothL1Config,
    box_deltas,
    build_loss_targets,
    decode_box_deltas,
    focal_loss,
    focal_loss_grad,
    multi_task_loss,
    scale_similarity,
    smooth_l1,
    smooth_l1_grad,
    _row_medians,
    update_beta,
    update_betas,
    wrap_angle_delta,
)

QP = math.pi / 4.0


class TestBoxDeltas:
    def test_identity(self):
        box = normalize_obb(3, 4, 10, 5, 0.3)
        delta = box_deltas(box, box)
        assert delta.as_array() == pytest.approx(np.zeros(5))

    def test_log_width_ratio(self):
        anchor = normalize_obb(0, 0, 10, 4, 0.1)
        gt = normalize_obb(0, 0, 10 * math.e, 4, 0.1)
        assert box_deltas(anchor, gt).dw == pytest.approx(1.0)

    def test_round_trip_random_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            anchor = normalize_obb(
                rng.uniform(-50, 50), rng.uniform(-50, 50),
                rng.uniform(1, 40), rng.uniform(1, 40), rng.uniform(-3, 3),
            )
            gt = normalize_obb(
                rng.uniform(-50, 50), rng.uniform(-50, 50),
                rng.uniform(1, 40), rng.uniform(1, 40), rng.uniform(-3, 3),
            )
            back = decode_box_deltas(anchor, box_deltas(anchor, gt))
            assert back.cx == pytest.approx(gt.cx, abs=1e-9)
            assert back.cy == pytest.approx(gt.cy, abs=1e-9)
            assert back.w == pytest.approx(gt.w, abs=1e-9)
            assert back.h == pytest.approx(gt.h, abs=1e-9)
            dtheta = abs(back.theta - gt.theta)
            assert min(dtheta, math.pi - dtheta) == pytest.approx(0, abs=1e-9)

    def test_angle_delta_wrapped_range(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            delta = wrap_angle_delta(rng.uniform(-10, 10))
            assert -math.pi / 2 < delta <= math.pi / 2
        assert wrap_angle_delta(math.pi / 2) == pytest.approx(math.pi / 2)
        assert wrap_angle_delta(-math.pi / 2) == pytest.approx(math.pi / 2)


class TestSmoothL1:
    def test_zero(self):
        assert smooth_l1(0.0, 1.0) == 0.0

    def test_knee_continuity(self):
        beta = 0.7
        assert smooth_l1(beta, beta) == pytest.approx(0.5 * beta)
        assert smooth_l1(beta - 1e-12, beta) == pytest.approx(0.5 * beta, abs=1e-9)

    def test_linear_branch(self):
        assert smooth_l1(2.0, 1.0) == 1.5
        assert smooth_l1(-2.0, 1.0) == 1.5

    def test_gradient_values(self):
        assert smooth_l1_grad(0.0, 1.0) == 0.0
        assert smooth_l1_grad(10.0, 1.0) == 1.0
        assert smooth_l1_grad(0.5, 1.0) == 0.5
        assert smooth_l1_grad(-10.0, 1.0) == -1.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        beta = 1.0
        step = 1e-6
        count = 0
        while count < 1000:
            x = float(rng.uniform(-4, 4))
            if abs(abs(x) - beta) < 1e-4 or abs(x) < step:
                continue
            fd = (smooth_l1(x + step, beta) - smooth_l1(x - step, beta)) / (2 * step)
            ana = smooth_l1_grad(x, beta)
            assert abs(ana - fd) / max(abs(fd), 1e-12) < 1e-5
            count += 1

    def test_beta_monotonicity_claims(self):
        # loss non-increasing in beta on the linear regime, gradient
        # magnitude non-increasing in beta everywhere
        betas = np.linspace(0.05, 2.0, 50)
        for x in (0.01, 0.5, 1.5, 3.0, -2.0):
            linear = [smooth_l1(x, float(b)) for b in betas if abs(x) >= b]
            assert all(a >= b for a, b in zip(linear, linear[1:]))
            grads = [abs(smooth_l1_grad(x, float(b))) for b in betas]
            assert all(a >= b - 1e-12 for a, b in zip(grads, grads[1:]))

    def test_convex_even(self):
        xs = np.linspace(-3, 3, 101)
        vals = smooth_l1(xs, 0.8)
        assert vals == pytest.approx(smooth_l1(-xs, 0.8))
        second = np.diff(vals, 2)
        assert np.all(second >= -1e-9)

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            smooth_l1(1.0, 0.0)
        with pytest.raises(ValueError):
            smooth_l1_grad(1.0, -1.0)


class TestFocalLoss:
    def test_reference_value(self):
        assert focal_loss(0.5, 1, alpha=0.25, gamma=2.0) == pytest.approx(0.25 * 0.25 * math.log(2))

    def test_gamma_zero_reduces_to_weighted_cross_entropy(self):
        p = 0.73
        assert focal_loss(p, 1, alpha=0.5, gamma=0.0) == pytest.approx(-0.5 * math.log(p))
        assert focal_loss(p, 0, alpha=0.5, gamma=0.0) == pytest.approx(-0.5 * math.log(1 - p))

    def test_easy_positive_downweighted_to_zero(self):
        assert focal_loss(1.0 - 1e-9, 1) == pytest.approx(0.0, abs=1e-12)

    def test_extreme_probabilities_clamped(self):
        assert math.isfinite(focal_loss(0.0, 1))
        assert math.isfinite(focal_loss(1.0, 0))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        step = 1e-6
        for i in range(1000):
            p = float(rng.uniform(0.001, 0.999))
            t = i % 2
            fd = (focal_loss(p + step, t) - focal_loss(p - step, t)) / (2 * step)
            ana = focal_loss_grad(p, t)
            assert abs(ana - fd) / max(abs(fd), 1e-12) < 1e-5

    def test_gamma_zero_gradient(self):
        p = 0.4
        assert focal_loss_grad(p, 1, alpha=0.5, gamma=0.0) == pytest.approx(-0.5 / p)

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.7, 1.0])
    @pytest.mark.parametrize("shape", [(), (257,), (16, 9)])
    def test_gamma_zero_gradient_is_weighted_cross_entropy_bit_for_bit(self, alpha, shape):
        rng = np.random.default_rng(17)
        p = rng.uniform(0.001, 0.999, shape)
        t = rng.integers(0, 2, shape)
        expected = np.where(t == 1, -alpha / p, (1.0 - alpha) / (1.0 - p))
        got = focal_loss_grad(p, t, alpha=alpha, gamma=0.0)
        assert np.asarray(got).tobytes() == expected.tobytes()


class TestScaleSimilarity:
    def test_equal_areas(self):
        a = normalize_obb(0, 0, 8, 5, 0.2)
        b = normalize_obb(9, 9, 10, 4, 1.0)
        assert scale_similarity(a, b) == 1.0

    def test_quarter_area(self):
        prop = normalize_obb(0, 0, 20, 8, 0)
        gt = normalize_obb(0, 0, 10, 4, 0)
        assert scale_similarity(prop, gt) == pytest.approx(0.5)

    def test_symmetric(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            a = normalize_obb(0, 0, rng.uniform(1, 30), rng.uniform(1, 30), 0)
            b = normalize_obb(0, 0, rng.uniform(1, 30), rng.uniform(1, 30), 0)
            assert scale_similarity(a, b) == scale_similarity(b, a)
            assert 0 < scale_similarity(a, b) <= 1


class TestUpdateBeta:
    def test_median_target_example(self):
        state = update_beta(BetaState(), [0.6, 0.8, 0.9])
        assert state.history == pytest.approx(0.2)
        assert state.beta_scale == pytest.approx(0.9 * 1.0 + 0.1 * 0.2)

    def test_perfect_similarity_converges_to_floor(self):
        state = BetaState()
        for _ in range(500):
            state = update_beta(state, [1.0, 1.0])
        assert state.beta_scale == state.clamp[0]

    def test_zero_momentum_jumps_to_target(self):
        state = update_beta(BetaState(momentum=0.0), [0.5])
        assert state.beta_scale == 0.5

    def test_empty_batch_unchanged_and_logged(self, caplog):
        state = BetaState(beta_scale=0.4)
        with caplog.at_level(logging.WARNING, logger="obblab.losses"):
            out = update_beta(state, [])
        assert out == state
        assert any("no similarities" in record.message for record in caplog.records)

    def test_clamp_always_holds(self):
        rng = np.random.default_rng(17)
        state = BetaState(beta_scale=0.5, momentum=0.3, clamp=(0.1, 0.6))
        for _ in range(300):
            sims = rng.uniform(0, 1, size=rng.integers(1, 8))
            state = update_beta(state, sims)
            assert 0.1 <= state.beta_scale <= 0.6

    def test_step_bounded_by_momentum(self):
        rng = np.random.default_rng(19)
        state = BetaState(beta_scale=0.5, momentum=0.8)
        for _ in range(100):
            sims = rng.uniform(0.2, 1.0, size=5)
            new = update_beta(state, sims)
            target = float(np.median(1 - sims))
            assert abs(new.beta_scale - state.beta_scale) <= (1 - 0.8) * abs(target - state.beta_scale) + 1e-12
            state = new

    def test_target_permutation_invariant(self):
        sims = [0.9, 0.3, 0.55, 0.7, 0.1]
        a = update_beta(BetaState(), sims)
        b = update_beta(BetaState(), sims[::-1])
        assert a.history == b.history

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("statistic, k", [("median", None), ("kth-smallest", 1)])
    def test_non_finite_similarity_raises(self, bad, statistic, k):
        # a NaN median used to drop the knee to its lower clamp
        with pytest.raises(ValueError, match="finite"):
            update_beta(BetaState(), [bad, 0.5, 0.9], statistic, k)

    def test_kth_smallest_mode(self):
        state = update_beta(BetaState(momentum=0.0), [0.6, 0.8, 0.9], statistic="kth-smallest", k=1)
        assert state.history == pytest.approx(0.1)  # smallest mismatch
        with pytest.raises(ValueError):
            update_beta(BetaState(), [0.5], statistic="kth-smallest", k=5)

    def test_state_validation(self):
        with pytest.raises(ValueError):
            BetaState(beta_scale=2.0, clamp=(0.1, 1.0))
        with pytest.raises(ValueError):
            BetaState(momentum=1.0)


def reference_update_beta(state, similarities, statistic="median", k=None):
    """``update_beta`` as written before ``update_betas``, verbatim but for
    its empty-batch warning."""
    sims = np.asarray(list(similarities), dtype=float)
    if sims.size == 0:
        return state
    if not np.all(np.isfinite(sims)):
        raise ValueError("similarities must be finite")
    mismatch = 1.0 - sims
    if statistic == "median":
        target = float(np.median(mismatch))
    elif statistic == "kth-smallest":
        if k is None or not 1 <= k <= mismatch.size:
            raise ValueError("kth-smallest needs 1 <= k <= batch size")
        target = float(np.sort(mismatch)[k - 1])
    else:
        raise ValueError(f"unknown statistic {statistic!r}")
    lo, hi = state.clamp
    new_beta = state.momentum * state.beta_scale + (1.0 - state.momentum) * target
    return replace(state, beta_scale=min(hi, max(lo, new_beta)), history=target)


TINY = 5e-324
# values with ties, both zeros, subnormals and the float range's edges
KNEE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, TINY, -TINY, 2.2250738585072014e-308, 0.5, 1.0, 1.0 - 2**-53, 1e308, -1e308]),
    st.floats(-1e308, 1e308),
    st.floats(0.0, 1.0),
)
BETA_STATES = st.sampled_from([
    BetaState(),
    BetaState(momentum=0.0),
    BetaState(beta_scale=0.5, momentum=0.3, clamp=(0.1, 0.6)),
    BetaState(beta_scale=TINY, momentum=0.999, clamp=(TINY, 1e308)),
])


@st.composite
def knee_batches(draw):
    steps = draw(st.integers(1, 5))
    batch = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 31, 32, 63, 64]))
    pool = draw(st.lists(KNEE_VALUES, min_size=1, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = rng.uniform(-1.0, 2.0, draw(st.sampled_from([0, batch])))
    return rng.choice(np.concatenate([pool, distinct]), (steps, batch))  # each value may repeat


@given(values=knee_batches())
@settings(max_examples=300, deadline=None)
@example(values=np.array([[-0.0], [-0.0]]))
@example(values=np.array([[-0.0, -0.0], [TINY, -TINY], [-1e308, -1e308]]))
def test_row_medians_are_np_median_bit_for_bit(values):
    got = _row_medians(values)
    with np.errstate(over="ignore"):
        want = np.array([np.median(row) for row in values])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@given(sims=knee_batches(), state=BETA_STATES, statistic=st.sampled_from(["median", "kth-smallest"]), pick=st.integers(0, 63))
@settings(max_examples=300, deadline=None)
@example(sims=np.array([[1e308, -1e308, 1e308, -1e308]]), state=BetaState(), statistic="median", pick=0)
def test_update_betas_is_a_loop_of_the_scalar_update(sims, state, statistic, pick):
    k = 1 + pick % sims.shape[1] if statistic == "kth-smallest" else None
    targets, betas, final = update_betas(state, sims, statistic, k)
    want, want_targets, want_betas = state, [], []
    for row in sims:
        with np.errstate(over="ignore"):
            one = update_beta(want, row, statistic, k)
            want = reference_update_beta(want, row, statistic, k)
        assert (_bits(one.beta_scale), _bits(one.history)) == (_bits(want.beta_scale), _bits(want.history))
        want_targets.append(want.history)
        want_betas.append(want.beta_scale)
    assert np.array_equal(targets.view(np.int64), np.array(want_targets).view(np.int64))
    assert np.array_equal(betas.view(np.int64), np.array(want_betas).view(np.int64))
    assert (_bits(final.beta_scale), _bits(final.history)) == (_bits(want.beta_scale), _bits(want.history))
    assert (final.momentum, final.clamp) == (state.momentum, state.clamp)


def test_update_betas_shapes():
    targets, betas, state = update_betas(BetaState(beta_scale=0.4), np.zeros((0, 3)))
    assert targets.shape == betas.shape == (0,) and state == BetaState(beta_scale=0.4)
    for bad in (np.zeros((2, 0)), np.zeros(3), np.zeros((1, 2, 3))):
        with pytest.raises(ValueError, match="steps, batch"):
            update_betas(BetaState(), bad)


@pytest.fixture(scope="module")
def small_assignment():
    grid = generate_anchors(128, [8, 16], 4)
    gts = [
        GroundTruth(normalize_obb(36.0, 36.0, 34.0, 30.0, 0.0), class_id=1),
        GroundTruth(normalize_obb(90.0, 90.0, 60.0, 24.0, 0.5), class_id=0),
    ]
    assignment = assign_mas(grid, gts, MasConfig())
    return grid, gts, assignment


class TestMultiTaskLoss:
    def test_perfect_predictions_near_zero(self, small_assignment):
        grid, gts, assignment = small_assignment
        targets = build_loss_targets(grid, gts, assignment)
        eps = 1e-9
        cls_pred = np.full((grid.num_anchors, 2), eps)
        for anchor in np.nonzero(assignment.gt_index >= 0)[0]:
            cls_pred[anchor, targets.class_ids[anchor]] = 1 - eps
        breakdown = multi_task_loss(assignment, targets.deltas, cls_pred, targets)
        assert breakdown.total <= 1e-6
        assert breakdown.num_positives == assignment.num_positives

    def test_zero_positives_gives_cls_only(self):
        grid = generate_anchors(64, [8], 4)
        assignment = assign_mas(grid, [], MasConfig())
        targets = LossTargets(deltas=np.zeros((grid.num_anchors, 5)), class_ids=np.zeros(grid.num_anchors, dtype=int))
        deltas_pred = np.ones((grid.num_anchors, 5))
        cls_pred = np.full((grid.num_anchors, 1), 0.3)
        breakdown = multi_task_loss(assignment, deltas_pred, cls_pred, targets)
        assert breakdown.reg_loss == 0.0
        assert breakdown.cls_loss > 0.0
        assert breakdown.total == breakdown.cls_loss

    def test_lambda_scales_reg_term_exactly(self, small_assignment):
        grid, gts, assignment = small_assignment
        targets = build_loss_targets(grid, gts, assignment)
        rng = np.random.default_rng(23)
        deltas_pred = targets.deltas + rng.normal(0, 0.3, size=targets.deltas.shape)
        cls_pred = np.full((grid.num_anchors, 2), 0.2)
        one = multi_task_loss(assignment, deltas_pred, cls_pred, targets, MultiTaskLossConfig(lambda_reg=1.0))
        two = multi_task_loss(assignment, deltas_pred, cls_pred, targets, MultiTaskLossConfig(lambda_reg=2.0))
        assert two.reg_loss == pytest.approx(2 * one.reg_loss, rel=1e-12)
        assert two.cls_loss == pytest.approx(one.cls_loss, rel=1e-12)

    def test_anchor_reordering_invariance(self, small_assignment):
        grid, gts, assignment = small_assignment
        targets = build_loss_targets(grid, gts, assignment)
        rng = np.random.default_rng(29)
        deltas_pred = rng.normal(size=(grid.num_anchors, 5))
        cls_pred = rng.uniform(0.05, 0.95, size=(grid.num_anchors, 2))
        base = multi_task_loss(assignment, deltas_pred, cls_pred, targets)

        perm = rng.permutation(grid.num_anchors)
        permuted_assignment = type(assignment)(
            gt_index=assignment.gt_index[perm],
            thresholds=assignment.thresholds,
            positive_counts=assignment.positive_counts,
        )
        permuted_targets = LossTargets(deltas=targets.deltas[perm], class_ids=targets.class_ids[perm])
        permuted = multi_task_loss(permuted_assignment, deltas_pred[perm], cls_pred[perm], permuted_targets)
        assert permuted.total == pytest.approx(base.total, rel=1e-12)

    def test_refined_head_composition(self, small_assignment):
        grid, gts, assignment = small_assignment
        targets = build_loss_targets(grid, gts, assignment)
        rng = np.random.default_rng(31)
        deltas_pred = targets.deltas + rng.normal(0, 0.2, size=targets.deltas.shape)
        cls_pred = np.full((grid.num_anchors, 2), 0.2)
        single = multi_task_loss(assignment, deltas_pred, cls_pred, targets)
        both = multi_task_loss(
            assignment, deltas_pred, cls_pred, targets,
            refined_deltas=deltas_pred, refined_cls=cls_pred,
        )
        assert both.total == pytest.approx(2 * single.total, rel=1e-12)
        halved = multi_task_loss(
            assignment, deltas_pred, cls_pred, targets,
            MultiTaskLossConfig(alpha_refined=0.5),
            refined_deltas=deltas_pred, refined_cls=cls_pred,
        )
        assert halved.total == pytest.approx(1.5 * single.total, rel=1e-12)

    def test_shape_mismatch_rejected(self, small_assignment):
        grid, gts, assignment = small_assignment
        targets = build_loss_targets(grid, gts, assignment)
        with pytest.raises(ValueError):
            multi_task_loss(assignment, np.zeros((3, 5)), np.zeros((grid.num_anchors, 1)), targets)

    def test_refined_head_shapes_rejected(self, small_assignment):
        grid, gts, assignment = small_assignment
        targets = build_loss_targets(grid, gts, assignment)
        n = grid.num_anchors
        deltas, cls = np.zeros((n, 5)), np.full((n, 2), 0.5)
        with pytest.raises(ValueError, match="cls_pred"):
            multi_task_loss(assignment, deltas, cls, targets, refined_deltas=deltas, refined_cls=cls[:-1])
        with pytest.raises(ValueError, match="deltas_pred"):
            multi_task_loss(assignment, deltas, cls, targets, refined_deltas=deltas[:, :4], refined_cls=cls)
        with pytest.raises(ValueError, match="deltas_pred"):
            multi_task_loss(assignment, deltas, cls, targets, refined_deltas=deltas[1:], refined_cls=cls)

    @pytest.mark.parametrize("head", ["cls_pred", "refined_cls"])
    def test_zero_class_columns_rejected(self, small_assignment, head):
        grid, gts, assignment = small_assignment
        targets = build_loss_targets(grid, gts, assignment)
        assert assignment.num_positives > 0
        n = grid.num_anchors
        deltas, cls = np.zeros((n, 5)), np.full((n, 2), 0.5)
        given = {"cls_pred": cls, "refined_cls": cls} | {head: np.zeros((n, 0))}
        with pytest.raises(ValueError, match="cls_pred"):
            multi_task_loss(assignment, deltas, given["cls_pred"], targets, refined_deltas=deltas, refined_cls=given["refined_cls"])

    @pytest.mark.parametrize("given_part", ["refined_deltas", "refined_cls"])
    def test_half_refined_head_rejected(self, small_assignment, given_part):
        grid, gts, assignment = small_assignment
        targets = build_loss_targets(grid, gts, assignment)
        n = grid.num_anchors
        deltas, cls = np.zeros((n, 5)), np.full((n, 2), 0.5)
        part = {"refined_deltas": deltas, "refined_cls": cls}[given_part]
        with pytest.raises(ValueError, match="refined head needs both"):
            multi_task_loss(assignment, deltas, cls, targets, **{given_part: part})

    def test_ignore_anchors_excluded_from_cls(self):
        from obblab.assignment import IGNORE, NEGATIVE, AssignmentResult

        gt_index = np.array([0, NEGATIVE, IGNORE, NEGATIVE])
        assignment = AssignmentResult(
            gt_index=gt_index, thresholds=np.array([0.5]), positive_counts=np.array([1])
        )
        targets = LossTargets(deltas=np.zeros((4, 5)), class_ids=np.zeros(4, dtype=int))
        deltas_pred = np.zeros((4, 5))
        base = np.full((4, 1), 0.5)
        loud = base.copy()
        loud[2, 0] = 0.999  # only the ignored anchor changes
        a = multi_task_loss(assignment, deltas_pred, base, targets)
        b = multi_task_loss(assignment, deltas_pred, loud, targets)
        assert a.total == pytest.approx(b.total, rel=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SmoothL1Config(beta=0.0)


# ------------------------------------------------- the per-head loss as oracle
#
# The reference composition: each head builds its own masks and integer
# target array and runs the np.where focal form over the gathered scored
# rows. multi_task_loss, one blocked pass over both heads, must reproduce it
# bit for bit.


def _where_focal(p, t, alpha=0.25, gamma=2.0):
    p = np.clip(np.asarray(p, dtype=float), 1e-12, 1.0 - 1e-12)
    t = np.asarray(t)
    pos = -alpha * (1.0 - p) ** gamma * np.log(p)
    neg = -(1.0 - alpha) * p**gamma * np.log(1.0 - p)
    out = np.where(t == 1, pos, neg)
    return float(out) if out.ndim == 0 else out


def _head_terms(assignment, deltas_pred, cls_pred, targets, cfg):
    num_anchors = assignment.gt_index.shape[0]
    deltas_pred = np.asarray(deltas_pred, dtype=float)
    cls_pred = np.asarray(cls_pred, dtype=float)
    if cls_pred.ndim == 1:
        cls_pred = cls_pred[:, None]
    pos = assignment.positive_mask()
    neg = assignment.negative_mask()
    norm = max(1, int(np.count_nonzero(pos)))
    reg_sum = 0.0
    if np.any(pos):
        errors = deltas_pred[pos] - targets.deltas[pos]
        reg_sum = float(np.sum(smooth_l1(errors, cfg.smooth_l1.beta)))
    num_classes = cls_pred.shape[1]
    scored = pos | neg
    cls_targets = np.zeros((num_anchors, num_classes), dtype=int)
    pos_idx = np.nonzero(pos)[0]
    cls_targets[pos_idx, np.clip(targets.class_ids[pos_idx], 0, num_classes - 1)] = 1
    cls_sum = float(
        np.sum(_where_focal(cls_pred[scored], cls_targets[scored], cfg.focal_alpha, cfg.focal_gamma))
    )
    return cfg.lambda_reg * reg_sum / norm, cfg.lambda_cls * cls_sum / norm


def _oracle_loss(assignment, heads, targets, cfg):
    reg_i, cls_i = _head_terms(assignment, *heads[0], targets, cfg)
    reg = cfg.alpha_init * reg_i
    cls = cfg.alpha_init * cls_i
    if len(heads) == 2:
        reg_r, cls_r = _head_terms(assignment, *heads[1], targets, cfg)
        reg += cfg.alpha_refined * reg_r
        cls += cfg.alpha_refined * cls_r
    return reg, cls, reg + cls


GAMMAS = st.sampled_from([0.0, 0.5, 1.5, 2.0, 3.0])
# Exact 0 and 1 and values beyond the clamp, among uniform probabilities.
EXTREMES = np.array([0.0, 1.0, 1e-13, 1.0 - 1e-13, 1e-12, 0.5])


def _probabilities(rng, shape):
    p = rng.uniform(0.0, 1.0, size=shape)
    spots = rng.random(shape) < 0.05
    p[spots] = rng.choice(EXTREMES, size=int(np.count_nonzero(spots)))
    return p


@st.composite
def loss_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    many = draw(st.booleans())
    num_anchors = draw(st.integers(_BLOCK_ROWS + 8, 2 * _BLOCK_ROWS + 40) if many else st.integers(0, 40))
    pos_frac = draw(st.sampled_from([0.0, 0.02, 0.3, 1.0]))
    ignore_frac = draw(st.sampled_from([0.0, 0.0, 0.1, 0.6]))
    u = rng.random(num_anchors)
    gt_index = np.where(u < pos_frac, rng.integers(0, 3, num_anchors), NEGATIVE)
    gt_index[(u >= pos_frac) & (rng.random(num_anchors) < ignore_frac)] = IGNORE
    scored_rows = np.flatnonzero(gt_index != IGNORE)
    if many and scored_rows.size > _BLOCK_ROWS + 3:
        # positives on both sides of the first block boundary of scored rows
        gt_index[scored_rows[_BLOCK_ROWS - 3 : _BLOCK_ROWS + 3]] = 1
    assignment = AssignmentResult(
        gt_index=gt_index, thresholds=np.full(3, 0.5), positive_counts=np.zeros(3, dtype=int)
    )
    # class ids outside [0, C) are clipped into range by the loss
    targets = LossTargets(
        deltas=rng.normal(size=(num_anchors, 5)), class_ids=rng.integers(-3, 20, num_anchors)
    )
    heads = []
    for _ in range(draw(st.integers(1, 2))):
        num_classes = draw(st.sampled_from([1, 2, 15] if not many else [1, 3]))
        cls = _probabilities(rng, (num_anchors, num_classes))
        if num_classes == 1 and draw(st.booleans()):
            cls = cls[:, 0]
        heads.append((targets.deltas + rng.normal(0.0, 0.5, size=(num_anchors, 5)), cls))
    cfg = MultiTaskLossConfig(
        smooth_l1=SmoothL1Config(beta=draw(st.sampled_from([1.0, 0.11]))),
        lambda_reg=draw(st.sampled_from([1.0, 0.7])),
        lambda_cls=draw(st.sampled_from([1.0, 2.3])),
        alpha_init=draw(st.sampled_from([1.0, 0.6])),
        alpha_refined=draw(st.sampled_from([1.0, 0.4])),
        focal_alpha=draw(st.sampled_from([0.25, 0.5, 0.9])),
        focal_gamma=draw(GAMMAS),
    )
    return assignment, heads, targets, cfg


@given(case=loss_cases())
@settings(max_examples=120, deadline=None)
def test_multi_task_loss_bit_identical_to_per_head_oracle(case):
    assignment, heads, targets, cfg = case
    refined = {}
    if len(heads) == 2:
        refined = {"refined_deltas": heads[1][0], "refined_cls": heads[1][1]}
    got = multi_task_loss(assignment, *heads[0], targets, cfg, **refined)
    assert (got.reg_loss, got.cls_loss, got.total) == _oracle_loss(assignment, heads, targets, cfg)
    assert got.num_positives == assignment.num_positives


def test_block_boundary_inside_positives_bit_identical():
    rng = np.random.default_rng(5)
    num_anchors = 2 * _BLOCK_ROWS + 100
    gt_index = np.full(num_anchors, NEGATIVE)
    gt_index[rng.random(num_anchors) < 0.2] = IGNORE
    scored_rows = np.flatnonzero(gt_index != IGNORE)
    gt_index[scored_rows[_BLOCK_ROWS - 10 : _BLOCK_ROWS + 10]] = 0
    assignment = AssignmentResult(gt_index=gt_index, thresholds=np.array([0.5]), positive_counts=np.array([20]))
    targets = LossTargets(deltas=np.zeros((num_anchors, 5)), class_ids=rng.integers(0, 4, num_anchors))
    heads = [(rng.normal(size=(num_anchors, 5)), _probabilities(rng, (num_anchors, 4))) for _ in range(2)]
    cfg = MultiTaskLossConfig()
    got = multi_task_loss(assignment, *heads[0], targets, cfg, refined_deltas=heads[1][0], refined_cls=heads[1][1])
    assert (got.reg_loss, got.cls_loss, got.total) == _oracle_loss(assignment, heads, targets, cfg)


# ------------------------------------ the pairwise focal sum as np.sum of the array
#
# _focal_sum never builds the (scored, classes) loss array; its result must
# still be np.sum of that array, bit for bit, however the runs of NumPy's
# pairwise tree cut the rows.


def _bits(value):
    return np.float64(value).view(np.int64)


def _run_starts(n, leaf, start=0):
    """Where, after the first, the runs of at most ``leaf`` elements of
    NumPy's pairwise sum of n elements start."""
    if n <= leaf:
        return []
    half = n // 2 - (n // 2) % 8
    return _run_starts(half, leaf, start) + [start + half] + _run_starts(n - half, leaf, start + half)


@st.composite
def focal_sum_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    num_anchors = draw(st.one_of(
        st.integers(1, 300),
        st.integers(1, 210_000),
        st.sampled_from([_BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3, 21_824, 200_001]),
    ))
    num_classes = draw(st.sampled_from([1, 3, 15, 16]))
    cls_pred = _probabilities(rng, (num_anchors, num_classes))
    if draw(st.booleans()):
        cls_pred[:] = draw(st.sampled_from(EXTREMES.tolist()))  # every probability on or past the clamp
    scored_rows = None
    if draw(st.booleans()):
        scored_rows = np.flatnonzero(rng.random(num_anchors) < draw(st.sampled_from([0.0, 0.3, 0.9])))
    num_rows = num_anchors if scored_rows is None else scored_rows.size
    class_of_row = rng.integers(-3, 20, num_rows)
    positive = rng.random(num_rows) < draw(st.sampled_from([0.0, 0.001, 0.05, 1.0]))
    if draw(st.booleans()):
        # positives on the first or last element of each run, which may
        # share a row with the run next to it
        for start in _run_starts(num_rows * num_classes, _BLOCK_ROWS * num_classes):
            flat = start - int(rng.integers(0, 2))
            positive[flat // num_classes] = True
            class_of_row[flat // num_classes] = flat % num_classes
    pos_rows = np.flatnonzero(positive)
    pos_idx = pos_rows if scored_rows is None else scored_rows[pos_rows]
    # alpha 1 zeroes the negative branch; above 1 it turns negative
    alpha = draw(st.sampled_from([0.25, 0.9, 1.0, 1.5]))
    return cls_pred, scored_rows, pos_idx, pos_rows, class_of_row[pos_rows], alpha, draw(GAMMAS)


@given(case=focal_sum_cases())
@settings(max_examples=60, deadline=None)
def test_focal_sum_bit_identical_to_sum_of_the_loss_array(case):
    cls_pred, scored_rows, pos_idx, pos_rows, class_ids, alpha, gamma = case
    rows = cls_pred if scored_rows is None else cls_pred[scored_rows]
    hot = np.zeros(rows.shape, dtype=int)
    hot[pos_rows, np.clip(class_ids, 0, rows.shape[1] - 1)] = 1
    want = np.sum(_where_focal(rows, hot, alpha, gamma))
    got = _focal_sum(cls_pred, scored_rows, pos_idx, pos_rows, class_ids, alpha, gamma)
    assert type(got) is float
    assert _bits(got) == _bits(want)

    gt_index = np.full(cls_pred.shape[0], IGNORE if scored_rows is not None else NEGATIVE)
    if scored_rows is not None:
        gt_index[scored_rows] = NEGATIVE
    gt_index[pos_idx] = 0
    targets = LossTargets(deltas=np.zeros((cls_pred.shape[0], 5)), class_ids=np.zeros(cls_pred.shape[0], dtype=int))
    targets.class_ids[pos_idx] = class_ids
    assignment = AssignmentResult(gt_index=gt_index, thresholds=np.array([0.5]), positive_counts=np.array([pos_idx.size]))
    heads = [(np.ones((cls_pred.shape[0], 5)), cls_pred)]
    cfg = MultiTaskLossConfig(focal_alpha=alpha, focal_gamma=gamma)
    got = multi_task_loss(assignment, *heads[0], targets, cfg)
    want = _oracle_loss(assignment, heads, targets, cfg)
    assert [_bits(v) for v in (got.reg_loss, got.cls_loss, got.total)] == [_bits(v) for v in want]


def _scene_of_anchors(num_anchors, ignored, seed=3):
    """An assignment over ``num_anchors`` anchors, 1% positive and a share
    ``ignored`` of the rest ignored, with its targets and two heads of 15
    classes."""
    rng = np.random.default_rng(seed)
    u = rng.random(num_anchors)
    gt_index = np.where(u < 0.01, rng.integers(0, 50, num_anchors), NEGATIVE)
    gt_index[(u >= 0.01) & (rng.random(num_anchors) < ignored)] = IGNORE
    assignment = AssignmentResult(gt_index=gt_index, thresholds=np.full(50, 0.5), positive_counts=np.zeros(50, dtype=int))
    targets = LossTargets(deltas=rng.normal(size=(num_anchors, 5)), class_ids=rng.integers(0, 15, num_anchors))
    (deltas, cls), (refined_deltas, refined_cls) = (
        (rng.normal(size=(num_anchors, 5)), rng.uniform(0.0, 1.0, (num_anchors, 15))) for _ in range(2)
    )
    return assignment, deltas, cls, targets, {"refined_deltas": refined_deltas, "refined_cls": refined_cls}


@pytest.mark.parametrize("ignored", [0.0, 0.1])
def test_loss_working_memory_does_not_grow_with_the_anchors(ignored):
    assignment, deltas, cls, targets, refined = _scene_of_anchors(100_000, ignored)
    tracemalloc.start()
    try:
        multi_task_loss(assignment, deltas, cls, targets, **refined)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6  # the (anchors, classes) loss array alone is 12 MB


def test_loss_leaves_no_garbage_cycles():
    assignment, deltas, cls, targets, refined = _scene_of_anchors(3 * _BLOCK_ROWS, 0.1)  # several runs of the pairwise sum
    gc.collect()
    gc.disable()
    try:
        multi_task_loss(assignment, deltas, cls, targets, **refined)
        assert gc.collect() == 0
    finally:
        gc.enable()


SHAPES = st.sampled_from([(), (1,), (7,), (300,), (3, 4), (40, 15)])


@given(
    shape=SHAPES,
    seed=st.integers(0, 2**32 - 1),
    alpha=st.sampled_from([0.25, 0.5, 0.9]),
    gamma=GAMMAS,
)
@settings(max_examples=150, deadline=None)
def test_focal_loss_bit_identical_to_where_form(shape, seed, alpha, gamma):
    rng = np.random.default_rng(seed)
    p = _probabilities(rng, shape)
    t = rng.integers(0, 3, size=shape)  # 2 is not a positive either
    if shape == ():
        p, t = float(p), int(t)
    got = focal_loss(p, t, alpha, gamma)
    want = _where_focal(p, t, alpha, gamma)
    assert type(got) is type(want)
    assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))


def test_focal_loss_broadcasts_like_where_form():
    p = np.array([[0.2], [0.7]])
    t = np.array([0, 1, 1])
    assert np.array_equal(focal_loss(p, t), _where_focal(p, t))
    assert np.array_equal(focal_loss(0.3, t), _where_focal(0.3, t))


# build_loss_targets as it stood before the batched pass, one positive at a
# time: the oracle of the one-pass encoding.
def reference_build_loss_targets(grid, gts, assignment):
    deltas = np.zeros((grid.num_anchors, 5))
    class_ids = np.zeros(grid.num_anchors, dtype=int)
    for anchor in np.nonzero(assignment.gt_index >= 0)[0]:
        gt = gts[assignment.gt_index[anchor]]
        deltas[anchor] = box_deltas(grid.box(int(anchor)), gt.box).as_array()
        class_ids[anchor] = gt.class_id
    return LossTargets(deltas=deltas, class_ids=class_ids)


TARGET_GRID = generate_anchors((40, 24), [4, 8, 16], 2.5)


@st.composite
def target_boxes(draw):
    """Boxes whose angles sit at the ends of the range, on the equilibrium
    angles or anywhere, squares and boxes whose edges swap, of 1e-6 to 1e6
    px, centred on or far from the anchors."""
    w = draw(st.one_of(st.sampled_from([1e-6, 1.0, 10.0, 1e6]), st.floats(1e-6, 1e6)))
    h = draw(st.one_of(st.just(w), st.floats(1e-6, 1e6)))
    theta = draw(st.one_of(
        st.sampled_from([-QP, math.nextafter(-QP, 0.0), 0.0, 2 * QP, math.nextafter(3 * QP, 0.0)]),
        st.floats(-10.0, 10.0),
    ))
    cx, cy = (draw(st.one_of(st.sampled_from([2.0, 4.0, 12.0]), st.floats(-1e6, 1e6))) for _ in range(2))
    return normalize_obb(cx, cy, w, h, theta)


@given(
    boxes=st.lists(target_boxes(), min_size=1, max_size=6),
    labels=st.lists(st.integers(-3, 5), min_size=TARGET_GRID.num_anchors, max_size=TARGET_GRID.num_anchors),
    class_ids=st.lists(st.integers(0, 20), min_size=6, max_size=6),
)
# np.log (numpy 2.4, x86-64) rounds both edges' ratios to a side of 10 px
# differently from math.log
@example(
    boxes=[normalize_obb(2.0, 2.0, 496243.31034177163, 962119.7798862981, 0.0)],
    labels=[0] * TARGET_GRID.num_anchors,
    class_ids=[1] * 6,
)
@settings(max_examples=200, deadline=None)
def test_batched_targets_match_the_per_positive_reference(boxes, labels, class_ids):
    gts = [GroundTruth(box, class_id) for box, class_id in zip(boxes, class_ids)]
    # each anchor positive for a gt, negative or ignored, at random
    gt_index = np.array([label if label < len(gts) else NEGATIVE for label in labels])
    gt_index[gt_index == -3] = IGNORE
    assignment = AssignmentResult(gt_index=gt_index, thresholds=np.zeros(len(gts)), positive_counts=np.zeros(len(gts)))
    got, want = build_loss_targets(TARGET_GRID, gts, assignment), reference_build_loss_targets(TARGET_GRID, gts, assignment)
    assert np.array_equal(got.deltas.view(np.int64), want.deltas.view(np.int64))
    assert np.array_equal(got.class_ids, want.class_ids)


def test_targets_without_positives_are_zero():
    assignment = AssignmentResult(np.full(TARGET_GRID.num_anchors, NEGATIVE), np.zeros(0), np.zeros(0, dtype=int))
    targets = build_loss_targets(TARGET_GRID, [], assignment)
    assert not targets.deltas.any() and not targets.class_ids.any()
