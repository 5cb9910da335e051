"""Detection loss numerics: box-delta encoding, smooth L1 with analytic
gradient, binary focal loss, the scale-adaptive beta update, and the
weighted multi-task composition over an assignment.

Loss evaluation is pure; the adaptive-beta state is an immutable value that
each update replaces, so distinct training streams stay independent as long
as each keeps its own state.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left
from dataclasses import dataclass, replace

import numpy as np

from .geometry import HALF_PI, OrientedBox, normalize_obb
from .assignment import AnchorGrid, AssignmentResult

logger = logging.getLogger(__name__)

_PROB_EPS = 1e-12
# Rows of the (scored anchors, classes) focal array per run of the pairwise
# sum; bounds the classification buffers of multi_task_loss. A run holds at
# most this many rows' worth of elements, but one that starts mid-row spans
# one row more, so the buffers hold _BLOCK_ROWS + 1 rows: with 15 classes
# that is 120.1 KiB, under malloc's default 128 KiB mmap threshold. On a
# 2-CPU x86-64 VM, 1024 rows ran faster, with a lower peak RSS, than 4096
# (BENCH_11.json).
_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class BoxDelta:
    """Normalized regression offsets between an anchor and a target box."""

    dx: float
    dy: float
    dw: float
    dh: float
    dtheta: float

    def as_array(self) -> np.ndarray:
        return np.array([self.dx, self.dy, self.dw, self.dh, self.dtheta])


@dataclass(frozen=True)
class SmoothL1Config:
    """Knee parameter of the smooth L1 loss."""

    beta: float = 1.0

    def __post_init__(self) -> None:
        if not self.beta > 0.0:
            raise ValueError("beta must be positive")


@dataclass(frozen=True)
class BetaState:
    """Running state of the scale-adaptive smooth-L1 knee.

    ``history`` keeps the last raw (pre-clamp, pre-smoothing) target for
    audit; it is None until the first update.
    """

    beta_scale: float = 1.0
    momentum: float = 0.9
    clamp: tuple[float, float] = (0.02, 1.0)
    history: float | None = None

    def __post_init__(self) -> None:
        lo, hi = self.clamp
        if not 0.0 < lo < hi:
            raise ValueError("clamp must satisfy 0 < beta_min < beta_max")
        if not lo <= self.beta_scale <= hi:
            raise ValueError("beta_scale must start inside the clamp range")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")


@dataclass(frozen=True)
class MultiTaskLossConfig:
    """Weights of the two-head detection loss."""

    smooth_l1: SmoothL1Config = SmoothL1Config()
    lambda_reg: float = 1.0
    lambda_cls: float = 1.0
    alpha_init: float = 1.0
    alpha_refined: float = 1.0
    focal_alpha: float = 0.25
    focal_gamma: float = 2.0


@dataclass(frozen=True)
class LossBreakdown:
    """Weighted loss terms: ``total == reg_loss + cls_loss``, each term
    already carrying its head weight (alpha) and task weight (lambda) and
    normalized by the positive count (floor 1)."""

    reg_loss: float
    cls_loss: float
    total: float
    lambda_reg: float
    lambda_cls: float
    alpha_init: float
    alpha_refined: float
    num_anchors: int
    num_positives: int


def wrap_angle_delta(delta: float) -> float:
    """Wrap an angle difference into (-pi/2, pi/2] (rectangles repeat every
    pi, so this is the shortest equivalent rotation)."""
    return HALF_PI - (HALF_PI - delta) % math.pi


def box_deltas(anchor: OrientedBox, gt: OrientedBox) -> BoxDelta:
    """Encode gt relative to anchor: center offsets over anchor edges, log
    edge ratios, wrapped angle difference."""
    return BoxDelta(
        dx=(gt.cx - anchor.cx) / anchor.w,
        dy=(gt.cy - anchor.cy) / anchor.h,
        dw=math.log(gt.w / anchor.w),
        dh=math.log(gt.h / anchor.h),
        dtheta=wrap_angle_delta(gt.theta - anchor.theta),
    )


def decode_box_deltas(anchor: OrientedBox, delta: BoxDelta) -> OrientedBox:
    """Inverse of :func:`box_deltas`; the result is normalized, so
    decode(anchor, encode(anchor, gt)) reproduces gt."""
    return normalize_obb(
        anchor.cx + delta.dx * anchor.w,
        anchor.cy + delta.dy * anchor.h,
        anchor.w * math.exp(delta.dw),
        anchor.h * math.exp(delta.dh),
        anchor.theta + delta.dtheta,
    )


def smooth_l1(x, beta: float):
    """Quadratic below the knee, linear above: 0.5 x^2 / beta for |x| < beta
    else |x| - 0.5 beta. Even, convex, continuously differentiable."""
    if not beta > 0.0:
        raise ValueError("beta must be positive")
    ax = np.abs(np.asarray(x, dtype=float))
    out = np.where(ax < beta, 0.5 * ax * ax / beta, ax - 0.5 * beta)
    return float(out) if out.ndim == 0 else out


def smooth_l1_grad(x, beta: float):
    """Derivative of :func:`smooth_l1`: x / beta inside the knee, sign(x)
    outside (saturated)."""
    if not beta > 0.0:
        raise ValueError("beta must be positive")
    arr = np.asarray(x, dtype=float)
    out = np.where(np.abs(arr) < beta, arr / beta, np.sign(arr))
    return float(out) if out.ndim == 0 else out


def _focal_negatives(p, alpha: float, gamma: float, out: np.ndarray, log_buf: np.ndarray) -> None:
    """The negative branch -(1-alpha) p^gamma ln(1-p) of clamped ``p`` into
    ``out``, through ``log_buf`` of the same shape (0-d for a NumPy scalar
    ``p``, which keeps its scalar ``**``)."""
    np.log(np.subtract(1.0, p, out=log_buf), out=log_buf)
    np.multiply(p**gamma, -(1.0 - alpha), out=out)
    np.multiply(out, log_buf, out=out)


def _focal_positives(p, alpha: float, gamma: float):
    """The positive branch -alpha (1-p)^gamma ln p of clamped ``p``."""
    return -alpha * (1.0 - p) ** gamma * np.log(p)


def focal_loss(
    p, t, alpha: float = MultiTaskLossConfig.focal_alpha, gamma: float = MultiTaskLossConfig.focal_gamma
):
    """Binary focal loss; ``t`` selects the branch per element.

    Positives: -alpha (1-p)^gamma ln p; negatives: -(1-alpha) p^gamma
    ln(1-p). Probabilities are clamped away from {0, 1}. gamma = 0 recovers
    alpha-weighted cross-entropy.

    This is the elementwise view of the kernel that :func:`multi_task_loss`
    runs in blocks over a scene: the same two branch evaluations, with
    ``t == 1`` picking the positive one.

    A scalar ``p`` (Python or NumPy) and the same value inside an array can
    give results one ulp apart: a NumPy scalar's ``**`` calls libm ``pow``,
    which rounds differently from NumPy's array power loop.
    """
    p = np.clip(np.asarray(p, dtype=float), _PROB_EPS, 1.0 - _PROB_EPS)
    neg = np.empty(p.shape)
    _focal_negatives(p, alpha, gamma, neg, np.empty(p.shape))
    out = np.where(np.asarray(t) == 1, _focal_positives(p, alpha, gamma), neg)
    return float(out) if out.ndim == 0 else out


def focal_loss_grad(
    p, t, alpha: float = MultiTaskLossConfig.focal_alpha, gamma: float = MultiTaskLossConfig.focal_gamma
):
    """Analytic d(focal)/dp, matching :func:`focal_loss` branch for branch."""
    p = np.clip(np.asarray(p, dtype=float), _PROB_EPS, 1.0 - _PROB_EPS)
    t = np.asarray(t)
    pos = alpha * gamma * (1.0 - p) ** (gamma - 1.0) * np.log(p) - alpha * (1.0 - p) ** gamma / p
    neg = (
        -(1.0 - alpha) * gamma * p ** (gamma - 1.0) * np.log(1.0 - p)
        + (1.0 - alpha) * p**gamma / (1.0 - p)
    )
    out = np.where(t == 1, pos, neg)
    return float(out) if out.ndim == 0 else out


def scale_similarity(proposal: OrientedBox, gt: OrientedBox) -> float:
    """Symmetric area-scale agreement in (0, 1]: the smaller ratio of the
    square-rooted areas. Equal areas give exactly 1."""
    a, b = proposal.area, gt.area
    return math.sqrt(min(a, b) / max(a, b))


def _row_medians(values: np.ndarray) -> np.ndarray:
    """``np.median`` of each row of a (rows, n >= 1) float array, bit for
    bit: one ``np.partition`` along the rows with ``np.median``'s kth list
    (``[h]`` or ``[h - 1, h]``, plus -1), then its mean, which adds from
    +0.0, so a -0.0 median reads +0.0. A mean past the float range is
    +-inf, without a warning."""
    n = values.shape[1]
    h = n // 2
    part = np.partition(values, [h, -1] if n % 2 else [h - 1, h, -1], axis=1)
    if n % 2:
        return part[:, h] + 0.0
    with np.errstate(over="ignore"):
        return ((part[:, h - 1] + 0.0) + part[:, h]) / 2.0


def update_betas(
    state: BetaState,
    similarities,
    statistic: str = "median",
    k: int | None = None,
) -> tuple[np.ndarray, np.ndarray, BetaState]:
    """Many adaptive steps of the smooth-L1 knee, one per row of a
    (steps, batch >= 1) array of similarities.

    Each step's raw target is the median of (1 - s) over its batch, robust
    to outliers (``statistic="kth-smallest"`` with 1-based ``k`` selects the
    k-th smallest mismatch instead). The new knee is the momentum-smoothed
    target, clamped to the state's range. Returns each step's raw target,
    each step's knee and the final state. A NaN or infinite similarity
    raises ``ValueError``, as one would turn the median into NaN and the
    knee into its lower clamp.
    """
    sims = np.asarray(similarities, dtype=float)
    if sims.ndim != 2 or sims.shape[1] == 0:
        raise ValueError("similarities must be a (steps, batch) array with batch >= 1")
    if not np.all(np.isfinite(sims)):
        raise ValueError("similarities must be finite")
    mismatch = 1.0 - sims
    if statistic == "median":
        targets = _row_medians(mismatch)
    elif statistic == "kth-smallest":
        if k is None or not 1 <= k <= mismatch.shape[1]:
            raise ValueError("kth-smallest needs 1 <= k <= batch size")
        targets = np.partition(mismatch, k - 1, axis=1)[:, k - 1]
    else:
        raise ValueError(f"unknown statistic {statistic!r}")
    (lo, hi), momentum, beta = state.clamp, state.momentum, state.beta_scale
    betas = []
    for target in targets.tolist():
        beta = min(hi, max(lo, momentum * beta + (1.0 - momentum) * target))
        betas.append(beta)
    if betas:
        state = replace(state, beta_scale=beta, history=target)
    return targets, np.array(betas), state


def update_beta(
    state: BetaState,
    similarities,
    statistic: str = "median",
    k: int | None = None,
) -> BetaState:
    """One adaptive step of the smooth-L1 knee over a batch of similarities:
    the one-step case of :func:`update_betas`. An empty batch leaves the
    state unchanged and logs a warning."""
    sims = np.asarray(list(similarities), dtype=float)
    if sims.size == 0:
        logger.warning("update_beta called with no similarities; state unchanged")
        return state
    return update_betas(state, sims.reshape(1, -1), statistic, k)[2]


@dataclass(frozen=True, eq=False)
class LossTargets:
    """Per-anchor regression targets and class ids; rows are read only where
    the assignment marks the anchor positive."""

    deltas: np.ndarray
    class_ids: np.ndarray


def build_loss_targets(grid: AnchorGrid, gts, assignment: AssignmentResult) -> LossTargets:
    """Encode each positive anchor against its matched gt, as
    :func:`box_deltas` does, for all positives at once; other rows stay
    zero. The logs are one ``math.log`` per element, since ``np.log``
    rounds differently."""
    deltas = np.zeros((grid.num_anchors, 5))
    class_ids = np.zeros(grid.num_anchors, dtype=int)
    anchors = np.flatnonzero(assignment.gt_index >= 0)
    if anchors.size:
        owner = assignment.gt_index[anchors]
        cx, cy, w, h, theta = np.array([(g.box.cx, g.box.cy, g.box.w, g.box.h, g.box.theta) for g in gts])[owner].T
        (x, y), side = grid.centers[anchors].T, grid.sizes[anchors]
        deltas[anchors] = np.stack([
            (cx - x) / side,
            (cy - y) / side,
            list(map(math.log, (w / side).tolist())),
            list(map(math.log, (h / side).tolist())),
            HALF_PI - np.remainder(HALF_PI - theta, math.pi),  # the anchors' theta is 0
        ], axis=1)
        class_ids[anchors] = np.array([g.class_id for g in gts])[owner]
    return LossTargets(deltas=deltas, class_ids=class_ids)


def _pairwise_sum(run_sum, start: int, n: int, leaf: int) -> float:
    """``np.add.reduce`` of the ``n`` contiguous float64 elements from
    ``start``, added by NumPy's pairwise tree: a run of m > 128 elements is
    the sum of its first m // 2 - (m // 2) % 8 elements plus the sum of the
    rest. ``run_sum(start, stop)`` reduces a run of at most ``leaf`` (> 128)
    elements. Module-level: a nested function that calls itself is a
    reference cycle, which holds each call's buffers until a garbage
    collection."""
    if n <= leaf:
        return run_sum(start, start + n)
    half = n // 2 - (n // 2) % 8
    return _pairwise_sum(run_sum, start, half, leaf) + _pairwise_sum(run_sum, start + half, n - half, leaf)


def _focal_sum(
    cls_pred: np.ndarray,
    scored_rows: np.ndarray | None,
    pos_idx: np.ndarray,
    pos_rows: np.ndarray,
    class_ids: np.ndarray,
    alpha: float,
    gamma: float,
) -> float:
    """Summed focal loss of one head over the scored anchors (all of them
    when ``scored_rows`` is None), one class column per positive.

    The result is ``np.sum`` of the (scored, classes) loss array, whose
    elements are those of :func:`focal_loss` on the gathered rows, but that
    array is never built. Each node of NumPy's pairwise tree over it is
    ``np.add.reduce`` of its own run, so :func:`_pairwise_sum` cuts the tree
    into runs of at most ``_BLOCK_ROWS`` x classes elements. Each run's
    covering rows are filled in reused buffers, the negative branch first
    and then the positives that fall in the run, the run is reduced, and the
    run sums are added as the tree adds them: the same bits as ``np.sum``.
    """
    num_rows = cls_pred.shape[0] if scored_rows is None else scored_rows.size
    num_classes = cls_pred.shape[1]
    cols = np.clip(class_ids, 0, num_classes - 1)
    hot = _focal_positives(np.clip(cls_pred[pos_idx, cols], _PROB_EPS, 1.0 - _PROB_EPS), alpha, gamma)
    # pos_rows ascends, so the positives' flat indices do too
    flat = pos_rows * num_classes + cols
    flat_list = flat.tolist()
    p_buf = np.empty((min(num_rows, _BLOCK_ROWS + 1), num_classes))
    log_buf = np.empty_like(p_buf)
    out_buf = np.empty_like(p_buf)
    out_flat = out_buf.reshape(-1)

    def run_sum(start: int, stop: int) -> float:
        r0, r1 = start // num_classes, -(-stop // num_classes)  # the rows that cover the run
        base = r0 * num_classes
        p = p_buf[: r1 - r0]
        if scored_rows is None:
            cls_pred[r0:r1].clip(_PROB_EPS, 1.0 - _PROB_EPS, out=p)
        else:  # mode "raise" would buffer ``out``; the rows are in range
            np.take(cls_pred, scored_rows[r0:r1], axis=0, out=p, mode="clip").clip(_PROB_EPS, 1.0 - _PROB_EPS, out=p)
        _focal_negatives(p, alpha, gamma, out_buf[: r1 - r0], log_buf[: r1 - r0])
        i0, i1 = bisect_left(flat_list, start), bisect_left(flat_list, stop)
        if i1 > i0:
            out_flat[flat[i0:i1] - base] = hot[i0:i1]
        return float(np.add.reduce(out_flat[start - base : stop - base]))

    return _pairwise_sum(run_sum, 0, num_rows * num_classes, _BLOCK_ROWS * num_classes)


def multi_task_loss(
    assignment: AssignmentResult,
    deltas_pred: np.ndarray,
    cls_pred: np.ndarray,
    targets: LossTargets,
    cfg: MultiTaskLossConfig | None = None,
    refined_deltas: np.ndarray | None = None,
    refined_cls: np.ndarray | None = None,
) -> LossBreakdown:
    """Weighted two-head detection loss over one assignment.

    Regression (smooth L1 over the five delta components) is gated to
    positive anchors; classification (focal) runs over positives and
    negatives, skipping ignored anchors. Each head's terms are normalized by
    the positive count (floor 1). The refined head is optional: when its
    predictions are omitted the total is alpha_init times the initial head's
    loss alone.

    Both heads are scored in one pass: the positive and scored anchors, the
    norm and the targets are found once. Classification runs in blocks of
    rows and never builds the (scored, classes) loss array, so its working
    memory is bounded by the block, and the result equals the per-head
    :func:`focal_loss` composition bit for bit. Class probabilities need at
    least one class column.
    """
    cfg = cfg or MultiTaskLossConfig()
    heads = [(cfg.alpha_init, deltas_pred, cls_pred)]
    if refined_deltas is not None or refined_cls is not None:
        if refined_deltas is None or refined_cls is None:
            raise ValueError("refined head needs both deltas and class probabilities")
        heads.append((cfg.alpha_refined, refined_deltas, refined_cls))
    num_anchors = assignment.gt_index.shape[0]
    if targets.deltas.shape != (num_anchors, 5):
        raise ValueError(f"target deltas shape {targets.deltas.shape} != ({num_anchors}, 5)")
    pos = assignment.positive_mask()
    pos_idx = np.flatnonzero(pos)
    norm = max(1, pos_idx.size)
    target_deltas = targets.deltas[pos_idx]
    class_ids = targets.class_ids[pos_idx]
    scored = pos | assignment.negative_mask()
    scored_rows = None if scored.all() else np.flatnonzero(scored)
    pos_rows = pos_idx if scored_rows is None else np.searchsorted(scored_rows, pos_idx)

    terms = []
    for alpha, head_deltas, head_cls in heads:
        head_deltas = np.asarray(head_deltas, dtype=float)
        head_cls = np.asarray(head_cls, dtype=float)
        if head_cls.ndim == 1:
            head_cls = head_cls[:, None]
        if head_deltas.shape != (num_anchors, 5):
            raise ValueError(f"deltas_pred shape {head_deltas.shape} != ({num_anchors}, 5)")
        if head_cls.ndim != 2 or head_cls.shape[0] != num_anchors or head_cls.shape[1] == 0:
            raise ValueError(f"cls_pred shape {head_cls.shape} != ({num_anchors}, classes)")
        reg_sum = 0.0
        if pos_idx.size:
            reg_sum = float(np.sum(smooth_l1(head_deltas[pos_idx] - target_deltas, cfg.smooth_l1.beta)))
        cls_sum = _focal_sum(head_cls, scored_rows, pos_idx, pos_rows, class_ids, cfg.focal_alpha, cfg.focal_gamma)
        terms.append((alpha * (cfg.lambda_reg * reg_sum / norm), alpha * (cfg.lambda_cls * cls_sum / norm)))
    (reg, cls), *rest = terms
    for reg_r, cls_r in rest:
        reg += reg_r
        cls += cls_r
    return LossBreakdown(
        reg_loss=reg,
        cls_loss=cls,
        total=reg + cls,
        lambda_reg=cfg.lambda_reg,
        lambda_cls=cfg.lambda_cls,
        alpha_init=cfg.alpha_init,
        alpha_refined=cfg.alpha_refined,
        num_anchors=num_anchors,
        num_positives=int(pos_idx.size),
    )
