"""Anchor generation and positive/negative label assignment for oriented
boxes.

Three strategies run one labelling pipeline over one (gt, anchor, IoU)
table, with one threshold rule (:func:`adaptive_thresholds`), one claim
resolver and one starved-gt fallback:

* ``assign_maxiou``  -- fixed thresholds over the anchors a gt overlaps.
* ``assign_atss``    -- per-gt adaptive threshold mean + std of candidate
  IoUs, candidates being the k nearest anchors per pyramid level.
* ``assign_mas``     -- the adaptive threshold modulated by a shape weight
  that lowers the bar for elongated and strongly rotated objects.

One square anchor is placed per feature-grid location. Assignment over
independent scenes is embarrassingly parallel; all functions are pure and
the anchor grid is immutable, so it can be shared across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    HALF_PI,
    MAX_EXTENT,
    QUARTER_PI,
    OrientedBox,
    _box_frame,
    _corners,
    _inside_mask,
    _ious_between,
)

NEGATIVE = -1
IGNORE = -2

ANGLE_DEPENDENT = "angle-dependent"
CONSTANT_ONE = "constant-one"

# Aspect ratio at which the shape weight compensates to exactly 1 (the most
# common object shape; keeps those objects at the unmodulated threshold).
_REFERENCE_ASPECT = 1.5


@dataclass(frozen=True)
class GroundTruth:
    """An annotated object: its box plus a category id."""

    box: OrientedBox
    class_id: int = 0

    @property
    def aspect(self) -> float:
        return self.box.w / self.box.h

    @property
    def angle(self) -> float:
        return self.box.theta


@dataclass(frozen=True)
class MasConfig:
    """Knobs of the shape-aware adaptive assignment.

    ``lambda_mode`` selects the angle term: ``"angle-dependent"`` (default)
    or ``"constant-one"`` (ablation: |lambda| pinned to 1). ``raw_lambda``
    keeps the signed angle weight in the exponent instead of its magnitude;
    it exists to demonstrate why the magnitude is required and breaks the
    documented threshold monotonicity. ``unit_weight`` bypasses the shape
    weight entirely (f = 1), reducing the strategy to the plain adaptive
    baseline; used by self-checks.
    """

    gamma: float = 5.0
    lambda_mode: str = ANGLE_DEPENDENT
    candidate_k: int = 9
    threshold_clamp: tuple[float, float] = (0.05, 0.95)
    use_center_prior: bool = True
    raw_lambda: bool = False
    unit_weight: bool = False

    def __post_init__(self) -> None:
        if not self.gamma > 0.0:
            raise ValueError("gamma must be positive")
        if self.lambda_mode not in (ANGLE_DEPENDENT, CONSTANT_ONE):
            raise ValueError(f"unknown lambda_mode {self.lambda_mode!r}")
        if self.candidate_k < 1:
            raise ValueError("candidate_k must be >= 1")
        lo, hi = self.threshold_clamp
        if not 0.0 <= lo < hi <= 1.0:
            raise ValueError("threshold_clamp must satisfy 0 <= min < max <= 1")


@dataclass(frozen=True)
class MaxIouConfig:
    """Fixed IoU thresholds of :func:`assign_maxiou`."""

    pos_thr: float = 0.5
    neg_thr: float = 0.4

    def __post_init__(self) -> None:
        if not 0.0 <= self.neg_thr <= self.pos_thr <= 1.0:
            raise ValueError("need 0 <= neg_thr <= pos_thr <= 1")


@dataclass(frozen=True)
class AnchorsConfig:
    """Anchor pyramid of :func:`generate_anchors`: ascending strides and the
    anchor side per stride."""

    strides: tuple[float, ...] = (8.0, 16.0, 32.0, 64.0, 128.0)
    scale_multiplier: float = 4.0

    def __post_init__(self) -> None:
        if not self.strides:
            raise ValueError("at least one stride is required")
        if any(not s > 0 for s in self.strides) or list(self.strides) != sorted(self.strides):
            raise ValueError("strides must be positive and ascending")
        if not self.scale_multiplier > 0:
            raise ValueError("scale_multiplier must be positive")
        if not self.strides[-1] * max(1.0, self.scale_multiplier) <= MAX_EXTENT:
            raise ValueError("the largest stride and its anchor side must not exceed 2**508")

    def level_shapes(self, image_size: tuple[int, int]) -> list[tuple[int, int]]:
        """(columns, rows) of each level over ``image_size``: ceil(extent /
        stride), so partially covered border cells still receive an anchor."""
        width, height = image_size
        return [(math.ceil(width / stride), math.ceil(height / stride)) for stride in self.strides]


@dataclass(frozen=True, eq=False)
class AnchorLevel:
    stride: float
    width: int
    height: int
    anchor_size: float


@dataclass(frozen=True, eq=False)
class AnchorGrid:
    """Square anchors (theta = 0), one per cell, center (cell + 0.5)*stride.

    Anchors are indexed level-major, then row-major within a level.
    """

    levels: tuple[AnchorLevel, ...]
    centers: np.ndarray = field(repr=False)
    sizes: np.ndarray = field(repr=False)
    level_slices: tuple[slice, ...] = field(repr=False)

    @property
    def num_anchors(self) -> int:
        return self.centers.shape[0]

    def box(self, index: int) -> OrientedBox:
        cx, cy = self.centers[index]
        size = float(self.sizes[index])
        return OrientedBox(float(cx), float(cy), size, size, 0.0)


def generate_anchors(
    image_size: int | tuple[int, int],
    strides: list[float] | tuple[float, ...],
    scale_multiplier: float = AnchorsConfig.scale_multiplier,
) -> AnchorGrid:
    """Lay one square anchor of side stride * scale_multiplier per cell of
    each level (:meth:`AnchorsConfig.level_shapes`)."""
    if isinstance(image_size, (int, float)):
        image_size = (image_size, image_size)
    if image_size[0] <= 0 or image_size[1] <= 0:
        raise ValueError("image_size must be positive")
    cfg = AnchorsConfig(tuple(float(s) for s in strides), scale_multiplier)
    levels = tuple(
        AnchorLevel(stride, w_cells, h_cells, stride * scale_multiplier)
        for stride, (w_cells, h_cells) in zip(cfg.strides, cfg.level_shapes(image_size))
    )
    bounds = np.cumsum([0] + [level.width * level.height for level in levels]).tolist()
    centers = []
    for level in levels:
        ix, iy = np.meshgrid(np.arange(level.width), np.arange(level.height))
        centers.append(np.stack([(ix.ravel() + 0.5) * level.stride, (iy.ravel() + 0.5) * level.stride], axis=1))
    return AnchorGrid(
        levels=levels,
        centers=np.concatenate(centers, axis=0),
        sizes=np.repeat([level.anchor_size for level in levels], np.diff(bounds)),
        level_slices=tuple(map(slice, bounds, bounds[1:])),
    )


def angle_weight(theta: float) -> float:
    """Signed angle weight: -1/2 - sin^2(theta) left of pi/4, +1/2 +
    sin^2(theta - pi/2) at or right of it. Magnitude 0.5 at the equilibrium
    angles {0, pi/2} and 1 at the maximal-mismatch angles {+-pi/4, 3pi/4}."""
    if not -QUARTER_PI <= theta < 3.0 * QUARTER_PI:
        raise ValueError(f"theta={theta} outside [-pi/4, 3pi/4); normalize first")
    if theta < QUARTER_PI:
        return -0.5 - math.sin(-theta) ** 2
    return 0.5 + math.sin(theta - HALF_PI) ** 2


def shape_exponent(
    aspect: float,
    theta: float,
    gamma: float,
    lambda_mode: str = ANGLE_DEPENDENT,
    raw_lambda: bool = False,
) -> float:
    """The exponent (1.5 - aspect * |lambda|) / gamma of :func:`shape_weight`.
    It orders (aspect, angle) pairs as the weight does, and stays exact in
    that order where exp over- or underflows."""
    if aspect < 1.0:
        raise ValueError("aspect must be >= 1 (long-edge convention)")
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    if lambda_mode == CONSTANT_ONE:
        lam = 1.0
    elif lambda_mode == ANGLE_DEPENDENT:
        lam = angle_weight(theta)
        if not raw_lambda:
            lam = abs(lam)
    else:
        raise ValueError(f"unknown lambda_mode {lambda_mode!r}")
    return (_REFERENCE_ASPECT - aspect * lam) / gamma


def shape_weight(
    aspect: float,
    theta: float,
    gamma: float,
    lambda_mode: str = ANGLE_DEPENDENT,
    raw_lambda: bool = False,
) -> float:
    """Threshold modulation factor exp((1.5 - aspect * |lambda|) / gamma).

    Algebraically this is the compensated form Co * exp(-(aspect/gamma) *
    |lambda|) with Co = exp(1.5/gamma); the single exponent makes the
    compensation cancel exactly (f == 1.0) at aspect 1.5 with |lambda| = 1.
    Strictly decreasing in aspect, maximal at the equilibrium angles. A
    small gamma can push the exponent past the float range: the weight then
    saturates to inf (and the clamped threshold to its upper bound).
    """
    return saturating_exp(shape_exponent(aspect, theta, gamma, lambda_mode, raw_lambda))


def saturating_exp(x: float) -> float:
    """math.exp, with inf instead of an OverflowError past the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def select_candidates(grid: AnchorGrid, gt: GroundTruth, k: int) -> np.ndarray:
    """Indices of the k anchors nearest to the gt center, per pyramid level.

    Levels holding fewer than k anchors contribute all of them. Distance ties
    break toward the lower anchor index (stable sort). A cell's squared
    distance is ``dx2[col] + dy2[row]``; the k-th smallest sum over the k
    nearest columns and rows bounds the level's k-th distance, and rounded
    addition is monotone, so every cell at or under the bound lies in the
    columns and rows that reach it with the other axis' minimum. A stable
    sort of that sub-lattice, in row-major order, equals a stable sort of
    the whole level (kept whole when it holds fewer than k cells), at a
    cost that grows with the level's side, not its area."""
    if k < 1:
        raise ValueError("k must be >= 1")
    picked = []
    for start, lattice, xs, ys in _lattice_axes(grid):
        dx2 = (xs - gt.box.cx) ** 2
        dy2 = (ys - gt.box.cy) ** 2
        near = np.add.outer(_smallest(dy2, k), _smallest(dx2, k))
        bound = np.partition(near, k - 1, axis=None)[k - 1] if near.size >= k else math.inf
        cols = np.flatnonzero(dx2 + dy2.min() <= bound)
        rows = np.flatnonzero(dy2 + dx2.min() <= bound)
        order = np.argsort(dx2[cols] + dy2[rows, None], axis=None, kind="stable")[:k]
        picked.append(_cross(start, lattice.width, rows, cols)[order])
    return np.concatenate(picked)


def _lattice_axes(grid: AnchorGrid):
    """Per level: the index of its first anchor, the level, and its lattice
    axes as views of ``grid.centers`` (row 0 gives each column's x, column
    0 each row's y)."""
    for lattice, level in zip(grid.levels, grid.level_slices):
        centers = grid.centers[level]
        yield level.start, lattice, centers[: lattice.width, 0], centers[:: lattice.width, 1]


def _smallest(values: np.ndarray, k: int) -> np.ndarray:
    """The k smallest of ``values`` in no particular order (all of them if
    there are no more than k)."""
    return values if values.size <= k else np.partition(values, k - 1)[:k]


def _cross(start: int, width: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Ascending indices of the cells in ``rows`` x ``cols`` (each
    ascending) of a level whose first anchor is ``start``."""
    return (start + rows[:, None] * width + cols).ravel()


def iou_statistics(candidate_ious) -> tuple[float, float, float]:
    """Mean, population standard deviation, and their sum (the adaptive
    initial threshold) of a candidate IoU list, as floats, or of each row
    of a table of them, as arrays."""
    ious = np.asarray(candidate_ious, dtype=float)
    if ious.size == 0:
        raise ValueError("no candidate IoUs")
    if np.any(ious < 0.0) or np.any(ious > 1.0):
        raise ValueError("IoU values must lie in [0, 1]")
    mean = ious.mean(axis=-1)
    std = np.sqrt(np.mean((ious - mean[..., None]) ** 2, axis=-1))
    if ious.ndim == 1:
        mean, std = float(mean), float(std)
    return mean, std, mean + std


def mas_threshold(gt: GroundTruth, candidate_ious, cfg: MasConfig) -> float:
    """Shape-modulated adaptive threshold, clamped to cfg.threshold_clamp."""
    _, _, init = iou_statistics(candidate_ious)
    return float(adaptive_thresholds([gt.aspect], [gt.angle], init, cfg)[3][0])


def adaptive_thresholds(aspects, angles, init, cfg: MasConfig):
    """Per (aspect, angle) pair: the shape exponent (0 under ``unit_weight``,
    so f = 1), the shape weight f, and ``f * init`` before and after
    cfg.threshold_clamp, for one initial threshold or one per pair. A zero
    ``init`` gives 0, not inf * 0 = nan; a product past the float range inf."""
    shape = (cfg.gamma, cfg.lambda_mode, cfg.raw_lambda)
    exponents = [0.0 if cfg.unit_weight else shape_exponent(a, t, *shape) for a, t in zip(aspects, angles)]
    weights = np.array([saturating_exp(e) for e in exponents])
    with np.errstate(over="ignore"):
        raw = np.multiply(weights, init, out=np.zeros_like(weights), where=np.not_equal(init, 0.0))
    return np.array(exponents), weights, raw, np.clip(raw, *cfg.threshold_clamp)


@dataclass(frozen=True, eq=False)
class AssignmentResult:
    """Per-anchor label and per-gt bookkeeping.

    ``gt_index[i]`` is the matched gt for positive anchors, ``NEGATIVE`` for
    background, ``IGNORE`` for anchors excluded from the classification loss.
    ``thresholds[g]`` is the IoU threshold that was applied to gt g and
    ``positive_counts[g]`` the number of anchors finally assigned to it.
    """

    gt_index: np.ndarray
    thresholds: np.ndarray
    positive_counts: np.ndarray

    @property
    def num_positives(self) -> int:
        return int(np.count_nonzero(self.gt_index >= 0))

    def positive_mask(self) -> np.ndarray:
        return self.gt_index >= 0

    def negative_mask(self) -> np.ndarray:
        return self.gt_index == NEGATIVE


def _overlapping_anchor_indices(grid: AnchorGrid, lo, hi) -> np.ndarray:
    """Anchors whose axis-aligned bounds overlap the gt's, (min x, min y)
    ``lo`` to ``hi``; every anchor with nonzero IoU is included.

    The x test depends only on the column and the y test only on the row,
    so each level crosses the columns and the rows that pass: the strict
    test over every anchor, in ascending order, at a cost that grows with
    the level's side."""
    picked = []
    for start, lattice, xs, ys in _lattice_axes(grid):
        half = 0.5 * lattice.anchor_size
        cols = np.flatnonzero((xs - half < hi[0]) & (xs + half > lo[0]))
        rows = np.flatnonzero((ys - half < hi[1]) & (ys + half > lo[1]))
        picked.append(_cross(start, lattice.width, rows, cols))
    return np.concatenate(picked)


def _resolve_claims(gt_index: np.ndarray, anchors: np.ndarray, ious: np.ndarray, gts: np.ndarray) -> None:
    """Per-anchor winner-take-all over claims (anchors[i], ious[i], gts[i]),
    written into ``gt_index``: highest IoU, ties to the lowest gt index."""
    order = np.lexsort((gts, -ious, anchors))
    anchors, gts = anchors[order], gts[order]
    first = np.diff(anchors, prepend=-1) != 0  # first claim on each anchor
    gt_index[anchors[first]] = gts[first]


def _apply_fallback(
    gt_index: np.ndarray, owner: np.ndarray, anchor: np.ndarray, iou: np.ndarray, num_gts: int
) -> np.ndarray:
    """Give every starved gt a positive where it can; return the per-gt
    positive counts.

    Works in rounds over the (gt, anchor, IoU) rows. Each gt with no
    positive claims its best row of nonzero IoU whose anchor no round has
    forced yet: the highest IoU, ties to the lowest anchor index, found
    without a sort by ``np.maximum.at`` and ``np.minimum.at`` over the free
    rows. The round's claims go through :func:`_resolve_claims`, and each
    winner is forced positive, even over another gt's claim. A gt that lost
    its last positive, or lost the contest, claims again in the next round.
    Forced anchors are never claimed again, so the rounds end."""
    counts = np.bincount(gt_index[gt_index >= 0], minlength=num_gts)
    forced = np.zeros(gt_index.shape, dtype=bool)
    while True:
        free = np.flatnonzero((counts[owner] == 0) & (iou > 0.0) & ~forced[anchor])
        best = np.zeros(num_gts)  # each gt's best free IoU, 0 if it has no free row
        np.maximum.at(best, owner[free], iou[free])
        free = free[iou[free] == best[owner[free]]]
        lowest = np.full(num_gts, gt_index.size)  # the lowest anchor of that IoU
        np.minimum.at(lowest, owner[free], anchor[free])
        claimants = np.flatnonzero(best)
        if not claimants.size:
            return counts
        won = np.unique(lowest[claimants])
        losers = gt_index[won]
        _resolve_claims(gt_index, lowest[claimants], best[claimants], claimants)
        counts -= np.bincount(losers[losers >= 0], minlength=counts.size)
        counts += np.bincount(gt_index[won], minlength=counts.size)
        forced[won] = True


def _assign(grid: AnchorGrid, gts, cfg: MasConfig | MaxIouConfig) -> AssignmentResult:
    """The labelling pipeline of all three strategies.

    The candidate anchors of every gt (the k nearest per level for ATSS and
    MAS, the overlapping ones for maxiou) form one table of (gt, anchor,
    IoU) rows, whose exact IoUs come from one clipping-kernel call. ATSS
    and MAS give every gt as many candidates, so their rows reshape to a
    (gts, candidates) array, thresholded by :func:`adaptive_thresholds` and
    center-prior tested by :func:`_inside_mask` in one call each. Each gt
    claims its rows whose IoU is nonzero and meets its threshold (maxiou:
    ``pos_thr``). Claims are resolved by IoU, maxiou marks its ignore band,
    and :func:`_apply_fallback` serves the starved gts from the same table."""
    adaptive = isinstance(cfg, MasConfig)
    if not gts:  # every anchor's highest IoU is 0, in maxiou's ignore band at neg_thr 0
        label = NEGATIVE if adaptive or cfg.neg_thr > 0.0 else IGNORE
        return AssignmentResult(np.full(grid.num_anchors, label, dtype=int), np.empty(0), np.zeros(0, dtype=int))
    frames = np.array([_box_frame(gt.box) for gt in gts]).T  # six (gts,) columns
    if adaptive:
        candidates = [select_candidates(grid, gt, cfg.candidate_k) for gt in gts]
    else:
        corners = np.array(_corners(frames))  # (corner, x or y, gt)
        candidates = [_overlapping_anchor_indices(grid, *b) for b in zip(corners.min(0).T, corners.max(0).T)]
    anchor = np.concatenate(candidates)
    owner = np.repeat(np.arange(len(gts)), [cand.size for cand in candidates])
    (x, y), sides = grid.centers[anchor].T, grid.sizes[anchor]
    half = 0.5 * sides
    squares = (x, y, math.cos(0.0), math.sin(0.0), half, half)
    iou = _ious_between(frames[:, owner], np.array([gt.box.area for gt in gts])[owner], squares, sides * sides)
    eligible = iou > 0.0
    if adaptive:
        _, _, init = iou_statistics(iou.reshape(len(gts), -1))
        thresholds = adaptive_thresholds([gt.aspect for gt in gts], [gt.angle for gt in gts], init, cfg)[3]
        if cfg.use_center_prior:
            eligible &= _inside_mask(frames[..., None], x.reshape(len(gts), -1), y.reshape(len(gts), -1)).ravel()
    else:
        thresholds = np.full(len(gts), cfg.pos_thr)
    eligible &= iou >= thresholds[owner]

    gt_index = np.full(grid.num_anchors, NEGATIVE, dtype=int)
    _resolve_claims(gt_index, anchor[eligible], iou[eligible], owner[eligible])
    if not adaptive:
        max_iou = np.zeros(grid.num_anchors)
        np.maximum.at(max_iou, anchor, iou)
        gt_index[(max_iou >= cfg.neg_thr) & (gt_index == NEGATIVE)] = IGNORE
    counts = _apply_fallback(gt_index, owner, anchor, iou, len(gts))
    return AssignmentResult(gt_index=gt_index, thresholds=thresholds, positive_counts=counts)


def assign_mas(grid: AnchorGrid, gts, cfg: MasConfig | None = None) -> AssignmentResult:
    """Shape-aware adaptive assignment.

    Per gt: take the k nearest anchors per level, threshold their IoUs at
    the shape-modulated mean + std, optionally require anchor centers inside
    the gt, and resolve multi-gt anchors by IoU, ties to the lower gt index.
    A gt left without a positive then gets its best free nonzero-IoU
    candidate, by the starved-gt rule that all three strategies share
    (:func:`_apply_fallback`). Labels are invariant under gt permutation
    up to exact IoU ties."""
    return _assign(grid, gts, cfg or MasConfig())


def assign_atss(
    grid: AnchorGrid,
    gts,
    k: int = MasConfig.candidate_k,
    use_center_prior: bool = MasConfig.use_center_prior,
    threshold_clamp: tuple[float, float] = MasConfig.threshold_clamp,
) -> AssignmentResult:
    """Adaptive-threshold baseline: :func:`assign_mas` with the shape weight
    pinned to 1."""
    cfg = MasConfig(
        candidate_k=k,
        use_center_prior=use_center_prior,
        threshold_clamp=threshold_clamp,
        unit_weight=True,
    )
    return assign_mas(grid, gts, cfg)


def assign_maxiou(
    grid: AnchorGrid,
    gts,
    pos_thr: float = MaxIouConfig.pos_thr,
    neg_thr: float = MaxIouConfig.neg_thr,
) -> AssignmentResult:
    """Fixed-threshold baseline.

    An anchor is positive for the gt of highest IoU when that nonzero IoU
    >= pos_thr, ties to the lower gt index. An anchor that is not positive
    is ignored when its highest IoU is >= neg_thr and negative otherwise.
    A gt left without a positive then gets its best free nonzero-IoU
    anchor, by the starved-gt rule that all three strategies share
    (:func:`_apply_fallback`). Labels are invariant under gt permutation
    up to exact IoU ties."""
    return _assign(grid, gts, MaxIouConfig(pos_thr, neg_thr))
