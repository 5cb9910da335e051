"""Anchor generation and positive/negative label assignment for oriented
boxes.

Three strategies run one labelling pipeline, with one claim resolver and
one starved-gt fallback:

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
    QUARTER_PI,
    OrientedBox,
    _box_corners,
    _iou,
    contains_points,
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
        if any(s <= 0 for s in self.strides) or list(self.strides) != sorted(self.strides):
            raise ValueError("strides must be positive and ascending")
        if self.scale_multiplier <= 0:
            raise ValueError("scale_multiplier must be positive")


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
    """Lay one square anchor of side stride * scale_multiplier per cell.

    Cell counts are ceil(extent / stride), so partially covered border cells
    still receive an anchor.
    """
    if isinstance(image_size, (int, float)):
        image_size = (image_size, image_size)
    width_px, height_px = image_size
    if width_px <= 0 or height_px <= 0:
        raise ValueError("image_size must be positive")
    strides = AnchorsConfig(tuple(float(s) for s in strides), scale_multiplier).strides

    levels = []
    centers = []
    sizes = []
    slices = []
    start = 0
    for stride in strides:
        w_cells = math.ceil(width_px / stride)
        h_cells = math.ceil(height_px / stride)
        levels.append(AnchorLevel(stride, w_cells, h_cells, stride * scale_multiplier))
        ix, iy = np.meshgrid(np.arange(w_cells), np.arange(h_cells))
        cx = (ix.ravel() + 0.5) * stride
        cy = (iy.ravel() + 0.5) * stride
        centers.append(np.stack([cx, cy], axis=1))
        sizes.append(np.full(w_cells * h_cells, stride * scale_multiplier))
        slices.append(slice(start, start + w_cells * h_cells))
        start += w_cells * h_cells
    return AnchorGrid(
        levels=tuple(levels),
        centers=np.concatenate(centers, axis=0),
        sizes=np.concatenate(sizes),
        level_slices=tuple(slices),
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
    Strictly decreasing in aspect, maximal at the equilibrium angles.
    """
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
    return math.exp((_REFERENCE_ASPECT - aspect * lam) / gamma)


def select_candidates(grid: AnchorGrid, gt: GroundTruth, k: int) -> np.ndarray:
    """Indices of the k anchors nearest to the gt center, per pyramid level.

    Levels holding fewer than k anchors contribute all of them. Distance ties
    break toward the lower anchor index (stable sort)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    picked = []
    for level_slice in grid.level_slices:
        centers = grid.centers[level_slice]
        d2 = (centers[:, 0] - gt.box.cx) ** 2 + (centers[:, 1] - gt.box.cy) ** 2
        order = np.argsort(d2, kind="stable")[:k]
        picked.append(order + level_slice.start)
    return np.concatenate(picked)


def iou_statistics(candidate_ious) -> tuple[float, float, float]:
    """Mean, population standard deviation, and their sum (the adaptive
    initial threshold) of a candidate IoU list."""
    ious = np.asarray(candidate_ious, dtype=float)
    if ious.size == 0:
        raise ValueError("no candidate IoUs")
    if np.any(ious < 0.0) or np.any(ious > 1.0):
        raise ValueError("IoU values must lie in [0, 1]")
    mean = float(ious.mean())
    std = float(np.sqrt(np.mean((ious - mean) ** 2)))
    return mean, std, mean + std


def mas_threshold(gt: GroundTruth, candidate_ious, cfg: MasConfig) -> float:
    """Shape-modulated adaptive threshold, clamped to cfg.threshold_clamp."""
    _, _, init = iou_statistics(candidate_ious)
    if cfg.unit_weight:
        f = 1.0
    else:
        f = shape_weight(gt.aspect, gt.angle, cfg.gamma, cfg.lambda_mode, cfg.raw_lambda)
    lo, hi = cfg.threshold_clamp
    return min(hi, max(lo, f * init))


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


def _ious_against_anchors(grid: AnchorGrid, indices: np.ndarray, gt_box: OrientedBox) -> np.ndarray:
    """Exact IoU between one gt box and the given anchors. The gt is always
    the polygon being clipped, with no canonical reordering, so a value may
    differ from :func:`rotated_iou` in the last bit."""
    return np.array([_iou(gt_box, grid.box(i)) for i in indices.tolist()], dtype=float)


def _overlapping_anchor_indices(grid: AnchorGrid, gt_box: OrientedBox) -> np.ndarray:
    """Anchors whose axis-aligned bounds overlap the gt's bounds; every
    anchor with nonzero IoU is included (anchors are axis-aligned)."""
    corners = np.array(_box_corners(gt_box))
    lo = corners.min(axis=0)
    hi = corners.max(axis=0)
    half = grid.sizes * 0.5
    cx = grid.centers[:, 0]
    cy = grid.centers[:, 1]
    mask = (cx - half < hi[0]) & (cx + half > lo[0]) & (cy - half < hi[1]) & (cy + half > lo[1])
    return np.nonzero(mask)[0]


def _resolve_claims(gt_index: np.ndarray, anchors: np.ndarray, ious: np.ndarray, gts: np.ndarray) -> None:
    """Per-anchor winner-take-all over claims (anchors[i], ious[i], gts[i]),
    written into ``gt_index``: highest IoU, ties to the lowest gt index."""
    order = np.lexsort((gts, -ious, anchors))
    anchors, gts = anchors[order], gts[order]
    first = np.diff(anchors, prepend=-1) != 0  # first claim on each anchor
    gt_index[anchors[first]] = gts[first]


def _apply_fallback(
    gt_index: np.ndarray,
    candidates: list[np.ndarray],
    candidate_ious: list[np.ndarray],
) -> np.ndarray:
    """Give every starved gt a positive where it can; return the per-gt
    positive counts.

    Works in rounds. Each gt with no positive claims its best candidate
    that no round has forced yet: the highest nonzero IoU, ties to the
    lowest anchor index. The round's claims go through
    :func:`_resolve_claims`, and each winner is forced positive, even over
    another gt's claim. A gt that lost its last positive, or lost the
    contest, claims again in the next round. Forced anchors are never
    claimed again, so the rounds end."""
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


def _assign(grid: AnchorGrid, gts, cfg: MasConfig | MaxIouConfig) -> AssignmentResult:
    """The labelling pipeline of all three strategies.

    Per gt: the candidate anchors (the k nearest per level for ATSS and MAS,
    the overlapping ones for maxiou), their exact IoUs, a threshold, and
    claims on the candidates whose IoU is nonzero and meets it; ATSS and MAS
    also apply the center prior. Claims are resolved by IoU, maxiou marks
    its ignore band, and :func:`_apply_fallback` serves the starved gts."""
    adaptive = isinstance(cfg, MasConfig)
    thresholds = np.zeros(len(gts))
    candidates: list[np.ndarray] = []
    candidate_ious: list[np.ndarray] = []
    claims: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # (anchors, ious, gts) per gt

    for g, gt in enumerate(gts):
        if adaptive:
            cand = select_candidates(grid, gt, cfg.candidate_k)
        else:
            cand = _overlapping_anchor_indices(grid, gt.box)
        ious = _ious_against_anchors(grid, cand, gt.box)
        candidates.append(cand)
        candidate_ious.append(ious)
        thresholds[g] = mas_threshold(gt, ious, cfg) if adaptive else cfg.pos_thr
        eligible = (ious >= thresholds[g]) & (ious > 0.0)
        if adaptive and cfg.use_center_prior:
            eligible &= contains_points(gt.box, grid.centers[cand])
        claims.append((cand[eligible], ious[eligible], np.full(np.count_nonzero(eligible), g)))

    gt_index = np.full(grid.num_anchors, NEGATIVE, dtype=int)
    if claims:
        _resolve_claims(gt_index, *(np.concatenate(column) for column in zip(*claims)))
    if not adaptive:
        max_iou = np.zeros(grid.num_anchors)
        for cand, ious in zip(candidates, candidate_ious):
            max_iou[cand] = np.maximum(max_iou[cand], ious)
        gt_index[(max_iou >= cfg.neg_thr) & (gt_index == NEGATIVE)] = IGNORE
    counts = _apply_fallback(gt_index, candidates, candidate_ious)
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
