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

One square anchor is placed per feature-grid location. The pipeline runs
over a stack of scenes that share one anchor grid, and a one-scene call
is a stack of one: each scene owns its own copy of every anchor (a slot),
so its labels, thresholds and positive counts are those of a call of its
own, label for label and bit for bit. All functions are pure and the
anchor grid is immutable, so it can be shared across threads.
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

# The pad (px^2) that :func:`_iou_bounds` adds to an overlap bound for the
# rounding of the clipper's overlap area, for a square of half side h and
# reach R (the largest coordinate of its corners, at least 1) and a gt of
# half long edge w: ``R * (_PAD_REACH * R + _PAD_EXTENT * (h + w))``. The
# shoelace of absolute coordinates rounds each of about ten products of
# size R^2, under 2.5e-15 R^2 in all; `_merge_close` drops up to about ten
# vertices within 1e-12 R of a kept one, each a sliver under 2e-12 R h, and
# edge crossings move vertices by a few ulp of R + w, under 2e-11 R (h + w)
# of area in all. The constants hold at least five times these.
_PAD_REACH = 1e-13
_PAD_EXTENT = 1e-10


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
    level_slices = tuple(map(slice, bounds, bounds[1:]))
    centers, sizes = np.empty((bounds[-1], 2)), np.empty(bounds[-1])
    for level, cells in zip(levels, level_slices):
        lattice = centers[cells].reshape(level.height, level.width, 2)
        lattice[..., 0] = (np.arange(level.width) + 0.5) * level.stride
        lattice[..., 1] = ((np.arange(level.height) + 0.5) * level.stride)[:, None]
        sizes[cells] = level.anchor_size
    return AnchorGrid(levels=levels, centers=centers, sizes=sizes, level_slices=level_slices)


def angle_weight(theta):
    """Signed angle weight of a float, or of each angle of an array: -1/2 -
    sin^2(theta) left of pi/4, +1/2 + sin^2(theta - pi/2) at or right of it.
    Magnitude 0.5 at the equilibrium angles {0, pi/2} and 1 at the
    maximal-mismatch angles {+-pi/4, 3pi/4}. The square rounds as ``** 2``
    of a Python float, which ``x * x`` and ``np.power`` do not."""
    thetas = np.asarray(theta, dtype=float)
    if not np.all((-QUARTER_PI <= thetas) & (thetas < 3.0 * QUARTER_PI)):
        raise ValueError(f"theta={theta} outside [-pi/4, 3pi/4); normalize first")
    right = thetas >= QUARTER_PI
    s = np.sin(np.where(right, thetas - HALF_PI, -thetas))
    square = np.float_power(s, np.full(s.shape, 2.0))
    lam = np.where(right, 0.5 + square, -0.5 - square)
    return float(lam) if lam.ndim == 0 else lam


def shape_exponent(
    aspect: float,
    theta: float,
    gamma: float,
    lambda_mode: str = ANGLE_DEPENDENT,
    raw_lambda: bool = False,
) -> float:
    """The exponent (1.5 - aspect * |lambda|) / gamma of :func:`shape_weight`:
    the one-pair case of :func:`adaptive_thresholds`."""
    cfg = MasConfig(gamma=gamma, lambda_mode=lambda_mode, raw_lambda=raw_lambda)
    return float(adaptive_thresholds([aspect], [theta], 0.0, cfg)[0][0])


def shape_weight(
    aspect: float,
    theta: float,
    gamma: float,
    lambda_mode: str = ANGLE_DEPENDENT,
    raw_lambda: bool = False,
) -> float:
    """Threshold modulation factor exp((1.5 - aspect * |lambda|) / gamma):
    the one-pair case of :func:`adaptive_thresholds`."""
    cfg = MasConfig(gamma=gamma, lambda_mode=lambda_mode, raw_lambda=raw_lambda)
    return float(adaptive_thresholds([aspect], [theta], 0.0, cfg)[1][0])


def saturating_exp(x: float) -> float:
    """math.exp, with inf instead of an OverflowError past the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def select_candidates(grid: AnchorGrid, gt: GroundTruth, k: int) -> np.ndarray:
    """Indices of the k anchors nearest to the gt center, per pyramid level:
    the one-gt case of :func:`_nearest_anchors`."""
    return _nearest_anchors(grid, np.array([gt.box.cx]), np.array([gt.box.cy]), k)[0]


def _nearest_anchors(grid: AnchorGrid, cx: np.ndarray, cy: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(anchor, owner) rows, owner-major: the k anchors nearest to each
    center (cx[g], cy[g]) per pyramid level, levels in order, found for all
    centers in one pass per level.

    Levels holding fewer than k anchors contribute all of them. Distance ties
    break toward the lower anchor index (stable sort). A cell's squared
    distance is ``dx2[col] + dy2[row]``; the k-th smallest sum over the k
    nearest columns and rows bounds the level's k-th distance, and rounded
    addition is monotone, so every cell at or under the bound lies in the
    columns and rows that reach it with the other axis' minimum. Rounded
    squares fall and then rise along an axis, so those columns and those
    rows are one interval each. A stable sort of that window, in row-major
    order, equals a stable sort of the whole level, at a cost that grows
    with the level's side, not its area. The windows are padded with inf to
    the widest and sorted in one call; a window wider than k + 1 cells on an
    axis (a center so far out that whole lines tie) is sorted as a group of
    its own, so that it widens no other."""
    if k < 1:
        raise ValueError("k must be >= 1")
    picked = []
    for start, lattice, xs, ys in _lattice_axes(grid):
        dx2 = (xs - cx[:, None]) ** 2
        dy2 = (ys - cy[:, None]) ** 2
        take = min(k, xs.size * ys.size)
        bound = np.full((cx.size, 1), math.inf)
        if take == k:
            near_y, near_x = _smallest(dy2, k), _smallest(dx2, k)
            near = (near_y[:, :, None] + near_x[:, None, :]).reshape(cx.size, near_y.shape[1] * near_x.shape[1])
            bound = np.partition(near, k - 1, axis=1)[:, k - 1 : k]
        c0, nc = _interval(dx2 + dy2.min(axis=1, keepdims=True) <= bound)
        r0, nr = _interval(dy2 + dx2.min(axis=1, keepdims=True) <= bound)
        wide = (nc > k + 1) | (nr > k + 1)
        groups = [np.flatnonzero(~wide)] + np.flatnonzero(wide)[:, None].tolist() if wide.any() else [slice(None)]
        level = np.empty((cx.size, take), dtype=np.intp)
        for group in groups:
            if cx[group].size:
                ddx, ddy = _window(dx2[group], c0[group], nc[group]), _window(dy2[group], r0[group], nr[group])
                sums = (ddx[:, None, :] + ddy[:, :, None]).reshape(len(ddx), -1)
                row, col = np.divmod(np.argsort(sums, axis=1, kind="stable")[:, :take], ddx.shape[1])
                level[group] = start + (r0[group, None] + row) * lattice.width + c0[group, None] + col
        picked.append(level)
    candidates = np.concatenate(picked, axis=1)
    return candidates.ravel(), np.repeat(np.arange(cx.size), candidates.shape[1])


def _lattice_axes(grid: AnchorGrid):
    """Per level: the index of its first anchor, the level, and its lattice
    axes as views of ``grid.centers`` (row 0 gives each column's x, column
    0 each row's y)."""
    for lattice, level in zip(grid.levels, grid.level_slices):
        centers = grid.centers[level]
        yield level.start, lattice, centers[: lattice.width, 0], centers[:: lattice.width, 1]


def _smallest(values: np.ndarray, k: int) -> np.ndarray:
    """The k smallest of each row of ``values`` in no particular order (all
    of them if a row holds no more than k)."""
    return values if values.shape[1] <= k else np.partition(values, k - 1, axis=1)[:, :k]


def _interval(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first index and the length of the run of True values in each row
    of ``mask``, whose rows hold one run at most."""
    return mask.argmax(axis=1), mask.sum(axis=1)


def _window(values: np.ndarray, first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Row g: ``values[g, first[g] : first[g] + count[g]]``, padded with inf
    to the longest."""
    span = np.arange(count.max())
    at = np.minimum(first[:, None] + span, values.shape[1] - 1)
    return np.where(span < count[:, None], values[np.arange(len(values))[:, None], at], math.inf)


def _runs(firsts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The index runs ``firsts[i] : firsts[i] + sizes[i]``, one after the
    other."""
    return np.repeat(firsts - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())


def iou_statistics(candidate_ious) -> tuple[float, float, float]:
    """Mean, population standard deviation, and their sum (the adaptive
    initial threshold) of a candidate IoU list, as floats, or of each row
    of a table of them, as arrays (empty for a table of no rows)."""
    ious = np.asarray(candidate_ious, dtype=float)
    if ious.shape[-1:] == (0,):
        raise ValueError("no candidate IoUs")
    if not np.all((ious >= 0.0) & (ious <= 1.0)):
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
    """The threshold rule of MAS, per (aspect, angle) pair of two arrays:
    the shape exponent (1.5 - aspect * |lambda|) / gamma (0 under
    ``unit_weight``, so f = 1), the shape weight f = exp(exponent), and
    ``f * init`` before and after cfg.threshold_clamp, for one initial
    threshold or one per pair. The one exponent makes f == 1.0 exactly at
    aspect 1.5 with |lambda| = 1. Each f is one ``math.exp``, which
    ``np.exp`` does not round alike; past the float range f saturates to
    inf, while the exponents keep the order of the pairs. A zero ``init``
    gives 0, not inf * 0 = nan; a product past the float range inf."""
    aspects = np.asarray(aspects, dtype=float)
    with np.errstate(over="ignore"):
        if cfg.unit_weight:
            exponents = np.zeros(aspects.shape)
        elif not np.all(aspects >= 1.0):
            raise ValueError("aspect must be >= 1 (long-edge convention)")
        else:
            lam = 1.0 if cfg.lambda_mode == CONSTANT_ONE else angle_weight(angles)
            if not cfg.raw_lambda:
                lam = abs(lam)
            exponents = (_REFERENCE_ASPECT - aspects * lam) / cfg.gamma
        weights = np.fromiter(map(saturating_exp, exponents.ravel().tolist()), float).reshape(exponents.shape)
        raw = np.multiply(weights, init, out=np.zeros_like(weights), where=np.not_equal(init, 0.0))
    return exponents, weights, raw, np.clip(raw, *cfg.threshold_clamp)


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


def _overlapping_anchor_indices(grid: AnchorGrid, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(anchor, owner) rows, owner-major and then in ascending anchor order:
    the anchors whose axis-aligned bounds overlap those of box g, (min x,
    min y) ``lo[g]`` to ``hi[g]``; every anchor with nonzero IoU is
    included.

    The x test depends only on the column and the y test only on the row,
    and each passes one interval of them, so a box's cells on a level are
    the product of a column and a row interval: the strict test over every
    anchor, at a cost that grows with the level's side."""
    firsts, widths, col_counts, row_counts = [], [], [], []
    for start, lattice, xs, ys in _lattice_axes(grid):
        half = 0.5 * lattice.anchor_size
        c0, nc = _interval((xs - half < hi[:, :1]) & (xs + half > lo[:, :1]))
        r0, nr = _interval((ys - half < hi[:, 1:]) & (ys + half > lo[:, 1:]))
        firsts.append(start + r0 * lattice.width + c0)
        widths.append(lattice.width)
        col_counts.append(nc)
        row_counts.append(nr)
    # one (box, level) segment per entry, box-major
    first, nc, nr = (np.stack(column, axis=1).ravel() for column in (firsts, col_counts, row_counts))
    sizes = nc * nr
    segment = np.repeat(np.arange(sizes.size), sizes)
    row, col = np.divmod(_runs(np.zeros_like(sizes), sizes), nc[segment])
    anchor = first[segment] + row * np.tile(widths, len(lo))[segment] + col
    return anchor, segment // len(widths)


def _resolve_claims(gt_index: np.ndarray, anchors: np.ndarray, ious: np.ndarray, gts: np.ndarray) -> None:
    """Per-anchor winner-take-all over claims (anchors[i], ious[i], gts[i]),
    written into ``gt_index``: highest IoU, ties to the lowest gt index."""
    order = np.lexsort((gts, -ious, anchors))
    anchors, gts = anchors[order], gts[order]
    first = np.diff(anchors, prepend=-1) != 0  # first claim on each anchor
    gt_index[anchors[first]] = gts[first]


def _apply_fallback(gt_index: np.ndarray, table: _CandidateTable, num_gts: int) -> np.ndarray:
    """Give every starved gt a positive where it can; return the per-gt
    positive counts.

    Works in rounds over the rows of ``table``. Each gt with no positive
    claims its best row of nonzero IoU whose anchor no round has forced
    yet: the highest IoU, ties to the lowest anchor index, found without a
    sort by ``np.maximum.at`` and ``np.minimum.at`` over the free rows. The
    round's claims go through :func:`_resolve_claims`, and each winner is
    forced positive, even over another gt's claim. A gt that lost its last
    positive, or lost the contest, claims again in the next round. Forced
    anchors are never claimed again, so the rounds end, and a starved gt
    left without a claim never has one again. The table is owner-major, so
    a round reads only the rows of the gts that can still claim.

    Pending rows hold IoU 0 until ``table.clip`` gives their exact IoUs,
    each at most its bound. Before each pick, while a starved gt has free
    pending rows whose bound reaches its best free IoU b, the ones at or
    above half the gt's highest such bound are clipped. The rows left
    pending then have IoUs below b, so they could neither win nor tie the
    pick."""
    owner, anchor, iou = table.owner, table.anchor, table.iou
    counts = np.bincount(gt_index[gt_index >= 0], minlength=num_gts)
    forced = np.zeros(gt_index.shape, dtype=bool)
    sizes = np.bincount(owner, minlength=num_gts)
    firsts = np.cumsum(sizes) - sizes
    spent = np.zeros(num_gts, dtype=bool)  # starved gts without a claim, now and in every later round
    while True:
        hungry = np.flatnonzero((counts == 0) & ~spent)
        rows = _runs(firsts[hungry], sizes[hungry])
        rows = rows[~forced[anchor[rows]]]
        waiting = rows[table.pending[rows]]
        free = rows[iou[rows] > 0.0]
        best = np.zeros(num_gts)  # each gt's best free IoU, 0 if it has no free row
        np.maximum.at(best, owner[free], iou[free])
        while waiting.size:
            gt, bound = owner[waiting], table.bound[waiting]
            contenders = bound >= best[gt]
            if not contenders.any():
                break
            top = np.zeros(num_gts)
            np.maximum.at(top, gt[contenders], bound[contenders])
            take = contenders & (bound >= 0.5 * top[gt])
            clipped, waiting = waiting[take], waiting[~take]
            table.clip(clipped)
            np.maximum.at(best, owner[clipped], iou[clipped])
            free = np.concatenate([free, clipped[iou[clipped] > 0.0]])
        spent[hungry[best[hungry] == 0.0]] = True
        free = free[iou[free] == best[owner[free]]]
        lowest = np.full(num_gts, gt_index.size)  # the lowest anchor of that IoU
        np.minimum.at(lowest, owner[free], anchor[free])
        claimants = np.flatnonzero(best)
        if not claimants.size:
            return counts
        won = np.sort(lowest[claimants])
        won = won[np.diff(won, prepend=-1) != 0]  # each anchor once; np.unique would load numpy.ma
        losers = gt_index[won]
        _resolve_claims(gt_index, lowest[claimants], best[claimants], claimants)
        counts -= np.bincount(losers[losers >= 0], minlength=counts.size)
        counts += np.bincount(gt_index[won], minlength=counts.size)
        forced[won] = True


def _iou_bounds(lo, hi, owner, x, y, half, gt_area, gt_half_w, anchor_area) -> np.ndarray:
    """Row i: an upper bound on the clipped IoU of gt owner[i], of bounds
    ``lo``/``hi`` ((x or y, gt) arrays), half long edge ``gt_half_w`` and
    area ``gt_area``, against the square of centre (x[i], y[i]), half side
    ``half[i]`` and area ``anchor_area[i]``.

    The overlap is at most I, the least of the two areas and the area of
    the square within the gt's bounds. I is padded by the clipper's
    rounding (:data:`_PAD_REACH`, :data:`_PAD_EXTENT`) and put through the
    clipper's own union and division: rounding is monotone, so a clipped
    overlap at most the padded I gives an IoU at most the bound."""
    inter = np.minimum(hi[0][owner], x + half)
    inter -= np.maximum(lo[0][owner], x - half)
    span = np.minimum(hi[1][owner], y + half)
    span -= np.maximum(lo[1][owner], y - half)
    inter *= span
    gt_area = gt_area[owner]
    np.minimum(inter, gt_area, out=inter)
    np.minimum(inter, anchor_area, out=inter)
    reach = np.maximum(np.abs(x), np.abs(y))
    reach += half
    np.maximum(reach, 1.0, out=reach)
    np.add(half, gt_half_w[owner], out=span)
    span *= _PAD_EXTENT
    span += _PAD_REACH * reach
    span *= reach
    inter += span
    union = np.add(gt_area, anchor_area, out=gt_area)
    union -= inter
    return np.divide(inter, union, out=np.full(union.shape, math.inf), where=union > 0.0)


@dataclass(eq=False)
class _CandidateTable:
    """The candidate stage of a stack of scenes: its gts' frames (six (gts,)
    columns) and areas, and one (gt, anchor) row per candidate, owner-major,
    with the anchor's slot (the anchor plus its scene times the grid's
    anchor count, so the scenes of a stack share no anchor) and the
    anchor's centre (x, y), half side and area. ``iou`` holds a row's exact
    IoU once :meth:`clip` has run on it, and 0 while the row is
    ``pending``; ``bound`` (maxiou) is an upper bound on each row's IoU."""

    frames: np.ndarray
    gt_area: np.ndarray
    anchor: np.ndarray
    owner: np.ndarray
    x: np.ndarray
    y: np.ndarray
    half: np.ndarray
    anchor_area: np.ndarray
    bound: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.iou = np.zeros(self.anchor.size)
        self.pending = np.ones(self.anchor.size, dtype=bool)

    def clip(self, rows) -> None:
        """Clip ``rows`` (an index array or a slice) to their exact IoUs."""
        owner = self.owner[rows]
        square = (self.x[rows], self.y[rows], math.cos(0.0), math.sin(0.0), self.half[rows], self.half[rows])
        self.iou[rows] = _ious_between(self.frames[:, owner], self.gt_area[owner], square, self.anchor_area[rows])
        self.pending[rows] = False


def _candidates(grid: AnchorGrid, scenes, sizes: np.ndarray, cfg: MasConfig | MaxIouConfig) -> _CandidateTable:
    """The candidate stage of a stack of scenes of ``sizes`` gts each: the
    k nearest anchors per level of every gt (ATSS and MAS), every row
    clipped, or the anchors each gt overlaps (maxiou), clipped only where
    :func:`_iou_bounds` reaches ``neg_thr``: a row below it can neither
    claim nor enter the ignore band, and stays pending for the fallback."""
    frames = np.array([_box_frame(gt.box) for gts in scenes for gt in gts]).reshape(-1, 6).T  # six (gts,) columns
    gt_area = np.array([gt.box.area for gts in scenes for gt in gts])
    adaptive = isinstance(cfg, MasConfig)
    if adaptive:
        anchor, owner = _nearest_anchors(grid, frames[0], frames[1], cfg.candidate_k)
    else:
        corners = np.array(_corners(frames))  # (corner, x or y, gt)
        lo, hi = corners.min(0), corners.max(0)
        anchor, owner = _overlapping_anchor_indices(grid, lo.T, hi.T)
    (x, y), sides = grid.centers[anchor].T, grid.sizes[anchor]
    half, anchor_area = 0.5 * sides, sides * sides
    bound = None if adaptive else _iou_bounds(lo, hi, owner, x, y, half, gt_area, frames[4], anchor_area)
    anchor += np.repeat(np.arange(sizes.size) * grid.num_anchors, sizes)[owner]  # each scene's own slots
    table = _CandidateTable(frames, gt_area, anchor, owner, x, y, half, anchor_area, bound)
    table.clip(slice(None) if adaptive else np.flatnonzero(bound >= cfg.neg_thr))
    return table


def _label(grid: AnchorGrid, scenes, sizes: np.ndarray, cfg: MasConfig | MaxIouConfig, table: _CandidateTable):
    """The labelling stage of a stack of scenes of ``sizes`` gts each, one
    result per scene. ATSS and MAS give every gt as many candidates, so
    their rows reshape to a (gts, candidates) array, thresholded by
    :func:`adaptive_thresholds` and centre-prior tested by
    :func:`_inside_mask` in one call each. Each gt claims its rows whose IoU
    is nonzero and meets its threshold (maxiou: ``pos_thr``). Claims are
    resolved by IoU, maxiou marks its ignore band, and
    :func:`_apply_fallback` serves the starved gts from the same table. Only
    the fallback writes into the table, when it clips pending rows, which
    ATSS and MAS tables do not have.

    Labels live in one (scenes x anchors) array of slots. A scene's gts
    are consecutive and keep their order, and its slots keep the order of
    its anchors, so the tie rules (lowest gt, lowest anchor) pick within a
    scene as they would in a call of its own; a scene without gts reads IoU
    0 at every slot, as such a call does."""
    adaptive = isinstance(cfg, MasConfig)
    iou, owner, anchor = table.iou, table.owner, table.anchor
    eligible = iou > 0.0
    if adaptive:
        per_gt = sum(min(cfg.candidate_k, level.stop - level.start) for level in grid.level_slices)
        _, _, init = iou_statistics(iou.reshape(-1, per_gt))
        aspects = [gt.aspect for gts in scenes for gt in gts]
        thresholds = adaptive_thresholds(aspects, [gt.angle for gts in scenes for gt in gts], init, cfg)[3]
        if cfg.use_center_prior:
            x, y = table.x.reshape(-1, per_gt), table.y.reshape(-1, per_gt)
            eligible &= _inside_mask(table.frames[..., None], x, y).ravel()
    else:
        thresholds = np.full(table.gt_area.size, cfg.pos_thr)
    eligible &= iou >= thresholds[owner]

    gt_index = np.full(sizes.size * grid.num_anchors, NEGATIVE, dtype=int)
    _resolve_claims(gt_index, anchor[eligible], iou[eligible], owner[eligible])
    if not adaptive:  # unclaimed anchors whose highest IoU (0 without a row) reaches neg_thr
        band = anchor[iou >= cfg.neg_thr] if cfg.neg_thr > 0.0 else np.flatnonzero(gt_index == NEGATIVE)
        gt_index[band[gt_index[band] == NEGATIVE]] = IGNORE
    counts = _apply_fallback(gt_index, table, table.gt_area.size)
    firsts = np.cumsum(sizes) - sizes
    gt_index = gt_index.reshape(sizes.size, grid.num_anchors)
    later = gt_index[1:]  # each scene's own gt indices; the first scene's are already its own
    np.subtract(later, firsts[1:, None], out=later, where=later >= 0)
    return [
        AssignmentResult(labels, thresholds[first : first + size], counts[first : first + size])
        for labels, first, size in zip(gt_index, firsts.tolist(), sizes.tolist())
    ]


def _assign_all(grid: AnchorGrid, scenes, cfgs) -> list[list[AssignmentResult]]:
    """The labelling pipeline of all three strategies over the stack of
    scenes ``scenes`` (a sequence of gt sequences), for each config of
    ``cfgs``: a candidate stage (:func:`_candidates`), then a labelling
    stage (:func:`_label`). Entry [c][s] is scene s labelled by config c,
    label for label as a call on that scene alone. Each distinct candidate
    table is built once: ATSS and MAS configs of one ``candidate_k`` share
    theirs. A maxiou config gets a table of its own, as its fallback clips
    into it."""
    sizes = np.array([len(gts) for gts in scenes], dtype=int)
    shared = {}

    def table(cfg):
        if not isinstance(cfg, MasConfig):
            return _candidates(grid, scenes, sizes, cfg)
        if cfg.candidate_k not in shared:
            shared[cfg.candidate_k] = _candidates(grid, scenes, sizes, cfg)
        return shared[cfg.candidate_k]

    return [_label(grid, scenes, sizes, cfg, table(cfg)) for cfg in cfgs]


def _assign(grid: AnchorGrid, gts, cfg: MasConfig | MaxIouConfig) -> AssignmentResult:
    """:func:`_assign_all` of one config over a stack of one scene."""
    return _assign_all(grid, [gts], [cfg])[0][0]


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
