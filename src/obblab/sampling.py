"""Shrunk-box sampling geometry and deformable feature sampling.

A box is shrunk about its center, nine sampling points are read off the
shrunk box (center, corners, edge midpoints), normalized offsets nudge the
points, and the refined points are converted into a per-tap offset field
for a 3x3 deformable convolution read via bilinear interpolation with
zero padding, as in deformable convolution (Dai et al., 2017) and DCNv2.

Every bilinear read goes through one NumPy kernel over an array of points
x channels: a deformable sample is one kernel call for its 9 taps, and a
single read is the one-point case. The kernel performs the float operations
of a scalar read loop in the same order, so each read and each deformable
sum is bit-identical to that loop, sign of zero included.

Offset fields are plain inputs here; no learning happens in this module.
All functions are pure over immutable grids and can run in parallel across
positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import MAX_EXTENT, OrientedBox, _box_frame

# Regular 3x3 kernel taps in row-major order: (rx, ry) with ry the row.
REGULAR_TAPS: tuple[tuple[int, int], ...] = (
    (-1, -1), (0, -1), (1, -1),
    (-1, 0), (0, 0), (1, 0),
    (-1, 1), (0, 1), (1, 1),
)
_TAPS = np.array(REGULAR_TAPS, dtype=float)

# Pattern index feeding each row-major tap: corners go to corner taps,
# edge midpoints to edge taps, the center to the center tap, so a pattern
# that lands exactly on the regular grid produces an all-zero offset field.
PATTERN_TAP_ORDER: tuple[int, ...] = (3, 8, 4, 7, 0, 5, 2, 6, 1)

NUM_PATTERN_POINTS = len(REGULAR_TAPS)

# The pattern in half-edge units of the box frame: point PATTERN_TAP_ORDER[i]
# sits at tap REGULAR_TAPS[i], so the pattern-to-tap correspondence is
# stated once.
_UNIT_PATTERN = np.empty((NUM_PATTERN_POINTS, 2))
_UNIT_PATTERN[list(PATTERN_TAP_ORDER)] = _TAPS

# Fraction by which a box's edges shrink before its points are placed.
DEFAULT_SHRINK_FACTOR = 0.3


@dataclass(frozen=True, eq=False)
class SamplingPattern:
    """The nine initial and offset-refined sampling points of a box."""

    initial_points: np.ndarray
    refined_points: np.ndarray


@dataclass(frozen=True, eq=False)
class DcnOffsetField:
    """Per-tap deformable-convolution offsets in feature-grid cells.

    ``offsets[i]`` belongs to tap ``REGULAR_TAPS[i]``; pattern points are
    routed to taps by ``PATTERN_TAP_ORDER``. ``stride`` records the
    image-to-feature scaling that produced the field. Construction requires
    9 x 2 finite offsets, a finite p0 and a positive finite stride, and
    raises ``ValueError`` otherwise.
    """

    offsets: np.ndarray
    p0: tuple[float, float]
    stride: float

    def __post_init__(self) -> None:
        offsets = np.asarray(self.offsets, dtype=float)
        if offsets.shape != (NUM_PATTERN_POINTS, 2):
            raise ValueError(f"expected {NUM_PATTERN_POINTS} (dx, dy) tap offsets, got shape {offsets.shape}")
        if not np.isfinite(offsets).all():
            raise ValueError("tap offsets must be finite")
        if len(self.p0) != 2 or not all(math.isfinite(v) for v in self.p0):
            raise ValueError("p0 must be a finite (x, y) pair")
        if not 0.0 < self.stride < math.inf:
            raise ValueError("stride must be positive and finite")
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "p0", (float(self.p0[0]), float(self.p0[1])))
        object.__setattr__(self, "stride", float(self.stride))


@dataclass(frozen=True, eq=False)
class FeatureGrid:
    """Dense feature values indexed (x, y, channel); stored row-major as
    (height, width, channels)."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 2:
            values = values[:, :, None]
        if values.ndim != 3:
            raise ValueError("feature grid must be 2-D or 3-D")
        if values.size == 0:
            raise ValueError("feature grid must hold at least one cell and channel")
        if not np.all(np.isfinite(values)):
            raise ValueError("feature grid contains non-finite values")
        object.__setattr__(self, "values", values)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def channels(self) -> int:
        return self.values.shape[2]


def shrink_obb(box: OrientedBox, factor: float) -> OrientedBox:
    """Scale both edge lengths by (1 - factor) about the center; the angle
    is untouched."""
    if not 0.0 <= factor < 1.0:
        raise ValueError("shrink factor must lie in [0, 1)")
    scale = 1.0 - factor
    return OrientedBox(box.cx, box.cy, box.w * scale, box.h * scale, box.theta)


def initial_sampling_positions(box: OrientedBox) -> np.ndarray:
    """Nine pattern points of a box, in image pixels.

    Fixed order: center; the four corners counter-clockwise starting from
    local (+w/2, +h/2); the four edge midpoints counter-clockwise starting
    from the +w/2 edge. All points are rotated by the box angle about the
    center, and all lie inside or on the box.
    """
    cx, cy, c, s, hw, hh = _box_frame(box)
    rot = np.array([[c, -s], [s, c]])
    return (_UNIT_PATTERN * (hw, hh)) @ rot.T + (cx, cy)


def refine_positions(points: np.ndarray, box: OrientedBox, offsets) -> np.ndarray:
    """Displace each point by (w * dx, h * dy) of the *unshrunk* box, which
    normalizes the offsets across object scales. Affine in the offsets.

    ``offsets`` is anything ``np.array(offsets, dtype=float)`` turns into a
    (9, 2) array of (dx, dy) rows, in pattern order. Other offsets, and
    offsets that are not finite or move a point by more than 2**508 px,
    raise ``ValueError``, without a warning.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape != (NUM_PATTERN_POINTS, 2):
        raise ValueError(f"expected {NUM_PATTERN_POINTS} points, got shape {pts.shape}")
    try:
        arr = np.array(offsets, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # e.g. a mapping, a ragged list, an int past floats
        raise ValueError(f"offsets must be (dx, dy) numbers: {exc}") from None
    if arr.shape != (NUM_PATTERN_POINTS, 2):
        raise ValueError(f"expected {NUM_PATTERN_POINTS} (dx, dy) offsets, got shape {arr.shape}")
    # Python floats, so that an overflow to inf raises no warning
    dx, dy = np.abs(arr).max(axis=0).tolist()
    if not (dx * float(box.w) <= MAX_EXTENT and dy * float(box.h) <= MAX_EXTENT):  # also false for nan
        raise ValueError("offsets must be finite and move each point by at most 2**508 px")
    return pts + arr * np.array([box.w, box.h])


def sampling_pattern(box: OrientedBox, offsets=None, shrink_factor: float = DEFAULT_SHRINK_FACTOR) -> SamplingPattern:
    """Shrink, place the nine points, refine with the given offsets (zeros
    when omitted; see :func:`refine_positions`). Offset scaling uses the
    original box dimensions."""
    initial = initial_sampling_positions(shrink_obb(box, shrink_factor))
    if offsets is None:
        refined = initial.copy()
    else:
        refined = refine_positions(initial, box, offsets)
    return SamplingPattern(initial_points=initial, refined_points=refined)


def dcn_offset_field(refined: np.ndarray, p0: tuple[float, float], stride: float) -> DcnOffsetField:
    """Convert refined image-pixel points (pattern order) into per-tap
    offsets.

    Image coordinates map to the feature grid by uniform 1/stride scaling;
    the tap at grid offset r reads the pattern point playing that
    geometric role (``PATTERN_TAP_ORDER``), with offset point/stride - p0
    - r. A pattern landing exactly on the regular grid around p0 therefore
    yields an all-zero field, reducing deformable to regular sampling.
    """
    pts = np.asarray(refined, dtype=float)
    if pts.shape != (NUM_PATTERN_POINTS, 2):
        raise ValueError(f"expected {NUM_PATTERN_POINTS} refined points, got shape {pts.shape}")
    if stride <= 0:
        raise ValueError("stride must be positive")
    offsets = pts[list(PATTERN_TAP_ORDER)] / stride - np.asarray(p0, dtype=float) - _TAPS
    return DcnOffsetField(offsets=offsets, p0=p0, stride=stride)


_NEIGHBOURS = np.array([[0.0], [1.0]])  # cell steps to the lower and upper neighbour


def _bilinear(values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Bilinear reads of every channel of (H, W, C) ``values`` at (P, 2)
    finite fractional (x, y) cell coordinates; a (P, C) array.

    Each read is (((t00 + t01) + t10) + t11) + 0.0, where tab = (wy_a *
    wx_b) * value at row y0 + a and column x0 + b, and a neighbour outside
    the grid has weight 0. A zero-weight term adds a zero, so these are the
    float operations of a scalar loop that skips such terms and starts from
    +0.0: every read is bit-identical to it, sign of zero included.
    """
    height, width = values.shape[:2]
    axes = points.T  # (axis, P)
    lo = np.floor(axes)
    frac = axes - lo
    weights = np.array([1.0 - frac, frac]).transpose(1, 0, 2)  # (axis, neighbour, P)
    cells = lo[:, None, :] + _NEIGHBOURS
    # Clamped before the cast, so that far-away cells stay in int range; a
    # cell that the clamp moved lies outside and weighs 0.
    clamped = np.minimum(np.maximum(cells, 0.0), np.array([[[width - 1.0]], [[height - 1.0]]]))
    weights = np.where(clamped == cells, weights, 0.0)
    index = clamped.astype(np.intp)
    reads = values[index[1, :, None], index[0, None, :]]  # (y neighbour, x neighbour, P, C)
    terms = (weights[1, :, None] * weights[0, None, :])[..., None] * reads
    return terms[0, 0] + terms[0, 1] + terms[1, 0] + terms[1, 1] + 0.0


def bilinear_sample(grid: FeatureGrid, x: float, y: float, channel: int = 0) -> float:
    """Bilinear interpolation of the four neighbors at fractional cell
    coordinates; positions outside the grid read as zero. Raises
    ``ValueError`` for a non-finite x or y."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError("sample position must be finite")
    return float(_bilinear(grid.values, np.array([[x, y]], dtype=float))[0, channel])


def deformable_sample(
    grid: FeatureGrid,
    weights: np.ndarray,
    p0: tuple[float, float],
    field: DcnOffsetField,
) -> float:
    """One deformable 3x3 convolution output at p0.

    Each kernel tap reads the grid at p0 + tap + offset via bilinear
    interpolation; weights of shape (3, 3) apply to every channel, shape
    (3, 3, channels) weights per channel. With an all-zero offset field this
    is a plain 3x3 cross-correlation at p0. The field must have been built
    for this p0 (``field.p0``); a field for another point raises
    ``ValueError``.

    The 9 x channels reads are one `_bilinear` call. The products of the
    nonzero weights are summed in sequence, taps outer and channels inner,
    so the result is bit-identical to a scalar loop over taps and channels
    that starts from +0.0.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape not in ((3, 3), (3, 3, grid.channels)):
        raise ValueError(f"kernel shape {w.shape} does not match 3x3 or 3x3x{grid.channels}")
    px, py = float(p0[0]), float(p0[1])
    if (px, py) != field.p0:  # also for a nan or inf p0, as field.p0 is finite
        raise ValueError(f"p0 {(px, py)} differs from the p0 {field.p0} the offset field was built for")
    points = (np.array([px, py]) + _TAPS) + field.offsets
    w = w.reshape(len(REGULAR_TAPS), -1)  # taps in REGULAR_TAPS order
    products = np.where(w != 0.0, w * _bilinear(grid.values, points), 0.0)
    # np.add.accumulate adds in sequence, where np.sum adds pairwise; the
    # + 0.0 turns the -0.0 of an all-(-0.0) sum into the +0.0 a sum
    # started from +0.0 gives.
    return float(np.add.accumulate(products.ravel())[-1]) + 0.0
