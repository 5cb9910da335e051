"""Rotated-rectangle geometry in the long-edge convention.

An oriented box stores center, long edge ``w``, short edge ``h`` and the
angle of the long edge, restricted to [-pi/4, 3*pi/4). Exact overlap areas
come from Sutherland-Hodgman clipping of convex quads; a seeded Monte-Carlo
estimator is provided as an independent cross-check for tests.

The clipper has two forms with the same IEEE operations: the scalar one
behind :func:`rotated_iou`, and `_ious_between`, which clips any number of
box pairs, one per row, in one NumPy pass and gives the same bits as the
scalar one, pair for pair. Both read a box through its `_box_frame` and
`_corners`. One pair costs far less through the scalar form, so
`rotated_iou` keeps it.

All types are immutable values and all functions are pure, so everything
here is safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

QUARTER_PI = math.pi / 4.0
HALF_PI = math.pi / 2.0

# Bounds anchor strides and sides and annotation coordinates, so that their
# squares, and sums of a few squares, stay 2**8 below the float range.
MAX_EXTENT = 2.0**508

# Quad edges shorter than this (pixels) have no direction.
_MIN_EDGE = 1e-9

# Clipped vertices closer than this, relative to the size of their
# coordinates, are merged: the band covers the rounding of an edge crossing
# (under 1e-13 of the coordinates on the perfbench universes) and leaves a
# real gap of 1e-9 px alone.
_MERGE_RTOL = 1e-12

# Samples drawn and masked per pass of the Monte-Carlo oracle: draws and
# masks over whole batches spend most of their time faulting in fresh pages.
_ORACLE_BLOCK = 8192

# Rows per pass of `_ious_between`: its polygon buffers and temporaries grow
# with the rows of a pass, not with those of the call. Each call the
# benchmark's scenes make clips fewer rows, in one pass.
_CLIP_BLOCK_ROWS = 65536

class DegenerateQuadError(ValueError):
    """Raised for quads with (near-)zero area or non-convex vertex sets."""


def normalize_angle(theta: float, period: float = math.pi) -> float:
    """Map a finite angle into [-pi/4, -pi/4 + period)."""
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta}")
    angle = (theta + QUARTER_PI) % period - QUARTER_PI
    # An angle just below -pi/4 can round onto the excluded upper bound.
    return angle if angle < period - QUARTER_PI else -QUARTER_PI


@dataclass(frozen=True)
class OrientedBox:
    """Rotated rectangle: center (cx, cy), edges w >= h > 0, angle of the
    long edge in [-pi/4, 3*pi/4).

    Square boxes additionally keep theta in [-pi/4, pi/4) so that every
    point set has exactly one representation. Construct via
    :func:`normalize_obb` unless the fields are already canonical.
    """

    cx: float
    cy: float
    w: float
    h: float
    theta: float

    def __post_init__(self) -> None:
        for name in ("cx", "cy", "w", "h", "theta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"non-finite box field {name!r}")
        if not self.w >= self.h > 0.0:
            raise ValueError(f"box requires w >= h > 0, got w={self.w} h={self.h}")
        hi = 3.0 * QUARTER_PI if self.w > self.h else QUARTER_PI
        if not -QUARTER_PI <= self.theta < hi:
            raise ValueError(f"theta={self.theta} outside [-pi/4, {hi})")

    @property
    def area(self) -> float:
        return self.w * self.h


def normalize_obb(cx: float, cy: float, w: float, h: float, theta: float) -> OrientedBox:
    """Canonicalize raw five-parameter values into an :class:`OrientedBox`.

    Swapping the edges when w < h adds pi/2 to the angle; the angle is then
    reduced modulo pi (modulo pi/2 for squares, which are pi/2-symmetric).
    Idempotent and area-preserving.
    """
    cx, cy, w, h, theta = (float(v) for v in (cx, cy, w, h, theta))
    for name, value in (("cx", cx), ("cy", cy), ("w", w), ("h", h), ("theta", theta)):
        if not math.isfinite(value):
            raise ValueError(f"non-finite box field {name!r}")
    if w <= 0.0 or h <= 0.0:
        raise ValueError(f"box edges must be positive, got w={w} h={h}")
    if w < h:
        w, h = h, w
        theta = theta + HALF_PI
    period = HALF_PI if w == h else math.pi
    return OrientedBox(cx, cy, w, h, normalize_angle(theta, period))


@dataclass(frozen=True, eq=False)
class ConvexQuad:
    """Four vertices in counter-clockwise order with positive signed area."""

    vertices: np.ndarray

    @classmethod
    def from_points(cls, points) -> "ConvexQuad":
        """Build a quad from 4 points in any order or winding: the one-quad
        case of :func:`_quads_in_order`. Raises :class:`DegenerateQuadError`
        for non-finite, collinear or non-convex sets.
        """
        pts = np.asarray(points, dtype=float).reshape(4, 2)
        if not np.all(np.isfinite(pts)):
            raise DegenerateQuadError("non-finite vertex")
        (ordered,) = _quads_in_order(pts[None])
        if not ordered.any():
            raise DegenerateQuadError("vertices are not in convex position")
        ordered.flags.writeable = False
        return cls(ordered)

    @property
    def area(self) -> float:
        # Relative to the first vertex, so that a tiny quad far from the
        # origin keeps its digits.
        return signed_area((self.vertices - self.vertices[0]).tolist())


def _winding(pts: np.ndarray) -> np.ndarray:
    """Per quad of the (quads, 4, 2) array ``pts``, in the given vertex
    order: the number of vertices where it turns left less the number where
    it turns right, a turn being the cross product of the edges in and out.

    Strictly convex CCW quads turn left at every vertex (4), CW quads right
    (-4; reversing the order negates each turn exactly). The turns use vertex
    differences, so tiny quads far from the origin still orient."""
    nxt, prv = pts[..., [1, 2, 3, 0], :], pts[..., [3, 0, 1, 2], :]
    x, y = pts[..., 0], pts[..., 1]
    turns = (nxt[..., 0] - x) * (prv[..., 1] - y) - (nxt[..., 1] - y) * (prv[..., 0] - x)
    return (turns > 0.0).sum(axis=1) - (turns < 0.0).sum(axis=1)


def _quads_in_order(pts: np.ndarray) -> np.ndarray:
    """The (quads, 4, 2) corners ``pts``, each quad counter-clockwise.

    A quad that turns the same way at every vertex is convex and keeps its
    order, reversed if it turns right. Any other is re-sorted by the angle of
    each vertex about its centroid (the canonical order for points in convex
    position) and tested again, all of them in one array pass. A quad that
    is not finite, or not convex in either order, becomes all zeros, which
    has no enclosing rectangle."""
    pts = np.where(np.isfinite(pts).all(axis=(1, 2))[:, None, None], pts, 0.0)  # a copy, re-sorted in place
    winding = _winding(pts)
    resort = abs(winding) < 4
    quads = pts[resort]
    center = quads.mean(axis=1, keepdims=True)
    angles = np.arctan2(quads[..., 1] - center[..., 1], quads[..., 0] - center[..., 0])
    order = np.argsort(angles, axis=1, kind="stable")
    pts[resort] = quads = np.take_along_axis(quads, order[..., None], axis=1)
    winding[resort] = _winding(quads)
    ordered = np.where((winding == -4)[:, None, None], pts[:, ::-1], pts)
    ordered[abs(winding) < 4] = 0.0
    return ordered


def signed_area(points) -> float:
    """Shoelace signed area of a sequence of (x, y) vertices; positive for
    counter-clockwise order. The terms are added one at a time in vertex
    order, which fixes how the clipper's overlap areas round."""
    n = len(points)
    acc = 0.0
    for i in range(n):
        x0, y0 = points[i]
        x1, y1 = points[(i + 1) % n]
        acc += x0 * y1 - x1 * y0
    return 0.5 * acc


def obb_to_polygon(box: OrientedBox) -> ConvexQuad:
    """Corner quad of a box, counter-clockwise from the local (+w/2, +h/2)
    corner."""
    return ConvexQuad.from_points(_corners(_box_frame(box)))


def _box_frame(box: OrientedBox, atol: float = 0.0) -> tuple[float, ...]:
    """(cx, cy, cos, sin, half w + atol, half h + atol): the numbers that
    :func:`_corners` and :func:`_inside_mask` read off a box."""
    return box.cx, box.cy, math.cos(box.theta), math.sin(box.theta), 0.5 * box.w + atol, 0.5 * box.h + atol


def _corners(frame) -> list[tuple]:
    """The four (x, y) corners of a :func:`_box_frame`, of floats or of
    arrays, counter-clockwise from the local (+w/2, +h/2) corner."""
    cx, cy, c, s, hw, hh = frame
    return [(cx + lx * c - ly * s, cy + lx * s + ly * c) for lx, ly in ((hw, hh), (-hw, hh), (-hw, -hh), (hw, -hh))]


def quad_to_obb(quad: ConvexQuad) -> OrientedBox:
    """Minimum-area enclosing rectangle of a convex quad, as a normalized box:
    the one-quad case of :func:`_enclosing_rectangles`."""
    (rectangle,) = _enclosing_rectangles(quad.vertices[None])
    if rectangle is None:
        raise DegenerateQuadError("zero-area quad has no enclosing rectangle")
    return normalize_obb(*rectangle)


def _enclosing_rectangles(pts: np.ndarray) -> list[tuple[float, ...] | None]:
    """Per convex quad of the (quads, 4, 2) array ``pts``, vertices in order:
    the raw (cx, cy, w, h, theta) of its minimum-area enclosing rectangle,
    or None for a quad of zero area.

    The optimum is flush with one of the quad's edges, so only the four edge
    directions need to be examined (rotating calipers on a 4-gon), all of
    them for all quads at once. Edges shorter than ``_MIN_EDGE`` have no
    direction, and the first edge of least area wins. Norms and angles are
    one ``math`` call each, since ``np.hypot`` and ``np.arctan2`` round
    differently."""
    x, y = pts[..., 0], pts[..., 1]  # (quad, vertex)
    ex, ey = x[:, [1, 2, 3, 0]] - x, y[:, [1, 2, 3, 0]] - y  # (quad, edge)
    norm = np.array(list(map(math.hypot, ex.ravel().tolist(), ey.ravel().tolist()))).reshape(ex.shape)
    edged = norm >= _MIN_EDGE
    dx = np.divide(ex, norm, out=np.zeros_like(ex), where=edged)[..., None]
    dy = np.divide(ey, norm, out=np.zeros_like(ey), where=edged)[..., None]
    x, y = x[:, None], y[:, None]
    u = x * dx + y * dy  # (quad, edge, vertex)
    v = -x * dy + y * dx
    u_hi, u_lo, v_hi, v_lo = u.max(2), u.min(2), v.max(2), v.min(2)
    du, dv = u_hi - u_lo, v_hi - v_lo
    area = np.where(edged, du * dv, math.inf)
    first = np.argmax((area == area.min(axis=1, keepdims=True)) & edged, axis=1)
    table = np.array([area, du, dv, 0.5 * (u_hi + u_lo), 0.5 * (v_hi + v_lo), dx[..., 0], dy[..., 0]])
    area, du, dv, cu, cv, dx, dy = table[:, np.arange(first.size), first]
    rectangles = zip((cu * dx - cv * dy).tolist(), (cu * dy + cv * dx).tolist(), du.tolist(), dv.tolist(),
                     map(math.atan2, dy.tolist(), dx.tolist()))
    return [rect if ok else None for rect, ok in zip(rectangles, (edged.any(axis=1) & (area > 0.0)).tolist())]


def _clip_polygon(subject: list[tuple[float, float]], clip: list[tuple[float, float]]):
    """Sutherland-Hodgman: clip ``subject`` by the convex CCW polygon
    ``clip``. Boundary points count as inside."""
    output = subject
    cx1, cy1 = clip[-1]
    for cx2, cy2 in clip:
        if not output:
            break
        ex, ey = cx2 - cx1, cy2 - cy1
        inputs = output
        output = []
        sx, sy = inputs[-1]
        s_in = ex * (sy - cy1) - ey * (sx - cx1) >= 0.0
        for px, py in inputs:
            p_in = ex * (py - cy1) - ey * (px - cx1) >= 0.0
            if p_in != s_in:
                dx, dy = px - sx, py - sy
                denom = ex * dy - ey * dx
                if denom != 0.0:
                    t = (ex * (cy1 - sy) - ey * (cx1 - sx)) / denom
                    output.append((sx + t * dx, sy + t * dy))
            if p_in:
                output.append((px, py))
            sx, sy, s_in = px, py, p_in
        cx1, cy1 = cx2, cy2
    return output


def _merge_close(points):
    """Drop each vertex that repeats the last one kept up to rounding.

    A dropped vertex takes its sliver of area with it, so the band is
    relative to the size of the coordinates (:data:`_MERGE_RTOL` of the
    first vertex's, at least 1 px): a fixed band in pixels cuts real corners
    off small overlaps and makes the area depend on which box is clipped."""
    if len(points) < 2:
        return points
    x0, y0 = points[0]
    tol = _MERGE_RTOL * max(1.0, abs(x0), abs(y0))
    merged = [points[0]]
    for p in points[1:]:
        q = merged[-1]
        if abs(p[0] - q[0]) > tol or abs(p[1] - q[1]) > tol:
            merged.append(p)
    while len(merged) > 1 and (
        abs(merged[0][0] - merged[-1][0]) <= tol
        and abs(merged[0][1] - merged[-1][1]) <= tol
    ):
        merged.pop()
    return merged


def _intersection_area(subject, clip) -> float:
    clipped = _merge_close(_clip_polygon(subject, clip))
    return max(0.0, signed_area(clipped))


def polygon_intersection_area(a: ConvexQuad, b: ConvexQuad) -> float:
    """Exact overlap area of two convex quads; zero for degenerate overlap.

    Clipping is exact for convex inputs, so the only rounding comes from the
    edge-intersection arithmetic itself."""
    return _intersection_area(a.vertices.tolist(), b.vertices.tolist())


def rotated_iou(a: OrientedBox, b: OrientedBox) -> float:
    """Intersection over union of two oriented boxes, in [0, 1].

    The pair is ordered canonically before clipping so the result is
    bitwise symmetric in its arguments."""
    if (b.cx, b.cy, b.w, b.h, b.theta) < (a.cx, a.cy, a.w, a.h, a.theta):
        a, b = b, a
    return _iou(a, b)


def _iou(a: OrientedBox, b: OrientedBox) -> float:
    """IoU with ``a`` clipped by ``b``; the argument order fixes the
    rounding, so callers that need symmetry go through :func:`rotated_iou`."""
    inter = _intersection_area(_corners(_box_frame(a)), _corners(_box_frame(b)))
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return min(1.0, max(0.0, inter / union))


def _ious_between(a, a_area, b, b_area) -> np.ndarray:
    """Row i: ``_iou(A_i, B_i)``, bit for bit, for all rows at once.
    A_i and B_i are row i of the :func:`_box_frame` columns ``a`` and ``b``
    (arrays of one box per row; a float in ``b`` is shared by every row),
    with areas ``a_area[i]`` and ``b_area[i]``.

    This is the scalar clipper run on every row at once, and each row gets
    the same IEEE operations in the same order. The polygons sit in (x, y)
    planes of (slots, rows) with a vertex count per row; slot 0 repeats
    each polygon's last vertex, so that slot j - 1 holds the vertex before
    slot j. Rows are independent, so clipping them ``_CLIP_BLOCK_ROWS`` at
    a time changes no bits."""
    n = np.size(a_area)
    iou = np.empty(n)
    for start in range(0, n, _CLIP_BLOCK_ROWS):
        rows = slice(start, start + _CLIP_BLOCK_ROWS)
        *a_rows, a_area_rows = (v[rows] if np.ndim(v) else v for v in (*a, a_area))
        *b_rows, b_area_rows = (v[rows] if np.ndim(v) else v for v in (*b, b_area))
        iou[rows] = _clipped_ious(a_rows, a_area_rows, b_rows, b_area_rows)
    return iou


def _clipped_ious(a, a_area, b, b_area) -> np.ndarray:
    """`_ious_between` of one block of rows."""
    n = np.size(a_area)
    # Two ping-pong buffers. Four clip edges take a quad to at most 8
    # vertices, which sit between the closing slot and a slot that closes
    # the shoelace; `_clip_rows` widens a buffer if rounding adds more.
    buffers = list(np.zeros((2, 2, 10, n)))
    for slot, (x, y) in enumerate(_corners(a), start=1):
        buffers[0][:, slot] = x, y
    buffers[0][:, 0] = buffers[0][:, 4]
    count = np.full(n, 4)
    clip = _corners(b)
    for start, end in zip(clip[-1:] + clip[:-1], clip):
        buffers[1], count = _clip_rows(*buffers, count, start, end)
        buffers.reverse()
    inter = _overlap_areas(buffers[0], count)
    union = a_area + b_area - inter
    iou = np.divide(inter, union, out=np.zeros(n), where=union > 0.0)
    iou = np.where(iou > 0.0, iou, 0.0)
    return np.where(iou < 1.0, iou, 1.0)


def _clip_rows(src: np.ndarray, dst: np.ndarray, count: np.ndarray, start, end) -> tuple[np.ndarray, np.ndarray]:
    """One `_clip_polygon` pass over the rows of `_ious_between`:
    each row's polygon in ``src`` is cut by the half-plane left of its edge
    ``start`` -> ``end`` and written to ``dst``, or to a wider buffer when
    ``dst`` is too narrow. Each vertex emits its edge crossing, if its side
    differs from the previous vertex's, and then itself, if inside, at a
    write index that counts the row's earlier emits. Returns the output
    buffer and the new vertex counts."""
    n = count.size
    all_rows = np.arange(n)
    (cx1, cy1), (cx2, cy2) = start, end
    m = int(count.max(initial=0))
    if m == 0:
        return dst, count
    x, y = src[0, : m + 1], src[1, : m + 1]
    ex, ey = cx2 - cx1, cy2 - cy1
    side = y - cy1
    side *= ex
    across = x - cx1
    across *= ey
    side -= across
    del across
    side = side >= 0.0
    live = np.arange(1, m + 1)[:, None] <= count
    inside = side[1:] & live
    # Crossings, from the previous vertex s to the vertex of each slot.
    slot, row = np.nonzero((side[1:] != side[:-1]) & live)
    del side, live
    sx, sy = x[slot, row], y[slot, row]
    dx, dy = x[slot + 1, row] - sx, y[slot + 1, row] - sy
    ex_r, ey_r = ex[row], ey[row]
    denom = ex_r * dy - ey_r * dx
    hit = denom != 0.0
    t = np.divide(ex_r * (cy1[row] - sy) - ey_r * (cx1[row] - sx), denom, out=np.zeros_like(denom), where=hit)
    slot, row = slot[hit], row[hit]
    cross = np.zeros_like(inside)
    cross[slot, row] = True
    emits = inside.view(np.int8) + cross.view(np.int8)
    at = np.cumsum(emits, axis=0, dtype=np.intp)
    count = at[-1].copy()
    at -= emits  # each slot's first write index
    del emits, cross
    width = int(count.max(initial=0)) + 2
    if width > dst.shape[1]:
        dst = np.zeros((2, width, n))
    # flat (write index + 1) * n + row in each plane
    at += 1
    at *= n
    at += all_rows
    out_x, out_y = dst[0].reshape(-1), dst[1].reshape(-1)
    written = at[slot, row]
    out_x[written] = (sx + t * dx)[hit]
    out_y[written] = (sy + t * dy)[hit]
    at[slot, row] += n
    written = at[inside]
    out_x[written] = x[1:][inside]
    out_y[written] = y[1:][inside]
    dst[:, 0] = dst[:, count, all_rows]
    return dst, count


def _overlap_areas(planes: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``max(0.0, signed_area(_merge_close(polygon)))`` of each row's
    clipped polygon in the (x, y) ``planes`` of `_ious_between`,
    as masked passes over the slots; the planes are overwritten."""
    x, y = planes
    rows = np.arange(count.size)
    # _merge_close, in place: vertex j moves down to slot k + 1 <= j.
    tol = _MERGE_RTOL * np.maximum(np.maximum(1.0, np.abs(x[1])), np.abs(y[1]))
    k = np.minimum(count, 1)
    qx, qy = x[1].copy(), y[1].copy()
    for j in range(2, int(count.max(initial=0)) + 1):
        keep = (j <= count) & ((np.abs(x[j] - qx) > tol) | (np.abs(y[j] - qy) > tol))
        x[k + 1, rows] = x[j]
        y[k + 1, rows] = y[j]
        np.copyto(qx, x[j], where=keep)
        np.copyto(qy, y[j], where=keep)
        k += keep
    while True:
        pop = (k > 1) & (np.abs(x[1] - x[k, rows]) <= tol) & (np.abs(y[1] - y[k, rows]) <= tol)
        if not pop.any():
            break
        k -= pop
    # signed_area: the terms added in vertex order, closing on vertex 1.
    x[k + 1, rows] = x[1]
    y[k + 1, rows] = y[1]
    last = int(k.max(initial=0))
    terms = x[1 : last + 1] * y[2 : last + 2]
    terms -= x[2 : last + 2] * y[1 : last + 1]
    acc = np.zeros(count.size)
    for j in range(last):
        np.add(acc, terms[j], out=acc, where=j < k)
    acc *= 0.5
    return np.where(acc > 0.0, acc, 0.0)


def contains_points(box: OrientedBox, points: np.ndarray, atol: float = 0.0) -> np.ndarray:
    """Boolean mask of points inside (or on) a box; ``atol`` pads the
    half-extents to absorb rotation round-off."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    return _inside_mask(_box_frame(box, atol), pts[:, 0], pts[:, 1])


def _inside_mask(frame, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Which points (x, y) lie inside or on the box of a :func:`_box_frame`, of floats
    or of arrays that broadcast against x and y. In place: the oracle's hot loop."""
    cx, cy, c, s, half_w, half_h = frame
    dx = x - cx
    dy = y - cy
    lx = dx * c
    lx += dy * s
    np.abs(lx, out=lx)
    mask = lx <= half_w
    dy *= c
    dy -= dx * s
    np.abs(dy, out=dy)
    mask &= dy <= half_h
    return mask


def mc_iou_oracle(a: OrientedBox, b: OrientedBox, samples: int, seed: int) -> float:
    """Monte-Carlo IoU estimate via uniform rejection sampling over the joint
    bounding box of both polygons. Deterministic for a fixed seed; converges
    to :func:`rotated_iou` as ``samples`` grows."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    frame_a, frame_b = _box_frame(a), _box_frame(b)
    corners = np.array(_corners(frame_a) + _corners(frame_b))
    lo = corners.min(axis=0)
    hi = corners.max(axis=0)
    # The samples are batches of up to 10**6 x draws, then as many y draws,
    # from one PCG64 stream. Two generators on that stream walk a batch's x
    # and y draws side by side, one block at a time, and each skips what the
    # other draws.
    rng_x, rng_y = np.random.default_rng(seed), np.random.default_rng(seed)
    inter_hits = 0
    union_hits = 0
    remaining = samples
    while remaining > 0:
        n = min(remaining, 1_000_000)
        rng_y.bit_generator.advance(n)
        for start in range(0, n, _ORACLE_BLOCK):
            size = min(_ORACLE_BLOCK, n - start)
            x = rng_x.uniform(lo[0], hi[0], size)
            y = rng_y.uniform(lo[1], hi[1], size)
            in_a = _inside_mask(frame_a, x, y)
            in_b = _inside_mask(frame_b, x, y)
            inter_hits += int(np.count_nonzero(in_a & in_b))
            union_hits += int(np.count_nonzero(in_a | in_b))
        rng_x.bit_generator.advance(n)
        remaining -= n
    if union_hits == 0:
        return 0.0
    return inter_hits / union_hits


def center_distance(a: OrientedBox, b: OrientedBox) -> float:
    """Euclidean distance between box centers."""
    return math.hypot(a.cx - b.cx, a.cy - b.cy)


def aspect_ratio(box: OrientedBox) -> float:
    """Long edge over short edge; >= 1 by the long-edge invariant."""
    return box.w / box.h
