"""Synthetic scenes with controlled aspect/angle distributions, and
ingestion of DOTA-format annotation text.

Scene generation is deterministic given the spec (the seed lives inside
it). Annotation files carry one object per line, eight corner coordinates
followed by a category token and an optional difficulty flag; header lines
starting with ``imagesource`` or ``gsd`` are skipped.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from importlib import resources
from typing import get_args, get_type_hints

import numpy as np

from .geometry import (
    MAX_EXTENT,
    QUARTER_PI,
    _box_frame,
    _corners,
    _enclosing_rectangles,
    _quads_in_order,
    normalize_obb,
)
from .assignment import GroundTruth

UNIFORM = "uniform"
GRID_SWEEP = "grid-sweep"
MAX_BINS = 100_000  # statistics bins along one axis


class SceneGenerationError(ValueError):
    """Raised when an object cannot be placed inside the image."""


class DotaParseError(ValueError):
    """A malformed annotation line; carries the 1-based line number when
    raised by the file-level parser."""

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class SceneSpec:
    """Recipe for a synthetic scene.

    ``uniform`` placement draws ``object_count`` independent objects with
    log-uniform aspect, uniform angle and long edge, and a uniform center
    keeping the whole box inside the image. ``grid-sweep`` instead lays one
    object per (aspect-bin x angle-bin) cell at the bin centers, which gives
    every statistics bin identical support. A spec validates itself on
    construction.
    """

    image_size: tuple[int, int] = (1024, 1024)
    object_count: int = 20
    aspect_range: tuple[float, float] = (1.0, 12.0)
    angle_range: tuple[float, float] = (-QUARTER_PI, 3.0 * QUARTER_PI)
    scale_range: tuple[float, float] = (24.0, 96.0)
    seed: int = 0
    placement: str = UNIFORM
    aspect_bins: int = 12
    angle_bins: int = 16

    def __post_init__(self) -> None:
        width, height = self.image_size
        if width <= 0 or height <= 0:
            raise ValueError("image_size must be positive")
        if self.object_count < 0:
            raise ValueError("object_count must be >= 0")
        for name in ("aspect_range", "angle_range", "scale_range"):
            lo, hi = getattr(self, name)
            if not lo <= hi:
                raise ValueError(f"{name} is empty: {lo} > {hi}")
        if self.aspect_range[0] < 1.0:
            raise ValueError("aspect_range minimum must be >= 1")
        if not all(abs(a) <= MAX_EXTENT for a in self.angle_range):  # wider overflows the sampled range
            raise ValueError("angle_range endpoints must not exceed 2**508 in magnitude")
        if self.scale_range[0] <= 0.0:
            raise ValueError("scale_range must be positive")
        if self.placement not in (UNIFORM, GRID_SWEEP):
            raise ValueError(f"unknown placement {self.placement!r}")
        if not all(1 <= bins <= MAX_BINS for bins in (self.aspect_bins, self.angle_bins)):
            raise ValueError(f"bin counts must lie in [1, {MAX_BINS}]")


@dataclass(frozen=True)
class Scene:
    spec: SceneSpec
    gts: tuple[GroundTruth, ...]


def _uniform(low: float, high: float, u: float) -> float:
    """``Generator.uniform(low, high)`` of the draw ``u`` of
    ``Generator.random``: low + (high - low) * u, with its errors for a
    range that is not finite or is negative (-0.0 included)."""
    span = float(high) - float(low)
    if not math.isfinite(span):
        raise OverflowError("high - low range exceeds valid bounds")
    if math.copysign(1.0, span) < 0.0:
        raise ValueError("high - low < 0")
    return low + span * u


def _sample_center(spec: SceneSpec, w: float, h: float, theta: float, u_x: float, u_y: float):
    """Uniform center, of the draws ``u_x`` and ``u_y``, such that the
    rotated box lies fully inside the image."""
    width, height = spec.image_size
    ex = 0.5 * (w * abs(math.cos(theta)) + h * abs(math.sin(theta)))
    ey = 0.5 * (w * abs(math.sin(theta)) + h * abs(math.cos(theta)))
    if 2.0 * ex > width or 2.0 * ey > height:
        raise SceneGenerationError(
            f"object of size {w:.1f}x{h:.1f} at angle {theta:.3f} does not fit "
            f"inside {width}x{height}"
        )
    return _uniform(ex, width - ex, u_x), _uniform(ey, height - ey, u_y)


def _bins(lo: float, hi: float, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``bins + 1`` edges of ``bins`` equal bins over [lo, hi], and the
    bins' centres."""
    with np.errstate(over="ignore"):  # the last edge may overflow before it is set to hi
        edges = np.linspace(lo, hi, bins + 1)
    return edges, 0.5 * edges[:-1] + 0.5 * edges[1:]  # exact halves; the sum may overflow


def generate_scene(spec: SceneSpec) -> Scene:
    """Materialize a scene; identical specs produce identical scenes.

    All of a scene's uniforms come from one ``rng.random`` array, in the
    order of one ``rng.uniform`` call per value: per object the log-aspect,
    angle, long edge and center (uniform placement), or per (aspect, angle)
    cell the long edge and center (grid sweep). Objects are built in that
    order, so the first that cannot be built raises its error."""
    rng = np.random.default_rng(spec.seed)
    if spec.placement == UNIFORM:
        log_lo, log_hi = math.log(spec.aspect_range[0]), math.log(spec.aspect_range[1])
        shapes = (
            (math.exp(_uniform(log_lo, log_hi, u0)), _uniform(*spec.angle_range, u1), (u2, u3, u4))
            for u0, u1, u2, u3, u4 in map(np.ndarray.tolist, rng.random((spec.object_count, 5)))
        )
    else:
        aspects = _bins(*spec.aspect_range, spec.aspect_bins)[1].tolist()
        thetas = _bins(*spec.angle_range, spec.angle_bins)[1].tolist()
        draws = iter(rng.random(3 * len(aspects) * len(thetas)).tolist())
        shapes = ((aspect, theta, u) for aspect in aspects for theta, *u in zip(thetas, draws, draws, draws))
    gts = []
    for aspect, theta, (u_edge, u_x, u_y) in shapes:
        long_edge = _uniform(*spec.scale_range, u_edge)
        cx, cy = _sample_center(spec, long_edge, long_edge / aspect, theta, u_x, u_y)
        gts.append(GroundTruth(normalize_obb(cx, cy, long_edge, long_edge / aspect, theta)))
    return Scene(spec=spec, gts=tuple(gts))


@dataclass(frozen=True)
class AnnotationRecord:
    """One parsed annotation line: corner quad, category token, difficulty."""

    quad: tuple[float, ...]
    category: str
    difficult: int = 0


@functools.cache
def _packaged_categories() -> dict[str, int]:
    with resources.files("obblab.data").joinpath("dota_categories.json").open() as fh:
        return json.load(fh)


def dota_category_table() -> dict[str, int]:
    """The 15 standard aerial categories of the packaged table, read once
    per process; each call returns a fresh dict, which the caller may
    change."""
    return dict(_packaged_categories())


def parse_dota_line(text: str) -> AnnotationRecord | None:
    """Parse one annotation line; None for blank/metadata lines.

    Raises :class:`DotaParseError` (without a line number) for malformed
    content; the file-level parser attaches line numbers.
    """
    stripped = text.strip()
    if not stripped:
        return None
    if stripped.startswith("imagesource") or stripped.startswith("gsd"):
        return None
    tokens = stripped.split()
    if len(tokens) < 9:
        raise DotaParseError(f"expected at least 9 fields, got {len(tokens)}")
    try:
        coords = tuple(float(t) for t in tokens[:8])
    except ValueError as exc:
        raise DotaParseError(f"non-numeric coordinate: {exc}") from None
    if not all(abs(c) <= MAX_EXTENT for c in coords):  # also false for nan
        raise DotaParseError("coordinate not finite or above 2**508 in magnitude")
    difficult = 0
    if len(tokens) >= 10:
        try:
            difficult = int(tokens[9])
        except ValueError:
            raise DotaParseError(f"non-integer difficulty flag {tokens[9]!r}") from None
    return AnnotationRecord(quad=coords, category=tokens[8], difficult=difficult)


@dataclass(frozen=True)
class DotaParseResult:
    records: tuple[AnnotationRecord, ...]
    errors: tuple[DotaParseError, ...]


def parse_dota_lines(lines) -> DotaParseResult:
    """Parse an iterable of lines, collecting records and per-line errors."""
    records: list[AnnotationRecord] = []
    errors: list[DotaParseError] = []
    for number, line in enumerate(lines, start=1):
        try:
            record = parse_dota_line(line)
        except DotaParseError as exc:
            errors.append(DotaParseError(str(exc), line_number=number))
            continue
        if record is not None:
            records.append(record)
    return DotaParseResult(records=tuple(records), errors=tuple(errors))


def parse_dota_file(path) -> DotaParseResult:
    with open(path, encoding="utf-8") as fh:
        return parse_dota_lines(fh)


def records_to_gts(
    records,
    include_difficult: bool = False,
    categories: dict[str, int] | None = None,
    unknown: str = "error",
) -> tuple[list[GroundTruth], int]:
    """Convert parsed records into ground truths via the minimum-area
    enclosing rectangle of each quad.

    Difficult records are dropped unless ``include_difficult``. Unknown
    categories either raise (``unknown="error"``) or extend the table with
    fresh ids (``unknown="extend"``). Returns the ground truths and the
    number of degenerate quads that had to be skipped.
    """
    if unknown not in ("error", "extend"):
        raise ValueError(f"unknown must be 'error' or 'extend', got {unknown!r}")
    table = dict(categories) if categories is not None else dota_category_table()
    kept = [record for record in records if include_difficult or not record.difficult]
    pts = np.array([record.quad for record in kept], dtype=float).reshape(-1, 4, 2)
    rectangles = _enclosing_rectangles(_quads_in_order(pts))
    gts: list[GroundTruth] = []
    skipped = 0
    for record, rectangle in zip(kept, rectangles):
        if record.category not in table:
            if unknown == "error":
                raise ValueError(f"unknown category {record.category!r}")
            table[record.category] = max(table.values(), default=-1) + 1
        if rectangle is None:
            skipped += 1
            continue
        gts.append(GroundTruth(box=normalize_obb(*rectangle), class_id=table[record.category]))
    return gts, skipped


def scene_to_dota_lines(scene: Scene, category_names: list[str] | None = None) -> list[str]:
    """Serialize a scene in annotation-text form (full float precision, so a
    rectangle round-trips exactly)."""
    if category_names is None:
        category_names = list(dota_category_table())
    lines = []
    for gt in scene.gts:
        corners = _corners(_box_frame(gt.box))
        coords = " ".join(f"{coordinate!r}" for point in corners for coordinate in point)
        lines.append(f"{coords} {category_names[gt.class_id]} 0")
    return lines


def save_scene(scene: Scene, annotation_path, spec_path=None) -> None:
    """Write the annotation text plus an optional JSON sidecar with the
    spec."""
    with open(annotation_path, "w", encoding="utf-8") as fh:
        for line in scene_to_dota_lines(scene):
            fh.write(line + "\n")
    if spec_path is not None:
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(asdict(scene.spec), fh, indent=2, sort_keys=True)
            fh.write("\n")


def from_dict(cls, data, context: str, keys=None, prefix_checks: bool = True):
    """Build the self-validating frozen dataclass ``cls`` from a JSON object
    holding only its fields (or only ``keys``). Lists become tuples, of the
    default's length unless annotated ``tuple[T, ...]``, and numbers take
    the type of the default; the items of an optional ``tuple[T, ...]``
    take the type T. A field whose default is a dataclass is a nested
    object, limited to its metadata's ``"keys"``. The errors of the checks
    of ``cls`` get ``context`` as a prefix, unless ``prefix_checks`` is
    false because they name their keys in full."""
    if not isinstance(data, dict):
        raise ValueError(f"{context} must be a JSON object")
    known = {f.name: f for f in fields(cls)}
    extra = set(data) - set(known if keys is None else keys)
    if extra:
        raise ValueError(f"unknown {context} keys: {sorted(extra)}")
    defaults = cls()
    values = {}
    for name, value in data.items():
        default = getattr(defaults, name)
        if default is None and value is not None:
            item_type = get_args(get_args(get_type_hints(cls)[name])[0])[0]
            default = (item_type(),)
        if is_dataclass(default):
            values[name] = from_dict(type(default), value, name, known[name].metadata.get("keys"))
        else:
            fixed = "..." not in str(known[name].type)  # tuple[float, float], not tuple[float, ...]
            values[name] = _coerce(value, default, f"{context}.{name}", fixed)
    try:
        return replace(defaults, **values)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{context}: {exc}" if prefix_checks else str(exc)) from None


_JSON_TYPES = {bool: "boolean", int: "integer", float: "number", str: "string", tuple: "list"}


def _coerce(value, default, context: str, fixed: bool = False):
    if isinstance(value, list):
        value = tuple(value)
    if default is None:
        return value
    kind = type(default)
    if kind in (int, float) and type(value) in (int, float):
        if not math.isfinite(value):
            raise ValueError(f"{context} must be finite, got {value!r}")
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError(f"{context} must be an integer, got {value!r}")
        return kind(value)
    if type(value) is not kind:
        raise ValueError(f"{context} must be a JSON {_JSON_TYPES.get(kind, kind.__name__)}, got {value!r}")
    if kind is tuple and default:
        if fixed and len(value) != len(default):
            raise ValueError(f"{context} must hold {len(default)} values, got {len(value)}")
        return tuple(_coerce(item, default[0], context) for item in value)
    return value


def scene_spec_from_dict(data: dict) -> SceneSpec:
    """Build a spec from a JSON-style dict, rejecting unknown keys."""
    return from_dict(SceneSpec, data, "scene")
