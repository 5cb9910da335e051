"""Deterministic experiment CLI.

Subcommands: ``stats`` (positive-sample statistics over synthetic scenes),
``thresholds`` (shape-weight / threshold surfaces with built-in monotonicity
checks), ``loss-check`` (gradient self-checks and an adaptive-beta
trajectory), ``iou`` (exact and Monte-Carlo IoU of two boxes),
``assign-file`` (assignment report for an annotation file) and ``cfs-demo``
(sampling-pattern and deformable-sampling dump).

Outputs are CSV for tabular data and JSON for structured reports, both
tagged with a schema version. Every subcommand is byte-deterministic for a
fixed seed. Exit codes: 0 success, 2 usage/config error, 3 data error,
4 self-check failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .assignment import (
    ANGLE_DEPENDENT,
    CONSTANT_ONE,
    AnchorsConfig,
    MasConfig,
    MaxIouConfig,
    adaptive_thresholds,
    generate_anchors,
    iou_statistics,
    _assign_all,
)
from .geometry import (
    HALF_PI,
    MAX_EXTENT,
    QUARTER_PI,
    OrientedBox,
    mc_iou_oracle,
    normalize_obb,
    rotated_iou,
)
from .losses import (
    BetaState,
    MultiTaskLossConfig,
    SmoothL1Config,
    focal_loss,
    focal_loss_grad,
    smooth_l1,
    smooth_l1_grad,
    update_betas,
)
from .sampling import (
    DEFAULT_SHRINK_FACTOR,
    FeatureGrid,
    bilinear_sample,
    dcn_offset_field,
    deformable_sample,
    sampling_pattern,
)
from .scenes import (
    UNIFORM,
    SceneSpec,
    from_dict,
    generate_scene,
    parse_dota_file,
    records_to_gts,
    _bins,
)

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_SELFCHECK = 4

STRATEGIES = ("maxiou", "atss", "mas")

# Deterministic per-iteration spread emulating a proposal population around
# the scheduled similarity value.
_BATCH_SPREAD = (0.9, 0.95, 1.0, 1.05, 1.1)

# The beta trajectory's similarity schedule, and the similarity of its
# "constant" schedule, unless the command line sets them.
_DEFAULT_SCHEDULE = "improving"
_DEFAULT_CONSTANT_S = 1.0

# The largest sizes a configuration may ask for, checked before anything is
# allocated. A 20,000 px image at the default strides has 8.3M anchors.
MAX_ANCHORS = 10_000_000
MAX_OBJECTS = 100_000  # per scene: scene.object_count, or aspect_bins x angle_bins in a grid sweep
MAX_SURFACE_CELLS = 1_000_000  # thresholds.aspect_count x angle_count
MAX_CHECK_POINTS = 1_000_000  # each of loss_check.points and loss_check.iterations
MAX_ORACLE_SAMPLES = 1_000_000_000  # iou --oracle; costs only time, about 40 s on a 2-core VM

# Bounds of a stack of scenes that `stats` labels in one pass: anchor slots
# (one per anchor of each scene) and gts. A scene over either bound is a
# stack of its own, so the pipeline's memory does not grow with the scene
# count. On the default grid (21,824 anchors), both bounds admit six 20-gt
# scenes. Measured on a 2-core VM, per-scene cost falls by 30-40% from one
# such scene to six and by 2-4% more at twelve, which doubles the memory,
# and stacks of 100-gt scenes gain nothing.
_STACK_SLOTS = 2**17
_STACK_GTS = 128

# The smallest loss_check.beta. The smooth-L1 check squares draws of size
# beta, and from this bound up the squares stay in the normal float range.
MIN_CHECK_BETA = 1.0 / MAX_EXTENT

# CSV tables are written this many rows at a time, and each column's cache of
# float texts is emptied once it holds more than _CSV_CACHE_LIMIT of them, so
# the writer's memory does not grow with the table.
_CSV_BLOCK_ROWS = 1024
_CSV_CACHE_LIMIT = 4096


class ConfigError(ValueError):
    """Invalid configuration file or flag combination."""


@dataclass(frozen=True)
class AtssConfig:
    """Candidates per pyramid level of the ``atss`` strategy."""

    k: int = MasConfig.candidate_k

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass(frozen=True)
class StatsConfig:
    """Number of synthetic scenes that ``stats`` assigns."""

    scenes: int = 5

    def __post_init__(self) -> None:
        if self.scenes < 1:
            raise ValueError("scenes must be >= 1")


def _gamma_tag(gamma: float) -> str:
    """The ``<g>`` of ``thresholds_gamma<g>.csv``, and the gamma's key in
    ``thresholds.json``."""
    return f"{gamma:g}"


@dataclass(frozen=True)
class ThresholdsConfig:
    """The (aspect, angle) grid and inputs of the ``thresholds`` surfaces.
    ``gammas`` of None follows ``mas.gamma``."""

    aspect_count: int = 100
    aspect_range: tuple[float, float] = SceneSpec.aspect_range
    angle_count: int = 64
    candidate_ious: tuple[float, ...] = (0.3, 0.5, 0.7)
    gammas: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if min(self.aspect_count, self.angle_count) < 2 or self.aspect_count * self.angle_count > MAX_SURFACE_CELLS:
            raise ValueError(f"threshold grids need at least 2 points per axis and at most {MAX_SURFACE_CELLS} in all")
        lo, hi = self.aspect_range
        if not lo <= hi:
            raise ValueError(f"aspect_range is empty: {lo} > {hi}")
        if lo < 1.0:
            raise ValueError("aspect_range minimum must be >= 1")
        iou_statistics(self.candidate_ious)  # rejects an empty list and values outside [0, 1]
        if self.gammas is not None and not (self.gammas and all(g > 0.0 for g in self.gammas)):
            raise ValueError("gammas must be a non-empty list of positive values")
        seen: dict[str, float] = {}
        for gamma in self.gammas or ():
            tag = _gamma_tag(gamma)
            if tag in seen:
                raise ValueError(f"gammas {seen[tag]!r} and {gamma!r} share the file name thresholds_gamma{tag}.csv")
            seen[tag] = gamma


@dataclass(frozen=True)
class LossCheckConfig:
    """Settings of the ``loss-check`` gradient checks and beta trajectory."""

    iterations: int = 200
    tau: float = 30.0
    points: int = 1000
    beta: float = SmoothL1Config.beta
    focal_alpha: float = MultiTaskLossConfig.focal_alpha
    focal_gamma: float = MultiTaskLossConfig.focal_gamma

    def __post_init__(self) -> None:
        if not (1 <= self.iterations <= MAX_CHECK_POINTS and 1 <= self.points <= MAX_CHECK_POINTS and self.tau > 0):
            raise ValueError(f"iterations and points must lie in [1, {MAX_CHECK_POINTS}], and tau must be positive")
        if not MIN_CHECK_BETA <= self.beta <= MAX_EXTENT:
            raise ValueError("beta must lie in [2**-508, 2**508]")
        if not (0.0 <= self.focal_alpha <= 1.0 and self.focal_gamma >= 0.0):  # the focal loss's domain
            raise ValueError("focal_alpha must lie in [0, 1] and focal_gamma must be >= 0")


@dataclass(frozen=True)
class RunConfig:
    """Validated settings for one CLI invocation, one field per section of
    the JSON configuration. The ``keys`` metadata of ``mas`` and ``beta``
    leaves out the fields of those dataclasses that are not configuration."""

    mas: MasConfig = field(
        default=MasConfig(),
        metadata={"keys": ("gamma", "lambda_mode", "candidate_k", "threshold_clamp", "use_center_prior", "raw_lambda")},
    )
    maxiou: MaxIouConfig = MaxIouConfig()
    atss: AtssConfig = AtssConfig()
    scene: SceneSpec = SceneSpec()
    anchors: AnchorsConfig = AnchorsConfig()
    stats: StatsConfig = StatsConfig()
    thresholds: ThresholdsConfig = ThresholdsConfig()
    beta: BetaState = field(default=BetaState(), metadata={"keys": ("beta_scale", "momentum", "clamp")})
    loss_check: LossCheckConfig = LossCheckConfig()

    def __post_init__(self) -> None:
        if sum(w * h for w, h in self.anchors.level_shapes(self.scene.image_size)) > MAX_ANCHORS:
            raise ValueError(f"scene.image_size and anchors.strides give more than {MAX_ANCHORS} anchors")
        scene = self.scene
        objects = scene.object_count if scene.placement == UNIFORM else scene.aspect_bins * scene.angle_bins
        if objects > MAX_OBJECTS:
            raise ValueError(f"scene.object_count, or aspect_bins x angle_bins in a grid sweep, must not exceed {MAX_OBJECTS}")

    @property
    def gammas(self) -> tuple[float, ...]:
        """The gammas of the threshold surfaces."""
        return (self.mas.gamma,) if self.thresholds.gammas is None else self.thresholds.gammas


@dataclass(frozen=True, eq=False)
class BinnedStats:
    """Per-bin assignment statistics along one sweep axis."""

    edges: np.ndarray
    centers: np.ndarray
    gt_count: np.ndarray
    mean_positives: np.ndarray
    zero_positive_gts: np.ndarray

    def columns(self) -> list:
        """The columns of ``_STATS_HEADER``."""
        return [
            range(len(self.gt_count)),
            self.edges[:-1],
            self.edges[1:],
            self.centers,
            self.gt_count,
            self.mean_positives,
            self.zero_positive_gts,
        ]


_STATS_HEADER = (
    "bin_index",
    "bin_low",
    "bin_high",
    "bin_center",
    "gt_count",
    "mean_positives",
    "zero_positive_gts",
)


def _read_json(path, what: str, error: type[ValueError] = ValueError):
    """The JSON document in the UTF-8 file ``path``; a file that cannot be
    read, is not UTF-8, is not JSON or nests too deeply raises ``error``
    (``ValueError`` is a data error, ``ConfigError`` a usage error)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise error(f"{what} is not valid JSON: {exc}") from None
    except RecursionError:
        raise error(f"{what} nests too deeply to read") from None


def load_run_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """Parse the JSON configuration (all sections optional) with the
    ``{section: {key: value}}`` of ``overrides`` laid over its sections, and
    reject anything it does not understand."""
    data = {} if path is None else _read_json(path, "config", ConfigError)
    if isinstance(data, dict):
        data.pop("schema_version", None)  # accepted, as in the files the CLI writes
        for section, values in (overrides or {}).items():
            given = data.get(section, {})
            data[section] = {**given, **values} if isinstance(given, dict) else given
    try:
        return from_dict(RunConfig, data, "config", prefix_checks=False)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(str(exc)) from None


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


class _FloatTexts(dict):
    """One column's ``str`` of each float it has met. Only nonzero, non-NaN
    floats are kept: equal ones have the same bits, so the same text, while
    0.0 equals -0.0 and a NaN equals nothing."""

    def __missing__(self, value: float) -> str:
        text = str(value)
        if value and value == value:
            self[value] = text
        return text


def _write_csv(path: Path, schema: str, header, columns) -> None:
    """Write equal-length ``columns`` (sequences or 1-D arrays) as the rows
    ``",".join(str(v) for v in row)`` under the schema line and header.
    Rows go out ``_CSV_BLOCK_ROWS`` at a time, and a block of Python floats
    is formatted through its column's ``_FloatTexts``, which is emptied past
    ``_CSV_CACHE_LIMIT`` entries; other blocks go through ``str``."""
    caches = [_FloatTexts() for _ in columns]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# schema: {schema}\n")
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            texts = []
            for column, cache in zip(columns, caches):
                block = column[start : start + _CSV_BLOCK_ROWS]
                if isinstance(block, np.ndarray):
                    floats, block = block.dtype == np.float64, block.tolist()
                else:
                    floats = set(map(type, block)) == {float}  # 1 == 1.0 == True, but their texts differ
                if floats:
                    texts.append(list(map(cache.__getitem__, block)))
                    if len(cache) > _CSV_CACHE_LIMIT:
                        cache.clear()
                else:
                    texts.append(list(map(str, block)))
            fh.write("\n".join(map(",".join, zip(*texts))) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_csv(path) -> tuple[str, list[str], list[list[str]]]:
    """Read back a CSV written by this tool: (schema line, header, rows)."""
    with open(path, encoding="utf-8") as fh:
        schema_line = fh.readline().strip()
        if not schema_line.startswith("# schema: "):
            raise ValueError(f"{path} is missing its schema line")
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return schema_line.removeprefix("# schema: "), header, rows


def _strategy_config(strategy: str, cfg: RunConfig) -> MasConfig | MaxIouConfig:
    """The assignment config of ``strategy``: ATSS is MAS with the shape
    weight pinned to 1 and ``atss.k`` candidates per level."""
    if strategy == "maxiou":
        return cfg.maxiou
    if strategy == "atss":
        return replace(cfg.mas, candidate_k=cfg.atss.k, unit_weight=True)
    if strategy == "mas":
        return cfg.mas
    raise ConfigError(f"unknown strategy {strategy!r}")


def _bin_stats(values, positives, lo, hi, bins) -> BinnedStats:
    edges, centers = _bins(lo, hi, bins)
    idx = np.clip(np.searchsorted(edges, values, side="right") - 1, 0, bins - 1)
    gt_count = np.bincount(idx, minlength=bins)
    totals = np.bincount(idx, weights=positives, minlength=bins)
    zeros = np.bincount(idx[np.asarray(positives) == 0], minlength=bins)
    with np.errstate(invalid="ignore"):
        means = np.where(gt_count > 0, totals / np.maximum(gt_count, 1), np.nan)
    return BinnedStats(edges=edges, centers=centers, gt_count=gt_count, mean_positives=means, zero_positive_gts=zeros)


def _scene_stacks(cfg: RunConfig, base_seed: int, num_anchors: int):
    """The gts of the ``stats.scenes`` scenes of seeds ``base_seed``,
    ``base_seed + 1``, ..., generated in order and handed out in stacks of
    consecutive scenes with at most ``_STACK_SLOTS`` anchor slots
    (``num_anchors`` per scene) and ``_STACK_GTS`` gts. A scene over either
    bound is a stack of its own."""
    stack, stack_gts = [], 0
    for index in range(cfg.stats.scenes):
        gts = generate_scene(replace(cfg.scene, seed=base_seed + index)).gts
        if stack and ((len(stack) + 1) * num_anchors > _STACK_SLOTS or stack_gts + len(gts) > _STACK_GTS):
            yield stack
            stack, stack_gts = [], 0
        stack.append(gts)
        stack_gts += len(gts)
    yield stack


def run_assignment_stats(cfg: RunConfig, strategy: str, base_seed: int):
    """Generate ``stats.scenes`` scenes, assign them, and bin their gts'
    positives by aspect and by angle. The scenes are labelled a stack at a
    time (:func:`_scene_stacks`) in one pass of :func:`_assign_all`, which
    labels each scene as a call of its own would; a stack is dropped once
    its gts are counted, so memory does not grow with the scene count."""
    grid = generate_anchors(cfg.scene.image_size, cfg.anchors.strides, cfg.anchors.scale_multiplier)
    config = _strategy_config(strategy, cfg)
    aspects: list[float] = []
    angles: list[float] = []
    positives: list[int] = []
    for stack in _scene_stacks(cfg, base_seed, grid.num_anchors):
        [results] = _assign_all(grid, stack, [config])
        for gts, result in zip(stack, results):
            aspects += [gt.aspect for gt in gts]
            angles += [gt.angle for gt in gts]
            positives += result.positive_counts.tolist()
    aspect_stats = _bin_stats(aspects, positives, *cfg.scene.aspect_range, cfg.scene.aspect_bins)
    angle_stats = _bin_stats(angles, positives, *cfg.scene.angle_range, cfg.scene.angle_bins)
    totals = {
        "gt_count": len(positives),
        "positives_total": int(np.sum(positives)),
        "zero_positive_gts": int(np.sum(np.asarray(positives) == 0)),
    }
    return aspect_stats, angle_stats, totals


def _stats_json_block(stats: BinnedStats) -> dict:
    return {
        "edges": [float(e) for e in stats.edges],
        "gt_count": [int(c) for c in stats.gt_count],
        "mean_positives": [None if math.isnan(m) else float(m) for m in stats.mean_positives],
        "zero_positive_gts": [int(z) for z in stats.zero_positive_gts],
    }


def cmd_stats(args: argparse.Namespace, cfg: RunConfig) -> int:
    out = _out_dir(args)
    aspect_stats, angle_stats, totals = run_assignment_stats(cfg, args.strategy, args.seed)
    _write_csv(out / "stats_aspect.csv", "obblab.stats.v1", _STATS_HEADER, aspect_stats.columns())
    _write_csv(out / "stats_angle.csv", "obblab.stats.v1", _STATS_HEADER, angle_stats.columns())
    _write_json(
        out / "stats.json",
        {
            "strategy": args.strategy,
            "seed": args.seed,
            "scenes": cfg.stats.scenes,
            "totals": totals,
            "aspect": _stats_json_block(aspect_stats),
            "angle": _stats_json_block(angle_stats),
        },
    )
    print(f"wrote stats for strategy={args.strategy} over {totals['gt_count']} gts to {out}")
    return EXIT_OK


def _equilibrium_distance(angles: np.ndarray) -> np.ndarray:
    return np.minimum(np.abs(angles), np.abs(angles - HALF_PI))


def threshold_surface(cfg: RunConfig, gamma: float):
    """The (aspect, angle) -> (shape weight, threshold) table for one gamma:
    each cell's aspect, angle, exponent (for the self-check) and surfaces."""
    aspects = np.linspace(*cfg.thresholds.aspect_range, cfg.thresholds.aspect_count)
    angles = np.linspace(-QUARTER_PI, 3.0 * QUARTER_PI, cfg.thresholds.angle_count, endpoint=False)
    _, _, init = iou_statistics(cfg.thresholds.candidate_ious)
    cells = np.meshgrid(aspects, angles, indexing="ij")
    return (*cells, *adaptive_thresholds(*cells, init, replace(cfg.mas, gamma=gamma)))


def verify_threshold_surface(aspects: np.ndarray, angles: np.ndarray, exponents: np.ndarray) -> list[str]:
    """The documented monotonicity relationships of the pre-clamp surface,
    checked on the shape weights' exponents: exp is monotone, and the
    exponents keep their order where exp saturates to 0 or inf. Rounding
    is monotone too, so the exponents never increase with aspect; they must
    fall strictly between aspects more than 1e-12 apart, relatively, unless
    they overflowed. Returns a list of violation descriptions."""
    problems = []
    later, earlier = exponents[1:], exponents[:-1]
    apart = (aspects[1:] - aspects[:-1] > 1e-12 * aspects[1:])[:, None] & np.isfinite(later)
    if not (np.all(later <= earlier) and np.all(later[apart] < earlier[apart])):
        problems.append("shape weight is not strictly decreasing in aspect at fixed angle")
    dist = _equilibrium_distance(angles)
    order = np.argsort(dist, kind="stable")
    reordered = exponents[:, order]
    if not np.all(reordered[:, 1:] <= reordered[:, :-1] + 1e-12):  # no inf - inf where exponents saturate
        problems.append("shape weight increases with distance from the equilibrium angles")
    nearest = dist <= dist.min() + 1e-12
    row_max = exponents.max(axis=1)
    if not np.all(np.isclose(exponents[:, nearest].max(axis=1), row_max, rtol=0, atol=1e-15)):
        problems.append("per-aspect maximum is not at the equilibrium-nearest angle")
    return problems


def cmd_thresholds(args: argparse.Namespace, cfg: RunConfig) -> int:
    out = _out_dir(args)
    all_problems = {}
    for gamma in cfg.gammas:
        aspects, angles, exponents, *surfaces = threshold_surface(cfg, gamma)
        _write_csv(
            out / f"thresholds_gamma{_gamma_tag(gamma)}.csv",
            "obblab.thresholds.v1",
            ("aspect", "angle", "shape_weight", "pre_clamp_threshold", "clamped_threshold"),
            [column.ravel() for column in (aspects, angles, *surfaces)],
        )
        problems = verify_threshold_surface(aspects[:, 0], angles[0], exponents)
        if problems:
            all_problems[_gamma_tag(gamma)] = problems
    _write_json(
        out / "thresholds.json",
        {
            "gammas": [float(g) for g in cfg.gammas],
            "candidate_ious": list(cfg.thresholds.candidate_ious),
            "lambda_mode": cfg.mas.lambda_mode,
            "raw_lambda": cfg.mas.raw_lambda,
            "monotonicity_violations": all_problems,
        },
    )
    if all_problems:
        for gamma, problems in all_problems.items():
            for problem in problems:
                print(f"self-check failed (gamma={gamma}): {problem}", file=sys.stderr)
        return EXIT_SELFCHECK
    print(f"wrote {len(cfg.gammas)} threshold surface(s) to {out}")
    return EXIT_OK


def _smooth_l1_check_points(rng: np.random.Generator, points: int, beta: float) -> np.ndarray:
    """``points`` uniform draws on [-4 beta, 4 beta), skipping those within
    1e-4 beta of the knee or one difference step (1e-6 beta) of zero, as a
    loop of one scalar ``rng.uniform`` per draw finds them. The draws come
    in arrays of as many as are still missing, so the loop would have used
    every draw of each: the points and ``rng``'s state after them are the
    same."""
    step = 1e-6 * beta
    kept = []
    while points:
        x = rng.uniform(-4.0 * beta, 4.0 * beta, points)
        kept.append(x[(np.abs(np.abs(x) - beta) >= 1e-4 * beta) & (np.abs(x) >= step)])
        points -= kept[-1].size
    return np.concatenate(kept)


def gradient_check(seed: int, points: int, beta: float, focal_alpha: float, focal_gamma: float):
    """Max relative error of the analytic gradients against central
    differences. The smooth-L1 step is 1e-6 beta, and its points within
    1e-4 beta of the knee (or within one step of zero) are skipped; the
    focal step is 1e-6."""
    rng = np.random.default_rng(seed)
    step = 1e-6 * beta
    xs = _smooth_l1_check_points(rng, points, beta)
    fd = (smooth_l1(xs + step, beta) - smooth_l1(xs - step, beta)) / (2.0 * step)
    ana = smooth_l1_grad(xs, beta)
    sl1_rel = np.abs(ana - fd) / np.maximum(np.abs(fd), 1e-12)
    sl1_worst = int(np.argmax(sl1_rel))

    ps = rng.uniform(0.001, 0.999, points)
    ts = (np.arange(points) % 2 == 0).astype(int)
    step = 1e-6
    fd = (focal_loss(ps + step, ts, focal_alpha, focal_gamma) - focal_loss(ps - step, ts, focal_alpha, focal_gamma)) / (2.0 * step)
    ana = focal_loss_grad(ps, ts, focal_alpha, focal_gamma)
    focal_rel = np.abs(ana - fd) / np.maximum(np.abs(fd), 1e-12)
    focal_worst = int(np.argmax(focal_rel))

    return {
        "smooth_l1": {
            "max_relative_error": float(sl1_rel.max()),
            "worst_point": float(xs[sl1_worst]),
            "points": points,
        },
        "focal": {
            "max_relative_error": float(focal_rel.max()),
            "worst_point": float(ps[focal_worst]),
            "worst_target": int(ts[focal_worst]),
            "points": points,
        },
    }


def run_beta_trajectory(
    state: BetaState,
    iterations: int,
    tau: float,
    schedule: str = _DEFAULT_SCHEDULE,
    constant_s: float = _DEFAULT_CONSTANT_S,
):
    """Drive the adaptive knee with a synthetic proposal-quality schedule.

    ``improving`` raises the similarity as 1 - 0.5 exp(-t/tau), emulating
    predictions that match ground-truth scale better as training advances
    (an emulation, not a measurement of any trained model). Each iteration
    feeds a deterministic five-value spread around the scheduled similarity;
    all iterations go to :func:`update_betas` as one (iterations, 5) array.
    """
    if schedule == "improving":
        scheduled = [1.0 - 0.5 * math.exp(-t / tau) for t in range(iterations)]
    elif schedule == "constant":
        scheduled = [constant_s] * iterations
    else:
        raise ConfigError(f"unknown schedule {schedule!r}")
    batches = np.minimum(1.0, np.maximum(1e-9, np.multiply.outer(scheduled, _BATCH_SPREAD)))
    targets, betas, state = update_betas(state, batches)
    return list(zip(range(iterations), scheduled, targets.tolist(), betas.tolist())), state


def cmd_loss_check(args: argparse.Namespace, cfg: RunConfig) -> int:
    if not math.isfinite(args.constant_s):
        raise ConfigError("--constant-s must be finite")
    out = _out_dir(args)
    loss = cfg.loss_check
    report = gradient_check(args.seed, loss.points, loss.beta, loss.focal_alpha, loss.focal_gamma)
    tolerance = 1e-5
    offenders = [
        name
        for name in ("smooth_l1", "focal")
        if not report[name]["max_relative_error"] <= tolerance  # NaN fails
    ]
    rows, _ = run_beta_trajectory(cfg.beta, loss.iterations, loss.tau, args.schedule, args.constant_s)
    _write_csv(
        out / "beta_trajectory.csv",
        "obblab.beta.v1",
        ("iteration", "scheduled_similarity", "raw_target", "beta"),
        list(zip(*rows)),
    )
    _write_json(
        out / "gradient_check.json",
        {
            "tolerance": tolerance,
            "passed": not offenders,
            "offenders": offenders,
            "schedule": args.schedule,
            "iterations": loss.iterations,
            "tau": loss.tau,
            **report,
        },
    )
    if offenders:
        for name in offenders:
            print(
                f"gradient self-check failed for {name}: "
                f"max relative error {report[name]['max_relative_error']:.3e}",
                file=sys.stderr,
            )
        return EXIT_SELFCHECK
    print(
        "gradient checks passed "
        f"(smooth_l1 {report['smooth_l1']['max_relative_error']:.2e}, "
        f"focal {report['focal']['max_relative_error']:.2e}); "
        f"beta trajectory written to {out}"
    )
    return EXIT_OK


def _flag_box(values) -> OrientedBox:
    """A box given on the command line; an invalid one, or one whose center
    or edges exceed 2**508 in magnitude (the bound of annotation
    coordinates), is a usage error."""
    try:
        box = normalize_obb(*values)
    except ValueError as exc:
        raise ConfigError(exc) from None
    if not max(abs(box.cx), abs(box.cy), box.w) <= MAX_EXTENT:
        raise ConfigError("box center and edges must not exceed 2**508 in magnitude")
    return box


def cmd_iou(args: argparse.Namespace, cfg: RunConfig) -> int:
    box_a = _flag_box(args.box[:5])
    box_b = _flag_box(args.box[5:])
    print(f"{rotated_iou(box_a, box_b):.6f}")
    if args.oracle is not None:
        if not 1 <= args.oracle <= MAX_ORACLE_SAMPLES:
            raise ConfigError(f"--oracle must lie in [1, {MAX_ORACLE_SAMPLES}]")
        estimate = mc_iou_oracle(box_a, box_b, args.oracle, args.seed)
        print(f"oracle(n={args.oracle}): {estimate:.6f}")
    return EXIT_OK


def cmd_assign_file(args: argparse.Namespace, cfg: RunConfig) -> int:
    out = _out_dir(args)
    parse_result = parse_dota_file(args.annotations)
    if parse_result.errors:
        for error in parse_result.errors:
            print(f"{args.annotations}: {error}", file=sys.stderr)
        return EXIT_DATA
    gts, skipped = records_to_gts(parse_result.records, include_difficult=args.include_difficult)

    grid = generate_anchors(cfg.scene.image_size, cfg.anchors.strides, cfg.anchors.scale_multiplier)
    configs = [_strategy_config(s, cfg) for s in STRATEGIES]
    results = {strategy: result for strategy, [result] in zip(STRATEGIES, _assign_all(grid, [gts], configs))}
    comparison = {
        strategy: {
            "positives_total": int(result.num_positives),
            "zero_positive_gts": int(np.sum(result.positive_counts == 0)) if gts else 0,
        }
        for strategy, result in results.items()
    }
    selected = results[args.strategy]
    per_gt = []
    for g, gt in enumerate(gts):
        per_gt.append(
            {
                "index": g,
                "class_id": int(gt.class_id),
                "aspect": float(gt.aspect),
                "angle": float(gt.angle),
                "threshold": float(selected.thresholds[g]),
                "positives": int(selected.positive_counts[g]),
            }
        )
    _write_json(
        out / "assign_report.json",
        {
            "annotations": str(args.annotations),
            "strategy": args.strategy,
            "gt_count": len(gts),
            "skipped_degenerate": skipped,
            "include_difficult": bool(args.include_difficult),
            "image_size": list(cfg.scene.image_size),
            "per_gt": per_gt,
            "comparison": comparison,
        },
    )
    print(f"assigned {len(gts)} gts with strategy={args.strategy}; report in {out}")
    return EXIT_OK


def load_feature_grid(path) -> FeatureGrid:
    """Read the flat text format: a 'width height channels' header line,
    then height*width*channels whitespace-separated values in row-major
    order (rows outer, channels innermost)."""
    with open(path, encoding="utf-8") as fh:
        tokens: list[str] = []
        dims: tuple[int, int, int] | None = None
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if dims is None:
                parts = line.split()
                if len(parts) != 3:
                    raise ValueError("feature header must be 'width height channels'")
                dims = (int(parts[0]), int(parts[1]), int(parts[2]))
                continue
            tokens.extend(line.split())
    if dims is None:
        raise ValueError("feature file is empty")
    width, height, channels = dims
    values = np.array([float(t) for t in tokens])
    if values.size != width * height * channels:
        raise ValueError(
            f"feature file holds {values.size} values, expected {width * height * channels}"
        )
    return FeatureGrid(values.reshape(height, width, channels))


def _demo_kernel(kind: str, channels: int, seed: int) -> np.ndarray:
    if kind == "delta":
        kernel = np.zeros((3, 3, channels))
        kernel[1, 1, :] = 1.0
        return kernel
    if kind == "average":
        return np.full((3, 3, channels), 1.0 / 9.0)
    if kind == "random":
        return np.random.default_rng(seed).normal(size=(3, 3, channels))
    raise ConfigError(f"unknown kernel {kind!r}")


def cmd_cfs_demo(args: argparse.Namespace, cfg: RunConfig) -> int:
    out = _out_dir(args)
    grid = load_feature_grid(args.features)
    box = _flag_box(args.box)
    offsets = _read_json(args.offsets, "offsets") if args.offsets else None
    if not 0.0 <= args.shrink < 1.0:
        raise ConfigError("--shrink must lie in [0, 1)")
    if not 0.0 < args.stride < math.inf:
        raise ConfigError("--stride must be positive and finite")
    pattern = sampling_pattern(box, offsets, args.shrink)
    coordinates = (box.cx, box.cy, *pattern.refined_points.ravel().tolist())
    # Python floats, so an overflow to inf raises no warning; 2**508 keeps the
    # offsets (point - p0 - tap, in cells) finite as well.
    if not all(abs(v / args.stride) <= MAX_EXTENT for v in coordinates):
        raise ConfigError("--stride must keep the box center and sampling points within 2**508 feature cells")
    p0 = (math.floor(box.cx / args.stride), math.floor(box.cy / args.stride))
    field = dcn_offset_field(pattern.refined_points, p0, args.stride)
    kernel = _demo_kernel(args.kernel, grid.channels, args.seed)
    value = deformable_sample(grid, kernel, p0, field)
    center = pattern.refined_points[0]
    center_samples = [
        bilinear_sample(grid, center[0] / args.stride, center[1] / args.stride, c)
        for c in range(grid.channels)
    ]
    _write_json(
        out / "cfs_demo.json",
        {
            "box": [box.cx, box.cy, box.w, box.h, box.theta],
            "shrink_factor": args.shrink,
            "stride": args.stride,
            "kernel": args.kernel,
            "initial_points": [[float(x), float(y)] for x, y in pattern.initial_points],
            "refined_points": [[float(x), float(y)] for x, y in pattern.refined_points],
            "offset_field": {
                "p0": [float(p0[0]), float(p0[1])],
                "offsets": [[float(x), float(y)] for x, y in field.offsets],
            },
            "deformable_output": float(value),
            "center_point_samples": [float(v) for v in center_samples],
        },
    )
    print(f"sampling dump written to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obblab",
        description="Deterministic oriented-box assignment, sampling, and loss experiments.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="JSON configuration file")
    common.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    common.add_argument("--out", default="obblab-out", help="output directory")

    sub = parser.add_subparsers(dest="command", required=True)
    # A flag whose dest holds a dot sets that config key.
    raw_help = "debug: keep the signed angle weight"

    p_stats = sub.add_parser("stats", parents=[common], help="positive-sample statistics over synthetic scenes")
    p_stats.add_argument("--strategy", choices=STRATEGIES, default="mas")
    p_stats.add_argument("--scenes", dest="stats.scenes", type=int, help="number of scenes")
    p_stats.add_argument("--gamma", dest="mas.gamma", type=float)
    p_stats.add_argument("--raw-lambda", dest="mas.raw_lambda", action="store_const", const=True, help=raw_help)
    p_stats.set_defaults(func=cmd_stats)

    p_thr = sub.add_parser("thresholds", parents=[common], help="shape-weight and threshold surfaces")
    p_thr.add_argument("--gamma", dest="mas.gamma", type=float, help="single gamma (replaces the config list)")
    p_thr.add_argument("--lambda-mode", dest="mas.lambda_mode", choices=(ANGLE_DEPENDENT, CONSTANT_ONE))
    p_thr.add_argument("--raw-lambda", dest="mas.raw_lambda", action="store_const", const=True, help=raw_help)
    p_thr.set_defaults(func=cmd_thresholds)

    p_loss = sub.add_parser("loss-check", parents=[common], help="gradient self-checks and beta trajectory")
    p_loss.add_argument("--iterations", dest="loss_check.iterations", type=int)
    p_loss.add_argument("--tau", dest="loss_check.tau", type=float)
    p_loss.add_argument("--schedule", choices=("improving", "constant"), default=_DEFAULT_SCHEDULE)
    p_loss.add_argument(
        "--constant-s", type=float, default=_DEFAULT_CONSTANT_S, help="similarity for --schedule constant"
    )
    p_loss.set_defaults(func=cmd_loss_check)

    p_iou = sub.add_parser("iou", parents=[common], help="exact IoU of two boxes (cx cy w h theta, twice)")
    p_iou.add_argument("box", type=float, nargs=10, metavar="V")
    p_iou.add_argument("--oracle", type=int, default=None, help="also print a Monte-Carlo estimate with N samples")
    p_iou.set_defaults(func=cmd_iou)

    p_assign = sub.add_parser("assign-file", parents=[common], help="assignment report for an annotation file")
    p_assign.add_argument("annotations", help="annotation text file")
    p_assign.add_argument("--strategy", choices=STRATEGIES, default="mas")
    p_assign.add_argument("--include-difficult", action="store_true")
    p_assign.add_argument("--gamma", dest="mas.gamma", type=float)
    p_assign.add_argument("--raw-lambda", dest="mas.raw_lambda", action="store_const", const=True, help=raw_help)
    p_assign.add_argument("--image-size", dest="scene.image_size", type=int, nargs=2, metavar=("W", "H"))
    p_assign.set_defaults(func=cmd_assign_file)

    p_demo = sub.add_parser("cfs-demo", parents=[common], help="sampling-pattern and deformable-sampling dump")
    p_demo.add_argument("--features", required=True, help="feature grid text file")
    p_demo.add_argument("--box", type=float, nargs=5, required=True, metavar=("CX", "CY", "W", "H", "THETA"))
    p_demo.add_argument("--offsets", default=None, help="JSON file with 9 [dx, dy] pairs")
    p_demo.add_argument("--shrink", type=float, default=DEFAULT_SHRINK_FACTOR)
    p_demo.add_argument("--stride", type=float, default=8.0)
    p_demo.add_argument("--kernel", choices=("delta", "average", "random"), default="delta")
    p_demo.set_defaults(func=cmd_cfs_demo)

    return parser


# One parser per process: building the tree costs about a millisecond.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    overrides: dict = {}
    for dest, value in vars(args).items():
        if "." in dest and value is not None:
            section, key = dest.split(".")
            overrides.setdefault(section, {})[key] = value
    if "gamma" in overrides.get("mas", {}):
        overrides.setdefault("thresholds", {})["gammas"] = None  # so they follow mas.gamma
    try:
        command = globals()[args.func.__name__]  # looked up now, so a patched cmd_* runs
        return command(args, load_run_config(args.config, overrides))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
