"""Workload inputs, the timed units of work and their correctness checks.

Every workload draws its scenes from a fixed universe of scene ids, and the
run seed picks which of them form the run's pool and in what order. That
keeps a seed's inputs reproducible while every scene a run can meet has a
reference outcome recorded in ``reference.json``.

A *scene* unit follows ``assign-file``: annotation text is parsed into
ground truths, assigned by all three strategies, and the MAS result gets
loss targets, then the per-positive refinement tail (decode a seeded
prediction, rotated IoU and scale similarity against the gt, nine-point
pattern, offset field, deformable sample), a beta update and a two-head
loss. A *head* unit is that tail alone, on a MAS assignment made during
set-up.
"""

from __future__ import annotations

import hashlib
import io
import math
import shutil
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracing import Tracer

STRIDES = (8, 16, 32, 64, 128)
STRATEGIES = ("maxiou", "atss", "mas")
CHANNELS = 16
CANDIDATE_K = 9
OFFSET_TABLE = 64
WARMUP_OBJECTS = 8
CLI_CASES = 4
SETUP_REPEATS = 5
CLI_SEED_BASE = 500
ORACLE_SAMPLES = 1_000_000
# Relative tolerance of recorded floating-point outcomes.
RTOL = 1e-9


@dataclass(frozen=True)
class Spec:
    name: str
    unit: str  # "scene" or "head"
    image: int
    objects: int
    universe: int  # scene ids 0 .. universe-1 have reference outcomes
    pool: int  # scenes per run, drawn from the universe by the seed
    base_seed: int
    rounded: bool  # annotation corners rounded to whole pixels
    cli_rounds: int


WORKLOADS = {
    "default": Spec("default", "scene", 1024, 20, 64, 32, 10_000, False, 5),
    "large": Spec("large", "scene", 4096, 250, 8, 2, 20_000, True, 3),
    "head": Spec("head", "head", 1024, 50, 32, 16, 30_000, False, 20),
}


def pool_and_case(spec: Spec, seed: int) -> tuple[list[int], int]:
    """The run's scene ids and CLI case, both determined by the seed."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(spec.name)])
    pool = [int(i) for i in rng.permutation(spec.universe)[: spec.pool]]
    return pool, int(rng.integers(CLI_CASES))


def scene_text(ob, spec: Spec, scene_id: int) -> list[str]:
    """Annotation lines of one universe scene with seeded categories."""
    seed = spec.base_seed + scene_id
    scene = ob.generate_scene(
        ob.SceneSpec(image_size=(spec.image, spec.image), object_count=spec.objects, seed=seed)
    )
    names = list(ob.dota_category_table())
    rng = np.random.default_rng(seed)
    lines = []
    for line in ob.scene_to_dota_lines(scene):
        coords = line.split()[:8]
        if spec.rounded:
            coords = [str(round(float(c))) for c in coords]
        lines.append(" ".join(coords + [names[int(rng.integers(len(names)))], "0"]))
    return lines


@dataclass
class Prepared:
    """A parsed and MAS-assigned scene: the input of a head unit."""

    gts: list
    skipped: int
    records: int
    parse_errors: int
    mas: object
    targets: object


@dataclass
class Workload:
    spec: Spec
    ob: object
    cli: object
    out: Path
    grid: object
    level_of: np.ndarray
    texts: dict
    pool: list
    delta_noise: np.ndarray
    cls_pred: np.ndarray
    offsets: np.ndarray
    features: list
    kernel: np.ndarray
    prepared: dict = field(default_factory=dict)


@dataclass
class Outcome:
    scene_id: int
    scene: Prepared
    results: dict
    pairs: list  # (predicted box, gt box) per positive anchor
    ious: list
    similarities: list
    samples: list
    beta: object
    loss: object


def prepare(ob, cli, spec: Spec, pool: list[int], case: int, out: Path, tr) -> Workload:
    """Set-up: anchors, inputs from the scene universe, fixed predictions and
    feature grids, CLI input files, and for ``head`` the MAS assignment of
    every pool scene."""
    with tr.span("assignment.grid"):
        grid = ob.generate_anchors(spec.image, STRIDES)
    sizes = [s.stop - s.start for s in grid.level_slices]
    # Predictions and features depend on the workload only, so a scene's
    # outcome depends on its id alone and can be checked against the reference.
    rng = np.random.default_rng(spec.base_seed)
    classes = len(ob.dota_category_table())
    w = Workload(
        spec=spec,
        ob=ob,
        cli=cli,
        out=out,
        grid=grid,
        level_of=np.repeat(np.arange(len(sizes)), sizes),
        texts={sid: scene_text(ob, spec, sid) for sid in sorted(set(pool) | set(range(CLI_CASES)))},
        pool=list(pool),
        delta_noise=rng.normal(0.0, 0.1, size=(2, grid.num_anchors, 5)),
        cls_pred=rng.uniform(0.02, 0.98, size=(2, grid.num_anchors, classes)),
        offsets=rng.normal(0.0, 0.05, size=(OFFSET_TABLE, 9, 2)),
        features=[
            ob.FeatureGrid(rng.normal(size=(level.height, level.width, CHANNELS))) for level in grid.levels
        ],
        kernel=rng.normal(size=(3, 3, CHANNELS)),
    )
    write_cli_inputs(w, case)
    if spec.unit == "head":
        for sid in pool:
            tr.scene = f"setup-{sid}"
            w.prepared[sid], _ = prepare_scene(w, w.texts[sid], tr)
        tr.scene = None
    # Warm-up on a few objects of the first scene, untraced so that it adds
    # no short scene to the per-layer medians.
    scene_pipeline(w, w.texts[pool[0]][:WARMUP_OBJECTS], Tracer(False))
    return w


def prepare_scene(w: Workload, lines: list[str], tr, baselines: bool = False) -> tuple[Prepared, dict]:
    """Parse, convert and assign one scene; the maxiou and ATSS baselines
    run only when asked for."""
    ob = w.ob
    with tr.span("scenes.parse"):
        parsed = ob.parse_dota_lines(lines)
    with tr.span("scenes.to_gts"):
        gts, skipped = ob.records_to_gts(parsed.records)
    results = {}
    if baselines:
        with tr.span("assignment.maxiou"):
            results["maxiou"] = ob.assign_maxiou(w.grid, gts)
        with tr.span("assignment.atss"):
            results["atss"] = ob.assign_atss(w.grid, gts)
    with tr.span("assignment.mas"):
        results["mas"] = mas = ob.assign_mas(w.grid, gts)
    with tr.span("losses.targets"):
        targets = ob.build_loss_targets(w.grid, gts, mas)
    return Prepared(gts, skipped, len(parsed.records), len(parsed.errors), mas, targets), results


def scene_pipeline(w: Workload, lines: list[str], tr, scene_id: int = -1) -> Outcome:
    prepared, results = prepare_scene(w, lines, tr, baselines=True)
    return refine(w, prepared, results, tr, scene_id)


def refine(w: Workload, p: Prepared, results: dict, tr, scene_id: int) -> Outcome:
    """The per-positive tail shared by both units, then beta and loss."""
    ob = w.ob
    grid = w.grid
    deltas_pred = p.targets.deltas + w.delta_noise[0]
    deltas_refined = p.targets.deltas + w.delta_noise[1]
    pairs, ious, sims, samples = [], [], [], []
    for anchor in np.nonzero(p.mas.gt_index >= 0)[0]:
        a = int(anchor)
        gt_box = p.gts[p.mas.gt_index[a]].box
        anchor_box = grid.box(a)
        with tr.span("losses.decode"):
            pred = ob.decode_box_deltas(anchor_box, ob.BoxDelta(*deltas_pred[a]))
        with tr.span("geometry.rotated_iou"):
            iou = ob.rotated_iou(pred, gt_box)
        with tr.span("losses.similarity"):
            sim = ob.scale_similarity(pred, gt_box)
        level = int(w.level_of[a])
        stride = grid.levels[level].stride
        p0 = (math.floor(anchor_box.cx / stride), math.floor(anchor_box.cy / stride))
        with tr.span("sampling.pattern"):
            pattern = ob.sampling_pattern(pred, w.offsets[a % OFFSET_TABLE])
            offset_field = ob.dcn_offset_field(pattern.refined_points, p0, stride)
        with tr.span("sampling.deformable"):
            value = ob.deformable_sample(w.features[level], w.kernel, p0, offset_field)
        pairs.append((pred, gt_box))
        ious.append(iou)
        sims.append(sim)
        samples.append(value)
    with tr.span("losses.beta"):
        beta = ob.update_beta(ob.BetaState(), sims)
    with tr.span("losses.loss"):
        loss = ob.multi_task_loss(
            p.mas, deltas_pred, w.cls_pred[0], p.targets,
            refined_deltas=deltas_refined, refined_cls=w.cls_pred[1],
        )
    return Outcome(scene_id, p, results, pairs, ious, sims, samples, beta, loss)


def run_unit(w: Workload, scene_id: int, tr) -> Outcome:
    with tr.span("bench.scene"):
        if w.spec.unit == "head":
            p = w.prepared[scene_id]
            return refine(w, p, {"mas": p.mas}, tr, scene_id)
        return scene_pipeline(w, w.texts[scene_id], tr, scene_id)


# ---------------------------------------------------------------- checking


def array_digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<i8").tobytes()).hexdigest()[:16]


def moments(values) -> list[float]:
    """Sum, absolute sum and index-weighted mean: a short summary that
    changes when any value, or the order of values, changes."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return [0.0, 0.0, 0.0]
    return [float(v.sum()), float(np.abs(v).sum()), float(np.dot(np.arange(1, v.size + 1), v) / v.size)]


def summarize(o: Outcome) -> dict:
    """The recorded form of an outcome."""
    summary = {f"gt_index.{s}": array_digest(r.gt_index) for s, r in sorted(o.results.items())}
    summary.update(
        loss_total=float(o.loss.total),
        beta=float(o.beta.beta_scale),
        iou=moments(o.ious),
        similarity=moments(o.similarities),
        sampling=moments(o.samples),
    )
    return summary


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(scale), 1e-300)


def compare(summary: dict, reference: dict | None) -> list[str]:
    if reference is None:
        return ["no reference outcome recorded"]
    problems = []
    for key, expected in reference.items():
        got = summary.get(key)
        if isinstance(expected, str):
            ok = got == expected
        elif isinstance(expected, list):
            ok = got is not None and all(_close(g, e, expected[1]) for g, e in zip(got, expected))
        else:
            ok = got is not None and _close(got, expected, expected)
        if not ok:
            problems.append(f"{key}: got {got!r}, reference {expected!r}")
    return problems


def invariants(w: Workload, o: Outcome) -> list[str]:
    """Checks that hold for any input, reference or not."""
    ob = w.ob
    problems = []
    if o.scene.parse_errors:
        problems.append(f"{o.scene.parse_errors} annotation lines failed to parse")
    lo, hi = ob.MasConfig().threshold_clamp
    for strategy, r in o.results.items():
        gi = r.gt_index
        counts = np.bincount(gi[gi >= 0], minlength=len(o.scene.gts))
        if not np.array_equal(counts, r.positive_counts):
            problems.append(f"{strategy}: positive_counts != bincount(gt_index)")
        if strategy != "maxiou" and np.any((r.thresholds < lo) | (r.thresholds > hi)):
            problems.append(f"{strategy}: adaptive threshold outside the clamp [{lo}, {hi}]")
    for (pred, gt_box), iou in zip(o.pairs, o.ious):
        if not 0.0 <= iou <= 1.0:
            problems.append(f"rotated_iou {iou!r} outside [0, 1]")
            break
        if ob.rotated_iou(gt_box, pred) != iou:
            problems.append("rotated_iou is not symmetric")
            break
    return problems


def check_unit(w: Workload, o: Outcome, reference: dict | None) -> list[str]:
    return invariants(w, o) + compare(summarize(o), reference)


# --------------------------------------------------------------------- CLI


@dataclass(frozen=True)
class CliCall:
    span: str
    argv: tuple[str, ...]
    out: Path | None  # directory the call writes, None for stdout-only calls

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _case_boxes(case: int) -> tuple[list[str], list[str]]:
    rng = np.random.default_rng(CLI_SEED_BASE + case)
    a = [rng.uniform(40, 200), rng.uniform(40, 200), rng.uniform(20, 80), rng.uniform(5, 20), rng.uniform(-0.7, 2.3)]
    b = [a[0] + rng.uniform(-8, 8), a[1] + rng.uniform(-8, 8), a[2] * 0.9, a[3] * 1.2, a[4] + 0.3]
    return [repr(float(v)) for v in a], [repr(float(v)) for v in b]


def write_cli_inputs(w: Workload, case: int) -> None:
    """The annotation file for ``assign-file`` and the feature file for
    ``cfs-demo`` of one CLI case."""
    rng = np.random.default_rng(CLI_SEED_BASE + case)
    values = " ".join(repr(float(v)) for v in rng.normal(size=32 * 32 * 4))
    w.out.mkdir(parents=True, exist_ok=True)
    for name, text in (
        (f"cli-scene-{case}.txt", "\n".join(w.texts[case]) + "\n"),
        (f"features-{case}.txt", f"32 32 4\n{values}\n"),
    ):
        # A fresh file, not a truncated one: ext4 flushes a file that is
        # truncated and rewritten when it is closed, which made repeated
        # set-ups twice as slow as the first.
        (w.out / name).unlink(missing_ok=True)
        (w.out / name).write_text(text, encoding="utf-8")


def cli_calls(w: Workload, case: int, everything: bool) -> list[CliCall]:
    """The workload's own CLI invocations; with ``everything``, one call of
    each remaining subcommand as well."""
    seed = str(CLI_SEED_BASE + case)
    out = w.out / "cli"
    box_a, box_b = _case_boxes(case)
    size = str(w.spec.image)

    def call(span, name, *argv):
        return CliCall(span, (*argv, "--out", str(out / name)), out / name)

    stats = [call("cli.stats", f"stats-{s}", "stats", "--strategy", s, "--seed", seed) for s in STRATEGIES]
    assign = call(
        "cli.assign_file", "assign", "assign-file", str(w.out / f"cli-scene-{case}.txt"),
        "--image-size", size, size, "--strategy", "mas",
    )
    head = [
        call("cli.loss_check", "loss-check", "loss-check", "--seed", seed),
        call("cli.thresholds", "thresholds", "thresholds", "--seed", seed),
        call(
            "cli.cfs_demo", "cfs-demo", "cfs-demo", "--features", str(w.out / f"features-{case}.txt"),
            "--box", *box_a, "--kernel", "random", "--seed", seed,
        ),
        CliCall("cli.iou", ("iou", *box_a, *box_b, "--oracle", str(ORACLE_SAMPLES), "--seed", seed), None),
    ]
    own = {"default": stats, "large": [assign], "head": head}[w.spec.name]
    if not everything:
        return own
    extra = [c for c in [stats[2], assign, *head] if all(o.span != c.span for o in own)]
    return own + extra


def run_cli(w: Workload, call: CliCall, tr) -> tuple[float, str, list[str]]:
    """Run one CLI call in-process; returns wall time, output digest and
    problems (non-zero exit, exception)."""
    if call.out is not None:
        # Stale files from an earlier call would enter the digest.
        shutil.rmtree(call.out, ignore_errors=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    problems = []
    code = None
    with redirect_stdout(stdout), redirect_stderr(stderr):
        t0 = time.perf_counter()
        try:
            with tr.span(call.span):
                code = w.cli.main(list(call.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:
            problems.append(traceback.format_exc())
        elapsed = time.perf_counter() - t0
    if code != 0 and not problems:
        problems.append(f"exit code {code}: {stderr.getvalue().strip()}")
    h = hashlib.sha256(f"{code}\n{stdout.getvalue()}".encode())
    if call.out is not None and call.out.is_dir():
        for path in sorted(call.out.iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return elapsed, h.hexdigest()[:16], problems


# ------------------------------------------------------------------ counts


def aabb(box) -> tuple[float, float, float, float]:
    c, s = math.cos(box.theta), math.sin(box.theta)
    ex = 0.5 * (box.w * abs(c) + box.h * abs(s))
    ey = 0.5 * (box.w * abs(s) + box.h * abs(c))
    return box.cx - ex, box.cy - ey, box.cx + ex, box.cy + ey


def overlap_window(grid, box) -> np.ndarray:
    """Indices of anchors whose bounds overlap the box's axis-aligned
    bounds, found per level from the lattice instead of a full scan."""
    x0, y0, x1, y1 = aabb(box)
    found = []
    for level, level_slice in zip(grid.levels, grid.level_slices):
        s, half = level.stride, 0.5 * level.anchor_size
        ix = np.arange(max(0, math.floor((x0 - half) / s) - 1), min(level.width, math.ceil((x1 + half) / s) + 1))
        iy = np.arange(max(0, math.floor((y0 - half) / s) - 1), min(level.height, math.ceil((y1 + half) / s) + 1))
        cx = (ix + 0.5) * s
        cy = (iy + 0.5) * s
        ix = ix[(cx - half < x1) & (cx + half > x0)]
        iy = iy[(cy - half < y1) & (cy + half > y0)]
        found.append((level_slice.start + iy[:, None] * level.width + ix[None, :]).ravel())
    return np.sort(np.concatenate(found))


def overlap_scan(grid, box) -> np.ndarray:
    """The same set as :func:`overlap_window`, by scanning every anchor."""
    x0, y0, x1, y1 = aabb(box)
    half = 0.5 * grid.sizes
    cx, cy = grid.centers[:, 0], grid.centers[:, 1]
    return np.nonzero((cx - half < x1) & (cx + half > x0) & (cy - half < y1) & (cy + half > y0))[0]


def adaptive_pairs(grid, k: int) -> int:
    """Candidates per gt of one adaptive strategy: k per level, or the whole
    level when it is smaller."""
    return sum(min(k, s.stop - s.start) for s in grid.level_slices)


def positive_area_overlap(grid, box, indices: np.ndarray) -> np.ndarray:
    """Separating-axis test: True where the anchor and the box share
    positive area, that is where clipping can yield a nonzero IoU."""
    half = 0.5 * grid.sizes[indices]
    dx = grid.centers[indices, 0] - box.cx
    dy = grid.centers[indices, 1] - box.cy
    x0, y0, x1, y1 = aabb(box)
    ex, ey = 0.5 * (x1 - x0), 0.5 * (y1 - y0)
    c, s = math.cos(box.theta), math.sin(box.theta)
    reach = half * (abs(c) + abs(s))
    return (
        (np.abs(dx) < half + ex)
        & (np.abs(dy) < half + ey)
        & (np.abs(dx * c + dy * s) < 0.5 * box.w + reach)
        & (np.abs(-dx * s + dy * c) < 0.5 * box.h + reach)
    )
