"""End-to-end acceptance checks.

One test per criterion, each asserting its stated tolerance and runtime
budget and printing a PASS line (run with ``pytest tests/test_acceptance.py
-v -s`` to see them).
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

from obblab.assignment import (
    CONSTANT_ONE,
    GroundTruth,
    MasConfig,
    adaptive_thresholds,
    assign_atss,
    assign_mas,
    generate_anchors,
    shape_weight,
)
from obblab.cli import gradient_check, load_run_config, main, run_assignment_stats, run_beta_trajectory
from obblab.geometry import mc_iou_oracle, normalize_obb, rotated_iou
from obblab.losses import BetaState
from obblab.sampling import (
    REGULAR_TAPS,
    DcnOffsetField,
    FeatureGrid,
    deformable_sample,
    initial_sampling_positions,
    refine_positions,
    shrink_obb,
)
from obblab.scenes import SceneSpec, generate_scene, parse_dota_file, records_to_gts

FIXTURE = Path(__file__).parent / "data" / "dota_sample.txt"

QP = math.pi / 4.0


def report(number, message):
    print(f"ACCEPTANCE {number} PASS: {message}")


@pytest.fixture(scope="module")
def pyramid_grid():
    return generate_anchors(1024, [8, 16, 32, 64, 128], 4)


def test_criterion_1_iou_oracle_agreement():
    start = time.time()
    analytic = rotated_iou(normalize_obb(0, 0, 1, 1, 0), normalize_obb(0, 0, 1, 1, QP))
    assert analytic == pytest.approx(0.70711, abs=1e-5)

    rng = np.random.default_rng(202401)
    worst = 0.0
    pairs = 10_000
    for _ in range(pairs):
        a = normalize_obb(
            rng.uniform(-3, 3), rng.uniform(-3, 3),
            rng.uniform(2, 20), rng.uniform(1, 12), rng.uniform(-math.pi, math.pi),
        )
        b = normalize_obb(
            rng.uniform(-3, 3), rng.uniform(-3, 3),
            rng.uniform(2, 20), rng.uniform(1, 12), rng.uniform(-math.pi, math.pi),
        )
        exact = rotated_iou(a, b)
        estimate = mc_iou_oracle(a, b, 100_000, int(rng.integers(1 << 31)))
        worst = max(worst, abs(exact - estimate))
        assert abs(exact - estimate) <= 0.01
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(1, f"{pairs} pairs, worst |exact - MC| = {worst:.5f} <= 0.01, 45-degree case exact, {elapsed:.1f}s")


def test_criterion_2_shape_weight_structure():
    start = time.time()
    aspects = np.linspace(1.0, 12.0, 100)
    angles = np.linspace(-QP, 3 * QP, 64, endpoint=False)
    weights = adaptive_thresholds(*np.meshgrid(aspects, angles, indexing="ij"), 0.0, MasConfig(gamma=5.0))[1]
    # the scalar form is the one-cell case, on a sample of cells
    rows, cols = np.random.default_rng(2).integers(0, (100, 64), (40, 2)).T
    sampled = [shape_weight(float(aspects[i]), float(angles[j]), 5.0) for i, j in zip(rows, cols)]
    assert np.array_equal(np.array(sampled).view(np.int64), weights[rows, cols].view(np.int64))
    # strictly decreasing in aspect within every angle column
    assert np.all(np.diff(weights, axis=0) < 0.0)
    # per-aspect maximum at the grid angle nearest an equilibrium
    dist = np.minimum(np.abs(angles), np.abs(angles - math.pi / 2))
    nearest = dist <= dist.min() + 1e-12
    for row in weights:
        assert row.max() == row[nearest].max()
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(2, f"100x64 grid: monotone in aspect, row maxima at equilibrium angles, {elapsed:.1f}s")


def test_criterion_3_reduction_equivalence(pyramid_grid):
    start = time.time()
    for index in range(100):
        spec = SceneSpec(object_count=8, seed=3000 + index, aspect_range=(1.0, 8.0))
        gts = list(generate_scene(spec).gts)
        forced = assign_mas(pyramid_grid, gts, MasConfig(unit_weight=True))
        baseline = assign_atss(pyramid_grid, gts, k=9)
        assert np.array_equal(forced.gt_index, baseline.gt_index)

        spec_ref = SceneSpec(object_count=8, seed=7000 + index, aspect_range=(1.5, 1.5))
        gts_ref = list(generate_scene(spec_ref).gts)
        mas_ref = assign_mas(pyramid_grid, gts_ref, MasConfig(lambda_mode=CONSTANT_ONE))
        atss_ref = assign_atss(pyramid_grid, gts_ref, k=9)
        assert np.array_equal(mas_ref.gt_index, atss_ref.gt_index)
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(3, f"label-for-label equality on 100 scenes (unit weight and constant-one at aspect 1.5), {elapsed:.1f}s")


def _config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return load_run_config(path)


def test_criterion_4_trend_reproduction(tmp_path):
    start = time.time()
    aspect_scene = {
        "placement": "grid-sweep",
        "aspect_range": [1.0, 12.0],
        "aspect_bins": 12,
        "angle_bins": 16,
        "scale_range": [24.0, 96.0],
    }
    # graded fixed-threshold run: one square anchor per location caps the
    # best achievable IoU at 1/(2 sqrt(aspect) - 1), so a 0.25 threshold is
    # what leaves a measurable gradation across the full aspect range
    graded = _config(tmp_path, "a.json", {
        "scene": aspect_scene, "stats": {"scenes": 5},
        "maxiou": {"pos_thr": 0.25, "neg_thr": 0.15},
    })
    aspect_stats, _, _ = run_assignment_stats(graded, "maxiou", base_seed=20)
    rho = spearmanr(np.arange(12), aspect_stats.mean_positives).statistic
    assert rho <= -0.9

    # classic thresholds starve elongated objects; the shape-aware strategy
    # must strictly dominate them on every high-aspect bin of the same scenes
    classic = _config(tmp_path, "b.json", {
        "scene": aspect_scene, "stats": {"scenes": 5},
        "maxiou": {"pos_thr": 0.5, "neg_thr": 0.4},
        "mas": {"gamma": 5.0},
    })
    maxiou_stats, _, maxiou_totals = run_assignment_stats(classic, "maxiou", base_seed=20)
    mas_stats, _, mas_totals = run_assignment_stats(classic, "mas", base_seed=20)
    assert mas_totals["zero_positive_gts"] <= maxiou_totals["zero_positive_gts"]
    centers = 0.5 * (mas_stats.edges[:-1] + mas_stats.edges[1:])
    high = centers >= 5.0
    assert high.any()
    assert np.all(mas_stats.mean_positives[high] > maxiou_stats.mean_positives[high])

    # angle sweep: near-square objects matched to one anchor size show the
    # periodic relationship at the classic threshold
    angle_cfg = _config(tmp_path, "c.json", {
        "scene": {
            "placement": "grid-sweep",
            "aspect_range": [1.05, 1.05],
            "aspect_bins": 1,
            "angle_bins": 16,
            "scale_range": [90.0, 90.0],
        },
        "stats": {"scenes": 48},
        "maxiou": {"pos_thr": 0.5, "neg_thr": 0.4},
    })
    _, angle_stats, _ = run_assignment_stats(angle_cfg, "maxiou", base_seed=20)
    means = angle_stats.mean_positives
    equilibrium_bins = [3, 4, 11, 12]   # touching 0 and pi/2
    extreme_bins = [0, 7, 8, 15]        # touching -pi/4, pi/4, 3pi/4
    assert int(np.argmax(means)) in equilibrium_bins
    assert int(np.argmin(means)) in extreme_bins
    assert means[equilibrium_bins].min() > means[extreme_bins].max()

    elapsed = time.time() - start
    assert elapsed < 300.0
    report(
        4,
        f"aspect Spearman rho = {rho:.3f} <= -0.9; zero-positive gts "
        f"{mas_totals['zero_positive_gts']} <= {maxiou_totals['zero_positive_gts']}; "
        f"high-aspect bins dominated; angle extrema at equilibria/mismatch angles, {elapsed:.0f}s",
    )


def test_criterion_5_gradient_checks():
    start = time.time()
    result = gradient_check(seed=12345, points=1000, beta=1.0, focal_alpha=0.25, focal_gamma=2.0)
    sl1 = result["smooth_l1"]["max_relative_error"]
    focal = result["focal"]["max_relative_error"]
    assert sl1 < 1e-5
    assert focal < 1e-5
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(5, f"max relative gradient error: smooth_l1 {sl1:.2e}, focal {focal:.2e} (< 1e-5), {elapsed:.1f}s")


def test_criterion_6_adaptive_beta_behavior():
    start = time.time()
    state = BetaState()
    rows, _ = run_beta_trajectory(state, iterations=300, tau=30.0, schedule="improving")
    betas = [row[3] for row in rows]
    assert all(a >= b for a, b in zip(betas[10:], betas[11:]))
    assert all(state.clamp[0] <= b <= state.clamp[1] for b in betas)

    rows_const, final = run_beta_trajectory(BetaState(), iterations=300, tau=30.0, schedule="constant", constant_s=1.0)
    assert final.beta_scale == BetaState().clamp[0]
    assert all(BetaState().clamp[0] <= row[3] <= BetaState().clamp[1] for row in rows_const)
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(6, f"beta non-increasing after warm-up, floor reached for s=1, clamp never violated, {elapsed:.1f}s")


def test_criterion_7_sampling_chain():
    start = time.time()
    rng = np.random.default_rng(77)

    # zero offsets reduce to plain convolution
    for _ in range(20):
        values = rng.normal(size=(10, 10, 2))
        grid = FeatureGrid(values)
        weights = rng.normal(size=(3, 3, 2))
        p0 = (int(rng.integers(2, 8)), int(rng.integers(2, 8)))
        field = DcnOffsetField(offsets=np.zeros((9, 2)), p0=p0, stride=1.0)
        got = deformable_sample(grid, weights, p0, field)
        want = sum(
            weights[ry + 1, rx + 1, c] * values[p0[1] + ry, p0[0] + rx, c]
            for rx, ry in REGULAR_TAPS
            for c in range(2)
        )
        assert abs(got - want) <= 1e-12

    # random offsets match the scalar brute-force oracle
    from tests.test_sampling import brute_force_deformable

    for _ in range(100):
        values = rng.normal(size=(8, 9, 3))
        grid = FeatureGrid(values)
        weights = rng.normal(size=(3, 3, 3))
        offsets = rng.uniform(-4, 4, size=(9, 2))
        p0 = (int(rng.integers(0, 9)), int(rng.integers(0, 8)))
        field = DcnOffsetField(offsets=offsets, p0=p0, stride=1.0)
        got = deformable_sample(grid, weights, p0, field)
        want = brute_force_deformable(values, weights, p0, offsets)
        assert abs(got - want) <= 1e-12

    # zero-offset refinement is exactly the identity
    for _ in range(50):
        box = normalize_obb(
            rng.uniform(-20, 20), rng.uniform(-20, 20),
            rng.uniform(2, 40), rng.uniform(1, 30), rng.uniform(-3, 3),
        )
        points = initial_sampling_positions(shrink_obb(box, 0.3))
        refined = refine_positions(points, box, np.zeros((9, 2)))
        assert np.array_equal(refined, points)

    elapsed = time.time() - start
    assert elapsed < 10.0
    report(7, f"zero-offset == convolution, brute-force agreement to 1e-12, refine(0) identity, {elapsed:.1f}s")


def test_criterion_8_annotation_ingestion():
    start = time.time()
    result = parse_dota_file(FIXTURE)
    assert len(result.records) == 47
    assert len(result.errors) == 1
    assert result.errors[0].line_number == 30
    gts, skipped = records_to_gts(result.records)
    assert skipped == 0
    assert len(gts) == 46  # one record is flagged difficult
    box = gts[0].box
    assert (box.cx, box.cy, box.w, box.h, box.theta) == (150.0, 125.0, 100.0, 50.0, 0.0)
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(8, f"fixture: 47 records, malformed line 30 reported, exact rectangle conversion, {elapsed:.2f}s")


def test_criterion_9_cli_determinism(tmp_path, capsys):
    start = time.time()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "scene": {"image_size": [256, 256], "placement": "grid-sweep",
                  "aspect_bins": 3, "angle_bins": 4, "aspect_range": [1.0, 4.0],
                  "scale_range": [16.0, 48.0]},
        "anchors": {"strides": [8, 16, 32]},
        "stats": {"scenes": 2},
        "thresholds": {"aspect_count": 10, "angle_count": 8},
        "loss_check": {"iterations": 30},
    }))
    clean = tmp_path / "clean.txt"
    lines = FIXTURE.read_text().splitlines()
    del lines[29]  # drop the deliberately malformed line
    clean.write_text("\n".join(lines) + "\n")
    features = tmp_path / "features.txt"
    rng = np.random.default_rng(5)
    with open(features, "w") as fh:
        fh.write("8 8 1\n")
        for value in rng.normal(size=64):
            fh.write(repr(float(value)) + "\n")

    invocations = {
        "stats": ["stats", "--config", config, "--seed", "17", "--strategy", "mas"],
        "thresholds": ["thresholds", "--config", config, "--seed", "17"],
        "loss-check": ["loss-check", "--config", config, "--seed", "17"],
        "iou": ["iou", "--seed", "17", "--oracle", "20000",
                "0", "0", "2", "1", "0.2", "0.5", "0.5", "2", "1.5", "0.9"],
        "assign-file": ["assign-file", clean, "--config", config, "--seed", "17"],
        "cfs-demo": ["cfs-demo", "--features", features, "--box", "32", "32", "20", "10", "0.4",
                     "--kernel", "random", "--seed", "17"],
    }
    for name, args in invocations.items():
        snapshots = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}-{run}"
            code = main([str(a) for a in args] + ["--out", str(out)])
            assert code == 0, name
            stdout = capsys.readouterr().out
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
            # emitted artifacts must match exactly; the status line echoes
            # the per-run output directory, so compare stdout only for the
            # file-less iou command
            snapshots.append((stdout if name == "iou" else None, files))
        assert snapshots[0] == snapshots[1], f"{name} output not byte-identical"
    elapsed = time.time() - start
    assert elapsed < 120.0
    report(9, f"all six subcommands byte-identical across reruns, {elapsed:.0f}s")
