import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from obblab.assignment import ANGLE_DEPENDENT, CONSTANT_ONE, MasConfig, iou_statistics

from obblab import assignment, cli
from obblab.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    EXIT_SELFCHECK,
    MAX_ANCHORS,
    MAX_CHECK_POINTS,
    MAX_OBJECTS,
    MAX_ORACLE_SAMPLES,
    MAX_SURFACE_CELLS,
    MIN_CHECK_BETA,
    STRATEGIES,
    ConfigError,
    RunConfig,
    ThresholdsConfig,
    build_parser,
    load_run_config,
    main,
    read_csv,
    threshold_surface,
)
from obblab.geometry import MAX_EXTENT
from obblab.scenes import MAX_BINS, from_dict, generate_scene

FIXTURE = Path(__file__).parent / "data" / "dota_sample.txt"


def run_cli(args):
    return main([str(a) for a in args])


def read_tree(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


@pytest.fixture
def small_scene_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "scene": {
                    "image_size": [256, 256],
                    "placement": "grid-sweep",
                    "aspect_bins": 4,
                    "angle_bins": 8,
                    "aspect_range": [1.0, 6.0],
                    "scale_range": [16.0, 48.0],
                },
                "anchors": {"strides": [8, 16, 32]},
                "stats": {"scenes": 2},
            }
        )
    )
    return path


class TestStatsCommand:
    def test_writes_tables_and_summary(self, tmp_path, small_scene_config, capsys):
        out = tmp_path / "out"
        code = run_cli(["stats", "--config", small_scene_config, "--out", out, "--seed", "5"])
        assert code == EXIT_OK
        schema, header, rows = read_csv(out / "stats_aspect.csv")
        assert schema == "obblab.stats.v1"
        assert header[0] == "bin_index"
        assert len(rows) == 4
        _, _, angle_rows = read_csv(out / "stats_angle.csv")
        assert len(angle_rows) == 8
        summary = json.loads((out / "stats.json").read_text())
        assert summary["schema_version"] == "1"
        assert summary["totals"]["gt_count"] == 2 * 4 * 8
        assert sum(summary["aspect"]["gt_count"]) == summary["totals"]["gt_count"]

    def test_byte_identical_reruns(self, tmp_path, small_scene_config):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli(["stats", "--config", small_scene_config, "--out", out, "--seed", "9"]) == EXIT_OK
        assert read_tree(out1) == read_tree(out2)

    @pytest.mark.parametrize(
        "payload, flags",
        [
            pytest.param({"scene": {"object_cnt": 5}}, [], id="unknown-scene-key"),
            pytest.param({"mas": {"unit_weight": True}}, [], id="mas-unit-weight"),
            pytest.param({"beta": {"history": 0.5}}, [], id="beta-history"),
            pytest.param({"mas": [["gamma", 3]]}, [], id="section-not-an-object"),
            pytest.param({"anchors": {"strides": [16, 8]}}, [], id="descending-strides"),
            pytest.param({"anchors": {"scale_multiplier": -1}}, [], id="negative-scale-multiplier"),
            pytest.param({"atss": {"k": 0}}, ["--strategy", "atss"], id="atss-k-zero"),
            pytest.param({"mas": {"threshold_clamp": [0.1, 0.5, 0.9]}}, [], id="threshold-clamp-not-a-pair"),
            pytest.param({"beta": {"clamp": 0.5}}, [], id="beta-clamp-not-a-pair"),
            pytest.param({"thresholds": {"aspect_range": [1.0]}}, [], id="aspect-range-not-a-pair"),
            pytest.param({"stats": {"scenes": 2.5}}, [], id="fractional-count"),
            pytest.param({"mas": {"use_center_prior": "yes"}}, [], id="string-for-bool"),
            pytest.param({"thresholds": {"gammas": [0]}}, [], id="zero-gamma"),
            pytest.param({"thresholds": {"gammas": []}}, [], id="empty-gammas"),
            # gammas that format alike under :g would write one file
            pytest.param({"thresholds": {"gammas": [5.0, 5.0000001]}}, [], id="gammas-sharing-a-file-name"),
            pytest.param({"thresholds": {"gammas": [5, 5.0]}}, [], id="int-and-float-gamma"),
            pytest.param({"thresholds": {"gammas": [2, 3, 2]}}, [], id="repeated-gamma"),
            pytest.param({"thresholds": {"aspect_range": [5, 2]}}, [], id="reversed-aspect-range"),
            pytest.param({"thresholds": {"aspect_range": [math.nan, 12]}}, [], id="nan-aspect-range"),
            # below 2**-508 the squares of the smooth-L1 check's draws leave the normal range
            pytest.param({"loss_check": {"beta": math.nextafter(MIN_CHECK_BETA, 0.0)}}, [], id="check-beta-below-bound"),
            pytest.param({"loss_check": {"beta": math.nextafter(MAX_EXTENT, math.inf)}}, [], id="check-beta-above-bound"),
            pytest.param({"loss_check": {"beta": math.nan}}, [], id="check-beta-nan"),
            pytest.param({"loss_check": {"tau": math.nan}}, [], id="check-tau-nan"),
            pytest.param({"loss_check": {"tau": math.inf}}, [], id="check-tau-inf"),
            pytest.param({"loss_check": {"focal_alpha": math.nan}}, [], id="check-focal-alpha-nan"),
            pytest.param({"loss_check": {"focal_gamma": -math.inf}}, [], id="check-focal-gamma-inf"),
            # outside the focal loss's domain they overflowed and wrote NaN
            pytest.param({"loss_check": {"focal_alpha": 1e308}}, [], id="check-focal-alpha-above-one"),
            pytest.param({"loss_check": {"focal_gamma": -500}}, [], id="check-focal-gamma-negative"),
            # every config number must be finite; these crashed, failed a
            # self-check or wrote nan thresholds
            pytest.param({"scene": {"aspect_range": [1, math.inf]}}, [], id="scene-aspect-range-inf"),
            pytest.param({"scene": {"scale_range": [24, math.inf]}}, [], id="scene-scale-range-inf"),
            pytest.param({"thresholds": {"aspect_range": [1, math.inf]}}, [], id="thresholds-aspect-range-inf"),
            pytest.param({"mas": {"gamma": math.inf}}, [], id="mas-gamma-inf"),
            pytest.param({"thresholds": {"gammas": [math.inf]}}, [], id="thresholds-gammas-inf"),
            pytest.param({"thresholds": {"candidate_ious": [math.nan]}}, [], id="candidate-ious-nan"),
            pytest.param({}, ["--gamma", "inf"], id="gamma-flag-inf"),
            pytest.param({}, ["--scenes", "0"], id="scenes-flag-zero"),
        ],
    )
    def test_unknown_config_key_exits_2(self, tmp_path, payload, flags):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert run_cli(["stats", "--config", bad, "--out", tmp_path / "o", *flags]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "argv, payload, message",
        [
            pytest.param(
                ["thresholds"], {"thresholds": {"gammas": ["a"]}},
                "thresholds.gammas must be a JSON number, got 'a'", id="gamma-item-not-a-number",
            ),
            pytest.param(
                ["stats"], {"anchors": {"strides": [16, 8]}},
                "anchors: strides must be positive and ascending", id="anchors-prefix",
            ),
            pytest.param(
                ["thresholds"], {"thresholds": {"candidate_ious": [0.5, math.nan]}},
                "thresholds.candidate_ious must be finite, got nan", id="nan-list-item",
            ),
            pytest.param(["thresholds", "--gamma", "inf"], {}, "mas.gamma must be finite, got inf", id="inf-flag"),
            pytest.param(
                ["thresholds"], {"thresholds": {"gammas": [5.0, 5.0000001]}},
                "thresholds: gammas 5.0 and 5.0000001 share the file name thresholds_gamma5.csv", id="gamma-file-name",
            ),
            pytest.param(
                ["loss-check", "--tau", "0"], {},
                "loss_check: iterations and points must lie in [1, ", id="flag-out-of-range",
            ),
            # a flag over a section that is not an object
            pytest.param(["thresholds", "--gamma", "3"], {"mas": 5}, "mas must be a JSON object", id="flag-over-number"),
            pytest.param(
                ["thresholds", "--gamma", "3"], {"thresholds": [4]}, "thresholds must be a JSON object",
                id="gamma-flag-over-list",
            ),
            # a check across sections names its keys in full
            pytest.param(
                ["stats"], {"scene": {"object_count": 1e9}},
                "config error: scene.object_count, or aspect_bins x angle_bins", id="cross-section-check",
            ),
        ],
    )
    def test_config_error_names_the_key(self, tmp_path, capsys, argv, payload, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert run_cli([*argv, "--config", bad, "--out", tmp_path / "o"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err
        assert "config: config:" not in err

    def test_invalid_strategy_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["stats", "--strategy", "bogus", "--out", tmp_path / "o"])
        assert excinfo.value.code == 2


def subcommand_argv(tmp_path, command):
    """A valid command line for each subcommand, up to its --config."""
    features = tmp_path / "features.txt"
    features.write_text("2 2 1\n0.0 1.0\n2.0 3.0\n")
    annotations = tmp_path / "annotations.txt"
    annotations.write_text("")
    return {
        "stats": ["stats", "--scenes", "1"],
        "thresholds": ["thresholds"],
        "loss-check": ["loss-check", "--iterations", "2"],
        "iou": ["iou", "0", "0", "1", "1", "0", "0", "0", "1", "1", "0"],
        "assign-file": ["assign-file", annotations],
        "cfs-demo": ["cfs-demo", "--features", features, "--box", "1", "1", "1", "1", "0"],
    }[command] + ["--out", tmp_path / "o"]


@pytest.mark.parametrize("command", ["stats", "thresholds", "loss-check", "iou", "assign-file", "cfs-demo"])
@pytest.mark.parametrize("config", [{}, None, {"bogus": 1}], ids=["valid", "missing", "unknown-key"])
def test_every_subcommand_reads_its_config(tmp_path, capsys, command, config):
    path = tmp_path / "config.json"
    if config is not None:
        path.write_text(json.dumps(config))
    code = run_cli([*subcommand_argv(tmp_path, command), "--config", path])
    if config == {}:
        assert code == EXIT_OK
    else:
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err


# A UTF-16 byte-order mark is not UTF-8, and 100,000 nested lists pass the
# recursion limit of the JSON reader.
UNREADABLE_JSON = {"not-utf-8": b"\xff\xfe{}", "nested-1e5-deep": b"[" * 100_000 + b"]" * 100_000}


@pytest.mark.parametrize("command", ["stats", "iou", "cfs-demo"])
@pytest.mark.parametrize("content", UNREADABLE_JSON.values(), ids=UNREADABLE_JSON.keys())
def test_unreadable_config_is_usage_error(tmp_path, capsys, command, content):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli([*subcommand_argv(tmp_path, command), "--config", path]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize(
    "multiplier, largest",
    [pytest.param(4.0, 2.0**506, id="side-bound"), pytest.param(0.25, 2.0**508, id="stride-bound")],
)
def test_largest_stride_runs_clean_and_the_next_is_rejected(tmp_path, capsys, multiplier, largest):
    # the bound keeps the squared stride and anchor side 2**8 below the
    # float range; 2**512 or more overflowed in the distances and areas
    def stats(stride, strategy):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps({"anchors": {"strides": [stride], "scale_multiplier": multiplier}, "stats": {"scenes": 1}})
        )
        return run_cli(["stats", "--config", path, "--strategy", strategy, "--out", tmp_path / "o"])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [stats(largest, strategy) for strategy in STRATEGIES] == [EXIT_OK] * 3
        assert stats(math.nextafter(largest, math.inf), "mas") == EXIT_CONFIG
    assert "anchors: the largest stride and its anchor side must not exceed 2**508" in capsys.readouterr().err


def test_aspect_range_near_the_float_maximum_bins_without_overflow(tmp_path):
    # grid-sweep objects sit at the bin centres, whose edge sum overflowed
    for scene in ({"aspect_range": [1, 1e308]}, {"aspect_range": [1, 1.7e308], "placement": "grid-sweep"}):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scene": scene, "stats": {"scenes": 1}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["stats", "--config", path, "--out", tmp_path / "o"]) == EXIT_OK
        _, _, rows = read_csv(tmp_path / "o" / "stats_aspect.csv")
        assert all(math.isfinite(float(row[3])) for row in rows)


@pytest.mark.parametrize("placement", ["uniform", "grid-sweep"])
def test_widest_angle_range_runs_clean_and_a_wider_one_is_rejected(tmp_path, capsys, placement):
    # -1e308 to 1e308 overflowed the range that the angles are drawn from
    def stats(bound):
        path = tmp_path / "config.json"
        scene = {"angle_range": [-bound, bound], "placement": placement, "aspect_bins": 2, "angle_bins": 4}
        path.write_text(json.dumps({"scene": scene, "stats": {"scenes": 1}}))
        return run_cli(["stats", "--config", path, "--out", tmp_path / "o"])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert stats(MAX_EXTENT) == EXIT_OK
        assert stats(math.nextafter(MAX_EXTENT, math.inf)) == EXIT_CONFIG
        assert stats(1e308) == EXIT_CONFIG
    assert "scene: angle_range endpoints must not exceed 2**508 in magnitude" in capsys.readouterr().err


@pytest.mark.parametrize(
    "accepted, rejected, message",
    [
        pytest.param(
            {"anchors": {"strides": [1]}, "scene": {"image_size": [MAX_ANCHORS, 1]}},
            {"anchors": {"strides": [1]}, "scene": {"image_size": [MAX_ANCHORS + 1, 1]}},
            f"scene.image_size and anchors.strides give more than {MAX_ANCHORS} anchors",
            id="anchors",
        ),
        pytest.param(
            {"scene": {"aspect_bins": MAX_BINS, "angle_bins": MAX_BINS}},
            {"scene": {"aspect_bins": MAX_BINS + 1}},
            "scene: bin counts must lie in",
            id="aspect-bins",
        ),
        pytest.param(
            {"scene": {"angle_bins": MAX_BINS}}, {"scene": {"angle_bins": MAX_BINS + 1}},
            "scene: bin counts must lie in", id="angle-bins",
        ),
        pytest.param(
            {"thresholds": {"aspect_count": MAX_SURFACE_CELLS // 2, "angle_count": 2}},
            {"thresholds": {"aspect_count": 2, "angle_count": MAX_SURFACE_CELLS // 2 + 1}},
            "thresholds: threshold grids need at least 2 points per axis and at most", id="surface-cells",
        ),
        pytest.param(
            {"loss_check": {"points": MAX_CHECK_POINTS}}, {"loss_check": {"points": MAX_CHECK_POINTS + 1}},
            r"loss_check: iterations and points must lie in \[1, ", id="check-points",
        ),
        pytest.param(
            {"loss_check": {"iterations": MAX_CHECK_POINTS}}, {"loss_check": {"iterations": MAX_CHECK_POINTS + 1}},
            r"loss_check: iterations and points must lie in \[1, ", id="check-iterations",
        ),
        pytest.param(
            {"scene": {"object_count": MAX_OBJECTS}}, {"scene": {"object_count": MAX_OBJECTS + 1}},
            "scene.object_count, or aspect_bins x angle_bins in a grid sweep, must not exceed", id="objects",
        ),
        pytest.param(
            {"scene": {"placement": "grid-sweep", "aspect_bins": MAX_OBJECTS // 10, "angle_bins": 10}},
            {"scene": {"placement": "grid-sweep", "aspect_bins": MAX_OBJECTS // 10, "angle_bins": 11}},
            "scene.object_count, or aspect_bins x angle_bins in a grid sweep, must not exceed", id="grid-sweep-objects",
        ),
    ],
)
def test_size_caps_hold_at_their_boundary(tmp_path, accepted, rejected, message):
    # loading a config allocates nothing of the size it asks for
    path = tmp_path / "config.json"
    path.write_text(json.dumps(accepted))
    load_run_config(path)
    path.write_text(json.dumps(rejected))
    with pytest.raises(ConfigError, match=message):
        load_run_config(path)


def test_a_20000_px_image_fits_the_anchor_cap(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scene": {"image_size": [20000, 20000]}}))
    cfg = load_run_config(path)
    assert 8_300_000 < sum(w * h for w, h in cfg.anchors.level_shapes(cfg.scene.image_size)) <= MAX_ANCHORS


@pytest.mark.parametrize(
    "command, config",
    [
        ("stats", {"scene": {"image_size": [1e12, 1e12]}}),
        ("stats", {"scene": {"aspect_bins": 1e9}}),
        ("thresholds", {"thresholds": {"aspect_count": 1e9}}),
        ("loss-check", {"loss_check": {"points": 1e9}}),
        ("stats", {"scene": {"object_count": 1e9}}),
        ("stats", {"scene": {"placement": "grid-sweep", "aspect_bins": MAX_BINS, "angle_bins": MAX_BINS}}),
        ("loss-check", {"loss_check": {"iterations": 1e9}}),
    ],
)
def test_sizes_that_cannot_be_allocated_exit_2_before_any_work(tmp_path, capsys, command, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run_cli([command, "--config", path, "--out", tmp_path / "o"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_image_size_flag_hits_the_anchor_cap(tmp_path, capsys):
    annotations = tmp_path / "annotations.txt"
    annotations.write_text("")
    size = str(10**12)
    assert run_cli(["assign-file", annotations, "--image-size", size, size, "--out", tmp_path / "o"]) == EXIT_CONFIG
    assert f"give more than {MAX_ANCHORS} anchors" in capsys.readouterr().err


def test_largest_annotation_coordinate_runs_clean_and_the_next_is_rejected(tmp_path, capsys):
    # a square and a diamond spanning [-bound, bound]; their cross products
    # and squared edges stay finite
    def assign(bound):
        b, n = repr(bound), repr(-MAX_EXTENT)
        path = tmp_path / "annotations.txt"
        path.write_text(f"{n} {n} {b} {n} {b} {b} {n} {b} plane 0\n{n} 0 0 {n} {b} 0 0 {b} ship 0\n")
        return run_cli(["assign-file", path, "--out", tmp_path / "o"])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert assign(MAX_EXTENT) == EXIT_OK
        assert assign(math.nextafter(MAX_EXTENT, math.inf)) == EXIT_DATA
        # overflowed in the quad's orientation test before it was rejected
        (tmp_path / "annotations.txt").write_text("1e160 0 2e160 0 2e160 1e160 1e160 1e160 plane 0\n")
        assert run_cli(["assign-file", tmp_path / "annotations.txt", "--out", tmp_path / "o"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "line 1: coordinate not finite or above 2**508 in magnitude" in err
    assert "line 2: coordinate not finite or above 2**508 in magnitude" in err
    assert err.count("line 1:") == 2


class TestThresholdsCommand:
    def test_surface_files_and_verification(self, tmp_path):
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"thresholds": {"gammas": [3, 4, 5, 6, 7], "aspect_count": 20, "angle_count": 16}}))
        assert run_cli(["thresholds", "--config", cfg, "--out", out]) == EXIT_OK
        files = sorted(p.name for p in out.iterdir())
        assert [f"thresholds_gamma{g}.csv" for g in (3, 4, 5, 6, 7)] == [n for n in files if n.endswith(".csv")]
        schema, header, rows = read_csv(out / "thresholds_gamma5.csv")
        assert schema == "obblab.thresholds.v1"
        assert header == ["aspect", "angle", "shape_weight", "pre_clamp_threshold", "clamped_threshold"]
        assert len(rows) == 20 * 16
        # reference row: aspect 1.5 at the maximal-mismatch angle has weight 1
        summary = json.loads((out / "thresholds.json").read_text())
        assert summary["monotonicity_violations"] == {}

    @pytest.mark.parametrize("aspect_range", [[1, 1], [1, 1.0000000000000002], [3, 3.000000000000001]])
    @pytest.mark.parametrize("gamma", ["0.3", "5", "100"])
    def test_aspect_range_of_one_or_two_floats_passes(self, tmp_path, aspect_range, gamma):
        # rounding merges the exponents of aspects an ulp apart
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"thresholds": {"aspect_range": aspect_range}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["thresholds", "--config", path, "--gamma", gamma, "--out", tmp_path / "t"]) == EXIT_OK

    def test_exponents_past_the_float_range_pass_without_a_warning(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"thresholds": {"aspect_range": [1, 1.7e308], "aspect_count": 3, "angle_count": 5}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["thresholds", "--config", path, "--gamma", "0.3", "--out", tmp_path / "t"]) == EXIT_OK

    def test_raw_lambda_fails_self_check(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["thresholds", "--raw-lambda", "--gamma", "5", "--out", out]) == EXIT_SELFCHECK
        summary = json.loads((out / "thresholds.json").read_text())
        assert summary["monotonicity_violations"]

    def test_reference_cancellation_row(self, tmp_path):
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"thresholds": {"aspect_count": 2, "aspect_range": [1.5, 2.0], "angle_count": 4, "gammas": [5.0]}})
        )
        assert run_cli(["thresholds", "--config", cfg, "--out", out]) == EXIT_OK
        _, _, rows = read_csv(out / "thresholds_gamma5.csv")
        by_key = {(r[0], r[1]): float(r[2]) for r in rows}
        # angle grid contains pi/4 (index 2 of 4 over [-pi/4, 3pi/4))
        angle = repr(math.pi / 4)
        assert by_key[("1.5", angle)] == 1.0

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli(["thresholds", "--gamma", "5", "--out", out, "--seed", "3"]) == EXIT_OK
        assert read_tree(out1) == read_tree(out2)

    @pytest.mark.parametrize(
        "payload, flags, gammas",
        [
            ({"mas": {"gamma": 3}}, [], [3.0]),
            ({"mas": {"gamma": 3}, "thresholds": {"gammas": [4, 6]}}, [], [4.0, 6.0]),
            ({"mas": {"gamma": 3}, "thresholds": {"gammas": [4, 6]}}, ["--gamma", "7"], [7.0]),
        ],
    )
    def test_gammas_follow_mas_gamma_unless_set(self, tmp_path, payload, flags, gammas):
        small_grid = {"aspect_count": 2, "angle_count": 2, **payload.get("thresholds", {})}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**payload, "thresholds": small_grid}))
        out = tmp_path / "out"
        assert run_cli(["thresholds", "--config", cfg, "--out", out, *flags]) == EXIT_OK
        assert json.loads((out / "thresholds.json").read_text())["gammas"] == gammas


def reference_shape_terms(aspect: float, theta: float, mas: MasConfig) -> tuple[float, float]:
    """The shape exponent and weight of one (aspect, angle) pair, word for
    word the scalar formula that stood before the threshold rule was
    written on arrays: the oracle of ``adaptive_thresholds``."""
    if mas.unit_weight:
        return 0.0, 1.0
    if mas.lambda_mode == CONSTANT_ONE:
        lam = 1.0
    else:
        if theta < math.pi / 4.0:
            lam = -0.5 - math.sin(-theta) ** 2
        else:
            lam = 0.5 + math.sin(theta - math.pi / 2.0) ** 2
        if not mas.raw_lambda:
            lam = abs(lam)
    exponent = (1.5 - aspect * lam) / mas.gamma
    try:
        return exponent, math.exp(exponent)
    except OverflowError:
        return exponent, math.inf


def reference_thresholds(aspects: np.ndarray, angles: np.ndarray, init: float, mas: MasConfig):
    """Exponents, weights, pre-clamp and clamped thresholds of each
    (aspect, angle) cell, one Python call per cell."""
    exponents, weights = np.empty(aspects.shape), np.empty(aspects.shape)
    for cell, aspect in np.ndenumerate(aspects):
        exponents[cell], weights[cell] = reference_shape_terms(float(aspect), float(angles[cell]), mas)
    with np.errstate(over="ignore"):
        pre_clamp = np.multiply(weights, init) if init else np.zeros_like(weights)
    return exponents, weights, pre_clamp, np.clip(pre_clamp, *mas.threshold_clamp)


def reference_threshold_surface(cfg: RunConfig, gamma: float):
    """The cells of the surface and their thresholds, one Python call per
    cell: the oracle of ``threshold_surface``."""
    aspects = np.linspace(*cfg.thresholds.aspect_range, cfg.thresholds.aspect_count)
    angles = np.linspace(-math.pi / 4, 3.0 * math.pi / 4, cfg.thresholds.angle_count, endpoint=False)
    cells = np.meshgrid(aspects, angles, indexing="ij")
    _, _, init = iou_statistics(cfg.thresholds.candidate_ious)
    return (*cells, *reference_thresholds(*cells, init, replace(cfg.mas, gamma=gamma)))


LAST_ANGLE = math.nextafter(3.0 * math.pi / 4, 0.0)


@given(
    gamma=st.one_of(
        st.sampled_from([5e-324, 1e-300, 0.001, 0.01, 5.0, 37.5, 1e300, math.inf]), st.floats(1e-300, 1e300)
    ),
    lambda_mode=st.sampled_from([ANGLE_DEPENDENT, CONSTANT_ONE]),
    raw_lambda=st.booleans(),
    unit_weight=st.booleans(),
    clamp=st.sampled_from([(0.05, 0.95), (0.0, 1.0)]),
    candidate_ious=st.one_of(
        st.lists(st.just(0.0), min_size=1, max_size=4),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=9),
        st.just([0.0, 1.0, 1.0, 1.0]),
    ),
    aspect_range=st.sampled_from([(1.0, 12.0), (1.0, 2.0), (1.5, 1e6), (1.0, 2.0**508)]),
    counts=st.tuples(st.integers(2, 30), st.integers(2, 40)),
    cells=st.lists(
        st.tuples(
            st.one_of(st.sampled_from([1.0, 1.5, 2.0**508]), st.floats(1.0, 2.0**508)),
            st.one_of(
                st.sampled_from([-math.pi / 4, 0.0, math.pi / 4, math.pi / 2, LAST_ANGLE]),
                st.floats(-math.pi / 4, LAST_ANGLE),
            ),
        ),
        min_size=1,
        max_size=50,
    ),
)
@example(  # 100,000 angles: ``x * x`` differs from ``x ** 2`` on about 1 in 1,000 squares
    gamma=5.0, lambda_mode=ANGLE_DEPENDENT, raw_lambda=False, unit_weight=False, clamp=(0.05, 0.95),
    candidate_ious=[0.3, 0.5, 0.7], aspect_range=(1.0, 12.0), counts=(2, 100_000), cells=[(1.5, math.pi / 4)],
)
@settings(max_examples=200, deadline=None)
def test_threshold_surface_matches_the_per_cell_reference(
    gamma, lambda_mode, raw_lambda, unit_weight, clamp, candidate_ious, aspect_range, counts, cells
):
    mas = MasConfig(
        gamma=gamma, lambda_mode=lambda_mode, raw_lambda=raw_lambda, unit_weight=unit_weight, threshold_clamp=clamp
    )
    cfg = RunConfig(
        mas=mas,
        thresholds=ThresholdsConfig(
            aspect_count=counts[0], aspect_range=aspect_range, angle_count=counts[1],
            candidate_ious=tuple(candidate_ious),
        ),
    )
    # the grid of the surface, then cells drawn anywhere in the domain
    _, _, init = iou_statistics(candidate_ious)
    aspects, angles = (np.array(column) for column in zip(*cells))
    for got, want in (
        (threshold_surface(cfg, gamma), reference_threshold_surface(cfg, gamma)),
        (assignment.adaptive_thresholds(aspects, angles, init, mas), reference_thresholds(aspects, angles, init, mas)),
    ):
        names = ("aspects", "angles", "exponents", "weights", "pre_clamp", "clamped")[-len(want) :]
        for name, a, b in zip(names, got, want, strict=True):
            assert a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64)), name


def test_documented_config_keys_load_as_defaults(tmp_path):
    # every key of the README configuration block, at its documented default
    documented = {
        "mas": {"gamma": 5.0, "lambda_mode": "angle-dependent", "candidate_k": 9,
                "threshold_clamp": [0.05, 0.95], "use_center_prior": True, "raw_lambda": False},
        "maxiou": {"pos_thr": 0.5, "neg_thr": 0.4},
        "atss": {"k": 9},
        "scene": {"image_size": [1024, 1024], "object_count": 20, "aspect_range": [1.0, 12.0],
                  "angle_range": [-0.7853981633974483, 2.356194490192345], "scale_range": [24.0, 96.0],
                  "seed": 0, "placement": "uniform", "aspect_bins": 12, "angle_bins": 16},
        "anchors": {"strides": [8, 16, 32, 64, 128], "scale_multiplier": 4.0},
        "stats": {"scenes": 5},
        "thresholds": {"aspect_count": 100, "aspect_range": [1.0, 12.0], "angle_count": 64,
                       "candidate_ious": [0.3, 0.5, 0.7], "gammas": [5.0]},
        "beta": {"beta_scale": 1.0, "momentum": 0.9, "clamp": [0.02, 1.0]},
        "loss_check": {"iterations": 200, "tau": 30.0, "points": 1000, "beta": 1.0,
                       "focal_alpha": 0.25, "focal_gamma": 2.0},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema_version": "1", **documented}))
    cfg = load_run_config(path)
    defaults = RunConfig()
    assert cfg == replace(defaults, thresholds=replace(defaults.thresholds, gammas=(5.0,)))
    assert cfg.gammas == defaults.gammas
    assert cfg.anchors.strides == (8.0, 16.0, 32.0, 64.0, 128.0)
    assert all(type(s) is float for s in cfg.anchors.strides)


def test_every_flag_dest_with_a_dot_is_a_config_key():
    # main lays such flags over the file's sections, so from_dict must
    # accept each one as a key of its section
    subcommands = next(a for a in build_parser()._actions if a.dest == "command").choices
    dests = {a.dest for p in subcommands.values() for a in p._actions if "." in a.dest}
    assert dests == {
        "mas.gamma", "mas.raw_lambda", "mas.lambda_mode", "stats.scenes", "scene.image_size",
        "loss_check.iterations", "loss_check.tau",
    }
    defaults = RunConfig()
    for dest in sorted(dests):
        section, key = dest.split(".")
        value = getattr(getattr(defaults, section), key)
        assert from_dict(RunConfig, {section: {key: value}}, "config") == defaults, dest


class TestSmallGamma:
    """Gammas so small that the shape weight's exp over- or underflows."""

    @pytest.mark.parametrize("gamma", ["0.001", "0.01"])
    def test_stats_and_thresholds_succeed(self, tmp_path, small_scene_config, capsys, gamma):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            stats = run_cli(["stats", "--config", small_scene_config, "--gamma", gamma, "--out", tmp_path / "s"])
            thresholds = run_cli(["thresholds", "--gamma", gamma, "--out", tmp_path / "t"])
        assert (stats, thresholds) == (EXIT_OK, EXIT_OK)
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert "Traceback" not in capsys.readouterr().err
        summary = json.loads((tmp_path / "t" / "thresholds.json").read_text())
        assert summary["monotonicity_violations"] == {}
        _, _, rows = read_csv(tmp_path / "t" / f"thresholds_gamma{float(gamma):g}.csv")
        weights = [float(r[2]) for r in rows]
        assert 0.0 in weights  # exp underflows at large aspects
        if gamma == "0.001":
            saturated = [float(r[4]) for r in rows if math.isinf(float(r[2]))]
            assert saturated and set(saturated) == {0.95}


    def test_threshold_past_the_float_range_saturates(self, tmp_path):
        # at aspect 1 and angle 0 the weight is about 1.7e308, finite, and
        # an initial threshold above 1 takes the product past the float range
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"thresholds": {"candidate_ious": [0, 1, 1, 1], "aspect_range": [1, 2]}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["thresholds", "--config", path, "--gamma", "0.001409", "--out", tmp_path / "t"]) == EXIT_OK
        _, _, rows = read_csv(tmp_path / "t" / "thresholds_gamma0.001409.csv")
        first = next(row for row in rows if float(row[0]) == 1.0 and float(row[1]) == 0.0)
        assert math.isfinite(float(first[2])) and float(first[3]) == math.inf and float(first[4]) == 0.95


class TestLossCheckCommand:
    def test_passes_and_writes_trajectory(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["loss-check", "--out", out, "--iterations", "50", "--seed", "11"]) == EXIT_OK
        report = json.loads((out / "gradient_check.json").read_text())
        assert report["passed"] is True
        assert report["smooth_l1"]["max_relative_error"] < 1e-5
        assert report["focal"]["max_relative_error"] < 1e-5
        schema, header, rows = read_csv(out / "beta_trajectory.csv")
        assert schema == "obblab.beta.v1"
        assert len(rows) == 50
        betas = [float(r[3]) for r in rows]
        assert all(a >= b - 1e-12 for a, b in zip(betas[10:], betas[11:]))

    def test_constant_schedule_hits_floor(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli([
            "loss-check", "--out", out, "--iterations", "300",
            "--schedule", "constant", "--constant-s", "1.0",
        ]) == EXIT_OK
        _, _, rows = read_csv(out / "beta_trajectory.csv")
        assert float(rows[-1][3]) == pytest.approx(0.02)

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli(["loss-check", "--out", out, "--seed", "21", "--iterations", "40"]) == EXIT_OK
        assert read_tree(out1) == read_tree(out2)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--tau", "0"],
            ["--iterations", "0"],
            ["--tau", "nan"],
            ["--schedule", "constant", "--constant-s", "nan"],
            ["--schedule", "constant", "--constant-s", "inf"],
        ],
    )
    def test_invalid_flag_exits_2(self, tmp_path, flags):
        assert run_cli(["loss-check", "--out", tmp_path / "o", *flags]) == EXIT_CONFIG
        assert not (tmp_path / "o").exists()

    def test_smallest_beta_keeps_draws(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"loss_check": {"beta": MIN_CHECK_BETA, "points": 50}}))
        assert run_cli(["loss-check", "--config", path, "--out", tmp_path / "o", "--iterations", "2"]) == EXIT_OK
        path.write_text(json.dumps({"loss_check": {"beta": MAX_EXTENT}}))
        assert load_run_config(path).loss_check.beta == MAX_EXTENT

    @pytest.mark.parametrize("beta", [MIN_CHECK_BETA, 1e-3, 1e5, 1e100, 2e152, MAX_EXTENT])
    def test_check_passes_over_the_whole_beta_range(self, tmp_path, beta):
        # a fixed difference step and knee band failed from beta = 1e5 up
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"loss_check": {"beta": beta, "points": 200}}))
        assert run_cli(["loss-check", "--config", path, "--out", tmp_path / "o", "--iterations", "2"]) == EXIT_OK
        report = json.loads((tmp_path / "o" / "gradient_check.json").read_text())
        assert report["smooth_l1"]["max_relative_error"] < 1e-7

    def test_nan_error_fails_the_self_check(self, tmp_path, capsys, monkeypatch):
        check = cli.gradient_check

        def nan_focal(*args):
            report = check(*args)
            report["focal"]["max_relative_error"] = math.nan
            return report

        monkeypatch.setattr(cli, "gradient_check", nan_focal)
        assert run_cli(["loss-check", "--out", tmp_path, "--iterations", "2"]) == EXIT_SELFCHECK
        assert "self-check failed for focal" in capsys.readouterr().err
        report = json.loads((tmp_path / "gradient_check.json").read_text())
        assert report["passed"] is False and report["offenders"] == ["focal"]


def reference_check_points(rng, points, beta):
    """The smooth-L1 check's points as drawn before they came in arrays,
    verbatim: one scalar draw at a time, in a rejection loop."""
    step = 1e-6 * beta
    xs = []
    while len(xs) < points:
        x = float(rng.uniform(-4.0 * beta, 4.0 * beta))
        if abs(abs(x) - beta) < 1e-4 * beta or abs(x) < step:
            continue
        xs.append(x)
    return np.array(xs)


@given(
    seed=st.integers(0, 2**64 - 1),
    points=st.integers(1, 2000),
    beta=st.one_of(st.sampled_from([MIN_CHECK_BETA, 1e-300, 1.0, 1e300, MAX_EXTENT]), st.floats(MIN_CHECK_BETA, MAX_EXTENT)),
)
@settings(max_examples=100, deadline=None)
@example(seed=79, points=20, beta=1.0)  # one draw of the first 21 is skipped
@example(seed=79, points=2000, beta=1.0)  # two of the first 2,002
def test_check_points_equal_the_scalar_rejection_loop(seed, points, beta):
    rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    xs, want = cli._smooth_l1_check_points(rng, points, beta), reference_check_points(want_rng, points, beta)
    assert np.array_equal(xs.view(np.int64), want.view(np.int64))
    assert rng.bit_generator.state == want_rng.bit_generator.state
    ps, want_ps = rng.uniform(0.001, 0.999, points), want_rng.uniform(0.001, 0.999, points)
    assert np.array_equal(ps.view(np.int64), want_ps.view(np.int64))


def test_check_points_with_a_skipped_draw():
    rng = np.random.default_rng(79)
    assert reference_check_points(rng, 20, 1.0).size == 20
    assert rng.bit_generator.state == np.random.default_rng(79).bit_generator.advance(21).state


# sha256 of beta_trajectory.csv and gradient_check.json, as written when the
# knee took one update_beta call per iteration and the smooth-L1 points were
# drawn one at a time
LOSS_CHECK_DIGESTS = {
    ("--seed", "0", "--iterations", "1"): (
        "e288081c74ec8da6810304273254ba8d3209f694ea30bf10319935ce9b9ae9fa",
        "d0b949ee3443e9f41a62e2c070139ff03c4b4d1d4f102cffd134cd4a88dc5f43",
    ),
    ("--seed", "1", "--iterations", "200"): (
        "74796cf44e941dd163b8d5a9a1f37b847e6a9e3ab36bb8afb199713e3216af0a",
        "202e4a473718a3fb53ae6ddfb2004b52fd6dc01ed92d4dcbdfb2c68ec7d003f3",
    ),
    ("--seed", "2", "--iterations", "5000"): (
        "445e960342415d9f9bc65e709ca7ede330a18107283e038ad74351266dc26ba7",
        "d0860d836f554998bc23827c718b5be4c1c4cee584bca4e36fda9892deae8119",
    ),
    ("--seed", "3", "--iterations", "200", "--tau", "2.5"): (
        "6d4121406bf85749f5b7a1f0358d4163b1ddca42f54c656604a710264262bc04",
        "af7057f22986477cc61339add640a7ac666c65cba46830da29cc55ca22510e21",
    ),
    ("--seed", "4", "--iterations", "5000", "--tau", "1e-3"): (
        "b7fc96d423612a8cf87937b94307c5b54bd6882c80a95caad1bf709b4a964378",
        "2a42c9458022f84eaf9117976c2cf0809151a18534fd9ce51f66050f012efd03",
    ),
    ("--seed", "5", "--schedule", "constant", "--iterations", "1"): (
        "d7c605cced90911772ee35154fec38937cbcc730ccb15ef77d6d7df24ec7c6c6",
        "bc5b62da17b8a10ece63a079bab31f7462c5556e03f0dbd4850e85e60eddc766",
    ),
    ("--seed", "6", "--schedule", "constant", "--iterations", "200", "--constant-s", "0.37"): (
        "0308438dfe3fbfb5289811cefdf118f3fc66c7fc895695a3cb503ffc4d92e79f",
        "ca999b31518c6f5b97920f3f883f3fd4a17f23af391aaad1f1e2e3f19daf2b30",
    ),
    ("--seed", "7", "--schedule", "constant", "--iterations", "5000", "--constant-s", "1e300"): (
        "7c12bb1b1d522731161d86d3c0fe4a555f64507bb59dc83b1e69d9f7341b25f2",
        "013b0cc438e13654b61d096dde01b7ccb8c4e3316f270e6e031029e1b18f137f",
    ),
    ("--seed", "8", "--schedule", "constant", "--iterations", "200", "--constant-s", "-2.0"): (
        "8824eb6ac35772f2c086e3fb02dd1f284e458cc2a6ddc3f4bbf68d550c6e0e22",
        "71970358434063c791830c45c0228fee2059c5989c6951a043aed7951894b92e",
    ),
}


@pytest.mark.parametrize("flags", LOSS_CHECK_DIGESTS)
def test_loss_check_writes_the_pinned_bytes(tmp_path, flags):
    assert run_cli(["loss-check", *flags, "--out", tmp_path]) == EXIT_OK
    names = ("beta_trajectory.csv", "gradient_check.json")
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in names)
    assert digests == LOSS_CHECK_DIGESTS[flags]


def test_main_keeps_one_parser_and_runs_a_patched_command(tmp_path, monkeypatch):
    assert build_parser() is not build_parser()
    argv = ["iou", "--out", tmp_path, "0", "0", "2", "1", "0", "0", "0", "2", "1", "0"]
    assert run_cli(argv) == EXIT_OK
    parser = cli._parser()
    calls = []
    monkeypatch.setattr(cli, "cmd_iou", lambda args, cfg: calls.append(args.box) or EXIT_SELFCHECK)
    assert run_cli(argv) == EXIT_SELFCHECK
    assert calls == [[0.0, 0.0, 2.0, 1.0, 0.0, 0.0, 0.0, 2.0, 1.0, 0.0]] and cli._parser() is parser


@pytest.mark.parametrize(
    "command", ["stats-maxiou", "stats-atss", "stats-mas", "thresholds", "loss-check", "iou", "assign-file", "cfs-demo"]
)
def test_no_subcommand_loads_numpy_ma(tmp_path, command):
    # numpy.ma costs about 10 ms and 1 MB of RSS at import; np.median and
    # np.unique load it
    lines = FIXTURE.read_text().splitlines()
    del lines[29]  # the malformed line
    (tmp_path / "scene.txt").write_text("\n".join(lines) + "\n")
    own = {
        "stats-maxiou": ["stats", "--strategy", "maxiou", "--scenes", "1"],  # reaches maxiou's fallback
        "stats-atss": ["stats", "--strategy", "atss", "--scenes", "1"],
        "stats-mas": ["stats", "--strategy", "mas", "--scenes", "1"],
        "assign-file": ["assign-file", tmp_path / "scene.txt"],
    }
    argv = [*own[command], "--out", tmp_path / "o"] if command in own else subcommand_argv(tmp_path, command)
    script = "import sys; from obblab.cli import main; code = main(sys.argv[1:]); print(code, 'numpy.ma' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", script, *map(str, argv)], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.splitlines()[-1] == "0 False"


class TestIouCommand:
    def test_identical_boxes(self, capsys, tmp_path):
        assert run_cli(["iou", "--out", tmp_path, "0", "0", "2", "1", "0", "0", "0", "2", "1", "0"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "1.000000"

    def test_rotated_square_pair(self, capsys, tmp_path):
        code = run_cli(["iou", "--out", tmp_path, "0", "0", "1", "1", "0", "0", "0", "1", "1", repr(math.pi / 4)])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "0.707107"

    def test_disjoint(self, capsys, tmp_path):
        assert run_cli(["iou", "--out", tmp_path, "0", "0", "2", "1", "0", "10", "10", "2", "1", "0"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "0.000000"

    def test_oracle_flag_prints_estimate(self, capsys, tmp_path):
        code = run_cli([
            "iou", "--out", tmp_path, "--oracle", "200000", "--seed", "5",
            "0", "0", "1", "1", "0", "0", "0", "1", "1", repr(math.pi / 4),
        ])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        estimate = float(lines[1].split(":")[1])
        assert estimate == pytest.approx(1 / math.sqrt(2), abs=0.01)

    def test_deterministic_oracle_output(self, capsys, tmp_path):
        args = ["iou", "--out", tmp_path, "--oracle", "50000", "--seed", "7",
                "0", "0", "3", "2", "0.3", "1", "1", "2", "2", "0.9"]
        assert run_cli(args) == EXIT_OK
        first = capsys.readouterr().out
        assert run_cli(args) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_box_past_the_extent_bound_is_usage_error(self, capsys, tmp_path):
        # at 1e160 the areas overflow and the IoU would print as 0
        big = ["0", "0", "1e160", "1e160", "0"]
        assert run_cli(["iou", *big, *big[:4], "0.3", "--out", tmp_path]) == EXIT_CONFIG
        assert "must not exceed 2**508" in capsys.readouterr().err
        bound = repr(MAX_EXTENT)
        assert run_cli(["iou", "0", "0", "2", "1", "0", bound, bound, bound, "1", "0", "--out", tmp_path]) == EXIT_OK
        assert run_cli(["iou", "0", "0", "2", "1", "0", "0", repr(2 * MAX_EXTENT), "2", "1", "0"]) == EXIT_CONFIG
        large = ["0", "0", "1e150", "1e150", "0", "0", "0", "1e150", "1e150", "0.3"]
        capsys.readouterr()
        assert run_cli(["iou", *large, "--out", tmp_path]) == EXIT_OK
        assert capsys.readouterr().out == "0.799452\n"

    @pytest.mark.parametrize("samples", [0, MAX_ORACLE_SAMPLES + 1, 100_000_000_000])
    def test_oracle_sample_count_outside_its_range_is_usage_error(self, capsys, tmp_path, samples):
        args = ["iou", "0", "0", "1", "1", "0", "0", "0", "1", "1", "0", "--oracle", samples, "--out", tmp_path]
        assert run_cli(args) == EXIT_CONFIG
        assert f"--oracle must lie in [1, {MAX_ORACLE_SAMPLES}]" in capsys.readouterr().err

    def test_wrong_arity_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["iou", "--out", tmp_path, "0", "0", "1", "1", "0"])
        assert excinfo.value.code == 2


class TestAssignFileCommand:
    def test_fixture_has_parse_error(self, tmp_path, capsys):
        assert run_cli(["assign-file", FIXTURE, "--out", tmp_path / "o"]) == EXIT_DATA
        assert "line 30" in capsys.readouterr().err

    def test_clean_file_report(self, tmp_path):
        clean = tmp_path / "clean.txt"
        lines = FIXTURE.read_text().splitlines()
        del lines[29]  # the malformed line
        clean.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        code = run_cli(["assign-file", clean, "--out", out, "--strategy", "mas", "--image-size", "1024", "1024"])
        assert code == EXIT_OK
        report = json.loads((out / "assign_report.json").read_text())
        assert report["gt_count"] == 46
        assert len(report["per_gt"]) == 46
        assert set(report["comparison"]) == {"maxiou", "atss", "mas"}
        assert all(entry["positives"] >= 1 for entry in report["per_gt"])

    def test_empty_file_ok(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        out = tmp_path / "out"
        assert run_cli(["assign-file", empty, "--out", out]) == EXIT_OK
        report = json.loads((out / "assign_report.json").read_text())
        assert report["gt_count"] == 0
        assert report["per_gt"] == []

    def test_missing_file_is_data_error(self, tmp_path):
        assert run_cli(["assign-file", tmp_path / "nope.txt", "--out", tmp_path / "o"]) == EXIT_DATA

    def test_byte_identical_reruns(self, tmp_path):
        clean = tmp_path / "clean.txt"
        lines = FIXTURE.read_text().splitlines()
        del lines[29]
        clean.write_text("\n".join(lines) + "\n")
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli(["assign-file", clean, "--out", out, "--image-size", "512", "512"]) == EXIT_OK
            outs.append(read_tree(out))
        assert outs[0] == outs[1]


# sha256 of assign_report.json for the clean fixture at 1024 x 1024, as
# written when ATSS and MAS each built their own candidate table
SEPARATE_TABLE_REPORTS = {
    ("atss", 9): "6fdff99dcdeb2a7ae8c5a16879d2e61eec7e780bcc319717675b720c21157aac",
    ("mas", 9): "cdc6803bb54ed3dca0f3ff9728dedb15f48f1807cf39ae8a03277cfc6b2422fb",
    ("atss", 5): "56f58d6d07e9350db8df290228cf05bf3af9506b9086324d6090c5d05b6fea5d",
    ("mas", 5): "ef2c539ef5a36fa478a089706f1eee8e94204f68cac15bf0deba2f88f78b7a6c",
}


@pytest.mark.parametrize("strategy, atss_k", SEPARATE_TABLE_REPORTS)
def test_assign_file_shares_one_candidate_table_between_atss_and_mas(tmp_path, monkeypatch, strategy, atss_k):
    # one nearest-anchor search when atss.k == mas.candidate_k (9), two
    # otherwise; the report is the same bytes either way
    lines = FIXTURE.read_text().splitlines()
    del lines[29]  # the malformed line
    (tmp_path / "scene.txt").write_text("\n".join(lines) + "\n")
    (tmp_path / "config.json").write_text(json.dumps({"atss": {"k": atss_k}}))
    monkeypatch.chdir(tmp_path)  # the report names the annotation path
    searches = []
    nearest = assignment._nearest_anchors
    monkeypatch.setattr(assignment, "_nearest_anchors", lambda *args: searches.append(args[3]) or nearest(*args))
    argv = ["assign-file", "scene.txt", "--config", "config.json", "--strategy", strategy, "--out", "out"]
    assert run_cli([*argv, "--image-size", "1024", "1024"]) == EXIT_OK
    assert searches == ([9] if atss_k == 9 else [atss_k, 9])  # ATSS, then MAS
    digest = hashlib.sha256((tmp_path / "out" / "assign_report.json").read_bytes()).hexdigest()
    assert digest == SEPARATE_TABLE_REPORTS[strategy, atss_k]


# Counter-clockwise, clockwise, shuffled (two), difficult, collinear,
# repeated-point and concave quads
MIXED_QUADS = (
    "100 100 200 100 200 150 100 150 plane 0\n"
    "300 360 420 360 420 300 300 300 ship 0\n"
    "500 500 580 540 580 500 500 540 small-vehicle 0\n"
    "700 650 640 700 760 700 700 750 large-vehicle 1\n"
    "10 10 20 20 30 30 40 40 harbor 0\n"
    "50 50 90 50 90 50 50 80 ship 0\n"
    "0 0 100 0 30 30 0 100 plane 0\n"
    "800 800 900.5 800.25 900 860 800 860.75 storage-tank 0\n"
)

# sha256 of assign_report.json for MIXED_QUADS, as written when quads that
# needed the re-sort went through ConvexQuad.from_points one at a time (the
# clean fixture's reports are pinned in SEPARATE_TABLE_REPORTS)
ASSIGN_FILE_REPORTS = {
    (): "2283f7bad6d34c0e8069d9d419d2318454e1118d6096337eeaef40a00ec41649",
    ("--include-difficult", "--strategy", "atss"): "2fc35eab3b5d7319cd91f530016734d8ad5a88cb3504f72446fdd0160c69a8b5",
}


@pytest.mark.parametrize("flags", ASSIGN_FILE_REPORTS)
def test_assign_file_writes_the_pinned_bytes(tmp_path, monkeypatch, capsys, flags):
    (tmp_path / "quads.txt").write_text(MIXED_QUADS)
    (tmp_path / "non-finite.txt").write_text(MIXED_QUADS + "0 0 4 0 nan 2 0 2 plane 0\n1 1 inf 1 2 2 1 2 ship 0\n")
    monkeypatch.chdir(tmp_path)  # the report names the annotation path
    assert run_cli(["assign-file", "quads.txt", *flags, "--out", "out"]) == EXIT_OK
    assert hashlib.sha256((tmp_path / "out" / "assign_report.json").read_bytes()).hexdigest() == ASSIGN_FILE_REPORTS[flags]
    # non-finite quads never reach records_to_gts: the parser rejects them
    assert run_cli(["assign-file", "non-finite.txt", *flags, "--out", "rejected"]) == EXIT_DATA
    assert capsys.readouterr().err == (
        "non-finite.txt: line 9: coordinate not finite or above 2**508 in magnitude\n"
        "non-finite.txt: line 10: coordinate not finite or above 2**508 in magnitude\n"
    )


class TestCfsDemoCommand:
    @pytest.fixture
    def feature_file(self, tmp_path):
        path = tmp_path / "features.txt"
        rng = np.random.default_rng(3)
        values = rng.normal(size=(12, 12, 1))
        with open(path, "w") as fh:
            fh.write("12 12 1\n")
            for row in values.reshape(12, -1):
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")
        return path, values

    def test_zero_offsets_refined_equals_initial(self, tmp_path, feature_file):
        path, _ = feature_file
        out = tmp_path / "out"
        code = run_cli([
            "cfs-demo", "--features", path, "--out", out,
            "--box", "48", "48", "40", "24", "0.3", "--stride", "8",
        ])
        assert code == EXIT_OK
        dump = json.loads((out / "cfs_demo.json").read_text())
        assert dump["initial_points"] == dump["refined_points"]
        assert len(dump["offset_field"]["offsets"]) == 9

    def test_delta_kernel_equals_center_sample(self, tmp_path, feature_file):
        path, _ = feature_file
        offsets = tmp_path / "offsets.json"
        offsets.write_text(json.dumps([[0.05, -0.02]] * 9))
        out = tmp_path / "out"
        code = run_cli([
            "cfs-demo", "--features", path, "--out", out, "--offsets", offsets,
            "--box", "48", "48", "40", "24", "0.3", "--stride", "8", "--kernel", "delta",
        ])
        assert code == EXIT_OK
        dump = json.loads((out / "cfs_demo.json").read_text())
        assert dump["deformable_output"] == pytest.approx(sum(dump["center_point_samples"]), rel=1e-12)

    def test_example_geometry_in_dump(self, tmp_path, feature_file):
        path, _ = feature_file
        out = tmp_path / "out"
        code = run_cli([
            "cfs-demo", "--features", path, "--out", out,
            "--box", "48", "48", "10", "4", "0", "--shrink", "0.3",
        ])
        assert code == EXIT_OK
        dump = json.loads((out / "cfs_demo.json").read_text())
        pts = np.array(dump["initial_points"]) - np.array([48.0, 48.0])
        expected = {(0, 0), (3.5, 1.4), (-3.5, 1.4), (-3.5, -1.4), (3.5, -1.4), (3.5, 0), (0, 1.4), (-3.5, 0), (0, -1.4)}
        got = {tuple(np.round(p, 9)) for p in pts}
        assert got == expected

    def test_dimension_mismatch_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("4 4 1\n1.0 2.0\n")
        assert run_cli([
            "cfs-demo", "--features", bad, "--out", tmp_path / "o",
            "--box", "8", "8", "4", "2", "0",
        ]) == EXIT_DATA

    def test_empty_grid_is_data_error(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("0 2 1\n")
        assert run_cli([
            "cfs-demo", "--features", empty, "--out", tmp_path / "o",
            "--box", "8", "8", "4", "2", "0",
        ]) == EXIT_DATA

    @pytest.mark.parametrize(
        "stride, box",
        [
            ("1e-320", ["40", "40", "30", "20", "0.7"]),
            ("nan", ["40", "40", "30", "20", "0.7"]),
            ("inf", ["40", "40", "30", "20", "0.7"]),
            # the centre fits, but the corner points overflowed in the offset field
            ("1e-300", ["1", "1", "1e10", "1", "0"]),
        ],
    )
    def test_stride_that_leaves_the_feature_cells_is_usage_error(self, tmp_path, capsys, feature_file, stride, box):
        path, _ = feature_file
        code = run_cli(["cfs-demo", "--features", path, "--out", tmp_path / "o", "--stride", stride, "--box", *box])
        assert code == EXIT_CONFIG
        assert "--stride must" in capsys.readouterr().err

    @pytest.mark.parametrize("far", [1e200, 1e308])
    def test_offsets_that_move_a_point_past_2_508_px_are_data_error(self, tmp_path, capsys, feature_file, far):
        path, _ = feature_file
        offsets = tmp_path / "offsets.json"
        offsets.write_text(json.dumps([[far, 0]] + [[0, 0]] * 8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli([
                "cfs-demo", "--features", path, "--out", tmp_path / "o", "--offsets", offsets,
                "--box", "8", "8", "4", "2", "0",
            ])
        assert code == EXIT_DATA
        assert "data error: offsets must be finite and move each point by at most 2**508 px" in capsys.readouterr().err

    def test_stride_that_pushes_refined_points_out_is_usage_error(self, tmp_path, capsys, feature_file):
        path, _ = feature_file
        offsets = tmp_path / "offsets.json"
        offsets.write_text(json.dumps([[1e100, 0]] + [[0, 0]] * 8))
        code = run_cli([
            "cfs-demo", "--features", path, "--out", tmp_path / "o", "--offsets", offsets,
            "--box", "8", "8", "4", "2", "0", "--stride", "1e-100",
        ])
        assert code == EXIT_CONFIG
        assert "--stride must" in capsys.readouterr().err

    @pytest.mark.parametrize("content", UNREADABLE_JSON.values(), ids=UNREADABLE_JSON.keys())
    def test_unreadable_offsets_are_data_error(self, tmp_path, capsys, feature_file, content):
        path, _ = feature_file
        offsets = tmp_path / "offsets.json"
        offsets.write_bytes(content)
        argv = ["cfs-demo", "--features", path, "--box", 6, 6, 4, 2, 0, "--out", tmp_path / "o", "--offsets", offsets]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(argv) == EXIT_DATA
        assert capsys.readouterr().err.startswith("data error: ")

    def test_byte_identical_reruns(self, tmp_path, feature_file):
        path, _ = feature_file
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = run_cli([
                "cfs-demo", "--features", path, "--out", out, "--kernel", "random", "--seed", "13",
                "--box", "40", "40", "30", "20", "0.7",
            ])
            assert code == EXIT_OK
            outs.append(read_tree(out))
        assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "command",
    [
        pytest.param(["iou", "0", "0", "-1", "1", "0", "0", "0", "1", "1", "0"], id="iou"),
        pytest.param(["cfs-demo", "--box", "1", "1", "0", "1", "0"], id="cfs-demo"),
    ],
)
def test_bad_command_line_box_is_usage_error(tmp_path, capsys, command):
    features = tmp_path / "features.txt"
    features.write_text("2 2 1\n0.0 1.0\n2.0 3.0\n")
    extra = ["--features", features] if command[0] == "cfs-demo" else []
    assert run_cli([*command, *extra, "--out", tmp_path / "o"]) == EXIT_CONFIG
    assert "box edges must be positive" in capsys.readouterr().err


def numeric_config_fields():
    """(section, key, default) of every numeric setting of the config file;
    a list setting counts when its items are numbers."""
    defaults = RunConfig()
    found = []
    for section in fields(RunConfig):
        value = getattr(defaults, section.name)
        for key in section.metadata.get("keys", [f.name for f in fields(value)]):
            default = getattr(value, key)
            if key == "gammas":
                default = defaults.gammas  # None, which follows mas.gamma
            item = default[0] if type(default) is tuple else default
            if type(item) in (int, float):
                found.append((section.name, key, default))
    return found


NUMERIC_FIELDS = numeric_config_fields()
EXTREMES = [math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, 0, -1]
# Small enough that every subcommand finishes in milliseconds; a drawn value
# replaces one of these. Large counts cost nothing: the caps reject them
# before any work, except stats.scenes, which is drawn small.
SMALL_CONFIG = {
    "scene": {"image_size": [64, 48], "object_count": 3, "scale_range": [8.0, 20.0], "aspect_bins": 2, "angle_bins": 3},
    "stats": {"scenes": 1},
    "thresholds": {"aspect_count": 3, "angle_count": 4},
    "loss_check": {"iterations": 3, "points": 16},
}


@given(
    argv=st.sampled_from(
        [["stats", "--strategy", s] for s in STRATEGIES] + [["thresholds"], ["loss-check"], ["assign-file"]]
    ),
    placement=st.sampled_from(["uniform", "grid-sweep"]),
    edits=st.lists(
        st.tuples(
            st.sampled_from(NUMERIC_FIELDS),
            st.integers(0, 1),
            st.one_of(st.sampled_from(EXTREMES), st.integers(-2, 6), st.floats(-2.0, 6.0)),
        ),
        max_size=3,
    ),
)
@settings(max_examples=150, deadline=None)
def test_any_numeric_config_value_gives_a_documented_exit(argv, placement, edits):
    config = json.loads(json.dumps(SMALL_CONFIG))
    config["scene"]["placement"] = placement
    for (section, key, default), index, value in edits:
        assume(not ((section, key) == ("stats", "scenes") and value > 2))  # unbounded: costs time only
        if type(default) is tuple:
            items = list(config.get(section, {}).get(key, default))
            items[min(index, len(items) - 1)] = value
            value = items
        config.setdefault(section, {})[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path, annotations = Path(tmp) / "config.json", Path(tmp) / "annotations.txt"
        path.write_text(json.dumps(config))
        annotations.write_text("10 10 30 10 30 20 10 20 plane 0\n40 5 44 9 36 17 32 13 ship 0\n")
        if argv == ["assign-file"]:
            argv = ["assign-file", annotations]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli([*argv, "--config", path, "--out", Path(tmp) / "o"])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_SELFCHECK)


OFFSET_VALUES = st.one_of(
    st.floats(-1.0, 1.0), st.sampled_from([math.nan, math.inf, 1e200, -1e200, 1e308, -1e308, 10**400]),
)
OFFSET_FILES = st.one_of(
    st.lists(st.tuples(OFFSET_VALUES, OFFSET_VALUES).map(list), min_size=9, max_size=9),
    st.lists(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2), min_size=0, max_size=12),  # wrong count
    st.lists(st.lists(st.floats(-1.0, 1.0), min_size=0, max_size=3), min_size=9, max_size=9),  # ragged
    st.sampled_from([{"dx": 0.1}, "offsets", None, 0.5, []]),
)


@st.composite
def feature_files(draw):
    """The text of a feature file: a valid grid, or one with a wrong value
    count, a non-finite or non-numeric value, or no cells."""
    width, height, channels = draw(st.integers(0, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 2))
    values = [repr(v) for v in draw(st.lists(st.floats(-5.0, 5.0), min_size=width * height * channels))]
    fault = draw(st.sampled_from([None, "count", "nan", "word"]))
    if fault == "count":
        values = values[:-1] if values else ["1.0"]
    elif fault and values:
        values[draw(st.integers(0, len(values) - 1))] = fault
    return f"{width} {height} {channels}\n" + " ".join(values) + "\n"


@given(
    offsets=st.one_of(st.none(), OFFSET_FILES),
    features=feature_files(),
    box=st.sampled_from([["8", "8", "4", "2", "0"], ["1", "2", "30", "10", "0.5"], ["-4", "3", "1e-3", "1e-3", "0"]]),
    stride=st.sampled_from(["8", "0.5", "1e-300"]),
)
@settings(max_examples=150, deadline=None)
def test_any_offsets_and_feature_file_give_a_documented_exit(offsets, features, box, stride):
    with tempfile.TemporaryDirectory() as tmp:
        feature_path, offsets_path = Path(tmp) / "features.txt", Path(tmp) / "offsets.json"
        feature_path.write_text(features)
        argv = ["cfs-demo", "--features", feature_path, "--box", *box, "--stride", stride, "--out", Path(tmp) / "o"]
        if offsets is not None:
            offsets_path.write_text(json.dumps(offsets))
            argv += ["--offsets", offsets_path]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(argv)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA)


VALID_FILES = {
    "config": json.dumps(SMALL_CONFIG, indent=1) + "\n",
    "annotations": "10 10 30 10 30 20 10 20 plane 0\n40 5 44 9 36 17 32 13 ship 0\n",
    "features": "2 2 1\n0.0 1.0\n2.0 3.0\n",
    "offsets": json.dumps([[0.0, 0.0]] * 9, indent=1) + "\n",
}
# Every file flag: (file kind, subcommand); a config file fails with exit 2
# and a data file with exit 3.
FILE_FLAGS = [("config", c) for c in ("stats", "thresholds", "loss-check", "iou", "assign-file", "cfs-demo")]
FILE_FLAGS += [("annotations", "assign-file"), ("features", "cfs-demo"), ("offsets", "cfs-demo")]


@st.composite
def file_contents(draw, kind):
    """The bytes of a file of ``kind`` and whether it is valid: random
    bytes, invalid UTF-8, a UTF-8 byte-order mark, CRLF line ends, empty,
    lists or objects nested up to 10^5 deep, or the words "directory" and
    "missing" for a directory and a missing path. Validity is None where
    the bytes are random."""
    valid = VALID_FILES[kind]
    form = draw(st.sampled_from(["random", "not-utf-8", "bom", "crlf", "empty", "nested", "directory", "missing"]))
    if form == "random":
        return draw(st.binary(max_size=64)), None
    if form == "not-utf-8":
        text = valid.encode()
        cut = draw(st.integers(0, len(text)))
        return text[:cut] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x80abc"])) + text[cut:], False
    if form == "bom":
        # Python's utf-8 codec keeps the mark as U+FEFF, which no reader accepts
        return b"\xef\xbb\xbf" + valid.encode(), False
    if form == "crlf":
        return valid.replace("\n", "\r\n").encode(), True
    if form == "empty":
        return b"", kind == "annotations"
    if form == "nested":
        depth = draw(st.one_of(st.integers(1, 2000), st.integers(2000, 100_000)))
        opener, closer = draw(st.sampled_from([("[", "]"), ('{"scene": ', "}"), ('{"a": ', "}")]))
        return (opener * depth + "0" + closer * depth).encode(), False
    return form, False


@given(flag=st.sampled_from(FILE_FLAGS), data=st.data())
@settings(max_examples=200, deadline=None)
def test_any_file_under_any_file_flag_gives_its_documented_exit(flag, data):
    kind, command = flag
    content, valid = data.draw(file_contents(kind))
    failure = EXIT_CONFIG if kind == "config" else EXIT_DATA
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        argv = subcommand_argv(tmp, command)  # writes annotations.txt and features.txt
        files = {name: tmp / f"{name}.txt" for name in VALID_FILES}
        files["config"].write_text(VALID_FILES["config"])
        files["offsets"].write_text(VALID_FILES["offsets"])
        if kind == "offsets":
            argv += ["--offsets", files["offsets"]]
        target = files[kind]
        if content == "directory":
            target.unlink()
            target.mkdir()
        elif content == "missing":
            target.unlink()
        else:
            target.write_bytes(content)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli([*argv, "--config", files["config"]])
    if valid is None:
        assert code in (EXIT_OK, failure)
    else:
        assert code == (EXIT_OK if valid else failure)


def reference_write_csv(path, schema, header, rows):
    """The row writer that ``cli._write_csv`` replaced, verbatim."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# schema: {schema}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


FLOATS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, -1e-310, 2.2250738585072014e-308]), st.floats())
CELLS = st.one_of(FLOATS, st.integers(-(2**70), 2**70), st.booleans())
# Cells whose texts differ though they are equal, equal nothing (NaN) or lie one ulp apart
FLOAT_TWINS = [(0.0, -0.0), (math.nan, -math.nan), (1.0, 1.0 + 2**-52)]
TWINS = [*FLOAT_TWINS, (1, 1.0, True), (0, 0.0, -0.0, False), (2**53, 2.0**53), (np.float64(-0.0), np.int64(1), 1.0, 0.0)]


@st.composite
def csv_columns(draw, rows):
    """One column of ``rows`` cells: a range; runs over a small palette of
    cells as a list, a tuple, a list of floats only, a float64 array or an
    object array; or an array cycling through more distinct floats
    (subnormals to 1e300) than a small cache holds."""
    kind = draw(st.sampled_from(["range", "list", "tuple", "floats", "array", "objects", "cycle"]))
    if kind == "range":
        return range(rows)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "cycle":
        period = draw(st.integers(1, 64))
        base = rng.standard_normal(period) * 10.0 ** rng.integers(-320, 300, period).astype(float)
        return base[np.arange(rows) % period]
    floats = kind in ("floats", "array")
    palette = [*draw(st.sampled_from(FLOAT_TWINS if floats else TWINS)), *draw(st.lists(FLOATS if floats else CELLS, max_size=6))]
    run = draw(st.one_of(st.integers(1, 40), st.integers(1, 4 * 1024)))  # rows per run of one palette cell
    values = [palette[i] for i in rng.integers(0, len(palette), rows)[np.arange(rows) // run * run]]
    if kind in ("array", "objects"):
        return np.array(values, dtype=float if kind == "array" else object)
    return tuple(values) if kind == "tuple" else values


@st.composite
def csv_tables(draw):
    """A writer's (block rows, cache limit), the real ones or small ones,
    and 1 to 5 columns of 0 to a little over 3 blocks of rows."""
    limits = draw(st.sampled_from([(cli._CSV_BLOCK_ROWS, cli._CSV_CACHE_LIMIT), (3, 5), (1, 1)]))
    block = limits[0]
    rows = draw(st.one_of(st.sampled_from([0, 1, block, block + 1]), st.integers(0, 3 * block + 2)))
    return limits, [draw(csv_columns(rows)) for _ in range(draw(st.integers(1, 5)))]


TRAPS = [1.0, 1, True, 0.0, -0.0, False, math.nan, 2.0**53, 2**53]
TRAP_FLOATS = [0.0, -0.0, 1.0, 1.0 + 2**-52, math.nan, -math.nan, -0.0, 0.0, 1.0]


@given(table=csv_tables())
@example(table=((cli._CSV_BLOCK_ROWS, cli._CSV_CACHE_LIMIT), [TRAPS, tuple(TRAPS), np.array(TRAPS, dtype=object), TRAP_FLOATS]))
@example(table=((1, 1), [TRAPS, np.array(TRAPS, dtype=object), TRAP_FLOATS, np.array(TRAP_FLOATS), range(9)]))
@settings(max_examples=150, deadline=None)
def test_csv_writer_writes_the_bytes_of_the_row_writer(table):
    (block, limit), columns = table
    header = [f"c{i}" for i in range(len(columns))]
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        with mock.patch.object(cli, "_CSV_BLOCK_ROWS", block), mock.patch.object(cli, "_CSV_CACHE_LIMIT", limit):
            cli._write_csv(got, "s.v1", header, columns)
        reference_write_csv(want, "s.v1", header, zip(*[c.tolist() if isinstance(c, np.ndarray) else c for c in columns]))
        assert got.read_bytes() == want.read_bytes()


def test_csv_writer_memory_does_not_grow_with_the_rows():
    peaks = {}
    for rows in (10**5, 10**6):
        rng = np.random.default_rng(rows)
        # runs of 16 equal floats: the cache fills and is emptied within 10^5 rows
        column = np.repeat(rng.standard_normal(rows // 16), 16)
        tracemalloc.start()
        try:
            cli._write_csv(os.devnull, "s.v1", ("a",), [column])
            peaks[rows] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[10**6] < 1.1 * peaks[10**5]
    assert max(peaks.values()) < 1e6  # 0.61 MB; the formatted column alone is 70 MB at 10^6 rows


# sha256 of stats_aspect.csv, stats_angle.csv and stats.json, as written when
# each scene was drawn with one rng.uniform call per value and assigned in a
# call of its own. The default bounds stack six default scenes: 13 scenes are
# three stacks, 300-object and 192-cell scenes are stacks of their own.
STATS_DIGESTS = {
    (("--strategy", "maxiou", "--seed", "0"), None): (
        "2419e5fc25263f0e1b4f5dfd9c99964cc0a22e777854f85e02411ab0faa7eeff",
        "6b6eecc80e85db4ffbd0f19f9f625ef510c5a4e99f19c5156aaf07545adbaa7a",
        "40fb75bd11857a247d55ca7ab1fd6dc778bdd9f7145301f84a0a7946c4ce9e7f",
    ),
    (("--strategy", "atss", "--seed", "0"), None): (
        "5fc3e2dbbe260286e4dfb84b7c8731ed96e0c0aa9ee743b20eada304bc608092",
        "33ee3535668c704faeb8520e97097f24b68dc067a4ff9390e20a31ea5f6fcc4d",
        "0fc8b7ad9e78bf3d53fda4a032aa4de0ad571188f39864225b435bf275b28ac9",
    ),
    (("--strategy", "mas", "--seed", "0"), None): (
        "ef35d5fa57983af7c834ce1860bd40482e7c32ad830caa9bf6d2cc3f2c5569b9",
        "3202b6d9cb7f9cffb7ca45b602999c4f3d3b22b62d9c7aecc1f1e3df4664ba00",
        "658c8bb1ff9c0b18971bb6331ed600035a61c9ae70742011fcdab10d65cb25a7",
    ),
    (("--strategy", "maxiou", "--seed", "501"), None): (
        "5f237b3ccc2c2a6138ffb52c07fd31de84b0795a05db5abaee669efc35a8796e",
        "fd69868911c9e6ea003be51aadfb1d2ecec80d88a662401302b2d389e67851ea",
        "b95bbafaae5df0914fc632cb5fb1264d8c405c24432587754deb14199b4919ea",
    ),
    (("--strategy", "atss", "--seed", "501"), None): (
        "ebd1f1c2bb3cc684e52a5ac8122593b0dc115cd7d0877c7fb03c39390f3a4015",
        "6b09eb10e39c0ed8375d80245372b027fe53ebf90306e298c79ee4706952439d",
        "85a62da00024934d73ce7192f28ab18b6003b1e1f9480789b37d6eec076887b0",
    ),
    (("--strategy", "mas", "--seed", "501"), None): (
        "79fe889c366662909c034578cd70db441c6ca43a56c18abcf5d5c0fac17e0626",
        "3e3cf6f4fd52ff8d7190002e4631267c250680a504161442ed5dab9cb2642fdb",
        "80499887bbad17065a8f648cdbd9d046f140303c247a0527233dbea12a4a51a1",
    ),
    (("--strategy", "maxiou", "--seed", "7", "--scenes", "1"), None): (
        "aec75f604c7aef4019d5e0424e1edbedfc3197f6f08b602dae7a8dbd287810f6",
        "37d04accf1cd15178357155a879ca83465dcbd13a012d4eb02a400d8f17b03d1",
        "1a5c92b7c68037f26938449309f9518087aaf468daf1361fa70e3aa2f1c2c6d6",
    ),
    (("--strategy", "mas", "--seed", "7", "--scenes", "1"), None): (
        "7cd87ae15dabf4410d27cff8d86fce53c8c32a910b57e4d0bec8c03dbc5def40",
        "f99de9d3b5a2d057341ca45cfbfcc377d0dac8f0c3575b627f429c065bb54ce4",
        "c795c911e3a1f61b9b613fcea4c1fa665cee93c7d0069854224559dea45480bd",
    ),
    (("--strategy", "maxiou", "--seed", "11", "--scenes", "13"), None): (
        "10000f0f69dc7c930ade4ad032f08ec2b47a1a4ae53c88b779fc068351cc22f4",
        "3b65e89656b07547bc70ce3557c34c4fad71ce92982eda209f536405dd527976",
        "26ade601bea213a0374ffbc24aca427fc0cd1755e92776b5e025fa14c0c78c49",
    ),
    (("--strategy", "mas", "--seed", "11", "--scenes", "13"), None): (
        "c9ef02778f24bf963558067463f0795cd268acc72a9dd5785b57336f392e5130",
        "9467e598babf61fa81c16baa77cc0628ac1eda2ef3d927217a93e9c4578c47f9",
        "62d7709f5dc71e80ed0e8313f99681d2f2729d061643836c30fa82bc511ed47f",
    ),
    (("--strategy", "maxiou", "--seed", "3", "--scenes", "3"), '{"scene": {"object_count": 300}, "maxiou": {"neg_thr": 0.0}}'): (
        "3e75a6c8b3ba14fe53dcbe8ff4077522f395c3a46befea9d6a28a941dbd5e05e",
        "5f92dc8d4e2f4b5d386c7f59af2c50ea1827becb4cb109ed044de4823ac319a0",
        "d151ccee162e14c07aa6d3f98a66989c031ab382810c6c52b80aad10a33df8f9",
    ),
    (("--strategy", "atss", "--seed", "3", "--scenes", "3"), '{"scene": {"object_count": 0}}'): (
        "1a71a8a840f4adaac9e07dbe3eb3871029682c4265bf4e1bea8d5f4fb48d5c5d",
        "704d3743e6ec758a4ad83cc9b5fc9c21a6c15a19d5e7127868c05ccd8c7fde0d",
        "90deb27e9668353ec47286b07ec55d9ea4aae5d5493bc1a73c15ba337c7c143c",
    ),
    (("--strategy", "mas", "--seed", "5", "--scenes", "2"), '{"scene": {"placement": "grid-sweep"}}'): (
        "ae153565597104fa74c73fdfd639a97768dd30e10b9a022293425220c73e2c29",
        "290b6a81cd8d858d8a4d092ada39a68ece70e4711b275a318e86c609c2cde0f5",
        "d6bf3235e6f3de120a3f11dc4bfe1866083183ead58457493e11f6ba50605dc5",
    ),
    (("--strategy", "atss", "--seed", "5", "--scenes", "3"), '{"scene": {"placement": "grid-sweep", "aspect_bins": 4, "angle_bins": 5}}'): (
        "836db766bf5bebe2f6981451a8b0934c8a81c8ef9c5aee50f7b765def0deb758",
        "c184d4bd376193a062c71dfc20c18c417b1777df0e7d578cb15782b8a58ee729",
        "bc3a7c6b081a89504c50f234f4b82d685d126379ac652e6798bf1f6f04bfca36",
    ),
    # linspace's last edge overflowed (a RuntimeWarning) before it was set to the maximum
    (("--strategy", "mas", "--seed", "5", "--scenes", "1"), '{"scene": {"placement": "grid-sweep", "aspect_range": [1.0, 1.7976931348623157e308], "aspect_bins": 3}}'): (
        "855d80141a7ae69c444ed98d9dfad02cb5b86017d05799a3846a631b7eb8b4f7",
        "cf92b6e0323ef1cb7294c34f23c25a51290bd41669729f43b4a713f00cc3b492",
        "70535fabcdcb3c59e6936061859afeb1affcd95a7d5178a3fd15a570a3a58ea5",
    ),
    (("--strategy", "mas", "--seed", "9", "--raw-lambda", "--gamma", "2"), None): (
        "6f30a288b5c46dd62e1baba96a71904da514ecc431c2b3e780afe4f9a46232e5",
        "1b9cc18089fae51644b1b0f3f9604a9da945600305fcbe48e6a6bbed348c1866",
        "92ce8ad2480279e3a4a6b83fa657dd6be21e5a18162116d2ab6eedb51460c012",
    ),
}


@pytest.mark.parametrize("flags, config", STATS_DIGESTS)
def test_stats_writes_the_pinned_bytes(tmp_path, flags, config):
    argv = ["stats", *flags, "--out", tmp_path / "out"]
    if config is not None:
        (tmp_path / "config.json").write_text(config)
        argv += ["--config", tmp_path / "config.json"]
    assert run_cli(argv) == EXIT_OK
    names = ("stats_aspect.csv", "stats_angle.csv", "stats.json")
    digests = tuple(hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() for name in names)
    assert digests == STATS_DIGESTS[flags, config]


def reference_assignment_stats(cfg, strategy, base_seed):
    """`run_assignment_stats` as it stood with one `_assign` call per scene."""
    grid = assignment.generate_anchors(cfg.scene.image_size, cfg.anchors.strides, cfg.anchors.scale_multiplier)
    config = cli._strategy_config(strategy, cfg)
    aspects, angles, positives = [], [], []
    for index in range(cfg.stats.scenes):
        scene = generate_scene(replace(cfg.scene, seed=base_seed + index))
        result = assignment._assign(grid, scene.gts, config)
        for g, gt in enumerate(scene.gts):
            aspects.append(gt.aspect)
            angles.append(gt.angle)
            positives.append(int(result.positive_counts[g]))
    return (
        cli._bin_stats(aspects, positives, *cfg.scene.aspect_range, cfg.scene.aspect_bins),
        cli._bin_stats(angles, positives, *cfg.scene.angle_range, cfg.scene.angle_bins),
        positives,
    )


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize(
    "slots, gts, stacks",
    [
        (None, None, [6, 6, 1]),  # the default bounds
        (3 * 21824, 10**9, [3, 3, 3, 3, 1]),
        (10**9, 50, [2] * 6 + [1]),
        (1, 10**9, [1] * 13),  # every scene over the slot bound
        (10**9, 10, [1] * 13),  # every scene over the gt bound
    ],
)
def test_stacks_of_scenes_give_the_stats_of_one_call_per_scene(monkeypatch, strategy, slots, gts, stacks):
    # 13 default scenes of 20 gts on the default 21,824-anchor grid
    cfg = replace(load_run_config(None), stats=cli.StatsConfig(13))
    if slots is not None:
        monkeypatch.setattr(cli, "_STACK_SLOTS", slots)
        monkeypatch.setattr(cli, "_STACK_GTS", gts)
    seen = []
    assign_all = cli._assign_all
    monkeypatch.setattr(cli, "_assign_all", lambda grid, scenes, cfgs: seen.append(len(scenes)) or assign_all(grid, scenes, cfgs))
    aspect_stats, angle_stats, totals = cli.run_assignment_stats(cfg, strategy, 11)
    assert seen == stacks
    want_aspect, want_angle, positives = reference_assignment_stats(cfg, strategy, 11)
    for got, want in ((aspect_stats, want_aspect), (angle_stats, want_angle)):
        for name in ("edges", "gt_count", "mean_positives", "zero_positive_gts"):
            assert np.array_equal(getattr(got, name).view(np.int64), getattr(want, name).view(np.int64)), name
    assert totals == {
        "gt_count": len(positives),
        "positives_total": sum(positives),
        "zero_positive_gts": positives.count(0),
    }


def test_stats_memory_does_not_grow_with_the_scene_count():
    # one stack holds at most six default scenes, so 8 scenes reach the peak
    # of a full stack; over 200 scenes only the three numbers kept per gt
    # (about 0.3 MB) and the spread of the scenes' table sizes add to it
    base = load_run_config(None)
    peaks = {}
    for scenes in (8, 200):
        tracemalloc.start()
        try:
            cli.run_assignment_stats(replace(base, stats=cli.StatsConfig(scenes)), "maxiou", 0)
            peaks[scenes] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[200] < 1.5 * peaks[8]  # 1.25 measured; 1.77 with twice the stack, 25 with one stack
