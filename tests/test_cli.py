import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obblab.assignment import ANGLE_DEPENDENT, CONSTANT_ONE, MasConfig, iou_statistics, saturating_exp, shape_exponent

from obblab import cli
from obblab.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    EXIT_SELFCHECK,
    MAX_ANCHORS,
    MAX_CHECK_POINTS,
    MAX_SURFACE_CELLS,
    MIN_CHECK_BETA,
    STRATEGIES,
    ConfigError,
    RunConfig,
    ThresholdsConfig,
    load_run_config,
    main,
    read_csv,
    threshold_surface,
)
from obblab.geometry import MAX_EXTENT
from obblab.scenes import MAX_BINS

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
            pytest.param({"thresholds": {"aspect_range": [5, 2]}}, [], id="reversed-aspect-range"),
            pytest.param({"thresholds": {"aspect_range": [math.nan, 12]}}, [], id="nan-aspect-range"),
            # below about 3.3e-5 the smooth-L1 check skips every draw and never ends
            pytest.param({"loss_check": {"beta": math.nextafter(MIN_CHECK_BETA, 0.0)}}, [], id="check-beta-below-bound"),
            pytest.param({"loss_check": {"beta": math.nextafter(MAX_EXTENT, math.inf)}}, [], id="check-beta-above-bound"),
            pytest.param({"loss_check": {"beta": math.nan}}, [], id="check-beta-nan"),
            pytest.param({"loss_check": {"tau": math.nan}}, [], id="check-tau-nan"),
            pytest.param({"loss_check": {"tau": math.inf}}, [], id="check-tau-inf"),
            pytest.param({"loss_check": {"focal_alpha": math.nan}}, [], id="check-focal-alpha-nan"),
            pytest.param({"loss_check": {"focal_gamma": -math.inf}}, [], id="check-focal-gamma-inf"),
        ],
    )
    def test_unknown_config_key_exits_2(self, tmp_path, payload, flags):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert run_cli(["stats", "--config", bad, "--out", tmp_path / "o", *flags]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "command, payload, message",
        [
            pytest.param(
                "thresholds", {"thresholds": {"gammas": ["a"]}},
                "thresholds.gammas must be a JSON number, got 'a'", id="gamma-item-not-a-number",
            ),
            pytest.param(
                "stats", {"anchors": {"strides": [16, 8]}},
                "anchors: strides must be positive and ascending", id="anchors-prefix",
            ),
        ],
    )
    def test_config_error_names_the_key(self, tmp_path, capsys, command, payload, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert run_cli([command, "--config", bad, "--out", tmp_path / "o"]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

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
            r"loss_check: iterations, tau and beta must be positive, and points in \[1, ", id="check-points",
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


def reference_threshold_surface(cfg: RunConfig, gamma: float):
    """The surface as one Python call per cell, as it stood before one
    vectorised threshold rule served the CLI: the oracle of
    ``threshold_surface``."""
    aspects = np.linspace(*cfg.thresholds.aspect_range, cfg.thresholds.aspect_count)
    angles = np.linspace(-math.pi / 4, 3.0 * math.pi / 4, cfg.thresholds.angle_count, endpoint=False)
    _, _, init = iou_statistics(cfg.thresholds.candidate_ious)
    exponents = np.empty((len(aspects), len(angles)))
    weights = np.empty_like(exponents)
    for i, aspect in enumerate(aspects.tolist()):
        for j, angle in enumerate(angles.tolist()):
            exponents[i, j] = e = shape_exponent(aspect, angle, gamma, cfg.mas.lambda_mode, cfg.mas.raw_lambda)
            weights[i, j] = saturating_exp(e)
    with np.errstate(over="ignore"):
        pre_clamp = np.multiply(weights, init) if init else np.zeros_like(weights)
    return aspects, angles, exponents, weights, pre_clamp, np.clip(pre_clamp, *cfg.mas.threshold_clamp)


@given(
    gamma=st.sampled_from([0.001, 0.01, 5.0]),
    lambda_mode=st.sampled_from([ANGLE_DEPENDENT, CONSTANT_ONE]),
    raw_lambda=st.booleans(),
    clamp=st.sampled_from([(0.05, 0.95), (0.0, 1.0)]),
    candidate_ious=st.one_of(
        st.lists(st.just(0.0), min_size=1, max_size=4),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=9),
        st.just([0.0, 1.0, 1.0, 1.0]),
    ),
    aspect_range=st.sampled_from([(1.0, 12.0), (1.0, 2.0), (1.5, 1e6)]),
    counts=st.tuples(st.integers(2, 30), st.integers(2, 40)),
)
@settings(max_examples=100, deadline=None)
def test_threshold_surface_matches_the_per_cell_reference(
    gamma, lambda_mode, raw_lambda, clamp, candidate_ious, aspect_range, counts
):
    cfg = RunConfig(
        mas=MasConfig(gamma=gamma, lambda_mode=lambda_mode, raw_lambda=raw_lambda, threshold_clamp=clamp),
        thresholds=ThresholdsConfig(
            aspect_count=counts[0], aspect_range=aspect_range, angle_count=counts[1],
            candidate_ious=tuple(candidate_ious),
        ),
    )
    got, want = threshold_surface(cfg, gamma), reference_threshold_surface(cfg, gamma)
    # aspects, angles, then exponents, weights, pre-clamp and clamped thresholds
    for name, a, b in zip(("aspects", "angles", "exponents", "weights", "pre_clamp", "clamped"), got, want):
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

    @pytest.mark.parametrize("stride", ["1e-320", "nan", "inf"])
    def test_stride_that_leaves_the_feature_cells_is_usage_error(self, tmp_path, capsys, feature_file, stride):
        path, _ = feature_file
        code = run_cli(["cfs-demo", "--features", path, "--out", tmp_path / "o", "--stride", stride,
                        "--box", "40", "40", "30", "20", "0.7"])
        assert code == EXIT_CONFIG
        assert "--stride must" in capsys.readouterr().err

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
