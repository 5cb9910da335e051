import json
import math
from pathlib import Path

import numpy as np
import pytest

from obblab.geometry import MAX_EXTENT, obb_to_polygon
from obblab.scenes import (
    AnnotationRecord,
    DotaParseError,
    SceneGenerationError,
    SceneSpec,
    dota_category_table,
    generate_scene,
    parse_dota_file,
    parse_dota_line,
    parse_dota_lines,
    records_to_gts,
    save_scene,
    scene_spec_from_dict,
    scene_to_dota_lines,
)

FIXTURE = Path(__file__).parent / "data" / "dota_sample.txt"

QP = math.pi / 4.0


class TestGenerateScene:
    def test_deterministic_for_fixed_spec(self):
        spec = SceneSpec(object_count=12, seed=42)
        assert generate_scene(spec) == generate_scene(spec)

    def test_different_seeds_differ(self):
        a = generate_scene(SceneSpec(object_count=10, seed=1))
        b = generate_scene(SceneSpec(object_count=10, seed=2))
        centers_a = {(g.box.cx, g.box.cy) for g in a.gts}
        centers_b = {(g.box.cx, g.box.cy) for g in b.gts}
        assert centers_a != centers_b

    def test_aspect_range_one_gives_squares(self):
        scene = generate_scene(SceneSpec(aspect_range=(1.0, 1.0), object_count=8, seed=3))
        assert all(abs(g.aspect - 1.0) < 1e-9 for g in scene.gts)

    def test_grid_sweep_one_object_per_cell(self):
        spec = SceneSpec(placement="grid-sweep", aspect_bins=10, angle_bins=16, seed=4)
        scene = generate_scene(spec)
        assert len(scene.gts) == 160

    def test_marginals_within_spec_ranges(self):
        spec = SceneSpec(
            object_count=60,
            aspect_range=(1.5, 6.0),
            angle_range=(-QP, QP),
            scale_range=(30.0, 50.0),
            seed=5,
        )
        scene = generate_scene(spec)
        for gt in scene.gts:
            assert 1.5 - 1e-9 <= gt.aspect <= 6.0 + 1e-9
            assert -QP <= gt.angle <= QP + 1e-9
            assert 30.0 - 1e-9 <= gt.box.w <= 50.0 + 1e-9

    def test_objects_fully_inside_image(self):
        spec = SceneSpec(object_count=40, scale_range=(50.0, 200.0), seed=6)
        scene = generate_scene(spec)
        width, height = spec.image_size
        for gt in scene.gts:
            corners = obb_to_polygon(gt.box).vertices
            assert np.all(corners[:, 0] >= -1e-6) and np.all(corners[:, 0] <= width + 1e-6)
            assert np.all(corners[:, 1] >= -1e-6) and np.all(corners[:, 1] <= height + 1e-6)

    def test_oversized_object_rejected(self):
        with pytest.raises(SceneGenerationError):
            generate_scene(SceneSpec(image_size=(64, 64), scale_range=(100.0, 200.0), object_count=1))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            generate_scene(SceneSpec(aspect_range=(0.5, 2.0)))
        with pytest.raises(ValueError):
            generate_scene(SceneSpec(placement="hexagonal"))


class TestParseDotaLine:
    def test_well_formed(self):
        record = parse_dota_line("100.0 100.0 200.0 100.0 200.0 150.0 100.0 150.0 plane 0")
        assert record == AnnotationRecord(
            quad=(100.0, 100.0, 200.0, 100.0, 200.0, 150.0, 100.0, 150.0),
            category="plane",
            difficult=0,
        )

    def test_metadata_lines_skipped(self):
        assert parse_dota_line("gsd:0.146343590398") is None
        assert parse_dota_line("imagesource:GoogleEarth") is None
        assert parse_dota_line("   ") is None

    def test_missing_difficult_defaults_zero(self):
        record = parse_dota_line("0 0 1 0 1 1 0 1 ship")
        assert record.difficult == 0

    def test_too_few_tokens(self):
        with pytest.raises(DotaParseError):
            parse_dota_line("1 2 3 plane")

    def test_non_numeric_coordinate(self):
        with pytest.raises(DotaParseError):
            parse_dota_line("a b c d e f g h plane 0")

    @pytest.mark.parametrize("value", [math.nextafter(MAX_EXTENT, math.inf), -1e160, math.inf, math.nan])
    def test_coordinate_beyond_the_bound(self, value):
        parse_dota_line(f"{MAX_EXTENT!r} 0 1 0 1 1 {-MAX_EXTENT!r} 1 plane")
        with pytest.raises(DotaParseError, match="coordinate not finite or above 2"):
            parse_dota_line(f"0 0 1 0 1 {value!r} 0 1 plane")

    def test_line_numbers_attached_by_file_parser(self):
        result = parse_dota_lines(["imagesource:x", "1 2 3 plane"])
        assert len(result.errors) == 1
        assert result.errors[0].line_number == 2


class TestFixtureFile:
    def test_expected_counts(self):
        result = parse_dota_file(FIXTURE)
        assert len(result.records) == 47
        assert len(result.errors) == 1
        assert result.errors[0].line_number == 30

    def test_difficult_filtering(self):
        result = parse_dota_file(FIXTURE)
        gts, skipped = records_to_gts(result.records)
        gts_all, _ = records_to_gts(result.records, include_difficult=True)
        assert skipped == 0
        assert len(gts) == 46
        assert len(gts_all) == 47

    def test_plane_rectangle_exact_box(self):
        result = parse_dota_file(FIXTURE)
        gts, _ = records_to_gts(result.records)
        box = gts[0].box
        assert (box.cx, box.cy, box.w, box.h, box.theta) == (150.0, 125.0, 100.0, 50.0, 0.0)
        assert gts[0].class_id == 0
        assert gts[0].aspect == 2.0


class TestRecordsToGts:
    def test_unknown_category_strict(self):
        record = AnnotationRecord(quad=(0, 0, 1, 0, 1, 1, 0, 1), category="zeppelin")
        with pytest.raises(ValueError, match="zeppelin"):
            records_to_gts([record])

    def test_unknown_category_extend(self):
        record = AnnotationRecord(quad=(0, 0, 10, 0, 10, 10, 0, 10), category="zeppelin")
        gts, _ = records_to_gts([record], unknown="extend")
        assert gts[0].class_id == 15  # appended after the 15 standard ids

    def test_degenerate_quads_counted_and_skipped(self):
        good = AnnotationRecord(quad=(0, 0, 10, 0, 10, 10, 0, 10), category="ship")
        bad = AnnotationRecord(quad=(0, 0, 1, 1, 2, 2, 3, 3), category="ship")
        gts, skipped = records_to_gts([good, bad])
        assert len(gts) == 1
        assert skipped == 1

    def test_category_table_has_15_entries(self):
        table = dota_category_table()
        assert len(table) == 15
        assert table["plane"] == 0
        assert table["helicopter"] == 14


class TestRoundTrip:
    def test_scene_to_dota_and_back(self, tmp_path):
        spec = SceneSpec(object_count=25, seed=9, aspect_range=(1.0, 6.0))
        scene = generate_scene(spec)
        lines = scene_to_dota_lines(scene)
        result = parse_dota_lines(lines)
        assert not result.errors
        gts, skipped = records_to_gts(result.records, include_difficult=True)
        assert skipped == 0
        assert len(gts) == len(scene.gts)
        for original, parsed in zip(scene.gts, gts):
            assert parsed.box.cx == pytest.approx(original.box.cx, abs=1e-6)
            assert parsed.box.cy == pytest.approx(original.box.cy, abs=1e-6)
            assert parsed.box.w == pytest.approx(original.box.w, abs=1e-6)
            assert parsed.box.h == pytest.approx(original.box.h, abs=1e-6)

    def test_save_scene_with_sidecar(self, tmp_path):
        spec = SceneSpec(object_count=5, seed=10)
        scene = generate_scene(spec)
        ann = tmp_path / "scene.txt"
        sidecar = tmp_path / "scene.json"
        save_scene(scene, ann, sidecar)
        reparsed = parse_dota_file(ann)
        assert len(reparsed.records) == 5
        restored = scene_spec_from_dict(json.loads(sidecar.read_text()))
        assert restored == spec

    def test_spec_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown scene keys"):
            scene_spec_from_dict({"object_count": 3, "flavor": "spicy"})
