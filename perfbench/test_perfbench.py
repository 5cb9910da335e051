"""Self-tests of the benchmark: counts repeat exactly for a seed, and the
IoU-pair counts agree with an independent recount.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads as wl
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent


def _traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"}


@pytest.mark.parametrize("workload", ["default", "head"])
def test_counts_repeat_for_a_seed(workload):
    first = _traced_counts(workload, 11)
    assert first == _traced_counts(workload, 11)
    assert len(first) == sum(1 for m in run.declared_units(1).values() if m == "count")


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_iou_pairs_match_a_full_scan(workload):
    ob, cli = run.load_obblab()
    spec = wl.WORKLOADS[workload]
    grid = ob.generate_anchors(spec.image, wl.STRIDES)
    gts, _ = ob.records_to_gts(ob.parse_dota_lines(wl.scene_text(ob, spec, 0)).records)
    adaptive = wl.adaptive_pairs(grid, wl.CANDIDATE_K)
    for gt in gts:
        assert np.array_equal(wl.overlap_window(grid, gt.box), wl.overlap_scan(grid, gt.box))
        assert len(ob.select_candidates(grid, gt, wl.CANDIDATE_K)) == adaptive


def test_overlap_window_handles_touching_edges():
    ob, _ = run.load_obblab()
    grid = ob.generate_anchors(256, wl.STRIDES)
    # Stride-8 anchors have edges at 4 (mod 8); boxes with edges there
    # exercise the strict comparisons.
    for box in (ob.normalize_obb(20, 20, 32, 16, 0.0), ob.normalize_obb(12, 12, 16, 16, 0.0)):
        assert np.array_equal(wl.overlap_window(grid, box), wl.overlap_scan(grid, box))


def test_reference_outcome_matches_and_mismatch_is_reported():
    ob, cli = run.load_obblab()
    spec = wl.WORKLOADS["default"]
    with open(run.REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)["units"]["default"]
    w = wl.prepare(ob, cli, spec, [5], 0, ROOT / ".perfbench_out" / "test", Tracer(False))
    outcome = wl.run_unit(w, 5, Tracer(False))
    assert wl.check_unit(w, outcome, reference["5"]) == []
    assert wl.check_unit(w, outcome, reference["6"])
    assert wl.check_unit(w, outcome, None) == ["no reference outcome recorded"]
