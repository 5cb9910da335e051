#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of obblab.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {default,large,head} --seed N \\
        --seconds S --trace {0,1}
    python3 perfbench/run.py --record     # rewrite perfbench/reference.json

One caller in one process drives the library in a closed loop, with no
threads: each unit of work starts when the previous one has finished, so
there are no queues and no wait times to report. ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` is a separate run that
records spans around every call into obblab and reports per-layer metrics.
Every unit and every CLI call is checked against invariants and against the
outcomes recorded in ``reference.json``; a mismatch or an exception counts
as a failed operation. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from statistics import median, quantiles

import numpy as np

import workloads as wl
from tracing import Tracer, call_median, scene_median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
OUT = Path(".perfbench_out")
OFF = Tracer(False)

# Per-layer timings: median over scenes of the summed self time of spans.
SCENE_MS = {
    "assignment.grid_ms": ("assignment.grid",),
    "assignment.maxiou_ms": ("assignment.maxiou",),
    "assignment.atss_ms": ("assignment.atss",),
    "assignment.mas_ms": ("assignment.mas",),
    "assignment.candidates_ms": ("assignment.candidates",),
    "scenes.parse_ms": ("scenes.parse",),
    "scenes.to_gts_ms": ("scenes.to_gts",),
    "losses.targets_ms": ("losses.targets",),
    "losses.loss_ms": ("losses.loss",),
    "losses.decode_ms": ("losses.decode",),
    "sampling.pattern_ms": ("sampling.pattern",),
    "sampling.deformable_ms": ("sampling.deformable",),
}
# Per-layer timings of single calls: (span, scale from ns).
CALLS = {
    "geometry.rotated_iou_us": ("geometry.rotated_iou", 1e-3),
    "geometry.oracle_ms": ("geometry.oracle", 1e-6),
    "assignment.threshold_us": ("assignment.threshold", 1e-3),
    "losses.beta_us": ("losses.beta", 1e-3),
    "cli.stats_s": ("cli.stats", 1e-9),
    "cli.assign_file_s": ("cli.assign_file", 1e-9),
    "cli.loss_check_s": ("cli.loss_check", 1e-9),
    "cli.cfs_demo_s": ("cli.cfs_demo", 1e-9),
    "cli.thresholds_s": ("cli.thresholds", 1e-9),
    "cli.iou_s": ("cli.iou", 1e-9),
}
# A sampled IoU must lie this close to the exact one (1e6 samples).
ORACLE_ATOL = 0.01


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked."""


def load_obblab():
    """Import obblab from the checkout's sources, afresh: a repeated set-up
    re-executes the package's module code."""
    src = ROOT / "src"
    if not (src / "obblab" / "__init__.py").is_file():
        raise SetupError(f"no obblab sources under {src}")
    for name in [m for m in sys.modules if m == "obblab" or m.startswith("obblab.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    ob = importlib.import_module("obblab")
    if Path(ob.__file__).resolve().parent != (src / "obblab").resolve():
        raise SetupError(f"imported obblab from {ob.__file__}, not from {src}")
    return ob, importlib.import_module("obblab.cli")


def source_digest() -> str:
    h = hashlib.sha256()
    package = ROOT / "src" / "obblab"
    for path in sorted(p for p in package.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(path.relative_to(package).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def metadata() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "source_sha256": source_digest(),
    }


class Ledger:
    """Counts operations and failures; every unit and CLI call is one
    operation, and so is the probe of one scene in a traced run."""

    def __init__(self, reference: dict, workload: str):
        self.units = reference["units"][workload]
        self.cli_digests = reference["cli"][workload]
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {what}: {' | '.join(problems)}", file=sys.stderr)
        return not problems

    def unit(self, w, scene_id: int, tr: Tracer):
        tr.scene = f"unit-{self.attempted}"
        t0 = time.perf_counter()
        try:
            outcome = wl.run_unit(w, scene_id, tr)
        except Exception:
            outcome = None
            problems = [traceback.format_exc()]
        elapsed = time.perf_counter() - t0
        tr.scene = None
        if outcome is not None:
            problems = wl.check_unit(w, outcome, self.units.get(str(scene_id)))
        ok = self.record(f"{w.spec.name} scene {scene_id}", problems)
        return elapsed, ok, outcome

    def cli(self, w, call: wl.CliCall, tr: Tracer) -> float:
        tr.scene = "cli"
        elapsed, digest, problems = wl.run_cli(w, call, tr)
        tr.scene = None
        expected = self.cli_digests.get(call.key)
        if not problems and digest != expected:
            problems = [f"output digest {digest}, reference {expected}"]
        self.record(f"obblab {call.key}", problems)
        return elapsed


def end_to_end(spec: wl.Spec, pool, case, seconds: float, ledger: Ledger, notes: list[str]) -> dict:
    setup_s = []
    for _ in range(wl.SETUP_REPEATS):
        w = None  # release the previous inputs before building the next
        t0 = time.perf_counter()
        ob, cli = load_obblab()
        w = wl.prepare(ob, cli, spec, pool, case, OUT / spec.name, OFF)
        setup_s.append(time.perf_counter() - t0)

    calls = wl.cli_calls(w, case, everything=False)
    latencies, rounds = [], []
    finished = 0
    busy = 0.0
    while not latencies or busy < seconds:
        # CLI rounds are spread over the run, so that a burst of load from
        # elsewhere on the machine reaches few of them.
        if len(rounds) < spec.cli_rounds and busy >= len(rounds) * seconds / spec.cli_rounds:
            rounds.append(sum(ledger.cli(w, call, OFF) for call in calls))
            continue
        elapsed, ok, _ = ledger.unit(w, w.pool[len(latencies) % len(w.pool)], OFF)
        latencies.append(elapsed)
        busy += elapsed
        finished += ok
    while len(rounds) < spec.cli_rounds:
        rounds.append(sum(ledger.cli(w, call, OFF) for call in calls))

    ms = [1e3 * t for t in latencies]
    tail = f", p90 {quantiles(ms, n=10)[-1]:.3f} ms" if len(ms) >= 100 else " (p90 needs >= 100 samples)"
    notes.append(f"scene latency: {len(ms)} samples, p50 {median(ms):.3f} ms{tail}")
    notes.append(f"set-up: {wl.SETUP_REPEATS} repeats; CLI: {spec.cli_rounds} round(s) of {len(calls)} call(s)")
    return {
        "scenes_per_s": finished / sum(latencies),
        "scene_ms.p50": median(ms),
        "cli_s": median(rounds),
        "setup_s": median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(spec: wl.Spec, pool, case, seconds: float, ledger: Ledger, notes: list[str]) -> dict:
    tr = Tracer(True)
    tr.scene = "setup"
    ob, cli = load_obblab()
    w = wl.prepare(ob, cli, spec, pool, case, OUT / spec.name, tr)
    tr.scene = None

    # Alternate untraced and traced passes over the pool; counts come from
    # the first traced pass so that they repeat exactly for a seed.
    untraced = traced = 0.0
    first = None
    passes = 0
    start = time.perf_counter()
    while first is None or time.perf_counter() - start < seconds:
        untraced += sum(ledger.unit(w, sid, OFF)[0] for sid in w.pool)
        outcomes = []
        for sid in w.pool:
            elapsed, _, outcome = ledger.unit(w, sid, tr)
            traced += elapsed
            outcomes.append(outcome)
        first = first or outcomes
        passes += 1

    counts = probe(w, [o for o in first if o is not None], ledger, tr)
    for call in wl.cli_calls(w, case, everything=True):
        ledger.cli(w, call, tr)
    tr.write(OUT / spec.name / "trace.jsonl")

    times = tr.self_times()
    metrics = {name: scene_median(times, spans, 1e-6) for name, spans in SCENE_MS.items()}
    metrics.update({name: call_median(times, span, scale) for name, (span, scale) in CALLS.items()})
    missing = sorted(name for name, value in metrics.items() if value is None)
    ledger.record("per-layer coverage", [f"no spans for {', '.join(missing)}"] if missing else [])
    metrics = {name: value or 0.0 for name, value in metrics.items()}
    pairs = counts.pop("geometry.pairs_evaluated", 0)
    metrics["geometry.iou_nonzero_frac"] = counts.pop("geometry.pairs_nonzero", 0) / max(pairs, 1)
    metrics.update(counts)
    metrics["bench.trace_overhead_frac"] = traced / untraced - 1.0
    notes.append(f"traced run: {passes} untraced + {passes} traced pass(es) over {len(w.pool)} "
                 f"scenes, {len(tr.spans)} spans; counts from the first traced pass")
    return metrics


def probe(w, outcomes: list, ledger: Ledger, tr: Tracer) -> Counter:
    """Counts over one pass, made from outside the library, and the probes
    of candidate selection, thresholding and the Monte-Carlo oracle. For
    ``head`` the maxiou and ATSS baselines also run here, since its units
    assign nothing."""
    ob, grid = w.ob, w.grid
    cfg = ob.MasConfig()
    lo, hi = cfg.threshold_clamp
    adaptive = wl.adaptive_pairs(grid, wl.CANDIDATE_K)
    counts = Counter()
    for o in outcomes:
        tr.scene = f"probe-{o.scene_id}"
        problems = []
        results = dict(o.results)
        if "maxiou" not in results:
            with tr.span("assignment.maxiou"):
                results["maxiou"] = ob.assign_maxiou(grid, o.scene.gts)
            with tr.span("assignment.atss"):
                results["atss"] = ob.assign_atss(grid, o.scene.gts)
        for strategy in wl.STRATEGIES:
            r = results[strategy]
            counts[f"assignment.positives.{strategy}"] += r.num_positives
            counts[f"assignment.zero_positive_gts.{strategy}"] += int(np.count_nonzero(r.positive_counts == 0))
        counts["scenes.records"] += o.scene.records
        counts["scenes.skipped_degenerate"] += o.scene.skipped
        counts["losses.positives"] += len(o.ious)
        counts["losses.scored_anchors"] += 2 * int(np.count_nonzero(o.results["mas"].gt_index != -2))
        counts["sampling.bilinear_reads"] += len(o.samples) * int(np.count_nonzero(w.kernel))
        for gt in o.scene.gts:
            with tr.span("assignment.candidates"):
                candidates = ob.select_candidates(grid, gt, wl.CANDIDATE_K)
            window = wl.overlap_window(grid, gt.box)
            counts["geometry.iou_pairs.maxiou"] += len(window)
            # ATSS and MAS each evaluate every candidate.
            counts["geometry.iou_pairs.adaptive"] += 2 * adaptive
            counts["geometry.pairs_evaluated"] += len(window) + 2 * len(candidates)
            counts["geometry.pairs_nonzero"] += int(np.count_nonzero(wl.positive_area_overlap(grid, gt.box, window)))
            counts["geometry.pairs_nonzero"] += 2 * int(
                np.count_nonzero(wl.positive_area_overlap(grid, gt.box, candidates))
            )
            with tr.span("geometry.candidate_iou"):
                ious = [ob.rotated_iou(gt.box, grid.box(int(c))) for c in candidates]
            with tr.span("assignment.threshold"):
                threshold = ob.mas_threshold(gt, ious, cfg)
            if not lo <= threshold <= hi:
                problems.append(f"mas_threshold {threshold} outside [{lo}, {hi}]")
        for pred, gt_box in o.pairs[:3]:
            with tr.span("geometry.oracle"):
                estimate = ob.mc_iou_oracle(pred, gt_box, wl.ORACLE_SAMPLES, o.scene_id)
            exact = ob.rotated_iou(pred, gt_box)
            if abs(estimate - exact) > ORACLE_ATOL:
                problems.append(f"oracle {estimate} vs exact IoU {exact}")
        ledger.record(f"{w.spec.name} probe of scene {o.scene_id}", problems)
        tr.scene = None
    return counts


def record() -> None:
    """Recompute every reference outcome and CLI digest of every workload."""
    ob, cli = load_obblab()
    reference = {"meta": metadata(), "units": {}, "cli": {}}
    for spec in wl.WORKLOADS.values():
        universe = list(range(spec.universe))
        w = wl.prepare(ob, cli, spec, universe, 0, OUT / spec.name, OFF)
        units = {}
        for sid in universe:
            outcome = wl.run_unit(w, sid, OFF)
            for problem in wl.invariants(w, outcome):
                print(f"warning: {spec.name} scene {sid}: {problem}", file=sys.stderr)
            units[str(sid)] = wl.summarize(outcome)
        digests = {}
        for case in range(wl.CLI_CASES):
            wl.write_cli_inputs(w, case)
            for call in wl.cli_calls(w, case, everything=True):
                _, digest, problems = wl.run_cli(w, call, OFF)
                for problem in problems:
                    print(f"warning: obblab {call.key}: {problem}", file=sys.stderr)
                digests[call.key] = digest
        reference["units"][spec.name] = units
        reference["cli"][spec.name] = digests
        print(f"recorded {len(units)} scenes and {len(digests)} CLI calls for {spec.name}")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS), default="default")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite the reference outcomes")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    try:
        load_obblab()
        if args.record:
            record()
            return 0
        if not REFERENCE.is_file():
            raise SetupError(f"missing {REFERENCE}; run with --record at a known-good commit")
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
        units = declared_units(args.trace)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    spec = wl.WORKLOADS[args.workload]
    pool, case = wl.pool_and_case(spec, args.seed)
    shutil.rmtree(OUT / spec.name, ignore_errors=True)
    ledger = Ledger(reference, spec.name)
    meta = metadata()
    notes = [
        f"workload {spec.name}: {spec.image}x{spec.image} image, {spec.objects} objects, "
        f"{spec.unit} units, pool {pool}, CLI case {case}, seed {args.seed}",
        "metadata: " + ", ".join(f"{k} {v}" for k, v in meta.items())
        + (" (matches the reference)" if meta["source_sha256"] == reference["meta"]["source_sha256"]
           else " (differs from the reference recording)"),
        "closed loop, one caller, no threads: no queues, so no wait times are reported",
    ]
    run = per_layer if args.trace else end_to_end
    metrics = run(spec, pool, case, args.seconds, ledger, notes)
    notes.append(f"operations: {ledger.attempted} attempted, {ledger.failed} failed, "
                 f"fail_frac {ledger.failed / ledger.attempted:.6f}")
    if set(metrics) != set(units):
        ledger.record("metric set", [f"measured {sorted(metrics)}, declared {sorted(units)}"])
    for line in notes:
        print(line)
    for name, value in metrics.items():
        print(f"{name:40s} {value!r:>24} {units.get(name, '?')}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "?")} for name, value in metrics.items()},
    }))
    return 0


def declared_units(trace: int) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares for the mode."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"missing {path}")
    with open(path, encoding="utf-8") as fh:
        declared = json.load(fh)
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
