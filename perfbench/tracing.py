"""In-memory spans around the benchmark's own calls into obblab.

A span records its name, start, end, parent span and the scene (unit of
work) it belongs to. Spans stay in memory until the run ends; self time is a
span's duration minus the time its direct children cover. A disabled tracer
hands out one shared no-op context, so untraced loops pay one method call
and an empty ``with`` per call site.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import nullcontext
from statistics import median

_OFF = nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        # Each span: [name, start_ns, end_ns, parent index or -1, scene].
        self.spans: list[list] = []
        self.scene: str | None = None
        self._open: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _OFF

    def self_times(self) -> list[tuple[str, str | None, int]]:
        """(name, scene, self time in ns) for every recorded span."""
        covered = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [
            (name, scene, end - start - covered[i])
            for i, (name, start, end, _, scene) in enumerate(self.spans)
        ]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, scene in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "scene": scene}
                    )
                    + "\n"
                )


def scene_median(times, names: tuple[str, ...], scale: float) -> float | None:
    """Median over scenes of the summed self time of the named spans;
    ``times`` is :meth:`Tracer.self_times`."""
    per_scene: dict = defaultdict(int)
    for name, scene, ns in times:
        if name in names:
            per_scene[scene] += ns
    return median(per_scene.values()) * scale if per_scene else None


def call_median(times, name: str, scale: float) -> float | None:
    """Median self time of single calls of the named span."""
    values = [ns for n, _, ns in times if n == name]
    return median(values) * scale if values else None


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        parent = t._open[-1] if t._open else -1
        t.spans.append([self.name, time.perf_counter_ns(), 0, parent, t.scene])
        t._open.append(self.index)
        return self

    def __exit__(self, *exc) -> bool:
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter_ns()
        t._open.pop()
        return False
