"""The benchmark's own in-memory span recorder.

Spans are recorded from the benchmark's files, around the calls into
each layer of the repo — never through ``repro.obs.spans`` — so the
measured program runs exactly as a user's would.  A span is a plain
dict ``{id, parent, run, name, start, end}``; times are
``time.perf_counter()`` readings (CLOCK_MONOTONIC, shared by parent and
children on Linux, so spans from several processes fit one timeline).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Recorder:
    """Collects spans in a list; nothing is written until :func:`dump`."""

    enabled = True

    def __init__(self, run: str = "") -> None:
        self.spans: list[dict] = []
        self.run = run
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, run: str | None = None):
        parent = self._stack[-1] if self._stack else None
        record = self.add(name, perf_counter(), None, parent=parent, run=run)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, parent=None, run=None) -> dict:
        """Record a span whose ends were clocked by the caller."""
        record = {
            "id": len(self.spans),
            "parent": parent,
            "run": self.run if run is None else run,
            "name": name,
            "start": start,
            "end": end,
        }
        self.spans.append(record)
        return record


class NullRecorder:
    """Same surface, records nothing (the untraced runs)."""

    enabled = False
    spans: list = []

    @contextmanager
    def span(self, name: str, run: str | None = None):
        yield None


def graft(target: list[dict], spans: list[dict], parent: int | None, run: str) -> None:
    """Append ``spans`` (ids local to their recorder) under ``parent``."""
    offset = len(target)
    for record in spans:
        record = dict(record)
        record["id"] += offset
        record["parent"] = (
            parent if record["parent"] is None else record["parent"] + offset
        )
        record["run"] = run
        target.append(record)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus the part its child spans cover.

    Children of one span are sequential in this benchmark, but the
    union is computed anyway so overlapping children are not counted
    twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for record in spans:
        if record["parent"] is not None:
            children.setdefault(record["parent"], []).append(
                (record["start"], record["end"])
            )
    out = {}
    for record in spans:
        start, end = record["start"], record["end"]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(record["id"], ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[record["id"]] = (end - start) - covered
    return out


def self_time_by_name(spans: list[dict]) -> dict[str, list[float]]:
    """Layer name -> self times of every span of that name, in order."""
    selfs = self_times(spans)
    out: dict[str, list[float]] = {}
    for record in spans:
        out.setdefault(record["name"], []).append(selfs[record["id"]])
    return out


def dump(path, spans: list[dict], **header) -> None:
    with open(path, "w") as fh:
        json.dump({**header, "spans": spans}, fh, indent=1)
        fh.write("\n")
