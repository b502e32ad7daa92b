"""One counter surface for every backend: collect / merge / to_json.

The repo accumulated several disjoint counter families: the event
runtime's :class:`~repro.wse.runtime.RuntimeStats`, the DSD engines'
instruction/FLOP counts (:mod:`repro.dataflow.instrcount`), the
calibrated time models of :mod:`repro.perf.timing`, lockstep and
cluster run reports.  The :class:`MetricsRegistry` unifies them behind
named collector callables: ``collect()`` snapshots every source into
one nested dict of plain numbers, :func:`merge_metrics` folds snapshots
from repeated runs (additive counters sum, ``max``-named extrema take
the maximum — the same convention as ``RuntimeStats.merge``), and
``to_json()`` serializes the result for report artifacts.

Adapters below convert the existing counter objects without importing
their modules at import time, so ``repro.obs`` stays dependency-light
and import-cycle-free.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Callable

__all__ = [
    "MetricsRegistry",
    "merge_metrics",
    "runtime_stats_metrics",
    "trace_sink_metrics",
]


def _is_max_key(key: str) -> bool:
    """Keys carrying extrema merge by max instead of summing."""
    return "max" in key or key.endswith("_peak")


def merge_metrics(into: dict, other: dict) -> dict:
    """Recursively fold *other* into *into* (returned for chaining).

    Numeric leaves sum (or take the max for ``max``-named keys); nested
    dicts recurse; any other leaf keeps the first value seen.  The
    convention matches ``RuntimeStats.merge`` so registry snapshots of
    repeated applications aggregate the same way the runtime does.
    """
    for key, value in other.items():
        if key not in into:
            into[key] = value
        elif isinstance(value, dict) and isinstance(into[key], dict):
            merge_metrics(into[key], value)
        elif isinstance(value, (int, float)) and isinstance(
            into[key], (int, float)
        ) and not isinstance(value, bool):
            if _is_max_key(key):
                into[key] = max(into[key], value)
            else:
                into[key] = into[key] + value
        # non-numeric scalar mismatch: keep the first value
    return into


class MetricsRegistry:
    """Named collector callables -> one mergeable metrics snapshot."""

    def __init__(self) -> None:
        self._sources: dict[str, Callable[[], dict]] = {}

    def register(
        self, name: str, collector: Callable[[], dict], *, replace: bool = False
    ) -> None:
        """Add a collector; re-registering a name requires ``replace=True``."""
        if not replace and name in self._sources:
            raise ValueError(f"metrics source {name!r} already registered")
        self._sources[name] = collector

    def unregister(self, name: str) -> None:
        self._sources.pop(name, None)

    @property
    def sources(self) -> tuple[str, ...]:
        return tuple(self._sources)

    # ------------------------------------------------------------------ #
    def collect(self) -> dict[str, dict]:
        """Snapshot every source: ``{source_name: counters}``."""
        return {name: fn() for name, fn in self._sources.items()}

    def merge(self, *snapshots: dict) -> dict:
        """Fold snapshots (e.g. per-application collects) into one."""
        out: dict = {}
        for snap in snapshots:
            merge_metrics(out, snap)
        return out

    def to_json(self, *, indent: int | None = 2) -> str:
        """``collect()`` serialized as JSON."""
        return json.dumps(self.collect(), indent=indent, sort_keys=True,
                          default=_jsonable)


def _jsonable(value: Any):
    """Fallback serializer for numpy scalars and similar."""
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"not JSON-serializable: {type(value)!r}")


# --------------------------------------------------------------------- #
# Adapters for the existing counter families
# --------------------------------------------------------------------- #
def runtime_stats_metrics(stats) -> dict:
    """``RuntimeStats`` (or any counter dataclass) as a metrics dict."""
    out = dict(dataclasses.asdict(stats))
    if hasattr(stats, "fabric_bytes_moved"):
        out["fabric_bytes_moved"] = stats.fabric_bytes_moved
    return out


def trace_sink_metrics(sink) -> dict:
    """``TraceSink`` aggregates as a metrics dict (ring excluded)."""
    return sink.as_dict()
