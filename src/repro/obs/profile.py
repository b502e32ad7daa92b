"""Opt-in cProfile hook with fixed-workload diffing.

py-spy-style sampling profilers are not baked into the image, so the
flamegraph workflow for the event loop is: profile a *fixed* workload
with stdlib :mod:`cProfile`, persist the top functions as JSON, and
diff two such captures (before/after an optimization) to see where
cycles moved.  ``repro trace --profile`` wires this up end to end.
"""

from __future__ import annotations

import cProfile
import io
import json
import pstats
from pathlib import Path
from typing import Any, Callable

__all__ = [
    "profile_call",
    "profile_rows",
    "diff_rows",
    "save_rows",
    "load_rows",
    "render_rows",
]

#: the fields of a :func:`profile_rows` row that :func:`diff_rows` reads
_ROW_KEYS = frozenset({"function", "ncalls", "tottime", "cumtime"})


def profile_call(fn: Callable[[], Any]) -> tuple[Any, pstats.Stats]:
    """Run ``fn()`` under cProfile; return its result and the stats."""
    profiler = cProfile.Profile()
    result = profiler.runcall(fn)
    stats = pstats.Stats(profiler, stream=io.StringIO())
    return result, stats


def profile_rows(stats: pstats.Stats, *, limit: int = 25) -> list[dict]:
    """The hottest functions by cumulative time as JSON-able rows."""
    rows = []
    for func, (cc, nc, tt, ct, _callers) in stats.stats.items():
        filename, lineno, name = func
        rows.append(
            {
                "function": f"{Path(filename).name}:{lineno}:{name}",
                "ncalls": nc,
                "tottime": round(tt, 6),
                "cumtime": round(ct, 6),
            }
        )
    rows.sort(key=lambda r: r["cumtime"], reverse=True)
    return rows[:limit]


def diff_rows(baseline: list[dict], current: list[dict]) -> list[dict]:
    """Per-function deltas of *current* minus *baseline*.

    Functions present on only one side diff against zero, so new hot
    spots and eliminated ones both surface.  Sorted by absolute
    ``tottime`` delta (the per-function self-cost shift).
    """
    base = {r["function"]: r for r in baseline}
    cur = {r["function"]: r for r in current}
    out = []
    for name in base.keys() | cur.keys():
        b = base.get(name, {"ncalls": 0, "tottime": 0.0, "cumtime": 0.0})
        c = cur.get(name, {"ncalls": 0, "tottime": 0.0, "cumtime": 0.0})
        out.append(
            {
                "function": name,
                "ncalls_delta": c["ncalls"] - b["ncalls"],
                "tottime_delta": round(c["tottime"] - b["tottime"], 6),
                "cumtime_delta": round(c["cumtime"] - b["cumtime"], 6),
            }
        )
    out.sort(key=lambda r: abs(r["tottime_delta"]), reverse=True)
    return out


def save_rows(rows: list[dict], path) -> None:
    from repro.util.jsonio import write_stable_json

    write_stable_json(path, rows)


def load_rows(path) -> list[dict]:
    """The rows :func:`save_rows` wrote to *path*; ValueError when the
    file is not JSON or not a list of profile rows."""
    rows = json.loads(Path(path).read_text())
    if not isinstance(rows, list) or not all(
        isinstance(row, dict) and _ROW_KEYS <= row.keys() for row in rows
    ):
        raise ValueError("expected a JSON list of profile rows")
    return rows


def render_rows(rows: list[dict], *, limit: int = 15) -> str:
    """Fixed-width text rendering of profile or diff rows."""
    if not rows:
        return "(no profile rows)"
    keys = [k for k in rows[0] if k != "function"]
    header = "  ".join(f"{k:>14}" for k in keys) + "  function"
    lines = [header]
    for row in rows[:limit]:
        cells = "  ".join(f"{row[k]:>14}" for k in keys)
        lines.append(f"{cells}  {row['function']}")
    return "\n".join(lines)
