"""``run.py --compare A.json B.json``: is B worse than A?

Per (end-to-end metric, workload): both medians, the relative
difference in the worse direction, the metric's bound and a verdict:

``ok``          B is not worse than A by more than the bound;
``worse``       it is, and both runs' own spreads are within the bound;
``unresolved``  it is, but a run's own interquartile range is wider
                than the bound, so the difference may be noise.

A ``worse`` row names the per-layer time (seconds-valued metric of the
traced pass) that grew most, when both files hold a traced run of that
workload.  Exact counts that differ are listed after the table.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from metrics import BETTER, BOUNDS, EXACT, UNITS


def load(path: Path) -> dict:
    document = json.loads(Path(path).read_text())
    if document.get("quick"):
        raise ValueError(f"{path}: a --quick run is not a measurement")
    return document


def _runs(document: dict, trace: int) -> dict:
    return {r["workload"]: r for r in document["runs"] if r["trace"] == trace}


def worse_by(name: str, a: float, b: float) -> float:
    """Share of ``a`` by which ``b`` is worse (negative: better)."""
    return (b - a) / a if BETTER[name] == "lower" else (a - b) / a


def spread(metric: dict) -> float:
    return (metric["q3"] - metric["q1"]) / metric["value"]


def verdict(name: str, a: dict, b: dict) -> tuple[float, str]:
    diff = worse_by(name, a["value"], b["value"])
    bound = BOUNDS[name]
    if diff <= bound:
        return diff, "ok"
    if max(spread(a), spread(b)) > bound:
        return diff, "unresolved"
    return diff, "worse"


def layer_that_moved(a_run: dict | None, b_run: dict | None) -> str:
    """The seconds-valued per-layer metric that grew most from A to B."""
    if not a_run or not b_run:
        return "no traced run of this workload in both files"
    growth = {
        name: b_run["metrics"][name]["value"] - m["value"]
        for name, m in a_run["metrics"].items()
        if UNITS[name] == "s" and name in b_run["metrics"]
        and not name.startswith("bench.")
    }
    name = max(growth, key=growth.get)
    return f"{name} +{growth[name]:.4g} s"


def compare(a_doc: dict, b_doc: dict) -> tuple[list[dict], list[str]]:
    rows, notes = [], []
    a_runs, b_runs = _runs(a_doc, 0), _runs(b_doc, 0)
    a_traced, b_traced = _runs(a_doc, 1), _runs(b_doc, 1)
    for workload, a_run in a_runs.items():
        b_run = b_runs.get(workload)
        if b_run is None:
            notes.append(f"{workload}: not in B")
            continue
        for name in BOUNDS:
            a, b = a_run["metrics"][name], b_run["metrics"][name]
            diff, status = verdict(name, a, b)
            row = {
                "workload": workload, "metric": name, "a": a["value"],
                "b": b["value"], "unit": a["unit"], "diff": diff,
                "bound": BOUNDS[name], "status": status, "layer": "",
            }
            if status == "worse":
                row["layer"] = layer_that_moved(
                    a_traced.get(workload), b_traced.get(workload)
                )
            rows.append(row)
        if b_run["failed"] > a_run["failed"]:
            rows.append(
                {
                    "workload": workload, "metric": "failed_frac",
                    "a": a_run["failed"] / a_run["attempted"],
                    "b": b_run["failed"] / b_run["attempted"], "unit": "ratio",
                    "diff": float("inf"), "bound": 0.0, "status": "worse",
                    "layer": "; ".join(b_run["reasons"][:3]),
                }
            )
    for workload, a_run in a_traced.items():
        b_run = b_traced.get(workload)
        if b_run is None:
            continue
        for name in sorted(EXACT):
            a, b = a_run["metrics"][name]["value"], b_run["metrics"][name]["value"]
            if a != b:
                notes.append(f"{workload}: exact count {name} changed: {a:g} -> {b:g}")
    return rows, notes


def main(a_path: Path, b_path: Path) -> int:
    try:
        a_doc, b_doc = load(a_path), load(b_path)
    except (OSError, ValueError) as exc:
        print(f"bench --compare: {exc}", file=sys.stderr)
        return 2
    rows, notes = compare(a_doc, b_doc)
    print(
        f"{'workload':<28} {'metric':<18} {'A':>12} {'B':>12} {'unit':<8} "
        f"{'worse by':>9} {'bound':>6}  verdict"
    )
    for r in rows:
        print(
            f"{r['workload']:<28} {r['metric']:<18} {r['a']:>12.6g} {r['b']:>12.6g} "
            f"{r['unit']:<8} {100 * r['diff']:>8.1f}% {100 * r['bound']:>5.0f}%  "
            f"{r['status']}{'  <- ' + r['layer'] if r['layer'] else ''}"
        )
    for note in notes:
        print(note)
    return 1 if any(r["status"] == "worse" for r in rows) else 0
