"""Human-readable rendering of trace aggregates: tables and heatmaps.

Turns a :class:`~repro.obs.trace.TraceSink` (plus optional
``RuntimeStats`` and span summaries) into the aggregated text report
the ``repro trace`` CLI prints: per-color traffic splits with hop
histograms (the paper's Table 3/4 accounting signals), per-direction
latency distributions, and an ASCII per-PE fabric heatmap.  The same
content is available as a JSON document for CI artifacts.
"""

from __future__ import annotations

import numpy as np

from repro.obs.trace import TraceSink, latency_bucket_bounds
from repro.util.reporting import Table

__all__ = [
    "render_report",
    "render_span_table",
    "report_document",
    "render_heatmap",
    "consistency",
    "stall_report",
    "render_stall",
]

#: Glyph ramp for the ASCII heatmap, coldest to hottest.
_HEAT_GLYPHS = " .:-=+*#%@"


def consistency(sink: TraceSink, stats) -> dict:
    """Cross-check the streaming aggregates against the runtime counters.

    The per-color message counts must account for **exactly** the
    deliveries the runtime counted, and the per-link word totals for
    exactly its ``fabric_word_hops`` — the invariant behind trusting the
    O(1) aggregation at benchmark scale.
    """
    per_color_total = sum(sink.color_messages.values())
    return {
        "per_color_messages": per_color_total,
        "stats_messages_delivered": stats.messages_delivered,
        "messages_match": per_color_total == stats.messages_delivered,
        "link_word_hops": sink.link_word_hops,
        "stats_fabric_word_hops": stats.fabric_word_hops,
        "word_hops_match": sink.link_word_hops == stats.fabric_word_hops,
    }


def stall_report(runtime, *, max_items: int = 8) -> dict:
    """Diagnostic snapshot of a (possibly stalled) event runtime.

    Built by the progress watchdog when it raises
    :class:`~repro.faults.errors.FabricStallError`: the earliest
    ``max_items`` in-flight messages (what everyone is waiting for), the
    most recently active directed links (where traffic last moved), and
    the runtime counters at the moment of the stall.  Lists the queue
    through :meth:`~repro.wse.runtime.EventRuntime.pending` and reads the
    private link-busy map on purpose — this runs on the failure path,
    after the hot loop has stopped.
    """
    from dataclasses import asdict

    from repro.wse.geometry import Port
    from repro.wse.runtime import _EV_ARRIVE

    pending = runtime.pending()
    in_flight = []
    for due, kind, *event in pending[:max_items]:
        if kind == _EV_ARRIVE:
            coord, in_port, msg = event
            in_flight.append(
                {
                    "due": due,
                    "event": "arrival",
                    "dest": list(coord),
                    "in_port": Port(in_port).name,
                    "color": msg.color,
                    "kind": msg.kind,
                    "source": None if msg.source is None else list(msg.source),
                    "hops": msg.hops,
                    "words": msg.num_words,
                }
            )
        else:
            in_flight.append(
                {
                    "due": due,
                    "event": "call",
                    "fn": getattr(event[0], "__name__", repr(event[0])),
                }
            )
    # link-busy keys are ``index << 3 | port``: name the link by its
    # router's coordinate
    coords = runtime.coords
    last_active = [
        {
            "link": "({}, {})->{}".format(*coords[key >> 3], Port(key & 7).name),
            "busy_until": busy,
        }
        for key, busy in sorted(
            runtime._link_busy.items(), key=lambda kv: -kv[1]
        )[:max_items]
    ]
    return {
        "now": runtime.now,
        "pending_events": len(pending),
        "in_flight": in_flight,
        "last_active_links": last_active,
        "stats": asdict(runtime.stats),
    }


def render_stall(report: dict) -> str:
    """Printable form of a :func:`stall_report` dict."""
    lines = [
        f"stall diagnostic at t={report['now']:.0f}: "
        f"{report['pending_events']} events pending"
    ]
    for item in report["in_flight"]:
        if item["event"] == "arrival":
            lines.append(
                f"  due t={item['due']:.0f}: color {item['color']} "
                f"{item['kind']} {item['source']} -> {item['dest']} "
                f"via {item['in_port']} ({item['hops']} hops, "
                f"{item['words']} words)"
            )
        else:
            lines.append(f"  due t={item['due']:.0f}: call {item['fn']}")
    if report["last_active_links"]:
        lines.append("last-active links:")
        for link in report["last_active_links"]:
            lines.append(
                f"  {link['link']} busy until t={link['busy_until']:.0f}"
            )
    return "\n".join(lines)


def render_heatmap(sink: TraceSink, width: int, height: int) -> str:
    """ASCII per-PE outbound-traffic heatmap (rows are fabric rows)."""
    grid = sink.pe_heatmap(width, height)
    peak = int(grid.max())
    lines = [f"per-PE outbound words (peak {peak}):"]
    if peak == 0:
        scale = np.zeros_like(grid)
    else:
        scale = (grid * (len(_HEAT_GLYPHS) - 1) + peak - 1) // peak
    for y in range(height):
        row = "".join(_HEAT_GLYPHS[int(v)] for v in scale[y])
        lines.append(f"  y={y:<3d} |{row}|")
    return "\n".join(lines)


def _latency_rows(sink: TraceSink) -> list[tuple[str, str]]:
    """(direction, compact histogram) rows, dropping empty buckets."""
    bounds = latency_bucket_bounds()
    rows = []
    for label, hist in sorted(sink.direction_latency.items()):
        parts = []
        for i, n in enumerate(hist):
            if not n:
                continue
            lo, hi = bounds[i]
            hi_txt = "inf" if hi == float("inf") else f"{int(hi)}"
            parts.append(f"[{int(lo)},{hi_txt}): {n}")
        rows.append((label, "  ".join(parts) or "-"))
    return rows


def render_report(
    sink: TraceSink,
    *,
    stats=None,
    fabric_shape: tuple[int, int] | None = None,
    color_names: dict[int, str] | None = None,
    span_summary: dict | None = None,
) -> str:
    """The aggregated observability report as printable text."""
    names = color_names or {}
    out = []
    t = Table(
        f"Per-color traffic ({sink.deliveries} deliveries, "
        f"{len(sink.ring)} retained in ring)",
        ["Color", "Channel", "Messages", "Words", "Hop histogram"],
    )
    for color in sorted(sink.color_messages):
        hops = sink.color_hops.get(color, {})
        hops_txt = ", ".join(
            f"{h}:{n}" for h, n in sorted(hops.items())
        )
        t.add_row(
            [
                str(color),
                names.get(color, "-"),
                str(sink.color_messages[color]),
                str(sink.color_words.get(color, 0)),
                hops_txt,
            ]
        )
    out.append(t.render())

    lat = Table(
        "Delivery latency by direction (cycles, log2 buckets)",
        ["Direction", "Histogram"],
    )
    for label, hist_txt in _latency_rows(sink):
        lat.add_row([label, hist_txt])
    out.append("")
    out.append(lat.render())

    if fabric_shape is not None:
        out.append("")
        out.append(render_heatmap(sink, *fabric_shape))
        waited = sum(sink.link_wait.values())
        out.append(
            f"link contention: {len(sink.link_wait)} links waited, "
            f"{waited:.1f} cycles total"
        )

    if stats is not None:
        check = consistency(sink, stats)
        out.append("")
        out.append(
            "consistency: per-color messages "
            f"{check['per_color_messages']} vs runtime "
            f"{check['stats_messages_delivered']} "
            f"({'OK' if check['messages_match'] else 'MISMATCH'}); "
            f"link word-hops {check['link_word_hops']} vs runtime "
            f"{check['stats_fabric_word_hops']} "
            f"({'OK' if check['word_hops_match'] else 'MISMATCH'})"
        )

    if span_summary:
        out.append("")
        out.append(render_span_table(span_summary))
    return "\n".join(out)


def render_span_table(span_summary: dict) -> str:
    """The "Host phase spans" table of a
    :meth:`~repro.obs.spans.SpanRecorder.summary`, one row per span name
    in sorted order."""
    table = Table("Host phase spans", ["Span", "Count", "Total [s]", "Mean [s]"])
    for name in sorted(span_summary):
        row = span_summary[name]
        table.add_row(
            [
                name,
                str(int(row["count"])),
                f"{row['total_seconds']:.6f}",
                f"{row['mean_seconds']:.6f}",
            ]
        )
    return table.render()


def report_document(
    sink: TraceSink,
    *,
    stats=None,
    fabric_shape: tuple[int, int] | None = None,
    color_names: dict[int, str] | None = None,
    span_summary: dict | None = None,
    extra: dict | None = None,
) -> dict:
    """JSON-able version of :func:`render_report` for artifacts."""
    doc = {"trace": sink.as_dict()}
    if color_names:
        doc["color_names"] = {str(c): n for c, n in color_names.items()}
    if stats is not None:
        doc["consistency"] = consistency(sink, stats)
    if fabric_shape is not None:
        doc["pe_heatmap"] = sink.pe_heatmap(*fabric_shape).tolist()
    if span_summary is not None:
        doc["spans"] = span_summary
    if extra:
        doc.update(extra)
    return doc
