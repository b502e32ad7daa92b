"""Observability layer: streaming trace aggregation, spans, metrics.

``repro.obs`` is the one place every backend reports through:

* :mod:`repro.obs.trace` — bounded ring-buffer trace sink with O(1)
  per-event aggregation (per-color histograms, latency distributions,
  fabric link heatmaps) for the event runtime;
* :mod:`repro.obs.spans` — span-based phase timers with Chrome
  trace-event export (viewable in Perfetto), instrumenting the event
  runtime driver, lockstep backend, GPU model, cluster communicator and
  the Newton/Krylov solvers;
* :mod:`repro.obs.metrics` — a registry unifying ``RuntimeStats``, DSD
  instruction counts and the calibrated time models behind one
  ``collect()`` / ``merge()`` / ``to_json()`` surface;
* :mod:`repro.obs.report` — aggregated text/JSON reports and ASCII
  fabric heatmaps;
* :mod:`repro.obs.profile` — opt-in cProfile capture with
  fixed-workload diffing (the flamegraph workflow);
* :mod:`repro.obs.replay` — deterministic replay artifacts (byte-stable
  ``.rpz`` bundles of per-step digests + residual snapshots) recordable
  from any backend driver via its ``record=`` hook and replayed by
  :mod:`repro.conform`.

See DESIGN.md §9/§13 and ``repro trace --help``.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "profile": (
            "diff_rows",
            "load_rows",
            "profile_call",
            "profile_rows",
            "render_rows",
            "save_rows",
        ),
        "metrics": (
            "MetricsRegistry",
            "merge_metrics",
            "runtime_stats_metrics",
            "trace_sink_metrics",
        ),
        "replay": (
            "ReplayArtifact",
            "ReplayRecorder",
            "digest_array",
            "fingerprint_document",
        ),
        "report": (
            "consistency",
            "render_heatmap",
            "render_report",
            "render_span_table",
            "render_stall",
            "report_document",
            "stall_report",
        ),
        "spans": (
            "SpanRecorder",
            "chrome_trace_document",
            "get_recorder",
            "ingest_spans",
            "set_recorder",
            "span",
            "spans_to_payload",
            "write_chrome_trace",
        ),
        "trace": (
            "DeliveryRecord",
            "TraceSink",
            "latency_bucket_bounds",
            "pack_link",
            "unpack_link",
        ),
    },
)

__all__ = [
    "DeliveryRecord",
    "TraceSink",
    "pack_link",
    "unpack_link",
    "latency_bucket_bounds",
    "SpanRecorder",
    "span",
    "get_recorder",
    "set_recorder",
    "chrome_trace_document",
    "write_chrome_trace",
    "spans_to_payload",
    "ingest_spans",
    "MetricsRegistry",
    "merge_metrics",
    "runtime_stats_metrics",
    "trace_sink_metrics",
    "consistency",
    "render_report",
    "render_span_table",
    "render_heatmap",
    "report_document",
    "stall_report",
    "render_stall",
    "profile_call",
    "profile_rows",
    "diff_rows",
    "save_rows",
    "load_rows",
    "render_rows",
    "ReplayArtifact",
    "ReplayRecorder",
    "digest_array",
    "fingerprint_document",
]
