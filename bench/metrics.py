"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the repo root restates these tables (a test keeps
the two in step).  Times are normalised seconds (see yardstick.py)
unless the name says ``raw``.
"""

from __future__ import annotations

#: (name, unit, better, bound): what a user of the system sees.  The
#: bound is the share of the parent's median by which the metric may
#: get worse before a change counts as a regression.  The timing bounds
#: are the widest the harness allows: ten-run spreads (IQR / median, ten
#: seeds) on this host are mostly 2-8% but reached 22% once when the host
#: changed state mid-study (README.md, "Recorded numbers").
END_TO_END = (
    ("first_residual_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("mcells_per_s", "Mcell/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
)

#: Correctness figures.  They travel as ``correct``/``failed`` in the
#: result line and as per-layer metrics, not as bounded end-to-end
#: metrics: failed_frac is 0 and max_rel_err differs from seed to seed.
F32_TOLERANCE = 1e-5
F64_TOLERANCE = 1e-10

#: (name, unit, better).  A workload reports 0 for a layer it does not
#: run.  Names in EXACT must repeat bit for bit between runs.
PER_LAYER = (
    ("max_rel_err", "ratio", "lower"),
    ("failed_frac", "ratio", "lower"),
    # import / cli
    ("import.numpy_s", "s", "lower"),
    ("import.repro_s", "s", "lower"),
    ("import.modules", "count", "lower"),
    ("cli.help_s", "s", "lower"),
    # workloads / core
    ("workloads.geomodel_s", "s", "lower"),
    ("core.trans_s", "s", "lower"),
    ("core.reference_s", "s", "lower"),
    ("core.reference_mcells_per_s", "Mcell/s", "higher"),
    # ir.builder / ir.schema
    ("ir.builder.derive_s", "s", "lower"),
    ("ir.builder.ir_bytes", "B", "lower"),
    ("ir.schema.hash_s", "s", "lower"),
    # ir.schedule
    ("ir.schedule.probe_s", "s", "lower"),
    ("ir.schedule.pes", "count", "lower"),
    # ir.lower
    ("ir.lower.fused_s", "s", "lower"),
    ("ir.lower.event_s", "s", "lower"),
    ("ir.lower.lockstep_s", "s", "lower"),
    # ir.fused
    ("ir.fused.batch_s", "s", "lower"),
    ("ir.fused.comm_only_s", "s", "lower"),
    ("ir.fused.kernel_s_est", "s", "lower"),
    ("ir.fused.b1_mcells_per_s", "Mcell/s", "higher"),
    ("ir.fused.flops_per_cell", "flop/cell", "lower"),
    ("ir.fused.word_hops_per_app", "count", "lower"),
    ("ir.fused.bytes_per_cell_computed", "B/cell", "lower"),
    # dataflow
    ("dataflow.program.build_s", "s", "lower"),
    ("dataflow.lockstep.app_s", "s", "lower"),
    ("dataflow.lockstep.flops_per_cell", "flop/cell", "lower"),
    ("dataflow.lockstep.word_hops_per_app", "count", "lower"),
    # wse (simulated counts are exact; the last two are host speed)
    ("wse.events_per_app", "count", "lower"),
    ("wse.messages_per_app", "count", "lower"),
    ("wse.word_hops_per_app", "count", "lower"),
    ("wse.sim_cycles_per_app", "cycles", "lower"),
    ("wse.events_per_s", "1/s", "higher"),
    ("wse.host_us_per_event", "us", "lower"),
    # obs / resilience
    ("obs.trace_overhead_frac", "ratio", "lower"),
    ("obs.record_overhead_frac", "ratio", "lower"),
    ("obs.replay.rpz_bytes", "B", "lower"),
    ("obs.replay.save_s", "s", "lower"),
    ("resilience.supervise_overhead_frac", "ratio", "lower"),
    ("resilience.checkpoints_per_app", "count", "lower"),
    # cluster / par
    ("cluster.batch_s", "s", "lower"),
    ("cluster.msgs_per_app", "count", "lower"),
    ("cluster.halo_bytes_per_app", "B", "lower"),
    ("par.pool_spawn_s", "s", "lower"),
    ("par.batch_s", "s", "lower"),
    ("par.compute_s", "s", "lower"),
    ("par.exchange_s", "s", "lower"),
    ("par.wait_s", "s", "lower"),
    ("par.wait_frac", "ratio", "lower"),
    ("par.distinct_pids", "count", "higher"),
    ("par.speedup_vs_cluster", "ratio", "higher"),
    ("par.efficiency", "ratio", "higher"),
    # gpu (reference backend, timed in the lockstep traced run)
    ("gpu.batch_s", "s", "lower"),
    ("gpu.launches_per_app", "count", "lower"),
    ("gpu.tiles_per_app", "count", "lower"),
    # conform (1 = residual bytes identical)
    ("conform.fused_eq_event", "count", "higher"),
    ("conform.par_eq_cluster", "count", "higher"),
    # the benchmark itself
    ("bench.yard_py_ms", "ms", "lower"),
    ("bench.yard_np_ms", "ms", "lower"),
    ("bench.samples", "count", "higher"),
    ("bench.cold_children", "count", "higher"),
    ("bench.batch_ms_p50", "ms", "lower"),
    ("bench.batch_ms_tail", "ms", "lower"),
    ("bench.tail_pct", "%", "higher"),
    ("bench.raw_first_residual_s", "s", "lower"),
    ("bench.raw_setup_s", "s", "lower"),
    ("bench.raw_mcells_per_s", "Mcell/s", "higher"),
    ("bench.trace_overhead_frac", "ratio", "lower"),
)

EXACT = frozenset(
    {
        "import.modules",
        "ir.builder.ir_bytes",
        "ir.schedule.pes",
        "ir.fused.word_hops_per_app",
        "dataflow.lockstep.word_hops_per_app",
        "wse.events_per_app",
        "wse.messages_per_app",
        "wse.word_hops_per_app",
        "wse.sim_cycles_per_app",
        "obs.replay.rpz_bytes",
        "resilience.checkpoints_per_app",
        "cluster.msgs_per_app",
        "cluster.halo_bytes_per_app",
        "gpu.launches_per_app",
        "gpu.tiles_per_app",
    }
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
BETTER = {name: better for name, _unit, better, *_ in END_TO_END + PER_LAYER}
BOUNDS = {name: bound for name, _unit, _better, bound in END_TO_END}
