"""Per-layer contrast measurements of the traced run.

The set-up spans and the traced warm batches already give each layer's
self time.  The calls here add what a span cannot: the same work with
one ingredient removed or added (comm-only, batch of one, sinks
attached, supervised, serial twin), operation counts from the repo's
public reports, and byte counts computed from array sizes.

Every timing goes through one yardstick.Bracket; a call is normalised
with sensitivity 1 when it is pure Python (``PY``) and with the
workload's own sensitivity when it is a batch of its backend.
"""

from __future__ import annotations

import gc
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

from backends import Driver, Inputs, event_stats
from yardstick import Bracket, low_quartile


#: sensitivity of pure-Python calls (IR hashing, program build, event ops)
PY = 1.0


class Timer:
    """Lower-quartile timing (yardstick.low_quartile) of normalised calls."""

    def __init__(self, quick: bool) -> None:
        self.quick = quick
        self.bracket = Bracket()

    def typical(
        self, fn, sensitivity: float, budget_s: float = 0.5, min_reps: int = 5
    ) -> float:
        """Lower-quartile seconds of repeated ``fn()`` calls: at least
        ``min_reps``, more while ``budget_s`` lasts."""
        if self.quick:
            budget_s, min_reps = 0.0, 2
        out = []
        t_end = perf_counter() + budget_s
        while len(out) < min_reps or perf_counter() < t_end:
            gc.collect()
            out.append(self.bracket.measure(fn, sensitivity)[2])
        return low_quartile(out)

    def alternating(self, fns: dict, sensitivity: float, rounds: int) -> dict:
        """Lower-quartile seconds of each of ``fns``, called in turn
        ``rounds`` times so that drift hits all of them alike."""
        if self.quick:
            rounds = 1
        out = {name: [] for name in fns}
        for _ in range(rounds):
            for name, fn in fns.items():
                gc.collect()
                out[name].append(self.bracket.measure(fn, sensitivity)[2])
        return {name: low_quartile(vals) for name, vals in out.items()}


def contrasts(w, inputs: Inputs, drv: Driver, residual, timer: Timer, out_dir: Path) -> dict:
    """Layer metrics of ``w`` beyond span self times; keys are names
    from metrics.PER_LAYER."""
    return _CONTRASTS[w.backend](w, inputs, drv, residual, timer, out_dir)


def reference(w, inputs: Inputs, timer: Timer) -> dict:
    """The float64 NumPy oracle, doubling as the plain baseline."""
    from repro.core import compute_flux_residual

    seconds = timer.typical(
        lambda: compute_flux_residual(inputs.mesh, inputs.fluid, inputs.pressures[-1]),
        w.sensitivity, budget_s=0.3, min_reps=3,
    )
    return {
        "core.reference_s": seconds,
        "core.reference_mcells_per_s": w.cells / seconds / 1e6,
    }


def from_batches(w, batch_s: float, drv: Driver) -> dict:
    """Layer metrics that are the traced warm batches' span time under
    the layer's own name."""
    if w.backend == "fused":
        return {"ir.fused.batch_s": batch_s}
    if w.backend == "lockstep":
        return {"dataflow.lockstep.app_s": batch_s / w.batch}
    if w.backend == "event":
        events = event_stats(drv.last)["wse.events_per_app"] * w.batch
        return {
            "wse.events_per_s": events / batch_s,
            "wse.host_us_per_event": 1e6 * batch_s / events,
        }
    return {f"{w.backend}.batch_s": batch_s}


def _fused(w, inputs, drv, residual, timer, out_dir) -> dict:
    from repro.ir import derive_ir, lower_to_fused

    mesh, fluid, pressures = inputs.mesh, inputs.fluid, inputs.pressures
    ir, trans, obj = drv.parts["ir"], drv.parts["trans"], drv.obj
    dtype = np.dtype(w.dtype)
    out = _ir_metrics(ir, timer)
    out["ir.schedule.pes"] = len(drv.parts["schedule"])

    comm_only = lower_to_fused(
        derive_ir(mesh, dtype=dtype, compute_fluxes=False), mesh, fluid, trans
    )
    comm_only.run(pressures)
    times = timer.alternating(
        {
            "batch": lambda: obj.run(pressures),
            "comm_only": lambda: comm_only.run(pressures),
            "b1": lambda: obj.run(pressures[:1]),
        },
        w.sensitivity,
        rounds=12,
    )
    out["ir.fused.batch_s"] = times["batch"]
    out["ir.fused.comm_only_s"] = times["comm_only"]
    out["ir.fused.kernel_s_est"] = times["batch"] - times["comm_only"]
    out["ir.fused.b1_mcells_per_s"] = w.cells / times["b1"] / 1e6

    report = obj.report()
    out["ir.fused.flops_per_cell"] = report.flops / (w.cells * report.applications)
    out["ir.fused.word_hops_per_app"] = report.fabric_word_hops // report.applications
    # arrays one run() touches, per cell and application: pressure,
    # density, residual, 4 scratch and one contribution per X-Y
    # connection are batched; transmissibilities and elevation are
    # shared by the batch.  Computed from sizes: no cache misses, no
    # count of how often each array is re-read.
    xy_connections = sum(len(conns) for conns, _hops, _phase in ir.exchange_plan)
    batched = 3 + 4 + xy_connections
    shared = len(obj.trans_fields) + 1
    out["ir.fused.bytes_per_cell_computed"] = dtype.itemsize * (
        batched + shared / w.batch
    )
    return out


def _ir_metrics(ir, timer: Timer) -> dict:
    return {
        "ir.builder.ir_bytes": len(ir.dumps().encode("utf-8")),
        "ir.schema.hash_s": timer.typical(lambda: ir.content_hash, PY, budget_s=0.2),
    }


def _lockstep(w, inputs, drv, residual, timer, out_dir) -> dict:
    from repro.gpu import GpuFluxComputation

    out = _ir_metrics(drv.parts["ir"], timer)
    report = drv.obj.report()
    out["dataflow.lockstep.flops_per_cell"] = report.flops / (
        w.cells * report.applications
    )
    out["dataflow.lockstep.word_hops_per_app"] = (
        report.fabric_word_hops // report.applications
    )
    # the GPU-model reference backend has no workload of its own
    gpu = GpuFluxComputation(
        inputs.mesh, inputs.fluid, drv.parts["trans"],
        variant="raja", dtype=np.dtype(w.dtype),
    )
    first = gpu.run(inputs.pressures)
    out["gpu.launches_per_app"] = first.kernel_launches // first.applications
    out["gpu.tiles_per_app"] = first.tiles_executed // first.applications
    out["gpu.batch_s"] = timer.typical(
        lambda: gpu.run(inputs.pressures), w.sensitivity, budget_s=1.0, min_reps=3
    )
    return out


def _event(w, inputs, drv, residual, timer, out_dir) -> dict:
    from repro.dataflow import FluxProgram

    mesh, fluid, pressures = inputs.mesh, inputs.fluid, inputs.pressures
    ir, trans = drv.parts["ir"], drv.parts["trans"]
    dtype = np.dtype(w.dtype)
    out = _ir_metrics(ir, timer)
    out.update(event_stats(drv.last))
    out["dataflow.program.build_s"] = timer.typical(
        lambda: FluxProgram(mesh, fluid, trans, dtype=dtype, ir=ir),
        PY, budget_s=0.5, min_reps=3,
    )
    if w.options.get("observed"):
        out.update(_observed(w, inputs, drv, residual, timer, out_dir))
    return out


def _observed(w, inputs, drv, residual, timer, out_dir) -> dict:
    """What the sinks and the supervisor cost on top of the bare driver."""
    from repro.ir import lower_to_event
    from repro.obs.replay import ReplayRecorder
    from repro.resilience import ResiliencePolicy, RunSupervisor
    from repro.dataflow import WseFluxComputation

    mesh, fluid, pressures = inputs.mesh, inputs.fluid, inputs.pressures
    ir, trans = drv.parts["ir"], drv.parts["trans"]
    out = {}

    def driver(**sinks):
        d = lower_to_event(ir, mesh, fluid, trans, **sinks)
        d.run(pressures)
        return d

    plain = driver()
    traced = driver(trace=True, trace_capacity=256)
    recorded = driver(
        trace=True, trace_capacity=256,
        record=ReplayRecorder({}, snapshot_every=1),
    )
    times = timer.alternating(
        {
            "plain": lambda: plain.run(pressures),
            "traced": lambda: traced.run(pressures),
            "recorded": lambda: recorded.run(pressures),
        },
        PY,
        rounds=6,
    )
    out["obs.trace_overhead_frac"] = times["traced"] / times["plain"] - 1.0
    out["obs.record_overhead_frac"] = times["recorded"] / times["traced"] - 1.0

    # a two-step artifact, so its size does not depend on how long the
    # warm phase ran
    recorder = ReplayRecorder({}, snapshot_every=1)
    for _ in range(2):
        recorder.record_step(pressures[-1], residual)
    artifact = recorder.finalize()
    path = out_dir / f"{w.name}.rpz"
    out["obs.replay.save_s"] = timer.typical(
        lambda: artifact.save(path), PY, budget_s=0.2, min_reps=3
    )
    out["obs.replay.rpz_bytes"] = path.stat().st_size

    fields = [pressures[-1], pressures[-1]]
    policy = ResiliencePolicy(checkpoint_every=1)
    supervised_result = []

    def bare():
        d = WseFluxComputation(mesh, fluid, dtype=np.float64)
        for p in fields:
            d.run_single(p)

    def supervised():
        supervised_result.append(
            RunSupervisor(mesh, fluid, policy=policy, backend="event").run(fields)
        )

    times = timer.alternating({"bare": bare, "supervised": supervised}, PY, rounds=4)
    out["resilience.supervise_overhead_frac"] = times["supervised"] / times["bare"] - 1.0
    last = supervised_result[-1]
    out["resilience.checkpoints_per_app"] = last.checkpoints_written / last.applications
    return out


def _cluster_counts(result) -> dict:
    return {
        "cluster.msgs_per_app": result.messages_per_application,
        "cluster.halo_bytes_per_app": result.halo_bytes_per_application,
    }


def _cluster(w, inputs, drv, residual, timer, out_dir) -> dict:
    return _cluster_counts(drv.last)


def _par(w, inputs, drv, residual, timer, out_dir) -> dict:
    from repro.cluster.flux import ClusterFluxComputation

    pressures = inputs.pressures
    serial = ClusterFluxComputation(
        inputs.mesh, inputs.fluid, px=w.options["px"], py=w.options["py"],
        dtype=np.dtype(w.dtype),
    )
    out = _cluster_counts(serial.run(pressures))
    ranks = []  # per par batch: (compute, exchange, wait) seconds summed over ranks
    before = _rank_seconds(drv.last)

    def par_batch():
        nonlocal before
        drv.batch()
        after = _rank_seconds(drv.last)
        ranks.append(tuple(a - b for a, b in zip(after, before)))
        before = after

    times = timer.alternating(
        {"cluster": lambda: serial.run(pressures), "par": par_batch},
        w.sensitivity, rounds=10,
    )
    out["cluster.batch_s"] = times["cluster"]
    out["par.batch_s"] = times["par"]
    out["par.speedup_vs_cluster"] = times["cluster"] / times["par"]
    out["par.efficiency"] = out["par.speedup_vs_cluster"] / w.options["workers"]
    # worker clocks, summed over ranks, per batch; raw (not normalised)
    compute, exchange, wait = (statistics.median(col) for col in zip(*ranks))
    out["par.compute_s"] = compute
    out["par.exchange_s"] = exchange
    out["par.wait_s"] = wait
    out["par.wait_frac"] = wait / (compute + exchange + wait)
    out["par.distinct_pids"] = drv.last.distinct_pids
    return out


def _rank_seconds(result) -> tuple[float, float, float]:
    rows = result.per_rank
    return (
        sum(r["compute_seconds"] for r in rows),
        sum(r["exchange_seconds"] for r in rows),
        sum(r["wait_seconds"] for r in rows),
    )


_CONTRASTS = {
    "fused": _fused,
    "lockstep": _lockstep,
    "event": _event,
    "cluster": _cluster,
    "par": _par,
}
