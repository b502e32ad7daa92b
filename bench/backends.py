"""Everything that calls into ``repro``: inputs, set-up, batches, checks.

Only public functions and attributes of the repo are used — nothing
underscore-prefixed, nothing patched, and ``repro.obs.spans`` is left
alone (the spans here are the benchmark's own, see spans.py).

Imported by the child *after* it has timed ``import numpy`` and the
workload's ``repro`` imports, so the imports below are cache hits.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core import (
    FluidProperties,
    PressureSequence,
    Transmissibility,
    compute_flux_residual,
)
from repro.workloads import make_geomodel

from metrics import F32_TOLERANCE, F64_TOLERANCE


@dataclass
class Inputs:
    mesh: object
    fluid: FluidProperties
    pressures: list


def _nothing_to_close() -> None:
    pass


@dataclass
class Driver:
    """A backend that is ready for its first batch."""

    obj: object
    #: runs one batch, returns the last application's residual
    batch: Callable[[], np.ndarray]
    close: Callable[[], None] = _nothing_to_close
    #: what set-up built on the way (ir, trans, schedule), for contrasts
    parts: dict | None = None
    #: the repo's result object of the most recent batch
    last: object = None


def make_inputs(w, seed: int, rec) -> Inputs:
    nx, ny, nz = w.mesh
    with rec.span("workloads.geomodel"):
        mesh = make_geomodel(nx, ny, nz, kind="lognormal", seed=seed)
    seq = PressureSequence(mesh, num_applications=w.batch, seed=seed)
    return Inputs(mesh, FluidProperties(), [seq.field(i) for i in range(w.batch)])


def sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def input_digest(inputs: Inputs) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(inputs.mesh.permeability).tobytes())
    for p in inputs.pressures:
        h.update(np.ascontiguousarray(p).tobytes())
    return h.hexdigest()


# --------------------------------------------------------------------- #
# set-up, split into the public steps a user would call
# --------------------------------------------------------------------- #
def _event_sinks(w) -> dict:
    if not w.options.get("observed"):
        return {}
    from repro.obs.replay import ReplayRecorder

    return {
        "trace": True,
        "trace_capacity": 256,
        "record": ReplayRecorder({}, snapshot_every=1),
    }


def setup(w, inputs: Inputs, rec) -> Driver:
    mesh, fluid, pressures = inputs.mesh, inputs.fluid, inputs.pressures
    dtype = np.dtype(w.dtype)
    parts = None
    close = _nothing_to_close
    if w.backend in ("fused", "lockstep", "event"):
        from repro.ir import (
            arrival_schedule,
            derive_ir,
            lower_to_event,
            lower_to_fused,
            lower_to_lockstep,
        )

        with rec.span("core.trans"):
            trans = Transmissibility(mesh, dtype=dtype)
        with rec.span("ir.builder.derive"):
            ir = derive_ir(mesh, dtype=dtype)
        parts = {"ir": ir, "trans": trans}
        if w.backend == "fused":
            with rec.span("ir.schedule.probe"):
                parts["schedule"] = arrival_schedule(mesh.nx, mesh.ny)
            with rec.span("ir.lower.fused"):
                obj = lower_to_fused(ir, mesh, fluid, trans)
        elif w.backend == "lockstep":
            with rec.span("ir.lower.lockstep"):
                obj = lower_to_lockstep(ir, mesh, fluid, trans)
        else:
            with rec.span("ir.lower.event"):
                obj = lower_to_event(ir, mesh, fluid, trans, **_event_sinks(w))
    elif w.backend == "cluster":
        from repro.cluster.flux import ClusterFluxComputation

        with rec.span("cluster.build"):
            obj = ClusterFluxComputation(
                mesh, fluid, px=w.options["px"], py=w.options["py"], dtype=dtype
            )
    elif w.backend == "par":
        from repro.par import ParClusterFluxComputation
        from repro.par.runtime import shutdown_warm_pool

        with rec.span("par.build"):
            obj = ParClusterFluxComputation(
                mesh, fluid, px=w.options["px"], py=w.options["py"],
                workers=w.options["workers"], dtype=dtype,
            )

        def close():
            obj.close()
            shutdown_warm_pool()

        try:
            # the pool spawns lazily inside the first public run(): one
            # priming application puts fork + per-rank state build into
            # set-up, where the user pays it
            with rec.span("par.pool_spawn"):
                obj.run(pressures[:1])
        except BaseException:
            close()
            raise
    else:
        raise ValueError(f"unknown backend {w.backend!r}")

    drv = Driver(obj, None, close=close, parts=parts)
    if w.backend == "lockstep":

        def batch():
            residual = None
            for p in pressures:
                residual = obj.run_application(p)
            return residual

    else:

        def batch():
            drv.last = obj.run(pressures)
            return drv.last.residual

    drv.batch = batch
    return drv


# --------------------------------------------------------------------- #
# checks
# --------------------------------------------------------------------- #
def tolerance(dtype) -> float:
    return F32_TOLERANCE if np.dtype(dtype) == np.float32 else F64_TOLERANCE


def max_rel_err(inputs: Inputs, residual: np.ndarray) -> float:
    """``max|r - r_ref| / max|r_ref|`` against the float64 NumPy oracle
    on the batch's last field (the ``repro validate`` convention)."""
    ref = compute_flux_residual(inputs.mesh, inputs.fluid, inputs.pressures[-1])
    return float(np.abs(residual - ref).max() / np.abs(ref).max())


def event_stats(result) -> dict:
    """Simulated statistics of a one-application event run."""
    apps = result.applications
    return {
        "wse.events_per_app": result.stats.events_processed // apps,
        "wse.messages_per_app": result.stats.messages_delivered // apps,
        "wse.word_hops_per_app": result.fabric_word_hops // apps,
        "wse.sim_cycles_per_app": result.device_cycles / apps,
    }


def pinned_mismatches(stats: dict, pinned: dict) -> list[str]:
    return sorted(name for name, want in pinned.items() if stats.get(name) != want)


def conform(w, inputs: Inputs, drv: Driver, residual: np.ndarray):
    """Required bit identity on the batch's last field: fused == event,
    par == cluster.  Returns ``(metric name, 1 or 0)`` or ``None``."""
    last = inputs.pressures[-1:]
    if w.backend == "fused":
        from repro.ir import lower_to_event

        other = lower_to_event(
            drv.parts["ir"], inputs.mesh, inputs.fluid, drv.parts["trans"]
        ).run(last).residual
        name = "conform.fused_eq_event"
    elif w.backend == "par":
        from repro.cluster.flux import ClusterFluxComputation

        other = ClusterFluxComputation(
            inputs.mesh, inputs.fluid, px=w.options["px"], py=w.options["py"],
            dtype=np.dtype(w.dtype),
        ).run(last).residual
        name = "conform.par_eq_cluster"
    else:
        return None
    return name, int(sha256(other) == sha256(residual))
