"""Lowering passes: compile a :class:`FabricProgramIR` to a backend.

Each ``lower_to_*`` function materializes one runtime from the IR:

* ``event`` — builds a :class:`~repro.dataflow.driver.WseFluxComputation`
  whose :class:`~repro.dataflow.program.FluxProgram` *consumes* the IR's
  route tables and injector sets instead of re-deriving them (and
  cross-checks its color allocation against the IR's color table).
* ``lockstep`` — builds a
  :class:`~repro.dataflow.lockstep.LockstepWseSimulation` driven by the
  IR's exchange-plan contract (phase order, connection order, hop
  counts) rather than its own hard-coded fold order.
* ``fused`` — the whole-array backend of :mod:`repro.ir.fused`.

The gpu, cluster and par backends own their decomposition and are not
lowered from the IR (ROADMAP open item); :mod:`repro.backends` builds
them directly.

All passes raise ``ValueError`` when the IR cannot describe the
requested lowering (bare-fabric IR, mesh mismatch, missing contracts).
"""

from __future__ import annotations

import numpy as np

# not used here: loads the event program and its simulator
# (repro.wse.runtime, ~24 ms of imports) with the IR, so that an event
# driver's timed set-up is the lowering and never these imports
from repro.dataflow.program import FluxProgram  # noqa: F401
from repro.ir.fused import FusedFluxComputation
from repro.ir.schema import KIND_PROGRAM, FabricProgramIR

__all__ = [
    "lower_to_event",
    "lower_to_lockstep",
    "lower_to_fused",
]


def _require_program_ir(ir: FabricProgramIR, mesh, backend: str) -> dict:
    if ir.kind != KIND_PROGRAM:
        raise ValueError(
            f"cannot lower a {ir.kind!r} IR to the {backend} backend"
        )
    if ir.mesh_shape != (mesh.nx, mesh.ny, mesh.nz):
        raise ValueError(
            f"IR was built for mesh {ir.mesh_shape}, got "
            f"({mesh.nx}, {mesh.ny}, {mesh.nz})"
        )
    params = ir.params
    if params is None:
        raise ValueError("program IR carries no params block")
    return params


def lower_to_event(ir: FabricProgramIR, mesh, fluid, trans=None, **kwargs):
    """IR -> event runtime (routes and injectors taken from the IR)."""
    from repro.dataflow.driver import WseFluxComputation

    params = _require_program_ir(ir, mesh, "event")
    return WseFluxComputation(
        mesh,
        fluid,
        trans,
        dtype=np.dtype(params["dtype"]),
        reuse_buffers=params["reuse_buffers"],
        overlap_compute=params["overlap_compute"],
        compute_fluxes=params["compute_fluxes"],
        vectorized=ir.vectorized,
        pe_memory_bytes=ir.pe_memory_bytes,
        pe_memory_reserved=ir.pe_memory_reserved,
        ir=ir,
        **kwargs,
    )


def lower_to_lockstep(ir: FabricProgramIR, mesh, fluid, trans=None, **kwargs):
    """IR -> lockstep simulation (fold order from the IR contract)."""
    from repro.dataflow.lockstep import LockstepWseSimulation

    params = _require_program_ir(ir, mesh, "lockstep")
    return LockstepWseSimulation(
        mesh,
        fluid,
        trans,
        dtype=np.dtype(params["dtype"]),
        compute_fluxes=params["compute_fluxes"],
        vectorized=ir.vectorized,
        ir=ir,
        **kwargs,
    )


def lower_to_fused(ir: FabricProgramIR, mesh, fluid, trans=None, **kwargs):
    """IR -> fused whole-array backend (dtype and options from the IR)."""
    _require_program_ir(ir, mesh, "fused")
    if ir.remap is not None:
        raise ValueError(
            "fused backend does not support spare-column remapping "
            "(it runs the logical fabric only; lower a remapped IR to "
            "the event backend, whose bytes and cycles equal the "
            "healthy fabric's)"
        )
    return FusedFluxComputation(mesh, fluid, trans, ir=ir, **kwargs)
