"""Phase-accurate vectorized simulation of the dataflow kernel.

The event-driven simulator (:mod:`repro.dataflow.driver`) executes the
full message-level protocol but is only tractable on small fabrics in
Python.  This module runs the *same DSD instruction sequence* phase by
phase over whole-fabric arrays — one shared engine, one vectorized call
per communication/compute phase — producing numerics identical to the
per-PE kernel (identical operations in identical order per element) and
the same fabric-wide instruction and traffic totals, at NumPy speed.

Per application the phases mirror Sec. 5:

1. density evaluation + vertical (in-memory) fluxes on every PE;
2. cardinal exchange: for each of the four channels, the neighbour
   plane arrives in halo storage (FMOV with fabric loads — one hop) and
   the partial fluxes are computed on arrival;
3. diagonal exchange: the same for the four two-hop flows (two hops of
   link traffic per word, one FMOV at the target).

Every phase streams the halo-padded flat layout of
:mod:`repro.dataflow.padded` (shared with the fused backend): per
connection one kernel call on contiguous spans from the first interior
cell to the last, reading the neighbour's ``(p, rho)`` in place one
flat shift away, X-Y faces on the kernel's collapsed branch.  The
fabric's halo moves are booked by ``PaddedFlatLayout.book``, not
executed: a copy would hand the kernel the same values.  With ``inf`` /
``NaN`` pressure cells, a cell whose per-face residual is finite keeps
its bytes and a non-finite one stays non-finite: a halo face contributes
``+-inf * 0 = NaN`` only to a cell whose real faces are non-finite
already.
"""

from __future__ import annotations

import numpy as np

from repro.core.fluid import FluidProperties
from repro.core.mesh import CartesianMesh3D
from repro.core.stencil import EXCHANGE_PLAN, Connection
from repro.core.transmissibility import Transmissibility
from repro.dataflow.flux_pe import compute_face_flux_column
from repro.dataflow.padded import LockstepReport, LockstepRunResult, PaddedFlatLayout
from repro.obs.spans import span

__all__ = ["LockstepWseSimulation", "LockstepReport", "LockstepRunResult"]


class LockstepWseSimulation:
    """Vectorized whole-fabric execution of the dataflow flux program.

    Parameters match :class:`~repro.dataflow.driver.WseFluxComputation`
    where applicable.  ``compute_fluxes=False`` reproduces the comm-only
    accounting of the paper's Table 3 experiment.
    """

    def __init__(
        self,
        mesh: CartesianMesh3D,
        fluid: FluidProperties,
        trans: Transmissibility | None = None,
        *,
        dtype=np.float32,
        vectorized: bool = True,
        compute_fluxes: bool = True,
        record=None,
        ir=None,
    ) -> None:
        self.mesh = mesh
        self.fluid = fluid
        self.dtype = np.dtype(dtype)
        self.compute_fluxes = compute_fluxes
        #: The :class:`~repro.ir.schema.FabricProgramIR` this simulation
        #: was lowered from (:func:`repro.ir.lower.lower_to_lockstep`), or
        #: None when built directly.
        self.ir = ir
        #: Fold-order contract: ``(connections, hops, span name)`` per
        #: communication phase — the IR's exchange plan, else the
        #: paper's cardinal-then-diagonal :data:`EXCHANGE_PLAN`.
        self.exchange_plan = tuple(
            (conns, hops, f"lockstep.{phase}")
            for conns, hops, phase in (
                ir.exchange_plan if ir is not None else EXCHANGE_PLAN
            )
        )
        #: Optional :class:`~repro.obs.replay.ReplayRecorder` digesting
        #: every (pressure, residual) application pair.
        self.record = record

        self._layout = layout = PaddedFlatLayout(
            mesh, fluid, trans, self.dtype, self.exchange_plan,
            vectorized=vectorized, compute_fluxes=compute_fluxes, halo_copies=True,
        )
        self.engine = layout.engine
        self.trans_fields = layout.trans_fields
        lanes = layout.elevation.size
        # halo pressure stays the finite reference pressure: halo lanes
        # compute finite zeros through their zero-Upsilon faces
        self._p = p = np.full(lanes, fluid.reference_pressure, self.dtype)
        self._pressure = layout.interior(p)
        self._rho = rho = np.zeros(lanes, self.dtype)
        self._residual = residual = np.zeros(lanes, self.dtype)
        select = np.zeros(lanes, f"u{self.dtype.itemsize}")
        scratch = (*np.zeros((4, lanes), self.dtype), select)

        #: kernel operands of UP/DOWN, in place over the whole planes
        #: that have the neighbour
        self._vertical = []
        for conn in (Connection.UP, Connection.DOWN):
            lo, count = layout.vertical_span(conn, 0, mesh.nz)
            if count > 0:
                operands = layout.operands(conn, lo, count, scratch, p, rho)
                self._vertical.append(operands + (residual[lo : lo + count],))
        #: per phase, the kernel operands of each connection over the
        #: cells an X-Y sweep covers: the first interior cell to the last
        here = slice(layout.edge, lanes - layout.edge)
        self._phases = [
            (phase, [
                layout.operands(conn, here.start, here.stop - here.start, scratch, p, rho)
                + (residual[here],)
                for conn in conns
            ])
            for conns, _hops, phase in self.exchange_plan
        ]

    # ------------------------------------------------------------------ #
    def run_application(self, pressure: np.ndarray) -> np.ndarray:
        """One application of Algorithm 1; returns the residual field."""
        self.mesh.validate_field(pressure, name="pressure")
        layout = self._layout
        # the kernels sweep padded lanes; layout.book() has the true counts
        engine, kernel = layout.swept, layout.kernel
        self._pressure[...] = pressure  # cast into the padded buffer's interior
        self._residual.fill(0.0)

        with span("lockstep.application", backend="lockstep"):
            # Phase 1: local work on every PE (Eq. 5 + vertical fluxes)
            with span("lockstep.local"):
                layout.density(self._p, self._rho)
                if self.compute_fluxes:
                    for operands in self._vertical:
                        compute_face_flux_column(engine, *operands, **kernel)

            # Phases 2-3: fabric exchanges (cardinal 1 hop, diagonal 2)
            for phase, connections in self._phases:
                with span(phase):
                    if self.compute_fluxes:
                        for operands in connections:
                            compute_face_flux_column(engine, *operands, **kernel)
            layout.book(1)

        residual = layout.interior(self._residual).copy()
        if self.record is not None:
            self.record.record_step(pressure, residual)
        return residual

    def run(self, pressures) -> LockstepRunResult:
        """Run one application per field; ``.residual`` is the last one's."""
        residual, applications = None, 0
        for applications, pressure in enumerate(pressures, 1):
            residual = self.run_application(pressure)
        if residual is None:
            raise ValueError("no pressure fields supplied")
        return LockstepRunResult(residual, applications, self.report())

    # ------------------------------------------------------------------ #
    def report(self) -> LockstepReport:
        """Accounting accumulated since construction."""
        return self._layout.report()
