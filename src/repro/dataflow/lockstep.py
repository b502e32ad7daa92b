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
2. cardinal exchange: for each of the four channels, move the neighbour
   plane into halo storage (FMOV with fabric loads — one hop) and compute
   the partial fluxes on arrival;
3. diagonal exchange: the same for the four two-hop flows (two hops of
   link traffic per word, one FMOV at the target).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro.core import constants
from repro.core.fluid import FluidProperties
from repro.core.mesh import CartesianMesh3D
from repro.core.stencil import (
    CARDINAL_XY,
    DIAGONAL_XY,
    Connection,
    interior_slices,
)
from repro.core.transmissibility import Transmissibility
from repro.dataflow.flux_pe import (
    FluxScratch,
    compute_face_flux_column,
    evaluate_density_column,
)
from repro.dataflow.program import padded_trans_fields
from repro.obs.spans import span
from repro.wse.dsd import DsdEngine

__all__ = ["LockstepWseSimulation", "LockstepReport", "LockstepRunResult"]


@dataclass
class LockstepReport:
    """Aggregate accounting of a lockstep run."""

    applications: int
    instruction_counts: dict[str, int]
    flops: int
    fabric_words_received: int
    fabric_word_hops: int
    compute_cycles: float

    def as_metrics(self) -> dict:
        """Counters as a plain dict for the obs metrics registry."""
        return asdict(self)


@dataclass
class LockstepRunResult:
    """Outcome of :meth:`LockstepWseSimulation.run`: the last residual
    plus the simulation's accounting so far."""

    residual: np.ndarray
    applications: int
    report: LockstepReport

    def as_metrics(self) -> dict:
        """The report's counters (obs metrics registry shape)."""
        return self.report.as_metrics()


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
        gravity: float = constants.GRAVITY,
        dtype=np.float32,
        vectorized: bool = True,
        compute_fluxes: bool = True,
        record=None,
        ir=None,
    ) -> None:
        self.mesh = mesh
        self.fluid = fluid
        self.gravity = float(gravity)
        self.dtype = np.dtype(dtype)
        self.compute_fluxes = compute_fluxes
        if trans is None:
            trans = Transmissibility(mesh, dtype=dtype)
        elif trans.mesh is not mesh:
            raise ValueError("trans was built for a different mesh")
        self.trans_fields = padded_trans_fields(mesh, trans, dtype)
        self.engine = DsdEngine(vectorized=vectorized)
        shape = mesh.shape_zyx
        self._rho = np.zeros(shape, self.dtype)
        self._residual = np.zeros(shape, self.dtype)
        self._halo = np.zeros((2,) + shape, self.dtype)  # shared (p, rho) window
        self._scratch_full = tuple(np.zeros(shape, self.dtype) for _ in range(4))
        self._select = np.zeros(shape, f"u{self.dtype.itemsize}")
        self._elev = np.ascontiguousarray(mesh.elevation, dtype=self.dtype)
        self._inv_mu = 1.0 / fluid.viscosity
        self._applications = 0
        self._fabric_word_hops = 0
        self._words_per_element = max(1, self.dtype.itemsize // 4)
        #: The :class:`~repro.ir.schema.FabricProgramIR` this simulation
        #: was lowered from (:func:`repro.ir.lower.lower_to_lockstep`), or
        #: None when built directly.
        self.ir = ir
        #: Fold-order contract: ``(connections, hops, phase)`` per
        #: communication phase — the IR's exchange plan, else the
        #: paper's cardinal-then-diagonal order.
        exchange_plan = ir.exchange_plan if ir is not None else (
            (CARDINAL_XY, 1, "lockstep.cardinal"),
            (DIAGONAL_XY, 2, "lockstep.diagonal"),
        )
        self.exchange_plan = tuple(
            (tuple(conns), int(hops), f"lockstep.{phase.split('.')[-1]}")
            for conns, hops, phase in exchange_plan
        )
        #: Optional :class:`~repro.obs.replay.ReplayRecorder` digesting
        #: every (pressure, residual) application pair.
        self.record = record

    # ------------------------------------------------------------------ #
    def _scratch_for(self, local) -> FluxScratch:
        a, b, c, d = self._scratch_full
        return FluxScratch(
            a[local], b[local], c[local], d[local], sel=self._select[local]
        )

    def run_application(self, pressure: np.ndarray) -> np.ndarray:
        """One application of Algorithm 1; returns the residual field."""
        mesh = self.mesh
        mesh.validate_field(pressure, name="pressure")
        p = np.ascontiguousarray(pressure, dtype=self.dtype)
        shape = mesh.shape_zyx
        engine = self.engine
        self._residual.fill(0.0)

        with span("lockstep.application", backend="lockstep"):
            # Phase 1: local work on every PE (Eq. 5 + vertical fluxes)
            with span("lockstep.local"):
                evaluate_density_column(
                    engine,
                    p,
                    self._rho,
                    compressibility=self.fluid.compressibility,
                    reference_density=self.fluid.reference_density,
                    reference_pressure=self.fluid.reference_pressure,
                )
                if self.compute_fluxes:
                    for conn in (Connection.UP, Connection.DOWN):
                        local, neigh = interior_slices(shape, conn)
                        compute_face_flux_column(
                            engine,
                            self._scratch_for(local),
                            p[local],
                            p[neigh],
                            self._elev[local],
                            self._elev[neigh],
                            self._rho[local],
                            self._rho[neigh],
                            self.trans_fields[conn][local],
                            self._residual[local],
                            gravity=self.gravity,
                            inv_viscosity=self._inv_mu,
                        )

            # Phases 2-3: fabric exchanges (cardinal 1 hop, diagonal 2)
            for conns, hops, phase in self.exchange_plan:
                with span(phase):
                    for conn in conns:
                        local, neigh = interior_slices(shape, conn)
                        halo_p = self._halo[0][local]
                        halo_rho = self._halo[1][local]
                        engine.fmovs(halo_p, p[neigh], from_fabric=True)
                        engine.fmovs(halo_rho, self._rho[neigh], from_fabric=True)
                        words = 2 * halo_p.size * self._words_per_element
                        self._fabric_word_hops += words * hops
                        if self.compute_fluxes:
                            compute_face_flux_column(
                                engine,
                                self._scratch_for(local),
                                p[local],
                                halo_p,
                                self._elev[local],
                                self._elev[local],
                                self._rho[local],
                                halo_rho,
                                self.trans_fields[conn][local],
                                self._residual[local],
                                gravity=self.gravity,
                                inv_viscosity=self._inv_mu,
                            )

        self._applications += 1
        if self.record is not None:
            self.record.record_step(pressure, self._residual)
        return self._residual.copy()

    def run(self, pressures) -> LockstepRunResult:
        """Run one application per field; ``.residual`` is the last one's."""
        residual = None
        applications = 0
        for pressure in pressures:
            residual = self.run_application(pressure)
            applications += 1
        if residual is None:
            raise ValueError("no pressure fields supplied")
        return LockstepRunResult(residual, applications, self.report())

    # ------------------------------------------------------------------ #
    def report(self) -> LockstepReport:
        """Accounting accumulated since construction."""
        return LockstepReport(
            applications=self._applications,
            instruction_counts=dict(self.engine.counts),
            flops=self.engine.flops,
            fabric_words_received=self.engine.fabric_loads
            * self._words_per_element,
            fabric_word_hops=self._fabric_word_hops,
            compute_cycles=self.engine.cycles,
        )
