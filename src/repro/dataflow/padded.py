"""What the fabric models add to the core slab sweep: accounting, and
the batched driver of the fused and lockstep backends.

Both run :class:`~repro.core.sweep.SlabSweep` (DESIGN.md §16) over one
batch of applications with their own fold program: UP, DOWN, then the
exchange plan (lockstep) or the masked fold schedule (fused).
:class:`PaddedSweep` casts the fields in, runs the sweep under the
backend's spans, hands every residual to ``record=`` and books one batch
at true cell and face counts (:meth:`PaddedSweep.book`: both faces of
every pair, as the hardware computes them, although the sweep evaluates
each face once), which :meth:`PaddedSweep.report` reports for both
backends.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro.core.fluid import FluidProperties
from repro.core.mesh import CartesianMesh3D
from repro.core.stencil import Connection
from repro.core.sweep import PaddedLayout, SlabSweep, SlabWorkspace
from repro.core.transmissibility import Transmissibility
from repro.obs.spans import span
from repro.wse.dsd import DENSITY_EXP_CYCLES_PER_ELEMENT, DsdEngine

__all__ = ["LockstepReport", "LockstepRunResult", "PaddedSweep"]


@dataclass
class LockstepReport:
    """Aggregate accounting of a lockstep or fused run."""

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
    """Outcome of a lockstep or fused ``run()``: the last residual and
    the driver's accounting so far (every residual goes to ``record=``)."""

    residual: np.ndarray
    applications: int
    report: LockstepReport

    def as_metrics(self) -> dict:
        """The report's counters (obs metrics registry shape)."""
        return self.report.as_metrics()


class PaddedSweep:
    """The batched slab-sweep driver of the lockstep and fused backends.

    *ir* is the program's :class:`~repro.ir.schema.FabricProgramIR`: its
    ``params`` give the dtype and ``compute_fluxes``, ``vectorized`` the
    DSD cost model, and its exchange plan, ``(connections, hops,
    phase)`` per communication phase in fold order, the booked traffic.
    An IR built for another mesh, or one with no exchange plan, is
    refused.  *program* is the driver's fold program (UP, DOWN, then its
    X-Y steps); with ``compute_fluxes=False`` its unmasked steps vanish.
    ``halo_copies`` says whether the backend books the fabric's moves of
    neighbour columns into halo storage (lockstep: two FMOVs per face)
    or traffic only (fused).  Both read the neighbour in place.  *name*
    prefixes the spans (``.run`` and the sweep's).
    """

    def __init__(self, mesh: CartesianMesh3D, fluid: FluidProperties,
                 trans: Transmissibility | None, ir, program, name: str, *,
                 halo_copies: bool, record) -> None:
        shape = (mesh.nx, mesh.ny, mesh.nz)
        if ir.mesh_shape != shape:
            raise ValueError(
                f"IR mismatch on mesh shape: program has {shape!r}, IR says {ir.mesh_shape!r}"
            )
        #: fold order: ``(connections, hops, phase)`` per phase
        self.exchange_plan = ir.exchange_plan
        if not self.exchange_plan:
            raise ValueError("IR carries no exchange plan to lower")
        #: the :class:`~repro.ir.schema.FabricProgramIR` this driver runs
        self.ir = ir
        params = ir.params
        self.mesh, self.fluid = mesh, fluid
        self.dtype = dtype = np.dtype(params["dtype"])
        self.layout = PaddedLayout(mesh, fluid, dtype, trans)
        #: the padded transmissibility fields the batch shares, one per face pair
        self.trans_fields = self.layout.trans
        self.compute_fluxes = params["compute_fluxes"]
        self.program = [
            (conn, mask) for conn, mask in program if mask is not None or self.compute_fluxes
        ]
        self.halo_copies = halo_copies
        #: optional :class:`~repro.obs.replay.ReplayRecorder` digesting
        #: every (pressure, residual) application pair
        self.record = record
        self._name = name
        self._sweep: SlabSweep | None = None
        #: booked at true cell and face counts by :meth:`book`
        self.engine = DsdEngine(vectorized=ir.vectorized)
        self.applications = self.fabric_loads = self.fabric_word_hops = 0
        self._words_per_element = max(1, dtype.itemsize // 4)
        nz, ny, nx = mesh.shape_zyx
        self.cells = nz * ny * nx
        #: per connection: the true faces among the padded lanes swept
        self.faces = {}
        for conn in Connection:
            dx, dy, dz = conn.offset
            self.faces[conn] = (nz - abs(dz)) * (ny - abs(dy)) * (nx - abs(dx))
        self._per_application = self._book_one_application()

    def run(self, pressures) -> LockstepRunResult:
        """Run one application per pressure field, batched."""
        fields = list(pressures)
        if not fields:
            raise ValueError("no pressure fields supplied")
        batch, layout, name = len(fields), self.layout, self._name
        with span(f"{name}.run", backend=name, applications=batch):
            sweep = self._sweep
            if sweep is None or sweep.p.shape[0] != batch:
                sweep = self._sweep = SlabSweep(
                    layout, self.program, SlabWorkspace([layout], batch), name,
                    self.compute_fluxes,
                )
            sweep.load(fields)  # cast, exactly like load_pressure
            # what a run hands out must start from zero anyway: it is
            # allocated here and dropped with the run, so it neither
            # aliases a later run nor stays resident between runs
            residual = np.zeros_like(sweep.p)
            sweep.run(residual)
            self.book(batch)
            residual = layout.interior(residual)

        if self.record is not None:
            for i, field in enumerate(fields):
                self.record.record_step(field, residual[i])
        # the result is a contiguous copy: it does not pin the padded batch
        return LockstepRunResult(residual[batch - 1].copy(), batch, self.report())

    def _book_one_application(self) -> tuple:
        """What :meth:`book` adds per application: one application's
        bookings on a scratch engine, at true cell and face counts, in
        per-face execution order; traffic from the exchange plan."""
        engine, faces = DsdEngine(vectorized=self.engine.vectorized), self.faces
        engine.aux("FEXP", self.cells, cycles_per_element=DENSITY_EXP_CYCLES_PER_ELEMENT)
        if self.compute_fluxes:
            for conn in (Connection.UP, Connection.DOWN):
                engine.account_flux_column(faces[conn])
        loads = word_hops = 0
        for connections, hops, _phase in self.exchange_plan:
            for conn in connections:
                n = faces[conn]
                if self.halo_copies:
                    engine.account_fabric_moves(n)  # pressure
                    engine.account_fabric_moves(n)  # density
                if self.compute_fluxes:
                    engine.account_flux_column(n)
                loads += 2 * n
                word_hops += 2 * n * self._words_per_element * hops
        return engine, loads, word_hops

    def book(self, batch: int) -> None:
        """One batch of applications: *batch* times one application's
        bookings.  Every count and cycle booked is an integer (far below
        2**53), so the sums are exact in any grouping, ``compute_cycles``
        (a float) included, and the counts keep the keys' first-booking
        order."""
        one, fabric_loads, word_hops = self._per_application
        engine = self.engine
        for key, n in one.counts.items():
            engine.counts[key] = engine.counts.get(key, 0) + batch * n
        engine.loads += batch * one.loads
        engine.stores += batch * one.stores
        engine.fabric_loads += batch * one.fabric_loads
        engine.flops += batch * one.flops
        engine.cycles += batch * one.cycles
        self.fabric_loads += batch * fabric_loads
        self.fabric_word_hops += batch * word_hops
        self.applications += batch

    def report(self) -> LockstepReport:
        """Accounting accumulated since construction."""
        return LockstepReport(
            applications=self.applications,
            instruction_counts=dict(self.engine.counts),
            flops=self.engine.flops,
            fabric_words_received=self.fabric_loads * self._words_per_element,
            fabric_word_hops=self.fabric_word_hops,
            compute_cycles=self.engine.cycles,
        )
