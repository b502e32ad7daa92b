"""The fused backend: whole-array execution of the IR's per-color rounds.

This is the raw-speed ceiling for pure Python: instead of simulating one
message at a time (event) or one communication phase per application
(lockstep), the fused backend batches *all* applications of a run along
a leading axis and executes each per-color communication round as one
whole-array NumPy kernel call — the ufunc count is independent of the
number of applications.

Bit-identity with the event backend (same conform fold class) comes from
two properties:

* Every kernel call issues exactly the element-wise operations of
  :func:`~repro.dataflow.flux_pe.compute_face_flux_column` on the same
  values — element-wise ufuncs over a batched array produce the same
  bits per element as per-column calls.  X-Y faces pass the *same*
  elevation view twice, taking the kernel's collapsed branch exactly
  like the event backend's receive task does.
* Per-connection contributions are first materialized into full-shape
  arrays, then folded into the residual **in the event backend's per-PE
  arrival order** (the IR's fold schedule, :mod:`repro.ir.schedule`:
  at most 16 classes of PEs, each a stride-2 rectangle): round ``k``
  adds, with one basic-slice ``+=`` per class, the connection that
  arrives ``k``-th at that class's PEs.  Each PE appears at most once
  per round, so its residual sees its contributions in exactly its
  arrival order.  The one rewrite — the
  contribution array holds ``0.0 + f`` rather than ``f`` — only flips
  the sign of zero contributions, and a residual accumulated from
  ``+0.0`` can never be ``-0.0``, so the flipped bit is unobservable
  (same argument as the kernel's collapsed branch).

Fabric traffic is accounted arithmetically from the IR's exchange plan
(2·nz words per face, 1 hop cardinal / 2 hops diagonal) — no halo
copies are performed, which is also where the throughput win over the
lockstep simulator comes from.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.core import constants
from repro.core.fluid import FluidProperties
from repro.core.mesh import CartesianMesh3D
from repro.core.stencil import Connection, interior_slices
from repro.core.transmissibility import Transmissibility
from repro.dataflow.flux_pe import (
    FluxScratch,
    compute_face_flux_column,
    evaluate_density_column,
)
from repro.dataflow.program import padded_trans_fields
from repro.ir.builder import derive_ir
from repro.ir.schema import KIND_PROGRAM, FabricProgramIR
from repro.ir.schedule import arrival_schedule, schedule_classes
from repro.obs.spans import span
from repro.wse.dsd import DsdEngine

__all__ = ["FusedFluxComputation", "FusedReport", "FusedRunResult"]


@dataclass
class FusedReport:
    """Aggregate accounting of a fused run (lockstep-report shape plus
    the IR-build and schedule-probe startup costs)."""

    applications: int
    instruction_counts: dict[str, int]
    flops: int
    fabric_words_received: int
    fabric_word_hops: int
    compute_cycles: float
    ir_build_seconds: float
    schedule_seconds: float

    def as_metrics(self) -> dict:
        return {
            "applications": self.applications,
            "instruction_counts": dict(self.instruction_counts),
            "flops": self.flops,
            "fabric_words_received": self.fabric_words_received,
            "fabric_word_hops": self.fabric_word_hops,
            "compute_cycles": self.compute_cycles,
            "ir_build_seconds": self.ir_build_seconds,
            "schedule_seconds": self.schedule_seconds,
        }


@dataclass
class FusedRunResult:
    """Result of one fused run."""

    residual: np.ndarray
    applications: int
    elapsed_seconds: float
    cells: int
    residuals: list | None = None

    @property
    def throughput_cells_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return float("inf")
        return self.cells * self.applications / self.elapsed_seconds


class FusedFluxComputation:
    """IR-lowered whole-array flux computation.

    Parameters mirror :class:`~repro.dataflow.driver.WseFluxComputation`
    where applicable.  Pass ``ir=`` to lower an existing
    :class:`FabricProgramIR`; otherwise the IR is derived from the mesh
    and parameters at construction (``ir_build_seconds`` on the report).
    """

    def __init__(
        self,
        mesh: CartesianMesh3D,
        fluid: FluidProperties,
        trans: Transmissibility | None = None,
        *,
        gravity: float = constants.GRAVITY,
        dtype=np.float32,
        reuse_buffers: bool = True,
        vectorized: bool = True,
        compute_fluxes: bool = True,
        overlap_compute: bool = True,
        record=None,
        ir: FabricProgramIR | None = None,
    ) -> None:
        self.mesh = mesh
        self.fluid = fluid
        self.dtype = np.dtype(dtype)
        self.compute_fluxes = bool(compute_fluxes)
        self.record = record

        t0 = perf_counter()
        with span("fused.ir_build"):
            if ir is None:
                ir = derive_ir(
                    mesh,
                    dtype=self.dtype,
                    reuse_buffers=reuse_buffers,
                    vectorized=vectorized,
                    compute_fluxes=compute_fluxes,
                    overlap_compute=overlap_compute,
                )
        self.ir_build_seconds = perf_counter() - t0
        _check_ir_lowerable(ir, mesh, self.dtype)
        self.ir = ir
        params = ir.params
        self._vectorized = ir.vectorized
        self.compute_fluxes = params["compute_fluxes"]

        if trans is None:
            trans = Transmissibility(mesh, dtype=self.dtype)
        elif trans.mesh is not mesh:
            raise ValueError("trans was built for a different mesh")
        self.trans_fields = padded_trans_fields(mesh, trans, self.dtype)
        self.engine = DsdEngine(vectorized=self._vectorized)
        self._elev = np.ascontiguousarray(mesh.elevation, dtype=self.dtype)
        _scalar = self.dtype.type
        self._inv_viscosity = _scalar(1.0 / fluid.viscosity)
        self._gravity = _scalar(gravity)
        self._words_per_element = max(1, self.dtype.itemsize // 4)
        self._applications = 0
        self._fabric_loads = 0
        self._fabric_word_hops = 0

        # the fold schedule is a derived annotation: it amortizes like a
        # backend compile step and stays out of the content hash
        options = {
            "reuse_buffers": params["reuse_buffers"],
            "overlap_compute": params["overlap_compute"],
            "vectorized": self._vectorized,
        }
        t1 = perf_counter()
        with span("fused.schedule"):
            self._rounds = _fold_rounds(
                schedule_classes(mesh.nx, mesh.ny, **options)
            )
            schedule = arrival_schedule(mesh.nx, mesh.ny, **options)
        self.schedule_seconds = perf_counter() - t1
        ir.annotate(
            "fold_schedule",
            {f"{x},{y}": list(order) for (x, y), order in sorted(schedule.items())},
        )

    # ------------------------------------------------------------------ #
    def run(self, pressures, *, keep_all: bool = False) -> FusedRunResult:
        """Run one application per pressure field, batched."""
        fields = list(pressures)
        if not fields:
            raise ValueError("no pressure fields supplied")
        mesh = self.mesh
        for field in fields:
            mesh.validate_field(field, name="pressure")
        started = perf_counter()
        batch = len(fields)
        shape = mesh.shape_zyx
        nz, ny, nx = shape
        engine = self.engine

        with span("fused.run", backend="fused", applications=batch):
            p = np.empty((batch,) + shape, self.dtype)
            for i, field in enumerate(fields):
                p[i] = field  # cast, exactly like load_pressure
            rho = np.empty_like(p)
            residual = np.zeros_like(p)
            scratch_full = tuple(
                np.zeros((batch,) + shape, self.dtype) for _ in range(4)
            )

            def scratch_for(index):
                a, b, c, d = scratch_full
                return FluxScratch(a[index], b[index], c[index], d[index])

            with span("fused.local"):
                evaluate_density_column(
                    engine,
                    p,
                    rho,
                    compressibility=self.fluid.compressibility,
                    reference_density=self.fluid.reference_density,
                    reference_pressure=self.fluid.reference_pressure,
                )
                if self.compute_fluxes:
                    for conn in (Connection.UP, Connection.DOWN):
                        local, neigh = interior_slices(shape, conn)
                        bl = (slice(None),) + local
                        bn = (slice(None),) + neigh
                        compute_face_flux_column(
                            engine,
                            scratch_for(bl),
                            p[bl],
                            p[bn],
                            self._elev[local],
                            self._elev[neigh],
                            rho[bl],
                            rho[bn],
                            self.trans_fields[conn][local],
                            residual[bl],
                            gravity=self._gravity,
                            inv_viscosity=self._inv_viscosity,
                        )

            # per-connection contribution arrays, one whole-array kernel
            # call each; traffic booked from the IR's exchange plan
            contributions: dict[Connection, np.ndarray] = {}
            with span("fused.rounds"):
                for connections, hops, _phase in self.ir.exchange_plan:
                    for conn in connections:
                        local, neigh = interior_slices(shape, conn)
                        bl = (slice(None),) + local
                        contribution = np.zeros_like(p)
                        if self.compute_fluxes:
                            # X-Y neighbours share the elevation column:
                            # same view object twice -> collapsed branch,
                            # exactly like the event receive task
                            elev_view = self._elev[local]
                            compute_face_flux_column(
                                engine,
                                scratch_for(bl),
                                p[bl],
                                p[(slice(None),) + neigh],
                                elev_view,
                                elev_view,
                                rho[bl],
                                rho[(slice(None),) + neigh],
                                self.trans_fields[conn][local],
                                contribution[bl],
                                gravity=self._gravity,
                                inv_viscosity=self._inv_viscosity,
                            )
                        contributions[conn] = contribution
                        dx, dy, _dz = conn.offset
                        faces = (ny - abs(dy)) * (nx - abs(dx))
                        words = 2 * nz * faces * batch
                        self._fabric_loads += words
                        self._fabric_word_hops += (
                            words * self._words_per_element * hops
                        )

            # serial fold: event arrival order, one basic-slice add per
            # (round, schedule class)
            with span("fused.fold"):
                for groups in self._rounds:
                    for conn, ys, xs in groups:
                        residual[:, :, ys, xs] += contributions[conn][
                            :, :, ys, xs
                        ]

        self._applications += batch
        if self.record is not None:
            for i, field in enumerate(fields):
                self.record.record_step(field, residual[i])
        elapsed = perf_counter() - started
        residuals = None
        if keep_all:
            residuals = [residual[i].copy() for i in range(batch)]
        return FusedRunResult(
            residual=residual[batch - 1].copy(),
            applications=batch,
            elapsed_seconds=elapsed,
            cells=mesh.nx * mesh.ny * mesh.nz,
            residuals=residuals,
        )

    # ------------------------------------------------------------------ #
    def report(self) -> FusedReport:
        """Accounting accumulated since construction."""
        return FusedReport(
            applications=self._applications,
            instruction_counts=dict(self.engine.counts),
            flops=self.engine.flops,
            fabric_words_received=self._fabric_loads
            * self._words_per_element,
            fabric_word_hops=self._fabric_word_hops,
            compute_cycles=self.engine.cycles,
            ir_build_seconds=self.ir_build_seconds,
            schedule_seconds=self.schedule_seconds,
        )


def _check_ir_lowerable(
    ir: FabricProgramIR, mesh: CartesianMesh3D, dtype: np.dtype
) -> None:
    if ir.kind != KIND_PROGRAM:
        raise ValueError(
            f"cannot lower a {ir.kind!r} IR to the fused backend "
            "(needs a flux-program IR with mesh and params)"
        )
    if ir.remap is not None:
        raise ValueError(
            "fused backend does not support spare-column remapping "
            "(the fold schedule is tiled from a probe of the unmapped "
            "fabric; bypass columns break its period-2 law)"
        )
    if ir.mesh_shape != (mesh.nx, mesh.ny, mesh.nz):
        raise ValueError(
            f"IR was built for mesh {ir.mesh_shape}, got "
            f"({mesh.nx}, {mesh.ny}, {mesh.nz})"
        )
    if np.dtype(ir.params["dtype"]) != dtype:
        raise ValueError(
            f"IR was built for dtype {ir.params['dtype']}, got {dtype.name}"
        )
    if not ir.exchange_plan:
        raise ValueError("IR carries no exchange plan to lower")


def _fold_rounds(classes) -> list[list[tuple[Connection, slice, slice]]]:
    """Regroup the schedule's classes into basic-slice fold rounds.

    Round ``k`` holds one ``(connection, y-slice, x-slice)`` per class
    that has a ``k``-th arrival; the classes partition the fabric, so a
    PE appears at most once per round and adding rounds in order replays
    each PE's serial fold.
    """
    depth = max((len(order) for order, _ys, _xs in classes), default=0)
    return [
        [
            (Connection[order[k]], ys, xs)
            for order, ys, xs in classes
            if k < len(order)
        ]
        for k in range(depth)
    ]
