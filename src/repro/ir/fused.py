"""The fused backend: whole-array execution of the IR's per-color rounds.

This is the raw-speed ceiling for pure Python: instead of simulating one
message at a time (event) or one communication phase per application
(lockstep), the fused backend batches *all* applications of a run along
a leading axis and executes each per-color communication round as one
whole-array NumPy kernel call — the ufunc count is independent of the
number of applications.

Batched arrays are x/y-halo-padded and flat,
``(batch, nz*(ny+2)*(nx+2))``: every neighbour is a constant flat
shift, so every ufunc of every round is a contiguous 2-D op.  Halo
faces carry zero transmissibility and halo pressure is finite, so halo
lanes compute finite zeros that the fold — which only touches classes
that have the neighbour — never reads (DESIGN.md §16).  Inputs and
scratch persist in a per-instance workspace; what a run accumulates
into is zero-allocated per run.

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

from dataclasses import asdict, dataclass
from time import perf_counter

import numpy as np

from repro.core import constants
from repro.core.fluid import FluidProperties
from repro.core.mesh import CartesianMesh3D
from repro.core.stencil import Connection
from repro.core.transmissibility import Transmissibility
from repro.dataflow.flux_pe import (
    DENSITY_EXP_CYCLES_PER_ELEMENT,
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
        return asdict(self)


@dataclass
class FusedRunResult:
    """Result of one fused run."""

    residual: np.ndarray
    applications: int
    elapsed_seconds: float
    cells: int
    report: FusedReport
    residuals: list | None = None

    def as_metrics(self) -> dict:
        """The driver's accounting so far (obs metrics registry shape)."""
        return self.report.as_metrics()

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
        self.engine = DsdEngine(vectorized=self._vectorized)
        #: books the padded lanes the kernels sweep, and is never read:
        #: run() books the true face and cell counts on ``engine``
        self._lanes = DsdEngine(vectorized=self._vectorized)
        _scalar = self.dtype.type
        self._inv_viscosity = _scalar(1.0 / fluid.viscosity)
        self._gravity = _scalar(gravity)
        self._words_per_element = max(1, self.dtype.itemsize // 4)
        self._applications = 0
        self._fabric_loads = 0
        self._fabric_word_hops = 0

        # x/y-halo-padded flat layout: cell (z, y, x) sits at
        # z*plane + (y+1)*row + (x+1), so a connection is the constant
        # flat shift dz*plane + dy*row + dx.  Halo faces get zero Upsilon:
        # halo lanes compute finite zeros nobody reads.
        nz, ny, nx = mesh.shape_zyx
        row, plane = nx + 2, (ny + 2) * (nx + 2)
        self._padded_shape = (nz, ny + 2, row)

        elev = np.zeros(self._padded_shape, self.dtype)
        elev[:, 1:-1, 1:-1] = mesh.elevation
        self._elev_flat = elev.ravel()
        self._trans_flat = {
            conn: field.ravel()
            for conn, field in padded_trans_fields(
                mesh, trans, self.dtype, xy_halo=1
            ).items()
        }
        self.trans_fields = {
            conn: _interior(field, self._padded_shape)
            for conn, field in self._trans_flat.items()
        }
        #: per connection (first lane, lanes swept, neighbour shift): X-Y
        #: sweeps run from the first interior cell to the last, vertical
        #: ones over all planes but one; and the true faces among them
        self._spans, self._faces = {}, {}
        for conn in Connection:
            dx, dy, dz = conn.offset
            lo, lanes = row + 1, nz * plane - 2 * (row + 1)
            if dz:
                lo, lanes = (0 if dz > 0 else plane), (nz - 1) * plane
            self._spans[conn] = (lo, lanes, dz * plane + dy * row + dx)
            self._faces[conn] = (nz - abs(dz)) * (ny - abs(dy)) * (nx - abs(dx))
        self._workspace: _Workspace | None = None

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
        engine, padded = self.engine, self._padded_shape
        cells = mesh.nx * mesh.ny * mesh.nz

        with span("fused.run", backend="fused", applications=batch):
            ws = self._workspace
            if ws is None or ws.batch != batch:
                ws = self._workspace = _Workspace(self, batch)
            for i, field in enumerate(fields):
                ws.pressure[i] = field  # cast, exactly like load_pressure
            # what a run accumulates into must start from zero anyway: it
            # is allocated here and dropped with the run, so it neither
            # aliases a later run nor stays resident between runs
            residual = np.zeros_like(ws.p)

            with span("fused.local"):
                evaluate_density_column(
                    self._lanes,
                    ws.p,
                    ws.rho,
                    compressibility=self.fluid.compressibility,
                    reference_density=self.fluid.reference_density,
                    reference_pressure=self.fluid.reference_pressure,
                )
                engine.aux(
                    "FEXP",
                    cells * batch,
                    cycles_per_element=DENSITY_EXP_CYCLES_PER_ELEMENT,
                )
                if self.compute_fluxes:
                    for conn in (Connection.UP, Connection.DOWN):
                        self._face_kernel(ws, conn, residual)

            # per-connection contribution arrays, one whole-array kernel
            # call each; traffic booked from the IR's exchange plan
            contributions: dict[Connection, np.ndarray] = {}
            with span("fused.rounds"):
                for connections, hops, _phase in self.ir.exchange_plan:
                    for conn in connections:
                        contribution = np.zeros_like(ws.p)
                        if self.compute_fluxes:
                            self._face_kernel(ws, conn, contribution)
                        contributions[conn] = _interior(contribution, padded)
                        words = 2 * self._faces[conn] * batch
                        self._fabric_loads += words
                        self._fabric_word_hops += words * self._words_per_element * hops

            # serial fold: event arrival order, one basic-slice add per
            # (round, schedule class)
            with span("fused.fold"):
                residual = _interior(residual, padded)
                for groups in self._rounds:
                    for conn, ys, xs in groups:
                        residual[:, :, ys, xs] += contributions[conn][:, :, ys, xs]

        self._applications += batch
        if self.record is not None:
            for i, field in enumerate(fields):
                self.record.record_step(field, residual[i])
        elapsed = perf_counter() - started
        # results are contiguous copies: they do not pin the padded batch
        residuals = None
        if keep_all:
            residuals = [residual[i].copy() for i in range(batch)]
        return FusedRunResult(
            residual=residual[batch - 1].copy(),
            applications=batch,
            elapsed_seconds=elapsed,
            cells=cells,
            report=self.report(),
            residuals=residuals,
        )

    def _face_kernel(self, ws: "_Workspace", conn: Connection, target) -> None:
        """Accumulate one connection's fluxes over its padded span into
        the flat *target*, booked at the true face count."""
        lo, lanes, _shift = self._spans[conn]
        compute_face_flux_column(
            self._lanes,
            *ws.operands[conn],
            target[:, lo : lo + lanes],
            gravity=self._gravity,
            inv_viscosity=self._inv_viscosity,
        )
        self.engine.account_flux_column(self._faces[conn] * ws.batch)

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


class _Workspace:
    """What a run needs but does not return, for one batch size.

    Pressure, density, three float scratch arrays and the integer
    select buffer, halo-padded and flat: ``(batch, nz*(ny+2)*(nx+2))``.
    None needs initialising per run (halo pressure is a finite constant
    set here, so halo density is finite too); every kernel operand is a
    constant flat shift of one of them, sliced here once.
    """

    def __init__(self, fused: FusedFluxComputation, batch: int) -> None:
        dtype = fused.dtype
        shape = (batch, fused._elev_flat.size)
        self.batch = batch
        self.p = p = np.full(shape, fused.fluid.reference_pressure, dtype)
        self.rho = rho = np.empty(shape, dtype)
        self.pressure = _interior(p, fused._padded_shape)
        dp, a, b = (np.empty(shape, dtype) for _ in range(3))
        sel = np.empty(shape, f"u{dtype.itemsize}")
        gz = np.empty(shape[1], dtype)  # g*(z_L - z_K) is the same for every field
        #: compute_face_flux_column's operands up to the target, per connection
        self.operands = {}
        for conn, (lo, lanes, shift) in fused._spans.items():
            here, there = slice(lo, lo + lanes), slice(lo + shift, lo + shift + lanes)
            # X-Y neighbours share the elevation column: same view object
            # twice -> collapsed branch, exactly like the event receive task
            z_k = fused._elev_flat[here]
            z_l = fused._elev_flat[there] if conn.is_vertical else z_k
            self.operands[conn] = (
                FluxScratch(*(x[..., :lanes] for x in (dp, gz, a, b, sel))),
                p[:, here],
                p[:, there],
                z_k,
                z_l,
                rho[:, here],
                rho[:, there],
                fused._trans_flat[conn][here],
            )


def _interior(flat: np.ndarray, padded_shape: tuple[int, int, int]) -> np.ndarray:
    """The real cells of a halo-padded flat array, as a ``(..., nz, ny, nx)`` view."""
    return flat.reshape(flat.shape[:-1] + padded_shape)[..., 1:-1, 1:-1]


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
