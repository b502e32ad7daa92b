"""The GPU reference flux computation (paper Sec. 6) as a cost model.

The reference kernels are "logically identical" to the dataflow one
(Sec. 6), so :class:`GpuFluxComputation` computes the residual with the
phased slab sweep lockstep, cluster and par run
(:class:`~repro.core.sweep.SlabSweep` over
:data:`~repro.core.sweep.PHASED_PROGRAM`, one block): lockstep's bytes.
What is the A100's own is the accounting around it, computed from the
mesh shape: the 14 device fields checked against device memory, the
one-time bulk H2D copy, one density and one flux launch of ``16 x 8 x 8``
threadblocks per application (RAJA-like clamped tiles and CUDA-like
bounds-checked ones launch the same grid), the pressure upload per
application and the residual's D2H copies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.fluid import FluidProperties
from repro.core.kernels import FLOPS_PER_FLUX
from repro.core.mesh import CartesianMesh3D
from repro.core.stencil import ALL_CONNECTIONS
from repro.core.sweep import PHASED_PROGRAM, PaddedLayout, SlabSweep, SlabWorkspace
from repro.core.transmissibility import Transmissibility
from repro.gpu.device import A100_40GB, OccupancyModel, TransferLog
from repro.gpu.launch import PAPER_TILE, TiledLaunch
from repro.obs.spans import span

__all__ = ["GpuFluxComputation", "GpuRunResult"]

#: The reference's device allocations, in allocation order (Sec. 6).
DEVICE_FIELDS = ("pressure", "density", "residual", "elevation") + tuple(
    f"trans_{conn.name}" for conn in ALL_CONNECTIONS
)


@dataclass
class GpuRunResult:
    """Outcome of a batch of kernel applications on the simulated GPU."""

    residual: np.ndarray
    applications: int
    kernel_launches: int
    tiles_executed: int
    occupancy: OccupancyModel
    #: the driver's traffic since construction, as of this run's end
    transfers: TransferLog
    flops: int
    variant: str = "raja"

    @property
    def flops_per_cell(self) -> float:
        """Executed FLOPs per cell per application (nominal 140)."""
        cells = self.residual.size * self.applications
        return self.flops / cells if cells else 0.0

    def as_metrics(self) -> dict:
        """Counters as a plain dict for the obs metrics registry."""
        return {
            "variant": self.variant,
            "applications": self.applications,
            "kernel_launches": self.kernel_launches,
            "tiles_executed": self.tiles_executed,
            "flops": self.flops,
        }


class GpuFluxComputation:
    """Cell-based TPFA flux kernel on a simulated A100-40GB.

    Parameters
    ----------
    mesh, fluid, trans:
        Problem definition.
    variant:
        ``"raja"`` (Fig. 7 policy, clamped tiles) or ``"cuda"``
        (manual grid + kernel-side bounds checks); both launch the
        paper's ``16 x 8 x 8`` threadblocks (:data:`PAPER_TILE`).
    dtype:
        Device floating dtype.
    """

    def __init__(
        self,
        mesh: CartesianMesh3D,
        fluid: FluidProperties,
        trans: Transmissibility | None = None,
        *,
        variant: str = "raja",
        dtype=np.float32,
        record=None,
    ) -> None:
        if variant not in ("raja", "cuda"):
            raise ValueError(f"variant must be 'raja' or 'cuda', got {variant!r}")
        self.mesh = mesh
        self.fluid = fluid
        self.variant = variant
        self.dtype = np.dtype(dtype)
        #: Optional :class:`~repro.obs.replay.ReplayRecorder`; recording
        #: adds one d2h readback per application (normally the residual
        #: stays device-resident until the batch-final copy).
        self.record = record
        self._field_bytes = mesh.num_cells * self.dtype.itemsize
        # the paper's mesh fits the 40 GB device whole (Sec. 6)
        capacity = A100_40GB.device_memory_bytes
        fits = capacity // self._field_bytes
        if fits < len(DEVICE_FIELDS):
            raise MemoryError(
                f"device OOM allocating {DEVICE_FIELDS[fits]!r}: need "
                f"{self._field_bytes} B, used {fits * self._field_bytes} of {capacity} B"
            )
        self._launch = TiledLaunch(mesh.shape_zyx, PAPER_TILE, clamp=variant == "raja")
        self.occupancy = OccupancyModel(A100_40GB, self._launch.threads_per_block)
        nz, ny, nx = mesh.shape_zyx
        # fluxes the cell-based kernel evaluates per application: every
        # face once from either side
        self._faces = sum(
            (nz - abs(dz)) * (ny - abs(dy)) * (nx - abs(dx))
            for dx, dy, dz in (conn.offset for conn in ALL_CONNECTIONS)
        )
        layout = PaddedLayout(mesh, fluid, self.dtype, trans)
        self._sweep = SlabSweep(layout, PHASED_PROGRAM, SlabWorkspace([layout]), "gpu")
        self._residual = np.empty((1, layout.lanes), self.dtype)
        self._interior = layout.interior(self._residual)[0]
        # one bulk host-to-device copy before any kernel runs (Sec. 6):
        # the elevation and the ten transmissibility fields
        self.transfers = TransferLog()
        self.transfers.h2d(self._field_bytes, 11)

    def run(self, pressures) -> GpuRunResult:
        """Run one density + flux kernel pair per pressure field; the
        result counts this run's launches, tiles and FLOPs only."""
        applications = 0
        residual = np.empty(self.mesh.shape_zyx, self.dtype)
        backend = f"gpu/{self.variant}"
        for pressure in pressures:
            with span("gpu.application", backend=backend, **self._launch.describe()):
                with span("gpu.h2d"):
                    self._sweep.load([pressure])
                    self.transfers.h2d(self._field_bytes)
                self._residual.fill(0)
                self._sweep.run(self._residual)
                applications += 1
                if self.record is not None:
                    with span("gpu.d2h"):
                        self._d2h(residual)
                    self.record.record_step(pressure, residual)
        if applications == 0:
            raise ValueError("no pressure fields supplied")
        with span("gpu.d2h"):
            self._d2h(residual)
        return GpuRunResult(
            residual=residual,
            applications=applications,
            kernel_launches=2 * applications,
            tiles_executed=2 * applications * self._launch.num_blocks,
            occupancy=self.occupancy,
            transfers=replace(self.transfers),
            flops=applications * FLOPS_PER_FLUX * self._faces,
            variant=self.variant,
        )

    def _d2h(self, host: np.ndarray) -> None:
        np.copyto(host, self._interior)
        self.transfers.d2h(self._field_bytes)
