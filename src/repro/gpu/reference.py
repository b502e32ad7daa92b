"""The GPU reference flux computation (paper Sec. 6).

:class:`GpuFluxComputation` reproduces the structure of the reference
implementations end to end: host and device allocation, the one-time bulk
H2D copy, per-application kernel launches over 3D threadblocks (RAJA-like
clamped tiles or CUDA-like manually-bounded tiles), and the final D2H
copy.  The flux function is "logically identical" to the dataflow one
(Sec. 6): each tile runs the statement the fabric kernels book,
:func:`repro.core.kernels.face_flux`, and folds in the PE program's
order, :data:`repro.core.sweep.PHASED_PROGRAM`: lockstep's bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import constants
from repro.core.fluid import FluidProperties
from repro.core.kernels import FLOPS_PER_CELL, FluxScratch, face_flux
from repro.core.mesh import CartesianMesh3D
from repro.core.stencil import ALL_CONNECTIONS
from repro.core.sweep import PHASED_PROGRAM
from repro.core.transmissibility import Transmissibility, padded_trans_fields
from repro.gpu.cuda import cuda_kernel
from repro.gpu.device import A100_40GB, OccupancyModel
from repro.gpu.launch import PAPER_TILE, Tile, TiledLaunch
from repro.gpu.memory import DeviceMemoryManager, TransferLog
from repro.gpu.raja import raja_kernel
from repro.obs.spans import span

__all__ = ["GpuFluxComputation", "GpuRunResult"]


@dataclass
class GpuRunResult:
    """Outcome of a batch of kernel applications on the simulated GPU."""

    residual: np.ndarray
    applications: int
    kernel_launches: int
    tiles_executed: int
    occupancy: OccupancyModel
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
        if trans is None:
            trans = Transmissibility(mesh, dtype=dtype)
        elif trans.mesh is not mesh:
            raise ValueError("trans was built for a different mesh")
        tx, ty, tz = PAPER_TILE
        self.occupancy = OccupancyModel(A100_40GB, threads_per_block=tx * ty * tz)
        #: Optional :class:`~repro.obs.replay.ReplayRecorder`; recording
        #: adds one d2h readback per application (normally the residual
        #: stays device-resident until the batch-final copy).
        self.record = record

        # --- allocate device memory and upload the static mesh data ----
        shape = mesh.shape_zyx
        self.dev = DeviceMemoryManager(A100_40GB)
        self.dev.alloc("pressure", shape, self.dtype)
        self.dev.alloc("density", shape, self.dtype)
        self.dev.alloc("residual", shape, self.dtype)
        self.dev.alloc("elevation", shape, self.dtype)
        trans_fields = padded_trans_fields(mesh, trans, self.dtype)
        for conn in ALL_CONNECTIONS:
            self.dev.alloc(f"trans_{conn.name}", shape, self.dtype)
        # one bulk host-to-device copy before any kernel runs (Sec. 6)
        self.dev.h2d("elevation", np.asarray(mesh.elevation, dtype=self.dtype))
        for conn in ALL_CONNECTIONS:
            self.dev.h2d(f"trans_{conn.name}", trans_fields[conn])
        self._launch_helper = TiledLaunch(shape, PAPER_TILE, clamp=True)
        #: the mobility rho * (1/mu), formed by the density kernel: a
        #: temporary of the model, not a device allocation
        self._mobility = np.empty(shape, self.dtype)
        self._gravity = self.dtype.type(constants.GRAVITY)

    # ------------------------------------------------------------------ #
    # Device kernels
    # ------------------------------------------------------------------ #
    def _density_tile(self, tile: Tile) -> None:
        """Eq. 5 and the mobility for one tile (the density kernel)."""
        p = self.dev.get("pressure")[tile.slices]
        rho = self.dev.get("density")[tile.slices]
        self.fluid.density(p, out=rho)
        self.fluid.mobility(rho, out=self._mobility[tile.slices])

    def _flux_tile(self, tile: Tile) -> None:
        """All ten per-cell fluxes for one tile (the flux kernel body).

        Each cell reads its own and its neighbours' state straight from
        shared device memory — "we do not need to transfer the data among
        cells and can directly refer to the data using simple index
        arithmetic" (Sec. 6).
        """
        p = self.dev.get("pressure")
        rho = self.dev.get("density")
        lam = self._mobility
        z = self.dev.get("elevation")
        res = self.dev.get("residual")
        res[tile.slices] = 0.0
        for conn, _mask in PHASED_PROGRAM:
            views = self._launch_helper.tile_direction_views(tile, conn)
            if views is None:
                continue
            local, neigh = views
            scratch = FluxScratch.empty(res[local].shape, self.dtype)
            face_flux(
                scratch, p[local], p[neigh], z[local], z[neigh],
                rho[local], rho[neigh], lam[local], lam[neigh],
                self.dev.get(f"trans_{conn.name}")[local], scratch.dp,
                self._gravity,
            )
            res[local] += scratch.dp
            self._flops += scratch.dp.size * (FLOPS_PER_CELL // 10)

    def _launch(self, body) -> int:
        """Dispatch one kernel with the configured launch style."""
        with span(
            f"gpu.{body.__name__.lstrip('_')}",
            backend=f"gpu/{self.variant}",
            **self._launch_helper.describe(),
        ):
            launch = raja_kernel if self.variant == "raja" else cuda_kernel
            return launch(self.mesh.shape_zyx, body).tiles_executed

    # ------------------------------------------------------------------ #
    def run(self, pressures) -> GpuRunResult:
        """Run one density + flux kernel pair per pressure field; the
        result counts this run's launches, tiles and FLOPs only."""
        applications = self._flops = self._tiles = self._launches = 0
        host_residual = np.zeros(self.mesh.shape_zyx, dtype=self.dtype)
        for pressure in pressures:
            with span("gpu.application", backend=f"gpu/{self.variant}"):
                self.mesh.validate_field(pressure, name="pressure")
                with span("gpu.h2d"):
                    self.dev.h2d(
                        "pressure", np.asarray(pressure, dtype=self.dtype)
                    )
                self._tiles += self._launch(self._density_tile)
                self._tiles += self._launch(self._flux_tile)
                self._launches += 2
                applications += 1
                if self.record is not None:
                    with span("gpu.d2h"):
                        self.dev.d2h("residual", host_residual)
                    self.record.record_step(pressure, host_residual)
        if applications == 0:
            raise ValueError("no pressure fields supplied")
        with span("gpu.d2h"):
            self.dev.d2h("residual", host_residual)
        return GpuRunResult(
            residual=host_residual,
            applications=applications,
            kernel_launches=self._launches,
            tiles_executed=self._tiles,
            occupancy=self.occupancy,
            transfers=self.dev.transfers,
            flops=self._flops,
            variant=self.variant,
        )
