"""The GPU reference flux computation (paper Sec. 6).

:class:`GpuFluxComputation` reproduces the structure of the reference
implementations end to end: host and device allocation, the one-time bulk
H2D copy, per-application kernel launches over 3D threadblocks (RAJA-like
clamped tiles or CUDA-like manually-bounded tiles), and the final D2H
copy.  The flux function is "logically identical" to the dataflow one
(Sec. 6); here both ultimately evaluate Eqs. 3-4, and the test suite
cross-validates all implementations numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import constants
from repro.core.fluid import FluidProperties
from repro.core.kernels import FLOPS_PER_CELL, face_flux_array
from repro.core.mesh import CartesianMesh3D
from repro.core.stencil import ALL_CONNECTIONS
from repro.core.transmissibility import Transmissibility
from repro.dataflow.program import padded_trans_fields
from repro.gpu.cuda import cuda_kernel
from repro.gpu.device import A100_40GB, DeviceSpec, OccupancyModel
from repro.gpu.launch import PAPER_TILE, Tile, TiledLaunch
from repro.gpu.memory import DeviceMemoryManager, TransferLog
from repro.gpu.raja import KernelPolicy, raja_kernel
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
    """Cell-based TPFA flux kernel on a simulated A100-class device.

    Parameters
    ----------
    mesh, fluid, trans:
        Problem definition.
    variant:
        ``"raja"`` (Fig. 7 policy, clamped tiles) or ``"cuda"``
        (manual grid + kernel-side bounds checks).
    tile_xyz:
        Threadblock tiling, default the paper's ``16 x 8 x 8``.
    device:
        Simulated device spec (A100-40GB by default).
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
        gravity: float = constants.GRAVITY,
        tile_xyz: tuple[int, int, int] = PAPER_TILE,
        device: DeviceSpec = A100_40GB,
        dtype=np.float32,
        record=None,
    ) -> None:
        if variant not in ("raja", "cuda"):
            raise ValueError(f"variant must be 'raja' or 'cuda', got {variant!r}")
        self.mesh = mesh
        self.fluid = fluid
        self.variant = variant
        self.gravity = float(gravity)
        self.tile_xyz = tile_xyz
        self.device = device
        self.dtype = np.dtype(dtype)
        if trans is None:
            trans = Transmissibility(mesh, dtype=dtype)
        elif trans.mesh is not mesh:
            raise ValueError("trans was built for a different mesh")
        self.occupancy = OccupancyModel(
            device, threads_per_block=tile_xyz[0] * tile_xyz[1] * tile_xyz[2]
        )
        self._flops = 0
        self._tiles = 0
        self._launches = 0
        #: Optional :class:`~repro.obs.replay.ReplayRecorder`; recording
        #: adds one d2h readback per application (normally the residual
        #: stays device-resident until the batch-final copy).
        self.record = record

        # --- allocate device memory and upload the static mesh data ----
        shape = mesh.shape_zyx
        self.dev = DeviceMemoryManager(device)
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
        self._launch_helper = TiledLaunch(shape, tile_xyz, clamp=True)

    # ------------------------------------------------------------------ #
    # Device kernels
    # ------------------------------------------------------------------ #
    def _density_tile(self, tile: Tile) -> None:
        """Eq. 5 for one tile (the density kernel)."""
        p = self.dev.get("pressure")[tile.slices]
        rho = self.dev.get("density")[tile.slices]
        np.subtract(p, self.fluid.reference_pressure, out=rho)
        rho *= self.fluid.compressibility
        np.exp(rho, out=rho)
        rho *= self.fluid.reference_density

    def _flux_tile(self, tile: Tile) -> None:
        """All ten per-cell fluxes for one tile (the flux kernel body).

        Each cell reads its own and its neighbours' state straight from
        shared device memory — "we do not need to transfer the data among
        cells and can directly refer to the data using simple index
        arithmetic" (Sec. 6).
        """
        p = self.dev.get("pressure")
        rho = self.dev.get("density")
        z = self.dev.get("elevation")
        res = self.dev.get("residual")
        res[tile.slices] = 0.0
        for conn in ALL_CONNECTIONS:
            views = self._launch_helper.tile_direction_views(tile, conn)
            if views is None:
                continue
            local, neigh = views
            flux = face_flux_array(
                p[local], p[neigh],
                z[local], z[neigh],
                rho[local], rho[neigh],
                self.dev.get(f"trans_{conn.name}")[local],
                self.gravity,
                self.fluid.viscosity,
            )
            res[local] += flux
            self._flops += flux.size * (FLOPS_PER_CELL // 10)

    def _launch(self, body) -> int:
        """Dispatch one kernel with the configured launch style."""
        with span(
            f"gpu.{body.__name__.lstrip('_')}",
            backend=f"gpu/{self.variant}",
            **self._launch_helper.describe(),
        ):
            if self.variant == "raja":
                record = raja_kernel(
                    self.mesh.shape_zyx,
                    body,
                    policy=KernelPolicy(tile_xyz=self.tile_xyz),
                )
                return record.tiles_executed
            record = cuda_kernel(
                self.mesh.shape_zyx, body, tile_xyz=self.tile_xyz
            )
            return record.tiles_executed

    # ------------------------------------------------------------------ #
    def run(self, pressures) -> GpuRunResult:
        """Run one density + flux kernel pair per pressure field."""
        applications = 0
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

    def run_single(self, pressure: np.ndarray) -> GpuRunResult:
        """Run a single application of Algorithm 1."""
        return self.run([pressure])
