"""Scaling behaviour *measured* from the simulators (not modelled).

Table 2's headline — near-perfect weak scaling on the fabric vs linear
cell-count scaling on the GPU — re-derived from instrumented executions
rather than calibrated constants.
"""

import numpy as np
import pytest

from repro.core import CartesianMesh3D, FluidProperties, random_pressure
from repro.dataflow import LockstepWseSimulation, WseFluxComputation
from repro.ir import derive_ir

FLUID = FluidProperties()


class TestEventSimWeakScaling:
    def test_device_cycles_flat_in_fabric_size(self):
        """Growing the X-Y plane leaves per-application device time
        unchanged: every PE's column work and exchange are local."""
        cycles = []
        for n in (3, 5, 8, 12):
            mesh = CartesianMesh3D(n, n, 6)
            wse = WseFluxComputation(mesh, FLUID, dtype=np.float32)
            result = wse.run_single(random_pressure(mesh, seed=0))
            cycles.append(result.device_cycles)
        assert max(cycles) / min(cycles) < 1.01  # flat, as in Table 2

    def test_device_cycles_linear_in_nz(self):
        """Deepening the column scales device time ~linearly: the Z
        dimension is the serial axis of each PE (Sec. 5.1)."""
        t8 = (
            WseFluxComputation(CartesianMesh3D(4, 4, 8), FLUID, dtype=np.float32)
            .run_single(random_pressure(CartesianMesh3D(4, 4, 8), seed=0))
            .device_cycles
        )
        t32 = (
            WseFluxComputation(CartesianMesh3D(4, 4, 32), FLUID, dtype=np.float32)
            .run_single(random_pressure(CartesianMesh3D(4, 4, 32), seed=0))
            .device_cycles
        )
        assert t32 / t8 == pytest.approx(4.0, rel=0.3)

    def test_compute_dominates_at_depth(self):
        """Table 3's regime: deep columns amortize the exchange, so the
        comm share falls as Nz grows (toward the paper's 24%)."""
        shares = []
        for nz in (4, 16, 48):
            mesh = CartesianMesh3D(4, 4, nz)
            p = random_pressure(mesh, seed=0)
            t_full = (
                WseFluxComputation(mesh, FLUID, dtype=np.float32)
                .run_single(p)
                .device_cycles
            )
            t_comm = (
                WseFluxComputation(
                    mesh, FLUID, dtype=np.float32, compute_fluxes=False
                )
                .run_single(p)
                .device_cycles
            )
            shares.append(t_comm / t_full)
        assert shares[0] > shares[1] > shares[2]


class TestLockstepGpuContrast:
    def test_total_work_linear_in_cells(self):
        """Aggregate FLOPs grow with the cell count (it is wall-clock,
        not work, that stays flat), and the per-cell rate climbs toward
        the 140-FLOP interior ideal as the boundary fraction shrinks."""
        per_cell = []
        for n in (8, 16, 32):
            mesh = CartesianMesh3D(n, n, 6)
            sim = LockstepWseSimulation(mesh, FLUID, ir=derive_ir(mesh, dtype=np.float32))
            sim.run_application(random_pressure(mesh, seed=0, dtype=np.float32))
            per_cell.append(sim.report().flops / mesh.num_cells)
        assert per_cell[0] < per_cell[1] < per_cell[2] < 140.0
        assert per_cell[0] > 100.0
