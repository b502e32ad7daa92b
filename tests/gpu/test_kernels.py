"""Tests for the RAJA-like / CUDA-like kernel front-ends and the
end-to-end GPU flux computation."""

import numpy as np
import pytest

from repro.core import (
    CartesianMesh3D,
    FluidProperties,
    PressureSequence,
    Transmissibility,
    compute_flux_residual,
    random_pressure,
)
from repro.gpu import GpuFluxComputation, KernelPolicy, cuda_kernel, raja_kernel
from repro.gpu.raja import PAPER_POLICY
from repro.workloads import make_geomodel


class TestRajaFrontend:
    def test_paper_policy(self):
        assert PAPER_POLICY.tile_xyz == (16, 8, 8)
        assert PAPER_POLICY.block_size == 1024
        assert PAPER_POLICY.thread_policies == (
            "cuda_thread_z_loop",
            "cuda_thread_y_loop",
            "cuda_thread_x_loop",
        )

    def test_kernel_executes_every_tile(self):
        seen = []
        record = raja_kernel((5, 5, 5), seen.append, policy=KernelPolicy((4, 4, 4)))
        assert record.tiles_executed == len(seen) == 8
        assert record.threads_per_block == 64

    def test_rejects_oversized_policy(self):
        with pytest.raises(ValueError, match="1024"):
            raja_kernel((4, 4, 4), lambda t: None, policy=KernelPolicy((32, 8, 8)))


class TestCudaFrontend:
    def test_manual_grid_dims(self):
        record = cuda_kernel((10, 9, 17), lambda t: None, tile_xyz=(16, 8, 8))
        assert (record.grid.x, record.grid.y, record.grid.z) == (2, 2, 2)
        assert record.block.total == 1024

    def test_boundary_lanes_masked(self):
        """17x9x10 mesh in 16x8x8 tiles: lanes beyond the grid are masked."""
        record = cuda_kernel((10, 9, 17), lambda t: None, tile_xyz=(16, 8, 8))
        total_lanes = record.grid.x * record.grid.y * record.grid.z * 1024
        assert record.lanes_masked_out == total_lanes - 10 * 9 * 17

    def test_exact_mesh_no_masking(self):
        record = cuda_kernel((8, 8, 16), lambda t: None, tile_xyz=(16, 8, 8))
        assert record.lanes_masked_out == 0

    def test_body_receives_clipped_tiles(self):
        cells = []
        cuda_kernel((5, 5, 5), lambda t: cells.append(t.num_cells), tile_xyz=(4, 4, 4))
        assert sum(cells) == 125


def test_import_loads_no_fabric_module(fresh_interpreter):
    """The GPU model shares ``repro.core`` with the fabric backends and
    nothing else (``padded_trans_fields`` is ``core.transmissibility``'s)."""
    out = fresh_interpreter(
        "import sys, repro.gpu.reference\n"
        "print(sorted(m for m in sys.modules"
        " if m.startswith(('repro.dataflow', 'repro.wse'))))\n"
    )
    assert out == "[]"


class TestGpuFluxComputation:
    @pytest.fixture(scope="class")
    def problem(self):
        mesh = make_geomodel(18, 11, 7, kind="lognormal", seed=8)
        fluid = FluidProperties()
        trans = Transmissibility(mesh)
        p = random_pressure(mesh, seed=8)
        ref = compute_flux_residual(mesh, fluid, p, trans)
        return mesh, fluid, trans, p, ref

    @pytest.mark.parametrize("variant", ["raja", "cuda"])
    def test_matches_reference_float64(self, problem, variant):
        mesh, fluid, trans, p, ref = problem
        gpu = GpuFluxComputation(
            mesh, fluid, trans, variant=variant, dtype=np.float64
        )
        result = gpu.run([p])
        scale = np.abs(ref).max()
        np.testing.assert_allclose(result.residual, ref, atol=1e-12 * scale)

    def test_variants_agree_exactly(self, problem):
        """RAJA and CUDA launches execute identical tile math."""
        mesh, fluid, trans, p, _ = problem
        a = GpuFluxComputation(mesh, fluid, trans, variant="raja", dtype=np.float64)
        b = GpuFluxComputation(mesh, fluid, trans, variant="cuda", dtype=np.float64)
        np.testing.assert_array_equal(
            a.run([p]).residual, b.run([p]).residual
        )

    def test_float32(self, problem):
        mesh, fluid, trans, p, ref = problem
        gpu = GpuFluxComputation(mesh, fluid, trans, dtype=np.float32)
        result = gpu.run([p])
        scale = np.abs(ref).max()
        np.testing.assert_allclose(result.residual, ref, atol=5e-4 * scale)

    def test_multiple_applications(self, problem):
        mesh, fluid, trans, _, _ = problem
        seq = PressureSequence(mesh, num_applications=3, seed=2)
        gpu = GpuFluxComputation(mesh, fluid, trans, dtype=np.float64)
        result = gpu.run(seq)
        assert result.applications == 3
        assert result.kernel_launches == 6  # density + flux per application
        ref = compute_flux_residual(mesh, fluid, seq.field(2), trans)
        scale = np.abs(ref).max()
        np.testing.assert_allclose(result.residual, ref, atol=1e-12 * scale)

    def test_transfer_accounting(self, problem):
        mesh, fluid, trans, p, _ = problem
        gpu = GpuFluxComputation(mesh, fluid, trans, dtype=np.float32)
        result = gpu.run([p])
        field_bytes = mesh.num_cells * 4
        # static upload: elevation + 10 trans; per app: pressure; final: residual
        assert result.transfers.h2d_bytes == field_bytes * (11 + 1)
        assert result.transfers.d2h_bytes == field_bytes

    def test_flops_near_140_per_cell(self, problem):
        mesh, fluid, trans, p, _ = problem
        gpu = GpuFluxComputation(mesh, fluid, trans, dtype=np.float64)
        result = gpu.run([p])
        assert 100 < result.flops_per_cell <= 140

    def test_a_reused_driver_counts_each_run_alone(self, fluid):
        """Launches, tiles and FLOPs are this run's, not the driver's
        since construction: the second run reads as the first."""
        mesh = make_geomodel(8, 6, 5, kind="lognormal", seed=7)
        seq = PressureSequence(mesh, num_applications=2, seed=3)
        gpu = GpuFluxComputation(mesh, fluid)
        first, second = gpu.run(seq), gpu.run(seq)
        assert first.as_metrics() == second.as_metrics()
        assert first.kernel_launches == 4
        assert first.flops_per_cell <= 140
        assert second.flops_per_cell <= 140

    def test_occupancy_attached(self, problem):
        mesh, fluid, trans, p, _ = problem
        gpu = GpuFluxComputation(mesh, fluid, trans, dtype=np.float32)
        assert gpu.run([p]).occupancy.theoretical_occupancy == 0.5

    def test_rejects_unknown_variant(self, problem):
        mesh, fluid, trans, _, _ = problem
        with pytest.raises(ValueError, match="variant"):
            GpuFluxComputation(mesh, fluid, trans, variant="opencl")

    def test_empty_run_rejected(self, problem):
        mesh, fluid, trans, _, _ = problem
        gpu = GpuFluxComputation(mesh, fluid, trans)
        with pytest.raises(ValueError):
            gpu.run([])

    def test_single_cell_mesh(self, fluid):
        mesh = CartesianMesh3D(1, 1, 1)
        gpu = GpuFluxComputation(mesh, fluid, dtype=np.float64)
        result = gpu.run([mesh.full(1e7)])
        np.testing.assert_array_equal(result.residual, 0.0)
