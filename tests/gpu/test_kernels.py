"""Tests for the end-to-end GPU flux computation: the phased sweep's
residual and the device model's counters."""

import hashlib

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
from repro.gpu import GpuFluxComputation
from repro.workloads import make_geomodel


def test_import_loads_no_fabric_module(fresh_interpreter):
    """The GPU model shares ``repro.core`` with the fabric backends and
    nothing else: its sweep is ``core.sweep``'s, which loads no fabric
    module either."""
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
        assert result.residual.tobytes() == ref.tobytes()

    def test_variants_agree_exactly(self, problem):
        """RAJA and CUDA launches run the same sweep."""
        mesh, fluid, trans, p, _ = problem
        a = GpuFluxComputation(mesh, fluid, trans, variant="raja", dtype=np.float64)
        b = GpuFluxComputation(mesh, fluid, trans, variant="cuda", dtype=np.float64)
        np.testing.assert_array_equal(
            a.run([p]).residual, b.run([p]).residual
        )

    def test_float32(self, problem):
        mesh, fluid, trans, p, _ = problem
        gpu = GpuFluxComputation(mesh, fluid, trans, dtype=np.float32)
        result = gpu.run([p])
        assert result.residual.dtype == np.float32
        ref = compute_flux_residual(mesh, fluid, p.astype(np.float32), trans)
        assert result.residual.tobytes() == ref.tobytes()

    def test_multiple_applications(self, problem):
        mesh, fluid, trans, _, _ = problem
        seq = PressureSequence(mesh, num_applications=3, seed=2)
        gpu = GpuFluxComputation(mesh, fluid, trans, dtype=np.float64)
        result = gpu.run(seq)
        assert result.applications == 3
        assert result.kernel_launches == 6  # density + flux per application
        ref = compute_flux_residual(mesh, fluid, seq.field(2), trans)
        assert result.residual.tobytes() == ref.tobytes()

    def test_transfer_accounting(self, problem):
        mesh, fluid, trans, p, _ = problem
        gpu = GpuFluxComputation(mesh, fluid, trans, dtype=np.float32)
        result = gpu.run([p])
        field_bytes = mesh.num_cells * 4
        # static upload: elevation + 10 trans; per app: pressure; final: residual
        assert result.transfers.h2d_bytes == field_bytes * (11 + 1)
        assert result.transfers.d2h_bytes == field_bytes

    def test_each_run_keeps_its_own_transfer_log(self, problem):
        """A result's log is the driver's as of that run: a later run
        books into the driver's, not into an earlier result's."""
        mesh, fluid, trans, p, _ = problem
        gpu = GpuFluxComputation(mesh, fluid, trans, dtype=np.float64)
        first = gpu.run([p, p])
        before = vars(first.transfers).copy()
        second = gpu.run([p, p])
        assert vars(first.transfers) == before
        assert before["h2d_transfers"] == 13
        assert second.transfers.h2d_transfers == 15

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

    def test_rejects_trans_of_another_mesh(self, problem, fluid):
        _, _, trans, _, _ = problem
        other = make_geomodel(18, 11, 7, kind="lognormal", seed=8)
        with pytest.raises(ValueError, match="trans was built for a different mesh"):
            GpuFluxComputation(other, fluid, trans)


#: Counters and residual digests of three applications, computed with
#: the tile-by-tile reference (density and flux kernels per 16x8x8 tile,
#: device buffers) that the phased sweep replaced.
COUNTER_PINS = {
    ((17, 9, 10), "float32"): (48, 565908, 85680, 6120, "2382fb734e461940"),
    ((17, 9, 10), "float64"): (48, 565908, 171360, 12240, "327357fbcbb94d29"),
    ((18, 11, 7), "float32"): (24, 515508, 77616, 5544, "e0cf1caba3995cfb"),
    ((18, 11, 7), "float64"): (24, 515508, 155232, 11088, "8f4aaf244a4409f8"),
}


@pytest.mark.parametrize("variant", ["raja", "cuda"])
@pytest.mark.parametrize("dims, dtype", list(COUNTER_PINS))
def test_counters_and_bytes_are_pinned(fluid, dims, dtype, variant):
    """Launches, tiles, FLOPs, transfers, occupancy and the residual
    bytes are the tile loop's: two launches of ``TiledLaunch.num_blocks``
    tiles per application, 14 FLOPs per face, 11 static fields and one
    pressure per application up, one residual down."""
    tiles, flops, h2d, d2h, digest = COUNTER_PINS[dims, dtype]
    mesh = make_geomodel(*dims, kind="lognormal", seed=5)
    trans = Transmissibility(mesh, dtype=np.dtype(dtype))
    gpu = GpuFluxComputation(mesh, fluid, trans, variant=variant, dtype=np.dtype(dtype))
    result = gpu.run(PressureSequence(mesh, num_applications=3, seed=9))
    assert result.as_metrics() == {
        "variant": variant, "applications": 3, "kernel_launches": 6,
        "tiles_executed": tiles, "flops": flops,
    }
    assert vars(result.transfers) == {
        "h2d_bytes": h2d, "d2h_bytes": d2h, "h2d_transfers": 14, "d2h_transfers": 1,
    }
    assert result.occupancy.achieved_occupancy == 0.48109999999999997
    assert result.residual.flags["C_CONTIGUOUS"] and result.residual.dtype == dtype
    assert hashlib.sha256(result.residual.tobytes()).hexdigest()[:16] == digest
