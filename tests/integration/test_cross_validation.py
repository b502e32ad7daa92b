"""Cross-implementation validation (paper Sec. 7.1).

"We compare and validate the numerical results produced by the CS-2 to
those produced by the reference implementations."  Here all four
implementations — NumPy reference (cell and face assembly), simulated-GPU
RAJA and CUDA kernels, and the dataflow simulators (event-driven and
lockstep) — are run on the same seeded workloads and compared.
"""

import numpy as np
import pytest

from repro.core import (
    FluidProperties,
    PressureSequence,
    Transmissibility,
    compute_flux_residual,
    random_pressure,
)
from repro.dataflow import LockstepWseSimulation, WseFluxComputation
from repro.gpu import GpuFluxComputation
from repro.ir import derive_ir
from repro.workloads import FluxScenario, make_geomodel


@pytest.fixture(scope="module")
def workload():
    """A heterogeneous workload shared by every implementation."""
    mesh = make_geomodel(7, 6, 5, kind="lognormal", seed=21)
    fluid = FluidProperties()
    trans = Transmissibility(mesh)
    pressure = random_pressure(mesh, seed=22)
    reference = compute_flux_residual(mesh, fluid, pressure, trans)
    return mesh, fluid, trans, pressure, reference


ATOL_F64 = 1e-12


class TestAllImplementationsAgree:
    def test_reference_face_vs_cell(self, workload):
        mesh, fluid, trans, p, ref = workload
        r_face = compute_flux_residual(mesh, fluid, p, trans, method="face")
        np.testing.assert_allclose(
            r_face, ref, atol=ATOL_F64 * np.abs(ref).max()
        )

    def test_gpu_raja(self, workload):
        mesh, fluid, trans, p, ref = workload
        out = GpuFluxComputation(
            mesh, fluid, trans, variant="raja", dtype=np.float64
        ).run([p])
        np.testing.assert_allclose(
            out.residual, ref, atol=ATOL_F64 * np.abs(ref).max()
        )

    def test_gpu_cuda(self, workload):
        mesh, fluid, trans, p, ref = workload
        out = GpuFluxComputation(
            mesh, fluid, trans, variant="cuda", dtype=np.float64
        ).run([p])
        np.testing.assert_allclose(
            out.residual, ref, atol=ATOL_F64 * np.abs(ref).max()
        )

    def test_dataflow_event_driven(self, workload):
        mesh, fluid, trans, p, ref = workload
        out = WseFluxComputation(mesh, fluid, trans, dtype=np.float64).run_single(p)
        np.testing.assert_allclose(
            out.residual, ref, atol=ATOL_F64 * np.abs(ref).max()
        )

    def test_dataflow_lockstep(self, workload):
        mesh, fluid, trans, p, ref = workload
        sim = LockstepWseSimulation(mesh, fluid, trans, ir=derive_ir(mesh, dtype=np.float64))
        np.testing.assert_allclose(
            sim.run_application(p), ref, atol=ATOL_F64 * np.abs(ref).max()
        )

    def test_all_pairwise_float32_within_single_precision(self, workload):
        """Single-precision runs of all implementations stay within a few
        ulps of each other (the hardware-realistic configuration)."""
        mesh, fluid, trans, p, ref = workload
        outs = {
            "gpu": GpuFluxComputation(mesh, fluid, trans, dtype=np.float32)
            .run([p])
            .residual,
            "wse": WseFluxComputation(mesh, fluid, trans, dtype=np.float32)
            .run_single(p)
            .residual,
            "lock": LockstepWseSimulation(mesh, fluid, trans, ir=derive_ir(mesh, dtype=np.float32))
            .run_application(p),
        }
        scale = np.abs(ref).max()
        for name, out in outs.items():
            np.testing.assert_allclose(
                out, ref, atol=5e-4 * scale, err_msg=name
            )


class TestScenarioDriven:
    def test_multi_application_stream(self):
        """Several applications with fresh pressure vectors per call, as
        in the paper's experiment loop (Sec. 3)."""
        scenario = FluxScenario(nx=5, ny=4, nz=3, applications=4, seed=3)
        mesh = scenario.build_mesh()
        fluid = scenario.fluid
        trans = Transmissibility(mesh)
        seq = scenario.pressure_sequence(mesh)

        wse = WseFluxComputation(mesh, fluid, trans, dtype=np.float64)
        gpu = GpuFluxComputation(mesh, fluid, trans, dtype=np.float64)
        r_wse = wse.run(seq).residual
        r_gpu = gpu.run(seq).residual
        ref = compute_flux_residual(mesh, fluid, seq.field(3), trans)
        scale = np.abs(ref).max()
        np.testing.assert_allclose(r_wse, ref, atol=ATOL_F64 * scale)
        np.testing.assert_allclose(r_gpu, ref, atol=ATOL_F64 * scale)

    def test_channelized_extreme_contrast(self):
        mesh = make_geomodel(6, 6, 4, kind="channelized", seed=9)
        fluid = FluidProperties()
        trans = Transmissibility(mesh)
        p = random_pressure(mesh, seed=10)
        ref = compute_flux_residual(mesh, fluid, p, trans)
        scale = np.abs(ref).max()
        for impl in (
            WseFluxComputation(mesh, fluid, trans, dtype=np.float64).run_single(p).residual,
            GpuFluxComputation(mesh, fluid, trans, dtype=np.float64).run([p]).residual,
        ):
            np.testing.assert_allclose(impl, ref, atol=ATOL_F64 * scale)

    def test_no_diagonals_all_implementations(self):
        """diagonal_weight=0: the 7-point TPFA classic, still identical."""
        mesh = make_geomodel(5, 5, 3, kind="lognormal", seed=4)
        fluid = FluidProperties()
        trans = Transmissibility(mesh, diagonal_weight=0.0)
        p = random_pressure(mesh, seed=5)
        ref = compute_flux_residual(mesh, fluid, p, trans)
        scale = np.abs(ref).max()
        wse = WseFluxComputation(mesh, fluid, trans, dtype=np.float64).run_single(p)
        gpu = GpuFluxComputation(mesh, fluid, trans, dtype=np.float64).run([p])
        np.testing.assert_allclose(wse.residual, ref, atol=ATOL_F64 * scale)
        np.testing.assert_allclose(gpu.residual, ref, atol=ATOL_F64 * scale)


class TestAccountingConsistency:
    def test_flop_totals_agree_event_vs_lockstep(self, workload):
        mesh, fluid, trans, p, _ = workload
        ev = WseFluxComputation(mesh, fluid, trans, dtype=np.float64).run_single(p)
        lk = LockstepWseSimulation(mesh, fluid, trans, ir=derive_ir(mesh, dtype=np.float64))
        lk.run_application(p)
        assert ev.flops == lk.report().flops

    def test_gpu_and_wse_flops_identical(self, workload):
        """Both count 14 FLOPs per computed flux over the same face set."""
        mesh, fluid, trans, p, _ = workload
        ev = WseFluxComputation(mesh, fluid, trans, dtype=np.float64).run_single(p)
        gp = GpuFluxComputation(mesh, fluid, trans, dtype=np.float64).run([p])
        assert ev.flops == gp.flops
