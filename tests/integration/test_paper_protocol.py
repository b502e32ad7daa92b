"""The paper's full experimental protocol at reduced scale.

Sec. 3: "Algorithm 1 is applied 1,000 times with a different pressure
vector at every call."  This test runs the complete 1000-application
protocol on the lockstep simulator (small mesh) and spot-validates
applications against the reference, plus a shorter full-protocol run on
the event-driven simulator.
"""

import numpy as np
import pytest

from repro.core import (
    CartesianMesh3D,
    FluidProperties,
    PressureSequence,
    Transmissibility,
    compute_flux_residual,
)
from repro.core.kernels import FLOPS_PER_CELL
from repro.dataflow import LockstepWseSimulation, WseFluxComputation
from repro.ir import derive_ir
from repro.workloads import make_geomodel

FLUID = FluidProperties()


class TestThousandApplications:
    def test_lockstep_full_protocol(self):
        """All 1000 applications, different pressure per call (Sec. 3)."""
        mesh = make_geomodel(6, 5, 4, kind="lognormal", seed=30)
        trans = Transmissibility(mesh)
        seq = PressureSequence(mesh, num_applications=1000, seed=31)
        sim = LockstepWseSimulation(mesh, FLUID, trans, ir=derive_ir(mesh, dtype=np.float64))

        checks = {0, 499, 999}
        for i, pressure in enumerate(seq):
            residual = sim.run_application(pressure)
            if i in checks:
                ref = compute_flux_residual(mesh, FLUID, pressure, trans)
                scale = np.abs(ref).max()
                np.testing.assert_allclose(
                    residual, ref, atol=1e-12 * scale, err_msg=f"app {i}"
                )
        report = sim.report()
        assert report.applications == 1000
        # total FLOPs: boundary-corrected per-application count x 1000
        flops_one = report.flops // 1000
        assert report.flops == flops_one * 1000
        # the idealized interior-cell rate bounds the measured rate
        assert flops_one <= FLOPS_PER_CELL * mesh.num_cells

    def test_event_driven_protocol_slice(self):
        """A 25-application slice through the full fabric protocol."""
        mesh = CartesianMesh3D(4, 4, 3)
        trans = Transmissibility(mesh)
        seq = PressureSequence(mesh, num_applications=25, seed=32)
        wse = WseFluxComputation(mesh, FLUID, trans, dtype=np.float64)
        result = wse.run(seq)
        assert result.applications == 25
        ref = compute_flux_residual(mesh, FLUID, seq.field(24), trans)
        scale = np.abs(ref).max()
        np.testing.assert_allclose(result.residual, ref, atol=1e-12 * scale)
        # per-application device time is application-independent: the
        # total is 25x a single application's cycles
        single = WseFluxComputation(
            mesh, FLUID, trans, dtype=np.float64
        ).run_single(seq.field(0))
        assert result.device_cycles == pytest.approx(
            25 * single.device_cycles, rel=1e-6
        )

    def test_sequence_delivers_distinct_fields(self):
        mesh = CartesianMesh3D(3, 3, 2)
        seq = PressureSequence(mesh, num_applications=50, seed=33)
        fields = [seq.field(i) for i in (0, 10, 49)]
        assert np.abs(fields[0] - fields[1]).max() > 0
        assert np.abs(fields[1] - fields[2]).max() > 0
