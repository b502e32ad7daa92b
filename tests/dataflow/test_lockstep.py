"""Unit tests for the lockstep (vectorized) dataflow simulation."""

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
from repro.dataflow import LockstepWseSimulation, WseFluxComputation
from repro.workloads import make_geomodel


class TestNumerics:
    def test_matches_reference(self, fluid):
        mesh = make_geomodel(12, 10, 6, kind="lognormal", seed=2)
        trans = Transmissibility(mesh)
        p = random_pressure(mesh, seed=9)
        sim = LockstepWseSimulation(mesh, fluid, trans, dtype=np.float64)
        r = sim.run_application(p)
        ref = compute_flux_residual(mesh, fluid, p, trans)
        scale = np.abs(ref).max()
        np.testing.assert_allclose(r, ref, atol=1e-12 * scale)

    def test_matches_event_driven(self, fluid):
        """Lockstep and event-driven run the same DSD ops per element."""
        mesh = CartesianMesh3D(5, 4, 3)
        trans = Transmissibility(mesh)
        p = random_pressure(mesh, seed=1)
        lock = LockstepWseSimulation(mesh, fluid, trans, dtype=np.float64)
        event = WseFluxComputation(mesh, fluid, trans, dtype=np.float64)
        r_lock = lock.run_application(p)
        r_event = event.run_single(p).residual
        scale = np.abs(r_lock).max()
        np.testing.assert_allclose(r_event, r_lock, atol=1e-13 * scale)

    def test_run_over_sequence(self, fluid):
        mesh = CartesianMesh3D(4, 4, 3)
        seq = PressureSequence(mesh, num_applications=3, seed=0)
        sim = LockstepWseSimulation(mesh, fluid, dtype=np.float64)
        result = sim.run(seq)
        r = result.residual
        assert result.applications == 3
        assert result.as_metrics() == sim.report().as_metrics()
        ref = compute_flux_residual(mesh, fluid, seq.field(2))
        scale = np.abs(ref).max()
        np.testing.assert_allclose(r, ref, atol=1e-12 * scale)
        assert sim.report().applications == 3

    def test_float32(self, fluid):
        mesh = CartesianMesh3D(6, 5, 4)
        p = random_pressure(mesh, seed=3)
        sim = LockstepWseSimulation(mesh, fluid, dtype=np.float32)
        r = sim.run_application(p)
        ref = compute_flux_residual(mesh, fluid, p)
        scale = np.abs(ref).max()
        np.testing.assert_allclose(r, ref, atol=5e-4 * scale)

    def test_empty_run_rejected(self, fluid):
        sim = LockstepWseSimulation(CartesianMesh3D(2, 2, 2), fluid)
        with pytest.raises(ValueError):
            sim.run([])


class TestAccounting:
    def test_instruction_totals_match_event_driven(self, fluid):
        mesh = CartesianMesh3D(4, 3, 3)
        trans = Transmissibility(mesh)
        p = random_pressure(mesh, seed=1)
        lock = LockstepWseSimulation(mesh, fluid, trans, dtype=np.float64)
        lock.run_application(p)
        event = WseFluxComputation(mesh, fluid, trans, dtype=np.float64)
        ev = event.run_single(p)
        lk = lock.report()
        for op in ("FMUL", "FSUB", "FADD", "FMA", "FNEG", "FMOV"):
            assert lk.instruction_counts.get(op) == ev.instruction_counts.get(
                op
            ), op
        assert lk.flops == ev.flops

    def test_fabric_hops_cardinal_one_diagonal_two(self, fluid):
        mesh = CartesianMesh3D(3, 3, 2)
        sim = LockstepWseSimulation(mesh, fluid, dtype=np.float32)
        sim.run_application(random_pressure(mesh, seed=0))
        rep = sim.report()
        nz, words = 2, 2
        card = (2 * 3 + 3 * 2) * 2 * words * nz  # directed pairs, 1 hop
        diag = (2 * 2 * 2) * 2 * words * nz * 2  # directed pairs, 2 hops
        assert rep.fabric_word_hops == card + diag

    def test_comm_only_mode(self, fluid):
        mesh = CartesianMesh3D(4, 4, 3)
        p = random_pressure(mesh, seed=0)
        sim = LockstepWseSimulation(
            mesh, fluid, dtype=np.float32, compute_fluxes=False
        )
        r = sim.run_application(p)
        np.testing.assert_array_equal(r, 0.0)
        rep = sim.report()
        assert rep.flops == 0
        assert rep.fabric_words_received > 0

    def test_flops_scale_with_applications(self, fluid):
        mesh = CartesianMesh3D(3, 3, 3)
        sim = LockstepWseSimulation(mesh, fluid, dtype=np.float64)
        p = random_pressure(mesh, seed=0)
        sim.run_application(p)
        one = sim.report().flops
        sim.run_application(p)
        assert sim.report().flops == 2 * one

    def test_scales_to_larger_meshes(self, fluid):
        """Lockstep handles meshes far beyond event-sim tractability."""
        mesh = CartesianMesh3D(40, 30, 10)
        sim = LockstepWseSimulation(mesh, fluid, dtype=np.float32)
        p = random_pressure(mesh, seed=0, dtype=np.float32)
        r = sim.run_application(p)
        assert r.shape == mesh.shape_zyx
        assert np.all(np.isfinite(r))
