"""End-to-end tests of the event-driven dataflow flux computation.

These are the reproduction's core correctness tests: the full
message-level protocol (switch-based cardinal exchange + two-hop diagonal
flows) must reproduce the reference residual on every mesh shape,
including degenerate fabrics.
"""

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
from repro.dataflow import WseFluxComputation
from repro.ir.schedule import schedule_classes
from repro.workloads import make_geomodel


class Residuals(list):
    """A ``record=`` hook that keeps every application's residual."""

    def record_step(self, pressure, residual):
        self.append(residual)


def event_fold(mesh, fluid, p, trans):
    """The reference fold in the event program's arrival order."""
    return compute_flux_residual(
        mesh, fluid, p, trans, order=schedule_classes(mesh.nx, mesh.ny)
    )


def run_and_compare(mesh, fluid, seed=0, **kwargs):
    p = random_pressure(mesh, seed=seed)
    trans = Transmissibility(mesh)
    wse = WseFluxComputation(mesh, fluid, trans, dtype=np.float64, **kwargs)
    result = wse.run_single(p)
    assert result.residual.tobytes() == event_fold(mesh, fluid, p, trans).tobytes()
    return result


class TestNumericalEquivalence:
    def test_small_homogeneous(self, fluid):
        run_and_compare(CartesianMesh3D(5, 4, 3), fluid)

    def test_heterogeneous_geomodel(self, fluid):
        mesh = make_geomodel(6, 5, 4, kind="lognormal", seed=3)
        run_and_compare(mesh, fluid, seed=7)

    def test_channelized_geomodel(self, fluid):
        mesh = make_geomodel(6, 6, 3, kind="channelized", seed=1)
        run_and_compare(mesh, fluid, seed=2)

    def test_even_and_odd_fabric_dimensions(self, fluid):
        """Both parities matter: the switch protocol seeds differ."""
        for nx, ny in [(4, 4), (5, 5), (4, 5), (5, 4)]:
            run_and_compare(CartesianMesh3D(nx, ny, 2), fluid)

    def test_single_row_fabric(self, fluid):
        """ny = 1: no N/S or diagonal traffic at all."""
        run_and_compare(CartesianMesh3D(6, 1, 3), fluid)

    def test_single_column_fabric(self, fluid):
        run_and_compare(CartesianMesh3D(1, 6, 3), fluid)

    def test_single_pe(self, fluid):
        """1x1 fabric: vertical fluxes only, zero fabric traffic."""
        result = run_and_compare(CartesianMesh3D(1, 1, 5), fluid)
        assert result.fabric_word_hops == 0

    def test_two_by_two(self, fluid):
        run_and_compare(CartesianMesh3D(2, 2, 2), fluid)

    def test_nz_one(self, fluid):
        """Single layer: no vertical fluxes; full X-Y protocol."""
        run_and_compare(CartesianMesh3D(5, 4, 1), fluid)

    def test_multiple_applications(self, fluid):
        mesh = CartesianMesh3D(4, 3, 3)
        trans = Transmissibility(mesh)
        seq = PressureSequence(mesh, num_applications=3, seed=5)
        residuals = Residuals()
        wse = WseFluxComputation(
            mesh, fluid, trans, dtype=np.float64, record=residuals
        )
        result = wse.run(seq)
        assert result.applications == 3
        assert len(residuals) == 3
        assert residuals[-1].tobytes() == result.residual.tobytes()
        for i, p in enumerate(seq):
            assert residuals[i].tobytes() == event_fold(mesh, fluid, p, trans).tobytes()

    def test_float32_mode(self, fluid):
        mesh = CartesianMesh3D(4, 4, 3)
        trans = Transmissibility(mesh)
        p = random_pressure(mesh, seed=1)
        wse = WseFluxComputation(mesh, fluid, trans, dtype=np.float32)
        result = wse.run_single(p)
        assert result.residual.dtype == np.float32
        ref = event_fold(mesh, fluid, p.astype(np.float32), trans)
        assert result.residual.tobytes() == ref.tobytes()


class TestProtocolAccounting:
    def test_traffic_volume(self, fluid):
        """Fabric word-hops: cardinal pairs one hop, diagonal pairs two."""
        mesh = CartesianMesh3D(4, 3, 2)
        wse = WseFluxComputation(mesh, fluid, dtype=np.float32)
        result = wse.run_single(random_pressure(mesh, seed=0))
        nx, ny, nz = 4, 3, 2
        words = 2 * nz  # (p, rho) columns, float32
        card_pairs = (nx - 1) * ny * 2 + nx * (ny - 1) * 2
        diag_pairs = (nx - 1) * (ny - 1) * 2 * 2
        # cardinal trains hop once; diagonal trains hop twice, and the
        # first hop happens even when the second falls off-fabric
        diag_first_hops = ((nx - 1) * ny + nx * (ny - 1)) * 2
        expected = words * (card_pairs + diag_pairs + diag_first_hops)
        # control wavelets add 1 word per hop; data dominates
        assert result.fabric_word_hops >= expected
        assert result.fabric_word_hops <= expected + 4 * nx * ny * 4

    def test_exactly_once_delivery_enforced(self, fluid):
        """exchange.verify() is exercised on every run (protocol guard)."""
        mesh = CartesianMesh3D(5, 5, 2)
        wse = WseFluxComputation(mesh, fluid, dtype=np.float32)
        wse.run_single(random_pressure(mesh, seed=0))
        exchange = wse.program.exchange
        assert len(exchange.received) == wse.program.fabric.num_pes
        assert exchange.received == exchange.expected

    def test_interior_pe_receives_eight(self, fluid):
        mesh = CartesianMesh3D(3, 3, 2)
        wse = WseFluxComputation(mesh, fluid, dtype=np.float32)
        wse.run_single(random_pressure(mesh, seed=0))
        program = wse.program
        assert program.exchange.expected[program.fabric.pe(1, 1).row] == 8

    def test_corner_pe_receives_three(self, fluid):
        mesh = CartesianMesh3D(3, 3, 2)
        wse = WseFluxComputation(mesh, fluid, dtype=np.float32)
        wse.run_single(random_pressure(mesh, seed=0))
        program = wse.program
        assert program.exchange.expected[program.fabric.pe(0, 0).row] == 3

    def test_max_two_hops(self, fluid):
        mesh = CartesianMesh3D(4, 4, 2)
        wse = WseFluxComputation(mesh, fluid, dtype=np.float32)
        result = wse.run_single(random_pressure(mesh, seed=0))
        assert result.stats.max_hops_seen == 2

    def test_instruction_totals_scale_with_applications(self, fluid):
        mesh = CartesianMesh3D(3, 3, 2)
        trans = Transmissibility(mesh)
        seq = PressureSequence(mesh, num_applications=2, seed=1)
        wse = WseFluxComputation(mesh, fluid, trans, dtype=np.float64)
        two = wse.run(seq)
        wse1 = WseFluxComputation(mesh, fluid, trans, dtype=np.float64)
        one = wse1.run_single(seq.field(0))
        assert two.flops == 2 * one.flops

    def test_summary_report(self, fluid):
        mesh = CartesianMesh3D(3, 3, 2)
        wse = WseFluxComputation(mesh, fluid, dtype=np.float32)
        result = wse.run_single(random_pressure(mesh, seed=0))
        text = result.summary()
        assert "mesh 3x3x2" in text
        assert "FMUL=" in text
        assert "max 2 hops" in text
        assert f"{result.flops}" in text

    def test_device_cycles_positive_and_finite(self, fluid):
        mesh = CartesianMesh3D(3, 3, 2)
        wse = WseFluxComputation(mesh, fluid, dtype=np.float32)
        result = wse.run_single(random_pressure(mesh, seed=0))
        assert 0 < result.device_cycles < np.inf
        assert result.device_seconds == pytest.approx(
            result.device_cycles / 850e6
        )
        assert result.throughput_cells_per_second > 0


class TestCommOnlyMode:
    """The Table 3 experiment: remove flux computations, keep traffic."""

    def test_comm_only_zero_flops_full_traffic(self, fluid):
        mesh = CartesianMesh3D(4, 4, 3)
        p = random_pressure(mesh, seed=0)
        full = WseFluxComputation(mesh, fluid, dtype=np.float64)
        comm = WseFluxComputation(
            mesh, fluid, dtype=np.float64, compute_fluxes=False
        )
        r_full = full.run_single(p)
        r_comm = comm.run_single(p)
        assert r_comm.flops == 0
        assert r_comm.fabric_word_hops == r_full.fabric_word_hops
        assert r_comm.device_cycles < r_full.device_cycles

    def test_comm_only_receives_everything(self, fluid):
        mesh = CartesianMesh3D(4, 4, 2)
        comm = WseFluxComputation(
            mesh, fluid, dtype=np.float32, compute_fluxes=False
        )
        comm.run_single(random_pressure(mesh, seed=0))  # exchange.verify() inside

    def test_comm_fraction_reasonable(self, fluid):
        """Communication is a minority share but not negligible —
        qualitatively matching Table 3's 24/76 split."""
        mesh = CartesianMesh3D(4, 4, 8)
        p = random_pressure(mesh, seed=0)
        full = WseFluxComputation(mesh, fluid, dtype=np.float32)
        comm = WseFluxComputation(
            mesh, fluid, dtype=np.float32, compute_fluxes=False
        )
        t_full = full.run_single(p).device_cycles
        t_comm = comm.run_single(p).device_cycles
        assert 0.05 < t_comm / t_full < 0.95


class TestOptimizationKnobs:
    def test_no_reuse_matches_numerics(self, fluid):
        mesh = CartesianMesh3D(4, 3, 3)
        trans = Transmissibility(mesh)
        p = random_pressure(mesh, seed=3)
        a = WseFluxComputation(
            mesh, fluid, trans, dtype=np.float64, reuse_buffers=True
        ).run_single(p)
        b = WseFluxComputation(
            mesh, fluid, trans, dtype=np.float64, reuse_buffers=False
        ).run_single(p)
        # the staging copies shift message timing, so the accumulation
        # order (and hence the last few bits) may differ — never the value
        scale = np.abs(a.residual).max()
        np.testing.assert_allclose(b.residual, a.residual, atol=1e-12 * scale)

    def test_reuse_saves_memory(self, fluid):
        mesh = CartesianMesh3D(3, 3, 8)
        lean = WseFluxComputation(mesh, fluid, dtype=np.float32)
        fat = WseFluxComputation(
            mesh, fluid, dtype=np.float32, reuse_buffers=False
        )
        assert lean.memory_high_water() < fat.memory_high_water()

    def test_no_overlap_same_result_slower(self, fluid):
        # deep columns make the deferred-compute backlog dominate; on
        # very shallow columns eager compute can even delay step-2 sends
        # (the PE is busy when its control wavelet arrives), so the
        # overlap win is a deep-column property — as in the paper, where
        # Nz = 246
        mesh = CartesianMesh3D(5, 5, 16)
        trans = Transmissibility(mesh)
        p = random_pressure(mesh, seed=6)
        lap = WseFluxComputation(mesh, fluid, trans, dtype=np.float64).run_single(p)
        nolap = WseFluxComputation(
            mesh, fluid, trans, dtype=np.float64,
            overlap_compute=False, reuse_buffers=False,
        ).run_single(p)
        scale = np.abs(lap.residual).max()
        np.testing.assert_allclose(nolap.residual, lap.residual, atol=1e-12 * scale)
        assert nolap.device_cycles > lap.device_cycles
        # same total work, only the schedule differs
        assert nolap.flops == lap.flops

    def test_no_overlap_requires_dedicated_buffers(self, fluid):
        mesh = CartesianMesh3D(3, 3, 2)
        with pytest.raises(ValueError, match="reuse_buffers"):
            WseFluxComputation(
                mesh, fluid, overlap_compute=False, reuse_buffers=True
            )

    def test_scalar_mode_same_result_slower_cycles(self, fluid):
        mesh = CartesianMesh3D(3, 3, 3)
        trans = Transmissibility(mesh)
        p = random_pressure(mesh, seed=4)
        vec = WseFluxComputation(
            mesh, fluid, trans, dtype=np.float64, vectorized=True
        ).run_single(p)
        sca = WseFluxComputation(
            mesh, fluid, trans, dtype=np.float64, vectorized=False
        ).run_single(p)
        np.testing.assert_array_equal(vec.residual, sca.residual)
        assert sca.compute_cycles > vec.compute_cycles
        assert sca.device_cycles > vec.device_cycles


class TestRuntimeReuse:
    """One driver builds its runtime on the first ``run()`` and resets
    it per application: its second run reads what a fresh driver's
    first run of the same fields reads."""

    @pytest.mark.parametrize(
        "options",
        [{}, {"reuse_buffers": False, "overlap_compute": False},
         {"compute_fluxes": False}],
        ids=["overlap", "deferred", "comm-only"],
    )
    def test_second_run_equals_a_fresh_driver(self, fluid, options):
        mesh = make_geomodel(6, 5, 4, kind="lognormal", seed=7)
        batches = [
            list(PressureSequence(mesh, num_applications=2, seed=seed))
            for seed in (7, 8)
        ]

        def outcome(result):
            return (
                result.residual.tobytes(),
                result.device_cycles,
                result.compute_cycles,
                result.stats,
                list(result.instruction_counts.items()),
            )

        wse = WseFluxComputation(mesh, fluid, **options)
        reused = [outcome(wse.run(batch)) for batch in batches]
        runtime = wse.last_runtime
        wse.run(batches[0])
        assert wse.last_runtime is runtime
        fresh = [
            outcome(WseFluxComputation(mesh, fluid, **options).run(batch))
            for batch in batches
        ]
        assert reused == fresh


class TestValidation:
    def test_memory_overflow_reported(self, fluid):
        from repro.wse.memory import PEMemoryError

        mesh = CartesianMesh3D(2, 2, 2000)
        with pytest.raises(PEMemoryError, match="nz=2000"):
            WseFluxComputation(mesh, fluid, pe_memory_bytes=48 * 1024)

    def test_rejects_foreign_trans(self, fluid):
        mesh_a = CartesianMesh3D(3, 3, 2)
        mesh_b = CartesianMesh3D(3, 3, 2)
        with pytest.raises(ValueError, match="different mesh"):
            WseFluxComputation(mesh_a, fluid, Transmissibility(mesh_b))

    def test_empty_pressure_iterable(self, fluid):
        mesh = CartesianMesh3D(2, 2, 2)
        wse = WseFluxComputation(mesh, fluid)
        with pytest.raises(ValueError, match="no pressure fields"):
            wse.run([])
