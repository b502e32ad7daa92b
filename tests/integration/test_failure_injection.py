"""Failure injection: the system must detect broken configurations,
not silently produce wrong numbers.

A distributed kernel's scariest failure mode is a protocol bug that
drops or duplicates one message: the residual is still finite, merely
wrong.  These tests break the machinery on purpose and assert the
built-in guards (exactly-once verification, deadlock detection, memory
accounting, CFL checks) catch every case loudly.
"""

import numpy as np
import pytest

from repro.cluster import ClusterFluxComputation
from repro.core import CartesianMesh3D, FluidProperties, random_pressure
from repro.dataflow import WseFluxComputation
from repro.ir import derive_ir
from repro.ir.lower import lower_to_event
from repro.wse.memory import PEMemoryError
from repro.wse.runtime import EventRuntime

FLUID = FluidProperties()


class TestDataflowGuards:
    def test_broken_router_route_detected(self, edit_route):
        """Disable one router rule: the missing delivery is reported."""
        mesh = CartesianMesh3D(4, 4, 2)
        ir = derive_ir(mesh, dtype=np.float32)

        # sabotage: make PE (1,1) drop everything arriving from the west
        # on the eastward cardinal color
        def drop_receive(positions):
            positions[1] = {}  # receiving position now drops

        wse = lower_to_event(
            edit_route(ir, ir.color_id("card_east"), (1, 1), drop_receive),
            mesh, FLUID,
        )
        with pytest.raises(RuntimeError, match=r"PE \(1, 1\).*expected"):
            wse.run_single(random_pressure(mesh, seed=0))

    def test_broken_diagonal_forward_detected(self, edit_route):
        """Break one intermediary's forward rule: the target misses its
        two-hop delivery."""
        mesh = CartesianMesh3D(3, 3, 2)
        ir = derive_ir(mesh, dtype=np.float32)

        # remove the WEST -> SOUTH turn at the intermediary
        def drop_turn(positions):
            positions[0] = {"RAMP": ["EAST"], "NORTH": ["RAMP"]}

        wse = lower_to_event(
            edit_route(ir, ir.color_id("diag_se"), (1, 0), drop_turn),
            mesh, FLUID,
        )
        with pytest.raises(RuntimeError, match="received"):
            wse.run_single(random_pressure(mesh, seed=0))

    def test_duplicated_delivery_detected(self):
        """Inject a forged duplicate data message: exactly-once fails."""
        mesh = CartesianMesh3D(3, 3, 2)
        wse = WseFluxComputation(mesh, FLUID, dtype=np.float32)
        program = wse.program
        pressure = random_pressure(mesh, seed=0)
        rt = EventRuntime(program.fabric)
        program.load_pressure(pressure)
        program.exchange.begin(rt)
        # forge an extra eastward train from (0,1)
        color = program.colors.lookup("card_east")
        payload = np.zeros(2 * mesh.nz, dtype=np.float32)
        rt.schedule(0.0, lambda: rt.inject((0, 1), color, payload))
        rt.run()
        with pytest.raises(RuntimeError, match="expected"):
            program.exchange.verify()

    def test_event_livelock_guard(self):
        """A self-rescheduling event hits the budget, not an infinite loop."""
        mesh = CartesianMesh3D(2, 2, 2)
        wse = WseFluxComputation(mesh, FLUID, dtype=np.float32)
        rt = EventRuntime(wse.program.fabric)

        def forever():
            rt.schedule(1.0, forever)

        rt.schedule(0.0, forever)
        with pytest.raises(RuntimeError, match="budget"):
            rt.run(max_events=100)

    def test_memory_exhaustion_reports_pe_context(self):
        mesh = CartesianMesh3D(2, 2, 5000)
        with pytest.raises(PEMemoryError, match="nz=5000"):
            WseFluxComputation(mesh, FLUID)

    def test_color_budget_exhaustion(self):
        """Allocating past the hardware color budget fails loudly."""
        from repro.wse.color import ColorAllocator

        colors = ColorAllocator()
        for i in range(colors.budget):
            colors.allocate(f"c{i}")
        with pytest.raises(ValueError, match="out of routable colors"):
            colors.allocate("one-too-many")


class TestClusterGuards:
    def test_unreceived_halo_detected(self):
        """Sabotage one neighbour lookup: leftover messages are reported."""
        mesh = CartesianMesh3D(6, 6, 2)
        cluster = ClusterFluxComputation(mesh, FLUID, px=2, py=1)
        # forge an unmatched message before the exchange
        cluster.comm.isend(0, 1, tag=99, array=np.zeros(3))
        with pytest.raises(RuntimeError, match="never received"):
            cluster.run([mesh.full(1.1e7)])

    def test_recv_mismatch_is_deadlock_error(self):
        from repro.cluster.comm import SimComm

        comm = SimComm(4)
        with pytest.raises(RuntimeError, match="deadlock"):
            comm.recv(2, source=1, tag=0)


class TestNumericalGuards:
    def test_nonfinite_pressure_rejected(self):
        mesh = CartesianMesh3D(3, 3, 2)
        from repro.core import compute_flux_residual

        p = mesh.full(1e7)
        p[0, 0, 0] = np.nan
        with np.errstate(invalid="ignore"):
            residual = compute_flux_residual(mesh, FLUID, p)
        # NaN propagates visibly, never silently zeroed
        assert np.isnan(residual).any()

    def test_wave_cfl_guard(self):
        from repro.wave import TTIMedium, WavePropagator

        mesh = CartesianMesh3D(4, 4, 2, dx=10.0, dy=10.0, dz=10.0)
        medium = TTIMedium()
        limit = medium.max_stable_dt(10.0, 10.0, 10.0)
        with pytest.raises(ValueError, match="CFL"):
            WavePropagator(mesh, medium, dt=1.01 * limit)

    def test_newton_failure_reported_with_context(self):
        """An unconvergeable step raises with time/dt diagnostics."""
        from repro.solver import SinglePhaseFlowSimulator, Well

        mesh = CartesianMesh3D(3, 3, 2)
        sim = SinglePhaseFlowSimulator(
            mesh, FLUID, wells=[Well(1, 1, 0, rate=1.0)], gravity=0.0
        )
        with pytest.raises(RuntimeError, match="Newton failed"):
            sim.step(dt=3600.0, max_iterations=0, rtol=1e-30, atol=0.0)
