"""Unit tests for the fabric (PE + router grid)."""

import numpy as np
import pytest

from repro.wse.fabric import WSE2_MAX_FABRIC, Fabric
from repro.wse.geometry import Port
from repro.wse.packet import Message


class TestConstruction:
    def test_dimensions(self):
        f = Fabric(4, 3)
        assert f.width == 4
        assert f.height == 3
        assert f.num_pes == 12

    def test_pe_and_router_lookup(self):
        f = Fabric(2, 2)
        pe = f.pe(1, 0)
        assert pe.coord == (1, 0)
        assert f.router(1, 0).coord == (1, 0)

    def test_out_of_range(self):
        f = Fabric(2, 2)
        with pytest.raises(IndexError):
            f.pe(2, 0)
        with pytest.raises(IndexError):
            f.router(0, -1)

    def test_contains(self):
        f = Fabric(3, 2)
        assert f.contains((2, 1))
        assert not f.contains((3, 0))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            Fabric(0, 3)

    def test_rejects_oversized(self):
        w, h = WSE2_MAX_FABRIC
        with pytest.raises(ValueError, match="usable WSE-2 fabric"):
            Fabric(w + 1, h)

    def test_max_fabric_constant(self):
        assert WSE2_MAX_FABRIC == (750, 994)

    def test_pes_iteration_row_major(self):
        f = Fabric(2, 2)
        coords = [pe.coord for pe in f.pes()]
        assert coords == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_per_pe_memory_configurable(self):
        f = Fabric(1, 1, pe_memory_bytes=1000, pe_memory_reserved=100)
        pe = f.pe(0, 0)
        assert pe.memory.capacity == 1000
        assert pe.memory.used == 100

    def test_vectorized_flag_propagates(self):
        f = Fabric(1, 1, vectorized=False)
        assert not f.pe(0, 0).dsd.vectorized


class TestColorConfiguration:
    def test_configure_all(self):
        f = Fabric(2, 2)
        f.configure_color(0, lambda coord: [{Port.RAMP: (Port.EAST,)}])
        for y in range(2):
            for x in range(2):
                assert f.router(x, y).routes(0, Port.RAMP) == (Port.EAST,)

    def test_selective_configuration(self):
        f = Fabric(2, 1)
        f.configure_color(
            0,
            lambda coord: [{Port.RAMP: (Port.EAST,)}] if coord == (0, 0) else None,
        )
        assert f.router(0, 0).routes(0, Port.RAMP) == (Port.EAST,)
        assert f.router(1, 0).routes(0, Port.RAMP) == ()

    def test_initial_position_callback(self):
        f = Fabric(2, 1)
        positions = [{Port.RAMP: (Port.EAST,)}, {Port.WEST: (Port.RAMP,)}]
        f.configure_color(
            0,
            lambda coord: positions,
            initial_for=lambda coord: coord[0] % 2,
        )
        assert f.router(0, 0).position(0) == 0
        assert f.router(1, 0).position(0) == 1


class TestRouteClasses:
    """`install_routes` validates and flattens once per class; what a
    router can change stays its own."""

    SEND = [{Port.RAMP: (Port.EAST,)}, {Port.WEST: (Port.RAMP,)}]

    def test_assignment_picks_the_class_per_router(self):
        f = Fabric(3, 2)
        classes = [(self.SEND, 0), (self.SEND, 1), ([{Port.WEST: (Port.EAST,)}], 0)]
        f.install_routes(4, classes, [0, 1, 2, -1, 0, 1])
        assert [f.router(x, 0).position(4) for x in range(3)] == [0, 1, 0]
        assert f.router(0, 0).routes(4, Port.RAMP) == (Port.EAST,)
        assert f.router(1, 0).routes(4, Port.WEST) == (Port.RAMP,)
        assert f.router(2, 0).routes(4, Port.WEST) == (Port.EAST,)
        assert f.router(0, 1).configured_colors() == ()
        assert f.router(1, 1).configs[4] == f.router(0, 0).configs[4]
        assert f.router(2, 1).configs[4].initial == 1

    def test_class_mates_share_nothing_they_can_change(self):
        f = Fabric(2, 1)
        positions = [dict(p) for p in self.SEND]
        f.install_routes(0, [(positions, 0)], [0, 0])
        a, b = f.router(0, 0), f.router(1, 0)
        assert a.configs[0] is not b.configs[0]
        assert a.configs[0].positions is not b.configs[0].positions
        assert a.configs[0].positions[0] is not b.configs[0].positions[0]
        assert a.configs[0].positions[0] is not positions[0]  # nor the caller's
        assert a.table is not b.table
        a.configs[0].positions[0][Port.RAMP] = (Port.NORTH,)
        a.refresh(0)
        a.advance(0)
        assert b.routes(0, Port.RAMP) == (Port.EAST,)
        assert b.position(0) == 0
        assert b.positions_of(0) == self.SEND

    def test_validation_happens_once_and_names_the_problem(self):
        f = Fabric(2, 1)
        with pytest.raises(ValueError, match="routing loop"):
            f.install_routes(0, [([{Port.EAST: (Port.EAST,)}], 0)], [0, 0])
        with pytest.raises(ValueError, match="initial position out of range"):
            f.install_routes(0, [(self.SEND, 2)], [0, 0])
        with pytest.raises(ValueError, match="at least one switch position"):
            f.install_routes(0, [([], 0)], [0, 0])
        assert f.configured_colors() == set()  # nothing half-installed
        with pytest.raises(ValueError, match="3 entries for a fabric of 2 PEs"):
            f.install_routes(0, [(self.SEND, 0)], [0, 0, 0])

    def test_a_class_no_router_uses_is_not_looked_at(self):
        f = Fabric(2, 1)
        f.install_routes(0, [(self.SEND, 0), ([], 9)], [0, -1])
        assert f.router(0, 0).position(0) == 0

    def test_loops_are_admitted_on_request_but_shape_is_still_checked(self):
        f = Fabric(2, 1)
        loop = [{Port.EAST: (Port.EAST,)}]
        f.install_routes(0, [(loop, 0)], [0, 0], allow_loops=True)
        assert f.router(1, 0).routes(0, Port.EAST) == (Port.EAST,)
        assert f.router(1, 0).positions_of(0) == loop
        with pytest.raises(ValueError, match="initial position out of range"):
            f.install_routes(1, [(loop, 1)], [0, 0], allow_loops=True)

    def test_a_color_is_installed_once(self):
        f = Fabric(2, 1)
        f.install_routes(0, [(self.SEND, 0)], [-1, 0])
        with pytest.raises(ValueError, match=r"router \(1, 0\): color 0 already"):
            f.install_routes(0, [(self.SEND, 0)], [0, 0])

    def test_configure_color_interns_equal_schedules(self):
        """The callback form lands in the same installer: equal answers
        become one class, whatever object each call returned."""
        f = Fabric(4, 1)
        f.configure_color(
            0,
            lambda coord: [{Port.RAMP: [Port.EAST]}, {Port.WEST: (Port.RAMP,)}],
            initial_for=lambda coord: coord[0] % 2,
        )
        flat = [f.router(x, 0)._flat[0] for x in range(4)]
        assert flat[0] is flat[2] and flat[1] is flat[3]
        assert flat[0] is not flat[1]  # same positions, other initial
        assert [f.router(x, 0).position(0) for x in range(4)] == [0, 1, 0, 1]
        assert f.router(0, 0).routes(0, Port.RAMP) == (Port.EAST,)


class TestInstallMemory:
    def test_one_block_backs_the_listed_pes_in_order(self):
        from repro.wse.memory import Scratchpad

        f = Fabric(3, 2, pe_memory_bytes=1024, pe_memory_reserved=32)
        probe = Scratchpad(1024, reserved=32)
        probe.alloc_array("col", 4, np.float32)
        probe.alloc_array("train", (2, 4), np.float32)
        coords = [(2, 1), (0, 0), (1, 1)]
        columns = f.install_memory(probe.plan(), coords)
        assert columns["col"].shape == (3, 4) and columns["train"].shape == (3, 2, 4)
        columns["col"][:] = [[1], [2], [3]]
        for i, (x, y) in enumerate(coords):
            memory = f.pe(x, y).memory
            assert memory.array("col").tolist() == [i + 1.0] * 4
            assert memory.used == probe.used == 32 + 48
            assert memory.get("train").offset == 48
            assert np.shares_memory(memory.array("train"), columns["train"][i])
        assert f.pe(1, 0).memory.names() == []
        assert f.max_memory_high_water() == 80
        base = columns["col"].base
        while base.base is not None:
            base = base.base
        assert base.shape == (3, 48) and base.flags.c_contiguous


class TestBindAll:
    def test_data_binding(self):
        f = Fabric(2, 1)
        hits = []
        f.bind_all(0, lambda rt, pe, msg: hits.append(pe.coord))
        msg = Message(color=0, payload=np.zeros(1, dtype=np.float32))
        f.pe(0, 0).handler_for(msg)(None, f.pe(0, 0), msg)
        assert hits == [(0, 0)]

    def test_control_binding_separate(self):
        from repro.wse.packet import KIND_CONTROL

        f = Fabric(1, 1)
        f.bind_all(0, lambda rt, pe, msg: None)
        f.bind_all(0, lambda rt, pe, msg: None, control=True)
        pe = f.pe(0, 0)
        ctrl = Message(color=0, kind=KIND_CONTROL)
        assert pe.handler_for(ctrl) is not None


class TestAggregates:
    def test_total_counts_and_flops(self):
        f = Fabric(2, 1)
        f.pe(0, 0).dsd.fmuls(np.empty(3), 1.0, 2.0)
        f.pe(1, 0).dsd.fmacs(np.empty(2), 1.0, 2.0, 3.0)
        totals = f.total_counts()
        assert totals == {"FMUL": 3, "FMA": 2}
        assert f.total_flops() == 3 + 4

    def test_memory_high_water(self):
        f = Fabric(2, 1, pe_memory_bytes=1024)
        f.pe(1, 0).memory.alloc_array("x", 32, np.float32)
        assert f.max_memory_high_water() == 128

    def test_reset_counters(self):
        f = Fabric(1, 1)
        pe = f.pe(0, 0)
        pe.dsd.fmuls(np.empty(2), 1.0, 2.0)
        pe.busy_until = 99.0
        pe.messages_received = 5
        f.reset_counters()
        assert pe.dsd.flops == 0
        assert pe.busy_until == 0.0
        assert pe.messages_received == 0
