"""Unit tests for routers, colors, and switch positions."""

import pytest

from repro.wse.color import MAX_ROUTABLE_COLORS, ColorAllocator
from repro.wse.fabric import Fabric
from repro.wse.geometry import Port
from repro.wse.router import PORT_SHIFT, ColorConfig


def _router(x: int = 0, y: int = 0):
    """The router view at ``(x, y)`` of a fabric just large enough."""
    return Fabric(x + 1, y + 1).router(x, y)


class TestColorAllocator:
    def test_sequential_ids(self):
        colors = ColorAllocator()
        assert colors.allocate("a") == 0
        assert colors.allocate("b") == 1

    def test_lookup_and_name(self):
        colors = ColorAllocator()
        cid = colors.allocate("east")
        assert colors.lookup("east") == cid
        assert colors.name_of(cid) == "east"

    def test_duplicate_name(self):
        colors = ColorAllocator()
        colors.allocate("a")
        with pytest.raises(ValueError, match="already"):
            colors.allocate("a")

    def test_budget_exhaustion(self):
        colors = ColorAllocator(budget=2)
        colors.allocate("a")
        colors.allocate("b")
        with pytest.raises(ValueError, match="out of routable colors"):
            colors.allocate("c")

    def test_default_budget_is_hardware(self):
        assert ColorAllocator().budget == MAX_ROUTABLE_COLORS == 24

    def test_contains_and_len(self):
        colors = ColorAllocator()
        colors.allocate("a")
        assert "a" in colors
        assert "b" not in colors
        assert len(colors) == 1

    def test_unknown_lookups(self):
        colors = ColorAllocator()
        with pytest.raises(KeyError):
            colors.lookup("ghost")
        with pytest.raises(KeyError):
            colors.name_of(0)


class TestColorConfig:
    """A color's switch schedule, seen through the router that runs it."""

    def test_routes(self):
        r = _router(0, 0)
        r.configure(0, [{Port.RAMP: (Port.EAST,)}])
        assert r.routes(0, Port.RAMP) == (Port.EAST,)
        assert r.routes(0, Port.WEST) == ()

    def test_advance_cycles(self):
        r = _router(0, 0)
        r.configure(0, [{Port.RAMP: (Port.EAST,)}, {Port.WEST: (Port.RAMP,)}])
        assert r.position(0) == 0
        r.advance(0)
        assert r.position(0) == 1
        assert r.routes(0, Port.RAMP) == ()
        assert r.routes(0, Port.WEST) == (Port.RAMP,)
        r.advance(0)
        assert r.position(0) == 0
        assert r.routes(0, Port.RAMP) == (Port.EAST,)

    def test_initial_position(self):
        r = _router(0, 0)
        r.configure(0, [{}, {Port.WEST: (Port.RAMP,)}], initial=1)
        assert r.position(0) == r.config(0).initial == 1
        assert r.routes(0, Port.WEST) == (Port.RAMP,)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            ColorConfig(0, [])

    def test_rejects_bad_initial(self):
        with pytest.raises(ValueError, match="out of range"):
            ColorConfig(0, [{}], initial=3)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="loop"):
            ColorConfig(0, [{Port.EAST: (Port.EAST,)}])


class TestRouter:
    def test_configure_and_route(self):
        r = _router(0, 0)
        r.configure(5, [{Port.RAMP: (Port.EAST, Port.WEST)}])
        assert r.routes(5, Port.RAMP) == (Port.EAST, Port.WEST)

    def test_unconfigured_color_drops(self):
        r = _router(0, 0)
        assert r.routes(9, Port.RAMP) == ()

    def test_double_configure_rejected(self):
        r = _router(0, 0)
        r.configure(1, [{}])
        with pytest.raises(ValueError, match="already configured"):
            r.configure(1, [{}])

    def test_advance_specific_color(self):
        r = _router(1, 1)
        r.configure(1, [{Port.RAMP: (Port.EAST,)}, {Port.WEST: (Port.RAMP,)}])
        r.configure(2, [{Port.RAMP: (Port.SOUTH,)}])
        r.advance(1)
        assert r.position(1) == 1
        assert r.position(2) == 0  # untouched

    def test_advance_unconfigured_is_noop(self):
        r = _router(0, 0)
        r.advance(7)  # must not raise

    def test_position_of_unconfigured(self):
        r = _router(3, 7)
        with pytest.raises(KeyError, match=r"\(3, 7\).*color 3"):
            r.position(3)

    def test_multicast_fan_out(self):
        """A single input may fan out to several links (local broadcast)."""
        r = _router(0, 0)
        r.configure(
            0, [{Port.RAMP: (Port.NORTH, Port.EAST, Port.SOUTH, Port.WEST)}]
        )
        assert len(r.routes(0, Port.RAMP)) == 4

    def test_introspection_copies_all_positions(self):
        r = _router(0, 0)
        positions = [{Port.RAMP: (Port.EAST,)}, {Port.WEST: (Port.RAMP,)}]
        r.configure(2, positions)
        assert r.configured_colors() == (2,)
        seen = r.positions_of(2)
        assert seen == positions
        seen[0][Port.RAMP] = (Port.SOUTH,)  # copies: live config untouched
        assert r.routes(2, Port.RAMP) == (Port.EAST,)
        assert r.positions_of(2) == positions
        assert r.positions_of(99) == []


class TestPreparedRoutes:
    """One `ColorConfig`, validated and flattened once, serves every
    router of a route class (`Fabric.install_routes`); `configure` is
    the one-router form."""

    POSITIONS = [{Port.RAMP: (Port.EAST,)}, {Port.WEST: (Port.RAMP, Port.EAST)}]

    def test_install_equals_configure(self):
        one = _router(0, 0)
        one.configure(3, self.POSITIONS, initial=1)
        fabric = Fabric(1, 1)
        fabric.install_routes(3, [(self.POSITIONS, 1)], [0])
        other = fabric.router(0, 0)
        assert one.coord == other.coord
        assert one.config(3) == other.config(3)
        assert one.position(3) == other.position(3) == 1
        assert one.table == other.table == {
            (3 << PORT_SHIFT) | Port.WEST: (Port.RAMP, Port.EAST)
        }
        assert other.config(3).initial == 1

    def test_one_schedule_serves_many_routers(self):
        fabric = Fabric(3, 1)
        fabric.install_routes(0, [(self.POSITIONS, 0)], [0, 0, 0])
        routers = [fabric.router(x, 0) for x in range(3)]
        cfg = routers[0].config(0)
        assert all(r.config(0) is cfg for r in routers)
        routers[0].advance(0)
        assert [r.position(0) for r in routers] == [1, 0, 0]
        assert routers[0].routes(0, Port.RAMP) == ()
        assert routers[1].routes(0, Port.RAMP) == (Port.EAST,)
        # advancing moved the router's position, not the shared schedule
        assert cfg.positions == tuple(self.POSITIONS) and cfg.initial == 0
        assert cfg.flat[0] == {Port.RAMP: (Port.EAST,)}

    def test_configure_copies_the_callers_positions(self):
        positions = [{Port.RAMP: (Port.EAST,)}]
        router = _router(0, 0)
        router.configure(0, positions)
        positions[0][Port.WEST] = (Port.RAMP,)
        assert router.routes(0, Port.WEST) == ()
        assert router.positions_of(0) == [{Port.RAMP: (Port.EAST,)}]

    def test_loops_only_on_request(self):
        loop = [{Port.EAST: (Port.EAST,)}]
        with pytest.raises(ValueError, match="routing loop"):
            ColorConfig(0, loop)
        cfg = ColorConfig(0, loop, allow_loops=True)
        assert cfg.positions == tuple(loop) and cfg.flat == ({Port.EAST: (Port.EAST,)},)
        with pytest.raises(ValueError, match="at least one switch position"):
            ColorConfig(0, [], allow_loops=True)


class TestSwitchTables:
    """A router's whole switch state is one integer of the fabric's
    `SwitchTables`; its states are built once per route signature and
    routers in one state read one shared table."""

    SEND = [{Port.RAMP: (Port.EAST,)}, {Port.WEST: (Port.RAMP,)}]

    def _fabric(self):
        f = Fabric(3, 1)
        f.install_routes(0, [(self.SEND, 0), (self.SEND, 1)], [0, 1, 0])
        f.install_routes(1, [([{Port.RAMP: (Port.NORTH,)}], 0)], [0, 0, -1])
        return f

    def test_one_signature_per_tuple_of_classes(self):
        switch = self._fabric().switch_tables()
        # (class 0, class 0), (class 1, class 0), (class 0, none)
        assert switch.signature_of == [0, 1, 2]
        assert [len(parts) for parts in switch.parts] == [2, 2, 1]
        assert len(switch.tables) == 2 + 2 + 2  # two positions each

    def test_equal_tables_are_one_object(self):
        """Position 1 of class 0 is position 1 of class 1 (same
        schedule, other initial position), so those states share a
        table; each table is the union of the colors' flat positions."""
        f = self._fabric()
        switch = f.switch_tables()
        a, b = switch.state[0], switch.state[1]
        assert switch.tables[a] is not switch.tables[b]
        f.router(0, 0).advance(0)
        assert switch.tables[switch.state[0]] is switch.tables[b]
        assert switch.route_gets[0] == switch.gets[switch.state[0]]
        assert switch.tables[b] == {
            0 << PORT_SHIFT | Port.WEST: (Port.RAMP,),
            1 << PORT_SHIFT | Port.RAMP: (Port.NORTH,),
        }

    def test_an_advance_moves_the_state_integer_only(self):
        f = self._fabric()
        switch = f.switch_tables()
        tables = list(switch.tables)
        before = list(switch.state)
        switch.advance(1, 0)
        switch.advance(1, 1)  # one position: stays
        switch.advance(1, 9)  # unconfigured: stays
        assert switch.state[0] == before[0] and switch.state[2] == before[2]
        assert switch.state[1] != before[1]
        assert [switch.position(1, c) for c in (0, 1, 9)] == [0, 0, None]
        assert switch.tables == tables  # nothing rebuilt or written

    def test_a_later_install_keeps_every_position_reached(self):
        f = self._fabric()
        f.router(1, 0).advance(0)
        f.router(2, 0).advance(0)
        f.install_routes(2, [(self.SEND, 0)], [0, 0, 0])
        assert [f.router(x, 0).position(0) for x in range(3)] == [0, 0, 1]
        assert [f.router(x, 0).position(2) for x in range(3)] == [0, 0, 0]
        assert f.router(2, 0).routes(0, Port.WEST) == (Port.RAMP,)

    def test_an_unconfigured_router_has_one_empty_state(self):
        f = Fabric(2, 1)
        f.router(0, 0).configure(0, self.SEND)
        switch = f.switch_tables()
        assert switch.tables[switch.state[1]] == {}
        assert f.router(1, 0).configured_colors() == ()
        f.router(1, 0).advance(0)
        assert switch.state[1] == switch.initial[switch.signature_of[1]]
