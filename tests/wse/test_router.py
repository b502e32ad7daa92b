"""Unit tests for routers, colors, and switch positions."""

import pytest

from repro.wse.color import MAX_ROUTABLE_COLORS, ColorAllocator
from repro.wse.fabric import Fabric
from repro.wse.geometry import Port
from repro.wse.router import PORT_SHIFT, ColorConfig, Router


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
        r = Router(coord=(0, 0))
        r.configure(0, [{Port.RAMP: (Port.EAST,)}])
        assert r.routes(0, Port.RAMP) == (Port.EAST,)
        assert r.routes(0, Port.WEST) == ()

    def test_advance_cycles(self):
        r = Router(coord=(0, 0))
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
        r = Router(coord=(0, 0))
        r.configure(0, [{}, {Port.WEST: (Port.RAMP,)}], initial=1)
        assert r.position(0) == r.configs[0].initial == 1
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
        r = Router(coord=(0, 0))
        r.configure(5, [{Port.RAMP: (Port.EAST, Port.WEST)}])
        assert r.routes(5, Port.RAMP) == (Port.EAST, Port.WEST)

    def test_unconfigured_color_drops(self):
        r = Router(coord=(0, 0))
        assert r.routes(9, Port.RAMP) == ()

    def test_double_configure_rejected(self):
        r = Router(coord=(0, 0))
        r.configure(1, [{}])
        with pytest.raises(ValueError, match="already configured"):
            r.configure(1, [{}])

    def test_advance_specific_color(self):
        r = Router(coord=(1, 1))
        r.configure(1, [{Port.RAMP: (Port.EAST,)}, {Port.WEST: (Port.RAMP,)}])
        r.configure(2, [{Port.RAMP: (Port.SOUTH,)}])
        r.advance(1)
        assert r.position(1) == 1
        assert r.position(2) == 0  # untouched

    def test_advance_unconfigured_is_noop(self):
        r = Router(coord=(0, 0))
        r.advance(7)  # must not raise

    def test_position_of_unconfigured(self):
        r = Router(coord=(3, 7))
        with pytest.raises(KeyError, match=r"\(3, 7\).*color 3"):
            r.position(3)

    def test_multicast_fan_out(self):
        """A single input may fan out to several links (local broadcast)."""
        r = Router(coord=(0, 0))
        r.configure(
            0, [{Port.RAMP: (Port.NORTH, Port.EAST, Port.SOUTH, Port.WEST)}]
        )
        assert len(r.routes(0, Port.RAMP)) == 4

    def test_introspection_copies_all_positions(self):
        r = Router(coord=(0, 0))
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
        one = Router(coord=(0, 0))
        one.configure(3, self.POSITIONS, initial=1)
        fabric = Fabric(1, 1)
        fabric.install_routes(3, [(self.POSITIONS, 1)], [0])
        other = fabric.router(0, 0)
        assert one == other
        assert one.table == other.table == {
            (3 << PORT_SHIFT) | Port.WEST: (Port.RAMP, Port.EAST)
        }
        assert other.configs[3].initial == 1

    def test_one_schedule_serves_many_routers(self):
        fabric = Fabric(3, 1)
        fabric.install_routes(0, [(self.POSITIONS, 0)], [0, 0, 0])
        routers = [fabric.router(x, 0) for x in range(3)]
        cfg = routers[0].configs[0]
        assert all(r.configs[0] is cfg for r in routers)
        routers[0].advance(0)
        assert [r.position(0) for r in routers] == [1, 0, 0]
        assert routers[0].routes(0, Port.RAMP) == ()
        assert routers[1].routes(0, Port.RAMP) == (Port.EAST,)
        # advancing moved the router's position, not the shared schedule
        assert cfg.positions == tuple(self.POSITIONS) and cfg.initial == 0
        assert cfg.flat[0] == {Port.RAMP: (Port.EAST,)}

    def test_configure_copies_the_callers_positions(self):
        positions = [{Port.RAMP: (Port.EAST,)}]
        router = Router(coord=(0, 0))
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
