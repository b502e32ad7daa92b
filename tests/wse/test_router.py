"""Unit tests for routers, colors, and switch positions."""

import pytest

from repro.wse.color import MAX_ROUTABLE_COLORS, ColorAllocator
from repro.wse.geometry import Port
from repro.wse.router import PORT_SHIFT, ColorConfig, Router, prepare_route


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
    def test_routes(self):
        cfg = ColorConfig([{Port.RAMP: (Port.EAST,)}])
        assert cfg.routes(Port.RAMP) == (Port.EAST,)
        assert cfg.routes(Port.WEST) == ()

    def test_advance_cycles(self):
        cfg = ColorConfig(
            [{Port.RAMP: (Port.EAST,)}, {Port.WEST: (Port.RAMP,)}]
        )
        assert cfg.position == 0
        cfg.advance()
        assert cfg.position == 1
        assert cfg.routes(Port.RAMP) == ()
        assert cfg.routes(Port.WEST) == (Port.RAMP,)
        cfg.advance()
        assert cfg.position == 0

    def test_initial_position(self):
        cfg = ColorConfig([{}, {Port.WEST: (Port.RAMP,)}], position=1)
        assert cfg.routes(Port.WEST) == (Port.RAMP,)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            ColorConfig([])

    def test_rejects_bad_initial(self):
        with pytest.raises(ValueError, match="out of range"):
            ColorConfig([{}], position=3)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="loop"):
            ColorConfig([{Port.EAST: (Port.EAST,)}])


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
        r = Router(coord=(0, 0))
        with pytest.raises(KeyError):
            r.position(3)

    def test_multicast_fan_out(self):
        """A single input may fan out to several links (local broadcast)."""
        r = Router(coord=(0, 0))
        r.configure(
            0, [{Port.RAMP: (Port.NORTH, Port.EAST, Port.SOUTH, Port.WEST)}]
        )
        assert len(r.routes(0, Port.RAMP)) == 4

    def test_refresh_applies_in_place_edits(self):
        r = Router(coord=(0, 0))
        r.configure(4, [{Port.RAMP: (Port.EAST,)}])
        r.configs[4].positions[0][Port.RAMP] = (Port.WEST,)
        r.refresh(4)
        assert r.routes(4, Port.RAMP) == (Port.WEST,)

    def test_refresh_unknown_color_names_router_and_color(self):
        r = Router(coord=(3, 7))
        r.configure(1, [{Port.RAMP: (Port.EAST,)}])
        with pytest.raises(ValueError, match=r"\(3, 7\).*color 9"):
            r.refresh(9)

    def test_introspection_copies_all_positions(self):
        r = Router(coord=(0, 0))
        positions = [{Port.RAMP: (Port.EAST,)}, {Port.WEST: (Port.RAMP,)}]
        r.configure(2, positions)
        assert r.configured_colors() == (2,)
        seen = r.positions_of(2)
        assert seen == positions
        seen[0][Port.RAMP] = (Port.SOUTH,)  # copies: live config untouched
        assert r.routes(2, Port.RAMP) == (Port.EAST,)
        assert r.positions_of(99) == []


class TestPreparedRoutes:
    """`prepare_route` + `Router.install`: what `configure` does, split
    so a whole class of routers pays for validation and flattening once."""

    POSITIONS = [{Port.RAMP: (Port.EAST,)}, {Port.WEST: (Port.RAMP, Port.EAST)}]

    def test_install_equals_configure(self):
        one, other = Router(coord=(0, 0)), Router(coord=(0, 0))
        one.configure(3, self.POSITIONS, initial=1)
        other.install(3, *prepare_route(3, self.POSITIONS, 1))
        assert one == other
        assert one.table == other.table == {
            (3 << PORT_SHIFT) | Port.WEST: (Port.RAMP, Port.EAST)
        }
        assert other.configs[3].initial == 1

    def test_one_pair_serves_many_routers(self):
        pair = prepare_route(0, self.POSITIONS)
        routers = [Router(coord=(x, 0)) for x in range(3)]
        for router in routers:
            router.install(0, *pair)
        routers[0].advance(0)
        assert [r.position(0) for r in routers] == [1, 0, 0]
        # a refresh re-flattens privately; the shared pair is untouched
        routers[1].configs[0].positions[0][Port.RAMP] = (Port.SOUTH,)
        routers[1].refresh(0)
        assert routers[1].routes(0, Port.RAMP) == (Port.SOUTH,)
        assert routers[2].routes(0, Port.RAMP) == (Port.EAST,)
        assert pair[0].positions == self.POSITIONS
        assert pair[1][0] == {Port.RAMP: (Port.EAST,)}

    def test_configure_copies_the_callers_positions(self):
        positions = [{Port.RAMP: (Port.EAST,)}]
        router = Router(coord=(0, 0))
        router.configure(0, positions)
        positions[0][Port.WEST] = (Port.RAMP,)
        router.refresh(0)
        assert router.routes(0, Port.WEST) == ()

    def test_loops_only_on_request(self):
        loop = [{Port.EAST: (Port.EAST,)}]
        with pytest.raises(ValueError, match="routing loop"):
            prepare_route(0, loop)
        template, flat = prepare_route(0, loop, allow_loops=True)
        assert template.positions == loop and flat == [{Port.EAST: (Port.EAST,)}]
        with pytest.raises(ValueError, match="at least one switch position"):
            prepare_route(0, [], allow_loops=True)
