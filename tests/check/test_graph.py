"""Channel-dependency-graph construction and deadlock detection."""

from repro.check import Severity, build_channel_graph, find_deadlocks
from repro.wse.fabric import Fabric
from repro.wse.geometry import Port

COLOR = 3


def _line_broadcast(width: int) -> Fabric:
    """(0,0) injects east; every other PE delivers and forwards east."""
    fabric = Fabric(width, 1)
    fabric.router(0, 0).configure(COLOR, [{Port.RAMP: (Port.EAST,)}])
    for x in range(1, width):
        fabric.router(x, 0).configure(
            COLOR, [{Port.WEST: (Port.RAMP, Port.EAST)}]
        )
    return fabric


class TestBuildChannelGraph:
    def test_line_broadcast_feeds_every_link(self):
        graph = build_channel_graph(_line_broadcast(4), COLOR)
        assert graph.injectors == {(0, 0)}
        assert graph.seeds == {((0, 0), Port.EAST)}
        assert graph.fed == {((x, 0), Port.EAST) for x in range(4)}
        assert graph.delivers == {(1, 0), (2, 0), (3, 0)}
        assert graph.offchip == {((3, 0), Port.EAST)}
        assert not graph.dead_ends

    def test_arrivals_are_link_destinations(self):
        graph = build_channel_graph(_line_broadcast(3), COLOR)
        # the off-fabric hop contributes coordinate (3, 0): arrival sets
        # are about switch advancement, not delivery
        assert graph.arrivals() == {(1, 0), (2, 0), (3, 0)}

    def test_unconfigured_color_yields_empty_graph(self):
        graph = build_channel_graph(_line_broadcast(3), COLOR + 1)
        assert not graph.edges
        assert not graph.fed

    def test_bypass_column_is_walked_past(self):
        fabric = Fabric(3, 1, bypass_columns=[1])
        fabric.router(0, 0).configure(COLOR, [{Port.RAMP: (Port.EAST,)}])
        fabric.router(2, 0).configure(COLOR, [{Port.WEST: (Port.RAMP,)}])
        graph = build_channel_graph(fabric, COLOR)
        assert graph.delivers == {(2, 0)}
        assert not graph.dead_ends

    def test_union_covers_all_switch_positions(self):
        fabric = Fabric(2, 1)
        fabric.router(0, 0).configure(
            COLOR,
            [{Port.RAMP: (Port.EAST,)}, {Port.RAMP: ()}],
        )
        fabric.router(1, 0).configure(
            COLOR,
            [{Port.WEST: ()}, {Port.WEST: (Port.RAMP,)}],
        )
        graph = build_channel_graph(fabric, COLOR)
        # position 1 of (1,0) delivers, so the union must see it
        assert graph.delivers == {(1, 0)}


class TestFindDeadlocks:
    def test_two_cycle_is_exactly_one_error_with_coordinates(self):
        """ISSUE bad fabric (b): a two-link routing loop.

        ``ColorConfig`` rejects u-turn entries unless asked to admit
        them, so the corrupt tables are installed with ``allow_loops`` —
        as ``repro check`` rebuilds a captured IR — the class of damage
        only a static pass can catch before execution."""
        fabric = Fabric(2, 1)
        fabric.install_routes(
            COLOR,
            [
                ([{Port.RAMP: (Port.EAST,), Port.EAST: (Port.EAST,)}], 0),
                ([{Port.WEST: (Port.WEST,)}], 0),
            ],
            [0, 1],
            allow_loops=True,
        )
        findings = find_deadlocks(fabric, COLOR, color_name="loop")
        errors = [f for f in findings if f.severity is Severity.ERROR]
        assert len(errors) == 1
        err = errors[0]
        assert err.code == "deadlock-cycle"
        assert err.coord == (0, 0)
        assert err.port == "EAST"
        assert err.color == COLOR
        assert "(0,0)->EAST" in err.detail and "(1,0)->WEST" in err.detail

    def test_unfed_cycle_is_a_warning(self):
        fabric = Fabric(2, 1)
        fabric.install_routes(
            COLOR,
            [([{Port.EAST: (Port.EAST,)}], 0), ([{Port.WEST: (Port.WEST,)}], 0)],
            [0, 1],
            allow_loops=True,
        )
        findings = find_deadlocks(fabric, COLOR)
        assert [f.severity for f in findings] == [Severity.WARNING]
        assert "unfed" in findings[0].message

    def test_four_link_ring_is_one_component(self):
        fabric = Fabric(2, 2)
        ring = {
            (0, 0): {Port.RAMP: (Port.EAST,), Port.WEST: (Port.EAST,)},
            (1, 0): {Port.WEST: (Port.SOUTH,)},
            (1, 1): {Port.NORTH: (Port.WEST,)},
            (0, 1): {Port.EAST: (Port.NORTH,)},
        }
        # the ring turns corners, so in-ports are the arrival sides
        fabric.router(0, 0).configure(
            COLOR, [{Port.RAMP: (Port.EAST,), Port.SOUTH: (Port.EAST,)}]
        )
        fabric.router(1, 0).configure(COLOR, [{Port.WEST: (Port.SOUTH,)}])
        fabric.router(1, 1).configure(COLOR, [{Port.NORTH: (Port.WEST,)}])
        fabric.router(0, 1).configure(COLOR, [{Port.EAST: (Port.NORTH,)}])
        findings = find_deadlocks(fabric, COLOR)
        errors = [f for f in findings if f.severity is Severity.ERROR]
        assert len(errors) == 1
        assert "4 link(s)" in errors[0].message

    def test_acyclic_broadcast_has_no_findings(self):
        assert find_deadlocks(_line_broadcast(5), COLOR) == []
