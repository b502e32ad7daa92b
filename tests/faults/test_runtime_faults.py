"""EventRuntime under fault injection: hooks, watchdog, event budget."""

import numpy as np
import pytest

from repro.faults import (
    DeadPE,
    EventBudgetError,
    FabricStallError,
    FaultInjector,
    FaultPlan,
    LinkFault,
)
from repro.wse.fabric import Fabric
from repro.wse.geometry import Port
from repro.wse.perf import WsePerfModel
from repro.wse.runtime import EventRuntime

COLOR = 0


def eastbound_route(coord):
    """Forward everything east, deliver at the east edge."""
    return [{Port.RAMP: (Port.EAST,), Port.WEST: (Port.EAST, Port.RAMP)}]


def ping_pong_fabric():
    """A mis-routed color: the message orbits a 2x2 router cycle
    forever and is never delivered up a ramp (a real routing bug)."""
    fabric = Fabric(2, 2)
    routes = {
        (0, 0): {Port.RAMP: (Port.EAST,), Port.SOUTH: (Port.EAST,)},
        (1, 0): {Port.WEST: (Port.SOUTH,)},
        (1, 1): {Port.NORTH: (Port.WEST,)},
        (0, 1): {Port.EAST: (Port.NORTH,)},
    }
    fabric.configure_color(COLOR, lambda c: [routes[c]])
    return fabric


class TestFaultHooks:
    def run_line(self, faults=None, width=4):
        fabric = Fabric(width, 1)
        fabric.configure_color(COLOR, eastbound_route)
        got = []
        fabric.bind_all(COLOR, lambda r, pe, m: got.append(pe.coord))
        rt = EventRuntime(fabric, WsePerfModel(), faults=faults)
        rt.inject((0, 0), COLOR, np.ones(2, dtype=np.float32))
        rt.run()
        return rt, got

    def test_dead_pe_never_injects(self):
        inj = FaultInjector(FaultPlan(dead_pes=(DeadPE(0, 0),)))
        rt, got = self.run_line(faults=inj)
        assert got == []
        assert inj.stats.injections_suppressed == 1
        assert rt.stats.messages_injected == 0

    def test_dead_pe_never_receives(self):
        inj = FaultInjector(FaultPlan(dead_pes=(DeadPE(2, 0),)))
        rt, got = self.run_line(faults=inj)
        assert (2, 0) not in got
        assert inj.stats.deliveries_suppressed == 1

    def test_dropped_packet_counted_in_runtime_stats(self):
        inj = FaultInjector(
            FaultPlan(link_faults=(LinkFault(1, 0, Port.EAST, mode="drop"),))
        )
        rt, got = self.run_line(faults=inj)
        assert rt.stats.messages_dropped_faulted == 1
        assert inj.stats.packets_dropped == 1
        # deliveries stop at the broken link
        assert got == [(1, 0)]

    def test_delay_link_shifts_arrival_times(self):
        healthy, _ = self.run_line()
        inj = FaultInjector(
            FaultPlan(
                link_faults=(
                    LinkFault(0, 0, Port.EAST, mode="delay", delay_cycles=500.0),
                )
            )
        )
        delayed, got = self.run_line(faults=inj)
        assert len(got) == 3  # all still delivered, just late
        assert delayed.now >= healthy.now + 500.0

    def test_empty_plan_injector_matches_healthy_run(self):
        """An attached injector with nothing to do is fully transparent."""
        healthy, _ = self.run_line()
        inj = FaultInjector(FaultPlan())
        faulted, _ = self.run_line(faults=inj)
        assert faulted.stats == healthy.stats
        assert faulted.now == healthy.now
        assert inj.stats.fabric_events == 0


class TestEventBudget:
    def test_budget_error_carries_context(self):
        fabric = ping_pong_fabric()
        rt = EventRuntime(fabric, WsePerfModel())
        rt.inject((0, 0), COLOR, np.ones(1, dtype=np.float32))
        with pytest.raises(EventBudgetError, match="budget") as info:
            rt.run(max_events=50)
        err = info.value
        assert err.processed == 50
        assert err.pending == 1  # the one orbiting message
        assert err.now == rt.now
        assert rt.stats.runs_truncated == 1

    @pytest.mark.parametrize("budget", [0, 1, 3, 4, 7, 12])
    def test_resumed_run_finishes_in_the_unbudgeted_order(self, budget):
        """A budget stop keeps the unrun events, tied ones included, at
        the front of the queue: a second ``run()`` completes the same
        deliveries at the same times as one unbudgeted run."""

        def deliveries(max_events):
            fabric = Fabric(4, 1)
            fabric.configure_color(COLOR, eastbound_route)
            got = []
            fabric.bind_all(
                COLOR, lambda r, pe, m: got.append((r.now, pe.coord, m.source))
            )
            rt = EventRuntime(fabric, WsePerfModel())
            for x, at in ((0, 0.0), (1, 0.0), (0, 2.0), (2, 0.0)):
                rt.inject((x, 0), COLOR, np.ones(2, dtype=np.float32), at=at)
            if max_events is not None:
                with pytest.raises(EventBudgetError) as info:
                    rt.run(max_events=max_events)
                assert info.value.pending == len(rt.pending()) > 0
            rt.run()
            return got, rt.stats.events_processed

        want, events = deliveries(None)
        assert (want, events) == deliveries(budget)
        assert events > 12

    def test_truncation_visible_in_stats_across_runs(self):
        fabric = ping_pong_fabric()
        rt = EventRuntime(fabric, WsePerfModel())
        for _ in range(2):
            rt.inject((0, 0), COLOR, np.ones(1, dtype=np.float32))
            with pytest.raises(EventBudgetError):
                rt.run(max_events=10)
        assert rt.stats.runs_truncated == 2


class TestWatchdog:
    def test_misrouted_color_trips_watchdog(self):
        fabric = ping_pong_fabric()
        rt = EventRuntime(fabric, WsePerfModel(), watchdog_cycles=500.0)
        rt.inject((0, 0), COLOR, np.ones(1, dtype=np.float32))
        with pytest.raises(FabricStallError, match="stalled") as info:
            rt.run()
        err = info.value
        assert err.idle_cycles > err.watchdog_cycles == 500.0
        assert err.report["pending_events"] >= 1
        assert err.report["in_flight"], "stall report must sample in-flight msgs"
        assert err.report["last_active_links"], "stall report must name hot links"

    def test_stall_report_lists_the_queue_in_run_order(self):
        """Three orbiting messages: the report counts all of them, lists
        them by due time, and leads with the event the watchdog stopped
        at (nothing was ever delivered, so it is due at ``idle_cycles``)."""
        fabric = ping_pong_fabric()
        rt = EventRuntime(fabric, WsePerfModel(), watchdog_cycles=500.0)
        for at in (0.0, 5.0, 10.0):
            rt.inject((0, 0), COLOR, np.ones(1, dtype=np.float32), at=at)
        with pytest.raises(FabricStallError) as info:
            rt.run()
        err = info.value
        report = err.report
        assert report["pending_events"] == len(rt.pending()) == 3
        dues = [item["due"] for item in report["in_flight"]]
        assert dues == sorted(dues) == [p[0] for p in rt.pending()]
        assert dues[0] == err.idle_cycles
        assert [item["event"] for item in report["in_flight"]] == ["arrival"] * 3
        # the stopped event is still queued: resuming (watchdog off) runs
        # it first
        rt.watchdog_cycles = None
        before = rt.stats.events_processed
        with pytest.raises(EventBudgetError):
            rt.run(max_events=1)
        assert rt.stats.events_processed == before + 1
        assert rt.now == dues[0]

    def test_constructor_default_applies_to_every_run(self):
        fabric = ping_pong_fabric()
        rt = EventRuntime(fabric, WsePerfModel(), watchdog_cycles=500.0)
        rt.inject((0, 0), COLOR, np.ones(1, dtype=np.float32))
        with pytest.raises(FabricStallError):
            rt.run()

    def test_healthy_traffic_does_not_trip(self):
        fabric = Fabric(4, 1)
        fabric.configure_color(COLOR, eastbound_route)
        rt = EventRuntime(fabric, WsePerfModel(), watchdog_cycles=1000.0)
        rt.inject((0, 0), COLOR, np.ones(2, dtype=np.float32))
        rt.run()  # deliveries every hop: progress never stalls
        assert rt.stats.messages_delivered == 3
