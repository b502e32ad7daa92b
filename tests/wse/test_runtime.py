"""Unit tests for the discrete-event runtime: routing, timing, control."""

import heapq
import inspect
from itertools import count

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults import (
    EventBudgetError, FabricStallError, FaultInjector, FaultPlan, LinkFault,
)
from repro.obs.report import stall_report
from repro.obs.trace import TraceSink
from repro.wse.fabric import Fabric
from repro.wse.geometry import Port
from repro.wse.packet import KIND_CONTROL, KIND_DATA, Message
from repro.wse.perf import WsePerfModel
from repro.wse.runtime import _EV_ARRIVE, EventRuntime

COLOR = 0


def make_runtime(width=3, height=3, **perf_kwargs):
    fabric = Fabric(width, height)
    perf = WsePerfModel(**perf_kwargs) if perf_kwargs else WsePerfModel()
    return fabric, EventRuntime(fabric, perf, trace_sink=TraceSink())


class TestPointToPoint:
    def test_east_delivery(self):
        fabric, rt = make_runtime()
        fabric.configure_color(
            COLOR,
            lambda c: [{Port.RAMP: (Port.EAST,), Port.WEST: (Port.RAMP,)}],
        )
        got = []
        fabric.bind_all(COLOR, lambda r, pe, m: got.append((pe.coord, m.payload.copy())))
        rt.inject((0, 1), COLOR, np.array([1.0, 2.0], dtype=np.float32))
        rt.run()
        assert len(got) == 1
        coord, payload = got[0]
        assert coord == (1, 1)
        np.testing.assert_array_equal(payload, [1.0, 2.0])

    def test_off_chip_dropped(self):
        fabric, rt = make_runtime()
        fabric.configure_color(COLOR, lambda c: [{Port.RAMP: (Port.WEST,)}])
        fabric.bind_all(COLOR, lambda r, pe, m: pytest.fail("must not deliver"))
        rt.inject((0, 0), COLOR, np.zeros(1, dtype=np.float32))
        rt.run()
        assert rt.stats.messages_dropped_offchip == 1

    def test_unbound_color_counts_delivery(self):
        fabric, rt = make_runtime()
        fabric.configure_color(
            COLOR, lambda c: [{Port.RAMP: (Port.EAST,), Port.WEST: (Port.RAMP,)}]
        )
        rt.inject((0, 0), COLOR, np.zeros(1, dtype=np.float32))
        rt.run()  # no handler bound: delivered but no task runs
        assert rt.stats.messages_delivered == 1

    def test_hop_count(self):
        """Two-hop path records hops == 2 (the diagonal property)."""
        fabric, rt = make_runtime()
        fabric.configure_color(
            COLOR,
            lambda c: [
                {
                    Port.RAMP: (Port.EAST,),
                    Port.WEST: (Port.SOUTH,),
                    Port.NORTH: (Port.RAMP,),
                }
            ],
        )
        got = []
        fabric.bind_all(COLOR, lambda r, pe, m: got.append((pe.coord, m.hops)))
        rt.inject((0, 0), COLOR, np.zeros(4, dtype=np.float32))
        rt.run()
        assert got == [((1, 1), 2)]
        assert rt.stats.max_hops_seen == 2


class TestMulticast:
    def test_fan_out_to_four(self):
        fabric, rt = make_runtime()
        fabric.configure_color(
            COLOR,
            lambda c: [
                {
                    Port.RAMP: (Port.NORTH, Port.EAST, Port.SOUTH, Port.WEST),
                    Port.NORTH: (Port.RAMP,),
                    Port.EAST: (Port.RAMP,),
                    Port.SOUTH: (Port.RAMP,),
                    Port.WEST: (Port.RAMP,),
                }
            ],
        )
        got = []
        fabric.bind_all(COLOR, lambda r, pe, m: got.append(pe.coord))
        rt.inject((1, 1), COLOR, np.zeros(2, dtype=np.float32))
        rt.run()
        assert sorted(got) == [(0, 1), (1, 0), (1, 2), (2, 1)]

    def test_forked_payload_shared(self):
        fabric, rt = make_runtime()
        fabric.configure_color(
            COLOR,
            lambda c: [
                {
                    Port.RAMP: (Port.EAST, Port.WEST),
                    Port.EAST: (Port.RAMP,),
                    Port.WEST: (Port.RAMP,),
                }
            ],
        )
        payloads = []
        fabric.bind_all(COLOR, lambda r, pe, m: payloads.append(m.payload))
        src = np.zeros(3, dtype=np.float32)
        rt.inject((1, 1), COLOR, src)
        rt.run()
        assert len(payloads) == 2
        assert payloads[0] is payloads[1] is not None


class TestTiming:
    def test_serialization_time(self):
        """A train of W words takes hop latency + W cycles on the link."""
        fabric, rt = make_runtime(
            3,
            1,
            hop_latency_cycles=1.0,
            injection_overhead_cycles=0.0,
            link_words_per_cycle=1.0,
        )
        fabric.configure_color(
            COLOR, lambda c: [{Port.RAMP: (Port.EAST,), Port.WEST: (Port.RAMP,)}]
        )
        times = []
        fabric.bind_all(COLOR, lambda r, pe, m: times.append(r.now))
        rt.inject((0, 0), COLOR, np.zeros(10, dtype=np.float32))
        rt.run()
        assert times == [11.0]  # 1 latency + 10 words

    def test_link_contention_serializes(self):
        """Two trains on the same link queue behind each other."""
        fabric, rt = make_runtime(
            2, 1, hop_latency_cycles=0.0, injection_overhead_cycles=0.0
        )
        fabric.configure_color(
            COLOR, lambda c: [{Port.RAMP: (Port.EAST,), Port.WEST: (Port.RAMP,)}]
        )
        times = []
        fabric.bind_all(COLOR, lambda r, pe, m: times.append(r.now))
        rt.inject((0, 0), COLOR, np.zeros(10, dtype=np.float32))
        rt.inject((0, 0), COLOR, np.zeros(10, dtype=np.float32))
        rt.run()
        assert times == [10.0, 20.0]

    def test_float64_payload_double_words(self):
        fabric, rt = make_runtime(
            2, 1, hop_latency_cycles=0.0, injection_overhead_cycles=0.0
        )
        fabric.configure_color(
            COLOR, lambda c: [{Port.RAMP: (Port.EAST,), Port.WEST: (Port.RAMP,)}]
        )
        times = []
        fabric.bind_all(COLOR, lambda r, pe, m: times.append(r.now))
        rt.inject((0, 0), COLOR, np.zeros(5, dtype=np.float64))
        rt.run()
        assert times == [10.0]

    def test_pe_busy_serializes_tasks(self):
        """Handler compute time delays the PE's next task start."""
        fabric, rt = make_runtime(2, 1, injection_overhead_cycles=0.0)

        def heavy(r, pe, m):
            pe.dsd.fmuls(np.empty(100), 1.0, 2.0)  # 100 cycles vectorized

        fabric.configure_color(
            COLOR, lambda c: [{Port.RAMP: (Port.EAST,), Port.WEST: (Port.RAMP,)}]
        )
        fabric.bind_all(COLOR, heavy)
        rt.inject((0, 0), COLOR, np.zeros(1, dtype=np.float32))
        rt.inject((0, 0), COLOR, np.zeros(1, dtype=np.float32))
        rt.run()
        pe = fabric.pe(1, 0)
        # two heavy tasks: second starts after the first's 100 cycles
        assert pe.busy_until >= 200.0

    def test_elapsed_seconds(self):
        fabric, rt = make_runtime(2, 1)
        rt.schedule(850.0, lambda: None)
        rt.run()
        assert rt.elapsed_seconds() == pytest.approx(1e-6)

    def test_schedule_negative_rejected(self):
        _, rt = make_runtime(1, 1)
        with pytest.raises(ValueError, match="^cannot schedule into the past$"):
            rt.schedule(-1.0, lambda: None)

    def test_schedule_nan_rejected(self):
        """``nan < 0`` is False: a NaN delay used to run before t = 1."""
        _, rt = make_runtime(1, 1)
        with pytest.raises(ValueError, match="^schedule delay is NaN$"):
            rt.schedule(float("nan"), lambda: None)
        assert rt.idle

    def test_inject_at_nan_rejected(self):
        """A NaN entry time used to deliver at ``now == nan``."""
        _, rt = make_runtime(1, 1)
        with pytest.raises(
            ValueError, match=r"^cannot inject at nan: the entry time is NaN$"
        ):
            rt.inject((0, 0), COLOR, np.zeros(1, dtype=np.float32), at=float("nan"))
        assert rt.idle
        assert rt.stats.messages_injected == 0


class TestControlWavelets:
    def test_advances_routers_along_path(self):
        fabric, rt = make_runtime(2, 1)
        positions = [
            {Port.RAMP: (Port.EAST,)},
            {Port.WEST: (Port.RAMP,)},
        ]
        fabric.configure_color(
            COLOR, lambda c: positions, initial_for=lambda c: c[0] % 2
        )
        ctrl_seen = []
        fabric.bind_all(
            COLOR, lambda r, pe, m: ctrl_seen.append(pe.coord), control=True
        )
        rt.inject((0, 0), COLOR, kind=KIND_CONTROL)
        rt.run()
        # origin forwarded + flipped (0->1); neighbour delivered + flipped (1->0)
        assert fabric.router(0, 0).position(COLOR) == 1
        assert fabric.router(1, 0).position(COLOR) == 0
        assert ctrl_seen == [(1, 0)]
        assert rt.stats.control_advances == 2

    def test_control_forwarded_under_pre_switch_config(self):
        """The command follows the current config, then flips (Fig. 6b)."""
        fabric, rt = make_runtime(3, 1)
        positions = [
            {Port.RAMP: (Port.EAST,), Port.WEST: (Port.RAMP,)},
            {},
        ]
        fabric.configure_color(COLOR, lambda c: positions)
        seen = []
        fabric.bind_all(COLOR, lambda r, pe, m: seen.append(pe.coord), control=True)
        rt.inject((0, 0), COLOR, kind=KIND_CONTROL)
        rt.run()
        # delivered at (1,0) under position 0 before that router flipped
        assert seen == [(1, 0)]
        assert fabric.router(1, 0).position(COLOR) == 1


class TestRunSafety:
    def test_event_budget(self):
        fabric, rt = make_runtime(1, 1)

        def reschedule():
            rt.schedule(1.0, reschedule)

        rt.schedule(0.0, reschedule)
        with pytest.raises(RuntimeError, match="budget"):
            rt.run(max_events=50)

    def test_each_guard_arms_one_way(self):
        """A trace sink, a fault injector and the watchdog arm at
        construction; a run takes only its event budget."""
        keyword = inspect.Parameter.KEYWORD_ONLY
        params = inspect.signature(EventRuntime).parameters
        assert list(params) == [
            "fabric", "perf", "trace_sink", "faults", "watchdog_cycles"
        ]
        assert [p.name for p in params.values() if p.kind is keyword] == [
            "trace_sink", "faults", "watchdog_cycles"
        ]
        assert all(params[p].default is None for p in list(params)[2:])
        (budget,) = list(inspect.signature(EventRuntime.run).parameters.values())[1:]
        assert (budget.name, budget.kind, budget.default) == ("max_events", keyword, None)

    def test_raising_task_leaves_the_rest_queued(self):
        """A task that raises is dropped with the events before it, as a
        heap pop dropped it; the rest of its timestamp runs next time."""
        fabric, rt = make_runtime(1, 1)
        ran = []

        def fail():
            raise KeyError("task failed")

        rt.schedule(0.0, ran.append, "a")
        rt.schedule(0.0, fail)
        rt.schedule(0.0, ran.append, "c")
        rt.schedule(1.0, ran.append, "d")
        with pytest.raises(KeyError):
            rt.run()
        assert [p[3] for p in rt.pending()] == [("c",), ("d",)]
        rt.run()
        assert ran == ["a", "c", "d"]
        assert rt.stats.events_processed == 4

    def test_idle_property(self):
        fabric, rt = make_runtime(1, 1)
        assert rt.idle
        rt.schedule(1.0, lambda: None)
        assert not rt.idle
        rt.run()
        assert rt.idle

    def test_trace_records_deliveries(self):
        fabric, rt = make_runtime(2, 1)
        fabric.configure_color(
            COLOR, lambda c: [{Port.RAMP: (Port.EAST,), Port.WEST: (Port.RAMP,)}]
        )
        fabric.bind_all(COLOR, lambda r, pe, m: None)
        rt.inject((0, 0), COLOR, np.zeros(1, dtype=np.float32))
        rt.run()
        assert len(rt.trace_sink.ring) == 1
        _, coord, msg = rt.trace_sink.ring[0]
        assert coord == (1, 0)
        assert isinstance(msg, Message)


class TestResetAndReuse:
    def test_reset_clears_per_run_state(self):
        fabric, rt = make_runtime(2, 1)
        fabric.configure_color(
            COLOR, lambda c: [{Port.RAMP: (Port.EAST,), Port.WEST: (Port.RAMP,)}]
        )
        fabric.bind_all(COLOR, lambda r, pe, m: None)
        rt.inject((0, 0), COLOR, np.zeros(4, dtype=np.float32))
        rt.run()
        assert rt.now > 0.0
        rt.reset()
        assert rt.now == 0.0
        assert rt.idle
        assert rt.stats.events_processed == 0

    def test_reuse_reproduces_timing_exactly(self):
        """A reset runtime replays the same injection with the same
        event timestamps — the basis of cross-application reuse."""
        fabric, rt = make_runtime(2, 1)
        fabric.configure_color(
            COLOR, lambda c: [{Port.RAMP: (Port.EAST,), Port.WEST: (Port.RAMP,)}]
        )
        times = []
        fabric.bind_all(COLOR, lambda r, pe, m: times.append(r.now))
        rt.inject((0, 0), COLOR, np.zeros(4, dtype=np.float32))
        first_end = rt.run()
        rt.reset()
        rt.inject((0, 0), COLOR, np.zeros(4, dtype=np.float32))
        second_end = rt.run()
        assert first_end == second_end
        assert times[0] == times[1]


class TestRuntimeStatsMerge:
    def test_merge_sums_counters_and_maxes_extrema(self):
        from repro.wse.runtime import RuntimeStats

        a = RuntimeStats(
            events_processed=10,
            messages_injected=2,
            messages_delivered=3,
            messages_dropped_offchip=1,
            control_advances=4,
            fabric_word_hops=100,
            max_hops_seen=2,
        )
        b = RuntimeStats(
            events_processed=5,
            messages_injected=1,
            messages_delivered=2,
            messages_dropped_offchip=0,
            control_advances=6,
            fabric_word_hops=50,
            max_hops_seen=7,
        )
        out = a.merge(b)
        assert out is a  # merges in place, returns self for chaining
        assert a.events_processed == 15
        assert a.messages_injected == 3
        assert a.messages_delivered == 5
        assert a.messages_dropped_offchip == 1
        assert a.control_advances == 10
        assert a.fabric_word_hops == 150
        assert a.max_hops_seen == 7  # extremum, not a sum

    def test_merge_covers_every_field(self):
        """A counter added to RuntimeStats later cannot silently fall
        out of aggregation: merge() walks the dataclass fields."""
        from dataclasses import fields

        from repro.wse.runtime import RuntimeStats

        a, b = RuntimeStats(), RuntimeStats()
        for i, f in enumerate(fields(RuntimeStats), start=1):
            setattr(b, f.name, i)
        a.merge(b)
        for i, f in enumerate(fields(RuntimeStats), start=1):
            assert getattr(a, f.name) == i

    def test_fabric_bytes_moved(self):
        from repro.wse.runtime import RuntimeStats

        assert RuntimeStats(fabric_word_hops=10).fabric_bytes_moved == 40

    def test_merge_of_real_runs(self):
        """Merging stats from two live runs: counters add, extrema max.

        Run A drops its message off-chip; run B delivers over a 2-hop
        path — the merged stats must show both the drop and the hop
        extremum alongside summed traffic counters."""
        from repro.wse.runtime import RuntimeStats

        fabric_a, rt_a = make_runtime()
        fabric_a.configure_color(COLOR, lambda c: [{Port.RAMP: (Port.WEST,)}])
        rt_a.inject((0, 0), COLOR, np.zeros(1, dtype=np.float32))
        rt_a.run()

        fabric_b, rt_b = make_runtime()
        fabric_b.configure_color(
            COLOR,
            lambda c: [
                {
                    Port.RAMP: (Port.EAST,),
                    Port.WEST: (Port.SOUTH,),
                    Port.NORTH: (Port.RAMP,),
                }
            ],
        )
        fabric_b.bind_all(COLOR, lambda r, pe, m: None)
        rt_b.inject((0, 0), COLOR, np.zeros(4, dtype=np.float32))
        rt_b.run()

        merged = RuntimeStats().merge(rt_a.stats).merge(rt_b.stats)
        assert merged.messages_injected == 2
        assert merged.messages_dropped_offchip == 1  # only run A dropped
        assert merged.messages_delivered == rt_b.stats.messages_delivered
        assert merged.max_hops_seen == 2  # run B's extremum wins
        assert merged.fabric_word_hops == (
            rt_a.stats.fabric_word_hops + rt_b.stats.fabric_word_hops
        )
        assert merged.events_processed == (
            rt_a.stats.events_processed + rt_b.stats.events_processed
        )


class ReferenceRuntime(EventRuntime):
    """The runtime on a per-event ``(time, seq)`` heap: pushes land in
    :attr:`heap` (see :class:`_HeapPushes`) and :meth:`run` pops one
    event at a time, checking the event budget and the progress watchdog
    before each one."""

    def __init__(self, fabric, **options):
        super().__init__(fabric, WsePerfModel(), **options)
        self.heap = []
        self._calendar = _HeapPushes(self.heap)

    def pending(self):
        coords = self.coords  # arrivals carry the router's index
        return [
            (t, kind, coords[a], *rest) if kind == _EV_ARRIVE else (t, kind, a, *rest)
            for t, _, (kind, a, *rest) in sorted(self.heap)
        ]

    def run(self, *, max_events=None):
        watchdog, stats = self.watchdog_cycles, self.stats
        delivered, last_progress = stats.messages_delivered, self.now
        processed = 0
        try:
            while self.heap:
                if max_events is not None and processed >= max_events:
                    stats.runs_truncated += 1
                    raise EventBudgetError(
                        processed=processed, pending=len(self.heap), now=self.now
                    )
                if watchdog is not None:
                    if stats.messages_delivered != delivered:
                        delivered = stats.messages_delivered
                        last_progress = self.now
                    idle = self.heap[0][0] - last_progress
                    if idle > watchdog:
                        raise FabricStallError(
                            now=self.now,
                            idle_cycles=idle,
                            watchdog_cycles=watchdog,
                            report=stall_report(self),
                        )
                self.now, _, event = heapq.heappop(self.heap)
                processed += 1
                if event[0] == _EV_ARRIVE:
                    self._arrive(*event[1:])
                else:
                    event[1](*event[2])
        finally:
            stats.events_processed += processed
        return self.now


class _HeapPushes:
    """Stands in for the calendar dict: no time has a bucket, so each
    push opens one, and its one event goes onto a ``(time, seq)`` heap."""

    def __init__(self, heap):
        self.heap, self.seq = heap, count()

    def get(self, due):
        return None

    def __setitem__(self, due, bucket):
        (event,) = bucket
        heapq.heappush(self.heap, (due, next(self.seq), event))


DELAYS = st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.0, 7.0])
INJECT = st.tuples(
    st.just("inject"),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.sampled_from([0, 1]),  # color
    st.sampled_from([None, 0.0, 4.0]),  # entry offset from now
    st.booleans(),  # control wavelet
)
NODE = st.recursive(
    INJECT | st.just(("call", ())),
    lambda kids: st.tuples(
        st.just("call"), st.lists(st.tuples(DELAYS, kids), max_size=3)
    ),
    max_leaves=10,
)
PROGRAM = st.lists(st.tuples(DELAYS, NODE), min_size=1, max_size=5)


#: The fabrics every order test runs on: 3x3, and 4x3 with column 1
#: bypassed (east/west links walk past it; the programs still address
#: x in 0..2, so column 1's own router sees injections only).
BYPASSES = ((), (1,))


def order_fabric(log, bypass=()):
    """3x3 fabric (4x3 with *bypass* columns): color 0 multicasts
    east/south (ties, contention and off-chip drops); color 1 switches
    between two routes on control wavelets.  Every task logs and echoes
    once at ``now``."""
    fabric = Fabric(3 + len(bypass), 3, bypass_columns=bypass)
    fabric.configure_color(
        0,
        lambda c: [
            {
                Port.RAMP: (Port.EAST, Port.SOUTH),
                Port.WEST: (Port.RAMP, Port.EAST),
                Port.NORTH: (Port.RAMP, Port.SOUTH),
            }
        ],
    )
    fabric.configure_color(
        1,
        lambda c: [
            {Port.RAMP: (Port.EAST,), Port.WEST: (Port.RAMP, Port.EAST)},
            {Port.RAMP: (Port.SOUTH,), Port.NORTH: (Port.RAMP, Port.SOUTH)},
        ],
        initial_for=lambda c: (c[0] + c[1]) % 2,
    )

    def task(rt, pe, msg):
        log.append((rt.now, pe.coord, msg.meta["path"], msg.hops, msg.kind))
        rt.schedule(0.0, lambda: log.append((rt.now, "echo", pe.coord)))

    for color in (0, 1):
        fabric.bind_all(color, task)
        fabric.bind_all(color, task, control=True)
    return fabric


def play(rt, program, log):
    """Schedule *program* on *rt*: calls log and schedule their children,
    injects send a message tagged with their path."""

    def node(path, spec):
        log.append((rt.now, path))
        if spec[0] == "call":
            for i, (delay, child) in enumerate(spec[1]):
                rt.schedule(delay, node, path + (i,), child)
            return
        _, coord, color, offset, control = spec
        rt.inject(
            coord,
            color,
            None if control else np.zeros(1 + len(path) % 3, dtype=np.float32),
            kind=KIND_CONTROL if control else KIND_DATA,
            at=None if offset is None else rt.now + offset,
            meta={"path": path},
        )

    for i, (delay, spec) in enumerate(program):
        rt.schedule(delay, node, (i,), spec)


def queue(rt):
    """What :meth:`~EventRuntime.pending` lists, comparable across
    runtimes: arrivals by their message's fields, calls by name."""
    out = []
    for due, kind, *event in rt.pending():
        if kind == _EV_ARRIVE:
            coord, in_port, msg = event
            event = (coord, in_port, msg.color, msg.kind, msg.hops, msg.meta)
        else:
            event = (event[0].__name__, event[1])
        out.append((due, kind, *event))
    return out


def stop(rt, max_events):
    """``rt.run(max_events=...)``: the guard error it raises, or None."""
    try:
        rt.run(max_events=max_events)
    except (EventBudgetError, FabricStallError) as err:
        return err
    return None


def pe_state(rt):
    """What a runtime leaves on its PEs and routers: traffic counters,
    busy time, switch positions and the live route table."""
    state = []
    for pe in rt.fabric.pe_list:
        router = rt.fabric.router(*pe.coord)
        positions = {c: router.position(c) for c in router.configured_colors()}
        state.append(
            (pe.messages_received, pe.words_received, pe.messages_sent,
             pe.words_sent, pe.busy_until, positions, dict(router.table))
        )
    return state


class TestCalendarOrder:
    """The calendar queue runs events in exactly the ``(time, seq)``
    order of the per-event heap it replaced, the drain's inlined hop and
    delivery do what ``_transmit`` / ``_deliver`` do (the reference and
    a traced or faulted runtime take those methods), and its per-
    timestamp budget and watchdog stop where a per-event check did."""

    @settings(max_examples=60, deadline=None)
    @given(first=PROGRAM, second=PROGRAM)
    def test_matches_the_reference_heap(self, first, second):
        for bypass in BYPASSES:
            self._match_the_reference_heap(first, second, bypass)

    @staticmethod
    def _match_the_reference_heap(first, second, bypass):
        want, got, traced_log = [], [], []
        ref_fabric, fabric = order_fabric(want, bypass), order_fabric(got, bypass)
        ref, rt = ReferenceRuntime(ref_fabric), EventRuntime(fabric, WsePerfModel())
        traced = EventRuntime(
            order_fabric(traced_log, bypass), WsePerfModel(), trace_sink=TraceSink()
        )
        for program in (first, second):
            play(ref, program, want)
            want_end = ref.run()
            play(rt, program, got)
            assert rt.run() == want_end
            play(traced, program, traced_log)
            assert traced.run() == want_end
            assert got == want == traced_log
            assert rt.idle and rt.stats == ref.stats == traced.stats
            assert pe_state(rt) == pe_state(ref) == pe_state(traced)
            # reset() between applications, as the event driver does
            ref = ReferenceRuntime(ref_fabric)
            rt.reset()
            traced.reset()

    @settings(max_examples=80, deadline=None)
    @given(
        program=PROGRAM,
        watchdog=st.sampled_from([None, 0.0, 1.0, 3.0, 6.5]),
        budget=st.none() | st.integers(0, 12),
    )
    def test_stops_match_the_per_event_reference(self, program, watchdog, budget):
        """The drain checks the budget and the watchdog once per
        timestamp; the reference checks both before every event.  Each
        stop raises the same error with the same fields and leaves the
        same queue and counters, and resumed runs finish the same log."""
        want, got = [], []
        ref = ReferenceRuntime(order_fabric(want), watchdog_cycles=watchdog)
        rt = EventRuntime(order_fabric(got), WsePerfModel(), watchdog_cycles=watchdog)
        play(ref, program, want)
        play(rt, program, got)
        while True:
            want_stop, got_stop = stop(ref, budget), stop(rt, budget)
            assert type(got_stop) is type(want_stop)
            if want_stop is None:
                break
            assert got_stop.args == want_stop.args
            assert vars(got_stop) == vars(want_stop)
            assert queue(rt) == queue(ref)
            assert rt.now == ref.now and rt.stats == ref.stats
            assert got == want and pe_state(rt) == pe_state(ref)
            # resume: the watchdog would stop at the same event again, an
            # empty budget would never let one run
            if isinstance(want_stop, FabricStallError):
                ref.watchdog_cycles = rt.watchdog_cycles = None
            elif budget == 0:
                budget = None
        assert rt.idle and rt.now == ref.now and rt.stats == ref.stats
        assert got == want and pe_state(rt) == pe_state(ref)

    @settings(max_examples=30, deadline=None)
    @given(program=PROGRAM)
    @example(  # both faults fire: color 0 leaves (0, 0) east, (1, 1) south
        program=[
            (0.0, ("inject", (0, 0), 0, None, False)),
            (0.0, ("inject", (1, 0), 0, None, False)),
        ]
    )
    def test_a_faulted_runtime_matches_the_reference_heap(self, program):
        """A dropped and a delayed link: the faulted runtime's unbudgeted
        drain reaches ``_transmit``'s fault branch in heap order."""
        plan = FaultPlan(
            seed=5,
            link_faults=(
                LinkFault(0, 0, Port.EAST, mode="drop"),
                LinkFault(1, 1, Port.SOUTH, mode="delay", delay_cycles=3.0),
            ),
        )
        for bypass in BYPASSES:
            want, got = [], []
            ref = ReferenceRuntime(
                order_fabric(want, bypass), faults=FaultInjector(plan)
            )
            rt = EventRuntime(
                order_fabric(got, bypass), WsePerfModel(), faults=FaultInjector(plan)
            )
            play(ref, program, want)
            play(rt, program, got)
            assert rt.run() == ref.run()
            assert got == want
            assert rt.stats == ref.stats and pe_state(rt) == pe_state(ref)
            assert rt.faults.stats == ref.faults.stats


class TestIndexedFabric:
    """The drain addresses a PE by its row-major index; whatever leaves
    the runtime names it by coordinate, bypassed columns walked past."""

    def test_pending_and_the_stall_report_name_coordinates(self):
        fabric = Fabric(4, 2, bypass_columns=(1,))
        fabric.configure_color(
            COLOR, lambda c: [{Port.RAMP: (Port.EAST,), Port.WEST: (Port.RAMP,)}]
        )
        assert [pe.index for pe in fabric.pes()] == list(range(8))
        rt = EventRuntime(fabric, WsePerfModel())
        rt.inject((0, 1), COLOR, np.ones(2, dtype=np.float32))
        with pytest.raises(EventBudgetError):
            rt.run(max_events=1)  # the RAMP entry runs, the hop is queued
        ((due, kind, coord, in_port, msg),) = rt.pending()
        # (0, 1) east walks past bypassed column 1 to (2, 1)
        assert (kind, coord, in_port, msg.source) == (_EV_ARRIVE, (2, 1), Port.WEST, (0, 1))
        report = stall_report(rt)
        assert report["in_flight"][0]["dest"] == [2, 1]
        assert report["in_flight"][0]["in_port"] == "WEST"
        assert [link["link"] for link in report["last_active_links"]] == [
            "(0, 1)->EAST"
        ]
        rt.run()
        assert fabric.pe(2, 1).messages_received == 1
        assert fabric.pe(1, 1).messages_received == 0
