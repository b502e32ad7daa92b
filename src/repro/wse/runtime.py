"""Discrete-event runtime for the fabric.

Wavelet trains move router-to-router as timestamped events; links have
finite bandwidth with serialization and occupancy (two trains contending
for one link queue behind each other); PEs execute color-bound tasks on
the cycles accounted by their DSD engines.  Control wavelets advance
router switch positions as they propagate (Fig. 6b semantics).

The runtime is deliberately faithful at the *message/protocol* level —
exactly-once delivery, multicast fan-out, dynamic routing under switch
changes — while transporting whole trains per event for tractability.
Correctness tests run real flux computations through it on small fabrics
and compare against the NumPy reference bit-for-bit (modulo summation
order).

Hot-path design
---------------
Events wait in a *calendar queue*: a dict from timestamp to the events
due then, in push order, and a heap of the distinct pending times.  A
lockstep exchange round puts ~16 k events on ~15 cycles, so
:meth:`EventRuntime.run` takes one time, sets ``now`` once and walks
that bucket to its end (an event pushed at ``now`` meanwhile is appended
and runs in the same pass).  Push order within a timestamp is the
``(time, seq)`` order a per-event heap gave, so no event moves.  Events
are *typed* tuples ``(kind, ...)``, dispatched without a closure per
hop: arrivals carry ``(index, in_port, message)`` inline; generic
callbacks (per-application kick-off, not per hop) ride on ``_EV_CALL``.

A PE is an integer: its physical row-major index
(:attr:`~repro.wse.pe.ProcessingElement.index`).  Everything the drain
reads per event is a list by it — the PEs, each router's switch state
and the bound ``get`` of that state's shared route table (the fabric's
:class:`~repro.wse.router.SwitchTables`), and the link destinations by
``index << 3 | port`` (the key of link occupancy too), each the
destination's index (bypassed columns walked past) or ``None`` off the
fabric — so no coordinate tuple is built or hashed per event.  The trace sink, the
fault injector, :meth:`~EventRuntime.pending` and the stall report get
coordinates through the one :attr:`EventRuntime.coords` list.

No runtime frame per hop, delivery or switch advance: the one drain
loop inlines the bodies of :meth:`~EventRuntime._arrive`,
``_transmit``, ``_deliver`` and
:meth:`~repro.wse.router.SwitchTables.advance` (the router's state
integer moves to its successor and its ``get`` is rebound to that
state's table).  A traced or faulted
runtime calls ``_arrive`` (and through it the other three) behind one
local boolean: the methods are the per-event reference the tests pin
the inlined bodies to.  The event budget and the progress watchdog are
checked once per timestamp, before ``now`` advances (a budget cuts the
bucket with ``islice`` and stops at the next boundary), so an armed run
walks the same loop at the same cost per event.  A PE's send is one
:meth:`~EventRuntime.send` frame: the column exchange hands it the PE
and a checked block-row train, so it skips :meth:`inject`'s coordinate
lookup and payload checks (``inject`` does both, then the same push).
The frames left are the tasks' (DESIGN.md §8 item 8).

Perf lookups are cached on the runtime at construction, a message
forwarded through a single-output route is passed on without a
:meth:`~repro.wse.packet.Message.fork` (the copy is only needed on true
multicast fan-out), and route queries hit the flattened table of the
router's current switch state directly.  :meth:`EventRuntime.reset`
clears all per-run state so one runtime (and its link-busy map) is
reused across applications and across a driver's ``run()`` calls; the
routers' switch states are the fabric's and survive it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from heapq import heappop, heappush
from itertools import islice
from typing import Callable

from repro.faults.errors import EventBudgetError, FabricStallError
from repro.wse.fabric import Fabric
from repro.wse.geometry import OFFSET, OPPOSITE, Port
from repro.wse.packet import (
    KIND_CONTROL, KIND_DATA, WORD_BYTES, Message, check_payload,
)
from repro.wse.perf import WSE2, WsePerfModel
from repro.wse.router import PORT_SHIFT

__all__ = ["EventRuntime", "RuntimeStats"]

#: Event kinds, the first field of an event.  ``_EV_CALL`` events carry
#: ``(fn, args, None)``; ``_EV_ARRIVE`` events carry ``(index, in_port, msg)``
#: with the router's row-major index (:meth:`EventRuntime.pending` lists
#: its coordinate instead).
_EV_CALL = 0
_EV_ARRIVE = 1

#: ``Port.RAMP`` as a plain global: an enum member read off its class
#: costs ~0.1 us, a global ~0.01 us, and a send reads it per message.
_RAMP = Port.RAMP

#: Counters merged by taking the maximum rather than the sum.
_MERGE_BY_MAX = frozenset({"max_hops_seen"})


@dataclass(slots=True)
class RuntimeStats:
    """Aggregate traffic/progress counters of one runtime."""

    events_processed: int = 0
    messages_injected: int = 0
    messages_delivered: int = 0
    messages_dropped_offchip: int = 0
    messages_dropped_faulted: int = 0
    control_advances: int = 0
    fabric_word_hops: int = 0
    max_hops_seen: int = 0
    runs_truncated: int = 0

    @property
    def fabric_bytes_moved(self) -> int:
        """Total link traffic: every word counted once per hop."""
        return self.fabric_word_hops * 4

    def merge(self, other: "RuntimeStats") -> "RuntimeStats":
        """Accumulate *other* into this instance (returned for chaining).

        Every dataclass field participates automatically — additive
        counters sum, extremum counters (``max_hops_seen``) take the
        maximum — so a counter added later cannot silently fall out of
        aggregated totals.
        """
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if f.name in _MERGE_BY_MAX:
                setattr(self, f.name, max(mine, theirs))
            else:
                setattr(self, f.name, mine + theirs)
        return self


class EventRuntime:
    """Event-driven simulator over a :class:`Fabric`.

    Parameters
    ----------
    fabric:
        The PE/router grid to simulate.
    perf:
        Cost model converting words and instruction elements to cycles.
    trace_sink:
        A :class:`~repro.obs.trace.TraceSink` that deliveries and link
        hops stream into (O(1) memory per event): per-color histograms,
        latency distributions and the link-traffic heatmap aggregate on
        the fly.  The caller owns it: it survives :meth:`reset`, so one
        sink aggregates a whole multi-application run.  ``None`` (the
        default) compiles the trace hooks down to one false boolean.
    faults:
        A :class:`~repro.faults.injector.FaultInjector` to consult on
        every injection, hop and delivery.  ``None`` (the default)
        compiles the fault hooks down to a single false boolean check —
        the same zero-cost-when-disabled pattern as the trace guard.
    watchdog_cycles:
        Progress watchdog threshold: if the gap between a timestamp and
        the last delivery exceeds this many cycles, :meth:`run` raises
        :class:`~repro.faults.errors.FabricStallError` with an obs-layer
        diagnostic report before running that timestamp's events.
        ``None`` disables the watchdog.
    """

    def __init__(
        self,
        fabric: Fabric,
        perf: WsePerfModel = WSE2,
        *,
        trace_sink=None,
        faults=None,
        watchdog_cycles: float | None = None,
    ) -> None:
        self.fabric = fabric
        self.perf = perf
        self.now: float = 0.0
        self.stats = RuntimeStats()
        self.trace_sink = trace_sink
        self._trace = trace_sink is not None
        if self._trace:
            from repro.obs.trace import LATENCY_BUCKETS

            global _LATENCY_BUCKETS
            _LATENCY_BUCKETS = LATENCY_BUCKETS
            # cached sink internals: the per-delivery and per-hop trace
            # branches are inlined against these (see TraceSink.delivery
            # for the reference implementation of the aggregation)
            self._sink_ring_append = self.trace_sink._ring_append
            self._sink_agg = self.trace_sink._agg
            self._sink_links = self.trace_sink._links
        self.faults = faults
        #: single-boolean fault guard: True only when an injector with
        #: fabric-side faults is attached (mirrors the trace guard)
        self._fault_check = faults is not None and faults.fabric_active
        self._fault_dead = faults.dead if self._fault_check else frozenset()
        self.watchdog_cycles = watchdog_cycles
        #: the calendar queue: time -> events due then, in push order,
        #: and the heap of those times
        self._calendar: dict[float, list[tuple]] = {}
        self._times: list[float] = []
        #: busy-until time of each directed link, keyed by the packed int
        #: ``index << 3 | out_port``
        self._link_busy: dict[int, float] = {}
        # hot-path tables, by the PE's row-major index: resolved once,
        # read on every event (the routers' switch states are the
        # fabric's, read when a run starts: :meth:`run`)
        self._pes = fabric.pe_list
        self._switch = None
        #: index -> ``(x, y)``: the one translation to coordinates (the
        #: hooked path, :meth:`pending`, the stall report)
        self.coords = [pe.coord for pe in self._pes]
        self._hop_latency = perf.hop_latency_cycles
        self._link_rate = perf.link_words_per_cycle
        self._injection_overhead = perf.injection_overhead_cycles
        #: ``index << 3 | port`` -> the index of the link's destination
        #: router (None when the link leaves the fabric): replaces per-hop
        #: coordinate arithmetic and bounds checks with one lookup.
        #: Bypassed columns (spare-column remap of dead PEs, CS-2 yield
        #: style) are walked past transparently on east/west links: one
        #: logical hop still costs one link transfer, so event timestamps
        #: — and summation order — match the healthy fabric bit-for-bit.
        width, height = fabric.width, fabric.height
        bypass = fabric.bypass_columns
        self._dests: list[int | None] = [None] * (len(self.coords) << 3)
        for index, (x, y) in enumerate(self.coords):
            for port, (dx, dy) in enumerate(OFFSET):
                nx, ny = x + dx, y + dy
                if dx and bypass:
                    while 0 <= nx < width and nx in bypass:
                        nx += dx
                if 0 <= nx < width and 0 <= ny < height:
                    self._dests[index << 3 | port] = ny * width + nx
        #: the fabric's per-color task tables (filled in place by
        #: ``Fabric.bind_all``, so binding after construction is seen)
        self._tasks = fabric.tasks
        self._control_tasks = fabric.control_tasks

    # ------------------------------------------------------------------ #
    # Scheduling primitives
    # ------------------------------------------------------------------ #
    def schedule(self, delay: float, fn: Callable, *args) -> None:
        """Run ``fn(*args)`` at ``now + delay`` (FIFO-stable at equal times)."""
        if delay != delay:
            raise ValueError("schedule delay is NaN")
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        # the calendar push, inlined here, in send(), in _transmit() and
        # in run()'s hop: a bucket per new time, its time onto the heap
        due, event = self.now + delay, (_EV_CALL, fn, args, None)
        bucket = self._calendar.get(due)
        if bucket is None:
            self._calendar[due] = [event]
            heappush(self._times, due)
        else:
            bucket.append(event)

    def pending(self) -> list[tuple]:
        """The pending events in run order, as ``(due, kind, ...)`` tuples
        (a read-only copy: the stall report's view of the queue); an
        arrival as ``(due, kind, coord, in_port, msg)``."""
        coords = self.coords
        return [
            (t, kind, coords[a], *rest) if kind == _EV_ARRIVE else (t, kind, a, *rest)
            for t in sorted(self._times)
            for kind, a, *rest in self._calendar[t]
        ]

    def reset(self) -> None:
        """Discard all per-run state, keeping the fabric/perf configuration.

        Clears the event queue, simulation clock, link occupancy and
        counters so the runtime can be reused for the next application
        without rebuilding (PE/router configuration is owned by the
        fabric and survives untouched; the trace sink keeps aggregating
        across resets).
        """
        self._calendar.clear()
        self._times.clear()
        self.now = 0.0
        self._link_busy.clear()
        self.stats = RuntimeStats()

    def run(self, *, max_events: int | None = None) -> float:
        """Drain the event queue; return the final simulation time.

        Raises
        ------
        EventBudgetError
            When ``max_events`` is hit with events still pending.  The
            truncation is also recorded in
            :attr:`RuntimeStats.runs_truncated` — a budgeted run can no
            longer silently masquerade as a completed one.
        FabricStallError
            When the watchdog (``watchdog_cycles`` at construction) sees
            the gap between the next timestamp and the last delivery
            exceed the threshold.  The error carries a diagnostic report
            of in-flight messages and last-active links; the offending
            timestamp's events stay queued, so :meth:`pending` lists them
            post-mortem.
        """
        watchdog_cycles = self.watchdog_cycles
        armed = max_events is not None or watchdog_cycles is not None
        calendar, times = self._calendar, self._times
        # the bodies of _arrive, _transmit, _deliver and
        # SwitchTables.advance are inlined, so a hop, a delivery or a
        # switch advance enters no Python frame of the runtime's.  A
        # traced or faulted runtime (`hooked`) calls _arrive.
        arrive = self._arrive
        hooked = self._trace or self._fault_check
        switch = self._switch = self.fabric.switch_tables()
        states, route_gets = switch.state, switch.route_gets
        state_gets, steps = switch.gets, switch.steps
        pes, dests, link_busy = self._pes, self._dests, self._link_busy
        tasks, control_tasks = self._tasks, self._control_tasks
        hop_latency, link_rate = self._hop_latency, self._link_rate
        ramp = _RAMP
        stats = self.stats
        delivered, last_progress = stats.messages_delivered, self.now
        processed = first = 0
        bucket: list = []
        try:
            while times:
                # the earliest time stays at the heap's root while its
                # bucket drains: later pushes are due later
                time = times[0]
                bucket = events = calendar[time]
                first = processed
                if armed:
                    # both guards stop before the timestamp's first event,
                    # with `now` still the previous one's: a budget spent
                    # inside a bucket comes back here with the rest queued
                    if max_events is not None:
                        if processed >= max_events and bucket:
                            stats.runs_truncated += 1
                            raise EventBudgetError(
                                processed=processed,
                                pending=sum(map(len, calendar.values())),
                                now=self.now,
                            )
                        events = islice(bucket, max_events - processed)
                    if watchdog_cycles is not None:
                        if stats.messages_delivered != delivered:
                            delivered = stats.messages_delivered
                            last_progress = self.now
                        idle = time - last_progress
                        if idle > watchdog_cycles:
                            from repro.obs.report import stall_report

                            raise FabricStallError(
                                now=self.now,
                                idle_cycles=idle,
                                watchdog_cycles=watchdog_cycles,
                                report=stall_report(self),
                            )
                self.now = time
                for event in events:
                    processed += 1
                    if event[0] != _EV_ARRIVE:
                        event[1](*event[2])
                        continue
                    _, index, in_port, msg = event
                    if hooked:
                        arrive(index, in_port, msg)
                        continue
                    color = msg.color
                    outputs = route_gets[index]((color << PORT_SHIFT) | in_port)
                    if outputs:
                        # one output forwards the message itself (one
                        # consumer), a fan-out forks per output
                        fan_out = len(outputs) > 1
                        for out in outputs:
                            m = msg.fork() if fan_out else msg
                            if out is ramp:  # _deliver
                                pe = pes[index]
                                pe.messages_received += 1
                                pe.words_received += m.num_words
                                stats.messages_delivered += 1
                                if m.kind == KIND_CONTROL:
                                    task = control_tasks.get(m.color)
                                else:
                                    task = tasks.get(m.color)
                                if task is None:
                                    continue
                                start = pe.busy_until
                                if start < time:
                                    start = time
                                dsd = pe.dsd
                                before = dsd.cycles
                                pe.exec_start = start
                                pe.cycles_at_start = before
                                task(self, pe, m)
                                pe.busy_until = start + (dsd.cycles - before)
                            else:  # _transmit
                                key = index << 3 | out
                                dest = dests[key]
                                if dest is None:
                                    stats.messages_dropped_offchip += 1
                                    continue
                                start = link_busy.get(key, 0.0)
                                if start < time:
                                    start = time
                                words = m.num_words
                                finish = start + hop_latency + words / link_rate
                                link_busy[key] = finish
                                stats.fabric_word_hops += words
                                hops = m.hops = m.hops + 1
                                if hops > stats.max_hops_seen:
                                    stats.max_hops_seen = hops
                                due = time + (finish - time)
                                arrival = (_EV_ARRIVE, dest, OPPOSITE[out], m)
                                later = calendar.get(due)
                                if later is None:
                                    calendar[due] = [arrival]
                                    heappush(times, due)
                                else:
                                    later.append(arrival)
                    if msg.kind == KIND_CONTROL:  # SwitchTables.advance
                        state = states[index]
                        step = steps[state].get(color)
                        if step is not None:
                            state = states[index] = state + step
                            route_gets[index] = state_gets[state]
                        stats.control_advances += 1
                if processed - first < len(bucket):
                    # the budget cut this bucket short: drop what ran
                    del bucket[: processed - first]
                    continue
                heappop(times)
                del calendar[time]
        except BaseException:
            # drop the events that ran: the queue keeps only unrun ones
            del bucket[: processed - first]
            raise
        finally:
            self.stats.events_processed += processed
        return self.now

    @property
    def idle(self) -> bool:
        """True when no events are pending."""
        return not any(self._calendar.values())

    # ------------------------------------------------------------------ #
    # Injection and routing
    # ------------------------------------------------------------------ #
    def inject(
        self,
        coord: tuple[int, int],
        color: int,
        payload=None,
        *,
        kind: str = KIND_DATA,
        at: float | None = None,
        meta: dict | None = None,
    ) -> Message:
        """A PE sends a message: it enters its own router via the RAMP.

        ``at`` overrides the entry time (defaults to ``now`` plus the
        injection overhead); tasks use this to model sends issued after
        their compute finishes.  The coordinate and the payload are
        checked here; :meth:`send` is the push both share.
        """
        pe = self.fabric.pe_map.get(coord)
        if pe is None:
            pe = self.fabric.pe(*coord)  # raises with coordinate context
        msg = self.send(
            pe, color, check_payload(payload, kind),
            self.now if at is None else at, kind,
        )
        if meta:
            msg.meta.update(meta)
        return msg

    def send(
        self, pe, color: int, payload, at: float, kind: str = KIND_DATA
    ) -> Message:
        """:meth:`inject` for a caller that holds the sending PE and a
        checked payload (:func:`~repro.wse.packet.check_payload`): the
        column exchange's block-row trains, whose shape the program
        fixed at build.  No coordinate lookup, no payload validation."""
        # entry time arithmetic mirrors schedule(delay) exactly
        # (now + (entry - now)) so event timestamps — and therefore event
        # order and summation order — stay bit-identical
        delay = at + self._injection_overhead - self.now
        if not delay >= 0.0:
            if delay != delay:
                raise ValueError(f"cannot inject at {at!r}: the entry time is NaN")
            delay = 0.0
        # Message.__init__ without its checks (as Message.fork builds)
        coord = pe.coord
        msg = Message.__new__(Message)
        msg.color, msg.payload, msg.kind = color, payload, kind
        msg.source, msg.hops, msg.born, msg._meta = coord, 0, 0.0, None
        words = msg.num_words = (
            1 if payload is None
            else payload.size * (payload.itemsize // WORD_BYTES or 1)
        )
        if self._fault_check and coord in self._fault_dead:
            # a dead PE never gets to run its send
            self.faults.stats.injections_suppressed += 1
            return msg
        pe.messages_sent += 1
        pe.words_sent += words
        self.stats.messages_injected += 1
        due = msg.born = self.now + delay
        event = (_EV_ARRIVE, pe.index, _RAMP, msg)
        bucket = self._calendar.get(due)
        if bucket is None:
            self._calendar[due] = [event]
            heappush(self._times, due)
        else:
            bucket.append(event)
        return msg

    def _arrive(self, index: int, in_port: Port, msg: Message) -> None:
        """A message reaches the router of PE *index* through *in_port*."""
        switch = self._switch  # the fabric's, as run() last read them
        if switch is None:
            switch = self._switch = self.fabric.switch_tables()
        outputs = switch.route_gets[index]((msg.color << PORT_SHIFT) | in_port)
        if outputs:
            if len(outputs) == 1:
                # single-output route: forward the message itself —
                # exactly one consumer ever sees it, so no copy is needed
                out = outputs[0]
                if out is _RAMP:
                    self._deliver(index, msg)
                else:
                    self._transmit(index, out, msg)
            else:
                for out in outputs:
                    if out is _RAMP:
                        self._deliver(index, msg.fork())
                    else:
                        self._transmit(index, out, msg.fork())
        if msg.kind == KIND_CONTROL:
            # the command advances this router's switch position after
            # being forwarded along the current configuration (Fig. 6b)
            switch.advance(index, msg.color)
            self.stats.control_advances += 1

    def _transmit(self, index: int, out_port: Port, msg: Message) -> None:
        """Send a train over the directed link (index, out_port)."""
        # directed-link key packed as an int (index, port) — cheaper to
        # hash than a nested tuple at per-hop rates
        key = index << 3 | out_port
        dest = self._dests[key]
        if dest is None:
            self.stats.messages_dropped_offchip += 1
            return
        link_busy = self._link_busy
        start = link_busy.get(key, 0.0)
        if start < self.now:
            start = self.now
        if self._fault_check:
            fate = self.faults.on_hop(self.coords[index], out_port, msg)
            if fate < 0.0:
                # dropped at the sender's egress: the packet never
                # occupies the link
                self.stats.messages_dropped_faulted += 1
                return
            start += fate
        words = msg.num_words
        finish = start + self._hop_latency + words / self._link_rate
        link_busy[key] = finish
        stats = self.stats
        stats.fabric_word_hops += words
        if self._trace:
            # streaming link accounting: one dict lookup per hop keeps
            # traced runs within the benchmark's overhead gate; the sink
            # keys links by coordinate (repro.obs.trace.pack_link)
            x, y = self.coords[index]
            link = (((x << 16) | y) << 3) | out_port
            agg = self._sink_links.get(link)
            if agg is None:
                agg = self._sink_links[link] = [0, 0.0]
            agg[0] += words
            wait = start - self.now
            if wait > 0.0:
                agg[1] += wait
        hops = msg.hops + 1
        msg.hops = hops
        if hops > stats.max_hops_seen:
            stats.max_hops_seen = hops
        # same bit-exactness note as inject(): reproduce now + (finish - now)
        due = self.now + (finish - self.now)
        event = (_EV_ARRIVE, dest, OPPOSITE[out_port], msg)
        bucket = self._calendar.get(due)
        if bucket is None:
            self._calendar[due] = [event]
            heappush(self._times, due)
        else:
            bucket.append(event)

    def _deliver(self, index: int, msg: Message) -> None:
        """Hand a message to PE *index* and run its bound task."""
        coord = self.coords[index]
        if self._fault_check and coord in self._fault_dead:
            # a dead PE's RAMP eats the wavelet silently
            self.faults.stats.deliveries_suppressed += 1
            return
        pe = self._pes[index]
        pe.messages_received += 1
        pe.words_received += msg.num_words
        self.stats.messages_delivered += 1
        if self._trace:
            # inlined TraceSink.delivery (call overhead matters here)
            now = self.now
            self._sink_ring_append((now, coord, msg))
            source = msg.source
            if source is None:
                sdx = sdy = 2
            else:
                dx = coord[0] - source[0]
                dy = coord[1] - source[1]
                sdx = (dx > 0) - (dx < 0)
                sdy = (dy > 0) - (dy < 0)
            bucket = int(now - msg.born).bit_length()
            if bucket >= _LATENCY_BUCKETS:
                bucket = _LATENCY_BUCKETS - 1
            key = (msg.color, msg.hops, sdx, sdy, bucket)
            agg = self._sink_agg.get(key)
            if agg is None:
                agg = self._sink_agg[key] = [0, 0]
            agg[0] += 1
            agg[1] += msg.num_words
        if msg.kind == KIND_CONTROL:
            task = self._control_tasks.get(msg.color)
        else:
            task = self._tasks.get(msg.color)
        if task is None:
            return
        start = pe.busy_until
        if start < self.now:
            start = self.now
        cycles_before = pe.dsd.cycles
        pe.exec_start = start
        pe.cycles_at_start = cycles_before
        task(self, pe, msg)
        pe.busy_until = start + (pe.dsd.cycles - cycles_before)

    # ------------------------------------------------------------------ #
    def elapsed_seconds(self) -> float:
        """Wall-clock equivalent of the current simulation time."""
        return self.perf.seconds(self.now)
