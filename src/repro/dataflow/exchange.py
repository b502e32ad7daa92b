"""The Sec. 5.2 neighbour protocol, stated once.

Every fabric program of this repository — the flux kernel, the TTI wave
propagator, the matrix-free Jacobian — moves one column per PE to its
eight X-Y neighbours per round, over the same eight colors: four
cardinal channels under the two-step switch protocol
(:mod:`repro.dataflow.cardinal`) and four two-hop diagonal flows
(:mod:`repro.dataflow.diagonal`).  :class:`ColumnExchange` is that
machinery — the paper's Sec. 8 reuse claim as one class instead of one
copy per kernel.  A program supplies only its physics:

``start(pe)``
    the local work that opens a round (zero an accumulator, in-memory
    vertical terms, ...);
``payload(pe)``
    the column to transmit, called once per send — it may book cycles
    (the flux kernel's no-reuse layout stages ``(p, rho)`` with two
    FMOVs every time);
``on_data(pe, msg, conn)``
    one neighbour's column has arrived; ``conn`` names the neighbour.

The exchange owns the rest: color allocation in the canonical
cardinal-then-diagonal order, route install, the per-PE protocol state
(``logical``, ``expected``, ``step1_channels``, and per round ``sent`` /
``received``), task binding, the send-once rule, the kick-off, the
``exec_start`` / ``busy_until`` bookkeeping of the start task and the
exactly-once delivery check.

**Two install sources.**  Given a :class:`~repro.ir.schema.FabricProgramIR`
the routes come from its class tables (``Fabric.install_routes``) and
the step-1 senders from its injector sets, after cross-checking the
color ids — what every shipping program does.  Without one they come
from the channel formulas (``switch_positions_for`` / ``static_position``
/ ``is_step1_sender``), evaluated at the *logical* coordinate a remap
assigns each router.  That path stays because it is the reference:
``build_ir(program) == derive_ir(...)`` pins the IR compiler to a fabric
configured without it.

**The ``at`` / staging asymmetry.**  The kick-off reads
``rt.pe_send_time(pe)`` *before* calling ``payload(pe)`` and issues the
diagonal sends at that time; a cardinal send calls ``payload(pe)``
first and reads the time *after*.  When staging books cycles
(``reuse_buffers=False``) the two orders give different timestamps, and
the no-reuse golden pins both.  Preserve it, do not tidy it.
"""

from __future__ import annotations

from repro.dataflow.cardinal import (
    CARDINAL_CHANNELS,
    is_step1_sender,
    switch_positions_for,
)
from repro.dataflow.diagonal import DIAGONAL_CHANNELS, static_position
from repro.obs.spans import span
from repro.wse.color import ColorAllocator
from repro.wse.packet import KIND_CONTROL
# loaded here, not by the first probe or lowering (setup_s times those)
from repro.wse.runtime import EventRuntime

__all__ = ["ColumnExchange"]


class ColumnExchange:
    """One column to each X-Y neighbour per round, for an ``nx x ny``
    program on *fabric*.

    Parameters
    ----------
    fabric:
        The fabric to configure; ``nx x ny``, or wider under *remap*.
    nx, ny:
        The logical PE rectangle running the program.
    start, payload, on_data:
        The program's physics (module docstring).  ``on_data`` is read
        from the attribute at call time, so a probe may wrap it.
    ir:
        Optional program IR to install from; only its color table,
        route tables and injector sets are read.
    remap:
        Optional :class:`~repro.dataflow.mapping.SpareColumnRemap`
        placing logical columns on the physical fabric.
    """

    def __init__(
        self, fabric, nx: int, ny: int, *, start, payload, on_data,
        ir=None, remap=None,
    ) -> None:
        self.fabric = fabric
        self.nx, self.ny = nx, ny
        self.start, self.payload, self.on_data = start, payload, on_data
        #: The program's PEs as ``(lx, ly, pe)``, *logical* row-major —
        #: the order of ``fabric.pes()`` on a healthy fabric, so
        #: injection sequence numbers (and with them event order and
        #: summation order) do not depend on a spare-column remap.
        pes = fabric.pe_map
        self.pes = [
            (x, y, pes[(x, y) if remap is None else remap.physical((x, y))])
            for y in range(ny)
            for x in range(nx)
        ]
        self.colors = ColorAllocator()
        #: ``(channel, color)`` in allocation order, cardinals first.
        self.channels = []
        for channel in (*CARDINAL_CHANNELS, *DIAGONAL_CHANNELS):
            color = self.colors.allocate(channel.name)
            # a program and its IR must agree on ids, or the receiver
            # sets would silently describe different channels
            if ir is not None and color != ir.color_id(channel.name):
                raise ValueError(
                    f"IR color table maps {channel.name!r} to "
                    f"{ir.color_id(channel.name)}, allocator assigned "
                    f"{color}"
                )
            self.channels.append((channel, color))
        n = len(CARDINAL_CHANNELS)
        self._cardinals, self._diagonals = self.channels[:n], self.channels[n:]
        self._cardinal_color = {ch.name: c for ch, c in self._cardinals}
        with span("program.routing", cat="build"):
            if ir is not None:
                for _channel, color in self.channels:
                    fabric.install_routes(color, *ir.route_table(color))
            else:
                self._install_from_formulas(remap)
        with span("program.tasks", cat="build"):
            self._bind(ir)

    # ------------------------------------------------------------------ #
    # Set-up
    # ------------------------------------------------------------------ #
    def _install_from_formulas(self, remap) -> None:
        # switch positions are a function of the *logical* coordinate —
        # bypassed columns are latency-transparent wires, so a remapped
        # router behaves exactly like the logical router it hosts
        w, h = self.nx, self.ny

        def logical_of(coord):
            return coord if remap is None else remap.logical(coord)

        for channel, color in self._cardinals:

            def positions_for(coord, _ch=channel):
                lcoord = logical_of(coord)
                if lcoord is None:
                    return None
                return switch_positions_for(lcoord, _ch, w, h)[0]

            def initial_for(coord, _ch=channel):
                return switch_positions_for(logical_of(coord), _ch, w, h)[1]

            self.fabric.configure_color(
                color, positions_for, initial_for=initial_for
            )
        for channel, color in self._diagonals:
            position = static_position(channel)
            self.fabric.configure_color(
                color,
                lambda coord, _p=position: (
                    [_p] if logical_of(coord) is not None else None
                ),
            )

    def _bind(self, ir) -> None:
        """Per-PE protocol state, then the data and control tasks."""
        nx, ny = self.nx, self.ny
        # in-bounds X-Y neighbours of (x, y): the cells of its 3x3 block
        # that exist, minus itself — how many of the exchange IR's
        # receiver sets hold the PE
        across = [1 + (x > 0) + (x < nx - 1) for x in range(nx)]
        down = [1 + (y > 0) + (y < ny - 1) for y in range(ny)]

        def step1_senders(channel) -> set:
            if ir is not None:
                return ir.injector_coords(channel.name)
            return {
                pe.coord
                for x, y, pe in self.pes
                if is_step1_sender((x, y), channel, nx, ny)
            }

        senders = [(ch, step1_senders(ch)) for ch, _color in self._cardinals]
        for x, y, pe in self.pes:
            coord, state = pe.coord, pe.state
            state["logical"] = (x, y)
            state["expected"] = across[x] * down[y] - 1
            state["step1_channels"] = [
                ch for ch, coords in senders if coord in coords
            ]
        for channel, color in self.channels:

            def deliver(rt, pe, msg, _conn=channel.delivers):
                pe.state["received"] += 1
                self.on_data(pe, msg, _conn)

            self.fabric.bind_all(color, deliver)
        for _channel, color in self._cardinals:
            self.fabric.bind_all(color, self._on_control, control=True)

    # ------------------------------------------------------------------ #
    # One round
    # ------------------------------------------------------------------ #
    def begin(self, rt: EventRuntime) -> None:
        """Schedule one round on runtime *rt* (at its time zero).

        Every PE runs ``start``, then communicates: all four diagonal
        flows plus the cardinal channels it is a step-1 sender of.
        Step-2 senders are triggered by the control wavelets of the
        switch protocol.
        """
        for _x, _y, pe in self.pes:
            pe.state["sent"] = set()
            pe.state["received"] = 0
            pe.busy_until = 0.0
            rt.schedule(0.0, self._start, rt, pe)

    def _start(self, rt: EventRuntime, pe) -> None:
        start = max(rt.now, pe.busy_until)
        before = pe.dsd.cycles
        pe.exec_start = start
        pe.cycles_at_start = before
        self.start(pe)
        # diagonal flows: every PE is a source (Fig. 5b, step 1.b); the
        # send time is read before staging (module docstring)
        at = rt.pe_send_time(pe)
        payload = self.payload(pe)
        for _channel, color in self._diagonals:
            rt.inject(pe.coord, color, payload, at=at)
        # cardinal step-1 senders (Fig. 6b, step 1; resolved at set-up)
        for channel in pe.state["step1_channels"]:
            self._send(rt, pe, self._cardinal_color[channel.name])
        pe.busy_until = start + (pe.dsd.cycles - before)

    def _on_control(self, rt, pe, msg) -> None:
        self._send(rt, pe, msg.color)

    def _send(self, rt: EventRuntime, pe, color: int) -> None:
        """Transmit this PE's column on cardinal *color*, once per round,
        followed by the control wavelet that flips the switches."""
        sent = pe.state["sent"]
        if color in sent:
            return
        sent.add(color)
        payload = self.payload(pe)
        at = rt.pe_send_time(pe)
        rt.inject(pe.coord, color, payload, at=at)
        rt.inject(pe.coord, color, kind=KIND_CONTROL, at=at)

    def verify(self) -> None:
        """Assert every PE received exactly one column per X-Y neighbour;
        ``RuntimeError`` on a lost or duplicated delivery (protocol bug,
        dropped link) — the one delivery-error text of every program."""
        for _x, _y, pe in self.pes:
            got, want = pe.state["received"], pe.state["expected"]
            if got != want:
                raise RuntimeError(
                    f"PE {pe.coord}: received {got} neighbour columns, "
                    f"expected {want}"
                )

    def run(self, rt: EventRuntime) -> float:
        """One whole round on *rt*: begin, drain, verify; returns the
        round's device cycles."""
        self.begin(rt)
        rt.run()
        self.verify()
        return rt.now
