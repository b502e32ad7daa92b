"""The event backend's fold schedule, derived from the exchange protocol.

The fused backend replays the event backend's *exact* per-PE summation
order, so it must know in which order each PE's eight X-Y halo messages
arrive.  The event simulator is deterministic, and with buffer reuse
that order follows from the Sec. 5.2 protocol's timing alone.

**Five roles.**  All PEs book the same start work and, since a send
stages nothing, inject their diagonal and step-1 cardinal trains at one
time ``T0``.  A train holds a link ``W`` cycles (latency plus words), a
control wavelet 2, and a receive books ``F`` cycles on its PE.  An
arrival is then (1) a *step-1 cardinal*, queued behind its sender's own
diagonal on their first link: ``T0 + 2W``; (2) a *free diagonal*, whose
second link carries no cardinal train: ``T0 + 2W``; (3) a *queued
diagonal*, whose intermediary is a step-1 sender along the second hop,
so it waits for that train and its control wavelet: ``T0 + 3W + 2``; or
(4, 5) a *step-2 cardinal*, sent at the control wavelet
(``T0 + 2W + 2``) or once its sender has booked the ``b`` arrivals of
roles 1 and 2 it heard at ``T0 + 2W``, if later:
``T0 + 3W + 2 + max(2, b F)``, with ``b`` in 1..4.  (Why per-hop
latencies cluster into a handful of values, cf. Jacquelin et al.,
"Massively scalable stencil algorithm".)

*Tie-break.*  Equal times run in the order their last hop was pushed
(the runtime keeps push order within a timestamp, the order a
``(time, seq)`` heap gave): ``T0``'s pushes (a step-1 cardinal's one
hop) before ``T0 + W``'s (a diagonal's second), so role 1 before role 2;
within a role, the kick-off order — row-major PEs, per PE the diagonals
se/sw/nw/ne, then the step-1 cardinals east/west/south/north.  A PE
hears each neighbour once, so this is the row-major position of the
sender, or for a step-2 cardinal of the step-1 sender two cells away
whose control wavelet triggered it.

*Why nz, dtype and the kernel cannot reorder.*  They (and
``vectorized``) move only ``T0``, ``W`` and ``F``; roles 1 and 2 tie for
every ``W``, ``2W < 3W + 2 < 3W + 2 + max(2, b F)``, and ``b F`` grows
strictly with ``b >= 1`` because ``F >= 2`` (a receive's ``2 nz``
FMOVs).  So the derivation takes none of them.

*The tiling law follows.*  The roles depend on which neighbours exist
and on the parities of ``x``, ``nx - 1 - x``, ``y``, ``ny - 1 - y``
(step-1 senders sit at even distance from the seed edge); a step-2
sender lies inside the fabric along its flow and shares the PE's other
coordinate, so its ``b`` does too.  An ``n``-wide axis thus has the
classes first, odd interior, even interior and last (one per index when
``n <= 5``, as the annotation always had), and every class has a
stand-in on the ``k(nx) x k(ny)`` fabric, ``k(n) = n if n <= 5 else
4 + n % 2`` (keeping the parity of ``n``): the orders are derived there
and tiled.

*Without buffer reuse* every send stages its train (``2 nz`` cycles),
which spreads a PE's sends apart by amounts that compete with ``W`` and
``F``: the order depends on ``nz``, dtype and the kernel.  There
:func:`probe_schedule` runs one event application of the program on the
same reduced fabric, tiled by the same classes.  The full-fabric probe
is the oracle of both in ``tests/ir/test_schedule.py``.

**The fold program.**  The classes partition the fabric, so one serial
fold can serve all of them at once: :func:`fold_program` merges the
<= 16 class orders into a common supersequence whose every step
``(connection, member classes)`` is the next arrival of each member.
Projected onto one class the steps are that class's order, nothing
added and nothing reordered, so a backend that adds the step's
connection on the members' lanes (and ``+0.0`` everywhere else) replays
every PE's serial fold with whole-array operations — the fused backend's
contiguous masked adds (DESIGN.md §16).  The merge is the weighted
majority heuristic — no search: 16 steps at 48x48 with default options
(84 class-slice adds before), 12 with ``reuse_buffers=False``; no
fabric needs fewer than its longest order, 8.

The schedule is a *derived annotation* of the IR
(:meth:`FabricProgramIR.annotate` under ``"fold_schedule"``, one entry
per class: its order and its y and x slice triples — O(classes), not
O(PEs)): it is excluded from the content hash and from the IR-build
cost.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.dataflow.cardinal import (
    CARDINAL_CHANNELS,
    channel_for_flow,
    is_step1_sender,
)
from repro.dataflow.diagonal import DIAGONAL_CHANNELS

__all__ = ["arrival_schedule", "schedule_classes", "fold_program", "probe_schedule"]

#: Arrival roles in time order (module docstring); equal roles tie in time.
_STEP1, _FREE, _QUEUED, _STEP2 = range(4)

#: Per cardinal channel: the connection it delivers, its sender's offset.
_CARDINALS = [
    (ch, ch.delivers.name, ch.delivers.offset[:2]) for ch in CARDINAL_CHANNELS
]
#: Per diagonal flow: the connection it delivers, its source's offset,
#: the cardinal channel its second hop shares a link with and the offset
#: of that hop's intermediary.
_DIAGONALS = [
    (ch.delivers.name, ch.delivers.offset[:2], second, second.delivers.offset[:2])
    for ch in DIAGONAL_CHANNELS
    for second in [channel_for_flow(ch.second_hop)]
]


def _reduced(n: int) -> int:
    """``k(n)``: the derived or probed stand-in for an ``n``-wide axis."""
    return n if n <= 5 else 4 + n % 2


def _axis_classes(n: int) -> list[tuple[int, slice]]:
    """One ``(reduced index, full-axis slice)`` per class of an axis."""
    k = _reduced(n)
    if k == n:
        return [(i, slice(i, i + 1)) for i in range(n)]
    return [
        (0, slice(0, 1)),
        (1, slice(1, n - 1, 2)),
        (2, slice(2, n - 1, 2)),
        (k - 1, slice(n - 1, n)),
    ]


def _arrivals(x: int, y: int, nx: int, ny: int) -> list:
    """Each X-Y arrival at PE ``(x, y)`` as ``(role, (x, y) of the PE
    whose injection fixes its seq, sender, connection name)``."""
    arrivals = []
    for channel, name, (dx, dy) in _CARDINALS:
        u = (x + dx, y + dy)
        if 0 <= u[0] < nx and 0 <= u[1] < ny:
            if is_step1_sender(u, channel, nx, ny):
                arrivals.append((_STEP1, u, u, name))
            else:
                trigger = (u[0] + dx, u[1] + dy)
                arrivals.append((_STEP2, trigger, u, name))
    for name, (dx, dy), second, (qx, qy) in _DIAGONALS:
        s = (x + dx, y + dy)
        if 0 <= s[0] < nx and 0 <= s[1] < ny:
            queued = is_step1_sender((x + qx, y + qy), second, nx, ny)
            arrivals.append((_QUEUED if queued else _FREE, s, s, name))
    return arrivals


@lru_cache(maxsize=None)
def _derive_schedule(nx: int, ny: int) -> dict[tuple[int, int], tuple[str, ...]]:
    """:func:`probe_schedule` with buffer reuse, on a <= 5x5 fabric:
    each PE's arrivals sorted by role, by a step-2 sender's early
    receives ``b``, then by the row-major tie-break (module docstring)."""
    arrivals = {
        (x, y): _arrivals(x, y, nx, ny) for y in range(ny) for x in range(nx)
    }

    def key(arrival):
        role, (tx, ty), sender, _name = arrival
        booked = 0
        if role == _STEP2:
            booked = sum(1 for a in arrivals[sender] if a[0] <= _FREE)
        return role, booked, ty, tx

    return {
        pe: tuple(a[3] for a in sorted(heard, key=key))
        for pe, heard in arrivals.items()
        if heard  # the lone PE of a 1x1 fabric hears nothing
    }


def schedule_classes(
    nx: int,
    ny: int,
    *,
    reuse_buffers: bool = True,
    overlap_compute: bool = True,
    vectorized: bool = True,
    nz: int = 1,
    dtype=np.float32,
    compute_fluxes: bool = False,
) -> list[tuple[tuple[str, ...], slice, slice]]:
    """The fabric as ``(order, y-slice, x-slice)`` rectangles of stride <= 2.

    The rectangles partition the ``ny x nx`` fabric; every PE inside one
    shares ``order``, its X-Y halo arrival order as connection names.
    With buffer reuse the order is derived (nothing else counts);
    without, ``nz``, ``dtype`` and ``compute_fluxes`` are probed too
    (module docstring).
    """
    if reuse_buffers and not overlap_compute:
        # FluxProgram's refusal, raised before anything is built
        raise ValueError(
            "overlap_compute=False requires reuse_buffers=False "
            "(deferred partial fluxes need all eight halos resident)"
        )
    if reuse_buffers:
        reduced = _derive_schedule(_reduced(nx), _reduced(ny))
    else:
        reduced = probe_schedule(
            _reduced(nx), _reduced(ny), False, bool(overlap_compute),
            bool(vectorized), int(nz), np.dtype(dtype).name,
            bool(compute_fluxes),
        )
    return [
        (reduced[rx, ry], ys, xs)
        for ry, ys in _axis_classes(ny)
        for rx, xs in _axis_classes(nx)
        if (rx, ry) in reduced  # the lone PE of a 1x1 fabric hears nothing
    ]


def arrival_schedule(
    nx: int,
    ny: int,
    *,
    reuse_buffers: bool = True,
    overlap_compute: bool = True,
    vectorized: bool = True,
    nz: int = 1,
    dtype=np.float32,
    compute_fluxes: bool = False,
) -> dict[tuple[int, int], tuple[str, ...]]:
    """Per-PE X-Y halo arrival order, as connection names.

    Maps each logical ``(x, y)`` to the tuple of connection names in the
    order the event runtime delivers them — the serial fold order of
    that PE's residual accumulation.
    """
    classes = schedule_classes(
        nx,
        ny,
        reuse_buffers=reuse_buffers,
        overlap_compute=overlap_compute,
        vectorized=vectorized,
        nz=nz,
        dtype=dtype,
        compute_fluxes=compute_fluxes,
    )
    return {
        (x, y): order
        for order, ys, xs in classes
        for y in range(*ys.indices(ny))
        for x in range(*xs.indices(nx))
    }


def fold_program(classes) -> list[tuple[str, tuple[int, ...]]]:
    """A common supersequence of the classes' orders, as fold steps.

    Each step ``(connection name, members)`` lists the indices into
    *classes* (:func:`schedule_classes` output) of the classes whose
    next arrival is that connection; the steps a class is a member of,
    in program order, are exactly its ``order``.

    Weighted majority merge over the per-PE orders (a class stands for
    all its PEs): every step takes the connection with the most
    arrivals still queued behind it — PEs waiting for it times what
    each has left to fold.
    """
    orders = [order for order, _ys, _xs in classes]
    pes = [_slice_len(ys) * _slice_len(xs) for _order, ys, xs in classes]
    taken = [0] * len(orders)
    steps = []
    while True:
        waiting: dict[str, list[int]] = {}
        for i, order in enumerate(orders):
            if taken[i] < len(order):
                waiting.setdefault(order[taken[i]], []).append(i)
        if not waiting:
            return steps
        name = max(
            waiting,
            key=lambda n: sum(
                pes[i] * (len(orders[i]) - taken[i]) for i in waiting[n]
            ),
        )
        steps.append((name, tuple(waiting[name])))
        for i in waiting[name]:
            taken[i] += 1


def _slice_len(s: slice) -> int:
    """PEs along one axis of a class (its slices carry explicit bounds)."""
    return len(range(*s.indices(s.stop)))


@lru_cache(maxsize=None)
def probe_schedule(
    nx: int,
    ny: int,
    reuse_buffers: bool,
    overlap_compute: bool,
    vectorized: bool,
    nz: int = 1,
    dtype: str = "float32",
    compute_fluxes: bool = False,
) -> dict[tuple[int, int], tuple[str, ...]]:
    """The arrival order of one event application of the program.

    Cached: :func:`schedule_classes` asks only for reduced (<= 5x5)
    no-reuse shapes; the tests run it past the cache on full fabrics as
    the oracle of the derivation.
    """
    # the simulator is loaded by repro.ir.lower, not by this module
    from repro.core.fluid import FluidProperties
    from repro.core.mesh import CartesianMesh3D
    from repro.dataflow.program import FluxProgram
    from repro.wse.perf import WSE2
    from repro.wse.runtime import EventRuntime

    mesh = CartesianMesh3D(nx, ny, nz)
    program = FluxProgram(
        mesh,
        FluidProperties(),
        dtype=np.dtype(dtype).type,
        reuse_buffers=reuse_buffers,
        overlap_compute=overlap_compute,
        vectorized=vectorized,
        compute_fluxes=compute_fluxes,
    )
    orders: dict[tuple[int, int], list] = {}
    exchange = program.exchange
    on_data = exchange.on_data

    def capture(pe, msg, conn):
        lx, ly, _pe = exchange.pes[pe.row]
        orders.setdefault((lx, ly), []).append(conn)
        on_data(pe, msg, conn)

    exchange.on_data = capture  # the receive tasks read it at call time
    program.load_pressure(np.zeros((nz, ny, nx)))
    exchange.run(EventRuntime(program.fabric, WSE2))
    return {
        coord: tuple(conn.name for conn in arrivals)
        for coord, arrivals in orders.items()
    }
