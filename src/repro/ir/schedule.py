"""The event backend's fold schedule: probe a <=5x5 fabric, tile the rest.

The fused backend replays the event backend's *exact* per-PE summation
order, so it must know in which order each PE's eight X-Y halo messages
arrive.  That order is static — the event simulator is a deterministic
single-stream discrete-event machine — but it is *timing-derived*: it
depends on the program options that change per-message service time
(``reuse_buffers``, ``overlap_compute``, ``vectorized``) and on where
the PE sits on the fabric.

**The tiling law.**  The order is periodic with period 2 in each axis
behind a one-cell boundary layer, so an ``n``-wide axis has at most four
classes — first, odd interior, even interior, last — and a fabric at
most 16 distinct orders.  With ``k(n) = n if n <= 5 else 4 + n % 2`` and

    m(x, n) = x            if n <= 5
              0            if x == 0
              k(n) - 1     if x == n - 1
              1 if x % 2 else 2

``arrival_schedule(nx, ny)[x, y]`` equals the order probed at
``(m(x, nx), m(y, ny))`` on the ``k(nx) x k(ny)`` fabric.  Only that
reduced fabric (<= 25 PEs) is ever simulated; set-up cost is independent
of the footprint.

*Why it holds.*  All PEs inject at application start; every halo route
is at most 2 hops; service time is uniform per option set; switch roles
alternate with coordinate parity (which is why per-hop latencies cluster
into a handful of values, cf. Jacquelin et al., "Massively scalable
stencil algorithm"); and the event queue's ``(time, seq)`` tie-break
depends only on the row-major order of the *relative* sender positions.
So a PE's arrival order is fixed by its coordinate parities and by which
neighbours exist.

*The parity-of-n caveat.*  The reduced fabric must keep the parity of
``n``: with odd ``n`` the boundary orders are **not** the interior order
filtered by existing neighbours (5x5, 7x7, 9x6 and 17x16 all break that
simpler rule), hence ``4 + n % 2`` rather than a fixed 4.

The law is measured, not proved: ``tests/ir/test_schedule.py`` compares
the tiled schedule against the same probe run on the full fabric
(tier-1 up to 9x9, a ``slow`` sweep in CI's conform job up to 96x64) and
pins the probe's invariance, with buffer reuse, to ``nz``, dtype and
``compute_fluxes`` — which is what lets one ``nz=1`` float32 probe with
the flux kernel disabled stand for every such program.  Without buffer
reuse none of the three is invariant: the per-send staging (``2 nz``
cycles), the train's length (``2 nz`` words per 32 bits of dtype) and
the booked partial fluxes shift the sends apart, so there the probe runs
the program's own ``nz``, dtype and ``compute_fluxes`` (a canonical
probe mis-ordered float64 programs, and 5-wide fabrics at ``nz > 1``).

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

from repro.core.fluid import FluidProperties
from repro.core.mesh import CartesianMesh3D
# the probe's program and runtime load with this module, not inside the
# first probe: a fused lowering times the probe, never its imports
from repro.dataflow.program import FluxProgram
from repro.wse.perf import WSE2
from repro.wse.runtime import EventRuntime

__all__ = ["arrival_schedule", "schedule_classes", "fold_program", "probe_schedule"]


def _reduced(n: int) -> int:
    """``k(n)``: the probed stand-in for an ``n``-wide axis."""
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
    ``nz``, ``dtype`` and ``compute_fluxes`` only count without buffer
    reuse (module docstring); the defaults are the canonical probe.
    """
    if reuse_buffers:
        nz, dtype, compute_fluxes = 1, np.float32, False
    reduced = probe_schedule(
        _reduced(nx),
        _reduced(ny),
        bool(reuse_buffers),
        bool(overlap_compute),
        bool(vectorized),
        int(nz),
        np.dtype(dtype).name,
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
    """One event application of the program, by default the canonical
    probe: ``nz=1``, float32, flux kernel off (module docstring).

    Cached: :func:`schedule_classes` only ever asks for reduced (<= 5x5)
    shapes.
    """
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
        orders.setdefault(pe.state["logical"], []).append(conn)
        on_data(pe, msg, conn)

    exchange.on_data = capture  # the receive tasks read it at call time
    program.load_pressure(np.zeros((nz, ny, nx)))
    exchange.run(EventRuntime(program.fabric, WSE2))
    return {
        coord: tuple(conn.name for conn in arrivals)
        for coord, arrivals in orders.items()
    }
