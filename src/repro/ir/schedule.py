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
pins the probe's invariance to ``nz``, dtype and ``compute_fluxes`` —
which is what lets one ``nz=1`` probe with the flux kernel disabled
stand for every program with the same option set.

The schedule is a *derived annotation* of the IR
(:meth:`FabricProgramIR.annotate` under ``"fold_schedule"``): it is
excluded from the content hash and from the IR-build cost.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["arrival_schedule", "schedule_classes", "probe_schedule"]


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
) -> list[tuple[tuple[str, ...], slice, slice]]:
    """The fabric as ``(order, y-slice, x-slice)`` rectangles of stride <= 2.

    The rectangles partition the ``ny x nx`` fabric; every PE inside one
    shares ``order``, its X-Y halo arrival order as connection names.
    """
    reduced = probe_schedule(
        _reduced(nx),
        _reduced(ny),
        bool(reuse_buffers),
        bool(overlap_compute),
        bool(vectorized),
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
    )
    return {
        (x, y): order
        for order, ys, xs in classes
        for y in range(*ys.indices(ny))
        for x in range(*xs.indices(nx))
    }


@lru_cache(maxsize=None)
def probe_schedule(
    nx: int, ny: int, reuse_buffers: bool, overlap_compute: bool, vectorized: bool
) -> dict[tuple[int, int], tuple[str, ...]]:
    """One event application at nz=1 with the flux kernel disabled.

    ``compute_fluxes=False`` keeps the probe cheap without changing the
    delivery order (measured invariance, see module docstring).  Cached:
    :func:`schedule_classes` only ever asks for reduced (<= 5x5) shapes.
    """
    from repro.core.fluid import FluidProperties
    from repro.core.mesh import CartesianMesh3D
    from repro.dataflow.program import FluxProgram
    from repro.wse.perf import WSE2
    from repro.wse.runtime import EventRuntime

    mesh = CartesianMesh3D(nx, ny, 1)
    program = FluxProgram(
        mesh,
        FluidProperties(),
        dtype=np.float32,
        reuse_buffers=reuse_buffers,
        overlap_compute=overlap_compute,
        vectorized=vectorized,
        compute_fluxes=False,
    )
    orders: dict[tuple[int, int], list] = {}
    original = program._receive_neighbour

    def capture(pe, msg, conn):
        orders.setdefault(pe.state["logical"], []).append(conn)
        original(pe, msg, conn)

    # instance-attribute override shadows the bound method: the receive
    # tasks look up ``self._receive_neighbour`` at call time
    program._receive_neighbour = capture
    rt = EventRuntime(program.fabric, WSE2)
    program.load_pressure(np.zeros((1, ny, nx)))
    program.begin_application(rt)
    rt.run()
    program.verify_deliveries()
    return {
        coord: tuple(conn.name for conn in arrivals)
        for coord, arrivals in orders.items()
    }
