"""The 2D fabric: a grid of PEs and their routers.

"The WSE ... comes with a 2D-mesh interconnection fabric that connects
processing elements (PEs) where computations take place" (Sec. 4).  The
fabric object wires one :class:`Router` to every
:class:`ProcessingElement` and offers bulk configuration helpers used by
the dataflow program builder.

The bulk helpers work by *class*, not by PE: a switch schedule is
validated and flattened once per distinct schedule
(:meth:`Fabric.install_routes`, which :meth:`Fabric.configure_color`
feeds), and a memory map is planned once and backed by one PE-major
block for the whole PE rectangle (:meth:`Fabric.install_memory`).  What
is left per PE is what differs per PE.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.wse.dsd import DsdEngine
from repro.wse.geometry import in_bounds
from repro.wse.memory import MemoryPlan, Scratchpad, WSE2_PE_MEMORY_BYTES
from repro.wse.pe import ProcessingElement
from repro.wse.router import RoutePosition, Router, prepare_route

__all__ = ["Fabric", "WSE2_MAX_FABRIC"]

#: Largest usable fabric on CS-2 with SDK 0.6.0 (Sec. 7.1): a thin layer
#: of boundary PEs is reserved by the SDK.
WSE2_MAX_FABRIC = (750, 994)


def _position_key(position: RoutePosition) -> tuple:
    """Hashable identity of one switch position (output ports may come
    as any sequence)."""
    return tuple([(port, tuple(outs)) for port, outs in position.items()])


class Fabric:
    """A ``width x height`` grid of PEs with routers.

    Parameters
    ----------
    width, height:
        Fabric dimensions in PEs.
    pe_memory_bytes:
        Scratchpad capacity per PE.
    pe_memory_reserved:
        Bytes reserved for code on each PE.
    vectorized:
        Whether PE datapaths use the SIMD/DSD fast path (Sec. 5.3.3);
        affects cycle accounting only.
    bypass_columns:
        Physical columns taken out of service (CS-2 yield handling:
        defective columns are fused out and east/west traffic passes
        straight through them with no extra hop cost).  The runtime's
        link-destination table walks past these columns transparently;
        their PEs/routers exist but never see traffic.
    """

    def __init__(
        self,
        width: int,
        height: int,
        *,
        pe_memory_bytes: int = WSE2_PE_MEMORY_BYTES,
        pe_memory_reserved: int = 0,
        vectorized: bool = True,
        bypass_columns=(),
    ) -> None:
        if width < 1 or height < 1:
            raise ValueError("fabric dimensions must be positive")
        max_w, max_h = WSE2_MAX_FABRIC
        if width > max_w or height > max_h:
            raise ValueError(
                f"fabric {width}x{height} exceeds the usable WSE-2 fabric "
                f"{max_w}x{max_h}"
            )
        self.bypass_columns = frozenset(bypass_columns)
        for col in self.bypass_columns:
            if not 0 <= col < width:
                raise ValueError(
                    f"bypass column {col} outside fabric width {width}"
                )
        if len(self.bypass_columns) >= width:
            raise ValueError("cannot bypass every fabric column")
        self.width = width
        self.height = height
        self._pes: dict[tuple[int, int], ProcessingElement] = {}
        self._routers: dict[tuple[int, int], Router] = {}
        for y in range(height):
            for x in range(width):
                coord = (x, y)
                self._pes[coord] = ProcessingElement(
                    coord=coord,
                    memory=Scratchpad(
                        pe_memory_bytes, reserved=pe_memory_reserved
                    ),
                    dsd=DsdEngine(vectorized=vectorized),
                )
                self._routers[coord] = Router(coord=coord)

    # ------------------------------------------------------------------ #
    @property
    def num_pes(self) -> int:
        """Total PEs on the fabric."""
        return self.width * self.height

    @property
    def pe_map(self) -> dict[tuple[int, int], ProcessingElement]:
        """Coordinate-keyed PE table (hot-path access for the runtime;
        treat as read-only)."""
        return self._pes

    @property
    def router_map(self) -> dict[tuple[int, int], Router]:
        """Coordinate-keyed router table (hot-path access for the
        runtime; treat as read-only)."""
        return self._routers

    def pe(self, x: int, y: int) -> ProcessingElement:
        """PE at coordinate ``(x, y)``."""
        try:
            return self._pes[(x, y)]
        except KeyError:
            raise IndexError(
                f"PE ({x}, {y}) outside fabric {self.width}x{self.height}"
            ) from None

    def router(self, x: int, y: int) -> Router:
        """Router at coordinate ``(x, y)``."""
        try:
            return self._routers[(x, y)]
        except KeyError:
            raise IndexError(
                f"router ({x}, {y}) outside fabric {self.width}x{self.height}"
            ) from None

    def contains(self, coord: tuple[int, int]) -> bool:
        """True when *coord* is on the fabric."""
        return in_bounds(coord, self.width, self.height)

    def pes(self) -> Iterator[ProcessingElement]:
        """Iterate all PEs in row-major order."""
        for y in range(self.height):
            for x in range(self.width):
                yield self._pes[(x, y)]

    def configured_colors(self) -> set[int]:
        """Union of colors with routing installed on any router."""
        colors: set[int] = set()
        for router in self._routers.values():
            colors.update(router.configs)
        return colors

    # ------------------------------------------------------------------ #
    def configure_color(
        self,
        color: int,
        positions_for: Callable[[tuple[int, int]], list[RoutePosition] | None],
        *,
        initial_for: Callable[[tuple[int, int]], int] | None = None,
    ) -> None:
        """Install routing for *color* on every router.

        Parameters
        ----------
        positions_for:
            Callback mapping a coordinate to that router's switch
            positions (return None to leave the router unconfigured).
        initial_for:
            Optional callback choosing the initial switch position per
            router (default 0).
        """
        classes: list[tuple[list[RoutePosition], int]] = []
        index: dict[tuple, int] = {}
        assignment: list[int] = []
        for coord in self._routers:
            positions = positions_for(coord)
            if positions is None:
                assignment.append(-1)
                continue
            initial = initial_for(coord) if initial_for is not None else 0
            key = (initial, *map(_position_key, positions))
            idx = index.get(key)
            if idx is None:
                idx = index[key] = len(classes)
                classes.append((positions, initial))
            assignment.append(idx)
        self.install_routes(color, classes, assignment)

    def install_routes(
        self,
        color: int,
        classes: Sequence[tuple[list[RoutePosition], int]],
        assignment: Sequence[int],
        *,
        allow_loops: bool = False,
    ) -> None:
        """Install routing for *color* from a class table.

        Parameters
        ----------
        classes:
            The distinct ``(switch positions, initial position)``
            schedules of the color; each is validated and flattened once.
        assignment:
            Row-major, one entry per router: an index into *classes*, or
            ``-1`` to leave that router unconfigured — the layout of a
            :class:`~repro.ir.schema.FabricProgramIR` route table.
        allow_loops:
            See :func:`~repro.wse.router.prepare_route`.
        """
        if len(assignment) != self.num_pes:
            raise ValueError(
                f"assignment has {len(assignment)} entries for a fabric "
                f"of {self.num_pes} PEs"
            )
        prepared: dict[int, tuple] = {}  # classes in use, prepared once
        for router, idx in zip(self._routers.values(), assignment):
            if idx < 0:
                continue
            pair = prepared.get(idx)
            if pair is None:
                positions, initial = classes[idx]
                pair = prepared[idx] = prepare_route(
                    color, positions, initial, allow_loops=allow_loops
                )
            router.install(color, *pair)

    def install_memory(
        self, plan: MemoryPlan, coords: Iterable[tuple[int, int]]
    ) -> dict[str, np.ndarray]:
        """Give the PEs at *coords* the memory map *plan*, backed by one
        PE-major block.

        Returns ``name -> (n_pes, *shape)`` views over the block, entry
        ``i`` being the array of the ``i``-th coordinate — the arrays a
        program binds, and the handle for filling static data fabric-wide.
        """
        memories = [self._pes[coord].memory for coord in coords]
        block = plan.block(len(memories))
        for memory, row in zip(memories, block):
            memory.adopt(plan, row)
        return plan.columns(block)

    def bind_all(self, color: int, handler, *, control: bool = False) -> None:
        """Bind the same task *handler* to *color* on every PE."""
        for pe in self._pes.values():
            if control:
                pe.bind_control(color, handler)
            else:
                pe.bind(color, handler)

    # ------------------------------------------------------------------ #
    # Aggregate accounting
    # ------------------------------------------------------------------ #
    def total_counts(self) -> dict[str, int]:
        """Sum of DSD instruction counts over all PEs."""
        totals: dict[str, int] = {}
        for pe in self.pes():
            for op, n in pe.dsd.counts.items():
                totals[op] = totals.get(op, 0) + n
        return totals

    def total_flops(self) -> int:
        """Total floating point operations executed on the fabric."""
        return sum(pe.dsd.flops for pe in self.pes())

    def max_memory_high_water(self) -> int:
        """Largest scratchpad high-water mark across PEs (bytes)."""
        return max(pe.memory.high_water for pe in self.pes())

    def reset_counters(self) -> None:
        """Zero all PE instruction counters and busy times."""
        for pe in self.pes():
            pe.dsd.reset()
            pe.busy_until = 0.0
            pe.messages_received = pe.messages_sent = 0
            pe.words_received = pe.words_sent = 0
