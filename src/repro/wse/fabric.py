"""The 2D fabric: a grid of PEs and their routers.

"The WSE ... comes with a 2D-mesh interconnection fabric that connects
processing elements (PEs) where computations take place" (Sec. 4).  The
fabric object wires one :class:`Router` to every
:class:`ProcessingElement` and offers bulk configuration helpers used by
the dataflow program builder.

The fabric holds once what the paper's one program gives every PE.
Tasks are per color (:meth:`Fabric.bind_all`): every program here runs
the same code on every PE, so one data-task and one control-task table
serve the whole fabric.  A switch schedule is per *route class*: it is
validated and flattened once per distinct schedule and every router of
the class holds that one :class:`~repro.wse.router.ColorConfig`
(:meth:`Fabric.install_routes`, which :meth:`Fabric.configure_color`
feeds).  A memory map is planned once and backed by one PE-major block
for the whole PE rectangle (:meth:`Fabric.install_memory`).  What is
left per PE is what differs per PE.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.wse.dsd import DsdEngine
from repro.wse.geometry import in_bounds
from repro.wse.memory import MemoryPlan, Scratchpad, WSE2_PE_MEMORY_BYTES
from repro.wse.packet import Message
from repro.wse.pe import ProcessingElement
from repro.wse.router import ColorConfig, RoutePosition, Router

__all__ = ["Fabric", "WSE2_MAX_FABRIC"]

#: A task: ``task(runtime, pe, message)``, run on the receiving PE.
Task = Callable[["object", ProcessingElement, Message], None]

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
        #: Every PE and router by physical row-major index (``pe.index``,
        #: ``y * width + x``): what the event runtime reads per event.
        self.pe_list = [
            ProcessingElement(
                coord=(x, y),
                memory=Scratchpad(pe_memory_bytes, reserved=pe_memory_reserved),
                dsd=DsdEngine(vectorized=vectorized),
                index=y * width + x,
            )
            for y in range(height)
            for x in range(width)
        ]
        self.router_list = [Router(coord=pe.coord) for pe in self.pe_list]
        self._pes = {pe.coord: pe for pe in self.pe_list}
        self._routers = {r.coord: r for r in self.router_list}
        #: color -> the data / control task every PE runs for it
        #: (filled by :meth:`bind_all`; the runtime caches both dicts)
        self.tasks: dict[int, Task] = {}
        self.control_tasks: dict[int, Task] = {}

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
        return iter(self.pe_list)

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
            schedules of the color; each used one becomes one
            :class:`~repro.wse.router.ColorConfig`, held by every router
            assigned to it.
        assignment:
            Row-major, one entry per router: an index into *classes*, or
            ``-1`` to leave that router unconfigured — the layout of a
            :class:`~repro.ir.schema.FabricProgramIR` route table.
        allow_loops:
            See :class:`~repro.wse.router.ColorConfig`.
        """
        if len(assignment) != self.num_pes:
            raise ValueError(
                f"assignment has {len(assignment)} entries for a fabric "
                f"of {self.num_pes} PEs"
            )
        prepared: dict[int, ColorConfig] = {}  # classes in use, built once
        for router, idx in zip(self.router_list, assignment):
            if idx < 0:
                continue
            cfg = prepared.get(idx)
            if cfg is None:
                positions, initial = classes[idx]
                cfg = prepared[idx] = ColorConfig(
                    color, positions, initial, allow_loops
                )
            # inline per router: a call here is a frame per PE per color
            if color in router.configs:
                raise ValueError(
                    f"router {router.coord}: color {color} already configured"
                )
            router.configs[color] = cfg
            router.current[color] = cfg.initial
            router.table.update(cfg.flat[cfg.initial])

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

    def bind_all(self, color: int, task: Task, *, control: bool = False) -> None:
        """Bind *task* as the data (or control) task of *color* on every
        PE: one entry in the fabric's table, one task per color."""
        tasks = self.control_tasks if control else self.tasks
        if color in tasks:
            kind = "control for color" if control else "color"
            raise ValueError(f"{kind} {color} already bound")
        tasks[color] = task

    # ------------------------------------------------------------------ #
    # Aggregate accounting
    # ------------------------------------------------------------------ #
    # Row-major over ``pe_list`` and with no generator: a per-PE resume
    # is a Python frame per PE per application of the event driver.
    def compute_cycles(self) -> float:
        """Total PE datapath cycles, summed in row-major order."""
        return sum([pe.dsd.cycles for pe in self.pe_list])

    def total_counts(self) -> dict[str, int]:
        """Sum of DSD instruction counts over all PEs."""
        totals: dict[str, int] = {}
        for pe in self.pe_list:
            for op, n in pe.dsd.counts.items():
                totals[op] = totals.get(op, 0) + n
        return totals

    def total_flops(self) -> int:
        """Total floating point operations executed on the fabric."""
        return sum([pe.dsd.flops for pe in self.pe_list])

    def max_memory_high_water(self) -> int:
        """Largest scratchpad high-water mark across PEs (bytes)."""
        return max([pe.memory.high_water for pe in self.pe_list])

    def reset_counters(self) -> None:
        """Zero all PE instruction counters and busy times."""
        for pe in self.pe_list:
            pe.dsd.reset()
            pe.busy_until = 0.0
            pe.messages_received = pe.messages_sent = 0
            pe.words_received = pe.words_sent = 0
