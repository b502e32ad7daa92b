"""The 2D fabric: a grid of PEs and their routers.

"The WSE ... comes with a 2D-mesh interconnection fabric that connects
processing elements (PEs) where computations take place" (Sec. 4).  The
fabric object holds every :class:`ProcessingElement` and the routing of
every router, and offers the bulk configuration the dataflow programs
use.

The fabric holds once what the paper's one program gives every PE.
Tasks are per color (:meth:`Fabric.bind_all`): every program here runs
the same code on every PE, so one data-task and one control-task table
serve the whole fabric.  Routing is per *route class*: a color's
distinct switch schedules are validated and flattened once each
(:class:`~repro.wse.router.ColorConfig`) and every router holds a class
index per color (:meth:`Fabric.install_routes`, which
:meth:`Fabric.configure_color` feeds).  The switch states the routers'
signatures can reach are built once per signature, and a router's
state is one integer of the fabric's
:class:`~repro.wse.router.SwitchTables` (:meth:`Fabric.switch_tables`);
:meth:`Fabric.router` builds a :class:`~repro.wse.router.Router` view on
demand.  A memory map is planned once and backed by one PE-major block
for the whole PE rectangle (:meth:`Fabric.install_memory`); a PE's
scratchpad is built over its row only when tooling reads
``pe.memory``.  What is left per PE is what differs per PE: its
:class:`~repro.wse.dsd.DsdEngine`, counters and busy time.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.wse.geometry import in_bounds
from repro.wse.memory import MemoryPlan, Scratchpad, WSE2_PE_MEMORY_BYTES
from repro.wse.packet import Message
from repro.wse.pe import ProcessingElement
from repro.wse.router import ColorConfig, RoutePosition, Router, SwitchTables

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
        self.pe_memory_bytes = pe_memory_bytes
        self.pe_memory_reserved = pe_memory_reserved
        #: Every PE by physical row-major index (``pe.index``, ``y *
        #: width + x``): what the event runtime reads per event.
        self.pe_list = ProcessingElement.grid(self, vectorized=vectorized)
        self._pes = {pe.coord: pe for pe in self.pe_list}
        #: color -> ``(class configs, assignment)`` as installed
        #: (:meth:`install_routes`); the switch states built from them,
        #: rebuilt after an install (:meth:`switch_tables`)
        self._routes: dict[int, tuple[list, Sequence[int]]] = {}
        self._switch: SwitchTables | None = None
        self._switch_stale = True
        #: installed memory plans ``(plan, block)``, and per PE (by
        #: index) the plan it runs and its row of that plan's block
        #: (``-1``: none); the PEs whose scratchpad was built
        #: (``pe.memory``)
        self._memory_blocks: list[tuple[MemoryPlan, np.ndarray]] = []
        self._memory_plan = np.full(self.num_pes, -1, dtype=np.intp)
        self._memory_row = np.full(self.num_pes, -1, dtype=np.intp)
        self._memory_built: set[int] = set()
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

    def pe(self, x: int, y: int) -> ProcessingElement:
        """PE at coordinate ``(x, y)``."""
        try:
            return self._pes[(x, y)]
        except KeyError:
            raise IndexError(
                f"PE ({x}, {y}) outside fabric {self.width}x{self.height}"
            ) from None

    def router(self, x: int, y: int) -> Router:
        """A view of the router at coordinate ``(x, y)``."""
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise IndexError(
                f"router ({x}, {y}) outside fabric {self.width}x{self.height}"
            )
        return Router(self, y * self.width + x)

    def contains(self, coord: tuple[int, int]) -> bool:
        """True when *coord* is on the fabric."""
        return in_bounds(coord, self.width, self.height)

    def pes(self) -> Iterator[ProcessingElement]:
        """Iterate all PEs in row-major order."""
        return iter(self.pe_list)

    def configured_colors(self) -> set[int]:
        """Colors with routing installed on any router."""
        return {
            color
            for color, (configs, _assignment) in self._routes.items()
            if any(cfg is not None for cfg in configs)
        }

    def color_config(self, color: int, index: int) -> ColorConfig | None:
        """The schedule of *color* on the router of PE *index* (its
        class's, shared), or None where the router does not configure
        it."""
        entry = self._routes.get(color)
        if entry is None:
            return None
        configs, assignment = entry
        idx = assignment[index]
        return configs[idx] if idx >= 0 else None

    def color_configs(self, color: int) -> list[ColorConfig | None]:
        """:meth:`color_config` of every router, row-major."""
        entry = self._routes.get(color)
        if entry is None:
            return [None] * self.num_pes
        configs, assignment = entry
        return [configs[idx] if idx >= 0 else None for idx in assignment]

    def switch_tables(self) -> SwitchTables:
        """The switch states of every router (built once per signature,
        after the last install) and each router's current one."""
        if self._switch_stale:
            self._switch = SwitchTables(self._routes, self.num_pes, self._switch)
            self._switch_stale = False
        return self._switch

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
        for pe in self.pe_list:
            coord = pe.coord
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
        n = self.num_pes
        if len(assignment) != n:
            raise ValueError(
                f"assignment has {len(assignment)} entries for a fabric "
                f"of {n} PEs"
            )
        # the classes in use, validated and flattened once each, in the
        # order routers first use them
        configs: list[ColorConfig | None] = [None] * len(classes)
        for idx in dict.fromkeys(assignment):
            if idx >= 0:
                positions, initial = classes[idx]
                configs[idx] = ColorConfig(color, positions, initial, allow_loops)
        entry = self._routes.get(color)
        if entry is not None:
            old_configs, old = entry
            for index, (a, b) in enumerate(zip(old, assignment)):
                if a >= 0 and b >= 0:
                    raise ValueError(
                        f"router {(index % self.width, index // self.width)}: "
                        f"color {color} already configured"
                    )
            offset = len(old_configs)
            configs = old_configs + configs
            assignment = [a if b < 0 else b + offset for a, b in zip(old, assignment)]
        # kept, not copied: the caller's table (an IR's cached one) must
        # not change after the install
        self._routes[color] = (configs, assignment)
        self._switch_stale = True

    def install_memory(
        self, plan: MemoryPlan, coords: Iterable[tuple[int, int]]
    ) -> dict[str, np.ndarray]:
        """Give the PEs at *coords* the memory map *plan*, backed by one
        PE-major block.

        Returns ``name -> (n_pes, *shape)`` views over the block, entry
        ``i`` being the array of the ``i``-th coordinate — the arrays a
        program binds, and the handle for filling static data fabric-wide.
        The plan is checked once, here; a PE's scratchpad over its row is
        built when ``pe.memory`` is first read.
        """
        if (plan.capacity, plan.reserved) != (
            self.pe_memory_bytes, self.pe_memory_reserved,
        ):
            raise ValueError(
                f"plan was made for {plan.capacity} B with {plan.reserved} B "
                f"reserved, this fabric's PEs have {self.pe_memory_bytes} B "
                f"with {self.pe_memory_reserved} B reserved"
            )
        pes = list(map(self._pes.__getitem__, coords))
        indices = np.array([pe.index for pe in pes], dtype=np.intp)
        if (
            len(set(indices.tolist())) < len(indices)
            or (self._memory_plan[indices] >= 0).any()
        ):
            raise ValueError("only an unused scratchpad can adopt a plan")
        block = plan.block(len(pes))
        if self._memory_built:
            # a scratchpad tooling already built takes the plan over
            for row, pe in enumerate(pes):
                if pe.index in self._memory_built:
                    pe.memory.adopt(plan, block[row])
        self._memory_plan[indices] = len(self._memory_blocks)
        self._memory_row[indices] = np.arange(len(pes))
        self._memory_blocks.append((plan, block))
        return plan.columns(block)

    def scratchpad(self, index: int) -> Scratchpad:
        """A new scratchpad for PE *index*: over its row of the block of
        its installed plan, or empty (what ``pe.memory`` holds)."""
        self._memory_built.add(index)
        pad = Scratchpad(self.pe_memory_bytes, reserved=self.pe_memory_reserved)
        install = int(self._memory_plan[index])
        if install >= 0:
            plan, block = self._memory_blocks[install]
            pad.adopt(plan, block[int(self._memory_row[index])])
        return pad

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
        """Largest scratchpad high-water mark across PEs (bytes): a
        built scratchpad's own, else its plan's, else the reserved
        region."""
        marks = [plan.high_water for plan, _block in self._memory_blocks]
        for index in self._memory_built:
            marks.append(self.pe_list[index].memory.high_water)
        return max(marks, default=self.pe_memory_reserved)

    def reset_counters(self) -> None:
        """Zero all PE instruction counters and busy times."""
        for pe in self.pe_list:
            pe.dsd.reset()
            pe.busy_until = 0.0
            pe.messages_received = pe.messages_sent = 0
            pe.words_received = pe.words_sent = 0
